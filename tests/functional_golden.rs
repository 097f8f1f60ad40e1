//! Functional pin: every Table 4 workload is run on the host interpreter at
//! `Scale(1)` and the bit patterns of its final memories, plus its
//! `InterpStats`, are compared against `tests/golden/functional.json`.
//!
//! `Bench::verify` compares floats within a relative tolerance and the
//! stats goldens see only trip counts, so neither would notice an f32 fold
//! combined in a different order. This pin does: each digest is FNV-1a over
//! `Elem::to_bits` (and the type tag) of every word. When a change is meant
//! to alter functional results, regenerate and review the diff:
//!
//! ```sh
//! PLASTICINE_BLESS=1 cargo test --test functional_golden
//! git diff tests/golden/functional.json
//! ```

use plasticine::json::hash::Fnv1a;
use plasticine::json::Json;
use plasticine::ppir::{DType, DramId, Elem, Machine, Program, RegId, SramId};
use plasticine::workloads::{all, Scale};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("functional.json")
}

fn digest<'a>(words: impl IntoIterator<Item = &'a Elem>) -> Json {
    let mut h = Fnv1a::new();
    for e in words {
        h.update(&[u8::from(e.dtype() == DType::F32)]);
        h.update(&e.to_bits().to_le_bytes());
    }
    Json::hex(h.finish())
}

/// The pinned record of one finished run.
fn record(p: &Program, m: &Machine) -> Json {
    let stats = m.stats;
    let drams = (0..p.drams().len() as u32).flat_map(|i| m.dram_data(DramId(i)));
    let srams = (0..p.srams().len() as u32).flat_map(|i| m.sram_data(SramId(i)));
    let regs: Vec<Elem> = (0..p.regs().len() as u32)
        .map(|i| m.reg(RegId(i)))
        .collect();
    Json::obj([
        ("dram", digest(drams)),
        ("sram", digest(srams)),
        ("regs", digest(&regs)),
        ("body_invocations", Json::from(stats.body_invocations)),
        ("dram_reads", Json::from(stats.dram_reads)),
        ("dram_writes", Json::from(stats.dram_writes)),
        ("sram_writes", Json::from(stats.sram_writes)),
    ])
}

#[test]
fn all_workloads_match_functional_pin() {
    let benches = all(Scale(1));
    assert_eq!(benches.len(), 13, "expected the 13 Table 4 workloads");
    let got = Json::obj(benches.iter().map(|b| {
        let mut m = Machine::new(&b.program);
        b.load(&mut m);
        m.run().unwrap_or_else(|e| panic!("{}: {e}", b.name));
        (b.name.clone(), record(&b.program, &m))
    }));
    let path = golden_path();
    if std::env::var("PLASTICINE_BLESS").is_ok() {
        std::fs::write(&path, got.pretty()).unwrap();
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {} (run `PLASTICINE_BLESS=1 cargo test --test functional_golden`)",
            path.display()
        )
    });
    let want = Json::parse(&text).expect("functional pin parses");
    let (Some(want), Some(got)) = (want.as_obj(), got.as_obj()) else {
        panic!("functional pin is an object");
    };
    let drifted: Vec<String> = got
        .iter()
        .filter(|(name, rec)| want.iter().find(|(n, _)| n == name).map(|(_, w)| w) != Some(rec))
        .map(|(name, rec)| format!("{name}: got {}", rec.compact()))
        .collect();
    assert_eq!(want.len(), got.len(), "pinned workload count");
    assert!(
        drifted.is_empty(),
        "functional results drifted; if intentional, bless and review the diff:\n  {}",
        drifted.join("\n  ")
    );
}

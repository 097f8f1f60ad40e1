//! Step-mode lockstep oracles.
//!
//! Event stepping skips quiescent cycles and passes over parked nodes;
//! cycle stepping visits every active node on every cycle and is the
//! reference semantics. Straight-through stats identity (`step_mode.rs`)
//! cannot see a difference that heals before the run ends, so these tests
//! compare the two modes where the state is observable:
//!
//! - at every pause point: an event kernel paused every `k` cycles, and a
//!   cycle kernel advanced to the event kernel's actual cycle, must write
//!   the same checkpoint up to the `step` field and the content hash over
//!   it — the control tree's `active` order included;
//! - at the end: the Chrome traces of the two modes are byte-identical.
//!
//! Both run every Table 4 workload at `Scale(1)`, under the paper's DRAM
//! and the same DRAM seen from a 96× faster fabric.

use plasticine::arch::PlasticineParams;
use plasticine::compiler::{compile, CompileOutput};
use plasticine::dram::DramConfig;
use plasticine::ppir::Machine;
use plasticine::sim::{
    simulate, simulate_traced, Advance, Checkpoint, SimKernel, SimOptions, StepMode,
};
use plasticine::workloads::{all, Bench, Scale};

fn compiled() -> Vec<(Bench, CompileOutput)> {
    let params = PlasticineParams::paper_final();
    all(Scale(1))
        .into_iter()
        .map(|b| {
            let out =
                compile(&b.program, &params).unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
            (b, out)
        })
        .collect()
}

fn dram_configs() -> [DramConfig; 2] {
    [
        DramConfig::default(),
        DramConfig {
            core_ghz: 96.0,
            ..DramConfig::default()
        },
    ]
}

fn options(dram: &DramConfig, step: StepMode) -> SimOptions {
    SimOptions {
        dram: dram.clone(),
        step,
        ..SimOptions::default()
    }
}

fn kernel(bench: &Bench, out: &CompileOutput, opts: &SimOptions) -> SimKernel {
    let mut m = Machine::new(&bench.program);
    bench.load(&mut m);
    SimKernel::new(&bench.program, out, &mut m, opts, false, None)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
}

/// A checkpoint's bytes without the top-level fields that name the step
/// mode: `step`, and the content hash computed over it. With `decode`, the
/// bytes are first checked to decode (hash and format), as a resume would.
fn normalized(c: &Checkpoint, decode: bool) -> String {
    let text = c.encode();
    if decode {
        Checkpoint::decode(&text).expect("checkpoint decodes");
    }
    text.lines()
        .filter(|l| !l.starts_with("  \"step\":") && !l.starts_with("  \"content_hash\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Pauses an event kernel every `k` cycles, at most `max_pauses` times,
/// brings a cycle kernel to each pause's actual cycle, and compares their
/// checkpoints; then, when `to_end`, decodes them too, runs both kernels
/// to completion and compares their stats. Returns the number of pauses
/// compared.
fn lockstep(
    bench: &Bench,
    out: &CompileOutput,
    dram: &DramConfig,
    k: u64,
    max_pauses: usize,
    to_end: bool,
) -> usize {
    let what = format!("{} (core_ghz {}, k {k})", bench.name, dram.core_ghz);
    let mut ev = kernel(bench, out, &options(dram, StepMode::Event));
    let mut cy = kernel(bench, out, &options(dram, StepMode::Cycle));
    let mut pauses = 0;
    while pauses < max_pauses {
        let step = ev.advance(Some(ev.now() + k), None);
        if step.unwrap_or_else(|e| panic!("{what}: {e}")) == Advance::Finished {
            break;
        }
        let at = ev.now();
        let step = cy.advance(Some(at), None);
        assert_eq!(
            step.unwrap_or_else(|e| panic!("{what}: {e}")),
            Advance::Paused,
            "{what}: cycle mode finished before cycle {at}"
        );
        assert_eq!(cy.now(), at, "{what}: cycle mode paused off the boundary");
        assert_eq!(
            normalized(&ev.checkpoint(), to_end),
            normalized(&cy.checkpoint(), to_end),
            "{what}: checkpoints differ at cycle {at}"
        );
        pauses += 1;
    }
    if to_end {
        ev.advance(None, None)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        cy.advance(None, None)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            ev.finish().0.stats_json().compact(),
            cy.finish().0.stats_json().compact(),
            "{what}: final stats differ"
        );
    }
    pauses
}

/// Every workload under both clocks, paused every 37 cycles over a
/// prefix of the run (32 pauses).
#[test]
fn checkpoints_agree_every_37_cycles() {
    let mut pauses = 0;
    for (bench, out) in compiled() {
        for dram in dram_configs() {
            pauses += lockstep(&bench, &out, &dram, 37, 32, false);
        }
    }
    assert!(pauses > 13 * 2 * 16, "too few pauses compared: {pauses}");
}

/// Every workload under both clocks, paused about four times over the
/// whole run, then run to the end.
#[test]
fn checkpoints_agree_at_quarters() {
    let mut pauses = 0;
    for (bench, out) in compiled() {
        for dram in dram_configs() {
            let mut m = Machine::new(&bench.program);
            bench.load(&mut m);
            let total = simulate(
                &bench.program,
                &out,
                &mut m,
                &options(&dram, StepMode::Event),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
            .cycles;
            pauses += lockstep(&bench, &out, &dram, total / 4 + 1, usize::MAX, true);
        }
    }
    assert!(pauses >= 13 * 2 * 3, "too few pauses compared: {pauses}");
}

/// The Chrome trace export — leaf spans, wait and bank-conflict spans, and
/// DRAM request spans — is byte-identical between step modes (the claim
/// `Tracer::extend_open` rests on), under both clocks.
#[test]
fn chrome_traces_agree_between_step_modes() {
    for (bench, out) in compiled() {
        for dram in dram_configs() {
            let trace = |step| {
                let mut m = Machine::new(&bench.program);
                bench.load(&mut m);
                let (_, t) = simulate_traced(&bench.program, &out, &mut m, &options(&dram, step))
                    .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
                t.chrome_trace(&bench.program).compact()
            };
            assert_eq!(
                trace(StepMode::Event),
                trace(StepMode::Cycle),
                "{} (core_ghz {}): Chrome traces differ between step modes",
                bench.name,
                dram.core_ghz
            );
        }
    }
}

//! Checkpoint/resume equivalence suite: for every Table 4 workload, in
//! both step modes (event mode also under a fabric clocked 96× faster than
//! the DRAM), a run that checkpoints at a mid-run cycle boundary and
//! a fresh process that resumes from that checkpoint must produce final
//! stats **byte-identical** to an uninterrupted run — same cycle count,
//! same stall attribution, same DRAM statistics, same fault-RNG stream.
//!
//! A property test repeats the round trip for random cadences under
//! fault injection: lane/SRAM flips, hard faults with an offline DRAM
//! channel, and DRAM response drops.
//!
//! The suite also pins the artifact format: encode→decode is a fixed
//! point, tampered payloads fail with [`CheckpointError::Corrupt`], and a
//! checkpoint taken from one program/bitstream/option-set refuses (with a
//! typed [`CheckpointError::Mismatch`]) to resume against another.

use plasticine::arch::{FaultMap, FaultSpec, PlasticineParams, Topology};
use plasticine::compiler::{compile, compile_degraded, CompileOptions, CompileOutput};
use plasticine::dram::DramConfig;
use plasticine::ppir::Machine;
use plasticine::sim::{
    simulate, simulate_checkpointed, Checkpoint, CheckpointError, CheckpointPolicy, SimError,
    SimOptions, StepMode,
};
use plasticine::workloads::{all, Bench, Scale};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Benches and their compile outputs, shared across every test in the
/// file (compilation is deterministic and read-only from here on).
fn compiled() -> &'static Vec<(Bench, CompileOutput)> {
    static COMPILED: OnceLock<Vec<(Bench, CompileOutput)>> = OnceLock::new();
    COMPILED.get_or_init(|| {
        let params = PlasticineParams::paper_final();
        all(Scale(1))
            .into_iter()
            .map(|b| {
                let out = compile(&b.program, &params)
                    .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
                (b, out)
            })
            .collect()
    })
}

fn fresh_machine(bench: &Bench) -> Machine<'_> {
    let mut m = Machine::new(&bench.program);
    bench.load(&mut m);
    m
}

/// Uninterrupted baseline: final stats snapshot plus the cycle count.
fn baseline(bench: &Bench, out: &CompileOutput, opts: &SimOptions) -> (String, u64) {
    let mut m = fresh_machine(bench);
    let r = simulate(&bench.program, out, &mut m, opts)
        .unwrap_or_else(|e| panic!("{}: baseline: {e}", bench.name));
    bench
        .verify(&m)
        .unwrap_or_else(|e| panic!("{}: baseline verification: {e}", bench.name));
    (r.stats_json().pretty(), r.cycles)
}

/// Runs to completion while checkpointing every `every` cycles, returning
/// the final stats and every emitted checkpoint.
fn checkpointing_run(
    bench: &Bench,
    out: &CompileOutput,
    opts: &SimOptions,
    every: u64,
) -> (String, Vec<Checkpoint>) {
    let mut m = fresh_machine(bench);
    let mut taken = Vec::new();
    let policy = CheckpointPolicy {
        every: Some(every),
        on_error: false,
    };
    let r = simulate_checkpointed(&bench.program, out, &mut m, opts, policy, None, &mut |c| {
        taken.push(c.clone())
    })
    .unwrap_or_else(|e| panic!("{}: checkpointing run: {e}", bench.name));
    (r.stats_json().pretty(), taken)
}

/// Resumes from `ckpt` on a fresh machine and returns the final stats.
fn resumed_run(bench: &Bench, out: &CompileOutput, opts: &SimOptions, ckpt: &Checkpoint) -> String {
    let mut m = fresh_machine(bench);
    let r = simulate_checkpointed(
        &bench.program,
        out,
        &mut m,
        opts,
        CheckpointPolicy::default(),
        Some(ckpt),
        &mut |_| {},
    )
    .unwrap_or_else(|e| panic!("{}: resume: {e}", bench.name));
    bench
        .verify(&m)
        .unwrap_or_else(|e| panic!("{}: resumed verification: {e}", bench.name));
    r.stats_json().pretty()
}

/// The full equivalence check for one workload in one step mode, under
/// the paper's DRAM seen from a fabric clocked at `core_ghz`.
fn check_bench(bench: &Bench, out: &CompileOutput, step: StepMode, core_ghz: f64) {
    let opts = SimOptions {
        dram: DramConfig {
            core_ghz,
            ..DramConfig::default()
        },
        step,
        ..SimOptions::default()
    };
    let (want, cycles) = baseline(bench, out, &opts);
    let every = (cycles / 2).max(1);
    let (ckpt_stats, taken) = checkpointing_run(bench, out, &opts, every);
    assert_eq!(
        ckpt_stats, want,
        "{} ({step:?}, core_ghz {core_ghz}): emitting checkpoints perturbed the run",
        bench.name
    );
    assert!(
        !taken.is_empty(),
        "{} ({step:?}, core_ghz {core_ghz}): no checkpoint emitted with every={every} over {cycles} cycles",
        bench.name
    );
    for c in &taken {
        assert!(
            c.cycle > 0 && c.cycle < cycles,
            "{} ({step:?}, core_ghz {core_ghz}): checkpoint at cycle {} outside mid-run (0, {cycles})",
            bench.name,
            c.cycle
        );
    }
    // Resume from the serialized form, not the in-memory one, so the whole
    // encode→decode→restore path is on the hot path of every workload.
    let mid = taken.last().unwrap();
    let decoded =
        Checkpoint::decode(&mid.encode()).unwrap_or_else(|e| panic!("{}: decode: {e}", bench.name));
    assert_eq!(
        decoded.encode(),
        mid.encode(),
        "{}: encode→decode is not a fixed point",
        bench.name
    );
    let got = resumed_run(bench, out, &opts, &decoded);
    assert_eq!(
        got, want,
        "{} ({step:?}, core_ghz {core_ghz}): resume from cycle {} diverged from the uninterrupted run",
        bench.name, decoded.cycle
    );
}

#[test]
fn all_workloads_resume_bit_identical_event_mode() {
    for (bench, out) in compiled() {
        check_bench(bench, out, StepMode::Event, 1.0);
        // A fabric 96× faster than the DRAM: the starvation guard binds
        // almost always, and fast-forward jumps from one exact DRAM wake-up
        // to the next, so checkpoints land well past the cadence.
        check_bench(bench, out, StepMode::Event, 96.0);
    }
}

#[test]
fn all_workloads_resume_bit_identical_cycle_mode() {
    for (bench, out) in compiled() {
        check_bench(bench, out, StepMode::Cycle, 1.0);
    }
}

#[test]
fn cross_mode_resume_matches() {
    // A checkpoint taken in event mode resumes under cycle mode (and vice
    // versa) with identical stats — the step mode is informational, not a
    // guard hash.
    for (bench, out) in compiled().iter().take(3) {
        let event = SimOptions {
            step: StepMode::Event,
            ..SimOptions::default()
        };
        let cycle = SimOptions {
            step: StepMode::Cycle,
            ..SimOptions::default()
        };
        let (want, cycles) = baseline(bench, out, &event);
        let (_, taken) = checkpointing_run(bench, out, &event, (cycles / 2).max(1));
        let mid = taken.last().unwrap();
        assert_eq!(
            resumed_run(bench, out, &cycle, mid),
            want,
            "{}: event-mode checkpoint resumed under cycle mode diverged",
            bench.name
        );
        let (_, taken) = checkpointing_run(bench, out, &cycle, (cycles / 2).max(1));
        assert_eq!(
            resumed_run(bench, out, &event, taken.last().unwrap()),
            want,
            "{}: cycle-mode checkpoint resumed under event mode diverged",
            bench.name
        );
    }
}

#[test]
fn mismatched_program_is_a_typed_error() {
    let benches = compiled();
    let (a, out_a) = &benches[0];
    let (b, out_b) = &benches[1];
    let opts = SimOptions::default();
    let (_, cycles) = baseline(a, out_a, &opts);
    let (_, taken) = checkpointing_run(a, out_a, &opts, (cycles / 2).max(1));
    let ckpt = taken.last().unwrap();

    // Wrong program + wrong bitstream.
    let mut m = fresh_machine(b);
    let err = simulate_checkpointed(
        &b.program,
        out_b,
        &mut m,
        &opts,
        CheckpointPolicy::default(),
        Some(ckpt),
        &mut |_| {},
    )
    .expect_err("resuming against the wrong program must fail");
    match &err {
        SimError::Checkpoint(CheckpointError::Mismatch(m)) => {
            assert!(
                m.contains(&a.name) || m.contains("program hash"),
                "mismatch message should name the checkpointed program: {m}"
            );
        }
        other => panic!("expected CheckpointError::Mismatch, got {other}"),
    }

    // Right program, different determinism-relevant options.
    let no_coalesce = SimOptions {
        coalescing: false,
        ..SimOptions::default()
    };
    let mut m = fresh_machine(a);
    let err = simulate_checkpointed(
        &a.program,
        out_a,
        &mut m,
        &no_coalesce,
        CheckpointPolicy::default(),
        Some(ckpt),
        &mut |_| {},
    )
    .expect_err("resuming under different sim options must fail");
    assert!(
        matches!(err, SimError::Checkpoint(CheckpointError::Mismatch(_))),
        "expected CheckpointError::Mismatch, got {err}"
    );

    // Bigger budgets are *not* a mismatch: that is the whole point of
    // auto-checkpointing on budget exhaustion.
    let bigger = SimOptions {
        max_cycles: SimOptions::default().max_cycles * 2,
        stall_limit: SimOptions::default().stall_limit * 2,
        ..SimOptions::default()
    };
    assert!(ckpt.matches(&a.program, &out_a.config, &bigger).is_ok());
}

#[test]
fn tampered_payload_is_corrupt() {
    let (bench, out) = &compiled()[0];
    let opts = SimOptions::default();
    let (_, cycles) = baseline(bench, out, &opts);
    let (_, taken) = checkpointing_run(bench, out, &opts, (cycles / 2).max(1));
    let text = taken.last().unwrap().encode();
    let tampered = text.replacen("\"cycle\"", "\"cycle \"", 1);
    assert_ne!(text, tampered, "tamper target not found");
    match Checkpoint::decode(&tampered) {
        Err(CheckpointError::Format(_)) | Err(CheckpointError::Corrupt { .. }) => {}
        other => panic!("expected Format or Corrupt, got {other:?}"),
    }
    // Flipping a digit inside a value keeps the JSON well-formed, so this
    // one must be caught by the content hash specifically.
    let c = taken.last().unwrap();
    let flipped = text.replacen(
        &format!("\"cycle\": {}", c.cycle),
        &format!("\"cycle\": {}", c.cycle + 1),
        1,
    );
    assert_ne!(text, flipped, "value tamper target not found");
    assert!(
        matches!(
            Checkpoint::decode(&flipped),
            Err(CheckpointError::Corrupt { .. })
        ),
        "a flipped in-payload value must fail the content hash"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for a random workload, step mode, checkpoint cadence, and
    /// fault spec, serialize→decode→resume reproduces the uninterrupted
    /// golden stats. A faulted bench is compiled against the sampled map
    /// (possibly with reduced parallelization) and simulated under it.
    #[test]
    fn random_cadence_roundtrips(
        which in 0usize..13,
        step in prop::sample::select(vec![StepMode::Event, StepMode::Cycle]),
        frac in 1u64..10,
        fault in prop::sample::select(vec![
            None,
            Some("lane=0.001,sram=0.001,seed=7"),
            Some("pcu=3,links=2,chan=1,seed=11"),
            Some("drop=0.005,seed=5"),
        ]),
    ) {
        let (bench, out) = &compiled()[which];
        let (bench, out, faults) = match fault {
            None => (bench.clone(), out.clone(), FaultMap::default()),
            Some(spec) => {
                let params = PlasticineParams::paper_final();
                let spec: FaultSpec = spec.parse().unwrap();
                let faults = FaultMap::sample(
                    &Topology::new(&params),
                    &spec,
                    DramConfig::default().channels,
                );
                let copts = CompileOptions { faults: faults.clone(), ..CompileOptions::new() };
                let (out, program, _) = compile_degraded(&bench.program, &params, &copts)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", bench.name)))?;
                (Bench { program, ..bench.clone() }, out, faults)
            }
        };
        let (bench, out) = (&bench, &out);
        let opts = SimOptions { step, faults, ..SimOptions::default() };
        let (want, cycles) = baseline(bench, out, &opts);
        // Cadence anywhere from ~10% to ~90% of the run.
        let every = (cycles * frac / 10).max(1);
        let (ckpt_stats, taken) = checkpointing_run(bench, out, &opts, every);
        prop_assert_eq!(&ckpt_stats, &want);
        if let Some(mid) = taken.last() {
            let decoded = Checkpoint::decode(&mid.encode())
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let got = resumed_run(bench, out, &opts, &decoded);
            prop_assert_eq!(&got, &want);
        }
    }
}

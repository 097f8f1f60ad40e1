//! Randomized differential for the kernel's two step modes under fault
//! injection and checkpointing.
//!
//! Event and cycle stepping must be *invisible* in every result byte, and a
//! checkpoint must carry no trace of the step mode that wrote it. A
//! pinned-seed proptest over random (workload, fault spec, checkpoint
//! cadence, fabric clock, credit cap) tuples asserts both, *crossing* step
//! modes between the checkpointing and the resuming run. The 96× clock
//! makes transfers wait thousands of cycles on DRAM, so event stepping
//! parks them for long spans; a credit cap, checked beside the uncapped
//! run, blocks pipelined children on their gates, whose control-stall
//! notes then stand for parked nodes, and may deadlock the run — then both
//! modes must fail alike. Same-mode round trips live in
//! `checkpoint_resume.rs`; fixed-spec step-mode agreement in
//! `step_mode.rs`; pause-by-pause agreement in `lockstep.rs`.

use plasticine::arch::{FaultMap, FaultSpec, PlasticineParams, Topology};
use plasticine::compiler::{compile, compile_degraded, CompileOptions, CompileOutput};
use plasticine::dram::DramConfig;
use plasticine::ppir::{Machine, Program};
use plasticine::sim::{
    simulate, simulate_checkpointed, Checkpoint, CheckpointPolicy, SimOptions, StepMode,
};
use plasticine::workloads::{all, Bench, Scale};
use proptest::prelude::*;
use std::sync::OnceLock;

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

fn fresh_machine<'p>(bench: &Bench, prog: &'p Program) -> Machine<'p> {
    let mut m = Machine::new(prog);
    bench.load(&mut m);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: for a random (workload, fault spec, checkpoint cadence,
    /// fabric clock, credit cap) tuple, (a) cycle mode matches event mode
    /// straight through, and (b) checkpointing under one step mode and
    /// resuming under the other reproduces the same bytes, in both
    /// directions. Both hold for the tuple without its cap, which must
    /// finish; a drawn cap is checked as well, and a capped run may fail
    /// — then both modes must return the same error at the same cycle with
    /// the same rendered report, and there is nothing to resume.
    #[test]
    fn random_tuples_hold_identity(
        which in 0usize..13,
        frac in 1u64..10,
        fault in prop::sample::select(vec![
            None,
            Some("lane=0.001,sram=0.001,seed=7"),
            Some("pcu=3,links=2,chan=1,seed=11"),
            Some("drop=0.005,seed=5"),
        ]),
        core_ghz in prop::sample::select(vec![1.0f64, 96.0]),
        credit_cap in prop::sample::select(vec![None, Some(0usize), Some(1)]),
    ) {
        let params = PlasticineParams::paper_final();
        let (bench, cached_out) = &compiled()[which];
        // Resolve the program/bitstream/fault-map triple for this tuple.
        let (prog, out, faults) = match fault {
            None => (bench.program.clone(), cached_out.clone(), FaultMap::default()),
            Some(spec_text) => {
                let spec: FaultSpec = spec_text.parse().unwrap();
                let map = FaultMap::sample(
                    &Topology::new(&params),
                    &spec,
                    DramConfig::default().channels,
                );
                let copts = CompileOptions { faults: map.clone(), ..CompileOptions::new() };
                let (o, p, _) = compile_degraded(&bench.program, &params, &copts)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", bench.name)))?;
                (p, o, map)
            }
        };
        let opts = |step: StepMode, credit_cap: Option<usize>| SimOptions {
            step,
            faults: faults.clone(),
            dram: DramConfig { core_ghz, ..DramConfig::default() },
            credit_cap,
            ..SimOptions::default()
        };
        let fail = |e: String| TestCaseError::fail(format!("{}: {e}", bench.name));

        // The uncapped tuple must finish; a capped one may fail (a cap of
        // 0 deadlocks every pipelined program), and is checked in addition.
        for cap in [None].into_iter().chain(credit_cap.map(Some)) {
            // (a) Event vs cycle, straight through: the same stats, or —
            // capped only — the same failure.
            let run = |step| {
                let mut m = fresh_machine(bench, &prog);
                simulate(&prog, &out, &mut m, &opts(step, cap))
                    .map(|r| (r.stats_json().pretty(), r.cycles))
                    .map_err(|e| e.to_string())
            };
            let event = run(StepMode::Event);
            prop_assert_eq!(
                &run(StepMode::Cycle), &event,
                "straight-through cycle mode diverged (credit cap {:?})", cap
            );
            let event = match event {
                Ok(event) => event,
                // Both modes failed alike; nothing to resume.
                Err(_) if cap.is_some() => continue,
                Err(e) => return Err(fail(e)),
            };

            // (b) Checkpoint under one step mode, resume under the other.
            let every = (event.1 * frac / 10).max(1);
            let policy = CheckpointPolicy { every: Some(every), on_error: false };
            for (write, read) in [(StepMode::Event, StepMode::Cycle), (StepMode::Cycle, StepMode::Event)] {
                let mut taken: Vec<Checkpoint> = Vec::new();
                let mut m = fresh_machine(bench, &prog);
                let r = simulate_checkpointed(
                    &prog, &out, &mut m, &opts(write, cap), policy, None,
                    &mut |c| taken.push(c.clone()),
                )
                .map_err(|e| fail(e.to_string()))?;
                prop_assert_eq!(
                    r.stats_json().pretty(), event.0.clone(),
                    "checkpointing run ({:?}, credit cap {:?}) diverged", write, cap
                );
                if let Some(mid) = taken.last() {
                    let decoded = Checkpoint::decode(&mid.encode())
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    let mut m = fresh_machine(bench, &prog);
                    let r = simulate_checkpointed(
                        &prog, &out, &mut m, &opts(read, cap),
                        CheckpointPolicy::default(), Some(&decoded), &mut |_| {},
                    )
                    .map_err(|e| fail(e.to_string()))?;
                    prop_assert_eq!(
                        r.stats_json().pretty(), event.0.clone(),
                        "resume (written {:?}, read {:?}, credit cap {:?}) diverged",
                        write, read, cap
                    );
                }
            }
        }
    }
}

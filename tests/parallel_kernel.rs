//! Randomized differential for the kernel's two step modes under fault
//! injection and checkpointing.
//!
//! Event and cycle stepping must be *invisible* in every result byte, and a
//! checkpoint must carry no trace of the step mode that wrote it. A
//! pinned-seed proptest over random (workload, fault spec, checkpoint
//! cadence) tuples asserts both, *crossing* step modes between the
//! checkpointing and the resuming run. Same-mode round trips live in
//! `checkpoint_resume.rs`; fixed-spec step-mode agreement in `step_mode.rs`.

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

    /// Property: for a random (workload, fault spec, checkpoint cadence)
    /// tuple, (a) cycle mode matches event mode straight through, and (b)
    /// checkpointing under one step mode and resuming under the other
    /// reproduces the same bytes, in both directions.
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
        let opts = |step: StepMode| SimOptions {
            step,
            faults: faults.clone(),
            ..SimOptions::default()
        };

        // (a) Event vs cycle, straight through.
        let event = {
            let mut m = fresh_machine(bench, &prog);
            let r = simulate(&prog, &out, &mut m, &opts(StepMode::Event))
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", bench.name)))?;
            (r.stats_json().pretty(), r.cycles)
        };
        let cycle = {
            let mut m = fresh_machine(bench, &prog);
            let r = simulate(&prog, &out, &mut m, &opts(StepMode::Cycle))
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", bench.name)))?;
            r.stats_json().pretty()
        };
        prop_assert_eq!(&cycle, &event.0, "straight-through cycle mode diverged");

        // (b) Checkpoint under one step mode, resume under the other.
        let every = (event.1 * frac / 10).max(1);
        let policy = CheckpointPolicy { every: Some(every), on_error: false };
        for (write, read) in [(StepMode::Event, StepMode::Cycle), (StepMode::Cycle, StepMode::Event)] {
            let mut taken: Vec<Checkpoint> = Vec::new();
            let mut m = fresh_machine(bench, &prog);
            let r = simulate_checkpointed(
                &prog, &out, &mut m, &opts(write), policy, None,
                &mut |c| taken.push(c.clone()),
            )
            .map_err(|e| TestCaseError::fail(format!("{}: {e}", bench.name)))?;
            prop_assert_eq!(
                r.stats_json().pretty(), event.0.clone(),
                "checkpointing run ({:?}) diverged", write
            );
            if let Some(mid) = taken.last() {
                let decoded = Checkpoint::decode(&mid.encode())
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                let mut m = fresh_machine(bench, &prog);
                let r = simulate_checkpointed(
                    &prog, &out, &mut m, &opts(read),
                    CheckpointPolicy::default(), Some(&decoded), &mut |_| {},
                )
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", bench.name)))?;
                prop_assert_eq!(
                    r.stats_json().pretty(), event.0.clone(),
                    "resume (written {:?}, read {:?}) diverged", write, read
                );
            }
        }
    }
}

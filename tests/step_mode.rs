//! Step-mode equivalence and error-classification suite.
//!
//! The event-driven kernel ([`StepMode::Event`]) must be an *exact*
//! semantic replacement for per-cycle stepping ([`StepMode::Cycle`]): same
//! cycle counts, same per-unit stall attribution, same DRAM statistics,
//! same RNG draw sequence under fault injection, and the same error at the
//! same cycle when a run fails. These tests pin all of that:
//!
//! - every Table 4 workload at `Scale(1)` produces byte-identical
//!   [`stats_json`](plasticine::sim::SimResult::stats_json) snapshots in
//!   both modes, under the paper's DRAM and a 96× faster fabric (the
//!   committed golden baselines also run in event mode, so the suite
//!   double-covers the fast path);
//! - a fault-injected run (pinned seed, DRAM drops + lane/SRAM flips on a
//!   degraded fabric) stays byte-identical too;
//! - a too-small `max_cycles` yields [`SimError::CycleBudgetExceeded`] at
//!   exactly the budget cycle — not a bogus [`SimError::Deadlock`];
//! - a genuinely deadlocked schedule reports the same deadlock cycle in
//!   both modes, and the report names the stall watchdog rather than the
//!   cycle budget.

use plasticine::arch::{FaultMap, FaultSpec, PlasticineParams, Topology};
use plasticine::compiler::{compile, compile_degraded, CompileOptions};
use plasticine::dram::DramConfig;
use plasticine::ppir::*;
use plasticine::sim::{simulate, SimError, SimOptions, StepMode};
use plasticine::workloads::{all, Bench, Scale};

fn snapshot(bench: &Bench, opts: &SimOptions) -> String {
    let params = PlasticineParams::paper_final();
    let out = compile(&bench.program, &params).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    let mut m = Machine::new(&bench.program);
    bench.load(&mut m);
    let r = simulate(&bench.program, &out, &mut m, opts)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    r.stats_json().pretty()
}

/// The DRAM configs every workload runs under: the paper's, and the same
/// DRAM seen from a fabric clocked 96× faster. There every access costs
/// thousands of cycles and the FR-FCFS starvation guard binds almost all
/// the time, so event stepping leans on the DRAM model's exact wake-up
/// bound.
fn dram_configs() -> [DramConfig; 2] {
    [
        DramConfig::default(),
        DramConfig {
            core_ghz: 96.0,
            ..DramConfig::default()
        },
    ]
}

/// Every workload: cycles, activity, DRAM/coalescing statistics, and the
/// per-unit busy/ctrl/mem/idle breakdown are byte-identical between event
/// and cycle stepping.
#[test]
fn event_and_cycle_stepping_agree_on_all_workloads() {
    for bench in all(Scale(1)) {
        for dram in dram_configs() {
            let event = snapshot(
                &bench,
                &SimOptions {
                    dram: dram.clone(),
                    step: StepMode::Event,
                    ..SimOptions::default()
                },
            );
            let cycle = snapshot(
                &bench,
                &SimOptions {
                    dram: dram.clone(),
                    step: StepMode::Cycle,
                    ..SimOptions::default()
                },
            );
            assert_eq!(
                event, cycle,
                "{} (core_ghz {}): step modes diverge",
                bench.name, dram.core_ghz
            );
        }
    }
}

/// Fault injection draws from a seeded RNG whenever a DRAM response
/// arrives or a vector beat issues; skipping cycles must not perturb the
/// draw sequence. One full fault-injected workload sweep, both modes.
#[test]
fn step_modes_agree_under_fault_injection() {
    let params = PlasticineParams::paper_final();
    let spec: FaultSpec = "pcu=6,pmu=6,links=5,lane=0.001,sram=0.001,drop=0.01,seed=42"
        .parse()
        .unwrap();
    let faults = FaultMap::sample(
        &Topology::new(&params),
        &spec,
        DramConfig::default().channels,
    );
    let copts = CompileOptions {
        faults: faults.clone(),
        ..CompileOptions::new()
    };
    for bench in all(Scale(1)) {
        let (out, prog, _) = compile_degraded(&bench.program, &params, &copts)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let run = |step: StepMode| {
            let mut m = Machine::new(&prog);
            bench.load(&mut m);
            let sopts = SimOptions {
                faults: faults.clone(),
                step,
                ..SimOptions::default()
            };
            let r = simulate(&prog, &out, &mut m, &sopts)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            r.stats_json().pretty()
        };
        assert_eq!(
            run(StepMode::Event),
            run(StepMode::Cycle),
            "{}: step modes diverge under fault injection",
            bench.name
        );
    }
}

/// A long-running fold: makes steady progress, never deadlocks, but cannot
/// finish inside a tiny budget.
fn slow_program() -> Program {
    let mut b = ProgramBuilder::new("slow");
    let acc = b.reg("acc", DType::I32);
    let i = b.counter(0, 1_000_000, 1, 1);
    let mut one = Func::new("one");
    let o = one.konst(Elem::I32(1));
    one.set_outputs(vec![o]);
    let one = b.func(one);
    let fold = b.inner(
        "f",
        vec![i],
        InnerOp::Fold(FoldPipe {
            map: one,
            combine: vec![BinOp::Add],
            init: vec![FoldInit::Const(Elem::I32(0))],
            out_regs: vec![Some(acc)],
            writes: vec![],
        }),
    );
    let root = b.outer("root", Schedule::Sequential, vec![], vec![fold]);
    b.finish(root).unwrap()
}

/// Regression for the error-classification bug: a run that overruns
/// `max_cycles` while still making progress used to fall into the deadlock
/// branch and exit as a spurious `Deadlock`. It must now report
/// `CycleBudgetExceeded` at exactly the budget cycle — in both step modes.
#[test]
fn tiny_cycle_budget_is_not_a_deadlock() {
    let p = slow_program();
    let out = compile(&p, &PlasticineParams::paper_final()).unwrap();
    for step in [StepMode::Event, StepMode::Cycle] {
        let mut m = Machine::new(&p);
        let opts = SimOptions {
            max_cycles: 250,
            step,
            ..SimOptions::default()
        };
        match simulate(&p, &out, &mut m, &opts) {
            Err(SimError::CycleBudgetExceeded { cycle, budget }) => {
                assert_eq!(cycle, 250, "{step:?}");
                assert_eq!(budget, 250, "{step:?}");
            }
            other => panic!("{step:?}: expected CycleBudgetExceeded, got {other:?}"),
        }
    }
}

/// A two-stage pipeline that deadlocks when inter-stage credits are
/// withheld (`credit_cap = 0`): `ld` awaits a credit from `sq`, `sq`
/// awaits a token from `ld`.
fn pipelined_program() -> Program {
    let tiles = 4usize;
    let tile = 64usize;
    let mut b = ProgramBuilder::new("credit_test");
    let d_in = b.dram("in", DType::F32, tiles * tile);
    let d_out = b.dram("out", DType::F32, tiles * tile);
    let s_in = b.sram("t_in", DType::F32, &[tile]);
    let s_out = b.sram("t_out", DType::F32, &[tile]);
    let t = b.counter(0, tiles as i64, 1, 1);
    let mut basef = Func::new("base");
    let tv = basef.index(t.index);
    let tl = basef.konst(Elem::I32(tile as i32));
    let off = basef.binary(BinOp::Mul, tv, tl);
    basef.set_outputs(vec![off]);
    let basef = b.func(basef);
    let ld = b.inner(
        "ld",
        vec![],
        InnerOp::LoadTile(TileTransfer {
            dram: d_in,
            dram_base: basef,
            rows: 1,
            cols: tile,
            dram_row_stride: tile,
            sram: s_in,
        }),
    );
    let i = b.counter(0, tile as i64, 1, 16);
    let mut body = Func::new("sq");
    let iv = body.index(i.index);
    let v = body.load(s_in, vec![iv]);
    let sq = body.binary(BinOp::Mul, v, v);
    body.set_outputs(vec![sq]);
    let body = b.func(body);
    let mut wa = Func::new("wa");
    let iv = wa.index(i.index);
    wa.set_outputs(vec![iv]);
    let wa = b.func(wa);
    let mp = b.inner(
        "sq",
        vec![i],
        InnerOp::Map(MapPipe {
            body,
            writes: vec![PipeWrite {
                sram: s_out,
                addr: wa,
                value_slot: 0,
                mode: WriteMode::Overwrite,
            }],
        }),
    );
    let st = b.inner(
        "st",
        vec![],
        InnerOp::StoreTile(TileTransfer {
            dram: d_out,
            dram_base: basef,
            rows: 1,
            cols: tile,
            dram_row_stride: tile,
            sram: s_out,
        }),
    );
    let root = b.outer("tiles", Schedule::Pipelined, vec![t], vec![ld, mp, st]);
    b.finish(root).unwrap()
}

/// A genuine stall (zero-credit pipelined dependences) is still reported as
/// a deadlock, at the same cycle with the same diagnosis in both modes, and
/// the report carries the watchdog parameters that fired it.
#[test]
fn deadlock_detection_agrees_between_step_modes() {
    let p = pipelined_program();
    let out = compile(&p, &PlasticineParams::paper_final()).unwrap();
    let run = |step: StepMode| {
        let mut m = Machine::new(&p);
        let opts = SimOptions {
            credit_cap: Some(0),
            stall_limit: 2_000,
            step,
            ..SimOptions::default()
        };
        match simulate(&p, &out, &mut m, &opts) {
            Err(SimError::Deadlock(report)) => *report,
            other => panic!("{step:?}: expected deadlock, got {other:?}"),
        }
    };
    let event = run(StepMode::Event);
    let cycle = run(StepMode::Cycle);
    assert_eq!(event.cycle, cycle.cycle, "deadlock cycle diverges");
    assert_eq!(event.last_progress, cycle.last_progress);
    assert_eq!(event.stall_limit, 2_000);
    assert_eq!(event.to_string(), cycle.to_string());
    assert!(
        !event.cycle_chain.is_empty(),
        "under-credited pipeline should have a wait-for cycle:\n{event}"
    );
}

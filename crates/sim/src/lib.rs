//! # plasticine-sim — cycle-accurate simulator for Plasticine
//!
//! The evaluation methodology of §4.2 of the paper, rebuilt from scratch:
//! the reference interpreter executes the program functionally and records
//! a work trace (what every leaf controller did); this crate replays the
//! trace against a compiled [`MachineConfig`]
//! with cycle-level models of
//!
//! * PCU issue (SIMD lanes, pipeline depth, unroll copies),
//! * PMU ports and bank conflicts (duplication banking removes
//!   serialization for data-dependent reads),
//! * the static interconnect (registered hop latencies from the router),
//! * the three control protocols of §3.5 (sequential, coarse-grain
//!   pipelined with tokens/credits and N-buffering, streaming),
//! * address generators, the coalescing units, and the full DDR3 timing
//!   model from [`plasticine_dram`].
//!
//! Functional results are *identical* to the interpreter's by construction
//! (the interpreter produces them); the simulator contributes cycles and
//! activity counters for performance, utilization, and power.
//!
//! # Examples
//!
//! ```no_run
//! use plasticine_arch::PlasticineParams;
//! use plasticine_compiler::compile;
//! use plasticine_sim::{simulate, SimOptions};
//! use plasticine_ppir::Machine;
//! # fn get_program() -> plasticine_ppir::Program { unimplemented!() }
//! let program = get_program();
//! let out = compile(&program, &PlasticineParams::paper_final()).unwrap();
//! let mut machine = Machine::new(&program);
//! let result = simulate(&program, &out, &mut machine, &SimOptions::default()).unwrap();
//! println!("{} cycles", result.cycles);
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod deadlock;
mod exit;
mod kernel;
mod model;
mod multi;
mod resources;
mod sched;
mod trace;

pub use checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy};
pub use deadlock::{BlockedUnit, DeadlockReport, HeldResource, WaitCause};
pub use exit::ExitStatus;
pub use kernel::{Advance, CheckpointSink, DegradedReport, SimKernel};
pub use model::{ComputeModel, CtrlTable, OuterModel, SimModel, TransferModel};
pub use multi::{MultiSim, Tenant, TenantId};
pub use resources::{Activity, FaultStats, Resources, SimError};
pub use sched::Node;
pub use trace::{
    SimTrace, TraceEvent, TrackedUnit, UnitCycles, UnitKind, UnitStat, UnitStats, WaitKind,
};

use plasticine_arch::{FaultMap, FaultTimeline, MachineConfig};
use plasticine_compiler::CompileOutput;
use plasticine_dram::{CoalesceStats, DramConfig, DramStats};
use plasticine_json::Json;
use plasticine_ppir::{Machine, Program};

/// How the run loop advances simulated time.
///
/// Both modes produce bit-identical results — cycle counts, per-unit stall
/// attribution, DRAM statistics, traces, RNG draw sequences, and error
/// cycles all match exactly. Event stepping is the default because it is
/// dramatically faster on memory-bound schedules; cycle stepping remains as
/// the slow reference the equivalence suite checks against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StepMode {
    /// Event-driven: after a quiescent cycle, jump straight to the next
    /// cycle where anything can happen (a pipeline-drain completion, a DRAM
    /// command/response/refresh edge, a retry-backoff expiry, or the
    /// watchdog trigger), attributing the skipped span in bulk.
    #[default]
    Event,
    /// Walk the full controller tree every cycle (the pre-event-kernel
    /// behavior).
    Cycle,
}

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// DRAM configuration (default: the paper's 4×DDR3-1600).
    pub dram: DramConfig,
    /// Cycle budget before declaring deadlock.
    pub max_cycles: u64,
    /// Whether sparse accesses go through the coalescing units (§3.4).
    /// Disabling issues one DRAM burst per element — the ablation of the
    /// coalescing-cache design decision.
    pub coalescing: bool,
    /// Fault map to run under. The hard faults must match the map the
    /// program was compiled against; the transient rates drive injection
    /// and the offline channels remap DRAM traffic. The default (pristine)
    /// map leaves every run bit-identical to the fault-free baseline.
    pub faults: FaultMap,
    /// Online fault-arrival schedule. Arrivals fire at exact simulated
    /// cycles in either step mode; an arrival that impacts a resource the
    /// run is using rides out the timeline's detect delay (attributed to
    /// the `healing` overlay) and then exits with
    /// [`SimError::FabricDegraded`] carrying an auto-checkpoint. The
    /// timeline participates in the checkpoint options guard: resuming
    /// must present the same timeline, which is what makes healed resumes
    /// bit-identical to manual ones. The default (empty) timeline leaves
    /// every run bit-identical to a timeline-free one.
    pub timeline: FaultTimeline,
    /// Cycles without global progress (no grant, push, or completion
    /// anywhere) before the run is declared deadlocked and diagnosed. Must
    /// comfortably exceed the largest DRAM-retry backoff.
    pub stall_limit: u64,
    /// Testing hook: clamp every producer→consumer buffer depth to this
    /// many credits. `Some(0)` starves every pipelined dependence — the
    /// canonical under-credited deadlock.
    pub credit_cap: Option<usize>,
    /// Time-advance strategy; see [`StepMode`].
    pub step: StepMode,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            dram: DramConfig::default(),
            max_cycles: 500_000_000,
            coalescing: true,
            faults: FaultMap::default(),
            timeline: FaultTimeline::default(),
            stall_limit: 100_000,
            credit_cap: None,
            step: StepMode::default(),
        }
    }
}

/// Result of a simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total cycles from configuration load to completion.
    pub cycles: u64,
    /// Dynamic activity (power-model input).
    pub activity: Activity,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Coalescing statistics.
    pub coalesce: CoalesceStats,
    /// Per-unit cycle breakdown: every cycle of every PCU/PMU/AG classified
    /// as busy, control stall, memory stall, or idle.
    pub units: UnitStats,
    /// Transient-fault detection and recovery counters (all zero on a
    /// fault-free run).
    pub faults: FaultStats,
}

impl SimResult {
    /// Wall-clock seconds at a given core clock.
    pub fn seconds(&self, clock_ghz: f64) -> f64 {
        self.cycles as f64 / (clock_ghz * 1e9)
    }

    /// Functional-unit utilization: executed ALU ops over the op slots of
    /// the *used* PCUs across the whole run (Table 7's "FU" column).
    pub fn fu_utilization(&self, cfg: &MachineConfig) -> f64 {
        let slots = cfg.usage.pcus as f64
            * cfg.params.pcu.lanes as f64
            * cfg.params.pcu.stages as f64
            * self.cycles as f64;
        if slots == 0.0 {
            return 0.0;
        }
        (self.activity.fu_ops as f64 / slots).min(1.0)
    }

    /// Pipeline-register utilization proxy: register traffic over the
    /// register slots of used PCUs (Table 7's "Register" column).
    pub fn reg_utilization(&self, cfg: &MachineConfig) -> f64 {
        let slots = cfg.usage.pcus as f64
            * cfg.params.pcu.lanes as f64
            * cfg.params.pcu.stages as f64
            * cfg.params.pcu.regs_per_stage as f64
            * self.cycles as f64;
        if slots == 0.0 {
            return 0.0;
        }
        (self.activity.reg_traffic as f64 / slots).min(1.0)
    }

    /// Bytes moved to/from DRAM.
    pub fn dram_bytes(&self) -> u64 {
        (self.dram.reads + self.dram.writes) * 64
    }

    /// Achieved DRAM bandwidth in GB/s at a clock.
    pub fn dram_gbps(&self, clock_ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.dram_bytes() as f64 / self.cycles as f64 * clock_ghz
    }

    /// A machine-readable snapshot of everything deterministic about the
    /// run: cycles, activity counters, DRAM and coalescing statistics, and
    /// the per-unit stall breakdown. This is the payload the golden-stats
    /// regression suite diffs.
    pub fn stats_json(&self) -> Json {
        let a = &self.activity;
        let d = &self.dram;
        let c = &self.coalesce;
        Json::obj([
            ("cycles", Json::from(self.cycles)),
            (
                "activity",
                Json::obj([
                    ("fu_ops", Json::from(a.fu_ops)),
                    ("heavy_ops", Json::from(a.heavy_ops)),
                    ("red_ops", Json::from(a.red_ops)),
                    ("sram_reads", Json::from(a.sram_reads)),
                    ("sram_writes", Json::from(a.sram_writes)),
                    ("reg_traffic", Json::from(a.reg_traffic)),
                    ("net_word_hops", Json::from(a.net_word_hops)),
                    ("ctrl_msgs", Json::from(a.ctrl_msgs)),
                    ("pcu_busy_cycles", Json::from(a.pcu_busy_cycles)),
                    ("pmu_busy_cycles", Json::from(a.pmu_busy_cycles)),
                    ("ag_busy_cycles", Json::from(a.ag_busy_cycles)),
                ]),
            ),
            (
                "dram",
                Json::obj([
                    ("reads", Json::from(d.reads)),
                    ("writes", Json::from(d.writes)),
                    ("row_hits", Json::from(d.row_hits)),
                    ("activates", Json::from(d.activates)),
                    ("precharges", Json::from(d.precharges)),
                    ("busy_cycles", Json::from(d.busy_cycles)),
                    ("read_latency_cycles", Json::from(d.read_latency_cycles)),
                    ("write_latency_cycles", Json::from(d.write_latency_cycles)),
                    ("max_latency_cycles", Json::from(d.max_latency_cycles)),
                ]),
            ),
            (
                "coalesce",
                Json::obj([
                    ("elem_requests", Json::from(c.elem_requests)),
                    ("line_requests", Json::from(c.line_requests)),
                    ("merged", Json::from(c.merged)),
                ]),
            ),
            (
                "faults",
                Json::obj({
                    let mut fields = vec![
                        ("ecc_corrected", Json::from(self.faults.ecc_corrected)),
                        ("parity_replays", Json::from(self.faults.parity_replays)),
                        ("lane_replays", Json::from(self.faults.lane_replays)),
                        ("recovery_cycles", Json::from(self.faults.recovery_cycles)),
                        ("dram_dropped", Json::from(self.faults.dram_dropped)),
                        ("dram_retries", Json::from(self.faults.dram_retries)),
                        (
                            "dram_retry_wait_cycles",
                            Json::from(self.faults.dram_retry_wait_cycles),
                        ),
                    ];
                    // Omitted when zero so timeline-free runs keep their
                    // historical stats bytes.
                    if self.faults.healing_cycles != 0 {
                        fields.push(("healing_cycles", Json::from(self.faults.healing_cycles)));
                    }
                    fields
                }),
            ),
            ("units", self.units.to_json()),
        ])
    }
}

/// Runs a program functionally (on `machine`, which the caller pre-loads
/// with input data) and replays its trace for timing.
///
/// # Errors
///
/// Returns [`SimError::Run`] if functional execution fails,
/// [`SimError::Deadlock`] if the schedule stops making progress for
/// `stall_limit` cycles, and [`SimError::CycleBudgetExceeded`] if the run
/// reaches `max_cycles` without finishing.
pub fn simulate(
    p: &Program,
    out: &CompileOutput,
    machine: &mut Machine,
    opts: &SimOptions,
) -> Result<SimResult, SimError> {
    let mut k = SimKernel::new(p, out, machine, opts, false, None)?;
    k.advance(None, None)?;
    Ok(k.finish().0)
}

/// Like [`simulate`], but also records the structured event trace (leaf
/// spans, token/credit/slot waits, bank-conflict serialization, per-request
/// DRAM issue/return). Tracing costs memory proportional to the event
/// count; the plain [`simulate`] path allocates nothing for it.
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_traced(
    p: &Program,
    out: &CompileOutput,
    machine: &mut Machine,
    opts: &SimOptions,
) -> Result<(SimResult, SimTrace), SimError> {
    let mut k = SimKernel::new(p, out, machine, opts, true, None)?;
    k.advance(None, None)?;
    let (r, t) = k.finish();
    Ok((r, t.expect("tracing was enabled")))
}

/// Like [`simulate`], but with checkpoint support: emits a [`Checkpoint`]
/// through `emit` per `policy`, and — when `resume` is given — validates
/// its guard hashes and continues from its cycle instead of cycle 0.
/// Resuming produces bit-identical final stats to an uninterrupted run in
/// either step mode. Tracing is not supported on this path (a trace
/// cannot be reconstructed across a kill), which is why there is no
/// traced variant.
///
/// # Errors
///
/// Same conditions as [`simulate`], plus [`SimError::Checkpoint`] when
/// `resume` does not match this program/bitstream/options or is corrupt.
pub fn simulate_checkpointed(
    p: &Program,
    out: &CompileOutput,
    machine: &mut Machine,
    opts: &SimOptions,
    policy: CheckpointPolicy,
    resume: Option<&Checkpoint>,
    emit: &mut dyn FnMut(&Checkpoint),
) -> Result<SimResult, SimError> {
    let mut k = SimKernel::new(p, out, machine, opts, false, resume)?;
    k.advance(None, Some(CheckpointSink { policy, emit }))?;
    Ok(k.finish().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasticine_arch::PlasticineParams;
    use plasticine_compiler::compile;
    use plasticine_ppir::*;

    /// Tiled elementwise square: load → compute → store over `tiles` tiles.
    fn tiled_square(
        tiles: usize,
        tile: usize,
        sched: Schedule,
        par: usize,
    ) -> (Program, DramId, DramId) {
        tiled_square_passes(tiles, tile, sched, par, 1)
    }

    /// Like `tiled_square` but recomputing each tile `passes` times,
    /// raising arithmetic intensity so compute (not DRAM bandwidth)
    /// dominates.
    fn tiled_square_passes(
        tiles: usize,
        tile: usize,
        sched: Schedule,
        par: usize,
        passes: usize,
    ) -> (Program, DramId, DramId) {
        let n = tiles * tile;
        let mut b = ProgramBuilder::new("sq");
        let d_in = b.dram("in", DType::F32, n);
        let d_out = b.dram("out", DType::F32, n);
        let s_in = b.sram("t_in", DType::F32, &[tile]);
        let s_out = b.sram("t_out", DType::F32, &[tile]);
        let t = b.counter(0, tiles as i64, 1, par);
        let ti = t.index;
        let mut basef = Func::new("base");
        let tv = basef.index(ti);
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
        let k = b.counter(0, passes as i64, 1, 1);
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
            vec![k, i],
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
        let root = b.outer("tiles", sched, vec![t], vec![ld, mp, st]);
        (b.finish(root).unwrap(), d_in, d_out)
    }

    fn run(p: &Program, d_in: DramId) -> (SimResult, Vec<Elem>) {
        let params = PlasticineParams::paper_final();
        let out = compile(p, &params).unwrap();
        let mut m = Machine::new(p);
        let data: Vec<Elem> = (0..p.dram(d_in).len)
            .map(|i| Elem::F32(i as f32 * 0.5))
            .collect();
        m.write_dram(d_in, &data);
        let r = simulate(p, &out, &mut m, &SimOptions::default()).unwrap();
        (r, m.dram_data(DramId(1)).to_vec())
    }

    #[test]
    fn functional_results_match_interpreter() {
        let (p, d_in, d_out) = tiled_square(4, 64, Schedule::Pipelined, 1);
        let (r, out_data) = run(&p, d_in);
        assert!(r.cycles > 0);
        // Golden: plain interpreter.
        let mut gm = Machine::new(&p);
        let data: Vec<Elem> = (0..p.dram(d_in).len)
            .map(|i| Elem::F32(i as f32 * 0.5))
            .collect();
        gm.write_dram(d_in, &data);
        gm.run().unwrap();
        assert_eq!(out_data, gm.dram_data(d_out));
    }

    #[test]
    fn more_work_takes_more_cycles() {
        let (p1, d1, _) = tiled_square(2, 64, Schedule::Sequential, 1);
        let (p4, d4, _) = tiled_square(8, 64, Schedule::Sequential, 1);
        let (r1, _) = run(&p1, d1);
        let (r4, _) = run(&p4, d4);
        assert!(
            r4.cycles > 2 * r1.cycles,
            "8 tiles {} vs 2 tiles {}",
            r4.cycles,
            r1.cycles
        );
    }

    #[test]
    fn pipelining_beats_sequential() {
        let (ps, ds, _) = tiled_square(16, 256, Schedule::Sequential, 1);
        let (pp, dp, _) = tiled_square(16, 256, Schedule::Pipelined, 1);
        let (rs, _) = run(&ps, ds);
        let (rp, _) = run(&pp, dp);
        assert!(
            (rp.cycles as f64) < 0.75 * rs.cycles as f64,
            "pipelined {} vs sequential {}",
            rp.cycles,
            rs.cycles
        );
    }

    #[test]
    fn unrolling_speeds_up_dense_compute() {
        // 16 recompute passes per tile make the kernel compute-bound; a
        // 1-op streaming kernel is DRAM-bound and unrolling cannot help
        // (exactly the paper's InnerProduct/TPCH-Q6 observation).
        let (p1, d1, _) = tiled_square_passes(16, 512, Schedule::Pipelined, 1, 16);
        let (p4, d4, _) = tiled_square_passes(16, 512, Schedule::Pipelined, 4, 16);
        let (r1, _) = run(&p1, d1);
        let (r4, _) = run(&p4, d4);
        assert!(
            (r4.cycles as f64) < 0.7 * r1.cycles as f64,
            "par4 {} vs par1 {}",
            r4.cycles,
            r1.cycles
        );
    }

    #[test]
    fn streaming_kernel_is_bandwidth_bound() {
        // A 1-op/element kernel saturates DRAM: unrolling buys little.
        let (p1, d1, _) = tiled_square(16, 512, Schedule::Pipelined, 1);
        let (p4, d4, _) = tiled_square(16, 512, Schedule::Pipelined, 4);
        let (r1, _) = run(&p1, d1);
        let (r4, _) = run(&p4, d4);
        assert!(
            (r4.cycles as f64) > 0.7 * r1.cycles as f64,
            "bandwidth-bound kernel should not scale: par4 {} vs par1 {}",
            r4.cycles,
            r1.cycles
        );
        // And the achieved bandwidth is a large share of the 51.2 GB/s peak.
        assert!(r4.dram_gbps(1.0) > 25.0, "got {}", r4.dram_gbps(1.0));
    }

    #[test]
    fn activity_counters_are_populated() {
        let (p, d_in, _) = tiled_square(4, 64, Schedule::Pipelined, 1);
        let (r, _) = run(&p, d_in);
        // 4 tiles × 64 elements × 1 multiply.
        assert_eq!(r.activity.fu_ops, 256);
        assert_eq!(r.activity.sram_reads, 256);
        assert_eq!(r.activity.sram_writes, 256);
        assert!(r.activity.pcu_busy_cycles > 0);
        assert!(r.activity.ag_busy_cycles > 0);
        // 4 tiles × 64 floats = 1 KiB in, 1 KiB out = 16+16 lines.
        assert_eq!(r.dram.reads, 16);
        assert_eq!(r.dram.writes, 16);
    }

    #[test]
    fn utilization_metrics_bounded() {
        let (p, d_in, _) = tiled_square(8, 256, Schedule::Pipelined, 2);
        let params = PlasticineParams::paper_final();
        let out = compile(&p, &params).unwrap();
        let mut m = Machine::new(&p);
        let data: Vec<Elem> = (0..p.dram(d_in).len).map(|i| Elem::F32(i as f32)).collect();
        m.write_dram(d_in, &data);
        let r = simulate(&p, &out, &mut m, &SimOptions::default()).unwrap();
        let fu = r.fu_utilization(&out.config);
        let reg = r.reg_utilization(&out.config);
        assert!(fu > 0.0 && fu <= 1.0, "fu={fu}");
        assert!(reg > 0.0 && reg <= 1.0, "reg={reg}");
        assert!(r.dram_gbps(1.0) > 0.0);
    }
}

//! Chaos soak harness and the solo self-healing loop.
//!
//! The robustness layer's two entry points outside the serve daemon:
//!
//! * [`run_healed`] drives one benchmark through an online fault
//!   timeline the way the fabric scheduler would: every degraded exit
//!   absorbs the new hard faults into a local [`HealthMap`], relocates
//!   the run to the lowest healthy
//!   [pattern-equivalent](Partition::pattern_equivalent) band, and
//!   resumes the degrade checkpoint there. The healed run's final stats
//!   are byte-identical to manually resuming the same checkpoint on the
//!   relocated band ([`resume_on`]) — the healing invariant
//!   `tests/self_healing.rs` pins for every Table 4 workload.
//! * [`soak`] replays seeded random fault timelines against solo,
//!   multi-tenant, and scheduler workloads, asserting the chaos
//!   invariants: no panics, typed statuses only, and healed stats that
//!   match the manual-resume baseline bit for bit. `plasticine-run
//!   chaos` is a thin CLI shell over it.
//!
//! Everything here is deterministic: the timelines are sampled from
//! pinned seeds, the simulator is deterministic in both step modes, and
//! the soak derives each iteration's workload and mode from its seed —
//! the same seed list always produces the same report.

use crate::service::fabric::{scheduler_loop, FabricScheduler, SubmitSpec};
use crate::service::metrics::Metrics;
use plasticine_arch::{
    FaultTimeline, FaultTimelineSpec, HealthMap, Partition, PlasticineParams, Topology,
};
use plasticine_compiler::{compile_degraded, CompileCache, CompileOptions};
use plasticine_json::Json;
use plasticine_ppir::Machine;
use plasticine_sim::{
    simulate_checkpointed, Checkpoint, CheckpointPolicy, ExitStatus, MultiSim, SimError,
    SimOptions, SimResult,
};
use plasticine_workloads::{by_name, Bench, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Outcome of a self-healed solo run.
#[derive(Debug)]
pub struct HealReport {
    /// Final stats, byte-identical to an unhealed run resumed manually
    /// through the same checkpoint chain.
    pub result: SimResult,
    /// Degraded exits healed (0 = the timeline never impacted the run).
    pub heals: u64,
    /// Heals that landed on a band other than the one that degraded.
    pub migrations: u64,
    /// Band history: the starting band followed by one entry per heal.
    pub bands: Vec<Partition>,
    /// Cycle of each degraded exit, in order.
    pub degrade_cycles: Vec<u64>,
}

/// Compiles `bench` into `band` (against `opts.faults`) and simulates it,
/// optionally resuming a checkpoint. The one code path every healing
/// surface shares, so healed and manual runs cannot drift apart.
fn run_segment(
    bench: &Bench,
    params: &PlasticineParams,
    band: Partition,
    opts: &SimOptions,
    resume: Option<&Checkpoint>,
) -> Result<SimResult, SimError> {
    let copts = CompileOptions {
        partition: Some(band),
        faults: opts.faults.clone(),
        ..CompileOptions::new()
    };
    let (out, prog, _notes) = compile_degraded(&bench.program, params, &copts)
        .map_err(|e| SimError::Config(format!("compile: {e}")))?;
    let mut m = Machine::new(&prog);
    bench.load(&mut m);
    let mut o = opts.clone();
    o.dram.channels = band.channels;
    let policy = CheckpointPolicy {
        every: None,
        on_error: false,
    };
    let r = simulate_checkpointed(&prog, &out, &mut m, &o, policy, resume, &mut |_| {})?;
    bench
        .verify(&m)
        .map_err(|e| SimError::Config(format!("verification failed: {e}")))?;
    Ok(r)
}

/// Resumes `resume` on `band` and runs to completion — the manual
/// baseline a healed run must match byte for byte.
///
/// # Errors
///
/// Every [`run_segment`] error, including a further
/// [`SimError::FabricDegraded`] when the timeline strikes again.
pub fn resume_on(
    bench: &Bench,
    params: &PlasticineParams,
    band: Partition,
    opts: &SimOptions,
    resume: &Checkpoint,
) -> Result<SimResult, SimError> {
    run_segment(bench, params, band, opts, Some(resume))
}

/// Runs `bench` on `band` under `opts` (whose `timeline` schedules the
/// fault arrivals), healing through every degraded exit: the new hard
/// faults join a local [`HealthMap`], the run relocates to the lowest
/// healthy pattern-equivalent band, and the degrade checkpoint resumes
/// there. This is the solo mirror of the fabric scheduler's healing loop.
///
/// `opts.faults` must be the map the run started under (normally the
/// pristine default): the checkpoint options guard requires every resume
/// to present the same base map and timeline, which is exactly what makes
/// the healed run bit-identical to a manual resume.
///
/// # Errors
///
/// [`SimError::FabricDegraded`] when `max_heals` is exhausted or chip
/// damage covers every compatible band (the final report is returned so
/// the caller still holds the last checkpoint); any other simulation
/// error propagates unchanged.
pub fn run_healed(
    bench: &Bench,
    params: &PlasticineParams,
    band: Partition,
    opts: &SimOptions,
    max_heals: u32,
) -> Result<HealReport, SimError> {
    let topo = Topology::new(params);
    let mut health = HealthMap::new();
    let mut cur = band;
    let mut resume: Option<Checkpoint> = None;
    let mut heals = 0u64;
    let mut migrations = 0u64;
    let mut bands = vec![band];
    let mut degrade_cycles = Vec::new();
    // Re-degraded segments replay the fired prefix of the timeline, so
    // their reports list old arrivals again; the watermark keeps
    // bank-failure counters from double-absorbing them.
    let mut watermark = 0u64;
    loop {
        match run_segment(bench, params, cur, opts, resume.as_ref()) {
            Ok(result) => {
                return Ok(HealReport {
                    result,
                    heals,
                    migrations,
                    bands,
                    degrade_cycles,
                });
            }
            Err(SimError::FabricDegraded(report)) => {
                if heals >= u64::from(max_heals) {
                    return Err(SimError::FabricDegraded(report));
                }
                degrade_cycles.push(report.cycle);
                for (cycle, a) in &report.arrivals {
                    if *cycle > watermark {
                        health.absorb(a);
                    }
                }
                watermark = report.cycle;
                let Some(next) = health.lowest_healthy_band(&topo, &cur, params.mix, None) else {
                    return Err(SimError::FabricDegraded(report));
                };
                if next != cur {
                    migrations += 1;
                }
                heals += 1;
                bands.push(next);
                resume = Some(report.checkpoint);
                cur = next;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Which surface a soak iteration exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakMode {
    /// One benchmark, one band, the [`run_healed`] loop.
    Solo,
    /// Two co-resident tenants on a [`MultiSim`]; the timeline strikes
    /// tenant A, and tenant B's isolation is byte-checked afterwards.
    Multi,
    /// A live [`FabricScheduler`] healing a submitted tenant.
    Sched,
}

impl SoakMode {
    /// Stable name used in reports and the CLI `--modes` list.
    pub fn name(self) -> &'static str {
        match self {
            SoakMode::Solo => "solo",
            SoakMode::Multi => "multi",
            SoakMode::Sched => "sched",
        }
    }

    /// Parses a `--modes` item.
    pub fn parse(s: &str) -> Option<SoakMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "solo" | "run" => Some(SoakMode::Solo),
            "multi" => Some(SoakMode::Multi),
            "sched" | "serve" => Some(SoakMode::Sched),
            _ => None,
        }
    }
}

/// Soak harness configuration. Iteration `i` (seed `i + 1`) runs
/// `benches[i % len]` in `modes[i % len]` — fully determined by the
/// config, so two soaks with the same config produce the same report.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Benchmarks to rotate through (canonical Table 4 names).
    pub benches: Vec<String>,
    /// Problem-size multiplier.
    pub scale: usize,
    /// Number of pinned seeds (iterations); seeds are `1..=seeds`.
    pub seeds: u64,
    /// Step mode for every simulation in the soak.
    pub step: plasticine_sim::StepMode,
    /// Surfaces to rotate through.
    pub modes: Vec<SoakMode>,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            benches: vec![
                "InnerProduct".to_string(),
                "OuterProduct".to_string(),
                "TPCHQ6".to_string(),
            ],
            scale: 1,
            seeds: 20,
            step: plasticine_sim::StepMode::default(),
            modes: vec![SoakMode::Solo, SoakMode::Multi, SoakMode::Sched],
        }
    }
}

/// One soak iteration's outcome.
#[derive(Debug, Clone)]
pub struct SoakIteration {
    /// The pinned seed.
    pub seed: u64,
    /// Benchmark exercised.
    pub bench: String,
    /// Surface exercised ([`SoakMode::name`]).
    pub mode: &'static str,
    /// `ok` (timeline never impacted), `healed`, a typed
    /// [`ExitStatus::name`], `failed` (scheduler-reported typed failure),
    /// or `panic`.
    pub status: String,
    /// Heals observed.
    pub heals: u64,
    /// Migrations observed.
    pub migrations: u64,
    /// An invariant violation, when one was detected (byte mismatch,
    /// panic, missing stats). `None` for a clean iteration.
    pub violation: Option<String>,
}

/// The soak's full outcome: every iteration plus the derived verdict.
#[derive(Debug)]
pub struct SoakReport {
    /// Per-iteration outcomes, in seed order.
    pub iterations: Vec<SoakIteration>,
}

impl SoakReport {
    /// Iterations that panicked (must be zero).
    pub fn panics(&self) -> usize {
        self.iterations
            .iter()
            .filter(|i| i.status == "panic")
            .count()
    }

    /// Iterations with a detected invariant violation (must be zero;
    /// typed degraded/failed statuses are *not* violations).
    pub fn violations(&self) -> usize {
        self.iterations
            .iter()
            .filter(|i| i.violation.is_some())
            .count()
    }

    /// Iterations that healed at least once.
    pub fn healed(&self) -> usize {
        self.iterations.iter().filter(|i| i.heals > 0).count()
    }

    /// The soak verdict: no panics and no invariant violations.
    pub fn passed(&self) -> bool {
        self.panics() == 0 && self.violations() == 0
    }

    /// The machine-readable report (`plasticine-run chaos --out`).
    pub fn to_json(&self) -> Json {
        let iters: Vec<Json> = self
            .iterations
            .iter()
            .map(|i| {
                let mut pairs = vec![
                    ("seed".to_string(), Json::from(i.seed)),
                    ("bench".to_string(), Json::from(i.bench.clone())),
                    ("mode".to_string(), Json::from(i.mode)),
                    ("status".to_string(), Json::from(i.status.clone())),
                    ("heals".to_string(), Json::from(i.heals)),
                    ("migrations".to_string(), Json::from(i.migrations)),
                ];
                if let Some(v) = &i.violation {
                    pairs.push(("violation".to_string(), Json::from(v.clone())));
                }
                Json::Obj(pairs)
            })
            .collect();
        Json::obj([
            (
                "summary",
                Json::obj([
                    ("iterations", Json::from(self.iterations.len())),
                    ("healed", Json::from(self.healed())),
                    ("panics", Json::from(self.panics())),
                    ("violations", Json::from(self.violations())),
                    ("passed", Json::from(self.passed())),
                ]),
            ),
            ("iterations", Json::Arr(iters)),
        ])
    }
}

/// Resolves a benchmark by canonical name at a scale.
fn find_bench(name: &str, scale: usize) -> Result<Bench, String> {
    by_name(name, Scale(scale)).ok_or_else(|| format!("unknown benchmark `{name}`"))
}

/// The soak's per-seed fault timeline: a fixed mixed-fault spec (unit and
/// link deaths, a bank failure, a transient escalation) aimed at `band`,
/// sampled from `seed`. Goes through the public [`FaultTimelineSpec`]
/// grammar so the soak also exercises the CLI parse path.
fn soak_timeline(params: &PlasticineParams, seed: u64, band: Partition) -> FaultTimeline {
    let spec: FaultTimelineSpec = format!(
        "units=2,links=1,banks=1,esc=1,horizon=4096,seed={seed},band={}@{},detect=8",
        band.rows, band.y0
    )
    .parse()
    .expect("soak timeline spec is well-formed");
    FaultTimeline::sample(&Topology::new(params), &spec, band.channels)
}

/// Base simulation options for a soak iteration.
fn soak_opts(cfg: &SoakConfig, timeline: FaultTimeline) -> SimOptions {
    let mut opts = SimOptions {
        step: cfg.step,
        ..SimOptions::default()
    };
    opts.timeline = timeline;
    opts
}

fn blank_iteration(seed: u64, bench: &str, mode: SoakMode) -> SoakIteration {
    SoakIteration {
        seed,
        bench: bench.to_string(),
        mode: mode.name(),
        status: String::new(),
        heals: 0,
        migrations: 0,
        violation: None,
    }
}

/// Solo iteration: run plain, and when the timeline degrades the run,
/// heal it and byte-check the healed stats against a manual resume of the
/// plain run's own degrade checkpoint.
fn soak_solo(params: &PlasticineParams, cfg: &SoakConfig, seed: u64, name: &str) -> SoakIteration {
    let mut it = blank_iteration(seed, name, SoakMode::Solo);
    let bench = match find_bench(name, cfg.scale) {
        Ok(b) => b,
        Err(e) => {
            it.status = "failed".to_string();
            it.violation = Some(e);
            return it;
        }
    };
    let band = Partition::new(0, (params.rows / 2).max(1), 2.min(params.coalescing_units));
    let opts = soak_opts(cfg, soak_timeline(params, seed, band));
    match run_segment(&bench, params, band, &opts, None) {
        Ok(_) => it.status = "ok".to_string(),
        Err(SimError::FabricDegraded(report)) => match run_healed(&bench, params, band, &opts, 8) {
            Ok(h) => {
                it.heals = h.heals;
                it.migrations = h.migrations;
                it.status = "healed".to_string();
                if h.heals == 1 {
                    // The invariant: healed stats == resuming the degrade
                    // checkpoint on the heal band directly.
                    match resume_on(&bench, params, h.bands[1], &opts, &report.checkpoint) {
                        Ok(manual) => {
                            if manual.stats_json().compact() != h.result.stats_json().compact() {
                                it.violation = Some(format!(
                                    "seed {seed}: healed stats diverge from manual resume"
                                ));
                            }
                        }
                        Err(e) => it.violation = Some(format!("manual resume failed: {e}")),
                    }
                }
            }
            Err(e) => it.status = ExitStatus::from_sim_error(&e).name().to_string(),
        },
        Err(e) => it.status = ExitStatus::from_sim_error(&e).name().to_string(),
    }
    it
}

/// Multi iteration: tenants A and B co-resident, the timeline aimed at
/// A's band. A degraded A is expelled, relocated to a healthy compatible
/// band that avoids B, and re-admitted from its degrade checkpoint; B
/// must finish with stats byte-identical to its solo baseline (the
/// isolation invariant under chaos).
fn soak_multi(
    params: &PlasticineParams,
    cfg: &SoakConfig,
    seed: u64,
    name_a: &str,
    name_b: &str,
) -> SoakIteration {
    let mut it = blank_iteration(seed, name_a, SoakMode::Multi);
    let (bench_a, bench_b) = match (find_bench(name_a, cfg.scale), find_bench(name_b, cfg.scale)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            it.status = "failed".to_string();
            it.violation = Some(e);
            return it;
        }
    };
    let h = (params.rows / 4).max(1);
    let band_a = Partition::new(0, h, 1);
    let band_b = Partition::new(h, h, 1);
    let opts_a = soak_opts(cfg, soak_timeline(params, seed, band_a));
    let opts_b = soak_opts(cfg, FaultTimeline::default());
    // B's solo baseline on a dedicated fabric of its band's geometry.
    let b_solo = match run_segment(&bench_b, params, band_b, &opts_b, None) {
        Ok(r) => r,
        Err(e) => {
            it.status = ExitStatus::from_sim_error(&e).name().to_string();
            return it;
        }
    };
    let topo = Topology::new(params);
    let mut health = HealthMap::new();
    let mut watermark = 0u64;
    let mut cur_a = band_a;
    let mut ms = MultiSim::new(params.coalescing_units, 2048);
    let admit = |ms: &mut MultiSim,
                 bench: &Bench,
                 band: Partition,
                 opts: &SimOptions,
                 resume: Option<&Checkpoint>|
     -> Result<plasticine_sim::TenantId, SimError> {
        let copts = CompileOptions {
            partition: Some(band),
            faults: opts.faults.clone(),
            ..CompileOptions::new()
        };
        let (out, prog, _notes) = compile_degraded(&bench.program, params, &copts)
            .map_err(|e| SimError::Config(format!("compile: {e}")))?;
        let mut m = Machine::new(&prog);
        bench.load(&mut m);
        let mut o = opts.clone();
        o.dram.channels = band.channels;
        ms.admit(&bench.name, &prog, &out, &mut m, &o, resume)
    };
    let mut id_a = match admit(&mut ms, &bench_a, band_a, &opts_a, None) {
        Ok(id) => id,
        Err(e) => {
            it.status = ExitStatus::from_sim_error(&e).name().to_string();
            return it;
        }
    };
    let id_b = match admit(&mut ms, &bench_b, band_b, &opts_b, None) {
        Ok(id) => id,
        Err(e) => {
            it.status = ExitStatus::from_sim_error(&e).name().to_string();
            return it;
        }
    };
    let mut final_status: Option<String> = None;
    loop {
        match ms.round() {
            Ok(true) => break,
            Ok(false) => {}
            Err((tid, SimError::FabricDegraded(report))) if tid == id_a && it.heals < 8 => {
                ms.expel(tid);
                for (cycle, a) in &report.arrivals {
                    if *cycle > watermark {
                        health.absorb(a);
                    }
                }
                watermark = report.cycle;
                let next = health.lowest_healthy_band(&topo, &cur_a, params.mix, Some(&band_b));
                let Some(next) = next else {
                    final_status = Some("fabric_degraded".to_string());
                    break;
                };
                if next != cur_a {
                    it.migrations += 1;
                }
                it.heals += 1;
                match admit(&mut ms, &bench_a, next, &opts_a, Some(&report.checkpoint)) {
                    Ok(id) => id_a = id,
                    Err(e) => {
                        final_status = Some(ExitStatus::from_sim_error(&e).name().to_string());
                        break;
                    }
                }
                cur_a = next;
            }
            Err((_, e)) => {
                final_status = Some(ExitStatus::from_sim_error(&e).name().to_string());
                break;
            }
        }
    }
    if let Some(s) = final_status {
        // A is off the fabric (typed exit); drain B so its isolation
        // check still runs.
        it.status = s;
        let _ = ms.run();
    } else {
        it.status = if it.heals > 0 { "healed" } else { "ok" }.to_string();
    }
    let b = &ms.tenants()[id_b.0];
    match b.result() {
        Some(r) => {
            if r.stats_json().compact() != b_solo.stats_json().compact() {
                it.violation = Some(format!(
                    "seed {seed}: co-resident tenant B stats diverge from its solo baseline"
                ));
            }
        }
        None => {
            if it.violation.is_none() && it.status != "fabric_degraded" {
                it.violation = Some(format!("seed {seed}: tenant B never finished"));
            }
        }
    }
    it
}

/// Scheduler iteration: a live [`FabricScheduler`] thread heals a
/// submitted tenant through its timeline; the iteration asserts the
/// tenant reaches a terminal phase with stats (done) or a typed error
/// (failed) within a generous deadline.
fn soak_sched(params: &PlasticineParams, cfg: &SoakConfig, seed: u64, name: &str) -> SoakIteration {
    let mut it = blank_iteration(seed, name, SoakMode::Sched);
    let bench = match find_bench(name, cfg.scale) {
        Ok(b) => b,
        Err(e) => {
            it.status = "failed".to_string();
            it.violation = Some(e);
            return it;
        }
    };
    let rows = (params.rows / 2).max(1);
    let channels = 2.min(params.coalescing_units);
    let band = Partition::new(0, rows, channels);
    let timeline = soak_timeline(params, seed, band);
    let f = FabricScheduler::new(params);
    let cache = CompileCache::new();
    let metrics = Metrics::new();
    let spec = SubmitSpec {
        bench: bench.name.clone(),
        scale: cfg.scale,
        rows,
        channels,
        step: cfg.step,
        max_cycles: None,
        timeline,
    };
    std::thread::scope(|s| {
        s.spawn(|| scheduler_loop(&f, params, &cache, &metrics));
        let id = match f.submit(spec) {
            Ok(id) => id,
            Err(e) => {
                it.status = "failed".to_string();
                it.violation = Some(e);
                f.stop();
                return;
            }
        };
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            std::thread::sleep(Duration::from_millis(10));
            let tenants = f.tenants_json();
            let t = tenants.as_arr().and_then(|a| a.get(id));
            let state = t
                .and_then(|t| t.get("state"))
                .and_then(Json::as_str)
                .unwrap_or("");
            match state {
                "done" => {
                    let t = t.expect("state was read from the entry");
                    it.heals = t.get("healed").and_then(Json::as_u64).unwrap_or(0);
                    it.migrations = t.get("migrations").and_then(Json::as_u64).unwrap_or(0);
                    it.status = if it.heals > 0 { "healed" } else { "ok" }.to_string();
                    if t.get("stats").is_none() {
                        it.violation = Some(format!("seed {seed}: tenant done without stats"));
                    }
                    break;
                }
                "failed" => {
                    it.status = "failed".to_string();
                    if t.and_then(|t| t.get("error")).is_none() {
                        it.violation =
                            Some(format!("seed {seed}: tenant failed without a typed error"));
                    }
                    break;
                }
                _ => {}
            }
            if Instant::now() > deadline {
                it.status = "failed".to_string();
                it.violation = Some(format!("seed {seed}: scheduler soak timed out"));
                break;
            }
        }
        f.stop();
    });
    it
}

/// Runs the chaos soak: `cfg.seeds` iterations, each replaying a pinned
/// random fault timeline against one workload on one surface, every
/// iteration wrapped in `catch_unwind` so a panic is *recorded* (and
/// fails the soak) instead of killing it.
pub fn soak(params: &PlasticineParams, cfg: &SoakConfig) -> SoakReport {
    let mut iterations = Vec::new();
    for i in 0..cfg.seeds {
        let seed = i + 1;
        let name = &cfg.benches[(i as usize) % cfg.benches.len()];
        let name_b = &cfg.benches[(i as usize + 1) % cfg.benches.len()];
        let mode = cfg.modes[(i as usize) % cfg.modes.len()];
        let out = catch_unwind(AssertUnwindSafe(|| match mode {
            SoakMode::Solo => soak_solo(params, cfg, seed, name),
            SoakMode::Multi => soak_multi(params, cfg, seed, name, name_b),
            SoakMode::Sched => soak_sched(params, cfg, seed, name),
        }));
        iterations.push(out.unwrap_or_else(|_| {
            let mut it = blank_iteration(seed, name, mode);
            it.status = "panic".to_string();
            it.violation = Some(format!("seed {seed}: iteration panicked"));
            it
        }));
    }
    SoakReport { iterations }
}

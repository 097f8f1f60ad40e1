//! The multi-tenant fabric scheduler behind the `submit`/`tenants`/
//! `evict` serve ops.
//!
//! Tenants are programs compiled into disjoint fabric bands
//! ([`Partition`]) and admitted from a FIFO queue by best-fit against the
//! chip-level [`PartitionTable`]. One dedicated scheduler thread owns
//! every resident tenant's [`SimKernel`] and advances them in
//! deterministic weighted round-robin quanta — a tenant with a
//! `c`-channel share advances `c × QUANTUM` cycles per round, mirroring
//! the per-tenant DRAM-channel credit weights. Because co-resident bands
//! share no simulated resource, each tenant's final stats are
//! byte-identical to a solo run on a dedicated fabric of its partition's
//! geometry (the isolation invariant; see DESIGN.md §15).
//!
//! Preemption: when the tenant at the head of the queue cannot be placed
//! and strictly smaller tenants are resident, the smaller residents are
//! checkpointed off the fabric and requeued; checkpoint config hashes are
//! partition-offset-normalized, so a preempted tenant later resumes on
//! any free [pattern-equivalent](Partition::pattern_equivalent) band —
//! same height, offset congruent modulo the grid mix's vertical period
//! (same parity on the checkerboard) — and still finishes with
//! byte-identical stats. Admission planning enforces the equivalence
//! when it places a checkpointed tenant. The `evict` op drives the same
//! path on demand.
//!
//! Control-plane calls ([`FabricScheduler::submit`],
//! [`FabricScheduler::tenants_json`], [`FabricScheduler::request_evict`])
//! touch only the metadata table under a mutex; the kernels themselves
//! live on the scheduler thread, so a long-running quantum never blocks
//! observability.

use super::metrics::{Metrics, TenantEvent};
use super::{env_lists_bench, stats_with_bench};
use plasticine_arch::{
    FaultMap, FaultTimeline, GridMix, HealthMap, Partition, PartitionTable, PlasticineParams,
    Topology,
};
use plasticine_compiler::{CompileCache, CompileOptions};
use plasticine_json::Json;
use plasticine_ppir::Machine;
use plasticine_sim::{
    Advance, Checkpoint, DegradedReport, SimError, SimKernel, SimOptions, StepMode,
};
use plasticine_workloads::{by_name, Bench, Scale};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cycles a weight-1 tenant advances per scheduler round. Small enough
/// that evictions land promptly, large enough that the round-robin
/// overhead (a map walk) is negligible against simulated work.
pub const QUANTUM: u64 = 2048;

/// What a `submit` request asks for.
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// Canonical benchmark name (already resolved by the server).
    pub bench: String,
    /// Problem-size multiplier.
    pub scale: usize,
    /// Fabric rows requested.
    pub rows: usize,
    /// DRAM-channel share requested (also the round-robin credit weight).
    pub channels: usize,
    /// Step mode for the tenant's simulation.
    pub step: StepMode,
    /// Simulator threads for the tenant's simulation.
    pub threads: usize,
    /// Cycle budget (`None` = simulator default).
    pub max_cycles: Option<u64>,
    /// Scheduled online fault arrivals for the tenant's run (sampled by
    /// the server from the request's `timeline` spec; inert by default).
    pub timeline: FaultTimeline,
}

/// Lifecycle of a tenant. `Queued` covers both a fresh submission and a
/// preempted/evicted tenant waiting to resume (the latter carries a
/// checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    Failed,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
        }
    }
}

struct TenantEntry {
    spec: SubmitSpec,
    phase: Phase,
    partition: Option<Partition>,
    /// The band the live checkpoint was taken on. A resumed tenant may
    /// only be placed on a [pattern-equivalent](Partition::pattern_equivalent)
    /// band — same height, offset congruent modulo the grid mix's
    /// vertical period — or the checkpoint guard will (rightly) refuse
    /// the relocated bitstream.
    anchor: Option<Partition>,
    checkpoint: Option<Checkpoint>,
    cycles: u64,
    preemptions: u64,
    /// The cycle the latest eviction checkpointed the tenant at.
    evicted_at: u64,
    /// This waiting tenant already triggered one preemption sweep;
    /// never fire a second for it (livelock guard).
    preempt_fired: bool,
    /// Eviction requested (by the `evict` op or the preemption planner);
    /// honored by the scheduler thread at the next quantum boundary.
    evict_requested: bool,
    /// The pending eviction is a scheduler preemption, not an operator
    /// request (metrics attribution).
    preempted: bool,
    /// The tenant is queued because a fault arrival degraded its band
    /// (the next successful admission is a heal, not a plain resume).
    healing: bool,
    /// Successful heals: degraded exits followed by a resumed admission.
    healed: u64,
    /// Heals that landed on a band other than the one the tenant
    /// degraded on.
    migrations: u64,
    /// Simulated cycles of progress lost to healing (zero while every
    /// heal resumes the degraded exit's own checkpoint; a forced restart
    /// forfeits the checkpointed progress).
    downtime_cycles: u64,
    /// Latest arrival cycle already absorbed into the chip [`HealthMap`]
    /// from this tenant's degradation reports. A re-degraded tenant
    /// replays the fired prefix of its timeline, so its next report
    /// lists old arrivals again; the watermark keeps bank-failure
    /// counters from double-absorbing them.
    absorbed_through: u64,
    error: Option<String>,
    stats: Option<Json>,
}

struct FabricState {
    table: PartitionTable,
    topo: Topology,
    mix: GridMix,
    rows_total: usize,
    channels_total: usize,
    /// Hard faults the chip has accumulated from degraded tenants.
    /// Admission steers placements onto healthy bands while any exist;
    /// when no healthy band fits, the compile goes through the degraded
    /// path against the merged map.
    health: HealthMap,
    tenants: Vec<TenantEntry>,
    pending: VecDeque<usize>,
    stop: bool,
}

/// Shared scheduler state: the metadata table every transport thread may
/// read, and the command flags the scheduler thread consumes.
pub struct FabricScheduler {
    state: Mutex<FabricState>,
    cv: Condvar,
}

impl FabricScheduler {
    /// An empty scheduler over a chip's fabric rows and DRAM channels.
    pub fn new(params: &PlasticineParams) -> FabricScheduler {
        FabricScheduler {
            state: Mutex::new(FabricState {
                table: PartitionTable::new(params),
                topo: Topology::new(params),
                mix: params.mix,
                rows_total: params.rows,
                channels_total: params.coalescing_units,
                health: HealthMap::new(),
                tenants: Vec::new(),
                pending: VecDeque::new(),
                stop: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Queues a tenant for admission. Returns its id.
    ///
    /// # Errors
    ///
    /// A usage-class message when the requested geometry cannot ever fit
    /// the chip (zero or over-size rows/channels).
    pub fn submit(&self, spec: SubmitSpec) -> Result<usize, String> {
        let mut g = self.state.lock().unwrap();
        if spec.rows == 0 || spec.rows > g.rows_total {
            return Err(format!(
                "`rows` must be in 1..={} (got {})",
                g.rows_total, spec.rows
            ));
        }
        if spec.channels == 0 || spec.channels > g.channels_total {
            return Err(format!(
                "`channels` must be in 1..={} (got {})",
                g.channels_total, spec.channels
            ));
        }
        if g.stop {
            return Err("scheduler is shut down".to_string());
        }
        let id = g.tenants.len();
        g.tenants.push(TenantEntry {
            spec,
            phase: Phase::Queued,
            partition: None,
            anchor: None,
            checkpoint: None,
            cycles: 0,
            preemptions: 0,
            evicted_at: 0,
            preempt_fired: false,
            evict_requested: false,
            preempted: false,
            healing: false,
            healed: 0,
            migrations: 0,
            downtime_cycles: 0,
            absorbed_through: 0,
            error: None,
            stats: None,
        });
        g.pending.push_back(id);
        self.cv.notify_all();
        Ok(id)
    }

    /// The `tenants` op payload: every tenant ever submitted, in id
    /// order, with its current phase, band, progress, and (once done) the
    /// same stats object a solo run reports.
    pub fn tenants_json(&self) -> Json {
        let g = self.state.lock().unwrap();
        Json::Arr(
            g.tenants
                .iter()
                .enumerate()
                .map(|(id, t)| {
                    let mut pairs = vec![
                        ("tenant".to_string(), Json::from(id)),
                        ("bench".to_string(), Json::from(t.spec.bench.clone())),
                        ("state".to_string(), Json::from(t.phase.name())),
                        ("rows".to_string(), Json::from(t.spec.rows)),
                        ("channels".to_string(), Json::from(t.spec.channels)),
                        ("cycles".to_string(), Json::from(t.cycles)),
                    ];
                    if let Some(p) = &t.partition {
                        pairs.push(("partition".to_string(), Json::from(p.to_string())));
                    }
                    if t.preemptions > 0 {
                        pairs.push(("preemptions".to_string(), Json::from(t.preemptions)));
                    }
                    if t.healed > 0 {
                        pairs.push(("healed".to_string(), Json::from(t.healed)));
                    }
                    if t.migrations > 0 {
                        pairs.push(("migrations".to_string(), Json::from(t.migrations)));
                    }
                    if t.downtime_cycles > 0 {
                        pairs.push(("downtime_cycles".to_string(), Json::from(t.downtime_cycles)));
                    }
                    if t.checkpoint.is_some() {
                        pairs.push(("resumable".to_string(), Json::from(true)));
                    }
                    if let Some(e) = &t.error {
                        pairs.push(("error".to_string(), Json::from(e.clone())));
                    }
                    if let Some(s) = &t.stats {
                        pairs.push(("stats".to_string(), s.clone()));
                    }
                    Json::Obj(pairs)
                })
                .collect(),
        )
    }

    /// The `evict` op: asks the scheduler thread to checkpoint a running
    /// tenant off the fabric and requeue it, then waits (bounded by
    /// `wait`) for the eviction to land. Returns the op payload.
    ///
    /// # Errors
    ///
    /// A message naming the problem: unknown id, tenant not running, or
    /// the wait timing out.
    pub fn request_evict(&self, id: usize, wait: Duration) -> Result<Vec<(String, Json)>, String> {
        let mut g = self.state.lock().unwrap();
        let n = g.tenants.len();
        let t = g
            .tenants
            .get_mut(id)
            .ok_or_else(|| format!("unknown tenant {id} ({n} submitted)"))?;
        if t.phase != Phase::Running {
            return Err(format!("tenant {id} is {}, not running", t.phase.name()));
        }
        t.evict_requested = true;
        t.preempted = false;
        let before = t.preemptions;
        self.cv.notify_all();
        let deadline = Instant::now() + wait;
        // An evicted tenant may be readmitted (and even finish) before
        // this thread wakes, so a landed eviction shows in the preemption
        // count, not only in the phase.
        let landed = |t: &TenantEntry| t.preemptions > before;
        while g.tenants[id].phase == Phase::Running && !landed(&g.tenants[id]) {
            let now = Instant::now();
            if now >= deadline {
                return Err(format!(
                    "eviction of tenant {id} did not land within {}ms",
                    wait.as_millis()
                ));
            }
            let (guard, _) = self.cv.wait_timeout(g, deadline - now).unwrap();
            g = guard;
        }
        let t = &g.tenants[id];
        let (cycle, resumable) = if landed(t) {
            (t.evicted_at, true)
        } else {
            (t.cycles, t.checkpoint.is_some())
        };
        Ok(vec![
            ("tenant".to_string(), Json::from(id)),
            ("bench".to_string(), Json::from(t.spec.bench.clone())),
            ("state".to_string(), Json::from(t.phase.name())),
            ("cycle".to_string(), Json::from(cycle)),
            ("resumable".to_string(), Json::from(resumable)),
        ])
    }

    /// A snapshot of the chip's accumulated hard faults (dead units,
    /// dead links, degraded banks), for observability payloads.
    pub fn health_json(&self) -> Json {
        let g = self.state.lock().unwrap();
        let m = g.health.faults();
        Json::obj([
            ("dead_pcus", Json::from(m.dead_pcus.len())),
            ("dead_pmus", Json::from(m.dead_pmus.len())),
            ("dead_links", Json::from(m.dead_links.len())),
            (
                "dead_banks",
                Json::from(m.dead_banks.values().sum::<usize>()),
            ),
        ])
    }

    /// Stops the scheduler thread (daemon drain). Unfinished tenants are
    /// abandoned; their final `tenants` listing keeps the last phase.
    pub fn stop(&self) {
        self.state.lock().unwrap().stop = true;
        self.cv.notify_all();
    }
}

/// A tenant resident on the fabric: its kernel and round-robin weight.
/// Functional verification already happened at admission (simulation is
/// two-phase: the functional interpreter runs to completion while the
/// kernel is built, so the machine's final state exists before the first
/// timing cycle).
struct Resident {
    kernel: Box<SimKernel>,
    bench: Bench,
    weight: u64,
    /// Admitted [`held`]: parks once past its first quantum.
    hold: bool,
}

/// Test hook (`PLASTICINE_TEST_HOLD=<bench>`): a tenant of that bench that
/// was never preempted stops advancing once past its first quantum, and no
/// other tenant is admitted, until an eviction takes it off the fabric. A
/// test can then evict it mid-run however fast the host is, and knows
/// which bands every tenant lands on.
fn held(t: &TenantEntry) -> bool {
    t.preemptions == 0 && env_lists_bench("PLASTICINE_TEST_HOLD", &t.spec.bench)
}

impl Resident {
    fn parked(&self) -> bool {
        self.hold && self.kernel.now() > 0
    }
}

/// What one pass over the shared state decided the scheduler thread
/// should do next.
enum Decision {
    Stop,
    Evict(Vec<usize>),
    Admit(Vec<Admission>),
    Advance,
}

/// One planned admission: which tenant, onto which band, resuming which
/// checkpoint, compiled against which fault map (non-default only when
/// the band carries accumulated chip damage and the bitstream must route
/// around it).
struct Admission {
    id: usize,
    band: Partition,
    resume: Option<Checkpoint>,
    spec: SubmitSpec,
    faults: FaultMap,
}

/// The scheduler thread: admit, preempt, advance, repeat until
/// [`FabricScheduler::stop`].
pub fn scheduler_loop(
    f: &FabricScheduler,
    params: &PlasticineParams,
    cache: &CompileCache,
    metrics: &Metrics,
) {
    let mut residents: BTreeMap<usize, Resident> = BTreeMap::new();
    loop {
        let decision = {
            let mut g = f.state.lock().unwrap();
            loop {
                if g.stop {
                    break Decision::Stop;
                }
                let evicts: Vec<usize> = residents
                    .keys()
                    .copied()
                    .filter(|&id| g.tenants[id].evict_requested)
                    .collect();
                if !evicts.is_empty() {
                    break Decision::Evict(evicts);
                }
                let admits = plan_admissions(&mut g);
                if !admits.is_empty() {
                    break Decision::Admit(admits);
                }
                if plan_preemption(&mut g, &residents) {
                    continue; // eviction requests were just filed
                }
                if residents.values().any(|r| !r.parked()) {
                    break Decision::Advance;
                }
                g = f.cv.wait(g).unwrap();
            }
        };
        match decision {
            Decision::Stop => return,
            Decision::Evict(ids) => {
                for id in ids {
                    let r = residents.remove(&id).expect("evict targets a resident");
                    let c = r.kernel.checkpoint();
                    let cycle = c.cycle;
                    let mut g = f.state.lock().unwrap();
                    let t = &mut g.tenants[id];
                    let event = if t.preempted {
                        TenantEvent::Preempted
                    } else {
                        TenantEvent::Evicted
                    };
                    metrics.record_tenant(&t.spec.bench, event);
                    t.checkpoint = Some(c);
                    t.cycles = cycle;
                    t.evicted_at = cycle;
                    t.phase = Phase::Queued;
                    t.preemptions += 1;
                    t.evict_requested = false;
                    t.preempted = false;
                    let band = t.partition.take().expect("resident owns a band");
                    t.anchor = Some(band);
                    g.table.release(&band);
                    g.pending.push_back(id);
                    f.cv.notify_all();
                }
            }
            Decision::Admit(list) => {
                for a in list {
                    match build_resident(
                        params,
                        cache,
                        &a.spec,
                        a.band,
                        &a.faults,
                        a.resume.as_ref(),
                    ) {
                        Ok(mut r) => {
                            metrics.record_tenant(&a.spec.bench, TenantEvent::Admitted);
                            let mut g = f.state.lock().unwrap();
                            let t = &mut g.tenants[a.id];
                            r.hold = held(t);
                            residents.insert(a.id, r);
                            if t.healing {
                                // The degraded tenant is back on the
                                // fabric: count the heal, and the
                                // migration when it landed off its
                                // degraded band.
                                t.healing = false;
                                t.healed += 1;
                                if t.anchor != Some(a.band) {
                                    t.migrations += 1;
                                }
                                metrics.record_tenant(&t.spec.bench, TenantEvent::Healed);
                            }
                            f.cv.notify_all();
                        }
                        Err(msg) => fail_tenant(f, metrics, a.id, msg),
                    }
                }
            }
            Decision::Advance => {
                let mut paused: Vec<(usize, u64)> = Vec::new();
                let mut finished: Vec<usize> = Vec::new();
                let mut failed: Vec<(usize, String)> = Vec::new();
                let mut degraded: Vec<(usize, Box<DegradedReport>)> = Vec::new();
                for (&id, r) in residents.iter_mut().filter(|(_, r)| !r.parked()) {
                    let target = r.kernel.now() + r.weight * QUANTUM;
                    match r.kernel.advance(Some(target), None) {
                        Ok(Advance::Finished) => finished.push(id),
                        Ok(Advance::Paused) => paused.push((id, r.kernel.now())),
                        Err(SimError::FabricDegraded(report)) => degraded.push((id, report)),
                        Err(e) => failed.push((id, e.to_string())),
                    }
                }
                if !paused.is_empty() {
                    let mut g = f.state.lock().unwrap();
                    for (id, now) in paused {
                        g.tenants[id].cycles = now;
                    }
                }
                for id in finished {
                    let r = residents.remove(&id).expect("finished id is resident");
                    let (result, _) = r.kernel.finish();
                    let stats = stats_with_bench(&r.bench, &result);
                    let mut g = f.state.lock().unwrap();
                    let t = &mut g.tenants[id];
                    metrics.record_tenant(&t.spec.bench, TenantEvent::Completed);
                    t.phase = Phase::Done;
                    t.cycles = result.cycles;
                    t.stats = Some(stats);
                    t.checkpoint = None;
                    t.anchor = None;
                    t.evict_requested = false;
                    if let Some(band) = t.partition.take() {
                        g.table.release(&band);
                    }
                    f.cv.notify_all();
                }
                for (id, report) in degraded {
                    // Self-healing: the degraded exit already carries the
                    // tenant's auto-checkpoint and the arrivals that
                    // struck it. Fold the hard faults into the chip
                    // health map, release the damaged band, and requeue
                    // the tenant at the head of the line — admission
                    // will steer it onto a healthy pattern-equivalent
                    // band (or restart it degraded when none can exist).
                    residents.remove(&id);
                    let report = *report;
                    let mut g = f.state.lock().unwrap();
                    let t = &mut g.tenants[id];
                    metrics.record_tenant(&t.spec.bench, TenantEvent::Degraded);
                    let watermark = t.absorbed_through;
                    t.absorbed_through = report.cycle;
                    t.checkpoint = Some(report.checkpoint);
                    t.cycles = report.cycle;
                    t.phase = Phase::Queued;
                    t.healing = true;
                    t.evict_requested = false;
                    t.preempted = false;
                    let band = t.partition.take().expect("degraded tenant owned a band");
                    t.anchor = Some(band);
                    for (cycle, a) in &report.arrivals {
                        if *cycle > watermark {
                            g.health.absorb(a);
                        }
                    }
                    g.table.release(&band);
                    g.pending.push_front(id);
                    f.cv.notify_all();
                }
                for (id, msg) in failed {
                    residents.remove(&id);
                    fail_tenant(f, metrics, id, msg);
                }
            }
        }
    }
}

/// Walks the pending queue in FIFO order, best-fit allocating every
/// tenant that fits right now. Admitted tenants are marked `Running` (and
/// own their band) immediately so a failed compile can release cleanly.
///
/// Placement is health-aware: a checkpointed tenant lands only on a
/// *healthy* [pattern-equivalent](Partition::pattern_equivalent) band
/// (the unmodified bitstream cannot run over dead silicon, and a
/// degraded recompile would break the checkpoint's config guard); if
/// chip damage means no such band can ever exist the checkpoint is
/// forfeited and the tenant restarts degraded, charging the lost cycles
/// to its downtime counter. Fresh tenants prefer healthy bands and fall
/// back to compiling around the accumulated faults.
fn plan_admissions(g: &mut FabricState) -> Vec<Admission> {
    let mut admits = Vec::new();
    let mut still_pending = VecDeque::new();
    let mut queue = std::mem::take(&mut g.pending);
    while let Some(id) = queue.pop_front() {
        if g.tenants
            .iter()
            .any(|t| t.phase == Phase::Running && held(t))
        {
            still_pending.push_back(id);
            continue;
        }
        let (rows, channels, anchor) = {
            let t = &g.tenants[id];
            // A checkpointed tenant must land on a band its bitstream
            // relocates onto; a fresh tenant takes any best-fit band.
            let anchor = t.checkpoint.as_ref().and(t.anchor);
            (t.spec.rows, t.spec.channels, anchor)
        };
        let mix = g.mix;
        let rows_total = g.rows_total;
        let FabricState {
            table,
            topo,
            health,
            ..
        } = &mut *g;
        let healthy = |p: &Partition| health.band_is_healthy(topo, p);
        // `(band, clean)`: a clean band carries no accumulated fault and
        // runs the pristine bitstream; a dirty one needs the degraded
        // compile. `restart` forfeits the checkpoint.
        let mut restart = false;
        let placed: Option<(Partition, bool)> = match anchor {
            Some(a) => {
                match table.allocate_compatible_where(rows, channels, a.y0, mix, healthy) {
                    Some(band) => Some((band, true)),
                    None if healthy_compatible_band_exists(
                        topo, health, rows_total, rows, channels, a.y0, mix,
                    ) =>
                    {
                        // A healthy compatible band exists but is
                        // occupied: wait for it rather than forfeit the
                        // checkpoint.
                        None
                    }
                    None => {
                        // Chip damage covers every compatible offset:
                        // the checkpoint can never resume. Restart from
                        // scratch.
                        restart = true;
                        table
                            .allocate_where(rows, channels, healthy)
                            .map(|b| (b, true))
                            .or_else(|| table.allocate(rows, channels).map(|b| (b, false)))
                    }
                }
            }
            None => table
                .allocate_where(rows, channels, healthy)
                .map(|b| (b, true))
                .or_else(|| table.allocate(rows, channels).map(|b| (b, false))),
        };
        match placed {
            Some((band, clean)) => {
                let faults = if clean {
                    FaultMap::default()
                } else {
                    g.health.merged(&FaultMap::default())
                };
                let t = &mut g.tenants[id];
                if restart {
                    t.downtime_cycles += t.checkpoint.as_ref().map(|c| c.cycle).unwrap_or(0);
                    t.checkpoint = None;
                }
                t.phase = Phase::Running;
                t.partition = Some(band);
                admits.push(Admission {
                    id,
                    band,
                    resume: t.checkpoint.take(),
                    spec: t.spec.clone(),
                    faults,
                });
            }
            None => still_pending.push_back(id),
        }
    }
    g.pending = still_pending;
    admits
}

/// Could a healthy band pattern-equivalent to `anchor_y0` exist on an
/// *empty* chip? When even that fails, the accumulated damage blankets
/// every compatible offset and a checkpointed tenant waiting for one
/// would wait forever.
fn healthy_compatible_band_exists(
    topo: &Topology,
    health: &HealthMap,
    rows_total: usize,
    rows: usize,
    channels: usize,
    anchor_y0: usize,
    mix: GridMix,
) -> bool {
    let period = mix.vertical_period().max(1);
    let mut y0 = anchor_y0 % period;
    while y0 + rows <= rows_total {
        if health.band_is_healthy(topo, &Partition::new(y0, rows, channels)) {
            return true;
        }
        y0 += period;
    }
    false
}

/// When the head of the queue cannot fit but would after checkpointing
/// off every strictly smaller resident, files eviction requests for those
/// residents (once per waiting tenant). Returns whether any were filed.
fn plan_preemption(g: &mut FabricState, residents: &BTreeMap<usize, Resident>) -> bool {
    let Some(&head) = g.pending.front() else {
        return false;
    };
    let (rows, channels, fired) = {
        let t = &g.tenants[head];
        (t.spec.rows, t.spec.channels, t.preempt_fired)
    };
    if fired {
        return false;
    }
    let victims: Vec<usize> = residents
        .keys()
        .copied()
        .filter(|&id| g.tenants[id].spec.rows < rows)
        .collect();
    if victims.is_empty() {
        return false;
    }
    // Would the head fit once every smaller resident is gone? Count the
    // rows and channels the larger residents keep.
    let keep_rows: usize = residents
        .keys()
        .filter(|&&id| g.tenants[id].spec.rows >= rows)
        .map(|&id| g.tenants[id].spec.rows)
        .sum();
    let keep_channels: usize = residents
        .keys()
        .filter(|&&id| g.tenants[id].spec.rows >= rows)
        .map(|&id| g.tenants[id].spec.channels)
        .sum();
    if rows > g.rows_total - keep_rows || channels > g.channels_total - keep_channels {
        return false;
    }
    for id in victims {
        let t = &mut g.tenants[id];
        t.evict_requested = true;
        t.preempted = true;
    }
    g.tenants[head].preempt_fired = true;
    true
}

/// Compiles a tenant into its band (through the shared cache) and builds
/// its kernel, resuming from an eviction checkpoint when one exists.
/// `faults` is the chip damage the bitstream must route around (default
/// on a clean band — resumed checkpoints require it, since the fault map
/// participates in the checkpoint options guard).
fn build_resident(
    params: &PlasticineParams,
    cache: &CompileCache,
    spec: &SubmitSpec,
    band: Partition,
    faults: &FaultMap,
    resume: Option<&Checkpoint>,
) -> Result<Resident, String> {
    let bench = by_name(&spec.bench, Scale(spec.scale))
        .ok_or_else(|| format!("unknown benchmark `{}`", spec.bench))?;
    let copts = CompileOptions {
        partition: Some(band),
        faults: faults.clone(),
        ..CompileOptions::new()
    };
    let cached = cache
        .compile_degraded(&bench.program, params, &copts)
        .map_err(|e| format!("compile: {e}"))?;
    let (out, prog, _degraded) = &*cached;
    let mut m = Machine::new(prog);
    bench.load(&mut m);
    let mut opts = SimOptions {
        step: spec.step,
        threads: spec.threads,
        ..SimOptions::default()
    };
    // The tenant simulates against exactly its DRAM-channel share.
    opts.dram.channels = band.channels;
    opts.faults = faults.clone();
    opts.timeline = spec.timeline.clone();
    if let Some(n) = spec.max_cycles {
        opts.max_cycles = n;
    }
    let kernel =
        SimKernel::new(prog, out, &mut m, &opts, false, resume).map_err(|e| e.to_string())?;
    // The functional pass ran to completion inside `SimKernel::new`;
    // verify the answer now and let the timing simulation proceed knowing
    // the tenant's output is already correct.
    bench
        .verify(&m)
        .map_err(|e| format!("verification failed: {e}"))?;
    Ok(Resident {
        kernel: Box::new(kernel),
        bench,
        weight: band.channels as u64,
        hold: false,
    })
}

/// Publishes a tenant failure and releases its band.
fn fail_tenant(f: &FabricScheduler, metrics: &Metrics, id: usize, msg: String) {
    let mut g = f.state.lock().unwrap();
    let t = &mut g.tenants[id];
    metrics.record_tenant(&t.spec.bench, TenantEvent::Failed);
    t.phase = Phase::Failed;
    t.error = Some(msg);
    t.evict_requested = false;
    if let Some(band) = t.partition.take() {
        g.table.release(&band);
    }
    f.cv.notify_all();
}

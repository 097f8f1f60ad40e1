//! Shared cycle-granular resources: invocation slots, scratchpad ports,
//! address generators, the DRAM system, and activity counters.

use crate::deadlock::DeadlockReport;
use crate::model::SimModel;
use crate::trace::{
    SimTrace, Tracer, UnitCycles, UnitStat, UnitStats, CLASS_BUSY, CLASS_IDLE, CLASS_MEM,
};
use plasticine_arch::{EccPolicy, FaultRng, PlasticineParams, TransientFaults, UnitId};
use plasticine_dram::{CoalescingUnit, DramConfig, DramStats, DramSystem, ElemRequest, MemRequest};
use plasticine_json::Json;
use plasticine_ppir::CtrlId;
use std::collections::{BTreeMap, HashMap};

/// Dynamic activity accumulated during simulation — the input to the power
/// model and the source of Table 7's utilization columns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Activity {
    /// ALU operations executed (element granularity).
    pub fu_ops: u64,
    /// Iterative (transcendental) ops among them.
    pub heavy_ops: u64,
    /// Reduction-tree ops.
    pub red_ops: u64,
    /// Words read from scratchpads.
    pub sram_reads: u64,
    /// Words written to scratchpads.
    pub sram_writes: u64,
    /// Vector-register traffic proxy: vectors issued × pipeline stages.
    pub reg_traffic: u64,
    /// Vector payload × hops moved on the vector network (word-hops).
    pub net_word_hops: u64,
    /// Scalar and control messages.
    pub ctrl_msgs: u64,
    /// PCU-cycles spent actively issuing (for clock gating in the power
    /// model).
    pub pcu_busy_cycles: u64,
    /// PMU-cycles with at least one port active.
    pub pmu_busy_cycles: u64,
    /// AG-cycles spent issuing.
    pub ag_busy_cycles: u64,
}

/// Error while simulating.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The functional interpreter failed.
    Run(plasticine_ppir::RunError),
    /// The schedule made no progress for too long; the report names the
    /// blocked units, what each holds and awaits, and the wait-for cycle.
    Deadlock(Box<DeadlockReport>),
    /// A dropped DRAM response exhausted its retry budget — the fault rate
    /// exceeds what bounded retry-with-backoff can recover from.
    FaultExhaustion {
        /// Cycle at which recovery gave up.
        cycle: u64,
        /// Byte address of the unrecoverable request.
        addr: u64,
        /// Retries attempted before giving up.
        attempts: u32,
    },
    /// The simulation ran to the configured cycle budget without finishing.
    /// Unlike [`SimError::Deadlock`] this carries no claim that the schedule
    /// is stuck — it may simply be slower than the budget allows.
    CycleBudgetExceeded {
        /// Cycle at which the budget check fired.
        cycle: u64,
        /// The configured `max_cycles` budget.
        budget: u64,
    },
    /// The fault/DRAM configuration is unusable (e.g. every channel offline).
    Config(String),
    /// A checkpoint could not be decoded or does not match the run it was
    /// asked to resume (wrong program/bitstream/options, corrupt file).
    Checkpoint(crate::checkpoint::CheckpointError),
    /// An online fault arrival (or ECC-threshold escalation) hit a resource
    /// this run is actually using. The report carries an auto-checkpoint
    /// taken at the degrade boundary and the updated live fault map, so a
    /// healing layer can relocate or recompile the run and resume it.
    FabricDegraded(Box<crate::kernel::DegradedReport>),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Run(e) => write!(f, "functional execution failed: {e}"),
            SimError::Deadlock(report) => write!(f, "{report}"),
            SimError::FaultExhaustion {
                cycle,
                addr,
                attempts,
            } => write!(
                f,
                "fault exhaustion at cycle {cycle}: DRAM request at {addr:#x} \
                 still dropped after {attempts} retries"
            ),
            SimError::CycleBudgetExceeded { cycle, budget } => write!(
                f,
                "cycle budget exceeded: simulation reached cycle {cycle} without \
                 finishing (max_cycles = {budget}); the schedule is making progress \
                 but needs a larger budget"
            ),
            SimError::Config(msg) => write!(f, "bad simulation configuration: {msg}"),
            SimError::Checkpoint(e) => write!(f, "{e}"),
            SimError::FabricDegraded(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<plasticine_ppir::RunError> for SimError {
    fn from(e: plasticine_ppir::RunError) -> SimError {
        SimError::Run(e)
    }
}

/// Transient-fault detection and recovery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Scratchpad read words whose single-bit flip was corrected in line by
    /// ECC (no timing cost).
    pub ecc_corrected: u64,
    /// Scratchpad read beats replayed after a parity-detected
    /// (ECC-uncorrectable) flip.
    pub parity_replays: u64,
    /// Vector issues replayed after a lane bit flip caught by the residue
    /// check.
    pub lane_replays: u64,
    /// Unit-cycles spent re-doing work for any recovery reason (the sum of
    /// the per-unit `recovery` overlays).
    pub recovery_cycles: u64,
    /// DRAM responses dropped in flight.
    pub dram_dropped: u64,
    /// DRAM requests re-issued after a drop.
    pub dram_retries: u64,
    /// Cycles spent waiting out retry backoff, summed over retries.
    pub dram_retry_wait_cycles: u64,
    /// Unit-cycles spent inside a healing (detection/quiesce) window — an
    /// impacting fault arrival was observed and the run is riding out the
    /// detect delay before its degraded exit (the sum of the per-unit
    /// `healing` overlays).
    pub healing_cycles: u64,
}

impl FaultStats {
    /// Whether any fault was injected or recovered from.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

/// Bits of elem-request ids reserved for the per-job sequence number.
const ELEM_SEQ_BITS: u64 = 24;

/// A DRAM request awaiting re-issue after its response was dropped.
#[derive(Debug, Clone, Copy)]
struct PendingRetry {
    due: u64,
    req: MemRequest,
}

/// Shared simulation resources, reset per cycle where appropriate.
#[derive(Debug)]
pub struct Resources {
    /// Current cycle.
    pub now: u64,
    slots: HashMap<CtrlId, usize>,
    /// Dense port index per scratchpad unit, indexed by raw unit id
    /// (`usize::MAX` = no modelled ports, always satisfies an acquire).
    port_idx: Vec<usize>,
    /// Port capacity per dense index (the refresh source).
    port_caps: Vec<usize>,
    /// Remaining read/write tokens this cycle, refreshed from `port_caps`
    /// at the top of every [`begin_cycle`](Self::begin_cycle).
    read_tokens: Vec<usize>,
    write_tokens: Vec<usize>,
    /// The DRAM timing model.
    pub dram: DramSystem,
    cus: Vec<CoalescingUnit>,
    line_done: HashMap<u64, u64>,
    elem_done: HashMap<u64, u64>,
    req_job: HashMap<u64, u64>,
    req_elem: HashMap<u64, u64>,
    next_dense: u64,
    next_elem_seq: HashMap<u64, u64>,
    coalescing: bool,
    /// Accumulated activity.
    pub activity: Activity,
    /// Dense slot index per tracked unit, indexed by raw unit id
    /// (`usize::MAX` = untracked), for stall attribution.
    unit_slot: Vec<usize>,
    /// Highest-priority class noted for each tracked unit this cycle.
    pending_class: Vec<u8>,
    /// Committed per-unit cycle breakdowns.
    unit_cycles: Vec<UnitCycles>,
    /// Structured event recorder; `None` keeps tracing zero-cost.
    pub(crate) tracer: Option<Tracer>,
    /// Transient-fault injection stream; `None` when all rates are zero, so
    /// the fault-free path takes no RNG draws and stays bit-identical.
    rng: Option<FaultRng>,
    /// Transient-fault rates and retry parameters.
    transients: TransientFaults,
    /// Recovery accounting.
    pub(crate) fault_stats: FaultStats,
    /// While an impacting fault arrival rides out its detect window, every
    /// committed or skipped cycle also accrues the `healing` overlay.
    healing_active: bool,
    /// ECC-threshold escalation policy (inactive by default).
    ecc_policy: EccPolicy,
    /// Physical site charged with a unit's correctable errors, indexed by
    /// raw unit id (`u32::MAX` = not a scratchpad unit). Site-keyed so a
    /// pending escalation survives relocation correctly: after a heal the
    /// logical unit sits on fresh silicon and the old site is no longer
    /// used, which is exactly how resume decides to drop the entry.
    ecc_site: Vec<u32>,
    /// Correctable-error cycles within the rolling window, per site.
    ecc_errs: BTreeMap<u32, Vec<u64>>,
    /// Sites whose correctable-error count crossed the threshold, not yet
    /// drained by the kernel (drained every committed cycle).
    ecc_escalated: Vec<u32>,
    /// Escalations awaiting their degraded exit: (site, escalation cycle).
    /// Serialized so a cadence checkpoint taken inside the detect window
    /// re-arms the pending degrade on resume.
    ecc_pending: Vec<(u32, u64)>,
    /// Drop-retry ledger: request id → attempts so far.
    drop_attempts: HashMap<u64, u32>,
    /// Requests waiting out their retry backoff.
    retry_queue: Vec<PendingRetry>,
    /// Set when a request exceeded its retry budget: (addr, attempts).
    fault_exhausted: Option<(u64, u32)>,
    /// Set whenever any unit acquired a resource, pushed a request, or a
    /// completion arrived this cycle; the run loop uses it to detect
    /// deadlock as sustained lack of progress.
    progress: bool,
    /// Superset of `progress`: also set when a slot was released, a
    /// controller started or retired, or any other state changed that could
    /// alter the *next* cycle's tick. A full iteration with `changed` false
    /// is quiescent — the event kernel may fast-forward from it.
    changed: bool,
    /// Set when a tree tick failed to push a DRAM/coalescer request on
    /// backpressure; cleared by [`pre_tick`](Self::pre_tick). While blocked,
    /// a freed queue slot (column issue) is a tree-observable event.
    push_blocked: bool,
    /// The per-unit class vector committed by the most recent
    /// [`commit_cycle`](Self::commit_cycle); a quiescent cycle re-derives
    /// exactly this vector, so skipped cycles replay it in bulk.
    last_class: Vec<u8>,
    /// begin_cycle effect flags, consulted by the event kernel.
    /// Whether the latest begin_cycle routed any completion to a job.
    begin_routed: bool,
    /// Whether the latest begin_cycle's DRAM tick issued a column command
    /// (i.e. freed a channel-queue slot).
    begin_cols: bool,
    /// Whether, after the latest begin_cycle's coalescer-issue pass, some
    /// coalescing unit still holds line requests blocked on queue capacity.
    cu_pending: bool,
    /// Requested event-kernel worker threads (1 = serial). Runtime-only
    /// configuration, like the thread pool below: never serialized, so
    /// snapshots are thread-count-independent by construction.
    threads: usize,
    /// Lazily built worker pool + shard plan; `None` until the first
    /// eligible fast-forward span.
    par: Option<crate::parallel::ParRuntime>,
    /// Set when the machine cannot be partitioned (single shard); stops
    /// further plan rebuild attempts.
    par_disabled: bool,
    /// Parallel-span work accounting (see [`SpanWork`]); diagnostic only,
    /// never serialized.
    pub(crate) span_work: crate::parallel::SpanWork,
}

/// Outcome of [`Resources::fast_forward`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FastForward {
    /// The current cycle needs a full iteration (tree wake or watchdog
    /// trigger); the run loop should `begin_cycle` as usual.
    NeedBegin,
    /// `begin_cycle` for the current cycle already ran and produced
    /// tree-observable events; the run loop must tick *without* beginning
    /// again.
    Begun,
}

impl Resources {
    /// Builds the resource pool for a model.
    pub fn new(model: &SimModel, params: &PlasticineParams, dram_cfg: DramConfig) -> Resources {
        let line_bytes = dram_cfg.line_bytes;
        let n_cus = params.coalescing_units.max(1);
        let cus = (0..n_cus)
            .map(|k| {
                CoalescingUnit::with_namespace(
                    params.coalesce_entries,
                    line_bytes,
                    (1 << 62) + (k as u64) * (1 << 56),
                )
            })
            .collect();
        let max_unit = model
            .tracked
            .iter()
            .map(|t| t.unit.0 as usize + 1)
            .chain(model.mem_ports.keys().map(|u| u.0 as usize + 1))
            .max()
            .unwrap_or(0);
        let mut unit_slot = vec![usize::MAX; max_unit];
        for (i, t) in model.tracked.iter().enumerate() {
            unit_slot[t.unit.0 as usize] = i;
        }
        let mut port_idx = vec![usize::MAX; max_unit];
        let mut port_caps = Vec::new();
        for (u, cap) in &model.mem_ports {
            port_idx[u.0 as usize] = port_caps.len();
            port_caps.push(*cap);
        }
        let read_tokens = port_caps.clone();
        let write_tokens = port_caps.clone();
        Resources {
            now: 0,
            slots: model.ctrl_slots.clone(),
            port_idx,
            port_caps,
            read_tokens,
            write_tokens,
            dram: DramSystem::new(dram_cfg),
            cus,
            line_done: HashMap::new(),
            elem_done: HashMap::new(),
            req_job: HashMap::new(),
            req_elem: HashMap::new(),
            next_dense: 0,
            next_elem_seq: HashMap::new(),
            coalescing: true,
            activity: Activity::default(),
            unit_slot,
            pending_class: vec![CLASS_IDLE; model.tracked.len()],
            unit_cycles: vec![UnitCycles::default(); model.tracked.len()],
            tracer: None,
            rng: None,
            transients: TransientFaults::default(),
            fault_stats: FaultStats::default(),
            healing_active: false,
            ecc_policy: EccPolicy::default(),
            ecc_site: Vec::new(),
            ecc_errs: BTreeMap::new(),
            ecc_escalated: Vec::new(),
            ecc_pending: Vec::new(),
            drop_attempts: HashMap::new(),
            retry_queue: Vec::new(),
            fault_exhausted: None,
            progress: false,
            changed: false,
            push_blocked: false,
            last_class: vec![CLASS_IDLE; model.tracked.len()],
            begin_routed: false,
            begin_cols: false,
            cu_pending: false,
            threads: 1,
            par: None,
            par_disabled: false,
            span_work: crate::parallel::SpanWork::default(),
        }
    }

    /// Sets the event-kernel worker-thread count (1 = serial). Results are
    /// byte-identical at any value; extra threads only change wall-clock
    /// time. Ignored in cycle stepping and while tracing (the tracer records
    /// per-cycle spans the parallel driver does not replicate, so traced
    /// runs stay on the serial path).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Arms transient-fault injection. With all rates zero this is a no-op
    /// and the simulation stays bit-identical to a fault-free run.
    pub fn set_transients(&mut self, t: &TransientFaults) {
        self.transients = t.clone();
        self.rng = if t.any() {
            Some(FaultRng::new(t.seed))
        } else {
            None
        };
    }

    /// Raises the transient-fault rates in place (each rate is max'ed with
    /// the current one, so escalation is monotone). The RNG stream is left
    /// untouched when already armed; when injection was off it is armed
    /// fresh from `seed` — both paths are replayed identically at resume, so
    /// determinism is preserved.
    pub fn escalate_transients(&mut self, lane: f64, sram: f64, drop: f64, seed: u64) {
        self.transients.lane_flip = self.transients.lane_flip.max(lane);
        self.transients.sram_flip = self.transients.sram_flip.max(sram);
        self.transients.dram_drop = self.transients.dram_drop.max(drop);
        if self.rng.is_none() && self.transients.any() {
            self.rng = Some(FaultRng::new(seed));
        }
    }

    /// Arms ECC-threshold escalation: `policy.threshold` correctable errors
    /// charged to one site within `policy.window` cycles escalate to
    /// permanent unit death. `site_of_unit` maps raw unit ids to the
    /// physical site charged (`u32::MAX` = untracked).
    pub fn set_ecc_policy(&mut self, policy: EccPolicy, site_of_unit: Vec<u32>) {
        self.ecc_policy = policy;
        self.ecc_site = site_of_unit;
    }

    /// Turns the healing overlay on or off (kernel-driven: on while a
    /// degrade deadline is pending, off otherwise).
    pub(crate) fn set_healing(&mut self, on: bool) {
        self.healing_active = on;
    }

    /// Sites whose correctable-error count crossed the ECC threshold since
    /// the last drain.
    pub(crate) fn take_ecc_escalations(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.ecc_escalated)
    }

    /// Escalations awaiting their degraded exit: (site, cycle).
    pub(crate) fn ecc_pending(&self) -> &[(u32, u64)] {
        &self.ecc_pending
    }

    /// Replaces the pending-escalation ledger (resume filters entries that
    /// no longer concern the resumed configuration).
    pub(crate) fn set_ecc_pending(&mut self, pending: Vec<(u32, u64)>) {
        self.ecc_pending = pending;
    }

    /// Takes and clears the progress flag (set when any resource was
    /// granted, any request pushed, or any completion arrived).
    pub(crate) fn take_progress(&mut self) -> bool {
        std::mem::take(&mut self.progress)
    }

    /// Takes and clears the changed flag (superset of progress; see the
    /// field doc). False after a full iteration means the iteration was
    /// quiescent: replaying it verbatim would change nothing.
    pub(crate) fn take_changed(&mut self) -> bool {
        std::mem::take(&mut self.changed)
    }

    /// Marks the current iteration as state-changing (see `changed`).
    pub(crate) fn mark_changed(&mut self) {
        self.changed = true;
    }

    /// Resets per-tick flags; call immediately before each tree tick.
    pub(crate) fn pre_tick(&mut self) {
        self.push_blocked = false;
    }

    /// A request that exceeded its retry budget, if any: `(addr, attempts)`.
    pub(crate) fn take_fault_exhaustion(&mut self) -> Option<(u64, u32)> {
        self.fault_exhausted.take()
    }

    /// Recovery accounting so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Stall-attribution slot for a unit, if tracked.
    #[inline]
    fn slot_of(&self, unit: UnitId) -> Option<usize> {
        match self.unit_slot.get(unit.0 as usize) {
            Some(&s) if s != usize::MAX => Some(s),
            _ => None,
        }
    }

    /// Dense port index for a unit, if it has modelled ports.
    #[inline]
    fn port_of(&self, unit: UnitId) -> Option<usize> {
        match self.port_idx.get(unit.0 as usize) {
            Some(&p) if p != usize::MAX => Some(p),
            _ => None,
        }
    }

    /// Charges one recovery cycle to a unit (overlay on the four-way
    /// classification) and to the global recovery account.
    pub(crate) fn note_recovery(&mut self, unit: UnitId) {
        if let Some(s) = self.slot_of(unit) {
            self.unit_cycles[s].recovery += 1;
        }
        self.fault_stats.recovery_cycles += 1;
    }

    /// Rolls the transient-fault dice for one vector issue beat that reads
    /// from `reads`. Returns true when the beat must be replayed (lane flip
    /// caught by the residue check, or an ECC-uncorrectable scratchpad
    /// flip caught by parity). Single-bit scratchpad flips are corrected in
    /// line and only counted.
    pub(crate) fn roll_issue_replay(&mut self, reads: &[UnitId]) -> bool {
        let Some(rng) = self.rng.as_mut() else {
            return false;
        };
        let mut replay = false;
        if self.transients.lane_flip > 0.0 && rng.chance(self.transients.lane_flip) {
            self.fault_stats.lane_replays += 1;
            replay = true;
        }
        if self.transients.sram_flip > 0.0 {
            for u in reads {
                if rng.chance(self.transients.sram_flip) {
                    // ~90% of flips are single-bit: ECC corrects them with
                    // no timing cost. The remainder only parity-detects and
                    // forces a beat replay.
                    if rng.below(10) == 0 {
                        self.fault_stats.parity_replays += 1;
                        replay = true;
                    } else {
                        self.fault_stats.ecc_corrected += 1;
                        let site = self.ecc_site.get(u.0 as usize).copied().unwrap_or(u32::MAX);
                        if self.ecc_policy.active() && site != u32::MAX {
                            // ECC-threshold escalation: too many corrected
                            // errors on one scratchpad within the window is
                            // read as incipient permanent failure. The
                            // window clears on escalation so a healed
                            // resume starts the (relocated) unit fresh.
                            let at = self.now;
                            let w = self.ecc_policy.window;
                            let errs = self.ecc_errs.entry(site).or_default();
                            errs.push(at);
                            errs.retain(|&c| c + w > at);
                            if errs.len() as u64 >= self.ecc_policy.threshold as u64 {
                                errs.clear();
                                self.ecc_escalated.push(site);
                                self.ecc_pending.push((site, at));
                            }
                        }
                    }
                }
            }
        }
        replay
    }

    /// Turns on structured event recording.
    pub(crate) fn enable_tracing(&mut self) {
        self.tracer = Some(Tracer::default());
    }

    /// Finishes and takes the event trace, if recording was on.
    pub(crate) fn take_trace(&mut self) -> Option<SimTrace> {
        let now = self.now;
        self.tracer.take().map(|t| t.finish(now))
    }

    /// Notes a cycle-class observation for a unit; the highest-priority
    /// class noted during a cycle wins at [`commit_cycle`](Self::commit_cycle).
    pub(crate) fn note(&mut self, unit: UnitId, class: u8) {
        if let Some(s) = self.slot_of(unit) {
            let p = &mut self.pending_class[s];
            *p = (*p).max(class);
        }
    }

    /// Ends the cycle's attribution: every tracked unit gets exactly one
    /// class (defaulting to idle), so per unit the four counters always sum
    /// to the number of committed cycles.
    pub(crate) fn commit_cycle(&mut self) {
        let heal = self.healing_active;
        for ((p, c), l) in self
            .pending_class
            .iter_mut()
            .zip(&mut self.unit_cycles)
            .zip(&mut self.last_class)
        {
            c.bump(*p);
            if heal {
                c.healing += 1;
            }
            *l = *p;
            *p = CLASS_IDLE;
        }
        if heal {
            self.fault_stats.healing_cycles += self.unit_cycles.len() as u64;
        }
    }

    /// Bulk variant of [`commit_cycle`](Self::commit_cycle) for cycles the
    /// event kernel skipped: a skipped cycle is by construction a verbatim
    /// replay of the last committed one, so each unit repeats its last
    /// class. Keeps the per-unit invariant busy+ctrl+mem+idle == total
    /// cycles exact.
    pub(crate) fn commit_skipped(&mut self, k: u64) {
        let heal = self.healing_active;
        for (l, c) in self.last_class.iter().zip(&mut self.unit_cycles) {
            c.bump_by(*l, k);
            if heal {
                c.healing += k;
            }
        }
        if heal {
            self.fault_stats.healing_cycles += self.unit_cycles.len() as u64 * k;
        }
    }

    /// Advances the clock by `k` cycles without simulating them (all state
    /// is provably static over the span): extends open trace spans, moves
    /// the DRAM clock, and commits the repeated attribution vector.
    pub(crate) fn skip_cycles(&mut self, k: u64) {
        if let Some(t) = self.tracer.as_mut() {
            // Open spans of a quiescent cycle end at the tick-time clock,
            // which is one past the begin-time clock `now`.
            t.extend_open(self.now + 1, k);
        }
        self.now += k;
        self.dram.skip(k);
        self.commit_skipped(k);
    }

    /// Assembles the attribution result using the model's unit identities.
    pub(crate) fn unit_stats(&self, model: &SimModel) -> UnitStats {
        UnitStats {
            total_cycles: self.now,
            units: model
                .tracked
                .iter()
                .zip(&self.unit_cycles)
                .map(|(t, c)| UnitStat {
                    unit: t.unit,
                    kind: t.kind,
                    label: t.label.clone(),
                    cycles: *c,
                })
                .collect(),
        }
    }

    /// Enables or disables coalescing of sparse element requests.
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalescing = on;
    }

    /// Starts a cycle: refreshes port tokens, advances DRAM, injects
    /// response drops, re-issues retries whose backoff expired, and
    /// distributes completions to their jobs.
    pub fn begin_cycle(&mut self) {
        self.read_tokens.copy_from_slice(&self.port_caps);
        self.write_tokens.copy_from_slice(&self.port_caps);
        for cu in &mut self.cus {
            cu.issue(&mut self.dram);
        }
        self.cu_pending = self.cus.iter().any(|cu| cu.has_pending_issues());
        let cols_before = self.dram.issued_columns();
        let mut completions = self.dram.tick();
        self.begin_cols = self.dram.issued_columns() != cols_before;
        // Transient injection: each response may be dropped in flight. A
        // dropped response's request is re-issued after an exponential
        // backoff, up to the retry budget.
        if self.transients.dram_drop > 0.0 {
            let p = self.transients.dram_drop;
            let max_retries = self.transients.max_retries;
            let base = self.transients.retry_base.max(1);
            let now = self.now;
            let mut kept = Vec::with_capacity(completions.len());
            for c in completions.drain(..) {
                let dropped = self.rng.as_mut().is_some_and(|r| r.chance(p));
                if !dropped {
                    self.drop_attempts.remove(&c.id);
                    kept.push(c);
                    continue;
                }
                self.fault_stats.dram_dropped += 1;
                let attempts = self.drop_attempts.entry(c.id).or_insert(0);
                *attempts += 1;
                if *attempts > max_retries {
                    self.fault_exhausted.get_or_insert((c.addr, *attempts - 1));
                    continue;
                }
                // Exponential backoff plus deterministic jitter drawn from
                // the seeded injection stream: many workers replaying drops
                // from the same cycle would otherwise re-issue in lockstep
                // and stampede the channel. Drawing the jitter from the
                // checkpointed `FaultRng` keeps faulty runs bit-reproducible
                // (and resumable) — same seed, same jitter.
                let backoff = base << (*attempts as u64 - 1).min(32);
                let jitter = self.rng.as_mut().map_or(0, |r| r.below(base / 2 + 1));
                let backoff = backoff + jitter;
                self.fault_stats.dram_retry_wait_cycles += backoff;
                self.retry_queue.push(PendingRetry {
                    due: now + backoff,
                    req: MemRequest {
                        id: c.id,
                        addr: c.addr,
                        is_write: c.is_write,
                    },
                });
            }
            completions = kept;
        }
        // Re-issue retries whose backoff has expired (capacity permitting;
        // a full queue just delays the retry another cycle).
        if !self.retry_queue.is_empty() {
            let now = self.now;
            let mut i = 0;
            while i < self.retry_queue.len() {
                let r = &self.retry_queue[i];
                if r.due <= now && self.dram.can_accept(r.req.addr) {
                    let r = self.retry_queue.swap_remove(i);
                    if self.dram.push(r.req).is_ok() {
                        self.fault_stats.dram_retries += 1;
                        self.progress = true;
                        self.changed = true;
                    } else {
                        self.retry_queue.push(r);
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        }
        if !completions.is_empty() {
            self.progress = true;
            self.changed = true;
        }
        self.begin_routed = !completions.is_empty();
        // Route dense completions to jobs.
        for c in &completions {
            if let Some(job) = self.req_job.remove(&c.id) {
                *self.line_done.entry(job).or_insert(0) += 1;
                if let Some(t) = self.tracer.as_mut() {
                    t.dram_done(c.id, c.at);
                }
            } else if let Some(job) = self.req_elem.remove(&c.id) {
                *self.elem_done.entry(job).or_insert(0) += 1;
                if let Some(t) = self.tracer.as_mut() {
                    t.dram_done(c.id, c.at);
                }
            }
        }
        // Route coalesced element completions to jobs.
        let now = self.now;
        for cu in &mut self.cus {
            for e in cu.absorb(&completions) {
                let job = e.id >> ELEM_SEQ_BITS;
                *self.elem_done.entry(job).or_insert(0) += 1;
                if let Some(t) = self.tracer.as_mut() {
                    t.dram_done(e.id, now);
                }
            }
        }
        self.now += 1;
    }

    /// Earliest cycle at which a backed-off retry becomes due. `now` itself
    /// counts: at the fast-forward loop top, cycle `now` has not begun yet,
    /// so a retry due exactly then still needs its begin. Retries whose due
    /// cycle has already begun are capacity-blocked, and capacity frees
    /// exactly at a column-issue event, which the DRAM model already
    /// reports (the retry pass runs after the DRAM tick in
    /// [`begin_cycle`](Self::begin_cycle), so it sees the freed slot the
    /// same cycle).
    fn retry_next_due(&self) -> u64 {
        self.retry_queue
            .iter()
            .filter(|r| r.due >= self.now)
            .map(|r| r.due)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Fast-forwards from a quiescent iteration to the next cycle where
    /// anything can happen. Callable only right after a full iteration whose
    /// `changed` flag came back false (so replaying the tree tick verbatim
    /// is provably a no-op) and whose watchdog checks passed.
    ///
    /// Event sources, all in the begin-time clock domain (a candidate `m`
    /// means: process cycle `m`, i.e. run its begin with `now == m`):
    ///
    /// - the tree's own wake (`tree_wake`, tick-time domain): the earliest
    ///   pipeline-drain completion; cycle `tree_wake - 1` must run as a full
    ///   iteration so the leaf retires when the tick sees `now == tree_wake`;
    /// - the watchdog trigger: the cycle whose post-commit clock would trip
    ///   the stall watchdog or the cycle budget must also run as a full
    ///   iteration so both step modes fail at the identical cycle;
    /// - the DRAM timing model's next event (command issue, refresh edge,
    ///   or response arrival);
    /// - the earliest not-yet-due fault-retry backoff expiry.
    ///
    /// DRAM-only events run just the cycle's begin here ("begin core"). If
    /// that begin routed a completion, tripped fault exhaustion, or freed
    /// queue capacity a blocked pusher is waiting for, the cycle is
    /// tree-observable: return [`FastForward::Begun`] and let the run loop
    /// tick it for real. Otherwise the tree tick would have been a verbatim
    /// no-op — commit the repeated attribution vector and keep going.
    ///
    /// One ordering subtlety forces an extra event: coalescing units issue
    /// *before* the DRAM tick, so queue capacity freed by a column command
    /// at cycle `m` is visible to a blocked unit only at cycle `m + 1` —
    /// when a begin issues a column while some unit still has pending line
    /// requests, the next cycle must also be processed.
    pub(crate) fn fast_forward(
        &mut self,
        tree_wake: u64,
        stall_limit: u64,
        max_cycles: u64,
        hard_stop: u64,
        last_progress: &mut u64,
    ) -> FastForward {
        loop {
            // First cycle whose post-commit clock (now + 1) would fire a
            // run-loop check; it must be a full iteration.
            let trigger = last_progress
                .saturating_add(stall_limit)
                .saturating_add(1)
                .min(max_cycles);
            let tree_ev = tree_wake.saturating_sub(1);
            let trig_ev = trigger.saturating_sub(1);
            let forced = self.begin_cols && self.cu_pending;
            if !forced {
                // `hard_stop` bounds the span at the next fault-timeline
                // arrival or degrade deadline: the run loop must observe
                // that exact cycle boundary, so the skip never crosses it.
                let cap = tree_ev.min(trig_ev).min(hard_stop);
                if let Some(ff) = self.parallel_span(cap) {
                    return ff;
                }
                let m = cap.min(self.dram.next_event()).min(self.retry_next_due());
                debug_assert!(m >= self.now, "event {m} in the past (now {})", self.now);
                if m > self.now {
                    self.skip_cycles(m - self.now);
                }
            }
            if self.now == tree_ev || self.now == trig_ev || self.now == hard_stop {
                return FastForward::NeedBegin;
            }
            self.begin_cycle();
            let observable = self.begin_routed
                || self.fault_exhausted.is_some()
                || (self.push_blocked && self.begin_cols);
            if observable {
                return FastForward::Begun;
            }
            // Quiet DRAM-only cycle: the tick would have re-noted the same
            // blocked state; extend spans and commit the repeated vector.
            if let Some(t) = self.tracer.as_mut() {
                t.extend_open(self.now, 1);
            }
            self.commit_skipped(1);
            // A retry push inside the begin sets progress; mirror the run
            // loop's post-commit bookkeeping so the watchdog clock matches.
            if self.take_progress() {
                *last_progress = self.now;
            }
        }
    }

    /// Attempts to process the span `[now, horizon)` on the worker pool
    /// instead of the serial fast-forward loop. Returns `None` (state
    /// untouched) when parallel execution is off or not worthwhile; else
    /// the span has been fully processed and the result mirrors what the
    /// serial loop would have returned, byte for byte.
    ///
    /// Within a span no completion is ever routed — any completion ends the
    /// span as tree-observable — so simulator mutation decomposes into
    /// independent per-shard event chains (see `crate::parallel` and
    /// DESIGN.md §12). Workers speculatively run each chain to its first
    /// observable cycle; the coordinator takes the minimum `R`, replays any
    /// shard that sped past it from a pristine clone, merges completions at
    /// `R` by ascending global channel index (the canonical serial order),
    /// and reproduces the serial flag state exactly.
    ///
    /// Gated off whenever span-local effects could couple shards: tracing
    /// (per-cycle span extension), pending or possible DRAM-drop retries
    /// (global RNG draws + cross-channel re-push), or a forced entry.
    fn parallel_span(&mut self, horizon: u64) -> Option<FastForward> {
        use crate::parallel::{ParRuntime, ShardPlan, ShardTask, WorkerPool};
        /// Spans shorter than this cannot amortize dispatch + clone costs.
        const MIN_SPAN: u64 = 32;
        if self.threads < 2
            || self.par_disabled
            || self.tracer.is_some()
            || !self.retry_queue.is_empty()
            || self.transients.dram_drop > 0.0
            || horizon.saturating_sub(self.now) < MIN_SPAN
        {
            return None;
        }
        let channels = self.dram.config().channels;
        let serving: Vec<usize> = (0..channels)
            .map(|c| self.dram.serving_channel(c))
            .collect();
        let rebuild = match &self.par {
            Some(rt) => rt.plan.serving != serving,
            None => true,
        };
        if rebuild {
            let plan = ShardPlan::build(channels, self.cus.len(), serving);
            if plan.groups.len() < 2 {
                self.par_disabled = true;
                return None;
            }
            // The span coordinator runs one lane of chains itself, so it
            // counts toward the thread budget: N threads = N-1 workers + 1
            // caller lane, capped so no lane would sit idle.
            let workers = (self.threads - 1).min(plan.groups.len() - 1).max(1);
            self.par = Some(ParRuntime {
                pool: WorkerPool::new(workers),
                plan,
            });
        }
        let mut rt = self.par.take().expect("runtime built above");
        // Cheap pre-check: parallelism only pays when at least two shards
        // have events inside the span. (A shard with pending coalescer lines
        // but no channel event is inert too: pending implies full queues,
        // and capacity frees only at the shard's own column events.)
        let active = rt
            .plan
            .groups
            .iter()
            .filter(|g| g.iter().any(|&c| self.dram.channel_next_event(c) < horizon))
            .count();
        if active < 2 {
            self.par = Some(rt);
            return None;
        }

        let n0 = self.now;
        let stop_on_cols = self.push_blocked;
        // Detach shard state. Workers get clones; the originals stay behind
        // as pristine copies for the truncation replay.
        let shards = self.dram.detach_shards(&rt.plan.groups);
        let mut cu_slots: Vec<Option<CoalescingUnit>> = std::mem::take(&mut self.cus)
            .into_iter()
            .map(Some)
            .collect();
        let n_shards = shards.len();
        // Cross-shard work limiter: chains publish candidate cycles here and
        // stop once their next event is past the published minimum, keeping
        // overshoot (and thus round-two replays) small.
        let race = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(u64::MAX));
        let mut pristine = Vec::with_capacity(n_shards);
        let mut tasks = Vec::with_capacity(n_shards);
        for (i, shard) in shards.into_iter().enumerate() {
            let cus: Vec<CoalescingUnit> = rt.plan.cu_of_shard[i]
                .iter()
                .map(|&k| cu_slots[k].take().expect("unit assigned once"))
                .collect();
            tasks.push((
                i,
                ShardTask {
                    shard: shard.clone(),
                    cus: cus.clone(),
                    start: n0,
                    horizon,
                    stop_on_cols,
                    cap: None,
                    race: Some(std::sync::Arc::clone(&race)),
                },
            ));
            pristine.push(Some((shard, cus)));
        }
        // Round one: every chain speculates to its first observable cycle
        // (or the horizon). Results are indexed by slot, so worker
        // scheduling cannot influence anything downstream.
        let mut outs: Vec<Option<crate::parallel::ChainOut>> =
            (0..n_shards).map(|_| None).collect();
        for (slot, out) in rt.pool.run(tasks) {
            outs[slot] = Some(out);
        }
        let r_cycle = outs
            .iter()
            .map(|o| o.as_ref().expect("every slot filled"))
            .filter_map(|o| o.candidate.as_ref().map(|c| c.at))
            .min();
        // Round two: truncate chains that sped past R. A capped replay of
        // the pristine copy reproduces the ≤R prefix exactly (chains are
        // deterministic); it can't find a new observable below R — round
        // one already proved none exists there.
        if let Some(r) = r_cycle {
            let replays: Vec<(usize, ShardTask)> = (0..n_shards)
                .filter(|&i| {
                    outs[i]
                        .as_ref()
                        .expect("filled")
                        .processed
                        .iter()
                        .any(|&(e, _)| e > r)
                })
                .map(|i| {
                    let (shard, cus) = pristine[i].take().expect("not yet replayed");
                    (
                        i,
                        ShardTask {
                            shard,
                            cus,
                            start: n0,
                            horizon,
                            stop_on_cols,
                            cap: Some(r),
                            race: None,
                        },
                    )
                })
                .collect();
            if !replays.is_empty() {
                for (slot, out) in rt.pool.run(replays) {
                    outs[slot] = Some(out);
                }
            }
        }
        // Span-work accounting: the post-replay chains hold exactly the
        // events the serial kernel would have processed in this span, and
        // the lane assignment (task index mod lanes, matching the pool's
        // round-robin) gives the critical path — the load-balance bound on
        // multi-core wall-clock speedup, reported by the simkernel bench.
        {
            let lanes = rt.pool.lanes();
            let mut lane_events = vec![0u64; lanes];
            for (i, o) in outs.iter().enumerate() {
                lane_events[i % lanes] +=
                    o.as_ref().expect("every slot filled").processed.len() as u64;
            }
            self.span_work.total_events += lane_events.iter().sum::<u64>();
            self.span_work.critical_path_events += lane_events.iter().max().copied().unwrap_or(0);
        }
        // The serial loop's last begin in a no-observable span is at the
        // maximum processed cycle across shards; capture its column flag
        // before the merge loop consumes the chain outputs.
        let (e_max, cols_at_emax) = {
            let chains = || outs.iter().map(|o| o.as_ref().expect("every slot filled"));
            let em = chains()
                .filter_map(|o| o.processed.last().map(|&(e, _)| e))
                .max();
            let cols = em.is_some_and(|em| {
                chains().any(|o| o.processed.iter().any(|&(e, cols)| e == em && cols))
            });
            (em, cols)
        };
        // Merge: reattach evolved state and reproduce the serial flags.
        let mut merged: Vec<(usize, Vec<plasticine_dram::Completion>)> = Vec::new();
        let mut cols_at_r = false;
        let mut cu_pending = false;
        let mut all_shards = Vec::with_capacity(n_shards);
        for (i, o) in outs.into_iter().enumerate() {
            let mut o = o.expect("every slot filled");
            cu_pending |= o.pending_after;
            if let Some(c) = o.candidate.take() {
                debug_assert_eq!(Some(c.at), r_cycle, "non-minimal candidate survived replay");
                cols_at_r |= c.cols;
                merged.extend(c.completions);
            } else if let Some(r) = r_cycle {
                // A shard that reached R on its own chain without observables
                // still contributes its column issues to `begin_cols`.
                cols_at_r |= o.processed.iter().any(|&(e, cols)| e == r && cols);
            }
            for (&k, cu) in rt.plan.cu_of_shard[i].iter().zip(o.cus) {
                cu_slots[k] = Some(cu);
            }
            all_shards.push(o.shard);
        }
        self.dram.attach_shards(all_shards);
        self.cus = cu_slots
            .into_iter()
            .map(|s| s.expect("every unit returned"))
            .collect();
        self.par = Some(rt);

        match r_cycle {
            Some(r) => {
                // Mirror `begin_cycle` for cycle R: token refresh happened
                // conceptually at every processed cycle; only R's begin is
                // visible to the tree, so refresh once here.
                self.read_tokens.copy_from_slice(&self.port_caps);
                self.write_tokens.copy_from_slice(&self.port_caps);
                self.cu_pending = cu_pending;
                self.begin_cols = cols_at_r;
                merged.sort_by_key(|(ch, _)| *ch);
                let completions: Vec<plasticine_dram::Completion> =
                    merged.into_iter().flat_map(|(_, v)| v).collect();
                if !completions.is_empty() {
                    self.progress = true;
                    self.changed = true;
                }
                self.begin_routed = !completions.is_empty();
                for c in &completions {
                    if let Some(job) = self.req_job.remove(&c.id) {
                        *self.line_done.entry(job).or_insert(0) += 1;
                    } else if let Some(job) = self.req_elem.remove(&c.id) {
                        *self.elem_done.entry(job).or_insert(0) += 1;
                    }
                }
                for cu in &mut self.cus {
                    for e in cu.absorb(&completions) {
                        let job = e.id >> ELEM_SEQ_BITS;
                        *self.elem_done.entry(job).or_insert(0) += 1;
                    }
                }
                self.now = r + 1;
                self.dram.advance_to(r + 1);
                self.commit_skipped(r - n0);
                Some(FastForward::Begun)
            }
            None => {
                // No observable below the horizon: every chain ran dry.
                // Reproduce the flag state of the serial loop's last
                // unobservable begin (at e_max), then stop at the horizon
                // for the full iteration the caller owes.
                debug_assert!(e_max.is_some(), "two active shards processed no cycles");
                self.begin_routed = false;
                self.cu_pending = cu_pending;
                self.begin_cols = cols_at_emax;
                self.now = horizon;
                self.dram.advance_to(horizon);
                self.commit_skipped(horizon - n0);
                Some(FastForward::NeedBegin)
            }
        }
    }

    /// Tries to reserve an invocation slot for a controller.
    pub fn acquire_slot(&mut self, ctrl: CtrlId) -> bool {
        match self.slots.get_mut(&ctrl) {
            Some(n) if *n > 0 => {
                *n -= 1;
                self.progress = true;
                self.changed = true;
                true
            }
            Some(_) => false,
            None => {
                // Controllers without hardware (shouldn't happen); still a
                // state change — the caller transitions on success.
                self.changed = true;
                true
            }
        }
    }

    /// Invocation-slot occupancy for a controller: `(in_use, capacity)`.
    /// Capacity 0 with a missing entry means the controller has no hardware.
    pub(crate) fn slot_usage(&self, ctrl: CtrlId, model: &SimModel) -> (usize, usize) {
        let cap = model.ctrl_slots.get(&ctrl).copied().unwrap_or(0);
        let free = self.slots.get(&ctrl).copied().unwrap_or(cap);
        (cap - free, cap)
    }

    /// Releases an invocation slot.
    pub fn release_slot(&mut self, ctrl: CtrlId) {
        if let Some(n) = self.slots.get_mut(&ctrl) {
            *n += 1;
        }
        // Not `progress` (freeing a slot does not advance work by itself),
        // but the freed slot can unblock a sibling next cycle.
        self.changed = true;
    }

    /// Tries to consume one read port per listed memory unit (duplicates
    /// demand multiple ports) and one write port per written unit, all or
    /// nothing.
    pub fn acquire_ports(&mut self, reads: &[UnitId], writes: &[UnitId]) -> bool {
        // The unit lists are tiny (the model dedups them), so demand counting
        // is a quadratic scan over the slice instead of a per-call hash map.
        // Units without a port index have no modelled ports and always
        // satisfy an acquire.
        let mut ok = true;
        for (i, u) in reads.iter().enumerate() {
            if reads[..i].contains(u) {
                continue; // demand counted at the first occurrence
            }
            if let Some(p) = self.port_of(*u) {
                let n = reads.iter().filter(|v| *v == u).count();
                if self.read_tokens[p] < n {
                    // Attribution: scratchpads that were demanded but could
                    // not serve are port-conflicted this cycle (mem-stall
                    // unless some other consumer made them busy).
                    ok = false;
                    self.note(*u, CLASS_MEM);
                }
            }
        }
        for (i, u) in writes.iter().enumerate() {
            if writes[..i].contains(u) {
                continue;
            }
            if let Some(p) = self.port_of(*u) {
                let n = writes.iter().filter(|v| *v == u).count();
                if self.write_tokens[p] < n {
                    ok = false;
                    self.note(*u, CLASS_MEM);
                }
            }
        }
        if !ok {
            return false;
        }
        for u in reads {
            if let Some(p) = self.port_of(*u) {
                self.read_tokens[p] -= 1;
            }
            self.note(*u, CLASS_BUSY);
        }
        for u in writes {
            if let Some(p) = self.port_of(*u) {
                self.write_tokens[p] -= 1;
            }
            self.note(*u, CLASS_BUSY);
        }
        if !reads.is_empty() || !writes.is_empty() {
            self.activity.pmu_busy_cycles += 1;
        }
        self.progress = true;
        self.changed = true;
        true
    }

    /// Pushes one dense line request for a job. Returns false on
    /// backpressure.
    pub fn push_dense(&mut self, job: u64, byte_addr: u64, is_write: bool) -> bool {
        if !self.dram.can_accept(byte_addr) {
            self.push_blocked = true;
            return false;
        }
        let id = self.next_dense;
        self.next_dense += 1;
        match self.dram.push(MemRequest {
            id,
            addr: byte_addr,
            is_write,
        }) {
            Ok(()) => {
                self.req_job.insert(id, job);
                self.progress = true;
                self.changed = true;
                if let Some(t) = self.tracer.as_mut() {
                    t.dram_issue(id, byte_addr, is_write, false, job, self.now);
                }
                true
            }
            Err(_) => {
                self.push_blocked = true;
                false
            }
        }
    }

    /// Pushes one sparse element request through the coalescing unit owning
    /// the element's channel. Returns false on backpressure.
    pub fn push_sparse(&mut self, job: u64, byte_addr: u64, is_write: bool) -> bool {
        if !self.coalescing {
            // Ablation: every element is its own DRAM burst.
            if !self.dram.can_accept(byte_addr) {
                self.push_blocked = true;
                return false;
            }
            let id = self.next_dense;
            match self.dram.push(MemRequest {
                id,
                addr: byte_addr & !63,
                is_write,
            }) {
                Ok(()) => {
                    self.next_dense += 1;
                    // Report it back through the element channel.
                    self.req_elem.insert(id, job);
                    self.progress = true;
                    self.changed = true;
                    if let Some(t) = self.tracer.as_mut() {
                        t.dram_issue(id, byte_addr & !63, is_write, true, job, self.now);
                    }
                    true
                }
                Err(_) => {
                    self.push_blocked = true;
                    false
                }
            }
        } else {
            let chan = self.dram.config().map(byte_addr).channel;
            let n_cus = self.cus.len();
            let cu = &mut self.cus[chan % n_cus];
            let seq = self.next_elem_seq.entry(job).or_insert(0);
            let id = (job << ELEM_SEQ_BITS) | (*seq & ((1 << ELEM_SEQ_BITS) - 1));
            if cu.try_push(ElemRequest {
                id,
                byte_addr,
                is_write,
            }) {
                *seq += 1;
                self.progress = true;
                self.changed = true;
                if let Some(t) = self.tracer.as_mut() {
                    t.dram_issue(id, byte_addr, is_write, true, job, self.now);
                }
                true
            } else {
                self.push_blocked = true;
                false
            }
        }
    }

    /// Takes the number of dense-line completions accumulated for a job.
    pub fn take_lines(&mut self, job: u64) -> u64 {
        if self.line_done.is_empty() {
            return 0; // common case in compute phases: skip the hash
        }
        self.line_done.remove(&job).unwrap_or(0)
    }

    /// Takes the number of element completions accumulated for a job.
    pub fn take_elems(&mut self, job: u64) -> u64 {
        if self.elem_done.is_empty() {
            return 0;
        }
        self.elem_done.remove(&job).unwrap_or(0)
    }

    /// Aggregate DRAM statistics.
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// Aggregate coalescing statistics (summed over units).
    pub fn coalesce_stats(&self) -> plasticine_dram::CoalesceStats {
        let mut s = plasticine_dram::CoalesceStats::default();
        for cu in &self.cus {
            s.elem_requests += cu.stats.elem_requests;
            s.line_requests += cu.stats.line_requests;
            s.merged += cu.stats.merged;
        }
        s
    }

    // ---- checkpointing ----

    /// Serializes all mutable resource state at a cycle boundary (the top
    /// of the run loop, after `commit_cycle` and the progress/fault takes).
    ///
    /// Derived state is *not* included: port tokens/capacities and the
    /// dense unit/port indices are rebuilt from the model, `pending_class`
    /// is all-idle at a boundary (asserted), and `fault_exhausted` has
    /// been taken. Hash maps are emitted sorted by key so the snapshot
    /// bytes are canonical; `retry_queue` order is preserved verbatim
    /// (retry re-issue order is behaviorally significant).
    pub(crate) fn snapshot(&self) -> Json {
        debug_assert!(
            self.pending_class.iter().all(|&c| c == CLASS_IDLE),
            "snapshot off a cycle boundary: pending classes not committed"
        );
        debug_assert!(
            self.fault_exhausted.is_none(),
            "snapshot with an untaken fault-exhaustion event"
        );
        let hexmap = |m: &HashMap<u64, u64>| {
            let mut kv: Vec<_> = m.iter().map(|(&k, &v)| (k, v)).collect();
            kv.sort_unstable();
            Json::Arr(
                kv.into_iter()
                    .map(|(k, v)| Json::Arr(vec![Json::hex(k), Json::hex(v)]))
                    .collect(),
            )
        };
        let mut slots: Vec<_> = self.slots.iter().map(|(&c, &n)| (c, n)).collect();
        slots.sort_unstable();
        let mut drops: Vec<_> = self.drop_attempts.iter().map(|(&k, &v)| (k, v)).collect();
        drops.sort_unstable();
        let a = &self.activity;
        let f = &self.fault_stats;
        Json::obj([
            ("now", Json::from(self.now)),
            (
                "slots",
                Json::Arr(
                    slots
                        .into_iter()
                        .map(|(c, n)| {
                            Json::Arr(vec![Json::from(u64::from(c.0)), Json::from(n as u64)])
                        })
                        .collect(),
                ),
            ),
            ("dram", self.dram.snapshot()),
            (
                "cus",
                Json::Arr(self.cus.iter().map(|cu| cu.snapshot()).collect()),
            ),
            ("line_done", hexmap(&self.line_done)),
            ("elem_done", hexmap(&self.elem_done)),
            ("req_job", hexmap(&self.req_job)),
            ("req_elem", hexmap(&self.req_elem)),
            ("next_dense", Json::from(self.next_dense)),
            ("next_elem_seq", hexmap(&self.next_elem_seq)),
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
                "unit_cycles",
                Json::Arr(
                    self.unit_cycles
                        .iter()
                        .map(|u| {
                            Json::obj([
                                ("busy", Json::from(u.busy)),
                                ("ctrl", Json::from(u.ctrl_stall)),
                                ("mem", Json::from(u.mem_stall)),
                                ("idle", Json::from(u.idle)),
                                ("rec", Json::from(u.recovery)),
                                ("heal", Json::from(u.healing)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "rng",
                self.rng
                    .as_ref()
                    .map(|r| Json::hex(r.state()))
                    .unwrap_or(Json::Null),
            ),
            (
                "fault_stats",
                Json::obj([
                    ("ecc_corrected", Json::from(f.ecc_corrected)),
                    ("parity_replays", Json::from(f.parity_replays)),
                    ("lane_replays", Json::from(f.lane_replays)),
                    ("recovery_cycles", Json::from(f.recovery_cycles)),
                    ("dram_dropped", Json::from(f.dram_dropped)),
                    ("dram_retries", Json::from(f.dram_retries)),
                    (
                        "dram_retry_wait_cycles",
                        Json::from(f.dram_retry_wait_cycles),
                    ),
                    ("healing_cycles", Json::from(f.healing_cycles)),
                ]),
            ),
            (
                "ecc",
                if self.ecc_policy.active() {
                    Json::obj([
                        (
                            "errs",
                            Json::Arr(
                                self.ecc_errs
                                    .iter()
                                    .filter(|(_, cs)| !cs.is_empty())
                                    .map(|(&u, cs)| {
                                        Json::Arr(vec![
                                            Json::from(u64::from(u)),
                                            Json::Arr(cs.iter().map(|&c| Json::from(c)).collect()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "pending",
                            Json::Arr(
                                self.ecc_pending
                                    .iter()
                                    .map(|&(u, c)| {
                                        Json::Arr(vec![Json::from(u64::from(u)), Json::from(c)])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                } else {
                    Json::Null
                },
            ),
            (
                "drop_attempts",
                Json::Arr(
                    drops
                        .into_iter()
                        .map(|(k, v)| Json::Arr(vec![Json::hex(k), Json::from(u64::from(v))]))
                        .collect(),
                ),
            ),
            (
                "retry_queue",
                Json::Arr(
                    self.retry_queue
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("due", Json::from(r.due)),
                                ("id", Json::hex(r.req.id)),
                                ("addr", Json::hex(r.req.addr)),
                                ("w", Json::from(r.req.is_write)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "flags",
                Json::obj([
                    ("progress", Json::from(self.progress)),
                    ("changed", Json::from(self.changed)),
                    ("push_blocked", Json::from(self.push_blocked)),
                    ("begin_routed", Json::from(self.begin_routed)),
                    ("begin_cols", Json::from(self.begin_cols)),
                    ("cu_pending", Json::from(self.cu_pending)),
                ]),
            ),
            (
                "last_class",
                Json::Arr(
                    self.last_class
                        .iter()
                        .map(|&c| Json::from(u64::from(c)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Restores state captured by [`snapshot`](Self::snapshot) into a pool
    /// freshly built by [`new`](Self::new) for the same model and options
    /// (with `set_transients`/`set_coalescing`/`set_offline` already
    /// applied — restore overlays the mutable state on top).
    ///
    /// # Errors
    ///
    /// Fails with a message on a malformed snapshot or one whose shape
    /// does not match this pool's model.
    pub(crate) fn restore(&mut self, j: &Json) -> Result<(), String> {
        use plasticine_json::decode::{arr_of, bool_of, field, hex_of, u64_of};
        let pairs = |j: &Json, k: &str| -> Result<Vec<(u64, u64)>, String> {
            let mut out = Vec::new();
            for e in arr_of(j, k)? {
                let p = e
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("field `{k}`: entry is not a pair"))?;
                let k = p[0]
                    .as_hex()
                    .ok_or_else(|| "pair key is not a hex string".to_string())?;
                let v = p[1]
                    .as_hex()
                    .ok_or_else(|| "pair value is not a hex string".to_string())?;
                out.push((k, v));
            }
            Ok(out)
        };
        self.now = u64_of(j, "now")?;
        self.slots.clear();
        for e in arr_of(j, "slots")? {
            let p = e
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| "slot entry is not a pair".to_string())?;
            let c = p[0]
                .as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| "bad slot ctrl id".to_string())?;
            let n = p[1]
                .as_usize()
                .ok_or_else(|| "bad slot count".to_string())?;
            self.slots.insert(CtrlId(c), n);
        }
        self.dram.restore(field(j, "dram")?)?;
        let cus = arr_of(j, "cus")?;
        if cus.len() != self.cus.len() {
            return Err(format!(
                "coalescing-unit count mismatch: snapshot {} vs model {}",
                cus.len(),
                self.cus.len()
            ));
        }
        for (cu, cj) in self.cus.iter_mut().zip(cus) {
            cu.restore(cj)?;
        }
        self.line_done = pairs(j, "line_done")?.into_iter().collect();
        self.elem_done = pairs(j, "elem_done")?.into_iter().collect();
        self.req_job = pairs(j, "req_job")?.into_iter().collect();
        self.req_elem = pairs(j, "req_elem")?.into_iter().collect();
        self.next_dense = u64_of(j, "next_dense")?;
        self.next_elem_seq = pairs(j, "next_elem_seq")?.into_iter().collect();
        let a = field(j, "activity")?;
        self.activity = Activity {
            fu_ops: u64_of(a, "fu_ops")?,
            heavy_ops: u64_of(a, "heavy_ops")?,
            red_ops: u64_of(a, "red_ops")?,
            sram_reads: u64_of(a, "sram_reads")?,
            sram_writes: u64_of(a, "sram_writes")?,
            reg_traffic: u64_of(a, "reg_traffic")?,
            net_word_hops: u64_of(a, "net_word_hops")?,
            ctrl_msgs: u64_of(a, "ctrl_msgs")?,
            pcu_busy_cycles: u64_of(a, "pcu_busy_cycles")?,
            pmu_busy_cycles: u64_of(a, "pmu_busy_cycles")?,
            ag_busy_cycles: u64_of(a, "ag_busy_cycles")?,
        };
        let ucs = arr_of(j, "unit_cycles")?;
        if ucs.len() != self.unit_cycles.len() {
            return Err(format!(
                "tracked-unit count mismatch: snapshot {} vs model {}",
                ucs.len(),
                self.unit_cycles.len()
            ));
        }
        for (uc, uj) in self.unit_cycles.iter_mut().zip(ucs) {
            *uc = UnitCycles {
                busy: u64_of(uj, "busy")?,
                ctrl_stall: u64_of(uj, "ctrl")?,
                mem_stall: u64_of(uj, "mem")?,
                idle: u64_of(uj, "idle")?,
                recovery: u64_of(uj, "rec")?,
                healing: u64_of(uj, "heal")?,
            };
        }
        self.rng = match field(j, "rng")? {
            Json::Null => None,
            v => Some(FaultRng::from_state(
                v.as_hex().ok_or_else(|| "bad rng state".to_string())?,
            )),
        };
        let f = field(j, "fault_stats")?;
        self.fault_stats = FaultStats {
            ecc_corrected: u64_of(f, "ecc_corrected")?,
            parity_replays: u64_of(f, "parity_replays")?,
            lane_replays: u64_of(f, "lane_replays")?,
            recovery_cycles: u64_of(f, "recovery_cycles")?,
            dram_dropped: u64_of(f, "dram_dropped")?,
            dram_retries: u64_of(f, "dram_retries")?,
            dram_retry_wait_cycles: u64_of(f, "dram_retry_wait_cycles")?,
            healing_cycles: u64_of(f, "healing_cycles")?,
        };
        self.ecc_errs.clear();
        self.ecc_pending.clear();
        self.ecc_escalated.clear();
        match field(j, "ecc")? {
            Json::Null => {}
            e => {
                for entry in arr_of(e, "errs")? {
                    let p = entry
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| "ecc errs entry is not a pair".to_string())?;
                    let u = p[0]
                        .as_u64()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| "bad ecc unit id".to_string())?;
                    let cs = p[1]
                        .as_arr()
                        .ok_or_else(|| "ecc cycles is not an array".to_string())?
                        .iter()
                        .map(|c| c.as_u64().ok_or_else(|| "bad ecc cycle".to_string()))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.ecc_errs.insert(u, cs);
                }
                for entry in arr_of(e, "pending")? {
                    let p = entry
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| "ecc pending entry is not a pair".to_string())?;
                    let u = p[0]
                        .as_u64()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| "bad ecc unit id".to_string())?;
                    let c = p[1]
                        .as_u64()
                        .ok_or_else(|| "bad ecc escalation cycle".to_string())?;
                    self.ecc_pending.push((u, c));
                }
            }
        }
        self.healing_active = false;
        self.drop_attempts.clear();
        for e in arr_of(j, "drop_attempts")? {
            let p = e
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| "drop entry is not a pair".to_string())?;
            let k = p[0]
                .as_hex()
                .ok_or_else(|| "bad drop request id".to_string())?;
            let v = p[1]
                .as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| "bad drop attempt count".to_string())?;
            self.drop_attempts.insert(k, v);
        }
        self.retry_queue.clear();
        for rj in arr_of(j, "retry_queue")? {
            self.retry_queue.push(PendingRetry {
                due: u64_of(rj, "due")?,
                req: MemRequest {
                    id: hex_of(rj, "id")?,
                    addr: hex_of(rj, "addr")?,
                    is_write: bool_of(rj, "w")?,
                },
            });
        }
        let fl = field(j, "flags")?;
        self.progress = bool_of(fl, "progress")?;
        self.changed = bool_of(fl, "changed")?;
        self.push_blocked = bool_of(fl, "push_blocked")?;
        self.begin_routed = bool_of(fl, "begin_routed")?;
        self.begin_cols = bool_of(fl, "begin_cols")?;
        self.cu_pending = bool_of(fl, "cu_pending")?;
        let lc = arr_of(j, "last_class")?;
        if lc.len() != self.last_class.len() {
            return Err("class-vector length mismatch".to_string());
        }
        for (dst, cj) in self.last_class.iter_mut().zip(lc) {
            *dst = cj
                .as_u64()
                .and_then(|v| u8::try_from(v).ok())
                .ok_or_else(|| "bad class value".to_string())?;
        }
        self.fault_exhausted = None;
        self.pending_class.fill(CLASS_IDLE);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_model() -> SimModel {
        SimModel {
            compute: HashMap::new(),
            transfer: HashMap::new(),
            outer: HashMap::new(),
            ctrl_slots: HashMap::new(),
            mem_ports: HashMap::new(),
            dram_base: vec![],
            sram_words: HashMap::new(),
            tracked: vec![],
        }
    }

    #[test]
    fn slots_are_counted() {
        let mut m = empty_model();
        m.ctrl_slots.insert(CtrlId(0), 2);
        let mut r = Resources::new(&m, &PlasticineParams::paper_final(), DramConfig::default());
        assert!(r.acquire_slot(CtrlId(0)));
        assert!(r.acquire_slot(CtrlId(0)));
        assert!(!r.acquire_slot(CtrlId(0)));
        r.release_slot(CtrlId(0));
        assert!(r.acquire_slot(CtrlId(0)));
    }

    #[test]
    fn ports_reset_each_cycle() {
        let mut m = empty_model();
        m.mem_ports.insert(UnitId(0), 1);
        let mut r = Resources::new(&m, &PlasticineParams::paper_final(), DramConfig::default());
        r.begin_cycle();
        assert!(r.acquire_ports(&[UnitId(0)], &[]));
        assert!(!r.acquire_ports(&[UnitId(0)], &[]));
        // Write port is independent.
        assert!(r.acquire_ports(&[], &[UnitId(0)]));
        r.begin_cycle();
        assert!(r.acquire_ports(&[UnitId(0)], &[]));
    }

    #[test]
    fn dense_and_sparse_requests_complete() {
        let m = empty_model();
        let mut r = Resources::new(
            &m,
            &PlasticineParams::paper_final(),
            DramConfig {
                refresh: false,
                ..DramConfig::default()
            },
        );
        assert!(r.push_dense(7, 0, false));
        assert!(r.push_sparse(9, 4096, false));
        let mut lines = 0;
        let mut elems = 0;
        for _ in 0..10_000 {
            r.begin_cycle();
            lines += r.take_lines(7);
            elems += r.take_elems(9);
            if lines == 1 && elems == 1 {
                break;
            }
        }
        assert_eq!(lines, 1);
        assert_eq!(elems, 1);
    }
}

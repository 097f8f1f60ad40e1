//! Resumable simulation kernel: the run loop of [`simulate`] as a
//! pausable object.
//!
//! [`SimKernel`] owns everything one program's simulation needs — the
//! traced program, its compiled output, the timing model, the resource
//! state, and the schedule tree — and exposes the run loop as
//! [`advance`](SimKernel::advance), which executes until the program
//! finishes or an optional `until` cycle is reached at a cycle boundary.
//! Pause points coincide exactly with checkpoint points (the top of the
//! loop, before `begin_cycle`), so a paused kernel can always be
//! [checkpointed](SimKernel::checkpoint) — this is what eviction in the
//! multi-tenant scheduler uses.
//!
//! The single-program entry points ([`simulate`], [`simulate_traced`],
//! [`simulate_checkpointed`]) are thin wrappers that create a kernel and
//! advance it to completion; the multi-tenant driver
//! ([`MultiSim`](crate::MultiSim)) interleaves several kernels in
//! deterministic round-robin quanta. Because every kernel is fully
//! self-contained, tenants cannot observe each other — which is precisely
//! the isolation invariant the scheduler advertises.
//!
//! [`simulate`]: crate::simulate
//! [`simulate_traced`]: crate::simulate_traced
//! [`simulate_checkpointed`]: crate::simulate_checkpointed

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy};
use crate::deadlock::DeadlockReport;
use crate::model::SimModel;
use crate::resources::FastForward;
use crate::resources::{Resources, SimError};
use crate::sched::Node;
use crate::trace::{SimTrace, TraceEvent};
use crate::{SimOptions, SimResult, StepMode};
use plasticine_arch::{FaultArrival, FaultMap, SiteId, SiteKind, SwitchId, UnitCfg};
use plasticine_compiler::CompileOutput;
use plasticine_ppir::{Machine, Program, TraceRecorder};
use std::collections::BTreeSet;
use std::fmt;

/// Why [`SimKernel::advance`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// The program ran to completion; harvest stats with
    /// [`SimKernel::finish`].
    Finished,
    /// The `until` cycle was reached at a cycle boundary. The kernel can
    /// be checkpointed or advanced further.
    Paused,
}

/// Everything a healing layer needs after a degraded exit
/// ([`SimError::FabricDegraded`]): what broke, when, the complete live
/// fault map, and an auto-checkpoint taken at the degrade boundary.
///
/// The checkpoint was taken with the *same* options (including the fault
/// timeline) the run started with, so resuming it — on a relocated
/// pattern-equivalent band or on the same degraded fabric — reproduces the
/// interrupted run bit for bit from the degrade cycle on.
#[derive(Debug, Clone)]
pub struct DegradedReport {
    /// Cycle the degraded exit happened at (the checkpoint's cycle).
    pub cycle: u64,
    /// Cycle the first impacting arrival of this detect window fired at.
    pub detected_at: u64,
    /// Every arrival that fired during this run segment (including
    /// ECC-threshold escalations, reported as unit deaths), in firing
    /// order with the cycle each fired at.
    pub arrivals: Vec<(u64, FaultArrival)>,
    /// Human-readable descriptions of the impacting arrivals — the ones
    /// that hit resources this run was actually using and forced the exit.
    pub impact: Vec<String>,
    /// The live fault map at exit: the map the run started under plus
    /// every fired arrival. A healing layer merges this into its per-chip
    /// health state and compiles replacements against it.
    pub faults: FaultMap,
    /// Auto-checkpoint at [`cycle`](Self::cycle); resume it to continue
    /// the run after relocation.
    pub checkpoint: Checkpoint,
}

impl fmt::Display for DegradedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fabric degraded at cycle {} (detected at {}): {}",
            self.cycle,
            self.detected_at,
            self.impact.join("; ")
        )
    }
}

/// An armed degraded exit: the first impacting arrival fired at
/// `detected_at` and the kernel rides out the detect delay until `at`.
#[derive(Debug, Clone)]
struct PendingDegrade {
    at: u64,
    detected_at: u64,
    impact: Vec<String>,
}

/// Where periodic and on-error checkpoints go during
/// [`SimKernel::advance`]. The `emit` callback owns persistence (and its
/// error handling) so the run loop never blocks on I/O decisions.
pub struct CheckpointSink<'a> {
    /// When to emit checkpoints.
    pub policy: CheckpointPolicy,
    /// Receives each emitted checkpoint.
    pub emit: &'a mut dyn FnMut(&Checkpoint),
}

/// One program's simulation as a pausable state machine (see the module
/// docs). Construction runs the functional interpreter and builds the
/// timing-side state at cycle 0 (or overlays a resume checkpoint);
/// [`advance`](SimKernel::advance) then moves simulated time forward.
pub struct SimKernel {
    p: Program,
    out: CompileOutput,
    opts: SimOptions,
    model: SimModel,
    res: Resources,
    root: Node,
    last_progress: u64,
    /// Next cycle at which a periodic checkpoint is due (lazily seeded
    /// from the first sink that sets a cadence).
    next_due: Option<u64>,
    /// Set when the event kernel already ran this cycle's `begin_cycle`
    /// (it found the cycle tree-observable): the next iteration must tick
    /// without beginning again — and the kernel must NOT pause there.
    skip_begin: bool,
    done: bool,
    /// Physical PCU/PMU sites this configuration occupies (impact check).
    used_sites: BTreeSet<SiteId>,
    /// Undirected switch-mesh edges traversed by this configuration's
    /// routed links, canonical lower-id first (impact check).
    used_links: BTreeSet<(SwitchId, SwitchId)>,
    /// Live fault map: the options' map plus every fired arrival.
    live_faults: FaultMap,
    /// Arrivals fired during this run segment, in firing order.
    fired: Vec<(u64, FaultArrival)>,
    /// Index of the next unfired timeline event.
    tl_next: usize,
    /// Armed degraded exit, if an impacting arrival is riding out its
    /// detect window.
    pending: Option<PendingDegrade>,
}

impl SimKernel {
    /// Runs the program functionally (on `machine`, which the caller
    /// pre-loads with input data) and builds the timing-side state,
    /// optionally overlaying a resume checkpoint.
    ///
    /// `Node::build` is deterministic, so the fresh tree has the same
    /// shape and leaf job ids as the one a checkpointing run built; the
    /// snapshot supplies only the mutable progress state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Run`] if functional execution fails,
    /// [`SimError::Config`] if the fault map disables every DRAM channel,
    /// and [`SimError::Checkpoint`] when `resume` does not match this
    /// program/bitstream/options or is corrupt.
    pub fn new(
        p: &Program,
        out: &CompileOutput,
        machine: &mut Machine,
        opts: &SimOptions,
        traced: bool,
        resume: Option<&Checkpoint>,
    ) -> Result<SimKernel, SimError> {
        let mut rec = TraceRecorder::new();
        machine.run_traced(&mut rec)?;
        let trace = rec.into_trace();

        let mut model = SimModel::build(p, out);
        if let Some(cap) = opts.credit_cap {
            for om in model.outer.values_mut() {
                for d in &mut om.deps {
                    d.2 = d.2.min(cap);
                }
            }
        }
        let mut res = Resources::new(&model, &out.config.params, opts.dram.clone());
        res.set_coalescing(opts.coalescing);
        res.set_transients(&opts.faults.transient);
        res.set_threads(opts.threads);
        if !opts.faults.offline_channels.is_empty() {
            let offline: Vec<usize> = opts.faults.offline_channels.iter().copied().collect();
            if !res.dram.set_offline(&offline) {
                return Err(SimError::Config(
                    "fault map takes every DRAM channel offline".to_string(),
                ));
            }
        }
        if opts.timeline.ecc.active() {
            // ECC escalation charges errors to the first physical PMU site
            // of the scratchpad unit whose read rolled them.
            let site_of_unit: Vec<u32> = out
                .config
                .units
                .iter()
                .map(|u| match u {
                    UnitCfg::Memory(m) => m.sites.first().map(|s| s.0).unwrap_or(u32::MAX),
                    _ => u32::MAX,
                })
                .collect();
            res.set_ecc_policy(opts.timeline.ecc, site_of_unit);
        }
        if traced {
            res.enable_tracing();
        }
        let mut next_job = 1u64;
        let mut root = Node::build(trace, &model, &mut next_job);

        let mut last_progress = 0u64;
        if let Some(c) = resume {
            c.matches(p, &out.config, opts)
                .map_err(SimError::Checkpoint)?;
            res.restore(&c.resources)
                .map_err(|m| SimError::Checkpoint(CheckpointError::Format(m)))?;
            root.restore(&c.tree, &model)
                .map_err(|m| SimError::Checkpoint(CheckpointError::Format(m)))?;
            last_progress = c.last_progress;
        }
        let (used_sites, used_links) = used_resources(out);
        let mut k = SimKernel {
            p: p.clone(),
            out: out.clone(),
            opts: opts.clone(),
            model,
            res,
            root,
            last_progress,
            next_due: None,
            skip_begin: false,
            done: false,
            used_sites,
            used_links,
            live_faults: opts.faults.clone(),
            fired: Vec::new(),
            tl_next: 0,
            pending: None,
        };
        k.init_timeline(resume.is_some())?;
        Ok(k)
    }

    /// Replays the fault timeline up to the construction cycle (0 for a
    /// fresh run, the checkpoint cycle on resume): folds already-elapsed
    /// arrivals into the live fault map and transient rates, applies the
    /// merged offline-channel set, re-arms a degrade window that was
    /// still open at the checkpoint, and refuses a resume onto a fabric
    /// where an elapsed arrival still impacts this configuration.
    fn init_timeline(&mut self, resumed: bool) -> Result<(), SimError> {
        if self.opts.timeline.is_empty() && self.res.ecc_pending().is_empty() {
            return Ok(());
        }
        let now = self.res.now;
        let detect = self.opts.timeline.detect_delay;
        let elapsed: Vec<_> = self
            .opts
            .timeline
            .fired_by(now)
            .iter()
            .map(|e| (e.cycle, e.arrival.clone()))
            .collect();
        self.tl_next = elapsed.len();
        for (cycle, arrival) in elapsed {
            if let FaultArrival::TransientEscalation { lane, sram, drop } = &arrival {
                // Rates re-applied in event order; on resume the snapshot
                // then overlays the RNG state, so the stream continues
                // exactly where the interrupted run left it.
                self.res
                    .escalate_transients(*lane, *sram, *drop, self.opts.faults.transient.seed);
            } else if !matches!(arrival, FaultArrival::ChannelFailure { .. }) {
                if let Some(desc) = self.arrival_impact(&arrival) {
                    let deadline = cycle.saturating_add(detect);
                    if resumed && deadline <= now {
                        return Err(SimError::Config(format!(
                            "cannot resume at cycle {now}: unhealed fault arrival \
                             ({desc} at cycle {cycle}) still impacts this configuration"
                        )));
                    }
                    self.arm_degrade(cycle, deadline, desc);
                }
            }
            arrival.apply_to(&mut self.live_faults);
            self.fired.push((cycle, arrival));
        }
        // Channel failures resolve at (re)construction: the merged offline
        // set is applied and in-flight restored traffic drains onto the
        // survivors (the drain-then-retire rule — never mid-run).
        if self.live_faults.offline_channels != self.opts.faults.offline_channels {
            let offline: Vec<usize> = self
                .live_faults
                .offline_channels
                .iter()
                .copied()
                .filter(|&c| c < self.opts.dram.channels)
                .collect();
            if !self.res.dram.set_offline(&offline) {
                return Err(SimError::Config(
                    "fault timeline takes every DRAM channel offline".to_string(),
                ));
            }
        }
        // Re-arm (or resolve) ECC escalations that were inside their
        // detect window at the checkpoint. Site-keyed: a relocated
        // configuration no longer uses the dying site, which retires the
        // entry; the same configuration re-arms it.
        let mut kept = Vec::new();
        for &(site, at) in &self.res.ecc_pending().to_vec() {
            if !self.used_sites.contains(&SiteId(site)) {
                continue;
            }
            let arrival = FaultArrival::UnitDeath {
                site: SiteId(site),
                kind: SiteKind::Pmu,
            };
            let desc = format!("{} (ECC threshold)", arrival.describe());
            let deadline = at.saturating_add(detect);
            if resumed && deadline <= now {
                return Err(SimError::Config(format!(
                    "cannot resume at cycle {now}: unhealed ECC escalation \
                     ({desc} at cycle {at}) still impacts this configuration"
                )));
            }
            self.arm_degrade(at, deadline, desc);
            kept.push((site, at));
        }
        self.res.set_ecc_pending(kept);
        Ok(())
    }

    /// Whether an arrival hits a resource this configuration uses and is
    /// not already dead in the live map; returns its description if so.
    fn arrival_impact(&self, a: &FaultArrival) -> Option<String> {
        let hit = match a {
            FaultArrival::UnitDeath { site, .. } => {
                !self.live_faults.dead_pcus.contains(site)
                    && !self.live_faults.dead_pmus.contains(site)
                    && self.used_sites.contains(site)
            }
            FaultArrival::LinkDeath { a, b } => {
                let key = if a <= b { (*a, *b) } else { (*b, *a) };
                !self.live_faults.dead_links.contains(&key) && self.used_links.contains(&key)
            }
            FaultArrival::BankFailure { site } => self.used_sites.contains(site),
            FaultArrival::ChannelFailure { channel } => {
                *channel < self.opts.dram.channels
                    && !self.live_faults.offline_channels.contains(channel)
            }
            FaultArrival::TransientEscalation { .. } => false,
        };
        hit.then(|| a.describe())
    }

    /// Arms (or tightens) the degraded exit and turns the healing overlay
    /// on.
    fn arm_degrade(&mut self, detected_at: u64, deadline: u64, desc: String) {
        match &mut self.pending {
            Some(p) => {
                p.at = p.at.min(deadline);
                p.impact.push(desc);
            }
            None => {
                self.pending = Some(PendingDegrade {
                    at: deadline,
                    detected_at,
                    impact: vec![desc],
                });
                self.res.set_healing(true);
            }
        }
    }

    /// Fires one timeline arrival at run time (the run loop reached its
    /// cycle): escalations apply immediately; hard arrivals are recorded
    /// in the live map and, when impacting, arm the degraded exit.
    fn fire_arrival(&mut self, cycle: u64, arrival: FaultArrival) {
        if let FaultArrival::TransientEscalation { lane, sram, drop } = &arrival {
            self.res
                .escalate_transients(*lane, *sram, *drop, self.opts.faults.transient.seed);
        } else if let Some(desc) = self.arrival_impact(&arrival) {
            let deadline = cycle.saturating_add(self.opts.timeline.detect_delay);
            self.arm_degrade(cycle, deadline, desc);
        }
        arrival.apply_to(&mut self.live_faults);
        self.fired.push((cycle, arrival));
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        self.res.now
    }

    /// Whether the program has run to completion.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The program this kernel simulates.
    pub fn program(&self) -> &Program {
        &self.p
    }

    /// The compiled output this kernel simulates against.
    pub fn output(&self) -> &CompileOutput {
        &self.out
    }

    /// Runs the simulation loop until the program finishes or — when
    /// `until` is given — the first cycle boundary at or past `until`.
    /// In event stepping a quiescent fast-forward may overshoot `until`;
    /// the pause lands on the next boundary after it, which is still a
    /// valid checkpoint point.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the schedule stops making progress for
    /// `stall_limit` cycles, [`SimError::CycleBudgetExceeded`] at
    /// `max_cycles`, and [`SimError::FaultExhaustion`] when transient
    /// injection exhausts its retry budget.
    pub fn advance(
        &mut self,
        until: Option<u64>,
        mut ckpt: Option<CheckpointSink<'_>>,
    ) -> Result<Advance, SimError> {
        if self.done {
            return Ok(Advance::Finished);
        }
        if self.next_due.is_none() {
            if let Some(e) = ckpt.as_ref().and_then(|s| s.policy.every) {
                self.next_due = Some((self.res.now / e + 1) * e);
            }
        }
        loop {
            if !self.skip_begin {
                // Online fault arrivals fire here — before the pause
                // check, so firing is independent of where a caller
                // happened to pause, and before `begin_cycle`, so an
                // arrival cycle is always a clean boundary.
                while let Some(e) = self.opts.timeline.events.get(self.tl_next) {
                    if e.cycle > self.res.now {
                        break;
                    }
                    let (cycle, arrival) = (e.cycle, e.arrival.clone());
                    self.tl_next += 1;
                    self.fire_arrival(cycle, arrival);
                }
                if let Some(p) = &self.pending {
                    if p.at <= self.res.now {
                        let report = self.degraded_report();
                        if let Some(s) = ckpt.as_mut() {
                            if s.policy.on_error {
                                (s.emit)(&report.checkpoint);
                            }
                        }
                        return Err(SimError::FabricDegraded(Box::new(report)));
                    }
                }
                // Pause/checkpoint point: top of the loop, *before*
                // `begin_cycle`, where the state is exactly what a fresh
                // build-plus-restore reproduces.
                if until.is_some_and(|u| self.res.now >= u) {
                    return Ok(Advance::Paused);
                }
                if let (Some(due), Some(s)) = (self.next_due, ckpt.as_mut()) {
                    if self.res.now >= due {
                        let c = self.checkpoint();
                        (s.emit)(&c);
                        let e = s.policy.every.expect("next_due implies every");
                        self.next_due = Some((self.res.now / e + 1) * e);
                    }
                }
                self.res.begin_cycle();
            }
            self.skip_begin = false;
            self.res.pre_tick();
            let done = self.root.tick(&mut self.res, &self.model);
            // Exactly one commit per simulated cycle (including the last),
            // so every unit's busy + ctrl + mem + idle total equals
            // `res.now`.
            self.res.commit_cycle();
            if self.res.take_progress() {
                self.last_progress = self.res.now;
            }
            if let Some((addr, attempts)) = self.res.take_fault_exhaustion() {
                return Err(SimError::FaultExhaustion {
                    cycle: self.res.now,
                    addr,
                    attempts,
                });
            }
            // ECC-threshold escalations observed by this cycle's rolls:
            // the charged site dies, which arms the degraded exit like any
            // other impacting unit death.
            for site in self.res.take_ecc_escalations() {
                let cycle = self.res.now;
                let arrival = FaultArrival::UnitDeath {
                    site: SiteId(site),
                    kind: SiteKind::Pmu,
                };
                let desc = format!("{} (ECC threshold)", arrival.describe());
                let deadline = cycle.saturating_add(self.opts.timeline.detect_delay);
                self.arm_degrade(cycle, deadline, desc);
                arrival.apply_to(&mut self.live_faults);
                self.fired.push((cycle, arrival));
            }
            if done {
                self.done = true;
                return Ok(Advance::Finished);
            }
            let changed = self.res.take_changed();
            if self.res.now >= self.opts.max_cycles {
                self.emit_on_error(&mut ckpt);
                return Err(SimError::CycleBudgetExceeded {
                    cycle: self.res.now,
                    budget: self.opts.max_cycles,
                });
            }
            if self.res.now.saturating_sub(self.last_progress) > self.opts.stall_limit {
                self.emit_on_error(&mut ckpt);
                let mut report = DeadlockReport {
                    cycle: self.res.now,
                    stall_limit: self.opts.stall_limit,
                    last_progress: self.last_progress,
                    ..DeadlockReport::default()
                };
                self.root
                    .collect_blocked(&self.res, &self.model, &mut report.blocked);
                report.finalize(|c| self.p.ctrl(c).name.clone());
                if let Some(mut t) = self.res.take_trace() {
                    let now = self.res.now;
                    for b in &report.blocked {
                        let what = b
                            .waits
                            .iter()
                            .map(|w| w.to_string())
                            .collect::<Vec<_>>()
                            .join("; ");
                        t.events.push(TraceEvent::Instant {
                            ctrl: b.ctrl,
                            label: format!("DEADLOCK: awaits {what}"),
                            at: now,
                        });
                    }
                    report.trace = Some(t);
                }
                return Err(SimError::Deadlock(Box::new(report)));
            }
            if self.opts.step == StepMode::Event && !changed {
                // The iteration was quiescent: replaying it verbatim would
                // change nothing, so jump to the next cycle where anything
                // can. The fast-forward must not skip past the next timeline
                // arrival or an armed degrade deadline: both have to be
                // observed at their exact cycle boundary.
                let hard_stop = self.pending.as_ref().map(|p| p.at).unwrap_or(u64::MAX).min(
                    self.opts
                        .timeline
                        .events
                        .get(self.tl_next)
                        .map(|e| e.cycle)
                        .unwrap_or(u64::MAX),
                );
                match self.res.fast_forward(
                    self.root.next_wake(),
                    self.opts.stall_limit,
                    self.opts.max_cycles,
                    hard_stop,
                    &mut self.last_progress,
                ) {
                    FastForward::NeedBegin => {}
                    FastForward::Begun => self.skip_begin = true,
                }
            }
        }
    }

    /// Snapshot at the current cycle boundary. Only valid when the kernel
    /// is at a pause point — right after construction or an
    /// [`Advance::Paused`] return — which the kernel guarantees by never
    /// returning `Paused` mid-fast-forward.
    pub fn checkpoint(&self) -> Checkpoint {
        debug_assert!(!self.skip_begin, "checkpoint taken mid-fast-forward");
        Checkpoint::new(
            &self.p,
            &self.out.config,
            &self.opts,
            self.res.now,
            self.last_progress,
            self.res.snapshot(),
            self.root.snapshot(),
        )
    }

    /// Assembles the degraded exit: auto-checkpoint at the current
    /// boundary plus the live fault map and the fired-arrival history.
    /// Only called at the top of the run loop (a valid checkpoint point)
    /// when the pending deadline has been reached.
    fn degraded_report(&mut self) -> DegradedReport {
        let p = self
            .pending
            .take()
            .expect("degraded exit without a pending window");
        self.res.set_healing(false);
        let checkpoint = self.checkpoint();
        DegradedReport {
            cycle: self.res.now,
            detected_at: p.detected_at,
            arrivals: self.fired.clone(),
            impact: p.impact,
            faults: self.live_faults.clone(),
            checkpoint,
        }
    }

    /// Emits a snapshot of the current state if the sink's `on_error`
    /// asks for one. Called at the `CycleBudgetExceeded` and watchdog
    /// error sites; the state there is a valid cycle-boundary checkpoint
    /// (the cycle has committed), so a diagnosed failure still leaves a
    /// resumable artifact — resume with a bigger `max_cycles` /
    /// `stall_limit`.
    fn emit_on_error(&self, ckpt: &mut Option<CheckpointSink<'_>>) {
        if let Some(s) = ckpt {
            if s.policy.on_error {
                let c = Checkpoint::new(
                    &self.p,
                    &self.out.config,
                    &self.opts,
                    self.res.now,
                    self.last_progress,
                    self.res.snapshot(),
                    self.root.snapshot(),
                );
                (s.emit)(&c);
            }
        }
    }

    /// The live fault map: the map the run started under plus every fired
    /// arrival so far.
    pub fn live_faults(&self) -> &FaultMap {
        &self.live_faults
    }

    /// Harvests the final stats (and the event trace, when tracing was
    /// enabled). Call after [`advance`](SimKernel::advance) returned
    /// [`Advance::Finished`].
    pub fn finish(mut self) -> (SimResult, Option<SimTrace>) {
        let units = self.res.unit_stats(&self.model);
        let sim_trace = self.res.take_trace();
        (
            SimResult {
                cycles: self.res.now,
                activity: self.res.activity,
                dram: self.res.dram_stats(),
                coalesce: self.res.coalesce_stats(),
                units,
                faults: self.res.fault_stats(),
                span_work: self.res.span_work,
            },
            sim_trace,
        )
    }
}

/// The physical resources a configuration occupies: PCU/PMU sites and the
/// undirected switch-mesh edges its routed links traverse (canonical
/// lower-id first). Fault arrivals outside these sets cannot impact the
/// run — they are recorded in the live map but do not degrade it.
fn used_resources(out: &CompileOutput) -> (BTreeSet<SiteId>, BTreeSet<(SwitchId, SwitchId)>) {
    let mut sites = BTreeSet::new();
    for u in &out.config.units {
        match u {
            UnitCfg::Compute(c) => sites.extend(c.sites.iter().copied()),
            UnitCfg::Memory(m) => sites.extend(m.sites.iter().copied()),
            UnitCfg::Ag(_) | UnitCfg::Outer(_) => {}
        }
    }
    let mut links = BTreeSet::new();
    for l in &out.config.links {
        for w in l.path.windows(2) {
            let (a, b) = (w[0], w[1]);
            links.insert(if a <= b { (a, b) } else { (b, a) });
        }
    }
    (sites, links)
}

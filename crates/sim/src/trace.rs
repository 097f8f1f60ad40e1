//! Cycle-level observability: per-unit stall attribution and an optional
//! structured event trace exportable as Chrome trace-viewer JSON.
//!
//! The attribution classifies **every cycle of every PCU, PMU, and AG**
//! into exactly one of four classes, so per unit the four counters always
//! sum to the total simulated cycles:
//!
//! * **busy** — the unit did useful work this cycle (issued a vector,
//!   served a scratchpad port, pushed a DRAM request),
//! * **ctrl-stall** — blocked by the control protocol of §3.5 (waiting for
//!   an invocation slot, missing producer tokens, exhausted credits),
//! * **mem-stall** — blocked by the memory system (bank-conflict
//!   serialization, port conflicts, DRAM backpressure, outstanding DRAM
//!   returns),
//! * **idle** — no work pending.
//!
//! Within a cycle the classes are prioritized
//! `busy > mem-stall > ctrl-stall > idle`: a unit that issued *and*
//! waited counts as busy, which is what makes the sum invariant hold by
//! construction.
//!
//! The event trace ([`SimTrace`]) is recorded only when requested through
//! [`simulate_traced`](crate::simulate_traced); the disabled path costs one
//! `Option` check per event site.

use plasticine_arch::UnitId;
use plasticine_json::Json;
use plasticine_ppir::{CtrlId, Program};
use std::collections::HashMap;

/// Cycle-class codes, priority-ordered: higher wins within a cycle.
pub(crate) const CLASS_IDLE: u8 = 0;
pub(crate) const CLASS_CTRL: u8 = 1;
pub(crate) const CLASS_MEM: u8 = 2;
pub(crate) const CLASS_BUSY: u8 = 3;

/// The hardware class of a tracked unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitKind {
    /// Pattern compute unit (or a chained group of them).
    Pcu,
    /// Pattern memory unit (scratchpad).
    Pmu,
    /// Address generator.
    Ag,
}

impl UnitKind {
    /// Short lowercase name used in tables and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            UnitKind::Pcu => "pcu",
            UnitKind::Pmu => "pmu",
            UnitKind::Ag => "ag",
        }
    }
}

/// Per-unit cycle classification. Exactly one class is incremented per
/// simulated cycle, so `total()` equals the simulation's cycle count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCycles {
    /// Cycles doing useful work.
    pub busy: u64,
    /// Cycles blocked on the control protocol (slots, tokens, credits).
    pub ctrl_stall: u64,
    /// Cycles blocked on the memory system (bank conflicts, DRAM).
    pub mem_stall: u64,
    /// Cycles with nothing pending.
    pub idle: u64,
    /// Recovery overlay: cycles the unit spent re-doing work because of a
    /// detected transient fault (parity/lane replays, DRAM retries). These
    /// cycles are *also* classified into one of the four classes above, so
    /// `recovery` is NOT part of [`total`](Self::total) — it attributes
    /// fault-recovery cost without breaking the sum invariant.
    pub recovery: u64,
    /// Healing overlay: cycles spent inside a degrade detect window — an
    /// online fault arrival impacted this run and the kernel is riding out
    /// the detection delay before its degraded exit. Like `recovery`, an
    /// overlay on the four exclusive classes, excluded from
    /// [`total`](Self::total).
    pub healing: u64,
}

impl UnitCycles {
    /// Sum of the four exclusive classes — always the total simulated
    /// cycles (the `recovery` overlay is excluded).
    pub fn total(&self) -> u64 {
        self.busy + self.ctrl_stall + self.mem_stall + self.idle
    }

    /// Busy fraction of the total (0 when no cycles elapsed).
    pub fn busy_frac(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.busy as f64 / t as f64
        }
    }

    /// Accumulates another unit's counters (for per-kind aggregates).
    pub fn accumulate(&mut self, o: &UnitCycles) {
        self.busy += o.busy;
        self.ctrl_stall += o.ctrl_stall;
        self.mem_stall += o.mem_stall;
        self.idle += o.idle;
        self.recovery += o.recovery;
        self.healing += o.healing;
    }

    pub(crate) fn bump(&mut self, class: u8) {
        self.bump_by(class, 1);
    }

    /// Bulk form of [`bump`](Self::bump): attributes `k` cycles to one
    /// class in a single step. The event-driven kernel uses it to commit a
    /// whole skipped span at once while keeping the sum invariant exact.
    pub(crate) fn bump_by(&mut self, class: u8, k: u64) {
        match class {
            CLASS_BUSY => self.busy += k,
            CLASS_MEM => self.mem_stall += k,
            CLASS_CTRL => self.ctrl_stall += k,
            _ => self.idle += k,
        }
    }
}

/// Identity of a unit tracked by the stall attribution (derived from the
/// compiled configuration when the [`SimModel`](crate::SimModel) is built).
#[derive(Debug, Clone)]
pub struct TrackedUnit {
    /// The logical unit in the machine configuration.
    pub unit: UnitId,
    /// Hardware class.
    pub kind: UnitKind,
    /// Human-readable label: the controller name for PCUs and AGs, the
    /// scratchpad name for PMUs.
    pub label: String,
}

/// One tracked unit's attribution result.
#[derive(Debug, Clone)]
pub struct UnitStat {
    /// The logical unit.
    pub unit: UnitId,
    /// Hardware class.
    pub kind: UnitKind,
    /// Human-readable label.
    pub label: String,
    /// The four-way cycle breakdown.
    pub cycles: UnitCycles,
}

/// Stall attribution for every PCU, PMU, and AG of a simulation.
#[derive(Debug, Clone, Default)]
pub struct UnitStats {
    /// Total simulated cycles (each unit's breakdown sums to this).
    pub total_cycles: u64,
    /// Per-unit breakdowns, in machine-configuration unit order.
    pub units: Vec<UnitStat>,
}

impl UnitStats {
    /// Sums the breakdowns of all units of one kind.
    pub fn aggregate(&self, kind: UnitKind) -> UnitCycles {
        let mut agg = UnitCycles::default();
        for u in self.units.iter().filter(|u| u.kind == kind) {
            agg.accumulate(&u.cycles);
        }
        agg
    }

    /// JSON form used by `--stats-json` and the golden-stats tests.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.units
                .iter()
                .map(|u| {
                    let mut fields = vec![
                        ("unit", Json::from(u.unit.0)),
                        ("kind", Json::from(u.kind.as_str())),
                        ("label", Json::from(u.label.as_str())),
                        ("busy", Json::from(u.cycles.busy)),
                        ("ctrl_stall", Json::from(u.cycles.ctrl_stall)),
                        ("mem_stall", Json::from(u.cycles.mem_stall)),
                        ("idle", Json::from(u.cycles.idle)),
                        ("recovery", Json::from(u.cycles.recovery)),
                    ];
                    // Omitted when zero so fault-free runs keep their
                    // historical stats bytes.
                    if u.cycles.healing != 0 {
                        fields.push(("healing", Json::from(u.cycles.healing)));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }
}

/// What a controller was waiting for during a ctrl-stall span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitKind {
    /// An invocation slot on its hardware unit.
    Slot,
    /// Producer tokens (an upstream sibling has not finished the iteration).
    Token,
    /// Credits (a downstream sibling is too far behind the N-buffer depth).
    Credit,
}

impl WaitKind {
    /// Short lowercase name used in trace labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            WaitKind::Slot => "slot",
            WaitKind::Token => "token",
            WaitKind::Credit => "credit",
        }
    }

    /// Compact code keying the tracer's open spans.
    pub(crate) fn code(self) -> u8 {
        match self {
            WaitKind::Slot => 0,
            WaitKind::Token => 1,
            WaitKind::Credit => 2,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub(crate) fn from_code(k: u8) -> WaitKind {
        match k {
            0 => WaitKind::Slot,
            1 => WaitKind::Token,
            _ => WaitKind::Credit,
        }
    }
}

/// One structured simulation event. Spans are half-open: `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A leaf invocation occupied its unit from slot acquisition to
    /// retirement.
    Leaf {
        /// The leaf controller.
        ctrl: CtrlId,
        /// Unique invocation id.
        job: u64,
        /// Cycle the invocation acquired its slot.
        start: u64,
        /// Cycle it retired.
        end: u64,
    },
    /// A controller sat blocked by the control protocol.
    Wait {
        /// The blocked controller.
        ctrl: CtrlId,
        /// What it waited for.
        kind: WaitKind,
        /// First blocked cycle.
        start: u64,
        /// One past the last blocked cycle.
        end: u64,
    },
    /// A compute pipe serialized vector issue over scratchpad banks or
    /// ports instead of issuing usefully.
    BankConflict {
        /// The serializing compute controller.
        ctrl: CtrlId,
        /// First serialized cycle.
        start: u64,
        /// One past the last serialized cycle.
        end: u64,
    },
    /// One DRAM request from issue (AG push) to data return.
    DramReq {
        /// Issuing job (leaf invocation id).
        job: u64,
        /// Byte address.
        addr: u64,
        /// Write (true) or read.
        is_write: bool,
        /// Sparse element request (through a coalescing unit) or dense line.
        sparse: bool,
        /// Cycle the AG issued it.
        issue: u64,
        /// Cycle its data returned.
        done: u64,
    },
    /// A point-in-time marker (e.g. "deadlocked: waiting tokens from X"),
    /// attached to a controller's track.
    Instant {
        /// The controller the marker belongs to.
        ctrl: CtrlId,
        /// Marker label.
        label: String,
        /// Cycle of the event.
        at: u64,
    },
}

impl TraceEvent {
    fn sort_key(&self) -> (u64, u8, u64, u64) {
        match self {
            TraceEvent::Leaf {
                ctrl, start, end, ..
            } => (*start, 0, ctrl.0 as u64, *end),
            TraceEvent::Wait {
                ctrl, start, end, ..
            } => (*start, 1, ctrl.0 as u64, *end),
            TraceEvent::BankConflict { ctrl, start, end } => (*start, 2, ctrl.0 as u64, *end),
            TraceEvent::DramReq {
                job, issue, done, ..
            } => (*issue, 3, *job, *done),
            TraceEvent::Instant { ctrl, at, .. } => (*at, 4, ctrl.0 as u64, *at),
        }
    }
}

/// A finished structured event trace.
#[derive(Debug, Clone, Default)]
pub struct SimTrace {
    /// All events, sorted by start cycle.
    pub events: Vec<TraceEvent>,
}

impl SimTrace {
    /// Exports the trace in Chrome trace-viewer JSON (the "trace event
    /// format": load the file at `chrome://tracing` or
    /// <https://ui.perfetto.dev>). Timestamps are core cycles; controllers
    /// appear as process 0 with one thread per controller, DRAM requests as
    /// process 1 with one thread per issuing job.
    pub fn chrome_trace(&self, p: &Program) -> Json {
        let mut evs: Vec<Json> = Vec::new();
        let meta = |name: &str, pid: u32, tid: u32, value: &str| {
            Json::obj([
                ("name", Json::from(name)),
                ("ph", Json::from("M")),
                ("pid", Json::from(pid)),
                ("tid", Json::from(tid)),
                ("args", Json::obj([("name", Json::from(value))])),
            ])
        };
        evs.push(meta("process_name", 0, 0, "controllers"));
        evs.push(meta("process_name", 1, 0, "dram"));
        for (i, c) in p.ctrls().iter().enumerate() {
            evs.push(meta("thread_name", 0, i as u32, &c.name));
        }
        let span = |name: String, cat: &str, tid: u32, start: u64, end: u64, args: Json| {
            Json::obj([
                ("name", Json::from(name)),
                ("cat", Json::from(cat)),
                ("ph", Json::from("X")),
                ("pid", Json::from(if cat == "dram" { 1u32 } else { 0 })),
                ("tid", Json::from(tid)),
                ("ts", Json::from(start)),
                ("dur", Json::from(end.saturating_sub(start).max(1))),
                ("args", args),
            ])
        };
        for e in &self.events {
            evs.push(match e {
                TraceEvent::Leaf {
                    ctrl,
                    job,
                    start,
                    end,
                } => span(
                    p.ctrl(*ctrl).name.clone(),
                    "leaf",
                    ctrl.0,
                    *start,
                    *end,
                    Json::obj([("job", Json::from(*job))]),
                ),
                TraceEvent::Wait {
                    ctrl,
                    kind,
                    start,
                    end,
                } => span(
                    format!("wait:{}", kind.as_str()),
                    "ctrl-stall",
                    ctrl.0,
                    *start,
                    *end,
                    Json::Obj(Vec::new()),
                ),
                TraceEvent::BankConflict { ctrl, start, end } => span(
                    "bank-conflict".to_string(),
                    "mem-stall",
                    ctrl.0,
                    *start,
                    *end,
                    Json::Obj(Vec::new()),
                ),
                TraceEvent::DramReq {
                    job,
                    addr,
                    is_write,
                    sparse,
                    issue,
                    done,
                } => span(
                    format!(
                        "{}{}",
                        if *is_write { "wr" } else { "rd" },
                        if *sparse { ":sparse" } else { "" }
                    ),
                    "dram",
                    *job as u32,
                    *issue,
                    *done,
                    Json::obj([("addr", Json::from(*addr))]),
                ),
                TraceEvent::Instant { ctrl, label, at } => Json::obj([
                    ("name", Json::from(label.as_str())),
                    ("cat", Json::from("deadlock")),
                    ("ph", Json::from("i")),
                    ("s", Json::from("g")),
                    ("pid", Json::from(0u32)),
                    ("tid", Json::from(ctrl.0)),
                    ("ts", Json::from(*at)),
                ]),
            });
        }
        Json::obj([
            ("traceEvents", Json::Arr(evs)),
            ("displayTimeUnit", Json::from("ms")),
            (
                "metadata",
                Json::obj([("time-unit", Json::from("core-cycles"))]),
            ),
        ])
    }
}

/// In-flight span state: `(start, one past the last extended cycle)`.
type OpenSpan = (u64, u64);

fn extend(
    open: &mut HashMap<(u32, u8), OpenSpan>,
    closed: &mut Vec<((u32, u8), OpenSpan)>,
    key: (u32, u8),
    now: u64,
) {
    match open.get_mut(&key) {
        Some((_, end)) if *end == now => *end = now + 1,
        Some(span) => {
            closed.push((key, *span));
            *span = (now, now + 1);
        }
        None => {
            open.insert(key, (now, now + 1));
        }
    }
}

/// Crate-internal recorder behind the `Option` gate in `Resources`.
/// Coalesces per-cycle wait/conflict notes into spans online so long
/// stalls cost one event, not one per cycle.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    events: Vec<TraceEvent>,
    open_waits: HashMap<(u32, u8), OpenSpan>,
    closed_waits: Vec<((u32, u8), OpenSpan)>,
    open_conflicts: HashMap<(u32, u8), OpenSpan>,
    closed_conflicts: Vec<((u32, u8), OpenSpan)>,
    /// id → (issue cycle, byte addr, is_write, sparse, job).
    dram_inflight: HashMap<u64, (u64, u64, bool, bool, u64)>,
}

impl Tracer {
    pub(crate) fn wait(&mut self, ctrl: CtrlId, kind: WaitKind, now: u64) {
        extend(
            &mut self.open_waits,
            &mut self.closed_waits,
            (ctrl.0, kind.code()),
            now,
        );
    }

    pub(crate) fn conflict(&mut self, ctrl: CtrlId, now: u64) {
        extend(
            &mut self.open_conflicts,
            &mut self.closed_conflicts,
            (ctrl.0, 0),
            now,
        );
    }

    /// Extends every open wait/conflict span ending exactly at `end` by `k`
    /// cycles. During a span of cycles the event kernel skips (or processes
    /// without a tree tick), a per-cycle stepper would have re-noted the
    /// same blocked state every cycle — this is the bulk equivalent, so
    /// exported traces stay bit-identical between step modes
    /// (`tests/lockstep.rs` checks every workload under both clocks).
    pub(crate) fn extend_open(&mut self, end: u64, k: u64) {
        for span in self.open_waits.values_mut() {
            if span.1 == end {
                span.1 += k;
            }
        }
        for span in self.open_conflicts.values_mut() {
            if span.1 == end {
                span.1 += k;
            }
        }
    }

    pub(crate) fn leaf(&mut self, ctrl: CtrlId, job: u64, start: u64, end: u64) {
        self.events.push(TraceEvent::Leaf {
            ctrl,
            job,
            start,
            end,
        });
    }

    pub(crate) fn dram_issue(
        &mut self,
        id: u64,
        addr: u64,
        is_write: bool,
        sparse: bool,
        job: u64,
        now: u64,
    ) {
        self.dram_inflight
            .insert(id, (now, addr, is_write, sparse, job));
    }

    pub(crate) fn dram_done(&mut self, id: u64, now: u64) {
        if let Some((issue, addr, is_write, sparse, job)) = self.dram_inflight.remove(&id) {
            self.events.push(TraceEvent::DramReq {
                job,
                addr,
                is_write,
                sparse,
                issue,
                done: now,
            });
        }
    }

    /// Closes all open spans and returns the sorted trace.
    pub(crate) fn finish(mut self, now: u64) -> SimTrace {
        self.closed_waits.extend(self.open_waits.drain());
        for ((ctrl, k), (start, end)) in self.closed_waits.drain(..) {
            self.events.push(TraceEvent::Wait {
                ctrl: CtrlId(ctrl),
                kind: WaitKind::from_code(k),
                start,
                end,
            });
        }
        self.closed_conflicts.extend(self.open_conflicts.drain());
        for ((ctrl, _), (start, end)) in self.closed_conflicts.drain(..) {
            self.events.push(TraceEvent::BankConflict {
                ctrl: CtrlId(ctrl),
                start,
                end,
            });
        }
        // Requests still in flight at the end (shouldn't happen for a
        // completed simulation, but don't lose them).
        let mut inflight: Vec<_> = self.dram_inflight.drain().collect();
        inflight.sort_by_key(|(id, _)| *id);
        for (_, (issue, addr, is_write, sparse, job)) in inflight {
            self.events.push(TraceEvent::DramReq {
                job,
                addr,
                is_write,
                sparse,
                issue,
                done: now,
            });
        }
        self.events.sort_by_key(TraceEvent::sort_key);
        SimTrace {
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cycles_sum_and_aggregate() {
        let a = UnitCycles {
            busy: 3,
            ctrl_stall: 2,
            mem_stall: 1,
            idle: 4,
            recovery: 0,
            healing: 0,
        };
        assert_eq!(a.total(), 10);
        assert!((a.busy_frac() - 0.3).abs() < 1e-12);
        let stats = UnitStats {
            total_cycles: 10,
            units: vec![
                UnitStat {
                    unit: UnitId(0),
                    kind: UnitKind::Pcu,
                    label: "a".into(),
                    cycles: a,
                },
                UnitStat {
                    unit: UnitId(1),
                    kind: UnitKind::Pcu,
                    label: "b".into(),
                    cycles: a,
                },
                UnitStat {
                    unit: UnitId(2),
                    kind: UnitKind::Ag,
                    label: "c".into(),
                    cycles: a,
                },
            ],
        };
        let pcu = stats.aggregate(UnitKind::Pcu);
        assert_eq!(pcu.busy, 6);
        assert_eq!(pcu.total(), 20);
        assert_eq!(stats.aggregate(UnitKind::Pmu).total(), 0);
    }

    #[test]
    fn tracer_coalesces_consecutive_waits() {
        let mut t = Tracer::default();
        // Cycles 1,2,3 blocked; gap; cycles 7,8 blocked.
        for now in [1, 2, 3, 7, 8] {
            t.wait(CtrlId(4), WaitKind::Token, now);
        }
        let trace = t.finish(10);
        let waits: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Wait { start, end, .. } => Some((*start, *end)),
                _ => None,
            })
            .collect();
        assert_eq!(waits, vec![(1, 4), (7, 9)]);
    }

    #[test]
    fn tracer_matches_dram_issue_to_return() {
        let mut t = Tracer::default();
        t.dram_issue(42, 0x1000, false, true, 7, 5);
        t.dram_done(42, 30);
        t.dram_done(99, 31); // unknown id (a coalescer-internal line): ignored
        let trace = t.finish(40);
        assert_eq!(
            trace.events,
            vec![TraceEvent::DramReq {
                job: 7,
                addr: 0x1000,
                is_write: false,
                sparse: true,
                issue: 5,
                done: 30,
            }]
        );
    }
}

//! Single-channel DDR command scheduling: bank state machines, FR-FCFS
//! request selection with a starvation guard, and refresh.

use crate::config::{DramConfig, Location};
use plasticine_json::decode::{arr_of, bool_of, field, hex_of, u64_of, R};
use plasticine_json::Json;
use std::collections::VecDeque;

/// A line-granularity memory request (one 64-byte burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier returned in the [`Completion`].
    pub id: u64,
    /// Byte address (line-aligned addresses recommended; the low bits are
    /// ignored by the address mapper).
    pub addr: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
}

/// A finished memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Identifier from the original request.
    pub id: u64,
    /// Byte address of the original request.
    pub addr: u64,
    /// Whether it was a write.
    pub is_write: bool,
    /// Core cycle at which data finished transferring.
    pub at: u64,
}

/// Timing parameters pre-converted to core cycles.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cycles {
    pub rcd: u64,
    pub cas: u64,
    pub cwd: u64,
    pub rp: u64,
    pub ras: u64,
    pub rc: u64,
    pub rrd: u64,
    pub faw: u64,
    pub burst: u64,
    pub wr: u64,
    pub wtr: u64,
    pub rtp: u64,
    pub refi: u64,
    pub rfc: u64,
}

impl Cycles {
    pub(crate) fn from_config(cfg: &DramConfig) -> Cycles {
        let t = &cfg.timing;
        let c = |ns| cfg.ns_to_cycles(ns);
        Cycles {
            rcd: c(t.t_rcd_ns),
            cas: c(t.t_cas_ns),
            cwd: c(t.t_cwd_ns),
            rp: c(t.t_rp_ns),
            ras: c(t.t_ras_ns),
            rc: c(t.t_rc_ns),
            rrd: c(t.t_rrd_ns),
            faw: c(t.t_faw_ns),
            burst: c(t.t_burst_ns),
            wr: c(t.t_wr_ns),
            wtr: c(t.t_wtr_ns),
            rtp: c(t.t_rtp_ns),
            refi: c(t.t_refi_ns),
            rfc: c(t.t_rfc_ns),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    active_row: Option<u64>,
    /// Earliest cycle a column command may issue (tRCD after ACT).
    col_ok: u64,
    /// Earliest cycle a precharge may issue (tRAS / tWR / tRTP).
    pre_ok: u64,
    /// Earliest cycle an activate may issue (tRP after PRE, tRC after ACT).
    act_ok: u64,
}

#[derive(Debug, Clone, Default)]
struct Rank {
    /// Times of recent activates, for tFAW/tRRD.
    acts: VecDeque<u64>,
    /// Earliest cycle a read may issue after a write burst (tWTR).
    rd_ok: u64,
    /// Next scheduled refresh.
    next_refresh: u64,
    /// All banks blocked until this cycle by an in-progress refresh.
    refresh_until: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    req: MemRequest,
    loc: Location,
    arrival: u64,
}

/// Per-channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Column commands that hit an open row.
    pub row_hits: u64,
    /// Activate commands issued.
    pub activates: u64,
    /// Precharge commands issued (row conflicts).
    pub precharges: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Lines read.
    pub reads: u64,
    /// Lines written.
    pub writes: u64,
    /// Cycles with the data bus occupied.
    pub busy_cycles: u64,
    /// Summed read latency (request arrival to end of data), in cycles.
    pub read_latency_cycles: u64,
    /// Summed write latency, in cycles.
    pub write_latency_cycles: u64,
    /// Worst single-request latency observed, in cycles.
    pub max_latency_cycles: u64,
}

/// One DDR channel: command scheduler plus bank/rank state.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    cyc: Cycles,
    queue_depth: usize,
    max_age: u64,
    refresh: bool,
    banks: Vec<Vec<Bank>>,
    ranks: Vec<Rank>,
    queue: VecDeque<Pending>,
    inflight: Vec<Completion>,
    data_bus_free: u64,
    /// Every tick strictly before this cycle is a known no-op: after a tick
    /// that changed nothing, this caches the exact event bound (see
    /// [`next_event`](Self::next_event)), and [`push`](Self::push) resets
    /// it. Lets the per-cycle tick loop skip the command-scheduler scans
    /// while the channel merely waits out DRAM timing windows, and answers
    /// `next_event` without a queue scan while it lies in the future.
    quiet_until: u64,
    pub(crate) stats: ChannelStats,
}

impl Channel {
    pub(crate) fn new(cfg: &DramConfig) -> Channel {
        let cyc = Cycles::from_config(cfg);
        let mut ranks = Vec::with_capacity(cfg.ranks);
        for i in 0..cfg.ranks {
            ranks.push(Rank {
                // Stagger refreshes across ranks.
                next_refresh: cyc.refi * (i as u64 + 1) / cfg.ranks as u64,
                ..Rank::default()
            });
        }
        Channel {
            cyc,
            queue_depth: cfg.queue_depth,
            max_age: cfg.max_age,
            refresh: cfg.refresh,
            banks: vec![vec![Bank::default(); cfg.banks]; cfg.ranks],
            ranks,
            queue: VecDeque::new(),
            inflight: Vec::new(),
            data_bus_free: 0,
            quiet_until: 0,
            stats: ChannelStats::default(),
        }
    }

    pub(crate) fn has_capacity(&self) -> bool {
        self.queue.len() < self.queue_depth
    }

    pub(crate) fn pending(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    pub(crate) fn push(&mut self, req: MemRequest, loc: Location, now: u64) -> bool {
        if !self.has_capacity() {
            return false;
        }
        self.queue.push_back(Pending {
            req,
            loc,
            arrival: now,
        });
        self.quiet_until = 0; // the new request may be schedulable at once
        true
    }

    /// Advances to cycle `now`; returns requests whose data finished.
    pub(crate) fn tick(&mut self, now: u64, out: &mut Vec<Completion>) {
        if now < self.quiet_until {
            return; // cached no-op span; see `quiet_until`
        }
        let refreshes = self.stats.refreshes;
        self.start_refreshes(now);
        let issued = self.issue_one(now);
        // Drain completions due at or before `now`.
        let before = out.len();
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].at <= now {
                out.push(self.inflight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        // A tick that changed nothing leaves the channel purely waiting out
        // timing windows; everything it could do next is time-driven, so the
        // event bound marks every tick before it a no-op.
        if !issued && out.len() == before && self.stats.refreshes == refreshes {
            self.quiet_until = self.scan_next_event(now + 1);
        }
    }

    fn start_refreshes(&mut self, now: u64) {
        if !self.refresh {
            return;
        }
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            if now >= rank.next_refresh && now >= rank.refresh_until {
                rank.refresh_until = now + self.cyc.rfc;
                rank.next_refresh += self.cyc.refi;
                self.stats.refreshes += 1;
                // Refresh closes all rows in the rank.
                for bank in &mut self.banks[r] {
                    bank.active_row = None;
                    bank.act_ok = bank.act_ok.max(rank.refresh_until);
                    bank.col_ok = bank.col_ok.max(rank.refresh_until);
                    bank.pre_ok = bank.pre_ok.max(rank.refresh_until);
                }
            }
        }
    }

    fn rank_refreshing(&self, rank: usize, now: u64) -> bool {
        self.refresh && now < self.ranks[rank].refresh_until
    }

    /// tFAW / tRRD check for an activate on `rank` at `now`.
    fn act_allowed(&self, rank: usize, now: u64) -> bool {
        let r = &self.ranks[rank];
        if let Some(&last) = r.acts.back() {
            if now < last + self.cyc.rrd {
                return false;
            }
        }
        if r.acts.len() >= 4 {
            let fourth_last = r.acts[r.acts.len() - 4];
            if now < fourth_last + self.cyc.faw {
                return false;
            }
        }
        true
    }

    /// Last cycle at which FR-FCFS may reorder past the oldest queued
    /// request (`u64::MAX` with an empty queue). After it the starvation
    /// guard lets only that request issue.
    fn guard_horizon(&self) -> u64 {
        self.queue
            .front()
            .map_or(u64::MAX, |p| p.arrival.saturating_add(self.max_age))
    }

    /// Issues at most one DRAM command this cycle (shared command bus).
    /// Returns whether a command issued.
    fn issue_one(&mut self, now: u64) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        // Starvation guard: if the oldest request is overage, schedule only it.
        let limit = if now > self.guard_horizon() {
            1
        } else {
            self.queue.len()
        };

        // Pass 1 (FR): oldest request whose column command can issue now.
        for qi in 0..limit {
            if self.try_column(qi, now) {
                return true;
            }
        }
        // Pass 2 (FCFS): oldest request needing an activate on a closed bank.
        for qi in 0..limit {
            if self.try_activate(qi, now) {
                return true;
            }
        }
        // Pass 3: oldest request conflicting with an open row — precharge.
        for qi in 0..limit {
            if self.try_precharge(qi, now) {
                return true;
            }
        }
        false
    }

    fn try_column(&mut self, qi: usize, now: u64) -> bool {
        let p = &self.queue[qi];
        let loc = p.loc;
        let bank = &self.banks[loc.rank][loc.bank];
        if bank.active_row != Some(loc.row) || now < bank.col_ok {
            return false;
        }
        if self.rank_refreshing(loc.rank, now) {
            return false;
        }
        let is_write = p.req.is_write;
        if !is_write && now < self.ranks[loc.rank].rd_ok {
            return false;
        }
        let lat = if is_write { self.cyc.cwd } else { self.cyc.cas };
        let data_start = now + lat;
        if data_start < self.data_bus_free {
            return false;
        }
        let data_end = data_start + self.cyc.burst;
        // Commit the command.
        let p = self.queue.remove(qi).expect("index checked");
        let latency = data_end.saturating_sub(p.arrival);
        self.stats.max_latency_cycles = self.stats.max_latency_cycles.max(latency);
        if is_write {
            self.stats.write_latency_cycles += latency;
        } else {
            self.stats.read_latency_cycles += latency;
        }
        self.data_bus_free = data_end;
        self.stats.busy_cycles += self.cyc.burst;
        self.stats.row_hits += 1;
        let bank = &mut self.banks[loc.rank][loc.bank];
        if is_write {
            bank.pre_ok = bank.pre_ok.max(data_end + self.cyc.wr);
            self.ranks[loc.rank].rd_ok = self.ranks[loc.rank].rd_ok.max(data_end + self.cyc.wtr);
            self.stats.writes += 1;
        } else {
            bank.pre_ok = bank.pre_ok.max(now + self.cyc.rtp);
            self.stats.reads += 1;
        }
        self.inflight.push(Completion {
            id: p.req.id,
            addr: p.req.addr,
            is_write,
            at: data_end,
        });
        true
    }

    fn try_activate(&mut self, qi: usize, now: u64) -> bool {
        let loc = self.queue[qi].loc;
        let bank = &self.banks[loc.rank][loc.bank];
        if bank.active_row.is_some() || now < bank.act_ok {
            return false;
        }
        if self.rank_refreshing(loc.rank, now) || !self.act_allowed(loc.rank, now) {
            return false;
        }
        let bank = &mut self.banks[loc.rank][loc.bank];
        bank.active_row = Some(loc.row);
        bank.col_ok = now + self.cyc.rcd;
        bank.pre_ok = now + self.cyc.ras;
        bank.act_ok = now + self.cyc.rc;
        let rank = &mut self.ranks[loc.rank];
        rank.acts.push_back(now);
        while rank.acts.len() > 4 {
            rank.acts.pop_front();
        }
        self.stats.activates += 1;
        true
    }

    /// Earliest cycle ≥ `now` at which ticking this channel changes its
    /// state: a refresh starts, an in-flight burst completes, or
    /// [`issue_one`](Self::issue_one) issues a column, activate or
    /// precharge command. Returns `u64::MAX` when nothing ever will (the
    /// channel is drained and refresh is off).
    ///
    /// The bound is *exact*: every tick before it is a no-op, and the tick
    /// at it does something. Every constraint `issue_one` checks is of the
    /// form `now >= t` against state that itself only changes at one of
    /// these events, so each queued request's earliest command has a closed
    /// form. The one rule that depends on the clock alone is the starvation
    /// guard: past [`guard_horizon`](Self::guard_horizon) only the oldest
    /// request may issue. So the oldest request's earliest command always
    /// counts, and a younger request's counts only if it falls at or before
    /// the horizon. This is what lets the event-driven simulation kernel
    /// skip the span `[now, next_event)` without ticking, stay
    /// bit-identical to per-cycle stepping, and never wake for nothing.
    ///
    /// While [`quiet_until`](Self::quiet_until) lies in the future it is
    /// the answer without a scan: the no-op tick that set it scanned the
    /// same state, since only a push (which resets it) or a tick at or
    /// after it can change that state.
    pub(crate) fn next_event(&self, now: u64) -> u64 {
        if now < self.quiet_until {
            return self.quiet_until;
        }
        self.scan_next_event(now)
    }

    /// [`next_event`](Self::next_event) computed from the queues, without
    /// the `quiet_until` cache.
    pub(crate) fn scan_next_event(&self, now: u64) -> u64 {
        let mut ev = u64::MAX;
        for c in &self.inflight {
            ev = ev.min(c.at.max(now));
        }
        if self.refresh {
            for r in &self.ranks {
                ev = ev.min(r.next_refresh.max(r.refresh_until).max(now));
            }
        }
        // Every candidate below is clamped to >= now, so the first one that
        // lands on `now` is already the minimum — stop scanning. With deep
        // queues this turns the common "something is schedulable right now"
        // case from a full per-request scan into an early return.
        if ev <= now {
            return now;
        }
        let horizon = self.guard_horizon();
        // Past the horizon the guard already holds: only the oldest counts.
        let limit = if now > horizon { 1 } else { self.queue.len() };
        for (i, p) in self.queue.iter().take(limit).enumerate() {
            let loc = p.loc;
            let bank = &self.banks[loc.rank][loc.bank];
            let rank = &self.ranks[loc.rank];
            let refr = if self.refresh { rank.refresh_until } else { 0 };
            let t = match bank.active_row {
                // Row hit: the column command waits on tRCD, refresh, tWTR
                // (reads), and the shared data bus.
                Some(row) if row == loc.row => {
                    let lat = if p.req.is_write {
                        self.cyc.cwd
                    } else {
                        self.cyc.cas
                    };
                    let mut t = bank.col_ok.max(refr);
                    if !p.req.is_write {
                        t = t.max(rank.rd_ok);
                    }
                    t.max(self.data_bus_free.saturating_sub(lat))
                }
                // Closed bank: the activate waits on tRP/tRC, refresh, and
                // the rank's tRRD/tFAW windows.
                None => {
                    let mut t = bank.act_ok.max(refr);
                    if let Some(&last) = rank.acts.back() {
                        t = t.max(last + self.cyc.rrd);
                    }
                    if rank.acts.len() >= 4 {
                        t = t.max(rank.acts[rank.acts.len() - 4] + self.cyc.faw);
                    }
                    t
                }
                // Row conflict: a precharge is possible once tRAS/tWR/tRTP
                // expire — unless another queued request still wants the
                // open row, in which case this request waits for column
                // issues (events in their own right) to drain it first.
                Some(open) => {
                    let wanted = self.queue.iter().any(|q| {
                        q.loc.rank == loc.rank && q.loc.bank == loc.bank && q.loc.row == open
                    });
                    if wanted {
                        continue;
                    }
                    bank.pre_ok.max(refr)
                }
            };
            let t = t.max(now);
            if i > 0 && t > horizon {
                continue; // the guard will hold this younger request back
            }
            ev = ev.min(t);
            if ev <= now {
                return now;
            }
        }
        ev
    }

    /// Serializes all mutable channel state — bank/rank machines, queued
    /// and in-flight requests, the bus/quiet cursors, and stats. Static
    /// timing parameters are not included; [`restore`](Self::restore)
    /// rebuilds request locations from the config it is given.
    ///
    /// `inflight` order is preserved verbatim: the simulator's fault
    /// injector draws RNG values while iterating completions in order, so
    /// reordering them would change the injected-event stream.
    pub(crate) fn snapshot(&self) -> Json {
        let bank_json = |b: &Bank| {
            Json::obj([
                ("row", b.active_row.map(Json::hex).unwrap_or(Json::Null)),
                ("col_ok", Json::from(b.col_ok)),
                ("pre_ok", Json::from(b.pre_ok)),
                ("act_ok", Json::from(b.act_ok)),
            ])
        };
        let rank_json = |r: &Rank| {
            Json::obj([
                (
                    "acts",
                    Json::Arr(r.acts.iter().map(|&t| Json::from(t)).collect()),
                ),
                ("rd_ok", Json::from(r.rd_ok)),
                ("next_refresh", Json::from(r.next_refresh)),
                ("refresh_until", Json::from(r.refresh_until)),
            ])
        };
        let pending_json = |p: &Pending| {
            Json::obj([
                ("id", Json::hex(p.req.id)),
                ("addr", Json::hex(p.req.addr)),
                ("w", Json::from(p.req.is_write)),
                ("arrival", Json::from(p.arrival)),
            ])
        };
        let completion_json = |c: &Completion| {
            Json::obj([
                ("id", Json::hex(c.id)),
                ("addr", Json::hex(c.addr)),
                ("w", Json::from(c.is_write)),
                ("at", Json::from(c.at)),
            ])
        };
        let s = &self.stats;
        Json::obj([
            (
                "banks",
                Json::Arr(
                    self.banks
                        .iter()
                        .map(|r| Json::Arr(r.iter().map(bank_json).collect()))
                        .collect(),
                ),
            ),
            (
                "ranks",
                Json::Arr(self.ranks.iter().map(rank_json).collect()),
            ),
            (
                "queue",
                Json::Arr(self.queue.iter().map(pending_json).collect()),
            ),
            (
                "inflight",
                Json::Arr(self.inflight.iter().map(completion_json).collect()),
            ),
            ("data_bus_free", Json::from(self.data_bus_free)),
            (
                "stats",
                Json::obj([
                    ("row_hits", Json::from(s.row_hits)),
                    ("activates", Json::from(s.activates)),
                    ("precharges", Json::from(s.precharges)),
                    ("refreshes", Json::from(s.refreshes)),
                    ("reads", Json::from(s.reads)),
                    ("writes", Json::from(s.writes)),
                    ("busy_cycles", Json::from(s.busy_cycles)),
                    ("read_latency_cycles", Json::from(s.read_latency_cycles)),
                    ("write_latency_cycles", Json::from(s.write_latency_cycles)),
                    ("max_latency_cycles", Json::from(s.max_latency_cycles)),
                ]),
            ),
        ])
    }

    /// Restores state captured by [`snapshot`](Self::snapshot) into a
    /// channel freshly built from the *same* `cfg` (request locations are
    /// re-derived through `cfg.map`, so a different address mapping would
    /// silently corrupt the run — callers guard the config hash).
    pub(crate) fn restore(&mut self, j: &Json, cfg: &DramConfig) -> R<()> {
        let banks = arr_of(j, "banks")?;
        if banks.len() != self.banks.len() {
            return Err(format!(
                "rank count mismatch: snapshot {} vs config {}",
                banks.len(),
                self.banks.len()
            ));
        }
        for (rank, row) in banks.iter().enumerate() {
            let row = row
                .as_arr()
                .ok_or_else(|| "bank row is not an array".to_string())?;
            if row.len() != self.banks[rank].len() {
                return Err("bank count mismatch".to_string());
            }
            for (bi, bj) in row.iter().enumerate() {
                let active_row = match field(bj, "row")? {
                    Json::Null => None,
                    v => Some(v.as_hex().ok_or_else(|| "bad bank row".to_string())?),
                };
                self.banks[rank][bi] = Bank {
                    active_row,
                    col_ok: u64_of(bj, "col_ok")?,
                    pre_ok: u64_of(bj, "pre_ok")?,
                    act_ok: u64_of(bj, "act_ok")?,
                };
            }
        }
        let ranks = arr_of(j, "ranks")?;
        if ranks.len() != self.ranks.len() {
            return Err("rank state count mismatch".to_string());
        }
        for (ri, rj) in ranks.iter().enumerate() {
            let mut acts = VecDeque::new();
            for a in arr_of(rj, "acts")? {
                acts.push_back(a.as_u64().ok_or_else(|| "bad act time".to_string())?);
            }
            self.ranks[ri] = Rank {
                acts,
                rd_ok: u64_of(rj, "rd_ok")?,
                next_refresh: u64_of(rj, "next_refresh")?,
                refresh_until: u64_of(rj, "refresh_until")?,
            };
        }
        self.queue.clear();
        for pj in arr_of(j, "queue")? {
            let req = MemRequest {
                id: hex_of(pj, "id")?,
                addr: hex_of(pj, "addr")?,
                is_write: bool_of(pj, "w")?,
            };
            self.queue.push_back(Pending {
                req,
                loc: cfg.map(req.addr),
                arrival: u64_of(pj, "arrival")?,
            });
        }
        self.inflight.clear();
        for cj in arr_of(j, "inflight")? {
            self.inflight.push(Completion {
                id: hex_of(cj, "id")?,
                addr: hex_of(cj, "addr")?,
                is_write: bool_of(cj, "w")?,
                at: u64_of(cj, "at")?,
            });
        }
        self.data_bus_free = u64_of(j, "data_bus_free")?;
        // `quiet_until` is a pure scheduling cache (0 is always sound) and is
        // deliberately absent from snapshots: serial and sharded runs refresh
        // it on different cycles, and snapshot bytes must not depend on the
        // thread count. Old snapshots that still carry the field decode fine —
        // unknown fields are ignored.
        self.quiet_until = 0;
        let s = field(j, "stats")?;
        self.stats = ChannelStats {
            row_hits: u64_of(s, "row_hits")?,
            activates: u64_of(s, "activates")?,
            precharges: u64_of(s, "precharges")?,
            refreshes: u64_of(s, "refreshes")?,
            reads: u64_of(s, "reads")?,
            writes: u64_of(s, "writes")?,
            busy_cycles: u64_of(s, "busy_cycles")?,
            read_latency_cycles: u64_of(s, "read_latency_cycles")?,
            write_latency_cycles: u64_of(s, "write_latency_cycles")?,
            max_latency_cycles: u64_of(s, "max_latency_cycles")?,
        };
        Ok(())
    }

    fn try_precharge(&mut self, qi: usize, now: u64) -> bool {
        let loc = self.queue[qi].loc;
        let bank = &self.banks[loc.rank][loc.bank];
        let Some(open) = bank.active_row else {
            return false;
        };
        if open == loc.row || now < bank.pre_ok {
            return false;
        }
        if self.rank_refreshing(loc.rank, now) {
            return false;
        }
        // Only precharge if no *queued* request wants the open row (avoid
        // closing rows that still have hits pending).
        let wanted = self
            .queue
            .iter()
            .any(|p| p.loc.rank == loc.rank && p.loc.bank == loc.bank && p.loc.row == open);
        if wanted {
            return false;
        }
        let bank = &mut self.banks[loc.rank][loc.bank];
        bank.active_row = None;
        bank.act_ok = bank.act_ok.max(now + self.cyc.rp);
        self.stats.precharges += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> (Channel, DramConfig) {
        let cfg = DramConfig {
            refresh: false,
            ..DramConfig::default()
        };
        (Channel::new(&cfg), cfg)
    }

    fn run_until_drained(ch: &mut Channel, start: u64, horizon: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for t in start..horizon {
            ch.tick(t, &mut done);
            if ch.pending() == 0 {
                break;
            }
        }
        done
    }

    #[test]
    fn single_read_latency_is_act_rcd_cas_burst() {
        let (mut ch, cfg) = channel();
        let loc = cfg.map(0);
        ch.push(
            MemRequest {
                id: 1,
                addr: 0,
                is_write: false,
            },
            loc,
            0,
        );
        let done = run_until_drained(&mut ch, 0, 1000);
        assert_eq!(done.len(), 1);
        let cyc = Cycles::from_config(&cfg);
        // ACT at t=0, RD at t=tRCD, data ends at tRCD+CAS+burst.
        assert_eq!(done[0].at, cyc.rcd + cyc.cas + cyc.burst);
    }

    #[test]
    fn row_hit_stream_achieves_burst_rate() {
        let (mut ch, cfg) = channel();
        // 32 consecutive lines in the same channel/row (stride = 4 lines,
        // since lines interleave over 4 channels).
        for i in 0..32u64 {
            let addr = i * 4 * 64;
            let loc = cfg.map(addr);
            assert!(ch.push(
                MemRequest {
                    id: i,
                    addr,
                    is_write: false
                },
                loc,
                0
            ));
        }
        let done = run_until_drained(&mut ch, 0, 10_000);
        assert_eq!(done.len(), 32);
        assert_eq!(ch.stats.activates, 1, "one row activation for the stream");
        assert_eq!(ch.stats.row_hits, 32);
        let last = done.iter().map(|c| c.at).max().unwrap();
        let cyc = Cycles::from_config(&cfg);
        // After the first access, each subsequent line should take ~burst.
        let lower = 32 * cyc.burst;
        let upper = cyc.rcd + cyc.cas + 32 * cyc.burst + 8;
        assert!(last >= lower && last <= upper, "last={last}");
    }

    #[test]
    fn row_conflicts_cost_precharge_plus_activate() {
        let (mut ch, cfg) = channel();
        // Two requests to the same bank but different rows.
        let lines_per_row = cfg.row_bytes / cfg.line_bytes;
        let a = 0u64;
        let b = lines_per_row * 4 * 64 * (cfg.banks as u64 * cfg.ranks as u64); // same bank, next row
        let la = cfg.map(a);
        let lb = cfg.map(b);
        assert_eq!(la.bank, lb.bank);
        assert_eq!(la.rank, lb.rank);
        assert_ne!(la.row, lb.row);
        ch.push(
            MemRequest {
                id: 0,
                addr: a,
                is_write: false,
            },
            la,
            0,
        );
        ch.push(
            MemRequest {
                id: 1,
                addr: b,
                is_write: false,
            },
            lb,
            0,
        );
        let done = run_until_drained(&mut ch, 0, 10_000);
        assert_eq!(done.len(), 2);
        assert_eq!(ch.stats.activates, 2);
        assert_eq!(ch.stats.precharges, 1);
        let cyc = Cycles::from_config(&cfg);
        let second = done.iter().find(|c| c.id == 1).unwrap();
        // Second access cannot complete before tRAS + tRP + tRCD + CAS + burst.
        assert!(second.at >= cyc.ras + cyc.rp + cyc.rcd + cyc.cas + cyc.burst);
    }

    #[test]
    fn writes_then_read_respects_wtr() {
        let (mut ch, cfg) = channel();
        let la = cfg.map(0);
        let lb = cfg.map(4 * 64); // same row, next column line
        ch.push(
            MemRequest {
                id: 0,
                addr: 0,
                is_write: true,
            },
            la,
            0,
        );
        ch.push(
            MemRequest {
                id: 1,
                addr: 4 * 64,
                is_write: false,
            },
            lb,
            0,
        );
        let done = run_until_drained(&mut ch, 0, 10_000);
        let w = done.iter().find(|c| c.id == 0).unwrap();
        let r = done.iter().find(|c| c.id == 1).unwrap();
        let cyc = Cycles::from_config(&cfg);
        // Read data cannot start before write data end + tWTR + CAS.
        assert!(r.at >= w.at + cyc.wtr + cyc.cas);
    }

    #[test]
    fn starvation_guard_bounds_wait() {
        let cfg = DramConfig {
            refresh: false,
            max_age: 200,
            queue_depth: 64,
            ..DramConfig::default()
        };
        let mut ch = Channel::new(&cfg);
        // A victim request to row B, then a continuous stream to row A that
        // would otherwise always win FR-FCFS.
        let lines_per_row = cfg.row_bytes / cfg.line_bytes;
        let row_b = lines_per_row * 4 * 64 * (cfg.banks as u64 * cfg.ranks as u64);
        ch.push(
            MemRequest {
                id: 999,
                addr: row_b,
                is_write: false,
            },
            cfg.map(row_b),
            0,
        );
        let mut done = Vec::new();
        let mut next_id = 0u64;
        let mut victim_done_at = None;
        for t in 0..5_000u64 {
            // Keep the queue topped up with row-A hits.
            while ch.has_capacity() && next_id < 4000 {
                let addr = (next_id % lines_per_row) * 4 * 64;
                ch.push(
                    MemRequest {
                        id: next_id,
                        addr,
                        is_write: false,
                    },
                    cfg.map(addr),
                    t,
                );
                next_id += 1;
            }
            ch.tick(t, &mut done);
            if let Some(c) = done.iter().find(|c| c.id == 999) {
                victim_done_at = Some(c.at);
                break;
            }
        }
        let at = victim_done_at.expect("victim must eventually complete");
        assert!(at < 1_500, "victim waited too long: {at}");
    }

    #[test]
    fn refresh_blocks_and_recovers() {
        let cfg = DramConfig::default(); // refresh on
        let mut ch = Channel::new(&cfg);
        let mut done = Vec::new();
        // Run past several tREFI windows with sporadic traffic.
        let mut completed = 0;
        for t in 0..40_000u64 {
            if t % 100 == 0 && ch.has_capacity() {
                let addr = (t / 100 % 64) * 4 * 64;
                ch.push(
                    MemRequest {
                        id: t,
                        addr,
                        is_write: false,
                    },
                    cfg.map(addr),
                    t,
                );
            }
            done.clear();
            ch.tick(t, &mut done);
            completed += done.len();
        }
        assert!(ch.stats.refreshes >= 4, "refreshes={}", ch.stats.refreshes);
        assert!(completed > 300, "completed={completed}");
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let (mut ch, cfg) = channel();
        for i in 0..cfg.queue_depth as u64 {
            assert!(ch.push(
                MemRequest {
                    id: i,
                    addr: 0,
                    is_write: false
                },
                cfg.map(0),
                0
            ));
        }
        assert!(!ch.push(
            MemRequest {
                id: 99,
                addr: 0,
                is_write: false
            },
            cfg.map(0),
            0
        ));
    }
}

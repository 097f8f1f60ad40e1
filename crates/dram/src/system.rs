//! The multi-channel memory system front-end.

use crate::channel::{Channel, ChannelStats, Completion, MemRequest};
use crate::config::DramConfig;
use plasticine_json::Json;

/// Aggregate statistics across all channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Lines read.
    pub reads: u64,
    /// Lines written.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Activates (row-buffer misses).
    pub activates: u64,
    /// Precharges (row conflicts).
    pub precharges: u64,
    /// Refresh operations.
    pub refreshes: u64,
    /// Data-bus busy cycles summed over channels.
    pub busy_cycles: u64,
    /// Summed read latency (request arrival to end of data), in cycles.
    pub read_latency_cycles: u64,
    /// Summed write latency, in cycles.
    pub write_latency_cycles: u64,
    /// Worst single-request latency observed, in cycles.
    pub max_latency_cycles: u64,
}

impl DramStats {
    fn add(&mut self, c: &ChannelStats) {
        self.reads += c.reads;
        self.writes += c.writes;
        self.row_hits += c.row_hits;
        self.activates += c.activates;
        self.precharges += c.precharges;
        self.refreshes += c.refreshes;
        self.busy_cycles += c.busy_cycles;
        self.read_latency_cycles += c.read_latency_cycles;
        self.write_latency_cycles += c.write_latency_cycles;
        self.max_latency_cycles = self.max_latency_cycles.max(c.max_latency_cycles);
    }

    /// Mean read latency in cycles (0 when nothing was read).
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_latency_cycles as f64 / self.reads as f64
        }
    }

    /// Mean write latency in cycles (0 when nothing was written).
    pub fn avg_write_latency(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.write_latency_cycles as f64 / self.writes as f64
        }
    }
}

/// A complete DDR memory system: several independent channels behind a
/// line-interleaved address map.
///
/// Drive it by calling [`push`](DramSystem::push) to enqueue line requests
/// and [`tick`](DramSystem::tick) once per core cycle; completions come back
/// from `tick`.
///
/// # Examples
///
/// ```
/// use plasticine_dram::{DramConfig, DramSystem, MemRequest};
/// let mut mem = DramSystem::new(DramConfig::default());
/// mem.push(MemRequest { id: 7, addr: 0, is_write: false }).unwrap();
/// let mut done = Vec::new();
/// while done.is_empty() {
///     done = mem.tick();
/// }
/// assert_eq!(done[0].id, 7);
/// ```
#[derive(Debug)]
pub struct DramSystem {
    cfg: DramConfig,
    channels: Vec<Channel>,
    now: u64,
    /// Nominal channel index → serving channel index. Identity when no
    /// channel is offline; offline channels spill onto survivors.
    remap: Option<Vec<usize>>,
}

/// Error returned when a channel queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel request queue is full")
    }
}

impl std::error::Error for QueueFull {}

impl DramSystem {
    /// Builds the memory system.
    pub fn new(cfg: DramConfig) -> DramSystem {
        let channels = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
        DramSystem {
            cfg,
            channels,
            now: 0,
            remap: None,
        }
    }

    /// Takes the listed channels offline; their traffic spills onto the
    /// surviving channels (round-robin by nominal index). Returns false —
    /// and changes nothing — when the fault map would disable every channel.
    pub fn set_offline(&mut self, offline: &[usize]) -> bool {
        let live: Vec<usize> = (0..self.channels.len())
            .filter(|c| !offline.contains(c))
            .collect();
        if live.is_empty() {
            return false;
        }
        if live.len() == self.channels.len() {
            self.remap = None;
            return true;
        }
        self.remap = Some(
            (0..self.channels.len())
                .map(|c| {
                    if offline.contains(&c) {
                        live[c % live.len()]
                    } else {
                        c
                    }
                })
                .collect(),
        );
        true
    }

    /// Resolves a nominal channel index to the channel actually serving it.
    fn chan(&self, nominal: usize) -> usize {
        match &self.remap {
            Some(m) => m[nominal],
            None => nominal,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Current cycle (number of `tick` calls so far).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether the channel owning `addr` can accept another request.
    pub fn can_accept(&self, addr: u64) -> bool {
        self.channels[self.chan(self.cfg.map(addr).channel)].has_capacity()
    }

    /// Enqueues a line request.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] if the owning channel's queue is full; the
    /// caller should retry on a later cycle (this models AG backpressure).
    pub fn push(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        let loc = self.cfg.map(req.addr);
        let ch = self.chan(loc.channel);
        if self.channels[ch].push(req, loc, self.now) {
            Ok(())
        } else {
            Err(QueueFull)
        }
    }

    /// Advances one core cycle; returns all requests that completed.
    pub fn tick(&mut self) -> Vec<Completion> {
        let mut done = Vec::new();
        for ch in &mut self.channels {
            ch.tick(self.now, &mut done);
        }
        self.now += 1;
        done
    }

    /// Earliest cycle ≥ [`now`](Self::now) at which a [`tick`](Self::tick)
    /// changes any channel's state (issues a command, starts a refresh, or
    /// completes a burst), or `u64::MAX` when none ever will (the system is
    /// drained and refresh is off). The bound is exact: ticking strictly
    /// before this cycle is a no-op, which is what lets an event-driven
    /// caller [`skip`](Self::skip) the gap, and the tick at it is not, even
    /// while the FR-FCFS starvation guard holds a channel's oldest request
    /// back. A channel that has only waited since its last tick answers
    /// from a cache instead of scanning its queue.
    pub fn next_event(&self) -> u64 {
        let mut ev = u64::MAX;
        for c in &self.channels {
            let e = c.next_event(self.now);
            if e <= self.now {
                // Already at the minimum possible value; skip the remaining
                // per-channel queue scans.
                return self.now;
            }
            ev = ev.min(e);
        }
        ev
    }

    /// Advances the clock by `cycles` without ticking the channels. Only
    /// sound when the span contains no event, i.e. `cycles` must not exceed
    /// `next_event() - now` — every skipped tick would have been a no-op.
    pub fn skip(&mut self, cycles: u64) {
        debug_assert!(
            self.now.saturating_add(cycles) <= self.next_event(),
            "skip({cycles}) at {} crosses an event at {}",
            self.now,
            self.next_event()
        );
        self.now += cycles;
    }

    /// Sets the clock to `now` (≥ the current clock) without ticking. Unlike
    /// [`skip`](Self::skip) this does not assert event-freedom: the parallel
    /// fast-forward driver uses it after shards have already processed the
    /// span's events on detached channels.
    pub fn advance_to(&mut self, now: u64) {
        debug_assert!(
            now >= self.now,
            "advance_to({now}) behind clock {}",
            self.now
        );
        self.now = now;
    }

    /// The nominal→serving channel remap as a vector, if any channel is
    /// offline.
    pub(crate) fn remap_vec(&self) -> Option<Vec<usize>> {
        self.remap.clone()
    }

    /// Serving channel index for a nominal channel index (public form of
    /// [`chan`](Self::chan), used by the shard-map builder).
    pub fn serving_channel(&self, nominal: usize) -> usize {
        self.chan(nominal)
    }

    /// Earliest event cycle for one channel (same contract as
    /// [`next_event`](Self::next_event), restricted to channel `ch`). Lets
    /// the parallel span driver count how many shards actually have work
    /// below a horizon before paying for a dispatch.
    pub fn channel_next_event(&self, ch: usize) -> u64 {
        self.channels[ch].next_event(self.now)
    }

    pub(crate) fn swap_channel(&mut self, idx: usize, ch: Channel) -> Channel {
        std::mem::replace(&mut self.channels[idx], ch)
    }

    /// Serializes the mutable memory-system state (clock plus per-channel
    /// snapshots). The config and offline-channel remap are *not* included:
    /// a resume rebuilds the system from the same config and replays
    /// `set_offline`, then overlays this snapshot.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("now", Json::from(self.now)),
            (
                "channels",
                Json::Arr(self.channels.iter().map(|c| c.snapshot()).collect()),
            ),
        ])
    }

    /// Restores state captured by [`snapshot`](Self::snapshot) into a
    /// system freshly built from the same config (and with the same
    /// offline channels already applied).
    ///
    /// # Errors
    ///
    /// Fails with a message when the snapshot shape does not match this
    /// system's configuration.
    pub fn restore(&mut self, j: &Json) -> Result<(), String> {
        let chans = plasticine_json::decode::arr_of(j, "channels")?;
        if chans.len() != self.channels.len() {
            return Err(format!(
                "channel count mismatch: snapshot {} vs config {}",
                chans.len(),
                self.channels.len()
            ));
        }
        for (ch, cj) in self.channels.iter_mut().zip(chans) {
            ch.restore(cj, &self.cfg)?;
        }
        self.now = plasticine_json::decode::u64_of(j, "now")?;
        Ok(())
    }

    /// Total column commands issued so far (lines read + written). The
    /// delta across one tick tells an event-driven caller whether queue
    /// capacity was freed this cycle.
    pub fn issued_columns(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.stats.reads + c.stats.writes)
            .sum()
    }

    /// Number of requests in flight (queued or awaiting data).
    pub fn pending(&self) -> usize {
        self.channels.iter().map(|c| c.pending()).sum()
    }

    /// Whether all queues are drained.
    pub fn idle(&self) -> bool {
        self.pending() == 0
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DramStats {
        let mut s = DramStats::default();
        for ch in &self.channels {
            s.add(&ch.stats);
        }
        s
    }

    /// Achieved bandwidth so far in bytes per cycle.
    pub fn achieved_bytes_per_cycle(&self) -> f64 {
        if self.now == 0 {
            return 0.0;
        }
        let s = self.stats();
        (s.reads + s.writes) as f64 * self.cfg.line_bytes as f64 / self.now as f64
    }
}

/// Splits a dense byte range into line-aligned line addresses — how an
/// address generator converts a burst command into DRAM requests.
pub fn lines_for_range(base: u64, len_bytes: u64, line_bytes: u64) -> impl Iterator<Item = u64> {
    let first = base / line_bytes;
    let last = if len_bytes == 0 {
        first
    } else {
        (base + len_bytes - 1) / line_bytes + 1
    };
    (first..last).map(move |l| l * line_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn no_refresh() -> DramConfig {
        DramConfig {
            refresh: false,
            ..DramConfig::default()
        }
    }

    #[test]
    fn dense_stream_saturates_most_of_peak() {
        let cfg = no_refresh();
        let peak = cfg.peak_bytes_per_cycle();
        let mut mem = DramSystem::new(cfg);
        let total_lines = 4096u64;
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut t = 0u64;
        while completed < total_lines {
            while issued < total_lines && mem.can_accept(issued * 64) {
                mem.push(MemRequest {
                    id: issued,
                    addr: issued * 64,
                    is_write: false,
                })
                .unwrap();
                issued += 1;
            }
            completed += mem.tick().len() as u64;
            t += 1;
            assert!(t < 200_000, "deadlock");
        }
        let achieved = total_lines as f64 * 64.0 / t as f64;
        assert!(
            achieved > 0.80 * peak,
            "achieved {achieved:.2} B/cy vs peak {peak:.2}"
        );
    }

    #[test]
    fn random_stream_is_much_slower_than_dense() {
        let cfg = no_refresh();
        let run = |addrs: &[u64]| {
            let mut mem = DramSystem::new(no_refresh());
            let mut issued = 0usize;
            let mut completed = 0usize;
            let mut t = 0u64;
            while completed < addrs.len() {
                while issued < addrs.len() && mem.can_accept(addrs[issued]) {
                    mem.push(MemRequest {
                        id: issued as u64,
                        addr: addrs[issued],
                        is_write: false,
                    })
                    .unwrap();
                    issued += 1;
                }
                completed += mem.tick().len();
                t += 1;
                assert!(t < 2_000_000, "deadlock");
            }
            t
        };
        let n = 2048u64;
        let dense: Vec<u64> = (0..n).map(|i| i * 64).collect();
        // Large-stride pseudo-random: every access a fresh row.
        let row_span = cfg.row_bytes * cfg.banks as u64 * cfg.ranks as u64 * cfg.channels as u64;
        let random: Vec<u64> = (0..n).map(|i| (i * 7 + 3) * row_span).collect();
        let t_dense = run(&dense);
        let t_random = run(&random);
        assert!(
            t_random > 3 * t_dense,
            "random {t_random} vs dense {t_dense}"
        );
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let mut mem = DramSystem::new(no_refresh());
        let n = 512u64;
        let mut seen = std::collections::HashMap::new();
        let mut issued = 0u64;
        let mut t = 0u64;
        while (seen.len() as u64) < n {
            while issued < n && mem.can_accept(issued * 4096) {
                mem.push(MemRequest {
                    id: issued,
                    addr: issued * 4096,
                    is_write: issued.is_multiple_of(3),
                })
                .unwrap();
                issued += 1;
            }
            for c in mem.tick() {
                *seen.entry(c.id).or_insert(0u32) += 1;
            }
            t += 1;
            assert!(t < 1_000_000, "deadlock");
        }
        assert!(seen.values().all(|&v| v == 1));
        assert!(mem.idle());
        let s = mem.stats();
        assert_eq!(s.reads + s.writes, n);
    }

    #[test]
    fn offline_channels_spill_onto_survivors() {
        let mut mem = DramSystem::new(no_refresh());
        let n_ch = mem.config().channels;
        assert!(n_ch > 1);
        // Everything offline is rejected and leaves the system untouched.
        let all: Vec<usize> = (0..n_ch).collect();
        assert!(!mem.set_offline(&all));
        // Channel 0 offline: its traffic completes on survivors.
        assert!(mem.set_offline(&[0]));
        for i in 0..64u64 {
            mem.push(MemRequest {
                id: i,
                addr: i * 64,
                is_write: false,
            })
            .unwrap();
        }
        let mut done = 0;
        for _ in 0..100_000 {
            done += mem.tick().len();
            if done == 64 {
                break;
            }
        }
        assert_eq!(done, 64);
        // The offline channel itself never serviced anything.
        assert_eq!(mem.channels[0].stats.reads, 0);
        assert_eq!(mem.stats().reads, 64);
    }

    /// Configurations where the FR-FCFS starvation guard binds: the fabric
    /// clocked 96× faster than the DRAM (`max_age` is then under two
    /// tRCDs) and a small `max_age` at 1 GHz, each with refresh on and off.
    fn guarded_configs() -> Vec<DramConfig> {
        [true, false]
            .into_iter()
            .flat_map(|refresh| {
                [
                    DramConfig {
                        core_ghz: 96.0,
                        refresh,
                        ..DramConfig::default()
                    },
                    DramConfig {
                        max_age: 24,
                        refresh,
                        ..DramConfig::default()
                    },
                ]
            })
            .collect()
    }

    /// Request `i` of a mixed stream: reads and writes spread evenly over
    /// the channels, with row hits, row conflicts and closed banks.
    fn mixed_request(i: u64) -> MemRequest {
        MemRequest {
            id: i,
            addr: ((i * 7919) % (1 << 14)) * 64,
            is_write: i.is_multiple_of(3),
        }
    }

    #[test]
    fn event_skipping_matches_cycle_stepping() {
        // Mixed read/write traffic with row hits, conflicts, and refresh on:
        // ticking only at next_event() times (skipping the gaps) must yield
        // the same completion times, stats, and final clock as ticking every
        // cycle — also where the starvation guard binds.
        let run = |cfg: &DramConfig, event_driven: bool| {
            let mut mem = DramSystem::new(cfg.clone());
            for i in 0..96u64 {
                mem.push(mixed_request(i)).unwrap();
            }
            let mut done: Vec<Completion> = Vec::new();
            while done.len() < 96 {
                if event_driven {
                    let ev = mem.next_event();
                    if ev > mem.now() {
                        mem.skip(ev - mem.now());
                    }
                }
                done.extend(mem.tick());
                assert!(mem.now() < 1_000_000, "deadlock");
            }
            done.sort_by_key(|c| (c.id, c.at));
            (done, mem.stats(), mem.now())
        };
        let mut configs = vec![DramConfig::default()];
        configs.extend(guarded_configs());
        for cfg in &configs {
            let (done_c, stats_c, now_c) = run(cfg, false);
            let (done_e, stats_e, now_e) = run(cfg, true);
            assert_eq!(done_c, done_e, "{cfg:?}");
            assert_eq!(stats_c, stats_e, "{cfg:?}");
            assert_eq!(now_c, now_e, "{cfg:?}");
        }
    }

    #[test]
    fn every_tick_at_next_event_does_something() {
        // Full queues under guard pressure, no further pushes: the event
        // bound is exact, so a tick at it always completes a burst, issues
        // a command or starts a refresh (each of which moves the stats).
        for cfg in guarded_configs() {
            let mut mem = DramSystem::new(cfg.clone());
            let full = (cfg.channels * cfg.queue_depth) as u64;
            for i in 0..full {
                mem.push(mixed_request(i)).unwrap();
            }
            let mut done = 0;
            while done < full {
                let ev = mem.next_event();
                assert_ne!(ev, u64::MAX, "{cfg:?}: requests left but no event");
                mem.skip(ev - mem.now());
                let before = mem.stats();
                let completed = mem.tick();
                assert!(
                    !completed.is_empty() || mem.stats() != before,
                    "{cfg:?}: the tick at next_event() = {ev} did nothing"
                );
                done += completed.len() as u64;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn cached_next_event_matches_full_scan(
            reqs in prop::collection::vec((0u64..(1 << 16), any::<bool>(), 0u64..40), 1..120),
            max_age in prop::sample::select(vec![8u64, 64, 2048]),
            refresh in any::<bool>(),
            queue_depth in 2usize..33,
            offline in prop::sample::select(vec![vec![], vec![1usize], vec![0, 2, 3]]),
        ) {
            // A random stream of (line, write, gap to the previous arrival),
            // stepped every cycle: before each tick the cached answer must
            // equal a full scan of every queue, and the tick must change
            // something exactly when that answer is the current cycle.
            let mut mem = DramSystem::new(DramConfig {
                max_age,
                refresh,
                queue_depth,
                ..DramConfig::default()
            });
            prop_assert!(mem.set_offline(&offline));
            let mut due = 0u64;
            let mut arrivals = reqs
                .iter()
                .enumerate()
                .map(|(i, &(line, is_write, gap))| {
                    due += gap;
                    (due, MemRequest { id: i as u64, addr: line * 64, is_write })
                })
                .peekable();
            let mut completed = 0;
            while completed < reqs.len() {
                while let Some(&(at, req)) = arrivals.peek() {
                    if at > mem.now() || mem.push(req).is_err() {
                        break;
                    }
                    arrivals.next();
                }
                let now = mem.now();
                let ev = mem.next_event();
                let scanned = mem
                    .channels
                    .iter()
                    .map(|c| c.scan_next_event(now))
                    .min()
                    .unwrap_or(u64::MAX);
                prop_assert_eq!(ev, scanned, "at cycle {}", now);
                if ev == u64::MAX && arrivals.peek().is_none_or(|&(at, _)| at <= now) {
                    // Requests are left, but nothing can ever change and no
                    // further push will land. With refresh off a channel
                    // stalls for good once the starvation guard holds a row
                    // conflict whose open row a younger queued request still
                    // wants: the conflict may not precharge, and the guard
                    // bars the row hit.
                    break;
                }
                let before = mem.stats();
                let done = mem.tick();
                let changed = !done.is_empty() || mem.stats() != before;
                prop_assert_eq!(changed, ev == now, "at cycle {}", now);
                completed += done.len();
                prop_assert!(now < 1_000_000, "deadlock");
            }
        }
    }

    #[test]
    fn lines_for_range_covers_and_aligns() {
        let lines: Vec<u64> = lines_for_range(100, 200, 64).collect();
        assert_eq!(lines, vec![64, 128, 192, 256]);
        assert_eq!(lines_for_range(0, 0, 64).count(), 0);
        assert_eq!(lines_for_range(0, 64, 64).count(), 1);
        assert_eq!(lines_for_range(0, 65, 64).count(), 2);
        assert_eq!(lines_for_range(63, 2, 64).count(), 2);
    }

    #[test]
    fn writes_complete_and_count() {
        let mut mem = DramSystem::new(no_refresh());
        for i in 0..16u64 {
            mem.push(MemRequest {
                id: i,
                addr: i * 64,
                is_write: true,
            })
            .unwrap();
        }
        let mut done = 0;
        for _ in 0..10_000 {
            done += mem.tick().len();
            if done == 16 {
                break;
            }
        }
        assert_eq!(done, 16);
        assert_eq!(mem.stats().writes, 16);
    }

    #[test]
    fn request_latencies_are_tracked() {
        let mut mem = DramSystem::new(no_refresh());
        for i in 0..8u64 {
            mem.push(MemRequest {
                id: i,
                addr: i * 64,
                is_write: i % 2 == 0,
            })
            .unwrap();
        }
        let mut done = 0;
        for _ in 0..10_000 {
            done += mem.tick().len();
            if done == 8 {
                break;
            }
        }
        assert_eq!(done, 8);
        let s = mem.stats();
        // Every request takes at least a burst, so summed latencies are
        // positive and the max bounds the mean.
        assert!(s.read_latency_cycles > 0);
        assert!(s.write_latency_cycles > 0);
        assert!(s.avg_read_latency() > 0.0);
        assert!(s.max_latency_cycles as f64 >= s.avg_read_latency());
        assert!(s.max_latency_cycles as f64 >= s.avg_write_latency());
    }
}

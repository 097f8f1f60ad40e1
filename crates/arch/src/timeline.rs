//! Online fault arrival: seeded, deterministic schedules of faults that
//! strike *while the fabric is serving traffic*.
//!
//! The static [`FaultMap`](crate::FaultMap) models a chip that is broken
//! before the run starts; a production fabric also degrades mid-run —
//! transient ECC upsets escalate into permanent unit death, links wear
//! out, DRAM channels go dark. A [`FaultTimeline`] is the arrival-side
//! counterpart: an ordered list of [`FaultEvent`]s that activate at
//! simulated cycles, plus an [`EccPolicy`] that promotes repeated
//! correctable errors on one unit into a permanent death.
//!
//! Everything is deterministic. [`FaultTimeline::sample`] draws a
//! timeline from a [`FaultTimelineSpec`] with the spec's seed, and the
//! same spec always yields byte-identical timelines — chaos soaks are as
//! reproducible as fault-free runs. The timeline participates in the
//! simulator's checkpoint options guard, so a checkpoint taken under a
//! timeline can only resume under the *same* timeline: replaying the
//! prefix of already-fired events at resume reconstructs the exact
//! degraded state the checkpoint was taken on.
//!
//! [`HealthMap`] is the service-side accumulator: one per chip, it
//! absorbs fabric-geometry arrivals reported by degraded tenants so the
//! scheduler can steer later placements away from dead regions.

use crate::fault::{FaultMap, FaultRng};
use crate::geom::{SiteId, SiteKind, SwitchId, Topology};
use crate::params::GridMix;
use crate::partition::Partition;
use std::fmt;

/// One fault arrival: what breaks when the event fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultArrival {
    /// A PCU or PMU site dies permanently.
    UnitDeath {
        /// The site that dies.
        site: SiteId,
        /// The site's kind (kept explicit so reports do not need a
        /// topology to classify the loss).
        kind: SiteKind,
    },
    /// An undirected switch-mesh link dies (canonical lower-id first).
    LinkDeath {
        /// Lower endpoint.
        a: SwitchId,
        /// Higher endpoint.
        b: SwitchId,
    },
    /// One scratchpad bank on a PMU site fails (capacity degradation).
    BankFailure {
        /// The PMU site losing a bank.
        site: SiteId,
    },
    /// A DRAM channel goes offline. The index is relative to the memory
    /// system the run simulates against (a tenant's channel share, not
    /// the chip's full channel space).
    ChannelFailure {
        /// The failing channel index.
        channel: usize,
    },
    /// Transient-fault rates escalate (rates only ever rise; each field
    /// is applied as a max with the current rate).
    TransientEscalation {
        /// New per-vector-issue lane bit-flip probability floor.
        lane: f64,
        /// New per-read-word scratchpad bit-flip probability floor.
        sram: f64,
        /// New per-response DRAM drop probability floor.
        drop: f64,
    },
}

impl FaultArrival {
    /// Folds this arrival into a live fault map.
    pub fn apply_to(&self, map: &mut FaultMap) {
        match self {
            FaultArrival::UnitDeath { site, kind } => {
                match kind {
                    SiteKind::Pcu => map.dead_pcus.insert(*site),
                    SiteKind::Pmu => map.dead_pmus.insert(*site),
                };
            }
            FaultArrival::LinkDeath { a, b } => {
                let key = if a <= b { (*a, *b) } else { (*b, *a) };
                map.dead_links.insert(key);
            }
            FaultArrival::BankFailure { site } => {
                *map.dead_banks.entry(*site).or_insert(0) += 1;
            }
            FaultArrival::ChannelFailure { channel } => {
                map.offline_channels.insert(*channel);
            }
            FaultArrival::TransientEscalation { lane, sram, drop } => {
                let t = &mut map.transient;
                t.lane_flip = t.lane_flip.max(*lane);
                t.sram_flip = t.sram_flip.max(*sram);
                t.dram_drop = t.dram_drop.max(*drop);
            }
        }
    }

    /// One-line human description for degradation reports.
    pub fn describe(&self) -> String {
        match self {
            FaultArrival::UnitDeath { site, kind } => {
                let k = match kind {
                    SiteKind::Pcu => "PCU",
                    SiteKind::Pmu => "PMU",
                };
                format!("{k} site {} died", site.0)
            }
            FaultArrival::LinkDeath { a, b } => {
                format!("link {}-{} died", a.0, b.0)
            }
            FaultArrival::BankFailure { site } => {
                format!("bank failed on PMU site {}", site.0)
            }
            FaultArrival::ChannelFailure { channel } => {
                format!("DRAM channel {channel} went offline")
            }
            FaultArrival::TransientEscalation { lane, sram, drop } => {
                format!("transient rates escalated to lane={lane} sram={sram} drop={drop}")
            }
        }
    }
}

/// One scheduled arrival: the simulated cycle it fires at and what
/// breaks.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Simulated cycle at which the arrival activates (fires at the top
    /// of this cycle, before the cycle begins).
    pub cycle: u64,
    /// What breaks.
    pub arrival: FaultArrival,
}

/// ECC-escalation policy: `threshold` correctable errors on one unit
/// within a sliding `window` of cycles promote the unit to a permanent
/// death. Inactive when either field is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EccPolicy {
    /// Correctable-error count that triggers escalation.
    pub threshold: u32,
    /// Sliding window, in cycles, over which errors are counted.
    pub window: u64,
}

impl EccPolicy {
    /// Whether the policy can ever escalate.
    pub fn active(&self) -> bool {
        self.threshold > 0 && self.window > 0
    }
}

/// A seeded, deterministic schedule of online fault arrivals plus the
/// ECC escalation policy. The default value is inert: no events, no
/// escalation — runs are bit-for-bit identical to builds that never
/// heard of timelines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultTimeline {
    /// Arrival events, sorted by cycle (stable order for same-cycle
    /// events: earlier in the vector fires first).
    pub events: Vec<FaultEvent>,
    /// ECC-threshold escalation policy.
    pub ecc: EccPolicy,
    /// Cycles between an impacting arrival (or ECC escalation) being
    /// observed and the kernel declaring the fabric degraded. During the
    /// window the run keeps executing while the `healing` overlay
    /// accrues — this models the detection/quiesce latency of a real
    /// fabric manager.
    pub detect_delay: u64,
    /// Seed the timeline was sampled from (0 for hand-built timelines).
    pub seed: u64,
}

impl FaultTimeline {
    /// Whether the timeline can never affect a run.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && !self.ecc.active()
    }

    /// The events with `cycle <= at`, in firing order (the prefix a
    /// resume at cycle `at` must replay).
    pub fn fired_by(&self, at: u64) -> &[FaultEvent] {
        let n = self.events.partition_point(|e| e.cycle <= at);
        &self.events[..n]
    }

    /// The earliest event cycle strictly greater than `after`, if any.
    pub fn next_after(&self, after: u64) -> Option<u64> {
        let n = self.events.partition_point(|e| e.cycle <= after);
        self.events.get(n).map(|e| e.cycle)
    }

    /// Samples a concrete timeline from a spec, deterministically from
    /// the spec's seed. `dram_channels` bounds sampled channel-failure
    /// indices (the channel count of the memory system the run simulates
    /// against). Events are sorted by cycle; same-spec same-seed
    /// sampling is byte-identical across runs.
    pub fn sample(
        topo: &Topology,
        spec: &FaultTimelineSpec,
        dram_channels: usize,
    ) -> FaultTimeline {
        let mut rng = FaultRng::new(spec.seed);
        let horizon = spec.horizon.max(1);
        let band = spec
            .band
            .map(|(rows, y0)| Partition::new(y0, rows, dram_channels.max(1)));
        let in_band_row = |y: usize| band.map(|b| b.contains_row(y)).unwrap_or(true);
        let in_band_switch = |topo: &Topology, s: SwitchId| {
            let (_, sy) = topo.switch_xy(s);
            band.map(|b| b.contains_switch_row(sy)).unwrap_or(true)
        };

        let unit_pool: Vec<(SiteId, SiteKind)> = topo
            .sites()
            .iter()
            .enumerate()
            .filter(|(_, s)| in_band_row(s.y))
            .map(|(i, s)| (SiteId(i as u32), s.kind))
            .collect();
        let pmu_pool: Vec<SiteId> = unit_pool
            .iter()
            .filter(|(_, k)| *k == SiteKind::Pmu)
            .map(|(s, _)| *s)
            .collect();
        let mut edges: Vec<(SwitchId, SwitchId)> = Vec::new();
        for s in 0..topo.num_switches() as u32 {
            let s = SwitchId(s);
            if !in_band_switch(topo, s) {
                continue;
            }
            for nb in topo.switch_neighbors(s) {
                if s < nb && in_band_switch(topo, nb) {
                    edges.push((s, nb));
                }
            }
        }

        let mut events: Vec<FaultEvent> = Vec::new();
        let cycle = |rng: &mut FaultRng| 1 + rng.below(horizon);
        {
            let mut left = unit_pool.clone();
            for _ in 0..spec.units.min(left.len()) {
                let at = cycle(&mut rng);
                let i = rng.below(left.len() as u64) as usize;
                let (site, kind) = left.swap_remove(i);
                events.push(FaultEvent {
                    cycle: at,
                    arrival: FaultArrival::UnitDeath { site, kind },
                });
            }
        }
        {
            let mut left = edges;
            for _ in 0..spec.links.min(left.len()) {
                let at = cycle(&mut rng);
                let i = rng.below(left.len() as u64) as usize;
                let (a, b) = left.swap_remove(i);
                events.push(FaultEvent {
                    cycle: at,
                    arrival: FaultArrival::LinkDeath { a, b },
                });
            }
        }
        if !pmu_pool.is_empty() {
            for _ in 0..spec.banks {
                let at = cycle(&mut rng);
                let site = pmu_pool[rng.below(pmu_pool.len() as u64) as usize];
                events.push(FaultEvent {
                    cycle: at,
                    arrival: FaultArrival::BankFailure { site },
                });
            }
        }
        if dram_channels > 0 {
            let mut left: Vec<usize> = (0..dram_channels).collect();
            for _ in 0..spec.channels.min(dram_channels) {
                let at = cycle(&mut rng);
                let i = rng.below(left.len() as u64) as usize;
                events.push(FaultEvent {
                    cycle: at,
                    arrival: FaultArrival::ChannelFailure {
                        channel: left.swap_remove(i),
                    },
                });
            }
        }
        // Escalations stay on the correctable rates (lane/sram); sampled
        // timelines never raise dram_drop, which would disable the
        // parallel fast-forward gate and blow up soak runtimes.
        const LADDER: [f64; 3] = [1e-7, 1e-6, 1e-5];
        for _ in 0..spec.escalations {
            let at = cycle(&mut rng);
            let lane = LADDER[rng.below(LADDER.len() as u64) as usize];
            let sram = LADDER[rng.below(LADDER.len() as u64) as usize];
            events.push(FaultEvent {
                cycle: at,
                arrival: FaultArrival::TransientEscalation {
                    lane,
                    sram,
                    drop: 0.0,
                },
            });
        }
        events.sort_by_key(|e| e.cycle);
        FaultTimeline {
            events,
            ecc: spec.ecc,
            detect_delay: spec.detect,
            seed: spec.seed,
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "no scheduled faults".to_string();
        }
        let mut s = format!("{} scheduled arrivals", self.events.len());
        if let Some(first) = self.events.first() {
            let last = self.events.last().expect("non-empty");
            s.push_str(&format!(" over cycles {}..={}", first.cycle, last.cycle));
        }
        if self.ecc.active() {
            s.push_str(&format!(
                "; ECC escalation at {} errors / {} cycles",
                self.ecc.threshold, self.ecc.window
            ));
        }
        if self.detect_delay > 0 {
            s.push_str(&format!("; detect delay {} cycles", self.detect_delay));
        }
        s
    }
}

/// A fault-timeline request, as written on the command line:
/// `units=2,links=1,banks=1,chans=1,esc=1,horizon=4096,seed=7,band=8@0,ecc=3@512,detect=16`.
///
/// All keys are optional; the default spec samples an empty timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimelineSpec {
    /// Scheduled unit (PCU/PMU) deaths.
    pub units: usize,
    /// Scheduled switch-link deaths.
    pub links: usize,
    /// Scheduled scratchpad-bank failures.
    pub banks: usize,
    /// Scheduled DRAM-channel failures.
    pub channels: usize,
    /// Scheduled transient-rate escalations.
    pub escalations: usize,
    /// Arrival cycles are drawn uniformly from `1..=horizon`.
    pub horizon: u64,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Restrict sampled sites/links to a fabric band `(rows, y0)` — lets
    /// a test aim the timeline at one tenant deterministically.
    pub band: Option<(usize, usize)>,
    /// ECC-threshold escalation policy.
    pub ecc: EccPolicy,
    /// Detection delay in cycles before a degraded exit.
    pub detect: u64,
}

impl Default for FaultTimelineSpec {
    fn default() -> FaultTimelineSpec {
        FaultTimelineSpec {
            units: 0,
            links: 0,
            banks: 0,
            channels: 0,
            escalations: 0,
            horizon: 4096,
            seed: 0,
            band: None,
            ecc: EccPolicy::default(),
            detect: 8,
        }
    }
}

/// A malformed `--fault-timeline` spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineSpecError(String);

impl fmt::Display for TimelineSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault timeline spec: {} (expected comma-separated key=value with \
             keys units, links, banks, chans, esc, horizon, seed, band=ROWS@Y0, \
             ecc=THRESHOLD@WINDOW, detect)",
            self.0
        )
    }
}

impl std::error::Error for TimelineSpecError {}

impl std::str::FromStr for FaultTimelineSpec {
    type Err = TimelineSpecError;

    fn from_str(s: &str) -> Result<FaultTimelineSpec, TimelineSpecError> {
        let mut spec = FaultTimelineSpec::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((key, val)) = part.split_once('=') else {
                return Err(TimelineSpecError(format!("`{part}` is not key=value")));
            };
            let count = || -> Result<usize, TimelineSpecError> {
                val.parse()
                    .map_err(|_| TimelineSpecError(format!("`{val}` is not a count for `{key}`")))
            };
            let cycles = || -> Result<u64, TimelineSpecError> {
                val.parse().map_err(|_| {
                    TimelineSpecError(format!("`{val}` is not a cycle count for `{key}`"))
                })
            };
            match key {
                "unit" | "units" => spec.units = count()?,
                "link" | "links" => spec.links = count()?,
                "bank" | "banks" => spec.banks = count()?,
                "chan" | "chans" | "channels" => spec.channels = count()?,
                "esc" | "escalations" => spec.escalations = count()?,
                "horizon" => {
                    let h = cycles()?;
                    if h == 0 {
                        return Err(TimelineSpecError("`horizon=0` is empty".to_string()));
                    }
                    spec.horizon = h;
                }
                "seed" => {
                    spec.seed = val
                        .parse()
                        .map_err(|_| TimelineSpecError(format!("`{val}` is not a seed")))?
                }
                "band" => {
                    let Some((rows, y0)) = val.split_once('@') else {
                        return Err(TimelineSpecError(format!("`band={val}` is not ROWS@Y0")));
                    };
                    let rows: usize = rows
                        .parse()
                        .map_err(|_| TimelineSpecError(format!("`{rows}` is not a row count")))?;
                    let y0: usize = y0
                        .parse()
                        .map_err(|_| TimelineSpecError(format!("`{y0}` is not a row offset")))?;
                    if rows == 0 {
                        return Err(TimelineSpecError("`band` rows must be > 0".to_string()));
                    }
                    spec.band = Some((rows, y0));
                }
                "ecc" => {
                    let Some((t, w)) = val.split_once('@') else {
                        return Err(TimelineSpecError(format!(
                            "`ecc={val}` is not THRESHOLD@WINDOW"
                        )));
                    };
                    let threshold: u32 = t.parse().map_err(|_| {
                        TimelineSpecError(format!("`{t}` is not an error threshold"))
                    })?;
                    let window: u64 = w
                        .parse()
                        .map_err(|_| TimelineSpecError(format!("`{w}` is not a window length")))?;
                    spec.ecc = EccPolicy { threshold, window };
                }
                "detect" => spec.detect = cycles()?,
                _ => return Err(TimelineSpecError(format!("unknown key `{key}`"))),
            }
        }
        Ok(spec)
    }
}

/// Live per-chip health: the hard faults the chip has accumulated since
/// boot, absorbed from degraded tenants' reports. The service scheduler
/// consults it to keep new placements off dead regions and feeds it to
/// degraded recompiles.
///
/// Only fabric-geometry arrivals (unit, link, bank) are absorbed:
/// channel failures in a tenant's report are indices into that tenant's
/// private channel share, and transient escalations are per-run rates —
/// neither names a chip-level resource.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthMap {
    faults: FaultMap,
}

impl HealthMap {
    /// A pristine chip.
    pub fn new() -> HealthMap {
        HealthMap::default()
    }

    /// The accumulated hard faults.
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    /// Whether the chip has accumulated any hard fault.
    pub fn any(&self) -> bool {
        self.faults.has_hard_faults()
    }

    /// Absorbs one arrival. Returns whether the map changed (channel
    /// failures and transient escalations are ignored; see the type
    /// docs).
    pub fn absorb(&mut self, a: &FaultArrival) -> bool {
        match a {
            FaultArrival::UnitDeath { .. }
            | FaultArrival::LinkDeath { .. }
            | FaultArrival::BankFailure { .. } => {
                a.apply_to(&mut self.faults);
                true
            }
            FaultArrival::ChannelFailure { .. } | FaultArrival::TransientEscalation { .. } => false,
        }
    }

    /// Whether a fabric band contains no accumulated fault: no dead
    /// site, no degraded bank, and no dead link touching the band's
    /// switch rows. Healthy bands can run unmodified (pattern-equivalent)
    /// bitstreams; unhealthy ones need a degraded recompile.
    pub fn band_is_healthy(&self, topo: &Topology, p: &Partition) -> bool {
        let site_in_band = |s: &SiteId| p.contains_row(topo.site(*s).y);
        if self.faults.dead_pcus.iter().any(site_in_band)
            || self.faults.dead_pmus.iter().any(site_in_band)
            || self.faults.dead_banks.keys().any(site_in_band)
        {
            return false;
        }
        !self.faults.dead_links.iter().any(|(a, b)| {
            let (_, ay) = topo.switch_xy(*a);
            let (_, by) = topo.switch_xy(*b);
            p.contains_switch_row(ay) || p.contains_switch_row(by)
        })
    }

    /// The lowest healthy band pattern-equivalent to `like` on a chip
    /// where only `avoid` (a co-resident tenant's band, if any) is taken:
    /// the same height and channel share at a `y0` congruent to `like.y0`
    /// modulo the grid mix's vertical period, so `like`'s bitstream
    /// relocates onto it unmodified, sharing no row with `avoid`. It may
    /// be `like` itself. `None` when faults or `avoid` cover every such
    /// offset.
    pub fn lowest_healthy_band(
        &self,
        topo: &Topology,
        like: &Partition,
        mix: GridMix,
        avoid: Option<&Partition>,
    ) -> Option<Partition> {
        let period = mix.vertical_period().max(1);
        (like.y0 % period..)
            .step_by(period)
            .take_while(|y0| y0 + like.rows <= topo.rows())
            .map(|y0| Partition::new(y0, like.rows, like.channels))
            .find(|p| !avoid.is_some_and(|a| a.overlaps(p)) && self.band_is_healthy(topo, p))
    }

    /// The accumulated faults merged over a base map (set unions; the
    /// higher transient rates win). Feed the result to a degraded
    /// recompile.
    pub fn merged(&self, base: &FaultMap) -> FaultMap {
        let mut out = base.clone();
        out.dead_pcus.extend(self.faults.dead_pcus.iter().copied());
        out.dead_pmus.extend(self.faults.dead_pmus.iter().copied());
        out.dead_links
            .extend(self.faults.dead_links.iter().copied());
        for (s, n) in &self.faults.dead_banks {
            let e = out.dead_banks.entry(*s).or_insert(0);
            *e = (*e).max(*n);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PlasticineParams;

    fn topo() -> Topology {
        Topology::new(&PlasticineParams::paper_final())
    }

    #[test]
    fn default_timeline_is_inert() {
        let t = FaultTimeline::default();
        assert!(t.is_empty());
        assert_eq!(t.fired_by(u64::MAX).len(), 0);
        assert_eq!(t.next_after(0), None);
        assert_eq!(t.summary(), "no scheduled faults");
    }

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let t = topo();
        let spec: FaultTimelineSpec = "units=3,links=2,banks=2,chans=1,esc=1,horizon=1000,seed=42"
            .parse()
            .unwrap();
        let a = FaultTimeline::sample(&t, &spec, 4);
        let b = FaultTimeline::sample(&t, &spec, 4);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 3 + 2 + 2 + 1 + 1);
        for e in &a.events {
            assert!((1..=1000).contains(&e.cycle));
        }
        // Sorted by cycle.
        for w in a.events.windows(2) {
            assert!(w[0].cycle <= w[1].cycle);
        }
    }

    #[test]
    fn band_restriction_confines_sites_and_links() {
        let t = topo();
        let spec: FaultTimelineSpec = "units=6,links=4,banks=3,horizon=500,seed=9,band=4@4"
            .parse()
            .unwrap();
        let tl = FaultTimeline::sample(&t, &spec, 2);
        assert!(!tl.events.is_empty());
        let band = Partition::new(4, 4, 2);
        for e in &tl.events {
            match &e.arrival {
                FaultArrival::UnitDeath { site, kind } => {
                    let s = t.site(*site);
                    assert!(band.contains_row(s.y));
                    assert_eq!(s.kind, *kind);
                }
                FaultArrival::BankFailure { site } => {
                    let s = t.site(*site);
                    assert!(band.contains_row(s.y));
                    assert_eq!(s.kind, SiteKind::Pmu);
                }
                FaultArrival::LinkDeath { a, b } => {
                    assert!(a < b);
                    assert_eq!(t.switch_distance(*a, *b), 1);
                    let (_, ay) = t.switch_xy(*a);
                    let (_, by) = t.switch_xy(*b);
                    assert!(band.contains_switch_row(ay));
                    assert!(band.contains_switch_row(by));
                }
                other => panic!("unexpected arrival {other:?}"),
            }
        }
    }

    #[test]
    fn fired_by_and_next_after_split_the_schedule() {
        let mk = |cycle| FaultEvent {
            cycle,
            arrival: FaultArrival::ChannelFailure { channel: 0 },
        };
        let tl = FaultTimeline {
            events: vec![mk(10), mk(10), mk(25), mk(40)],
            ..FaultTimeline::default()
        };
        assert_eq!(tl.fired_by(9).len(), 0);
        assert_eq!(tl.fired_by(10).len(), 2);
        assert_eq!(tl.fired_by(39).len(), 3);
        assert_eq!(tl.fired_by(40).len(), 4);
        assert_eq!(tl.next_after(0), Some(10));
        assert_eq!(tl.next_after(10), Some(25));
        assert_eq!(tl.next_after(25), Some(40));
        assert_eq!(tl.next_after(40), None);
    }

    #[test]
    fn arrivals_fold_into_a_fault_map() {
        let mut m = FaultMap::default();
        FaultArrival::UnitDeath {
            site: SiteId(3),
            kind: SiteKind::Pcu,
        }
        .apply_to(&mut m);
        FaultArrival::UnitDeath {
            site: SiteId(4),
            kind: SiteKind::Pmu,
        }
        .apply_to(&mut m);
        FaultArrival::LinkDeath {
            a: SwitchId(7),
            b: SwitchId(2),
        }
        .apply_to(&mut m);
        FaultArrival::BankFailure { site: SiteId(4) }.apply_to(&mut m);
        FaultArrival::BankFailure { site: SiteId(4) }.apply_to(&mut m);
        FaultArrival::ChannelFailure { channel: 1 }.apply_to(&mut m);
        FaultArrival::TransientEscalation {
            lane: 1e-6,
            sram: 0.0,
            drop: 0.0,
        }
        .apply_to(&mut m);
        assert!(m.dead_pcus.contains(&SiteId(3)));
        assert!(m.dead_pmus.contains(&SiteId(4)));
        assert!(m.link_is_dead(SwitchId(2), SwitchId(7)));
        assert_eq!(m.dead_banks[&SiteId(4)], 2);
        assert!(m.offline_channels.contains(&1));
        assert_eq!(m.transient.lane_flip, 1e-6);
        // Escalation is monotone: a lower later rate does not lower it.
        FaultArrival::TransientEscalation {
            lane: 1e-7,
            sram: 0.0,
            drop: 0.0,
        }
        .apply_to(&mut m);
        assert_eq!(m.transient.lane_flip, 1e-6);
    }

    #[test]
    fn spec_parser_accepts_full_grammar() {
        let s: FaultTimelineSpec =
            "units=2,links=1,banks=3,chans=1,esc=2,horizon=9000,seed=7,band=8@4,ecc=3@512,detect=16"
                .parse()
                .unwrap();
        assert_eq!(s.units, 2);
        assert_eq!(s.links, 1);
        assert_eq!(s.banks, 3);
        assert_eq!(s.channels, 1);
        assert_eq!(s.escalations, 2);
        assert_eq!(s.horizon, 9000);
        assert_eq!(s.seed, 7);
        assert_eq!(s.band, Some((8, 4)));
        assert_eq!(
            s.ecc,
            EccPolicy {
                threshold: 3,
                window: 512
            }
        );
        assert_eq!(s.detect, 16);
        let empty: FaultTimelineSpec = "".parse().unwrap();
        assert_eq!(empty, FaultTimelineSpec::default());
    }

    #[test]
    fn spec_parser_rejects_garbage() {
        assert!("units".parse::<FaultTimelineSpec>().is_err());
        assert!("units=abc".parse::<FaultTimelineSpec>().is_err());
        assert!("frobnicate=1".parse::<FaultTimelineSpec>().is_err());
        assert!("horizon=0".parse::<FaultTimelineSpec>().is_err());
        assert!("band=8".parse::<FaultTimelineSpec>().is_err());
        assert!("band=0@4".parse::<FaultTimelineSpec>().is_err());
        assert!("ecc=3".parse::<FaultTimelineSpec>().is_err());
    }

    #[test]
    fn health_map_tracks_band_health() {
        let t = topo();
        let mut h = HealthMap::new();
        assert!(!h.any());
        let band_lo = Partition::new(0, 4, 2);
        let band_hi = Partition::new(4, 4, 2);
        assert!(h.band_is_healthy(&t, &band_lo));
        assert!(h.band_is_healthy(&t, &band_hi));

        // Kill a unit in rows 8..12.
        let victim = t
            .sites_of(SiteKind::Pcu)
            .into_iter()
            .find(|s| band_hi.contains_row(t.site(*s).y))
            .unwrap();
        assert!(h.absorb(&FaultArrival::UnitDeath {
            site: victim,
            kind: SiteKind::Pcu,
        }));
        assert!(h.any());
        assert!(h.band_is_healthy(&t, &band_lo));
        assert!(!h.band_is_healthy(&t, &band_hi));

        // Channel failures and escalations are not chip-level facts.
        assert!(!h.absorb(&FaultArrival::ChannelFailure { channel: 0 }));
        assert!(!h.absorb(&FaultArrival::TransientEscalation {
            lane: 1e-6,
            sram: 0.0,
            drop: 0.0,
        }));

        // A dead link on the boundary row of a band marks it unhealthy.
        let s0 = t.switch_at(0, 4);
        let s1 = t.switch_at(1, 4);
        assert!(h.absorb(&FaultArrival::LinkDeath { a: s0, b: s1 }));
        assert!(!h.band_is_healthy(&t, &band_lo));

        let merged = h.merged(&FaultMap::default());
        assert!(merged.dead_pcus.contains(&victim));
        assert!(merged.link_is_dead(s0, s1));
    }

    #[test]
    fn lowest_healthy_band_keeps_the_pattern_phase() {
        let t = topo();
        let mix = GridMix::Checkerboard;
        let mut h = HealthMap::new();
        // Pristine: the lowest offset of the same parity, whatever `like` is.
        let like = Partition::new(5, 2, 1);
        assert_eq!(
            h.lowest_healthy_band(&t, &like, mix, None),
            Some(Partition::new(1, 2, 1))
        );
        // Kill a unit in rows 1..3: the next same-parity offset is 3.
        let victim = t
            .sites_of(SiteKind::Pcu)
            .into_iter()
            .find(|s| t.site(*s).y == 1)
            .unwrap();
        h.absorb(&FaultArrival::UnitDeath {
            site: victim,
            kind: SiteKind::Pcu,
        });
        assert_eq!(
            h.lowest_healthy_band(&t, &like, mix, None),
            Some(Partition::new(3, 2, 1))
        );
        // A band as tall as the chip has one offset; damage rules it out.
        let whole = Partition::new(0, t.rows(), 1);
        assert_eq!(h.lowest_healthy_band(&t, &whole, mix, None), None);
        // A co-resident band over rows 3..5 rules out offset 3; the next
        // healthy same-parity offset is 5.
        assert_eq!(t.rows(), 8);
        let other = Partition::new(3, 2, 1);
        assert_eq!(
            h.lowest_healthy_band(&t, &like, mix, Some(&other)),
            Some(Partition::new(5, 2, 1))
        );
        // One over rows 4..6 overlaps both offsets the damage left.
        let other = Partition::new(4, 2, 1);
        assert_eq!(h.lowest_healthy_band(&t, &like, mix, Some(&other)), None);
        // One that shares no row with the band (rows 0..1) takes nothing.
        let apart = Partition::new(0, 1, 1);
        assert_eq!(
            h.lowest_healthy_band(&t, &like, mix, Some(&apart)),
            Some(Partition::new(3, 2, 1))
        );
    }
}

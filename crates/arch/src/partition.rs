//! Fabric partitions: space-sharing one chip across tenants.
//!
//! A [`Partition`] is a full-width horizontal band of the unit grid plus a
//! DRAM-channel share. Bands span every column because address generators
//! live only on the chip's left/right edges (Figure 5): a full-width band
//! at any vertical offset owns the same *shape* of resources — `rows ×
//! cols` unit sites, `(rows+1) × (cols+1)` switches, and `4 × rows` edge
//! AGs — which is what makes compiled bitstreams *relocatable*: the same
//! program compiled for the same band geometry at a pattern-equivalent
//! offset (congruent modulo the grid mix's
//! [vertical period](GridMix::vertical_period) — any offset for a
//! column-striped mix, same parity for the checkerboard) is the same
//! placement translated vertically.
//!
//! To every other tenant a partition is simply dead fabric:
//! [`Partition::mask`] renders the band's complement as a [`FaultMap`]
//! (dead sites outside the band, dead links crossing or outside the band's
//! switch rectangle), which the compiler's existing fault-blacklisting
//! place-and-route consumes unchanged.
//!
//! [`PartitionTable`] is the chip-level allocation map: disjoint bands +
//! a channel budget, with best-fit allocation for the scheduler.

use crate::fault::FaultMap;
use crate::geom::{AgId, SiteId, SwitchId, Topology};
use crate::params::{GridMix, PlasticineParams};
use std::fmt;

/// A rectangular (full-width band) region of the fabric plus a
/// DRAM-channel share.
///
/// The band covers unit-grid rows `y0 .. y0+rows` across every column,
/// the switch rows `y0 ..= y0+rows` (adjacent bands share one boundary
/// switch row; links *crossing* the boundary are masked, so no traffic
/// leaks between bands), and the edge AGs attached to switch rows
/// `y0 .. y0+rows` — the top boundary row's AGs are excluded so every
/// band of `r` rows owns exactly `4r` AGs regardless of offset.
///
/// `channels` is the tenant's DRAM-channel share (its credit weight in
/// the round-robin arbiter): the tenant runs against a memory system of
/// that many channels, disjoint from every co-tenant's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Partition {
    /// First unit-grid row of the band.
    pub y0: usize,
    /// Height of the band in unit-grid rows.
    pub rows: usize,
    /// DRAM channels owned (the tenant's arbitration credit weight).
    pub channels: usize,
}

impl Partition {
    /// A band of `rows` rows at offset `y0` owning `channels` DRAM
    /// channels.
    pub fn new(y0: usize, rows: usize, channels: usize) -> Partition {
        Partition { y0, rows, channels }
    }

    /// The whole chip as one partition.
    pub fn full(params: &PlasticineParams) -> Partition {
        Partition {
            y0: 0,
            rows: params.rows,
            channels: params.coalescing_units,
        }
    }

    /// Whether the two bands share a fabric row.
    pub fn overlaps(&self, other: &Partition) -> bool {
        self.y0 < other.y0 + other.rows && other.y0 < self.y0 + self.rows
    }

    /// Whether this partition covers the entire chip.
    pub fn is_full(&self, params: &PlasticineParams) -> bool {
        *self == Partition::full(params)
    }

    /// Checks the band against a parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`PartitionSpecError`] naming the violated constraint.
    pub fn validate(&self, params: &PlasticineParams) -> Result<(), PartitionSpecError> {
        if self.rows == 0 {
            return Err(PartitionSpecError(
                "partition needs at least one row".into(),
            ));
        }
        if self.y0 + self.rows > params.rows {
            return Err(PartitionSpecError(format!(
                "partition rows {}..{} exceed the {}-row fabric",
                self.y0,
                self.y0 + self.rows,
                params.rows
            )));
        }
        if self.channels == 0 {
            return Err(PartitionSpecError(
                "partition needs at least one DRAM channel".into(),
            ));
        }
        if self.channels > params.coalescing_units {
            return Err(PartitionSpecError(format!(
                "partition wants {} DRAM channels, chip has {}",
                self.channels, params.coalescing_units
            )));
        }
        Ok(())
    }

    /// Whether a unit-grid row is inside the band.
    pub fn contains_row(&self, y: usize) -> bool {
        (self.y0..self.y0 + self.rows).contains(&y)
    }

    /// Whether a switch-grid row is inside the band's switch rectangle
    /// (both boundary rows included).
    pub fn contains_switch_row(&self, sy: usize) -> bool {
        (self.y0..=self.y0 + self.rows).contains(&sy)
    }

    /// Placement centroid fallback: the geometric center of the band.
    pub fn center(&self, params: &PlasticineParams) -> (f64, f64) {
        (
            (params.cols as f64 - 1.0) / 2.0,
            self.y0 as f64 + (self.rows as f64 - 1.0) / 2.0,
        )
    }

    /// The AGs the band owns: those attached to switch rows
    /// `y0 .. y0+rows` (top boundary row excluded), in raw-id order.
    /// On the paper topology this is exactly `4 * rows` AGs at any
    /// offset, and the id order is translation-equivariant.
    pub fn ag_pool(&self, topo: &Topology) -> Vec<AgId> {
        (0..topo.num_ags() as u32)
            .map(AgId)
            .filter(|&a| {
                let (_, sy) = topo.switch_xy(topo.ag_switch(a));
                sy >= self.y0 && sy < self.y0 + self.rows
            })
            .collect()
    }

    /// Renders everything *outside* the band as a fault map: dead unit
    /// sites off the band, and dead mesh links except those joining two
    /// switches inside the band's switch rectangle. Merging this into the
    /// compile-time fault map confines placement and routing to the band.
    pub fn mask(&self, topo: &Topology) -> FaultMap {
        let mut m = FaultMap::default();
        for (i, s) in topo.sites().iter().enumerate() {
            if !self.contains_row(s.y) {
                let id = SiteId(i as u32);
                match s.kind {
                    crate::geom::SiteKind::Pcu => m.dead_pcus.insert(id),
                    crate::geom::SiteKind::Pmu => m.dead_pmus.insert(id),
                };
            }
        }
        for s in 0..topo.num_switches() as u32 {
            let s = SwitchId(s);
            let (_, sy) = topo.switch_xy(s);
            for nb in topo.switch_neighbors(s) {
                if s >= nb {
                    continue;
                }
                let (_, ny) = topo.switch_xy(nb);
                if !(self.contains_switch_row(sy) && self.contains_switch_row(ny)) {
                    m.dead_links.insert((s, nb));
                }
            }
        }
        m
    }

    /// Merges this band's mask into an existing fault map (union of hard
    /// faults; transient rates and offline channels are left alone — they
    /// belong to the run, not the geometry).
    pub fn masked(&self, topo: &Topology, faults: &FaultMap) -> FaultMap {
        let mask = self.mask(topo);
        let mut out = faults.clone();
        out.dead_pcus.extend(mask.dead_pcus);
        out.dead_pmus.extend(mask.dead_pmus);
        out.dead_links.extend(mask.dead_links);
        out
    }

    /// The same band translated to offset `y0` (geometry and channel
    /// share preserved).
    pub fn at_offset(&self, y0: usize) -> Partition {
        Partition { y0, ..*self }
    }

    /// The band translated to offset 0 — the canonical representative of
    /// its geometry class, used to hash configs offset-independently.
    pub fn normalized(&self) -> Partition {
        self.at_offset(0)
    }

    /// Whether a band at `other`'s offset covers the same PCU/PMU site
    /// pattern as this one — i.e. whether a bitstream compiled for one
    /// band relocates onto the other. Requires equal height and offsets
    /// congruent modulo the mix's
    /// [vertical period](GridMix::vertical_period); the channel share is
    /// a runtime resource, not bitstream geometry, so it is ignored.
    pub fn pattern_equivalent(&self, other: &Partition, mix: GridMix) -> bool {
        let period = mix.vertical_period();
        self.rows == other.rows && self.y0 % period == other.y0 % period
    }

    /// Translates a unit site by `dy` band rows (row-major grid).
    pub fn relocate_site(s: SiteId, dy: i64, cols: usize) -> SiteId {
        SiteId((s.0 as i64 + dy * cols as i64) as u32)
    }

    /// Translates a switch by `dy` switch rows (row-major switch grid).
    pub fn relocate_switch(s: SwitchId, dy: i64, switch_cols: usize) -> SwitchId {
        SwitchId((s.0 as i64 + dy * switch_cols as i64) as u32)
    }

    /// Translates an edge AG by `dy` rows: AG ids interleave
    /// left/right per row and wrap per `switch_rows` duplicate block
    /// ([`Topology::ag_switch`]), so the row component shifts while side
    /// and duplicate index are preserved.
    pub fn relocate_ag(a: AgId, dy: i64, switch_rows: usize) -> AgId {
        let i = a.0 as usize;
        let side = i % 2;
        let q = i / 2;
        let row = q % switch_rows;
        let dup = q / switch_rows;
        let new_row = (row as i64 + dy) as usize;
        AgId((2 * (dup * switch_rows + new_row) + side) as u32)
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}/{}", self.rows, self.y0, self.channels)
    }
}

/// A malformed or invalid partition spec (`ROWS@Y0/CHANNELS`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpecError(pub String);

impl fmt::Display for PartitionSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad partition: {}", self.0)
    }
}

impl std::error::Error for PartitionSpecError {}

impl std::str::FromStr for Partition {
    type Err = PartitionSpecError;

    /// Parses `ROWS@Y0/CHANNELS` (e.g. `4@0/2`); `/CHANNELS` defaults
    /// to 1.
    fn from_str(s: &str) -> Result<Partition, PartitionSpecError> {
        let (geom, channels) = match s.split_once('/') {
            Some((g, c)) => {
                let channels: usize = c
                    .parse()
                    .map_err(|_| PartitionSpecError(format!("`{c}` is not a channel count")))?;
                (g, channels)
            }
            None => (s, 1),
        };
        let Some((rows, y0)) = geom.split_once('@') else {
            return Err(PartitionSpecError(format!(
                "`{s}` is not ROWS@Y0[/CHANNELS]"
            )));
        };
        let rows: usize = rows
            .parse()
            .map_err(|_| PartitionSpecError(format!("`{rows}` is not a row count")))?;
        let y0: usize = y0
            .parse()
            .map_err(|_| PartitionSpecError(format!("`{y0}` is not a row offset")))?;
        Ok(Partition { y0, rows, channels })
    }
}

/// The chip-level partition table: which bands and channels are taken.
///
/// Allocation is best-fit: the smallest free contiguous row gap that
/// holds the request wins (ties broken toward the lowest offset), and the
/// partition lands at the bottom of its gap — both choices deterministic
/// so the scheduler replays identically.
#[derive(Debug, Clone)]
pub struct PartitionTable {
    rows: usize,
    channels: usize,
    taken: Vec<Partition>,
}

impl PartitionTable {
    /// An empty table over a chip's fabric rows and DRAM channels.
    pub fn new(params: &PlasticineParams) -> PartitionTable {
        PartitionTable {
            rows: params.rows,
            channels: params.coalescing_units,
            taken: Vec::new(),
        }
    }

    /// Currently allocated partitions, sorted by offset.
    pub fn partitions(&self) -> &[Partition] {
        &self.taken
    }

    /// Unallocated fabric rows.
    pub fn free_rows(&self) -> usize {
        self.rows - self.taken.iter().map(|p| p.rows).sum::<usize>()
    }

    /// Unallocated DRAM channels.
    pub fn free_channels(&self) -> usize {
        self.channels - self.taken.iter().map(|p| p.channels).sum::<usize>()
    }

    /// Free contiguous row gaps as `(y0, rows)`, in offset order.
    pub fn gaps(&self) -> Vec<(usize, usize)> {
        let mut gaps = Vec::new();
        let mut cursor = 0;
        for p in &self.taken {
            if p.y0 > cursor {
                gaps.push((cursor, p.y0 - cursor));
            }
            cursor = p.y0 + p.rows;
        }
        if cursor < self.rows {
            gaps.push((cursor, self.rows - cursor));
        }
        gaps
    }

    /// Best-fit placement for a request, without allocating: the
    /// smallest gap that fits, lowest offset on ties. `None` when no gap
    /// is tall enough or the channel budget is exhausted.
    pub fn fit(&self, rows: usize, channels: usize) -> Option<Partition> {
        if rows == 0 || channels == 0 || channels > self.free_channels() {
            return None;
        }
        self.gaps()
            .into_iter()
            .filter(|&(_, h)| h >= rows)
            .min_by_key(|&(y0, h)| (h, y0))
            .map(|(y0, _)| Partition { y0, rows, channels })
    }

    /// Best-fit allocation: [`fit`](Self::fit) + insert.
    pub fn allocate(&mut self, rows: usize, channels: usize) -> Option<Partition> {
        let p = self.fit(rows, channels)?;
        self.insert(p).expect("fit() result must insert cleanly");
        Some(p)
    }

    /// Best-fit placement restricted to offsets pattern-equivalent to
    /// `anchor_y0` (congruent modulo the mix's
    /// [vertical period](GridMix::vertical_period)), so a checkpointed
    /// bitstream relocates onto the result. Within each gap the start is
    /// rounded up to the first compatible offset; ties break as in
    /// [`fit`](Self::fit) (smallest gap, then lowest offset).
    pub fn fit_compatible(
        &self,
        rows: usize,
        channels: usize,
        anchor_y0: usize,
        mix: GridMix,
    ) -> Option<Partition> {
        if rows == 0 || channels == 0 || channels > self.free_channels() {
            return None;
        }
        let period = mix.vertical_period();
        let aligned = |y0: usize| {
            let rem = (anchor_y0 + period - y0 % period) % period;
            y0 + rem
        };
        self.gaps()
            .into_iter()
            .filter_map(|(y0, h)| {
                let a = aligned(y0);
                (a + rows <= y0 + h).then_some((h, a))
            })
            .min()
            .map(|(_, y0)| Partition { y0, rows, channels })
    }

    /// Pattern-compatible allocation:
    /// [`fit_compatible`](Self::fit_compatible) + insert.
    pub fn allocate_compatible(
        &mut self,
        rows: usize,
        channels: usize,
        anchor_y0: usize,
        mix: GridMix,
    ) -> Option<Partition> {
        let p = self.fit_compatible(rows, channels, anchor_y0, mix)?;
        self.insert(p)
            .expect("fit_compatible() must insert cleanly");
        Some(p)
    }

    /// Like [`fit`](Self::fit), but only offsets whose band satisfies
    /// `ok` qualify (e.g. [`HealthMap::band_is_healthy`] steering
    /// placements off dead fabric regions). Unlike `fit`, every offset
    /// inside a gap is considered, not just the gap bottom: a fault in
    /// the middle of a tall gap must not disqualify the whole gap.
    /// Selection order stays deterministic — smallest gap first, then
    /// lowest qualifying offset.
    ///
    /// [`HealthMap::band_is_healthy`]: crate::HealthMap::band_is_healthy
    pub fn fit_where(
        &self,
        rows: usize,
        channels: usize,
        ok: impl Fn(&Partition) -> bool,
    ) -> Option<Partition> {
        self.fit_stepped(rows, channels, 0, 1, ok)
    }

    /// [`fit_where`](Self::fit_where) + insert.
    pub fn allocate_where(
        &mut self,
        rows: usize,
        channels: usize,
        ok: impl Fn(&Partition) -> bool,
    ) -> Option<Partition> {
        let p = self.fit_where(rows, channels, ok)?;
        self.insert(p)
            .expect("fit_where() result must insert cleanly");
        Some(p)
    }

    /// Like [`fit_compatible`](Self::fit_compatible), but only
    /// pattern-equivalent offsets whose band satisfies `ok` qualify.
    pub fn fit_compatible_where(
        &self,
        rows: usize,
        channels: usize,
        anchor_y0: usize,
        mix: GridMix,
        ok: impl Fn(&Partition) -> bool,
    ) -> Option<Partition> {
        let period = mix.vertical_period();
        self.fit_stepped(rows, channels, anchor_y0 % period, period, ok)
    }

    /// [`fit_compatible_where`](Self::fit_compatible_where) + insert.
    pub fn allocate_compatible_where(
        &mut self,
        rows: usize,
        channels: usize,
        anchor_y0: usize,
        mix: GridMix,
        ok: impl Fn(&Partition) -> bool,
    ) -> Option<Partition> {
        let p = self.fit_compatible_where(rows, channels, anchor_y0, mix, ok)?;
        self.insert(p)
            .expect("fit_compatible_where() must insert cleanly");
        Some(p)
    }

    /// Shared scan for the `_where` fits: within each gap, offsets
    /// congruent to `phase` modulo `period` are tried bottom-up and the
    /// first to satisfy `ok` represents the gap; gaps then compete by
    /// (height, offset) exactly like [`fit`](Self::fit).
    fn fit_stepped(
        &self,
        rows: usize,
        channels: usize,
        phase: usize,
        period: usize,
        ok: impl Fn(&Partition) -> bool,
    ) -> Option<Partition> {
        if rows == 0 || channels == 0 || channels > self.free_channels() {
            return None;
        }
        let mut best: Option<(usize, usize)> = None;
        for (y0, h) in self.gaps() {
            let mut a = y0 + (phase + period - y0 % period) % period;
            while a + rows <= y0 + h {
                let p = Partition {
                    y0: a,
                    rows,
                    channels,
                };
                if ok(&p) {
                    let cand = (h, a);
                    if best.map(|b| cand < b).unwrap_or(true) {
                        best = Some(cand);
                    }
                    break;
                }
                a += period;
            }
        }
        best.map(|(_, y0)| Partition { y0, rows, channels })
    }

    /// Inserts an explicitly placed partition, enforcing band
    /// disjointness, fabric bounds, and the channel budget.
    ///
    /// # Errors
    ///
    /// Returns a [`PartitionSpecError`] naming the conflict.
    pub fn insert(&mut self, p: Partition) -> Result<(), PartitionSpecError> {
        if p.rows == 0 {
            return Err(PartitionSpecError(
                "partition needs at least one row".into(),
            ));
        }
        if p.y0 + p.rows > self.rows {
            return Err(PartitionSpecError(format!(
                "partition rows {}..{} exceed the {}-row fabric",
                p.y0,
                p.y0 + p.rows,
                self.rows
            )));
        }
        if p.channels > self.free_channels() {
            return Err(PartitionSpecError(format!(
                "partition wants {} DRAM channels, only {} free",
                p.channels,
                self.free_channels()
            )));
        }
        for q in &self.taken {
            if p.y0 < q.y0 + q.rows && q.y0 < p.y0 + p.rows {
                return Err(PartitionSpecError(format!(
                    "partition {p} overlaps allocated partition {q}"
                )));
            }
        }
        let at = self.taken.partition_point(|q| q.y0 < p.y0);
        self.taken.insert(at, p);
        Ok(())
    }

    /// Releases a previously allocated partition. Returns whether it was
    /// present.
    pub fn release(&mut self, p: &Partition) -> bool {
        match self.taken.iter().position(|q| q == p) {
            Some(i) => {
                self.taken.remove(i);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::SiteKind;

    fn params() -> PlasticineParams {
        PlasticineParams::paper_final()
    }

    #[test]
    fn band_owns_translation_equivariant_resources() {
        let p = params();
        let topo = Topology::new(&p);
        for rows in [2usize, 4] {
            for y0 in 0..=(p.rows - rows) {
                let band = Partition::new(y0, rows, 1);
                band.validate(&p).unwrap();
                let pool = band.ag_pool(&topo);
                assert_eq!(pool.len(), 4 * rows, "band {band}: AG pool size");
                // The pool relocates onto the offset-0 pool id-for-id.
                let base = band.normalized().ag_pool(&topo);
                let relocated: Vec<AgId> = pool
                    .iter()
                    .map(|&a| Partition::relocate_ag(a, -(y0 as i64), topo.switch_rows()))
                    .collect();
                assert_eq!(relocated, base, "band {band}: AG pool relocation");
                // Mask leaves exactly the band's sites alive.
                let mask = band.mask(&topo);
                let alive = topo.sites().len() - mask.dead_pcus.len() - mask.dead_pmus.len();
                assert_eq!(alive, rows * p.cols);
            }
        }
    }

    #[test]
    fn mask_kills_every_boundary_crossing_link() {
        let p = params();
        let topo = Topology::new(&p);
        let band = Partition::new(2, 4, 2);
        let mask = band.mask(&topo);
        // Every vertical link crossing switch rows 2 and 6 is dead.
        for sx in 0..topo.switch_cols() {
            let below = topo.switch_at(sx, 1);
            let bottom = topo.switch_at(sx, 2);
            let top = topo.switch_at(sx, 6);
            let above = topo.switch_at(sx, 7);
            assert!(mask.link_is_dead(below, bottom));
            assert!(mask.link_is_dead(top, above));
            // In-band vertical links live.
            assert!(!mask.link_is_dead(bottom, topo.switch_at(sx, 3)));
        }
        // Horizontal links in the shared boundary rows stay alive.
        assert!(!mask.link_is_dead(topo.switch_at(0, 2), topo.switch_at(1, 2)));
        // Dead sites keep their kinds straight.
        for s in &mask.dead_pcus {
            assert_eq!(topo.site(*s).kind, SiteKind::Pcu);
        }
        for s in &mask.dead_pmus {
            assert_eq!(topo.site(*s).kind, SiteKind::Pmu);
        }
    }

    #[test]
    fn spec_parses_and_validates() {
        let p: Partition = "4@2/2".parse().unwrap();
        assert_eq!(p, Partition::new(2, 4, 2));
        assert_eq!(p.to_string(), "4@2/2");
        let q: Partition = "8@0".parse().unwrap();
        assert_eq!(q.channels, 1);
        assert!("x@0".parse::<Partition>().is_err());
        assert!("4".parse::<Partition>().is_err());
        assert!("4@0/z".parse::<Partition>().is_err());
        assert!(Partition::new(6, 4, 1).validate(&params()).is_err());
        assert!(Partition::new(0, 4, 9).validate(&params()).is_err());
        assert!(Partition::new(0, 0, 1).validate(&params()).is_err());
    }

    #[test]
    fn table_best_fit_and_release() {
        let mut t = PartitionTable::new(&params());
        let a = t.allocate(2, 1).unwrap();
        assert_eq!((a.y0, a.rows), (0, 2));
        let b = t.allocate(4, 2).unwrap();
        assert_eq!((b.y0, b.rows), (2, 4));
        let c = t.allocate(2, 1).unwrap();
        assert_eq!((c.y0, c.rows), (6, 2));
        // Full: no rows or channels left.
        assert!(t.allocate(1, 1).is_none());
        assert_eq!(t.free_rows(), 0);
        assert_eq!(t.free_channels(), 0);
        // Release the middle band; best-fit prefers the smallest gap.
        assert!(t.release(&b));
        assert!(!t.release(&b));
        assert_eq!(t.gaps(), vec![(2, 4)]);
        assert!(t.release(&a));
        // A 2-row request now has gaps (0,2) and (2,4): picks the small one.
        let d = t.allocate(2, 1).unwrap();
        assert_eq!((d.y0, d.rows), (0, 2));
        // Overlap and budget violations are typed errors.
        let mut t2 = PartitionTable::new(&params());
        t2.insert(Partition::new(0, 4, 2)).unwrap();
        assert!(t2.insert(Partition::new(2, 4, 1)).is_err());
        assert!(t2.insert(Partition::new(4, 4, 3)).is_err());
        assert!(t2.insert(Partition::new(6, 4, 1)).is_err());
    }

    #[test]
    fn pattern_equivalence_follows_the_mix_period() {
        let cb = GridMix::Checkerboard;
        let a = Partition::new(0, 3, 1);
        // Checkerboard: same parity relocates, opposite parity does not.
        assert!(a.pattern_equivalent(&Partition::new(4, 3, 2), cb));
        assert!(!a.pattern_equivalent(&Partition::new(3, 3, 1), cb));
        // Height is geometry; it always matters.
        assert!(!a.pattern_equivalent(&Partition::new(0, 4, 1), cb));
        // A column-striped mix relocates to any offset.
        assert!(a.pattern_equivalent(&Partition::new(3, 3, 1), GridMix::PmuHeavy));
    }

    #[test]
    fn compatible_allocation_respects_the_anchor_parity() {
        let cb = GridMix::Checkerboard;
        let mut t = PartitionTable::new(&params());
        // Occupy rows 3..6, leaving gaps (0,3) and (6,2).
        t.insert(Partition::new(3, 3, 1)).unwrap();
        // An odd-parity 3-row band must start at 1 inside the (0,3) gap —
        // which no longer fits — so it cannot be placed at all.
        assert_eq!(
            t.fit_compatible(3, 1, 1, cb),
            None,
            "no odd-parity 3-row slot exists"
        );
        // A 2-row odd-parity band rounds up past the gap start.
        let p = t.allocate_compatible(2, 1, 5, cb).unwrap();
        assert_eq!((p.y0, p.rows), (1, 2));
        // Even-parity requests still best-fit (smallest gap first).
        let q = t.allocate_compatible(2, 1, 0, cb).unwrap();
        assert_eq!((q.y0, q.rows), (6, 2));
        // A column-striped mix degenerates to plain best-fit.
        let mut t2 = PartitionTable::new(&params());
        t2.insert(Partition::new(3, 3, 1)).unwrap();
        assert_eq!(t2.fit_compatible(3, 1, 1, GridMix::PmuHeavy), t2.fit(3, 1));
    }
}

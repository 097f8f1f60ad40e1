//! Static per-controller timing models derived from a compiled
//! configuration: issue widths, pipeline depths, port bindings, link
//! latencies, and bank-conflict factors.

use crate::trace::{TrackedUnit, UnitKind};
use plasticine_arch::{AgMode, MachineConfig, UnitCfg, UnitId};
use plasticine_compiler::CompileOutput;
use plasticine_ppir::{BankingMode, CtrlBody, CtrlId, Expr, InnerOp, Program, Schedule, SramId};
use std::collections::HashMap;
use std::ops::Index;

/// A table keyed by controller id. Ids are allocated densely (one per
/// controller, in program order), so a `Vec` indexed by the raw id
/// replaces a hash map: a lookup is one bounds-checked load.
#[derive(Debug, Clone)]
pub struct CtrlTable<T>(Vec<Option<T>>);

impl<T> CtrlTable<T> {
    /// An empty table for `n` controller ids.
    pub fn new(n: usize) -> CtrlTable<T> {
        CtrlTable((0..n).map(|_| None).collect())
    }

    /// The entry for `ctrl`, if it has one.
    #[inline]
    pub fn get(&self, ctrl: CtrlId) -> Option<&T> {
        self.0.get(ctrl.0 as usize).and_then(Option::as_ref)
    }

    /// Mutable access to the entry for `ctrl`, if it has one.
    #[inline]
    pub fn get_mut(&mut self, ctrl: CtrlId) -> Option<&mut T> {
        self.0.get_mut(ctrl.0 as usize).and_then(Option::as_mut)
    }

    /// Sets the entry for `ctrl`.
    ///
    /// # Panics
    ///
    /// If `ctrl` lies outside the table's id range.
    pub fn insert(&mut self, ctrl: CtrlId, v: T) {
        self.0[ctrl.0 as usize] = Some(v);
    }

    /// Entries with their ids, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (CtrlId, &T)> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (CtrlId(i as u32), v)))
    }

    /// Entries in id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten()
    }

    /// Mutable entries in id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.0.iter_mut().flatten()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values().count()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.values().next().is_none()
    }
}

impl<T> Index<CtrlId> for CtrlTable<T> {
    type Output = T;

    fn index(&self, ctrl: CtrlId) -> &T {
        self.get(ctrl)
            .unwrap_or_else(|| panic!("no table entry for controller {}", ctrl.0))
    }
}

/// Timing model of one compute leaf controller.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    /// Logical unit implementing it.
    pub unit: UnitId,
    /// SIMD lanes per vector.
    pub lanes: usize,
    /// Vectors issuable per cycle (intra-invocation unroll).
    pub own_copies: usize,
    /// Concurrent invocations allowed (ancestor unroll).
    pub slots: usize,
    /// Pipeline latency in stages across chained PCUs.
    pub depth: usize,
    /// Distinct memory units read per vector (one port each per issue).
    pub reads: Vec<UnitId>,
    /// Distinct memory units written per vector.
    pub writes: Vec<UnitId>,
    /// Cycles per vector issue: the maximum of (a) bank-conflict
    /// serialization — `lanes` for data-dependent addressing on a
    /// non-duplicated scratchpad (§3.2's duplication mode removes it) —
    /// and (b) port serialization when one PMU feeds several operand
    /// streams of the same pipe.
    pub issue_factor: u64,
    /// Worst input link latency (cycles).
    pub in_hops: u64,
    /// Worst output link latency (cycles).
    pub out_hops: u64,
    /// ALU ops per index tuple (for activity counting).
    pub ops_per_trip: u64,
    /// Iterative (transcendental) ops per index tuple.
    pub heavy_per_trip: u64,
    /// Extra reduction-tree op slots per vector (folds).
    pub red_ops_per_vec: u64,
    /// Physical PCUs occupied (all copies).
    pub phys_pcus: usize,
}

/// Timing model of one transfer leaf controller.
#[derive(Debug, Clone)]
pub struct TransferModel {
    /// Logical AG unit.
    pub unit: UnitId,
    /// Sparse (gather/scatter) or dense.
    pub sparse: bool,
    /// Store direction.
    pub store: bool,
    /// Parallel AG streams.
    pub copies: usize,
    /// Concurrent invocations allowed.
    pub slots: usize,
    /// Link latency between AG and its scratchpad partner.
    pub hops: u64,
}

/// Scheduling model of an outer controller.
#[derive(Debug, Clone)]
pub struct OuterModel {
    /// Schedule of its children.
    pub schedule: Schedule,
    /// Children controllers in program order.
    pub children: Vec<CtrlId>,
    /// Dependency edges `(producer_child_idx, consumer_child_idx, depth)`.
    pub deps: Vec<(usize, usize, usize)>,
    /// Concurrent iterations each child may process within one invocation
    /// of this controller (the controller's own unroll factor).
    pub width: usize,
    /// Producers per consumer child (`deps` indexed by consumer), so the
    /// per-cycle start gates don't rescan the whole edge list.
    pub deps_in: Vec<Vec<usize>>,
    /// `(consumer, depth)` per producer child (`deps` indexed by producer).
    pub deps_out: Vec<Vec<(usize, usize)>>,
}

impl OuterModel {
    /// A model with its dependence edges indexed per child.
    pub fn new(
        schedule: Schedule,
        children: Vec<CtrlId>,
        deps: Vec<(usize, usize, usize)>,
        width: usize,
    ) -> OuterModel {
        let mut om = OuterModel {
            schedule,
            deps_in: vec![Vec::new(); children.len()],
            deps_out: vec![Vec::new(); children.len()],
            children,
            deps,
            width,
        };
        om.index_deps();
        om
    }

    fn index_deps(&mut self) {
        self.deps_in.iter_mut().for_each(Vec::clear);
        self.deps_out.iter_mut().for_each(Vec::clear);
        for &(pr, co, depth) in &self.deps {
            self.deps_in[co].push(pr);
            self.deps_out[pr].push((co, depth));
        }
    }
}

/// All per-controller models plus global bookkeeping.
#[derive(Debug)]
pub struct SimModel {
    /// Compute models keyed by controller id.
    pub compute: CtrlTable<ComputeModel>,
    /// Transfer models keyed by controller id.
    pub transfer: CtrlTable<TransferModel>,
    /// Outer models keyed by controller id.
    pub outer: CtrlTable<OuterModel>,
    /// Invocation slots per controller (ancestor unroll copies).
    pub ctrl_slots: CtrlTable<usize>,
    /// Port capacity per logical memory unit (physical PMUs backing it).
    pub mem_ports: HashMap<UnitId, usize>,
    /// DRAM buffer byte bases (copied from the config).
    pub dram_base: Vec<u64>,
    /// Words of scratchpad traffic per trip, per compute ctrl (reads, writes).
    pub sram_words: CtrlTable<(u64, u64)>,
    /// The hardware unit each leaf controller occupies (its compute or
    /// transfer model's unit).
    pub units: CtrlTable<UnitId>,
    /// Every PCU/PMU/AG unit, in configuration order, with display labels —
    /// the population the stall attribution classifies each cycle.
    pub tracked: Vec<TrackedUnit>,
}

impl SimModel {
    /// Clamps every producer→consumer buffer depth to `cap` credits (the
    /// `credit_cap` testing hook).
    pub fn cap_credits(&mut self, cap: usize) {
        for om in self.outer.values_mut() {
            for d in &mut om.deps {
                d.2 = d.2.min(cap);
            }
            om.index_deps();
        }
    }

    /// The hardware unit a leaf controller occupies, if it has any.
    #[inline]
    pub fn unit_of(&self, ctrl: CtrlId) -> Option<UnitId> {
        self.units.get(ctrl).copied()
    }
}

/// Whether any load in the function has a data-dependent (non-affine)
/// address: its address subgraph itself contains a load.
fn load_is_random(f: &plasticine_ppir::Func, addr_roots: &[plasticine_ppir::ExprId]) -> bool {
    let mut stack: Vec<usize> = addr_roots.iter().map(|e| e.0 as usize).collect();
    let mut seen = std::collections::HashSet::new();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        match &f.nodes()[n] {
            Expr::Load { .. } => return true,
            Expr::Unary(_, a) => stack.push(a.0 as usize),
            Expr::Binary(_, a, b) => {
                stack.push(a.0 as usize);
                stack.push(b.0 as usize);
            }
            Expr::Mux(c, a, b) => {
                stack.push(c.0 as usize);
                stack.push(a.0 as usize);
                stack.push(b.0 as usize);
            }
            _ => {}
        }
    }
    false
}

/// Collects `(sram, random?)` for every load in a function.
fn func_loads(f: &plasticine_ppir::Func) -> Vec<(SramId, bool)> {
    let mut out = Vec::new();
    for n in f.nodes() {
        if let Expr::Load { mem, addr } = n {
            out.push((*mem, load_is_random(f, addr)));
        }
    }
    out
}

impl SimModel {
    /// Builds the model from a compiled program.
    pub fn build(p: &Program, out: &CompileOutput) -> SimModel {
        let cfg: &MachineConfig = &out.config;
        let an = &out.analysis;

        // Memory lookup and port capacities.
        let mut mem_unit: HashMap<SramId, UnitId> = HashMap::new();
        let mut mem_ports: HashMap<UnitId, usize> = HashMap::new();
        let mut mem_banking: HashMap<SramId, BankingMode> = HashMap::new();
        for (i, u) in cfg.units.iter().enumerate() {
            if let UnitCfg::Memory(m) = u {
                mem_unit.insert(m.sram, UnitId(i as u32));
                mem_ports.insert(UnitId(i as u32), m.sites.len());
                mem_banking.insert(m.sram, m.banking);
            }
        }

        // Link hop maps.
        let mut max_in: HashMap<UnitId, u64> = HashMap::new();
        let mut max_out: HashMap<UnitId, u64> = HashMap::new();
        for l in &cfg.links {
            let e = max_in.entry(l.dst).or_insert(0);
            *e = (*e).max(l.hops as u64);
            let e = max_out.entry(l.src).or_insert(0);
            *e = (*e).max(l.hops as u64);
        }

        let n = p.ctrls().len();
        let mut compute = CtrlTable::new(n);
        let mut transfer = CtrlTable::new(n);
        let mut sram_words = CtrlTable::new(n);
        let mut ctrl_slots = CtrlTable::new(n);
        let mut units = CtrlTable::new(n);

        for (i, u) in cfg.units.iter().enumerate() {
            let uid = UnitId(i as u32);
            match u {
                UnitCfg::Compute(c) => {
                    let cid = c.ctrl;
                    let idx = cid.0 as usize;
                    let anc = an.anc_copies[idx].max(1);
                    let own = (an.copies[idx] / anc).max(1);
                    let v = out
                        .virtual_design
                        .pcus
                        .iter()
                        .find(|x| x.ctrl == cid)
                        .expect("virtual pcu for compute unit");
                    // Reads / writes with conflict factors.
                    let mut reads: Vec<(UnitId, u64)> = Vec::new();
                    let mut writes: Vec<UnitId> = Vec::new();
                    let mut rd_words = 0u64;
                    let mut wr_words = 0u64;
                    if let CtrlBody::Inner(op) = &p.ctrl(cid).body {
                        let mut note_reads = |fid: plasticine_ppir::FuncId| {
                            for (sram, random) in func_loads(p.func(fid)) {
                                let Some(&mu) = mem_unit.get(&sram) else {
                                    continue;
                                };
                                let factor =
                                    if random && mem_banking[&sram] != BankingMode::Duplication {
                                        c.lanes as u64
                                    } else {
                                        1
                                    };
                                reads.push((mu, factor));
                                rd_words += 1;
                            }
                        };
                        match op {
                            InnerOp::Map(m) => {
                                note_reads(m.body);
                                for w in &m.writes {
                                    if let Some(&mu) = mem_unit.get(&w.sram) {
                                        writes.push(mu);
                                        wr_words += 1;
                                    }
                                }
                            }
                            InnerOp::Fold(fl) => {
                                note_reads(fl.map);
                                for w in &fl.writes {
                                    if let Some(&mu) = mem_unit.get(&w.sram) {
                                        writes.push(mu);
                                    }
                                }
                            }
                            InnerOp::Filter(fi) => {
                                note_reads(fi.body);
                                if let Some(&mu) = mem_unit.get(&fi.out) {
                                    writes.push(mu);
                                    wr_words += 1;
                                }
                            }
                            InnerOp::RegWrite(rw) => note_reads(rw.func),
                            _ => {}
                        }
                    }
                    let red_ops_per_vec = if v.reduction_lanes > 1 {
                        (v.reduction_lanes - 1) as u64
                    } else {
                        0
                    };
                    // Consolidate per-unit port demand: several operand
                    // streams on one PMU serialize over extra cycles.
                    let conflict = reads.iter().map(|r| r.1).max().unwrap_or(1);
                    let mut rd_demand: HashMap<UnitId, u64> = HashMap::new();
                    for (u, _) in &reads {
                        *rd_demand.entry(*u).or_insert(0) += 1;
                    }
                    let mut wr_demand: HashMap<UnitId, u64> = HashMap::new();
                    for u in &writes {
                        *wr_demand.entry(*u).or_insert(0) += 1;
                    }
                    let mut port_factor = 1u64;
                    for (u, n) in rd_demand.iter().chain(wr_demand.iter()) {
                        let cap = mem_ports.get(u).copied().unwrap_or(1).max(1) as u64;
                        port_factor = port_factor.max(n.div_ceil(cap));
                    }
                    let issue_factor = conflict.max(port_factor);
                    // Deduplicated, sorted unit lists: per-beat port demand
                    // is then one token per listed unit, which makes every
                    // `acquire_ports` outcome a pure function of the
                    // begin-of-cycle token refresh. The event kernel's
                    // quiescence argument leans on this — a port-starved
                    // beat that fails one cycle fails identically the next,
                    // so the cycle can be skipped without re-ticking.
                    let mut rd_units: Vec<UnitId> = rd_demand.keys().copied().collect();
                    rd_units.sort();
                    let mut wr_units: Vec<UnitId> = wr_demand.keys().copied().collect();
                    wr_units.sort();
                    compute.insert(
                        cid,
                        ComputeModel {
                            unit: uid,
                            lanes: c.lanes,
                            own_copies: own,
                            slots: anc,
                            depth: c.pipeline_depth.max(1),
                            reads: rd_units,
                            writes: wr_units,
                            issue_factor,
                            in_hops: max_in.get(&uid).copied().unwrap_or(2),
                            out_hops: max_out.get(&uid).copied().unwrap_or(2),
                            ops_per_trip: v.ops.len() as u64,
                            heavy_per_trip: v.ops.iter().filter(|o| o.heavy).count() as u64,
                            red_ops_per_vec,
                            phys_pcus: c.sites.len(),
                        },
                    );
                    sram_words.insert(cid, (rd_words, wr_words));
                    ctrl_slots.insert(cid, anc);
                    units.insert(cid, uid);
                }
                UnitCfg::Ag(a) => {
                    let cid = a.ctrl;
                    let anc = an.anc_copies[cid.0 as usize].max(1);
                    transfer.insert(
                        cid,
                        TransferModel {
                            unit: uid,
                            sparse: a.mode == AgMode::Sparse,
                            store: matches!(
                                &p.ctrl(cid).body,
                                CtrlBody::Inner(InnerOp::StoreTile(_))
                                    | CtrlBody::Inner(InnerOp::Scatter(_))
                            ),
                            copies: a.ags.len().max(1),
                            slots: anc,
                            hops: max_in
                                .get(&uid)
                                .copied()
                                .unwrap_or(2)
                                .max(max_out.get(&uid).copied().unwrap_or(2)),
                        },
                    );
                    ctrl_slots.insert(cid, anc);
                    units.insert(cid, uid);
                }
                _ => {}
            }
        }

        // Outer models.
        let mut outer = CtrlTable::new(n);
        for u in &cfg.units {
            if let UnitCfg::Outer(o) = u {
                let cid = o.ctrl;
                if let CtrlBody::Outer { schedule, children } = &p.ctrl(cid).body {
                    outer.insert(
                        cid,
                        OuterModel::new(
                            *schedule,
                            children.clone(),
                            an.sibling_deps(p, cid),
                            p.ctrl(cid).total_par().max(1),
                        ),
                    );
                }
                ctrl_slots.insert(cid, an.anc_copies[cid.0 as usize].max(1));
            }
        }

        // Stall-attribution population: one entry per PCU/PMU/AG unit.
        let mut tracked = Vec::new();
        for (i, u) in cfg.units.iter().enumerate() {
            let unit = UnitId(i as u32);
            match u {
                UnitCfg::Compute(c) => tracked.push(TrackedUnit {
                    unit,
                    kind: UnitKind::Pcu,
                    label: p.ctrl(c.ctrl).name.clone(),
                }),
                UnitCfg::Memory(m) => tracked.push(TrackedUnit {
                    unit,
                    kind: UnitKind::Pmu,
                    label: p.sram(m.sram).name.clone(),
                }),
                UnitCfg::Ag(a) => tracked.push(TrackedUnit {
                    unit,
                    kind: UnitKind::Ag,
                    label: p.ctrl(a.ctrl).name.clone(),
                }),
                UnitCfg::Outer(_) => {}
            }
        }

        SimModel {
            compute,
            transfer,
            outer,
            ctrl_slots,
            mem_ports,
            dram_base: cfg.alloc.base.clone(),
            sram_words,
            units,
            tracked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasticine_arch::PlasticineParams;
    use plasticine_compiler::compile;
    use plasticine_ppir::*;

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        let d = b.dram("d", DType::F32, 64);
        let s = b.sram("s", DType::F32, &[64]);
        let o = b.sram("o", DType::F32, &[64]);
        let mut zf = Func::new("z");
        let z = zf.konst(Elem::I32(0));
        zf.set_outputs(vec![z]);
        let zf = b.func(zf);
        let ld = b.inner(
            "ld",
            vec![],
            InnerOp::LoadTile(TileTransfer {
                dram: d,
                dram_base: zf,
                rows: 1,
                cols: 64,
                dram_row_stride: 64,
                sram: s,
            }),
        );
        let i = b.counter(0, 64, 1, 16);
        let mut body = Func::new("sq");
        let iv = body.index(i.index);
        let vv = body.load(s, vec![iv]);
        let sq = body.binary(BinOp::Mul, vv, vv);
        body.set_outputs(vec![sq]);
        let body = b.func(body);
        let mut wa = Func::new("wa");
        let iv = wa.index(i.index);
        wa.set_outputs(vec![iv]);
        let wa = b.func(wa);
        let mp = b.inner(
            "sq",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: o,
                    addr: wa,
                    value_slot: 0,
                    mode: WriteMode::Overwrite,
                }],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![ld, mp]);
        b.finish(root).unwrap()
    }

    #[test]
    fn model_extracts_compute_shape() {
        let p = tiny_program();
        let out = compile(&p, &PlasticineParams::paper_final()).unwrap();
        let m = SimModel::build(&p, &out);
        assert_eq!(m.compute.len(), 1);
        assert_eq!(m.transfer.len(), 1);
        assert_eq!(m.outer.len(), 1);
        let cm = m.compute.values().next().unwrap();
        assert_eq!(cm.lanes, 16);
        assert_eq!(cm.own_copies, 1);
        assert_eq!(cm.reads.len(), 1);
        assert_eq!(cm.issue_factor, 1, "linear access: no conflict factor");
        assert_eq!(cm.writes.len(), 1);
        assert_eq!(cm.ops_per_trip, 1);
        assert!(cm.in_hops >= 2);
    }

    #[test]
    fn random_access_gets_conflict_factor() {
        // body reads x[idx[i]] from a strided scratchpad → factor = lanes.
        let mut b = ProgramBuilder::new("rand");
        let xs = b.sram("x", DType::F32, &[64]);
        let idx = b.sram("idx", DType::I32, &[64]);
        let os = b.sram("o", DType::F32, &[64]);
        let i = b.counter(0, 64, 1, 16);
        let mut body = Func::new("gather");
        let iv = body.index(i.index);
        let id = body.load(idx, vec![iv]);
        let x = body.load(xs, vec![id]);
        body.set_outputs(vec![x]);
        let body = b.func(body);
        let mut wa = Func::new("wa");
        let iv = wa.index(i.index);
        wa.set_outputs(vec![iv]);
        let wa = b.func(wa);
        let mp = b.inner(
            "g",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: os,
                    addr: wa,
                    value_slot: 0,
                    mode: WriteMode::Overwrite,
                }],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![mp]);
        let p = b.finish(root).unwrap();
        let out = compile(&p, &PlasticineParams::paper_final()).unwrap();
        let m = SimModel::build(&p, &out);
        let cm = m.compute.values().next().unwrap();
        // x is read with a data-dependent address: serialized over the
        // lanes (factor 16).
        assert_eq!(cm.issue_factor, 16);
        assert_eq!(cm.reads.len(), 2);
    }

    #[test]
    fn duplication_banking_removes_conflicts() {
        let mut b = ProgramBuilder::new("dup");
        let xs = b.sram_banked("x", DType::F32, &[64], BankingMode::Duplication);
        let idx = b.sram("idx", DType::I32, &[64]);
        let os = b.sram("o", DType::F32, &[64]);
        let i = b.counter(0, 64, 1, 16);
        let mut body = Func::new("gather");
        let iv = body.index(i.index);
        let id = body.load(idx, vec![iv]);
        let x = body.load(xs, vec![id]);
        body.set_outputs(vec![x]);
        let body = b.func(body);
        let mut wa = Func::new("wa");
        let iv = wa.index(i.index);
        wa.set_outputs(vec![iv]);
        let wa = b.func(wa);
        let mp = b.inner(
            "g",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: os,
                    addr: wa,
                    value_slot: 0,
                    mode: WriteMode::Overwrite,
                }],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![mp]);
        let p = b.finish(root).unwrap();
        let out = compile(&p, &PlasticineParams::paper_final()).unwrap();
        let m = SimModel::build(&p, &out);
        let cm = m.compute.values().next().unwrap();
        assert_eq!(cm.issue_factor, 1);
    }
}

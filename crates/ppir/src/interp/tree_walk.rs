//! The tree-walking interpreter the lowered one replaced, kept as a test
//! oracle, and the property that both agree on random programs.
//!
//! [`TreeWalk`] evaluates every `Func` node by node into fresh vectors and
//! recurses through the counter chains; it is the reference semantics.
//! The property generates programs exercising every `Expr` kind and every
//! leaf op — including out-of-bounds, mixed-type and overflow cases — and
//! requires the same `Result`, bit-identical memories and registers, equal
//! [`InterpStats`] and the same trace events from both interpreters.

use super::{InterpStats, Machine, RunError};
use crate::ctrl::{
    CBound, Counter, CtrlBody, CtrlId, FilterPipe, FoldInit, FoldPipe, GatherOp, InnerOp, MapPipe,
    PipeWrite, RegWrite, ScatterOp, TileTransfer, WriteMode,
};
use crate::expr::{eval_binop, eval_unop, DramId, Expr, Func, FuncId, RegId, SramId};
use crate::program::Program;
use crate::trace::{DramRange, LeafWork, TraceSink};
use crate::types::Elem;

/// The tree-walking interpreter, kept as the oracle.
#[derive(Debug, Clone)]
pub(super) struct TreeWalk<'p> {
    prog: &'p Program,
    drams: Vec<Vec<Elem>>,
    srams: Vec<Vec<Elem>>,
    regs: Vec<Elem>,
    params: Vec<Elem>,
    indices: Vec<i64>,
    cur_work: LeafWork,
    /// Accumulated statistics.
    pub stats: InterpStats,
}

impl<'p> TreeWalk<'p> {
    /// Creates a machine with zero-initialized memories for `prog`.
    pub fn new(prog: &'p Program) -> TreeWalk<'p> {
        TreeWalk {
            prog,
            drams: prog
                .drams()
                .iter()
                .map(|d| vec![Elem::zero(d.dtype); d.len])
                .collect(),
            srams: prog
                .srams()
                .iter()
                .map(|s| vec![Elem::zero(s.dtype); s.capacity()])
                .collect(),
            regs: prog.regs().iter().map(|r| Elem::zero(r.dtype)).collect(),
            params: prog.params().iter().map(|p| Elem::zero(p.dtype)).collect(),
            indices: vec![0; prog.num_indices() as usize],
            cur_work: LeafWork::default(),
            stats: InterpStats::default(),
        }
    }

    /// Copies host data into a DRAM buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than the buffer.
    pub fn write_dram(&mut self, id: DramId, data: &[Elem]) {
        let buf = &mut self.drams[id.0 as usize];
        assert!(data.len() <= buf.len(), "host data exceeds buffer");
        buf[..data.len()].copy_from_slice(data);
    }

    /// Reads back a DRAM buffer.
    pub fn dram_data(&self, id: DramId) -> &[Elem] {
        &self.drams[id.0 as usize]
    }

    /// Reads back a scratchpad.
    pub fn sram_data(&self, id: SramId) -> &[Elem] {
        &self.srams[id.0 as usize]
    }

    /// Sets a runtime parameter.
    pub fn set_param(&mut self, id: crate::expr::ParamId, v: Elem) {
        self.params[id.0 as usize] = v;
    }

    /// Sets a register (e.g. to seed an accumulating fold).
    pub fn set_reg(&mut self, id: RegId, v: Elem) {
        self.regs[id.0 as usize] = v;
    }

    /// Reads a register.
    pub fn reg(&self, id: RegId) -> Elem {
        self.regs[id.0 as usize]
    }

    /// Executes the whole program, reporting structural events and leaf
    /// work to `sink` (see [`TraceSink`]). The cycle-accurate simulator
    /// replays the recorded trace for timing.
    ///
    /// # Errors
    ///
    pub fn run_traced(&mut self, sink: &mut dyn TraceSink) -> Result<(), RunError> {
        self.exec_ctrl(self.prog.root(), sink)
    }

    fn exec_ctrl(&mut self, id: CtrlId, sink: &mut dyn TraceSink) -> Result<(), RunError> {
        let ctrl = self.prog.ctrl(id);
        let dims = self.resolve_cchain(&ctrl.cchain, &ctrl.name)?;
        match &ctrl.body {
            CtrlBody::Outer { children, .. } => {
                let children = children.clone();
                sink.outer_enter(id);
                self.iterate(&dims, 0, &mut |m| {
                    sink.outer_iter(id);
                    for &c in &children {
                        m.exec_ctrl(c, sink)?;
                    }
                    Ok(())
                })?;
                sink.outer_exit(id);
                Ok(())
            }
            CtrlBody::Inner(op) => {
                let op = op.clone();
                let name = ctrl.name.clone();
                self.cur_work = LeafWork::default();
                self.exec_inner(&name, &dims, &op)?;
                let work = std::mem::take(&mut self.cur_work);
                sink.leaf(id, work);
                Ok(())
            }
        }
    }

    /// Resolves counter bounds to concrete `(index, min, max, stride)` tuples.
    fn resolve_cchain(
        &self,
        cchain: &[Counter],
        ctrl_name: &str,
    ) -> Result<Vec<(usize, i64, i64, i64)>, RunError> {
        cchain
            .iter()
            .map(|c| {
                let min = self.resolve_bound(c.min)?;
                let max = self.resolve_bound(c.max)?;
                if c.stride < 1 {
                    return Err(RunError::BadBound {
                        ctrl: ctrl_name.to_string(),
                    });
                }
                Ok((c.index.0 as usize, min, max, c.stride))
            })
            .collect()
    }

    fn resolve_bound(&self, b: CBound) -> Result<i64, RunError> {
        Ok(match b {
            CBound::Const(v) => v,
            CBound::Reg(r) => self.regs[r.0 as usize].as_i32()? as i64,
            CBound::Param(p) => self.params[p.0 as usize].as_i32()? as i64,
        })
    }

    /// Nested iteration over resolved counter dims, invoking `act` per tuple.
    fn iterate(
        &mut self,
        dims: &[(usize, i64, i64, i64)],
        d: usize,
        act: &mut dyn FnMut(&mut Self) -> Result<(), RunError>,
    ) -> Result<(), RunError> {
        if d == dims.len() {
            return act(self);
        }
        let (idx, min, max, stride) = dims[d];
        let mut v = min;
        while v < max {
            self.indices[idx] = v;
            self.iterate(dims, d + 1, act)?;
            v += stride;
        }
        Ok(())
    }

    /// Evaluates a function in the current index environment.
    fn eval(&mut self, fid: FuncId, args: &[Elem]) -> Result<Vec<Elem>, RunError> {
        let f: &Func = self.prog.func(fid);
        let mut vals: Vec<Elem> = Vec::with_capacity(f.nodes().len());
        for node in f.nodes() {
            let v = match node {
                Expr::Const(c) => *c,
                Expr::Index(i) => Elem::I32(self.indices[i.0 as usize] as i32),
                Expr::Param(p) => self.params[p.0 as usize],
                Expr::ReadReg(r) => self.regs[r.0 as usize],
                Expr::Arg(n) => args[*n as usize],
                Expr::Load { mem, addr } => {
                    let coords: Vec<i64> = addr
                        .iter()
                        .map(|&a| vals[a.0 as usize].as_i32().map(|v| v as i64))
                        .collect::<Result<_, _>>()?;
                    let sram = self.prog.sram(*mem);
                    let off = sram.flatten(&coords).ok_or_else(|| RunError::SramOob {
                        mem: sram.name.clone(),
                        addr: *coords.first().unwrap_or(&-1),
                    })?;
                    self.srams[mem.0 as usize][off]
                }
                Expr::Unary(op, a) => eval_unop(*op, vals[a.0 as usize])?,
                Expr::Binary(op, a, b) => eval_binop(*op, vals[a.0 as usize], vals[b.0 as usize])?,
                Expr::Mux(c, t, e) => {
                    if vals[c.0 as usize].is_truthy() {
                        vals[t.0 as usize]
                    } else {
                        vals[e.0 as usize]
                    }
                }
            };
            vals.push(v);
        }
        Ok(f.outputs().iter().map(|&o| vals[o.0 as usize]).collect())
    }

    fn eval_scalar(&mut self, fid: FuncId) -> Result<Elem, RunError> {
        Ok(self.eval(fid, &[])?[0])
    }

    fn sram_write_linear(&mut self, id: SramId, off: i64, v: Elem) -> Result<(), RunError> {
        let buf = &mut self.srams[id.0 as usize];
        if off < 0 || off as usize >= buf.len() {
            return Err(RunError::SramOob {
                mem: self.prog.sram(id).name.clone(),
                addr: off,
            });
        }
        buf[off as usize] = v;
        Ok(())
    }

    fn sram_read_linear(&self, id: SramId, off: i64) -> Result<Elem, RunError> {
        let buf = &self.srams[id.0 as usize];
        if off < 0 || off as usize >= buf.len() {
            return Err(RunError::SramOob {
                mem: self.prog.sram(id).name.clone(),
                addr: off,
            });
        }
        Ok(buf[off as usize])
    }

    fn dram_read(&self, id: DramId, off: i64) -> Result<Elem, RunError> {
        let buf = &self.drams[id.0 as usize];
        if off < 0 || off as usize >= buf.len() {
            return Err(RunError::DramOob {
                mem: self.prog.dram(id).name.clone(),
                addr: off,
            });
        }
        Ok(buf[off as usize])
    }

    fn dram_write(&mut self, id: DramId, off: i64, v: Elem) -> Result<(), RunError> {
        let buf = &mut self.drams[id.0 as usize];
        if off < 0 || off as usize >= buf.len() {
            return Err(RunError::DramOob {
                mem: self.prog.dram(id).name.clone(),
                addr: off,
            });
        }
        buf[off as usize] = v;
        Ok(())
    }

    /// Applies one pipe write given already-evaluated body outputs.
    fn apply_write(&mut self, w: &PipeWrite, outs: &[Elem]) -> Result<(), RunError> {
        let coords: Vec<i64> = self
            .eval(w.addr, &[])?
            .iter()
            .map(|e| e.as_i32().map(|v| v as i64))
            .collect::<Result<_, _>>()?;
        let sram = self.prog.sram(w.sram);
        let off = sram.flatten(&coords).ok_or_else(|| RunError::SramOob {
            mem: sram.name.clone(),
            addr: *coords.first().unwrap_or(&-1),
        })? as i64;
        let v = outs[w.value_slot];
        let stored = match w.mode {
            WriteMode::Overwrite => v,
            WriteMode::Accumulate(op) => {
                let old = self.sram_read_linear(w.sram, off)?;
                eval_binop(op, old, v)?
            }
        };
        self.stats.sram_writes += 1;
        self.sram_write_linear(w.sram, off, stored)
    }

    fn exec_inner(
        &mut self,
        name: &str,
        dims: &[(usize, i64, i64, i64)],
        op: &InnerOp,
    ) -> Result<(), RunError> {
        match op {
            InnerOp::Map(m) => self.exec_map(dims, m),
            InnerOp::Fold(f) => self.exec_fold(name, dims, f),
            InnerOp::Filter(f) => self.exec_filter(name, dims, f),
            InnerOp::RegWrite(rw) => self.exec_regwrite(dims, rw),
            InnerOp::LoadTile(t) => self.exec_tuplewise(dims, &mut |m| m.load_tile(t)),
            InnerOp::StoreTile(t) => self.exec_tuplewise(dims, &mut |m| m.store_tile(t)),
            InnerOp::Gather(g) => self.exec_tuplewise(dims, &mut |m| m.gather(g)),
            InnerOp::Scatter(s) => self.exec_tuplewise(dims, &mut |m| m.scatter(s)),
        }
    }

    fn exec_tuplewise(
        &mut self,
        dims: &[(usize, i64, i64, i64)],
        act: &mut dyn FnMut(&mut Self) -> Result<(), RunError>,
    ) -> Result<(), RunError> {
        self.iterate(dims, 0, act)
    }

    fn exec_map(&mut self, dims: &[(usize, i64, i64, i64)], m: &MapPipe) -> Result<(), RunError> {
        self.iterate(dims, 0, &mut |s| {
            s.stats.body_invocations += 1;
            s.cur_work.trips += 1;
            let outs = s.eval(m.body, &[])?;
            for w in &m.writes {
                s.apply_write(w, &outs)?;
            }
            Ok(())
        })
    }

    fn exec_fold(
        &mut self,
        name: &str,
        dims: &[(usize, i64, i64, i64)],
        f: &FoldPipe,
    ) -> Result<(), RunError> {
        let n = f.combine.len();
        let mut acc: Vec<Elem> = Vec::with_capacity(n);
        for (slot, init) in f.init.iter().enumerate() {
            match init {
                FoldInit::Const(v) => acc.push(*v),
                FoldInit::Resume => {
                    let reg = f.out_regs[slot].ok_or_else(|| RunError::ResumeWithoutReg {
                        ctrl: name.to_string(),
                    })?;
                    acc.push(self.regs[reg.0 as usize]);
                }
            }
        }
        self.iterate(dims, 0, &mut |s| {
            s.stats.body_invocations += 1;
            s.cur_work.trips += 1;
            let outs = s.eval(f.map, &[])?;
            for slot in 0..n {
                acc[slot] = eval_binop(f.combine[slot], acc[slot], outs[slot])?;
            }
            Ok(())
        })?;
        for (slot, reg) in f.out_regs.iter().enumerate() {
            if let Some(r) = reg {
                self.regs[r.0 as usize] = acc[slot];
            }
        }
        for w in &f.writes {
            self.apply_write(w, &acc)?;
        }
        Ok(())
    }

    fn exec_filter(
        &mut self,
        name: &str,
        dims: &[(usize, i64, i64, i64)],
        f: &FilterPipe,
    ) -> Result<(), RunError> {
        let k = self.prog.func(f.body).outputs().len() - 1;
        let cap = self.prog.sram(f.out).capacity();
        let mut count: i64 = 0;
        self.iterate(dims, 0, &mut |s| {
            s.stats.body_invocations += 1;
            s.cur_work.trips += 1;
            let outs = s.eval(f.body, &[])?;
            if outs[k].is_truthy() {
                if (count as usize + 1) * k > cap {
                    return Err(RunError::FilterOverflow {
                        ctrl: name.to_string(),
                    });
                }
                for (j, &v) in outs[..k].iter().enumerate() {
                    s.stats.sram_writes += 1;
                    s.sram_write_linear(f.out, count * k as i64 + j as i64, v)?;
                }
                count += 1;
            }
            Ok(())
        })?;
        self.cur_work.emitted = count as u64;
        self.regs[f.count_reg.0 as usize] = Elem::I32(count as i32);
        Ok(())
    }

    fn exec_regwrite(
        &mut self,
        dims: &[(usize, i64, i64, i64)],
        rw: &RegWrite,
    ) -> Result<(), RunError> {
        self.iterate(dims, 0, &mut |s| {
            s.cur_work.trips += 1;
            let v = s.eval_scalar(rw.func)?;
            s.regs[rw.reg.0 as usize] = v;
            Ok(())
        })
    }

    fn load_tile(&mut self, t: &TileTransfer) -> Result<(), RunError> {
        let base = self.eval_scalar(t.dram_base)?.as_i32()? as i64;
        for r in 0..t.rows {
            self.cur_work.dram.push(DramRange {
                dram: t.dram,
                offset: base + (r * t.dram_row_stride) as i64,
                len: t.cols as u32,
                is_write: false,
            });
            self.cur_work.trips += t.cols as u64;
            for c in 0..t.cols {
                let v = self.dram_read(t.dram, base + (r * t.dram_row_stride + c) as i64)?;
                self.stats.dram_reads += 1;
                self.sram_write_linear(t.sram, (r * t.cols + c) as i64, v)?;
            }
        }
        Ok(())
    }

    fn store_tile(&mut self, t: &TileTransfer) -> Result<(), RunError> {
        let base = self.eval_scalar(t.dram_base)?.as_i32()? as i64;
        for r in 0..t.rows {
            self.cur_work.dram.push(DramRange {
                dram: t.dram,
                offset: base + (r * t.dram_row_stride) as i64,
                len: t.cols as u32,
                is_write: true,
            });
            self.cur_work.trips += t.cols as u64;
            for c in 0..t.cols {
                let v = self.sram_read_linear(t.sram, (r * t.cols + c) as i64)?;
                self.stats.dram_writes += 1;
                self.dram_write(t.dram, base + (r * t.dram_row_stride + c) as i64, v)?;
            }
        }
        Ok(())
    }

    fn gather(&mut self, g: &GatherOp) -> Result<(), RunError> {
        let base = self.eval_scalar(g.base)?.as_i32()? as i64;
        let len = self.resolve_bound(g.len)?;
        let ib = self.resolve_bound(g.idx_base)?;
        for i in 0..len {
            let idx = self.sram_read_linear(g.indices, ib + i)?.as_i32()? as i64;
            self.cur_work.dram.push(DramRange {
                dram: g.dram,
                offset: base + idx,
                len: 1,
                is_write: false,
            });
            self.cur_work.trips += 1;
            let v = self.dram_read(g.dram, base + idx)?;
            self.stats.dram_reads += 1;
            self.sram_write_linear(g.dst, i, v)?;
        }
        Ok(())
    }

    fn scatter(&mut self, s: &ScatterOp) -> Result<(), RunError> {
        let base = self.eval_scalar(s.base)?.as_i32()? as i64;
        let len = self.resolve_bound(s.len)?;
        let ib = self.resolve_bound(s.idx_base)?;
        for i in 0..len {
            let idx = self.sram_read_linear(s.indices, ib + i)?.as_i32()? as i64;
            self.cur_work.dram.push(DramRange {
                dram: s.dram,
                offset: base + idx,
                len: 1,
                is_write: true,
            });
            self.cur_work.trips += 1;
            let v = self.sram_read_linear(s.src, i)?;
            self.stats.dram_writes += 1;
            self.dram_write(s.dram, base + idx, v)?;
        }
        Ok(())
    }
}

mod equivalence {
    use super::*;
    use crate::ctrl::Schedule;
    use crate::expr::{BinOp, ExprId, IndexId, ParamId, UnaryOp};
    use crate::program::ProgramBuilder;
    use crate::trace::TraceRecorder;
    use crate::types::DType;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const BINOPS: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
    ];
    const UNOPS: [UnaryOp; 9] = [
        UnaryOp::Neg,
        UnaryOp::Not,
        UnaryOp::Abs,
        UnaryOp::Exp,
        UnaryOp::Ln,
        UnaryOp::Sqrt,
        UnaryOp::Recip,
        UnaryOp::I2F,
        UnaryOp::F2I,
    ];

    /// Every structural event, in order, with the leaf work.
    #[derive(Debug, Clone, PartialEq)]
    enum Event {
        Enter(CtrlId),
        Iter(CtrlId),
        Exit(CtrlId),
        Leaf(CtrlId, LeafWork),
    }

    /// Logs events and also builds the `TraceNode` tree.
    #[derive(Default)]
    struct Log {
        events: Vec<Event>,
        rec: TraceRecorder,
    }

    impl TraceSink for Log {
        fn outer_enter(&mut self, c: CtrlId) {
            self.events.push(Event::Enter(c));
            self.rec.outer_enter(c);
        }
        fn outer_iter(&mut self, c: CtrlId) {
            self.events.push(Event::Iter(c));
            self.rec.outer_iter(c);
        }
        fn outer_exit(&mut self, c: CtrlId) {
            self.events.push(Event::Exit(c));
            self.rec.outer_exit(c);
        }
        fn leaf(&mut self, c: CtrlId, work: LeafWork) {
            self.events.push(Event::Leaf(c, work.clone()));
            self.rec.leaf(c, work);
        }
    }

    fn sram_dtype(s: SramId) -> DType {
        if s.0.is_multiple_of(2) {
            DType::I32
        } else {
            DType::F32
        }
    }

    /// Random program generator over a fixed set of memories: an I32 and
    /// an F32 DRAM buffer, scratchpads of rank 1–3 (even ids I32, odd F32),
    /// two I32 registers and one F32 (plus the bound register), and one
    /// parameter of each type. Operand types usually agree, so most
    /// programs run deep; now and then they do not, or an address strays,
    /// so every error path is reached.
    struct Gen<'r> {
        rng: &'r mut TestRng,
        b: ProgramBuilder,
        drams: Vec<DramId>,
        srams: Vec<(SramId, Vec<usize>)>,
        regs: Vec<(RegId, DType)>,
        /// The register runtime counter bounds read. Programs never write
        /// it (register writes can compute huge values), so every
        /// generated program stays small.
        bound: RegId,
        params: Vec<(ParamId, DType)>,
    }

    impl Gen<'_> {
        fn below(&mut self, n: usize) -> usize {
            self.rng.below(n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.rng.below(100) < percent
        }

        fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())].clone()
        }

        /// A small word; floats carry 20 fraction bits, so sums of a few
        /// of them round, and a reassociated fold shows in the bits.
        fn elem(&mut self, t: DType) -> Elem {
            match t {
                DType::I32 => Elem::I32(self.below(13) as i32 - 4),
                DType::F32 => Elem::F32(self.below(1 << 24) as f32 / (1 << 20) as f32 - 8.0),
            }
        }

        fn dtype(&mut self) -> DType {
            if self.chance(50) {
                DType::I32
            } else {
                DType::F32
            }
        }

        fn reg(&mut self) -> (RegId, DType) {
            let regs = self.regs.clone();
            self.pick(&regs)
        }

        /// A counter; `long` ones run past a block or two, and bounds are
        /// sometimes runtime values.
        fn counter(&mut self, long: bool) -> Counter {
            // A negative start makes `index % d` coordinates negative.
            let min = if self.chance(20) {
                -1 - self.below(3) as i64
            } else {
                self.below(3) as i64
            };
            let trips = if long {
                4 + self.below(40)
            } else {
                self.below(4)
            };
            let max: CBound = match self.below(12) {
                0 => CBound::Reg(self.bound),
                1 => CBound::Param(self.pick(&self.params.clone()).0),
                _ => CBound::Const(min + trips as i64),
            };
            let stride = if self.chance(80) { 1 } else { 2 };
            let par = 1 + self.below(4);
            self.b.counter(min, max, stride, par)
        }

        /// An I32 node likely in `0..d`: an index modulo `d`, or now and
        /// then a stray constant (maybe negative or past the end) or any
        /// node at all.
        fn coord(
            &mut self,
            f: &mut Func,
            pool: &[(ExprId, DType)],
            scope: &[IndexId],
            d: usize,
        ) -> ExprId {
            match self.below(40) {
                0 => f.konst(Elem::I32(self.below(d + 4) as i32 - 2)),
                1 if !pool.is_empty() => self.pick(pool).0,
                _ if !scope.is_empty() => {
                    let i = f.index(self.pick(scope));
                    let m = f.konst(Elem::I32(d as i32));
                    f.binary(BinOp::Rem, i, m)
                }
                _ => f.konst(Elem::I32(self.below(d) as i32)),
            }
        }

        /// An operand from `pool`, of type `t` when one exists (rarely any).
        fn operand(&mut self, pool: &[(ExprId, DType)], t: DType) -> ExprId {
            let typed: Vec<ExprId> = pool.iter().filter(|p| p.1 == t).map(|p| p.0).collect();
            if typed.is_empty() || self.chance(2) {
                self.pick(pool).0
            } else {
                self.pick(&typed)
            }
        }

        /// A node of (probably) type `t` built from `pool`.
        fn node(
            &mut self,
            f: &mut Func,
            pool: &[(ExprId, DType)],
            scope: &[IndexId],
            t: DType,
        ) -> (ExprId, DType) {
            match self.below(if pool.is_empty() { 5 } else { 12 }) {
                0 | 1 => (f.konst(self.elem(t)), t),
                2 if !scope.is_empty() => (f.index(self.pick(scope)), DType::I32),
                2 | 3 => {
                    let (p, pt) = self.pick(&self.params.clone());
                    (f.param(p), pt)
                }
                4 => {
                    let (r, rt) = self.reg();
                    (f.read_reg(r), rt)
                }
                5..=7 => {
                    let (s, dims) = self.pick(&self.srams.clone());
                    let addr = dims
                        .iter()
                        .map(|&d| self.coord(f, pool, scope, d))
                        .collect();
                    (f.load(s, addr), sram_dtype(s))
                }
                8 => {
                    let op = self.pick(&UNOPS);
                    let want = if op.is_float_only() {
                        DType::F32
                    } else if matches!(op, UnaryOp::Not | UnaryOp::I2F) {
                        DType::I32
                    } else {
                        t
                    };
                    let a = self.operand(pool, want);
                    let out = match op {
                        UnaryOp::I2F => DType::F32,
                        UnaryOp::F2I | UnaryOp::Not => DType::I32,
                        _ => want,
                    };
                    (f.unary(op, a), out)
                }
                9 | 10 => {
                    let op = self.pick(&BINOPS);
                    let t = if op.is_integer_only() { DType::I32 } else { t };
                    let a = self.operand(pool, t);
                    let b = self.operand(pool, t);
                    let out = if op.is_comparison() { DType::I32 } else { t };
                    (f.binary(op, a, b), out)
                }
                _ => {
                    let c = self.pick(pool).0;
                    let a = self.operand(pool, t);
                    let b = self.operand(pool, t);
                    (f.mux(c, a, b), t)
                }
            }
        }

        /// A function over `scope` with `outs` outputs, using every `Expr`
        /// kind; returns it with the (probable) type of each output.
        fn func(&mut self, scope: &[IndexId], outs: usize) -> (FuncId, Vec<DType>) {
            let mut f = Func::new("f");
            let mut pool: Vec<(ExprId, DType)> = Vec::new();
            if let (Some(&i), true) = (scope.last(), self.chance(40)) {
                // A float that varies along the innermost counter, with
                // enough fraction bits that folding it rounds.
                let iv = f.index(i);
                let x = f.unary(UnaryOp::I2F, iv);
                let k = f.konst(self.elem(DType::F32));
                pool.push((f.binary(BinOp::Mul, x, k), DType::F32));
            }
            for _ in 0..1 + self.below(8) {
                let t = self.dtype();
                let node = self.node(&mut f, &pool, scope, t);
                pool.push(node);
            }
            if self.chance(1) {
                pool.push((f.arg(self.below(2) as u8), DType::I32));
            }
            let outs: Vec<(ExprId, DType)> = (0..outs).map(|_| self.pick(&pool)).collect();
            f.set_outputs(outs.iter().map(|o| o.0).collect());
            (self.b.func(f), outs.iter().map(|o| o.1).collect())
        }

        /// An address function: one coordinate per dimension of `s`.
        fn addr_func(&mut self, scope: &[IndexId], s: SramId) -> FuncId {
            let dims = self.srams[s.0 as usize].1.clone();
            let mut f = Func::new("addr");
            let outs = dims
                .iter()
                .map(|&d| {
                    if self.chance(2) {
                        f.konst(Elem::F32(0.5))
                    } else {
                        self.coord(&mut f, &[], scope, d)
                    }
                })
                .collect();
            f.set_outputs(outs);
            self.b.func(f)
        }

        /// A scalar DRAM offset: usually in range, sometimes not.
        fn base_func(&mut self, scope: &[IndexId]) -> FuncId {
            let mut f = Func::new("base");
            let k = f.konst(Elem::I32(match self.below(16) {
                0 => -3,
                1 => 40,
                _ => self.below(8) as i32,
            }));
            let out = match scope.first() {
                Some(&i) if self.chance(50) => {
                    let iv = f.index(i);
                    f.binary(BinOp::Add, iv, k)
                }
                _ => k,
            };
            f.set_outputs(vec![out]);
            self.b.func(f)
        }

        /// A scratchpad, usually of type `t`.
        fn sram_of(&mut self, t: DType) -> SramId {
            let typed: Vec<SramId> = self
                .srams
                .iter()
                .map(|s| s.0)
                .filter(|&s| sram_dtype(s) == t)
                .collect();
            if self.chance(5) {
                self.pick(&self.srams.clone()).0
            } else {
                self.pick(&typed)
            }
        }

        /// Pipe writes of `values` (their probable types).
        fn writes(&mut self, scope: &[IndexId], values: &[DType]) -> Vec<PipeWrite> {
            (0..self.below(3))
                .map(|_| {
                    let value_slot = self.below(values.len());
                    let t = values[value_slot];
                    let sram = self.sram_of(t);
                    let ops: Vec<BinOp> = BINOPS
                        .iter()
                        .copied()
                        .filter(|o| t == DType::I32 || !o.is_integer_only())
                        .collect();
                    PipeWrite {
                        sram,
                        addr: self.addr_func(scope, sram),
                        value_slot,
                        mode: if self.chance(40) {
                            WriteMode::Accumulate(self.pick(&ops))
                        } else {
                            WriteMode::Overwrite
                        },
                    }
                })
                .collect()
        }

        /// A random leaf under `outer` (the indices of its ancestors).
        fn leaf(&mut self, outer: &[IndexId]) -> CtrlId {
            let n = self.below(3);
            let cchain: Vec<Counter> = (0..n)
                .map(|k| {
                    let long = k + 1 == n && self.chance(50);
                    self.counter(long)
                })
                .collect();
            let mut scope = outer.to_vec();
            scope.extend(cchain.iter().map(|c| c.index));
            let op = match self.below(10) {
                0..=2 => {
                    let outs = 1 + self.below(2);
                    let (body, types) = self.func(&scope, outs);
                    let writes = self.writes(&scope, &types);
                    InnerOp::Map(MapPipe { body, writes })
                }
                3..=5 => {
                    let outs = 1 + self.below(2);
                    let (map, types) = self.func(&scope, outs);
                    let mut combine = Vec::new();
                    let mut init = Vec::new();
                    let mut out_regs = Vec::new();
                    for &t in &types {
                        let ops = match t {
                            DType::I32 => &[
                                BinOp::Add,
                                BinOp::Mul,
                                BinOp::Min,
                                BinOp::Max,
                                BinOp::And,
                                BinOp::Or,
                                BinOp::Xor,
                            ][..],
                            DType::F32 => &[BinOp::Add, BinOp::Mul, BinOp::Min, BinOp::Max][..],
                        };
                        combine.push(self.pick(ops));
                        init.push(if self.chance(25) {
                            FoldInit::Resume
                        } else {
                            FoldInit::Const(self.elem(t))
                        });
                        let regs: Vec<RegId> = self
                            .regs
                            .iter()
                            .filter(|r| r.1 == t || self.rng.below(20) == 0)
                            .map(|r| r.0)
                            .collect();
                        out_regs.push(match regs.as_slice() {
                            [] => None,
                            _ if self.chance(8) => None,
                            rs => Some(self.pick(rs)),
                        });
                    }
                    let writes = self.writes(outer, &types);
                    InnerOp::Fold(FoldPipe {
                        map,
                        combine,
                        init,
                        out_regs,
                        writes,
                    })
                }
                6 => {
                    let k = 1 + self.below(2);
                    let (body, types) = self.func(&scope, k + 1);
                    let out = self.sram_of(types[0]);
                    let count_reg = self.regs[0].0;
                    InnerOp::Filter(FilterPipe {
                        body,
                        out,
                        count_reg,
                    })
                }
                7 => {
                    let (func, _) = self.func(&scope, 1);
                    let reg = self.reg().0;
                    InnerOp::RegWrite(RegWrite { reg, func })
                }
                8 => {
                    let (sram, dims) = self.pick(&self.srams.clone());
                    let cap: usize = dims.iter().product();
                    let cols = 1 + self.below(cap.min(6));
                    let rows = 1 + self.below(cap / cols);
                    let t = TileTransfer {
                        dram: self.drams[(sram.0 % 2) as usize],
                        dram_base: self.base_func(outer),
                        rows,
                        cols,
                        dram_row_stride: cols + self.below(4),
                        sram,
                    };
                    if self.chance(50) {
                        InnerOp::LoadTile(t)
                    } else {
                        InnerOp::StoreTile(t)
                    }
                }
                _ => {
                    let dram = self.pick(&self.drams.clone());
                    let base = self.base_func(outer);
                    let indices = SramId(0);
                    let other = self.pick(&self.srams.clone()).0;
                    let idx_base = CBound::Const(self.below(3) as i64);
                    let len = CBound::Const(self.below(5) as i64);
                    if self.chance(50) {
                        InnerOp::Gather(GatherOp {
                            dram,
                            base,
                            indices,
                            idx_base,
                            dst: other,
                            len,
                        })
                    } else {
                        InnerOp::Scatter(ScatterOp {
                            dram,
                            base,
                            indices,
                            idx_base,
                            src: other,
                            len,
                        })
                    }
                }
            };
            self.b.inner("leaf", cchain, op)
        }

        /// An outer controller of leaves and nested outers.
        fn outer(&mut self, outer: &[IndexId], depth: usize) -> CtrlId {
            let cchain: Vec<Counter> = (0..self.below(2)).map(|_| self.counter(false)).collect();
            let mut scope = outer.to_vec();
            scope.extend(cchain.iter().map(|c| c.index));
            let children = (0..1 + self.below(4))
                .map(|_| {
                    if depth < 2 && self.chance(20) {
                        self.outer(&scope, depth + 1)
                    } else {
                        self.leaf(&scope)
                    }
                })
                .collect();
            self.b
                .outer("outer", Schedule::Sequential, cchain, children)
        }
    }

    /// A program with its initial register, parameter and DRAM values.
    struct Case {
        prog: Program,
        regs: Vec<(RegId, Elem)>,
        params: Vec<(ParamId, Elem)>,
        drams: Vec<(DramId, Vec<Elem>)>,
    }

    fn generate(rng: &mut TestRng) -> Case {
        let mut b = ProgramBuilder::new("random");
        let drams = vec![b.dram("di", DType::I32, 24), b.dram("df", DType::F32, 40)];
        let shapes: [&[usize]; 6] = [&[6], &[5], &[3, 4], &[4, 2], &[2, 3, 2], &[2, 2, 3]];
        let srams = shapes
            .iter()
            .enumerate()
            .map(|(i, dims)| {
                let s = b.sram(&format!("s{i}"), sram_dtype(SramId(i as u32)), dims);
                (s, dims.to_vec())
            })
            .collect();
        let regs = vec![
            (b.reg("r0", DType::I32), DType::I32),
            (b.reg("r1", DType::F32), DType::F32),
            (b.reg("r2", DType::I32), DType::I32),
        ];
        let bound = b.reg("rb", DType::I32);
        let params = vec![
            (b.param("p0", DType::I32), DType::I32),
            (b.param("p1", DType::F32), DType::F32),
        ];
        let mut g = Gen {
            rng,
            b,
            drams,
            srams,
            regs,
            bound,
            params,
        };
        let root = g.outer(&[], 0);
        let mut init_regs = Vec::new();
        for (r, t) in g.regs.clone().into_iter().chain([(bound, DType::I32)]) {
            // A mistyped register now and then fails bounds and loads.
            let t = if g.chance(5) { g.dtype() } else { t };
            init_regs.push((r, g.elem(t)));
        }
        let params = g.params.clone();
        let params = params.into_iter().map(|(p, t)| (p, g.elem(t))).collect();
        let dram_data = [(DType::I32, 24), (DType::F32, 40)]
            .into_iter()
            .zip(g.drams.clone())
            .map(|((t, n), d)| (d, (0..n).map(|_| g.elem(t)).collect()))
            .collect();
        Case {
            prog: g.b.finish(root).expect("generated programs validate"),
            regs: init_regs,
            params,
            drams: dram_data,
        }
    }

    /// Runs both interpreters from the same state of `case` and compares
    /// everything observable: the result (a panic counts as `Err(())`),
    /// statistics, trace events and tree, and every memory and register.
    fn check(case: &Case) -> Result<(), TestCaseError> {
        let p = &case.prog;
        let mut new = Machine::new(p);
        let mut old = TreeWalk::new(p);
        for &(r, v) in &case.regs {
            new.set_reg(r, v);
            old.set_reg(r, v);
        }
        for &(q, v) in &case.params {
            new.set_param(q, v);
            old.set_param(q, v);
        }
        for (d, v) in &case.drams {
            new.write_dram(*d, v);
            old.write_dram(*d, v);
        }
        let (mut log_new, mut log_old) = (Log::default(), Log::default());
        let got = catch_unwind(AssertUnwindSafe(|| new.run_traced(&mut log_new))).map_err(|_| ());
        let want = catch_unwind(AssertUnwindSafe(|| old.run_traced(&mut log_old))).map_err(|_| ());
        prop_assert_eq!(&got, &want);
        if want.is_err() {
            return Ok(()); // both panicked: a function read an argument
        }
        prop_assert_eq!(new.stats, old.stats);
        prop_assert_eq!(&log_new.events, &log_old.events);
        if want == Ok(Ok(())) {
            prop_assert_eq!(log_new.rec.into_trace(), log_old.rec.into_trace());
        }
        for i in 0..p.drams().len() as u32 {
            prop_assert_eq!(new.dram_data(DramId(i)), old.dram_data(DramId(i)));
        }
        for i in 0..p.srams().len() as u32 {
            prop_assert_eq!(new.sram_data(SramId(i)), old.sram_data(SramId(i)));
        }
        for i in 0..p.regs().len() as u32 {
            prop_assert_eq!(new.reg(RegId(i)), old.reg(RegId(i)));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]
        #[test]
        fn lowered_matches_tree_walk(seed in any::<u64>()) {
            check(&generate(&mut TestRng::new(seed)))?;
        }
    }
}

//! Host reference interpreter for parallel-pattern programs.
//!
//! The interpreter executes a [`Program`] with *sequential* semantics:
//! controllers run depth-first in program order, ignoring schedules and
//! parallelization factors. Because the programming model guarantees that
//! schedules and `par` factors only affect performance (the compiler
//! inserts N-buffering to preserve values), the interpreter's final memory
//! state is the golden reference against which the cycle-accurate simulator
//! is checked, element for element.

mod block;
mod lower;
#[cfg(test)]
mod tree_walk;

use self::block::Lanes;
use self::lower::{Addr, Block, Code, Ins, Kind, Layout, Lowered, Node, Write, LANES};
use crate::ctrl::{
    CBound, Controller, CtrlId, FoldInit, FoldPipe, GatherOp, ScatterOp, TileTransfer, WriteMode,
};
use crate::expr::{eval_binop, eval_unop, BinOp, DramId, RegId, SramId};
use crate::program::Program;
use crate::trace::{DramRange, LeafWork, NullSink, TraceSink};
use crate::types::{Elem, TypeError};
use std::fmt;

/// Runtime error raised by the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A word of the wrong type reached an operation.
    Type(TypeError),
    /// Scratchpad access out of bounds.
    SramOob {
        /// Scratchpad name.
        mem: String,
        /// Offending linear or per-dim coordinate.
        addr: i64,
    },
    /// DRAM access out of bounds.
    DramOob {
        /// Buffer name.
        mem: String,
        /// Offending element offset.
        addr: i64,
    },
    /// A `FoldInit::Resume` slot has no output register to resume from.
    ResumeWithoutReg {
        /// Controller name.
        ctrl: String,
    },
    /// A filter emitted more groups than its output scratchpad holds.
    FilterOverflow {
        /// Controller name.
        ctrl: String,
    },
    /// A counter bound resolved to a negative trip count configuration.
    BadBound {
        /// Controller name.
        ctrl: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Type(e) => write!(f, "{e}"),
            RunError::SramOob { mem, addr } => {
                write!(f, "scratchpad `{mem}` access out of bounds at {addr}")
            }
            RunError::DramOob { mem, addr } => {
                write!(f, "dram `{mem}` access out of bounds at {addr}")
            }
            RunError::ResumeWithoutReg { ctrl } => {
                write!(f, "fold `{ctrl}` resumes a slot with no output register")
            }
            RunError::FilterOverflow { ctrl } => {
                write!(f, "filter `{ctrl}` overflowed its output scratchpad")
            }
            RunError::BadBound { ctrl } => {
                write!(f, "controller `{ctrl}` has an invalid runtime bound")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<TypeError> for RunError {
    fn from(e: TypeError) -> RunError {
        RunError::Type(e)
    }
}

/// Counters accumulated during interpretation, used for sanity cross-checks
/// against the simulator's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Pattern-body evaluations (one per index tuple of each compute pipe).
    pub body_invocations: u64,
    /// Words read from DRAM (dense + sparse).
    pub dram_reads: u64,
    /// Words written to DRAM (dense + sparse).
    pub dram_writes: u64,
    /// Words written to scratchpads by compute pipes.
    pub sram_writes: u64,
}

/// Interpreter state: one program plus its memories.
///
/// Parameters, registers and loop indices live in one slot file, followed
/// by the slots of the lowered program each run builds, so every operand
/// is a plain slot index.
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    prog: &'p Program,
    drams: Vec<Vec<Elem>>,
    srams: Vec<Vec<Elem>>,
    slots: Vec<Elem>,
    /// Resolved counters of the controllers being executed, outermost
    /// first; each invocation pushes its chain and pops it when done.
    dims: Vec<Dim>,
    /// Rows of the leaf sweeping in blocks.
    lanes: Lanes,
    /// Accumulated statistics.
    pub stats: InterpStats,
}

/// One resolved counter: the index slot it drives, its bounds and stride,
/// and (for all but a leaf's innermost counter) its current value.
#[derive(Debug, Clone, Copy)]
struct Dim {
    slot: usize,
    min: i64,
    max: i64,
    stride: i64,
    cur: i64,
}

/// The sweep of a leaf's innermost counter: each [`Row::advance`] sets the
/// index slot to the next value.
#[derive(Debug, Clone, Copy)]
struct Row {
    slot: Option<usize>,
    next: i64,
    max: i64,
    stride: i64,
}

/// Shortest innermost run swept as a block rather than trip by trip.
const MIN_BLOCK: usize = 4;

impl Row {
    /// Trips left in the sweep, at most one block's worth.
    #[inline(always)]
    fn pending(&self) -> usize {
        if self.next >= self.max {
            return 0;
        }
        let left = (self.max.abs_diff(self.next) - 1) / self.stride as u64 + 1;
        left.min(LANES as u64) as usize
    }

    /// Skips `n` trips that ran as a block.
    fn skip(&mut self, n: usize) {
        self.next += n as i64 * self.stride;
    }

    /// Moves to the next trip, or returns `false` when the sweep is done.
    #[inline(always)]
    fn advance(&mut self, slots: &mut [Elem]) -> bool {
        if self.next >= self.max {
            return false;
        }
        if let Some(s) = self.slot {
            slots[s] = Elem::I32(self.next as i32);
        }
        self.next += self.stride;
        true
    }
}

/// `eval_binop` with the arithmetic pattern bodies spend their time in
/// inlined; every other case defers to it, so results are identical.
#[inline(always)]
fn binop(op: BinOp, a: Elem, b: Elem) -> Result<Elem, TypeError> {
    match (op, a, b) {
        (BinOp::Add, Elem::F32(x), Elem::F32(y)) => Ok(Elem::F32(x + y)),
        (BinOp::Sub, Elem::F32(x), Elem::F32(y)) => Ok(Elem::F32(x - y)),
        (BinOp::Mul, Elem::F32(x), Elem::F32(y)) => Ok(Elem::F32(x * y)),
        (BinOp::Add, Elem::I32(x), Elem::I32(y)) => Ok(Elem::I32(x.wrapping_add(y))),
        (BinOp::Sub, Elem::I32(x), Elem::I32(y)) => Ok(Elem::I32(x.wrapping_sub(y))),
        (BinOp::Mul, Elem::I32(x), Elem::I32(y)) => Ok(Elem::I32(x.wrapping_mul(y))),
        _ => eval_binop(op, a, b),
    }
}

/// Leading elements of a `len`-element run from `start` that lie inside a
/// buffer of `cap` elements.
fn in_bounds(start: i64, len: usize, cap: usize) -> usize {
    match usize::try_from(start) {
        Ok(s) if s < cap => len.min(cap - s),
        _ => 0,
    }
}

#[cold]
fn sram_oob(prog: &Program, id: SramId, addr: i64) -> RunError {
    RunError::SramOob {
        mem: prog.sram(id).name.clone(),
        addr,
    }
}

/// The linear offset of a scratchpad address whose coordinates `get`
/// reads (from slots, or from one lane of a block's rows); `lists` holds
/// the coordinates of `Addr::Dn` addresses. Every coordinate is
/// type-checked before any bound is, and an out-of-bounds address reports
/// its first coordinate, as `Sram::flatten`'s callers always have.
#[inline(always)]
fn offset(
    prog: &Program,
    lists: &[u32],
    mem: u32,
    at: Addr,
    get: impl Fn(u32) -> Elem,
) -> Result<usize, RunError> {
    let first = match at {
        Addr::D1 { a, n } => {
            let x = get(a).as_i32()?;
            if x >= 0 && (x as u32) < n {
                return Ok(x as usize);
            }
            x
        }
        Addr::D2 { a, b, n0, n1 } => {
            let x = get(a).as_i32()?;
            let y = get(b).as_i32()?;
            if x >= 0 && (x as u32) < n0 && y >= 0 && (y as u32) < n1 {
                return Ok(x as usize * n1 as usize + y as usize);
            }
            x
        }
        Addr::Dn { at, rank } => {
            let dims = &prog.sram(SramId(mem)).dims;
            let coords = &lists[at as usize..(at + rank) as usize];
            let mut off = 0usize;
            let mut ok = true;
            for (&s, &d) in coords.iter().zip(dims) {
                let c = get(s).as_i32()?;
                ok &= c >= 0 && (c as usize) < d;
                off = off.wrapping_mul(d).wrapping_add(c as usize);
            }
            if ok {
                return Ok(off);
            }
            get(coords[0]).as_i32()?
        }
    };
    Err(sram_oob(prog, SramId(mem), first as i64))
}

impl<'p> Machine<'p> {
    /// Creates a machine with zero-initialized memories for `prog`.
    pub fn new(prog: &'p Program) -> Machine<'p> {
        let layout = Layout::of(prog);
        let mut slots = Vec::with_capacity(layout.funcs);
        slots.extend(prog.params().iter().map(|p| Elem::zero(p.dtype)));
        slots.extend(prog.regs().iter().map(|r| Elem::zero(r.dtype)));
        slots.resize(layout.funcs, Elem::I32(0));
        Machine {
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
            slots,
            dims: Vec::new(),
            lanes: Lanes::default(),
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
        let n = self.prog.params().len();
        self.slots[..n][id.0 as usize] = v;
    }

    /// Sets a register (e.g. to seed an accumulating fold).
    pub fn set_reg(&mut self, id: RegId, v: Elem) {
        let l = Layout::of(self.prog);
        self.slots[l.regs..l.indices][id.0 as usize] = v;
    }

    /// Reads a register.
    pub fn reg(&self, id: RegId) -> Elem {
        let l = Layout::of(self.prog);
        self.slots[l.regs..l.indices][id.0 as usize]
    }

    /// Executes the whole program.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on out-of-bounds accesses, type errors, or
    /// invalid runtime bounds.
    pub fn run(&mut self) -> Result<(), RunError> {
        self.run_traced(&mut NullSink)
    }

    /// Executes the whole program, reporting structural events and leaf
    /// work to `sink` (see [`TraceSink`]). The cycle-accurate simulator
    /// replays the recorded trace for timing.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_traced(&mut self, sink: &mut dyn TraceSink) -> Result<(), RunError> {
        let prog = self.prog;
        let layout = Layout::of(prog);
        self.slots.truncate(layout.funcs);
        self.dims.clear();
        let low = Lowered::new(prog, layout, &mut self.slots);
        self.lanes.reserve(low.rows);
        self.exec_ctrl(&low, prog.root(), sink)
    }

    fn exec_ctrl(
        &mut self,
        low: &Lowered<'p>,
        id: CtrlId,
        sink: &mut dyn TraceSink,
    ) -> Result<(), RunError> {
        let node = &low.nodes[id.0 as usize];
        let base = self.dims.len();
        self.push_cchain(node.ctrl)?;
        if let Kind::Outer(children) = node.kind {
            sink.outer_enter(id);
            self.for_each_tuple(base, |m| {
                sink.outer_iter(id);
                for &c in children {
                    m.exec_ctrl(low, c, sink)?;
                }
                Ok(())
            })?;
            sink.outer_exit(id);
        } else {
            let mut work = LeafWork::default();
            self.exec_leaf(low, node, base, &mut work)?;
            sink.leaf(id, work);
        }
        self.dims.truncate(base);
        Ok(())
    }

    /// Resolves a controller's counter bounds onto the counter stack.
    fn push_cchain(&mut self, ctrl: &Controller) -> Result<(), RunError> {
        let indices = Layout::of(self.prog).indices;
        for c in &ctrl.cchain {
            let min = self.resolve_bound(c.min)?;
            let max = self.resolve_bound(c.max)?;
            if c.stride < 1 {
                return Err(RunError::BadBound {
                    ctrl: ctrl.name.clone(),
                });
            }
            self.dims.push(Dim {
                slot: indices + c.index.0 as usize,
                min,
                max,
                stride: c.stride,
                cur: min,
            });
        }
        Ok(())
    }

    fn resolve_bound(&self, b: CBound) -> Result<i64, RunError> {
        Ok(match b {
            CBound::Const(v) => v,
            CBound::Reg(r) => self.reg(r).as_i32()? as i64,
            CBound::Param(p) => self.slots[p.0 as usize].as_i32()? as i64,
        })
    }

    /// Runs `row` once per tuple of the outer counters `dims[base..]`, in
    /// row-major order with their index slots set, handing it the sweep of
    /// the innermost counter (a single trip when there are no counters).
    /// An explicit odometer walks the outer counters, so the per-trip loop
    /// lives in `row` itself.
    #[inline(always)]
    fn for_each_row(
        &mut self,
        base: usize,
        mut row: impl FnMut(&mut Self, Row) -> Result<(), RunError>,
    ) -> Result<(), RunError> {
        let top = self.dims.len();
        let mut d = base;
        if d < top {
            self.dims[d].cur = self.dims[d].min;
        }
        loop {
            if d + 1 < top {
                let Dim { slot, max, cur, .. } = self.dims[d];
                if cur < max {
                    self.slots[slot] = Elem::I32(cur as i32);
                    d += 1;
                    self.dims[d].cur = self.dims[d].min;
                    continue;
                }
            } else {
                let sweep = match self.dims.get(d) {
                    Some(dim) => Row {
                        slot: Some(dim.slot),
                        next: dim.min,
                        max: dim.max,
                        stride: dim.stride,
                    },
                    None => Row {
                        slot: None,
                        next: 0,
                        max: 1,
                        stride: 1,
                    },
                };
                row(self, sweep)?;
            }
            if d == base {
                return Ok(());
            }
            d -= 1;
            self.dims[d].cur += self.dims[d].stride;
        }
    }

    /// Runs `trip` once per index tuple of the counters `dims[base..]`.
    #[inline(always)]
    fn for_each_tuple(
        &mut self,
        base: usize,
        mut trip: impl FnMut(&mut Self) -> Result<(), RunError>,
    ) -> Result<(), RunError> {
        self.for_each_row(base, |m, mut row| {
            while row.advance(&mut m.slots) {
                trip(m)?;
            }
            Ok(())
        })
    }

    /// Evaluates a lowered function into its slots.
    #[inline(always)]
    fn eval(&mut self, low: &Lowered, code: Code) -> Result<(), RunError> {
        let slots = &mut self.slots[..];
        for ins in low.ins(code) {
            match *ins {
                Ins::Load { dst, mem, at } => {
                    let off = offset(self.prog, low.lists(), mem, at, |i| slots[i as usize])?;
                    slots[dst as usize] = self.srams[mem as usize][off];
                }
                Ins::Unary { dst, op, a } => {
                    slots[dst as usize] = eval_unop(op, slots[a as usize])?;
                }
                Ins::Binary { dst, op, a, b } => {
                    slots[dst as usize] = binop(op, slots[a as usize], slots[b as usize])?;
                }
                Ins::Mux { dst, c, t, e } => {
                    let pick = if slots[c as usize].is_truthy() { t } else { e };
                    slots[dst as usize] = slots[pick as usize];
                }
                Ins::Arg { n } => panic!("pattern function reads argument {n}, but none is passed"),
            }
        }
        Ok(())
    }

    /// The first output of a lowered scalar function.
    fn eval_scalar(&mut self, low: &Lowered, code: Code) -> Result<Elem, RunError> {
        self.eval(low, code)?;
        Ok(self.slots[low.outs(code)[0] as usize])
    }

    #[cold]
    fn dram_oob(&self, id: DramId, addr: i64) -> RunError {
        RunError::DramOob {
            mem: self.prog.dram(id).name.clone(),
            addr,
        }
    }

    /// Applies one lowered pipe write.
    #[inline(always)]
    fn write(&mut self, low: &Lowered, w: &Write) -> Result<(), RunError> {
        self.eval(low, w.addr)?;
        let slots = &self.slots;
        let off = offset(self.prog, low.lists(), w.mem, w.at, |i| slots[i as usize])?;
        let v = self.slots[w.value as usize];
        self.store(w, off, v)
    }

    /// Stores `v` at `off` of the write's scratchpad, by its mode.
    #[inline(always)]
    fn store(&mut self, w: &Write, off: usize, v: Elem) -> Result<(), RunError> {
        let cell = &mut self.srams[w.mem as usize][off];
        *cell = match w.mode {
            WriteMode::Overwrite => v,
            WriteMode::Accumulate(op) => binop(op, *cell, v)?,
        };
        self.stats.sram_writes += 1;
        Ok(())
    }

    fn sram_write_linear(&mut self, id: SramId, off: i64, v: Elem) -> Result<(), RunError> {
        match usize::try_from(off)
            .ok()
            .and_then(|o| self.srams[id.0 as usize].get_mut(o))
        {
            Some(cell) => {
                *cell = v;
                Ok(())
            }
            None => Err(sram_oob(self.prog, id, off)),
        }
    }

    fn sram_read_linear(&self, id: SramId, off: i64) -> Result<Elem, RunError> {
        match usize::try_from(off)
            .ok()
            .and_then(|o| self.srams[id.0 as usize].get(o))
        {
            Some(v) => Ok(*v),
            None => Err(sram_oob(self.prog, id, off)),
        }
    }

    fn dram_read(&self, id: DramId, off: i64) -> Result<Elem, RunError> {
        match usize::try_from(off)
            .ok()
            .and_then(|o| self.drams[id.0 as usize].get(o))
        {
            Some(v) => Ok(*v),
            None => Err(self.dram_oob(id, off)),
        }
    }

    fn dram_write(&mut self, id: DramId, off: i64, v: Elem) -> Result<(), RunError> {
        match usize::try_from(off)
            .ok()
            .and_then(|o| self.drams[id.0 as usize].get_mut(o))
        {
            Some(cell) => {
                *cell = v;
                Ok(())
            }
            None => Err(self.dram_oob(id, off)),
        }
    }

    /// Runs one leaf invocation over its counters `dims[base..]`.
    fn exec_leaf(
        &mut self,
        low: &Lowered<'p>,
        node: &Node<'p>,
        base: usize,
        work: &mut LeafWork,
    ) -> Result<(), RunError> {
        let name = &node.ctrl.name;
        match &node.kind {
            Kind::Outer(_) => unreachable!("outer controllers are not leaves"),
            Kind::Map {
                body,
                writes,
                block,
            } => self.exec_pattern(
                base,
                work,
                block.as_ref(),
                |m, blk, n| m.map_lanes(blk, writes, n),
                |m| {
                    m.eval(low, *body)?;
                    writes.iter().try_for_each(|w| m.write(low, w))
                },
            ),
            Kind::Fold {
                map,
                pipe,
                acc,
                writes,
                block,
            } => self.exec_fold(
                low,
                base,
                name,
                (*map, block.as_ref()),
                pipe,
                *acc as usize,
                writes,
                work,
            ),
            Kind::Filter {
                body,
                out,
                count_reg,
            } => {
                let outs = low.outs(*body);
                let (vals, pred) = outs.split_at(outs.len() - 1);
                let k = vals.len();
                let cap = self.srams[out.0 as usize].len();
                let mut count: i64 = 0;
                let no_lanes = |_: &mut Self, _: &Block, _| Ok(());
                self.exec_pattern(base, work, None, no_lanes, |m| {
                    m.eval(low, *body)?;
                    if m.slots[pred[0] as usize].is_truthy() {
                        if (count as usize + 1) * k > cap {
                            return Err(RunError::FilterOverflow { ctrl: name.clone() });
                        }
                        for (j, &s) in vals.iter().enumerate() {
                            m.stats.sram_writes += 1;
                            let v = m.slots[s as usize];
                            m.sram_write_linear(*out, count * k as i64 + j as i64, v)?;
                        }
                        count += 1;
                    }
                    Ok(())
                })?;
                work.emitted = count as u64;
                self.slots[*count_reg as usize] = Elem::I32(count as i32);
                Ok(())
            }
            Kind::RegWrite { func, reg } => {
                let (out, reg) = (low.outs(*func)[0] as usize, *reg as usize);
                self.for_each_tuple(base, |m| {
                    work.trips += 1;
                    m.eval(low, *func)?;
                    m.slots[reg] = m.slots[out];
                    Ok(())
                })
            }
            Kind::LoadTile(b, t) => self.for_each_tuple(base, |m| m.load_tile(low, *b, t, work)),
            Kind::StoreTile(b, t) => self.for_each_tuple(base, |m| m.store_tile(low, *b, t, work)),
            Kind::Gather(b, g) => self.for_each_tuple(base, |m| m.gather(low, *b, g, work)),
            Kind::Scatter(b, s) => self.for_each_tuple(base, |m| m.scatter(low, *b, s, work)),
        }
    }

    /// Sweeps a compute pipe's counters, counting each index tuple as a
    /// trip and a body invocation (the failing one included). With a
    /// `block`, full blocks of the innermost counter are evaluated together
    /// and `apply` then performs their effects in trip order; short tails
    /// and blocks that failed to evaluate run `body` one trip at a time.
    #[inline(always)]
    fn exec_pattern(
        &mut self,
        base: usize,
        work: &mut LeafWork,
        block: Option<&Block>,
        mut apply: impl FnMut(&mut Self, &Block, usize) -> Result<(), (usize, RunError)>,
        mut body: impl FnMut(&mut Self) -> Result<(), RunError>,
    ) -> Result<(), RunError> {
        let mut trips = 0u64;
        let swept = self.for_each_row(base, |m, mut row| {
            let mut broadcast = false;
            loop {
                let n = row.pending();
                if n == 0 {
                    return Ok(());
                }
                if let Some(blk) = block.filter(|_| n >= MIN_BLOCK) {
                    if !broadcast {
                        m.broadcast(blk);
                        broadcast = true;
                    }
                    if m.eval_block(blk, row.next, row.stride, n) {
                        row.skip(n);
                        if let Err((ran, e)) = apply(m, blk, n) {
                            trips += ran as u64;
                            return Err(e);
                        }
                        trips += n as u64;
                        continue;
                    }
                }
                for _ in 0..n {
                    row.advance(&mut m.slots);
                    trips += 1;
                    body(m)?;
                }
            }
        });
        self.stats.body_invocations += trips;
        work.trips += trips;
        swept
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_fold(
        &mut self,
        low: &Lowered<'p>,
        base: usize,
        name: &str,
        (map, block): (Code, Option<&Block>),
        pipe: &FoldPipe,
        acc: usize,
        writes: &[Write],
        work: &mut LeafWork,
    ) -> Result<(), RunError> {
        for (slot, init) in pipe.init.iter().enumerate() {
            self.slots[acc + slot] = match init {
                FoldInit::Const(v) => *v,
                FoldInit::Resume => {
                    let reg = pipe.out_regs[slot].ok_or_else(|| RunError::ResumeWithoutReg {
                        ctrl: name.to_string(),
                    })?;
                    self.reg(reg)
                }
            };
        }
        let outs = low.outs(map);
        let apply = |m: &mut Self, blk: &Block, n| m.fold_lanes(blk, &pipe.combine, acc, n);
        self.exec_pattern(base, work, block, apply, |m| {
            m.eval(low, map)?;
            // Slot by slot, in index order: f32 sums are never reassociated.
            for (k, (&op, &o)) in pipe.combine.iter().zip(outs).enumerate() {
                let v = m.slots[o as usize];
                let a = &mut m.slots[acc + k];
                *a = binop(op, *a, v)?;
            }
            Ok(())
        })?;
        let layout = Layout::of(self.prog);
        for (slot, reg) in pipe.out_regs.iter().enumerate() {
            if let Some(r) = reg {
                self.slots[layout.reg(*r)] = self.slots[acc + slot];
            }
        }
        writes.iter().try_for_each(|w| self.write(low, w))
    }

    /// Copies a dense tile from DRAM, one bounds check and one slice copy
    /// per row. On an out-of-bounds row the valid prefix is still copied
    /// and the error names the first failing element.
    fn load_tile(
        &mut self,
        low: &Lowered,
        base: Code,
        t: &TileTransfer,
        work: &mut LeafWork,
    ) -> Result<(), RunError> {
        let base = self.eval_scalar(low, base)?.as_i32()? as i64;
        let (dram, sram) = (
            &self.drams[t.dram.0 as usize],
            &mut self.srams[t.sram.0 as usize],
        );
        for r in 0..t.rows {
            let start = base + (r * t.dram_row_stride) as i64;
            work.dram.push(DramRange {
                dram: t.dram,
                offset: start,
                len: t.cols as u32,
                is_write: false,
            });
            work.trips += t.cols as u64;
            let at = r * t.cols;
            let d_ok = in_bounds(start, t.cols, dram.len());
            let s_ok = in_bounds(at as i64, t.cols, sram.len());
            let n = d_ok.min(s_ok);
            if n > 0 {
                let s = start as usize;
                sram[at..at + n].copy_from_slice(&dram[s..s + n]);
            }
            self.stats.dram_reads += n as u64;
            if n < t.cols {
                // Each element is read from DRAM, then written on chip.
                if d_ok == n {
                    return Err(self.dram_oob(t.dram, start + n as i64));
                }
                self.stats.dram_reads += 1;
                return Err(sram_oob(self.prog, t.sram, (at + n) as i64));
            }
        }
        Ok(())
    }

    /// Copies a dense tile to DRAM row by row, like [`Self::load_tile`].
    fn store_tile(
        &mut self,
        low: &Lowered,
        base: Code,
        t: &TileTransfer,
        work: &mut LeafWork,
    ) -> Result<(), RunError> {
        let base = self.eval_scalar(low, base)?.as_i32()? as i64;
        let (dram, sram) = (
            &mut self.drams[t.dram.0 as usize],
            &self.srams[t.sram.0 as usize],
        );
        for r in 0..t.rows {
            let start = base + (r * t.dram_row_stride) as i64;
            work.dram.push(DramRange {
                dram: t.dram,
                offset: start,
                len: t.cols as u32,
                is_write: true,
            });
            work.trips += t.cols as u64;
            let at = r * t.cols;
            let d_ok = in_bounds(start, t.cols, dram.len());
            let s_ok = in_bounds(at as i64, t.cols, sram.len());
            let n = d_ok.min(s_ok);
            if n > 0 {
                let s = start as usize;
                dram[s..s + n].copy_from_slice(&sram[at..at + n]);
            }
            self.stats.dram_writes += n as u64;
            if n < t.cols {
                // Each element is read on chip, counted, then written out.
                if s_ok == n {
                    return Err(sram_oob(self.prog, t.sram, (at + n) as i64));
                }
                self.stats.dram_writes += 1;
                return Err(self.dram_oob(t.dram, start + n as i64));
            }
        }
        Ok(())
    }

    fn gather(
        &mut self,
        low: &Lowered,
        base: Code,
        g: &GatherOp,
        work: &mut LeafWork,
    ) -> Result<(), RunError> {
        let base = self.eval_scalar(low, base)?.as_i32()? as i64;
        let len = self.resolve_bound(g.len)?;
        let ib = self.resolve_bound(g.idx_base)?;
        for i in 0..len {
            let idx = self.sram_read_linear(g.indices, ib + i)?.as_i32()? as i64;
            work.dram.push(DramRange {
                dram: g.dram,
                offset: base + idx,
                len: 1,
                is_write: false,
            });
            work.trips += 1;
            let v = self.dram_read(g.dram, base + idx)?;
            self.stats.dram_reads += 1;
            self.sram_write_linear(g.dst, i, v)?;
        }
        Ok(())
    }

    fn scatter(
        &mut self,
        low: &Lowered,
        base: Code,
        s: &ScatterOp,
        work: &mut LeafWork,
    ) -> Result<(), RunError> {
        let base = self.eval_scalar(low, base)?.as_i32()? as i64;
        let len = self.resolve_bound(s.len)?;
        let ib = self.resolve_bound(s.idx_base)?;
        for i in 0..len {
            let idx = self.sram_read_linear(s.indices, ib + i)?.as_i32()? as i64;
            work.dram.push(DramRange {
                dram: s.dram,
                offset: base + idx,
                len: 1,
                is_write: true,
            });
            work.trips += 1;
            let v = self.sram_read_linear(s.src, i)?;
            self.stats.dram_writes += 1;
            self.dram_write(s.dram, base + idx, v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::{FilterPipe, InnerOp, MapPipe, PipeWrite, RegWrite, Schedule};
    use crate::expr::BinOp;
    use crate::expr::Func;
    use crate::program::ProgramBuilder;
    use crate::types::DType;

    /// out[i] = a[i] + b[i] over a 16-element tile loaded from DRAM.
    fn build_vadd() -> (Program, DramId, DramId, DramId) {
        let mut b = ProgramBuilder::new("vadd");
        let da = b.dram("a", DType::F32, 16);
        let db = b.dram("b", DType::F32, 16);
        let dc = b.dram("c", DType::F32, 16);
        let sa = b.sram("ta", DType::F32, &[16]);
        let sb = b.sram("tb", DType::F32, &[16]);
        let sc = b.sram("tc", DType::F32, &[16]);

        let mut zero = Func::new("zero");
        let z = zero.konst(Elem::I32(0));
        zero.set_outputs(vec![z]);
        let zero = b.func(zero);

        let lda = b.inner(
            "load_a",
            vec![],
            InnerOp::LoadTile(TileTransfer {
                dram: da,
                dram_base: zero,
                rows: 1,
                cols: 16,
                dram_row_stride: 16,
                sram: sa,
            }),
        );
        let ldb = b.inner(
            "load_b",
            vec![],
            InnerOp::LoadTile(TileTransfer {
                dram: db,
                dram_base: zero,
                rows: 1,
                cols: 16,
                dram_row_stride: 16,
                sram: sb,
            }),
        );

        let i = b.counter(0, 16, 1, 4);
        let idx = i.index;
        let mut body = Func::new("add");
        let ii = body.index(idx);
        let av = body.load(sa, vec![ii]);
        let bv = body.load(sb, vec![ii]);
        let sum = body.binary(BinOp::Add, av, bv);
        body.set_outputs(vec![sum]);
        let body = b.func(body);
        let mut addr = Func::new("addr");
        let ii = addr.index(idx);
        addr.set_outputs(vec![ii]);
        let addr = b.func(addr);
        let add = b.inner(
            "add",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: sc,
                    addr,
                    value_slot: 0,
                    mode: WriteMode::Overwrite,
                }],
            }),
        );
        let st = b.inner(
            "store_c",
            vec![],
            InnerOp::StoreTile(TileTransfer {
                dram: dc,
                dram_base: zero,
                rows: 1,
                cols: 16,
                dram_row_stride: 16,
                sram: sc,
            }),
        );
        let root = b.outer(
            "root",
            Schedule::Sequential,
            vec![],
            vec![lda, ldb, add, st],
        );
        (b.finish(root).unwrap(), da, db, dc)
    }

    #[test]
    fn vadd_end_to_end() {
        let (p, da, db, dc) = build_vadd();
        let mut m = Machine::new(&p);
        let a: Vec<Elem> = (0..16).map(|i| Elem::F32(i as f32)).collect();
        let bv: Vec<Elem> = (0..16).map(|i| Elem::F32(10.0 * i as f32)).collect();
        m.write_dram(da, &a);
        m.write_dram(db, &bv);
        m.run().unwrap();
        for i in 0..16 {
            assert_eq!(m.dram_data(dc)[i], Elem::F32(11.0 * i as f32));
        }
        assert_eq!(m.stats.body_invocations, 16);
        assert_eq!(m.stats.dram_reads, 32);
        assert_eq!(m.stats.dram_writes, 16);
    }

    #[test]
    fn fold_sums_indices() {
        let mut b = ProgramBuilder::new("sum");
        let r = b.reg("acc", DType::I32);
        let i = b.counter(0, 10, 1, 1);
        let mut map = Func::new("id");
        let ii = map.index(i.index);
        map.set_outputs(vec![ii]);
        let map = b.func(map);
        let fold = b.inner(
            "sum",
            vec![i],
            InnerOp::Fold(FoldPipe {
                map,
                combine: vec![BinOp::Add],
                init: vec![FoldInit::Const(Elem::I32(0))],
                out_regs: vec![Some(r)],
                writes: vec![],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![fold]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        m.run().unwrap();
        assert_eq!(m.reg(r), Elem::I32(45));
    }

    #[test]
    fn fold_resume_accumulates_across_invocations() {
        let mut b = ProgramBuilder::new("resume");
        let r = b.reg("acc", DType::I32);
        let outer_i = b.counter(0, 3, 1, 1);
        let inner_i = b.counter(0, 4, 1, 1);
        let mut map = Func::new("one");
        let one = map.konst(Elem::I32(1));
        map.set_outputs(vec![one]);
        let map = b.func(map);
        let fold = b.inner(
            "count",
            vec![inner_i],
            InnerOp::Fold(FoldPipe {
                map,
                combine: vec![BinOp::Add],
                init: vec![FoldInit::Resume],
                out_regs: vec![Some(r)],
                writes: vec![],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![outer_i], vec![fold]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        m.run().unwrap();
        // 3 outer iterations x 4 inner elements
        assert_eq!(m.reg(r), Elem::I32(12));
    }

    #[test]
    fn filter_compacts_and_counts() {
        let mut b = ProgramBuilder::new("filter");
        let out = b.sram("out", DType::I32, &[16]);
        let cnt = b.reg("cnt", DType::I32);
        let i = b.counter(0, 10, 1, 1);
        let mut body = Func::new("even");
        let ii = body.index(i.index);
        let two = body.konst(Elem::I32(2));
        let m2 = body.binary(BinOp::Rem, ii, two);
        let zero = body.konst(Elem::I32(0));
        let pred = body.binary(BinOp::Eq, m2, zero);
        body.set_outputs(vec![ii, pred]);
        let body = b.func(body);
        let fi = b.inner(
            "keep_even",
            vec![i],
            InnerOp::Filter(FilterPipe {
                body,
                out,
                count_reg: cnt,
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![fi]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        m.run().unwrap();
        assert_eq!(m.reg(cnt), Elem::I32(5));
        let got: Vec<i32> = (0..5)
            .map(|i| m.sram_data(out)[i].as_i32().unwrap())
            .collect();
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut b = ProgramBuilder::new("gs");
        let src = b.dram("src", DType::I32, 32);
        let dst = b.dram("dst", DType::I32, 32);
        let idx = b.sram("idx", DType::I32, &[8]);
        let tmp = b.sram("tmp", DType::I32, &[8]);
        let mut zero = Func::new("zero");
        let z = zero.konst(Elem::I32(0));
        zero.set_outputs(vec![z]);
        let zero = b.func(zero);

        // Fill idx[i] = 3*i (on-chip) so gather pulls a strided pattern.
        let i = b.counter(0, 8, 1, 1);
        let mut body = Func::new("idxgen");
        let ii = body.index(i.index);
        let three = body.konst(Elem::I32(3));
        let v = body.binary(BinOp::Mul, ii, three);
        body.set_outputs(vec![v]);
        let body = b.func(body);
        let mut addr = Func::new("addr");
        let ii = addr.index(i.index);
        addr.set_outputs(vec![ii]);
        let addr = b.func(addr);
        let gen = b.inner(
            "idxgen",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: idx,
                    addr,
                    value_slot: 0,
                    mode: WriteMode::Overwrite,
                }],
            }),
        );
        let ga = b.inner(
            "gather",
            vec![],
            InnerOp::Gather(GatherOp {
                dram: src,
                base: zero,
                indices: idx,
                idx_base: CBound::Const(0),
                dst: tmp,
                len: CBound::Const(8),
            }),
        );
        let sc = b.inner(
            "scatter",
            vec![],
            InnerOp::Scatter(ScatterOp {
                dram: dst,
                base: zero,
                indices: idx,
                idx_base: CBound::Const(0),
                src: tmp,
                len: CBound::Const(8),
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![gen, ga, sc]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        let data: Vec<Elem> = (0..32).map(|i| Elem::I32(100 + i)).collect();
        m.write_dram(src, &data);
        m.run().unwrap();
        for i in 0..8 {
            assert_eq!(m.dram_data(dst)[3 * i], Elem::I32(100 + 3 * i as i32));
        }
    }

    #[test]
    fn reg_dependent_bound() {
        let mut b = ProgramBuilder::new("dyn");
        let n = b.reg("n", DType::I32);
        let acc = b.reg("acc", DType::I32);
        // n = 7
        let mut setn = Func::new("setn");
        let seven = setn.konst(Elem::I32(7));
        setn.set_outputs(vec![seven]);
        let setn = b.func(setn);
        let set = b.inner(
            "setn",
            vec![],
            InnerOp::RegWrite(RegWrite { reg: n, func: setn }),
        );
        // acc = sum over 0..n of 1
        let i = b.counter(CBound::Const(0), CBound::Reg(n), 1, 1);
        let mut one = Func::new("one");
        let o = one.konst(Elem::I32(1));
        one.set_outputs(vec![o]);
        let one = b.func(one);
        let fold = b.inner(
            "count",
            vec![i],
            InnerOp::Fold(FoldPipe {
                map: one,
                combine: vec![BinOp::Add],
                init: vec![FoldInit::Const(Elem::I32(0))],
                out_regs: vec![Some(acc)],
                writes: vec![],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![set, fold]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        m.run().unwrap();
        assert_eq!(m.reg(acc), Elem::I32(7));
    }

    #[test]
    fn sram_oob_reported() {
        let mut b = ProgramBuilder::new("oob");
        let out = b.sram("out", DType::I32, &[4]);
        let i = b.counter(0, 8, 1, 1);
        let mut body = Func::new("id");
        let ii = body.index(i.index);
        body.set_outputs(vec![ii]);
        let body = b.func(body);
        let mut addr = Func::new("addr");
        let ii = addr.index(i.index);
        addr.set_outputs(vec![ii]);
        let addr = b.func(addr);
        let mp = b.inner(
            "p",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: out,
                    addr,
                    value_slot: 0,
                    mode: WriteMode::Overwrite,
                }],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![mp]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        assert!(matches!(m.run(), Err(RunError::SramOob { .. })));
    }

    #[test]
    fn accumulate_write_is_dense_hash_reduce() {
        // Histogram: bins[i % 3] += 1 — the canonical dense HashReduce.
        let mut b = ProgramBuilder::new("hist");
        let bins = b.sram("bins", DType::I32, &[3]);
        let i = b.counter(0, 9, 1, 1);
        let mut body = Func::new("one");
        let o = body.konst(Elem::I32(1));
        body.set_outputs(vec![o]);
        let body = b.func(body);
        let mut key = Func::new("key");
        let ii = key.index(i.index);
        let three = key.konst(Elem::I32(3));
        let k = key.binary(BinOp::Rem, ii, three);
        key.set_outputs(vec![k]);
        let key = b.func(key);
        let mp = b.inner(
            "hist",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: bins,
                    addr: key,
                    value_slot: 0,
                    mode: WriteMode::Accumulate(BinOp::Add),
                }],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![mp]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        m.run().unwrap();
        for i in 0..3 {
            assert_eq!(m.sram_data(bins)[i], Elem::I32(3));
        }
    }
}

//! The lowered form the interpreter executes.
//!
//! At the start of every run each [`Func`](crate::expr::Func) use — a
//! pattern body, a fold map, a pipe write's address function, a transfer's
//! base function — is lowered once into a flat register program over the
//! machine's slot file. Operand slots are resolved in advance: constants
//! get a pre-filled slot, while index, parameter and register reads name
//! the slot that already holds the value, so they cost no instruction.
//! Every remaining node becomes one [`Ins`] writing its own slot, in node
//! order, so errors surface in the same order as a node-by-node walk.
//!
//! Each use site gets its own slots: a function used both as a body and as
//! an address function cannot overwrite the body outputs a later write
//! still reads.
//!
//! The lowered form is private interpreter state, rebuilt per run and
//! never stored in the [`Program`], whose `Debug` output is hashed.

use crate::ctrl::{
    Controller, CtrlBody, CtrlId, FoldPipe, GatherOp, InnerOp, ScatterOp, TileTransfer, WriteMode,
};
use crate::expr::{BinOp, Expr, FuncId, RegId, SramId, UnaryOp};
use crate::program::Program;
use crate::types::Elem;
use std::collections::HashMap;

/// Where each kind of value lives in the slot file: parameters from 0,
/// then registers, then loop indices, then the lowered functions' slots.
#[derive(Debug, Clone, Copy)]
pub(super) struct Layout {
    /// First register slot.
    pub regs: usize,
    /// First loop-index slot.
    pub indices: usize,
    /// First slot owned by lowered functions.
    pub funcs: usize,
}

impl Layout {
    pub fn of(prog: &Program) -> Layout {
        let regs = prog.params().len();
        let indices = regs + prog.regs().len();
        Layout {
            regs,
            indices,
            funcs: indices + prog.num_indices() as usize,
        }
    }

    pub fn reg(&self, r: RegId) -> usize {
        self.regs + r.0 as usize
    }
}

/// A scratchpad address: coordinate slots plus the bounds they are checked
/// against. Offsets are row-major; the error for an out-of-bounds address
/// reports the first coordinate, as `Sram::flatten`'s callers always have.
#[derive(Debug, Clone, Copy)]
pub(super) enum Addr {
    /// One coordinate below `n`.
    D1 { a: u32, n: u32 },
    /// Two coordinates below `n0` and `n1`; the row stride is `n1`.
    D2 { a: u32, b: u32, n0: u32, n1: u32 },
    /// `rank` coordinate slots listed from `lists[at]`, checked against the
    /// scratchpad's own dims (any rank, or dims too large for `u32`).
    Dn { at: u32, rank: u32 },
}

/// One lowered expression node; `dst` is the slot it writes.
#[derive(Debug, Clone, Copy)]
pub(super) enum Ins {
    Load {
        dst: u32,
        mem: u32,
        at: Addr,
    },
    Unary {
        dst: u32,
        op: UnaryOp,
        a: u32,
    },
    Binary {
        dst: u32,
        op: BinOp,
        a: u32,
        b: u32,
    },
    Mux {
        dst: u32,
        c: u32,
        t: u32,
        e: u32,
    },
    /// A formal argument. Pattern bodies are called without arguments, so
    /// reaching one is a bug in the program, as in the tree walk.
    Arg {
        n: u8,
    },
}

/// One lowered function use: a range of instructions and the slots of its
/// outputs (a range of `Lowered::lists`).
#[derive(Debug, Clone, Copy)]
pub(super) struct Code {
    ins: (u32, u32),
    outs: (u32, u32),
}

/// A lowered pipe write: the address program, its coordinates, the slot
/// holding the value, and the target.
#[derive(Debug)]
pub(super) struct Write {
    pub addr: Code,
    pub at: Addr,
    pub mem: u32,
    pub value: u32,
    pub mode: WriteMode,
}

/// What a controller does, lowered. Transfers keep a borrow of their op:
/// only the base function needs lowering.
#[derive(Debug)]
pub(super) enum Kind<'p> {
    Outer(&'p [CtrlId]),
    Map {
        body: Code,
        writes: Vec<Write>,
        block: Option<Block>,
    },
    Fold {
        map: Code,
        pipe: &'p FoldPipe,
        /// First of the accumulator slots, one per fold slot.
        acc: u32,
        writes: Vec<Write>,
        block: Option<Block>,
    },
    Filter {
        body: Code,
        out: SramId,
        count_reg: u32,
    },
    RegWrite {
        func: Code,
        reg: u32,
    },
    LoadTile(Code, &'p TileTransfer),
    StoreTile(Code, &'p TileTransfer),
    Gather(Code, &'p GatherOp),
    Scatter(Code, &'p ScatterOp),
}

/// A controller with its lowered body.
#[derive(Debug)]
pub(super) struct Node<'p> {
    pub ctrl: &'p Controller,
    pub kind: Kind<'p>,
}

/// The lowered program: one [`Node`] per controller, indexed by
/// [`CtrlId`], over shared instruction and slot-list arenas.
#[derive(Debug)]
pub(super) struct Lowered<'p> {
    pub nodes: Vec<Node<'p>>,
    /// Rows the largest [`Block`] needs.
    pub rows: usize,
    ins: Vec<Ins>,
    lists: Vec<u32>,
}

impl<'p> Lowered<'p> {
    /// Lowers every controller of `prog`, appending the slots it needs
    /// (constants pre-filled) to `slots`, which must end at `layout.funcs`.
    pub fn new(prog: &'p Program, layout: Layout, slots: &mut Vec<Elem>) -> Lowered<'p> {
        debug_assert_eq!(slots.len(), layout.funcs);
        let mut l = Lowerer {
            prog,
            layout,
            slots,
            ins: Vec::new(),
            lists: Vec::new(),
        };
        let nodes: Vec<Node> = prog
            .ctrls()
            .iter()
            .map(|ctrl| Node {
                ctrl,
                kind: l.kind(ctrl),
            })
            .collect();
        let rows = |n: &Node| match &n.kind {
            Kind::Map { block, .. } | Kind::Fold { block, .. } => {
                block.as_ref().map_or(0, |b| b.rows)
            }
            _ => 0,
        };
        Lowered {
            rows: nodes.iter().map(rows).max().unwrap_or(0),
            nodes,
            ins: l.ins,
            lists: l.lists,
        }
    }

    /// The instructions of `code`.
    pub fn ins(&self, code: Code) -> &[Ins] {
        &self.ins[code.ins.0 as usize..code.ins.1 as usize]
    }

    /// The output slots of `code`.
    pub fn outs(&self, code: Code) -> &[u32] {
        &self.lists[code.outs.0 as usize..code.outs.1 as usize]
    }

    /// The slot-list arena `Addr::Dn` coordinates index.
    pub fn lists(&self) -> &[u32] {
        &self.lists
    }
}

/// Lanes per block: the PCU's SIMD width (paper §3.1).
pub(super) const LANES: usize = 16;

/// A Map or Fold leaf lowered for blocks of [`LANES`] consecutive trips of
/// its innermost counter. Every slot its functions touch becomes a row:
/// lane `l` of row `r` is `lanes[r * LANES + l]`. Slots the sweep cannot
/// change (constants, parameters, registers, outer indices) are
/// *uniform*: copied to every lane of their row before each sweep.
#[derive(Debug)]
pub(super) struct Block {
    pub rows: usize,
    /// The innermost counter's row.
    pub index: u32,
    /// `(slot, row)` of each uniform slot.
    pub uniform: Vec<(u32, u32)>,
    /// The body (then, for a map, each write's address function) over rows.
    pub ins: Vec<Ins>,
    /// Coordinate rows of `Addr::Dn` addresses.
    pub lists: Vec<u32>,
    /// Rows of the body's outputs.
    pub outs: Vec<u32>,
    /// Per map write: its address over rows and the row of its value.
    pub writes: Vec<(Addr, u32)>,
}

struct BlockBuilder<'l> {
    /// The scalar program's slot lists.
    lists: &'l [u32],
    row_of: HashMap<u32, u32>,
    block: Block,
}

impl BlockBuilder<'_> {
    fn new_row(&mut self) -> u32 {
        self.block.rows += 1;
        slot32(self.block.rows - 1)
    }

    /// The row holding operand `slot`; a slot no instruction wrote is
    /// uniform.
    fn row(&mut self, slot: u32) -> u32 {
        if let Some(&r) = self.row_of.get(&slot) {
            return r;
        }
        let r = self.new_row();
        self.row_of.insert(slot, r);
        self.block.uniform.push((slot, r));
        r
    }

    fn dst(&mut self, slot: u32) -> u32 {
        let r = self.new_row();
        self.row_of.insert(slot, r);
        r
    }

    fn addr(&mut self, at: Addr) -> Addr {
        match at {
            Addr::D1 { a, n } => Addr::D1 { a: self.row(a), n },
            Addr::D2 { a, b, n0, n1 } => Addr::D2 {
                a: self.row(a),
                b: self.row(b),
                n0,
                n1,
            },
            Addr::Dn { at, rank } => {
                let coords = &self.lists[at as usize..(at + rank) as usize];
                let rows: Vec<u32> = coords.iter().map(|&s| self.row(s)).collect();
                let at = slot32(self.block.lists.len());
                self.block.lists.extend(rows);
                Addr::Dn { at, rank }
            }
        }
    }
}

struct Lowerer<'p, 's> {
    prog: &'p Program,
    layout: Layout,
    slots: &'s mut Vec<Elem>,
    ins: Vec<Ins>,
    lists: Vec<u32>,
}

fn slot32(s: usize) -> u32 {
    u32::try_from(s).expect("slot file fits u32 indices")
}

impl<'p> Lowerer<'p, '_> {
    fn fresh(&mut self, v: Elem) -> u32 {
        self.slots.push(v);
        slot32(self.slots.len() - 1)
    }

    fn kind(&mut self, ctrl: &'p Controller) -> Kind<'p> {
        let op = match &ctrl.body {
            CtrlBody::Outer { children, .. } => return Kind::Outer(children),
            CtrlBody::Inner(op) => op,
        };
        match op {
            InnerOp::Map(m) => {
                let body = self.func(m.body);
                let writes = self.writes(&m.writes, |l, s| l.outs(body)[s]);
                // A body or address function reading a scratchpad this map
                // writes may see an earlier trip's write: no blocks then.
                let codes: Vec<Code> = std::iter::once(body)
                    .chain(writes.iter().map(|w| w.addr))
                    .collect();
                let reads_own_writes = codes.iter().any(|&c| {
                    self.ins(c).iter().any(
                        |i| matches!(i, Ins::Load { mem, .. } if writes.iter().any(|w| w.mem == *mem)),
                    )
                });
                let block = if reads_own_writes {
                    None
                } else {
                    self.block(ctrl, &codes, body, &writes)
                };
                Kind::Map {
                    body,
                    writes,
                    block,
                }
            }
            InnerOp::Fold(f) => {
                let map = self.func(f.map);
                let acc = slot32(self.slots.len());
                for _ in &f.combine {
                    self.fresh(Elem::I32(0));
                }
                let writes = self.writes(&f.writes, |_, s| acc + slot32(s));
                // Fold writes land after the sweep, so blocks are always safe.
                let block = self.block(ctrl, &[map], map, &[]);
                Kind::Fold {
                    map,
                    pipe: f,
                    acc,
                    writes,
                    block,
                }
            }
            InnerOp::Filter(f) => Kind::Filter {
                body: self.func(f.body),
                out: f.out,
                count_reg: slot32(self.layout.reg(f.count_reg)),
            },
            InnerOp::RegWrite(rw) => Kind::RegWrite {
                func: self.func(rw.func),
                reg: slot32(self.layout.reg(rw.reg)),
            },
            InnerOp::LoadTile(t) => Kind::LoadTile(self.func(t.dram_base), t),
            InnerOp::StoreTile(t) => Kind::StoreTile(self.func(t.dram_base), t),
            InnerOp::Gather(g) => Kind::Gather(self.func(g.base), g),
            InnerOp::Scatter(s) => Kind::Scatter(self.func(s.base), s),
        }
    }

    fn outs(&self, code: Code) -> &[u32] {
        &self.lists[code.outs.0 as usize..code.outs.1 as usize]
    }

    fn ins(&self, code: Code) -> &[Ins] {
        &self.ins[code.ins.0 as usize..code.ins.1 as usize]
    }

    /// Re-lowers a leaf's functions over rows of [`LANES`] lanes, for
    /// sweeping its innermost counter a block at a time; `outs` supplies
    /// the output rows and `writes` the address and value rows. `None` for
    /// a leaf without counters or with a function reading an argument.
    fn block(
        &self,
        ctrl: &Controller,
        codes: &[Code],
        outs: Code,
        writes: &[Write],
    ) -> Option<Block> {
        let innermost = ctrl.cchain.last()?.index;
        let mut b = BlockBuilder {
            lists: &self.lists,
            row_of: HashMap::new(),
            block: Block {
                rows: 1,
                index: 0,
                uniform: Vec::new(),
                ins: Vec::new(),
                lists: Vec::new(),
                outs: Vec::new(),
                writes: Vec::new(),
            },
        };
        b.row_of
            .insert(slot32(self.layout.indices + innermost.0 as usize), 0);
        for &code in codes {
            for ins in self.ins(code) {
                let ins = match *ins {
                    Ins::Load { dst, mem, at } => {
                        let at = b.addr(at);
                        Ins::Load {
                            dst: b.dst(dst),
                            mem,
                            at,
                        }
                    }
                    Ins::Unary { dst, op, a } => {
                        let a = b.row(a);
                        Ins::Unary {
                            dst: b.dst(dst),
                            op,
                            a,
                        }
                    }
                    Ins::Binary { dst, op, a, b: c } => {
                        let (a, c) = (b.row(a), b.row(c));
                        Ins::Binary {
                            dst: b.dst(dst),
                            op,
                            a,
                            b: c,
                        }
                    }
                    Ins::Mux { dst, c, t, e } => {
                        let (c, t, e) = (b.row(c), b.row(t), b.row(e));
                        Ins::Mux {
                            dst: b.dst(dst),
                            c,
                            t,
                            e,
                        }
                    }
                    Ins::Arg { .. } => return None,
                };
                b.block.ins.push(ins);
            }
        }
        b.block.outs = self.outs(outs).iter().map(|&s| b.row(s)).collect();
        b.block.writes = writes
            .iter()
            .map(|w| (b.addr(w.at), b.row(w.value)))
            .collect();
        Some(b.block)
    }

    /// Lowers pipe writes; `value` maps a value slot number to the slot
    /// holding that value.
    fn writes(
        &mut self,
        writes: &[crate::ctrl::PipeWrite],
        value: impl Fn(&Self, usize) -> u32,
    ) -> Vec<Write> {
        writes
            .iter()
            .map(|w| {
                let addr = self.func(w.addr);
                let at = self.addr(w.sram, addr.outs.0, addr.outs.1 - addr.outs.0);
                Write {
                    addr,
                    at,
                    mem: w.sram.0,
                    value: value(self, w.value_slot),
                    mode: w.mode,
                }
            })
            .collect()
    }

    /// The address of `mem` whose `rank` coordinates are listed from
    /// `lists[at]`.
    fn addr(&mut self, mem: SramId, at: u32, rank: u32) -> Addr {
        let dims = &self.prog.sram(mem).dims;
        let coords = &self.lists[at as usize..(at + rank) as usize];
        let fit = |d: usize| u32::try_from(d).ok();
        match (coords, dims.as_slice()) {
            (&[a], &[d]) => match fit(d) {
                Some(n) => Addr::D1 { a, n },
                None => Addr::Dn { at, rank },
            },
            (&[a, b], &[d0, d1]) => match (fit(d0), fit(d1)) {
                (Some(n0), Some(n1)) => Addr::D2 { a, b, n0, n1 },
                _ => Addr::Dn { at, rank },
            },
            _ => Addr::Dn { at, rank },
        }
    }

    /// Lowers one use of `fid`.
    fn func(&mut self, fid: FuncId) -> Code {
        let f = self.prog.func(fid);
        let start = slot32(self.ins.len());
        let mut slot_of: Vec<u32> = Vec::with_capacity(f.nodes().len());
        for node in f.nodes() {
            let s = |e: &crate::expr::ExprId| slot_of[e.0 as usize];
            let (ins, dst) = match node {
                Expr::Const(c) => {
                    let dst = self.fresh(*c);
                    slot_of.push(dst);
                    continue;
                }
                Expr::Index(i) => {
                    slot_of.push(slot32(self.layout.indices + i.0 as usize));
                    continue;
                }
                Expr::Param(p) => {
                    slot_of.push(p.0);
                    continue;
                }
                Expr::ReadReg(r) => {
                    slot_of.push(slot32(self.layout.reg(*r)));
                    continue;
                }
                Expr::Arg(n) => (Ins::Arg { n: *n }, self.fresh(Elem::I32(0))),
                Expr::Load { mem, addr } => {
                    let at = slot32(self.lists.len());
                    let coords: Vec<u32> = addr.iter().map(s).collect();
                    self.lists.extend(coords);
                    let at = self.addr(*mem, at, slot32(addr.len()));
                    let dst = self.fresh(Elem::I32(0));
                    (
                        Ins::Load {
                            dst,
                            mem: mem.0,
                            at,
                        },
                        dst,
                    )
                }
                Expr::Unary(op, a) => {
                    let a = s(a);
                    let dst = self.fresh(Elem::I32(0));
                    (Ins::Unary { dst, op: *op, a }, dst)
                }
                Expr::Binary(op, a, b) => {
                    let (a, b) = (s(a), s(b));
                    let dst = self.fresh(Elem::I32(0));
                    (Ins::Binary { dst, op: *op, a, b }, dst)
                }
                Expr::Mux(c, t, e) => {
                    let (c, t, e) = (s(c), s(t), s(e));
                    let dst = self.fresh(Elem::I32(0));
                    (Ins::Mux { dst, c, t, e }, dst)
                }
            };
            self.ins.push(ins);
            slot_of.push(dst);
        }
        let outs = slot32(self.lists.len());
        self.lists
            .extend(f.outputs().iter().map(|o| slot_of[o.0 as usize]));
        Code {
            ins: (start, slot32(self.ins.len())),
            outs: (outs, slot32(self.lists.len())),
        }
    }
}

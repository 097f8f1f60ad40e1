//! Block execution: a Map or Fold sweeps its innermost counter [`LANES`]
//! trips at a time, each lowered instruction running over every lane
//! before the next one starts, so dispatch and type checks are paid once
//! per block instead of once per trip.
//!
//! A row holds the 32-bit patterns of one value across the lanes, plus one
//! type for all of them. Each instruction checks its operand row types
//! once, then runs a monomorphic loop; a row whose lanes would differ in
//! type (a load of mixed words, a select between an i32 and an f32), or an
//! instruction that would fail on some lane, abandons the block.
//!
//! Blocks only reorder work that has no effects: function evaluation
//! writes nothing but its own rows. The effects — fold combines and pipe
//! writes — are then applied lane by lane, in trip order, so a fold
//! combines in index order exactly as a trip-at-a-time sweep does. An
//! abandoned block is redone one trip at a time, which fails exactly as
//! the tree walk does.

use super::lower::{Addr, Block, Ins, Write, LANES};
use super::{binop, offset, Machine, RunError};
use crate::expr::{eval_binop, eval_unop, BinOp};
use crate::program::Program;
use crate::types::{DType, Elem};

/// The rows of the leaf sweeping in blocks: lane `l` of row `r` is
/// `bits[r * LANES + l]`, a word of type `types[r]`.
#[derive(Debug, Clone, Default)]
pub(super) struct Lanes {
    bits: Vec<u32>,
    types: Vec<DType>,
}

impl Lanes {
    /// Makes room for `rows` rows.
    pub fn reserve(&mut self, rows: usize) {
        if self.types.len() < rows {
            self.types.resize(rows, DType::I32);
            self.bits.resize(rows * LANES, 0);
        }
    }

    #[inline(always)]
    fn row(&self, r: u32) -> (&[u32; LANES], DType) {
        let start = r as usize * LANES;
        let bits = self.bits[start..start + LANES]
            .try_into()
            .expect("rows are LANES long");
        (bits, self.types[r as usize])
    }

    #[inline(always)]
    fn elem(&self, r: u32, l: usize) -> Elem {
        Elem::from_bits(self.bits[r as usize * LANES + l], self.types[r as usize])
    }

    /// The scratchpad offsets of address `at` for lanes `0..offs.len()`,
    /// or `false` if any lane's address is mistyped or out of bounds.
    #[inline(always)]
    fn offsets(
        &self,
        offs: &mut [usize],
        lists: &[u32],
        prog: &Program,
        mem: u32,
        at: Addr,
    ) -> bool {
        let i32_row = |r: u32| match self.row(r) {
            (bits, DType::I32) => Some(bits),
            _ => None,
        };
        match at {
            Addr::D1 { a, n } => {
                let Some(a) = i32_row(a) else { return false };
                for (o, &x) in offs.iter_mut().zip(a) {
                    if (x as i32) < 0 || x >= n {
                        return false;
                    }
                    *o = x as usize;
                }
            }
            Addr::D2 { a, b, n0, n1 } => {
                let (Some(a), Some(b)) = (i32_row(a), i32_row(b)) else {
                    return false;
                };
                for ((o, &x), &y) in offs.iter_mut().zip(a).zip(b) {
                    if (x as i32) < 0 || (y as i32) < 0 || x >= n0 || y >= n1 {
                        return false;
                    }
                    *o = x as usize * n1 as usize + y as usize;
                }
            }
            Addr::Dn { .. } => {
                for (l, o) in offs.iter_mut().enumerate() {
                    match offset(prog, lists, mem, at, |r| self.elem(r, l)) {
                        Ok(off) => *o = off,
                        Err(_) => return false,
                    }
                }
            }
        }
        true
    }

    /// Stores a whole row; lanes past the block's end hold leftovers that
    /// are never read.
    #[inline(always)]
    fn set(&mut self, r: u32, ty: DType, bits: &[u32; LANES]) {
        let start = r as usize * LANES;
        self.bits[start..start + LANES].copy_from_slice(bits);
        self.types[r as usize] = ty;
    }
}

/// `out[l] = f(a[l], b[l])` over every f32 lane: lanes past the block's
/// end compute harmless garbage, which keeps the loop a fixed-width one.
#[inline(always)]
fn f32s(out: &mut [u32; LANES], a: &[u32; LANES], b: &[u32; LANES], f: impl Fn(f32, f32) -> f32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(f32::from_bits(x), f32::from_bits(y)).to_bits();
    }
}

/// `out[l] = f(a[l], b[l])` over every i32 lane, like [`f32s`].
#[inline(always)]
fn i32s(out: &mut [u32; LANES], a: &[u32; LANES], b: &[u32; LANES], f: impl Fn(i32, i32) -> i32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x as i32, y as i32) as u32;
    }
}

impl Machine<'_> {
    /// Copies `blk`'s uniform slots to every lane of their rows. The sweep
    /// of one row of the outer counters cannot change them.
    pub(super) fn broadcast(&mut self, blk: &Block) {
        for &(slot, r) in &blk.uniform {
            let e = self.slots[slot as usize];
            self.lanes.set(r, e.dtype(), &[e.to_bits(); LANES]);
        }
    }

    /// Evaluates `blk`'s instructions for lanes `0..n`, lane `l` taking
    /// innermost index `first + l * stride`. Returns `false` to abandon the
    /// block.
    pub(super) fn eval_block(&mut self, blk: &Block, first: i64, stride: i64, n: usize) -> bool {
        let mut out = [0u32; LANES];
        let mut offs = [0usize; LANES];
        for (l, o) in out[..n].iter_mut().enumerate() {
            *o = (first + l as i64 * stride) as i32 as u32;
        }
        self.lanes.set(blk.index, DType::I32, &out);
        for ins in &blk.ins {
            let lanes = &self.lanes;
            let (dst, ty) = match *ins {
                Ins::Load { dst, mem, at } => {
                    let sram = &self.srams[mem as usize];
                    if !lanes.offsets(&mut offs[..n], &blk.lists, self.prog, mem, at) {
                        return false;
                    }
                    let ty = sram[offs[0]].dtype();
                    for (o, &off) in out[..n].iter_mut().zip(&offs[..n]) {
                        let e = sram[off];
                        if e.dtype() != ty {
                            return false;
                        }
                        *o = e.to_bits();
                    }
                    (dst, ty)
                }
                Ins::Unary { dst, op, a } => {
                    let (a, ta) = lanes.row(a);
                    let mut ty = DType::I32;
                    for (o, &x) in out[..n].iter_mut().zip(a) {
                        let Ok(v) = eval_unop(op, Elem::from_bits(x, ta)) else {
                            return false;
                        };
                        ty = v.dtype();
                        *o = v.to_bits();
                    }
                    (dst, ty)
                }
                Ins::Binary { dst, op, a, b } => {
                    let ((a, ta), (b, tb)) = (lanes.row(a), lanes.row(b));
                    let typed = if op.is_integer_only() {
                        ta == DType::I32 && tb == DType::I32
                    } else {
                        ta == tb
                    };
                    if !typed {
                        return false;
                    }
                    match (op, ta) {
                        (BinOp::Add, DType::F32) => f32s(&mut out, a, b, |x, y| x + y),
                        (BinOp::Sub, DType::F32) => f32s(&mut out, a, b, |x, y| x - y),
                        (BinOp::Mul, DType::F32) => f32s(&mut out, a, b, |x, y| x * y),
                        (BinOp::Add, DType::I32) => i32s(&mut out, a, b, i32::wrapping_add),
                        (BinOp::Sub, DType::I32) => i32s(&mut out, a, b, i32::wrapping_sub),
                        (BinOp::Mul, DType::I32) => i32s(&mut out, a, b, i32::wrapping_mul),
                        _ => {
                            for ((o, &x), &y) in out[..n].iter_mut().zip(a).zip(b) {
                                let (x, y) = (Elem::from_bits(x, ta), Elem::from_bits(y, tb));
                                let Ok(v) = eval_binop(op, x, y) else {
                                    return false;
                                };
                                *o = v.to_bits();
                            }
                        }
                    }
                    (dst, if op.is_comparison() { DType::I32 } else { ta })
                }
                Ins::Mux { dst, c, t, e } => {
                    let ((c, tc), (t, tt), (e, te)) = (lanes.row(c), lanes.row(t), lanes.row(e));
                    if tt != te {
                        return false;
                    }
                    for (l, o) in out[..n].iter_mut().enumerate() {
                        let pick = Elem::from_bits(c[l], tc).is_truthy();
                        *o = if pick { t[l] } else { e[l] };
                    }
                    (dst, tt)
                }
                Ins::Arg { .. } => return false,
            };
            self.lanes.set(dst, ty, &out);
        }
        true
    }

    /// Combines lanes `0..n` of an evaluated block into the accumulators
    /// from slot `acc`, trip by trip and slot by slot. On failure, returns
    /// the trips that ran (the failing one included) with the error.
    pub(super) fn fold_lanes(
        &mut self,
        blk: &Block,
        combine: &[BinOp],
        acc: usize,
        n: usize,
    ) -> Result<(), (usize, RunError)> {
        if let (&[BinOp::Add], &[out]) = (combine, blk.outs.as_slice()) {
            if let (Elem::F32(mut a), (vals, DType::F32)) = (self.slots[acc], self.lanes.row(out)) {
                for &v in &vals[..n] {
                    a += f32::from_bits(v);
                }
                self.slots[acc] = Elem::F32(a);
                return Ok(());
            }
        }
        for l in 0..n {
            for (k, (&op, &out)) in combine.iter().zip(&blk.outs).enumerate() {
                let v = self.lanes.elem(out, l);
                let a = &mut self.slots[acc + k];
                *a = binop(op, *a, v).map_err(|e| (l + 1, e.into()))?;
            }
        }
        Ok(())
    }

    /// Applies the pipe writes of lanes `0..n` of an evaluated block, trip
    /// by trip and write by write. On failure, returns the trips that ran
    /// (the failing one included) with the error.
    pub(super) fn map_lanes(
        &mut self,
        blk: &Block,
        writes: &[Write],
        n: usize,
    ) -> Result<(), (usize, RunError)> {
        for l in 0..n {
            for (w, &(at, value)) in writes.iter().zip(&blk.writes) {
                let lanes = &self.lanes;
                let off = offset(self.prog, &blk.lists, w.mem, at, |r| lanes.elem(r, l));
                let v = lanes.elem(value, l);
                off.and_then(|off| self.store(w, off, v))
                    .map_err(|e| (l + 1, e))?;
            }
        }
        Ok(())
    }
}

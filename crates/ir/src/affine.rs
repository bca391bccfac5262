//! Affine analysis of address expressions.
//!
//! The SARA back end needs to know, for each memory access, whether its
//! (flattened) address is an affine function of enclosing loop indices:
//!
//! * the memory partitioner (paper §III-B2) banks tensors cyclically and
//!   statically resolves the bank-address stream when the affine form allows
//!   it, replacing crossbars with point-to-point wiring;
//! * accessors with *constant* addresses bank trivially to point-to-point
//!   streams (the paper's memory strength reduction);
//! * credit relaxation compares address spans of producer/consumer accessors.

use crate::expr::{BinOp, Expr, ExprId};
use crate::mem::MemId;
use crate::program::{CtrlId, Program};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An affine form `offset + Σ coeff_i · idx(loop_i)`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Affine {
    /// Constant offset.
    pub offset: i64,
    /// Per-loop coefficients; zero coefficients are never stored.
    pub terms: BTreeMap<CtrlId, i64>,
}

impl Affine {
    /// A constant affine form.
    pub fn constant(v: i64) -> Self {
        Affine { offset: v, terms: BTreeMap::new() }
    }

    /// The form `idx(c)`.
    pub fn index(c: CtrlId) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(c, 1);
        Affine { offset: 0, terms }
    }

    /// Whether the form is a compile-time constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Coefficient of a loop index (zero if absent).
    pub fn coeff(&self, c: CtrlId) -> i64 {
        self.terms.get(&c).copied().unwrap_or(0)
    }

    fn add_term(&mut self, c: CtrlId, coeff: i64) {
        let v = self.terms.entry(c).or_insert(0);
        *v += coeff;
        if *v == 0 {
            self.terms.remove(&c);
        }
    }

    /// Sum of two affine forms.
    pub fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.offset += other.offset;
        for (c, k) in &other.terms {
            out.add_term(*c, *k);
        }
        out
    }

    /// Difference of two affine forms.
    pub fn sub(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.offset -= other.offset;
        for (c, k) in &other.terms {
            out.add_term(*c, -*k);
        }
        out
    }

    /// Product by a constant.
    pub fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            offset: self.offset * k,
            terms: self.terms.iter().map(|(c, v)| (*c, v * k)).collect(),
        }
    }

    /// Evaluate given loop-index bindings; indices absent from the binding
    /// map are treated as zero.
    pub fn eval(&self, binding: &BTreeMap<CtrlId, i64>) -> i64 {
        self.offset
            + self.terms.iter().map(|(c, k)| k * binding.get(c).copied().unwrap_or(0)).sum::<i64>()
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.offset)?;
        for (c, k) in &self.terms {
            write!(f, " + {k}*{c}")?;
        }
        Ok(())
    }
}

/// Compute the affine form of an expression inside hyperblock `hb`, if it
/// has one. Returns `None` for data-dependent expressions (loads, muxes,
/// float arithmetic, ...).
pub fn affine_of(p: &Program, hb: CtrlId, e: ExprId) -> Option<Affine> {
    let h = p.ctrl(hb).hyperblock()?;
    affine_rec(h, e)
}

fn affine_rec(h: &crate::expr::Hyperblock, e: ExprId) -> Option<Affine> {
    match h.get(e)? {
        Expr::Const(v) => match v {
            crate::value::Elem::I64(x) => Some(Affine::constant(*x)),
            crate::value::Elem::F64(_) => None,
        },
        Expr::Idx(c) => Some(Affine::index(*c)),
        Expr::Bin(BinOp::Add, a, b) => Some(affine_rec(h, *a)?.add(&affine_rec(h, *b)?)),
        Expr::Bin(BinOp::Sub, a, b) => Some(affine_rec(h, *a)?.sub(&affine_rec(h, *b)?)),
        Expr::Bin(BinOp::Mul, a, b) => {
            let fa = affine_rec(h, *a)?;
            let fb = affine_rec(h, *b)?;
            if fa.is_constant() {
                Some(fb.scale(fa.offset))
            } else if fb.is_constant() {
                Some(fa.scale(fb.offset))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Affine form of the row-major *flattened* address of an access.
///
/// Given a multi-dimensional address `[a0, a1, ..]` on memory `mem`, this
/// combines the per-dimension affine forms with the tensor strides. Returns
/// `None` if any coordinate is non-affine.
pub fn flat_affine(p: &Program, hb: CtrlId, mem: MemId, addr: &[ExprId]) -> Option<Affine> {
    let decl = p.mem(mem);
    let strides = decl.strides();
    let mut out = Affine::constant(0);
    for (a, s) in addr.iter().zip(strides) {
        out = out.add(&affine_of(p, hb, *a)?.scale(s as i64));
    }
    Some(out)
}

/// Affine form of the flattened address of the access at `(hb, expr)`, if
/// the expression is a load/store with an affine address.
pub fn access_affine(p: &Program, hb: CtrlId, expr: ExprId) -> Option<Affine> {
    let h = p.ctrl(hb).hyperblock()?;
    match h.get(expr)? {
        Expr::Load { mem, addr } | Expr::Store { mem, addr, .. } => flat_affine(p, hb, *mem, addr),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::LoopSpec;
    use crate::value::DType;

    #[test]
    fn affine_algebra() {
        let c = Affine::constant(3);
        let i = Affine::index(CtrlId(1));
        let s = c.add(&i.scale(4));
        assert_eq!(s.offset, 3);
        assert_eq!(s.coeff(CtrlId(1)), 4);
        let d = s.sub(&i.scale(4));
        assert!(d.is_constant());
        assert_eq!(d.offset, 3);
        let z = i.scale(0);
        assert!(z.is_constant());
    }

    #[test]
    fn eval_with_bindings() {
        let mut b = BTreeMap::new();
        b.insert(CtrlId(1), 5);
        let a = Affine::constant(2).add(&Affine::index(CtrlId(1)).scale(3));
        assert_eq!(a.eval(&b), 17);
        assert_eq!(a.eval(&BTreeMap::new()), 2);
    }

    #[test]
    fn expression_affine_extraction() {
        let mut p = Program::new("t");
        let root = p.root();
        let li = p.add_loop(root, "i", LoopSpec::new(0, 8, 1)).unwrap();
        let lj = p.add_loop(li, "j", LoopSpec::new(0, 4, 1)).unwrap();
        let hb = p.add_leaf(lj, "b").unwrap();
        let i = p.idx(hb, li).unwrap();
        let j = p.idx(hb, lj).unwrap();
        let four = p.c_i64(hb, 4).unwrap();
        let i4 = p.bin(hb, BinOp::Mul, i, four).unwrap();
        let a = p.bin(hb, BinOp::Add, i4, j).unwrap();
        let f = affine_of(&p, hb, a).unwrap();
        assert_eq!(f.coeff(li), 4);
        assert_eq!(f.coeff(lj), 1);
        assert_eq!(f.offset, 0);
    }

    #[test]
    fn non_affine_returns_none() {
        let mut p = Program::new("t");
        let root = p.root();
        let li = p.add_loop(root, "i", LoopSpec::new(0, 8, 1)).unwrap();
        let hb = p.add_leaf(li, "b").unwrap();
        let m = p.sram("m", &[8], DType::I64);
        let i = p.idx(hb, li).unwrap();
        let ld = p.load(hb, m, &[i]).unwrap();
        assert!(affine_of(&p, hb, ld).is_none());
        // i * i is non-affine
        let ii = p.bin(hb, BinOp::Mul, i, i).unwrap();
        assert!(affine_of(&p, hb, ii).is_none());
    }

    #[test]
    fn flat_affine_uses_strides() {
        let mut p = Program::new("t");
        let root = p.root();
        let li = p.add_loop(root, "i", LoopSpec::new(0, 2, 1)).unwrap();
        let lj = p.add_loop(li, "j", LoopSpec::new(0, 3, 1)).unwrap();
        let hb = p.add_leaf(lj, "b").unwrap();
        let m = p.sram("m", &[2, 3], DType::F64);
        let i = p.idx(hb, li).unwrap();
        let j = p.idx(hb, lj).unwrap();
        let ld = p.load(hb, m, &[i, j]).unwrap();
        let f = access_affine(&p, hb, ld).unwrap();
        assert_eq!(f.coeff(li), 3);
        assert_eq!(f.coeff(lj), 1);
        let _ = ld;
    }
}

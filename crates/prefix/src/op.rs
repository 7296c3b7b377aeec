//! Associative operators for prefix computations.
//!
//! Every prefix structure in the Ultrascalar is parameterised by an
//! associative operator `⊗`. The paper uses exactly two:
//!
//! * `a ⊗ b = a` ([`First`]) — combined with segment bits this realises
//!   "take the value written by the nearest preceding writer", the
//!   register-forwarding semantics of the per-register CSPP circuits;
//! * `a ⊗ b = a ∧ b` ([`BoolAnd`]) — combined with a segment bit at the
//!   oldest station this computes "have *all* earlier stations met a
//!   condition", used for deallocation, memory serialisation and branch
//!   commit (paper Figure 5).

use std::marker::PhantomData;

/// An associative binary operator over `T`.
///
/// Implementations must satisfy `combine(combine(a, b), c) ==
/// combine(a, combine(b, c))` for all inputs; the tests in this module
/// check it for both shipped operators.
pub trait PrefixOp<T> {
    /// Combine two adjacent interval summaries, `a` covering the
    /// interval immediately *before* `b`.
    fn combine(a: &T, b: &T) -> T;
}

/// The paper's register-forwarding operator: `a ⊗ b = a`.
///
/// Scanning a sequence with `First` yields, at every position, the value
/// of the *first* element of the scanned interval. Under the segmented
/// combination rule (see [`SegPair`]) the interval always begins at the
/// nearest preceding segment boundary, so a segmented `First`-scan
/// returns the value inserted by the nearest preceding *writer* — which
/// is precisely register renaming/forwarding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct First;

impl<T: Clone> PrefixOp<T> for First {
    #[inline]
    fn combine(a: &T, _b: &T) -> T {
        a.clone()
    }
}

/// The paper's sequencing operator: `a ⊗ b = a ∧ b`.
///
/// A cyclic segmented prefix with `BoolAnd`, segment bit raised at the
/// oldest station, tells each station whether every older station has
/// met a condition (finished, stored, committed, …).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoolAnd;

impl PrefixOp<bool> for BoolAnd {
    #[inline]
    fn combine(a: &bool, b: &bool) -> bool {
        *a && *b
    }
}

/// An interval summary for **segmented** prefix computation: the value
/// accumulated since the nearest segment boundary inside the interval,
/// plus whether the interval contains a boundary at all.
///
/// This is the classic trick (CLRS exercise 29.2-8, cited by the paper)
/// that turns any associative operator into a *segmented* associative
/// operator, so a single tree circuit evaluates segmented scans:
///
/// ```text
/// (va, sa) ⊗ (vb, sb) = ( if sb { vb } else { va ⊗ vb },  sa ∨ sb )
/// ```
///
/// If the right interval contains a segment boundary, accumulation
/// restarts inside it and the left interval's contribution is discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegPair<T> {
    /// Value accumulated from the nearest contained segment start (or
    /// from the beginning of the interval if it contains no boundary).
    pub value: T,
    /// Does the interval contain a segment boundary?
    pub seg: bool,
}

impl<T> SegPair<T> {
    /// Summary of a single element with the given segment bit.
    #[inline]
    pub fn leaf(value: T, seg: bool) -> Self {
        SegPair { value, seg }
    }
}

/// The lifted, still-associative operator on [`SegPair`] summaries.
///
/// `SegOp<O>` is associative whenever `O` is; the property tests check
/// this for both of the paper's operators.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegOp<O>(PhantomData<O>);

impl<T: Clone, O: PrefixOp<T>> PrefixOp<SegPair<T>> for SegOp<O> {
    #[inline]
    fn combine(a: &SegPair<T>, b: &SegPair<T>) -> SegPair<T> {
        SegPair {
            value: if b.seg {
                b.value.clone()
            } else {
                O::combine(&a.value, &b.value)
            },
            seg: a.seg || b.seg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assoc<T: Clone + PartialEq + std::fmt::Debug, O: PrefixOp<T>>(a: T, b: T, c: T) {
        let ab_c = O::combine(&O::combine(&a, &b), &c);
        let a_bc = O::combine(&a, &O::combine(&b, &c));
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn first_is_associative_and_selects_first() {
        assoc::<u32, First>(1, 2, 3);
        assert_eq!(<First as PrefixOp<u32>>::combine(&7, &9), 7);
    }

    #[test]
    fn bool_ops() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    assoc::<bool, BoolAnd>(a, b, c);
                }
            }
        }
        assert!(!BoolAnd::combine(&true, &false));
    }

    #[test]
    fn seg_op_restart_semantics() {
        // Interval B contains a boundary: A's value is discarded.
        let a = SegPair::leaf(10u32, false);
        let b = SegPair::leaf(20u32, true);
        let r = SegOp::<First>::combine(&a, &b);
        assert_eq!(r.value, 20);
        assert!(r.seg);

        // No boundary in B: plain combination, boundary flag from A.
        let a = SegPair::leaf(10u32, true);
        let b = SegPair::leaf(20u32, false);
        let r = SegOp::<First>::combine(&a, &b);
        assert_eq!(r.value, 10);
        assert!(r.seg);
    }

    #[test]
    fn seg_op_is_associative_exhaustively_for_and() {
        let cases: Vec<SegPair<bool>> = [false, true]
            .iter()
            .flat_map(|&v| [false, true].iter().map(move |&s| SegPair::leaf(v, s)))
            .collect();
        for a in &cases {
            for b in &cases {
                for c in &cases {
                    let ab_c = SegOp::<BoolAnd>::combine(&SegOp::<BoolAnd>::combine(a, b), c);
                    let a_bc = SegOp::<BoolAnd>::combine(a, &SegOp::<BoolAnd>::combine(b, c));
                    assert_eq!(ab_c, a_bc);
                }
            }
        }
    }

    #[test]
    fn seg_op_first_models_nearest_preceding_writer() {
        // Segmented First over [w0, -, w1, -]: combining the whole
        // interval yields the value of the *last* writer (w1), which is
        // what a younger reader should see.
        let xs = [
            SegPair::leaf(100u32, true),
            SegPair::leaf(0, false),
            SegPair::leaf(200, true),
            SegPair::leaf(0, false),
        ];
        let total = xs
            .iter()
            .skip(1)
            .fold(xs[0], |acc, x| SegOp::<First>::combine(&acc, x));
        assert_eq!(total.value, 200);
        assert!(total.seg);
    }
}

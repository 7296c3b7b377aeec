//! Segmented and **cyclic segmented** parallel prefix (CSPP).
//!
//! The CSPP circuit (Henry & Kuszmaul, Ultrascalar Memo 1; paper
//! Figures 4–5) is the workhorse of the Ultrascalar: for each position
//! `i` of a ring of `n` stations it computes the combination of the
//! inputs of the stations *preceding* `i`, going backwards (cyclically)
//! up to and including the nearest station whose **segment bit** is
//! raised.
//!
//! Two views of the same computation:
//!
//! * with the register-forwarding operator `a ⊗ b = a` and the segment
//!   bit meaning "this station writes the register", position `i`
//!   receives *the value inserted by the nearest preceding writer* —
//!   register renaming, bypass and forwarding in one circuit;
//! * with `a ⊗ b = a ∧ b` and the segment bit raised only at the oldest
//!   station, position `i` receives *whether every older station meets
//!   a condition* — instruction deallocation, memory serialisation and
//!   branch-commit logic.
//!
//! Both a quadratic-work reference evaluation ([`cspp_ring`]) and the
//! hardware's `Θ(log n)`-depth tree evaluation ([`cspp_tree`]) are
//! provided; property tests pin them together. The tree forms, and the
//! circuit generators' gate-emitting [`cspp_heap_with`], all run the
//! one sweep in [`crate::tree`].

use crate::op::{PrefixOp, SegOp, SegPair};
use crate::tree::exclusive_sweep_with;

/// Lift each station's `(value, segment bit)` to a leaf summary.
fn seg_leaves<T: Clone>(xs: &[T], seg: &[bool]) -> Vec<SegPair<T>> {
    assert_eq!(xs.len(), seg.len(), "value/segment length mismatch");
    xs.iter()
        .zip(seg)
        .map(|(x, &s)| SegPair::leaf(x.clone(), s))
        .collect()
}

/// Non-cyclic segmented *exclusive* backward-looking prefix, linear
/// reference implementation.
///
/// `out[i]` summarises `init ⊗ x[0] ⊗ … ⊗ x[i-1]` under the segmented
/// combination rule: accumulation restarts at every raised segment bit,
/// so `out[i].value` is the combination of the inputs since (and
/// including) the nearest preceding segment start, and `out[i].seg`
/// reports whether any boundary precedes `i` at all. `init` flows in
/// before element 0 (e.g. the committed register file in a processor
/// datapath).
///
/// # Panics
/// Panics if `xs.len() != seg.len()`.
pub fn segmented_prefix_ring<T: Clone, O: PrefixOp<T>>(
    xs: &[T],
    seg: &[bool],
    init: SegPair<T>,
) -> Vec<SegPair<T>> {
    assert_eq!(xs.len(), seg.len(), "value/segment length mismatch");
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = init;
    for (x, &s) in xs.iter().zip(seg) {
        out.push(acc.clone());
        acc = SegOp::<O>::combine(&acc, &SegPair::leaf(x.clone(), s));
    }
    out
}

/// Non-cyclic segmented exclusive prefix via a `Θ(log n)`-depth tree.
///
/// Semantics identical to [`segmented_prefix_ring`]; returns the same
/// vector for every input (property-tested).
pub fn segmented_prefix_tree<T: Clone, O: PrefixOp<T>>(
    xs: &[T],
    seg: &[bool],
    init: SegPair<T>,
) -> Vec<SegPair<T>> {
    exclusive_sweep_with(&seg_leaves(xs, seg), |_| init, SegOp::<O>::combine)
}

/// Cyclic segmented parallel prefix, quadratic reference evaluation.
///
/// `out[i]` combines the inputs of the ring positions preceding `i` in
/// cyclic order — `i-1, i-2, …` wrapping around — back to the nearest
/// raised segment bit (inclusive). If the nearest boundary is at `i`
/// itself the summary covers the entire ring (this is the oldest
/// station's wrapped-around view, which the hardware ignores).
///
/// `out[i].seg == false` iff **no** segment bit is raised anywhere. In
/// that case the value is an artefact of the wrap-around (the hardware
/// ties the tree's top data lines together, so without a boundary the
/// ring's total fold leaks into every prefix) and callers must treat it
/// as *don't-care* — processor datapaths guarantee at least one boundary
/// because the oldest station raises all its modified bits.
///
/// Formally, `out[i] = fold(x[0..n]) ⊗ fold(x[0..i])` under the
/// segmented combination rule; whenever any segment bit is raised this
/// equals the fold of exactly the `n` cyclically-preceding elements.
///
/// This is the slow reference form, kept as the oracle for property
/// tests; production paths (benches, the allocator in
/// [`crate::sched`]) use [`cspp_tree`]. A debug assertion rejects
/// rings beyond 4096 stations to catch the reference form sneaking
/// into a sized sweep.
///
/// # Panics
/// Panics if `xs.len() != seg.len()` or the ring is empty.
pub fn cspp_ring<T: Clone, O: PrefixOp<T>>(xs: &[T], seg: &[bool]) -> Vec<SegPair<T>> {
    assert_eq!(xs.len(), seg.len(), "value/segment length mismatch");
    assert!(!xs.is_empty(), "CSPP ring must be non-empty");
    debug_assert!(
        xs.len() <= 4096,
        "cspp_ring is the slow reference form; use cspp_tree for rings \
         beyond 4096 stations"
    );
    let n = xs.len();
    let leaf = |j: usize| SegPair::leaf(xs[j].clone(), seg[j]);
    // Summary of the whole ring: what the tied-together tree top feeds
    // back into position 0.
    let mut whole = leaf(0);
    for j in 1..n {
        whole = SegOp::<O>::combine(&whole, &leaf(j));
    }
    let mut out = Vec::with_capacity(n);
    let mut acc = whole;
    for j in 0..n {
        out.push(acc.clone());
        acc = SegOp::<O>::combine(&acc, &leaf(j));
    }
    out
}

/// Cyclic segmented parallel prefix via the hardware's tree evaluation:
/// one up-sweep, the data lines tied together at the root (the root's
/// own summary becomes the seed), one down-sweep. Depth `Θ(log n)`.
///
/// Semantics identical to [`cspp_ring`] (property-tested).
///
/// # Panics
/// Panics on empty input or if `xs.len() != seg.len()`.
pub fn cspp_tree<T: Clone, O: PrefixOp<T>>(xs: &[T], seg: &[bool]) -> Vec<SegPair<T>> {
    cspp_heap_with(&seg_leaves(xs, seg), SegOp::<O>::combine)
}

/// Cyclic prefix over a heap-layout tree, driven by a *closure*
/// instead of a [`PrefixOp`] — the building block the circuit
/// generators use, where "combining" two summaries means **emitting
/// gates into a netlist** (the closure captures `&mut Netlist`).
///
/// Tying the top of the tree: what flows into leaf 0 "from before" is
/// the root's own summary — for segmented leaves, the accumulation
/// since the *last* raised segment bit, exactly the paper's cyclic
/// wrap (Figure 4). Returns `out[i]` = the combination flowing into
/// leaf `i` from its cyclic predecessors, in the fixed combination
/// order of [`exclusive_sweep_with`].
///
/// # Panics
/// Panics on empty input.
pub fn cspp_heap_with<T: Clone>(leaves: &[T], combine: impl FnMut(&T, &T) -> T) -> Vec<T> {
    assert!(!leaves.is_empty(), "CSPP ring must be non-empty");
    exclusive_sweep_with(leaves, T::clone, combine)
}

/// Paper Figure 5 convenience: the 1-bit CSPP with the AND operator.
///
/// Returns, for every station `i`, whether all stations *older* than `i`
/// (from the oldest station, inclusive, to `i-1`, cyclically) have their
/// `condition` input raised. The output at `oldest` itself wraps the
/// whole ring and is ignored by the hardware; it is returned as-is.
///
/// # Panics
/// Panics if `oldest >= conditions.len()` or the ring is empty.
pub fn cspp_all_earlier(conditions: &[bool], oldest: usize) -> Vec<bool> {
    assert!(!conditions.is_empty(), "CSPP ring must be non-empty");
    assert!(oldest < conditions.len(), "oldest station out of range");
    let mut seg = vec![false; conditions.len()];
    seg[oldest] = true;
    cspp_tree::<bool, crate::op::BoolAnd>(conditions, &seg)
        .into_iter()
        .map(|p| p.value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BoolAnd, First, Sum};

    /// The worked example of paper Figure 5: station 6 is oldest (seg
    /// raised); stations {6, 7, 0, 1, 3} have met the condition; the
    /// circuit outputs high to stations {7, 0, 1, 2}.
    #[test]
    fn figure5_example() {
        let n = 8;
        let mut cond = vec![false; n];
        for i in [6, 7, 0, 1, 3] {
            cond[i] = true;
        }
        let out = cspp_all_earlier(&cond, 6);
        for (i, &o) in out.iter().enumerate() {
            let expected = matches!(i, 7 | 0 | 1 | 2);
            if i == 6 {
                // Oldest wraps the full ring; stations 2, 4, 5 are low,
                // so the wrapped AND is false. The hardware ignores it.
                assert!(!o);
            } else {
                assert_eq!(o, expected, "station {i}");
            }
        }
    }

    /// Register-forwarding semantics of paper Figures 1/4: the ring
    /// carries register R0; station 6 (oldest) inserts the initial
    /// value 10, station 7 has not finished (inserts "not ready"),
    /// station 4 inserts 42. Stations 0–4 must see station 7's pending
    /// write; stations 5 and 6 must see 42.
    #[test]
    fn figure4_register_forwarding() {
        // Value = (value, ready); operator First propagates the nearest
        // preceding writer's insertion.
        type V = (u32, bool);
        let n = 8;
        let mut vals: Vec<V> = vec![(0, false); n];
        let mut seg = vec![false; n];
        // Oldest station 6 inserts initial R0 = 10, ready.
        vals[6] = (10, true);
        seg[6] = true;
        // Station 7 writes R0 but hasn't computed: not ready.
        vals[7] = (0, false);
        seg[7] = true;
        // Station 4 wrote R0 = 42, ready.
        vals[4] = (42, true);
        seg[4] = true;

        let out = cspp_tree::<V, First>(&vals, &seg);
        // Stations 0..=4 read station 7's not-ready insertion.
        for (i, o) in out.iter().enumerate().take(5) {
            assert_eq!(o.value, (0, false), "station {i}");
            assert!(o.seg);
        }
        // Stations 5 and 6 read station 4's 42 (6 ignores, being oldest).
        assert_eq!(out[5].value, (42, true));
        assert_eq!(out[6].value, (42, true));
        // Station 7 reads the oldest station's initial value 10.
        assert_eq!(out[7].value, (10, true));
    }

    /// Deterministic xorshift for the size sweeps below.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Segment bits for sweep fill `fill`: none at all (every output a
    /// wrap-around artefact, which must still agree), dense, sparse,
    /// and all raised.
    fn seg_fill(n: usize, fill: usize, state: &mut u64) -> Vec<bool> {
        (0..n)
            .map(|_| match fill {
                0 => false,
                1 => xorshift(state) & 1 == 1,
                2 => xorshift(state) & 7 == 0,
                _ => true,
            })
            .collect()
    }

    #[test]
    fn ring_and_tree_agree_every_n_1_to_130() {
        // All 4^n (value, seg) patterns for small n, AND operator.
        for n in 1..=6usize {
            for pattern in 0..(1u32 << (2 * n)) {
                let vals: Vec<bool> = (0..n).map(|i| pattern >> (2 * i) & 1 == 1).collect();
                let seg: Vec<bool> = (0..n).map(|i| pattern >> (2 * i + 1) & 1 == 1).collect();
                let a = cspp_ring::<bool, BoolAnd>(&vals, &seg);
                let b = cspp_tree::<bool, BoolAnd>(&vals, &seg);
                assert_eq!(a, b, "n={n} pattern={pattern:b}");
            }
        }
        // Every ring size up to 130 — each non-power-of-two padding
        // shape and the 63/64/65, 127/128/129 boundaries — under Sum,
        // First and the paper's AND operator.
        let mut state = 0x1357_9BDF_2468_ACE0u64;
        for n in 1..=130usize {
            for fill in 0..4 {
                let vals: Vec<u64> = (0..n).map(|_| xorshift(&mut state) % 1000).collect();
                let bits: Vec<bool> = vals.iter().map(|v| v % 5 != 0).collect();
                let seg = seg_fill(n, fill, &mut state);
                assert_eq!(
                    cspp_ring::<_, Sum>(&vals, &seg),
                    cspp_tree::<_, Sum>(&vals, &seg),
                    "Sum n={n} fill={fill}"
                );
                assert_eq!(
                    cspp_ring::<_, First>(&vals, &seg),
                    cspp_tree::<_, First>(&vals, &seg),
                    "First n={n} fill={fill}"
                );
                assert_eq!(
                    cspp_ring::<_, BoolAnd>(&bits, &seg),
                    cspp_tree::<_, BoolAnd>(&bits, &seg),
                    "BoolAnd n={n} fill={fill}"
                );
            }
        }
    }

    #[test]
    fn noncyclic_ring_and_tree_agree() {
        let mut state = 0x0FED_CBA9_8765_4321u64;
        for n in 1..=130usize {
            let vals: Vec<u64> = (0..n as u64).map(|i| i * 11 + 5).collect();
            for fill in 0..4 {
                let seg = seg_fill(n, fill, &mut state);
                // Non-identity seeds, with and without a boundary bit.
                for init in [SegPair::leaf(999u64, true), SegPair::leaf(7, false)] {
                    assert_eq!(
                        segmented_prefix_ring::<_, Sum>(&vals, &seg, init),
                        segmented_prefix_tree::<_, Sum>(&vals, &seg, init),
                        "n={n} fill={fill} init={init:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn heap_with_closure_matches_cspp_ring() {
        for n in 1..=33usize {
            let vals: Vec<u32> = (0..n as u32).map(|i| i * 7 + 1).collect();
            let seg: Vec<bool> = (0..n).map(|i| i % 4 == 1).collect();
            let leaves: Vec<SegPair<u32>> = vals
                .iter()
                .zip(&seg)
                .map(|(&v, &s)| SegPair::leaf(v, s))
                .collect();
            let mut combines = 0usize;
            let out = cspp_heap_with(&leaves, |a, b| {
                combines += 1;
                SegOp::<First>::combine(a, b)
            });
            assert_eq!(out, cspp_ring::<u32, First>(&vals, &seg), "n={n}");
            // Work stays linear in n even for non-powers of two: at
            // most one combine per occupied internal node in each
            // sweep.
            assert!(combines <= 4 * n, "n={n} combines={combines}");
        }
    }

    #[test]
    fn no_segment_bit_anywhere_reports_unsegmented() {
        let vals = [1u32, 2, 3, 4];
        let seg = [false; 4];
        let out = cspp_tree::<_, Sum>(&vals, &seg);
        // Without a boundary the values are wrap-around artefacts
        // (ring-fold ⊗ prefix-fold); the seg=false flag marks them as
        // don't-care for callers.
        for (p, expect) in out.iter().zip([10u32, 11, 13, 16]) {
            assert!(!p.seg);
            assert_eq!(p.value, expect);
        }
    }

    #[test]
    fn single_station_ring() {
        let out = cspp_tree::<u32, First>(&[7], &[true]);
        assert_eq!(out[0].value, 7);
        assert!(out[0].seg);
    }

    #[test]
    fn init_flows_to_position_zero() {
        let out =
            segmented_prefix_ring::<u32, Sum>(&[1, 2], &[false, false], SegPair::leaf(50, true));
        assert_eq!(out[0].value, 50);
        assert_eq!(out[1].value, 51);
        assert!(out[1].seg);
    }

    #[test]
    #[should_panic(expected = "oldest station out of range")]
    fn oldest_out_of_range_panics() {
        let _ = cspp_all_earlier(&[true, false], 5);
    }

    #[test]
    fn rotating_oldest_rotates_outputs() {
        // The circuit is symmetric under rotation: rotating both inputs
        // and the oldest pointer rotates the outputs.
        let cond = [true, false, true, true, false, true, true, true];
        let base = cspp_all_earlier(&cond, 0);
        for r in 0..cond.len() {
            let rotated: Vec<bool> = (0..cond.len())
                .map(|i| cond[(i + cond.len() - r) % cond.len()])
                .collect();
            let out = cspp_all_earlier(&rotated, r);
            for i in 0..cond.len() {
                assert_eq!(out[(i + r) % cond.len()], base[i], "rot {r} pos {i}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::op::{BoolAnd, First, Max, Sum};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn cspp_tree_matches_ring_sum(
            vals in proptest::collection::vec(0u64..1000, 1..80),
            segbits in proptest::collection::vec(any::<bool>(), 1..80),
        ) {
            let n = vals.len().min(segbits.len());
            let vals = &vals[..n];
            let seg = &segbits[..n];
            prop_assert_eq!(
                cspp_ring::<_, Sum>(vals, seg),
                cspp_tree::<_, Sum>(vals, seg)
            );
        }

        #[test]
        fn cspp_tree_matches_ring_first(
            vals in proptest::collection::vec(0u32..1000, 1..80),
            segbits in proptest::collection::vec(any::<bool>(), 1..80),
        ) {
            let n = vals.len().min(segbits.len());
            let vals = &vals[..n];
            let seg = &segbits[..n];
            prop_assert_eq!(
                cspp_ring::<_, First>(vals, seg),
                cspp_tree::<_, First>(vals, seg)
            );
        }

        #[test]
        fn cspp_tree_matches_ring_and(
            vals in proptest::collection::vec(any::<bool>(), 1..100),
            segbits in proptest::collection::vec(any::<bool>(), 1..100),
        ) {
            let n = vals.len().min(segbits.len());
            prop_assert_eq!(
                cspp_ring::<_, BoolAnd>(&vals[..n], &segbits[..n]),
                cspp_tree::<_, BoolAnd>(&vals[..n], &segbits[..n])
            );
        }

        #[test]
        fn noncyclic_tree_matches_ring_max(
            vals in proptest::collection::vec(0i64..10000, 1..80),
            segbits in proptest::collection::vec(any::<bool>(), 1..80),
            init in 0i64..10000,
            init_seg in any::<bool>(),
        ) {
            let n = vals.len().min(segbits.len());
            let seed = SegPair::leaf(init, init_seg);
            prop_assert_eq!(
                segmented_prefix_ring::<_, Max>(&vals[..n], &segbits[..n], seed),
                segmented_prefix_tree::<_, Max>(&vals[..n], &segbits[..n], seed)
            );
        }

        /// Direct specification check: out[i] with First equals the
        /// value of the nearest cyclically-preceding raised segment.
        #[test]
        fn cspp_first_is_nearest_preceding_writer(
            vals in proptest::collection::vec(0u32..1000, 1..60),
            segbits in proptest::collection::vec(any::<bool>(), 1..60),
        ) {
            let n = vals.len().min(segbits.len());
            let vals = &vals[..n];
            let seg = &segbits[..n];
            let out = cspp_tree::<_, First>(vals, seg);
            if seg.iter().any(|&s| s) {
                for (i, o) in out.iter().enumerate() {
                    // Walk backwards from i-1, wrapping, to the nearest
                    // raised segment bit.
                    let mut j = (i + n - 1) % n;
                    let mut steps = 0;
                    while !seg[j] && steps < n {
                        j = (j + n - 1) % n;
                        steps += 1;
                    }
                    prop_assert!(seg[j]);
                    prop_assert_eq!(o.value, vals[j], "station {}", i);
                    prop_assert!(o.seg);
                }
            } else {
                for p in &out {
                    prop_assert!(!p.seg);
                }
            }
        }
    }
}

//! **Cyclic segmented** parallel prefix (CSPP).
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
//! provided; property tests pin them together. The tree form and the
//! circuit generators (whose combine emits gates into a netlist) run
//! the one up/down sweep in [`cspp_heap_with`]; its gate-level
//! `Θ(log n)` depth is measured on those generated netlists
//! (`fig05_cspp`, `tests/paper_claims.rs`).

use crate::op::{PrefixOp, SegOp, SegPair};

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
/// tests and the circuit generators' cross-checks; [`cspp_tree`] is
/// the hardware's form. A debug assertion rejects rings beyond 4096
/// stations to catch the reference form sneaking into a sized sweep.
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
    assert_eq!(xs.len(), seg.len(), "value/segment length mismatch");
    let leaves: Vec<SegPair<T>> = xs
        .iter()
        .zip(seg)
        .map(|(x, &s)| SegPair::leaf(x.clone(), s))
        .collect();
    cspp_heap_with(&leaves, SegOp::<O>::combine)
}

/// Number of leaves covered by heap node `k` in a tree of `size`
/// leaf slots (`size` a power of two, `k` in `1..2*size`).
#[inline]
fn node_span(size: usize, k: usize) -> usize {
    debug_assert!(k >= 1 && k < 2 * size);
    (2 * size) >> (usize::BITS - k.leading_zeros())
}

/// Does heap node `k` cover at least one of the `n` real leaves?
#[inline]
fn occupied(size: usize, n: usize, k: usize) -> bool {
    // Leftmost leaf index covered by k is k*span - size.
    k * node_span(size, k) < size + n
}

/// Cyclic prefix over a heap-layout tree, driven by a *closure*
/// instead of a [`PrefixOp`] — the building block the circuit
/// generators use, where "combining" two summaries means **emitting
/// gates into a netlist** (the closure captures `&mut Netlist`).
///
/// One up-sweep and one down-sweep over a left-balanced heap of
/// `2 * size` slots (`size = ceil_pow2(n)`), leaves in order, internal
/// nodes combining contiguous intervals. Occupancy is *arithmetic*, not
/// data: node `k` covers `span(k) = (2*size) >> bitlen(k)` leaves
/// starting at leaf `k*span(k) - size`, so it is occupied iff
/// `k * span(k) < size + n`. Because leaves are left-packed, a node's
/// right child being occupied implies its left child is too, so
/// non-power-of-two widths cost no dead combines.
///
/// Tying the top of the tree: what flows into leaf 0 "from before" is
/// the root's own summary — for segmented leaves, the accumulation
/// since the *last* raised segment bit, exactly the paper's cyclic
/// wrap (Figure 4). Returns `out[i]` = the combination flowing into
/// leaf `i` from its cyclic predecessors. The combination *order* —
/// which pairs are combined, bottom-up then top-down — is fixed, so a
/// gate-emitting `combine` generates the canonical `Θ(log n)`-depth
/// circuit.
///
/// # Panics
/// Panics on empty input.
pub fn cspp_heap_with<T: Clone>(leaves: &[T], mut combine: impl FnMut(&T, &T) -> T) -> Vec<T> {
    assert!(!leaves.is_empty(), "CSPP ring must be non-empty");
    let n = leaves.len();
    let size = n.next_power_of_two();
    // Unoccupied slots hold filler that is never read.
    let mut summaries: Vec<T> = vec![leaves[0].clone(); 2 * size];
    summaries[size..size + n].clone_from_slice(leaves);
    for k in (1..size).rev() {
        if occupied(size, n, 2 * k + 1) {
            let c = combine(&summaries[2 * k], &summaries[2 * k + 1]);
            summaries[k] = c;
        } else if occupied(size, n, 2 * k) {
            // Left-packed: an occupied node with an empty right child
            // just forwards its left child's summary.
            summaries[k] = summaries[2 * k].clone();
        }
    }
    let mut prefix: Vec<T> = vec![summaries[1].clone(); 2 * size];
    for k in 1..size {
        if !occupied(size, n, k) {
            continue;
        }
        // Left child (occupied whenever k is) sees the same prefix;
        // right child sees prefix ⊗ left-summary.
        let p = prefix[k].clone();
        if occupied(size, n, 2 * k + 1) {
            prefix[2 * k + 1] = combine(&p, &summaries[2 * k]);
        }
        prefix[2 * k] = p;
    }
    prefix[size..size + n].to_vec()
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
    use crate::op::{BoolAnd, First};
    use rand::rngs::StdRng;
    use rand::{case_rng, Rng};

    /// Wrapping addition. Unlike the paper's idempotent or selecting
    /// operators, it changes the result when the sweep combines a leaf
    /// twice or drops one, so the ring-vs-tree sweeps use it too.
    pub(super) struct Sum;

    impl PrefixOp<u64> for Sum {
        fn combine(a: &u64, b: &u64) -> u64 {
            a.wrapping_add(*b)
        }
    }

    #[test]
    fn occupancy_arithmetic_matches_option_heap() {
        for n in 1..=40usize {
            let size = n.next_power_of_two();
            // Reference: propagate leaf occupancy up the heap.
            let mut occ = vec![false; 2 * size];
            for i in 0..n {
                occ[size + i] = true;
            }
            for k in (1..size).rev() {
                occ[k] = occ[2 * k] || occ[2 * k + 1];
            }
            for k in 1..2 * size {
                assert_eq!(occupied(size, n, k), occ[k], "n={n} k={k}");
                // Left-packed invariant: right occupied => left occupied.
                if k < size && occ[2 * k + 1] {
                    assert!(occ[2 * k]);
                }
            }
        }
    }

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

    /// Segment bits for sweep fill `fill`: none at all (every output a
    /// wrap-around artefact, which must still agree), dense, sparse,
    /// and all raised.
    fn seg_fill(n: usize, fill: usize, rng: &mut StdRng) -> Vec<bool> {
        (0..n)
            .map(|_| match fill {
                0 => false,
                1 => rng.gen(),
                2 => rng.gen_range(0..8) == 0,
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
        // First and the paper's AND operator. Ring size n draws from
        // `case_rng(0x1357_9BDF_2468_ACE0, n)`.
        for n in 1..=130usize {
            let mut rng = case_rng(0x1357_9BDF_2468_ACE0, n as u64);
            for fill in 0..4 {
                let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
                let bits: Vec<bool> = vals.iter().map(|v| v % 5 != 0).collect();
                let seg = seg_fill(n, fill, &mut rng);
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
        let vals = [1u64, 2, 3, 4];
        let seg = [false; 4];
        let out = cspp_tree::<_, Sum>(&vals, &seg);
        // Without a boundary the values are wrap-around artefacts
        // (ring-fold ⊗ prefix-fold); the seg=false flag marks them as
        // don't-care for callers.
        for (p, expect) in out.iter().zip([10u64, 11, 13, 16]) {
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
    #[should_panic(expected = "oldest station out of range")]
    fn oldest_out_of_range_panics() {
        let _ = cspp_all_earlier(&[true, false], 5);
    }

    /// Figure 5's semantics at every ring size: station `i` (other than
    /// the oldest, whose wrapped output the hardware ignores) sees high
    /// iff every station from `oldest` to `i - 1`, cyclically, has its
    /// condition set. Ring size n draws fresh conditions for every
    /// `oldest` and fill from `case_rng(0xF165_0005, n)`.
    #[test]
    fn cspp_all_earlier_matches_its_definition() {
        for n in 1..=130usize {
            let mut rng = case_rng(0xF165_0005, n as u64);
            for oldest in 0..n {
                for fill in 0..4 {
                    // Always, mostly, sometimes and never set.
                    let cond: Vec<bool> = (0..n)
                        .map(|_| match fill {
                            0 => true,
                            1 => rng.gen_range(0..8) != 0,
                            2 => rng.gen(),
                            _ => false,
                        })
                        .collect();
                    let out = cspp_all_earlier(&cond, oldest);
                    // Walk the ring from the oldest station, ANDing in
                    // each station before the one it reaches.
                    let mut want = true;
                    for step in 1..n {
                        want &= cond[(oldest + step - 1) % n];
                        let i = (oldest + step) % n;
                        assert_eq!(
                            out[i], want,
                            "n={n} fill={fill} oldest={oldest} station {i}"
                        );
                    }
                }
            }
        }
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
mod random_tests {
    use super::tests::Sum;
    use super::*;
    use crate::op::{BoolAnd, First};
    use rand::rngs::StdRng;
    use rand::{cases, Rng};

    /// `(vals, seg)` of one length `n = min(a, b)`, where `a` and `b`
    /// are drawn independently from `1..max_len`; each value is drawn by
    /// `val` and each segment bit is fair.
    fn draw<T>(
        rng: &mut StdRng,
        max_len: usize,
        val: impl Fn(&mut StdRng) -> T,
    ) -> (Vec<T>, Vec<bool>) {
        let n = rng.gen_range(1..max_len).min(rng.gen_range(1..max_len));
        let vals = (0..n).map(|_| val(rng)).collect();
        (vals, (0..n).map(|_| rng.gen()).collect())
    }

    #[test]
    fn cspp_tree_matches_ring_sum() {
        cases(0xC599_0001, 64, |rng, _| {
            let (vals, seg) = draw(rng, 80, |r| r.gen_range(0u64..1000));
            assert_eq!(
                cspp_ring::<_, Sum>(&vals, &seg),
                cspp_tree::<_, Sum>(&vals, &seg),
                "seg {seg:?}"
            );
        });
    }

    #[test]
    fn cspp_tree_matches_ring_first() {
        cases(0xC599_0002, 64, |rng, _| {
            let (vals, seg) = draw(rng, 80, |r| r.gen_range(0u32..1000));
            assert_eq!(
                cspp_ring::<_, First>(&vals, &seg),
                cspp_tree::<_, First>(&vals, &seg),
                "seg {seg:?}"
            );
        });
    }

    #[test]
    fn cspp_tree_matches_ring_and() {
        cases(0xC599_0003, 64, |rng, _| {
            let (vals, seg) = draw(rng, 100, |r| r.gen::<bool>());
            assert_eq!(
                cspp_ring::<_, BoolAnd>(&vals, &seg),
                cspp_tree::<_, BoolAnd>(&vals, &seg),
                "seg {seg:?}"
            );
        });
    }

    /// Direct specification check: out[i] with First equals the
    /// value of the nearest cyclically-preceding raised segment.
    #[test]
    fn cspp_first_is_nearest_preceding_writer() {
        cases(0xC599_0005, 64, |rng, _| {
            let (vals, seg) = draw(rng, 60, |r| r.gen_range(0u32..1000));
            let n = vals.len();
            let out = cspp_tree::<_, First>(&vals, &seg);
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
                    assert!(seg[j]);
                    assert_eq!(o.value, vals[j], "station {i}, seg {seg:?}");
                    assert!(o.seg);
                }
            } else {
                assert!(out.iter().all(|p| !p.seg));
            }
        });
    }
}

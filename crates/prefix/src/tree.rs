//! The crate's one tree-structured scan: a left-balanced up/down sweep.
//!
//! A parallel-prefix *tree* evaluates a scan in `Θ(log n)` combining
//! depth instead of the `Θ(n)` of a serial chain — this is exactly the
//! transformation the paper applies to go from the linear mux-ring
//! datapath (Figure 1) to the logarithmic CSPP datapath (Figure 4).
//!
//! [`exclusive_sweep_with`] is the only tree walk in the crate: the
//! CSPP tree forms in [`crate::cspp`], the plain tree scans below and
//! the circuit generators (through [`crate::cspp::cspp_heap_with`],
//! whose combine emits gates into a netlist) all run it. Its gate-level
//! `Θ(log n)` depth is measured on those generated netlists
//! (`fig05_cspp`, `tests/paper_claims.rs`).
//!
//! The layout is the canonical hardware one: leaves in order over a
//! heap of `2 * size` slots (`size = ceil_pow2(n)`), internal nodes
//! combining contiguous intervals. Occupancy is *arithmetic*, not data:
//! node `k` covers `span(k) = (2*size) >> bitlen(k)` leaves starting at
//! leaf `k*span(k) - size`, so it is occupied iff `k * span(k) < size +
//! n`. Because leaves are left-packed, a node's right child being
//! occupied implies its left child is too, so non-power-of-two widths
//! cost no dead combines.

use crate::op::PrefixOp;

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

/// Exclusive scan of `leaves` by one up-sweep and one down-sweep over
/// the left-balanced heap, with `combine` as the (associative)
/// operator.
///
/// `seed` receives the root summary — the fold of every leaf — and
/// returns the value flowing into leaf 0 from before: the root itself
/// in a cyclic circuit whose tree top is tied (paper Figure 4), or the
/// committed state / an identity in a non-cyclic scan. `out[i]` is then
/// `seed ⊗ leaves[0] ⊗ … ⊗ leaves[i-1]`.
///
/// The combination *order* — which pairs are combined, bottom-up then
/// top-down — is fixed, so a gate-emitting `combine` generates the
/// canonical `Θ(log n)`-depth circuit. Empty input returns an empty
/// vector without calling `seed`.
pub fn exclusive_sweep_with<T: Clone>(
    leaves: &[T],
    seed: impl FnOnce(&T) -> T,
    mut combine: impl FnMut(&T, &T) -> T,
) -> Vec<T> {
    let n = leaves.len();
    if n == 0 {
        return Vec::new();
    }
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
    let mut prefix: Vec<T> = vec![seed(&summaries[1]); 2 * size];
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

/// Convenience: inclusive tree scan of `xs` (depth `Θ(log n)`).
///
/// `inclusive[0] = x0` and `inclusive[i] = exclusive[i] ⊗ x[i]`, where
/// the exclusive scan over `xs[1..]` is seeded with `x0` — this avoids
/// requiring an identity element for `O`.
pub fn tree_scan_inclusive<T: Clone, O: PrefixOp<T>>(xs: &[T]) -> Vec<T> {
    let Some((first, tail)) = xs.split_first() else {
        return Vec::new();
    };
    let ex = exclusive_sweep_with(tail, |_| first.clone(), O::combine);
    let mut out = Vec::with_capacity(xs.len());
    out.push(first.clone());
    out.extend(ex.iter().zip(tail).map(|(e, x)| O::combine(e, x)));
    out
}

/// Convenience: exclusive tree scan with an explicit identity/seed.
pub fn tree_scan_exclusive<T: Clone, O: PrefixOp<T>>(xs: &[T], identity: T) -> Vec<T> {
    exclusive_sweep_with(xs, |_| identity, O::combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{First, Max, Sum};
    use crate::scan;

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

    #[test]
    fn matches_serial_inclusive_all_small_sizes() {
        for n in 1..70usize {
            let xs: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
            assert_eq!(
                tree_scan_inclusive::<_, Sum>(&xs),
                scan::scan_inclusive::<_, Sum>(&xs),
                "width {n}"
            );
        }
    }

    #[test]
    fn matches_serial_exclusive_all_small_sizes() {
        for n in 1..70usize {
            let xs: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            assert_eq!(
                tree_scan_exclusive::<_, Sum>(&xs, 0),
                scan::scan_exclusive::<_, Sum>(&xs, 0),
                "width {n}"
            );
        }
    }

    #[test]
    fn seed_receives_total_reduction() {
        // A root-tied (cyclic) sweep hands the whole fold to leaf 0.
        let xs: Vec<u32> = (1..=10).collect();
        assert_eq!(exclusive_sweep_with(&xs, |r| *r, Sum::combine)[0], 55);
        assert_eq!(exclusive_sweep_with(&xs, |r| *r, Max::combine)[0], 10);
    }

    #[test]
    fn first_scan_propagates_oldest_value() {
        let xs = [42u32, 1, 2, 3];
        assert_eq!(tree_scan_inclusive::<_, First>(&xs), vec![42; 4]);
    }

    #[test]
    fn exclusive_seed_flows_to_first_leaf() {
        let xs = [5u32, 6];
        assert_eq!(tree_scan_exclusive::<_, Sum>(&xs, 100), vec![100, 105]);
    }

    #[test]
    fn empty_input_scans_to_empty() {
        assert!(tree_scan_inclusive::<u32, Sum>(&[]).is_empty());
        assert!(tree_scan_exclusive::<u32, Sum>(&[], 0).is_empty());
        let out = exclusive_sweep_with(&[] as &[u32], |_| unreachable!(), Sum::combine);
        assert!(out.is_empty());
    }
}

//! Prioritised resource allocation by cyclic prefix sums — the shared-
//! ALU scheduler of Henry & Kuszmaul's Ultrascalar Memo 2, referenced
//! by the paper's §1 ("We know how to separate the two parameters by
//! issuing instructions to a smaller pool of shared ALUs. Our ALU
//! scheduling circuitry is described elsewhere \[6\] and fits within the
//! bounds described here") and §7 ("a hybrid Ultrascalar with a
//! window-size of 128 and 16 shared ALUs").
//!
//! The circuit is one more CSPP instance: each station raises a request
//! bit; a cyclic *prefix count* starting at the oldest station numbers
//! the requests in age order; station `i` is granted iff it requests
//! and fewer than `k` older stations request. Gate delay `Θ(log n)`
//! (a log-width counting prefix), the same bound as the rest of the
//! datapath.

use crate::cspp::cspp_tree;
use crate::op::PrefixOp;

/// Saturating counter addition — the prefix operator for request
/// counting. Saturation keeps the counter width at `⌈log₂(k+1)⌉` bits
/// in hardware; counts above `k` are equivalent for grant purposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatCount<const MAX: u32>;

impl<const MAX: u32> PrefixOp<u32> for SatCount<MAX> {
    #[inline]
    fn combine(a: &u32, b: &u32) -> u32 {
        (a + b).min(MAX)
    }
}

/// Grant up to `k` of the raised `requests`, oldest first, where age
/// order starts at `oldest` and proceeds cyclically — the Memo 2
/// scheduler's semantics, evaluated through the actual cyclic prefix.
///
/// Returns the grant bit per station.
///
/// # Panics
/// Panics if `oldest >= requests.len()` or the ring is empty.
pub fn allocate_oldest_first(requests: &[bool], k: usize, oldest: usize) -> Vec<bool> {
    assert!(!requests.is_empty(), "allocation over an empty ring");
    assert!(oldest < requests.len(), "oldest station out of range");
    if k == 0 {
        return vec![false; requests.len()];
    }
    // Cap the saturation at a value safely above any practical k; the
    // const generic mirrors the fixed counter width of the circuit.
    const CAP: u32 = 1 << 16;
    let k = k.min(CAP as usize - 1);
    let xs: Vec<u32> = requests.iter().map(|&r| r as u32).collect();
    let mut seg = vec![false; requests.len()];
    seg[oldest] = true;
    // prefix[i] = number of requests among stations strictly older
    // than i (cyclic, from the oldest station). Tree form: the slow
    // ring reference is reserved for test oracles.
    let prefix = cspp_tree::<u32, SatCount<CAP>>(&xs, &seg);
    requests
        .iter()
        .enumerate()
        .map(|(i, &req)| {
            let older = if i == oldest { 0 } else { prefix[i].value };
            req && (older as usize) < k
        })
        .collect()
}

/// Reference implementation: walk the ring in age order granting the
/// first `k` requesters. Used by the property tests to pin
/// [`allocate_oldest_first`].
pub fn allocate_reference(requests: &[bool], k: usize, oldest: usize) -> Vec<bool> {
    assert!(oldest < requests.len(), "oldest station out of range");
    let n = requests.len();
    let mut grants = vec![false; n];
    let mut left = k;
    for step in 0..n {
        let i = (oldest + step) % n;
        if requests[i] && left > 0 {
            grants[i] = true;
            left -= 1;
        }
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_oldest_first() {
        // Ring of 8, oldest = 5, requests at {6, 0, 2, 4}; k = 2 grants
        // the two oldest requesters: 6 and 0.
        let mut req = vec![false; 8];
        for i in [6usize, 0, 2, 4] {
            req[i] = true;
        }
        let g = allocate_oldest_first(&req, 2, 5);
        let granted: Vec<usize> = (0..8).filter(|&i| g[i]).collect();
        assert_eq!(granted, vec![0, 6]);
    }

    #[test]
    fn k_zero_grants_nothing_k_large_grants_all() {
        let req = vec![true; 6];
        assert!(allocate_oldest_first(&req, 0, 3).iter().all(|&g| !g));
        assert!(allocate_oldest_first(&req, 6, 3).iter().all(|&g| g));
        assert!(allocate_oldest_first(&req, 100, 3).iter().all(|&g| g));
    }

    #[test]
    fn grants_never_exceed_k_and_only_requesters() {
        let req = [true, false, true, true, true, false, true, true];
        for k in 0..=8 {
            for oldest in 0..8 {
                let g = allocate_oldest_first(&req, k, oldest);
                assert!(g.iter().filter(|&&x| x).count() <= k);
                for i in 0..8 {
                    assert!(!g[i] || req[i]);
                }
            }
        }
    }

    #[test]
    fn matches_reference_exhaustively_small() {
        for n in 1..=6usize {
            for pattern in 0..(1u32 << n) {
                let req: Vec<bool> = (0..n).map(|i| pattern >> i & 1 == 1).collect();
                for k in 0..=n {
                    for oldest in 0..n {
                        assert_eq!(
                            allocate_oldest_first(&req, k, oldest),
                            allocate_reference(&req, k, oldest),
                            "n={n} pattern={pattern:b} k={k} oldest={oldest}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oldest_bounds_checked() {
        let _ = allocate_oldest_first(&[true], 1, 3);
    }
}

#[cfg(test)]
mod random_tests {
    use super::*;
    use rand::{cases, Rng};

    #[test]
    fn prefix_allocator_matches_reference() {
        cases(0x5C4E_0001, 64, |rng, _| {
            let req: Vec<bool> = (0..rng.gen_range(1..64)).map(|_| rng.gen()).collect();
            let k = rng.gen_range(0usize..70);
            let oldest = rng.gen_range(0usize..64) % req.len();
            assert_eq!(
                allocate_oldest_first(&req, k, oldest),
                allocate_reference(&req, k, oldest),
                "req {req:?}, k {k}, oldest {oldest}"
            );
        });
    }
}

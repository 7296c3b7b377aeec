//! Butterfly network contention model — the paper's alternative to the
//! fat tree ("we propose to connect the Ultrascalar I datapath to an
//! interleaved data cache and to an instruction trace cache via two
//! fat-tree or butterfly networks \[Leiserson\]").
//!
//! A radix-2 butterfly over `n` padded positions: `log₂ n` stages of
//! 2×2 switches, destination-bit steering (at stage `s` the path sets
//! bit `s` of the current position to bit `s` of the destination).
//! Every stage wire carries at most one request per cycle, so the
//! network offers full aggregate bandwidth but *blocks* on conflicting
//! paths — the classic trade-off against the fat tree's guaranteed
//! (but pre-provisioned) subtree capacities.
//!
//! Memory ports sit on the far side: a request's destination position
//! is its target bank's port, `port · (n / ports)`, where the port
//! count is the bandwidth profile's root capacity `⌈M(n)⌉`.

use crate::bandwidth::Bandwidth;
use ultrascalar_isa::wrap;
use ultrascalar_prefix::packed::BitWords;

/// Per-cycle butterfly admission control.
#[derive(Debug, Clone)]
pub struct Butterfly {
    /// Padded position count (power of two ≥ leaves).
    n: usize,
    stages: usize,
    ports: usize,
    /// Positions between consecutive ports, `n / ports`.
    stride: usize,
    /// `used[s]` bit `q`: the wire entering position `q` after stage
    /// `s` is taken this cycle. Packed so `begin_cycle` clears 64
    /// wires per word instead of one `bool` at a time.
    used: Vec<BitWords>,
}

impl Butterfly {
    /// Build a butterfly for `n_leaves` stations with far-side port
    /// count `⌈M(n)⌉` from the bandwidth profile.
    ///
    /// # Panics
    /// Panics if `n_leaves == 0`.
    pub fn new(n_leaves: usize, bw: Bandwidth) -> Self {
        assert!(n_leaves > 0, "butterfly needs at least one leaf");
        let n = n_leaves.next_power_of_two();
        let stages = n.trailing_zeros() as usize;
        let ports = bw.capacity(n_leaves).max(1);
        Butterfly {
            n,
            stages,
            ports,
            stride: n / ports,
            used: vec![BitWords::new(n); stages.max(1)],
        }
    }

    /// Switching stages a request traverses: the one-way hop count.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Far-side memory ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Far-side position serving a given word address.
    pub fn dest_of(&self, addr: usize) -> usize {
        wrap(addr, self.ports) * self.stride
    }

    /// Reset per-cycle wire usage (one word write per 64 wires).
    pub fn begin_cycle(&mut self) {
        for stage in &mut self.used {
            stage.clear();
        }
    }

    /// Try to route from `leaf` to the port serving `addr` this cycle.
    /// Consumes the path's stage wires on success; consumes nothing on
    /// failure.
    ///
    /// # Panics
    /// Panics if `leaf >= n` (padded size).
    pub fn try_route(&mut self, leaf: usize, addr: usize) -> bool {
        assert!(leaf < self.n, "leaf out of range");
        let dest = self.dest_of(addr);
        // Compute the path: after stage s, bit s of the position equals
        // bit s of the destination. The position count is a usize, so
        // a stack array of one slot per possible stage covers every
        // network — this sits on the per-request hot path and must not
        // allocate.
        let mut pos = leaf;
        let mut path = [0usize; usize::BITS as usize];
        for (s, slot) in path[..self.stages].iter_mut().enumerate() {
            let bit = 1usize << s;
            pos = (pos & !bit) | (dest & bit);
            *slot = pos;
        }
        debug_assert!(self.stages == 0 || pos == dest);
        for (s, &q) in path[..self.stages].iter().enumerate() {
            if self.used[s].get(q) {
                return false;
            }
        }
        for (s, &q) in path[..self.stages].iter().enumerate() {
            self.used[s].set(q);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A destination is the port, `addr` modulo the port count, times
    /// the positions per port, at every window and bandwidth.
    #[test]
    fn destination_is_port_times_stride() {
        use rand::Rng;
        rand::cases(0xB077_0001, 64, |rng, i| {
            let leaves = [24, 16, 200, 5, 64][i as usize % 5];
            let bw = [
                Bandwidth::sqrt(),
                Bandwidth::full(),
                Bandwidth::constant(3.0),
            ];
            let b = Butterfly::new(leaves, bw[i as usize % 3]);
            let (n, ports) = (leaves.next_power_of_two(), b.ports());
            let addrs = [0, ports - 1, ports, ports + 1, 3 * ports];
            for a in addrs.into_iter().chain([rng.gen_range(0..1 << 30)]) {
                let want = (a % ports) * (n / ports.min(n));
                assert_eq!(b.dest_of(a), want, "{a} over {ports} ports of {n}");
            }
        });
    }

    #[test]
    fn identity_routing_all_pass() {
        // Each leaf to its own position's port: with full bandwidth the
        // identity permutation is conflict-free.
        let mut b = Butterfly::new(8, Bandwidth::full());
        b.begin_cycle();
        for leaf in 0..8 {
            assert!(b.try_route(leaf, leaf), "leaf {leaf}");
        }
    }

    #[test]
    fn single_port_serialises() {
        // Everyone to the same address: one admission per cycle.
        let mut b = Butterfly::new(8, Bandwidth::full());
        b.begin_cycle();
        let admitted = (0..8).filter(|&l| b.try_route(l, 5)).count();
        assert_eq!(admitted, 1);
        b.begin_cycle();
        assert!(b.try_route(7, 5));
    }

    #[test]
    fn failed_route_consumes_nothing() {
        let mut b = Butterfly::new(4, Bandwidth::full());
        b.begin_cycle();
        assert!(b.try_route(0, 0));
        assert!(!b.try_route(1, 0)); // same dest: paths collide en route
                                     // A different destination from leaf 1 still works if its path
                                     // is clear.
        assert!(b.try_route(1, 1));
    }

    #[test]
    fn ports_follow_bandwidth_profile() {
        let b = Butterfly::new(16, Bandwidth::sqrt());
        assert_eq!(b.ports(), 4);
        // Destinations spread across the far side.
        let dests: std::collections::HashSet<usize> = (0..16).map(|a| b.dest_of(a)).collect();
        assert_eq!(dests.len(), 4);
    }

    #[test]
    fn distinct_ports_mostly_parallel() {
        // 8 leaves to 8 distinct ports in a permutation that the
        // butterfly can realise: leaf i → port i (identity) works; the
        // bit-reversal permutation famously blocks — check both
        // behaviours exist.
        let mut b = Butterfly::new(8, Bandwidth::full());
        b.begin_cycle();
        let ok = (0..8).filter(|&l| b.try_route(l, l)).count();
        assert_eq!(ok, 8);

        let mut b = Butterfly::new(8, Bandwidth::full());
        b.begin_cycle();
        let rev = |x: usize| ((x & 1) << 2) | (x & 2) | ((x & 4) >> 2);
        let ok = (0..8).filter(|&l| b.try_route(l, rev(l))).count();
        assert!(ok < 8, "bit reversal must block a radix-2 butterfly");
        assert!(ok >= 2);
    }

    #[test]
    fn single_leaf_degenerate() {
        let mut b = Butterfly::new(1, Bandwidth::full());
        assert_eq!(b.stages(), 0);
        b.begin_cycle();
        assert!(b.try_route(0, 99));
    }

    #[test]
    #[should_panic(expected = "leaf out of range")]
    fn leaf_bounds_checked() {
        let mut b = Butterfly::new(4, Bandwidth::full());
        b.begin_cycle();
        let _ = b.try_route(9, 0);
    }
}

//! Fat-tree network contention model.
//!
//! The stations sit at the leaves of a 4-ary tree (matching the paper's
//! H-tree floorplan, which recurses into quadrants); the interleaved
//! cache hangs off the root. A subtree of `s` leaves owns `⌈M(s)⌉`
//! upward links — the fat-tree fatness profile the paper prescribes —
//! so per cycle at most `⌈M(s)⌉` requests may leave any subtree of `s`
//! stations.
//!
//! [`FatTree::begin_cycle`] resets the per-cycle link usage counters;
//! [`FatTree::try_route`] then greedily admits requests in the order
//! offered (callers offer oldest-first, which is what the hardware's
//! prefix-arbitration implements).

use crate::bandwidth::Bandwidth;

/// Arity of the tree: quadrants, as in the H-tree floorplan.
pub const ARITY: usize = 4;

/// `log2(ARITY)`: a leaf's subtree at level `l` is `leaf >> (l *
/// ARITY_BITS)`, a shift instead of a division per level.
const ARITY_BITS: u32 = ARITY.ilog2();
const _: () = assert!(ARITY.is_power_of_two(), "subtree ids are shifts");

/// Per-cycle fat-tree admission control.
#[derive(Debug, Clone)]
pub struct FatTree {
    n_leaves: usize,
    levels: usize,
    /// `caps[l]` is the per-subtree capacity at level `l` (level 0 =
    /// leaves themselves, level `levels` = root).
    caps: Vec<usize>,
    /// Usage counters per level, indexed by subtree id at that level.
    /// Each entry is `(generation, count)`; a stale generation reads as
    /// zero, so `begin_cycle` is an O(1) generation bump rather than an
    /// O(n log n) sweep over every counter.
    used: Vec<Vec<(u64, usize)>>,
    /// Current cycle's generation stamp.
    generation: u64,
    /// Total requests admitted.
    pub admitted: u64,
    /// Requests refused for lack of link capacity.
    pub link_rejections: u64,
}

impl FatTree {
    /// Build admission control for `n_leaves` stations under bandwidth
    /// profile `bw`.
    ///
    /// # Panics
    /// Panics if `n_leaves == 0`.
    pub fn new(n_leaves: usize, bw: Bandwidth) -> Self {
        assert!(n_leaves > 0, "fat tree needs at least one leaf");
        // levels = ceil(log4 n)
        let mut levels = 0usize;
        let mut span = 1usize;
        while span < n_leaves {
            span *= ARITY;
            levels += 1;
        }
        // Capacity of a subtree at level l (containing up to 4^l leaves,
        // clamped to n): M(subtree size).
        let mut caps = Vec::with_capacity(levels + 1);
        let mut used = Vec::with_capacity(levels + 1);
        for l in 0..=levels {
            let size = (ARITY.pow(l as u32)).min(n_leaves);
            caps.push(bw.capacity(size));
            let groups = n_leaves.div_ceil(ARITY.pow(l as u32));
            used.push(vec![(0u64, 0usize); groups]);
        }
        FatTree {
            n_leaves,
            levels,
            caps,
            used,
            generation: 0,
            admitted: 0,
            link_rejections: 0,
        }
    }

    /// Number of tree levels between a leaf and the root.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Root (total) bandwidth per cycle.
    pub fn root_capacity(&self) -> usize {
        *self.caps.last().expect("at least one level")
    }

    /// Reset per-cycle usage. Call once per simulated cycle. O(1): the
    /// generation stamp advances and every counter lazily reads as zero
    /// until touched again.
    pub fn begin_cycle(&mut self) {
        self.generation += 1;
    }

    /// Rewind to the as-constructed state for a new run: statistics
    /// cleared and every per-cycle counter back to zero. O(1) — the
    /// generation stamp advances, so stale counters lazily read as
    /// zero exactly as in [`FatTree::begin_cycle`].
    pub fn reset(&mut self) {
        self.generation += 1;
        self.admitted = 0;
        self.link_rejections = 0;
    }

    /// Try to admit a request from `leaf` this cycle. On success the
    /// capacity is consumed along the whole root path and `true` is
    /// returned; on failure nothing is consumed.
    ///
    /// # Panics
    /// Panics if `leaf >= n_leaves`.
    pub fn try_route(&mut self, leaf: usize) -> bool {
        assert!(leaf < self.n_leaves, "leaf out of range");
        // Check every level first (levels 1..=levels are real links;
        // level 0 is the leaf's own port, capacity M(1) = 1).
        for l in 0..=self.levels {
            let group = leaf >> (l as u32 * ARITY_BITS);
            let (stamp, count) = self.used[l][group];
            let count = if stamp == self.generation { count } else { 0 };
            if count >= self.caps[l] {
                self.link_rejections += 1;
                return false;
            }
        }
        for l in 0..=self.levels {
            let group = leaf >> (l as u32 * ARITY_BITS);
            let slot = &mut self.used[l][group];
            let count = if slot.0 == self.generation { slot.1 } else { 0 };
            *slot = (self.generation, count + 1);
        }
        self.admitted += 1;
        true
    }

    /// One-way hop count from a leaf to the root.
    pub fn hops(&self) -> usize {
        self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_log4() {
        for (n, l) in [
            (1usize, 0usize),
            (2, 1),
            (4, 1),
            (5, 2),
            (16, 2),
            (17, 3),
            (64, 3),
        ] {
            assert_eq!(FatTree::new(n, Bandwidth::full()).levels(), l, "n={n}");
        }
    }

    #[test]
    fn full_bandwidth_admits_everything() {
        let mut t = FatTree::new(16, Bandwidth::full());
        t.begin_cycle();
        for leaf in 0..16 {
            assert!(t.try_route(leaf), "leaf {leaf}");
        }
        assert_eq!(t.admitted, 16);
        assert_eq!(t.link_rejections, 0);
    }

    #[test]
    fn root_capacity_limits_total_admissions() {
        // M(n) = √n: with 16 leaves, the root admits 4 per cycle.
        let mut t = FatTree::new(16, Bandwidth::sqrt());
        assert_eq!(t.root_capacity(), 4);
        t.begin_cycle();
        let admitted = (0..16).filter(|&l| t.try_route(l)).count();
        assert_eq!(admitted, 4);
        // Next cycle the capacity is back.
        t.begin_cycle();
        assert!(t.try_route(0));
    }

    #[test]
    fn subtree_capacity_limits_local_bursts() {
        // 16 leaves, √ bandwidth: a level-1 quadrant (4 leaves) has
        // capacity M(4) = 2. All four requests from one quadrant: only
        // 2 admitted even though the root could take 4.
        let mut t = FatTree::new(16, Bandwidth::sqrt());
        t.begin_cycle();
        let admitted = (0..4).filter(|&l| t.try_route(l)).count();
        assert_eq!(admitted, 2);
        // Requests from other quadrants still get through.
        assert!(t.try_route(4));
        assert!(t.try_route(8));
        // Root is now full (capacity 4).
        assert!(!t.try_route(12));
    }

    #[test]
    fn failed_route_consumes_nothing() {
        let mut t = FatTree::new(4, Bandwidth::constant(1.0));
        t.begin_cycle();
        assert!(t.try_route(0));
        assert!(!t.try_route(1)); // root full
        assert_eq!(t.link_rejections, 1);
        t.begin_cycle();
        // leaf 1's own port was not consumed by the failed attempt.
        assert!(t.try_route(1));
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = FatTree::new(1, Bandwidth::sqrt());
        assert_eq!(t.levels(), 0);
        t.begin_cycle();
        assert!(t.try_route(0));
        assert!(!t.try_route(0));
    }

    #[test]
    #[should_panic(expected = "leaf out of range")]
    fn leaf_bounds_checked() {
        let mut t = FatTree::new(4, Bandwidth::full());
        t.begin_cycle();
        let _ = t.try_route(4);
    }
}

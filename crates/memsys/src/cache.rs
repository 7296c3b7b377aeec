//! Distributed per-cluster caches (§7): "One way to reduce the
//! bandwidth requirements may be to use a cache distributed among the
//! clusters."
//!
//! Each group of stations (a cluster) owns a small direct-mapped,
//! word-granular cache in front of the fat-tree/butterfly network.
//! Loads that hit are served locally and never enter the network;
//! stores are write-through with *write-update* of every group's
//! matching line. Because the processors only issue stores
//! non-speculatively and in order, updates are architectural and the
//! invariant "a cached word always equals memory" holds at every
//! cycle — which is what makes the speculative wrong-path loads that
//! fill the cache harmless.

use ultrascalar_isa::wrap;

/// Configuration of the distributed caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of cache groups (one per cluster).
    pub groups: usize,
    /// Direct-mapped lines per group (one word per line).
    pub lines: usize,
    /// Cycles from a hit to the response.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// A small default: `groups` caches of 64 words, 1-cycle hits.
    pub fn small(groups: usize) -> Self {
        CacheConfig {
            groups: groups.max(1),
            lines: 64,
            hit_latency: 1,
        }
    }
}

/// The distributed cache state.
#[derive(Debug, Clone)]
pub struct ClusterCaches {
    cfg: CacheConfig,
    /// `tags[g][line]` = cached word address.
    tags: Vec<Vec<Option<usize>>>,
    data: Vec<Vec<u32>>,
    /// Load hits served locally.
    pub hits: u64,
    /// Load misses that went to the network.
    pub misses: u64,
}

impl ClusterCaches {
    /// Build empty caches.
    ///
    /// # Panics
    /// Panics if `groups == 0` or `lines == 0`.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.groups > 0, "need at least one cache group");
        assert!(cfg.lines > 0, "need at least one line");
        ClusterCaches {
            cfg,
            tags: vec![vec![None; cfg.lines]; cfg.groups],
            data: vec![vec![0; cfg.lines]; cfg.groups],
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Rewind to the as-constructed state in place (no allocation):
    /// every line invalidated, counters cleared. Data words may keep
    /// stale values — a `None` tag makes them unreachable.
    pub fn reset(&mut self) {
        for group in &mut self.tags {
            group.fill(None);
        }
        self.hits = 0;
        self.misses = 0;
    }

    /// Which group serves a station leaf, given the total leaf count:
    /// `leaf · groups / n_leaves`, a shift when `n_leaves` is a power of
    /// two.
    pub fn group_of(&self, leaf: usize, n_leaves: usize) -> usize {
        if n_leaves == 0 {
            return 0;
        }
        let scaled = leaf * self.cfg.groups;
        let group = if n_leaves.is_power_of_two() {
            scaled >> n_leaves.trailing_zeros()
        } else {
            scaled / n_leaves
        };
        group.min(self.cfg.groups - 1)
    }

    /// The line that may hold word `addr`: `addr` modulo the line count.
    pub fn line_of(&self, addr: usize) -> usize {
        wrap(addr, self.cfg.lines)
    }

    /// Probe without touching the statistics (for retried requests).
    pub fn probe(&self, group: usize, addr: usize) -> Option<u32> {
        let line = self.line_of(addr);
        if self.tags[group][line] == Some(addr) {
            Some(self.data[group][line])
        } else {
            None
        }
    }

    /// Look a word up in one group's cache, counting hit/miss.
    pub fn lookup(&mut self, group: usize, addr: usize) -> Option<u32> {
        match self.probe(group, addr) {
            Some(v) => {
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Count a miss explicitly (used by the system once a missing load
    /// is actually admitted into the network, so retries don't inflate
    /// the count).
    pub fn count_miss(&mut self) {
        self.misses += 1;
    }

    /// Count a hit explicitly.
    pub fn count_hit(&mut self) {
        self.hits += 1;
    }

    /// Fill a line after a miss response.
    pub fn fill(&mut self, group: usize, addr: usize, value: u32) {
        let line = self.line_of(addr);
        self.tags[group][line] = Some(addr);
        self.data[group][line] = value;
    }

    /// Write-through update: every group holding `addr` gets the new
    /// value (no invalidations needed — the caches can never go stale).
    pub fn write_update(&mut self, addr: usize, value: u32) {
        let line = self.line_of(addr);
        for g in 0..self.cfg.groups {
            if self.tags[g][line] == Some(addr) {
                self.data[g][line] = value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_fill_hit() {
        let mut c = ClusterCaches::new(CacheConfig::small(2));
        assert_eq!(c.lookup(0, 100), None);
        c.fill(0, 100, 42);
        assert_eq!(c.lookup(0, 100), Some(42));
        // The other group is independent.
        assert_eq!(c.lookup(1, 100), None);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let cfg = CacheConfig {
            groups: 1,
            lines: 8,
            hit_latency: 1,
        };
        let mut c = ClusterCaches::new(cfg);
        c.fill(0, 3, 10);
        c.fill(0, 11, 20); // 11 % 8 == 3: evicts
        assert_eq!(c.lookup(0, 3), None);
        assert_eq!(c.lookup(0, 11), Some(20));
    }

    #[test]
    fn write_update_reaches_all_groups() {
        let mut c = ClusterCaches::new(CacheConfig::small(3));
        c.fill(0, 7, 1);
        c.fill(2, 7, 1);
        c.write_update(7, 99);
        assert_eq!(c.lookup(0, 7), Some(99));
        assert_eq!(c.lookup(2, 7), Some(99));
        // A group without the line is unaffected (still a miss).
        assert_eq!(c.lookup(1, 7), None);
    }

    #[test]
    fn write_update_ignores_aliased_lines() {
        let cfg = CacheConfig {
            groups: 1,
            lines: 8,
            hit_latency: 1,
        };
        let mut c = ClusterCaches::new(cfg);
        c.fill(0, 3, 10);
        c.write_update(11, 99); // same line index, different address
        assert_eq!(c.lookup(0, 3), Some(10));
    }

    /// The group and line are the plain quotient and remainder, at
    /// every leaf count, group count and line count.
    #[test]
    fn group_and_line_are_quotient_and_remainder() {
        use rand::Rng;
        rand::cases(0xCAC4_0001, 64, |rng, i| {
            let c = ClusterCaches::new(CacheConfig {
                groups: [1, 3, 4, 5][i as usize % 4],
                lines: [1, 48, 64, 13][i as usize % 4],
                hit_latency: 1,
            });
            let (groups, lines) = (c.config().groups, c.config().lines);
            let n_leaves = [16, 24, 1, 256, 7][i as usize % 5];
            for leaf in (0..n_leaves).chain([rng.gen_range(0..n_leaves)]) {
                let want = (leaf * groups / n_leaves).min(groups - 1);
                assert_eq!(
                    c.group_of(leaf, n_leaves),
                    want,
                    "leaf {leaf} of {n_leaves}"
                );
            }
            let addrs = [0, lines - 1, lines, lines + 1, 2 * lines];
            for a in addrs.into_iter().chain([rng.gen_range(0..1 << 30)]) {
                assert_eq!(c.line_of(a), a % lines, "{a} over {lines} lines");
            }
        });
    }

    #[test]
    fn group_mapping_partitions_leaves() {
        let c = ClusterCaches::new(CacheConfig::small(4));
        let groups: Vec<usize> = (0..16).map(|l| c.group_of(l, 16)).collect();
        assert_eq!(groups[0], 0);
        assert_eq!(groups[15], 3);
        // Monotone, balanced partition.
        for w in groups.windows(2) {
            assert!(w[1] >= w[0]);
        }
        for g in 0..4 {
            assert_eq!(groups.iter().filter(|&&x| x == g).count(), 4);
        }
    }
}

//! The synchronous memory interface driven by the processor models.
//!
//! Per cycle the processor submits the memory operations whose
//! serialisation conditions (the CSPP circuits) are met, oldest first.
//! [`MemSystem::tick_into`] arbitrates them through the fat tree and the
//! banks, applies accepted operations, and delivers responses after
//! the configured latency (`base + 2·hops·hop_latency + bank`).
//! Rejected requests simply retry next cycle — the processor keeps the
//! station waiting, exactly as the hardware would.

use crate::bandwidth::Bandwidth;
use crate::banked::BankedMemory;
use crate::butterfly::Butterfly;
use crate::cache::{CacheConfig, ClusterCaches};
use crate::fattree::FatTree;
use ultrascalar_isa::{mem_words, MemImage};

/// Which interconnect carries requests to the banks (the paper's §2:
/// "via two fat-tree or butterfly networks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetworkKind {
    /// Fat tree with per-subtree capacities `⌈M(s)⌉` (guaranteed
    /// bandwidth, pre-provisioned fatness).
    #[default]
    FatTree,
    /// Radix-2 butterfly with `⌈M(n)⌉` far-side ports (full wire
    /// parallelism, but conflicting paths block).
    Butterfly,
}

/// Memory system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Number of stations (network leaves).
    pub n_leaves: usize,
    /// Bandwidth profile `M(s)`.
    pub bandwidth: Bandwidth,
    /// Number of interleaved banks.
    pub banks: usize,
    /// Cycles a bank is occupied per access.
    pub bank_occupancy: u64,
    /// Cycles per network hop, each direction.
    pub hop_latency: u64,
    /// Fixed pipeline latency added to every access.
    pub base_latency: u64,
    /// Memory size in words.
    pub words: usize,
    /// Interconnect topology.
    pub network: NetworkKind,
    /// Optional distributed per-cluster caches in front of the network
    /// (§7's bandwidth-reduction suggestion).
    pub cluster_cache: Option<CacheConfig>,
}

impl MemConfig {
    /// An idealised memory: full bandwidth, single-cycle, as many banks
    /// as stations. Useful as the "perfect memory" baseline.
    pub fn ideal(n_leaves: usize, words: usize) -> Self {
        MemConfig {
            n_leaves,
            bandwidth: Bandwidth::full(),
            banks: n_leaves.max(1),
            bank_occupancy: 1,
            hop_latency: 0,
            base_latency: 0,
            words,
            network: NetworkKind::FatTree,
            cluster_cache: None,
        }
    }

    /// A realistic default: √n bandwidth, n/2 banks, 1-cycle hops.
    pub fn realistic(n_leaves: usize, words: usize) -> Self {
        MemConfig {
            n_leaves,
            bandwidth: Bandwidth::sqrt(),
            banks: (n_leaves / 2).max(1),
            bank_occupancy: 1,
            hop_latency: 1,
            base_latency: 1,
            words,
            network: NetworkKind::FatTree,
            cluster_cache: None,
        }
    }

    /// Builder: switch the interconnect topology.
    pub fn with_network(mut self, network: NetworkKind) -> Self {
        self.network = network;
        self
    }

    /// Builder: add distributed per-cluster caches.
    pub fn with_cluster_cache(mut self, cache: CacheConfig) -> Self {
        self.cluster_cache = Some(cache);
        self
    }
}

/// What a request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Read a word.
    Load,
    /// Write a word.
    Store(u32),
}

/// A memory request from a station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier returned in the response.
    pub id: u64,
    /// Fat-tree leaf (station index) issuing the request.
    pub leaf: usize,
    /// Word address.
    pub addr: usize,
    /// Load or store.
    pub kind: ReqKind,
}

/// A completed memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// The request's identifier.
    pub id: u64,
    /// The request's leaf, so a caller that issues from slot `leaf`
    /// finds the waiting op without searching for `id`.
    pub leaf: usize,
    /// Loaded value (`None` for stores).
    pub value: Option<u32>,
}

/// Aggregate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Requests admitted into the tree.
    pub admitted: u64,
    /// Admission failures due to link capacity.
    pub link_rejections: u64,
    /// Admission failures due to bank occupancy.
    pub bank_conflicts: u64,
    /// Completed loads.
    pub loads: u64,
    /// Completed stores.
    pub stores: u64,
    /// Loads served by a distributed cluster cache (never entered the
    /// network).
    pub cache_hits: u64,
    /// Loads that missed the cluster cache and went to memory.
    pub cache_misses: u64,
}

/// The interconnect instance.
#[derive(Debug, Clone)]
enum Network {
    Tree(FatTree),
    Fly(Butterfly),
}

impl Network {
    fn begin_cycle(&mut self) {
        match self {
            Network::Tree(t) => t.begin_cycle(),
            Network::Fly(b) => b.begin_cycle(),
        }
    }

    fn try_route(&mut self, leaf: usize, addr: usize) -> bool {
        match self {
            Network::Tree(t) => t.try_route(leaf),
            Network::Fly(b) => b.try_route(leaf, addr),
        }
    }

    fn hops(&self) -> usize {
        match self {
            Network::Tree(t) => t.hops(),
            Network::Fly(b) => b.stages(),
        }
    }

    fn admitted(&self) -> u64 {
        match self {
            Network::Tree(t) => t.admitted,
            Network::Fly(b) => b.admitted,
        }
    }

    fn reset(&mut self) {
        match self {
            Network::Tree(t) => t.reset(),
            Network::Fly(b) => b.reset(),
        }
    }

    fn rejections(&self) -> u64 {
        match self {
            Network::Tree(t) => t.link_rejections,
            Network::Fly(b) => b.conflicts,
        }
    }
}

/// The memory system: interconnect + banks + in-flight completion
/// queue.
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MemConfig,
    net: Network,
    banks: BankedMemory,
    /// In-flight accesses: (completion_cycle, response), unsorted —
    /// traffic per cycle is small, and only a tick with a response due
    /// scans them.
    in_flight: Vec<(u64, MemResponse)>,
    /// The earliest completion cycle in `in_flight`; `u64::MAX` when it
    /// is empty.
    due: u64,
    caches: Option<ClusterCaches>,
    stats: MemStats,
}

impl MemSystem {
    /// Build a memory system and load the initial image.
    pub fn new(cfg: MemConfig, image: &[u32]) -> Self {
        let words = mem_words(cfg.words, image);
        let mut banks = BankedMemory::new(words, cfg.banks.max(1), cfg.bank_occupancy);
        banks.reset(words, image);
        let net = match cfg.network {
            NetworkKind::FatTree => Network::Tree(FatTree::new(cfg.n_leaves.max(1), cfg.bandwidth)),
            NetworkKind::Butterfly => {
                Network::Fly(Butterfly::new(cfg.n_leaves.max(1), cfg.bandwidth))
            }
        };
        let caches = cfg.cluster_cache.map(ClusterCaches::new);
        MemSystem {
            cfg,
            net,
            banks,
            in_flight: Vec::new(),
            due: u64::MAX,
            caches,
            stats: MemStats::default(),
        }
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Rewind to the freshly-constructed state for a new run, reusing
    /// every retained buffer: the pages of storage the last run wrote
    /// are re-zeroed and `image` is loaded, network capacities and
    /// caches are cleared, in-flight accesses are dropped, and
    /// statistics return to zero. After this, the system is
    /// observationally identical to `MemSystem::new(cfg, image)` — the
    /// reuse-equivalence tests in `ultrascalar` pin that cycle-exactly.
    /// Allocation-free unless the image forces a larger word count than
    /// any previous run.
    pub fn reset(&mut self, image: &[u32]) {
        self.banks.reset(mem_words(self.cfg.words, image), image);
        self.net.reset();
        if let Some(caches) = &mut self.caches {
            caches.reset();
        }
        self.in_flight.clear();
        self.due = u64::MAX;
        self.stats = MemStats::default();
    }

    /// Total access latency for an admitted request.
    pub fn latency(&self) -> u64 {
        self.cfg.base_latency
            + 2 * self.cfg.hop_latency * self.net.hops() as u64
            + self.cfg.bank_occupancy
    }

    /// Memory size in words.
    pub fn words(&self) -> usize {
        self.banks.len()
    }

    /// One cycle: offer `requests` (oldest first — the offered order is
    /// the grant priority), copy the requests accepted this cycle into
    /// `accepted` and the responses for accesses completing *this*
    /// cycle into `done`; both carry each request's `id` and `leaf`.
    /// Both buffers are caller-owned and cleared first, so a
    /// processor's cycle loop reuses the same two vectors across
    /// millions of cycles instead of allocating whenever there is
    /// traffic.
    ///
    /// Accepted stores take architectural effect immediately (the
    /// processor guarantees ordering before submitting); accepted loads
    /// snapshot their value immediately and deliver it at completion.
    pub fn tick_into(
        &mut self,
        now: u64,
        requests: &[MemRequest],
        accepted: &mut Vec<MemRequest>,
        done: &mut Vec<MemResponse>,
    ) {
        accepted.clear();
        done.clear();
        debug_assert_eq!(self.due, self.earliest(), "the kept due cycle drifted");
        if requests.is_empty() && now < self.due {
            return;
        }
        self.net.begin_cycle();
        for req in requests {
            // Distributed cluster cache: a hitting load is served
            // locally and never enters the network.
            if let (Some(caches), ReqKind::Load) = (&mut self.caches, req.kind) {
                let group = caches.group_of(req.leaf, self.cfg.n_leaves);
                if let Some(v) = caches.probe(group, req.addr) {
                    caches.count_hit();
                    self.stats.loads += 1;
                    let done = now + caches.config().hit_latency;
                    self.due = self.due.min(done);
                    self.in_flight.push((
                        done,
                        MemResponse {
                            id: req.id,
                            leaf: req.leaf,
                            value: Some(v),
                        },
                    ));
                    accepted.push(*req);
                    continue;
                }
            }
            if !self.banks.bank_free(req.addr, now) {
                self.stats.bank_conflicts += 1;
                continue;
            }
            if !self.net.try_route(req.leaf, req.addr) {
                continue;
            }
            let store = match req.kind {
                ReqKind::Load => None,
                ReqKind::Store(v) => Some(v),
            };
            let value = self
                .banks
                .access(req.addr, store, now)
                .expect("bank checked free");
            if let Some(caches) = &mut self.caches {
                match req.kind {
                    ReqKind::Load => {
                        caches.count_miss();
                        let group = caches.group_of(req.leaf, self.cfg.n_leaves);
                        caches.fill(group, req.addr, value);
                    }
                    ReqKind::Store(v) => caches.write_update(req.addr, v),
                }
            }
            let resp = MemResponse {
                id: req.id,
                leaf: req.leaf,
                value: match req.kind {
                    ReqKind::Load => {
                        self.stats.loads += 1;
                        Some(value)
                    }
                    ReqKind::Store(_) => {
                        self.stats.stores += 1;
                        None
                    }
                },
            };
            self.due = self.due.min(now + self.latency());
            self.in_flight.push((now + self.latency(), resp));
            accepted.push(*req);
        }
        self.stats.admitted = self.net.admitted();
        self.stats.link_rejections = self.net.rejections();
        if let Some(caches) = &self.caches {
            self.stats.cache_hits = caches.hits;
            self.stats.cache_misses = caches.misses;
        }

        if self.due <= now {
            let landed = self.in_flight.extract_if(.., |&mut (t, _)| t <= now);
            done.extend(landed.map(|(_, r)| r));
            self.due = self.earliest();
        }
    }

    /// The earliest completion cycle in flight, by a scan.
    fn earliest(&self) -> u64 {
        self.in_flight
            .iter()
            .map(|&(t, _)| t)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Are any accesses still in flight?
    pub fn quiescent(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// The earliest cycle at which an in-flight access will deliver its
    /// response, if any; every tick keeps it, so this is O(1).
    /// Event-driven processor models use this to jump straight to the
    /// next memory event instead of ticking through quiet cycles: a
    /// [`MemSystem::tick_into`] whose `requests` are empty and whose
    /// `now` is before this cycle returns at once, which is
    /// observationally free (per-cycle network capacity resets are
    /// idempotent and banks compare absolute busy times).
    pub fn next_completion_at(&self) -> Option<u64> {
        (self.due != u64::MAX).then_some(self.due)
    }

    /// Statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Architectural memory contents.
    pub fn image(&self) -> &MemImage {
        self.banks.image()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One [`MemSystem::tick_into`] cycle into fresh buffers: the
    /// accepted ids and the responses.
    pub(super) fn tick(
        m: &mut MemSystem,
        now: u64,
        requests: &[MemRequest],
    ) -> (Vec<u64>, Vec<MemResponse>) {
        let (mut accepted, mut done) = (Vec::new(), Vec::new());
        m.tick_into(now, requests, &mut accepted, &mut done);
        (accepted.iter().map(|r| r.id).collect(), done)
    }

    fn req(id: u64, leaf: usize, addr: usize, kind: ReqKind) -> MemRequest {
        MemRequest {
            id,
            leaf,
            addr,
            kind,
        }
    }

    #[test]
    fn ideal_memory_is_single_cycle() {
        let mut m = MemSystem::new(MemConfig::ideal(4, 16), &[7, 8, 9]);
        assert_eq!(m.latency(), 1);
        let (acc, done) = tick(&mut m, 0, &[req(1, 0, 2, ReqKind::Load)]);
        assert_eq!(acc, vec![1]);
        assert!(done.is_empty());
        let (_, done) = tick(&mut m, 1, &[]);
        assert_eq!(
            done,
            vec![MemResponse {
                id: 1,
                leaf: 0,
                value: Some(9)
            }]
        );
        assert!(m.quiescent());
    }

    #[test]
    fn stores_apply_immediately_loads_snapshot() {
        let mut m = MemSystem::new(MemConfig::ideal(2, 8), &[]);
        // Store at cycle 0; the image holds it at once.
        tick(&mut m, 0, &[req(1, 0, 3, ReqKind::Store(55))]);
        assert_eq!(m.image()[3], 55);
        // A load offered the same address next cycle returns 55.
        tick(&mut m, 1, &[req(2, 1, 3, ReqKind::Load)]);
        let (_, done) = tick(&mut m, 2, &[]);
        assert_eq!(done[0].value, Some(55));
    }

    #[test]
    fn bandwidth_limits_acceptance_and_requests_retry() {
        // 16 leaves, √ bandwidth → root accepts 4/cycle.
        let cfg = MemConfig {
            n_leaves: 16,
            bandwidth: Bandwidth::sqrt(),
            banks: 16,
            bank_occupancy: 1,
            hop_latency: 0,
            base_latency: 0,
            words: 64,
            network: NetworkKind::FatTree,
            cluster_cache: None,
        };
        let mut m = MemSystem::new(cfg, &[]);
        let reqs: Vec<MemRequest> = (0..16)
            .map(|i| req(i as u64, i, i, ReqKind::Load))
            .collect();
        let (acc, _) = tick(&mut m, 0, &reqs);
        assert_eq!(acc.len(), 4);
        // The rejected 12 retry next cycle; again 4 admitted.
        let rest: Vec<MemRequest> = reqs
            .iter()
            .filter(|r| !acc.contains(&r.id))
            .copied()
            .collect();
        let (acc2, _) = tick(&mut m, 1, &rest);
        assert_eq!(acc2.len(), 4);
        assert!(m.stats().link_rejections > 0);
    }

    #[test]
    fn oldest_first_priority() {
        let cfg = MemConfig {
            n_leaves: 4,
            bandwidth: Bandwidth::constant(1.0),
            banks: 4,
            bank_occupancy: 1,
            hop_latency: 0,
            base_latency: 0,
            words: 16,
            network: NetworkKind::FatTree,
            cluster_cache: None,
        };
        let mut m = MemSystem::new(cfg, &[]);
        // Two requests; only one slot. The first offered (oldest) wins.
        let (acc, _) = tick(
            &mut m,
            0,
            &[req(10, 0, 0, ReqKind::Load), req(11, 1, 1, ReqKind::Load)],
        );
        assert_eq!(acc, vec![10]);
    }

    #[test]
    fn bank_conflicts_block_second_access() {
        let cfg = MemConfig {
            n_leaves: 4,
            bandwidth: Bandwidth::full(),
            banks: 2,
            bank_occupancy: 4,
            hop_latency: 0,
            base_latency: 0,
            words: 16,
            network: NetworkKind::FatTree,
            cluster_cache: None,
        };
        let mut m = MemSystem::new(cfg, &[]);
        // Addresses 0 and 2 share bank 0.
        let (acc, _) = tick(
            &mut m,
            0,
            &[req(1, 0, 0, ReqKind::Load), req(2, 1, 2, ReqKind::Load)],
        );
        assert_eq!(acc, vec![1]);
        assert_eq!(m.stats().bank_conflicts, 1);
        // After occupancy expires the second succeeds.
        let (acc, _) = tick(&mut m, 4, &[req(2, 1, 2, ReqKind::Load)]);
        assert_eq!(acc, vec![2]);
    }

    #[test]
    fn latency_accounts_for_hops() {
        let cfg = MemConfig {
            n_leaves: 16, // 2 levels of 4-ary tree
            bandwidth: Bandwidth::full(),
            banks: 16,
            bank_occupancy: 1,
            hop_latency: 3,
            base_latency: 2,
            words: 16,
            network: NetworkKind::FatTree,
            cluster_cache: None,
        };
        let m = MemSystem::new(cfg, &[]);
        assert_eq!(m.latency(), 2 + 2 * 3 * 2 + 1);
    }

    #[test]
    fn responses_arrive_exactly_at_latency() {
        let cfg = MemConfig {
            n_leaves: 4,
            bandwidth: Bandwidth::full(),
            banks: 4,
            bank_occupancy: 1,
            hop_latency: 1,
            base_latency: 0,
            words: 8,
            network: NetworkKind::FatTree,
            cluster_cache: None,
        };
        let mut m = MemSystem::new(cfg, &[1, 2, 3, 4]);
        let lat = m.latency(); // 0 + 2*1*1 + 1 = 3
        tick(&mut m, 10, &[req(9, 2, 1, ReqKind::Load)]);
        for t in 11..10 + lat {
            let (_, done) = tick(&mut m, t, &[]);
            assert!(done.is_empty(), "t={t}");
        }
        let (_, done) = tick(&mut m, 10 + lat, &[]);
        assert_eq!(
            done,
            vec![MemResponse {
                id: 9,
                leaf: 2,
                value: Some(2)
            }]
        );
    }

    #[test]
    fn image_reflects_all_stores() {
        let mut m = MemSystem::new(MemConfig::ideal(2, 8), &[]);
        tick(&mut m, 0, &[req(1, 0, 1, ReqKind::Store(10))]);
        tick(&mut m, 1, &[req(2, 1, 2, ReqKind::Store(20))]);
        assert_eq!(&m.image()[..3], &[0, 10, 20]);
    }
}

#[cfg(test)]
mod butterfly_tests {
    use super::tests::tick;
    use super::*;

    fn req(id: u64, leaf: usize, addr: usize) -> MemRequest {
        MemRequest {
            id,
            leaf,
            addr,
            kind: ReqKind::Load,
        }
    }

    #[test]
    fn butterfly_system_delivers_loads() {
        let cfg = MemConfig::ideal(8, 32).with_network(NetworkKind::Butterfly);
        let mut m = MemSystem::new(cfg, &[10, 11, 12, 13]);
        let (acc, _) = tick(&mut m, 0, &[req(1, 3, 2)]);
        assert_eq!(acc, vec![1]);
        let lat = m.latency();
        let (_, done) = tick(&mut m, lat, &[]);
        assert_eq!(
            done,
            vec![MemResponse {
                id: 1,
                leaf: 3,
                value: Some(12)
            }]
        );
    }

    #[test]
    fn butterfly_conflicts_block_and_retry() {
        // All leaves to the same address: the butterfly admits one per
        // cycle (single far-side port path).
        let cfg = MemConfig {
            n_leaves: 8,
            bandwidth: Bandwidth::full(),
            banks: 8,
            bank_occupancy: 1,
            hop_latency: 0,
            base_latency: 0,
            words: 32,
            network: NetworkKind::Butterfly,
            cluster_cache: None,
        };
        let mut m = MemSystem::new(cfg, &[]);
        let reqs: Vec<MemRequest> = (0..8).map(|i| req(i as u64, i, 5)).collect();
        let (acc, _) = tick(&mut m, 0, &reqs);
        // Bank occupancy also limits to one — either way exactly one.
        assert_eq!(acc.len(), 1);
        assert!(m.stats().link_rejections + m.stats().bank_conflicts >= 7);
    }

    #[test]
    fn butterfly_parallel_disjoint_traffic() {
        // Identity traffic (leaf i → address i) passes in one cycle.
        let cfg = MemConfig {
            n_leaves: 8,
            bandwidth: Bandwidth::full(),
            banks: 8,
            bank_occupancy: 1,
            hop_latency: 0,
            base_latency: 0,
            words: 32,
            network: NetworkKind::Butterfly,
            cluster_cache: None,
        };
        let mut m = MemSystem::new(cfg, &[]);
        let reqs: Vec<MemRequest> = (0..8).map(|i| req(i as u64, i, i)).collect();
        let (acc, _) = tick(&mut m, 0, &reqs);
        assert_eq!(acc.len(), 8);
    }

    #[test]
    fn butterfly_latency_counts_stages() {
        let cfg = MemConfig {
            n_leaves: 16,
            bandwidth: Bandwidth::full(),
            banks: 16,
            bank_occupancy: 1,
            hop_latency: 2,
            base_latency: 1,
            words: 32,
            network: NetworkKind::Butterfly,
            cluster_cache: None,
        };
        let m = MemSystem::new(cfg, &[]);
        // 16 leaves → 4 stages → 1 + 2·2·4 + 1.
        assert_eq!(m.latency(), 1 + 16 + 1);
    }
}

#[cfg(test)]
mod cache_tests {
    use super::tests::tick;
    use super::*;

    fn cached_cfg(n: usize) -> MemConfig {
        MemConfig {
            n_leaves: n,
            bandwidth: Bandwidth::constant(1.0), // tight network
            banks: 4,
            bank_occupancy: 1,
            hop_latency: 1,
            base_latency: 0,
            words: 256,
            network: NetworkKind::FatTree,
            cluster_cache: Some(CacheConfig::small(2)),
        }
    }

    fn load(id: u64, leaf: usize, addr: usize) -> MemRequest {
        MemRequest {
            id,
            leaf,
            addr,
            kind: ReqKind::Load,
        }
    }

    #[test]
    fn second_load_hits_and_skips_network() {
        let mut m = MemSystem::new(cached_cfg(8), &[9, 8, 7]);
        // Miss: goes through the network.
        let (acc, _) = tick(&mut m, 0, &[load(1, 0, 2)]);
        assert_eq!(acc, vec![1]);
        // Drain the response (fill happens at acceptance).
        let lat = m.latency();
        let (_, done) = tick(&mut m, lat, &[]);
        assert_eq!(done[0].value, Some(7));
        // Hit: served in hit_latency cycles, no network admission.
        let before = m.stats().admitted;
        let (acc, _) = tick(&mut m, lat + 1, &[load(2, 1, 2)]);
        assert_eq!(acc, vec![2]);
        assert_eq!(m.stats().admitted, before, "hit must not enter the network");
        let (_, done) = tick(&mut m, lat + 2, &[]);
        assert_eq!(
            done,
            vec![MemResponse {
                id: 2,
                leaf: 1,
                value: Some(7)
            }]
        );
        assert_eq!(m.stats().cache_hits, 1);
        assert_eq!(m.stats().cache_misses, 1);
    }

    #[test]
    fn stores_update_cached_copies() {
        let mut m = MemSystem::new(cached_cfg(8), &[0; 16]);
        // Load addr 5 into leaf 0's group cache.
        tick(&mut m, 0, &[load(1, 0, 5)]);
        // Store a new value.
        let (acc, _) = tick(
            &mut m,
            1,
            &[MemRequest {
                id: 2,
                leaf: 7,
                addr: 5,
                kind: ReqKind::Store(77),
            }],
        );
        assert_eq!(acc, vec![2]);
        // A subsequent hit must see the stored value, not the stale one.
        let (acc, _) = tick(&mut m, 2, &[load(3, 0, 5)]);
        assert_eq!(acc, vec![3]);
        let mut got = None;
        for t in 3..20 {
            let (_, done) = tick(&mut m, t, &[]);
            for d in done {
                if d.id == 3 {
                    got = d.value;
                }
            }
        }
        assert_eq!(got, Some(77));
    }

    #[test]
    fn caches_are_per_group() {
        let mut m = MemSystem::new(cached_cfg(8), &[1, 2, 3, 4]);
        // Leaf 0 (group 0) loads addr 3; leaf 7 (group 1) misses on the
        // same address.
        tick(&mut m, 0, &[load(1, 0, 3)]);
        let lat = m.latency();
        tick(&mut m, lat, &[]);
        let (acc, _) = tick(&mut m, lat + 1, &[load(2, 7, 3)]);
        assert_eq!(acc.len(), 1);
        assert_eq!(m.stats().cache_hits, 0, "different group must miss");
    }
}

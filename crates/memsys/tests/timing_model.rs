//! Memory timing against an independent model: random request streams
//! go through [`MemSystem::tick_into`] and through a small per-cycle
//! reference model written here from the documented rules, and every
//! cycle's acceptances and responses, the final image and the counters
//! must agree.
//!
//! The model keeps each bank's busy-until cycle, counts the requests
//! that leave each fat-tree subtree in the current cycle against its
//! capacity `⌈M(size)⌉`, charges every admitted access one fixed
//! latency (`base + 2·hop·levels + bank occupancy`), and serves a load
//! that hits its group's cluster cache at the cache's own latency
//! without touching a bank or the network. Rejected requests are
//! offered again, oldest first, as a processor offers them. Like the
//! engine's cycle skip, a stream sometimes jumps over quiet cycles to
//! the next due response, so a response due at a tick with no request
//! must still land there.
//!
//! A failure names the case's configuration and cycle, and `rand::cases`
//! prints the replay key.

use rand::Rng;
use ultrascalar_memsys::{
    Bandwidth, CacheConfig, MemConfig, MemRequest, MemResponse, MemSystem, NetworkKind, ReqKind,
};

/// The reference model of one memory system.
struct Model {
    cfg: MemConfig,
    words: Vec<u32>,
    bank_free_at: Vec<u64>,
    /// Per group, per line: the cached word's address and value.
    lines: Vec<Vec<Option<(usize, u32)>>>,
    /// Admitted accesses in admission order: (due cycle, response).
    flying: Vec<(u64, MemResponse)>,
    /// Tree levels between a leaf and the root.
    levels: u32,
    loads: u64,
    stores: u64,
    bank_conflicts: u64,
    hits: u64,
}

impl Model {
    fn new(cfg: MemConfig, image: &[u32]) -> Self {
        let mut words = vec![0; cfg.words.max(image.len())];
        words[..image.len()].copy_from_slice(image);
        let levels = (0..).find(|&l| 4usize.pow(l) >= cfg.n_leaves).unwrap();
        let groups = cfg.cluster_cache.map_or(0, |c| c.groups);
        let lines = cfg.cluster_cache.map_or(0, |c| c.lines);
        Model {
            words,
            bank_free_at: vec![0; cfg.banks],
            lines: vec![vec![None; lines]; groups],
            flying: Vec::new(),
            levels,
            loads: 0,
            stores: 0,
            bank_conflicts: 0,
            hits: 0,
            cfg,
        }
    }

    /// One cycle: the accepted requests' ids and the responses due.
    fn tick(&mut self, now: u64, requests: &[MemRequest]) -> (Vec<u64>, Vec<MemResponse>) {
        let cfg = self.cfg.clone();
        let latency =
            cfg.base_latency + 2 * cfg.hop_latency * self.levels as u64 + cfg.bank_occupancy;
        // Requests that left subtree `leaf / 4^l` at level `l` this cycle.
        let mut sent = vec![vec![0usize; cfg.n_leaves]; self.levels as usize + 1];
        let mut accepted = Vec::new();
        for req in requests {
            let resp = |value| MemResponse {
                id: req.id,
                leaf: req.leaf,
                value,
            };
            if let (Some(cache), ReqKind::Load) = (cfg.cluster_cache, req.kind) {
                let group = (req.leaf * cache.groups / cfg.n_leaves).min(cache.groups - 1);
                if let Some((_, v)) =
                    self.lines[group][req.addr % cache.lines].filter(|&(a, _)| a == req.addr)
                {
                    self.hits += 1;
                    self.loads += 1;
                    self.flying.push((now + cache.hit_latency, resp(Some(v))));
                    accepted.push(req.id);
                    continue;
                }
            }
            let word = req.addr % self.words.len();
            let bank = word % cfg.banks;
            if self.bank_free_at[bank] > now {
                self.bank_conflicts += 1;
                continue;
            }
            let subtree = |l: usize| req.leaf / 4usize.pow(l as u32);
            let full = (0..=self.levels as usize).any(|l| {
                let size = 4usize.pow(l as u32).min(cfg.n_leaves);
                sent[l][subtree(l)] >= cfg.bandwidth.capacity(size)
            });
            if full {
                continue;
            }
            for (l, level) in sent.iter_mut().enumerate() {
                level[subtree(l)] += 1;
            }
            self.bank_free_at[bank] = now + cfg.bank_occupancy;
            let value = match req.kind {
                ReqKind::Store(v) => {
                    self.words[word] = v;
                    for group in &mut self.lines {
                        let line = &mut group[req.addr % cfg.cluster_cache.unwrap().lines];
                        if line.is_some_and(|(a, _)| a == req.addr) {
                            *line = Some((req.addr, v));
                        }
                    }
                    self.stores += 1;
                    None
                }
                ReqKind::Load => {
                    let v = self.words[word];
                    if let Some(cache) = cfg.cluster_cache {
                        let group = (req.leaf * cache.groups / cfg.n_leaves).min(cache.groups - 1);
                        self.lines[group][req.addr % cache.lines] = Some((req.addr, v));
                    }
                    self.loads += 1;
                    Some(v)
                }
            };
            self.flying.push((now + latency, resp(value)));
            accepted.push(req.id);
        }
        let due = self
            .flying
            .iter()
            .filter(|f| f.0 <= now)
            .map(|f| f.1)
            .collect();
        self.flying.retain(|f| f.0 > now);
        (accepted, due)
    }
}

/// The configurations: ideal memory, √n bandwidth at powers of two,
/// and sizes off them (banks, words, leaves, cache lines and groups).
fn configs() -> Vec<(&'static str, MemConfig)> {
    let odd_cache = CacheConfig {
        groups: 3,
        lines: 48,
        hit_latency: 1,
    };
    vec![
        ("ideal-16", MemConfig::ideal(16, 256)),
        ("sqrt-64", MemConfig::realistic(64, 4096)),
        (
            "sqrt-16-cache",
            MemConfig::realistic(16, 1 << 12).with_cluster_cache(CacheConfig {
                hit_latency: 2,
                ..CacheConfig::small(4)
            }),
        ),
        (
            "odd-24-cache",
            MemConfig {
                banks: 12,
                bank_occupancy: 2,
                ..MemConfig::realistic(24, 1000).with_cluster_cache(odd_cache)
            },
        ),
        (
            "odd-20-const3",
            MemConfig {
                bandwidth: Bandwidth::constant(3.0),
                banks: 5,
                words: 97,
                ..MemConfig::realistic(20, 97)
            },
        ),
    ]
}

#[test]
fn tick_matches_the_reference_model() {
    let configs = configs();
    rand::cases(0x3E3_7131, 60, |rng, i| {
        let (name, cfg) = configs[i as usize % configs.len()].clone();
        assert_eq!(cfg.network, NetworkKind::FatTree);
        let image: Vec<u32> = (0..rng.gen_range(0..64)).map(|_| rng.gen()).collect();
        let mut sys = MemSystem::new(cfg.clone(), &image);
        let mut model = Model::new(cfg.clone(), &image);
        // A small address range, so banks and cache lines collide.
        let span = [cfg.words, 40, 200][i as usize % 3].min(cfg.words);
        let (mut pending, mut next_id, mut now) = (Vec::<MemRequest>::new(), 0, 0);
        let (mut accepted, mut done) = (Vec::new(), Vec::new());
        for _ in 0..400 {
            for _ in 0..rng.gen_range(0..=cfg.n_leaves / 3) {
                let leaf = rng.gen_range(0..cfg.n_leaves);
                if pending.iter().all(|r| r.leaf != leaf) {
                    let addr = rng.gen_range(0..span);
                    let kind = if rng.gen_bool(0.6) {
                        ReqKind::Load
                    } else {
                        ReqKind::Store(rng.gen())
                    };
                    pending.push(MemRequest {
                        id: next_id,
                        leaf,
                        addr,
                        kind,
                    });
                    next_id += 1;
                }
            }
            sys.tick_into(now, &pending, &mut accepted, &mut done);
            let (want_accepted, want_done) = model.tick(now, &pending);
            let got: Vec<u64> = accepted.iter().map(|r| r.id).collect();
            assert_eq!(got, want_accepted, "{name}: accepted at cycle {now}");
            assert_eq!(done, want_done, "{name}: responses at cycle {now}");
            pending.retain(|r| !got.contains(&r.id));
            // Quiet stretches: jump to the next due response, as cycle
            // skip does, or step one cycle.
            now = match sys.next_completion_at() {
                Some(due) if pending.is_empty() && rng.gen_bool(0.3) => due.max(now + 1),
                _ => now + 1,
            };
        }
        assert_eq!(&sys.image()[..], &model.words[..], "{name}: final image");
        let s = sys.stats();
        let want = (model.loads, model.stores, model.bank_conflicts, model.hits);
        assert_eq!(
            (s.loads, s.stores, s.bank_conflicts, s.cache_hits),
            want,
            "{name}: counters"
        );
    });
}

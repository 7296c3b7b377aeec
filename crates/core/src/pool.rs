//! A pool of warm [`Ultrascalar`] engines keyed by [`ProcConfig`].
//!
//! Serving mode amortises per-request setup the way the paper's CSPP
//! substrate amortises per-instruction cost across the window: the
//! expensive structures are built once and rewound in place. An engine
//! retains its fetch unit, memory system, window clusters and scan
//! buffers across runs (see [`crate::engine::Ultrascalar`]), so a pool
//! hit turns a request into a pure [`crate::Processor::run_reusing`] call —
//! zero allocations in steady state. Each pooled engine carries its own
//! [`RunResult`] buffer for the same reason.
//!
//! The pool is the serving state's one cache shape,
//! [`ultrascalar_isa::lru`], keyed by exact [`ProcConfig`] equality:
//! request streams alternate between a handful of configurations, so
//! a config compare over a few entries beats any hashing scheme, and
//! it allocates nothing.
//!
//! The access discipline is [`ShardedEnginePool::checkout`] /
//! [`ShardedEnginePool::checkin`]: *remove* a warm engine from the
//! pool, run it with no lock held, and return it afterwards. A shard
//! mutex is held only for the linear scan, never for a simulation, so
//! worker threads contend for nanoseconds, not for run times. Two
//! workers simulating the same configuration simply hold two engines;
//! both go back at check-in (evicting LRU entries past capacity).

use crate::config::ProcConfig;
use crate::engine::Ultrascalar;
use crate::processor::RunResult;
use ultrascalar_isa::{LruStats, Shards};

/// A warm engine with its reusable result buffer.
#[derive(Debug)]
pub struct PooledEngine {
    /// The engine (configuration fixed at pool admission).
    pub engine: Ultrascalar,
    /// Result buffer for [`crate::Processor::run_reusing`]; overwritten
    /// by each run, so read it before the next run. It records no
    /// timings unless its `timings` is set to `Some`.
    pub result: RunResult,
}

impl PooledEngine {
    /// Build a cold engine for `cfg` (the checkout-miss path).
    fn new(cfg: &ProcConfig) -> Self {
        PooledEngine {
            engine: Ultrascalar::new(cfg.clone()),
            result: RunResult::default(),
        }
    }
}

/// A stable shard-selection hash over the configuration fields that
/// distinguish engines in practice. Collisions are harmless (two
/// configs land in the same shard and the exact `ProcConfig` equality
/// scan still separates them); what matters is that *equal* configs
/// always hash equal, and that the hash allocates nothing.
fn config_shard_hash(cfg: &ProcConfig) -> u64 {
    #[inline]
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h = mix(h, cfg.window as u64);
    h = mix(h, cfg.cluster as u64);
    h = mix(h, cfg.mem.n_leaves as u64);
    h = mix(h, cfg.mem.banks as u64);
    h = mix(h, cfg.mem.hop_latency);
    h = mix(h, cfg.mem.network as u64);
    h = mix(h, cfg.mem.cluster_cache.is_some() as u64);
    h = mix(h, cfg.alus.map_or(0, |k| (k as u64).wrapping_add(1)));
    h = mix(h, cfg.memory_renaming as u64);
    h = mix(h, cfg.fetch_width.map_or(0, |f| (f as u64).wrapping_add(1)));
    // Two removed boolean knobs used to be mixed in here; mixing their
    // constant `false` keeps every shard placement unchanged.
    h = mix(mix(h, 0), 0);
    // Mix the variant discriminant in multiplicatively instead of the
    // old `per_hop + 1`, which overflowed (a debug-build panic) on
    // `per_hop == u64::MAX`. Forcing the low bit keeps every pipelined
    // model distinct from `SingleCycle`'s 0 even when the wrapping
    // multiply lands on it.
    h = mix(
        h,
        match cfg.forward {
            crate::config::ForwardModel::SingleCycle => 0,
            crate::config::ForwardModel::Pipelined { per_hop } => {
                per_hop.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
            }
        },
    );
    h = mix(
        h,
        match cfg.predictor {
            crate::predict::PredictorKind::Perfect => 1,
            crate::predict::PredictorKind::NotTaken => 2,
            crate::predict::PredictorKind::Taken => 3,
            crate::predict::PredictorKind::Btfn => 4,
            crate::predict::PredictorKind::Bimodal(k) => (k as u64).wrapping_add(8),
        },
    );
    h
}

/// LRU shards of warm engines, each behind its own mutex and selected
/// by a stable hash of the configuration — the concurrent serving
/// loop's shared engine pool.
///
/// The access discipline is checkout/checkin: a checkout *removes* the
/// warm engine (or builds one on a miss, outside any lock), the worker
/// simulates with no lock held, and checkin returns the engine to its
/// shard. Shard mutexes are therefore held only for the linear scans.
#[derive(Debug)]
pub struct ShardedEnginePool {
    shards: Shards<PooledEngine>,
}

impl ShardedEnginePool {
    /// Create a pool with `shards` shards holding at most
    /// `total_capacity` warm engines between them (each shard gets
    /// `ceil(total/shards)`).
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(total_capacity: usize, shards: usize) -> Self {
        ShardedEnginePool {
            shards: Shards::new(total_capacity, shards),
        }
    }

    /// Check out a warm engine for `cfg`, building a cold one (outside
    /// the shard lock) on a miss. The engine is *owned* by the caller
    /// until [`ShardedEnginePool::checkin`]; a hit performs no
    /// allocation.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid (as [`Ultrascalar::new`] would).
    pub fn checkout(&self, cfg: &ProcConfig) -> PooledEngine {
        let warm = self
            .shards
            .lock(config_shard_hash(cfg))
            .take(|p| p.engine.config() == cfg);
        warm.unwrap_or_else(|| PooledEngine::new(cfg))
    }

    /// Return a checked-out engine to its shard (evicting that shard's
    /// LRU entry if it is at capacity). This performs no allocation.
    pub fn checkin(&self, engine: PooledEngine) {
        let hash = config_shard_hash(engine.engine.config());
        self.shards.lock(hash).put(engine);
    }

    /// Counters summed across all shards: a hit is a checkout served
    /// by a warm engine, a miss one that built an engine, and
    /// `entries` counts pooled engines (checked-out engines are not
    /// counted until they come back).
    pub fn stats(&self) -> LruStats {
        self.shards.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Processor;
    use ultrascalar_isa::{workload, Program};

    /// Run `prog` on a checked-out engine into its result buffer.
    fn run<'a>(e: &'a mut PooledEngine, prog: &Program) -> &'a RunResult {
        e.engine.run_reusing(prog, &mut e.result);
        &e.result
    }

    /// Check out and straight back in: one warm-or-cold visit.
    fn visit(pool: &ShardedEnginePool, cfg: &ProcConfig) {
        pool.checkin(pool.checkout(cfg));
    }

    fn counts(pool: &ShardedEnginePool) -> (u64, u64, usize) {
        let s = pool.stats();
        (s.hits, s.misses, s.entries)
    }

    #[test]
    fn hit_reuses_miss_builds() {
        let pool = ShardedEnginePool::new(2, 1);
        let a = ProcConfig::ultrascalar_i(4);
        let b = ProcConfig::ultrascalar_ii(4);
        visit(&pool, &a);
        assert_eq!(counts(&pool), (0, 1, 1));
        visit(&pool, &a);
        assert_eq!(counts(&pool), (1, 1, 1));
        visit(&pool, &b);
        assert_eq!(counts(&pool), (1, 2, 2));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let pool = ShardedEnginePool::new(2, 1);
        let a = ProcConfig::ultrascalar_i(4);
        let b = ProcConfig::ultrascalar_i(8);
        let c = ProcConfig::ultrascalar_i(16);
        visit(&pool, &a);
        visit(&pool, &b);
        visit(&pool, &a); // refresh a: b is now LRU
        visit(&pool, &c); // evicts b
        assert_eq!(pool.stats().entries, 2);
        assert_eq!(pool.stats().evictions, 1);
        let before = pool.stats().misses;
        visit(&pool, &a);
        assert_eq!(pool.stats().misses, before, "a must still be warm");
        visit(&pool, &b);
        assert_eq!(pool.stats().misses, before + 1, "b was evicted");
    }

    #[test]
    fn pooled_run_matches_fresh_engine() {
        let pool = ShardedEnginePool::new(1, 1);
        let cfg = ProcConfig::ultrascalar_i(8);
        for (name, prog) in workload::standard_suite(3) {
            let fresh = Ultrascalar::new(cfg.clone()).run(&prog);
            let mut e = pool.checkout(&cfg);
            let warm = run(&mut e, &prog);
            assert_eq!(warm.cycles, fresh.cycles, "{name}");
            assert_eq!(warm.regs, fresh.regs, "{name}");
            pool.checkin(e);
        }
    }

    #[test]
    fn shard_hash_stable_and_separates() {
        let a = ProcConfig::ultrascalar_i(8);
        assert_eq!(
            config_shard_hash(&a),
            config_shard_hash(&a.clone()),
            "equal configs hash equal"
        );
        let b = ProcConfig::ultrascalar_ii(8);
        assert_ne!(config_shard_hash(&a), config_shard_hash(&b));
        assert_ne!(
            config_shard_hash(&a),
            config_shard_hash(&ProcConfig::ultrascalar_i(16))
        );
    }

    /// The hash values are pinned across config-field removals. Only
    /// placement across several shards depends on them; serve and
    /// usbench build one shard, so no response, stats line or digest
    /// does.
    #[test]
    fn shard_hash_values_are_pinned() {
        use crate::config::ForwardModel;
        use crate::predict::PredictorKind;
        let cases = [
            (ProcConfig::ultrascalar_i(16), 0x74e8_5fdf_f7f8_091d),
            (
                ProcConfig::hybrid(64, 16)
                    .with_predictor(PredictorKind::Bimodal(256))
                    .with_memory_renaming()
                    .with_shared_alus(4),
                0xcaae_7797_4aa6_1df7,
            ),
            (
                ProcConfig::ultrascalar_ii(8)
                    .with_forwarding(ForwardModel::Pipelined { per_hop: 3 })
                    .with_fetch_width(2),
                0xf064_2d98_50b9_21b0,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(config_shard_hash(&cfg), want, "{cfg:?}");
        }
    }

    /// Regression: the forwarding-model mix used `per_hop + 1`, which
    /// panicked in debug builds when a client sent `per_hop ==
    /// u64::MAX`. The wrapping mix must accept the full range, stay
    /// stable for equal configs, and keep pipelined models apart from
    /// the single-cycle baseline.
    #[test]
    fn shard_hash_handles_extreme_per_hop() {
        use crate::config::ForwardModel;
        let base = ProcConfig::ultrascalar_i(8);
        for per_hop in [0u64, 1, 7, u64::MAX - 1, u64::MAX] {
            let cfg = base
                .clone()
                .with_forwarding(ForwardModel::Pipelined { per_hop });
            let h = config_shard_hash(&cfg);
            assert_eq!(h, config_shard_hash(&cfg.clone()), "stable at {per_hop}");
            assert_ne!(
                h,
                config_shard_hash(&base),
                "pipelined {per_hop} must not collide with single-cycle"
            );
        }
        // A sharded checkout at the extreme value must not panic.
        let pool = ShardedEnginePool::new(2, 2);
        let cfg = base.with_forwarding(ForwardModel::Pipelined { per_hop: u64::MAX });
        let e = pool.checkout(&cfg);
        pool.checkin(e);
        assert_eq!(pool.stats().entries, 1);
    }

    /// Regression: the `alus`, `fetch_width` and bimodal-size mixes
    /// added a constant without wrapping, so a debug build panicked on
    /// `usize::MAX`. Each must hash without panicking, stably. (`alus`
    /// and `fetch_width` at `usize::MAX` wrap onto `None`'s 0, a
    /// collision the exact config scan resolves.)
    #[test]
    fn shard_hash_handles_extreme_counts() {
        use crate::predict::PredictorKind;
        let base = ProcConfig::ultrascalar_i(8);
        for cfg in [
            base.clone().with_shared_alus(usize::MAX),
            base.clone().with_fetch_width(usize::MAX),
            base.with_predictor(PredictorKind::Bimodal(usize::MAX)),
        ] {
            assert_eq!(
                config_shard_hash(&cfg),
                config_shard_hash(&cfg.clone()),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn sharded_checkout_checkin() {
        let pool = ShardedEnginePool::new(4, 2);
        let cfg = ProcConfig::ultrascalar_i(8);
        let mut e = pool.checkout(&cfg);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().entries, 0, "checked-out engine is owned");
        let prog = ultrascalar_isa::assemble("li r1, 5\nhalt\n", 32).unwrap();
        assert_eq!(run(&mut e, &prog).regs[1], 5);
        pool.checkin(e);
        assert_eq!(pool.stats().entries, 1);
        let _e2 = pool.checkout(&cfg);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 0));
    }

    #[test]
    fn sharded_pool_concurrent_contention_counts_evictions() {
        let pool = std::sync::Arc::new(ShardedEnginePool::new(2, 2));
        let configs: Vec<ProcConfig> = (0..4).map(|i| ProcConfig::ultrascalar_i(4 << i)).collect();
        let prog = std::sync::Arc::new(ultrascalar_isa::assemble("li r1, 9\nhalt\n", 32).unwrap());
        let mut handles = Vec::new();
        for t in 0..4usize {
            let pool = std::sync::Arc::clone(&pool);
            let configs = configs.clone();
            let prog = std::sync::Arc::clone(&prog);
            handles.push(std::thread::spawn(move || {
                for i in 0..16 {
                    let cfg = &configs[(t + i) % configs.len()];
                    let mut e = pool.checkout(cfg);
                    assert_eq!(run(&mut e, &prog).regs[1], 9);
                    pool.checkin(e);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 4 * 16);
        assert!(
            s.entries <= 2,
            "per-shard capacity respected: {}",
            s.entries
        );
        assert!(
            s.evictions > 0,
            "4 configs over capacity 2 must evict under contention"
        );
    }
}

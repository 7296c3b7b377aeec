//! Regression pin for engine reuse: an [`Ultrascalar`] that is rewound
//! in place between runs ([`Processor::run_reusing`]) must be
//! cycle-exact against a freshly constructed engine — same cycles,
//! same registers, same memory image, same statistics, same per-
//! instruction timings. Warmth is an allocation optimisation, never an
//! observable one.

use ultrascalar::{
    EnginePool, ForwardModel, PredictorKind, ProcConfig, Processor, RunResult, Ultrascalar,
};
use ultrascalar_isa::workload;
use ultrascalar_memsys::{Bandwidth, CacheConfig, MemConfig, NetworkKind};

/// The configuration corners the serving mode is expected to cycle
/// through: every reset path in the engine (fetch rewind, predictor
/// rewind, trace-cache flush, memory-system rewind, station ring and
/// rename table, shared-ALU pool, pipelined forwarding) is on at least
/// one of them.
fn configs() -> Vec<(&'static str, ProcConfig)> {
    let realistic_mem = MemConfig {
        n_leaves: 16,
        bandwidth: Bandwidth::sqrt(),
        banks: 8,
        bank_occupancy: 1,
        hop_latency: 1,
        base_latency: 0,
        words: 1 << 12,
        network: NetworkKind::FatTree,
        cluster_cache: None,
    };
    vec![
        (
            "usi-bimodal",
            ProcConfig::ultrascalar_i(8).with_predictor(PredictorKind::Bimodal(64)),
        ),
        ("usii-perfect", ProcConfig::ultrascalar_ii(8)),
        (
            "hybrid-renaming-btfn",
            ProcConfig::hybrid(16, 4)
                .with_predictor(PredictorKind::Btfn)
                .with_memory_renaming()
                .with_mem(realistic_mem.clone()),
        ),
        (
            "usi-shared-alus-trace-cache",
            ProcConfig::ultrascalar_i(8)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_shared_alus(2)
                .with_trace_cache(4, 3),
        ),
        (
            "hybrid-cluster-cache-butterfly",
            ProcConfig::hybrid(16, 4)
                .with_predictor(PredictorKind::Bimodal(64))
                .with_mem(
                    realistic_mem
                        .with_network(NetworkKind::Butterfly)
                        .with_cluster_cache(CacheConfig::small(4)),
                ),
        ),
        (
            "usi-pipelined",
            ProcConfig::ultrascalar_i(8).with_forwarding(ForwardModel::Pipelined { per_hop: 1 }),
        ),
    ]
}

fn assert_same(ctx: &str, warm: &RunResult, fresh: &RunResult) {
    assert_eq!(warm.halted, fresh.halted, "{ctx}: halted");
    assert_eq!(warm.cycles, fresh.cycles, "{ctx}: cycles");
    assert_eq!(warm.regs, fresh.regs, "{ctx}: registers");
    assert_eq!(warm.mem, fresh.mem, "{ctx}: memory image");
    assert_eq!(warm.stats, fresh.stats, "{ctx}: statistics");
    assert_eq!(
        warm.recorded_timings(),
        fresh.recorded_timings(),
        "{ctx}: timings"
    );
}

/// Alternating between two programs exercises the change-program reset
/// path (fetch rebuild, memory reload, stale-window recycling) rather
/// than the same-program rewind.
#[test]
fn alternating_programs_reset_cleanly() {
    let suite = workload::standard_suite(4);
    let (aname, a) = &suite[0];
    let (bname, b) = &suite[suite.len() - 1];
    let cfg = ProcConfig::hybrid(16, 4).with_predictor(PredictorKind::Bimodal(64));
    let mut warm = Ultrascalar::new(cfg.clone());
    let mut out = RunResult::recording_timings();
    for round in 0..3 {
        for (name, prog) in [(aname, a), (bname, b)] {
            warm.run_reusing(prog, &mut out);
            let fresh = Ultrascalar::new(cfg.clone()).run_timed(prog);
            assert_same(&format!("alt/{name}/round{round}"), &out, &fresh);
        }
    }
}

/// A cold reset releases retained state without changing behaviour.
#[test]
fn explicit_reset_keeps_results_exact() {
    let suite = workload::standard_suite(3);
    let cfg = ProcConfig::ultrascalar_i(8).with_predictor(PredictorKind::Bimodal(64));
    let mut engine = Ultrascalar::new(cfg.clone());
    let mut out = RunResult::recording_timings();
    let (name, prog) = &suite[0];
    engine.run_reusing(prog, &mut out);
    let first = out.clone();
    engine.reset();
    engine.run_reusing(prog, &mut out);
    assert_same(&format!("post-reset/{name}"), &out, &first);
}

/// The pool's warm path composes the same guarantees: acquire-and-run
/// matches a fresh engine for every kernel even as configs alternate
/// and evict.
#[test]
fn pooled_engines_stay_exact_under_eviction() {
    let suite = workload::standard_suite(6);
    let all = configs();
    // Capacity below the config count forces evictions and rebuilds.
    let mut pool = EnginePool::new(2);
    for (cname, cfg) in all.iter().chain(all.iter()) {
        for (kname, prog) in suite.iter().take(3) {
            let pooled = pool.acquire(cfg);
            pooled.result.timings.get_or_insert_with(Vec::new);
            let warm = pooled.run(prog).clone();
            let fresh = Ultrascalar::new(cfg.clone()).run_timed(prog);
            assert_same(&format!("pool/{cname}/{kname}"), &warm, &fresh);
        }
    }
    assert!(pool.stats().misses > all.len() as u64, "evictions occurred");
}

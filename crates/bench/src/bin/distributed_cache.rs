//! Distributed-cache study (§7): "One way to reduce the bandwidth
//! requirements may be to use a cache distributed among the clusters.
//! … it is conceivable that a processor could require substantially
//! reduced memory bandwidth, resulting in dramatically reduced chip
//! complexity." Run the suite with per-cluster caches on a tight
//! fat tree and report network traffic, hit rates and the implied
//! Figure 11 area savings.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin distributed_cache
//! ```

use ultrascalar::{PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_bench::Table;
use ultrascalar_isa::workload;
use ultrascalar_memsys::{Bandwidth, CacheConfig, MemConfig, NetworkKind};
use ultrascalar_vlsi::metrics::ArchParams;
use ultrascalar_vlsi::{usi, Tech};

fn main() {
    let n = 16;
    let clusters = 4;
    let base = MemConfig {
        n_leaves: n,
        bandwidth: Bandwidth::constant(2.0),
        banks: 8,
        bank_occupancy: 1,
        hop_latency: 1,
        base_latency: 0,
        words: 1 << 12,
        network: NetworkKind::FatTree,
        cluster_cache: None,
    };
    let cached = base
        .clone()
        .with_cluster_cache(CacheConfig::small(clusters));

    println!(
        "§7 distributed cluster caches — hybrid n = {n}, {clusters} clusters,\n\
         M(n) = 2 network ports, 64-word direct-mapped cache per cluster\n"
    );
    let mut t = Table::new(vec![
        "kernel",
        "cycles (no cache)",
        "cycles (cached)",
        "network loads (no cache)",
        "network loads (cached)",
        "hit rate",
    ]);
    let mut total_saved = 0i64;
    let pred = PredictorKind::Bimodal(64);
    let mut plain_cpu = Ultrascalar::new(
        ProcConfig::hybrid(n, n / clusters)
            .with_predictor(pred)
            .with_mem(base),
    );
    let mut cached_cpu = Ultrascalar::new(
        ProcConfig::hybrid(n, n / clusters)
            .with_predictor(pred)
            .with_mem(cached),
    );
    for (name, prog) in workload::standard_suite(61) {
        let (plain, with_cache) = (plain_cpu.run(&prog), cached_cpu.run(&prog));
        assert_eq!(plain.regs, with_cache.regs, "{name}");
        assert_eq!(plain.mem, with_cache.mem, "{name}");
        let plain_net_loads = plain.stats.mem.loads;
        let cached_net_loads = with_cache.stats.mem.cache_misses;
        total_saved += plain_net_loads as i64 - cached_net_loads as i64;
        let hits = with_cache.stats.mem.cache_hits;
        let total = hits + with_cache.stats.mem.cache_misses;
        t.row(vec![
            name.to_string(),
            format!("{}", plain.cycles),
            format!("{}", with_cache.cycles),
            format!("{plain_net_loads}"),
            format!("{cached_net_loads}"),
            format!(
                "{:.0}%",
                if total == 0 {
                    0.0
                } else {
                    100.0 * hits as f64 / total as f64
                }
            ),
        ]);
    }
    println!("{t}");
    println!("{total_saved} load round-trips removed from the fat tree.\n");

    // The Figure 11 implication: if caching lets M(n) drop a regime,
    // the chip shrinks.
    let tech = Tech::cmos_035();
    let big_m = usi::metrics(
        &ArchParams {
            n: 1 << 12,
            l: 32,
            bits: 32,
            mem: Bandwidth::full(),
        },
        &tech,
    );
    let small_m = usi::metrics(
        &ArchParams {
            n: 1 << 12,
            l: 32,
            bits: 32,
            mem: Bandwidth::sublinear_sqrt(0.25),
        },
        &tech,
    );
    println!(
        "Figure 11 implication at n = 4096: dropping M(n) from Θ(n) to\n\
         O(n^0.25) shrinks the Ultrascalar I from {:.0} mm² to {:.0} mm²\n\
         ({:.1}× area) — \"dramatically reduced chip complexity\".",
        big_m.area_mm2(),
        small_m.area_mm2(),
        big_m.area_mm2() / small_m.area_mm2()
    );
}

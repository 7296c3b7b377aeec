//! Interconnect comparison (§2): "we propose to connect the
//! Ultrascalar I datapath to an interleaved data cache … via two
//! fat-tree or butterfly networks." Drive both topologies with the
//! same workloads and offered-load microbenchmarks.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin networks
//! ```

use ultrascalar::{PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_bench::Table;
use ultrascalar_isa::workload;
use ultrascalar_memsys::{Bandwidth, MemConfig, MemRequest, MemSystem, NetworkKind, ReqKind};

/// Cycles to drain a burst of requests through `m` (rewound first).
///
/// Every network admits at least one request per cycle once older
/// traffic clears, so a burst that outlives the cap means the model
/// stopped accepting — panic with the evidence rather than spinning
/// forever.
fn drain(m: &mut MemSystem, reqs: &[MemRequest]) -> u64 {
    m.reset(&[]);
    let mut pending: Vec<MemRequest> = reqs.to_vec();
    let cap = 1_000 + 100 * reqs.len() as u64;
    let (mut accepted, mut done) = (Vec::new(), Vec::new());
    let mut t = 0u64;
    while !pending.is_empty() {
        assert!(
            t < cap,
            "network failed to drain: {} of {} requests still pending after {t} cycles \
             (first stuck id {})",
            pending.len(),
            reqs.len(),
            pending[0].id
        );
        m.tick_into(t, &pending, &mut accepted, &mut done);
        pending.retain(|r| !accepted.contains(&r.id));
        t += 1;
    }
    t
}

fn main() {
    let n = 64;
    println!("fat tree vs butterfly — {n} stations, M(n) = √n = 8 ports\n");

    let base = MemConfig {
        n_leaves: n,
        bandwidth: Bandwidth::sqrt(),
        banks: 64,
        bank_occupancy: 1,
        hop_latency: 0,
        base_latency: 0,
        words: 1 << 12,
        network: NetworkKind::FatTree,
        cluster_cache: None,
    };

    // Offered-load microbenchmark: cycles to drain a burst of requests
    // under traffic patterns that stress each topology's weakness.
    let mk = |pairs: Vec<(usize, usize)>| -> Vec<MemRequest> {
        pairs
            .into_iter()
            .enumerate()
            .map(|(id, (leaf, addr))| MemRequest {
                id: id as u64,
                leaf,
                addr,
                kind: ReqKind::Load,
            })
            .collect()
    };
    let bitrev6 = |x: usize| (0..6).fold(0usize, |acc, b| acc | ((x >> b & 1) << (5 - b)));
    let patterns: Vec<(&str, Vec<MemRequest>)> = vec![
        (
            "uniform stride-1 (all leaves)",
            mk((0..n).map(|i| (i, i)).collect()),
        ),
        (
            "single hot address (all leaves)",
            mk((0..n).map(|i| (i, 5)).collect()),
        ),
        (
            // Fat-tree weakness: a burst from one 16-leaf subtree is
            // capped by that subtree's M(16) = 4 links; the butterfly
            // has no subtree cap.
            "burst from one quadrant (16 reqs)",
            mk((0..16).map(|i| (i, i * 5)).collect()),
        ),
        (
            // Butterfly weakness: the bit-reversal permutation forces
            // path conflicts; the fat tree only sees its port limit.
            "bit-reversal permutation (all leaves)",
            mk((0..n).map(|i| (i, bitrev6(i))).collect()),
        ),
    ];
    let mut t = Table::new(vec!["traffic", "fat tree (cycles)", "butterfly (cycles)"]);
    // One memory system per topology, rewound per traffic pattern.
    let mut tree = MemSystem::new(base.clone(), &[]);
    let mut fly = MemSystem::new(base.clone().with_network(NetworkKind::Butterfly), &[]);
    for (name, reqs) in &patterns {
        t.row(vec![
            name.to_string(),
            format!("{}", drain(&mut tree, reqs)),
            format!("{}", drain(&mut fly, reqs)),
        ]);
    }
    println!("{t}");

    // Whole-processor effect.
    println!("kernel suite through an n = 16 Ultrascalar I (√n bandwidth):");
    let mut t = Table::new(vec!["kernel", "fat tree", "butterfly"]);
    let mem16 = MemConfig {
        n_leaves: 16,
        banks: 8,
        ..base.clone()
    };
    let pred = PredictorKind::Bimodal(64);
    let mut tree_cpu = Ultrascalar::new(
        ProcConfig::ultrascalar_i(16)
            .with_predictor(pred)
            .with_mem(mem16.clone()),
    );
    let mut fly_cpu = Ultrascalar::new(
        ProcConfig::ultrascalar_i(16)
            .with_predictor(pred)
            .with_mem(mem16.with_network(NetworkKind::Butterfly)),
    );
    for (name, prog) in workload::standard_suite(29) {
        let (tree, fly) = (tree_cpu.run(&prog), fly_cpu.run(&prog));
        assert_eq!(tree.regs, fly.regs, "{name}");
        t.row(vec![
            name.to_string(),
            format!("{}", tree.cycles),
            format!("{}", fly.cycles),
        ]);
    }
    println!("{t}");
    println!(
        "both topologies are architecturally transparent; they differ only\n\
         in how contention shapes the schedule — the fat tree guarantees\n\
         per-subtree bandwidth, the butterfly wins on conflict-free\n\
         permutations and loses on adversarial ones."
    );
}

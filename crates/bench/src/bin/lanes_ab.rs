//! Lanes-vs-serial throughput: the lane-parallel batch engine against
//! serial warm-engine runs, over batch sizes {1, 8, 16, 32, 64}.
//!
//! Each cell times the same population of programs — one seeded kernel
//! vectorized over `b` lanes with per-lane initial registers — both
//! ways: `b` serial `run_reusing` passes on a warm scalar engine, and
//! one `LaneBatchEngine::run_batch` (leader engine pass + lane-major
//! lock-step for the rest). Both sides are measured in interleaved
//! rounds with the order rotated per round, per-round ratios, median
//! over rounds, which cancels host drift.
//!
//! The grid crosses clean kernels with the branchy pair
//! (`branch_gauntlet`, `spec_storm`) and a bimodal-predictor arch row:
//! those cells exercise epoch-segmented schedule sharing (the leader's
//! mispredicts split the run into epochs the lock-step pass replays
//! across), so the table reports per-run epochs, divergence peels, and
//! replay peels next to each speedup. A final config-major section
//! runs every (arch, kernel) population through the sweep harness's
//! [`LanePool`] — the grouping the grid binaries use.
//!
//! Usage: `lanes_ab [--json] [--quick]`. `--json` writes
//! `BENCH_lanes.json` with per-cell throughput points and
//! `speedup/...` summary rows; `--quick` trims rounds and kernel sizes
//! for CI smoke runs.

use std::time::Instant;
use ultrascalar::{LaneBatchEngine, PredictorKind, ProcConfig, Processor, RunResult, Ultrascalar};
use ultrascalar_bench::kernels::{
    branch_gauntlet_seeded, div_chain_seeded, forward_fan_seeded, spec_storm_seeded,
    wide_div_chain_seeded,
};
use ultrascalar_bench::sweep::{geomean, json_flag_set, parallel_map_with, LanePool};
use ultrascalar_bench::{JsonReport, Table};
use ultrascalar_isa::{workload, Program};

/// Median of a small unsorted sample (averages the middle pair when
/// the length is even).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let rounds = if quick { 3 } else { 7 };
    let iters = if quick { 16 } else { 48 };
    let batch_sizes: &[usize] = &[1, 8, 16, 32, 64];

    println!("== lane-parallel batch vs serial engine runs ==\n");
    println!("{rounds} interleaved rounds per cell; per-round ratio, median over rounds.\n");

    let kernels: Vec<(&str, Program)> = vec![
        ("div_chain", div_chain_seeded(iters)),
        ("wide_div_chain_r128", wide_div_chain_seeded(iters)),
        ("forward_fan", forward_fan_seeded(iters)),
        ("branch_gauntlet", branch_gauntlet_seeded(iters)),
        ("spec_storm", spec_storm_seeded(iters)),
    ];
    let branchy = ["branch_gauntlet", "spec_storm"];
    // The pipelined row exercises lane batching under distance-dependent
    // forwarding; the bimodal row is the epoch-segmented
    // regime — the leader mispredicts, the batch replays across each
    // flush boundary, and `spec_storm`'s seeded wrong-path probe peels
    // a few lanes mid-replay.
    let archs: Vec<(&str, ProcConfig)> = vec![
        ("usi", ProcConfig::ultrascalar_i(64)),
        ("usii", ProcConfig::ultrascalar_ii(64)),
        (
            "usi_pipelined",
            ProcConfig::ultrascalar_i(64)
                .with_forwarding(ultrascalar::ForwardModel::Pipelined { per_hop: 1 }),
        ),
        (
            "usi_bimodal",
            ProcConfig::ultrascalar_i(64).with_predictor(PredictorKind::Bimodal(64)),
        ),
    ];

    let mut t = Table::new(vec![
        "arch",
        "kernel",
        "batch",
        "serial ms",
        "lanes ms",
        "speedup",
        "epochs",
        "peels",
        "rpeels",
    ]);
    let mut report = JsonReport::new("lanes_ab");
    let mut speedups_at_full: Vec<f64> = Vec::new();
    let mut branchy_bimodal_at_full: Vec<f64> = Vec::new();

    for (arch, cfg) in &archs {
        for (kernel, prog) in &kernels {
            for &b in batch_sizes {
                let programs = workload::lane_variants(prog, b, 0x1A17E5);
                let refs: Vec<&Program> = programs.iter().collect();

                // Warm both sides outside the measurement.
                let mut serial_engine = Ultrascalar::new(cfg.clone());
                let mut serial_out = RunResult::default();
                let mut lane_engine = LaneBatchEngine::new(cfg.clone());
                let mut lane_out = vec![RunResult::default(); b];
                for p in &refs {
                    serial_engine.run_reusing(p, &mut serial_out);
                }
                lane_engine.run_batch(&refs, &mut lane_out);
                let steps = b as u64 * serial_out.stats.committed;
                let warm = *lane_engine.lane_stats();

                let mut ts: Vec<f64> = Vec::with_capacity(rounds);
                let mut tl: Vec<f64> = Vec::with_capacity(rounds);
                let mut ratio: Vec<f64> = Vec::with_capacity(rounds);
                for round in 0..rounds {
                    let mut s = 0.0;
                    let mut l = 0.0;
                    for which in if round % 2 == 0 { [0, 1] } else { [1, 0] } {
                        if which == 0 {
                            let start = Instant::now();
                            for p in &refs {
                                serial_engine.run_reusing(p, &mut serial_out);
                            }
                            s = start.elapsed().as_secs_f64();
                        } else {
                            let start = Instant::now();
                            lane_engine.run_batch(&refs, &mut lane_out);
                            l = start.elapsed().as_secs_f64();
                        }
                    }
                    ts.push(s);
                    tl.push(l);
                    ratio.push(s / l);
                }
                let (ms, ml) = (median(&mut ts), median(&mut tl));
                let mr = median(&mut ratio);
                // Per-run counters: the timed rounds repeat one
                // deterministic batch, so the post-warmup delta divides
                // evenly across rounds.
                let stats = lane_engine.lane_stats().delta_since(&warm);
                let per = |c: u64| c / rounds as u64;
                if b >= 2 && stats.batches == 0 {
                    eprintln!(
                        "warning: {arch}/{kernel}/b={b} never lane-batched \
                         (fallbacks {})",
                        stats.fallbacks
                    );
                }
                if b == 64 {
                    speedups_at_full.push(mr);
                    if *arch == "usi_bimodal" && branchy.contains(kernel) {
                        branchy_bimodal_at_full.push(mr);
                    }
                }
                t.row(vec![
                    arch.to_string(),
                    kernel.to_string(),
                    b.to_string(),
                    format!("{:.3}", ms * 1e3),
                    format!("{:.3}", ml * 1e3),
                    format!("{mr:.3}x"),
                    per(stats.epochs).to_string(),
                    per(stats.peels).to_string(),
                    per(stats.replay_peels).to_string(),
                ]);
                report.point_with_lanes(
                    &format!("serial/{arch}/{kernel}/b={b}"),
                    std::time::Duration::from_secs_f64(ms),
                    Some(steps),
                    1,
                );
                report.point_with_lanes(
                    &format!("lanes/{arch}/{kernel}/b={b}"),
                    std::time::Duration::from_secs_f64(ml),
                    Some(steps),
                    b as u64,
                );
                report.summary(&format!("speedup/{arch}/{kernel}/b={b}"), mr);
                if b == 64 {
                    report.summary(
                        &format!("epochs/{arch}/{kernel}/b={b}"),
                        per(stats.epochs) as f64,
                    );
                    report.summary(
                        &format!("replay_peels/{arch}/{kernel}/b={b}"),
                        per(stats.replay_peels) as f64,
                    );
                }
            }
        }
    }

    println!("{t}");
    let geo = geomean(&speedups_at_full);
    println!("geometric-mean speedup at batch 64: {geo:.3}x");
    report.summary("geomean_speedup_b64", geo);
    let geo_bb = geomean(&branchy_bimodal_at_full);
    println!("geometric-mean speedup at batch 64, bimodal × branchy kernels: {geo_bb:.3}x");
    report.summary("geomean_speedup_b64_bimodal_branchy", geo_bb);

    // Config-major section: the same (arch, kernel) populations at
    // batch 64, but dispatched through the sweep harness — each worker
    // holds a `LanePool`, so every cell it claims reuses the warm
    // engine for that cell's config (how `ipc_ablation` and
    // `throughput` lane-batch their multi-seed populations).
    println!("\n== config-major populations through the sweep-harness lane pool ==\n");
    let cells: Vec<(usize, usize)> = (0..archs.len())
        .flat_map(|a| (0..kernels.len()).map(move |k| (a, k)))
        .collect();
    let pooled = parallel_map_with(&cells, LanePool::new, |pool, &(a, k)| {
        let b = 64usize;
        let programs = workload::lane_variants(&kernels[k].1, b, 0x1A17E5);
        let refs: Vec<&Program> = programs.iter().collect();
        let mut out = vec![RunResult::default(); b];
        pool.run_population(&archs[a].1, &refs, &mut out); // warm
        let before = pool.stats();
        let start = Instant::now();
        pool.run_population(&archs[a].1, &refs, &mut out);
        let wall = start.elapsed();
        let cycles: u64 = out.iter().map(|r| r.cycles).sum();
        (wall, cycles, pool.stats().delta_since(&before))
    });
    let mut pt = Table::new(vec![
        "arch", "kernel", "wall ms", "epochs", "lanes", "peels", "rpeels",
    ]);
    for (&(a, k), (wall, cycles, s)) in cells.iter().zip(&pooled) {
        report.point_with_lanes(
            &format!("sweep/{}/{}/b=64", archs[a].0, kernels[k].0),
            *wall,
            Some(*cycles),
            64,
        );
        pt.row(vec![
            archs[a].0.to_string(),
            kernels[k].0.to_string(),
            format!("{:.3}", wall.as_secs_f64() * 1e3),
            s.epochs.to_string(),
            s.lane_runs.to_string(),
            s.peels.to_string(),
            s.replay_peels.to_string(),
        ]);
    }
    println!("{pt}");

    if json_flag_set(&args) {
        report
            .write_to("BENCH_lanes.json")
            .expect("write BENCH_lanes.json");
    }
}

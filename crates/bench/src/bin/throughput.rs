//! End-to-end throughput synthesis: the paper compares the processors
//! by VLSI complexity because "the only differences between the
//! processors are in their VLSI complexities … which have implications
//! therefore on clock speeds." This experiment closes the loop: clock
//! period from the layout model (total delay = gate + repeatered-wire)
//! × IPC from the cycle-accurate simulator = sustained instructions
//! per second, per architecture and window size.
//!
//! Each (architecture, window) row is a geomean over the whole kernel
//! suite. Every kernel runs as a multi-seed *population* (the scored
//! program plus lane-variant seeds) through one [`LanePool`]: the row's
//! config groups its populations onto one warm lane-batch engine
//! (config-major grouping), and the scored IPC comes from population
//! member 0, which the lane engine guarantees byte-identical to a
//! serial run.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin throughput
//! ```

use ultrascalar::{PredictorKind, ProcConfig, RunResult};
use ultrascalar_bench::sweep::LanePool;
use ultrascalar_bench::Table;
use ultrascalar_isa::{workload, Program};
use ultrascalar_memsys::Bandwidth;
use ultrascalar_vlsi::metrics::ArchParams;
use ultrascalar_vlsi::{hybrid, usi, usii, Tech};

/// Seeds per kernel: the scored program plus 7 lane-variant seeds
/// riding the same schedule-shared batch.
const POP: usize = 8;

/// Geomean IPC over the kernel suite (member 0 of each population).
fn geomean_ipc(pool: &mut LanePool, cfg: &ProcConfig) -> f64 {
    let kernels = workload::standard_suite(2121);
    let mut s = 0.0;
    for (k, (_, prog)) in kernels.iter().enumerate() {
        let mut population = vec![prog.clone()];
        population.extend(workload::lane_variants(prog, POP - 1, 0x717 ^ k as u64));
        let refs: Vec<&Program> = population.iter().collect();
        let mut out = vec![RunResult::default(); POP];
        pool.run_population(cfg, &refs, &mut out);
        assert!(out[0].halted);
        s += out[0].ipc().ln();
    }
    (s / kernels.len() as f64).exp()
}

fn main() {
    let tech = Tech::cmos_035();
    let l = 32;
    println!("end-to-end throughput — clock from the 0.35 µm layout model ×");
    println!("geomean IPC over the kernel suite (L = {l}, M(n) = Θ(1), bimodal)\n");

    let rows: Vec<(String, usize, ultrascalar_vlsi::Metrics, ProcConfig)> = [16usize, 64, 256]
        .into_iter()
        .flat_map(|n| {
            let p = ArchParams {
                n,
                l,
                bits: 32,
                mem: Bandwidth::constant(1.0),
            };
            let pred = PredictorKind::Bimodal(256);
            let c = hybrid::nearest_feasible_cluster(n, l);
            vec![
                (
                    "Ultrascalar I".to_string(),
                    n,
                    usi::metrics(&p, &tech),
                    ProcConfig::ultrascalar_i(n).with_predictor(pred),
                ),
                (
                    "Ultrascalar II (linear)".to_string(),
                    n,
                    usii::metrics_linear(&p, &tech),
                    ProcConfig::ultrascalar_ii(n).with_predictor(pred),
                ),
                (
                    format!("Hybrid (C={c})"),
                    n,
                    hybrid::metrics(&p, &tech),
                    ProcConfig::hybrid(n, c).with_predictor(pred),
                ),
            ]
        })
        .collect();
    let mut pool = LanePool::new();

    let mut t = Table::new(vec![
        "architecture",
        "n",
        "clock (MHz)",
        "geomean IPC",
        "MIPS",
        "area mm²",
        "MIPS/cm²",
    ]);
    for (name, n, m, cfg) in &rows {
        let ipc = geomean_ipc(&mut pool, cfg);
        let period_ps = m.total_delay_ps(&tech);
        let mhz = 1e6 / period_ps;
        let mips = mhz * ipc;
        t.row(vec![
            name.clone(),
            format!("{n}"),
            format!("{:.0}", mhz),
            format!("{:.2}", ipc),
            format!("{:.0}", mips),
            format!("{:.0}", m.area_mm2()),
            format!("{:.1}", mips / (m.area_mm2() / 100.0)),
        ]);
    }
    println!("{t}");
    println!(
        "the shapes the paper predicts: the Ultrascalar II's Θ(n + L) clock\n\
         period erodes its (slightly lower) IPC as n grows; the hybrid\n\
         pairs near-US-I IPC with the best clock and area at scale."
    );
    let lanes = pool.stats();
    println!(
        "\nlane-batched populations: {} batches over {} epochs, {} lane \
         runs, {} peels ({} replay), {} serial demotions",
        lanes.batches,
        lanes.epochs,
        lanes.lane_runs,
        lanes.peels,
        lanes.replay_peels,
        lanes.fallbacks
    );
}

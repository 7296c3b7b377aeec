//! Shared-ALU ablation (§1 & §7): "in the designs presented here, the
//! ALU is replicated n times for an n-issue processor. In practice,
//! ALUs can be effectively shared … reducing the chip area further."
//! Sweep the Memo 2 scheduler's pool size on the paper's closing
//! configuration (window 128) and report IPC cost vs ALU-area savings.
//! The "worst slowdown" column compares each row against the
//! fully-replicated k = 128 reference.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin shared_alus
//! ```

use ultrascalar::{PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_bench::Table;
use ultrascalar_isa::workload;
use ultrascalar_vlsi::Tech;

fn main() {
    let n = 128;
    let tech = Tech::cmos_035();
    println!("shared-ALU ablation — hybrid, window n = {n}, C = 32, bimodal predictor\n");

    // ALU area saved: n−k replicated integer ALUs at 32 bits.
    let alu_area = |k: usize| (k as f64) * 32.0 * tech.alu_bit_area_um2 / 1e6; // mm²

    let kernels = workload::standard_suite(77);
    let pools = [128usize, 64, 32, 16, 8, 4];
    let runs: Vec<Vec<(u64, f64, u64)>> = pools
        .iter()
        .map(|&k| {
            let cfg = ProcConfig::hybrid(n, 32)
                .with_shared_alus(k)
                .with_predictor(PredictorKind::Bimodal(256));
            let mut engine = Ultrascalar::new(cfg);
            kernels
                .iter()
                .map(|(_, p)| {
                    let r = engine.run(p);
                    assert!(r.halted);
                    (r.cycles, r.ipc(), r.stats.alu_stalls)
                })
                .collect()
        })
        .collect();

    // The first pool size (full replication) is the slowdown reference.
    let reference: Vec<u64> = runs[0].iter().map(|r| r.0).collect();
    let mut t = Table::new(vec![
        "ALUs",
        "ALU area mm²",
        "geomean IPC",
        "worst kernel slowdown",
        "total ALU stalls",
    ]);
    for (k, runs) in pools.into_iter().zip(&runs) {
        let mut log_ipc_sum = 0.0;
        let mut worst = 1.0f64;
        let mut stalls = 0u64;
        for ((cycles, ipc, s), base) in runs.iter().zip(&reference) {
            log_ipc_sum += ipc.ln();
            stalls += s;
            worst = worst.max(*cycles as f64 / *base as f64);
        }
        t.row(vec![
            format!("{k}"),
            format!("{:.1}", alu_area(k)),
            format!("{:.2}", (log_ipc_sum / kernels.len() as f64).exp()),
            format!("{:.2}x", worst),
            format!("{stalls}"),
        ]);
    }
    println!("{t}");
    println!(
        "the paper's projection — \"a hybrid Ultrascalar with a window-size\n\
         of 128 and 16 shared ALUs\" — costs little IPC on these kernels\n\
         while shedding {:.0} mm² of replicated ALU area (0.35 µm).",
        alu_area(128) - alu_area(16)
    );
}

//! End-to-end throughput synthesis: the paper compares the processors
//! by VLSI complexity because "the only differences between the
//! processors are in their VLSI complexities … which have implications
//! therefore on clock speeds." This experiment closes the loop: clock
//! period from the layout model (total delay = gate + repeatered-wire)
//! × IPC from the cycle-accurate simulator = sustained instructions
//! per second, per architecture and window size.
//!
//! Each (architecture, window) row is a geomean over the whole kernel
//! suite, one serial run per kernel.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin throughput
//! ```

use ultrascalar::{PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_bench::Table;
use ultrascalar_isa::workload;
use ultrascalar_memsys::Bandwidth;
use ultrascalar_vlsi::metrics::ArchParams;
use ultrascalar_vlsi::{hybrid, usi, usii, Tech};

/// Geomean IPC over the kernel suite.
fn geomean_ipc(cfg: &ProcConfig) -> f64 {
    let kernels = workload::standard_suite(2121);
    let mut s = 0.0;
    for (_, prog) in &kernels {
        let r = Ultrascalar::new(cfg.clone()).run(prog);
        assert!(r.halted);
        s += r.ipc().ln();
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
        let ipc = geomean_ipc(cfg);
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
}

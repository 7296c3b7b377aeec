//! E12 (§7): the self-timing back-of-envelope — "half of the
//! communications paths from one station to its successor are
//! completely local. … a program could run faster if most of its
//! instructions depend on their immediate predecessors rather than on
//! far-previous instructions." Measure the producer→consumer
//! forwarding-distance distribution across the kernel suite.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin locality
//! ```

use ultrascalar::{PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_bench::Table;
use ultrascalar_isa::workload;

fn main() {
    println!("§7 — forwarding-distance locality (Ultrascalar I, n = 16)\n");
    let mut t = Table::new(vec![
        "kernel",
        "dist 1",
        "dist 2",
        "dist 3-4",
        "dist ≥5",
        "regfile",
        "local frac",
    ]);
    let mut total_hist = vec![0u64; 64];
    let mut total_reg = 0u64;
    let mut engine =
        Ultrascalar::new(ProcConfig::ultrascalar_i(16).with_predictor(PredictorKind::Bimodal(64)));
    for (name, prog) in workload::standard_suite(42) {
        let r = engine.run(&prog);
        let h = &r.stats.forward_dist;
        let get = |i: usize| h.get(i).copied().unwrap_or(0);
        let d34 = get(3) + get(4);
        let d5p: u64 = h.iter().skip(5).sum();
        for (i, &v) in h.iter().enumerate() {
            if i < total_hist.len() {
                total_hist[i] += v;
            }
        }
        total_reg += r.stats.regfile_reads;
        t.row(vec![
            name.to_string(),
            format!("{}", get(1)),
            format!("{}", get(2)),
            format!("{d34}"),
            format!("{d5p}"),
            format!("{}", r.stats.regfile_reads),
            format!("{:.0}%", 100.0 * r.stats.local_forward_fraction()),
        ]);
    }
    println!("{t}");

    let fw_total: u64 = total_hist.iter().sum();
    let local = total_hist.get(1).copied().unwrap_or(0);
    println!(
        "aggregate: {} in-window forwardings ({} from the immediate\n\
         predecessor = {:.0}%), {} reads from the committed register file.",
        fw_total,
        local,
        100.0 * local as f64 / fw_total.max(1) as f64,
        total_reg
    );
    println!(
        "\nthe paper's estimate — about half of producer→consumer paths are\n\
         station-to-successor — holds for serial kernels and underestimates\n\
         locality for tight loops; a self-timed datapath would exploit it."
    );
}

//! IPC ablation (supports §4's "the Ultrascalar II … is less efficient
//! than the Ultrascalar I because its datapath does not wrap around"):
//! committed IPC of the three processors — plus the conventional
//! baseline — across the kernel suite and window sizes.
//!
//! Every printed cell is one serial run of the kernel on its
//! processor.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin ipc_ablation
//! ```

use ultrascalar::{BaselineOoO, PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_bench::Table;
use ultrascalar_isa::workload;

fn main() {
    println!("IPC across processors (bimodal predictor, ideal memory)\n");

    let kernels = workload::standard_suite(7);
    for n in [8usize, 16, 32] {
        println!("window n = {n} (hybrid: C = {}):", n / 4);
        let mut t = Table::new(vec![
            "kernel",
            "baseline OoO",
            "US-I (C=1)",
            &format!("hybrid (C={})", n / 4),
            "US-II (C=n)",
            "US-II slowdown",
        ]);
        for (name, prog) in &kernels {
            let pred = PredictorKind::Bimodal(64);
            let usi_cfg = ProcConfig::ultrascalar_i(n).with_predictor(pred);
            let base = BaselineOoO::new(usi_cfg.clone()).run(prog);
            let usi = Ultrascalar::new(usi_cfg).run(prog);
            let hy = Ultrascalar::new(ProcConfig::hybrid(n, n / 4).with_predictor(pred)).run(prog);
            let usii =
                Ultrascalar::new(ProcConfig::ultrascalar_ii(n).with_predictor(pred)).run(prog);
            t.row(vec![
                name.to_string(),
                format!("{:.2}", base.ipc()),
                format!("{:.2}", usi.ipc()),
                format!("{:.2}", hy.ipc()),
                format!("{:.2}", usii.ipc()),
                format!("{:.2}x", usii.cycles as f64 / usi.cycles as f64),
            ]);
        }
        println!("{t}");
    }
    println!(
        "US-I matches the conventional baseline exactly (same ILP), the\n\
         hybrid gives most of it back, and the batch-refill US-II pays the\n\
         window-barrier penalty the paper describes in §4."
    );
}

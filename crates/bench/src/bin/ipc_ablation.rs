//! IPC ablation (supports §4's "the Ultrascalar II … is less efficient
//! than the Ultrascalar I because its datapath does not wrap around"):
//! committed IPC of the three processors — plus the conventional
//! baseline — across the kernel suite and window sizes.
//!
//! Each Ultrascalar config runs a multi-seed *population* (the printed
//! program plus lane-variant seeds) through one [`LanePool`], so the
//! per-config simulations lane-batch instead of running serially. The
//! printed IPC comes from population member 0 (the original program),
//! which the lane engine guarantees byte-identical to a serial run;
//! the baseline OoO model has no lane engine and runs alone.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin ipc_ablation
//! ```

use ultrascalar::{BaselineOoO, PredictorKind, ProcConfig, Processor, RunResult};
use ultrascalar_bench::sweep::LanePool;
use ultrascalar_bench::Table;
use ultrascalar_isa::{workload, Program};

/// Seeds per Ultrascalar config cell: the printed program plus 7
/// lane-variant populations sharing its schedule.
const POP: usize = 8;

/// Run the printed program plus `POP - 1` lane-variant seeds as one
/// lane-batched population; returns member 0's result (the printed
/// number).
fn population_run(pool: &mut LanePool, cfg: &ProcConfig, prog: &Program, seed: u64) -> RunResult {
    let mut population = vec![prog.clone()];
    population.extend(workload::lane_variants(prog, POP - 1, seed));
    let refs: Vec<&Program> = population.iter().collect();
    let mut out = vec![RunResult::default(); POP];
    pool.run_population(cfg, &refs, &mut out);
    out.swap_remove(0)
}

fn main() {
    println!("IPC across processors (bimodal predictor, ideal memory)\n");

    let kernels = workload::standard_suite(7);
    let mut pool = LanePool::new();
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
        for (k, (name, prog)) in kernels.iter().enumerate() {
            let seed = 0xAB1E ^ ((n as u64) << 16) ^ k as u64;
            let pred = PredictorKind::Bimodal(64);
            let usi_cfg = ProcConfig::ultrascalar_i(n).with_predictor(pred);
            let base = BaselineOoO::new(usi_cfg.clone()).run(prog);
            let usi = population_run(&mut pool, &usi_cfg, prog, seed);
            let hy_cfg = ProcConfig::hybrid(n, n / 4).with_predictor(pred);
            let hy = population_run(&mut pool, &hy_cfg, prog, seed);
            let usii_cfg = ProcConfig::ultrascalar_ii(n).with_predictor(pred);
            let usii = population_run(&mut pool, &usii_cfg, prog, seed);
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
    let lanes = pool.stats();
    println!(
        "US-I matches the conventional baseline exactly (same ILP), the\n\
         hybrid gives most of it back, and the batch-refill US-II pays the\n\
         window-barrier penalty the paper describes in §4."
    );
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

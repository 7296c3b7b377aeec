//! Watch the instruction window work: station-occupancy traces that
//! make the three processors' refill policies visible — the
//! Ultrascalar I's sliding wrap-around ring, the hybrid's
//! cluster-granular turnover, and the Ultrascalar II's batch barrier.
//!
//! ```text
//! cargo run --example window_trace [kernel]
//! ```

use std::env;
use ultrascalar_suite::core::{
    render_station_occupancy, PredictorKind, ProcConfig, Processor, Ultrascalar,
};
use ultrascalar_suite::isa::workload;

fn main() {
    let kernel = env::args().nth(1).unwrap_or_else(|| "fibonacci".into());
    let Some((_, program)) = workload::standard_suite(1)
        .into_iter()
        .find(|(name, _)| *name == kernel)
    else {
        eprintln!("unknown kernel `{kernel}`; available:");
        for (name, _) in workload::standard_suite(1) {
            eprintln!("  {name}");
        }
        std::process::exit(1);
    };

    let n = 8;
    println!(
        "station occupancy for `{kernel}` (window n = {n}; lowercase =\n\
         waiting for operands, uppercase = executing; letters advance\n\
         with program order and wrap at z)\n"
    );
    for cfg in [
        ProcConfig::ultrascalar_i(n),
        ProcConfig::hybrid(n, 4),
        ProcConfig::ultrascalar_ii(n),
    ] {
        let mut p = Ultrascalar::new(cfg.with_predictor(PredictorKind::Bimodal(64)));
        let name = p.name();
        let r = p.run_timed(&program);
        assert!(r.halted);
        println!("== {name}: {} cycles, IPC {:.2}", r.cycles, r.ipc());
        // Clip long traces for readability.
        let clip: Vec<_> = r
            .recorded_timings()
            .iter()
            .copied()
            .filter(|t| t.complete < 60)
            .collect();
        println!("{}", render_station_occupancy(&clip, n));
    }
    println!(
        "note how the Ultrascalar I refills each station the moment it\n\
         (and everything older) finishes, the hybrid recycles four\n\
         stations at a time, and the Ultrascalar II waits for the whole\n\
         window — §4's \"stations idle waiting for everyone to finish\"."
    );
}

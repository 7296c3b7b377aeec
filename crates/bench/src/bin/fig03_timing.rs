//! E2 (Figure 3): the timing diagram of the paper's eight-instruction
//! example on the Ultrascalar I, with division = 10 cycles,
//! multiplication = 3, addition = 1.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin fig03_timing
//! ```

use ultrascalar::{render_timing_diagram, ProcConfig, Processor, Ultrascalar};
use ultrascalar_isa::workload;

fn main() {
    let prog = workload::figure1_sequence();
    let mut proc = Ultrascalar::new(ProcConfig::ultrascalar_i(8));
    let result = proc.run_timed(&prog);
    println!("Figure 3 — relative execution time of each instruction");
    println!("(division 10 cycles, multiplication 3, addition 1)\n");
    println!("{}", render_timing_diagram(result.recorded_timings()));
    println!(
        "total: {} cycles for {} instructions (IPC {:.2})",
        result.cycles,
        result.stats.committed,
        result.ipc()
    );
    println!(
        "\nNote the out-of-order hallmark the paper highlights: the\n\
         `sub r0, r5, r6` (station 4) computes immediately, while the\n\
         *earlier* write of R0 (`add r0, r0, r3`, station 7) waits ten\n\
         cycles for the divide — register renaming via the CSPP datapath."
    );
}

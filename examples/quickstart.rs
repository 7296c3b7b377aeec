//! Quickstart: assemble a small program, run it on an Ultrascalar I,
//! and inspect the results.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ultrascalar_suite::core::{render_timing_diagram, ProcConfig, Processor, Ultrascalar};
use ultrascalar_suite::isa::assemble;

fn main() {
    // 1. Write a program in the toy RISC assembly (32 logical
    //    registers, word-addressed memory, ≤2 reads / ≤1 write per
    //    instruction — the paper's ISA).
    let src = "
            li   r1, 10          ; n = 10
            li   r2, 0           ; acc
            li   r7, 0
        loop:
            add  r2, r2, r1      ; acc += n
            subi r1, r1, 1
            bne  r1, r7, loop
            sw   r2, (r7)        ; mem[0] = acc
            halt
    ";
    let program = assemble(src, 32).expect("assembles");

    // 2. Build an 8-wide Ultrascalar I (cluster size 1) with the
    //    default Figure 3 latencies, a perfect branch oracle and ideal
    //    memory, and run the program to completion, recording each
    //    instruction's timing (`run` records none).
    let mut proc = Ultrascalar::new(ProcConfig::ultrascalar_i(8));
    let result = proc.run_timed(&program);

    // 3. Inspect architectural state and microarchitectural behaviour.
    assert!(result.halted);
    println!(
        "sum 10+9+…+1 = {} (stored to mem[0] = {})",
        result.regs[2], result.mem[0]
    );
    println!(
        "executed {} instructions in {} cycles — IPC {:.2}",
        result.stats.committed,
        result.cycles,
        result.ipc()
    );
    println!("\nper-instruction timing (first loop iterations):\n");
    println!(
        "{}",
        render_timing_diagram(
            &result.recorded_timings()[..14.min(result.stats.committed as usize)]
        )
    );
}

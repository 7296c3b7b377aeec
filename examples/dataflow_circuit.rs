//! Drive the actual gate-level CSPP datapath: build the per-register
//! forwarding circuit, apply a window snapshot, and watch each station
//! receive its operands — with settle-depth (gate-delay) readouts.
//!
//! ```text
//! cargo run --example dataflow_circuit [n]
//! ```

use std::env;
use ultrascalar_suite::circuit::build::bus_value;
use ultrascalar_suite::circuit::generators::{CombineOp, CsppTree};
use ultrascalar_suite::circuit::Netlist;

fn main() {
    let n: usize = env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    const WIDTH: usize = 33; // 32-bit value + ready bit
    const READY: u64 = 1 << 32;

    // Build one register's CSPP tree for an n-station window.
    let mut nl = Netlist::new();
    let tree = CsppTree::build(&mut nl, n, WIDTH, CombineOp::First);
    println!(
        "CSPP forwarding tree for one 32-bit register, {n} stations:\n\
         {} logic gates, {} inputs\n",
        nl.logic_gate_count(),
        nl.num_inputs()
    );

    // Snapshot: the oldest station (0) inserts the committed value 100;
    // station n/3 has a pending (not-ready) write; station 2n/3 wrote
    // 777 and is done.
    let pending = n / 3;
    let done = 2 * n / 3;
    let mut inputs = vec![false; nl.num_inputs()];
    let set = |bus: &[ultrascalar_suite::circuit::NodeId], v: u64, inputs: &mut Vec<bool>| {
        for (i, &w) in bus.iter().enumerate() {
            inputs[w.0 as usize] = v >> i & 1 == 1;
        }
    };
    set(&tree.values[0], 100 | READY, &mut inputs);
    inputs[tree.seg[0].0 as usize] = true;
    if pending > 0 {
        set(&tree.values[pending], 0, &mut inputs);
        inputs[tree.seg[pending].0 as usize] = true;
    }
    if done != pending {
        set(&tree.values[done], 777 | READY, &mut inputs);
        inputs[tree.seg[done].0 as usize] = true;
    }

    let eval = nl.evaluate(&inputs).expect("datapath settles");
    println!("station | incoming value | settled at gate level");
    println!("--------+----------------+---------------------");
    for i in 0..n {
        let v = bus_value(&eval, &tree.out_value[i]);
        let text = if v & READY != 0 {
            format!("{:>6} (ready)", v & 0xFFFF_FFFF)
        } else {
            "   ? (pending)".to_string()
        };
        let lvl = tree.out_value[i]
            .iter()
            .map(|&b| eval.level(b))
            .max()
            .unwrap_or(0);
        println!("{i:>7} | {text:<14} | {lvl}");
    }
    println!(
        "\ncritical path: {} gate levels for {n} stations (Θ(log n) — \
         doubling n adds a constant)",
        eval.max_level()
    );
}

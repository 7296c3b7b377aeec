//! E5 (Figures 7 & 8): the Ultrascalar II register datapath — the
//! worked 4-instruction example resolved through the full gate-level
//! grid, plus the linear-vs-mesh-of-trees depth comparison.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin fig07_usii
//! ```

use ultrascalar_bench::Table;
use ultrascalar_circuit::build::bus_value;
use ultrascalar_circuit::generators::UsiiDatapath;
use ultrascalar_circuit::Netlist;

const READY: u64 = 1 << 8;

fn describe(v: u64) -> String {
    if v & READY != 0 {
        format!("{} (ready)", v & 0xFF)
    } else {
        "? (not ready)".to_string()
    }
}

fn main() {
    println!("Figure 7/8 — Ultrascalar II datapath, 4 instructions, 4 registers");
    println!(
        "station 0 writes R2 (unfinished); station 1 writes R1 = 7;\n\
         station 2 writes R2 = 9; station 3 reads R2 and R1.\n\
         Station 3's R2 argument must come from station 2's write (9),\n\
         ignoring station 0's earlier unfinished write — out-of-order issue.\n"
    );

    for (tree, label) in [
        (false, "linear grid (Figure 7)"),
        (true, "mesh of trees (Figure 8)"),
    ] {
        let mut nl = Netlist::new();
        let dp = UsiiDatapath::build(&mut nl, 4, 4, 9, tree);
        let mut inputs = vec![false; nl.num_inputs()];
        let set = |bus: &[ultrascalar_circuit::NodeId], v: u64, inputs: &mut Vec<bool>| {
            for (i, &w) in bus.iter().enumerate() {
                inputs[w.0 as usize] = v >> i & 1 == 1;
            }
        };
        // Initial registers r0..r3 = 1..4, ready.
        for r in 0..4 {
            set(&dp.init_value[r], (r as u64 + 1) | READY, &mut inputs);
        }
        set(&dp.st_regnum[0], 2, &mut inputs);
        inputs[dp.st_valid[0].0 as usize] = true;
        set(&dp.st_value[0], 0, &mut inputs); // unfinished
        set(&dp.st_regnum[1], 1, &mut inputs);
        inputs[dp.st_valid[1].0 as usize] = true;
        set(&dp.st_value[1], 7 | READY, &mut inputs);
        set(&dp.st_regnum[2], 2, &mut inputs);
        inputs[dp.st_valid[2].0 as usize] = true;
        set(&dp.st_value[2], 9 | READY, &mut inputs);
        inputs[dp.st_valid[3].0 as usize] = false;
        set(&dp.arg_request[3][0], 2, &mut inputs);
        set(&dp.arg_request[3][1], 1, &mut inputs);

        let eval = nl.evaluate(&inputs).expect("datapath settles");
        println!(
            "{label}: {} gates, settled depth {}",
            nl.logic_gate_count(),
            eval.max_level()
        );
        let mut t = Table::new(vec!["signal", "value"]);
        t.row(vec![
            "station 3 argument R2".to_string(),
            describe(bus_value(&eval, &dp.arg_value[3][0])),
        ]);
        t.row(vec![
            "station 3 argument R1".to_string(),
            describe(bus_value(&eval, &dp.arg_value[3][1])),
        ]);
        for r in 0..4 {
            t.row(vec![
                format!("outgoing R{r}"),
                describe(bus_value(&eval, &dp.out_value[r])),
            ]);
        }
        println!("{t}");
    }

    println!("depth scaling (all rows bound, request matches row 0 only):");
    let mut t = Table::new(vec![
        "n (stations)",
        "linear depth",
        "tree depth",
        "linear gates",
        "tree gates",
    ]);
    for k in 2..=6u32 {
        let n = 1usize << k;
        let mut row = vec![format!("{n}")];
        let mut gates = Vec::new();
        for tree in [false, true] {
            let mut nl = Netlist::new();
            let col =
                ultrascalar_circuit::generators::UsiiColumn::build(&mut nl, n + 4, 3, 8, tree);
            let mut inputs = vec![false; nl.num_inputs()];
            for r in 0..n + 4 {
                for (i, &w) in col.row_regnum[r].iter().enumerate() {
                    inputs[w.0 as usize] = (if r == 0 { 1u64 } else { 0 }) >> i & 1 == 1;
                }
                inputs[col.row_valid[r].0 as usize] = true;
            }
            inputs[col.request[0].0 as usize] = true; // request = 1
            let eval = nl.evaluate(&inputs).expect("settles");
            row.push(format!("{}", eval.max_level()));
            gates.push(format!("{}", nl.logic_gate_count()));
        }
        row.extend(gates);
        t.row(row);
    }
    println!("{t}");
    println!("linear column depth grows Θ(rows); tree column Θ(log rows) — Figure 8's point.");
}

//! E3 (Figure 5): the 1-bit cyclic segmented parallel-prefix circuit
//! with the AND operator — "can compute for each station whether all
//! the earlier stations have met a particular condition" — evaluated
//! algorithmically and at gate level, plus a depth-scaling sweep.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin fig05_cspp
//! ```

use ultrascalar_bench::Table;
use ultrascalar_circuit::generators::{CombineOp, CsppTree};
use ultrascalar_circuit::Netlist;
use ultrascalar_prefix::cspp::cspp_all_earlier;

fn main() {
    // The paper's example: oldest = 6; stations {6,7,0,1,3} have met
    // the condition; the circuit outputs high to {7,0,1,2}.
    let n = 8;
    let oldest = 6;
    let mut cond = vec![false; n];
    for i in [6, 7, 0, 1, 3] {
        cond[i] = true;
    }
    println!("Figure 5 — 1-bit CSPP (a ⊗ b = a ∧ b), oldest = {oldest}");
    println!("condition inputs high at stations 6, 7, 0, 1, 3\n");

    let model = cspp_all_earlier(&cond, oldest);

    let mut nl = Netlist::new();
    let tree = CsppTree::build(&mut nl, n, 1, CombineOp::BitAnd);
    let mut inputs = vec![false; nl.num_inputs()];
    for i in 0..n {
        inputs[tree.values[i][0].0 as usize] = cond[i];
        inputs[tree.seg[i].0 as usize] = i == oldest;
    }
    let eval = nl.evaluate(&inputs).expect("settles");

    let mut t = Table::new(vec![
        "station",
        "input",
        "all earlier met? (model)",
        "(gates)",
    ]);
    for i in 0..n {
        let note = if i == oldest {
            " — ignored (oldest)"
        } else {
            ""
        };
        t.row(vec![
            format!("{i}"),
            format!("{}", cond[i] as u8),
            format!("{}{note}", model[i] as u8),
            format!("{}", eval.value(tree.out_value[i][0]) as u8),
        ]);
    }
    println!("{t}");

    println!("depth scaling of the AND-CSPP tree (gate levels):");
    let mut t = Table::new(vec!["n", "gates", "settled depth"]);
    for k in 2..=9u32 {
        let n = 1usize << k;
        let mut nl = Netlist::new();
        let tree = CsppTree::build(&mut nl, n, 1, CombineOp::BitAnd);
        let mut inputs = vec![false; nl.num_inputs()];
        inputs[tree.seg[0].0 as usize] = true;
        for i in 0..n {
            inputs[tree.values[i][0].0 as usize] = true;
        }
        let eval = nl.evaluate(&inputs).expect("settles");
        t.row(vec![
            format!("{n}"),
            format!("{}", nl.logic_gate_count()),
            format!("{}", eval.max_level()),
        ]);
    }
    println!("{t}");
    println!("depth grows by a constant per doubling: Θ(log n), as claimed.");
}

//! E1 (Figures 1 & 4): the Ultrascalar I datapath snapshot — what each
//! execution station sees on the register-R0 ring, evaluated three
//! ways: the algorithmic CSPP model, the linear mux-ring netlist, and
//! the logarithmic CSPP-tree netlist (with their measured gate depths).
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin fig01_datapath
//! ```

use ultrascalar_bench::Table;
use ultrascalar_circuit::build::bus_value;
use ultrascalar_circuit::generators::{CombineOp, CsppTree, MuxRing};
use ultrascalar_circuit::Netlist;
use ultrascalar_prefix::{cspp_ring, First};

/// The Figure 1 snapshot for register R0, stations 0..7, station 6
/// oldest: station 6 inserts the initial value 10 (ready); station 7
/// has an unfinished write (not ready); station 4 has written 42
/// (ready). Payload encoding: bits 0..8 value, bit 8 ready.
fn snapshot() -> (Vec<u64>, Vec<bool>) {
    const READY: u64 = 1 << 8;
    let mut vals = vec![0u64; 8];
    let mut seg = vec![false; 8];
    vals[6] = 10 | READY;
    seg[6] = true;
    vals[7] = 0; // not ready
    seg[7] = true;
    vals[4] = 42 | READY;
    seg[4] = true;
    (vals, seg)
}

fn describe(v: u64) -> String {
    if v & (1 << 8) != 0 {
        format!("{} (ready)", v & 0xFF)
    } else {
        "? (not ready)".to_string()
    }
}

fn main() {
    let (vals, seg) = snapshot();
    println!("Figure 1/4 — the register-R0 datapath snapshot");
    println!("station 6 oldest; writers: 6 (init 10), 7 (pending), 4 (42)\n");

    // Algorithmic CSPP.
    let model = cspp_ring::<u64, First>(&vals, &seg);

    // Linear mux ring (Figure 1).
    let mut ring_nl = Netlist::new();
    let ring = MuxRing::build(&mut ring_nl, 8, 9);
    let mut inputs = vec![false; ring_nl.num_inputs()];
    for i in 0..8 {
        inputs[ring.modified[i].0 as usize] = seg[i];
        for (b, &w) in ring.inserted[i].iter().enumerate() {
            inputs[w.0 as usize] = vals[i] >> b & 1 == 1;
        }
    }
    let ring_eval = ring_nl.evaluate(&inputs).expect("ring settles");

    // CSPP tree (Figure 4).
    let mut tree_nl = Netlist::new();
    let tree = CsppTree::build(&mut tree_nl, 8, 9, CombineOp::First);
    let mut inputs = vec![false; tree_nl.num_inputs()];
    for i in 0..8 {
        inputs[tree.seg[i].0 as usize] = seg[i];
        for (b, &w) in tree.values[i].iter().enumerate() {
            inputs[w.0 as usize] = vals[i] >> b & 1 == 1;
        }
    }
    let tree_eval = tree_nl.evaluate(&inputs).expect("tree settles");

    let mut t = Table::new(vec![
        "station",
        "incoming R0 (model)",
        "mux ring (Fig 1)",
        "CSPP tree (Fig 4)",
    ]);
    for (i, m) in model.iter().enumerate() {
        t.row(vec![
            format!("{i}{}", if i == 6 { " (oldest)" } else { "" }),
            describe(m.value),
            describe(bus_value(&ring_eval, &ring.incoming[i])),
            describe(bus_value(&tree_eval, &tree.out_value[i])),
        ]);
    }
    println!("{t}");
    println!(
        "gate depth: mux ring {} levels (Θ(n)), CSPP tree {} levels (Θ(log n))",
        ring_eval.max_level(),
        tree_eval.max_level()
    );
    println!(
        "gate count: mux ring {} gates, CSPP tree {} gates",
        ring_nl.logic_gate_count(),
        tree_nl.logic_gate_count()
    );
}

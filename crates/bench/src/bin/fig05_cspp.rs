//! E3 (Figure 5): the 1-bit cyclic segmented parallel-prefix circuit
//! with the AND operator — "can compute for each station whether all
//! the earlier stations have met a particular condition" — evaluated
//! algorithmically and at gate level, plus a depth-scaling sweep.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin fig05_cspp [-- --json]
//! ```
//!
//! With `--json`, the packed-vs-generic substrate timings are also
//! written to `BENCH_substrate.json`.

use std::time::{Duration, Instant};
use ultrascalar_bench::sweep::json_flag_set;
use ultrascalar_bench::{JsonReport, Table};
use ultrascalar_circuit::generators::{CombineOp, CsppTree};
use ultrascalar_circuit::Netlist;
use ultrascalar_prefix::cspp::cspp_all_earlier;
use ultrascalar_prefix::{cspp_tree, AndWords, BoolAnd, PackedCsppScratch};

/// Mean seconds per call, doubling the iteration count until one
/// timed batch runs ≥ 20 ms (adaptive, so fast forms stay accurate).
fn time_per_call<F: FnMut() -> u64>(mut f: F) -> f64 {
    for _ in 0..3 {
        std::hint::black_box(f());
    }
    let mut iters = 1u32;
    loop {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..iters {
            acc = acc.wrapping_add(f());
        }
        let dt = start.elapsed();
        std::hint::black_box(acc);
        if dt.as_secs_f64() >= 0.02 || iters >= 1 << 22 {
            return dt.as_secs_f64() / iters as f64;
        }
        iters *= 2;
    }
}

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
    let eval = nl.evaluate(&inputs, &[]).expect("settles");

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
        let eval = nl.evaluate(&inputs, &[]).expect("settles");
        t.row(vec![
            format!("{n}"),
            format!("{}", nl.logic_gate_count()),
            format!("{}", eval.max_level()),
        ]);
    }
    println!("{t}");
    println!("depth grows by a constant per doubling: Θ(log n), as claimed.\n");

    // Simulator-substrate timing: the generic SegPair<bool> tree vs the
    // bit-packed SWAR tree that evaluates 64 lane problems per pass.
    println!("software substrate — boolean AND-CSPP, generic vs packed SWAR:");
    let mut report = JsonReport::new("fig05_substrate");
    let mut t = Table::new(vec![
        "n",
        "generic tree (ns)",
        "packed, 64 lanes (ns)",
        "per-lane speedup",
    ]);
    for &n in &[64usize, 256, 1024] {
        let vals: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        let seg: Vec<bool> = (0..n).map(|i| i % 17 == 4).collect();
        let vw: Vec<u64> = vals.iter().map(|&v| if v { !0 } else { 0 }).collect();
        let sw: Vec<u64> = seg.iter().map(|&s| if s { !0 } else { 0 }).collect();

        let generic_s = time_per_call(|| {
            let out = cspp_tree::<bool, BoolAnd>(&vals, &seg);
            out.iter().filter(|p| p.value).count() as u64
        });
        let mut scratch = PackedCsppScratch::new();
        let mut out = Vec::new();
        let packed_s = time_per_call(|| {
            scratch.cspp_into::<AndWords>(&vw, &sw, &mut out);
            out.len() as u64
        });

        let per_lane = generic_s / (packed_s / 64.0);
        t.row(vec![
            format!("{n}"),
            format!("{:.0}", generic_s * 1e9),
            format!("{:.0}", packed_s * 1e9),
            format!("{per_lane:.0}x"),
        ]);
        // Per-call times are nanoseconds; report a 1e6-call batch with
        // `steps` = prefix elements processed so `wall_s` keeps its six
        // decimals meaningful and `steps_per_sec` compares elements/s
        // across rows (one packed pass carries 64 lane problems of
        // size n, word-parallel).
        const BATCH: f64 = 1e6;
        report.point(
            &format!("generic_tree/n={n}"),
            Duration::from_secs_f64(generic_s * BATCH),
            Some(n as u64 * BATCH as u64),
        );
        report.point_with_lanes(
            &format!("packed_tree_64lane/n={n}"),
            Duration::from_secs_f64(packed_s * BATCH),
            Some(64 * n as u64 * BATCH as u64),
            64,
        );
    }
    println!("{t}");
    println!("one packed pass evaluates 64 independent lane networks word-parallel.");

    let args: Vec<String> = std::env::args().skip(1).collect();
    if json_flag_set(&args) {
        report
            .write_to("BENCH_substrate.json")
            .expect("write BENCH_substrate.json");
    }
}

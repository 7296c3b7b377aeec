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
use ultrascalar_prefix::{
    cspp_tree, AndWords, BoolAnd, First, PackedCsppScratch, PackedCsppScratchW, SlicedCsppScratch,
    SlicedPair,
};

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

/// Mean seconds per multi-word packed pass (`64 · W` lanes, every lane
/// carrying the same boolean problem).
fn packed_time_w<const W: usize>(vals: &[bool], seg: &[bool]) -> f64 {
    let vw: Vec<[u64; W]> = vals.iter().map(|&v| [if v { !0 } else { 0 }; W]).collect();
    let sw: Vec<[u64; W]> = seg.iter().map(|&s| [if s { !0 } else { 0 }; W]).collect();
    let mut scratch = PackedCsppScratchW::<W>::new();
    let mut out = Vec::new();
    time_per_call(|| {
        scratch.cspp_into::<AndWords>(&vw, &sw, &mut out);
        out.len() as u64
    })
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
        "W=1, 64 lanes (ns)",
        "W=2, 128 lanes (ns)",
        "W=4, 256 lanes (ns)",
        "per-lane speedup (W=1)",
        "per-lane speedup (W=4)",
    ]);
    let mut dispatch_rows: Vec<(usize, f64, f64, f64, f64)> = Vec::new();
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
        let packed_w2_s = packed_time_w::<2>(&vals, &seg);
        let packed_w4_s = packed_time_w::<4>(&vals, &seg);
        // Dispatch A/B: the W≥2 sweeps are the runtime-dispatched
        // kernels, so re-timing them with the portable substrate
        // pinned (RAII guard) isolates the vector win on this host.
        // On a non-AVX2 host both sides run the same SWAR code and
        // the ratio is ~1.
        let (packed_w2_swar_s, packed_w4_swar_s) = {
            let _swar = ultrascalar_prefix::ForceSwarGuard::force();
            (
                packed_time_w::<2>(&vals, &seg),
                packed_time_w::<4>(&vals, &seg),
            )
        };
        dispatch_rows.push((
            n,
            packed_w2_s,
            packed_w2_swar_s,
            packed_w4_s,
            packed_w4_swar_s,
        ));

        let per_lane_w1 = generic_s / (packed_s / 64.0);
        let per_lane_w4 = generic_s / (packed_w4_s / 256.0);
        t.row(vec![
            format!("{n}"),
            format!("{:.0}", generic_s * 1e9),
            format!("{:.0}", packed_s * 1e9),
            format!("{:.0}", packed_w2_s * 1e9),
            format!("{:.0}", packed_w4_s * 1e9),
            format!("{per_lane_w1:.0}x"),
            format!("{per_lane_w4:.0}x"),
        ]);
        // Per-call times are nanoseconds; report a 1e6-call batch with
        // `steps` = prefix elements processed so `wall_s` keeps its six
        // decimals meaningful and `steps_per_sec` compares elements/s
        // across rows (one packed pass carries `lanes` lane problems
        // of size n, word-parallel).
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
        report.point_with_lanes(
            &format!("packed_tree_w2_128lane/n={n}"),
            Duration::from_secs_f64(packed_w2_s * BATCH),
            Some(128 * n as u64 * BATCH as u64),
            128,
        );
        report.point_with_lanes(
            &format!("packed_tree_w4_256lane/n={n}"),
            Duration::from_secs_f64(packed_w4_s * BATCH),
            Some(256 * n as u64 * BATCH as u64),
            256,
        );
    }
    println!("{t}");
    println!(
        "one packed pass evaluates 64·W independent lane networks word-parallel;\n\
         W=4 covers the ISA's full 256-register space in a single evaluation.\n"
    );

    // The dispatch A/B table: native dispatch vs the force-SWAR pin on
    // the same multi-word kernels, same inputs, interleaved per size.
    println!(
        "runtime dispatch A/B — detected: {}, active: {} (USIM_FORCE_SWAR pins swar):",
        ultrascalar_prefix::detected_simd_level(),
        ultrascalar_prefix::active_simd_level()
    );
    let mut t = Table::new(vec![
        "n",
        "W=2 native (ns)",
        "W=2 swar (ns)",
        "W=4 native (ns)",
        "W=4 swar (ns)",
        "dispatch speedup (W=4)",
    ]);
    for &(n, w2, w2s, w4, w4s) in &dispatch_rows {
        t.row(vec![
            format!("{n}"),
            format!("{:.0}", w2 * 1e9),
            format!("{:.0}", w2s * 1e9),
            format!("{:.0}", w4 * 1e9),
            format!("{:.0}", w4s * 1e9),
            format!("{:.2}x", w4s / w4),
        ]);
        const BATCH: f64 = 1e6;
        report.point_with_lanes(
            &format!("packed_tree_w2_128lane_swar/n={n}"),
            Duration::from_secs_f64(w2s * BATCH),
            Some(128 * n as u64 * BATCH as u64),
            128,
        );
        report.point_with_lanes(
            &format!("packed_tree_w4_256lane_swar/n={n}"),
            Duration::from_secs_f64(w4s * BATCH),
            Some(256 * n as u64 * BATCH as u64),
            256,
        );
        report.summary(&format!("dispatch_speedup_w2/n={n}"), w2s / w2);
        report.summary(&format!("dispatch_speedup_w4/n={n}"), w4s / w4);
    }
    println!("{t}");
    println!(
        "the `_swar` rows time the identical kernels with dispatch pinned to the\n\
         portable substrate; the native rows are what the engine actually runs.\n"
    );

    // Value forwarding: the bit-sliced CSPP carries whole 32-bit
    // register values as 32 bit-planes per node, so one tree sweep
    // propagates the last-writer value for 64 registers at once — the
    // software analogue of the paper's per-register value datapath.
    // Baseline: the generic segmented tree under the select operator
    // (`a ⊗ b = a`), one register lane per evaluation.
    println!("software substrate — 32-bit value CSPP, generic select-tree vs bit-sliced:");
    let mut t = Table::new(vec![
        "n",
        "generic value tree (ns)",
        "sliced, 64 lanes (ns)",
        "sliced per lane (ns)",
        "per-lane speedup",
    ]);
    for &n in &[64usize, 256, 1024] {
        let vals: Vec<u64> = (0..n as u64)
            .map(|i| (i * 0x9E37 + 5) & 0xFFFF_FFFF)
            .collect();
        let seg: Vec<bool> = (0..n).map(|i| i % 17 == 4).collect();
        let leaves: Vec<SlicedPair<32, 1>> = (0..n)
            .map(|i| {
                let mut leaf = SlicedPair::identity();
                for lane in 0..64u64 {
                    leaf.set_lane(
                        lane as usize,
                        (vals[i] + lane) & 0xFFFF_FFFF,
                        (i + lane as usize) % 17 == 4,
                    );
                }
                leaf
            })
            .collect();

        let generic_s = time_per_call(|| {
            let out = cspp_tree::<u64, First>(&vals, &seg);
            out.iter().map(|p| p.value).sum()
        });
        let mut scratch = SlicedCsppScratch::<32, 1>::new();
        let mut out = Vec::new();
        let sliced_s = time_per_call(|| {
            scratch.cspp_into(&leaves, &mut out);
            out.len() as u64
        });

        let per_lane = sliced_s / 64.0;
        t.row(vec![
            format!("{n}"),
            format!("{:.0}", generic_s * 1e9),
            format!("{:.0}", sliced_s * 1e9),
            format!("{:.0}", per_lane * 1e9),
            format!("{:.1}x", generic_s / per_lane),
        ]);
        const BATCH: f64 = 1e6;
        report.point(
            &format!("generic_value_tree/n={n}"),
            Duration::from_secs_f64(generic_s * BATCH),
            Some(n as u64 * BATCH as u64),
        );
        report.point_with_lanes(
            &format!("sliced_value_64lane/n={n}"),
            Duration::from_secs_f64(sliced_s * BATCH),
            Some(64 * n as u64 * BATCH as u64),
            64,
        );
    }
    println!("{t}");
    println!(
        "one sliced sweep forwards 64 registers' 32-bit values; the lane batch\n\
         engine keeps its per-lane values in the same bit-plane layout."
    );

    let args: Vec<String> = std::env::args().skip(1).collect();
    if json_flag_set(&args) {
        report
            .write_to("BENCH_substrate.json")
            .expect("write BENCH_substrate.json");
    }
}

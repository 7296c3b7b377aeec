//! Behavioural tests: the paper's Figure 3 timing diagram, window/
//! cluster-granularity effects (US-I vs hybrid vs US-II), one-cycle
//! misprediction recovery, and memory-bandwidth sensitivity.

use ultrascalar::{
    render_timing_diagram, BaselineOoO, LatencyModel, PredictorKind, ProcConfig, Processor,
    Ultrascalar,
};
use ultrascalar_isa::{assemble, workload};
use ultrascalar_memsys::{Bandwidth, MemConfig, NetworkKind};

/// Paper Figure 3: with division = 10, multiplication = 3, addition =
/// 1, the eight-instruction example issues exactly as the diagram
/// shows. (Our bars span `[issue, issue + latency − 1]`.)
#[test]
fn figure3_timing_reproduced_exactly() {
    let prog = workload::figure1_sequence();
    let mut p = Ultrascalar::new(ProcConfig::ultrascalar_i(8));
    let r = p.run_timed(&prog);
    assert!(r.halted);
    // (issue, complete) per instruction in program order.
    let expect = [
        (0, 9),   // R3 = R1 / R2   : div, 10 cycles
        (10, 10), // R0 = R0 + R3   : waits for the divide
        (0, 0),   // R1 = R5 + R6   : independent
        (11, 11), // R1 = R0 + R1   : waits for the R0 add
        (0, 2),   // R2 = R5 * R6   : mul, 3 cycles
        (3, 3),   // R2 = R2 + R4   : waits for the multiply
        (0, 0),   // R0 = R5 - R6   : independent (renamed past R0!)
        (1, 1),   // R4 = R0 + R7   : waits for the subtract
    ];
    let got: Vec<(u64, u64)> = r
        .recorded_timings()
        .iter()
        .take(8)
        .map(|t| (t.issue, t.complete))
        .collect();
    assert_eq!(
        got,
        expect,
        "\n{}",
        render_timing_diagram(r.recorded_timings())
    );
    // The out-of-order hallmark from the paper's §2 narrative: the
    // instruction in station 4 computes right away while the *earlier*
    // write of R0 in station 7 waits ten cycles for the divide.
    assert!(got[6].0 < got[1].0);
}

/// The same dataflow on the Ultrascalar II (one batch of 8): identical
/// issue times, because the batch fits in one window generation.
#[test]
fn figure3_identical_on_usii_single_batch() {
    let prog = workload::figure1_sequence();
    let a = Ultrascalar::new(ProcConfig::ultrascalar_i(16)).run_timed(&prog);
    let b = Ultrascalar::new(ProcConfig::ultrascalar_ii(16)).run_timed(&prog);
    let ta: Vec<_> = a
        .recorded_timings()
        .iter()
        .map(|t| (t.issue, t.complete))
        .collect();
    let tb: Vec<_> = b
        .recorded_timings()
        .iter()
        .map(|t| (t.issue, t.complete))
        .collect();
    assert_eq!(ta, tb);
}

/// A serial dependency chain retires one instruction per cycle once the
/// pipe is warm: back-to-back forwarding in one clock, as the paper
/// requires ("newly written results propagate to all readers in one
/// clock cycle").
#[test]
fn dependent_chain_sustains_one_per_cycle() {
    let src = "
        li r0, 0
        addi r0, r0, 1
        addi r0, r0, 1
        addi r0, r0, 1
        addi r0, r0, 1
        addi r0, r0, 1
        halt
    ";
    let prog = assemble(src, 1).unwrap();
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(16)).run_timed(&prog);
    for (i, t) in r.recorded_timings().iter().take(6).enumerate() {
        assert_eq!(t.issue, i as u64, "instruction {i} issue");
    }
    assert_eq!(r.regs[0], 5);
}

/// Independent instructions all issue in cycle 0 when the window holds
/// them — issue width really is `n`.
#[test]
fn independent_instructions_issue_simultaneously() {
    let src = "
        li r0, 1
        li r1, 2
        li r2, 3
        li r3, 4
        li r4, 5
        li r5, 6
        li r6, 7
        li r7, 8
        halt
    ";
    let prog = assemble(src, 8).unwrap();
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(16)).run_timed(&prog);
    assert!(r.recorded_timings().iter().take(8).all(|t| t.issue == 0));
}

/// Window-granularity ablation (the paper's §4: the US-II "is less
/// efficient than the Ultrascalar I because its datapath does not wrap
/// around. As a result, stations idle waiting for everyone to finish
/// before refilling"): on a long serial chain, cycles(US-I) ≤
/// cycles(hybrid) ≤ cycles(US-II), strictly at the ends.
#[test]
fn cluster_granularity_costs_cycles_on_serial_code() {
    let prog = workload::fibonacci(64);
    let n = 16;
    let usi = Ultrascalar::new(ProcConfig::ultrascalar_i(n)).run(&prog);
    let hy4 = Ultrascalar::new(ProcConfig::hybrid(n, 4)).run(&prog);
    let usii = Ultrascalar::new(ProcConfig::ultrascalar_ii(n)).run(&prog);
    assert!(usi.halted && hy4.halted && usii.halted);
    assert!(
        usi.cycles <= hy4.cycles && hy4.cycles <= usii.cycles,
        "US-I {} ≤ hybrid {} ≤ US-II {}",
        usi.cycles,
        hy4.cycles,
        usii.cycles
    );
    assert!(usi.cycles < usii.cycles, "batch barrier must cost cycles");
}

/// All three models agree on fully parallel code (the window barrier
/// doesn't matter when every batch fills with independent work).
#[test]
fn cluster_granularity_is_free_on_parallel_code() {
    let src = "
        li r0, 1
        li r1, 2
        li r2, 3
        li r3, 4
        halt
    ";
    let prog = assemble(src, 4).unwrap();
    let a = Ultrascalar::new(ProcConfig::ultrascalar_i(4)).run_timed(&prog);
    let b = Ultrascalar::new(ProcConfig::ultrascalar_ii(4)).run_timed(&prog);
    // Not asserting equality of total cycles (commit granularity still
    // differs by a constant); issue cycles of the four `li`s match.
    assert_eq!(
        a.recorded_timings()
            .iter()
            .map(|t| t.issue)
            .collect::<Vec<_>>()[..4],
        b.recorded_timings()
            .iter()
            .map(|t| t.issue)
            .collect::<Vec<_>>()[..4]
    );
}

/// Bigger windows help ILP-rich code.
#[test]
fn wider_windows_raise_ipc_on_parallel_kernels() {
    let prog = workload::vec_scale(64, 3);
    let mut prev_cycles = u64::MAX;
    for n in [1usize, 2, 4, 8, 16] {
        let r = Ultrascalar::new(ProcConfig::ultrascalar_i(n)).run(&prog);
        assert!(r.halted);
        assert!(
            r.cycles <= prev_cycles,
            "n={n}: {} > previous {}",
            r.cycles,
            prev_cycles
        );
        prev_cycles = r.cycles;
    }
}

/// Misprediction recovery really is one cycle: a mispredicted branch
/// with a NotTaken predictor costs (resolve − fetch) + 1 refill cycle,
/// not a pipeline drain. We compare a taken-branch loop under a perfect
/// and a never-taken predictor and bound the per-iteration penalty.
#[test]
fn one_cycle_misprediction_recovery_penalty_bound() {
    let prog = workload::fibonacci(40);
    let n = 8;
    let perfect = Ultrascalar::new(ProcConfig::ultrascalar_i(n)).run(&prog);
    let nottaken =
        Ultrascalar::new(ProcConfig::ultrascalar_i(n).with_predictor(PredictorKind::NotTaken))
            .run(&prog);
    assert!(perfect.halted && nottaken.halted);
    assert_eq!(perfect.regs, nottaken.regs);
    let mispredicts = nottaken.stats.mispredictions;
    assert!(mispredicts >= 39, "each loop-back branch mispredicts");
    // Each misprediction can cost at most a few cycles (resolve +
    // 1-cycle refetch); it must never approach a full window drain.
    let penalty = nottaken.cycles.saturating_sub(perfect.cycles);
    assert!(
        penalty <= 4 * mispredicts,
        "penalty {penalty} too high for {mispredicts} mispredictions"
    );
    assert!(nottaken.stats.flushed > 0);
}

/// The bimodal predictor learns the loop and beats static not-taken.
#[test]
fn bimodal_beats_nottaken_on_loops() {
    let prog = workload::sum_reduction(64);
    let n = 8;
    let nt = Ultrascalar::new(ProcConfig::ultrascalar_i(n).with_predictor(PredictorKind::NotTaken))
        .run(&prog);
    let bi =
        Ultrascalar::new(ProcConfig::ultrascalar_i(n).with_predictor(PredictorKind::Bimodal(64)))
            .run(&prog);
    assert!(bi.stats.mispredictions < nt.stats.mispredictions);
    assert!(bi.cycles <= nt.cycles);
}

/// Memory bandwidth effects (the paper's "memory bandwidth is the
/// dominating factor"): a load-parallel kernel slows down monotonically
/// as M(n) shrinks from full to constant. (Loads wait only on older
/// *stores*, so a store-free burst is limited purely by the fat tree.)
#[test]
fn lower_memory_bandwidth_costs_cycles() {
    let mut src = String::from("li r0, 0\n");
    for i in 0..32 {
        src.push_str(&format!("lw r{}, {}(r0)\n", 1 + i % 15, i));
    }
    src.push_str("halt\n");
    let prog = assemble(&src, 16).unwrap();
    let n = 16;
    let mut cycles = Vec::new();
    for bw in [
        Bandwidth::full(),
        Bandwidth::sqrt(),
        Bandwidth::constant(1.0),
    ] {
        let mem = MemConfig {
            n_leaves: n,
            bandwidth: bw,
            banks: 16,
            bank_occupancy: 1,
            hop_latency: 0,
            base_latency: 0,
            words: 1 << 12,
            network: NetworkKind::FatTree,
            cluster_cache: None,
        };
        let r = Ultrascalar::new(ProcConfig::ultrascalar_i(n).with_mem(mem)).run(&prog);
        assert!(r.halted);
        cycles.push(r.cycles);
    }
    assert!(
        cycles[0] <= cycles[1] && cycles[1] <= cycles[2],
        "cycles must rise as bandwidth falls: {cycles:?}"
    );
    assert!(cycles[0] < cycles[2]);
}

/// Loads must observe all older stores (conservative memory
/// serialisation): a store followed by a dependent load through memory.
#[test]
fn store_to_load_ordering_is_respected() {
    let src = "
        li r1, 5
        li r2, 99
        sw r2, (r1)
        lw r3, (r1)
        addi r3, r3, 1
        halt
    ";
    let prog = assemble(src, 4).unwrap();
    for cfg in [
        ProcConfig::ultrascalar_i(8),
        ProcConfig::ultrascalar_ii(8),
        ProcConfig::hybrid(8, 4),
    ] {
        let r = Ultrascalar::new(cfg).run(&prog);
        assert_eq!(r.regs[3], 100);
        assert_eq!(r.mem[5], 99);
    }
}

/// Stores must not issue speculatively: a store behind a mispredicted
/// branch never reaches memory.
#[test]
fn wrong_path_stores_never_commit() {
    let src = "
        li   r1, 1
        li   r2, 7
        beq  r1, r1, skip   ; always taken
        sw   r2, (r1)       ; wrong path: must not write mem[1]
    skip:
        halt
    ";
    let prog = assemble(src, 4).unwrap();
    // Force a misprediction with the NotTaken predictor.
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(8).with_predictor(PredictorKind::NotTaken))
        .run(&prog);
    assert!(r.halted);
    assert_eq!(r.mem[1], 0, "speculative store leaked to memory");
    assert!(r.stats.mispredictions >= 1);
}

/// Forwarding-distance statistics: a serial chain forwards at distance
/// 1; the paper's §7 locality argument expects a high local fraction.
#[test]
fn forwarding_distance_histogram_on_serial_chain() {
    let src = "
        li r0, 0
        addi r0, r0, 1
        addi r0, r0, 1
        addi r0, r0, 1
        halt
    ";
    let prog = assemble(src, 1).unwrap();
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(8)).run(&prog);
    assert!(r.stats.local_forward_fraction() > 0.99);
}

/// The unit-latency model collapses Figure 3 to pure dependence depth.
#[test]
fn unit_latencies_give_dependence_depth() {
    let prog = workload::figure1_sequence();
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(8).with_latency(LatencyModel::unit()))
        .run_timed(&prog);
    let issues: Vec<u64> = r
        .recorded_timings()
        .iter()
        .take(8)
        .map(|t| t.issue)
        .collect();
    // Dependence depths: div=0; add(R0)=1; add(R1)=0; add(R1')=2;
    // mul=0; add(R2)=1; sub=0; add(R4)=1.
    assert_eq!(issues, vec![0, 1, 0, 2, 0, 1, 0, 1]);
}

/// IPC accounting sanity: committed ≤ cycles × n, occupancy ≤ n.
#[test]
fn stats_invariants_hold() {
    for (name, prog) in workload::standard_suite(23) {
        let n = 8;
        let r = Ultrascalar::new(
            ProcConfig::ultrascalar_i(n).with_predictor(PredictorKind::Bimodal(16)),
        )
        .run_timed(&prog);
        assert!(r.halted, "{name}");
        assert!(r.stats.committed <= r.cycles * n as u64, "{name}");
        assert!(r.stats.mean_occupancy() <= n as f64 + 1e-9, "{name}");
        assert!(r.ipc() > 0.0, "{name}");
        assert_eq!(
            r.recorded_timings().len() as u64,
            r.stats.committed,
            "{name}"
        );
        // Timings are causally sane.
        for t in r.recorded_timings() {
            assert!(t.complete >= t.issue, "{name}");
        }
    }
}

/// The issue-rate histogram accounts for every committed (plus
/// wrong-path) issue and its mean matches cycles/instructions.
#[test]
fn issue_histogram_is_consistent() {
    let prog = workload::dot_product(32);
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(8)).run(&prog);
    let cycles_counted: u64 = r.stats.issue_hist.iter().sum();
    assert_eq!(cycles_counted, r.cycles);
    let issued: u64 = r
        .stats
        .issue_hist
        .iter()
        .enumerate()
        .map(|(k, &c)| k as u64 * c)
        .sum();
    // With a perfect oracle nothing is flushed: every issue commits.
    assert_eq!(issued, r.stats.committed);
    assert!(r.stats.mean_issue_rate() > 0.0);
    // No cycle can issue more than the window width.
    assert!(r.stats.issue_hist.len() <= 8 + 1);
}

/// The perfect oracle walks the golden path over the processor's own
/// memory size: the store to address 20 lands on word 4 of a 16-word
/// memory, so the branch is taken. An oracle over a larger memory
/// predicted the fall-through and the engine panicked on the redirect.
#[test]
fn perfect_oracle_wraps_addresses_like_the_processor() {
    let prog = assemble(
        "li r1, 20\nli r2, 7\nsw r2, (r1)\nlw r3, 4(r0)\nbeq r3, r2, 6\nli r4, 1\nhalt",
        8,
    )
    .unwrap();
    let cfg = ProcConfig::ultrascalar_i(4).with_mem(MemConfig::ideal(4, 16));
    let runs = [
        Ultrascalar::new(cfg.clone()).run(&prog),
        BaselineOoO::new(cfg).run(&prog),
    ];
    for r in runs {
        assert!(r.halted);
        assert_eq!((r.regs[3], r.regs[4]), (7, 0), "the branch was taken");
        assert_eq!(r.mem.len(), 16);
    }
}

//! Architectural-equivalence tests on the standard kernel suite: every
//! processor model must produce exactly the golden interpreter's
//! architectural state, and the Ultrascalar I must be cycle-for-cycle
//! identical to the conventional baseline (the paper's central
//! functional claim). Random programs and configurations are checked
//! the same ways in `differential.rs`.

use ultrascalar::processor::check_against_golden;
use ultrascalar::{BaselineOoO, PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_isa::workload;
use ultrascalar_isa::Program;
use ultrascalar_memsys::{Bandwidth, MemConfig, NetworkKind};

const FUEL: usize = 5_000_000;

fn all_processor_configs(n: usize) -> Vec<ProcConfig> {
    let mut v = vec![ProcConfig::ultrascalar_i(n), ProcConfig::ultrascalar_ii(n)];
    if n >= 4 {
        v.push(ProcConfig::hybrid(n, n / 2));
        if n.is_multiple_of(4) {
            v.push(ProcConfig::hybrid(n, n / 4));
        }
    }
    v
}

fn check(cfg: ProcConfig, program: &Program, label: &str) {
    let mut p = Ultrascalar::new(cfg);
    let result = p.run(program);
    check_against_golden(&result, program, FUEL)
        .unwrap_or_else(|e| panic!("{label} on {}: {e}", p.name()));
}

#[test]
fn all_models_match_golden_on_standard_suite() {
    for (name, prog) in workload::standard_suite(11) {
        for cfg in all_processor_configs(8) {
            check(cfg, &prog, name);
        }
    }
}

#[test]
fn all_models_match_golden_with_imperfect_predictors() {
    for (name, prog) in workload::standard_suite(5) {
        for kind in [
            PredictorKind::NotTaken,
            PredictorKind::Taken,
            PredictorKind::Btfn,
            PredictorKind::Bimodal(64),
        ] {
            for cfg in all_processor_configs(8) {
                check(cfg.with_predictor(kind), &prog, name);
            }
        }
    }
}

#[test]
fn all_models_match_golden_with_constrained_memory() {
    let mem = MemConfig {
        n_leaves: 8,
        bandwidth: Bandwidth::sqrt(),
        banks: 2,
        bank_occupancy: 2,
        hop_latency: 1,
        base_latency: 1,
        words: 1 << 12,
        network: NetworkKind::FatTree,
        cluster_cache: None,
    };
    for (name, prog) in workload::standard_suite(7) {
        for cfg in all_processor_configs(8) {
            check(
                cfg.with_mem(mem.clone())
                    .with_predictor(PredictorKind::Bimodal(32)),
                &prog,
                name,
            );
        }
    }
}

#[test]
fn window_of_one_still_works() {
    // n = 1 degenerates to an in-order scalar pipeline; everything must
    // still match the golden state.
    for (name, prog) in workload::standard_suite(3) {
        check(ProcConfig::ultrascalar_i(1), &prog, name);
    }
}

/// The paper's functional-equivalence claim: the Ultrascalar I extracts
/// exactly the ILP of a conventional renaming/broadcast out-of-order
/// core. We require *cycle-for-cycle identical* timing.
fn assert_cycle_identical(cfg: ProcConfig, program: &Program, label: &str) {
    let mut us = Ultrascalar::new(cfg.clone());
    let mut base = BaselineOoO::new(cfg);
    let a = us.run_timed(program);
    let b = base.run_timed(program);
    assert_eq!(a.halted, b.halted, "{label}: halted");
    assert_eq!(a.cycles, b.cycles, "{label}: total cycles");
    assert_eq!(a.regs, b.regs, "{label}: registers");
    assert_eq!(a.mem, b.mem, "{label}: memory");
    assert_eq!(
        a.stats.committed, b.stats.committed,
        "{label}: committed count"
    );
    // Both count an operand's arrival when its instruction issues, so
    // wrong-path instructions squashed before issue count in neither.
    assert_eq!(
        (&a.stats.forward_dist, a.stats.regfile_reads),
        (&b.stats.forward_dist, b.stats.regfile_reads),
        "{label}: forwarding histogram and register-file reads"
    );
    let (ta, tb) = (a.recorded_timings(), b.recorded_timings());
    assert_eq!(ta.len(), tb.len(), "{label}: timing length");
    for (x, y) in ta.iter().zip(tb) {
        assert_eq!(x, y, "{label}: instruction timing for seq {}", x.seq);
    }
}

#[test]
fn ultrascalar_i_is_cycle_identical_to_baseline_on_suite() {
    for (name, prog) in workload::standard_suite(13) {
        assert_cycle_identical(ProcConfig::ultrascalar_i(8), &prog, name);
        assert_cycle_identical(ProcConfig::ultrascalar_i(16), &prog, name);
    }
}

#[test]
fn ultrascalar_i_is_cycle_identical_to_baseline_with_mispredictions() {
    for (name, prog) in workload::standard_suite(17) {
        for kind in [PredictorKind::NotTaken, PredictorKind::Bimodal(8)] {
            assert_cycle_identical(
                ProcConfig::ultrascalar_i(8).with_predictor(kind),
                &prog,
                name,
            );
        }
    }
}

#[test]
fn ultrascalar_i_is_cycle_identical_to_baseline_under_memory_pressure() {
    let mem = MemConfig {
        n_leaves: 8,
        bandwidth: Bandwidth::constant(1.0),
        banks: 2,
        bank_occupancy: 3,
        hop_latency: 2,
        base_latency: 1,
        words: 1 << 12,
        network: NetworkKind::FatTree,
        cluster_cache: None,
    };
    for (name, prog) in workload::standard_suite(19) {
        assert_cycle_identical(
            ProcConfig::ultrascalar_i(8)
                .with_mem(mem.clone())
                .with_predictor(PredictorKind::Bimodal(8)),
            &prog,
            name,
        );
    }
}

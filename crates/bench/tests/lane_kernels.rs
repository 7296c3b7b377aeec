//! Differential suite for the lane batcher over the lane kernels:
//! every batch result must be byte-identical to the
//! same programs run serially on a fresh scalar engine — across both
//! reference architectures, the perfect predictor (one clean epoch),
//! a bimodal predictor (whose mispredicts segment the run into epochs
//! the batcher walks with wrong-path replay, peeling lanes that
//! diverge) and hop-banded pipelined forwarding, seeded and unseeded
//! kernels, and small and full batch widths.

use ultrascalar::{
    ForwardModel, LaneBatcher, PredictorKind, ProcConfig, Processor, RunResult, Ultrascalar,
};
use ultrascalar_bench::kernels::{
    branch_gauntlet, branch_gauntlet_seeded, div_chain, div_chain_seeded, forward_fan,
    forward_fan_seeded, spec_storm, spec_storm_seeded, wide_div_chain, wide_div_chain_seeded,
};
use ultrascalar_isa::{workload, Program};

/// Serial ground truth: each program on a fresh engine of `cfg`.
fn serial_runs(cfg: &ProcConfig, programs: &[&Program]) -> Vec<RunResult> {
    programs
        .iter()
        .map(|p| {
            let mut r = RunResult::recording_timings();
            Ultrascalar::new(cfg.clone()).run_reusing(p, &mut r);
            r
        })
        .collect()
}

fn assert_identical(label: &str, lane: &RunResult, serial: &RunResult, l: usize) {
    assert_eq!(lane.halted, serial.halted, "{label}: lane {l} halted");
    assert_eq!(lane.cycles, serial.cycles, "{label}: lane {l} cycles");
    assert_eq!(lane.regs, serial.regs, "{label}: lane {l} registers");
    assert_eq!(lane.mem, serial.mem, "{label}: lane {l} memory");
    assert_eq!(lane.stats, serial.stats, "{label}: lane {l} stats");
    assert_eq!(
        lane.recorded_timings(),
        serial.recorded_timings(),
        "{label}: lane {l} timings"
    );
}

#[test]
fn lane_batches_match_serial_over_the_kernel_suite() {
    // Small iteration counts keep the full matrix fast; the regimes
    // (blocked-heavy, wide register file, forwarding-heavy) are what
    // matter, not the run length.
    let kernels: Vec<(&str, Program)> = vec![
        ("div_chain", div_chain(4)),
        ("div_chain_seeded", div_chain_seeded(4)),
        ("wide_div_chain", wide_div_chain(4)),
        ("wide_div_chain_seeded", wide_div_chain_seeded(4)),
        ("forward_fan", forward_fan(4)),
        ("forward_fan_seeded", forward_fan_seeded(4)),
        ("branch_gauntlet", branch_gauntlet(16)),
        ("branch_gauntlet_seeded", branch_gauntlet_seeded(16)),
        ("spec_storm", spec_storm(16)),
        ("spec_storm_seeded", spec_storm_seeded(16)),
    ];
    let configs: Vec<(String, ProcConfig)> = ["usi", "usii"]
        .iter()
        .flat_map(|arch| {
            let base = match *arch {
                "usi" => ProcConfig::ultrascalar_i(64),
                _ => ProcConfig::ultrascalar_ii(64),
            };
            [
                (format!("{arch}/perfect"), base.clone()),
                (
                    format!("{arch}/bimodal"),
                    base.clone().with_predictor(PredictorKind::Bimodal(64)),
                ),
                (
                    format!("{arch}/pipelined"),
                    base.with_forwarding(ForwardModel::Pipelined { per_hop: 1 }),
                ),
            ]
        })
        .collect();

    for (cname, cfg) in &configs {
        for (kname, prog) in &kernels {
            for &b in &[3usize, 64] {
                let label = format!("{cname}/{kname}/b={b}");
                let population = workload::lane_variants(prog, b, 0xFEED ^ b as u64);
                let refs: Vec<&Program> = population.iter().collect();
                let expect = serial_runs(cfg, &refs);
                let mut engine = Ultrascalar::new(cfg.clone());
                let mut batcher = LaneBatcher::new();
                let mut got = vec![RunResult::recording_timings(); b];
                batcher.run_batch(&mut engine, &refs, &mut got);
                for (l, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert_identical(&label, g, e, l);
                }
                // And again on the warm engine: reuse must not change
                // results either.
                batcher.run_batch(&mut engine, &refs, &mut got);
                for (l, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert_identical(&label, g, e, l);
                }
            }
        }
    }
}

/// The branchy kernels exercise the regimes they were written for:
/// under a bimodal predictor both lane-batch (no serial demotion),
/// the leader's mispredicts segment the run into multiple epochs, and
/// `spec_storm`'s seeded wrong-path probe peels some — but not all —
/// lanes during replay, while `branch_gauntlet`'s shared-data control
/// replays peel-free.
#[test]
fn branchy_kernels_segment_into_epochs_and_spec_storm_replay_peels() {
    let cfg = ProcConfig::ultrascalar_i(64).with_predictor(PredictorKind::Bimodal(64));
    for (kname, prog, want_replay_peels) in [
        ("branch_gauntlet", branch_gauntlet_seeded(64), false),
        ("spec_storm", spec_storm_seeded(64), true),
    ] {
        let population = workload::lane_variants(&prog, 64, 0x1A17E5);
        let refs: Vec<&Program> = population.iter().collect();
        let expect = serial_runs(&cfg, &refs);
        let mut engine = Ultrascalar::new(cfg.clone());
        let mut batcher = LaneBatcher::new();
        let mut got = vec![RunResult::recording_timings(); 64];
        batcher.run_batch(&mut engine, &refs, &mut got);
        for (l, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_identical(kname, g, e, l);
        }
        let s = *batcher.stats();
        assert_eq!(s.batches, 1, "{kname}: the group must lane-batch");
        assert_eq!(s.fallbacks, 0, "{kname}: no serial demotion");
        assert!(s.epochs > 1, "{kname}: mispredicts must segment the run");
        assert_eq!(
            s.lane_runs + s.peels,
            64,
            "{kname}: every lane accounted for ({s:?})"
        );
        assert!(
            s.replay_peels <= s.peels,
            "{kname}: replay peels are a subset of peels ({s:?})"
        );
        if want_replay_peels {
            assert!(
                s.replay_peels > 0,
                "{kname}: the seeded wrong-path probe must peel lanes ({s:?})"
            );
            assert!(
                s.lane_runs > 1,
                "{kname}: most lanes must still ride the batch ({s:?})"
            );
        } else {
            assert_eq!(
                s.replay_peels, 0,
                "{kname}: shared-data control replays peel-free ({s:?})"
            );
            assert_eq!(s.lane_runs, 64, "{kname}: every lane converges ({s:?})");
        }
    }
}

//! Differential tests for lane-parallel batch execution: a batch of up
//! to 64 programs through [`LaneBatcher::run_batch`] must be
//! **byte-identical** — halted flag, cycles, registers, memory, stats,
//! per-instruction timings — to running each program serially through
//! a scalar engine. That is the mode's entire contract: lane batching
//! is a throughput optimisation, never an observable one.
//!
//! The random sweep over programs, configurations and batch sizes
//! lives in `differential.rs`; these tests pin directed shapes: every
//! ALU op and branch condition, epoch segmentation, a single divergent
//! lane, full convergence, fallbacks and warm scratch.

use rand::Rng;
use ultrascalar::{
    LaneBatcher, PredictorKind, ProcConfig, Processor, RunResult, Ultrascalar, MAX_LANES,
};
use ultrascalar_isa::workload::{self, RandomCfg};
use ultrascalar_isa::{AluOp, BranchCond, Program};

/// Serial ground truth: each program through a fresh engine.
fn serial_runs(cfg: &ProcConfig, programs: &[Program]) -> Vec<RunResult> {
    programs
        .iter()
        .map(|p| Ultrascalar::new(cfg.clone()).run_timed(p))
        .collect()
}

fn assert_identical(got: &RunResult, want: &RunResult, ctx: &str) {
    assert_eq!(got.halted, want.halted, "{ctx}: halted");
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles");
    assert_eq!(got.regs, want.regs, "{ctx}: registers");
    assert_eq!(got.mem, want.mem, "{ctx}: memory");
    assert_eq!(got.stats, want.stats, "{ctx}: stats");
    assert_eq!(
        got.recorded_timings(),
        want.recorded_timings(),
        "{ctx}: timings"
    );
}

/// Run one group both ways and compare every lane. Lane 0's lock-step
/// state must also verify against the engine: a verify demotion still
/// delivers correct serial results, so only this check exposes a wrong
/// lock-step evaluator.
fn check_batch(batcher: &mut LaneBatcher, cfg: &ProcConfig, programs: &[Program], ctx: &str) {
    let golden = serial_runs(cfg, programs);
    let refs: Vec<&Program> = programs.iter().collect();
    let mut out = vec![RunResult::recording_timings(); programs.len()];
    let mut engine = Ultrascalar::new(cfg.clone());
    batcher.run_batch(&mut engine, &refs, &mut out);
    for (l, (got, want)) in out.iter().zip(golden.iter()).enumerate() {
        assert_identical(got, want, &format!("{ctx} lane {l}"));
    }
    let stats = batcher.stats();
    assert_eq!(
        stats.fallback_verify, 0,
        "{ctx}: lane 0 failed to verify: {stats:?}"
    );
}

/// Every ALU op, in register form and with immediates 0, -1, 33 and
/// `i32::MIN`, then every branch condition, across a 64-lane group.
/// The ALU operands vary per lane and include division by zero,
/// `i32::MIN`, `u32::MAX` and shift amounts of 32 and more. Each branch
/// falls through to its own target, so the path never changes; lanes
/// whose branch operands compare differently from lane 0's peel, and
/// the rest must ride the batch with every register equal to its
/// serial run.
#[test]
fn every_alu_op_and_branch_cond_lane_batches() {
    // r1, r2: ALU operands; r3, r4: branch operands; results from r5.
    let mut src = String::new();
    let mut rd = 5;
    for op in AluOp::ALL {
        let m = op.mnemonic();
        src += &format!("{m} r{rd}, r1, r2\n");
        for imm in [0, -1, 33, i32::MIN] {
            src += &format!("{m}i r{}, r1, {imm}\n", rd + 1);
            rd += 1;
        }
        rd += 1;
    }
    src += &format!("sw r5, 1(r0)\nlw r{rd}, 1(r0)\n");
    for (i, cond) in BranchCond::ALL.iter().enumerate() {
        src += &format!("{} r3, r4, c{i}\nc{i}:\n", cond.mnemonic());
    }
    src += "halt\n";
    let base = ultrascalar_isa::asm::assemble(&src, rd + 1).expect("assembles");

    // ALU edge cases sit in lanes 0, 1, 4, 5, 8, 9, …, which never
    // peel; seeded values fill the rest.
    let edges: [(u32, u32); 12] = [
        (7, 0),
        (0x8000_0000, u32::MAX),
        (u32::MAX, u32::MAX),
        (0x8000_0000, 0),
        (0x1234_5678, 32),
        (0x8765_4321, 33),
        (0x8000_0001, 31),
        (u32::MAX, 63),
        (0, 0),
        (u32::MAX, 0x8000_0000),
        (0x8000_0000, 1),
        (0xDEAD_BEEF, 0xFFFF_FFE1),
    ];
    let mut state = 0x5EED_00A1_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 32) as u32
    };
    let programs: Vec<Program> = (0..MAX_LANES)
        .map(|l| {
            let k = l / 4 * 2 + l % 4;
            let (a, b) = match edges.get(k) {
                Some(&e) if l % 4 < 2 => e,
                _ => (next(), next()),
            };
            // r3 < r4 as signed values only, except in lanes 3 mod 4:
            // there in turn equal, greater, and less both ways.
            let l = l as u32;
            let (c, d) = match (l % 4, l / 4 % 3) {
                (3, 0) => (l, l),
                (3, 1) => (l + 9, 3),
                (3, _) => (l, 2 * l + 1),
                _ => (u32::MAX - l, 2 * l + 1),
            };
            let mut p = base.clone();
            p.init_regs[1..5].copy_from_slice(&[a, b, c, d]);
            p
        })
        .collect();
    let directions =
        |p: &Program| BranchCond::ALL.map(|cond| cond.eval(p.init_regs[3], p.init_regs[4]));
    let converged = programs
        .iter()
        .filter(|p| directions(p) == directions(&programs[0]))
        .count() as u64;

    let cfg = ProcConfig::ultrascalar_i(16);
    let mut batcher = LaneBatcher::new();
    check_batch(&mut batcher, &cfg, &programs, "every op");
    let stats = *batcher.stats();
    assert_eq!(stats.batches, 1, "the group must lane-batch: {stats:?}");
    assert!(stats.lane_runs > 1, "no lane rode the batch: {stats:?}");
    assert_eq!(stats.lane_runs, converged, "{stats:?}");
    assert_eq!(stats.peels, MAX_LANES as u64 - converged, "{stats:?}");
}

#[test]
fn standard_kernel_suite_matches_serial() {
    // Every named kernel, vectorized over lanes with independent
    // random initial registers, across the three paper architectures —
    // plus pipelined forwarding, which lane-batches like any other
    // configuration.
    let configs = [
        ("usi", ProcConfig::ultrascalar_i(16)),
        ("usii", ProcConfig::ultrascalar_ii(16)),
        ("hybrid", ProcConfig::hybrid(16, 4)),
        (
            "usi-pipelined",
            ProcConfig::ultrascalar_i(16)
                .with_forwarding(ultrascalar::ForwardModel::Pipelined { per_hop: 1 }),
        ),
    ];
    for (name, cfg) in &configs {
        let mut batcher = LaneBatcher::new();
        for (kernel, prog) in workload::standard_suite(7) {
            let programs = workload::lane_variants(&prog, 6, 0x1A5E5);
            check_batch(&mut batcher, cfg, &programs, &format!("{name}/{kernel}"));
        }
    }
}

#[test]
fn full_width_batch_matches_serial() {
    // All 64 lanes at once on a seed-sensitive serial chain.
    let cfg = ProcConfig::ultrascalar_i(16);
    let programs = workload::lane_variants(&workload::fibonacci(12), MAX_LANES, 99);
    let mut batcher = LaneBatcher::new();
    check_batch(&mut batcher, &cfg, &programs, "fib64");
    let stats = *batcher.stats();
    assert_eq!(stats.batches, 1, "group must lane-batch");
    assert_eq!(
        stats.lane_runs + stats.peels,
        MAX_LANES as u64,
        "every lane accounted for"
    );
}

/// A parameterised branchy loop in the `branch_gauntlet`/`spec_storm`
/// mould: shared `.word` data drives both a data-dependent diamond and
/// a `div`-delayed `beq` that mispredicts on every zero word under a
/// bimodal predictor, and the mispredict's wrong path probes the
/// per-lane register `r9` — so a batch splits into epochs at the
/// leader's flushes and lanes whose probe side differs from the
/// leader's peel during replay.
fn branchy_loop(iters: u32, data_seed: u64) -> Program {
    let words: Vec<String> = (0..8u64)
        .map(|i| {
            let mut v =
                (data_seed ^ (i.wrapping_mul(0x9E3779B97F4A7C15))).wrapping_mul(0xBF58476D1CE4E5B9);
            v ^= v >> 31;
            // ~1/4 zeros (the beq mispredicts), the rest a small mixed
            // odd/even spread (the diamond direction varies).
            if v.is_multiple_of(4) {
                "0".to_string()
            } else {
                ((v % 99_989) as u32 + 1).to_string()
            }
        })
        .collect();
    let src = format!(
        r"
            .word {words}
            li   r3, {iters}
            li   r7, 7
            li   r13, -16777216 ; 0xFF00_0000: the wrong-path probe threshold
            li   r15, 1
            li   r8, 0
        loop:
            and  r10, r8, r7
            lw   r4, (r10)
            div  r14, r4, r15   ; delays the beq so the wrong path runs long
            beq  r14, r0, skip  ; mispredicts on every zero word
            andi r11, r4, 1
            beq  r11, r0, even  ; shared-data diamond
            add  r2, r2, r4
            j    join
        even:
            sub  r2, r2, r4
        join:
            sltu r5, r0, r4
            subi r6, r5, 1      ; all-ones only on the zero-word wrong path
            and  r12, r9, r6
            bltu r12, r13, skip ; wrong-path probe of the per-lane r9
            add  r2, r2, r13
        skip:
            add  r2, r2, r4
            addi r8, r8, 1
            subi r3, r3, 1
            bne  r3, r0, loop
            halt
        ",
        words = words.join(", ")
    );
    ultrascalar_isa::asm::assemble(&src, 16).expect("branchy_loop assembles")
}

/// The pinned sweep: bimodal configs × branchy programs × batch
/// {3, 64}, every lane byte-identical to its serial twin — registers,
/// memory, cycles, stats, timings — however the epochs segment and
/// however many lanes peel mid-replay.
#[test]
fn bimodal_branchy_batches_match_serial() {
    rand::cases(0x1A4E_0001, 24, |rng, _| {
        let (seed, data_seed): (u64, u64) = (rng.gen(), rng.gen());
        let iters = rng.gen_range(4u32..20);
        let pred = PredictorKind::Bimodal(1usize << rng.gen_range(2u32..7));
        let (name, cfg) = match rng.gen_range(0..3) {
            0 => ("usi", ProcConfig::ultrascalar_i(16).with_predictor(pred)),
            1 => ("usii", ProcConfig::ultrascalar_ii(16).with_predictor(pred)),
            _ => ("hybrid", ProcConfig::hybrid(16, 4).with_predictor(pred)),
        };
        let random_prog: bool = rng.gen();
        let prog = if random_prog {
            workload::random_program(&RandomCfg {
                len: 24,
                num_regs: 6,
                branch_frac: 0.2,
                li_frac: 0.1,
                mem_span: 16,
                base_regs: 6,
                seed: data_seed,
                ..RandomCfg::default()
            })
        } else {
            branchy_loop(iters, data_seed)
        };
        if prog.validate().is_err() {
            return;
        }
        let mut batcher = LaneBatcher::new();
        for b in [3usize, 64] {
            let programs = workload::lane_variants(&prog, b, seed);
            check_batch(&mut batcher, &cfg, &programs, &format!("{name}/b={b}"));
        }
        let stats = *batcher.stats();
        // Both groups (b=3 and b=64) either lane-batched or demoted
        // with the demotion counted; batched groups account for every
        // lane as a lock-step run or a peel.
        assert_eq!(stats.batches + stats.fallbacks, 2, "{stats:?}");
        assert!(stats.lane_runs + stats.peels <= 67, "{stats:?}");
        assert!(stats.replay_peels <= stats.peels, "{stats:?}");
        // A batched branchy run must actually segment: the kernel's
        // zero words force leader mispredicts under every bimodal
        // table size.
        if !random_prog && stats.batches > 0 {
            assert!(stats.epochs > stats.batches, "{stats:?}");
        }
    });
}

#[test]
fn single_divergent_lane_peels_at_epoch_boundary() {
    // The directed shape from the ISSUE: exactly one lane's branch
    // direction diverges at an epoch boundary. Data word 5 is the only
    // zero, so the div-delayed `beq` mispredicts exactly there (the
    // seven nonzero words train the counter not-taken); the wrong path
    // probes `bltu r9, threshold`, and only lane 2's `r9` sits above
    // the threshold — its direction differs from the leader's, it
    // peels during replay, and every other lane rides the batch across
    // the boundary.
    let src = r"
            .word 3, 9, 5, 7, 11, 0, 13, 17
            li   r3, 8
            li   r7, 7
            li   r13, -16777216 ; 0xFF00_0000: the probe threshold
            li   r15, 1
            li   r8, 0
        loop:
            and  r10, r8, r7
            lw   r4, (r10)
            div  r14, r4, r15
            beq  r14, r0, skip  ; mispredicts only at the zero word
            sltu r5, r0, r4
            subi r6, r5, 1
            and  r12, r9, r6
            bltu r12, r13, skip ; wrong path: probes the per-lane r9
            add  r2, r2, r13
        skip:
            add  r2, r2, r4
            addi r8, r8, 1
            subi r3, r3, 1
            bne  r3, r0, loop
            halt
        ";
    let base = ultrascalar_isa::asm::assemble(src, 16).expect("directed kernel assembles");
    let programs: Vec<Program> = (0..4)
        .map(|l| {
            let mut p = base.clone();
            p.init_regs[9] = if l == 2 { 0xFF00_0001 } else { l };
            p.init_regs[2] = 100 + l; // distinct per-lane results
            p
        })
        .collect();
    let cfg = ProcConfig::ultrascalar_i(16).with_predictor(PredictorKind::Bimodal(64));
    let mut batcher = LaneBatcher::new();
    check_batch(&mut batcher, &cfg, &programs, "directed divergence");
    let stats = *batcher.stats();
    assert_eq!(stats.batches, 1, "the group must lane-batch: {stats:?}");
    assert_eq!(stats.fallbacks, 0, "no serial demotion: {stats:?}");
    assert!(
        stats.epochs >= 2,
        "the mispredict splits the run: {stats:?}"
    );
    assert_eq!(stats.peels, 1, "exactly lane 2 diverges: {stats:?}");
    assert_eq!(
        stats.replay_peels, 1,
        "the divergence is at the boundary replay, not the committed path: {stats:?}"
    );
    assert_eq!(
        stats.lane_runs, 3,
        "the other lanes ride the batch: {stats:?}"
    );
}

#[test]
fn identical_lanes_fully_converge() {
    // N identical programs. No lane can
    // peel, and every lane's result equals the leader's.
    let cfg = ProcConfig::ultrascalar_i(8);
    let prog = workload::dot_product(24);
    let programs: Vec<Program> = (0..5).map(|_| prog.clone()).collect();
    let mut batcher = LaneBatcher::new();
    check_batch(&mut batcher, &cfg, &programs, "identical");
    let stats = *batcher.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.lane_runs, 5);
    assert_eq!(stats.peels, 0);
    assert_eq!(stats.fallbacks, 0);
}

#[test]
fn incompatible_groups_fall_back_serially() {
    // Different instruction streams cannot share a pass; the group
    // must fall back to serial runs with the fallback counted — and
    // still be byte-identical.
    let cfg = ProcConfig::ultrascalar_i(8);
    let a = workload::fibonacci(10);
    let b = workload::dot_product(16);
    let programs = vec![a.clone(), b, a];
    let mut batcher = LaneBatcher::new();
    check_batch(&mut batcher, &cfg, &programs, "mixed");
    let stats = *batcher.stats();
    assert_eq!(stats.batches, 0);
    assert_eq!(stats.fallbacks, 1);
    assert_eq!(stats.lane_runs, 0);
}

#[test]
fn batch_of_one_short_circuits() {
    let cfg = ProcConfig::ultrascalar_i(8);
    let programs = vec![workload::fibonacci(10)];
    let mut batcher = LaneBatcher::new();
    check_batch(&mut batcher, &cfg, &programs, "single");
    assert_eq!(*batcher.stats(), Default::default(), "no counters move");
}

#[test]
fn warm_batcher_reruns_are_identical() {
    // The same batcher across many groups (the lane pool's pattern):
    // scratch reuse must never leak state between batches.
    let cfg = ProcConfig::ultrascalar_i(16);
    let mut batcher = LaneBatcher::new();
    let mut engine = Ultrascalar::new(cfg.clone());
    let programs = workload::lane_variants(&workload::memcpy(16), 8, 5);
    let refs: Vec<&Program> = programs.iter().collect();
    let golden = serial_runs(&cfg, &programs);
    let mut out = vec![RunResult::recording_timings(); programs.len()];
    for round in 0..3 {
        // Interleave an unrelated group so scratch is dirty.
        let other = workload::lane_variants(&workload::sieve(20), 3, round as u64);
        let other_refs: Vec<&Program> = other.iter().collect();
        let mut other_out = vec![RunResult::default(); other.len()];
        batcher.run_batch(&mut engine, &other_refs, &mut other_out);
        batcher.run_batch(&mut engine, &refs, &mut out);
        for (l, (got, want)) in out.iter().zip(golden.iter()).enumerate() {
            assert_identical(got, want, &format!("round {round} lane {l}"));
        }
    }
}

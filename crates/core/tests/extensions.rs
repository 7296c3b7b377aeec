//! Tests for the paper's extension mechanisms: the shared-ALU
//! scheduler (§1/§7), memory renaming (§7), the pipelined
//! (distance-dependent) forwarding study (§7), cluster caches and
//! fetch width. These pin each mechanism's effect; that every
//! mechanism, alone or combined, preserves architectural state and
//! US-I/baseline identity is checked in `differential.rs`.

use rand::Rng;
use ultrascalar::{ForwardModel, PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_isa::assemble;
use ultrascalar_isa::workload::{self, RandomCfg};

// ---------- shared ALUs ----------

#[test]
fn more_alus_never_hurt() {
    let prog = workload::matvec(8, 8);
    let mut prev = u64::MAX;
    for k in [1usize, 2, 4, 8, 16] {
        let r = Ultrascalar::new(ProcConfig::ultrascalar_i(16).with_shared_alus(k)).run(&prog);
        assert!(r.halted);
        assert!(r.cycles <= prev, "k={k}: {} > {}", r.cycles, prev);
        prev = r.cycles;
    }
}

#[test]
fn one_alu_serialises_arithmetic() {
    // Eight independent adds, one ALU: issue must serialise at one per
    // cycle even though all are ready at once.
    let src = "
        add r1, r0, r0
        add r2, r0, r0
        add r3, r0, r0
        add r4, r0, r0
        add r5, r0, r0
        add r6, r0, r0
        add r7, r0, r0
        add r1, r0, r0
        halt
    ";
    let prog = assemble(src, 8).unwrap();
    let r1 = Ultrascalar::new(ProcConfig::ultrascalar_i(16).with_shared_alus(1)).run_timed(&prog);
    let issues: Vec<u64> = r1
        .recorded_timings()
        .iter()
        .take(8)
        .map(|x| x.issue)
        .collect();
    assert_eq!(issues, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    assert!(r1.stats.alu_stalls > 0);
    // With eight ALUs they all go at once.
    let r8 = Ultrascalar::new(ProcConfig::ultrascalar_i(16).with_shared_alus(8)).run_timed(&prog);
    assert!(r8.recorded_timings().iter().take(8).all(|x| x.issue == 0));
}

#[test]
fn multi_cycle_ops_occupy_the_alu() {
    // Two independent divides, one ALU: the second waits the full ten
    // cycles for the unit, not just one issue slot.
    let src = "
        div r1, r0, r0
        div r2, r0, r0
        halt
    ";
    let prog = assemble(src, 4).unwrap();
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(8).with_shared_alus(1)).run_timed(&prog);
    assert_eq!(r.recorded_timings()[0].issue, 0);
    assert_eq!(r.recorded_timings()[1].issue, 10);
}

#[test]
fn oldest_first_alu_priority() {
    // Older ready instructions win the ALU: the young add cannot
    // starve the old one.
    let src = "
        div  r1, r0, r0     ; occupies the ALU 10 cycles
        add  r2, r1, r0     ; old, but waits on r1
        add  r3, r0, r0     ; young and ready
        halt
    ";
    let prog = assemble(src, 4).unwrap();
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(8).with_shared_alus(1)).run_timed(&prog);
    // div at 0..9; the young independent add gets the unit at 10? No:
    // the unit frees at cycle 10, and the *older* dependent add is also
    // ready at 10 (div completes at 9) — oldest wins.
    assert_eq!(r.recorded_timings()[1].issue, 10);
    assert_eq!(r.recorded_timings()[2].issue, 11);
}

#[test]
fn paper_projection_window_128_with_16_shared_alus() {
    // The paper's closing configuration runs and stays correct; ALU
    // sharing costs little on real kernels.
    for (name, prog) in workload::standard_suite(41) {
        let full = Ultrascalar::new(ProcConfig::hybrid(128, 32)).run(&prog);
        let shared = Ultrascalar::new(ProcConfig::hybrid(128, 32).with_shared_alus(16)).run(&prog);
        assert!(shared.halted, "{name}");
        assert_eq!(shared.regs, full.regs, "{name}");
        assert!(
            shared.cycles <= full.cycles * 2,
            "{name}: sharing 16 ALUs must not double the cycle count \
             ({} vs {})",
            shared.cycles,
            full.cycles
        );
    }
}

// ---------- memory renaming ----------

#[test]
fn store_to_load_forwarding_hits_and_saves_memory_traffic() {
    // Store then immediately reload the same address, repeatedly.
    let src = "
        li r1, 5
        li r2, 100
        sw r2, (r1)
        lw r3, (r1)
        addi r3, r3, 1
        sw r3, (r1)
        lw r4, (r1)
        addi r4, r4, 1
        sw r4, (r1)
        lw r5, (r1)
        halt
    ";
    let prog = assemble(src, 8).unwrap();
    let plain = Ultrascalar::new(ProcConfig::ultrascalar_i(16)).run(&prog);
    let renamed = Ultrascalar::new(ProcConfig::ultrascalar_i(16).with_memory_renaming()).run(&prog);
    assert_eq!(plain.regs, renamed.regs);
    assert_eq!(renamed.regs[5], 102);
    assert!(
        renamed.stats.store_forwards >= 3,
        "{}",
        renamed.stats.store_forwards
    );
    // Forwarded loads never touch the banks.
    assert!(renamed.stats.mem.loads < plain.stats.mem.loads);
    assert!(renamed.cycles <= plain.cycles);
}

#[test]
fn renaming_lets_independent_loads_bypass_stores() {
    // A store to one address followed by loads from different
    // addresses: with renaming the loads need not wait for the store to
    // reach memory.
    let src = "
        li r1, 0
        li r2, 50
        sw r2, 40(r1)
        lw r3, 1(r1)
        lw r4, 2(r1)
        lw r5, 3(r1)
        halt
    ";
    let prog = assemble(src, 8).unwrap();
    let mem = ultrascalar_memsys::MemConfig {
        n_leaves: 8,
        bandwidth: ultrascalar_memsys::Bandwidth::full(),
        banks: 8,
        bank_occupancy: 1,
        hop_latency: 2, // make store completion slow
        base_latency: 2,
        words: 128,
        network: ultrascalar_memsys::NetworkKind::FatTree,
        cluster_cache: None,
    };
    let plain = Ultrascalar::new(ProcConfig::ultrascalar_i(8).with_mem(mem.clone())).run(&prog);
    let renamed = Ultrascalar::new(
        ProcConfig::ultrascalar_i(8)
            .with_mem(mem)
            .with_memory_renaming(),
    )
    .run(&prog);
    assert_eq!(plain.regs, renamed.regs);
    assert!(
        renamed.cycles < plain.cycles,
        "bypassing must help: {} vs {}",
        renamed.cycles,
        plain.cycles
    );
}

#[test]
fn renaming_respects_aliasing() {
    // The load's address collides with the *middle* store, not the
    // last: the forwarded value must come from the nearest matching
    // store.
    let src = "
        li r1, 7
        li r2, 11
        li r3, 1
        sw r2, (r1)     ; mem[7] = 11
        sw r3, 3(r1)    ; mem[10] = 1
        lw r4, (r1)     ; must see 11
        halt
    ";
    let prog = assemble(src, 8).unwrap();
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(8).with_memory_renaming()).run(&prog);
    assert_eq!(r.regs[4], 11);
}

/// Renaming can only help (or tie) cycle counts under ideal memory.
#[test]
fn prop_renaming_never_slower_under_ideal_memory() {
    rand::cases(0xE7E_0001, 16, |rng, _| {
        let prog = workload::random_program(&RandomCfg {
            seed: rng.gen_range(0..1_000),
            len: 100,
            mem_frac: 0.4,
            mem_span: 16,
            branch_frac: 0.0,
            ..RandomCfg::default()
        });
        let base = Ultrascalar::new(ProcConfig::ultrascalar_i(8)).run(&prog);
        let ren = Ultrascalar::new(ProcConfig::ultrascalar_i(8).with_memory_renaming()).run(&prog);
        assert_eq!(base.regs, ren.regs);
        assert!(
            ren.cycles <= base.cycles,
            "{} vs {}",
            ren.cycles,
            base.cycles
        );
    });
}

// ---------- pipelined forwarding ----------

#[test]
fn per_hop_zero_equals_single_cycle() {
    for (name, prog) in workload::standard_suite(53) {
        let a = Ultrascalar::new(ProcConfig::ultrascalar_i(8)).run_timed(&prog);
        let b = Ultrascalar::new(
            ProcConfig::ultrascalar_i(8).with_forwarding(ForwardModel::Pipelined { per_hop: 0 }),
        )
        .run_timed(&prog);
        assert_eq!(a.cycles, b.cycles, "{name}");
        assert_eq!(a.recorded_timings(), b.recorded_timings(), "{name}");
    }
}

#[test]
fn pipelining_costs_cycles_but_never_correctness() {
    let prog = workload::fibonacci(32);
    let flat = Ultrascalar::new(ProcConfig::ultrascalar_i(16)).run(&prog);
    let piped = Ultrascalar::new(
        ProcConfig::ultrascalar_i(16).with_forwarding(ForwardModel::Pipelined { per_hop: 1 }),
    )
    .run(&prog);
    assert_eq!(flat.regs, piped.regs);
    assert!(piped.cycles >= flat.cycles);
}

/// The paper's §7 claim, measured: programs whose instructions "depend
/// on their immediate predecessors rather than on far-previous
/// instructions" suffer less from distance-dependent latency.
#[test]
fn local_dependencies_degrade_less_under_pipelining() {
    // Both programs: a 6-step serial chain on r0 plus 42 independent
    // filler instructions — identical instruction mix and dependence
    // depth, different producer→consumer *distances*.
    let filler = "xor r7, r6, r6\n";
    // Local: the chain steps are adjacent in program order (distance 1).
    let mut local = String::from("li r0, 0\n");
    for _ in 0..6 {
        local.push_str("addi r0, r0, 1\n");
    }
    for _ in 0..42 {
        local.push_str(filler);
    }
    local.push_str("halt\n");
    // Far: seven fillers between consecutive chain steps, so each
    // dependence spans eight window slots (half the 16-wide window —
    // crossing high H-tree levels).
    let mut far = String::from("li r0, 0\n");
    for _ in 0..6 {
        far.push_str("addi r0, r0, 1\n");
        for _ in 0..7 {
            far.push_str(filler);
        }
    }
    far.push_str("halt\n");

    let slowdown = |src: &str| {
        let prog = assemble(src, 8).unwrap();
        let flat = Ultrascalar::new(ProcConfig::ultrascalar_i(16))
            .run(&prog)
            .cycles;
        let piped = Ultrascalar::new(
            ProcConfig::ultrascalar_i(16).with_forwarding(ForwardModel::Pipelined { per_hop: 2 }),
        )
        .run(&prog)
        .cycles;
        piped as f64 / flat as f64
    };
    let local_sd = slowdown(&local);
    let far_sd = slowdown(&far);
    assert!(
        local_sd <= far_sd,
        "local chain slowdown {local_sd:.2} must not exceed far-chain {far_sd:.2}"
    );
}

// ---------- distributed cluster caches (memsys feature, §7) ----------

#[test]
fn cluster_caches_help_reuse_heavy_kernels() {
    use ultrascalar_memsys::{Bandwidth, CacheConfig, MemConfig, NetworkKind};
    let base = MemConfig {
        n_leaves: 16,
        bandwidth: Bandwidth::constant(1.0),
        banks: 4,
        bank_occupancy: 1,
        hop_latency: 1,
        base_latency: 0,
        words: 1 << 12,
        network: NetworkKind::FatTree,
        cluster_cache: None,
    };
    let cached = base.clone().with_cluster_cache(CacheConfig::small(4));
    let prog = workload::bubble_sort(24, 3);
    let pred = PredictorKind::Bimodal(64);
    let plain = Ultrascalar::new(
        ProcConfig::hybrid(16, 4)
            .with_mem(base)
            .with_predictor(pred),
    )
    .run(&prog);
    let with_cache = Ultrascalar::new(
        ProcConfig::hybrid(16, 4)
            .with_mem(cached)
            .with_predictor(pred),
    )
    .run(&prog);
    assert_eq!(plain.mem, with_cache.mem);
    assert!(with_cache.stats.mem.cache_hits > 0);
    assert!(
        with_cache.cycles <= plain.cycles,
        "{} vs {}",
        with_cache.cycles,
        plain.cycles
    );
}

// ---------- fetch-width ablation ----------

#[test]
fn narrower_fetch_never_helps() {
    let prog = workload::vec_scale(48, 3);
    let mut prev = 0u64;
    for f in [1usize, 2, 4, 8, 16] {
        let r = Ultrascalar::new(ProcConfig::ultrascalar_i(16).with_fetch_width(f)).run(&prog);
        assert!(r.halted);
        if prev != 0 {
            assert!(r.cycles <= prev, "fetch {f}: {} > {}", r.cycles, prev);
        }
        prev = r.cycles;
    }
    // Unlimited fetch equals fetch width = window.
    let unlimited = Ultrascalar::new(ProcConfig::ultrascalar_i(16)).run(&prog);
    let full = Ultrascalar::new(ProcConfig::ultrascalar_i(16).with_fetch_width(16)).run(&prog);
    assert_eq!(unlimited.cycles, full.cycles);
}

#[test]
fn fetch_width_one_caps_ipc_at_one() {
    let prog = workload::vec_scale(32, 2);
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(8).with_fetch_width(1)).run(&prog);
    assert!(r.ipc() <= 1.0 + 1e-9, "IPC {} with fetch width 1", r.ipc());
}

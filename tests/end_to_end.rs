//! Workspace integration tests: the full pipeline from assembly text
//! through every processor model, the memory subsystem and the
//! gate-level substrate, crossing every crate boundary.

use ultrascalar_suite::core::processor::check_against_golden;
use ultrascalar_suite::core::{BaselineOoO, PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_suite::isa::{assemble, workload, Interp};
use ultrascalar_suite::memsys::{Bandwidth, MemConfig, NetworkKind};

/// Assembly text → program → three processors + baseline → identical
/// architectural state, equal to the golden interpreter.
#[test]
fn assembly_to_silicon_pipeline() {
    let src = "
            li   r1, 0
            li   r2, 24          ; n
            li   r3, 0           ; acc
            li   r7, 0
        loop:
            lw   r4, (r1)
            mul  r4, r4, r4
            add  r3, r3, r4
            addi r1, r1, 1
            subi r2, r2, 1
            bne  r2, r7, loop
            sw   r3, 100(r7)
            halt
    ";
    let program = assemble(src, 8).unwrap().with_init_mem((1..=24).collect());

    let expect: u32 = (1u32..=24).map(|x| x * x).sum();
    let mem = MemConfig {
        n_leaves: 8,
        bandwidth: Bandwidth::sqrt(),
        banks: 4,
        bank_occupancy: 1,
        hop_latency: 1,
        base_latency: 0,
        words: 256,
        network: NetworkKind::FatTree,
        cluster_cache: None,
    };
    for cfg in [
        ProcConfig::ultrascalar_i(8),
        ProcConfig::hybrid(8, 4),
        ProcConfig::ultrascalar_ii(8),
    ] {
        let cfg = cfg
            .with_mem(mem.clone())
            .with_predictor(PredictorKind::Bimodal(16));
        let mut p = Ultrascalar::new(cfg.clone());
        let r = p.run(&program);
        assert!(r.halted, "{}", p.name());
        assert_eq!(r.regs[3], expect, "{}", p.name());
        assert_eq!(r.mem[100], expect, "{}", p.name());
        check_against_golden(&r, &program, 100_000).unwrap();

        let mut b = BaselineOoO::new(cfg);
        let rb = b.run(&program);
        assert_eq!(rb.regs[3], expect);
    }
}

/// The standard kernel suite, all processor shapes, stressed memory,
/// imperfect prediction: architectural equivalence end to end.
#[test]
fn full_suite_on_all_models_with_realistic_config() {
    let n = 16;
    let mem = MemConfig::realistic(n, 1 << 12);
    for (name, prog) in workload::standard_suite(99) {
        for cluster in [1usize, 4, 16] {
            let cfg = ProcConfig::hybrid(n, cluster)
                .with_mem(mem.clone())
                .with_predictor(PredictorKind::Bimodal(128));
            let mut p = Ultrascalar::new(cfg);
            let r = p.run(&prog);
            check_against_golden(&r, &prog, 5_000_000)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", p.name()));
        }
    }
}

/// Random programs across the whole configuration cube.
#[test]
fn random_cube() {
    for seed in 0..6u64 {
        let prog = workload::random_program(&workload::RandomCfg {
            seed,
            len: 200,
            mem_frac: 0.3,
            branch_frac: 0.12,
            ..Default::default()
        });
        for n in [2usize, 8, 32] {
            for pred in [PredictorKind::Perfect, PredictorKind::NotTaken] {
                let cfg = ProcConfig::ultrascalar_i(n).with_predictor(pred);
                let mut p = Ultrascalar::new(cfg);
                let r = p.run(&prog);
                check_against_golden(&r, &prog, 1_000_000)
                    .unwrap_or_else(|e| panic!("seed {seed} n {n} {pred:?}: {e}"));
            }
        }
    }
}

/// The interpreter and the processors agree on dynamic instruction
/// counts (commit-stream equivalence, not just final state).
#[test]
fn committed_counts_match_interpreter() {
    for (name, prog) in workload::standard_suite(7) {
        let mut interp = Interp::new(&prog, 1 << 12);
        let steps = interp.run(5_000_000).steps() as u64;
        let mut p = Ultrascalar::new(ProcConfig::ultrascalar_ii(8));
        let r = p.run(&prog);
        assert_eq!(r.stats.committed, steps, "{name}");
    }
}

/// Gate-level CSPP ≡ algorithmic CSPP ≡ what the processor actually
/// forwards: the value each station receives for a register equals the
/// circuit's output for the same snapshot.
#[test]
fn circuit_agrees_with_prefix_model_through_umbrella() {
    use ultrascalar_suite::circuit::build::bus_value;
    use ultrascalar_suite::circuit::generators::{CombineOp, CsppTree};
    use ultrascalar_suite::circuit::Netlist;
    use ultrascalar_suite::prefix::{cspp_ring, First};

    let n = 24;
    let vals: Vec<u64> = (0..n as u64).map(|i| i * 13 % 97).collect();
    let seg: Vec<bool> = (0..n).map(|i| i % 5 == 2).collect();

    let mut nl = Netlist::new();
    let tree = CsppTree::build(&mut nl, n, 8, CombineOp::First);
    let mut inputs = vec![false; nl.num_inputs()];
    for i in 0..n {
        for (b, &w) in tree.values[i].iter().enumerate() {
            inputs[w.0 as usize] = vals[i] >> b & 1 == 1;
        }
        inputs[tree.seg[i].0 as usize] = seg[i];
    }
    let eval = nl.evaluate(&inputs).unwrap();
    let model = cspp_ring::<u64, First>(&vals, &seg);
    for (i, m) in model.iter().enumerate() {
        assert_eq!(bus_value(&eval, &tree.out_value[i]), m.value, "station {i}");
    }
}

/// Memory-bandwidth plumbing reaches the processor: the same kernel is
/// strictly slower through a bandwidth-1 tree than through an ideal
/// one, and both stay architecturally correct.
#[test]
fn bandwidth_shapes_performance_not_semantics() {
    let mut src = String::from("li r0, 0\n");
    for i in 0..24 {
        src.push_str(&format!("lw r{}, {}(r0)\n", 1 + i % 7, i));
    }
    src.push_str("halt\n");
    let prog = assemble(&src, 8)
        .unwrap()
        .with_init_mem((0..64).map(|i| i * 2 + 1).collect());

    let fast_cfg = ProcConfig::ultrascalar_i(8).with_mem(MemConfig::ideal(8, 128));
    let slow_cfg = ProcConfig::ultrascalar_i(8).with_mem(MemConfig {
        n_leaves: 8,
        bandwidth: Bandwidth::constant(1.0),
        banks: 8,
        bank_occupancy: 1,
        hop_latency: 0,
        base_latency: 0,
        words: 128,
        network: NetworkKind::FatTree,
        cluster_cache: None,
    });
    let fast = Ultrascalar::new(fast_cfg).run(&prog);
    let slow = Ultrascalar::new(slow_cfg).run(&prog);
    assert!(fast.halted && slow.halted);
    assert_eq!(fast.regs, slow.regs);
    assert!(
        slow.cycles > fast.cycles,
        "bandwidth 1 ({}) must cost more cycles than ideal ({})",
        slow.cycles,
        fast.cycles
    );
    assert!(slow.stats.mem.link_rejections > 0);
}

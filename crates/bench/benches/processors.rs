//! Criterion benches of the processor models: cycles-per-second
//! simulation throughput across architectures, window sizes and
//! workloads, plus the golden interpreter as the speed-of-light
//! reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use ultrascalar::{BaselineOoO, PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_isa::{workload, Interp, Program};
use ultrascalar_memsys::MemConfig;

fn bench_interp(c: &mut Criterion) {
    let prog = workload::dot_product(256);
    let mut g = c.benchmark_group("golden_interp");
    g.bench_function("dot_product_256", |b| {
        b.iter(|| {
            let mut m = Interp::new(black_box(&prog), 1 << 12);
            m.run(1_000_000).steps()
        })
    });
    g.finish();
}

fn bench_processors(c: &mut Criterion) {
    let prog = workload::dot_product(64);
    let mut g = c.benchmark_group("processor_run");
    for &n in &[8usize, 32, 128] {
        let mk = |cluster: usize| {
            ProcConfig::hybrid(n, cluster).with_predictor(PredictorKind::Bimodal(64))
        };
        g.bench_with_input(BenchmarkId::new("ultrascalar_i", n), &n, |b, &n| {
            let cfg = mk(1);
            b.iter(|| Ultrascalar::new(cfg.clone()).run(black_box(&prog)).cycles);
            let _ = n;
        });
        g.bench_with_input(BenchmarkId::new("ultrascalar_ii", n), &n, |b, &n| {
            let cfg = mk(n);
            b.iter(|| Ultrascalar::new(cfg.clone()).run(black_box(&prog)).cycles)
        });
        g.bench_with_input(BenchmarkId::new("hybrid_c8", n), &n, |b, _| {
            let cfg = mk(8.min(n));
            b.iter(|| Ultrascalar::new(cfg.clone()).run(black_box(&prog)).cycles)
        });
        g.bench_with_input(BenchmarkId::new("baseline_ooo", n), &n, |b, _| {
            let cfg = mk(1);
            b.iter(|| BaselineOoO::new(cfg.clone()).run(black_box(&prog)).cycles)
        });
    }
    g.finish();
}

fn bench_simulated_cycle_rate(c: &mut Criterion) {
    // Cycles simulated per wall-second on a long-running kernel.
    let prog = workload::bubble_sort(48, 5);
    let mut g = c.benchmark_group("cycle_rate");
    for &n in &[16usize, 64] {
        let cfg = ProcConfig::ultrascalar_i(n).with_predictor(PredictorKind::Bimodal(256));
        let cycles = Ultrascalar::new(cfg.clone()).run(&prog).cycles;
        g.throughput(Throughput::Elements(cycles));
        g.bench_with_input(BenchmarkId::new("usi_bubble_sort", n), &cfg, |b, cfg| {
            b.iter(|| Ultrascalar::new(cfg.clone()).run(black_box(&prog)).cycles)
        });
    }
    g.finish();
}

/// Dependent `div` chains in a loop: each iteration stalls the window
/// for tens of cycles at a time, the regime the event-driven loop is
/// built for.
fn div_chain(iters: u32) -> Program {
    let src = format!(
        r"
            li   r2, 3
            li   r3, {iters}
            li   r7, 0
            li   r1, 1000000007
        loop:
            div  r4, r1, r2
            div  r4, r4, r2
            div  r4, r4, r2
            div  r1, r4, r2     ; loop-carried: serial at any window size
            subi r3, r3, 1
            bne  r3, r7, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 8).expect("div_chain kernel assembles")
}

/// Whole-processor step throughput (simulated cycles per wall-second):
/// US-I, US-II and the hybrid at n ∈ {16, 64, 256} on a long-latency
/// div chain, a memory-latency-bound pointer chase, and a dense-issue
/// dot product. `event/…` rows run the default event-driven engine and
/// `naive/…` rows the retained tick-every-cycle reference — both
/// simulate identical cycle counts, so the elem/s throughput columns
/// compare directly.
fn bench_step_throughput(c: &mut Criterion) {
    let workloads: Vec<(&str, Program, bool)> = vec![
        ("div_chain", div_chain(48), false),
        // Realistic (banked, hop-latency) memory makes every hop of the
        // chase a long-latency event.
        ("pointer_chase", workload::pointer_chase(96, 11), true),
        ("dense_dot", workload::dot_product(96), false),
    ];
    let mut g = c.benchmark_group("step_throughput");
    for &n in &[16usize, 64, 256] {
        let archs: Vec<(String, ProcConfig)> = vec![
            ("usi".to_string(), ProcConfig::ultrascalar_i(n)),
            ("usii".to_string(), ProcConfig::ultrascalar_ii(n)),
            (format!("hybrid_c{}", n / 4), ProcConfig::hybrid(n, n / 4)),
        ]
        .into_iter()
        .map(|(a, cfg)| (a, cfg.with_predictor(PredictorKind::Bimodal(64))))
        .collect();
        for (arch, cfg) in &archs {
            for (kernel, prog, realistic_mem) in &workloads {
                let cfg = if *realistic_mem {
                    cfg.clone().with_mem(MemConfig::realistic(n, 1 << 12))
                } else {
                    cfg.clone()
                };
                let r = Ultrascalar::new(cfg.clone()).run(prog);
                assert!(r.halted, "{arch}/{kernel} halts at n = {n}");
                g.throughput(Throughput::Elements(r.cycles));
                let id = format!("{arch}/{kernel}/n={n}");
                g.bench_with_input(BenchmarkId::new("event", &id), &cfg, |b, cfg| {
                    b.iter(|| Ultrascalar::new(cfg.clone()).run(black_box(prog)).cycles)
                });
                let naive = cfg.clone().without_cycle_skipping();
                g.bench_with_input(BenchmarkId::new("naive", &id), &naive, |b, cfg| {
                    b.iter(|| Ultrascalar::new(cfg.clone()).run(black_box(prog)).cycles)
                });
            }
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_interp, bench_processors, bench_simulated_cycle_rate, bench_step_throughput
}
criterion_main!(benches);

//! Criterion microbenches of the simulator substrate: prefix scans
//! (serial vs tree), CSPP evaluation, gate-level netlist construction
//! and constructive evaluation, and the fat-tree admission path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use ultrascalar_circuit::generators::{CombineOp, CsppTree};
use ultrascalar_circuit::Netlist;
use ultrascalar_memsys::{Bandwidth, MemConfig, MemRequest, MemSystem, NetworkKind, ReqKind};
use ultrascalar_prefix::{cspp_ring, cspp_tree, scan, First, Sum};

fn bench_scans(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefix_scan");
    for &n in &[64usize, 1024, 16384] {
        let xs: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("serial_inclusive", n), &xs, |b, xs| {
            b.iter(|| scan::scan_inclusive::<_, Sum>(black_box(xs)))
        });
        g.bench_with_input(BenchmarkId::new("tree_inclusive", n), &xs, |b, xs| {
            b.iter(|| ultrascalar_prefix::tree_scan_inclusive::<_, Sum>(black_box(xs)))
        });
    }
    g.finish();
}

fn bench_cspp(c: &mut Criterion) {
    let mut g = c.benchmark_group("cspp");
    for &n in &[64usize, 256, 1024] {
        let vals: Vec<u64> = (0..n as u64).collect();
        let seg: Vec<bool> = (0..n).map(|i| i % 7 == 0).collect();
        g.throughput(Throughput::Elements(n as u64));
        // The quadratic ring is the test oracle, not a contender; one
        // small size keeps it on the chart without dominating runtime.
        if n == 64 {
            g.bench_with_input(
                BenchmarkId::new("ring_reference", n),
                &(&vals, &seg),
                |b, (v, s)| b.iter(|| cspp_ring::<_, First>(black_box(v), black_box(s))),
            );
        }
        g.bench_with_input(BenchmarkId::new("tree", n), &(&vals, &seg), |b, (v, s)| {
            b.iter(|| cspp_tree::<_, First>(black_box(v), black_box(s)))
        });
    }
    g.finish();
}

fn bench_netlist(c: &mut Criterion) {
    let mut g = c.benchmark_group("netlist");
    for &n in &[16usize, 64, 256] {
        g.bench_with_input(BenchmarkId::new("build_cspp_tree", n), &n, |b, &n| {
            b.iter(|| {
                let mut nl = Netlist::new();
                black_box(CsppTree::build(&mut nl, n, 33, CombineOp::First));
                nl.len()
            })
        });
        // Evaluation of a built tree.
        let mut nl = Netlist::new();
        let tree = CsppTree::build(&mut nl, n, 33, CombineOp::First);
        let mut inputs = vec![false; nl.num_inputs()];
        inputs[tree.seg[0].0 as usize] = true;
        g.throughput(Throughput::Elements(nl.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("evaluate_cspp_tree", n),
            &(&nl, &inputs),
            |b, (nl, inputs)| b.iter(|| nl.evaluate(black_box(inputs), &[]).unwrap().max_level()),
        );
    }
    g.finish();
}

fn bench_fattree(c: &mut Criterion) {
    let mut g = c.benchmark_group("memsys");
    for &n in &[64usize, 1024] {
        for (name, network) in [
            ("fattree_full_offered_load", NetworkKind::FatTree),
            ("butterfly_full_offered_load", NetworkKind::Butterfly),
        ] {
            let cfg = MemConfig {
                n_leaves: n,
                bandwidth: Bandwidth::sqrt(),
                banks: n,
                bank_occupancy: 1,
                hop_latency: 1,
                base_latency: 1,
                words: 1 << 16,
                network,
                cluster_cache: None,
            };
            let reqs: Vec<MemRequest> = (0..n)
                .map(|i| MemRequest {
                    id: i as u64,
                    leaf: i,
                    addr: i * 3,
                    kind: ReqKind::Load,
                })
                .collect();
            g.throughput(Throughput::Elements(n as u64));
            g.bench_with_input(
                BenchmarkId::new(name, n),
                &(&cfg, &reqs),
                |b, (cfg, reqs)| {
                    b.iter(|| {
                        let mut m = MemSystem::new((*cfg).clone(), &[]);
                        let mut pending: Vec<MemRequest> = (*reqs).clone();
                        let mut t = 0u64;
                        while !pending.is_empty() {
                            let (acc, _) = m.tick(t, &pending);
                            pending.retain(|r| !acc.contains(&r.id));
                            t += 1;
                        }
                        t
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scans, bench_cspp, bench_netlist, bench_fattree
}
criterion_main!(benches);

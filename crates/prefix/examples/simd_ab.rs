//! In-process A/B of the AVX2 substrate against its forced-SWAR twin.
//!
//! ```text
//! cargo run --release -p ultrascalar-prefix --example simd_ab
//! ```
//!
//! Cross-process comparisons on a shared host are dominated by noise
//! (identical-code rows drift by ±25% between runs), so this harness
//! interleaves the two dispatch modes round-robin inside one process
//! and reports the median ratio across rounds — the same protocol the
//! `lanes_ab` benchmark uses.

use std::time::Instant;
use ultrascalar_prefix::lanes::{self, LaneValue};
use ultrascalar_prefix::{
    active_simd_level, detected_simd_level, AndWords, ForceSwarGuard, PackedCsppScratchW,
    SlicedCsppScratch, SlicedPair,
};

const ROUNDS: usize = 9;

/// Seconds per call, adaptively doubling until a batch runs >= 5 ms.
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
        if dt.as_secs_f64() >= 0.005 || iters >= 1 << 24 {
            return dt.as_secs_f64() / iters as f64;
        }
        iters *= 2;
    }
}

/// Interleaved rounds: (median native s/call, median swar s/call).
fn ab<F: FnMut() -> u64>(mut f: F) -> (f64, f64) {
    let mut native = Vec::with_capacity(ROUNDS);
    let mut swar = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        native.push(time_per_call(&mut f));
        let _guard = ForceSwarGuard::force();
        swar.push(time_per_call(&mut f));
    }
    (median(&mut native), median(&mut swar))
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn row(label: &str, (native, swar): (f64, f64)) {
    println!(
        "{label:<26} native {:>8.1} ns   swar {:>8.1} ns   speedup {:>5.2}x",
        native * 1e9,
        swar * 1e9,
        swar / native
    );
}

fn main() {
    println!(
        "detected={} active={}\n",
        detected_simd_level(),
        active_simd_level()
    );

    for &n in &[64usize, 256] {
        let vals: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        let seg: Vec<bool> = (0..n).map(|i| i % 17 == 4).collect();

        {
            let vw: Vec<u64> = vals.iter().map(|&v| if v { !0 } else { 0 }).collect();
            let sw: Vec<u64> = seg.iter().map(|&s| if s { !0 } else { 0 }).collect();
            let mut scratch = ultrascalar_prefix::PackedCsppScratch::new();
            let mut out = Vec::new();
            row(
                &format!("packed W=1 n={n}"),
                ab(|| {
                    scratch.cspp_into::<AndWords>(&vw, &sw, &mut out);
                    out.len() as u64
                }),
            );
        }
        {
            let vw: Vec<[u64; 2]> = vals.iter().map(|&v| [if v { !0 } else { 0 }; 2]).collect();
            let sw: Vec<[u64; 2]> = seg.iter().map(|&s| [if s { !0 } else { 0 }; 2]).collect();
            let mut scratch = PackedCsppScratchW::<2>::new();
            let mut out = Vec::new();
            row(
                &format!("packed W=2 n={n}"),
                ab(|| {
                    scratch.cspp_into::<AndWords>(&vw, &sw, &mut out);
                    out.len() as u64
                }),
            );
        }
        {
            let vw: Vec<[u64; 4]> = vals.iter().map(|&v| [if v { !0 } else { 0 }; 4]).collect();
            let sw: Vec<[u64; 4]> = seg.iter().map(|&s| [if s { !0 } else { 0 }; 4]).collect();
            let mut scratch = PackedCsppScratchW::<4>::new();
            let mut out = Vec::new();
            row(
                &format!("packed W=4 n={n}"),
                ab(|| {
                    scratch.cspp_into::<AndWords>(&vw, &sw, &mut out);
                    out.len() as u64
                }),
            );
        }
        {
            let leaves: Vec<SlicedPair<32, 1>> = (0..n)
                .map(|i| {
                    let mut leaf = SlicedPair::identity();
                    for lane in 0..64usize {
                        leaf.set_lane(
                            lane,
                            (i as u64 * 0x9E37 + lane as u64) & 0xFFFF_FFFF,
                            (i + lane) % 17 == 4,
                        );
                    }
                    leaf
                })
                .collect();
            let mut scratch = SlicedCsppScratch::<32, 1>::new();
            let mut out = Vec::new();
            row(
                &format!("sliced 32x1 n={n}"),
                ab(|| {
                    scratch.cspp_into(&leaves, &mut out);
                    out.len() as u64
                }),
            );
        }
    }

    // Raw combine-kernel throughput: pairwise combines over an array
    // large enough to defeat loop-invariant hoisting but small enough
    // to stay L1-resident, the same regime the tree sweeps run in.
    {
        const M: usize = 32;
        let mut pairs: Vec<SlicedPair<32, 1>> = Vec::new();
        for i in 0..M {
            let mut p = SlicedPair::identity();
            for lane in 0..64usize {
                p.set_lane(
                    lane,
                    ((i as u64 * 31 + lane as u64 * 7 + 1) * 0x9E37) & 0xFFFF_FFFF,
                    (i + lane) % 5 == 0,
                );
            }
            pairs.push(p);
        }
        let mut out = pairs.clone();
        row(
            "sliced combine (raw)",
            ab(|| {
                let src = std::hint::black_box(&pairs);
                for i in 0..M - 1 {
                    out[i] = src[i].combine(&src[i + 1]);
                }
                out[M - 2].seg[0]
            }),
        );
    }

    // Lane-parallel ALU kernels.
    let mut av = [0u32; 64];
    let mut bv = [0u32; 64];
    for i in 0..64 {
        av[i] = (i as u32).wrapping_mul(0x9E37_79B9);
        bv[i] = (i as u32).wrapping_mul(0x85EB_CA6B) ^ 0xFFFF;
    }
    let a: LaneValue = lanes::deposit(&av);
    let b: LaneValue = lanes::deposit(&bv);
    row(
        "lanes add",
        ab(|| {
            let s = lanes::add(std::hint::black_box(&a), std::hint::black_box(&b));
            lanes::lane(&s, 0) as u64
        }),
    );
    row(
        "lanes ltu_mask",
        ab(|| lanes::ltu_mask(std::hint::black_box(&a), std::hint::black_box(&b))),
    );
    row(
        "lanes xor",
        ab(|| {
            let s = lanes::xor(std::hint::black_box(&a), std::hint::black_box(&b));
            lanes::lane(&s, 2) as u64
        }),
    );
    row(
        "lanes eq_mask",
        ab(|| lanes::eq_mask(std::hint::black_box(&a), std::hint::black_box(&b))),
    );
    row(
        "lanes map2 (transpose)",
        ab(|| {
            let s = lanes::map2(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                |x, y| x.wrapping_mul(y),
            );
            lanes::lane(&s, 1) as u64
        }),
    );
}

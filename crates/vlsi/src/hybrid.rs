//! The hybrid Ultrascalar: Ultrascalar II clusters inside an
//! Ultrascalar I H-tree (Figures 9–10), with the §6 analysis.
//!
//! ```text
//! U(n) = Θ(n + L)                      if n ≤ C   (a single cluster)
//! U(n) = Θ(L + M(n)) + 2·U(n/4)        if n > C
//! ```
//!
//! For `n ≥ C` the solution is `U(n) = Θ(M(n) + L·√(n/C) + √(nC))`;
//! differentiating gives the optimal cluster size `C* = Θ(L)`, at which
//! `U(n) = Θ(M(n) + √(nL))` — "optimal as a function of M and
//! existentially tight as a function of n and L".

use crate::metrics::{ArchParams, Metrics};
use crate::tech::Tech;
use crate::{usi, usii};

/// The hybrid's H-tree (Figure 10) as `(leaves, leaf_side, chan)` for
/// [`usi::htree`]: `n/c` leaves, each a linear-gate-delay Ultrascalar
/// II cluster of `c` stations (plus its modified-bit OR trees, Figure 9
/// — a constant-factor strip folded into the cluster pitch), and
/// between two subtrees of clusters the Ultrascalar I channel for the
/// stations they hold.
///
/// # Panics
/// Panics unless `c` divides `n` and `n/c` is a power of two (H-tree
/// granularity; `c == n` degenerates to a single cluster).
pub(crate) fn tree<'t>(
    p: &ArchParams,
    c: usize,
    tech: &'t Tech,
) -> (usize, f64, impl Fn(usize) -> f64 + 't) {
    assert!(c >= 1 && c <= p.n, "cluster size must be in 1..=n");
    assert!(p.n.is_multiple_of(c), "cluster size must divide n");
    let k = p.n / c;
    assert!(
        k.is_power_of_two(),
        "number of clusters must be a power of two for the H-tree"
    );
    let cluster = ArchParams { n: c, ..*p };
    let p = *p;
    let chan =
        move |clusters: usize| usi::channel_um(p.l, p.bits, p.mem.capacity(clusters * c), tech);
    (k, usii::side_linear_um(&cluster, tech), chan)
}

/// Side length (µm) of a hybrid with clusters of `c` stations.
///
/// # Panics
/// Panics unless `c` divides `n` and `n/c` is a power of two.
pub fn side_um(p: &ArchParams, c: usize, tech: &Tech) -> f64 {
    let (w, h, _) = usi::htree(tree(p, c, tech), None);
    w.max(h)
}

/// Gate levels: the linear cluster search (`Θ(C + L)`,
/// [`usii::gate_delay_linear`] at `n = C`) followed by the Ultrascalar
/// I sequencing over the `n/C` clusters (`Θ(log(n/C))`,
/// [`usi::gate_delay`]) — Figure 11 column 4's `Θ(L + log n)` when
/// `C = Θ(L)`. A single cluster has no inter-cluster tree, so `C = n`
/// is exactly the Ultrascalar II.
pub fn gate_delay(p: &ArchParams, c: usize) -> f64 {
    let cluster = ArchParams { n: c, ..*p };
    let clusters = p.n / c;
    let tree = if clusters > 1 {
        usi::gate_delay(clusters)
    } else {
        0.0
    };
    usii::gate_delay_linear(&cluster) + tree
}

/// Full metric record at cluster size `c`.
pub fn metrics_with_cluster(p: &ArchParams, c: usize, tech: &Tech) -> Metrics {
    let tree = tree(p, c, tech);
    // Worst path: across the source cluster, up and down the H-tree,
    // across the destination cluster. A single cluster is crossed once,
    // as in the Ultrascalar II.
    let crossings = if tree.0 > 1 { 2.0 } else { 1.0 };
    let cluster_wire = crossings * 2.0 * tree.1;
    let (w, h, wire) = usi::htree(tree, None);
    Metrics {
        gate_delay: gate_delay(p, c),
        wire_um: 2.0 * wire + cluster_wire,
        side_um: w.max(h),
        area_um2: w * h,
    }
}

/// Metrics at the paper's prescribed cluster size `C = L` (rounded to
/// the nearest feasible power-of-two divisor of `n`).
pub fn metrics(p: &ArchParams, tech: &Tech) -> Metrics {
    let c = nearest_feasible_cluster(p.n, p.l);
    metrics_with_cluster(p, c, tech)
}

/// The feasible cluster sizes for a window of `n`: powers of two `c`
/// with `n % c == 0` and `n/c` a power of two.
pub fn feasible_clusters(n: usize) -> Vec<usize> {
    (0..=n.trailing_zeros())
        .map(|s| 1usize << s)
        .filter(|&c| n.is_multiple_of(c) && (n / c).is_power_of_two())
        .collect()
}

/// The feasible cluster size closest to `target` (the paper's `C = L`).
pub fn nearest_feasible_cluster(n: usize, target: usize) -> usize {
    feasible_clusters(n)
        .into_iter()
        .min_by(|&a, &b| {
            let da = (a as f64 / target as f64).ln().abs();
            let db = (b as f64 / target as f64).ln().abs();
            da.partial_cmp(&db).expect("finite")
        })
        .expect("n has at least cluster size 1")
}

/// §6's optimisation: sweep every feasible cluster size and return the
/// one minimising the side length, with its metrics.
pub fn optimal_cluster(p: &ArchParams, tech: &Tech) -> (usize, Metrics) {
    feasible_clusters(p.n)
        .into_iter()
        .map(|c| (c, metrics_with_cluster(p, c, tech)))
        .min_by(|a, b| {
            a.1.side_um
                .partial_cmp(&b.1.side_um)
                .expect("finite side lengths")
        })
        .expect("non-empty cluster sweep")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::fit_exponent_tail;
    use ultrascalar_memsys::Bandwidth;

    fn params(n: usize, l: usize, mem: Bandwidth) -> ArchParams {
        ArchParams {
            n,
            l,
            bits: 32,
            mem,
        }
    }

    #[test]
    fn feasible_clusters_are_power_of_two_divisors() {
        assert_eq!(feasible_clusters(32), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(feasible_clusters(1), vec![1]);
    }

    #[test]
    fn nearest_feasible_tracks_target() {
        assert_eq!(nearest_feasible_cluster(256, 32), 32);
        assert_eq!(nearest_feasible_cluster(256, 48), 64); // ln-closest
        assert_eq!(nearest_feasible_cluster(8, 32), 8); // clamped to n
    }

    /// §6: "the side-length is minimized when C = Θ(L)". The sweep's
    /// argmin must land within a small constant factor of L.
    #[test]
    fn optimal_cluster_is_theta_l() {
        let tech = Tech::cmos_035();
        for l in [8usize, 16, 32, 64] {
            let p = params(1 << 12, l, Bandwidth::constant(1.0));
            let (c_star, _) = optimal_cluster(&p, &tech);
            assert!(
                c_star >= l / 4 && c_star <= l * 8,
                "L={l}: optimal cluster {c_star} not Θ(L)"
            );
        }
    }

    /// Figure 11 column 4: with C = Θ(L) and low bandwidth the hybrid's
    /// wire delay grows as √n.
    #[test]
    fn hybrid_side_grows_as_sqrt_n() {
        let tech = Tech::cmos_035();
        let pts: Vec<(f64, f64)> = (2..=8)
            .map(|k| {
                let n = 32 << (2 * k); // keep n/C a power of two
                let p = params(n, 32, Bandwidth::constant(1.0));
                (n as f64, metrics(&p, &tech).side_um)
            })
            .collect();
        let f = fit_exponent_tail(&pts, 4);
        assert!((f.exponent - 0.5).abs() < 0.06, "{f:?}");
    }

    /// §6/§7: for n ≥ L the hybrid (at its optimal cluster size)
    /// dominates both parents, strictly once n is well past L².
    #[test]
    fn hybrid_dominates_both_parents_for_large_n() {
        let tech = Tech::cmos_035();
        let l = 32;
        for k in [10u32, 12, 14, 16] {
            let n = 1usize << k;
            let mem = Bandwidth::constant(1.0);
            let p = params(n, l, mem);
            let (_, hy) = optimal_cluster(&p, &tech);
            let u1 = usi::metrics(&p, &tech);
            let u2 = usii::metrics_linear(&p, &tech);
            assert!(
                hy.side_um <= u1.side_um && hy.side_um <= u2.side_um,
                "n={n}: hybrid {} vs US-I {} vs US-II {}",
                hy.side_um,
                u1.side_um,
                u2.side_um
            );
            if k >= 14 {
                assert!(hy.side_um < 0.8 * u1.side_um.min(u2.side_um), "n={n}");
            }
        }
    }

    /// "the hybrid beats the Ultrascalar I by an additional factor of
    /// √L" (wire delay, low bandwidth): the ratio of US-I to hybrid
    /// sides grows with L.
    #[test]
    fn hybrid_advantage_grows_with_l() {
        let tech = Tech::cmos_035();
        let n = 1 << 12;
        let r = |l: usize| {
            let p = params(n, l, Bandwidth::constant(1.0));
            usi::metrics(&p, &tech).side_um / metrics(&p, &tech).side_um
        };
        assert!(r(64) > r(16), "{} vs {}", r(64), r(16));
        assert!(r(64) > 1.5);
    }

    /// C = n: a single Ultrascalar II cluster, with no H-tree channel,
    /// no inter-cluster tree and one cluster crossing.
    #[test]
    fn one_cluster_hybrid_is_the_ultrascalar_ii() {
        let tech = Tech::cmos_035();
        for (n, l) in [(16, 32), (64, 32), (256, 8)] {
            let p = params(n, l, Bandwidth::constant(1.0));
            assert_eq!(
                metrics_with_cluster(&p, n, &tech),
                usii::metrics_linear(&p, &tech),
                "n={n} L={l}"
            );
        }
        // C = 1: pure US-I topology (stations as leaves), though the
        // leaf includes the one-station grid wrapper.
        let p = params(64, 32, Bandwidth::constant(1.0));
        assert!(metrics_with_cluster(&p, 1, &tech).side_um > 0.0);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_cluster_rejected() {
        let tech = Tech::cmos_035();
        let p = params(64, 32, Bandwidth::constant(1.0));
        let _ = side_um(&p, 3, &tech);
    }

    /// Gate delay is Θ(L + log n): linear in L at fixed n/C ratio,
    /// logarithmic in n at fixed C.
    #[test]
    fn gate_delay_shape() {
        let p = params(1 << 10, 32, Bandwidth::constant(1.0));
        let d32 = gate_delay(&p, 32);
        let p2 = params(1 << 14, 32, Bandwidth::constant(1.0));
        let d32_big = gate_delay(&p2, 32);
        // 16× more stations: only a handful more gate levels (log term).
        assert!(d32_big - d32 < 20.0);
        // Bigger clusters: linear growth. Clusters of 128 instead of 32
        // search 96 more rows and sequence two fewer tree levels (4
        // gate levels each).
        let d128 = gate_delay(&p2, 128);
        assert_eq!(d128, d32_big + 96.0 - 2.0 * 4.0);
    }
}

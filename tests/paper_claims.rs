//! Workspace-level regression suite for the paper's headline claims —
//! every table and figure has an assertion here (the experiment
//! binaries in `ultrascalar-bench` print the same data as reports).

use ultrascalar_suite::core::{PredictorKind, ProcConfig, Processor, Ultrascalar};
use ultrascalar_suite::isa::workload;
use ultrascalar_suite::memsys::Bandwidth;
use ultrascalar_suite::vlsi::metrics::ArchParams;
use ultrascalar_suite::vlsi::{empirical, fit, hybrid, threed, usi, usii, Tech};

/// E2 / Figure 3: the paper's timing diagram, exactly.
#[test]
fn figure3_issue_times() {
    let prog = workload::figure1_sequence();
    let r = Ultrascalar::new(ProcConfig::ultrascalar_i(8)).run_timed(&prog);
    let issues: Vec<u64> = r
        .recorded_timings()
        .iter()
        .take(8)
        .map(|t| t.issue)
        .collect();
    assert_eq!(issues, vec![0, 10, 0, 11, 0, 3, 0, 1]);
}

/// E7 / Figure 11, headline cells: Ultrascalar I wire delay √n at low
/// bandwidth; hybrid area Θ(nL); Ultrascalar II side Θ(n + L).
#[test]
fn figure11_headline_exponents() {
    let tech = Tech::cmos_035();
    let mem = Bandwidth::constant(1.0);
    let sweep = |f: &dyn Fn(usize) -> f64| -> f64 {
        let pts: Vec<(f64, f64)> = (4..=10u32)
            .map(|k| {
                let n = 4usize.pow(k);
                (n as f64, f(n))
            })
            .collect();
        fit::fit_exponent_tail(&pts, 4).exponent
    };
    let usi_wire = sweep(&|n| {
        usi::metrics(
            &ArchParams {
                n,
                l: 32,
                bits: 32,
                mem,
            },
            &tech,
        )
        .wire_um
    });
    assert!(
        (usi_wire - 0.5).abs() < 0.1,
        "US-I wire exponent {usi_wire}"
    );
    let hy_area = sweep(&|n| {
        hybrid::metrics(
            &ArchParams {
                n,
                l: 32,
                bits: 32,
                mem,
            },
            &tech,
        )
        .area_um2
    });
    assert!(
        (hy_area - 1.0).abs() < 0.15,
        "hybrid area exponent {hy_area}"
    );
    let usii_side = sweep(&|n| {
        usii::side_linear_um(
            &ArchParams {
                n,
                l: 32,
                bits: 32,
                mem,
            },
            &tech,
        )
    });
    assert!(
        (usii_side - 1.0).abs() < 0.1,
        "US-II side exponent {usii_side}"
    );
}

/// §7: the US-I/US-II crossover scales as Θ(L²) — the crossover point
/// n*, measured per L, keeps n*/L² within one bounded band.
#[test]
fn crossover_scales_as_l_squared() {
    let tech = Tech::cmos_035();
    let mem = Bandwidth::constant(1.0);
    let mut ratios = Vec::new();
    for l in [8usize, 16, 32, 64] {
        let mut crossover = None;
        for k in 1..=12u32 {
            let n = 4usize.pow(k);
            let p = ArchParams {
                n,
                l,
                bits: 32,
                mem,
            };
            if usi::metrics(&p, &tech).side_um < usii::side_linear_um(&p, &tech) {
                crossover = Some(n as f64);
                break;
            }
        }
        let n_star = crossover.expect("crossover exists in range");
        ratios.push(n_star / (l * l) as f64);
    }
    let lo = ratios.iter().cloned().fold(f64::MAX, f64::min);
    let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
    // Power-of-4 sampling quantises n* by 4×; allow that plus a
    // constant.
    assert!(hi / lo <= 16.0, "n*/L² band too wide: {ratios:?}");
}

/// E8 / Figure 12: the calibrated model reproduces the empirical
/// comparison — US-I ≈ 7 cm, hybrid an order of magnitude denser.
#[test]
fn figure12_density_ratio() {
    let f = empirical::figure12(&Tech::cmos_035());
    assert!((f.ultrascalar_i.width_cm - 7.0).abs() < 1.5);
    assert!(f.density_ratio > 6.0 && f.density_ratio < 20.0);
}

/// E10 / §6: optimal cluster size is Θ(L).
#[test]
fn optimal_cluster_theta_l() {
    let tech = Tech::cmos_035();
    for l in [8usize, 32, 128] {
        let p = ArchParams {
            n: 1 << 14,
            l,
            bits: 32,
            mem: Bandwidth::constant(1.0),
        };
        let (c_star, _) = hybrid::optimal_cluster(&p, &tech);
        assert!(
            c_star >= l / 4 && c_star <= 8 * l,
            "L={l}: C*={c_star} is not Θ(L)"
        );
    }
}

/// E11 / §7: 3-D volumes — US-I linear in n, US-II quadratic, hybrid's
/// optimal cluster L^(3/4).
#[test]
fn three_d_bounds() {
    let tech = Tech::cmos_035();
    let p_small = ArchParams {
        n: 1 << 10,
        l: 32,
        bits: 32,
        mem: Bandwidth::constant(1.0),
    };
    let p_big = ArchParams {
        n: 1 << 14,
        ..p_small
    };
    let v1 = threed::usi_3d(&p_big, &tech).volume_um3 / threed::usi_3d(&p_small, &tech).volume_um3;
    assert!(
        (v1 - 16.0).abs() < 1.0,
        "US-I 3-D volume ratio {v1} (linear ⇒ 16)"
    );
    let v2 =
        threed::usii_3d(&p_big, &tech).volume_um3 / threed::usii_3d(&p_small, &tech).volume_um3;
    assert!(
        (v2 - 256.0).abs() < 20.0,
        "US-II 3-D volume ratio {v2} (quadratic ⇒ 256)"
    );
    assert_eq!(threed::optimal_cluster_3d(256), 64);
}

/// §4: the batch-refill Ultrascalar II pays a real IPC penalty vs the
/// wrap-around Ultrascalar I on every serial kernel, and the hybrid
/// sits between them.
#[test]
fn ipc_ordering_usii_vs_usi() {
    for (name, prog) in [
        ("fibonacci", workload::fibonacci(48)),
        ("dot_product", workload::dot_product(48)),
        ("sum_reduction", workload::sum_reduction(48)),
    ] {
        let n = 16;
        let usi_c = Ultrascalar::new(ProcConfig::ultrascalar_i(n))
            .run(&prog)
            .cycles;
        let hy_c = Ultrascalar::new(ProcConfig::hybrid(n, 4)).run(&prog).cycles;
        let usii_c = Ultrascalar::new(ProcConfig::ultrascalar_ii(n))
            .run(&prog)
            .cycles;
        assert!(
            usi_c <= hy_c && hy_c <= usii_c && usi_c < usii_c,
            "{name}: {usi_c} / {hy_c} / {usii_c}"
        );
    }
}

/// §2: misprediction recovery is one cycle — turning prediction off
/// entirely (always-wrong on taken loop branches) costs a bounded
/// per-misprediction penalty, and never corrupts state.
#[test]
fn one_cycle_recovery_penalty() {
    let prog = workload::sum_reduction(64);
    let n = 8;
    let perfect = Ultrascalar::new(ProcConfig::ultrascalar_i(n)).run(&prog);
    let wrong =
        Ultrascalar::new(ProcConfig::ultrascalar_i(n).with_predictor(PredictorKind::NotTaken))
            .run(&prog);
    assert_eq!(perfect.regs, wrong.regs);
    let penalty = wrong.cycles - perfect.cycles;
    assert!(penalty <= 4 * wrong.stats.mispredictions, "{penalty}");
}

/// E5/E7: every Figure 11 gate delay is a depth claim, and each vlsi
/// closed form is the exact structural depth of the `circuit` netlist
/// that models it — the US-I window controller (its deepest CSPP
/// trees), both US-II grids, and the hybrid's linear cluster followed
/// by the US-I controller over the clusters.
#[test]
fn gate_delays_are_netlist_depths() {
    use ultrascalar_suite::circuit::generators::{UsiiDatapath, WindowController};
    use ultrascalar_suite::circuit::Netlist;
    fn depth(build: impl FnOnce(&mut Netlist)) -> f64 {
        let mut nl = Netlist::new();
        build(&mut nl);
        f64::from(nl.structural_depth().expect("acyclic datapath"))
    }
    let controller = |n| {
        depth(|nl| {
            WindowController::build(nl, n);
        })
    };
    // A 1-bit payload: every payload bit has its own mux chain, so the
    // width does not change the depth (checked below).
    let grid = |n, l, width, tree| {
        depth(|nl| {
            UsiiDatapath::build(nl, n, l, width, tree);
        })
    };
    let params = |n, l| ArchParams {
        n,
        l,
        bits: 32,
        mem: Bandwidth::constant(1.0),
    };

    // US-I: exact for every power-of-two window the H-tree lays out,
    // 1 … 4096 stations; an upper bound on the left-packed trees of
    // the windows in between.
    for n in (1..=32).chain((6..=12).map(|k| 1 << k)) {
        let (form, measured) = (usi::gate_delay(n), controller(n));
        if n.is_power_of_two() {
            assert_eq!(form, measured, "US-I n={n}");
        } else {
            assert!(measured <= form, "US-I n={n}: {measured} > {form}");
        }
    }

    // US-II, the linear grid (Figure 7) and the mesh of trees (Figure 8).
    for (l, ns) in [
        (4, &[1, 2, 3, 8, 16, 64][..]),
        (8, &[1, 3, 16, 64]),
        (32, &[1, 8]),
    ] {
        for &n in ns {
            let p = params(n, l);
            let lin = grid(n, l, 1, false);
            assert_eq!(usii::gate_delay_linear(&p), lin, "US-II linear n={n} L={l}");
            let log = grid(n, l, 1, true);
            assert_eq!(usii::gate_delay_log(&p), log, "US-II log n={n} L={l}");
        }
    }
    for tree in [false, true] {
        assert_eq!(grid(8, 8, 1, tree), grid(8, 8, 33, tree), "tree={tree}");
    }

    // Hybrid: the cluster's linear grid, then the US-I controller over
    // the n/C clusters (none for a single cluster).
    let (n, l) = (64, 8);
    for c in hybrid::feasible_clusters(n) {
        let over_clusters = if n > c { controller(n / c) } else { 0.0 };
        assert_eq!(
            hybrid::gate_delay(&params(n, l), c),
            grid(c, l, 1, false) + over_clusters,
            "hybrid n={n} L={l} C={c}"
        );
    }
}

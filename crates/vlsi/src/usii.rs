//! Ultrascalar II: the diagonal grid floorplan of Figure 7 and the
//! mesh-of-trees variant of Figure 8.
//!
//! §5 of the paper: "the entire Ultrascalar II can be layed out in a
//! box with side-length O(n + L)"; the log-gate-delay tree-of-meshes
//! version costs an extra `log(n + L)` factor on the side; the memory
//! switches fit in the triangle above the diagonal "since M(n) = O(n)
//! in all cases".

use crate::metrics::{ArchParams, Metrics};
use crate::tech::Tech;

/// Register-number field width.
fn regnum_bits(l: usize) -> usize {
    (usize::BITS - (l.max(2) - 1).leading_zeros()) as usize
}

/// Pitch (µm) of one register-binding row or argument column in the
/// grid: register number, value and ready wires at the *local* pitch
/// (short over-cell wires), plus one row of comparator/mux cells.
pub(crate) fn row_pitch_um(l: usize, bits: usize, tech: &Tech) -> f64 {
    (regnum_bits(l) + bits + 2) as f64 * tech.local_pitch_um + tech.cell_side_um
}

/// Side length (µm) of the linear-gate-delay grid (Figure 7):
/// the comparator/mux grid has `2n + L` columns (two argument columns
/// per station plus the outgoing registers) and `n + L` rows (one
/// result binding per station plus the initial registers); the station
/// logic itself is packed in a 2-D block off the diagonal (the paper's
/// §7: "we placed the 32 ALUs of each cluster in 4 columns of 8 ALUs
/// each, arrayed off the diagonal"). `Θ(n + L)` overall.
pub fn side_linear_um(p: &ArchParams, tech: &Tech) -> f64 {
    let pitch = row_pitch_um(p.l, p.bits, tech);
    let grid = (2 * p.n + p.l).max(p.n + p.l) as f64 * pitch;
    let station_block = ((p.n as f64) * tech.station_side_um(p.l, p.bits).powi(2)).sqrt();
    grid + station_block
}

/// Side length of the mesh-of-trees version (Figure 8): the fan-out and
/// reduction trees cost a `log₂(n + L)` area factor on the side
/// ("the side length increases to O((n + L)·log(n + L))").
pub fn side_log_um(p: &ArchParams, tech: &Tech) -> f64 {
    side_linear_um(p, tech) * ((p.n + p.l).max(2) as f64).log2()
}

/// Gate levels of the linear grid: the last column's serial search
/// through `n + L − 1` bindings ("the clock period grows as
/// O(n + L)") after a comparator.
pub fn gate_delay_linear(p: &ArchParams) -> f64 {
    2.0 * (p.n + p.l) as f64 + (p.bits.max(2) as f64).log2() + 2.0
}

/// Gate levels of the mesh-of-trees grid: request fan-out
/// (`log(n + L)`), comparison (`log log L` – a couple of levels on a
/// `log L`-bit field), and the reduction tree back up (`log(n + L)`).
pub fn gate_delay_log(p: &ArchParams) -> f64 {
    let nl = ((p.n + p.l).max(2)) as f64;
    2.0 * nl.log2() * 2.0 + (regnum_bits(p.l).max(2) as f64).log2() + 4.0
}

/// Metrics of the linear-gate-delay Ultrascalar II.
pub fn metrics_linear(p: &ArchParams, tech: &Tech) -> Metrics {
    let side = side_linear_um(p, tech);
    // The worst signal crosses the full grid: down one argument column
    // and across one binding row.
    Metrics::from_side(gate_delay_linear(p), 2.0 * side, side)
}

/// Metrics of the log-gate-delay (mesh-of-trees) Ultrascalar II.
pub fn metrics_log(p: &ArchParams, tech: &Tech) -> Metrics {
    let side = side_log_um(p, tech);
    Metrics::from_side(gate_delay_log(p), 2.0 * side, side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::fit_exponent_tail;
    use ultrascalar_memsys::Bandwidth;

    fn params(n: usize, l: usize) -> ArchParams {
        ArchParams {
            n,
            l,
            bits: 32,
            mem: Bandwidth::full(),
        }
    }

    #[test]
    fn linear_side_grows_linearly_in_n() {
        let tech = Tech::cmos_035();
        let pts: Vec<(f64, f64)> = (4..=16)
            .map(|k| {
                let n = 1usize << k;
                (n as f64, side_linear_um(&params(n, 32), &tech))
            })
            .collect();
        let f = fit_exponent_tail(&pts, 4);
        assert!((f.exponent - 1.0).abs() < 0.05, "{f:?}");
    }

    #[test]
    fn log_side_costs_a_log_factor() {
        let tech = Tech::cmos_035();
        let p = params(1024, 32);
        let ratio = side_log_um(&p, &tech) / side_linear_um(&p, &tech);
        assert!((ratio - (1024f64 + 32.0).log2()).abs() < 1e-9);
    }

    #[test]
    fn gate_delay_linear_vs_log() {
        // Figure 11 column 2 vs 3: Θ(n + L) vs Θ(log(n + L)).
        let p = params(256, 32);
        assert!(gate_delay_linear(&p) > 500.0);
        assert!(gate_delay_log(&p) < 50.0);
        // Linear delay doubles with n; log delay adds a constant.
        let d_lin = gate_delay_linear(&params(512, 32)) / gate_delay_linear(&params(256, 32));
        assert!(d_lin > 1.7);
        let d_log = gate_delay_log(&params(512, 32)) - gate_delay_log(&params(256, 32));
        assert!(d_log < 5.0);
    }

    #[test]
    fn side_additive_in_l() {
        // Θ(n + L): for L ≫ n the side is linear in L (the initial
        // register rows dominate the grid).
        let tech = Tech::cmos_035();
        let pts: Vec<(f64, f64)> = (8..=12)
            .map(|k| {
                let l = 1usize << k;
                (l as f64, side_linear_um(&params(16, l), &tech))
            })
            .collect();
        let f = fit_exponent_tail(&pts, 3);
        // The station block adds a √L term, so the slope sits between
        // strongly sublinear and linear.
        assert!(f.exponent > 0.7 && f.exponent < 1.1, "{f:?}");
    }

    #[test]
    fn area_is_quadratic_in_n() {
        let tech = Tech::cmos_035();
        let pts: Vec<(f64, f64)> = (4..=16)
            .map(|k| {
                let n = 1usize << k;
                (n as f64, metrics_linear(&params(n, 32), &tech).area_um2)
            })
            .collect();
        let f = fit_exponent_tail(&pts, 4);
        assert!((f.exponent - 2.0).abs() < 0.1, "{f:?}");
    }

    /// The crossover the paper highlights: "for smaller processors
    /// (n < O(L²)) the Ultrascalar II dominates the Ultrascalar I …
    /// for larger processors the Ultrascalar I dominates."
    #[test]
    fn usii_beats_usi_below_l_squared_and_loses_above() {
        let tech = Tech::cmos_035();
        let l = 32;
        // Small machine: n ≪ L².
        let small = params(16, l);
        let usi_small = crate::usi::metrics(
            &ArchParams {
                mem: Bandwidth::constant(1.0),
                ..small
            },
            &tech,
        );
        let usii_small = metrics_linear(&small, &tech);
        assert!(
            usii_small.side_um < usi_small.side_um,
            "US-II should win at n=16, L=32: {} vs {}",
            usii_small.side_um,
            usi_small.side_um
        );
        // Large machine: n ≫ L².
        let big = params(1 << 14, l);
        let usi_big = crate::usi::metrics(
            &ArchParams {
                mem: Bandwidth::constant(1.0),
                ..big
            },
            &tech,
        );
        let usii_big = metrics_linear(&big, &tech);
        assert!(
            usi_big.side_um < usii_big.side_um,
            "US-I should win at n=2^14, L=32: {} vs {}",
            usi_big.side_um,
            usii_big.side_um
        );
    }
}

/// The §5 mixed strategy: "replace the part of each tree near the root
/// with a linear-time prefix circuit. This works well in practice
/// because at some point the wire-lengths near the root of the tree
/// become so long that the wire-delay is comparable to a gate delay …
/// \[its\] asymptotic results are exactly the same as for the linear-time
/// circuit (the wire delays, gate delays, and side length are all n)
/// with greatly improved constant factors."
///
/// `tree_levels` levels of fan-in happen in log-depth trees hidden in
/// the existing cell area ("we found that there was enough space in our
/// Ultrascalar II datapath to implement about three levels of the tree
/// without impacting the total layout area"); the remaining
/// `(n + L) / 2^levels` rows are searched by the linear chain.
pub fn gate_delay_mixed(p: &ArchParams, tree_levels: u32) -> f64 {
    let rows = (p.n + p.l).max(1) as f64;
    let chain = (rows / 2f64.powi(tree_levels as i32)).max(1.0);
    2.0 * chain + 2.0 * tree_levels as f64 + (p.bits.max(2) as f64).log2() + 2.0
}

/// Metrics for the mixed strategy: the linear layout's side (no
/// mesh-of-trees area blow-up) with the reduced gate depth.
pub fn metrics_mixed(p: &ArchParams, tech: &Tech, tree_levels: u32) -> Metrics {
    let side = side_linear_um(p, tech);
    Metrics::from_side(gate_delay_mixed(p, tree_levels), 2.0 * side, side)
}

#[cfg(test)]
mod mixed_tests {
    use super::*;
    use ultrascalar_memsys::Bandwidth;

    fn params(n: usize, l: usize) -> ArchParams {
        ArchParams {
            n,
            l,
            bits: 32,
            mem: Bandwidth::full(),
        }
    }

    #[test]
    fn mixed_keeps_the_linear_footprint() {
        let tech = Tech::cmos_035();
        let p = params(256, 32);
        assert_eq!(
            metrics_mixed(&p, &tech, 3).side_um,
            metrics_linear(&p, &tech).side_um
        );
    }

    #[test]
    fn three_levels_cut_the_gate_delay_by_nearly_8x() {
        let p = params(1024, 32);
        let lin = gate_delay_linear(&p);
        let mixed = gate_delay_mixed(&p, 3);
        let ratio = lin / mixed;
        assert!(ratio > 5.0 && ratio < 9.0, "ratio {ratio}");
    }

    #[test]
    fn zero_levels_is_the_linear_circuit() {
        let p = params(128, 32);
        // Same asymptote, same leading 2·(n+L) term.
        let d0 = gate_delay_mixed(&p, 0);
        let dl = gate_delay_linear(&p);
        assert!((d0 - dl).abs() <= 2.0, "{d0} vs {dl}");
    }

    #[test]
    fn mixed_is_still_asymptotically_linear() {
        let d1 = gate_delay_mixed(&params(1 << 12, 32), 3);
        let d2 = gate_delay_mixed(&params(1 << 13, 32), 3);
        assert!(d2 / d1 > 1.8, "{d1} → {d2}");
    }
}

/// The §4 wrap-around variant: "The Ultrascalar II can easily be
/// modified to handle wrap-around … Furthermore, it appears to cost
/// nearly a factor of two in area." Functionally it schedules like the
/// Ultrascalar I (station-granular refill); physically it pays ~2× the
/// grid area (each binding row/column must be duplicated so the window
/// origin can rotate).
pub fn metrics_wraparound(p: &ArchParams, tech: &Tech) -> Metrics {
    let base = metrics_linear(p, tech);
    let side = base.side_um * std::f64::consts::SQRT_2;
    Metrics {
        gate_delay: base.gate_delay,
        wire_um: base.wire_um * std::f64::consts::SQRT_2,
        side_um: side,
        area_um2: 2.0 * base.area_um2,
    }
}

#[cfg(test)]
mod wraparound_tests {
    use super::*;
    use ultrascalar_memsys::Bandwidth;

    #[test]
    fn costs_a_factor_of_two_in_area() {
        let tech = Tech::cmos_035();
        let p = ArchParams {
            n: 64,
            l: 32,
            bits: 32,
            mem: Bandwidth::full(),
        };
        let base = metrics_linear(&p, &tech);
        let wrap = metrics_wraparound(&p, &tech);
        assert!((wrap.area_um2 / base.area_um2 - 2.0).abs() < 1e-9);
        assert_eq!(wrap.gate_delay, base.gate_delay);
    }
}

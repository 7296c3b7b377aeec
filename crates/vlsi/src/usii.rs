//! Ultrascalar II: the diagonal grid floorplan of Figure 7 and the
//! mesh-of-trees variant of Figure 8.
//!
//! §5 of the paper: "the entire Ultrascalar II can be layed out in a
//! box with side-length O(n + L)"; the log-gate-delay tree-of-meshes
//! version costs an extra `log(n + L)` factor on the side; the memory
//! switches fit in the triangle above the diagonal "since M(n) = O(n)
//! in all cases".

use crate::metrics::{ceil_log2, ArchParams, Metrics};
use crate::tech::Tech;

/// Register-number field width.
fn regnum_bits(l: usize) -> usize {
    ceil_log2(l.max(2)) as usize
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

/// Gate levels of a row's register-number match, shared by both
/// grids: an XNOR per bit (two levels), a `⌈log₂ r⌉`-level AND tree
/// over the `r`-bit field, and the AND with the row's valid bit.
fn match_levels(l: usize) -> u32 {
    ceil_log2(regnum_bits(l)) + 3
}

/// Gate levels of the linear grid (Figure 7): a row's match, then the
/// outgoing-register column's serial search, one mux per binding
/// through all `n + L` rows ("the clock period grows as O(n + L)"):
/// `(n + L) + ⌈log₂ r⌉ + 3` for `r`-bit register numbers. The payload
/// width does not enter: every payload bit has its own mux chain.
/// Equal to the structural depth of the linear `UsiiDatapath` netlist.
pub fn gate_delay_linear(p: &ArchParams) -> f64 {
    (p.n + p.l) as f64 + f64::from(match_levels(p.l))
}

/// Gate levels of the mesh-of-trees grid (Figure 8): the request's
/// `⌈log₂(n + L)⌉`-level fan-out tree, a row's match, and the
/// `⌈log₂(n + L)⌉`-level reduction tree back up:
/// `2⌈log₂(n + L)⌉ + ⌈log₂ r⌉ + 3`. Equal to the structural depth of
/// the tree `UsiiDatapath` netlist.
pub fn gate_delay_log(p: &ArchParams) -> f64 {
    f64::from(2 * ceil_log2(p.n + p.l) + match_levels(p.l))
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
        // At (256, 32) the register number is 5 bits wide: 3 levels
        // of AND tree after the XNOR, plus the valid AND.
        let p = params(256, 32);
        assert_eq!(gate_delay_linear(&p), (256 + 32 + 3 + 3) as f64);
        assert_eq!(gate_delay_log(&p), (2 * 9 + 3 + 3) as f64);
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

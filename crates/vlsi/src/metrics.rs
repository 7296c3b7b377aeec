//! The architectural parameter record and the per-layout metric record
//! (one cell group of the paper's Figure 11).

use ultrascalar_memsys::Bandwidth;

/// Architectural parameters a layout is evaluated at.
#[derive(Debug, Clone, Copy)]
pub struct ArchParams {
    /// Window / issue width `n` (number of execution stations).
    pub n: usize,
    /// Logical register count `L`.
    pub l: usize,
    /// Register width in bits (the paper uses 32 and 64).
    pub bits: usize,
    /// Memory bandwidth profile `M(·)`.
    pub mem: Bandwidth,
}

impl ArchParams {
    /// The paper's empirical configuration: 32 × 32-bit registers,
    /// constant (unit) memory bandwidth ("we left space in the design
    /// for a small datapath of size M(n) = Θ(1)").
    pub fn paper_empirical(n: usize) -> Self {
        ArchParams {
            n,
            l: 32,
            bits: 32,
            mem: Bandwidth::constant(1.0),
        }
    }
}

/// `⌈log₂ n⌉` (0 for `n ≤ 1`): the levels of a balanced binary tree
/// over `n` leaves.
pub(crate) fn ceil_log2(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// The measured complexity of one layout at one parameter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Critical-path gate levels (unit gate delays).
    pub gate_delay: f64,
    /// Longest signal wire, µm.
    pub wire_um: f64,
    /// Layout side length, µm.
    pub side_um: f64,
    /// Layout area, µm² (`side²`; the VLSI area is the square of the
    /// wire delay in every design, as the paper notes).
    pub area_um2: f64,
}

impl Metrics {
    /// Build from side/wire/gates, with `area = side²`.
    pub fn from_side(gate_delay: f64, wire_um: f64, side_um: f64) -> Self {
        Metrics {
            gate_delay,
            wire_um,
            side_um,
            area_um2: side_um * side_um,
        }
    }

    /// Total delay in ps under a technology (gate + repeatered wire) —
    /// the paper's "Total Delay" row combines both regimes.
    pub fn total_delay_ps(&self, tech: &crate::tech::Tech) -> f64 {
        tech.total_delay_ps(self.gate_delay, self.wire_um)
    }

    /// Area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.area_um2 / 1e6
    }

    /// Side length in cm.
    pub fn side_cm(&self) -> f64 {
        self.side_um / 1e4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_is_side_squared() {
        let m = Metrics::from_side(3.0, 10.0, 100.0);
        assert_eq!(m.area_um2, 10_000.0);
        assert!((m.area_mm2() - 0.01).abs() < 1e-12);
        assert!((m.side_cm() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn paper_empirical_params() {
        let p = ArchParams::paper_empirical(64);
        assert_eq!((p.n, p.l, p.bits), (64, 32, 32));
        assert_eq!(p.mem.capacity(64), 1);
    }
}

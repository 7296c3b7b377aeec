//! Repeatered-wire delay: the physical premise behind the paper's wire
//! model.
//!
//! §3: "Wire delay can be made linear in wire length by inserting
//! repeater buffers at appropriate intervals \[Dally & Poulton\]. Thus
//! we use the terms wire delay and wire length interchangeably here."
//! This module derives that claim instead of assuming it: an unbuffered
//! wire is a distributed RC line with quadratic Elmore delay; splitting
//! it into `k` segments with repeaters makes the delay
//! `k·(t_buf + RC·(len/k)²/2)`, minimised at `k* = len·√(rc/(2·t_buf))`
//! — at which point delay grows *linearly* in length, with slope
//! [`WireModel::ps_per_um`]. That slope is the `wire_ps_per_um` of
//! [`crate::tech::Tech::cmos_035`], so the layouts' wire delay comes
//! from this model.

/// Electrical parameters of a wire + repeater library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// Wire resistance, Ω per µm.
    pub r_per_um: f64,
    /// Wire capacitance, fF per µm.
    pub c_per_um: f64,
    /// Intrinsic repeater delay, ps.
    pub buf_delay_ps: f64,
}

impl WireModel {
    /// Plausible mid-layer metal in a 0.35 µm process.
    pub fn cmos_035() -> Self {
        WireModel {
            r_per_um: 0.08,
            c_per_um: 0.2,
            buf_delay_ps: 60.0,
        }
    }

    /// Elmore delay (ps) of an *unbuffered* wire of `len` µm:
    /// `R·C·len²/2` (with R in Ω/µm, C in fF/µm → 10⁻³ ps units).
    pub fn unbuffered_ps(&self, len_um: f64) -> f64 {
        0.5 * self.r_per_um * self.c_per_um * len_um * len_um * 1e-3
    }

    /// Delay (ps) of a wire of `len` µm split into `k` repeated
    /// segments.
    pub fn segmented_ps(&self, len_um: f64, k: usize) -> f64 {
        assert!(k >= 1, "need at least one segment");
        let seg = len_um / k as f64;
        k as f64 * (self.buf_delay_ps + self.unbuffered_ps(seg))
    }

    /// The continuous-optimal repeater count for a wire of `len` µm.
    pub fn optimal_segments(&self, len_um: f64) -> usize {
        let rc = self.r_per_um * self.c_per_um * 1e-3;
        let k = len_um * (rc / (2.0 * self.buf_delay_ps)).sqrt();
        (k.round() as usize).max(1)
    }

    /// Delay (ps) with optimally spaced repeaters.
    pub fn repeated_ps(&self, len_um: f64) -> f64 {
        if len_um <= 0.0 {
            return 0.0;
        }
        self.segmented_ps(len_um, self.optimal_segments(len_um))
    }

    /// The asymptotic linear coefficient: ps per µm of an optimally
    /// repeated long wire, `√(2·RC·t_buf)` — the value of
    /// `Tech::wire_ps_per_um`.
    pub fn ps_per_um(&self) -> f64 {
        let rc = self.r_per_um * self.c_per_um * 1e-3;
        (2.0 * rc * self.buf_delay_ps).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::fit_exponent_tail;

    #[test]
    fn unbuffered_delay_is_quadratic() {
        let w = WireModel::cmos_035();
        let pts: Vec<(f64, f64)> = (8..=16)
            .map(|k| {
                let len = (1u64 << k) as f64;
                (len, w.unbuffered_ps(len))
            })
            .collect();
        let f = fit_exponent_tail(&pts, 5);
        assert!((f.exponent - 2.0).abs() < 1e-9, "{f:?}");
    }

    #[test]
    fn repeated_delay_is_linear() {
        let w = WireModel::cmos_035();
        let pts: Vec<(f64, f64)> = (10..=20)
            .map(|k| {
                let len = (1u64 << k) as f64;
                (len, w.repeated_ps(len))
            })
            .collect();
        let f = fit_exponent_tail(&pts, 5);
        assert!((f.exponent - 1.0).abs() < 0.02, "{f:?}");
        // And the slope approaches the closed-form coefficient.
        let len = 1e6;
        let per_um = w.repeated_ps(len) / len;
        assert!(
            (per_um - w.ps_per_um()).abs() / w.ps_per_um() < 0.1,
            "{per_um} vs {}",
            w.ps_per_um()
        );
    }

    #[test]
    fn optimal_segmentation_beats_neighbours() {
        let w = WireModel::cmos_035();
        for len in [5e3, 5e4, 5e5] {
            let k = w.optimal_segments(len);
            let best = w.segmented_ps(len, k);
            if k > 1 {
                assert!(best <= w.segmented_ps(len, k - 1) * 1.0001, "len {len}");
            }
            assert!(best <= w.segmented_ps(len, k + 1) * 1.0001, "len {len}");
        }
    }

    #[test]
    fn repeaters_win_on_long_wires_only() {
        let w = WireModel::cmos_035();
        // A very short wire: one segment (no repeater gain).
        assert_eq!(w.optimal_segments(10.0), 1);
        // A cross-chip wire (7 cm, the paper's US-I side): repeaters cut
        // the delay by orders of magnitude.
        let len = 7e4;
        assert!(w.repeated_ps(len) < w.unbuffered_ps(len) / 10.0);
    }

    #[test]
    fn zero_length_is_free() {
        assert_eq!(WireModel::cmos_035().repeated_ps(0.0), 0.0);
    }
}

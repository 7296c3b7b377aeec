//! Technology parameters.
//!
//! The paper's empirical layouts use "a 0.35 micrometer CMOS technology
//! with three layers of metal" built from a home-grown standard-cell
//! library; [`Tech::cmos_035`] is calibrated so that our Ultrascalar I
//! model reproduces the paper's measured 64-station datapath size
//! (7 cm × 7 cm with 32 × 32-bit registers — see
//! [`crate::empirical`]). The constants scale linearly with feature
//! size, so other nodes derive by scaling.

use crate::delay::WireModel;

/// Physical constants of a process + standard-cell library.
///
/// Two wire pitches are distinguished, as in real methodology: H-tree
/// channel wires are *global* (repeatered, shielded, wide pitch — the
/// paper notes a 32-register tree edge carries over a thousand wires),
/// while the Ultrascalar II grid wires are *local* (short, minimum
/// pitch, routed over the cells — the paper's §7: "we used additional
/// metal layers to route the wires for the incoming registers over the
/// datapath instead, saving that area").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tech {
    /// Feature size in µm (for display).
    pub feature_um: f64,
    /// Global (repeatered channel) wire pitch, µm per track.
    pub global_pitch_um: f64,
    /// Local (over-cell grid) wire pitch, µm per track.
    pub local_pitch_um: f64,
    /// Side of a unit datapath cell (one mux/comparator bit), µm.
    pub cell_side_um: f64,
    /// Side of one register-file bit cell (with ready logic and
    /// datapath port), µm.
    pub regbit_side_um: f64,
    /// ALU area per bit, µm² (integer ALU, carry-lookahead class).
    pub alu_bit_area_um2: f64,
    /// Fixed per-station overhead area (decode + control), µm².
    pub station_overhead_um2: f64,
    /// Delay of one 2-input gate, ps.
    pub gate_delay_ps: f64,
    /// Delay of repeatered wire, ps per µm (the paper cites \[Dally &
    /// Poulton\] for linear-in-length repeatered wires): the slope of
    /// an optimally repeated wire, [`WireModel::ps_per_um`].
    pub wire_ps_per_um: f64,
}

impl Tech {
    /// The calibrated 0.35 µm, 3-metal process of the paper's §7
    /// layouts.
    ///
    /// With 3 metal layers and academic cells, global routing is
    /// wasteful ("each node of our H-tree floorplan would require area
    /// comparable to the entire area of one of today's processors" for
    /// 64 × 64-bit registers). The constants below are calibrated once
    /// so the Ultrascalar I model reproduces the paper's measured
    /// 7 cm × 7 cm at n = 64, L = 32, b = 32 (see
    /// `empirical::figure12`); everything else is a model output. The
    /// wire slope is derived, not calibrated: it is the repeater
    /// model's [`WireModel::cmos_035`] slope.
    pub fn cmos_035() -> Self {
        Tech {
            feature_um: 0.35,
            global_pitch_um: 4.5,
            local_pitch_um: 1.2,
            cell_side_um: 18.0,
            regbit_side_um: 30.0,
            alu_bit_area_um2: 16_000.0,
            station_overhead_um2: 250_000.0,
            gate_delay_ps: 90.0,
            wire_ps_per_um: WireModel::cmos_035().ps_per_um(),
        }
    }

    /// A 0.1 µm projection (the paper's closing claim: "in a 0.1
    /// micrometer CMOS technology, a hybrid Ultrascalar with a
    /// window-size of 128 and 16 shared ALUs should fit easily within
    /// a chip 1 cm on a side"). Constants scale by feature ratio;
    /// delays improve accordingly.
    pub fn cmos_010() -> Self {
        let s = 0.10 / 0.35;
        let t = Tech::cmos_035();
        Tech {
            feature_um: 0.10,
            global_pitch_um: t.global_pitch_um * s,
            local_pitch_um: t.local_pitch_um * s,
            cell_side_um: t.cell_side_um * s,
            regbit_side_um: t.regbit_side_um * s,
            alu_bit_area_um2: t.alu_bit_area_um2 * s * s,
            station_overhead_um2: t.station_overhead_um2 * s * s,
            gate_delay_ps: t.gate_delay_ps * s,
            wire_ps_per_um: t.wire_ps_per_um, // repeatered wires scale weakly
        }
    }

    /// Side length (µm) of one execution station holding an integer
    /// ALU, an `l × bits` register file with ready bits, and decode
    /// (paper Figure 2).
    pub fn station_side_um(&self, l: usize, bits: usize) -> f64 {
        let alu = bits as f64 * self.alu_bit_area_um2;
        let regfile = (l as f64) * (bits as f64 + 1.0) * self.regbit_side_um.powi(2);
        (alu + regfile + self.station_overhead_um2).sqrt()
    }

    /// Total delay in ps for a path of `gates` gate levels and
    /// `wire_um` µm of repeatered wire.
    pub fn total_delay_ps(&self, gates: f64, wire_um: f64) -> f64 {
        gates * self.gate_delay_ps + wire_um * self.wire_ps_per_um
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn station_grows_with_l_and_bits() {
        let t = Tech::cmos_035();
        let s1 = t.station_side_um(8, 32);
        let s2 = t.station_side_um(32, 32);
        let s3 = t.station_side_um(32, 64);
        assert!(s1 < s2 && s2 < s3);
    }

    #[test]
    fn station_area_is_dominated_by_regfile_for_large_l() {
        let t = Tech::cmos_035();
        // Doubling L roughly doubles area (√2 on the side) once the
        // register file dominates.
        let s64 = t.station_side_um(64, 32);
        let s128 = t.station_side_um(128, 32);
        let ratio = (s128 / s64).powi(2);
        assert!(ratio > 1.6 && ratio < 2.1, "ratio {ratio}");
    }

    #[test]
    fn scaled_node_is_smaller_and_faster() {
        let a = Tech::cmos_035();
        let b = Tech::cmos_010();
        assert!(b.global_pitch_um < a.global_pitch_um);
        assert!(b.local_pitch_um < a.local_pitch_um);
        assert!(b.gate_delay_ps < a.gate_delay_ps);
        assert!(b.station_side_um(32, 32) < a.station_side_um(32, 32));
    }

    #[test]
    fn total_delay_combines_terms() {
        let t = Tech::cmos_035();
        let d = t.total_delay_ps(10.0, 1000.0);
        let slope = WireModel::cmos_035().ps_per_um();
        assert!((d - (10.0 * 90.0 + 1000.0 * slope)).abs() < 1e-9);
    }
}

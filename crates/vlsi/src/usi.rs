//! Ultrascalar I: the H-tree floorplan of Figure 6 and its recurrences.
//!
//! The paper's §3 analysis:
//!
//! ```text
//! X(n) = Θ(L) + Θ(M(n)) + 2·X(n/4),   X(1) = Θ(L)
//! W(n) = X(n/4) + Θ(L + M(n)) + W(n/2),   W(1) = 0
//! ```
//!
//! with solutions `X(n) = Θ(√n·L)` for `M(n) = O(n^(1/2−ε))`,
//! `Θ(√n(L + log n))` at the knife edge, and `Θ(√n·L + M(n))` above
//! it; `W(n) = Θ(X(n))`; area `X(n)²`; gate delay `Θ(log n)`.
//!
//! We evaluate the recurrences exactly over a rectangle-doubling
//! H-tree (alternating horizontal/vertical cuts, so every power of two
//! is supported; powers of four give the paper's square layout), with
//! channel widths computed from the technology's wire pitch and the
//! actual wire counts of the per-register CSPP trees and the fat-tree
//! memory links. The same doubling loop (`htree`) serves the hybrid,
//! whose leaves are clusters, and places the rectangles of
//! [`crate::floorplan`]'s layouts, so recurrence and placement are one
//! computation.

use crate::floorplan::{Component, Rect};
use crate::metrics::{ceil_log2, ArchParams, Metrics};
use crate::tech::Tech;

/// Wire tracks crossing an H-tree channel that serve the *register*
/// datapath: for each of `L` registers, `bits + 1` value/ready wires in
/// each direction plus a segment/modified wire, plus the three 1-bit
/// sequencing CSPPs (deallocation, memory serialisation ×2 — "their
/// area is only a small constant factor").
pub(crate) fn register_tracks(l: usize, bits: usize) -> usize {
    l * (2 * (bits + 1) + 1) + 3 * 3
}

/// Wire tracks for `ports` memory ports through a fat-tree channel
/// (address + data + request/grant per port).
pub(crate) fn memory_tracks(ports: usize, bits: usize) -> usize {
    ports * (2 * bits + 2)
}

/// Physical channel width (µm) between H-tree quadrants containing `l`
/// registers of `bits` bits and `ports` memory ports: routed global
/// wires at the repeatered pitch, plus the prefix-node logic strip
/// (each H-tree node holds `L` CSPP switches of `bits + 1` cells — the
/// paper: "each node of our H-tree floorplan would require area
/// comparable to the entire area of one of today's processors" at
/// L = 64, b = 64) and the fat-tree switch strip.
pub(crate) fn channel_um(l: usize, bits: usize, ports: usize, tech: &Tech) -> f64 {
    let tracks = register_tracks(l, bits) + memory_tracks(ports, bits);
    let prefix_strip = 0.5 * (l as f64) * (bits as f64 + 1.0) * tech.cell_side_um;
    let mem_strip = ports as f64 * tech.cell_side_um;
    tracks as f64 * tech.global_pitch_um + prefix_strip + mem_strip
}

/// The H-tree doubling loop, shared by the recurrences and the placed
/// floorplans. `tree` is `(leaves, leaf_side, chan)` as an
/// architecture states it ([`tree`], [`crate::hybrid::tree`]); returns
/// `(width, height, root_to_leaf_wire)` in µm.
///
/// At each doubling the layout so far is copied beside itself across a
/// channel of width `chan(n_subtree)`, split across the two cut axes;
/// cuts alternate axes so the aspect ratio stays within 2. Given a
/// `rects` buffer seeded with leaf 0 at the origin, each doubling also
/// appends the copy (its leaves numbered after the originals) and the
/// channel strip labelled with its level (1 = innermost pairing), so
/// the buffer ends holding every placed leaf and strip.
pub(crate) fn htree(
    (n, leaf_side, chan): (usize, f64, impl Fn(usize) -> f64),
    mut rects: Option<&mut Vec<(Component, Rect)>>,
) -> (f64, f64, f64) {
    assert!(
        n > 0 && n.is_power_of_two(),
        "H-tree needs a power-of-two n"
    );
    let mut w = leaf_side;
    let mut h = leaf_side;
    let mut wire = 0.0;
    let mut size = 1usize;
    let mut horizontal = true; // next cut duplicates along x
    while size < n {
        let leaves = size;
        size *= 2;
        let c = chan(size) / 2.0; // channel split across the two cut axes
        if let Some(rects) = rects.as_deref_mut() {
            let len = rects.len();
            rects.extend_from_within(..);
            for (comp, r) in &mut rects[len..] {
                match comp {
                    Component::Station(i) | Component::Cluster(i) => *i += leaves,
                    Component::Channel(_) => {}
                }
                // `r.x + w + c`, not `r.x + (w + c)`: the placed rects'
                // bits depend on this float order.
                if horizontal {
                    r.x = r.x + w + c;
                } else {
                    r.y = r.y + h + c;
                }
            }
            let strip = if horizontal {
                Rect {
                    x: w,
                    y: 0.0,
                    w: c,
                    h,
                }
            } else {
                Rect {
                    x: 0.0,
                    y: h,
                    w,
                    h: c,
                }
            };
            let level = size.trailing_zeros() as usize;
            rects.push((Component::Channel(level), strip));
        }
        if horizontal {
            // Root-to-child wire: from the channel centre to the child
            // rectangle's centre.
            wire += w / 2.0 + c;
            w = 2.0 * w + c;
        } else {
            wire += h / 2.0 + c;
            h = 2.0 * h + c;
        }
        horizontal = !horizontal;
    }
    (w, h, wire)
}

/// The Ultrascalar I's H-tree (Figure 6) as `(leaves, leaf_side,
/// chan)` for [`htree`]: one station per leaf, and between two
/// subtrees a channel for the `L` registers and the memory ports of
/// the merged subtree.
pub(crate) fn tree<'t>(p: &ArchParams, tech: &'t Tech) -> (usize, f64, impl Fn(usize) -> f64 + 't) {
    let p = *p;
    let chan = move |subtree| channel_um(p.l, p.bits, p.mem.capacity(subtree), tech);
    (
        p.n.next_power_of_two().max(1),
        tech.station_side_um(p.l, p.bits),
        chan,
    )
}

/// Side length (µm) of an `n`-station Ultrascalar I (square for powers
/// of four; max dimension otherwise).
pub fn side_um(p: &ArchParams, tech: &Tech) -> f64 {
    let (w, h, _) = htree(tree(p, tech), None);
    w.max(h)
}

/// Critical-path gate levels: the depth of the window-sequencing logic
/// (`circuit::generators::WindowController`), whose 1-bit AND-CSPP
/// trees are the deepest path. Each of the `⌈log₂ n⌉` tree levels costs
/// two gate levels going up and two coming down (an AND, then the
/// segment mux; the segment OR runs beside them), and the station glue
/// adds three (the oldest-station OR and two ANDs): `4⌈log₂ n⌉ + 3`.
/// The register datapath's `CsppTree` is shallower, one mux per level
/// each way. `Θ(log n)`, and equal to the structural depth of the
/// controller netlist for every power-of-two `n`, the window the
/// H-tree lays out.
pub fn gate_delay(n: usize) -> f64 {
    f64::from(4 * ceil_log2(n) + 3)
}

/// Full metric record for one parameter point.
pub fn metrics(p: &ArchParams, tech: &Tech) -> Metrics {
    let (w, h, wire) = htree(tree(p, tech), None);
    // "Every datapath signal goes up the tree, and then down. Thus the
    // longest datapath signal is 2W(n)."
    Metrics {
        gate_delay: gate_delay(p.n),
        wire_um: 2.0 * wire,
        side_um: w.max(h),
        area_um2: w * h,
    }
}

/// The closed-form side-length bound for the current bandwidth regime,
/// up to constants — used by tests to verify the recursion matches the
/// paper's solution shape.
pub fn side_closed_form_shape(p: &ArchParams) -> f64 {
    let n = p.n as f64;
    let l = p.l as f64;
    match p.mem.regime() {
        ultrascalar_memsys::bandwidth::Regime::BelowSqrt => n.sqrt() * l,
        ultrascalar_memsys::bandwidth::Regime::Sqrt => n.sqrt() * (l + n.log2()),
        ultrascalar_memsys::bandwidth::Regime::AboveSqrt => n.sqrt() * l + p.mem.eval(p.n),
    }
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

    fn sweep(l: usize, mem: Bandwidth, f: impl Fn(&Metrics) -> f64) -> Vec<(f64, f64)> {
        let tech = Tech::cmos_035();
        (2..=12)
            .map(|k| {
                let n = 4usize.pow(k);
                (n as f64, f(&metrics(&params(n, l, mem), &tech)))
            })
            .collect()
    }

    /// Case 1 of the paper: with M(n) = O(n^(1/2−ε)) the side grows as
    /// Θ(√n) in n.
    #[test]
    fn side_grows_as_sqrt_n_for_small_bandwidth() {
        for mem in [Bandwidth::constant(1.0), Bandwidth::sublinear_sqrt(0.25)] {
            let pts = sweep(32, mem, |m| m.side_um);
            let f = fit_exponent_tail(&pts, 4);
            assert!(
                (f.exponent - 0.5).abs() < 0.06,
                "side exponent {f:?} for {mem:?}"
            );
        }
    }

    /// Case 3: with M(n) = Θ(n) the side is dominated by bandwidth and
    /// grows linearly.
    #[test]
    fn side_grows_linearly_for_full_bandwidth() {
        let pts = sweep(32, Bandwidth::full(), |m| m.side_um);
        let f = fit_exponent_tail(&pts, 4);
        assert!((f.exponent - 1.0).abs() < 0.08, "{f:?}");
    }

    /// Wire length tracks the side length (W(n) = Θ(X(n))).
    #[test]
    fn wire_is_theta_of_side() {
        let tech = Tech::cmos_035();
        for k in 1..=8 {
            let n = 4usize.pow(k);
            let m = metrics(&params(n, 32, Bandwidth::constant(1.0)), &tech);
            let ratio = m.wire_um / m.side_um;
            assert!(ratio > 0.4 && ratio < 4.0, "n={n}: wire/side ratio {ratio}");
        }
    }

    /// The side scales linearly in L once the register file dominates
    /// (the channel and the station are both Θ(L)).
    #[test]
    fn side_scales_linearly_in_l() {
        let tech = Tech::cmos_035();
        let pts: Vec<(f64, f64)> = (3..=8)
            .map(|k| {
                let l = 1usize << k;
                (
                    l as f64,
                    metrics(&params(256, l, Bandwidth::constant(1.0)), &tech).side_um,
                )
            })
            .collect();
        let f = fit_exponent_tail(&pts, 4);
        assert!((f.exponent - 1.0).abs() < 0.25, "{f:?}");
    }

    #[test]
    fn gate_delay_is_logarithmic() {
        assert!(gate_delay(4) < gate_delay(64));
        // Doubling n adds a constant, not a factor.
        let d1 = gate_delay(1 << 10);
        let d2 = gate_delay(1 << 11);
        assert!((d2 - d1 - 4.0).abs() < 1e-9);
    }

    /// The exact recursion matches the closed form's shape: their ratio
    /// is bounded over the sweep.
    #[test]
    fn recursion_matches_closed_form_shape() {
        let tech = Tech::cmos_035();
        for mem in [
            Bandwidth::constant(1.0),
            Bandwidth::sqrt(),
            Bandwidth::full(),
        ] {
            let ratios: Vec<f64> = (2..=9)
                .map(|k| {
                    let n = 4usize.pow(k);
                    let p = params(n, 32, mem);
                    metrics(&p, &tech).side_um / side_closed_form_shape(&p)
                })
                .collect();
            let lo = ratios.iter().cloned().fold(f64::MAX, f64::min);
            let hi = ratios.iter().cloned().fold(0.0, f64::max);
            assert!(
                hi / lo < 4.0,
                "closed form diverges from recursion: {ratios:?} for {mem:?}"
            );
        }
    }

    #[test]
    fn power_of_four_layouts_are_square() {
        let tech = Tech::cmos_035();
        let (w, h, _) = htree(tree(&params(64, 32, Bandwidth::constant(1.0)), &tech), None);
        assert!((w / h - 1.0).abs() < 0.2, "w={w} h={h}");
    }

    #[test]
    fn single_station_is_just_the_station() {
        let tech = Tech::cmos_035();
        let m = metrics(&params(1, 32, Bandwidth::constant(1.0)), &tech);
        assert!((m.side_um - tech.station_side_um(32, 32)).abs() < 1e-9);
        assert_eq!(m.wire_um, 0.0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_htree_rejected() {
        let _ = htree((3, 1.0, |_| 0.0), None);
    }
}

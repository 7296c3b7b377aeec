//! Explicit floorplan placement: the recursive layouts of Figures 6
//! and 10 as concrete, overlap-checked rectangle placements.
//!
//! There is one H-tree: the doubling loop that evaluates the
//! side-length recurrences for [`crate::usi`] and [`crate::hybrid`]
//! also places every station, cluster and channel strip when handed a
//! rectangle buffer. This module seeds that buffer and wraps the result,
//! so tests can verify that the geometry is realisable (components are
//! disjoint) and the experiment binaries can render the floorplans the
//! paper draws.

use crate::metrics::ArchParams;
use crate::tech::Tech;
use crate::{hybrid, usi};

/// An axis-aligned rectangle (µm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x: f64,
    /// Bottom edge.
    pub y: f64,
    /// Width.
    pub w: f64,
    /// Height.
    pub h: f64,
}

impl Rect {
    /// Right edge.
    pub fn x2(&self) -> f64 {
        self.x + self.w
    }

    /// Top edge.
    pub fn y2(&self) -> f64 {
        self.y + self.h
    }

    /// Area.
    pub fn area(&self) -> f64 {
        self.w * self.h
    }

    /// Do two rectangles overlap with positive area (touching edges do
    /// not count)?
    pub fn overlaps(&self, o: &Rect) -> bool {
        const EPS: f64 = 1e-6;
        self.x + EPS < o.x2()
            && o.x + EPS < self.x2()
            && self.y + EPS < o.y2()
            && o.y + EPS < self.y2()
    }
}

/// What a placed rectangle is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// An execution station (leaf), by index.
    Station(usize),
    /// An Ultrascalar II cluster (hybrid leaf), by index.
    Cluster(usize),
    /// A routing channel with its prefix/fat-tree nodes, by H-tree
    /// combine level (1 = innermost pairing).
    Channel(usize),
}

/// A complete placement.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Placed components.
    pub rects: Vec<(Component, Rect)>,
}

impl Placement {
    /// The bounding box of everything placed.
    pub fn bounding(&self) -> Rect {
        let mut x1 = f64::MAX;
        let mut y1 = f64::MAX;
        let mut x2 = f64::MIN;
        let mut y2 = f64::MIN;
        for (_, r) in &self.rects {
            x1 = x1.min(r.x);
            y1 = y1.min(r.y);
            x2 = x2.max(r.x2());
            y2 = y2.max(r.y2());
        }
        Rect {
            x: x1,
            y: y1,
            w: x2 - x1,
            h: y2 - y1,
        }
    }

    /// Indices of pairs of *leaf* components (stations/clusters) that
    /// overlap — must be empty for a legal floorplan. Channels are
    /// allowed to abut everything (they are the space between leaves)
    /// but leaves must never overlap each other or a channel.
    pub fn violations(&self) -> Vec<(usize, usize)> {
        let mut bad = Vec::new();
        for i in 0..self.rects.len() {
            for j in i + 1..self.rects.len() {
                let (ci, ri) = &self.rects[i];
                let (cj, rj) = &self.rects[j];
                let both_channels =
                    matches!(ci, Component::Channel(_)) && matches!(cj, Component::Channel(_));
                if !both_channels && ri.overlaps(rj) {
                    bad.push((i, j));
                }
            }
        }
        bad
    }

    /// Leaf (station/cluster) count.
    pub fn leaves(&self) -> usize {
        self.rects
            .iter()
            .filter(|(c, _)| matches!(c, Component::Station(_) | Component::Cluster(_)))
            .count()
    }

    /// Fraction of the bounding box covered by leaf components
    /// (the rest is interconnect — the paper's core area story).
    pub fn leaf_utilisation(&self) -> f64 {
        let leaf_area: f64 = self
            .rects
            .iter()
            .filter(|(c, _)| matches!(c, Component::Station(_) | Component::Cluster(_)))
            .map(|(_, r)| r.area())
            .sum();
        leaf_area / self.bounding().area()
    }

    /// Coarse ASCII rendering (`cols` characters wide): stations `S`,
    /// clusters `C`, channels `#`, empty space `.`.
    pub fn ascii(&self, cols: usize) -> String {
        let bb = self.bounding();
        let cols = cols.max(8);
        let scale = bb.w / cols as f64;
        let rows = ((bb.h / scale).ceil() as usize).max(1);
        let mut grid = vec![vec!['.'; cols]; rows];
        // Channels first, leaves on top.
        let mut order: Vec<&(Component, Rect)> = self.rects.iter().collect();
        order.sort_by_key(|(c, _)| match c {
            Component::Channel(_) => 0,
            _ => 1,
        });
        for (c, r) in order {
            let ch = match c {
                Component::Station(_) => 'S',
                Component::Cluster(_) => 'C',
                Component::Channel(_) => '#',
            };
            let cx1 = (((r.x - bb.x) / scale) as usize).min(cols - 1);
            let cx2 = (((r.x2() - bb.x) / scale).ceil() as usize).clamp(cx1 + 1, cols);
            let cy1 = (((r.y - bb.y) / scale) as usize).min(rows - 1);
            let cy2 = (((r.y2() - bb.y) / scale).ceil() as usize).clamp(cy1 + 1, rows);
            for row in grid.iter_mut().take(cy2).skip(cy1) {
                for cell in row.iter_mut().take(cx2).skip(cx1) {
                    *cell = ch;
                }
            }
        }
        let mut out = String::with_capacity(rows * (cols + 1));
        for row in grid.iter().rev() {
            out.extend(row.iter());
            out.push('\n');
        }
        out
    }
}

/// Seed an H-tree with leaf 0 at the origin and let [`usi::htree`]'s
/// doubling loop place the rest.
fn place(tree: (usize, f64, impl Fn(usize) -> f64), leaf0: Component) -> Placement {
    let side = tree.1;
    let mut rects = vec![(
        leaf0,
        Rect {
            x: 0.0,
            y: 0.0,
            w: side,
            h: side,
        },
    )];
    usi::htree(tree, Some(&mut rects));
    Placement { rects }
}

/// Place an `n`-station Ultrascalar I (Figure 6).
pub fn usi_floorplan(p: &ArchParams, tech: &Tech) -> Placement {
    place(usi::tree(p, tech), Component::Station(0))
}

/// Place a hybrid (Figure 10): clusters of `c` stations as H-tree
/// leaves.
///
/// # Panics
/// Panics unless `c` divides `n` and `n/c` is a power of two.
pub fn hybrid_floorplan(p: &ArchParams, c: usize, tech: &Tech) -> Placement {
    place(hybrid::tree(p, c, tech), Component::Cluster(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrascalar_memsys::Bandwidth;

    fn params(n: usize) -> ArchParams {
        ArchParams {
            n,
            l: 32,
            bits: 32,
            mem: Bandwidth::constant(1.0),
        }
    }

    #[test]
    fn usi_floorplan_has_all_stations_disjoint() {
        for n in [1usize, 4, 16, 64] {
            let f = usi_floorplan(&params(n), &Tech::cmos_035());
            assert_eq!(f.leaves(), n, "n={n}");
            assert!(f.violations().is_empty(), "n={n}: {:?}", f.violations());
            // Each doubling numbers the copied stations after the originals.
            let mut ids: Vec<usize> = f
                .rects
                .iter()
                .filter_map(|(c, _)| match c {
                    Component::Station(i) => Some(*i),
                    _ => None,
                })
                .collect();
            ids.sort_unstable();
            assert!(ids.into_iter().eq(0..n), "n={n}: station indices");
        }
    }

    /// Every bandwidth regime the figures sweep.
    fn regimes() -> [Bandwidth; 4] {
        [
            Bandwidth::sublinear_sqrt(0.25),
            Bandwidth::sqrt(),
            Bandwidth::full(),
            Bandwidth::constant(1.0),
        ]
    }

    #[test]
    fn bounding_box_matches_recurrence() {
        let tech = Tech::cmos_035();
        for mem in regimes() {
            for n in [1usize, 4, 16, 64, 256, 1024, 4096] {
                let p = ArchParams { mem, ..params(n) };
                let f = usi_floorplan(&p, &tech);
                assert_eq!(f.leaves(), n);
                let bb = f.bounding();
                let side = usi::side_um(&p, &tech);
                assert!(
                    (bb.w.max(bb.h) - side).abs() / side < 1e-9,
                    "{mem:?} n={n}: bb {} vs recurrence {}",
                    bb.w.max(bb.h),
                    side
                );
            }
        }
    }

    #[test]
    fn hybrid_floorplan_places_clusters() {
        let tech = Tech::cmos_035();
        for mem in regimes() {
            for (n, c) in [(32usize, 8usize), (128, 32), (4096, 8), (4096, 32)] {
                let p = ArchParams { mem, ..params(n) };
                let f = hybrid_floorplan(&p, c, &tech);
                assert_eq!(f.leaves(), n / c);
                assert!(f.violations().is_empty(), "{mem:?} n={n} c={c}");
                let bb = f.bounding();
                let side = hybrid::side_um(&p, c, &tech);
                assert!(
                    (bb.w.max(bb.h) - side).abs() / side < 1e-9,
                    "{mem:?} n={n} c={c}: bb {} vs recurrence {}",
                    bb.w.max(bb.h),
                    side
                );
            }
        }
    }

    /// FNV-64 over the bits of every placed rect, in every regime at
    /// fig12's largest size. A change to the doubling loop's float
    /// order (say `r.x + (w + c)` for `r.x + w + c`) moves no figure
    /// digit but fails here.
    #[test]
    fn placed_rects_match_recorded_digest() {
        let tech = Tech::cmos_035();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for mem in regimes() {
            let p = ArchParams {
                mem,
                ..params(4096)
            };
            for f in [usi_floorplan(&p, &tech), hybrid_floorplan(&p, 32, &tech)] {
                for (_, r) in &f.rects {
                    for v in [r.x, r.y, r.w, r.h] {
                        for b in v.to_bits().to_le_bytes() {
                            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(h, 0x3a02_54c8_e69c_2314, "placed rect digest {h:016x}");
    }

    #[test]
    fn interconnect_dominates_usi_at_scale() {
        // The paper's point in one number: at n = 64, L = 32 the
        // stations occupy a small fraction of the Ultrascalar I die;
        // the channels eat the rest.
        let f = usi_floorplan(&params(64), &Tech::cmos_035());
        let util = f.leaf_utilisation();
        assert!(util < 0.10, "station utilisation {util:.3}");
        // The hybrid packs far better.
        let fh = hybrid_floorplan(&params(128), 32, &Tech::cmos_035());
        assert!(fh.leaf_utilisation() > 4.0 * util);
    }

    #[test]
    fn ascii_renders_stations_and_channels() {
        let f = usi_floorplan(&params(16), &Tech::cmos_035());
        let art = f.ascii(48);
        assert!(art.contains('S'));
        assert!(art.contains('#'));
        // 16 disjoint station blobs exist; crude check: enough S cells.
        let s_count = art.chars().filter(|&c| c == 'S').count();
        assert!(s_count >= 16, "{s_count}");
    }

    #[test]
    fn channel_levels_recorded() {
        let f = usi_floorplan(&params(16), &Tech::cmos_035());
        let mut levels: Vec<usize> = f
            .rects
            .iter()
            .filter_map(|(c, _)| match c {
                Component::Channel(l) => Some(*l),
                _ => None,
            })
            .collect();
        levels.sort_unstable();
        levels.dedup();
        assert_eq!(levels, vec![1, 2, 3, 4]); // sizes 2, 4, 8, 16
    }
}

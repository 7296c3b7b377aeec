//! VLSI complexity models: the paper's floorplans, recurrences and
//! delay/area bounds, evaluated numerically.
//!
//! The paper's evaluation is *geometric*: every claim in Figure 11 is a
//! statement about the side length, wire length and gate depth of a
//! recursively defined layout. This crate instantiates those layouts
//! from technology constants and evaluates the recurrences exactly
//! (no closed forms are assumed — the closed forms are *checked
//! against* the recursions in the tests and benches). Gate delays are
//! closed forms too, but each one is the exact structural depth of the
//! `ultrascalar-circuit` netlist that models the datapath, which the
//! workspace's `paper_claims` tests check level for level:
//!
//! * [`tech`] — technology parameters (wire pitch, cell sizes, gate
//!   and repeatered-wire delay), with a calibrated 0.35 µm instance
//!   matching the paper's Magic layouts;
//! * [`delay`] — the repeater-insertion wire model (§3's "wire delay
//!   can be made linear"), whose slope is the technology's wire delay
//!   per µm;
//! * [`usi`] — the Ultrascalar I H-tree (Figure 6): recurrences
//!   `X(n) = 2X(n/4) + Θ(L + M(n))`, `W(n) = X(n/4) + Θ(L + M(n)) +
//!   W(n/2)`, evaluated by the crate's one H-tree doubling loop;
//! * [`usii`] — the Ultrascalar II diagonal grid (Figure 7) and its
//!   log-depth mesh-of-trees variant (Figure 8): side `Θ(n + L)`
//!   resp. `Θ((n+L)·log(n+L))`;
//! * [`hybrid`] — the two-level layout (Figure 10): US-II clusters of
//!   `C` stations inside a US-I H-tree, `U(n) = 2U(n/4) + Θ(L + M(n))`
//!   with base case the cluster side, plus the §6 optimal-cluster-size
//!   search (the paper's `C* = Θ(L)`);
//! * [`floorplan`] — the Figure 6 and 10 layouts as placed
//!   rectangles, produced by the same doubling loop that evaluates the
//!   US-I and hybrid recurrences;
//! * [`threed`] — the §7 three-dimensional packaging bounds;
//! * [`metrics`] — the combined gate/wire/total-delay and area record
//!   (rows of Figure 11);
//! * [`fit`] — log–log regression for measuring growth exponents, used
//!   by the Figure 11 bench to compare measured slopes against the
//!   paper's Θ-claims;
//! * [`empirical`] — the Figure 12 reproduction: a 64-wide
//!   Ultrascalar I vs a 128-wide 4-cluster hybrid in 0.35 µm, with the
//!   paper's headline ≈11.5× density ratio.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod delay;
pub mod empirical;
pub mod fit;
pub mod floorplan;
pub mod hybrid;
pub mod metrics;
pub mod tech;
pub mod threed;
pub mod usi;
pub mod usii;

pub use fit::fit_exponent;
pub use metrics::{ArchParams, Metrics};
pub use tech::Tech;

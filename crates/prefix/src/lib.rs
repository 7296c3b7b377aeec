//! Parallel-prefix substrate for the Ultrascalar reproduction.
//!
//! The Ultrascalar processors of Kuszmaul, Henry and Loh (SPAA '99) are
//! built almost entirely out of *parallel-prefix tree circuits*:
//!
//! * one **cyclic segmented parallel prefix (CSPP)** circuit per logical
//!   register forwards register values from each writer to every younger
//!   reader (paper Figure 4),
//! * three 1-bit CSPP circuits with the AND operator sequence
//!   instructions: "all earlier stations finished", "all earlier stores
//!   finished", "all earlier branches confirmed" (paper Figure 5),
//! * the Ultrascalar II register network is a column of *(non-cyclic)
//!   segmented* reduction trees that locate the nearest preceding writer
//!   of a requested register (paper Figure 8).
//!
//! This crate provides those primitives as pure algorithms:
//!
//! * [`scan`] — serial reference scans (inclusive, exclusive, segmented),
//! * [`tree`] — the one left-balanced up/down tree sweep
//!   ([`tree::exclusive_sweep_with`]) behind every tree form below and
//!   the circuit generators' netlists, plus plain tree scans,
//! * [`cspp`] — segmented and cyclic-segmented prefix, both a naive
//!   reference "ring" evaluation and the logarithmic-depth tree
//!   evaluation used by the hardware, plus the closure-driven
//!   [`cspp::cspp_heap_with`] the circuit generators emit gates through,
//! * [`sched`] — the Memo 2 shared-ALU scheduler as a cyclic prefix
//!   count,
//! * [`packed`] — the [`packed::BitWords`] bitset behind the memory
//!   butterfly's per-cycle link raster,
//! * [`op`] — the associative-operator abstraction shared by all of the
//!   above, including the two operators used in the paper
//!   ([`op::First`], the register-forwarding operator `a ⊗ b = a`, and
//!   [`op::BoolAnd`], the sequencing operator `a ⊗ b = a ∧ b`).
//!
//! The gate-level realisations of the same structures live in the
//! `ultrascalar-circuit` crate; property tests there check that the
//! netlists agree with the algorithms in this crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cspp;
pub mod op;
pub mod packed;
pub mod scan;
pub mod sched;
pub mod tree;

pub use cspp::{
    cspp_heap_with, cspp_ring, cspp_tree, segmented_prefix_ring, segmented_prefix_tree,
};
pub use op::{BoolAnd, BoolOr, First, Last, Max, Min, PrefixOp, SegPair, Sum};
pub use packed::BitWords;
pub use sched::allocate_oldest_first;
pub use tree::{tree_scan_exclusive, tree_scan_inclusive};

/// The host's SIMD level, `"avx2"` or `"swar"`, from
/// `is_x86_feature_detected!`. Detection only: nothing in the workspace
/// dispatches on it. It is kept solely because the repository
/// benchmark prints it, and goes with that benchmark's next change
/// (ROADMAP item 5).
pub fn active_simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "swar"
}

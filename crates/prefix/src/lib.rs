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
//!   finished", "all earlier branches confirmed" (paper Figure 5).
//!
//! This crate provides the CSPP as pure algorithms:
//!
//! * [`cspp`] — the quadratic reference "ring" evaluation
//!   ([`cspp_ring`], the definition), the logarithmic-depth tree
//!   evaluation used by the hardware ([`cspp_tree`]), the
//!   closure-driven [`cspp_heap_with`] the circuit generators emit
//!   gates through, and Figure 5's [`cspp::cspp_all_earlier`],
//! * [`op`] — the associative-operator abstraction with the two
//!   operators used in the paper ([`op::First`], the
//!   register-forwarding operator `a ⊗ b = a`, and [`op::BoolAnd`], the
//!   sequencing operator `a ⊗ b = a ∧ b`) and their segmented lift,
//! * [`packed`] — the [`packed::BitWords`] bitset behind the memory
//!   butterfly's per-cycle link raster, the engine's station sets and
//!   the memory image's page marks.
//!
//! The gate-level realisations of the same structures live in the
//! `ultrascalar-circuit` crate; property tests there check that the
//! netlists agree with [`cspp_ring`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cspp;
pub mod op;
pub mod packed;

pub use cspp::{cspp_heap_with, cspp_ring, cspp_tree};
pub use op::{BoolAnd, First, PrefixOp, SegPair};
pub use packed::BitWords;

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

//! Gate-level substrate: netlists, constructive evaluation, unit-delay
//! timing, and generators for the paper's circuit structures.
//!
//! The paper's scalability claims are *gate-depth* claims — `Θ(n)` for
//! the mux-ring datapath of Figure 1, `Θ(log n)` for the CSPP tree of
//! Figure 4, `Θ(n + L)` for the linear Ultrascalar II grid of Figure 7,
//! `Θ(log(n + L))` for its mesh-of-trees refinement (Figure 8). This
//! crate makes those claims *measurable*: it builds the actual gate
//! networks and reports the settled depth of every evaluation.
//!
//! * [`netlist`] — a structural netlist of two-input gates and muxes,
//!   with a **constructive three-valued, event-driven evaluator**.
//!   Combinational *cycles are allowed* (the Ultrascalar mux rings and
//!   the tied-together tree tops are genuinely cyclic); an evaluation
//!   succeeds iff every node settles monotonically, which is exactly the
//!   condition under which the real hardware settles. Each node records
//!   the unit-delay *level* at which it settled, so `max_level` is the
//!   critical-path gate delay for that input vector.
//! * [`build`] — bus-level combinators (word muxes, equality
//!   comparators, AND/OR reduction trees, fan-out trees).
//! * [`generators`] — the paper's structures: per-register mux ring,
//!   CSPP tree (bool and bus), the Ultrascalar II column search in both
//!   linear and tree form, and a complete small Ultrascalar II register
//!   datapath.
//!
//! Property tests pin every generator to its algorithmic model in
//! `ultrascalar-prefix`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod build;
pub mod generators;
pub mod netlist;

pub use netlist::{EvalError, Evaluation, Gate, Netlist, NodeId};

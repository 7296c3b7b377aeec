//! Experiment harness: shared table formatting, parameter sweeps and
//! the expected-exponent data for the paper's Figure 11.
//!
//! Each table/figure of the paper has a binary in `src/bin/` that
//! regenerates it (see DESIGN.md's per-experiment index); this library
//! holds the pieces they share so the binaries stay declarative.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod fig11;
pub mod kernels;
pub mod serve;
pub mod sweep;
pub mod table;

pub use fig11::{expected, measured_exponents, Arch, ExpectedExponents, MeasuredExponents};
pub use serve::Server;
pub use sweep::parallel_map_with;
pub use table::Table;

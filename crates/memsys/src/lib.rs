//! Memory subsystem: an interleaved (banked) data cache reached through
//! a fat-tree network of configurable fatness.
//!
//! The paper (§2, §3) connects the execution stations to "an
//! interleaved data cache via fat-tree or butterfly networks … this
//! allows one to choose how much bandwidth to implement by adjusting
//! the fatness of the trees", and its headline complexity results are
//! parameterised by the provided memory bandwidth `M(n)`. This crate
//! models the *timing* of reaching memory; what memory holds, its size
//! and its address arithmetic are architectural state and belong to
//! `ultrascalar-isa`. It provides:
//!
//! * [`bandwidth`] — the `M(n) = c·n^p` family with the paper's three
//!   regimes (`p < ½`, `p = ½`, `p > ½`) and its regularity condition;
//! * [`fattree`] — a cycle-accurate fat-tree contention model: each
//!   subtree of `s` leaves owns `⌈M(s)⌉` upward links, requests are
//!   granted oldest-first (the hardware arbitrates with prefix
//!   circuits), and blocked requests retry next cycle;
//! * [`banked`] — the interleaved memory banks behind the tree, with
//!   per-bank occupancy, storing the words in `ultrascalar-isa`'s
//!   page-tracked `MemImage`;
//! * [`system`] — [`system::MemSystem`], the synchronous request/
//!   response interface the processor models drive.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod banked;
pub mod butterfly;
pub mod cache;
pub mod fattree;
pub mod system;

pub use bandwidth::Bandwidth;
pub use cache::{CacheConfig, ClusterCaches};
pub use system::{MemConfig, MemRequest, MemResponse, MemStats, MemSystem, NetworkKind, ReqKind};

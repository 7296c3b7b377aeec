//! The paper's contribution: cycle-accurate models of the three
//! scalable superscalar processors, plus a conventional idealized
//! out-of-order baseline.
//!
//! # The three Ultrascalars as one engine
//!
//! The paper's §6 observation — "we can view a cluster as taking on the
//! role of a single 'super' execution station … each cluster behaves
//! just like an execution station in the Ultrascalar I" — means all
//! three processors share one scheduling semantics, differing only in
//! the *granularity* at which window slots are reclaimed:
//!
//! | Processor | Cluster size `C` | Reclaim granularity |
//! |---|---|---|
//! | Ultrascalar I | 1 | single station, wrap-around ring |
//! | Hybrid | `1 < C < n` | whole cluster of `C` stations |
//! | Ultrascalar II | `n` | the entire window (batch refill; the paper's "stations idle waiting for everyone to finish before refilling") |
//!
//! [`engine::Ultrascalar`] implements exactly that, driven by the
//! shared fetch/predict/memory machinery. [`baseline::BaselineOoO`] is
//! an *independent* implementation of a conventional idealized
//! superscalar (rename map, physical registers, broadcast wakeup,
//! in-order ROB retirement); the paper's claim that the Ultrascalar
//! "exploits the same instruction-level parallelism as today's
//! superscalars … exactly what would be produced in a traditional
//! superscalar" is property-tested as cycle-for-cycle equality between
//! `Ultrascalar` with `C = 1` and `BaselineOoO`.
//!
//! # Cycle conventions
//!
//! * An instruction **issues** on the first cycle `t` at which every
//!   source is ready in its station's register-file view, and its
//!   result enters the datapath at the end of cycle
//!   `t + latency − 1`; consumers can issue the following cycle
//!   ("newly written results propagate to all readers in one clock
//!   cycle").
//! * The deallocation / memory-serialisation / commit conditions are
//!   CSPP circuits evaluated on start-of-cycle state, so a station is
//!   reclaimed at the end of the first cycle that *begins* with it and
//!   all older stations finished, and its slot refills (cluster-wide)
//!   the next cycle.
//! * Branch misprediction recovery is the paper's one-cycle scheme:
//!   younger stations are flushed at the end of the resolving cycle and
//!   fetch resumes on the correct path the next cycle; nothing else is
//!   repaired because every station's register view is rebuilt by the
//!   datapath.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod config;
pub mod engine;
pub mod fetch;
pub mod lane;
pub mod latency;
pub mod pool;
pub mod predict;
pub mod processor;
pub mod station;
pub mod stats;
pub mod timing;

pub use baseline::BaselineOoO;
pub use config::{ForwardModel, ProcConfig};
pub use engine::{FlushEvent, FlushedEntry, ReplayLog, Ultrascalar, WalkCensus};
pub use lane::{LaneBatchStats, LaneBatcher, MAX_LANES, MAX_LEADER_LOG};
pub use latency::LatencyModel;
pub use pool::{PooledEngine, ShardedEnginePool};
pub use predict::PredictorKind;
pub use processor::{Processor, RunResult};
pub use stats::ProcStats;
pub use timing::{render_station_occupancy, render_timing_diagram, InstrTiming};

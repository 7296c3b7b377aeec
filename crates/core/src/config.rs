//! Processor configuration.

use crate::latency::LatencyModel;
use crate::predict::PredictorKind;
use ultrascalar_memsys::MemConfig;

/// How register results travel from producer to consumer stations
/// (the paper's §7 timing-methodology discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardModel {
    /// The paper's base design: "a global single-phase clock with all
    /// communications between components being completed in one clock
    /// cycle" — every consumer sees a result on the next cycle.
    SingleCycle,
    /// The §7 pipelined/self-timed variant: "it is possible to pipeline
    /// the system so that the long communications paths would include
    /// latches". Forwarding from station `a` to station `b` costs
    /// `per_hop` extra cycles per H-tree level up to their lowest
    /// common ancestor and back down, so neighbouring stations
    /// communicate fast and far stations slowly — "half of the
    /// communications paths from one station to its successor are
    /// completely local".
    Pipelined {
        /// Extra cycles per tree level, each direction.
        per_hop: u64,
    },
}

/// H-tree communication distance between ring positions `a` and `b`:
/// the height of their lowest common ancestor, i.e. the bit-length of
/// `a XOR b`. Zero iff `a == b`.
#[inline]
fn hop_level(a: usize, b: usize) -> usize {
    (usize::BITS - (a ^ b).leading_zeros()) as usize
}

impl ForwardModel {
    /// Extra forwarding cycles from station position `a` to `b`
    /// (positions are window ring slots; the H-tree LCA height is the
    /// bit-length of `a XOR b`).
    #[inline]
    pub fn extra(&self, a: usize, b: usize) -> u64 {
        match *self {
            ForwardModel::SingleCycle => 0,
            ForwardModel::Pipelined { per_hop } => Self::extra_at(per_hop, hop_level(a, b)),
        }
    }

    /// Extra forwarding cycles for a hop distance of `levels` H-tree
    /// levels under a per-level cost of `per_hop` each direction.
    /// Saturating: an astronomically large `--per-hop` must pin the
    /// readiness horizon at "never", not wrap it into the past (the
    /// unchecked `per_hop * 2 * levels` this replaces overflowed u64
    /// for CLI-reachable inputs).
    #[inline]
    pub fn extra_at(per_hop: u64, levels: usize) -> u64 {
        per_hop.saturating_mul(2).saturating_mul(levels as u64)
    }
}

/// Configuration shared by every processor model.
///
/// `PartialEq` is structural and exact — the engine pool uses it to
/// decide whether a warm engine can serve a request, so two configs
/// compare equal iff an engine built from one is interchangeable with
/// an engine built from the other.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcConfig {
    /// Window / issue width `n` (number of execution stations).
    pub window: usize,
    /// Cluster size `C`: 1 for the Ultrascalar I, `window` for the
    /// Ultrascalar II, anything in between for the hybrid. Must divide
    /// `window`.
    pub cluster: usize,
    /// Functional-unit latencies.
    pub latency: LatencyModel,
    /// Branch predictor.
    pub predictor: PredictorKind,
    /// Memory system.
    pub mem: MemConfig,
    /// Give up after this many cycles (deadlock guard).
    pub max_cycles: u64,
    /// Shared-ALU pool size (`None` = one ALU per station, the paper's
    /// base design; `Some(k)` = the Memo 2 scheduler with `k` shared
    /// ALUs serving `Alu`/`AluImm` instructions, the paper's closing
    /// "window-size of 128 and 16 shared ALUs" configuration).
    pub alus: Option<usize>,
    /// Memory renaming (§7: "the memory bandwidth pressure can also be
    /// reduced by using memory-renaming hardware, which can be
    /// implemented by CSPP circuits"): loads forward from the nearest
    /// older in-window store to the same address, and bypass memory
    /// serialisation entirely once all older store addresses are known
    /// to differ.
    pub memory_renaming: bool,
    /// Register-forwarding latency model.
    pub forward: ForwardModel,
    /// Instructions fetched per cycle (`None` = one per freed station,
    /// i.e. fetch width = issue width, the paper's assumption that "the
    /// issue width and the instruction-fetch width scale together").
    /// `Some(f)` caps refill at `f` per cycle for fetch-bandwidth
    /// ablations.
    pub fetch_width: Option<usize>,
    /// Event-driven cycle skipping (on by default): when a cycle is
    /// provably silent — nothing issued, no memory traffic, no
    /// completion, commit or refill — the engine jumps straight to the
    /// next scheduled event (completion, forwarding-readiness or memory
    /// response), accumulating per-cycle statistics in closed form over
    /// the skipped span. Results are cycle-exact either way; `false`
    /// retains the naive tick-every-cycle loop as a differential-testing
    /// reference.
    pub cycle_skip: bool,
}

impl ProcConfig {
    /// An Ultrascalar I (`C = 1`) with ideal memory and a perfect
    /// oracle — the pure-dataflow configuration used for timing studies
    /// like the paper's Figure 3.
    pub fn ultrascalar_i(window: usize) -> Self {
        ProcConfig {
            window,
            cluster: 1,
            latency: LatencyModel::default(),
            predictor: PredictorKind::Perfect,
            mem: MemConfig::ideal(window, 1 << 16),
            max_cycles: 10_000_000,
            alus: None,
            memory_renaming: false,
            forward: ForwardModel::SingleCycle,
            fetch_width: None,
            cycle_skip: true,
        }
    }

    /// An Ultrascalar II (`C = n`): batch window refill.
    pub fn ultrascalar_ii(window: usize) -> Self {
        ProcConfig {
            cluster: window,
            ..ProcConfig::ultrascalar_i(window)
        }
    }

    /// A hybrid with `window / cluster` clusters of `cluster` stations.
    pub fn hybrid(window: usize, cluster: usize) -> Self {
        ProcConfig {
            cluster,
            ..ProcConfig::ultrascalar_i(window)
        }
    }

    /// Builder: replace the predictor.
    pub fn with_predictor(mut self, p: PredictorKind) -> Self {
        self.predictor = p;
        self
    }

    /// Builder: replace the memory configuration.
    pub fn with_mem(mut self, mem: MemConfig) -> Self {
        self.mem = mem;
        self
    }

    /// Builder: replace the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Builder: share `k` ALUs across the window (Memo 2 scheduler).
    pub fn with_shared_alus(mut self, k: usize) -> Self {
        self.alus = Some(k);
        self
    }

    /// Builder: enable memory renaming (store→load forwarding and
    /// address-based disambiguation).
    pub fn with_memory_renaming(mut self) -> Self {
        self.memory_renaming = true;
        self
    }

    /// Builder: replace the forwarding-latency model.
    pub fn with_forwarding(mut self, forward: ForwardModel) -> Self {
        self.forward = forward;
        self
    }

    /// Builder: cap instruction fetch at `f` per cycle.
    pub fn with_fetch_width(mut self, f: usize) -> Self {
        self.fetch_width = Some(f);
        self
    }

    /// Builder: disable event-driven cycle skipping, forcing the naive
    /// tick-every-cycle loop. Cycle-exact results are identical with
    /// skipping on; this exists as the differential-testing reference
    /// and for apples-to-apples simulator-performance measurements.
    pub fn without_cycle_skipping(mut self) -> Self {
        self.cycle_skip = false;
        self
    }

    /// Number of clusters `K = n / C`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (use
    /// [`ProcConfig::validate`] first for a `Result`).
    pub fn num_clusters(&self) -> usize {
        self.validate().expect("invalid processor configuration");
        self.window / self.cluster
    }

    /// Check the structural constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("window must be at least 1".into());
        }
        if self.cluster == 0 {
            return Err("cluster must be at least 1".into());
        }
        if !self.window.is_multiple_of(self.cluster) {
            return Err(format!(
                "cluster size {} must divide window size {}",
                self.cluster, self.window
            ));
        }
        if self.alus == Some(0) {
            return Err("a shared-ALU pool needs at least one ALU".into());
        }
        if self.fetch_width == Some(0) {
            return Err("fetch width must be at least one".into());
        }
        if self.predictor == PredictorKind::Bimodal(0) {
            return Err("a bimodal predictor needs at least one counter".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hop-level geometry: the H-tree LCA height is the bit-length of
    /// `a XOR b`, zero on the diagonal.
    #[test]
    fn hop_level_is_xor_bit_length() {
        assert_eq!(hop_level(5, 5), 0);
        assert_eq!(hop_level(4, 5), 1);
        assert_eq!(hop_level(0, 7), 3);
        assert_eq!(hop_level(0, 63), 6);
    }

    #[test]
    fn presets() {
        assert_eq!(ProcConfig::ultrascalar_i(8).num_clusters(), 8);
        assert_eq!(ProcConfig::ultrascalar_ii(8).num_clusters(), 1);
        assert_eq!(ProcConfig::hybrid(32, 8).num_clusters(), 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ProcConfig::hybrid(8, 3).validate().is_err());
        assert!(ProcConfig {
            window: 0,
            ..ProcConfig::ultrascalar_i(1)
        }
        .validate()
        .is_err());
        assert!(ProcConfig {
            cluster: 0,
            ..ProcConfig::ultrascalar_i(4)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn builders_compose() {
        let c = ProcConfig::ultrascalar_i(4)
            .with_predictor(PredictorKind::Bimodal(64))
            .with_latency(LatencyModel::unit())
            .with_shared_alus(2)
            .with_memory_renaming()
            .with_forwarding(ForwardModel::Pipelined { per_hop: 1 });
        assert_eq!(c.predictor, PredictorKind::Bimodal(64));
        assert_eq!(c.latency, LatencyModel::unit());
        assert_eq!(c.alus, Some(2));
        assert!(c.memory_renaming);
        assert_eq!(c.forward, ForwardModel::Pipelined { per_hop: 1 });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn zero_alus_rejected() {
        assert!(ProcConfig::ultrascalar_i(4)
            .with_shared_alus(0)
            .validate()
            .is_err());
    }

    /// The size `Predictor::new` asserts on is a configuration error,
    /// not a panic.
    #[test]
    fn zero_bimodal_predictor_size_rejected() {
        let base = ProcConfig::ultrascalar_i(4);
        assert!(base
            .clone()
            .with_predictor(PredictorKind::Bimodal(0))
            .validate()
            .is_err());
        assert!(base
            .with_predictor(PredictorKind::Bimodal(1))
            .validate()
            .is_ok());
    }

    #[test]
    fn forwarding_extra_latency() {
        let single = ForwardModel::SingleCycle;
        assert_eq!(single.extra(0, 63), 0);
        let piped = ForwardModel::Pipelined { per_hop: 1 };
        // Same station: no tree traversal.
        assert_eq!(piped.extra(5, 5), 0);
        // Adjacent pair sharing a level-1 subtree: one level up, one
        // down.
        assert_eq!(piped.extra(4, 5), 2);
        // Opposite halves of an 8-leaf tree: three levels each way.
        assert_eq!(piped.extra(0, 7), 6);
        // Symmetric.
        assert_eq!(piped.extra(7, 0), piped.extra(0, 7));
    }

    #[test]
    fn forwarding_extra_saturates() {
        // The CLI accepts any u64 --per-hop; the unchecked multiply
        // this pins against wrapped readiness into the past.
        let piped = ForwardModel::Pipelined { per_hop: u64::MAX };
        assert_eq!(piped.extra(0, 7), u64::MAX);
        assert_eq!(piped.extra(5, 5), 0);
        let piped = ForwardModel::Pipelined {
            per_hop: u64::MAX / 2,
        };
        assert_eq!(piped.extra(0, 1), u64::MAX - 1);
        assert_eq!(piped.extra(0, 3), u64::MAX);
    }

    /// Forwarding latency is a symmetric pseudo-metric on ring
    /// positions, monotone in the per-hop cost — for *any* u64
    /// `per_hop`, including the overflowing regime.
    #[test]
    fn prop_extra_symmetric_zero_diag_monotone() {
        use rand::Rng;
        rand::cases(0xC0F6_0001, 256, |rng, _| {
            let (a, b) = (rng.gen_range(0usize..1024), rng.gen_range(0usize..1024));
            let (per_hop, bump): (u64, u64) = (rng.gen(), rng.gen());
            let f = ForwardModel::Pipelined { per_hop };
            assert_eq!(f.extra(a, b), f.extra(b, a), "{a} {b} {per_hop}");
            assert_eq!(f.extra(a, a), 0, "{a} {per_hop}");
            // Monotone in per_hop (saturating, so never a wrap-around
            // decrease).
            let g = ForwardModel::Pipelined {
                per_hop: per_hop.saturating_add(bump),
            };
            assert!(g.extra(a, b) >= f.extra(a, b), "{a} {b} {per_hop} {bump}");
            // And monotone in hop distance via the level form.
            let lvl = hop_level(a, b);
            assert_eq!(f.extra(a, b), ForwardModel::extra_at(per_hop, lvl));
            if lvl > 0 {
                assert!(
                    ForwardModel::extra_at(per_hop, lvl)
                        >= ForwardModel::extra_at(per_hop, lvl - 1),
                    "{per_hop} {lvl}"
                );
            }
        });
    }
}

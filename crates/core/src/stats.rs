//! Run statistics collected by every processor model.

use ultrascalar_memsys::MemStats;

/// Aggregate statistics of one run.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Cycles simulated (until the halt committed).
    pub cycles: u64,
    /// Architectural (committed) instructions, excluding the synthetic
    /// end-of-program halt.
    pub committed: u64,
    /// Branch instructions committed.
    pub branches: u64,
    /// Committed branches that had been mispredicted.
    pub mispredictions: u64,
    /// Wrong-path instructions flushed.
    pub flushed: u64,
    /// Sum over cycles of occupied stations (divide by cycles for mean
    /// occupancy).
    pub occupancy_sum: u64,
    /// Histogram of producer→consumer forwarding distances, indexed by
    /// `consumer seq − producer seq`: index 1 is the immediate
    /// predecessor and index 0 stays empty. Sequence numbers a flush
    /// squashed between the two count in the distance. Reads satisfied
    /// by the committed register file are counted in
    /// [`ProcStats::regfile_reads`]. Used for the paper's §7 locality
    /// back-of-envelope.
    pub forward_dist: Vec<u64>,
    /// Operand reads satisfied from the committed register file.
    pub regfile_reads: u64,
    /// Histogram of instructions issued per cycle: `issue_hist[k]` =
    /// number of cycles in which exactly `k` instructions started
    /// execution (the window's realised ILP profile).
    pub issue_hist: Vec<u64>,
    /// Loads satisfied by store→load forwarding (memory renaming on).
    pub store_forwards: u64,
    /// Issue opportunities lost to shared-ALU contention: ready
    /// instructions that could not start because no ALU was free.
    pub alu_stalls: u64,
    /// Always 0. Counted runs whose packed register-readiness scan fell
    /// back to a scalar one; the engine now has a single walk, so there
    /// is nothing to fall back from. Kept so consumers of the field
    /// (`usim serve` reports it as `"packed_fallbacks"`) keep their
    /// format.
    pub packed_fallbacks: u64,
    /// Always 0. Counted runs whose configuration shape routed them off
    /// the packed scan; kept, like [`ProcStats::packed_fallbacks`], for
    /// the consumers that read it.
    pub packed_shape_gated: u64,
    /// Memory-system counters.
    pub mem: MemStats,
}

impl Clone for ProcStats {
    fn clone(&self) -> Self {
        let mut out = ProcStats::default();
        out.clone_from(self);
        out
    }

    /// Hand-written so `clone_from` reuses the histogram allocations —
    /// the lane-batch engine clones one leader's stats into up to 63
    /// retained result slots per batch, which must not touch the
    /// allocator once warm. Exhaustive destructuring keeps this in sync
    /// with the struct by construction.
    fn clone_from(&mut self, source: &Self) {
        let ProcStats {
            cycles,
            committed,
            branches,
            mispredictions,
            flushed,
            occupancy_sum,
            forward_dist,
            regfile_reads,
            issue_hist,
            store_forwards,
            alu_stalls,
            packed_fallbacks,
            packed_shape_gated,
            mem,
        } = self;
        *cycles = source.cycles;
        *committed = source.committed;
        *branches = source.branches;
        *mispredictions = source.mispredictions;
        *flushed = source.flushed;
        *occupancy_sum = source.occupancy_sum;
        forward_dist.clone_from(&source.forward_dist);
        *regfile_reads = source.regfile_reads;
        issue_hist.clone_from(&source.issue_hist);
        *store_forwards = source.store_forwards;
        *alu_stalls = source.alu_stalls;
        *packed_fallbacks = source.packed_fallbacks;
        *packed_shape_gated = source.packed_shape_gated;
        *mem = source.mem;
    }
}

impl ProcStats {
    /// Rewind to the default state in place: counters zeroed and
    /// histograms emptied through the hand-written `clone_from`, which
    /// keeps their allocations, so an engine reusing a `RunResult`
    /// across requests regrows them without touching the allocator.
    pub fn reset(&mut self) {
        self.clone_from(&ProcStats::default());
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mean window occupancy (stations holding instructions).
    pub fn mean_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Record that `k` instructions issued in some cycle.
    pub fn record_issue_count(&mut self, k: usize) {
        if self.issue_hist.len() <= k {
            self.issue_hist.resize(k + 1, 0);
        }
        self.issue_hist[k] += 1;
    }

    /// Record `n` consecutive idle cycles (zero instructions issued) in
    /// closed form. The event-driven engines use this to account for a
    /// skipped quiet span exactly as the naive per-cycle loop would
    /// have: `n` increments of `issue_hist[0]`.
    pub fn record_idle_cycles(&mut self, n: u64) {
        if self.issue_hist.is_empty() {
            self.issue_hist.resize(1, 0);
        }
        self.issue_hist[0] += n;
    }

    /// Mean instructions issued per cycle (from the histogram).
    pub fn mean_issue_rate(&self) -> f64 {
        let cycles: u64 = self.issue_hist.iter().sum();
        if cycles == 0 {
            return 0.0;
        }
        let issued: u64 = self
            .issue_hist
            .iter()
            .enumerate()
            .map(|(k, &c)| k as u64 * c)
            .sum();
        issued as f64 / cycles as f64
    }

    /// Record one forwarding at the given dynamic distance.
    pub fn record_forward(&mut self, dist: u64) {
        let d = dist as usize;
        if self.forward_dist.len() <= d {
            self.forward_dist.resize(d + 1, 0);
        }
        self.forward_dist[d] += 1;
    }

    /// Fraction of in-window forwardings with distance 1 (producer is
    /// the immediate predecessor) — the paper's §7 "half of the
    /// communications paths from one station to its successor are
    /// completely local" estimate. Distances are recorded as
    /// `consumer.seq − producer.seq`, so the local bucket is index 1.
    pub fn local_forward_fraction(&self) -> f64 {
        let total: u64 = self.forward_dist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.forward_dist.get(1).copied().unwrap_or(0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_occupancy() {
        let s = ProcStats {
            cycles: 10,
            committed: 25,
            occupancy_sum: 40,
            ..ProcStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mean_occupancy() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_safe() {
        let s = ProcStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mean_occupancy(), 0.0);
        assert_eq!(s.local_forward_fraction(), 0.0);
    }

    #[test]
    fn reset_zeroes_and_keeps_histogram_capacity() {
        let mut s = ProcStats {
            cycles: 5,
            alu_stalls: 2,
            ..ProcStats::default()
        };
        s.record_forward(40);
        s.record_issue_count(3);
        let caps = (s.forward_dist.capacity(), s.issue_hist.capacity());
        s.reset();
        assert_eq!(s, ProcStats::default());
        assert_eq!((s.forward_dist.capacity(), s.issue_hist.capacity()), caps);
    }

    #[test]
    fn forward_histogram() {
        let mut s = ProcStats::default();
        s.record_forward(1);
        s.record_forward(1);
        s.record_forward(3);
        assert_eq!(s.forward_dist, vec![0, 2, 0, 1]);
        // Two of three forwardings came from the immediate predecessor.
        assert!((s.local_forward_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }
}

//! Sweep helpers for the repository benchmark's `lane_pop` workload.
//!
//! A sweep evaluates the same measurement at many independent parameter
//! points (configs × kernels × batch sizes). [`parallel_map_with`] runs
//! those points concurrently on `std::thread` scoped threads with a
//! shared atomic work index — idle workers steal the next unclaimed
//! point, so uneven point costs (a 256-wide window simulates far slower
//! than a 16-wide one) still load-balance. Results are returned **in
//! input order** regardless of completion order, so a caller that
//! computes all its rows through it and then prints sequentially
//! produces byte-identical output to a serial run.
//!
//! [`LanePool`] keeps a warm engine and lane batcher per
//! configuration. The figure binaries and `usim` use neither: each
//! runs its cells serially.

use std::sync::atomic::{AtomicUsize, Ordering};

use ultrascalar::{LaneBatchStats, LaneBatcher, ProcConfig, RunResult, Ultrascalar, MAX_LANES};
use ultrascalar_isa::Program;

/// Evaluate `f` at every item, in parallel, returning results in input
/// order. Each worker carries mutable state built once by `init` and
/// threaded through every point it claims.
///
/// This is how sweeps hoist per-point setup out of the measurement
/// loop: a worker's state holds warm engines (a [`LanePool`]), so each
/// point rewinds existing structures instead of reallocating them.
/// Workers buffer `(index, result)` pairs and the caller's thread
/// merges them after the scope joins, so no lock is held during
/// measurement. On a single-CPU host one worker runs every point with
/// one state.
///
/// # Panics
/// Propagates a panic from any worker (the sweep is deterministic, so
/// a panicking point would panic serially too).
pub fn parallel_map_with<T, S, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|t| f(&mut state, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(&mut state, &items[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("work index covers every item"))
        .collect()
}

/// Warm engines, each with its [`LaneBatcher`], keyed by processor
/// configuration — the sweep-side home for config-major lane batching.
///
/// A sweep worker builds one pool as its [`parallel_map_with`] state;
/// every multi-seed population it claims is grouped by the cell's
/// config (the ROADMAP's "batching across configs"): the pool keeps
/// one warm engine per distinct [`ProcConfig`] it has seen, so a
/// population of `k` seeds costs one leader engine pass plus the
/// lock-step pass instead of `k` serial simulations — and a
/// later cell with the same config reuses the warm engine outright.
/// Results are byte-identical to serial `run_reusing` calls per
/// program (the lane engine's differential guarantee), so sweep output
/// is unchanged by pooling.
#[derive(Debug, Default)]
pub struct LanePool {
    engines: Vec<(Ultrascalar, LaneBatcher)>,
}

impl LanePool {
    /// An empty pool; engines are built on first use per config.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `programs[i]` into `out[i]` on the warm engine for `cfg`,
    /// lane-batching in chunks of up to [`MAX_LANES`] programs.
    ///
    /// # Panics
    /// Panics if `programs` and `out` differ in length.
    pub fn run_population(
        &mut self,
        cfg: &ProcConfig,
        programs: &[&Program],
        out: &mut [RunResult],
    ) {
        assert_eq!(programs.len(), out.len(), "one result slot per program");
        if programs.is_empty() {
            return;
        }
        let (engine, batcher) = self.engine_for(cfg);
        for (ps, os) in programs.chunks(MAX_LANES).zip(out.chunks_mut(MAX_LANES)) {
            batcher.run_batch(engine, ps, os);
        }
    }

    /// The warm engine for `cfg`, built on first use. A linear scan:
    /// sweeps put a handful of configs through each worker, and config
    /// comparison is cheap next to a simulation.
    fn engine_for(&mut self, cfg: &ProcConfig) -> &mut (Ultrascalar, LaneBatcher) {
        let i = match self.engines.iter().position(|(e, _)| e.config() == cfg) {
            Some(i) => i,
            None => {
                self.engines
                    .push((Ultrascalar::new(cfg.clone()), LaneBatcher::new()));
                self.engines.len() - 1
            }
        };
        &mut self.engines[i]
    }

    /// Aggregate lane-batch counters over every engine in the pool.
    pub fn stats(&self) -> LaneBatchStats {
        let mut t = LaneBatchStats::default();
        for (_, b) in &self.engines {
            t.merge(b.stats());
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        // Uneven per-point cost to force out-of-order completion.
        let out = parallel_map_with(
            &items,
            || (),
            |(), &x| {
                if x % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                x * 2
            },
        );
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_sweeps() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map_with(&none, || (), |(), x| *x).is_empty());
        assert_eq!(parallel_map_with(&[41u32], || (), |(), x| x + 1), vec![42]);
    }

    #[test]
    fn stateful_map_reuses_worker_state() {
        let items: Vec<u64> = (0..97).collect();
        // Per-worker scratch: results must not depend on which worker
        // (or how much prior state) handled a point.
        let out = parallel_map_with(&items, Vec::<u64>::new, |seen, &x| {
            seen.push(x);
            x + seen.len() as u64 - seen.len() as u64
        });
        assert_eq!(out, items);
    }

    #[test]
    fn lane_pool_matches_serial_and_reuses_engines() {
        use crate::kernels::{branch_gauntlet_seeded, forward_fan_seeded};
        use ultrascalar::{PredictorKind, Processor, Ultrascalar};
        use ultrascalar_isa::workload;

        let configs = [
            ProcConfig::ultrascalar_i(16),
            ProcConfig::ultrascalar_i(16).with_predictor(PredictorKind::Bimodal(64)),
        ];
        let mut pool = LanePool::new();
        for (prog, n) in [
            (forward_fan_seeded(6), 70usize),
            (branch_gauntlet_seeded(8), 9),
        ] {
            // 70 > MAX_LANES exercises the chunked path.
            let population = workload::lane_variants(&prog, n, 0xD15EA5E);
            let refs: Vec<&Program> = population.iter().collect();
            for cfg in &configs {
                let mut got = vec![RunResult::recording_timings(); n];
                pool.run_population(cfg, &refs, &mut got);
                for (l, (g, p)) in got.iter().zip(&refs).enumerate() {
                    let mut want = RunResult::recording_timings();
                    Ultrascalar::new(cfg.clone()).run_reusing(p, &mut want);
                    assert_eq!(g, &want, "lane {l} differs from serial");
                }
            }
        }
        // Every chunk lane-batched (nothing demoted).
        let s = pool.stats();
        assert_eq!(s.fallbacks, 0, "{s:?}");
        assert_eq!(s.batches, 6, "2 configs × (2 chunks + 1 chunk): {s:?}");
        assert_eq!(s.lane_runs + s.peels, 2 * (70 + 9), "{s:?}");
        // One warm engine per config, reused by the second kernel.
        assert_eq!(pool.engines.len(), 2, "one engine per config");
    }
}

//! Sweep helpers for `lanes_ab` and the repository benchmark.
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
//! [`LanePool`] keeps warm lane-batch engines per configuration, and
//! [`JsonReport`] is the machine-readable side of `lanes_ab --json`
//! (hand-rolled serialisation — this workspace takes no serde
//! dependency). The figure binaries use none of them: each runs its
//! printed cells serially.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ultrascalar::{LaneBatchEngine, LaneBatchStats, ProcConfig, RunResult, MAX_LANES};
use ultrascalar_isa::Program;

use crate::serve::escape_into;

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

/// One measured sweep point for the JSON report.
#[derive(Debug, Clone)]
pub struct JsonPoint {
    /// Human-readable point label (e.g. `"usi/n=64/daxpy"`).
    pub label: String,
    /// Wall-clock seconds spent evaluating the point.
    pub wall_s: f64,
    /// Simulated cycles (steps), when the point ran the cycle engine.
    pub steps: Option<u64>,
    /// Independent simulations advanced per pass (1 for a serial run).
    pub lanes: u64,
}

impl JsonPoint {
    /// Simulation throughput in steps (cycles) per second, when known.
    pub fn steps_per_sec(&self) -> Option<f64> {
        let s = self.steps? as f64;
        (self.wall_s > 0.0).then(|| s / self.wall_s)
    }
}

/// Machine-readable sweep report (`lanes_ab --json` writes it as
/// `BENCH_lanes.json`).
#[derive(Debug, Clone)]
pub struct JsonReport {
    experiment: String,
    points: Vec<JsonPoint>,
    summaries: Vec<(String, f64)>,
}

impl JsonReport {
    /// Start an empty report for the named experiment.
    pub fn new(experiment: &str) -> Self {
        JsonReport {
            experiment: experiment.to_string(),
            points: Vec::new(),
            summaries: Vec::new(),
        }
    }

    /// Append one measured point that advanced `lanes` independent
    /// simulations per pass.
    pub fn point_with_lanes(
        &mut self,
        label: &str,
        wall: Duration,
        steps: Option<u64>,
        lanes: u64,
    ) -> &mut Self {
        self.points.push(JsonPoint {
            label: label.to_string(),
            wall_s: wall.as_secs_f64(),
            steps,
            lanes,
        });
        self
    }

    /// Append one named summary scalar (a per-kernel or overall
    /// aggregate, e.g. a geomean speedup), emitted in a dedicated
    /// `"summary"` object so report readers no longer recompute
    /// aggregates from the raw points.
    pub fn summary(&mut self, name: &str, value: f64) -> &mut Self {
        self.summaries.push((name.to_string(), value));
        self
    }

    /// Render the report as a JSON document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"");
        escape_into(&mut out, &self.experiment);
        out.push_str("\",\n");
        let total: f64 = self.points.iter().map(|p| p.wall_s).sum();
        out.push_str(&format!("  \"total_point_wall_s\": {:.6},\n", total));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("    {\"label\": \"");
            escape_into(&mut out, &p.label);
            out.push_str(&format!("\", \"wall_s\": {:.6}", p.wall_s));
            if let Some(steps) = p.steps {
                out.push_str(&format!(", \"steps\": {steps}"));
                if let Some(sps) = p.steps_per_sec() {
                    out.push_str(&format!(", \"steps_per_sec\": {sps:.1}"));
                }
            }
            out.push_str(&format!(", \"lanes\": {}", p.lanes));
            out.push('}');
            if i + 1 < self.points.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]");
        if !self.summaries.is_empty() {
            out.push_str(",\n  \"summary\": {\n");
            for (i, (name, value)) in self.summaries.iter().enumerate() {
                out.push_str("    \"");
                escape_into(&mut out, name);
                out.push_str(&format!("\": {value:.6}"));
                if i + 1 < self.summaries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// Write the report to `path` in the current directory and note
    /// the path on stderr.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())?;
        eprintln!("wrote {path} ({} points)", self.points.len());
        Ok(())
    }
}

/// Warm [`LaneBatchEngine`]s keyed by processor configuration — the
/// sweep-side home for config-major lane batching.
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
    engines: Vec<(ProcConfig, LaneBatchEngine)>,
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
        let engine = self.engine_for(cfg);
        for (ps, os) in programs.chunks(MAX_LANES).zip(out.chunks_mut(MAX_LANES)) {
            engine.run_batch(ps, os);
        }
    }

    /// The warm engine for `cfg`, built on first use. A linear scan:
    /// sweeps put a handful of configs through each worker, and config
    /// comparison is cheap next to a simulation.
    fn engine_for(&mut self, cfg: &ProcConfig) -> &mut LaneBatchEngine {
        if let Some(i) = self.engines.iter().position(|(c, _)| c == cfg) {
            return &mut self.engines[i].1;
        }
        self.engines
            .push((cfg.clone(), LaneBatchEngine::new(cfg.clone())));
        &mut self.engines.last_mut().expect("just pushed").1
    }

    /// Aggregate lane-batch counters over every engine in the pool.
    pub fn stats(&self) -> LaneBatchStats {
        let mut t = LaneBatchStats::default();
        for (_, e) in &self.engines {
            t.merge(e.lane_stats());
        }
        t
    }
}

/// Did the command line ask for the JSON report?
pub fn json_flag_set(args: &[String]) -> bool {
    args.iter().any(|a| a == "--json")
}

/// Geometric mean of a set of positive ratios (1.0 for an empty set —
/// the multiplicative identity, so absent families don't skew
/// aggregates).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
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
                    std::thread::sleep(Duration::from_micros(200));
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
    fn json_report_shape() {
        let mut rep = JsonReport::new("unit \"test\"");
        rep.point_with_lanes("a/n=1", Duration::from_millis(250), Some(1_000_000), 8);
        rep.point_with_lanes("b", Duration::from_millis(50), None, 1);
        let s = rep.render();
        assert_eq!(s.matches("\"label\"").count(), 2);
        assert!(s.contains("\"experiment\": \"unit \\\"test\\\"\""));
        assert!(s.contains("\"label\": \"a/n=1\""));
        assert!(s.contains("\"steps\": 1000000"));
        assert!(s.contains("\"steps_per_sec\": 4000000.0, \"lanes\": 8}"));
        assert!(s.contains("\"label\": \"b\", \"wall_s\": 0.050000, \"lanes\": 1}"));
        assert!(!s.lines().last().unwrap().ends_with(','));
    }

    #[test]
    fn json_summary_rows() {
        let mut rep = JsonReport::new("summaries");
        rep.point_with_lanes("a", Duration::from_millis(1), None, 1);
        rep.summary("geomean_speedup", 1.25);
        rep.summary("kernel/div_chain", 8.5);
        let s = rep.render();
        assert!(s.contains("\"summary\": {"));
        assert!(s.contains("\"geomean_speedup\": 1.250000,"));
        assert!(s.contains("\"kernel/div_chain\": 8.500000\n"));
        // Still a well-formed document: braces balance and no summary
        // block appears when none are recorded.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert!(!JsonReport::new("x").render().contains("summary"));
    }

    #[test]
    fn geomean_aggregates() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
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
    }

    #[test]
    fn json_flag_detection() {
        let args: Vec<String> = vec!["--json".into()];
        assert!(json_flag_set(&args));
        assert!(!json_flag_set(&[]));
    }
}

//! `suite_ideal` and `suite_memnet`: serial warm `run_reusing` passes
//! over 12 kernels × {US-I, hybrid C = n/4, US-II} × windows {16, 64,
//! 256}, closed loop on one thread.
//!
//! `suite_ideal` uses ideal zero-latency memory, single-cycle
//! forwarding and a bimodal(256) predictor, so the engine's scan, issue
//! and commit do nearly all the work and the packed scan runs on US-I
//! and the hybrid. `suite_memnet` runs the same programs on the
//! configuration `usim run --mem-exp 0.5` builds (fat tree, a butterfly
//! on some configurations, renaming and cluster caches on the hybrid):
//! stall-heavy runs where cycle skip and the memory network do the work
//! and the shape gate forces the scalar scan.

use std::time::Instant;

use ultrascalar::processor::check_against_golden;
use ultrascalar::{BaselineOoO, PredictorKind, ProcConfig, Processor, RunResult, Ultrascalar};
use ultrascalar_isa::Program;

use crate::calib::{HostClock, Job};
use crate::report::{frac, Outcome};
use crate::stats::{geomean, median, run_digest, Digest};
use crate::{gen, tail, timed_passes, trace, Opts, Setups};

pub const WINDOWS: [usize; 3] = [16, 64, 256];
pub const ARCHS: [&str; 3] = ["usi", "hybrid", "usii"];

/// Golden-interpreter fuel; every kernel halts far below it.
pub const MAX_STEPS: usize = 10_000_000;

/// The nine configurations, window-major.
pub fn configs(memnet: bool) -> Result<Vec<ProcConfig>, String> {
    let mut out = Vec::new();
    for (wi, &w) in WINDOWS.iter().enumerate() {
        for (ai, &arch) in ARCHS.iter().enumerate() {
            let cfg = if memnet {
                let mut args = vec!["kernel.asm", "--arch", arch, "--mem-exp", "0.5"];
                let window = w.to_string();
                args.extend(["--window", &window]);
                if (ai + wi) % 2 == 1 {
                    args.push("--butterfly");
                }
                if arch == "hybrid" {
                    args.extend(["--renaming", "--cache"]);
                }
                let args: Vec<String> = args.into_iter().map(String::from).collect();
                ultrascalar_bench::cli::build_config(&ultrascalar_bench::cli::parse_run(&args)?)?
            } else {
                let mut cfg = match arch {
                    "usi" => ProcConfig::ultrascalar_i(w),
                    "hybrid" => ProcConfig::hybrid(w, w / 4),
                    _ => ProcConfig::ultrascalar_ii(w),
                }
                .with_predictor(PredictorKind::Bimodal(256));
                cfg.mem.words = 1024;
                cfg
            };
            out.push(cfg);
        }
    }
    Ok(out)
}

/// Assemble one input text, recording an `isa.assemble` span.
pub fn assemble(text: &str, regs: usize) -> Result<Program, String> {
    let span = trace::begin("isa.assemble", 0);
    let p = ultrascalar_isa::assemble(text, regs).map_err(|e| e.to_string());
    span.end();
    p
}

struct Setup {
    programs: Vec<Program>,
    configs: Vec<ProcConfig>,
    engines: Vec<Ultrascalar>,
}

fn setup(memnet: bool, seed: u64) -> Result<Setup, String> {
    let programs = gen::SUITE
        .iter()
        .map(|k| assemble(&k.text(seed, k.suite_n), k.regs))
        .collect::<Result<Vec<_>, _>>()?;
    let configs = configs(memnet)?;
    let mut engines: Vec<Ultrascalar> = configs.iter().cloned().map(Ultrascalar::new).collect();
    let mut scratch = RunResult::default();
    for engine in engines.iter_mut() {
        for p in &programs {
            engine.run_reusing(p, &mut scratch);
        }
    }
    Ok(Setup {
        programs,
        configs,
        engines,
    })
}

/// Counters summed over one pass of results.
#[derive(Default)]
pub struct Counts {
    pub runs: u64,
    pub cycles: u64,
    pub committed: u64,
    pub flushed: u64,
    pub idle_cycles: u64,
    pub occupancy: u64,
    pub gated: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub loads: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub store_forwards: u64,
}

impl Counts {
    pub fn merge(&mut self, c: &Counts) {
        self.runs += c.runs;
        self.cycles += c.cycles;
        self.committed += c.committed;
        self.flushed += c.flushed;
        self.idle_cycles += c.idle_cycles;
        self.occupancy += c.occupancy;
        self.gated += c.gated;
        self.admitted += c.admitted;
        self.rejected += c.rejected;
        self.loads += c.loads;
        self.cache_hits += c.cache_hits;
        self.cache_misses += c.cache_misses;
        self.store_forwards += c.store_forwards;
    }

    pub fn add(&mut self, r: &RunResult) {
        let s = &r.stats;
        self.runs += 1;
        self.cycles += r.cycles;
        self.committed += s.committed;
        self.flushed += s.flushed;
        self.idle_cycles += s.issue_hist.first().copied().unwrap_or(0);
        self.occupancy += s.occupancy_sum;
        self.gated += s.packed_shape_gated;
        self.admitted += s.mem.admitted;
        self.rejected += s.mem.link_rejections + s.mem.bank_conflicts;
        self.loads += s.mem.loads;
        self.cache_hits += s.mem.cache_hits;
        self.cache_misses += s.mem.cache_misses;
        self.store_forwards += s.store_forwards;
    }

    /// The engine and memsys per-layer metrics these counts give.
    pub fn put(&self, out: &mut Outcome) {
        let n = self.runs as usize;
        let c = self.committed as f64;
        out.put(
            "engine.idle_cycle_frac",
            frac(self.idle_cycles as f64, self.cycles as f64),
            "frac",
            n,
        );
        out.put(
            "engine.useful_frac",
            frac(c, c + self.flushed as f64),
            "frac",
            n,
        );
        out.put(
            "engine.packed_gated_frac",
            frac(self.gated as f64, self.runs as f64),
            "frac",
            n,
        );
        out.put(
            "engine.mean_occupancy",
            frac(self.occupancy as f64, self.cycles as f64),
            "stations",
            n,
        );
        let attempts = (self.admitted + self.rejected) as f64;
        out.put(
            "memsys.reject_frac",
            frac(self.rejected as f64, attempts),
            "frac",
            n,
        );
        out.put(
            "memsys.loads_per_kinstr",
            frac(1000.0 * self.loads as f64, c),
            "1/kinstr",
            n,
        );
        let probes = (self.cache_hits + self.cache_misses) as f64;
        out.put(
            "memsys.cache_hit_frac",
            frac(self.cache_hits as f64, probes),
            "frac",
            n,
        );
        let fwd = self.store_forwards as f64;
        out.put(
            "memsys.store_fwd_frac",
            frac(fwd, fwd + self.loads as f64),
            "frac",
            n,
        );
    }
}

/// Per-window host time and simulated cycles.
#[derive(Default, Clone, Copy)]
pub struct WindowCost {
    pub ns: f64,
    pub cycles: u64,
}

/// Report `engine.mcycles_per_s.w*` (0 for a window the workload never
/// runs) and the matching `engine.ns_per_cycle.w*` extra lines.
pub fn put_window_costs(out: &mut Outcome, windows: &[(usize, WindowCost)]) {
    let (ns, cycles) = windows
        .iter()
        .fold((0.0, 0u64), |(n, c), (_, w)| (n + w.ns, c + w.cycles));
    out.put("engine.ns_per_cycle", frac(ns, cycles as f64), "ns", 1);
    for w in WINDOWS {
        let c = windows
            .iter()
            .filter(|(x, _)| *x == w)
            .fold(WindowCost::default(), |a, (_, b)| WindowCost {
                ns: a.ns + b.ns,
                cycles: a.cycles + b.cycles,
            });
        out.put(
            &format!("engine.mcycles_per_s.w{w}"),
            frac(c.cycles as f64 * 1e3, c.ns),
            "Mcycles/s",
            1,
        );
        if c.cycles > 0 {
            out.put(
                &format!("engine.ns_per_cycle.w{w}"),
                c.ns / c.cycles as f64,
                "ns",
                1,
            );
        }
    }
}

pub fn run(memnet: bool, opts: &Opts) -> Result<Outcome, String> {
    let (mut setups, mut s) = Setups::first(opts, || setup(memnet, opts.seed))?;
    let mut clock = HostClock::new(Job::Interpreter)?;
    let mut out = Outcome::default();
    let items: Vec<(usize, usize)> = (0..s.configs.len())
        .flat_map(|c| (0..s.programs.len()).map(move |p| (p, c)))
        .collect();
    let mut res = RunResult::default();
    let mut item_digests = Vec::with_capacity(items.len());
    let mut counts = Counts::default();
    let mut ipcs = Vec::new();
    let mut golden_ns = 0.0;
    let mut item_ms = vec![Vec::new(); items.len()];
    let mut item_instrs = Vec::with_capacity(items.len());
    let mut mips = [Vec::new(), Vec::new()];
    let mut windows = vec![(0usize, WindowCost::default()); s.configs.len()];
    for (i, cfg) in s.configs.iter().enumerate() {
        windows[i].0 = cfg.window;
    }
    let passes = timed_passes(opts, |pass| {
        let traced = trace::active();
        let pass_span = trace::begin("bench.pass", 0);
        let (mut pass_ns, mut pass_instrs) = (0.0, 0u64);
        for (i, &(p, c)) in items.iter().enumerate() {
            let program = &s.programs[p];
            let span = trace::begin("core.engine.run", pass_span.id());
            let t0 = Instant::now();
            s.engines[c].run_reusing(program, &mut res);
            let ns = t0.elapsed().as_nanos() as f64;
            span.end();
            pass_ns += ns;
            pass_instrs += res.stats.committed;
            item_ms[i].push(ns / 1e6);
            windows[c].1.ns += ns;
            windows[c].1.cycles += res.cycles;

            let verify = trace::begin("bench.verify", pass_span.id());
            let d = run_digest(&res);
            let label = || format!("{} on config {c} in pass {pass}", gen::SUITE[p].name);
            if pass == 0 {
                item_digests.push(d);
                item_instrs.push(res.stats.committed as f64);
                counts.add(&res);
                ipcs.push(res.ipc());
                let t0 = Instant::now();
                let g = trace::begin("isa.golden", verify.id());
                let golden = check_against_golden(&res, program, MAX_STEPS);
                g.end();
                golden_ns += t0.elapsed().as_nanos() as f64;
                if let Err(e) = golden {
                    out.fail(format!("{}: {e}", label()));
                }
                // Paper claim E9: US-I matches the conventional
                // out-of-order baseline cycle for cycle.
                if !memnet && s.configs[c].cluster == 1 {
                    let b = trace::begin("core.baseline.run", verify.id());
                    let base = BaselineOoO::new(s.configs[c].clone()).run(program);
                    b.end();
                    if base.cycles != res.cycles {
                        out.fail(format!(
                            "{}: baseline {} cycles, US-I {}",
                            label(),
                            base.cycles,
                            res.cycles
                        ));
                    }
                }
            } else if d != item_digests[i] || !res.halted {
                out.fail(format!("{}: result differs from pass 0", label()));
            }
            verify.end();
            if p + 1 == s.programs.len() {
                clock.burst();
            }
        }
        pass_span.end();
        mips[traced as usize].push(pass_instrs as f64 * 1e3 / pass_ns);
        setups.again_if_due(|| setup(memnet, opts.seed))
    })?;

    out.attempted = (passes * items.len()) as u64;
    let mut digest = Digest::default();
    for d in &item_digests {
        digest.word(*d);
    }
    out.digest = digest.0;
    let untraced = &mips[0];
    let run_ms = item_ms.concat();
    let slowdown = clock.slowdown();
    out.put("host.slowdown", slowdown, "x", clock.bursts.len());
    setups.put(&mut out);
    let typical = crate::typical(opts, &item_ms)?;
    let sim_mips = item_instrs.iter().sum::<f64>() / typical.iter().sum::<f64>() / 1e3;
    out.put_host(
        "sim_mips",
        sim_mips,
        true,
        slowdown,
        "Minstr/s",
        run_ms.len(),
    );
    let lat_ms = geomean(&typical);
    out.put_host("lat_ms", lat_ms, false, slowdown, "ms", run_ms.len());
    out.put("peak_rss_mb", crate::stats::peak_rss_mb("self")?, "MB", 1);
    out.put("ipc_geomean", geomean(&ipcs), "instr/cycle", ipcs.len());
    out.put_tail("sim_mips_p10", untraced, 10.0, "Minstr/s");
    out.put("lat_p50_ms", median(&run_ms), "ms", run_ms.len());
    out.put_tail("lat_p99_ms", &run_ms, 99.0, "ms");
    if opts.trace {
        let (spans, _) = trace::snapshot();
        put_engine_times(opts, &mut out, &spans)?;
        counts.put(&mut out);
        put_window_costs(&mut out, &windows);
        put_isa(&mut out, &spans, golden_ns);
        put_overhead(&mut out, &mips);
    }
    out.bypassed = &[
        "lane.",
        "sweep.",
        "pool.",
        "isa.cache",
        "serve.",
        "loadgen.",
    ];
    Ok(out)
}

/// `engine.run_ms_p50/p90` from the `core.engine.run` spans.
pub fn put_engine_times(
    opts: &Opts,
    out: &mut Outcome,
    spans: &[trace::Span],
) -> Result<(), String> {
    let ms: Vec<f64> = trace::durations(spans, "core.engine.run")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    out.put("engine.run_ms_p50", median(&ms), "ms", ms.len());
    out.put("engine.run_ms_p90", tail(opts, &ms, 90.0)?, "ms", ms.len());
    Ok(())
}

/// `isa.assemble_ms_p50` from the `isa.assemble` spans, and the golden
/// check's total cost.
pub fn put_isa(out: &mut Outcome, spans: &[trace::Span], golden_ns: f64) {
    let ms: Vec<f64> = trace::durations(spans, "isa.assemble")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    out.put("isa.assemble_ms_p50", median(&ms), "ms", ms.len());
    out.put("isa.golden_s", golden_ns / 1e9, "s", 1);
}

/// `trace_overhead_frac`: how much slower traced passes ran than
/// untraced ones (medians).
pub fn put_overhead(out: &mut Outcome, mips: &[Vec<f64>; 2]) {
    let (plain, traced) = (median(&mips[0]), median(&mips[1]));
    out.put(
        "trace_overhead_frac",
        frac(plain - traced, plain),
        "frac",
        mips[1].len(),
    );
}

//! `usbench`: the repository's benchmark.
//!
//! Four fixed workloads, each separating one regime of the simulator:
//! `suite_ideal` (the engine's scan/issue/commit with the packed scan
//! on), `suite_memnet` (the same programs on the memory network `usim
//! run --mem-exp 0.5` builds, stall-heavy, scalar scan), `lane_pop`
//! (lane-batched design-space sweeps) and `serve_open` (`usim serve`
//! under open-loop load). Every workload checks its outputs, reports
//! the end-to-end metrics of [`report::END_TO_END`], and in a traced run
//! the per-layer metrics of [`report::PER_LAYER`]. See
//! `benchmark/README.md` for what each metric should move.

pub mod calib;
pub mod gen;
pub mod lanes;
pub mod report;
pub mod serve;
pub mod stats;
pub mod suite;
pub mod trace;

use std::time::{Duration, Instant};

use report::Outcome;

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// Record spans, report the per-layer metrics and write the Chrome
    /// trace to [`trace_path`].
    pub trace: bool,
    /// Smoke-test run: tail percentiles with too few samples fall back
    /// to the extreme sample instead of failing the run.
    pub quick: bool,
    /// Expected digest, overriding `digests.txt` (set by tests only).
    pub expect_digest: Option<u64>,
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteIdeal,
    SuiteMemnet,
    LanePop,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SuiteIdeal,
        Workload::SuiteMemnet,
        Workload::LanePop,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteIdeal => "suite_ideal",
            Workload::SuiteMemnet => "suite_memnet",
            Workload::LanePop => "lane_pop",
            Workload::ServeOpen => "serve_open",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }
}

/// Times a full-length run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// A run's set-up times: the set-up before the timed passes, and
/// repeats spread evenly over the run, so that their median samples the
/// host's states as the timed operations do (a set-up lasts a fraction
/// of a second, which the host can spend wholly in its slow state; see
/// [`calib`]). They are reported as measured: a set-up allocates and
/// touches fresh memory, which the reference jobs do not follow.
pub struct Setups {
    times: Vec<f64>,
    start: Instant,
    seconds: f64,
}

impl Setups {
    /// Run and time the set-up the timed passes use.
    pub fn first<T>(
        opts: &Opts,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Setups, T), String> {
        let mut setups = Setups {
            times: Vec::new(),
            start: Instant::now(),
            seconds: opts.seconds,
        };
        let value = setups.time(setup)?;
        setups.start = Instant::now();
        Ok((setups, value))
    }

    fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t0 = Instant::now();
        let span = trace::begin("bench.setup", 0);
        let value = setup()?;
        span.end();
        self.times.push(t0.elapsed().as_secs_f64());
        Ok(value)
    }

    /// Between timed operations: set up again, and drop the result, if
    /// the run has reached the next of the points that divide it into
    /// [`SETUP_REPS`] equal parts.
    pub fn again_if_due<T>(
        &mut self,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<(), String> {
        let due = self.times.len() as f64 * self.seconds / SETUP_REPS as f64;
        if self.times.len() < SETUP_REPS && self.start.elapsed().as_secs_f64() >= due {
            drop(self.time(setup)?);
        }
        Ok(())
    }

    /// Report `setup_s`.
    pub fn put(&self, out: &mut Outcome) {
        out.put("setup_s", stats::median(&self.times), "s", self.times.len());
    }
}

/// Drive `pass` until `opts.seconds` have passed, and in a full-length
/// run at least [`MIN_PASSES`] times (a quick run makes at least one).
/// Odd passes are traced in a traced run, so even passes measure the
/// untraced speed of the same run.
pub fn timed_passes(
    opts: &Opts,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut n = 0;
    let min_passes = if opts.quick { 1 } else { MIN_PASSES };
    while n < min_passes || start.elapsed() < budget {
        trace::set_active(opts.trace && n % 2 == 1);
        pass(n)?;
        n += 1;
    }
    trace::set_active(false);
    Ok(n)
}

/// A tail percentile that a declared metric needs: refused (an error)
/// when unsupported, except in quick mode, where the extreme sample
/// stands in.
pub fn tail(opts: &Opts, samples: &[f64], p: f64) -> Result<f64, String> {
    if opts.quick {
        Ok(stats::percentile_or_extreme(samples, p))
    } else {
        stats::percentile(samples, p)
    }
}

/// The percentile that sums up an operation's repeats and a run's
/// calibration bursts (see [`calib`] for why not the median).
pub const QUANTILE: f64 = 10.0;

/// Fewest passes a full-length run makes: enough repeats of each
/// operation for its [`QUANTILE`] (see [`stats::percentile`]).
const MIN_PASSES: usize = stats::MIN_BEYOND * 100 / QUANTILE as usize;

/// Each operation's [`QUANTILE`] over its repeats.
pub fn typical(opts: &Opts, repeats: &[Vec<f64>]) -> Result<Vec<f64>, String> {
    repeats.iter().map(|r| tail(opts, r, QUANTILE)).collect()
}

/// Expected digests per (workload, seed), from `digests.txt`.
const DIGESTS: &str = include_str!("../digests.txt");

/// The recorded digest of `workload` under `seed`, if any.
pub fn expected_digest(workload: Workload, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Run one workload in this process, print its metric lines and JSON
/// result, and return whether it was correct.
pub fn run_workload(workload: Workload, opts: &Opts) -> Result<bool, String> {
    if opts.trace {
        trace::enable(1 << 20);
        trace::set_active(true);
    }
    let mut out = match workload {
        Workload::SuiteIdeal => suite::run(false, opts)?,
        Workload::SuiteMemnet => suite::run(true, opts)?,
        Workload::LanePop => lanes::run(opts)?,
        Workload::ServeOpen => serve::run(opts)?,
    };
    let expected = opts
        .expect_digest
        .or_else(|| expected_digest(workload, opts.seed));
    let digest_ok = expected.is_none_or(|d| d == out.digest);
    out.notes.insert(
        0,
        format!(
            "seed {} digest {:016x} ({}) nproc {} simd_active {}",
            opts.seed,
            out.digest,
            match expected {
                None => "no recorded digest for this seed",
                Some(_) if digest_ok => "matches the recorded digest",
                Some(_) => "MISMATCHES the recorded digest",
            },
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            ultrascalar_prefix::active_simd_level(),
        ),
    );
    if opts.trace {
        trace_summary(workload, &mut out)?;
    }
    let correct = out.failed == 0 && digest_ok;
    out.print(workload.name(), correct, opts.trace)?;
    Ok(correct)
}

/// Write the Chrome trace and print each span name's self time.
fn trace_summary(workload: Workload, out: &mut Outcome) -> Result<(), String> {
    let (spans, dropped) = trace::snapshot();
    let (selfs, escaped) = trace::self_times(&spans);
    if escaped > 0 {
        out.fail(format!("{escaped} child spans lie outside their parent"));
    }
    for (name, total, own, count) in selfs {
        out.notes.push(format!(
            "span {name}: {count} spans, {:.3} ms total, {:.3} ms self",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    let path = trace_path(workload);
    trace::write_chrome(&path, &spans)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.notes.push(format!(
        "trace {} ({} spans, {dropped} dropped)",
        path.display(),
        spans.len()
    ));
    Ok(())
}

/// Where a traced run of `workload` writes its Chrome trace.
pub fn trace_path(workload: Workload) -> std::path::PathBuf {
    default_out_dir().join(format!("usbench-trace-{}.json", workload.name()))
}

/// Directory for the benchmark's own files (the trace, the server
/// socket): the build directory, as a path relative to the working
/// directory where possible so socket paths stay short.
pub fn default_out_dir() -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("benchmark/target"));
    let dir = match std::env::current_dir() {
        Ok(cwd) => dir
            .strip_prefix(&cwd)
            .map(|p| p.to_path_buf())
            .unwrap_or(dir),
        Err(_) => dir,
    };
    let _ = std::fs::create_dir_all(&dir);
    dir
}

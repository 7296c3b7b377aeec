//! `serve_open`: `usim serve` under open-loop load.
//!
//! The benchmark spawns itself as a server child that calls
//! `ultrascalar_bench::serve::serve` with two workers and the default
//! cache and pool sizes. One generator thread drives two non-blocking
//! Unix-socket connections with seeded Poisson arrivals over a fixed
//! ladder of offered rates; each request is timed from when it was due
//! to when its response is read, and every response is compared byte
//! for byte with an in-process `Server::handle_line` reference computed
//! at set-up. The request plane (codec, program cache, engine pool,
//! affinity, lane grouping) matters here and simulation is short; this
//! is the only workload where queueing exists.
//!
//! Before each round of the ladder, a closed-loop in-process replay of
//! the hot and tiny requests through `Server::handle_line` gives the
//! request plane's own throughput (`sim_mips`) without sockets or
//! queueing.
//!
//! The replay's times are put at reference speed with [`Job::Codec`]
//! bursts on its own thread (see [`crate::calib`]). The latencies are
//! reported as measured: they cross two processes and both CPUs, and
//! bursts timed beside the server's workers did not follow them.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ultrascalar::processor::check_against_golden;
use ultrascalar::{ProcConfig, Processor, ShardedEnginePool};
use ultrascalar_bench::cli::{self, RunOptions};
use ultrascalar_bench::Server;
use ultrascalar_isa::ShardedProgramCache;

use crate::calib::{HostClock, Job};
use crate::gen::{self, Mix};
use crate::report::{frac, Outcome};
use crate::stats::{geomean, median, Digest};
use crate::{timed_passes, trace, Opts, Setups};

/// The frozen ladder: each step's name, offered rate in request lines
/// per second, and share of the ladder's time. The rates were measured
/// against the server's saturation on the reference host (see
/// `benchmark/README.md`): about 25%, 60% and 90% of it. `lo` gets half
/// the time, so that each hot line is answered there often enough for
/// its [`crate::QUANTILE`] latency.
pub const LADDER: [(&str, f64, f64); 3] = [
    ("lo", 5000.0, 0.5),
    ("mid", 12000.0, 0.25),
    ("hi", 18000.0, 0.25),
];

/// Latency limit on a step's p99 for it to count towards `max_rps`.
pub const LATENCY_LIMIT_MS: f64 = 2.0;

/// Server worker threads (and client connections).
pub const WORKERS: usize = 2;

/// Share of the measured time spent in the in-process replay.
const REPLAY_SHARE: f64 = 0.25;

/// The run is this many rounds of (replay, one step per ladder rate), so
/// that a host stall of a second or so lands in one round of a phase,
/// not in all of it.
const ROUNDS: usize = 3;

/// Server counters each step reads before and after itself.
const COUNTERS: [&str; 10] = [
    "wall_s",
    "requests",
    "runs",
    "batched_runs",
    "lane_batched_runs",
    "engine_pool_hits",
    "engine_pool_misses",
    "engine_pool_evictions",
    "program_cache_hits",
    "program_cache_misses",
];

/// How long the generator waits for a step's last responses.
const DRAIN: Duration = Duration::from_secs(5);

/// How long after a request is due the generator keeps polling for
/// its response (or before a send, for the send) instead of sleeping.
const EXPECT_NS: u64 = 300_000;

/// A send later than this after its due time marks the generator late.
const LATE_NS: u64 = 1_000_000;

/// The server child; killed and reaped if still running when dropped.
struct ServerChild {
    child: Child,
    socket: PathBuf,
}

impl ServerChild {
    fn spawn(socket: PathBuf) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
        let child = Command::new(exe)
            .arg("serve-child")
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        Ok(ServerChild { child, socket })
    }

    fn connect(&mut self) -> Result<UnixStream, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("the server exited ({status})"));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("cannot connect to {}: {e}", self.socket.display()));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// Ask the server to stop and wait for it; returns its peak RSS.
    fn shutdown(mut self, conn: &mut Conn) -> Result<f64, String> {
        let rss = crate::stats::peak_rss_mb(&self.child.id().to_string())?;
        let reply = conn.request("{\"cmd\":\"shutdown\"}")?;
        if !reply.contains("\"shutdown\":true") {
            return Err(format!("unexpected shutdown reply {reply}"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                return Err("the server did not stop".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(rss)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// A request sent and not yet answered.
struct Pending {
    line: usize,
    due: u64,
    measured: bool,
    req: u64,
}

/// One non-blocking connection: bytes waiting to go out, bytes read
/// but not yet split into lines, and the requests awaiting a response
/// (the server answers each connection in order).
struct Conn {
    stream: UnixStream,
    out: Vec<u8>,
    sent: usize,
    inbuf: Vec<u8>,
    pending: std::collections::VecDeque<Pending>,
    /// The server closed its end.
    closed: bool,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            sent: 0,
            inbuf: Vec::new(),
            pending: std::collections::VecDeque::new(),
            closed: false,
        })
    }

    /// Write what the socket takes now; true if anything went out.
    fn flush(&mut self) -> Result<bool, String> {
        let mut progress = false;
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err("the server closed a connection".into()),
                Ok(n) => {
                    self.sent += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send failed: {e}")),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(progress)
    }

    /// Read what has arrived; true if anything did. End of stream sets
    /// `closed`.
    fn fill(&mut self) -> Result<bool, String> {
        let mut buf = [0u8; 1 << 16];
        let mut progress = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(progress);
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(progress),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive failed: {e}")),
            }
        }
    }

    /// Take the next complete response line out of the read buffer.
    fn next_line(&mut self) -> Option<String> {
        let end = self.inbuf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.inbuf[..end]).into_owned();
        self.inbuf.drain(..=end);
        Some(line)
    }

    /// Send one line and wait for its response (nothing else pending).
    fn request(&mut self, line: &str) -> Result<String, String> {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            self.flush()?;
            self.fill()?;
            if let Some(reply) = self.next_line() {
                return Ok(reply);
            }
            if self.closed {
                return Err("the server closed a connection".into());
            }
            if Instant::now() > deadline {
                return Err("no reply from the server".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// A numeric field of a flat JSON response (0 if absent).
fn field(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    json.find(&pat)
        .map(|at| &json[at + pat.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0.0)
}

/// The configuration `usim serve` builds for a request's options.
fn config(arch: &str, window: usize) -> Result<ultrascalar::ProcConfig, String> {
    cli::build_config(&RunOptions {
        arch: cli::parse_arch(arch)?,
        window,
        ..RunOptions::default()
    })
}

struct Setup {
    mix: Mix,
    /// Reference response per distinct line.
    refs: Vec<String>,
    /// Instructions and cycles per distinct line.
    work: Vec<(u64, u64)>,
    server: ServerChild,
    conns: Vec<Conn>,
}

fn setup(seed: u64, steps: &[(f64, f64)], socket: PathBuf) -> Result<Setup, String> {
    let mix = gen::mix(seed, steps);
    let mut server = ServerChild::spawn(socket)?;
    for (text, _, _) in &mix.specs {
        crate::suite::assemble(text, 32)?;
    }
    let mut reference = Server::new(64, 8);
    let mut refs = Vec::with_capacity(mix.lines.len());
    let mut work = Vec::with_capacity(mix.lines.len());
    for line in &mix.lines {
        let reply = reference.handle_line(line).to_string();
        if !reply.starts_with("{\"ok\":true") || !reply.contains("\"halted\":true") {
            return Err(format!("reference run failed: {reply}"));
        }
        work.push((
            field(&reply, "instructions") as u64,
            field(&reply, "cycles") as u64,
        ));
        refs.push(reply);
    }
    let mut conns = Vec::new();
    for _ in 0..WORKERS {
        conns.push(Conn::new(server.connect()?)?);
    }
    let first = conns[0].request(&mix.lines[0])?;
    if first != refs[0] {
        return Err(format!("the server's first response differs: {first}"));
    }
    Ok(Setup {
        mix,
        refs,
        work,
        server,
        conns,
    })
}

/// What the generator saw at one ladder rate (summed over rounds).
#[derive(Default)]
struct Step {
    lat_ms: Vec<f64>,
    /// (line, latency in ms) of every measured request.
    by_line: Vec<(usize, f64)>,
    lag_ms: Vec<f64>,
    due: u64,
    answered_in_step: u64,
    measured_answered: u64,
    backlog_end: u64,
    failed: u64,
    seconds: f64,
    measured_seconds: f64,
    /// Change of each of [`COUNTERS`] over the step, not counting the
    /// step's own stats requests.
    deltas: [f64; COUNTERS.len()],
}

impl Step {
    fn delta(&self, key: &str) -> f64 {
        COUNTERS
            .iter()
            .position(|k| *k == key)
            .map_or(0.0, |i| self.deltas[i])
    }

    /// Fold another round at the same rate into this one.
    fn absorb(&mut self, o: Step) {
        self.lat_ms.extend(o.lat_ms);
        self.by_line.extend(o.by_line);
        self.lag_ms.extend(o.lag_ms);
        self.due += o.due;
        self.answered_in_step += o.answered_in_step;
        self.measured_answered += o.measured_answered;
        self.backlog_end += o.backlog_end;
        self.failed += o.failed;
        self.seconds += o.seconds;
        self.measured_seconds += o.measured_seconds;
        for (d, x) in self.deltas.iter_mut().zip(o.deltas) {
            *d += x;
        }
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let step_s = |share: f64| opts.seconds * (1.0 - REPLAY_SHARE) * share / ROUNDS as f64;
    let steps: Vec<(f64, f64)> = (0..ROUNDS)
        .flat_map(|_| LADDER.iter().map(|&(_, rate, share)| (rate, step_s(share))))
        .collect();
    let dir = crate::default_out_dir();
    let mut rep = 0;
    let mut socket = || {
        rep += 1;
        dir.join(format!("usbench-{}-{rep}.sock", std::process::id()))
    };
    let (mut setups, mut s) = Setups::first(opts, || setup(opts.seed, &steps, socket()))?;
    let mut out = Outcome::default();
    // The hot and tiny lines are the same at any run length; unique
    // ones are drawn per arrival.
    let mut digest = Digest::default();
    for &l in s.mix.hot.iter().chain(&s.mix.tiny) {
        digest.bytes(s.refs[l].as_bytes());
    }
    out.digest = digest.0;
    let ipcs: Vec<f64> = s.work.iter().map(|&(i, c)| i as f64 / c as f64).collect();

    let mut clock = HostClock::new(Job::Codec)?;
    let mut replay = Replay::new(&s)?;
    let chunk = Opts {
        seconds: opts.seconds * REPLAY_SHARE / ROUNDS as f64,
        ..opts.clone()
    };
    let mut results: Vec<(&str, f64, Step)> = LADDER
        .iter()
        .map(|&(name, rate, _)| (name, rate, Step::default()))
        .collect();
    for round in 0..ROUNDS {
        replay.passes(&chunk, &s, &mut out, &mut clock)?;
        setups.again_if_due(|| setup(opts.seed, &steps, socket()))?;
        for (i, (name, _, total)) in results.iter_mut().enumerate() {
            let seconds = step_s(LADDER[i].2);
            let warmup = (seconds / 4.0).min(0.5);
            trace::set_active(opts.trace);
            let step = run_step(&mut s, round * LADDER.len() + i, seconds, warmup)?;
            trace::set_active(false);
            clock.burst();
            setups.again_if_due(|| setup(opts.seed, &steps, socket()))?;
            out.attempted += step.due;
            for _ in 0..step.failed {
                out.fail(format!("request failed in step {name}"));
            }
            total.absorb(step);
        }
    }
    let golden_ns = check_references(&s, &mut out)?;
    let Setup {
        server, mut conns, ..
    } = s;
    let rss = server.shutdown(&mut conns[0])?;

    let mips = &replay.mips;
    // The request plane's own latency, at the lowest rate: each request
    // line's QUANTILE, which also leaves out the waits behind other
    // requests (a burst, a busy worker) that fill the upper half and
    // swing from run to run; geometric mean over the lines with enough
    // samples for it (the hot lines in a full-length run).
    let lo = &results[0].2;
    let mut per_line = vec![Vec::new(); s.mix.lines.len()];
    for &(line, ms) in &lo.by_line {
        per_line[line].push(ms);
    }
    let line_typical: Vec<f64> = per_line
        .iter()
        .filter(|v| !v.is_empty())
        .filter_map(|v| crate::tail(opts, v, crate::QUANTILE).ok())
        .collect();
    let slowdown = clock.slowdown();
    out.put("host.slowdown", slowdown, "x", clock.bursts.len());
    setups.put(&mut out);
    let work: Vec<f64> = replay.lines.iter().map(|&l| s.work[l].0 as f64).collect();
    let replay_typical = crate::typical(opts, &replay.line_ns)?;
    let sim_mips = work.iter().sum::<f64>() / replay_typical.iter().sum::<f64>() * 1e3;
    let replayed = replay.line_ns.iter().map(Vec::len).sum();
    out.put_host("sim_mips", sim_mips, true, slowdown, "Minstr/s", replayed);
    let lat_ms = geomean(&line_typical);
    out.put("lat_ms", lat_ms, "ms", lo.lat_ms.len());
    out.put("peak_rss_mb", rss, "MB", 1);
    out.put("ipc_geomean", geomean(&ipcs), "instr/cycle", ipcs.len());
    out.put_tail("sim_mips_p10", &mips[0], 10.0, "Minstr/s");

    let mut max_rps = 0.0f64;
    for (name, rate, st) in &results {
        let p99 = crate::stats::percentile(&st.lat_ms, 99.0).unwrap_or(f64::INFINITY);
        let complete = frac(st.answered_in_step as f64, st.due as f64);
        let handle_us = frac(st.delta("wall_s") * 1e6, st.delta("requests"));
        out.put(
            &format!("lat_p50_ms.{name}"),
            median(&st.lat_ms),
            "ms",
            st.lat_ms.len(),
        );
        out.put_tail(&format!("lat_p99_ms.{name}"), &st.lat_ms, 99.0, "ms");
        out.put_tail(
            &format!("loadgen.lag_ms_p99.{name}"),
            &st.lag_ms,
            99.0,
            "ms",
        );
        out.put(
            &format!("loadgen.complete_frac.{name}"),
            complete,
            "frac",
            st.due as usize,
        );
        out.put(&format!("serve.handle_us_mean.{name}"), handle_us, "us", 1);
        let client_us = st.lat_ms.iter().sum::<f64>() * 1e3 / st.lat_ms.len().max(1) as f64;
        out.put(
            &format!("serve.queue_us_mean.{name}"),
            client_us - handle_us,
            "us",
            1,
        );
        if p99 <= LATENCY_LIMIT_MS && st.failed == 0 && complete >= 0.98 {
            max_rps = max_rps.max(*rate);
        }
        out.notes.push(format!(
            "step {name}: offered {rate} req/s, {} requests, {:.3} s",
            st.due, st.seconds
        ));
    }
    out.put("loadgen.max_rps", max_rps, "req/s", results.len());
    if opts.trace {
        let (spans, _) = trace::snapshot();
        crate::suite::put_engine_times(opts, &mut out, &spans)?;
        replay.counts.put(&mut out);
        crate::suite::put_window_costs(&mut out, &replay.windows);
        crate::suite::put_isa(&mut out, &spans, golden_ns);
        crate::suite::put_overhead(&mut out, mips);
        put_serve_layers(&mut out, &results, &replay);
    }
    // Lane batching inside the server shows as serve.lane_batched_frac.
    out.bypassed = &["lane.", "sweep."];
    Ok(out)
}

fn put_serve_layers(out: &mut Outcome, results: &[(&str, f64, Step)], replay: &Replay) {
    let (handle_us, codec_us) = (&replay.handle_us, &replay.codec_us);
    let mid = &results[results.len() / 2].2;
    let sum = |key: &str| results.iter().map(|(_, _, st)| st.delta(key)).sum::<f64>();
    let runs = sum("runs");
    out.put(
        "serve.busy_frac",
        frac(mid.delta("wall_s"), mid.seconds * WORKERS as f64),
        "frac",
        1,
    );
    let handle = frac(mid.delta("wall_s") * 1e6, mid.delta("requests"));
    let client = mid.lat_ms.iter().sum::<f64>() * 1e3 / mid.lat_ms.len().max(1) as f64;
    out.put(
        "serve.queue_frac",
        frac(client - handle, client),
        "frac",
        mid.lat_ms.len(),
    );
    out.put(
        "serve.codec_frac",
        frac(median(codec_us), median(handle_us)),
        "frac",
        codec_us.len(),
    );
    out.put(
        "serve.affinity_frac",
        frac(sum("batched_runs"), runs),
        "frac",
        1,
    );
    out.put(
        "serve.lane_batched_frac",
        frac(sum("lane_batched_runs"), runs),
        "frac",
        1,
    );
    out.put(
        "serve.handle_us_p50",
        median(handle_us),
        "us",
        handle_us.len(),
    );
    out.put("serve.codec_us_p50", median(codec_us), "us", codec_us.len());
    let checkout = &replay.checkout_us;
    out.put(
        "pool.checkout_us_p50",
        median(checkout),
        "us",
        checkout.len(),
    );
    let (hits, misses) = (sum("engine_pool_hits"), sum("engine_pool_misses"));
    out.put("pool.hit_frac", frac(hits, hits + misses), "frac", 1);
    out.put("pool.evictions", sum("engine_pool_evictions"), "count", 1);
    let (hits, misses) = (sum("program_cache_hits"), sum("program_cache_misses"));
    out.put("isa.cache_hit_frac", frac(hits, hits + misses), "frac", 1);
    let late: f64 = results
        .iter()
        .map(|(_, _, st)| {
            st.lag_ms
                .iter()
                .filter(|&&l| l * 1e6 > LATE_NS as f64)
                .count() as f64
        })
        .sum();
    let sends: usize = results.iter().map(|(_, _, st)| st.lag_ms.len()).sum();
    out.put("loadgen.late_frac", frac(late, sends as f64), "frac", sends);
    out.put(
        "loadgen.achieved_rps",
        frac(mid.measured_answered as f64, mid.measured_seconds),
        "req/s",
        1,
    );
    let backlog: u64 = results.iter().map(|(_, _, st)| st.backlog_end).sum();
    out.put(
        "loadgen.backlog_end",
        backlog as f64,
        "count",
        results.len(),
    );
}

/// The in-process replay: its own server and the side structures for
/// timing a request's parts directly, and what it measured.
struct Replay {
    /// The replayed lines (every hot line and one per tiny program),
    /// each one's configuration and handle times in nanoseconds.
    lines: Vec<usize>,
    configs: Vec<ProcConfig>,
    line_ns: Vec<Vec<f64>>,
    server: Server,
    programs: ShardedProgramCache,
    engines: ShardedEnginePool,
    checked: bool,
    /// Simulated MIPS per pass: untraced, traced.
    mips: [Vec<f64>; 2],
    /// Per traced line: handle time, its codec remainder and the pool
    /// checkout time, in microseconds.
    handle_us: Vec<f64>,
    codec_us: Vec<f64>,
    checkout_us: Vec<f64>,
    /// Counters and per-window costs of the directly timed engine runs.
    counts: crate::suite::Counts,
    windows: Vec<(usize, crate::suite::WindowCost)>,
}

impl Replay {
    fn new(s: &Setup) -> Result<Replay, String> {
        let lines: Vec<usize> = s.mix.hot.iter().chain(&s.mix.tiny).copied().collect();
        let configs = lines
            .iter()
            .map(|&l| config(s.mix.specs[l].1, s.mix.specs[l].2))
            .collect::<Result<Vec<_>, _>>()?;
        let mut server = Server::new(64, 8);
        for &l in &lines {
            server.handle_line(&s.mix.lines[l]);
        }
        Ok(Replay {
            line_ns: vec![Vec::new(); lines.len()],
            lines,
            configs,
            server,
            programs: ShardedProgramCache::new(64, 1),
            engines: ShardedEnginePool::new(8, 1),
            checked: false,
            mips: [Vec::new(), Vec::new()],
            handle_us: Vec::new(),
            codec_us: Vec::new(),
            checkout_us: Vec::new(),
            counts: crate::suite::Counts::default(),
            windows: Vec::new(),
        })
    }

    /// Closed-loop passes of the replayed lines through
    /// `Server::handle_line` for `opts.seconds`. The first pass ever is
    /// compared with the references; traced passes also time each
    /// request's program-cache lookup, pool checkout and engine run
    /// directly, so the codec's share is the handle time minus those.
    fn passes(
        &mut self,
        opts: &Opts,
        s: &Setup,
        out: &mut Outcome,
        clock: &mut HostClock,
    ) -> Result<(), String> {
        timed_passes(opts, |_| {
            let traced = trace::active();
            let pass_span = trace::begin("bench.pass", 0);
            let (mut ns, mut instrs) = (0.0, 0u64);
            for (i, &l) in self.lines.iter().enumerate() {
                let req = trace::begin_req("bench.serve.request", pass_span.id(), l as u64);
                let span = trace::begin_req("bench.serve.handle_line", req.id(), l as u64);
                let t0 = Instant::now();
                let reply = self.server.handle_line(&s.mix.lines[l]);
                let handle = t0.elapsed().as_nanos() as f64;
                span.end();
                ns += handle;
                self.line_ns[i].push(handle);
                instrs += s.work[l].0;
                if !self.checked && reply != s.refs[l] {
                    out.fail(format!("replayed line {l} differs from its reference"));
                }
                if traced {
                    let span = trace::begin_req("isa.cache_lookup", req.id(), l as u64);
                    let t0 = Instant::now();
                    let program = self
                        .programs
                        .get_or_assemble(&s.mix.specs[l].0, 32)
                        .map_err(|e| e.to_string())?;
                    let lookup = t0.elapsed().as_nanos() as f64;
                    span.end();
                    let span = trace::begin_req("core.pool.checkout", req.id(), l as u64);
                    let t0 = Instant::now();
                    let mut engine = self.engines.checkout(&self.configs[i]);
                    let checkout = t0.elapsed().as_nanos() as f64;
                    span.end();
                    let span = trace::begin_req("core.engine.run", req.id(), l as u64);
                    let t0 = Instant::now();
                    engine.engine.run_reusing(&program, &mut engine.result);
                    let run = t0.elapsed().as_nanos() as f64;
                    span.end();
                    self.counts.add(&engine.result);
                    let cost = crate::suite::WindowCost {
                        ns: run,
                        cycles: engine.result.cycles,
                    };
                    self.windows.push((self.configs[i].window, cost));
                    self.engines.checkin(engine);
                    self.handle_us.push(handle / 1e3);
                    self.codec_us
                        .push((handle - lookup - checkout - run).max(0.0) / 1e3);
                    self.checkout_us.push(checkout / 1e3);
                }
                req.end();
            }
            pass_span.end();
            clock.burst();
            self.checked = true;
            out.attempted += self.lines.len() as u64;
            self.mips[traced as usize].push(instrs as f64 * 1e3 / ns);
            Ok(())
        })?;
        Ok(())
    }
}

/// Check every distinct request against the golden interpreter: run it
/// on an engine of its configuration and compare the architectural
/// state, and the reference response's counts with the run's. Returns
/// the time spent in the golden checks.
fn check_references(s: &Setup, out: &mut Outcome) -> Result<f64, String> {
    let engines = ShardedEnginePool::new(8, 1);
    let mut golden_ns = 0.0;
    for (l, (text, arch, window)) in s.mix.specs.iter().enumerate() {
        let program = ultrascalar_isa::assemble(text, 32).map_err(|e| e.to_string())?;
        let mut engine = engines.checkout(&config(arch, *window)?);
        engine.engine.run_reusing(&program, &mut engine.result);
        let t0 = Instant::now();
        let golden = check_against_golden(&engine.result, &program, crate::suite::MAX_STEPS);
        golden_ns += t0.elapsed().as_nanos() as f64;
        let counts = (engine.result.stats.committed, engine.result.cycles);
        if let Err(e) = golden {
            out.fail(format!("request line {l}: {e}"));
        } else if counts != s.work[l] {
            out.fail(format!(
                "request line {l}: reference {:?}, engine {counts:?}",
                s.work[l]
            ));
        }
        engines.checkin(engine);
    }
    out.attempted += s.mix.specs.len() as u64;
    Ok(golden_ns)
}

/// Drive ladder step `index` open-loop and drain it.
fn run_step(s: &mut Setup, index: usize, seconds: f64, warmup: f64) -> Result<Step, String> {
    let before = s.conns[0].request("{\"cmd\":\"stats\"}")?;
    let mut st = Step::default();
    let events: Vec<&gen::Event> = s.mix.events.iter().filter(|e| e.step == index).collect();
    let step_ns = (seconds * 1e9) as u64;
    let warm_ns = (warmup * 1e9) as u64;
    let step_span = trace::begin("loadgen.step", 0);
    let origin = trace::now();
    let mut next = 0;
    let mut req_id = (index as u64) << 40;
    let mut backlog_taken = false;
    loop {
        let now = trace::now() - origin;
        let mut busy = false;
        while next < events.len() && events[next].due_ns <= now {
            let e = events[next];
            let conn = &mut s.conns[e.conn];
            let measured = e.due_ns >= warm_ns;
            for _ in 0..e.requests() {
                conn.out.extend_from_slice(s.mix.lines[e.line].as_bytes());
                conn.out.push(b'\n');
                req_id += 1;
                conn.pending.push_back(Pending {
                    line: e.line,
                    due: e.due_ns,
                    measured,
                    req: req_id,
                });
            }
            st.due += e.requests() as u64;
            if measured {
                st.lag_ms.push((now - e.due_ns) as f64 / 1e6);
            }
            next += 1;
            busy = true;
        }
        for c in s.conns.iter_mut() {
            busy |= c.flush()?;
            busy |= c.fill()?;
            let read_at = trace::now() - origin;
            while let Some(reply) = c.next_line() {
                let p = c
                    .pending
                    .pop_front()
                    .ok_or_else(|| format!("unexpected reply {reply}"))?;
                if reply != s.refs[p.line] {
                    st.failed += 1;
                }
                if read_at <= step_ns {
                    st.answered_in_step += 1;
                }
                if p.measured {
                    let ms = (read_at - p.due) as f64 / 1e6;
                    st.lat_ms.push(ms);
                    st.by_line.push((p.line, ms));
                    if p.due < step_ns {
                        st.measured_answered += 1;
                    }
                }
                trace::record(
                    "loadgen.request",
                    step_span.id(),
                    p.req,
                    origin + p.due,
                    origin + read_at,
                );
            }
            if c.closed {
                return Err("the server closed a connection".into());
            }
        }
        let now = trace::now() - origin;
        if now > step_ns && !backlog_taken {
            st.backlog_end = s.conns.iter().map(|c| c.pending.len() as u64).sum::<u64>()
                + events[next..]
                    .iter()
                    .map(|e| e.requests() as u64)
                    .sum::<u64>();
            backlog_taken = true;
        }
        let outstanding: usize = s.conns.iter().map(|c| c.pending.len()).sum();
        if next == events.len() && outstanding == 0 && now >= step_ns {
            break;
        }
        if now > step_ns + DRAIN.as_nanos() as u64 {
            st.failed += outstanding as u64;
            for c in s.conns.iter_mut() {
                c.pending.clear();
            }
            break;
        }
        if !busy {
            // Poll without sleeping while a response is due soon, so its
            // arrival is seen when it lands; sleep otherwise.
            let until_due = events
                .get(next)
                .map_or(u64::MAX, |e| e.due_ns.saturating_sub(now));
            let awaiting = s.conns.iter().any(|c| {
                c.pending
                    .back()
                    .is_some_and(|p| now.saturating_sub(p.due) < EXPECT_NS)
            });
            if awaiting || until_due <= EXPECT_NS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(20));
            }
        }
    }
    step_span.end();
    st.seconds = (trace::now() - origin) as f64 / 1e9;
    st.measured_seconds = seconds - warmup;
    let after = s.conns[0].request("{\"cmd\":\"stats\"}")?;
    for (d, key) in st.deltas.iter_mut().zip(COUNTERS) {
        *d = field(&after, key) - field(&before, key);
        if key == "requests" {
            // The closing stats request counts itself.
            *d -= 1.0;
        }
    }
    Ok(st)
}

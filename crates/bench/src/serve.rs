//! `usim serve` — a long-running, *concurrent* batch/server mode for
//! simulation requests.
//!
//! The serving loop reads newline-delimited JSON requests from stdin
//! (or a Unix socket with `--socket PATH`) and writes one JSON response
//! per line:
//!
//! ```text
//! {"program": "li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n",
//!  "options": {"arch": "usi", "window": 8}}
//! → {"ok":true,"arch":"usi","window":8,"cluster":1,"halted":true,...}
//! ```
//!
//! # The request plane
//!
//! Socket mode starts `--workers N` serving threads (default: the
//! host's available parallelism) that live as long as the server. Each
//! owns one [`Worker`] and loops: accept a connection, serve it to its
//! end, accept the next. Connections beyond the busy threads wait in
//! the listen backlog. Every thread shares two structures, each one
//! LRU behind one mutex, locked for a scan and never for a simulation:
//!
//! * assembled programs live in a program cache keyed by source text.
//!   A hit clones an `Arc` out and unlocks before the engine runs.
//! * warm engines live in an engine pool keyed by `ProcConfig`,
//!   accessed by **checkout/checkin**: a checkout removes the engine
//!   from the pool, the worker simulates with the pool unlocked, and
//!   checkin returns it (two workers on the same configuration simply
//!   hold two engines).
//!
//! Every run request is served as a **lane group** of
//! 1..=[`ultrascalar::MAX_LANES`] requests, submitted as one
//! [`ultrascalar::LaneBatcher`] batch on one checked-out engine. The
//! request that starts a group is its leader; while more complete
//! request lines already sit in the read buffer and name the leader's
//! configuration and program, they join it. A batch of two or more is
//! one engine pass whose schedule is shared across every converged
//! lane; a batch of one is the plain serial run. Either way the
//! responses are byte-identical to serving the lines one at a time. A
//! request/response client never has a second line buffered, so each
//! of its requests is a group of one. The members past each leader are
//! counted as `batched_runs`, and as engine-pool hits, so
//! `engine_pool_hits + engine_pool_misses == runs`; lock-step-delivered
//! results and divergence peels are counted separately
//! (`lane_batched_runs` / `lane_divergence_peels` in `{"cmd":"stats"}`).
//!
//! Each worker keeps the zero-allocation warm path of the serial
//! server: requests parse into worker-owned reused [`String`] buffers
//! and responses serialise into a worker-owned reused line buffer, so
//! the steady-state request loop — parse, cache hit, pool hit,
//! simulate, respond — performs **zero heap allocations per worker**,
//! under concurrency included (asserted by the counting-allocator probe
//! in `tests/serve_alloc_probe.rs`).
//!
//! A client disconnect (EOF mid-line, broken pipe on write) closes
//! only that connection and bumps the `disconnects` counter; it can
//! never take the server down or poison a lock. A panic while serving
//! a connection is counted as an error; the thread rebuilds its
//! `Worker` and accepts the next connection. A `{"cmd":"shutdown"}`
//! from any client closes every open connection, wakes the threads
//! waiting in `accept`, joins every thread and removes the socket
//! file; the aggregate stderr summary prints exactly once.
//!
//! # Limits
//!
//! A request line is at most [`MAX_LINE_BYTES`] long. The rest of a
//! longer line is drained up to its newline without being buffered,
//! and the line gets one error response; the connection keeps
//! serving. `options.max_cycles` is at most [`MAX_CYCLES`]. Socket
//! clients must send programs inline: `program_path` is honoured only
//! on stdin, whose client started the server and can read its files
//! anyway.
//!
//! The JSON codec is hand-rolled like [`crate::sweep::JsonReport`]:
//! this workspace takes no serde dependency. Identical requests
//! produce byte-identical responses (per-request wall time is
//! reported only when the request opts in with `"timing": true`);
//! cache effectiveness is observable through the counters of a
//! `{"cmd":"stats"}` request and the final summary.

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::cli::{self, RunOptions, ServeOptions};
use ultrascalar::{
    LaneBatchStats, LaneBatcher, PoolStats, ProcConfig, RunResult, ShardedEnginePool, MAX_LANES,
};
use ultrascalar_isa::{CacheStats, Program, ShardedProgramCache};
use ultrascalar_memsys::NetworkKind;

/// The longest request line `usim serve` buffers, newline included:
/// far above any valid request, small enough that a client streaming
/// bytes with no newline cannot grow server memory without bound.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// The largest `options.max_cycles` a request may ask for: the
/// `usim run` default budget. A serving thread is busy for the whole
/// run, so one request must not hold it for longer than that.
pub const MAX_CYCLES: u64 = cli::DEFAULT_MAX_CYCLES;

/// The error a socket client gets for a `program_path` request.
const NO_PATHS_ON_SOCKETS: &str =
    "`program_path` is not accepted on socket connections; send the program inline";

/// Lock recovering from poison: the guarded state is cache/registry
/// bookkeeping whose invariants hold on every exit path, so one
/// panicking worker must not wedge the rest of the server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Cmd {
    /// Simulate a program (the default when `cmd` is absent).
    #[default]
    Run,
    /// Report aggregate serving counters.
    Stats,
    /// Acknowledge and stop the serving loop.
    Shutdown,
}

/// One parsed request. Lives inside a [`Worker`] and is rewound per
/// line so its string buffers are reused across requests.
#[derive(Debug, Default)]
struct Request {
    cmd: Cmd,
    id: String,
    has_id: bool,
    /// The inline program text; for a run leader with a
    /// `program_path`, the file's text once it is read.
    program: String,
    has_program: bool,
    program_path: String,
    has_program_path: bool,
    timing: bool,
    registers: bool,
    opts: RunOptions,
}

impl Request {
    fn reset(&mut self) {
        self.cmd = Cmd::Run;
        self.id.clear();
        self.has_id = false;
        self.program.clear();
        self.has_program = false;
        self.program_path.clear();
        self.has_program_path = false;
        self.timing = false;
        self.registers = false;
        // `RunOptions::default()` holds only plain data and an empty
        // (unallocated) path string, so this rewinds without touching
        // the allocator.
        self.opts = RunOptions::default();
    }
}

/// Aggregate serving counters, snapshotted by
/// [`ServeShared::counters`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Request lines handled (including malformed ones).
    pub requests: u64,
    /// Simulation runs completed.
    pub runs: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Connections that ended abnormally (EOF mid-line, read error,
    /// broken pipe on write).
    pub disconnects: u64,
    /// Runs that rode a lane group behind its leader, on the engine
    /// the leader checked out (counted as engine-pool hits).
    pub batched_runs: u64,
    /// Lane-batch counters summed over every group of two or more
    /// requests: the `lane_*` keys of `{"cmd":"stats"}`.
    pub lane: LaneBatchStats,
    /// Total cycles simulated across all runs.
    pub cycles_simulated: u64,
    /// Total instructions committed across all runs.
    pub instructions_committed: u64,
    /// Sum of [`ultrascalar::ProcStats::packed_fallbacks`]: always 0,
    /// kept so the stats report keeps its `"packed_fallbacks"` key.
    pub packed_fallbacks: u64,
    /// Wall time spent handling requests, summed across workers
    /// (parse + simulate + respond).
    pub wall: Duration,
}

/// The serving state shared by every worker thread: the program
/// cache, the engine pool, and atomic aggregate counters.
#[derive(Debug)]
pub struct ServeShared {
    programs: ShardedProgramCache,
    engines: ShardedEnginePool,
    workers: usize,
    requests: AtomicU64,
    runs: AtomicU64,
    errors: AtomicU64,
    disconnects: AtomicU64,
    batched: AtomicU64,
    lane: Mutex<LaneBatchStats>,
    cycles_simulated: AtomicU64,
    instructions_committed: AtomicU64,
    packed_fallbacks: AtomicU64,
    wall_nanos: AtomicU64,
    worker_requests: Vec<AtomicU64>,
    shutdown: AtomicBool,
}

impl ServeShared {
    /// Build the shared serving state from parsed options: one
    /// program cache of `program_cache` entries and one engine pool of
    /// `engines` engines, each a single LRU behind one lock.
    ///
    /// # Panics
    /// Panics if a capacity or the worker count is zero (the CLI
    /// parser rejects these first).
    pub fn new(o: &ServeOptions) -> Self {
        assert!(o.workers > 0, "serve needs at least one worker");
        ServeShared {
            programs: ShardedProgramCache::new(o.program_cache, 1),
            engines: ShardedEnginePool::new(o.engines, 1),
            workers: o.workers,
            requests: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            lane: Mutex::new(LaneBatchStats::default()),
            cycles_simulated: AtomicU64::new(0),
            instructions_committed: AtomicU64::new(0),
            packed_fallbacks: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            worker_requests: (0..o.workers).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Has any client requested shutdown?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown (as `{"cmd":"shutdown"}` would).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Snapshot of the aggregate counters.
    pub fn counters(&self) -> ServeCounters {
        ServeCounters {
            requests: self.requests.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            batched_runs: self.batched.load(Ordering::Relaxed),
            lane: *lock(&self.lane),
            cycles_simulated: self.cycles_simulated.load(Ordering::Relaxed),
            instructions_committed: self.instructions_committed.load(Ordering::Relaxed),
            packed_fallbacks: self.packed_fallbacks.load(Ordering::Relaxed),
            wall: Duration::from_nanos(self.wall_nanos.load(Ordering::Relaxed)),
        }
    }

    /// Program-cache counters.
    pub fn program_stats(&self) -> CacheStats {
        self.programs.stats()
    }

    /// Engine-pool counters, with every lane-group member past its
    /// leader counted as a hit on the leader's engine, so that
    /// `hits + misses == runs`.
    pub fn engine_stats(&self) -> PoolStats {
        let mut s = self.engines.stats();
        s.hits += self.batched.load(Ordering::Relaxed);
        s
    }

    /// Requests handled per worker slot.
    pub fn worker_request_counts(&self) -> Vec<u64> {
        self.worker_requests
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }
}

/// One serving worker: a handle on the shared state plus the reused
/// request/response buffers and the lane group being collected. Each
/// connection (or the stdin stream) is driven by exactly one worker.
#[derive(Debug)]
pub struct Worker {
    shared: Arc<ServeShared>,
    slot: usize,
    key: String,
    sval: String,
    /// The current group's responses, each newline-terminated.
    line_out: String,
    /// Whether a run may name a `program_path` (stdin only).
    reads_paths: bool,
    batcher: LaneBatcher,
    /// When the current group's leader was admitted.
    started: Instant,
    /// Parsed requests of the group being collected (slots reused);
    /// slot 0 is the leader.
    group: Vec<Request>,
    /// The group's configuration (the leader's, shared by all).
    group_cfg: Option<ProcConfig>,
    /// One cache handle per group member (cleared per leader).
    group_programs: Vec<Arc<Program>>,
    /// One reused result slot per lane.
    group_results: Vec<RunResult>,
}

impl Worker {
    /// Create a worker bound to `slot` (an index below
    /// [`ServeShared::workers`], used for the per-worker request
    /// tally).
    pub fn new(shared: Arc<ServeShared>, slot: usize) -> Self {
        assert!(slot < shared.workers, "worker slot out of range");
        Worker {
            shared,
            slot,
            key: String::new(),
            sval: String::new(),
            line_out: String::new(),
            reads_paths: true,
            batcher: LaneBatcher::new(),
            started: Instant::now(),
            group: Vec::new(),
            group_cfg: None,
            group_programs: Vec::with_capacity(MAX_LANES),
            group_results: Vec::new(),
        }
    }

    /// The shared serving state.
    pub fn shared(&self) -> &Arc<ServeShared> {
        &self.shared
    }

    /// Handle one request line as a group of one and return the
    /// response line (no trailing newline). Never fails: malformed
    /// requests produce an `{"ok":false,"error":…}` response.
    pub fn handle_line(&mut self, line: &str) -> &str {
        if self.admit(0, line) {
            self.execute_group(1);
        }
        self.line_out.strip_suffix('\n').unwrap_or(&self.line_out)
    }

    /// Answer a request line longer than [`MAX_LINE_BYTES`]: one error
    /// line (newline included), counted as a failed request.
    fn reject_long_line(&mut self) {
        self.started = Instant::now();
        self.tally(1, 1);
        self.line_out.clear();
        let _ = writeln!(
            self.line_out,
            "{{\"ok\":false,\"error\":\"request line longer than {MAX_LINE_BYTES} bytes\"}}"
        );
    }

    /// The one place request lines are counted: `requests` more lines
    /// answered by this worker, `errors` of them with an error
    /// response, and the wall time since the current leader arrived.
    fn tally(&self, requests: u64, errors: u64) {
        let s = &self.shared;
        s.requests.fetch_add(requests, Ordering::Relaxed);
        s.worker_requests[self.slot].fetch_add(requests, Ordering::Relaxed);
        if errors > 0 {
            s.errors.fetch_add(errors, Ordering::Relaxed);
        }
        s.wall_nanos
            .fetch_add(self.started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Parse `line` into group slot `n` and admit it to the group.
    ///
    /// Slot 0 is the leader and starts a new group. A run leader whose
    /// program and configuration resolve is admitted and waits for
    /// [`Worker::execute_group`]. Anything else — `stats`, `shutdown`,
    /// a malformed line, a run that fails to resolve — is answered on
    /// the spot into `line_out`, and `false` is returned.
    ///
    /// Slot `n > 0` joins only if it is an inline-program run with the
    /// leader's program text, register count and configuration. Its
    /// cache lookup is then a hit on the entry the leader resolved, so
    /// the accounting matches serving the line by itself. A line that
    /// does not join has touched no shared state; the caller serves it
    /// next, as a leader.
    fn admit(&mut self, n: usize, line: &str) -> bool {
        while self.group.len() <= n {
            self.group.push(Request::default());
        }
        if n == 0 {
            self.started = Instant::now();
            self.line_out.clear();
        }
        let parsed = parse_request(line, &mut self.group[n], &mut self.key, &mut self.sval);
        if n > 0 {
            let Worker {
                shared,
                group,
                group_cfg,
                group_programs,
                ..
            } = self;
            let (leader, req) = (&group[0], &group[n]);
            let joins = parsed.is_ok()
                && req.cmd == Cmd::Run
                && req.has_program
                && !req.has_program_path
                && req.opts.regs == leader.opts.regs
                && req.program == leader.program
                && cli::build_config(&req.opts).is_ok_and(|cfg| group_cfg.as_ref() == Some(&cfg));
            if !joins {
                return false;
            }
            return match shared.programs.get_or_assemble(&req.program, req.opts.regs) {
                Ok(program) => {
                    group_programs.push(program);
                    true
                }
                Err(_) => false,
            };
        }
        let answer = match parsed {
            Ok(()) if self.group[0].cmd == Cmd::Run => match self.resolve_run() {
                Ok(()) => return true,
                Err(e) => Err(e),
            },
            other => other,
        };
        self.tally(1, answer.is_err() as u64);
        let Worker {
            shared,
            group,
            line_out,
            ..
        } = self;
        match answer {
            Err(e) => write_error_line(line_out, &group[0], &e),
            Ok(()) if group[0].cmd == Cmd::Stats => write_stats(line_out, shared),
            Ok(()) => {
                shared.request_shutdown();
                line_out.push_str("{\"ok\":true,\"shutdown\":true}");
            }
        }
        line_out.push('\n');
        false
    }

    /// Resolve the run leader in group slot 0: read its `program_path`
    /// into its `program` buffer when the program is not inline, build
    /// its configuration, and look its program up in the cache.
    fn resolve_run(&mut self) -> Result<(), String> {
        let Worker {
            shared,
            reads_paths,
            group,
            group_cfg,
            group_programs,
            ..
        } = self;
        let req = &mut group[0];
        match (req.has_program, req.has_program_path) {
            (true, true) => return Err("give either `program` or `program_path`, not both".into()),
            (false, false) => return Err("request needs a `program` or `program_path`".into()),
            (true, false) => {}
            (false, true) if !*reads_paths => return Err(NO_PATHS_ON_SOCKETS.into()),
            (false, true) => {
                let bytes = std::fs::read(&req.program_path)
                    .map_err(|e| format!("cannot read {}: {e}", req.program_path))?;
                let text = std::str::from_utf8(&bytes)
                    .map_err(|e| format!("{} is not UTF-8: {e}", req.program_path))?;
                req.program.push_str(text);
            }
        }
        let cfg = cli::build_config(&req.opts)?;
        let program = shared
            .programs
            .get_or_assemble(&req.program, req.opts.regs)
            .map_err(|e| e.to_string())?;
        *group_cfg = Some(cfg);
        group_programs.clear();
        group_programs.push(program);
        Ok(())
    }

    /// Run the admitted group of `n` requests as one lane batch on one
    /// engine checked out of the pool, and serialise every response, in
    /// request order and newline-terminated, into `line_out`. A batch
    /// of one is the plain serial run. The members after the leader
    /// ride the leader's engine, so they count as batched runs (and
    /// pool hits, as they would be one line at a time); the lane
    /// counters additionally record how many results the lock-step pass
    /// delivered and how many lanes peeled.
    fn execute_group(&mut self, n: usize) {
        let Worker {
            shared,
            batcher,
            group,
            group_cfg,
            group_programs,
            group_results,
            line_out,
            ..
        } = self;
        let cfg = group_cfg.take().expect("group leader admitted");
        let mut pooled = shared.engines.checkout(&cfg);
        while group_results.len() < n {
            group_results.push(RunResult::default());
        }
        let before = *batcher.stats();
        let run_started = Instant::now();
        batcher.run_batch(
            &mut pooled.engine,
            &group_programs[..n],
            &mut group_results[..n],
        );
        let share = run_started.elapsed() / n as u32;
        shared.engines.checkin(pooled);
        if n > 1 {
            shared.batched.fetch_add(n as u64 - 1, Ordering::Relaxed);
            lock(&shared.lane).merge(&batcher.stats().delta_since(&before));
        }
        for (req, r) in group[..n].iter().zip(group_results.iter()) {
            count_run(shared, r);
            let wall_us = req.timing.then_some(share.as_micros() as u64);
            write_run(line_out, req, &cfg, r, wall_us);
            line_out.push('\n');
        }
        self.tally(n as u64, 0);
    }
}

/// Post-run counter roll-up for one response.
fn count_run(shared: &ServeShared, r: &RunResult) {
    shared.runs.fetch_add(1, Ordering::Relaxed);
    shared
        .cycles_simulated
        .fetch_add(r.cycles, Ordering::Relaxed);
    shared
        .instructions_committed
        .fetch_add(r.stats.committed, Ordering::Relaxed);
    shared
        .packed_fallbacks
        .fetch_add(r.stats.packed_fallbacks, Ordering::Relaxed);
}

/// Append the `{"ok":false,…}` error response for `req`.
fn write_error_line(out: &mut String, req: &Request, err: &str) {
    out.push_str("{\"ok\":false,");
    if req.has_id {
        out.push_str("\"id\":\"");
        escape_into(out, &req.id);
        out.push_str("\",");
    }
    out.push_str("\"error\":\"");
    escape_into(out, err);
    out.push_str("\"}");
}

/// The single-threaded serving facade: one [`Worker`] over its own
/// shared state. Serves as the serial baseline the concurrent path is
/// pinned byte-identical against.
#[derive(Debug)]
pub struct Server {
    worker: Worker,
}

impl Server {
    /// Create a single-worker server with the given program-cache and
    /// engine-pool capacities.
    ///
    /// # Panics
    /// Panics if either capacity is zero.
    pub fn new(program_cache: usize, engines: usize) -> Self {
        let o = ServeOptions {
            socket: None,
            program_cache,
            engines,
            workers: 1,
        };
        Server {
            worker: Worker::new(Arc::new(ServeShared::new(&o)), 0),
        }
    }

    /// The shared serving state (counters, cache/pool stats).
    pub fn shared(&self) -> &Arc<ServeShared> {
        &self.worker.shared
    }

    /// Handle one request line and return the response line (no
    /// trailing newline). Never fails: malformed requests produce an
    /// `{"ok":false,"error":…}` response.
    pub fn handle_line(&mut self, line: &str) -> &str {
        self.worker.handle_line(line)
    }
}

/// The one-line human-readable summary printed to stderr exactly once
/// when the serving loop exits.
pub fn final_summary(shared: &ServeShared) -> String {
    let c = shared.counters();
    let pc = shared.program_stats();
    let ep = shared.engine_stats();
    format!(
        "usim serve: {} requests ({} runs, {} errors, {} disconnects), \
         program cache {} hits / {} misses / {} evictions, \
         engine pool {} hits / {} misses / {} evictions ({} batched), \
         {} lane-batched runs over {} epochs \
         ({} divergence peels, {} replay peels; demoted \
         {} incompatible / {} leader / {} structure / {} verify), \
         {} cycles simulated, {} instructions committed, \
         {} packed fallbacks, {:.3} s busy",
        c.requests,
        c.runs,
        c.errors,
        c.disconnects,
        pc.hits,
        pc.misses,
        pc.evictions,
        ep.hits,
        ep.misses,
        ep.evictions,
        c.batched_runs,
        c.lane.lane_runs,
        c.lane.epochs,
        c.lane.peels,
        c.lane.replay_peels,
        c.lane.fallback_incompatible,
        c.lane.fallback_leader,
        c.lane.fallback_structure,
        c.lane.fallback_verify,
        c.cycles_simulated,
        c.instructions_committed,
        c.packed_fallbacks,
        c.wall.as_secs_f64(),
    )
}

/// Serialise a run response. Identical requests must produce
/// byte-identical responses, so per-request wall time appears only
/// when the request opted in with `"timing": true` (and `wall_us` is
/// `Some`).
fn write_run(
    out: &mut String,
    req: &Request,
    cfg: &ProcConfig,
    r: &RunResult,
    wall_us: Option<u64>,
) {
    out.push_str("{\"ok\":true,");
    if req.has_id {
        out.push_str("\"id\":\"");
        escape_into(out, &req.id);
        out.push_str("\",");
    }
    let arch = if cfg.cluster == 1 {
        "usi"
    } else if cfg.cluster == cfg.window {
        "usii"
    } else {
        "hybrid"
    };
    let _ = write!(
        out,
        "\"arch\":\"{arch}\",\"window\":{},\"cluster\":{},\"halted\":{},\
         \"cycles\":{},\"instructions\":{},\"ipc\":{:.4},\"branches\":{},\
         \"mispredictions\":{},\"flushed\":{},\"loads\":{},\"stores\":{},\
         \"store_forwards\":{},\"packed_fallbacks\":{}",
        cfg.window,
        cfg.cluster,
        r.halted,
        r.cycles,
        r.stats.committed,
        r.ipc(),
        r.stats.branches,
        r.stats.mispredictions,
        r.stats.flushed,
        r.stats.mem.loads,
        r.stats.mem.stores,
        r.stats.store_forwards,
        r.stats.packed_fallbacks,
    );
    if req.registers {
        out.push_str(",\"registers\":[");
        for (i, v) in r.regs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }
    if let Some(us) = wall_us {
        let _ = write!(out, ",\"wall_us\":{us}");
    }
    out.push('}');
}

fn write_stats(out: &mut String, shared: &ServeShared) {
    let c = shared.counters();
    let pc = shared.program_stats();
    let ep = shared.engine_stats();
    let _ = write!(
        out,
        "{{\"ok\":true,\"stats\":{{\"requests\":{},\"runs\":{},\"errors\":{},\
         \"disconnects\":{},\"batched_runs\":{},\
         \"lane_batched_runs\":{},\"lane_divergence_peels\":{},\
         \"lane_epochs\":{},\"lane_replay_peels\":{},\
         \"lane_demote_incompatible\":{},\"lane_demote_leader\":{},\
         \"lane_demote_structure\":{},\"lane_demote_verify\":{},\
         \"program_cache_hits\":{},\"program_cache_misses\":{},\
         \"program_cache_evictions\":{},\"programs_cached\":{},\
         \"engine_pool_hits\":{},\"engine_pool_misses\":{},\
         \"engine_pool_evictions\":{},\"engines_warm\":{},\
         \"cycles_simulated\":{},\"instructions_committed\":{},\"packed_fallbacks\":{},\
         \"wall_s\":{:.6},\"workers\":{}",
        c.requests,
        c.runs,
        c.errors,
        c.disconnects,
        c.batched_runs,
        c.lane.lane_runs,
        c.lane.peels,
        c.lane.epochs,
        c.lane.replay_peels,
        c.lane.fallback_incompatible,
        c.lane.fallback_leader,
        c.lane.fallback_structure,
        c.lane.fallback_verify,
        pc.hits,
        pc.misses,
        pc.evictions,
        pc.entries,
        ep.hits,
        ep.misses,
        ep.evictions,
        ep.warm,
        c.cycles_simulated,
        c.instructions_committed,
        c.packed_fallbacks,
        c.wall.as_secs_f64(),
        shared.workers,
    );
    out.push_str(",\"worker_requests\":[");
    for (i, w) in shared.worker_requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", w.load(Ordering::Relaxed));
    }
    out.push_str("]}}");
}

/// Append `s` to `out` as the body of a JSON string: quotes,
/// backslashes and every control character are escaped.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A byte cursor over one request line. All string values parse into
/// caller-owned buffers, so a well-formed request allocates nothing.
struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn new(s: &'a str) -> Self {
        P {
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(&c) if c == want => {
                self.i += 1;
                Ok(())
            }
            Some(&c) => Err(format!(
                "bad JSON: expected `{}` at byte {}, found `{}`",
                want as char, self.i, c as char
            )),
            None => Err(format!(
                "bad JSON: expected `{}` at byte {}, found end of line",
                want as char, self.i
            )),
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.i >= self.b.len()
    }

    /// Parse a JSON string into `out` (cleared first), decoding all
    /// escapes including `\uXXXX` surrogate pairs.
    fn string_into(&mut self, out: &mut String) -> Result<(), String> {
        out.clear();
        self.eat(b'"')?;
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err("bad JSON: unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => {
                    let Some(&e) = self.b.get(self.i) else {
                        return Err("bad JSON: unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must
                                // follow with the low half.
                                if self.b.get(self.i) != Some(&b'\\')
                                    || self.b.get(self.i + 1) != Some(&b'u')
                                {
                                    return Err("bad JSON: lone high surrogate".into());
                                }
                                self.i += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad JSON: invalid low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(ch) => out.push(ch),
                                None => return Err("bad JSON: invalid \\u escape".into()),
                            }
                        }
                        other => {
                            return Err(format!("bad JSON: unknown escape `\\{}`", other as char))
                        }
                    }
                }
                _ => {
                    // Copy the full UTF-8 sequence starting at c.
                    let start = self.i - 1;
                    while self.b.get(self.i).is_some_and(|&n| n & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| "bad JSON: invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(&c) = self.b.get(self.i) else {
                return Err("bad JSON: truncated \\u escape".into());
            };
            self.i += 1;
            v = v * 16
                + match c {
                    b'0'..=b'9' => (c - b'0') as u32,
                    b'a'..=b'f' => (c - b'a') as u32 + 10,
                    b'A'..=b'F' => (c - b'A') as u32 + 10,
                    _ => return Err("bad JSON: non-hex digit in \\u escape".into()),
                };
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("bad JSON: expected a number at byte {start}"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.b[self.i..].starts_with(b"true") {
            self.i += 4;
            Ok(true)
        } else if self.b[self.i..].starts_with(b"false") {
            self.i += 5;
            Ok(false)
        } else {
            Err(format!("bad JSON: expected true/false at byte {}", self.i))
        }
    }
}

fn as_int(x: f64, what: &str) -> Result<u64, String> {
    if x >= 0.0 && x.fract() == 0.0 && x <= (1u64 << 53) as f64 {
        Ok(x as u64)
    } else {
        Err(format!("{what} must be a non-negative integer"))
    }
}

fn as_usize(x: f64, what: &str) -> Result<usize, String> {
    Ok(as_int(x, what)? as usize)
}

/// Parse one request line into `req` (rewound first). `key` and `sval`
/// are caller-owned scratch buffers so parsing is allocation-free.
fn parse_request(
    line: &str,
    req: &mut Request,
    key: &mut String,
    sval: &mut String,
) -> Result<(), String> {
    req.reset();
    let mut p = P::new(line);
    p.eat(b'{')?;
    if p.peek() == Some(b'}') {
        p.eat(b'}')?;
    } else {
        loop {
            p.string_into(key)?;
            p.eat(b':')?;
            match key.as_str() {
                "cmd" => {
                    p.string_into(sval)?;
                    req.cmd = match sval.as_str() {
                        "run" => Cmd::Run,
                        "stats" => Cmd::Stats,
                        "shutdown" => Cmd::Shutdown,
                        other => return Err(format!("unknown cmd `{other}` (run|stats|shutdown)")),
                    };
                }
                "id" => {
                    p.string_into(&mut req.id)?;
                    req.has_id = true;
                }
                "program" => {
                    p.string_into(&mut req.program)?;
                    req.has_program = true;
                }
                "program_path" => {
                    p.string_into(&mut req.program_path)?;
                    req.has_program_path = true;
                }
                "timing" => req.timing = p.boolean()?,
                "registers" => req.registers = p.boolean()?,
                "options" => parse_options(&mut p, &mut req.opts, key, sval)?,
                other => return Err(format!("unknown request field `{other}`")),
            }
            match p.peek() {
                Some(b',') => p.eat(b',')?,
                _ => break,
            }
        }
        p.eat(b'}')?;
    }
    if !p.at_end() {
        return Err("bad JSON: trailing characters after request object".into());
    }
    Ok(())
}

/// Parse the nested `options` object. Field names mirror the `usim run`
/// flags; values go through the same validation as the CLI parser.
fn parse_options(
    p: &mut P,
    o: &mut RunOptions,
    key: &mut String,
    sval: &mut String,
) -> Result<(), String> {
    p.eat(b'{')?;
    if p.peek() == Some(b'}') {
        return p.eat(b'}');
    }
    loop {
        p.string_into(key)?;
        p.eat(b':')?;
        match key.as_str() {
            "arch" => {
                p.string_into(sval)?;
                o.arch = cli::parse_arch(sval)?;
            }
            "predictor" => {
                p.string_into(sval)?;
                o.predictor = cli::parse_predictor(sval)?;
            }
            "window" => o.window = as_usize(p.number()?, "window")?,
            "cluster" => o.cluster = Some(as_usize(p.number()?, "cluster")?),
            "alus" => o.alus = Some(as_usize(p.number()?, "alus")?),
            "mem_exp" => o.mem_exp = p.number()?,
            "network" => {
                p.string_into(sval)?;
                o.network = match sval.as_str() {
                    "fattree" | "fat-tree" => NetworkKind::FatTree,
                    "butterfly" => NetworkKind::Butterfly,
                    other => return Err(format!("unknown network `{other}` (fattree|butterfly)")),
                };
            }
            "butterfly" => {
                if p.boolean()? {
                    o.network = NetworkKind::Butterfly;
                }
            }
            "renaming" => o.renaming = p.boolean()?,
            "cache" => o.cache = p.boolean()?,
            "fetch_width" => o.fetch_width = Some(as_usize(p.number()?, "fetch_width")?),
            "per_hop" => o.per_hop = Some(as_int(p.number()?, "per_hop")?),
            "regs" => o.regs = as_usize(p.number()?, "regs")?,
            "max_cycles" => {
                o.max_cycles = as_int(p.number()?, "max_cycles")?;
                if o.max_cycles > MAX_CYCLES {
                    return Err(format!(
                        "max_cycles {} exceeds the serve cap of {MAX_CYCLES} cycles",
                        o.max_cycles
                    ));
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        match p.peek() {
            Some(b',') => p.eat(b',')?,
            _ => break,
        }
    }
    p.eat(b'}')
}

/// How one blocking raw-line read ended.
enum LineRead {
    /// A complete newline-terminated line, plus how many bytes were
    /// left sitting in the reader's internal buffer after it — the
    /// lane-batch grouping signal (0 means "nothing known buffered").
    Line { rest: usize },
    /// Clean EOF on a line boundary.
    Eof,
    /// A line longer than [`MAX_LINE_BYTES`], drained through its
    /// newline; only its first `MAX_LINE_BYTES` bytes were buffered.
    TooLong,
    /// EOF mid-line: the partial bytes are in the buffer, unprocessed.
    PartialEof,
    /// Read error.
    Failed,
}

/// Read one line (through its `\n`) into `buf` via `fill_buf` /
/// `consume`, so the bytes already buffered behind it stay observable.
/// At most [`MAX_LINE_BYTES`] are buffered; the rest of a longer line
/// is consumed and dropped.
fn read_raw_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> LineRead {
    buf.clear();
    let mut too_long = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Failed,
        };
        if chunk.is_empty() {
            return if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::PartialEof
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |pos| pos + 1);
        let room = MAX_LINE_BYTES - buf.len();
        too_long |= take > room;
        buf.extend_from_slice(&chunk[..take.min(room)]);
        let rest = chunk.len() - take;
        reader.consume(take);
        if newline.is_some() {
            return if too_long {
                LineRead::TooLong
            } else {
                LineRead::Line { rest }
            };
        }
    }
}

/// Pull the next complete line out of the reader's internal buffer
/// without risking a blocking read: when `rest > 0` the buffer is
/// non-empty, so `fill_buf` returns what is already there without
/// touching the underlying stream. A line that is only partially
/// buffered is left in place (`rest` drops to 0 and the next blocking
/// read picks it up).
fn buffered_line<R: BufRead>(reader: &mut R, rest: &mut usize, buf: &mut Vec<u8>) -> bool {
    buf.clear();
    if *rest == 0 {
        return false;
    }
    let Ok(chunk) = reader.fill_buf() else {
        *rest = 0;
        return false;
    };
    match chunk.iter().position(|&b| b == b'\n') {
        Some(pos) => {
            buf.extend_from_slice(&chunk[..=pos]);
            *rest = chunk.len() - (pos + 1);
            reader.consume(pos + 1);
            true
        }
        None => {
            *rest = 0;
            false
        }
    }
}

/// Drive one worker over one request stream until EOF, a write
/// failure, or shutdown. Abnormal ends (EOF mid-line, read error,
/// broken pipe) bump the `disconnects` counter and close only this
/// stream — the shared state and every other connection stay healthy.
///
/// Each run request leads a lane group (see the module docs): while
/// more complete lines already sit in the read buffer, the ones that
/// match the leader join it, and the group's responses are written and
/// flushed together. The line that breaks a group (a different
/// request, a malformed line, a `stats`/`shutdown` command) is stashed
/// and served next, in order. A request/response client never has a
/// second line buffered, so each of its requests is a group of one.
fn stream_loop<R: BufRead, W: Write>(worker: &mut Worker, mut reader: R, mut writer: W) {
    let mut line: Vec<u8> = Vec::new();
    let mut stash: Vec<u8> = Vec::new();
    let mut have_stash = false;
    let mut rest = 0usize;
    let disconnect = |worker: &Worker| {
        worker.shared.disconnects.fetch_add(1, Ordering::Relaxed);
    };
    loop {
        if have_stash {
            std::mem::swap(&mut line, &mut stash);
            have_stash = false;
        } else {
            match read_raw_line(&mut reader, &mut line) {
                LineRead::Line { rest: r } => rest = r,
                LineRead::TooLong => {
                    worker.reject_long_line();
                    if writer.write_all(worker.line_out.as_bytes()).is_err()
                        || writer.flush().is_err()
                    {
                        disconnect(worker);
                        break;
                    }
                    continue;
                }
                LineRead::Eof => break,
                LineRead::PartialEof => {
                    // The client vanished mid-line: a partial request
                    // is never processed, only counted.
                    let blank = std::str::from_utf8(&line).is_ok_and(|t| t.trim().is_empty());
                    if !blank {
                        disconnect(worker);
                    }
                    break;
                }
                LineRead::Failed => {
                    disconnect(worker);
                    break;
                }
            }
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            // `read_line` would have failed with InvalidData here.
            disconnect(worker);
            break;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        // A line that is not UTF-8 behind the leader ends the stream
        // once the group before it is answered, as it would have
        // served one line at a time.
        let mut poisoned = false;
        if worker.admit(0, trimmed) {
            let mut n = 1;
            while n < MAX_LANES && buffered_line(&mut reader, &mut rest, &mut stash) {
                let Ok(mtext) = std::str::from_utf8(&stash) else {
                    poisoned = true;
                    break;
                };
                let mtrim = mtext.trim();
                if mtrim.is_empty() {
                    continue;
                }
                if !worker.admit(n, mtrim) {
                    have_stash = true;
                    break;
                }
                n += 1;
            }
            worker.execute_group(n);
        }
        if writer.write_all(worker.line_out.as_bytes()).is_err() || writer.flush().is_err() {
            // Downstream closed the pipe; count it and stop quietly
            // like `usim run | head` does.
            disconnect(worker);
            break;
        }
        if poisoned {
            disconnect(worker);
            break;
        }
        if worker.shared.is_shutdown() {
            break;
        }
    }
}

/// Run the serving loop for `reader`/`writer` until EOF or a shutdown
/// request: the stdin mode of `usim serve`, over a [`Server`].
pub fn serve_stream<R: BufRead, W: Write>(server: &mut Server, reader: R, writer: W) {
    stream_loop(&mut server.worker, reader, writer);
}

/// The connections socket-mode threads are serving, by slot, so that
/// shutdown can close the ones whose threads are parked in a read.
struct Registry {
    open: Vec<Option<UnixStream>>,
    /// Set by the one [`close_all`] call that does the closing.
    closed: bool,
}

/// Socket mode: [`ServeShared::workers`] threads, each owning one
/// [`Worker`] for the server's life and serving one connection at a
/// time. Returns once a shutdown request has been served (or accepting
/// failed) and every thread has joined; the socket file is removed on
/// either path.
pub fn serve_socket(shared: &Arc<ServeShared>, path: &str) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("cannot bind {path}: {e}"))?;
    let registry = Mutex::new(Registry {
        open: (0..shared.workers).map(|_| None).collect(),
        closed: false,
    });
    let failure = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..shared.workers)
            .map(|slot| {
                let (listener, registry) = (&listener, &registry);
                scope.spawn(move || {
                    let served = accept_loop(shared, listener, registry, slot);
                    if served.is_err() {
                        shared.request_shutdown();
                    }
                    close_all(registry, path);
                    served
                })
            })
            .collect();
        let mut failure = None;
        for t in threads {
            if let Ok(Err(e)) = t.join() {
                failure.get_or_insert(e);
            }
        }
        failure
    });
    let _ = std::fs::remove_file(path);
    failure.map_or(Ok(()), Err)
}

/// One socket-mode serving thread: accept a connection, serve it to
/// its end, and repeat until shutdown. A panic while serving counts as
/// an error and gets the thread a fresh [`Worker`]. Returns an accept
/// failure.
fn accept_loop(
    shared: &Arc<ServeShared>,
    listener: &UnixListener,
    registry: &Mutex<Registry>,
    slot: usize,
) -> Result<(), String> {
    let new_worker = || Worker {
        reads_paths: false,
        ..Worker::new(Arc::clone(shared), slot)
    };
    let mut worker = new_worker();
    while !shared.is_shutdown() {
        let (conn, _) = listener
            .accept()
            .map_err(|e| format!("accept failed: {e}"))?;
        let Ok(registered) = conn.try_clone() else {
            shared.disconnects.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        // Register before re-checking the flag: a shutdown either
        // closes this connection along with the rest, or has set the
        // flag before it started closing and is seen here. The wake-up
        // connections of `close_all` end here.
        lock(registry).open[slot] = Some(registered);
        if !shared.is_shutdown() {
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                stream_loop(&mut worker, std::io::BufReader::new(&conn), &conn)
            }));
            if served.is_err() {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                worker = new_worker();
            }
        }
        lock(registry).open[slot] = None;
    }
    Ok(())
}

/// Close every registered connection, then connect to `path` once per
/// thread so that each thread parked in `accept` wakes and sees the
/// shutdown. Only the first call does anything.
fn close_all(registry: &Mutex<Registry>, path: &str) {
    let mut r = lock(registry);
    if std::mem::replace(&mut r.closed, true) {
        return;
    }
    for c in r.open.iter().flatten() {
        let _ = c.shutdown(Shutdown::Both);
    }
    let threads = r.open.len();
    drop(r);
    for _ in 0..threads {
        let _ = UnixStream::connect(path);
    }
}

/// Entry point for `usim serve`: dispatch on stdin/stdout or a Unix
/// socket, and print the final counter summary to stderr exactly once
/// on exit.
pub fn serve(o: &ServeOptions) -> Result<(), String> {
    let shared = Arc::new(ServeShared::new(o));
    match &o.socket {
        None => {
            // stdin is one stream: a single worker serves it.
            let mut worker = Worker::new(Arc::clone(&shared), 0);
            stream_loop(
                &mut worker,
                std::io::stdin().lock(),
                std::io::stdout().lock(),
            );
        }
        Some(path) => {
            eprintln!(
                "usim serve: listening on {path} ({} worker{})",
                shared.workers,
                if shared.workers == 1 { "" } else { "s" },
            );
            serve_socket(&shared, path)?;
        }
    }
    eprintln!("{}", final_summary(&shared));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every ASCII character and one non-BMP character survive
    /// `escape_into` followed by the request parser's string decoder,
    /// and no control character reaches the output unescaped.
    #[test]
    fn escape_round_trips_through_the_string_parser() {
        let all: String = (0..=0x7Fu8).map(char::from).chain(['\u{1F600}']).collect();
        let (mut json, mut back) = (String::new(), String::new());
        let singles = all.chars().map(String::from);
        for s in singles.chain([all.clone()]) {
            json.clear();
            json.push('"');
            escape_into(&mut json, &s);
            json.push('"');
            assert!(json.chars().all(|c| c >= ' '), "{s:?} escaped as {json:?}");
            P::new(&json)
                .string_into(&mut back)
                .expect("escaped string parses");
            assert_eq!(back, s, "{s:?} escaped as {json:?}");
        }
    }
}

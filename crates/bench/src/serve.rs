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
//! Request lines are answered one at a time, in order. A run request
//! is one [`ultrascalar::Processor::run_reusing`] call on an engine
//! checked out of the pool for that run, into the worker's one reused
//! result buffer; its response is written and flushed before the next
//! line is read. A client that pipelines its lines therefore gets the
//! same bytes as one that waits for each answer, and every run is one
//! checkout, so `engine_pool_hits + engine_pool_misses == runs` in
//! `{"cmd":"stats"}`.
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
//! The JSON codec is hand-rolled: this workspace takes no serde
//! dependency. Identical requests produce byte-identical responses
//! (per-request wall time is reported only when the request opts in
//! with `"timing": true`); cache effectiveness is observable through
//! the counters of a `{"cmd":"stats"}` request and the final summary.

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::cli::{self, RunOptions, ServeOptions};
use ultrascalar::{PoolStats, ProcConfig, Processor, RunResult, ShardedEnginePool};
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
    /// The inline program text; for a run with a `program_path`, the
    /// file's text once it is read.
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

    /// Engine-pool counters. Every run checks out one engine, so
    /// `hits + misses == runs`.
    pub fn engine_stats(&self) -> PoolStats {
        self.engines.stats()
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
/// request, result and response buffers. Each connection (or the stdin
/// stream) is driven by exactly one worker.
#[derive(Debug)]
pub struct Worker {
    shared: Arc<ServeShared>,
    slot: usize,
    key: String,
    sval: String,
    /// The current line's response, newline-terminated.
    line_out: String,
    /// Whether a run may name a `program_path` (stdin only).
    reads_paths: bool,
    /// When the current line arrived.
    started: Instant,
    /// The current line, parsed.
    req: Request,
    /// The current run's result.
    result: RunResult,
}

impl Worker {
    /// Create a worker bound to `slot` (an index below the
    /// [`ServeOptions::workers`] the server was built with, used for the
    /// per-worker request tally).
    pub fn new(shared: Arc<ServeShared>, slot: usize) -> Self {
        assert!(slot < shared.workers, "worker slot out of range");
        Worker {
            shared,
            slot,
            key: String::new(),
            sval: String::new(),
            line_out: String::new(),
            reads_paths: true,
            started: Instant::now(),
            req: Request::default(),
            result: RunResult::default(),
        }
    }

    /// The shared serving state.
    pub fn shared(&self) -> &Arc<ServeShared> {
        &self.shared
    }

    /// Handle one request line and return the response line (no
    /// trailing newline). Never fails: malformed requests produce an
    /// `{"ok":false,"error":…}` response.
    pub fn handle_line(&mut self, line: &str) -> &str {
        self.serve_line(line);
        self.line_out.strip_suffix('\n').unwrap_or(&self.line_out)
    }

    /// Answer a request line longer than [`MAX_LINE_BYTES`]: one error
    /// line (newline included), counted as a failed request.
    fn reject_long_line(&mut self) {
        self.started = Instant::now();
        self.tally(true);
        self.line_out.clear();
        let _ = writeln!(
            self.line_out,
            "{{\"ok\":false,\"error\":\"request line longer than {MAX_LINE_BYTES} bytes\"}}"
        );
    }

    /// The one place request lines are counted: one more line answered
    /// by this worker, with an error response if `error`, and the wall
    /// time since it arrived.
    fn tally(&self, error: bool) {
        let s = &self.shared;
        s.requests.fetch_add(1, Ordering::Relaxed);
        s.worker_requests[self.slot].fetch_add(1, Ordering::Relaxed);
        if error {
            s.errors.fetch_add(1, Ordering::Relaxed);
        }
        s.wall_nanos
            .fetch_add(self.started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Parse and answer one request line into `line_out`, newline
    /// included: run it, or answer `stats`, `shutdown`, a malformed
    /// line or a run that fails to resolve.
    fn serve_line(&mut self, line: &str) {
        self.started = Instant::now();
        self.line_out.clear();
        let parsed = parse_request(line, &mut self.req, &mut self.key, &mut self.sval);
        let answer = match parsed {
            Ok(()) if self.req.cmd == Cmd::Run => match self.resolve_run() {
                Ok((cfg, program)) => return self.run(&cfg, &program),
                Err(e) => Err(e),
            },
            other => other,
        };
        self.tally(answer.is_err());
        let Worker {
            shared,
            req,
            line_out,
            ..
        } = self;
        match answer {
            Err(e) => write_error_line(line_out, req, &e),
            Ok(()) if req.cmd == Cmd::Stats => write_stats(line_out, shared),
            Ok(()) => {
                shared.request_shutdown();
                line_out.push_str("{\"ok\":true,\"shutdown\":true}");
            }
        }
        line_out.push('\n');
    }

    /// Resolve the parsed run: read its `program_path` into its
    /// `program` buffer when the program is not inline, build its
    /// configuration, and look its program up in the cache.
    fn resolve_run(&mut self) -> Result<(ProcConfig, Arc<Program>), String> {
        let req = &mut self.req;
        match (req.has_program, req.has_program_path) {
            (true, true) => return Err("give either `program` or `program_path`, not both".into()),
            (false, false) => return Err("request needs a `program` or `program_path`".into()),
            (true, false) => {}
            (false, true) if !self.reads_paths => return Err(NO_PATHS_ON_SOCKETS.into()),
            (false, true) => {
                let bytes = std::fs::read(&req.program_path)
                    .map_err(|e| format!("cannot read {}: {e}", req.program_path))?;
                let text = std::str::from_utf8(&bytes)
                    .map_err(|e| format!("{} is not UTF-8: {e}", req.program_path))?;
                req.program.push_str(text);
            }
        }
        let cfg = cli::build_config(&req.opts)?;
        let program = self
            .shared
            .programs
            .get_or_assemble(&req.program, req.opts.regs)
            .map_err(|e| e.to_string())?;
        Ok((cfg, program))
    }

    /// Run the resolved request on an engine checked out of the pool,
    /// and serialise its response into `line_out`.
    fn run(&mut self, cfg: &ProcConfig, program: &Program) {
        let Worker {
            shared,
            req,
            result,
            line_out,
            ..
        } = self;
        let mut pooled = shared.engines.checkout(cfg);
        let run_started = Instant::now();
        pooled.engine.run_reusing(program, result);
        let wall = run_started.elapsed();
        shared.engines.checkin(pooled);
        count_run(shared, result);
        let wall_us = req.timing.then_some(wall.as_micros() as u64);
        write_run(line_out, req, cfg, result, wall_us);
        line_out.push('\n');
        self.tally(false);
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
         engine pool {} hits / {} misses / {} evictions, \
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
         \"disconnects\":{},\"program_cache_hits\":{},\"program_cache_misses\":{},\
         \"program_cache_evictions\":{},\"programs_cached\":{},\
         \"engine_pool_hits\":{},\"engine_pool_misses\":{},\
         \"engine_pool_evictions\":{},\"engines_warm\":{},\
         \"cycles_simulated\":{},\"instructions_committed\":{},\"packed_fallbacks\":{},\
         \"wall_s\":{:.6},\"workers\":{}",
        c.requests,
        c.runs,
        c.errors,
        c.disconnects,
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
fn escape_into(out: &mut String, s: &str) {
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
    /// A complete newline-terminated line.
    Line,
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
/// `consume`. At most [`MAX_LINE_BYTES`] are buffered; the rest of a
/// longer line is consumed and dropped.
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
        reader.consume(take);
        if newline.is_some() {
            return if too_long {
                LineRead::TooLong
            } else {
                LineRead::Line
            };
        }
    }
}

/// Drive one worker over one request stream until EOF, a write
/// failure, or shutdown. Each line's response is written and flushed
/// before the next line is read. Abnormal ends (EOF mid-line, read
/// error, broken pipe) bump the `disconnects` counter and close only
/// this stream — the shared state and every other connection stay
/// healthy.
fn stream_loop<R: BufRead, W: Write>(worker: &mut Worker, mut reader: R, mut writer: W) {
    let mut line: Vec<u8> = Vec::new();
    let disconnect = |worker: &Worker| {
        worker.shared.disconnects.fetch_add(1, Ordering::Relaxed);
    };
    loop {
        match read_raw_line(&mut reader, &mut line) {
            LineRead::Line => {
                let Ok(text) = std::str::from_utf8(&line) else {
                    // `read_line` would have failed with InvalidData here.
                    disconnect(worker);
                    break;
                };
                let trimmed = text.trim();
                if trimmed.is_empty() {
                    continue;
                }
                worker.serve_line(trimmed);
            }
            LineRead::TooLong => worker.reject_long_line(),
            LineRead::Eof => break,
            LineRead::PartialEof => {
                // The client vanished mid-line: a partial request is
                // never processed, only counted.
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
        if writer.write_all(worker.line_out.as_bytes()).is_err() || writer.flush().is_err() {
            // Downstream closed the pipe; count it and stop quietly
            // like `usim run | head` does.
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

/// Socket mode: [`ServeOptions::workers`] threads, each owning one
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

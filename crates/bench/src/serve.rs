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
//! anyway. A `program_path` file is read through its first
//! [`MAX_LINE_BYTES`], the bound an inline program has; a longer one
//! gets an error response.
//!
//! The JSON codec is hand-rolled (this workspace takes no serde
//! dependency) and lives in the `codec` submodule. Identical requests
//! produce byte-identical responses (per-request wall time is reported
//! only when the request opts in with `"timing": true`); cache
//! effectiveness is observable through the counters of a
//! `{"cmd":"stats"}` request and the final summary.

use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::cli::{self, ServeOptions};
use ultrascalar::{ProcConfig, Processor, RunResult, ShardedEnginePool};
use ultrascalar_isa::{LruStats, Program, ShardedProgramCache};

mod codec;

use codec::{parse_request, write_error_line, write_run, write_stats, Cmd, Request};

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
    /// Panics if a capacity or the worker count is zero, and may abort
    /// on one too large to allocate (the CLI parser rejects both
    /// first, against [`cli::MAX_PROGRAM_CACHE`], [`cli::MAX_ENGINES`]
    /// and [`cli::MAX_WORKERS`]).
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
    pub fn program_stats(&self) -> LruStats {
        self.programs.stats()
    }

    /// Engine-pool counters. Every run checks out one engine, so
    /// `hits + misses == runs`.
    pub fn engine_stats(&self) -> LruStats {
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
                let mut bytes = Vec::new();
                std::fs::File::open(&req.program_path)
                    .and_then(|f| f.take(MAX_LINE_BYTES as u64 + 1).read_to_end(&mut bytes))
                    .map_err(|e| format!("cannot read {}: {e}", req.program_path))?;
                if bytes.len() > MAX_LINE_BYTES {
                    return Err(format!(
                        "{} is longer than {MAX_LINE_BYTES} bytes",
                        req.program_path
                    ));
                }
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

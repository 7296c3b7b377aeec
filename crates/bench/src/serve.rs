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
//! # Scaling the request plane
//!
//! Socket mode accepts many simultaneous clients: the accept loop
//! spawns one serving thread per connection, bounded by `--workers N`
//! (default: the host's available parallelism). The scaling problem is
//! the one the source tradition understands well — shared-structure
//! hot spots, not compute, bound throughput — so every shared
//! structure is sharded and every lock is held for a scan, never for a
//! simulation:
//!
//! * assembled programs live in a [`ShardedProgramCache`]: N
//!   independent LRU shards selected by the FNV-1a content hash, each
//!   behind its own mutex. A hit clones an `Arc` out of the shard and
//!   releases the lock before the engine runs.
//! * warm engines live in a [`ShardedEnginePool`] keyed by a
//!   `ProcConfig` hash with the same discipline, accessed by
//!   **checkout/checkin**: a checkout removes the engine from its
//!   shard, the worker simulates with no lock held, and checkin
//!   returns it (two workers on the same configuration simply hold
//!   two engines).
//! * **config-affinity batching**: a worker keeps its checked-out
//!   engine across consecutive same-`ProcConfig` requests, so a
//!   config-sorted request stream (the natural shape of a
//!   design-space sweep) touches the pool only when the configuration
//!   changes. Batched runs are counted separately
//!   (`batched_runs` in `{"cmd":"stats"}`).
//! * **lane batching**: when a client pipelines — several complete
//!   request lines already sit in the read buffer — consecutive run
//!   requests for the same configuration and program are grouped (up
//!   to [`ultrascalar::MAX_LANES`]) and submitted as one
//!   [`ultrascalar::LaneBatcher`] batch: one engine pass whose
//!   schedule is shared across every converged lane, responses
//!   byte-identical to serving the lines one at a time. A
//!   request/response client never has a second line buffered, so it
//!   is served exactly as before; grouping only engages when the
//!   stream is ahead of the server. Lock-step-delivered results and
//!   divergence peels are counted separately (`lane_batched_runs` /
//!   `lane_divergence_peels` in `{"cmd":"stats"}`).
//!
//! Each worker keeps the zero-allocation warm path of the serial
//! server: requests parse into worker-owned reused [`String`] buffers
//! and responses serialise into a worker-owned reused line buffer, so
//! the steady-state request loop — parse, cache hit, affinity/pool
//! hit, simulate, respond — performs **zero heap allocations per
//! worker**, under concurrency included (asserted by the
//! counting-allocator probe in `tests/serve_alloc_probe.rs`).
//!
//! A client disconnect (EOF mid-line, broken pipe on write) closes
//! only that connection and bumps the `disconnects` counter; it can
//! never take the server down or poison a shard lock. A
//! `{"cmd":"shutdown"}` from any client stops the accept loop, drains
//! in-flight requests, unblocks idle readers, joins every worker, and
//! the aggregate stderr summary prints exactly once.
//!
//! A request line is at most [`MAX_LINE_BYTES`] long. The rest of a
//! longer line is drained up to its newline without being buffered,
//! and the line gets one error response; the connection keeps
//! serving.
//!
//! The JSON codec is hand-rolled like [`crate::sweep::JsonReport`]:
//! this workspace takes no serde dependency. Identical requests
//! produce byte-identical responses (per-request wall time is
//! reported only when the request opts in with `"timing": true`);
//! cache effectiveness and shard balance are observable through the
//! counters of a `{"cmd":"stats"}` request and the final summary.

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::cli::{self, RunOptions, ServeOptions};
use ultrascalar::{
    LaneBatcher, PoolStats, PooledEngine, ProcConfig, Processor, RunResult, ShardedEnginePool,
    MAX_LANES,
};
use ultrascalar_isa::{CacheStats, Program, ShardedProgramCache};
use ultrascalar_memsys::NetworkKind;

/// The longest request line `usim serve` buffers, newline included:
/// far above any valid request, small enough that a client streaming
/// bytes with no newline cannot grow server memory without bound.
pub const MAX_LINE_BYTES: usize = 4 << 20;

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
#[derive(Debug, Clone, Default)]
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
    /// Runs served on the worker's already-held engine (config-affinity
    /// batching; these never touched a pool shard).
    pub batched_runs: u64,
    /// Runs whose result was delivered by a lane-batch lock-step pass
    /// (leader included) rather than its own engine pass.
    pub lane_batched_runs: u64,
    /// Lanes peeled back to a serial engine run after diverging from
    /// their batch leader.
    pub lane_divergence_peels: u64,
    /// Clean epochs walked across all lane-batch passes (a
    /// mispredict-free batch contributes exactly one).
    pub lane_epochs: u64,
    /// Lanes peeled during wrong-path segment replay at an epoch
    /// boundary (subset of `lane_divergence_peels`' sibling counter in
    /// the batcher; reported separately because they mark predictor
    /// divergence rather than dataflow divergence).
    pub lane_replay_peels: u64,
    /// Groups demoted to serial because members disagreed on register
    /// or memory shape.
    pub lane_demote_incompatible: u64,
    /// Groups demoted to serial because the leader run did not halt.
    pub lane_demote_leader: u64,
    /// Groups demoted to serial because the leader's schedule could not
    /// be walked in lock-step (structural mismatch).
    pub lane_demote_structure: u64,
    /// Groups demoted to serial because lane 0's lock-step result
    /// failed self-verification against the leader.
    pub lane_demote_verify: u64,
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

/// The serving state shared by every worker thread: sharded program
/// cache, sharded engine pool, and atomic aggregate counters.
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
    lane_batched: AtomicU64,
    lane_peels: AtomicU64,
    lane_epochs: AtomicU64,
    lane_replay_peels: AtomicU64,
    lane_demote_incompatible: AtomicU64,
    lane_demote_leader: AtomicU64,
    lane_demote_structure: AtomicU64,
    lane_demote_verify: AtomicU64,
    engines_held: AtomicU64,
    cycles_simulated: AtomicU64,
    instructions_committed: AtomicU64,
    packed_fallbacks: AtomicU64,
    wall_nanos: AtomicU64,
    worker_requests: Vec<AtomicU64>,
    shutdown: AtomicBool,
}

impl ServeShared {
    /// Build the shared serving state from parsed options. A `shards`
    /// value of 0 resolves to one shard per worker.
    ///
    /// # Panics
    /// Panics if a capacity or the worker count is zero (the CLI
    /// parser rejects these first).
    pub fn new(o: &ServeOptions) -> Self {
        assert!(o.workers > 0, "serve needs at least one worker");
        let shards = if o.shards == 0 { o.workers } else { o.shards };
        ServeShared {
            programs: ShardedProgramCache::new(o.program_cache, shards),
            engines: ShardedEnginePool::new(o.engines, shards),
            workers: o.workers,
            requests: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            lane_batched: AtomicU64::new(0),
            lane_peels: AtomicU64::new(0),
            lane_epochs: AtomicU64::new(0),
            lane_replay_peels: AtomicU64::new(0),
            lane_demote_incompatible: AtomicU64::new(0),
            lane_demote_leader: AtomicU64::new(0),
            lane_demote_structure: AtomicU64::new(0),
            lane_demote_verify: AtomicU64::new(0),
            engines_held: AtomicU64::new(0),
            cycles_simulated: AtomicU64::new(0),
            instructions_committed: AtomicU64::new(0),
            packed_fallbacks: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            worker_requests: (0..o.workers).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Worker-thread bound (`--workers`).
    pub fn workers(&self) -> usize {
        self.workers
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
            lane_batched_runs: self.lane_batched.load(Ordering::Relaxed),
            lane_divergence_peels: self.lane_peels.load(Ordering::Relaxed),
            lane_epochs: self.lane_epochs.load(Ordering::Relaxed),
            lane_replay_peels: self.lane_replay_peels.load(Ordering::Relaxed),
            lane_demote_incompatible: self.lane_demote_incompatible.load(Ordering::Relaxed),
            lane_demote_leader: self.lane_demote_leader.load(Ordering::Relaxed),
            lane_demote_structure: self.lane_demote_structure.load(Ordering::Relaxed),
            lane_demote_verify: self.lane_demote_verify.load(Ordering::Relaxed),
            cycles_simulated: self.cycles_simulated.load(Ordering::Relaxed),
            instructions_committed: self.instructions_committed.load(Ordering::Relaxed),
            packed_fallbacks: self.packed_fallbacks.load(Ordering::Relaxed),
            wall: Duration::from_nanos(self.wall_nanos.load(Ordering::Relaxed)),
        }
    }

    /// Program-cache counters summed across shards.
    pub fn program_stats(&self) -> CacheStats {
        self.programs.stats()
    }

    /// Engine-pool counters summed across shards, folding in the
    /// serving layer's view of warmth: a run served by the worker's
    /// held engine (config-affinity batching) counts as a hit, and
    /// held engines count as warm — `hits + misses == runs` and
    /// `warm` is every live engine, pooled or held.
    pub fn engine_stats(&self) -> PoolStats {
        let mut s = self.engines.stats();
        s.hits += self.batched.load(Ordering::Relaxed);
        s.warm += self.engines_held.load(Ordering::Relaxed) as usize;
        s
    }

    /// Requests handled per worker slot (shard-balance observability).
    pub fn worker_request_counts(&self) -> Vec<u64> {
        self.worker_requests
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }
}

/// One serving worker: a handle on the shared state plus the reused
/// request/response buffers, the config-affinity engine slot, and the
/// lane-batch group scratch. Each connection (or the stdin stream) is
/// driven by exactly one worker.
#[derive(Debug)]
pub struct Worker {
    shared: Arc<ServeShared>,
    slot: usize,
    req: Request,
    key: String,
    sval: String,
    file_src: String,
    line_out: String,
    held: Option<PooledEngine>,
    batcher: LaneBatcher,
    /// Parsed requests of the group being collected (slots reused).
    group: Vec<Request>,
    /// The group's resolved configuration (leader's, shared by all).
    group_cfg: Option<ProcConfig>,
    /// One cache handle per group member (cleared between groups).
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
            req: Request::default(),
            key: String::new(),
            sval: String::new(),
            file_src: String::new(),
            line_out: String::new(),
            held: None,
            batcher: LaneBatcher::new(),
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

    /// Return the held engine (if any) to the pool. Call at the end of
    /// a connection so the warm engine is available to other workers.
    pub fn release(&mut self) {
        if let Some(engine) = self.held.take() {
            self.shared.engines_held.fetch_sub(1, Ordering::Relaxed);
            self.shared.engines.checkin(engine);
        }
    }

    /// Handle one request line and return the response line (no
    /// trailing newline). Never fails: malformed requests produce an
    /// `{"ok":false,"error":…}` response.
    pub fn handle_line(&mut self, line: &str) -> &str {
        let started = Instant::now();
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.worker_requests[self.slot].fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.handle_inner(line) {
            self.shared.errors.fetch_add(1, Ordering::Relaxed);
            write_error_line(&mut self.line_out, &self.req, &e);
        }
        self.shared
            .wall_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        &self.line_out
    }

    /// Answer a request line longer than [`MAX_LINE_BYTES`]: one error
    /// line (newline included), counted as a failed request.
    fn reject_long_line(&mut self) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.worker_requests[self.slot].fetch_add(1, Ordering::Relaxed);
        self.shared.errors.fetch_add(1, Ordering::Relaxed);
        self.line_out.clear();
        let _ = writeln!(
            self.line_out,
            "{{\"ok\":false,\"error\":\"request line longer than {MAX_LINE_BYTES} bytes\"}}"
        );
    }

    fn handle_inner(&mut self, line: &str) -> Result<(), String> {
        let Worker {
            shared,
            req,
            key,
            sval,
            file_src,
            line_out,
            held,
            ..
        } = self;
        parse_request(line, req, key, sval)?;
        match req.cmd {
            Cmd::Stats => {
                line_out.clear();
                write_stats(line_out, shared);
                Ok(())
            }
            Cmd::Shutdown => {
                shared.request_shutdown();
                line_out.clear();
                line_out.push_str("{\"ok\":true,\"shutdown\":true}");
                Ok(())
            }
            Cmd::Run => {
                let src: &str = if req.has_program {
                    if req.has_program_path {
                        return Err("give either `program` or `program_path`, not both".into());
                    }
                    &req.program
                } else if req.has_program_path {
                    file_src.clear();
                    let bytes = std::fs::read(&req.program_path)
                        .map_err(|e| format!("cannot read {}: {e}", req.program_path))?;
                    let text = std::str::from_utf8(&bytes)
                        .map_err(|e| format!("{} is not UTF-8: {e}", req.program_path))?;
                    file_src.push_str(text);
                    file_src
                } else {
                    return Err("request needs a `program` or `program_path`".into());
                };
                let cfg = cli::build_config(&req.opts)?;
                let program = shared
                    .programs
                    .get_or_assemble(src, req.opts.regs)
                    .map_err(|e| e.to_string())?;
                let pooled = affinity_checkout(shared, held, &cfg);
                let run_started = Instant::now();
                pooled.engine.run_reusing(&program, &mut pooled.result);
                let run_wall = run_started.elapsed();
                count_run(shared, &pooled.result);
                line_out.clear();
                let wall_us = req.timing.then_some(run_wall.as_micros() as u64);
                write_run(line_out, req, &cfg, &pooled.result, wall_us);
                Ok(())
            }
        }
    }

    /// Parse `line` into group slot 0 and decide whether it can lead a
    /// lane-batch group: a well-formed run request carrying an inline
    /// program. Anything else goes through the serial path untouched.
    fn parse_group_leader(&mut self, line: &str) -> bool {
        let Worker {
            group, key, sval, ..
        } = self;
        if group.is_empty() {
            group.push(Request::default());
        }
        let slot = &mut group[0];
        parse_request(line, slot, key, sval).is_ok()
            && slot.cmd == Cmd::Run
            && slot.has_program
            && !slot.has_program_path
    }

    /// Resolve the group leader's configuration and program. The two
    /// failure modes differ in what they already counted: an invalid
    /// configuration touched nothing (the caller can replay the line
    /// through `handle_line` and get the identical error for free),
    /// while a failed assembly has already been charged one
    /// program-cache miss, so the caller must emit the error response
    /// itself rather than replay the lookup.
    fn resolve_group_leader(&mut self) -> Result<(), GroupLeaderError> {
        let req = &self.group[0];
        let cfg = cli::build_config(&req.opts).map_err(|_| GroupLeaderError::Config)?;
        let program = self
            .shared
            .programs
            .get_or_assemble(&req.program, req.opts.regs)
            .map_err(|e| GroupLeaderError::Assemble(e.to_string()))?;
        self.group_cfg = Some(cfg);
        self.group_programs.clear();
        self.group_programs.push(program);
        Ok(())
    }

    /// Try to admit `line` into the group as lane `n`. Admission
    /// requires a run request with the same configuration, program
    /// text, and register count as the leader; anything else is a
    /// group breaker the caller reprocesses on its own. An admitted
    /// member's cache lookup is a guaranteed hit on the entry the
    /// leader just resolved, so the accounting matches serving the
    /// line by itself.
    fn try_join_group(&mut self, n: usize, line: &str) -> bool {
        let Worker {
            shared,
            group,
            key,
            sval,
            group_cfg,
            group_programs,
            ..
        } = self;
        while group.len() <= n {
            group.push(Request::default());
        }
        let (lead, tail) = group.split_at_mut(n);
        let leader = &lead[0];
        let slot = &mut tail[0];
        if parse_request(line, slot, key, sval).is_err()
            || slot.cmd != Cmd::Run
            || !slot.has_program
            || slot.has_program_path
            || slot.opts.regs != leader.opts.regs
            || slot.program != leader.program
        {
            return false;
        }
        let Ok(cfg) = cli::build_config(&slot.opts) else {
            return false;
        };
        if Some(&cfg) != group_cfg.as_ref() {
            return false;
        }
        match shared
            .programs
            .get_or_assemble(&slot.program, slot.opts.regs)
        {
            Ok(program) => {
                group_programs.push(program);
                true
            }
            Err(_) => false,
        }
    }

    /// Execute the collected group of `n` resolved same-config,
    /// same-program run requests — one lane batch for `n >= 2`, the
    /// plain serial run for a group of one — and serialise every
    /// response, in request order and newline-terminated, into
    /// `line_out`. Counter accounting is exactly what serving the
    /// lines one at a time would have produced; the lane counters
    /// additionally record how many results the lock-step pass
    /// delivered and how many lanes peeled.
    fn execute_group(&mut self, n: usize) {
        let started = Instant::now();
        let Worker {
            shared,
            slot,
            group,
            group_cfg,
            group_programs,
            group_results,
            batcher,
            line_out,
            held,
            ..
        } = self;
        let cfg = group_cfg.take().expect("group leader resolved");
        shared.requests.fetch_add(n as u64, Ordering::Relaxed);
        shared.worker_requests[*slot].fetch_add(n as u64, Ordering::Relaxed);
        let pooled = affinity_checkout(shared, held, &cfg);
        line_out.clear();
        if n == 1 {
            let run_started = Instant::now();
            pooled
                .engine
                .run_reusing(&group_programs[0], &mut pooled.result);
            let wall_us = group[0]
                .timing
                .then_some(run_started.elapsed().as_micros() as u64);
            count_run(shared, &pooled.result);
            write_run(line_out, &group[0], &cfg, &pooled.result, wall_us);
            line_out.push('\n');
        } else {
            // The members after the leader ride the held engine, just
            // as they would have one line at a time.
            shared.batched.fetch_add(n as u64 - 1, Ordering::Relaxed);
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
            let after = *batcher.stats();
            shared
                .lane_batched
                .fetch_add(after.lane_runs - before.lane_runs, Ordering::Relaxed);
            shared
                .lane_peels
                .fetch_add(after.peels - before.peels, Ordering::Relaxed);
            shared
                .lane_epochs
                .fetch_add(after.epochs - before.epochs, Ordering::Relaxed);
            shared
                .lane_replay_peels
                .fetch_add(after.replay_peels - before.replay_peels, Ordering::Relaxed);
            shared.lane_demote_incompatible.fetch_add(
                after.fallback_incompatible - before.fallback_incompatible,
                Ordering::Relaxed,
            );
            shared.lane_demote_leader.fetch_add(
                after.fallback_leader - before.fallback_leader,
                Ordering::Relaxed,
            );
            shared.lane_demote_structure.fetch_add(
                after.fallback_structure - before.fallback_structure,
                Ordering::Relaxed,
            );
            shared.lane_demote_verify.fetch_add(
                after.fallback_verify - before.fallback_verify,
                Ordering::Relaxed,
            );
            for (req, r) in group[..n].iter().zip(group_results.iter()) {
                count_run(shared, r);
                let wall_us = req.timing.then_some(share.as_micros() as u64);
                write_run(line_out, req, &cfg, r, wall_us);
                line_out.push('\n');
            }
        }
        shared
            .wall_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// The group leader failed to assemble after its cache lookup was
    /// already counted: emit the error response (newline-terminated,
    /// into `line_out`) with the same counter effects `handle_line`
    /// would have had.
    fn group_leader_error(&mut self, err: &str) {
        let started = Instant::now();
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.worker_requests[self.slot].fetch_add(1, Ordering::Relaxed);
        self.shared.errors.fetch_add(1, Ordering::Relaxed);
        write_error_line(&mut self.line_out, &self.group[0], err);
        self.line_out.push('\n');
        self.shared
            .wall_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Why a would-be group leader could not be resolved.
enum GroupLeaderError {
    /// `build_config` rejected the options (no shared state touched).
    Config,
    /// Assembly failed (the program-cache miss is already counted).
    Assemble(String),
}

/// Config-affinity engine selection, shared by the serial path and the
/// lane-batch group path: reuse the held engine when its configuration
/// matches (counted as a batched run), otherwise swap it through the
/// pool.
fn affinity_checkout<'a>(
    shared: &ServeShared,
    held: &'a mut Option<PooledEngine>,
    cfg: &ProcConfig,
) -> &'a mut PooledEngine {
    match held {
        Some(h) if h.engine.config() == cfg => {
            shared.batched.fetch_add(1, Ordering::Relaxed);
        }
        _ => {
            if let Some(prev) = held.take() {
                shared.engines_held.fetch_sub(1, Ordering::Relaxed);
                shared.engines.checkin(prev);
            }
            *held = Some(shared.engines.checkout(cfg));
            shared.engines_held.fetch_add(1, Ordering::Relaxed);
        }
    }
    held.as_mut().expect("engine held for this config")
}

/// Post-run counter roll-up, shared by the serial and group paths.
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

/// The `{"ok":false,…}` error response, shared by `handle_line` and
/// the group leader's resolution-failure path.
fn write_error_line(out: &mut String, req: &Request, err: &str) {
    out.clear();
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
/// shared state (one shard each). Drives stdin mode and serves as the
/// serial baseline the concurrent path is pinned byte-identical
/// against.
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
            shards: 1,
        };
        Server::from_shared(Arc::new(ServeShared::new(&o)))
    }

    /// Create the stdin-mode server over externally built shared state
    /// (slot 0).
    pub fn from_shared(shared: Arc<ServeShared>) -> Self {
        Server {
            worker: Worker::new(shared, 0),
        }
    }

    /// The shared serving state (counters, cache/pool stats).
    pub fn shared(&self) -> &Arc<ServeShared> {
        &self.worker.shared
    }

    /// Snapshot of the aggregate counters.
    pub fn counters(&self) -> ServeCounters {
        self.worker.shared.counters()
    }

    /// Program-cache counters (hits/misses/evictions/entries).
    pub fn program_stats(&self) -> CacheStats {
        self.worker.shared.program_stats()
    }

    /// Engine-pool counters; affinity-batched runs count as hits and
    /// the held engine counts as warm (see
    /// [`ServeShared::engine_stats`]).
    pub fn engine_stats(&self) -> PoolStats {
        self.worker.shared.engine_stats()
    }

    /// Has a shutdown request been handled?
    pub fn shutdown_requested(&self) -> bool {
        self.worker.shared.is_shutdown()
    }

    /// Handle one request line and return the response line (no
    /// trailing newline). Never fails: malformed requests produce an
    /// `{"ok":false,"error":…}` response.
    pub fn handle_line(&mut self, line: &str) -> &str {
        self.worker.handle_line(line)
    }

    /// Return the held engine (if any) to the pool.
    pub fn release(&mut self) {
        self.worker.release()
    }

    /// The one-line human-readable summary printed on shutdown/EOF.
    pub fn final_stats_line(&self) -> String {
        final_summary(&self.worker.shared)
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
        c.lane_batched_runs,
        c.lane_epochs,
        c.lane_divergence_peels,
        c.lane_replay_peels,
        c.lane_demote_incompatible,
        c.lane_demote_leader,
        c.lane_demote_structure,
        c.lane_demote_verify,
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
         \"wall_s\":{:.6},\"workers\":{},\"cache_shards\":{},\"pool_shards\":{}",
        c.requests,
        c.runs,
        c.errors,
        c.disconnects,
        c.batched_runs,
        c.lane_batched_runs,
        c.lane_divergence_peels,
        c.lane_epochs,
        c.lane_replay_peels,
        c.lane_demote_incompatible,
        c.lane_demote_leader,
        c.lane_demote_structure,
        c.lane_demote_verify,
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
        shared.programs.num_shards(),
        shared.engines.num_shards(),
    );
    out.push_str(",\"worker_requests\":[");
    for (i, w) in shared.worker_requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", w.load(Ordering::Relaxed));
    }
    out.push_str("],\"cache_shard_requests\":[");
    for (i, s) in shared.programs.shard_stats().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", s.hits + s.misses);
    }
    out.push_str("],\"pool_shard_requests\":[");
    for (i, s) in shared.engines.shard_stats().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", s.hits + s.misses);
    }
    out.push_str("]}}");
}

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
            "max_cycles" => o.max_cycles = as_int(p.number()?, "max_cycles")?,
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
/// When the client pipelines, consecutive already-buffered run
/// requests for one configuration and program are served as a single
/// lane batch (see the module docs); every response is byte-identical
/// to serving the lines one at a time, and a group's responses are
/// written and flushed together. A line that breaks a group (different
/// request, malformed, a `stats`/`shutdown` command) is stashed and
/// served next, in order. A request/response client never has a second
/// line buffered, so it is served exactly as before.
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

        // Lane-batch grouping: engages only when at least one more
        // complete line is already buffered behind the leader.
        if rest > 0 && worker.parse_group_leader(trimmed) {
            match worker.resolve_group_leader() {
                Ok(()) => {
                    let mut n = 1;
                    let mut poisoned = false;
                    while n < MAX_LANES {
                        if !buffered_line(&mut reader, &mut rest, &mut stash) {
                            break;
                        }
                        let Ok(mtext) = std::str::from_utf8(&stash) else {
                            // Serve the group, then fail the stream
                            // exactly as the serial loop would have on
                            // reaching this line.
                            poisoned = true;
                            break;
                        };
                        let mtrim = mtext.trim();
                        if mtrim.is_empty() {
                            continue;
                        }
                        if worker.try_join_group(n, mtrim) {
                            n += 1;
                        } else {
                            have_stash = true;
                            break;
                        }
                    }
                    worker.execute_group(n);
                    if writer.write_all(worker.line_out.as_bytes()).is_err()
                        || writer.flush().is_err()
                    {
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
                    continue;
                }
                Err(GroupLeaderError::Assemble(e)) => {
                    worker.group_leader_error(&e);
                    if writer.write_all(worker.line_out.as_bytes()).is_err()
                        || writer.flush().is_err()
                    {
                        disconnect(worker);
                        break;
                    }
                    continue;
                }
                // An invalid configuration touched no shared state:
                // the serial path below re-derives the same error.
                Err(GroupLeaderError::Config) => {}
            }
        }

        worker.handle_line(trimmed);
        worker.line_out.push('\n');
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
/// request (the stdin mode of `usim serve`, and the serial baseline
/// for tests).
pub fn serve_stream<R: BufRead, W: Write>(server: &mut Server, reader: R, writer: W) {
    stream_loop(&mut server.worker, reader, writer);
}

/// The concurrent socket accept loop: one serving thread per client
/// connection, bounded by [`ServeShared::workers`] slots. Returns once
/// a shutdown request has been served and every worker has drained and
/// joined.
pub fn serve_socket(shared: &Arc<ServeShared>, path: &str) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("cannot bind {path}: {e}"))?;
    let workers = shared.workers;
    // Free worker slots (a stack) plus the condvar the acceptor waits
    // on when every slot is busy — this is the `--workers N` bound.
    let free: Arc<(Mutex<Vec<usize>>, Condvar)> =
        Arc::new((Mutex::new((0..workers).rev().collect()), Condvar::new()));
    // One registered read-half per live connection so shutdown can
    // unblock workers parked in `read_line`.
    let conns: Arc<Mutex<Vec<Option<UnixStream>>>> =
        Arc::new(Mutex::new((0..workers).map(|_| None).collect()));
    let mut slot_handles: Vec<Option<std::thread::JoinHandle<()>>> =
        (0..workers).map(|_| None).collect();
    for conn in listener.incoming() {
        if shared.is_shutdown() {
            break;
        }
        let conn = conn.map_err(|e| format!("accept failed: {e}"))?;
        if shared.is_shutdown() {
            // The wake-up connection a shutting-down worker makes to
            // unblock this accept loop lands here; drop it.
            break;
        }
        // Wait for a free worker slot (connections beyond the bound
        // queue in the listen backlog).
        let slot = {
            let (slots, cv) = &*free;
            let mut avail = lock(slots);
            loop {
                if shared.is_shutdown() {
                    break None;
                }
                if let Some(s) = avail.pop() {
                    break Some(s);
                }
                avail = cv
                    .wait(avail)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some(slot) = slot else { break };
        // A freed slot means its previous thread is done; reap it.
        if let Some(h) = slot_handles[slot].take() {
            let _ = h.join();
        }
        let Ok(read_half) = conn.try_clone() else {
            shared.disconnects.fetch_add(1, Ordering::Relaxed);
            let (slots, cv) = &*free;
            lock(slots).push(slot);
            cv.notify_one();
            continue;
        };
        lock(&conns)[slot] = Some(read_half);
        let shared = Arc::clone(shared);
        let free = Arc::clone(&free);
        let conns = Arc::clone(&conns);
        let path = path.to_string();
        slot_handles[slot] = Some(std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut worker = Worker::new(Arc::clone(&shared), slot);
                match conn.try_clone() {
                    Ok(rd) => {
                        stream_loop(&mut worker, std::io::BufReader::new(rd), &conn);
                    }
                    Err(_) => {
                        shared.disconnects.fetch_add(1, Ordering::Relaxed);
                    }
                }
                worker.release();
            }));
            if result.is_err() {
                shared.errors.fetch_add(1, Ordering::Relaxed);
            }
            lock(&conns)[slot] = None;
            if shared.is_shutdown() {
                // Drain: unblock every worker parked in read_line and
                // wake the acceptor so it can stop and join.
                for c in lock(&conns).iter().flatten() {
                    let _ = c.shutdown(Shutdown::Both);
                }
                let _ = UnixStream::connect(&path);
            }
            let (slots, cv) = &*free;
            lock(slots).push(slot);
            cv.notify_all();
        }));
    }
    // Stop accepting; drain whoever is still connected and join every
    // worker before the (single) summary prints.
    for c in lock(&conns).iter_mut() {
        if let Some(c) = c.take() {
            let _ = c.shutdown(Shutdown::Both);
        }
    }
    for h in slot_handles.iter_mut().filter_map(Option::take) {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Entry point for `usim serve`: dispatch on stdin/stdout or a Unix
/// socket, and print the final counter summary to stderr exactly once
/// on exit.
pub fn serve(o: &ServeOptions) -> Result<(), String> {
    let shared = Arc::new(ServeShared::new(o));
    match &o.socket {
        None => {
            // stdin is one stream: a single worker serves it.
            let mut server = Server::from_shared(Arc::clone(&shared));
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_stream(&mut server, stdin.lock(), stdout.lock());
            server.release();
        }
        Some(path) => {
            eprintln!(
                "usim serve: listening on {path} ({} worker{}, {} cache shard{})",
                shared.workers,
                if shared.workers == 1 { "" } else { "s" },
                shared.programs.num_shards(),
                if shared.programs.num_shards() == 1 {
                    ""
                } else {
                    "s"
                },
            );
            serve_socket(&shared, path)?;
        }
    }
    eprintln!("{}", final_summary(&shared));
    Ok(())
}

//! Steady-state allocation probe for the `usim serve` request loop.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up request that sizes every retained buffer (parsed request
//! strings, the program cache entry, the pooled engine's scratch, the
//! response line), repeated identical requests must perform **zero**
//! allocations — parse, program-cache hit, engine-pool hit, the full
//! cycle-accurate simulation, and response serialisation all run on
//! reused memory. The probe also alternates two programs and two
//! configurations to show the steady state survives a working set
//! larger than one.
//!
//! Two probes: the serial request loop, and four workers hammering the
//! *shared* program cache and engine pool concurrently — the warm path
//! must stay allocation-free per worker under contention (the locks,
//! `Arc` program handles and pool checkout/checkin allocate nothing).
//!
//! Bounded-memory probes ride along: a cold perfect-prediction run of
//! a non-halting loop must allocate in proportion to the run it was
//! asked for (its cycle budget), not to some fixed look-ahead of the
//! program's execution; and a cold 1M-cycle serve run must allocate a
//! fixed amount, not one record per committed or squashed instruction.
//!
//! Counting is gated on a const-initialised thread-local so only armed
//! threads' allocations register (the libtest harness thread lazily
//! initialises channel state mid-run otherwise). The tests serialise
//! on a static mutex because the counter itself is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Bytes requested by armed threads (a reallocation counts its new
/// size).
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// Serialises the probes: both read the process-global counter.
static GATE: Mutex<()> = Mutex::new(());

thread_local! {
    /// Raised only on probe threads, only around the measured loop.
    static PROBING: Cell<bool> = const { Cell::new(false) };
}

fn probing() -> bool {
    PROBING.try_with(Cell::get).unwrap_or(false)
}

/// RAII arm/disarm of the probe flag: disarms on drop so a panicking
/// measured body cannot leave the thread-local armed.
struct ProbeGuard;

impl ProbeGuard {
    fn arm() -> Self {
        PROBING.with(|p| p.set(true));
        ProbeGuard
    }
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        PROBING.with(|p| p.set(false));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if probing() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if probing() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

use ultrascalar_bench::cli::ServeOptions;
use ultrascalar_bench::serve::{ServeShared, Server, Worker};

/// A loop-carrying kernel: branches, loads and stores keep the
/// predictor, memory system and window reset paths all on the
/// measured path.
const REQ_LOOP: &str = r#"{"program":"li r1, 0\nli r2, 8\nli r3, 0\nloop:\nsw r1, (r1)\nlw r4, (r1)\nadd r3, r3, r4\naddi r1, r1, 1\nblt r1, r2, loop\nhalt\n","options":{"arch":"usi","window":8,"predictor":"bimodal:64"}}"#;

/// Same program through a different topology: engine-pool working set
/// of two.
const REQ_HYBRID: &str = r#"{"program":"li r1, 0\nli r2, 8\nli r3, 0\nloop:\nsw r1, (r1)\nlw r4, (r1)\nadd r3, r3, r4\naddi r1, r1, 1\nblt r1, r2, loop\nhalt\n","options":{"arch":"hybrid","window":8,"cluster":4,"predictor":"bimodal:64","renaming":true}}"#;

/// A second source, so the program cache also serves from a working
/// set of two.
const REQ_MUL: &str = r#"{"program":"li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{"arch":"usi","window":8,"predictor":"bimodal:64"}}"#;

/// Forwarding-heavy fan: a hub register rewritten then read by a fan
/// of dependent adds. Nearly every operand resolve in this kernel
/// forwards from an in-window producer link, so the probe pins the
/// engine's station ring and rename table as allocation-free too —
/// they live in the pooled engine's retained scratch.
const REQ_FAN: &str = r#"{"program":"li r1, 3\naddi r1, r1, 1\nadd r2, r2, r1\nadd r3, r3, r1\nadd r4, r4, r1\naddi r1, r1, 2\nadd r5, r5, r1\nadd r6, r6, r1\nadd r7, r7, r1\nhalt\n","options":{"arch":"usi","window":8,"predictor":"bimodal:64"}}"#;

/// The loop kernel on the memory network `usim run --mem-exp 0.5
/// --butterfly` builds: banked memory behind a butterfly whose
/// per-cycle link raster is a `BitWords` bitset, so the memsys warm
/// path (stage clears, bank queues, responses) is probed too.
const REQ_MEMNET: &str = r#"{"program":"li r1, 0\nli r2, 8\nli r3, 0\nloop:\nsw r1, (r1)\nlw r4, (r1)\nadd r3, r3, r4\naddi r1, r1, 1\nblt r1, r2, loop\nhalt\n","options":{"arch":"usi","window":8,"predictor":"bimodal:64","mem_exp":0.5,"network":"butterfly"}}"#;

/// A 256-station hybrid (clusters of 64, memory renaming) on a loop
/// whose alternating branch the bimodal predictor keeps missing: the
/// window spans four bitset words, and every misprediction flush
/// squashes parked stations out of the engine's waiter lists, so the
/// probe pins the wake-up lists as allocation-free through flushes.
const REQ_WIDE: &str = r#"{"program":"li r1, 0\nli r2, 40\nli r3, 0\nli r7, 0\nloop:\nandi r4, r1, 1\nbeq r4, r7, even\naddi r3, r3, 3\neven:\nsw r1, (r1)\nlw r5, (r1)\nadd r3, r3, r5\naddi r1, r1, 1\nblt r1, r2, loop\nhalt\n","options":{"arch":"hybrid","window":256,"cluster":64,"predictor":"bimodal:64","renaming":true}}"#;

#[test]
fn serve_request_loop_allocates_nothing_in_steady_state() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut server = Server::new(8, 4);

    let steady = |server: &mut Server| {
        for req in [REQ_LOOP, REQ_HYBRID, REQ_MUL, REQ_FAN, REQ_MEMNET, REQ_WIDE] {
            let resp = server.handle_line(req);
            assert!(resp.starts_with("{\"ok\":true,"));
        }
    };

    // Warm-up: assembles every program, builds every engine, sizes
    // every reused buffer.
    steady(&mut server);
    steady(&mut server);
    let wide = server.handle_line(REQ_WIDE);
    assert!(wide.contains("\"mispredictions\":42,"), "{wide}");

    let runs_before = server.shared().counters().runs;
    let guard = ProbeGuard::arm();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..50 {
        steady(&mut server);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    drop(guard);
    assert_eq!(
        after - before,
        0,
        "serve request loop allocated in steady state"
    );
    assert_eq!(server.shared().counters().runs - runs_before, 300);
    // Every probed request was a cache/pool hit (the fan shares the
    // loop kernel's configuration, so it is a third program but not a
    // third engine; the memory-network request reuses the loop
    // program under a third configuration; the wide request is a
    // fourth program and configuration).
    assert_eq!(server.shared().program_stats().misses, 4);
    assert_eq!(server.shared().engine_stats().misses, 4);
}

#[test]
fn concurrent_workers_allocate_nothing_in_steady_state() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const WORKERS: usize = 4;
    const ROUNDS: usize = 50;
    let shared = Arc::new(ServeShared::new(&ServeOptions {
        socket: None,
        program_cache: 32,
        engines: 32,
        workers: WORKERS,
    }));
    // Each worker gets its own two programs and two configurations
    // (a worker-specific predictor size), so warm-up deterministically
    // builds exactly two engines per worker — no cross-thread
    // hand-off, no eviction — while every request still goes through
    // the *shared* cache and pool locks.
    let requests_for = |w: usize| -> Vec<String> {
        let k = 64usize << w;
        vec![
            format!(
                r#"{{"program":"li r9, {w}\nli r1, 0\nli r2, 8\nli r3, 0\nloop:\nsw r1, (r1)\nlw r4, (r1)\nadd r3, r3, r4\naddi r1, r1, 1\nblt r1, r2, loop\nhalt\n","options":{{"arch":"usi","window":8,"predictor":"bimodal:{k}"}}}}"#
            ),
            format!(
                r#"{{"program":"li r9, {w}\nli r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{{"arch":"hybrid","window":8,"cluster":4,"predictor":"bimodal:{k}","renaming":true}}}}"#
            ),
        ]
    };
    // Workers warm up, then everyone meets at `start` before arming
    // and at `done` after disarming; the counter is read outside that
    // window, when no thread is armed.
    let start = Arc::new(Barrier::new(WORKERS + 1));
    let done = Arc::new(Barrier::new(WORKERS + 1));
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let shared = Arc::clone(&shared);
            let start = Arc::clone(&start);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let reqs = requests_for(w);
                let mut worker = Worker::new(shared, w);
                for _ in 0..2 {
                    for req in &reqs {
                        let resp = worker.handle_line(req);
                        assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
                    }
                }
                start.wait();
                {
                    let _guard = ProbeGuard::arm();
                    for _ in 0..ROUNDS {
                        for req in &reqs {
                            let resp = worker.handle_line(req);
                            assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
                        }
                    }
                }
                done.wait();
            })
        })
        .collect();
    let before = ALLOCS.load(Ordering::SeqCst);
    start.wait();
    done.wait();
    let after = ALLOCS.load(Ordering::SeqCst);
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(
        after - before,
        0,
        "concurrent serve workers allocated in steady state"
    );
    let c = shared.counters();
    assert_eq!(c.runs, (WORKERS * 2 * (2 + ROUNDS)) as u64);
    assert_eq!(c.errors, 0);
    // Warm-up built exactly two programs and two engines per worker;
    // every probed request was a cache hit plus a pool hit.
    assert_eq!(shared.program_stats().misses, (WORKERS * 2) as u64);
    assert_eq!(shared.engine_stats().misses, (WORKERS * 2) as u64);
    assert_eq!(shared.engine_stats().evictions, 0);
    let tallies = shared.worker_request_counts();
    assert_eq!(tallies.len(), WORKERS);
    for (w, t) in tallies.iter().enumerate() {
        assert_eq!(*t, (2 * (2 + ROUNDS)) as u64, "worker {w} tally");
    }
}

#[test]
fn lane_batch_step_loop_allocates_nothing_in_steady_state() {
    use ultrascalar::{LaneBatcher, ProcConfig, RunResult, Ultrascalar};
    use ultrascalar_bench::kernels::div_chain_seeded;
    use ultrascalar_isa::{workload, Program};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Perfect prediction (the ultrascalar_i default) passes the
    // schedule-share gate, so every warm batch takes the full
    // lock-step path: leader engine pass, bit-sliced ALU evaluation,
    // divergence checks, result assembly.
    let prog = div_chain_seeded(8);
    let population = workload::lane_variants(&prog, 64, 0x5EED);
    let refs: Vec<&Program> = population.iter().collect();
    let mut engine = Ultrascalar::new(ProcConfig::ultrascalar_i(8));
    let mut batcher = LaneBatcher::new();
    let mut out = vec![RunResult::default(); 64];

    // Warm-up sizes the batcher's per-lane planes, the scalar engine's
    // scratch and every RunResult's register/memory buffers.
    batcher.run_batch(&mut engine, &refs, &mut out);
    batcher.run_batch(&mut engine, &refs, &mut out);

    let stats_before = *batcher.stats();
    let guard = ProbeGuard::arm();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..10 {
        batcher.run_batch(&mut engine, &refs, &mut out);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    drop(guard);
    let stats = *batcher.stats();
    assert_eq!(
        after - before,
        0,
        "warm lane-batch step loop allocated in steady state"
    );
    assert_eq!(
        stats.batches - stats_before.batches,
        10,
        "every probed batch shared the leader's schedule"
    );
    assert_eq!(stats.peels, stats_before.peels, "no divergence peels");
    assert_eq!(stats.fallbacks, stats_before.fallbacks);
}

#[test]
fn epoch_replay_loop_allocates_nothing_in_steady_state() {
    use ultrascalar::{LaneBatcher, PredictorKind, ProcConfig, RunResult, Ultrascalar};
    use ultrascalar_bench::kernels::{branch_gauntlet_seeded, spec_storm_seeded};
    use ultrascalar_isa::{workload, Program};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Under a bimodal predictor the leader mispredicts, so every warm
    // batch walks multiple epochs: flush-event merge cursors, event
    // scopes, the wrong-path register journal and store overlay all
    // exercise their reuse paths — and `spec_storm`'s probe also takes
    // the replay-peel path (a peeled lane re-runs on the retained
    // scalar engine, into its already-sized result slot).
    let cfg = ProcConfig::ultrascalar_i(16).with_predictor(PredictorKind::Bimodal(64));
    for (kname, prog) in [
        ("branch_gauntlet", branch_gauntlet_seeded(16)),
        ("spec_storm", spec_storm_seeded(16)),
    ] {
        let population = workload::lane_variants(&prog, 64, 0x5EED);
        let refs: Vec<&Program> = population.iter().collect();
        let mut engine = Ultrascalar::new(cfg.clone());
        let mut batcher = LaneBatcher::new();
        let mut out = vec![RunResult::default(); 64];

        // Warm-up sizes every retained buffer, the replay scratch
        // included.
        batcher.run_batch(&mut engine, &refs, &mut out);
        batcher.run_batch(&mut engine, &refs, &mut out);

        let stats_before = *batcher.stats();
        let guard = ProbeGuard::arm();
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..10 {
            batcher.run_batch(&mut engine, &refs, &mut out);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        drop(guard);
        let stats = batcher.stats().delta_since(&stats_before);
        assert_eq!(
            after - before,
            0,
            "{kname}: warm epoch-replay loop allocated in steady state"
        );
        assert_eq!(stats.batches, 10, "{kname}: every probed batch shared");
        assert_eq!(stats.fallbacks, 0, "{kname}: no serial demotion");
        assert!(
            stats.epochs > stats.batches,
            "{kname}: the probed batches must replay across epochs ({stats:?})"
        );
    }
}

#[test]
fn perfect_prediction_on_a_spin_loop_allocates_boundedly() {
    use ultrascalar::{ProcConfig, Processor, Ultrascalar};
    use ultrascalar_isa::{AluOp, Instr, Program, Reg};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // `loop: addi r1, r1, 1; j loop` never halts. The perfect
    // predictor's oracle must run alongside fetch, not ahead of it.
    let spin = Program::new(
        vec![
            Instr::AluImm {
                op: AluOp::Add,
                rd: Reg(1),
                rs1: Reg(1),
                imm: 1,
            },
            Instr::Jump { target: 0 },
        ],
        2,
    );
    let mut cfg = ProcConfig::ultrascalar_i(16);
    cfg.mem.words = 1024;
    cfg.max_cycles = 1000;

    let guard = ProbeGuard::arm();
    let before = BYTES.load(Ordering::SeqCst);
    let result = Ultrascalar::new(cfg).run(&spin);
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    drop(guard);
    assert!(!result.halted, "the spin loop never halts");
    assert!(
        bytes < 4 << 20,
        "a cold 1000-cycle perfect-prediction run allocated {bytes} bytes"
    );
}

#[test]
fn long_serve_runs_allocate_boundedly() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // A spin loop under a bimodal predictor commits about a million
    // instructions per million cycles, and the second loop mispredicts
    // every other iteration at window 256, squashing up to 255
    // wrong-path stations per flush. Neither response needs a
    // per-instruction record.
    for (name, req, window) in [
        (
            "spin",
            r#"{"program":"loop:\naddi r1, r1, 1\nj loop\n","options":{"window":64,"predictor":"bimodal:256","max_cycles":1000000}}"#,
            64,
        ),
        (
            "mispredicting",
            r#"{"program":"loop:\naddi r1, r1, 1\nandi r2, r1, 1\nbeq r2, r0, skip\nnop\nskip:\nj loop\n","options":{"window":256,"predictor":"bimodal:256","max_cycles":1000000}}"#,
            256,
        ),
    ] {
        let mut server = Server::new(8, 4);
        let guard = ProbeGuard::arm();
        let before = BYTES.load(Ordering::SeqCst);
        let resp = server.handle_line(req).to_string();
        let bytes = BYTES.load(Ordering::SeqCst) - before;
        drop(guard);
        assert!(
            resp.starts_with("{\"ok\":true,") && resp.contains("\"cycles\":1000000,"),
            "{name}: {resp}"
        );
        assert!(
            resp.contains(&format!("\"window\":{window},")),
            "{name}: {resp}"
        );
        assert!(
            bytes < 4 << 20,
            "{name}: a cold 1M-cycle serve run allocated {bytes} bytes"
        );
    }
}

//! Regression pin for engine reuse: an [`Ultrascalar`] that is rewound
//! in place between runs ([`Processor::run_reusing`]) must be
//! cycle-exact against a freshly constructed engine — same cycles,
//! same registers, same memory image, same statistics, same per-
//! instruction timings. Warmth is an allocation optimisation, never an
//! observable one.
//!
//! A counting global allocator, armed per thread as in `usim serve`'s
//! allocation probe, checks that a result buffer passed from engine to
//! engine stops allocating once warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use ultrascalar::{
    BaselineOoO, EnginePool, ForwardModel, LaneBatcher, PredictorKind, ProcConfig, Processor,
    RunResult, Ultrascalar,
};
use ultrascalar_isa::{asm, workload, Program};
use ultrascalar_memsys::{Bandwidth, CacheConfig, MemConfig, NetworkKind};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Raised only around the measured runs, on the measuring thread.
    static PROBING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// an atomic and a thread-local flag, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if PROBING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if PROBING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller's `new_size` obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    PROBING.with(|p| p.set(true));
    f();
    PROBING.with(|p| p.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The configuration corners the serving mode is expected to cycle
/// through: every reset path in the engine (fetch rewind, predictor
/// rewind, memory-system rewind, station ring and rename table,
/// shared-ALU pool, pipelined forwarding) is on at least one of them.
fn configs() -> Vec<(&'static str, ProcConfig)> {
    let realistic_mem = MemConfig {
        n_leaves: 16,
        bandwidth: Bandwidth::sqrt(),
        banks: 8,
        bank_occupancy: 1,
        hop_latency: 1,
        base_latency: 0,
        words: 1 << 12,
        network: NetworkKind::FatTree,
        cluster_cache: None,
    };
    vec![
        (
            "usi-bimodal",
            ProcConfig::ultrascalar_i(8).with_predictor(PredictorKind::Bimodal(64)),
        ),
        ("usii-perfect", ProcConfig::ultrascalar_ii(8)),
        (
            "hybrid-renaming-btfn",
            ProcConfig::hybrid(16, 4)
                .with_predictor(PredictorKind::Btfn)
                .with_memory_renaming()
                .with_mem(realistic_mem.clone()),
        ),
        (
            "usi-shared-alus",
            ProcConfig::ultrascalar_i(8)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_shared_alus(2),
        ),
        (
            "hybrid-cluster-cache-butterfly",
            ProcConfig::hybrid(16, 4)
                .with_predictor(PredictorKind::Bimodal(64))
                .with_mem(
                    realistic_mem
                        .with_network(NetworkKind::Butterfly)
                        .with_cluster_cache(CacheConfig::small(4)),
                ),
        ),
        (
            "usi-pipelined",
            ProcConfig::ultrascalar_i(8).with_forwarding(ForwardModel::Pipelined { per_hop: 1 }),
        ),
    ]
}

fn assert_same(ctx: &str, warm: &RunResult, fresh: &RunResult) {
    assert_eq!(warm.halted, fresh.halted, "{ctx}: halted");
    assert_eq!(warm.cycles, fresh.cycles, "{ctx}: cycles");
    assert_eq!(warm.regs, fresh.regs, "{ctx}: registers");
    assert_eq!(warm.mem, fresh.mem, "{ctx}: memory image");
    assert_eq!(warm.stats, fresh.stats, "{ctx}: statistics");
    assert_eq!(
        warm.recorded_timings(),
        fresh.recorded_timings(),
        "{ctx}: timings"
    );
}

/// Alternating between two programs exercises the change-program reset
/// path (fetch rebuild, memory reload, stale-window recycling) rather
/// than the same-program rewind.
#[test]
fn alternating_programs_reset_cleanly() {
    let suite = workload::standard_suite(4);
    let (aname, a) = &suite[0];
    let (bname, b) = &suite[suite.len() - 1];
    let cfg = ProcConfig::hybrid(16, 4).with_predictor(PredictorKind::Bimodal(64));
    let mut warm = Ultrascalar::new(cfg.clone());
    let mut out = RunResult::recording_timings();
    for round in 0..3 {
        for (name, prog) in [(aname, a), (bname, b)] {
            warm.run_reusing(prog, &mut out);
            let fresh = Ultrascalar::new(cfg.clone()).run_timed(prog);
            assert_same(&format!("alt/{name}/round{round}"), &out, &fresh);
        }
    }
}

/// The pool's warm path composes the same guarantees: acquire-and-run
/// matches a fresh engine for every kernel even as configs alternate
/// and evict.
#[test]
fn pooled_engines_stay_exact_under_eviction() {
    let suite = workload::standard_suite(6);
    let all = configs();
    // Capacity below the config count forces evictions and rebuilds.
    let mut pool = EnginePool::new(2);
    for (cname, cfg) in all.iter().chain(all.iter()) {
        for (kname, prog) in suite.iter().take(3) {
            let pooled = pool.acquire(cfg);
            pooled.result.timings.get_or_insert_with(Vec::new);
            let warm = pooled.run(prog).clone();
            let fresh = Ultrascalar::new(cfg.clone()).run_timed(prog);
            assert_same(&format!("pool/{cname}/{kname}"), &warm, &fresh);
        }
    }
    assert!(pool.stats().misses > all.len() as u64, "evictions occurred");
}

/// Word addresses spread over distinct pages, some above 60 000; a
/// 1024-word memory wraps them onto other pages.
const ADDRS: [u32; 8] = [5, 320, 1000, 4100, 60_001, 60_070, 64_000, 65_535];

/// Program `k` of three: it first loads every address in [`ADDRS`] into
/// a running sum `r2` (so a word a previous run left behind shows up in
/// the registers), then stores `r1 + i` to its own third of them, and
/// `k == 1` also starts from a 200-word memory image.
fn page_program(k: usize, r1: u32) -> Program {
    let mut src = String::new();
    for a in ADDRS {
        src += &format!("li r3, {a}\nlw r4, 0(r3)\nadd r2, r2, r4\n");
    }
    for (i, a) in ADDRS.iter().enumerate().filter(|(i, _)| i % 3 == k) {
        src += &format!("li r3, {a}\naddi r5, r1, {i}\nsw r5, 0(r3)\n");
    }
    src += "halt\n";
    let mut p = asm::assemble(&src, 8).expect("assembles");
    p.init_regs[1] = r1;
    if k == 1 {
        p.init_mem = (0..200).map(|w| w * 3 + 1).collect();
    }
    p
}

fn assert_matches_fresh(ctx: &str, got: &RunResult, want: &RunResult) {
    assert_eq!(got.halted, want.halted, "{ctx}: halted");
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles");
    assert_eq!(got.regs, want.regs, "{ctx}: registers");
    assert_eq!(got.stats, want.stats, "{ctx}: statistics");
    assert!(got.mem == want.mem, "{ctx}: memory image");
    // Word for word as well: a stale word outside the marked pages
    // would escape the page-wise `==`.
    assert!(got.mem[..] == want.mem[..], "{ctx}: memory words");
}

/// One result buffer handed round-robin through a 1024-word engine, a
/// 65 536-word engine, `BaselineOoO` and a 16-lane group (taking a
/// different slot each time, so lane images swap in and out of it),
/// over three programs that write different pages. Every result must
/// equal a fresh engine's, and once warm the Ultrascalar and lane-group
/// runs must allocate nothing. `BaselineOoO` builds its working state
/// per run by design, so its runs are checked but not counted.
#[test]
fn one_result_buffer_rotates_through_engines_of_every_memory_size() {
    const LANES: usize = 16;
    let small = ProcConfig::ultrascalar_i(8)
        .with_predictor(PredictorKind::Bimodal(64))
        .with_mem(MemConfig::ideal(8, 1024));
    let large = ProcConfig::hybrid(16, 4).with_predictor(PredictorKind::Bimodal(64));
    let lane_cfg = ProcConfig::ultrascalar_i(16).with_predictor(PredictorKind::Bimodal(64));
    let programs: Vec<Program> = (0..3).map(|k| page_program(k, 100 + k as u32)).collect();
    let groups: Vec<Vec<Program>> = (0..3)
        .map(|k| {
            (0..LANES)
                .map(|l| page_program(k, 1000 * l as u32 + 7))
                .collect()
        })
        .collect();
    let fresh = |cfg: &ProcConfig, p: &Program| Ultrascalar::new(cfg.clone()).run(p);
    let want_small: Vec<RunResult> = programs.iter().map(|p| fresh(&small, p)).collect();
    let want_large: Vec<RunResult> = programs.iter().map(|p| fresh(&large, p)).collect();
    let want_base: Vec<RunResult> = programs
        .iter()
        .map(|p| BaselineOoO::new(small.clone()).run(p))
        .collect();
    let want_lanes: Vec<Vec<RunResult>> = groups
        .iter()
        .map(|g| g.iter().map(|p| fresh(&lane_cfg, p)).collect())
        .collect();
    assert!(want_large[0].mem.len() == 1 << 16 && want_small[0].mem.len() == 1024);

    let mut us_small = Ultrascalar::new(small.clone());
    let mut us_large = Ultrascalar::new(large);
    let mut baseline = BaselineOoO::new(small);
    let mut lane_engine = Ultrascalar::new(lane_cfg);
    let mut batcher = LaneBatcher::new();
    let mut slots = vec![RunResult::default(); LANES];
    let mut out = RunResult::default();
    for round in 0..6 {
        let mut allocs = 0;
        for k in 0..3 {
            let ctx = format!("round {round} program {k}");
            allocs += allocations(|| us_small.run_reusing(&programs[k], &mut out));
            assert_matches_fresh(&format!("{ctx} 1024 words"), &out, &want_small[k]);
            allocs += allocations(|| us_large.run_reusing(&programs[k], &mut out));
            assert_matches_fresh(&format!("{ctx} 65536 words"), &out, &want_large[k]);
            baseline.run_reusing(&programs[k], &mut out);
            assert_matches_fresh(&format!("{ctx} baseline"), &out, &want_base[k]);
            let slot = (3 * round + k) % LANES;
            std::mem::swap(&mut out, &mut slots[slot]);
            allocs += allocations(|| batcher.run_batch(&mut lane_engine, &groups[k], &mut slots));
            std::mem::swap(&mut out, &mut slots[slot]);
            for (l, got) in slots.iter().enumerate() {
                let got = if l == slot { &out } else { got };
                assert_matches_fresh(&format!("{ctx} lane {l}"), got, &want_lanes[k][l]);
            }
        }
        // Two rounds warm every buffer that circulates to its largest
        // size.
        if round >= 2 {
            assert_eq!(allocs, 0, "round {round}: warm rotation allocated");
        }
    }
    let stats = batcher.stats();
    assert_eq!(
        (stats.fallbacks, stats.peels),
        (0, 0),
        "every lane rides its group's shared pass: {stats:?}"
    );
}

//! Steady-state allocation probe for the packed/arena substrate.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up pass that sizes every retained buffer, repeated packed CSPP
//! evaluations, arena rebuilds/scans and incremental leaf updates must
//! perform **zero** allocations. This is the whole point of the arena
//! design: the simulator's cycle loop evaluates these networks millions
//! of times.
//!
//! Counting is gated on a const-initialised thread-local so only the
//! probe thread's allocations register: the libtest harness thread
//! lazily initialises its mpmc channel context while the test runs,
//! and that ambient allocation would otherwise land on a random
//! iteration of the measured loop.
//!
//! Single `#[test]` on purpose: the counter is process-global and the
//! default test harness runs tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Raised only on the probe thread, only around the measured loop.
    static PROBING: Cell<bool> = const { Cell::new(false) };
}

fn probing() -> bool {
    PROBING.try_with(Cell::get).unwrap_or(false)
}

/// RAII arm/disarm of the probe flag: disarms on drop, so a panicking
/// measured body (a failed assertion inside the loop) unwinds through
/// the guard and cannot leave the thread-local armed to count ambient
/// allocations — e.g. libtest's panic-message formatting — against
/// whatever runs next on this thread.
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
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if probing() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

use ultrascalar_prefix::arena::ArenaScan;
use ultrascalar_prefix::op::{SegOp, SegPair, Sum};
use ultrascalar_prefix::packed::{AndWords, BitWords, PackedCsppScratch};

#[test]
fn substrate_steady_state_allocates_nothing() {
    const N: usize = 1024;
    let values: Vec<u64> = (0..N as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let seg: Vec<u64> = (0..N as u64).map(|i| i.wrapping_mul(0x85EB_CA6B)).collect();
    let leaves: Vec<SegPair<u32>> = (0..N as u32)
        .map(|i| SegPair::leaf(i * 7 + 1, i % 5 == 2))
        .collect();

    let mut packed = PackedCsppScratch::new();
    let mut packed_out = Vec::new();
    let mut flags_out = Vec::new();
    let mut arena = ArenaScan::new();
    let mut arena_out = Vec::new();
    let mut bits = BitWords::new(N);

    let mut steady = || {
        packed.cspp_into::<AndWords>(&values, &seg, &mut packed_out);
        packed.all_earlier_into(&values, 17, &mut flags_out);
        arena.build::<SegOp<Sum>>(&leaves);
        let root = *arena.root();
        arena.scan_exclusive_into::<SegOp<Sum>>(root, &mut arena_out);
        for i in (0..N).step_by(97) {
            arena.update_leaf::<SegOp<Sum>>(i, SegPair::leaf(i as u32, i % 2 == 0));
        }
        bits.clear();
        for i in (0..N).step_by(13) {
            bits.set(i);
        }
        assert!(bits.any());
    };

    // Warm-up: sizes every retained buffer.
    steady();

    let guard = ProbeGuard::arm();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..50 {
        steady();
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    drop(guard);
    assert_eq!(
        after - before,
        0,
        "packed/arena substrate allocated in steady state"
    );
}

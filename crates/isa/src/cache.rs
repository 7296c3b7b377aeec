//! A content-hash-keyed LRU cache of assembled [`Program`]s.
//!
//! Serving mode re-simulates the same few sources across many
//! configuration points (the design-space-exploration workload of the
//! related work), so repeated requests should skip the assembler
//! entirely. The key is the source text and the register-file width.
//! A lookup hashes the source once with std's `DefaultHasher`, which
//! reads it a word at a time (a byte-serial hash such as [`fnv1a`]
//! costs several times more on a typical request's program); because
//! hashes can collide, every entry also keeps its source and a hit
//! requires an exact match — a cache hit can never return the wrong
//! program, and the hit path allocates nothing (hashing and comparison
//! both run over borrowed bytes, and the cached program is shared out
//! as an [`Arc`] clone, a refcount bump).
//!
//! Two forms are provided:
//!
//! * [`ProgramCache`] — a single small linear-scan LRU, like the engine
//!   pool in the core crate: request streams cycle through a handful of
//!   programs, so scanning a few entries beats maintaining a map.
//! * [`ShardedProgramCache`] — N independent [`ProgramCache`] shards,
//!   each behind its own lock, selected by the same content hash, which
//!   is handed down to the shard rather than computed again. The
//!   concurrent serving loop's worker threads hash straight to their
//!   shard, so two workers assembling different programs never contend
//!   on one LRU mutex (the NYU Ultracomputer lesson: shared-structure
//!   hot spots, not compute, bound scalable throughput). Per-shard
//!   hit/miss/eviction counters roll up through
//!   [`ShardedProgramCache::stats`].

use std::hash::Hasher;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::asm::{assemble, AsmError};
use crate::program::Program;

/// FNV-1a over a byte string: tiny, dependency-free and stable across
/// Rust releases, for digests pinned in tests (the workload image
/// digest). It reads one byte at a time, so the program cache keys on
/// a word-at-a-time hash instead.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The program cache's content hash of `src`: std's `DefaultHasher`
/// (SipHash-1-3 under fixed keys) over the bytes, which consumes eight
/// bytes per step. Deterministic within a build; nothing persists it.
fn source_hash(src: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(src.as_bytes());
    h.finish()
}

/// Roll-up of cache counters (one shard's, or the whole sharded
/// cache's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served without running the assembler.
    pub hits: u64,
    /// Lookups that ran the assembler (including failed assemblies).
    pub misses: u64,
    /// Entries dropped to make room at capacity.
    pub evictions: u64,
    /// Programs currently cached.
    pub entries: usize,
}

#[derive(Debug)]
struct CacheEntry {
    hash: u64,
    num_regs: usize,
    source: String,
    program: Arc<Program>,
    last_used: u64,
}

/// LRU cache of assembled programs keyed by (source text, register
/// count).
#[derive(Debug)]
pub struct ProgramCache {
    entries: Vec<CacheEntry>,
    capacity: usize,
    stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ProgramCache {
    /// Create a cache holding at most `capacity` assembled programs.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "program cache needs capacity");
        ProgramCache {
            entries: Vec::with_capacity(capacity),
            capacity,
            stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Return the assembled program for `src` with `num_regs`
    /// registers, assembling (and caching) on first sight. The handle is
    /// shared: the concurrent serving loop clones the `Arc` (a refcount
    /// bump, no allocation) so the program can be simulated after the
    /// shard lock is released. Assembly errors are returned and cached
    /// nowhere — a later corrected request with the same hash cannot be
    /// poisoned.
    pub fn get_or_assemble(
        &mut self,
        src: &str,
        num_regs: usize,
    ) -> Result<Arc<Program>, AsmError> {
        self.get_or_assemble_hashed(source_hash(src), src, num_regs)
    }

    /// [`ProgramCache::get_or_assemble`] with `hash ==
    /// source_hash(src)` already computed by the caller.
    fn get_or_assemble_hashed(
        &mut self,
        hash: u64,
        src: &str,
        num_regs: usize,
    ) -> Result<Arc<Program>, AsmError> {
        self.stamp += 1;
        let found = self
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.num_regs == num_regs && e.source == src);
        if let Some(e) = found {
            self.hits += 1;
            e.last_used = self.stamp;
            return Ok(Arc::clone(&e.program));
        }
        self.misses += 1;
        let program = Arc::new(assemble(src, num_regs)?);
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache non-empty at capacity");
            self.entries.swap_remove(lru);
            self.evictions += 1;
        }
        self.entries.push(CacheEntry {
            hash,
            num_regs,
            source: src.to_string(),
            program: Arc::clone(&program),
            last_used: self.stamp,
        });
        Ok(program)
    }

    /// Programs currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
        }
    }
}

/// Lock a shard, recovering from poison: a shard holds only cache
/// state whose invariants every exit path maintains, so a panic in
/// some unrelated code on a thread holding the lock must not wedge the
/// whole server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// N independent [`ProgramCache`] shards, each behind its own mutex,
/// selected by the content hash — the concurrent serving loop's shared
/// program cache.
#[derive(Debug)]
pub struct ShardedProgramCache {
    shards: Vec<Mutex<ProgramCache>>,
}

impl ShardedProgramCache {
    /// Create a sharded cache with `shards` shards holding at most
    /// `total_capacity` programs between them (each shard gets
    /// `ceil(total/shards)`, at least one).
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(total_capacity: usize, shards: usize) -> Self {
        assert!(total_capacity > 0, "program cache needs capacity");
        assert!(shards > 0, "program cache needs at least one shard");
        let per_shard = total_capacity.div_ceil(shards).max(1);
        ShardedProgramCache {
            shards: (0..shards)
                .map(|_| Mutex::new(ProgramCache::new(per_shard)))
                .collect(),
        }
    }

    /// Return the assembled program for `src`, locking only the shard
    /// the content hash selects; the shard reuses that hash for its own
    /// lookup, so the source is hashed once. The returned `Arc` is
    /// usable after the shard lock is released; a hit performs no
    /// allocation.
    pub fn get_or_assemble(&self, src: &str, num_regs: usize) -> Result<Arc<Program>, AsmError> {
        let hash = source_hash(src);
        let shard = &self.shards[(hash % self.shards.len() as u64) as usize];
        lock(shard).get_or_assemble_hashed(hash, src, num_regs)
    }

    /// Counters summed across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = lock(shard).stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n";

    #[test]
    fn repeat_source_hits() {
        let mut c = ProgramCache::new(4);
        let p1 = c.get_or_assemble(PROG, 32).expect("assembles");
        assert_eq!((c.stats().hits, c.stats().misses), (0, 1));
        let p2 = c.get_or_assemble(PROG, 32).expect("assembles");
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
        assert_eq!(p1, p2);
    }

    #[test]
    fn register_count_is_part_of_the_key() {
        let mut c = ProgramCache::new(4);
        c.get_or_assemble(PROG, 32).expect("assembles");
        let p = c.get_or_assemble(PROG, 8).expect("assembles");
        assert_eq!(p.num_regs, 8);
        assert_eq!((c.stats().hits, c.stats().misses, c.len()), (0, 2, 2));
    }

    #[test]
    fn errors_are_not_cached() {
        let mut c = ProgramCache::new(4);
        assert!(c.get_or_assemble("bogus r1", 32).is_err());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn capacity_evicts_lru_and_counts() {
        let mut c = ProgramCache::new(2);
        let a = "li r1, 1\nhalt\n";
        let b = "li r1, 2\nhalt\n";
        let d = "li r1, 3\nhalt\n";
        c.get_or_assemble(a, 32).expect("assembles");
        c.get_or_assemble(b, 32).expect("assembles");
        c.get_or_assemble(a, 32).expect("assembles"); // refresh a
        assert_eq!(c.stats().evictions, 0);
        c.get_or_assemble(d, 32).expect("assembles"); // evicts b
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        let misses = c.stats().misses;
        c.get_or_assemble(a, 32).expect("assembles");
        assert_eq!(c.stats().misses, misses, "a still cached");
        c.get_or_assemble(b, 32).expect("assembles");
        assert_eq!(c.stats().misses, misses + 1, "b was evicted");
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn shared_handle_survives_eviction() {
        let mut c = ProgramCache::new(1);
        let a = c.get_or_assemble(PROG, 32).expect("assembles");
        c.get_or_assemble("li r1, 1\nhalt\n", 32).expect("evicts");
        assert_eq!(c.stats().evictions, 1);
        // The evicted program is still alive through the Arc.
        assert_eq!(a.num_regs, 32);
    }

    #[test]
    fn fnv1a_is_stable_and_spreads() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn sharded_cache_serves_and_rolls_up() {
        let c = ShardedProgramCache::new(8, 4);
        let p1 = c.get_or_assemble(PROG, 32).expect("assembles");
        let p2 = c.get_or_assemble(PROG, 32).expect("assembles");
        assert_eq!(p1, p2);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn sharded_cache_is_shareable_across_threads() {
        let c = std::sync::Arc::new(ShardedProgramCache::new(4, 2));
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..32 {
                    let src = format!("li r1, {}\nhalt\n", (t + i) % 6);
                    let p = c.get_or_assemble(&src, 32).expect("assembles");
                    assert_eq!(p.num_regs, 32);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 4 * 32);
        assert!(s.entries <= 4, "capacity respected: {}", s.entries);
    }
}

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
//! The cache is the serving state's one cache shape, [`crate::lru`]:
//! a hit takes its entry out of the LRU and puts it straight back as
//! the most recently used.

use std::hash::Hasher;
use std::sync::Arc;

use crate::asm::{assemble, AsmError};
use crate::lru::{LruStats, Shards};
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

#[derive(Debug)]
struct CacheEntry {
    hash: u64,
    num_regs: usize,
    source: String,
    program: Arc<Program>,
}

/// LRU cache of assembled programs keyed by (source text, register
/// count), in LRU shards selected by the content hash.
#[derive(Debug)]
pub struct ShardedProgramCache {
    shards: Shards<CacheEntry>,
}

impl ShardedProgramCache {
    /// Create a cache with `shards` shards holding at most
    /// `total_capacity` programs between them (each shard gets
    /// `ceil(total/shards)`).
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(total_capacity: usize, shards: usize) -> Self {
        ShardedProgramCache {
            shards: Shards::new(total_capacity, shards),
        }
    }

    /// Return the assembled program for `src` with `num_regs`
    /// registers, assembling (and caching) on first sight. A miss
    /// assembles with the shard locked, so concurrent misses on one
    /// program assemble it once. The returned `Arc` is usable after the
    /// lock is released; a hit performs no allocation. Assembly errors
    /// are returned and cached nowhere — a later corrected request with
    /// the same hash cannot be poisoned.
    pub fn get_or_assemble(&self, src: &str, num_regs: usize) -> Result<Arc<Program>, AsmError> {
        let hash = source_hash(src);
        let mut lru = self.shards.lock(hash);
        let found = lru.take(|e| e.hash == hash && e.num_regs == num_regs && e.source == src);
        let entry = match found {
            Some(e) => e,
            None => CacheEntry {
                hash,
                num_regs,
                source: src.to_string(),
                program: Arc::new(assemble(src, num_regs)?),
            },
        };
        let program = Arc::clone(&entry.program);
        lru.put(entry);
        Ok(program)
    }

    /// Counters summed across all shards: a hit is a lookup served
    /// without the assembler, a miss one that ran it (failed assemblies
    /// included).
    pub fn stats(&self) -> LruStats {
        self.shards.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n";

    #[test]
    fn repeat_source_hits() {
        let c = ShardedProgramCache::new(4, 1);
        let p1 = c.get_or_assemble(PROG, 32).expect("assembles");
        assert_eq!((c.stats().hits, c.stats().misses), (0, 1));
        let p2 = c.get_or_assemble(PROG, 32).expect("assembles");
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
        assert_eq!(p1, p2);
    }

    #[test]
    fn register_count_is_part_of_the_key() {
        let c = ShardedProgramCache::new(4, 1);
        c.get_or_assemble(PROG, 32).expect("assembles");
        let p = c.get_or_assemble(PROG, 8).expect("assembles");
        assert_eq!(p.num_regs, 8);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn errors_are_not_cached() {
        let c = ShardedProgramCache::new(4, 1);
        assert!(c.get_or_assemble("bogus r1", 32).is_err());
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn capacity_evicts_lru_and_counts() {
        let c = ShardedProgramCache::new(2, 1);
        let a = "li r1, 1\nhalt\n";
        let b = "li r1, 2\nhalt\n";
        let d = "li r1, 3\nhalt\n";
        c.get_or_assemble(a, 32).expect("assembles");
        c.get_or_assemble(b, 32).expect("assembles");
        c.get_or_assemble(a, 32).expect("assembles"); // refresh a
        assert_eq!(c.stats().evictions, 0);
        c.get_or_assemble(d, 32).expect("assembles"); // evicts b
        assert_eq!(c.stats().entries, 2);
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
        let c = ShardedProgramCache::new(1, 1);
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

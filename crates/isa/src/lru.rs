//! The serving state's one cache shape: a small linear-scan LRU, and
//! a set of them each behind its own lock.
//!
//! `usim serve` keeps two warm-state caches, the program cache
//! ([`crate::ShardedProgramCache`]) and the core crate's engine pool,
//! and both follow this one policy. Request streams cycle through a
//! handful of programs and configurations, so an exact comparison
//! over a few entries beats any map, and it allocates nothing.
//!
//! Entries leave an [`Lru`] only through [`Lru::take`], which removes
//! the entry, so a caller can use it with the lock released (the
//! engine pool's checkout) or put it straight back to mark it used
//! (a program-cache hit). Recency is the order of [`Lru::put`]s.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counters of an [`Lru`], or summed over [`Shards`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Takes that found an entry.
    pub hits: u64,
    /// Takes that found none.
    pub misses: u64,
    /// Entries dropped to make room at capacity.
    pub evictions: u64,
    /// Entries held now (a taken entry counts again once it is put
    /// back).
    pub entries: usize,
}

/// At most `capacity` entries, each stamped when it is put; a put past
/// capacity evicts the least recently put entry.
#[derive(Debug)]
pub struct Lru<T> {
    entries: Vec<(u64, T)>,
    capacity: usize,
    stamp: u64,
    /// The counters; `entries` is read from `entries.len()` instead.
    counts: LruStats,
}

impl<T> Lru<T> {
    /// An empty LRU holding at most `capacity` entries. One slot of
    /// slack is reserved up front, so neither [`Lru::take`] nor
    /// [`Lru::put`] ever allocates.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU needs capacity");
        Lru {
            entries: Vec::with_capacity(capacity + 1),
            capacity,
            stamp: 0,
            counts: LruStats::default(),
        }
    }

    /// Remove and return the first entry that `hit` accepts, counting
    /// a hit, or count a miss and return `None`.
    pub fn take(&mut self, mut hit: impl FnMut(&T) -> bool) -> Option<T> {
        match self.entries.iter().position(|(_, e)| hit(e)) {
            Some(i) => {
                self.counts.hits += 1;
                Some(self.entries.swap_remove(i).1)
            }
            None => {
                self.counts.misses += 1;
                None
            }
        }
    }

    /// Insert `entry` as the most recently used, evicting the least
    /// recently put entry if that leaves the LRU over capacity.
    pub fn put(&mut self, entry: T) {
        self.stamp += 1;
        self.entries.push((self.stamp, entry));
        if self.entries.len() > self.capacity {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].0)
                .expect("an LRU over capacity holds entries");
            self.entries.swap_remove(lru);
            self.counts.evictions += 1;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LruStats {
        LruStats {
            entries: self.entries.len(),
            ..self.counts
        }
    }
}

/// Independent [`Lru`]s, each behind its own mutex and selected by a
/// caller's hash of the key.
#[derive(Debug)]
pub struct Shards<T> {
    shards: Vec<Mutex<Lru<T>>>,
}

impl<T> Shards<T> {
    /// `shards` LRUs holding at most `total` entries between them:
    /// each holds `ceil(total / shards)`.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(total: usize, shards: usize) -> Self {
        assert!(shards > 0, "an LRU set needs at least one shard");
        let per_shard = total.div_ceil(shards);
        Shards {
            shards: (0..shards)
                .map(|_| Mutex::new(Lru::new(per_shard)))
                .collect(),
        }
    }

    /// Lock the LRU that `hash` selects. A poisoned lock is recovered:
    /// every [`Lru`] method leaves the LRU whole on every exit path,
    /// so one panicking thread must not wedge the others.
    pub fn lock(&self, hash: u64) -> MutexGuard<'_, Lru<T>> {
        let shard = &self.shards[(hash % self.shards.len() as u64) as usize];
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counters summed over every shard.
    pub fn stats(&self) -> LruStats {
        let mut total = LruStats::default();
        for i in 0..self.shards.len() {
            let s = self.lock(i as u64).stats();
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
    use rand::Rng;

    /// A brute-force LRU: its entries in the order they were put, least
    /// recent first, with its own counters.
    struct Model {
        order: Vec<(u8, u32)>,
        capacity: usize,
        stats: LruStats,
    }

    impl Model {
        fn take(&mut self, key: u8, got: Option<(u8, u32)>) {
            match got {
                Some(e) => {
                    // Which of several equal keys is taken is the
                    // LRU's choice; the model removes that one.
                    assert_eq!(e.0, key, "took an entry the predicate refused");
                    let i = self.order.iter().position(|&m| m == e);
                    self.order
                        .remove(i.expect("took an entry it does not hold"));
                    self.stats.hits += 1;
                }
                None => {
                    assert!(
                        self.order.iter().all(|m| m.0 != key),
                        "missed key {key} that it holds"
                    );
                    self.stats.misses += 1;
                }
            }
        }

        fn put(&mut self, e: (u8, u32)) {
            self.order.push(e);
            if self.order.len() > self.capacity {
                self.order.remove(0);
                self.stats.evictions += 1;
            }
        }
    }

    /// Random takes and puts on [`Shards`] of every small shape, each
    /// shard checked against a [`Model`] after every step: the same
    /// contents, the same counters, never more entries than its
    /// capacity, and a roll-up that sums the shards.
    #[test]
    fn lru_matches_a_recency_ordered_model() {
        rand::cases(0x11E0_0001, 256, |rng, _| {
            let total = rng.gen_range(1..=8usize);
            let n = rng.gen_range(1..=3usize);
            let shards: Shards<(u8, u32)> = Shards::new(total, n);
            let capacity = total.div_ceil(n);
            let mut models: Vec<Model> = (0..n)
                .map(|_| Model {
                    order: Vec::new(),
                    capacity,
                    stats: LruStats::default(),
                })
                .collect();
            let mut held: Vec<(u8, u32)> = Vec::new();
            for id in 0..rng.gen_range(1..=64u32) {
                let hash = rng.gen_range(0..8u64);
                let key = rng.gen_range(0..6u8);
                let (mut lru, model) = (shards.lock(hash), &mut models[hash as usize % n]);
                match rng.gen_range(0..4u8) {
                    // Take and keep, as the engine pool's checkout does.
                    0 => {
                        let got = lru.take(|e| e.0 == key);
                        model.take(key, got);
                        held.extend(got);
                    }
                    // Take and put back, as a program-cache hit does.
                    1 => {
                        let got = lru.take(|e| e.0 == key);
                        model.take(key, got);
                        let e = got.unwrap_or((key, id));
                        lru.put(e);
                        model.put(e);
                    }
                    // Return an entry taken earlier, as checkin does.
                    2 if !held.is_empty() => {
                        let e = held.swap_remove(rng.gen_range(0..held.len()));
                        lru.put(e);
                        model.put(e);
                    }
                    _ => {
                        lru.put((key, id));
                        model.put((key, id));
                    }
                }
                let mut have: Vec<(u8, u32)> = lru.entries.iter().map(|&(_, e)| e).collect();
                let mut want = model.order.clone();
                have.sort_unstable();
                want.sort_unstable();
                assert_eq!(have, want, "contents");
                assert!(
                    have.len() <= capacity,
                    "{} entries over {capacity}",
                    have.len()
                );
                assert_eq!(
                    lru.stats(),
                    LruStats {
                        entries: want.len(),
                        ..model.stats
                    }
                );
                drop(lru);
                let sum = models.iter().fold(LruStats::default(), |t, m| LruStats {
                    hits: t.hits + m.stats.hits,
                    misses: t.misses + m.stats.misses,
                    evictions: t.evictions + m.stats.evictions,
                    entries: t.entries + m.order.len(),
                });
                assert_eq!(shards.stats(), sum, "roll-up");
            }
        });
    }
}

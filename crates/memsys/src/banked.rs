//! Interleaved memory banks.
//!
//! Words are interleaved across banks by low address bits (word `a`
//! lives in bank `a mod banks`), the classic layout that spreads
//! sequential accesses evenly. Each bank accepts one access per
//! `bank_occupancy` cycles.

use ultrascalar_isa::{wrap, MemImage};

/// Banked, word-addressed storage with per-bank occupancy tracking.
/// The storage is a page-tracked [`MemImage`], so a rewind zeroes only
/// the pages the previous run wrote.
#[derive(Debug, Clone)]
pub struct BankedMemory {
    words: MemImage,
    banks: usize,
    /// The first cycle at which each bank is free again.
    free_at: Vec<u64>,
    /// Cycles a bank stays busy per access.
    occupancy: u64,
}

impl BankedMemory {
    /// Create `words` words of zeroed storage across `banks` banks.
    ///
    /// # Panics
    /// Panics if `banks == 0` or `words == 0`.
    pub fn new(words: usize, banks: usize, occupancy: u64) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(words > 0, "need at least one word");
        BankedMemory {
            words: MemImage::new(words),
            banks,
            free_at: vec![0; banks],
            occupancy: occupancy.max(1),
        }
    }

    /// Rewind in place to `BankedMemory::new(words, ..)` loaded with
    /// `image` from word 0: the pages the last run wrote re-zeroed (see
    /// [`MemImage::reset`]) and every bank free at cycle 0. The bank
    /// count is unchanged.
    ///
    /// # Panics
    /// Panics if `words == 0` or the image exceeds `words`.
    pub fn reset(&mut self, words: usize, image: &[u32]) {
        assert!(words > 0, "need at least one word");
        self.words.reset(words, image);
        self.free_at.fill(0);
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True iff the memory has no words (never; the constructor forbids
    /// it).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The bank holding word `addr`.
    #[inline]
    pub fn bank_of(&self, addr: usize) -> usize {
        wrap(addr, self.banks)
    }

    /// Is `addr`'s bank free at `now`?
    #[inline]
    pub fn bank_free(&self, addr: usize, now: u64) -> bool {
        self.free_at[self.bank_of(wrap(addr, self.words.len()))] <= now
    }

    /// Perform an access at `now`: occupies the bank and returns the
    /// word (the loaded value, or the stored one). The caller must have
    /// found the bank free with [`BankedMemory::bank_free`].
    pub fn access(&mut self, addr: usize, store: Option<u32>, now: u64) -> u32 {
        let addr = wrap(addr, self.words.len());
        let bank = self.bank_of(addr);
        debug_assert!(self.free_at[bank] <= now, "bank {bank} is busy");
        self.free_at[bank] = now + self.occupancy;
        match store {
            Some(v) => {
                self.words.write(addr, v);
                v
            }
            None => self.words[addr],
        }
    }

    /// The architectural contents (for end-of-run comparison with the
    /// golden interpreter, and for copying into a run's result).
    pub fn image(&self) -> &MemImage {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_maps_addresses_round_robin() {
        let m = BankedMemory::new(64, 8, 1);
        for a in 0..64 {
            assert_eq!(m.bank_of(a), a % 8);
        }
    }

    /// The bank and the wrapped word are the plain remainders, at every
    /// bank count and memory size.
    #[test]
    fn bank_and_word_are_remainders() {
        use rand::Rng;
        rand::cases(0xBA4C_0001, 64, |rng, i| {
            let banks = [1, 2, 3, 12, 16, 24][i as usize % 6];
            let words = [8, 13, 1000, 1024][i as usize % 4];
            let mut m = BankedMemory::new(words, banks, 1);
            let addrs = [
                0,
                banks - 1,
                banks,
                banks + 1,
                words - 1,
                words,
                2 * words + 1,
            ];
            for (t, a) in addrs
                .into_iter()
                .chain([rng.gen_range(0..1 << 30)])
                .enumerate()
            {
                assert_eq!(m.bank_of(a), a % banks, "{a} over {banks} banks");
                let v = rng.gen_range(0..1 << 31);
                m.access(a, Some(v), 2 * t as u64);
                assert_eq!(m.image()[a % words], v, "{a} in {words} words");
            }
        });
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = BankedMemory::new(16, 4, 1);
        assert_eq!(m.access(5, Some(42), 0), 42);
        assert_eq!(m.access(5, None, 1), 42);
        assert_eq!(m.image()[5], 42);
    }

    #[test]
    fn bank_occupancy_blocks_same_bank() {
        let mut m = BankedMemory::new(16, 4, 3);
        m.access(0, None, 0);
        // Same bank (addr 4 ≡ 0 mod 4) is busy for 3 cycles.
        assert!(!m.bank_free(4, 0));
        assert!(!m.bank_free(4, 2));
        assert!(m.bank_free(4, 3));
        // A different bank is unaffected.
        assert!(m.bank_free(1, 0));
        // One bank: every address waits out the occupancy.
        let mut m = BankedMemory::new(16, 1, 2);
        m.access(0, None, 0);
        assert!(!m.bank_free(7, 0));
        assert!(!m.bank_free(3, 1));
        assert!(m.bank_free(3, 2));
    }

    #[test]
    fn addresses_wrap() {
        let mut m = BankedMemory::new(8, 2, 1);
        m.access(9, Some(77), 0); // wraps to 1
        assert_eq!(m.image()[1], 77);
        assert_eq!(m.access(17, None, 1), 77); // 17 mod 8 = 1
    }

    #[test]
    fn image_loading() {
        let mut m = BankedMemory::new(8, 2, 1);
        m.access(6, Some(9), 0);
        m.reset(8, &[1, 2, 3]);
        assert_eq!(&m.image()[..3], &[1, 2, 3]);
        assert_eq!(m.image()[3], 0);
        assert_eq!(m.image()[6], 0, "reset zeroes the previous run's stores");
    }

    #[test]
    #[should_panic(expected = "image larger")]
    fn oversized_image_rejected() {
        let mut m = BankedMemory::new(2, 1, 1);
        m.reset(2, &[0; 3]);
    }
}

//! [`BitWords`]: a fixed-length bitset over `u64` words.
//!
//! The memory network keeps its per-cycle link occupancy in these
//! words (`ultrascalar-memsys`'s butterfly raster), so clearing a
//! stage costs one store per 64 wires instead of one per wire. The
//! engine keeps its station sets (which stations the per-cycle walk
//! visits, which are parked on a producer) in them too, and finds the
//! next member with a trailing-zeros scan (or the previous one with a
//! leading-zeros scan). A memory image
//! (`ultrascalar-isa`'s `MemImage`) marks its written pages in one.

/// A fixed-length bitset over `u64` words with word-parallel clears
/// and scans — the packed replacement for per-cycle `Vec<bool>` maps
/// (the memory butterfly's stage wires, the engine's station sets).
#[derive(Debug, Default)]
pub struct BitWords {
    words: Vec<u64>,
    len: usize,
}

impl Clone for BitWords {
    fn clone(&self) -> Self {
        BitWords {
            words: self.words.clone(),
            len: self.len,
        }
    }

    /// Hand-written so copying into a retained bitset reuses its
    /// allocation.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitWords {
    /// An all-clear bitset of `len` bits.
    pub fn new(len: usize) -> Self {
        BitWords {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the bitset holds no bits at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clear every bit (one store per 64 bits).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Become an all-clear bitset of `len` bits in place, reusing the
    /// allocation when it is large enough.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index out of range");
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Raise bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index out of range");
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Lower bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        assert!(i < self.len, "bit index out of range");
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Lower every bit in `from..to` (one store per word touched).
    ///
    /// # Panics
    /// Panics if `to > len`.
    pub fn clear_range(&mut self, from: usize, to: usize) {
        assert!(to <= self.len, "bit range out of range");
        for (w, mask) in Self::range_masks(from, to) {
            self.words[w] &= !mask;
        }
    }

    /// Number of raised bits in `from..to`.
    ///
    /// # Panics
    /// Panics if `to > len`.
    pub fn count_range(&self, from: usize, to: usize) -> u64 {
        assert!(to <= self.len, "bit range out of range");
        Self::range_masks(from, to)
            .map(|(w, mask)| u64::from((self.words[w] & mask).count_ones()))
            .sum()
    }

    /// The words that bits `from..to` occupy, each as `(word index,
    /// mask of its bits inside the range)`, in order: the way to act
    /// on a range of several bitsets one word at a time.
    pub fn range_masks(from: usize, to: usize) -> impl Iterator<Item = (usize, u64)> {
        let mut i = from;
        std::iter::from_fn(move || {
            (i < to).then(|| {
                let (w, b) = (i / 64, i % 64);
                let span = (64 - b).min(to - i);
                let ones = if span == 64 { !0 } else { (1u64 << span) - 1 };
                i += span;
                (w, ones << b)
            })
        })
    }

    /// Word `w`: bits `64 * w..64 * w + 64`.
    ///
    /// # Panics
    /// Panics if `w` lies past the last word.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Raise the bits of `mask` in word `w`. The mask must lie inside
    /// the bitset (a mask from [`BitWords::range_masks`] over
    /// `0..len` does).
    ///
    /// # Panics
    /// Panics if `w` lies past the last word.
    #[inline]
    pub fn or_word(&mut self, w: usize, mask: u64) {
        self.words[w] |= mask;
    }

    /// Lower the bits of `mask` in word `w`.
    ///
    /// # Panics
    /// Panics if `w` lies past the last word.
    #[inline]
    pub fn clear_word(&mut self, w: usize, mask: u64) {
        self.words[w] &= !mask;
    }

    /// The lowest raised bit in `from..to`, if any: a trailing-zeros
    /// scan, one load per word up to the first hit.
    ///
    /// # Panics
    /// Panics if `from < to` and `to` lies past the last word.
    #[inline]
    pub fn next_set(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.words[w] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                return (i < to).then_some(i);
            }
            w += 1;
            if w * 64 >= to {
                return None;
            }
            bits = self.words[w];
        }
    }

    /// The highest raised bit in `from..to`, if any: a leading-zeros
    /// scan down from `to`, one load per word down to the first hit.
    ///
    /// # Panics
    /// Panics if `from < to` and `to > len`.
    #[inline]
    pub fn prev_set(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        assert!(to <= self.len, "bit range out of range");
        let mut w = (to - 1) / 64;
        let mut bits = self.words[w] & (!0u64 >> (63 - (to - 1) % 64));
        loop {
            if bits != 0 {
                let i = w * 64 + 63 - bits.leading_zeros() as usize;
                return (i >= from).then_some(i);
            }
            if w * 64 <= from {
                return None;
            }
            w -= 1;
            bits = self.words[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwords_basics() {
        let mut b = BitWords::new(130);
        assert_eq!(b.len(), 130);
        assert!((0..130).all(|i| !b.get(i)));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!((0..130).filter(|&i| b.get(i)).count(), 3);
        b.clear();
        assert!((0..130).all(|i| !b.get(i)));
    }

    #[test]
    fn reset_and_clone_from_resize_in_place() {
        let mut b = BitWords::new(130);
        b.set(129);
        b.reset(70);
        assert_eq!(b.len(), 70);
        assert!((0..70).all(|i| !b.get(i)));
        let mut src = BitWords::new(200);
        src.set(3);
        src.set(199);
        b.clone_from(&src);
        assert_eq!(b.len(), 200);
        assert_eq!((0..200).filter(|&i| b.get(i)).collect::<Vec<_>>(), [3, 199]);
    }

    #[test]
    fn unset_clear_range_and_next_set_match_a_bool_model() {
        let len = 200;
        let mut b = BitWords::new(len);
        let mut model = vec![false; len];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % len as u64) as usize;
            let j = ((x >> 20) % (len as u64 + 1)) as usize;
            let (lo, hi) = (i.min(j), i.max(j));
            match (x >> 40) % 6 {
                0 | 1 => {
                    b.set(i);
                    model[i] = true;
                }
                2 => {
                    b.unset(i);
                    model[i] = false;
                }
                3 => {
                    b.clear_range(lo, hi);
                    model[lo..hi].fill(false);
                }
                // Word-wise raise and lower of a range's odd bits.
                k => {
                    for (w, mask) in BitWords::range_masks(lo, hi) {
                        let odd = mask & 0xAAAA_AAAA_AAAA_AAAA;
                        if k == 4 {
                            b.or_word(w, odd);
                        } else {
                            b.clear_word(w, odd);
                        }
                    }
                    for bit in (lo..hi).filter(|t| t % 2 == 1) {
                        model[bit] = k == 4;
                    }
                }
            }
            let want = (lo..hi).find(|&k| model[k]);
            assert_eq!(b.next_set(lo, hi), want, "next_set({lo}, {hi})");
            let want = (lo..hi).rev().find(|&k| model[k]);
            assert_eq!(b.prev_set(lo, hi), want, "prev_set({lo}, {hi})");
            let count = model[lo..hi].iter().filter(|&&m| m).count() as u64;
            assert_eq!(b.count_range(lo, hi), count, "count_range({lo}, {hi})");
            let covered: Vec<usize> = BitWords::range_masks(lo, hi)
                .flat_map(|(w, mask)| {
                    (0..64)
                        .filter(move |k| mask >> k & 1 == 1)
                        .map(move |k| w * 64 + k)
                })
                .collect();
            assert_eq!(
                covered,
                (lo..hi).collect::<Vec<_>>(),
                "range_masks({lo}, {hi})"
            );
            assert!((0..len).all(|k| b.get(k) == model[k]));
            for (w, bits) in model.chunks(64).enumerate() {
                let want = (0..bits.len()).fold(0u64, |acc, k| acc | (bits[k] as u64) << k);
                assert_eq!(b.word(w), want, "word({w})");
            }
        }
        assert_eq!(b.next_set(5, 5), None);
        assert_eq!(b.prev_set(5, 5), None);
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn bitwords_bounds_checked() {
        let b = BitWords::new(10);
        let _ = b.get(10);
    }
}

//! [`BitWords`]: a fixed-length bitset over `u64` words.
//!
//! The memory network keeps its per-cycle link occupancy in these
//! words (`ultrascalar-memsys`'s butterfly raster), so clearing a
//! stage costs one store per 64 wires instead of one per wire. A
//! memory image (`ultrascalar-isa`'s `MemImage`) marks its written
//! pages in one. The scans [`next_set_in`] and [`prev_set_in`] take the
//! words through a closure, so they also serve bitsets stored some
//! other way: the engine keeps its station sets as fields of one
//! record per word and scans one field at a time.

/// A fixed-length bitset over `u64` words with word-parallel clears
/// and scans — the packed replacement for per-cycle `Vec<bool>` maps
/// (the memory butterfly's stage wires, the memory image's pages).
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

    /// The lowest raised bit in `from..to`, if any (see [`next_set_in`]).
    ///
    /// # Panics
    /// Panics if `from < to` and `to` lies past the last word.
    #[inline]
    pub fn next_set(&self, from: usize, to: usize) -> Option<usize> {
        next_set_in(|w| self.words[w], from, to)
    }
}

/// The lowest raised bit in `from..to` of the bitset whose word `w` is
/// `word(w)`, if any: a trailing-zeros scan, one word read per word up
/// to the first hit.
#[inline]
pub fn next_set_in(word: impl Fn(usize) -> u64, from: usize, to: usize) -> Option<usize> {
    if from >= to {
        return None;
    }
    let mut w = from / 64;
    let mut bits = word(w) & (!0u64 << (from % 64));
    loop {
        if bits != 0 {
            let i = w * 64 + bits.trailing_zeros() as usize;
            return (i < to).then_some(i);
        }
        w += 1;
        if w * 64 >= to {
            return None;
        }
        bits = word(w);
    }
}

/// The highest raised bit in `from..to` of the bitset whose word `w`
/// is `word(w)`, if any: a leading-zeros scan down from `to`, one word
/// read per word down to the first hit.
#[inline]
pub fn prev_set_in(word: impl Fn(usize) -> u64, from: usize, to: usize) -> Option<usize> {
    if from >= to {
        return None;
    }
    let mut w = (to - 1) / 64;
    let mut bits = word(w) & (!0u64 >> (63 - (to - 1) % 64));
    loop {
        if bits != 0 {
            let i = w * 64 + 63 - bits.leading_zeros() as usize;
            return (i >= from).then_some(i);
        }
        if w * 64 <= from {
            return None;
        }
        w -= 1;
        bits = word(w);
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
    fn scans_and_word_ops_match_a_bool_model() {
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
            match (x >> 40) % 8 {
                0 => {
                    b.clear();
                    model.fill(false);
                }
                1..=4 => {
                    b.set(i);
                    model[i] = true;
                }
                // Word-wise raise of a range's odd bits.
                _ => {
                    for (w, mask) in BitWords::range_masks(lo, hi) {
                        b.or_word(w, mask & 0xAAAA_AAAA_AAAA_AAAA);
                    }
                    for bit in (lo..hi).filter(|t| t % 2 == 1) {
                        model[bit] = true;
                    }
                }
            }
            let want = (lo..hi).find(|&k| model[k]);
            assert_eq!(b.next_set(lo, hi), want, "next_set({lo}, {hi})");
            let want = (lo..hi).rev().find(|&k| model[k]);
            let got = prev_set_in(|w| b.word(w), lo, hi);
            assert_eq!(got, want, "prev_set_in({lo}, {hi})");
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
        assert_eq!(prev_set_in(|w| b.word(w), 5, 5), None);
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn bitwords_bounds_checked() {
        let b = BitWords::new(10);
        let _ = b.get(10);
    }
}

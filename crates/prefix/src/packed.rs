//! [`BitWords`]: a fixed-length bitset over `u64` words.
//!
//! The memory network keeps its per-cycle link occupancy in these
//! words (`ultrascalar-memsys`'s butterfly raster), so clearing a
//! stage costs one store per 64 wires instead of one per wire.

/// A fixed-length bitset over `u64` words with word-parallel clears —
/// the packed replacement for per-cycle `Vec<bool>` occupancy maps
/// (the memory butterfly's stage wires).
#[derive(Debug, Clone, Default)]
pub struct BitWords {
    words: Vec<u64>,
    len: usize,
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
    #[should_panic(expected = "bit index out of range")]
    fn bitwords_bounds_checked() {
        let b = BitWords::new(10);
        let _ = b.get(10);
    }
}

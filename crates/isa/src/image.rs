//! Architectural data memory: its size, its address arithmetic, and
//! [`MemImage`], the page-tracked store every model keeps it in.
//!
//! Memory is word-addressed and sized [`mem_words`]: at least the
//! configured word count, the program's initial image and one word.
//! Every effective address wraps modulo that size
//! ([`effective_addr`]), so every load and store is total — see
//! [`crate::interp`] for why the paper needs that.
//!
//! Simulated programs touch a few pages of a memory that is usually
//! 64 Ki words. Tracking the touched pages lets every whole-image
//! operation — rewinding for the next run, copying the final image into
//! a result, comparing two images — cost O(pages touched) instead of
//! O(words).

use std::ops::{Deref, Range};
use ultrascalar_prefix::BitWords;

/// Words per tracked page.
const PAGE_WORDS: usize = 64;

/// The size in words of a memory configured for `min_words` and loaded
/// with `image`: `max(min_words, image.len(), 1)`.
#[inline]
pub fn mem_words(min_words: usize, image: &[u32]) -> usize {
    min_words.max(image.len()).max(1)
}

/// The word a load or store at `base + offset` touches in a memory of
/// `words` words: the sum wraps at 32 bits, then modulo `words`.
#[inline]
pub fn effective_addr(base: u32, offset: i32, words: usize) -> usize {
    wrap(base.wrapping_add(offset as u32) as usize, words)
}

/// `x % n`, without a hardware divide where none is needed: `x` itself
/// when it is already below `n`, a mask when `n` is a power of two, and
/// the remainder otherwise. Every table the simulator indexes modulo
/// its size goes through here.
///
/// # Panics
/// Panics if `n == 0` and `x` is not below it.
#[inline(always)]
pub fn wrap(x: usize, n: usize) -> usize {
    if x < n {
        x
    } else if n.is_power_of_two() {
        x & (n - 1)
    } else {
        x % n
    }
}

/// A memory image whose words outside its marked pages are all zero.
///
/// The type keeps that invariant: there is no mutable access to the
/// words except [`MemImage::write`], which marks the written word's
/// page, and [`MemImage::reset`], which zeroes only the marked pages
/// before loading an initial image. Reads go through
/// `Deref<Target = [u32]>`.
#[derive(Debug, Default)]
pub struct MemImage {
    words: Vec<u32>,
    /// Pages that may hold a nonzero word (one bit per
    /// [`PAGE_WORDS`] words, the last page possibly partial).
    pages: BitWords,
}

impl MemImage {
    /// `len` zeroed words.
    pub fn new(len: usize) -> Self {
        MemImage {
            words: vec![0; len],
            pages: BitWords::new(len.div_ceil(PAGE_WORDS)),
        }
    }

    /// Become `len` words holding `image` from word 0 and zeros after
    /// it, in place. Costs O(marked pages + `image.len()`), plus the
    /// size change when `len` differs from the current length; no
    /// allocation once the buffers have held `len` words.
    ///
    /// # Panics
    /// Panics if `image` is longer than `len`.
    pub fn reset(&mut self, len: usize, image: &[u32]) {
        assert!(image.len() <= len, "image larger than memory");
        let kept = self.words.len().min(len);
        for p in marked(&self.pages) {
            let r = page_range(p, kept);
            if r.is_empty() {
                break;
            }
            self.words[r].fill(0);
        }
        self.words.resize(len, 0);
        self.pages.reset(len.div_ceil(PAGE_WORDS));
        self.words[..image.len()].copy_from_slice(image);
        for (w, mask) in BitWords::range_masks(0, image.len().div_ceil(PAGE_WORDS)) {
            self.pages.or_word(w, mask);
        }
        self.debug_check();
    }

    /// Store `v` at word `addr`, marking its page.
    ///
    /// # Panics
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: usize, v: u32) {
        self.words[addr] = v;
        self.pages.set(addr / PAGE_WORDS);
    }

    /// Every word outside a marked page is zero. Checked after each
    /// whole-image operation in debug builds.
    fn debug_check(&self) {
        debug_assert!(
            self.words
                .chunks(PAGE_WORDS)
                .enumerate()
                .all(|(p, page)| self.pages.get(p) || page.iter().all(|&w| w == 0)),
            "a word outside the marked pages is nonzero"
        );
    }
}

/// The words of page `p` in a memory of `len` words (empty past the
/// end).
fn page_range(p: usize, len: usize) -> Range<usize> {
    (p * PAGE_WORDS).min(len)..((p + 1) * PAGE_WORDS).min(len)
}

/// The marked pages, in ascending order.
fn marked(pages: &BitWords) -> impl Iterator<Item = usize> + '_ {
    let mut from = 0;
    std::iter::from_fn(move || {
        let p = pages.next_set(from, pages.len())?;
        from = p + 1;
        Some(p)
    })
}

/// The pages marked in `a` or `b` (equal page counts), ascending.
fn union<'a>(a: &'a BitWords, b: &'a BitWords) -> impl Iterator<Item = usize> + 'a {
    debug_assert_eq!(a.len(), b.len());
    (0..a.len().div_ceil(64)).flat_map(move |w| {
        let mut bits = a.word(w) | b.word(w);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                p
            })
        })
    })
}

impl Deref for MemImage {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.words
    }
}

impl<'a> IntoIterator for &'a MemImage {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.words.iter()
    }
}

impl Clone for MemImage {
    fn clone(&self) -> Self {
        MemImage {
            words: self.words.clone(),
            pages: self.pages.clone(),
        }
    }

    /// Sparse: between images of equal length only the pages marked on
    /// either side are copied (a page marked only here is zero in
    /// `source`). Images of different lengths copy whole. Reuses this
    /// image's allocation.
    fn clone_from(&mut self, source: &Self) {
        if self.words.len() == source.words.len() {
            for p in union(&self.pages, &source.pages) {
                let r = page_range(p, self.words.len());
                self.words[r.clone()].copy_from_slice(&source.words[r]);
            }
        } else {
            self.words.clone_from(&source.words);
        }
        self.pages.clone_from(&source.pages);
        self.debug_check();
    }
}

/// Word-for-word equality, comparing only the pages either side marks.
impl PartialEq for MemImage {
    fn eq(&self, other: &Self) -> bool {
        self.words.len() == other.words.len()
            && union(&self.pages, &other.pages).all(|p| {
                let r = page_range(p, self.words.len());
                self.words[r.clone()] == other.words[r]
            })
    }
}

impl Eq for MemImage {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    const LENS: [usize; 6] = [1, 63, 64, 65, 1024, 65536];

    /// `wrap` and `effective_addr` equal the plain remainder, at powers
    /// of two and off them, for operands below, at and above the
    /// divisor.
    #[test]
    fn wrap_is_the_remainder() {
        rand::cases(0x1A6E_0003, 256, |rng, i| {
            let n = match i % 3 {
                0 => 1usize << rng.gen_range(0..20),
                1 => [3, 12, 13, 24, 1000][i as usize % 5],
                _ => rng.gen_range(1..100_000),
            };
            let xs = [
                0,
                n - 1,
                n,
                n + 1,
                2 * n,
                rng.gen_range(0..n),
                rng.gen_range(n..1usize << 40),
            ];
            for x in xs.into_iter().chain([usize::MAX, rng.next_u64() as usize]) {
                assert_eq!(wrap(x, n), x % n, "{x} mod {n}");
            }
            let (base, offset) = (rng.next_u64() as u32, rng.next_u64() as i32);
            let want = (base.wrapping_add(offset as u32) as usize) % n;
            assert_eq!(
                effective_addr(base, offset, n),
                want,
                "{base} + {offset} mod {n}"
            );
        });
    }

    #[test]
    fn reset_write_clone_from_and_swap_match_a_vec_model() {
        const SEED: u64 = 0x1A6E_0001;
        for case in 0..8 {
            let mut rng = rand::case_rng(SEED, case);
            let mut imgs: [MemImage; 3] = Default::default();
            let mut model: [Vec<u32>; 3] = Default::default();
            for step in 0..600 {
                let r = rng.next_u64();
                let i = (r % 3) as usize;
                let j = (r >> 8) as usize % 3;
                let ctx = format!("seed {SEED:#x} case {case} step {step}");
                match (r >> 16) % 8 {
                    0 => {
                        let len = LENS[(r >> 24) as usize % LENS.len()];
                        let init = (r >> 32) as usize % (len.min(130) + 1);
                        let image: Vec<u32> = (0..init as u32).map(|k| k * 7 % 5).collect();
                        imgs[i].reset(len, &image);
                        model[i] = vec![0; len];
                        model[i][..init].copy_from_slice(&image);
                    }
                    1 => {
                        let (a, b) = (imgs[j].clone(), &mut imgs[i]);
                        b.clone_from(&a);
                        model[i] = model[j].clone();
                    }
                    2 if i != j => {
                        imgs.swap(i, j);
                        model.swap(i, j);
                    }
                    _ if !model[i].is_empty() => {
                        for _ in 0..1 + (r >> 24) % 4 {
                            let w = rng.next_u64();
                            let addr = w as usize % model[i].len();
                            let v = (w >> 40) as u32 % 3;
                            imgs[i].write(addr, v);
                            model[i][addr] = v;
                        }
                    }
                    _ => {}
                }
                for k in 0..3 {
                    assert!(imgs[k][..] == model[k][..], "{ctx}: image {k} contents");
                    for l in 0..3 {
                        assert_eq!(
                            imgs[k] == imgs[l],
                            model[k] == model[l],
                            "{ctx}: image {k} == image {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_page_marked_on_one_side_only_is_compared() {
        let mut a = MemImage::new(1024);
        let mut b = MemImage::new(1024);
        a.write(3, 1);
        b.write(3, 1);
        b.write(700, 9);
        assert_ne!(a, b, "page 11 is marked in b only");
        assert_ne!(b, a);
        b.write(700, 0);
        assert_eq!(a, b);
        assert_eq!(b, a);
    }

    #[test]
    fn clone_from_copies_source_only_pages_and_zeroes_target_only_pages() {
        let mut src = MemImage::new(4096);
        src.write(4000, 5);
        let mut dst = MemImage::new(4096);
        dst.write(10, 6);
        dst.clone_from(&src);
        assert_eq!(dst[4000], 5);
        assert_eq!(dst[10], 0);
        assert!(dst == src);
    }

    #[test]
    fn reset_zeroes_marked_pages_across_length_changes() {
        let mut m = MemImage::new(65536);
        m.write(65535, 1);
        m.write(100, 2);
        m.reset(1024, &[4, 5]);
        assert_eq!(m.len(), 1024);
        assert_eq!(&m[..3], &[4, 5, 0]);
        assert_eq!(m[100], 0);
        m.reset(65536, &[]);
        assert!(m.iter().all(|&w| w == 0));
    }

    #[test]
    fn sizing_and_wrap_rules() {
        assert_eq!(mem_words(0, &[]), 1);
        assert_eq!(mem_words(4, &[7; 6]), 6);
        assert_eq!(mem_words(1 << 16, &[7; 6]), 1 << 16);
        assert_eq!(effective_addr(3, 13, 16), 0);
        assert_eq!(effective_addr(5, -2, 16), 3);
        assert_eq!(
            effective_addr(u32::MAX, 1, 16),
            0,
            "the sum wraps at 32 bits first"
        );
        assert_eq!(effective_addr(0, -1, 1000), (u32::MAX as usize) % 1000);
    }

    #[test]
    #[should_panic(expected = "image larger")]
    fn oversized_image_rejected() {
        MemImage::new(2).reset(2, &[0; 3]);
    }
}

//! Bit-packed, word-parallel boolean CSPP — 64 independent 1-bit
//! segmented-prefix networks evaluated per machine word.
//!
//! The paper instantiates one 1-bit CSPP circuit per *flag* (all
//! earlier finished / stored / confirmed, Figure 5) and one per
//! *logical register* for the ready-bit network behind forwarding
//! (Figure 4). Those instances all share the ring's station count `n`
//! and differ only in their inputs, so a software model can lay them
//! side by side: station `i` contributes one `u64` whose bit `L` is
//! lane `L`'s value and one `u64` whose bit `L` is lane `L`'s segment
//! bit, and a single pass evaluates all 64 networks at once (SWAR).
//!
//! The segmented combination rule lifts lane-wise: for AND lanes,
//!
//! ```text
//! value = vb & (sb | va)        seg = sa | sb
//! ```
//!
//! which is `sb ? vb : (va & vb)` evaluated in every bit position
//! without branches. Each operator has a genuine two-sided *identity*
//! leaf (`value = !0, seg = 0` for AND), so the log-depth tree form
//! pads non-power-of-two rings with identity leaves instead of
//! tracking node occupancy.
//!
//! Semantics match [`crate::cspp::cspp_ring`] lane for lane, including
//! the all-segments-low cyclic wrap case: a lane whose segment word
//! column is all zero reports `seg = 0` and a wrap-around artefact
//! value that callers must treat as don't-care (property-tested in
//! `tests/packed_equivalence.rs`).
//!
//! [`BitWords`] is the companion plain bitset used to keep per-cycle
//! occupancy and readiness state (engine register-ready lanes,
//! butterfly stage wires) in packed words with word-parallel clears.

/// A lane-wise boolean associative operator on 64-lane packed words,
/// lifted to the segmented combination rule.
///
/// Implementations provide the value half of the lifted combine; the
/// segment half is always `sa | sb`. [`WordOp::IDENTITY`] paired with a
/// zero segment word must be a two-sided identity of the lifted
/// operator, which is what lets the tree evaluation pad arbitrary ring
/// sizes.
pub trait WordOp {
    /// Value word of the identity leaf (segment word is zero).
    const IDENTITY: u64;
    /// Value word of `(va, sa) ⊗ (vb, sb)` (the segment word of the
    /// result is `sa | sb` for every operator).
    fn combine_value(va: u64, vb: u64, sb: u64) -> u64;
}

/// Lane-wise AND — the paper's sequencing operator (`a ⊗ b = a ∧ b`),
/// 64 "all earlier stations meet a condition" networks per word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AndWords;

impl WordOp for AndWords {
    const IDENTITY: u64 = !0;
    #[inline]
    fn combine_value(va: u64, vb: u64, sb: u64) -> u64 {
        // sb ? vb : (va & vb), per bit.
        vb & (sb | va)
    }
}

/// Lane-wise OR — the modified-bit trees of the hybrid cluster (paper
/// Figure 9), 64 "any earlier station raised a bit" networks per word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrWords;

impl WordOp for OrWords {
    const IDENTITY: u64 = 0;
    #[inline]
    fn combine_value(va: u64, vb: u64, sb: u64) -> u64 {
        // sb ? vb : (va | vb), per bit.
        (va & !sb) | vb
    }
}

/// A 64-lane interval summary: bit `L` of `value`/`seg` belongs to
/// lane `L`. The packed analogue of [`crate::op::SegPair`]`<bool>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedPair {
    /// Per-lane accumulated value since the nearest contained boundary.
    pub value: u64,
    /// Per-lane "interval contains a segment boundary" flag.
    pub seg: u64,
}

impl PackedPair {
    /// The identity summary of operator `O` (absorbed on either side).
    #[inline]
    pub fn identity<O: WordOp>() -> Self {
        PackedPair {
            value: O::IDENTITY,
            seg: 0,
        }
    }

    /// Lift a station's input words to a leaf summary.
    #[inline]
    pub fn leaf(value: u64, seg: u64) -> Self {
        PackedPair { value, seg }
    }

    /// The lifted segmented combine, `self` covering the interval
    /// immediately before `rhs`.
    #[inline]
    pub fn combine<O: WordOp>(self, rhs: PackedPair) -> Self {
        PackedPair {
            value: O::combine_value(self.value, rhs.value, rhs.seg),
            seg: self.seg | rhs.seg,
        }
    }
}

/// Cyclic segmented parallel prefix over packed lanes, linear ring
/// reference — the word-parallel mirror of [`crate::cspp::cspp_ring`].
///
/// `out[i]` summarises, per lane, the cyclically preceding stations
/// back to the nearest raised segment bit. Lanes with no raised
/// segment bit anywhere report `seg = 0` and a wrap-around artefact
/// value (don't-care, as in the generic reference).
///
/// # Panics
/// Panics if `values.len() != seg.len()` or the ring is empty.
pub fn packed_cspp_ring<O: WordOp>(values: &[u64], seg: &[u64]) -> Vec<PackedPair> {
    assert_eq!(values.len(), seg.len(), "value/segment length mismatch");
    assert!(!values.is_empty(), "CSPP ring must be non-empty");
    let n = values.len();
    let mut whole = PackedPair::identity::<O>();
    for i in 0..n {
        whole = whole.combine::<O>(PackedPair::leaf(values[i], seg[i]));
    }
    let mut out = Vec::with_capacity(n);
    let mut acc = whole;
    for i in 0..n {
        out.push(acc);
        acc = acc.combine::<O>(PackedPair::leaf(values[i], seg[i]));
    }
    out
}

/// Reusable scratch for the log-depth packed tree evaluation. Retains
/// its heap buffers across calls, so steady-state evaluation performs
/// **zero allocations** once the ring size has been seen.
#[derive(Debug, Clone, Default)]
pub struct PackedCsppScratch {
    /// Up-sweep interval summaries, heap layout over `2 * size` slots.
    summaries: Vec<PackedPair>,
    /// Down-sweep prefixes, same layout.
    prefix: Vec<PackedPair>,
    /// `(n, identity)` of the last sweep. While unchanged, the padding
    /// leaves above `n` still hold the operator identity and the
    /// sweeps overwrite every other slot they read, so the buffers
    /// need no re-initialisation — the steady-state pass touches only
    /// `Θ(n)` words instead of refilling `4 · size` slots.
    shape: (usize, u64),
}

impl PackedCsppScratch {
    /// Fresh scratch with no retained capacity.
    pub fn new() -> Self {
        PackedCsppScratch::default()
    }

    /// Make both heap buffers `2 * size` slots long with the padding
    /// leaves `[size + n, 2 * size)` holding `identity`. A repeat call
    /// with the same `(n, identity)` is free: the sweeps only ever
    /// write the non-padding slots, so the padding survives and no
    /// refill is needed.
    fn ensure_shape(&mut self, n: usize, size: usize, identity: PackedPair) {
        if self.shape == (n, identity.value) {
            return;
        }
        self.summaries.clear();
        self.summaries.resize(2 * size, identity);
        self.prefix.clear();
        self.prefix.resize(2 * size, identity);
        self.shape = (n, identity.value);
    }

    /// Up-sweep + down-sweep shared by the cyclic and seeded forms.
    /// Pads the leaf level with identity summaries up to the next
    /// power of two, which keeps every tree node meaningful without
    /// `Option` occupancy tracking.
    fn sweep<O: WordOp>(
        &mut self,
        values: &[u64],
        seg: &[u64],
        init: Option<PackedPair>,
        out: &mut Vec<PackedPair>,
    ) {
        assert_eq!(values.len(), seg.len(), "value/segment length mismatch");
        assert!(!values.is_empty(), "CSPP ring must be non-empty");
        let n = values.len();
        let size = n.next_power_of_two();
        self.ensure_shape(n, size, PackedPair::identity::<O>());
        for i in 0..n {
            self.summaries[size + i] = PackedPair::leaf(values[i], seg[i]);
        }
        for k in (1..size).rev() {
            self.summaries[k] = self.summaries[2 * k].combine::<O>(self.summaries[2 * k + 1]);
        }
        // Cyclic form: tie the tree top, so the root's own summary —
        // the whole-ring fold — flows back in before leaf 0.
        let seed = init.unwrap_or(self.summaries[1]);
        self.prefix[1] = seed;
        for k in 1..size {
            let p = self.prefix[k];
            self.prefix[2 * k] = p;
            self.prefix[2 * k + 1] = p.combine::<O>(self.summaries[2 * k]);
        }
        out.clear();
        out.extend_from_slice(&self.prefix[size..size + n]);
    }

    /// Cyclic segmented parallel prefix via the log-depth tree, into a
    /// caller-provided output buffer. Semantics identical to
    /// [`packed_cspp_ring`] (property-tested), work `Θ(n)` words,
    /// allocation-free once buffers are warm.
    ///
    /// # Panics
    /// Panics if `values.len() != seg.len()` or the ring is empty.
    pub fn cspp_into<O: WordOp>(&mut self, values: &[u64], seg: &[u64], out: &mut Vec<PackedPair>) {
        self.sweep::<O>(values, seg, None, out);
    }

    /// Non-cyclic segmented *exclusive* prefix seeded with `init`
    /// flowing in before station 0 — the packed mirror of
    /// [`crate::cspp::segmented_prefix_ring`].
    ///
    /// # Panics
    /// Panics if `values.len() != seg.len()` or the input is empty.
    pub fn segmented_exclusive_into<O: WordOp>(
        &mut self,
        values: &[u64],
        seg: &[u64],
        init: PackedPair,
        out: &mut Vec<PackedPair>,
    ) {
        self.sweep::<O>(values, seg, Some(init), out);
    }

    /// Paper Figure 5, 64 lanes at a time: for each station, per lane,
    /// "have all older stations raised their condition bit?". The
    /// segment boundary is the `oldest` station in every lane; the
    /// output at `oldest` itself wraps the whole ring and is don't-care
    /// (returned as-is), exactly like
    /// [`crate::cspp::cspp_all_earlier`].
    ///
    /// # Panics
    /// Panics if `oldest >= conditions.len()` or the ring is empty.
    pub fn all_earlier_into(&mut self, conditions: &[u64], oldest: usize, out: &mut Vec<u64>) {
        assert!(!conditions.is_empty(), "CSPP ring must be non-empty");
        assert!(oldest < conditions.len(), "oldest station out of range");
        let n = conditions.len();
        let size = n.next_power_of_two();
        self.ensure_shape(n, size, PackedPair::identity::<AndWords>());
        for (i, &cond) in conditions.iter().enumerate() {
            let seg = if i == oldest { !0 } else { 0 };
            self.summaries[size + i] = PackedPair::leaf(cond, seg);
        }
        for k in (1..size).rev() {
            self.summaries[k] =
                self.summaries[2 * k].combine::<AndWords>(self.summaries[2 * k + 1]);
        }
        let root = self.summaries[1];
        self.prefix[1] = root;
        for k in 1..size {
            let p = self.prefix[k];
            self.prefix[2 * k] = p;
            self.prefix[2 * k + 1] = p.combine::<AndWords>(self.summaries[2 * k]);
        }
        out.clear();
        out.extend(self.prefix[size..size + n].iter().map(|p| p.value));
    }
}

/// Set bit `lane` of `words[i]` to `bits[i]` for every station `i` —
/// loads one boolean CSPP instance into a lane of a packed problem.
///
/// # Panics
/// Panics if `lane >= 64` or `words.len() != bits.len()`.
pub fn pack_lane(words: &mut [u64], lane: usize, bits: &[bool]) {
    assert!(lane < 64, "lane out of range");
    assert_eq!(words.len(), bits.len(), "station count mismatch");
    for (w, &b) in words.iter_mut().zip(bits) {
        *w = (*w & !(1u64 << lane)) | ((b as u64) << lane);
    }
}

/// Extract lane `lane` of each word as a boolean vector — the inverse
/// of [`pack_lane`].
///
/// # Panics
/// Panics if `lane >= 64`.
pub fn unpack_lane(words: &[u64], lane: usize) -> Vec<bool> {
    assert!(lane < 64, "lane out of range");
    words.iter().map(|w| w >> lane & 1 == 1).collect()
}

/// A fixed-length bitset over `u64` words with word-parallel clears —
/// the packed replacement for per-cycle `Vec<bool>` occupancy maps
/// (butterfly stage wires) and per-register readiness lanes (the
/// engine's packed forwarding network).
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

    /// Write bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn assign(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index out of range");
        let w = &mut self.words[i / 64];
        *w = (*w & !(1u64 << (i % 64))) | ((v as u64) << (i % 64));
    }

    /// True iff any bit is raised (word-parallel scan).
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of raised bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// H-tree communication distance between ring positions `a` and `b`:
/// the height of their lowest common ancestor, i.e. the bit-length of
/// `a XOR b`. Zero iff `a == b`.
#[inline]
pub fn hop_level(a: usize, b: usize) -> usize {
    (usize::BITS - (a ^ b).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cspp::cspp_ring;
    use crate::op::{BoolAnd, BoolOr};

    /// Identity really is two-sided for both operators.
    #[test]
    fn identities_absorb() {
        for v in [0u64, !0, 0xDEAD_BEEF] {
            for s in [0u64, !0, 0xF0F0] {
                let x = PackedPair::leaf(v, s);
                assert_eq!(PackedPair::identity::<AndWords>().combine::<AndWords>(x), x);
                assert_eq!(x.combine::<AndWords>(PackedPair::identity::<AndWords>()), x);
                assert_eq!(PackedPair::identity::<OrWords>().combine::<OrWords>(x), x);
                assert_eq!(x.combine::<OrWords>(PackedPair::identity::<OrWords>()), x);
            }
        }
    }

    /// Figure 5's worked example in one lane of a packed ring.
    #[test]
    fn figure5_example_in_a_lane() {
        let n = 8;
        let lane = 17;
        let mut cond = vec![0u64; n];
        let bits: Vec<bool> = (0..n).map(|i| [6, 7, 0, 1, 3].contains(&i)).collect();
        pack_lane(&mut cond, lane, &bits);
        let mut scratch = PackedCsppScratch::new();
        let mut out = Vec::new();
        scratch.all_earlier_into(&cond, 6, &mut out);
        let got = unpack_lane(&out, lane);
        for (i, &o) in got.iter().enumerate() {
            let expected = matches!(i, 7 | 0 | 1 | 2);
            if i != 6 {
                assert_eq!(o, expected, "station {i}");
            }
        }
    }

    /// Tree vs ring, exhaustive over small rings with dense random
    /// words (each word exercises 64 lanes at once).
    #[test]
    fn tree_matches_ring_small_sizes() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut scratch = PackedCsppScratch::new();
        let mut out = Vec::new();
        for n in 1..=33usize {
            let values: Vec<u64> = (0..n).map(|_| next()).collect();
            let seg: Vec<u64> = (0..n).map(|_| next() & next()).collect();
            scratch.cspp_into::<AndWords>(&values, &seg, &mut out);
            assert_eq!(out, packed_cspp_ring::<AndWords>(&values, &seg), "n={n}");
            scratch.cspp_into::<OrWords>(&values, &seg, &mut out);
            assert_eq!(out, packed_cspp_ring::<OrWords>(&values, &seg), "n={n}");
        }
    }

    /// Lane extraction of the packed ring matches the generic ring.
    #[test]
    fn lanes_match_generic_reference() {
        let bits_v = [true, false, true, true, false];
        let bits_s = [false, true, false, false, true];
        let mut values = vec![0u64; 5];
        let mut seg = vec![0u64; 5];
        pack_lane(&mut values, 0, &bits_v);
        pack_lane(&mut seg, 0, &bits_s);
        // A second, different lane to check independence.
        let bits_v2: Vec<bool> = bits_v.iter().map(|b| !b).collect();
        pack_lane(&mut values, 63, &bits_v2);
        pack_lane(&mut seg, 63, &[false; 5]);

        let packed = packed_cspp_ring::<AndWords>(&values, &seg);
        let generic = cspp_ring::<bool, BoolAnd>(&bits_v, &bits_s);
        for i in 0..5 {
            assert_eq!(packed[i].value & 1 == 1, generic[i].value, "v {i}");
            assert_eq!(packed[i].seg & 1 == 1, generic[i].seg, "s {i}");
        }
        let generic2 = cspp_ring::<bool, BoolOr>(&bits_v2, &[false; 5]);
        let packed_or = packed_cspp_ring::<OrWords>(&values, &seg);
        for i in 0..5 {
            // Lane 63 has no boundary: don't-care values, seg low.
            assert!(!generic2[i].seg);
            assert_eq!(packed_or[i].seg >> 63 & 1, 0, "wrap lane seg {i}");
        }
    }

    #[test]
    fn seeded_exclusive_matches_serial() {
        let values = [0b1u64, 0b0, 0b1, 0b1];
        let seg = [0b0u64, 0b1, 0b0, 0b0];
        let init = PackedPair::leaf(0b1, 0b1);
        let mut scratch = PackedCsppScratch::new();
        let mut out = Vec::new();
        scratch.segmented_exclusive_into::<AndWords>(&values, &seg, init, &mut out);
        // Serial reference.
        let mut acc = init;
        for i in 0..4 {
            assert_eq!(out[i], acc, "station {i}");
            acc = acc.combine::<AndWords>(PackedPair::leaf(values[i], seg[i]));
        }
    }

    #[test]
    fn bitwords_basics() {
        let mut b = BitWords::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.any());
        b.set(0);
        b.set(64);
        b.assign(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count(), 3);
        b.assign(64, false);
        assert!(!b.get(64));
        b.clear();
        assert!(!b.any());
        assert_eq!(b.count(), 0);
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn bitwords_bounds_checked() {
        let b = BitWords::new(10);
        let _ = b.get(10);
    }

    #[test]
    #[should_panic(expected = "oldest station out of range")]
    fn all_earlier_bounds_checked() {
        let mut s = PackedCsppScratch::new();
        let mut out = Vec::new();
        s.all_earlier_into(&[1, 2], 7, &mut out);
    }
}

//! Property tests pinning the packed SWAR CSPP (`packed` module)
//! against the generic ring reference, lane by lane, on random ring
//! sizes `n ∈ [1, 256]` — including non-power-of-two widths and
//! zero-segment (all-wrap) inputs.

use proptest::prelude::*;
use ultrascalar_prefix::cspp::{cspp_all_earlier, cspp_ring, segmented_prefix_ring};
use ultrascalar_prefix::op::{BoolAnd, BoolOr, SegPair};
use ultrascalar_prefix::packed::{
    packed_cspp_ring, unpack_lane, AndWords, OrWords, PackedCsppScratch, PackedPair, WordOp,
};

/// Check every lane of a packed CSPP result against the generic ring
/// reference run on that lane's booleans.
fn assert_lanes_match_and(values: &[u64], seg: &[u64], packed: &[PackedPair]) {
    let n = values.len();
    for lane in 0..64 {
        let lane_v = unpack_lane(values, lane);
        let lane_s = unpack_lane(seg, lane);
        let generic = cspp_ring::<bool, BoolAnd>(&lane_v, &lane_s);
        for i in 0..n {
            let gs = generic[i].seg;
            assert_eq!(
                packed[i].seg >> lane & 1 == 1,
                gs,
                "AND lane {lane} station {i}: seg mismatch"
            );
            // Lanes with no boundary anywhere carry wrap-around
            // artefact values in both forms; only compare values when
            // the segment flag marks them meaningful. (The artefacts
            // agree too, but only the flagged ones are contractual.)
            if gs {
                assert_eq!(
                    packed[i].value >> lane & 1 == 1,
                    generic[i].value,
                    "AND lane {lane} station {i}: value mismatch"
                );
            }
        }
    }
}

proptest! {
    /// Packed ring reference vs 64 generic rings, AND lanes.
    #[test]
    fn packed_ring_matches_generic_per_lane_and(
        values in proptest::collection::vec(any::<u64>(), 1..=256),
        segbits in proptest::collection::vec(any::<u64>(), 1..=256),
    ) {
        let n = values.len().min(segbits.len());
        let values = &values[..n];
        let seg = &segbits[..n];
        let packed = packed_cspp_ring::<AndWords>(values, seg);
        assert_lanes_match_and(values, seg, &packed);
    }

    /// Packed ring reference vs 64 generic rings, OR lanes.
    #[test]
    fn packed_ring_matches_generic_per_lane_or(
        values in proptest::collection::vec(any::<u64>(), 1..=256),
        segbits in proptest::collection::vec(any::<u64>(), 1..=256),
    ) {
        let n = values.len().min(segbits.len());
        let values = &values[..n];
        let seg = &segbits[..n];
        let packed = packed_cspp_ring::<OrWords>(values, seg);
        for lane in 0..64 {
            let lane_v = unpack_lane(values, lane);
            let lane_s = unpack_lane(seg, lane);
            let generic = cspp_ring::<bool, BoolOr>(&lane_v, &lane_s);
            for i in 0..n {
                prop_assert_eq!(
                    packed[i].seg >> lane & 1 == 1,
                    generic[i].seg,
                    "OR lane {} station {}", lane, i
                );
                if generic[i].seg {
                    prop_assert_eq!(
                        packed[i].value >> lane & 1 == 1,
                        generic[i].value,
                        "OR lane {} station {}", lane, i
                    );
                }
            }
        }
    }

    /// Log-depth packed tree vs packed ring reference — exact equality
    /// including wrap-around artefact values, on random widths.
    #[test]
    fn packed_tree_matches_packed_ring(
        values in proptest::collection::vec(any::<u64>(), 1..=256),
        segbits in proptest::collection::vec(any::<u64>(), 1..=256),
    ) {
        let n = values.len().min(segbits.len());
        let values = &values[..n];
        let seg = &segbits[..n];
        let mut scratch = PackedCsppScratch::new();
        let mut out = Vec::new();
        scratch.cspp_into::<AndWords>(values, seg, &mut out);
        prop_assert_eq!(&out, &packed_cspp_ring::<AndWords>(values, seg));
        scratch.cspp_into::<OrWords>(values, seg, &mut out);
        prop_assert_eq!(&out, &packed_cspp_ring::<OrWords>(values, seg));
    }

    /// Zero-segment inputs: every lane wraps. The packed forms must
    /// report seg = 0 everywhere and still agree with each other.
    #[test]
    fn packed_zero_segment_inputs_wrap(
        values in proptest::collection::vec(any::<u64>(), 1..=256),
    ) {
        let seg = vec![0u64; values.len()];
        let ring = packed_cspp_ring::<AndWords>(&values, &seg);
        for (i, p) in ring.iter().enumerate() {
            prop_assert_eq!(p.seg, 0, "station {}", i);
        }
        let mut scratch = PackedCsppScratch::new();
        let mut out = Vec::new();
        scratch.cspp_into::<AndWords>(&values, &seg, &mut out);
        prop_assert_eq!(&out, &ring);
        assert_lanes_match_and(&values, &seg, &ring);
    }

    /// Seeded non-cyclic exclusive prefix vs the generic segmented
    /// ring, lane by lane (exact: the seed provides the lane history,
    /// so there are no wrap artefacts).
    #[test]
    fn packed_seeded_exclusive_matches_generic_per_lane(
        values in proptest::collection::vec(any::<u64>(), 1..=256),
        segbits in proptest::collection::vec(any::<u64>(), 1..=256),
        init_v in any::<u64>(),
        init_s in any::<u64>(),
    ) {
        let n = values.len().min(segbits.len());
        let values = &values[..n];
        let seg = &segbits[..n];
        let init = PackedPair::leaf(init_v, init_s);
        let mut scratch = PackedCsppScratch::new();
        let mut out = Vec::new();
        scratch.segmented_exclusive_into::<AndWords>(values, seg, init, &mut out);
        for lane in 0..64 {
            let lane_v = unpack_lane(values, lane);
            let lane_s = unpack_lane(seg, lane);
            let lane_init = SegPair::leaf(init_v >> lane & 1 == 1, init_s >> lane & 1 == 1);
            let generic = segmented_prefix_ring::<bool, BoolAnd>(&lane_v, &lane_s, lane_init);
            for i in 0..n {
                prop_assert_eq!(
                    out[i].value >> lane & 1 == 1,
                    generic[i].value,
                    "lane {} station {}", lane, i
                );
                prop_assert_eq!(
                    out[i].seg >> lane & 1 == 1,
                    generic[i].seg,
                    "lane {} station {}", lane, i
                );
            }
        }
    }

    /// Figure 5 convenience form vs the generic one, lane by lane.
    #[test]
    fn packed_all_earlier_matches_generic(
        conds in proptest::collection::vec(any::<u64>(), 1..=256),
        oldest_raw in any::<usize>(),
    ) {
        let oldest = oldest_raw % conds.len();
        let mut scratch = PackedCsppScratch::new();
        let mut out = Vec::new();
        scratch.all_earlier_into(&conds, oldest, &mut out);
        for lane in 0..64 {
            let lane_c = unpack_lane(&conds, lane);
            let generic = cspp_all_earlier(&lane_c, oldest);
            prop_assert_eq!(
                &unpack_lane(&out, lane),
                &generic,
                "lane {}", lane
            );
        }
    }
}

/// Deterministic xorshift for the exhaustive sweeps below.
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Tree vs ring for one operator at every ring size `n` in
/// `1..=130`, with several random word fills per size. One scratch is
/// reused across all sizes, so the sweep also exercises the
/// shape-change path (`ensure_shape` re-padding between every size).
fn sweep_tree_vs_ring<O: WordOp>(seed: u64) {
    let mut rng = XorShift(seed);
    let mut scratch = PackedCsppScratch::new();
    let mut out = Vec::new();
    for n in 1..=130usize {
        for _fill in 0..4 {
            let values: Vec<u64> = (0..n).map(|_| rng.next()).collect();
            // Sparse-ish segments so some lanes wrap (all-low columns).
            let seg: Vec<u64> = (0..n)
                .map(|_| rng.next() & rng.next() & rng.next())
                .collect();
            let ring = packed_cspp_ring::<O>(&values, &seg);
            scratch.cspp_into::<O>(&values, &seg, &mut out);
            assert_eq!(out, ring, "n={n}");
        }
    }
}

/// Exhaustive differential sweep of the packed CSPP tree against the
/// ring oracle for **every** ring size `n ∈ 1..=130` — deterministic
/// coverage of the word-boundary sizes 63/64/65/127/128/129 and every
/// non-power-of-two padding shape in between, for both operators.
#[test]
fn ring_oracle_sweep_every_n_1_to_130() {
    sweep_tree_vs_ring::<AndWords>(0x1357_9BDF_2468_ACE0);
    sweep_tree_vs_ring::<OrWords>(0x0FED_CBA9_8765_4321);
}

/// The same sweep against the *generic* per-lane ring at the word's
/// edge lanes: the packed form is contractually a stack of 64
/// independent boolean networks, so lanes 0 and 63 must reproduce
/// `cspp_ring` on their booleans exactly.
#[test]
fn ring_oracle_sweep_boundary_lanes_vs_generic() {
    let mut rng = XorShift(0xB16B_00B5_0000_1337);
    for n in 1..=130usize {
        let values: Vec<u64> = (0..n).map(|_| rng.next()).collect();
        let seg: Vec<u64> = (0..n).map(|_| rng.next() & rng.next()).collect();
        let packed = packed_cspp_ring::<AndWords>(&values, &seg);
        for lane in [0usize, 63] {
            let lane_v = unpack_lane(&values, lane);
            let lane_s = unpack_lane(&seg, lane);
            let generic = cspp_ring::<bool, BoolAnd>(&lane_v, &lane_s);
            for i in 0..n {
                assert_eq!(
                    packed[i].seg >> lane & 1 == 1,
                    generic[i].seg,
                    "n={n} lane {lane} station {i}: seg"
                );
                if generic[i].seg {
                    assert_eq!(
                        packed[i].value >> lane & 1 == 1,
                        generic[i].value,
                        "n={n} lane {lane} station {i}: value"
                    );
                }
            }
        }
    }
}

/// Hop-level geometry: the H-tree LCA height is the bit-length of
/// `a XOR b`, zero on the diagonal.
#[test]
fn hop_level_is_xor_bit_length() {
    use ultrascalar_prefix::packed::hop_level;
    assert_eq!(hop_level(5, 5), 0);
    assert_eq!(hop_level(4, 5), 1);
    assert_eq!(hop_level(0, 7), 3);
    assert_eq!(hop_level(0, 63), 6);
}

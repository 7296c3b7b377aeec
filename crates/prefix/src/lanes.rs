//! Lane-parallel 32-bit values: 64 independent simulations per plane
//! word.
//!
//! A [`LaneValue`] is 32 bit-planes of 64 lanes: bit `l` of plane `p`
//! is bit `p` of *simulation* `l`'s value, so a single word-parallel
//! operation advances the same architectural register of 64
//! **independent machines** at once (the QiMeng-CPU-v2
//! data-dependency-as-bitplane trick applied to whole runs instead of
//! one run's flags). The lane batch engine in `ultrascalar` keeps its
//! register files in this form.
//!
//! Three evaluation strategies cover the ISA's operator zoo:
//!
//! * **planewise** — `And`/`Or`/`Xor` are one word op per plane;
//!   `Add`/`Sub` are a 32-step ripple carry over plane words (each step
//!   computes all 64 lanes' carry bits in parallel); comparisons
//!   (`Slt`/`Sltu` and every branch condition) reduce to the borrow
//!   word of a plane-wise subtract, yielding a per-lane **mask** word
//!   directly — exactly the form the divergence check needs;
//! * **plane relabelling** — a shift by a lane-uniform amount moves
//!   whole planes (`v[p] ← v[p ∓ sh]`), zero or sign-fill supplied by
//!   the vacated end;
//! * **extract/compute/deposit** — `Mul`/`Div`/`Rem` and lane-varying
//!   shifts transpose the 64×32 bit matrix out to ordinary `u32`s
//!   ([`extract`]), apply the scalar operator per lane, and transpose
//!   back ([`deposit`]). The transpose is the textbook 64×64 in-place
//!   block-swap network, 6 levels of masked exchanges.
//!
//! The transpose is the workspace's one runtime-dispatched kernel: on
//! AVX2 hosts it runs the vector form in [`crate::simd`] (measured
//! there); elsewhere it runs the scalar network below, which is also
//! the reference the AVX2 form is tested against bit for bit.
//! Everything else here is scalar word code: vector forms of the
//! ripple adder and the planewise ops lost to these loops on
//! measurement.
//!
//! Every operation is total on all 64 lanes — inactive lanes simply
//! compute don't-care values — so callers gate by a lane *mask* instead
//! of branching per lane.

/// Lane capacity of one plane word: one independent simulation per bit.
pub const LANES: usize = 64;

/// The 64-lane 32-bit value bundle: bit `l` of plane `p` is bit `p` of
/// lane `l`'s value.
pub type LaneValue = [u64; 32];

/// A lane mask with the low `n` bits raised.
///
/// # Panics
/// Panics if `n > 64`.
#[inline]
pub fn mask_lo(n: usize) -> u64 {
    assert!(n <= LANES, "lane count out of range");
    if n == LANES {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Transpose a 64×64 bit matrix in place (LSB-first: bit `c` of row
/// `r` moves to bit `r` of row `c`), on the AVX2 form where the host
/// has it and the scalar network otherwise.
fn transpose64(a: &mut [u64; 64]) {
    if !crate::simd::transpose64_avx2(a) {
        transpose64_scalar(a);
    }
}

/// The classic block-swap network: at level `j` every row pair
/// `(k, k|j)` exchanges the high-`j` half of `k` with the low-`j` half
/// of `k|j` under mask `m`.
fn transpose64_scalar(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << (j.max(1));
    }
}

/// Pack 64 per-lane values into bit-planes (lane `l` ← `vals[l]`).
pub fn deposit(vals: &[u32; LANES]) -> LaneValue {
    let mut rows = [0u64; 64];
    for (row, &v) in rows.iter_mut().zip(vals.iter()) {
        *row = v as u64;
    }
    transpose64(&mut rows);
    let mut out = [0u64; 32];
    out.copy_from_slice(&rows[..32]);
    out
}

/// Unpack the bit-planes back into 64 per-lane values.
pub fn extract(v: &LaneValue, vals: &mut [u32; LANES]) {
    let mut rows = [0u64; 64];
    rows[..32].copy_from_slice(v);
    transpose64(&mut rows);
    for (val, &row) in vals.iter_mut().zip(rows.iter()) {
        *val = row as u32;
    }
}

/// The same value in every lane: plane `p` is all-ones iff bit `p` of
/// `v` is set.
pub fn broadcast(v: u32) -> LaneValue {
    std::array::from_fn(|p| if v >> p & 1 == 1 { u64::MAX } else { 0 })
}

/// Read one lane's value (bit gather; [`extract`] amortises better for
/// all 64).
#[inline]
pub fn lane(v: &LaneValue, l: usize) -> u32 {
    assert!(l < LANES, "lane out of range");
    let mut out = 0u32;
    for (p, &plane) in v.iter().enumerate() {
        out |= ((plane >> l & 1) as u32) << p;
    }
    out
}

/// Lane-wise wrapping `a + b`: a 32-step ripple carry where each step
/// advances all 64 lanes' carry bits word-parallel.
///
/// Deliberately **not** AVX2-dispatched: a vectorized Kogge–Stone
/// carry network was measured at ~0.3× of this ripple on an AVX2 host
/// — the ripple's single-word carry chain inlines into four scalar ops
/// per plane with no memory round-trips, while the log-depth network
/// pays per-round load/store traffic.
pub fn add(a: &LaneValue, b: &LaneValue) -> LaneValue {
    let mut out = [0u64; 32];
    let mut carry = 0u64;
    for p in 0..32 {
        let (x, y) = (a[p], b[p]);
        let xy = x ^ y;
        out[p] = xy ^ carry;
        carry = (x & y) | (carry & xy);
    }
    out
}

/// Lane-wise wrapping `a - b` (as `a + !b + 1`).
pub fn sub(a: &LaneValue, b: &LaneValue) -> LaneValue {
    let mut out = [0u64; 32];
    let mut carry = u64::MAX;
    for p in 0..32 {
        let (x, y) = (a[p], !b[p]);
        let xy = x ^ y;
        out[p] = xy ^ carry;
        carry = (x & y) | (carry & xy);
    }
    out
}

/// Lane-wise bitwise AND.
pub fn and(a: &LaneValue, b: &LaneValue) -> LaneValue {
    let mut out = [0u64; 32];
    for p in 0..32 {
        out[p] = a[p] & b[p];
    }
    out
}

/// Lane-wise bitwise OR.
pub fn or(a: &LaneValue, b: &LaneValue) -> LaneValue {
    let mut out = [0u64; 32];
    for p in 0..32 {
        out[p] = a[p] | b[p];
    }
    out
}

/// Lane-wise bitwise XOR.
pub fn xor(a: &LaneValue, b: &LaneValue) -> LaneValue {
    let mut out = [0u64; 32];
    for p in 0..32 {
        out[p] = a[p] ^ b[p];
    }
    out
}

/// Mask of lanes where `a == b` (accumulated plane difference).
pub fn eq_mask(a: &LaneValue, b: &LaneValue) -> u64 {
    let mut diff = 0u64;
    for p in 0..32 {
        diff |= a[p] ^ b[p];
    }
    !diff
}

/// Carry word of the plane-wise `a + !b + 1`: lane bit set iff **no**
/// borrow, i.e. `a >= b` unsigned. `flip_sign` inverts plane 31 of
/// both operands, turning the unsigned compare into the signed one.
fn carry_out(a: &LaneValue, b: &LaneValue, flip_sign: bool) -> u64 {
    let mut carry = u64::MAX;
    for p in 0..32 {
        let flip = if flip_sign && p == 31 { u64::MAX } else { 0 };
        let x = a[p] ^ flip;
        let y = !(b[p] ^ flip);
        let xy = x ^ y;
        carry = (x & y) | (carry & xy);
    }
    carry
}

/// Mask of lanes where `a < b` unsigned.
#[inline]
pub fn ltu_mask(a: &LaneValue, b: &LaneValue) -> u64 {
    !carry_out(a, b, false)
}

/// Mask of lanes where `a < b` signed (two's complement).
#[inline]
pub fn lt_mask(a: &LaneValue, b: &LaneValue) -> u64 {
    !carry_out(a, b, true)
}

/// A 0/1 value per lane from a mask (plane 0 ← mask) — the `Slt`/`Sltu`
/// result form.
pub fn mask_value(mask: u64) -> LaneValue {
    let mut out = [0u64; 32];
    out[0] = mask;
    out
}

/// Lane-uniform logical left shift (`sh` already masked to `0..32`):
/// pure plane relabelling, zero-filled from below.
///
/// # Panics
/// Panics if `sh >= 32`.
pub fn sll_uniform(a: &LaneValue, sh: u32) -> LaneValue {
    let sh = sh as usize;
    assert!(sh < 32, "shift amount must be pre-masked");
    let mut out = [0u64; 32];
    out[sh..].copy_from_slice(&a[..32 - sh]);
    out
}

/// Lane-uniform logical right shift: plane relabelling, zero-filled
/// from above.
///
/// # Panics
/// Panics if `sh >= 32`.
pub fn srl_uniform(a: &LaneValue, sh: u32) -> LaneValue {
    let sh = sh as usize;
    assert!(sh < 32, "shift amount must be pre-masked");
    let mut out = [0u64; 32];
    out[..32 - sh].copy_from_slice(&a[sh..]);
    out
}

/// Lane-uniform arithmetic right shift: plane relabelling, sign-plane
/// fill from above.
///
/// # Panics
/// Panics if `sh >= 32`.
pub fn sra_uniform(a: &LaneValue, sh: u32) -> LaneValue {
    let sh = sh as usize;
    assert!(sh < 32, "shift amount must be pre-masked");
    let mut out = [0u64; 32];
    let sign = a[31];
    for p in 0..32 {
        out[p] = if p + sh < 32 { a[p + sh] } else { sign };
    }
    out
}

/// Are all lanes raised in `mask` holding the same value? Checked
/// plane-by-plane against the value of the lowest raised lane; an
/// empty mask is trivially uniform (returning that reference value as
/// 0).
pub fn uniform_value(a: &LaneValue, mask: u64) -> Option<u32> {
    if mask == 0 {
        return Some(0);
    }
    let reference = lane(a, mask.trailing_zeros() as usize);
    for (p, &plane) in a.iter().enumerate() {
        let want = if reference >> p & 1 == 1 { mask } else { 0 };
        if plane & mask != want {
            return None;
        }
    }
    Some(reference)
}

/// Escape hatch for operators with no cheap plane form (`Mul`, `Div`,
/// `Rem`, lane-varying shifts): extract both operands, apply the scalar
/// `f` per lane, deposit the results. Two transposes out, one back.
pub fn map2(a: &LaneValue, b: &LaneValue, f: impl Fn(u32, u32) -> u32) -> LaneValue {
    let mut va = [0u32; LANES];
    let mut vb = [0u32; LANES];
    extract(a, &mut va);
    extract(b, &mut vb);
    let mut out = [0u32; LANES];
    for l in 0..LANES {
        out[l] = f(va[l], vb[l]);
    }
    deposit(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_lanes(seed: u64) -> [u32; LANES] {
        let mut s = seed.max(1);
        let mut out = [0u32; LANES];
        for v in out.iter_mut() {
            *v = xorshift(&mut s) as u32;
        }
        // Exercise the comparison edge cases in fixed lanes.
        out[0] = 0;
        out[1] = u32::MAX;
        out[2] = 0x8000_0000;
        out[3] = 0x7FFF_FFFF;
        out
    }

    #[test]
    fn deposit_extract_roundtrip_and_lane_semantics() {
        let vals = random_lanes(42);
        let v = deposit(&vals);
        // Plane semantics: bit l of plane p is bit p of lane l.
        for (l, &val) in vals.iter().enumerate() {
            for (p, plane) in v.iter().enumerate() {
                assert_eq!(plane >> l & 1, (val >> p & 1) as u64, "plane {p} lane {l}");
            }
            assert_eq!(lane(&v, l), val);
        }
        let mut back = [0u32; LANES];
        extract(&v, &mut back);
        assert_eq!(back, vals);
    }

    #[test]
    fn broadcast_matches_deposit_of_equal_lanes() {
        for v in [0u32, 1, u32::MAX, 0xDEAD_BEEF, 0x8000_0000] {
            assert_eq!(broadcast(v), deposit(&[v; LANES]));
        }
    }

    /// The AVX2 transpose behind [`deposit`]/[`extract`] against the
    /// scalar block-swap network, called directly on the same inputs:
    /// every single-bit matrix, all-zero, all-ones and 256 seeded
    /// random fills. The scalar form must also be its own inverse.
    /// The AVX2 half is skipped on hosts without AVX2, where the scalar
    /// network is the only path.
    #[test]
    fn transpose_avx2_matches_scalar_network() {
        let mut inputs: Vec<[u64; 64]> = Vec::new();
        for r in 0..64 {
            for c in 0..64 {
                let mut a = [0u64; 64];
                a[r] = 1 << c;
                inputs.push(a);
            }
        }
        inputs.push([0; 64]);
        inputs.push([u64::MAX; 64]);
        let mut s = 0x5EED_7A45_0000_0001u64;
        for _ in 0..256 {
            inputs.push(std::array::from_fn(|_| xorshift(&mut s)));
        }
        for (i, input) in inputs.iter().enumerate() {
            let mut scalar = *input;
            transpose64_scalar(&mut scalar);
            for (r, row) in input.iter().enumerate() {
                for (c, col) in scalar.iter().enumerate() {
                    assert_eq!(col >> r & 1, row >> c & 1, "input {i} ({r}, {c})");
                }
            }
            let mut back = scalar;
            transpose64_scalar(&mut back);
            assert_eq!(&back, input, "input {i}: scalar is not an involution");
            let mut vector = *input;
            if crate::simd::transpose64_avx2(&mut vector) {
                assert_eq!(vector, scalar, "input {i}: AVX2 differs from scalar");
            }
        }
    }

    #[test]
    fn arithmetic_matches_scalar_per_lane() {
        for seed in 1..=8u64 {
            let a = random_lanes(seed);
            let b = random_lanes(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (va, vb) = (deposit(&a), deposit(&b));
            let mut got = [0u32; LANES];
            extract(&add(&va, &vb), &mut got);
            for l in 0..LANES {
                assert_eq!(got[l], a[l].wrapping_add(b[l]), "add lane {l}");
            }
            extract(&sub(&va, &vb), &mut got);
            for l in 0..LANES {
                assert_eq!(got[l], a[l].wrapping_sub(b[l]), "sub lane {l}");
            }
            extract(&and(&va, &vb), &mut got);
            for l in 0..LANES {
                assert_eq!(got[l], a[l] & b[l], "and lane {l}");
            }
            extract(&or(&va, &vb), &mut got);
            for l in 0..LANES {
                assert_eq!(got[l], a[l] | b[l], "or lane {l}");
            }
            extract(&xor(&va, &vb), &mut got);
            for l in 0..LANES {
                assert_eq!(got[l], a[l] ^ b[l], "xor lane {l}");
            }
        }
    }

    #[test]
    fn comparison_masks_match_scalar_per_lane() {
        for seed in 1..=8u64 {
            let mut a = random_lanes(seed);
            let mut b = random_lanes(seed.wrapping_mul(0xD134_2543_DE82_EF95));
            // Force equal lanes so eq has both polarities.
            a[5] = b[5];
            a[6] = b[6];
            b[7] = a[7];
            let (va, vb) = (deposit(&a), deposit(&b));
            let eq = eq_mask(&va, &vb);
            let ltu = ltu_mask(&va, &vb);
            let lt = lt_mask(&va, &vb);
            for l in 0..LANES {
                assert_eq!(eq >> l & 1 == 1, a[l] == b[l], "eq lane {l}");
                assert_eq!(ltu >> l & 1 == 1, a[l] < b[l], "ltu lane {l}");
                assert_eq!(
                    lt >> l & 1 == 1,
                    (a[l] as i32) < (b[l] as i32),
                    "lt lane {l}"
                );
            }
        }
    }

    #[test]
    fn uniform_shifts_match_scalar_per_lane() {
        let a = random_lanes(77);
        let va = deposit(&a);
        let mut got = [0u32; LANES];
        for sh in [0u32, 1, 7, 13, 31] {
            extract(&sll_uniform(&va, sh), &mut got);
            for l in 0..LANES {
                assert_eq!(got[l], a[l] << sh, "sll {sh} lane {l}");
            }
            extract(&srl_uniform(&va, sh), &mut got);
            for l in 0..LANES {
                assert_eq!(got[l], a[l] >> sh, "srl {sh} lane {l}");
            }
            extract(&sra_uniform(&va, sh), &mut got);
            for l in 0..LANES {
                assert_eq!(got[l], ((a[l] as i32) >> sh) as u32, "sra {sh} lane {l}");
            }
        }
    }

    #[test]
    fn map2_applies_scalar_op_per_lane() {
        let a = random_lanes(5);
        let b = random_lanes(6);
        let got = map2(&deposit(&a), &deposit(&b), |x, y| {
            x.wrapping_mul(y).rotate_left(3)
        });
        for l in 0..LANES {
            assert_eq!(lane(&got, l), a[l].wrapping_mul(b[l]).rotate_left(3));
        }
    }

    #[test]
    fn uniformity_detection() {
        let mut vals = [7u32; LANES];
        let v = deposit(&vals);
        assert_eq!(uniform_value(&v, u64::MAX), Some(7));
        assert_eq!(uniform_value(&v, 0b1010), Some(7));
        assert_eq!(uniform_value(&v, 0), Some(0));
        vals[9] = 8;
        let v = deposit(&vals);
        assert_eq!(uniform_value(&v, u64::MAX), None);
        // Lane 9 excluded from the mask: uniform again.
        assert_eq!(uniform_value(&v, !(1 << 9)), Some(7));
        assert_eq!(uniform_value(&v, 1 << 9), Some(8));
    }

    #[test]
    fn mask_helpers() {
        assert_eq!(mask_lo(0), 0);
        assert_eq!(mask_lo(1), 1);
        assert_eq!(mask_lo(5), 0b11111);
        assert_eq!(mask_lo(64), u64::MAX);
        assert_eq!(mask_value(0b101)[0], 0b101);
        assert_eq!(lane(&mask_value(0b100), 2), 1);
        assert_eq!(lane(&mask_value(0b100), 1), 0);
    }
}

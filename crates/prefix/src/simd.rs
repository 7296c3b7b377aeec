//! The workspace's one runtime-dispatched AVX2 kernel: the 64×64 bit
//! transpose behind the lane engine's deposit/extract escape
//! ([`crate::lanes::deposit`], [`crate::lanes::extract`]).
//!
//! The AVX2 form is taken whenever `is_x86_feature_detected!("avx2")`
//! holds; the scalar block-swap network in [`crate::lanes`] is the
//! fallback on every other host and the reference the AVX2 form is
//! tested against (`lanes::tests`), bit for bit. Dispatch may change
//! cost, never a result.
//!
//! It is the one vector kernel that moves an end-to-end number: on
//! usbench's `lane_pop` workload (10 alternating pairs, 8 s each,
//! seed 1) the AVX2 transpose ran at a median of 32.97 simulated
//! Minstr/s (IQR 31.68–35.16) against 28.70 (IQR 26.87–30.23) for the
//! scalar network, winning 10 of 10 pairs.
//!
//! This is the only module in the workspace allowed to use `unsafe`:
//! the intrinsic calls live behind a safe wrapper that returns `false`
//! when AVX2 is unavailable.
#![allow(unsafe_code)]

/// Does the host CPU support AVX2?
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The SIMD level the transpose dispatches to on this host: `"avx2"`
/// or `"swar"` (the scalar network). Recorded into bench artifacts so
/// numbers from different hosts are comparable.
pub fn active_simd_level() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "swar"
    }
}

/// AVX2 form of the lane-parallel 64×64 bit transpose, returning
/// `false` (matrix untouched) when the host lacks AVX2.
#[inline]
pub(crate) fn transpose64_avx2(a: &mut [u64; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: AVX2 availability checked.
        unsafe { x86::transpose64(a) };
        return true;
    }
    let _ = a;
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// AVX2 64×64 bit transpose. Levels `j ≥ 4` exchange 4-row runs
    /// with plain vector loads; levels 2 and 1 pair rows inside one
    /// 256-bit register via lane permutes.
    #[target_feature(enable = "avx2")]
    pub(super) fn transpose64(a: &mut [u64; 64]) {
        // SAFETY: all loads/stores stay inside the 64-row array; the
        // index walks mirror the scalar block-swap exactly.
        unsafe {
            let p = a.as_mut_ptr();
            let mut j = 32usize;
            let mut m: u64 = 0x0000_0000_FFFF_FFFF;
            while j >= 4 {
                let mv = _mm256_set1_epi64x(m as i64);
                let jc = _mm_cvtsi64_si128(j as i64);
                let mut k = 0usize;
                while k < 64 {
                    let lo = _mm256_loadu_si256(p.add(k).cast());
                    let hi = _mm256_loadu_si256(p.add(k + j).cast());
                    let t = _mm256_and_si256(_mm256_xor_si256(_mm256_srl_epi64(lo, jc), hi), mv);
                    _mm256_storeu_si256(
                        p.add(k).cast(),
                        _mm256_xor_si256(lo, _mm256_sll_epi64(t, jc)),
                    );
                    _mm256_storeu_si256(p.add(k + j).cast(), _mm256_xor_si256(hi, t));
                    k = ((k | j) + 4) & !j;
                }
                j >>= 1;
                m ^= m << j.max(1);
            }
            // j = 2: pairs (k, k+2) inside each 4-row register.
            let m2 = _mm256_set1_epi64x(0x3333_3333_3333_3333u64 as i64);
            for k in (0..64).step_by(4) {
                let v = _mm256_loadu_si256(p.add(k).cast());
                let w = _mm256_permute4x64_epi64::<0x4E>(v); // [a2, a3, a0, a1]
                let t = _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64::<2>(v), w), m2);
                let t2 = _mm256_permute4x64_epi64::<0x44>(t); // [t0, t1, t0, t1]
                let delta = _mm256_blend_epi32::<0xF0>(_mm256_slli_epi64::<2>(t2), t2);
                _mm256_storeu_si256(p.add(k).cast(), _mm256_xor_si256(v, delta));
            }
            // j = 1: pairs (k, k+1) inside each 4-row register.
            let m1 = _mm256_set1_epi64x(0x5555_5555_5555_5555u64 as i64);
            for k in (0..64).step_by(4) {
                let v = _mm256_loadu_si256(p.add(k).cast());
                let w = _mm256_permute4x64_epi64::<0xB1>(v); // [a1, a0, a3, a2]
                let t = _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64::<1>(v), w), m1);
                let t2 = _mm256_permute4x64_epi64::<0xA0>(t); // [t0, t0, t2, t2]
                let delta = _mm256_blend_epi32::<0xCC>(_mm256_slli_epi64::<1>(t2), t2);
                _mm256_storeu_si256(p.add(k).cast(), _mm256_xor_si256(v, delta));
            }
        }
    }
}

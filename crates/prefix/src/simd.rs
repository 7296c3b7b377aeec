//! Runtime-dispatched AVX2 implementations of the substrate's hot
//! combine kernels.
//!
//! The SWAR substrate packs 64 boolean lanes per `u64` and `64·W`
//! lanes per `[u64; W]`; the inner combine loops (the per-plane value
//! multiplexer in [`crate::sliced`], the packed flag select in
//! [`crate::packed`], the 64×64 block-swap transpose in
//! [`crate::lanes`]) are natural 256-bit vector ops. This module
//! holds `std::arch` AVX2 forms of those kernels behind **runtime
//! feature detection**
//! (`is_x86_feature_detected!`): both paths are always compiled, the
//! portable SWAR form stays the dispatch fallback on non-AVX2 hosts
//! *and* the differential oracle (the ring references never dispatch),
//! and every AVX2 kernel is bit-for-bit identical to its SWAR twin —
//! dispatch may never change an observable result, only its cost.
//!
//! Dispatch is observable and forceable: [`set_force_swar`] (or the
//! `USIM_FORCE_SWAR` environment variable, read once) pins the
//! fallback so a suspect AVX2 codepath can be ruled out in the field,
//! [`ForceSwarGuard`] scopes the same pin for A/B measurement, and
//! [`detected_simd_level`]/[`active_simd_level`] report the host
//! capability and the path actually taken (recorded into bench
//! artifacts so numbers from different hosts are comparable).
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsic calls live behind safe wrappers that return `None`/`false`
//! whenever the shape is unsupported or AVX2 is unavailable, so
//! callers keep their SWAR loops as the one true fallback.
//!
//! Not everything that *could* be vectorized is: a Kogge–Stone AVX2
//! carry network for [`crate::lanes::add`] measured ~0.3× of the
//! scalar ripple (its per-round load/store traffic loses to four
//! inlined scalar ops per plane), and planewise vector ALU/compare
//! forms lost to their inlined scalar twins on call overhead alone.
//! Both were rejected on measurement (`examples/simd_ab.rs`); only
//! kernels that win on an AVX2 host are dispatched.
#![allow(unsafe_code)]

use crate::packed::{PackedPairW, WordOp};
use crate::sliced::SlicedPair;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Dispatch override: 0 = follow the `USIM_FORCE_SWAR` environment
/// default, 1 = forced SWAR, 2 = forced native.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Cached dispatch decision: 0 = uninitialised, 1 = SWAR, 2 = AVX2.
/// Invalidated (back to 0) whenever the override changes.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// `USIM_FORCE_SWAR` environment escape hatch, read once per process:
/// any non-empty value other than `"0"` forces the portable path.
fn env_forces_swar() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var_os("USIM_FORCE_SWAR").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// Does the host CPU support AVX2 (ignoring any force-SWAR override)?
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

/// The host's detected SIMD capability, ignoring overrides: `"avx2"`
/// or `"swar"`. Recorded into bench artifacts next to
/// [`active_simd_level`].
pub fn detected_simd_level() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "swar"
    }
}

/// The SIMD level dispatch will actually use right now (detection
/// combined with any force-SWAR override): `"avx2"` or `"swar"`.
pub fn active_simd_level() -> &'static str {
    if avx2_active() {
        "avx2"
    } else {
        "swar"
    }
}

/// Is the force-SWAR escape hatch currently pinning the portable path?
pub fn force_swar_active() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_forces_swar(),
    }
}

/// Force (or un-force) the portable SWAR path process-wide. `true`
/// pins SWAR; `false` pins native dispatch, overriding even a
/// `USIM_FORCE_SWAR` environment default. Dispatch never changes
/// results — both paths are bit-for-bit identical — so flipping this
/// at any time, even concurrently with running sweeps, is safe; it
/// only changes which code executes. Prefer [`ForceSwarGuard`] for
/// scoped A/B toggles.
pub fn set_force_swar(force: bool) {
    OVERRIDE.store(if force { 1 } else { 2 }, Ordering::Relaxed);
    ACTIVE.store(0, Ordering::Relaxed);
}

/// RAII pin of the force-SWAR override: [`ForceSwarGuard::force`]
/// pins the portable path, dropping the guard restores whatever
/// override was in effect before. Used by the engine's per-run
/// `force_swar` config knob and by the A/B benches.
#[derive(Debug)]
pub struct ForceSwarGuard {
    prev: u8,
}

impl ForceSwarGuard {
    /// Pin the portable SWAR path until the guard drops.
    pub fn force() -> Self {
        let prev = OVERRIDE.swap(1, Ordering::Relaxed);
        ACTIVE.store(0, Ordering::Relaxed);
        ForceSwarGuard { prev }
    }
}

impl Drop for ForceSwarGuard {
    fn drop(&mut self) {
        OVERRIDE.store(self.prev, Ordering::Relaxed);
        ACTIVE.store(0, Ordering::Relaxed);
    }
}

/// Hot-path dispatch check: one relaxed atomic load once initialised.
#[inline]
pub(crate) fn avx2_active() -> bool {
    match ACTIVE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_active(),
    }
}

#[cold]
fn init_active() -> bool {
    let active = avx2_detected() && !force_swar_active();
    ACTIVE.store(if active { 2 } else { 1 }, Ordering::Relaxed);
    active
}

/// Can the AVX2 sliced-combine kernel handle this `(B, W)` shape? The
/// kernel steers groups of four contiguous plane words with one take
/// vector, which needs the seg pattern to be 4-periodic across the
/// flattened planes (`W ∈ {1, 2, 4}`) and the plane array to be a
/// whole number of 256-bit groups.
#[inline]
pub(crate) const fn sliced_avx2_shape(b: usize, w: usize) -> bool {
    (w == 1 || w == 2 || w == 4) && (b * w).is_multiple_of(4)
}

/// AVX2 form of [`SlicedPair::combine`], or `None` when the shape is
/// unsupported or AVX2 dispatch is off — callers fall back to the
/// SWAR twin. Bit-for-bit identical to the portable form.
#[inline]
pub(crate) fn sliced_combine_avx2<const B: usize, const W: usize>(
    lhs: &SlicedPair<B, W>,
    rhs: &SlicedPair<B, W>,
) -> Option<SlicedPair<B, W>> {
    #[cfg(target_arch = "x86_64")]
    if sliced_avx2_shape(B, W) && avx2_active() {
        // SAFETY: `avx2_active` only reports true when the CPU
        // supports AVX2, and the shape predicate guarantees the
        // kernel's layout preconditions.
        return Some(unsafe { x86::sliced_combine(lhs, rhs) });
    }
    let _ = (lhs, rhs);
    None
}

/// AVX2 up-sweep (`summaries[k] = summaries[2k] ⊗ summaries[2k+1]`,
/// `k` descending) over a packed tree, returning `false` (untouched
/// buffer) when the width is unsupported or dispatch is off.
#[inline]
pub(crate) fn packed_up_sweep_avx2<O: WordOp, const W: usize>(
    summaries: &mut [PackedPairW<W>],
    size: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if (W == 2 || W == 4) && avx2_active() {
        // SAFETY: AVX2 availability checked; W restricted to the
        // widths the kernel specialises.
        unsafe { x86::packed_up_sweep::<O, W>(summaries, size) };
        return true;
    }
    let _ = (summaries, size);
    false
}

/// AVX2 down-sweep (`prefix[2k] = prefix[k]`,
/// `prefix[2k+1] = prefix[k] ⊗ summaries[2k]`, `k` ascending) over a
/// packed tree, returning `false` when unsupported or dispatch is off.
#[inline]
pub(crate) fn packed_down_sweep_avx2<O: WordOp, const W: usize>(
    prefix: &mut [PackedPairW<W>],
    summaries: &[PackedPairW<W>],
    size: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if (W == 2 || W == 4) && avx2_active() {
        // SAFETY: as in `packed_up_sweep_avx2`.
        unsafe { x86::packed_down_sweep::<O, W>(prefix, summaries, size) };
        return true;
    }
    let _ = (prefix, summaries, size);
    false
}

/// AVX2 form of the lane-parallel 64×64 bit transpose, returning
/// `false` (matrix untouched) when dispatch is off.
#[inline]
pub(crate) fn transpose64_avx2(a: &mut [u64; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: AVX2 availability checked.
        unsafe { x86::transpose64(a) };
        return true;
    }
    let _ = a;
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{PackedPairW, SlicedPair, WordOp};
    use core::arch::x86_64::*;
    use core::mem::MaybeUninit;

    /// `(rhs & take) | (lhs & !take)` as the 3-op xor-blend form.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mux(lhs: __m256i, rhs: __m256i, take: __m256i) -> __m256i {
        _mm256_xor_si256(lhs, _mm256_and_si256(_mm256_xor_si256(lhs, rhs), take))
    }

    /// The right-hand seg words replicated into the 4-periodic take
    /// pattern the flattened-planes loop steers with (`W ∈ {1, 2, 4}`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn take_pattern<const W: usize>(seg: &[u64; W]) -> __m256i {
        match W {
            1 => _mm256_set1_epi64x(seg[0] as i64),
            2 => _mm256_setr_epi64x(seg[0] as i64, seg[1] as i64, seg[0] as i64, seg[1] as i64),
            // SAFETY: this arm is only reached for W == 4 (shape
            // predicate), one whole 256-bit load of the seg array.
            _ => unsafe { _mm256_loadu_si256(seg.as_ptr().cast()) },
        }
    }

    /// AVX2 sliced combine: every group of four contiguous plane words
    /// shares the 4-periodic take pattern, so the whole `B × W` plane
    /// array is one strided xor-blend stream.
    #[target_feature(enable = "avx2")]
    pub(super) fn sliced_combine<const B: usize, const W: usize>(
        lhs: &SlicedPair<B, W>,
        rhs: &SlicedPair<B, W>,
    ) -> SlicedPair<B, W> {
        debug_assert!(super::sliced_avx2_shape(B, W));
        let take = take_pattern::<W>(&rhs.seg);
        let mut out = MaybeUninit::<SlicedPair<B, W>>::uninit();
        // SAFETY: plane arrays are contiguous `B * W` u64s; the shape
        // predicate makes that a whole number of 4-word groups, and
        // the loops below initialise every plane and seg word of
        // `out` before `assume_init`.
        unsafe {
            let lp = lhs.planes.as_ptr().cast::<u64>();
            let rp = rhs.planes.as_ptr().cast::<u64>();
            let op = (&raw mut (*out.as_mut_ptr()).planes).cast::<u64>();
            let mut i = 0;
            while i < B * W {
                let l = _mm256_loadu_si256(lp.add(i).cast());
                let r = _mm256_loadu_si256(rp.add(i).cast());
                _mm256_storeu_si256(op.add(i).cast(), mux(l, r, take));
                i += 4;
            }
            let os = (&raw mut (*out.as_mut_ptr()).seg).cast::<u64>();
            for j in 0..W {
                os.add(j).write(lhs.seg[j] | rhs.seg[j]);
            }
            out.assume_init()
        }
    }

    /// The lifted combine's value word: `sb ? vb : (va ⊗ vb)`, with
    /// the operator selected at monomorphisation time via
    /// [`WordOp::IS_AND`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn combine_value<O: WordOp>(va: __m256i, vb: __m256i, sb: __m256i) -> __m256i {
        if O::IS_AND {
            // vb & (sb | va)
            _mm256_and_si256(vb, _mm256_or_si256(sb, va))
        } else {
            // (va & !sb) | vb
            _mm256_or_si256(_mm256_andnot_si256(sb, va), vb)
        }
    }

    /// AVX2 packed combine, W = 4: one 256-bit register per field.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn packed_combine_w4<O: WordOp>(lhs: &PackedPairW<4>, rhs: &PackedPairW<4>) -> PackedPairW<4> {
        // SAFETY: `[u64; 4]` fields are exactly one 256-bit load each,
        // and both output fields are fully written before
        // `assume_init`.
        unsafe {
            let va = _mm256_loadu_si256(lhs.value.as_ptr().cast());
            let sa = _mm256_loadu_si256(lhs.seg.as_ptr().cast());
            let vb = _mm256_loadu_si256(rhs.value.as_ptr().cast());
            let sb = _mm256_loadu_si256(rhs.seg.as_ptr().cast());
            let mut out = MaybeUninit::<PackedPairW<4>>::uninit();
            let p = out.as_mut_ptr();
            _mm256_storeu_si256((&raw mut (*p).value).cast(), combine_value::<O>(va, vb, sb));
            _mm256_storeu_si256((&raw mut (*p).seg).cast(), _mm256_or_si256(sa, sb));
            out.assume_init()
        }
    }

    /// AVX2 packed combine, W = 2: the whole `#[repr(C)]` pair is one
    /// 256-bit register `[v0, v1, s0, s1]`; the value half applies the
    /// lifted combine steered by a broadcast of the seg half, the seg
    /// half is the plain OR, blended back together.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn packed_combine_w2<O: WordOp>(lhs: &PackedPairW<2>, rhs: &PackedPairW<2>) -> PackedPairW<2> {
        // SAFETY: `PackedPairW` is `#[repr(C)]` with `value` before
        // `seg`, so the 32-byte struct is one 256-bit lane group; the
        // single store writes the whole output.
        unsafe {
            let a = _mm256_loadu_si256((lhs as *const PackedPairW<2>).cast());
            let b = _mm256_loadu_si256((rhs as *const PackedPairW<2>).cast());
            // [sb0, sb1, sb0, sb1]
            let sbv = _mm256_permute4x64_epi64::<0xEE>(b);
            let value = combine_value::<O>(a, b, sbv);
            let seg = _mm256_or_si256(a, b);
            let mut out = MaybeUninit::<PackedPairW<2>>::uninit();
            _mm256_storeu_si256(
                out.as_mut_ptr().cast(),
                _mm256_blend_epi32::<0xF0>(value, seg),
            );
            out.assume_init()
        }
    }

    /// Width-dispatched packed combine (W checked by the caller).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn packed_combine<O: WordOp, const W: usize>(
        lhs: &PackedPairW<W>,
        rhs: &PackedPairW<W>,
    ) -> PackedPairW<W> {
        // SAFETY: the W matches verified by the callers make the
        // reference casts identity conversions.
        unsafe {
            match W {
                4 => {
                    let l = &*(lhs as *const PackedPairW<W>).cast::<PackedPairW<4>>();
                    let r = &*(rhs as *const PackedPairW<W>).cast::<PackedPairW<4>>();
                    let out = packed_combine_w4::<O>(l, r);
                    *(&out as *const PackedPairW<4>).cast::<PackedPairW<W>>()
                }
                _ => {
                    let l = &*(lhs as *const PackedPairW<W>).cast::<PackedPairW<2>>();
                    let r = &*(rhs as *const PackedPairW<W>).cast::<PackedPairW<2>>();
                    let out = packed_combine_w2::<O>(l, r);
                    *(&out as *const PackedPairW<2>).cast::<PackedPairW<W>>()
                }
            }
        }
    }

    /// Whole up-sweep under one AVX2 `target_feature` region so the
    /// per-node combine inlines into the loop.
    #[target_feature(enable = "avx2")]
    pub(super) fn packed_up_sweep<O: WordOp, const W: usize>(
        summaries: &mut [PackedPairW<W>],
        size: usize,
    ) {
        for k in (1..size).rev() {
            summaries[k] = packed_combine::<O, W>(&summaries[2 * k], &summaries[2 * k + 1]);
        }
    }

    /// Whole down-sweep under one AVX2 `target_feature` region.
    #[target_feature(enable = "avx2")]
    pub(super) fn packed_down_sweep<O: WordOp, const W: usize>(
        prefix: &mut [PackedPairW<W>],
        summaries: &[PackedPairW<W>],
        size: usize,
    ) {
        for k in 1..size {
            let p = prefix[k];
            prefix[2 * k] = p;
            prefix[2 * k + 1] = packed_combine::<O, W>(&p, &summaries[2 * k]);
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_consistent() {
        // Whatever the host, the reported levels come from the fixed
        // vocabulary and forcing SWAR drops the active level.
        assert!(["avx2", "swar"].contains(&detected_simd_level()));
        {
            let _guard = ForceSwarGuard::force();
            assert_eq!(active_simd_level(), "swar");
            assert!(force_swar_active());
        }
        // Nested guards restore the outer state.
        set_force_swar(false);
        assert!(!force_swar_active());
        {
            let _guard = ForceSwarGuard::force();
            assert!(force_swar_active());
            {
                let _inner = ForceSwarGuard::force();
                assert!(force_swar_active());
            }
            assert!(force_swar_active());
        }
        assert!(!force_swar_active());
        assert_eq!(
            active_simd_level() == "avx2",
            detected_simd_level() == "avx2"
        );
    }
}

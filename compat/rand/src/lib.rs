//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the small slice of `rand` it actually uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and the [`Rng`]
//! extension methods `gen`, `gen_bool`, and `gen_range`.
//!
//! The backend is SplitMix64 rather than ChaCha, so the *streams* differ
//! from upstream `rand` — but every consumer in this workspace only
//! needs a deterministic, well-mixed sequence (workload generators and
//! differential tests compare simulators against each other on the same
//! generated programs), not bit-compatibility with any particular
//! upstream version.
//!
//! One addition has no upstream counterpart: the seeded-case runner
//! [`case_rng`] / [`cases`], the workspace's one idiom for randomized
//! tests. Case `i` of a test is a pure function of its seed and `i`, so
//! any single case replays on its own, and a failing case names its
//! seed, its index and its test.

/// Core source of randomness: 64 uniformly distributed bits per call.
pub trait RngCore {
    /// Produce the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Produce the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `Rng::gen` can produce (stand-in for sampling from the
/// `Standard` distribution).
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that `Rng::gen_range` accepts (stand-in for
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

/// User-facing extension methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draw a value of type `T` from the standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Return `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0, 1]");
        f64::sample_standard(self) < p
    }

    /// Draw uniformly from `range` (half-open or inclusive).
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic 64-bit generator (SplitMix64 core). Drop-in for
    /// `rand::rngs::StdRng` wherever only determinism — not the exact
    /// upstream stream — matters.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea, Flood 2014): full-period, passes
            // BigCrush, and mixes sequential seeds well.
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

/// The generator for case `i` of a test seeded with `seed`: a pure
/// function of the two, so case `i` replays without cases `0..i`.
pub fn case_rng(seed: u64, i: u64) -> rngs::StdRng {
    rngs::StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run cases `0..n` of a randomized test, handing case `i` the
/// generator [`case_rng`]`(seed, i)` and its index.
///
/// There is no shrinking. A case that panics, from any `assert!` or
/// anywhere else, re-panics with the test's thread name (libtest names
/// each thread after its test), the seed and the case index in front of
/// the original message; `case_rng(seed, i)` then replays that case
/// alone.
pub fn cases(seed: u64, n: u64, mut case: impl FnMut(&mut rngs::StdRng, u64)) {
    for i in 0..n {
        let mut rng = case_rng(seed, i);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng, i)));
        if let Err(payload) = run {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "(non-string panic payload)".into());
            let thread = std::thread::current();
            panic!(
                "{}: seed {seed:#x} case {i} of {n} failed (replay: rand::case_rng({seed:#x}, {i})): {msg}",
                thread.name().unwrap_or("<unnamed thread>")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{case_rng, cases, Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: i32 = rng.gen_range(-128..128);
            assert!((-128..128).contains(&v));
            let u: usize = rng.gen_range(1..=4);
            assert!((1..=4).contains(&u));
            let b: u8 = rng.gen_range(0..4u8);
            assert!(b < 4);
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(11);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    #[should_panic(expected = "seed 0x5eed case 3 of 10 failed")]
    fn failing_case_names_seed_and_index() {
        cases(0x5EED, 10, |_, i| assert!(i != 3, "plain assert"));
    }

    #[test]
    fn failure_message_names_test_and_keeps_original() {
        let err = std::panic::catch_unwind(|| {
            cases(1, 4, |rng, _| {
                let v: u64 = rng.gen();
                assert_eq!(v, 0, "drew {v}");
            })
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(
            msg.starts_with(
                "tests::failure_message_names_test_and_keeps_original: seed 0x1 case 0 of 4"
            ),
            "{msg}"
        );
        assert!(msg.contains("drew "), "{msg}");
    }

    #[test]
    fn one_case_replays_alone() {
        let mut in_run = Vec::new();
        cases(99, 10, |rng, i| {
            if i == 5 {
                in_run = (0..8).map(|_| rng.gen::<u64>()).collect();
            }
        });
        let mut alone = case_rng(99, 5);
        let replay: Vec<u64> = (0..8).map(|_| alone.gen()).collect();
        assert_eq!(in_run, replay);
        assert_ne!(replay[0], case_rng(99, 4).gen::<u64>());
    }
}

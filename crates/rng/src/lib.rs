#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # rader-rng
//!
//! A small, self-contained, deterministic pseudo-random number generator
//! for the Rader workspace. The repository builds fully offline, so this
//! crate replaces the `rand`/`rand_chacha` registry dependencies with the
//! subset of their API the workspace actually uses:
//!
//! * seeding from a `u64` ([`Rng::seed_from_u64`]), via **splitmix64** —
//!   the canonical way to expand a 64-bit seed into a full xoshiro state
//!   without correlated lanes;
//! * a **xoshiro256++** core ([`Rng::next_u64`]) — 256 bits of state,
//!   period 2^256 − 1, passes BigCrush, and is a few instructions per
//!   draw;
//! * unbiased integer ranges ([`Rng::gen_range`]) over `a..b` and
//!   `a..=b` for every primitive integer width, by rejection sampling;
//! * [`Rng::gen_bool`], [`Rng::shuffle`] (Fisher–Yates), and
//!   [`Rng::fill`] / [`Rng::fill_bytes`] bulk generation;
//! * stream splitting ([`Rng::fork`]) for deriving independent
//!   sub-generators in test harnesses.
//!
//! Determinism contract: for a fixed crate version, the same seed always
//! yields the same stream on every platform (the algorithms are pure
//! 64-bit integer arithmetic; no platform-dependent state is consulted).
//! Synthesized programs, workload inputs, and randomized test cases are
//! therefore reproducible from their seed alone.

use std::ops::{Range, RangeInclusive};

/// Splitmix64 step: advances `state` and returns the next output.
///
/// Used for seed expansion and as a cheap one-shot hash of a `u64`;
/// exposed because test harnesses use it to derive per-case seeds from a
/// base seed and a case index.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable deterministic generator (xoshiro256++).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Generator seeded by expanding `seed` with splitmix64 (the seeding
    /// procedure recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // splitmix64 is a bijection, so the all-zero state (the one
        // invalid xoshiro state) is unreachable from any seed.
        Rng { s }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next 32 uniformly distributed bits (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw from `0..n` (`n > 0`), unbiased via rejection
    /// sampling: values in the partial top interval of the 2^64 space are
    /// redrawn.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        let reject = n.wrapping_neg() % n; // 2^64 mod n
        loop {
            let v = self.next_u64();
            if v >= reject {
                return v % n;
            }
        }
    }

    /// Uniform draw from an integer range, `a..b` or `a..=b` (mirrors
    /// `rand::Rng::gen_range`). Panics on an empty range.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // 53 uniform mantissa bits, the same construction rand uses.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Fill `dest` with uniform bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Fill `dest` with uniform values of any primitive integer type.
    pub fn fill<T: UniformInt>(&mut self, dest: &mut [T]) {
        for x in dest.iter_mut() {
            *x = T::from_u64(self.next_u64());
        }
    }

    /// Derive an independent generator: a child seeded from the next draw
    /// of this stream. Forked streams never re-join the parent stream
    /// (the child re-expands through splitmix64).
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }
}

/// Integer types that [`Rng::gen_range`] and [`Rng::fill`] support.
///
/// The contract: a value maps to/from `u64` by zero/sign-extension and
/// truncation, and ranges are sampled through the unsigned span
/// `hi − lo`, which is representable in `u64` for every primitive width
/// up to 64 bits.
pub trait UniformInt: Copy + PartialOrd {
    /// Truncate/reinterpret a uniform `u64` into this type.
    fn from_u64(v: u64) -> Self;
    /// `self − other` as an unsigned 64-bit span (wrapping reinterpret).
    fn span_from(self, other: Self) -> u64;
    /// `self + delta` (wrapping, through the unsigned representation).
    fn offset(self, delta: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn from_u64(v: u64) -> Self {
                v as $t
            }
            #[inline]
            fn span_from(self, other: Self) -> u64 {
                (self as i64 as u64).wrapping_sub(other as i64 as u64)
            }
            #[inline]
            fn offset(self, delta: u64) -> Self {
                ((self as i64 as u64).wrapping_add(delta)) as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges [`Rng::gen_range`] accepts (mirrors `rand`'s `SampleRange`).
pub trait SampleRange<T> {
    /// Draw a uniform value from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

impl<T: UniformInt> SampleRange<T> for Range<T> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> T {
        let span = self.end.span_from(self.start);
        assert!(span != 0 && span <= i64::MAX as u64 + 1, "empty range");
        self.start.offset(rng.below(span))
    }
}

impl<T: UniformInt> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> T {
        let (start, end) = self.into_inner();
        let span = end.span_from(start);
        assert!(span <= i64::MAX as u64, "empty range");
        if span == u64::MAX {
            return T::from_u64(rng.next_u64());
        }
        start.offset(rng.below(span + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(12345);
        let mut b = Rng::seed_from_u64(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn splitmix_reference_vector() {
        // Known-answer outputs of splitmix64 from state 0 (checked
        // against the reference C implementation).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17u32);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-8..=8i64);
            assert!((-8..=8).contains(&w));
            let u = rng.gen_range(0..5usize);
            assert!(u < 5);
        }
    }

    #[test]
    fn single_value_ranges() {
        let mut rng = Rng::seed_from_u64(3);
        assert_eq!(rng.gen_range(4..5u32), 4);
        assert_eq!(rng.gen_range(-3..=-3i64), -3);
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(99);
        let mut counts = [0usize; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        // Each bucket expects draws/10 = 10_000; allow ±5σ ≈ ±475.
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (9_500..=10_500).contains(&c),
                "bucket {i} count {c} far from uniform"
            );
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!(
            (29_000..=31_000).contains(&hits),
            "p=0.3 gave {hits}/100000"
        );
        let mut rng = Rng::seed_from_u64(11);
        assert_eq!((0..100).filter(|_| rng.gen_bool(0.0)).count(), 0);
        let mut rng = Rng::seed_from_u64(11);
        assert_eq!((0..100).filter(|_| rng.gen_bool(1.0)).count(), 100);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<u32>>(),
            "shuffle left input untouched"
        );
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Rng::seed_from_u64(8);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let mut words = [0i64; 5];
        let mut rng = Rng::seed_from_u64(8);
        rng.fill(&mut words);
        assert!(words.iter().any(|&w| w != 0));
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut a = Rng::seed_from_u64(42);
        let mut fa = a.fork();
        let mut b = Rng::seed_from_u64(42);
        let mut fb = b.fork();
        for _ in 0..100 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
        // The fork consumed exactly one parent draw; parents still agree.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = rng.gen_range(5..5u32);
    }
}

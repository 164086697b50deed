//! A minimal deterministic pseudo-random generator (splitmix64 seeded,
//! xorshift64* stream) with a `rand`-compatible surface for the narrow API
//! the simulators and data generators need. The workspace builds without
//! network access, so the real `rand` crate is unavailable; determinism per
//! seed is all the consumers require. It lives in `netsim` — the lowest
//! layer of the workspace — so the workload generators, the fault-injection
//! harness in `cobra-server`, and the property-test suites all share one
//! generator implementation and one behavior.

use std::ops::Range;

/// Deterministic PRNG, API-compatible with the subset of `rand::rngs::StdRng`
/// used by the fixture generators.
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    /// Seed the generator (splitmix64 of the seed, so small seeds diverge).
    pub fn seed_from_u64(seed: u64) -> StdRng {
        let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        StdRng {
            state: (z ^ (z >> 31)).max(1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform sample from a half-open range.
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// A fair coin flip.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// True with probability `percent`/100 (0 never, 100 always).
    pub fn chance(&mut self, percent: u32) -> bool {
        self.gen_range(0..100u32) < percent
    }

    /// A uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.gen_range(0..items.len())]
    }
}

/// Types `StdRng::gen_range` can sample.
pub trait SampleRange: Sized {
    fn sample(rng: &mut StdRng, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut StdRng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end - range.start) as u64;
                range.start + (rng.next_u64() % span) as Self
            }
        }
    )*};
}

impl_sample_range!(i64, u64, usize, i32, u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<i64> = (0..10).map(|_| a.gen_range(0..1000i64)).collect();
        let ys: Vec<i64> = (0..10).map(|_| b.gen_range(0..1000i64)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let xs: Vec<i64> = (0..10).map(|_| a.gen_range(0..1_000_000i64)).collect();
        let ys: Vec<i64> = (0..10).map(|_| b.gen_range(0..1_000_000i64)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn samples_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10..20usize);
            assert!((10..20).contains(&v));
        }
    }
}

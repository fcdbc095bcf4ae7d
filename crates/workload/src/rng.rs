//! Self-contained deterministic PRNG (`xoshiro256**` seeded via
//! SplitMix64).
//!
//! The corpus must be bit-stable forever — the golden aggregates
//! (`crates/core/tests/golden.rs`) are tied to it — so we do not depend
//! on an external RNG crate whose stream might change across major
//! versions.

/// A deterministic `xoshiro256**` generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Rng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiplicative rejection-free mapping (slightly biased for
        // astronomically large bounds; irrelevant for corpus sizes).
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks an index according to a weight table.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// A geometric-flavoured integer in `[lo, hi]` biased toward `lo`
    /// (loop bodies are mostly small, occasionally large).
    pub fn skewed(&mut self, lo: u64, hi: u64) -> u64 {
        let u = self.next_f64();
        let span = (hi - lo) as f64;
        lo + (span * u * u) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(Rng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers() {
        let mut r = Rng::new(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.below(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_inclusive() {
        let mut r = Rng::new(2);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = r.range(3, 6);
            assert!((3..=6).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 6;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn weighted_prefers_heavy_bucket() {
        let mut r = Rng::new(3);
        let mut counts = [0u32; 2];
        for _ in 0..1000 {
            counts[r.weighted(&[9.0, 1.0])] += 1;
        }
        assert!(counts[0] > 800, "{counts:?}");
        assert!(counts[1] > 20, "{counts:?}");
    }

    #[test]
    fn chance_rates() {
        let mut r = Rng::new(4);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn skewed_bias_toward_low() {
        let mut r = Rng::new(5);
        let vals: Vec<u64> = (0..2000).map(|_| r.skewed(2, 42)).collect();
        assert!(vals.iter().all(|&v| (2..=42).contains(&v)));
        let mean = vals.iter().sum::<u64>() as f64 / vals.len() as f64;
        assert!(mean < 22.0, "mean {mean} should sit below the midpoint");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        let _ = Rng::new(0).below(0);
    }
}

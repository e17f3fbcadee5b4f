//! Deterministic pseudo-random number generation and distributions.
//!
//! The simulator carries its own small PRNG (xoshiro256\*\*, seeded through
//! SplitMix64) so that a `(seed, workload)` pair reproduces bit-identical
//! results regardless of the version of any external `rand` crate. The
//! distributions implemented here are the ones the workload generators and
//! network models need: uniform, exponential, normal, log-normal, Pareto,
//! and Zipf.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// SplitMix64 step used to expand a single `u64` seed into xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The harmonic weights [`Rng::zipf`] walks, for one `(n, s)`.
struct ZipfTable {
    n: usize,
    s_bits: u64,
    weights: Vec<f64>,
    sum: f64,
}

thread_local! {
    /// The last [`ZipfTable`] built on this thread (`n == 0`: none yet).
    static ZIPF_TABLE: RefCell<ZipfTable> = const {
        RefCell::new(ZipfTable {
            n: 0,
            s_bits: 0,
            weights: Vec::new(),
            sum: 0.0,
        })
    };
}

/// xoshiro256\*\* deterministic PRNG.
///
/// Fast, high-quality, and trivially serializable; the canonical generator
/// recommended by its authors for general simulation use.
///
/// ```
/// use continuum_sim::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let sample = a.exp(2.0);                // exponential variate, rate 2
/// assert!(sample >= 0.0);
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child generator (for stream splitting).
    ///
    /// Mixing the parent's next output with a stream index gives distinct,
    /// decorrelated child streams for e.g. per-task noise.
    pub fn split(&mut self, stream: u64) -> Rng {
        let base = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        Rng::new(base)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1)
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's rejection method.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Widening multiply; rejection to remove modulo bias.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential variate with the given rate (mean `1/rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        // Inverse CDF; guard against ln(0).
        let u = 1.0 - self.f64();
        -u.ln() / rate
    }

    /// Standard normal variate (Box–Muller, one value per call).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        let u1 = 1.0 - self.f64(); // (0,1]
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * r * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal variate parameterized by the mean/σ of the underlying
    /// normal distribution.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto variate with scale `x_min > 0` and shape `alpha > 0`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0);
        let u = 1.0 - self.f64();
        x_min / u.powf(1.0 / alpha)
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s >= 0`.
    ///
    /// Inversion over the harmonic weights `1 / k^s`. The weights and their
    /// sum are memoised per thread for the last `(n, s)` asked for, so a
    /// run of draws with one catalog costs O(rank) each instead of O(n)
    /// `powf` calls; the draw is bit-identical to recomputing them.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0);
        ZIPF_TABLE.with(|table| {
            let mut t = table.borrow_mut();
            if t.n != n || t.s_bits != s.to_bits() {
                t.weights.clear();
                t.weights.extend((1..=n).map(|k| 1.0 / (k as f64).powf(s)));
                t.sum = t.weights.iter().sum();
                t.n = n;
                t.s_bits = s.to_bits();
            }
            let mut u = self.f64() * t.sum;
            for (k, &w) in t.weights.iter().enumerate() {
                if u < w {
                    return k;
                }
                u -= w;
            }
            n - 1
        })
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k <= n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n);
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: first k slots.
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_unbiased_small() {
        let mut r = Rng::new(3);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[r.below(5) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000; loose 5-sigma-ish bound.
            assert!((8_500..11_500).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn exp_mean_close() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut r = Rng::new(13);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn pareto_lower_bound() {
        let mut r = Rng::new(17);
        for _ in 0..10_000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn zipf_rank_zero_most_common() {
        let mut r = Rng::new(19);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[r.zipf(10, 1.0)] += 1;
        }
        assert!(counts[0] > counts[4], "{counts:?}");
        assert!(counts[0] > counts[9], "{counts:?}");
    }

    /// The seed's uncached sampler, the oracle for the memoised one.
    fn zipf_uncached(r: &mut Rng, n: usize, s: f64) -> usize {
        let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut u = r.f64() * h;
        for k in 1..=n {
            let w = 1.0 / (k as f64).powf(s);
            if u < w {
                return k - 1;
            }
            u -= w;
        }
        n - 1
    }

    #[test]
    fn zipf_cache_matches_uncached_draw_for_draw() {
        let mut cached = Rng::new(29);
        let mut plain = Rng::new(29);
        // Interleaved (n, s) pairs, including ones that share `n` or `s`,
        // so the per-thread table is rebuilt between most draws.
        let pairs = [
            (1, 1.0),
            (10, 1.0),
            (10, 1.2),
            (200, 1.1),
            (10, 1.0),
            (3, 0.0),
            (200, 0.8),
        ];
        for i in 0..5_000 {
            let (n, s) = pairs[(i * 3 + i / 7) % pairs.len()];
            let runs = 1 + i % 4;
            for _ in 0..runs {
                assert_eq!(
                    cached.zipf(n, s),
                    zipf_uncached(&mut plain, n, s),
                    "draw {i} n={n} s={s}"
                );
            }
        }
        assert_eq!(cached.next_u64(), plain.next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, (0..100).collect::<Vec<u32>>()); // astronomically unlikely
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = Rng::new(29);
        let s = r.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 20);
        assert!(d.iter().all(|&i| i < 50));
    }

    #[test]
    fn split_streams_decorrelated() {
        let mut parent = Rng::new(5);
        let mut c1 = parent.split(1);
        let mut c2 = parent.split(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}

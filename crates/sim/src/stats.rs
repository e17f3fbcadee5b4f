//! Online and batch statistics used by the experiment harness.
//!
//! - [`OnlineStats`]: Welford's numerically stable running mean/variance.
//! - [`Percentiles`]: exact sample percentiles over a retained sample set
//!   (the experiment scales here are small enough that exactness beats a
//!   streaming sketch).
//! - [`Histogram`]: fixed-width binning for distribution shapes.
//! - [`TimeWeighted`]: time-weighted average of a step function (e.g.
//!   queue length or utilization over virtual time).
//! - [`jain_fairness`]: Jain's fairness index for load-balance experiments.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Welford running mean / variance / extrema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

// A derived `Default` would zero `min`/`max`, disagreeing with `new()`'s
// ±INFINITY sentinels: a default-built accumulator would report
// `min() == 0.0` for all-positive samples and poison `merge()`.
impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Total of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentiles over retained samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

// Derived `Default` would set `sorted: false` on an empty vec, disagreeing
// with `new()` (an empty sample set is vacuously sorted).
impl Default for Percentiles {
    fn default() -> Self {
        Self::new()
    }
}

impl Percentiles {
    /// Empty sample set.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by linear interpolation between
    /// closest ranks. Returns `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            // Unstable is exact here: samples that compare equal are equal
            // values (±0.0 is the only such pair with different bits), so
            // their relative order cannot change a quantile's value.
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Convenience: (p50, p95, p99) tuple.
    pub fn p50_p95_p99(&mut self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.95)?,
            self.quantile(0.99)?,
        ))
    }
}

impl From<Vec<f64>> for Percentiles {
    /// Take ownership of a whole sample set at once (sorted lazily on
    /// the first quantile query, like pushed samples).
    fn from(samples: Vec<f64>) -> Self {
        Percentiles {
            sorted: samples.len() < 2,
            samples,
        }
    }
}

/// Fixed-width histogram over `[lo, hi)` with out-of-range counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let i = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[i.min(n - 1)] += 1;
        }
    }

    /// Counts per bin.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below `lo` / at-or-above `hi`.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Total observations including out-of-range ones.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// Time-weighted average of a piecewise-constant signal over virtual time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    weighted_sum: f64,
    start: SimTime,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Empty accumulator.
    pub fn new() -> Self {
        TimeWeighted {
            last_t: SimTime::ZERO,
            last_v: 0.0,
            weighted_sum: 0.0,
            start: SimTime::ZERO,
            started: false,
        }
    }

    /// Record that the signal changed to `v` at time `t`.
    ///
    /// Times must be non-decreasing.
    pub fn set(&mut self, t: SimTime, v: f64) {
        if !self.started {
            self.start = t;
            self.started = true;
        } else {
            debug_assert!(t >= self.last_t, "time went backwards");
            let dt = t.since(self.last_t).as_secs_f64();
            self.weighted_sum += self.last_v * dt;
        }
        self.last_t = t;
        self.last_v = v;
    }

    /// Time-weighted mean of the signal from the first `set` up to `end`.
    pub fn mean_until(&self, end: SimTime) -> f64 {
        if !self.started {
            return 0.0;
        }
        let tail = end.since(self.last_t).as_secs_f64();
        let total = end.since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.last_v;
        }
        (self.weighted_sum + self.last_v * tail) / total
    }
}

/// Jain's fairness index for a set of per-entity loads: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means perfectly balanced; `1/n` means one entity receives all load.
/// Returns 1.0 for an empty or all-zero input (vacuously fair).
pub fn jain_fairness(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let sum: f64 = loads.iter().sum();
    let sumsq: f64 = loads.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    sum * sum / (loads.len() as f64 * sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn welford_matches_direct() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of that set is 4.571428...
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn default_matches_new() {
        // Regression: `OnlineStats::default()` once derived zeroed extrema,
        // so all-positive samples reported `min() == 0.0` and merging a
        // default-built accumulator dragged `min` down to 0.
        let mut d = OnlineStats::default();
        assert_eq!(d.min(), f64::INFINITY);
        assert_eq!(d.max(), f64::NEG_INFINITY);
        for x in [3.0, 5.0] {
            d.push(x);
        }
        assert_eq!(d.min(), 3.0);
        assert_eq!(d.max(), 5.0);

        let mut merged = OnlineStats::new();
        merged.push(3.0);
        merged.push(5.0);
        let mut into_default = OnlineStats::default();
        into_default.merge(&merged);
        assert_eq!(into_default.min(), 3.0);
        assert_eq!(into_default.max(), 5.0);

        // And `Percentiles::default()` must agree with `new()` on the
        // vacuously-sorted empty state.
        let mut p = Percentiles::default();
        assert_eq!(p.quantile(0.5), None);
        p.push(1.0);
        assert_eq!(p.quantile(0.5), Some(1.0));
    }

    #[test]
    fn percentiles_exact() {
        let mut p = Percentiles::new();
        for i in (1..=100).rev() {
            p.push(i as f64);
        }
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert!((p.median().unwrap() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn unstable_sort_quantiles_match_stable_sort_with_duplicates() {
        // Few distinct values over many samples: long runs of ties.
        let mut z = 0x2545_F491_4F6C_DD1Du64;
        let xs: Vec<f64> = (0..5000)
            .map(|_| {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                (z % 37) as f64 * 0.125
            })
            .collect();
        let mut stable = xs.clone();
        stable.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let mut p = Percentiles::from(xs.clone());
        let mut pushed = Percentiles::new();
        for &x in &xs {
            pushed.push(x);
        }
        for i in 0..=200 {
            let q = i as f64 / 200.0;
            let pos = q * (stable.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            let frac = pos - lo as f64;
            let want = stable[lo] * (1.0 - frac) + stable[hi] * frac;
            assert_eq!(p.quantile(q).unwrap().to_bits(), want.to_bits(), "q={q}");
            assert_eq!(pushed.quantile(q).unwrap().to_bits(), want.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn percentiles_reject_nan() {
        let mut p = Percentiles::from(vec![1.0, f64::NAN, 0.5]);
        p.quantile(0.5);
    }

    #[test]
    fn percentile_empty_is_none() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
    }

    #[test]
    fn histogram_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0);
        h.push(10.0);
        assert_eq!(h.bins(), &[1; 10]);
        assert_eq!(h.out_of_range(), (1, 1));
        assert_eq!(h.count(), 12);
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::ZERO, 1.0);
        tw.set(SimTime::from_secs(10), 3.0);
        // 10s at 1.0 then 10s at 3.0 -> mean 2.0 at t=20.
        let m = tw.mean_until(SimTime::from_secs(20));
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_starts_late() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::from_secs(5), 4.0);
        let m = tw.mean_until(SimTime::from_secs(5) + SimDuration::from_secs(5));
        assert!((m - 4.0).abs() < 1e-12);
    }

    #[test]
    fn jain_bounds() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[4.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }
}

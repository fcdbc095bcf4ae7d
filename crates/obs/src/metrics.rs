//! Counters, gauges and log₂-bucketed latency histograms.
//!
//! All metric types are plain atomics: recording never locks or
//! allocates, and handles are shared as `Arc`s handed out by a
//! [`MetricsRegistry`]. The histogram trades per-sample precision for a
//! fixed 64-bucket footprint: a sample lands in the power-of-two bucket
//! covering its value, and percentile extraction reports the **upper
//! bound** of the containing bucket — an at-most-2× overestimate, which
//! is the right resolution for latency tables (p50/p90/p99 of stage
//! times spanning nanoseconds to seconds).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that moves both ways (e.g. resident cache bytes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Set to an absolute value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `k ≥ 1` covers `[2^(k-1), 2^k)`,
/// bucket 0 holds exact zeros, the last bucket absorbs overflow.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free log₂-bucketed histogram with percentile extraction.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index covering `value`.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The largest value bucket `index` covers (inclusive). The last bucket
/// absorbs everything upward, so its bound is `u64::MAX`.
#[must_use]
pub fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample value, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the
    /// bucket holding the rank-`⌈q·n⌉` sample; `None` when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for index in 0..HISTOGRAM_BUCKETS {
            seen += self.buckets[index].load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_upper(index));
            }
        }
        Some(u64::MAX)
    }

    /// Convenience: p50 (`None` when empty).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// Convenience: p90 (`None` when empty).
    #[must_use]
    pub fn p90(&self) -> Option<u64> {
        self.percentile(0.90)
    }

    /// Convenience: p99 (`None` when empty).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }
}

/// One metric's current value in a [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram summary: `(count, sum, p50, p90, p99)`.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of all samples (wrapping on overflow).
        sum: u64,
        /// Median (bucket upper bound), `None` when empty.
        p50: Option<u64>,
        /// 90th percentile.
        p90: Option<u64>,
        /// 99th percentile.
        p99: Option<u64>,
    },
}

#[derive(Debug, Default)]
struct Registered {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A named collection of metrics. `counter`/`gauge`/`histogram` are
/// get-or-create: callers grab an `Arc` handle once and record through
/// it lock-free; the registry lock is touched only at handle creation
/// and snapshot time.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Registered>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics lock");
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("metrics lock");
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics lock");
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Every metric's current value, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let inner = self.inner.lock().expect("metrics lock");
        let mut out = Vec::new();
        for (name, c) in &inner.counters {
            out.push((name.clone(), MetricValue::Counter(c.get())));
        }
        for (name, g) in &inner.gauges {
            out.push((name.clone(), MetricValue::Gauge(g.get())));
        }
        for (name, h) in &inner.histograms {
            out.push((
                name.clone(),
                MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    p50: h.p50(),
                    p90: h.p90(),
                    p99: h.p99(),
                },
            ));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        // Every k: 2^(k-1) and 2^k - 1 share bucket k.
        for k in 1..63 {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_of(lo), k, "low edge of bucket {k}");
            assert_eq!(bucket_of(hi), k, "high edge of bucket {k}");
            assert!(lo <= bucket_upper(k) && hi <= bucket_upper(k));
        }
    }

    #[test]
    fn overflow_values_land_in_last_bucket() {
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 63), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.p50(), Some(u64::MAX));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn one_sample_sets_every_percentile() {
        let h = Histogram::new();
        h.record(100);
        // 100 ∈ [64, 128) → bucket 7, upper bound 127.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(127), "q={q}");
        }
        assert_eq!(h.mean(), 100);
    }

    #[test]
    fn percentiles_walk_cumulative_counts() {
        let h = Histogram::new();
        // 90 samples in bucket 4 ([8, 16)), 10 in bucket 11 ([1024, 2048)).
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        assert_eq!(h.p50(), Some(15));
        assert_eq!(h.p90(), Some(15));
        assert_eq!(h.p99(), Some(2047));
        assert_eq!(h.percentile(1.0), Some(2047));
        assert_eq!(h.percentile(0.0), Some(15), "q=0 clamps to rank 1");
    }

    /// Audit for the "p99 of a single-sample histogram reports 0"
    /// report: it does not reproduce. `percentile` clamps the rank to
    /// `[1, count]`, so every quantile of a one-sample histogram lands
    /// in the sample's bucket and reports that bucket's **upper
    /// bound** — never 0 unless the sample itself was 0. These
    /// regression tests pin the boundary behaviour.
    #[test]
    fn single_sample_percentiles_at_bucket_boundaries() {
        // Exact powers of two sit at the *low* edge of their bucket;
        // 2^k - 1 at the high edge. Both must report the same upper
        // bound for every quantile.
        for value in [1u64, 2, 3, 4, 7, 8, 1023, 1024, (1 << 52) - 1, 1 << 52] {
            let h = Histogram::new();
            h.record(value);
            let upper = bucket_upper(bucket_of(value));
            assert!(upper >= value, "upper bound covers the sample");
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.percentile(q), Some(upper), "value={value} q={q}");
            }
        }
        // The two extremes: 0 has its own bucket; u64::MAX saturates.
        let zero = Histogram::new();
        zero.record(0);
        assert_eq!(zero.p99(), Some(0));
        let max = Histogram::new();
        max.record(u64::MAX);
        assert_eq!(max.p99(), Some(u64::MAX));
    }

    #[test]
    fn zero_samples_have_their_own_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(1);
        assert_eq!(h.p50(), Some(0));
        assert_eq!(h.percentile(1.0), Some(1));
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(reg.counter("x").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));

        let g = reg.gauge("resident");
        g.add(60);
        assert_eq!(g.get(), 60);
        g.set(7);
        assert_eq!(g.get(), 7);

        reg.histogram("lat").record(5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["lat", "resident", "x"]);
        assert_eq!(snap[2].1, MetricValue::Counter(3));
    }
}

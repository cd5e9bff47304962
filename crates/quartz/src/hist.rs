//! Fixed-bucket log-scaled latency histogram.
//!
//! Tail-latency curves (the KV service cells of `overload_matrix`) need
//! percentiles over millions of per-request latencies without storing
//! them: a [`LatencyHist`] buckets nanosecond values on a log scale — 32
//! linear sub-buckets per power-of-two octave, ≤ ~3.2% relative
//! quantization error — in a fixed-size table, so recording is O(1),
//! memory is constant, and two histograms built on different worker
//! threads merge by bucket-wise addition into bit-identical results
//! regardless of merge order. All statistics derive deterministically
//! from the bucket counts (plus exact min/max/sum side-channels), which
//! keeps `BENCH_*.json` output byte-identical at any `--jobs` count.

use quartz_platform::time::Duration;

/// Linear sub-buckets per octave: 2^5 = 32 ⇒ worst-case relative error
/// of one part in 32.
const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS;
/// Octaves above the exact range; covers values up to 2^44 ns (~4.8 h),
/// far beyond any simulated request latency. Larger values clamp into
/// the top bucket (and are still reported exactly via `max_ns`).
const OCTAVES: usize = 40;
const BUCKETS: usize = SUBS + OCTAVES * SUBS;

/// A mergeable log-scaled histogram of nanosecond latencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a nanosecond value: exact below `SUBS`, then 32
/// linear sub-buckets per octave.
fn bucket_of(ns: u64) -> usize {
    if ns < SUBS as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros(); // ≥ SUB_BITS
    let sub = ((ns >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    let idx = (exp - SUB_BITS + 1) as usize * SUBS + sub;
    idx.min(BUCKETS - 1)
}

/// Representative (midpoint) nanosecond value of bucket `idx` — the
/// value reported for any percentile landing in the bucket.
fn value_of(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let octave = (idx / SUBS - 1) as u32 + SUB_BITS;
    let sub = (idx % SUBS) as u64;
    let base = (1u64 << octave) + (sub << (octave - SUB_BITS));
    base + (1u64 << (octave - SUB_BITS)) / 2
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records one latency given as a virtual-time duration (truncated
    /// to whole nanoseconds).
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_ps() / 1_000);
    }

    /// Adds every sample of `other` into `self`. Associative and
    /// commutative: any merge tree over per-thread histograms yields
    /// identical counts.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.total as f64
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Exact largest recorded value.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The latency at quantile `q` ∈ [0, 1]: the representative value
    /// of the first bucket whose cumulative count reaches `q · total`,
    /// clamped into the exact observed [min, max] range. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(idx).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency in nanoseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency in nanoseconds.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_32_ns() {
        let mut h = LatencyHist::new();
        for ns in 0..32u64 {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 31);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = LatencyHist::new();
        for i in 1..=100_000u64 {
            h.record_ns(i);
        }
        for (q, exact) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - exact).abs() / exact;
            assert!(err < 0.04, "q={q}: got {got}, exact {exact}, err {err}");
        }
        assert_eq!(h.max_ns(), 100_000);
        assert!((h.mean_ns() - 50_000.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHist::new();
        let mut x = 1u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record_ns(x % 5_000_000);
        }
        assert!(h.p50() <= h.p99());
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max_ns());
        assert!(h.min_ns() <= h.p50());
    }

    #[test]
    fn merge_matches_single_histogram_in_any_order() {
        let mut all = LatencyHist::new();
        let mut parts: Vec<LatencyHist> = (0..4).map(|_| LatencyHist::new()).collect();
        let mut x = 7u64;
        for i in 0..40_000usize {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let ns = x % 10_000_000;
            all.record_ns(ns);
            parts[i % 4].record_ns(ns);
        }
        let mut fwd = LatencyHist::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = LatencyHist::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, all);
        assert_eq!(rev, all);
    }

    #[test]
    fn huge_values_clamp_into_top_bucket() {
        let mut h = LatencyHist::new();
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_ns(), u64::MAX);
        // Percentile clamps into the exact observed range.
        assert_eq!(h.p50(), u64::MAX);
    }

    #[test]
    fn record_duration_truncates_to_ns() {
        let mut h = LatencyHist::new();
        h.record(Duration::from_ns(374));
        assert_eq!(h.min_ns(), 374);
        assert_eq!(h.max_ns(), 374);
    }
}

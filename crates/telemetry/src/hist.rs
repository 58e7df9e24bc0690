//! Log-scale latency histograms with an exact, order-independent merge.
//!
//! The layout is HDR-style: values are raw simulator picoseconds (`u64`),
//! and each power-of-two octave above 8 ps is split into 8 sub-buckets of
//! equal width, so relative bucket error is bounded by 1/8 ≈ 12.5 % (and
//! quantile *midpoint* error by half that) across the full `u64` range.
//! Values below 8 ps get exact unit-width buckets. Because the layout is
//! fixed — no rescaling, no dynamic range negotiation — two histograms can
//! always be merged by adding counts bucket-for-bucket, and every moment is
//! kept in integer arithmetic (`u64`/`u128`), so merging is exactly
//! commutative and associative. That property is what lets the replication
//! harness fold per-worker telemetry in index order and produce
//! byte-identical output for any `--jobs` count.
//!
//! Floating point appears only at *summary* time: [`LatencyHistogram::export`]
//! converts the integer moments to microsecond statistics using the same
//! n−1 variance convention as `wormcast_stats::OnlineStats`.

use serde::Serialize;
use wormcast_sim::{SimDuration, PS_PER_US};

/// Sub-bucket resolution: each octave is split into `1 << SUB_BITS` buckets.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// First octave that gets sub-bucket treatment (values `< 8` are exact).
const FIRST_OCT: u32 = SUB_BITS;
/// Total number of buckets covering the full `u64` picosecond range.
pub const NUM_BUCKETS: usize = SUBS + (64 - FIRST_OCT as usize) * SUBS;

/// Bucket index of a picosecond value. Total order preserving.
#[inline]
fn bucket_index(ps: u64) -> usize {
    if ps < SUBS as u64 {
        return ps as usize;
    }
    let oct = 63 - ps.leading_zeros(); // >= FIRST_OCT
    let sub = ((ps >> (oct - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    SUBS * (oct - FIRST_OCT + 1) as usize + sub
}

/// Inclusive lower edge (in ps) of bucket `idx`.
#[inline]
fn bucket_lo(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let m = (idx / SUBS - 1) as u32;
    let sub = (idx % SUBS) as u64;
    (SUBS as u64 + sub) << m
}

/// Exclusive upper edge (in ps) of bucket `idx` (saturating at `u64::MAX`).
#[inline]
fn bucket_hi(idx: usize) -> u64 {
    if idx + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lo(idx + 1)
    }
}

/// A fixed-layout log-scale histogram of latencies in simulator picoseconds.
///
/// All state is integer, so [`merge`](LatencyHistogram::merge) is exact:
/// merging in any order (or any grouping) yields bit-identical state.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Per-bucket counts: `NUM_BUCKETS` long once anything is recorded or
    /// merged in, empty before, so a histogram nothing reaches allocates
    /// nothing.
    counts: Vec<u64>,
    total: u64,
    sum_ps: u128,
    sum_sq_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            total: 0,
            sum_ps: 0,
            sum_sq_ps: 0,
            min_ps: u64::MAX,
            max_ps: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a raw picosecond latency.
    #[inline]
    pub fn record_ps(&mut self, ps: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; NUM_BUCKETS];
        }
        self.counts[bucket_index(ps)] += 1;
        self.total += 1;
        self.sum_ps += ps as u128;
        self.sum_sq_ps += (ps as u128) * (ps as u128);
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Record a [`SimDuration`].
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        self.record_ps(d.as_ps());
    }

    /// Record a latency expressed in microseconds (rounded to whole ps).
    #[inline]
    pub fn record_us(&mut self, us: f64) {
        self.record(SimDuration::from_us(us));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Absorb another histogram. Exact: integer adds only, so the result is
    /// independent of merge order and grouping.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.counts.is_empty() {
            self.counts.clone_from(&other.counts);
        } else {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.total += other.total;
        self.sum_ps += other.sum_ps;
        self.sum_sq_ps += other.sum_sq_ps;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.sum_ps as f64 / self.total as f64) / PS_PER_US as f64
    }

    /// Sample standard deviation in microseconds (n−1 convention, matching
    /// `wormcast_stats::OnlineStats`; 0 when fewer than two values).
    pub fn sd_us(&self) -> f64 {
        if self.total < 2 {
            return 0.0;
        }
        let n = self.total as f64;
        let s = self.sum_ps as f64;
        let ss = self.sum_sq_ps as f64;
        let var_ps2 = ((ss - s * s / n) / (n - 1.0)).max(0.0);
        var_ps2.sqrt() / PS_PER_US as f64
    }

    /// Coefficient of variation (sd / mean; 0 when the mean is 0).
    pub fn cv(&self) -> f64 {
        let m = self.mean_us();
        if m == 0.0 {
            0.0
        } else {
            self.sd_us() / m
        }
    }

    /// Approximate quantile in microseconds: the midpoint of the bucket
    /// holding the rank `ceil(q * n)` value, clamped to the exact observed
    /// `[min, max]`. Bucket layout bounds the relative error by ~6 %.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = bucket_lo(idx);
                let hi = bucket_hi(idx);
                let mid = lo + (hi - lo) / 2;
                let clamped = mid.clamp(self.min_ps, self.max_ps);
                return clamped as f64 / PS_PER_US as f64;
            }
        }
        self.max_ps as f64 / PS_PER_US as f64
    }

    /// Summary + sparse bucket list for JSON export.
    pub fn export(&self) -> HistogramExport {
        let (min_us, max_us) = if self.total == 0 {
            (0.0, 0.0)
        } else {
            (
                self.min_ps as f64 / PS_PER_US as f64,
                self.max_ps as f64 / PS_PER_US as f64,
            )
        };
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| BucketExport {
                lo_us: bucket_lo(idx) as f64 / PS_PER_US as f64,
                hi_us: bucket_hi(idx) as f64 / PS_PER_US as f64,
                count: c,
            })
            .collect();
        HistogramExport {
            count: self.total,
            mean_us: self.mean_us(),
            sd_us: self.sd_us(),
            cv: self.cv(),
            min_us,
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            p99_us: self.quantile_us(0.99),
            max_us,
            buckets,
        }
    }
}

/// One occupied bucket in a [`HistogramExport`].
#[derive(Debug, Clone, Serialize)]
pub struct BucketExport {
    /// Inclusive lower edge in microseconds.
    pub lo_us: f64,
    /// Exclusive upper edge in microseconds.
    pub hi_us: f64,
    /// Values that fell in `[lo_us, hi_us)`.
    pub count: u64,
}

/// JSON-exportable summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Serialize)]
pub struct HistogramExport {
    /// Number of recorded values.
    pub count: u64,
    /// Mean in microseconds.
    pub mean_us: f64,
    /// Sample standard deviation in microseconds (n−1).
    pub sd_us: f64,
    /// Coefficient of variation.
    pub cv: f64,
    /// Exact observed minimum in microseconds.
    pub min_us: f64,
    /// Approximate median in microseconds.
    pub p50_us: f64,
    /// Approximate 95th percentile in microseconds.
    pub p95_us: f64,
    /// Approximate 99th percentile in microseconds.
    pub p99_us: f64,
    /// Exact observed maximum in microseconds.
    pub max_us: f64,
    /// Occupied buckets only (sparse).
    pub buckets: Vec<BucketExport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        for &ps in &[
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            31,
            32,
            1_000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(ps);
            assert!(idx < NUM_BUCKETS, "idx {idx} out of range for {ps}");
            assert!(idx >= prev, "index not monotone at {ps}");
            prev = idx;
        }
    }

    #[test]
    fn bucket_edges_bracket_their_values() {
        for &ps in &[0u64, 5, 8, 13, 100, 12345, 987_654_321, u64::MAX - 1] {
            let idx = bucket_index(ps);
            assert!(bucket_lo(idx) <= ps);
            assert!(ps <= bucket_hi(idx) || idx + 1 == NUM_BUCKETS);
        }
    }

    #[test]
    fn edges_are_contiguous() {
        for idx in 0..NUM_BUCKETS - 1 {
            assert_eq!(bucket_hi(idx), bucket_lo(idx + 1), "gap at bucket {idx}");
        }
    }

    #[test]
    fn moments_match_direct_computation() {
        let vals = [3.0f64, 7.5, 7.5, 12.0, 99.25];
        let mut h = LatencyHistogram::new();
        for &v in &vals {
            h.record_us(v);
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((h.mean_us() - mean).abs() < 1e-6);
        assert!((h.sd_us() - var.sqrt()).abs() < 1e-6);
        assert!((h.cv() - var.sqrt() / mean).abs() < 1e-6);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |vals: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in vals {
                h.record_ps(v);
            }
            h
        };
        let a = mk(&[1, 100, 10_000]);
        let b = mk(&[42, 42, 5_000_000]);
        let c = mk(&[7, 1_000_000_000]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut c_ba = c.clone();
        let mut ba = b.clone();
        ba.merge(&a);
        c_ba.merge(&ba);

        assert_eq!(ab_c.counts, c_ba.counts);
        assert_eq!(ab_c.sum_ps, c_ba.sum_ps);
        assert_eq!(ab_c.sum_sq_ps, c_ba.sum_sq_ps);
        assert_eq!(ab_c.min_ps, c_ba.min_ps);
        assert_eq!(ab_c.max_ps, c_ba.max_ps);
        assert_eq!(ab_c.total, c_ba.total);
    }

    #[test]
    fn empty_histograms_allocate_nothing_and_merge_as_zeros() {
        let empty = LatencyHistogram::new();
        assert_eq!(empty.counts.capacity(), 0);
        let mut h = LatencyHistogram::new();
        h.record_ps(1_000);
        let mut into_empty = LatencyHistogram::new();
        into_empty.merge(&h);
        let mut from_empty = h.clone();
        from_empty.merge(&empty);
        for m in [&into_empty, &from_empty] {
            assert_eq!(m.counts, h.counts);
            assert_eq!(
                (m.total, m.sum_ps, m.min_ps, m.max_ps),
                (1, 1_000, 1_000, 1_000)
            );
        }
        let mut both = LatencyHistogram::new();
        both.merge(&empty);
        assert_eq!(both.counts.capacity(), 0);
        assert_eq!(both.export().count, 0);
        assert!(both.export().buckets.is_empty());
    }

    #[test]
    fn quantiles_are_clamped_and_ordered() {
        let mut h = LatencyHistogram::new();
        for ps in (1..=1000u64).map(|i| i * 1_000) {
            h.record_ps(ps);
        }
        let p50 = h.quantile_us(0.50);
        let p95 = h.quantile_us(0.95);
        let p99 = h.quantile_us(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        // Relative bucket error bound: midpoint within ~6.25% of true value.
        assert!((p50 - 0.5e-3 * 1000.0).abs() / 0.5 < 0.07, "p50={p50}");
        let ex = h.export();
        assert_eq!(ex.count, 1000);
        assert!(ex.min_us <= p50 && p99 <= ex.max_us);
    }

    #[test]
    fn empty_histogram_exports_zeros() {
        let ex = LatencyHistogram::new().export();
        assert_eq!(ex.count, 0);
        assert_eq!(ex.mean_us, 0.0);
        assert!(ex.buckets.is_empty());
    }
}

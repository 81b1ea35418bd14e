//! Bounded-memory log-linear histograms.
//!
//! A [`Histogram`] records non-negative samples (typically milliseconds)
//! into a **fixed** bucket layout: each power-of-two range
//! `[2^e, 2^{e+1})` is split into [`SUB_BUCKETS`] linear sub-buckets, for
//! exponents `e` in `[`[`MIN_EXP`]`, `[`MAX_EXP`]`)`, plus one underflow
//! bucket (`v <` [`lowest_tracked`]) and one overflow bucket
//! (`v ≥` [`cap`]). Memory is therefore **O([`NUM_BUCKETS`])** regardless
//! of how many samples are recorded — this is what lets a serving engine
//! keep per-query latencies forever without an unbounded `Vec`.
//!
//! Because the layout is fixed, two histograms are always mergeable by
//! bucket-wise addition ([`Histogram::merge`]), and merging is
//! associative and commutative on the counts.
//!
//! # Accuracy guarantee
//!
//! [`Histogram::quantile`] returns the upper bound of the bucket that
//! contains the exact nearest-rank quantile sample (clamped to the
//! recorded maximum). The estimate therefore never undershoots and is off
//! by **at most one bucket width** — a relative error of at most
//! `1 /` [`SUB_BUCKETS`] `= 12.5%` for values inside the tracked range.
//! Samples below [`lowest_tracked`] report at most `lowest_tracked`
//! absolute error; samples at or above [`cap`] are clamped to `cap`.
//!
//! Non-finite input is sanitized so a stray `NaN` can never poison the
//! statistics: `NaN` and negative values record as `0`, `+∞` records as
//! [`cap`] (the overflow bucket).

/// Linear sub-buckets per power of two (sets the relative bucket width).
pub const SUB_BUCKETS: usize = 8;
/// Smallest tracked exponent: values below `2^MIN_EXP` share the
/// underflow bucket.
pub const MIN_EXP: i32 = -13;
/// One-past-largest tracked exponent: values at or above `2^MAX_EXP`
/// share the overflow bucket.
pub const MAX_EXP: i32 = 23;
/// Total bucket count: underflow + log-linear grid + overflow.
pub const NUM_BUCKETS: usize = 2 + (MAX_EXP - MIN_EXP) as usize * SUB_BUCKETS;

/// Upper bound of the underflow bucket, `2^MIN_EXP` (≈ 0.000122).
pub fn lowest_tracked() -> f64 {
    2.0f64.powi(MIN_EXP)
}

/// Lower bound of the overflow bucket, `2^MAX_EXP` (≈ 8.4 × 10⁶); also
/// the value recorded samples are clamped to.
pub fn cap() -> f64 {
    2.0f64.powi(MAX_EXP)
}

/// A mergeable histogram with a fixed log-linear bucket
/// layout. See the module docs for the layout and accuracy guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket sample counts (length [`NUM_BUCKETS`]).
    counts: Vec<u64>,
    /// Total samples recorded.
    count: u64,
    /// Sum of (sanitized) sample values.
    sum: f64,
    /// Smallest sanitized sample, if any were recorded.
    min: Option<f64>,
    /// Largest sanitized sample, if any were recorded.
    max: Option<f64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// The bucket index a (sanitized) value falls into.
    pub fn bucket_of(value: f64) -> usize {
        let v = sanitize(value);
        if v < lowest_tracked() {
            return 0;
        }
        if v >= cap() {
            return NUM_BUCKETS - 1;
        }
        // v is normal (≥ 2^-13), so the IEEE exponent field is exact.
        let e = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        let frac = v / 2.0f64.powi(e) - 1.0; // in [0, 1)
        let sub = ((frac * SUB_BUCKETS as f64) as usize).min(SUB_BUCKETS - 1);
        1 + (e - MIN_EXP) as usize * SUB_BUCKETS + sub
    }

    /// `[lower, upper)` bounds of bucket `index`. The underflow bucket is
    /// `[0, lowest_tracked)`; the overflow bucket's upper bound is `+∞`.
    pub fn bucket_bounds(index: usize) -> (f64, f64) {
        assert!(index < NUM_BUCKETS, "bucket index out of range");
        if index == 0 {
            return (0.0, lowest_tracked());
        }
        if index == NUM_BUCKETS - 1 {
            return (cap(), f64::INFINITY);
        }
        let e = MIN_EXP + ((index - 1) / SUB_BUCKETS) as i32;
        let s = (index - 1) % SUB_BUCKETS;
        let base = 2.0f64.powi(e);
        let step = base / SUB_BUCKETS as f64;
        (base + s as f64 * step, base + (s + 1) as f64 * step)
    }

    /// Records one sample. `NaN` and negative values record as `0`; `+∞`
    /// records as [`cap`].
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records the same sample `n` times in O(1).
    pub fn record_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        let v = sanitize(value);
        self.counts[Self::bucket_of(v)] += n;
        self.count += n;
        self.sum += v * n as f64;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of sanitized sample values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Mean of recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Raw per-bucket counts (length [`NUM_BUCKETS`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Quantile estimate for `q` in `[0, 1]` (`0.5` = median): the upper
    /// bound of the bucket containing the exact nearest-rank sample,
    /// clamped to the recorded maximum. Off by at most one bucket width;
    /// never an undershoot. `None` when empty or `q` is out of range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, upper) = Self::bucket_bounds(i);
                return Some(self.max.map_or(upper, |m| upper.min(m)));
            }
        }
        self.max
    }

    /// Bucket-wise merge of `other` into `self`. Both histograms share
    /// the fixed layout, so this is exact on the counts (and associative
    /// and commutative up to floating-point addition of the sums).
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.counts.len(), other.counts.len(), "fixed layout");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = merge_opt(self.min, other.min, f64::min);
        self.max = merge_opt(self.max, other.max, f64::max);
    }
}

/// Maps any float to the recordable domain `[0, cap]`.
fn sanitize(value: f64) -> f64 {
    if value.is_nan() || value < 0.0 {
        0.0
    } else {
        value.min(cap())
    }
}

fn merge_opt(a: Option<f64>, b: Option<f64>, pick: fn(f64, f64) -> f64) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(pick(x, y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact nearest-rank percentile: the smallest sample with at least
    /// `⌈q·n⌉` samples at or below it.
    fn exact_nearest_rank(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(3.7);
        assert_eq!(h.count(), 1);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_of(3.7));
            assert!(est >= 3.7 && est <= hi.min(h.max().unwrap()), "q={q}");
            assert!(lo <= 3.7);
        }
        assert_eq!(h.min(), Some(3.7));
        assert_eq!(h.max(), Some(3.7));
    }

    #[test]
    fn quantile_rejects_out_of_range_q() {
        let mut h = Histogram::new();
        h.record(1.0);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        let mut prev_upper = 0.0;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo < hi, "bucket {i} is non-empty");
            assert!(
                (lo - prev_upper).abs() < 1e-12 * lo.max(1.0),
                "bucket {i} starts where {} ended",
                i.wrapping_sub(1)
            );
            prev_upper = hi;
        }
        assert!(prev_upper.is_infinite());
    }

    #[test]
    fn bucket_of_respects_bounds() {
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_of(lo), i, "lower bound of {i}");
            if hi.is_finite() {
                let inside = lo + (hi - lo) * 0.5;
                assert_eq!(Histogram::bucket_of(inside), i, "midpoint of {i}");
            }
        }
    }

    #[test]
    fn non_finite_and_negative_samples_are_sanitized() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(-5.0);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 4);
        assert!(h.sum().is_finite());
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(cap()));
        assert!(h.quantile(0.99).unwrap().is_finite());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(2.5, 7);
        for _ in 0..7 {
            b.record(2.5);
        }
        assert_eq!(a.bucket_counts(), b.bucket_counts());
        assert_eq!(a.count(), b.count());
        assert!((a.sum() - b.sum()).abs() < 1e-9);
        a.record_n(1.0, 0);
        assert_eq!(a.count(), 7, "recording zero samples is a no-op");
    }

    proptest! {
        #[test]
        fn percentile_error_is_at_most_one_bucket_width(
            values in prop::collection::vec(0.0..2000.0f64, 1..200),
            q in 0.01..1.0f64,
        ) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let exact = exact_nearest_rank(&values, q);
            let est = h.quantile(q).unwrap();
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_of(exact));
            prop_assert!(est >= exact, "estimate never undershoots: {est} < {exact}");
            prop_assert!(
                est - exact <= hi - lo,
                "error {} exceeds bucket width {} (exact {exact}, est {est})",
                est - exact,
                hi - lo
            );
        }

        #[test]
        fn merge_is_associative_and_commutative(
            xs in prop::collection::vec(0.0..500.0f64, 0..60),
            ys in prop::collection::vec(0.0..500.0f64, 0..60),
            zs in prop::collection::vec(0.0..500.0f64, 0..60),
        ) {
            let build = |vals: &[f64]| {
                let mut h = Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            let (a, b, c) = (build(&xs), build(&ys), build(&zs));

            // (a ⊕ b) ⊕ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);

            prop_assert_eq!(left.bucket_counts(), right.bucket_counts());
            prop_assert_eq!(left.count(), right.count());
            prop_assert_eq!(left.min(), right.min());
            prop_assert_eq!(left.max(), right.max());
            let scale = left.sum().abs().max(1.0);
            prop_assert!((left.sum() - right.sum()).abs() <= 1e-9 * scale);

            // b ⊕ a == a ⊕ b on the counts.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab.bucket_counts(), ba.bucket_counts());
            prop_assert_eq!(ab.count(), ba.count());
        }

        #[test]
        fn merged_equals_bulk_recorded(
            xs in prop::collection::vec(0.0..500.0f64, 0..80),
            split in 0.0..1.0f64,
        ) {
            let cut = (split * xs.len() as f64) as usize;
            let mut all = Histogram::new();
            for &v in &xs {
                all.record(v);
            }
            let mut left = Histogram::new();
            for &v in &xs[..cut] {
                left.record(v);
            }
            let mut right = Histogram::new();
            for &v in &xs[cut..] {
                right.record(v);
            }
            left.merge(&right);
            prop_assert_eq!(all.bucket_counts(), left.bucket_counts());
            prop_assert_eq!(all.count(), left.count());
            prop_assert_eq!(all.min(), left.min());
            prop_assert_eq!(all.max(), left.max());
        }

    }
}

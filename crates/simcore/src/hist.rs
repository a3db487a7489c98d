//! A log-bucketed high-dynamic-range histogram.
//!
//! Latencies in the study span six orders of magnitude (hundreds of
//! nanoseconds of stack time to multi-second tail RPCs), so fixed-width
//! buckets are useless. This histogram uses log-linear bucketing in the
//! style of HdrHistogram: exact counts below 64, then 32 sub-buckets per
//! octave, giving a worst-case relative quantile error of ~1.6% across the
//! full `u64` range with at most 1,920 buckets.

use serde::{Deserialize, Serialize};

/// Number of low-order values recorded exactly.
const LINEAR_LIMIT: u64 = 64;
/// Sub-buckets per octave above the linear range (half of `LINEAR_LIMIT`).
const SUB_PER_OCTAVE: usize = 32;

/// A mergeable, log-bucketed histogram of `u64` values.
///
/// # Examples
///
/// ```
/// use rpclens_simcore::hist::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((480..=520).contains(&p50), "p50 {p50}");
/// assert_eq!(h.count(), 1000);
/// ```
/// Note on construction: [`LogHistogram::new`] seeds `min` with
/// `u64::MAX` (the fold identity), while the derived [`Default`] zeroes
/// every field, so a default-constructed histogram reports `min = 0`
/// once anything is recorded. The difference long predates this note and
/// is pinned by the golden run digests (`root_latency.min_us` flows from
/// a default-constructed histogram), so it must not be "fixed" without
/// re-baselining every digest. Prefer `new()` in new code.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Branchless log-linear bucket index.
///
/// One closed-form expression covers the whole `u64` range: clamping the
/// magnitude at 5 makes the linear region (`v < 64`, where the bucket is
/// `v` itself) fall out of the same `(octave << 5) + top6` arithmetic as
/// the log region, so the hot record path compiles to a handful of ALU
/// ops with no data-dependent branch. `v | 1` keeps `leading_zeros`
/// defined at `v = 0` without changing any magnitude at or above the
/// linear limit. Equivalence with the branchy reference formulation is
/// pinned over the full `u64` range by a proptest below.
fn bucket_index(v: u64) -> usize {
    let msb = 63 - (v | 1).leading_zeros() as usize;
    let m = if msb > 5 { msb } else { 5 }; // max() — compiles to cmov.
    (m << 5) + ((v >> (m - 5)) as usize) - 160
}

fn bucket_midpoint(index: usize) -> u64 {
    if index < LINEAR_LIMIT as usize {
        return index as u64;
    }
    let k = index - LINEAR_LIMIT as usize;
    let octave = (k / SUB_PER_OCTAVE) as u32;
    let sub = (k % SUB_PER_OCTAVE + SUB_PER_OCTAVE) as u64;
    // Bucket spans [sub << (octave+1), (sub+1) << (octave+1)); return its
    // midpoint, saturating near the top of the range.
    let lo = sub << (octave + 1);
    let width = 1u64 << (octave + 1);
    lo.saturating_add(width / 2)
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            // Cold: grows at most ~64 times over a histogram's life.
            self.counts.resize(idx + 1, 0);
        }
        // The value-dependent branch lives in `bucket_index` (closed
        // form, no branch); the updates below are unconditional folds —
        // `min`/`max` compile to cmov, not data-dependent jumps.
        self.counts[idx] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of recorded values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The value at quantile `q` in `[0, 1]`, approximated at bucket
    /// resolution (~1.6% relative error), or `None` if the histogram is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                // Clamp to the exact extremes so quantiles never step
                // outside the recorded range.
                return Some(bucket_midpoint(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        // One whole-histogram guard (empty merges are rare and the
        // branch predicts perfectly); it also keeps a default-constructed
        // empty `other` (whose `min` is 0, see the type-level note) from
        // dragging a real minimum down to zero.
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        // Element-wise add over a pair of equal-stride slices with no
        // per-bucket condition or bounds check: the autovectorizer turns
        // this into wide integer adds.
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original branchy formulation of [`bucket_index`], kept as the
    /// reference the branchless kernel is checked against: exact buckets
    /// below the linear limit, then `SUB_PER_OCTAVE` log-linear
    /// sub-buckets per octave.
    fn bucket_index_reference(v: u64) -> usize {
        if v < LINEAR_LIMIT {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as u64; // >= 6 here.
        let shift = msb - 5;
        let top6 = (v >> shift) as usize; // In [32, 63].
        LINEAR_LIMIT as usize + (msb as usize - 6) * SUB_PER_OCTAVE + (top6 - SUB_PER_OCTAVE)
    }

    #[test]
    fn branchless_bucket_index_matches_reference_at_edges() {
        // Every boundary the closed form has to get right: zero, the
        // linear limit and its neighbours, every power of two and its
        // neighbours, and the top of the range.
        let mut cases = vec![0u64, 1, 2, 63, 64, 65, u64::MAX, u64::MAX - 1];
        for p in 1..64 {
            let b = 1u64 << p;
            cases.extend([b - 1, b, b + 1]);
        }
        for v in cases {
            assert_eq!(
                bucket_index(v),
                bucket_index_reference(v),
                "bucket_index diverged at {v}"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..LINEAR_LIMIT {
            h.record(v);
        }
        assert_eq!(h.count(), LINEAR_LIMIT);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        // Every small value occupies its own bucket.
        assert_eq!(
            h.counts.iter().filter(|&&c| c > 0).count(),
            LINEAR_LIMIT as usize
        );
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn quantile_extremes_are_exact() {
        let mut h = LogHistogram::new();
        h.record(17);
        h.record(1_000_003);
        assert_eq!(h.quantile(0.0), Some(17));
        assert_eq!(h.quantile(1.0), Some(1_000_003));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::new();
        h.record_n(100, 3);
        h.record_n(1000, 1);
        assert_eq!(h.mean(), Some(325.0));
        assert_eq!(h.sum(), 1300);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = LogHistogram::new();
        for i in 0..100_000u64 {
            // A deterministic spread over several octaves.
            h.record(1 + i * 13 % 1_000_000);
        }
        let mut values: Vec<u64> = (0..100_000u64).map(|i| 1 + i * 13 % 1_000_000).collect();
        values.sort_unstable();
        for &q in &[0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let exact = values[((values.len() - 1) as f64 * q) as usize] as f64;
            let approx = h.quantile(q).unwrap() as f64;
            let rel = (approx - exact).abs() / exact.max(1.0);
            assert!(rel < 0.04, "q={q}: exact {exact} approx {approx} rel {rel}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut combined = LogHistogram::new();
        for i in 0..1000u64 {
            let v = i * i % 77_777;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.sum(), combined.sum());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
        for &q in &[0.1, 0.5, 0.9] {
            assert_eq!(a.quantile(q), combined.quantile(q));
        }
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = LogHistogram::new();
        h.record_n(5, 0);
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        let mut h = LogHistogram::new();
        h.record(1);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn handles_extreme_values() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert!(h.quantile(0.9).is_some());
    }

    proptest! {
        #[test]
        fn branchless_bucket_index_matches_reference(v: u64) {
            // Full-u64-range equivalence of the branchless kernel with
            // the branchy reference: the two must agree on every input,
            // not just in-distribution latencies.
            prop_assert_eq!(bucket_index(v), bucket_index_reference(v));
        }

        #[test]
        fn record_n_zero_preserves_extremes(v: u64, w: u64) {
            // The masked (branch-free) extreme update must treat n = 0 as
            // a strict no-op both on an empty histogram and after real
            // records.
            let mut h = LogHistogram::new();
            h.record_n(v, 0);
            prop_assert!(h.is_empty());
            prop_assert_eq!(h.min(), None);
            prop_assert_eq!(h.max(), None);
            h.record(w);
            h.record_n(v, 0);
            prop_assert_eq!(h.min(), Some(w));
            prop_assert_eq!(h.max(), Some(w));
            prop_assert_eq!(h.count(), 1);
        }

        #[test]
        fn merge_with_empty_is_identity_in_both_directions(
            values in proptest::collection::vec(any::<u64>(), 0..50),
        ) {
            // The guard-free merge relies on the empty histogram's fields
            // being fold identities; check both merge directions against
            // the untouched original, over full-range values.
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut merged = h.clone();
            merged.merge(&LogHistogram::default());
            prop_assert_eq!(merged.count(), h.count());
            prop_assert_eq!(merged.sum(), h.sum());
            prop_assert_eq!(merged.min(), h.min());
            prop_assert_eq!(merged.max(), h.max());
            prop_assert_eq!(&merged.counts, &h.counts);
            let mut seeded = LogHistogram::new();
            seeded.merge(&h);
            prop_assert_eq!(seeded.count(), h.count());
            prop_assert_eq!(seeded.min(), h.min());
            prop_assert_eq!(seeded.max(), h.max());
            prop_assert_eq!(&seeded.counts, &h.counts);
        }

        #[test]
        fn bucket_index_is_monotone_nondecreasing(a: u64, b: u64) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bucket_index(lo) <= bucket_index(hi));
        }

        #[test]
        fn bucket_midpoint_is_within_relative_error(v in 1u64..u64::MAX / 2) {
            let mid = bucket_midpoint(bucket_index(v));
            let rel = (mid as f64 - v as f64).abs() / v as f64;
            prop_assert!(rel <= 1.0 / 32.0 + 1e-9, "v={v} mid={mid} rel={rel}");
        }

        #[test]
        fn sharded_merge_is_bit_identical_to_single_pass(
            values in proptest::collection::vec(0u64..1_000_000_000, 1..200),
            shards in 1usize..8,
        ) {
            // The parallel fleet driver records per-shard histograms and
            // folds them in shard order; bucket counts are integers, so the
            // merged histogram must equal single-pass recording EXACTLY —
            // this is part of the determinism contract.
            let mut single = LogHistogram::new();
            for &v in &values {
                single.record(v);
            }
            let chunk = values.len().div_ceil(shards);
            let mut merged = LogHistogram::new();
            for part in values.chunks(chunk) {
                let mut local = LogHistogram::new();
                for &v in part {
                    local.record(v);
                }
                merged.merge(&local);
            }
            prop_assert_eq!(merged.count(), single.count());
            prop_assert_eq!(merged.sum(), single.sum());
            prop_assert_eq!(merged.min(), single.min());
            prop_assert_eq!(merged.max(), single.max());
            for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
                prop_assert_eq!(merged.quantile(q), single.quantile(q));
            }
            prop_assert_eq!(&merged.counts, &single.counts);
        }

        #[test]
        fn quantile_between_min_and_max(values in proptest::collection::vec(0u64..1_000_000_000, 1..100), q in 0.0f64..=1.0) {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let got = h.quantile(q).unwrap();
            prop_assert!(got >= h.min().unwrap());
            prop_assert!(got <= h.max().unwrap());
        }
    }
}

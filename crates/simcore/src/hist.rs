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
/// pinned over the full `u64` range by a property test below.
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
    use crate::rng::Prng;

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

    #[test]
    fn branchless_bucket_index_matches_reference() {
        // Full-u64-range equivalence of the branchless kernel with
        // the branchy reference: the two must agree on every input,
        // not just in-distribution latencies.
        let mut rng = Prng::seed_from(0x4157_0001);
        let mut cases = vec![0, u64::MAX];
        cases.resize_with(64, || rng.next_u64());
        for (case, v) in cases.into_iter().enumerate() {
            assert_eq!(
                bucket_index(v),
                bucket_index_reference(v),
                "case {case}, v {v}"
            );
        }
    }

    #[test]
    fn record_n_zero_preserves_extremes() {
        // The masked (branch-free) extreme update must treat n = 0 as
        // a strict no-op both on an empty histogram and after real
        // records.
        let mut rng = Prng::seed_from(0x4157_0002);
        let mut cases = vec![(0, 0), (0, u64::MAX), (u64::MAX, 0), (u64::MAX, u64::MAX)];
        cases.resize_with(64, || (rng.next_u64(), rng.next_u64()));
        for (case, (v, w)) in cases.into_iter().enumerate() {
            let inputs = format!("case {case}: v {v}, w {w}");
            let mut h = LogHistogram::new();
            h.record_n(v, 0);
            assert_eq!(
                (h.is_empty(), h.min(), h.max()),
                (true, None, None),
                "{inputs}"
            );
            h.record(w);
            h.record_n(v, 0);
            assert_eq!(
                (h.min(), h.max(), h.count()),
                (Some(w), Some(w), 1),
                "{inputs}"
            );
        }
    }

    #[test]
    fn merge_with_empty_is_identity_in_both_directions() {
        // The guard-free merge relies on the empty histogram's fields
        // being fold identities; check both merge directions against
        // the untouched original, over full-range values.
        let mut rng = Prng::seed_from(0x4157_0003);
        let mut cases = vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![0; 49],
            vec![u64::MAX; 49],
        ];
        cases.resize_with(64, || (0..rng.index(50)).map(|_| rng.next_u64()).collect());
        let fields = |h: &LogHistogram| (h.count(), h.sum(), h.min(), h.max(), h.counts.clone());
        for (case, values) in cases.into_iter().enumerate() {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut merged = h.clone();
            merged.merge(&LogHistogram::default());
            let inputs = format!("case {case}: values {values:?}");
            assert_eq!(fields(&merged), fields(&h), "{inputs}");
            let mut seeded = LogHistogram::new();
            seeded.merge(&h);
            assert_eq!(fields(&seeded), fields(&h), "{inputs}");
        }
    }

    #[test]
    fn bucket_index_is_monotone_nondecreasing() {
        let mut rng = Prng::seed_from(0x4157_0004);
        let mut cases = vec![(0, 0), (0, u64::MAX), (u64::MAX, 0), (u64::MAX, u64::MAX)];
        cases.resize_with(64, || (rng.next_u64(), rng.next_u64()));
        for (case, (a, b)) in cases.into_iter().enumerate() {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let inputs = format!("case {case}: a {a}, b {b}");
            assert!(bucket_index(lo) <= bucket_index(hi), "{inputs}");
        }
    }

    #[test]
    fn bucket_midpoint_is_within_relative_error() {
        let (mut rng, half) = (Prng::seed_from(0x4157_0005), u64::MAX / 2);
        let mut cases = vec![1, half - 1];
        cases.resize_with(64, || 1 + rng.next_below(half - 1));
        for (case, v) in cases.into_iter().enumerate() {
            let mid = bucket_midpoint(bucket_index(v));
            let rel = (mid as f64 - v as f64).abs() / v as f64;
            assert!(
                rel <= 1.0 / 32.0 + 1e-9,
                "case {case}: v={v} mid={mid} rel={rel}"
            );
        }
    }

    #[test]
    fn sharded_merge_is_bit_identical_to_single_pass() {
        // The parallel fleet driver records per-shard histograms and
        // folds them in shard order; bucket counts are integers, so the
        // merged histogram must equal single-pass recording EXACTLY —
        // this is part of the determinism contract.
        let mut rng = Prng::seed_from(0x4157_0006);
        let mut cases = vec![(1, 1), (1, 7), (199, 1), (199, 7)];
        cases.resize_with(64, || (1 + rng.index(199), 1 + rng.index(7)));
        for (case, (len, shards)) in cases.into_iter().enumerate() {
            let values: Vec<u64> = (0..len).map(|_| rng.next_below(1_000_000_000)).collect();
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
            let inputs = format!("case {case}: shards {shards}, values {values:?}");
            assert_eq!(merged.count(), single.count(), "{inputs}");
            assert_eq!(merged.sum(), single.sum(), "{inputs}");
            assert_eq!(merged.min(), single.min(), "{inputs}");
            assert_eq!(merged.max(), single.max(), "{inputs}");
            for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
                assert_eq!(merged.quantile(q), single.quantile(q), "q {q}, {inputs}");
            }
            assert_eq!(&merged.counts, &single.counts, "{inputs}");
        }
    }

    #[test]
    fn quantile_between_min_and_max() {
        let mut rng = Prng::seed_from(0x4157_0007);
        let mut cases = vec![(vec![0], 0.0), (vec![999_999_999], 1.0), (vec![0; 99], 1.0)];
        cases.resize_with(64, || {
            let values = (0..1 + rng.index(99)).map(|_| rng.next_below(1_000_000_000));
            (values.collect(), rng.next_f64())
        });
        for (case, (values, q)) in cases.into_iter().enumerate() {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let got = h.quantile(q).unwrap();
            let inputs = format!("case {case}: q {q}, got {got}, values {values:?}");
            assert!(got >= h.min().unwrap(), "{inputs}");
            assert!(got <= h.max().unwrap(), "{inputs}");
        }
    }
}

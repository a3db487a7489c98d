//! Exact quantiles and correlation measures.
//!
//! The characterization analyses mostly operate on per-method sample
//! vectors extracted from the trace store, so they use *exact* order
//! statistics here (as the paper's offline analysis pipeline would), while
//! online fleet aggregation uses [`crate::hist::LogHistogram`].

/// Returns the `q`-quantile of `sorted` using linear interpolation between
/// closest ranks, or `None` if the slice is empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or the slice is not sorted in debug
/// builds.
///
/// # Examples
///
/// ```
/// use rpclens_simcore::stats::percentile;
///
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&v, 0.5), Some(2.5));
/// assert_eq!(percentile(&v, 1.0), Some(4.0));
/// ```
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let (lo, hi, frac) = ranks_of(sorted.len(), q)?;
    Some(interpolate(sorted[lo], sorted[hi], frac))
}

/// The `q`-quantile of the finite values in `values`, found by selection
/// instead of a full sort; `None` if no value is finite.
///
/// Equal to `percentile(&sorted_finite(v), q)`, bit for bit unless the
/// input holds both `-0.0` and `+0.0`. Reorders `values`: the finite
/// values move to the front, and rank `lo` of them is selected in place.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use rpclens_simcore::stats::select_percentile;
///
/// let mut v = [4.0, f64::NAN, 1.0, 3.0, 2.0];
/// assert_eq!(select_percentile(&mut v, 0.5), Some(2.5));
/// assert_eq!(select_percentile(&mut [f64::INFINITY], 0.5), None);
/// ```
pub fn select_percentile(values: &mut [f64], q: f64) -> Option<f64> {
    let mut finite = 0;
    for i in 0..values.len() {
        if values[i].is_finite() {
            values.swap(finite, i);
            finite += 1;
        }
    }
    let (lo, hi, frac) = ranks_of(finite, q)?;
    let (_, &mut low, above) = values[..finite].select_nth_unstable_by(lo, f64::total_cmp);
    let high = if hi == lo {
        low
    } else {
        above.iter().copied().min_by(f64::total_cmp)?
    };
    Some(interpolate(low, high, frac))
}

/// The two closest ranks around the `q`-quantile of `len` sorted values
/// and the weight of the upper one, or `None` if `len` is 0.
fn ranks_of(len: usize, q: f64) -> Option<(usize, usize, f64)> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    let last = len.checked_sub(1)?;
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    Some((lo, pos.ceil() as usize, pos - lo as f64))
}

/// Linear interpolation between two neighbouring order statistics.
fn interpolate(low: f64, high: f64, frac: f64) -> f64 {
    low + (high - low) * frac
}

/// Returns the element of `sorted` at the rank nearest to
/// `q * (len - 1)`, without interpolation, or `None` if the slice is
/// empty. `q` must be in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use rpclens_simcore::stats::nearest_rank;
///
/// let v = [10u64, 20, 30, 40];
/// assert_eq!(nearest_rank(&v, 0.5), Some(30));
/// assert_eq!(nearest_rank(&v, 0.99), Some(40));
/// assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
/// ```
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let last = sorted.len().checked_sub(1)?;
    Some(sorted[(last as f64 * q).round() as usize])
}

/// Sorts a sample vector and returns it, dropping non-finite values.
///
/// The output is a stable `partial_cmp` sort's, bit for bit. The values
/// are sorted as order-preserving `u64` keys (the bit map behind
/// [`f64::total_cmp`]) with an unstable sort, converted in place: finite
/// values that compare equal have equal bits, so their order cannot
/// show. The exception is `-0.0` against `+0.0`, which compare equal
/// but differ in bits; an input holding a `-0.0` takes the stable sort,
/// which keeps its zeros in input order.
pub fn sorted_finite(mut values: Vec<f64>) -> Vec<f64> {
    values.retain(|v| v.is_finite());
    if values.iter().any(|v| v.to_bits() == NEG_ZERO_BITS) {
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        return values;
    }
    // Both maps reuse the vector's buffer: `u64` and `f64` share size
    // and alignment.
    let mut keys: Vec<u64> = values.into_iter().map(order_key).collect();
    keys.sort_unstable();
    keys.into_iter().map(from_order_key).collect()
}

const NEG_ZERO_BITS: u64 = 1 << 63;

/// Maps `v` to a `u64` whose unsigned order is `f64::total_cmp`'s:
/// negative values have every bit flipped, the others only the sign.
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | NEG_ZERO_BITS)
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(key ^ (!((key as i64 >> 63) as u64) | NEG_ZERO_BITS))
}

/// A compact multi-quantile summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QuantileSummary {
    /// Number of samples summarised.
    pub count: usize,
    /// 1st percentile.
    pub p01: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl QuantileSummary {
    /// Builds a summary from an unsorted sample vector, or `None` if empty
    /// after dropping non-finite values.
    pub fn from_samples(values: Vec<f64>) -> Option<Self> {
        let sorted = sorted_finite(values);
        if sorted.is_empty() {
            return None;
        }
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(QuantileSummary {
            count: sorted.len(),
            p01: percentile(&sorted, 0.01)?,
            p10: percentile(&sorted, 0.10)?,
            p50: percentile(&sorted, 0.50)?,
            p90: percentile(&sorted, 0.90)?,
            p95: percentile(&sorted, 0.95)?,
            p99: percentile(&sorted, 0.99)?,
            mean,
        })
    }

    /// Retrieves a named quantile; `q` must be one of the stored levels.
    pub fn get(&self, q: f64) -> Option<f64> {
        match q {
            0.01 => Some(self.p01),
            0.10 => Some(self.p10),
            0.50 => Some(self.p50),
            0.90 => Some(self.p90),
            0.95 => Some(self.p95),
            0.99 => Some(self.p99),
            _ => None,
        }
    }
}

/// Pearson correlation coefficient of two equal-length slices, or `None` if
/// fewer than two points or either side has zero variance.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Spearman rank correlation of two equal-length slices.
///
/// Ties receive their average rank. Returns `None` under the same
/// conditions as [`pearson`].
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let rx = ranks(x);
    let ry = ranks(y);
    pearson(&rx, &ry)
}

/// Assigns average ranks (1-based) to a slice, averaging ties.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite"));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 0.25), Some(20.0));
        assert_eq!(percentile(&v, 0.5), Some(30.0));
        assert_eq!(percentile(&v, 0.875), Some(45.0));
        assert_eq!(percentile(&v, 1.0), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn select_percentile_edges() {
        assert_eq!(select_percentile(&mut [], 0.5), None);
        assert_eq!(
            select_percentile(&mut [f64::NAN, f64::NEG_INFINITY], 0.0),
            None
        );
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(select_percentile(&mut [7.5], q), Some(7.5));
            assert_eq!(
                select_percentile(&mut [f64::NAN, 7.5, f64::INFINITY], q),
                Some(7.5)
            );
            assert_eq!(select_percentile(&mut [3.0; 5], q), Some(3.0));
        }
        let mut v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(select_percentile(&mut v, 0.875), Some(45.0));
    }

    #[test]
    fn sorted_finite_drops_nan_and_sorts() {
        let v = sorted_finite(vec![3.0, f64::NAN, 1.0, f64::INFINITY, 2.0]);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn quantile_summary_orders_levels() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = QuantileSummary::from_samples(samples).unwrap();
        assert_eq!(s.count, 1000);
        assert!(s.p01 < s.p10 && s.p10 < s.p50 && s.p50 < s.p90);
        assert!(s.p90 < s.p95 && s.p95 < s.p99);
        assert!((s.p50 - 500.5).abs() < 1e-9);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert_eq!(s.get(0.5), Some(s.p50));
        assert_eq!(s.get(0.33), None);
    }

    #[test]
    fn quantile_summary_empty_is_none() {
        assert!(QuantileSummary::from_samples(vec![]).is_none());
        assert!(QuantileSummary::from_samples(vec![f64::NAN]).is_none());
    }

    #[test]
    fn pearson_detects_perfect_linearity() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 2.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_rejects_degenerate_inputs() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[5.0, 5.0]).is_none());
        assert!(pearson(&[1.0, 2.0, 3.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn spearman_captures_monotone_nonlinear_relation() {
        let x: Vec<f64> = (1..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.exp().min(1e300)).collect();
        // Nonlinear but perfectly monotone.
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ranks_average_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn percentile_is_monotone_in_q() {
        let mut rng = Prng::seed_from(0x57A7_0001);
        let mut cases = vec![(2, 0.0, 1.0), (99, 1.0, 0.0), (2, 1.0, 1.0), (99, 0.0, 0.0)];
        cases.resize_with(64, || (2 + rng.index(98), rng.next_f64(), rng.next_f64()));
        for (case, (len, q1, q2)) in cases.into_iter().enumerate() {
            let mut values: Vec<f64> = (0..len).map(|_| -1e6 + rng.next_f64() * 2e6).collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let a = percentile(&values, lo).unwrap();
            let b = percentile(&values, hi).unwrap();
            let inputs = format!("case {case}: q1 {q1}, q2 {q2}, {values:?}");
            assert!(a <= b + 1e-9, "{inputs}");
        }
    }

    #[test]
    fn select_percentile_matches_the_sorted_path() {
        // Small integer values so duplicates are common; the special
        // draws put NaN and infinities among them.
        let mut rng = Prng::seed_from(0x57A7_0002);
        let mut cases = vec![vec![(0, 0)], vec![(1, 0)], vec![(2, 0)], vec![(11, -20)]];
        cases.extend([vec![(11, 19); 199], vec![(0, 0); 199]]);
        cases.resize_with(64, || {
            let len = 1 + rng.index(199);
            (0..len)
                .map(|_| (rng.index(12), rng.index(40) as i32 - 20))
                .collect()
        });
        for (case, draws) in cases.into_iter().enumerate() {
            let mut values: Vec<f64> = draws
                .iter()
                .map(|&(kind, v)| match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => f64::from(v) * 0.25,
                })
                .collect();
            let sorted = sorted_finite(values.clone());
            for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
                let expect = percentile(&sorted, q).map(f64::to_bits);
                let got = select_percentile(&mut values, q).map(f64::to_bits);
                assert_eq!(got, expect, "case {case}: q = {q}, draws {draws:?}");
            }
        }
    }

    #[test]
    fn sorted_finite_matches_the_stable_partial_cmp_sort() {
        // Small integer values so duplicates are common, both signs, and
        // special draws for NaN, the infinities and both zeros.
        let mut rng = Prng::seed_from(0x57A7_0003);
        let mut cases: Vec<Vec<(usize, i32)>> = (0..6).map(|kind| vec![(kind, -20)]).collect();
        cases.extend([
            vec![],
            vec![(3, 0), (4, 0)],
            vec![(4, 0), (3, 0)],
            vec![(13, 19); 199],
        ]);
        cases.resize_with(64, || {
            let len = rng.index(200);
            (0..len)
                .map(|_| (rng.index(14), rng.index(40) as i32 - 20))
                .collect()
        });
        for (case, draws) in cases.into_iter().enumerate() {
            let values: Vec<f64> = draws
                .iter()
                .map(|&(kind, v)| match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    5 => f64::MIN_POSITIVE * f64::from(v),
                    _ => f64::from(v) * 0.25,
                })
                .collect();
            // The previous implementation, kept as the reference.
            let mut expect = values.clone();
            expect.retain(|v| v.is_finite());
            expect.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let inputs = format!("case {case}: draws {draws:?}");
            assert_eq!(
                bits(&sorted_finite(values.clone())),
                bits(&expect),
                "{inputs}"
            );
            // The same input without its negative zeros takes the key sort.
            let no_neg_zero: Vec<f64> = values
                .iter()
                .copied()
                .filter(|v| v.to_bits() != NEG_ZERO_BITS)
                .collect();
            expect.retain(|v| v.to_bits() != NEG_ZERO_BITS);
            assert_eq!(bits(&sorted_finite(no_neg_zero)), bits(&expect), "{inputs}");
        }
    }

    #[test]
    fn order_keys_round_trip_and_order_like_total_cmp() {
        let mut rng = Prng::seed_from(0x57A7_0004);
        let corners = [0, u64::MAX, NEG_ZERO_BITS];
        let mut cases: Vec<_> = corners
            .iter()
            .flat_map(|&a| corners.map(|b| (a, b)))
            .collect();
        cases.resize_with(64, || (rng.next_u64(), rng.next_u64()));
        for (case, (a_bits, b_bits)) in cases.into_iter().enumerate() {
            let (a, b) = (f64::from_bits(a_bits), f64::from_bits(b_bits));
            let inputs = format!("case {case}: a_bits {a_bits:#x}, b_bits {b_bits:#x}");
            assert_eq!(
                from_order_key(order_key(a)).to_bits(),
                a.to_bits(),
                "{inputs}"
            );
            assert_eq!(order_key(a).cmp(&order_key(b)), a.total_cmp(&b), "{inputs}");
        }
    }

    #[test]
    fn correlation_is_bounded() {
        let mut rng = Prng::seed_from(0x57A7_0005);
        let mut cases = vec![3, 49];
        cases.resize_with(64, || 3 + rng.index(47));
        for (case, len) in cases.into_iter().enumerate() {
            let x: Vec<f64> = (0..len).map(|_| -100.0 + rng.next_f64() * 200.0).collect();
            let y: Vec<f64> = x.iter().map(|v| v * 2.0 + (v * 17.0).sin()).collect();
            for r in [pearson(&x, &y), spearman(&x, &y)].into_iter().flatten() {
                let inputs = format!("case {case}: r {r}, x {x:?}");
                assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "{inputs}");
            }
        }
    }
}

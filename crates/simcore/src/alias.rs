//! O(1) categorical sampling via the Vose alias method.
//!
//! The workload generator draws the next method to invoke from a 10,000-way
//! categorical distribution billions of times per simulated day, so constant
//! time sampling matters.

use crate::rng::Prng;

/// A precomputed alias table for sampling indices with given weights.
///
/// # Examples
///
/// ```
/// use rpclens_simcore::alias::AliasTable;
/// use rpclens_simcore::rng::Prng;
///
/// let table = AliasTable::new(&[1.0, 1.0, 8.0]).unwrap();
/// let mut rng = Prng::seed_from(1);
/// let mut counts = [0u32; 3];
/// for _ in 0..10_000 {
///     counts[table.sample(&mut rng)] += 1;
/// }
/// assert!(counts[2] > counts[0] * 4);
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

/// Error returned when an alias table cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AliasError {
    /// The weight slice was empty.
    Empty,
    /// A weight was negative or non-finite, or all weights were zero.
    BadWeights,
    /// More than `u32::MAX` categories were requested.
    TooManyCategories,
}

impl std::fmt::Display for AliasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AliasError::Empty => write!(f, "alias table needs at least one weight"),
            AliasError::BadWeights => {
                write!(f, "weights must be finite, non-negative, not all zero")
            }
            AliasError::TooManyCategories => write!(f, "too many categories for alias table"),
        }
    }
}

impl std::error::Error for AliasError {}

impl AliasTable {
    /// Builds an alias table from unnormalised weights.
    ///
    /// # Errors
    ///
    /// Returns [`AliasError`] if `weights` is empty, contains a negative or
    /// non-finite weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, AliasError> {
        let n = weights.len();
        if n == 0 {
            return Err(AliasError::Empty);
        }
        if n > u32::MAX as usize {
            return Err(AliasError::TooManyCategories);
        }
        let total: f64 = weights.iter().sum();
        if !total.is_finite() || total <= 0.0 || weights.iter().any(|&w| w < 0.0 || !w.is_finite())
        {
            return Err(AliasError::BadWeights);
        }

        // Scale so the average bucket holds probability 1.
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Remaining entries are exactly 1 up to floating error.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        Ok(AliasTable { prob, alias })
    }

    /// Draws a category index.
    #[inline]
    pub fn sample(&self, rng: &mut Prng) -> usize {
        let i = rng.index(self.prob.len());
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table has zero categories (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_inputs() {
        assert_eq!(AliasTable::new(&[]).unwrap_err(), AliasError::Empty);
        assert_eq!(
            AliasTable::new(&[0.0, 0.0]).unwrap_err(),
            AliasError::BadWeights
        );
        assert_eq!(
            AliasTable::new(&[1.0, -1.0]).unwrap_err(),
            AliasError::BadWeights
        );
        assert_eq!(
            AliasTable::new(&[f64::NAN]).unwrap_err(),
            AliasError::BadWeights
        );
    }

    #[test]
    fn single_category_always_wins() {
        let t = AliasTable::new(&[3.5]).unwrap();
        let mut rng = Prng::seed_from(0);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zero_weight_category_never_sampled() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]).unwrap();
        let mut rng = Prng::seed_from(1);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn empirical_frequencies_match_weights() {
        let weights = [5.0, 1.0, 3.0, 1.0];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = Prng::seed_from(2);
        let n = 200_000;
        let mut counts = [0u32; 4];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let observed = counts[i] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.005,
                "category {i}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn samples_always_in_range() {
        let mut rng = Prng::seed_from(0xA11A5);
        let mut one_live = vec![0.0; 63];
        one_live[62] = 1.0;
        let mut cases = vec![(vec![1.0], 0), (one_live, u64::MAX)];
        // An all-zero table is rejected: redraw until the case is valid.
        cases.resize_with(64, || loop {
            let weights: Vec<f64> = (0..1 + rng.index(63))
                .map(|_| rng.next_f64() * 100.0)
                .collect();
            if weights.iter().sum::<f64>() > 0.0 {
                break (weights, rng.next_u64());
            }
        });
        for (case, (weights, seed)) in cases.into_iter().enumerate() {
            let t = AliasTable::new(&weights).unwrap();
            let mut sampler = Prng::seed_from(seed);
            let inputs = format!("case {case}: seed {seed}, weights {weights:?}");
            for _ in 0..256 {
                let i = t.sample(&mut sampler);
                assert!(i < weights.len(), "{inputs}");
                assert!(
                    weights[i] > 0.0,
                    "sampled zero-weight category {i}; {inputs}"
                );
            }
        }
    }
}

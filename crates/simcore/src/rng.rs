//! Deterministic, splittable pseudo-random number generation.
//!
//! Reproducibility is a hard requirement for the fleet simulator: every
//! figure in the study must regenerate bit-identically from a single master
//! seed. We therefore implement the generator ourselves instead of relying
//! on an external crate whose stream could change across versions:
//!
//! - [`SplitMix64`] is used for seeding and for deriving independent
//!   sub-streams (one per method, per machine, per link, ...), following the
//!   recommendation of Blackman & Vigna.
//! - [`Prng`] is xoshiro256**, a fast all-purpose generator with a 2^256 - 1
//!   period and no known statistical failures at simulation scale.

/// The SplitMix64 generator, used to expand seeds and derive sub-streams.
///
/// # Examples
///
/// ```
/// use rpclens_simcore::rng::SplitMix64;
///
/// let mut sm = SplitMix64::new(1);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A deterministic xoshiro256** PRNG with convenience sampling methods.
///
/// Cloning a `Prng` duplicates its stream; use [`Prng::stream`] or
/// [`Prng::substream`] to derive *independent* sub-streams instead.
#[derive(Debug, Clone)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Creates a generator whose state is expanded from `seed` with
    /// SplitMix64 (so similar seeds still yield decorrelated states).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // xoshiro's all-zero state is absorbing; SplitMix64 cannot emit four
        // consecutive zeros, but guard anyway for clarity.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Prng { s }
    }

    /// Derives an independent sub-stream labelled by `label`.
    ///
    /// Streams with different labels (or from generators with different
    /// seeds) are statistically independent. This is how the simulator gives
    /// each entity (method, machine, link) its own reproducible randomness
    /// regardless of the order entities consume samples.
    pub fn stream(&self, label: u64) -> Prng {
        let mut sm = SplitMix64::new(
            self.s[0]
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(label.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        );
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        Prng { s }
    }

    /// Derives the `index`-th counter-based sub-stream.
    ///
    /// This is the sharding primitive: work item `i` of a partitioned
    /// computation draws from `substream(i)` regardless of which worker
    /// thread executes it, so results are identical at any shard count.
    /// Like [`Prng::stream`], derivation borrows the parent immutably and
    /// never advances it, so any number of substreams can be taken from
    /// one master generator, in any order, without perturbing it or each
    /// other. Indexes are
    /// mapped (bijectively) into a label region reserved for counter-based
    /// streams so that realistic counter values (dense indexes from zero)
    /// cannot collide with the small hand-picked labels `stream` is used
    /// with.
    pub fn substream(&self, index: u64) -> Prng {
        self.stream(index ^ 0x7200_0000)
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `(0, 1]`, convenient for `ln()` transforms.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless bounded sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a standard normal sample via the Box-Muller transform.
    #[inline]
    pub fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_f64_open();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element from a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // Reference outputs for seed 1234567 from the canonical C
        // implementation by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(sm.next_u64(), e);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from(9);
        let mut b = Prng::seed_from(9);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from(1);
        let mut b = Prng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_label_deterministic_and_distinct() {
        let root = Prng::seed_from(7);
        let mut s1 = root.stream(42);
        let mut s1b = root.stream(42);
        let mut s2 = root.stream(43);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        let mut a = root.stream(42);
        assert_ne!(a.next_u64(), s2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Prng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = Prng::seed_from(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Prng::seed_from(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn bounded_sampling_is_unbiased_across_buckets() {
        let mut rng = Prng::seed_from(6);
        let mut counts = [0u32; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.next_below(7) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; 5 sigma is ~±480.
            assert!((c as i64 - 10_000).abs() < 600, "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        Prng::seed_from(0).next_below(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Prng::seed_from(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    proptest! {
        #[test]
        fn substreams_are_distinct_and_derivation_is_repeatable(seed: u64) {
            let parent = Prng::seed_from(seed);
            let mut a = parent.substream(0);
            let mut b = parent.substream(1);
            prop_assert_ne!(a.next_u64(), b.next_u64());
            // Derivation never advances the parent, so taking the same
            // index again — even after deriving other substreams — yields
            // the identical child. The sharded fleet driver depends on
            // this: every shard derives per-trace substreams from one
            // shared master generator.
            let _ = parent.substream(3);
            let mut c1 = parent.substream(7);
            let mut c2 = parent.substream(7);
            prop_assert_eq!(c1.next_u64(), c2.next_u64());
        }

        #[test]
        fn split_children_are_independent_of_consumption_order(seed: u64) {
            // Deriving stream(k) must not depend on how much the parent has
            // been used.
            let parent = Prng::seed_from(seed);
            let mut c1 = parent.stream(5);
            let mut throwaway = parent.clone();
            for _ in 0..17 {
                throwaway.next_u64();
            }
            let mut c2 = parent.stream(5);
            prop_assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }
}

//! The exogenous machine-state variables of Table 2.
//!
//! | Variable          | Description                                        |
//! |-------------------|----------------------------------------------------|
//! | CPU util          | % CPU utilized                                     |
//! | Memory BW         | total memory bandwidth utilized (GB/s)             |
//! | Long wakeup rate  | fraction of scheduling events longer than 50 µs    |
//! | Cycles per Inst.  | CPU's cycles per instruction                       |
//!
//! Each profile is a *pure function of time and seed*: a diurnal sinusoid
//! plus band-limited noise (linear interpolation between per-bucket hash
//! noise), so any component can query machine state at any instant without
//! shared mutable state, and a 24-hour query sweep (Fig. 18) is exactly
//! reproducible.

use rpclens_simcore::rng::SplitMix64;
use rpclens_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A snapshot of the four exogenous variables at one instant.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExogenousVars {
    /// CPU utilization in `[0, 1]`.
    pub cpu_util: f64,
    /// Memory bandwidth utilized, GB/s.
    pub mem_bw_gbps: f64,
    /// Fraction of scheduling events taking longer than 50 µs.
    pub long_wakeup_rate: f64,
    /// Cycles per instruction.
    pub cpi: f64,
}

/// Generator parameters for one machine's (or cluster's) exogenous state.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExogenousProfile {
    /// Mean CPU utilization (the diurnal curve oscillates around this).
    pub base_util: f64,
    /// Peak-to-mean amplitude of the diurnal utilization swing.
    pub diurnal_amp: f64,
    /// Hour of day (0-24) at which utilization peaks.
    pub peak_hour: f64,
    /// Std-dev of the band-limited utilization noise.
    pub noise: f64,
    /// Seed for this profile's noise stream.
    pub seed: u64,
}

/// Peak machine memory bandwidth, GB/s, reached at 100% utilization.
const MEM_BW_PEAK_GBPS: f64 = 120.0;

/// Noise bucket width: one value per 5 simulated minutes, interpolated.
const NOISE_BUCKET: SimDuration = SimDuration::from_mins(5);

impl ExogenousProfile {
    /// A typical shared-machine profile with moderate load.
    pub fn shared(seed: u64) -> Self {
        ExogenousProfile {
            base_util: 0.45,
            diurnal_amp: 0.18,
            peak_hour: 14.0,
            noise: 0.06,
            seed,
        }
    }

    /// Band-limited noise of `streams` at `t`: hash noise per bucket,
    /// linearly interpolated between bucket starts. The bucket edges come
    /// from `edges`, which is advanced to `t`'s bucket first.
    #[inline(always)]
    fn noise_with<const N: usize>(
        &self,
        t: SimTime,
        streams: [u64; N],
        edges: &mut NoiseEdges<N>,
    ) -> [f64; N] {
        let (bucket, frac) = bucket_of(t);
        edges.advance(self.seed, streams, bucket);
        std::array::from_fn(|s| lerp(edges.lo[s], edges.hi[s], frac))
    }

    /// CPU utilization at `t` given stream 1's noise at `t`: the one
    /// formula behind [`ExogenousProfile::cpu_util_with`] and the
    /// `cpu_util` field of every sample and window average.
    #[inline(always)]
    fn util_from(&self, t: SimTime, noise: f64) -> f64 {
        let hour = (t.as_secs_f64() / 3600.0) % 24.0;
        let diurnal = (std::f64::consts::TAU * (hour - self.peak_hour + 6.0) / 24.0).sin();
        (self.base_util + self.diurnal_amp * diurnal + self.noise * noise).clamp(0.02, 0.98)
    }

    /// The four variables at `t` given the noise of streams 1–4 at `t`:
    /// the one formula behind [`ExogenousProfile::sample`] and
    /// [`ExogenousProfile::window_average`].
    #[inline(always)]
    fn vars_from(&self, t: SimTime, noise: [f64; 4]) -> ExogenousVars {
        let cpu_util = self.util_from(t, noise[0]);

        // Memory bandwidth tracks utilization sublinearly with its own
        // noise component.
        let mem_frac = (0.25 + 0.75 * cpu_util.powf(0.8) + 0.08 * noise[1]).clamp(0.05, 1.0);
        let mem_bw_gbps = MEM_BW_PEAK_GBPS * mem_frac;

        // Long scheduler wakeups grow superlinearly with utilization: a
        // nearly idle machine rarely preempts, a saturated one often does.
        let long_wakeup_rate =
            (0.001 + 0.02 * cpu_util.powi(3) + 0.002 * noise[2].abs()).clamp(0.0, 0.15);

        // CPI degrades with memory pressure and sharing (cache/BW
        // contention), per the coupling observed in Fig. 17.
        let cpi = (0.85 + 0.35 * cpu_util + 0.25 * mem_frac + 0.04 * noise[3]).max(0.7);

        ExogenousVars {
            cpu_util,
            mem_bw_gbps,
            long_wakeup_rate,
            cpi,
        }
    }

    /// Samples only the CPU utilization at instant `t`, reading the
    /// noise edges through `edges`, a cache that only ever serves this
    /// profile (a fresh one for a one-off sample).
    ///
    /// Exactly the `cpu_util` field of [`ExogenousProfile::sample`] (the
    /// same formula on the same noise, so the value is bit-identical)
    /// without evaluating the three other variables. The fleet driver's
    /// hot path uses this where it needs utilization alone (pool queueing
    /// input, ambient client-side load), which skips two `powf`s and six
    /// hashed noise lookups per call.
    #[inline]
    pub fn cpu_util_with(&self, t: SimTime, edges: &mut NoiseEdges<1>) -> f64 {
        let [noise] = self.noise_with(t, [NOISE_STREAMS[0]], edges);
        self.util_from(t, noise)
    }

    /// Samples the exogenous variables at instant `t`.
    pub fn sample(&self, t: SimTime) -> ExogenousVars {
        self.sample_with(t, &mut NoiseEdges::default())
    }

    /// [`ExogenousProfile::sample`] reading its noise edges through
    /// `edges`, a cache that only ever serves this profile.
    #[inline(always)]
    pub fn sample_with(&self, t: SimTime, edges: &mut NoiseEdges<4>) -> ExogenousVars {
        self.vars_from(t, self.noise_with(t, NOISE_STREAMS, edges))
    }

    /// Averages the variables over a window (samples every minute), as the
    /// monitoring pipeline does when correlating with latency (Fig. 17
    /// aggregates over 30 minutes).
    ///
    /// The result is bit-identical to summing [`ExogenousProfile::sample`]
    /// at `start + i` minutes for `i` in `0..max(window / 1 min, 1)` and
    /// dividing by the count. The samples share one [`NoiseEdges`], so
    /// each `(stream, bucket)` value is drawn once rather than twice per
    /// sample, and nothing is allocated. Always inlined: a caller that
    /// reads one field (Fig. 22 reads `cpu_util`) lets the compiler drop
    /// the other variables and their noise streams from the loop.
    #[inline(always)]
    pub fn window_average(&self, start: SimTime, window: SimDuration) -> ExogenousVars {
        let step = SimDuration::from_mins(1);
        let steps = (window.as_nanos() / step.as_nanos()).max(1);
        let mut edges = NoiseEdges::default();
        let mut acc = ExogenousVars::default();
        for i in 0..steps {
            let t = start + SimDuration::from_nanos(i * step.as_nanos());
            let v = self.sample_with(t, &mut edges);
            acc.cpu_util += v.cpu_util;
            acc.mem_bw_gbps += v.mem_bw_gbps;
            acc.long_wakeup_rate += v.long_wakeup_rate;
            acc.cpi += v.cpi;
        }
        let n = steps as f64;
        ExogenousVars {
            cpu_util: acc.cpu_util / n,
            mem_bw_gbps: acc.mem_bw_gbps / n,
            long_wakeup_rate: acc.long_wakeup_rate / n,
            cpi: acc.cpi / n,
        }
    }
}

/// The noise stream of each variable, in [`ExogenousVars`] field order.
const NOISE_STREAMS: [u64; 4] = [1, 2, 3, 4];

/// The bucket noise of `N` streams of one profile at the start of one
/// noise bucket (`lo`) and of the next (`hi`): everything a sample inside
/// that bucket interpolates between.
///
/// A cache, never a source of values: `NoiseEdges::advance` keeps the
/// edges when the bucket is unchanged, shifts `hi` into `lo` when time
/// moves one bucket forward, and redraws both otherwise, so a sample read
/// through it is bit-identical to one drawn from scratch. The fleet
/// driver keeps one per machine (four streams, 72 bytes) and one per site
/// and client cluster (the utilization stream, 24 bytes) in each shard; a
/// fresh one makes a one-off sample.
#[derive(Debug, Clone, Copy)]
pub struct NoiseEdges<const N: usize> {
    /// The bucket `lo` starts; `u64::MAX` before the first sample.
    bucket: u64,
    lo: [f64; N],
    hi: [f64; N],
}

impl<const N: usize> Default for NoiseEdges<N> {
    fn default() -> Self {
        NoiseEdges {
            bucket: u64::MAX,
            lo: [0.0; N],
            hi: [0.0; N],
        }
    }
}

impl<const N: usize> NoiseEdges<N> {
    /// Moves the edges to `bucket` of the profile seeded `seed`.
    #[inline(always)]
    fn advance(&mut self, seed: u64, streams: [u64; N], bucket: u64) {
        if bucket == self.bucket {
            return;
        }
        let edge = |b| streams.map(|stream| bucket_noise(seed, stream, b));
        self.lo = if self.bucket.checked_add(1) == Some(bucket) {
            self.hi
        } else {
            edge(bucket)
        };
        self.hi = edge(bucket + 1);
        self.bucket = bucket;
    }
}

/// The noise bucket holding `t`, and `t`'s fraction of the way through it.
#[inline(always)]
fn bucket_of(t: SimTime) -> (u64, f64) {
    let bucket = t.as_nanos() / NOISE_BUCKET.as_nanos();
    let frac = (t.as_nanos() % NOISE_BUCKET.as_nanos()) as f64 / NOISE_BUCKET.as_nanos() as f64;
    (bucket, frac)
}

/// Linear interpolation from `a` at `frac = 0` to `b` at `frac = 1`.
#[inline(always)]
fn lerp(a: f64, b: f64, frac: f64) -> f64 {
    a + (b - a) * frac
}

/// Standard-normal-ish noise for a bucket: average of four uniforms,
/// rescaled — cheap, deterministic, and bounded in roughly `[-1.7, 1.7]`.
fn bucket_noise(seed: u64, stream: u64, bucket: u64) -> f64 {
    let mut sm = SplitMix64::new(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ bucket.wrapping_mul(0xD134_2543_DE82_EF95),
    );
    let mut acc = 0.0;
    for _ in 0..4 {
        acc += (sm.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    acc * 1.7 // Variance of the sum of 4 uniforms is 1/3; scale up.
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::rng::Prng;

    /// A heavily loaded profile (the paper's "slow cluster").
    fn busy(seed: u64) -> ExogenousProfile {
        ExogenousProfile {
            base_util: 0.62,
            diurnal_amp: 0.2,
            noise: 0.07,
            ..ExogenousProfile::shared(seed)
        }
    }

    /// A lightly loaded profile (the paper's "fast cluster").
    fn light(seed: u64) -> ExogenousProfile {
        ExogenousProfile {
            base_util: 0.3,
            diurnal_amp: 0.12,
            noise: 0.05,
            ..ExogenousProfile::shared(seed)
        }
    }

    /// The reference window average: one full [`ExogenousProfile::sample`]
    /// per minute, summed field by field in time order.
    fn per_minute_average(
        p: &ExogenousProfile,
        start: SimTime,
        window: SimDuration,
    ) -> ExogenousVars {
        let step = SimDuration::from_mins(1);
        let steps = (window.as_nanos() / step.as_nanos()).max(1);
        let mut acc = ExogenousVars {
            cpu_util: 0.0,
            mem_bw_gbps: 0.0,
            long_wakeup_rate: 0.0,
            cpi: 0.0,
        };
        for i in 0..steps {
            let v = p.sample(start + SimDuration::from_nanos(i * step.as_nanos()));
            acc.cpu_util += v.cpu_util;
            acc.mem_bw_gbps += v.mem_bw_gbps;
            acc.long_wakeup_rate += v.long_wakeup_rate;
            acc.cpi += v.cpi;
        }
        let n = steps as f64;
        ExogenousVars {
            cpu_util: acc.cpu_util / n,
            mem_bw_gbps: acc.mem_bw_gbps / n,
            long_wakeup_rate: acc.long_wakeup_rate / n,
            cpi: acc.cpi / n,
        }
    }

    fn bits(v: ExogenousVars) -> [u64; 4] {
        [v.cpu_util, v.mem_bw_gbps, v.long_wakeup_rate, v.cpi].map(f64::to_bits)
    }

    /// The uncached noise of one stream at `t`: both bucket edges drawn
    /// afresh and interpolated.
    fn reference_noise(p: &ExogenousProfile, t: SimTime, stream: u64) -> f64 {
        let (bucket, frac) = bucket_of(t);
        let a = bucket_noise(p.seed, stream, bucket);
        let b = bucket_noise(p.seed, stream, bucket + 1);
        lerp(a, b, frac)
    }

    /// Reads `queries` instants through one machine cache and one site
    /// cache per profile, the way the fleet driver does, and compares
    /// every value with uncached sampling bit for bit. Instants mix
    /// repeats, small steps inside a bucket, one-bucket steps, long jumps
    /// and jumps backwards; the caches are shared round-robin across
    /// `profiles` profiles. Returns the fraction of reads that kept their
    /// bucket or shifted by one.
    fn caches_match_uncached_sampling(seed: u64, profiles: usize, queries: u64) -> f64 {
        let mut rng = Prng::seed_from(seed);
        let ps: Vec<ExogenousProfile> = (0..profiles as u64)
            .map(|i| busy(seed.wrapping_mul(31).wrapping_add(i)))
            .collect();
        let mut machine = vec![NoiseEdges::<4>::default(); profiles];
        let mut site = vec![NoiseEdges::<1>::default(); profiles];
        let mut t = 0u64;
        let mut cached = 0u64;
        let bucket_ns = NOISE_BUCKET.as_nanos();
        for i in 0..queries {
            t = match rng.next_u64() % 8 {
                0 => t,
                1..=4 => t + rng.next_u64() % (bucket_ns / 16),
                5 => t + bucket_ns,
                6 => t + rng.next_u64() % (40 * bucket_ns),
                _ => t.saturating_sub(rng.next_u64() % (3 * bucket_ns)),
            };
            let at = SimTime::from_nanos(t);
            let k = i as usize % profiles;
            let p = &ps[k];
            let before = machine[k].bucket;
            cached += u64::from(
                before == bucket_of(at).0 || before.checked_add(1) == Some(bucket_of(at).0),
            );
            let want = p.vars_from(at, NOISE_STREAMS.map(|s| reference_noise(p, at, s)));
            assert_eq!(
                bits(p.sample_with(at, &mut machine[k])),
                bits(want),
                "at {at}"
            );
            assert_eq!(
                p.cpu_util_with(at, &mut site[k]).to_bits(),
                p.util_from(at, reference_noise(p, at, 1)).to_bits(),
                "at {at}"
            );
            assert_eq!(bits(p.sample(at)), bits(want), "at {at}");
        }
        cached as f64 / queries as f64
    }

    #[test]
    fn noise_caches_match_uncached_sampling() {
        // Both the reuse and the redraw paths must be exercised.
        let hit = caches_match_uncached_sampling(3, 5, 200_000);
        assert!((0.1..0.9).contains(&hit), "{hit} of reads reused an edge");
    }

    /// Long budget, run by CI's exactness-sweep step.
    #[test]
    #[ignore]
    fn sweep_noise_caches_match_uncached_sampling() {
        for seed in 0..16 {
            caches_match_uncached_sampling(seed, 1 + seed as usize % 7, 5_000_000);
        }
    }

    #[test]
    fn window_average_is_bit_identical_to_the_per_minute_sample_sum() {
        let mut rng = Prng::seed_from(0xE809);
        let (hi, max_offset) = (|end: f64| end.next_down(), 1_799_999_999_999);
        let low = (0.05, 0.0, 0.0, 0.0, 1, 1);
        let high = (hi(0.9), hi(0.3), hi(24.0), hi(0.2), max_offset, 9_999);
        let mut cases = vec![(0, low), (u64::MAX, high), (u64::MAX, low), (0, high)];
        cases.resize_with(64, || {
            let (util, amp) = (0.05 + rng.next_f64() * 0.85, rng.next_f64() * 0.3);
            let (hour, noise) = (rng.next_f64() * 24.0, rng.next_f64() * 0.2);
            let (offset, day) = (1 + rng.next_below(max_offset), 1 + rng.next_below(9_999));
            (rng.next_u64(), (util, amp, hour, noise, offset, day))
        });
        for (case, (seed, draw)) in cases.into_iter().enumerate() {
            let (base_util, diurnal_amp, peak_hour, noise, offset, day) = draw;
            let p = ExogenousProfile {
                base_util,
                diurnal_amp,
                peak_hour,
                noise,
                seed,
            };
            let day_ns = SimDuration::from_hours(24).as_nanos();
            // At 0; unaligned to the 5-minute bucket; up to 30 minutes
            // before the 24 h wrap; far into a later day.
            let starts = [0, offset, day_ns - offset, day * day_ns + offset];
            for start in starts.map(SimTime::from_nanos) {
                for mins in [0, 1, 7, 30, 60, 1_440, 2_160] {
                    let window = SimDuration::from_mins(mins);
                    assert_eq!(
                        bits(p.window_average(start, window)),
                        bits(per_minute_average(&p, start, window)),
                        "case {case}: {p:?}, start {start:?}, window {mins} min"
                    );
                }
            }
        }
    }

    #[test]
    fn samples_are_deterministic() {
        let p = ExogenousProfile::shared(42);
        let t = SimTime::from_nanos(12_345_678_901);
        assert_eq!(p.sample(t), p.sample(t));
    }

    #[test]
    fn cpu_util_with_is_bit_identical_to_full_sample() {
        for seed in [1u64, 42, 9_999] {
            let p = busy(seed);
            for i in 0..2_000u64 {
                let t = SimTime::from_nanos(i * 43_200_000_000 + 17);
                let util = p.cpu_util_with(t, &mut NoiseEdges::default());
                assert_eq!(util.to_bits(), p.sample(t).cpu_util.to_bits());
            }
        }
    }

    #[test]
    fn different_seeds_decorrelate_noise() {
        let a = ExogenousProfile::shared(1);
        let b = ExogenousProfile::shared(2);
        let mut diffs = 0;
        for i in 0..100 {
            let t = SimTime::from_nanos(i * 60_000_000_000);
            if (a.sample(t).cpu_util - b.sample(t).cpu_util).abs() > 1e-6 {
                diffs += 1;
            }
        }
        assert!(diffs > 90, "only {diffs} samples differ");
    }

    #[test]
    fn variables_stay_in_physical_ranges() {
        let p = busy(7);
        for i in 0..2000 {
            let v = p.sample(SimTime::from_nanos(i * 43_000_000_000));
            assert!((0.0..=1.0).contains(&v.cpu_util), "{v:?}");
            assert!(v.mem_bw_gbps > 0.0 && v.mem_bw_gbps <= 120.0, "{v:?}");
            assert!((0.0..=0.15).contains(&v.long_wakeup_rate), "{v:?}");
            assert!(v.cpi >= 0.7 && v.cpi < 2.5, "{v:?}");
        }
    }

    #[test]
    fn diurnal_peak_is_near_configured_hour() {
        let p = ExogenousProfile {
            noise: 0.0,
            ..ExogenousProfile::shared(3)
        };
        let mut peak_hour = 0.0;
        let mut peak = 0.0;
        for h in 0..96 {
            let t = SimTime::from_nanos(h * 900_000_000_000); // 15-min steps.
            let u = p.sample(t).cpu_util;
            if u > peak {
                peak = u;
                peak_hour = (h as f64 * 0.25) % 24.0;
            }
        }
        assert!(
            (peak_hour - p.peak_hour).abs() < 1.5,
            "peak at {peak_hour}, expected ~{}",
            p.peak_hour
        );
    }

    #[test]
    fn busy_profile_is_busier_than_light() {
        let busy = busy(4);
        let light = light(4);
        let day = SimDuration::from_hours(24);
        let b = busy.window_average(SimTime::ZERO, day);
        let l = light.window_average(SimTime::ZERO, day);
        assert!(b.cpu_util > l.cpu_util + 0.2);
        assert!(b.long_wakeup_rate > l.long_wakeup_rate);
        assert!(b.cpi > l.cpi);
    }

    #[test]
    fn utilization_couples_to_wakeups_and_cpi() {
        // Across a day, high-utilization samples should show higher wakeup
        // rates and CPI than low-utilization samples.
        let p = ExogenousProfile::shared(5);
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for i in 0..1440 {
            let v = p.sample(SimTime::from_nanos(i * 60_000_000_000));
            if v.cpu_util < 0.4 {
                lo.push(v);
            } else if v.cpu_util > 0.55 {
                hi.push(v);
            }
        }
        assert!(!lo.is_empty() && !hi.is_empty());
        let avg = |vs: &[ExogenousVars], f: fn(&ExogenousVars) -> f64| {
            vs.iter().map(f).sum::<f64>() / vs.len() as f64
        };
        assert!(avg(&hi, |v| v.long_wakeup_rate) > avg(&lo, |v| v.long_wakeup_rate));
        assert!(avg(&hi, |v| v.cpi) > avg(&lo, |v| v.cpi));
        assert!(avg(&hi, |v| v.mem_bw_gbps) > avg(&lo, |v| v.mem_bw_gbps));
    }

    #[test]
    fn noise_is_continuous_across_bucket_boundaries() {
        let p = ExogenousProfile::shared(6);
        let bucket_ns = 5 * 60 * 1_000_000_000u64;
        for k in 1..20u64 {
            let before = p.sample(SimTime::from_nanos(k * bucket_ns - 1_000_000));
            let after = p.sample(SimTime::from_nanos(k * bucket_ns + 1_000_000));
            assert!(
                (before.cpu_util - after.cpu_util).abs() < 0.02,
                "jump at bucket {k}: {} -> {}",
                before.cpu_util,
                after.cpu_util
            );
        }
    }

    #[test]
    fn window_average_is_between_min_and_max() {
        let p = ExogenousProfile::shared(8);
        let w = SimDuration::from_mins(30);
        let avg = p.window_average(SimTime::ZERO, w);
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        for i in 0..30 {
            let v = p.sample(SimTime::ZERO + SimDuration::from_mins(i));
            min = min.min(v.cpu_util);
            max = max.max(v.cpu_util);
        }
        assert!(avg.cpu_util >= min && avg.cpu_util <= max);
    }
}

//! A machine whose execution speed couples to its exogenous state.
//!
//! The paper's Fig. 17 shows that per-component RPC latency tracks CPU
//! utilization, memory bandwidth, long-wakeup rate, and CPI — except for
//! services on *reserved cores* (KV-Store), which only track CPI. The
//! machine model reproduces that causal structure:
//!
//! - handler execution time = `work / (speed / slowdown)`, where the
//!   slowdown is the machine's instantaneous CPI relative to a baseline
//!   CPI of 1.0;
//! - scheduler wakeup latency is short normally but long (>50 µs) with the
//!   machine's current long-wakeup probability;
//! - a reserved-core machine bypasses the utilization-dependent part of
//!   both couplings.

use crate::exogenous::{ExogenousProfile, ExogenousVars, NoiseEdges};
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifier of a machine within the fleet (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MachineId(pub u32);

/// Static machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Relative CPU speed (1.0 = fleet baseline). The fleet mixes CPU
    /// generations, which is why the profiler reports *normalized* cycles.
    pub speed: f64,
    /// Whether the studied service holds reserved cores on this machine.
    pub reserved_cores: bool,
}

/// A simulated machine.
///
/// Machines hold no generator state of their own: every stochastic draw
/// (currently only [`Machine::wakeup_latency_from`]) samples from a caller
/// supplied [`Prng`]. This keeps a machine's behaviour a pure function of
/// `(profile, t, caller randomness)`, which is what lets the fleet driver
/// replay the same trace on any shard and get identical latencies.
#[derive(Debug, Clone)]
pub struct Machine {
    id: MachineId,
    config: MachineConfig,
    profile: ExogenousProfile,
}

/// Threshold above which a scheduling event counts as a "long wakeup"
/// (Table 2 uses 50 µs).
pub const LONG_WAKEUP_THRESHOLD: SimDuration = SimDuration::from_micros(50);

impl Machine {
    /// Creates a machine with the given profile.
    pub fn new(id: MachineId, config: MachineConfig, profile: ExogenousProfile) -> Self {
        Machine {
            id,
            config,
            profile,
        }
    }

    /// This machine's id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// This machine's static configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The machine's exogenous state at `t`, reading the profile's noise
    /// edges through `edges`, a cache that only ever serves this machine
    /// (a fresh one for a one-off sample).
    #[inline]
    pub fn exogenous_with(&self, t: SimTime, edges: &mut NoiseEdges<4>) -> ExogenousVars {
        self.profile.sample_with(t, edges)
    }

    /// The multiplicative slowdown applied to compute under the sampled
    /// exogenous state `vars` (from [`Machine::exogenous_with`]).
    ///
    /// On shared machines this is the instantaneous CPI over the baseline
    /// CPI of 1.0, i.e. the CPI itself (contention raises CPI, which
    /// stretches every instruction). On
    /// reserved cores, contention from co-tenants is excluded; only a
    /// small chip-level CPI effect remains.
    pub fn slowdown_from(&self, vars: &ExogenousVars) -> f64 {
        if self.config.reserved_cores {
            // Reserved cores escape scheduling/bandwidth contention but
            // still see chip-wide effects (uncore frequency, LLC) that the
            // paper observes as a residual CPI correlation.
            1.0 + 0.3 * (vars.cpi - 1.0).max(0.0)
        } else {
            vars.cpi.max(0.5)
        }
    }

    /// Samples one scheduler wakeup latency from `rng` under the sampled
    /// exogenous state `vars` (from [`Machine::exogenous_with`]).
    ///
    /// Most wakeups are a few microseconds; with the machine's current
    /// long-wakeup probability the thread instead waits beyond
    /// [`LONG_WAKEUP_THRESHOLD`], with an exponential tail. Draws come
    /// from the caller's generator (in the fleet driver, the per-trace
    /// stream) so that concurrent traces touching the same machine never
    /// perturb each other's samples.
    pub fn wakeup_latency_from(&self, vars: &ExogenousVars, rng: &mut Prng) -> SimDuration {
        let long_rate = if self.config.reserved_cores {
            // Dedicated cores do not contend for runqueue slots.
            0.0005
        } else {
            vars.long_wakeup_rate
        };
        if rng.chance(long_rate) {
            // A long wakeup: threshold plus an exponential excess whose
            // mean grows with utilization.
            let mean_excess_us = 80.0 * (1.0 + 2.0 * vars.cpu_util);
            let excess = -rng.next_f64_open().ln() * mean_excess_us;
            LONG_WAKEUP_THRESHOLD + SimDuration::from_micros_f64(excess)
        } else {
            // Normal wakeup: a few microseconds, mildly load-dependent.
            let mean_us = 2.0 + 6.0 * vars.cpu_util;
            SimDuration::from_micros_f64(-rng.next_f64_open().ln() * mean_us)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A heavily loaded profile (the paper's "slow cluster").
    fn busy(seed: u64) -> ExogenousProfile {
        ExogenousProfile {
            base_util: 0.62,
            diurnal_amp: 0.2,
            noise: 0.07,
            ..ExogenousProfile::shared(seed)
        }
    }

    fn machine(reserved: bool, profile: ExogenousProfile) -> Machine {
        Machine::new(
            MachineId(1),
            MachineConfig {
                speed: 1.0,
                reserved_cores: reserved,
            },
            profile,
        )
    }

    fn slowdown(m: &Machine, t: SimTime) -> f64 {
        m.slowdown_from(&m.exogenous_with(t, &mut NoiseEdges::default()))
    }

    fn wakeup(m: &Machine, t: SimTime, rng: &mut Prng) -> SimDuration {
        m.wakeup_latency_from(&m.exogenous_with(t, &mut NoiseEdges::default()), rng)
    }

    #[test]
    fn busy_machines_run_slower() {
        let busy = machine(false, busy(2));
        let light = machine(
            false,
            ExogenousProfile {
                base_util: 0.3,
                diurnal_amp: 0.12,
                noise: 0.05,
                ..ExogenousProfile::shared(2)
            },
        );
        // Compare average slowdown across a day.
        let mut busy_sum = 0.0;
        let mut light_sum = 0.0;
        for i in 0..288 {
            let t = SimTime::ZERO + SimDuration::from_mins(i * 5);
            busy_sum += slowdown(&busy, t);
            light_sum += slowdown(&light, t);
        }
        assert!(busy_sum > light_sum * 1.05, "{busy_sum} vs {light_sum}");
    }

    #[test]
    fn reserved_cores_shrink_utilization_coupling() {
        let profile = busy(3);
        let shared = machine(false, profile);
        let reserved = machine(true, profile);
        // Variance of slowdown across the day should be much lower with
        // reserved cores.
        let collect = |m: &Machine| -> Vec<f64> {
            (0..288)
                .map(|i| slowdown(m, SimTime::ZERO + SimDuration::from_mins(i * 5)))
                .collect()
        };
        let var = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64
        };
        let vs = var(&collect(&shared));
        let vr = var(&collect(&reserved));
        assert!(vr < vs * 0.5, "reserved var {vr} vs shared var {vs}");
    }

    #[test]
    fn wakeup_latencies_have_long_tail_on_busy_machines() {
        let busy = machine(false, busy(4));
        let mut rng = Prng::seed_from(4);
        let mut long = 0u32;
        let n = 50_000;
        for i in 0..n {
            let t = SimTime::ZERO + SimDuration::from_millis(i as u64);
            if wakeup(&busy, t, &mut rng) >= LONG_WAKEUP_THRESHOLD {
                long += 1;
            }
        }
        let rate = long as f64 / n as f64;
        // The busy profile's long-wakeup rate is ~0.5-2%.
        assert!(rate > 0.001 && rate < 0.1, "long rate {rate}");
    }

    #[test]
    fn reserved_cores_avoid_long_wakeups() {
        let shared = machine(false, busy(5));
        let reserved = machine(true, busy(5));
        let count_long = |m: &Machine, seed: u64| {
            let mut rng = Prng::seed_from(seed);
            (0..50_000u64)
                .filter(|&i| {
                    wakeup(m, SimTime::ZERO + SimDuration::from_millis(i), &mut rng)
                        >= LONG_WAKEUP_THRESHOLD
                })
                .count()
        };
        let s = count_long(&shared, 5);
        let r = count_long(&reserved, 5);
        assert!(r * 4 < s, "reserved {r} vs shared {s}");
    }

    #[test]
    fn wakeups_are_positive_and_bounded_sane() {
        let m = machine(false, ExogenousProfile::shared(6));
        let mut rng = Prng::seed_from(6);
        for i in 0..10_000u64 {
            let w = wakeup(&m, SimTime::ZERO + SimDuration::from_millis(i), &mut rng);
            assert!(w < SimDuration::from_millis(20), "wakeup {w} implausible");
        }
    }

    #[test]
    fn wakeup_is_pure_function_of_time_and_rng() {
        // Two clones of the machine given identical caller rngs must
        // produce identical samples — the machine itself holds no
        // generator state.
        let m1 = machine(false, busy(7));
        let m2 = m1.clone();
        let mut r1 = Prng::seed_from(7);
        let mut r2 = Prng::seed_from(7);
        for i in 0..1_000u64 {
            let t = SimTime::ZERO + SimDuration::from_millis(i);
            assert_eq!(wakeup(&m1, t, &mut r1), wakeup(&m2, t, &mut r2));
        }
    }
}

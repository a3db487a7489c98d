//! The closed-loop controllers: their configuration and decision rules.
//!
//! Under open-loop faults the fleet never fights back — overload fronts
//! shed until the episode ends on its own. These are the three reactions
//! production fleets mount. Each decision is a *pure function of the seed
//! and the incident trajectories*: `crate::conditions::Environment` runs
//! the controllers against its own incident sources, so every simulation
//! shard reconstructs the identical controller timeline (shards run
//! independently and merge; a controller that reacted to per-shard
//! observed counters would break the bit-identical-at-any-shard-count
//! contract):
//!
//! - **Autoscaler** ([`AutoscalerSpec`]): per-cluster capacity, stepped
//!   up after sustained incident overload at consecutive window
//!   boundaries ([`step_capacity`]) and decayed back when the condition
//!   clears. Capacity divides the effective overload factor, feeding back
//!   into utilization and shedding.
//! - **Load-balancer weight shift** (`lb_shift`): paths whose region
//!   pair is cut or browned out at the window boundary are steered away
//!   from, through the same placement re-pick as retry failover
//!   (`Avoid`).
//! - **Bounded admission queues** ([`AdmissionSpec`]): while a site is
//!   overloaded, admission replaces the ambient shed rule — waits past
//!   the shed bound are rejected (`NoResource`), waits past the caller's
//!   patience are abandoned (`Aborted`), and the pool's utilization is
//!   capped at `util_cap` (the queue is bounded, so it cannot saturate).
//!   Every offered call resolves to exactly one [`admission_verdict`];
//!   the conservation property test pins `admitted + shed + abandoned ==
//!   offered`.
//!
//! Controller decisions are sampled at window boundaries (the TSDB
//! sample period) and held for the whole window, mirroring how real
//! control loops act on aggregated telemetry rather than per-request
//! state. See `docs/ROBUSTNESS.md` for the closed- vs open-loop
//! comparison.

use rpclens_simcore::time::SimDuration;

/// Autoscaler configuration: capacity added under sustained overload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerSpec {
    /// Consecutive overloaded window boundaries before scaling starts
    /// (clamped to at least 1).
    pub sustain_windows: u32,
    /// Capacity factor added per sustained window (and removed per calm
    /// window while above 1.0).
    pub step: f64,
    /// Ceiling on the capacity factor (must be at least 1.0).
    pub max_factor: f64,
}

/// Bounded admission queue configuration for overloaded sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSpec {
    /// Queue waits beyond this bound are rejected at admission
    /// (`NoResource`).
    pub shed_wait: SimDuration,
    /// Waits beyond the caller's patience are abandoned (`Aborted`).
    /// Should exceed `shed_wait`; abandonment takes precedence.
    pub abandon_wait: SimDuration,
    /// Utilization cap the bounded queue enforces on the pool (the
    /// shed/abandoned fraction never reaches the workers).
    pub util_cap: f64,
}

/// Which controllers a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSpec {
    /// Autoscaler reacting to sustained incident overload.
    pub autoscaler: Option<AutoscalerSpec>,
    /// Load-balancer weight shift away from cut/browned-out region
    /// pairs.
    pub lb_shift: bool,
    /// Bounded admission queues on overloaded sites.
    pub admission: Option<AdmissionSpec>,
}

/// One capacity update: `prev` is the factor of the previous window,
/// `streak` the number of consecutive overloaded boundaries including the
/// current one. Pure, so the autoscaler-monotonicity property test can drive
/// it with arbitrary condition sequences.
pub fn step_capacity(spec: &AutoscalerSpec, prev: f64, streak: u32) -> f64 {
    if streak >= spec.sustain_windows.max(1) {
        (prev + spec.step).min(spec.max_factor.max(1.0))
    } else {
        (prev - spec.step).max(1.0)
    }
}

/// The verdict of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The call enters the bounded queue and is served.
    Admitted,
    /// The queue bound rejects the call at admission (`NoResource`).
    Shed,
    /// The caller's patience expires while queued (`Aborted`).
    Abandoned,
}

/// Classifies one offered call by its sampled queue wait. Pure, total:
/// every offered call gets exactly one verdict.
pub fn admission_verdict(spec: &AdmissionSpec, queue_wait: SimDuration) -> AdmissionVerdict {
    if queue_wait > spec.abandon_wait {
        AdmissionVerdict::Abandoned
    } else if queue_wait > spec.shed_wait {
        AdmissionVerdict::Shed
    } else {
        AdmissionVerdict::Admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::{regions_topology, Environment, IncidentSummaryRow};
    use crate::faults::{
        EpisodeSpec, FaultScenario, IncidentSpec, OverloadSpec, PartitionSpec, PartitionState,
    };
    use rpclens_simcore::renewal::RenewalParams;
    use rpclens_simcore::rng::Prng;
    use rpclens_simcore::time::SimTime;
    use std::collections::BTreeSet;

    const WINDOW: SimDuration = rpclens_tsdb::DEFAULT_SAMPLE_PERIOD;

    fn autoscaler() -> AutoscalerSpec {
        AutoscalerSpec {
            sustain_windows: 2,
            step: 0.25,
            max_factor: 2.5,
        }
    }

    fn admission() -> AdmissionSpec {
        AdmissionSpec {
            shed_wait: SimDuration::from_millis(15),
            abandon_wait: SimDuration::from_millis(60),
            util_cap: 0.96,
        }
    }

    fn episodes(up: SimDuration, down: SimDuration) -> EpisodeSpec {
        EpisodeSpec {
            eligible: 1.0,
            params: RenewalParams {
                up_mean: up,
                down_mean: down,
            },
        }
    }

    fn front(episodes: EpisodeSpec) -> OverloadSpec {
        OverloadSpec {
            episodes,
            util_factor: 2.0,
            shed_wait: SimDuration::from_millis(15),
        }
    }

    fn incident_spec() -> IncidentSpec {
        IncidentSpec {
            drain: None,
            surge_factor: 1.0,
            wan_cut: None,
            front: Some(front(episodes(
                SimDuration::from_hours(4),
                SimDuration::from_hours(2),
            ))),
        }
    }

    fn closed_loop() -> ControlSpec {
        ControlSpec {
            autoscaler: Some(autoscaler()),
            lb_shift: true,
            admission: Some(admission()),
        }
    }

    /// An environment running `control` against `incidents` on `regions`
    /// (cluster counts per region), with no per-entity source.
    fn environment(
        incidents: Option<IncidentSpec>,
        control: ControlSpec,
        regions: &[usize],
    ) -> Environment {
        let scenario = FaultScenario {
            incidents,
            control: Some(control),
            ..FaultScenario::none()
        };
        Environment::new(&scenario, 7, &regions_topology(regions))
    }

    /// Two regions of two clusters each under regional overload fronts.
    fn closed() -> Environment {
        environment(Some(incident_spec()), closed_loop(), &[2, 2])
    }

    fn boundary(w: usize) -> SimTime {
        SimTime::from_nanos(w as u64 * WINDOW.as_nanos())
    }

    #[test]
    fn capacity_rises_under_sustained_overload_and_decays_after() {
        let mut env = closed();
        let factors: Vec<f64> = (0..48)
            .map(|w| env.capacity_factor(0, boundary(w)))
            .collect();
        assert!(factors.iter().all(|&f| (1.0..=2.5).contains(&f)));
        // With a 2 h mean front over 24 h, capacity must have moved.
        assert!(
            factors.iter().any(|&f| f > 1.0),
            "autoscaler never scaled: {factors:?}"
        );
        // Somewhere the factor decays again (front ends).
        assert!(
            factors.windows(2).any(|w| w[1] < w[0]),
            "capacity never decayed: {factors:?}"
        );
    }

    #[test]
    fn capacity_timeline_is_query_order_independent() {
        let mut fwd = closed();
        let mut rev = closed();
        let recorded: Vec<f64> = (0..48)
            .map(|w| fwd.capacity_factor(1, boundary(w)))
            .collect();
        for w in (0..48).rev() {
            assert_eq!(
                rev.capacity_factor(1, boundary(w)),
                recorded[w],
                "window {w}"
            );
        }
    }

    #[test]
    fn no_autoscaler_or_no_incidents_means_unit_capacity() {
        let open_loop = ControlSpec {
            autoscaler: None,
            lb_shift: false,
            admission: None,
        };
        let mut open = environment(Some(incident_spec()), open_loop, &[2, 2]);
        let mut blind = environment(None, closed_loop(), &[2, 2]);
        for w in 0..48 {
            assert_eq!(open.capacity_factor(0, boundary(w)), 1.0);
            assert_eq!(blind.capacity_factor(0, boundary(w)), 1.0);
            assert!(!blind.avoids(0, 2, true, boundary(w)));
        }
    }

    #[test]
    fn admission_verdicts_follow_the_two_thresholds() {
        let spec = admission();
        assert_eq!(
            admission_verdict(&spec, SimDuration::from_millis(1)),
            AdmissionVerdict::Admitted
        );
        assert_eq!(
            admission_verdict(&spec, SimDuration::from_millis(30)),
            AdmissionVerdict::Shed
        );
        assert_eq!(
            admission_verdict(&spec, SimDuration::from_millis(90)),
            AdmissionVerdict::Abandoned
        );
    }

    #[test]
    fn timeline_render_reports_activity() {
        let text = closed().render_timeline(SimDuration::from_hours(24));
        assert!(text.contains("controller timeline"));
        assert!(text.contains("windows with controller activity"));
    }

    #[test]
    fn whole_run_reports_survive_pruning_and_match_fresh_planes() {
        // Minutes-scale means give every incident trajectory ~100 flips
        // per simulated day, so an eight-day horizon drives each one past
        // the prune trigger. Each report walks time in order on its own
        // environment (as telemetry and inspect call them) and must agree
        // with fresh environments queried once at each boundary.
        let minutes = |m: u64| SimDuration::from_secs(m * 60);
        let spec = IncidentSpec {
            drain: Some(episodes(minutes(20), minutes(10))),
            surge_factor: 1.8,
            wan_cut: Some(PartitionSpec {
                episodes: episodes(minutes(25), minutes(10)),
                brownout_excess: SimDuration::from_millis(25),
            }),
            front: Some(front(episodes(minutes(25), minutes(15)))),
        };
        let control = ControlSpec {
            admission: None,
            ..closed_loop()
        };
        let fresh = || environment(Some(spec), control, &[3, 3]);
        let horizon = SimDuration::from_hours(24 * 8);
        let windows = (horizon.as_nanos() / WINDOW.as_nanos()) as usize;

        let mut summarized = fresh();
        let rows = summarized.incident_summary(horizon);
        let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            summarized.drain_incident(0, SimTime::ZERO)
        }));
        assert!(replay.is_err(), "horizon too short to prune");
        let (scaled, peak) = fresh().autoscaler_activity(horizon);
        let text = fresh().render_timeline(horizon);

        // Reference: one fresh environment per boundary, so nothing is
        // pruned.
        let mut drains = vec![BTreeSet::new(); 6];
        let mut cuts = BTreeSet::new();
        let mut fronts = vec![BTreeSet::new(); 2];
        let mut capacity = [1.0f64; 6];
        let mut streak = [0u32; 6];
        let (mut ref_scaled, mut ref_peak) = (0u64, 1.0f64);
        let mut ref_active = Vec::new();
        for w in 0..=windows {
            let t = boundary(w);
            let mut p = fresh();
            for (c, seen) in drains.iter_mut().enumerate() {
                seen.extend(p.drain_incident(c as u16, t));
            }
            cuts.extend(p.cut_episode(0, 1, t));
            for (r, seen) in fronts.iter_mut().enumerate() {
                seen.extend(p.front_episode(r as u16, t));
            }
            if w == windows {
                break;
            }
            for c in 0..6 {
                let overloaded = p.incident_overload(c as u16, t).is_some();
                streak[c] = if overloaded { streak[c] + 1 } else { 0 };
                capacity[c] = step_capacity(&autoscaler(), capacity[c], streak[c]);
            }
            ref_scaled += capacity.iter().filter(|&&f| f > 1.0).count() as u64;
            ref_peak = capacity.iter().copied().fold(ref_peak, f64::max);
            let cut = p.cut_state(0, 3, true, t) != PartitionState::Connected;
            if cut || capacity.iter().any(|&f| f > 1.0) {
                ref_active.push(w);
            }
        }

        let expect = |kind, sets: &[BTreeSet<u64>]| IncidentSummaryRow {
            kind,
            entities_struck: sets.iter().filter(|s| !s.is_empty()).count() as u64,
            episodes: sets.iter().map(|s| s.len() as u64).sum(),
        };
        assert_eq!(
            rows,
            vec![
                expect("cluster-drain", &drains),
                expect("wan-cut", std::slice::from_ref(&cuts)),
                expect("overload-front", &fronts),
            ]
        );
        assert_eq!(
            (scaled, peak),
            (ref_scaled, (ref_peak * 1000.0).round() as u64)
        );
        assert!(scaled > 0, "autoscaler never scaled");
        let rendered: Vec<usize> = text
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix('w'))
            .map(|l| l.split(':').next().unwrap().trim().parse().unwrap())
            .collect();
        assert_eq!(rendered, ref_active);
        assert!(text.contains(&format!(
            "{} windows with controller activity",
            ref_active.len()
        )));
    }

    /// Admission-queue conservation: every offered call resolves to
    /// exactly one of admitted/shed/abandoned.
    #[test]
    fn admission_conserves_offered_calls() {
        let mut rng = Prng::seed_from(0xAD01);
        let mut cases = vec![(1, 0, vec![0]), (199, 499, vec![999_999; 399])];
        cases.push((5, 10, vec![5_000, 5_001, 15_000, 15_001]));
        cases.resize_with(64, || {
            let waits = (0..1 + rng.index(399))
                .map(|_| rng.next_below(1_000_000))
                .collect();
            (1 + rng.next_below(199), rng.next_below(500), waits)
        });
        for (case, (shed_ms, patience_extra_ms, waits)) in cases.into_iter().enumerate() {
            let spec = AdmissionSpec {
                shed_wait: SimDuration::from_millis(shed_ms),
                abandon_wait: SimDuration::from_millis(shed_ms + patience_extra_ms),
                util_cap: 0.96,
            };
            let inputs = format!("case {case}: {spec:?}, waits {waits:?}");
            let mut counts = [0u64; 3];
            for w in &waits {
                let verdict = admission_verdict(&spec, SimDuration::from_micros(*w));
                let slot = match verdict {
                    AdmissionVerdict::Admitted => 0,
                    AdmissionVerdict::Shed => 1,
                    AdmissionVerdict::Abandoned => 2,
                };
                counts[slot] += 1;
                // The verdict follows the two thresholds, abandonment first.
                let wait = SimDuration::from_micros(*w);
                let shed = wait <= spec.abandon_wait && wait > spec.shed_wait;
                assert_eq!(slot == 2, wait > spec.abandon_wait, "wait {w}; {inputs}");
                assert_eq!(slot == 1, shed, "wait {w}; {inputs}");
            }
            assert_eq!(counts.iter().sum::<u64>(), waits.len() as u64, "{inputs}");
        }
    }

    /// Autoscaler monotonicity — capacity never leaves `[1, max_factor]`,
    /// and within any run of consecutive overloaded boundaries past the
    /// sustain threshold the factor is non-decreasing.
    #[test]
    fn autoscaler_is_monotone_under_sustained_overload() {
        let mut rng = Prng::seed_from(0xA5C1);
        let (step_hi, max_hi) = (1f64.next_down(), 4f64.next_down());
        let mut cases = vec![
            (1, 0.05, 1.0, vec![true]),
            (4, step_hi, max_hi, vec![false]),
        ];
        cases.extend([
            (1, step_hi, max_hi, vec![true; 199]),
            (4, 0.05, 1.0, vec![true; 199]),
        ]);
        cases.resize_with(64, || {
            let conditions = (0..1 + rng.index(199)).map(|_| rng.chance(0.5)).collect();
            let (step, max_factor) = (0.05 + rng.next_f64() * 0.95, 1.0 + rng.next_f64() * 3.0);
            (1 + rng.index(4) as u32, step, max_factor, conditions)
        });
        for (case, (sustain, step, max_factor, conditions)) in cases.into_iter().enumerate() {
            let spec = AutoscalerSpec {
                sustain_windows: sustain,
                step,
                max_factor,
            };
            let inputs = format!("case {case}: {spec:?}, conditions {conditions:?}");
            let mut prev = 1.0f64;
            let mut streak = 0u32;
            let mut factors = Vec::with_capacity(conditions.len());
            for &overloaded in &conditions {
                streak = if overloaded { streak + 1 } else { 0 };
                prev = step_capacity(&spec, prev, streak);
                factors.push((prev, streak));
            }
            for &(f, _) in &factors {
                assert!(
                    (1.0..=max_factor.max(1.0)).contains(&f),
                    "factor {f}; {inputs}"
                );
            }
            for pair in factors.windows(2) {
                let (f0, _) = pair[0];
                let (f1, s1) = pair[1];
                if s1 > sustain {
                    // Both this boundary and the previous were past the
                    // sustain threshold: capacity must not decrease.
                    assert!(f1 >= f0, "capacity fell {f0} -> {f1}; {inputs}");
                }
            }
        }
    }
}

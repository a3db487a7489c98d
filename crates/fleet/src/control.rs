//! The closed-loop control plane: deterministic controllers evaluated on
//! window boundaries.
//!
//! Under the open-loop fault plane the fleet never fights back — overload
//! fronts shed until the episode ends on its own. This module adds the
//! three reactions production fleets mount, each a *pure function of the
//! seed and the incident trajectories* (read from the shard's own
//! [`IncidentPlane`]) so that every simulation shard reconstructs the
//! identical controller timeline (shards run independently and merge; a
//! controller that reacted to per-shard observed counters would break the
//! bit-identical-at-any-shard-count contract):
//!
//! - **Autoscaler** ([`AutoscalerSpec`]): per-cluster capacity, stepped
//!   up after sustained overload at consecutive window boundaries and
//!   decayed back when the condition clears. Capacity divides the
//!   effective overload factor, feeding back into utilization and
//!   shedding.
//! - **Load-balancer weight shift** (`lb_shift`): paths whose region
//!   pair is cut or browned out at the window boundary are steered away
//!   from, through the same placement re-pick as retry failover
//!   (`Avoid`).
//! - **Bounded admission queues** ([`AdmissionSpec`]): while a site is
//!   overloaded, admission replaces the ambient shed rule — waits past
//!   the shed bound are rejected (`NoResource`), waits past the caller's
//!   patience are abandoned (`Aborted`), and the pool's utilization is
//!   capped at `util_cap` (the queue is bounded, so it cannot saturate).
//!   Every offered call resolves to exactly one verdict; the
//!   conservation proptest pins `admitted + shed + abandoned == offered`.
//!
//! Controller decisions are sampled at window boundaries (the TSDB
//! sample period) and held for the whole window, mirroring how real
//! control loops act on aggregated telemetry rather than per-request
//! state. See `docs/ROBUSTNESS.md` for the closed- vs open-loop
//! comparison.

use crate::faults::PartitionState;
use crate::incident::IncidentPlane;
use rpclens_simcore::time::{SimDuration, SimTime};

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
/// current one. Pure, so the autoscaler-monotonicity proptest can drive
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

/// Running conservation tally over admission verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionTally {
    /// Calls offered to the bounded queue.
    pub offered: u64,
    /// Calls admitted and served.
    pub admitted: u64,
    /// Calls rejected at admission.
    pub shed: u64,
    /// Calls abandoned while queued.
    pub abandoned: u64,
}

impl AdmissionTally {
    /// Records one verdict.
    pub fn record(&mut self, verdict: AdmissionVerdict) {
        self.offered += 1;
        match verdict {
            AdmissionVerdict::Admitted => self.admitted += 1,
            AdmissionVerdict::Shed => self.shed += 1,
            AdmissionVerdict::Abandoned => self.abandoned += 1,
        }
    }

    /// The conservation law every tally must satisfy.
    pub fn conserves(&self) -> bool {
        self.admitted + self.shed + self.abandoned == self.offered
    }
}

/// The control plane of one shard.
///
/// Holds controller *state* only: every decision reads the caller's
/// [`IncidentPlane`] (pure functions of the seed), so the controller
/// timeline is identical in every shard no matter which calls each shard
/// simulates. Queries never consume caller draws. Passing `None` for the
/// incident plane means no incident ever strikes: capacity stays at 1.0
/// and no path is degraded.
#[derive(Debug)]
pub struct ControlPlane {
    spec: ControlSpec,
    window_ns: u64,
    /// Autoscaler capacity factor of every cluster, one row per window
    /// evaluated so far. Rows are appended in window order, all clusters
    /// at once, so incident trajectories are only ever read forward in
    /// time.
    capacity: Vec<Vec<f64>>,
    /// Consecutive overloaded boundaries per cluster, as of the last row.
    streak: Vec<u32>,
}

impl ControlPlane {
    /// A control plane running `spec`, with decisions held for one
    /// `window` each.
    pub fn new(spec: ControlSpec, window: SimDuration) -> Self {
        ControlPlane {
            spec,
            window_ns: window.as_nanos().max(1),
            capacity: Vec::new(),
            streak: Vec::new(),
        }
    }

    /// The admission-queue configuration, if one runs.
    pub fn admission(&self) -> Option<AdmissionSpec> {
        self.spec.admission
    }

    /// The window index containing `now`.
    fn window_of(&self, now: SimTime) -> usize {
        (now.as_nanos() / self.window_ns) as usize
    }

    /// The boundary instant opening window `w`.
    fn boundary(&self, w: usize) -> SimTime {
        SimTime::from_nanos(w as u64 * self.window_ns)
    }

    /// The autoscaler's capacity factor for `cluster` during the window
    /// containing `now` (1.0 when no autoscaler runs). Window `w`'s
    /// factor is a fold of the overload condition at boundaries `0..=w`;
    /// missing rows are evaluated in window order for every cluster at
    /// once, so the answer is identical in every shard regardless of
    /// query order.
    pub fn capacity_factor(
        &mut self,
        incidents: Option<&mut IncidentPlane>,
        cluster: u16,
        now: SimTime,
    ) -> f64 {
        let (Some(spec), Some(incidents)) = (self.spec.autoscaler, incidents) else {
            return 1.0;
        };
        let w = self.window_of(now);
        let clusters = incidents.num_clusters();
        self.streak.resize(clusters, 0);
        while self.capacity.len() <= w {
            let boundary = self.boundary(self.capacity.len());
            let mut row = Vec::with_capacity(clusters);
            for c in 0..clusters {
                let overloaded = incidents.overload_factor(c as u16, boundary).is_some();
                let streak = &mut self.streak[c];
                *streak = if overloaded { *streak + 1 } else { 0 };
                let prev = self.capacity.last().map_or(1.0, |r| r[c]);
                row.push(step_capacity(&spec, prev, *streak));
            }
            self.capacity.push(row);
        }
        self.capacity[w]
            .get(cluster as usize)
            .copied()
            .unwrap_or(1.0)
    }

    /// Whether the load balancer steers away from the `a`–`b` path during
    /// the window containing `now`: true when the weight-shift controller
    /// runs and the region pair was cut or browned out at the window's
    /// opening boundary. `wan` is the caller-computed path class.
    pub fn path_degraded(
        &mut self,
        incidents: Option<&mut IncidentPlane>,
        a: u16,
        b: u16,
        wan: bool,
        now: SimTime,
    ) -> bool {
        let Some(incidents) = incidents.filter(|_| self.spec.lb_shift) else {
            return false;
        };
        let boundary = self.boundary(self.window_of(now));
        incidents.partition_state(a, b, wan, boundary) != PartitionState::Connected
    }

    /// Whether the load-balancer weight-shift controller runs.
    pub fn shifts_load(&self) -> bool {
        self.spec.lb_shift
    }

    /// Autoscaler activity over `[0, duration)`: `(cluster-windows above
    /// baseline capacity, peak capacity factor in permille)`. Evaluates
    /// every cluster's timeline to the end of the run.
    pub fn autoscaler_activity(
        &mut self,
        incidents: Option<&mut IncidentPlane>,
        duration: SimDuration,
    ) -> (u64, u64) {
        let end = SimTime::from_nanos(duration.as_nanos().saturating_sub(1));
        self.capacity_factor(incidents, 0, end);
        let rows = &self.capacity[..self.capacity.len().min(self.window_of(end) + 1)];
        let scaled_windows = rows.iter().flatten().filter(|&&f| f > 1.0).count() as u64;
        let peak = rows.iter().flatten().copied().fold(1.0f64, f64::max);
        (scaled_windows, (peak * 1000.0).round() as u64)
    }

    /// Renders the controller timeline: one line per window with the
    /// clusters holding added capacity and the degraded region pairs the
    /// balancer avoids. Windows with no controller activity are elided.
    pub fn render_timeline(
        &mut self,
        mut incidents: Option<&mut IncidentPlane>,
        duration: SimDuration,
    ) -> String {
        use std::fmt::Write as _;
        let n_clusters = incidents.as_ref().map_or(0, |i| i.num_clusters() as u16);
        let windows = (duration.as_nanos() / self.window_ns) as usize;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "controller timeline ({} windows of {:.0} s):",
            windows,
            self.window_ns as f64 / 1e9
        );
        let mut active_windows = 0usize;
        for w in 0..windows {
            let mid = self.boundary(w);
            let mut scaled: Vec<(u16, f64)> = (0..n_clusters)
                .map(|c| (c, self.capacity_factor(incidents.as_deref_mut(), c, mid)))
                .filter(|&(_, f)| f > 1.0)
                .collect();
            scaled.sort_by_key(|&(c, _)| c);
            let mut degraded: Vec<(u16, u16)> = Vec::new();
            for a in 0..n_clusters {
                for b in a + 1..n_clusters {
                    if self.path_degraded(incidents.as_deref_mut(), a, b, true, mid) {
                        degraded.push((a, b));
                    }
                }
            }
            if scaled.is_empty() && degraded.is_empty() {
                continue;
            }
            active_windows += 1;
            let _ = write!(out, "  w{w:>3}:");
            if !scaled.is_empty() {
                let caps: Vec<String> =
                    scaled.iter().map(|(c, f)| format!("c{c}x{f:.2}")).collect();
                let _ = write!(out, " capacity[{}]", caps.join(" "));
            }
            if !degraded.is_empty() {
                // Degraded pairs are region-keyed; report the count and
                // the first few cluster pairs as representatives.
                let pairs: Vec<String> = degraded
                    .iter()
                    .take(4)
                    .map(|(a, b)| format!("{a}-{b}"))
                    .collect();
                let _ = write!(
                    out,
                    " avoid[{} pairs: {}…]",
                    degraded.len(),
                    pairs.join(" ")
                );
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "  {active_windows} windows with controller activity");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{EpisodeSpec, OverloadSpec, PartitionSpec};
    use crate::incident::{IncidentSpec, IncidentSummaryRow};
    use proptest::prelude::*;
    use rpclens_simcore::renewal::RenewalParams;
    use std::collections::BTreeSet;

    const WINDOW: SimDuration = SimDuration::from_secs(1_800);

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

    fn planes() -> (ControlPlane, IncidentPlane) {
        (
            ControlPlane::new(closed_loop(), WINDOW),
            IncidentPlane::new(&incident_spec(), 7, vec![0, 0, 1, 1]).unwrap(),
        )
    }

    fn boundary(w: usize) -> SimTime {
        SimTime::from_nanos(w as u64 * WINDOW.as_nanos())
    }

    #[test]
    fn capacity_rises_under_sustained_overload_and_decays_after() {
        let (mut p, mut inc) = planes();
        let factors: Vec<f64> = (0..48)
            .map(|w| p.capacity_factor(Some(&mut inc), 0, boundary(w)))
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
        let (mut fwd, mut fwd_inc) = planes();
        let (mut rev, mut rev_inc) = planes();
        let recorded: Vec<f64> = (0..48)
            .map(|w| fwd.capacity_factor(Some(&mut fwd_inc), 1, boundary(w)))
            .collect();
        for w in (0..48).rev() {
            assert_eq!(
                rev.capacity_factor(Some(&mut rev_inc), 1, boundary(w)),
                recorded[w],
                "window {w}"
            );
        }
    }

    #[test]
    fn no_autoscaler_or_no_incidents_means_unit_capacity() {
        let (_, mut inc) = planes();
        let mut open = ControlPlane::new(
            ControlSpec {
                autoscaler: None,
                lb_shift: false,
                admission: None,
            },
            WINDOW,
        );
        let mut blind = ControlPlane::new(closed_loop(), WINDOW);
        for w in 0..48 {
            assert_eq!(open.capacity_factor(Some(&mut inc), 0, boundary(w)), 1.0);
            assert_eq!(blind.capacity_factor(None, 0, boundary(w)), 1.0);
            assert!(!blind.path_degraded(None, 0, 2, true, boundary(w)));
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
        let (mut p, mut inc) = planes();
        let text = p.render_timeline(Some(&mut inc), SimDuration::from_hours(24));
        assert!(text.contains("controller timeline"));
        assert!(text.contains("windows with controller activity"));
    }

    #[test]
    fn whole_run_reports_survive_pruning_and_match_fresh_planes() {
        // Minutes-scale means give every incident trajectory ~100 flips
        // per simulated day, so an eight-day horizon drives each one past
        // the prune trigger. Each report walks time in order on its own
        // plane (as telemetry and inspect call them) and must agree with
        // fresh planes queried once at each boundary.
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
        let regions = vec![0, 0, 0, 1, 1, 1];
        let fresh = || IncidentPlane::new(&spec, 7, regions.clone()).unwrap();
        let horizon = SimDuration::from_hours(24 * 8);
        let windows = (horizon.as_nanos() / WINDOW.as_nanos()) as usize;
        let control = ControlSpec {
            admission: None,
            ..closed_loop()
        };

        let mut summarized = fresh();
        let rows = summarized.summary(horizon, WINDOW);
        let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            summarized.cluster_drained(0, SimTime::ZERO)
        }));
        assert!(replay.is_err(), "horizon too short to prune");
        let (scaled, peak) =
            ControlPlane::new(control, WINDOW).autoscaler_activity(Some(&mut fresh()), horizon);
        let text = ControlPlane::new(control, WINDOW).render_timeline(Some(&mut fresh()), horizon);

        // Reference: one fresh plane per boundary, so nothing is pruned.
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
                seen.extend(p.drain_episode(c as u16, t));
            }
            cuts.extend(p.cut_episode(0, 1, t));
            for (r, seen) in fronts.iter_mut().enumerate() {
                seen.extend(p.front_episode(r as u16, t));
            }
            if w == windows {
                break;
            }
            for c in 0..6 {
                let overloaded = p.overload_factor(c as u16, t).is_some();
                streak[c] = if overloaded { streak[c] + 1 } else { 0 };
                capacity[c] = step_capacity(&autoscaler(), capacity[c], streak[c]);
            }
            ref_scaled += capacity.iter().filter(|&&f| f > 1.0).count() as u64;
            ref_peak = capacity.iter().copied().fold(ref_peak, f64::max);
            let cut = p.partition_state(0, 3, true, t) != PartitionState::Connected;
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

    proptest! {
        /// Satellite: admission-queue conservation — every offered call
        /// resolves to exactly one of admitted/shed/abandoned.
        #[test]
        fn admission_conserves_offered_calls(
            shed_ms in 1u64..200,
            patience_extra_ms in 0u64..500,
            waits in proptest::collection::vec(0u64..1_000_000, 1..400),
        ) {
            let spec = AdmissionSpec {
                shed_wait: SimDuration::from_millis(shed_ms),
                abandon_wait: SimDuration::from_millis(shed_ms + patience_extra_ms),
                util_cap: 0.96,
            };
            let mut tally = AdmissionTally::default();
            for w in &waits {
                tally.record(admission_verdict(&spec, SimDuration::from_micros(*w)));
            }
            prop_assert_eq!(tally.offered, waits.len() as u64);
            prop_assert!(tally.conserves());
        }

        /// Satellite: autoscaler monotonicity — capacity never leaves
        /// `[1, max_factor]`, and within any run of consecutive
        /// overloaded boundaries past the sustain threshold the factor
        /// is non-decreasing.
        #[test]
        fn autoscaler_is_monotone_under_sustained_overload(
            sustain in 1u32..5,
            step in 0.05f64..1.0,
            max_factor in 1.0f64..4.0,
            conditions in proptest::collection::vec(any::<bool>(), 1..200),
        ) {
            let spec = AutoscalerSpec { sustain_windows: sustain, step, max_factor };
            let mut prev = 1.0f64;
            let mut streak = 0u32;
            let mut factors = Vec::with_capacity(conditions.len());
            for &overloaded in &conditions {
                streak = if overloaded { streak + 1 } else { 0 };
                prev = step_capacity(&spec, prev, streak);
                factors.push((prev, streak));
            }
            for &(f, _) in &factors {
                prop_assert!((1.0..=max_factor.max(1.0)).contains(&f), "factor {} out of band", f);
            }
            for pair in factors.windows(2) {
                let (f0, _) = pair[0];
                let (f1, s1) = pair[1];
                if s1 > sustain {
                    // Both this boundary and the previous were past the
                    // sustain threshold: capacity must not decrease.
                    prop_assert!(f1 >= f0, "capacity fell {} -> {} during sustained overload", f0, f1);
                }
            }
        }
    }
}

//! Fault scenarios: which failure sources strike, how hard, and how
//! clients respond.
//!
//! A [`FaultScenario`] names its per-entity sources (machine crashes,
//! cluster drains, WAN cluster-pair partitions, site overload surges),
//! its correlated incidents ([`IncidentSpec`]: cluster drains surging
//! their same-region neighbours, region-pair WAN cuts, regional overload
//! fronts) and its controllers (`crate::control`). It is configuration
//! only: `crate::conditions::Environment` materialises it as seed-derived
//! episode trajectories and answers every question the driver and the
//! run reports ask of it.
//!
//! The scenario also carries the *client-side response* to failures: the
//! deadline-draw range and the retry/backoff/budget configuration the
//! driver's resilience loop executes. See `docs/ROBUSTNESS.md`.

use crate::control::{AdmissionSpec, AutoscalerSpec, ControlSpec};
use rpclens_netsim::congestion::CongestionParams;
use rpclens_rpcstack::deadline::DeadlinePolicy;
use rpclens_rpcstack::error::ErrorProfile;
use rpclens_rpcstack::retry::BackoffPolicy;
use rpclens_simcore::renewal::RenewalParams;
use rpclens_simcore::time::SimDuration;

/// One failure source: which fraction of entities it can strike, and the
/// episode process governing each eligible entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeSpec {
    /// Fraction of entities eligible for this failure source (the
    /// eligibility draw is deterministic per entity).
    pub eligible: f64,
    /// Healthy (up) and failed (down) mean durations for each eligible
    /// entity.
    pub params: RenewalParams,
}

/// WAN partition source: eligible cluster pairs alternate between full
/// blackouts (targets unreachable) and brownouts (excess wire latency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionSpec {
    /// Pair eligibility and episode process.
    pub episodes: EpisodeSpec,
    /// Excess one-way latency added during a brownout episode.
    pub brownout_excess: SimDuration,
}

impl PartitionSpec {
    /// Derives the brownout excess from the WAN congestion process
    /// instead of picking a fixed number: a brownout pins the path in
    /// its busy (congested) state, so each crossing gains the busy-state
    /// mean excess (`CongestionParams::congested_mean_excess_secs`)
    /// weighted by the residence the pin *adds* over the path's normal
    /// duty cycle, times the scenario's severity factor. At severity 2
    /// this lands within a millisecond of the old fixed 30 ms, but now
    /// tracks the congestion model if its parameters move.
    pub fn wan_derived(episodes: EpisodeSpec, severity: f64) -> Self {
        let wan = CongestionParams::wan();
        let added_residence = 1.0 - wan.congested_duty_cycle();
        let excess = wan.congested_mean_excess_secs() * added_residence * severity;
        PartitionSpec {
            episodes,
            brownout_excess: SimDuration::from_secs_f64(excess),
        }
    }
}

/// CPU-overload source: eligible deployment sites see their ambient
/// utilization surge, and queue waits beyond the shed threshold are
/// rejected with `NoResource` (load shedding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadSpec {
    /// Site eligibility and surge episode process.
    pub episodes: EpisodeSpec,
    /// Multiplier applied to the site's ambient utilization during a
    /// surge (the result is clamped below saturation).
    pub util_factor: f64,
    /// Queue waits above this threshold are load-shed while surging.
    pub shed_wait: SimDuration,
}

/// Shared cross-entity incident sources. Scopes are structural — the
/// cluster's region membership decides who a drain displaces load onto
/// and which cluster pairs one WAN cut severs — so a single episode draw
/// fans out over many entities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncidentSpec {
    /// Whole-cluster drain incidents. While a cluster drains, its
    /// same-region placement neighbours absorb the displaced traffic as
    /// a utilization surge.
    pub drain: Option<EpisodeSpec>,
    /// Utilization multiplier on the same-region neighbours of a
    /// draining cluster (the displaced load landing on them).
    pub surge_factor: f64,
    /// Region-pair WAN cuts: one episode degrades *every* cluster pair
    /// spanning the two regions at once. Episodes alternate
    /// blackout/brownout on their ordinal, like per-pair partitions.
    pub wan_cut: Option<PartitionSpec>,
    /// Regional overload fronts: one episode surges every deployment
    /// site in the region, with load shedding past the spec's wait
    /// threshold.
    pub front: Option<OverloadSpec>,
}

impl IncidentSpec {
    /// Whether any incident source is active.
    pub fn strikes(&self) -> bool {
        self.drain.is_some() || self.wan_cut.is_some() || self.front.is_some()
    }
}

/// Deadline behaviour: roots draw a log-uniform deadline budget and
/// children inherit the remainder per [`DeadlinePolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineSpec {
    /// Smallest root budget drawn.
    pub min_budget: SimDuration,
    /// Largest root budget drawn.
    pub max_budget: SimDuration,
    /// Propagation policy (hop margin, fail-fast floor).
    pub policy: DeadlinePolicy,
    /// Draw each root's budget from its entry method's *own* latency
    /// quantiles instead of the one global log-uniform range: the band
    /// is `[q50 × lo, q99 × hi]` of the method's compute distribution,
    /// with per-service-family headroom multipliers (latency-sensitive
    /// families get tight budgets, batch families loose ones), clamped
    /// to `[min_budget, max_budget]`. Still exactly one draw per root.
    pub per_family: bool,
}

/// Client retry behaviour: jittered exponential backoff gated by a
/// per-trace token-bucket `RetryBudget`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrySpec {
    /// Backoff policy (base, multiplier, cap, max attempts).
    pub backoff: BackoffPolicy,
    /// Tokens earned per successful call (`RetryBudget` ratio).
    pub budget_ratio: f64,
    /// Burst capacity of the per-trace budget (`RetryBudget` cap).
    pub budget_cap: f64,
}

/// A named fault scenario: which failure sources run and how clients
/// respond. `FaultScenario::none()` disables everything and is the
/// default — under it the driver's draw sequence is byte-identical to a
/// build without the fault plane, preserving the golden manifest digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScenario {
    /// Preset name (recorded in the run manifest).
    pub name: &'static str,
    /// Machine crash/restart churn (tasks `Unavailable` while down).
    pub machine_crash: Option<EpisodeSpec>,
    /// Whole-cluster drains (every site in the cluster `Unavailable`).
    pub cluster_drain: Option<EpisodeSpec>,
    /// WAN partitions/brownouts per cluster pair.
    pub wan_partition: Option<PartitionSpec>,
    /// CPU-overload surges with load shedding.
    pub overload: Option<OverloadSpec>,
    /// Root deadline draws and propagation.
    pub deadlines: Option<DeadlineSpec>,
    /// Client retries with budget and failover.
    pub retry: Option<RetrySpec>,
    /// Correlated cross-entity incidents ([`IncidentSpec`]): cluster
    /// drains surging their placement neighbours, region-pair WAN cuts,
    /// regional overload fronts.
    pub incidents: Option<IncidentSpec>,
    /// Closed-loop controllers (`crate::control`): autoscaler,
    /// load-balancer weight shift, bounded admission queues.
    pub control: Option<ControlSpec>,
}

impl FaultScenario {
    /// Every preset name accepted by [`FaultScenario::by_name`].
    pub const PRESETS: [&'static str; 6] = [
        "none",
        "chaos-smoke",
        "partition",
        "overload-collapse",
        "incident-smoke",
        "incident-open-loop",
    ];

    /// No faults at all; the pre-fault-plane simulator, bit for bit.
    pub fn none() -> Self {
        FaultScenario {
            name: "none",
            machine_crash: None,
            cluster_drain: None,
            wan_partition: None,
            overload: None,
            deadlines: None,
            retry: None,
            incidents: None,
            control: None,
        }
    }

    /// A little of everything, tuned so the aggregate error taxonomy
    /// still reconciles with Fig. 23 (cancellations lead, total error
    /// rate near 2%): rare machine crashes, an occasional cluster drain,
    /// WAN partition/brownout episodes, mild overload surges, drawn
    /// deadlines, and budgeted retries with failover.
    pub fn chaos_smoke() -> Self {
        FaultScenario {
            name: "chaos-smoke",
            machine_crash: Some(EpisodeSpec {
                eligible: 0.30,
                params: RenewalParams {
                    up_mean: SimDuration::from_hours(6),
                    down_mean: SimDuration::from_secs(300),
                },
            }),
            cluster_drain: Some(EpisodeSpec {
                eligible: 0.10,
                params: RenewalParams {
                    up_mean: SimDuration::from_hours(12),
                    down_mean: SimDuration::from_secs(900),
                },
            }),
            // Brownout severity 2x the WAN busy-state mean excess —
            // within a millisecond of the old fixed 30 ms, but derived.
            wan_partition: Some(PartitionSpec::wan_derived(
                EpisodeSpec {
                    eligible: 0.20,
                    params: RenewalParams {
                        up_mean: SimDuration::from_hours(4),
                        down_mean: SimDuration::from_secs(180),
                    },
                },
                2.0,
            )),
            overload: Some(OverloadSpec {
                episodes: EpisodeSpec {
                    eligible: 0.10,
                    params: RenewalParams {
                        up_mean: SimDuration::from_hours(6),
                        down_mean: SimDuration::from_secs(600),
                    },
                },
                util_factor: 1.6,
                shed_wait: SimDuration::from_millis(30),
            }),
            deadlines: Some(DeadlineSpec {
                min_budget: SimDuration::from_millis(250),
                max_budget: SimDuration::from_secs(30),
                policy: DeadlinePolicy::default(),
                per_family: true,
            }),
            retry: Some(RetrySpec {
                backoff: BackoffPolicy::default(),
                budget_ratio: 0.2,
                budget_cap: 2.0,
            }),
            incidents: None,
            control: None,
        }
    }

    /// WAN-focused scenario: frequent partition/brownout episodes across
    /// many cluster pairs, with deadlines and budgeted retries but no
    /// machine churn or overload.
    pub fn partition() -> Self {
        FaultScenario {
            name: "partition",
            machine_crash: None,
            cluster_drain: None,
            // Severity 4x: a WAN-stress scenario browns out at about
            // twice the balanced chaos preset's derived excess.
            wan_partition: Some(PartitionSpec::wan_derived(
                EpisodeSpec {
                    eligible: 0.60,
                    params: RenewalParams {
                        up_mean: SimDuration::from_secs(5_400),
                        down_mean: SimDuration::from_secs(240),
                    },
                },
                4.0,
            )),
            overload: None,
            deadlines: Some(DeadlineSpec {
                min_budget: SimDuration::from_millis(50),
                max_budget: SimDuration::from_secs(5),
                policy: DeadlinePolicy::default(),
                per_family: false,
            }),
            retry: Some(RetrySpec {
                backoff: BackoffPolicy::default(),
                budget_ratio: 0.2,
                budget_cap: 2.0,
            }),
            incidents: None,
            control: None,
        }
    }

    /// The metastable-overload / retry-storm scenario: long, widespread
    /// CPU surges with aggressive load shedding. The tight per-trace
    /// retry budget (ratio 0.1, burst 1) is what keeps the retry storm
    /// clamped — the `retry-storm` detector verifies the amplification
    /// stays below the configured ratio.
    pub fn overload_collapse() -> Self {
        FaultScenario {
            name: "overload-collapse",
            machine_crash: None,
            cluster_drain: None,
            wan_partition: None,
            overload: Some(OverloadSpec {
                episodes: EpisodeSpec {
                    eligible: 0.50,
                    params: RenewalParams {
                        up_mean: SimDuration::from_hours(2),
                        down_mean: SimDuration::from_secs(1_800),
                    },
                },
                util_factor: 2.2,
                shed_wait: SimDuration::from_millis(15),
            }),
            deadlines: Some(DeadlineSpec {
                min_budget: SimDuration::from_millis(50),
                max_budget: SimDuration::from_secs(10),
                policy: DeadlinePolicy::default(),
                per_family: false,
            }),
            retry: Some(RetrySpec {
                backoff: BackoffPolicy::default(),
                budget_ratio: 0.1,
                budget_cap: 1.0,
            }),
            incidents: None,
            control: None,
        }
    }

    /// The correlated-incident scenario with the fleet fighting back:
    /// cluster drains that surge their same-region neighbours, region-
    /// pair WAN cuts, and regional overload fronts, against an
    /// autoscaler, load-balancer weight shifts, and bounded admission
    /// queues. The digest-pinned companion to `chaos-smoke` for the
    /// incident layer (`manifest/incident-smoke` in crates/bench/DIGESTS).
    pub fn incident_smoke() -> Self {
        FaultScenario {
            name: "incident-smoke",
            machine_crash: None,
            cluster_drain: None,
            wan_partition: None,
            overload: None,
            deadlines: Some(DeadlineSpec {
                min_budget: SimDuration::from_millis(50),
                max_budget: SimDuration::from_secs(10),
                policy: DeadlinePolicy::default(),
                per_family: true,
            }),
            retry: Some(RetrySpec {
                backoff: BackoffPolicy::default(),
                budget_ratio: 0.2,
                budget_cap: 2.0,
            }),
            incidents: Some(IncidentSpec {
                drain: Some(EpisodeSpec {
                    eligible: 0.30,
                    params: RenewalParams {
                        up_mean: SimDuration::from_hours(8),
                        down_mean: SimDuration::from_secs(2_700),
                    },
                }),
                surge_factor: 1.8,
                wan_cut: Some(PartitionSpec::wan_derived(
                    EpisodeSpec {
                        eligible: 0.60,
                        params: RenewalParams {
                            up_mean: SimDuration::from_hours(6),
                            down_mean: SimDuration::from_secs(1_800),
                        },
                    },
                    2.0,
                )),
                front: Some(OverloadSpec {
                    episodes: EpisodeSpec {
                        eligible: 0.75,
                        params: RenewalParams {
                            up_mean: SimDuration::from_hours(5),
                            down_mean: SimDuration::from_hours(2),
                        },
                    },
                    util_factor: 2.0,
                    shed_wait: SimDuration::from_millis(15),
                }),
            }),
            control: Some(ControlSpec {
                autoscaler: Some(AutoscalerSpec {
                    sustain_windows: 2,
                    step: 0.25,
                    max_factor: 2.5,
                }),
                lb_shift: true,
                admission: Some(AdmissionSpec {
                    shed_wait: SimDuration::from_millis(15),
                    abandon_wait: SimDuration::from_millis(60),
                    util_cap: 0.96,
                }),
            }),
        }
    }

    /// The same incident schedule as [`FaultScenario::incident_smoke`]
    /// with every controller disabled — the open-loop baseline the
    /// closed- vs open-loop comparison (and `docs/ROBUSTNESS.md`'s
    /// table) measures against. Incident trajectories depend only on
    /// `(seed, incident spec)`, so the two scenarios see bit-identical
    /// incident timelines.
    pub fn incident_open_loop() -> Self {
        FaultScenario {
            name: "incident-open-loop",
            control: None,
            ..Self::incident_smoke()
        }
    }

    /// Resolves a preset by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "chaos-smoke" => Some(Self::chaos_smoke()),
            "partition" => Some(Self::partition()),
            "overload-collapse" => Some(Self::overload_collapse()),
            "incident-smoke" => Some(Self::incident_smoke()),
            "incident-open-loop" => Some(Self::incident_open_loop()),
            _ => None,
        }
    }

    /// Whether this scenario is expected to reconcile with the paper's
    /// Fig. 23 error taxonomy. Only the balanced default chaos preset
    /// makes that promise; `partition` and `overload-collapse` are
    /// stress scenarios whose taxonomies *intentionally* deviate (that
    /// deviation is what their detectors exist to flag), so gating them
    /// on paper-shape reconciliation would be a category error.
    pub fn reconciles_taxonomy(&self) -> bool {
        self.name == "chaos-smoke"
    }

    /// Whether any causal failure source is active.
    pub fn injects_faults(&self) -> bool {
        self.machine_crash.is_some()
            || self.cluster_drain.is_some()
            || self.wan_partition.is_some()
            || self.overload.is_some()
            || self.deadlines.is_some()
            || self.incidents.is_some_and(|i| i.strikes())
    }

    /// The static error profile this scenario runs with: the full fleet
    /// default when no causal source is active, otherwise only the
    /// residual semantic classes (the mechanical classes — cancellation,
    /// deadline expiry, unavailability, resource exhaustion — are
    /// produced causally by the driver instead of drawn from a table).
    pub fn error_profile(&self) -> ErrorProfile {
        if self.injects_faults() {
            ErrorProfile::residual_default()
        } else {
            ErrorProfile::fleet_default()
        }
    }
}

impl Default for FaultScenario {
    fn default() -> Self {
        Self::none()
    }
}

/// Connectivity of one WAN cluster pair at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionState {
    /// Normal connectivity.
    #[default]
    Connected,
    /// Degraded: messages pass but carry excess latency.
    Brownout,
    /// Partitioned: targets across the pair are unreachable.
    Blackout,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::{Conditions, Environment};
    use rpclens_netsim::topology::{ClusterId, Topology};
    use rpclens_simcore::time::SimTime;
    use rpclens_trace::span::ServiceId;

    fn environment(scenario: &FaultScenario) -> Environment {
        Environment::new(scenario, 7, &Topology::default_world(7))
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in FaultScenario::PRESETS {
            let s = FaultScenario::by_name(name).expect("preset resolves");
            assert_eq!(s.name, name);
        }
        assert!(FaultScenario::by_name("bogus").is_none());
    }

    #[test]
    fn none_scenario_has_no_plane_and_full_profile() {
        let none = FaultScenario::none();
        assert!(!none.injects_faults());
        let topo = Topology::default_world(7);
        let mut env = Environment::new(&none, 7, &topo);
        for i in 0..1_000u64 {
            let t = SimTime::from_nanos(i * 86_400_000_000);
            let (client, server) = (ClusterId((i % 48) as u16), ClusterId((i * 7 % 48) as u16));
            let c = env.conditions(&topo, client, server, ServiceId(3), 1, t);
            assert_eq!(c, Conditions::default());
        }
        assert_eq!(
            none.error_profile().rates(),
            ErrorProfile::fleet_default().rates()
        );
    }

    #[test]
    fn active_scenarios_shrink_to_residual_profile() {
        for name in ["chaos-smoke", "partition", "overload-collapse"] {
            let s = FaultScenario::by_name(name).unwrap();
            assert!(s.injects_faults(), "{name}");
            assert_eq!(
                s.error_profile().rates(),
                ErrorProfile::residual_default().rates(),
                "{name}"
            );
        }
    }

    #[test]
    fn plane_answers_are_independent_of_query_order() {
        let scenario = FaultScenario::chaos_smoke();
        let mut forward = environment(&scenario);
        let mut backward = environment(&scenario);
        let instants: Vec<SimTime> = (0..2_000u64)
            .map(|i| SimTime::from_nanos(i * 43_000_000_000))
            .collect();
        let mut recorded = Vec::new();
        for &t in &instants {
            for entity in 0..16u16 {
                recorded.push((
                    forward.machine_crashed(entity, entity % 5, (entity % 3) as usize, t),
                    forward.cluster_drained(entity % 8, t),
                    forward.pair_partition(entity % 8, 40 + entity % 8, true, t),
                    forward.site_surge(entity, entity % 5, t),
                ));
            }
        }
        let mut idx = recorded.len();
        for &t in instants.iter().rev() {
            for entity in (0..16u16).rev() {
                idx -= 1;
                let expect = recorded[idx];
                // Query in reversed entity order too: lazy construction
                // must not depend on which entity was touched first.
                assert_eq!(
                    backward.site_surge(entity, entity % 5, t),
                    expect.3,
                    "overload at {t}"
                );
                assert_eq!(
                    backward.pair_partition(40 + entity % 8, entity % 8, true, t),
                    expect.2,
                    "partition at {t} (reversed pair)"
                );
                assert_eq!(backward.cluster_drained(entity % 8, t), expect.1);
                assert_eq!(
                    backward.machine_crashed(entity, entity % 5, (entity % 3) as usize, t),
                    expect.0
                );
            }
        }
    }

    #[test]
    fn eligibility_fraction_is_respected() {
        let mut scenario = FaultScenario::chaos_smoke();
        scenario.machine_crash = Some(EpisodeSpec {
            eligible: 1.0,
            ..scenario.machine_crash.unwrap()
        });
        let mut env = environment(&scenario);
        // With eligibility 1.0 every machine eventually crashes.
        let mut saw_crash = 0;
        for m in 0..64u64 {
            for i in 0..2_000u64 {
                if env.machine_crashed(
                    (m % 8) as u16,
                    (m / 8) as u16,
                    (m % 3) as usize,
                    SimTime::from_nanos(i * 43_000_000_000),
                ) {
                    saw_crash += 1;
                    break;
                }
            }
        }
        assert!(saw_crash > 48, "only {saw_crash}/64 machines ever crashed");

        // With eligibility 0.0…01, practically none do.
        scenario.machine_crash = Some(EpisodeSpec {
            eligible: 1e-9,
            ..scenario.machine_crash.unwrap()
        });
        let mut env = environment(&scenario);
        for m in 0..64u64 {
            assert!(!env.machine_crashed(
                (m % 8) as u16,
                (m / 8) as u16,
                (m % 3) as usize,
                SimTime::from_nanos(86_400_000_000_000)
            ));
        }
    }

    #[test]
    fn non_wan_pairs_never_partition() {
        let mut env = environment(&FaultScenario::partition());
        for i in 0..1_000u64 {
            let t = SimTime::from_nanos(i * 86_400_000_000);
            assert_eq!(
                env.pair_partition(3, 4, false, t),
                PartitionState::Connected
            );
            assert_eq!(env.pair_partition(5, 5, true, t), PartitionState::Connected);
        }
    }

    #[test]
    fn partitions_include_both_blackouts_and_brownouts() {
        let mut env = environment(&FaultScenario::partition());
        let mut states = std::collections::BTreeSet::new();
        for a in 0..8u16 {
            for b in 40..48u16 {
                for i in 0..5_000u64 {
                    let t = SimTime::from_nanos(i * 17_280_000_000);
                    let s = env.pair_partition(a, b, true, t);
                    states.insert(format!("{s:?}"));
                }
            }
        }
        assert!(states.contains("Blackout"), "no blackout seen: {states:?}");
        assert!(states.contains("Brownout"), "no brownout seen: {states:?}");
    }
}

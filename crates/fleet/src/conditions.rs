//! One environment lookup per call.
//!
//! Before it sends a request, the driver asks one question: what does a
//! call from `client` to `service`'s task on machine `machine` of
//! `server` meet at `t`? [`Environment`] owns the shard's three
//! seed-derived planes — per-entity faults ([`FaultPlane`]), correlated
//! incidents ([`IncidentPlane`]) and controllers ([`ControlPlane`], which
//! reads that same incident plane) — and answers with one [`Conditions`]
//! value.
//!
//! Precedence when several sources speak:
//!
//! - **Reachability**: a blackout from either plane makes the target
//!   unreachable at cluster level and wins over any brownout. When both
//!   planes brown the path out, the larger excess applies; a brownout's
//!   excess is reported even when the target is also unreachable.
//! - **Drains and crashes**: a cluster is drained when either plane
//!   drains it (cluster level); a crashed machine is a machine-level
//!   failure. The fault plane is read first, so its machine crash masks an
//!   incident drain (still machine level), while an incident blackout
//!   overrides it (cluster level).
//! - **Overload**: surge sources never stack multiplicatively — the
//!   *strongest* factor among the per-site surge, the regional front, and
//!   the neighbour surge applies (each is already an absolute utilization
//!   multiplier, so stacking would double-count the load). The
//!   autoscaler's capacity then divides it; an effective factor at or
//!   below 1 is no overload at all.
//! - **Shedding**: while overloaded, a bounded admission queue (when the
//!   control plane runs one) supersedes the ambient shed threshold.
//!
//! Every plane answer is a pure function of `(seed, entity key, t)` and
//! no lookup consumes a caller draw, so every shard composes identical
//! conditions and `--faults none` runs draw nothing at all.

use crate::control::{AdmissionSpec, ControlPlane};
use crate::faults::{FaultPlane, FaultScenario, PartitionState};
use crate::incident::IncidentPlane;
use rpclens_netsim::topology::{ClusterId, Topology};
use rpclens_simcore::time::{SimDuration, SimTime};
use rpclens_trace::span::ServiceId;

/// How far an unreachable target's failure reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unavailable {
    /// One machine is down: a retry may fail over within the cluster.
    Machine,
    /// The whole cluster is cut off or drained: failover must leave it.
    Cluster,
}

/// The environment one call meets at its target.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Conditions {
    /// Why the target is unreachable, if it is.
    pub unavailable: Option<Unavailable>,
    /// Excess one-way latency a brownout adds to each wire crossing.
    pub brownout: SimDuration,
    /// Effective utilization surge on the target's pool, after the
    /// autoscaler's added capacity.
    pub overload: Option<f64>,
    /// Ambient shed threshold: queue waits beyond it are rejected. Set
    /// only while overloaded and no admission queue runs.
    pub shed_wait: Option<SimDuration>,
    /// The bounded admission queue judging the call. Set only while
    /// overloaded.
    pub admission: Option<AdmissionSpec>,
}

/// What one plane says about a call's path and target.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PlaneView {
    partition: PartitionState,
    /// The plane's brownout excess, applied only while browned out.
    brownout: SimDuration,
    drained: bool,
    crashed: bool,
    overload: Option<f64>,
}

/// Composes plane views (fault plane first) with the control plane's
/// capacity factor (`None` without a control plane), its admission
/// queue, and the scenario's ambient shed threshold, by the module-level
/// precedence rules.
fn compose(
    views: [Option<PlaneView>; 2],
    capacity: Option<f64>,
    admission: Option<AdmissionSpec>,
    shed_wait: Option<SimDuration>,
) -> Conditions {
    let mut c = Conditions::default();
    for view in views.into_iter().flatten() {
        match view.partition {
            PartitionState::Blackout => c.unavailable = Some(Unavailable::Cluster),
            PartitionState::Brownout => c.brownout = c.brownout.max(view.brownout),
            PartitionState::Connected => {}
        }
        if c.unavailable.is_none() {
            if view.drained {
                c.unavailable = Some(Unavailable::Cluster);
            } else if view.crashed {
                c.unavailable = Some(Unavailable::Machine);
            }
        }
        if let Some(f) = view.overload {
            c.overload = Some(c.overload.map_or(f, |g| g.max(f)));
        }
    }
    if let (Some(f), Some(capacity)) = (c.overload, capacity) {
        let effective = f / capacity;
        c.overload = (effective > 1.0).then_some(effective);
    }
    if c.overload.is_some() {
        c.admission = admission;
        c.shed_wait = shed_wait.filter(|_| admission.is_none());
    }
    c
}

/// The per-shard environment: every plane a scenario materialises.
///
/// Built from `(scenario, master seed, cluster→region map)` alone, so
/// every shard builds an identical one.
#[derive(Debug)]
pub struct Environment {
    faults: Option<FaultPlane>,
    incidents: Option<IncidentPlane>,
    control: Option<ControlPlane>,
    /// The ambient shed threshold: the per-site overload source's, else
    /// the regional front's.
    shed_wait: Option<SimDuration>,
}

impl Environment {
    /// Materialises `scenario` against the master seed and the
    /// cluster→region map (`region_of[c]` is the region of cluster `c`).
    /// Controllers decide once per TSDB sample window.
    pub fn new(scenario: &FaultScenario, seed: u64, region_of: Vec<u16>) -> Self {
        let front = scenario.incidents.and_then(|i| i.front);
        Environment {
            faults: FaultPlane::new(scenario, seed),
            incidents: scenario
                .incidents
                .and_then(|spec| IncidentPlane::new(&spec, seed, region_of)),
            control: scenario
                .control
                .map(|spec| ControlPlane::new(spec, rpclens_tsdb::DEFAULT_SAMPLE_PERIOD)),
            shed_wait: scenario.overload.or(front).map(|o| o.shed_wait),
        }
    }

    /// The conditions a call from `client` to `service`'s task on
    /// machine `machine` of `server` meets at `t`.
    pub fn conditions(
        &mut self,
        topo: &Topology,
        client: ClusterId,
        server: ClusterId,
        service: ServiceId,
        machine: usize,
        t: SimTime,
    ) -> Conditions {
        if self.faults.is_none() && self.incidents.is_none() {
            return Conditions::default();
        }
        // Capacity first: the autoscaler catches up by walking window
        // boundaries up to `t` in order, before anything reads the
        // incident plane at `t` itself.
        let capacity = self
            .control
            .as_mut()
            .map(|cp| cp.capacity_factor(self.incidents.as_mut(), server.0, t));
        let wan = topo.path_class(client, server).is_wan();
        let faults = self.faults.as_mut().map(|p| PlaneView {
            partition: p.partition_state(client.0, server.0, wan, t),
            brownout: p.brownout_excess(),
            drained: p.cluster_drained(server.0, t),
            crashed: p.machine_crashed(service.0, server.0, machine, t),
            overload: p.overload_factor(service.0, server.0, t),
        });
        let incidents = self.incidents.as_mut().map(|p| PlaneView {
            partition: p.partition_state(client.0, server.0, wan, t),
            brownout: p.brownout_excess(),
            drained: p.cluster_drained(server.0, t),
            crashed: false,
            overload: p.overload_factor(server.0, t),
        });
        compose(
            [faults, incidents],
            capacity,
            self.control.as_ref().and_then(ControlPlane::admission),
            self.shed_wait,
        )
    }

    /// Whether the load balancer steers calls from `client` away from
    /// `server` during the window containing `t` (see
    /// [`ControlPlane::path_degraded`]).
    pub fn path_degraded(
        &mut self,
        topo: &Topology,
        client: ClusterId,
        server: ClusterId,
        t: SimTime,
    ) -> bool {
        match self.control.as_mut() {
            Some(cp) if cp.shifts_load() => {
                let wan = topo.path_class(client, server).is_wan();
                cp.path_degraded(self.incidents.as_mut(), client.0, server.0, wan, t)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The driver's composition before the single lookup: steps 3b (fault
    /// plane), 3c (incident plane), the autoscaler division and the
    /// shed-wait probe, in their original form.
    fn two_step(
        fault: Option<PlaneView>,
        incident: Option<PlaneView>,
        capacity: Option<f64>,
        admission: Option<AdmissionSpec>,
        shed_wait: Option<SimDuration>,
    ) -> Conditions {
        let mut causal = false;
        let mut cluster_level = false;
        let mut brownout = SimDuration::ZERO;
        let mut overload_factor: Option<f64> = None;
        if let Some(plane) = fault {
            match plane.partition {
                PartitionState::Blackout => {
                    causal = true;
                    cluster_level = true;
                }
                PartitionState::Brownout => brownout = plane.brownout,
                PartitionState::Connected => {}
            }
            if !causal && plane.drained {
                causal = true;
                cluster_level = true;
            }
            if !causal && plane.crashed {
                causal = true;
            }
            overload_factor = plane.overload;
        }
        if let Some(inc) = incident {
            match inc.partition {
                PartitionState::Blackout => {
                    causal = true;
                    cluster_level = true;
                }
                PartitionState::Brownout => brownout = brownout.max(inc.brownout),
                PartitionState::Connected => {}
            }
            if !causal && inc.drained {
                causal = true;
                cluster_level = true;
            }
            if let Some(f) = inc.overload {
                overload_factor = Some(overload_factor.map_or(f, |g| g.max(f)));
            }
        }
        if let Some(f) = overload_factor {
            if let Some(capacity) = capacity {
                let eff = f / capacity;
                overload_factor = (eff > 1.0).then_some(eff);
            }
        }
        let admission = if overload_factor.is_some() {
            admission
        } else {
            None
        };
        let shed = admission.is_none() && overload_factor.is_some();
        Conditions {
            unavailable: causal.then_some(if cluster_level {
                Unavailable::Cluster
            } else {
                Unavailable::Machine
            }),
            brownout,
            overload: overload_factor,
            shed_wait: shed_wait.filter(|_| shed),
            admission,
        }
    }

    const PARTITIONS: [PartitionState; 3] = [
        PartitionState::Connected,
        PartitionState::Brownout,
        PartitionState::Blackout,
    ];

    fn fault_views() -> Vec<Option<PlaneView>> {
        let mut views = vec![None];
        for partition in PARTITIONS {
            for drained in [false, true] {
                for crashed in [false, true] {
                    for overload in [None, Some(1.6)] {
                        views.push(Some(PlaneView {
                            partition,
                            brownout: SimDuration::from_millis(28),
                            drained,
                            crashed,
                            overload,
                        }));
                    }
                }
            }
        }
        views
    }

    fn incident_views() -> Vec<Option<PlaneView>> {
        let mut views = vec![None];
        for partition in PARTITIONS {
            for drained in [false, true] {
                for overload in [None, Some(1.8), Some(2.0)] {
                    views.push(Some(PlaneView {
                        partition,
                        brownout: SimDuration::from_millis(35),
                        drained,
                        crashed: false,
                        overload,
                    }));
                }
            }
        }
        views
    }

    fn admission() -> AdmissionSpec {
        AdmissionSpec {
            shed_wait: SimDuration::from_millis(15),
            abandon_wait: SimDuration::from_millis(60),
            util_cap: 0.96,
        }
    }

    #[test]
    fn lookup_matches_the_two_step_composition_on_every_combination() {
        let mut cases = 0;
        for fault in fault_views() {
            for incident in incident_views() {
                for capacity in [None, Some(1.0), Some(1.75), Some(2.5)] {
                    for admission in [None, Some(admission())] {
                        for shed in [None, Some(SimDuration::from_millis(30))] {
                            assert_eq!(
                                compose([fault, incident], capacity, admission, shed),
                                two_step(fault, incident, capacity, admission, shed),
                                "{fault:?} x {incident:?} x {capacity:?} x {admission:?} x {shed:?}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 25 * 19 * 16);
        // The asymmetric cases, spelled out: a fault-plane machine crash
        // masks an incident drain (machine level) but not an incident
        // blackout (cluster level).
        let view = |drained, crashed, partition| {
            Some(PlaneView {
                partition,
                drained,
                crashed,
                ..PlaneView::default()
            })
        };
        let crash = view(false, true, PartitionState::Connected);
        let unavailable = |incident| compose([crash, incident], None, None, None).unavailable;
        assert_eq!(
            unavailable(view(true, false, PartitionState::Connected)),
            Some(Unavailable::Machine)
        );
        assert_eq!(
            unavailable(view(false, false, PartitionState::Blackout)),
            Some(Unavailable::Cluster)
        );
    }
}

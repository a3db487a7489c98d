//! The environment: one seed-derived plane that answers what a call meets.
//!
//! A [`FaultScenario`] names per-entity failure sources (machine crashes,
//! cluster drains, WAN cluster-pair partitions, site overload surges),
//! correlated incidents (cluster drains that surge their same-region
//! neighbours, region-pair WAN cuts, regional overload fronts) and the
//! controllers that react to them. [`Environment`] materialises all of it
//! for one shard. Every source's episodes live in one lazily built table
//! keyed by `(source, entity)`, where the entity is a machine, cluster,
//! cluster pair, site, region pair or region. Before it sends a request,
//! the driver asks one question: what does a call from `client` to
//! `service`'s task on machine `machine` of `server` meet at `t`? The
//! answer is one [`Conditions`] value.
//!
//! Precedence when several sources speak, written once in `resolve`:
//!
//! - **Reachability**: a blackout from any source, or a drain from any
//!   source, makes the target unavailable at cluster level. Otherwise a
//!   crashed machine makes it unavailable at machine level.
//! - **Brownout**: the larger excess of the browned-out sources applies.
//!   It is reported even when the target is unreachable.
//! - **Overload**: surge sources never stack multiplicatively. The
//!   largest factor among the per-site surge, the regional front and the
//!   neighbour surge applies (each is already an absolute utilization
//!   multiplier, so stacking would double-count the load). The
//!   autoscaler's capacity then divides it; an effective factor at or
//!   below 1 is no overload at all.
//! - **Shedding**: while overloaded, a bounded admission queue (when one
//!   runs) supersedes the ambient shed threshold.
//!
//! The controllers (`crate::control`) read the same table, and only its
//! *incident* sources: the autoscaler steps each cluster's capacity on
//! the incident overload at window boundaries, and the load balancer
//! avoids region pairs cut or browned out at the window's opening
//! boundary. The incident summary and the controller timeline the run
//! reports print are walks of the same table.
//!
//! Every answer is a pure function of `(seed, source, entity, t)`: the
//! eligibility gates and trajectories derive from labelled streams of
//! the master seed and never consume a caller draw, so every shard
//! builds an identical environment, fault-injected runs are bit-identical
//! at any shard count, and `--faults none` runs draw nothing at all.

use crate::control::{step_capacity, AdmissionSpec, AutoscalerSpec};
use crate::faults::{EpisodeSpec, FaultScenario, IncidentSpec, PartitionSpec, PartitionState};
use rpclens_netsim::topology::{ClusterId, Topology};
use rpclens_simcore::renewal::AlternatingRenewal;
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::{SimDuration, SimTime};
use rpclens_trace::span::ServiceId;
use std::collections::HashMap;

/// Stream labels separating the sources' generator domains from every
/// other consumer of the master seed (the driver uses `0xD21_4E12`, sites
/// use `0x5173_0000`, …): `0xFA17_*` for per-entity sources, `0x1AC1_*`
/// for incidents. Each entity derives its eligibility gate and its
/// trajectory from *different* labels so the gate draw never shifts the
/// trajectory.
const CRASH_LABEL: u64 = 0xFA17_0001;
const DRAIN_LABEL: u64 = 0xFA17_0002;
const PARTITION_LABEL: u64 = 0xFA17_0003;
const OVERLOAD_LABEL: u64 = 0xFA17_0004;
const GATE_LABEL: u64 = 0xFA17_00FF;
const INCIDENT_DRAIN_LABEL: u64 = 0x1AC1_0001;
const INCIDENT_CUT_LABEL: u64 = 0x1AC1_0002;
const INCIDENT_FRONT_LABEL: u64 = 0x1AC1_0003;

/// Controllers decide once per TSDB sample window and hold the decision
/// for the whole window; the incident summary samples the same
/// boundaries.
const WINDOW_NS: u64 = rpclens_tsdb::DEFAULT_SAMPLE_PERIOD.as_nanos();

/// The window index containing `t`.
fn window_of(t: SimTime) -> usize {
    (t.as_nanos() / WINDOW_NS) as usize
}

/// The boundary instant opening window `w`.
fn boundary(w: usize) -> SimTime {
    SimTime::from_nanos(w as u64 * WINDOW_NS)
}

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

/// Every source's raw answer for one call, before precedence.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Sources {
    /// The path's state and brownout excess under the per-pair partition
    /// and the region-pair cut.
    paths: [(PartitionState, SimDuration); 2],
    /// The target cluster's per-cluster drain and drain incident.
    drains: [bool; 2],
    /// Whether the target machine is inside a crash episode.
    crashed: bool,
    /// The per-site surge, the regional front and the neighbour surge.
    surges: [Option<f64>; 3],
}

/// Applies the module-level precedence to one call's [`Sources`], given
/// the autoscaler's capacity factor (`None` without controllers), the
/// admission queue and the ambient shed threshold.
fn resolve(
    sources: &Sources,
    capacity: Option<f64>,
    admission: Option<AdmissionSpec>,
    shed_wait: Option<SimDuration>,
) -> Conditions {
    let blackout = sources
        .paths
        .iter()
        .any(|&(state, _)| state == PartitionState::Blackout);
    let unavailable = if blackout || sources.drains.contains(&true) {
        Some(Unavailable::Cluster)
    } else {
        sources.crashed.then_some(Unavailable::Machine)
    };
    let brownout = sources
        .paths
        .iter()
        .filter(|&&(state, _)| state == PartitionState::Brownout)
        .map(|&(_, excess)| excess)
        .fold(SimDuration::ZERO, SimDuration::max);
    let overload = sources
        .surges
        .iter()
        .flatten()
        .copied()
        .reduce(f64::max)
        .and_then(|f| match capacity {
            Some(capacity) => Some(f / capacity).filter(|&effective| effective > 1.0),
            None => Some(f),
        });
    let admission = admission.filter(|_| overload.is_some());
    Conditions {
        unavailable,
        brownout,
        overload,
        shed_wait: shed_wait.filter(|_| overload.is_some() && admission.is_none()),
        admission,
    }
}

/// Classifies a partition or cut episode on its ordinal's parity, so no
/// generator draw is spent on it: even episodes are blackouts, odd ones
/// brownouts.
fn partition(episode: Option<u64>) -> PartitionState {
    match episode {
        Some(e) if e % 2 == 0 => PartitionState::Blackout,
        Some(_) => PartitionState::Brownout,
        None => PartitionState::Connected,
    }
}

/// Lazily built episode trajectories, keyed by `(generator domain,
/// entity key)`.
#[derive(Debug)]
struct Episodes {
    seed: u64,
    /// Ineligible entities are remembered as `None`, so the gate draw
    /// happens exactly once per entity.
    table: HashMap<(u64, u64), Option<AlternatingRenewal>>,
}

impl Episodes {
    /// Ordinal of the episode entity `key` of source `domain` is inside
    /// at `now`, or `None` while it is healthy or ineligible, or when the
    /// source is not configured. The first query builds the entity from
    /// `(master seed, domain, key)` alone.
    fn episode_at(
        &mut self,
        domain: u64,
        key: u64,
        spec: Option<EpisodeSpec>,
        now: SimTime,
    ) -> Option<u64> {
        let spec = spec?;
        let seed = self.seed;
        self.table
            .entry((domain, key))
            .or_insert_with(|| {
                let mut gate = Prng::seed_from(seed)
                    .stream(GATE_LABEL ^ domain)
                    .stream(key);
                (gate.next_f64() < spec.eligible).then(|| {
                    AlternatingRenewal::new(
                        spec.params,
                        Prng::seed_from(seed).stream(domain).stream(key),
                    )
                })
            })
            .as_mut()?
            .episode_at(now)
    }
}

/// Boundary-sampled activity of one incident kind over a run, reported
/// in the manifest's robustness section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentSummaryRow {
    /// Incident kind (`cluster-drain`, `wan-cut`, `overload-front`).
    pub kind: &'static str,
    /// Scope entities (clusters, region pairs, or regions) struck by at
    /// least one episode observed at a window boundary.
    pub entities_struck: u64,
    /// Distinct episodes observed across all entities at window
    /// boundaries (episodes shorter than a window can slip between
    /// samples).
    pub episodes: u64,
}

/// Distinct episodes one entity showed at successive boundaries. Ordinals
/// never decrease in time, so counting changes counts distinct episodes.
#[derive(Debug, Clone, Copy, Default)]
struct EpisodeTally {
    last: Option<u64>,
    episodes: u64,
}

impl EpisodeTally {
    fn see(&mut self, episode: Option<u64>) {
        if episode.is_some() && episode != self.last {
            self.episodes += 1;
            self.last = episode;
        }
    }
}

/// The per-shard materialisation of a [`FaultScenario`]: its episode
/// table, the topology's region membership, and the controllers' state.
///
/// Built from `(scenario, master seed, topology)` alone, so every shard
/// builds an identical one, and two environments answer identically
/// regardless of query order.
#[derive(Debug)]
pub struct Environment {
    scenario: FaultScenario,
    /// Whether any causal source is active; without one every lookup is
    /// [`Conditions::default`] and nothing is drawn.
    active: bool,
    /// The incident sources (all unset when the scenario has none).
    incidents: IncidentSpec,
    /// The autoscaler, when one runs and an incident can overload it.
    autoscaler: Option<AutoscalerSpec>,
    /// The ambient shed threshold: the per-site overload source's, else
    /// the regional front's.
    shed_wait: Option<SimDuration>,
    /// Region of each cluster, indexed by cluster id.
    region_of: Vec<u16>,
    /// Clusters of each region (ascending), indexed by region id.
    members: Vec<Vec<u16>>,
    episodes: Episodes,
    /// Autoscaler capacity factor of every cluster, one row per window
    /// evaluated so far. Rows are appended in window order, all clusters
    /// at once, so incident trajectories are only ever read forward in
    /// time.
    capacity: Vec<Vec<f64>>,
    /// Consecutive overloaded boundaries per cluster, as of the last row.
    streak: Vec<u32>,
}

impl Environment {
    /// Materialises `scenario` against the master seed and the
    /// topology's cluster→region map.
    pub fn new(scenario: &FaultScenario, seed: u64, topology: &Topology) -> Self {
        let region_of: Vec<u16> = topology.clusters().map(|c| c.region.0).collect();
        let regions = region_of.iter().max().map_or(0, |&r| r as usize + 1);
        let mut members = vec![Vec::new(); regions];
        for (cluster, &region) in region_of.iter().enumerate() {
            members[region as usize].push(cluster as u16);
        }
        let incidents = scenario.incidents.unwrap_or(IncidentSpec {
            drain: None,
            surge_factor: 1.0,
            wan_cut: None,
            front: None,
        });
        Environment {
            scenario: *scenario,
            active: scenario.injects_faults(),
            incidents,
            autoscaler: scenario
                .control
                .and_then(|c| c.autoscaler)
                .filter(|_| incidents.strikes()),
            shed_wait: scenario.overload.or(incidents.front).map(|o| o.shed_wait),
            region_of,
            members,
            episodes: Episodes {
                seed,
                table: HashMap::new(),
            },
            capacity: Vec::new(),
            streak: Vec::new(),
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
        if !self.active {
            return Conditions::default();
        }
        // Capacity first: the autoscaler catches up by walking window
        // boundaries up to `t` in order, before anything reads the
        // incident sources at `t` itself.
        let control = self.scenario.control;
        let capacity = control.map(|_| self.capacity_factor(server.0, t));
        let wan = topo.path_class(client, server).is_wan();
        let excess = |p: Option<PartitionSpec>| p.map_or(SimDuration::ZERO, |p| p.brownout_excess);
        let [front, neighbour] = self.incident_surges(server.0, t);
        let sources = Sources {
            paths: [
                (
                    self.pair_partition(client.0, server.0, wan, t),
                    excess(self.scenario.wan_partition),
                ),
                (
                    self.cut_state(client.0, server.0, wan, t),
                    excess(self.incidents.wan_cut),
                ),
            ],
            drains: [
                self.cluster_drained(server.0, t),
                self.drain_incident(server.0, t).is_some(),
            ],
            crashed: self.machine_crashed(service.0, server.0, machine, t),
            surges: [self.site_surge(service.0, server.0, t), front, neighbour],
        };
        resolve(
            &sources,
            capacity,
            control.and_then(|c| c.admission),
            self.shed_wait,
        )
    }

    /// Whether the load balancer steers calls from `client` away from
    /// `server` during the window containing `t`: true when the
    /// weight-shift controller runs and the path's region pair was cut or
    /// browned out at the window's opening boundary.
    pub fn path_degraded(
        &mut self,
        topo: &Topology,
        client: ClusterId,
        server: ClusterId,
        t: SimTime,
    ) -> bool {
        if !self.shifts_load() {
            return false;
        }
        let wan = topo.path_class(client, server).is_wan();
        self.avoids(client.0, server.0, wan, t)
    }

    /// Whether the load-balancer weight-shift controller runs.
    fn shifts_load(&self) -> bool {
        self.scenario.control.is_some_and(|c| c.lb_shift)
    }

    /// Whether the region-pair cut degraded the `a`–`b` path at the
    /// boundary opening `t`'s window. `wan` is the path class.
    pub(crate) fn avoids(&mut self, a: u16, b: u16, wan: bool, t: SimTime) -> bool {
        self.cut_state(a, b, wan, boundary(window_of(t))) != PartitionState::Connected
    }

    /// Whether the task of `service` on machine `machine` of `cluster` is
    /// inside a crash/restart episode at `t`.
    pub(crate) fn machine_crashed(
        &mut self,
        service: u16,
        cluster: u16,
        machine: usize,
        t: SimTime,
    ) -> bool {
        let key = ((service as u64) << 24) | ((cluster as u64) << 8) | machine as u64;
        self.episodes
            .episode_at(CRASH_LABEL, key, self.scenario.machine_crash, t)
            .is_some()
    }

    /// Whether the per-cluster drain source drains `cluster` at `t`.
    pub(crate) fn cluster_drained(&mut self, cluster: u16, t: SimTime) -> bool {
        self.episodes
            .episode_at(DRAIN_LABEL, cluster as u64, self.scenario.cluster_drain, t)
            .is_some()
    }

    /// The per-pair partition state of clusters `a`–`b` (unordered) at
    /// `t`. Non-WAN pairs never partition.
    pub(crate) fn pair_partition(
        &mut self,
        a: u16,
        b: u16,
        wan: bool,
        t: SimTime,
    ) -> PartitionState {
        let spec = self.scenario.wan_partition.filter(|_| wan && a != b);
        let key = ((a.min(b) as u64) << 16) | a.max(b) as u64;
        partition(
            self.episodes
                .episode_at(PARTITION_LABEL, key, spec.map(|s| s.episodes), t),
        )
    }

    /// The per-site surge multiplier of `service` in `cluster` at `t`.
    pub(crate) fn site_surge(&mut self, service: u16, cluster: u16, t: SimTime) -> Option<f64> {
        let spec = self.scenario.overload?;
        let key = ((service as u64) << 16) | cluster as u64;
        self.episodes
            .episode_at(OVERLOAD_LABEL, key, Some(spec.episodes), t)
            .map(|_| spec.util_factor)
    }

    /// Ordinal of the drain incident `cluster` is inside at `t`, if any.
    pub(crate) fn drain_incident(&mut self, cluster: u16, t: SimTime) -> Option<u64> {
        self.episodes.episode_at(
            INCIDENT_DRAIN_LABEL,
            cluster as u64,
            self.incidents.drain,
            t,
        )
    }

    /// Ordinal of the WAN cut between regions `lo < hi` active at `t`.
    pub(crate) fn cut_episode(&mut self, lo: u16, hi: u16, t: SimTime) -> Option<u64> {
        let key = ((lo as u64) << 16) | hi as u64;
        let spec = self.incidents.wan_cut.map(|s| s.episodes);
        self.episodes.episode_at(INCIDENT_CUT_LABEL, key, spec, t)
    }

    /// Ordinal of the overload front sweeping `region` at `t`, if any.
    pub(crate) fn front_episode(&mut self, region: u16, t: SimTime) -> Option<u64> {
        let spec = self.incidents.front.map(|s| s.episodes);
        self.episodes
            .episode_at(INCIDENT_FRONT_LABEL, region as u64, spec, t)
    }

    /// The region-pair cut state of clusters `a`–`b` at `t`. Non-WAN
    /// and same-region pairs never cut.
    pub(crate) fn cut_state(&mut self, a: u16, b: u16, wan: bool, t: SimTime) -> PartitionState {
        let (Some(&ra), Some(&rb)) = (
            self.region_of.get(a as usize),
            self.region_of.get(b as usize),
        ) else {
            return PartitionState::Connected;
        };
        if !wan || ra == rb {
            return PartitionState::Connected;
        }
        partition(self.cut_episode(ra.min(rb), ra.max(rb), t))
    }

    /// The incident surge on `cluster` at `t`: the larger of the
    /// regional front and the neighbour surge. The controllers read this
    /// and no per-entity source.
    pub(crate) fn incident_overload(&mut self, cluster: u16, t: SimTime) -> Option<f64> {
        let [front, neighbour] = self.incident_surges(cluster, t);
        front.into_iter().chain(neighbour).reduce(f64::max)
    }

    /// The regional front's and the neighbour surge's multipliers on
    /// `cluster` at `t`. The neighbour surge applies while any *other*
    /// cluster of the region drains (its displaced load lands here).
    fn incident_surges(&mut self, cluster: u16, t: SimTime) -> [Option<f64>; 2] {
        let Some(&region) = self.region_of.get(cluster as usize) else {
            return [None, None];
        };
        let spec = self.incidents;
        let front = spec
            .front
            .and_then(|f| self.front_episode(region, t).map(|_| f.util_factor));
        let Environment {
            members, episodes, ..
        } = self;
        let neighbour_draining = spec.drain.is_some()
            && members[region as usize].iter().any(|&peer| {
                peer != cluster
                    && episodes
                        .episode_at(INCIDENT_DRAIN_LABEL, peer as u64, spec.drain, t)
                        .is_some()
            });
        [front, neighbour_draining.then_some(spec.surge_factor)]
    }

    /// The autoscaler's capacity factor for `cluster` during the window
    /// containing `t` (1.0 when no autoscaler runs). Window `w`'s factor
    /// is a fold of the incident overload at boundaries `0..=w`; missing
    /// rows are evaluated in window order for every cluster at once, so
    /// the answer is identical in every shard regardless of query order.
    pub(crate) fn capacity_factor(&mut self, cluster: u16, t: SimTime) -> f64 {
        let Some(spec) = self.autoscaler else {
            return 1.0;
        };
        let w = window_of(t);
        let clusters = self.region_of.len();
        self.streak.resize(clusters, 0);
        while self.capacity.len() <= w {
            let at = boundary(self.capacity.len());
            let mut row = Vec::with_capacity(clusters);
            for c in 0..clusters {
                let overloaded = self.incident_overload(c as u16, at).is_some();
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

    /// Boundary-sampled incident activity over `[0, duration)`: one row
    /// per configured incident kind, sampled at every window boundary.
    /// Episode counts are lower bounds — episodes shorter than a window
    /// can fall between samples.
    ///
    /// Time-major: every entity is sampled at one boundary before any is
    /// sampled at the next, so the walk never looks back and stays inside
    /// the trajectories' retention window over any horizon.
    pub fn incident_summary(&mut self, duration: SimDuration) -> Vec<IncidentSummaryRow> {
        // Regions with members; the cut between two of them is keyed per
        // region pair, and the front per region.
        let regions: Vec<u16> = (0..self.members.len() as u16)
            .filter(|&r| !self.members[r as usize].is_empty())
            .collect();
        let pairs: Vec<(u16, u16)> = regions
            .iter()
            .enumerate()
            .flat_map(|(i, &ra)| regions[i + 1..].iter().map(move |&rb| (ra, rb)))
            .collect();
        let mut drains = vec![EpisodeTally::default(); self.region_of.len()];
        let mut cuts = vec![EpisodeTally::default(); pairs.len()];
        let mut fronts = vec![EpisodeTally::default(); regions.len()];
        for w in 0..=(duration.as_nanos() / WINDOW_NS) as usize {
            let t = boundary(w);
            for (c, tally) in drains.iter_mut().enumerate() {
                tally.see(self.drain_incident(c as u16, t));
            }
            for (&(ra, rb), tally) in pairs.iter().zip(&mut cuts) {
                tally.see(self.cut_episode(ra, rb, t));
            }
            for (&r, tally) in regions.iter().zip(&mut fronts) {
                tally.see(self.front_episode(r, t));
            }
        }
        [
            ("cluster-drain", self.incidents.drain.is_some(), drains),
            ("wan-cut", self.incidents.wan_cut.is_some(), cuts),
            ("overload-front", self.incidents.front.is_some(), fronts),
        ]
        .into_iter()
        .filter(|(_, configured, _)| *configured)
        .map(|(kind, _, tallies)| IncidentSummaryRow {
            kind,
            entities_struck: tallies.iter().filter(|t| t.episodes > 0).count() as u64,
            episodes: tallies.iter().map(|t| t.episodes).sum(),
        })
        .collect()
    }

    /// Autoscaler activity over `[0, duration)`: `(cluster-windows above
    /// baseline capacity, peak capacity factor in permille)`. Evaluates
    /// every cluster's timeline to the end of the run.
    pub fn autoscaler_activity(&mut self, duration: SimDuration) -> (u64, u64) {
        let end = SimTime::from_nanos(duration.as_nanos().saturating_sub(1));
        self.capacity_factor(0, end);
        let rows = &self.capacity[..self.capacity.len().min(window_of(end) + 1)];
        let scaled_windows = rows.iter().flatten().filter(|&&f| f > 1.0).count() as u64;
        let peak = rows.iter().flatten().copied().fold(1.0f64, f64::max);
        (scaled_windows, (peak * 1000.0).round() as u64)
    }

    /// Renders the controller timeline over `[0, duration)`: one line per
    /// window with the clusters holding added capacity and the degraded
    /// cluster pairs the balancer avoids. Windows with no controller
    /// activity are elided.
    pub fn render_timeline(&mut self, duration: SimDuration) -> String {
        use std::fmt::Write as _;
        let n_clusters = self.region_of.len() as u16;
        let windows = (duration.as_nanos() / WINDOW_NS) as usize;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "controller timeline ({} windows of {:.0} s):",
            windows,
            WINDOW_NS as f64 / 1e9
        );
        let mut active_windows = 0usize;
        for w in 0..windows {
            let at = boundary(w);
            let scaled: Vec<(u16, f64)> = (0..n_clusters)
                .map(|c| (c, self.capacity_factor(c, at)))
                .filter(|&(_, f)| f > 1.0)
                .collect();
            let mut degraded: Vec<(u16, u16)> = Vec::new();
            if self.shifts_load() {
                for a in 0..n_clusters {
                    for b in a + 1..n_clusters {
                        if self.avoids(a, b, true, at) {
                            degraded.push((a, b));
                        }
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

/// A topology of `sizes.len()` regions, region `r` holding `sizes[r]`
/// clusters in one datacenter, for the plane's unit tests.
#[cfg(test)]
pub(crate) fn regions_topology(sizes: &[usize]) -> Topology {
    use rpclens_netsim::geo::GeoPoint;
    use rpclens_netsim::topology::{Continent, RegionSpec};
    let specs: Vec<RegionSpec> = sizes
        .iter()
        .enumerate()
        .map(|(r, &clusters)| RegionSpec {
            name: "test",
            continent: Continent::Europe,
            location: GeoPoint::new(10.0 * r as f64, 20.0 * r as f64),
            datacenters: 1,
            clusters_per_dc: clusters,
        })
        .collect();
    Topology::build(&specs, 7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::OverloadSpec;
    use rpclens_simcore::renewal::RenewalParams;

    /// The one-rule precedence, spelled out source by source.
    fn one_rule(
        s: &Sources,
        capacity: Option<f64>,
        admission: Option<AdmissionSpec>,
        shed_wait: Option<SimDuration>,
    ) -> Conditions {
        use PartitionState::{Blackout, Brownout};
        let [(partition, partition_excess), (cut, cut_excess)] = s.paths;
        let [drained, drain_incident] = s.drains;
        // A blackout from any source, or a drain from any source, is
        // cluster level; otherwise a crashed machine is machine level.
        let unavailable = if partition == Blackout || cut == Blackout || drained || drain_incident {
            Some(Unavailable::Cluster)
        } else if s.crashed {
            Some(Unavailable::Machine)
        } else {
            None
        };
        // The larger brownout excess applies, even when unreachable.
        let mut brownout = SimDuration::ZERO;
        if partition == Brownout {
            brownout = partition_excess;
        }
        if cut == Brownout && cut_excess > brownout {
            brownout = cut_excess;
        }
        // The largest overload factor applies; the capacity divides it.
        let mut overload: Option<f64> = None;
        for f in s.surges.into_iter().flatten() {
            if overload.is_none_or(|g| f > g) {
                overload = Some(f);
            }
        }
        if let (Some(f), Some(capacity)) = (overload, capacity) {
            overload = if f / capacity > 1.0 {
                Some(f / capacity)
            } else {
                None
            };
        }
        // While overloaded, an admission queue replaces the ambient shed.
        Conditions {
            unavailable,
            brownout,
            overload,
            shed_wait: if overload.is_some() && admission.is_none() {
                shed_wait
            } else {
                None
            },
            admission: if overload.is_some() { admission } else { None },
        }
    }

    fn admission() -> AdmissionSpec {
        AdmissionSpec {
            shed_wait: SimDuration::from_millis(15),
            abandon_wait: SimDuration::from_millis(60),
            util_cap: 0.96,
        }
    }

    /// Every combination of source answers: both path sources in each
    /// state, both drains, the crash, and each surge on or off.
    fn all_sources() -> Vec<Sources> {
        let states = [
            PartitionState::Connected,
            PartitionState::Brownout,
            PartitionState::Blackout,
        ];
        let mut all = Vec::new();
        for partition in states {
            for cut in states {
                for drains in [[false, false], [false, true], [true, false], [true, true]] {
                    for crashed in [false, true] {
                        for mask in 0..8u8 {
                            let on = |bit: u8, f: f64| (mask & bit != 0).then_some(f);
                            all.push(Sources {
                                paths: [
                                    (partition, SimDuration::from_millis(28)),
                                    (cut, SimDuration::from_millis(35)),
                                ],
                                drains,
                                crashed,
                                surges: [on(1, 1.6), on(2, 2.0), on(4, 1.8)],
                            });
                        }
                    }
                }
            }
        }
        all
    }

    #[test]
    fn lookup_follows_the_one_rule_precedence_on_every_combination() {
        let mut cases = 0;
        for sources in all_sources() {
            for capacity in [None, Some(1.0), Some(1.75), Some(2.5)] {
                for admission in [None, Some(admission())] {
                    for shed in [None, Some(SimDuration::from_millis(30))] {
                        assert_eq!(
                            resolve(&sources, capacity, admission, shed),
                            one_rule(&sources, capacity, admission, shed),
                            "{sources:?} x {capacity:?} x {admission:?} x {shed:?}"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 9 * 4 * 2 * 8 * 16);
        // The case the single rule changed: a machine crash no longer
        // masks an incident drain. Both sources speak; cluster level wins.
        let crash = Sources {
            crashed: true,
            ..Sources::default()
        };
        let unavailable = |s: Sources| resolve(&s, None, None, None).unavailable;
        assert_eq!(unavailable(crash), Some(Unavailable::Machine));
        assert_eq!(
            unavailable(Sources {
                drains: [false, true],
                ..crash
            }),
            Some(Unavailable::Cluster)
        );
        assert_eq!(
            unavailable(Sources {
                paths: [
                    (PartitionState::Connected, SimDuration::ZERO),
                    (PartitionState::Blackout, SimDuration::ZERO)
                ],
                ..crash
            }),
            Some(Unavailable::Cluster)
        );
    }

    fn incident_spec() -> IncidentSpec {
        let episodes = |up, down| EpisodeSpec {
            eligible: 1.0,
            params: RenewalParams {
                up_mean: up,
                down_mean: down,
            },
        };
        IncidentSpec {
            drain: Some(episodes(
                SimDuration::from_hours(4),
                SimDuration::from_secs(2_400),
            )),
            surge_factor: 1.8,
            wan_cut: Some(PartitionSpec {
                episodes: episodes(SimDuration::from_hours(5), SimDuration::from_secs(1_800)),
                brownout_excess: SimDuration::from_millis(25),
            }),
            front: Some(OverloadSpec {
                episodes: episodes(SimDuration::from_hours(5), SimDuration::from_hours(2)),
                util_factor: 2.0,
                shed_wait: SimDuration::from_millis(15),
            }),
        }
    }

    /// Two regions of three clusters each: clusters 0–2 and 3–5.
    fn incidents() -> Environment {
        let scenario = FaultScenario {
            incidents: Some(incident_spec()),
            ..FaultScenario::none()
        };
        Environment::new(&scenario, 7, &regions_topology(&[3, 3]))
    }

    fn region(cluster: u16) -> u16 {
        cluster / 3
    }

    fn instants() -> Vec<SimTime> {
        (0..2_000u64)
            .map(|i| SimTime::from_nanos(i * 43_000_000_000))
            .collect()
    }

    #[test]
    fn empty_incident_spec_draws_nothing() {
        let none = IncidentSpec {
            drain: None,
            surge_factor: 1.0,
            wan_cut: None,
            front: None,
        };
        assert!(!none.strikes());
        let topo = regions_topology(&[3, 3]);
        let scenario = FaultScenario {
            incidents: Some(none),
            ..FaultScenario::none()
        };
        let mut env = Environment::new(&scenario, 7, &topo);
        for t in instants() {
            let c = env.conditions(&topo, ClusterId(0), ClusterId(4), ServiceId(1), 0, t);
            assert_eq!(c, Conditions::default());
        }
        assert!(env.incident_summary(SimDuration::from_hours(24)).is_empty());
        assert!(env.episodes.table.is_empty(), "an inactive plane drew");
    }

    #[test]
    fn drains_surge_same_region_neighbours() {
        let spec = incident_spec();
        let mut env = incidents();
        let mut surged_neighbour = false;
        for t in instants() {
            for c in 0..6u16 {
                if env.drain_incident(c, t).is_some() {
                    for peer in (0..6u16).filter(|&p| p != c && region(p) == region(c)) {
                        let f = env.incident_overload(peer, t);
                        assert!(
                            f.is_some_and(|f| f >= spec.surge_factor),
                            "neighbour {peer} of draining {c} not surged at {t}: {f:?}"
                        );
                        surged_neighbour = true;
                    }
                }
            }
        }
        assert!(surged_neighbour, "no drain incident observed at all");
    }

    #[test]
    fn wan_cuts_strike_every_pair_across_the_region_pair() {
        let mut env = incidents();
        let mut cut_seen = false;
        for t in instants() {
            // The region-pair key means every cluster pair spanning the
            // two regions reports the *same* state at the same instant.
            let states: Vec<PartitionState> = [(0u16, 3u16), (1, 4), (2, 5), (0, 5), (2, 3)]
                .iter()
                .map(|&(a, b)| env.cut_state(a, b, true, t))
                .collect();
            assert!(
                states.windows(2).all(|w| w[0] == w[1]),
                "pairs disagree at {t}: {states:?}"
            );
            cut_seen |= states[0] != PartitionState::Connected;
        }
        assert!(cut_seen, "no wan cut observed");
    }

    #[test]
    fn same_region_and_non_wan_pairs_never_cut() {
        let mut env = incidents();
        for t in instants() {
            assert_eq!(env.cut_state(0, 1, true, t), PartitionState::Connected);
            assert_eq!(env.cut_state(0, 3, false, t), PartitionState::Connected);
        }
    }

    #[test]
    fn fronts_sweep_whole_regions() {
        let front = incident_spec().front.unwrap().util_factor;
        let mut env = incidents();
        let mut front_seen = false;
        for t in instants() {
            for r in 0..2u16 {
                let factors: Vec<Option<f64>> = (0..6u16)
                    .filter(|&c| region(c) == r)
                    .map(|c| env.incident_overload(c, t))
                    .collect();
                // While the front is up, every member is at least at the
                // front's factor (a concurrent neighbour drain may push
                // an individual member higher, never lower).
                if env.front_episode(r, t).is_some() {
                    front_seen = true;
                    assert!(
                        factors.iter().all(|f| f.is_some_and(|f| f >= front)),
                        "region {r} at {t}: {factors:?}"
                    );
                }
            }
        }
        assert!(front_seen, "no overload front observed");
    }

    #[test]
    fn incident_answers_are_order_independent() {
        let mut forward = incidents();
        let mut backward = incidents();
        let instants = instants();
        let mut recorded = Vec::new();
        for &t in &instants {
            for c in 0..6u16 {
                recorded.push((
                    forward.drain_incident(c, t),
                    forward.cut_state(c, 5 - c, true, t),
                    forward.incident_overload(c, t),
                ));
            }
        }
        let mut idx = recorded.len();
        for &t in instants.iter().rev() {
            for c in (0..6u16).rev() {
                idx -= 1;
                let expect = recorded[idx];
                assert_eq!(
                    backward.incident_overload(c, t),
                    expect.2,
                    "overload at {t}"
                );
                assert_eq!(
                    backward.cut_state(5 - c, c, true, t),
                    expect.1,
                    "cut at {t} (reversed pair)"
                );
                assert_eq!(backward.drain_incident(c, t), expect.0, "drain at {t}");
            }
        }
    }
}

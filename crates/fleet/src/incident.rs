//! The correlated incident plane: shared cross-entity failure events.
//!
//! The per-entity fault plane (`crate::faults`) draws *independent*
//! episodes — one machine crashes, one cluster drains, one pair browns
//! out — which gives detectors narrow blast radii. Real incidents are
//! correlated: a cluster drain displaces its traffic onto placement
//! neighbours, one WAN cut severs every cluster pair spanning two
//! regions, and an overload front sweeps a whole region at once. The
//! [`IncidentPlane`] draws those *shared* incidents from seeded episode
//! processes keyed by the incident's scope (cluster, region pair, or
//! region) and materialises them as deterministic per-entity answers.
//! `crate::conditions` composes them with [`crate::faults::FaultPlane`]
//! answers and documents the precedence rules.
//!
//! The same determinism contract as the fault plane holds: eligibility
//! gates and trajectories derive from `(master seed, scope key)` via
//! labelled streams, never consume caller draws, and are independent of
//! query order — so every shard reconstructs identical incident
//! timelines and `--faults none` runs draw nothing at all.

use crate::faults::{EpisodeSpec, Episodes, OverloadSpec, PartitionSpec, PartitionState};
use rpclens_simcore::time::{SimDuration, SimTime};

/// Generator domains for the incident plane, disjoint from the fault
/// plane's `0xFA17_xxxx` family (and every other consumer of the master
/// seed).
const INCIDENT_DRAIN_LABEL: u64 = 0x1AC1_0001;
const INCIDENT_CUT_LABEL: u64 = 0x1AC1_0002;
const INCIDENT_FRONT_LABEL: u64 = 0x1AC1_0003;

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

/// The per-shard materialisation of an [`IncidentSpec`].
///
/// Built from the master seed plus the topology's cluster→region map;
/// every query is a pure function of `(seed, scope key, now)`, so two
/// planes over the same spec answer identically regardless of query
/// order — the property `plane_answers_are_independent_of_query_order`
/// pins for the fault plane and `incident_answers_are_order_independent`
/// pins here.
#[derive(Debug)]
pub struct IncidentPlane {
    spec: IncidentSpec,
    /// Region of each cluster, indexed by cluster id.
    region_of: Vec<u16>,
    /// Clusters of each region (ascending), indexed by region id.
    members: Vec<Vec<u16>>,
    episodes: Episodes,
}

impl IncidentPlane {
    /// Materialises a spec against the master seed and the cluster→region
    /// map (`region_of[c]` is the region of cluster `c`). Returns `None`
    /// when no incident source is active, so the driver's hot path gates
    /// on plane presence alone.
    pub fn new(spec: &IncidentSpec, seed: u64, region_of: Vec<u16>) -> Option<Self> {
        spec.strikes().then(|| {
            let regions = region_of
                .iter()
                .copied()
                .max()
                .map_or(0, |r| r as usize + 1);
            let mut members = vec![Vec::new(); regions];
            for (cluster, &region) in region_of.iter().enumerate() {
                members[region as usize].push(cluster as u16);
            }
            IncidentPlane {
                spec: *spec,
                region_of,
                members,
                episodes: Episodes::new(seed),
            }
        })
    }

    /// Number of clusters in the region map.
    pub fn num_clusters(&self) -> usize {
        self.region_of.len()
    }

    /// Ordinal of the drain incident `cluster` is inside at `now`, if any.
    pub(crate) fn drain_episode(&mut self, cluster: u16, now: SimTime) -> Option<u64> {
        let spec = self.spec.drain?;
        self.episodes
            .episode_at(INCIDENT_DRAIN_LABEL, cluster as u64, &spec, now)
    }

    /// Ordinal of the WAN cut between regions `lo < hi` active at `now`.
    pub(crate) fn cut_episode(&mut self, lo: u16, hi: u16, now: SimTime) -> Option<u64> {
        let spec = self.spec.wan_cut?;
        let key = ((lo as u64) << 16) | hi as u64;
        self.episodes
            .episode_at(INCIDENT_CUT_LABEL, key, &spec.episodes, now)
    }

    /// Ordinal of the overload front sweeping `region` at `now`, if any.
    pub(crate) fn front_episode(&mut self, region: u16, now: SimTime) -> Option<u64> {
        let spec = self.spec.front?;
        self.episodes
            .episode_at(INCIDENT_FRONT_LABEL, region as u64, &spec.episodes, now)
    }

    /// Whether `cluster` is inside a drain incident at `now`.
    pub fn cluster_drained(&mut self, cluster: u16, now: SimTime) -> bool {
        self.drain_episode(cluster, now).is_some()
    }

    /// Connectivity of the cluster pair `a`–`b` at `now` under region-pair
    /// WAN cuts. `wan` is the caller-computed path classification;
    /// non-WAN and same-region pairs never cut. Episodes alternate
    /// blackout/brownout on their ordinal.
    pub fn partition_state(&mut self, a: u16, b: u16, wan: bool, now: SimTime) -> PartitionState {
        let (Some(&ra), Some(&rb)) = (
            self.region_of.get(a as usize),
            self.region_of.get(b as usize),
        ) else {
            return PartitionState::Connected;
        };
        if !wan || ra == rb {
            return PartitionState::Connected;
        }
        PartitionState::from_episode(self.cut_episode(ra.min(rb), ra.max(rb), now))
    }

    /// Excess one-way latency a region-pair brownout adds per crossing.
    pub fn brownout_excess(&self) -> SimDuration {
        self.spec
            .wan_cut
            .map_or(SimDuration::ZERO, |s| s.brownout_excess)
    }

    /// The utilization surge multiplier on `cluster` at `now`, or `None`
    /// outside any incident: the strongest of the regional overload front
    /// and the neighbour surge from a same-region cluster drain (sources
    /// do not stack — see the precedence rules in `crate::conditions`).
    pub fn overload_factor(&mut self, cluster: u16, now: SimTime) -> Option<f64> {
        let region = *self.region_of.get(cluster as usize)?;
        let mut factor = None;
        if let Some(front) = self.spec.front {
            if self.front_episode(region, now).is_some() {
                factor = Some(front.util_factor);
            }
        }
        if self.spec.drain.is_some() && self.neighbour_draining(region, cluster, now) {
            let surge = self.spec.surge_factor;
            factor = Some(factor.map_or(surge, |f: f64| f.max(surge)));
        }
        factor
    }

    /// Whether any *other* cluster in `cluster`'s region is draining at
    /// `now` (its displaced load is what surges this cluster).
    fn neighbour_draining(&mut self, region: u16, cluster: u16, now: SimTime) -> bool {
        // The member list is tiny (clusters per region), cloned to avoid
        // aliasing the lazily-built process map during the scan.
        let peers = self.members[region as usize].clone();
        peers
            .into_iter()
            .filter(|&peer| peer != cluster)
            .any(|peer| self.cluster_drained(peer, now))
    }

    /// Boundary-sampled incident activity over `[0, duration)`: one row
    /// per configured incident kind, sampled at every `window` boundary.
    /// Episode counts are lower bounds — episodes shorter than a window
    /// can fall between samples.
    ///
    /// Time-major: every entity is sampled at one boundary before any is
    /// sampled at the next, so the walk never looks back and stays inside
    /// the trajectories' retention window over any horizon.
    pub fn summary(
        &mut self,
        duration: SimDuration,
        window: SimDuration,
    ) -> Vec<IncidentSummaryRow> {
        let n_clusters = self.region_of.len() as u16;
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
        let mut drains = vec![EpisodeTally::default(); n_clusters as usize];
        let mut cuts = vec![EpisodeTally::default(); pairs.len()];
        let mut fronts = vec![EpisodeTally::default(); regions.len()];
        let step = window.as_nanos().max(1);
        for w in 0..=duration.as_nanos() / step {
            let t = SimTime::from_nanos(w * window.as_nanos());
            for (c, tally) in drains.iter_mut().enumerate() {
                tally.see(self.drain_episode(c as u16, t));
            }
            for (&(ra, rb), tally) in pairs.iter().zip(&mut cuts) {
                tally.see(self.cut_episode(ra, rb, t));
            }
            for (&r, tally) in regions.iter().zip(&mut fronts) {
                tally.see(self.front_episode(r, t));
            }
        }
        [
            ("cluster-drain", self.spec.drain.is_some(), drains),
            ("wan-cut", self.spec.wan_cut.is_some(), cuts),
            ("overload-front", self.spec.front.is_some(), fronts),
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

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::renewal::RenewalParams;

    /// Two regions of three clusters each.
    fn region_map() -> Vec<u16> {
        vec![0, 0, 0, 1, 1, 1]
    }

    fn spec() -> IncidentSpec {
        IncidentSpec {
            drain: Some(EpisodeSpec {
                eligible: 1.0,
                params: RenewalParams {
                    up_mean: SimDuration::from_hours(4),
                    down_mean: SimDuration::from_secs(2_400),
                },
            }),
            surge_factor: 1.8,
            wan_cut: Some(PartitionSpec {
                episodes: EpisodeSpec {
                    eligible: 1.0,
                    params: RenewalParams {
                        up_mean: SimDuration::from_hours(5),
                        down_mean: SimDuration::from_secs(1_800),
                    },
                },
                brownout_excess: SimDuration::from_millis(25),
            }),
            front: Some(OverloadSpec {
                episodes: EpisodeSpec {
                    eligible: 1.0,
                    params: RenewalParams {
                        up_mean: SimDuration::from_hours(5),
                        down_mean: SimDuration::from_hours(2),
                    },
                },
                util_factor: 2.0,
                shed_wait: SimDuration::from_millis(15),
            }),
        }
    }

    fn instants() -> Vec<SimTime> {
        (0..2_000u64)
            .map(|i| SimTime::from_nanos(i * 43_000_000_000))
            .collect()
    }

    #[test]
    fn empty_spec_yields_no_plane() {
        let none = IncidentSpec {
            drain: None,
            surge_factor: 1.0,
            wan_cut: None,
            front: None,
        };
        assert!(!none.strikes());
        assert!(IncidentPlane::new(&none, 7, region_map()).is_none());
    }

    #[test]
    fn drains_surge_same_region_neighbours() {
        let spec = spec();
        let mut plane = IncidentPlane::new(&spec, 7, region_map()).unwrap();
        let mut surged_neighbour = false;
        for t in instants() {
            for c in 0..6u16 {
                if plane.cluster_drained(c, t) {
                    let region = region_map()[c as usize];
                    for peer in 0..6u16 {
                        if peer == c || region_map()[peer as usize] != region {
                            continue;
                        }
                        let f = plane.overload_factor(peer, t);
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
        let mut plane = IncidentPlane::new(&spec(), 7, region_map()).unwrap();
        let mut cut_seen = false;
        for t in instants() {
            // The region-pair key means every cluster pair spanning the
            // two regions reports the *same* state at the same instant.
            let states: Vec<PartitionState> = [(0u16, 3u16), (1, 4), (2, 5), (0, 5), (2, 3)]
                .iter()
                .map(|&(a, b)| plane.partition_state(a, b, true, t))
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
        let mut plane = IncidentPlane::new(&spec(), 7, region_map()).unwrap();
        for t in instants() {
            assert_eq!(
                plane.partition_state(0, 1, true, t),
                PartitionState::Connected
            );
            assert_eq!(
                plane.partition_state(0, 3, false, t),
                PartitionState::Connected
            );
        }
    }

    #[test]
    fn fronts_sweep_whole_regions() {
        let spec = spec();
        let mut plane = IncidentPlane::new(&spec, 7, region_map()).unwrap();
        let mut front_seen = false;
        for t in instants() {
            for region in 0..2u16 {
                let members: Vec<u16> = region_map()
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| r == region)
                    .map(|(c, _)| c as u16)
                    .collect();
                let factors: Vec<Option<f64>> = members
                    .iter()
                    .map(|&c| plane.overload_factor(c, t))
                    .collect();
                // When the front is up, every member is at least at the
                // front's factor (a concurrent neighbour drain may push
                // an individual member higher, never lower).
                let front_up = factors.iter().any(|f| {
                    f.is_some_and(|f| (f - spec.front.unwrap().util_factor).abs() < 1e-12)
                });
                if front_up {
                    front_seen = true;
                }
            }
        }
        assert!(front_seen, "no overload front observed");
    }

    #[test]
    fn incident_answers_are_order_independent() {
        let spec = spec();
        let mut forward = IncidentPlane::new(&spec, 7, region_map()).unwrap();
        let mut backward = IncidentPlane::new(&spec, 7, region_map()).unwrap();
        let instants = instants();
        let mut recorded = Vec::new();
        for &t in &instants {
            for c in 0..6u16 {
                recorded.push((
                    forward.cluster_drained(c, t),
                    forward.partition_state(c, 5 - c, true, t),
                    forward.overload_factor(c, t),
                ));
            }
        }
        let mut idx = recorded.len();
        for &t in instants.iter().rev() {
            for c in (0..6u16).rev() {
                idx -= 1;
                let expect = recorded[idx];
                assert_eq!(backward.overload_factor(c, t), expect.2, "overload at {t}");
                assert_eq!(
                    backward.partition_state(5 - c, c, true, t),
                    expect.1,
                    "cut at {t} (reversed pair)"
                );
                assert_eq!(backward.cluster_drained(c, t), expect.0, "drain at {t}");
            }
        }
    }
}

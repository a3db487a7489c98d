//! The network facade: one-way message latency between clusters.
//!
//! A message's one-way latency is the sum of:
//!
//! 1. **Propagation** — speed-of-light fiber delay from geometry, plus a
//!    fixed per-hop cost for the switching tiers the path crosses.
//! 2. **Transmission** — `bytes / bandwidth` for the narrowest link class.
//! 3. **Queueing** — sampled from the path's [`crate::congestion`] process.
//!
//! The paper validates this decomposition in §3.3.5: median cross-cluster
//! latency closely tracks wire latency, while tails come from congestion.

use crate::congestion::{CongestionParams, CongestionProcess, CongestionState};
use crate::topology::{ClusterId, PathClass, Topology};
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::{SimDuration, SimTime};

/// Base one-way latency inside a cluster (ToR + fabric hops).
const SAME_CLUSTER_BASE: SimDuration = SimDuration::from_micros(12);
/// Base one-way latency between clusters in one datacenter.
const SAME_DC_BASE: SimDuration = SimDuration::from_micros(90);
/// Additional fixed cost for leaving a datacenter (metro/WAN edge).
const WAN_EDGE_COST: SimDuration = SimDuration::from_micros(300);
/// Per-flow bandwidth within a cluster, bytes/sec (≈ 100 Gbps fabric).
const CLUSTER_BANDWIDTH: f64 = 12.5e9;
/// Per-flow bandwidth across the WAN, bytes/sec (≈ 10 Gbps per flow).
const WAN_BANDWIDTH: f64 = 1.25e9;

/// The fleet network: topology plus per-path congestion state.
///
/// Wire latency is a pure function of the topology, so the
/// `(fixed + propagation, bandwidth)` pair for every cluster pair is
/// precomputed at construction — the per-message cost is one table read
/// and one division instead of a path classification and a great-circle
/// propagation computation. Congestion processes stay lazily
/// materialised, in a dense per-pair table rather than a `HashMap`, so
/// the two wire traversals of every simulated span cost no hashing.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    /// Whether paths carry congestion state (off for ablations: pure
    /// wire + transmission latency).
    congestion_enabled: bool,
    /// Precomputed `(fixed + propagation, per-flow bandwidth)` for each
    /// `(src, dst)` pair, indexed `src * num_clusters + dst`.
    wire: Vec<(SimDuration, f64)>,
    /// Lazily created congestion state per *unordered* cluster pair,
    /// indexed `min * num_clusters + max`.
    paths: Vec<Option<CongestionProcess>>,
    active_paths: usize,
    num_clusters: usize,
    path_rng: Prng,
}

impl Network {
    /// Creates a network over `topo` with per-path congestion processes
    /// seeded from `seed`, or with none when `congestion_enabled` is
    /// false (every message then takes its base latency).
    pub fn new(topo: Topology, congestion_enabled: bool, seed: u64) -> Self {
        let num_clusters = topo.num_clusters();
        let ids = topo.cluster_ids();
        // The dense tables index by raw cluster id.
        debug_assert!(ids.iter().enumerate().all(|(i, c)| c.0 as usize == i));
        let mut wire = Vec::with_capacity(num_clusters * num_clusters);
        for &src in &ids {
            for &dst in &ids {
                let class = topo.path_class(src, dst);
                let (fixed, bandwidth) = match class {
                    PathClass::SameCluster => (SAME_CLUSTER_BASE, CLUSTER_BANDWIDTH),
                    PathClass::SameDatacenter => (SAME_DC_BASE, CLUSTER_BANDWIDTH),
                    _ => (SAME_DC_BASE + WAN_EDGE_COST, WAN_BANDWIDTH),
                };
                let propagation = match class {
                    PathClass::SameCluster | PathClass::SameDatacenter => SimDuration::ZERO,
                    _ => topo
                        .cluster(src)
                        .location
                        .propagation_delay(&topo.cluster(dst).location),
                };
                wire.push((fixed + propagation, bandwidth));
            }
        }
        Network {
            topo,
            congestion_enabled,
            wire,
            paths: (0..num_clusters * num_clusters).map(|_| None).collect(),
            active_paths: 0,
            num_clusters,
            path_rng: Prng::seed_from(seed).stream(0x4E45_5457),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The deterministic wire-plus-transmission latency for a message of
    /// `bytes` between two clusters — no congestion, no randomness.
    ///
    /// This is what a load balancer can estimate ahead of time, and what
    /// the paper cross-validates cross-cluster medians against.
    pub fn base_latency(&self, src: ClusterId, dst: ClusterId, bytes: u64) -> SimDuration {
        let (fixed_plus_propagation, bandwidth) =
            self.wire[src.0 as usize * self.num_clusters + dst.0 as usize];
        let transmission = SimDuration::from_secs_f64(bytes as f64 / bandwidth);
        fixed_plus_propagation + transmission
    }

    /// An RTT estimate for load-balancing decisions (twice the zero-byte
    /// base latency).
    pub fn rtt_estimate(&self, a: ClusterId, b: ClusterId) -> SimDuration {
        self.base_latency(a, b, 0).mul_f64(2.0)
    }

    /// Samples the full one-way latency of a message sent at `now`,
    /// including congestion queueing, and reports whether the path was
    /// inside a congestion episode at send time — the signal the
    /// observability plane counts as congested-wire exposure.
    ///
    /// The congestion *trajectory* (when each path is calm vs congested)
    /// evolves from the path's own seed-derived stream, so it is identical
    /// across shards; the per-message jitter is drawn from `rng`, the
    /// caller's stream. Together these make the sampled latency a pure
    /// function of `(network seed, src, dst, bytes, now, caller rng)`.
    /// With congestion off it is the base latency and `rng` is untouched.
    pub fn one_way_latency(
        &mut self,
        src: ClusterId,
        dst: ClusterId,
        bytes: u64,
        now: SimTime,
        rng: &mut Prng,
    ) -> (SimDuration, bool) {
        let base = self.base_latency(src, dst, bytes);
        if !self.congestion_enabled {
            return (base, false);
        }
        let key = ordered(src, dst);
        let slot = &mut self.paths[key.0 .0 as usize * self.num_clusters + key.1 .0 as usize];
        let process = match slot {
            Some(process) => process,
            None => {
                // The trajectory derives from the path's own label, not
                // from call order, so lazy creation stays deterministic.
                let params = match self.topo.path_class(src, dst) {
                    PathClass::SameCluster | PathClass::SameDatacenter => {
                        CongestionParams::fabric()
                    }
                    _ => CongestionParams::wan(),
                };
                self.active_paths += 1;
                slot.insert(CongestionProcess::new(
                    params,
                    self.path_rng.stream(path_label(key)),
                ))
            }
        };
        let (queueing, state) = process.queueing_delay(now, rng);
        (base + queueing, state == CongestionState::Congested)
    }

    /// The path class between two clusters (delegates to the topology).
    pub fn path_class(&self, a: ClusterId, b: ClusterId) -> PathClass {
        self.topo.path_class(a, b)
    }

    /// Number of paths with materialised congestion state.
    pub fn active_paths(&self) -> usize {
        self.active_paths
    }
}

fn ordered(a: ClusterId, b: ClusterId) -> (ClusterId, ClusterId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

fn path_label(key: (ClusterId, ClusterId)) -> u64 {
    ((key.0 .0 as u64) << 16) | key.1 .0 as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn network(seed: u64) -> Network {
        Network::new(Topology::default_world(seed), true, seed)
    }

    /// Finds one cluster pair of each requested class.
    fn find_pair(net: &Network, class: PathClass) -> (ClusterId, ClusterId) {
        let ids = net.topology().cluster_ids();
        for &a in &ids {
            for &b in &ids {
                if net.path_class(a, b) == class {
                    return (a, b);
                }
            }
        }
        panic!("no pair with class {class:?}");
    }

    #[test]
    fn base_latency_orders_by_distance_class() {
        let net = network(1);
        let (a1, b1) = find_pair(&net, PathClass::SameCluster);
        let (a2, b2) = find_pair(&net, PathClass::SameDatacenter);
        let (a3, b3) = find_pair(&net, PathClass::SameRegion);
        let (a4, b4) = find_pair(&net, PathClass::InterContinent);
        let l1 = net.base_latency(a1, b1, 1024);
        let l2 = net.base_latency(a2, b2, 1024);
        let l3 = net.base_latency(a3, b3, 1024);
        let l4 = net.base_latency(a4, b4, 1024);
        assert!(l1 < l2, "{l1} !< {l2}");
        assert!(l2 < l3, "{l2} !< {l3}");
        assert!(l3 < l4, "{l3} !< {l4}");
    }

    #[test]
    fn intercontinental_rtt_lands_near_paper_scale() {
        // The paper reports ~200 ms as the longest WAN RTT; our farthest
        // pair should produce triple-digit-millisecond RTTs.
        let net = network(2);
        let ids = net.topology().cluster_ids();
        let mut max_rtt = SimDuration::ZERO;
        for &a in &ids {
            for &b in &ids {
                max_rtt = max_rtt.max(net.rtt_estimate(a, b));
            }
        }
        let ms = max_rtt.as_millis_f64();
        assert!((100.0..350.0).contains(&ms), "max rtt {ms} ms");
    }

    #[test]
    fn transmission_grows_with_size() {
        let net = network(3);
        let (a, b) = find_pair(&net, PathClass::SameCluster);
        let small = net.base_latency(a, b, 64);
        let large = net.base_latency(a, b, 16 * 1024 * 1024);
        assert!(large.as_nanos() > small.as_nanos() + 1_000_000);
    }

    #[test]
    fn one_way_latency_is_at_least_base() {
        let mut net = network(9);
        let mut rng = Prng::seed_from(10);
        let ids = net.topology().cluster_ids();
        let mut saw_congested = false;
        for i in 0..5000usize {
            let a = ids[i % ids.len()];
            let b = ids[(i * 11 + 5) % ids.len()];
            let base = net.base_latency(a, b, 256);
            let t = SimTime::from_nanos(i as u64 * 2_000_000);
            let (got, congested) = net.one_way_latency(a, b, 256, t, &mut rng);
            assert!(got >= base, "{got} < {base}");
            saw_congested |= congested;
        }
        assert!(net.active_paths() > 0);
        assert!(saw_congested, "expected at least one congestion episode");
    }

    #[test]
    fn congestion_off_is_base_latency_and_draws_nothing() {
        let mut net = Network::new(Topology::default_world(11), false, 11);
        let mut rng = Prng::seed_from(12);
        let untouched = rng.clone();
        let ids = net.topology().cluster_ids();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids {
                let t = SimTime::from_nanos(i as u64 * 60_000_000_000);
                let base = net.base_latency(a, b, 4096);
                assert_eq!(net.one_way_latency(a, b, 4096, t, &mut rng), (base, false));
            }
        }
        assert_eq!(net.active_paths(), 0);
        assert_eq!(rng.next_u64(), untouched.clone().next_u64());
    }

    #[test]
    fn congestion_state_is_shared_across_directions() {
        let mut net = network(5);
        let (a, b) = find_pair(&net, PathClass::SameRegion);
        let mut rng = Prng::seed_from(6);
        net.one_way_latency(a, b, 64, SimTime::ZERO, &mut rng);
        net.one_way_latency(b, a, 64, SimTime::ZERO, &mut rng);
        // Both directions share one path entry.
        assert_eq!(net.active_paths(), 1);
    }

    #[test]
    fn median_crosscluster_latency_is_wire_dominated() {
        // Cross-validation from §3.3.5: the median sampled latency should
        // sit close to the deterministic wire latency.
        let mut net = network(7);
        let (a, b) = find_pair(&net, PathClass::InterContinent);
        let base = net.base_latency(a, b, 1024).as_secs_f64();
        let mut rng = Prng::seed_from(8);
        let mut samples: Vec<f64> = (0..20_001u64)
            .map(|i| {
                net.one_way_latency(a, b, 1024, SimTime::from_nanos(i * 5_000_000), &mut rng)
                    .0
                    .as_secs_f64()
            })
            .collect();
        samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let median = samples[samples.len() / 2];
        assert!(
            (median - base) / base < 0.05,
            "median {median} too far above wire {base}"
        );
    }
}

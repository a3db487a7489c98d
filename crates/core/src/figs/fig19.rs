//! Fig. 19: Spanner cross-cluster latency breakdown by client distance.
//!
//! The paper issues reads to Spanner servers from clients in ~140
//! clusters and shows median latency growing with distance: same
//! datacenter ≪ different datacenter in the same country ≪ different
//! continents (~hundreds of ms), with the median closely matching wire
//! latency — congestion is a tail phenomenon, not a median one.
//!
//! This figure is a *focused probe*: the analysis replays Spanner reads
//! from every cluster in the topology against the nearest Spanner
//! deployment, reusing the run's network and cost models, so every
//! distance class is populated regardless of how much organic traffic
//! crossed continents.

use crate::check::ExpectationSet;
use crate::render::{fmt_secs, TextTable};
use rpclens_fleet::driver::{FleetRun, Mechanism};
use rpclens_netsim::latency::Network;
use rpclens_netsim::topology::{ClusterId, PathClass};
use rpclens_rpcstack::cost::{self, MessageClass};
use rpclens_simcore::prelude::*;
use rpclens_simcore::stats::{percentile, sorted_finite};

/// One client cluster's view of Spanner.
#[derive(Debug)]
pub struct ClientRow {
    /// The client cluster.
    pub client: ClusterId,
    /// The chosen (nearest) Spanner cluster.
    pub server: ClusterId,
    /// Distance class of the path.
    pub class: PathClass,
    /// Median completion time, seconds.
    pub median: f64,
    /// Median network-wire seconds (both directions).
    pub median_network: f64,
    /// Deterministic wire latency (RTT) for comparison, seconds.
    pub wire_rtt: f64,
}

/// The computed figure.
#[derive(Debug)]
pub struct Fig19 {
    /// One row per client cluster, sorted by distance class then median.
    pub rows: Vec<ClientRow>,
}

/// Computes the figure by probing from every cluster against the
/// data-home cluster of that client's working set.
pub fn compute(run: &FleetRun) -> Fig19 {
    let spanner = run
        .catalog
        .service_by_name("Spanner")
        .expect("Spanner exists");
    let entry = run
        .catalog
        .table1()
        .iter()
        .find(|e| e.server == "Spanner")
        .expect("Spanner is in Table 1");
    let method = run.catalog.method(entry.method).clone();
    let class_spec = MessageClass::structured();
    let mut rng = Prng::seed_from(run.config.scale.seed ^ 0x19);
    let mut rows = Vec::new();
    for client in run.topology.cluster_ids() {
        // A fresh probe network per client keeps every path's congestion
        // queries monotone in time. Two clients can land on the same
        // unordered cluster pair (client A reading from B's home, client
        // B from A's), and a shared network would re-query that path at
        // t=0 after the first client walked it 20 simulated hours ahead —
        // past the trajectory's retention window. Congestion trajectories
        // are pure functions of (seed, path label), so rebuilding the
        // network changes no sampled value.
        let mut network = Network::new(
            run.topology.clone(),
            run.config.runs(Mechanism::Congestion),
            run.config.scale.seed ^ 0xF19,
        );
        // The row the paper plots: the client reads a specific shard, and
        // the shard's home cluster is wherever the data lives — not the
        // nearest replica. A deterministic hash assigns each client's
        // working set a home, so distance classes span same-cluster to
        // intercontinental exactly as Fig. 19's x-axis does.
        let server =
            spanner.clusters[(client.0 as usize).wrapping_mul(7919) % spanner.clusters.len()];
        let site = run.site(spanner.id, server).expect("site exists");
        let mut totals = Vec::new();
        let mut networks = Vec::new();
        for i in 0..300u64 {
            let at = SimTime::ZERO + SimDuration::from_secs(i * 240);
            let req = method.sample_request_bytes(&mut rng);
            let resp = method.sample_response_bytes(&mut rng);
            let req_net = network
                .one_way_latency(client, server, cost::wire_bytes(req, true), at, &mut rng)
                .0
                .as_secs_f64();
            let resp_net = network
                .one_way_latency(server, client, cost::wire_bytes(resp, true), at, &mut rng)
                .0
                .as_secs_f64();
            let proc = cost::stack_latency(req, class_spec, 1.0).as_secs_f64()
                + cost::stack_latency(resp, class_spec, 1.0).as_secs_f64();
            let util = site.machine_util(0, at);
            let queue = site.queue.sample_wait(util, &mut rng).as_secs_f64();
            let (compute, _) = method.sample_compute(&mut rng);
            totals.push(req_net + resp_net + proc + queue + compute.as_secs_f64());
            networks.push(req_net + resp_net);
        }
        let st = sorted_finite(totals);
        let sn = sorted_finite(networks);
        rows.push(ClientRow {
            client,
            server,
            class: run.topology.path_class(client, server),
            median: percentile(&st, 0.5).expect("non-empty"),
            median_network: percentile(&sn, 0.5).expect("non-empty"),
            wire_rtt: network.base_latency(client, server, 1024).as_secs_f64() * 2.0,
        });
    }
    rows.sort_by(|a, b| {
        a.class
            .cmp(&b.class)
            .then(a.median.partial_cmp(&b.median).expect("finite"))
    });
    Fig19 { rows }
}

/// Renders the figure.
pub fn render(fig: &Fig19) -> String {
    let mut t = TextTable::new(&["client", "class", "median", "median net", "wire RTT"]);
    for r in &fig.rows {
        t.row(vec![
            r.client.0.to_string(),
            r.class.label().to_string(),
            fmt_secs(r.median),
            fmt_secs(r.median_network),
            fmt_secs(r.wire_rtt),
        ]);
    }
    format!(
        "Fig. 19 — Spanner cross-cluster latency by client cluster\n{}",
        t.render()
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig19) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    let median_of = |class: PathClass| -> f64 {
        let v: Vec<f64> = fig
            .rows
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.median)
            .collect();
        if v.is_empty() {
            return f64::NAN;
        }
        v.iter().sum::<f64>() / v.len() as f64
    };
    let same = median_of(PathClass::SameCluster);
    let inter = median_of(PathClass::InterContinent);
    if inter.is_finite() && same.is_finite() {
        s.add(
            "fig19.distance_dominates",
            "cross-continent medians dwarf same-cluster medians",
            inter / same,
            5.0,
            f64::INFINITY,
        );
        s.add(
            "fig19.intercontinental_scale",
            "cross-continent latency reaches the 100ms+ regime",
            inter,
            0.05,
            0.6,
        );
    }
    // Median network closely matches deterministic wire latency for
    // distant clients (§3.3.5's cross-validation).
    let mut checked = 0;
    let mut close = 0;
    for r in &fig.rows {
        if r.class == PathClass::InterContinent || r.class == PathClass::SameContinent {
            checked += 1;
            if (r.median_network - r.wire_rtt).abs() / r.wire_rtt < 0.25 {
                close += 1;
            }
        }
    }
    if checked > 0 {
        s.add(
            "fig19.wire_dominated",
            "median network latency closely matches wire latency (congestion is tail-only)",
            close as f64 / checked as f64,
            0.7,
            1.0,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testrun::shared;

    #[test]
    fn checks_pass_on_test_run() {
        let fig = compute(shared());
        let c = checks(&fig);
        assert!(c.all_passed(), "{c}");
    }

    #[test]
    fn every_cluster_probes() {
        let run = shared();
        let fig = compute(run);
        assert_eq!(fig.rows.len(), run.topology.num_clusters());
        // Multiple distance classes are populated.
        let classes: std::collections::BTreeSet<_> = fig.rows.iter().map(|r| r.class).collect();
        assert!(classes.len() >= 3, "{classes:?}");
    }

    #[test]
    fn rows_sorted_by_class_then_median() {
        let fig = compute(shared());
        assert!(fig.rows.windows(2).all(|w| {
            w[0].class < w[1].class || (w[0].class == w[1].class && w[0].median <= w[1].median)
        }));
    }

    #[test]
    fn deterministic() {
        let a = compute(shared());
        let b = compute(shared());
        for (x, y) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(x.client, y.client);
            assert_eq!(x.median, y.median);
        }
    }
}

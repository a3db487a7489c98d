//! Workload generation: diurnal root-RPC arrivals and entry selection.
//!
//! Root RPCs arrive open-loop with a diurnal intensity (the fleet is
//! busier in the working day, Fig. 18), and each root picks an entry
//! method from the catalog's root weights and a client cluster from the
//! method's service deployment plus external-traffic spread.

use crate::catalog::Catalog;
use rpclens_netsim::topology::{ClusterId, Topology};
use rpclens_simcore::alias::AliasTable;
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::{SimDuration, SimTime};
use rpclens_trace::span::MethodId;

/// A generated root arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootArrival {
    /// When the root RPC is issued.
    pub at: SimTime,
    /// The entry method.
    pub method: MethodId,
    /// The cluster the client runs in.
    pub client_cluster: ClusterId,
}

/// The fleet's root-RPC mix: every method with a positive root weight,
/// in catalog order, drawn by weight. The workload generator picks its
/// entry methods from it and the wire harness (`servable`) its root
/// calls, so the two draw the same sequence from the same [`Prng`].
#[derive(Debug, Clone)]
pub struct RootMix {
    methods: Vec<MethodId>,
    table: AliasTable,
}

impl RootMix {
    /// The catalog's root mix.
    ///
    /// # Panics
    ///
    /// Panics if the catalog has no method with a positive root weight.
    pub fn new(catalog: &Catalog) -> RootMix {
        let (methods, weights): (Vec<MethodId>, Vec<f64>) = catalog
            .methods()
            .iter()
            .filter(|m| m.root_weight > 0.0)
            .map(|m| (m.id, m.root_weight))
            .unzip();
        assert!(!methods.is_empty(), "catalog has no entry methods");
        let table = AliasTable::new(&weights).expect("positive weights");
        RootMix { methods, table }
    }

    /// The root methods, in catalog order.
    pub fn methods(&self) -> &[MethodId] {
        &self.methods
    }

    /// Draws one root by weight, as an index into [`RootMix::methods`].
    pub fn sample(&self, rng: &mut Prng) -> usize {
        self.table.sample(rng)
    }
}

/// The workload generator.
#[derive(Debug)]
pub struct Workload {
    entries: RootMix,
    client_clusters: Vec<Vec<ClusterId>>,
    duration: SimDuration,
    peak_hour: f64,
    rng: Prng,
}

impl Workload {
    /// Builds a workload over `duration` from the catalog's root weights.
    ///
    /// # Panics
    ///
    /// Panics if the catalog has no method with a positive root weight or
    /// the duration is zero.
    pub fn new(catalog: &Catalog, topology: &Topology, duration: SimDuration, seed: u64) -> Self {
        assert!(duration.as_nanos() > 0, "duration must be positive");
        let entries = RootMix::new(catalog);
        // Client clusters per entry: the service's own clusters (a client
        // stub runs next to the caller) — roots can start anywhere the
        // entry service is deployed.
        let client_clusters = entries
            .methods()
            .iter()
            .map(|&m| catalog.service(catalog.method(m).service).clusters.clone())
            .collect();
        let _ = topology;
        Workload {
            entries,
            client_clusters,
            duration,
            peak_hour: 14.0,
            rng: Prng::seed_from(seed).stream(0x0307_0AD5),
        }
    }

    /// The diurnal intensity multiplier at `t` (mean 1.0 over a day).
    pub fn intensity(&self, t: SimTime) -> f64 {
        let hour = (t.as_secs_f64() / 3600.0) % 24.0;
        1.0 + 0.45 * (std::f64::consts::TAU * (hour - self.peak_hour + 6.0) / 24.0).sin()
    }

    /// Generates `n` root arrivals over the workload duration, sorted by
    /// time, thinning a uniform proposal by the diurnal intensity.
    pub fn generate(&mut self, n: u64) -> Vec<RootArrival> {
        let mut out = Vec::with_capacity(n as usize);
        let span_ns = self.duration.as_nanos();
        let max_intensity = 1.45;
        while (out.len() as u64) < n {
            let t = SimTime::from_nanos(self.rng.next_below(span_ns));
            // Rejection-sample against the diurnal curve.
            if self.rng.next_f64() * max_intensity > self.intensity(t) {
                continue;
            }
            let e = self.entries.sample(&mut self.rng);
            let clusters = &self.client_clusters[e];
            let client_cluster = *self.rng.choose(clusters);
            out.push(RootArrival {
                at: t,
                method: self.entries.methods()[e],
                client_cluster,
            });
        }
        out.sort_by_key(|r| r.at);
        out
    }

    /// The workload duration.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::servable::ServableTable;
    use rpclens_netsim::topology::Topology;

    fn setup() -> (Catalog, Topology) {
        let topo = Topology::default_world(3);
        let cat = Catalog::generate(
            &CatalogConfig {
                total_methods: 400,
                seed: 3,
            },
            &topo,
        );
        (cat, topo)
    }

    #[test]
    fn generates_sorted_arrivals_in_range() {
        let (cat, topo) = setup();
        let dur = SimDuration::from_hours(24);
        let mut w = Workload::new(&cat, &topo, dur, 1);
        let roots = w.generate(10_000);
        assert_eq!(roots.len(), 10_000);
        assert!(roots.windows(2).all(|p| p[0].at <= p[1].at));
        assert!(roots.iter().all(|r| r.at.as_nanos() < dur.as_nanos()));
    }

    #[test]
    fn arrivals_follow_diurnal_shape() {
        let (cat, topo) = setup();
        let mut w = Workload::new(&cat, &topo, SimDuration::from_hours(24), 2);
        let roots = w.generate(120_000);
        // Compare arrivals in the peak hour window vs the trough.
        let count_in = |h0: f64, h1: f64| {
            roots
                .iter()
                .filter(|r| {
                    let h = r.at.as_secs_f64() / 3600.0;
                    h >= h0 && h < h1
                })
                .count() as f64
        };
        let peak = count_in(12.0, 16.0);
        let trough = count_in(0.0, 4.0);
        assert!(peak > trough * 1.5, "peak {peak}, trough {trough}");
    }

    #[test]
    fn entry_mix_respects_weights() {
        let (cat, topo) = setup();
        let mut w = Workload::new(&cat, &topo, SimDuration::from_hours(1), 3);
        let roots = w.generate(50_000);
        // The heaviest root method (Network Disk Write, weight 300) must
        // be the most common entry.
        let mut counts = std::collections::HashMap::new();
        for r in &roots {
            *counts.entry(r.method).or_insert(0u32) += 1;
        }
        let (&top, &top_count) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        let spec = cat.method(top);
        assert_eq!(cat.service(spec.service).name, "NetworkDisk");
        assert!(top_count as f64 / roots.len() as f64 > 0.2);
    }

    #[test]
    fn servable_root_draws_are_the_entry_draws() {
        let (cat, topo) = setup();
        let w = Workload::new(&cat, &topo, SimDuration::from_hours(1), 6);
        let table = ServableTable::from_catalog(&cat);
        let (mut entry_rng, mut servable_rng) = (Prng::seed_from(11), Prng::seed_from(11));
        for _ in 0..5_000 {
            let entry = w.entries.methods()[w.entries.sample(&mut entry_rng)];
            assert_eq!(table.sample_root(&mut servable_rng).method, entry);
        }
    }

    #[test]
    fn client_clusters_are_deployment_clusters() {
        let (cat, topo) = setup();
        let mut w = Workload::new(&cat, &topo, SimDuration::from_hours(1), 4);
        for r in w.generate(2_000) {
            let svc = cat.service(cat.method(r.method).service);
            assert!(svc.clusters.contains(&r.client_cluster));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (cat, topo) = setup();
        let mut w1 = Workload::new(&cat, &topo, SimDuration::from_hours(2), 9);
        let mut w2 = Workload::new(&cat, &topo, SimDuration::from_hours(2), 9);
        assert_eq!(w1.generate(1000), w2.generate(1000));
    }

    #[test]
    fn intensity_averages_to_one() {
        let (cat, topo) = setup();
        let w = Workload::new(&cat, &topo, SimDuration::from_hours(24), 5);
        let mean: f64 = (0..24 * 60)
            .map(|m| w.intensity(SimTime::ZERO + SimDuration::from_mins(m)))
            .sum::<f64>()
            / (24.0 * 60.0);
        assert!((mean - 1.0).abs() < 0.01, "mean intensity {mean}");
    }
}

//! Workload generation: diurnal root-RPC arrivals and entry selection.
//!
//! Root RPCs arrive open-loop with a diurnal intensity (the fleet is
//! busier in the working day, Fig. 18), and each root picks an entry
//! method from the catalog's root weights and a client cluster from the
//! method's service deployment plus external-traffic spread.

use crate::catalog::Catalog;
use rpclens_netsim::topology::{ClusterId, Topology};
use rpclens_simcore::alias::AliasTable;
use rpclens_simcore::bracket::Bracket;
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::{SimDuration, SimTime};
use rpclens_trace::span::MethodId;
use std::cmp::Ordering;

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

/// Hour of the diurnal peak.
const PEAK_HOUR: f64 = 14.0;

/// The diurnal intensity's maximum, `1 + 0.45`: the thinning envelope.
const MAX_INTENSITY: f64 = 1.45;

const MINUTE_NS: u64 = 60_000_000_000;
const DAY_NS: u64 = 24 * 60 * MINUTE_NS;

/// Margin of the per-minute thinning bracket. Inside one minute the sine
/// overshoots the larger of its end values by at most
/// `0.45·(τ/1440)²/8 ≈ 1.1e-6`; the rest covers the rounding of the hour
/// and of the sine, and a query rounded into a neighbouring minute.
const THINNING_MARGIN: f64 = 1e-5;

/// The workload generator.
#[derive(Debug)]
pub struct Workload {
    entries: RootMix,
    client_clusters: Vec<Vec<ClusterId>>,
    duration: SimDuration,
    /// [`diurnal`] bounded per minute of the day: settles most thinning
    /// tests without evaluating the sine.
    thinning: Bracket,
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
            thinning: Bracket::tabulate(0.0, 1440.0, 1440, THINNING_MARGIN, |minute| {
                diurnal(minute / 60.0)
            }),
            rng: Prng::seed_from(seed).stream(0x0307_0AD5),
        }
    }

    /// The diurnal intensity multiplier at `t` (mean 1.0 over a day).
    pub fn intensity(&self, t: SimTime) -> f64 {
        diurnal((t.as_secs_f64() / 3600.0) % 24.0)
    }

    /// Generates `n` root arrivals over the workload duration, sorted by
    /// time, thinning a uniform proposal by the diurnal intensity.
    pub fn generate(&mut self, n: u64) -> Vec<RootArrival> {
        let mut out = Vec::with_capacity(n as usize);
        let span_ns = self.duration.as_nanos();
        while (out.len() as u64) < n {
            let at = self.rng.next_below(span_ns);
            let t = SimTime::from_nanos(at);
            // Rejection-sample against the diurnal curve: reject when
            // `v > intensity(t)`, decided from the minute's bracket; the
            // sine runs only when `v` lands inside it.
            let v = self.rng.next_f64() * MAX_INTENSITY;
            if self
                .thinning
                .compare(minute_of_day(at), v, || self.intensity(t))
                == Some(Ordering::Greater)
            {
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
        sort_by_arrival(out, span_ns)
    }

    /// The workload duration.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }
}

/// The diurnal intensity at `hour` of the day.
fn diurnal(hour: f64) -> f64 {
    1.0 + 0.45 * (std::f64::consts::TAU * (hour - PEAK_HOUR + 6.0) / 24.0).sin()
}

/// The minute of the day at `at_ns` nanoseconds, fraction included.
fn minute_of_day(at_ns: u64) -> f64 {
    (at_ns % DAY_NS) as f64 * (1.0 / MINUTE_NS as f64)
}

/// Roots per bucket [`sort_by_arrival`] aims at: few enough that each
/// bucket's stable sort is a short insertion sort on the stack.
const ROOTS_PER_BUCKET: f64 = 8.0;

/// `roots` (all before `span_ns`) in a stable sort by arrival time.
///
/// A counting pass scatters the roots into equal-width time buckets of
/// about [`ROOTS_PER_BUCKET`] roots each, each bucket in generation
/// order, and each bucket is then sorted on its own. The bucket is a
/// non-decreasing function of the arrival time, so this is the order of
/// a stable sort of the whole vector, ties included.
fn sort_by_arrival(roots: Vec<RootArrival>, span_ns: u64) -> Vec<RootArrival> {
    let Some(&first) = roots.first() else {
        return roots;
    };
    let per_ns = roots.len() as f64 / (ROOTS_PER_BUCKET * span_ns as f64);
    let buckets = (span_ns as f64 * per_ns) as usize + 1;
    let bucket = |r: &RootArrival| ((r.at.as_nanos() as f64 * per_ns) as usize).min(buckets - 1);
    let mut next = vec![0usize; buckets + 1];
    for r in &roots {
        next[bucket(r) + 1] += 1;
    }
    for b in 1..=buckets {
        next[b] += next[b - 1];
    }
    let mut sorted = vec![first; roots.len()];
    let mut start = 0;
    for r in roots {
        let b = bucket(&r);
        sorted[next[b]] = r;
        next[b] += 1;
    }
    // After the scatter, `next[b]` is where bucket `b` ends.
    for &end in &next[..buckets] {
        sorted[start..end].sort_by_key(|r| r.at);
        start = end;
    }
    sorted
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

    /// `generate` as it was before thinning was bracketed and the sort
    /// bucketed: the sine on every proposal, then one stable sort.
    fn exact_generate(w: &mut Workload, n: u64) -> Vec<RootArrival> {
        let mut out = Vec::with_capacity(n as usize);
        let span_ns = w.duration.as_nanos();
        while (out.len() as u64) < n {
            let t = SimTime::from_nanos(w.rng.next_below(span_ns));
            if w.rng.next_f64() * 1.45 > w.intensity(t) {
                continue;
            }
            let e = w.entries.sample(&mut w.rng);
            let client_cluster = *w.rng.choose(&w.client_clusters[e]);
            out.push(RootArrival {
                at: t,
                method: w.entries.methods()[e],
                client_cluster,
            });
        }
        out.sort_by_key(|r| r.at);
        out
    }

    /// Checks `generate` against [`exact_generate`] on two workloads built
    /// alike: equal arrivals, and both streams left at the same position.
    fn check_generate(cat: &Catalog, topo: &Topology, duration: SimDuration, seed: u64, n: u64) {
        let mut fast = Workload::new(cat, topo, duration, seed);
        let mut exact = Workload::new(cat, topo, duration, seed);
        let got = fast.generate(n);
        assert!(
            got == exact_generate(&mut exact, n),
            "{duration} seed {seed}"
        );
        assert_eq!(fast.rng.next_u64(), exact.rng.next_u64(), "{duration}");
    }

    /// The catalog and topology a scale's driver builds.
    fn world(methods: usize, seed: u64) -> (Catalog, Topology) {
        let topo = Topology::default_world(seed);
        let cat = Catalog::generate(
            &CatalogConfig {
                total_methods: methods,
                seed,
            },
            &topo,
        );
        (cat, topo)
    }

    #[test]
    fn generate_matches_the_exact_reference() {
        let day = SimDuration::from_hours(24);
        // The smoke, default and fleet shapes (fleet at reduced roots),
        // seeded as the driver seeds them.
        for (methods, roots) in [(400, 6_000), (2_000, 120_000), (10_000, 40_000)] {
            let (cat, topo) = world(methods, 7);
            check_generate(&cat, &topo, day, 7 ^ 0xAB, roots);
        }
        let (cat, topo) = setup();
        for seed in [1, 2, 99, 2024] {
            check_generate(&cat, &topo, day, seed, 6_000);
        }
        // Not a whole number of minutes; longer than a day; a hundred
        // roots; and a microsecond, where most arrival times tie.
        for (duration, n) in [
            (SimDuration::from_nanos(5_430_123_456_789), 20_000),
            (SimDuration::from_hours(50), 30_000),
            (day, 100),
            (SimDuration::from_nanos(1_000), 5_000),
        ] {
            check_generate(&cat, &topo, duration, 5, n);
        }
    }

    /// Checks the thinning bracket at instants `step_ns` apart over two
    /// days: each minute's bounds hold the intensity, and the decision
    /// for `v` at, and one ulp either side of, the intensity, plus a few
    /// uniforms, is the exact comparison's.
    fn check_thinning(step_ns: u64) {
        let (cat, topo) = setup();
        let w = Workload::new(&cat, &topo, SimDuration::from_hours(48), 1);
        let mut rng = Prng::seed_from(8);
        for at in (0..2 * DAY_NS).step_by(step_ns as usize) {
            let t = SimTime::from_nanos(at);
            let y = w.intensity(t);
            let minute = minute_of_day(at);
            let [lo, hi] = w.thinning.cells()[minute as usize];
            assert!(lo < y && y < hi, "{t}: {y} outside [{lo}, {hi}]");
            for v in [
                y,
                y.next_up(),
                y.next_down(),
                rng.next_f64() * MAX_INTENSITY,
            ] {
                let got = w.thinning.compare(minute, v, || w.intensity(t));
                assert_eq!(got, v.partial_cmp(&y), "{t}, v {v}");
            }
        }
    }

    #[test]
    fn thinning_bracket_matches_intensity() {
        check_thinning(7_300_000_123);
    }

    #[test]
    #[ignore = "long exactness sweep; CI runs it with --ignored"]
    fn sweep_thinning_bracket_matches_intensity() {
        check_thinning(3_000_017);
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

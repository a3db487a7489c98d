//! Per-method trace queries with the paper's filters.
//!
//! The paper's per-method analyses (§2.1) apply three rules that this
//! module encodes once so every figure uses identical semantics:
//!
//! 1. Only methods with ≥ 100 samples are analysed (so P99 is defined).
//! 2. Erroneous RPCs are excluded from latency distributions.
//! 3. Some figures restrict to intra-cluster calls (client and server in
//!    the same cluster).
//!
//! Every per-method analysis reads spans through [`MethodQuery::for_each`]
//! (one filtered walk of one method) or [`MethodQuery::groups`] (one such
//! walk per method, in ascending method id), so this module alone decides
//! which spans an analysis sees.

use crate::collector::TraceStore;
use crate::span::{MethodId, SpanRecord, TraceData};
use crate::tree::TreeStats;
use rpclens_netsim::topology::ClusterId;
use std::collections::HashMap;

/// The paper's minimum sample count for per-method statistics.
pub const MIN_SAMPLES: usize = 100;

/// A reusable per-method query over a [`TraceStore`].
#[derive(Debug, Clone, Copy)]
pub struct MethodQuery {
    /// Drop erroneous spans (the paper's latency rule).
    pub exclude_errors: bool,
    /// Keep only spans whose client and server share a cluster.
    pub intra_cluster_only: bool,
    /// Keep only spans served from this cluster (for per-cluster views).
    pub server_cluster: Option<ClusterId>,
    /// Minimum number of samples for a method to be reported. A method
    /// with no accepted span is never reported, even at 0.
    pub min_samples: usize,
}

impl Default for MethodQuery {
    fn default() -> Self {
        MethodQuery {
            exclude_errors: true,
            intra_cluster_only: false,
            server_cluster: None,
            min_samples: MIN_SAMPLES,
        }
    }
}

impl MethodQuery {
    /// Whether a span passes this query's filters.
    fn accepts(&self, span: &SpanRecord) -> bool {
        if self.exclude_errors && !span.is_ok() {
            return false;
        }
        if self.intra_cluster_only && span.client_cluster != span.server_cluster {
            return false;
        }
        if let Some(c) = self.server_cluster {
            if span.server_cluster != c {
                return false;
            }
        }
        true
    }

    /// Visits every span of `method` that passes the filters, with its
    /// containing trace, in (trace, span) order. The sample-count gate
    /// does not apply.
    pub fn for_each<F>(&self, store: &TraceStore, method: MethodId, mut f: F)
    where
        F: FnMut(&TraceData, &SpanRecord),
    {
        for &(t, s) in store.spans_of(method) {
            let trace = &store.traces()[t as usize];
            let span = &trace.spans[s as usize];
            if self.accepts(span) {
                f(trace, span);
            }
        }
    }

    /// Extracts a per-span metric for one method in (trace, span) order,
    /// or `None` if fewer than `min_samples.max(1)` spans pass the
    /// filters.
    pub fn samples<T, F>(&self, store: &TraceStore, method: MethodId, metric: F) -> Option<Vec<T>>
    where
        F: Fn(&TraceData, &SpanRecord) -> T,
    {
        let mut out = Vec::new();
        self.for_each(store, method, |trace, span| out.push(metric(trace, span)));
        (out.len() >= self.min_samples.max(1)).then_some(out)
    }

    /// Every method that passes the sample-count gate with its
    /// [`samples`](Self::samples), lazily and in ascending method id.
    ///
    /// Each method's spans are walked once, and only one method's samples
    /// are held at a time. This is the serial form of the per-method
    /// pass: the figures run the same [`samples`](Self::samples) walk per
    /// method on the run's worker pool (`rpclens_core::common::method_rows`)
    /// and get the same groups, in the same order.
    pub fn groups<'a, T, F>(
        &self,
        store: &'a TraceStore,
        metric: F,
    ) -> impl Iterator<Item = (MethodId, Vec<T>)> + 'a
    where
        F: Fn(&TraceData, &SpanRecord) -> T + 'a,
        T: 'a,
    {
        let query = *self;
        store
            .methods()
            .into_iter()
            .filter_map(move |m| query.samples(store, m, &metric).map(|v| (m, v)))
    }

    /// All methods that pass the sample-count filter, with their span
    /// counts, sorted by method id.
    pub fn eligible_methods(&self, store: &TraceStore) -> Vec<(MethodId, usize)> {
        // A `Vec<()>` never allocates: its length is the count.
        self.groups(store, |_, _| ())
            .map(|(m, unit)| (m, unit.len()))
            .collect()
    }
}

/// Per-method tree-shape samples (descendants and ancestors), computed
/// over whole traces in one serial pass.
///
/// Figs. 4 and 5 build the same per-method samples on the run's worker
/// pool (`rpclens_core::common::tree_shape_heatmaps`); this form is the
/// reference that pass is tested against.
#[derive(Debug, Default)]
pub struct TreeShapeSamples {
    /// Descendant counts per method.
    pub descendants: HashMap<MethodId, Vec<f64>>,
    /// Ancestor counts per method.
    pub ancestors: HashMap<MethodId, Vec<f64>>,
}

impl TreeShapeSamples {
    /// Computes shape samples across the whole store.
    pub fn compute(store: &TraceStore) -> Self {
        let mut out = TreeShapeSamples::default();
        for trace in store.traces() {
            let stats = TreeStats::compute(trace);
            for (i, span) in trace.spans.iter().enumerate() {
                out.descendants
                    .entry(span.method)
                    .or_default()
                    .push(stats.descendants[i] as f64);
                out.ancestors
                    .entry(span.method)
                    .or_default()
                    .push(stats.ancestors[i] as f64);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ServiceId, SpanBuilder};
    use rpclens_rpcstack::component::{LatencyBreakdown, LatencyComponent};
    use rpclens_rpcstack::error::ErrorKind;
    use rpclens_simcore::time::{SimDuration, SimTime};

    fn make_store() -> TraceStore {
        let mut store = TraceStore::new();
        for i in 0..150u64 {
            let mut b = LatencyBreakdown::new();
            b.set(
                LatencyComponent::ServerApplication,
                SimDuration::from_micros(1000 + i),
            );
            b.set(
                LatencyComponent::ServerRecvQueue,
                SimDuration::from_micros(10),
            );
            let mut builder = SpanBuilder::new(
                MethodId(1),
                ServiceId(0),
                ClusterId(0),
                ClusterId(if i % 3 == 0 { 0 } else { 1 }),
            )
            .breakdown(b);
            if i % 10 == 0 {
                builder = builder.error(ErrorKind::Unavailable);
            }
            let root = builder.build();
            let child = SpanBuilder::new(MethodId(2), ServiceId(0), ClusterId(1), ClusterId(1))
                .parent(0)
                .build();
            store.add(TraceData::new(SimTime::ZERO, vec![root, child]));
        }
        store
    }

    fn latency(_: &TraceData, s: &SpanRecord) -> f64 {
        s.total_latency().as_secs_f64()
    }

    #[test]
    fn errors_are_excluded_by_default() {
        let store = make_store();
        let q = MethodQuery::default();
        let samples = q.samples(&store, MethodId(1), latency).unwrap();
        assert_eq!(samples.len(), 135); // 150 minus 15 errors.
        let all = MethodQuery {
            exclude_errors: false,
            ..q
        }
        .samples(&store, MethodId(1), latency)
        .unwrap();
        assert_eq!(all.len(), 150);
    }

    #[test]
    fn intra_cluster_filter_applies() {
        let store = make_store();
        let q = MethodQuery {
            intra_cluster_only: true,
            exclude_errors: false,
            min_samples: 1,
            ..MethodQuery::default()
        };
        let samples = q.samples(&store, MethodId(1), latency).unwrap();
        assert_eq!(samples.len(), 50); // Every third span is same-cluster.
    }

    #[test]
    fn server_cluster_filter_applies() {
        let store = make_store();
        let q = MethodQuery {
            server_cluster: Some(ClusterId(1)),
            exclude_errors: false,
            min_samples: 1,
            ..MethodQuery::default()
        };
        let samples = q.samples(&store, MethodId(1), latency).unwrap();
        assert_eq!(samples.len(), 100);
    }

    #[test]
    fn min_samples_gate_enforced() {
        let store = make_store();
        let q = MethodQuery {
            min_samples: 1000,
            ..MethodQuery::default()
        };
        assert!(q.samples(&store, MethodId(1), latency).is_none());
    }

    #[test]
    fn component_samples_extract_one_component() {
        let store = make_store();
        let q = MethodQuery::default();
        let queue = q
            .samples(&store, MethodId(1), |_, s| {
                s.component(LatencyComponent::ServerRecvQueue).as_secs_f64()
            })
            .unwrap();
        assert!(queue.iter().all(|&s| (s - 10e-6).abs() < 1e-9));
    }

    #[test]
    fn eligible_methods_sorted_and_counted() {
        let store = make_store();
        let q = MethodQuery::default();
        let methods = q.eligible_methods(&store);
        assert_eq!(methods.len(), 2);
        assert_eq!(methods[0].0, MethodId(1));
        assert_eq!(methods[0].1, 135);
        assert_eq!(methods[1].0, MethodId(2));
        assert_eq!(methods[1].1, 150);
    }

    #[test]
    fn groups_match_samples_and_eligible_methods() {
        let mut store = make_store();
        // Method 3 has only an erroneous span; method 0 one good span.
        let failed = SpanBuilder::new(MethodId(3), ServiceId(0), ClusterId(0), ClusterId(0))
            .error(ErrorKind::Unavailable)
            .build();
        store.add(TraceData::new(SimTime::ZERO, vec![failed]));
        let single = SpanBuilder::new(MethodId(0), ServiceId(0), ClusterId(0), ClusterId(0));
        store.add(TraceData::new(SimTime::ZERO, vec![single.build()]));
        let queries = [
            MethodQuery::default(),
            MethodQuery {
                exclude_errors: false,
                min_samples: 1,
                ..MethodQuery::default()
            },
            MethodQuery {
                min_samples: 0,
                ..MethodQuery::default()
            },
            MethodQuery {
                intra_cluster_only: true,
                min_samples: 0,
                ..MethodQuery::default()
            },
        ];
        for q in queries {
            let groups: Vec<_> = q.groups(&store, latency).collect();
            let ids: Vec<MethodId> = groups.iter().map(|(m, _)| *m).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{q:?}: {ids:?}");
            let eligible = q.eligible_methods(&store);
            assert_eq!(eligible.len(), groups.len(), "{q:?}");
            for ((m, values), (em, n)) in groups.iter().zip(&eligible) {
                assert!(!values.is_empty(), "{q:?}: empty group for {m:?}");
                assert_eq!(m, em);
                assert_eq!(values.len(), *n);
                assert_eq!(Some(values), q.samples(&store, *m, latency).as_ref());
            }
        }
        let floorless = MethodQuery {
            min_samples: 0,
            ..MethodQuery::default()
        };
        let ids: Vec<u32> = floorless
            .groups(&store, latency)
            .map(|(m, _)| m.0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn tree_shape_samples_cover_all_spans() {
        let store = make_store();
        let shapes = TreeShapeSamples::compute(&store);
        assert_eq!(shapes.descendants[&MethodId(1)].len(), 150);
        assert!(shapes.descendants[&MethodId(1)].iter().all(|&d| d == 1.0));
        assert!(shapes.ancestors[&MethodId(2)].iter().all(|&a| a == 1.0));
    }
}

//! Trace sampling and storage.
//!
//! Dapper samples head-based: the decision to trace is made at the root
//! and inherited by the whole tree. [`TraceCollector`] makes that decision
//! deterministically from the trace id, so a re-run with the same seed
//! samples exactly the same traces. [`TraceStore`] owns the sampled
//! traces and maintains a per-method index for the query layer.

use crate::span::{MethodId, TraceData};
use std::collections::HashMap;

/// Head-based sampling decision maker.
#[derive(Debug, Clone)]
pub struct TraceCollector {
    /// Sample 1 in `rate` root RPCs (1 = everything).
    rate: u64,
}

impl TraceCollector {
    /// Creates a collector sampling 1 in `rate` traces.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn new(rate: u64) -> Self {
        assert!(rate > 0, "sampling rate must be at least 1");
        TraceCollector { rate }
    }

    /// Whether the trace with this id should be sampled.
    ///
    /// Uses a multiplicative hash of the id so that sequential ids do not
    /// alias against the modulus.
    pub fn should_sample(&self, trace_id: u64) -> bool {
        if self.rate == 1 {
            return true;
        }
        trace_id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .is_multiple_of(self.rate)
    }

    /// The configured sampling rate.
    pub fn rate(&self) -> u64 {
        self.rate
    }
}

/// Owned storage of sampled traces with a per-method span index.
#[derive(Debug, Default)]
pub struct TraceStore {
    traces: Vec<TraceData>,
    /// Method -> list of (trace index, span index).
    by_method: HashMap<MethodId, Vec<(u32, u32)>>,
    total_spans: usize,
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sampled trace, indexing its spans.
    pub fn add(&mut self, trace: TraceData) {
        let t_idx = self.traces.len() as u32;
        for (s_idx, span) in trace.spans.iter().enumerate() {
            self.by_method
                .entry(span.method)
                .or_default()
                .push((t_idx, s_idx as u32));
        }
        self.total_spans += trace.len();
        self.traces.push(trace);
    }

    /// All traces.
    pub fn traces(&self) -> &[TraceData] {
        &self.traces
    }

    /// Number of traces stored.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total spans across all traces.
    pub fn total_spans(&self) -> usize {
        self.total_spans
    }

    /// The methods that appear in at least one span, in ascending id.
    pub fn methods(&self) -> Vec<MethodId> {
        let mut methods: Vec<MethodId> = self.by_method.keys().copied().collect();
        methods.sort_unstable();
        methods
    }

    /// The `(trace, span)` locations of every span of `method`.
    pub fn spans_of(&self, method: MethodId) -> &[(u32, u32)] {
        self.by_method
            .get(&method)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Appends every trace of `other`, preserving `other`'s order.
    ///
    /// Folding per-shard stores in shard order over contiguous trace
    /// partitions reproduces exactly the store a single-threaded run
    /// would have built — trace order, span indexes, and the per-method
    /// index included. The parallel fleet driver relies on this.
    pub fn merge(&mut self, other: TraceStore) {
        for trace in other.traces {
            self.add(trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MethodQuery;
    use crate::span::{ServiceId, SpanBuilder};
    use rpclens_netsim::topology::ClusterId;
    use rpclens_simcore::time::SimTime;

    fn trace_with_methods(methods: &[u32]) -> TraceData {
        let spans: Vec<_> = methods
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let b = SpanBuilder::new(MethodId(m), ServiceId(0), ClusterId(0), ClusterId(0));
                if i == 0 { b } else { b.parent(0) }.build()
            })
            .collect();
        TraceData::new(SimTime::ZERO, spans)
    }

    #[test]
    fn sampling_rate_one_samples_everything() {
        let c = TraceCollector::new(1);
        assert!((0..1000).all(|id| c.should_sample(id)));
    }

    #[test]
    fn sampling_hits_expected_fraction() {
        let c = TraceCollector::new(64);
        let hits = (0..1_000_000u64).filter(|&id| c.should_sample(id)).count();
        let frac = hits as f64 / 1e6;
        assert!((frac - 1.0 / 64.0).abs() < 0.002, "sampled {frac}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = TraceCollector::new(10);
        let b = TraceCollector::new(10);
        for id in 0..10_000 {
            assert_eq!(a.should_sample(id), b.should_sample(id));
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_rate_panics() {
        let _ = TraceCollector::new(0);
    }

    #[test]
    fn store_indexes_spans_by_method() {
        let mut store = TraceStore::new();
        store.add(trace_with_methods(&[1, 2, 2]));
        store.add(trace_with_methods(&[2, 3]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_spans(), 5);
        assert_eq!(store.spans_of(MethodId(1)).len(), 1);
        assert_eq!(store.spans_of(MethodId(2)).len(), 3);
        assert_eq!(store.spans_of(MethodId(3)).len(), 1);
        assert_eq!(store.spans_of(MethodId(99)).len(), 0);
        assert_eq!(store.methods(), vec![MethodId(1), MethodId(2), MethodId(3)]);
    }

    #[test]
    fn for_each_span_visits_all() {
        let mut store = TraceStore::new();
        store.add(trace_with_methods(&[7, 7, 7]));
        let mut n = 0;
        let everything = MethodQuery {
            exclude_errors: false,
            ..MethodQuery::default()
        };
        everything.for_each(&store, MethodId(7), |trace, span| {
            assert_eq!(trace.len(), 3);
            assert_eq!(span.method, MethodId(7));
            n += 1;
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn merge_preserves_order_and_index() {
        // A store built in one pass and one built from ordered partial
        // stores must agree exactly.
        let batches = [vec![1u32, 2], vec![2, 3, 3], vec![4]];
        let mut single = TraceStore::new();
        let mut merged = TraceStore::new();
        for batch in &batches {
            let mut local = TraceStore::new();
            single.add(trace_with_methods(batch));
            local.add(trace_with_methods(batch));
            merged.merge(local);
        }
        assert_eq!(merged.len(), single.len());
        assert_eq!(merged.total_spans(), single.total_spans());
        for m in [1, 2, 3, 4, 99] {
            assert_eq!(merged.spans_of(MethodId(m)), single.spans_of(MethodId(m)));
        }
        for (a, b) in merged.traces().iter().zip(single.traces()) {
            assert_eq!(a.spans.len(), b.spans.len());
        }
    }
}

//! Trace sampling and storage.
//!
//! Dapper samples head-based: the decision to trace is made at the root
//! and inherited by the whole tree. [`TraceCollector`] makes that decision
//! deterministically from the trace id, so a re-run with the same seed
//! samples exactly the same traces. [`TraceStore`] owns the sampled
//! traces and maintains a per-method index for the query layer.

use crate::span::{MethodId, TraceData};
use crate::summary::MethodTable;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

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

/// Hashes a [`MethodId`] with one multiply (Fibonacci hashing) in place
/// of a SipHash per indexed span.
///
/// The rotation moves the product's high half, where every bit of the id
/// has mixed, into the low bits the table picks buckets with, so ids that
/// differ only in high bits do not share buckets. The hash is fixed: an
/// export crafted with colliding ids can slow its own import, not change
/// what the index holds.
#[derive(Debug, Default)]
struct MethodIdHasher(u64);

impl Hasher for MethodIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Owned storage of sampled traces with a per-method span index.
#[derive(Debug, Default)]
pub struct TraceStore {
    traces: Vec<TraceData>,
    /// Method -> list of (trace index, span index), ascending. Keyed by
    /// the ids present, so its size follows the distinct methods seen,
    /// not the largest id.
    by_method: HashMap<MethodId, Vec<(u32, u32)>, BuildHasherDefault<MethodIdHasher>>,
    total_spans: usize,
    /// The per-method summaries of these traces: built on first use,
    /// dropped when a trace is added.
    table: OnceLock<MethodTable>,
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
        self.table.take();
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

    /// The store's per-method summary table: `build`'s result on the
    /// first call since the store last changed, the same table on every
    /// later call. Concurrent first calls run `build` once.
    pub fn method_table(&self, build: impl FnOnce() -> MethodTable) -> &MethodTable {
        self.table.get_or_init(build)
    }

    /// Appends every trace of `other`, preserving `other`'s order.
    ///
    /// Folding per-shard stores in shard order over contiguous trace
    /// partitions reproduces exactly the store a single-threaded run
    /// would have built — trace order, span indexes, and the per-method
    /// index included. The parallel fleet driver relies on this. Each of
    /// `other`'s method lists is appended shifted by this store's trace
    /// count; its spans are not re-indexed one by one.
    pub fn merge(&mut self, other: TraceStore) {
        if other.traces.is_empty() {
            return;
        }
        let offset = self.traces.len() as u32;
        for (method, spans) in other.by_method {
            self.by_method
                .entry(method)
                .or_default()
                .extend(spans.into_iter().map(|(t, s)| (t + offset, s)));
        }
        self.total_spans += other.total_spans;
        self.traces.extend(other.traces);
        self.table.take();
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
    fn method_table_is_built_once_and_dropped_on_add() {
        let mut store = TraceStore::new();
        store.add(trace_with_methods(&[1]));
        let builds = std::cell::Cell::new(0);
        let build = || {
            builds.set(builds.get() + 1);
            MethodTable::default()
        };
        let first: *const MethodTable = store.method_table(build);
        assert!(std::ptr::eq(first, store.method_table(build)));
        assert_eq!(builds.get(), 1);
        store.add(trace_with_methods(&[2]));
        store.method_table(build);
        assert_eq!(builds.get(), 2);
        store.merge(TraceStore::new());
        store.method_table(build);
        assert_eq!(builds.get(), 2, "merging no trace keeps the table");
        let mut other = TraceStore::new();
        other.add(trace_with_methods(&[3]));
        store.merge(other);
        store.method_table(build);
        assert_eq!(builds.get(), 3);
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

    #[test]
    fn merging_multi_trace_stores_equals_adding_each_trace() {
        // Partitions of several traces each, with sparse and repeated
        // method ids (one near u32::MAX): the shifted per-method lists
        // must equal the index `add` builds span by span.
        let traces: Vec<Vec<u32>> = (0..40u32)
            .map(|i| {
                (0..1 + i % 5)
                    .map(|j| (i * 7 + j * 13) % 11 + (j % 2) * 4_000_000_000)
                    .collect()
            })
            .collect();
        let mut single = TraceStore::new();
        let mut merged = TraceStore::new();
        for part in traces.chunks(6) {
            let mut local = TraceStore::new();
            for methods in part {
                single.add(trace_with_methods(methods));
                local.add(trace_with_methods(methods));
            }
            merged.merge(local);
        }
        assert_eq!(merged.len(), single.len());
        assert_eq!(merged.total_spans(), single.total_spans());
        assert_eq!(merged.methods(), single.methods());
        for m in single.methods() {
            assert_eq!(merged.spans_of(m), single.spans_of(m), "{m:?}");
        }
    }
}

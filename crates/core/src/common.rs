//! Shared extraction helpers used by the figure modules.
//!
//! Per-method reductions run on the run's worker pool: [`chunked_sweep`]
//! splits a slice into contiguous chunks, reduces each on
//! `fleet::pool::run_shards` with `run.config.threads` workers and folds
//! the results in chunk order. [`per_method`] and [`method_rows`] use it
//! to reduce each method independently and concatenate the rows in
//! ascending method id, exactly as [`MethodQuery::groups`] yields them,
//! so every per-method result is the same at any width.

use rpclens_fleet::driver::FleetRun;
use rpclens_fleet::pool::run_shards;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_simcore::stats::{percentile, sorted_finite, QuantileSummary};
use rpclens_trace::query::{MethodQuery, MIN_SAMPLES};
use rpclens_trace::span::{MethodId, SpanRecord, TraceData};
use rpclens_trace::tree::TreeStats;
use serde::{Deserialize, Serialize};

/// Methods per work item of a per-method pass: method costs are skewed
/// (a popular method has thousands of times the spans of a rare one),
/// so items stay small for the pool's dynamic claiming to balance them.
const METHODS_PER_CHUNK: usize = 16;

/// Traces per work item of the tree-shape pass.
const TRACES_PER_CHUNK: usize = 1024;

/// Runs `work` over contiguous chunks of `items` (`per_chunk` each, the
/// last one shorter) on the run's worker pool, `run.config.threads`
/// wide, and folds the results in chunk order with `fold`.
///
/// An empty `items` is one empty chunk, so `work(&[])` is the result.
/// With one thread the chunks run in order on the caller's thread.
pub fn chunked_sweep<T, R>(
    run: &FleetRun,
    items: &[T],
    per_chunk: usize,
    work: impl Fn(&[T]) -> R + Sync,
    fold: impl Fn(&mut R, R) + Sync,
) -> R
where
    T: Sync,
    R: Send,
{
    let chunk = |i: usize| {
        let end = items.len().min((i + 1) * per_chunk);
        &items[(i * per_chunk).min(end)..end]
    };
    run_shards(
        items.len().div_ceil(per_chunk).max(1),
        run.config.threads,
        |i| work(chunk(i)),
        fold,
    )
}

/// Reduces each of `methods` on the run's worker pool and returns the
/// `Some` results in the order of `methods`.
///
/// Each worker reduces one method at a time, so at most
/// `run.config.threads` methods' intermediate data are resident.
pub fn per_method<R: Send>(
    run: &FleetRun,
    methods: &[MethodId],
    reduce: impl Fn(MethodId) -> Option<R> + Sync,
) -> Vec<R> {
    chunked_sweep(
        run,
        methods,
        METHODS_PER_CHUNK,
        |chunk| chunk.iter().filter_map(|&m| reduce(m)).collect(),
        |rows: &mut Vec<R>, more| rows.extend(more),
    )
}

/// The per-method pass: every method of the store that passes `query`
/// with its [`MethodQuery::samples`] of `metric`, reduced by `reduce` on
/// the run's worker pool. Rows come out in ascending method id; the
/// groups `reduce` sees are exactly those [`MethodQuery::groups`]
/// yields.
pub fn method_rows<T, R>(
    run: &FleetRun,
    query: &MethodQuery,
    metric: impl Fn(&TraceData, &SpanRecord) -> T + Sync,
    reduce: impl Fn(MethodId, Vec<T>) -> Option<R> + Sync,
) -> Vec<R>
where
    R: Send,
{
    per_method(run, &run.store.methods(), |m| {
        query
            .samples(&run.store, m, &metric)
            .and_then(|values| reduce(m, values))
    })
}

/// One row of a per-method "heatmap": the method and its metric quantiles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodRow {
    /// The method.
    pub method: MethodId,
    /// Quantiles of the metric for this method.
    pub summary: QuantileSummary,
}

impl MethodRow {
    /// Summarises one method's samples, or `None` if none is finite.
    pub fn new(method: MethodId, values: Vec<f64>) -> Option<MethodRow> {
        QuantileSummary::from_samples(values).map(|summary| MethodRow { method, summary })
    }
}

/// A per-method heatmap, sorted by the median of the metric — the layout
/// every per-method figure in the paper uses.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MethodHeatmap {
    /// Rows in ascending median order.
    pub rows: Vec<MethodRow>,
}

impl MethodHeatmap {
    /// Builds a heatmap from per-method samples produced by `metric`, on
    /// the run's worker pool ([`method_rows`]).
    ///
    /// Methods failing the query's sample-count gate are skipped.
    pub fn build<F>(run: &FleetRun, query: &MethodQuery, metric: F) -> MethodHeatmap
    where
        F: Fn(&TraceData, &SpanRecord) -> f64 + Sync,
    {
        Self::from_rows(method_rows(run, query, metric, MethodRow::new))
    }

    /// Orders rows given in ascending method id by median (a stable sort,
    /// so methods with equal medians stay in id order).
    pub fn from_rows(mut rows: Vec<MethodRow>) -> MethodHeatmap {
        rows.sort_by(|a, b| a.summary.p50.partial_cmp(&b.summary.p50).expect("finite"));
        MethodHeatmap { rows }
    }

    /// Number of methods.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the heatmap is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The distribution, across methods, of one per-method quantile
    /// (`q` must be one of the stored levels). This is the "CDF" panel of
    /// the paper's per-method figures.
    pub fn across_methods(&self, q: f64) -> Vec<f64> {
        sorted_finite(
            self.rows
                .iter()
                .filter_map(|r| r.summary.get(q))
                .collect::<Vec<f64>>(),
        )
    }

    /// The fraction of methods whose quantile `q` satisfies `pred`.
    pub fn fraction_where<F: Fn(f64) -> bool>(&self, q: f64, pred: F) -> f64 {
        if self.rows.is_empty() {
            return f64::NAN;
        }
        let n = self
            .rows
            .iter()
            .filter(|r| r.summary.get(q).map(&pred).unwrap_or(false))
            .count();
        n as f64 / self.rows.len() as f64
    }

    /// The value of quantile `inner` at position `outer` across methods
    /// (e.g. "the P99 latency of the method at the 10th percentile of
    /// methods").
    pub fn quantile_of_quantiles(&self, inner: f64, outer: f64) -> Option<f64> {
        let v = self.across_methods(inner);
        percentile(&v, outer)
    }
}

/// Per-method heatmaps of per-span call-tree counts (Figs. 4 and 5), one
/// for each of `counts`, over every retained span (errors included) of
/// each method with at least [`MIN_SAMPLES`] spans.
///
/// Each trace's [`TreeStats`] is computed once, on the run's worker pool,
/// and the requested counts are kept in one flat table in (trace, span)
/// order; one per-method pass per count then reads it through the
/// store's span index.
pub fn tree_shape_heatmaps<const N: usize>(
    run: &FleetRun,
    counts: [fn(&TreeStats, usize) -> u32; N],
) -> [MethodHeatmap; N] {
    let traces = run.store.traces();
    let table: Vec<[u32; N]> = chunked_sweep(
        run,
        traces,
        TRACES_PER_CHUNK,
        |chunk| {
            let mut out = Vec::new();
            for trace in chunk {
                let stats = TreeStats::compute(trace);
                out.extend((0..trace.spans.len()).map(|i| counts.map(|count| count(&stats, i))));
            }
            out
        },
        |table: &mut Vec<[u32; N]>, more| table.extend(more),
    );
    // Where each trace's spans start in the table.
    let mut first = Vec::with_capacity(traces.len());
    let mut at = 0;
    for trace in traces {
        first.push(at);
        at += trace.spans.len();
    }
    let methods = run.store.methods();
    std::array::from_fn(|k| {
        MethodHeatmap::from_rows(per_method(run, &methods, |m| {
            let spans = run.store.spans_of(m);
            (spans.len() >= MIN_SAMPLES).then(|| {
                let values = spans
                    .iter()
                    .map(|&(t, s)| f64::from(table[first[t as usize] + s as usize][k]))
                    .collect();
                MethodRow::new(m, values).expect("counts are finite")
            })
        }))
    })
}

/// Sums a group of latency components for a span, in seconds.
pub fn component_sum_secs(span: &SpanRecord, components: &[LatencyComponent]) -> f64 {
    components
        .iter()
        .map(|&c| span.component(c).as_secs_f64())
        .sum()
}

/// A span's completion time and its nine latency components, in seconds
/// and lifecycle order.
pub fn breakdown_row(span: &SpanRecord) -> (f64, [f64; 9]) {
    let mut comps = [0.0f64; 9];
    for (i, c) in LatencyComponent::ALL.iter().enumerate() {
        comps[i] = span.component(*c).as_secs_f64();
    }
    (span.total_latency().as_secs_f64(), comps)
}

#[cfg(test)]
pub(crate) mod testrun {
    //! A single shared small fleet run for the analysis tests: the
    //! simulation is deterministic, so one instance serves every module.

    use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
    use rpclens_simcore::time::SimDuration;
    use std::sync::OnceLock;

    static RUN: OnceLock<FleetRun> = OnceLock::new();

    /// The shared test run (~400 methods, 20k roots).
    pub fn shared() -> &'static FleetRun {
        RUN.get_or_init(|| {
            let scale = SimScale {
                name: "core-test",
                total_methods: 2_000,
                roots: 60_000,
                duration: SimDuration::from_hours(24),
                trace_sample_rate: 1,
                profiler_sample_cap: 10_000,
                seed: 7,
            };
            run_fleet(FleetConfig::at_scale(scale))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common_tests::*;
    use rpclens_fleet::driver::{run_fleet, FleetConfig, SimScale};
    use rpclens_simcore::time::SimDuration;
    use rpclens_trace::collector::TraceStore;
    use rpclens_trace::query::TreeShapeSamples;
    use std::collections::HashMap;

    mod common_tests {
        pub use super::super::testrun::shared;
    }

    #[test]
    fn heatmap_is_sorted_by_median() {
        let run = shared();
        let q = MethodQuery::default();
        let hm = MethodHeatmap::build(run, &q, |_, s| s.total_latency().as_secs_f64());
        assert!(hm.len() > 30, "{} methods", hm.len());
        assert!(hm
            .rows
            .windows(2)
            .all(|w| w[0].summary.p50 <= w[1].summary.p50));
    }

    #[test]
    fn across_methods_matches_rows() {
        let run = shared();
        let q = MethodQuery::default();
        let hm = MethodHeatmap::build(run, &q, |_, s| s.total_latency().as_secs_f64());
        let medians = hm.across_methods(0.5);
        assert_eq!(medians.len(), hm.len());
        // Sorted output.
        assert!(medians.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fraction_where_counts_correctly() {
        let hm = MethodHeatmap::from_rows(vec![
            MethodRow::new(MethodId(0), vec![1.0; 200]).unwrap(),
            MethodRow::new(MethodId(1), vec![10.0; 200]).unwrap(),
        ]);
        assert_eq!(hm.len(), 2);
        assert_eq!(hm.fraction_where(0.5, |v| v > 5.0), 0.5);
        assert_eq!(hm.fraction_where(0.5, |v| v > 0.0), 1.0);
    }

    /// A run small enough to rebuild per test, owned so its width can be
    /// changed.
    fn small_run() -> FleetRun {
        let scale = SimScale {
            name: "common-test",
            total_methods: 320,
            roots: 6_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1,
            profiler_sample_cap: 10_000,
            seed: 23,
        };
        run_fleet(FleetConfig::at_scale(scale))
    }

    /// The per-method pass's groups, keyed and ordered as `groups` yields
    /// them, with latencies compared bit for bit.
    fn pass(run: &FleetRun, q: &MethodQuery) -> Vec<(MethodId, Vec<u64>)> {
        method_rows(run, q, latency_secs, |m, v| {
            Some((m, v.iter().map(|x| x.to_bits()).collect()))
        })
    }

    fn serial(run: &FleetRun, q: &MethodQuery) -> Vec<(MethodId, Vec<u64>)> {
        q.groups(&run.store, latency_secs)
            .map(|(m, v)| (m, v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    fn latency_secs(_: &TraceData, s: &SpanRecord) -> f64 {
        s.total_latency().as_secs_f64()
    }

    #[test]
    fn method_rows_match_serial_groups_at_any_width() {
        let mut run = small_run();
        let queries = [
            MethodQuery::default(),
            MethodQuery::unfiltered(),
            MethodQuery {
                intra_cluster_only: true,
                min_samples: 0,
                ..MethodQuery::default()
            },
        ];
        for q in queries {
            let expect = serial(&run, &q);
            assert!(
                expect.len() > 2 * METHODS_PER_CHUNK,
                "{q:?}: {} groups span too few chunks",
                expect.len()
            );
            for threads in [1, 2, 3, 8] {
                run.config.threads = threads;
                assert_eq!(pass(&run, &q), expect, "{q:?} at threads={threads}");
            }
        }
    }

    #[test]
    fn method_rows_skip_methods_below_the_gate() {
        let mut run = small_run();
        let gated = MethodQuery {
            min_samples: usize::MAX,
            ..MethodQuery::default()
        };
        for threads in [1, 2, 3, 8] {
            run.config.threads = threads;
            assert!(pass(&run, &gated).is_empty(), "threads={threads}");
            assert!(MethodHeatmap::build(&run, &gated, latency_secs).is_empty());
        }
        // An empty store is one empty chunk, not a pool with no work.
        run.store = TraceStore::new();
        for threads in [1, 2, 3, 8] {
            run.config.threads = threads;
            for q in [MethodQuery::default(), MethodQuery::unfiltered()] {
                assert_eq!(pass(&run, &q), serial(&run, &q), "threads={threads}");
                assert!(pass(&run, &q).is_empty());
            }
            let [shapes] = tree_shape_heatmaps(&run, [|stats, i| stats.descendants[i]]);
            assert!(shapes.is_empty());
        }
    }

    #[test]
    fn tree_shapes_match_the_serial_samples() {
        let mut run = small_run();
        let serial = TreeShapeSamples::compute(&run.store);
        let heatmap = |samples: &HashMap<MethodId, Vec<f64>>| {
            let mut methods: Vec<MethodId> = samples.keys().copied().collect();
            methods.sort_unstable();
            MethodHeatmap::from_rows(
                methods
                    .into_iter()
                    .filter(|m| samples[m].len() >= MIN_SAMPLES)
                    .filter_map(|m| MethodRow::new(m, samples[&m].clone()))
                    .collect(),
            )
        };
        let bits = |hm: &MethodHeatmap| -> Vec<(MethodId, usize, [u64; 7])> {
            hm.rows
                .iter()
                .map(|r| {
                    let s = &r.summary;
                    let q = [s.p01, s.p10, s.p50, s.p90, s.p95, s.p99, s.mean];
                    (r.method, s.count, q.map(f64::to_bits))
                })
                .collect()
        };
        let expect = [heatmap(&serial.ancestors), heatmap(&serial.descendants)].map(|hm| bits(&hm));
        assert!(expect[0].len() > 2 * METHODS_PER_CHUNK);
        assert!(run.store.len() > 2 * TRACES_PER_CHUNK);
        for threads in [1, 2, 3, 8] {
            run.config.threads = threads;
            let got = tree_shape_heatmaps(
                &run,
                [
                    |stats, i| stats.ancestors[i],
                    |stats, i| stats.descendants[i],
                ],
            );
            assert_eq!(got.map(|hm| bits(&hm)), expect, "threads={threads}");
        }
    }

    #[test]
    fn chunked_sweep_folds_in_chunk_order() {
        let mut run = small_run();
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            run.config.threads = threads;
            for per_chunk in [1, 7, 100, 1000] {
                let got = chunked_sweep(&run, &items, per_chunk, <[usize]>::to_vec, |a, b| {
                    a.extend(b)
                });
                assert_eq!(got, items, "threads={threads}, per_chunk={per_chunk}");
            }
            let none = chunked_sweep(&run, &items[..0], 7, <[usize]>::len, |a, b| *a += b);
            assert_eq!(none, 0);
        }
    }
}

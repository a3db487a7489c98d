//! Shared extraction helpers used by the figure modules.
//!
//! Per-method reductions run on the run's worker pool: [`chunked_sweep`]
//! splits a slice into contiguous chunks, reduces each on
//! `fleet::pool::run_shards` with `run.config.threads` workers and folds
//! the results in chunk order. [`per_method`] uses it to reduce each
//! method independently and keep the rows in method order, so every
//! per-method result is the same at any width.
//!
//! The per-method figures read one table per run ([`summaries`]): every
//! [`Column`] they summarise, built in one walk of each method's spans
//! the first time a figure asks for it.

use crate::figs::fig12::WIRE_AND_STACK;
use crate::figs::fig13::QUEUES;
use rpclens_fleet::driver::FleetRun;
use rpclens_fleet::pool::run_shards;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_simcore::stats::{percentile, sorted_finite, QuantileSummary};
use rpclens_trace::query::{MethodQuery, MIN_SAMPLES};
use rpclens_trace::span::{MethodId, SpanRecord};
use rpclens_trace::summary::{MethodRow, MethodTable};
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

/// A column of the run's per-method summary table.
///
/// The span columns summarise each method's spans under
/// `MethodQuery::default()` (errors excluded, at least [`MIN_SAMPLES`]
/// of them); the tree-shape columns summarise every retained span of
/// each method with at least [`MIN_SAMPLES`], errors included.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Column {
    /// Completion time, seconds (Figs. 2 and 3, Fig. 10's P95s, Fig.
    /// 21's medians).
    Latency,
    /// Request size, bytes (Fig. 6, Fig. 21's medians, Table 1).
    RequestBytes,
    /// Response size, bytes (Fig. 6, Table 1).
    ResponseBytes,
    /// Response/request size ratio (Fig. 7).
    ResponseRatio,
    /// Latency tax over completion time (Fig. 11).
    TaxRatio,
    /// Wire plus processing latency, seconds (Fig. 12).
    WireAndStack,
    /// Queueing latency, seconds (Fig. 13).
    Queues,
    /// Ancestors per span (Fig. 5).
    Ancestors,
    /// Descendants per span (Figs. 4 and 5).
    Descendants,
}

/// The number of columns.
const COLUMNS: usize = Column::Descendants as usize + 1;

/// The number of span columns: those before [`Column::Ancestors`].
const SPAN_COLUMNS: usize = Column::Ancestors as usize;

/// One span's values of every span column, in [`Column`] order.
fn span_values(span: &SpanRecord) -> [f64; SPAN_COLUMNS] {
    [
        span.total_latency().as_secs_f64(),
        span.request_bytes as f64,
        span.response_bytes as f64,
        span.response_bytes as f64 / (span.request_bytes as f64).max(1.0),
        span.breakdown().tax_ratio().unwrap_or(0.0),
        component_sum_secs(span, &WIRE_AND_STACK),
        component_sum_secs(span, &QUEUES),
    ]
}

/// The run's per-method summary table, built on the first call for the
/// run's current store and shared by every later one.
pub(crate) fn summaries(run: &FleetRun) -> &MethodTable {
    run.store.method_table(|| build_summaries(run))
}

/// The rows of one column, in ascending method id.
pub(crate) fn column(run: &FleetRun, c: Column) -> &[MethodRow] {
    summaries(run).column(c as usize)
}

/// One method's summary in one column, if the method has one.
pub(crate) fn summary(run: &FleetRun, c: Column, method: MethodId) -> Option<&QuantileSummary> {
    summaries(run).get(c as usize, method)
}

/// One column as a heatmap, sorted by median.
pub(crate) fn heatmap(run: &FleetRun, c: Column) -> MethodHeatmap {
    MethodHeatmap::from_rows(column(run, c).to_vec())
}

/// Builds the summary table on the run's worker pool: one walk of each
/// method's accepted spans pushes every span column at once, then one
/// tree-shape pass fills the two count columns.
fn build_summaries(run: &FleetRun) -> MethodTable {
    #[cfg(test)]
    BUILDS.with(|b| b.set(b.get() + 1));
    let store = &run.store;
    let methods = store.methods();
    let query = MethodQuery::default();
    let mut columns = vec![Vec::new(); COLUMNS];
    let rows = per_method(run, &methods, |m| {
        let values = query.columns(store, m, |_, s| span_values(s))?;
        Some(values.map(|v| MethodRow::new(m, v)))
    });
    for row in rows {
        for (column, row) in columns.iter_mut().zip(row) {
            column.extend(row);
        }
    }
    let [ancestors, descendants] = tree_shape_rows(run, &methods);
    columns[Column::Ancestors as usize] = ancestors;
    columns[Column::Descendants as usize] = descendants;
    MethodTable::new(columns)
}

#[cfg(test)]
thread_local! {
    /// Tables built on this thread, so a test can count them.
    static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Per-method rows of per-span call-tree counts, ancestors and then
/// descendants, over every retained span (errors included) of each of
/// `methods` with at least [`MIN_SAMPLES`] spans.
///
/// Each trace's [`TreeStats`] is computed once, on the run's worker pool,
/// into one flat table of both counts in (trace, span) order; one
/// per-method pass then reads it through the store's span index.
fn tree_shape_rows(run: &FleetRun, methods: &[MethodId]) -> [Vec<MethodRow>; 2] {
    let traces = run.store.traces();
    let table: Vec<[u32; 2]> = chunked_sweep(
        run,
        traces,
        TRACES_PER_CHUNK,
        |chunk| {
            let mut out = Vec::new();
            for trace in chunk {
                let stats = TreeStats::compute(trace);
                out.extend(
                    (0..trace.spans.len()).map(|i| [stats.ancestors[i], stats.descendants[i]]),
                );
            }
            out
        },
        |table: &mut Vec<[u32; 2]>, more| table.extend(more),
    );
    // Where each trace's spans start in the table.
    let mut first = Vec::with_capacity(traces.len());
    let mut at = 0;
    for trace in traces {
        first.push(at);
        at += trace.spans.len();
    }
    let rows = per_method(run, methods, |m| {
        let spans = run.store.spans_of(m);
        (spans.len() >= MIN_SAMPLES).then(|| {
            [0, 1].map(|k| {
                let values = spans
                    .iter()
                    .map(|&(t, s)| f64::from(table[first[t as usize] + s as usize][k]))
                    .collect();
                MethodRow::new(m, values).expect("counts are finite")
            })
        })
    });
    let mut columns = [Vec::new(), Vec::new()];
    for [ancestors, descendants] in rows {
        columns[0].push(ancestors);
        columns[1].push(descendants);
    }
    columns
}

/// A per-method "heatmap": the rows of one column sorted by median — the
/// layout every per-method figure in the paper uses.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MethodHeatmap {
    /// Rows in ascending median order.
    pub rows: Vec<MethodRow>,
}

impl MethodHeatmap {
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
    use crate::figs;
    use rpclens_fleet::driver::{run_fleet, FleetConfig, SimScale};
    use rpclens_simcore::time::SimDuration;
    use rpclens_trace::collector::TraceStore;
    use rpclens_trace::query::TreeShapeSamples;
    use testrun::shared;

    #[test]
    fn heatmap_is_sorted_by_median() {
        let hm = heatmap(shared(), Column::Latency);
        assert!(hm.len() > 30, "{} methods", hm.len());
        assert!(hm
            .rows
            .windows(2)
            .all(|w| w[0].summary.p50 <= w[1].summary.p50));
    }

    #[test]
    fn across_methods_matches_rows() {
        let hm = heatmap(shared(), Column::Latency);
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

    /// A run small enough to rebuild per test, owned so its width and
    /// store can be changed.
    fn small_run(seed: u64) -> FleetRun {
        let scale = SimScale {
            name: "common-test",
            total_methods: 320,
            roots: 6_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1,
            profiler_sample_cap: 10_000,
            seed,
        };
        run_fleet(FleetConfig::at_scale(scale))
    }

    /// A column's rows with every summary field as bits.
    type Bits = Vec<(MethodId, usize, [u64; 7])>;

    fn bits(rows: &[MethodRow]) -> Bits {
        rows.iter()
            .map(|r| {
                let s = &r.summary;
                let q = [s.p01, s.p10, s.p50, s.p90, s.p95, s.p99, s.mean];
                (r.method, s.count, q.map(f64::to_bits))
            })
            .collect()
    }

    fn table_bits(table: &MethodTable) -> Vec<Bits> {
        (0..COLUMNS).map(|k| bits(table.column(k))).collect()
    }

    /// The span columns built serially from `MethodQuery::groups`, each
    /// summarised by `QuantileSummary`.
    fn serial_span_columns(store: &TraceStore) -> Vec<Bits> {
        (0..SPAN_COLUMNS)
            .map(|k| {
                let rows: Vec<MethodRow> = MethodQuery::default()
                    .groups(store, |_, s| span_values(s)[k])
                    .filter_map(|(m, v)| MethodRow::new(m, v))
                    .collect();
                bits(&rows)
            })
            .collect()
    }

    /// The tree-shape columns built serially from `TreeShapeSamples`.
    fn serial_tree_shapes(store: &TraceStore) -> Vec<Bits> {
        let shapes = TreeShapeSamples::compute(store);
        [&shapes.ancestors, &shapes.descendants]
            .map(|samples| {
                let mut methods: Vec<MethodId> = samples.keys().copied().collect();
                methods.sort_unstable();
                let rows: Vec<MethodRow> = methods
                    .into_iter()
                    .filter(|m| samples[m].len() >= MIN_SAMPLES)
                    .filter_map(|m| MethodRow::new(m, samples[&m].clone()))
                    .collect();
                bits(&rows)
            })
            .to_vec()
    }

    fn serial_table(store: &TraceStore) -> Vec<Bits> {
        let mut columns = serial_span_columns(store);
        columns.extend(serial_tree_shapes(store));
        columns
    }

    #[test]
    fn summary_columns_match_serial_groups_at_any_width() {
        let mut run = small_run(23);
        let expect = serial_span_columns(&run.store);
        for (k, rows) in expect.iter().enumerate() {
            assert!(
                rows.len() > 2 * METHODS_PER_CHUNK,
                "column {k}: {} rows span too few chunks",
                rows.len()
            );
        }
        for threads in [1, 2, 3, 8] {
            run.config.threads = threads;
            let got = table_bits(&build_summaries(&run));
            assert_eq!(got[..SPAN_COLUMNS], expect[..], "threads={threads}");
        }
    }

    #[test]
    fn tree_shapes_match_the_serial_samples() {
        let mut run = small_run(23);
        let expect = serial_tree_shapes(&run.store);
        assert!(expect[0].len() > 2 * METHODS_PER_CHUNK);
        assert!(run.store.len() > 2 * TRACES_PER_CHUNK);
        for threads in [1, 2, 3, 8] {
            run.config.threads = threads;
            let got = table_bits(&build_summaries(&run));
            assert_eq!(got[SPAN_COLUMNS..], expect[..], "threads={threads}");
        }
    }

    #[test]
    fn summaries_skip_methods_below_the_gate() {
        let mut run = small_run(23);
        let table = build_summaries(&run);
        let mut below = 0;
        for m in run.store.methods() {
            let mut accepted = 0;
            MethodQuery::default().for_each(&run.store, m, |_, _| accepted += 1);
            let retained = run.store.spans_of(m).len();
            below += usize::from(accepted < MIN_SAMPLES);
            for k in 0..SPAN_COLUMNS {
                let row = table.get(k, m);
                assert_eq!(row.is_some(), accepted >= MIN_SAMPLES, "{m:?} column {k}");
                assert!(row.is_none_or(|s| s.count == accepted), "{m:?} column {k}");
            }
            for k in [Column::Ancestors, Column::Descendants] {
                let row = table.get(k as usize, m);
                assert_eq!(
                    row.map(|s| s.count),
                    (retained >= MIN_SAMPLES).then_some(retained)
                );
            }
        }
        assert!(below > 0, "some method must fall below the gate");
        // An empty store is one empty chunk, not a pool with no work.
        run.store = TraceStore::new();
        for threads in [1, 2, 3, 8] {
            run.config.threads = threads;
            let empty = build_summaries(&run);
            assert!((0..COLUMNS).all(|k| empty.column(k).is_empty()));
        }
    }

    #[test]
    fn summaries_are_built_once_per_run() {
        let run = small_run(23);
        BUILDS.with(|b| b.set(0));
        let first: *const MethodTable = summaries(&run);
        // Every reader of the table, in reverse artifact order.
        figs::table1::checks(&run);
        figs::table1::render(&run);
        figs::fig21::compute(&run);
        figs::fig13::compute(&run);
        figs::fig12::compute(&run);
        figs::fig11::compute(&run);
        figs::fig10::compute(&run);
        figs::fig07::compute(&run);
        figs::fig06::compute(&run);
        figs::fig05::compute(&run);
        figs::fig04::compute(&run);
        figs::fig03::compute(&run);
        figs::fig02::compute(&run);
        assert!(std::ptr::eq(first, summaries(&run)));
        assert_eq!(BUILDS.with(|b| b.get()), 1);
    }

    #[test]
    fn summaries_follow_a_replaced_store() {
        let mut run = small_run(23);
        let mut other = small_run(29);
        let before = table_bits(summaries(&run));
        run.store = std::mem::take(&mut other.store);
        let after = table_bits(summaries(&run));
        assert_ne!(after, before, "the two seeds must give different tables");
        assert_eq!(after, serial_table(&run.store));
        run.store = TraceStore::new();
        assert!(column(&run, Column::Latency).is_empty());
    }

    #[test]
    fn chunked_sweep_folds_in_chunk_order() {
        let mut run = small_run(23);
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

//! The worker pool's determinism contract: thread count is invisible.
//!
//! PR 1 pinned shard-count invariance (`shard_determinism.rs`,
//! `telemetry_determinism.rs`); the worker pool adds a second execution
//! knob, so this file pins the full (shards, threads) matrix against
//! both committed golden digests — `manifest/smoke` and
//! `manifest/chaos-smoke` in the digest registry, `crates/bench/DIGESTS`
//! — plus the per-window counter rows the SLO detectors read (adjacent
//! shards share boundary windows), and property-tests the
//! order-restoring merge (`fleet::pool::OrderedFold`) directly: whatever
//! order workers *complete* shards in, the fold is applied in shard-id
//! order, so merged accumulators never depend on scheduling.

use rpclens_bench::digests;
use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale, WINDOW_LANES};
use rpclens_fleet::faults::FaultScenario;
use rpclens_fleet::pool::OrderedFold;
use rpclens_fleet::telemetry::{manifest_for_run, window_samples};
use rpclens_obs::{ShardCounters, WindowSample};
use rpclens_simcore::rng::Prng;

fn smoke_run(faults: FaultScenario, shards: usize, threads: usize) -> FleetRun {
    run_fleet(FleetConfig {
        shards,
        threads,
        ..FleetConfig::at_scale(SimScale::smoke()).with_faults(faults)
    })
}

/// The run's TSDB holds exactly the four `driver/*` window lanes.
fn assert_only_window_lanes(run: &FleetRun) {
    assert_eq!(run.tsdb.num_series(), WINDOW_LANES.len());
    for (name, _) in WINDOW_LANES {
        assert!(run.tsdb.series(name).is_some(), "missing {name}");
    }
}

/// The acceptance matrix: every (shards, threads) combination in
/// {1,4}×{1,4} must reproduce both golden digests bit for bit and the
/// 1×1 run's window rows, and the manifest's runtime section must
/// record the actual execution shape.
#[test]
fn golden_digests_hold_across_the_shards_threads_matrix() {
    // Window rows of the 1×1 runs (fault-free, chaos-smoke): the first
    // matrix cell fills them, every later cell compares against them.
    let mut reference: Option<(Vec<WindowSample>, Vec<WindowSample>)> = None;
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let run = smoke_run(FaultScenario::none(), shards, threads);
            let manifest = manifest_for_run(&run);
            digests::check("manifest/smoke", manifest.digest());
            // Thread count is execution shape: recorded in the
            // undigested runtime section, clamped to the shard count.
            assert_eq!(manifest.runtime.shards, shards);
            assert_eq!(manifest.runtime.threads, threads.min(shards));

            let faulted = smoke_run(FaultScenario::chaos_smoke(), shards, threads);
            let faulted_manifest = manifest_for_run(&faulted);
            digests::check("manifest/chaos-smoke", faulted_manifest.digest());
            assert_eq!(
                faulted_manifest
                    .robustness
                    .as_ref()
                    .expect("chaos-smoke carries robustness")
                    .scenario,
                "chaos-smoke"
            );

            assert_only_window_lanes(&run);
            assert_only_window_lanes(&faulted);
            let rows = (window_samples(&run), window_samples(&faulted));
            match &reference {
                None => {
                    // 48 half-hour windows over the simulated day; the
                    // 4-shard split cuts windows 17, 26 and 35 between
                    // adjacent shards, whose halves must sum back.
                    assert_eq!(rows.0.len(), 48);
                    assert!(rows.1.iter().any(|w| w.retries > 0));
                    reference = Some(rows);
                }
                Some(first) => assert_eq!(
                    first, &rows,
                    "window rows differ from 1x1 at shards={shards} threads={threads}"
                ),
            }
        }
    }
}

/// A distinct, recognisable accumulator for shard `i`: real telemetry
/// counters plus an order-sensitive payload standing in for the trace
/// store (concatenation order must equal shard-id order).
fn shard_item(i: usize) -> (ShardCounters, Vec<u64>) {
    let mut c = ShardCounters::new();
    let i64 = i as u64;
    c.roots = 10 + i64;
    c.spans = 100 + 7 * i64;
    c.hedges_issued = i64 % 3;
    c.max_depth = i64 % 9;
    for k in 0..20u64 {
        c.root_latency_us.record(1 + (i64 * 37 + k * 11) % 5_000);
        c.queue.record((i64 + k) % 5 * 250);
        c.wire.record((i64 + k).is_multiple_of(4));
    }
    (c, vec![i64 * 3, i64 * 3 + 1, i64 * 3 + 2])
}

fn fold_items(acc: &mut (ShardCounters, Vec<u64>), next: (ShardCounters, Vec<u64>)) {
    acc.0.absorb(&next.0);
    acc.1.extend(next.1);
}

/// Merged accumulators are independent of worker completion order:
/// pushing shards through `OrderedFold` in a random permutation
/// yields exactly the sequential in-order fold.
#[test]
fn ordered_fold_is_completion_order_invariant() {
    let mut rng = Prng::seed_from(0x0F01_D001);
    // Equal keys complete in shard order, descending ones in reverse.
    let mut cases = vec![vec![0], vec![u64::MAX], vec![0; 23], vec![u64::MAX; 23]];
    cases.push((0..23).rev().collect());
    cases.resize_with(64, || {
        (0..1 + rng.index(23)).map(|_| rng.next_u64()).collect()
    });
    for (case, keys) in cases.into_iter().enumerate() {
        let n = keys.len();
        // Derive a completion permutation from the random keys.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let inputs = format!("case {case}: completion order {order:?}");

        let mut sequential = OrderedFold::new();
        for i in 0..n {
            sequential.push(i, shard_item(i), fold_items);
        }
        let expected = sequential.finish();

        let mut shuffled = OrderedFold::new();
        for &i in &order {
            shuffled.push(i, shard_item(i), fold_items);
        }
        assert_eq!(shuffled.folded(), n, "{inputs}");
        let got = shuffled.finish();

        // Order-sensitive payload merged in shard-id order, not
        // completion order.
        assert_eq!(&got.1, &expected.1, "{inputs}");
        let flat: Vec<u64> = (0..3 * n as u64).collect();
        assert_eq!(&got.1, &flat, "{inputs}");
        // Counters identical field for field (absorb is a sum/max fold,
        // but equality of the full struct also covers the histograms).
        assert_eq!(
            format!("{:?}", got.0),
            format!("{:?}", expected.0),
            "{inputs}"
        );
    }
}

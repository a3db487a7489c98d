//! The parallel driver's central guarantee: neither shard count nor
//! thread count may change a single bit of any output.
//!
//! A sharded run partitions the root workload across worker threads, each
//! with its own network instance and accumulators, then folds the shards
//! back together in shard-id order. The determinism contract (see
//! `docs/ARCHITECTURE.md`) promises that this fold reproduces the
//! single-threaded run exactly — so every figure and table regenerated
//! from a run is bit-identical no matter how many cores were used.
//! A smoke run's rendered artifacts are also pinned, as `figures/smoke`
//! in the digest registry, `crates/bench/DIGESTS`.

use rpclens_bench::{digests, produce, Artifact};
use rpclens_core::figs::table2;
use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
use rpclens_obs::manifest::fnv1a;
use rpclens_simcore::time::SimDuration;

fn run_with_shards(shards: usize) -> FleetRun {
    let scale = SimScale {
        name: "determinism",
        total_methods: 320,
        roots: 4_000,
        duration: SimDuration::from_hours(24),
        trace_sample_rate: 1,
        profiler_sample_cap: 10_000,
        seed: 23,
    };
    let mut config = FleetConfig::at_scale(scale);
    config.shards = shards;
    run_fleet(config)
}

#[test]
fn figures_are_bit_identical_at_any_shard_count() {
    let mut base = run_with_shards(1);

    // The analysis reads `config.threads` too (the per-method summary
    // table and Table 2's site sweep run on that many pool workers), so
    // its width must not show either. Two is the benchmark's width;
    // three splits the chunks unevenly across the workers. The table is
    // built once per run, so each width gets a fresh run.
    base.config.threads = 1;
    let serial: Vec<String> = Artifact::ALL
        .iter()
        .map(|&artifact| produce(artifact, Some(&base)).0)
        .collect();
    for threads in [2, 3] {
        let mut wide_run = run_with_shards(1);
        wide_run.config.threads = threads;
        for (artifact, text) in Artifact::ALL.into_iter().zip(&serial) {
            let (wide, _) = produce(artifact, Some(&wide_run));
            assert_eq!(
                &wide,
                text,
                "artifact {} differs at threads={threads}",
                artifact.name()
            );
        }
    }
    assert!(
        base.sites.len() > 64,
        "the sweep must span several 64-site chunks"
    );
    let mut table2_bits = |threads| {
        base.config.threads = threads;
        table2::compute(&base)
            .rows
            .iter()
            .map(|r| (r.min.to_bits(), r.max.to_bits()))
            .collect::<Vec<_>>()
    };
    let one = table2_bits(1);
    assert_eq!(table2_bits(2), one, "table2 rows differ at threads=2");
    assert_eq!(table2_bits(3), one, "table2 rows differ at threads=3");

    for shards in [2usize, 8] {
        let run = run_with_shards(shards);

        // Raw simulation outputs first — cheap to diagnose when they
        // differ, and they are the inputs every figure derives from.
        assert_eq!(base.total_spans, run.total_spans, "shards={shards}");
        assert_eq!(base.method_calls, run.method_calls, "shards={shards}");
        assert_eq!(base.method_bytes, run.method_bytes, "shards={shards}");
        assert_eq!(base.store.len(), run.store.len(), "shards={shards}");
        for (i, (a, b)) in base
            .store
            .traces()
            .iter()
            .zip(run.store.traces())
            .enumerate()
        {
            assert_eq!(a.root_start, b.root_start, "trace {i} at shards={shards}");
            assert_eq!(a.spans, b.spans, "trace {i} spans at shards={shards}");
        }
        assert_eq!(
            base.errors.kinds_by_count(),
            run.errors.kinds_by_count(),
            "shards={shards}"
        );
        assert_eq!(
            base.profiler.total_cycles(),
            run.profiler.total_cycles(),
            "shards={shards}"
        );

        // Then the deliverables themselves: every rendered figure and
        // table, compared as exact text.
        for (artifact, a) in Artifact::ALL.into_iter().zip(&serial) {
            let (b, _) = produce(artifact, Some(&run));
            assert_eq!(
                a,
                &b,
                "artifact {} differs at shards={shards}",
                artifact.name()
            );
        }
    }
}

/// The per-method figures share one summary table per run, built by
/// whichever artifact asks first; no artifact's text may depend on which
/// one that was.
#[test]
fn figures_do_not_depend_on_artifact_order() {
    let forward = run_with_shards(1);
    let in_order: Vec<String> = Artifact::ALL
        .iter()
        .map(|&artifact| produce(artifact, Some(&forward)).0)
        .collect();
    let backward = run_with_shards(1);
    for (artifact, text) in Artifact::ALL.into_iter().zip(&in_order).rev() {
        let (reversed, _) = produce(artifact, Some(&backward));
        assert_eq!(
            &reversed,
            text,
            "artifact {} differs when the artifacts run in reverse order",
            artifact.name()
        );
    }
}

/// The rendered deliverables themselves, pinned: a smoke run (seed 7)
/// must render every artifact — text and check lines — exactly as the
/// `figures/smoke` entry of `crates/bench/DIGESTS` records. Analysis
/// refactors that mean to change no output are held to this.
#[test]
fn smoke_figures_match_committed_digest() {
    let run = run_fleet(FleetConfig::at_scale(SimScale::smoke()));
    let mut rendered = Vec::new();
    for artifact in Artifact::ALL {
        let (text, checks) = produce(artifact, Some(&run));
        rendered.extend_from_slice(text.as_bytes());
        rendered.extend_from_slice(checks.to_string().as_bytes());
    }
    digests::check("figures/smoke", fnv1a(&rendered));
}

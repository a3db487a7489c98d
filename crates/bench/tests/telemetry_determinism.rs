//! The observability plane's own determinism guarantee: the manifest's
//! `deterministic` section must be byte-identical at any shard count.
//!
//! This is the companion to `shard_determinism.rs`. The simulation
//! outputs being bit-identical is necessary but not sufficient — the
//! telemetry layer folds per-shard counters, reservoirs, and histograms
//! on top, and any order-sensitivity there would surface here. The
//! `runtime` section (wall-clock phase timings, per-shard shapes) is
//! explicitly excluded: it is labeled non-deterministic by design.
//!
//! The smoke manifest digest is pinned as `manifest/smoke` in the
//! digest registry, `crates/bench/DIGESTS`.

use rpclens_bench::digests;
use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
use rpclens_fleet::telemetry::manifest_for_run;
use rpclens_obs::RunManifest;
use rpclens_simcore::time::SimDuration;

/// Any drift in rng consumption order, sampler math, or accumulator
/// folding moves the smoke digest. If this test fails, the change altered
/// simulation *behaviour*, not just its speed.
#[test]
fn smoke_manifest_digest_matches_golden_at_1_and_4_shards() {
    for shards in [1usize, 4] {
        let mut config = FleetConfig::at_scale(SimScale::smoke());
        config.shards = shards;
        let run = run_fleet(config);
        digests::check("manifest/smoke", manifest_for_run(&run).digest());
    }
}

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
fn manifest_deterministic_section_is_byte_identical_at_any_shard_count() {
    let base = run_with_shards(1);
    let base_manifest = manifest_for_run(&base);
    let base_bytes = base_manifest.deterministic_json();
    for shards in [2usize, 8] {
        let run = run_with_shards(shards);
        let manifest = manifest_for_run(&run);

        // Field-level comparison first: cheap to diagnose on failure.
        assert_eq!(
            base_manifest.deterministic, manifest.deterministic,
            "deterministic section differs at shards={shards}"
        );
        // Then the rendered bytes, which is what a user diffs on disk.
        assert_eq!(
            base_bytes,
            manifest.deterministic_json(),
            "deterministic JSON bytes differ at shards={shards}"
        );
        // The runtime section must reflect the actual execution shape —
        // it is the explicitly labeled non-deterministic remainder.
        assert_eq!(manifest.runtime.shards, shards, "shards={shards}");
        assert_eq!(manifest.runtime.per_shard.len(), shards, "shards={shards}");

        // The full manifest (runtime included) still parses, and the
        // digest binds exactly the deterministic bytes.
        let back = RunManifest::parse(&manifest.to_json_string()).expect("manifest roundtrip");
        assert_eq!(back.deterministic, base_manifest.deterministic);

        // Per-method profiler reservoirs are part of the contract too:
        // they merge via deterministic bottom-k, so capped methods keep
        // identical sample sets.
        for method in base.profiler.methods_with_samples(1) {
            assert_eq!(
                base.profiler.method_samples(method),
                run.profiler.method_samples(method),
                "method {method} samples differ at shards={shards}"
            );
        }
    }
}

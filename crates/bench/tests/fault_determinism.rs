//! The fault plane's determinism contract, pinned end to end.
//!
//! Three guarantees, in order of how expensive they are to regain once
//! lost:
//!
//! 1. `--faults none` is the pre-fault-plane simulator bit for bit: the
//!    smoke manifest digest stays at its historical golden value at any
//!    shard count (no new rng draws anywhere on the fault-free path).
//! 2. A fault scenario is itself shard-count-invariant: episode
//!    trajectories derive from `(seed, entity)` alone, so every preset
//!    produces identical manifests — digest *and* robustness section —
//!    at 1 and 4 shards.
//! 3. The chaos-smoke digest matches the committed expectation in
//!    `crates/bench/FAULT_SMOKE_DIGEST`, the same value the CI
//!    fault-smoke step greps for. Re-baseline both together, never one.

use rpclens_core::figs::fig23;
use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
use rpclens_fleet::faults::FaultScenario;
use rpclens_fleet::telemetry::{manifest_for_run, slo_findings, DEFAULT_TAIL_TOLERANCE};
use rpclens_obs::{Severity, SloConfig};

/// Golden digest of the fault-free smoke manifest; must match the value
/// pinned in `telemetry_determinism.rs`.
const SMOKE_GOLDEN_DIGEST: u64 = 4965560232275073350;

/// Committed chaos-smoke digest expectation, shared with the CI
/// fault-smoke gate.
fn fault_smoke_digest() -> u64 {
    include_str!("../FAULT_SMOKE_DIGEST")
        .trim()
        .parse()
        .expect("FAULT_SMOKE_DIGEST holds one u64")
}

/// Committed incident-smoke digest expectation, shared with the CI
/// incident-smoke gate.
fn incident_smoke_digest() -> u64 {
    include_str!("../INCIDENT_SMOKE_DIGEST")
        .trim()
        .parse()
        .expect("INCIDENT_SMOKE_DIGEST holds one u64")
}

fn smoke_run(faults: FaultScenario, shards: usize) -> FleetRun {
    run_fleet(FleetConfig {
        shards,
        ..FleetConfig::at_scale(SimScale::smoke()).with_faults(faults)
    })
}

#[test]
fn faults_none_preserves_the_golden_digest() {
    for shards in [1usize, 4] {
        let run = smoke_run(FaultScenario::none(), shards);
        let manifest = manifest_for_run(&run);
        assert_eq!(
            manifest.digest(),
            SMOKE_GOLDEN_DIGEST,
            "--faults none drifted from the golden smoke digest at shards={shards}"
        );
        assert!(
            manifest.robustness.is_none(),
            "fault-free manifests must not carry a robustness section"
        );
    }
}

#[test]
fn chaos_smoke_is_bit_identical_across_shard_counts() {
    // Every preset, not only chaos-smoke: the digested deterministic
    // section and the (undigested but still deterministic) robustness
    // section must both match exactly at 1 and 4 shards.
    for name in FaultScenario::PRESETS {
        let faults = FaultScenario::by_name(name).expect("preset resolves");
        let one = manifest_for_run(&smoke_run(faults, 1));
        let four = manifest_for_run(&smoke_run(faults, 4));
        assert_eq!(
            one.digest(),
            four.digest(),
            "{name} deterministic sections diverge across shard counts"
        );
        assert_eq!(one.deterministic, four.deterministic, "{name}");
        assert_eq!(
            one.robustness, four.robustness,
            "{name} robustness sections diverge across shard counts"
        );
        if name != "chaos-smoke" {
            continue;
        }
        // Faults actually fired: the scenario is not a silent no-op.
        let r = one
            .robustness
            .as_ref()
            .expect("chaos-smoke carries robustness");
        assert_eq!(r.scenario, "chaos-smoke");
        assert!(r.retries_issued > 0, "no retries executed");
        assert!(r.failovers > 0, "no failovers executed");
        assert!(r.causal_unavailable > 0, "no causal unavailability");
        assert!(r.deadline_exceeded > 0, "no deadline expirations");
        // And the scenario digest differs from the fault-free golden one.
        assert_ne!(one.digest(), SMOKE_GOLDEN_DIGEST);
    }
}

#[test]
fn chaos_smoke_digest_matches_committed_expectation() {
    let manifest = manifest_for_run(&smoke_run(FaultScenario::chaos_smoke(), 1));
    assert_eq!(
        manifest.digest(),
        fault_smoke_digest(),
        "chaos-smoke digest drifted from crates/bench/FAULT_SMOKE_DIGEST; \
         if the drift is intentional, re-baseline the file and the CI gate together"
    );
}

#[test]
fn incident_smoke_is_bit_identical_across_shards_and_threads() {
    // The incident plane draws shared cross-entity trajectories and the
    // control plane reacts to them on window boundaries — neither may
    // observe anything a shard computed, so the full (shards, threads)
    // matrix must agree with the committed expectation in
    // `crates/bench/INCIDENT_SMOKE_DIGEST` (the CI incident-smoke gate
    // greps for the same value; re-baseline both together, never one).
    let expected = incident_smoke_digest();
    let mut reference: Option<rpclens_obs::RunManifest> = None;
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let run = run_fleet(FleetConfig {
                shards,
                threads,
                ..FleetConfig::at_scale(SimScale::smoke())
                    .with_faults(FaultScenario::incident_smoke())
            });
            let manifest = manifest_for_run(&run);
            assert_eq!(
                manifest.digest(),
                expected,
                "incident-smoke digest drifted from crates/bench/INCIDENT_SMOKE_DIGEST \
                 at shards={shards} threads={threads}; if the drift is intentional, \
                 re-baseline the file and the CI gate together"
            );
            match &reference {
                None => reference = Some(manifest),
                Some(first) => {
                    assert_eq!(first.deterministic, manifest.deterministic);
                    assert_eq!(
                        first.robustness, manifest.robustness,
                        "incident/controller tables diverge at shards={shards} threads={threads}"
                    );
                }
            }
        }
    }
    // The scenario actually struck: every incident kind has a blast
    // radius, and the controllers actually acted.
    let r = reference
        .as_ref()
        .and_then(|m| m.robustness.as_ref())
        .expect("incident-smoke carries robustness");
    assert_eq!(r.incidents.len(), 3, "{:?}", r.incidents);
    assert!(
        r.incidents
            .iter()
            .all(|&(_, struck, eps)| struck > 0 && eps > 0),
        "{:?}",
        r.incidents
    );
    let controller = |name: &str| {
        r.controllers
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing controller row {name}: {:?}", r.controllers))
            .1
    };
    assert!(controller("autoscaler_scaled_windows") > 0);
    assert!(controller("admission_offered") > 0);
    assert_eq!(
        controller("admission_admitted")
            + controller("admission_shed")
            + controller("admission_abandoned"),
        controller("admission_offered"),
        "bounded admission must conserve offered calls"
    );
}

#[test]
fn inspect_controllers_renders_the_timeline_of_the_run_at_its_scale() {
    // `rpclens-inspect controllers --scale smoke` without `--seed` must
    // reconstruct the timeline of the run `repro --scale smoke` executes
    // (the scale's own seed), so its capacity entries (`cNxF`, one per
    // scaled cluster-window) count exactly the manifest's
    // `autoscaler_scaled_windows`.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rpclens-inspect"))
        .args([
            "controllers",
            "--faults",
            "incident-smoke",
            "--scale",
            "smoke",
        ])
        .output()
        .expect("rpclens-inspect runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 timeline");
    let capacity_entries = text
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|word| {
            word.strip_prefix('c')
                .and_then(|w| w.split_once('x'))
                .is_some_and(|(cluster, factor)| {
                    cluster.parse::<u16>().is_ok() && factor.parse::<f64>().is_ok()
                })
        })
        .count() as u64;
    let manifest = manifest_for_run(&smoke_run(FaultScenario::incident_smoke(), 1));
    let scaled_windows = manifest
        .robustness
        .as_ref()
        .and_then(|r| {
            r.controllers
                .iter()
                .find(|(name, _)| name == "autoscaler_scaled_windows")
        })
        .expect("incident-smoke reports autoscaler activity")
        .1;
    assert!(scaled_windows > 0);
    assert_eq!(capacity_entries, scaled_windows, "{text}");
}

#[test]
fn closed_loop_controllers_reduce_steady_state_shedding() {
    // `incident-open-loop` is `incident-smoke` minus the control plane:
    // the same seeded incident schedule strikes the same entities at the
    // same times, but nothing reacts. The closed loop must turn fewer
    // calls away — capacity absorbs the overload fronts the open loop
    // can only shed against.
    let open = smoke_run(FaultScenario::incident_open_loop(), 1);
    let closed = smoke_run(FaultScenario::incident_smoke(), 1);
    let open_sheds = open.telemetry.counters.resilience.load_sheds;
    let closed_turned_away = closed.telemetry.counters.resilience.load_sheds
        + closed.telemetry.counters.control.admission_abandoned;
    assert!(open_sheds > 0, "open loop never shed under incidents");
    let open_rate = open_sheds as f64 / open.total_spans as f64;
    let closed_rate = closed_turned_away as f64 / closed.total_spans as f64;
    assert!(
        closed_rate < open_rate,
        "closed-loop turn-away rate {closed_rate:.5} must beat open-loop {open_rate:.5} \
         ({closed_turned_away}/{} vs {open_sheds}/{})",
        closed.total_spans,
        open.total_spans
    );
}

#[test]
fn chaos_smoke_reconciles_with_fig23() {
    let run = smoke_run(FaultScenario::chaos_smoke(), 1);
    let fig = fig23::compute(&run);
    let checks = fig23::causal_checks(&fig);
    assert!(checks.all_passed(), "{checks}");
}

#[test]
fn repro_counts_each_causal_fig23_check_once() {
    // Under chaos-smoke the causal Fig. 23 checks gate every `repro` run:
    // with the figure when Fig. 23 is requested, as a standalone block
    // when it is not. Either way each check is printed and counted once.
    let fig = fig23::compute(&smoke_run(FaultScenario::chaos_smoke(), 1));
    let ids: Vec<String> = fig23::causal_checks(&fig)
        .items
        .into_iter()
        .map(|check| check.id)
        .collect();
    assert_eq!(ids.len(), 5);
    for artifact in ["fig23", "fig2"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([artifact, "--scale", "smoke", "--faults", "chaos-smoke"])
            .output()
            .expect("repro runs");
        let text = String::from_utf8(out.stdout).expect("utf-8 output");
        for id in &ids {
            assert_eq!(
                text.matches(id.as_str()).count(),
                1,
                "{artifact}: {id}\n{text}"
            );
        }
        if artifact == "fig23" {
            assert!(out.status.success(), "{text}");
            assert!(text.contains("TOTAL: 5/5 "), "{text}");
        }
    }
}

#[test]
fn overload_collapse_storm_is_clamped_by_the_retry_budget() {
    let run = smoke_run(FaultScenario::overload_collapse(), 1);
    let manifest = manifest_for_run(&run);
    let r = manifest.robustness.as_ref().expect("robustness section");
    assert!(r.load_sheds > 0, "overload never shed load");
    assert!(
        r.retries_denied > 0,
        "the retry budget never denied a retry under collapse"
    );
    // The retry-storm detector must report the amplification as clamped
    // (Info), not a storm: the token-bucket budget is doing its job.
    let findings = slo_findings(&run, None, &SloConfig::default(), DEFAULT_TAIL_TOLERANCE);
    let overall = findings
        .iter()
        .find(|f| f.detector == "retry-storm" && f.subject == "overall")
        .expect("retry-storm overall finding");
    assert_eq!(overall.severity, Severity::Info, "{overall:?}");
    assert!(
        overall.detail.contains("budget clamped"),
        "{}",
        overall.detail
    );
}

//! Adapters from a completed [`FleetRun`] to the observability plane.
//!
//! `rpclens-obs` sits at the bottom of the dependency graph and knows
//! nothing about catalogs, profilers, or the TSDB; this module is the
//! glue. It builds the versioned run manifest from a run's telemetry and
//! rollups, converts the driver's per-window TSDB streams into the plain
//! [`WindowSample`] rows the detectors consume, and assembles the
//! end-of-run SLO report.
//!
//! Everything here is deterministic: manifests are built from integer
//! counters only (the `runtime` section carries the labeled wall-clock
//! fields), and window samples are reconstructed from cumulative
//! counters the driver wrote in sorted window order.

use crate::conditions::Environment;
use crate::driver::{FleetRun, WINDOW_LANES};
use rpclens_obs::{
    error_budget_burn, metastable_overload, retry_storm, tail_regression, Finding,
    RobustnessSection, RunManifest, SloConfig, WindowSample,
};
use rpclens_rpcstack::cost::CycleCategory;
use rpclens_rpcstack::error::ErrorKind;
use rpclens_tsdb::store::Series;
use std::collections::HashMap;

/// Default fractional tolerance for tail-latency regression checks.
pub const DEFAULT_TAIL_TOLERANCE: f64 = 0.10;

/// Reference per-window RPC count at which the default detector bands
/// are calibrated. Windows this full (or fuller) use the fleet-default
/// thresholds unchanged.
const BAND_REFERENCE_PER_WINDOW: f64 = 5_000.0;

/// Detector thresholds scaled to the preset's statistics.
///
/// Per-window error counts are binomial, so their relative noise grows
/// as `1/sqrt(n)` when windows get sparse. At the `smoke` preset a
/// 24-hour run spreads ~6k roots over 48 half-hour windows — ~125 RPCs
/// each — where a single unlucky error already reads as a 8x budget
/// burn against a 99.9% objective. Those findings are sampling noise,
/// not regressions (`docs/KNOWN_ISSUES.md`). This widens the
/// burn-rate and tail-tolerance bands by the relative-noise ratio
/// versus a reference window of 5k RPCs; at `paper`/`fleet` scale the
/// factor clamps to 1.0 and the fleet defaults apply unchanged.
pub fn detector_bands(scale: &crate::driver::SimScale) -> (SloConfig, f64) {
    let windows = (scale.duration.as_nanos() as f64
        / rpclens_tsdb::DEFAULT_SAMPLE_PERIOD.as_nanos() as f64)
        .max(1.0);
    let per_window = (scale.roots as f64 / windows).max(1.0);
    let factor = (BAND_REFERENCE_PER_WINDOW / per_window).sqrt().max(1.0);
    let slo = SloConfig {
        warn_burn_rate: SloConfig::default().warn_burn_rate * factor,
        ..SloConfig::default()
    };
    (slo, DEFAULT_TAIL_TOLERANCE * factor)
}

/// Builds the versioned run manifest for a completed run.
///
/// Error kinds and cycle categories are emitted in their canonical enum
/// order (zero entries included) so the rendered bytes never depend on
/// count-ordering ties.
pub fn manifest_for_run(run: &FleetRun) -> RunManifest {
    let counts: HashMap<ErrorKind, u64> = run.errors.kinds_by_count().into_iter().collect();
    let errors_by_kind: Vec<(String, u64)> = ErrorKind::ALL
        .iter()
        .map(|&k| (k.label().to_string(), counts.get(&k).copied().unwrap_or(0)))
        .collect();
    let cycles_by_category: Vec<(String, u128)> = CycleCategory::ALL
        .iter()
        .map(|&c| (c.label().to_string(), run.profiler.category_cycles(c)))
        .collect();
    // Integer cycle-tax computation: ppm of total cycles spent outside
    // the application category. Avoids float rounding in the manifest.
    let total = run.profiler.total_cycles();
    let app = run.profiler.category_cycles(CycleCategory::Application);
    let tax_ppm = ((total - app) * 1_000_000).checked_div(total).unwrap_or(0) as u64;
    let mut manifest = RunManifest::from_telemetry(
        &run.telemetry,
        run.config.scale.seed,
        run.config.scale.name,
        run.catalog.num_methods() as u64,
        run.store.total_spans() as u64,
        errors_by_kind,
        cycles_by_category,
        tax_ppm,
    );
    // Fault-scenario runs carry the robustness section: the executed
    // resilience counters plus the Fig. 23 count/wasted-cycle table. It
    // lives outside the digested deterministic body, so fault-free runs
    // keep their golden digests.
    if run.config.faults.injects_faults() || run.config.faults.retry.is_some() {
        let r = &run.telemetry.counters.resilience;
        manifest.robustness = Some(RobustnessSection {
            scenario: run.config.faults.name.to_string(),
            retries_issued: r.retries_issued,
            retries_denied: r.retries_denied,
            failovers: r.failovers,
            causal_unavailable: r.causal_unavailable,
            load_sheds: r.load_sheds,
            deadline_exceeded: r.deadline_exceeded,
            errors: ErrorKind::ALL
                .iter()
                .map(|&k| {
                    (
                        k.label().to_string(),
                        run.errors.count(k),
                        run.errors.wasted_cycles(k),
                    )
                })
                .collect(),
            incidents: incident_rows(run),
            controllers: controller_rows(run),
        });
    }
    manifest
}

/// The run's fault plane, fresh: each whole-run report walks time in
/// order on its own.
fn environment(run: &FleetRun) -> Environment {
    Environment::new(&run.config.faults, run.config.scale.seed, &run.topology)
}

/// Incident blast-radius rows for the manifest: entities struck and
/// distinct episodes per incident kind. Reconstructed from the seed —
/// incident trajectories are pure functions of `(seed, spec)`, so no
/// per-shard counter carries them (a counter would multiply by the
/// shard count and break shard invariance).
fn incident_rows(run: &FleetRun) -> Vec<(String, u64, u64)> {
    environment(run)
        .incident_summary(run.config.scale.duration)
        .into_iter()
        .map(|row| (row.kind.to_string(), row.entities_struck, row.episodes))
        .collect()
}

/// Controller activity rows for the manifest: the autoscaler timeline
/// reconstructed from the seed (shard-invariant by construction) plus
/// the per-call admission and load-balancer event counters.
fn controller_rows(run: &FleetRun) -> Vec<(String, u64)> {
    if run.config.faults.control.is_none() {
        return Vec::new();
    }
    let (scaled_windows, peak_permille) =
        environment(run).autoscaler_activity(run.config.scale.duration);
    let c = &run.telemetry.counters.control;
    vec![
        ("autoscaler_scaled_windows".to_string(), scaled_windows),
        (
            "autoscaler_peak_capacity_permille".to_string(),
            peak_permille,
        ),
        ("lb_shifts".to_string(), c.lb_shifts),
        ("admission_offered".to_string(), c.admission_offered),
        ("admission_admitted".to_string(), c.admitted()),
        ("admission_shed".to_string(), c.admission_shed),
        ("admission_abandoned".to_string(), c.admission_abandoned),
    ]
}

/// Reconstructs per-window [`WindowSample`] rows from the driver's
/// cumulative `driver/*` lanes ([`WINDOW_LANES`]). The driver writes
/// every lane on the same window set, so the lanes zip point by point.
pub fn window_samples(run: &FleetRun) -> Vec<WindowSample> {
    let period = rpclens_tsdb::DEFAULT_SAMPLE_PERIOD.as_nanos();
    let [rpcs, errors, congested, retries] = WINDOW_LANES.map(|(name, _)| {
        run.tsdb
            .series(name)
            .map(Series::deltas)
            .unwrap_or_default()
    });
    assert!(
        [&errors, &congested, &retries]
            .iter()
            .all(|lane| lane.len() == rpcs.len()),
        "driver lanes cover different windows"
    );
    rpcs.iter()
        .zip(&errors)
        .zip(&congested)
        .zip(&retries)
        .map(
            |((((t, rpcs), (_, errors)), (_, congested)), (_, retries))| WindowSample {
                window: t.as_nanos() / period,
                rpcs: *rpcs,
                errors: *errors,
                congested_wire: *congested,
                retries: *retries,
            },
        )
        .collect()
}

/// Runs the detector suite over a completed run: error-budget burn,
/// retry-storm amplification, and metastable-overload collapse on the
/// live per-window streams, and — when a baseline manifest is supplied —
/// tail-latency regression of the root-latency quantiles against it.
pub fn slo_findings(
    run: &FleetRun,
    baseline: Option<&RunManifest>,
    slo: &SloConfig,
    tail_tolerance: f64,
) -> Vec<Finding> {
    let samples = window_samples(run);
    let mut findings = error_budget_burn(slo, &samples);
    // The retry-storm detector judges amplification against the budget
    // ratio the run was actually configured with (0.1 when the scenario
    // sets none).
    let budget_ratio = run.config.faults.retry.map_or(0.1, |rs| rs.budget_ratio);
    findings.extend(retry_storm(budget_ratio, &samples));
    findings.extend(metastable_overload(&samples));
    if let Some(base) = baseline {
        let current = manifest_for_run(run);
        findings.extend(tail_regression(
            &current.deterministic.root_latency,
            &base.deterministic.root_latency,
            tail_tolerance,
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_fleet, FleetConfig, SimScale};
    use rpclens_simcore::time::SimDuration;

    fn tiny_run() -> FleetRun {
        let scale = SimScale {
            name: "test",
            total_methods: 320,
            roots: 4_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1,
            profiler_sample_cap: 10_000,
            seed: 19,
        };
        run_fleet(FleetConfig::at_scale(scale))
    }

    #[test]
    fn manifest_reflects_run_counters() {
        let run = tiny_run();
        let m = manifest_for_run(&run);
        let d = &m.deterministic;
        assert_eq!(d.seed, 19);
        assert_eq!(d.scale, "test");
        assert_eq!(d.roots, 4_000);
        assert_eq!(d.spans, run.total_spans);
        assert_eq!(d.trace_stored_spans, run.store.total_spans() as u64);
        assert_eq!(d.errors_total, run.errors.total_errors());
        assert_eq!(d.cycles_total, run.profiler.total_cycles());
        assert_eq!(d.root_latency.count, 4_000);
        assert!(d.root_latency.p50_us > 0);
        assert!(d.root_latency.p999_us >= d.root_latency.p99_us);
        assert!(d.tax_ppm > 0 && d.tax_ppm < 1_000_000, "tax {}", d.tax_ppm);
        // Canonical, zero-inclusive category lists.
        assert_eq!(d.errors_by_kind.len(), 8);
        assert_eq!(d.cycles_by_category.len(), 8);
        // Runtime section carries the execution shape.
        assert!(m.runtime.shards >= 1);
        assert!(!m.runtime.phases.is_empty());
        // Manifest round-trips through its own JSON.
        let back = RunManifest::parse(&m.to_json_string()).expect("roundtrip");
        assert_eq!(back.deterministic, m.deterministic);
    }

    #[test]
    fn incident_manifest_reports_incidents_and_controllers() {
        let scale = SimScale {
            name: "test",
            total_methods: 320,
            roots: 4_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1,
            profiler_sample_cap: 10_000,
            seed: 19,
        };
        let mut config = FleetConfig::at_scale(scale);
        config.faults = crate::faults::FaultScenario::incident_smoke();
        let run = run_fleet(config);
        let m = manifest_for_run(&run);
        let rob = m.robustness.as_ref().expect("robustness section");
        // All three incident kinds have trajectories at this eligibility.
        let kinds: Vec<&str> = rob.incidents.iter().map(|(k, _, _)| k.as_str()).collect();
        assert_eq!(kinds, ["cluster-drain", "wan-cut", "overload-front"]);
        assert!(rob
            .incidents
            .iter()
            .all(|&(_, struck, eps)| struck > 0 && eps > 0));
        // Controller rows mirror the run's control counters, and the
        // admission ledger conserves offered calls.
        let c = &run.telemetry.counters.control;
        assert_eq!(
            c.admitted() + c.admission_shed + c.admission_abandoned,
            c.admission_offered
        );
        let row = |name: &str| {
            rob.controllers
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing controller row {name}"))
                .1
        };
        assert_eq!(row("admission_offered"), c.admission_offered);
        assert_eq!(row("admission_shed"), c.admission_shed);
        assert_eq!(row("admission_abandoned"), c.admission_abandoned);
        assert_eq!(row("lb_shifts"), c.lb_shifts);
        // Incidents push at least one cluster into sustained overload,
        // so the autoscaler must have scaled at least one window.
        assert!(row("autoscaler_scaled_windows") > 0);
        assert!(row("autoscaler_peak_capacity_permille") > 1_000);
        // The robustness section survives a JSON round-trip.
        let back = RunManifest::parse(&m.to_json_string()).expect("roundtrip");
        let back_rob = back.robustness.expect("robustness after roundtrip");
        assert_eq!(back_rob.incidents, rob.incidents);
        assert_eq!(back_rob.controllers, rob.controllers);
    }

    #[test]
    fn window_samples_sum_to_run_totals() {
        let run = tiny_run();
        let samples = window_samples(&run);
        // 30-minute windows over a 24 h run: up to 48 populated windows.
        assert!(samples.len() >= 40, "{} windows", samples.len());
        let rpcs: u64 = samples.iter().map(|s| s.rpcs).sum();
        let errors: u64 = samples.iter().map(|s| s.errors).sum();
        let congested: u64 = samples.iter().map(|s| s.congested_wire).sum();
        assert_eq!(rpcs, run.total_spans);
        // Every error but a hedge loser's cancellation is counted in its
        // window.
        let cancelled = run.errors.count(ErrorKind::Cancelled);
        assert_eq!(errors, run.errors.total_errors() - cancelled);
        assert_eq!(congested, run.telemetry.counters.wire.congested);
        assert!(congested > 0, "expected some congested traversals");
        // Windows are strictly increasing.
        assert!(samples.windows(2).all(|w| w[0].window < w[1].window));
    }

    #[test]
    fn self_baseline_has_no_tail_regression() {
        let run = tiny_run();
        let baseline = manifest_for_run(&run);
        let findings = slo_findings(&run, Some(&baseline), &SloConfig::default(), 0.10);
        assert!(
            findings.iter().all(|f| f.detector != "tail-regression"),
            "self-comparison regressed: {findings:?}"
        );
    }

    #[test]
    fn detector_bands_widen_only_for_sparse_windows() {
        use crate::driver::SimScale;
        let (smoke_slo, smoke_tol) = detector_bands(&SimScale::smoke());
        let default_slo = SloConfig::default();
        // Smoke: ~125 RPCs per half-hour window — bands widen by the
        // relative-noise ratio, several-fold.
        assert!(smoke_slo.warn_burn_rate > default_slo.warn_burn_rate * 2.0);
        assert!(smoke_tol > DEFAULT_TAIL_TOLERANCE * 2.0);
        // The success objective itself is never touched.
        assert_eq!(smoke_slo.success_target, default_slo.success_target);
        // A dense preset (>= the reference per-window count) keeps the
        // fleet defaults exactly.
        let mut dense = SimScale::smoke();
        dense.roots = 5_000 * 48 * 10;
        let (dense_slo, dense_tol) = detector_bands(&dense);
        assert_eq!(dense_slo.warn_burn_rate, default_slo.warn_burn_rate);
        assert_eq!(dense_tol, DEFAULT_TAIL_TOLERANCE);
    }

    #[test]
    fn smoke_scale_self_baseline_is_clean_with_scaled_bands() {
        // The satellite this guards: `repro --baseline` at smoke scale
        // used to emit known-noise burn findings. With per-preset bands
        // the self-comparison must come back clean.
        let run = tiny_run();
        let (slo, tol) = detector_bands(&run.config.scale);
        let baseline = manifest_for_run(&run);
        let findings = slo_findings(&run, Some(&baseline), &slo, tol);
        assert!(
            findings.is_empty(),
            "smoke self-baseline should be noise-free: {findings:?}"
        );
    }

    #[test]
    fn degraded_baseline_triggers_regression() {
        let run = tiny_run();
        let mut baseline = manifest_for_run(&run);
        // Pretend the baseline was 2x faster at the tail.
        baseline.deterministic.root_latency.p99_us /= 2;
        baseline.deterministic.root_latency.p999_us /= 2;
        let findings = slo_findings(&run, Some(&baseline), &SloConfig::default(), 0.10);
        assert!(findings
            .iter()
            .any(|f| f.detector == "tail-regression"
                && f.severity == rpclens_obs::Severity::Critical));
    }
}

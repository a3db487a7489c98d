//! SLO and anomaly detectors over per-window metric streams.
//!
//! Four detectors, mirroring the alerting patterns the paper's fleet runs
//! on top of its Monarch-style time series:
//!
//! - [`error_budget_burn`] — multi-window burn-rate analysis of the
//!   error stream against a success-rate SLO, annotated with whether the
//!   burn coincided with network congestion episodes.
//! - [`tail_regression`] — root-latency tail comparison against a
//!   baseline run manifest.
//! - [`retry_storm`] — retry-amplification analysis: whether the volume
//!   of retries stayed below the configured `RetryBudget` ratio, overall
//!   and per window.
//! - [`metastable_overload`] — goodput-collapse windows: sustained spans
//!   where most offered work fails or is retried, the signature of a
//!   metastable overload state.
//!
//! Detectors take plain slices, not `tsdb` handles, so this crate stays
//! at the bottom of the dependency graph; `rpclens-fleet` adapts its
//! time-series streams into [`WindowSample`] rows. Both detectors are
//! pure functions: same inputs, same findings, in a deterministic order.

use crate::manifest::LatencyQuantiles;

/// SLO parameters for the burn-rate detector.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Success-rate objective in `(0, 1)`, e.g. `0.999`.
    pub success_target: f64,
    /// Burn-rate multiple that raises a warning; `burn >= 2 *
    /// warn_burn_rate` escalates to critical.
    pub warn_burn_rate: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        // 99.9% success objective; warn when errors burn budget at 10x
        // the sustainable rate (a standard fast-burn page threshold).
        SloConfig {
            success_target: 0.999,
            warn_burn_rate: 10.0,
        }
    }
}

/// One aggregation window of driver counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Window index (aligned simulated time / window length).
    pub window: u64,
    /// RPCs completed in the window.
    pub rpcs: u64,
    /// Errors injected in the window.
    pub errors: u64,
    /// Wire traversals in the window that hit a congestion episode.
    pub congested_wire: u64,
    /// Retry attempts issued in the window (each is also counted in
    /// `rpcs`, like hedges).
    pub retries: u64,
}

/// How urgent a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; no action implied.
    Info,
    /// Outside tolerance; worth a look.
    Warn,
    /// Far outside tolerance; the run regressed materially.
    Critical,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        })
    }
}

/// One detector result.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which detector produced this (`error-budget-burn`, `tail-regression`).
    pub detector: &'static str,
    /// What the finding is about (a window, a quantile, ...).
    pub subject: String,
    /// Urgency.
    pub severity: Severity,
    /// Human-readable explanation with the numbers that triggered it.
    pub detail: String,
}

/// Scans per-window samples for error-budget burn above the SLO's
/// sustainable rate. Returns findings in window order; windows with no
/// traffic are skipped.
pub fn error_budget_burn(cfg: &SloConfig, windows: &[WindowSample]) -> Vec<Finding> {
    assert!(
        cfg.success_target > 0.0 && cfg.success_target < 1.0,
        "success_target must be in (0,1), got {}",
        cfg.success_target
    );
    let budget = 1.0 - cfg.success_target;
    let mut findings = Vec::new();
    for w in windows {
        if w.rpcs == 0 {
            continue;
        }
        let error_rate = w.errors as f64 / w.rpcs as f64;
        let burn = error_rate / budget;
        if burn < cfg.warn_burn_rate {
            continue;
        }
        let severity = if burn >= 2.0 * cfg.warn_burn_rate {
            Severity::Critical
        } else {
            Severity::Warn
        };
        let congestion = if w.congested_wire > 0 {
            format!(", {} congested wire traversals in window", w.congested_wire)
        } else {
            String::new()
        };
        findings.push(Finding {
            detector: "error-budget-burn",
            subject: format!("window {}", w.window),
            severity,
            detail: format!(
                "burn rate {burn:.1}x sustainable ({} errors / {} rpcs vs {:.4}% budget{congestion})",
                w.errors,
                w.rpcs,
                budget * 100.0
            ),
        });
    }
    findings
}

/// Compares current root-latency quantiles against a baseline manifest's.
/// A quantile more than `tolerance` (fractional, e.g. `0.10`) above the
/// baseline is a warning; more than `2 * tolerance` is critical. An
/// *improvement* beyond tolerance is reported as info so it is visible
/// when rebaselining.
pub fn tail_regression(
    current: &LatencyQuantiles,
    baseline: &LatencyQuantiles,
    tolerance: f64,
) -> Vec<Finding> {
    assert!(tolerance > 0.0, "tolerance must be positive");
    let mut findings = Vec::new();
    let pairs = [
        ("p50", current.p50_us, baseline.p50_us),
        ("p90", current.p90_us, baseline.p90_us),
        ("p99", current.p99_us, baseline.p99_us),
        ("p999", current.p999_us, baseline.p999_us),
    ];
    for (name, cur, base) in pairs {
        if base == 0 {
            continue;
        }
        let ratio = cur as f64 / base as f64;
        let delta = ratio - 1.0;
        let detail = format!(
            "{name} {cur}µs vs baseline {base}µs ({:+.1}%)",
            delta * 100.0
        );
        if delta > 2.0 * tolerance {
            findings.push(Finding {
                detector: "tail-regression",
                subject: name.to_string(),
                severity: Severity::Critical,
                detail,
            });
        } else if delta > tolerance {
            findings.push(Finding {
                detector: "tail-regression",
                subject: name.to_string(),
                severity: Severity::Warn,
                detail,
            });
        } else if delta < -tolerance {
            findings.push(Finding {
                detector: "tail-regression",
                subject: name.to_string(),
                severity: Severity::Info,
                detail: format!("{detail} — improvement; consider rebaselining"),
            });
        }
    }
    if current.count != baseline.count {
        findings.push(Finding {
            detector: "tail-regression",
            subject: "count".to_string(),
            severity: Severity::Warn,
            detail: format!(
                "sample count changed: {} vs baseline {} — quantiles may not be comparable",
                current.count, baseline.count
            ),
        });
    }
    findings
}

/// Minimum retries in a window before its amplification is judged
/// (avoids noise from near-empty windows).
const MIN_WINDOW_RETRIES: u64 = 20;

/// Analyses retry amplification against `budget_ratio`, the run's
/// configured `RetryBudget` earn ratio: amplification beyond it means the
/// budget failed to clamp the storm. Always emits one overall finding
/// when any retries were issued (info when the budget held, warn/critical
/// when amplification exceeded the ratio), plus one finding per window
/// whose local amplification broke the ratio.
pub fn retry_storm(budget_ratio: f64, windows: &[WindowSample]) -> Vec<Finding> {
    assert!(budget_ratio > 0.0, "budget_ratio must be positive");
    let total_retries: u64 = windows.iter().map(|w| w.retries).sum();
    if total_retries == 0 {
        return Vec::new();
    }
    let total_rpcs: u64 = windows.iter().map(|w| w.rpcs).sum();
    let primary = total_rpcs.saturating_sub(total_retries).max(1);
    let overall = total_retries as f64 / primary as f64;
    let severity = if overall > 2.0 * budget_ratio {
        Severity::Critical
    } else if overall > budget_ratio {
        Severity::Warn
    } else {
        Severity::Info
    };
    let verdict = if overall <= budget_ratio {
        "budget clamped the storm"
    } else {
        "amplification exceeded the budget ratio"
    };
    let mut findings = vec![Finding {
        detector: "retry-storm",
        subject: "overall".to_string(),
        severity,
        detail: format!(
            "{total_retries} retries / {primary} primary calls = {overall:.4} amplification \
             vs budget ratio {:.2} — {verdict}",
            budget_ratio
        ),
    }];
    for w in windows {
        if w.retries < MIN_WINDOW_RETRIES {
            continue;
        }
        let window_primary = w.rpcs.saturating_sub(w.retries).max(1);
        let amp = w.retries as f64 / window_primary as f64;
        if amp <= budget_ratio {
            continue;
        }
        findings.push(Finding {
            detector: "retry-storm",
            subject: format!("window {}", w.window),
            severity: if amp > 2.0 * budget_ratio {
                Severity::Critical
            } else {
                Severity::Warn
            },
            detail: format!(
                "{} retries / {window_primary} primary calls = {amp:.4} amplification \
                 vs budget ratio {:.2}",
                w.retries, budget_ratio
            ),
        });
    }
    findings
}

/// A window has collapsed when less than this fraction of its offered
/// work succeeds (neither errors nor retry attempts).
const COLLAPSE_SUCCESS_FRAC: f64 = 0.5;

/// Minimum run of consecutive collapsed windows worth reporting —
/// metastability is persistence, a single bad window is just load.
const MIN_CONSECUTIVE: usize = 2;

/// Finds goodput-collapse runs: maximal spans of consecutive windows in
/// which most offered work failed or was retried. Success fraction is
/// demand-normalized (`(rpcs - errors - retries) / rpcs`), so diurnal
/// troughs do not read as collapse. One finding per run of at least
/// `MIN_CONSECUTIVE` (2) windows; a run twice that long escalates to
/// critical.
pub fn metastable_overload(windows: &[WindowSample]) -> Vec<Finding> {
    let collapsed = |w: &WindowSample| {
        if w.rpcs == 0 {
            return false;
        }
        let good = w.rpcs.saturating_sub(w.errors).saturating_sub(w.retries);
        (good as f64 / w.rpcs as f64) < COLLAPSE_SUCCESS_FRAC
    };
    let mut findings = Vec::new();
    let mut i = 0;
    while i < windows.len() {
        if !collapsed(&windows[i]) {
            i += 1;
            continue;
        }
        // Extend the run while windows stay adjacent and collapsed.
        let mut j = i;
        while j + 1 < windows.len()
            && windows[j + 1].window == windows[j].window + 1
            && collapsed(&windows[j + 1])
        {
            j += 1;
        }
        let run = &windows[i..=j];
        let len = run.len();
        if len >= MIN_CONSECUTIVE {
            let rpcs: u64 = run.iter().map(|w| w.rpcs).sum();
            let errors: u64 = run.iter().map(|w| w.errors).sum();
            let retries: u64 = run.iter().map(|w| w.retries).sum();
            let good = rpcs.saturating_sub(errors).saturating_sub(retries);
            let frac = good as f64 / rpcs.max(1) as f64;
            findings.push(Finding {
                detector: "metastable-overload",
                subject: format!("windows {}..{}", run[0].window, run[len - 1].window),
                severity: if len >= 2 * MIN_CONSECUTIVE {
                    Severity::Critical
                } else {
                    Severity::Warn
                },
                detail: format!(
                    "goodput collapsed for {len} consecutive windows: only {frac:.0}% of \
                     {rpcs} offered rpcs succeeded ({errors} errors, {retries} retries)",
                    frac = frac * 100.0
                ),
            });
        }
        i = j + 1;
    }
    findings
}

/// Renders findings as a fixed-width text table (or an all-clear line).
pub fn render_findings(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "SLO check: all clear — no findings.\n".to_string();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<9} {:<19} {:<10} detail\n",
        "severity", "detector", "subject"
    ));
    out.push_str(&"-".repeat(72));
    out.push('\n');
    for f in findings {
        out.push_str(&format!(
            "{:<9} {:<19} {:<10} {}\n",
            f.severity.to_string(),
            f.detector,
            f.subject,
            f.detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(p50: u64, p90: u64, p99: u64, p999: u64) -> LatencyQuantiles {
        LatencyQuantiles {
            count: 1000,
            sum_us: 0,
            min_us: 1,
            p50_us: p50,
            p90_us: p90,
            p99_us: p99,
            p999_us: p999,
            max_us: p999 * 2,
        }
    }

    #[test]
    fn quiet_windows_raise_nothing() {
        let cfg = SloConfig::default();
        let windows = [
            WindowSample {
                window: 0,
                rpcs: 10_000,
                errors: 5, // 0.05% — half the 0.1% budget, burn 0.5x
                congested_wire: 0,
                retries: 0,
            },
            WindowSample {
                window: 1,
                rpcs: 0, // empty window skipped
                errors: 0,
                congested_wire: 0,
                retries: 0,
            },
        ];
        assert!(error_budget_burn(&cfg, &windows).is_empty());
    }

    #[test]
    fn fast_burn_warns_and_escalates() {
        let cfg = SloConfig::default();
        let windows = [
            WindowSample {
                window: 3,
                rpcs: 1000,
                errors: 12, // 1.2% vs 0.1% budget → 12x
                congested_wire: 40,
                retries: 0,
            },
            WindowSample {
                window: 4,
                rpcs: 1000,
                errors: 30, // 3.0% → 30x ≥ 2*10x → critical
                congested_wire: 0,
                retries: 0,
            },
        ];
        let findings = error_budget_burn(&cfg, &windows);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].severity, Severity::Warn);
        assert!(findings[0].detail.contains("congested wire"));
        assert_eq!(findings[1].severity, Severity::Critical);
        assert!(!findings[1].detail.contains("congested wire"));
    }

    #[test]
    fn tail_regression_grades_by_delta() {
        let baseline = lat(100, 200, 400, 800);
        // p50 unchanged, p90 +15% (warn at 10% tol), p99 +25% (critical),
        // p999 -20% (info/improvement).
        let current = lat(100, 230, 500, 640);
        let findings = tail_regression(&current, &baseline, 0.10);
        let by_subject: Vec<(&str, Severity)> = findings
            .iter()
            .map(|f| (f.subject.as_str(), f.severity))
            .collect();
        assert_eq!(
            by_subject,
            vec![
                ("p90", Severity::Warn),
                ("p99", Severity::Critical),
                ("p999", Severity::Info),
            ]
        );
    }

    #[test]
    fn count_mismatch_is_flagged() {
        let baseline = lat(100, 200, 400, 800);
        let mut current = lat(100, 200, 400, 800);
        current.count = 999;
        let findings = tail_regression(&current, &baseline, 0.10);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].subject, "count");
    }

    #[test]
    fn zero_baseline_quantile_is_skipped() {
        let baseline = LatencyQuantiles::default();
        let current = lat(100, 200, 400, 800);
        // count 1000 vs 0 mismatch still reported, but no divide-by-zero.
        let findings = tail_regression(&current, &baseline, 0.10);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].subject, "count");
    }

    fn w(window: u64, rpcs: u64, errors: u64, retries: u64) -> WindowSample {
        WindowSample {
            window,
            rpcs,
            errors,
            congested_wire: 0,
            retries,
        }
    }

    #[test]
    fn no_retries_means_no_storm_findings() {
        assert!(retry_storm(0.1, &[w(0, 1000, 10, 0)]).is_empty());
    }

    #[test]
    fn clamped_retries_report_info_overall() {
        // 50 retries over 1000 primary calls: 0.05 < 0.1 ratio.
        let findings = retry_storm(0.1, &[w(0, 1050, 60, 50)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].subject, "overall");
        assert_eq!(findings[0].severity, Severity::Info);
        assert!(findings[0].detail.contains("budget clamped"));
    }

    #[test]
    fn storm_escalates_overall_and_flags_windows() {
        // Window 3: 300 retries / 1000 primary = 0.30 > 2 x 0.1.
        let findings = retry_storm(0.1, &[w(2, 1010, 0, 10), w(3, 1300, 350, 300)]);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].subject, "overall");
        assert_eq!(findings[0].severity, Severity::Warn);
        assert!(findings[0].detail.contains("exceeded"));
        assert_eq!(findings[1].subject, "window 3");
        assert_eq!(findings[1].severity, Severity::Critical);
    }

    #[test]
    fn small_windows_are_not_judged_for_amplification() {
        // 5 retries < MIN_WINDOW_RETRIES, even though local amp is 5.0.
        let findings = retry_storm(0.1, &[w(0, 2000, 0, 0), w(1, 6, 5, 5)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].subject, "overall");
    }

    #[test]
    fn isolated_bad_window_is_not_metastable() {
        let findings =
            metastable_overload(&[w(0, 1000, 10, 0), w(1, 1000, 800, 100), w(2, 1000, 10, 0)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn sustained_collapse_is_reported_and_escalates() {
        // Two collapsed windows -> warn.
        let findings =
            metastable_overload(&[w(4, 1000, 700, 100), w(5, 1000, 600, 50), w(6, 1000, 5, 0)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].subject, "windows 4..5");
        assert_eq!(findings[0].severity, Severity::Warn);
        // Four consecutive collapsed windows -> critical.
        let long: Vec<WindowSample> = (10..14).map(|i| w(i, 1000, 900, 50)).collect();
        let findings = metastable_overload(&long);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Critical);
        assert!(findings[0].detail.contains("4 consecutive windows"));
    }

    #[test]
    fn collapse_runs_must_be_adjacent_windows() {
        // Collapsed windows 2 and 4 are separated by a missing window 3,
        // so neither run reaches MIN_CONSECUTIVE.
        let findings = metastable_overload(&[w(2, 1000, 900, 0), w(4, 1000, 900, 0)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn diurnal_troughs_do_not_read_as_collapse() {
        // Low-demand windows with proportionally low errors are healthy.
        let findings = metastable_overload(&[w(0, 20, 1, 0), w(1, 15, 0, 0)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn render_is_stable_and_readable() {
        assert!(render_findings(&[]).contains("all clear"));
        let f = Finding {
            detector: "tail-regression",
            subject: "p99".to_string(),
            severity: Severity::Critical,
            detail: "p99 500µs vs baseline 400µs (+25.0%)".to_string(),
        };
        let table = render_findings(&[f]);
        assert!(table.contains("critical"));
        assert!(table.contains("p99"));
    }
}

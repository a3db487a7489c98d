//! Shared plumbing for the benchmark harness, the `repro` binary, and
//! the `ablate` binary.

pub mod ablation;
pub mod digests;
pub mod inspect;
pub mod wire;
pub mod wiretrace;

use rpclens_core::check::ExpectationSet;
use rpclens_fleet::driver::{FleetRun, SimScale};
use rpclens_fleet::growth::GrowthConfig;

/// Every regenerable artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Fig. 1 (growth model; no fleet run needed).
    Fig1,
    /// Fig. 2.
    Fig2,
    /// Fig. 3.
    Fig3,
    /// Fig. 4.
    Fig4,
    /// Fig. 5.
    Fig5,
    /// Fig. 6.
    Fig6,
    /// Fig. 7.
    Fig7,
    /// Fig. 8.
    Fig8,
    /// Fig. 10.
    Fig10,
    /// Fig. 11.
    Fig11,
    /// Fig. 12.
    Fig12,
    /// Fig. 13.
    Fig13,
    /// Fig. 14.
    Fig14,
    /// Fig. 15.
    Fig15,
    /// Fig. 16.
    Fig16,
    /// Fig. 17.
    Fig17,
    /// Fig. 18.
    Fig18,
    /// Fig. 19.
    Fig19,
    /// Fig. 20.
    Fig20,
    /// Fig. 21.
    Fig21,
    /// Fig. 22.
    Fig22,
    /// Fig. 23.
    Fig23,
    /// Table 1.
    Table1,
    /// Table 2.
    Table2,
    /// §2.4 comparison.
    Compare,
}

impl Artifact {
    /// All artifacts in paper order.
    pub const ALL: [Artifact; 25] = [
        Artifact::Fig1,
        Artifact::Fig2,
        Artifact::Fig3,
        Artifact::Fig4,
        Artifact::Fig5,
        Artifact::Fig6,
        Artifact::Fig7,
        Artifact::Fig8,
        Artifact::Fig10,
        Artifact::Fig11,
        Artifact::Fig12,
        Artifact::Fig13,
        Artifact::Fig14,
        Artifact::Fig15,
        Artifact::Fig16,
        Artifact::Fig17,
        Artifact::Fig18,
        Artifact::Fig19,
        Artifact::Fig20,
        Artifact::Fig21,
        Artifact::Fig22,
        Artifact::Fig23,
        Artifact::Table1,
        Artifact::Table2,
        Artifact::Compare,
    ];

    /// Parses a CLI name like `fig12`, `table1`, or `compare`.
    pub fn parse(name: &str) -> Option<Artifact> {
        let name = name.to_lowercase();
        Artifact::ALL.iter().copied().find(|a| a.name() == name)
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Fig1 => "fig1",
            Artifact::Fig2 => "fig2",
            Artifact::Fig3 => "fig3",
            Artifact::Fig4 => "fig4",
            Artifact::Fig5 => "fig5",
            Artifact::Fig6 => "fig6",
            Artifact::Fig7 => "fig7",
            Artifact::Fig8 => "fig8",
            Artifact::Fig10 => "fig10",
            Artifact::Fig11 => "fig11",
            Artifact::Fig12 => "fig12",
            Artifact::Fig13 => "fig13",
            Artifact::Fig14 => "fig14",
            Artifact::Fig15 => "fig15",
            Artifact::Fig16 => "fig16",
            Artifact::Fig17 => "fig17",
            Artifact::Fig18 => "fig18",
            Artifact::Fig19 => "fig19",
            Artifact::Fig20 => "fig20",
            Artifact::Fig21 => "fig21",
            Artifact::Fig22 => "fig22",
            Artifact::Fig23 => "fig23",
            Artifact::Table1 => "table1",
            Artifact::Table2 => "table2",
            Artifact::Compare => "compare",
        }
    }

    /// Whether the artifact needs a fleet simulation (Fig. 1 does not).
    pub fn needs_run(self) -> bool {
        self != Artifact::Fig1
    }
}

/// Renders one artifact and returns `(text, checks)`.
pub fn produce(artifact: Artifact, run: Option<&FleetRun>) -> (String, ExpectationSet) {
    use rpclens_core::figs as f;
    match artifact {
        Artifact::Fig1 => {
            let fig = f::fig01::compute(&GrowthConfig::default());
            (f::fig01::render(&fig), f::fig01::checks(&fig))
        }
        other => {
            let run = run.expect("artifact needs a fleet run");
            match other {
                Artifact::Fig2 => {
                    let fig = f::fig02::compute(run);
                    (f::fig02::render(&fig), f::fig02::checks(&fig))
                }
                Artifact::Fig3 => {
                    let fig = f::fig03::compute(run);
                    (f::fig03::render(&fig), f::fig03::checks(&fig))
                }
                Artifact::Fig4 => {
                    let fig = f::fig04::compute(run);
                    (f::fig04::render(&fig), f::fig04::checks(&fig))
                }
                Artifact::Fig5 => {
                    let fig = f::fig05::compute(run);
                    (f::fig05::render(&fig), f::fig05::checks(&fig))
                }
                Artifact::Fig6 => {
                    let fig = f::fig06::compute(run);
                    (f::fig06::render(&fig), f::fig06::checks(&fig))
                }
                Artifact::Fig7 => {
                    let fig = f::fig07::compute(run);
                    (f::fig07::render(&fig), f::fig07::checks(&fig))
                }
                Artifact::Fig8 => {
                    let fig = f::fig08::compute(run);
                    (f::fig08::render(&fig), f::fig08::checks(&fig))
                }
                Artifact::Fig10 => {
                    let fig = f::fig10::compute(run);
                    (f::fig10::render(&fig), f::fig10::checks(&fig))
                }
                Artifact::Fig11 => {
                    let fig = f::fig11::compute(run);
                    (f::fig11::render(&fig), f::fig11::checks(&fig))
                }
                Artifact::Fig12 => {
                    let fig = f::fig12::compute(run);
                    (f::fig12::render(&fig), f::fig12::checks(&fig))
                }
                Artifact::Fig13 => {
                    let fig = f::fig13::compute(run);
                    (f::fig13::render(&fig), f::fig13::checks(&fig))
                }
                Artifact::Fig14 => {
                    let fig = f::fig14::compute(run);
                    (f::fig14::render(&fig), f::fig14::checks(&fig))
                }
                Artifact::Fig15 => {
                    let fig = f::fig15::compute(run);
                    (f::fig15::render(&fig), f::fig15::checks(&fig))
                }
                Artifact::Fig16 => {
                    let fig = f::fig16::compute(run);
                    (f::fig16::render(&fig), f::fig16::checks(&fig))
                }
                Artifact::Fig17 => {
                    let fig = f::fig17::compute(run);
                    (f::fig17::render(&fig), f::fig17::checks(&fig))
                }
                Artifact::Fig18 => match f::fig18::compute(run) {
                    Some(fig) => (f::fig18::render(&fig), f::fig18::checks(&fig)),
                    None => (
                        "Fig. 18 — not enough Bigtable clusters at this scale\n".to_string(),
                        ExpectationSet::new(),
                    ),
                },
                Artifact::Fig19 => {
                    let fig = f::fig19::compute(run);
                    (f::fig19::render(&fig), f::fig19::checks(&fig))
                }
                Artifact::Fig20 => {
                    let fig = f::fig20::compute(run);
                    (f::fig20::render(&fig), f::fig20::checks(&fig))
                }
                Artifact::Fig21 => {
                    let fig = f::fig21::compute(run);
                    (f::fig21::render(&fig), f::fig21::checks(&fig))
                }
                Artifact::Fig22 => {
                    let fig = f::fig22::compute(run);
                    (f::fig22::render(&fig), f::fig22::checks(&fig))
                }
                Artifact::Fig23 => {
                    // The static bands hold only without faults. Under
                    // chaos-smoke the causal reconciliation checks replace
                    // them; the stress presets deviate from the taxonomy
                    // by design, so their figure carries no checks.
                    let faults = &run.config.faults;
                    let fig = f::fig23::compute(run);
                    let checks = if faults.name == "none" {
                        f::fig23::checks(&fig)
                    } else if faults.reconciles_taxonomy() {
                        f::fig23::causal_checks(&fig)
                    } else {
                        ExpectationSet::new()
                    };
                    (f::fig23::render(&fig), checks)
                }
                Artifact::Table1 => (f::table1::render(run), f::table1::checks(run)),
                Artifact::Table2 => {
                    let t = f::table2::compute(run);
                    (f::table2::render(&t), f::table2::checks(&t))
                }
                Artifact::Compare => {
                    let c = f::compare::compute(run);
                    (f::compare::render(&c), f::compare::checks(&c))
                }
                Artifact::Fig1 => unreachable!("handled above"),
            }
        }
    }
}

/// Resolves a scale preset by CLI name.
pub fn scale_by_name(name: &str) -> Option<SimScale> {
    match name {
        "smoke" => Some(SimScale::smoke()),
        "default" => Some(SimScale::default_scale()),
        "paper" => Some(SimScale::paper()),
        "fleet" => Some(SimScale::fleet()),
        _ => None,
    }
}

/// Peak resident set size of this process in bytes, if the platform
/// exposes it.
///
/// Reads `VmHWM` from `/proc/self/status` (Linux). The high-water mark
/// is monotone over the process lifetime, so callers gating on it must
/// run the workload under test in a dedicated process (the
/// `bench-ceiling rss` subcommand does exactly that); within one
/// process, later measurements can only report the max of everything
/// that ran before them. Returns `None` where procfs is unavailable —
/// callers treat that as "cannot measure", never as a failure.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_roundtrip() {
        for a in Artifact::ALL {
            assert_eq!(Artifact::parse(a.name()), Some(a));
        }
        assert_eq!(Artifact::parse("FIG12"), Some(Artifact::Fig12));
        assert_eq!(Artifact::parse("fig9"), None);
        assert_eq!(Artifact::parse("nope"), None);
    }

    #[test]
    fn fig1_needs_no_run() {
        assert!(!Artifact::Fig1.needs_run());
        assert!(Artifact::Fig2.needs_run());
        let (text, checks) = produce(Artifact::Fig1, None);
        assert!(text.contains("Fig. 1"));
        assert!(checks.all_passed(), "{checks}");
    }

    #[test]
    fn scales_resolve() {
        assert_eq!(scale_by_name("smoke").unwrap().name, "smoke");
        assert_eq!(scale_by_name("default").unwrap().name, "default");
        assert_eq!(scale_by_name("paper").unwrap().name, "paper");
        let fleet = scale_by_name("fleet").unwrap();
        assert_eq!(fleet.name, "fleet");
        assert!(
            fleet.roots >= 2_000_000,
            "fleet preset is millions of roots"
        );
        assert!(
            fleet.trace_sample_rate > 1,
            "fleet preset must head-sample traces to bound memory"
        );
        assert!(scale_by_name("x").is_none());
    }

    #[test]
    fn peak_rss_reads_plausibly() {
        // On Linux the high-water mark must be positive and at least the
        // current heap footprint's order of magnitude; elsewhere the
        // helper reports "cannot measure" rather than failing.
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 1024 * 1024, "VmHWM under 1 MiB: {bytes}");
        }
    }
}

//! Table 2: the exogenous variables and their observed fleet ranges.

use crate::check::ExpectationSet;
use crate::common::chunked_sweep;
use crate::render::TextTable;
use rpclens_fleet::driver::{FleetRun, ServiceSite};
use rpclens_simcore::time::{SimDuration, SimTime};

/// One variable's definition and observed range.
#[derive(Debug)]
pub struct VariableRow {
    /// Variable name (Table 2).
    pub name: &'static str,
    /// Description (Table 2).
    pub description: &'static str,
    /// Minimum day-average observed across sites.
    pub min: f64,
    /// Maximum day-average observed across sites.
    pub max: f64,
}

/// The computed table.
#[derive(Debug)]
pub struct Table2 {
    /// The four variables.
    pub rows: Vec<VariableRow>,
}

/// Sites per work item of the parallel sweep: enough items for the
/// pool's dynamic claiming to balance the workers, each still far
/// costlier than one claim.
const SITES_PER_CHUNK: usize = 64;

/// Computes observed ranges across all deployment sites.
///
/// The sweep runs on the run's worker pool (`config.threads` wide) over
/// contiguous chunks of sites, folded in chunk order. Min and max are
/// exact, so the rows are bit-identical at any thread count.
pub fn compute(run: &FleetRun) -> Table2 {
    let sites = run.sites.values().as_slice();
    let ranges = chunked_sweep(run, sites, SITES_PER_CHUNK, day_ranges, widen);
    let defs = [
        ("CPU util", "% CPU utilized"),
        ("Memory BW", "Total memory bandwidth utilized (GB/s)"),
        (
            "Long wakeup rate",
            "Fraction of scheduling events longer than 50 us",
        ),
        ("Cycles per Inst.", "CPU's cycles per instruction"),
    ];
    Table2 {
        rows: defs
            .iter()
            .zip(ranges)
            .map(|(&(name, description), r)| VariableRow {
                name,
                description,
                min: r[0],
                max: r[1],
            })
            .collect(),
    }
}

/// Each variable's `[min, max]`, in [`Table2::rows`] order.
type Ranges = [[f64; 2]; 4];

/// The ranges of each variable's day average over `sites`.
fn day_ranges(sites: &[ServiceSite]) -> Ranges {
    let day = SimDuration::from_hours(24);
    let mut ranges = [[f64::MAX, f64::MIN]; 4];
    for site in sites {
        let v = site.load.window_average(SimTime::ZERO, day);
        let vals = [v.cpu_util * 100.0, v.mem_bw_gbps, v.long_wakeup_rate, v.cpi];
        widen(&mut ranges, vals.map(|val| [val, val]));
    }
    ranges
}

/// Widens `acc` to cover `other`.
fn widen(acc: &mut Ranges, other: Ranges) {
    for (r, o) in acc.iter_mut().zip(other) {
        r[0] = r[0].min(o[0]);
        r[1] = r[1].max(o[1]);
    }
}

/// Renders the table.
pub fn render(t2: &Table2) -> String {
    let mut t = TextTable::new(&["variable", "description", "observed range"]);
    for r in &t2.rows {
        t.row(vec![
            r.name.to_string(),
            r.description.to_string(),
            format!("{:.3} .. {:.3}", r.min, r.max),
        ]);
    }
    format!("Table 2 — Exogenous variables\n{}", t.render())
}

/// Checks the observed ranges are physically sensible.
pub fn checks(t2: &Table2) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    let row = |name: &str| t2.rows.iter().find(|r| r.name == name).expect("row");
    let cpu = row("CPU util");
    s.add(
        "table2.cpu_min",
        "CPU util spans a wide range",
        cpu.min,
        0.0,
        50.0,
    );
    s.add("table2.cpu_max", "hot sites run high", cpu.max, 50.0, 100.0);
    let bw = row("Memory BW");
    s.add(
        "table2.membw",
        "memory bandwidth in tens of GB/s",
        bw.max,
        30.0,
        130.0,
    );
    let wk = row("Long wakeup rate");
    s.add(
        "table2.wakeup",
        "long-wakeup rate is a small fraction",
        wk.max,
        0.001,
        0.2,
    );
    let cpi = row("Cycles per Inst.");
    s.add("table2.cpi", "CPI near 1-2", cpi.max, 0.9, 2.5);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testrun::shared;

    #[test]
    fn checks_pass_on_test_run() {
        let t2 = compute(shared());
        let c = checks(&t2);
        assert!(c.all_passed(), "{c}");
    }

    #[test]
    fn four_variables_with_ranges() {
        let t2 = compute(shared());
        assert_eq!(t2.rows.len(), 4);
        for r in &t2.rows {
            assert!(r.min <= r.max, "{}: {} > {}", r.name, r.min, r.max);
        }
        assert!(render(&t2).contains("Long wakeup rate"));
    }
}

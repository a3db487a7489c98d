//! Table 1: the eight RPC services selected for in-depth study.

use crate::check::ExpectationSet;
use crate::common::{summary, Column};
use crate::render::{fmt_bytes, TextTable};
use rpclens_fleet::driver::FleetRun;

/// Renders the table with measured request-size medians next to the
/// paper's nominal sizes.
pub fn render(run: &FleetRun) -> String {
    let mut t = TextTable::new(&[
        "category",
        "server",
        "client",
        "RPC size (paper)",
        "measured median req",
        "description",
    ]);
    for entry in run.catalog.table1() {
        let measured = summary(run, Column::RequestBytes, entry.method)
            .map(|s| fmt_bytes(s.p50))
            .unwrap_or_else(|| "n/a".to_string());
        t.row(vec![
            entry.category.to_string(),
            entry.server.to_string(),
            entry.client.to_string(),
            entry.rpc_size.to_string(),
            measured,
            entry.description.to_string(),
        ]);
    }
    format!("Table 1 — RPC services in this study\n{}", t.render())
}

/// Checks that the pinned catalog honours the table.
pub fn checks(run: &FleetRun) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    s.add(
        "table1.rows",
        "eight services studied",
        run.catalog.table1().len() as f64,
        8.0,
        8.0,
    );
    // Measured request medians within ~4x of the table's nominal sizes.
    for entry in run.catalog.table1() {
        let nominal: f64 = match entry.rpc_size {
            "1 kB" => 1024.0,
            "32 kB" => 32.0 * 1024.0,
            "400 B" => 400.0,
            "800 B" => 800.0,
            "75 B" => 75.0,
            "512 B" => 512.0,
            "128 B" => 128.0,
            other => panic!("unknown nominal size {other}"),
        };
        // The table's "RPC size" names one payload direction without
        // saying which (a read's response, a write's request); compare
        // against whichever measured direction matches better.
        let req = summary(run, Column::RequestBytes, entry.method);
        let resp = summary(run, Column::ResponseBytes, entry.method);
        if let (Some(req), Some(resp)) = (req, resp) {
            let r1 = req.p50 / nominal;
            let r2 = resp.p50 / nominal;
            let best = if r1.ln().abs() <= r2.ln().abs() {
                r1
            } else {
                r2
            };
            s.add(
                &format!("table1.{}_size", entry.server.replace(' ', "_")),
                "one measured payload direction within ~4x of the table's nominal size",
                best,
                0.25,
                6.0,
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testrun::shared;

    #[test]
    fn checks_pass_on_test_run() {
        let c = checks(shared());
        assert!(c.all_passed(), "{c}");
    }

    #[test]
    fn render_contains_all_servers() {
        let text = render(shared());
        for server in [
            "Bigtable",
            "Network Disk",
            "SSD cache",
            "Video Metadata",
            "Spanner",
            "F1",
            "ML Inference",
            "KV-Store",
        ] {
            assert!(text.contains(server), "missing {server}");
        }
    }
}

//! Text rendering for figures: aligned tables and CDF sketches.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Formats a latency in seconds with an adaptive unit.
pub fn fmt_secs(s: f64) -> String {
    if !s.is_finite() {
        return "n/a".to_string();
    }
    if s < 1e-6 {
        format!("{:.0}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.3}s", s)
    }
}

/// Formats a byte count with an adaptive unit.
pub fn fmt_bytes(b: f64) -> String {
    if !b.is_finite() {
        return "n/a".to_string();
    }
    if b < 1024.0 {
        format!("{b:.0}B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.1}KB", b / 1024.0)
    } else {
        format!("{:.1}MB", b / (1024.0 * 1024.0))
    }
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(f: f64) -> String {
    if !f.is_finite() {
        return "n/a".to_string();
    }
    format!("{:.2}%", f * 100.0)
}

/// Sketches a CDF of sorted values as a fixed-width text chart, one line
/// per decile.
pub fn sketch_cdf(sorted: &[f64], fmt: fn(f64) -> String) -> String {
    if sorted.is_empty() {
        return "(no data)\n".to_string();
    }
    let mut out = String::new();
    for decile in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let idx = ((sorted.len() - 1) as f64 * decile) as usize;
        let bar = "#".repeat((decile * 40.0) as usize);
        let _ = writeln!(
            out,
            "p{:<5} {:>10} |{}",
            decile * 100.0,
            fmt(sorted[idx]),
            bar
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_and_counts() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        assert_eq!(t.len(), 2);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines share the same width.
        assert_eq!(lines[2].trim_end().len(), lines[3].trim_end().len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters_pick_sane_units() {
        assert_eq!(fmt_secs(5e-7), "500ns");
        assert_eq!(fmt_secs(2.5e-4), "250.0us");
        assert_eq!(fmt_secs(0.0123), "12.30ms");
        assert_eq!(fmt_secs(2.0), "2.000s");
        assert_eq!(fmt_bytes(100.0), "100B");
        assert_eq!(fmt_bytes(2048.0), "2.0KB");
        assert_eq!(fmt_bytes(3.0 * 1024.0 * 1024.0), "3.0MB");
        assert_eq!(fmt_pct(0.071), "7.10%");
        assert_eq!(fmt_secs(f64::NAN), "n/a");
    }

    #[test]
    fn cdf_sketch_has_decile_lines() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let sketch = sketch_cdf(&values, |v| format!("{v:.0}"));
        assert_eq!(sketch.lines().count(), 8);
        assert!(sketch.contains("p50"));
        assert_eq!(sketch_cdf(&[], fmt_secs), "(no data)\n");
    }
}

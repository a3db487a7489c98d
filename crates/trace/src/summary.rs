//! Per-method summary tables.
//!
//! Every per-method figure summarises one column of per-span values with
//! one [`QuantileSummary`] per method. A [`MethodTable`] holds those
//! summaries for a list of columns, and a [`TraceStore`] keeps one,
//! built on first use ([`TraceStore::method_table`]), so the figures of
//! one run share a single pass over its spans. The analysis layer
//! decides what the columns are and builds the table.
//!
//! [`TraceStore`]: crate::collector::TraceStore
//! [`TraceStore::method_table`]: crate::collector::TraceStore::method_table

use crate::span::MethodId;
use rpclens_simcore::stats::QuantileSummary;
use serde::{Deserialize, Serialize};

/// One method's quantiles of one column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodRow {
    /// The method.
    pub method: MethodId,
    /// Quantiles of the column for this method.
    pub summary: QuantileSummary,
}

impl MethodRow {
    /// Summarises one method's samples, or `None` if none is finite.
    pub fn new(method: MethodId, values: Vec<f64>) -> Option<MethodRow> {
        QuantileSummary::from_samples(values).map(|summary| MethodRow { method, summary })
    }
}

/// Per-method summaries of a list of columns. Each column holds a row
/// for every method that has a summary in it, in ascending method id.
#[derive(Debug, Default)]
pub struct MethodTable {
    columns: Vec<Vec<MethodRow>>,
}

impl MethodTable {
    /// A table of the given columns.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a column's rows are not in strictly
    /// ascending method id.
    pub fn new(columns: Vec<Vec<MethodRow>>) -> MethodTable {
        debug_assert!(columns
            .iter()
            .all(|rows| rows.windows(2).all(|w| w[0].method < w[1].method)));
        MethodTable { columns }
    }

    /// The rows of column `k`, in ascending method id.
    ///
    /// # Panics
    ///
    /// Panics if the table has no column `k`.
    pub fn column(&self, k: usize) -> &[MethodRow] {
        &self.columns[k]
    }

    /// `method`'s summary in column `k`, if it has one.
    pub fn get(&self, k: usize, method: MethodId) -> Option<&QuantileSummary> {
        let rows = self.column(k);
        rows.binary_search_by_key(&method, |r| r.method)
            .ok()
            .map(|i| &rows[i].summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_found_by_method() {
        let row = |m, v: f64| MethodRow::new(MethodId(m), vec![v; 3]).unwrap();
        let table = MethodTable::new(vec![vec![row(1, 1.0), row(4, 4.0)], vec![row(2, 2.0)]]);
        assert_eq!(table.column(0).len(), 2);
        assert_eq!(table.get(0, MethodId(4)).map(|s| s.p50), Some(4.0));
        assert_eq!(table.get(1, MethodId(2)).map(|s| s.count), Some(3));
        assert!(table.get(0, MethodId(2)).is_none());
        assert!(table.get(1, MethodId(1)).is_none());
        assert!(MethodRow::new(MethodId(0), vec![f64::NAN]).is_none());
    }
}

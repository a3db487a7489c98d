//! An in-memory time-series monitoring database (Monarch-like).
//!
//! The paper's longitudinal results (Fig. 1's 700-day growth curve,
//! Fig. 18's 24-hour covariation) come from a monitoring database that
//! samples application-exported metrics on a fixed cadence with per-metric
//! retention. This crate implements that substrate:
//!
//! - [`metric`]: metric kinds (counter, gauge, distribution), label sets,
//!   and descriptors with retention policies.
//! - [`store`]: the time-series store with aligned sampling windows and
//!   retention enforcement.
//! - [`query`]: selection by name/label, and rates and per-window deltas
//!   of counters.

pub mod metric;
pub mod query;
pub mod store;

/// Convenience re-exports of the most commonly used tsdb types.
pub mod tsdb_prelude {
    pub use crate::{
        metric::{Labels, MetricDescriptor, MetricKind, MetricValue},
        query::{LabelFilter, QueryEngine},
        store::{Series, TimeSeriesDb},
    };
}

/// The default sampling cadence used fleet-wide (the paper's metrics are
/// sampled every 30 minutes).
pub const DEFAULT_SAMPLE_PERIOD: rpclens_simcore::time::SimDuration =
    rpclens_simcore::time::SimDuration::from_mins(30);

//! An in-memory time-series database for cumulative counters
//! (Monarch-like).
//!
//! The paper reads Monarch for counters: Fig. 1's 700-day growth curve
//! is a rate query over cumulative RPC and cycle counters. This crate
//! keeps exactly that substrate:
//!
//! - [`store`]: one series of cumulative counter readings per metric
//!   name, each reading aligned down to the sampling window (the last
//!   write in a window wins).
//! - [`query`]: per-second rates and per-window deltas of a series.

pub mod query;
pub mod store;

/// Convenience re-exports of the tsdb types.
pub mod tsdb_prelude {
    pub use crate::store::{Series, TimeSeriesDb};
}

/// The default sampling cadence used fleet-wide (the paper's metrics are
/// sampled every 30 minutes).
pub const DEFAULT_SAMPLE_PERIOD: rpclens_simcore::time::SimDuration =
    rpclens_simcore::time::SimDuration::from_mins(30);

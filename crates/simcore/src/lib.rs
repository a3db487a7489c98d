//! Deterministic simulation core for the `rpclens` workspace.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! - [`time`]: nanosecond-resolution simulated time ([`time::SimTime`],
//!   [`time::SimDuration`]).
//! - [`rng`]: a deterministic, splittable pseudo-random number generator
//!   ([`rng::Prng`]) so that every simulation run is exactly reproducible from
//!   a single master seed, independent of platform or thread interleaving.
//! - [`dist`]: the three parametric laws the fleet draws from: log-normal
//!   handler times and payload sizes, exponential holding times and
//!   jitter, and bounded-Pareto stalls and congestion excess.
//! - [`alias`]: O(1) categorical sampling via the Vose alias method.
//! - [`bracket`]: decide-first comparisons of a uniform against a costly
//!   function, tabulated as per-cell bounds on a grid.
//! - [`hist`]: a log-bucketed high-dynamic-range histogram for recording
//!   latencies spanning nanoseconds to minutes with bounded relative error.
//! - [`stats`]: exact quantiles and correlation coefficients used by the
//!   characterization analyses.
//! - [`renewal`]: trajectory-stored alternating-renewal processes, the one
//!   model behind every episodic cause (congestion, failures, incidents).
//!
//! # Examples
//!
//! ```
//! use rpclens_simcore::prelude::*;
//!
//! let mut rng = Prng::seed_from(42);
//! let dist = LogNormal::from_median_sigma(10_000.0, 1.0).unwrap();
//! let mut hist = LogHistogram::new();
//! for _ in 0..10_000 {
//!     hist.record(dist.sample(&mut rng) as u64);
//! }
//! // The sampled median lands near the configured median.
//! let median = hist.quantile(0.5).unwrap();
//! assert!(median > 8_000 && median < 12_500, "median {median}");
//! ```

#![warn(missing_docs)]

pub mod alias;
pub mod bracket;
pub mod dist;
pub mod hist;
pub mod renewal;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenience re-exports of the most commonly used simcore types.
pub mod prelude {
    pub use crate::{
        alias::AliasTable,
        dist::{BoundedPareto, Exponential, LogNormal},
        hist::LogHistogram,
        renewal::{AlternatingRenewal, RenewalParams},
        rng::Prng,
        stats::percentile,
        time::{SimDuration, SimTime},
    };
}

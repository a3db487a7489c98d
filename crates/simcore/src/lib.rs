//! Deterministic discrete-event simulation core for the `rpclens` workspace.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! - [`time`]: nanosecond-resolution simulated time ([`time::SimTime`],
//!   [`time::SimDuration`]).
//! - [`event`]: a time-ordered, FIFO-stable event queue ([`event::EventQueue`]).
//! - [`rng`]: a deterministic, splittable pseudo-random number generator
//!   ([`rng::Prng`]) so that every simulation run is exactly reproducible from
//!   a single master seed, independent of platform or thread interleaving.
//! - [`dist`]: parametric distributions (log-normal, Pareto, Weibull,
//!   exponential, mixtures, ...) used to model handler times, sizes, and
//!   fan-out in the fleet.
//! - [`alias`]: O(1) categorical sampling via the Vose alias method.
//! - [`zipf`]: Zipf-distributed integer sampling.
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
pub mod dist;
pub mod event;
pub mod hist;
pub mod renewal;
pub mod rng;
pub mod stats;
pub mod time;
pub mod zipf;

/// Convenience re-exports of the most commonly used simcore types.
pub mod prelude {
    pub use crate::{
        alias::AliasTable,
        dist::{
            BoundedPareto, Constant, Exponential, LogNormal, Mixture, Pareto, Sample, Shifted,
            Uniform, Weibull,
        },
        event::EventQueue,
        hist::LogHistogram,
        renewal::{AlternatingRenewal, RenewalParams},
        rng::Prng,
        stats::percentile,
        time::{SimDuration, SimTime},
        zipf::Zipf,
    };
}

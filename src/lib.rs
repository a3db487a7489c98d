//! # rpclens
//!
//! A cloud-scale characterization toolkit for remote procedure calls — a
//! full reproduction of *"A Cloud-Scale Characterization of Remote
//! Procedure Calls"* (SOSP 2023) as a Rust workspace:
//!
//! - a deterministic **fleet simulator** (geographic network, loaded
//!   machines, a Stubby-like RPC stack, a calibrated 10,000-method
//!   service catalog),
//! - the three **measurement substrates** the paper's methodology relies
//!   on (a Monarch-like time-series database, a Dapper-like distributed
//!   tracer, and a GWP-like fleet profiler), and
//! - the **characterization suite** that regenerates every table and
//!   figure in the paper's evaluation, with paper-vs-measured shape
//!   checks.
//!
//! # Quickstart
//!
//! ```no_run
//! use rpclens::prelude::*;
//!
//! // Simulate a day of fleet traffic at the default scale.
//! let run = run_fleet(FleetConfig::default());
//! println!("simulated {} RPCs", run.total_spans);
//!
//! // Regenerate Fig. 20 (the RPC cycle tax) from the run.
//! let fig = rpclens::core::figs::fig20::compute(&run);
//! println!("{}", rpclens::core::figs::fig20::render(&fig));
//! assert!(rpclens::core::figs::fig20::checks(&fig).all_passed());
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! per-figure paper-vs-measured record. The `repro` binary
//! (`cargo run --release -p rpclens-bench --bin repro -- all`) regenerates
//! everything.

pub use rpclens_cluster as cluster;
pub use rpclens_core as core;
pub use rpclens_fleet as fleet;
pub use rpclens_netsim as netsim;
pub use rpclens_profiler as profiler;
pub use rpclens_rpcstack as rpcstack;
pub use rpclens_rpcwire as rpcwire;
pub use rpclens_simcore as simcore;
pub use rpclens_trace as trace;
pub use rpclens_tsdb as tsdb;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use rpclens_core::check::{Expectation, ExpectationSet};
    pub use rpclens_fleet::catalog::{Catalog, CatalogConfig, MethodSpec, ServiceSpec};
    pub use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
    pub use rpclens_fleet::growth::{GrowthConfig, GrowthModel};
    pub use rpclens_simcore::prelude::*;
    pub use rpclens_trace::query::MethodQuery;
    pub use rpclens_trace::span::{MethodId, ServiceId};
    pub use rpclens_tsdb::tsdb_prelude::*;
}

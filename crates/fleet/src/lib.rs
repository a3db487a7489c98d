//! The fleet model: a calibrated synthetic equivalent of the production
//! environment the paper measured.
//!
//! - [`catalog`]: the service/method catalog. Meta-distributions are tuned
//!   so the *population* statistics (latency medians, sizes, popularity
//!   skew, tree shapes) match the paper's published anchors; the eight
//!   services of Table 1 (plus BigQuery from Fig. 15) are pinned
//!   explicitly, including their client-service relationships.
//! - [`workload`]: diurnal open-loop root-RPC arrivals and entry-point
//!   selection.
//! - [`driver`]: the simulation driver. Each trace is expanded in virtual
//!   time through the full nine-component RPC pipeline: client queues,
//!   stack cost model, geographic network with congestion, analytic M/G/k
//!   server queueing coupled to exogenous machine state, nested fan-out,
//!   hedging, and error injection. Spans stream into the tracer, cycles
//!   into the profiler, and one counter row per window into the TSDB.
//! - [`pool`]: the dependency-free worker pool the driver runs shards
//!   on — a bounded set of threads claiming shard ids from a shared
//!   counter, with an order-restoring streaming merge ([`pool::OrderedFold`])
//!   so results stay bit-identical at any `--threads` value.
//! - [`faults`]: named fault scenarios — per-entity failure sources
//!   (machine churn, drains, WAN partitions, overload surges), correlated
//!   incidents (a drain surging its placement neighbours, one WAN cut
//!   partitioning a whole region pair, an overload front sweeping a
//!   region), controllers, and the client resilience configuration
//!   (deadlines, budgeted retries) the driver executes against them.
//! - [`control`]: the closed-loop controllers — a deterministic
//!   autoscaler, load-balancer weight shifts, and bounded admission
//!   queues evaluated on window boundaries, identical on every shard.
//! - [`conditions`]: the one seed-derived plane a scenario materialises
//!   as — one episode table for every source, the controllers' state,
//!   and one lookup per call for the unavailability, brownout, overload
//!   and shedding the call meets at its target.
//! - [`telemetry`]: adapters from a completed run to the `rpclens-obs`
//!   observability plane — run manifests, per-window detector inputs,
//!   and the end-of-run SLO report.
//! - [`growth`]: the 700-day fleet growth model behind Fig. 1.
//! - [`baselines`]: call-graph generators with the published shape
//!   parameters of the Alibaba, Meta, and DeathStarBench studies that
//!   §2.4 compares against.

#![warn(missing_docs)]

pub mod baselines;
pub mod catalog;
pub mod conditions;
pub mod control;
pub mod driver;
pub mod faults;
pub mod growth;
pub mod pool;
pub mod servable;
pub mod telemetry;
pub mod workload;

/// Convenience re-exports of the most commonly used fleet types.
pub mod fleet_prelude {
    pub use crate::{
        catalog::{Catalog, CatalogConfig, MethodSpec, ServiceCategory, ServiceSpec},
        conditions::Environment,
        control::ControlSpec,
        driver::{run_fleet, FleetConfig, FleetRun, SimScale},
        faults::{FaultScenario, IncidentSpec, PartitionState},
        growth::{GrowthConfig, GrowthModel},
        telemetry::{manifest_for_run, slo_findings, window_samples},
        workload::Workload,
    };
}

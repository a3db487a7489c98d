//! Runtime observability plane for the simulator itself.
//!
//! The workspace already reproduces the paper's three *measurement
//! substrates* — Monarch-like time series (`rpclens-tsdb`), Dapper-like
//! traces (`rpclens-trace`), and GWP-like cycle profiles
//! (`rpclens-profiler`) — but those observe the *simulated fleet*. This
//! crate observes the *simulator*: what the sharded driver did, how long
//! each phase took, what each shard processed, and whether the run's
//! service-level behaviour regressed against a previous run.
//!
//! Three parts, mirroring the production observability stack the paper's
//! methodology leans on:
//!
//! - [`telemetry`] — structured, shard-local counters and phase timers.
//!   Counters are a pure function of the master seed and are folded in
//!   shard-id order; wall-clock measurements are kept separate and
//!   explicitly labeled non-deterministic.
//! - [`manifest`] — a versioned JSON run manifest ([`manifest::RunManifest`])
//!   with a `deterministic` section that is byte-identical at any shard
//!   count and a `runtime` section carrying wall-clock and
//!   execution-shape fields.
//! - [`detect`] — SLO/anomaly detectors over per-window metric streams:
//!   error-budget burn (optionally correlated with network congestion
//!   episodes), tail-latency regression against a baseline manifest,
//!   retry-storm amplification, and metastable-overload collapse.
//!
//! The determinism contract of `docs/ARCHITECTURE.md` extends to this
//! crate: everything outside the manifest's `runtime` section must be
//! reproducible bit-for-bit from the master seed alone. The in-tree test
//! `crates/bench/tests/telemetry_determinism.rs` enforces it.
//!
//! [`json`] is the self-contained JSON layer both directions go through;
//! the vendored `serde` is a no-op stub (see `docs/KNOWN_ISSUES.md`), so
//! the manifest format is written and parsed here, deterministically.

#![warn(missing_docs)]

pub mod detect;
pub mod json;
pub mod manifest;
pub mod telemetry;

pub use detect::{
    error_budget_burn, metastable_overload, retry_storm, tail_regression, Finding, Severity,
    SloConfig, WindowSample,
};
pub use manifest::{LatencyQuantiles, RobustnessSection, RunManifest, MANIFEST_SCHEMA_VERSION};
pub use telemetry::{
    PhaseTimings, QueueTelemetry, ResilienceTelemetry, RunTelemetry, ShardCounters, WireTelemetry,
};

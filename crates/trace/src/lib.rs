//! A sampling distributed tracer (Dapper-like).
//!
//! The paper's per-RPC analyses (Figs. 2–7, 10–17, 19, 21) come from a
//! tracing service that samples *entire RPC trees* and annotates every
//! span with per-component latency. This crate implements that substrate:
//!
//! - [`span`]: compact span records (one per RPC in a sampled tree) with
//!   quantized component latencies, sizes, cycles, and error status.
//! - [`collector`]: head-based trace sampling and storage.
//! - [`tree`]: tree assembly plus descendant/ancestor statistics (the
//!   "wider than deep" analysis of §2.4).
//! - [`query`]: per-method extraction with the paper's filters (≥100
//!   samples, errors excluded from latency, intra-cluster restriction).
//! - [`summary`]: per-method summary tables, one per store, that the
//!   per-method figures share.
//! - [`critical_path`]: CRISP-style critical-path extraction and
//!   per-method criticality reports (the §6-motivated extension).
//! - [`export`]: versioned, checksummed binary persistence of trace
//!   stores for offline re-analysis.
//!
//! Collection semantics follow the paper's methodology (§2.1): time spent
//! in nested calls is included in the parent's application component, and
//! erroneous RPCs are excluded from latency distributions but retained
//! for error accounting.

pub mod collector;
pub mod critical_path;
pub mod export;
pub mod query;
pub mod span;
pub mod summary;
pub mod tree;

/// Convenience re-exports of the most commonly used trace types.
pub mod trace_prelude {
    pub use crate::{
        collector::{TraceCollector, TraceStore},
        critical_path::{CriticalPath, CriticalityReport},
        query::MethodQuery,
        span::{MethodId, ServiceId, SpanBuilder, SpanRecord, TraceData},
        tree::TreeStats,
    };
}

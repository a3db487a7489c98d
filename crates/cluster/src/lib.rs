//! Cluster and machine model for the fleet simulator.
//!
//! RPC servers in the study run as replicated tasks on shared machines, and
//! the paper shows (Figs. 17–18, Table 2) that *exogenous* machine state —
//! CPU utilization, memory bandwidth, long scheduler wakeups, and cycles
//! per instruction — drives much of the latency variation between and
//! within clusters. This crate models:
//!
//! - [`exogenous`]: deterministic diurnal processes for the four exogenous
//!   variables of Table 2, queryable at any simulated instant.
//! - [`machine`]: a machine whose execution speed and scheduler wakeup
//!   latency are coupled to its exogenous state.
//! - [`pool`]: an exact FIFO M/G/k worker pool producing server queueing
//!   delay.
//! - [`site`]: dense `(u16, u16)`-keyed lookup tables so the driver's
//!   per-span site access is one vector index instead of a hash probe.

pub mod exogenous;
pub mod machine;
pub mod mgk;
pub mod pool;
pub mod site;

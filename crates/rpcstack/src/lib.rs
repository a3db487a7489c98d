//! A userspace RPC stack model (Stubby/gRPC-like).
//!
//! The paper decomposes every RPC into nine stack components plus the
//! server application (Fig. 9), and separately accounts the CPU cycles the
//! stack consumes (the *RPC cycle tax*, Fig. 20). This crate implements
//! that stack:
//!
//! - [`component`]: the latency components and per-RPC breakdowns.
//! - [`codec`]: the binary wire format (framing, varints, CRC32).
//! - [`cost`]: cycle cost models for serialization, compression,
//!   encryption, networking, and library dispatch.
//! - [`deadline`]: deadline budgets and hop-by-hop propagation.
//! - [`error`]: RPC error taxonomy and injection profiles (Fig. 23).
//! - [`hedging`]: request hedging, the dominant source of cancellations.
//! - [`retry`]: backoff and retry budgets for transient errors.
//! - [`queue`]: soft client-side queue delay models.
//!
//! The stack is *driven* by the fleet simulator's event loop; this crate
//! supplies the deterministic state machines and cost computations.

pub mod codec;
pub mod component;
pub mod cost;
pub mod deadline;
pub mod error;
pub mod hedging;
pub mod queue;
pub mod retry;

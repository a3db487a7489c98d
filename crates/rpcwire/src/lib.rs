//! An *executable* RPC runtime over UDP loopback.
//!
//! The rest of the workspace prices the RPC stack analytically:
//! [`rpclens_rpcstack::cost`] charges cycles per byte and per packet, and
//! the fleet driver turns those charges into simulated latency. This crate
//! stands up a real wire so those models can be checked against measured
//! numbers (the ROADMAP's "real wire" item):
//!
//! - [`message`]: the request/response envelope carried inside
//!   [`rpclens_rpcstack::codec`] frames — length-prefixed, checksummed,
//!   with request/reply matching keys.
//! - [`compress`]: a small LZ-class compressor actually executed on
//!   payloads (the simulator only *prices* compression).
//! - [`transport`]: the pluggable [`transport::Transport`] trait with a
//!   std `UdpSocket` loopback implementation and an in-memory
//!   deterministic link for tests.
//! - [`faulty`]: seeded drop/duplicate/reorder/corrupt wrappers (seeded
//!   like `fleet::faults`) for exercising invocation semantics.
//! - [`client`]: a client with seeded-jitter retransmission timers.
//! - [`server`]: a poll-driven server with **at-most-once** (reply dedup
//!   cache) and **at-least-once** (re-execute every delivery) semantics.
//! - [`sink`]: pluggable [`sink::SpanSink`] span-event instrumentation —
//!   paired with [`message::TraceContext`] propagation it turns a
//!   multi-hop topology into a measured causal tree (distributed
//!   tracing; see `docs/OBSERVABILITY.md`).
//! - [`payload`]: deterministic, partially compressible synthetic payload
//!   generation mirroring the catalog's size models.
//!
//! The `rpclens-wire` binary (in `rpclens-bench`) serves the fleet
//! catalog's methods over 127.0.0.1 and emits a measured-vs-modeled
//! comparison artifact; see `docs/WIRE.md`.

#![warn(missing_docs)]

pub mod client;
pub mod compress;
pub mod faulty;
pub mod message;
pub mod payload;
pub mod server;
pub mod sink;
pub mod transport;

pub use client::{ClientStats, WireClient};
pub use faulty::{FaultConfig, FaultStats, FaultyTransport};
pub use message::{Request, Response, Status, TraceContext, WireError};
pub use server::{Handler, Semantics, ServerStats, WireServer};
pub use sink::{NullSink, SpanEvent, SpanEventKind, SpanSink, VecSink};
pub use transport::{MemLink, ServerTransport, Transport, UdpServerSocket, UdpTransport};

//! Compact span records.
//!
//! A fleet-scale run stores millions of spans, so the on-heap
//! representation is quantized: component latencies and start offsets in
//! 100 ns units (`u32`, max ~7 minutes per field — far above any RPC),
//! sizes saturated to `u32`, cycles in kilocycles. Accessors convert back
//! to the workspace's standard types; quantization error is below the
//! log-histogram bucket error everywhere it matters.

use rpclens_netsim::topology::ClusterId;
use rpclens_rpcstack::component::{LatencyBreakdown, LatencyComponent};
use rpclens_rpcstack::error::ErrorKind;
use rpclens_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifier of an RPC method (dense index into the catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MethodId(pub u32);

/// Identifier of a service (a set of methods owned by one application).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServiceId(pub u16);

/// Quantum for stored durations: 100 ns.
const TICK_NS: u64 = 100;

/// Sentinel parent index marking a root span.
pub const ROOT_PARENT: u32 = u32::MAX;

fn to_ticks(d: SimDuration) -> u32 {
    (d.as_nanos() / TICK_NS).min(u32::MAX as u64) as u32
}

fn from_ticks(t: u32) -> SimDuration {
    SimDuration::from_nanos(t as u64 * TICK_NS)
}

/// One RPC within a sampled trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Invoked method.
    pub method: MethodId,
    /// Owning service (denormalised from the catalog).
    pub service: ServiceId,
    /// Index of the parent span within the trace, or [`ROOT_PARENT`].
    pub parent: u32,
    /// Cluster the client ran in.
    pub client_cluster: ClusterId,
    /// Cluster the server ran in.
    pub server_cluster: ClusterId,
    /// Start offset from the trace root's start, 100 ns units.
    start_ticks: u32,
    /// Per-component latency, 100 ns units, lifecycle order.
    components: [u32; 9],
    /// Request payload bytes (saturated).
    pub request_bytes: u32,
    /// Response payload bytes (saturated).
    pub response_bytes: u32,
    /// Server CPU kilocycles consumed (app + stack), or 0 if unannotated.
    pub kilocycles: u32,
    /// Error outcome, if any.
    pub error: Option<ErrorKind>,
    /// Whether this span was a hedge copy.
    pub hedged: bool,
    /// Whether this call was fire-and-forget (the parent did not block
    /// on it, so it may complete after the parent).
    pub detached: bool,
}

impl SpanRecord {
    /// An all-zero root record of method 0 that reserves a slot in a
    /// trace until the finished record overwrites it.
    pub const PLACEHOLDER: SpanRecord = SpanRecord {
        method: MethodId(0),
        service: ServiceId(0),
        parent: ROOT_PARENT,
        client_cluster: ClusterId(0),
        server_cluster: ClusterId(0),
        start_ticks: 0,
        components: [0; 9],
        request_bytes: 0,
        response_bytes: 0,
        kilocycles: 0,
        error: None,
        hedged: false,
        detached: false,
    };

    /// Start offset from the trace root's start.
    pub fn start_offset(&self) -> SimDuration {
        from_ticks(self.start_ticks)
    }

    /// One component's latency.
    pub fn component(&self, c: LatencyComponent) -> SimDuration {
        from_ticks(self.components[c.index()])
    }

    /// The full latency breakdown (dequantized).
    pub fn breakdown(&self) -> LatencyBreakdown {
        let mut b = LatencyBreakdown::new();
        for (i, &c) in LatencyComponent::ALL.iter().enumerate() {
            b.set(c, from_ticks(self.components[i]));
        }
        b
    }

    /// RPC completion time (sum of all components).
    pub fn total_latency(&self) -> SimDuration {
        self.breakdown().total()
    }

    /// Whether this span is a root RPC.
    pub fn is_root(&self) -> bool {
        self.parent == ROOT_PARENT
    }

    /// Whether this span completed successfully.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Builder for a [`SpanRecord`].
#[derive(Debug, Clone)]
pub struct SpanBuilder {
    method: MethodId,
    service: ServiceId,
    parent: u32,
    client_cluster: ClusterId,
    server_cluster: ClusterId,
    start_offset: SimDuration,
    breakdown: LatencyBreakdown,
    request_bytes: u64,
    response_bytes: u64,
    cycles: u64,
    error: Option<ErrorKind>,
    hedged: bool,
    detached: bool,
}

impl SpanBuilder {
    /// Starts a builder for a call to `method` of `service` between two
    /// clusters.
    pub fn new(
        method: MethodId,
        service: ServiceId,
        client_cluster: ClusterId,
        server_cluster: ClusterId,
    ) -> Self {
        SpanBuilder {
            method,
            service,
            parent: ROOT_PARENT,
            client_cluster,
            server_cluster,
            start_offset: SimDuration::ZERO,
            breakdown: LatencyBreakdown::new(),
            request_bytes: 0,
            response_bytes: 0,
            cycles: 0,
            error: None,
            hedged: false,
            detached: false,
        }
    }

    /// Sets the parent span index within the trace.
    pub fn parent(mut self, parent_index: u32) -> Self {
        self.parent = parent_index;
        self
    }

    /// Sets the start offset from the trace root.
    pub fn start_offset(mut self, offset: SimDuration) -> Self {
        self.start_offset = offset;
        self
    }

    /// Sets the latency breakdown.
    pub fn breakdown(mut self, b: LatencyBreakdown) -> Self {
        self.breakdown = b;
        self
    }

    /// Sets request/response payload sizes.
    pub fn sizes(mut self, request_bytes: u64, response_bytes: u64) -> Self {
        self.request_bytes = request_bytes;
        self.response_bytes = response_bytes;
        self
    }

    /// Sets the server CPU cycles consumed.
    pub fn cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    /// Marks the span as failed.
    pub fn error(mut self, kind: ErrorKind) -> Self {
        self.error = Some(kind);
        self
    }

    /// Marks the span as a hedge copy.
    pub fn hedged(mut self, hedged: bool) -> Self {
        self.hedged = hedged;
        self
    }

    /// Marks the span as fire-and-forget.
    pub fn detached(mut self, detached: bool) -> Self {
        self.detached = detached;
        self
    }

    /// Finalizes the record (quantizing durations and saturating sizes).
    pub fn build(self) -> SpanRecord {
        let mut components = [0u32; 9];
        for (i, &c) in LatencyComponent::ALL.iter().enumerate() {
            components[i] = to_ticks(self.breakdown.get(c));
        }
        SpanRecord {
            method: self.method,
            service: self.service,
            parent: self.parent,
            client_cluster: self.client_cluster,
            server_cluster: self.server_cluster,
            start_ticks: to_ticks(self.start_offset),
            components,
            request_bytes: self.request_bytes.min(u32::MAX as u64) as u32,
            response_bytes: self.response_bytes.min(u32::MAX as u64) as u32,
            kilocycles: (self.cycles / 1000).min(u32::MAX as u64) as u32,
            error: self.error,
            hedged: self.hedged,
            detached: self.detached,
        }
    }
}

/// A sampled RPC tree: the root's absolute start time plus all spans.
///
/// Span index 0 is always the root; children reference parents by index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceData {
    /// Absolute start time of the root RPC.
    pub root_start: SimTime,
    /// All spans, root first.
    pub spans: Vec<SpanRecord>,
}

impl TraceData {
    /// Creates a trace from its spans.
    ///
    /// A trace is normally a single tree, but hedged root calls make it a
    /// small forest: spans other than index 0 may also carry
    /// [`ROOT_PARENT`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the first span is not a root or a
    /// parent index does not precede its child.
    pub fn new(root_start: SimTime, spans: Vec<SpanRecord>) -> Self {
        debug_assert!(!spans.is_empty(), "trace needs at least one span");
        debug_assert!(spans[0].is_root(), "span 0 must be the root");
        debug_assert!(
            spans
                .iter()
                .enumerate()
                .skip(1)
                .all(|(i, s)| s.is_root() || (s.parent as usize) < i),
            "parents must precede children"
        );
        TraceData { root_start, spans }
    }

    /// Number of spans (RPCs) in the tree.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The root span.
    pub fn root(&self) -> &SpanRecord {
        &self.spans[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: u16) -> ClusterId {
        ClusterId(n)
    }

    fn simple_span() -> SpanRecord {
        let mut b = LatencyBreakdown::new();
        b.set(
            LatencyComponent::ServerApplication,
            SimDuration::from_millis(3),
        );
        b.set(
            LatencyComponent::RequestNetworkWire,
            SimDuration::from_micros(120),
        );
        SpanBuilder::new(MethodId(5), ServiceId(2), cluster(0), cluster(1))
            .breakdown(b)
            .sizes(1024, 2048)
            .cycles(9_000_000)
            .build()
    }

    #[test]
    fn builder_roundtrips_fields() {
        let s = simple_span();
        assert_eq!(s.method, MethodId(5));
        assert_eq!(s.service, ServiceId(2));
        assert!(s.is_root());
        assert!(s.is_ok());
        assert_eq!(s.request_bytes, 1024);
        assert_eq!(s.response_bytes, 2048);
        assert_eq!(s.kilocycles, 9_000);
        assert_eq!(
            s.component(LatencyComponent::ServerApplication),
            SimDuration::from_millis(3)
        );
        assert_eq!(
            s.component(LatencyComponent::RequestNetworkWire),
            SimDuration::from_micros(120)
        );
        assert_eq!(s.total_latency(), SimDuration::from_micros(3120));
    }

    #[test]
    fn quantization_error_is_sub_tick() {
        let mut b = LatencyBreakdown::new();
        b.set(
            LatencyComponent::ServerApplication,
            SimDuration::from_nanos(123_456_789),
        );
        let s = SpanBuilder::new(MethodId(0), ServiceId(0), cluster(0), cluster(0))
            .breakdown(b)
            .build();
        let back = s.component(LatencyComponent::ServerApplication).as_nanos();
        assert!(back.abs_diff(123_456_789) < 100, "quantized to {back}");
    }

    #[test]
    fn sizes_saturate_not_wrap() {
        let s = SpanBuilder::new(MethodId(0), ServiceId(0), cluster(0), cluster(0))
            .sizes(u64::MAX, 10)
            .cycles(u64::MAX)
            .build();
        assert_eq!(s.request_bytes, u32::MAX);
        assert_eq!(s.kilocycles, u32::MAX);
    }

    #[test]
    fn error_and_hedge_flags() {
        let s = SpanBuilder::new(MethodId(0), ServiceId(0), cluster(0), cluster(0))
            .error(ErrorKind::Cancelled)
            .hedged(true)
            .build();
        assert!(!s.is_ok());
        assert_eq!(s.error, Some(ErrorKind::Cancelled));
        assert!(s.hedged);
    }

    #[test]
    fn trace_links_spans_to_absolute_time() {
        let root = simple_span();
        let child = SpanBuilder::new(MethodId(6), ServiceId(2), cluster(1), cluster(1))
            .parent(0)
            .start_offset(SimDuration::from_micros(500))
            .build();
        let t = TraceData::new(SimTime::from_nanos(1_000_000_000), vec![root, child]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.root().method, MethodId(5));
        assert_eq!(
            t.root_start + t.spans[1].start_offset(),
            SimTime::from_nanos(1_000_000_000 + 500_000)
        );
    }

    #[test]
    #[should_panic(expected = "root")]
    #[cfg(debug_assertions)]
    fn non_root_first_span_panics() {
        let child = SpanBuilder::new(MethodId(0), ServiceId(0), cluster(0), cluster(0))
            .parent(0)
            .build();
        let _ = TraceData::new(SimTime::ZERO, vec![child]);
    }

    #[test]
    fn span_record_is_compact() {
        // The whole point of quantization: a span must stay well under
        // 100 bytes so fleet-scale runs fit in memory.
        assert!(
            std::mem::size_of::<SpanRecord>() <= 96,
            "SpanRecord is {} bytes",
            std::mem::size_of::<SpanRecord>()
        );
    }
}

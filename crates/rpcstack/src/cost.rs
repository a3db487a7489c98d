//! Cycle cost models for the RPC stack (the *RPC cycle tax*).
//!
//! Fig. 20 of the paper attributes 7.1% of all fleet CPU cycles to the RPC
//! tax, dominated by compression (3.1%), networking (1.7%), serialization
//! (1.2%), and the RPC library itself (1.1%). The model here charges each
//! frame per-byte and per-packet costs in those categories; the fleet
//! driver feeds the resulting cycle counts both into latency (stack
//! processing time) and into the profiler (cycle accounting).

use rpclens_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Cycle attribution categories used by the fleet profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CycleCategory {
    /// Application handler work (not part of the tax).
    Application,
    /// Compression and decompression.
    Compression,
    /// Serialization and deserialization (marshalling).
    Serialization,
    /// Encryption and decryption.
    Encryption,
    /// Kernel and userspace network stack (TCP, packetization, syscalls).
    Networking,
    /// The RPC library: dispatch, method lookup, buffer management.
    RpcLibrary,
    /// Memory allocation attributable to the stack.
    Allocation,
    /// Everything else (bookkeeping, stats, tracing).
    Other,
}

impl CycleCategory {
    /// All categories, tax categories first.
    pub const ALL: [CycleCategory; 8] = [
        CycleCategory::Compression,
        CycleCategory::Serialization,
        CycleCategory::Encryption,
        CycleCategory::Networking,
        CycleCategory::RpcLibrary,
        CycleCategory::Allocation,
        CycleCategory::Other,
        CycleCategory::Application,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CycleCategory::Application => "Application",
            CycleCategory::Compression => "Compression",
            CycleCategory::Serialization => "Serialization",
            CycleCategory::Encryption => "Encryption",
            CycleCategory::Networking => "Networking",
            CycleCategory::RpcLibrary => "RPC Library",
            CycleCategory::Allocation => "Allocation",
            CycleCategory::Other => "Other",
        }
    }

    /// Whether the category is part of the RPC cycle tax.
    pub fn is_tax(self) -> bool {
        self != CycleCategory::Application
    }

    /// This category's position in [`CycleCategory::ALL`], the dense
    /// index used by [`CycleCost`] and the profiler's category table.
    pub const fn index(self) -> usize {
        match self {
            CycleCategory::Compression => 0,
            CycleCategory::Serialization => 1,
            CycleCategory::Encryption => 2,
            CycleCategory::Networking => 3,
            CycleCategory::RpcLibrary => 4,
            CycleCategory::Allocation => 5,
            CycleCategory::Other => 6,
            CycleCategory::Application => 7,
        }
    }
}

/// Cycles attributed per category for one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleCost {
    cycles: [u64; 8],
}

impl CycleCost {
    /// An all-zero cost.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds cycles to a category.
    pub fn add(&mut self, c: CycleCategory, cycles: u64) {
        self.cycles[c.index()] += cycles;
    }

    /// Reads a category's cycles.
    pub fn get(&self, c: CycleCategory) -> u64 {
        self.cycles[c.index()]
    }

    /// Total cycles across all categories.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Total tax cycles (everything but application).
    pub fn tax(&self) -> u64 {
        CycleCategory::ALL
            .iter()
            .filter(|c| c.is_tax())
            .map(|&c| self.get(c))
            .sum()
    }

    /// Merges another cost into this one.
    pub fn merge(&mut self, other: &CycleCost) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += b;
        }
    }

    /// Iterates `(category, cycles)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CycleCategory, u64)> + '_ {
        CycleCategory::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// The raw per-category cycle array, indexed by
    /// [`CycleCategory::index`].
    pub fn as_array(&self) -> &[u64; 8] {
        &self.cycles
    }
}

/// Per-byte and per-operation cycle coefficients.
///
/// Defaults are in line with published measurements of protobuf-style
/// serialization (a few cycles/byte), LZ-class compression (tens of
/// cycles/byte), AES-NI encryption (~1 cycle/byte), and kernel TCP
/// processing (a few thousand cycles per packet).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StackCostConfig {
    /// Fixed dispatch cost of the RPC library per call, cycles.
    pub library_base: u64,
    /// Library cost per byte moved (buffer management), cycles.
    pub library_per_byte: f64,
    /// Serialization cost per byte, cycles.
    pub serialize_per_byte: f64,
    /// Fixed serialization cost per message, cycles.
    pub serialize_base: u64,
    /// Compression cost per byte (when enabled), cycles.
    pub compress_per_byte: f64,
    /// Compression ratio achieved (compressed/original size).
    pub compression_ratio: f64,
    /// Encryption cost per byte (when enabled), cycles.
    pub encrypt_per_byte: f64,
    /// Network stack cost per packet, cycles.
    pub net_per_packet: u64,
    /// Network stack fixed cost per message (syscalls, epoll), cycles.
    pub net_base: u64,
    /// Allocation cost per message, cycles.
    pub alloc_base: u64,
    /// MTU used for packetization, bytes.
    pub mtu: u64,
    /// Baseline CPU clock, Hz (for converting cycles to time).
    pub clock_hz: f64,
    /// Fraction of stack cycles on the latency path: production stacks
    /// pipeline chunked compression/serialization with transmission and
    /// spread work across cores, so elapsed stack time is well below
    /// serial cycles divided by clock.
    pub pipeline_factor: f64,
    /// Serialization-rate multiplier for opaque blob payloads (storage
    /// blocks are memcpy'd, not field-by-field encoded).
    pub blob_serialize_factor: f64,
    /// Decompression cost relative to compression (LZ-class decoders are
    /// several times cheaper than encoders).
    pub decompress_factor: f64,
}

/// How a message's payload is handled by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageClass {
    /// Payload is compressed on the wire.
    pub compressed: bool,
    /// Payload is encrypted on the wire.
    pub encrypted: bool,
    /// Payload is an opaque blob (cheap serialization).
    pub blob: bool,
}

impl MessageClass {
    /// The fleet-default class: compressed + encrypted structured data.
    pub fn structured() -> Self {
        MessageClass {
            compressed: true,
            encrypted: true,
            blob: false,
        }
    }

    /// Pre-compressed storage blocks: encrypted opaque blobs.
    pub fn blob() -> Self {
        MessageClass {
            compressed: false,
            encrypted: true,
            blob: true,
        }
    }
}

impl Default for StackCostConfig {
    fn default() -> Self {
        StackCostConfig {
            library_base: 42_000,
            library_per_byte: 0.3,
            serialize_per_byte: 16.0,
            serialize_base: 1_500,
            compress_per_byte: 52.0,
            compression_ratio: 0.45,
            encrypt_per_byte: 1.2,
            net_per_packet: 9_000,
            net_base: 20_000,
            alloc_base: 3_000,
            mtu: 1460,
            clock_hz: 3.0e9,
            pipeline_factor: 0.35,
            blob_serialize_factor: 0.12,
            decompress_factor: 0.33,
        }
    }
}

/// The stack cost model: maps message sizes to cycles and time.
#[derive(Debug, Clone, Copy)]
pub struct StackCostModel {
    cfg: StackCostConfig,
}

impl StackCostModel {
    /// Creates a model from a configuration.
    pub fn new(cfg: StackCostConfig) -> Self {
        StackCostModel { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StackCostConfig {
        &self.cfg
    }

    /// The bytes that actually cross the wire for a payload of
    /// `payload_bytes` (after optional compression, plus framing).
    pub fn wire_bytes(&self, payload_bytes: u64, compressed: bool) -> u64 {
        let body = if compressed {
            (payload_bytes as f64 * self.cfg.compression_ratio).ceil() as u64
        } else {
            payload_bytes
        };
        // Framing overhead: header + checksum, ~48 bytes.
        body + 48
    }

    fn ser_rate(&self, class: MessageClass) -> f64 {
        if class.blob {
            self.cfg.serialize_per_byte * self.cfg.blob_serialize_factor
        } else {
            self.cfg.serialize_per_byte
        }
    }

    fn shared_path_cost(&self, payload_bytes: u64, class: MessageClass, cost: &mut CycleCost) {
        let b = payload_bytes as f64;
        let wire = self.wire_bytes(payload_bytes, class.compressed);
        if class.encrypted {
            cost.add(
                CycleCategory::Encryption,
                (self.cfg.encrypt_per_byte * wire as f64) as u64,
            );
        }
        let packets = wire.div_ceil(self.cfg.mtu).max(1);
        cost.add(
            CycleCategory::Networking,
            self.cfg.net_base + packets * self.cfg.net_per_packet,
        );
        cost.add(
            CycleCategory::RpcLibrary,
            self.cfg.library_base + (self.cfg.library_per_byte * b) as u64,
        );
        cost.add(CycleCategory::Allocation, self.cfg.alloc_base);
    }

    /// Cycles the *sender* burns on one message: serialize, compress,
    /// encrypt, transmit.
    pub fn sender_cost(&self, payload_bytes: u64, class: MessageClass) -> CycleCost {
        let mut cost = CycleCost::new();
        let b = payload_bytes as f64;
        cost.add(
            CycleCategory::Serialization,
            self.cfg.serialize_base + (self.ser_rate(class) * b) as u64,
        );
        if class.compressed {
            cost.add(
                CycleCategory::Compression,
                (self.cfg.compress_per_byte * b) as u64,
            );
        }
        self.shared_path_cost(payload_bytes, class, &mut cost);
        cost
    }

    /// Cycles the *receiver* burns on one message: receive, decrypt,
    /// decompress, parse. Parsing is cheaper than encoding and LZ-class
    /// decompression is several times cheaper than compression.
    pub fn receiver_cost(&self, payload_bytes: u64, class: MessageClass) -> CycleCost {
        let mut cost = CycleCost::new();
        let b = payload_bytes as f64;
        cost.add(
            CycleCategory::Serialization,
            self.cfg.serialize_base + (self.ser_rate(class) * 0.6 * b) as u64,
        );
        if class.compressed {
            cost.add(
                CycleCategory::Compression,
                (self.cfg.compress_per_byte * self.cfg.decompress_factor * b) as u64,
            );
        }
        self.shared_path_cost(payload_bytes, class, &mut cost);
        cost
    }

    /// Converts cycles to wall time on a machine running at `slowdown`
    /// times the baseline clock (1.0 = baseline).
    pub fn cycles_to_time(&self, cycles: u64, slowdown: f64) -> SimDuration {
        SimDuration::from_secs_f64(cycles as f64 * slowdown.max(0.0) / self.cfg.clock_hz)
    }

    /// The elapsed *latency* one message direction adds for stack
    /// processing: both endpoints' tax cycles, discounted by the pipeline
    /// factor (chunked processing overlaps with transmission and spans
    /// multiple cores).
    pub fn stack_latency(
        &self,
        payload_bytes: u64,
        class: MessageClass,
        slowdown: f64,
    ) -> SimDuration {
        self.stack_latency_of(
            &self.sender_cost(payload_bytes, class),
            &self.receiver_cost(payload_bytes, class),
            slowdown,
        )
    }

    /// [`StackCostModel::stack_latency`] of a message whose sender and
    /// receiver costs are already computed — the fleet driver also
    /// charges both to the profiler, so each is evaluated once.
    pub fn stack_latency_of(
        &self,
        sender: &CycleCost,
        receiver: &CycleCost,
        slowdown: f64,
    ) -> SimDuration {
        let cycles = sender.tax() + receiver.tax();
        self.cycles_to_time((cycles as f64 * self.cfg.pipeline_factor) as u64, slowdown)
    }

    /// Converts cycles to nanoseconds at the baseline clock.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cfg.clock_hz * 1e9
    }

    /// Modeled per-component nanoseconds for the *sender* side of one
    /// message, at the baseline clock. This is the Fig. 9/20-style
    /// breakdown the wire validation harness compares measured component
    /// timings against (see `rpclens-wire`).
    pub fn sender_component_ns(&self, payload_bytes: u64, class: MessageClass) -> ComponentNanos {
        ComponentNanos::from_cost(self, &self.sender_cost(payload_bytes, class))
    }

    /// Modeled per-component nanoseconds for the *receiver* side of one
    /// message, at the baseline clock.
    pub fn receiver_component_ns(&self, payload_bytes: u64, class: MessageClass) -> ComponentNanos {
        ComponentNanos::from_cost(self, &self.receiver_cost(payload_bytes, class))
    }
}

/// A modeled per-component time breakdown for one side of one message,
/// in nanoseconds at the baseline clock. Categories follow
/// [`CycleCategory`]; `tax_ns` is the serial sum (no pipeline discount),
/// which is the right comparison target for a single-threaded
/// measurement harness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentNanos {
    /// Serialization / parsing time.
    pub serialize_ns: f64,
    /// Compression / decompression time.
    pub compress_ns: f64,
    /// Encryption / decryption time.
    pub encrypt_ns: f64,
    /// Network stack time (packetization, syscalls).
    pub network_ns: f64,
    /// RPC library dispatch and buffer management time.
    pub library_ns: f64,
    /// Allocation time.
    pub alloc_ns: f64,
    /// Total tax time (everything but application work), serial.
    pub tax_ns: f64,
}

/// The stage sums the wire harness prices its measured stages with. Each
/// adds its terms left to right in the order its doc gives: the wire
/// trace's virtual clock, and so its pinned digests, depend on that order
/// bit for bit.
impl ComponentNanos {
    /// Sender-side processing of one message before the network stack:
    /// serialize + compress + library + alloc.
    pub fn prep_ns(&self) -> f64 {
        self.serialize_ns + self.compress_ns + self.library_ns + self.alloc_ns
    }

    /// Sender-side processing without compression, the stage a harness
    /// times apart from its compression: serialize + library + alloc.
    pub fn encode_ns(&self) -> f64 {
        self.serialize_ns + self.library_ns + self.alloc_ns
    }

    /// Receiver-side decode of one message: serialize + compress.
    pub fn decode_ns(&self) -> f64 {
        self.serialize_ns + self.compress_ns
    }

    /// Both ends' network stacks for one message: this sender's plus
    /// `receiver`'s.
    pub fn wire_ns(&self, receiver: &ComponentNanos) -> f64 {
        self.network_ns + receiver.network_ns
    }

    fn from_cost(model: &StackCostModel, cost: &CycleCost) -> Self {
        ComponentNanos {
            serialize_ns: model.cycles_to_ns(cost.get(CycleCategory::Serialization)),
            compress_ns: model.cycles_to_ns(cost.get(CycleCategory::Compression)),
            encrypt_ns: model.cycles_to_ns(cost.get(CycleCategory::Encryption)),
            network_ns: model.cycles_to_ns(cost.get(CycleCategory::Networking)),
            library_ns: model.cycles_to_ns(cost.get(CycleCategory::RpcLibrary)),
            alloc_ns: model.cycles_to_ns(cost.get(CycleCategory::Allocation)),
            tax_ns: model.cycles_to_ns(cost.tax()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> StackCostModel {
        StackCostModel::new(StackCostConfig::default())
    }

    /// Cycles both endpoints spend moving one message (sender plus
    /// receiver).
    fn both_sides(m: &StackCostModel, bytes: u64, compressed: bool, encrypted: bool) -> CycleCost {
        let class = MessageClass {
            compressed,
            encrypted,
            blob: false,
        };
        let mut cost = m.sender_cost(bytes, class);
        cost.merge(&m.receiver_cost(bytes, class));
        cost
    }

    #[test]
    fn component_nanos_sum_to_the_tax() {
        let m = model();
        for bytes in [64u64, 1024, 65_536] {
            let n = m.sender_component_ns(bytes, MessageClass::structured());
            let sum = n.serialize_ns
                + n.compress_ns
                + n.encrypt_ns
                + n.network_ns
                + n.library_ns
                + n.alloc_ns;
            assert!(
                (sum - n.tax_ns).abs() < 1.0,
                "{bytes}: {sum} vs {}",
                n.tax_ns
            );
        }
    }

    #[test]
    fn cycles_to_ns_uses_the_baseline_clock() {
        // 3 GHz clock: 3 cycles = 1 ns.
        let m = model();
        assert!((m.cycles_to_ns(3_000) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn receiver_components_are_cheaper_than_sender() {
        // Parsing < encoding, decompression < compression.
        let m = model();
        let s = m.sender_component_ns(16 * 1024, MessageClass::structured());
        let r = m.receiver_component_ns(16 * 1024, MessageClass::structured());
        assert!(r.serialize_ns < s.serialize_ns);
        assert!(r.compress_ns < s.compress_ns);
    }

    #[test]
    fn category_index_matches_position_in_all() {
        for (i, &cat) in CycleCategory::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i, "{cat:?}");
        }
    }

    #[test]
    fn cost_grows_with_size() {
        let m = model();
        let small = both_sides(&m, 64, false, false).total();
        let large = both_sides(&m, 64 * 1024, false, false).total();
        assert!(large > small * 3, "small {small}, large {large}");
    }

    #[test]
    fn compression_adds_cycles_but_shrinks_wire_bytes() {
        let m = model();
        let plain = both_sides(&m, 32 * 1024, false, false);
        let compressed = both_sides(&m, 32 * 1024, true, false);
        assert!(compressed.get(CycleCategory::Compression) > 0);
        assert_eq!(plain.get(CycleCategory::Compression), 0);
        assert!(m.wire_bytes(32 * 1024, true) < m.wire_bytes(32 * 1024, false));
        // Fewer wire bytes means fewer packets, hence less networking.
        assert!(compressed.get(CycleCategory::Networking) < plain.get(CycleCategory::Networking));
    }

    #[test]
    fn encryption_charges_per_wire_byte() {
        let m = model();
        let plain = both_sides(&m, 4096, false, false);
        let enc = both_sides(&m, 4096, false, true);
        assert_eq!(plain.get(CycleCategory::Encryption), 0);
        assert!(enc.get(CycleCategory::Encryption) >= 4096);
    }

    #[test]
    fn compression_dominates_tax_for_large_compressed_messages() {
        // The fleet's biggest tax component is compression (Fig. 20b);
        // for a typical compressed KB-scale message it should dominate.
        let m = model();
        let c = both_sides(&m, 16 * 1024, true, true);
        assert!(c.get(CycleCategory::Compression) > c.get(CycleCategory::Serialization));
        assert!(c.get(CycleCategory::Compression) > c.get(CycleCategory::Networking));
    }

    #[test]
    fn tax_excludes_application() {
        let mut c = CycleCost::new();
        c.add(CycleCategory::Application, 1_000_000);
        c.add(CycleCategory::Serialization, 500);
        assert_eq!(c.tax(), 500);
        assert_eq!(c.total(), 1_000_500);
    }

    #[test]
    fn merge_accumulates() {
        let m = model();
        let a = both_sides(&m, 100, true, true);
        let b = both_sides(&m, 200, false, false);
        let mut merged = a;
        merged.merge(&b);
        for (cat, cycles) in merged.iter() {
            assert_eq!(cycles, a.get(cat) + b.get(cat));
        }
    }

    #[test]
    fn cycles_to_time_uses_clock_and_slowdown() {
        let m = model();
        let t = m.cycles_to_time(3_000_000, 1.0);
        assert_eq!(t, SimDuration::from_millis(1));
        let slow = m.cycles_to_time(3_000_000, 2.0);
        assert_eq!(slow, SimDuration::from_millis(2));
    }

    #[test]
    fn packetization_steps_at_mtu_boundaries() {
        let m = model();
        let one = both_sides(&m, 500, false, false).get(CycleCategory::Networking);
        let two = both_sides(&m, 2000, false, false).get(CycleCategory::Networking);
        // both_sides counts both endpoints, so one extra packet costs
        // one per-packet charge on each side.
        assert_eq!(
            two - one,
            2 * StackCostConfig::default().net_per_packet,
            "2000B payload (+48B framing) needs exactly one extra packet per side"
        );
    }

    proptest! {
        #[test]
        fn costs_are_monotone_in_size(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            let m = model();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                both_sides(&m, lo, true, true).total() <= both_sides(&m, hi, true, true).total()
            );
            prop_assert!(m.wire_bytes(lo, true) <= m.wire_bytes(hi, true));
        }

        #[test]
        fn wire_bytes_include_framing(bytes in 0u64..10_000_000) {
            let m = model();
            prop_assert!(m.wire_bytes(bytes, false) >= bytes + 48);
        }
    }
}

//! A fleet-wide sampling CPU profiler (GWP-like).
//!
//! The paper uses continuous fleet profiling to attribute CPU cycles to
//! the RPC *cycle tax* categories (Fig. 20), to per-method normalized
//! cycle distributions (Fig. 21), and to wasted cycles by error type
//! (Fig. 23). This crate implements the accounting:
//!
//! - [`CycleProfiler`] aggregates cycles by [`CycleCategory`] fleet-wide
//!   and per service.
//! - Per-method call costs are recorded as *normalized cycles*: cycles
//!   divided by the machine's relative speed, mirroring how the paper
//!   normalizes across CPU generations.
//! - [`ErrorAccounting`] tracks error counts and wasted cycles per
//!   [`ErrorKind`].

use rpclens_rpcstack::cost::{CycleCategory, CycleCost};
use rpclens_rpcstack::error::ErrorKind;

/// Derives the deterministic reservoir tag for one recorded sample from
/// coordinates that identify it globally — in the fleet driver, the root
/// RPC's global sequence number and the span's index within its trace.
///
/// The tag is a pure function of its inputs (a SplitMix64-style mix), so
/// the same sample gets the same tag no matter which shard simulates it;
/// the per-method reservoir keeps the `cap` samples with the *smallest*
/// tags, making sharded merge exactly equal to a single-pass run.
pub fn sample_tag(root_seq: u64, span_index: u32) -> u64 {
    let mut z = root_seq
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(span_index).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

/// A bounded per-method sample reservoir: keeps the `cap` samples with
/// the smallest `(tag, value)` keys ever offered.
///
/// Bottom-k selection under a total order is order-insensitive, so
/// inserting a stream's samples one at a time, in any order, or merging
/// per-shard reservoirs, all yield the identical sample multiset —
/// unlike the previous first-`cap`-wins truncation, which biased capped
/// methods toward early (low-sequence) samples.
///
/// The first `cap` offers are appended unordered; the one that fills the
/// reservoir heapifies it into a max-heap, after which a smaller offer
/// replaces the top in place with one sift-down. It never holds more
/// than `cap` entries.
#[derive(Debug, Default)]
struct MethodReservoir {
    /// `(tag, value_bits)` keys; a max-heap (largest key at index 0)
    /// once `cap` are held.
    entries: Vec<(u64, u64)>,
}

impl MethodReservoir {
    fn offer(&mut self, cap: usize, tag: u64, value: f64) {
        let key = (tag, value.to_bits());
        let len = self.entries.len();
        if len < cap {
            self.entries.push(key);
            if len + 1 == cap {
                for i in (0..cap / 2).rev() {
                    sift_down(&mut self.entries, i);
                }
            }
        } else if len > 0 && key < self.entries[0] {
            self.entries[0] = key;
            sift_down(&mut self.entries, 0);
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Retained samples in ascending key order (deterministic).
    fn samples(&self) -> Vec<f64> {
        let mut keys = self.entries.clone();
        keys.sort_unstable();
        keys.into_iter()
            .map(|(_, bits)| f64::from_bits(bits))
            .collect()
    }
}

/// Restores the max-heap order below `i` in `heap`, whose subtrees under
/// `i` are already heaps.
fn sift_down(heap: &mut [(u64, u64)], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            return;
        }
        let right = left + 1;
        let child = if right < heap.len() && heap[right] > heap[left] {
            right
        } else {
            left
        };
        if heap[child] <= heap[i] {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

/// Sampling fleet profiler.
///
/// `sample_rate` controls down-sampling: one in `sample_rate` recordings
/// is kept, with its weight scaled back up, matching how a production
/// profiler samples a small fraction of cycles. At rate 1 the accounting
/// is exact.
#[derive(Debug)]
pub struct CycleProfiler {
    /// Fleet-wide cycles, indexed by [`CycleCategory::index`].
    by_category: [u128; 8],
    /// Per-service cycles, indexed by service id (lazily grown).
    by_service: Vec<u128>,
    /// Per-method normalized-cycle sample reservoirs, indexed by method
    /// id (lazily grown).
    per_method: Vec<MethodReservoir>,
    /// Cap on retained per-method samples (deterministic bottom-k
    /// reservoir; see [`sample_tag`]).
    per_method_cap: usize,
    total: u128,
}

impl Default for CycleProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleProfiler {
    /// Creates a profiler retaining up to 10,000 per-method samples.
    pub fn new() -> Self {
        CycleProfiler {
            by_category: [0; 8],
            by_service: Vec::new(),
            per_method: Vec::new(),
            per_method_cap: 10_000,
            total: 0,
        }
    }

    /// Sets the per-method sample retention cap.
    pub fn with_per_method_cap(mut self, cap: usize) -> Self {
        self.per_method_cap = cap;
        self
    }

    /// Records the cycle cost of one RPC executed by `service`/`method`
    /// on a machine with relative `speed`. `tag` is the sample's
    /// deterministic reservoir tag (see [`sample_tag`]); above the
    /// retention cap, the samples with the smallest tags win, which is a
    /// uniform, shard-invariant subsample of the method's call stream.
    pub fn record(&mut self, service: u16, method: u32, cost: &CycleCost, speed: f64, tag: u64) {
        let call_total = self.add_cost(service, cost);
        let idx = method as usize;
        if idx >= self.per_method.len() {
            self.per_method
                .resize_with(idx + 1, MethodReservoir::default);
        }
        // Normalized cycles: what this call would cost on the baseline
        // CPU generation.
        self.per_method[idx].offer(
            self.per_method_cap,
            tag,
            call_total as f64 / speed.max(1e-6),
        );
    }

    /// Records stack cycles a service burned acting as a *client* (no
    /// per-method sample — Fig. 21 measures server-side method cost).
    pub fn record_client_side(&mut self, service: u16, cost: &CycleCost) {
        self.add_cost(service, cost);
    }

    /// Adds one cost to the category and service tables; returns the
    /// call's total cycles.
    fn add_cost(&mut self, service: u16, cost: &CycleCost) -> u128 {
        let mut call_total = 0u128;
        for (slot, &cycles) in self.by_category.iter_mut().zip(cost.as_array()) {
            *slot += cycles as u128;
            call_total += cycles as u128;
        }
        let s = service as usize;
        if s >= self.by_service.len() {
            self.by_service.resize(s + 1, 0);
        }
        self.by_service[s] += call_total;
        self.total += call_total;
        call_total
    }

    /// Total cycles recorded.
    pub fn total_cycles(&self) -> u128 {
        self.total
    }

    /// Cycles recorded for one category.
    pub fn category_cycles(&self, cat: CycleCategory) -> u128 {
        self.by_category[cat.index()]
    }

    /// Fraction of all cycles in one category, or 0 if nothing recorded.
    pub fn category_fraction(&self, cat: CycleCategory) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.category_cycles(cat) as f64 / self.total as f64
    }

    /// The RPC cycle tax: fraction of all cycles outside the application
    /// category (the paper's 7.1%).
    pub fn tax_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let tax: u128 = CycleCategory::ALL
            .iter()
            .filter(|c| c.is_tax())
            .map(|&c| self.category_cycles(c))
            .sum();
        tax as f64 / self.total as f64
    }

    /// Cycles attributed to one service.
    pub fn service_cycles(&self, service: u16) -> u128 {
        self.by_service.get(service as usize).copied().unwrap_or(0)
    }

    /// Per-method normalized-cycle samples, in ascending reservoir-key
    /// order (a deterministic, shard-invariant ordering).
    pub fn method_samples(&self, method: u32) -> Vec<f64> {
        self.per_method
            .get(method as usize)
            .map(MethodReservoir::samples)
            .unwrap_or_default()
    }

    /// Methods with at least `min` (and at least one) samples, in
    /// ascending id order.
    pub fn methods_with_samples(&self, min: usize) -> Vec<u32> {
        self.per_method
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.entries.is_empty() && v.len() >= min)
            .map(|(m, _)| m as u32)
            .collect()
    }

    /// Merges another profiler into this one.
    pub fn merge(&mut self, other: CycleProfiler) {
        for (a, b) in self.by_category.iter_mut().zip(other.by_category) {
            *a += b;
        }
        if other.by_service.len() > self.by_service.len() {
            self.by_service.resize(other.by_service.len(), 0);
        }
        for (a, &b) in self.by_service.iter_mut().zip(&other.by_service) {
            *a += b;
        }
        if other.per_method.len() > self.per_method.len() {
            self.per_method
                .resize_with(other.per_method.len(), MethodReservoir::default);
        }
        for (slot, reservoir) in self.per_method.iter_mut().zip(other.per_method) {
            for (tag, bits) in reservoir.entries {
                slot.offer(self.per_method_cap, tag, f64::from_bits(bits));
            }
        }
        self.total += other.total;
    }
}

/// Error counts and wasted cycles per error kind (Fig. 23), indexed by
/// [`ErrorKind::index`].
#[derive(Debug, Default)]
pub struct ErrorAccounting {
    counts: [u64; 8],
    wasted_cycles: [u128; 8],
    total_rpcs: u64,
}

impl ErrorAccounting {
    /// Creates empty accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed RPC (success or failure).
    pub fn record_rpc(&mut self) {
        self.total_rpcs += 1;
    }

    /// Records one failed RPC with the cycles it wasted.
    pub fn record_error(&mut self, kind: ErrorKind, wasted_cycles: u64) {
        self.counts[kind.index()] += 1;
        self.wasted_cycles[kind.index()] += wasted_cycles as u128;
    }

    /// Total RPCs observed.
    pub fn total_rpcs(&self) -> u64 {
        self.total_rpcs
    }

    /// Total errors observed.
    pub fn total_errors(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fleet error rate.
    pub fn error_rate(&self) -> f64 {
        if self.total_rpcs == 0 {
            return 0.0;
        }
        self.total_errors() as f64 / self.total_rpcs as f64
    }

    /// This kind's share of all errors, by count.
    pub fn count_share(&self, kind: ErrorKind) -> f64 {
        let total = self.total_errors();
        if total == 0 {
            return 0.0;
        }
        self.count(kind) as f64 / total as f64
    }

    /// This kind's share of all wasted cycles.
    pub fn cycle_share(&self, kind: ErrorKind) -> f64 {
        let total: u128 = self.wasted_cycles.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.wasted_cycles(kind) as f64 / total as f64
    }

    /// This kind's error count.
    pub fn count(&self, kind: ErrorKind) -> u64 {
        self.counts[kind.index()]
    }

    /// This kind's raw wasted cycles (work-fraction weighted at record
    /// time), for breakdowns that need absolute magnitudes rather than
    /// shares — e.g. the exported run manifest's robustness section.
    pub fn wasted_cycles(&self, kind: ErrorKind) -> u128 {
        self.wasted_cycles[kind.index()]
    }

    /// All kinds with at least one error, sorted by count descending
    /// (ties in [`ErrorKind::ALL`] order).
    pub fn kinds_by_count(&self) -> Vec<(ErrorKind, u64)> {
        let mut out: Vec<_> = ErrorKind::ALL
            .into_iter()
            .map(|k| (k, self.count(k)))
            .filter(|&(_, c)| c > 0)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Merges another accounting into this one.
    ///
    /// All state is additive integer counts, so folding per-shard
    /// accountings yields exactly what a single-threaded run records,
    /// regardless of fold order.
    pub fn merge(&mut self, other: &ErrorAccounting) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
        for (a, b) in self.wasted_cycles.iter_mut().zip(other.wasted_cycles) {
            *a += b;
        }
        self.total_rpcs += other.total_rpcs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::rng::Prng;

    fn cost(app: u64, compress: u64, ser: u64) -> CycleCost {
        let mut c = CycleCost::new();
        c.add(CycleCategory::Application, app);
        c.add(CycleCategory::Compression, compress);
        c.add(CycleCategory::Serialization, ser);
        c
    }

    #[test]
    fn category_fractions_sum_correctly() {
        let mut p = CycleProfiler::new();
        p.record(1, 10, &cost(9000, 700, 300), 1.0, sample_tag(0, 0));
        assert_eq!(p.total_cycles(), 10_000);
        assert!((p.category_fraction(CycleCategory::Application) - 0.9).abs() < 1e-12);
        assert!((p.category_fraction(CycleCategory::Compression) - 0.07).abs() < 1e-12);
        assert!((p.tax_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_profiler_reports_zero() {
        let p = CycleProfiler::new();
        assert_eq!(p.total_cycles(), 0);
        assert_eq!(p.tax_fraction(), 0.0);
        assert_eq!(p.category_fraction(CycleCategory::Networking), 0.0);
        assert!(p.method_samples(1).is_empty());
    }

    #[test]
    fn per_service_attribution() {
        let mut p = CycleProfiler::new();
        p.record(1, 10, &cost(100, 0, 0), 1.0, sample_tag(0, 0));
        p.record(1, 11, &cost(200, 0, 0), 1.0, sample_tag(0, 1));
        p.record(2, 20, &cost(700, 0, 0), 1.0, sample_tag(0, 2));
        assert_eq!(p.service_cycles(1), 300);
        assert_eq!(p.service_cycles(2), 700);
        assert_eq!(p.service_cycles(3), 0);
    }

    #[test]
    fn normalized_cycles_divide_by_speed() {
        let mut p = CycleProfiler::new();
        p.record(1, 5, &cost(1000, 0, 0), 2.0, sample_tag(3, 1));
        assert_eq!(p.method_samples(5), vec![500.0]);
    }

    #[test]
    fn per_method_cap_is_enforced() {
        let mut p = CycleProfiler::new().with_per_method_cap(10);
        for i in 0..100 {
            p.record(1, 7, &cost(10, 0, 0), 1.0, sample_tag(i, 0));
        }
        assert_eq!(p.method_samples(7).len(), 10);
        // Fleet totals still count everything.
        assert_eq!(p.total_cycles(), 1000);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = CycleProfiler::new();
        a.record(1, 1, &cost(100, 10, 0), 1.0, sample_tag(0, 0));
        let mut b = CycleProfiler::new();
        b.record(1, 1, &cost(200, 0, 20), 1.0, sample_tag(1, 0));
        b.record(2, 2, &cost(50, 0, 0), 1.0, sample_tag(1, 1));
        a.merge(b);
        assert_eq!(a.total_cycles(), 380);
        assert_eq!(a.service_cycles(1), 330);
        assert_eq!(a.method_samples(1).len(), 2);
        assert_eq!(a.methods_with_samples(1), vec![1, 2]);
    }

    #[test]
    fn capped_reservoir_keeps_smallest_tags() {
        let mut p = CycleProfiler::new().with_per_method_cap(3);
        // Offer tags in descending order; the reservoir must keep the
        // three smallest regardless of arrival order.
        for tag in (0..10u64).rev() {
            p.record(1, 7, &cost(100 + tag, 0, 0), 1.0, tag);
        }
        let samples = p.method_samples(7);
        assert_eq!(samples, vec![100.0, 101.0, 102.0]);
    }

    /// The `BinaryHeap` reservoir the Vec heap replaced: push below the
    /// cap, pop-then-push above it.
    fn reference_bottom_k(cap: usize, keys: &[(u64, u64)]) -> Vec<f64> {
        let mut heap = std::collections::BinaryHeap::new();
        for &key in keys {
            if heap.len() < cap {
                heap.push(key);
            } else if heap.peek().is_some_and(|&top| key < top) {
                heap.pop();
                heap.push(key);
            }
        }
        let mut kept = heap.into_vec();
        kept.sort_unstable();
        kept.into_iter()
            .map(|(_, bits)| f64::from_bits(bits))
            .collect()
    }

    #[test]
    fn reservoir_matches_the_binary_heap_reference() {
        let mut rng = Prng::seed_from(0x9E5E_0001);
        let mut cases = vec![(0, vec![]), (39, vec![]), (0, vec![(0, 0)])];
        cases.extend([(39, vec![(0, 0); 199]), (1, vec![(63, 3); 199])]);
        cases.resize_with(64, || {
            let cap = rng.index(40);
            (
                cap,
                (0..rng.index(200))
                    .map(|_| (rng.next_below(64), rng.next_below(4)))
                    .collect(),
            )
        });
        for (case, (cap, keys)) in cases.into_iter().enumerate() {
            let inputs = format!("case {case}: cap {cap}, keys {keys:?}");
            let mut reservoir = MethodReservoir::default();
            for &(tag, bits) in &keys {
                reservoir.offer(cap, tag, f64::from_bits(bits));
                assert!(reservoir.len() <= cap, "{inputs}");
            }
            assert_eq!(
                reservoir.samples(),
                reference_bottom_k(cap, &keys),
                "{inputs}"
            );
        }
    }

    #[test]
    fn sharded_merge_equals_single_pass_under_cap() {
        // 200 samples, cap 16: a 2-way sharded run (even/odd split) must
        // retain exactly the same sample multiset as a single pass.
        let cap = 16;
        let mut single = CycleProfiler::new().with_per_method_cap(cap);
        let mut shard_a = CycleProfiler::new().with_per_method_cap(cap);
        let mut shard_b = CycleProfiler::new().with_per_method_cap(cap);
        for seq in 0..200u64 {
            let c = cost(1000 + seq * 3, seq % 5, 0);
            let tag = sample_tag(seq, 0);
            single.record(1, 42, &c, 1.0, tag);
            if seq % 2 == 0 {
                shard_a.record(1, 42, &c, 1.0, tag);
            } else {
                shard_b.record(1, 42, &c, 1.0, tag);
            }
        }
        let mut merged = CycleProfiler::new().with_per_method_cap(cap);
        merged.merge(shard_a);
        merged.merge(shard_b);
        assert_eq!(merged.method_samples(42), single.method_samples(42));
        assert_eq!(merged.total_cycles(), single.total_cycles());
    }

    #[test]
    fn sample_tag_is_pure_and_spreads() {
        assert_eq!(sample_tag(7, 3), sample_tag(7, 3));
        assert_ne!(sample_tag(7, 3), sample_tag(7, 4));
        assert_ne!(sample_tag(7, 3), sample_tag(8, 3));
        // Sequential inputs should not produce sequential tags.
        let a = sample_tag(1, 0);
        let b = sample_tag(2, 0);
        assert!(a.abs_diff(b) > 1 << 32);
    }

    #[test]
    fn error_accounting_shares() {
        let mut e = ErrorAccounting::new();
        for _ in 0..1000 {
            e.record_rpc();
        }
        for _ in 0..9 {
            e.record_error(ErrorKind::Cancelled, 1000);
        }
        e.record_error(ErrorKind::EntityNotFound, 100);
        assert_eq!(e.total_errors(), 10);
        assert!((e.error_rate() - 0.01).abs() < 1e-12);
        assert!((e.count_share(ErrorKind::Cancelled) - 0.9).abs() < 1e-12);
        // Cancelled wastes disproportionately many cycles.
        assert!(e.cycle_share(ErrorKind::Cancelled) > 0.98);
        assert_eq!(e.kinds_by_count()[0].0, ErrorKind::Cancelled);
        assert_eq!(e.count_share(ErrorKind::Internal), 0.0);
    }

    #[test]
    fn empty_error_accounting_is_zero() {
        let e = ErrorAccounting::new();
        assert_eq!(e.error_rate(), 0.0);
        assert_eq!(e.cycle_share(ErrorKind::Cancelled), 0.0);
        assert!(e.kinds_by_count().is_empty());
    }

    #[test]
    fn error_accounting_merge_equals_single_pass() {
        let mut single = ErrorAccounting::new();
        let mut shards = vec![ErrorAccounting::new(), ErrorAccounting::new()];
        for i in 0..100u64 {
            let shard = &mut shards[(i >= 60) as usize];
            single.record_rpc();
            shard.record_rpc();
            if i % 10 == 0 {
                let kind = if i % 20 == 0 {
                    ErrorKind::Cancelled
                } else {
                    ErrorKind::EntityNotFound
                };
                single.record_error(kind, i * 7);
                shard.record_error(kind, i * 7);
            }
        }
        let mut merged = ErrorAccounting::new();
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged.total_rpcs(), single.total_rpcs());
        assert_eq!(merged.total_errors(), single.total_errors());
        assert_eq!(merged.kinds_by_count(), single.kinds_by_count());
        for kind in [ErrorKind::Cancelled, ErrorKind::EntityNotFound] {
            assert_eq!(merged.cycle_share(kind), single.cycle_share(kind));
        }
    }
}

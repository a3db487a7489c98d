//! Shard-local self-telemetry: deterministic counters and wall-clock
//! phase timers for the parallel fleet driver.
//!
//! The driver partitions workload roots into contiguous per-shard chunks
//! and each shard carries one [`ShardCounters`]. Counters are derived
//! only from simulated behaviour, so they are a pure function of the
//! master seed; after the simulation phase the driver folds them with
//! [`ShardCounters::absorb`] in **shard-id order**, which makes the
//! merged totals independent of the shard count (addition of integers is
//! associative, `max` is too, and [`LogHistogram::merge`] sums integer
//! bucket counts).
//!
//! Wall-clock measurements — [`PhaseTimings`] and the per-shard
//! [`ShardReport`] rows — are *not* deterministic and are never mixed
//! into the counters; the manifest layer emits them under a separate
//! `runtime` section.

use std::time::Instant;

use rpclens_simcore::hist::LogHistogram;

/// Queue-model telemetry: what the M/G/k wait sampler observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueTelemetry {
    /// Wait samples drawn (one per placed sub-call).
    pub samples: u64,
    /// Samples that actually waited (the Erlang-C gate fired).
    pub waits: u64,
    /// Total simulated wait across all samples, in nanoseconds.
    pub total_wait_ns: u128,
    /// Largest single simulated wait, in nanoseconds.
    pub max_wait_ns: u64,
}

impl QueueTelemetry {
    /// Records one wait sample of `wait_ns` simulated nanoseconds.
    pub fn record(&mut self, wait_ns: u64) {
        self.samples += 1;
        if wait_ns > 0 {
            self.waits += 1;
            self.total_wait_ns += u128::from(wait_ns);
            self.max_wait_ns = self.max_wait_ns.max(wait_ns);
        }
    }

    /// Folds another shard's queue telemetry into this one.
    pub fn absorb(&mut self, other: &QueueTelemetry) {
        self.samples += other.samples;
        self.waits += other.waits;
        self.total_wait_ns += other.total_wait_ns;
        self.max_wait_ns = self.max_wait_ns.max(other.max_wait_ns);
    }
}

/// Wire telemetry: congestion-episode exposure of network traversals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireTelemetry {
    /// One-way wire traversals sampled.
    pub samples: u64,
    /// Traversals that landed inside a congestion episode on their path.
    pub congested: u64,
}

impl WireTelemetry {
    /// Records one wire traversal; `congested` is whether the path's
    /// congestion process was in an episode at send time.
    pub fn record(&mut self, congested: bool) {
        self.samples += 1;
        if congested {
            self.congested += 1;
        }
    }

    /// Folds another shard's wire telemetry into this one.
    pub fn absorb(&mut self, other: &WireTelemetry) {
        self.samples += other.samples;
        self.congested += other.congested;
    }
}

/// Resilience telemetry: what the executed retry/failover loop did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceTelemetry {
    /// Retry attempts actually issued (after budget and backoff gating).
    pub retries_issued: u64,
    /// Retry attempts denied by an exhausted [`RetryBudget`] token bucket.
    ///
    /// [`RetryBudget`]: https://sre.google/sre-book/handling-overload/
    pub retries_denied: u64,
    /// Retries that failed over to a different replica or cluster.
    pub failovers: u64,
    /// `Unavailable` errors with a causal origin (crash, drain, blackout)
    /// rather than a residual statistical draw.
    pub causal_unavailable: u64,
    /// `NoResource` errors from load-shedding queues under overload.
    pub load_sheds: u64,
    /// `DeadlineExceeded` errors from simulated latency crossing a
    /// propagated deadline.
    pub deadline_exceeded: u64,
}

impl ResilienceTelemetry {
    /// Folds another shard's resilience telemetry into this one.
    pub fn absorb(&mut self, other: &ResilienceTelemetry) {
        self.retries_issued += other.retries_issued;
        self.retries_denied += other.retries_denied;
        self.failovers += other.failovers;
        self.causal_unavailable += other.causal_unavailable;
        self.load_sheds += other.load_sheds;
        self.deadline_exceeded += other.deadline_exceeded;
    }
}

/// Control-plane telemetry: what the closed-loop controllers (load
/// balancer weight shifts and bounded admission queues) did to the
/// calls that flowed past them. Timeline-level controller state
/// (autoscaler capacity, avoided paths) is reconstructed post-run from
/// the seed instead of counted here, so these stay order-insensitive
/// per-call event counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlTelemetry {
    /// Placements re-picked because the load balancer shifted weight
    /// away from a degraded path.
    pub lb_shifts: u64,
    /// Calls offered to a bounded admission queue.
    pub admission_offered: u64,
    /// Offered calls shed at the queue (queue wait over the shed bound).
    pub admission_shed: u64,
    /// Offered calls abandoned by the client (wait over the abandon
    /// bound).
    pub admission_abandoned: u64,
}

impl ControlTelemetry {
    /// Admitted calls: offered minus shed minus abandoned.
    pub fn admitted(&self) -> u64 {
        self.admission_offered - self.admission_shed - self.admission_abandoned
    }

    /// Folds another shard's control telemetry into this one.
    pub fn absorb(&mut self, other: &ControlTelemetry) {
        self.lb_shifts += other.lb_shifts;
        self.admission_offered += other.admission_offered;
        self.admission_shed += other.admission_shed;
        self.admission_abandoned += other.admission_abandoned;
    }
}

/// Deterministic per-shard counters; a pure function of the master seed.
#[derive(Debug, Clone, Default)]
pub struct ShardCounters {
    /// Workload roots simulated.
    pub roots: u64,
    /// Spans (RPC calls) simulated, including hedges.
    pub spans: u64,
    /// Roots whose trace was admitted by the sampling collector.
    pub traces_sampled: u64,
    /// Hedge (backup) requests issued.
    pub hedges_issued: u64,
    /// Deepest call tree observed, in edges from the root.
    pub max_depth: u64,
    /// Queue-model telemetry.
    pub queue: QueueTelemetry,
    /// Wire congestion telemetry.
    pub wire: WireTelemetry,
    /// Executed retry/failover and causal-error telemetry.
    pub resilience: ResilienceTelemetry,
    /// Closed-loop control-plane event telemetry.
    pub control: ControlTelemetry,
    /// End-to-end root latency distribution, microseconds.
    pub root_latency_us: LogHistogram,
}

impl ShardCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another shard's counters into this one. The driver calls
    /// this in shard-id order; every field is an order-insensitive
    /// reduction (sum, max, or integer histogram merge), so the result
    /// is identical for any shard count.
    pub fn absorb(&mut self, other: &ShardCounters) {
        self.roots += other.roots;
        self.spans += other.spans;
        self.traces_sampled += other.traces_sampled;
        self.hedges_issued += other.hedges_issued;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.queue.absorb(&other.queue);
        self.wire.absorb(&other.wire);
        self.resilience.absorb(&other.resilience);
        self.control.absorb(&other.control);
        self.root_latency_us.merge(&other.root_latency_us);
    }
}

/// One row of per-shard execution shape. **Not deterministic**: wall
/// clock varies run to run, and roots-per-shard varies with `--shards`.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Roots this shard simulated.
    pub roots: u64,
    /// Spans this shard simulated.
    pub spans: u64,
    /// Wall-clock milliseconds this shard spent simulating.
    pub wall_ms: f64,
}

/// Wall-clock phase timer. **Not deterministic**; emitted only under the
/// manifest's `runtime` section.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    phases: Vec<(String, f64)>,
}

impl PhaseTimings {
    /// Creates an empty set of phase timings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, recording its wall-clock duration under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Records an externally measured phase duration in milliseconds.
    pub fn record(&mut self, name: &str, wall_ms: f64) {
        self.phases.push((name.to_string(), wall_ms));
    }

    /// The recorded `(phase, wall_ms)` pairs, in recording order.
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }

    /// Total wall-clock milliseconds across all recorded phases.
    pub fn total_ms(&self) -> f64 {
        self.phases.iter().map(|(_, ms)| ms).sum()
    }
}

/// Everything the driver observed about one run: merged deterministic
/// counters plus labeled non-deterministic execution shape.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Deterministic counters, folded across shards in shard-id order.
    pub counters: ShardCounters,
    /// Per-shard execution rows (non-deterministic wall clock; shape
    /// depends on `--shards`).
    pub per_shard: Vec<ShardReport>,
    /// Wall-clock phase timings (non-deterministic).
    pub phases: PhaseTimings,
    /// Number of shards the run used (execution shape, not part of the
    /// deterministic section).
    pub shards_used: usize,
    /// Number of worker-pool threads the shards executed on (execution
    /// shape, not part of the deterministic section). `0` in telemetry
    /// predating the worker pool.
    pub threads_used: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters(offset: u64, n: u64) -> ShardCounters {
        let mut c = ShardCounters::new();
        for i in 0..n {
            let v = offset + i;
            c.roots += 1;
            c.spans += 3;
            c.max_depth = c.max_depth.max(v % 5);
            c.queue.record((v % 11) * 100);
            c.wire.record(v.is_multiple_of(13));
            if v.is_multiple_of(3) {
                c.resilience.retries_issued += 1;
            }
            if v.is_multiple_of(17) {
                c.resilience.retries_denied += 1;
                c.resilience.load_sheds += 1;
            }
            if v.is_multiple_of(19) {
                c.resilience.failovers += 1;
                c.resilience.causal_unavailable += 1;
                c.resilience.deadline_exceeded += 1;
            }
            if v.is_multiple_of(4) {
                c.control.admission_offered += 1;
                if v.is_multiple_of(8) {
                    c.control.admission_shed += 1;
                }
                if v.is_multiple_of(16) {
                    c.control.admission_abandoned += 1;
                    c.control.admission_shed -= 1;
                }
            }
            if v.is_multiple_of(23) {
                c.control.lb_shifts += 1;
            }
            c.root_latency_us.record(1 + v * 17 % 100_000);
        }
        c
    }

    #[test]
    fn absorb_is_invariant_to_shard_count() {
        let total = 1000u64;
        let single = sample_counters(0, total);
        for shards in [2usize, 3, 8] {
            let chunk = (total as usize).div_ceil(shards) as u64;
            let mut merged = ShardCounters::new();
            let mut start = 0;
            while start < total {
                let n = chunk.min(total - start);
                merged.absorb(&sample_counters(start, n));
                start += n;
            }
            assert_eq!(merged.roots, single.roots);
            assert_eq!(merged.spans, single.spans);
            assert_eq!(merged.max_depth, single.max_depth);
            assert_eq!(merged.queue.samples, single.queue.samples);
            assert_eq!(merged.queue.waits, single.queue.waits);
            assert_eq!(merged.queue.total_wait_ns, single.queue.total_wait_ns);
            assert_eq!(merged.queue.max_wait_ns, single.queue.max_wait_ns);
            assert_eq!(merged.wire.samples, single.wire.samples);
            assert_eq!(merged.wire.congested, single.wire.congested);
            assert_eq!(merged.resilience, single.resilience);
            assert_eq!(merged.control, single.control);
            assert_eq!(merged.control.admitted(), single.control.admitted());
            assert_eq!(
                merged.root_latency_us.count(),
                single.root_latency_us.count()
            );
            assert_eq!(merged.root_latency_us.sum(), single.root_latency_us.sum());
            for q in [0.5, 0.9, 0.99] {
                assert_eq!(
                    merged.root_latency_us.quantile(q),
                    single.root_latency_us.quantile(q)
                );
            }
        }
    }

    #[test]
    fn queue_telemetry_counts_only_positive_waits() {
        let mut q = QueueTelemetry::default();
        q.record(0);
        q.record(500);
        q.record(200);
        assert_eq!(q.samples, 3);
        assert_eq!(q.waits, 2);
        assert_eq!(q.total_wait_ns, 700);
        assert_eq!(q.max_wait_ns, 500);
    }

    #[test]
    fn phase_timings_accumulate() {
        let mut p = PhaseTimings::new();
        let out = p.time("generate", || 41 + 1);
        assert_eq!(out, 42);
        p.record("merge", 2.5);
        assert_eq!(p.phases().len(), 2);
        assert_eq!(p.phases()[1], ("merge".to_string(), 2.5));
        assert!(p.total_ms() >= 2.5);
    }
}

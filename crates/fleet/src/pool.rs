//! A small, dependency-free worker pool for shard execution.
//!
//! PR 1 made the driver deterministic at any shard count; until this
//! module existed, the driver still spawned *one thread per shard*, so
//! shard count and thread count were the same knob. This module splits
//! them: **shards** stay the unit of determinism (contiguous root
//! chunks, merged in shard-id order), while **threads** become a pure
//! execution knob — a bounded pool of workers claiming shard indices
//! from a shared counter.
//!
//! Two pieces:
//!
//! - [`run_shards`] — the pool itself: `threads` scoped workers pull
//!   shard indices from an [`AtomicUsize`] until the supply is
//!   exhausted. Dynamic claiming (instead of static striping) keeps all
//!   workers busy when shards have skewed costs, which they do: root
//!   chunks are contiguous in arrival time, so diurnal-peak shards carry
//!   more spans than off-peak ones.
//! - [`OrderedFold`] — the streaming, order-restoring merge. Workers
//!   finish shards in a nondeterministic order, but every accumulator
//!   must be folded in shard-id order (the trace store is
//!   order-sensitive; see `docs/ARCHITECTURE.md`). `OrderedFold` is a
//!   reorder buffer: completed shards are pushed in any order, and the
//!   fold function is applied exactly in index order, as early as
//!   possible. Folding eagerly (instead of collecting all shards and
//!   folding after the join) bounds peak memory: at most
//!   `threads + out-of-order-window` shard accumulators are alive at
//!   once, instead of all `shards` of them — the property that lets the
//!   `fleet` preset stream hundreds of shards without hundreds of trace
//!   stores resident.
//!
//! Determinism argument, in one paragraph: the folded result is a pure
//! function of `(items, fold)` and never of completion order, because
//! `OrderedFold` releases item *i* to the fold only after items
//! `0..i` have been folded. The property test in
//! `crates/bench/tests/pool_determinism.rs` drives a real accumulator
//! (`ShardCounters`) through random completion permutations and asserts
//! the merged result equals the sequential fold; the golden-digest
//! matrix in the same file pins the end-to-end guarantee at
//! (shards, threads) ∈ {1,4}×{1,4}.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A reorder buffer that folds out-of-order items in index order.
///
/// Push `(index, item)` pairs in any order; `fold(acc, item)` is called
/// exactly once per item, in strictly ascending index order. Items that
/// arrive ahead of their turn are parked in a `BTreeMap` until the gap
/// below them closes. Indices must form a contiguous range `0..n` with
/// no duplicates.
#[derive(Debug)]
pub struct OrderedFold<T> {
    /// The running fold; `None` until index 0 arrives.
    acc: Option<T>,
    /// Next index the fold is waiting for.
    next: usize,
    /// Items that arrived ahead of their turn, keyed by index.
    parked: BTreeMap<usize, T>,
}

impl<T> Default for OrderedFold<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OrderedFold<T> {
    /// An empty buffer waiting for index 0.
    pub fn new() -> Self {
        OrderedFold {
            acc: None,
            next: 0,
            parked: BTreeMap::new(),
        }
    }

    /// Offers item `index`, folding every item that is now unblocked.
    ///
    /// The first item (index 0) seeds the accumulator; each subsequent
    /// in-order item is merged with `fold(&mut acc, item)`.
    ///
    /// # Panics
    /// Panics if `index` was already folded or is already parked — both
    /// indicate a duplicate claim, which the pool can never produce.
    pub fn push(&mut self, index: usize, item: T, mut fold: impl FnMut(&mut T, T)) {
        assert!(
            index >= self.next && !self.parked.contains_key(&index),
            "duplicate shard index {index} pushed to OrderedFold"
        );
        self.parked.insert(index, item);
        while let Some(item) = self.parked.remove(&self.next) {
            match &mut self.acc {
                None => {
                    debug_assert_eq!(self.next, 0);
                    self.acc = Some(item);
                }
                Some(acc) => fold(acc, item),
            }
            self.next += 1;
        }
    }

    /// Number of items folded so far (the length of the closed prefix).
    pub fn folded(&self) -> usize {
        self.next
    }

    /// Number of items parked ahead of the fold frontier.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Consumes the buffer, returning the fold of all pushed items.
    ///
    /// # Panics
    /// Panics if any pushed item is still parked (a gap was never
    /// filled), or if nothing was pushed.
    pub fn finish(self) -> T {
        assert!(
            self.parked.is_empty(),
            "OrderedFold finished with {} unfolded items parked above index {}",
            self.parked.len(),
            self.next
        );
        self.acc.expect("OrderedFold finished without any items")
    }
}

/// Runs `n_shards` work items on a pool of at most `threads` workers,
/// streaming completed items into an in-order fold.
///
/// - `work(shard_id)` builds and runs one shard; it is called at most
///   once per id, from whichever worker claims the id first.
/// - `fold(acc, next)` merges the next completed shard into the
///   accumulator; calls are strictly in shard-id order (item 0 seeds
///   the accumulator). The fold runs under a mutex on the worker that
///   closed the gap — cheap relative to simulation, and it lets shard
///   memory be released while later shards are still running.
///
/// With `threads == 1` no threads are spawned at all: shards run on the
/// caller's thread in id order, which is exactly the sequential fold.
///
/// # Panics
/// Propagates panics from `work` (the scope join panics) and panics if
/// `n_shards == 0`.
pub fn run_shards<T: Send>(
    n_shards: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
    fold: impl Fn(&mut T, T) + Sync,
) -> T {
    assert!(n_shards > 0, "run_shards needs at least one shard");
    let threads = threads.clamp(1, n_shards);
    if threads == 1 {
        let mut merge = OrderedFold::new();
        for id in 0..n_shards {
            merge.push(id, work(id), &fold);
        }
        return merge.finish();
    }
    let next_shard = AtomicUsize::new(0);
    let merge = Mutex::new(OrderedFold::new());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next_shard = &next_shard;
                let merge = &merge;
                let work = &work;
                let fold = &fold;
                s.spawn(move || loop {
                    let id = next_shard.fetch_add(1, Ordering::Relaxed);
                    if id >= n_shards {
                        return;
                    }
                    let item = work(id);
                    merge.lock().expect("merge lock").push(id, item, fold);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("shard worker panicked");
        }
    });
    merge.into_inner().expect("merge lock poisoned").finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_fold_handles_reverse_order() {
        let mut f = OrderedFold::new();
        // Push 3,2,1,0: everything parks until 0 arrives, then the whole
        // chain folds at once, in index order.
        for i in (1..4).rev() {
            f.push(i, vec![i], |a: &mut Vec<usize>, b| a.extend(b));
            assert_eq!(f.folded(), 0);
        }
        assert_eq!(f.parked(), 3);
        f.push(0, vec![0], |a, b| a.extend(b));
        assert_eq!(f.folded(), 4);
        assert_eq!(f.finish(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ordered_fold_interleaved() {
        let mut f = OrderedFold::new();
        let fold = |a: &mut String, b: String| a.push_str(&b);
        f.push(1, "b".to_string(), fold);
        f.push(0, "a".to_string(), fold);
        assert_eq!(f.folded(), 2);
        f.push(3, "d".to_string(), fold);
        f.push(2, "c".to_string(), fold);
        assert_eq!(f.finish(), "abcd");
    }

    #[test]
    #[should_panic(expected = "duplicate shard index")]
    fn ordered_fold_rejects_duplicates() {
        let mut f = OrderedFold::new();
        f.push(0, 1u64, |a, b| *a += b);
        f.push(0, 2u64, |a, b| *a += b);
    }

    #[test]
    #[should_panic(expected = "unfolded items parked")]
    fn ordered_fold_rejects_gaps() {
        let mut f = OrderedFold::new();
        f.push(1, 1u64, |a, b| *a += b);
        f.finish();
    }

    #[test]
    fn run_shards_matches_sequential_at_any_thread_count() {
        // Order-sensitive fold (string concat) so any ordering bug shows.
        let expect: String = (0..23).map(|i| format!("[{i}]")).collect();
        for threads in [1usize, 2, 4, 8, 23, 64] {
            let got = run_shards(23, threads, |id| format!("[{id}]"), |a, b| a.push_str(&b));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn run_shards_single_thread_spawns_nothing() {
        // With threads=1 the closure runs on the caller's thread.
        let caller = std::thread::current().id();
        let got = run_shards(
            4,
            1,
            |id| {
                assert_eq!(std::thread::current().id(), caller);
                id as u64
            },
            |a, b| *a += b,
        );
        assert_eq!(got, 6);
    }
}

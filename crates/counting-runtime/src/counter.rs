//! Shared Fetch&Increment counters.
//!
//! The whole point of a counting network is to implement a shared counter
//! whose `fetch_increment` operations do not all serialize on a single
//! memory location (Section 1.1). This module provides the network-backed
//! counter and the centralized baseline it is compared against.

use std::sync::atomic::{AtomicU64, Ordering};

use balnet::Network;
use crossbeam::utils::CachePadded;

use crate::compiled::CompiledNetwork;

/// A shared counter handing out distinct values `0, 1, 2, ...` to
/// concurrent callers.
pub trait SharedCounter: Sync {
    /// Obtains the next counter value. `thread_id` identifies the calling
    /// process (used by network-backed counters to pick the input wire
    /// `thread_id mod w`, mirroring the paper's process-to-wire
    /// assignment).
    fn next(&self, thread_id: usize) -> u64;

    /// Obtains `k` counter values in one operation, appending them to
    /// `out`. Every value handed out (batched or not) is globally unique.
    ///
    /// The default implementation performs `k` independent [`Self::next`]
    /// calls; counters override it with a *combining* fast path that
    /// reserves all `k` values in a single traversal, cutting the
    /// per-value cost by a factor of `k`.
    ///
    /// Range semantics: the central counter always hands out exactly
    /// `0..m` for `m` total values. Network-backed counters reserve a
    /// stride of `k` values from one output-wire dispenser per call, so
    /// their union of handed-out values at quiescence is the exact range
    /// `0..m` provided every operation of the run uses the same `k` and
    /// the total number of operations is a multiple of the network's
    /// output width (the counting property then delivers equally many
    /// reservations to every output wire). Uniqueness needs no such
    /// precondition. To hand out gap-free ranges under **mixed** batch
    /// sizes and arbitrary operation counts, route the counter through
    /// [`crate::elimination::EliminationCounter`], which replaces stride
    /// reservations with contiguous [`BlockReserve`] blocks and merges
    /// colliding requests.
    fn next_batch(&self, thread_id: usize, k: usize, out: &mut Vec<u64>) {
        out.reserve(k);
        for _ in 0..k {
            out.push(self.next(thread_id));
        }
    }

    /// A short human-readable description used in benchmark output.
    fn describe(&self) -> String;
}

/// The contiguous-block reservation capability consumed by the
/// elimination layer ([`crate::elimination::EliminationCounter`]).
///
/// One call reserves the exactly-sized block `base..base + k` and returns
/// `base`. Blocks **tile** the value space: the union of all blocks ever
/// reserved is `0..total_reserved` at every quiescent point, for *any*
/// mix of sizes and any number of operations — the guarantee that stride
/// reservations ([`SharedCounter::next_batch`] on network-backed
/// counters) only provide for uniform `k` and balanced traversal counts.
///
/// The central counter implements this with the same state as its
/// `next` path, so block and per-value operations may be mixed freely on
/// one instance. The network-backed counter ([`NetworkCounter`]) pays
/// one traversal per block and then draws the block from a dedicated
/// contiguous cursor, a *separate* value stream from its per-wire
/// stride dispensers. The
/// traversal does not spread the blocks: every one still meets on that
/// cursor, and on the paper's stall measure (E5e in
/// `tests/contention_model.rs`, ten tokens per process) `C(4,16)` in
/// front of a central balancer stalls 66.0 times per token at n = 64
/// against 59.9 for the central balancer alone, with no relief at any n
/// from 8 to 64. A [`CentralCounter`] is the same cursor without
/// the traversal. On a network-backed counter an
/// instance must be driven either through `next`/`next_batch` or through
/// `reserve_block`, never both; the elimination layer enforces this by
/// taking ownership of the counter it wraps.
pub trait BlockReserve: SharedCounter {
    /// Reserves the contiguous block `base..base + k` and returns `base`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    fn reserve_block(&self, thread_id: usize, k: usize) -> u64;

    /// Values reserved through [`Self::reserve_block`] so far: the end of
    /// the tiled range. Exact at quiescence; while reservations are in
    /// flight it may run ahead of the blocks already returned. (On the
    /// central counter, whose blocks share a word with `next`, it counts
    /// those values too.)
    fn reserved(&self) -> u64;
}

/// A Fetch&Increment counter backed by a counting network: tokens traverse
/// the compiled network and draw their value from the dispenser `v_i` of
/// the output wire they exit on (`v_i` starts at `i` and steps by the
/// output width `t`).
#[derive(Debug)]
pub struct NetworkCounter {
    name: String,
    network: CompiledNetwork,
    dispensers: Box<[CachePadded<AtomicU64>]>,
    /// Contiguous cursor backing [`BlockReserve`] — a value stream
    /// disjoint from the per-wire stride dispensers (see the trait docs).
    block_cursor: CachePadded<AtomicU64>,
}

impl NetworkCounter {
    /// Builds a counter from a network topology.
    #[must_use]
    pub fn new(name: impl Into<String>, network: &Network) -> Self {
        let compiled = CompiledNetwork::new(network);
        let dispensers = (0..compiled.output_width() as u64)
            .map(|i| CachePadded::new(AtomicU64::new(i)))
            .collect();
        Self {
            name: name.into(),
            network: compiled,
            dispensers,
            block_cursor: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The input width of the underlying network.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.network.input_width()
    }

    /// The output width of the underlying network.
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.network.output_width()
    }
}

impl SharedCounter for NetworkCounter {
    fn next(&self, thread_id: usize) -> u64 {
        let wire = thread_id % self.network.input_width();
        let out = self.network.traverse(wire);
        let t = self.network.output_width() as u64;
        // Relaxed: uniqueness rests on this RMW's per-location
        // modification order alone; no cross-location publication rides
        // on a handed-out value.
        self.dispensers[out].fetch_add(t, Ordering::Relaxed)
    }

    fn next_batch(&self, thread_id: usize, k: usize, out: &mut Vec<u64>) {
        if k == 0 {
            return;
        }
        // Combining: one traversal reserves a stride of `k` values from
        // the exit dispenser instead of k full traversals.
        let wire = thread_id % self.network.input_width();
        let exit = self.network.traverse(wire);
        let t = self.network.output_width() as u64;
        // Relaxed: stride reservation — same per-location argument as
        // `next`.
        let base = self.dispensers[exit].fetch_add(t * k as u64, Ordering::Relaxed);
        out.extend((0..k as u64).map(|i| base + i * t));
    }

    fn describe(&self) -> String {
        self.name.clone()
    }
}

impl BlockReserve for NetworkCounter {
    fn reserve_block(&self, thread_id: usize, k: usize) -> u64 {
        assert!(k > 0, "a block reservation needs at least one value");
        // The traversal paces callers through the balancers exactly as a
        // stride reservation does, but its exit wire is not read: mixed-size
        // blocks tile only from one contiguous cursor. Pacing gives that
        // cursor no relief (E5e: `C(4,16)` + cursor stalls 1.0/2.8/6.9/
        // 15.0/32.0/66.0 per token at n = 2..64, the cursor alone 1.0/3.0/
        // 6.9/14.9/30.7/62.5); only an elimination arena upstream, merging
        // colliding requests, takes load off it.
        let wire = thread_id % self.network.input_width();
        let _ = self.network.traverse(wire);
        // Relaxed: the single cursor's modification order makes blocks
        // contiguous and disjoint by itself.
        self.block_cursor.fetch_add(k as u64, Ordering::Relaxed)
    }

    fn reserved(&self) -> u64 {
        // Relaxed: a count that publishes nothing; a caller that needs it
        // exact brings its own quiescence (joined threads, sole ownership).
        self.block_cursor.load(Ordering::Relaxed)
    }
}

/// The centralized baseline: a single atomic word everybody `fetch_add`s.
/// Minimal latency, maximal memory contention.
#[derive(Debug, Default)]
pub struct CentralCounter {
    value: CachePadded<AtomicU64>,
}

impl CentralCounter {
    /// Creates a counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl SharedCounter for CentralCounter {
    fn next(&self, _thread_id: usize) -> u64 {
        // Relaxed: one word, one modification order — the definition of
        // a correct (if contended) Fetch&Increment.
        self.value.fetch_add(1, Ordering::Relaxed)
    }

    fn next_batch(&self, _thread_id: usize, k: usize, out: &mut Vec<u64>) {
        // Relaxed: same single-word argument as `next`.
        let base = self.value.fetch_add(k as u64, Ordering::Relaxed);
        out.extend(base..base + k as u64);
    }

    fn describe(&self) -> String {
        "central fetch_add".into()
    }
}

impl BlockReserve for CentralCounter {
    fn reserve_block(&self, _thread_id: usize, k: usize) -> u64 {
        assert!(k > 0, "a block reservation needs at least one value");
        // Same word as `next`: blocks and single values mix freely.
        self.value.fetch_add(k as u64, Ordering::Relaxed)
    }

    fn reserved(&self) -> u64 {
        // Relaxed: see `NetworkCounter::reserved`.
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counting::counting_network;
    use std::collections::HashSet;
    use std::sync::Mutex as StdMutex;

    fn collect_concurrent_values<C: SharedCounter>(
        counter: &C,
        threads: usize,
        per_thread: usize,
    ) -> Vec<u64> {
        let all = StdMutex::new(Vec::with_capacity(threads * per_thread));
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let all = &all;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(per_thread);
                    for _ in 0..per_thread {
                        local.push(counter.next(tid));
                    }
                    all.lock().expect("poisoned").extend(local);
                });
            }
        });
        all.into_inner().expect("poisoned")
    }

    fn assert_values_are_exact_range(values: &[u64]) {
        let m = values.len() as u64;
        let set: HashSet<u64> = values.iter().copied().collect();
        assert_eq!(set.len() as u64, m, "duplicate values handed out");
        assert_eq!(*values.iter().max().expect("non-empty"), m - 1, "values must be 0..m-1");
    }

    #[test]
    fn network_counter_hands_out_unique_values_sequentially() {
        let net = counting_network(4, 8).expect("valid");
        let counter = NetworkCounter::new("C(4,8)", &net);
        let values: Vec<u64> = (0..100).map(|i| counter.next(i % 4)).collect();
        assert_values_are_exact_range(&values);
    }

    #[test]
    fn network_counter_hands_out_unique_values_concurrently() {
        let net = counting_network(8, 24).expect("valid");
        let counter = NetworkCounter::new("C(8,24)", &net);
        let values = collect_concurrent_values(&counter, 8, 2_000);
        assert_values_are_exact_range(&values);
    }

    #[test]
    fn central_counter_hands_out_unique_values_concurrently() {
        let counter = CentralCounter::new();
        let values = collect_concurrent_values(&counter, 8, 2_000);
        assert_values_are_exact_range(&values);
    }

    fn collect_concurrent_batches<C: SharedCounter>(
        counter: &C,
        threads: usize,
        batches_per_thread: usize,
        k: usize,
    ) -> Vec<u64> {
        let all = StdMutex::new(Vec::with_capacity(threads * batches_per_thread * k));
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let all = &all;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(batches_per_thread * k);
                    for _ in 0..batches_per_thread {
                        counter.next_batch(tid, k, &mut local);
                    }
                    all.lock().expect("poisoned").extend(local);
                });
            }
        });
        all.into_inner().expect("poisoned")
    }

    #[test]
    fn network_counter_batches_hand_out_exact_range_sequentially() {
        // 16 batch operations on C(4,8): 16 traversals are a multiple of
        // the output width 8, so the stride reservations cover 0..16k
        // without gaps.
        let net = counting_network(4, 8).expect("valid");
        let counter = NetworkCounter::new("C(4,8)", &net);
        let k = 3;
        let mut values = Vec::new();
        for op in 0..16 {
            counter.next_batch(op % 4, k, &mut values);
        }
        assert_values_are_exact_range(&values);
    }

    #[test]
    fn network_counter_batches_are_unique_and_dense_concurrently() {
        let net = counting_network(8, 24).expect("valid");
        let counter = NetworkCounter::new("C(8,24)", &net);
        // 8 threads × 300 batches = 2400 traversals, a multiple of t = 24.
        let values = collect_concurrent_batches(&counter, 8, 300, 4);
        assert_values_are_exact_range(&values);
    }

    #[test]
    fn central_batches_hand_out_exact_range_concurrently() {
        let central = CentralCounter::new();
        assert_values_are_exact_range(&collect_concurrent_batches(&central, 8, 500, 5));
    }

    #[test]
    fn batch_of_one_matches_plain_next_semantics() {
        let net = counting_network(4, 4).expect("valid");
        let counter = NetworkCounter::new("C(4,4)", &net);
        let mut values = Vec::new();
        for op in 0..12 {
            counter.next_batch(op, 1, &mut values);
        }
        values.push(counter.next(0));
        values.push(counter.next(1));
        values.push(counter.next(2));
        values.push(counter.next(3));
        assert_values_are_exact_range(&values);
    }

    #[test]
    fn zero_sized_batch_is_a_no_op() {
        let net = counting_network(2, 2).expect("valid");
        let counter = NetworkCounter::new("C(2,2)", &net);
        let mut values = Vec::new();
        counter.next_batch(0, 0, &mut values);
        assert!(values.is_empty());
        // The dispensers were not advanced: the next value is still 0 or 1.
        assert!(counter.next(0) < 2);
    }

    #[test]
    fn default_batch_implementation_loops_next() {
        // A minimal counter relying on the trait's default `next_batch`.
        struct Sequential(AtomicU64);
        impl SharedCounter for Sequential {
            fn next(&self, _thread_id: usize) -> u64 {
                self.0.fetch_add(1, Ordering::Relaxed)
            }
            fn describe(&self) -> String {
                "sequential".into()
            }
        }
        let counter = Sequential(AtomicU64::new(0));
        let mut values = Vec::new();
        counter.next_batch(0, 5, &mut values);
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
    }

    fn collect_concurrent_blocks<C: BlockReserve>(
        counter: &C,
        threads: usize,
        sizes: &[usize],
    ) -> Vec<u64> {
        // Every thread reserves the same mixed-size sequence of blocks;
        // the union of all blocks must tile 0..m exactly — no uniformity
        // or divisibility precondition.
        let all = StdMutex::new(Vec::new());
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let all = &all;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for &k in sizes {
                        let base = counter.reserve_block(tid, k);
                        local.extend(base..base + k as u64);
                    }
                    all.lock().expect("poisoned").extend(local);
                });
            }
        });
        all.into_inner().expect("poisoned")
    }

    #[test]
    fn mixed_size_blocks_tile_exactly_on_every_block_counter() {
        let sizes = [3usize, 1, 7, 2, 5, 4, 1, 6];
        let net = counting_network(8, 24).expect("valid");
        let network = NetworkCounter::new("C(8,24)", &net);
        assert_values_are_exact_range(&collect_concurrent_blocks(&network, 8, &sizes));
        assert_values_are_exact_range(&collect_concurrent_blocks(
            &CentralCounter::new(),
            8,
            &sizes,
        ));
    }

    #[test]
    fn central_blocks_share_the_value_stream_with_next() {
        let counter = CentralCounter::new();
        let base = counter.reserve_block(0, 5);
        assert_eq!(base, 0);
        assert_eq!(counter.next(0), 5, "next continues after the block");
        assert_eq!(counter.reserve_block(1, 2), 6);
    }

    #[test]
    fn network_blocks_are_a_stream_disjoint_from_the_dispensers() {
        // reserve_block draws from the contiguous cursor, not the per-wire
        // stride dispensers — a fresh counter's first block starts at 0
        // regardless of which wire the traversal exits on.
        let net = counting_network(4, 8).expect("valid");
        let counter = NetworkCounter::new("C(4,8)", &net);
        assert_eq!(counter.reserve_block(2, 3), 0);
        assert_eq!(counter.reserve_block(1, 4), 3);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn zero_sized_block_rejected() {
        let _ = CentralCounter::new().reserve_block(0, 0);
    }

    #[test]
    fn arc_handles_share_one_underlying_counter() {
        let shared: std::sync::Arc<dyn SharedCounter + Send + Sync> =
            std::sync::Arc::new(CentralCounter::new());
        let clone = std::sync::Arc::clone(&shared);
        let values = [shared.next(0), clone.next(1), shared.next(0)];
        assert_eq!(values, [0, 1, 2], "all handles drive the same stream");
    }

    #[test]
    fn describe_is_informative() {
        let net = counting_network(2, 2).expect("valid");
        assert_eq!(NetworkCounter::new("C(2,2)", &net).describe(), "C(2,2)");
        assert!(CentralCounter::new().describe().contains("central"));
    }
}

//! A runtime diffracting tree with prisms (Shavit & Zemach).
//!
//! Section 1.4.1 discusses the diffracting tree as one of the two known
//! irregular counting networks. Its structural form (a binary tree of
//! `(1,2)`-balancers) is in the `baselines` crate; this module implements
//! the *runtime* technique that makes it interesting in practice: in front
//! of every toggle bit sits a **prism** — an array of exchanger slots in
//! which two concurrent tokens can collide and "diffract", one going to
//! each subtree, without touching the shared toggle at all. Collisions
//! preserve the balance invariant (a pair contributes one token to each
//! side, exactly like two consecutive toggle flips), so the tree remains a
//! counting network while the root hotspot is relieved under high
//! concurrency.
//!
//! The exchanger protocol is intentionally small: every slot is one atomic
//! word cycling through `EMPTY → WAITING → CAPTURED → EMPTY`, with the
//! waiting token spinning for a bounded number of iterations before falling
//! back to the toggle.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

use crate::counter::{BlockReserve, SharedCounter};

const EMPTY: u64 = 0;
const WAITING: u64 = 1;
const CAPTURED: u64 = 2;

/// One tree node: a prism of exchanger slots plus the fallback toggle.
#[derive(Debug)]
struct PrismNode {
    toggle: CachePadded<AtomicU64>,
    prism: Box<[CachePadded<AtomicU64>]>,
}

impl PrismNode {
    fn new(prism_size: usize) -> Self {
        Self {
            toggle: CachePadded::new(AtomicU64::new(0)),
            prism: (0..prism_size.max(1))
                .map(|_| CachePadded::new(AtomicU64::new(EMPTY)))
                .collect(),
        }
    }

    /// Decides which child (`0` = first output, `1` = second) the calling
    /// token takes. Attempts a diffracting collision first and falls back
    /// to the shared toggle. `slot_hint` spreads threads across prism
    /// slots; `spin` bounds the wait for a partner.
    fn traverse(&self, slot_hint: usize, spin: usize, collisions: &AtomicU64) -> usize {
        let slot = &self.prism[slot_hint % self.prism.len()];
        match slot.compare_exchange(EMPTY, WAITING, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                // We are the waiter. Spin for a partner.
                for _ in 0..spin {
                    if slot.load(Ordering::Acquire) == CAPTURED {
                        slot.store(EMPTY, Ordering::Release);
                        // Relaxed: monotone statistic, never a control input.
                        collisions.fetch_add(1, Ordering::Relaxed);
                        return 0;
                    }
                    std::hint::spin_loop();
                }
                // Timed out: retract the offer — unless a partner slipped in.
                match slot.compare_exchange(WAITING, EMPTY, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {} // no partner; fall through to the toggle
                    Err(_) => {
                        // A partner captured us concurrently.
                        slot.store(EMPTY, Ordering::Release);
                        // Relaxed: monotone statistic, never a control input.
                        collisions.fetch_add(1, Ordering::Relaxed);
                        return 0;
                    }
                }
            }
            Err(current) if current == WAITING => {
                // Someone is waiting: try to capture them.
                if slot
                    .compare_exchange(WAITING, CAPTURED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Relaxed: monotone statistic, never a control input.
                    collisions.fetch_add(1, Ordering::Relaxed);
                    return 1;
                }
            }
            Err(_) => {}
        }
        // Fallback: the classic toggle balancer.
        // Relaxed: the routing decision needs only this RMW's returned
        // value — balancer correctness (the step property) rests on the
        // toggle word's modification order, not on cross-location
        // ordering.
        (self.toggle.fetch_add(1, Ordering::Relaxed) & 1) as usize
    }
}

/// A concurrent Fetch&Increment counter implemented as a diffracting tree
/// with `width` leaves (a power of two).
#[derive(Debug)]
pub struct DiffractingCounter {
    /// Heap-ordered nodes: node `i` has children `2i+1` and `2i+2`; there
    /// are `width - 1` internal nodes.
    nodes: Box<[PrismNode]>,
    /// Per-leaf value dispensers: leaf `i` hands out `i, i+width, ...`.
    dispensers: Box<[CachePadded<AtomicU64>]>,
    width: usize,
    spin: usize,
    collisions: AtomicU64,
    /// Contiguous cursor backing [`BlockReserve`] — a value stream
    /// disjoint from the per-leaf stride dispensers (see the trait docs).
    block_cursor: CachePadded<AtomicU64>,
}

impl DiffractingCounter {
    /// Creates a diffracting tree with `width` leaves (`width` a power of
    /// two `>= 2`), `prism_size` exchanger slots per node, and a spin
    /// budget of `spin` iterations while waiting for a collision partner.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two `>= 2`.
    #[must_use]
    pub fn new(width: usize, prism_size: usize, spin: usize) -> Self {
        assert!(width >= 2 && width.is_power_of_two(), "width must be a power of two >= 2");
        let nodes = (0..width - 1).map(|_| PrismNode::new(prism_size)).collect();
        let dispensers = (0..width as u64).map(|i| CachePadded::new(AtomicU64::new(i))).collect();
        Self {
            nodes,
            dispensers,
            width,
            spin,
            collisions: AtomicU64::new(0),
            block_cursor: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The number of leaves.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of diffracting collisions observed so far (a measure of
    /// how much traffic bypassed the toggles).
    #[must_use]
    pub fn collisions(&self) -> u64 {
        // Relaxed: reporting-only read of a monotone statistic.
        self.collisions.load(Ordering::Relaxed)
    }

    /// Shepherds one token from the root to a leaf and returns the leaf
    /// index. The leaf numbering interleaves the directions (leaf index
    /// bit `j` is the direction taken at depth `j`), matching the
    /// structural diffracting tree of the `baselines` crate, so that the
    /// quiescent leaf counts satisfy the step property.
    fn descend(&self, slot_hint: usize) -> usize {
        let mut node = 0usize; // heap index
        let mut leaf_bits = 0usize;
        let depth = self.width.trailing_zeros() as usize;
        for level in 0..depth {
            let dir = self.nodes[node].traverse(
                slot_hint.wrapping_add(level).wrapping_mul(0x9E37_79B9),
                self.spin,
                &self.collisions,
            );
            leaf_bits |= dir << level;
            node = 2 * node + 1 + dir;
        }
        leaf_bits
    }
}

impl SharedCounter for DiffractingCounter {
    fn next(&self, thread_id: usize) -> u64 {
        let leaf = self.descend(thread_id);
        // Relaxed: uniqueness rests on the dispenser's per-location
        // modification order alone (see NetworkCounter::next).
        self.dispensers[leaf].fetch_add(self.width as u64, Ordering::Relaxed)
    }

    fn next_batch(&self, thread_id: usize, k: usize, out: &mut Vec<u64>) {
        if k == 0 {
            return;
        }
        // Combining: one descent reserves a stride of `k` values from the
        // leaf dispenser (see `SharedCounter::next_batch` for the range
        // semantics of stride reservations).
        let leaf = self.descend(thread_id);
        let w = self.width as u64;
        // Relaxed: stride reservation — same per-location argument as
        // `next`.
        let base = self.dispensers[leaf].fetch_add(w * k as u64, Ordering::Relaxed);
        out.extend((0..k as u64).map(|i| base + i * w));
    }

    fn describe(&self) -> String {
        format!("diffracting tree [{}]", self.width)
    }
}

impl BlockReserve for DiffractingCounter {
    fn reserve_block(&self, thread_id: usize, k: usize) -> u64 {
        assert!(k > 0, "a block reservation needs at least one value");
        // One descent per block: prism collisions still diffract the
        // traffic on the way down, while the contiguous cursor makes
        // mixed-size blocks tile (per-leaf stride dispensers cannot).
        let _ = self.descend(thread_id);
        // Relaxed: the single cursor's modification order makes blocks
        // contiguous and disjoint by itself.
        self.block_cursor.fetch_add(k as u64, Ordering::Relaxed)
    }

    fn reserved(&self) -> u64 {
        // Relaxed: see `NetworkCounter::reserved`.
        self.block_cursor.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn run_concurrent(counter: &DiffractingCounter, threads: usize, per_thread: usize) -> Vec<u64> {
        let all = Mutex::new(Vec::with_capacity(threads * per_thread));
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let all = &all;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(per_thread);
                    for _ in 0..per_thread {
                        local.push(counter.next(tid));
                    }
                    all.lock().expect("not poisoned").extend(local);
                });
            }
        });
        all.into_inner().expect("not poisoned")
    }

    #[test]
    fn sequential_values_are_dense() {
        let counter = DiffractingCounter::new(8, 4, 16);
        let values: Vec<u64> = (0..200).map(|i| counter.next(i)).collect();
        let set: HashSet<u64> = values.iter().copied().collect();
        assert_eq!(set.len(), 200);
        assert_eq!(*values.iter().max().expect("non-empty"), 199);
    }

    #[test]
    fn concurrent_values_are_unique_and_dense() {
        for (width, prism, spin) in [(4usize, 2usize, 32usize), (8, 8, 64), (16, 4, 8)] {
            let counter = DiffractingCounter::new(width, prism, spin);
            let threads = 8;
            let per_thread = 3_000;
            let values = run_concurrent(&counter, threads, per_thread);
            let m = (threads * per_thread) as u64;
            let set: HashSet<u64> = values.iter().copied().collect();
            assert_eq!(set.len() as u64, m, "width={width}: duplicates handed out");
            assert!(values.iter().all(|&v| v < m), "width={width}: value out of range");
        }
    }

    #[test]
    fn collisions_happen_under_concurrency() {
        // With a generous spin budget and many threads, at least some
        // tokens should diffract (this is probabilistic but overwhelmingly
        // likely with 8 threads × 5000 ops).
        let counter = DiffractingCounter::new(4, 4, 2_000);
        let _ = run_concurrent(&counter, 8, 5_000);
        assert!(counter.collisions() > 0, "expected at least one diffraction");
    }

    #[test]
    fn zero_spin_degenerates_to_a_toggle_tree_and_still_counts() {
        let counter = DiffractingCounter::new(8, 1, 0);
        let values = run_concurrent(&counter, 4, 2_000);
        let m = values.len() as u64;
        let set: HashSet<u64> = values.iter().copied().collect();
        assert_eq!(set.len() as u64, m);
        assert!(values.iter().all(|&v| v < m));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_width() {
        let _ = DiffractingCounter::new(6, 2, 8);
    }

    #[test]
    fn concurrent_batches_are_unique_and_dense() {
        let counter = DiffractingCounter::new(8, 4, 32);
        let threads = 8;
        let batches = 200;
        let k = 4;
        let all = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let counter = &counter;
                let all = &all;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(batches * k);
                    for _ in 0..batches {
                        counter.next_batch(tid, k, &mut local);
                    }
                    all.lock().expect("not poisoned").extend(local);
                });
            }
        });
        let values = all.into_inner().expect("not poisoned");
        // 1600 descents are a multiple of the 8 leaves, so the stride
        // reservations tile 0..m exactly.
        let m = (threads * batches * k) as u64;
        let set: HashSet<u64> = values.iter().copied().collect();
        assert_eq!(set.len() as u64, m, "duplicates handed out");
        assert!(values.iter().all(|&v| v < m), "value out of range");
    }

    // --- prism exchanger protocol, adversarial interleavings -------------

    #[test]
    fn captured_parked_waiter_and_capturer_take_opposite_sides() {
        // A waiter parks in the slot (huge spin bound stands in for a
        // preempted thread that left its WAITING offer published); a
        // second token captures it. The pair must split left/right without
        // touching the toggle.
        let node = PrismNode::new(1);
        let collisions = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| node.traverse(0, 2_000_000_000, &collisions));
            // Wait until the offer is visible, then capture it.
            while node.prism[0].load(Ordering::Acquire) != WAITING {
                std::thread::yield_now();
            }
            let capturer_dir = node.traverse(0, 0, &collisions);
            let waiter_dir = waiter.join().expect("waiter panicked");
            assert_eq!(waiter_dir, 0, "the waiting token goes left");
            assert_eq!(capturer_dir, 1, "the capturing token goes right");
        });
        assert_eq!(collisions.load(Ordering::Relaxed), 2, "both sides count the diffraction");
        assert_eq!(node.toggle.load(Ordering::Relaxed), 0, "the toggle was bypassed");
        assert_eq!(node.prism[0].load(Ordering::Relaxed), EMPTY, "the slot was recycled");
    }

    #[test]
    fn waiter_parked_past_the_spin_bound_falls_back_to_the_toggle() {
        // No partner ever arrives: every token times out after its spin
        // bound, retracts its offer and falls back to the toggle, which
        // must keep the node a perfect balancer.
        let node = PrismNode::new(1);
        let collisions = AtomicU64::new(0);
        let dirs: Vec<usize> = (0..10).map(|_| node.traverse(0, 3, &collisions)).collect();
        assert_eq!(dirs, vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1], "toggle alternates");
        assert_eq!(collisions.load(Ordering::Relaxed), 0, "no partner, no diffraction");
        assert_eq!(node.prism[0].load(Ordering::Relaxed), EMPTY, "offers were retracted");
    }

    #[test]
    fn preemption_hostile_schedule_preserves_uniqueness() {
        // Preemption-hostile torture of the full tree: a single prism slot
        // per node, a tiny spin bound, and threads that repeatedly park
        // mid-stream (sleeping stands in for preemption) so WAITING offers
        // routinely outlive their spin bound before a partner shows up.
        // Whichever mix of capture, retraction-race and toggle fallback
        // results, the values must stay unique and dense.
        let counter = DiffractingCounter::new(4, 1, 1);
        let threads = 8;
        let per_thread = 500;
        let all = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let counter = &counter;
                let all = &all;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(per_thread);
                    for op in 0..per_thread {
                        local.push(counter.next(tid));
                        if op % 64 == tid * 8 {
                            // Park long enough that any offer this thread
                            // raced with expires its spin bound.
                            std::thread::sleep(std::time::Duration::from_micros(50));
                        }
                    }
                    all.lock().expect("not poisoned").extend(local);
                });
            }
        });
        let values = all.into_inner().expect("not poisoned");
        let m = (threads * per_thread) as u64;
        let set: HashSet<u64> = values.iter().copied().collect();
        assert_eq!(set.len() as u64, m, "duplicates under preemption-hostile schedule");
        assert!(values.iter().all(|&v| v < m), "value out of range");
        // With spin bound 1 and forced parking, at least some tokens must
        // have taken the toggle fallback path.
        let toggled: u64 = counter.nodes.iter().map(|n| n.toggle.load(Ordering::Relaxed)).sum();
        assert!(toggled > 0, "expected toggle fallbacks under a spin bound of 1");
    }

    #[test]
    fn describe_mentions_the_width() {
        assert!(DiffractingCounter::new(8, 2, 8).describe().contains('8'));
    }

    #[test]
    fn concurrent_mixed_size_blocks_tile_exactly() {
        let counter = DiffractingCounter::new(8, 4, 32);
        let sizes = [5usize, 1, 3, 8, 2, 6, 4, 7];
        let all = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for tid in 0..8 {
                let counter = &counter;
                let all = &all;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for &k in &sizes {
                        let base = counter.reserve_block(tid, k);
                        local.extend(base..base + k as u64);
                    }
                    all.lock().expect("not poisoned").extend(local);
                });
            }
        });
        let values = all.into_inner().expect("not poisoned");
        let m = values.len() as u64;
        let set: HashSet<u64> = values.iter().copied().collect();
        assert_eq!(set.len() as u64, m, "duplicates handed out");
        assert!(values.iter().all(|&v| v < m), "mixed blocks must tile 0..m");
    }
}

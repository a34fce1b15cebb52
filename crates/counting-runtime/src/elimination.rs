//! Elimination/combining layer: gap-free batched hand-outs for **mixed**
//! batch sizes.
//!
//! The combining fast path ([`SharedCounter::next_batch`]) reserves a
//! stride of `k` values in one traversal, but its exact-range guarantee
//! needs every operation to use the same `k` and the operation count to
//! divide the output width — the counting property balances *traversals*
//! across output wires, not *values*, so mixed batch sizes leave gaps.
//! This module removes the restriction with the idea behind elimination
//! and combining trees (cf. the diffracting tree's prisms): colliding
//! operations can be **merged and split without touching the shared
//! structure**.
//!
//! [`EliminationCounter`] wraps any [`BlockReserve`] counter with a small
//! arena of exchanger slots. A `next_batch(k)` caller publishes its
//! request size in a slot; a second caller arriving at the same slot
//! *captures* the offer, performs **one** combined reservation for the
//! summed sizes against the underlying counter (one network traversal for
//! the sum), and deposits the partner's share back in the slot. The
//! combined reservation is a contiguous block, so splitting it is
//! trivially gap-free: the waiter takes the first `k_w` values, the
//! combiner the rest. A caller that finds no partner within its wait
//! bound retracts the offer and falls back to a solo reservation on the
//! underlying counter.
//!
//! Because every reservation — merged or solo — is an exactly-sized
//! contiguous [`BlockReserve::reserve_block`] block, the union of all
//! values handed out is the exact range `0..m` at every quiescent point,
//! for **any** mix of batch sizes and **any** operation count. Uniqueness
//! and gap-freedom need no divisibility precondition anymore.
//!
//! The slot protocol is a single atomic word per slot (state tag in the
//! low bits, payload above), cycling `EMPTY → OFFER(k) → CLAIMED →
//! FILLED(base) → EMPTY`, in the style of the prism exchanger. A waiter
//! whose offer is captured right as its wait bound expires is *obligated*:
//! its partner is already reserving on its behalf, so it waits for the
//! deposit (bounded by the partner's single reservation, exactly like the
//! prism's `CAPTURED` state).
//!
//! # Waiting
//!
//! A publisher waits by spin-then-yield: one burst of up to `spin` loads
//! ([`DEFAULT_SPIN`] in the arena `new` builds), then, on every 8th of
//! its own timeouts, one `yield_now` and a second burst. The burst catches a
//! partner running on another core within nanoseconds; the amortized
//! yield is a best-effort hedge for threads that outnumber cores (the
//! scheduler may decline it, so there most offers still expire).
//!
//! # Offering and home slots
//!
//! Each operation works from its *home* slot only, a Fibonacci hash of
//! its thread id: one capture check there and, when the slot is empty,
//! at most one publish CAS. With no more threads than slots the hash
//! gives consecutive thread ids private homes, so those threads never
//! merge and run at near-solo cost; threads that share a home merge
//! there. One slot shared by every thread measured slower at two
//! threads: each merge or obligated wait then cost more than the two
//! solo reservations it replaced.
//!
//! Offering follows one rule: an operation publishes an offer only when
//! its home slot's solo count is a multiple of `OFFER_PERIOD`. A merge
//! does not advance that count, so a home whose offers land keeps
//! offering, and one futile offer quiets the home for the next
//! `OFFER_PERIOD − 1` solo operations.
//!
//! The arena is sized in slots: pairwise collisions serve two threads per
//! slot, so `threads / 2` slots saturate a steady workload; the default
//! of [`DEFAULT_SLOTS`] suits the 8-thread torture configurations used
//! throughout this repository.
//!
//! # Worked example: a captured offer
//!
//! Two threads collide on a one-slot arena whose huge spin bound stands
//! in for "wait until captured". Whichever arrives second captures the
//! first one's offer and makes **one** reservation of `3 + 5 = 8`:
//!
//! ```
//! use counting_runtime::{CentralCounter, EliminationCounter, SharedCounter};
//!
//! let counter = EliminationCounter::with_arena(CentralCounter::new(), 1, 2_000_000_000);
//! let (first, second) = std::thread::scope(|scope| {
//!     let first = scope.spawn(|| {
//!         let mut out = Vec::new();
//!         counter.next_batch(0, 3, &mut out); // offers 3, waits
//!         out
//!     });
//!     std::thread::sleep(std::time::Duration::from_millis(100));
//!     let mut out = Vec::new();
//!     counter.next_batch(1, 5, &mut out); // captures, reserves 8, deposits
//!     (first.join().expect("no panic"), out)
//! });
//! assert_eq!((counter.collisions(), counter.fallbacks()), (2, 0), "both sides merged");
//! let mut all = [first, second].concat();
//! all.sort();
//! assert_eq!(all, (0..8).collect::<Vec<u64>>(), "the block tiles 0..8 exactly");
//! assert_eq!(counter.into_inner().next(0), 8, "the inner counter moved exactly once");
//! ```

use std::cell::Cell;
use std::sync::atomic::Ordering;

use crossbeam::utils::CachePadded;

use crate::counter::{BlockReserve, SharedCounter};
// The model-checking seam: real std atomics unless the `model` feature is
// on, in which case every operation is a scheduling point of the
// exhaustive interleaving explorer (see crate::sync).
use crate::sync::AtomicU64;

/// Number of exchanger slots in the arena [`EliminationCounter::new`]
/// builds.
pub const DEFAULT_SLOTS: usize = 4;
/// Spin bound of [`EliminationCounter::new`]'s arena while waiting for a
/// collision partner (the bound of one spin burst). Kept small: a
/// timed-out offer must cost only short bursts on top of the solo
/// reservation, keeping the layer at parity with the raw fast path when
/// no partner ever shows up.
pub const DEFAULT_SPIN: usize = 16;

const TAG_MASK: u64 = 0b11;
const EMPTY: u64 = 0b00;
const OFFER: u64 = 0b01;
const CLAIMED: u64 = 0b10;
const FILLED: u64 = 0b11;

/// Packs a payload (an offer's size or a fill's base) with a state tag.
fn pack(payload: u64, tag: u64) -> u64 {
    assert!(payload >> 62 == 0, "arena payload exceeds 62 bits");
    (payload << 2) | tag
}

/// An elimination/combining layer in front of a [`BlockReserve`] counter.
///
/// Implements [`SharedCounter`] (and [`BlockReserve`], so layers compose):
/// every operation — `next`, `next_batch` with *any* `k` — routes through
/// the arena and ends in a contiguous block reservation, merged with a
/// partner's when a collision succeeds. See the module docs for the
/// protocol and the guarantee.
///
/// The layer takes ownership of the counter it wraps: on network-backed
/// counters the block cursor is a value stream disjoint from the stride
/// dispensers, and exclusive routing is what keeps the hand-outs
/// gap-free (see [`BlockReserve`]).
#[derive(Debug)]
pub struct EliminationCounter<C: BlockReserve> {
    inner: C,
    slots: Box<[CachePadded<AtomicU64>]>,
    /// Iterations of one partner-wait spin burst (`0` disables offering
    /// entirely, so every operation either captures an already-published
    /// offer or reserves solo).
    spin: usize,
    /// Outcome counts, one shard per slot, summed on read: every solo
    /// operation bumps one, so they stay off the line of the read-mostly
    /// fields above, and a thread with a home slot of its own writes a
    /// line nobody else does.
    stats: Box<[CachePadded<SlotStats>]>,
}

/// One slot's share of the arena's outcome counts. Relaxed throughout:
/// they publish nothing, and the one control input among them (the offer
/// cadence in [`EliminationCounter::should_offer`]) is a period, correct
/// for any interleaving of the increments.
#[derive(Debug)]
struct SlotStats {
    /// Merged operations, counted on the slot the merge happened in.
    collisions: AtomicU64,
    /// Solo operations, counted on the caller's home slot.
    fallbacks: AtomicU64,
}

/// One in this many timed-out offers yields the core before retracting.
/// Yielding is what lets a partner run at all when threads outnumber
/// cores, but it is a syscall (~0.5 µs even when the scheduler declines),
/// so it is amortized over several offers instead of paid on every one.
const YIELD_PERIOD: u64 = 8;

thread_local! {
    /// Per-waiter timeout count, driving the amortized-yield cadence.
    /// Thread-local on purpose: every waiter yields on exactly every
    /// [`YIELD_PERIOD`]-th of *its own* timeouts. (Shared across arenas on
    /// one thread — the cadence is a fairness guarantee per thread, not an
    /// arena statistic.)
    static YIELD_TICKS: Cell<u64> = const { Cell::new(0) };
}

/// One in this many solo operations of a home slot publishes an offer
/// (see "Offering and home slots" in the module docs): a futile offer
/// costs a spin burst, so a home whose partners never come pays for one
/// burst per period, and a quiet home still re-detects a partner that
/// arrives later.
const OFFER_PERIOD: u64 = 64;

impl<C: BlockReserve> EliminationCounter<C> {
    /// Wraps `inner` with the default arena: [`DEFAULT_SLOTS`] slots and a
    /// spin bound of [`DEFAULT_SPIN`].
    #[must_use]
    pub fn new(inner: C) -> Self {
        Self::with_arena(inner, DEFAULT_SLOTS, DEFAULT_SPIN)
    }

    /// Wraps `inner` with `slots` exchanger slots and a partner-wait spin
    /// bound of `spin` iterations per burst. Tests and model scenarios use
    /// it for one- and two-slot arenas with tiny (or huge) spin bounds.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn with_arena(inner: C, slots: usize, spin: usize) -> Self {
        assert!(slots > 0, "the arena needs at least one slot");
        Self {
            inner,
            slots: (0..slots).map(|_| CachePadded::new(AtomicU64::new(EMPTY))).collect(),
            spin,
            stats: (0..slots)
                .map(|_| SlotStats { collisions: AtomicU64::new(0), fallbacks: AtomicU64::new(0) })
                .map(CachePadded::new)
                .collect(),
        }
    }

    /// The wrapped counter. Do **not** call `next`/`next_batch` on a
    /// network-backed inner counter while the layer is in use — stride
    /// dispensers and the block cursor are disjoint value streams.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps the layer, returning the underlying counter.
    #[must_use]
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Operations that merged with a partner (both sides counted, so the
    /// number of combined reservations is `collisions() / 2`). Exact at
    /// quiescence, like [`Self::fallbacks`].
    #[must_use]
    pub fn collisions(&self) -> u64 {
        self.stats.iter().map(|shard| shard.collisions.load(Ordering::Relaxed)).sum()
    }

    /// Operations that reserved solo — no partner within the wait bound,
    /// a busy slot, or a lost capture race.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.stats.iter().map(|shard| shard.fallbacks.load(Ordering::Relaxed)).sum()
    }

    /// The index of a thread's home slot, spread by a Fibonacci hash so
    /// consecutive thread ids land on distinct slots. An operation looks
    /// at no other slot.
    fn home_slot(&self, thread_id: usize) -> usize {
        thread_id.wrapping_mul(0x9E37_79B9) % self.slots.len()
    }

    /// Whether an operation finding its home slot empty should publish an
    /// offer: on every [`OFFER_PERIOD`]-th solo operation of that home.
    /// Merges leave the count alone, so a home whose offers land keeps
    /// offering.
    fn should_offer(&self, home: usize) -> bool {
        self.stats[home].fallbacks.load(Ordering::Relaxed).is_multiple_of(OFFER_PERIOD)
    }

    /// Credits one side of a merge that happened in slot `idx`.
    fn credit_merge(&self, idx: usize) {
        self.stats[idx].collisions.fetch_add(1, Ordering::Relaxed);
    }

    /// Consumes the `FILLED` word read from slot `idx`: takes the
    /// deposited base and recycles the slot.
    fn take_fill(&self, idx: usize, word: u64) -> u64 {
        debug_assert_eq!(word & TAG_MASK, FILLED);
        self.slots[idx].store(EMPTY, Ordering::Release);
        self.credit_merge(idx);
        word >> 2
    }

    /// Tries to capture the offer observed in slot `idx` and combine with
    /// it: one reservation for the sum, the waiter's share deposited back,
    /// ours returned.
    fn try_capture(&self, idx: usize, observed: u64, thread_id: usize, k: usize) -> Option<u64> {
        let slot = &self.slots[idx];
        if crate::sync::mutation_enabled("arena-skip-claimed") {
            // Seeded model mutation (never active outside an exploration):
            // deposit without first moving the slot through CLAIMED. Two
            // capturers can then both see the same OFFER, both reserve a
            // combined block, and both deposit — one waiter share is lost
            // and the value stream gaps. The model suite asserts the
            // checker catches this.
            let partner_k = (observed >> 2) as usize;
            let base = self.inner.reserve_block(thread_id, partner_k + k);
            slot.store(pack(base, FILLED), Ordering::Release);
            self.credit_merge(idx);
            return Some(base + partner_k as u64);
        }
        slot.compare_exchange(observed, CLAIMED, Ordering::AcqRel, Ordering::Acquire).ok()?;
        let partner_k = (observed >> 2) as usize;
        // One reservation for the sum; the waiter gets the first
        // sub-block (it arrived first), we take the rest.
        let base = self.inner.reserve_block(thread_id, partner_k + k);
        slot.store(pack(base, FILLED), Ordering::Release);
        self.credit_merge(idx);
        Some(base + partner_k as u64)
    }

    /// One bounded spin burst over slot `idx`; returns the fill if the
    /// partner deposited during the burst.
    fn spin_burst(&self, idx: usize) -> Option<u64> {
        let slot = &self.slots[idx];
        for _ in 0..self.spin {
            let word = slot.load(Ordering::Acquire);
            if word & TAG_MASK == FILLED {
                return Some(self.take_fill(idx, word));
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Waits for a partner to fill the offer we published in slot `idx`
    /// (see "Waiting" in the module docs). Returns the merged base on
    /// success and `None` once the offer has been retracted (the caller
    /// then reserves solo). An offer captured concurrently with its
    /// timeout is *obligated* and waits for the deposit.
    fn wait_for_fill(&self, idx: usize, offer: u64) -> Option<u64> {
        // The first burst catches partners that arrive in parallel on
        // another core within nanoseconds.
        if let Some(base) = self.spin_burst(idx) {
            return Some(base);
        }
        // A fraction of timeouts hands the core to a potential partner
        // (spinning alone can never rendezvous when threads outnumber
        // cores) and gives the returned-from-yield slice one more burst.
        // The cadence is per-waiter: counted in a shared word, other
        // threads' timeouts could keep one thread permanently off the
        // period boundary and starve its yields.
        let tick = YIELD_TICKS.with(|t| {
            let tick = t.get();
            t.set(tick.wrapping_add(1));
            tick
        });
        if tick.is_multiple_of(YIELD_PERIOD) {
            crate::sync::model_yield();
            if let Some(base) = self.spin_burst(idx) {
                return Some(base);
            }
        }
        // Timed out: retract the offer — unless a partner claimed it
        // concurrently, in which case the combined reservation is already
        // being made on our behalf and we must take the deposit (cf. the
        // prism's CAPTURED state).
        let slot = &self.slots[idx];
        if slot.compare_exchange(offer, EMPTY, Ordering::AcqRel, Ordering::Acquire).is_err() {
            return Some(self.await_obligated_fill(idx));
        }
        None
    }

    /// Waits out the obligated state: our offer was captured, the partner
    /// is mid-reservation, and the deposit is guaranteed to arrive within
    /// its one `reserve_block` call.
    fn await_obligated_fill(&self, idx: usize) -> u64 {
        let slot = &self.slots[idx];
        let mut spins = 0u32;
        loop {
            let word = slot.load(Ordering::Acquire);
            if word & TAG_MASK == FILLED {
                return self.take_fill(idx, word);
            }
            if crate::sync::in_model() {
                // Under the interleaving model, every probe must be a
                // *voluntary* yield so the DFS hands the schedule to the
                // partner mid-reservation instead of spinning to the step
                // bound.
                crate::sync::model_yield();
                continue;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                // The partner holds no lock, but it may be preempted
                // mid-reservation; yield rather than burn the core.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// The arena protocol: returns the base of this operation's contiguous
    /// block of `k` values, merged with a partner's when a collision
    /// succeeds.
    fn reserve(&self, thread_id: usize, k: usize) -> u64 {
        debug_assert!(k > 0);
        let home = self.home_slot(thread_id);
        let slot = &self.slots[home];
        let observed = slot.load(Ordering::Acquire);
        if observed & TAG_MASK == OFFER {
            if let Some(base) = self.try_capture(home, observed, thread_id, k) {
                return base;
            }
        } else if observed == EMPTY && self.spin > 0 && self.should_offer(home) {
            // Publish our own offer and wait for a capturer. The CAS
            // decides: another thread may have published since the load.
            let offer = pack(k as u64, OFFER);
            if slot.compare_exchange(EMPTY, offer, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                if let Some(base) = self.wait_for_fill(home, offer) {
                    return base;
                }
            }
        }

        // Busy slot, lost race, quiet home, or timeout: one solo
        // reservation against the underlying counter keeps the layer
        // obstruction-free.
        self.stats[home].fallbacks.fetch_add(1, Ordering::Relaxed);
        self.inner.reserve_block(thread_id, k)
    }

    /// The raw slot words, for the model suite's quiescence checks
    /// (`0` is the `EMPTY` encoding).
    #[cfg(feature = "model")]
    #[must_use]
    pub fn arena_slot_words(&self) -> Vec<u64> {
        self.slots.iter().map(|slot| slot.load(Ordering::Acquire)).collect()
    }
}

impl<C: BlockReserve> SharedCounter for EliminationCounter<C> {
    fn next(&self, thread_id: usize) -> u64 {
        self.reserve(thread_id, 1)
    }

    fn next_batch(&self, thread_id: usize, k: usize, out: &mut Vec<u64>) {
        if k == 0 {
            return;
        }
        // Unlike stride reservations, the batch is contiguous:
        // `base..base + k`.
        let base = self.reserve(thread_id, k);
        out.extend(base..base + k as u64);
    }

    fn describe(&self) -> String {
        format!("{} + elim[{}]", self.inner.describe(), self.slots.len())
    }
}

impl<C: BlockReserve> BlockReserve for EliminationCounter<C> {
    fn reserve_block(&self, thread_id: usize, k: usize) -> u64 {
        assert!(k > 0, "a block reservation needs at least one value");
        self.reserve(thread_id, k)
    }

    fn reserved(&self) -> u64 {
        // Merged or solo, every value comes out of one inner block.
        self.inner.reserved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CentralCounter, NetworkCounter};
    use counting::counting_network;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    fn assert_exact_range(values: &[u64]) {
        let m = values.len() as u64;
        let set: HashSet<u64> = values.iter().copied().collect();
        assert_eq!(set.len() as u64, m, "duplicate values handed out");
        assert!(values.iter().all(|&v| v < m), "values must tile 0..{m}");
    }

    // --- deterministic collide / merge / split --------------------------

    #[test]
    fn parked_waiter_and_capturer_split_one_contiguous_block() {
        // A waiter publishes an offer of 3 (a huge spin bound stands in for
        // a preempted thread); a second caller captures it with a request of
        // 5. One combined reservation of 8 must be split gap-free: the
        // waiter takes 0..3, the capturer 3..8, and the inner cursor moved
        // exactly once.
        let counter = EliminationCounter::with_arena(CentralCounter::new(), 1, 2_000_000_000);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut out = Vec::new();
                counter.next_batch(0, 3, &mut out);
                out
            });
            while counter.slots[0].load(Ordering::Acquire) & TAG_MASK != OFFER {
                std::thread::yield_now();
            }
            let mut capturer = Vec::new();
            counter.next_batch(1, 5, &mut capturer);
            let waiter = waiter.join().expect("waiter panicked");
            assert_eq!(waiter, vec![0, 1, 2], "the waiter takes the first sub-block");
            assert_eq!(capturer, vec![3, 4, 5, 6, 7], "the capturer takes the rest");
        });
        assert_eq!(counter.collisions(), 2, "both sides count the merge");
        assert_eq!(counter.fallbacks(), 0);
        assert_eq!(counter.slots[0].load(Ordering::Relaxed), EMPTY, "the slot was recycled");
        assert_eq!(counter.inner().next(0), 8, "exactly one combined reservation of 8");
    }

    #[test]
    fn capturing_a_planted_offer_merges_and_deposits_the_first_sub_block() {
        // Drive the claim path deterministically: plant an OFFER word of
        // size 4 as if a waiter had published it, then call with k = 2. The
        // call must capture, reserve 6 in one block, deposit base 0 for
        // the "waiter" and keep 4..6 for itself.
        let counter = EliminationCounter::with_arena(CentralCounter::new(), 1, 64);
        counter.slots[0].store(pack(4, OFFER), Ordering::Release);
        let mut out = Vec::new();
        counter.next_batch(0, 2, &mut out);
        assert_eq!(out, vec![4, 5], "the capturer's share starts after the waiter's 4");
        let word = counter.slots[0].load(Ordering::Acquire);
        assert_eq!(word & TAG_MASK, FILLED, "the waiter's share was deposited");
        assert_eq!(word >> 2, 0, "the deposited base is the block start");
        assert_eq!(counter.collisions(), 1, "only the capturer has counted so far");
        assert_eq!(counter.inner().next(0), 6, "one reservation of 4 + 2");
    }

    #[test]
    fn busy_slot_falls_back_to_a_solo_reservation() {
        // A CLAIMED slot belongs to a pair mid-merge: a third caller must
        // not interfere — it reserves solo and leaves the word alone.
        let counter = EliminationCounter::with_arena(CentralCounter::new(), 1, 64);
        counter.slots[0].store(CLAIMED, Ordering::Release);
        let mut out = Vec::new();
        counter.next_batch(0, 3, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(counter.fallbacks(), 1);
        assert_eq!(counter.collisions(), 0);
        assert_eq!(counter.slots[0].load(Ordering::Relaxed), CLAIMED, "the slot was not touched");
    }

    // --- timeout fallback ----------------------------------------------

    #[test]
    fn no_partner_within_the_wait_bound_retracts_and_reserves_solo() {
        let counter = EliminationCounter::with_arena(CentralCounter::new(), 1, 3);
        let mut values = Vec::new();
        for op in 0..10 {
            counter.next_batch(op, 2, &mut values);
        }
        assert_exact_range(&values);
        assert_eq!(counter.collisions(), 0, "no partner, no merge");
        assert_eq!(counter.fallbacks(), 10, "every operation fell back");
        assert_eq!(counter.slots[0].load(Ordering::Relaxed), EMPTY, "offers were retracted");
    }

    #[test]
    fn zero_spin_never_offers_but_still_captures() {
        // spin = 0: the caller will not wait, but a published offer from
        // someone else is still capturable. With a planted offer the call
        // merges; without one it goes straight to solo.
        let counter = EliminationCounter::with_arena(CentralCounter::new(), 1, 0);
        let mut solo = Vec::new();
        counter.next_batch(0, 2, &mut solo);
        assert_eq!(solo, vec![0, 1]);
        assert_eq!(counter.fallbacks(), 1);
        counter.slots[0].store(pack(3, OFFER), Ordering::Release);
        let mut merged = Vec::new();
        counter.next_batch(0, 1, &mut merged);
        assert_eq!(merged, vec![5], "captured the planted offer of 3 after base 2");
        assert_eq!(counter.collisions(), 1);
    }

    // --- home slots and the offer rule ----------------------------------

    #[test]
    fn high_credit_keeps_the_probe_window_at_one_slot() {
        // An operation looks at its home slot only: offers waiting in
        // every other slot are invisible to it, and the call goes solo.
        let counter = EliminationCounter::with_arena(CentralCounter::new(), 4, 0);
        for slot in &counter.slots[1..] {
            slot.store(pack(3, OFFER), Ordering::Release);
        }
        let mut out = Vec::new();
        counter.next_batch(0, 2, &mut out); // home slot of thread 0 is slot 0
        assert_eq!(out, vec![0, 1], "no capture outside the home slot");
        assert_eq!((counter.collisions(), counter.fallbacks()), (0, 1));
        for (idx, slot) in counter.slots.iter().enumerate().skip(1) {
            let word = slot.load(Ordering::Acquire);
            assert_eq!(word, pack(3, OFFER), "the offer in slot {idx} was touched");
        }
    }

    #[test]
    fn a_home_offers_on_the_period_and_a_merge_keeps_it_offering() {
        // One slot and a huge spin bound: thread 0's call offers and waits
        // until the main thread (thread 1) captures it, or reserves solo
        // without offering.
        let counter = EliminationCounter::with_arena(CentralCounter::new(), 1, 2_000_000_000);
        // One call of thread 0; whether it published an offer. Every wait
        // is bounded, and a published offer is always captured, so a
        // wrong offer rule fails the test rather than hanging it.
        let call = || {
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| counter.next(0));
                let deadline = Instant::now() + Duration::from_secs(10);
                let offered = loop {
                    if counter.slots[0].load(Ordering::Acquire) & TAG_MASK == OFFER {
                        break true;
                    }
                    if waiter.is_finished() || Instant::now() > deadline {
                        break false;
                    }
                    std::thread::yield_now();
                };
                if offered {
                    counter.next(1);
                }
                waiter.join().expect("waiter panicked");
                offered
            })
        };
        assert!(call(), "a fresh home offers");
        assert!(call(), "a merge does not advance the cadence, so the home offers again");
        assert_eq!((counter.collisions(), counter.fallbacks()), (4, 0));
        counter.stats[0].fallbacks.store(1, Ordering::Relaxed);
        assert!(!call(), "off the period, the home reserves solo without offering");
        assert_eq!((counter.collisions(), counter.fallbacks()), (4, 2));
        assert_eq!(counter.inner().next(0), 5, "two merged blocks of 2 and one solo value");
    }

    // --- layout ------------------------------------------------------------

    #[test]
    fn contended_words_sit_on_cache_lines_of_their_own() {
        type Arena = EliminationCounter<CentralCounter>;
        let counter = Arena::new(CentralCounter::new());
        let line = |addr: usize| addr / 64;
        let field = |offset: usize| line(std::ptr::from_ref(&counter) as usize + offset);
        // What every operation reads and nobody writes ...
        let read_mostly = [
            std::mem::offset_of!(Arena, inner),
            std::mem::offset_of!(Arena, slots),
            std::mem::offset_of!(Arena, spin),
        ]
        .map(field);
        // ... and the words operations write.
        let mut written: Vec<usize> =
            counter.stats.iter().map(|shard| line(std::ptr::from_ref(shard) as usize)).collect();
        written.extend(counter.slots.iter().map(|slot| line(std::ptr::from_ref(slot) as usize)));
        assert_eq!(written.len(), 2 * DEFAULT_SLOTS);
        assert!(written.iter().all(|w| !read_mostly.contains(w)), "{written:?} / {read_mostly:?}");
        let distinct: HashSet<usize> = written.iter().copied().collect();
        assert_eq!(distinct.len(), written.len(), "two written words share a line: {written:?}");
    }

    // --- preemption-hostile schedules ------------------------------------

    #[test]
    fn preemption_hostile_schedule_preserves_the_exact_range() {
        // One slot, a wait bound of 1, and threads that sleep mid-stream
        // (sleeping stands in for preemption) so offers routinely expire
        // and retraction races with capture. Whatever mix of merge,
        // obligated wait and solo fallback results, the mixed-size values
        // must tile exactly.
        let net = counting_network(8, 8).expect("valid");
        let counter = EliminationCounter::with_arena(NetworkCounter::new("C(8,8)", &net), 1, 1);
        let threads = 8;
        let per_thread = 400;
        let all = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let counter = &counter;
                let all = &all;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for op in 0..per_thread {
                        counter.next_batch(tid, 1 + (op * 7 + tid) % 5, &mut local);
                        if op % 64 == tid * 8 {
                            std::thread::sleep(std::time::Duration::from_micros(50));
                        }
                    }
                    all.lock().expect("not poisoned").extend(local);
                });
            }
        });
        let values = all.into_inner().expect("not poisoned");
        assert_exact_range(&values);
        assert_eq!(
            counter.collisions() + counter.fallbacks(),
            (threads * per_thread) as u64,
            "every operation is exactly one of merged or solo"
        );
    }

    // --- the lifted restriction, on every counter -----------------------

    #[test]
    fn mixed_batches_tile_exactly_on_every_wrapped_counter() {
        // The exact mixed-size workload that breaks raw stride
        // reservations: random k per op, op count not divisible by any
        // output width. Through the layer every counter must hand out
        // exactly 0..m.
        let net = counting_network(8, 24).expect("valid");
        let counters: [Box<dyn SharedCounter>; 2] = [
            Box::new(EliminationCounter::new(NetworkCounter::new("C(8,24)", &net))),
            Box::new(EliminationCounter::new(CentralCounter::new())),
        ];
        for counter in counters {
            let threads = 8;
            let batches = 101; // deliberately not a multiple of anything
            let all = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for tid in 0..threads {
                    let counter = counter.as_ref();
                    let all = &all;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        for op in 0..batches {
                            counter.next_batch(tid, 1 + (op * 13 + tid * 5) % 9, &mut local);
                        }
                        all.lock().expect("not poisoned").extend(local);
                    });
                }
            });
            assert_exact_range(&all.into_inner().expect("not poisoned"));
        }
    }

    #[test]
    fn reserved_counts_every_value_once_on_every_implementor() {
        /// Four threads reserve mixed-size blocks; they must tile
        /// `already..reserved()`.
        fn drive<C: BlockReserve>(counter: &C, already: u64) {
            let all = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for tid in 0..4 {
                    let all = &all;
                    scope.spawn(move || {
                        let blocks: Vec<(u64, u64)> = (0..150)
                            .map(|op| 1 + (op * 7 + tid) % 5)
                            .map(|k| (counter.reserve_block(tid, k), k as u64))
                            .collect();
                        all.lock().expect("not poisoned").extend(blocks);
                    });
                }
            });
            let mut blocks = all.into_inner().expect("not poisoned");
            blocks.sort_unstable();
            let mut next = already;
            for (base, k) in blocks {
                assert_eq!(base, next, "{}: the blocks gap or overlap", counter.describe());
                next += k;
            }
            assert_eq!(counter.reserved(), next, "{}", counter.describe());
        }
        /// The bare counter, then under the arena.
        fn check<C: BlockReserve>(inner: impl Fn() -> C) {
            drive(&inner(), 0);
            let arena = EliminationCounter::new(inner());
            // A planted offer of 4 captured with k = 2 is one inner
            // reservation of 6: counted once, for both partners.
            arena.slots[0].store(pack(4, OFFER), Ordering::Release);
            assert_eq!(arena.reserve_block(0, 2), 4);
            arena.slots[0].store(EMPTY, Ordering::Release); // the planted waiter takes 0..4
            assert_eq!((arena.reserved(), arena.collisions()), (6, 1));
            drive(&arena, 6);
        }
        let net = counting_network(4, 16).expect("valid");
        check(|| NetworkCounter::new("C(4,16)", &net));
        check(CentralCounter::new);
    }

    #[test]
    fn collisions_happen_under_real_concurrency() {
        // The spin-then-yield wait makes rendezvous work even when all
        // threads share one core (see the module docs), so collisions
        // must show up under genuine multi-threaded load. A home offers
        // on one solo operation in `OFFER_PERIOD`, and only threads that
        // share a home can merge, so the run must be long enough for
        // thousands of offers and for the scheduler to run home partners
        // side by side.
        let counter = EliminationCounter::with_arena(CentralCounter::new(), 4, 64);
        let all = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for tid in 0..8 {
                let counter = &counter;
                let all = &all;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for _ in 0..50_000 {
                        local.push(counter.next(tid));
                    }
                    all.lock().expect("not poisoned").extend(local);
                });
            }
        });
        assert_exact_range(&all.into_inner().expect("not poisoned"));
        assert!(counter.collisions() > 0, "8 threads must merge at least sometimes");
    }

    // --- plumbing --------------------------------------------------------

    #[test]
    fn next_and_zero_batches_behave() {
        let counter = EliminationCounter::new(CentralCounter::new());
        let mut out = Vec::new();
        counter.next_batch(0, 0, &mut out);
        assert!(out.is_empty(), "k = 0 is a no-op");
        assert_eq!(counter.next(0), 0);
        assert_eq!(counter.reserve_block(1, 3), 1, "layers expose BlockReserve themselves");
        assert_eq!(counter.next(2), 4);
    }

    #[test]
    fn describe_names_inner_and_arena() {
        let counter = EliminationCounter::with_arena(CentralCounter::new(), 2, 8);
        assert_eq!(counter.describe(), "central fetch_add + elim[2]");
        let default = EliminationCounter::new(CentralCounter::new());
        assert_eq!(default.describe(), format!("central fetch_add + elim[{DEFAULT_SLOTS}]"));
        assert_eq!(default.into_inner().describe(), "central fetch_add");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = EliminationCounter::with_arena(CentralCounter::new(), 0, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds 62 bits")]
    fn oversized_payloads_are_rejected_not_corrupted() {
        let _ = pack(1 << 62, OFFER);
    }
}

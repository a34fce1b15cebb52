//! Exhaustive-interleaving scenarios for the elimination arena.
//!
//! Each function builds one fresh [`Scenario`] for
//! [`counting_sim::model::explore`]: a handful of threads batching
//! through a deliberately tiny arena (one or two slots, spin bounds of
//! one or two iterations) so the schedule space stays exhaustively
//! explorable within a small preemption budget, while still crossing
//! every protocol edge — publish, capture, `CLAIMED` hand-off, deposit,
//! timeout retraction, the obligated-fill wait, and (for
//! [`WaitStrategy::Park`]) the modeled park/unpark rendezvous.
//!
//! The quiescence check shared by every scenario asserts the arena's
//! whole contract at once:
//!
//! * the union of all handed-out values tiles `0..total` exactly — no
//!   gap, no duplicate (the paper's Fetch&Increment guarantee under
//!   mixed batch sizes);
//! * every slot has returned to `EMPTY`;
//! * the collision statistic is even (merges credit both sides);
//! * the inner counter's cursor equals `total` — no value was reserved
//!   and then lost.
//!
//! The `*_mutated` variants seed a named protocol mutation (see
//! [`counting_sim::model::mutation_enabled`]) that the checker **must**
//! catch; the model test suite fails if exploration reports them clean.
//! This is the calibration that proves the checker has teeth.

use std::sync::Arc;
use std::time::Duration;

use counting_sim::model::Scenario;

use crate::counter::{CentralCounter, SharedCounter};
use crate::elimination::{EliminationConfig, EliminationCounter};
use crate::waiting::WaitStrategy;

/// The arena under test: the elimination layer over the centralized
/// counter. The inner counter's single `fetch_add` is trivially atomic,
/// so every interesting interleaving lives in the arena's slot words —
/// exactly the cells the model shims instrument.
pub type ModelArena = EliminationCounter<CentralCounter>;

/// A minimal, fully explorable arena: geometry from the arguments, park
/// timeout collapsed to zero (the modeled park ignores wall-clock time
/// anyway — see [`crate::waiting::ParkTable::park_until`]).
fn tiny_arena(slots: usize, spin: usize, probe: usize, strategy: WaitStrategy) -> Arc<ModelArena> {
    Arc::new(EliminationCounter::with_config(
        CentralCounter::new(),
        EliminationConfig { slots, spin, probe, strategy, park_timeout: Duration::from_millis(0) },
    ))
}

/// One worker thread performing a single `next_batch(thread_id, k)` and
/// returning the values it was handed.
fn batcher(
    counter: &Arc<ModelArena>,
    thread_id: usize,
    k: usize,
) -> Box<dyn FnOnce() -> Vec<u64> + Send + 'static> {
    let counter = Arc::clone(counter);
    Box::new(move || {
        let mut out = Vec::new();
        counter.next_batch(thread_id, k, &mut out);
        out
    })
}

/// The shared quiescence invariant (see the module docs).
fn quiescence_check(
    counter: Arc<ModelArena>,
    total: u64,
) -> impl FnOnce(&[Vec<u64>]) -> Result<(), String> + 'static {
    move |outs| {
        let mut values: Vec<u64> = outs.iter().flatten().copied().collect();
        values.sort_unstable();
        let expected: Vec<u64> = (0..total).collect();
        if values != expected {
            return Err(format!("handed-out values must tile 0..{total} exactly, got {values:?}"));
        }
        for (idx, word) in counter.arena_slot_words().into_iter().enumerate() {
            if word != 0 {
                return Err(format!("slot {idx} is {word:#x} at quiescence, expected EMPTY"));
            }
        }
        let collisions = counter.collisions();
        if !collisions.is_multiple_of(2) {
            return Err(format!(
                "collision count {collisions} is odd: a merge must credit both sides"
            ));
        }
        // The check runs post-quiescence on the controller thread, so
        // this probe is outside the modeled schedule.
        let cursor = counter.inner().next(usize::MAX);
        if cursor != total {
            return Err(format!(
                "inner cursor reached {cursor}, expected {total}: a reservation was wasted"
            ));
        }
        Ok(())
    }
}

/// Two threads, one slot: the canonical rendezvous. Thread 0 batches 3,
/// thread 1 batches 5; every schedule must tile `0..8`. Exercises
/// publish → capture → deposit, the timeout retraction, and the
/// retract-vs-capture race (obligated fill), under the given waiting
/// strategy.
#[must_use]
pub fn arena_pair(strategy: WaitStrategy) -> Scenario<Vec<u64>> {
    let counter = tiny_arena(1, 2, 1, strategy);
    let threads = vec![batcher(&counter, 0, 3), batcher(&counter, 1, 5)];
    Scenario::new(threads, quiescence_check(counter, 8))
}

/// Three threads, one slot, a one-iteration spin bound: the smallest
/// configuration where two capturers can race for the same offer while
/// the publisher times out underneath them. Batches of 1, 2 and 3 must
/// tile `0..6`.
#[must_use]
pub fn arena_trio() -> Scenario<Vec<u64>> {
    let counter = tiny_arena(1, 1, 1, WaitStrategy::SpinYield);
    let threads = vec![batcher(&counter, 0, 1), batcher(&counter, 1, 2), batcher(&counter, 2, 3)];
    Scenario::new(threads, quiescence_check(counter, 6))
}

/// [`arena_trio`] with the `arena-skip-claimed` mutation seeded: capture
/// deposits without first moving the slot through `CLAIMED`, so two
/// capturers can consume the same offer and the value stream forks.
/// [`counting_sim::model::explore`] must return a counterexample.
#[must_use]
pub fn arena_trio_mutated() -> Scenario<Vec<u64>> {
    arena_trio().with_mutation("arena-skip-claimed")
}

/// Two slots with a two-slot probe window: thread ids 0 and 2 share home
/// slot 0, thread 1 homes on slot 1, so captures must walk the window
/// and publishes must skip busy slots. Batches of 2, 2 and 1 must tile
/// `0..5`.
#[must_use]
pub fn arena_probe() -> Scenario<Vec<u64>> {
    let counter = tiny_arena(2, 1, 2, WaitStrategy::SpinYield);
    let threads = vec![batcher(&counter, 0, 2), batcher(&counter, 1, 2), batcher(&counter, 2, 1)];
    Scenario::new(threads, quiescence_check(counter, 5))
}

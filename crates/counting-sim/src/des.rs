//! Deterministic discrete-event simulation kernel with message-fault
//! injection.
//!
//! The interleaving checker ([`crate::model`]) explores *shared-memory*
//! schedules exhaustively; this module is its message-passing sibling
//! for the distributed layer: a seeded, fully deterministic event queue
//! plus a per-message fault plan (drop / duplicate / delay, and —
//! through randomized delays — reordering; one decision is a `Copy`
//! [`Fate`], nothing is allocated per hop) and *structural* fault
//! events: scheduled network partitions ([`PartitionWindow`], the
//! shape that drives split-brain scenarios; a harness keeps its windows
//! and asks each one whether it [`severs`](PartitionWindow::severs) a
//! hop) and crash-restart windows (a harness schedules crash/restart
//! pairs as ordinary events and parks the victim's durable state while
//! it is down). Everything a run does derives from its seed, so any
//! counterexample found by a checker driving this kernel replays
//! exactly from `(config, seed)`.
//!
//! The kernel is deliberately generic: it schedules opaque events `E`
//! keyed by `(virtual time, insertion sequence)` — the sequence number
//! breaks timestamp ties deterministically, which is what makes two
//! runs of the same seed byte-identical even when many events land on
//! the same tick. The cluster harness in `counting-cluster` wires its
//! node state machines, churn plan and invariant checker on top.
//!
//! The queue orders only `(at, seq, slot)` keys; payloads wait in a
//! slab and are moved once in and once out. The keys live in two
//! places. Everything pushed before the first [`EventQueue::pop`] — a
//! harness's whole pre-drawn plan, thousands of demand and churn events
//! — is the **plan**: one `Vec` sorted once by `(at, seq)`. Everything
//! pushed afterwards that is due fewer than `RING` (64) ticks after
//! `now` — in-flight hops, the next tick — goes to the **tick ring**, a
//! FIFO per tick at `at % RING`. The ring's invariant: every key in it
//! has `now <= at < now + RING`, so a bucket holds a single `at`, and
//! because `seq` only grows its FIFO order is `seq` order. A runtime
//! event due `RING` or more ticks ahead (no shipped harness schedules
//! one: every delay is bounded well below it) is binary-search-inserted
//! into the plan instead. `pop` takes the smaller `(at, seq)` of the
//! plan's head and the first non-empty bucket from `now`, found in one
//! step from a 64-bit occupancy mask (bit `b` set while bucket `b`
//! holds a key: rotated so bit 0 is `now`'s bucket, its trailing zeros
//! are the ticks to the next due key); sequence
//! numbers are unique, so the merged order is exactly that of one
//! sorted list holding everything.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// A deterministic xorshift64* generator — the kernel's only source of
/// randomness, so a run is a pure function of its seed.
#[derive(Debug, Clone)]
pub struct SimRng(u64);

impl SimRng {
    /// Creates a generator from `seed` (a zero seed is remapped — the
    /// xorshift state must never be zero).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
    }

    /// The next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw in `0..n` (`0` when `n == 0`).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// A uniform draw in `min..=max` (saturating to `min` when the
    /// bounds cross).
    #[inline]
    pub fn range(&mut self, min: u64, max: u64) -> u64 {
        if max <= min {
            min
        } else {
            min + self.below(max - min + 1)
        }
    }

    /// `true` with probability `per_mille / 1000`.
    #[inline]
    pub fn chance(&mut self, per_mille: u32) -> bool {
        self.below(1000) < u64::from(per_mille)
    }

    /// Derives an independent sub-stream keyed by `salt` — used to give
    /// each concern (faults, churn, demand) its own stream so adding
    /// draws to one cannot perturb another.
    #[must_use]
    pub fn fork(&self, salt: u64) -> Self {
        let mut child = Self::new(self.0 ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        // One warm-up draw decorrelates forks with nearby salts.
        let _ = child.next_u64();
        child
    }
}

/// Per-message fault probabilities and delay bounds. Probabilities are
/// integer per-mille, so fault decisions never depend on float
/// comparisons and serialize exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability (‰) that a message is silently dropped.
    pub drop_per_mille: u32,
    /// Probability (‰) that a delivered message is delivered twice (the
    /// duplicate draws its own delay, so the copies reorder freely).
    pub dup_per_mille: u32,
    /// Minimum delivery latency, in virtual ticks.
    pub min_delay: u64,
    /// Maximum delivery latency, in virtual ticks. Randomized latency in
    /// `min_delay..=max_delay` is what reorders concurrent messages.
    pub max_delay: u64,
}

impl FaultPlan {
    /// A fault-free plan delivering everything after `latency` ticks.
    #[must_use]
    pub fn reliable(latency: u64) -> Self {
        Self { drop_per_mille: 0, dup_per_mille: 0, min_delay: latency, max_delay: latency }
    }

    /// `true` when the plan can drop, duplicate or reorder.
    #[must_use]
    pub fn is_faulty(&self) -> bool {
        self.drop_per_mille > 0 || self.dup_per_mille > 0 || self.min_delay != self.max_delay
    }

    /// Decides the fate of one message. The draw order is fixed — drop,
    /// then duplicate, then one delay per copy (the first copy's first)
    /// — so a decision stream is stable for a given RNG state.
    #[inline]
    pub fn decide(&self, rng: &mut SimRng) -> Fate {
        if rng.chance(self.drop_per_mille) {
            return Fate::Dropped;
        }
        let duplicated = rng.chance(self.dup_per_mille);
        let first = rng.range(self.min_delay, self.max_delay);
        if duplicated {
            Fate::Twice(first, rng.range(self.min_delay, self.max_delay))
        } else {
            Fate::Once(first)
        }
    }
}

/// What [`FaultPlan::decide`] does to one message: the delivery delay of
/// every copy that arrives, in virtual ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Silently dropped.
    Dropped,
    /// Delivered once, after this delay.
    Once(u64),
    /// Delivered twice; each copy drew its own delay, so they may
    /// arrive in either order.
    Twice(u64, u64),
}

/// One scheduled network partition: during `start..end`, every hop
/// between a member of `side_a` and a member of `side_b` is severed
/// (dropped at send time, like a cable cut). Nodes on the same side —
/// and nodes on *neither* side — communicate normally, which is what
/// lets a partitioned replica keep talking to clients while losing its
/// peers: the classic split-brain shape.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// First tick of the partition (inclusive).
    pub start: u64,
    /// First tick after the partition (exclusive) — the heal time.
    pub end: u64,
    /// One side of the cut.
    pub side_a: Vec<u64>,
    /// The other side.
    pub side_b: Vec<u64>,
}

impl PartitionWindow {
    /// Whether this window severs a hop from `from` to `to` at `now`.
    #[must_use]
    pub fn severs(&self, now: u64, from: u64, to: u64) -> bool {
        if now < self.start || now >= self.end {
            return false;
        }
        let a = |id| self.side_a.contains(&id);
        let b = |id| self.side_b.contains(&id);
        (a(from) && b(to)) || (b(from) && a(to))
    }
}

/// How many ticks ahead of `now` the tick ring reaches; a runtime push
/// due this far ahead or further joins the sorted plan. One bit per
/// bucket in `EventQueue::occupied`, so it is the width of a `u64`.
const RING: u64 = u64::BITS as u64;

/// One scheduled event's ordering key; its payload waits in the slab at
/// `slot`. `(at, seq)` is unique, so `slot` never decides an order and
/// `E` needs no `Ord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: u64,
    seq: u64,
    slot: usize,
}

/// A deterministic discrete-event queue: events pop in `(time, insertion
/// sequence)` order, so same-tick events resolve in the order they were
/// scheduled — never by allocation address or hash order. See the
/// [module docs](self) for the plan / tick-ring split.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Payloads, addressed by `Key::slot`; `free` lists the empty
    /// slots, so a warmed-up queue never allocates.
    slab: Vec<Option<E>>,
    free: Vec<usize>,
    /// Pushed before the first pop, plus runtime pushes due `RING` or
    /// more ticks ahead; from the first pop on sorted latest-first, so
    /// the earliest key pops off the back.
    plan: Vec<Key>,
    /// Runtime pushes due in `now..now + RING`, one FIFO per tick at
    /// `at % RING`.
    ring: Vec<VecDeque<Key>>,
    in_ring: usize,
    /// Bit `b` is set exactly while `ring[b]` is non-empty.
    occupied: u64,
    /// Whether the first pop has happened (`plan` is sorted).
    started: bool,
    next_seq: u64,
    now: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slab: Vec::new(),
            free: Vec::new(),
            plan: Vec::new(),
            ring: (0..RING).map(|_| VecDeque::new()).collect(),
            in_ring: 0,
            occupied: 0,
            started: false,
            next_seq: 0,
            now: 0,
        }
    }

    /// The virtual time of the most recently popped event.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plan.len() + self.in_ring
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute virtual time `at` (clamped forward
    /// to `now` — the past is immutable) and returns its sequence
    /// number.
    pub fn push(&mut self, at: u64, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = if let Some(slot) = self.free.pop() {
            self.slab[slot] = Some(event);
            slot
        } else {
            self.slab.push(Some(event));
            self.slab.len() - 1
        };
        let key = Key { at: at.max(self.now), seq, slot };
        if !self.started {
            self.plan.push(key);
        } else if key.at - self.now < RING {
            let bucket = key.at % RING;
            self.ring[bucket as usize].push_back(key);
            self.in_ring += 1;
            self.occupied |= 1 << bucket;
        } else {
            let index = self.plan.partition_point(|planned| *planned > key);
            self.plan.insert(index, key);
        }
        seq
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(u64, u64, E)> {
        if !self.started {
            self.started = true;
            self.plan.sort_unstable_by(|a, b| b.cmp(a));
        }
        let planned = self.plan.last().copied();
        // The ring's earliest key: the first occupied bucket from `now`.
        // Every ring key is due in `now..now + RING`, so the rotated
        // mask's trailing zeros are its distance from `now` in ticks.
        let bucket = (self.occupied != 0).then(|| {
            let ahead = self.occupied.rotate_right((self.now % RING) as u32).trailing_zeros();
            ((self.now + u64::from(ahead)) % RING) as usize
        });
        let key = match bucket {
            Some(bucket) if planned.is_none_or(|head| self.ring[bucket][0] < head) => {
                self.in_ring -= 1;
                let key = self.ring[bucket].pop_front().expect("an occupied bucket holds a key");
                if self.ring[bucket].is_empty() {
                    self.occupied &= !(1 << bucket);
                }
                key
            }
            _ => self.plan.pop()?,
        };
        self.now = key.at;
        let event = self.slab[key.slot].take().expect("a pending key's slot holds its event");
        self.free.push(key.slot);
        Some((key.at, key.seq, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rng_is_deterministic_and_fork_is_independent() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let draws_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(draws_a, draws_b);

        let mut fork1 = SimRng::new(42).fork(1);
        let mut fork2 = SimRng::new(42).fork(2);
        assert_ne!(fork1.next_u64(), fork2.next_u64(), "forks draw distinct streams");
        assert_ne!(SimRng::new(0).next_u64(), 0, "zero seed is remapped");
    }

    #[test]
    fn range_and_chance_respect_bounds() {
        let mut rng = SimRng::new(7);
        for _ in 0..200 {
            let v = rng.range(3, 9);
            assert!((3..=9).contains(&v));
        }
        assert_eq!(rng.range(5, 5), 5);
        assert_eq!(rng.range(9, 3), 9, "crossed bounds saturate to min");
        for _ in 0..100 {
            assert!(!rng.chance(0), "0\u{2030} never fires");
            assert!(rng.chance(1000), "1000\u{2030} always fires");
        }
    }

    #[test]
    fn fault_plan_decides_drop_dup_and_delay() {
        let mut rng = SimRng::new(11);
        let reliable = FaultPlan::reliable(4);
        assert!(!reliable.is_faulty());
        for _ in 0..50 {
            assert_eq!(reliable.decide(&mut rng), Fate::Once(4));
        }

        let always_drop = FaultPlan { drop_per_mille: 1000, ..FaultPlan::reliable(1) };
        assert_eq!(always_drop.decide(&mut rng), Fate::Dropped);

        let always_dup =
            FaultPlan { dup_per_mille: 1000, min_delay: 1, max_delay: 6, drop_per_mille: 0 };
        assert!(always_dup.is_faulty());
        let Fate::Twice(first, second) = always_dup.decide(&mut rng) else {
            panic!("duplicated message delivers twice");
        };
        assert!((1..=6).contains(&first) && (1..=6).contains(&second));
    }

    #[test]
    fn fault_decisions_replay_from_the_seed() {
        let plan =
            FaultPlan { drop_per_mille: 200, dup_per_mille: 100, min_delay: 1, max_delay: 30 };
        let run = |seed: u64| -> Vec<Fate> {
            let mut rng = SimRng::new(seed);
            (0..100).map(|_| plan.decide(&mut rng)).collect()
        };
        assert_eq!(run(99), run(99), "same seed, same fault schedule");
        assert_ne!(run(99), run(100), "different seeds diverge");
    }

    #[test]
    fn partition_windows_sever_cross_side_hops_only() {
        let window =
            PartitionWindow { start: 10, end: 20, side_a: vec![100], side_b: vec![101, 102] };
        // Active window, cross-side: severed both directions.
        assert!(window.severs(10, 100, 101));
        assert!(window.severs(19, 102, 100));
        // Same side, or a node on neither side: unaffected.
        assert!(!window.severs(15, 101, 102));
        assert!(!window.severs(15, 1, 100), "clients outside the cut still reach side A");
        assert!(!window.severs(15, 1, 101));
        // Outside the window: healed.
        assert!(!window.severs(9, 100, 101));
        assert!(!window.severs(20, 100, 101), "end is exclusive — the heal tick delivers");

        let json = serde_json::to_string(&window).expect("window serializes");
        let back: PartitionWindow = serde_json::from_str(&json).expect("parses back");
        assert_eq!(back, window, "partition windows replay through serde");
    }

    #[test]
    fn queue_pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, "e");
        q.push(3, "a");
        q.push(3, "b");
        q.push(4, "d");
        q.push(3, "c");
        let order: Vec<(u64, &str)> =
            std::iter::from_fn(|| q.pop().map(|(at, _, e)| (at, e))).collect();
        assert_eq!(order, vec![(3, "a"), (3, "b"), (3, "c"), (4, "d"), (5, "e")]);
        assert_eq!(q.now(), 5);
    }

    #[test]
    fn queue_clamps_events_scheduled_in_the_past() {
        let mut q = EventQueue::new();
        q.push(10, "late");
        assert!(q.pop().is_some());
        q.push(2, "past");
        let (at, _, _) = q.pop().expect("event present");
        assert_eq!(at, 10, "past events are delivered now, never before");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The model is a flat list of `(clamped at, seq)` popped by
        // minimum. `planned` forces pushes before the first pop; a
        // runtime push lands up to one `RING` before `now` (clamped into
        // the present), inside the ring, or up to two `RING`s ahead (the
        // far insert into the plan), so ties cross every half and a long
        // run wraps the ring several times; the trailing pops drain the
        // rest.
        #[test]
        fn queue_pops_like_a_sorted_reference(
            planned in collection::vec(0u64..3 * RING, 0..20),
            ops in collection::vec((any::<bool>(), 0u64..3 * RING), 0..400),
        ) {
            let mut queue = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let mut now = 0u64;
            let pushes = planned.into_iter().map(|at| (true, at));
            for (push, offset) in pushes.chain(ops).chain([(false, 0); 420]) {
                if push {
                    let at = now.saturating_sub(RING) + offset;
                    let seq = queue.push(at, ());
                    reference.push((at.max(now), seq));
                } else {
                    let expected = reference.iter().copied().min();
                    reference.retain(|&entry| Some(entry) != expected);
                    now = expected.map_or(now, |(at, _)| at);
                    prop_assert_eq!(queue.pop().map(|(at, seq, ())| (at, seq)), expected);
                    prop_assert_eq!(queue.now(), now);
                }
                prop_assert_eq!(queue.len(), reference.len());
                prop_assert_eq!(queue.is_empty(), reference.is_empty());
            }
        }
    }
}

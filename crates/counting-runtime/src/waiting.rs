//! Pluggable waiting strategies for rendezvous-based combining layers.
//!
//! The elimination arena ([`crate::elimination`]) and the diffracting
//! tree's prisms both hinge on the same event: a thread that has
//! *published* an offer must stay observable until a partner *claims* it.
//! How the publisher spends that interval is a scheduling decision, and
//! the right answer depends on the machine:
//!
//! * [`WaitStrategy::SpinYield`] — spin, then (on an amortized fraction
//!   of timeouts) `yield_now` once and spin again. A cheap hedge for mild
//!   oversubscription, but fundamentally best-effort: the scheduler is
//!   free to decline the yield, and under CFS it frequently does, so on a
//!   1–2 cpu box most offers still expire unclaimed.
//! * [`WaitStrategy::Park`] — spin briefly, then **sleep** on a
//!   futex-style side table ([`ParkTable`], `parking_lot`-backed, one
//!   seat per arena slot) until the claimer wakes the publisher after
//!   depositing its share. Parking surrenders the core *to* the potential
//!   partner instead of hoping the scheduler takes it, which is what
//!   makes rendezvous land when runnable threads outnumber cpus. The
//!   price is a park/unpark syscall pair per merge — worth paying exactly
//!   when spinning could never rendezvous anyway.
//!
//! The strategy is a property of the combining layer instance (every
//! participant of one arena must agree on who wakes whom), so it is
//! carried by [`crate::elimination::EliminationConfig`] and threaded from
//! there through the stress matrix and the `exp_elimination` experiment
//! (`--strategy` flag).
//!
//! # Worked example: a parked offer woken by its claimer
//!
//! Two threads collide on a single-slot arena. Whichever publishes
//! first parks (the one-minute timeout stands in for "sleep until
//! woken" — completing at all proves the wakeup); the other captures
//! the offer, performs **one** combined reservation of `3 + 5 = 8`
//! values against the wrapped counter, deposits the partner's
//! sub-block, and wakes the sleeper. The split is contiguous and
//! gap-free whichever thread the scheduler runs first:
//!
//! ```
//! use std::time::Duration;
//! use counting_runtime::{
//!     CentralCounter, EliminationConfig, EliminationCounter, SharedCounter, WaitStrategy,
//! };
//!
//! let config = EliminationConfig {
//!     slots: 1, // force both threads onto the same exchanger slot
//!     strategy: WaitStrategy::Park,
//!     park_timeout: Duration::from_secs(60),
//!     ..EliminationConfig::default()
//! };
//! let counter = EliminationCounter::with_config(CentralCounter::new(), config);
//!
//! let (first, second) = std::thread::scope(|scope| {
//!     let first = scope.spawn(|| {
//!         let mut out = Vec::new();
//!         counter.next_batch(0, 3, &mut out); // offers 3, parks
//!         out
//!     });
//!     // Usually arrives long after the offer is parked — but the
//!     // assertions below hold for either arrival order.
//!     std::thread::sleep(Duration::from_millis(100));
//!     let mut out = Vec::new();
//!     counter.next_batch(1, 5, &mut out); // captures, reserves 8, unparks
//!     (first.join().expect("no panic"), out)
//! });
//!
//! // One combined reservation of 8, split gap-free between the two
//! // threads (each share is itself contiguous).
//! assert_eq!(counter.collisions(), 2, "both sides merged");
//! assert_eq!(counter.fallbacks(), 0, "nobody fell back to a solo reservation");
//! let mut all = [first, second].concat();
//! all.sort();
//! assert_eq!(all, (0..8).collect::<Vec<u64>>(), "the block tiles 0..8 exactly");
//! assert_eq!(counter.into_inner().next(0), 8, "the inner counter moved exactly once");
//! ```

use std::str::FromStr;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// How a thread that published a rendezvous offer waits for a partner.
///
/// See the [module docs](self) for when each strategy wins; the default
/// is [`WaitStrategy::SpinYield`], the behaviour combining layers shipped
/// with before the strategy became pluggable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WaitStrategy {
    /// Busy-wait, then one amortized `yield_now` and a second busy-wait.
    /// A best-effort hedge for mild oversubscription.
    #[default]
    SpinYield,
    /// Busy-wait briefly, then sleep on the arena's [`ParkTable`] until
    /// the claimer wakes the offer (or a timeout retracts it). The robust
    /// choice when runnable threads outnumber cpus.
    Park,
}

impl WaitStrategy {
    /// Every strategy, in escalation order — handy for experiment axes.
    pub const ALL: [WaitStrategy; 2] = [WaitStrategy::SpinYield, WaitStrategy::Park];

    /// A short stable label used in tables, JSON output and CLI flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WaitStrategy::SpinYield => "spin-yield",
            WaitStrategy::Park => "park",
        }
    }
}

impl std::fmt::Display for WaitStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for WaitStrategy {
    type Err = String;

    /// Parses the labels produced by [`WaitStrategy::label`] (plus the
    /// underscore spelling `spin_yield`), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "spin-yield" | "spin_yield" | "spinyield" => Ok(WaitStrategy::SpinYield),
            "park" => Ok(WaitStrategy::Park),
            other => Err(format!("unknown wait strategy `{other}` (expected spin-yield or park)")),
        }
    }
}

/// One parking seat: a mutex/condvar pair guarding wakeups for one arena
/// slot. The mutex protects no data of its own — the protocol state lives
/// in the slot's atomic word — it exists purely to close the lost-wakeup
/// race (see [`ParkTable::park_until`]).
#[derive(Debug, Default)]
struct Seat {
    lock: Mutex<()>,
    wakeups: Condvar,
}

/// A futex-style side table of parking seats, keyed by arena slot.
///
/// A publisher parks on the seat of the slot holding its offer
/// ([`Self::park_until`]); the claimer, after depositing into that slot,
/// wakes the seat ([`Self::unpark`]). At most one thread is ever parked
/// per seat — a slot holds at most one live offer — but the table makes
/// no use of that fact and `unpark` wakes all sleepers.
///
/// Correctness of the handoff: the parker re-checks `filled()` while
/// holding the seat lock before every sleep, and the waker takes the same
/// lock before notifying. A deposit therefore either happens-before the
/// parker's check (which then observes it and never sleeps) or the
/// notification reaches a thread already inside `wait` — the wakeup
/// cannot fall into the gap between check and sleep. Spurious wakeups are
/// expected and harmless: the loop simply re-checks the condition.
#[derive(Debug)]
pub struct ParkTable {
    seats: Box<[Seat]>,
}

impl ParkTable {
    /// Creates a table with one seat per arena slot.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "the park table needs at least one seat");
        Self { seats: (0..slots).map(|_| Seat::default()).collect() }
    }

    /// The number of seats (equal to the arena's slot count).
    #[must_use]
    pub fn seats(&self) -> usize {
        self.seats.len()
    }

    /// Parks the calling thread on `slot`'s seat until `filled()` returns
    /// `true` or `timeout` elapses, whichever comes first. Returns whether
    /// the condition was observed (`false` = timed out). Wakeups with the
    /// condition still false — spurious or stale — simply re-check and
    /// sleep again for the remaining time. A `timeout` too large to
    /// represent as a deadline (e.g. [`Duration::MAX`]) means "park until
    /// filled", with no timeout at all.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn park_until(&self, slot: usize, timeout: Duration, filled: impl Fn() -> bool) -> bool {
        let seat = &self.seats[slot];
        if crate::sync::in_model() {
            // Under the interleaving model, OS blocking would deadlock
            // the cooperative scheduler (a parked thread never reaches a
            // scheduling point). A bounded poll with voluntary yields
            // models the same contract: either the condition is observed
            // or the park "times out".
            return crate::sync::park_poll(filled);
        }
        // `None` = unrepresentable deadline = wait indefinitely.
        let deadline = Instant::now().checked_add(timeout);
        let mut guard = seat.lock.lock();
        loop {
            if filled() {
                return true;
            }
            match deadline {
                Some(deadline) => {
                    let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                        return false;
                    };
                    if remaining.is_zero() {
                        return false;
                    }
                    let _ = seat.wakeups.wait_for(&mut guard, remaining);
                }
                None => seat.wakeups.wait(&mut guard),
            }
        }
    }

    /// Wakes whoever is parked on `slot`'s seat (a no-op if nobody is).
    /// Call *after* making the parker's condition observable — the seat
    /// lock taken here is what guarantees the parker cannot miss it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn unpark(&self, slot: usize) {
        if crate::sync::in_model() {
            // Model parking is a poll loop (see park_until): there is no
            // sleeper to wake, and taking a real OS lock here could block
            // while holding the model scheduler's grant.
            return;
        }
        let seat = &self.seats[slot];
        let _guard = seat.lock.lock();
        seat.wakeups.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn strategy_labels_round_trip_through_from_str() {
        for strategy in WaitStrategy::ALL {
            assert_eq!(strategy.label().parse::<WaitStrategy>(), Ok(strategy));
            assert_eq!(strategy.to_string(), strategy.label());
        }
        assert_eq!("SPIN_YIELD".parse::<WaitStrategy>(), Ok(WaitStrategy::SpinYield));
        assert!("nap".parse::<WaitStrategy>().unwrap_err().contains("nap"));
        assert_eq!(WaitStrategy::default(), WaitStrategy::SpinYield);
    }

    #[test]
    fn parked_thread_is_woken_by_unpark() {
        let table = ParkTable::new(2);
        let filled = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let parker = scope.spawn(|| {
                table.park_until(1, Duration::from_secs(60), || filled.load(Ordering::Acquire))
            });
            std::thread::sleep(Duration::from_millis(10));
            filled.store(true, Ordering::Release);
            table.unpark(1);
            // Returning at all (well before the 60 s timeout) proves the
            // wakeup; `true` proves the condition was observed.
            assert!(parker.join().expect("parker panicked"));
        });
    }

    #[test]
    fn park_times_out_when_nobody_unparks() {
        let table = ParkTable::new(1);
        let start = Instant::now();
        let woken = table.park_until(0, Duration::from_millis(5), || false);
        assert!(!woken, "no unpark, no condition: the park must time out");
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn spurious_unparks_re_check_and_keep_parking() {
        // A stream of unparks with the condition still false must not let
        // the parker return early: every wakeup re-checks and goes back to
        // sleep until the condition truly flips.
        let table = ParkTable::new(1);
        let filled = AtomicBool::new(false);
        let checks = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let parker = scope.spawn(|| {
                table.park_until(0, Duration::from_secs(60), || {
                    checks.fetch_add(1, Ordering::Relaxed);
                    filled.load(Ordering::Acquire)
                })
            });
            // Spurious phase: wake repeatedly without satisfying the
            // condition.
            for _ in 0..20 {
                table.unpark(0);
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(!parker.is_finished(), "spurious wakeups must not end the park");
            filled.store(true, Ordering::Release);
            table.unpark(0);
            assert!(parker.join().expect("parker panicked"));
        });
        assert!(
            checks.load(Ordering::Relaxed) >= 2,
            "the condition must be re-checked on wakeups, not assumed"
        );
    }

    #[test]
    fn unbounded_timeouts_park_until_filled_instead_of_panicking() {
        // Duration::MAX cannot be added to Instant::now(); it must mean
        // "no timeout" rather than an arithmetic panic on first park.
        let table = ParkTable::new(1);
        let filled = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let parker = scope
                .spawn(|| table.park_until(0, Duration::MAX, || filled.load(Ordering::Acquire)));
            std::thread::sleep(Duration::from_millis(10));
            filled.store(true, Ordering::Release);
            table.unpark(0);
            assert!(parker.join().expect("parker panicked"));
        });
    }

    #[test]
    fn condition_true_before_parking_returns_without_sleeping() {
        let table = ParkTable::new(1);
        let start = Instant::now();
        assert!(table.park_until(0, Duration::from_secs(60), || true));
        assert!(start.elapsed() < Duration::from_secs(1), "no sleep when already filled");
    }

    #[test]
    fn zero_timeout_is_a_bounded_condition_poll() {
        let table = ParkTable::new(1);
        assert!(!table.park_until(0, Duration::ZERO, || false));
        assert!(table.park_until(0, Duration::ZERO, || true));
    }

    #[test]
    #[should_panic(expected = "at least one seat")]
    fn zero_seats_rejected() {
        let _ = ParkTable::new(0);
    }

    #[test]
    fn seats_match_the_slot_count() {
        assert_eq!(ParkTable::new(3).seats(), 3);
    }
}

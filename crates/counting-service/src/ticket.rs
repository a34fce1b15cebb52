//! Admission control in the ticket-lock pattern: a shared counter
//! dispenses tickets, an admission cursor says how many may proceed.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use counting_runtime::SharedCounter;

use counting_runtime::sync::{mutation_enabled, AtomicU64};

/// A waiting-room gate: arrivals take a ticket from a shared counter and
/// are admitted in ticket order as capacity opens.
///
/// This is the classic ticket-lock shape scaled out — the `waitingroom`
/// admission pattern: the *ticket dispenser* is the contended structure
/// (a tenant counter: one word, one `fetch_add` per ticket), while
/// admission itself is a single
/// monotone cursor that only the (rarely contended) capacity-release
/// path advances.
///
/// Because tenant counters hand out block-reserved values, tickets at
/// quiescence are exactly `0..dispensed`: admitting `n` more tickets
/// admits precisely the `n` longest-waiting arrivals.
///
/// # Admission bound
///
/// The gate maintains the invariant `now_serving <= dispensed`: capacity
/// releases admit only tickets that exist. [`Self::admit`] clamps to the
/// dispensed count — releasing more capacity than there are waiters
/// admits everyone currently waiting and *discards* the excess rather
/// than banking it for future arrivals (a waiting room admits people,
/// not promises), and no sequence of releases can overflow the bound
/// (the arithmetic saturates before the clamp). Consequently
/// `is_admitted` is monotone: once a ticket is admitted it stays
/// admitted.
///
/// The gate must be the **sole consumer** of its counter — interleaved
/// draws by other users would leave holes in the ticket sequence and
/// break the density that the clamp (and ticket-order admission) relies
/// on. The service registry guarantees this by giving every gate its own
/// tenant stream.
///
/// The gate is `Sync` — arrivals call [`Self::acquire`] concurrently and
/// poll [`Self::is_admitted`]; the capacity owner calls [`Self::admit`].
///
/// ```
/// use std::sync::Arc;
/// use counting_runtime::CentralCounter;
/// use counting_service::TicketGate;
///
/// let gate = TicketGate::new(Arc::new(CentralCounter::new()));
/// let a = gate.acquire(0);
/// let b = gate.acquire(1);
/// assert!(!gate.is_admitted(a), "nobody is admitted until capacity opens");
/// assert_eq!(gate.admit(1), 1);
/// assert!(gate.is_admitted(a) && !gate.is_admitted(b), "ticket order");
/// assert_eq!(gate.admit(100), 2, "releases clamp to tickets dispensed");
/// ```
pub struct TicketGate {
    counter: Arc<dyn SharedCounter + Send + Sync>,
    /// Tickets below this bound may proceed. Invariant: never exceeds
    /// `dispensed`.
    now_serving: AtomicU64,
    /// Tickets handed out (incremented *before* the counter draw, so the
    /// bound `now_serving <= dispensed` can never admit a ticket that
    /// will not exist — see `acquire`).
    dispensed: AtomicU64,
}

impl std::fmt::Debug for TicketGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketGate")
            .field("counter", &self.counter.describe())
            .field("now_serving", &self.now_serving)
            .field("dispensed", &self.dispensed)
            .finish()
    }
}

impl TicketGate {
    /// Creates a gate dispensing tickets from `counter`, admitting none.
    #[must_use]
    pub fn new(counter: Arc<dyn SharedCounter + Send + Sync>) -> Self {
        Self { counter, now_serving: AtomicU64::new(0), dispensed: AtomicU64::new(0) }
    }

    /// Takes the caller's ticket — one shared-counter operation.
    #[must_use]
    pub fn acquire(&self, thread_id: usize) -> u64 {
        // Count the arrival before drawing the ticket: a concurrent
        // admit may then admit a ticket whose draw is still in flight
        // (it exists momentarily later), but the reverse order could
        // *strand* a ticket — admit clamping to a dispensed count that
        // does not yet include an already-drawn ticket would silently
        // drop the capacity meant for it.
        self.dispensed.fetch_add(1, Ordering::AcqRel);
        self.counter.next(thread_id)
    }

    /// Opens capacity for up to `n` more tickets; returns the new
    /// admission bound (every ticket below it may proceed).
    ///
    /// The bound is clamped to the number of tickets dispensed so far:
    /// releasing capacity into an empty waiting room admits nobody and
    /// banks nothing, and repeated over-releases cannot overflow the
    /// bound past tickets that were never handed out.
    pub fn admit(&self, n: u64) -> u64 {
        if mutation_enabled("ticket-unbounded") {
            // The pre-fix behavior, kept reachable only under the model
            // checker: an unclamped fetch_add pre-admits tickets that
            // were never dispensed and wraps on overflow (the unclamped
            // admit row of `tests/model.rs`).
            return self.now_serving.fetch_add(n, Ordering::AcqRel).wrapping_add(n);
        }
        let mut serving = self.now_serving.load(Ordering::Acquire);
        loop {
            let dispensed = self.dispensed.load(Ordering::Acquire);
            let target = serving.saturating_add(n).min(dispensed);
            if target <= serving {
                // Nothing (left) to admit; the bound is already at or
                // past every dispensed ticket.
                return serving;
            }
            match self.now_serving.compare_exchange(
                serving,
                target,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return target,
                // Lost a race with another releaser: recompute against
                // the advanced bound.
                Err(actual) => serving = actual,
            }
        }
    }

    /// Whether `ticket` has been admitted.
    #[must_use]
    pub fn is_admitted(&self, ticket: u64) -> bool {
        ticket < self.now_serving.load(Ordering::Acquire)
    }

    /// The current admission bound: tickets `0..now_serving` may proceed.
    #[must_use]
    pub fn now_serving(&self) -> u64 {
        self.now_serving.load(Ordering::Acquire)
    }

    /// Tickets dispensed so far (exact at quiescence; may briefly count
    /// an arrival whose draw is still in flight). The waiting-room depth
    /// is `dispensed - now_serving`.
    #[must_use]
    pub fn dispensed(&self) -> u64 {
        self.dispensed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counting_runtime::CentralCounter;

    fn gate() -> TicketGate {
        TicketGate::new(Arc::new(CentralCounter::new()))
    }

    #[test]
    fn tickets_are_dense_and_admitted_in_order() {
        let gate = gate();
        let tickets: Vec<u64> = (0..5).map(|i| gate.acquire(i)).collect();
        assert_eq!(tickets, (0..5).collect::<Vec<u64>>());
        assert_eq!(gate.now_serving(), 0);
        assert_eq!(gate.admit(2), 2);
        assert!(gate.is_admitted(0) && gate.is_admitted(1));
        assert!(!gate.is_admitted(2));
        assert_eq!(gate.admit(3), 5);
        assert!(tickets.iter().all(|&t| gate.is_admitted(t)));
    }

    #[test]
    fn concurrent_arrivals_get_unique_tickets() {
        let gate = gate();
        let tickets: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|tid| {
                    let gate = &gate;
                    scope.spawn(move || (0..100).map(|_| gate.acquire(tid)).collect::<Vec<u64>>())
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("no panic")).collect()
        });
        let mut sorted = tickets;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..800).collect::<Vec<u64>>(), "dense unique tickets");
        assert_eq!(gate.dispensed(), 800);
    }

    /// Regression: `admit` used to `fetch_add` with no bound, so capacity
    /// released into an empty (or shallow) waiting room pre-admitted
    /// tickets that were never dispensed.
    #[test]
    fn admit_never_exceeds_dispensed_tickets() {
        let gate = gate();
        assert_eq!(gate.admit(10), 0, "empty waiting room: nothing to admit");
        assert!(!gate.is_admitted(0), "ticket 0 does not exist yet");

        let t0 = gate.acquire(0);
        let t1 = gate.acquire(1);
        assert_eq!(gate.admit(10), 2, "clamped to the two dispensed tickets");
        assert!(gate.is_admitted(t0) && gate.is_admitted(t1));

        // The excess was discarded, not banked: a later arrival waits.
        let t2 = gate.acquire(0);
        assert!(!gate.is_admitted(t2), "over-release must not pre-admit future tickets");
        assert_eq!(gate.admit(1), 3);
        assert!(gate.is_admitted(t2));
    }

    /// Regression: repeated huge releases used to wrap `now_serving`,
    /// silently revoking admissions.
    #[test]
    fn admit_saturates_instead_of_wrapping() {
        let gate = gate();
        let t0 = gate.acquire(0);
        assert_eq!(gate.admit(u64::MAX), 1);
        assert!(gate.is_admitted(t0));
        assert_eq!(gate.admit(u64::MAX), 1, "second over-release is a no-op");
        assert!(gate.is_admitted(t0), "admission is monotone — never revoked by overflow");
        assert!(gate.now_serving() <= gate.dispensed());
    }

    /// The bound holds under concurrent arrivals and over-releases.
    #[test]
    fn concurrent_over_admission_keeps_the_bound() {
        let gate = gate();
        std::thread::scope(|scope| {
            for tid in 0..4 {
                let gate = &gate;
                scope.spawn(move || {
                    for _ in 0..200 {
                        let _ = gate.acquire(tid);
                    }
                });
            }
            let gate = &gate;
            scope.spawn(move || {
                for _ in 0..100 {
                    let bound = gate.admit(u64::MAX);
                    assert!(bound <= gate.dispensed(), "bound above dispensed count");
                }
            });
        });
        assert_eq!(gate.dispensed(), 800);
        assert!(gate.now_serving() <= 800);
        assert_eq!(gate.admit(u64::MAX), 800, "at quiescence everyone can be admitted");
    }
}

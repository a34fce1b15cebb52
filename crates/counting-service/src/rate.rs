//! Windowed rate limiting by token *counting*: admission decisions read
//! off a shared counter instead of a contended decrement hotspot.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use counting_runtime::SharedCounter;

use counting_runtime::sync::{in_model, model_yield, mutation_enabled, AtomicU64};

/// How many times an admission decision re-reads the window epoch while
/// a rollover is mid-install (or keeps losing races to one) before it
/// gives up and sheds the request. A rollover is two plain stores, so in
/// practice one retry suffices; the bound exists so a preempted opener
/// can only ever delay other requests, never block them.
const ROLLOVER_RETRIES: usize = 16;

/// A fixed-window rate limiter backed by a shared counter.
///
/// Classic token buckets serialize every request on one decremented
/// word. This limiter inverts the scheme to fit a counting network:
/// every request *takes a value* from the tenant's counter (the
/// contention-diffused operation), and admission compares that value
/// against the window's base watermark — request number `base + i` of a
/// window is admitted iff `i < limit`. On an exact-range dispenser the
/// first `limit` requests of each window pass and the rest are shed.
///
/// Windows are identified by an explicit caller-supplied index (e.g.
/// `now.as_secs() / window_len`), which keeps the type clock-free and
/// its tests deterministic. Indices must be non-decreasing per caller;
/// the limiter tracks the highest index seen. Indices must stay below
/// `u64::MAX / 2` (they are packed into a versioned epoch word).
///
/// # The admission guarantee
///
/// The window index and its base watermark are published together
/// through a seqlock-style epoch word (`2·w` while window `w`'s base is
/// readable, `2·w + 1` while the window's opener is installing it), so
/// every judged request compares its value against the base of *exactly*
/// the window it names. That closes both classic fixed-window races:
///
/// * **No double admission across a boundary.** A request naming an
///   already-closed window is always shed — it can never be judged
///   against a *newer* window's base and steal that window's budget
///   (which is how a burst straddling the boundary could previously
///   admit up to twice the limit across the two window indices).
/// * **At most `limit` per window index, always.** The window's opener
///   is admitted as request `0` (its own counter value *is* the base),
///   and every other admitted request holds a distinct counter value in
///   `base..base + limit` — `limit` admissions total, with the boundary
///   value `base + limit` shed (no off-by-one at exactly-the-limit).
///
/// Within a settled window the bound is exact: the first `limit` values
/// pass and the rest are shed. While a rollover is being installed,
/// racing requests re-read the epoch a bounded number of times (16)
/// and then fail *closed* — a stalled opener can
/// cause bounded under-admission, never over-admission.
///
/// ```
/// use std::sync::Arc;
/// use counting_runtime::CentralCounter;
/// use counting_service::RateLimiter;
///
/// let limiter = RateLimiter::new(Arc::new(CentralCounter::new()), 2);
/// assert!(limiter.try_acquire(0, 0));
/// assert!(limiter.try_acquire(0, 0));
/// assert!(!limiter.try_acquire(0, 0), "the window's budget is spent");
/// assert!(limiter.try_acquire(0, 1), "a new window refills it");
/// assert!(!limiter.try_acquire(0, 0), "a closed window admits nothing");
/// ```
pub struct RateLimiter {
    counter: Arc<dyn SharedCounter + Send + Sync>,
    limit: u64,
    /// The seqlock epoch: `2·w` while window `w` and its base are
    /// published and stable, `2·w + 1` while `w`'s opener is installing
    /// the base.
    epoch: AtomicU64,
    /// Counter watermark at the current window's start; meaningful only
    /// when the epoch is even.
    base: AtomicU64,
}

impl std::fmt::Debug for RateLimiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RateLimiter")
            .field("counter", &self.counter.describe())
            .field("limit", &self.limit)
            .field("epoch", &self.epoch)
            .field("base", &self.base)
            .finish()
    }
}

impl RateLimiter {
    /// Creates a limiter admitting `limit` requests per window.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero (a limiter that admits nothing needs no
    /// counter).
    #[must_use]
    pub fn new(counter: Arc<dyn SharedCounter + Send + Sync>, limit: u64) -> Self {
        assert!(limit > 0, "the per-window limit must be at least 1");
        Self { counter, limit, epoch: AtomicU64::new(0), base: AtomicU64::new(0) }
    }

    /// The per-window admission budget.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Counts this request against `window` and returns whether it is
    /// admitted. One shared-counter operation per call, admitted or not —
    /// shed traffic is counted too (that is what makes the decision
    /// lock-free). See the type docs for the admission guarantee.
    ///
    /// # Panics
    ///
    /// Panics if `window >= u64::MAX / 2` (indices are packed into the
    /// versioned epoch word).
    pub fn try_acquire(&self, thread_id: usize, window: u64) -> bool {
        assert!(window < u64::MAX / 2, "window indices are packed into the epoch word");
        let value = self.counter.next(thread_id);
        if mutation_enabled("rate-straddle") {
            return self.try_acquire_straddling(value, window);
        }
        for _ in 0..ROLLOVER_RETRIES {
            let epoch = self.epoch.load(Ordering::Acquire);
            let current = epoch / 2;
            if window < current {
                // The request's window has already closed. Shedding it
                // unconditionally is what prevents the straddling burst:
                // judged against the *newer* base it could be admitted
                // and consume the new window's budget under the old
                // window's name.
                return false;
            }
            if epoch & 1 == 0 {
                if window == current {
                    if let Some(base) = self.versioned_base(epoch) {
                        return value.wrapping_sub(base) < self.limit;
                    }
                } else if self
                    .epoch
                    .compare_exchange(epoch, 2 * window + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // This request opens the window: its own value is
                    // the new base, so it is admitted as request 0. The
                    // odd epoch keeps every judger out until the base
                    // store below is published with the even epoch.
                    self.base.store(value, Ordering::Release);
                    self.epoch.store(2 * window, Ordering::Release);
                    return true;
                }
            }
            // Rollover mid-install, a lost open race, or a torn read:
            // back off and re-read.
            if in_model() {
                model_yield();
            } else {
                std::hint::spin_loop();
            }
        }
        // A stalled opener pins the epoch odd; fail closed.
        false
    }

    /// The seqlock read side, and the **only** way the fast path may
    /// read `self.base`: the base is returned solely when the epoch was
    /// observed stable at `epoch` both before and after the read, so the
    /// caller judges against *exactly* the base of the window packed
    /// into `epoch` — never a torn epoch/base pair from a concurrent
    /// window roll. `None` means a roll intervened; the caller must
    /// re-read the epoch and re-decide (the new window may have closed
    /// the request's), not judge.
    fn versioned_base(&self, epoch: u64) -> Option<u64> {
        let base = self.base.load(Ordering::Acquire);
        if mutation_enabled("rate-torn-base") {
            // The unversioned read this helper exists to make
            // impossible, kept reachable only under the model checker:
            // skipping the recheck lets a request judge its (late) value
            // against a *successor* window's base and over-admit a
            // window that already closed (see
            // `model_scenarios::rate_torn_base_mutated`).
            return Some(base);
        }
        // Seqlock recheck: only judge if window and base were stable
        // across both reads — i.e. `base` is this window's base, not a
        // successor's.
        if self.epoch.load(Ordering::Acquire) == epoch {
            Some(base)
        } else {
            None
        }
    }

    /// The pre-fix admission algorithm, kept reachable only as the
    /// `rate-straddle` seeded mutation so the interleaving model suite
    /// can demonstrate the bug it had: a request naming an already-closed
    /// window was judged against the *current* base, so a burst
    /// straddling a boundary could admit up to twice the limit against
    /// one window index (see `model_scenarios::rate_straddle_mutated`).
    fn try_acquire_straddling(&self, value: u64, window: u64) -> bool {
        let mut current = self.epoch.load(Ordering::Acquire) / 2;
        while window > current {
            match self.epoch.compare_exchange_weak(
                2 * current,
                2 * window,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.base.fetch_max(value, Ordering::AcqRel);
                    return true;
                }
                Err(seen) => current = seen / 2,
            }
        }
        value.wrapping_sub(self.base.load(Ordering::Acquire)) < self.limit
    }

    /// The highest window index seen so far.
    #[must_use]
    pub fn current_window(&self) -> u64 {
        self.epoch.load(Ordering::Acquire) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counting_runtime::CentralCounter;

    fn limiter(limit: u64) -> RateLimiter {
        RateLimiter::new(Arc::new(CentralCounter::new()), limit)
    }

    #[test]
    fn admits_exactly_the_limit_per_settled_window() {
        let limiter = limiter(3);
        for window in 0..4u64 {
            let admitted = (0..10).filter(|_| limiter.try_acquire(0, window)).count();
            assert_eq!(admitted, 3, "window {window} admits exactly the limit");
        }
        assert_eq!(limiter.current_window(), 3);
    }

    #[test]
    fn skipped_windows_roll_over_cleanly() {
        let limiter = limiter(2);
        assert!(limiter.try_acquire(0, 0));
        // An idle gap (windows 1..=4 never seen) must not leak budget.
        let admitted = (0..5).filter(|_| limiter.try_acquire(0, 5)).count();
        assert_eq!(admitted, 2);
        assert_eq!(limiter.current_window(), 5);
    }

    #[test]
    fn the_boundary_value_is_shed() {
        // Window 0's base is 0, so values 0..limit are the admissible
        // set and value `limit` exactly must be shed — the off-by-one
        // this suite pins.
        let limiter = limiter(4);
        for i in 0..4 {
            assert!(limiter.try_acquire(0, 0), "value {i} is within the budget");
        }
        assert!(!limiter.try_acquire(0, 0), "value base+limit is outside the budget");
    }

    #[test]
    fn the_opener_spends_one_unit_of_its_windows_budget() {
        let limiter = limiter(1);
        assert!(limiter.try_acquire(0, 0));
        // The opener of window 1 is admitted as its request 0...
        assert!(limiter.try_acquire(0, 1));
        // ...and with limit 1 the window is then already spent.
        assert!(!limiter.try_acquire(0, 1));
    }

    #[test]
    fn closed_windows_shed_instead_of_stealing_new_budget() {
        let limiter = limiter(2);
        assert!(limiter.try_acquire(0, 0));
        assert!(limiter.try_acquire(0, 1), "window 1 opens");
        // This late window-0 request holds a counter value inside window
        // 1's admissible range; judging it against window 1's base (the
        // pre-fix behavior) would *admit* it — traffic counted against a
        // window that already closed. Post-fix it is shed. (Shed traffic
        // still draws a counter value, so it burns one unit of window
        // 1's value-indexed budget — as a shed, never an admission.)
        assert!(!limiter.try_acquire(0, 0), "a closed window admits nothing");
        assert!(
            !limiter.try_acquire(0, 1),
            "window 1's admissible values are spent (opener + the straggler's draw)"
        );
    }

    #[test]
    fn concurrent_requests_in_one_window_respect_the_limit() {
        let limiter = limiter(16);
        let admitted: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|tid| {
                    let limiter = &limiter;
                    scope.spawn(move || (0..25).filter(|_| limiter.try_acquire(tid, 0)).count())
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("no panic")).sum()
        });
        // No rollover races in a single window on an exact dispenser:
        // exactly the first `limit` counter values pass.
        assert_eq!(admitted, 16);
    }

    #[test]
    fn concurrent_rollovers_never_over_admit_any_window() {
        // 8 threads sweep windows 0..8 with traffic far above the limit;
        // whatever interleaving the OS provides, no window index may
        // admit more than `limit`.
        let limit = 4u64;
        let limiter = limiter(limit);
        let mut per_window = vec![0usize; 8];
        let counts: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|tid| {
                    let limiter = &limiter;
                    scope.spawn(move || {
                        let mut admitted = vec![0usize; 8];
                        for window in 0..8u64 {
                            for _ in 0..6 {
                                if limiter.try_acquire(tid, window) {
                                    admitted[window as usize] += 1;
                                }
                            }
                        }
                        admitted
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("no panic")).collect()
        });
        for counts in counts {
            for (window, n) in counts.into_iter().enumerate() {
                per_window[window] += n;
            }
        }
        for (window, admitted) in per_window.into_iter().enumerate() {
            assert!(
                admitted as u64 <= limit,
                "window {window} admitted {admitted} > limit {limit}"
            );
        }
    }

    /// Regression for the torn-read boundary race: stragglers hammer a
    /// window *while* openers roll it over, maximizing the chance that a
    /// judger's base read straddles an install. Every judgment must go
    /// through the versioned pair, so no window — open or freshly
    /// closed — may ever exceed its budget, and a straggler must never
    /// be admitted under a closed window's name.
    #[test]
    fn boundary_rolls_never_over_admit_under_torn_reads() {
        let limit = 2u64;
        let windows = 64u64;
        let limiter = limiter(limit);
        let per_window: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|tid| {
                    let limiter = &limiter;
                    scope.spawn(move || {
                        let mut admitted = vec![0u64; windows as usize];
                        for window in 0..windows {
                            // Lag half the threads one window behind the
                            // other half so every window sees judgments
                            // racing the *next* window's install.
                            let named = window.saturating_sub(tid as u64 & 1);
                            for _ in 0..4 {
                                if limiter.try_acquire(tid, named) {
                                    admitted[named as usize] += 1;
                                }
                            }
                        }
                        admitted
                    })
                })
                .collect();
            let mut totals = vec![0u64; windows as usize];
            for worker in workers {
                for (w, n) in worker.join().expect("no panic").into_iter().enumerate() {
                    totals[w] += n;
                }
            }
            totals
        });
        for (window, admitted) in per_window.into_iter().enumerate() {
            assert!(admitted <= limit, "window {window} admitted {admitted} > limit {limit}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_limit_rejected() {
        let _ = RateLimiter::new(Arc::new(CentralCounter::new()), 0);
    }
}

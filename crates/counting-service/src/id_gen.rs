//! Batched id allocation: per-thread generators leasing blocks from a
//! shared counter.

use std::sync::Arc;

use counting_runtime::SharedCounter;

/// Default number of ids leased per refill of an [`IdGenerator`].
pub const DEFAULT_LEASE: usize = 32;

/// A per-thread id allocator drawing **leases** from a shared counter.
///
/// Handing out one id per shared-counter operation puts every allocation
/// on the hot path; a lease amortizes it: one `next_batch` reserves
/// [`Self::lease_size`] ids, and the following `lease_size - 1` calls to
/// [`Self::next_id`] are pure local pops. This is the id-allocation shape
/// of real services (block-leasing sequence generators), and each
/// refill costs a *single* reservation on the shared counter.
///
/// A generator is an intentionally `!Sync` per-thread object (its lease
/// buffer needs `&mut`); every thread holds its own, all backed by the
/// same tenant counter, and global uniqueness follows from the counter's
/// contract. Ids inside one lease are handed out in ascending order.
///
/// Leased-but-unconsumed ids belong to this generator: dropping it
/// abandons them (they count as issued by the tenant and will never be
/// handed out again). Callers that need exact accounting drain the lease
/// with [`Self::take_lease`] first.
///
/// ```
/// use std::sync::Arc;
/// use counting_runtime::CentralCounter;
/// use counting_service::IdGenerator;
///
/// let counter = Arc::new(CentralCounter::new());
/// let mut gen = IdGenerator::new(counter, 0, 4);
/// let ids: Vec<u64> = (0..6).map(|_| gen.next_id()).collect();
/// assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
/// assert_eq!(gen.remaining(), 2, "the second lease is half consumed");
/// ```
pub struct IdGenerator {
    counter: Arc<dyn SharedCounter + Send + Sync>,
    thread_id: usize,
    lease_size: usize,
    /// Unconsumed lease ids, stored reversed so `pop` yields ascending
    /// order.
    lease: Vec<u64>,
}

impl std::fmt::Debug for IdGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdGenerator")
            .field("counter", &self.counter.describe())
            .field("thread_id", &self.thread_id)
            .field("lease_size", &self.lease_size)
            .field("remaining", &self.lease.len())
            .finish()
    }
}

impl IdGenerator {
    /// Creates a generator for `thread_id` leasing `lease_size` ids per
    /// refill from `counter`.
    ///
    /// # Panics
    ///
    /// Panics if `lease_size` is zero.
    #[must_use]
    pub fn new(
        counter: Arc<dyn SharedCounter + Send + Sync>,
        thread_id: usize,
        lease_size: usize,
    ) -> Self {
        assert!(lease_size > 0, "a lease needs at least one id");
        Self { counter, thread_id, lease_size, lease: Vec::with_capacity(lease_size) }
    }

    /// The number of ids each refill leases.
    #[must_use]
    pub fn lease_size(&self) -> usize {
        self.lease_size
    }

    /// Ids still available without touching the shared counter.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.lease.len()
    }

    /// Hands out the next id, refilling the lease from the shared counter
    /// when the local buffer is empty.
    pub fn next_id(&mut self) -> u64 {
        if let Some(id) = self.lease.pop() {
            return id;
        }
        self.counter.next_batch(self.thread_id, self.lease_size, &mut self.lease);
        self.lease.reverse();
        self.lease.pop().expect("a non-empty lease was just fetched")
    }

    /// Takes the unconsumed remainder of the current lease (ascending),
    /// leaving the generator empty. Exact-accounting callers use this at
    /// shutdown: consumed ids plus the drained remainder are precisely
    /// the ids this generator leased.
    pub fn take_lease(&mut self) -> Vec<u64> {
        let mut rest = std::mem::take(&mut self.lease);
        rest.reverse();
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counting_runtime::CentralCounter;

    fn generator(lease: usize) -> (Arc<CentralCounter>, IdGenerator) {
        let counter = Arc::new(CentralCounter::new());
        let handle: Arc<dyn SharedCounter + Send + Sync> = Arc::clone(&counter) as _;
        (counter, IdGenerator::new(handle, 0, lease))
    }

    #[test]
    fn ids_are_ascending_and_refills_are_batched() {
        let (counter, mut gen) = generator(8);
        let ids: Vec<u64> = (0..8).map(|_| gen.next_id()).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
        // Exactly one lease was drawn: the shared stream sits at 8.
        assert_eq!(counter.next(0), 8);
    }

    #[test]
    fn take_lease_accounts_for_every_leased_id() {
        let (_, mut gen) = generator(5);
        let consumed: Vec<u64> = (0..3).map(|_| gen.next_id()).collect();
        let rest = gen.take_lease();
        assert_eq!(consumed, vec![0, 1, 2]);
        assert_eq!(rest, vec![3, 4], "the drained remainder is ascending");
        assert_eq!(gen.remaining(), 0);
        // The next id starts a fresh lease.
        assert_eq!(gen.next_id(), 5);
    }

    #[test]
    fn per_thread_generators_never_collide() {
        let counter = Arc::new(CentralCounter::new());
        let all: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|tid| {
                    let handle: Arc<dyn SharedCounter + Send + Sync> = Arc::clone(&counter) as _;
                    scope.spawn(move || {
                        let mut gen = IdGenerator::new(handle, tid, 7);
                        let mut ids: Vec<u64> = (0..50).map(|_| gen.next_id()).collect();
                        ids.extend(gen.take_lease());
                        ids
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("no panic")).collect()
        });
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "no id handed out twice");
        // 4 threads × 50 consumed, rounded up to whole leases of 7 each:
        // every leased id is accounted for, so the union tiles exactly.
        assert_eq!(sorted.last().copied(), Some(sorted.len() as u64 - 1));
    }

    #[test]
    #[should_panic(expected = "at least one id")]
    fn zero_lease_rejected() {
        let counter: Arc<dyn SharedCounter + Send + Sync> = Arc::new(CentralCounter::new());
        let _ = IdGenerator::new(counter, 0, 0);
    }
}

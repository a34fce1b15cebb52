//! The sharded multi-tenant counter registry.
//!
//! [`CounterService`] owns *many named counters at once* — the shape of
//! real serving workloads (per-flow accounting, admission ticketing, id
//! allocation), where every tenant needs its own Fetch&Increment value
//! stream and tenants arrive, churn and disappear while traffic flows.
//!
//! # Design
//!
//! * **Sharded map** — tenants are hashed over a fixed array of
//!   [`parking_lot::RwLock`]-guarded shards, so the steady-state path
//!   (an existing tenant looked up by name) takes one read lock on one
//!   shard: readers of different tenants proceed in parallel, and even
//!   readers of the *same* shard share the lock. Writes (tenant creation
//!   and eviction) serialize only their own shard.
//! * **One slot, one hash, one name** — a shard maps each tenant's name
//!   to one *slot*: the live instance, if any, and the last evicted one's
//!   watermark. The name lives only in the slot's key, allocated when the
//!   tenant first appears; no counter carries it. A public call hashes
//!   the name once, with the service's keyed [`RandomState`]: that
//!   value's middle bits pick the shard, and the map, whose hasher passes
//!   the stored value through, probes with it. A fast unkeyed hash was
//!   deliberately not used: tenant names come from HTTP clients, who
//!   could then aim names at one shard and one bucket.
//! * **Recycled counters** — a sweep ([`CounterService::evict_idle`])
//!   empties each idle slot, writes the watermark in place and puts the
//!   retired counter on its shard's spare list, under the shard's write
//!   lock. A tenant coming back finds its dormant slot with one probe and
//!   refills it in place with a spare reset to the slot's watermark, so
//!   re-creation allocates nothing; it allocates only when the list is
//!   empty. Each sweep first frees the spares the last period did not
//!   reuse, so spares never outnumber one sweep's evictions. A lone
//!   [`CounterService::try_evict`] frees its counter.
//! * **One word per tenant** — a [`TenantCounter`] is its stream offset
//!   and one atomic word holding the next value of its stream: 16 bytes.
//!   A reservation of `k` values is one `fetch_add(k)` on the word, and
//!   its prior value is the block, so a reservation never retries and
//!   reads nothing else. The word is the only count kept, and a tenant's
//!   hand-out is exactly `base..word` at every quiescent point for *any*
//!   mix of batch sizes — what the per-tenant checks of the torture suite
//!   and the `reserve_race` model scenario gate on.
//! * **No network under a block** — a tenant hands out contiguous blocks
//!   of any size, and mixed sizes break the step property, so every
//!   block comes from one cursor: a `C(w, t)` in front of it could only
//!   pace the callers, never spread them. The paper's stall measure says
//!   pacing buys nothing (E5e in `tests/contention_model.rs`; its
//!   readings are in REPRODUCING.md). Nor does a tenant switch to an elimination arena
//!   under contention: `hot-tenant` ran faster on the bare word than on
//!   the arena over a cursor, and no workload ever reached the contention
//!   at which a model said the arena would pay (the readings are in
//!   CHANGES.md).
//! * **Uniqueness across eviction** — evicting an idle tenant records
//!   its high-water mark in its slot; a later
//!   [`CounterService::get_or_create`] for the same name resumes the
//!   stream at that offset (see [`TenantCounter`]), so a tenant's values
//!   stay unique across its whole service lifetime, not just one
//!   instance. Whichever allocation carries the new instance, it starts
//!   at the slot's mark: a recycled counter is reset, never continued.
//!   Eviction refuses in-use tenants ([`EvictOutcome::InUse`]): the
//!   registry only retires a counter it solely owns, observed under the
//!   shard's write lock, so no operation can be in flight and the
//!   recorded watermark is exact; and it reuses only a spare it still
//!   solely owns (`Arc::get_mut`), so no old handle sees a new stream. A
//!   tenant that never handed out a value leaves no slot behind.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

// The registry's control atomics and shard locks come through the
// model-checking seam (std/parking_lot pass-throughs unless the `model`
// feature routes them into counting-sim's interleaving explorer).
use counting_runtime::sync::{mutation_enabled, AtomicU64, RwLock};
use counting_runtime::{BlockReserve, SharedCounter};

use crate::{IdGenerator, TicketGate};

/// The construction policy of a [`CounterService`]: the registry's shard
/// count. Every tenant is built the same way, so nothing else is left to
/// choose.
///
/// ```
/// use counting_service::{CounterService, ServiceConfig, DEFAULT_SHARDS};
///
/// assert_eq!(ServiceConfig::default().shards, DEFAULT_SHARDS);
/// assert_eq!(CounterService::new(ServiceConfig { shards: 4 }).shard_count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of registry shards (default [`DEFAULT_SHARDS`]; must be
    /// `> 0`). More shards admit more parallel tenant *creations*;
    /// lookups of existing tenants share read locks either way.
    pub shards: usize,
}

/// Default number of registry shards in a [`ServiceConfig`].
pub const DEFAULT_SHARDS: usize = 16;

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { shards: DEFAULT_SHARDS }
    }
}

/// One tenant's counter: one atomic word behind a value-stream offset.
///
/// The offset (`base`) is the tenant's high-water mark from previous
/// instance lifetimes: a freshly created tenant starts at `0`, a tenant
/// re-created after an eviction resumes where the evicted instance
/// stopped, so the *tenant's* stream stays unique and gap-free across
/// instances even though each instance counts from zero.
///
/// Every reservation is one `fetch_add` on the word (see the [module
/// docs](self)), so an instance's values tile `base..base + issued` at
/// every quiescent point regardless of batch-size mix — which is exactly
/// what makes `base + issued` a resumable watermark.
pub struct TenantCounter {
    base: u64,
    /// The next value of the tenant's stream: `base` plus the values this
    /// instance handed out.
    word: AtomicU64,
}

impl std::fmt::Debug for TenantCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantCounter")
            .field("base", &self.base)
            .field("issued", &self.issued())
            .finish()
    }
}

impl TenantCounter {
    /// An instance whose stream resumes at `base`.
    fn new(base: u64) -> Self {
        Self { base, word: AtomicU64::new(base) }
    }

    /// The stream offset this instance resumed at (`0` for a tenant's
    /// first instance).
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Values handed out by **this instance**. Exact at quiescence; while
    /// operations are in flight it may briefly exceed the values already
    /// visible to callers.
    #[must_use]
    pub fn issued(&self) -> u64 {
        // ordering: a statistic for callers *except* on the eviction path,
        // where exactness comes not from this load's ordering but from
        // sole ownership: the Acquire fence in `retire` pairs with the last
        // handle's release drop, which happens-after its final reservation.
        self.word.load(Ordering::Relaxed) - self.base
    }

    /// The tenant's high-water mark, `base + issued`: the next instance's
    /// resume offset. Exact at quiescence (the eviction path guarantees
    /// quiescence by requiring sole ownership).
    #[must_use]
    pub fn watermark(&self) -> u64 {
        // ordering: as in `issued`.
        self.word.load(Ordering::Relaxed)
    }

    /// One block reservation, offset into the tenant's stream.
    fn reserve(&self, k: usize) -> u64 {
        if mutation_enabled("reserve-by-load-store") {
            // Seeded model mutation (never active outside an exploration):
            // two callers that load the same count before either stores
            // both draw the block that starts there.
            let prior = self.word.load(Ordering::Relaxed);
            self.word.store(prior + k as u64, Ordering::Relaxed);
            return prior;
        }
        // ordering: Relaxed. The RMW alone keeps blocks disjoint (each
        // caller's prior value is its own point in the word's modification
        // order), and it publishes nothing. Eviction's exactness comes from
        // `retire`'s Acquire fence, not from this RMW. The word starts at
        // `base`, so a reservation touches nothing else: loading `base`
        // first would fetch the contended line shared, then again to own it.
        self.word.fetch_add(k as u64, Ordering::Relaxed)
    }
}

impl SharedCounter for TenantCounter {
    fn next(&self, _thread_id: usize) -> u64 {
        self.reserve(1)
    }

    fn next_batch(&self, _thread_id: usize, k: usize, out: &mut Vec<u64>) {
        if k == 0 {
            return;
        }
        // Contiguous by construction: one block of k.
        let base = self.reserve(k);
        out.extend(base..base + k as u64);
    }

    fn describe(&self) -> String {
        format!("fetch_add word @ {}", self.base)
    }
}

impl BlockReserve for TenantCounter {
    fn reserve_block(&self, _thread_id: usize, k: usize) -> u64 {
        assert!(k > 0, "a block reservation needs at least one value");
        self.reserve(k)
    }

    fn reserved(&self) -> u64 {
        self.issued()
    }
}

/// The outcome of [`CounterService::try_evict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictOutcome {
    /// The tenant was idle and has been retired; its stream resumes at
    /// `watermark` on the next [`CounterService::get_or_create`].
    Evicted {
        /// The tenant's recorded high-water mark.
        watermark: u64,
    },
    /// The tenant still has live handles (traffic in flight); nothing was
    /// changed.
    InUse,
    /// No live counter exists under that name.
    Absent,
}

/// A tenant's entry in its shard: the live instance, if any, and the
/// watermark the last evicted instance recorded (`0` if none did).
#[derive(Debug)]
struct Slot {
    live: Option<Arc<TenantCounter>>,
    watermark: u64,
}

impl Slot {
    /// Retires the slot's solely-owned instance, records its watermark in
    /// place and returns the counter (a sweep keeps it as a spare). The
    /// caller removes a slot left at `0`: a tenant that never handed out a
    /// value leaves nothing.
    fn retire(&mut self) -> Arc<TenantCounter> {
        let counter = self.live.take().expect("only a live slot is retired");
        // Pairs with the release decrement of the last dropped handle: all
        // that handle's thread did (its final count update included) is
        // visible before we read the watermark.
        fence(Ordering::Acquire);
        self.watermark = counter.watermark();
        counter
    }
}

/// A slot's key: the tenant's name and its keyed hash, stored so the map
/// never hashes a name again; it compares like its [`Probe`] parts.
#[derive(Debug, PartialEq, Eq)]
struct Key {
    hash: u64,
    name: Box<str>,
}

/// What a shard map is probed with: a stored [`Key`], or a caller's
/// borrowed `(hash, name)`, which finds a slot without building a key.
/// Equality compares names, so a 64-bit collision stays two slots.
trait Probe {
    fn parts(&self) -> (u64, &str);
}

impl Probe for Key {
    fn parts(&self) -> (u64, &str) {
        (self.hash, &self.name)
    }
}

impl Probe for (u64, &str) {
    fn parts(&self) -> (u64, &str) {
        *self
    }
}

impl<'a> Borrow<dyn Probe + 'a> for Key {
    fn borrow(&self) -> &(dyn Probe + 'a) {
        self
    }
}

impl Hash for dyn Probe + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.parts().0);
    }
}

impl PartialEq for dyn Probe + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn Probe + '_ {}

// A key hashes exactly like its borrowed form.
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn Probe).hash(state);
    }
}

/// The shard maps' hasher: a key hashes as its one stored `u64`, which
/// this passes through, so a probe costs no second hash.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a shard key hashes as one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A shard's slots, found by name and hash.
type Slots = HashMap<Key, Slot, BuildHasherDefault<PassThrough>>;

/// One shard of the registry, only touched under its lock.
#[derive(Debug, Default)]
struct Shard {
    slots: Slots,
    /// Counters retired since the last sweep, for re-creations to refill.
    spare: Vec<Arc<TenantCounter>>,
}

/// A counter resuming at `base`: a spare reset in place, or a new
/// allocation when none is left. A sweep retires only counters nothing
/// else holds; `Arc::get_mut` proves it before the reset.
fn recycle(spare: &mut Vec<Arc<TenantCounter>>, base: u64) -> Arc<TenantCounter> {
    if let Some(mut counter) = spare.pop() {
        if let Some(reused) = Arc::get_mut(&mut counter) {
            *reused = TenantCounter::new(base);
            return counter;
        }
    }
    Arc::new(TenantCounter::new(base))
}

/// A sharded, concurrent registry of named counters — see the [module
/// docs](self) for the design.
///
/// ```
/// use counting_service::{CounterService, ServiceConfig};
/// use counting_runtime::SharedCounter;
///
/// let service = CounterService::new(ServiceConfig::default());
/// let flows = service.get_or_create("flows/10.0.0.7");
/// let tickets = service.get_or_create("checkout-queue");
/// assert_eq!(flows.next(0), 0);
/// assert_eq!(flows.next(1), 1);
/// assert_eq!(tickets.next(0), 0, "tenant streams are independent");
/// ```
#[derive(Debug)]
pub struct CounterService {
    /// Keyed per service: names come from clients (see the module docs).
    hasher: RandomState,
    shards: Box<[RwLock<Shard>]>,
}

impl CounterService {
    /// Creates an empty service.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.shards > 0, "the registry needs at least one shard");
        let shards = (0..config.shards).map(|_| RwLock::new(Shard::default())).collect();
        Self { hasher: RandomState::new(), shards }
    }

    /// The number of registry shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The names of all live tenants, in no particular order.
    #[must_use]
    pub fn tenants(&self) -> Vec<String> {
        let names = |s: &RwLock<Shard>| {
            let state = s.read();
            let live = state.slots.iter().filter(|(_, slot)| slot.live.is_some());
            live.map(|(key, _)| key.name.to_string()).collect()
        };
        self.shards.iter().flat_map::<Vec<String>, _>(names).collect()
    }

    /// The tenant's keyed hash, the one hash of a call, and its shard:
    /// bits 24..56 pick it, clear of the map's low bucket bits and top 7
    /// tag bits, so one shard's names still spread over its buckets.
    fn locate(&self, tenant: &str) -> (u64, &RwLock<Shard>) {
        let hash = self.hasher.hash_one(tenant);
        (hash, &self.shards[(hash >> 24) as u32 as usize % self.shards.len()])
    }

    /// Returns the tenant's live counter, if one exists — the pure read
    /// path: one shard read lock, no construction.
    #[must_use]
    pub fn get(&self, tenant: &str) -> Option<Arc<TenantCounter>> {
        let (hash, shard) = self.locate(tenant);
        shard.read().slots.get(&(hash, tenant) as &dyn Probe)?.live.clone()
    }

    /// Returns the tenant's counter, constructing it on first touch (or
    /// after an eviction, resuming at the recorded watermark).
    ///
    /// Concurrent callers racing on the same fresh tenant are serialized
    /// by the shard's write lock with a double-check, so exactly one
    /// counter is ever constructed per tenant lifetime — every caller
    /// gets a handle to the same instance.
    #[must_use]
    pub fn get_or_create(&self, tenant: &str) -> Arc<TenantCounter> {
        let (hash, shard) = self.locate(tenant);
        let probe = &(hash, tenant) as &dyn Probe;
        if let Some(Slot { live: Some(counter), .. }) = shard.read().slots.get(probe) {
            return Arc::clone(counter);
        }
        let mut state = shard.write();
        let Shard { slots, spare } = &mut *state;
        // Double-check: another creator may have won the race between our
        // read unlock and write lock. A tenant coming back refills its slot
        // in place; a new one adds a slot and allocates its name once.
        match slots.get_mut(probe) {
            Some(Slot { live: Some(counter), .. }) => Arc::clone(counter),
            Some(slot) => Arc::clone(slot.live.insert(recycle(spare, slot.watermark))),
            None => {
                let counter = recycle(spare, 0);
                let slot = Slot { live: Some(Arc::clone(&counter)), watermark: 0 };
                slots.insert(Key { hash, name: tenant.into() }, slot);
                counter
            }
        }
    }

    /// Retires `tenant` if — and only if — the registry is the sole owner
    /// of its counter.
    ///
    /// Sole ownership is observed under the shard's write lock, so no new
    /// handle can appear concurrently and no operation can be in flight:
    /// the recorded watermark is exact, and a later
    /// [`Self::get_or_create`] resumes the stream there. A tenant with
    /// outstanding handles is left untouched ([`EvictOutcome::InUse`]) —
    /// eviction can therefore *never* fork a tenant's value stream.
    pub fn try_evict(&self, tenant: &str) -> EvictOutcome {
        let (hash, shard) = self.locate(tenant);
        let probe = &(hash, tenant) as &dyn Probe;
        let mut state = shard.write();
        let Some(slot) = state.slots.get_mut(probe) else {
            return EvictOutcome::Absent;
        };
        let Some(counter) = &slot.live else {
            return EvictOutcome::Absent;
        };
        // Seeded model mutation (never active outside an exploration):
        // retire the tenant even with handles outstanding. An in-flight
        // reservation then escapes the watermark, the recreated instance
        // resumes too low, and the tenant's stream forks — the model
        // suite asserts the checker catches exactly this.
        let ignore_owners = mutation_enabled("evict-in-use");
        if !ignore_owners && Arc::strong_count(counter) > 1 {
            return EvictOutcome::InUse;
        }
        drop(slot.retire());
        let watermark = slot.watermark;
        if watermark == 0 {
            state.slots.remove(probe);
        }
        EvictOutcome::Evicted { watermark }
    }

    /// Sweeps every shard, retiring all tenants without outstanding
    /// handles (same ownership rule as [`Self::try_evict`]). Returns how
    /// many tenants were evicted — the churn loop of a serving process
    /// calls this periodically to bound the registry's footprint. The
    /// retired counters wait on their shard's spare list until the next
    /// sweep, for tenants coming back to reuse.
    pub fn evict_idle(&self) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut state = shard.write();
            let Shard { slots, spare } = &mut *state;
            // The spares the last period did not reuse go first, so spares
            // never outnumber one sweep's evictions.
            spare.clear();
            slots.retain(|_, slot| {
                if slot.live.as_ref().is_some_and(|counter| Arc::strong_count(counter) == 1) {
                    spare.push(slot.retire());
                    evicted += 1;
                }
                slot.live.is_some() || slot.watermark > 0
            });
        }
        evicted
    }

    /// The tenant's high-water mark: `base + issued` for a live tenant
    /// (exact at quiescence), the recorded watermark for an evicted one,
    /// `0` for a name never seen.
    #[must_use]
    pub fn watermark(&self, tenant: &str) -> u64 {
        let (hash, shard) = self.locate(tenant);
        let state = shard.read();
        state.slots.get(&(hash, tenant) as &dyn Probe).map_or(0, |slot| match &slot.live {
            Some(counter) => counter.watermark(),
            None => slot.watermark,
        })
    }

    /// Seeds the recorded watermark for `tenant`, as if an earlier
    /// instance had been evicted at that mark: the next
    /// [`Self::get_or_create`] resumes the stream there.
    ///
    /// This is the durable-restart seam used by `counting-cluster`: a
    /// node that crashes and comes back rebuilds a *fresh* registry and
    /// replays its persisted watermarks through this method, recovering
    /// each tenant's stream exactly the way eviction-resume recovers it
    /// within one process lifetime. Restoration is monotonic (the larger
    /// of the stored and offered marks wins), so replaying stale
    /// recovery records can never rewind a stream. Returns `false`
    /// without changing anything if the tenant is currently live — a
    /// live stream's watermark is owned by its counter, not the caller.
    pub fn restore_watermark(&self, tenant: &str, watermark: u64) -> bool {
        let (hash, shard) = self.locate(tenant);
        let mut state = shard.write();
        match state.slots.get_mut(&(hash, tenant) as &dyn Probe) {
            Some(Slot { live: Some(_), .. }) => return false,
            Some(slot) => slot.watermark = slot.watermark.max(watermark),
            None if watermark > 0 => {
                let slot = Slot { live: None, watermark };
                drop(state.slots.insert(Key { hash, name: tenant.into() }, slot));
            }
            None => {}
        }
        true
    }

    /// A per-thread [`IdGenerator`] leasing `lease_size` ids per refill
    /// from the tenant's counter (created on first touch). The generator
    /// holds a tenant handle, so the tenant stays live — and its leased
    /// ids accounted — until the generator is dropped.
    #[must_use]
    pub fn id_generator(&self, tenant: &str, thread_id: usize, lease_size: usize) -> IdGenerator {
        IdGenerator::new(self.get_or_create(tenant), thread_id, lease_size)
    }

    /// A [`TicketGate`] dispensing tickets from the tenant's counter
    /// (created on first touch). Admission state lives in the gate:
    /// callers that need one shared admission cursor share the gate (it
    /// is `Sync`), not merely the tenant.
    #[must_use]
    pub fn ticket_gate(&self, tenant: &str) -> TicketGate {
        TicketGate::new(self.get_or_create(tenant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn service() -> CounterService {
        CounterService::new(ServiceConfig::default())
    }

    #[test]
    fn a_compact_tenant_fits_one_cache_line() {
        // The offset and the word; the name lives in the shard's key.
        assert_eq!(std::mem::size_of::<TenantCounter>(), 16);
    }

    #[test]
    fn get_or_create_returns_the_same_instance() {
        let service = service();
        let a = service.get_or_create("alpha");
        let b = service.get_or_create("alpha");
        assert!(Arc::ptr_eq(&a, &b), "one counter per tenant");
        assert_eq!(service.tenants().len(), 1);
        assert!(service.get("alpha").is_some());
        assert!(service.get("beta").is_none());
    }

    #[test]
    fn tenant_streams_are_independent_and_exact_range() {
        let service = service();
        let a = service.get_or_create("a");
        let b = service.get_or_create("b");
        let mut a_values = Vec::new();
        let mut b_values = Vec::new();
        // Mixed batch sizes and an odd op count: block reservations tile
        // regardless.
        for (i, k) in [3usize, 1, 7, 2, 5].into_iter().enumerate() {
            a.next_batch(i, k, &mut a_values);
            b_values.push(b.next(i));
        }
        a_values.sort_unstable();
        assert_eq!(a_values, (0..18).collect::<Vec<u64>>());
        assert_eq!(b_values, (0..5).collect::<Vec<u64>>());
        assert_eq!(a.watermark(), 18);
        assert_eq!(service.watermark("b"), 5);
    }

    #[test]
    fn racing_get_or_create_yields_one_counter() {
        let service = service();
        let handles: Vec<Arc<TenantCounter>> = std::thread::scope(|scope| {
            let workers: Vec<_> =
                (0..8).map(|_| scope.spawn(|| service.get_or_create("contended"))).collect();
            workers.into_iter().map(|w| w.join().expect("no panic")).collect()
        });
        let first = &handles[0];
        assert!(handles.iter().all(|h| Arc::ptr_eq(first, h)), "all racers share one instance");
        assert_eq!(service.tenants().len(), 1);
    }

    #[test]
    fn eviction_requires_sole_ownership_and_resumes_the_stream() {
        let service = service();
        let counter = service.get_or_create("churny");
        assert_eq!(counter.next(0), 0);
        assert_eq!(counter.next(1), 1);
        assert_eq!(service.try_evict("churny"), EvictOutcome::InUse, "a handle is out");
        drop(counter);
        assert_eq!(service.try_evict("churny"), EvictOutcome::Evicted { watermark: 2 });
        assert_eq!(service.try_evict("churny"), EvictOutcome::Absent);
        assert_eq!(service.watermark("churny"), 2, "watermark survives the eviction");
        // Re-creation resumes in the same slot, so the tenant's stream
        // never repeats.
        let revived = service.get_or_create("churny");
        assert_eq!(revived.base(), 2);
        assert_eq!(revived.next(0), 2);
        assert_eq!(service.watermark("churny"), 3);
    }

    #[test]
    fn evict_idle_sweeps_only_idle_tenants() {
        let service = service();
        let held = service.get_or_create("held");
        let _ = held.next(0);
        for name in ["idle-1", "idle-2", "idle-3"] {
            let counter = service.get_or_create(name);
            let _ = counter.next(0);
        }
        assert_eq!(service.tenants().len(), 4);
        assert_eq!(service.evict_idle(), 3, "the held tenant survives");
        // The evicted slots stay for their watermarks, uncounted.
        assert_eq!(service.tenants(), vec!["held".to_owned()]);
        assert!(service.get("held").is_some());
        assert_eq!(service.watermark("idle-1"), 1);
        assert_eq!(held.next(0), 1, "the survivor keeps counting");
    }

    #[test]
    fn eviction_forgets_tenants_that_never_reserved() {
        let service = service();
        let recorded = || service.shards.iter().map(|s| s.read().slots.len()).sum::<usize>();
        for i in 0..10_000 {
            drop(service.get_or_create(&format!("probe/{i}")));
        }
        assert_eq!(service.try_evict("probe/0"), EvictOutcome::Evicted { watermark: 0 });
        assert!(service.restore_watermark("probe/0", 0));
        assert_eq!((service.evict_idle(), recorded()), (9_999, 0));
        // A tenant that did reserve resumes at its mark, and evicting it
        // again updates that one entry in place.
        for round in 0..2 {
            assert_eq!(service.get_or_create("used").next(0), round);
            assert_eq!((service.evict_idle(), recorded()), (1, 1));
        }
        assert_eq!(service.get_or_create("used").base(), 2);
    }

    /// Where the slot of `tenant` keeps its name.
    fn name_at(service: &CounterService, tenant: &str) -> *const u8 {
        let (hash, shard) = service.locate(tenant);
        let state = shard.read();
        let (key, _) = state.slots.get_key_value(&(hash, tenant) as &dyn Probe).expect("a slot");
        key.name.as_ptr()
    }

    /// The spares `service`'s only shard holds.
    fn spares(service: &CounterService) -> usize {
        service.shards[0].read().spare.len()
    }

    #[test]
    fn a_revived_tenant_keeps_the_name_its_slot_allocated() {
        let service = CounterService::new(ServiceConfig { shards: 1 });
        assert_eq!(service.get_or_create("churny").next(0), 0);
        let name = name_at(&service, "churny");
        assert_eq!(service.evict_idle(), 1);
        let revived = service.get_or_create("churny");
        assert_eq!(name_at(&service, "churny"), name, "the name was allocated again");
        assert_eq!(revived.next(0), 1);
    }

    #[test]
    fn a_retired_counter_carries_another_tenant_from_its_own_watermark() {
        let service = CounterService::new(ServiceConfig { shards: 1 });
        let old = service.get_or_create("old");
        assert_eq!(old.reserve_block(0, 5), 0);
        let retired = Arc::as_ptr(&old);
        drop(old);
        assert!(service.restore_watermark("new", 40));
        assert_eq!((service.evict_idle(), spares(&service)), (1, 1));
        // Takes the block a counter freed by the sweep would leave.
        let decoy = Arc::new(TenantCounter::new(0));
        let new = service.get_or_create("new");
        assert!(std::ptr::eq(Arc::as_ptr(&new), retired), "the spare was not reused");
        assert!(!std::ptr::eq(Arc::as_ptr(&decoy), retired));
        assert_eq!((new.base(), new.next(0), new.watermark()), (40, 40, 41));
        // The evicted tenant comes back in a new allocation, at its mark.
        let old = service.get_or_create("old");
        assert_eq!((old.base(), old.next(0), spares(&service)), (5, 5, 0));
        assert_eq!(service.watermark("new"), 41);
        // A sweep frees the spares the last period did not reuse.
        drop((old, new));
        assert_eq!((service.evict_idle(), spares(&service)), (2, 2));
        assert_eq!((service.evict_idle(), spares(&service)), (0, 0));
    }

    #[test]
    fn keys_with_one_hash_and_different_names_stay_distinct() {
        let mut shard = Slots::default();
        for (name, watermark) in [("a", 1), ("b", 2)] {
            shard.insert(Key { hash: 42, name: name.into() }, Slot { live: None, watermark });
        }
        let mark = |name: &str| shard.get(&(42u64, name) as &dyn Probe).map(|slot| slot.watermark);
        assert_eq!((shard.len(), mark("a"), mark("b"), mark("c")), (2, Some(1), Some(2), None));
    }

    #[test]
    fn names_spread_over_shards_buckets_and_tags() {
        // Every shard gets its share, and within one the map's low bucket
        // and top tag bits still take every value (4 bits of each shown).
        let service = service();
        let mut per_shard = [(0usize, 0u32, 0u32); DEFAULT_SHARDS];
        for rank in 0..8192 {
            let (hash, shard) = service.locate(&format!("churn/{rank}"));
            let index = service.shards.iter().position(|s| std::ptr::eq(s, shard));
            let (names, low, top) = &mut per_shard[index.expect("one of the shards")];
            *names += 1;
            *low |= 1 << (hash & 15);
            *top |= 1 << (hash >> 60);
        }
        for (names, low, top) in per_shard {
            assert!(names >= 256, "a shard got {names} of 8192 names");
            assert_eq!((low, top), (0xFFFF, 0xFFFF), "a shard's names share bucket or tag bits");
        }
    }

    /// `threads` threads reserving the benchmark's `hot-tenant` shape
    /// (blocks of 1..=4 values) from `tenant`, `ops` each, in lock step
    /// 256 operations at a time, spinning while they wait: threads the
    /// host started on one core would otherwise take turns and spend the
    /// budget without meeting. Asserts the blocks tile `0..n` and returns
    /// `n`. One call at a time: two calls running at once would
    /// share the cores, and their threads would take turns.
    fn dense_lock_step(tenant: &TenantCounter, threads: usize, ops: usize) -> u64 {
        static CORES: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _cores = CORES.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let progress: Vec<_> =
            (0..threads).map(|_| std::sync::atomic::AtomicUsize::new(0)).collect();
        let run = |tid: usize| {
            let mut blocks = Vec::with_capacity(ops);
            for op in 0..ops {
                if op % 256 == 0 {
                    progress[tid].store(op + 256, Ordering::Release);
                    while progress.iter().any(|p| p.load(Ordering::Acquire) <= op) {
                        std::hint::spin_loop();
                    }
                }
                let k = 1 + (op + tid) % 4;
                blocks.push((tenant.reserve_block(tid, k), k as u64));
            }
            blocks
        };
        let mut blocks: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let run = &run;
            let others: Vec<_> = (1..threads).map(|tid| scope.spawn(move || run(tid))).collect();
            let mut blocks = run(0);
            for other in others {
                blocks.extend(other.join().expect("no panic"));
            }
            blocks
        });
        blocks.sort_unstable();
        let mut next = 0;
        for (block, k) in blocks {
            assert_eq!(block, next, "the stream forked or gapped");
            next += k;
        }
        next
    }

    #[test]
    fn two_threads_draw_a_dense_stream_from_a_default_tenant() {
        // What `hot-tenant` runs: two threads, one default tenant, blocks
        // of 1..=4. The watermark is the word and nothing else, so it
        // equals the values observed.
        let service = service();
        let tenant = &*service.get_or_create("pair");
        let values = dense_lock_step(tenant, 2, 1 << 16);
        assert_eq!(tenant.describe(), "fetch_add word @ 0");
        assert_eq!(tenant.watermark(), values);
    }

    #[test]
    fn four_threads_draw_a_dense_stream_from_a_default_tenant() {
        let service = service();
        let tenant = &*service.get_or_create("quad");
        let values = dense_lock_step(tenant, 4, 1 << 14);
        assert_eq!(tenant.watermark(), values);
    }

    #[test]
    fn watermark_is_zero_for_unknown_tenants() {
        let service = service();
        assert_eq!(service.watermark("never-seen"), 0);
    }

    #[test]
    fn restore_watermark_resumes_like_an_eviction() {
        // A "restarted process": fresh registry, watermark replayed from
        // durable state instead of recorded by an eviction.
        let service = service();
        assert!(service.restore_watermark("stream", 7));
        assert_eq!(service.watermark("stream"), 7);
        let revived = service.get_or_create("stream");
        assert_eq!(revived.base(), 7);
        assert_eq!(revived.next(0), 7, "the stream resumes past the restart");

        // Monotonic on an evicted slot: a fresher record raises the mark,
        // a stale (lower) one cannot rewind it.
        drop(revived);
        assert_eq!(service.try_evict("stream"), EvictOutcome::Evicted { watermark: 8 });
        for (offered, kept) in [(3, 8), (12, 12), (0, 12)] {
            assert!(service.restore_watermark("stream", offered));
            assert_eq!(service.watermark("stream"), kept);
        }

        // A live tenant owns its own watermark — restoration refuses.
        let live = service.get_or_create("stream");
        assert!(!service.restore_watermark("stream", 100));
        assert_eq!(live.base(), 12);
    }

    #[test]
    fn tenants_lists_live_names() {
        let service = service();
        let _a = service.get_or_create("a");
        let _b = service.get_or_create("b");
        let names: HashSet<String> = service.tenants().into_iter().collect();
        assert_eq!(names, HashSet::from(["a".to_owned(), "b".to_owned()]));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = CounterService::new(ServiceConfig { shards: 0 });
    }
}

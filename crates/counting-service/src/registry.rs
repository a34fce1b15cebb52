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
//! * **One slot, one hash** — a shard maps each tenant's name to one
//!   *slot*: the live instance, if any, and the last evicted one's
//!   watermark. Eviction empties the slot and writes the watermark in
//!   place; re-creation fills it again and reuses its name. A public call
//!   hashes the name once, with the service's keyed [`RandomState`]: that
//!   value's middle bits pick the shard, and the map, whose hasher passes
//!   the stored value through, probes with it. A fast unkeyed hash was
//!   deliberately not used: tenant names come from HTTP clients, who
//!   could then aim names at one shard and one bucket.
//! * **Two-state tenants** — most tenants are cold, and a contended one
//!   needs a place where colliding requests can merge. A
//!   [`TenantCounter`] is born **compact**: one atomic word counting the
//!   values handed out, advanced by a CAS loop. Failed CASes are the
//!   contention signal: each weighs the values other threads handed out
//!   while it waited, summed per window of 1 024 values, and once a
//!   window's weight **proves** at least [`INFLATE_CONTENDERS`] (`n*`)
//!   contenders the tenant **inflates in place, once, under live
//!   handles** to the one inflated form: the default
//!   [`EliminationCounter`] arena over one padded cursor (a
//!   [`CentralCounter`]), built at inflation time. The proof: one
//!   thread's waits cover disjoint values, so `n` threads weigh a window
//!   at most `(n − 1) · 1 024` for any block sizes, and the threshold is
//!   one more than `n* − 1` threads can reach (see `INFLATE_THRESHOLD`).
//!   `n*` is E15's modelled crossover: on the 2-vcpu recording host two
//!   threads ran `hot-tenant` at ~20–22 M ops/s on the bare word and at
//!   12–15 M on the arena over a cursor (measured), and the cost model
//!   puts the crossover at 4 (derived, unverified above two threads). A
//!   tenant touched by fewer than `n*` threads never inflates, and
//!   eviction followed by re-creation is the only deflation. That `n*`
//!   or more threads do reach the threshold is unverified on any traffic:
//!   the 2-vcpu host runs two threads at once, and only the forced tests
//!   (threshold 1) drive the inflated form there.
//! * **No network under a block** — a tenant hands out contiguous blocks
//!   of any size, and mixed sizes break the step property, so every
//!   block comes from one cursor: a `C(w, t)` in front of it could only
//!   pace the callers, never spread them. The paper's stall measure says
//!   pacing buys nothing (E5e in `exp_contention`): stalls per token at
//!   n = 2/4/8/16/32/64 read 1.0/3.0/6.9/14.9/30.7/62.5 on a central
//!   balancer alone and 1.0/2.8/6.9/15.0/32.0/66.0 with `C(4,16)` in
//!   front. So the arena, which merges colliding requests before they
//!   reach the cursor, is the only relief a contended tenant gets.
//! * **One count per value** — an inflated instance keeps no count of its
//!   own: `issued` is the sealed word's `F` plus the backend's
//!   [`BlockReserve::reserved`], the cursor every reservation already
//!   advances.
//! * **A hand-off nobody waits for** — the thread whose failure reaches
//!   the threshold builds the arena and cursor, publishes them,
//!   and only *then* seals the word (top bit, by CAS): a racing increment
//!   lands below the seal or fails and sees it. A reserver that loads a
//!   sealed word `F` serves `base + F + backend.reserve_block(..)`, so the
//!   stream tiles `0..F` from the word and `F..` from the backend: each
//!   tenant's hand-out is exactly `0..issued` at every quiescent point
//!   for *any* mix of batch sizes — what the per-tenant checks of
//!   `exp_service`, the torture suite and the `inflate_handoff` model
//!   scenario gate on.
//! * **Uniqueness across eviction** — evicting an idle tenant records
//!   its high-water mark; a later [`CounterService::get_or_create`] for
//!   the same name resumes the stream at that offset (see
//!   [`TenantCounter`]), so a tenant's values stay unique across its
//!   whole service lifetime, not just one instance. Eviction refuses
//!   in-use tenants ([`EvictOutcome::InUse`]): the registry only retires
//!   a counter it solely owns, observed under the shard's write lock, so
//!   no operation can be in flight and the recorded watermark is exact.
//!   A tenant that never handed out a value leaves nothing behind.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{fence, Ordering};
use std::sync::{Arc, OnceLock};

// The registry's control atomics and shard locks come through the
// model-checking seam (std/parking_lot pass-throughs unless the `model`
// feature routes them into counting-sim's interleaving explorer).
use counting_runtime::sync::{mutation_enabled, AtomicU64, RwLock};
use counting_runtime::{BlockReserve, CentralCounter, EliminationCounter, SharedCounter};

use crate::{IdGenerator, RateLimiter, TicketGate};

/// Top bit of a tenant's word: set once, after the backend is published;
/// the low bits then stay at `F`, the count the word handed out.
const SEALED: u64 = 1 << 63;
/// The contention crossover `n*`: a compact tenant inflates only once its
/// CAS failures prove that at least this many threads contend for its
/// word. E15 (`exp_service`) derives it from a cost model of the word and
/// of the arena over a cursor (per-visit costs measured on one thread,
/// the stall curve of one shared location, the arena's combining factor,
/// one stall cost fitted at n = 2) and fails when its derivation
/// disagrees with this constant. Two is ruled out by measurement: on the
/// 2-vcpu recording host two threads ran `hot-tenant` at ~20–22 M ops/s on
/// the bare word and at 12–15 M on the arena over a cursor. Four is the
/// model's, unverified above two threads, and it rests on the arena
/// model's patience: with 4 rounds (and with 16) the model's arena first
/// merges at four, with 2, 3, 5 or 8 rounds the model derives 3.
pub const INFLATE_CONTENDERS: usize = 4;

/// A tenant's contention is measured per window of `2^SIGNAL_WINDOW_BITS`
/// values: each window starts its count afresh.
const SIGNAL_WINDOW_BITS: u32 = 10;

/// The contention count's low bits hold the weight; the bits above hold
/// the window it belongs to (its index modulo `2^44`).
const WEIGHT_BITS: u32 = 20;
const WEIGHT_MASK: u64 = (1 << WEIGHT_BITS) - 1;

/// The contention weight of one window that inflates a tenant:
/// `(n* − 2) · 2^10 + 1`, one more than `n* − 1` threads can produce.
///
/// CORRECTNESS: a failed CAS that loaded the word at `a` and found it at
/// `b` adds the values `max(a, start of b's window)..b` to `b`'s window:
/// values other threads handed out while this one waited, for the thread
/// had no success in between. Its next attempt starts at `b`, so one
/// thread's failures cover disjoint values and add at most the window's
/// values that others handed out. With `n` contenders a window holding
/// `V ≤ 2^10` values therefore weighs at most `(n − 1) · V`, whatever the
/// block sizes, and a weight above `(n* − 2) · 2^10` proves `n*`
/// contenders: no slack is needed. A failure of an older window (a
/// thread that stalled) restarts the count rather than adding to it, so
/// no window's weight is carried into the next. The argument uses only
/// the word's modification order and each thread's program order, so it
/// holds for the `Relaxed` count on any hardware; the window index wraps
/// after `2^54` values, which no tenant reaches.
const INFLATE_THRESHOLD: u64 = ((INFLATE_CONTENDERS as u64 - 2) << SIGNAL_WINDOW_BITS) + 1;

/// What a contended tenant inflates to: the default elimination arena
/// over one padded cursor.
type Inflated = EliminationCounter<CentralCounter>;

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

/// What a tenant needs to inflate itself, shared by every tenant of one
/// service (a handle may outlive the service that issued it).
#[derive(Debug)]
struct Blueprint {
    /// Contention weight that inflates a tenant.
    threshold: u64,
    /// Tenants inflated so far (a statistic: `std`, not the model shim).
    inflations: std::sync::atomic::AtomicU64,
}

/// One tenant's counter: a single CAS word until it is contended, the
/// elimination arena over one cursor afterwards, behind a value-stream
/// offset.
///
/// The offset (`base`) is the tenant's high-water mark from previous
/// instance lifetimes: a freshly created tenant starts at `0`, a tenant
/// re-created after an eviction resumes where the evicted instance
/// stopped, so the *tenant's* stream stays unique and gap-free across
/// instances even though each instance counts from zero.
///
/// Every instance starts **compact** and may **inflate** once (see the
/// [module docs](self)); either way its raw values tile `0..issued` at
/// every quiescent point regardless of batch-size mix — which is exactly
/// what makes `base + issued` a resumable watermark.
pub struct TenantCounter {
    tenant: Arc<str>,
    base: u64,
    /// Values handed out by the word, plus [`SEALED`] once inflated.
    word: AtomicU64,
    /// The contention weight of the latest window a failed CAS saw, below
    /// `WEIGHT_BITS`, and that window above.
    contention: AtomicU64,
    blueprint: Arc<Blueprint>,
    /// The backend, published before the word is sealed: whoever sees the
    /// seal finds it. A thin `Box`, so the compact tenant is one cache line.
    inflated: OnceLock<Box<Inflated>>,
}

impl std::fmt::Debug for TenantCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantCounter")
            .field("tenant", &self.tenant)
            .field("state", &self.state_label())
            .field("base", &self.base)
            .field("issued", &self.issued())
            .finish()
    }
}

impl TenantCounter {
    /// The tenant's name.
    #[must_use]
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The stream offset this instance resumed at (`0` for a tenant's
    /// first instance).
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Whether this instance has inflated to the arena over its cursor.
    #[must_use]
    pub fn is_inflated(&self) -> bool {
        self.word.load(Ordering::Acquire) & SEALED != 0
    }

    /// The backend; only for callers that saw the word sealed.
    fn backend(&self) -> &Inflated {
        self.inflated.get().expect("the backend is published before the word is sealed")
    }

    fn state_label(&self) -> String {
        self.inflated.get().map_or_else(|| "compact".to_owned(), |backend| backend.describe())
    }

    /// Values handed out by **this instance**. Exact at quiescence; while
    /// operations are in flight it may briefly exceed the values already
    /// visible to callers.
    #[must_use]
    pub fn issued(&self) -> u64 {
        // ordering: a statistic for callers *except* on the eviction path,
        // where exactness comes not from these loads' ordering (the
        // backend's count is a Relaxed load of its cursor) but from sole
        // ownership: the Acquire fence in `retire` pairs with the last
        // handle's release drop, which happens-after its final reservation.
        let word = self.word.load(Ordering::Acquire);
        if word & SEALED == 0 {
            return word;
        }
        (word & !SEALED) + self.backend().reserved()
    }

    /// The tenant's high-water mark, `base + issued`: the next instance's
    /// resume offset. Exact at quiescence (the eviction path guarantees
    /// quiescence by requiring sole ownership).
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.base + self.issued()
    }

    /// One block reservation, offset into the tenant's stream.
    fn reserve(&self, thread_id: usize, k: usize) -> u64 {
        // ordering: the Acquire loads of the word pair with the Release
        // seal in `inflate`: whoever sees the seal sees the backend
        // published before it.
        let mut word = self.word.load(Ordering::Acquire);
        loop {
            if word & SEALED != 0 {
                // The backend's cursor is the only count kept (see `issued`).
                let raw = self.backend().reserve_block(thread_id, k);
                return self.base + (word & !SEALED) + raw;
            }
            // A strong CAS: a failure means another thread moved the word.
            // Acquire on failure, like the load above: the word it returns
            // may carry the seal.
            match self.word.compare_exchange(
                word,
                word + k as u64,
                Ordering::Relaxed,
                Ordering::Acquire,
            ) {
                Ok(_) => return self.base + word,
                Err(actual) => {
                    self.note_contention(word, actual);
                    word = actual;
                }
            }
        }
    }

    /// Weighs a CAS that loaded the word at `loaded` and failed on
    /// `actual` (see `INFLATE_THRESHOLD`); the failure that brings its
    /// window's weight to the threshold inflates the tenant. Relaxed: the
    /// count elects, it publishes nothing.
    #[cold]
    fn note_contention(&self, loaded: u64, actual: u64) {
        if actual & SEALED != 0 {
            return;
        }
        let window = actual >> SIGNAL_WINDOW_BITS;
        let weight = actual - loaded.max(window << SIGNAL_WINDOW_BITS);
        let tag = window << WEIGHT_BITS;
        let mut seen = self.contention.load(Ordering::Relaxed);
        let before = loop {
            // Another window's count, newer or older, restarts at ours.
            let before = if (seen ^ tag) >> WEIGHT_BITS == 0 { seen & WEIGHT_MASK } else { 0 };
            let after = (before + weight).min(WEIGHT_MASK);
            match self.contention.compare_exchange(
                seen,
                tag | after,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break before,
                Err(now) => seen = now,
            }
        };
        let threshold = self.blueprint.threshold;
        if before < threshold && before + weight >= threshold {
            self.inflate();
        }
    }

    /// Switches the tenant to the arena over its cursor while other handles
    /// keep reserving: build, publish, *then* seal. Until the seal lands
    /// everyone is still served by the word, so nobody waits for the build.
    fn inflate(&self) {
        let backend = Box::new(EliminationCounter::new(CentralCounter::new()));
        // A newer window can restart the count and reach the threshold
        // again before the seal lands: the first backend published stands.
        if self.inflated.set(backend).is_err() {
            return;
        }
        self.blueprint.inflations.fetch_add(1, Ordering::Relaxed);
        let mut word = self.word.load(Ordering::Relaxed);
        if mutation_enabled("seal-by-store") {
            // Seeded model mutation (never active outside an exploration):
            // an increment landing between that load and this store is
            // overwritten, and the backend hands its values out again.
            return self.word.store(word | SEALED, Ordering::Release);
        }
        // ordering: Release after the `set` — publish-before-seal. An RMW,
        // so a racing increment lands below the seal or fails and sees it.
        while let Err(seen) =
            self.word.compare_exchange(word, word | SEALED, Ordering::Release, Ordering::Relaxed)
        {
            word = seen;
        }
    }
}

impl SharedCounter for TenantCounter {
    fn next(&self, thread_id: usize) -> u64 {
        self.reserve(thread_id, 1)
    }

    fn next_batch(&self, thread_id: usize, k: usize, out: &mut Vec<u64>) {
        if k == 0 {
            return;
        }
        // Contiguous by construction: one block of k.
        let base = self.reserve(thread_id, k);
        out.extend(base..base + k as u64);
    }

    fn describe(&self) -> String {
        format!("{} [tenant {} @ {}]", self.state_label(), self.tenant, self.base)
    }
}

impl BlockReserve for TenantCounter {
    fn reserve_block(&self, thread_id: usize, k: usize) -> u64 {
        assert!(k > 0, "a block reservation needs at least one value");
        self.reserve(thread_id, k)
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
    /// Retires the slot's solely-owned instance and records its watermark
    /// in place (churn allocates nothing). The caller removes a slot left
    /// at `0`: a tenant that never handed out a value leaves nothing.
    fn retire(&mut self) -> u64 {
        let counter = self.live.take().expect("only a live slot is retired");
        // Pairs with the release decrement of the last dropped handle: all
        // that handle's thread did (its final count update included) is
        // visible before we read the watermark.
        fence(Ordering::Acquire);
        self.watermark = counter.watermark();
        self.watermark
    }
}

/// A slot's key: the tenant's name and its keyed hash, stored so the map
/// never hashes a name again; it compares like its [`Probe`] parts.
#[derive(Debug, PartialEq, Eq)]
struct Key {
    hash: u64,
    name: Arc<str>,
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

/// One shard of the registry, only touched under its lock.
type Shard = HashMap<Key, Slot, BuildHasherDefault<PassThrough>>;

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
    blueprint: Arc<Blueprint>,
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
        Self::with_inflate_threshold(config, INFLATE_THRESHOLD)
    }

    /// [`Self::new`] with tenants inflating once a window's contention
    /// weight reaches `threshold`. Crate-private: the model scenarios and
    /// unit tests pass `1`, so the first collision inflates — the only way
    /// fewer than `n*` threads reach the inflated path.
    pub(crate) fn with_inflate_threshold(config: ServiceConfig, threshold: u64) -> Self {
        assert!(config.shards > 0, "the registry needs at least one shard");
        let shards = (0..config.shards).map(|_| RwLock::new(Shard::default())).collect();
        let inflations = std::sync::atomic::AtomicU64::new(0);
        let blueprint = Arc::new(Blueprint { threshold, inflations });
        Self { blueprint, hasher: RandomState::new(), shards }
    }

    /// How many tenant instances have inflated since the service started
    /// (a tenant evicted and re-created can inflate again).
    #[must_use]
    pub fn inflations(&self) -> u64 {
        // Relaxed: a monotone statistic, never a control input.
        self.blueprint.inflations.load(Ordering::Relaxed)
    }

    /// The number of registry shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The number of live (non-evicted) tenants.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().values().filter(|t| t.live.is_some()).count()).sum()
    }

    /// The names of all live tenants, in no particular order.
    #[must_use]
    pub fn tenants(&self) -> Vec<String> {
        let names = |s: &RwLock<Shard>| {
            let state = s.read();
            let live = state.iter().filter(|(_, slot)| slot.live.is_some());
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
        shard.read().get(&(hash, tenant) as &dyn Probe)?.live.clone()
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
        if let Some(Slot { live: Some(counter), .. }) = shard.read().get(probe) {
            return Arc::clone(counter);
        }
        let mut state = shard.write();
        // Double-check: another creator may have won the race between our
        // read unlock and write lock. A tenant coming back reuses the name
        // its slot holds; a new one allocates it once.
        let (name, base) = match state.get_key_value(probe) {
            Some((_, Slot { live: Some(counter), .. })) => return Arc::clone(counter),
            Some((key, slot)) => (Arc::clone(&key.name), slot.watermark),
            None => (Arc::from(tenant), 0),
        };
        let counter = Arc::new(TenantCounter {
            tenant: Arc::clone(&name),
            base,
            word: AtomicU64::new(0),
            contention: AtomicU64::new(0),
            blueprint: Arc::clone(&self.blueprint),
            inflated: OnceLock::new(),
        });
        // Fills the existing slot in place (its key stays), or adds one.
        let slot = Slot { live: Some(Arc::clone(&counter)), watermark: base };
        state.insert(Key { hash, name }, slot);
        counter
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
        let Some(slot) = state.get_mut(probe) else {
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
        let watermark = slot.retire();
        if watermark == 0 {
            state.remove(probe);
        }
        EvictOutcome::Evicted { watermark }
    }

    /// Sweeps every shard, retiring all tenants without outstanding
    /// handles (same ownership rule as [`Self::try_evict`]). Returns how
    /// many tenants were evicted — the churn loop of a serving process
    /// calls this periodically to bound the registry's footprint.
    pub fn evict_idle(&self) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            shard.write().retain(|_, slot| {
                if slot.live.as_ref().is_some_and(|counter| Arc::strong_count(counter) == 1) {
                    slot.retire();
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
        state.get(&(hash, tenant) as &dyn Probe).map_or(0, |slot| match &slot.live {
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
        match state.get_mut(&(hash, tenant) as &dyn Probe) {
            Some(Slot { live: Some(_), .. }) => return false,
            Some(slot) => slot.watermark = slot.watermark.max(watermark),
            None if watermark > 0 => {
                let slot = Slot { live: None, watermark };
                drop(state.insert(Key { hash, name: Arc::from(tenant) }, slot));
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

    /// A [`RateLimiter`] admitting `limit` requests per window, counted
    /// on the tenant's counter (created on first touch). Like the gate,
    /// the window state lives in the limiter — share it.
    #[must_use]
    pub fn rate_limiter(&self, tenant: &str, limit: u64) -> RateLimiter {
        RateLimiter::new(self.get_or_create(tenant), limit)
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
        // The inflated form is a concrete type behind a thin `Box`; a fat
        // `Box<dyn BlockReserve>` in the `OnceLock` would make this 72.
        assert_eq!(std::mem::size_of::<TenantCounter>(), 64);
    }

    #[test]
    fn get_or_create_returns_the_same_instance() {
        let service = service();
        let a = service.get_or_create("alpha");
        let b = service.get_or_create("alpha");
        assert!(Arc::ptr_eq(&a, &b), "one counter per tenant");
        assert_eq!(service.tenant_count(), 1);
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
    fn a_tenant_inflates_in_place_and_eviction_deflates_it() {
        // Threshold 1: one collision inflates, so one thread can drive a
        // tenant through its whole life.
        let service = CounterService::with_inflate_threshold(ServiceConfig::default(), 1);
        let counter = service.get_or_create("t");
        let mut values: Vec<u64> = (0..3).map(|i| counter.next(i)).collect();
        assert_eq!(counter.describe(), "compact [tenant t @ 0]");
        counter.note_contention(2, 3);
        assert_eq!((counter.is_inflated(), service.inflations()), (true, 1));
        let inflated = "central fetch_add + elim[4] [tenant t @ 0]";
        assert_eq!(counter.describe(), inflated);
        values.extend((3..6).map(|i| counter.next(i)));
        counter.next_batch(0, 3, &mut values);
        values.sort_unstable();
        assert_eq!(values, (0..9).collect::<Vec<u64>>());
        // Eviction and re-creation is the only deflation.
        drop(counter);
        assert_eq!(service.evict_idle(), 1);
        let revived = service.get_or_create("t");
        assert_eq!((revived.is_inflated(), revived.base(), revived.next(0)), (false, 9, 9));
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
        assert_eq!(service.tenant_count(), 1);
    }

    #[test]
    fn eviction_requires_sole_ownership_and_resumes_the_stream() {
        let service = service();
        let counter = service.get_or_create("churny");
        assert_eq!(counter.next(0), 0);
        assert_eq!(counter.next(1), 1);
        assert_eq!(service.try_evict("churny"), EvictOutcome::InUse, "a handle is out");
        let name = Arc::clone(&counter.tenant);
        drop(counter);
        assert_eq!(service.try_evict("churny"), EvictOutcome::Evicted { watermark: 2 });
        assert_eq!(service.try_evict("churny"), EvictOutcome::Absent);
        assert_eq!(service.watermark("churny"), 2, "watermark survives the eviction");
        // Re-creation resumes in the same slot, so the tenant's stream
        // never repeats and its name is not allocated again.
        let revived = service.get_or_create("churny");
        assert!(Arc::ptr_eq(&name, &revived.tenant));
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
        assert_eq!(service.tenant_count(), 4);
        assert_eq!(service.evict_idle(), 3, "the held tenant survives");
        // The evicted slots stay for their watermarks, uncounted.
        assert_eq!((service.tenant_count(), service.tenants()), (1, vec!["held".to_owned()]));
        assert!(service.get("held").is_some());
        assert_eq!(service.watermark("idle-1"), 1);
        assert_eq!(held.next(0), 1, "the survivor keeps counting");
    }

    #[test]
    fn eviction_forgets_tenants_that_never_reserved() {
        let service = service();
        let recorded = || service.shards.iter().map(|s| s.read().len()).sum::<usize>();
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

    #[test]
    fn keys_with_one_hash_and_different_names_stay_distinct() {
        let mut shard = Shard::default();
        for (name, watermark) in [("a", 1), ("b", 2)] {
            shard.insert(Key { hash: 42, name: Arc::from(name) }, Slot { live: None, watermark });
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

    #[test]
    fn one_thread_never_inflates_a_tenant() {
        let service = CounterService::new(ServiceConfig::default());
        let tenant = service.get_or_create("solo");
        let mut expected = 0;
        for op in 0..1_000_000usize {
            assert_eq!(tenant.reserve_block(op % 3, 1 + op % 7), expected);
            expected += 1 + op as u64 % 7;
        }
        assert_eq!((tenant.is_inflated(), service.inflations()), (false, 0));
    }

    /// Whether the host can run two threads at once; one core serializes
    /// them, and there is no contention to see.
    fn parallel_host() -> bool {
        std::thread::available_parallelism().map_or(1, |cores| cores.get()) >= 2
    }

    /// `threads` threads reserving the benchmark's `hot-tenant` shape
    /// (blocks of 1..=4 values) from `tenant`, `ops` each, in lock step
    /// 256 operations at a time, spinning while they wait: threads the
    /// host started on one core would otherwise take turns and spend the
    /// budget without meeting. Asserts the blocks tile `start..n` and
    /// returns `n`. One call at a time: two calls running at once would
    /// share the cores, and their threads would take turns.
    fn dense_lock_step(tenant: &TenantCounter, threads: usize, ops: usize, start: u64) -> u64 {
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
        let mut next = start;
        for (block, k) in blocks {
            assert_eq!(block, next, "the stream forked or gapped");
            next += k;
        }
        next
    }

    /// [`dense_lock_step`] rounds until the tenant inflates, 64 at most:
    /// on a busy host lock-step threads do not always collide in one.
    fn inflate_in_lock_step(tenant: &TenantCounter, threads: usize, ops: usize) -> u64 {
        let mut next = 0;
        for _ in 0..64 {
            next = dense_lock_step(tenant, threads, ops, next);
            if tenant.is_inflated() {
                break;
            }
        }
        next
    }

    #[test]
    fn two_threads_inflate_a_tenant_and_the_stream_stays_dense() {
        if !parallel_host() {
            return;
        }
        // Forced: the first counted collision inflates (two threads never
        // reach the default threshold).
        let service = CounterService::with_inflate_threshold(ServiceConfig::default(), 1);
        let tenant = &*service.get_or_create("pair");
        let values = inflate_in_lock_step(tenant, 2, 1 << 16);
        // The inflated path under the benchmark's `hot-tenant` shape and
        // its oracle: the tenant inflated, once, to the arena over one
        // cursor ...
        assert!(tenant.is_inflated(), "64 rounds of 2^16 contended ops did not inflate it");
        assert_eq!(tenant.describe(), "central fetch_add + elim[4] [tenant pair @ 0]");
        // ... and the watermark, which past the seal is the backend's
        // cursor and nothing else, equals the values observed: every
        // later reservation went through arena and cursor.
        assert_eq!((tenant.watermark(), service.inflations()), (values, 1));
    }

    #[test]
    fn four_threads_inflate_a_forced_tenant_and_the_stream_stays_dense() {
        if !parallel_host() {
            return;
        }
        let service = CounterService::with_inflate_threshold(ServiceConfig::default(), 1);
        let tenant = &*service.get_or_create("quad");
        let values = inflate_in_lock_step(tenant, 4, 1 << 12);
        assert!(tenant.is_inflated(), "64 rounds of 2^12 contended ops did not inflate it");
        assert_eq!((tenant.watermark(), service.inflations()), (values, 1));
    }

    #[test]
    fn two_threads_never_inflate_a_default_tenant() {
        // What `hot-tenant` runs: two threads keep the word, which beats
        // the arena over a cursor at n = 2.
        if !parallel_host() {
            return;
        }
        let service = CounterService::new(ServiceConfig::default());
        let tenant = &*service.get_or_create("pair");
        let values = dense_lock_step(tenant, 2, 1 << 20, 0);
        assert_eq!((tenant.is_inflated(), service.inflations()), (false, 0));
        assert_eq!(tenant.describe(), "compact [tenant pair @ 0]");
        assert_eq!(tenant.watermark(), values);
    }

    #[test]
    fn the_threshold_exceeds_what_two_threads_can_weigh() {
        // Two threads weigh a window at most 2^10: each waits only while
        // the other hands values out.
        let window = 1u64 << SIGNAL_WINDOW_BITS;
        let (contenders, threshold) = (INFLATE_CONTENDERS as u64, INFLATE_THRESHOLD);
        assert!(contenders >= 3 && threshold > window);
        let service = service();
        let tenant = service.get_or_create("t");
        let weight = || tenant.contention.load(Ordering::Relaxed) & WEIGHT_MASK;
        // A failure weighs the values handed out in its window while it
        // waited ...
        tenant.note_contention(3, 10);
        tenant.note_contention(10, 12);
        assert_eq!(weight(), 9);
        // ... a newer window restarts the count with the part of the wait
        // inside it, and so does a failure of an older window.
        tenant.note_contention(window - 4, window + 6);
        assert_eq!(weight(), 6);
        tenant.note_contention(0, 5);
        assert_eq!(weight(), 5);
        // More than (n* − 2) windows' worth of waiting proves n*.
        for _ in 0..contenders - 2 {
            tenant.note_contention(2 * window, 3 * window - 1);
        }
        assert!(!tenant.is_inflated());
        tenant.note_contention(2 * window, 2 * window + contenders - 1);
        assert_eq!((weight(), tenant.is_inflated()), (threshold, true));
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

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
//! * **Two-state tenants** — a counting network pays for its depth only
//!   when many threads meet on one counter, and most tenants are cold. A
//!   [`TenantCounter`] is born **compact**: one atomic word counting the
//!   values handed out, advanced by a CAS loop. Failed CASes are the
//!   contention signal: counted beside the word, restarted every 1 024
//!   issued values, and on crossing a fixed threshold they **inflate the
//!   tenant in place, once, under live handles** to the one inflated
//!   form: an [`EliminationCounter`] arena (default configuration) over
//!   `C(w, 16)`, built at inflation time. A tenant touched by one thread
//!   at a time never inflates, and eviction followed by re-creation is
//!   the only deflation.
//! * **`C(w, t)` with `w < t`** — an inflated tenant pays for its
//!   contention, not for its width. The paper's network has depth
//!   `(lg²w + lg w)/2` whatever `t` is: the input width `w` need only
//!   cover the threads that really meet on one tenant, and the output
//!   width is free: every service uses `t = 16`, and
//!   [`ServiceConfig::width`] is `w`. The default is `C(4,16)`, depth 3,
//!   where the old `C(16,16)` put 10 balancers under every reservation —
//!   on the two-thread benchmark host that width alone was half of a
//!   threefold `hot-tenant` gain. `w = 4` is the smallest width that
//!   still has every part of the construction (a ladder, two recursive
//!   halves, a merger). It is verified only there, with two threads on
//!   one tenant: with more than four, `thread_id % 4` shares two
//!   first-layer balancers where `C(16,16)` had eight, and what that
//!   costs is unmeasured — set `width` higher on such a host.
//! * **One count per value** — an inflated instance keeps no count of its
//!   own: `issued` is the sealed word's `F` plus the backend's
//!   [`BlockReserve::reserved`], the cursor every reservation already
//!   advances.
//! * **A hand-off nobody waits for** — the one thread whose failure
//!   crosses the threshold builds the network and arena, publishes them,
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

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{fence, Ordering};
use std::sync::{Arc, OnceLock};

use counting::{counting_network, validate_counting_params};
// The registry's control atomics and shard locks come through the
// model-checking seam (std/parking_lot pass-throughs unless the `model`
// feature routes them into counting-sim's interleaving explorer).
use counting_runtime::sync::{mutation_enabled, AtomicU64, RwLock};
use counting_runtime::{BlockReserve, EliminationCounter, NetworkCounter, SharedCounter};

use crate::{IdGenerator, RateLimiter, TicketGate};

/// Top bit of a tenant's word: set once, after the backend is published;
/// the low bits then stay at `F`, the count the word handed out.
const SEALED: u64 = 1 << 63;
/// The contention count restarts each time the word crosses a multiple
/// of `2^SIGNAL_WINDOW_BITS` issued values: only sustained contention
/// adds up.
const SIGNAL_WINDOW_BITS: u32 = 10;
/// CAS failures inside one signal window that inflate a tenant: two
/// threads hammering one tenant get there at once, threads that collide
/// now and then (requests microseconds apart, a CAS of nanoseconds) never.
const INFLATE_THRESHOLD: u64 = 8;

/// The `t` of every tenant's `C(w, t)`. Depth does not depend on it and
/// block reservations take their values from one cursor, not from the
/// exit wire, so nothing on the serving path has needed a second value
/// (`t = w` is not a tie: `C(4,4)` read 5 % below `C(4,16)` on `hot-tenant`).
const OUTPUT_WIDTH: usize = 16;

/// What a contended tenant inflates to: the default elimination arena
/// over `C(w, 16)`.
type Inflated = EliminationCounter<NetworkCounter>;

/// The construction policy of a [`CounterService`]: the input width of
/// every inflated tenant's `C(w, 16)` and the registry's shard count.
///
/// The `..Default::default()` idiom keeps call sites readable:
///
/// ```
/// use counting_service::ServiceConfig;
///
/// let config = ServiceConfig { width: 8, ..ServiceConfig::default() };
/// assert_eq!(ServiceConfig::default().width, 4);
/// assert_eq!(config.label(), "C(8,16)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// The input width `w` of an inflated tenant's `C(w, 16)`: how many
    /// threads get a wire of their own, and the only parameter the depth
    /// depends on (default `4`, see the [module docs](self); one of `2`,
    /// `4`, `8`, `16`).
    pub width: usize,
    /// Number of registry shards (default [`DEFAULT_SHARDS`]; must be
    /// `> 0`). More shards admit more parallel tenant *creations*;
    /// lookups of existing tenants share read locks either way.
    pub shards: usize,
}

/// Default number of registry shards in a [`ServiceConfig`].
pub const DEFAULT_SHARDS: usize = 16;

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            // The paper's w < t: depth from w = 4, the smallest width with
            // a ladder, two halves and a merger. Measured with two threads
            // on one tenant only; the effect on tenants that more than
            // four threads contend for is unverified.
            width: 4,
            shards: DEFAULT_SHARDS,
        }
    }
}

impl ServiceConfig {
    /// The network an inflated tenant runs, `C(w,16)`: the row key of
    /// the `exp_service` and `exp_server` tables.
    #[must_use]
    pub fn label(&self) -> String {
        format!("C({},{OUTPUT_WIDTH})", self.width)
    }
}

/// What a tenant needs to inflate itself, shared by every tenant of one
/// service (a handle may outlive the service that issued it).
#[derive(Debug)]
struct Blueprint {
    config: ServiceConfig,
    /// Contention count that inflates a tenant.
    threshold: u64,
    /// Tenants inflated so far (a statistic: `std`, not the model shim).
    inflations: std::sync::atomic::AtomicU64,
}

impl Blueprint {
    /// Builds what an inflating tenant switches to. The network is built
    /// here, once per inflation, so a service whose tenants never inflate
    /// never builds one.
    fn build_backend(&self) -> Box<Inflated> {
        let network = counting_network(self.config.width, OUTPUT_WIDTH)
            .expect("CounterService::new validated the width");
        Box::new(EliminationCounter::new(NetworkCounter::new(self.config.label(), &network)))
    }
}

/// One tenant's counter: a single CAS word until it is contended, the
/// elimination arena over `C(w, 16)` afterwards, behind a value-stream
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
    /// CAS failures in the current signal window.
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

    /// Whether this instance has inflated to the arena over `C(w, 16)`.
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
            let next = word + k as u64;
            if self.word.compare_exchange(word, next, Ordering::Relaxed, Ordering::Relaxed).is_ok()
            {
                if (word ^ next) >> SIGNAL_WINDOW_BITS != 0 {
                    self.open_signal_window();
                }
                return self.base + word;
            }
            self.note_contention();
            word = self.word.load(Ordering::Acquire);
        }
    }

    /// Restarts the contention count — unless it already reached the
    /// threshold, which therefore happens once per tenant. Relaxed here
    /// and in `note_contention`: the count elects, it publishes nothing.
    fn open_signal_window(&self) {
        let seen = self.contention.load(Ordering::Relaxed);
        if seen != 0 && seen < self.blueprint.threshold {
            // Losing this race means a failure was just counted: it stands.
            let _ = self.contention.compare_exchange(seen, 0, Ordering::Relaxed, Ordering::Relaxed);
        }
    }

    /// Counts one failed CAS; the failure that reaches the threshold
    /// inflates the tenant.
    #[cold]
    fn note_contention(&self) {
        if self.contention.fetch_add(1, Ordering::Relaxed) + 1 == self.blueprint.threshold {
            self.inflate();
        }
    }

    /// Switches the tenant to the arena over `C(w, 16)` while other handles
    /// keep reserving: build, publish, *then* seal. Until the seal lands
    /// everyone is still served by the word, so nobody waits for the build.
    fn inflate(&self) {
        let published = self.inflated.set(self.blueprint.build_backend());
        assert!(published.is_ok(), "the threshold is reached once");
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

/// One shard of the registry: live tenants plus the watermarks of
/// evicted ones (both keyed by tenant name, both only touched under this
/// shard's lock).
#[derive(Debug, Default)]
struct ShardState {
    live: HashMap<Arc<str>, Arc<TenantCounter>>,
    watermarks: HashMap<Arc<str>, u64>,
}

/// Retires a solely-owned tenant: records its watermark under its name
/// (in place when the name was evicted before: steady-state churn
/// allocates nothing) and returns it. A tenant that never handed out a
/// value has nothing to resume and leaves no entry.
fn retire(watermarks: &mut HashMap<Arc<str>, u64>, counter: &TenantCounter) -> u64 {
    // Pairs with the release decrement of the last dropped handle: all
    // that handle's thread did (its final count update included) is
    // visible before we read the watermark.
    fence(Ordering::Acquire);
    let watermark = counter.watermark();
    if watermark > 0 {
        match watermarks.get_mut(counter.tenant()) {
            Some(mark) => *mark = watermark,
            None => drop(watermarks.insert(Arc::clone(&counter.tenant), watermark)),
        }
    }
    watermark
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
    blueprint: Arc<Blueprint>,
    shards: Box<[RwLock<ShardState>]>,
}

impl CounterService {
    /// Creates an empty service.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero, or if `C(config.width, 16)` does
    /// not exist: the paper's rule wants `w` a power of two `>= 2` and `t`
    /// a multiple of it.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_inflate_threshold(config, INFLATE_THRESHOLD)
    }

    /// [`Self::new`] with tenants inflating after `threshold` CAS
    /// failures in one signal window. Crate-private: the model scenarios
    /// and unit tests pass `1`, so the first collision inflates.
    pub(crate) fn with_inflate_threshold(config: ServiceConfig, threshold: u64) -> Self {
        assert!(config.shards > 0, "the registry needs at least one shard");
        // Checked, not built: a bad width is refused here with the
        // construction's own message (it names both w and t), and a
        // service whose tenants never inflate builds no network at all.
        validate_counting_params(config.width, OUTPUT_WIDTH).unwrap_or_else(|e| panic!("{e}"));
        let shards = (0..config.shards).map(|_| RwLock::new(ShardState::default())).collect();
        let inflations = std::sync::atomic::AtomicU64::new(0);
        Self { blueprint: Arc::new(Blueprint { config, threshold, inflations }), shards }
    }

    /// The service-wide construction policy.
    #[must_use]
    pub fn config(&self) -> ServiceConfig {
        self.blueprint.config
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
        self.shards.iter().map(|s| s.read().live.len()).sum()
    }

    /// The names of all live tenants, in no particular order.
    #[must_use]
    pub fn tenants(&self) -> Vec<String> {
        let names = |s: &RwLock<ShardState>| s.read().live.keys().map(|n| n.to_string()).collect();
        self.shards.iter().flat_map::<Vec<String>, _>(names).collect()
    }

    fn shard_of(&self, tenant: &str) -> &RwLock<ShardState> {
        let mut hasher = DefaultHasher::new();
        tenant.hash(&mut hasher);
        &self.shards[(hasher.finish() % self.shards.len() as u64) as usize]
    }

    /// Returns the tenant's live counter, if one exists — the pure read
    /// path: one shard read lock, no construction.
    #[must_use]
    pub fn get(&self, tenant: &str) -> Option<Arc<TenantCounter>> {
        self.shard_of(tenant).read().live.get(tenant).map(Arc::clone)
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
        let shard = self.shard_of(tenant);
        if let Some(counter) = shard.read().live.get(tenant) {
            return Arc::clone(counter);
        }
        let mut state = shard.write();
        // Double-check: another creator may have won the race between our
        // read unlock and write lock.
        if let Some(counter) = state.live.get(tenant) {
            return Arc::clone(counter);
        }
        // One name allocation per tenant lifetime, and none for a tenant
        // coming back: the recorded watermark already holds the name.
        let (name, base) = match state.watermarks.get_key_value(tenant) {
            Some((name, &base)) => (Arc::clone(name), base),
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
        state.live.insert(name, Arc::clone(&counter));
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
        let mut state = self.shard_of(tenant).write();
        let Some(counter) = state.live.get(tenant) else {
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
        let counter = state.live.remove(tenant).expect("checked above");
        EvictOutcome::Evicted { watermark: retire(&mut state.watermarks, &counter) }
    }

    /// Sweeps every shard, retiring all tenants without outstanding
    /// handles (same ownership rule as [`Self::try_evict`]). Returns how
    /// many tenants were evicted — the churn loop of a serving process
    /// calls this periodically to bound the registry's footprint.
    pub fn evict_idle(&self) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let ShardState { live, watermarks } = &mut *shard.write();
            live.retain(|_, counter| {
                let idle = Arc::strong_count(counter) == 1;
                if idle {
                    retire(watermarks, counter);
                    evicted += 1;
                }
                !idle
            });
        }
        evicted
    }

    /// The tenant's high-water mark: `base + issued` for a live tenant
    /// (exact at quiescence), the recorded watermark for an evicted one,
    /// `0` for a name never seen.
    #[must_use]
    pub fn watermark(&self, tenant: &str) -> u64 {
        let state = self.shard_of(tenant).read();
        match state.live.get(tenant) {
            Some(counter) => counter.watermark(),
            None => state.watermarks.get(tenant).copied().unwrap_or(0),
        }
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
        let mut state = self.shard_of(tenant).write();
        if state.live.contains_key(tenant) {
            return false;
        }
        match state.watermarks.get_mut(tenant) {
            Some(mark) => *mark = (*mark).max(watermark),
            None if watermark > 0 => drop(state.watermarks.insert(Arc::from(tenant), watermark)),
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
        // Mixed batch sizes and an op count with no divisibility relation
        // to the network width: block reservations tile regardless.
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
        // Threshold 1: one counted collision inflates, so one thread can
        // drive a tenant through its whole life. `new` only validates
        // the width: every valid one must build its network here.
        for width in [2, 4, 8, 16] {
            let config = ServiceConfig { width, ..ServiceConfig::default() };
            let service = CounterService::with_inflate_threshold(config, 1);
            let counter = service.get_or_create("t");
            let mut values: Vec<u64> = (0..3).map(|i| counter.next(i)).collect();
            assert_eq!(counter.describe(), "compact [tenant t @ 0]");
            counter.note_contention();
            assert_eq!((counter.is_inflated(), service.inflations()), (true, 1));
            let inflated = format!("C({width},16) + elim[4:spin-yield] [tenant t @ 0]");
            assert_eq!(counter.describe(), inflated);
            values.extend((3..6).map(|i| counter.next(i)));
            counter.next_batch(0, 3, &mut values);
            values.sort_unstable();
            assert_eq!(values, (0..9).collect::<Vec<u64>>(), "{inflated}");
            // Eviction and re-creation is the only deflation.
            drop(counter);
            assert_eq!(service.evict_idle(), 1);
            let revived = service.get_or_create("t");
            assert_eq!((revived.is_inflated(), revived.base(), revived.next(0)), (false, 9, 9));
        }
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
        drop(counter);
        assert_eq!(service.try_evict("churny"), EvictOutcome::Evicted { watermark: 2 });
        assert_eq!(service.try_evict("churny"), EvictOutcome::Absent);
        assert_eq!(service.watermark("churny"), 2, "watermark survives the eviction");
        // Re-creation resumes, so the tenant's stream never repeats.
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
        assert_eq!(service.tenant_count(), 4);
        assert_eq!(service.evict_idle(), 3, "the held tenant survives");
        assert_eq!(service.tenant_count(), 1);
        assert!(service.get("held").is_some());
        assert_eq!(service.watermark("idle-1"), 1);
        assert_eq!(held.next(0), 1, "the survivor keeps counting");
    }

    #[test]
    fn eviction_forgets_tenants_that_never_reserved() {
        let service = service();
        let recorded = || service.shards.iter().map(|s| s.read().watermarks.len()).sum::<usize>();
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

    #[test]
    fn two_threads_inflate_a_tenant_and_the_stream_stays_dense() {
        if std::thread::available_parallelism().map_or(1, |cores| cores.get()) < 2 {
            return; // One core serializes the threads: there is no contention to see.
        }
        let service = CounterService::new(ServiceConfig::default());
        let tenant = &*service.get_or_create("pair");
        // Lock step, 256 operations at a time, spinning while they wait:
        // two threads the host started on one core would otherwise take
        // turns and spend the budget without ever meeting.
        let progress = [const { std::sync::atomic::AtomicUsize::new(0) }; 2];
        let run = |tid: usize| {
            let mut blocks = Vec::with_capacity(1 << 16);
            for op in 0..1usize << 16 {
                if op % 256 == 0 {
                    progress[tid].store(op + 256, Ordering::Release);
                    while progress[1 - tid].load(Ordering::Acquire) <= op {
                        std::hint::spin_loop();
                    }
                }
                let k = 1 + (op + tid) % 4;
                blocks.push((tenant.reserve_block(tid, k), k as u64));
            }
            blocks
        };
        let mut blocks = std::thread::scope(|scope| {
            let other = scope.spawn(|| run(1));
            [run(0), other.join().expect("no panic")].concat()
        });
        // The benchmark's `hot-tenant` shape and its oracle: the default
        // tenant inflated, once, to the arena over C(4,16) ...
        assert!(tenant.is_inflated(), "2^16 contended ops each did not inflate the tenant");
        let described = tenant.describe();
        assert!(described.contains("C(4,16)") && described.contains("elim["), "{described}");
        blocks.sort_unstable();
        let mut next = 0;
        for (start, k) in blocks {
            assert_eq!(start, next, "the stream forked or gapped");
            next += k;
        }
        // ... and the watermark, which past the seal is the backend's
        // cursor and nothing else, equals the values observed: every
        // later reservation went through arena, network and cursor.
        assert_eq!((tenant.watermark(), service.inflations()), (next, 1));
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

        // Monotonic: a stale (lower) recovery record cannot rewind.
        drop(revived);
        assert_eq!(service.try_evict("stream"), EvictOutcome::Evicted { watermark: 8 });
        assert!(service.restore_watermark("stream", 3));
        assert_eq!(service.watermark("stream"), 8);

        // A live tenant owns its own watermark — restoration refuses.
        let live = service.get_or_create("stream");
        assert!(!service.restore_watermark("stream", 100));
        assert_eq!(live.base(), 8);
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
        let _ = CounterService::new(ServiceConfig { shards: 0, ..ServiceConfig::default() });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_width_rejected() {
        let _ = CounterService::new(ServiceConfig { width: 6, ..ServiceConfig::default() });
    }

    #[test]
    #[should_panic(expected = "got w = 32, t = 16")]
    fn width_above_the_output_width_rejected() {
        let _ = CounterService::new(ServiceConfig { width: 32, ..ServiceConfig::default() });
    }
}

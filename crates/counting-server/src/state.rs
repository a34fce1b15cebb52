//! Shared server state: the [`CounterService`] registry plus per-tenant
//! adapter caches.
//!
//! Each endpoint family draws from its **own** tenant stream in the
//! underlying registry — `/ticket/q` and `/lease/q` do not share a
//! counter even though both say `q`. This matters for two guarantees:
//!
//! - the waiting-room gate ([`TicketGate`]) assumes it is the sole
//!   consumer of its counter, so its tickets are dense (`0..dispensed`)
//!   and its admission bound can be clamped to what was dispensed;
//! - the lease endpoint's exact-range property (`0..watermark` with no
//!   holes) would be broken by interleaved ticket draws.
//!
//! Scoping is a name prefix (`ticket:q`, `lease:q`, `rate:q`), so the
//! registry's eviction and watermark machinery applies per family.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use counting_service::{CounterService, RateLimiter, ServiceConfig, TicketGate};
use parking_lot::RwLock;

/// Longest tenant name the server accepts.
pub const MAX_TENANT_LEN: usize = 64;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Registry configuration (the shard count).
    pub service: ServiceConfig,
    /// Fixed worker-pool size. Each worker owns one connection at a
    /// time, so this is also the keep-alive connection capacity.
    pub workers: usize,
    /// Per-window budget handed to every `/rate/{tenant}` limiter.
    pub rate_limit: u64,
    /// Largest `k` accepted by `/lease/{tenant}?k=`.
    pub max_lease: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { service: ServiceConfig::default(), workers: 4, rate_limit: 64, max_lease: 1024 }
    }
}

/// Per-endpoint served-request counters, updated by workers and read by
/// tests and the load generator. Monotone; exact at quiescence.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// `/ticket` requests answered.
    pub ticket: AtomicU64,
    /// `/lease` requests answered.
    pub lease: AtomicU64,
    /// `/admit` requests answered.
    pub admit: AtomicU64,
    /// `/rate` requests answered.
    pub rate: AtomicU64,
    /// `/status` requests answered.
    pub status: AtomicU64,
    /// Requests answered with a 4xx.
    pub client_errors: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
}

/// Everything a worker needs to answer a request: the registry, the
/// adapter caches, limits, and stats.
pub struct AppState {
    service: CounterService,
    rate_limit: u64,
    max_lease: usize,
    gates: RwLock<HashMap<String, Arc<TicketGate>>>,
    limiters: RwLock<HashMap<String, Arc<RateLimiter>>>,
    /// Served-request counters (public so the router can bump them).
    pub stats: ServerStats,
}

impl std::fmt::Debug for AppState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppState")
            .field("rate_limit", &self.rate_limit)
            .field("max_lease", &self.max_lease)
            .finish_non_exhaustive()
    }
}

impl AppState {
    /// Builds the state for `config`, with an empty registry.
    #[must_use]
    pub fn new(config: &ServerConfig) -> Self {
        Self {
            service: CounterService::new(config.service),
            rate_limit: config.rate_limit,
            max_lease: config.max_lease,
            gates: RwLock::new(HashMap::new()),
            limiters: RwLock::new(HashMap::new()),
            stats: ServerStats::default(),
        }
    }

    /// The underlying registry (tests inspect watermarks through this).
    #[must_use]
    pub fn service(&self) -> &CounterService {
        &self.service
    }

    /// Largest `k` the lease endpoint accepts.
    #[must_use]
    pub fn max_lease(&self) -> usize {
        self.max_lease
    }

    /// True when `tenant` is non-empty, within [`MAX_TENANT_LEN`], and
    /// uses only `[A-Za-z0-9._-]` — the charset that keeps scoped
    /// registry keys unambiguous.
    #[must_use]
    pub fn valid_tenant(tenant: &str) -> bool {
        !tenant.is_empty()
            && tenant.len() <= MAX_TENANT_LEN
            && tenant.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
    }

    /// The waiting-room gate for `tenant`, created on first use. The
    /// gate's counter is the dedicated `ticket:{tenant}` stream.
    pub fn gate(&self, tenant: &str) -> Arc<TicketGate> {
        let key = format!("ticket:{tenant}");
        if let Some(gate) = self.gates.read().get(&key) {
            return Arc::clone(gate);
        }
        let mut gates = self.gates.write();
        // Double-checked: another worker may have raced us here.
        if let Some(gate) = gates.get(&key) {
            return Arc::clone(gate);
        }
        let counter = self.service.get_or_create(&key);
        let gate = Arc::new(TicketGate::new(counter));
        gates.insert(key, Arc::clone(&gate));
        gate
    }

    /// The rate limiter for `tenant`, created on first use against the
    /// dedicated `rate:{tenant}` stream with the server-wide budget.
    pub fn limiter(&self, tenant: &str) -> Arc<RateLimiter> {
        let key = format!("rate:{tenant}");
        if let Some(limiter) = self.limiters.read().get(&key) {
            return Arc::clone(limiter);
        }
        let mut limiters = self.limiters.write();
        if let Some(limiter) = limiters.get(&key) {
            return Arc::clone(limiter);
        }
        let counter = self.service.get_or_create(&key);
        let limiter = Arc::new(RateLimiter::new(counter, self.rate_limit));
        limiters.insert(key, Arc::clone(&limiter));
        limiter
    }

    /// Reserves `k` contiguous ids from `tenant`'s `lease:` stream and
    /// returns the block base.
    pub fn lease(&self, tenant: &str, thread_id: usize, k: usize) -> u64 {
        use counting_runtime::BlockReserve;
        self.service.get_or_create(&format!("lease:{tenant}")).reserve_block(thread_id, k)
    }

    /// The lease stream's high-water mark (total ids ever leased when
    /// quiescent).
    #[must_use]
    pub fn lease_watermark(&self, tenant: &str) -> u64 {
        self.service.watermark(&format!("lease:{tenant}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_families_use_disjoint_streams() {
        let state = AppState::new(&ServerConfig::default());
        let gate = state.gate("q");
        let t0 = gate.acquire(0);
        let start = state.lease("q", 0, 4);
        // Both streams start at zero because they are different tenants.
        assert_eq!(t0, 0);
        assert_eq!(start, 0);
        assert_eq!(state.lease_watermark("q"), 4);
        let names = state.service().tenants();
        assert!(names.contains(&"ticket:q".to_owned()), "{names:?}");
        assert!(names.contains(&"lease:q".to_owned()), "{names:?}");
    }

    #[test]
    fn adapters_are_cached_per_tenant() {
        let state = AppState::new(&ServerConfig::default());
        let a = state.gate("q");
        let b = state.gate("q");
        assert!(Arc::ptr_eq(&a, &b), "same gate instance on repeat lookup");
        let l1 = state.limiter("q");
        let l2 = state.limiter("q");
        assert!(Arc::ptr_eq(&l1, &l2), "same limiter instance on repeat lookup");
    }

    #[test]
    fn tenant_validation_rejects_the_weird() {
        assert!(AppState::valid_tenant("queue-1.prod_x"));
        assert!(!AppState::valid_tenant(""));
        assert!(!AppState::valid_tenant("a/b"));
        assert!(!AppState::valid_tenant("a b"));
        assert!(!AppState::valid_tenant(&"x".repeat(MAX_TENANT_LEN + 1)));
    }
}

//! # counting-service — a multi-tenant counter serving layer
//!
//! Everything below `counting-runtime` constructs and tortures *one*
//! counter at a time; real serving workloads own **many named counters
//! at once** — per-flow accounting, per-queue admission ticketing,
//! per-tenant id allocation — with tenants arriving, churning and
//! disappearing while traffic flows. This crate is that layer:
//!
//! * [`CounterService`] — a sharded, concurrent registry mapping tenant
//!   names to counters created on first touch. Lookups of existing
//!   tenants take one shard read lock; creation and eviction serialize
//!   only their shard. A [`TenantCounter`] is born *compact* — one CAS
//!   word, one 64-byte cache line — and *inflates in place, once*, to
//!   an elimination arena over the paper's `C(w, 16)` when its CAS
//!   failures show sustained contention; the hand-off publishes the arena
//!   before it seals the word, so live handles never wait and the stream
//!   never forks. Every tenant stream is drawn as contiguous
//!   [`counting_runtime::BlockReserve`] blocks, so each tenant's
//!   hand-out tiles `0..issued` for any batch-size mix — and eviction
//!   records a watermark that re-creation resumes from (compact again),
//!   so a tenant's values stay unique across its whole service lifetime.
//! * [`ServiceConfig`] — the per-service construction policy: the input
//!   width of every inflated tenant's network — the `w` of the paper's
//!   `C(w, t)` at `t = 16`, `C(4,16)` by default — and the shard count.
//! * Workload adapters on top of any tenant handle: [`IdGenerator`]
//!   (batched id leases with local refill), [`TicketGate`]
//!   (ticket-lock admission), [`RateLimiter`] (windowed token
//!   counting).
//!
//! ## Quick start
//!
//! ```
//! use counting_runtime::SharedCounter;
//! use counting_service::{CounterService, ServiceConfig};
//!
//! // One service, many tenants: compact until contended, then an
//! // elimination arena over C(w, 16) with `width` as w.
//! let service = CounterService::new(ServiceConfig { width: 8, ..ServiceConfig::default() });
//! assert_eq!(service.config().label(), "C(8,16)");
//!
//! // Per-flow accounting: each flow's stream is independent and dense.
//! let flow = service.get_or_create("flows/10.0.0.7");
//! assert_eq!(flow.next(0), 0);
//! let mut burst = Vec::new();
//! flow.next_batch(0, 5, &mut burst);
//! assert_eq!(burst, vec![1, 2, 3, 4, 5]);
//!
//! // Admission ticketing on another tenant.
//! let gate = service.ticket_gate("checkout");
//! let ticket = gate.acquire(0);
//! gate.admit(1);
//! assert!(gate.is_admitted(ticket));
//!
//! // Tenant churn: idle tenants retire, their streams resume later.
//! drop(flow);
//! assert!(service.evict_idle() >= 1);
//! let revived = service.get_or_create("flows/10.0.0.7");
//! assert_eq!(revived.next(0), 6, "the stream resumed past the eviction");
//! ```

#![warn(missing_docs)]

pub mod id_gen;
#[cfg(feature = "model")]
pub mod model_scenarios;
pub mod rate;
pub mod registry;
pub mod ticket;

pub use id_gen::{IdGenerator, DEFAULT_LEASE};
pub use rate::RateLimiter;
pub use registry::{CounterService, EvictOutcome, ServiceConfig, TenantCounter, DEFAULT_SHARDS};
pub use ticket::TicketGate;

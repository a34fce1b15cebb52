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
//!   only their shard. A [`TenantCounter`] is one atomic word, and a
//!   reservation of `k` values is one `fetch_add(k)` on it, so a
//!   contended tenant never retries. Every tenant stream is drawn as
//!   contiguous [`counting_runtime::BlockReserve`] blocks, so each
//!   tenant's hand-out tiles `0..watermark` for any batch-size mix — and
//!   eviction records the watermark that re-creation resumes from, so a
//!   tenant's values stay unique across its whole service lifetime.
//!   No counting network sits under a block: on the paper's stall
//!   measure a `C(4,16)` in front of the cursor gives it no relief at
//!   any n from 2 to 64 (E5e, see the [registry docs](registry)).
//! * [`ServiceConfig`] — the per-service construction policy: the shard
//!   count.
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
//! // One service, many tenants, one word each.
//! let service = CounterService::new(ServiceConfig::default());
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
pub mod rate;
pub mod registry;
pub mod ticket;

pub use id_gen::{IdGenerator, DEFAULT_LEASE};
pub use rate::RateLimiter;
pub use registry::{CounterService, EvictOutcome, ServiceConfig, TenantCounter, DEFAULT_SHARDS};
pub use ticket::TicketGate;

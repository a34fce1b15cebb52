//! The one module through which the benchmark reaches `crates/*`.
//!
//! Every public item of the stack the benchmark relies on is named here
//! and nowhere else under `benchmark/` (a unit test enforces it). Later
//! changes may not edit benchmark files, so this list is the stack's
//! frozen contract with its benchmark: anything *not* named here can be
//! renamed, merged or deleted freely. README.md repeats the list.
//!
//! The helpers below only fix the configuration the benchmark measures —
//! `ServiceConfig::default()` and `ServerConfig::default()` with nothing
//! but `workers` overridden, i.e. what a user gets by default.

use std::io;
use std::sync::Arc;

pub use balnet::Network;
pub use counting::counting_network;
pub use counting_cluster::{
    replica_id, run_sim, ClusterSimConfig, CoordinatorDurable, Envelope, Message, Outgoing,
    ProtocolConfig, Replica, SimReport, COORDINATOR, REPLICA_BASE,
};
pub use counting_runtime::{
    BlockReserve, CompiledNetwork, EliminationCounter, NetworkCounter, SharedCounter,
};
pub use counting_server::http::{read_request, write_response, ReadOutcome, Request};
pub use counting_server::router::route;
pub use counting_server::{AppState, CountingServer, ServerConfig};
pub use counting_service::{
    CounterService, IdGenerator, RateLimiter, ServiceConfig, TenantCounter, TicketGate,
    DEFAULT_LEASE,
};

/// Width of the network behind every default tenant, and of the
/// stand-alone networks the ladder times: `C(16, 16)`.
pub const WIDTH: usize = 16;

/// `C(16, 16)`, the topology `ServiceConfig::default()` serves from.
pub fn default_network() -> Network {
    counting_network(WIDTH, WIDTH).expect("C(16,16) is a valid counting network")
}

/// A registry as a user gets it by default.
pub fn default_service() -> CounterService {
    CounterService::new(ServiceConfig::default())
}

fn server_config(workers: usize) -> ServerConfig {
    ServerConfig { workers, ..ServerConfig::default() }
}

/// The per-window `/rate` budget of the default server.
pub fn default_rate_limit() -> u64 {
    ServerConfig::default().rate_limit
}

/// A default server on an ephemeral loopback port.
pub fn start_server(workers: usize) -> io::Result<CountingServer> {
    CountingServer::start("127.0.0.1:0", server_config(workers))
}

/// The state behind the endpoints, without sockets or threads.
pub fn default_app_state() -> AppState {
    AppState::new(&server_config(1))
}

/// Parses one request from `bytes` (`None` unless it is complete and
/// well-formed).
pub fn parse_request(mut bytes: &[u8]) -> Option<Request> {
    match read_request(&mut bytes) {
        Ok(ReadOutcome::Request(request)) => Some(request),
        _ => None,
    }
}

/// A tenant handle as the adapters take it.
pub fn as_shared(tenant: Arc<TenantCounter>) -> Arc<dyn SharedCounter + Send + Sync> {
    tenant
}

/// The `cluster-failover` cell: 8 workers, and otherwise the defaults —
/// the lossy fault plan, worker crash/join/leave churn, demand and
/// horizon. `replicas >= 2` adds two replica crashes and two partition
/// windows (both exist only in replicated mode); `replicas == 1` is the
/// single-coordinator baseline.
pub fn cluster_config(replicas: u64, record_trace: bool) -> ClusterSimConfig {
    let base = ClusterSimConfig::default();
    let faults = if replicas >= 2 { 2 } else { 0 };
    ClusterSimConfig {
        workers: 8,
        replicas,
        replica_crashes: faults,
        partitions: faults,
        record_trace,
        ..base
    }
}

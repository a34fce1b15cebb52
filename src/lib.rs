//! # counting-networks
//!
//! A complete implementation of **"An Efficient Counting Network"**
//! (Busch & Mavronicolas, IPPS/SPDP'98; Theoretical Computer Science 411
//! (2010) 3001–3030), together with everything needed to evaluate it: the
//! classic baselines, a contention simulator under the
//! Dwork–Herlihy–Waarts stall model, a lock-free concurrent runtime, and
//! the sorting-network byproduct.
//!
//! This facade crate re-exports the workspace's public API under stable
//! module names:
//!
//! * [`net`] (crate `balnet`) — balancers, topologies, quiescent
//!   evaluation, step/smooth sequences, isomorphism;
//! * [`efficient`] (crate `counting`) — the paper's `C(w, t)`, `M(t, δ)`,
//!   `L(w)`, butterflies, depth formulas and contention bounds;
//! * [`baseline`] (crate `baselines`) — bitonic, periodic, diffracting
//!   tree, central balancer;
//! * [`sim`] (crate `counting-sim`) — stall-counting contention simulator
//!   and schedulers;
//! * [`runtime`] (crate `counting-runtime`) — compiled lock-free networks
//!   and Fetch&Increment counters driven by real threads;
//! * [`service`] (crate `counting-service`) — the multi-tenant serving
//!   layer: a sharded registry of named counters plus id-lease, ticket
//!   and rate-limit workload adapters;
//! * [`server`] (crate `counting-server`) — the HTTP/1.1 admission and
//!   id service: a blocking worker-pool server exposing the service
//!   layer's adapters over real sockets, plus its keep-alive test
//!   client;
//! * [`cluster`] (crate `counting-cluster`) — the distributed layer:
//!   nodes lease contiguous value blocks from a durable coordinator over
//!   a lossy network, with join/leave churn, crash-restart watermark
//!   recovery, and a deterministic fault-injecting simulation that
//!   checks global uniqueness and the exact range;
//! * [`sorting`] (crate `sortnet`) — comparator networks derived from the
//!   counting constructions.
//!
//! ## Quick start
//!
//! ```
//! use counting_networks::efficient::counting_network;
//! use counting_networks::net::{quiescent_output, is_step};
//! use counting_networks::runtime::{NetworkCounter, SharedCounter};
//!
//! // Build the network of Fig. 1: input width 4, output width 8.
//! let net = counting_network(4, 8).expect("valid parameters");
//! assert_eq!(net.depth(), 3);
//!
//! // Quiescent behaviour: any input distribution yields a step output.
//! let out = quiescent_output(&net, &[4, 2, 3, 4]);
//! assert!(is_step(&out));
//!
//! // Concurrent behaviour: a lock-free Fetch&Increment counter.
//! let counter = NetworkCounter::new("C(4,8)", &net);
//! let v0 = counter.next(0);
//! let v1 = counter.next(1);
//! assert_ne!(v0, v1);
//! ```

#![warn(missing_docs)]

/// Balancing-network substrate (re-export of the `balnet` crate).
pub mod net {
    pub use balnet::*;
}

/// The paper's constructions and bounds (re-export of the `counting`
/// crate).
pub mod efficient {
    pub use counting::*;
}

/// Baseline counting networks (re-export of the `baselines` crate).
pub mod baseline {
    pub use baselines::*;
}

/// Contention simulation under the stall model (re-export of the
/// `counting-sim` crate).
pub mod sim {
    pub use counting_sim::*;
}

/// Concurrent shared-memory execution (re-export of the
/// `counting-runtime` crate).
pub mod runtime {
    pub use counting_runtime::*;
}

/// Multi-tenant counter serving layer (re-export of the
/// `counting-service` crate).
pub mod service {
    pub use counting_service::*;
}

/// HTTP serving layer for the counter service (re-export of the
/// `counting-server` crate).
pub mod server {
    pub use counting_server::*;
}

/// Distributed counting cluster and its deterministic fault-injecting
/// simulation (re-export of the `counting-cluster` crate).
pub mod cluster {
    pub use counting_cluster::*;
}

/// Sorting networks derived from counting networks (re-export of the
/// `sortnet` crate).
pub mod sorting {
    pub use sortnet::*;
}

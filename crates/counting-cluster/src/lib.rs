//! # counting-cluster — distributed block-lease counting
//!
//! The crates below this one scale the paper's counting network *within*
//! one address space; this crate takes the next step the ROADMAP
//! north-star asks for: `N` nodes, each serving from a local cursor,
//! cooperating over a message-passing layer to hand out one globally
//! unique, gap-free value stream — and staying correct while the network
//! drops, duplicates, delays and reorders messages and nodes crash,
//! restart, join and leave.
//!
//! ## The block-lease protocol
//!
//! A durable **coordinator** owns the global value space as a cursor
//! plus a free-list and leases **disjoint contiguous blocks** to worker
//! nodes ([`coordinator`]). Each **node** ([`node`]) serves local demand
//! from its leased blocks — the node's local stream index maps through
//! its block ledger to a global value — and
//! requests a new lease when demand outruns its ledger. The protocol is
//! built for an unreliable network:
//!
//! * every request carries a per-node request id; requests are retried
//!   and the coordinator deduplicates by `(node, request id)`,
//!   re-sending the recorded grant instead of allocating twice;
//! * a restarted node replays its durable state: its cursor resumes at
//!   the durable local watermark (the same resume rule tenant eviction
//!   uses), and an in-doubt request is
//!   resolved with a recovery query the coordinator answers from its
//!   grant log — or **tombstones**, so the in-doubt id can never be
//!   granted later;
//! * there is no worker membership: a worker is any unsealed id that
//!   asks for a lease, so a join is a fresh id that starts asking and
//!   every request goes straight to the coordinator id — no
//!   heartbeats, no epochs, no failure detector, no relay tree;
//! * a leaving (or draining) node returns its unconsumed lease tail —
//!   that final `Return` is the leave, and it seals the id for good;
//!   the coordinator truncates the node's grants at the returned
//!   watermark and recycles the remainder through the free-list, so the
//!   global stream ends exactly range-tiled: handed-out values plus the
//!   free-list reconstitute `0..cursor` with no gap, no overlap.
//!
//! State machines are **sans-IO**: they consume [`message::Envelope`]s
//! and ticks, and emit [`message::Outgoing`] hops through an outbox. A
//! driver flushes the outbox through a [`transport::Transport`] — the
//! in-memory [`transport::ChannelTransport`] for live threads
//! ([`live`]), or the deterministic fault-injecting simulation
//! ([`sim`]) built on [`counting_sim::des`], which can drop, duplicate,
//! delay and reorder every hop from a seeded fault plan, crash and
//! restart nodes, and checks global uniqueness online plus exact-range
//! tiling at quiescence ([`check`]). Every run replays byte-identically
//! from its seed.
//!
//! The coordinator is one state machine: a **replica group** running a
//! leader-leased quorum log ([`replica`]) over the durable state
//! ([`coordinator`]). Three or five replicas keep the guarantees
//! through coordinator crashes and network partitions; a group of one
//! commits its own appends and is the unreplicated deployment. Workers
//! are oblivious to the group size: they address the virtual
//! coordinator id either way.

#![warn(missing_docs)]

pub mod check;
pub mod coordinator;
pub mod live;
pub mod message;
pub mod node;
pub mod replica;
pub mod sim;
pub mod transport;

pub use check::GlobalChecker;
pub use coordinator::CoordinatorDurable;
pub use live::{run_live, LiveReport};
pub use message::{Block, Envelope, Message, NodeId, Outgoing, COORDINATOR};
pub use node::{Node, NodeDurable, ProtocolConfig};
pub use replica::{replica_id, Command, LogEntry, Replica, ReplicaDurable, REPLICA_BASE};
pub use sim::{run_sim, ClusterSimConfig, ClusterTrace, Mutation, SimReport, SimStats, TraceEvent};
pub use transport::{ChannelTransport, Transport};

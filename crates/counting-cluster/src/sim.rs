//! The deterministic fault-injecting cluster simulation.
//!
//! [`run_sim`] is a pure function of `(config, seed)`: the demand
//! schedule, churn plan (crashes, restarts, joins, leaves) and every
//! per-hop fault decision (drop / duplicate / delay / reorder) derive
//! from forked [`SimRng`] streams, and events resolve through a
//! [`counting_sim::des::EventQueue`] keyed by `(tick, insertion seq)` —
//! so two runs with the same seed produce byte-identical traces, and any
//! counterexample replays exactly. Cross-node state lives in `Vec`s
//! indexed by node id (worker slots) or replica index, always iterated
//! in id order; nothing iterates a hash map.
//!
//! A run has two phases: the **torture window** (`0..horizon` ticks)
//! where demand flows and the fault plan applies to every hop, and the
//! **drain** where faults stop, crashed nodes finish restarting, every
//! node seals its stream, and the [`GlobalChecker`] audits the exact
//! range. Faults apply per hop, so an envelope a follower forwards to
//! its leader crosses the faulty network twice.
//!
//! The trace costs nothing unless it is recorded: `Harness::record`
//! takes the detail string as a closure it runs only under
//! [`ClusterSimConfig::record_trace`]; a hop's fate is a `Copy`
//! [`Fate`] and its envelope moves into the single delivery (only a
//! duplicate clones); the pre-drawn plan sits in the queue's sorted
//! schedule beside a tick ring of just the in-flight hops (merged by
//! `(at, seq)`, see [`counting_sim::des`]); every flush drains a state
//! machine's outbox into scratch `Vec`s the harness owns for the whole
//! run, and a machine with nothing to send or hand out is not flushed
//! at all. No virtual-time decision depends on any of it — golden
//! fingerprints in `tests/cluster_sim.rs` pin the draw order, pop
//! order, [`SimStats`] and trace, `tests/sim_alloc.rs` the allocations.
//!
//! [`Mutation`] carries the calibration bugs that prove the checker has
//! teeth (the discipline `counting-sim`'s model checker established):
//! each one is a plausible implementation mistake whose injection must
//! produce a caught violation.

use serde::{Deserialize, Serialize};

use counting_sim::des::{EventQueue, Fate, FaultPlan, PartitionWindow, SimRng};

use crate::check::GlobalChecker;
use crate::coordinator::CoordinatorDurable;
use crate::message::{Envelope, NodeId, Outgoing, COORDINATOR};
use crate::node::{Node, NodeDurable, ProtocolConfig};
use crate::replica::{replica_id, Replica, ReplicaDurable, REPLICA_BASE};
use crate::transport::coordinator_hop;

/// A deliberately-injected protocol bug, used to calibrate the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mutation {
    /// A restarted node skips resuming its cursor at the durable
    /// watermark, so its stream restarts at zero and re-hands old
    /// values — caught online as a uniqueness violation.
    SkipRecovery,
    /// The coordinator leader forgets grant deduplication: a duplicated
    /// or retried request allocates a second block and the first grant
    /// record leaks — caught at quiescence as an exact-range gap (or a
    /// grant/hand-out mismatch when the first block was partly
    /// consumed).
    GrantNoDedup,
    /// Two or more replicas: a leader whose lease lapsed keeps serving
    /// lease requests from its local state, off the log — a partition
    /// makes two leaders allocate the same blocks, caught online as a
    /// uniqueness violation.
    SplitBrainDoubleGrant,
    /// Two or more replicas: the leader treats its own ack as a commit
    /// quorum; a partitioned minority leader's grants are truncated
    /// away on heal — caught at quiescence as exact-range violations.
    CommitBeforeQuorum,
}

impl Mutation {
    /// Every calibration mutation, in flag order.
    pub const ALL: [Mutation; 4] = [
        Mutation::SkipRecovery,
        Mutation::GrantNoDedup,
        Mutation::SplitBrainDoubleGrant,
        Mutation::CommitBeforeQuorum,
    ];

    /// The stable flag string naming this mutation on the `exp_cluster`
    /// command line.
    #[must_use]
    pub fn flag(self) -> &'static str {
        match self {
            Mutation::SkipRecovery => "skip-recovery",
            Mutation::GrantNoDedup => "grant-no-dedup",
            Mutation::SplitBrainDoubleGrant => "split-brain-double-grant",
            Mutation::CommitBeforeQuorum => "commit-before-quorum",
        }
    }

    /// Parses [`Self::flag`].
    #[must_use]
    pub fn parse(flag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.flag() == flag)
    }
}

/// One simulation cell: cluster size, load, fault plan, churn plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSimConfig {
    /// Founding worker count (ids `1..=workers`).
    pub workers: u64,
    /// Demand events per worker over the torture window.
    pub demand_per_node: u64,
    /// Torture-window length in virtual ticks.
    pub horizon: u64,
    /// The per-hop fault plan during the torture window.
    pub fault: FaultPlan,
    /// Crash events scheduled (each with a deterministic restart).
    pub crashes: u64,
    /// Workers joining mid-run (ids `workers+1..`): a joiner is a fresh
    /// id that starts asking for leases.
    pub joins: u64,
    /// Graceful leaves scheduled mid-run: the leaver seals with a final
    /// `Return`.
    pub leaves: u64,
    /// Members of the coordinator's replica group
    /// ([`crate::replica`]). 1 is a group that commits its own appends;
    /// 3 or 5 survive replica crashes and partitions; 0 runs a group of
    /// one, like 1.
    pub replicas: u64,
    /// Replica crash events scheduled (each with a deterministic
    /// restart); groups of two or more only.
    pub replica_crashes: u64,
    /// Partition windows scheduled, each isolating one replica from the
    /// rest of the group (workers keep reaching both sides — the
    /// split-brain shape); groups of two or more only.
    pub partitions: u64,
    /// Protocol timing/sizing.
    pub protocol: ProtocolConfig,
    /// The injected calibration bug, if any.
    pub mutation: Option<Mutation>,
    /// Hard event cap — exceeding it is reported as a liveness
    /// violation instead of hanging.
    pub max_events: u64,
    /// Record the full event trace (byte-identical per seed).
    pub record_trace: bool,
}

impl Default for ClusterSimConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            demand_per_node: 200,
            horizon: 8_000,
            fault: FaultPlan { drop_per_mille: 50, dup_per_mille: 30, min_delay: 1, max_delay: 20 },
            crashes: 2,
            joins: 1,
            leaves: 1,
            replicas: 1,
            replica_crashes: 0,
            partitions: 0,
            protocol: ProtocolConfig::default(),
            mutation: None,
            max_events: 2_000_000,
            record_trace: false,
        }
    }
}

/// One recorded simulation event (flat named fields — the shape the
/// vendored serde derive supports).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual tick.
    pub at: u64,
    /// Deterministic sequence number within the run.
    pub seq: u64,
    /// Event kind (`send`, `drop`, `dup`, `deliver`, `lost`, `handout`,
    /// `crash`, `restart`, `join`, `leave`, `drain`, `violation`,
    /// `sever`, `replica-crash`, `replica-restart`).
    pub kind: String,
    /// The node the event concerns.
    pub node: u64,
    /// Kind-specific detail (message rendering, value, violation text).
    pub info: String,
}

/// A replayable event trace: the seed plus everything that happened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTrace {
    /// The seed the run derives from.
    pub seed: u64,
    /// All recorded events in deterministic order.
    pub events: Vec<TraceEvent>,
}

/// Aggregate run statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Hops attempted (every send, follower forwards included).
    pub sent: u64,
    /// Hops delivered.
    pub delivered: u64,
    /// Hops dropped by the fault plan.
    pub dropped: u64,
    /// Hops duplicated by the fault plan.
    pub duplicated: u64,
    /// Hops addressed to a crashed node (lost on arrival).
    pub lost: u64,
    /// Values handed out (repeats included).
    pub handed: u64,
    /// Crash events that fired.
    pub crashes: u64,
    /// Restart events that fired.
    pub restarts: u64,
    /// Join events that fired.
    pub joins: u64,
    /// Leave events that fired.
    pub leaves: u64,
    /// Demand events skipped because the target was down or sealed.
    pub demand_skipped: u64,
    /// Total events processed.
    pub events: u64,
    /// Hops cut by an active partition window.
    pub severed: u64,
    /// Replica crash events that fired.
    pub replica_crashes: u64,
    /// Replica restart events that fired.
    pub replica_restarts: u64,
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The seed the run derives from.
    pub seed: u64,
    /// Values handed out (repeats included).
    pub handed: u64,
    /// Distinct values handed out.
    pub unique: u64,
    /// Every violation caught (uniqueness, exact-range, liveness).
    pub violations: Vec<String>,
    /// Whether every worker sealed and was acknowledged before the
    /// event cap.
    pub converged: bool,
    /// The coordinator's final cursor (values ever allocated).
    pub cursor: u64,
    /// Values sitting in the final free-list.
    pub free_total: u64,
    /// The tick the run ended at.
    pub final_tick: u64,
    /// Aggregate statistics.
    pub stats: SimStats,
    /// The recorded trace, when [`ClusterSimConfig::record_trace`].
    pub trace: Option<ClusterTrace>,
}

/// A scheduled simulation event.
enum Ev {
    Tick,
    Deliver { hop: NodeId, env: Envelope },
    Demand { node: NodeId },
    Crash { node: NodeId },
    Restart { node: NodeId },
    Join { node: NodeId },
    Leave { node: NodeId },
    ReplicaCrash { index: u64 },
    ReplicaRestart { index: u64 },
    Drain,
}

/// A worker slot: up (running state machine) or down (durable state
/// waiting for its restart).
enum Slot {
    Up(Box<Node>),
    Down(NodeDurable),
}

/// A replica slot: up, or down holding the state a crash preserves.
enum ReplicaSlot {
    Up(Box<Replica>),
    Down(ReplicaDurable),
}

/// An up replica slot holding `replica` with the run's calibration
/// mutation switched on.
fn armed(mut replica: Replica, mutation: Option<Mutation>) -> ReplicaSlot {
    match mutation {
        Some(Mutation::GrantNoDedup) => replica.enable_grant_no_dedup(),
        Some(Mutation::SplitBrainDoubleGrant) => replica.enable_split_brain(),
        Some(Mutation::CommitBeforeQuorum) => replica.enable_commit_before_quorum(),
        Some(Mutation::SkipRecovery) | None => {}
    }
    ReplicaSlot::Up(Box::new(replica))
}

/// Worker `id`'s state machine, when that worker is up.
fn up_node(slots: &mut [Option<Slot>], id: NodeId) -> Option<&mut Node> {
    match slots.get_mut(usize::try_from(id).ok()?)? {
        Some(Slot::Up(node)) => Some(node),
        _ => None,
    }
}

/// Replica `index` of the group, when that member is up.
fn up_replica(replicas: &mut [ReplicaSlot], index: u64) -> Option<&mut Replica> {
    match replicas.get_mut(usize::try_from(index).ok()?)? {
        ReplicaSlot::Up(replica) => Some(replica),
        ReplicaSlot::Down(_) => None,
    }
}

/// Global tick granularity: every state machine sees time advance in
/// steps of this many virtual ticks.
const TICK_EVERY: u64 = 5;

/// A crashed worker stays down for a draw from
/// `DOWN_FOR..3 * DOWN_FOR` ticks.
const DOWN_FOR: u64 = 160;

struct Harness {
    config: ClusterSimConfig,
    /// The coordinator group, indexed by replica index.
    replicas: Vec<ReplicaSlot>,
    /// Coordinator-addressed hops sent so far: the next one goes to
    /// replica `rotation % group` ([`coordinator_hop`]).
    rotation: u64,
    /// Worker slots indexed by id (index 0, the coordinator's id, stays
    /// `None`; so does a joiner's until it joins).
    slots: Vec<Option<Slot>>,
    left: std::collections::BTreeSet<NodeId>,
    queue: EventQueue<Ev>,
    fault_rng: SimRng,
    active_fault: FaultPlan,
    partitions: Vec<PartitionWindow>,
    checker: GlobalChecker,
    violations: Vec<String>,
    stats: SimStats,
    trace: Vec<TraceEvent>,
    trace_seq: u64,
    draining: bool,
    /// Scratch the flush paths drain outboxes and hand-outs into:
    /// owned here and always left empty, so after warm-up no flush
    /// allocates.
    outgoing: Vec<Outgoing>,
    handouts: Vec<u64>,
}

impl Harness {
    /// Appends one trace event. `info` renders the detail string and
    /// runs only when the trace is recorded, so an untraced run never
    /// formats or allocates for an event it throws away.
    fn record(&mut self, at: u64, kind: &str, node: u64, info: impl FnOnce() -> String) {
        if !self.config.record_trace {
            return;
        }
        let seq = self.trace_seq;
        self.trace_seq += 1;
        self.trace.push(TraceEvent { at, seq, kind: kind.to_owned(), node, info: info() });
    }

    /// Routes one outgoing hop through the partition schedule and the
    /// fault plan. `from` is the physical sender (a worker id or a
    /// replica id) — partitions cut physical links.
    fn transmit(&mut self, now: u64, from: NodeId, out: Outgoing) {
        let hop = if out.hop == COORDINATOR {
            let hop = coordinator_hop(self.rotation, self.replicas.len() as u64);
            self.rotation += 1;
            hop
        } else {
            out.hop
        };
        self.stats.sent += 1;
        let info = || format!("hop n{}: {}", hop, out.env.msg);
        self.record(now, "send", out.env.src, info);
        if self.partitions.iter().any(|w| w.severs(now, from, hop)) {
            self.stats.severed += 1;
            self.record(now, "sever", out.env.src, info);
            return;
        }
        // The envelope moves into its delivery; only a duplicate clones.
        match self.active_fault.decide(&mut self.fault_rng) {
            Fate::Dropped => {
                self.stats.dropped += 1;
                self.record(now, "drop", out.env.src, info);
            }
            Fate::Once(delay) => {
                self.queue.push(now + delay.max(1), Ev::Deliver { hop, env: out.env });
            }
            Fate::Twice(first, second) => {
                self.stats.duplicated += 1;
                self.record(now, "dup", out.env.src, info);
                self.queue.push(now + first.max(1), Ev::Deliver { hop, env: out.env.clone() });
                self.queue.push(now + second.max(1), Ev::Deliver { hop, env: out.env });
            }
        }
    }

    /// Transmits a drained outbox and takes the emptied buffer back as
    /// the scratch for the next flush.
    fn transmit_all(&mut self, now: u64, from: NodeId, mut outgoing: Vec<Outgoing>) {
        for out in outgoing.drain(..) {
            self.transmit(now, from, out);
        }
        self.outgoing = outgoing;
    }

    /// Flushes a worker's outbox and hand-outs after it ran; a worker
    /// with nothing to flush costs one check.
    fn flush_node(&mut self, now: u64, id: NodeId) {
        let Some(node) = up_node(&mut self.slots, id).filter(|node| node.has_output()) else {
            return;
        };
        let mut outgoing = std::mem::take(&mut self.outgoing);
        let mut handouts = std::mem::take(&mut self.handouts);
        node.drain_outbox(&mut outgoing);
        node.drain_handouts(&mut handouts);
        for value in handouts.drain(..) {
            self.stats.handed += 1;
            self.record(now, "handout", id, || value.to_string());
            if let Some(violation) = self.checker.record(id, value, now) {
                self.record(now, "violation", id, || violation.clone());
                self.violations.push(violation);
            }
        }
        self.handouts = handouts;
        self.transmit_all(now, id, outgoing);
    }

    fn flush_replica(&mut self, now: u64, index: u64) {
        let Some(replica) = up_replica(&mut self.replicas, index).filter(|r| r.has_output()) else {
            return;
        };
        let mut outgoing = std::mem::take(&mut self.outgoing);
        replica.drain_outbox(&mut outgoing);
        self.transmit_all(now, replica_id(index), outgoing);
    }

    /// Runs `step` on every worker that is up, in id order (founders
    /// are `1..=workers`, joiners follow), flushing each one before the
    /// next runs.
    fn step_workers(&mut self, now: u64, step: fn(&mut Node, u64)) {
        for id in 1..=self.config.workers + self.config.joins {
            if let Some(node) = up_node(&mut self.slots, id) {
                step(node, now);
                if node.has_output() {
                    self.flush_node(now, id);
                }
            }
        }
    }

    /// Hands one arrived hop to the state machine that owns `hop`, or
    /// loses it when that machine is down.
    fn deliver(&mut self, now: u64, hop: NodeId, env: Envelope) {
        // Id 0 never arrives: transmit resolves it to a replica.
        let up = if hop >= REPLICA_BASE {
            up_replica(&mut self.replicas, hop - REPLICA_BASE).is_some()
        } else {
            up_node(&mut self.slots, hop).is_some()
        };
        if !up {
            self.stats.lost += 1;
            self.record(now, "lost", hop, || env.msg.to_string());
            return;
        }
        self.stats.delivered += 1;
        self.record(now, "deliver", hop, || env.msg.to_string());
        if hop >= REPLICA_BASE {
            let index = hop - REPLICA_BASE;
            if let Some(replica) = up_replica(&mut self.replicas, index) {
                replica.on_message(now, env);
            }
            self.flush_replica(now, index);
        } else {
            if let Some(node) = up_node(&mut self.slots, hop) {
                node.on_message(now, env);
            }
            self.flush_node(now, hop);
        }
    }

    /// The state the quiescence audit runs against: the best
    /// replica's — the current leader, else the highest `(term, commit)`
    /// survivor.
    fn authoritative_coord(&self) -> Option<&CoordinatorDurable> {
        self.replicas
            .iter()
            .filter_map(|slot| match slot {
                ReplicaSlot::Up(r) => Some(r),
                ReplicaSlot::Down(_) => None,
            })
            .max_by_key(|r| (r.is_leader(), r.term(), r.commit()))
            .map(|r| r.coord())
    }

    /// Every worker (founders, joiners, leavers) is up and
    /// sealed-acknowledged.
    fn done(&self) -> bool {
        self.draining
            && self.slots.iter().flatten().all(|slot| match slot {
                Slot::Up(node) => node.is_sealed_acked(),
                Slot::Down(_) => false,
            })
    }
}

/// Runs one simulated cluster lifetime. See the [module docs](self).
#[must_use]
pub fn run_sim(config: &ClusterSimConfig, seed: u64) -> SimReport {
    let config = *config;
    let root = SimRng::new(seed);
    let mut plan_rng = root.fork(1);
    let fault_rng = root.fork(2);

    let founders: Vec<NodeId> = (1..=config.workers).collect();

    let group = config.replicas.max(1);
    let replicas: Vec<ReplicaSlot> = (0..group)
        .map(|index| armed(Replica::new(index, group, &[], config.protocol), config.mutation))
        .collect();

    let mut slots: Vec<Option<Slot>> = (0..=config.workers + config.joins).map(|_| None).collect();
    for &id in &founders {
        slots[id as usize] = Some(Slot::Up(Box::new(Node::new(id, config.protocol))));
    }

    let mut queue = EventQueue::new();
    queue.push(0, Ev::Tick);
    queue.push(config.horizon, Ev::Drain);

    // Demand plan: founders draw over the whole window, joiners from
    // their join time on.
    let horizon = config.horizon.max(1);
    for &id in &founders {
        for _ in 0..config.demand_per_node {
            queue.push(plan_rng.below(horizon), Ev::Demand { node: id });
        }
    }
    for j in 0..config.joins {
        let id = config.workers + 1 + j;
        let join_at = plan_rng.range(horizon / 5, horizon / 2);
        queue.push(join_at, Ev::Join { node: id });
        for _ in 0..config.demand_per_node {
            queue.push(plan_rng.range(join_at, horizon), Ev::Demand { node: id });
        }
    }
    // Churn plan: each crash gets its deterministic restart; leaves hit
    // founders (fire-time checks skip targets that are down or gone).
    for _ in 0..config.crashes {
        if config.workers == 0 {
            break;
        }
        let node = 1 + plan_rng.below(config.workers);
        let at = plan_rng.range(horizon / 10, (horizon * 4) / 5);
        let down_for = plan_rng.range(DOWN_FOR, DOWN_FOR * 3);
        queue.push(at, Ev::Crash { node });
        queue.push(at + down_for, Ev::Restart { node });
    }
    for _ in 0..config.leaves {
        if config.workers == 0 {
            break;
        }
        let node = 1 + plan_rng.below(config.workers);
        let at = plan_rng.range(horizon / 4, (horizon * 3) / 4);
        queue.push(at, Ev::Leave { node });
    }
    // Replica fault plan. These draws come *after* every worker draw, so
    // they never shift the worker plan, and a group of one skips them:
    // its only replica is never crashed or cut off.
    let lease = config.protocol.lease_ticks.max(1);
    for _ in 0..config.replica_crashes {
        if config.replicas <= 1 {
            break;
        }
        let index = plan_rng.below(config.replicas);
        let at = plan_rng.range(horizon / 10, (horizon * 4) / 5);
        let down_for = plan_rng.range(lease * 2, lease * 6);
        queue.push(at, Ev::ReplicaCrash { index });
        queue.push(at + down_for, Ev::ReplicaRestart { index });
    }
    let mut partitions = Vec::new();
    for window in 0..config.partitions {
        if config.replicas <= 1 {
            break;
        }
        // Isolate one replica from the rest of the group. Workers sit
        // on neither side, so they still reach *both* halves — the
        // split-brain shape a stale leader needs to double-grant. The
        // first window always cuts replica 0 — the deterministic
        // initial leader, so the most adversarial target; later windows
        // pick at random (the draw still happens so the rng stream does
        // not depend on the window index).
        let drawn = plan_rng.below(config.replicas);
        let isolated = if window == 0 { 0 } else { drawn };
        let start = plan_rng.range(horizon / 10, (horizon * 3) / 5);
        let duration = plan_rng.range(lease * 3, lease * 8);
        partitions.push(PartitionWindow {
            start,
            end: (start + duration).min(horizon),
            side_a: vec![replica_id(isolated)],
            side_b: (0..config.replicas).filter(|&i| i != isolated).map(replica_id).collect(),
        });
    }

    let mut harness = Harness {
        config,
        replicas,
        rotation: 0,
        slots,
        left: std::collections::BTreeSet::new(),
        queue,
        fault_rng,
        active_fault: config.fault,
        partitions,
        checker: GlobalChecker::new(),
        violations: Vec::new(),
        stats: SimStats::default(),
        trace: Vec::new(),
        trace_seq: 0,
        draining: false,
        outgoing: Vec::new(),
        handouts: Vec::new(),
    };
    for index in 0..group {
        harness.flush_replica(0, index);
    }

    let mut capped = false;
    while let Some((now, _, ev)) = harness.queue.pop() {
        if harness.stats.events == config.max_events {
            capped = true;
            break;
        }
        harness.stats.events += 1;
        match ev {
            Ev::Tick => {
                for index in 0..group {
                    if let Some(replica) = up_replica(&mut harness.replicas, index) {
                        replica.on_tick(now);
                        if replica.has_output() {
                            harness.flush_replica(now, index);
                        }
                    }
                }
                harness.step_workers(now, Node::on_tick);
                if !harness.done() {
                    harness.queue.push(now + TICK_EVERY, Ev::Tick);
                }
            }
            Ev::Deliver { hop, env } => harness.deliver(now, hop, env),
            Ev::Demand { node } => {
                let servable = !harness.left.contains(&node) && !harness.draining;
                match up_node(&mut harness.slots, node) {
                    Some(n) if servable => {
                        n.demand(now, 1);
                        harness.flush_node(now, node);
                    }
                    _ => harness.stats.demand_skipped += 1,
                }
            }
            Ev::Crash { node } => {
                let crashed = match up_node(&mut harness.slots, node) {
                    Some(n) if !harness.left.contains(&node) => Some(n.durable().clone()),
                    _ => None,
                };
                if let Some(durable) = crashed {
                    harness.slots[node as usize] = Some(Slot::Down(durable));
                    harness.stats.crashes += 1;
                    harness.record(now, "crash", node, String::new);
                }
            }
            Ev::Restart { node } => {
                let durable = match harness.slots.get(node as usize) {
                    Some(Some(Slot::Down(d))) => Some(d.clone()),
                    _ => None,
                };
                if let Some(durable) = durable {
                    let recover = config.mutation != Some(Mutation::SkipRecovery);
                    let mut revived = Node::restart(durable, config.protocol, recover);
                    if harness.draining {
                        revived.begin_drain(now);
                    }
                    harness.slots[node as usize] = Some(Slot::Up(Box::new(revived)));
                    harness.stats.restarts += 1;
                    harness.record(now, "restart", node, String::new);
                    harness.flush_node(now, node);
                }
            }
            Ev::Join { node } => {
                if let Some(slot @ None) = harness.slots.get_mut(node as usize) {
                    *slot = Some(Slot::Up(Box::new(Node::new(node, config.protocol))));
                    harness.stats.joins += 1;
                    harness.record(now, "join", node, String::new);
                }
            }
            Ev::Leave { node } => {
                let eligible = !harness.left.contains(&node) && !harness.draining;
                let leaving =
                    up_node(&mut harness.slots, node).filter(|n| eligible && !n.durable().sealed);
                if let Some(n) = leaving {
                    n.begin_leave(now);
                    harness.left.insert(node);
                    harness.stats.leaves += 1;
                    harness.record(now, "leave", node, String::new);
                    harness.flush_node(now, node);
                }
            }
            Ev::ReplicaCrash { index } => {
                if let Some(slot) = harness.replicas.get_mut(index as usize) {
                    if let ReplicaSlot::Up(replica) = slot {
                        *slot = ReplicaSlot::Down(replica.durable().clone());
                        harness.stats.replica_crashes += 1;
                        harness.record(now, "replica-crash", replica_id(index), String::new);
                    }
                }
            }
            Ev::ReplicaRestart { index } => {
                if let Some(slot) = harness.replicas.get_mut(index as usize) {
                    if let ReplicaSlot::Down(durable) = slot {
                        let replica =
                            Replica::restart(index, group, config.protocol, durable.clone(), now);
                        *slot = armed(replica, config.mutation);
                        harness.stats.replica_restarts += 1;
                        harness.record(now, "replica-restart", replica_id(index), String::new);
                        harness.flush_replica(now, index);
                    }
                }
            }
            Ev::Drain => {
                harness.draining = true;
                // Faults off: the drain must converge.
                harness.active_fault = FaultPlan::reliable(1);
                harness.record(now, "drain", COORDINATOR, String::new);
                harness.step_workers(now, Node::begin_drain);
            }
        }
        if harness.done() {
            break;
        }
    }

    let converged = harness.done();
    if !converged {
        let stuck: Vec<String> = harness
            .slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| match slot.as_ref()? {
                Slot::Up(node) if !node.is_sealed_acked() => Some(format!("n{id} unsealed")),
                Slot::Down(_) => Some(format!("n{id} down")),
                Slot::Up(_) => None,
            })
            .collect();
        let why = if capped { "event cap hit" } else { "event queue ran dry" };
        harness
            .violations
            .push(format!("liveness: {why} before drain converged ({})", stuck.join(", ")));
    } else {
        let mut audit = match harness.authoritative_coord() {
            Some(durable) => harness.checker.finalize(durable),
            None => vec!["audit: no surviving replica holds coordinator state".to_owned()],
        };
        for violation in &audit {
            harness.record(harness.queue.now(), "violation", COORDINATOR, || violation.clone());
        }
        harness.violations.append(&mut audit);
    }

    let (cursor, free_total) = match harness.authoritative_coord() {
        Some(durable) => (durable.cursor, durable.free.iter().map(|b| b.len).sum()),
        None => (0, 0),
    };
    SimReport {
        seed,
        handed: harness.checker.handed(),
        unique: harness.checker.unique(),
        converged,
        cursor,
        free_total,
        final_tick: harness.queue.now(),
        violations: harness.violations,
        stats: harness.stats,
        trace: if config.record_trace {
            Some(ClusterTrace { seed, events: harness.trace })
        } else {
            None
        },
    }
}

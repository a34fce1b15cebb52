//! The worker node state machine.
//!
//! A [`Node`] is sans-IO: drivers feed it envelopes ([`Node::on_message`]),
//! virtual-time ticks ([`Node::on_tick`]) and local demand
//! ([`Node::demand`]); it emits sends through an outbox
//! ([`Node::drain_outbox`]) and handed-out global values through
//! [`Node::drain_handouts`]. The same state machine runs under the
//! deterministic simulation and under real threads ([`crate::live`]).
//!
//! Local serving goes through a real [`CounterService`] registry: the
//! node's tenant stream index (the registry watermark) maps through the
//! node's block ledger to a global value. Everything the protocol needs
//! to survive a crash lives in [`NodeDurable`]; a restart replays it —
//! the local watermark through
//! [`CounterService::restore_watermark`] (eviction-style resume), and an
//! in-doubt lease request through a recovery query the coordinator
//! answers from its grant log or tombstones.

use std::sync::Arc;

use counting_runtime::SharedCounter;
use counting_service::{CounterService, ServiceConfig, TenantCounter};

use crate::message::{
    next_hop, tree_children, Block, Envelope, Message, NodeId, Outgoing, COORDINATOR,
};

/// The tenant name a node's global stream lives under in its local
/// registry.
pub const CLUSTER_TENANT: &str = "cluster/global";

/// Protocol timing and sizing knobs, in virtual ticks. One config is
/// shared by nodes and coordinator so the failure detector and the
/// heartbeat period agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Heartbeat period.
    pub heartbeat_every: u64,
    /// Retry period for unanswered requests, returns and membership
    /// rebroadcasts.
    pub retry_after: u64,
    /// Silence after which the coordinator declares a worker dead.
    pub fail_after: u64,
    /// Minimum block length a node requests.
    pub lease_quantum: u64,
    /// Maximum block length a node requests at once.
    pub max_lease: u64,
    /// Tree-routed attempts per request before falling back to a
    /// direct send (routes around dead relays).
    pub tree_attempts: u32,
    /// Replicated coordinator only ([`crate::replica`]): how long a
    /// follower's append ack keeps counting toward the leader's lease,
    /// and (doubled, plus a per-replica stagger) the election timeout.
    pub lease_ticks: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            heartbeat_every: 25,
            retry_after: 60,
            fail_after: 160,
            lease_quantum: 16,
            max_lease: 256,
            tree_attempts: 2,
            lease_ticks: 80,
        }
    }
}

/// One outstanding lease request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingLease {
    /// The request id (per-node monotonic).
    pub req_id: u64,
    /// The requested length.
    pub want: u64,
}

/// Everything a node persists: the state a crash-restart replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDurable {
    /// This node's id.
    pub id: NodeId,
    /// Granted blocks, in grant order (requests are issued one at a
    /// time, so grant order equals request-id order).
    pub ledger: Vec<Block>,
    /// Total values ever handed out locally — the local watermark the
    /// restart re-seeds the registry with.
    pub consumed: u64,
    /// Next fresh request id.
    pub next_req: u64,
    /// The in-doubt request a restart must resolve before issuing new
    /// ones.
    pub pending: Option<PendingLease>,
    /// Whether the node has sealed its stream (sent its final
    /// `Return`).
    pub sealed: bool,
    /// Whether the seal is a membership leave (vs. an end-of-run
    /// drain).
    pub leaving: bool,
}

impl NodeDurable {
    fn fresh(id: NodeId) -> Self {
        Self {
            id,
            ledger: Vec::new(),
            consumed: 0,
            next_req: 0,
            pending: None,
            sealed: false,
            leaving: false,
        }
    }
}

/// The worker state machine. See the [module docs](self).
#[derive(Debug)]
pub struct Node {
    config: ProtocolConfig,
    durable: NodeDurable,
    service: CounterService,
    counter: Arc<TenantCounter>,
    view_epoch: u64,
    view: Vec<NodeId>,
    joined: bool,
    backlog: u64,
    draining: bool,
    sealed_acked: bool,
    recovering: bool,
    attempts: u32,
    last_request: Option<u64>,
    last_heartbeat: Option<u64>,
    last_join: Option<u64>,
    last_return: Option<u64>,
    return_attempts: u32,
    outbox: Vec<Outgoing>,
    handouts: Vec<u64>,
}

fn local_service() -> CounterService {
    // A node's global uniqueness comes from disjoint leased blocks, so the
    // registry's watermark machinery (not a network) is what the protocol
    // leans on. One thread drives a node and never fails a CAS, so its
    // tenant stays a compact word; the service builds a network only for
    // a tenant that inflates, so none is ever built here.
    CounterService::new(ServiceConfig { shards: 1, ..ServiceConfig::default() })
}

fn due(last: Option<u64>, now: u64, every: u64) -> bool {
    last.is_none_or(|t| now.saturating_sub(t) >= every)
}

impl Node {
    /// A founding member booting with the bootstrap member list at
    /// epoch 1 (`members` includes the coordinator).
    #[must_use]
    pub fn bootstrap(id: NodeId, config: ProtocolConfig, mut members: Vec<NodeId>) -> Self {
        members.sort_unstable();
        let joined = members.contains(&id);
        let mut node = Self::from_parts(NodeDurable::fresh(id), config, true);
        node.view_epoch = 1;
        node.view = members;
        node.joined = joined;
        node
    }

    /// A brand-new node that knows only the coordinator's address; it
    /// sends `Join` until a membership containing it arrives.
    #[must_use]
    pub fn fresh(id: NodeId, config: ProtocolConfig) -> Self {
        Self::from_parts(NodeDurable::fresh(id), config, true)
    }

    /// Rebuilds a node from its durable state after a crash.
    ///
    /// `recover_watermark` replays the persisted local watermark into
    /// the fresh registry ([`CounterService::restore_watermark`]); it is
    /// `false` only under the calibration mutation
    /// [`crate::sim::Mutation::SkipRecovery`], which makes the rebuilt
    /// stream restart at zero and re-hand old values — the duplicate the
    /// online checker must catch. An in-doubt pending request switches
    /// the node into recovery: it queries the coordinator about exactly
    /// that request id before issuing any new one.
    #[must_use]
    pub fn restart(durable: NodeDurable, config: ProtocolConfig, recover_watermark: bool) -> Self {
        let mut node = Self::from_parts(durable, config, recover_watermark);
        node.recovering = node.durable.pending.is_some();
        if node.recovering {
            let pending = node.durable.pending.expect("checked above");
            node.send_up(
                Message::RecoverQuery { node: node.durable.id, req_id: pending.req_id },
                true,
            );
        }
        node
    }

    fn from_parts(durable: NodeDurable, config: ProtocolConfig, recover_watermark: bool) -> Self {
        let service = local_service();
        if recover_watermark && durable.consumed > 0 {
            let restored = service.restore_watermark(CLUSTER_TENANT, durable.consumed);
            debug_assert!(restored, "no tenant can be live in a fresh registry");
        }
        let counter = service.get_or_create(CLUSTER_TENANT);
        Self {
            config,
            durable,
            service,
            counter,
            view_epoch: 0,
            view: Vec::new(),
            joined: false,
            backlog: 0,
            draining: false,
            sealed_acked: false,
            recovering: false,
            attempts: 0,
            last_request: None,
            last_heartbeat: None,
            last_join: None,
            last_return: None,
            return_attempts: 0,
            outbox: Vec::new(),
            handouts: Vec::new(),
        }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.durable.id
    }

    /// The state a crash would preserve.
    #[must_use]
    pub fn durable(&self) -> &NodeDurable {
        &self.durable
    }

    /// The node's local registry (one tenant: the global stream).
    #[must_use]
    pub fn service(&self) -> &CounterService {
        &self.service
    }

    /// Whether the node appears in its own membership view.
    #[must_use]
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Whether the node's final `Return` has been acknowledged — the
    /// per-node termination condition of a drain or leave.
    #[must_use]
    pub fn is_sealed_acked(&self) -> bool {
        self.sealed_acked
    }

    /// The membership epoch the node has adopted.
    #[must_use]
    pub fn view_epoch(&self) -> u64 {
        self.view_epoch
    }

    /// Unserved local demand.
    #[must_use]
    pub fn backlog(&self) -> u64 {
        self.backlog
    }

    /// Appends the sends decided since the last call to `into`; the
    /// outbox keeps its capacity, so a reused `into` never allocates.
    pub fn drain_outbox(&mut self, into: &mut Vec<Outgoing>) {
        into.append(&mut self.outbox);
    }

    /// Drains the sends decided since the last call.
    pub fn take_outbox(&mut self) -> Vec<Outgoing> {
        std::mem::take(&mut self.outbox)
    }

    /// Appends the global values handed out since the last call to
    /// `into` (capacity kept, as for [`Self::drain_outbox`]).
    pub fn drain_handouts(&mut self, into: &mut Vec<u64>) {
        into.append(&mut self.handouts);
    }

    /// Drains the global values handed out since the last call.
    pub fn take_handouts(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.handouts)
    }

    /// Accepts `n` units of local demand (ignored once
    /// sealing/draining).
    pub fn demand(&mut self, now: u64, n: u64) {
        if self.durable.sealed || self.durable.leaving || self.draining {
            return;
        }
        self.backlog += n;
        self.pump(now);
    }

    /// Enters end-of-run drain: unserved demand is abandoned and the
    /// node seals (returns its unconsumed tail) once its in-flight
    /// request resolves.
    pub fn begin_drain(&mut self, now: u64) {
        self.draining = true;
        self.backlog = 0;
        self.try_seal(now);
    }

    /// Starts a graceful membership leave (drain plus removal from the
    /// member list).
    pub fn begin_leave(&mut self, now: u64) {
        self.durable.leaving = true;
        self.backlog = 0;
        self.try_seal(now);
    }

    /// Handles one delivered envelope (relaying it if this node is not
    /// the destination).
    pub fn on_message(&mut self, now: u64, env: Envelope) {
        if env.dst != self.durable.id {
            let hop = next_hop(&self.view, self.durable.id, env.dst).unwrap_or(env.dst);
            self.outbox.push(Outgoing { hop, env });
            return;
        }
        match env.msg {
            Message::LeaseGrant { node, req_id, base, len } => {
                if node != self.durable.id || self.durable.sealed {
                    return;
                }
                match self.durable.pending {
                    Some(p) if p.req_id == req_id => {
                        self.durable.ledger.push(Block { base, len });
                        self.durable.pending = None;
                        self.recovering = false;
                        self.attempts = 0;
                        self.pump(now);
                        self.try_seal(now);
                    }
                    // A duplicate of an already-applied grant: the
                    // ledger already holds it; applying again would
                    // fork the stream.
                    _ => {}
                }
            }
            Message::RecoverNone { node, req_id } => {
                if node != self.durable.id {
                    return;
                }
                if let Some(p) = self.durable.pending {
                    if p.req_id == req_id {
                        // The in-doubt request is tombstoned: it was
                        // never granted and never will be, so a fresh
                        // id is safe.
                        self.durable.pending = None;
                        self.recovering = false;
                        self.attempts = 0;
                        self.pump(now);
                        self.try_seal(now);
                    }
                }
            }
            Message::Membership { epoch, mut members } => {
                if epoch < self.view_epoch {
                    return;
                }
                let adopted = epoch > self.view_epoch;
                if adopted {
                    members.sort_unstable();
                    self.view_epoch = epoch;
                    self.view = members;
                    self.joined = self.view.contains(&self.durable.id);
                }
                self.send_direct(
                    COORDINATOR,
                    Message::MembershipAck { node: self.durable.id, epoch: self.view_epoch },
                );
                if adopted {
                    // Propagate down the new tree exactly once per
                    // adoption; the coordinator re-sends directly to
                    // stragglers.
                    for child in tree_children(&self.view, self.durable.id) {
                        self.send_direct(
                            child,
                            Message::Membership {
                                epoch: self.view_epoch,
                                members: self.view.clone(),
                            },
                        );
                    }
                }
            }
            Message::ReturnAck { node, watermark } => {
                if node == self.durable.id
                    && self.durable.sealed
                    && watermark == self.durable.consumed
                {
                    self.sealed_acked = true;
                }
            }
            // Coordinator-bound and replica-group kinds addressed to a
            // worker are misrouted noise on a faulty network: ignore.
            Message::LeaseRequest { .. }
            | Message::RecoverQuery { .. }
            | Message::Heartbeat { .. }
            | Message::Join { .. }
            | Message::MembershipAck { .. }
            | Message::Return { .. }
            | Message::VoteRequest { .. }
            | Message::VoteReply { .. }
            | Message::Append { .. }
            | Message::AppendAck { .. } => {}
        }
    }

    /// Advances timers: join attempts, heartbeats, request/return
    /// retries, seal progress.
    pub fn on_tick(&mut self, now: u64) {
        let id = self.durable.id;
        if !self.joined && due(self.last_join, now, self.config.retry_after) {
            self.send_direct(COORDINATOR, Message::Join { node: id });
            self.last_join = Some(now);
        }
        let passive = self.durable.leaving && self.sealed_acked;
        if self.joined && !passive && due(self.last_heartbeat, now, self.config.heartbeat_every) {
            self.send_direct(COORDINATOR, Message::Heartbeat { node: id, epoch: self.view_epoch });
            self.last_heartbeat = Some(now);
        }
        if let Some(p) = self.durable.pending {
            if due(self.last_request, now, self.config.retry_after) {
                let msg = if self.recovering {
                    Message::RecoverQuery { node: id, req_id: p.req_id }
                } else {
                    Message::LeaseRequest { node: id, req_id: p.req_id, want: p.want }
                };
                let direct = self.attempts >= self.config.tree_attempts;
                self.send_up(msg, direct);
                self.last_request = Some(now);
                self.attempts += 1;
            }
        }
        self.try_seal(now);
        if self.durable.sealed
            && !self.sealed_acked
            && due(self.last_return, now, self.config.retry_after)
        {
            let msg = Message::Return {
                node: id,
                watermark: self.durable.consumed,
                leaving: self.durable.leaving,
            };
            let direct = self.return_attempts >= self.config.tree_attempts;
            self.send_up(msg, direct);
            self.last_return = Some(now);
            self.return_attempts += 1;
        }
    }

    /// Total values in the ledger.
    fn ledger_total(&self) -> u64 {
        self.durable.ledger.iter().map(|b| b.len).sum()
    }

    /// Maps a local stream index through the ledger to a global value.
    fn map_global(&self, idx: u64) -> u64 {
        let mut rem = idx;
        for block in &self.durable.ledger {
            if rem < block.len {
                return block.base + rem;
            }
            rem -= block.len;
        }
        unreachable!("callers check idx < ledger_total")
    }

    /// Serves backlog from the ledger, then requests more if demand
    /// outruns it.
    fn pump(&mut self, now: u64) {
        let total = self.ledger_total();
        while self.backlog > 0 && !self.durable.sealed {
            // The registry watermark is the node's local stream cursor;
            // after an honest restart it resumes exactly at the durable
            // watermark, the same way a re-created tenant resumes after
            // an eviction.
            let idx = self.counter.watermark();
            if idx >= total {
                break;
            }
            let idx = self.counter.next(0);
            self.handouts.push(self.map_global(idx));
            // Monotonic: the durable watermark never rewinds even if
            // the local registry were mis-seeded.
            self.durable.consumed = self.durable.consumed.max(self.counter.watermark());
            self.backlog -= 1;
        }
        self.maybe_request(now);
    }

    fn maybe_request(&mut self, now: u64) {
        if self.durable.sealed
            || self.durable.leaving
            || self.draining
            || self.recovering
            || self.durable.pending.is_some()
            || !self.joined
        {
            return;
        }
        let available = self.ledger_total().saturating_sub(self.counter.watermark());
        let deficit = self.backlog.saturating_sub(available);
        if deficit == 0 {
            return;
        }
        let want = deficit.clamp(self.config.lease_quantum, self.config.max_lease);
        let req_id = self.durable.next_req;
        self.durable.next_req += 1;
        self.durable.pending = Some(PendingLease { req_id, want });
        self.attempts = 0;
        self.send_up(Message::LeaseRequest { node: self.durable.id, req_id, want }, false);
        self.last_request = Some(now);
        self.attempts = 1;
    }

    /// Seals once draining/leaving and no request is in flight: the
    /// node's consumed count freezes and its unconsumed tail goes back.
    fn try_seal(&mut self, now: u64) {
        if !(self.draining || self.durable.leaving)
            || self.durable.sealed
            || self.durable.pending.is_some()
            || self.recovering
        {
            return;
        }
        self.durable.sealed = true;
        self.backlog = 0;
        let msg = Message::Return {
            node: self.durable.id,
            watermark: self.durable.consumed,
            leaving: self.durable.leaving,
        };
        self.send_up(msg, false);
        self.last_return = Some(now);
        self.return_attempts = 1;
    }

    /// Sends toward the coordinator: tree-routed, or direct after the
    /// configured attempts (or when the view has no route).
    fn send_up(&mut self, msg: Message, direct: bool) {
        let env = Envelope { src: self.durable.id, dst: COORDINATOR, msg };
        let hop = if direct {
            COORDINATOR
        } else {
            next_hop(&self.view, self.durable.id, COORDINATOR).unwrap_or(COORDINATOR)
        };
        self.outbox.push(Outgoing { hop, env });
    }

    fn send_direct(&mut self, to: NodeId, msg: Message) {
        self.outbox
            .push(Outgoing { hop: to, env: Envelope { src: self.durable.id, dst: to, msg } });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(node: &mut Node, now: u64, msg: Message) {
        let dst = node.id();
        node.on_message(now, Envelope { src: COORDINATOR, dst, msg });
    }

    #[test]
    fn serves_demand_from_granted_blocks_in_order() {
        let mut node = Node::bootstrap(1, ProtocolConfig::default(), vec![0, 1, 2]);
        assert!(node.is_joined());
        node.demand(0, 3);
        let out = node.take_outbox();
        assert_eq!(out.len(), 1, "one lease request for the whole backlog");
        let Message::LeaseRequest { node: n, req_id, want } = out[0].env.msg.clone() else {
            panic!("expected a lease request, got {:?}", out[0].env.msg);
        };
        assert_eq!((n, req_id), (1, 0));
        assert!(want >= 3);

        deliver(&mut node, 1, Message::LeaseGrant { node: 1, req_id: 0, base: 100, len: want });
        assert_eq!(node.take_handouts(), vec![100, 101, 102]);
        assert_eq!(node.durable().consumed, 3);

        // A duplicated grant must not extend the ledger again.
        deliver(&mut node, 2, Message::LeaseGrant { node: 1, req_id: 0, base: 100, len: want });
        node.demand(2, 1);
        assert_eq!(node.take_handouts(), vec![103], "the stream continues, no fork");
    }

    #[test]
    fn restart_resumes_the_stream_at_the_durable_watermark() {
        let mut node = Node::bootstrap(1, ProtocolConfig::default(), vec![0, 1]);
        node.demand(0, 2);
        let _ = node.take_outbox();
        deliver(&mut node, 1, Message::LeaseGrant { node: 1, req_id: 0, base: 40, len: 16 });
        assert_eq!(node.take_handouts(), vec![40, 41]);

        let durable = node.durable().clone();
        let mut revived = Node::restart(durable, ProtocolConfig::default(), true);
        assert!(revived.take_outbox().is_empty(), "no in-doubt request, nothing to recover");
        // The restarted node is not joined until a membership arrives,
        // but serving from its ledger needs no network.
        deliver(&mut revived, 5, Message::Membership { epoch: 2, members: vec![0, 1] });
        revived.demand(5, 2);
        assert_eq!(revived.take_handouts(), vec![42, 43], "resumed exactly past the crash");
    }

    #[test]
    fn restart_with_in_doubt_request_recovers_before_requesting() {
        let mut node = Node::bootstrap(1, ProtocolConfig::default(), vec![0, 1]);
        node.demand(0, 1);
        let _ = node.take_outbox(); // the request is "lost" with the crash
        let durable = node.durable().clone();
        assert!(durable.pending.is_some());

        let mut revived = Node::restart(durable, ProtocolConfig::default(), true);
        let out = revived.take_outbox();
        assert_eq!(out.len(), 1);
        assert!(
            matches!(out[0].env.msg, Message::RecoverQuery { node: 1, req_id: 0 }),
            "recovery asks about exactly the in-doubt id"
        );
        // Tombstoned: the node may use fresh ids again.
        deliver(&mut revived, 3, Message::RecoverNone { node: 1, req_id: 0 });
        assert!(revived.durable().pending.is_none());
        assert_eq!(revived.durable().next_req, 1, "the tombstoned id is never reused");
    }

    #[test]
    fn drain_seals_and_returns_the_unconsumed_tail() {
        let mut node = Node::bootstrap(2, ProtocolConfig::default(), vec![0, 2]);
        node.demand(0, 2);
        let _ = node.take_outbox();
        deliver(&mut node, 1, Message::LeaseGrant { node: 2, req_id: 0, base: 0, len: 16 });
        let _ = node.take_handouts();

        node.begin_drain(10);
        let out = node.take_outbox();
        let returns: Vec<_> =
            out.iter().filter(|o| matches!(o.env.msg, Message::Return { .. })).collect();
        assert_eq!(returns.len(), 1);
        assert!(
            matches!(returns[0].env.msg, Message::Return { node: 2, watermark: 2, leaving: false }),
            "the return carries the exact consumed watermark"
        );
        assert!(!node.is_sealed_acked());
        deliver(&mut node, 12, Message::ReturnAck { node: 2, watermark: 2 });
        assert!(node.is_sealed_acked());
        // Demand after sealing is refused, not silently mis-served.
        node.demand(13, 5);
        assert!(node.take_handouts().is_empty());
    }

    #[test]
    fn relays_envelopes_not_addressed_to_it() {
        let mut node = Node::bootstrap(1, ProtocolConfig::default(), vec![0, 1, 2, 3]);
        // members [0,1,2,3]: node 1 is at position 1, its children are
        // positions 3.. → node 3.
        let env = Envelope {
            src: COORDINATOR,
            dst: 3,
            msg: Message::LeaseGrant { node: 3, req_id: 0, base: 0, len: 4 },
        };
        node.on_message(0, env.clone());
        let out = node.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].hop, 3, "forwarded down the tree");
        assert_eq!(out[0].env, env, "envelope unchanged");
    }

    #[test]
    fn stale_membership_is_ignored_and_new_is_propagated() {
        let mut node = Node::bootstrap(1, ProtocolConfig::default(), vec![0, 1]);
        deliver(&mut node, 1, Message::Membership { epoch: 3, members: vec![0, 1, 2, 3] });
        assert_eq!(node.view_epoch(), 3);
        let out = node.take_outbox();
        assert!(
            out.iter().any(|o| matches!(o.env.msg, Message::MembershipAck { node: 1, epoch: 3 })),
            "adoption is acknowledged"
        );
        assert!(
            out.iter().any(|o| o.hop == 3 && matches!(o.env.msg, Message::Membership { .. })),
            "adoption fans out to tree children"
        );
        deliver(&mut node, 2, Message::Membership { epoch: 2, members: vec![0, 9] });
        assert_eq!(node.view_epoch(), 3, "stale epochs are inert");
        assert!(node.is_joined());
    }
}

//! The worker node state machine.
//!
//! A [`Node`] is sans-IO: drivers feed it envelopes ([`Node::on_message`]),
//! virtual-time ticks ([`Node::on_tick`]) and local demand
//! ([`Node::demand`]); it emits sends through an outbox
//! ([`Node::drain_outbox`]) and handed-out global values through
//! [`Node::drain_handouts`]. The same state machine runs under the
//! deterministic simulation and under real threads ([`crate::live`]).
//!
//! Local serving is a cursor over the node's local stream: stream index
//! `i` maps through the node's block ledger to a global value. One thread
//! drives a node, so the cursor is a plain `u64`. Everything the protocol
//! needs to survive a crash lives in [`NodeDurable`]; a restart replays
//! it — the cursor resumes at the durable watermark (the way a re-created
//! tenant resumes after an eviction), and an in-doubt lease request is
//! resolved through a recovery query the coordinator answers from its
//! grant log or tombstones.

use crate::message::{Block, Envelope, Message, NodeId, Outgoing, COORDINATOR};

/// Protocol timing and sizing knobs, in virtual ticks. One config is
/// shared by nodes and the coordinator group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Coordinator group ([`crate::replica`]): the leader's append
    /// period (an idle leader's appends are its heartbeats to the
    /// followers), and the per-replica stagger of the election timeout.
    /// Workers send no heartbeats.
    pub heartbeat_every: u64,
    /// Worker retry period for unanswered requests and returns.
    pub retry_after: u64,
    /// Minimum block length a node requests.
    pub lease_quantum: u64,
    /// Maximum block length a node requests at once.
    pub max_lease: u64,
    /// Coordinator group ([`crate::replica`]): how long a follower's
    /// append ack keeps counting toward the leader's lease, and
    /// (doubled, plus a per-replica stagger) the election timeout.
    pub lease_ticks: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            heartbeat_every: 25,
            retry_after: 60,
            lease_quantum: 16,
            max_lease: 256,
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
    /// Total values ever handed out locally — the local watermark a
    /// restart resumes the cursor at.
    pub consumed: u64,
    /// Next fresh request id.
    pub next_req: u64,
    /// The in-doubt request a restart must resolve before issuing new
    /// ones.
    pub pending: Option<PendingLease>,
    /// Whether the node has sealed its stream (sent its final
    /// `Return`).
    pub sealed: bool,
    /// Whether the node is leaving (vs. draining at the end of a run):
    /// a leaving node takes no more demand, across restarts too. The
    /// coordinator sees a leave only as the final `Return`.
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
    /// Values in `durable.ledger`, which only grows (one push site).
    ledger_total: u64,
    /// The next local stream index to hand out.
    cursor: u64,
    backlog: u64,
    draining: bool,
    sealed_acked: bool,
    recovering: bool,
    last_request: Option<u64>,
    last_return: Option<u64>,
    outbox: Vec<Outgoing>,
    handouts: Vec<u64>,
}

fn due(last: Option<u64>, now: u64, every: u64) -> bool {
    last.is_none_or(|t| now.saturating_sub(t) >= every)
}

impl Node {
    /// A brand-new node that knows only the coordinator's address. A
    /// founder and a joiner start alike: there is no member list to
    /// enter, so the first demand the ledger cannot serve sends a lease
    /// request.
    #[must_use]
    pub fn new(id: NodeId, config: ProtocolConfig) -> Self {
        Self::from_parts(NodeDurable::fresh(id), config, true)
    }

    /// Rebuilds a node from its durable state after a crash.
    ///
    /// `recover_watermark` resumes the cursor at the persisted local
    /// watermark; it is `false` only under the calibration mutation
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
            node.send(Message::RecoverQuery { node: node.durable.id, req_id: pending.req_id });
        }
        node
    }

    fn from_parts(durable: NodeDurable, config: ProtocolConfig, recover_watermark: bool) -> Self {
        let cursor = if recover_watermark { durable.consumed } else { 0 };
        let ledger_total = durable.ledger.iter().map(|b| b.len).sum();
        Self {
            config,
            durable,
            ledger_total,
            cursor,
            backlog: 0,
            draining: false,
            sealed_acked: false,
            recovering: false,
            last_request: None,
            last_return: None,
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

    /// Whether the node's final `Return` has been acknowledged — the
    /// per-node termination condition of a drain or leave.
    #[must_use]
    pub fn is_sealed_acked(&self) -> bool {
        self.sealed_acked
    }

    /// Unserved local demand.
    #[must_use]
    pub fn backlog(&self) -> u64 {
        self.backlog
    }

    /// Whether a send or a hand-out waits to be drained: a driver may
    /// skip the flush of a node without output.
    #[must_use]
    pub(crate) fn has_output(&self) -> bool {
        !self.outbox.is_empty() || !self.handouts.is_empty()
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

    /// Starts a graceful leave: the node takes no more demand and seals
    /// once its in-flight request resolves; that final `Return` is the
    /// leave.
    pub fn begin_leave(&mut self, now: u64) {
        self.durable.leaving = true;
        self.backlog = 0;
        self.try_seal(now);
    }

    /// Handles one delivered envelope. Every answer names the worker it
    /// is for, and one naming another worker is ignored.
    pub fn on_message(&mut self, now: u64, env: Envelope) {
        match env.msg {
            Message::LeaseGrant { node, req_id, base, len } => {
                if node != self.durable.id || self.durable.sealed {
                    return;
                }
                match self.durable.pending {
                    Some(p) if p.req_id == req_id => {
                        self.durable.ledger.push(Block { base, len });
                        self.ledger_total += len;
                        self.durable.pending = None;
                        self.recovering = false;
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
                        self.pump(now);
                        self.try_seal(now);
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
            | Message::Return { .. }
            | Message::VoteRequest { .. }
            | Message::VoteReply { .. }
            | Message::Append { .. }
            | Message::AppendAck { .. } => {}
        }
    }

    /// Advances timers: request/return retries, seal progress.
    pub fn on_tick(&mut self, now: u64) {
        let id = self.durable.id;
        if let Some(p) = self.durable.pending {
            if due(self.last_request, now, self.config.retry_after) {
                self.send(if self.recovering {
                    Message::RecoverQuery { node: id, req_id: p.req_id }
                } else {
                    Message::LeaseRequest { node: id, req_id: p.req_id, want: p.want }
                });
                self.last_request = Some(now);
            }
        }
        self.try_seal(now);
        if self.durable.sealed
            && !self.sealed_acked
            && due(self.last_return, now, self.config.retry_after)
        {
            self.send(Message::Return { node: id, watermark: self.durable.consumed });
            self.last_return = Some(now);
        }
    }

    /// Maps a local stream index through the ledger to a global value.
    /// The stream is served in order, so the index almost always falls
    /// in the newest block: search from the back.
    fn map_global(&self, idx: u64) -> u64 {
        let mut end = self.ledger_total;
        for block in self.durable.ledger.iter().rev() {
            let start = end - block.len;
            if idx >= start {
                return block.base + (idx - start);
            }
            end = start;
        }
        unreachable!("callers check idx < ledger_total")
    }

    /// Serves backlog from the ledger, then requests more if demand
    /// outruns it.
    fn pump(&mut self, now: u64) {
        let total = self.ledger_total;
        while self.backlog > 0 && !self.durable.sealed {
            // After an honest restart the cursor resumes exactly at the
            // durable watermark.
            let idx = self.cursor;
            if idx >= total {
                break;
            }
            self.cursor += 1;
            self.handouts.push(self.map_global(idx));
            // Monotonic: the durable watermark never rewinds even if
            // the cursor were mis-seeded.
            self.durable.consumed = self.durable.consumed.max(self.cursor);
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
        {
            return;
        }
        let available = self.ledger_total.saturating_sub(self.cursor);
        let deficit = self.backlog.saturating_sub(available);
        if deficit == 0 {
            return;
        }
        let want = deficit.clamp(self.config.lease_quantum, self.config.max_lease);
        let req_id = self.durable.next_req;
        self.durable.next_req += 1;
        self.durable.pending = Some(PendingLease { req_id, want });
        self.send(Message::LeaseRequest { node: self.durable.id, req_id, want });
        self.last_request = Some(now);
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
        self.send(Message::Return { node: self.durable.id, watermark: self.durable.consumed });
        self.last_return = Some(now);
    }

    /// Sends straight to the virtual coordinator id; the driver picks
    /// the replica.
    fn send(&mut self, msg: Message) {
        let env = Envelope { src: self.durable.id, dst: COORDINATOR, msg };
        self.outbox.push(Outgoing { hop: COORDINATOR, env });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(node: &mut Node, now: u64, msg: Message) {
        let dst = node.id();
        node.on_message(now, Envelope { src: COORDINATOR, dst, msg });
    }

    /// The single send in `node`'s outbox, which must be a lease
    /// request straight to the coordinator id; returns its id and
    /// length.
    fn the_lease_request(node: &mut Node) -> (u64, u64) {
        let out = node.take_outbox();
        assert_eq!(out.len(), 1, "exactly one send: {out:?}");
        assert_eq!(out[0].hop, COORDINATOR, "requests go straight to the coordinator id");
        let Message::LeaseRequest { node: n, req_id, want } = out[0].env.msg else {
            panic!("expected a lease request, got {:?}", out[0].env.msg);
        };
        assert_eq!(n, node.id());
        (req_id, want)
    }

    #[test]
    fn serves_demand_from_granted_blocks_in_order() {
        let mut node = Node::new(1, ProtocolConfig::default());
        // The first demand asks at once: no join, no member list.
        node.demand(0, 1);
        let (req_id, want) = the_lease_request(&mut node);
        assert_eq!(req_id, 0);
        node.demand(0, 2);
        assert!(node.take_outbox().is_empty(), "one request in flight for the whole backlog");
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
        let mut node = Node::new(1, ProtocolConfig::default());
        node.demand(0, 2);
        let _ = node.take_outbox();
        deliver(&mut node, 1, Message::LeaseGrant { node: 1, req_id: 0, base: 40, len: 4 });
        assert_eq!(node.take_handouts(), vec![40, 41]);

        let durable = node.durable().clone();
        let mut revived = Node::restart(durable, ProtocolConfig::default(), true);
        assert!(revived.take_outbox().is_empty(), "no in-doubt request, nothing to recover");
        // Serving from the ledger needs no network.
        revived.demand(5, 2);
        assert_eq!(revived.take_handouts(), vec![42, 43], "resumed exactly past the crash");
        assert!(revived.take_outbox().is_empty());
        // Past the ledger it asks at once, without hearing from anyone
        // first, under the next fresh request id.
        revived.demand(6, 1);
        assert_eq!(the_lease_request(&mut revived).0, 1);
    }

    #[test]
    fn restart_with_in_doubt_request_recovers_before_requesting() {
        let mut node = Node::new(1, ProtocolConfig::default());
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
        let mut node = Node::new(2, ProtocolConfig::default());
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
            matches!(returns[0].env.msg, Message::Return { node: 2, watermark: 2 }),
            "the return carries the exact consumed watermark"
        );
        assert!(!node.is_sealed_acked());
        deliver(&mut node, 12, Message::ReturnAck { node: 2, watermark: 2 });
        assert!(node.is_sealed_acked());
        // Demand after sealing is refused, not silently mis-served.
        node.demand(13, 5);
        assert!(node.take_handouts().is_empty());
    }
}

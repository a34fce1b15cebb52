//! The coordinator state machine: the durable owner of the global
//! value space.
//!
//! The coordinator leases disjoint contiguous blocks from a cursor plus
//! a free-list, deduplicating by `(node, request id)` so a retried or
//! duplicated request re-sends the recorded grant instead of allocating
//! twice, and tombstoning in-doubt ids so a recovery answer of "never
//! granted" stays true forever. It versions membership in epochs
//! committed by a worker-majority quorum, propagates the member list
//! down the routing tree, and runs the heartbeat failure detector.
//! Sealing (a worker's final `Return`) truncates the worker's grants at
//! its consumed watermark and recycles the tail through the free-list —
//! which is exactly what makes the global stream end range-tiled.
//!
//! Like [`crate::node::Node`], the coordinator is sans-IO and split
//! into durable state ([`CoordinatorDurable`]) and volatile timers.

use std::collections::{BTreeMap, BTreeSet};

use crate::message::{
    next_hop, tree_children, Block, Envelope, Message, NodeId, Outgoing, COORDINATOR,
};
use crate::node::ProtocolConfig;

/// Everything the coordinator persists.
///
/// This struct is also the **replicated state machine** of the
/// replicated coordinator ([`crate::replica`]): the pure transition
/// helpers below ([`Self::lease_answer`], [`Self::lease_grant`],
/// [`Self::seal`], [`Self::admit`], [`Self::evict`],
/// [`Self::tombstone`], [`Self::bump_epoch`]) are shared by the
/// standalone [`Coordinator`] and by every replica applying committed
/// log entries, so a quorum of replicas applying the same command
/// sequence reaches the same durable state bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorDurable {
    /// First never-allocated value: allocation falls back here when the
    /// free-list is empty.
    pub cursor: u64,
    /// Returned, never-consumed runs available for re-lease (sorted by
    /// base).
    pub free: Vec<Block>,
    /// The grant log, keyed by `(worker, request id)`; sealing
    /// truncates a worker's entries to its consumed prefix.
    pub grants: BTreeMap<(NodeId, u64), Block>,
    /// Request ids answered "never granted" — permanently barred from
    /// allocation.
    pub tombstones: BTreeSet<(NodeId, u64)>,
    /// Sealed workers and their final consumed watermarks.
    pub sealed: BTreeMap<NodeId, u64>,
    /// Current membership epoch.
    pub epoch: u64,
    /// Current worker members (the coordinator itself is implicit).
    pub members: BTreeSet<NodeId>,
}

/// The already-decided part of a lease request: an answer that re-sends
/// or refuses without allocating anything new.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseAnswer {
    /// The request was answered before — re-send the recorded grant.
    Regrant(Block),
    /// The request is tombstoned (or its worker sealed): permanently
    /// refused.
    Refused,
}

impl CoordinatorDurable {
    /// The bootstrap state: epoch 1 with `workers` as founding members,
    /// nothing allocated.
    #[must_use]
    pub fn initial(workers: &[NodeId]) -> Self {
        Self {
            cursor: 0,
            free: Vec::new(),
            grants: BTreeMap::new(),
            tombstones: BTreeSet::new(),
            sealed: BTreeMap::new(),
            epoch: 1,
            members: workers.iter().copied().collect(),
        }
    }

    /// Steps 1–3 of lease handling, in the protocol's fixed order:
    /// tombstoned → refused; recorded (unless `no_dedup`) → re-grant;
    /// sealed worker → tombstone and refuse. `None` means the request
    /// is fresh and the caller may allocate ([`Self::lease_grant`]).
    pub fn lease_answer(
        &mut self,
        node: NodeId,
        req_id: u64,
        no_dedup: bool,
    ) -> Option<LeaseAnswer> {
        if self.tombstones.contains(&(node, req_id)) {
            return Some(LeaseAnswer::Refused);
        }
        if !no_dedup {
            if let Some(block) = self.grants.get(&(node, req_id)).copied() {
                return Some(LeaseAnswer::Regrant(block));
            }
        }
        if self.sealed.contains_key(&node) {
            // A sealed worker gets nothing new; tombstone so the answer
            // is final.
            self.tombstones.insert((node, req_id));
            return Some(LeaseAnswer::Refused);
        }
        None
    }

    /// Allocates a block for a fresh request and records the grant.
    /// Callers must have ruled out an existing answer via
    /// [`Self::lease_answer`] first.
    pub fn lease_grant(&mut self, node: NodeId, req_id: u64, want: u64) -> Block {
        let block = self.allocate(want.max(1));
        self.grants.insert((node, req_id), block);
        block
    }

    /// Takes a run from the free-list (first fit, possibly shorter than
    /// `want` — the worker simply asks again), else from the cursor.
    fn allocate(&mut self, want: u64) -> Block {
        if let Some(first) = self.free.first_mut() {
            let take = want.min(first.len);
            let block = Block { base: first.base, len: take };
            first.base += take;
            first.len -= take;
            if first.len == 0 {
                self.free.remove(0);
            }
            return block;
        }
        let block = Block { base: self.cursor, len: want };
        self.cursor += want;
        block
    }

    /// Seals `node` at `watermark`: truncates its grants (in request-id
    /// order — grant order, since workers keep one request in flight)
    /// to the consumed prefix and frees the tails. Idempotent: the
    /// watermark is monotonic and re-truncation frees nothing new.
    /// Returns `false` if the worker claims more than it was granted.
    pub fn seal(&mut self, node: NodeId, watermark: u64) -> bool {
        let recorded = self.sealed.get(&node).copied().unwrap_or(0);
        let watermark = recorded.max(watermark);
        self.sealed.insert(node, watermark);
        let reqs: Vec<u64> =
            self.grants.range((node, 0)..=(node, u64::MAX)).map(|(&(_, req), _)| req).collect();
        let mut remaining = watermark;
        for req in reqs {
            let block = self.grants.get_mut(&(node, req)).expect("collected above");
            if remaining >= block.len {
                remaining -= block.len;
                continue;
            }
            let keep = remaining;
            remaining = 0;
            let tail = Block { base: block.base + keep, len: block.len - keep };
            if keep == 0 {
                self.grants.remove(&(node, req));
            } else {
                block.len = keep;
            }
            self.push_free(tail);
        }
        remaining == 0
    }

    fn push_free(&mut self, block: Block) {
        if block.len == 0 {
            return;
        }
        let at = self.free.partition_point(|b| b.base < block.base);
        self.free.insert(at, block);
    }

    /// Adds `node` to the membership and bumps the epoch; a no-op
    /// (returning `false`) when the node is already a member or sealed
    /// — sealed ids never return.
    pub fn admit(&mut self, node: NodeId) -> bool {
        if self.members.contains(&node) || self.sealed.contains_key(&node) {
            return false;
        }
        self.members.insert(node);
        self.bump_epoch();
        true
    }

    /// Removes `node` from the membership *without* bumping the epoch
    /// (so a batch of evictions can share one bump); returns whether it
    /// was a member.
    pub fn evict(&mut self, node: NodeId) -> bool {
        self.members.remove(&node)
    }

    /// Advances the membership epoch (the durable half of an epoch
    /// change; broadcast and ack tracking are the driver's volatile
    /// concern).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Permanently bars `(node, req_id)` from allocation.
    pub fn tombstone(&mut self, node: NodeId, req_id: u64) {
        self.tombstones.insert((node, req_id));
    }
}

/// The coordinator state machine. See the [module docs](self).
#[derive(Debug)]
pub struct Coordinator {
    config: ProtocolConfig,
    durable: CoordinatorDurable,
    /// Calibration mutation: skip grant deduplication, so a duplicated
    /// request double-allocates and leaks the first block.
    no_dedup: bool,
    last_heard: BTreeMap<NodeId, u64>,
    acks: BTreeSet<NodeId>,
    committed: bool,
    deferred: Vec<(NodeId, u64, u64)>,
    last_broadcast: Option<u64>,
    outbox: Vec<Outgoing>,
}

impl Coordinator {
    /// A coordinator bootstrapping epoch 1 with `workers` as the
    /// founding members. The initial membership broadcast is already in
    /// the outbox.
    #[must_use]
    pub fn new(config: ProtocolConfig, workers: &[NodeId]) -> Self {
        Self::from_durable(CoordinatorDurable::initial(workers), config, 0, false)
    }

    /// Rebuilds a coordinator from its durable state (volatile timers
    /// reset; the current epoch is rebroadcast and must re-commit).
    #[must_use]
    pub fn from_durable(
        durable: CoordinatorDurable,
        config: ProtocolConfig,
        now: u64,
        no_dedup: bool,
    ) -> Self {
        let mut coordinator = Self {
            config,
            durable,
            no_dedup,
            last_heard: BTreeMap::new(),
            acks: BTreeSet::new(),
            committed: false,
            deferred: Vec::new(),
            last_broadcast: None,
            outbox: Vec::new(),
        };
        for worker in coordinator.durable.members.clone() {
            coordinator.last_heard.insert(worker, now);
        }
        coordinator.committed = coordinator.quorum() == 0;
        coordinator.broadcast_tree();
        coordinator.last_broadcast = Some(now);
        coordinator
    }

    /// Enables the grant-dedup calibration mutation
    /// ([`crate::sim::Mutation::GrantNoDedup`]).
    pub fn enable_grant_no_dedup(&mut self) {
        self.no_dedup = true;
    }

    /// The state a crash would preserve.
    #[must_use]
    pub fn durable(&self) -> &CoordinatorDurable {
        &self.durable
    }

    /// Whether the current epoch has reached its worker quorum.
    #[must_use]
    pub fn is_committed(&self) -> bool {
        self.committed
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

    /// Acks needed to commit an epoch: a majority of current workers.
    fn quorum(&self) -> usize {
        let n = self.durable.members.len();
        if n == 0 {
            0
        } else {
            n / 2 + 1
        }
    }

    /// The routing tree's member list: coordinator plus workers,
    /// sorted (the coordinator's id is the smallest, so it is the
    /// root).
    fn member_list(&self) -> Vec<NodeId> {
        let mut list = vec![COORDINATOR];
        list.extend(self.durable.members.iter().copied());
        list
    }

    /// Handles one delivered envelope (relaying if not the
    /// destination).
    pub fn on_message(&mut self, now: u64, env: Envelope) {
        if env.dst != COORDINATOR {
            let members = self.member_list();
            let hop = next_hop(&members, COORDINATOR, env.dst).unwrap_or(env.dst);
            self.outbox.push(Outgoing { hop, env });
            return;
        }
        match env.msg {
            Message::LeaseRequest { node, req_id, want } => {
                self.handle_lease(node, req_id, want);
            }
            Message::RecoverQuery { node, req_id } => {
                if let Some(block) = self.durable.grants.get(&(node, req_id)).copied() {
                    // The grant was recorded; the original answer may
                    // have been lost — re-send it (directly: the asker
                    // may have no routable view yet).
                    self.send_direct(
                        node,
                        Message::LeaseGrant { node, req_id, base: block.base, len: block.len },
                    );
                } else {
                    // Never granted. Tombstone first, so this answer
                    // can never be invalidated by a late duplicate of
                    // the original request.
                    self.durable.tombstone(node, req_id);
                    self.send_direct(node, Message::RecoverNone { node, req_id });
                }
            }
            Message::Heartbeat { node, epoch } => {
                self.last_heard.insert(node, now);
                self.readmit(now, node);
                if epoch < self.durable.epoch && self.durable.members.contains(&node) {
                    // The worker is behind: catch it up directly.
                    self.send_membership_direct(node);
                }
            }
            Message::Join { node } => {
                self.last_heard.insert(node, now);
                if self.durable.members.contains(&node) {
                    // Already a member (e.g. a restarted worker that
                    // lost its view): re-send the current membership.
                    self.send_membership_direct(node);
                } else {
                    self.readmit(now, node);
                }
            }
            Message::Return { node, watermark, leaving } => {
                let clean = self.durable.seal(node, watermark);
                debug_assert!(clean, "a worker can never consume more than it was granted");
                if leaving && self.durable.evict(node) {
                    self.acks.remove(&node);
                    self.bump_epoch(now);
                }
                self.send_direct(node, Message::ReturnAck { node, watermark });
            }
            Message::MembershipAck { node, epoch } => {
                if epoch == self.durable.epoch && self.durable.members.contains(&node) {
                    self.acks.insert(node);
                    self.maybe_commit();
                }
            }
            // Worker-bound kinds and replica-group kinds addressed to
            // the standalone coordinator are misrouted noise: ignore.
            Message::LeaseGrant { .. }
            | Message::RecoverNone { .. }
            | Message::Membership { .. }
            | Message::ReturnAck { .. }
            | Message::VoteRequest { .. }
            | Message::VoteReply { .. }
            | Message::Append { .. }
            | Message::AppendAck { .. } => {}
        }
    }

    /// Advances the failure detector and membership rebroadcast.
    pub fn on_tick(&mut self, now: u64) {
        let dead: Vec<NodeId> = self
            .durable
            .members
            .iter()
            .copied()
            .filter(|worker| {
                let heard = self.last_heard.get(worker).copied().unwrap_or(0);
                now.saturating_sub(heard) >= self.config.fail_after
            })
            .collect();
        if !dead.is_empty() {
            for worker in dead {
                self.durable.evict(worker);
                self.acks.remove(&worker);
            }
            self.bump_epoch(now);
        }
        if due(self.last_broadcast, now, self.config.retry_after) {
            let unacked: Vec<NodeId> =
                self.durable.members.iter().copied().filter(|w| !self.acks.contains(w)).collect();
            if !unacked.is_empty() {
                // Stragglers get the epoch directly — the tree path may
                // run through exactly the nodes that lost it.
                for worker in unacked {
                    self.send_membership_direct(worker);
                }
                self.last_broadcast = Some(now);
            }
        }
    }

    /// Admits (or re-admits) a worker the member list does not hold:
    /// sealed ids never return, live ones bump the epoch.
    fn readmit(&mut self, now: u64, node: NodeId) {
        if !self.durable.admit(node) {
            return;
        }
        self.last_heard.insert(node, now);
        self.epoch_changed(now);
    }

    fn bump_epoch(&mut self, now: u64) {
        self.durable.bump_epoch();
        self.epoch_changed(now);
    }

    /// The volatile half of an epoch change: reset ack tracking and
    /// rebroadcast the member list.
    fn epoch_changed(&mut self, now: u64) {
        self.acks.clear();
        self.committed = self.quorum() == 0;
        self.broadcast_tree();
        self.last_broadcast = Some(now);
        if self.committed {
            self.flush_deferred();
        }
    }

    fn maybe_commit(&mut self) {
        if !self.committed && self.acks.len() >= self.quorum() {
            self.committed = true;
            self.flush_deferred();
        }
    }

    fn flush_deferred(&mut self) {
        for (node, req_id, want) in std::mem::take(&mut self.deferred) {
            self.handle_lease(node, req_id, want);
        }
    }

    fn handle_lease(&mut self, node: NodeId, req_id: u64, want: u64) {
        match self.durable.lease_answer(node, req_id, self.no_dedup) {
            Some(LeaseAnswer::Regrant(block)) => {
                // A retry or a network duplicate: re-send the recorded
                // grant (directly — the tree already failed it once).
                self.send_direct(
                    node,
                    Message::LeaseGrant { node, req_id, base: block.base, len: block.len },
                );
                return;
            }
            Some(LeaseAnswer::Refused) => {
                self.send_direct(node, Message::RecoverNone { node, req_id });
                return;
            }
            None => {}
        }
        if !self.committed {
            // Grants pause until the current epoch commits; the request
            // is served (deduplicated) from the deferred queue.
            if !self.deferred.iter().any(|&(n, r, _)| (n, r) == (node, req_id)) {
                self.deferred.push((node, req_id, want));
            }
            return;
        }
        let block = self.durable.lease_grant(node, req_id, want);
        let msg = Message::LeaseGrant { node, req_id, base: block.base, len: block.len };
        let members = self.member_list();
        let hop = next_hop(&members, COORDINATOR, node).unwrap_or(node);
        self.outbox.push(Outgoing { hop, env: Envelope { src: COORDINATOR, dst: node, msg } });
    }

    fn broadcast_tree(&mut self) {
        let members = self.member_list();
        let msg = Message::Membership { epoch: self.durable.epoch, members: members.clone() };
        for child in tree_children(&members, COORDINATOR) {
            self.outbox.push(Outgoing {
                hop: child,
                env: Envelope { src: COORDINATOR, dst: child, msg: msg.clone() },
            });
        }
    }

    fn send_membership_direct(&mut self, worker: NodeId) {
        let msg = Message::Membership { epoch: self.durable.epoch, members: self.member_list() };
        self.send_direct(worker, msg);
    }

    fn send_direct(&mut self, to: NodeId, msg: Message) {
        self.outbox.push(Outgoing { hop: to, env: Envelope { src: COORDINATOR, dst: to, msg } });
    }
}

fn due(last: Option<u64>, now: u64, every: u64) -> bool {
    last.is_none_or(|t| now.saturating_sub(t) >= every)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(c: &mut Coordinator, now: u64, msg: Message) {
        c.on_message(now, Envelope { src: 1, dst: COORDINATOR, msg });
    }

    fn commit_epoch(c: &mut Coordinator, now: u64) {
        let epoch = c.durable().epoch;
        for worker in c.durable().members.clone() {
            c.on_message(
                now,
                Envelope {
                    src: worker,
                    dst: COORDINATOR,
                    msg: Message::MembershipAck { node: worker, epoch },
                },
            );
        }
        assert!(c.is_committed());
    }

    fn grant_of(out: &[Outgoing]) -> Option<(NodeId, u64, Block)> {
        out.iter().find_map(|o| match o.env.msg {
            Message::LeaseGrant { node, req_id, base, len } => {
                Some((node, req_id, Block { base, len }))
            }
            _ => None,
        })
    }

    #[test]
    fn duplicate_requests_get_the_same_block() {
        let mut c = Coordinator::new(ProtocolConfig::default(), &[1, 2]);
        let _ = c.take_outbox();
        commit_epoch(&mut c, 0);
        deliver(&mut c, 1, Message::LeaseRequest { node: 1, req_id: 0, want: 16 });
        let first = grant_of(&c.take_outbox()).expect("granted");
        deliver(&mut c, 2, Message::LeaseRequest { node: 1, req_id: 0, want: 16 });
        let second = grant_of(&c.take_outbox()).expect("re-sent");
        assert_eq!(first, second, "dedup re-sends the recorded grant");
        assert_eq!(c.durable().cursor, 16, "one allocation, not two");

        deliver(&mut c, 3, Message::LeaseRequest { node: 1, req_id: 1, want: 16 });
        let third = grant_of(&c.take_outbox()).expect("granted");
        assert_eq!(third.2.base, 16, "fresh ids allocate fresh disjoint blocks");
    }

    #[test]
    fn grants_pause_until_the_epoch_commits() {
        let mut c = Coordinator::new(ProtocolConfig::default(), &[1, 2, 3]);
        let _ = c.take_outbox();
        deliver(&mut c, 1, Message::LeaseRequest { node: 1, req_id: 0, want: 8 });
        assert!(grant_of(&c.take_outbox()).is_none(), "uncommitted epoch defers grants");
        commit_epoch(&mut c, 2);
        let granted = grant_of(&c.take_outbox()).expect("deferred request served on commit");
        assert_eq!(granted.0, 1);
    }

    #[test]
    fn recovery_tombstones_unknown_requests_forever() {
        let mut c = Coordinator::new(ProtocolConfig::default(), &[1]);
        let _ = c.take_outbox();
        commit_epoch(&mut c, 0);
        deliver(&mut c, 1, Message::RecoverQuery { node: 1, req_id: 0 });
        let out = c.take_outbox();
        assert!(out
            .iter()
            .any(|o| matches!(o.env.msg, Message::RecoverNone { node: 1, req_id: 0 })));
        // The late duplicate of the original request must NOT allocate:
        // the recovery answer said "never granted".
        deliver(&mut c, 2, Message::LeaseRequest { node: 1, req_id: 0, want: 8 });
        assert!(grant_of(&c.take_outbox()).is_none());
        assert_eq!(c.durable().cursor, 0);
    }

    #[test]
    fn seal_truncates_grants_and_recycles_the_tail() {
        let mut c = Coordinator::new(ProtocolConfig::default(), &[1, 2]);
        let _ = c.take_outbox();
        commit_epoch(&mut c, 0);
        deliver(&mut c, 1, Message::LeaseRequest { node: 1, req_id: 0, want: 10 });
        let _ = c.take_outbox();
        // The worker consumed 4 of its 10, then drained.
        deliver(&mut c, 5, Message::Return { node: 1, watermark: 4, leaving: false });
        let out = c.take_outbox();
        assert!(out
            .iter()
            .any(|o| matches!(o.env.msg, Message::ReturnAck { node: 1, watermark: 4 })));
        assert_eq!(c.durable().free, vec![Block { base: 4, len: 6 }]);
        // Idempotent: a duplicated Return frees nothing new.
        deliver(&mut c, 6, Message::Return { node: 1, watermark: 4, leaving: false });
        let _ = c.take_outbox();
        assert_eq!(c.durable().free, vec![Block { base: 4, len: 6 }]);
        // The tail is re-leased before the cursor moves.
        deliver(&mut c, 7, Message::LeaseRequest { node: 2, req_id: 0, want: 6 });
        let granted = grant_of(&c.take_outbox()).expect("granted");
        assert_eq!(granted.2, Block { base: 4, len: 6 });
        assert_eq!(c.durable().cursor, 10);
    }

    #[test]
    fn leave_removes_the_member_and_sealed_ids_never_return() {
        let mut c = Coordinator::new(ProtocolConfig::default(), &[1, 2]);
        let _ = c.take_outbox();
        commit_epoch(&mut c, 0);
        let epoch_before = c.durable().epoch;
        deliver(&mut c, 1, Message::Return { node: 1, watermark: 0, leaving: true });
        assert!(!c.durable().members.contains(&1));
        assert_eq!(c.durable().epoch, epoch_before + 1);
        // Late heartbeats and joins from the sealed id are inert.
        deliver(&mut c, 2, Message::Heartbeat { node: 1, epoch: 1 });
        deliver(&mut c, 3, Message::Join { node: 1 });
        assert!(!c.durable().members.contains(&1));
        // And its lease requests get a tombstoned no.
        deliver(&mut c, 4, Message::LeaseRequest { node: 1, req_id: 5, want: 8 });
        assert!(grant_of(&c.take_outbox()).is_none());
    }

    #[test]
    fn failure_detector_evicts_silent_workers_and_heartbeat_readmits() {
        let config = ProtocolConfig::default();
        let mut c = Coordinator::new(config, &[1, 2]);
        let _ = c.take_outbox();
        commit_epoch(&mut c, 0);
        // Worker 2 stays silent past fail_after; worker 1 keeps
        // heartbeating.
        deliver(&mut c, config.fail_after - 1, Message::Heartbeat { node: 1, epoch: 1 });
        c.on_tick(config.fail_after + 1);
        assert!(c.durable().members.contains(&1));
        assert!(!c.durable().members.contains(&2), "silent worker declared dead");
        let epoch_after_death = c.durable().epoch;
        // The "dead" worker was only partitioned: its next heartbeat
        // re-admits it under a fresh epoch.
        deliver(&mut c, config.fail_after + 2, Message::Heartbeat { node: 2, epoch: 1 });
        assert!(c.durable().members.contains(&2));
        assert_eq!(c.durable().epoch, epoch_after_death + 1);
    }

    #[test]
    fn no_dedup_mutation_double_allocates() {
        let mut c = Coordinator::new(ProtocolConfig::default(), &[1]);
        c.enable_grant_no_dedup();
        let _ = c.take_outbox();
        commit_epoch(&mut c, 0);
        deliver(&mut c, 1, Message::LeaseRequest { node: 1, req_id: 0, want: 8 });
        deliver(&mut c, 2, Message::LeaseRequest { node: 1, req_id: 0, want: 8 });
        assert_eq!(c.durable().cursor, 16, "the duplicate allocated a second block");
        assert_eq!(c.durable().grants.len(), 1, "…and the first block's record leaked");
    }
}

//! The coordinator: a replica group running a leader-leased quorum log.
//!
//! A [`Replica`] group is the cluster's only control plane: 1, 3 or 5
//! copies of the same state machine, each applying the same command
//! log. A group of one elects itself, commits its own appends and never
//! loses its lease; 3 or 5 survive replica crashes and partitions. The
//! consensus core is a deliberately small Raft subset:
//!
//! * **terms** — every replica holds a monotonic term; any message from
//!   a higher term forces a step-down, any from a lower term is inert;
//! * **run-carrying append** — a [`Message::Append`] carries the
//!   entries from the follower's next index on, with the previous
//!   entry's term as the consistency check, and truncates a follower's
//!   conflicting suffix. An accepting ack that moves the follower on
//!   sends the next single entry; a heartbeat, or the retry after a
//!   rejecting ack, sends every entry the follower lacks (up to
//!   `MAX_RUN`) as one run, and the follower acks the whole run at once.
//!   An ack that moves nothing — stale, duplicated or reordered — sends
//!   nothing (`Progress::on_ack`);
//! * **quorum commit** — an entry is committed once a majority of
//!   replicas hold it *and* it belongs to the current term (a `Noop`
//!   barrier appended at election commits any earlier-term tail);
//! * **leader lease** — the leader may answer clients only while a
//!   majority of followers acked an append within the last
//!   [`ProtocolConfig::lease_ticks`] ticks; when the lease lapses, a
//!   clean leader steps down and stops answering. Lease expiry on the
//!   follower side (no append for `2 * lease_ticks` plus a per-replica
//!   stagger) starts the next election.
//!
//! Deliberate non-goals, in scope order: no log compaction or snapshots
//! (the grant log is bounded — sealing truncates it), no dynamic
//! replica membership (the replica set is fixed at construction), no
//! pre-vote or leadership transfer.
//!
//! Workers never learn any of this: they keep addressing the virtual
//! [`COORDINATOR`] id 0, and the simulation rotates each such hop
//! over the group (`coordinator_hop`, `sim.rs`):
//! a request's retry loop is how a worker finds a new leader after a
//! partition. A follower forwards what reaches it to its leader hint —
//! except a [`Message::RecoverQuery`] it can answer *positively* from
//! committed state, which needs no new commit — and the leader drives
//! every client answer through the log: the grant, seal or tombstone is
//! sent only after the entry commits, so a leader that loses quorum can
//! never hand out state a successor will not have.
//!
//! The group keeps no worker membership: no heartbeats, no failure
//! detector, no member list. A worker is any unsealed id that asks for
//! a lease, a join is a fresh id that starts asking, and a leave is the
//! worker's final `Return`. A crashed worker recovers from its own
//! ledger and watermark, so nothing on this side waits for it.
//!
//! The durable state machine being replicated is exactly
//! [`CoordinatorDurable`]; applying a committed [`Command`] calls its
//! pure transition helpers, so a quorum replaying the same log reaches
//! bit-identical state.

use std::fmt;

use crate::coordinator::{CoordinatorDurable, LeaseAnswer};
use crate::message::{Entries, Envelope, Message, NodeId, Outgoing, COORDINATOR};
use crate::node::ProtocolConfig;

/// Replica ids live far above any worker id: replica `i` is
/// [`REPLICA_BASE`]` + i`.
pub const REPLICA_BASE: NodeId = 1 << 32;

/// The node id of replica `index`.
#[must_use]
pub fn replica_id(index: u64) -> NodeId {
    REPLICA_BASE + index
}

/// One replicated coordinator command — the log's payload alphabet.
/// Every variant is idempotent at apply time (re-applying a duplicate
/// entry re-derives the same answer), which is what makes duplicate
/// appends and re-proposals safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Serve `LeaseRequest { node, req_id, want }`.
    Lease {
        /// Requesting worker.
        node: NodeId,
        /// Per-node monotonic request id.
        req_id: u64,
        /// Requested block length.
        want: u64,
    },
    /// Serve `Return { node, watermark }`: seal the worker.
    Return {
        /// The sealing worker.
        node: NodeId,
        /// Total values the worker ever handed out.
        watermark: u64,
    },
    /// Answer `RecoverQuery { node, req_id }` with a durable "never
    /// granted" (unless a grant turns out to be recorded after all).
    Tombstone {
        /// Recovering worker.
        node: NodeId,
        /// The in-doubt request id.
        req_id: u64,
    },
    /// The term barrier a new leader appends to commit its
    /// predecessors' tail.
    Noop,
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Lease { node, req_id, want } => {
                write!(f, "lease n{node} r{req_id} want={want}")
            }
            Command::Return { node, watermark } => write!(f, "return n{node} w{watermark}"),
            Command::Tombstone { node, req_id } => write!(f, "tombstone n{node} r{req_id}"),
            Command::Noop => write!(f, "noop"),
        }
    }
}

/// One log slot: the command plus the term it was proposed in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The proposing leader's term.
    pub term: u64,
    /// The replicated command.
    pub cmd: Command,
}

/// What a replica persists across a crash: the Raft trio. The applied
/// coordinator state is *not* persisted — a restarted replica replays
/// its log as the leader re-advances its commit index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaDurable {
    /// Current term.
    pub term: u64,
    /// The candidate voted for in `term`, if any.
    pub voted_for: Option<NodeId>,
    /// The command log.
    pub log: Vec<LogEntry>,
}

/// The most entries one catch-up [`Message::Append`] carries.
const MAX_RUN: u64 = 64;

/// The leader's replication bookkeeping for one peer, reset when it
/// takes office (the Raft progress of Ongaro & Ousterhout §5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Progress {
    /// The next log index to send.
    next: u64,
    /// The longest log prefix the peer acknowledged holding.
    matched: u64,
    /// When the peer last acknowledged an append (the lease clock).
    acked_at: u64,
}

/// What the leader sends a peer in answer to one of its acks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resend {
    /// Nothing: the ack moved nothing, or the peer is caught up.
    Nothing,
    /// The single entry at the peer's new `next`.
    One,
    /// Every entry from the peer's `next`, up to [`MAX_RUN`].
    Run,
}

impl Progress {
    /// Folds one ack from the peer into its progress and decides the
    /// answer. An accepting ack is cumulative: it can only move `next`
    /// forward, and only an ack that did so earns the next entry — a
    /// stale or duplicated ack, whose entry is still in flight or
    /// already answered, sends nothing. A rejecting ack rewinds `next`
    /// to the peer's hint (its commit index, a prefix that always
    /// matches) and earns the whole missing run. Every ack refreshes the
    /// lease clock.
    fn on_ack(&mut self, now: u64, matched: u64, ok: bool, log_len: u64) -> Resend {
        self.acked_at = now;
        if !ok {
            self.next = matched;
            return if matched < log_len { Resend::Run } else { Resend::Nothing };
        }
        self.matched = self.matched.max(matched);
        if matched > self.next {
            self.next = matched;
            if matched < log_len {
                return Resend::One;
            }
        }
        Resend::Nothing
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Role {
    Follower,
    /// Votes granted so far, one bit per replica index (a member past
    /// the 64th cannot vote).
    Candidate {
        votes: u64,
    },
    Leader,
}

/// One member of the replicated coordinator group. Sans-IO like every
/// other state machine in this crate: feed it envelopes and ticks,
/// drain [`Self::drain_outbox`]. See the [module docs](self).
#[derive(Debug)]
pub struct Replica {
    id: NodeId,
    index: u64,
    peers: Vec<NodeId>,
    config: ProtocolConfig,
    durable: ReplicaDurable,
    /// Entries known committed (a count, so also the next apply index).
    commit: u64,
    /// Entries applied to `coord` (`== commit` after every event).
    applied: u64,
    /// The replicated state machine, at `applied` entries.
    coord: CoordinatorDurable,
    role: Role,
    leader_hint: Option<NodeId>,
    last_leader_contact: u64,
    // Leader-only replication bookkeeping, indexed by replica index
    // (this replica's own entry is unused).
    progress: Vec<Progress>,
    last_append: Option<u64>,
    outbox: Vec<Outgoing>,
    /// Calibration mutation: skip grant deduplication, so a duplicated
    /// request double-allocates and leaks the first block.
    no_dedup: bool,
    /// Calibration mutation: a leader whose lease lapsed keeps serving
    /// lease requests from its local copy, off the log.
    split_brain: bool,
    /// Calibration mutation: the commit (and lease) quorum is 1 — the
    /// leader's own ack suffices.
    commit_before_quorum: bool,
}

impl Replica {
    /// A fresh replica `index` of a group of `count`. All replicas boot
    /// as followers; the first election fires after the staggered
    /// timeout (replica 0 first).
    ///
    /// `founders` is ignored: the group keeps no member list (see the
    /// [module docs](self)). The parameter stays so existing callers
    /// keep compiling.
    #[must_use]
    pub fn new(index: u64, count: u64, founders: &[NodeId], config: ProtocolConfig) -> Self {
        let _ = founders;
        Self::restart(
            index,
            count,
            config,
            ReplicaDurable { term: 0, voted_for: None, log: Vec::new() },
            0,
        )
    }

    /// Rebuilds a replica from its persisted Raft state. The commit
    /// index and applied coordinator state are volatile: they rebuild
    /// as the current leader's appends re-advance `commit`.
    #[must_use]
    pub fn restart(
        index: u64,
        count: u64,
        config: ProtocolConfig,
        durable: ReplicaDurable,
        now: u64,
    ) -> Self {
        Self {
            id: replica_id(index),
            index,
            peers: (0..count).map(replica_id).collect(),
            config,
            durable,
            commit: 0,
            applied: 0,
            coord: CoordinatorDurable::initial(&[]),
            role: Role::Follower,
            leader_hint: None,
            last_leader_contact: now,
            progress: vec![Progress::default(); count as usize],
            last_append: None,
            outbox: Vec::new(),
            no_dedup: false,
            split_brain: false,
            commit_before_quorum: false,
        }
    }

    /// Enables the grant-dedup calibration mutation
    /// ([`crate::sim::Mutation::GrantNoDedup`]).
    pub fn enable_grant_no_dedup(&mut self) {
        self.no_dedup = true;
    }

    /// Enables the stale-leader calibration mutation
    /// ([`crate::sim::Mutation::SplitBrainDoubleGrant`]).
    pub fn enable_split_brain(&mut self) {
        self.split_brain = true;
    }

    /// Enables the minority-commit calibration mutation
    /// ([`crate::sim::Mutation::CommitBeforeQuorum`]).
    pub fn enable_commit_before_quorum(&mut self) {
        self.commit_before_quorum = true;
    }

    /// This replica's node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current term.
    #[must_use]
    pub fn term(&self) -> u64 {
        self.durable.term
    }

    /// Committed entry count.
    #[must_use]
    pub fn commit(&self) -> u64 {
        self.commit
    }

    /// Whether this replica currently believes it is the leader.
    #[must_use]
    pub fn is_leader(&self) -> bool {
        matches!(self.role, Role::Leader)
    }

    /// The applied coordinator state (committed prefix of the log).
    #[must_use]
    pub fn coord(&self) -> &CoordinatorDurable {
        &self.coord
    }

    /// The state a crash preserves.
    #[must_use]
    pub fn durable(&self) -> &ReplicaDurable {
        &self.durable
    }

    /// Whether a send waits to be drained: a driver may skip the flush
    /// of a replica without output.
    #[must_use]
    pub(crate) fn has_output(&self) -> bool {
        !self.outbox.is_empty()
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

    /// The earliest tick at which [`Self::on_tick`] can act: a follower's
    /// or candidate's election timeout, or a leader's next heartbeat or
    /// lease lapse, whichever comes first. Before it, `on_tick` sends
    /// nothing and changes nothing, so a driver may skip the call.
    #[must_use]
    pub fn next_tick(&self) -> u64 {
        match self.role {
            Role::Follower | Role::Candidate { .. } => {
                self.last_leader_contact.saturating_add(self.election_timeout())
            }
            Role::Leader => {
                if self.peers.len() < 2 {
                    return u64::MAX;
                }
                let heartbeat =
                    self.last_append.map_or(0, |t| t.saturating_add(self.config.heartbeat_every));
                heartbeat.min(self.lease_lapse())
            }
        }
    }

    /// The first tick at which [`Self::lease_valid`] fails unless another
    /// ack arrives: one past the lease of the follower whose ack keeps
    /// the quorum (the `quorum - 1`-th freshest). Never under the
    /// split-brain mutation (the lease is not checked) or a quorum of
    /// one.
    fn lease_lapse(&self) -> u64 {
        let needed = self.quorum() - 1;
        if self.split_brain || needed == 0 {
            return u64::MAX;
        }
        // The needed-th largest `acked_at`: the smallest one such that
        // `needed` followers acked at or after it.
        let keeper = self.kth_largest(self.followers().map(|p| p.acked_at), needed);
        keeper.saturating_add(self.config.lease_ticks).saturating_add(1)
    }

    fn quorum(&self) -> usize {
        if self.commit_before_quorum {
            1
        } else {
            self.peers.len() / 2 + 1
        }
    }

    /// Election timeout: twice the lease, staggered per replica so
    /// concurrent candidacies (and split votes) are the exception.
    fn election_timeout(&self) -> u64 {
        self.config.lease_ticks * 2 + self.index * self.config.heartbeat_every
    }

    /// [`kth_largest`] of one value per member (or fewer), on the stack
    /// for a group of up to `SMALL_GROUP`.
    fn kth_largest(&self, values: impl Iterator<Item = u64>, k: usize) -> u64 {
        if self.peers.len() > SMALL_GROUP {
            return kth_largest(&mut values.collect::<Vec<_>>(), k);
        }
        let mut small = [0; SMALL_GROUP];
        let mut n = 0;
        for (slot, value) in small.iter_mut().zip(values) {
            *slot = value;
            n += 1;
        }
        kth_largest(&mut small[..n], k)
    }

    /// The other members' replication progress.
    fn followers(&self) -> impl Iterator<Item = &Progress> {
        let own = self.index as usize;
        self.progress.iter().enumerate().filter(move |&(i, _)| i != own).map(|(_, p)| p)
    }

    /// Peer `peer`'s replication progress (`None` for an id outside the
    /// group).
    fn progress_of(&mut self, peer: NodeId) -> Option<&mut Progress> {
        let index = usize::try_from(peer.checked_sub(REPLICA_BASE)?).ok()?;
        self.progress.get_mut(index)
    }

    /// Whether a majority acked an append recently enough that no other
    /// replica can have been elected (their election timeouts exceed
    /// the lease).
    fn lease_valid(&self, now: u64) -> bool {
        let fresh = self
            .followers()
            .filter(|p| now.saturating_sub(p.acked_at) <= self.config.lease_ticks)
            .count();
        1 + fresh >= self.quorum()
    }

    fn last_log_term(&self) -> u64 {
        self.durable.log.last().map_or(0, |e| e.term)
    }

    /// Advances elections, the leader's appends and its lease.
    pub fn on_tick(&mut self, now: u64) {
        match &self.role {
            Role::Follower | Role::Candidate { .. } => {
                if now.saturating_sub(self.last_leader_contact) >= self.election_timeout() {
                    self.start_election(now);
                }
            }
            Role::Leader => {
                if !self.split_brain && !self.lease_valid(now) {
                    // The lease lapsed: a majority may already be
                    // electing someone else. Stop answering.
                    self.role = Role::Follower;
                    self.leader_hint = None;
                    self.last_leader_contact = now;
                    return;
                }
                // A group of one has no one to send heartbeats to.
                if self.peers.len() > 1 && due(self.last_append, now, self.config.heartbeat_every) {
                    self.send_appends(now);
                }
            }
        }
    }

    fn start_election(&mut self, now: u64) {
        self.durable.term += 1;
        self.durable.voted_for = Some(self.id);
        self.role = Role::Candidate { votes: 0 };
        self.leader_hint = None;
        self.last_leader_contact = now;
        if self.count_vote(self.id) {
            self.become_leader(now);
            return;
        }
        let msg = Message::VoteRequest {
            term: self.durable.term,
            candidate: self.id,
            log_len: self.durable.log.len() as u64,
            last_term: self.last_log_term(),
        };
        for i in 0..self.peers.len() {
            if self.peers[i] != self.id {
                self.send_replica(self.peers[i], msg.clone());
            }
        }
    }

    /// Records a vote; returns whether the candidacy just won.
    fn count_vote(&mut self, voter: NodeId) -> bool {
        let quorum = self.quorum();
        let member = |&i: &u64| i < self.peers.len() as u64 && i < u64::from(u64::BITS);
        let Some(index) = voter.checked_sub(REPLICA_BASE).filter(member) else {
            return false;
        };
        if let Role::Candidate { votes } = &mut self.role {
            *votes |= 1 << index;
            votes.count_ones() as usize >= quorum
        } else {
            false
        }
    }

    fn become_leader(&mut self, now: u64) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        // Lease grace: the election itself proved a quorum is reachable
        // moments ago.
        let next = self.durable.log.len() as u64;
        self.progress.fill(Progress { next, matched: 0, acked_at: now });
        // The term barrier: commits every earlier-term entry once
        // replicated, and gives an otherwise-idle term a commit point.
        self.durable.log.push(LogEntry { term: self.durable.term, cmd: Command::Noop });
        self.maybe_advance_commit();
        self.send_appends(now);
    }

    /// Heartbeats every follower, each with the run it lacks.
    fn send_appends(&mut self, now: u64) {
        for i in 0..self.peers.len() {
            if self.peers[i] != self.id {
                self.send_append_to(self.peers[i], MAX_RUN);
            }
        }
        self.last_append = Some(now);
    }

    /// Sends `peer` the entries from its `next` on, at most `max` of
    /// them (none when it holds the whole log: a heartbeat).
    fn send_append_to(&mut self, peer: NodeId, max: u64) {
        let len = self.durable.log.len() as u64;
        let index = self.progress_of(peer).map_or(0, |p| p.next).min(len);
        let run = &self.durable.log[index as usize..len.min(index + max) as usize];
        let entries = match run {
            [] => Entries::None,
            [entry] => Entries::One(entry.clone()),
            run => Entries::Many(run.to_vec()),
        };
        let prev_term = if index == 0 { 0 } else { self.durable.log[index as usize - 1].term };
        let msg = Message::Append {
            term: self.durable.term,
            leader: self.id,
            index,
            prev_term,
            entries,
            commit: self.commit,
        };
        self.send_replica(peer, msg);
    }

    /// Any message from a higher term turns this replica into a
    /// follower of that term. Deliberately does NOT reset the election
    /// timer: a candidate with a stale log can bump terms forever, and
    /// if every bump pushed the up-to-date replicas' timeouts back,
    /// none of them would ever stand. Only a granted vote or a leader's
    /// append earns the reset.
    fn observe_term(&mut self, term: u64, _now: u64) {
        if term > self.durable.term {
            self.durable.term = term;
            self.durable.voted_for = None;
            self.role = Role::Follower;
            self.leader_hint = None;
        }
    }

    /// Handles one delivered envelope: replica traffic when addressed
    /// to this replica, client traffic when addressed to the virtual
    /// coordinator. Anything else is misrouted and dropped.
    pub fn on_message(&mut self, now: u64, env: Envelope) {
        if env.dst == self.id {
            self.on_replica_message(now, env.src, env.msg);
        } else if env.dst == COORDINATOR {
            self.on_client_message(now, env);
        }
    }

    fn on_replica_message(&mut self, now: u64, src: NodeId, msg: Message) {
        match msg {
            Message::VoteRequest { term, candidate, log_len, last_term } => {
                self.observe_term(term, now);
                let up_to_date =
                    (last_term, log_len) >= (self.last_log_term(), self.durable.log.len() as u64);
                let granted = term == self.durable.term
                    && self.durable.voted_for.is_none_or(|v| v == candidate)
                    && up_to_date
                    && !matches!(self.role, Role::Leader);
                if granted {
                    self.durable.voted_for = Some(candidate);
                    self.last_leader_contact = now;
                }
                self.send_replica(
                    candidate,
                    Message::VoteReply { term: self.durable.term, voter: self.id, granted },
                );
            }
            Message::VoteReply { term, voter, granted } => {
                self.observe_term(term, now);
                if granted && term == self.durable.term && self.count_vote(voter) {
                    self.become_leader(now);
                }
            }
            Message::Append { term, leader, index, prev_term, entries, commit } => {
                if term < self.durable.term {
                    self.send_replica(
                        src,
                        Message::AppendAck {
                            term: self.durable.term,
                            follower: self.id,
                            matched: self.commit,
                            ok: false,
                        },
                    );
                    return;
                }
                self.observe_term(term, now);
                // An equal-term append is the term's leader speaking: a
                // candidate of the same term concedes.
                if !matches!(self.role, Role::Follower) {
                    self.role = Role::Follower;
                }
                self.leader_hint = Some(leader);
                self.last_leader_contact = now;
                let log_len = self.durable.log.len() as u64;
                let consistent = index <= log_len
                    && (index == 0 || self.durable.log[index as usize - 1].term == prev_term);
                if !consistent {
                    self.send_replica(
                        leader,
                        Message::AppendAck {
                            term: self.durable.term,
                            follower: self.id,
                            matched: self.commit,
                            ok: false,
                        },
                    );
                    return;
                }
                let matched_here = match entries {
                    Entries::None => index,
                    Entries::One(entry) => {
                        self.store(index, entry);
                        index + 1
                    }
                    Entries::Many(run) => {
                        let n = run.len() as u64;
                        for (at, entry) in (index..).zip(run) {
                            self.store(at, entry);
                        }
                        index + n
                    }
                };
                let new_commit = commit.min(matched_here);
                if new_commit > self.commit {
                    self.commit = new_commit;
                    self.advance_apply();
                }
                self.send_replica(
                    leader,
                    Message::AppendAck {
                        term: self.durable.term,
                        follower: self.id,
                        matched: matched_here,
                        ok: true,
                    },
                );
            }
            Message::AppendAck { term, follower, matched, ok } => {
                self.observe_term(term, now);
                if !matches!(self.role, Role::Leader) || term != self.durable.term {
                    return;
                }
                let log_len = self.durable.log.len() as u64;
                let Some(peer) = self.progress_of(follower) else {
                    return;
                };
                let resend = peer.on_ack(now, matched, ok, log_len);
                if ok {
                    self.maybe_advance_commit();
                }
                match resend {
                    Resend::Nothing => {}
                    Resend::One => self.send_append_to(follower, 1),
                    Resend::Run => self.send_append_to(follower, MAX_RUN),
                }
            }
            // Client kinds addressed to a replica id are misrouted
            // noise: ignore.
            _ => {}
        }
    }

    /// Puts a leader's `entry` at log position `at` (at most the log's
    /// length): kept when an entry of the same term is already there,
    /// else the conflicting suffix goes first.
    fn store(&mut self, at: u64, entry: LogEntry) {
        if let Some(held) = self.durable.log.get(at as usize) {
            if held.term == entry.term {
                return;
            }
            self.truncate_log(at);
        }
        self.durable.log.push(entry);
    }

    /// Truncates the log to `keep` entries. When the applied prefix
    /// reached past the cut (only possible when a commit was taken
    /// without a real quorum), the coordinator state is rebuilt by
    /// replaying the surviving committed prefix.
    fn truncate_log(&mut self, keep: u64) {
        self.durable.log.truncate(keep as usize);
        self.commit = self.commit.min(keep);
        if self.applied > keep {
            self.coord = CoordinatorDurable::initial(&[]);
            self.applied = 0;
            let replay = self.commit;
            self.commit = 0;
            for i in 0..replay {
                let cmd = self.durable.log[i as usize].cmd.clone();
                self.commit = i + 1;
                self.apply_one(cmd, false);
                self.applied = i + 1;
            }
        }
    }

    fn maybe_advance_commit(&mut self) {
        // The leader's own log always matches itself. The candidate is
        // the quorum-th largest matched length over every replica: the
        // largest length at least a quorum of replicas hold.
        let own = self.durable.log.len() as u64;
        let lens = self.followers().map(|p| p.matched).chain([own]);
        let candidate = self.kth_largest(lens, self.quorum());
        // Only entries of the current term commit by counting — the
        // Raft commit rule; earlier terms ride along underneath.
        if candidate > self.commit
            && self.durable.log[candidate as usize - 1].term == self.durable.term
        {
            self.commit = candidate;
            self.advance_apply();
        }
    }

    fn advance_apply(&mut self) {
        while self.applied < self.commit {
            let cmd = self.durable.log[self.applied as usize].cmd.clone();
            self.applied += 1;
            let respond = matches!(self.role, Role::Leader);
            self.apply_one(cmd, respond);
        }
    }

    /// Applies one committed command to the coordinator state. Only the
    /// leader answers clients (`respond`); followers apply silently, so
    /// every answer a worker sees is backed by a committed entry.
    fn apply_one(&mut self, cmd: Command, respond: bool) {
        match cmd {
            Command::Lease { node, req_id, want } => {
                let reply = match self.coord.lease_answer(node, req_id, self.no_dedup) {
                    Some(LeaseAnswer::Regrant(block)) => {
                        Message::LeaseGrant { node, req_id, base: block.base, len: block.len }
                    }
                    Some(LeaseAnswer::Refused) => Message::RecoverNone { node, req_id },
                    None => {
                        let block = self.coord.lease_grant(node, req_id, want);
                        Message::LeaseGrant { node, req_id, base: block.base, len: block.len }
                    }
                };
                if respond {
                    self.send_worker(node, reply);
                }
            }
            Command::Return { node, watermark } => {
                // No over-claim assert here: a replayed log can shrink
                // grants under a calibration mutation — the global
                // checker owns that verdict.
                let _ = self.coord.seal(node, watermark);
                if respond {
                    self.send_worker(node, Message::ReturnAck { node, watermark });
                }
            }
            Command::Tombstone { node, req_id } => {
                if let Some(block) = self.coord.grant(node, req_id) {
                    // A grant was recorded after all (the query raced a
                    // concurrent lease commit): re-send it instead.
                    if respond {
                        self.send_worker(
                            node,
                            Message::LeaseGrant { node, req_id, base: block.base, len: block.len },
                        );
                    }
                } else {
                    self.coord.tombstone(node, req_id);
                    if respond {
                        self.send_worker(node, Message::RecoverNone { node, req_id });
                    }
                }
            }
            Command::Noop => {}
        }
    }

    fn on_client_message(&mut self, now: u64, env: Envelope) {
        if !matches!(self.role, Role::Leader) {
            // Read-only recovery: a recorded grant in committed state
            // is a final answer any replica may give.
            if let Message::RecoverQuery { node, req_id } = env.msg {
                if let Some(block) = self.coord.grant(node, req_id) {
                    self.send_worker(
                        node,
                        Message::LeaseGrant { node, req_id, base: block.base, len: block.len },
                    );
                    return;
                }
            }
            // Everything else goes to the leader; with no hint the
            // message drops and the worker's retry finds a luckier
            // replica.
            if let Some(leader) = self.leader_hint {
                if leader != self.id {
                    self.outbox.push(Outgoing { hop: leader, env });
                }
            }
            return;
        }
        match env.msg {
            Message::LeaseRequest { node, req_id, want } => {
                // Committed fast paths: answers that need no new entry.
                match self.coord.recorded_answer(node, req_id, self.no_dedup) {
                    Some(LeaseAnswer::Refused) => {
                        self.send_worker(node, Message::RecoverNone { node, req_id });
                        return;
                    }
                    Some(LeaseAnswer::Regrant(block)) => {
                        self.send_worker(
                            node,
                            Message::LeaseGrant { node, req_id, base: block.base, len: block.len },
                        );
                        return;
                    }
                    None => {}
                }
                if self.split_brain && !self.lease_valid(now) {
                    // MUTATION: the stale leader answers off the log —
                    // its local copy diverges from the quorum's and two
                    // leaders allocate the same values.
                    self.apply_one(Command::Lease { node, req_id, want }, true);
                    return;
                }
                self.propose(Command::Lease { node, req_id, want });
            }
            Message::RecoverQuery { node, req_id } => {
                if let Some(block) = self.coord.grant(node, req_id) {
                    self.send_worker(
                        node,
                        Message::LeaseGrant { node, req_id, base: block.base, len: block.len },
                    );
                } else {
                    // "Never granted" must be durable before it is
                    // spoken: commit the tombstone first.
                    self.propose(Command::Tombstone { node, req_id });
                }
            }
            Message::Return { node, watermark } => {
                if self.coord.sealed(node).is_some_and(|w| w >= watermark) {
                    // Already committed: a duplicate Return re-acks
                    // without a new entry.
                    self.send_worker(node, Message::ReturnAck { node, watermark });
                } else {
                    self.propose(Command::Return { node, watermark });
                }
            }
            // Worker-bound kinds and replica kinds addressed to the
            // virtual coordinator are noise: ignore.
            _ => {}
        }
    }

    /// Appends a command to the log unless an equal command is already
    /// pending (proposed, not yet applied), then pushes it to the
    /// followers whose logs were caught up.
    fn propose(&mut self, cmd: Command) {
        let pending = self.durable.log[self.applied as usize..].iter().any(|e| e.cmd == cmd);
        if pending {
            return;
        }
        self.durable.log.push(LogEntry { term: self.durable.term, cmd });
        let tail = self.durable.log.len() as u64 - 1;
        for i in 0..self.peers.len() {
            let peer = self.peers[i];
            if peer != self.id && self.progress[i].next == tail {
                self.send_append_to(peer, 1);
            }
        }
        // A single-replica group (or the quorum-of-one mutation)
        // commits its own append immediately.
        self.maybe_advance_commit();
    }

    /// Direct send to a worker, speaking as the virtual coordinator.
    fn send_worker(&mut self, to: NodeId, msg: Message) {
        self.outbox.push(Outgoing { hop: to, env: Envelope { src: COORDINATOR, dst: to, msg } });
    }

    fn send_replica(&mut self, to: NodeId, msg: Message) {
        self.outbox.push(Outgoing { hop: to, env: Envelope { src: self.id, dst: to, msg } });
    }
}

/// The largest group whose [`kth_largest`] inputs stay on the stack.
const SMALL_GROUP: usize = 8;

/// The `k`-th largest of `values` (1-based): the largest `v` such that at
/// least `k` of them are `>= v` — 0 when no value qualifies (`k` past the
/// count), the maximum when `k` is 0. A quorum's lease keeper and its
/// commit point are both this, over one value per member: one sort of a
/// handful of values instead of a count per candidate.
fn kth_largest(values: &mut [u64], k: usize) -> u64 {
    values.sort_unstable_by(|a, b| b.cmp(a));
    values.get(k.saturating_sub(1)).copied().unwrap_or(0)
}

fn due(last: Option<u64>, now: u64, every: u64) -> bool {
    last.is_none_or(|t| now.saturating_sub(t) >= every)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Block;

    fn drain(replicas: &mut [Replica]) -> Vec<Outgoing> {
        replicas.iter_mut().flat_map(Replica::take_outbox).collect()
    }

    /// Delivers every replica-addressed envelope until the group goes
    /// quiet; worker-addressed envelopes are returned. A hop addressed
    /// to a replica not in the slice is dropped (a partition).
    fn settle(replicas: &mut [Replica], now: u64, mut pending: Vec<Outgoing>) -> Vec<Outgoing> {
        let mut to_workers = Vec::new();
        loop {
            let mut next = Vec::new();
            for out in pending {
                if out.hop >= REPLICA_BASE {
                    if let Some(r) = replicas.iter_mut().find(|r| r.id() == out.hop) {
                        r.on_message(now, out.env);
                        next.extend(r.take_outbox());
                    }
                } else {
                    to_workers.push(out);
                }
            }
            if next.is_empty() {
                return to_workers;
            }
            pending = next;
        }
    }

    fn elect_leader(replicas: &mut [Replica], now: u64) -> usize {
        let timeout = replicas[0].election_timeout();
        for r in replicas.iter_mut() {
            r.on_tick(now + timeout);
        }
        let outs = drain(replicas);
        settle(replicas, now + timeout, outs);
        replicas.iter().position(Replica::is_leader).expect("a leader emerges")
    }

    fn group(count: u64) -> Vec<Replica> {
        (0..count).map(|i| Replica::new(i, count, &[1, 2], ProtocolConfig::default())).collect()
    }

    fn client(replicas: &mut [Replica], leader: usize, now: u64, msg: Message) -> Vec<Outgoing> {
        let env = Envelope { src: 1, dst: COORDINATOR, msg };
        replicas[leader].on_message(now, env);
        let outs = drain(replicas);
        settle(replicas, now, outs)
    }

    fn grant_of(out: &[Outgoing]) -> Option<(NodeId, u64, Block)> {
        out.iter().find_map(|o| match o.env.msg {
            Message::LeaseGrant { node, req_id, base, len } => {
                Some((node, req_id, Block { base, len }))
            }
            _ => None,
        })
    }

    /// A group of one, elected, coordinating workers 1 and 2; returns
    /// it with the tick it took office.
    fn lone_leader() -> (Vec<Replica>, u64) {
        let mut rs = group(1);
        assert_eq!(elect_leader(&mut rs, 0), 0);
        let now = rs[0].election_timeout();
        rs[0].take_outbox();
        (rs, now)
    }

    #[test]
    fn duplicate_requests_get_the_same_block() {
        let (mut rs, t) = lone_leader();
        let lease = |req_id| Message::LeaseRequest { node: 1, req_id, want: 16 };
        let first = grant_of(&client(&mut rs, 0, t + 1, lease(0))).expect("granted");
        let second = grant_of(&client(&mut rs, 0, t + 2, lease(0))).expect("re-sent");
        assert_eq!(first, second, "dedup re-sends the recorded grant");
        assert_eq!(rs[0].coord().cursor, 16, "one allocation, not two");
        let third = grant_of(&client(&mut rs, 0, t + 3, lease(1))).expect("granted");
        assert_eq!(third.2.base, 16, "fresh ids allocate fresh disjoint blocks");
    }

    #[test]
    fn recovery_tombstones_unknown_requests_forever() {
        let (mut rs, t) = lone_leader();
        let out = client(&mut rs, 0, t + 1, Message::RecoverQuery { node: 1, req_id: 0 });
        assert!(out
            .iter()
            .any(|o| matches!(o.env.msg, Message::RecoverNone { node: 1, req_id: 0 })));
        // The late duplicate of the original request must NOT allocate:
        // the recovery answer said "never granted".
        let out = client(&mut rs, 0, t + 2, Message::LeaseRequest { node: 1, req_id: 0, want: 8 });
        assert!(grant_of(&out).is_none());
        assert_eq!(rs[0].coord().cursor, 0);
    }

    #[test]
    fn seal_truncates_grants_and_recycles_the_tail() {
        let (mut rs, t) = lone_leader();
        client(&mut rs, 0, t + 1, Message::LeaseRequest { node: 1, req_id: 0, want: 10 });
        // The worker consumed 4 of its 10, then drained.
        let seal = Message::Return { node: 1, watermark: 4 };
        let out = client(&mut rs, 0, t + 2, seal.clone());
        assert!(out
            .iter()
            .any(|o| matches!(o.env.msg, Message::ReturnAck { node: 1, watermark: 4 })));
        assert_eq!(rs[0].coord().free, vec![Block { base: 4, len: 6 }]);
        // Idempotent: a duplicated Return frees nothing new.
        client(&mut rs, 0, t + 3, seal);
        assert_eq!(rs[0].coord().free, vec![Block { base: 4, len: 6 }]);
        // The tail is re-leased before the cursor moves.
        let out = client(&mut rs, 0, t + 4, Message::LeaseRequest { node: 2, req_id: 0, want: 6 });
        assert_eq!(grant_of(&out).expect("granted").2, Block { base: 4, len: 6 });
        assert_eq!(rs[0].coord().cursor, 10);
    }

    #[test]
    fn fresh_ids_need_no_admission_and_sealed_ids_never_return() {
        let (mut rs, t) = lone_leader();
        // A worker the group never heard of is granted on its first ask:
        // a join is a fresh id that starts asking.
        let out = client(&mut rs, 0, t + 1, Message::LeaseRequest { node: 9, req_id: 0, want: 8 });
        assert_eq!(grant_of(&out).expect("granted").0, 9);
        // A leave is the final Return: the id is sealed for good.
        let out = client(&mut rs, 0, t + 2, Message::Return { node: 1, watermark: 0 });
        assert!(out
            .iter()
            .any(|o| matches!(o.env.msg, Message::ReturnAck { node: 1, watermark: 0 })));
        assert_eq!(rs[0].coord().sealed(1), Some(0));
        // Its lease requests get a tombstoned no.
        let out = client(&mut rs, 0, t + 3, Message::LeaseRequest { node: 1, req_id: 5, want: 8 });
        assert!(grant_of(&out).is_none());
        assert!(out
            .iter()
            .any(|o| matches!(o.env.msg, Message::RecoverNone { node: 1, req_id: 5 })));
    }

    #[test]
    fn no_dedup_mutation_double_allocates() {
        let (mut rs, t) = lone_leader();
        rs[0].enable_grant_no_dedup();
        let lease = Message::LeaseRequest { node: 1, req_id: 0, want: 8 };
        client(&mut rs, 0, t + 1, lease.clone());
        client(&mut rs, 0, t + 2, lease);
        assert_eq!(rs[0].coord().cursor, 16, "the duplicate allocated a second block");
        assert_eq!(rs[0].coord().grants().count(), 1, "…and the first block's record leaked");
    }

    #[test]
    fn the_staggered_timeout_elects_replica_zero_first() {
        let mut rs = group(3);
        let leader = elect_leader(&mut rs, 0);
        assert_eq!(leader, 0);
        assert_eq!(rs[0].term(), 1);
        assert_eq!(rs[0].commit(), 1, "the noop barrier committed");
        assert!(rs.iter().skip(1).all(|r| !r.is_leader()));
    }

    #[test]
    fn a_lease_is_granted_only_after_the_entry_commits() {
        let mut rs = group(3);
        let leader = elect_leader(&mut rs, 0);
        let t = rs[0].election_timeout() + 1;
        let outs =
            client(&mut rs, leader, t, Message::LeaseRequest { node: 1, req_id: 0, want: 16 });
        let grant = outs.iter().find_map(|o| match o.env.msg {
            Message::LeaseGrant { node, req_id, base, len } => {
                Some((node, req_id, Block { base, len }))
            }
            _ => None,
        });
        assert_eq!(grant, Some((1, 0, Block { base: 0, len: 16 })));
        // Every replica applied the committed entry identically.
        for r in rs.iter().filter(|r| r.commit() == rs[leader].commit()) {
            assert_eq!(r.coord().grant(1, 0), Some(Block { base: 0, len: 16 }));
        }
        // A duplicate request re-grants the same block off the fast
        // path without a new log entry.
        let log_len = rs[leader].durable().log.len();
        let outs =
            client(&mut rs, leader, t + 1, Message::LeaseRequest { node: 1, req_id: 0, want: 16 });
        assert!(outs.iter().any(|o| matches!(
            o.env.msg,
            Message::LeaseGrant { node: 1, req_id: 0, base: 0, len: 16 }
        )));
        assert_eq!(rs[leader].durable().log.len(), log_len);
    }

    #[test]
    fn followers_answer_recover_queries_read_only() {
        let mut rs = group(3);
        let leader = elect_leader(&mut rs, 0);
        let t = rs[0].election_timeout() + 1;
        client(&mut rs, leader, t, Message::LeaseRequest { node: 1, req_id: 0, want: 8 });
        // The next heartbeat carries the advanced commit index to the
        // followers, which then apply the grant.
        let t = t + ProtocolConfig::default().heartbeat_every;
        rs[leader].on_tick(t);
        let outs = drain(&mut rs);
        settle(&mut rs, t, outs);
        // A follower holds the committed grant and answers directly.
        let follower = (leader + 1) % 3;
        assert!(!rs[follower].is_leader());
        rs[follower].on_message(
            t + 1,
            Envelope {
                src: 1,
                dst: COORDINATOR,
                msg: Message::RecoverQuery { node: 1, req_id: 0 },
            },
        );
        let outs = rs[follower].take_outbox();
        assert!(outs
            .iter()
            .any(|o| matches!(o.env.msg, Message::LeaseGrant { node: 1, req_id: 0, .. })));
        // A miss is forwarded to the leader (tombstoning needs commit).
        rs[follower].on_message(
            t + 2,
            Envelope {
                src: 1,
                dst: COORDINATOR,
                msg: Message::RecoverQuery { node: 1, req_id: 9 },
            },
        );
        let outs = rs[follower].take_outbox();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].hop, rs[leader].id());
    }

    #[test]
    fn lease_expiry_steps_the_leader_down_and_a_new_term_takes_over() {
        let mut rs = group(3);
        let leader = elect_leader(&mut rs, 0);
        assert_eq!(leader, 0);
        let config = ProtocolConfig::default();
        // Silence: no acks arrive past the lease window. The leader
        // steps down instead of answering stale.
        let t = rs[0].election_timeout() + config.lease_ticks + config.heartbeat_every + 1;
        rs[0].on_tick(t);
        assert!(!rs[0].is_leader(), "lapsed lease forces step-down");
        // Replica 1's timeout fires next; the others grant its vote.
        let t2 = t + rs[1].election_timeout() + 1;
        rs[1].on_tick(t2);
        let outs = rs[1].take_outbox();
        settle(&mut rs, t2, outs);
        assert!(rs[1].is_leader(), "the next stagger slot wins the new term");
        assert!(rs[1].term() > 1);
    }

    #[test]
    fn a_restarted_replica_replays_its_log_into_the_same_state() {
        let mut rs = group(3);
        let leader = elect_leader(&mut rs, 0);
        let t = rs[0].election_timeout() + 1;
        client(&mut rs, leader, t, Message::LeaseRequest { node: 1, req_id: 0, want: 8 });
        client(&mut rs, leader, t + 1, Message::LeaseRequest { node: 2, req_id: 0, want: 8 });
        client(&mut rs, leader, t + 2, Message::Return { node: 2, watermark: 3 });
        let reference = rs[leader].coord().clone();
        // Crash replica 2, restart from its durable log, and let the
        // leader's next heartbeat re-advance its commit.
        let durable = rs[2].durable().clone();
        rs[2] = Replica::restart(2, 3, ProtocolConfig::default(), durable, t + 3);
        assert_eq!(rs[2].commit(), 0, "commit is volatile");
        rs[leader].on_tick(t + 3 + ProtocolConfig::default().heartbeat_every);
        let outs = drain(&mut rs);
        settle(&mut rs, t + 4, outs);
        assert_eq!(rs[2].coord(), &reference, "replay reaches bit-identical state");
    }

    #[test]
    fn split_brain_mutation_double_grants_and_clean_protocol_does_not() {
        // Partition the elected leader away from both followers, expire
        // its lease, then elect a new leader on the majority side.
        let run = |mutated: bool| -> (Block, Block) {
            let mut rs = group(3);
            let leader = elect_leader(&mut rs, 0);
            assert_eq!(leader, 0);
            if mutated {
                rs[0].enable_split_brain();
            }
            let t = rs[0].election_timeout() + ProtocolConfig::default().lease_ticks * 2;
            // The stale side: replica 0 alone, lease long expired.
            rs[0].on_tick(t);
            rs[0].on_message(
                t,
                Envelope {
                    src: 1,
                    dst: COORDINATOR,
                    msg: Message::LeaseRequest { node: 1, req_id: 0, want: 8 },
                },
            );
            let stale = rs[0]
                .take_outbox()
                .iter()
                .find_map(|o| match o.env.msg {
                    Message::LeaseGrant { base, len, .. } => Some(Block { base, len }),
                    _ => None,
                })
                .unwrap_or(Block { base: u64::MAX, len: 0 });
            // The majority side elects replica 1 and serves worker 2.
            let t2 = t + rs[1].election_timeout() + 1;
            rs[1].on_tick(t2);
            let outs = rs[1].take_outbox();
            let outs: Vec<Outgoing> = outs.into_iter().filter(|o| o.hop != replica_id(0)).collect();
            settle(&mut rs[1..], t2, outs).into_iter().for_each(drop);
            assert!(rs[1].is_leader());
            rs[1].on_message(
                t2 + 1,
                Envelope {
                    src: 2,
                    dst: COORDINATOR,
                    msg: Message::LeaseRequest { node: 2, req_id: 0, want: 8 },
                },
            );
            let outs = rs[1].take_outbox();
            let outs: Vec<Outgoing> = outs.into_iter().filter(|o| o.hop != replica_id(0)).collect();
            let answers = settle(&mut rs[1..], t2 + 1, outs);
            let fresh = answers
                .iter()
                .find_map(|o| match o.env.msg {
                    Message::LeaseGrant { base, len, .. } => Some(Block { base, len }),
                    _ => None,
                })
                .expect("the majority leader grants");
            (stale, fresh)
        };
        let (stale, fresh) = run(true);
        assert_eq!(stale, fresh, "the mutation hands the same block to two workers");
        let (stale, fresh) = run(false);
        assert_eq!(stale.len, 0, "the clean stale leader refuses to answer");
        assert_ne!(stale, fresh);
    }

    #[test]
    fn commit_before_quorum_mutation_loses_its_suffix_on_heal() {
        let mut rs = group(3);
        let leader = elect_leader(&mut rs, 0);
        rs[0].enable_commit_before_quorum();
        let t = rs[0].election_timeout() + 1;
        // Isolated: the mutated leader commits with no acks at all.
        rs[leader].on_message(
            t,
            Envelope {
                src: 1,
                dst: COORDINATOR,
                msg: Message::LeaseRequest { node: 1, req_id: 0, want: 8 },
            },
        );
        let outs = rs[0].take_outbox();
        assert!(outs
            .iter()
            .any(|o| matches!(o.env.msg, Message::LeaseGrant { node: 1, req_id: 0, .. })));
        assert!(rs[0].coord().grant(1, 0).is_some());
        // The majority elects replica 1 in a later term; its appends
        // truncate the minority-committed suffix and the grant is gone.
        let t2 = t + rs[1].election_timeout() + ProtocolConfig::default().lease_ticks * 2;
        rs[1].on_tick(t2);
        let outs = rs[1].take_outbox();
        settle(&mut rs, t2, outs);
        assert!(rs[1].is_leader());
        rs[1].on_tick(t2 + ProtocolConfig::default().heartbeat_every);
        let outs = rs[1].take_outbox();
        settle(&mut rs, t2 + 1, outs);
        assert!(
            rs[0].coord().grant(1, 0).is_none(),
            "the un-quorumed grant vanished from the healed log"
        );
        assert_eq!(rs[0].coord(), rs[1].coord());
    }

    /// A follower 5 entries in, acked at tick 0, of a leader whose log
    /// holds 8.
    const PROGRESS: Progress = Progress { next: 5, matched: 5, acked_at: 0 };

    #[test]
    fn a_stale_ack_sends_nothing() {
        let mut p = PROGRESS;
        assert_eq!(p.on_ack(10, 3, true, 8), Resend::Nothing);
        assert_eq!(p, Progress { acked_at: 10, ..PROGRESS }, "only the lease clock moves");
    }

    #[test]
    fn a_duplicate_ack_sends_nothing() {
        let mut p = PROGRESS;
        assert_eq!(p.on_ack(10, 5, true, 8), Resend::Nothing);
        assert_eq!(p, Progress { acked_at: 10, ..PROGRESS });
    }

    #[test]
    fn a_nack_sends_one_run_from_the_followers_hint() {
        let mut p = PROGRESS;
        assert_eq!(p.on_ack(10, 2, false, 8), Resend::Run);
        assert_eq!(p, Progress { next: 2, matched: 5, acked_at: 10 });
        // A follower whose hint is the whole log needs no run.
        let mut p = PROGRESS;
        assert_eq!(p.on_ack(10, 8, false, 8), Resend::Nothing);
    }

    #[test]
    fn an_advancing_ack_sends_one_entry() {
        let mut p = PROGRESS;
        assert_eq!(p.on_ack(10, 7, true, 8), Resend::One, "a cumulative ack of a run");
        assert_eq!(p, Progress { next: 7, matched: 7, acked_at: 10 });
        // Caught up: nothing left to send.
        assert_eq!(p.on_ack(11, 8, true, 8), Resend::Nothing);
        assert_eq!(p.next, 8);
    }

    /// The appends in `out`, as `(hop, first index, entry count)`.
    fn appends(out: &[Outgoing]) -> Vec<(NodeId, u64, usize)> {
        out.iter()
            .filter_map(|o| match &o.env.msg {
                Message::Append { index, entries, .. } => {
                    Some((o.hop, *index, entries.as_slice().len()))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn duplicated_or_reordered_replication_hops_send_no_new_append() {
        let mut rs = group(3);
        assert_eq!(elect_leader(&mut rs, 0), 0);
        let t = rs[0].election_timeout() + 1;
        let lease = |req_id| Envelope {
            src: 1,
            dst: COORDINATOR,
            msg: Message::LeaseRequest { node: 1, req_id, want: 8 },
        };
        // Entry 1 goes to both caught-up followers; follower 1's copy
        // arrives twice, and each copy gets exactly one ack.
        rs[0].on_message(t, lease(0));
        let out = rs[0].take_outbox();
        assert_eq!(appends(&out), [(replica_id(1), 1, 1), (replica_id(2), 1, 1)]);
        let mut acks = Vec::new();
        for _ in 0..2 {
            rs[1].on_message(t + 1, out[0].env.clone());
            let reply = rs[1].take_outbox();
            assert_eq!(reply.len(), 1, "one reply per delivery: {reply:?}");
            assert!(matches!(reply[0].env.msg, Message::AppendAck { matched: 2, ok: true, .. }));
            acks.push(reply[0].env.clone());
        }
        // The first ack commits entry 1; follower 1 holds the whole log,
        // so nothing follows it, and its duplicate sends nothing at all.
        rs[0].on_message(t + 2, acks[0].clone());
        assert!(appends(&rs[0].take_outbox()).is_empty());
        // Two more entries while follower 1 acked 2: entry 2 goes out
        // (it was caught up), entry 3 waits for entry 2's ack.
        rs[0].on_message(t + 3, lease(1));
        assert_eq!(appends(&rs[0].take_outbox())[0], (replica_id(1), 2, 1));
        rs[0].on_message(t + 4, lease(2));
        assert!(appends(&rs[0].take_outbox()).iter().all(|&(hop, ..)| hop != replica_id(1)));
        // Follower 1 is behind now. The duplicate of its old ack, and a
        // reordered ack older still, move nothing and send nothing;
        // before, each resent entry 2.
        let stale = Message::AppendAck { term: 1, follower: replica_id(1), matched: 1, ok: true };
        for msg in [acks[1].msg.clone(), stale] {
            rs[0].on_message(t + 5, Envelope { src: replica_id(1), dst: replica_id(0), msg });
            assert!(rs[0].take_outbox().is_empty());
        }
        // The ack of entry 2 moves follower 1 on: one entry, entry 3.
        let ack = Message::AppendAck { term: 1, follower: replica_id(1), matched: 3, ok: true };
        rs[0].on_message(t + 6, Envelope { src: replica_id(1), dst: replica_id(0), msg: ack });
        assert_eq!(appends(&rs[0].take_outbox()), [(replica_id(1), 3, 1)]);
    }

    #[test]
    fn a_heartbeat_or_a_nack_carries_every_missing_entry_as_one_run() {
        let mut rs = group(3);
        assert_eq!(elect_leader(&mut rs, 0), 0);
        let t = rs[0].election_timeout() + 1;
        // Three entries that reach no follower.
        for req_id in 0..3 {
            let msg = Message::LeaseRequest { node: 1, req_id, want: 8 };
            rs[0].on_message(t, Envelope { src: 1, dst: COORDINATOR, msg });
        }
        rs[0].take_outbox();
        let beat = t + ProtocolConfig::default().heartbeat_every;
        rs[0].on_tick(beat);
        let out = rs[0].take_outbox();
        assert_eq!(appends(&out), [(replica_id(1), 1, 3), (replica_id(2), 1, 3)]);
        // The follower stores the run and acks it at once.
        rs[1].on_message(beat + 1, out[0].env.clone());
        let reply = rs[1].take_outbox();
        assert!(matches!(
            reply[..],
            [Outgoing {
                env: Envelope { msg: Message::AppendAck { matched: 4, ok: true, .. }, .. },
                ..
            }]
        ));
        assert_eq!(rs[1].durable().log, rs[0].durable().log);
        // A rejecting ack rewinds follower 2 to its hint and earns the
        // same run at once.
        let nack = Message::AppendAck { term: 1, follower: replica_id(2), matched: 1, ok: false };
        rs[0].on_message(beat + 2, Envelope { src: replica_id(2), dst: replica_id(0), msg: nack });
        assert_eq!(appends(&rs[0].take_outbox()), [(replica_id(2), 1, 3)]);
    }

    #[test]
    fn kth_largest_matches_the_counting_definition() {
        // The O(n²) definition both callers used before the helper: the
        // largest value that at least `k` values reach. Every group of
        // 1..=5 values in 0..5, every `k` from 0 to one past the group.
        let counting = |values: &[u64], k: usize| {
            let reach = |t: u64| values.iter().filter(|&&v| v >= t).count();
            values.iter().copied().filter(|&t| reach(t) >= k).max().unwrap_or(0)
        };
        for n in 1..=5 {
            for code in 0..5u64.pow(n) {
                let values: Vec<u64> = (0..n).map(|i| code / 5u64.pow(i) % 5).collect();
                for k in 0..=n as usize + 1 {
                    let sorted = kth_largest(&mut values.clone(), k);
                    assert_eq!(sorted, counting(&values, k), "{values:?}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn every_command_renders() {
        for cmd in [
            Command::Lease { node: 1, req_id: 2, want: 16 },
            Command::Return { node: 1, watermark: 9 },
            Command::Tombstone { node: 1, req_id: 4 },
            Command::Noop,
        ] {
            assert!(!cmd.to_string().is_empty());
        }
    }
}

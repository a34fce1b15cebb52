//! The transport seam between state machines and a real network.
//!
//! State machines never send directly — they fill an outbox of
//! [`Outgoing`] hops, and a driver flushes it through a [`Transport`].
//! [`ChannelTransport`] is the in-memory implementation used by the
//! live-thread harness ([`crate::live`]); a socket transport would
//! implement the same trait. The deterministic simulation
//! deliberately bypasses the trait: it *is* the network, so it
//! intercepts every hop to apply the fault plan.
//!
//! Both drivers resolve the virtual [`COORDINATOR`] id with one
//! `CoordinatorRoute`: the simulation in its hop routing, `run_live` in
//! its router thread.

use std::collections::BTreeMap;
use std::sync::mpsc::Sender;

use crate::message::{Envelope, Message, NodeId, Outgoing, COORDINATOR};
use crate::replica::{replica_id, REPLICA_BASE};

/// Picks the replica a hop addressed to the virtual [`COORDINATOR`] id
/// goes to.
///
/// Liveness traffic — [`Message::Heartbeat`] and
/// [`Message::MembershipAck`], which only the leader consumes — goes to
/// the replica the route believes leads, so a follower need not forward
/// it. Every other kind rotates round-robin over the group: a request's
/// retry loop is how a worker finds a new leader after a partition, and
/// a stale leader's off-log answers only reach the wire because
/// requests fan out over the whole group.
///
/// The route learns only from hops replicas hand to the transport
/// ([`Self::observe`]): a replica speaking as the coordinator, or a
/// follower forwarding a worker's envelope to its leader hint. It
/// forgets the guess when a hop to that replica is lost because the
/// replica is down or a partition cut it off ([`Self::lost`]): a leader
/// the group cannot reach is about to lose its lease, and heartbeats
/// that keep reaching it would starve its successor's failure
/// detector. In a group of one, the guess and the rotation both pick
/// replica 0.
#[derive(Debug, Clone)]
pub(crate) struct CoordinatorRoute {
    group: u64,
    rotation: u64,
    leader: Option<NodeId>,
}

impl CoordinatorRoute {
    /// A route over a group of `group` replicas (0 acts as 1), with no
    /// guess yet.
    #[must_use]
    pub(crate) fn new(group: u64) -> Self {
        Self { group: group.max(1), rotation: 0, leader: None }
    }

    /// The replica a coordinator-addressed `msg` goes to: the guessed
    /// leader for liveness kinds, else the next replica in rotation.
    pub(crate) fn pick(&mut self, msg: &Message) -> NodeId {
        let liveness = matches!(msg, Message::Heartbeat { .. } | Message::MembershipAck { .. });
        match self.leader {
            Some(leader) if liveness => leader,
            _ => {
                let hop = replica_id(self.rotation % self.group);
                self.rotation += 1;
                hop
            }
        }
    }

    /// Learns from one hop that `from` hands to the transport. Only a
    /// replica's hops teach anything: one speaking as the coordinator
    /// leads, and one forwarding a worker's envelope names its leader.
    pub(crate) fn observe(&mut self, from: NodeId, out: &Outgoing) {
        if from < REPLICA_BASE {
            return;
        }
        if out.env.src == COORDINATOR {
            self.leader = Some(from);
        } else if out.env.dst == COORDINATOR && out.hop >= REPLICA_BASE {
            self.leader = Some(out.hop);
        }
    }

    /// Forgets the guess when a hop to `hop` was lost because that
    /// replica is down or cut off from the sender.
    pub(crate) fn lost(&mut self, hop: NodeId) {
        if self.leader == Some(hop) {
            self.leader = None;
        }
    }
}

/// Delivers envelopes to a neighbor. `send` is best-effort by design —
/// the protocol assumes a lossy network, so failed sends are dropped
/// silently, exactly like a lost datagram.
pub trait Transport {
    /// Attempts delivery of `env` to `hop`.
    fn send(&self, hop: NodeId, env: Envelope);

    /// Flushes a whole outbox, leaving it empty with its capacity so
    /// the driver can refill it.
    fn send_all(&self, outbox: &mut Vec<Outgoing>) {
        for out in outbox.drain(..) {
            self.send(out.hop, out.env);
        }
    }
}

/// An in-memory transport over `std::sync::mpsc` channels: one sender
/// per participant, cloneable so every node thread owns a handle to the
/// whole cluster.
#[derive(Debug, Clone, Default)]
pub struct ChannelTransport {
    peers: BTreeMap<NodeId, Sender<Envelope>>,
}

impl ChannelTransport {
    /// An empty transport; register peers with [`Self::register`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `id`'s inbox sender.
    pub fn register(&mut self, id: NodeId, sender: Sender<Envelope>) {
        self.peers.insert(id, sender);
    }
}

impl Transport for ChannelTransport {
    fn send(&self, hop: NodeId, env: Envelope) {
        if let Some(peer) = self.peers.get(&hop) {
            // A disconnected receiver is a crashed peer: the message is
            // simply lost, as on a real network.
            let _ = peer.send(env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn routes_to_registered_peers_and_drops_the_rest() {
        let (tx, rx) = channel();
        let mut transport = ChannelTransport::new();
        transport.register(1, tx);
        let env = Envelope { src: 0, dst: 1, msg: Message::Join { node: 1 } };
        transport.send_all(&mut vec![
            Outgoing { hop: 1, env: env.clone() },
            Outgoing { hop: 9, env: env.clone() }, // unknown peer: dropped
        ]);
        assert_eq!(rx.try_recv().ok(), Some(env));
        assert!(rx.try_recv().is_err(), "nothing else arrived");
    }

    fn out(hop: NodeId, src: NodeId, dst: NodeId, msg: Message) -> Outgoing {
        Outgoing { hop, env: Envelope { src, dst, msg } }
    }

    const HEARTBEAT: Message = Message::Heartbeat { node: 1, epoch: 1 };
    const ACK: Message = Message::MembershipAck { node: 1, epoch: 1 };
    const LEASE: Message = Message::LeaseRequest { node: 1, req_id: 0, want: 8 };
    const GRANT: Message = Message::LeaseGrant { node: 1, req_id: 0, base: 0, len: 8 };

    #[test]
    fn a_replica_speaking_as_the_coordinator_becomes_the_guess() {
        let mut route = CoordinatorRoute::new(3);
        // A worker relaying the coordinator's broadcast teaches nothing.
        route.observe(2, &out(3, COORDINATOR, 3, GRANT));
        assert_eq!(route.pick(&HEARTBEAT), replica_id(0), "no guess yet: rotation");
        route.observe(replica_id(2), &out(1, COORDINATOR, 1, GRANT));
        assert_eq!(route.pick(&HEARTBEAT), replica_id(2));
    }

    #[test]
    fn liveness_kinds_go_to_the_guess() {
        let mut route = CoordinatorRoute::new(5);
        route.observe(replica_id(3), &out(1, COORDINATOR, 1, GRANT));
        for _ in 0..5 {
            assert_eq!(route.pick(&HEARTBEAT), replica_id(3));
            assert_eq!(route.pick(&ACK), replica_id(3));
        }
    }

    #[test]
    fn a_follower_forward_names_its_leader_hint() {
        let mut route = CoordinatorRoute::new(3);
        route.observe(replica_id(0), &out(replica_id(1), 1, COORDINATOR, HEARTBEAT));
        assert_eq!(route.pick(&HEARTBEAT), replica_id(1));
        // Replica-to-replica traffic names no leader.
        let vote =
            Message::VoteRequest { term: 2, candidate: replica_id(2), log_len: 0, last_term: 0 };
        route.observe(replica_id(2), &out(replica_id(0), replica_id(2), replica_id(0), vote));
        assert_eq!(route.pick(&HEARTBEAT), replica_id(1));
    }

    #[test]
    fn a_hop_lost_to_the_guessed_replica_forgets_it() {
        let mut route = CoordinatorRoute::new(3);
        route.observe(replica_id(1), &out(1, COORDINATOR, 1, GRANT));
        route.lost(replica_id(2));
        assert_eq!(route.pick(&HEARTBEAT), replica_id(1), "another replica's loss is kept");
        route.lost(replica_id(1));
        assert_eq!(route.pick(&HEARTBEAT), replica_id(0), "forgotten: back to rotation");
        assert_eq!(route.pick(&HEARTBEAT), replica_id(1));
    }

    #[test]
    fn request_kinds_rotate_past_the_guess() {
        let mut route = CoordinatorRoute::new(3);
        route.observe(replica_id(1), &out(1, COORDINATOR, 1, GRANT));
        let requests = [
            LEASE,
            Message::Return { node: 1, watermark: 4, leaving: false },
            Message::RecoverQuery { node: 1, req_id: 0 },
            Message::Join { node: 1 },
        ];
        let picked: Vec<NodeId> = requests.iter().map(|msg| route.pick(msg)).collect();
        assert_eq!(picked, [0, 1, 2, 0].map(replica_id));
        // Liveness picks do not advance the rotation.
        assert_eq!(route.pick(&HEARTBEAT), replica_id(1));
        assert_eq!(route.pick(&LEASE), replica_id(1));
    }

    #[test]
    fn a_group_of_one_always_picks_replica_zero() {
        for group in [0, 1] {
            let mut route = CoordinatorRoute::new(group);
            for msg in [HEARTBEAT, LEASE, ACK, LEASE] {
                assert_eq!(route.pick(&msg), replica_id(0));
            }
            route.observe(replica_id(0), &out(1, COORDINATOR, 1, GRANT));
            route.lost(replica_id(0));
            assert_eq!(route.pick(&HEARTBEAT), replica_id(0));
        }
    }

    #[test]
    fn send_to_a_dropped_receiver_is_lost_not_a_panic() {
        let (tx, rx) = channel();
        let mut transport = ChannelTransport::new();
        transport.register(2, tx);
        drop(rx);
        transport.send(2, Envelope { src: 0, dst: 2, msg: Message::Join { node: 2 } });
    }
}

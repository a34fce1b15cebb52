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
//! Both drivers resolve the virtual [`COORDINATOR`](crate::message::COORDINATOR) id with one rule,
//! `coordinator_hop`: the simulation in its hop routing, `run_live` in
//! its router thread.

use std::collections::BTreeMap;
use std::sync::mpsc::Sender;

use crate::message::{Envelope, NodeId, Outgoing};
use crate::replica::replica_id;

/// The replica the `rotation`-th hop addressed to the virtual
/// [`COORDINATOR`](crate::message::COORDINATOR) id goes to, in a group of `group` replicas (0 acts
/// as 1): round-robin over the group, whatever the message kind. The
/// driver owns the counter. A request's retry loop is how a worker
/// finds a new leader after a partition, a follower forwards what it
/// cannot serve to its leader hint, and a stale leader's off-log
/// answers only reach the wire because requests fan out over the whole
/// group. In a group of one every hop goes to replica 0.
pub(crate) fn coordinator_hop(rotation: u64, group: u64) -> NodeId {
    replica_id(rotation % group.max(1))
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
    use crate::message::Message;
    use std::sync::mpsc::channel;

    #[test]
    fn routes_to_registered_peers_and_drops_the_rest() {
        let (tx, rx) = channel();
        let mut transport = ChannelTransport::new();
        transport.register(1, tx);
        let env = Envelope { src: 0, dst: 1, msg: Message::ReturnAck { node: 1, watermark: 4 } };
        transport.send_all(&mut vec![
            Outgoing { hop: 1, env: env.clone() },
            Outgoing { hop: 9, env: env.clone() }, // unknown peer: dropped
        ]);
        assert_eq!(rx.try_recv().ok(), Some(env));
        assert!(rx.try_recv().is_err(), "nothing else arrived");
    }

    #[test]
    fn coordinator_hops_rotate_over_the_group() {
        let picked: Vec<NodeId> = (0..5).map(|rotation| coordinator_hop(rotation, 3)).collect();
        assert_eq!(picked, [0, 1, 2, 0, 1].map(replica_id));
    }

    #[test]
    fn a_group_of_one_always_picks_replica_zero() {
        for group in [0, 1] {
            for rotation in 0..4 {
                assert_eq!(coordinator_hop(rotation, group), replica_id(0));
            }
        }
    }

    #[test]
    fn send_to_a_dropped_receiver_is_lost_not_a_panic() {
        let (tx, rx) = channel();
        let mut transport = ChannelTransport::new();
        transport.register(2, tx);
        drop(rx);
        transport.send(
            2,
            Envelope { src: 0, dst: 2, msg: Message::ReturnAck { node: 2, watermark: 0 } },
        );
    }
}

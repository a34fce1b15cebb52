//! The transport seam between state machines and a real network.
//!
//! State machines never send directly — they fill an outbox of
//! [`Outgoing`] hops, and a driver flushes it through a [`Transport`].
//! [`ChannelTransport`] is the in-memory implementation used by the
//! live-thread harness ([`crate::live`]); a socket transport would
//! implement the same trait, serializing [`crate::message::Message`]
//! through its hand-written serde impls. The deterministic simulation
//! deliberately bypasses the trait: it *is* the network, so it
//! intercepts every hop to apply the fault plan.

use std::collections::BTreeMap;
use std::sync::mpsc::Sender;

use crate::message::{Envelope, NodeId, Outgoing};

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
        let env = Envelope { src: 0, dst: 1, msg: Message::Join { node: 1 } };
        transport.send_all(&mut vec![
            Outgoing { hop: 1, env: env.clone() },
            Outgoing { hop: 9, env: env.clone() }, // unknown peer: dropped
        ]);
        assert_eq!(rx.try_recv().ok(), Some(env));
        assert!(rx.try_recv().is_err(), "nothing else arrived");
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

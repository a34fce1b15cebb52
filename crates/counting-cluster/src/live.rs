//! The live-thread harness: the same state machines, a real
//! [`ChannelTransport`], OS threads and wall-clock time.
//!
//! This is the integration seam the deterministic simulation cannot
//! cover: actual concurrency, `mpsc` channels as the network,
//! millisecond ticks as virtual time. The protocol config's tick values
//! are interpreted as milliseconds here. The harness runs a full
//! cluster lifetime — demand, drain, seal — and audits the result with
//! the same [`GlobalChecker`] the simulation uses.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::check::GlobalChecker;
use crate::coordinator::CoordinatorDurable;
use crate::message::{Envelope, NodeId, Outgoing, COORDINATOR};
use crate::node::{Node, ProtocolConfig};
use crate::replica::{replica_id, Replica};
use crate::transport::{coordinator_hop, ChannelTransport, Transport};

/// The outcome of a [`run_live`] cluster lifetime.
#[derive(Debug)]
pub struct LiveReport {
    /// Values handed out (repeats included).
    pub handed: u64,
    /// Distinct values handed out.
    pub unique: u64,
    /// Hand-out counts per worker.
    pub per_node: BTreeMap<NodeId, u64>,
    /// Every violation caught (uniqueness, exact-range, liveness).
    pub violations: Vec<String>,
    /// The coordinator's final cursor.
    pub cursor: u64,
    /// Hops the workers and replicas handed to the transport. A
    /// coordinator-addressed envelope counts once, as in the simulation's
    /// `SimStats::sent`, although the router thread re-sends it.
    pub hops: u64,
}

/// Control messages the harness sends its worker threads.
enum Ctl {
    Demand(u64),
    Drain,
    Stop,
}

/// Upstream events worker threads report to the harness.
enum Up {
    Hand(NodeId, u64),
    Sealed,
}

/// How long the harness waits for the drain to converge before calling
/// it a liveness violation.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);

/// Worker loop granularity.
const LOOP_PAUSE: Duration = Duration::from_micros(500);

fn now_ms(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// What every participant thread shares: the cluster's start instant
/// and the hop count.
#[derive(Clone)]
struct Shared {
    start: Instant,
    hops: Arc<AtomicU64>,
}

impl Shared {
    /// Counts and sends a drained outbox.
    fn send_all(&self, transport: &ChannelTransport, outbox: &mut Vec<Outgoing>) {
        self.hops.fetch_add(outbox.len() as u64, Ordering::Relaxed);
        transport.send_all(outbox);
    }
}

fn worker_loop(
    mut node: Node,
    shared: &Shared,
    transport: &ChannelTransport,
    net_rx: &Receiver<Envelope>,
    ctl_rx: &Receiver<Ctl>,
    up_tx: &Sender<Up>,
) {
    let start = shared.start;
    let id = node.id();
    let mut sealed_reported = false;
    let (mut outbox, mut handouts) = (Vec::new(), Vec::new());
    loop {
        let now = now_ms(start);
        while let Ok(env) = net_rx.try_recv() {
            node.on_message(now, env);
        }
        while let Ok(ctl) = ctl_rx.try_recv() {
            match ctl {
                Ctl::Demand(n) => node.demand(now, n),
                Ctl::Drain => node.begin_drain(now),
                Ctl::Stop => return,
            }
        }
        node.on_tick(now);
        node.drain_outbox(&mut outbox);
        shared.send_all(transport, &mut outbox);
        node.drain_handouts(&mut handouts);
        for value in handouts.drain(..) {
            let _ = up_tx.send(Up::Hand(id, value));
        }
        if node.is_sealed_acked() && !sealed_reported {
            sealed_reported = true;
            let _ = up_tx.send(Up::Sealed);
        }
        std::thread::sleep(LOOP_PAUSE);
    }
}

/// What a replica thread hands back when stopped: `(is_leader, term,
/// commit, durable state)`. The audit runs against the maximum.
type ReplicaFinal = (bool, u64, u64, CoordinatorDurable);

fn replica_loop(
    mut replica: Replica,
    shared: &Shared,
    transport: &ChannelTransport,
    net_rx: &Receiver<Envelope>,
    ctl_rx: &Receiver<Ctl>,
) -> ReplicaFinal {
    let mut outbox = Vec::new();
    loop {
        let now = now_ms(shared.start);
        while let Ok(env) = net_rx.try_recv() {
            replica.on_message(now, env);
        }
        if let Ok(Ctl::Stop) = ctl_rx.try_recv() {
            return (
                replica.is_leader(),
                replica.term(),
                replica.commit(),
                replica.coord().clone(),
            );
        }
        replica.on_tick(now);
        replica.drain_outbox(&mut outbox);
        shared.send_all(transport, &mut outbox);
        std::thread::sleep(LOOP_PAUSE);
    }
}

/// The router thread standing in for the virtual coordinator id: it
/// rotates everything workers address to id 0 over the group of
/// `group` replicas with the same rule the simulation uses
/// (`coordinator_hop`), and a follower forwards what it cannot serve
/// to its leader hint.
fn router_loop(
    group: u64,
    transport: &ChannelTransport,
    net_rx: &Receiver<Envelope>,
    ctl_rx: &Receiver<Ctl>,
) {
    let mut rotation = 0;
    loop {
        while let Ok(env) = net_rx.try_recv() {
            transport.send(coordinator_hop(rotation, group), env);
            rotation += 1;
        }
        if let Ok(Ctl::Stop) = ctl_rx.try_recv() {
            return;
        }
        std::thread::sleep(LOOP_PAUSE);
    }
}

/// The harness's running audit of what the worker threads report.
struct Audit {
    start: Instant,
    checker: GlobalChecker,
    violations: Vec<String>,
    per_node: BTreeMap<NodeId, u64>,
    sealed: u64,
}

impl Audit {
    fn on(&mut self, up: Up) {
        match up {
            Up::Hand(id, value) => {
                *self.per_node.entry(id).or_insert(0) += 1;
                self.violations.extend(self.checker.record(id, value, now_ms(self.start)));
            }
            Up::Sealed => self.sealed += 1,
        }
    }

    /// Feeds worker reports to the audit until `done` holds or
    /// [`DRAIN_DEADLINE`] passes.
    fn pump(&mut self, up_rx: &Receiver<Up>, done: impl Fn(&Self) -> bool) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while !done(self) && Instant::now() < deadline {
            if let Ok(up) = up_rx.recv_timeout(Duration::from_millis(50)) {
                self.on(up);
            }
        }
    }
}

/// Runs one live cluster lifetime: `workers` nodes serve
/// `demand_per_node` requests each over real threads and channels, then
/// drain, seal, and face the global audit.
///
/// The coordinator is a group of `replicas` replica threads (see
/// [`crate::replica`]; 1 is a group of one): a router thread fans the
/// virtual coordinator id out to the group, a leader is elected live,
/// and the final audit runs against the leader's committed state.
///
/// # Panics
///
/// Panics if `replicas` is zero or a cluster thread panicked.
#[must_use]
pub fn run_live(workers: u64, demand_per_node: u64, replicas: u64) -> LiveReport {
    assert!(replicas >= 1, "a coordinator group needs at least one replica");
    // Millisecond-scale timing: brisk appends and retries, a leader
    // lease slack enough that a busy scheduler cannot fake a lapse.
    let config = ProtocolConfig {
        heartbeat_every: 20,
        retry_after: 40,
        lease_ticks: 200,
        ..ProtocolConfig::default()
    };
    let shared = Shared { start: Instant::now(), hops: Arc::new(AtomicU64::new(0)) };
    let start = shared.start;
    let ids: Vec<NodeId> = (1..=workers).collect();
    let replica_ids: Vec<NodeId> = (0..replicas).map(replica_id).collect();

    let mut transport = ChannelTransport::new();
    let mut net_rxs: BTreeMap<NodeId, Receiver<Envelope>> = BTreeMap::new();
    for &id in [COORDINATOR].iter().chain(&ids).chain(&replica_ids) {
        let (tx, rx) = channel();
        transport.register(id, tx);
        net_rxs.insert(id, rx);
    }
    let (up_tx, up_rx) = channel();

    let mut ctl_txs: BTreeMap<NodeId, Sender<Ctl>> = BTreeMap::new();
    // One participant's ends: a handle on the whole cluster, its inbox,
    // and the harness's control line to it.
    let mut endpoint = |id: NodeId| {
        let (ctl_tx, ctl_rx) = channel();
        ctl_txs.insert(id, ctl_tx);
        let net_rx = net_rxs.remove(&id).expect("registered above");
        (shared.clone(), transport.clone(), net_rx, ctl_rx)
    };
    let mut handles = Vec::new();
    let (_, transport, net_rx, ctl_rx) = endpoint(COORDINATOR);
    handles.push(std::thread::spawn(move || router_loop(replicas, &transport, &net_rx, &ctl_rx)));
    let mut replica_handles = Vec::new();
    for (r, &id) in (0..).zip(&replica_ids) {
        let replica = Replica::new(r, replicas, &[], config);
        let (shared, transport, net_rx, ctl_rx) = endpoint(id);
        replica_handles.push(std::thread::spawn(move || {
            replica_loop(replica, &shared, &transport, &net_rx, &ctl_rx)
        }));
    }
    for &id in &ids {
        let node = Node::new(id, config);
        let (shared, transport, net_rx, ctl_rx) = endpoint(id);
        let up_tx = up_tx.clone();
        handles.push(std::thread::spawn(move || {
            worker_loop(node, &shared, &transport, &net_rx, &ctl_rx, &up_tx);
        }));
    }

    // Demand in bursts, so every worker crosses several lease rounds.
    let burst = (demand_per_node / 4).max(1);
    let mut sent: BTreeMap<NodeId, u64> = ids.iter().map(|&id| (id, 0)).collect();
    while sent.values().any(|&s| s < demand_per_node) {
        for &id in &ids {
            let remaining = demand_per_node - sent[&id];
            if remaining > 0 {
                let n = burst.min(remaining);
                let _ = ctl_txs[&id].send(Ctl::Demand(n));
                *sent.get_mut(&id).expect("seeded above") += n;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut audit = Audit {
        start,
        checker: GlobalChecker::new(),
        violations: Vec::new(),
        per_node: BTreeMap::new(),
        sealed: 0,
    };
    // Grants cannot flow before the first election; draining
    // immediately would abandon the backlog. Wait for the hand-out
    // stream to serve every demand (or stall past the deadline) before
    // sealing.
    let expected = workers * demand_per_node;
    audit.pump(&up_rx, |a| a.checker.handed() >= expected);

    // Drain and wait for every worker to seal.
    for &id in &ids {
        let _ = ctl_txs[&id].send(Ctl::Drain);
    }
    audit.pump(&up_rx, |a| a.sealed >= workers);
    let all_sealed = audit.sealed == workers;
    if !all_sealed {
        let sealed = audit.sealed;
        audit
            .violations
            .push(format!("liveness: live drain timed out with {sealed}/{workers} sealed"));
    }

    for tx in ctl_txs.values() {
        let _ = tx.send(Ctl::Stop);
    }
    for handle in handles {
        handle.join().expect("worker and router threads must not panic");
    }
    // Drain any hand-outs that raced the seal notifications.
    while let Ok(up) = up_rx.try_recv() {
        audit.on(up);
    }
    // The audit runs against the group's authoritative state: the
    // leader's, falling back to the highest (term, commit) replica.
    let (_, _, _, coordinator) = replica_handles
        .into_iter()
        .map(|h| h.join().expect("replica thread must not panic"))
        .max_by_key(|(leader, term, commit, _)| (*leader, *term, *commit))
        .expect("at least one replica thread");
    let Audit { checker, mut violations, per_node, .. } = audit;
    if all_sealed {
        violations.extend(checker.finalize(&coordinator));
    }

    LiveReport {
        handed: checker.handed(),
        unique: checker.unique(),
        per_node,
        violations,
        cursor: coordinator.cursor,
        hops: shared.hops.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_threads_hand_out_a_unique_exact_range() {
        let report = run_live(3, 50, 1);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.handed, 150);
        assert_eq!(report.unique, 150);
        assert_eq!(report.per_node.values().sum::<u64>(), 150);
        assert!(report.cursor >= 150, "every hand-out was allocated");
    }

    #[test]
    fn a_replicated_coordinator_serves_live_threads_identically() {
        let report = run_live(3, 40, 3);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.handed, 120);
        assert_eq!(report.unique, 120);
        assert!(report.cursor >= 120, "every hand-out was allocated");
    }
}

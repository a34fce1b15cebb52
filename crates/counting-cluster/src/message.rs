//! Wire messages and envelopes.
//!
//! The protocol speaks ten message kinds over an unreliable network, so
//! every kind is safe to drop, duplicate or reorder: requests carry
//! per-node request ids the coordinator deduplicates on, answers and
//! acknowledgements are idempotent, and the replication kinds
//! (`vote-request` / `vote-reply` / `append` / `append-ack`) carry terms
//! that make stale copies inert. Both drivers move the enum itself, so
//! a message has no wire encoding; traces record its `Display` form.

use std::fmt;

use crate::replica::LogEntry;

/// A cluster participant id. The coordinator is always
/// [`COORDINATOR`]; worker nodes use ids `>= 1`.
pub type NodeId = u64;

/// The coordinator's well-known id.
pub const COORDINATOR: NodeId = 0;

/// One contiguous run of global values, `base..base + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First value of the run.
    pub base: u64,
    /// Number of values in the run.
    pub len: u64,
}

impl Block {
    /// The first value past the run.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.base + self.len
    }
}

/// A protocol message. See the [crate docs](crate) for the protocol;
/// field conventions: `node` is the worker the message concerns,
/// `req_id` a per-node monotonic request id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker → coordinator: lease `want` more values (retried with the
    /// same `req_id` until answered; the coordinator deduplicates).
    LeaseRequest {
        /// Requesting worker.
        node: NodeId,
        /// Per-node monotonic request id.
        req_id: u64,
        /// Requested block length.
        want: u64,
    },
    /// Coordinator → worker: the (deduplicated) answer to
    /// `LeaseRequest { node, req_id, .. }`.
    LeaseGrant {
        /// Granted worker.
        node: NodeId,
        /// The request this grant answers.
        req_id: u64,
        /// First value of the granted block.
        base: u64,
        /// Length of the granted block.
        len: u64,
    },
    /// Worker → coordinator after a restart: what happened to `req_id`?
    /// Answered with the recorded grant, or tombstoned + `RecoverNone`.
    RecoverQuery {
        /// Recovering worker.
        node: NodeId,
        /// The in-doubt request id.
        req_id: u64,
    },
    /// Coordinator → worker: `req_id` was never granted and — now
    /// tombstoned — never will be; the worker may reuse fresh ids.
    RecoverNone {
        /// The worker whose request was tombstoned.
        node: NodeId,
        /// The tombstoned request id.
        req_id: u64,
    },
    /// Worker → coordinator: the worker has consumed exactly
    /// `watermark` values and returns everything beyond it — a leave or
    /// an end-of-run drain; either way the id is sealed for good.
    /// Idempotent.
    Return {
        /// The sealing worker.
        node: NodeId,
        /// Total values the worker ever handed out.
        watermark: u64,
    },
    /// Coordinator → worker: `Return { watermark }` was processed.
    ReturnAck {
        /// The sealed worker.
        node: NodeId,
        /// The sealed watermark.
        watermark: u64,
    },
    /// Replica → replica: `candidate` asks for a vote in `term`
    /// ([`crate::replica`]).
    VoteRequest {
        /// The candidate's term.
        term: u64,
        /// The candidate replica.
        candidate: NodeId,
        /// The candidate's log length (up-to-dateness check).
        log_len: u64,
        /// The term of the candidate's last log entry (0 when empty).
        last_term: u64,
    },
    /// Replica → replica: the answer to a `VoteRequest`.
    VoteReply {
        /// The voter's current term.
        term: u64,
        /// The voting replica.
        voter: NodeId,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader → follower: replicate a run of log entries starting at
    /// `index` (a pure heartbeat when `entries` is empty). An append
    /// that follows an accepting ack carries one entry; a heartbeat or
    /// the retry after a rejecting ack carries every entry the follower
    /// lacks, up to a cap. The follower's ack is cumulative.
    Append {
        /// The leader's term.
        term: u64,
        /// The leader replica.
        leader: NodeId,
        /// The log position of the first entry (also the follower
        /// prefix the leader believes matches).
        index: u64,
        /// The term of the entry before `index` (0 at the log head) —
        /// the consistency check.
        prev_term: u64,
        /// The entries to append at `index..`, none for heartbeats.
        entries: Entries,
        /// The leader's commit index (entries, not bytes).
        commit: u64,
    },
    /// Follower → leader: the answer to an `Append`.
    AppendAck {
        /// The follower's current term.
        term: u64,
        /// The acknowledging follower.
        follower: NodeId,
        /// The follower's highest log prefix known to match the leader
        /// (on reject: a safe retry hint — its commit index).
        matched: u64,
        /// Whether the append was consistent and accepted.
        ok: bool,
    },
}

impl Message {
    /// A short stable tag naming the message kind; its `Display` form
    /// starts with it.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Message::LeaseRequest { .. } => "lease-request",
            Message::LeaseGrant { .. } => "lease-grant",
            Message::RecoverQuery { .. } => "recover-query",
            Message::RecoverNone { .. } => "recover-none",
            Message::Return { .. } => "return",
            Message::ReturnAck { .. } => "return-ack",
            Message::VoteRequest { .. } => "vote-request",
            Message::VoteReply { .. } => "vote-reply",
            Message::Append { .. } => "append",
            Message::AppendAck { .. } => "append-ack",
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::LeaseRequest { node, req_id, want } => {
                write!(f, "lease-request n{node} r{req_id} want={want}")
            }
            Message::LeaseGrant { node, req_id, base, len } => {
                write!(f, "lease-grant n{node} r{req_id} [{base}..{})", base + len)
            }
            Message::RecoverQuery { node, req_id } => write!(f, "recover-query n{node} r{req_id}"),
            Message::RecoverNone { node, req_id } => write!(f, "recover-none n{node} r{req_id}"),
            Message::Return { node, watermark } => write!(f, "return n{node} w{watermark}"),
            Message::ReturnAck { node, watermark } => write!(f, "return-ack n{node} w{watermark}"),
            Message::VoteRequest { term, candidate, log_len, last_term } => {
                write!(f, "vote-request t{term} c{candidate} len={log_len} lt{last_term}")
            }
            Message::VoteReply { term, voter, granted } => {
                write!(f, "vote-reply t{term} v{voter} granted={granted}")
            }
            Message::Append { term, leader, index, entries, commit, .. } => {
                write!(f, "append t{term} l{leader} i{index}")?;
                match entries.as_slice() {
                    [] => f.write_str(" heartbeat")?,
                    run => {
                        for entry in run {
                            write!(f, " {}", entry.cmd)?;
                        }
                    }
                }
                write!(f, " commit={commit}")
            }
            Message::AppendAck { term, follower, matched, ok } => {
                write!(f, "append-ack t{term} f{follower} m{matched} ok={ok}")
            }
        }
    }
}

/// The entries one [`Message::Append`] carries. A heartbeat and the
/// common one-entry append need no heap; only a catch-up run does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entries {
    /// A heartbeat: nothing to append.
    None,
    /// One entry.
    One(LogEntry),
    /// Two or more entries, in log order.
    Many(Vec<LogEntry>),
}

impl Entries {
    /// The carried entries, in log order.
    #[must_use]
    pub fn as_slice(&self) -> &[LogEntry] {
        match self {
            Entries::None => &[],
            Entries::One(entry) => std::slice::from_ref(entry),
            Entries::Many(run) => run,
        }
    }
}

/// A routed message: original sender, final destination, payload.
/// A follower replica forwarding a worker's envelope to its leader
/// passes it on unchanged; only the hop changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Original sender.
    pub src: NodeId,
    /// Final destination.
    pub dst: NodeId,
    /// The payload.
    pub msg: Message,
}

/// One send decided by a state machine: deliver `env` to `hop` next
/// (the hop equals `env.dst`, except for a follower forwarding to its
/// leader; a driver resolves a [`COORDINATOR`] hop to one replica).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// The next recipient.
    pub hop: NodeId,
    /// The envelope in flight.
    pub env: Envelope,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Command;

    #[test]
    fn every_message_kind_renders_under_its_tag() {
        let messages = vec![
            Message::LeaseRequest { node: 3, req_id: 7, want: 16 },
            Message::LeaseGrant { node: 3, req_id: 7, base: 128, len: 16 },
            Message::RecoverQuery { node: 2, req_id: 1 },
            Message::RecoverNone { node: 2, req_id: 1 },
            Message::Return { node: 2, watermark: 99 },
            Message::ReturnAck { node: 2, watermark: 99 },
            Message::VoteRequest { term: 3, candidate: 1 << 32, log_len: 12, last_term: 2 },
            Message::VoteReply { term: 3, voter: (1 << 32) + 1, granted: true },
            Message::Append {
                term: 3,
                leader: 1 << 32,
                index: 12,
                prev_term: 2,
                entries: Entries::One(LogEntry {
                    term: 3,
                    cmd: Command::Lease { node: 2, req_id: 7, want: 16 },
                }),
                commit: 11,
            },
            Message::Append {
                term: 3,
                leader: 1 << 32,
                index: 12,
                prev_term: 2,
                entries: Entries::Many(vec![
                    LogEntry { term: 3, cmd: Command::Noop },
                    LogEntry { term: 3, cmd: Command::Return { node: 2, watermark: 9 } },
                ]),
                commit: 11,
            },
            Message::Append {
                term: 3,
                leader: 1 << 32,
                index: 13,
                prev_term: 3,
                entries: Entries::None,
                commit: 12,
            },
            Message::AppendAck { term: 3, follower: (1 << 32) + 2, matched: 13, ok: false },
        ];
        for msg in messages {
            assert!(!msg.kind().is_empty());
            assert!(format!("{msg}").starts_with(msg.kind()), "{msg}");
        }
    }

    #[test]
    fn a_message_stays_eighty_bytes() {
        // `Entries` shares the niche of `LogEntry`'s command tag, so the
        // run-carrying append costs every hop in flight nothing.
        assert_eq!(std::mem::size_of::<Message>(), 80);
    }

    #[test]
    fn block_end_is_exclusive() {
        let b = Block { base: 10, len: 4 };
        assert_eq!(b.end(), 14);
    }
}

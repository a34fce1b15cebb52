//! The coordinator's state: the durable owner of the global value
//! space.
//!
//! The coordinator leases disjoint contiguous blocks from a cursor plus
//! a free-list, deduplicating by `(node, request id)` so a retried or
//! duplicated request re-sends the recorded grant instead of allocating
//! twice, and tombstoning in-doubt ids so a recovery answer of "never
//! granted" stays true forever. It keeps no member list: a worker is
//! any unsealed id that asks for a lease. Sealing (a worker's final `Return`) truncates the worker's grants at
//! its consumed watermark and recycles the tail through the free-list —
//! which is exactly what makes the global stream end range-tiled.
//!
//! This module holds only that state and its pure transitions. The
//! state machine that drives them — the log, the leader's answers — is
//! the replica group ([`crate::replica`]), which also runs a
//! coordinator of one.

use std::collections::{BTreeMap, BTreeSet};

use crate::message::{Block, NodeId};

/// Everything the coordinator persists.
///
/// This struct is the **replicated state machine** of the coordinator
/// group ([`crate::replica`]): every replica applies committed log
/// entries through the pure transition helpers below
/// ([`Self::lease_answer`], [`Self::lease_grant`], [`Self::seal`],
/// [`Self::tombstone`]), so a quorum of replicas applying the same
/// command sequence reaches the same durable state bit-for-bit.
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
    /// The bootstrap state: nothing allocated, nothing sealed.
    ///
    /// `workers` is ignored. The coordinator keeps no member list — the
    /// grant log and the seals decide every value, and a worker is any
    /// unsealed id that asks — so founders and joiners start alike. The
    /// parameter stays so existing callers keep compiling.
    #[must_use]
    pub fn initial(workers: &[NodeId]) -> Self {
        let _ = workers;
        Self {
            cursor: 0,
            free: Vec::new(),
            grants: BTreeMap::new(),
            tombstones: BTreeSet::new(),
            sealed: BTreeMap::new(),
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

    /// Permanently bars `(node, req_id)` from allocation.
    pub fn tombstone(&mut self, node: NodeId, req_id: u64) {
        self.tombstones.insert((node, req_id));
    }
}

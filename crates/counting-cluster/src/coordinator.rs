//! The coordinator's state: the durable owner of the global value
//! space.
//!
//! The coordinator leases disjoint contiguous blocks from a cursor plus
//! a free-list, deduplicating by `(node, request id)` so a retried or
//! duplicated request re-sends the recorded grant instead of allocating
//! twice, and tombstoning in-doubt ids so a recovery answer of "never
//! granted" stays true forever. It keeps no member list: a worker is
//! any unsealed id that asks for a lease. Sealing (a worker's final
//! `Return`) truncates the worker's grants at its consumed watermark and
//! recycles the tail through the free-list — which is exactly what
//! makes the global stream end range-tiled.
//!
//! Everything keyed by a worker lives in one ledger per worker — its
//! grants in request-id order, its tombstones and its seal — so a lease
//! request finds all it needs with one binary search over the workers,
//! a grant is an append, and a seal truncates one `Vec` in place.
//!
//! This module holds only that state and its pure transitions. The
//! state machine that drives them — the log, the leader's answers — is
//! the replica group ([`crate::replica`]), which also runs a
//! coordinator of one.

use crate::message::{Block, NodeId};

/// One worker's part of the coordinator's state: everything a lease
/// request, a recovery query or a seal from that worker reads or writes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Ledger {
    /// The worker.
    node: NodeId,
    /// Recorded grants in request-id order. A worker's request ids only
    /// grow, so a grant is appended; sealing truncates the grants to the
    /// consumed prefix in place.
    grants: Vec<(u64, Block)>,
    /// Request ids answered "never granted", ascending.
    tombstones: Vec<u64>,
    /// The final consumed watermark, once the worker sealed.
    sealed: Option<u64>,
}

/// Grants a ledger makes room for on its first. No worker of the
/// benchmark's cluster cell records more (seeds 1..=20), so its grants
/// never grow; growing from empty costs a third more allocations per
/// simulated value (`tests/sim_alloc.rs`).
const FIRST_GRANTS: usize = 16;

impl Ledger {
    fn new(node: NodeId) -> Self {
        Self { node, grants: Vec::new(), tombstones: Vec::new(), sealed: None }
    }

    fn grant(&self, req_id: u64) -> Option<Block> {
        let at = self.grants.binary_search_by_key(&req_id, |&(req, _)| req).ok()?;
        Some(self.grants[at].1)
    }

    /// Steps 1–2 of [`CoordinatorDurable::lease_answer`].
    fn recorded(&self, req_id: u64, no_dedup: bool) -> Option<LeaseAnswer> {
        if self.tombstones.binary_search(&req_id).is_ok() {
            return Some(LeaseAnswer::Refused);
        }
        if no_dedup {
            return None;
        }
        self.grant(req_id).map(LeaseAnswer::Regrant)
    }

    /// Records `block` as the grant of `req_id`, replacing an earlier
    /// record of the same id (only the no-dedup mutation writes one).
    fn record(&mut self, req_id: u64, block: Block) {
        if self.grants.last().is_none_or(|&(last, _)| last < req_id) {
            if self.grants.capacity() == 0 {
                self.grants.reserve_exact(FIRST_GRANTS);
            }
            self.grants.push((req_id, block));
            return;
        }
        match self.grants.binary_search_by_key(&req_id, |&(req, _)| req) {
            Ok(at) => self.grants[at].1 = block,
            Err(at) => self.grants.insert(at, (req_id, block)),
        }
    }

    fn tombstone(&mut self, req_id: u64) {
        if let Err(at) = self.tombstones.binary_search(&req_id) {
            self.tombstones.insert(at, req_id);
        }
    }
}

/// Everything the coordinator persists.
///
/// This struct is the **replicated state machine** of the coordinator
/// group ([`crate::replica`]): every replica applies committed log
/// entries through the pure transition helpers below
/// ([`Self::lease_answer`], [`Self::lease_grant`], [`Self::seal`],
/// [`Self::tombstone`]), so a quorum of replicas applying the same
/// command sequence reaches the same durable state bit-for-bit.
///
/// A worker has a ledger once it was granted, tombstoned or sealed. The
/// ledgers sit in a `Vec` sorted by id and are found by binary search
/// (ids are arbitrary `u64`s, so nothing is indexed by id). Nothing
/// ever empties a ledger, so two states are equal exactly when their
/// grants, tombstones and seals are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorDurable {
    /// First never-allocated value: allocation falls back here when the
    /// free-list is empty.
    pub cursor: u64,
    /// Returned, never-consumed runs available for re-lease (sorted by
    /// base).
    pub free: Vec<Block>,
    /// One ledger per worker, sorted by id.
    ledgers: Vec<Ledger>,
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

/// Worker `node`'s ledger, made empty when it has none.
fn ledger_mut(ledgers: &mut Vec<Ledger>, node: NodeId) -> &mut Ledger {
    let at = if ledgers.last().is_none_or(|last| last.node < node) {
        ledgers.push(Ledger::new(node));
        ledgers.len() - 1
    } else {
        match ledgers.binary_search_by_key(&node, |l| l.node) {
            Ok(at) => at,
            Err(at) => {
                ledgers.insert(at, Ledger::new(node));
                at
            }
        }
    };
    &mut ledgers[at]
}

/// Puts a returned run into the free-list, keeping it sorted by base.
fn push_free(free: &mut Vec<Block>, block: Block) {
    if block.len == 0 {
        return;
    }
    let at = free.partition_point(|b| b.base < block.base);
    free.insert(at, block);
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
        Self { cursor: 0, free: Vec::new(), ledgers: Vec::new() }
    }

    fn ledger(&self, node: NodeId) -> Option<&Ledger> {
        let at = self.ledgers.binary_search_by_key(&node, |l| l.node).ok()?;
        Some(&self.ledgers[at])
    }

    /// The block recorded for `(node, req_id)`, if it was granted.
    #[must_use]
    pub fn grant(&self, node: NodeId, req_id: u64) -> Option<Block> {
        self.ledger(node)?.grant(req_id)
    }

    /// Worker `node`'s sealed watermark, once it sealed.
    #[must_use]
    pub fn sealed(&self, node: NodeId) -> Option<u64> {
        self.ledger(node)?.sealed
    }

    /// Every recorded grant as `(worker, request id, block)`, in worker
    /// then request-id order.
    pub fn grants(&self) -> impl Iterator<Item = (NodeId, u64, Block)> + '_ {
        self.ledgers
            .iter()
            .flat_map(|l| l.grants.iter().map(move |&(req_id, block)| (l.node, req_id, block)))
    }

    /// Every sealed worker with its watermark, in worker order.
    pub fn seals(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.ledgers.iter().filter_map(|l| Some((l.node, l.sealed?)))
    }

    /// Steps 1–2 of [`Self::lease_answer`], which change nothing:
    /// tombstoned → refused; recorded (unless `no_dedup`) → re-grant.
    #[must_use]
    pub fn recorded_answer(
        &self,
        node: NodeId,
        req_id: u64,
        no_dedup: bool,
    ) -> Option<LeaseAnswer> {
        self.ledger(node)?.recorded(req_id, no_dedup)
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
        let at = self.ledgers.binary_search_by_key(&node, |l| l.node).ok()?;
        let ledger = &mut self.ledgers[at];
        if let Some(answer) = ledger.recorded(req_id, no_dedup) {
            return Some(answer);
        }
        if ledger.sealed.is_some() {
            // A sealed worker gets nothing new; tombstone so the answer
            // is final.
            ledger.tombstone(req_id);
            return Some(LeaseAnswer::Refused);
        }
        None
    }

    /// Allocates a block for a fresh request and records the grant.
    /// Callers must have ruled out an existing answer via
    /// [`Self::lease_answer`] first.
    pub fn lease_grant(&mut self, node: NodeId, req_id: u64, want: u64) -> Block {
        let block = self.allocate(want.max(1));
        ledger_mut(&mut self.ledgers, node).record(req_id, block);
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
        let free = &mut self.free;
        let ledger = ledger_mut(&mut self.ledgers, node);
        let watermark = ledger.sealed.unwrap_or(0).max(watermark);
        ledger.sealed = Some(watermark);
        let mut remaining = watermark;
        ledger.grants.retain_mut(|(_, block)| {
            if remaining >= block.len {
                remaining -= block.len;
                return true;
            }
            let keep = remaining;
            remaining = 0;
            push_free(free, Block { base: block.base + keep, len: block.len - keep });
            block.len = keep;
            keep > 0
        });
        remaining == 0
    }

    /// Permanently bars `(node, req_id)` from allocation.
    pub fn tombstone(&mut self, node: NodeId, req_id: u64) {
        ledger_mut(&mut self.ledgers, node).tombstone(req_id);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;
    use crate::check::GlobalChecker;

    /// The coordinator state as three maps keyed by worker — the shape
    /// the per-worker ledgers replaced, kept as the reference they must
    /// match answer for answer.
    #[derive(Default)]
    struct Reference {
        cursor: u64,
        free: Vec<Block>,
        grants: BTreeMap<(NodeId, u64), Block>,
        tombstones: BTreeSet<(NodeId, u64)>,
        sealed: BTreeMap<NodeId, u64>,
    }

    impl Reference {
        fn lease_answer(
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
                self.tombstones.insert((node, req_id));
                return Some(LeaseAnswer::Refused);
            }
            None
        }

        fn lease_grant(&mut self, node: NodeId, req_id: u64, want: u64) -> Block {
            let want = want.max(1);
            let block = if let Some(first) = self.free.first_mut() {
                let take = want.min(first.len);
                let block = Block { base: first.base, len: take };
                first.base += take;
                first.len -= take;
                if first.len == 0 {
                    self.free.remove(0);
                }
                block
            } else {
                let block = Block { base: self.cursor, len: want };
                self.cursor += want;
                block
            };
            self.grants.insert((node, req_id), block);
            block
        }

        fn seal(&mut self, node: NodeId, watermark: u64) -> bool {
            let recorded = self.sealed.get(&node).copied().unwrap_or(0);
            let watermark = recorded.max(watermark);
            self.sealed.insert(node, watermark);
            let mut remaining = watermark;
            let mut from = 0;
            while let Some((&(_, req), block)) =
                self.grants.range_mut((node, from)..=(node, u64::MAX)).next()
            {
                if remaining >= block.len {
                    remaining -= block.len;
                } else {
                    let keep = remaining;
                    remaining = 0;
                    let tail = Block { base: block.base + keep, len: block.len - keep };
                    if keep == 0 {
                        self.grants.remove(&(node, req));
                    } else {
                        block.len = keep;
                    }
                    push_free(&mut self.free, tail);
                }
                match req.checked_add(1) {
                    Some(next) => from = next,
                    None => break,
                }
            }
            remaining == 0
        }

        fn grants(&self) -> Vec<(NodeId, u64, Block)> {
            self.grants.iter().map(|(&(node, req_id), &block)| (node, req_id, block)).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Random lease / grant / seal / tombstone sequences over 1–10
        // workers with arbitrary ids. A lease asks `lease_answer` and
        // grants when it says the request is fresh (the replica's apply
        // path); a bare grant skips the answer, so request ids also
        // arrive out of order and repeat. After every step the ledgers
        // hold the reference's grants in the same order, its seals, its
        // cursor and free-list; at the end the audit reads the same.
        #[test]
        fn the_ledgers_answer_like_the_keyed_maps(
            ids in collection::vec(any::<u64>(), 1..11),
            ops in collection::vec((0u8..4, 0usize..10, 0u64..12, 0u64..40, any::<bool>()), 0..200),
            handed in collection::vec(0u64..300, 0..60),
        ) {
            let mut ledgers = CoordinatorDurable::initial(&[]);
            let mut reference = Reference::default();
            for (op, worker, req_id, amount, flag) in ops {
                let node = ids[worker % ids.len()];
                let req_id = if req_id == 11 { u64::MAX } else { req_id };
                match op {
                    0 => {
                        let answer = ledgers.lease_answer(node, req_id, flag);
                        prop_assert_eq!(answer, reference.lease_answer(node, req_id, flag));
                        if answer.is_none() {
                            let block = ledgers.lease_grant(node, req_id, amount);
                            prop_assert_eq!(block, reference.lease_grant(node, req_id, amount));
                        }
                    }
                    1 => {
                        let block = ledgers.lease_grant(node, req_id, amount);
                        prop_assert_eq!(block, reference.lease_grant(node, req_id, amount));
                    }
                    2 => prop_assert_eq!(ledgers.seal(node, amount), reference.seal(node, amount)),
                    _ => {
                        ledgers.tombstone(node, req_id);
                        reference.tombstones.insert((node, req_id));
                    }
                }
                prop_assert_eq!(ledgers.cursor, reference.cursor);
                prop_assert_eq!(&ledgers.free, &reference.free);
                prop_assert_eq!(ledgers.grants().collect::<Vec<_>>(), reference.grants());
                let seals: Vec<(NodeId, u64)> = reference.sealed.iter().map(|(&n, &w)| (n, w)).collect();
                prop_assert_eq!(ledgers.seals().collect::<Vec<_>>(), seals);
                for &id in &ids {
                    for req_id in (0..11).chain([u64::MAX]) {
                        let tombstoned = reference.tombstones.contains(&(id, req_id));
                        let recorded = reference.grants.get(&(id, req_id)).copied();
                        let expected = if tombstoned {
                            Some(LeaseAnswer::Refused)
                        } else {
                            recorded.map(LeaseAnswer::Regrant)
                        };
                        prop_assert_eq!(ledgers.recorded_answer(id, req_id, false), expected);
                        prop_assert_eq!(ledgers.grant(id, req_id), recorded);
                    }
                    prop_assert_eq!(ledgers.sealed(id), reference.sealed.get(&id).copied());
                }
            }
            let mut checker = GlobalChecker::new();
            for (at, &value) in handed.iter().enumerate() {
                let _ = checker.record(1, value, at as u64);
            }
            let verdict = checker.audit(
                reference.cursor,
                &reference.free,
                reference.grants.values().copied(),
                reference.sealed.values().sum(),
            );
            prop_assert_eq!(checker.finalize(&ledgers), verdict);
        }
    }
}

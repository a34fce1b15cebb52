//! The global correctness checker.
//!
//! Two obligations, straight from the Fetch&Increment contract the rest
//! of the repo enforces within one process:
//!
//! * **online uniqueness** — every value handed out by any node, ever,
//!   is recorded as it happens; a repeat is a violation at the exact
//!   tick it occurs (so a counterexample trace ends at the bug);
//! * **exact range at quiescence** — after every worker has sealed, the
//!   coordinator's truncated grant log plus its free-list must tile
//!   `0..cursor` with no gap and no overlap, the handed-out set must be
//!   exactly the union of the truncated grants, and the sealed
//!   watermarks must account for every value. A leaked block (granted
//!   but lost to a protocol bug) shows up as a gap; a forked stream as
//!   an online duplicate; values conjured outside any grant as a
//!   membership miss.

use crate::coordinator::CoordinatorDurable;
use crate::message::{Block, NodeId};

/// How many violations of each finalize category are spelled out
/// individually before eliding (keeps pathological runs readable).
const MAX_DETAILED: usize = 8;

/// The online uniqueness + exact-range checker. See the [module
/// docs](self).
#[derive(Debug, Default)]
pub struct GlobalChecker {
    /// Bit `v % 64` of word `v / 64` is set once value `v` was handed
    /// out. Values are dense below the coordinator's cursor, so the
    /// bitmap grows to that range and no further.
    seen: Vec<u64>,
    unique: u64,
    handed: u64,
}

impl GlobalChecker {
    /// A fresh checker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handed-out value; returns the violation description
    /// if the value was already handed out (by any node).
    pub fn record(&mut self, node: NodeId, value: u64, at: u64) -> Option<String> {
        self.handed += 1;
        let word = (value / 64) as usize;
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        let bit = 1 << (value % 64);
        if self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.unique += 1;
            None
        } else {
            Some(format!("uniqueness: value {value} handed out again by n{node} at t{at}"))
        }
    }

    /// Whether `value` was handed out.
    fn contains(&self, value: u64) -> bool {
        let word = usize::try_from(value / 64).ok().and_then(|word| self.seen.get(word));
        word.is_some_and(|word| word >> (value % 64) & 1 == 1)
    }

    /// Values handed out, counting repeats.
    #[must_use]
    pub fn handed(&self) -> u64 {
        self.handed
    }

    /// Distinct values handed out.
    #[must_use]
    pub fn unique(&self) -> u64 {
        self.unique
    }

    /// The quiescence audit against the coordinator's durable state;
    /// returns every exact-range violation found (empty = clean).
    #[must_use]
    pub fn finalize(&self, coordinator: &CoordinatorDurable) -> Vec<String> {
        let mut violations = Vec::new();

        // 1. Grants (truncated to consumed prefixes) + free runs must
        //    tile 0..cursor exactly.
        let mut runs: Vec<(Block, bool)> = coordinator
            .grants
            .values()
            .map(|&b| (b, true))
            .chain(coordinator.free.iter().map(|&b| (b, false)))
            .filter(|(b, _)| b.len > 0)
            .collect();
        runs.sort_by_key(|(b, _)| b.base);
        let mut expect = 0u64;
        for (block, granted) in &runs {
            let kind = if *granted { "grant" } else { "free" };
            if block.base > expect {
                violations
                    .push(format!("exact-range: gap [{expect}..{}) before {kind} run", block.base));
            } else if block.base < expect {
                violations.push(format!(
                    "exact-range: overlap at {} ({kind} run begins inside another)",
                    block.base
                ));
            }
            expect = expect.max(block.end());
        }
        if expect < coordinator.cursor {
            violations.push(format!("exact-range: gap [{expect}..{}) at tail", coordinator.cursor));
        } else if expect > coordinator.cursor {
            violations.push(format!(
                "exact-range: runs extend to {expect}, past cursor {}",
                coordinator.cursor
            ));
        }

        // 2. The handed-out set must be exactly the union of truncated
        //    grants.
        let granted_total: u64 = runs.iter().filter(|(_, g)| *g).map(|(b, _)| b.len).sum();
        if granted_total != self.unique() {
            violations.push(format!(
                "exact-range: {} values in truncated grants, {} distinct values handed out",
                granted_total,
                self.unique()
            ));
        }
        let mut missing = 0usize;
        for (block, granted) in &runs {
            if !granted {
                continue;
            }
            for value in block.base..block.end() {
                if !self.contains(value) {
                    missing += 1;
                    if missing <= MAX_DETAILED {
                        violations.push(format!(
                            "exact-range: granted value {value} was never handed out"
                        ));
                    }
                }
            }
        }
        if missing > MAX_DETAILED {
            violations.push(format!(
                "exact-range: …and {} more granted-but-never-handed values",
                missing - MAX_DETAILED
            ));
        }

        // 3. Sealed watermarks must account for every hand-out.
        let sealed_total: u64 = coordinator.sealed.values().sum();
        if sealed_total != granted_total {
            violations.push(format!(
                "exact-range: sealed watermarks sum to {sealed_total}, truncated grants to {granted_total}"
            ));
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn coordinator_state(
        cursor: u64,
        grants: Vec<(NodeId, u64, Block)>,
        free: Vec<Block>,
        sealed: Vec<(NodeId, u64)>,
    ) -> CoordinatorDurable {
        CoordinatorDurable {
            cursor,
            free,
            grants: grants.into_iter().map(|(n, r, b)| ((n, r), b)).collect(),
            tombstones: BTreeSet::new(),
            sealed: sealed.into_iter().collect(),
        }
    }

    #[test]
    fn online_uniqueness_catches_the_second_hand_out() {
        let mut checker = GlobalChecker::new();
        assert!(checker.record(1, 5, 10).is_none());
        assert!(checker.record(2, 6, 11).is_none());
        let violation = checker.record(2, 5, 12).expect("duplicate detected");
        assert!(violation.contains("value 5"), "{violation}");
        assert_eq!(checker.handed(), 3);
        assert_eq!(checker.unique(), 2);
    }

    #[test]
    fn the_bitmap_is_exact_across_word_boundaries() {
        let mut checker = GlobalChecker::new();
        for (at, value) in [63, 64, 65, 127, 128, 1 << 20].into_iter().enumerate() {
            assert!(checker.record(1, value, at as u64).is_none(), "{value} is fresh");
        }
        let violation = checker.record(2, 64, 9).expect("duplicate at a word boundary");
        assert_eq!(violation, "uniqueness: value 64 handed out again by n2 at t9");
        assert_eq!((checker.handed(), checker.unique()), (7, 6));
        // 126 is granted beside handed-out neighbours but never handed.
        let coordinator = coordinator_state(
            129,
            vec![(1, 0, Block { base: 63, len: 3 }), (1, 1, Block { base: 126, len: 3 })],
            vec![],
            vec![(1, 6)],
        );
        let missing: Vec<String> = checker
            .finalize(&coordinator)
            .into_iter()
            .filter(|v| v.contains("was never handed out"))
            .collect();
        assert_eq!(missing, ["exact-range: granted value 126 was never handed out"]);
    }

    #[test]
    fn clean_accounting_finalizes_clean() {
        let mut checker = GlobalChecker::new();
        for v in 0..4 {
            assert!(checker.record(1, v, v).is_none());
        }
        let coordinator = coordinator_state(
            10,
            vec![(1, 0, Block { base: 0, len: 4 })],
            vec![Block { base: 4, len: 6 }],
            vec![(1, 4)],
        );
        assert_eq!(checker.finalize(&coordinator), Vec::<String>::new());
    }

    #[test]
    fn a_leaked_block_is_a_gap() {
        let mut checker = GlobalChecker::new();
        for v in 8..12 {
            let _ = checker.record(1, v, v);
        }
        // [0..8) was allocated (cursor = 12) but neither granted nor
        // freed — the signature of a lost grant record.
        let coordinator =
            coordinator_state(12, vec![(1, 1, Block { base: 8, len: 4 })], vec![], vec![(1, 4)]);
        let violations = checker.finalize(&coordinator);
        assert!(violations.iter().any(|v| v.contains("gap [0..8)")), "{violations:?}");
    }

    #[test]
    fn overlap_and_tail_gap_are_reported() {
        let checker = GlobalChecker::new();
        let overlapping = coordinator_state(
            8,
            vec![(1, 0, Block { base: 0, len: 5 }), (2, 0, Block { base: 3, len: 5 })],
            vec![],
            vec![],
        );
        let violations = checker.finalize(&overlapping);
        assert!(violations.iter().any(|v| v.contains("overlap at 3")), "{violations:?}");

        let short = coordinator_state(8, vec![], vec![Block { base: 0, len: 5 }], vec![]);
        let violations = checker.finalize(&short);
        assert!(violations.iter().any(|v| v.contains("gap [5..8) at tail")), "{violations:?}");
    }

    #[test]
    fn granted_but_never_handed_values_are_reported() {
        let mut checker = GlobalChecker::new();
        let _ = checker.record(1, 0, 1);
        let coordinator =
            coordinator_state(2, vec![(1, 0, Block { base: 0, len: 2 })], vec![], vec![(1, 2)]);
        let violations = checker.finalize(&coordinator);
        assert!(
            violations.iter().any(|v| v.contains("value 1 was never handed out")),
            "{violations:?}"
        );
    }
}

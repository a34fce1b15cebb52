//! A discrete model of the elimination/combining arena that
//! `counting-runtime::elimination` places in front of a shared counter.
//!
//! The runtime layer lets concurrent `next_batch` callers with arbitrary
//! batch sizes collide on a small arena of exchanger slots, merge their
//! requests into one combined contiguous reservation, and split the
//! resulting range gap-free. This module reproduces that protocol in the
//! simulator's deterministic round-based world, so the collision rate and
//! traversal reduction measured on real hardware (`exp_elimination`) can
//! be compared against a schedule-controlled prediction — the same
//! simulated-versus-measured discipline the stall-model simulator already
//! provides for contention.
//!
//! Two pieces are shared with the runtime:
//!
//! * [`batch_size_sequence`] — the deterministic mixed-batch-size
//!   generator. The stress harness (`Batching::Mixed`) draws per-operation
//!   sizes from the *same* stream, so a simulated arena run and a
//!   real-thread stress run with equal parameters process identical
//!   request-size sequences.
//! * The slot protocol itself: offer, pairwise capture, combined
//!   reservation, split, and timeout fallback, mirrored here as
//!   round-based state transitions — including the runtime's multi-slot
//!   probe window ([`ArenaConfig::probe`]).
//!
//! The probe window decides when the arena first merges. With the
//! runtime's 4 slots, 4 rounds of patience, blocks of 1..=4 and seed
//! `0xE15`, the model's operations per reservation κ(n) are: with a
//! window of 1, κ(1..=4) = 1; with the runtime's window of 2, κ(4) = 2. A
//! test below pins the κ values.

use serde::Serialize;

/// Returns the deterministic sequence of mixed batch sizes for one
/// logical stream (a thread in the runtime, a process in the model).
///
/// Sizes are drawn uniformly from `1..=max_k` by a SplitMix64 generator
/// seeded from `(seed, stream)`, so distinct streams are decorrelated but
/// every run with the same parameters sees identical sequences — on real
/// hardware and in the simulator alike.
///
/// # Panics
///
/// Panics if `max_k` is zero.
pub fn batch_size_sequence(seed: u64, stream: u64, max_k: usize) -> impl Iterator<Item = usize> {
    assert!(max_k > 0, "max_k must be at least 1");
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    std::iter::repeat_with(move || {
        // SplitMix64: one additive step + two xor-shift mixes per draw.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % max_k as u64) as usize + 1
    })
}

/// Configuration of one arena-model run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaConfig {
    /// Number of concurrent processes driving the arena.
    pub processes: usize,
    /// Number of exchanger slots in the arena.
    pub slots: usize,
    /// Rounds a published offer waits for a partner before the process
    /// gives up and reserves solo (`0` = never offer, always go solo).
    pub spin_rounds: usize,
    /// Operations per process.
    pub ops_per_process: u64,
    /// Batch sizes are drawn from `1..=max_k`.
    pub max_k: usize,
    /// Seed of the shared batch-size stream (see [`batch_size_sequence`]).
    pub seed: u64,
    /// Probe window: how many adjacent slots (starting at the hashed home
    /// slot) a process scans for a partner, and spills its offer into,
    /// before reserving solo. Clamped to `slots`; the runtime narrows its
    /// window adaptively with the merge-credit score, the model always
    /// probes the full window (an upper envelope, like its collision
    /// rate). Must be `>= 1`.
    pub probe: usize,
}

/// The outcome of one arena-model run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArenaReport {
    /// Number of processes of the run.
    pub processes: usize,
    /// Number of arena slots of the run.
    pub slots: usize,
    /// Total operations performed.
    pub ops: u64,
    /// Total values reserved (sum of all batch sizes).
    pub values: u64,
    /// Reservations performed against the underlying counter (combined
    /// pairs count once; every solo fallback counts once).
    pub reservations: u64,
    /// Operations that merged with a partner (both sides counted, so this
    /// is always even and `collisions / 2` is the number of pairs).
    pub collisions: u64,
    /// Operations that reserved solo (no partner within the spin bound,
    /// or the arena slot was busy).
    pub fallbacks: u64,
    /// `collisions / ops` — the fraction of operations served by merging.
    pub collision_rate: f64,
    /// `ops / reservations` — how many operations one underlying
    /// reservation serves on average (`2.0` = perfect pairwise merging).
    pub combining_factor: f64,
    /// Whether the values reserved form exactly `0..values` (must always
    /// hold: contiguous blocks tile the value space by construction).
    pub is_exact_range: bool,
}

/// Where a modeled process currently is in the slot protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// About to start its next operation (or done).
    Idle,
    /// Waiting in a slot with a published offer; the payload counts the
    /// rounds of patience left.
    Waiting { slot: usize, patience: usize },
}

/// Runs the round-based arena model to completion.
///
/// Each round every live process takes one protocol step, in rotating
/// order (the rotation stands in for scheduling nondeterminism while
/// keeping the run reproducible):
///
/// * an idle process draws its next batch size and probes a window of
///   [`ArenaConfig::probe`] slots starting at its hashed home slot: the
///   first waiting offer found merges — one combined reservation for the
///   summed sizes, split contiguously, both operations complete; failing
///   that, the first free slot of the window receives the process's own
///   offer (patience = `spin_rounds`); a fully busy window reserves solo;
/// * a waiting process loses one round of patience; at zero it retracts
///   the offer and reserves solo.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero processes, slots,
/// operations, `max_k`, or a zero probe window).
#[must_use]
pub fn simulate_arena(config: &ArenaConfig) -> ArenaReport {
    assert!(config.processes > 0, "at least one process is required");
    assert!(config.slots > 0, "the arena needs at least one slot");
    assert!(config.ops_per_process > 0, "at least one operation per process is required");
    assert!(config.max_k > 0, "max_k must be at least 1");
    assert!(config.probe > 0, "the probe window needs at least one slot");

    let n = config.processes;
    let mut sizes: Vec<_> =
        (0..n).map(|p| batch_size_sequence(config.seed, p as u64, config.max_k)).collect();
    let mut remaining: Vec<u64> = vec![config.ops_per_process; n];
    let mut state = vec![ProcState::Idle; n];
    // Slot occupancy: the waiting process id and its offered size.
    let mut slot_offer: Vec<Option<(usize, usize)>> = vec![None; config.slots];
    // Slot choice per process: a per-process counter hashed like the
    // runtime's slot hint, so processes revisit different slots over time.
    let mut probes: Vec<u64> = (0..n as u64).collect();

    let mut cursor = 0u64; // the contiguous value cursor
    let mut bases: Vec<(u64, u64)> = Vec::new(); // (base, len) reservations
    let mut reservations = 0u64;
    let mut collisions = 0u64;
    let mut fallbacks = 0u64;
    let mut values = 0u64;
    let mut ops = 0u64;

    let reserve = |len: u64, out: &mut Vec<(u64, u64)>, cursor: &mut u64| {
        out.push((*cursor, len));
        *cursor += len;
    };

    let window = config.probe.min(config.slots);
    let mut round = 0usize;
    while remaining.iter().any(|&r| r > 0) || state.iter().any(|s| *s != ProcState::Idle) {
        for offset in 0..n {
            // Rotate who moves first each round.
            let p = (round + offset) % n;
            match state[p] {
                ProcState::Waiting { slot, patience } => {
                    if patience == 0 {
                        // Timeout: retract the offer, reserve solo.
                        let (_, k) = slot_offer[slot].take().expect("offer present");
                        reserve(k as u64, &mut bases, &mut cursor);
                        reservations += 1;
                        fallbacks += 1;
                        state[p] = ProcState::Idle;
                    } else {
                        state[p] = ProcState::Waiting { slot, patience: patience - 1 };
                    }
                }
                ProcState::Idle => {
                    if remaining[p] == 0 {
                        continue;
                    }
                    remaining[p] -= 1;
                    ops += 1;
                    let k = sizes[p].next().expect("infinite stream");
                    values += k as u64;
                    probes[p] = probes[p].wrapping_add(0x9E37_79B9);
                    let home = (probes[p] % config.slots as u64) as usize;
                    // Capture scan: merge with the first offer in the
                    // probe window.
                    let captured = (0..window).map(|i| (home + i) % config.slots).find(
                        |&slot| matches!(slot_offer[slot], Some((partner, _)) if partner != p),
                    );
                    if let Some(slot) = captured {
                        // Collide: one combined reservation, split.
                        let (partner, partner_k) = slot_offer[slot].take().expect("offer present");
                        state[partner] = ProcState::Idle;
                        reserve((partner_k + k) as u64, &mut bases, &mut cursor);
                        reservations += 1;
                        collisions += 2;
                        continue;
                    }
                    // No partner: spill the offer into the first free
                    // slot of the window, or reserve solo if the window
                    // is fully busy (or offering is disabled).
                    let free = (0..window)
                        .map(|i| (home + i) % config.slots)
                        .find(|&slot| slot_offer[slot].is_none());
                    match free {
                        Some(slot) if config.spin_rounds > 0 => {
                            slot_offer[slot] = Some((p, k));
                            state[p] = ProcState::Waiting { slot, patience: config.spin_rounds };
                        }
                        _ => {
                            reserve(k as u64, &mut bases, &mut cursor);
                            reservations += 1;
                            fallbacks += 1;
                        }
                    }
                }
            }
        }
        round += 1;
    }

    // Contiguous reservations must tile 0..cursor exactly.
    let mut sorted = bases.clone();
    sorted.sort_unstable();
    let mut expect = 0u64;
    let mut exact = true;
    for &(base, len) in &sorted {
        if base != expect {
            exact = false;
            break;
        }
        expect = base + len;
    }
    exact = exact && expect == values && cursor == values;

    ArenaReport {
        processes: n,
        slots: config.slots,
        ops,
        values,
        reservations,
        collisions,
        fallbacks,
        collision_rate: if ops == 0 { 0.0 } else { collisions as f64 / ops as f64 },
        combining_factor: if reservations == 0 { 0.0 } else { ops as f64 / reservations as f64 },
        is_exact_range: exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(processes: usize, slots: usize, spin_rounds: usize) -> ArenaConfig {
        ArenaConfig {
            processes,
            slots,
            spin_rounds,
            ops_per_process: 200,
            max_k: 8,
            seed: 42,
            probe: 1,
        }
    }

    #[test]
    fn sequences_are_deterministic_and_in_range() {
        let a: Vec<usize> = batch_size_sequence(7, 3, 32).take(100).collect();
        let b: Vec<usize> = batch_size_sequence(7, 3, 32).take(100).collect();
        assert_eq!(a, b, "same seed and stream must replay identically");
        assert!(a.iter().all(|&k| (1..=32).contains(&k)));
        let other: Vec<usize> = batch_size_sequence(7, 4, 32).take(100).collect();
        assert_ne!(a, other, "distinct streams must be decorrelated");
    }

    #[test]
    fn sequences_cover_the_whole_size_range() {
        let seen: std::collections::HashSet<usize> =
            batch_size_sequence(1, 0, 4).take(200).collect();
        assert_eq!(seen, (1..=4).collect());
    }

    #[test]
    #[should_panic(expected = "max_k must be at least 1")]
    fn zero_max_k_rejected() {
        let _ = batch_size_sequence(0, 0, 0);
    }

    #[test]
    fn accounting_adds_up_and_range_is_exact() {
        let report = simulate_arena(&config(8, 4, 6));
        assert_eq!(report.ops, 8 * 200);
        assert_eq!(report.collisions + report.fallbacks, report.ops);
        assert_eq!(report.collisions % 2, 0, "collisions count both partners");
        assert_eq!(report.reservations, report.collisions / 2 + report.fallbacks);
        assert!(report.is_exact_range, "contiguous blocks must tile: {report:?}");
        assert!(report.values >= report.ops, "every op reserves at least one value");
    }

    #[test]
    fn zero_spin_means_every_operation_goes_solo() {
        let report = simulate_arena(&config(8, 4, 0));
        assert_eq!(report.collisions, 0);
        assert_eq!(report.fallbacks, report.ops);
        assert_eq!(report.reservations, report.ops);
        assert!((report.combining_factor - 1.0).abs() < f64::EPSILON);
        assert!(report.is_exact_range);
    }

    #[test]
    fn patient_pairs_on_one_slot_mostly_combine() {
        // Two processes sharing one slot with ample patience should merge
        // nearly every operation (the tail of a run can leave one solo).
        let report = simulate_arena(&config(2, 1, 64));
        assert!(report.collision_rate > 0.9, "pairs should combine almost always: {report:?}");
        assert!(report.combining_factor > 1.8, "{report:?}");
    }

    #[test]
    fn more_processes_collide_more_than_a_lone_process() {
        let crowded = simulate_arena(&config(8, 2, 8));
        let lone = simulate_arena(&config(1, 2, 8));
        assert_eq!(lone.collisions, 0, "a lone process has nobody to merge with");
        assert!(crowded.collision_rate > 0.0, "{crowded:?}");
        assert!(crowded.collision_rate > lone.collision_rate);
    }

    #[test]
    fn the_probe_window_decides_kappa_at_four_processes() {
        // The runtime's slot count, with literals: `counting-sim` cannot
        // see the runtime's constants. A window of 2 (the runtime's) merges at
        // n = 4 but not at n = 3; a window of 1 merges at neither.
        let kappa = |processes, probe| {
            simulate_arena(&ArenaConfig {
                processes,
                slots: 4,
                spin_rounds: 4,
                ops_per_process: 1024,
                max_k: 4,
                seed: 0xE15,
                probe,
            })
            .combining_factor
        };
        assert!(kappa(3, 2) < 1.1, "window 2, n = 3: {}", kappa(3, 2));
        assert!(kappa(4, 2) > 1.9, "window 2, n = 4: {}", kappa(4, 2));
        assert!(kappa(4, 1) < 1.1, "window 1, n = 4: {}", kappa(4, 1));
    }

    #[test]
    fn wider_probe_windows_find_partners_across_slots() {
        // Two processes over four slots with hashed homes: a window of 1
        // only merges when the homes collide, a full-width window always
        // finds the waiting partner.
        let narrow = simulate_arena(&config(2, 4, 8));
        let wide = simulate_arena(&ArenaConfig { probe: 4, ..config(2, 4, 8) });
        assert!(
            wide.collision_rate > narrow.collision_rate,
            "wide {wide:?} must beat narrow {narrow:?}"
        );
        assert!(wide.is_exact_range && narrow.is_exact_range);
        assert_eq!(wide.collisions + wide.fallbacks, wide.ops);
    }

    #[test]
    fn probe_window_is_clamped_to_the_slot_count() {
        let clamped = simulate_arena(&ArenaConfig { probe: 64, ..config(8, 4, 6) });
        let full = simulate_arena(&ArenaConfig { probe: 4, ..config(8, 4, 6) });
        assert_eq!(clamped, full, "probing past the arena is the same as probing all of it");
    }

    #[test]
    #[should_panic(expected = "probe window needs at least one slot")]
    fn zero_probe_rejected() {
        let _ = simulate_arena(&ArenaConfig { probe: 0, ..config(1, 1, 1) });
    }

    #[test]
    fn report_serializes_to_json() {
        let report = simulate_arena(&config(4, 2, 4));
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(json.contains("\"collision_rate\":"), "{json}");
        assert!(json.contains("\"is_exact_range\":true"), "{json}");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = simulate_arena(&config(1, 0, 1));
    }
}

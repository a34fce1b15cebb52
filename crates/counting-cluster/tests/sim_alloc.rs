//! Allocation budget of the untraced simulator, in a test binary of its
//! own so the counting allocator sees nothing but the simulations: a
//! `format!` put back in front of a disabled trace record, or a
//! per-event `Vec`, fails here instead of in a benchmark run a week
//! later.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use counting_cluster::{run_sim, ClusterSimConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: both calls forward unchanged to `System` (the provided
// `realloc` goes through `alloc`, so a grow counts once); the counter is
// a statistic and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn untraced_simulation_stays_within_its_allocation_budget() {
    // The benchmark's `cluster-failover` cell, trace off.
    let config = ClusterSimConfig {
        workers: 8,
        replicas: 3,
        replica_crashes: 2,
        partitions: 2,
        ..ClusterSimConfig::default()
    };
    let (mut events, mut handed) = (0, 0);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for seed in 1..=20 {
        let report = run_sim(&config, seed);
        assert!(report.violations.is_empty(), "seed {seed}: {:?}", report.violations);
        events += report.stats.events;
        handed += report.handed;
    }
    let allocations = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64;
    let per_event = allocations / events as f64;
    let per_value = allocations / handed as f64;
    println!(
        "untraced run_sim, 20 seeds: {per_event:.4} allocations per event, {per_value:.4} per value"
    );
    // The budget is per value, 10 % over its reading (0.1674; 0.1720
    // while the coordinator kept its grants in one B-tree keyed by
    // worker and request, and each hop's envelope moved through the
    // queue; 0.2455 while stale acks were answered and the clock visited
    // every machine each tick). Per event is printed but not bounded: a
    // change that removes events without adding allocations raises it
    // (0.0664 -> 0.0699 while allocations per value fell 30 %).
    assert!(per_value <= 0.184, "{per_value:.4} allocations per value exceeds the 0.184 budget");
}

//! Allocation budget of the registry's and the adapters' hot paths, in a
//! test binary of its own so the counting allocator sees nothing but
//! these calls: a reservation, a lookup, an adapter call, an eviction or
//! a re-creation after a sweep that starts allocating, or a creation that
//! allocates more than it must, fails here instead of in a benchmark run.
//!
//! Each test counts only its own thread's allocations (the harness runs
//! the tests on threads of their own, side by side).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use counting_runtime::BlockReserve;
use counting_service::{
    CounterService, EvictOutcome, IdGenerator, RateLimiter, ServiceConfig, TicketGate,
};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both calls forward unchanged to `System` (the provided
// `realloc` goes through `alloc`, so a grow counts once); the counter is
// a const-initialised thread-local without a destructor, so touching it
// allocates nothing, and `try_with` skips it while a thread tears down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
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

/// The calling thread's allocations while `work` runs.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_reservation_on_a_warm_tenant_allocates_nothing() {
    let service = CounterService::new(ServiceConfig::default());
    let tenant = service.get_or_create("hot");
    let _ = tenant.reserve_block(0, 1);
    let counted = allocations(|| {
        for op in 0..100_000usize {
            std::hint::black_box(tenant.reserve_block(0, 1 + op % 4));
        }
    });
    assert_eq!(counted, 0, "100 000 reservations allocated {counted} times");
}

#[test]
fn a_lookup_of_a_live_tenant_allocates_nothing() {
    let service = CounterService::new(ServiceConfig::default());
    let _live = service.get_or_create("live");
    let counted = allocations(|| {
        for _ in 0..100_000 {
            std::hint::black_box(service.get("live"));
        }
    });
    assert_eq!(counted, 0, "100 000 lookups allocated {counted} times");
}

#[test]
fn a_first_get_or_create_allocates_its_name_its_counter_and_a_table() {
    let service = CounterService::new(ServiceConfig::default());
    let counted = allocations(|| drop(service.get_or_create("first")));
    println!("a first get_or_create: {counted} allocations");
    // The reading: the name, the counter and the shard's first table.
    assert!(counted <= 3, "a first get_or_create allocated {counted} times, over the 3 budget");
}

#[test]
fn a_warm_ticket_acquire_allocates_nothing() {
    let service = CounterService::new(ServiceConfig::default());
    let gate = TicketGate::new(service.get_or_create("tickets"));
    let _ = gate.acquire(0);
    let counted = allocations(|| {
        for _ in 0..100_000 {
            std::hint::black_box(gate.acquire(0));
        }
    });
    println!("100 000 warm ticket acquires: {counted} allocations");
    assert_eq!(counted, 0, "100 000 ticket acquires allocated {counted} times");
}

#[test]
fn a_rate_acquire_inside_one_window_allocates_nothing() {
    let service = CounterService::new(ServiceConfig::default());
    let limiter = RateLimiter::new(service.get_or_create("rate"), 1_000);
    assert!(limiter.try_acquire(0, 1), "the first request opens the window");
    let counted = allocations(|| {
        for _ in 0..100_000 {
            std::hint::black_box(limiter.try_acquire(0, 1));
        }
    });
    println!("100 000 rate acquires in one window: {counted} allocations");
    assert_eq!(counted, 0, "100 000 rate acquires allocated {counted} times");
}

#[test]
fn an_id_inside_a_lease_allocates_nothing() {
    let service = CounterService::new(ServiceConfig::default());
    let mut ids = IdGenerator::new(service.get_or_create("ids"), 0, 100_001);
    let _ = ids.next_id();
    let counted = allocations(|| {
        for _ in 0..100_000 {
            std::hint::black_box(ids.next_id());
        }
    });
    assert_eq!(ids.remaining(), 0, "every id came from the first lease");
    println!("100 000 ids inside one lease: {counted} allocations");
    assert_eq!(counted, 0, "100 000 leased ids allocated {counted} times");
}

#[test]
fn evicting_an_idle_tenant_allocates_nothing() {
    let service = CounterService::new(ServiceConfig::default());
    let tenant = service.get_or_create("idle");
    let _ = tenant.reserve_block(0, 8);
    drop(tenant);
    let counted = allocations(|| {
        assert_eq!(service.try_evict("idle"), EvictOutcome::Evicted { watermark: 8 });
    });
    println!("an idle tenant's try_evict: {counted} allocations");
    assert_eq!(counted, 0, "a try_evict allocated {counted} times");
}

#[test]
fn a_tenant_re_created_after_a_sweep_allocates_nothing() {
    let service = CounterService::new(ServiceConfig::default());
    let names: Vec<String> = (0..100).map(|i| format!("churn/{i}")).collect();
    for name in &names {
        let _ = service.get_or_create(name).reserve_block(0, 1);
    }
    assert_eq!(service.evict_idle(), names.len());
    let counted = allocations(|| {
        for name in &names {
            assert_eq!(service.get_or_create(name).reserve_block(0, 1), 1);
        }
    });
    println!("100 tenants re-created after a sweep: {counted} allocations");
    assert_eq!(counted, 0, "100 re-creations allocated {counted} times");
}

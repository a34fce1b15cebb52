//! Allocation budget of one warm request per endpoint, through the path a
//! server worker runs — `read_request` → `route` → `write_response` — in
//! a test binary of its own so the counting allocator sees nothing but
//! these calls. A request path that starts allocating more fails here
//! instead of in a benchmark run.
//!
//! Each count covers only the test thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use counting_server::http::{read_request, write_response, ReadOutcome};
use counting_server::router::route;
use counting_server::{AppState, ServerConfig};

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

const REQUESTS: u64 = 1_000;

/// The calling thread's allocations per request for `GET target`, after
/// one warm-up request has created the tenant and its adapter.
fn allocations_per_request(target: &str) -> f64 {
    let state = AppState::new(&ServerConfig::default());
    let raw = format!("GET {target} HTTP/1.1\r\nHost: counting\r\n\r\n");
    let mut sink = Vec::with_capacity(4096);
    let mut serve = || {
        let Ok(ReadOutcome::Request(request)) = read_request(&mut raw.as_bytes()) else {
            panic!("{target}: the fixture must parse");
        };
        let response = route(&state, 0, &request);
        assert_eq!(response.status, 200, "{target}: {}", response.body);
        sink.clear();
        write_response(&mut sink, &response, request.keep_alive).expect("in-memory write");
    };
    serve();
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..REQUESTS {
        serve();
    }
    (ALLOCATIONS.with(Cell::get) - before) as f64 / REQUESTS as f64
}

#[test]
fn a_warm_request_allocates_within_its_endpoints_budget() {
    // (target, budget): each budget is the reading, per request.
    let rows = [
        ("/ticket/t", 22.0),
        ("/admit/t?n=1", 25.0),
        ("/status/t?ticket=0", 28.0),
        ("/lease/t?k=8", 24.0),
        ("/rate/t?window=1", 25.0),
    ];
    let readings: Vec<f64> =
        rows.iter().map(|&(target, _)| allocations_per_request(target)).collect();
    for ((target, budget), reading) in rows.iter().zip(&readings) {
        println!("{target}: {reading:.2} allocations per warm request (budget {budget})");
    }
    for ((target, budget), reading) in rows.iter().zip(&readings) {
        assert!(reading <= budget, "{target}: {reading:.2} allocations, over the {budget} budget");
    }
}

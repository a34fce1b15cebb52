//! Torture suite for the multi-tenant service layer: real threads hammer
//! a [`CounterService`] while an evictor churns idle tenants, and every
//! tenant's hand-out is checked for uniqueness and exact-range coverage
//! with the stress harness's [`ValueBitmap`] — the registry-level
//! counterpart of `stress_torture.rs`.
//!
//! `STRESS_TORTURE_OPS` scales the per-thread operation count like the
//! rest of the torture suite (CI keeps it small; the nightly job turns
//! it up).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use counting_networks::runtime::stress::ValueBitmap;
use counting_networks::runtime::SharedCounter;
use counting_networks::service::{CounterService, EvictOutcome, ServiceConfig, TenantCounter};

fn ops_scale() -> u64 {
    std::env::var("STRESS_TORTURE_OPS").ok().and_then(|s| s.parse().ok()).unwrap_or(25)
}

/// Per-thread operations for the torture runs.
fn ops_per_thread() -> u64 {
    ops_scale() * 40
}

/// Asserts one tenant's hand-out was exactly `0..watermark`: `marked`
/// values observed, no duplicates (checked online by the caller), first
/// gap at the watermark.
fn assert_tenant_dense(tenant: &str, bitmap: &ValueBitmap, watermark: u64) {
    let marked = bitmap.capacity() - bitmap.missing();
    assert_eq!(marked, watermark, "tenant {tenant}: observed values vs watermark");
    if watermark < bitmap.capacity() {
        assert_eq!(
            bitmap.missing_values(1),
            vec![watermark],
            "tenant {tenant}: hand-out must tile 0..{watermark} with no gap"
        );
    }
}

/// The heart of the satellite: eviction racing live traffic can never
/// fork or gap a tenant's value stream — the registry only retires
/// counters it solely owns and re-creation resumes at the recorded
/// watermark.
#[test]
fn eviction_under_traffic_never_violates_per_tenant_uniqueness() {
    let threads = 8usize;
    let ops = ops_per_thread();
    let tenants = ["alpha", "beta", "gamma", "delta"];
    let service = CounterService::new(ServiceConfig { width: 8, ..ServiceConfig::default() });
    let capacity = threads as u64 * ops * 3; // max k below is 3
    let bitmaps: Vec<ValueBitmap> = tenants.iter().map(|_| ValueBitmap::new(capacity)).collect();
    let duplicates = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let evictions = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let (service, bitmaps, duplicates) = (&service, &bitmaps, &duplicates);
                scope.spawn(move || {
                    let mut scratch = Vec::new();
                    for op in 0..ops {
                        // Deterministic tenant walk + mixed batch
                        // sizes: per-tenant op counts end up unequal
                        // and indivisible, which block reservations
                        // absorb.
                        let tenant = (op as usize + tid * 7) % tenants.len();
                        let k = 1 + ((op as usize + tid) % 3);
                        let counter = service.get_or_create(tenants[tenant]);
                        scratch.clear();
                        counter.next_batch(tid, k, &mut scratch);
                        for &value in &scratch {
                            if !bitmaps[tenant].mark(value) {
                                duplicates.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // The handle drops here — an eviction window.
                    }
                })
            })
            .collect();
        let (service, done, evictions) = (&service, &done, &evictions);
        scope.spawn(move || {
            while !done.load(Ordering::Acquire) {
                evictions.fetch_add(service.evict_idle() as u64, Ordering::Relaxed);
                std::thread::yield_now();
            }
        });
        // Join first, stop the evictor, and only then propagate any
        // worker panic — asserting before the flag flip would leave
        // the evictor looping forever and turn a failure into a hang.
        let results: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Release);
        for result in results {
            result.expect("worker panicked");
        }
    });

    assert_eq!(duplicates.load(Ordering::Relaxed), 0);
    for (i, tenant) in tenants.iter().enumerate() {
        assert_tenant_dense(tenant, &bitmaps[i], service.watermark(tenant));
    }
}

/// The racing-creation satellite, under churn: all threads repeatedly
/// resolve the *same* tenant while an evictor tries to retire it. At any
/// instant every live handle must point at one instance (creation is
/// double-checked under the shard lock), and the value stream across
/// however many instance lifetimes the evictor manages must stay dense.
#[test]
fn racing_get_or_create_on_one_tenant_yields_one_counter() {
    let threads = 8usize;
    let ops = ops_per_thread();
    let service = CounterService::new(ServiceConfig { width: 8, ..ServiceConfig::default() });
    let capacity = threads as u64 * ops;
    let bitmap = ValueBitmap::new(capacity);
    let duplicates = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let evicted = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let (service, bitmap, duplicates) = (&service, &bitmap, &duplicates);
                scope.spawn(move || {
                    for _ in 0..ops {
                        let a = service.get_or_create("hot");
                        let b = service.get_or_create("hot");
                        assert!(
                            Arc::ptr_eq(&a, &b),
                            "two concurrent resolutions of a live tenant must agree"
                        );
                        if !bitmap.mark(a.next(tid)) {
                            duplicates.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        let (service, done, evicted) = (&service, &done, &evicted);
        scope.spawn(move || {
            while !done.load(Ordering::Acquire) {
                if let EvictOutcome::Evicted { .. } = service.try_evict("hot") {
                    evicted.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });
        // Same ordering as above: flag the evictor down before
        // propagating worker panics, or a failed assertion hangs the
        // test instead of failing it.
        let results: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Release);
        for result in results {
            result.expect("worker panicked");
        }
    });

    assert_eq!(duplicates.load(Ordering::Relaxed), 0);
    assert_tenant_dense("hot", &bitmap, service.watermark("hot"));
    assert_eq!(service.watermark("hot"), capacity, "every op handed out exactly one value");
}

/// Adapters ride the same per-tenant guarantees: per-thread id
/// generators on shared tenants lease blocks concurrently, and after
/// draining the unconsumed lease tails every tenant's id space is dense.
#[test]
fn id_generators_on_shared_tenants_stay_dense_after_lease_drain() {
    let threads = 6usize;
    let ids_per_thread = ops_per_thread();
    let service = CounterService::new(ServiceConfig { width: 8, ..ServiceConfig::default() });
    let tenants = ["orders", "sessions"];
    let leases = [5usize, 8];

    let per_tenant: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let (service, tenants, leases) = (&service, &tenants, &leases);
                scope.spawn(move || {
                    let mut gens: Vec<_> = tenants
                        .iter()
                        .zip(leases)
                        .map(|(t, &lease)| service.id_generator(t, tid, lease))
                        .collect();
                    let mut collected: Vec<Vec<u64>> = vec![Vec::new(); tenants.len()];
                    for i in 0..ids_per_thread {
                        let which = (i as usize + tid) % tenants.len();
                        collected[which].push(gens[which].next_id());
                    }
                    for (which, gen) in gens.iter_mut().enumerate() {
                        collected[which].extend(gen.take_lease());
                    }
                    collected
                })
            })
            .collect();
        let mut per_tenant: Vec<Vec<u64>> = vec![Vec::new(); tenants.len()];
        for worker in workers {
            for (which, ids) in worker.join().expect("worker panicked").into_iter().enumerate() {
                per_tenant[which].extend(ids);
            }
        }
        per_tenant
    });

    for (which, tenant) in tenants.iter().enumerate() {
        let mut ids = per_tenant[which].clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), per_tenant[which].len(), "tenant {tenant}: duplicate ids");
        assert_eq!(
            ids.last().copied(),
            Some(ids.len() as u64 - 1),
            "tenant {tenant}: consumed + drained leases must tile the id space"
        );
        assert_eq!(service.watermark(tenant), ids.len() as u64, "tenant {tenant}: watermark");
    }
}

/// A `TenantCounter` is itself a `BlockReserve` backend, so service
/// hand-outs compose with every generic layer downstream.
#[test]
fn tenant_handles_compose_with_generic_consumers() {
    let service = CounterService::new(ServiceConfig::default());
    let counter: Arc<TenantCounter> = service.get_or_create("composed");
    fn consume<C: SharedCounter>(counter: &C) -> u64 {
        counter.next(0)
    }
    assert_eq!(consume(&*counter), 0);
    assert_eq!(consume(&*counter), 1);
    assert_eq!(service.watermark("composed"), 2);
}

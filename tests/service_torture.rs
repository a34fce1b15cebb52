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

/// Picks tenant `i` with probability proportional to `1 / (i + 1)`
/// (Zipf(1); `cumulative` holds the running sums of those weights),
/// drawn from a splitmix64 hash of `(tid, op)`: a few hot tenants and a
/// long cold tail whose tenants sit idle long enough to be evicted and
/// revived.
fn zipf_pick(cumulative: &[f64], tid: usize, op: u64) -> usize {
    let mut x = ((tid as u64) << 32 ^ op).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let total = cumulative.last().expect("at least one tenant");
    let r = (x >> 11) as f64 / (1u64 << 53) as f64 * total;
    cumulative.partition_point(|&c| c <= r).min(cumulative.len() - 1)
}

/// The heart of the satellite: eviction racing live traffic can never
/// fork or gap a tenant's value stream — the registry only retires
/// counters it solely owns and re-creation resumes at the recorded
/// watermark. Two walks feed the same body: four tenants in turn, and a
/// Zipf-skewed walk over 64 tenants.
#[test]
fn eviction_under_traffic_never_violates_per_tenant_uniqueness() {
    let four: Vec<String> = ["alpha", "beta", "gamma", "delta"].map(String::from).into();
    churn_every_tenant(&four, |tid, op| (op as usize + tid * 7) % four.len());

    let skewed: Vec<String> = (0..64).map(|i| format!("tenant-{i:02}")).collect();
    let mut acc = 0.0;
    let cumulative: Vec<f64> = (1..=skewed.len())
        .map(|i| {
            acc += 1.0 / i as f64;
            acc
        })
        .collect();
    churn_every_tenant(&skewed, |tid, op| zipf_pick(&cumulative, tid, op));
}

/// Eight threads draw mixed batches from the tenants `pick(tid, op)`
/// names while an evictor sweeps idle ones; every tenant's hand-out must
/// tile `0..watermark` with no duplicate.
fn churn_every_tenant(tenants: &[String], pick: impl Fn(usize, u64) -> usize + Sync) {
    let threads = 8usize;
    let ops = ops_per_thread();
    let service = CounterService::new(ServiceConfig::default());
    let capacity = threads as u64 * ops * 3; // max k below is 3
    let bitmaps: Vec<ValueBitmap> = tenants.iter().map(|_| ValueBitmap::new(capacity)).collect();
    let duplicates = AtomicU64::new(0);
    let (sweeping, done) = (AtomicBool::new(false), AtomicBool::new(false));

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let (service, bitmaps, duplicates, pick) = (&service, &bitmaps, &duplicates, &pick);
                let sweeping = &sweeping;
                scope.spawn(move || {
                    // Traffic starts once the evictor sweeps, or a short
                    // release-mode run would finish before the race begins.
                    while !sweeping.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    let mut scratch = Vec::new();
                    for op in 0..ops {
                        // Mixed batch sizes: per-tenant op counts end up
                        // unequal and indivisible, which block
                        // reservations absorb.
                        let tenant = pick(tid, op);
                        let k = 1 + ((op as usize + tid) % 3);
                        let counter = service.get_or_create(&tenants[tenant]);
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
        let (service, sweeping, done) = (&service, &sweeping, &done);
        scope.spawn(move || {
            while !done.load(Ordering::Acquire) {
                service.evict_idle();
                sweeping.store(true, Ordering::Release);
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
    let service = CounterService::new(ServiceConfig::default());
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

/// A tenant's slot holds both its live instance and its resume
/// watermark, so this is the race a merged slot could break: workers
/// reserve while one thread sweeps idle tenants and another restores
/// stale and fresh marks on the same names, and no stream may rewind. A
/// fresh mark is one just read, so it never exceeds what will have been
/// handed out; a stale one is the mark read a pass earlier.
#[test]
fn restore_watermark_racing_traffic_never_rewinds_a_stream() {
    let threads = 4usize;
    // Long enough that a restore which can lower a mark forks a stream
    // in most runs at the default scale.
    let ops = ops_per_thread() * 32;
    let tenants = ["north", "south", "east", "west"];
    let service = CounterService::new(ServiceConfig::default());
    let capacity = threads as u64 * ops * 3; // max k below is 3
    let bitmaps: Vec<ValueBitmap> = tenants.iter().map(|_| ValueBitmap::new(capacity)).collect();
    let duplicates = AtomicU64::new(0);
    let (restoring, done) = (AtomicBool::new(false), AtomicBool::new(false));

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let (service, bitmaps, duplicates) = (&service, &bitmaps, &duplicates);
                let restoring = &restoring;
                scope.spawn(move || {
                    // Traffic starts once the restorer runs, or a short
                    // run would finish before the race begins.
                    while !restoring.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    let mut scratch = Vec::new();
                    for op in 0..ops as usize {
                        let tenant = (op + tid * 3) % tenants.len();
                        scratch.clear();
                        service.get_or_create(tenants[tenant]).next_batch(
                            tid,
                            1 + (op + tid) % 3,
                            &mut scratch,
                        );
                        for &value in &scratch {
                            if !bitmaps[tenant].mark(value) {
                                duplicates.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        let (service, restoring, done) = (&service, &restoring, &done);
        scope.spawn(move || {
            while !done.load(Ordering::Acquire) {
                service.evict_idle();
                std::thread::yield_now();
            }
        });
        scope.spawn(move || {
            let mut stale = [0u64; 4];
            while !done.load(Ordering::Acquire) {
                for (name, stale) in tenants.iter().zip(&mut stale) {
                    let fresh = service.watermark(name);
                    service.restore_watermark(name, fresh);
                    service.restore_watermark(name, *stale);
                    *stale = fresh;
                }
                restoring.store(true, Ordering::Release);
                std::thread::yield_now();
            }
        });
        let results: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Release);
        for result in results {
            result.expect("worker panicked");
        }
    });

    assert_eq!(duplicates.load(Ordering::Relaxed), 0, "a stream was rewound");
    for (i, tenant) in tenants.iter().enumerate() {
        assert_tenant_dense(tenant, &bitmaps[i], service.watermark(tenant));
    }
}

/// Adapters ride the same per-tenant guarantees: per-thread id
/// generators on shared tenants lease blocks concurrently, and after
/// draining the unconsumed lease tails every tenant's id space is dense.
#[test]
fn id_generators_on_shared_tenants_stay_dense_after_lease_drain() {
    let threads = 6usize;
    let ids_per_thread = ops_per_thread();
    let service = CounterService::new(ServiceConfig::default());
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

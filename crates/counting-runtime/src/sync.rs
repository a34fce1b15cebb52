//! The model-checking seam: the one atomic type (`AtomicU64`) and the
//! scheduling hooks that the lock-free cores import instead of naming
//! `std::sync::atomic` directly.
//!
//! With the `model` cargo feature **off** (the default, and what every
//! performance-sensitive build uses) this module re-exports the real
//! `std` atomic and compiles the hooks down to constants — the cores are
//! byte-for-byte the production protocol.
//!
//! With the feature **on**, the atomic comes from
//! [`counting_sim::model`]: every load/store/RMW/CAS becomes a scheduling
//! point of the exhaustive interleaving explorer, and the hooks
//! ([`in_model`], [`model_yield`], [`mutation_enabled`]) let wait loops
//! cooperate with the DFS scheduler.
//! Outside an active exploration the shim atomic passes through to `std`
//! behavior, so a feature-on build still runs the ordinary test suite
//! unchanged.
//!
//! Only the modules the model test explores import through this seam
//! (`elimination`, and in `counting-service` the registry,
//! ticket gate and rate limiter); the counters and networks underneath
//! keep their raw `std` atomics — the model scenarios wrap them behind a
//! [`crate::counter::BlockReserve`] boundary whose single `fetch_add` is
//! trivially atomic either way.
//!
//! The one lock here is [`RwLock`], for the service registry's shards: a
//! thread blocking inside an OS lock is invisible to the model's
//! cooperative scheduler (it would trip the stall watchdog), so under an
//! exploration acquisition spins on `try_read`/`try_write` with a
//! voluntary yield between attempts, and "waiting for the shard lock" is
//! an explored schedule decision. Outside one it is `parking_lot`'s.

use parking_lot::{RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "model")]
pub use counting_sim::model::{in_model, model_point, model_yield, mutation_enabled, AtomicU64};

#[cfg(not(feature = "model"))]
pub use std::sync::atomic::AtomicU64;

/// Whether the calling thread runs under an active model exploration.
/// Always `false` without the `model` feature, so guarded branches fold
/// away.
#[cfg(not(feature = "model"))]
#[inline(always)]
#[must_use]
pub fn in_model() -> bool {
    false
}

/// A voluntary scheduling point for wait loops; plain
/// [`std::thread::yield_now`] without the `model` feature.
#[cfg(not(feature = "model"))]
#[inline]
pub fn model_yield() {
    std::thread::yield_now();
}

/// An explicit named scheduling point; a no-op without the `model`
/// feature.
#[cfg(not(feature = "model"))]
#[inline(always)]
pub fn model_point(_label: u64) {}

/// Whether a named seeded protocol mutation is active. Always `false`
/// without the `model` feature: mutations exist only inside model
/// executions.
#[cfg(not(feature = "model"))]
#[inline(always)]
#[must_use]
pub fn mutation_enabled(_name: &str) -> bool {
    false
}

/// Scheduling-point label for a shard read-lock acquisition.
const POINT_SHARD_READ: u64 = 0x10;
/// Scheduling-point label for a shard write-lock acquisition.
const POINT_SHARD_WRITE: u64 = 0x11;

/// A reader–writer lock that cooperates with the interleaving model (see
/// the module docs). API subset of [`parking_lot::RwLock`]: `new`,
/// `read`, `write`.
#[derive(Debug, Default)]
pub struct RwLock<T>(parking_lot::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a lock guarding `value`.
    pub fn new(value: T) -> Self {
        Self(parking_lot::RwLock::new(value))
    }

    /// Acquires shared read access, yielding to the model scheduler
    /// between attempts while an exploration is active.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if in_model() {
            // Lock hand-offs contain no shim-atomic op of their own, so
            // without this explicit point the explorer could never
            // interleave another thread between "decided to lock" and
            // "holds the lock".
            model_point(POINT_SHARD_READ);
            loop {
                if let Some(guard) = self.0.try_read() {
                    return guard;
                }
                model_yield();
            }
        }
        self.0.read()
    }

    /// Acquires exclusive write access, yielding to the model scheduler
    /// between attempts while an exploration is active.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if in_model() {
            model_point(POINT_SHARD_WRITE);
            loop {
                if let Some(guard) = self.0.try_write() {
                    return guard;
                }
                model_yield();
            }
        }
        self.0.write()
    }
}

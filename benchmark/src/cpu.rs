//! Where the benchmark's own threads run. This is about the harness,
//! not the program: on the small virtual machines this runs on, thread
//! placement is the largest noise source, larger than any change the
//! benchmark is meant to resolve.
//!
//! * A freshly spawned thread starts on its parent's cpu, and the guest
//!   kernel can leave two busy threads time-slicing one cpu for a second
//!   before it balances them — half a window measuring the scheduler. So
//!   load threads are pinned, one per cpu.
//! * A loopback request hands off between a client and a worker thread
//!   twice. Across cpus each hand-off is an inter-processor interrupt
//!   and, usually, a halted virtual cpu to wake: tens of microseconds of
//!   hypervisor time, several times the request itself, and placement
//!   decides run by run whether it is paid. So the HTTP workloads keep a
//!   connection's client and the server's workers on the same cpus.
//!
//! All of it is best effort: where the kernel refuses, threads float and
//! the numbers are noisier but still right.

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A cpu set as the kernel takes it: one bit per cpu, 1024 cpus.
type Mask = [u64; 16];

fn mask_of(cpus: impl IntoIterator<Item = usize>) -> Mask {
    let mut mask = [0u64; 16];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

fn current_mask() -> Option<Mask> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of the size passed, and
    // pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) } == 0;
    ok.then_some(mask)
}

fn set_mask(mask: &Mask) {
    // SAFETY: `mask` is a live buffer of the size passed that the call
    // only reads; a refusal leaves the thread's affinity as it was.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
}

/// The cpus this process may run on, in order. Read once, before any
/// thread narrows its own set.
pub fn allowed() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mask = current_mask().unwrap_or([0; 16]);
        (0..mask.len() * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
    })
}

/// Pins the calling thread to the `index`-th allowed cpu, counted from
/// the last one (wrapping). From the last, because the first cpu is
/// where the guest takes its interrupts and runs its housekeeping: on
/// the recording host, latency tails on cpu 0 are several times longer.
pub fn pin(index: usize) {
    if let Some(&cpu) = allowed().iter().rev().nth(index % allowed().len().max(1)) {
        set_mask(&mask_of([cpu]));
    }
}

/// Runs `start` with the calling thread confined to the last `count`
/// allowed cpus (the ones [`pin`] hands out first), then restores its
/// affinity. Threads `start` spawns
/// inherit the confinement — the only way to place the threads of a
/// server that spawns its own.
pub fn confined<R>(count: usize, start: impl FnOnce() -> R) -> R {
    let before = current_mask();
    if !allowed().is_empty() {
        set_mask(&mask_of(allowed().iter().rev().copied().take(count.max(1))));
    }
    let result = start();
    if let Some(before) = before {
        set_mask(&before);
    }
    result
}

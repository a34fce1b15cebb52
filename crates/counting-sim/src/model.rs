//! A loom-style exhaustive interleaving model checker (the
//! `counting-model` capability).
//!
//! The torture suites in `counting-runtime` catch races that the host
//! scheduler happens to produce; this module explores interleavings
//! *systematically*. It extends the adversarial-[`scheduler`] idea of this
//! crate — an adversary decides who moves next — into a DFS explorer over
//! real protocol code running on **shim atomics**:
//!
//! * [`AtomicU64`] / [`AtomicUsize`] mirror the `std`
//!   types but, when their thread runs under an active exploration, hit a
//!   *scheduling point* before every operation and record the operation
//!   (read / write / RMW / CAS with values) into the execution's event
//!   log. Outside an exploration they behave exactly like `std` atomics,
//!   so code compiled against the shim stays correct in ordinary tests.
//! * [`explore`] runs a [`Scenario`] — a fresh set of thread closures plus
//!   an invariant check — once per schedule, enumerating schedules by DFS
//!   over the decision tree with **bounded preemptions** (the CHESS
//!   insight: almost all real bugs need only 1–2 preemptions) and **state
//!   hashing** to prune schedules that re-converge to an explored state.
//! * Every failure — a failed invariant check, a panic inside protocol
//!   code, or a livelock that exceeds the step bound — is returned as a
//!   [`Counterexample`] carrying the full decision [`Trace`] and event
//!   log; [`replay`] re-runs exactly that schedule, which is what the
//!   pinned-trace replays of `counting-service/tests/model.rs` are built
//!   from.
//! * [`Scenario::with_mutation`] seeds a deliberate protocol mutation
//!   (e.g. the arena capture path skipping its `CLAIMED` intermediate
//!   state): a checker that cannot find the planted bug has no teeth, so
//!   the model test asserts these are caught.
//!
//! Since the real `loom` crate cannot be vendored here (no network), this
//! is a minimal self-contained engine in the same spirit as the other
//! `vendor/*` stubs: sequentially-consistent interleavings only, one
//! scheduling point per shim-atomic operation. See ARCHITECTURE.md for
//! what is and is not explored.
//!
//! [`scheduler`]: crate::scheduler
//!
//! # Example: finding a lost update
//!
//! ```
//! use counting_sim::model::{explore, AtomicU64, ModelConfig, Scenario};
//! use std::sync::atomic::Ordering;
//! use std::sync::Arc;
//!
//! // A deliberately broken counter: load-then-store instead of fetch_add.
//! let report = explore(&ModelConfig::default(), || {
//!     let counter = Arc::new(AtomicU64::new(0));
//!     let bump = |c: Arc<AtomicU64>| {
//!         move || {
//!             let v = c.load(Ordering::SeqCst);
//!             c.store(v + 1, Ordering::SeqCst);
//!         }
//!     };
//!     let check = Arc::clone(&counter);
//!     Scenario::new(
//!         vec![Box::new(bump(Arc::clone(&counter))), Box::new(bump(counter))],
//!         move |_| {
//!             if check.load(Ordering::SeqCst) == 2 {
//!                 Ok(())
//!             } else {
//!                 Err("lost update".into())
//!             }
//!         },
//!     )
//! });
//! let bug = report.counterexample.expect("the lost update must be found");
//! assert!(bug.message.contains("lost update"));
//! ```

use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long the controller waits for every model thread to reach a
/// scheduling point before declaring the execution stalled (a thread
/// blocked outside the engine's control — e.g. an unseamed OS primitive).
const WATCHDOG: Duration = Duration::from_secs(20);

// ---------------------------------------------------------------------------
// Configuration and reporting types
// ---------------------------------------------------------------------------

/// Exploration bounds for [`explore`].
///
/// The search is exhaustive *within* these bounds: every schedule of the
/// scenario with at most [`ModelConfig::preemptions`] involuntary context
/// switches is visited (modulo state-hash pruning, which only skips
/// schedules that reach an already-explored state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Maximum involuntary preemptions per schedule. Voluntary switches
    /// (a thread blocking in a wait loop calls [`model_yield`]) are free.
    pub preemptions: usize,
    /// Abort an execution after this many scheduling points and report it
    /// as a livelock counterexample.
    pub max_steps: usize,
    /// Safety valve: stop exploring (with `complete = false`) after this
    /// many executions.
    pub max_executions: u64,
    /// Whether to prune decision points whose abstract state (shim-atomic
    /// values + per-thread progress + remaining budget) was already
    /// explored.
    pub state_hashing: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self { preemptions: 2, max_steps: 20_000, max_executions: 500_000, state_hashing: true }
    }
}

impl ModelConfig {
    /// A config exploring with the given preemption bound and defaults
    /// elsewhere.
    #[must_use]
    pub fn with_preemptions(preemptions: usize) -> Self {
        Self { preemptions, ..Self::default() }
    }
}

/// A recorded schedule: the thread id granted at each scheduling point.
/// Traces are what make counterexamples replayable — see [`replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Thread index chosen at each decision point, in order.
    pub decisions: Vec<usize>,
}

/// A failing schedule found by [`explore`] (or reproduced by [`replay`]).
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What went wrong: the invariant check's error, a panic message, or
    /// a livelock/stall report.
    pub message: String,
    /// The schedule that triggers it (feed back into [`replay`]).
    pub trace: Trace,
    /// Human-readable shim-atomic event log of the failing execution.
    pub events: Vec<String>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "counterexample: {}", self.message)?;
        writeln!(f, "schedule: {:?}", self.trace.decisions)?;
        for line in &self.events {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// The outcome of an [`explore`] call.
#[derive(Debug)]
pub struct ExploreReport {
    /// Executions (distinct schedules) run.
    pub executions: u64,
    /// Scheduling points visited across all executions.
    pub decision_points: u64,
    /// Decision points not branched because their abstract state had
    /// already been explored.
    pub pruned_states: u64,
    /// Deepest schedule (number of scheduling points) seen.
    pub max_depth: usize,
    /// Whether the bounded search space was exhausted (`false` when
    /// [`ModelConfig::max_executions`] stopped the search early or a
    /// counterexample ended it).
    pub complete: bool,
    /// The first failing schedule, if any was found.
    pub counterexample: Option<Counterexample>,
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// The quiescence invariant a [`Scenario`] validates after every
/// execution (thread results in thread-index order).
type CheckFn<T> = Box<dyn FnOnce(&[T]) -> Result<(), String>>;

/// One model-checking scenario: thread bodies plus an invariant check,
/// built fresh for every execution by the factory passed to [`explore`].
pub struct Scenario<T> {
    threads: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    check: CheckFn<T>,
    mutations: Vec<&'static str>,
}

impl<T> Scenario<T> {
    /// A scenario running `threads` under every schedule and validating
    /// each quiescent outcome with `check` (thread results are passed in
    /// thread-index order).
    #[must_use]
    pub fn new(
        threads: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
        check: impl FnOnce(&[T]) -> Result<(), String> + 'static,
    ) -> Self {
        Self { threads, check: Box::new(check), mutations: Vec::new() }
    }

    /// Seeds a named protocol mutation: code under test queries
    /// [`mutation_enabled`] and deliberately mis-executes when its name is
    /// active. Used to prove the checker catches planted bugs.
    #[must_use]
    pub fn with_mutation(mut self, name: &'static str) -> Self {
        self.mutations.push(name);
        self
    }
}

// ---------------------------------------------------------------------------
// Execution engine internals
// ---------------------------------------------------------------------------

/// Unwind payload used to tear worker threads down when an execution is
/// aborted (livelock, panic elsewhere, stall). `resume_unwind` with this
/// payload does not invoke the panic hook, so teardown is silent.
struct ModelAbort;

#[derive(Debug, Clone, Copy)]
enum EventKind {
    Load,
    Store,
    RmwAdd,
    RmwSub,
    RmwMax,
    CasOk,
    CasFail,
    Yield,
    Point,
    Start,
    End,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    thread: usize,
    /// Registered cell index, or `usize::MAX` for cell-less events.
    cell: usize,
    kind: EventKind,
    a: u64,
    b: u64,
}

impl Event {
    fn render(&self, step: usize) -> String {
        let t = self.thread;
        let c = self.cell;
        match self.kind {
            EventKind::Load => format!("[{step}] t{t}: load a{c} -> {}", self.a),
            EventKind::Store => format!("[{step}] t{t}: store a{c} <- {}", self.a),
            EventKind::RmwAdd => format!("[{step}] t{t}: fetch_add a{c}: {} -> {}", self.a, self.b),
            EventKind::RmwSub => format!("[{step}] t{t}: fetch_sub a{c}: {} -> {}", self.a, self.b),
            EventKind::RmwMax => format!("[{step}] t{t}: fetch_max a{c}: {} -> {}", self.a, self.b),
            EventKind::CasOk => format!("[{step}] t{t}: cas a{c}: {} -> {} (ok)", self.a, self.b),
            EventKind::CasFail => {
                format!("[{step}] t{t}: cas a{c}: expected {}, saw {} (fail)", self.a, self.b)
            }
            EventKind::Yield => format!("[{step}] t{t}: yield"),
            EventKind::Point => format!("[{step}] t{t}: point #{}", self.a),
            EventKind::Start => format!("[{step}] t{t}: start"),
            EventKind::End => format!("[{step}] t{t}: end"),
        }
    }
}

/// One registered shim-atomic cell. The value lives in a real atomic so
/// pass-through mode (no active execution) is just the `std` operation.
#[derive(Debug)]
struct CellState {
    value: std::sync::atomic::AtomicU64,
}

struct Sched {
    /// Thread currently granted the right to run (all others are paused).
    current: Option<usize>,
    /// Threads paused at a scheduling point awaiting a grant.
    waiting: Vec<bool>,
    finished: Vec<bool>,
    /// Threads whose last pause was a voluntary yield (wait loops): they
    /// are only eligible when every other runnable thread also yielded.
    yielded: Vec<bool>,
    aborted: bool,
    steps: usize,
    /// Per-thread count of scheduling points passed (part of the state
    /// abstraction).
    ops: Vec<u64>,
    /// Per-thread running hash of observed values (part of the state
    /// abstraction: deterministic thread code is a function of what it
    /// has read).
    obs: Vec<u64>,
    events: Vec<Event>,
    panics: Vec<String>,
}

struct ExecInner {
    sched: Mutex<Sched>,
    cv: Condvar,
    cells: Mutex<Vec<Arc<CellState>>>,
    mutations: Mutex<HashSet<&'static str>>,
    max_steps: usize,
}

thread_local! {
    /// Set while a model worker thread runs: (execution, thread index).
    static EXEC: RefCell<Option<(Arc<ExecInner>, usize)>> = const { RefCell::new(None) };

    /// Set on the controller thread while a scenario factory runs, so
    /// cells created during setup register with the new execution.
    static REGISTRY: RefCell<Option<Arc<ExecInner>>> = const { RefCell::new(None) };
}

fn current_exec() -> Option<(Arc<ExecInner>, usize)> {
    EXEC.with(|e| e.borrow().clone())
}

fn splitmix(mut h: u64, v: u64) -> u64 {
    h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(h << 6).wrapping_add(h >> 2);
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

impl ExecInner {
    fn new(config: &ModelConfig) -> Self {
        Self {
            sched: Mutex::new(Sched {
                current: None,
                waiting: Vec::new(),
                finished: Vec::new(),
                yielded: Vec::new(),
                aborted: false,
                steps: 0,
                ops: Vec::new(),
                obs: Vec::new(),
                events: Vec::new(),
                panics: Vec::new(),
            }),
            cv: Condvar::new(),
            cells: Mutex::new(Vec::new()),
            mutations: Mutex::new(HashSet::new()),
            max_steps: config.max_steps,
        }
    }

    /// Sizes the per-thread state once the scenario factory has run and
    /// the thread count is known.
    fn init(&self, threads: usize, mutations: &[&'static str]) {
        let mut s = self.sched.lock().expect("model lock");
        s.waiting = vec![false; threads];
        s.finished = vec![false; threads];
        s.yielded = vec![false; threads];
        s.ops = vec![0; threads];
        s.obs = vec![0; threads];
        *self.mutations.lock().expect("model lock") = mutations.iter().copied().collect();
    }

    fn register_cell(&self, initial: u64) -> Arc<CellState> {
        let cell = Arc::new(CellState { value: std::sync::atomic::AtomicU64::new(initial) });
        self.cells.lock().expect("model lock").push(Arc::clone(&cell));
        cell
    }

    fn cell_index(&self, cell: &Arc<CellState>) -> usize {
        let cells = self.cells.lock().expect("model lock");
        cells.iter().position(|c| Arc::ptr_eq(c, cell)).unwrap_or(usize::MAX)
    }

    /// Pauses the calling worker until the controller grants it the next
    /// step. `voluntary` marks the pause as a yield (wait-loop backoff).
    fn pause(&self, tid: usize, voluntary: bool) {
        let mut s = self.sched.lock().expect("model lock");
        if s.aborted {
            drop(s);
            std::panic::resume_unwind(Box::new(ModelAbort));
        }
        s.waiting[tid] = true;
        s.yielded[tid] = voluntary;
        if s.current == Some(tid) {
            s.current = None;
        }
        self.cv.notify_all();
        while s.current != Some(tid) {
            if s.aborted {
                drop(s);
                std::panic::resume_unwind(Box::new(ModelAbort));
            }
            s = self.cv.wait(s).expect("model lock");
        }
    }

    fn record(&self, event: Event) {
        self.sched.lock().expect("model lock").events.push(event);
    }

    fn note_obs(&self, tid: usize, value: u64) {
        let mut s = self.sched.lock().expect("model lock");
        s.obs[tid] = splitmix(s.obs[tid], value);
    }

    fn finish(&self, tid: usize) {
        let mut s = self.sched.lock().expect("model lock");
        s.finished[tid] = true;
        s.waiting[tid] = false;
        if s.current == Some(tid) {
            s.current = None;
        }
        s.events.push(Event { thread: tid, cell: usize::MAX, kind: EventKind::End, a: 0, b: 0 });
        self.cv.notify_all();
    }

    /// The abstract state at a decision point, used for pruning: shim
    /// cell values, per-thread progress/observations/flags and the
    /// remaining preemption budget.
    fn state_hash(&self, s: &Sched, prev: Option<usize>, budget_left: usize) -> u64 {
        let mut h = 0xDEAD_BEEF_u64;
        for cell in self.cells.lock().expect("model lock").iter() {
            h = splitmix(h, cell.value.load(Ordering::Relaxed));
        }
        for i in 0..s.waiting.len() {
            h = splitmix(h, s.ops[i]);
            h = splitmix(h, s.obs[i]);
            h = splitmix(
                h,
                u64::from(s.waiting[i])
                    | u64::from(s.finished[i]) << 1
                    | u64::from(s.yielded[i]) << 2,
            );
        }
        // A finished `prev` no longer shapes future choices (it can be
        // neither continued nor preempted), so normalize it away — this
        // merges schedules that differ only in which finished thread ran
        // last.
        let live_prev = prev.filter(|&p| !s.finished[p]);
        h = splitmix(h, live_prev.map_or(u64::MAX, |p| p as u64));
        splitmix(h, budget_left as u64)
    }
}

fn new_cell(initial: u64) -> Arc<CellState> {
    if let Some((exec, _)) = current_exec() {
        return exec.register_cell(initial);
    }
    REGISTRY.with(|r| {
        if let Some(exec) = r.borrow().as_ref() {
            exec.register_cell(initial)
        } else {
            Arc::new(CellState { value: std::sync::atomic::AtomicU64::new(initial) })
        }
    })
}

// ---------------------------------------------------------------------------
// Shim atomics
// ---------------------------------------------------------------------------

macro_rules! shim_atomic {
    ($name:ident, $ty:ty, $doc:expr) => {
        #[doc = $doc]
        ///
        /// API-compatible with its `std::sync::atomic` namesake (for the
        /// operations the modeled protocols use). Memory orderings are
        /// honored in pass-through mode; under an active exploration every
        /// operation is sequentially consistent and preceded by a
        /// scheduling point.
        #[derive(Debug)]
        pub struct $name {
            cell: Arc<CellState>,
        }

        impl $name {
            /// Creates a shim atomic holding `value`, registering it with
            /// the active execution (if any).
            #[must_use]
            pub fn new(value: $ty) -> Self {
                Self { cell: new_cell(value as u64) }
            }

            /// Loads the value.
            pub fn load(&self, order: Ordering) -> $ty {
                if let Some((exec, tid)) = current_exec() {
                    exec.pause(tid, false);
                    let v = self.cell.value.load(Ordering::SeqCst);
                    let idx = exec.cell_index(&self.cell);
                    exec.record(Event {
                        thread: tid,
                        cell: idx,
                        kind: EventKind::Load,
                        a: v,
                        b: v,
                    });
                    exec.note_obs(tid, v);
                    v as $ty
                } else {
                    self.cell.value.load(order) as $ty
                }
            }

            /// Stores `value`.
            pub fn store(&self, value: $ty, order: Ordering) {
                if let Some((exec, tid)) = current_exec() {
                    exec.pause(tid, false);
                    self.cell.value.store(value as u64, Ordering::SeqCst);
                    let idx = exec.cell_index(&self.cell);
                    exec.record(Event {
                        thread: tid,
                        cell: idx,
                        kind: EventKind::Store,
                        a: value as u64,
                        b: value as u64,
                    });
                } else {
                    self.cell.value.store(value as u64, order);
                }
            }

            /// Adds `delta`, returning the previous value (wrapping).
            pub fn fetch_add(&self, delta: $ty, order: Ordering) -> $ty {
                if let Some((exec, tid)) = current_exec() {
                    exec.pause(tid, false);
                    let old = self.cell.value.fetch_add(delta as u64, Ordering::SeqCst);
                    let idx = exec.cell_index(&self.cell);
                    exec.record(Event {
                        thread: tid,
                        cell: idx,
                        kind: EventKind::RmwAdd,
                        a: old,
                        b: old.wrapping_add(delta as u64),
                    });
                    exec.note_obs(tid, old);
                    old as $ty
                } else {
                    self.cell.value.fetch_add(delta as u64, order) as $ty
                }
            }

            /// Subtracts `delta`, returning the previous value (wrapping).
            pub fn fetch_sub(&self, delta: $ty, order: Ordering) -> $ty {
                if let Some((exec, tid)) = current_exec() {
                    exec.pause(tid, false);
                    let old = self.cell.value.fetch_sub(delta as u64, Ordering::SeqCst);
                    let idx = exec.cell_index(&self.cell);
                    exec.record(Event {
                        thread: tid,
                        cell: idx,
                        kind: EventKind::RmwSub,
                        a: old,
                        b: old.wrapping_sub(delta as u64),
                    });
                    exec.note_obs(tid, old);
                    old as $ty
                } else {
                    self.cell.value.fetch_sub(delta as u64, order) as $ty
                }
            }

            /// Stores the maximum of the current value and `value`,
            /// returning the previous value.
            pub fn fetch_max(&self, value: $ty, order: Ordering) -> $ty {
                let max_op = |cell: &std::sync::atomic::AtomicU64| {
                    let mut old = cell.load(Ordering::SeqCst);
                    loop {
                        let new = if (old as $ty) >= value { old } else { value as u64 };
                        match cell.compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst) {
                            Ok(_) => return (old, new),
                            Err(seen) => old = seen,
                        }
                    }
                };
                if let Some((exec, tid)) = current_exec() {
                    exec.pause(tid, false);
                    let (old, new) = max_op(&self.cell.value);
                    let idx = exec.cell_index(&self.cell);
                    exec.record(Event {
                        thread: tid,
                        cell: idx,
                        kind: EventKind::RmwMax,
                        a: old,
                        b: new,
                    });
                    exec.note_obs(tid, old);
                    old as $ty
                } else {
                    let _ = order;
                    max_op(&self.cell.value).0 as $ty
                }
            }

            /// Compare-and-swap with the `std` `Ok(previous)`/`Err(seen)`
            /// contract.
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                if let Some((exec, tid)) = current_exec() {
                    exec.pause(tid, false);
                    let res = self.cell.value.compare_exchange(
                        current as u64,
                        new as u64,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    let idx = exec.cell_index(&self.cell);
                    match res {
                        Ok(old) => {
                            exec.record(Event {
                                thread: tid,
                                cell: idx,
                                kind: EventKind::CasOk,
                                a: old,
                                b: new as u64,
                            });
                            exec.note_obs(tid, old ^ 1);
                            Ok(old as $ty)
                        }
                        Err(seen) => {
                            exec.record(Event {
                                thread: tid,
                                cell: idx,
                                kind: EventKind::CasFail,
                                a: current as u64,
                                b: seen,
                            });
                            exec.note_obs(tid, seen);
                            Err(seen as $ty)
                        }
                    }
                } else {
                    self.cell
                        .value
                        .compare_exchange(current as u64, new as u64, success, failure)
                        .map(|v| v as $ty)
                        .map_err(|v| v as $ty)
                }
            }

            /// Weak compare-and-swap. Never fails spuriously under the
            /// model: spurious-failure schedules are a strict subset of
            /// the CAS-fail interleavings already explored.
            pub fn compare_exchange_weak(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.compare_exchange(current, new, success, failure)
            }
        }
    };
}

shim_atomic!(AtomicU64, u64, "Shim of [`std::sync::atomic::AtomicU64`] for model checking.");
shim_atomic!(AtomicUsize, usize, "Shim of [`std::sync::atomic::AtomicUsize`] for model checking.");

// ---------------------------------------------------------------------------
// In-model helpers used by the feature seams
// ---------------------------------------------------------------------------

/// Whether the calling thread is a worker of an active exploration.
#[must_use]
pub fn in_model() -> bool {
    current_exec().is_some()
}

/// A voluntary scheduling point for wait loops: under the model, marks
/// the thread *yielded* (only re-eligible once every other runnable
/// thread has moved, which keeps spin loops from monopolizing the DFS);
/// outside the model, a plain [`std::thread::yield_now`].
pub fn model_yield() {
    if let Some((exec, tid)) = current_exec() {
        exec.record(Event { thread: tid, cell: usize::MAX, kind: EventKind::Yield, a: 0, b: 0 });
        exec.pause(tid, true);
    } else {
        std::thread::yield_now();
    }
}

/// An explicit named scheduling point (no memory operation) for coarse
/// seams — e.g. "about to check sole ownership". A no-op outside the
/// model.
pub fn model_point(label: u64) {
    if let Some((exec, tid)) = current_exec() {
        exec.record(Event {
            thread: tid,
            cell: usize::MAX,
            kind: EventKind::Point,
            a: label,
            b: 0,
        });
        exec.pause(tid, false);
    }
}

/// Whether the named seeded mutation is active in this execution. Always
/// `false` outside the model, so production behavior is untouched even
/// with the `model` feature compiled in.
#[must_use]
pub fn mutation_enabled(name: &str) -> bool {
    match current_exec() {
        Some((exec, _)) => exec.mutations.lock().expect("model lock").contains(name),
        None => false,
    }
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

enum ExecOutcome {
    Ok,
    Failed(String),
}

struct Frame {
    choices: Vec<usize>,
    idx: usize,
}

struct Search {
    stack: Vec<Frame>,
    seen: HashSet<u64>,
    pruned: u64,
    decision_points: u64,
    max_depth: usize,
}

/// Runs one execution of a freshly built scenario.
///
/// At each decision point, `forced` is consulted first (trace replay);
/// past it, `search` (if present) replays its stack prefix and pushes a
/// new frame in fresh territory; with neither, the first eligible choice
/// is taken greedily.
fn run_once<T: Send + 'static>(
    config: &ModelConfig,
    factory: impl FnOnce() -> Scenario<T>,
    forced: &[usize],
    mut search: Option<&mut Search>,
) -> (Vec<usize>, Vec<String>, ExecOutcome) {
    let exec = Arc::new(ExecInner::new(config));
    // Cells the factory creates during setup must belong to this
    // execution, so state hashing and the event log see them.
    REGISTRY.with(|r| *r.borrow_mut() = Some(Arc::clone(&exec)));
    let scenario = factory();
    REGISTRY.with(|r| *r.borrow_mut() = None);

    let n = scenario.threads.len();
    assert!(n > 0, "a scenario needs at least one thread");
    exec.init(n, &scenario.mutations);

    let handles: Vec<_> = scenario
        .threads
        .into_iter()
        .enumerate()
        .map(|(tid, body)| {
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || {
                EXEC.with(|e| *e.borrow_mut() = Some((Arc::clone(&exec), tid)));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    exec.record(Event {
                        thread: tid,
                        cell: usize::MAX,
                        kind: EventKind::Start,
                        a: 0,
                        b: 0,
                    });
                    exec.pause(tid, false);
                    body()
                }));
                let out = match result {
                    Ok(v) => Some(v),
                    Err(payload) => {
                        if payload.downcast_ref::<ModelAbort>().is_none() {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_owned())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "opaque panic payload".to_owned());
                            let mut s = exec.sched.lock().expect("model lock");
                            s.panics.push(format!("thread {tid} panicked: {msg}"));
                            s.aborted = true;
                            exec.cv.notify_all();
                        }
                        None
                    }
                };
                exec.finish(tid);
                EXEC.with(|e| *e.borrow_mut() = None);
                out
            })
        })
        .collect();

    let mut decisions: Vec<usize> = Vec::new();
    let mut prev: Option<usize> = None;
    let mut preemptions_used = 0usize;
    let mut failure: Option<String> = None;

    loop {
        // Wait until every thread is paused at a scheduling point (or
        // finished) and nobody holds a grant.
        let mut s = exec.sched.lock().expect("model lock");
        loop {
            if s.aborted {
                break;
            }
            let all_paused = s.current.is_none() && (0..n).all(|i| s.finished[i] || s.waiting[i]);
            if all_paused {
                break;
            }
            let (guard, timeout) = exec.cv.wait_timeout(s, WATCHDOG).expect("model lock");
            s = guard;
            if timeout.timed_out() {
                failure = Some(
                    "model execution stalled: a thread is blocked outside the \
                     engine's control (unseamed blocking primitive?)"
                        .to_owned(),
                );
                s.aborted = true;
                exec.cv.notify_all();
                break;
            }
        }
        if s.aborted {
            drop(s);
            break;
        }
        if (0..n).all(|i| s.finished[i]) {
            drop(s);
            break;
        }
        if s.steps >= exec.max_steps {
            failure =
                Some(format!("livelock: execution exceeded {} scheduling points", exec.max_steps));
            s.aborted = true;
            exec.cv.notify_all();
            drop(s);
            break;
        }

        // Eligibility: paused, unfinished; yielded threads step aside
        // until every runnable thread has yielded (loom-style), which
        // guarantees wait loops make way for the thread they wait on.
        let runnable: Vec<usize> = (0..n).filter(|&i| s.waiting[i] && !s.finished[i]).collect();
        let non_yielded: Vec<usize> = runnable.iter().copied().filter(|&i| !s.yielded[i]).collect();
        let pool = if non_yielded.is_empty() {
            for i in &runnable {
                s.yielded[*i] = false;
            }
            runnable.clone()
        } else {
            non_yielded
        };

        let depth = decisions.len();
        let budget_left = config.preemptions.saturating_sub(preemptions_used);
        let chosen =
            if let Some(&forced_tid) = forced.get(depth).filter(|&&t| runnable.contains(&t)) {
                // Honoring the pinned trace. A forced thread that is no
                // longer runnable (the code under the trace changed — e.g. a
                // fixed protocol takes fewer steps than the mutated one the
                // trace was recorded against) falls through to the greedy
                // arm: the trace steers the schedule as far as it remains
                // valid, and the scenario's invariant check still judges the
                // outcome.
                forced_tid
            } else if let Some(search) = search.as_deref_mut() {
                search.decision_points += 1;
                if depth < search.stack.len() {
                    // Replaying the prefix the DFS stack pins for this run.
                    let frame = &search.stack[depth];
                    frame.choices[frame.idx]
                } else {
                    // Fresh territory: enumerate preemption-bounded choices —
                    // continue `prev` for free, branch only with budget left.
                    let mut choices: Vec<usize> = Vec::new();
                    match prev {
                        Some(p) if pool.contains(&p) => {
                            choices.push(p);
                            if budget_left > 0 {
                                choices.extend(pool.iter().copied().filter(|&t| t != p));
                            }
                        }
                        _ => choices.extend(pool.iter().copied()),
                    }
                    if config.state_hashing && choices.len() > 1 {
                        let h = exec.state_hash(&s, prev, budget_left);
                        if !search.seen.insert(h) {
                            search.pruned += 1;
                            choices.truncate(1);
                        }
                    }
                    let first = choices[0];
                    search.stack.push(Frame { choices, idx: 0 });
                    first
                }
            } else {
                // Past the pinned trace (or no search): continue greedily.
                match prev {
                    Some(p) if pool.contains(&p) => p,
                    _ => pool[0],
                }
            };

        if let Some(p) = prev {
            if chosen != p && !s.finished[p] {
                preemptions_used += 1;
            }
        }
        decisions.push(chosen);
        if let Some(search) = search.as_deref_mut() {
            search.max_depth = search.max_depth.max(decisions.len());
        }
        prev = Some(chosen);
        s.current = Some(chosen);
        s.waiting[chosen] = false;
        s.yielded[chosen] = false;
        s.steps += 1;
        s.ops[chosen] += 1;
        drop(s);
        exec.cv.notify_all();
    }

    // Make sure every worker unwinds, then collect results.
    let mut outs: Vec<Option<T>> = Vec::with_capacity(n);
    for handle in handles {
        outs.push(handle.join().unwrap_or(None));
    }
    let (events, panics) = {
        let s = exec.sched.lock().expect("model lock");
        let events: Vec<String> = s.events.iter().enumerate().map(|(i, e)| e.render(i)).collect();
        (events, s.panics.clone())
    };

    let outcome = if let Some(msg) = panics.into_iter().next() {
        ExecOutcome::Failed(msg)
    } else if let Some(msg) = failure {
        ExecOutcome::Failed(msg)
    } else {
        let results: Option<Vec<T>> = outs.into_iter().collect();
        match results {
            Some(values) => match (scenario.check)(&values) {
                Ok(()) => ExecOutcome::Ok,
                Err(msg) => ExecOutcome::Failed(msg),
            },
            None => ExecOutcome::Failed("a model thread produced no result".to_owned()),
        }
    };
    (decisions, events, outcome)
}

/// Exhaustively explores the scenario's schedules within the config's
/// preemption bound, returning the first counterexample found (if any)
/// with a replayable trace.
///
/// `scenario` is a *factory*: it is invoked once per execution and must
/// build fresh, fully independent state each time (shim atomics created
/// inside it register with that execution automatically).
pub fn explore<T: Send + 'static>(
    config: &ModelConfig,
    mut scenario: impl FnMut() -> Scenario<T>,
) -> ExploreReport {
    let mut search = Search {
        stack: Vec::new(),
        seen: HashSet::new(),
        pruned: 0,
        decision_points: 0,
        max_depth: 0,
    };
    let mut executions = 0u64;
    let mut complete = true;
    let mut counterexample = None;

    loop {
        if executions >= config.max_executions {
            complete = false;
            break;
        }
        let (decisions, events, outcome) = run_once(config, &mut scenario, &[], Some(&mut search));
        executions += 1;
        if let ExecOutcome::Failed(message) = outcome {
            counterexample = Some(Counterexample { message, trace: Trace { decisions }, events });
            complete = false;
            break;
        }
        // Backtrack the DFS stack to the next unexplored branch; the next
        // run_once replays frames 0..stack.len() as its forced prefix.
        loop {
            match search.stack.last_mut() {
                None => break,
                Some(frame) => {
                    if frame.idx + 1 < frame.choices.len() {
                        frame.idx += 1;
                        break;
                    }
                    search.stack.pop();
                }
            }
        }
        if search.stack.is_empty() {
            break;
        }
    }

    ExploreReport {
        executions,
        decision_points: search.decision_points,
        pruned_states: search.pruned,
        max_depth: search.max_depth,
        complete,
        counterexample,
    }
}

/// Runs the scenario once under the pinned schedule, continuing greedily
/// once the trace is exhausted — or from the first decision the trace
/// can no longer force (replaying a mutated protocol's trace against the
/// fixed code legitimately takes different steps; the trace steers the
/// schedule as far as it stays valid). Returns the failure if the
/// schedule still (or again) breaks the invariant — pinned regression
/// tests assert `Ok` on fixed code and `Err` on mutated code.
pub fn replay<T: Send + 'static>(
    config: &ModelConfig,
    scenario: impl FnOnce() -> Scenario<T>,
    trace: &Trace,
) -> Result<(), Counterexample> {
    let (decisions, events, outcome) = run_once(config, scenario, &trace.decisions, None);
    match outcome {
        ExecOutcome::Ok => Ok(()),
        ExecOutcome::Failed(message) => {
            Err(Counterexample { message, trace: Trace { decisions }, events })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;

    fn broken_counter_scenario() -> Scenario<()> {
        let counter = Arc::new(AtomicU64::new(0));
        let bump = |c: Arc<AtomicU64>| {
            move || {
                // Load-then-store: the classic lost update.
                let v = c.load(SeqCst);
                c.store(v + 1, SeqCst);
            }
        };
        let check = Arc::clone(&counter);
        Scenario::new(
            vec![Box::new(bump(Arc::clone(&counter))), Box::new(bump(Arc::clone(&counter)))],
            move |_: &[()]| {
                let v = check.load(SeqCst);
                if v == 2 {
                    Ok(())
                } else {
                    Err(format!("lost update: counter is {v}, expected 2"))
                }
            },
        )
    }

    #[test]
    fn finds_a_lost_update_with_one_preemption() {
        let report = explore(&ModelConfig::with_preemptions(1), broken_counter_scenario);
        let bug = report.counterexample.expect("lost update must be found");
        assert!(bug.message.contains("lost update"), "{}", bug.message);
        assert!(!bug.trace.decisions.is_empty());
        assert!(!bug.events.is_empty());
    }

    #[test]
    fn replays_the_exact_counterexample() {
        let report = explore(&ModelConfig::with_preemptions(1), broken_counter_scenario);
        let bug = report.counterexample.expect("lost update must be found");
        let err = replay(&ModelConfig::default(), broken_counter_scenario, &bug.trace)
            .expect_err("the pinned schedule must still fail on the broken code");
        assert!(err.message.contains("lost update"), "{}", err.message);
    }

    #[test]
    fn verifies_a_cas_retry_counter() {
        let report = explore(&ModelConfig::with_preemptions(2), || {
            let counter = Arc::new(AtomicU64::new(0));
            let bump = |c: Arc<AtomicU64>| {
                move || loop {
                    let v = c.load(SeqCst);
                    if c.compare_exchange(v, v + 1, SeqCst, SeqCst).is_ok() {
                        break;
                    }
                }
            };
            let check = Arc::clone(&counter);
            Scenario::new(
                vec![Box::new(bump(Arc::clone(&counter))), Box::new(bump(Arc::clone(&counter)))],
                move |_: &[()]| {
                    let v = check.load(SeqCst);
                    if v == 2 {
                        Ok(())
                    } else {
                        Err(format!("counter is {v}"))
                    }
                },
            )
        });
        assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
        assert!(report.complete);
        assert!(report.executions > 1, "multiple schedules must be explored");
    }

    #[test]
    fn yield_loops_make_progress() {
        // A waiter spins (with model_yield) until a setter flips a flag.
        // Yield deprioritization must let the setter run, and the
        // execution must terminate well under the step bound.
        let report = explore(&ModelConfig::with_preemptions(1), || {
            let flag = Arc::new(AtomicU64::new(0));
            let waiter = {
                let flag = Arc::clone(&flag);
                move || {
                    while flag.load(SeqCst) == 0 {
                        model_yield();
                    }
                    1u64
                }
            };
            let setter = {
                let flag = Arc::clone(&flag);
                move || {
                    flag.store(1, SeqCst);
                    0u64
                }
            };
            Scenario::new(vec![Box::new(waiter), Box::new(setter)], |outs: &[u64]| {
                if outs[0] == 1 {
                    Ok(())
                } else {
                    Err("waiter did not observe the flag".into())
                }
            })
        });
        assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
        assert!(report.complete);
    }

    #[test]
    fn panics_inside_protocol_code_become_counterexamples() {
        let report = explore(&ModelConfig::with_preemptions(1), || {
            let cell = Arc::new(AtomicU64::new(0));
            let a = {
                let cell = Arc::clone(&cell);
                move || {
                    // Panics only when the other thread ran first.
                    assert_eq!(cell.fetch_add(1, SeqCst), 0, "second place");
                }
            };
            let b = {
                let cell = Arc::clone(&cell);
                move || {
                    cell.fetch_add(1, SeqCst);
                }
            };
            Scenario::new(vec![Box::new(a), Box::new(b)], |_: &[()]| Ok(()))
        });
        let bug = report.counterexample.expect("the ordering-dependent panic must be found");
        assert!(bug.message.contains("panicked"), "{}", bug.message);
    }

    #[test]
    fn state_hashing_prunes_commuting_schedules() {
        // Three threads each storing the same value to one cell: all
        // orders converge to identical states, so pruning must cut the
        // execution count.
        let run = |hashing: bool| {
            let config = ModelConfig { state_hashing: hashing, ..ModelConfig::default() };
            explore(&config, || {
                let cell = Arc::new(AtomicU64::new(0));
                let put = |c: Arc<AtomicU64>| {
                    move || {
                        c.store(7, SeqCst);
                    }
                };
                Scenario::new(
                    vec![
                        Box::new(put(Arc::clone(&cell))),
                        Box::new(put(Arc::clone(&cell))),
                        Box::new(put(Arc::clone(&cell))),
                    ],
                    |_: &[()]| Ok(()),
                )
            })
        };
        let pruned = run(true);
        let full = run(false);
        assert!(pruned.counterexample.is_none());
        assert!(full.counterexample.is_none());
        assert!(pruned.pruned_states > 0, "pruning should trigger");
        assert!(
            pruned.executions < full.executions,
            "pruning should reduce executions ({} vs {})",
            pruned.executions,
            full.executions
        );
    }

    #[test]
    fn mutations_are_visible_only_inside_their_execution() {
        assert!(!mutation_enabled("demo-mutation"));
        let report = explore(&ModelConfig::with_preemptions(0), || {
            Scenario::new(
                vec![Box::new(|| mutation_enabled("demo-mutation"))],
                |outs: &[bool]| {
                    if outs[0] {
                        Ok(())
                    } else {
                        Err("mutation flag not visible in model thread".into())
                    }
                },
            )
            .with_mutation("demo-mutation")
        });
        assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
        assert!(!mutation_enabled("demo-mutation"));
    }

    #[test]
    fn shim_atomics_pass_through_outside_the_model() {
        let a = AtomicU64::new(5);
        assert_eq!(a.load(SeqCst), 5);
        assert_eq!(a.fetch_add(3, SeqCst), 5);
        assert_eq!(a.fetch_sub(1, SeqCst), 8);
        assert_eq!(a.fetch_max(100, SeqCst), 7);
        assert_eq!(a.compare_exchange(100, 0, SeqCst, SeqCst), Ok(100));
        assert_eq!(a.compare_exchange(7, 1, SeqCst, SeqCst), Err(0));
        let u = AtomicUsize::new(1);
        assert_eq!(u.fetch_add(1, SeqCst), 1);
        assert!(!in_model());
    }

    #[test]
    fn livelock_is_reported_as_a_counterexample() {
        let config = ModelConfig { max_steps: 200, ..ModelConfig::with_preemptions(0) };
        let report = explore(&config, || {
            let flag = Arc::new(AtomicU64::new(0));
            let waiter = {
                let flag = Arc::clone(&flag);
                move || {
                    // Waits for a value nobody ever writes.
                    while flag.load(SeqCst) == 0 {
                        model_yield();
                    }
                }
            };
            Scenario::new(vec![Box::new(waiter)], |_: &[()]| Ok(()))
        });
        let bug = report.counterexample.expect("livelock must be reported");
        assert!(bug.message.contains("livelock"), "{}", bug.message);
    }
}

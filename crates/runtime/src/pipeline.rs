//! The submission plane of the pipelined frontend
//! ([`crate::RuntimeConfig::pipeline`]).
//!
//! No application thread runs the dependence analysis inline. Producers —
//! the [`crate::Runtime`] facade and every [`crate::Runtime::new_context`]
//! tenant — validate and snapshot launches on their own threads and push
//! them, tagged with their context, into one FIFO queue. One dispatcher
//! thread (`viz-analysis-driver`) takes everything queued in one lock
//! acquisition, then holds the forest read lock and the core write lock
//! **once per sweep** and commits each run of consecutive same-context
//! specs through `Core::run_specs` — flat combining: producers delegate
//! the serial analysis to the dispatcher and keep submitting. Each
//! context's stream is analyzed in its program order; the interleaving
//! *between* contexts is the queue order, which is the commit order: task
//! ids, and with them the ledger and DAG rows the oracle's history is read
//! from, are well-defined under concurrent producers.
//!
//! ## Backpressure
//!
//! A producer blocks while [`crate::RuntimeConfig::pipeline_depth`] of its
//! *own* specs sit in the queue, not yet taken by the dispatcher: a full
//! producer stalls that producer (and only that producer) until the
//! dispatcher catches up. Stalls, the in-flight depth and combined sweeps
//! are counted in [`PipelineMetrics`] (read as `PipelineStats`). At most
//! [`crate::RuntimeConfig::submit_rings`] producers (the facade included)
//! are live at once.
//!
//! ## Drain points, quiesce, and the drop contract
//!
//! Operations that observe committed analysis state quiesce the *whole
//! plane* (`SubmitPlane::quiesce`): read the submitted counter once, then
//! wait until the retired counter catches up — a monotone condition that
//! terminates even while other producers keep submitting. Dropping the
//! runtime closes the plane and joins the dispatcher, which empties the
//! queue before honoring shutdown — queued launches are never lost. If
//! the dispatcher dies (an engine bug; API misuse is rejected on the
//! producer thread before enqueue), the panic is latched: producers get
//! [`RuntimeError::DriverPanicked`] with the count of launches that were
//! queued but will never be analyzed (also readable as
//! [`PipelineMetrics::lost`]), and dropping the runtime re-raises the
//! original panic payload.

use crate::error::RuntimeError;
use crate::runtime::{Core, LaunchSpec};
use crate::task::TaskId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;
use viz_region::RegionForest;

/// Publish `value` into `cell` if it exceeds the current maximum.
///
/// Spelled as an explicit CAS loop: the PR 4 frontend updated its
/// high-water mark with an independent load/store pair, which let two
/// concurrent submitters interleave `load(5), load(9), store(9), store(5)`
/// and publish a stale maximum. The loop retries on contention, so the
/// final value is the true maximum of everything observed.
pub(crate) fn observe_max(cell: &AtomicU64, value: u64) {
    let mut current = cell.load(Ordering::Relaxed);
    while value > current {
        match cell.compare_exchange_weak(current, value, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

// ----------------------------------------------------------------------
// Re-entrancy detection (the WouldDeadlock contract)
// ----------------------------------------------------------------------

thread_local! {
    /// Set while this thread is the analysis dispatcher or a value-executor
    /// worker. Blocking on analysis progress from such a thread can never
    /// succeed (the executor holds the core read lock the dispatcher needs;
    /// the dispatcher *is* the thread being waited for), so resolve calls
    /// return [`RuntimeError::WouldDeadlock`] instead of hanging.
    static IN_RUNTIME_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII marker for dispatcher/executor threads; restores the previous
/// state on drop so nested scopes behave.
pub(crate) struct WorkerGuard {
    prev: bool,
}

pub(crate) fn enter_worker() -> WorkerGuard {
    let prev = IN_RUNTIME_WORKER.with(|c| c.replace(true));
    WorkerGuard { prev }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_RUNTIME_WORKER.with(|c| c.set(prev));
    }
}

/// Is the current thread a runtime worker (dispatcher or executor)?
pub(crate) fn in_worker() -> bool {
    IN_RUNTIME_WORKER.with(|c| c.get())
}

// ----------------------------------------------------------------------
// Metrics
// ----------------------------------------------------------------------

#[derive(Default)]
pub(crate) struct MetricsInner {
    submitted: AtomicU64,
    retired: AtomicU64,
    stalls: AtomicU64,
    stalled_ns: AtomicU64,
    max_depth: AtomicU64,
    /// Dispatcher sweeps that committed at least one spec.
    combines: AtomicU64,
    /// Specs committed across all combined sweeps (== retired).
    combined_specs: AtomicU64,
    /// Largest single combined sweep.
    max_combine: AtomicU64,
    /// Sweeps whose batch held more than one context (true combining).
    multi_ring_combines: AtomicU64,
    /// Latched when the dispatcher thread panicked.
    panicked: AtomicBool,
}

impl MetricsInner {
    fn lost_now(&self) -> u64 {
        if self.panicked.load(Ordering::SeqCst) {
            self.submitted
                .load(Ordering::Acquire)
                .saturating_sub(self.retired.load(Ordering::Acquire))
        } else {
            0
        }
    }
}

/// Counters for the submission plane, readable from a cloneable handle
/// that outlives the [`crate::Runtime`] — the drop-flush test uses one to
/// observe that every queued launch retired during `Drop`.
#[derive(Clone)]
pub struct PipelineMetrics {
    inner: Arc<MetricsInner>,
}

impl PipelineMetrics {
    /// Launches pushed into the submission queue.
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.load(Ordering::Acquire)
    }

    /// Launches the dispatcher has taken and committed.
    pub fn retired(&self) -> u64 {
        self.inner.retired.load(Ordering::Acquire)
    }

    /// Submissions that blocked on their producer's full share of the
    /// queue (backpressure).
    pub fn stalls(&self) -> u64 {
        self.inner.stalls.load(Ordering::Acquire)
    }

    /// Total wall-clock nanoseconds producers spent blocked on
    /// backpressure.
    pub fn stalled_ns(&self) -> u64 {
        self.inner.stalled_ns.load(Ordering::Acquire)
    }

    /// High-water mark of the aggregate queued-but-unretired depth
    /// observed at submission.
    pub fn max_depth(&self) -> u64 {
        self.inner.max_depth.load(Ordering::Acquire)
    }

    /// Dispatcher sweeps that committed at least one spec.
    pub fn combines(&self) -> u64 {
        self.inner.combines.load(Ordering::Acquire)
    }

    /// Specs committed across all combined sweeps.
    pub fn combined_specs(&self) -> u64 {
        self.inner.combined_specs.load(Ordering::Acquire)
    }

    /// Largest single combined sweep (specs committed under one core
    /// write-lock acquisition).
    pub fn max_combine(&self) -> u64 {
        self.inner.max_combine.load(Ordering::Acquire)
    }

    /// Sweeps whose batch held more than one producer context under one
    /// lock acquisition.
    pub fn multi_ring_combines(&self) -> u64 {
        self.inner.multi_ring_combines.load(Ordering::Acquire)
    }

    /// Did the dispatcher thread panic?
    pub fn panicked(&self) -> bool {
        self.inner.panicked.load(Ordering::SeqCst)
    }

    /// Launches that were queued but will never be analyzed because the
    /// dispatcher panicked (0 while the dispatcher is healthy).
    pub fn lost(&self) -> u64 {
        self.inner.lost_now()
    }
}

// ----------------------------------------------------------------------
// Per-context state
// ----------------------------------------------------------------------

/// Everything a producer context (and its outstanding handles) needs to
/// track its stream: per-context program-order counters and the global
/// task ids the dispatcher assigned. Handles hold an `Arc` to this, so it
/// stays valid after the context detaches.
pub(crate) struct CtxState {
    /// Context id, kept on every launch it submits (fence scope).
    pub(crate) ctx: u32,
    /// Specs this context has pushed (or committed inline), in its own
    /// program order.
    pub(crate) pushed: AtomicU64,
    /// Prefix of `pushed` whose analysis has committed.
    pub(crate) committed: AtomicU64,
    /// This context's specs in the queue, not yet taken by the
    /// dispatcher. Written under the queue lock only, which orders it.
    /// A `u32` fits in the padding after `ctx`, so the struct stays 56
    /// bytes and the heap layout `peak_rss_mb` follows (DESIGN §7l) with it.
    queued: AtomicU32,
    /// Global [`TaskId`]s assigned to this context's launches, indexed by
    /// context-local sequence number.
    assigned: Mutex<Vec<TaskId>>,
}

impl CtxState {
    pub(crate) fn new(ctx: u32) -> Arc<Self> {
        Arc::new(CtxState {
            ctx,
            pushed: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            queued: AtomicU32::new(0),
            assigned: Mutex::new(Vec::new()),
        })
    }

    /// The assigned ids. A committing thread holds the lock while
    /// `Core::run_specs` appends to it, under the core write lock; no
    /// holder ever takes the core lock, and readers read through poison (a
    /// panicking commit poisons the core too, and `committed` never counts
    /// its ids).
    pub(crate) fn assigned(&self) -> MutexGuard<'_, Vec<TaskId>> {
        self.assigned.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The id assigned to context-local sequence `seq`, if committed.
    pub(crate) fn try_id(&self, seq: u32) -> Option<TaskId> {
        if self.committed.load(Ordering::Acquire) > seq as u64 {
            Some(self.assigned()[seq as usize])
        } else {
            None
        }
    }

    /// This context's specs queued and not yet taken.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> u32 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Count `n` inline (synchronous-path) commits whose ids the caller
    /// has appended to [`CtxState::assigned`]: one count per batch, as the
    /// dispatcher counts a run.
    pub(crate) fn record_inline(&self, n: u64) {
        self.pushed.fetch_add(n, Ordering::Release);
        self.committed.fetch_add(n, Ordering::Release);
    }
}

// ----------------------------------------------------------------------
// The plane
// ----------------------------------------------------------------------

/// One run of consecutive specs from one context, in its program order.
type Run = (Arc<CtxState>, Vec<LaunchSpec>);

struct Queue {
    /// The FIFO of `(context, spec)`, stored as runs: a push from the
    /// context of the last run extends it.
    runs: VecDeque<Run>,
    /// Specs across `runs`.
    len: usize,
    /// Live producers, the facade included.
    producers: usize,
    shutdown: bool,
}

pub(crate) struct SubmitPlane {
    queue: Mutex<Queue>,
    /// Wakes the dispatcher: a spec landed in an empty queue, or shutdown.
    work: Condvar,
    /// Wakes producers and drain waiters: the dispatcher took specs
    /// (space), committed them (progress), or died.
    progress: Condvar,
    /// Per-producer bound on queued specs (`pipeline_depth`).
    depth: u32,
    /// Bound on live producers (`submit_rings`).
    max_producers: usize,
    metrics: Arc<MetricsInner>,
}

impl SubmitPlane {
    fn new(max_producers: usize, depth: usize) -> Self {
        SubmitPlane {
            queue: Mutex::new(Queue {
                runs: VecDeque::new(),
                len: 0,
                // The facade's own stream.
                producers: 1,
                shutdown: false,
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
            depth: depth.clamp(1, u32::MAX as usize) as u32,
            max_producers: max_producers.max(1),
            metrics: Arc::default(),
        }
    }

    /// The queue. No code that can panic runs under this lock (no engine
    /// work, no user callbacks), so it is never poisoned.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, cv: &Condvar, guard: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn panic_error(&self) -> RuntimeError {
        RuntimeError::DriverPanicked {
            lost: self.metrics.lost_now(),
        }
    }

    /// Admit one more producer, or [`RuntimeError::RingsExhausted`] when
    /// `submit_rings` are already live.
    pub(crate) fn join(&self) -> Result<(), RuntimeError> {
        let mut q = self.lock();
        if q.producers >= self.max_producers {
            return Err(RuntimeError::RingsExhausted {
                rings: self.max_producers,
            });
        }
        q.producers += 1;
        Ok(())
    }

    /// Detach a producer: wait for its queued specs to commit (its stream
    /// is fully analyzed), then free its place for the next one. Handles
    /// keep resolving through their own [`CtxState`] after this.
    pub(crate) fn leave(&self, state: &CtxState) {
        let want = state.pushed.load(Ordering::Acquire);
        // A dead dispatcher never commits the remainder; give up then.
        let _ = self.wait_until(|| state.committed.load(Ordering::Acquire) >= want);
        self.lock().producers -= 1;
    }

    /// Push a batch in order, blocking per spec while `depth` of this
    /// producer's specs are queued (backpressure). Returns
    /// [`RuntimeError::DriverPanicked`] — with the lost-launch count —
    /// instead of blocking forever once the dispatcher has died.
    pub(crate) fn enqueue_all(
        &self,
        state: &Arc<CtxState>,
        specs: Vec<LaunchSpec>,
    ) -> Result<(), RuntimeError> {
        let m = &*self.metrics;
        let mut stall_started: Option<Instant> = None;
        let mut result = Ok(());
        // Set once a spec lands in an empty queue: the dispatcher may be
        // asleep, and is woken before this producer waits or returns —
        // not while the batch still holds the lock it would wake into.
        let mut wake = false;
        let mut q = self.lock();
        let mut specs = specs.into_iter();
        while let Some(spec) = specs.next() {
            while state.queued.load(Ordering::Relaxed) >= self.depth
                && !m.panicked.load(Ordering::SeqCst)
            {
                if std::mem::take(&mut wake) {
                    self.work.notify_one();
                }
                stall_started.get_or_insert_with(Instant::now);
                q = self.wait(&self.progress, q);
            }
            if m.panicked.load(Ordering::SeqCst) {
                result = Err(self.panic_error());
                break;
            }
            wake |= q.len == 0;
            q.len += 1;
            match q.runs.back_mut() {
                Some((last, run)) if Arc::ptr_eq(last, state) => run.push(spec),
                _ => {
                    let mut run = Vec::with_capacity(1 + specs.len());
                    run.push(spec);
                    q.runs.push_back((Arc::clone(state), run));
                }
            }
            state.queued.fetch_add(1, Ordering::Relaxed);
            state.pushed.fetch_add(1, Ordering::Release);
            let submitted = m.submitted.fetch_add(1, Ordering::AcqRel) + 1;
            observe_max(
                &m.max_depth,
                submitted.saturating_sub(m.retired.load(Ordering::Acquire)),
            );
        }
        drop(q);
        if wake {
            self.work.notify_one();
        }
        if let Some(t0) = stall_started {
            let waited_ns = t0.elapsed().as_nanos() as u64;
            m.stalls.fetch_add(1, Ordering::AcqRel);
            m.stalled_ns.fetch_add(waited_ns, Ordering::AcqRel);
        }
        result
    }

    /// Park until `cond` holds or the dispatcher has died. `cond` reads
    /// counters the dispatcher bumps before it takes the queue lock to
    /// notify, so checking it under that lock cannot miss a wakeup.
    fn wait_until(&self, cond: impl Fn() -> bool) -> Result<(), RuntimeError> {
        if cond() {
            return Ok(());
        }
        let mut q = self.lock();
        loop {
            if cond() {
                return Ok(());
            }
            if self.metrics.panicked.load(Ordering::SeqCst) {
                return Err(self.panic_error());
            }
            q = self.wait(&self.progress, q);
        }
    }

    /// Quiesce the whole plane: everything pushed before this call has
    /// committed when it returns. The queue is FIFO and `submitted` is
    /// read once, so the wait terminates even while other producers keep
    /// submitting.
    pub(crate) fn quiesce(&self) -> Result<(), RuntimeError> {
        let m = &*self.metrics;
        let want = m.submitted.load(Ordering::Acquire);
        self.wait_until(|| m.retired.load(Ordering::Acquire) >= want)
    }

    /// Wait until `state`'s commit counter covers `count` launches.
    pub(crate) fn wait_ctx_committed(
        &self,
        state: &CtxState,
        count: u64,
    ) -> Result<(), RuntimeError> {
        self.wait_until(|| state.committed.load(Ordering::Acquire) >= count)
    }
}

// ----------------------------------------------------------------------
// The dispatcher
// ----------------------------------------------------------------------

/// Latches the panic flag if the dispatcher unwinds, so producer-side
/// waiters wake up and report [`RuntimeError::DriverPanicked`] instead of
/// deadlocking on a condvar.
struct Bomb<'a>(&'a SubmitPlane);

impl Drop for Bomb<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _q = self.0.lock();
            self.0.metrics.panicked.store(true, Ordering::SeqCst);
            self.0.progress.notify_all();
        }
    }
}

/// The dispatcher loop: take everything queued, and commit the combined
/// batch through the shared [`Core`] under one write lock. Exits when the
/// plane is shut down *and* the queue is empty — shutdown is only honored
/// after a final drain, which is the drop-flush guarantee.
fn drive(plane: &SubmitPlane, core: &RwLock<Core>, forest: &RwLock<RegionForest>) {
    let _worker = enter_worker();
    let _bomb = Bomb(plane);
    let mut batch: Vec<Run> = Vec::new();
    loop {
        let (total, producers) = {
            let mut q = plane.lock();
            while q.len == 0 {
                if q.shutdown {
                    return;
                }
                q = plane.wait(&plane.work, q);
            }
            batch.extend(q.runs.drain(..));
            // Every queued spec is taken, so each context's count drops to
            // zero; counting the non-zero ones counts the producers.
            let producers = batch
                .iter()
                .filter(|(state, _)| state.queued.swap(0, Ordering::Relaxed) > 0)
                .count();
            (std::mem::take(&mut q.len) as u64, producers)
        };
        // Free space first: producers refill while this batch is analyzed
        // (submission/analysis overlap).
        plane.progress.notify_all();
        {
            // Lock order everywhere is forest before core. The forest is
            // only write-locked by `forest_mut`, which quiesces first, so
            // the dispatcher's read lock never contends with a writer
            // mid-batch. One core write-lock acquisition commits every
            // producer's runs — the flat-combining step. A poisoned lock
            // means an earlier holder panicked mid-commit; panicking here
            // latches that as `DriverPanicked`.
            let forest = forest.read().expect("region forest poisoned");
            let mut core = core.write().expect("runtime core poisoned");
            for (state, run) in batch.drain(..) {
                let n = run.len() as u64;
                core.run_specs(state.ctx, run, &forest, &mut state.assigned());
                state.committed.fetch_add(n, Ordering::Release);
            }
        }
        let m = &plane.metrics;
        m.retired.fetch_add(total, Ordering::AcqRel);
        m.combines.fetch_add(1, Ordering::AcqRel);
        m.combined_specs.fetch_add(total, Ordering::AcqRel);
        observe_max(&m.max_combine, total);
        if producers > 1 {
            m.multi_ring_combines.fetch_add(1, Ordering::AcqRel);
        }
        // Through the lock: a waiter that read the old counters under it
        // is parked by the time this notifies.
        drop(plane.lock());
        plane.progress.notify_all();
    }
}

// ----------------------------------------------------------------------
// The facade handle
// ----------------------------------------------------------------------

/// The handle the [`crate::Runtime`] facade owns: the shared plane and the
/// dispatcher's join handle. Dropping it shuts the plane down and joins
/// the dispatcher (which empties the queue first).
pub(crate) struct Pipeline {
    pub(crate) plane: Arc<SubmitPlane>,
    driver: Option<std::thread::JoinHandle<()>>,
}

impl Pipeline {
    pub(crate) fn spawn(
        core: Arc<RwLock<Core>>,
        forest: Arc<RwLock<RegionForest>>,
        depth: usize,
        max_producers: usize,
    ) -> Self {
        let plane = Arc::new(SubmitPlane::new(max_producers, depth));
        let driver = {
            let plane = Arc::clone(&plane);
            // `Runtime::new` is infallible: a host that cannot start one
            // thread cannot run the pipelined frontend at all.
            std::thread::Builder::new()
                .name("viz-analysis-driver".into())
                .spawn(move || drive(&plane, &core, &forest))
                .expect("spawn analysis driver thread")
        };
        Pipeline {
            plane,
            driver: Some(driver),
        }
    }

    /// Block until every launch submitted so far has committed.
    pub(crate) fn drain(&self) -> Result<(), RuntimeError> {
        self.plane.quiesce()
    }

    pub(crate) fn metrics(&self) -> PipelineMetrics {
        PipelineMetrics {
            inner: Arc::clone(&self.plane.metrics),
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        self.plane.lock().shutdown = true;
        self.plane.work.notify_one();
        if let Some(driver) = self.driver.take() {
            if let Err(payload) = driver.join() {
                // Surface the dispatcher's death unless we are already
                // unwinding (a double panic would abort).
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression (PR 7): the PR 4 frontend published the
    /// high-water mark with an independent load/store pair; concurrent
    /// observers could overwrite a larger maximum with a stale smaller
    /// one. `observe_max` must survive a multi-threaded hammer with the
    /// true maximum intact.
    #[test]
    fn observe_max_survives_concurrent_publishers() {
        let cell = AtomicU64::new(0);
        let threads = 8u64;
        let per_thread = 20_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cell = &cell;
                scope.spawn(move || {
                    // Interleaved ascending/descending streams: plenty of
                    // windows where a stale store would clobber a larger
                    // published value.
                    for k in 0..per_thread {
                        let v = if t % 2 == 0 { k } else { per_thread - k };
                        observe_max(cell, v * threads + t);
                    }
                });
            }
        });
        let expected = (0..threads)
            .map(|t| {
                if t % 2 == 0 {
                    (per_thread - 1) * threads + t
                } else {
                    per_thread * threads + t
                }
            })
            .max()
            .unwrap();
        assert_eq!(cell.load(Ordering::SeqCst), expected);
    }

    #[test]
    fn worker_guard_nests_and_restores() {
        assert!(!in_worker());
        {
            let _a = enter_worker();
            assert!(in_worker());
            {
                let _b = enter_worker();
                assert!(in_worker());
            }
            assert!(in_worker());
        }
        assert!(!in_worker());
    }
}

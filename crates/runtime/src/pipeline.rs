//! The multi-producer submission plane (PR 4's pipelined frontend,
//! rebuilt in PR 7 for many concurrent task streams).
//!
//! With [`crate::RuntimeConfig::pipeline`] set, no application thread runs
//! the dependence analysis inline. Instead the plane owns a fixed array of
//! per-context SPSC *submission rings* (`ring::SpscRing`, sized by
//! [`crate::RuntimeConfig::submit_rings`]): the primary [`crate::Runtime`]
//! facade claims ring 0, and every [`crate::Runtime::new_context`] tenant
//! context claims its own. Producers validate and snapshot launches on
//! their own threads and push into their private ring wait-free — never
//! contending on a shared queue lock, never blocking on lock handoff.
//!
//! One *combining dispatcher* thread (`viz-analysis-driver`) sweeps the
//! rings, drains every pending spec, and commits the combined batch
//! through `Core::run_specs` while holding the core write lock **once
//! per sweep** instead of once per submission — flat-combining delegation:
//! producers delegate the serial analysis to the dispatcher and keep
//! submitting. Per-ring FIFO order is preserved (each context's stream is
//! analyzed in its program order); the interleaving *between* contexts is
//! the commit order the dispatcher observed, which is also the order the
//! history recorder sees — so recorded histories are well-defined under
//! concurrent producers.
//!
//! ## Backpressure
//!
//! Every ring is bounded ([`crate::RuntimeConfig::pipeline_depth`]): a
//! full ring stalls that producer (and only that producer) until the
//! dispatcher catches up. Stalls and ring depths are counted per ring in
//! [`PipelineMetrics`]; combined batches are emitted as
//! [`viz_profile::EventKind::SubmitCombine`] events.
//!
//! ## Drain points, quiesce, and the drop contract
//!
//! Operations that observe committed analysis state quiesce the *whole
//! plane* (`SubmitPlane::quiesce`): snapshot every ring's pushed
//! counter, then wait until the matching commit counters catch up — a
//! monotone condition that terminates even while other producers keep
//! submitting. Dropping the runtime closes the plane and joins the
//! dispatcher, which always drains every ring before honoring shutdown —
//! queued launches are never lost. If the dispatcher dies (an engine bug;
//! API misuse is rejected on the producer thread before enqueue), the
//! panic is latched: producers get [`RuntimeError::DriverPanicked`] with
//! the count of launches that were queued but will never be analyzed (also
//! readable as [`PipelineMetrics::lost`]), and dropping the runtime
//! re-raises the original panic payload.

use crate::error::RuntimeError;
use crate::ring::SpscRing;
use crate::runtime::{Core, LaunchSpec};
use crate::task::TaskId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};
use viz_region::RegionForest;

/// Condvar waits are bounded so a (hypothetically) missed wakeup degrades
/// to a short poll instead of a hang — correctness never depends on
/// doorbell delivery, only progress latency does.
const WAIT_TICK: Duration = Duration::from_millis(1);

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
pub(crate) struct RingStats {
    submitted: AtomicU64,
    retired: AtomicU64,
    stalls: AtomicU64,
    stalled_ns: AtomicU64,
    max_depth: AtomicU64,
}

/// A point-in-time snapshot of one submission ring's counters.
#[derive(Copy, Clone, Debug, Default)]
pub struct RingCounters {
    /// Launches pushed into this ring.
    pub submitted: u64,
    /// Launches from this ring the dispatcher committed.
    pub retired: u64,
    /// Times this ring's producer stalled on a full ring.
    pub stalls: u64,
    /// Wall-clock nanoseconds this ring's producer spent stalled.
    pub stalled_ns: u64,
    /// High-water occupancy observed at push.
    pub max_depth: u64,
}

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
    /// Sweeps that drained more than one ring (true combining).
    multi_ring_combines: AtomicU64,
    /// Latched when the dispatcher thread panicked.
    panicked: AtomicBool,
    rings: Box<[RingStats]>,
}

impl MetricsInner {
    fn new(rings: usize) -> Self {
        MetricsInner {
            submitted: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            stalled_ns: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            combines: AtomicU64::new(0),
            combined_specs: AtomicU64::new(0),
            max_combine: AtomicU64::new(0),
            multi_ring_combines: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
            rings: (0..rings).map(|_| RingStats::default()).collect(),
        }
    }

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
    /// Launches pushed into any submission ring.
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.load(Ordering::Acquire)
    }

    /// Launches the dispatcher has drained and committed.
    pub fn retired(&self) -> u64 {
        self.inner.retired.load(Ordering::Acquire)
    }

    /// Times a producer blocked on a full ring (backpressure).
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

    /// Sweeps that drained more than one ring under one lock acquisition.
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

    /// Number of submission rings (the `submit_rings` knob).
    pub fn rings(&self) -> usize {
        self.inner.rings.len()
    }

    /// Snapshot of ring `i`'s counters.
    pub fn ring(&self, i: usize) -> RingCounters {
        let r = &self.inner.rings[i];
        RingCounters {
            submitted: r.submitted.load(Ordering::Acquire),
            retired: r.retired.load(Ordering::Acquire),
            stalls: r.stalls.load(Ordering::Acquire),
            stalled_ns: r.stalled_ns.load(Ordering::Acquire),
            max_depth: r.max_depth.load(Ordering::Acquire),
        }
    }
}

// ----------------------------------------------------------------------
// Per-context state
// ----------------------------------------------------------------------

/// Everything a producer context (and its outstanding handles) needs to
/// track its stream: per-context program-order counters and the global
/// task ids the dispatcher assigned. Handles hold an `Arc` to this, so it
/// stays valid after the context detaches and its ring slot is reused.
pub(crate) struct CtxState {
    /// Context id, recorded with every launch (fence scope).
    pub(crate) ctx: u32,
    /// Specs this context has pushed (or committed inline), in its own
    /// program order.
    pub(crate) pushed: AtomicU64,
    /// Prefix of `pushed` whose analysis has committed.
    pub(crate) committed: AtomicU64,
    /// Global [`TaskId`]s assigned to this context's launches, indexed by
    /// context-local sequence number.
    pub(crate) assigned: Mutex<Vec<TaskId>>,
}

impl CtxState {
    pub(crate) fn new(ctx: u32) -> Arc<Self> {
        Arc::new(CtxState {
            ctx,
            pushed: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            assigned: Mutex::new(Vec::new()),
        })
    }

    /// The id assigned to context-local sequence `seq`, if committed.
    pub(crate) fn try_id(&self, seq: u32) -> Option<TaskId> {
        if self.committed.load(Ordering::Acquire) > seq as u64 {
            Some(self.assigned.lock().unwrap()[seq as usize])
        } else {
            None
        }
    }

    /// Record an inline (synchronous-path) commit: id known immediately.
    pub(crate) fn record_inline(&self, id: TaskId) {
        self.assigned.lock().unwrap().push(id);
        self.pushed.fetch_add(1, Ordering::Release);
        self.committed.fetch_add(1, Ordering::Release);
    }
}

/// One submission ring plus its claim state. The `state` mutex serializes
/// claim/release against the dispatcher's per-sweep state read; the ring
/// itself is touched lock-free by exactly the claimant and the dispatcher.
struct RingSlot {
    claimed: AtomicBool,
    ring: SpscRing<LaunchSpec>,
    /// The current claimant's context state (placeholder when unclaimed).
    state: Mutex<Arc<CtxState>>,
    /// Backpressure: producers wait here for the dispatcher to pop.
    space_lock: Mutex<()>,
    space: Condvar,
}

// ----------------------------------------------------------------------
// The plane
// ----------------------------------------------------------------------

pub(crate) struct SubmitPlane {
    rings: Box<[RingSlot]>,
    /// Doorbell: producers wake the dispatcher when it advertised sleep.
    sleeping: AtomicBool,
    door_lock: Mutex<()>,
    bell: Condvar,
    /// Commit progress: drain/resolve waiters park here.
    progress_lock: Mutex<()>,
    progress: Condvar,
    shutdown: AtomicBool,
    metrics: Arc<MetricsInner>,
}

impl SubmitPlane {
    fn new(rings: usize, depth: usize) -> Self {
        let rings = rings.max(1);
        SubmitPlane {
            rings: (0..rings)
                .map(|_| RingSlot {
                    claimed: AtomicBool::new(false),
                    ring: SpscRing::new(depth.max(1)),
                    state: Mutex::new(CtxState::new(u32::MAX)),
                    space_lock: Mutex::new(()),
                    space: Condvar::new(),
                })
                .collect(),
            sleeping: AtomicBool::new(false),
            door_lock: Mutex::new(()),
            bell: Condvar::new(),
            progress_lock: Mutex::new(()),
            progress: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: Arc::new(MetricsInner::new(rings)),
        }
    }

    pub(crate) fn panic_error(&self) -> RuntimeError {
        RuntimeError::DriverPanicked {
            lost: self.metrics.lost_now(),
        }
    }

    /// Claim a free ring for `state`'s context. Serialized against other
    /// claimants and the dispatcher by each slot's state mutex.
    pub(crate) fn claim_ring(&self, state: &Arc<CtxState>) -> Result<usize, RuntimeError> {
        for (i, slot) in self.rings.iter().enumerate() {
            if slot.claimed.load(Ordering::Acquire) {
                continue;
            }
            let mut guard = slot.state.lock().unwrap();
            if slot.claimed.load(Ordering::Relaxed) {
                continue; // lost the race for this slot
            }
            *guard = Arc::clone(state);
            slot.claimed.store(true, Ordering::Release);
            return Ok(i);
        }
        Err(RuntimeError::RingsExhausted {
            rings: self.rings.len(),
        })
    }

    /// Detach a context: wait for its queued specs to commit (so the ring
    /// is empty and its stream is fully analyzed), then free the slot for
    /// the next context. Handles keep resolving through their own
    /// [`CtxState`] after release.
    pub(crate) fn release_ring(&self, index: usize) {
        let slot = &self.rings[index];
        let state = slot.state.lock().unwrap().clone();
        let want = state.pushed.load(Ordering::Acquire);
        // A dead dispatcher never commits the remainder; give up then.
        let _ = self.wait_until(|| state.committed.load(Ordering::Acquire) >= want);
        let _guard = slot.state.lock().unwrap();
        slot.claimed.store(false, Ordering::Release);
    }

    /// Push a batch into ring `index` in order, stalling per spec on a
    /// full ring (backpressure). Returns [`RuntimeError::DriverPanicked`]
    /// — with the lost-launch count — instead of blocking forever once
    /// the dispatcher has died.
    pub(crate) fn enqueue_all(
        &self,
        index: usize,
        state: &CtxState,
        specs: Vec<LaunchSpec>,
    ) -> Result<(), RuntimeError> {
        let slot = &self.rings[index];
        let stats = &self.metrics.rings[index];
        let mut stall_started: Option<Instant> = None;
        let mut result = Ok(());
        'push: for spec in specs {
            let mut item = spec;
            loop {
                if self.metrics.panicked.load(Ordering::SeqCst) {
                    result = Err(self.panic_error());
                    break 'push;
                }
                match slot.ring.try_push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        item = back;
                        stall_started.get_or_insert_with(Instant::now);
                        self.ring_doorbell();
                        let guard = slot.space_lock.lock().unwrap();
                        let _ = slot.space.wait_timeout(guard, WAIT_TICK).unwrap();
                    }
                }
            }
            state.pushed.fetch_add(1, Ordering::Release);
            let m = &self.metrics;
            let submitted = m.submitted.fetch_add(1, Ordering::AcqRel) + 1;
            stats.submitted.fetch_add(1, Ordering::AcqRel);
            observe_max(
                &stats.max_depth,
                state
                    .pushed
                    .load(Ordering::Acquire)
                    .saturating_sub(state.committed.load(Ordering::Acquire)),
            );
            observe_max(
                &m.max_depth,
                submitted.saturating_sub(m.retired.load(Ordering::Acquire)),
            );
            self.ring_doorbell();
        }
        if let Some(t0) = stall_started {
            let waited_ns = t0.elapsed().as_nanos() as u64;
            let m = &self.metrics;
            m.stalls.fetch_add(1, Ordering::AcqRel);
            m.stalled_ns.fetch_add(waited_ns, Ordering::AcqRel);
            stats.stalls.fetch_add(1, Ordering::AcqRel);
            stats.stalled_ns.fetch_add(waited_ns, Ordering::AcqRel);
            if viz_profile::enabled() {
                viz_profile::instant(viz_profile::EventKind::PipelineStall { waited_ns });
            }
        }
        result
    }

    /// Wake the dispatcher if it advertised sleep. The SeqCst fence orders
    /// the preceding ring publish before the flag read; the dispatcher's
    /// bounded wait is the backstop either way.
    fn ring_doorbell(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            let _guard = self.door_lock.lock().unwrap();
            self.bell.notify_all();
        }
    }

    /// Park until `cond` holds or the dispatcher has died.
    fn wait_until(&self, cond: impl Fn() -> bool) -> Result<(), RuntimeError> {
        if cond() {
            return Ok(());
        }
        let mut guard = self.progress_lock.lock().unwrap();
        loop {
            if cond() {
                return Ok(());
            }
            if self.metrics.panicked.load(Ordering::SeqCst) {
                return Err(self.panic_error());
            }
            let (next, _) = self.progress.wait_timeout(guard, WAIT_TICK).unwrap();
            guard = next;
        }
    }

    /// Quiesce the whole plane: everything pushed to *any* ring before
    /// this call has committed when it returns. The per-ring snapshot
    /// makes the wait condition monotone, so quiesce terminates even
    /// while other producers keep submitting concurrently.
    pub(crate) fn quiesce(&self) -> Result<(), RuntimeError> {
        let mut targets: Vec<(Arc<CtxState>, u64)> = Vec::new();
        for slot in self.rings.iter() {
            if !slot.claimed.load(Ordering::Acquire) {
                continue;
            }
            let state = slot.state.lock().unwrap().clone();
            let want = state.pushed.load(Ordering::Acquire);
            targets.push((state, want));
        }
        self.wait_until(|| {
            targets
                .iter()
                .all(|(state, want)| state.committed.load(Ordering::Acquire) >= *want)
        })
    }

    /// Wait until `state`'s commit counter covers `count` launches.
    pub(crate) fn wait_ctx_committed(
        &self,
        state: &CtxState,
        count: u64,
    ) -> Result<(), RuntimeError> {
        self.wait_until(|| state.committed.load(Ordering::Acquire) >= count)
    }

    fn has_work(&self) -> bool {
        self.rings
            .iter()
            .any(|slot| slot.claimed.load(Ordering::Acquire) && !slot.ring.is_empty())
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
            self.0.metrics.panicked.store(true, Ordering::SeqCst);
            for slot in self.0.rings.iter() {
                let _guard = slot.space_lock.lock().unwrap();
                slot.space.notify_all();
            }
            let _guard = self.0.progress_lock.lock().unwrap();
            drop(_guard);
            self.0.progress.notify_all();
        }
    }
}

/// The dispatcher loop: sweep every claimed ring, drain each fully, and
/// commit the combined batch through the shared [`Core`] under one write
/// lock. Exits when the plane is shut down *and* every ring is empty —
/// shutdown is only honored after a final drain, which is the drop-flush
/// guarantee.
fn drive(plane: &SubmitPlane, core: &RwLock<Core>, forest: &RwLock<RegionForest>) {
    let _worker = enter_worker();
    let bomb = Bomb(plane);
    let mut batches: Vec<(usize, Arc<CtxState>, Vec<LaunchSpec>)> = Vec::new();
    loop {
        let mut total = 0usize;
        for (i, slot) in plane.rings.iter().enumerate() {
            if !slot.claimed.load(Ordering::Acquire) {
                continue;
            }
            let mut specs = Vec::new();
            if slot.ring.pop_all(&mut specs) > 0 {
                // Free space first: the producer can refill this ring
                // while we analyze the batch (submission/analysis overlap).
                let guard = slot.space_lock.lock().unwrap();
                drop(guard);
                slot.space.notify_all();
                total += specs.len();
                let state = slot.state.lock().unwrap().clone();
                batches.push((i, state, specs));
            }
        }
        if total == 0 {
            if plane.shutdown.load(Ordering::SeqCst) && !plane.has_work() {
                drop(bomb);
                return;
            }
            let guard = plane.door_lock.lock().unwrap();
            plane.sleeping.store(true, Ordering::SeqCst);
            if !plane.has_work() && !plane.shutdown.load(Ordering::SeqCst) {
                let (guard, _) = plane.bell.wait_timeout(guard, WAIT_TICK).unwrap();
                drop(guard);
            }
            plane.sleeping.store(false, Ordering::SeqCst);
            continue;
        }
        let rings_in_sweep = batches.len();
        if viz_profile::enabled() {
            viz_profile::instant(viz_profile::EventKind::SubmitCombine {
                rings: rings_in_sweep as u64,
                specs: total as u64,
            });
            viz_profile::instant(viz_profile::EventKind::PipelineDepth {
                depth: total as u64,
            });
        }
        {
            // Lock order everywhere is forest before core. The forest is
            // only write-locked by `forest_mut`, which quiesces first, so
            // the dispatcher's read lock never contends with a writer
            // mid-batch. One core write-lock acquisition commits every
            // ring's sub-batch — the flat-combining step.
            let forest = forest.read().unwrap();
            let mut core = core.write().unwrap();
            for (index, state, specs) in batches.drain(..) {
                let n = specs.len() as u64;
                let ids = core.run_specs(state.ctx, specs, &forest);
                {
                    let mut assigned = state.assigned.lock().unwrap();
                    assigned.extend(ids);
                }
                state.committed.fetch_add(n, Ordering::Release);
                plane.metrics.rings[index]
                    .retired
                    .fetch_add(n, Ordering::AcqRel);
            }
        }
        let m = &plane.metrics;
        m.retired.fetch_add(total as u64, Ordering::AcqRel);
        m.combines.fetch_add(1, Ordering::AcqRel);
        m.combined_specs.fetch_add(total as u64, Ordering::AcqRel);
        observe_max(&m.max_combine, total as u64);
        if rings_in_sweep > 1 {
            m.multi_ring_combines.fetch_add(1, Ordering::AcqRel);
        }
        let guard = plane.progress_lock.lock().unwrap();
        drop(guard);
        plane.progress.notify_all();
    }
}

// ----------------------------------------------------------------------
// The facade handle
// ----------------------------------------------------------------------

/// The handle the [`crate::Runtime`] facade owns: the shared plane and the
/// dispatcher's join handle. Dropping it shuts the plane down and joins
/// the dispatcher (which drains every ring first).
pub(crate) struct Pipeline {
    pub(crate) plane: Arc<SubmitPlane>,
    driver: Option<std::thread::JoinHandle<()>>,
}

impl Pipeline {
    pub(crate) fn spawn(
        core: Arc<RwLock<Core>>,
        forest: Arc<RwLock<RegionForest>>,
        depth: usize,
        rings: usize,
    ) -> Self {
        let plane = Arc::new(SubmitPlane::new(rings, depth));
        let driver = {
            let plane = Arc::clone(&plane);
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

    /// Block until every launch submitted (to any ring) has committed.
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
        self.plane.shutdown.store(true, Ordering::SeqCst);
        self.plane.ring_doorbell();
        {
            // Nudge the doorbell even if the dispatcher was mid-transition.
            let _guard = self.plane.door_lock.lock().unwrap();
            self.plane.bell.notify_all();
        }
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

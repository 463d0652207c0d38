//! The runtime facade: region creation, task submission, deferred execution.
//!
//! The module is split by the layers the end-to-end harness reports, so
//! each `runtime.*` / `sharding.*` / `gc.*` row has an address:
//!
//! * `mod.rs` (this file) — [`Runtime`], the application-thread facade:
//!   region model access, the submission spellings ([`Runtime::submit`],
//!   [`LaunchBuilder`], fences, inline reads), trace annotations, deferred
//!   execution and introspection. Everything here is sugar over one
//!   producer and one core.
//! * `producer.rs` — the one submission path the facade and every tenant
//!   [`Context`] share: validation, then either an inline commit under the
//!   core lock (synchronous mode) or a push into the submission queue for
//!   the dispatcher (`RuntimeConfig::pipeline`, see [`crate::pipeline`]).
//! * `core.rs` — everything the analysis driver owns (visibility engine,
//!   shard map, tracing state machine, per-task bookkeeping) and the one
//!   per-launch commit. In pipelined mode it lives behind an `RwLock`
//!   shared with the dispatcher thread; in synchronous mode the same code
//!   runs on the application thread, so both modes produce byte-identical
//!   results.
//! * `batch.rs` — the sharded batch driver (`analysis_threads > 1`).
//! * `gc.rs` — history-GC scheduling.

mod batch;
mod core;
mod gc;
mod producer;

pub(crate) use self::core::Core;
pub use self::core::CoreRead;
pub use self::producer::{Context, CtxHandle};
pub use crate::config::RuntimeConfig;

use self::producer::Producer;
use crate::dag::TaskDag;
use crate::engine::{CoherenceEngine, EngineKind};
use crate::error::RuntimeError;
use crate::exec::{TimedReport, TimedSchedule, ValueStore};
use crate::ledger::RecordedHistory;
use crate::pipeline::{Pipeline, PipelineMetrics};
use crate::plan::AnalysisResult;
use crate::stats::RuntimeStats;
use crate::task::{RegionRequirement, TaskBody, TaskId, TaskLaunch};
use crate::trace::{TraceId, TraceViolation};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use viz_geometry::{FxHashMap, Point};
use viz_region::{redop::Value, FieldId, RedOpRegistry, RegionForest, RegionId};
use viz_sim::{Machine, NodeId, SimTime};

/// The context id of the [`Runtime`] facade's own submission stream.
pub const CTX_PRIMARY: u32 = 0;

/// The pseudo context id recorded on *global* fences ([`Runtime::fence`]),
/// which order after every context's launches. Scoped fences
/// ([`Context::fence`]) carry their own context id instead. Real context
/// ids are allocated from [`CTX_PRIMARY`] upward and never reach this.
pub const CTX_GLOBAL: u32 = u32::MAX;

/// One deferred launch, as data: the unit of the submission queue and of
/// [`Runtime::submit_batch`]. Construct with [`LaunchSpec::new`] or the
/// [`LaunchBuilder`] sugar (`#[non_exhaustive]`: fields may grow).
#[non_exhaustive]
pub struct LaunchSpec {
    pub name: String,
    pub node: NodeId,
    pub reqs: Vec<RegionRequirement>,
    pub duration_ns: u64,
    pub body: Option<TaskBody>,
}

impl LaunchSpec {
    pub fn new(
        name: impl Into<String>,
        node: NodeId,
        reqs: Vec<RegionRequirement>,
        duration_ns: u64,
        body: Option<TaskBody>,
    ) -> Self {
        LaunchSpec {
            name: name.into(),
            node,
            reqs,
            duration_ns,
            body,
        }
    }
}

/// A lightweight receipt for a submitted launch.
///
/// Task ids are assigned in program order, so while the [`Runtime`]
/// facade is the *only* producer (no live [`Context`]s — the common case)
/// the handle's [`TaskId`] is fixed at submission time and
/// [`TaskHandle::id`] is free and exact even while the launch is still
/// queued. Once tenant contexts submit concurrently, global ids reflect
/// the dispatcher's commit interleaving: use [`Runtime::resolve`] /
/// [`Runtime::try_resolve`], which block until the launch's analysis has
/// committed (dependences, plan, and simulated clocks are final) and
/// return the id actually assigned.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TaskHandle {
    seq: u32,
}

impl TaskHandle {
    /// The task id this submission was (or will be) assigned, assuming
    /// the facade is the runtime's only producer (exact whenever no
    /// [`Context`] has been created; otherwise prefer
    /// [`Runtime::resolve`]).
    pub fn id(self) -> TaskId {
        TaskId(self.seq)
    }

    pub fn index(self) -> usize {
        self.seq as usize
    }
}

type InitFn = Arc<dyn Fn(Point) -> Value + Send + Sync>;

/// A Legion-style runtime: submissions are analyzed eagerly (the dynamic
/// dependence/coherence analysis is the subject of the paper) — either
/// inline on the calling thread, or concurrently on a pipeline driver
/// thread when [`RuntimeConfig::pipeline`] is set; execution is deferred
/// to [`Runtime::execute_values`] (real values, worker threads) or
/// [`Runtime::timed_schedule`] (simulated time at machine scale).
///
/// # Drain points
///
/// In pipelined mode, operations that must observe (or mutate) committed
/// analysis state first wait for the submission queue to drain:
/// [`Runtime::fence`], [`Runtime::try_begin_trace`] /
/// [`Runtime::try_end_trace`], [`Runtime::forest_mut`],
/// [`Runtime::execute_values`], [`Runtime::timed_schedule`],
/// [`Runtime::flush`], [`Runtime::resolve`], and every introspection
/// accessor ([`Runtime::dag`], [`Runtime::launches`],
/// [`Runtime::results`], [`Runtime::machine`], trace statistics, ...).
/// Submissions themselves ([`Runtime::submit`], [`Runtime::submit_batch`],
/// [`Runtime::inline_read`], [`LaunchBuilder::submit`]) never drain —
/// they only block on queue backpressure. Dropping a `Runtime` drains
/// too: queued launches are never lost.
pub struct Runtime {
    // Field order is drop order, and the drop order of the large members
    // (forest, core, stream state) is part of the allocation pattern the
    // harness's `peak_rss_mb` is sensitive to: keep it.
    forest: Arc<RwLock<RegionForest>>,
    redops: RedOpRegistry,
    initial: FxHashMap<(RegionId, FieldId), InitFn>,
    core: Arc<RwLock<Core>>,
    pipeline: Option<Pipeline>,
    nodes: usize,
    /// The facade's own submission stream (the plane's first producer in
    /// pipelined mode; inline commits in synchronous mode).
    primary: Producer,
    /// Next tenant context id ([`CTX_PRIMARY`] + 1 and up). Stays at its
    /// initial value iff no [`Context`] was ever created — the condition
    /// under which the facade is the only producer, program order == id
    /// order, and [`TaskHandle::id`] is exact.
    next_ctx: AtomicU32,
}

impl Runtime {
    pub fn new(config: RuntimeConfig) -> Self {
        let forest = Arc::new(RwLock::new(RegionForest::with_intern(config.intern)));
        let core = Arc::new(RwLock::new(Core::new(&config)));
        let pipeline = config.pipeline.then(|| {
            Pipeline::spawn(
                Arc::clone(&core),
                Arc::clone(&forest),
                config.pipeline_depth,
                config.submit_rings.max(2),
            )
        });
        let plane = pipeline.as_ref().map(|p| &p.plane);
        let primary = Producer::new(plane, CTX_PRIMARY, config.validate_launches);
        Runtime {
            forest,
            redops: RedOpRegistry::new(),
            initial: FxHashMap::default(),
            core,
            pipeline,
            nodes: config.nodes,
            primary,
            next_ctx: AtomicU32::new(CTX_PRIMARY + 1),
        }
    }

    /// Shorthand: single node, no DCR.
    pub fn single_node(engine: EngineKind) -> Self {
        Self::new(RuntimeConfig::new(engine))
    }

    /// A runtime with a custom engine instance (used by the ablation
    /// benches for engine variants like
    /// `EqSetEngine::warnock().without_memoization()`).
    pub fn with_engine(config: RuntimeConfig, engine: Box<dyn CoherenceEngine>) -> Self {
        let rt = Self::new(config);
        rt.core.write().unwrap().engine = engine;
        rt
    }

    /// Wait until every launch submitted before the call, by any producer,
    /// has committed (no-op in synchronous mode). Panics if the dispatcher
    /// died — accessors that need committed state cannot return it; use
    /// the fallible submission API ([`Runtime::submit`] returns
    /// [`RuntimeError::DriverPanicked`]) to observe the failure as a value.
    fn drain(&self) {
        if let Some(p) = &self.pipeline {
            if let Err(e) = p.drain() {
                panic!("{e}");
            }
        }
    }

    /// The drained core, read-locked (see [`CoreRead`] for why accessors
    /// drain first).
    fn drained(&self) -> RwLockReadGuard<'_, Core> {
        self.drain();
        self.core.read().unwrap()
    }

    // ------------------------------------------------------------------
    // Region model access
    // ------------------------------------------------------------------

    /// Read access to the region forest. Does *not* drain the pipeline:
    /// the dispatcher mutates only the per-root geometry cache, behind its
    /// own lock, so reads (subregion lookups while building the next wave,
    /// a cold `clone`) stay concurrent with analysis.
    pub fn forest(&self) -> RwLockReadGuard<'_, RegionForest> {
        self.forest.read().unwrap()
    }

    /// Region trees may be extended at any point between launches — the
    /// analyses are fully dynamic. Drains the pipeline first so already
    /// queued launches are analyzed against the forest they were
    /// submitted under.
    pub fn forest_mut(&mut self) -> RwLockWriteGuard<'_, RegionForest> {
        self.drain();
        self.forest.write().unwrap()
    }

    /// Provide initial contents for a root region's field (defaults to 0.0
    /// everywhere). Corresponds to the `[⟨read-write, A⟩]` initial history
    /// entry of §5.
    pub fn try_set_initial(
        &mut self,
        root: RegionId,
        field: FieldId,
        f: impl Fn(Point) -> Value + Send + Sync + 'static,
    ) -> Result<(), RuntimeError> {
        {
            let forest = producer::forest_read(&self.forest)?;
            if root.0 as usize >= forest.num_regions() {
                return Err(RuntimeError::UnknownRegion { region: root });
            }
            if !forest.has_field(root, field) {
                return Err(RuntimeError::UnknownField {
                    region: root,
                    field,
                });
            }
        }
        self.initial.insert((root, field), Arc::new(f));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Submission
    // ------------------------------------------------------------------

    /// Submit one launch. The spec is validated and snapshotted on the
    /// calling thread; analysis runs inline (synchronous mode) or on the
    /// pipeline dispatcher. Never drains; blocks only on queue
    /// backpressure. [`LaunchBuilder`], [`Runtime::inline_read`] and index
    /// launches are sugar over this.
    pub fn submit(&mut self, spec: LaunchSpec) -> Result<TaskHandle, RuntimeError> {
        let seqs = self
            .primary
            .submit_batch(&self.forest, &self.core, [spec])?;
        Ok(TaskHandle { seq: seqs.start })
    }

    /// Submit a batch. Validation is atomic: every spec is checked before
    /// any is enqueued, so an `Err` leaves the runtime unchanged. With
    /// `analysis_threads > 1` the batch's per-(root, field) visibility
    /// scans run concurrently on the sharded driver — byte-identical to
    /// submitting each spec in order.
    pub fn submit_batch(
        &mut self,
        specs: Vec<LaunchSpec>,
    ) -> Result<Vec<TaskHandle>, RuntimeError> {
        let seqs = self.primary.submit_batch(&self.forest, &self.core, specs)?;
        Ok(seqs.map(|seq| TaskHandle { seq }).collect())
    }

    /// Start building a launch: `rt.task("flux").on(2).read(r, f).submit()`.
    pub fn task(&mut self, name: impl Into<String>) -> LaunchBuilder<'_> {
        LaunchBuilder {
            rt: self,
            spec: LaunchSpec::new(name, 0, Vec::new(), 0, None),
        }
    }

    /// Resolve a handle at a sync point: blocks until the launch's
    /// analysis has committed, then returns the [`TaskId`] it was actually
    /// assigned. Panics if the dispatcher died or the call would
    /// self-deadlock — use [`Runtime::try_resolve`] for the fallible form.
    pub fn resolve(&self, handle: TaskHandle) -> TaskId {
        match self.try_resolve(handle) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Runtime::resolve`].
    ///
    /// Errors instead of blocking forever in two cases:
    /// [`RuntimeError::DriverPanicked`] when the dispatcher has died with
    /// the launch unanalyzed, and [`RuntimeError::WouldDeadlock`] when
    /// called from *inside* a runtime worker (the pipeline dispatcher or a
    /// value-executor task body) on a launch that has not committed yet —
    /// such a wait can never be satisfied, because the waiter is the
    /// thread that would have to make the progress.
    pub fn try_resolve(&self, handle: TaskHandle) -> Result<TaskId, RuntimeError> {
        self.primary.resolve(handle.seq)
    }

    /// Drain the submission queue: on return, every launch submitted so
    /// far has been analyzed and retired in program order. No-op in
    /// synchronous mode. Propagates a dispatcher panic, if any.
    pub fn flush(&self) {
        self.drain();
    }

    /// Metrics for the pipelined frontend (`None` in synchronous mode).
    /// The handle stays valid after the runtime is dropped — tests use it
    /// to assert the drop-flush contract.
    pub fn pipeline_metrics(&self) -> Option<PipelineMetrics> {
        self.pipeline.as_ref().map(|p| p.metrics())
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Begin a trace (dynamic tracing, \[15\]): the launches up to the
    /// matching [`Runtime::try_end_trace`] form one instance of a
    /// repetitive sequence. The second instance's committed rows become the
    /// template, and identical contiguous instances from the third onward
    /// are *replayed* without running the visibility engine. A drain point;
    /// a poisoned core lock is [`RuntimeError::Poisoned`].
    pub fn try_begin_trace(&mut self, id: u32) -> Result<(), RuntimeError> {
        self.drain();
        let book = &mut producer::core_write(&self.core)?.book;
        let next = book.ledger.next_id();
        book.tracing.begin(TraceId(id), next)
    }

    /// End the current trace instance. A replay that ran short of the
    /// template is reported (and the trace recaptures); it is not an
    /// abort. Trace misnesting (no trace open, or a different id) is a
    /// [`RuntimeError`], and so is a poisoned lock. A drain point.
    pub fn try_end_trace(&mut self, id: u32) -> Result<Option<TraceViolation>, RuntimeError> {
        self.drain();
        let forest = producer::forest_read(&self.forest)?;
        let book = &mut producer::core_write(&self.core)?.book;
        book.tracing
            .end(TraceId(id), &book.ledger, &book.dag, &forest)
    }

    /// Is the runtime currently replaying a recorded trace?
    pub fn is_replaying(&self) -> bool {
        self.drained().book.tracing.is_replaying()
    }

    /// Launches whose analysis was synthesized from a trace template.
    pub fn replayed_launches(&self) -> u64 {
        self.drained().book.tracing.replayed_launches
    }

    /// The address of the template result backing task `t`, if `t` was
    /// replayed from a trace (`None` for analyzed launches and fences).
    /// Pointer identity shows the replay path shares one allocation per
    /// template entry instead of deep-cloning the `AnalysisResult`.
    pub fn shared_result_addr(&self, t: TaskId) -> Option<usize> {
        self.drained().book.ledger.shared_result_addr(t)
    }

    /// Repeats promoted by the auto-tracer so far.
    pub fn auto_traces_detected(&self) -> u64 {
        self.drained().book.tracing.auto_promotions
    }

    /// Auto traces demoted back to normal analysis (failed speculation).
    pub fn auto_traces_demoted(&self) -> u64 {
        self.drained().book.tracing.auto_demotions
    }

    /// Every trace violation observed, in program order. Violations demote
    /// the offending trace; execution continues with normal analysis.
    pub fn trace_violations(&self) -> CoreRead<'_, [TraceViolation]> {
        self.drain();
        CoreRead::new(&self.core, |c| c.book.tracing.violations())
    }

    /// Current size of the trace rebase interval map (stays O(active
    /// templates) — see `trace.rs`).
    pub fn trace_rebase_ranges(&self) -> usize {
        self.drained().book.tracing.rebase_ranges()
    }

    /// The trace state machine, for unit tests that inspect a template.
    #[cfg(test)]
    pub(crate) fn tracing(&self) -> CoreRead<'_, crate::trace::Tracing> {
        self.drain();
        CoreRead::new(&self.core, |c| &c.book.tracing)
    }

    /// An execution fence: a no-op task ordered after *every* task launched
    /// so far (and, transitively, before everything launched later that
    /// depends on it — callers typically route post-fence work through the
    /// returned id). Legion uses fences to delimit phases that the
    /// dependence analysis should not reorder across; trace replay also
    /// relies on the same all-predecessor construction. A drain point.
    /// Panics if the core lock is poisoned.
    pub fn fence(&mut self) -> TaskId {
        self.drain();
        let seq = self.primary.submitted;
        let id = match self.primary.fence(&self.core, Core::fence) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        debug_assert!(self.next_ctx.load(Ordering::Acquire) != CTX_PRIMARY + 1 || id.0 == seq);
        id
    }

    /// An inline read of a region's current values: recorded as a read-only
    /// launch with no body; after [`Runtime::execute_values`], the
    /// materialized values are available from the store under the returned
    /// id. (Legion calls these inline mappings.) A submission, not a drain
    /// point: it observes every earlier launch through FIFO order.
    pub fn inline_read(
        &mut self,
        region: RegionId,
        field: FieldId,
    ) -> Result<TaskId, RuntimeError> {
        let h = self.submit(LaunchSpec::new(
            "inline-read",
            0,
            vec![RegionRequirement::read(region, field)],
            0,
            None,
        ))?;
        // Resolve rather than trust `TaskHandle::id`: with tenant contexts
        // interleaving, the facade's sequence is not the global id.
        self.try_resolve(h)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Execute all recorded launches with real values on worker threads,
    /// honoring the dependence DAG. Returns the store of every task's
    /// committed outputs. A drain point.
    pub fn execute_values(&self) -> ValueStore {
        self.drain();
        let forest = self.forest.read().unwrap();
        let book = &self.core.read().unwrap().book;
        let (launches, bodies, results, _) = book.ledger.full().expect(
            "execute_values replays the whole program and cannot run once \
             history GC has retired launches; disable RuntimeConfig::history_gc \
             for value execution",
        );
        crate::exec::execute_values(
            &forest,
            &self.redops,
            launches,
            bodies,
            results,
            &book.dag,
            &self.initial,
        )
    }

    /// Replay the DAG on the simulated machine: GPU execution, inter-node
    /// copies, and the coupling of execution to analysis completion times.
    /// A drain point.
    pub fn timed_schedule(&mut self) -> TimedReport {
        self.drain();
        let forest = self.forest.read().unwrap();
        let core = &mut *self.core.write().unwrap();
        let (launches, _, results, analysis_done) = core.book.ledger.full().expect(
            "timed_schedule replays the whole program and cannot run once \
             history GC has retired launches; disable RuntimeConfig::history_gc \
             for schedule simulation",
        );
        TimedSchedule::run(
            &forest,
            launches,
            results,
            &core.book.dag,
            analysis_done,
            &mut core.machine,
        )
    }

    // ------------------------------------------------------------------
    // Introspection (drain points: they observe committed analysis state)
    // ------------------------------------------------------------------

    pub fn dag(&self) -> CoreRead<'_, TaskDag> {
        self.drain();
        CoreRead::new(&self.core, |c| &c.book.dag)
    }

    /// The *retained* launches (with history GC: ids from
    /// [`RuntimeStats::watermark`] up, in order; without: all of them).
    pub fn launches(&self) -> CoreRead<'_, [TaskLaunch]> {
        self.drain();
        CoreRead::new(&self.core, |c| c.book.ledger.launches())
    }

    /// Every retained launch's analysis result, fully materialized
    /// (replayed launches get their template result with the instance
    /// shift applied). With history GC the vector starts at the watermark.
    pub fn results(&self) -> Vec<AnalysisResult> {
        let core = self.drained();
        let (ledger, dag) = (&core.book.ledger, &core.book.dag);
        let base = ledger.base();
        let results = ledger.results();
        (0..results.len())
            .map(|i| results.resolve(i, dag.preds(TaskId(base + i as u32))))
            .collect()
    }

    pub fn machine(&self) -> CoreRead<'_, Machine> {
        self.drain();
        CoreRead::new(&self.core, |c| &c.machine)
    }

    pub fn engine_name(&self) -> &'static str {
        self.core.read().unwrap().engine.name()
    }

    /// One coherent snapshot of every observable counter: engine state
    /// sizes (with the algebra roll-up), history-GC counters,
    /// DAG shape and tag footprint, trace statistics, and the submission
    /// plane. A drain point. This is the stats front door — prefer it over
    /// the historical per-subsystem accessors.
    ///
    /// Reads through a poisoned core lock: after an engine panic the
    /// counters are the one thing still worth looking at, and they are
    /// advisory — the launch that panicked is simply not counted.
    pub fn stats(&self) -> RuntimeStats {
        self.drain();
        let core = self.core.read().unwrap_or_else(PoisonError::into_inner);
        let metrics = self.pipeline_metrics();
        RuntimeStats::snapshot(&core, metrics.as_ref())
    }

    /// Number of simulated machine nodes. Constant for the runtime's
    /// lifetime, so this never drains — safe to call in submission loops.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Tasks committed so far across every producer (facade submissions,
    /// tenant-context submissions, fences, and inline reads). A drain
    /// point: queued launches are counted once the plane quiesces.
    pub fn num_tasks(&self) -> usize {
        self.drained().book.ledger.total()
    }

    /// Simulated time at which the analysis of task `t` completed. Panics
    /// if `t` was retired by history GC.
    pub fn analysis_done(&self, t: TaskId) -> SimTime {
        self.drained().book.ledger.done(t)
    }

    /// The committed launch history for the consistency oracle, read off
    /// the ledger and the DAG: every launch's requirements, context and
    /// dependence edges, in commit order. `None` once history GC has
    /// retired a launch: like [`Runtime::execute_values`], the oracle needs
    /// the whole history. A drain point: it covers every launch submitted
    /// so far.
    pub fn recorded_history(&self) -> Option<RecordedHistory> {
        let core = self.drained();
        core.book.ledger.history(&core.book.dag, core.engine.name())
    }

    // ------------------------------------------------------------------
    // Multi-producer contexts (PR 7)
    // ------------------------------------------------------------------

    /// Open an independent producer context: its own program-order counter
    /// and fence scope, sharing this runtime's engine, forest, and
    /// machine. The context is `Send` (the point: move it into a worker
    /// thread and submit concurrently with the facade and other contexts)
    /// but borrows the runtime, so every context must be dropped before
    /// the runtime can be moved or dropped.
    ///
    /// In pipelined mode the context pushes into the shared submission
    /// queue, bounded to [`RuntimeConfig::pipeline_depth`] of its own
    /// specs; with [`RuntimeConfig::submit_rings`] producers live (the
    /// facade included) this returns [`RuntimeError::RingsExhausted`]
    /// (a dropped context frees its place). In synchronous mode
    /// submissions take the core lock inline, so contexts still work —
    /// just without submission overlap.
    pub fn new_context(&self) -> Result<Context<'_>, RuntimeError> {
        let ctx = self.next_ctx.fetch_add(1, Ordering::AcqRel);
        assert!(ctx < CTX_GLOBAL, "context ids exhausted");
        let plane = self.primary.ring.as_ref();
        if let Some(plane) = plane {
            plane.join()?;
        }
        let producer = Producer::new(plane, ctx, self.primary.validate);
        Ok(Context::new(
            Arc::clone(&self.core),
            Arc::clone(&self.forest),
            producer,
        ))
    }
}

/// Builder sugar over [`Runtime::submit`]:
/// `rt.task("stencil").on(1).write(piece, f).read(halo, f).submit()`.
pub struct LaunchBuilder<'rt> {
    rt: &'rt mut Runtime,
    spec: LaunchSpec,
}

impl LaunchBuilder<'_> {
    /// Target node (default 0; wrapped modulo the machine size).
    pub fn on(mut self, node: NodeId) -> Self {
        self.spec.node = node;
        self
    }

    pub fn read(self, region: RegionId, field: FieldId) -> Self {
        self.req(RegionRequirement::read(region, field))
    }

    pub fn write(self, region: RegionId, field: FieldId) -> Self {
        self.req(RegionRequirement::read_write(region, field))
    }

    pub fn reduce(self, region: RegionId, field: FieldId, op: viz_region::ReductionOpId) -> Self {
        self.req(RegionRequirement::reduce(region, field, op))
    }

    pub fn req(mut self, req: RegionRequirement) -> Self {
        self.spec.reqs.push(req);
        self
    }

    /// Simulated task duration (for [`Runtime::timed_schedule`]).
    pub fn duration_ns(mut self, ns: u64) -> Self {
        self.spec.duration_ns = ns;
        self
    }

    /// The task body (for [`Runtime::execute_values`]).
    pub fn body(
        mut self,
        f: impl Fn(&mut [crate::PhysicalRegion]) + Send + Sync + 'static,
    ) -> Self {
        self.spec.body = Some(Arc::new(f));
        self
    }

    pub fn submit(self) -> Result<TaskHandle, RuntimeError> {
        self.rt.submit(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_explicit_spec() {
        let mut rt = Runtime::single_node(EngineKind::RayCast);
        let root = rt.forest_mut().create_root_1d("A", 10);
        let f = rt.forest_mut().add_field(root, "v");
        let h0 = rt
            .task("w")
            .write(root, f)
            .duration_ns(100)
            .submit()
            .unwrap();
        let h1 = rt.task("r").read(root, f).submit().unwrap();
        assert_eq!(rt.resolve(h1), TaskId(1));
        assert_eq!(rt.dag().preds(h1.id()), &[h0.id()]);
    }

    #[test]
    fn trace_misnesting_is_reported_not_panicked() {
        let mut rt = Runtime::single_node(EngineKind::RayCast);
        assert!(matches!(
            rt.try_end_trace(3),
            Err(RuntimeError::EndWithoutBegin { .. })
        ));
        rt.try_begin_trace(1).unwrap();
        assert!(matches!(
            rt.try_begin_trace(2),
            Err(RuntimeError::NestedTrace { .. })
        ));
        assert!(matches!(
            rt.try_end_trace(2),
            Err(RuntimeError::MismatchedTraceEnd { .. })
        ));
        // The failed end left trace 1 open and consistent.
        assert!(rt.try_end_trace(1).unwrap().is_none());
    }
}

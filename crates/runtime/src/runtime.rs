//! The runtime facade: region creation, task submission, deferred execution.
//!
//! Since PR 4 the frontend is split in two:
//!
//! * [`Runtime`] — the application-thread facade. It validates and
//!   snapshots submissions ([`Runtime::submit`], [`LaunchBuilder`]),
//!   assigns task ids in program order, and either runs the analysis
//!   inline (synchronous mode) or enqueues the launch for the pipeline
//!   driver (`RuntimeConfig::pipeline`, see [`crate::pipeline`]).
//! * [`Core`] — everything the analysis driver needs: the visibility
//!   engine, the simulated machine, the shard map, the tracing state
//!   machine, and the per-task bookkeeping. In pipelined mode it lives
//!   behind an `RwLock` shared with the driver thread; in synchronous
//!   mode the same code runs on the application thread, so both modes
//!   produce byte-identical results.

use crate::autotrace::{AutoTraceConfig, AutoTracer};
use crate::config::GcConfig;
use crate::dag::TaskDag;
use crate::engine::{AnalysisCtx, CoherenceEngine, EngineKind, GcSweep};
use crate::error::RuntimeError;
use crate::exec::{TimedReport, TimedSchedule, ValueStore};
use crate::ledger::Ledger;
use crate::pipeline::{CoreRead, CoreWrite, CtxState, Pipeline, PipelineMetrics, SubmitPlane};
use crate::plan::{AnalysisResult, StoredResult, TaskShift};
use crate::record::{HistoryRecorder, RecordedHistory};
use crate::sharding::ShardMap;
use crate::task::{RegionRequirement, TaskBody, TaskId, TaskLaunch};
use crate::trace::{TraceAction, TraceId, TraceViolation, Tracing};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use viz_geometry::{FxHashMap, Point};
use viz_region::{redop::Value, FieldId, Privilege, RedOpRegistry, RegionForest, RegionId};
use viz_sim::{CostModel, Machine, NodeId, SimTime};

/// Configuration for a [`Runtime`].
///
/// # Environment variables
///
/// Every `VIZ_*` knob parses through one module — [`crate::config`], which
/// documents the full table ([`crate::config::KNOBS`]) — so existing
/// binaries and the differential CI jobs can flip execution strategies
/// without code changes. Precedence is strict: builder setters beat the
/// environment beats the built-in default ([`RuntimeConfig::new`] applies
/// [`crate::config::EnvOverrides`] once, setters run after;
/// [`RuntimeConfig::base`] skips the environment entirely).
///
/// Marked `#[non_exhaustive]`: construct with [`RuntimeConfig::new`] and
/// the builder setters.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of simulated machine nodes.
    pub nodes: usize,
    /// Which visibility engine performs the analysis.
    pub engine: EngineKind,
    /// Dynamic control replication: shard the analysis across nodes \[4\].
    pub dcr: bool,
    /// Cost model for the simulated machine.
    pub cost: CostModel,
    /// Check the §4 requirement-aliasing rule (and region/field validity)
    /// on every submission (on by default; benchmarks at large scales may
    /// disable it).
    pub validate_launches: bool,
    /// Worker threads for the sharded analysis driver: with more than one,
    /// a batch's per-(root, field) shard scans run concurrently. Defaults
    /// from `VIZ_ANALYSIS_THREADS` (else 1 = serial).
    pub analysis_threads: usize,
    /// Online automatic trace detection: watch the launch stream for
    /// repeated subsequences and replay them without `begin_trace`
    /// annotations. `enabled` defaults from `VIZ_AUTO_TRACE`.
    pub auto_trace: AutoTraceConfig,
    /// Pipelined submission: launches are validated on the application
    /// thread, pushed into a bounded queue, and analyzed by a dedicated
    /// driver thread — application, analysis, and (simulated) execution
    /// overlap. Results are byte-identical to the synchronous path.
    /// Defaults from `VIZ_PIPELINE`.
    pub pipeline: bool,
    /// Capacity of the submission queue (backpressure bound): a full
    /// queue blocks [`Runtime::submit`] until the driver catches up.
    /// In pipelined mode every submission ring gets this depth.
    pub pipeline_depth: usize,
    /// Number of per-context SPSC submission rings in the pipelined plane
    /// (PR 7). Ring 0 is claimed by the [`Runtime`] facade itself, so up
    /// to `submit_rings - 1` tenant [`Context`]s can be live at once
    /// ([`Runtime::new_context`] returns
    /// [`RuntimeError::RingsExhausted`] past that). Defaults from
    /// `VIZ_SUBMIT_RINGS` (else 8); ignored in synchronous mode.
    pub submit_rings: usize,
    /// Interning/memoization configuration for the engine's set algebra
    /// (enabled by default; `InternConfig::disabled()` is the direct-sweep
    /// reference of the differential tests).
    pub intern: viz_geometry::InternConfig,
    /// Record the launch history (submitted requirements + emitted
    /// dependence edges + retirement order) for the external consistency
    /// oracle. Defaults from `VIZ_ORACLE`. Export with
    /// [`Runtime::recorded_history`].
    pub record_history: bool,
    /// History garbage collection (see [`GcConfig`]). Defaults from
    /// `VIZ_GC` / `VIZ_GC_INTERVAL` / `VIZ_GC_RETAIN`. With GC enabled the
    /// runtime retires per-task bookkeeping below a watermark, so whole-history
    /// operations ([`Runtime::execute_values`],
    /// [`Runtime::timed_schedule`]) panic once anything has retired —
    /// GC mode is for analysis streaming, not value execution.
    pub gc: GcConfig,
    /// Dirty-shard scanning: GC sweeps visit only the (root, field) shards
    /// touched since the last sweep, with a full sweep every
    /// [`crate::analysis::FULL_SWEEP_PERIOD`]-th collection as the
    /// watermark-retirement backstop. Behavior-preserving (the differential
    /// suite pins dirty-on == dirty-off, with `false` as its reference); on
    /// by default.
    pub dirty_shards: bool,
}

const DEFAULT_PIPELINE_DEPTH: usize = 256;
pub(crate) const DEFAULT_SUBMIT_RINGS: usize = 8;

/// The context id of the [`Runtime`] facade's own submission stream.
pub const CTX_PRIMARY: u32 = 0;

/// The pseudo context id recorded on *global* fences ([`Runtime::fence`]),
/// which order after every context's launches. Scoped fences
/// ([`Context::fence`]) carry their own context id instead. Real context
/// ids are allocated from [`CTX_PRIMARY`] upward and never reach this.
pub const CTX_GLOBAL: u32 = u32::MAX;

impl RuntimeConfig {
    /// The standard constructor: built-in defaults with the captured
    /// `VIZ_*` environment applied on top ([`crate::config::EnvOverrides`]).
    /// Builder setters run after and therefore win.
    pub fn new(engine: EngineKind) -> Self {
        crate::config::EnvOverrides::capture().apply(Self::base(engine))
    }

    /// The pure built-in defaults — the environment is *not* consulted.
    /// Hermetic tests and the config-precedence suite start here.
    pub fn base(engine: EngineKind) -> Self {
        RuntimeConfig {
            nodes: 1,
            engine,
            dcr: false,
            cost: CostModel::default(),
            validate_launches: true,
            analysis_threads: 1,
            auto_trace: AutoTraceConfig::default(),
            pipeline: false,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            submit_rings: DEFAULT_SUBMIT_RINGS,
            intern: viz_geometry::InternConfig::default(),
            record_history: false,
            gc: GcConfig::default(),
            dirty_shards: true,
        }
    }

    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    pub fn dcr(mut self, dcr: bool) -> Self {
        self.dcr = dcr;
        self
    }

    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    pub fn validate(mut self, v: bool) -> Self {
        self.validate_launches = v;
        self
    }

    // --------------------------------------------------------------
    // Execution strategy (env-var parity documented on the type)
    // --------------------------------------------------------------

    pub fn analysis_threads(mut self, n: usize) -> Self {
        self.analysis_threads = n.max(1);
        self
    }

    /// Toggle online automatic trace detection.
    pub fn auto_trace(mut self, on: bool) -> Self {
        self.auto_trace.enabled = on;
        self
    }

    /// Full auto-tracer tuning (promotion length bounds, confidence).
    /// Replaces the individual `auto_trace_*` setters.
    pub fn auto_trace_config(mut self, cfg: AutoTraceConfig) -> Self {
        self.auto_trace = cfg;
        self
    }

    /// Toggle the pipelined submission frontend.
    pub fn pipeline(mut self, on: bool) -> Self {
        self.pipeline = on;
        self
    }

    /// Submission-queue capacity (backpressure bound, min 1).
    pub fn pipeline_depth(mut self, n: usize) -> Self {
        self.pipeline_depth = n.max(1);
        self
    }

    /// Submission rings in the pipelined plane (min 2: the facade's ring
    /// plus at least one for tenant contexts).
    pub fn submit_rings(mut self, n: usize) -> Self {
        self.submit_rings = n.max(2);
        self
    }

    /// Pin the engine's interning configuration.
    pub fn intern(mut self, cfg: viz_geometry::InternConfig) -> Self {
        self.intern = cfg;
        self
    }

    /// Toggle launch-history recording for the consistency oracle.
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Toggle history garbage collection (retire per-task bookkeeping and
    /// dead engine state below the watermark).
    pub fn history_gc(mut self, on: bool) -> Self {
        self.gc.enabled = on;
        self
    }

    /// Launches between collection sweeps (min 1).
    pub fn gc_interval(mut self, n: u32) -> Self {
        self.gc.interval = n.max(1);
        self
    }

    /// Launches kept below the frontier at each sweep — the unretired
    /// window readers may still address.
    pub fn gc_retain(mut self, n: u32) -> Self {
        self.gc.retain = n;
        self
    }

    /// Pin the whole GC block at once.
    pub fn gc_config(mut self, cfg: GcConfig) -> Self {
        self.gc = cfg;
        self
    }

    /// Toggle dirty-shard scanning for GC sweeps (on by default).
    pub fn dirty_shards(mut self, on: bool) -> Self {
        self.dirty_shards = on;
        self
    }
}

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

/// Everything the analysis driver owns: engine, simulated machine, shard
/// map, tracing state machine, and the per-task bookkeeping. All mutation
/// of analysis state funnels through [`Core::run_specs`] / [`Core::fence`]
/// so the synchronous and pipelined frontends share one code path.
pub(crate) struct Core {
    pub(crate) engine: Box<dyn CoherenceEngine>,
    pub(crate) machine: Machine,
    pub(crate) shards: ShardMap,
    /// Per-task commit bookkeeping (launches, bodies, stored results,
    /// analysis-completion times) with a GC watermark.
    pub(crate) ledger: Ledger,
    pub(crate) dag: TaskDag,
    pub(crate) tracing: Tracing,
    pub(crate) analysis_threads: usize,
    /// Launch-history recording for the consistency oracle (`None` when
    /// [`RuntimeConfig::record_history`] is off — zero cost).
    pub(crate) recorder: Option<HistoryRecorder>,
    pub(crate) gc: GcState,
}

/// Collection bookkeeping: configuration plus running counters, surfaced
/// through [`crate::stats::GcStats`].
pub(crate) struct GcState {
    pub(crate) cfg: GcConfig,
    /// Next launch count at which a sweep runs. `run_specs` cuts its input
    /// here, so the check is a compare per chunk and a sweep never lands
    /// past it.
    next_due: u32,
    pub(crate) collections: u64,
    /// Sweeps whose floor was clamped by trace pinning.
    pub(crate) pins: u64,
    pub(crate) retired_launches: u64,
    pub(crate) tag_words_freed: u64,
    pub(crate) sweep: GcSweep,
}

impl GcState {
    fn new(cfg: GcConfig) -> Self {
        GcState {
            next_due: cfg.interval.max(1),
            cfg,
            collections: 0,
            pins: 0,
            retired_launches: 0,
            tag_words_freed: 0,
            sweep: GcSweep::default(),
        }
    }
}

impl Core {
    /// Analyze one launch through the serial path (the operation the paper
    /// measures). Requirements are assumed validated by the facade.
    /// `ctx` is the submitting context, recorded for the oracle.
    fn launch_one(&mut self, ctx: u32, spec: LaunchSpec, forest: &RegionForest) -> TaskId {
        let id = TaskId(self.ledger.next_id());
        let launch = TaskLaunch {
            id,
            name: spec.name,
            node: spec.node % self.shards.nodes(),
            reqs: spec.reqs,
            duration_ns: spec.duration_ns,
        };
        let origin = self.shards.origin(launch.node);
        let mut action = self.tracing.on_launch(launch.node, &launch.reqs, id.0);
        if let TraceAction::Violation(v) = action {
            // The prediction diverged: demote (annotated traces fall back
            // to normal analysis and recapture; auto traces return to
            // observation) — never abort.
            self.tracing.demote(v);
            action = self.tracing.on_launch(launch.node, &launch.reqs, id.0);
        }
        let stored = match action {
            TraceAction::Replay { result, shift } => {
                // Dynamic tracing [15]: the recorded analysis is reused —
                // only a template lookup is paid, not the visibility
                // algorithm. The shared result is *not* cloned; the
                // instance's shift is applied lazily by readers.
                self.machine.op(origin, viz_sim::Op::Memo);
                self.ledger.push_done(self.machine.now(origin));
                let deps: Vec<TaskId> = result.deps.iter().map(|d| shift.apply(*d)).collect();
                if let Some(rec) = &mut self.recorder {
                    rec.commit(
                        ctx,
                        id,
                        &launch.name,
                        launch.node,
                        &launch.reqs,
                        &deps,
                        true,
                        false,
                    );
                }
                self.dag.push(deps);
                StoredResult::Shared { result, shift }
            }
            TraceAction::Analyze { record } => {
                // First-touch ownership of analysis state.
                for req in &launch.reqs {
                    self.shards.touch(req.region, launch.node, id.0);
                }
                let engine_name = self.engine.name();
                let host_span = viz_profile::span(engine_name);
                let sim_start = self.machine.now(origin);
                let mut actx = AnalysisCtx {
                    forest,
                    machine: &mut self.machine,
                    shards: &self.shards,
                };
                let mut result = self.engine.analyze(&launch, &mut actx);
                drop(host_span);
                if viz_profile::enabled() {
                    let sim_end = self.machine.now(origin);
                    viz_profile::sim_event(
                        sim_start,
                        sim_end.saturating_sub(sim_start),
                        viz_profile::Track::SimProgram {
                            node: origin as u32,
                        },
                        viz_profile::EventKind::LaunchAnalyzed {
                            engine: engine_name,
                            task: id.0 as u64,
                        },
                    );
                }
                // Stale references into a recorded-and-replayed instance
                // move onto its latest replay.
                self.tracing.rebase_result(&mut result);
                self.ledger.push_done(self.machine.now(origin));
                if let Some(rec) = &mut self.recorder {
                    rec.commit(
                        ctx,
                        id,
                        &launch.name,
                        launch.node,
                        &launch.reqs,
                        &result.deps,
                        false,
                        false,
                    );
                }
                self.dag.push(result.deps.clone());
                if record {
                    // Capturing: the template shares the result with the
                    // runtime's own storage (identity shift) — no clone.
                    let result = Arc::new(result);
                    self.tracing.record(
                        launch.node,
                        launch.reqs.clone(),
                        Arc::clone(&result),
                        forest,
                    );
                    StoredResult::Shared {
                        result,
                        shift: TaskShift::IDENTITY,
                    }
                } else {
                    self.tracing.advance();
                    StoredResult::Owned(result)
                }
            }
            TraceAction::Violation(_) => unreachable!("demotion resolves violations"),
        };
        self.ledger.push_result(stored);
        self.ledger.push_launch(launch, spec.body);
        id
    }

    /// Run a sequence of launches, segmented between the serial path
    /// (trace warm-up/capture/replay, or `analysis_threads <= 1`) and the
    /// sharded scan pipeline — semantically identical to analyzing each
    /// spec in order; dependences, plans, simulated clocks, and counters
    /// come out byte-for-byte the same. Both the synchronous frontend and
    /// the pipeline driver call exactly this, so chunk boundaries (how
    /// many specs the driver drains per wakeup) cannot affect results —
    /// including where collections fire: with GC on, the input is cut at
    /// `gc.next_due`, so a sweep lands on a launch id that is a function of
    /// program order alone, never of how the caller batched.
    pub(crate) fn run_specs(
        &mut self,
        ctx: u32,
        items: Vec<LaunchSpec>,
        forest: &RegionForest,
    ) -> Vec<TaskId> {
        let mut ids = Vec::with_capacity(items.len());
        let mut items: VecDeque<LaunchSpec> = items.into();
        while !items.is_empty() {
            let rest = items.split_off(self.gc_room().min(items.len()));
            self.run_chunk(ctx, items, forest, &mut ids);
            items = rest;
            self.maybe_collect();
        }
        ids
    }

    /// Launches that may run before the next collection is due (unbounded
    /// with GC off).
    fn gc_room(&self) -> usize {
        if !self.gc.cfg.enabled {
            return usize::MAX;
        }
        (self.gc.next_due.saturating_sub(self.ledger.next_id()) as usize).max(1)
    }

    /// One uninterrupted run of launches (see [`Core::run_specs`]).
    fn run_chunk(
        &mut self,
        ctx: u32,
        mut items: VecDeque<LaunchSpec>,
        forest: &RegionForest,
        ids: &mut Vec<TaskId>,
    ) {
        while !items.is_empty() {
            if self.analysis_threads <= 1 || items.len() == 1 {
                for s in items.drain(..) {
                    ids.push(self.launch_one(ctx, s, forest));
                }
                break;
            }
            if self.tracing.pending_or_active() {
                // Trace segment: replay drains launches in bulk (O(1)
                // each: validate, charge the memo op, retire the shared
                // result); warm-up/capture launches analyze in order. A
                // demotion mid-segment drops back out and re-shards the
                // remainder of the batch.
                while !items.is_empty() && self.tracing.pending_or_active() {
                    let s = items.pop_front().unwrap();
                    ids.push(self.launch_one(ctx, s, forest));
                }
                continue;
            }
            ids.extend(self.run_batch_sharded(ctx, &mut items, forest));
        }
    }

    /// Run a collection sweep if the watermark interval has elapsed:
    /// reclaim dead engine state, then retire ledger entries and DAG tag
    /// rows below `next_id - retain` (clamped by trace pinning). Called
    /// after every `run_specs` chunk and every fence; chunks end at
    /// `next_due`, so the pipelined and synchronous paths collect at the
    /// same launch counts however their callers batch.
    fn maybe_collect(&mut self) {
        if !self.gc.cfg.enabled {
            return;
        }
        let next = self.ledger.next_id();
        if next < self.gc.next_due {
            return;
        }
        self.gc.next_due = next + self.gc.cfg.interval.max(1);
        self.gc.collections += 1;
        let mut floor = next.saturating_sub(self.gc.cfg.retain);
        // Tracing-aware pinning: an in-flight instance (or a pending auto
        // capture) keeps everything from its base launch alive — the
        // template's footprint survives as long as it replays.
        if let Some(pin) = self.tracing.pin_floor() {
            if pin < floor {
                self.gc.pins += 1;
                floor = pin;
            }
        }
        // Engines reclaim *unreachable* state (superseded equivalence
        // sets, dead composite chains) — reachability-based, so the sweep
        // is behavior-preserving by construction; `floor` only gates the
        // ledger and tag rows below.
        let sweep = self.engine.collect(TaskId(floor));
        self.gc.sweep += sweep;
        let mut freed_words = 0u64;
        let mut retired = 0u64;
        if floor > self.ledger.base() {
            freed_words = self.dag.retire_to(TaskId(floor)) as u64;
            retired = self.ledger.retire_to(floor) as u64;
            self.gc.tag_words_freed += freed_words;
            self.gc.retired_launches += retired;
        }
        if viz_profile::enabled() {
            let origin = self.shards.origin(0);
            viz_profile::sim_event(
                self.machine.now(origin),
                0,
                viz_profile::Track::SimProgram {
                    node: origin as u32,
                },
                viz_profile::EventKind::GcSweep {
                    watermark: self.ledger.base() as u64,
                    retired,
                    freed_words,
                    dropped: sweep.total() as u64,
                },
            );
        }
    }

    /// The sharded scan pipeline over the untraced prefix of `items`:
    /// stops early (after the detection point) when the auto-tracer
    /// promotes a repeat, leaving the rest for the caller to re-dispatch.
    fn run_batch_sharded(
        &mut self,
        ctx: u32,
        items: &mut VecDeque<LaunchSpec>,
        forest: &RegionForest,
    ) -> Vec<TaskId> {
        let base = self.ledger.next_id();
        let mut batch: Vec<TaskLaunch> = Vec::with_capacity(items.len());
        let mut batch_bodies: Vec<Option<TaskBody>> = Vec::with_capacity(items.len());
        let mut groups: Vec<Vec<(crate::analysis::ShardKey, Vec<u32>)>> =
            Vec::with_capacity(items.len());
        // Phase A (driver thread): assign ids, feed the auto-trace
        // detector, first-touch the shard map, and let the engine create
        // missing shard state. The grouping depends only on the region
        // forest, so the whole segment can be prepared before any scan
        // runs.
        while let Some(spec) = items.pop_front() {
            let launch = TaskLaunch {
                id: TaskId(base + batch.len() as u32),
                name: spec.name,
                node: spec.node % self.shards.nodes(),
                reqs: spec.reqs,
                duration_ns: spec.duration_ns,
            };
            // Outside traces this only updates detector state and returns
            // `Analyze { record: false }` — the same call the serial
            // driver makes, at the same position in the launch stream.
            match self
                .tracing
                .on_launch(launch.node, &launch.reqs, launch.id.0)
            {
                TraceAction::Analyze { record: false } => {}
                _ => unreachable!("untraced segment launches analyze without recording"),
            }
            for req in &launch.reqs {
                self.shards.touch(req.region, launch.node, launch.id.0);
            }
            groups.push(self.engine.prepare(
                &launch,
                &crate::engine::ShardCtx {
                    forest,
                    shards: &self.shards,
                },
            ));
            batch.push(launch);
            batch_bodies.push(spec.body);
            if self.tracing.capture_pending() {
                // A repeat was just detected: capture starts with the next
                // launch, which must go through the trace machinery.
                break;
            }
        }
        let count = batch.len();
        // Phase B (workers) + C (pipelined commit on this thread). Borrows
        // split per field: workers read the engine/forest/shard map; the
        // retire closure replays charges and grows the bookkeeping.
        {
            let engine: &dyn CoherenceEngine = &*self.engine;
            let shards = &self.shards;
            let machine = &mut self.machine;
            let ledger = &mut self.ledger;
            let dag = &mut self.dag;
            let tracing = &self.tracing;
            let recorder = &mut self.recorder;
            let batch_ref = &batch;
            crate::exec::scan_batch(
                engine,
                forest,
                shards,
                batch_ref,
                &groups,
                self.analysis_threads,
                |i, outcomes| {
                    // Exactly the serial per-launch charge sequence:
                    // overhead at the origin, then every scan log in
                    // requirement order, then every commit log.
                    let launch = &batch_ref[i];
                    let origin = shards.origin(launch.node);
                    let sim_start = machine.now(origin);
                    machine.op(origin, viz_sim::Op::LaunchOverhead);
                    let mut result = crate::engine::assemble_outcomes(launch, outcomes, machine);
                    if viz_profile::enabled() {
                        let sim_end = machine.now(origin);
                        viz_profile::sim_event(
                            sim_start,
                            sim_end.saturating_sub(sim_start),
                            viz_profile::Track::SimProgram {
                                node: origin as u32,
                            },
                            viz_profile::EventKind::LaunchAnalyzed {
                                engine: engine.name(),
                                task: launch.id.0 as u64,
                            },
                        );
                    }
                    tracing.rebase_result(&mut result);
                    ledger.push_done(machine.now(origin));
                    if let Some(rec) = recorder.as_mut() {
                        rec.commit(
                            ctx,
                            launch.id,
                            &launch.name,
                            launch.node,
                            &launch.reqs,
                            &result.deps,
                            false,
                            false,
                        );
                    }
                    dag.push(result.deps.clone());
                    ledger.push_result(StoredResult::Owned(result));
                },
            );
        }
        self.ledger.append_launches(&mut batch, &mut batch_bodies);
        (0..count as u32).map(|k| TaskId(base + k)).collect()
    }

    /// The global fence construction (see [`Runtime::fence`]): ordered
    /// after every launch committed so far, from every context.
    fn fence(&mut self) -> TaskId {
        let deps: Vec<TaskId> = (0..self.ledger.next_id()).map(TaskId).collect();
        self.fence_scoped(CTX_GLOBAL, deps)
    }

    /// A fence ordered after an explicit predecessor set — the scoped
    /// variant [`Context::fence`] uses with its own committed launches.
    /// `deps` must be sorted ascending (ids in commit order are).
    pub(crate) fn fence_scoped(&mut self, ctx: u32, deps: Vec<TaskId>) -> TaskId {
        // Fences are not analyzed launches: they interrupt any in-flight
        // trace instance and break detected periodicity. Scoped fences do
        // this too — conservative, but it keeps trace capture linear.
        self.tracing.barrier();
        let id = TaskId(self.ledger.next_id());
        let origin = self.shards.origin(0);
        self.machine.op(origin, viz_sim::Op::LaunchOverhead);
        self.ledger.push_done(self.machine.now(origin));
        if let Some(rec) = &mut self.recorder {
            rec.commit(ctx, id, "fence", 0, &[], &deps, false, true);
        }
        self.dag.push(deps.clone());
        self.ledger.push_result(StoredResult::Owned(AnalysisResult {
            deps,
            plans: Vec::new(),
        }));
        self.ledger.push_launch(
            TaskLaunch {
                id,
                name: "fence".into(),
                node: 0,
                reqs: Vec::new(),
                duration_ns: 0,
            },
            None,
        );
        self.maybe_collect();
        id
    }
}

/// Validate one submission against the forest: every region and field must
/// exist, and §4 requires region arguments of one task to have disjoint
/// domains unless both are read-only or both reduce with the same
/// operator.
fn validate_spec(forest: &RegionForest, reqs: &[RegionRequirement]) -> Result<(), RuntimeError> {
    for r in reqs {
        if r.region.0 as usize >= forest.num_regions() {
            return Err(RuntimeError::UnknownRegion { region: r.region });
        }
        if !forest.fields_of(r.region).contains(&r.field) {
            return Err(RuntimeError::UnknownField {
                region: r.region,
                field: r.field,
            });
        }
    }
    for (i, a) in reqs.iter().enumerate() {
        for b in &reqs[i + 1..] {
            if a.field != b.field || forest.root_of(a.region) != forest.root_of(b.region) {
                continue;
            }
            let compatible = matches!(
                (a.privilege, b.privilege),
                (Privilege::Read, Privilege::Read)
            ) || matches!(
                (a.privilege, b.privilege),
                (Privilege::Reduce(f), Privilege::Reduce(g)) if f == g
            );
            if !compatible && forest.domain(a.region).overlaps(forest.domain(b.region)) {
                return Err(RuntimeError::InterferingRequirements {
                    a: a.region,
                    b: b.region,
                    privilege_a: a.privilege,
                    privilege_b: b.privilege,
                });
            }
        }
    }
    Ok(())
}

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
    forest: Arc<RwLock<RegionForest>>,
    redops: RedOpRegistry,
    initial: FxHashMap<(RegionId, FieldId), InitFn>,
    core: Arc<RwLock<Core>>,
    pipeline: Option<Pipeline>,
    validate_launches: bool,
    nodes: usize,
    /// Task ids handed out by this facade so far (submissions + fences).
    /// While the facade is the only producer, program order == id order,
    /// which is what makes [`TaskHandle::id`] exact.
    submitted: u32,
    /// The facade's own context bookkeeping (ring 0 of the submission
    /// plane in pipelined mode; inline commits in synchronous mode).
    primary: Arc<CtxState>,
    /// Next tenant context id ([`CTX_PRIMARY`] + 1 and up). Stays at its
    /// initial value iff no [`Context`] was ever created — the condition
    /// under which facade handles resolve to their submission sequence.
    next_ctx: AtomicU32,
}

impl Runtime {
    pub fn new(config: RuntimeConfig) -> Self {
        let forest = Arc::new(RwLock::new(RegionForest::new()));
        let mut engine = config.engine.build_with(config.intern);
        engine.set_dirty_tracking(config.dirty_shards);
        let core = Arc::new(RwLock::new(Core {
            engine,
            machine: Machine::with_cost(config.nodes, config.cost),
            shards: ShardMap::new(config.nodes, config.dcr),
            ledger: Ledger::new(),
            dag: TaskDag::new(),
            tracing: Tracing::new(
                config
                    .auto_trace
                    .enabled
                    .then(|| AutoTracer::new(&config.auto_trace)),
            ),
            analysis_threads: config.analysis_threads,
            recorder: config.record_history.then(HistoryRecorder::new),
            gc: GcState::new(config.gc),
        }));
        let pipeline = config.pipeline.then(|| {
            Pipeline::spawn(
                Arc::clone(&core),
                Arc::clone(&forest),
                config.pipeline_depth,
                config.submit_rings.max(2),
            )
        });
        let primary = pipeline
            .as_ref()
            .map(|p| Arc::clone(p.primary()))
            .unwrap_or_else(|| CtxState::new(CTX_PRIMARY));
        Runtime {
            forest,
            redops: RedOpRegistry::new(),
            initial: FxHashMap::default(),
            core,
            pipeline,
            validate_launches: config.validate_launches,
            nodes: config.nodes,
            submitted: 0,
            primary,
            next_ctx: AtomicU32::new(CTX_PRIMARY + 1),
        }
    }

    /// Shorthand: single node, no DCR.
    pub fn single_node(engine: EngineKind) -> Self {
        Self::new(RuntimeConfig::new(engine))
    }

    /// A runtime with a custom engine instance (used by the ablation
    /// benches for engine variants like `Warnock::without_memoization`).
    pub fn with_engine(config: RuntimeConfig, engine: Box<dyn CoherenceEngine>) -> Self {
        let rt = Self::new(config);
        rt.core.write().unwrap().engine = engine;
        rt
    }

    /// Wait until every submission ring has fully drained (no-op in
    /// synchronous mode). Panics if the dispatcher died — accessors that
    /// need committed state cannot return it; use the fallible submission
    /// API ([`Runtime::submit`] returns
    /// [`RuntimeError::DriverPanicked`]) to observe the failure as a value.
    fn drain(&self) {
        if let Some(p) = &self.pipeline {
            if let Err(e) = p.drain() {
                panic!("{e}");
            }
        }
    }

    /// Has any [`Context`] ever been created? (If not, facade handles map
    /// to their submission sequence and `debug_assert`s pin that.)
    fn multi_producer(&self) -> bool {
        self.next_ctx.load(Ordering::Acquire) != CTX_PRIMARY + 1
    }

    /// Forest read access for the submit path: a poisoned lock (a panic on
    /// the driver or a worker) becomes a typed error instead of a second
    /// panic on the application thread.
    fn forest_read(&self) -> Result<RwLockReadGuard<'_, RegionForest>, RuntimeError> {
        self.forest.read().map_err(|_| RuntimeError::Poisoned {
            what: "region forest",
        })
    }

    /// Core write access for the commit path, same poisoning contract.
    fn core_write(&self) -> Result<RwLockWriteGuard<'_, Core>, RuntimeError> {
        self.core
            .write()
            .map_err(|_| RuntimeError::Poisoned { what: "core" })
    }

    // ------------------------------------------------------------------
    // Region model access
    // ------------------------------------------------------------------

    /// Read access to the region forest. Does *not* drain the pipeline:
    /// the driver never mutates the forest, so reads (subregion lookups
    /// while building the next wave) stay concurrent with analysis.
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

    pub fn redops(&self) -> &RedOpRegistry {
        &self.redops
    }

    pub fn redops_mut(&mut self) -> &mut RedOpRegistry {
        &mut self.redops
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
            let forest = self.forest_read()?;
            if root.0 as usize >= forest.num_regions() {
                return Err(RuntimeError::UnknownRegion { region: root });
            }
            if !forest.fields_of(root).contains(&field) {
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

    /// Submit one launch: the single entry point every other submission
    /// spelling ([`Runtime::submit_batch`], [`LaunchBuilder`],
    /// [`Runtime::inline_read`], index launches) is sugar over. The spec
    /// is validated and snapshotted on the calling thread; analysis runs
    /// inline (synchronous mode) or on the pipeline driver. Never drains;
    /// blocks only on queue backpressure.
    pub fn submit(&mut self, spec: LaunchSpec) -> Result<TaskHandle, RuntimeError> {
        if self.validate_launches {
            let forest = self.forest_read()?;
            validate_spec(&forest, &spec.reqs)?;
        }
        let seq = self.submitted;
        match &self.pipeline {
            Some(p) => p.enqueue(spec)?,
            None => {
                let forest = self.forest_read()?;
                // Single-item run_specs rather than launch_one directly so the
                // GC hook at the end of run_specs covers every launch path.
                let ids = self
                    .core_write()?
                    .run_specs(CTX_PRIMARY, vec![spec], &forest);
                let id = ids[0];
                self.primary.record_inline(id);
                debug_assert!(self.multi_producer() || id.0 == seq);
            }
        }
        self.submitted = seq + 1;
        Ok(TaskHandle { seq })
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
        if self.validate_launches {
            let forest = self.forest_read()?;
            for s in &specs {
                validate_spec(&forest, &s.reqs)?;
            }
        }
        let base = self.submitted;
        let n = specs.len() as u32;
        match &self.pipeline {
            Some(p) => p.enqueue_all(specs)?,
            None => {
                let forest = self.forest_read()?;
                let ids = self.core_write()?.run_specs(CTX_PRIMARY, specs, &forest);
                for id in ids {
                    self.primary.record_inline(id);
                }
            }
        }
        self.submitted = base + n;
        Ok((0..n).map(|k| TaskHandle { seq: base + k }).collect())
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
    /// thread that would have to make the progress (the executor holds the
    /// core read lock the dispatcher needs for the rest of the run).
    pub fn try_resolve(&self, handle: TaskHandle) -> Result<TaskId, RuntimeError> {
        if let Some(id) = self.primary.try_id(handle.seq) {
            return Ok(id);
        }
        if crate::pipeline::in_worker() {
            return Err(RuntimeError::WouldDeadlock);
        }
        match &self.pipeline {
            Some(p) => {
                p.wait_committed(handle.seq as u64 + 1)?;
                Ok(self
                    .primary
                    .try_id(handle.seq)
                    .expect("committed launches have assigned ids"))
            }
            // Synchronous mode commits inline, so an unknown seq can only
            // be a handle that was never issued by this runtime.
            None => panic!("resolve of a handle this runtime never issued"),
        }
    }

    /// Drain the submission queue: on return, every launch submitted so
    /// far has been analyzed and retired in program order. No-op in
    /// synchronous mode. Propagates a driver panic, if any.
    pub fn flush(&self) {
        self.drain();
    }

    /// Metrics for the pipelined frontend (`None` in synchronous mode).
    /// The handle stays valid after the runtime is dropped — tests use it
    /// to assert the drop-flush contract.
    pub fn pipeline_metrics(&self) -> Option<PipelineMetrics> {
        self.pipeline.as_ref().map(|p| p.metrics())
    }

    /// Is the pipelined frontend active?
    pub fn pipelined(&self) -> bool {
        self.pipeline.is_some()
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Begin a trace (dynamic tracing, \[15\]): the launches up to the
    /// matching [`Runtime::try_end_trace`] form one instance of a
    /// repetitive sequence. The first instance warms the analysis up, the
    /// second is recorded, and identical contiguous instances from the
    /// third onward are *replayed* without running the visibility engine.
    /// A drain point: queued launches commit before the marker is placed.
    pub fn try_begin_trace(&mut self, id: u32) -> Result<(), RuntimeError> {
        self.drain();
        let mut core = self.core.write().unwrap();
        let next = core.ledger.next_id();
        core.tracing.begin(TraceId(id), next)
    }

    /// End the current trace instance. A replay that ran short of the
    /// recorded instance is reported (and the trace recaptures); it is
    /// not an abort. Trace misnesting (no trace open, or a different id)
    /// is a [`RuntimeError`]. A drain point.
    pub fn try_end_trace(&mut self, id: u32) -> Result<Option<TraceViolation>, RuntimeError> {
        self.drain();
        let forest = self.forest.read().unwrap();
        let mut core = self.core.write().unwrap();
        let next = core.ledger.next_id();
        core.tracing.end(TraceId(id), next, &forest)
    }

    /// Is the runtime currently replaying a recorded trace?
    pub fn is_replaying(&self) -> bool {
        self.drain();
        self.core.read().unwrap().tracing.is_replaying()
    }

    /// Inside a trace (manual or auto, any phase: warming, capturing, or
    /// replaying)?
    pub fn in_trace(&self) -> bool {
        self.drain();
        self.core.read().unwrap().tracing.in_trace()
    }

    /// Launches whose analysis was synthesized from a trace template.
    pub fn replayed_launches(&self) -> u64 {
        self.drain();
        self.core.read().unwrap().tracing.replayed_launches
    }

    /// The address of the shared template result backing task `t`, if `t`
    /// was captured into or replayed from a trace (`None` for ordinary
    /// analyzed launches). Benchmarks use pointer identity to prove the
    /// replay path shares one allocation per template entry instead of
    /// deep-cloning the `AnalysisResult`.
    pub fn shared_result_addr(&self, t: TaskId) -> Option<usize> {
        self.drain();
        match self.core.read().unwrap().ledger.result(t) {
            StoredResult::Shared { result, .. } => Some(Arc::as_ptr(result) as usize),
            StoredResult::Owned(_) => None,
        }
    }

    /// Repeats promoted by the auto-tracer so far.
    pub fn auto_traces_detected(&self) -> u64 {
        self.drain();
        self.core.read().unwrap().tracing.auto_promotions
    }

    /// Auto traces demoted back to normal analysis (failed speculation).
    pub fn auto_traces_demoted(&self) -> u64 {
        self.drain();
        self.core.read().unwrap().tracing.auto_demotions
    }

    /// Every trace violation observed, in program order. Violations demote
    /// the offending trace; execution continues with normal analysis.
    pub fn trace_violations(&self) -> CoreRead<'_, [TraceViolation]> {
        self.drain();
        CoreRead::new(&self.core, |c| c.tracing.violations())
    }

    /// Current size of the trace rebase interval map (stays O(active
    /// templates) — see `trace.rs`).
    pub fn trace_rebase_ranges(&self) -> usize {
        self.drain();
        self.core.read().unwrap().tracing.rebase_ranges()
    }

    /// An execution fence: a no-op task ordered after *every* task launched
    /// so far (and, transitively, before everything launched later that
    /// depends on it — callers typically route post-fence work through the
    /// returned id). Legion uses fences to delimit phases that the
    /// dependence analysis should not reorder across; trace replay also
    /// relies on the same all-predecessor construction. A drain point.
    pub fn fence(&mut self) -> TaskId {
        self.drain();
        let id = self.core.write().unwrap().fence();
        self.primary.record_inline(id);
        debug_assert!(self.multi_producer() || id.0 == self.submitted);
        self.submitted += 1;
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
        let core = self.core.read().unwrap();
        let (launches, bodies, results, _) = core.ledger.full().expect(
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
            &core.dag,
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
        let (launches, _, results, analysis_done) = core.ledger.full().expect(
            "timed_schedule replays the whole program and cannot run once \
             history GC has retired launches; disable RuntimeConfig::history_gc \
             for schedule simulation",
        );
        TimedSchedule::run(
            &forest,
            launches,
            results,
            &core.dag,
            analysis_done,
            &mut core.machine,
        )
    }

    // ------------------------------------------------------------------
    // Introspection (drain points: they observe committed analysis state)
    // ------------------------------------------------------------------

    pub fn dag(&self) -> CoreRead<'_, TaskDag> {
        self.drain();
        CoreRead::new(&self.core, |c| &c.dag)
    }

    /// The *retained* launches (with history GC: ids
    /// [`Runtime::retired_watermark`]`..` in order; without: all of them).
    pub fn launches(&self) -> CoreRead<'_, [TaskLaunch]> {
        self.drain();
        CoreRead::new(&self.core, |c| c.ledger.launches())
    }

    /// Every retained launch's analysis result, fully materialized
    /// (replayed launches get their template result with the instance
    /// shift applied). With history GC the vector starts at the watermark.
    pub fn results(&self) -> Vec<AnalysisResult> {
        self.drain();
        let core = self.core.read().unwrap();
        core.ledger
            .results()
            .iter()
            .map(StoredResult::resolve)
            .collect()
    }

    /// One launch's analysis result, materialized. Panics if `t` was
    /// retired by history GC.
    pub fn result(&self, t: TaskId) -> AnalysisResult {
        self.drain();
        self.core.read().unwrap().ledger.result(t).resolve()
    }

    pub fn machine(&self) -> CoreRead<'_, Machine> {
        self.drain();
        CoreRead::new(&self.core, |c| &c.machine)
    }

    pub fn machine_mut(&mut self) -> CoreWrite<'_, Machine> {
        self.drain();
        CoreWrite::new(&self.core, |c| &c.machine, |c| &mut c.machine)
    }

    pub fn engine_name(&self) -> &'static str {
        self.core.read().unwrap().engine.name()
    }

    /// One coherent snapshot of every observable counter: engine state
    /// sizes (with the algebra roll-up), history-GC counters,
    /// DAG shape and tag footprint, trace statistics, and the submission
    /// plane. A drain point. This is the stats front door — prefer it over
    /// the historical per-subsystem accessors.
    pub fn stats(&self) -> crate::stats::RuntimeStats {
        self.drain();
        let core = self.core.read().unwrap();
        let gc = &core.gc;
        crate::stats::RuntimeStats {
            engine: core.engine.name(),
            tasks: core.ledger.total() as u64,
            retained: core.ledger.retained() as u64,
            watermark: core.ledger.base(),
            state: core.engine.state_size(),
            gc: crate::stats::GcStats {
                enabled: gc.cfg.enabled,
                collections: gc.collections,
                pins: gc.pins,
                retired_launches: gc.retired_launches,
                tag_words_freed: gc.tag_words_freed,
                history_entries: gc.sweep.history_entries as u64,
                equivalence_sets: gc.sweep.equivalence_sets as u64,
                composite_views: gc.sweep.composite_views as u64,
                index_nodes: gc.sweep.index_nodes as u64,
                memo_entries: gc.sweep.memo_entries as u64,
            },
            dag: crate::stats::DagStats {
                tasks: core.dag.len() as u64,
                edges: core.dag.edge_count() as u64,
                tag_words: core.dag.tag_words() as u64,
                retired_floor: core.dag.retired_floor(),
            },
            tracing: crate::stats::TracingStats {
                replayed_launches: core.tracing.replayed_launches,
                auto_promotions: core.tracing.auto_promotions,
                auto_demotions: core.tracing.auto_demotions,
                violations: core.tracing.violations().len() as u64,
                rebase_ranges: core.tracing.rebase_ranges() as u64,
            },
            pipeline: self
                .pipeline
                .as_ref()
                .map(|p| crate::stats::PipelineStats::snapshot(&p.metrics())),
        }
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
        self.drain();
        self.core.read().unwrap().ledger.total()
    }

    /// The history-GC watermark: every task id below it has been retired
    /// (0 when GC is off or nothing has been collected yet). A drain
    /// point.
    pub fn retired_watermark(&self) -> u32 {
        self.drain();
        self.core.read().unwrap().ledger.base()
    }

    /// Simulated time at which the analysis of task `t` completed. Panics
    /// if `t` was retired by history GC.
    pub fn analysis_done(&self, t: TaskId) -> SimTime {
        self.drain();
        self.core.read().unwrap().ledger.done(t)
    }

    /// Snapshot the recorded launch history for the consistency oracle
    /// (`None` unless [`RuntimeConfig::record_history`] / `VIZ_ORACLE` was
    /// set). A drain point: the snapshot covers every launch submitted so
    /// far, in commit order.
    pub fn recorded_history(&self) -> Option<RecordedHistory> {
        self.drain();
        let core = self.core.read().unwrap();
        let engine = core.engine.name();
        core.recorder.as_ref().map(|r| r.snapshot(engine))
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
    /// In pipelined mode the context claims a private SPSC submission
    /// ring; with all [`RuntimeConfig::submit_rings`] rings claimed this
    /// returns [`RuntimeError::RingsExhausted`] (rings are recycled when
    /// contexts drop). In synchronous mode submissions take the core lock
    /// inline, so contexts still work — just without submission overlap.
    pub fn new_context(&self) -> Result<Context<'_>, RuntimeError> {
        let ctx = self.next_ctx.fetch_add(1, Ordering::AcqRel);
        assert!(ctx < CTX_GLOBAL, "context ids exhausted");
        let state = CtxState::new(ctx);
        let ring = match &self.pipeline {
            Some(p) => {
                let plane = Arc::clone(p.plane());
                let index = plane.claim_ring(&state)?;
                Some((plane, index))
            }
            None => None,
        };
        Ok(Context {
            core: Arc::clone(&self.core),
            forest: Arc::clone(&self.forest),
            state,
            ring,
            validate: self.validate_launches,
            submitted: 0,
            _rt: PhantomData,
        })
    }
}

/// An independent producer stream over a shared [`Runtime`] (PR 7):
/// tenant contexts submit concurrently from their own threads, each with
/// its own program-order counter and fence scope. Created by
/// [`Runtime::new_context`]; dropping a context quiesces its stream and
/// recycles its submission ring.
///
/// Submissions return [`CtxHandle`]s, which resolve to the global
/// [`TaskId`] the combining dispatcher assigned (ids interleave across
/// contexts in commit order). [`Context::fence`] is a *scoped* fence:
/// ordered after everything this context submitted, but not after other
/// contexts' concurrent launches — use [`Runtime::fence`] for a global
/// barrier.
pub struct Context<'rt> {
    core: Arc<RwLock<Core>>,
    forest: Arc<RwLock<RegionForest>>,
    state: Arc<CtxState>,
    ring: Option<(Arc<SubmitPlane>, usize)>,
    validate: bool,
    /// Context-local sequence numbers handed out (submissions + fences).
    submitted: u32,
    /// Ties the context's lifetime to the runtime borrow without
    /// requiring anything of the runtime's own auto traits.
    _rt: PhantomData<&'rt ()>,
}

impl Context<'_> {
    /// This context's id, as recorded in launch histories.
    pub fn ctx_id(&self) -> u32 {
        self.state.ctx
    }

    /// Submissions + fences issued through this context so far.
    pub fn num_tasks(&self) -> usize {
        self.submitted as usize
    }

    /// Submit one launch on this context's stream. Validated on the
    /// calling thread; analyzed by the dispatcher (pipelined) or inline
    /// under the core lock (synchronous). Blocks only on this context's
    /// ring backpressure — never on other producers.
    pub fn submit(&mut self, spec: LaunchSpec) -> Result<CtxHandle, RuntimeError> {
        self.submit_batch(vec![spec]).map(|mut v| v.pop().unwrap())
    }

    /// Submit a batch in order on this context's stream. Validation is
    /// atomic, as in [`Runtime::submit_batch`].
    pub fn submit_batch(&mut self, specs: Vec<LaunchSpec>) -> Result<Vec<CtxHandle>, RuntimeError> {
        if self.validate {
            let forest = self.forest.read().map_err(|_| RuntimeError::Poisoned {
                what: "region forest",
            })?;
            for s in &specs {
                validate_spec(&forest, &s.reqs)?;
            }
        }
        let base = self.submitted;
        let n = specs.len() as u32;
        match &self.ring {
            Some((plane, index)) => plane.enqueue_all(*index, &self.state, specs)?,
            None => {
                let forest = self.forest.read().map_err(|_| RuntimeError::Poisoned {
                    what: "region forest",
                })?;
                let ids = {
                    let mut core = self
                        .core
                        .write()
                        .map_err(|_| RuntimeError::Poisoned { what: "core" })?;
                    core.run_specs(self.state.ctx, specs, &forest)
                };
                for id in ids {
                    self.state.record_inline(id);
                }
            }
        }
        self.submitted = base + n;
        Ok((0..n)
            .map(|k| CtxHandle {
                seq: base + k,
                state: Arc::clone(&self.state),
                plane: self.ring.as_ref().map(|(p, _)| Arc::clone(p)),
            })
            .collect())
    }

    /// A *scoped* execution fence: ordered after every launch this context
    /// has submitted (quiescing the context's own stream first), but not
    /// after other contexts' concurrent launches. Committed inline, so the
    /// returned [`TaskId`] is final.
    pub fn fence(&mut self) -> Result<TaskId, RuntimeError> {
        self.flush()?;
        let deps = self.state.assigned.lock().unwrap().clone();
        let id = {
            let mut core = self
                .core
                .write()
                .map_err(|_| RuntimeError::Poisoned { what: "core" })?;
            core.fence_scoped(self.state.ctx, deps)
        };
        self.state.record_inline(id);
        self.submitted += 1;
        Ok(id)
    }

    /// Wait until everything this context submitted has committed
    /// (pipelined mode; synchronous commits are already inline).
    pub fn flush(&self) -> Result<(), RuntimeError> {
        if let Some((plane, _)) = &self.ring {
            let want = self.state.pushed.load(Ordering::Acquire);
            plane.wait_ctx_committed(&self.state, want)?;
        }
        Ok(())
    }
}

impl Drop for Context<'_> {
    fn drop(&mut self) {
        if let Some((plane, index)) = self.ring.take() {
            // Quiesces this context's stream (its queued launches are
            // never lost), then frees the ring for the next context.
            plane.release_ring(index);
        }
    }
}

/// Receipt for a launch submitted through a [`Context`]. Unlike
/// [`TaskHandle`], the global [`TaskId`] is *not* known at submission
/// time — ids interleave across concurrent producers in commit order —
/// so the handle carries its context's bookkeeping and resolves through
/// it. `Clone`able and `Send`; outlives its context.
#[derive(Clone)]
pub struct CtxHandle {
    seq: u32,
    state: Arc<CtxState>,
    plane: Option<Arc<SubmitPlane>>,
}

impl CtxHandle {
    /// Position in the owning context's program order.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// The assigned [`TaskId`], if this launch's analysis has committed
    /// (never blocks).
    pub fn try_id(&self) -> Option<TaskId> {
        self.state.try_id(self.seq)
    }

    /// Block until this launch's analysis commits and return its global
    /// [`TaskId`]. Fails with [`RuntimeError::DriverPanicked`] if the
    /// dispatcher died first, and with [`RuntimeError::WouldDeadlock`]
    /// when called from inside a runtime worker on an uncommitted launch
    /// (see [`Runtime::try_resolve`]).
    pub fn resolve(&self) -> Result<TaskId, RuntimeError> {
        if let Some(id) = self.state.try_id(self.seq) {
            return Ok(id);
        }
        if crate::pipeline::in_worker() {
            return Err(RuntimeError::WouldDeadlock);
        }
        match &self.plane {
            Some(plane) => {
                plane.wait_ctx_committed(&self.state, self.seq as u64 + 1)?;
                Ok(self
                    .state
                    .try_id(self.seq)
                    .expect("committed launches have assigned ids"))
            }
            None => panic!("synchronous contexts commit inline"),
        }
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
    fn launch_records_analysis_and_dag() {
        let mut rt = Runtime::single_node(EngineKind::PaintNaive);
        let root = rt.forest_mut().create_root_1d("A", 10);
        let f = rt.forest_mut().add_field(root, "v");
        let t0 = rt
            .submit(LaunchSpec::new(
                "w",
                0,
                vec![RegionRequirement::read_write(root, f)],
                100,
                None,
            ))
            .unwrap()
            .id();
        let t1 = rt
            .submit(LaunchSpec::new(
                "r",
                0,
                vec![RegionRequirement::read(root, f)],
                100,
                None,
            ))
            .unwrap()
            .id();
        assert_eq!(rt.num_tasks(), 2);
        assert_eq!(rt.dag().preds(t1), &[t0]);
        assert!(rt.analysis_done(t1) >= rt.analysis_done(t0));
    }

    #[test]
    fn aliasing_requirements_with_interference_rejected() {
        let mut rt = Runtime::single_node(EngineKind::PaintNaive);
        let root = rt.forest_mut().create_root_1d("A", 10);
        let f = rt.forest_mut().add_field(root, "v");
        let err = rt
            .submit(LaunchSpec::new(
                "bad",
                0,
                vec![
                    RegionRequirement::read_write(root, f),
                    RegionRequirement::read(root, f),
                ],
                0,
                None,
            ))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InterferingRequirements { .. }));
        assert!(err.to_string().contains("alias with interfering"));
    }

    #[test]
    fn aliasing_reads_are_allowed() {
        let mut rt = Runtime::single_node(EngineKind::PaintNaive);
        let root = rt.forest_mut().create_root_1d("A", 10);
        let f = rt.forest_mut().add_field(root, "v");
        rt.submit(LaunchSpec::new(
            "ok",
            0,
            vec![
                RegionRequirement::read(root, f),
                RegionRequirement::read(root, f),
            ],
            0,
            None,
        ))
        .unwrap();
    }

    #[test]
    fn aliasing_same_op_reductions_are_allowed() {
        let mut rt = Runtime::single_node(EngineKind::PaintNaive);
        let root = rt.forest_mut().create_root_1d("A", 10);
        let f = rt.forest_mut().add_field(root, "v");
        rt.submit(LaunchSpec::new(
            "ok",
            0,
            vec![
                RegionRequirement::reduce(root, f, RedOpRegistry::SUM),
                RegionRequirement::reduce(root, f, RedOpRegistry::SUM),
            ],
            0,
            None,
        ))
        .unwrap();
    }

    #[test]
    fn recorded_history_captures_reqs_deps_and_fences() {
        let cfg = RuntimeConfig::new(EngineKind::PaintNaive).record_history(true);
        let mut rt = Runtime::new(cfg);
        let root = rt.forest_mut().create_root_1d("A", 10);
        let f = rt.forest_mut().add_field(root, "v");
        let t0 = rt.task("w").write(root, f).submit().unwrap().id();
        let t1 = rt.task("r").read(root, f).submit().unwrap().id();
        let fence = rt.fence();
        let h = rt.recorded_history().expect("recording enabled");
        assert_eq!(h.len(), 3);
        assert_eq!(h.retirement, vec![t0, t1, fence]);
        assert_eq!(h.launches[1].deps, vec![t0]);
        assert!(h.launches[2].fence);
        assert_eq!(h.launches[2].deps, vec![t0, t1]);
        assert!(!h.launches[1].replayed);
        // Off by default: no recorder, no history.
        let rt2 = Runtime::single_node(EngineKind::PaintNaive);
        assert!(rt2.recorded_history().is_none());
    }

    #[test]
    fn submit_rejects_unknown_region_and_field() {
        let mut rt = Runtime::single_node(EngineKind::PaintNaive);
        let root = rt.forest_mut().create_root_1d("A", 10);
        let f = rt.forest_mut().add_field(root, "v");
        let bogus_region = RegionId(999);
        let err = rt
            .submit(LaunchSpec::new(
                "bad",
                0,
                vec![RegionRequirement::read(bogus_region, f)],
                0,
                None,
            ))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownRegion { .. }));
        let bogus_field = FieldId(999);
        let err = rt
            .submit(LaunchSpec::new(
                "bad",
                0,
                vec![RegionRequirement::read(root, bogus_field)],
                0,
                None,
            ))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownField { .. }));
        // Failed submissions consume no task id.
        assert_eq!(rt.num_tasks(), 0);
    }

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

    /// Satellite 3 (PR 7): a blocking resolve from inside a runtime worker
    /// (dispatcher or executor) on an uncommitted handle would wait on the
    /// very thread that is supposed to commit it. Wedging the dispatcher by
    /// holding the core write lock makes the race deterministic.
    #[test]
    fn reentrant_resolve_reports_would_deadlock() {
        let mut rt = Runtime::new(RuntimeConfig::new(EngineKind::RayCast).pipeline(true));
        let root = rt.forest_mut().create_root_1d("A", 16);
        let f = rt.forest_mut().add_field(root, "v");
        let core = Arc::clone(&rt.core);
        let gate = core.write().unwrap();
        let h = rt
            .submit(LaunchSpec::new(
                "w",
                0,
                vec![RegionRequirement::read_write(root, f)],
                0,
                None,
            ))
            .unwrap();
        {
            let _worker = crate::pipeline::enter_worker();
            let err = rt.try_resolve(h).unwrap_err();
            assert!(matches!(err, RuntimeError::WouldDeadlock));
            assert!(err.to_string().contains("self-deadlock"));
        }
        drop(gate);
        // Off the worker path the same resolve blocks and succeeds...
        assert_eq!(rt.resolve(h), TaskId(0));
        // ...and a *committed* handle resolves even inside a worker (the
        // fast path never blocks).
        let _worker = crate::pipeline::enter_worker();
        assert_eq!(rt.try_resolve(h).unwrap(), TaskId(0));
    }

    /// With the dispatcher wedged, pushes from two rings pile up and the
    /// release sweep must drain both under one core-lock acquisition.
    #[test]
    fn wedged_dispatcher_release_is_one_combined_sweep() {
        let mut rt = Runtime::new(
            RuntimeConfig::new(EngineKind::RayCast)
                .pipeline(true)
                .submit_rings(2),
        );
        let root_a = rt.forest_mut().create_root_1d("A", 16);
        let fa = rt.forest_mut().add_field(root_a, "v");
        let root_b = rt.forest_mut().create_root_1d("B", 16);
        let fb = rt.forest_mut().add_field(root_b, "v");
        let metrics = rt.pipeline_metrics().unwrap();
        let core = Arc::clone(&rt.core);
        let gate = core.write().unwrap();
        // Primary ring: two facade launches. Tenant ring: two more.
        for _ in 0..2 {
            rt.submit(LaunchSpec::new(
                "p",
                0,
                vec![RegionRequirement::read_write(root_a, fa)],
                0,
                None,
            ))
            .unwrap();
        }
        let mut ctx = rt.new_context().unwrap();
        for _ in 0..2 {
            ctx.submit(LaunchSpec::new(
                "t",
                0,
                vec![RegionRequirement::read_write(root_b, fb)],
                0,
                None,
            ))
            .unwrap();
        }
        // The dispatcher may have grabbed at most one early sub-batch
        // before blocking on the core lock; everything still queued when
        // the gate opens commits in combined sweeps.
        drop(gate);
        drop(ctx);
        rt.flush();
        assert_eq!(metrics.submitted(), 4);
        assert_eq!(metrics.retired(), 4);
        assert_eq!(metrics.combined_specs(), 4);
        assert!(metrics.combines() >= 1);
        assert!(metrics.max_combine() >= 2, "queued pushes combined");
        assert_eq!(
            metrics.ring(0).submitted + metrics.ring(1).submitted,
            4,
            "per-ring counters decompose the total"
        );
    }
}

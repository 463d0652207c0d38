//! The analysis core and its one commit: everything the analysis driver
//! owns, and the single place a launch's analysis becomes part of the
//! committed history.
//!
//! The paper's framework (§4, Fig 6) is one `materialize`/`commit` step per
//! launch, observed in program order. A launch reaches the history four
//! ways — analyzed serially, analyzed by the sharded batch driver
//! (`batch.rs`), replayed from a trace template, or as a fence — and all
//! four end in `Book::commit`: completion time, recorded history,
//! dependence DAG and stored result grow together there and nowhere else.

use super::gc::GcState;
use super::{LaunchSpec, CTX_GLOBAL};
use crate::autotrace::AutoTracer;
use crate::config::RuntimeConfig;
use crate::dag::TaskDag;
use crate::engine::{AnalysisCtx, CoherenceEngine};
use crate::ledger::Ledger;
use crate::plan::{AnalysisResult, StoredResult, TaskShift};
use crate::record::HistoryRecorder;
use crate::sharding::ShardMap;
use crate::task::{TaskId, TaskLaunch};
use crate::trace::{TraceAction, Tracing};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use viz_region::RegionForest;
use viz_sim::{Machine, NodeId, SimTime};

/// Everything the analysis driver owns: the visibility engine, the
/// simulated machine it charges, the shard map, and the commit [`Book`].
/// All mutation of analysis state funnels through [`Core::run_specs`] /
/// [`Core::fence_scoped`], so the synchronous and pipelined frontends share
/// one code path.
///
/// Field order here and in [`Book`] is drop order, and the order in which
/// a finished runtime frees its large members is part of the allocation
/// pattern the harness's `peak_rss_mb` rows are sensitive to: keep it.
pub(crate) struct Core {
    pub(crate) engine: Box<dyn CoherenceEngine>,
    pub(crate) machine: Machine,
    pub(crate) shards: ShardMap,
    pub(crate) book: Book,
    pub(crate) analysis_threads: usize,
    pub(crate) gc: GcState,
}

/// The committed history, grouped so the sharded driver can lend the engine
/// and shard map to its scan workers while the committing thread holds the
/// machine and the book exclusively.
pub(crate) struct Book {
    /// Per-task bookkeeping (launches, bodies, stored results,
    /// analysis-completion times) with a GC watermark.
    pub(crate) ledger: Ledger,
    pub(crate) dag: TaskDag,
    pub(crate) tracing: Tracing,
    /// Launch-history recording for the consistency oracle (`None` when
    /// [`RuntimeConfig::record_history`] is off — zero cost).
    pub(crate) recorder: Option<HistoryRecorder>,
}

/// How a committed launch got its analysis.
#[derive(Copy, Clone)]
pub(super) enum Commit {
    /// The visibility engine ran, starting at simulated time `since`.
    Analyzed {
        engine: &'static str,
        since: SimTime,
    },
    /// Synthesized from a trace template.
    Replayed,
    /// An execution fence.
    Fence,
}

impl Book {
    /// The one per-launch commit. `origin` is the node whose clock the
    /// analysis ran on: its current time on `machine` is the launch's
    /// analysis-completion time. The launch itself is appended by the
    /// caller afterwards (the sharded driver can only hand its batch over
    /// once its workers have released it).
    ///
    /// The dependences are stored once, in the DAG: an analyzed launch's
    /// are read in place, a shared (recorded or replayed) result's go in
    /// through its shift as they are copied, so a replayed commit allocates
    /// nothing beyond column growth. Only an attached recorder gets a
    /// shifted list of its own. The stored result then moves into the
    /// ledger, which frees the engine's vectors.
    #[inline]
    pub(super) fn commit(
        &mut self,
        machine: &Machine,
        ctx: u32,
        origin: NodeId,
        launch: &TaskLaunch,
        stored: StoredResult,
        how: Commit,
    ) {
        let done = machine.now(origin);
        self.ledger.push_done(done);
        if let Commit::Analyzed { engine, since } = how {
            if viz_profile::enabled() {
                viz_profile::sim_event(
                    since,
                    done.saturating_sub(since),
                    viz_profile::Track::SimProgram {
                        node: origin as u32,
                    },
                    viz_profile::EventKind::LaunchAnalyzed {
                        engine,
                        task: launch.id.0 as u64,
                    },
                );
            }
        }
        if let Some(rec) = &mut self.recorder {
            // The dependence edges in global ids (rebased, replay shift
            // applied), as the DAG stores them.
            let shifted: Vec<TaskId>;
            let deps: &[TaskId] = match &stored {
                StoredResult::Owned(r) => &r.deps,
                StoredResult::Shared { result, shift } => {
                    shifted = result.deps.iter().map(|d| shift.apply(*d)).collect();
                    &shifted
                }
            };
            rec.commit(
                ctx,
                launch.id,
                &launch.name,
                launch.node,
                &launch.reqs,
                deps,
                matches!(how, Commit::Replayed),
                matches!(how, Commit::Fence),
            );
        }
        match &stored {
            StoredResult::Owned(r) => self.dag.push_slice(&r.deps),
            StoredResult::Shared { result, shift } => {
                self.dag.push_mapped(&result.deps, |d| shift.apply(d))
            }
        };
        self.ledger.push_result(stored);
    }
}

impl Core {
    pub(super) fn new(config: &RuntimeConfig) -> Self {
        Core {
            engine: config.engine.build(),
            machine: Machine::with_cost(config.nodes, config.cost.clone()),
            shards: ShardMap::new(config.nodes, config.dcr),
            book: Book {
                ledger: Ledger::new(),
                dag: TaskDag::new(),
                tracing: Tracing::new(config.auto_trace.then(AutoTracer::new)),
                recorder: config.record_history.then(HistoryRecorder::new),
            },
            analysis_threads: config.analysis_threads,
            gc: GcState::new(config.gc),
        }
    }

    /// Analyze one launch through the serial path (the operation the paper
    /// measures). Requirements are assumed validated by the producer.
    /// `ctx` is the submitting context, recorded for the oracle.
    fn launch_one(&mut self, ctx: u32, spec: LaunchSpec, forest: &RegionForest) -> TaskId {
        let book = &mut self.book;
        let id = TaskId(book.ledger.next_id());
        let launch = TaskLaunch {
            id,
            name: spec.name,
            node: spec.node % self.shards.nodes(),
            reqs: spec.reqs,
            duration_ns: spec.duration_ns,
        };
        let origin = self.shards.origin(launch.node);
        let (record, promoted) = match book.tracing.on_launch(launch.node, &launch.reqs, id.0) {
            TraceAction::Replay { result, shift } => {
                // Dynamic tracing [15]: the recorded analysis is reused —
                // only a template lookup is paid, not the visibility
                // algorithm. The shared result is *not* cloned; the
                // instance's shift is applied lazily by readers.
                self.machine.op(origin, viz_sim::Op::Memo);
                let stored = StoredResult::Shared { result, shift };
                book.commit(
                    &self.machine,
                    ctx,
                    origin,
                    &launch,
                    stored,
                    Commit::Replayed,
                );
                book.ledger.push_launch(launch, spec.body);
                return id;
            }
            TraceAction::Analyze { record } => (record, None),
            TraceAction::Promote { predicted } => (false, Some(predicted)),
        };
        // First-touch ownership of analysis state.
        for req in &launch.reqs {
            self.shards.touch(req.region, launch.node, id.0);
        }
        let engine = self.engine.name();
        let host_span = viz_profile::span(engine);
        let since = self.machine.now(origin);
        let mut actx = AnalysisCtx {
            forest,
            machine: &mut self.machine,
            shards: &self.shards,
        };
        let mut result = self.engine.analyze(&launch, &mut actx);
        drop(host_span);
        // Stale references into a recorded-and-replayed instance move onto
        // its latest replay.
        book.tracing.rebase_result(&mut result);
        let stored = if record {
            // Capturing or verifying: the trace shares the result with the
            // runtime's own storage (identity shift) — no clone.
            let result = Arc::new(result);
            book.tracing
                .record(launch.node, &launch.reqs, Arc::clone(&result));
            StoredResult::Shared {
                result,
                shift: TaskShift::IDENTITY,
            }
        } else {
            StoredResult::Owned(result)
        };
        let how = Commit::Analyzed { engine, since };
        book.commit(&self.machine, ctx, origin, &launch, stored, how);
        book.ledger.push_launch(launch, spec.body);
        if let Some(predicted) = promoted {
            // The repeat's last launch is committed: its block is the
            // template.
            book.tracing
                .promote(predicted, &book.ledger, &book.dag, forest);
        }
        id
    }

    /// Run a sequence of launches, segmented between the serial path
    /// (trace warm-up/capture/replay, or `analysis_threads <= 1`) and the
    /// sharded scan pipeline — semantically identical to analyzing each
    /// spec in order; dependences, plans, simulated clocks, and counters
    /// come out byte-for-byte the same. Both the inline producer path and
    /// the pipeline dispatcher call exactly this, so chunk boundaries (how
    /// many specs the dispatcher drains per wakeup) cannot affect results —
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
            if self.book.tracing.is_active() {
                // Trace segment: replay drains launches in bulk (O(1)
                // each: validate, charge the memo op, retire the shared
                // result); warm-up, capture and verify launches analyze in
                // order. A demotion mid-segment drops back out and
                // re-shards the remainder of the batch.
                while let Some(s) = items.pop_front_if(|_| self.book.tracing.is_active()) {
                    ids.push(self.launch_one(ctx, s, forest));
                }
                continue;
            }
            ids.extend(self.run_batch_sharded(ctx, &mut items, forest));
        }
    }

    /// The global fence construction (see [`crate::Runtime::fence`]):
    /// ordered after every launch committed so far, from every context.
    pub(super) fn fence(&mut self) -> TaskId {
        let deps: Vec<TaskId> = (0..self.book.ledger.next_id()).map(TaskId).collect();
        self.fence_scoped(CTX_GLOBAL, deps)
    }

    /// A fence ordered after an explicit predecessor set — the scoped
    /// variant [`crate::Context::fence`] uses with its own committed
    /// launches. `deps` must be sorted ascending (ids in commit order are).
    pub(super) fn fence_scoped(&mut self, ctx: u32, deps: Vec<TaskId>) -> TaskId {
        let book = &mut self.book;
        // Fences are not analyzed launches: they interrupt any in-flight
        // trace instance and break detected periodicity. Scoped fences do
        // this too — conservative, but it keeps trace capture linear.
        book.tracing.barrier();
        let id = TaskId(book.ledger.next_id());
        let fence = TaskLaunch {
            id,
            name: "fence".into(),
            node: 0,
            reqs: Vec::new(),
            duration_ns: 0,
        };
        let origin = self.shards.origin(0);
        self.machine.op(origin, viz_sim::Op::LaunchOverhead);
        let stored = StoredResult::Owned(AnalysisResult {
            deps,
            plans: Vec::new(),
        });
        book.commit(&self.machine, ctx, origin, &fence, stored, Commit::Fence);
        book.ledger.push_launch(fence, None);
        self.maybe_collect();
        id
    }
}

/// A read guard into a component of the analysis core, returned by the
/// [`crate::Runtime`] introspection accessors (`dag()`, `launches()`,
/// `machine()`, ...). Dereferences to the component; the core stays
/// read-locked for the guard's lifetime. Accessors drain the pipeline
/// before locking, so the dispatcher is idle and cannot block behind the
/// guard; overlapping read guards on the application thread are fine.
pub struct CoreRead<'a, T: ?Sized> {
    guard: RwLockReadGuard<'a, Core>,
    map: fn(&Core) -> &T,
}

impl<'a, T: ?Sized> CoreRead<'a, T> {
    pub(super) fn new(core: &'a RwLock<Core>, map: fn(&Core) -> &T) -> Self {
        CoreRead {
            guard: core.read().unwrap(),
            map,
        }
    }
}

impl<T: ?Sized> Deref for CoreRead<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        (self.map)(&self.guard)
    }
}

impl<T: ?Sized> AsRef<T> for CoreRead<'_, T> {
    fn as_ref(&self) -> &T {
        (self.map)(&self.guard)
    }
}

#[cfg(test)]
mod tests {
    use crate::{EngineKind, LaunchSpec, RegionRequirement, Runtime, RuntimeConfig};

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
}

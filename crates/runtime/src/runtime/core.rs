//! The analysis core and its one commit: everything the analysis driver
//! owns, and the single place a launch's analysis becomes part of the
//! committed history.
//!
//! The paper's framework (§4, Fig 6) is one `materialize`/`commit` step per
//! launch, observed in program order. A launch reaches the history four
//! ways — analyzed serially, analyzed by the sharded batch driver
//! (`batch.rs`), replayed from a trace template, or as a fence — and all
//! four end in `Book::commit`: completion time, dependence DAG and stored
//! result grow together there and nowhere else. The oracle's history is
//! read back off those rows ([`Ledger::history`]), so no launch reaches
//! the oracle by a path other than the one the executors read.

use super::gc::GcState;
use super::{LaunchSpec, CTX_GLOBAL};
use crate::autotrace::AutoTracer;
use crate::config::RuntimeConfig;
use crate::dag::TaskDag;
use crate::engine::{AnalysisCtx, CoherenceEngine};
use crate::ledger::Ledger;
use crate::plan::{AnalysisResult, TaskShift};
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
}

/// How a committed launch got its analysis, and what it stores.
pub(super) enum Commit {
    /// The visibility engine ran, starting at simulated time `since`, and
    /// produced `result`.
    Analyzed {
        engine: &'static str,
        since: SimTime,
        result: AnalysisResult,
    },
    /// Synthesized from a trace template: the template's result, shared,
    /// with the instance's shift.
    Replayed {
        result: Arc<AnalysisResult>,
        shift: TaskShift,
    },
    /// An execution fence, ordered after `deps`.
    Fence { deps: Vec<TaskId> },
}

impl Book {
    /// The one per-launch commit. `origin` is the node whose clock the
    /// analysis ran on: its current time on `machine` is the launch's
    /// analysis-completion time. The launch itself is appended by the
    /// caller afterwards (the sharded driver can only hand its batch over
    /// once its workers have released it).
    ///
    /// The dependences are stored once, in the DAG: an analyzed launch's
    /// or a fence's are read in place, a replayed result's go in through
    /// its shift as they are copied, so a replayed commit allocates nothing
    /// beyond column growth. The result then moves into the ledger, which
    /// frees the engine's vectors; its row keeps how the launch got its
    /// analysis.
    #[inline]
    pub(super) fn commit(
        &mut self,
        machine: &Machine,
        origin: NodeId,
        launch: &TaskLaunch,
        how: Commit,
    ) {
        let done = machine.now(origin);
        self.ledger.push_done(done);
        match how {
            Commit::Analyzed {
                engine,
                since,
                result,
            } => {
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
                self.dag.push_slice(&result.deps);
                self.ledger.push_analyzed(result);
            }
            Commit::Replayed { result, shift } => {
                self.dag.push_mapped(&result.deps, |d| shift.apply(d));
                self.ledger.push_replayed(result, shift);
            }
            Commit::Fence { deps } => {
                self.dag.push_slice(&deps);
                self.ledger.push_fence();
            }
        }
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
            },
            analysis_threads: config.analysis_threads,
            gc: GcState::new(config.gc),
        }
    }

    /// Analyze one launch through the serial path (the operation the paper
    /// measures). Requirements are assumed validated by the producer.
    /// `ctx` is the submitting context, kept on the launch for the oracle.
    fn launch_one(&mut self, ctx: u32, spec: LaunchSpec, forest: &RegionForest) -> TaskId {
        let book = &mut self.book;
        let id = TaskId(book.ledger.next_id());
        let launch = TaskLaunch {
            id,
            name: spec.name,
            node: spec.node % self.shards.nodes(),
            ctx,
            reqs: spec.reqs,
            duration_ns: spec.duration_ns,
        };
        let origin = self.shards.origin(launch.node);
        let promoted = match book.tracing.on_launch(launch.node, &launch.reqs, id.0) {
            TraceAction::Replay { result, shift } => {
                // Dynamic tracing [15]: the recorded analysis is reused —
                // only a template lookup is paid, not the visibility
                // algorithm. The shared result is *not* cloned; the
                // instance's shift is applied lazily by readers.
                self.machine.op(origin, viz_sim::Op::Memo);
                let how = Commit::Replayed { result, shift };
                book.commit(&self.machine, origin, &launch, how);
                book.ledger.push_launch(launch, spec.body);
                return id;
            }
            TraceAction::Analyze => None,
            TraceAction::Promote { len } => Some(len),
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
        book.tracing.verify(&result);
        let how = Commit::Analyzed {
            engine,
            since,
            result,
        };
        book.commit(&self.machine, origin, &launch, how);
        book.ledger.push_launch(launch, spec.body);
        if let Some(len) = promoted {
            // The repeat's last launch is committed: its block is the
            // template.
            book.tracing.promote(len, &book.ledger, &book.dag, forest);
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
    /// program order alone, never of how the caller batched. The
    /// committed ids are appended to `ids`, the context's own list.
    pub(crate) fn run_specs(
        &mut self,
        ctx: u32,
        items: Vec<LaunchSpec>,
        forest: &RegionForest,
        ids: &mut Vec<TaskId>,
    ) {
        // Grow the list before the batch allocates anything: grown push by
        // push mid-analysis, its freed buffers land among the analysis'
        // allocations, and the stencil benchmark's set-up ran 10-30 %
        // slower on a 2-vCPU guest while allocating less. A power of two is
        // the capacity pushes reach anyway; an exact reserve per batch
        // would leave a drained runtime holding more.
        ids.reserve((ids.len() + items.len()).next_power_of_two() - ids.len());
        let mut items: VecDeque<LaunchSpec> = items.into();
        while !items.is_empty() {
            let rest = items.split_off(self.gc_room().min(items.len()));
            self.run_chunk(ctx, items, forest, ids);
            items = rest;
            self.maybe_collect();
        }
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
            self.run_batch_sharded(ctx, &mut items, forest, ids);
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
            ctx,
            reqs: Vec::new(),
            duration_ns: 0,
        };
        let origin = self.shards.origin(0);
        self.machine.op(origin, viz_sim::Op::LaunchOverhead);
        book.commit(&self.machine, origin, &fence, Commit::Fence { deps });
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
    use crate::{
        EngineKind, LaunchSpec, RegionRequirement, Runtime, RuntimeConfig, TaskId, CTX_GLOBAL,
        CTX_PRIMARY,
    };
    use viz_geometry::IndexSpace;

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

    /// A runtime over a 1-D stencil of four pieces with a halo around
    /// each, and one iteration of it: every piece computed from its halo,
    /// then copied back (period 8).
    fn stencil(cfg: RuntimeConfig) -> (Runtime, impl Fn(&mut Runtime)) {
        const PIECES: usize = 4;
        let mut rt = Runtime::new(cfg);
        let n = 8 * PIECES as i64;
        let mut forest = rt.forest_mut();
        let root = forest.create_root_1d("A", n);
        let [f_in, f_out] = [forest.add_field(root, "in"), forest.add_field(root, "out")];
        let p = forest.create_equal_partition_1d(root, "P", PIECES);
        let halos = (0..n)
            .step_by(8)
            .map(|lo| IndexSpace::span((lo - 2).max(0), (lo + 9).min(n - 1)))
            .collect();
        let h = forest.create_partition(root, "H", halos);
        drop(forest);
        let iteration = move |rt: &mut Runtime| {
            for k in 0..PIECES {
                let (piece, halo) = (rt.forest().subregion(p, k), rt.forest().subregion(h, k));
                let stencil = rt.task("stencil").write(piece, f_out).read(halo, f_in);
                stencil.submit().unwrap();
            }
            for k in 0..PIECES {
                let piece = rt.forest().subregion(p, k);
                let copy = rt.task("copy").write(piece, f_in).read(piece, f_out);
                copy.submit().unwrap();
            }
        };
        (rt, iteration)
    }

    /// The oracle's history is read off the ledger and the DAG: the
    /// submitting context, the dependence edges, fences, the replayed
    /// rows, and `None` once history GC has retired a row.
    #[test]
    fn recorded_history_captures_reqs_deps_and_fences() {
        let mut rt = Runtime::new(RuntimeConfig::base(EngineKind::PaintNaive));
        let root = rt.forest_mut().create_root_1d("A", 10);
        let f = rt.forest_mut().add_field(root, "v");
        let t0 = rt.task("w").write(root, f).submit().unwrap().id();
        let t1 = rt.task("r").read(root, f).submit().unwrap().id();
        let (ctx, t2, scoped) = {
            let mut c = rt.new_context().unwrap();
            let spec = LaunchSpec::new("c", 0, vec![RegionRequirement::read(root, f)], 100, None);
            let t2 = c.submit(spec).unwrap().resolve().unwrap();
            (c.ctx_id(), t2, c.fence().unwrap())
        };
        let fence = rt.fence();
        let h = rt.recorded_history().expect("nothing retired");
        assert_eq!(h.len(), 5);
        assert_eq!(h.retirement, vec![t0, t1, t2, scoped, fence]);
        assert_eq!(h.launches[1].deps, vec![t0]);
        assert_eq!(
            h.launches[3].deps,
            vec![t2],
            "a scoped fence follows its context"
        );
        assert_eq!(h.launches[4].deps, vec![t0, t1, t2, scoped]);
        let kinds: Vec<(u32, bool)> = h.launches.iter().map(|l| (l.ctx, l.fence)).collect();
        assert_ne!(ctx, CTX_PRIMARY);
        let primary = (CTX_PRIMARY, false);
        let expected = [
            primary,
            primary,
            (ctx, false),
            (ctx, true),
            (CTX_GLOBAL, true),
        ];
        assert_eq!(kinds, expected);
        assert!(h.launches.iter().all(|l| !l.replayed));

        // Auto-traced: the second block promotes, the third is verified
        // (analyzed and stored as any analyzed launch is) and replay
        // starts at launch 24. `replayed` marks exactly the replayed rows.
        let (mut rt, iteration) = stencil(RuntimeConfig::base(EngineKind::RayCast));
        for _ in 0..6 {
            iteration(&mut rt);
        }
        let h = rt.recorded_history().expect("nothing retired");
        let replayed: Vec<TaskId> = h
            .launches
            .iter()
            .filter(|l| l.replayed)
            .map(|l| l.id)
            .collect();
        assert_eq!(replayed.len() as u64, rt.replayed_launches());
        assert_eq!(replayed, (24..48).map(TaskId).collect::<Vec<_>>());
        for t in (16..24).map(TaskId) {
            assert!(rt.shared_result_addr(t).is_none(), "{t:?} is verified");
            assert!(!h.launches[t.index()].replayed, "{t:?} is analyzed");
        }

        // With GC on, the history is the GC-off run's until a row retires.
        let gc_on = RuntimeConfig::base(EngineKind::RayCast)
            .history_gc(true)
            .gc_interval(16)
            .gc_retain(24);
        let (mut gc, gc_iteration) = stencil(gc_on);
        let (mut plain, iteration) = stencil(RuntimeConfig::base(EngineKind::RayCast));
        let mut whole = 0;
        for _ in 0..8 {
            gc_iteration(&mut gc);
            iteration(&mut plain);
            let expected = plain.recorded_history().expect("GC is off");
            match gc.stats().gc.retired_launches {
                0 => {
                    assert_eq!(gc.recorded_history().expect("nothing retired"), expected);
                    whole += 1;
                }
                _ => assert!(gc.recorded_history().is_none(), "a row retired"),
            }
        }
        assert!(whole > 1, "compared {whole} whole histories");
        assert!(gc.stats().gc.retired_launches > 0, "no row retired");
    }
}

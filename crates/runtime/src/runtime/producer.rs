//! One producer path: the [`crate::Runtime`] facade and every tenant
//! [`Context`] submit through a [`Producer`] — validation, the single
//! inline-vs-queue decision, program-order sequence numbers and handle
//! resolution. With `mod.rs` this is the address of the harness's
//! `runtime.validate_ns_per_launch` and `runtime.residual_ns_per_launch`
//! rows.

use super::core::Core;
use super::LaunchSpec;
use crate::error::RuntimeError;
use crate::pipeline::{in_worker, CtxState, SubmitPlane};
use crate::task::{RegionRequirement, TaskId};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use viz_region::{Privilege, RegionForest};

/// Validate one submission against the forest: every region must exist and
/// every field must belong to its region's tree ([`RegionForest::has_field`],
/// one lookup per requirement), and §4 requires region arguments of one task
/// to have disjoint domains unless both are read-only or both reduce with
/// the same operator. Allocates nothing.
fn validate_spec(forest: &RegionForest, reqs: &[RegionRequirement]) -> Result<(), RuntimeError> {
    for r in reqs {
        if r.region.0 as usize >= forest.num_regions() {
            return Err(RuntimeError::UnknownRegion { region: r.region });
        }
        if !forest.has_field(r.region, r.field) {
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

/// Forest read access for the submit path: a poisoned lock (a panic on the
/// dispatcher or a worker) becomes a typed error instead of a second panic
/// on the application thread.
pub(super) fn forest_read(
    forest: &RwLock<RegionForest>,
) -> Result<RwLockReadGuard<'_, RegionForest>, RuntimeError> {
    forest.read().map_err(|_| RuntimeError::Poisoned {
        what: "region forest",
    })
}

/// Core write access for the commit path, same poisoning contract.
pub(super) fn core_write(core: &RwLock<Core>) -> Result<RwLockWriteGuard<'_, Core>, RuntimeError> {
    core.write()
        .map_err(|_| RuntimeError::Poisoned { what: "core" })
}

/// One program-ordered submission stream: its context bookkeeping, the
/// submission plane when the runtime is pipelined, and the sequence
/// numbers it has handed out. Launches commit inline under the core lock
/// (synchronous mode) or through the plane's queue and the combining
/// dispatcher (pipelined mode) — decided in [`Producer::submit_batch`] and
/// nowhere else.
///
/// The forest and core handles stay with the owner ([`crate::Runtime`] or
/// [`Context`]) and are lent per call: the facade's drop order (forest,
/// reduction registry, core, stream state) is part of the allocation
/// pattern `peak_rss_mb` is sensitive to, and a producer that owned them
/// would reorder it.
pub(crate) struct Producer {
    pub(super) state: Arc<CtxState>,
    /// The submission plane (pipelined mode only).
    pub(super) ring: Option<Arc<SubmitPlane>>,
    pub(super) validate: bool,
    /// Sequence numbers handed out so far (submissions + fences).
    pub(super) submitted: u32,
}

impl Producer {
    /// Open stream `ctx`, on `plane` when the runtime is pipelined. The
    /// caller has admitted it there ([`SubmitPlane::join`]; the facade's
    /// place is reserved when the plane is built).
    pub(super) fn new(plane: Option<&Arc<SubmitPlane>>, ctx: u32, validate: bool) -> Self {
        Producer {
            state: CtxState::new(ctx),
            ring: plane.cloned(),
            validate,
            submitted: 0,
        }
    }

    /// Submit a batch in order and return its sequence numbers. Validation
    /// is atomic: every spec is checked before any is enqueued, so an
    /// `Err` leaves the stream unchanged. Never drains; blocks only on this
    /// producer's own backpressure. The forest is read-locked once per
    /// batch: a synchronous batch validates and commits under that one
    /// guard, a pipelined one releases it before it enqueues.
    ///
    /// `specs` is a `Vec`, or `[spec]` for a single launch — whose `Vec` is
    /// then built after validation, where the single-launch path has always
    /// allocated it.
    pub(super) fn submit_batch(
        &mut self,
        forest: &RwLock<RegionForest>,
        core: &RwLock<Core>,
        specs: impl AsRef<[LaunchSpec]> + Into<Vec<LaunchSpec>>,
    ) -> Result<Range<u32>, RuntimeError> {
        let forest = forest_read(forest)?;
        if self.validate {
            for s in specs.as_ref() {
                validate_spec(&forest, &s.reqs)?;
            }
        }
        let specs: Vec<LaunchSpec> = specs.into();
        let base = self.submitted;
        let n = specs.len() as u32;
        match &self.ring {
            Some(plane) => {
                // Backpressure may block here; the dispatcher takes its own
                // read lock.
                drop(forest);
                plane.enqueue_all(&self.state, specs)?;
            }
            None => {
                // Always through run_specs, even for one spec, so its GC
                // hook covers every launch path.
                let mut core = core_write(core)?;
                core.run_specs(self.state.ctx, specs, &forest, &mut self.state.assigned());
                self.state.record_inline(u64::from(n));
            }
        }
        self.submitted = base + n;
        Ok(base..base + n)
    }

    /// Commit a fence inline under the core lock and count it in this
    /// stream. The caller quiesces what the fence must follow first.
    pub(super) fn fence(
        &mut self,
        core: &RwLock<Core>,
        commit: impl FnOnce(&mut Core) -> TaskId,
    ) -> Result<TaskId, RuntimeError> {
        let id = commit(&mut *core_write(core)?);
        self.state.assigned().push(id);
        self.state.record_inline(1);
        self.submitted += 1;
        Ok(id)
    }

    /// Wait until everything this producer submitted has committed
    /// (pipelined mode; synchronous commits are already inline).
    pub(super) fn flush(&self) -> Result<(), RuntimeError> {
        if let Some(plane) = &self.ring {
            let want = self.state.pushed.load(Ordering::Acquire);
            plane.wait_ctx_committed(&self.state, want)?;
        }
        Ok(())
    }

    /// Resolve sequence number `seq` of this stream;
    /// [`RuntimeError::UnknownHandle`] if it was never issued here (a
    /// handle from another runtime).
    pub(super) fn resolve(&self, seq: u32) -> Result<TaskId, RuntimeError> {
        if seq >= self.submitted {
            return Err(RuntimeError::UnknownHandle {
                seq,
                issued: self.submitted,
            });
        }
        resolve(&self.state, self.ring.as_deref(), seq)
    }
}

/// Block until launch `seq` of stream `state`, an issued sequence number,
/// has committed and return the [`TaskId`] it was assigned.
///
/// Errors instead of blocking forever in two cases:
/// [`RuntimeError::DriverPanicked`] when the dispatcher has died with the
/// launch unanalyzed, and [`RuntimeError::WouldDeadlock`] when called from
/// *inside* a runtime worker (the pipeline dispatcher or a value-executor
/// task body) on a launch that has not committed yet — such a wait can
/// never be satisfied, because the waiter is the thread that would have to
/// make the progress (the executor holds the core read lock the dispatcher
/// needs for the rest of the run).
fn resolve(
    state: &CtxState,
    plane: Option<&SubmitPlane>,
    seq: u32,
) -> Result<TaskId, RuntimeError> {
    if let Some(id) = state.try_id(seq) {
        return Ok(id);
    }
    if in_worker() {
        return Err(RuntimeError::WouldDeadlock);
    }
    // A synchronous stream commits every issued launch inline, so only a
    // pipelined one can still be behind.
    debug_assert!(plane.is_some(), "synchronous launch {seq} uncommitted");
    if let Some(plane) = plane {
        plane.wait_ctx_committed(state, seq as u64 + 1)?;
    }
    // The wait covered `seq`, so its id is assigned.
    Ok(state.assigned()[seq as usize])
}

/// An independent producer stream over a shared [`crate::Runtime`] (PR 7):
/// tenant contexts submit concurrently from their own threads, each with
/// its own program-order counter and fence scope. Created by
/// [`crate::Runtime::new_context`]; dropping a context quiesces its stream
/// and frees its place on the submission plane.
///
/// Submissions return [`CtxHandle`]s, which resolve to the global
/// [`TaskId`] the combining dispatcher assigned (ids interleave across
/// contexts in commit order). [`Context::fence`] is a *scoped* fence:
/// ordered after everything this context submitted, but not after other
/// contexts' concurrent launches — use [`crate::Runtime::fence`] for a
/// global barrier.
pub struct Context<'rt> {
    core: Arc<RwLock<Core>>,
    forest: Arc<RwLock<RegionForest>>,
    producer: Producer,
    /// Ties the context's lifetime to the runtime borrow without
    /// requiring anything of the runtime's own auto traits.
    _rt: PhantomData<&'rt ()>,
}

impl Context<'_> {
    pub(super) fn new(
        core: Arc<RwLock<Core>>,
        forest: Arc<RwLock<RegionForest>>,
        producer: Producer,
    ) -> Self {
        Context {
            core,
            forest,
            producer,
            _rt: PhantomData,
        }
    }

    /// This context's id, as recorded in launch histories.
    pub fn ctx_id(&self) -> u32 {
        self.producer.state.ctx
    }

    /// Submissions + fences issued through this context so far.
    pub fn num_tasks(&self) -> usize {
        self.producer.submitted as usize
    }

    /// Submit one launch on this context's stream. Validated on the
    /// calling thread; analyzed by the dispatcher (pipelined) or inline
    /// under the core lock (synchronous). Blocks only on this context's
    /// own backpressure — never on other producers.
    pub fn submit(&mut self, spec: LaunchSpec) -> Result<CtxHandle, RuntimeError> {
        let seqs = self
            .producer
            .submit_batch(&self.forest, &self.core, vec![spec])?;
        Ok(self.handle(seqs.start))
    }

    /// Submit a batch in order on this context's stream. Validation is
    /// atomic, as in [`crate::Runtime::submit_batch`].
    pub fn submit_batch(&mut self, specs: Vec<LaunchSpec>) -> Result<Vec<CtxHandle>, RuntimeError> {
        let seqs = self
            .producer
            .submit_batch(&self.forest, &self.core, specs)?;
        Ok(seqs.map(|seq| self.handle(seq)).collect())
    }

    fn handle(&self, seq: u32) -> CtxHandle {
        CtxHandle {
            seq,
            state: Arc::clone(&self.producer.state),
            plane: self.producer.ring.clone(),
        }
    }

    /// A *scoped* execution fence: ordered after every launch this context
    /// has submitted (quiescing the context's own stream first), but not
    /// after other contexts' concurrent launches. Committed inline, so the
    /// returned [`TaskId`] is final.
    pub fn fence(&mut self) -> Result<TaskId, RuntimeError> {
        self.flush()?;
        let ctx = self.ctx_id();
        let deps = self.producer.state.assigned().clone();
        self.producer
            .fence(&self.core, |core| core.fence_scoped(ctx, deps))
    }

    /// Wait until everything this context submitted has committed
    /// (pipelined mode; synchronous commits are already inline).
    pub fn flush(&self) -> Result<(), RuntimeError> {
        self.producer.flush()
    }
}

impl Drop for Context<'_> {
    fn drop(&mut self) {
        if let Some(plane) = self.producer.ring.take() {
            // Quiesces this context's stream (its queued launches are
            // never lost), then frees its place for the next context.
            plane.leave(&self.producer.state);
        }
    }
}

/// Receipt for a launch submitted through a [`Context`]. Unlike
/// [`crate::TaskHandle`], the global [`TaskId`] is *not* known at
/// submission time — ids interleave across concurrent producers in commit
/// order — so the handle carries its context's bookkeeping and resolves
/// through it. `Clone`able and `Send`; outlives its context.
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
    /// (see [`crate::Runtime::try_resolve`]).
    pub fn resolve(&self) -> Result<TaskId, RuntimeError> {
        resolve(&self.state, self.plane.as_deref(), self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::{Context, Producer};
    use crate::pipeline::enter_worker;
    use crate::{
        EngineKind, LaunchSpec, RegionRequirement, Runtime, RuntimeConfig, RuntimeError, TaskId,
    };
    use std::sync::Arc;
    use viz_region::{FieldId, RedOpRegistry, RegionId};

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
        // A field that exists but belongs to another root is just as
        // unknown here, to a launch and to initial contents alike.
        let other = rt.forest_mut().create_root_1d("B", 10);
        let foreign = rt.forest_mut().add_field(other, "w");
        let refused = |e: &RuntimeError| {
            matches!(e, RuntimeError::UnknownField { region, field }
                if *region == root && *field == foreign)
        };
        let err = rt
            .submit(LaunchSpec::new(
                "bad",
                0,
                vec![RegionRequirement::read(root, foreign)],
                0,
                None,
            ))
            .unwrap_err();
        assert!(refused(&err), "{err}");
        let err = rt.try_set_initial(root, foreign, |_| 1.0).unwrap_err();
        assert!(refused(&err), "{err}");
        // Failed submissions consume no task id.
        assert_eq!(rt.num_tasks(), 0);
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
            let _worker = enter_worker();
            let err = rt.try_resolve(h).unwrap_err();
            assert!(matches!(err, RuntimeError::WouldDeadlock));
            assert!(err.to_string().contains("self-deadlock"));
        }
        drop(gate);
        // Off the worker path the same resolve blocks and succeeds...
        assert_eq!(rt.resolve(h), TaskId(0));
        // ...and a *committed* handle resolves even inside a worker (the
        // fast path never blocks).
        let _worker = enter_worker();
        assert_eq!(rt.try_resolve(h).unwrap(), TaskId(0));
    }

    /// With the dispatcher wedged, pushes from two producers pile up and
    /// the release sweep must commit them under one core-lock acquisition.
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
        // The facade: two launches. A tenant: two more.
        let mut facade_returned = 0u64;
        for _ in 0..2 {
            rt.submit(LaunchSpec::new(
                "p",
                0,
                vec![RegionRequirement::read_write(root_a, fa)],
                0,
                None,
            ))
            .unwrap();
            facade_returned += 1;
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
        let tenant_tasks = ctx.num_tasks() as u64;
        // The dispatcher may have taken at most one early batch before
        // blocking on the core lock; everything still queued when the gate
        // opens commits in combined sweeps.
        drop(gate);
        drop(ctx);
        rt.flush();
        assert_eq!(metrics.submitted(), 4);
        assert_eq!(metrics.retired(), 4);
        assert_eq!(metrics.combined_specs(), 4);
        assert!(metrics.combines() >= 1);
        assert!(metrics.max_combine() >= 2, "queued pushes combined");
        assert_eq!(
            facade_returned + tenant_tasks,
            metrics.submitted(),
            "per-producer submissions decompose the total"
        );
    }

    /// Backpressure is per producer: with the dispatcher wedged, a tenant
    /// whose share of the queue is full blocks, and the facade still
    /// submits past it and returns.
    #[test]
    fn a_full_producer_blocks_only_itself() {
        use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
        let mut rt = Runtime::new(
            RuntimeConfig::new(EngineKind::RayCast)
                .pipeline(true)
                .pipeline_depth(2),
        );
        let root_a = rt.forest_mut().create_root_1d("A", 16);
        let fa = rt.forest_mut().add_field(root_a, "v");
        let root_b = rt.forest_mut().create_root_1d("B", 16);
        let fb = rt.forest_mut().add_field(root_b, "v");
        let on_a = || {
            LaunchSpec::new(
                "p",
                0,
                vec![RegionRequirement::read_write(root_a, fa)],
                0,
                None,
            )
        };
        let on_b = || {
            LaunchSpec::new(
                "t",
                0,
                vec![RegionRequirement::read_write(root_b, fb)],
                0,
                None,
            )
        };
        let metrics = rt.pipeline_metrics().unwrap();
        let core = Arc::clone(&rt.core);
        let gate = core.write().unwrap();
        // Wedge the dispatcher: once it has taken the facade's first launch
        // it waits on the core lock and takes nothing more.
        rt.submit(on_a()).unwrap();
        while rt.primary.state.queued() > 0 {
            std::thread::yield_now();
        }
        // A tenant built beside the facade instead of borrowed from it (as
        // `new_context` does), so the facade can submit while it is live.
        let plane = Arc::clone(rt.primary.ring.as_ref().unwrap());
        plane.join().unwrap();
        let ctx = rt.next_ctx.fetch_add(1, SeqCst);
        let mut tenant = Context::new(
            Arc::clone(&rt.core),
            Arc::clone(&rt.forest),
            Producer::new(Some(&plane), ctx, true),
        );
        let tenant_state = Arc::clone(&tenant.producer.state);
        let (begun, returned) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    begun.fetch_add(1, SeqCst);
                    tenant.submit(on_b()).unwrap();
                    returned.fetch_add(1, SeqCst);
                }
            });
            // Two queued and a third begun: the tenant is blocked, because
            // only a take frees its share and the dispatcher takes nothing
            // until the gate opens.
            while !(tenant_state.queued() == 2 && begun.load(SeqCst) == 3) {
                std::thread::yield_now();
            }
            rt.submit(on_a()).unwrap();
            rt.submit(on_a()).unwrap();
            assert_eq!(returned.load(SeqCst), 2, "the tenant is still blocked");
            drop(gate);
        });
        drop(tenant);
        rt.flush();
        assert_eq!(metrics.submitted(), 6);
        assert_eq!(metrics.retired(), 6);
        assert!(metrics.stalls() >= 1, "the tenant stalled");
    }
}

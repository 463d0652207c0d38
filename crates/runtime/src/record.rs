//! Launch-history recording for the external consistency oracle
//! (`viz-oracle`).
//!
//! With [`crate::RuntimeConfig::record_history`] set, the runtime's core
//! keeps a `HistoryRecorder` and its one per-launch commit
//! (`runtime/core.rs`) appends one [`LaunchRecord`] — the serial
//! path, the sharded batch driver's retire stage, trace replay, and fences
//! all end in that commit, so synchronous, pipelined, annotated-trace
//! and auto-trace runs produce the same kind of record.
//!
//! What is recorded is deliberately *claims, not analysis state*: the
//! submitted requirements (canonicalized by the same signature hash the
//! auto-tracer fingerprints launches with), the dependence edges the engine
//! emitted (with any trace-replay shift already applied), and the order
//! launches retired. An external judge can re-derive the *required*
//! precedence relation from the requirements alone and verify the engine's
//! claims against it — see `crates/oracle`.

use crate::task::{RegionRequirement, TaskId};
use viz_sim::NodeId;

/// One committed launch, as the engine claimed it: what was submitted plus
/// the dependence edges it emitted.
#[derive(Clone, Debug)]
pub struct LaunchRecord {
    pub id: TaskId,
    pub name: String,
    pub node: NodeId,
    /// The producer context that submitted this launch (PR 7):
    /// [`crate::CTX_PRIMARY`] for the `Runtime` facade, the context id for
    /// tenant [`crate::Context`]s, [`crate::CTX_GLOBAL`] for global fences.
    /// Scoped fences carry their context's id — the oracle only requires a
    /// fence to follow launches in its own scope.
    pub ctx: u32,
    /// The submitted requirements, exactly as analyzed.
    pub reqs: Vec<RegionRequirement>,
    /// The auto-tracer's fingerprint of `(node, reqs)` — the canonical
    /// signature trace replay validates against.
    pub signature: u64,
    /// Dependence edges the engine emitted for this launch (trace-replay
    /// shifts already applied — these are the ids the executors honor).
    pub deps: Vec<TaskId>,
    /// Was this launch's analysis synthesized from a trace template
    /// (annotated or auto) instead of running the visibility engine?
    pub replayed: bool,
    /// Is this an execution fence (ordered after everything prior)?
    pub fence: bool,
}

/// A complete recorded run: every committed launch plus the retirement
/// order. Region-tree geometry is snapshotted separately at export time
/// (the forest only grows, so the final snapshot covers every launch).
#[derive(Clone, Debug, Default)]
pub struct RecordedHistory {
    pub engine: String,
    pub launches: Vec<LaunchRecord>,
    /// Task ids in the order their analyses committed (retired).
    pub retirement: Vec<TaskId>,
}

impl RecordedHistory {
    pub fn len(&self) -> usize {
        self.launches.len()
    }

    pub fn is_empty(&self) -> bool {
        self.launches.is_empty()
    }
}

/// The in-core recording hook. All mutation happens under the core lock,
/// so the pipelined driver and the synchronous frontend share it safely.
#[derive(Debug, Default)]
pub(crate) struct HistoryRecorder {
    launches: Vec<LaunchRecord>,
    retirement: Vec<TaskId>,
}

impl HistoryRecorder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one committed launch. `deps` are the edges as pushed into
    /// the task DAG (shifted for replays).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn commit(
        &mut self,
        ctx: u32,
        id: TaskId,
        name: &str,
        node: NodeId,
        reqs: &[RegionRequirement],
        deps: &[TaskId],
        replayed: bool,
        fence: bool,
    ) {
        self.launches.push(LaunchRecord {
            id,
            name: name.to_string(),
            node,
            ctx,
            reqs: reqs.to_vec(),
            signature: crate::autotrace::sig_hash(node, reqs),
            deps: deps.to_vec(),
            replayed,
            fence,
        });
        self.retirement.push(id);
    }

    /// Snapshot everything recorded so far.
    pub(crate) fn snapshot(&self, engine: &str) -> RecordedHistory {
        viz_profile::instant(viz_profile::EventKind::HistoryRecord {
            launches: self.launches.len() as u64,
        });
        RecordedHistory {
            engine: engine.to_string(),
            launches: self.launches.clone(),
            retirement: self.retirement.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_region::{FieldId, RegionId};

    #[test]
    fn commit_assigns_signatures_and_retirement_order() {
        let mut rec = HistoryRecorder::new();
        let reqs = vec![RegionRequirement::read_write(RegionId(0), FieldId(0))];
        rec.commit(0, TaskId(0), "w", 0, &reqs, &[], false, false);
        rec.commit(2, TaskId(1), "r", 1, &reqs, &[TaskId(0)], false, false);
        let h = rec.snapshot("test");
        assert_eq!(h.len(), 2);
        assert_eq!(h.retirement, vec![TaskId(0), TaskId(1)]);
        assert_eq!(h.launches[1].deps, vec![TaskId(0)]);
        assert_eq!(h.launches[0].ctx, 0, "submitting context is recorded");
        assert_eq!(h.launches[1].ctx, 2);
        // Same (node, reqs) → same signature; different node → different.
        let sig0 = h.launches[0].signature;
        let mut rec2 = HistoryRecorder::new();
        rec2.commit(0, TaskId(0), "other-name", 0, &reqs, &[], false, false);
        rec2.commit(0, TaskId(1), "w", 1, &reqs, &[], false, false);
        let h2 = rec2.snapshot("test");
        assert_eq!(
            h2.launches[0].signature, sig0,
            "name is not in the signature"
        );
        assert_ne!(h2.launches[1].signature, sig0, "node is in the signature");
    }
}

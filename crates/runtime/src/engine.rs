//! The coherence-engine interface shared by all four engines (the paper's
//! three visibility algorithms plus the naive painter; see [`EngineKind`]).

use crate::analysis::{eqsets::EqSetEngine, paint, paint_naive, ReqOutcome, ShardKey};
use crate::plan::{AnalysisResult, MaterializePlan};
use crate::sharding::ShardMap;
use crate::task::TaskLaunch;
use viz_region::RegionForest;
use viz_sim::{Machine, Op};

/// Everything an engine may consult while analyzing a launch. The engines
/// run their data structures for real; `machine` only *prices* the
/// operations they perform (and records where they happen).
pub struct AnalysisCtx<'a> {
    pub forest: &'a RegionForest,
    pub machine: &'a mut Machine,
    pub shards: &'a ShardMap,
}

/// The read-only context available to a shard-local scan. Unlike
/// [`AnalysisCtx`], it carries no machine: scans record their charges into
/// per-requirement [`viz_sim::ChargeLog`]s, replayed by the driver in
/// canonical order.
pub struct ShardCtx<'a> {
    pub forest: &'a RegionForest,
    pub shards: &'a ShardMap,
}

/// A dynamic dependence/coherence analysis: the `materialize`/`commit`
/// framework of §4 (Fig 6), fused into a single `analyze` observing each
/// task launch in program order.
///
/// Engines are *sharded*: all four key their retained state by the
/// `(root region, field)` of a requirement, and state on distinct shards
/// never interacts (§5–7). The interface splits a launch's analysis into
///
/// * [`prepare`](CoherenceEngine::prepare) — on the driver thread, with
///   exclusive access: group the requirements by shard and create any
///   missing shard state. Performs no machine charges.
/// * [`analyze_shard`](CoherenceEngine::analyze_shard) — scan and commit
///   the given requirements against one shard. Takes `&self`: calls for
///   *distinct* shards may run concurrently on worker threads; the driver
///   never runs two calls against the same shard at once. Charges are
///   recorded, not applied.
///
/// The provided [`analyze`](CoherenceEngine::analyze) drives the two hooks
/// sequentially and replays the recorded charges immediately — the serial
/// reference the sharded driver must match byte-for-byte.
///
/// Analysis must produce, per launch:
/// * the launch's dependences (a sufficient set: with transitivity, every
///   interfering pair of tasks is ordered), and
/// * one materialization plan per region requirement (§3.1): base copies
///   covering the domain from the most recent writes, plus the pending
///   reductions to fold — or an identity fill for reduction privileges
///   (the lazy-reduction rule of Fig 7, line 14).
pub trait CoherenceEngine: Send + Sync {
    fn name(&self) -> &'static str;

    /// Group `launch`'s requirements by shard (first-touch order, see
    /// [`crate::analysis::group_reqs_by_shard`]) and create missing shard
    /// state. Driver thread only; must not charge the machine.
    fn prepare(&mut self, launch: &TaskLaunch, ctx: &ShardCtx<'_>) -> Vec<(ShardKey, Vec<u32>)>;

    /// Analyze requirements `reqs` (indices into `launch.reqs`, ascending)
    /// against shard `key`: run the backward visibility scans, commit the
    /// requirements into the shard state, and record all machine charges
    /// into the returned outcomes' logs.
    fn analyze_shard(
        &self,
        key: ShardKey,
        launch: &TaskLaunch,
        reqs: &[u32],
        ctx: &ShardCtx<'_>,
    ) -> Vec<ReqOutcome>;

    /// Serial analysis: prepare, scan every shard in order, replay charges.
    fn analyze(&mut self, launch: &TaskLaunch, ctx: &mut AnalysisCtx<'_>) -> AnalysisResult {
        ctx.machine
            .op(ctx.shards.origin(launch.node), Op::LaunchOverhead);
        let sctx = ShardCtx {
            forest: ctx.forest,
            shards: ctx.shards,
        };
        let groups = self.prepare(launch, &sctx);
        let mut outcomes = Vec::with_capacity(launch.reqs.len());
        for (key, reqs) in &groups {
            outcomes.extend(self.analyze_shard(*key, launch, reqs, &sctx));
        }
        assemble_outcomes(launch, outcomes, ctx.machine)
    }

    /// Structure-size report for instrumentation (equivalence sets alive,
    /// history entries stored, composite views alive).
    fn state_size(&self) -> StateSize {
        StateSize::default()
    }

    /// Reclaim analysis state that can no longer influence any future
    /// launch — occluded history entries, unreachable composite-view
    /// chains, stale memo entries. `floor` is the history-GC watermark
    /// (every launch below it has retired); engines whose liveness is
    /// purely reachability-based may ignore it.
    ///
    /// Contract: the sweep must be *behavior-preserving* — every future
    /// `analyze` produces byte-identical deps, plans, and machine charges
    /// whether or not `collect` ever ran. Must not charge the machine.
    fn collect(&mut self, _floor: crate::task::TaskId) -> GcSweep {
        GcSweep::default()
    }
}

/// What one [`CoherenceEngine::collect`] sweep reclaimed (counts of
/// dropped state, accumulated into [`crate::stats::GcStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcSweep {
    pub history_entries: usize,
    pub equivalence_sets: usize,
    pub composite_views: usize,
    pub index_nodes: usize,
    pub memo_entries: usize,
}

impl GcSweep {
    /// Total state entries dropped.
    pub fn total(&self) -> usize {
        self.history_entries
            + self.equivalence_sets
            + self.composite_views
            + self.index_nodes
            + self.memo_entries
    }
}

impl std::ops::AddAssign for GcSweep {
    fn add_assign(&mut self, rhs: GcSweep) {
        self.history_entries += rhs.history_entries;
        self.equivalence_sets += rhs.equivalence_sets;
        self.composite_views += rhs.composite_views;
        self.index_nodes += rhs.index_nodes;
        self.memo_entries += rhs.memo_entries;
    }
}

/// Replay per-requirement charge logs in canonical order (all scans in
/// requirement order, then all commits in requirement order — the exact
/// sequence a serial engine produces) and assemble the launch's
/// [`AnalysisResult`]. Shared by the serial and the sharded drivers, which
/// is what makes the two byte-identical.
pub(crate) fn assemble_outcomes(
    launch: &TaskLaunch,
    mut outcomes: Vec<ReqOutcome>,
    machine: &mut Machine,
) -> AnalysisResult {
    outcomes.sort_by_key(|o| o.req);
    for o in &outcomes {
        o.scan_log.replay(machine);
    }
    for o in &outcomes {
        o.commit_log.replay(machine);
    }
    let mut result = AnalysisResult {
        deps: Vec::with_capacity(outcomes.iter().map(|o| o.deps.len()).sum()),
        plans: vec![MaterializePlan::default(); launch.reqs.len()],
    };
    for o in outcomes {
        result.deps.extend(o.deps);
        result.plans[o.req as usize] = o.plan;
    }
    result.normalize();
    result
}

/// Sizes of an engine's retained analysis state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateSize {
    pub history_entries: usize,
    pub equivalence_sets: usize,
    pub composite_views: usize,
    /// Nodes in the engine's spatial index: refinement-tree (BVH) nodes for
    /// Warnock, anchor buckets or K-d tree nodes for ray casting.
    pub index_nodes: usize,
    /// Entries across the engine's memoization tables (constituent-set and
    /// overlapping-anchor caches).
    pub memo_entries: usize,
    /// Distinct index spaces interned in the forest's algebras of the roots
    /// the engine has analyzed — one interner per root for every engine,
    /// holding the root's region domains and what analysis interned.
    pub interned_spaces: usize,
    /// Entries currently held in those algebras' caches.
    pub algebra_cache_entries: usize,
    /// Cumulative algebra-cache hits across those algebras.
    pub algebra_hits: u64,
    /// Cumulative algebra-cache misses across those algebras.
    pub algebra_misses: u64,
    /// Cumulative candidate set ids the spatial indexes handed to the
    /// backward scans (post-dedup), across every requirement analyzed.
    /// Reported by the engines with candidate-producing indexes (ray
    /// casting); flat per launch at fixed requirement overlap.
    pub candidates_visited: u64,
    /// Cumulative live sets the backward scans overlap-tested. The
    /// weak-scale flatness signal: tracks what launches *see*, not how
    /// many sets are alive.
    pub sets_swept: u64,
}

impl StateSize {
    /// Add one algebra's counters to the roll-up.
    pub(crate) fn add_algebra(&mut self, a: viz_geometry::AlgebraStats) {
        self.interned_spaces += a.interned;
        self.algebra_cache_entries += a.cache_entries;
        self.algebra_hits += a.hits + a.fast_hits;
        self.algebra_misses += a.misses;
    }
}

/// The four engines of this reproduction. `Paint`, `Warnock` and `RayCast`
/// are the paper's three evaluated algorithms (§5–7); `PaintNaive` is the
/// unoptimized Fig 7 baseline kept for ablation A1.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum EngineKind {
    /// The painter's algorithm exactly as in Fig 7: one global history.
    PaintNaive,
    /// The painter's algorithm with region-tree sub-histories and composite
    /// views (§5.1) — "Paint" in the figures.
    Paint,
    /// Warnock's algorithm: equivalence sets with monotonic refinement and
    /// a BVH (§6) — "Warnock" in the figures.
    Warnock,
    /// Ray casting: Warnock plus dominating writes, anchored on a
    /// disjoint-and-complete partition (§7) — "RayCast" in the figures.
    RayCast,
}

impl EngineKind {
    /// Instantiate the engine (its set algebra is the forest's).
    pub fn build(self) -> Box<dyn CoherenceEngine> {
        match self {
            EngineKind::PaintNaive => Box::new(paint_naive::PaintNaive::new()),
            EngineKind::Paint => Box::new(paint::Painter::new()),
            EngineKind::Warnock => Box::new(EqSetEngine::warnock()),
            EngineKind::RayCast => Box::new(EqSetEngine::raycast()),
        }
    }

    /// The three evaluated algorithms, in the paper's order.
    pub fn evaluated() -> [EngineKind; 3] {
        [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast]
    }

    pub fn all() -> [EngineKind; 4] {
        [
            EngineKind::PaintNaive,
            EngineKind::Paint,
            EngineKind::Warnock,
            EngineKind::RayCast,
        ]
    }

    /// Label used in the figures ("Paint", "Warnock", "RayCast").
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::PaintNaive => "PaintNaive",
            EngineKind::Paint => "Paint",
            EngineKind::Warnock => "Warnock",
            EngineKind::RayCast => "RayCast",
        }
    }

    /// Artifact system name (`paint`, `oldeqcr`, `neweqcr` in Appendix A).
    pub fn artifact_name(self) -> &'static str {
        match self {
            EngineKind::PaintNaive => "paintnaive",
            EngineKind::Paint => "paint",
            EngineKind::Warnock => "oldeqcr",
            EngineKind::RayCast => "neweqcr",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_labels_match_figures() {
        assert_eq!(EngineKind::Paint.label(), "Paint");
        assert_eq!(EngineKind::Warnock.label(), "Warnock");
        assert_eq!(EngineKind::RayCast.label(), "RayCast");
    }

    #[test]
    fn artifact_names_match_appendix() {
        assert_eq!(EngineKind::RayCast.artifact_name(), "neweqcr");
        assert_eq!(EngineKind::Warnock.artifact_name(), "oldeqcr");
        assert_eq!(EngineKind::Paint.artifact_name(), "paint");
    }

    #[test]
    fn builds_every_engine() {
        for k in EngineKind::all() {
            let e = k.build();
            assert!(!e.name().is_empty());
        }
    }
}

//! Warnock's algorithm: equivalence sets with monotonic refinement (§6).
//!
//! The state is a set of **equivalence sets** — `(region, history)` pairs
//! with the invariant that *every* operation in the history is relevant to
//! *every* point of the region (`dom(eqset) ⊆ dom(entry)` for all entries).
//! Equivalence sets are pairwise disjoint and always cover the root region.
//!
//! When a launch names a region `R` that straddles an equivalence set, the
//! set is **refined** — split into `∩R` and `\R` halves (Fig 9, line 11) —
//! and refinement is *monotonic*: sets are never merged. The history of
//! refinements forms a search tree that doubles as a BVH (§6.1); a
//! memoized list of constituent sets per named region lets steady-state
//! launches skip the root traversal.
//!
//! Because every history entry covers its whole set, the per-set visibility
//! scan needs **no geometry at all** — that is the payoff over the
//! painter's algorithm. The cost is the superlinear growth in the number of
//! sets at scale, which is exactly what dooms Warnock's initialization in
//! Figs 12–14.
//!
//! Distribution: each refined set migrates to its first user; the
//! refinement tree's inner nodes are immutable once split, so they
//! replicate on demand — but *discovery* of brand-new regions must traverse
//! from the root, whose authority lives on node 0.
//!
//! Per requirement a shard batch runs discovery (memo or root descent),
//! refinement of the straddling leaves, and the history scan; then it
//! commits every requirement. Three of those phases are written here once
//! and shared with ray casting, which is "Warnock plus dominating writes"
//! (§7): an `EqSet`'s `split` and `commit`, and the constituent-set scan
//! `scan_sets`.
//!
//! The whole refinement tree for one `(root, field)` — including its memo
//! and replication cache — is one shard. Its geometry is the root's: every
//! field tree of a root splits against the forest's `RootGeometry` for that
//! root, so a second field refining the same way sweeps nothing.

use crate::analysis::{
    group_reqs_by_shard, refine, report_algebra, ChargeSet, Refine, ReqOutcome, ShardKey,
    ShardedState,
};
use crate::engine::{CoherenceEngine, ShardCtx, StateSize};
use crate::plan::{CopyRange, MaterializePlan, ReduceRange, Source};
use crate::task::{TaskId, TaskLaunch};
use viz_geometry::{FxHashMap, FxHashSet, SpaceAlgebra, SpaceId};
use viz_region::{Privilege, RegionForest, RegionId};
use viz_sim::{ChargeLog, NodeId, Op};

/// One operation recorded in an equivalence set's history. The domain is
/// implicit: it covers the whole set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct EqEntry {
    pub task: TaskId,
    pub req: u32,
    pub privilege: Privilege,
}

/// An equivalence set as Warnock and ray casting both keep it. The domain
/// is an interned handle into the root's [`SpaceAlgebra`]: sibling sets
/// produced by the same partition share storage, and the overlap and
/// refinement tests run against it are memoized.
pub(crate) struct EqSet {
    pub domain: SpaceId,
    pub owner: NodeId,
    pub hist: Vec<EqEntry>,
}

impl EqSet {
    /// Refine (Fig 9, `refine`) a set that straddles a target into its
    /// `(inside, outside)` halves, leaving it an empty history. The split
    /// is work at the owner, batched into `charges`. The history moves to
    /// the outside half, which stays put, and is copied to the inside half,
    /// which migrates to its first user `node` (Legion moves the
    /// equivalence-set metadata to the mapped node, not the node running
    /// the analysis).
    pub(crate) fn split(
        &mut self,
        inside: SpaceId,
        outside: SpaceId,
        node: NodeId,
        charges: &mut ChargeSet,
    ) -> [EqSet; 2] {
        charges.add_refine(self.owner);
        let hist = std::mem::take(&mut self.hist);
        [
            EqSet {
                domain: inside,
                owner: node,
                hist: hist.clone(),
            },
            EqSet {
                domain: outside,
                owner: self.owner,
                hist,
            },
        ]
    }

    /// Commit (Fig 9) `entry` into this live set: a write first clears the
    /// history, keeping it precise. The append is a one-way 64-byte
    /// notification handled by the owner's message service; a mutating
    /// commit migrates the set to the task's `node`.
    pub(crate) fn commit(
        &mut self,
        entry: &EqEntry,
        node: NodeId,
        origin: NodeId,
        log: &mut ChargeLog,
    ) {
        if entry.privilege.is_write() {
            self.hist.clear();
        }
        self.hist.push(entry.clone());
        log.send(origin, self.owner, 64);
        if entry.privilege.is_mutating() {
            self.owner = node;
        }
    }
}

/// The history scan over a requirement's constituent `sets`, in order:
/// each set's [`scan_eq_history`], with its `SetTouch` + `HistScan` batched
/// at its owner into `charges`, then the base copies folded into the plan.
/// The sets must tile `target` (they do after refinement). It neither
/// flushes `charges` nor records the dependences: each engine orders those
/// against its own charges. `copies` and `fold_ids` are scratch.
pub(crate) fn scan_sets<'a>(
    sets: impl Iterator<Item = &'a EqSet> + Clone,
    target: SpaceId,
    privilege: Privilege,
    alg: &mut SpaceAlgebra,
    charges: &mut ChargeSet,
    copies: &mut Vec<(Source, SpaceId)>,
    fold_ids: &mut Vec<SpaceId>,
) -> (Vec<TaskId>, MaterializePlan) {
    // Every entry scanned yields at most one dependence.
    let entries = sets.clone().map(|s| s.hist.len()).sum();
    let mut deps = Vec::with_capacity(entries);
    let mut plan = MaterializePlan::for_privilege(privilege);
    for s in sets {
        scan_eq_history(
            &s.hist, s.domain, alg, privilege, &mut deps, &mut plan, copies,
        );
        charges.add(s.owner, Op::SetTouch);
        charges.add(
            s.owner,
            Op::HistScan {
                entries: s.hist.len(),
            },
        );
    }
    viz_profile::instant(viz_profile::EventKind::HistoryScan {
        entries: entries as u64,
    });
    plan.copies = fold_copies(alg, target, copies, fold_ids);
    (deps, plan)
}

/// Scan an equivalence set's history (newest first, no geometry): produces
/// dependences and the per-set slice of the materialization plan — the
/// pending reductions go straight into `plan`, the set's base copy onto
/// `copies` for [`fold_copies`].
///
/// Invariant exploited: commits reset the history on a write, so a history
/// is `[write?] ++ (reads | reduces)*` — everything in it is visible.
fn scan_eq_history(
    hist: &[EqEntry],
    set: SpaceId,
    alg: &SpaceAlgebra,
    privilege: Privilege,
    deps: &mut Vec<TaskId>,
    plan: &mut MaterializePlan,
    copies: &mut Vec<(Source, SpaceId)>,
) {
    let want_values = privilege.needs_current_values();
    let mut base: Option<&EqEntry> = None;
    for e in hist.iter().rev() {
        if e.privilege.interferes(privilege) {
            deps.push(e.task);
        }
        match e.privilege {
            Privilege::ReadWrite => {
                debug_assert!(
                    base.is_none(),
                    "second write below a write: broken invariant"
                );
                base = Some(e);
            }
            Privilege::Reduce(op) => {
                if want_values {
                    plan.reductions.push(ReduceRange {
                        task: e.task,
                        req: e.req,
                        redop: op,
                        domain: alg.space(set).clone(),
                    });
                }
            }
            Privilege::Read => {}
        }
    }
    if want_values {
        let source = match base {
            Some(e) => Source::Task(e.task, e.req),
            None => Source::Initial,
        };
        copies.push((source, set));
    }
}

/// Coalesce a requirement's per-set base copies by source through the
/// shard's memoized union, in exactly the order
/// [`MaterializePlan::normalize`] would (stable sort by source, left fold):
/// `normalize` then finds nothing adjacent to merge, the plan is
/// structurally what it would have built, and a steady-state launch
/// re-reading the same sets pays one memo hit per source instead of a
/// rectangle sweep per set.
///
/// The sets tile `target`, so when they all name one source the fold is
/// the target: [`SpaceAlgebra::union_all_covering`] answers it without a
/// merge when the target is a band (a whole piece read back from its
/// refined fragments).
///
/// Drains `copies`; `ids` is scratch for one fold's operand list (both keep
/// their capacity for the caller to reuse).
fn fold_copies(
    alg: &mut SpaceAlgebra,
    target: SpaceId,
    copies: &mut Vec<(Source, SpaceId)>,
    ids: &mut Vec<SpaceId>,
) -> Vec<CopyRange> {
    copies.sort_by_key(|(source, _)| source.fold_key());
    let runs = || copies.chunk_by(|a, b| a.0 == b.0);
    // Sized exactly: the plan is retained with the launch.
    let groups = runs().count();
    let mut folded = Vec::with_capacity(groups);
    folded.extend(runs().map(|run| {
        ids.clear();
        ids.extend(run.iter().map(|(_, id)| *id));
        let folded = if groups == 1 {
            alg.union_all_covering(ids, target)
        } else {
            alg.union_all(ids)
        };
        CopyRange {
            source: run[0].0.clone(),
            domain: alg.space(folded).clone(),
        }
    }));
    copies.clear();
    folded
}

/// A node in the refinement tree: an equivalence set that is either live
/// (a leaf, holding its history) or refined (holding its two halves and an
/// empty history).
struct EqNode {
    set: EqSet,
    children: Option<[u32; 2]>,
}

/// Per-(root, field) refinement tree — one shard of Warnock's state.
struct FieldTree {
    nodes: Vec<EqNode>,
    root: u32,
    /// Memoized constituent sets per named region (§6.1): node indices that
    /// were leaves when memoized; lookups descend from them, which stays
    /// correct because refinement only splits.
    memo: FxHashMap<RegionId, Vec<u32>>,
    live_leaves: usize,
    /// Inner tree nodes already replicated at a given machine node.
    replicated: FxHashSet<(u32, NodeId)>,
}

impl FieldTree {
    fn new(forest: &RegionForest, root: RegionId) -> Self {
        let set = EqSet {
            domain: forest.space(root),
            owner: 0,
            hist: Vec::new(),
        };
        FieldTree {
            nodes: vec![EqNode {
                set,
                children: None,
            }],
            root: 0,
            memo: FxHashMap::default(),
            live_leaves: 1,
            replicated: FxHashSet::default(),
        }
    }
}

/// Warnock's algorithm ("Warnock" / `oldeqcr` in the figures).
pub struct Warnock {
    shards: ShardedState<FieldTree>,
    memoize: bool,
}

impl Warnock {
    pub fn new() -> Self {
        Warnock {
            shards: ShardedState::new(),
            memoize: true,
        }
    }

    /// Disable the constituent-set memoization of §6.1 (every launch
    /// traverses from the tree root) — ablation A2.
    pub fn without_memoization() -> Self {
        Warnock {
            memoize: false,
            ..Self::new()
        }
    }
}

impl Default for Warnock {
    fn default() -> Self {
        Self::new()
    }
}

impl CoherenceEngine for Warnock {
    fn name(&self) -> &'static str {
        "warnock"
    }

    fn prepare(&mut self, launch: &TaskLaunch, ctx: &ShardCtx<'_>) -> Vec<(ShardKey, Vec<u32>)> {
        let groups = group_reqs_by_shard(launch, ctx.forest);
        for (key, _) in &groups {
            self.shards
                .get_or_insert_with(*key, ctx.forest, || FieldTree::new(ctx.forest, key.0));
        }
        groups
    }

    fn analyze_shard(
        &self,
        key: ShardKey,
        launch: &TaskLaunch,
        reqs: &[u32],
        ctx: &ShardCtx<'_>,
    ) -> Vec<ReqOutcome> {
        let origin = ctx.shards.origin(launch.node);
        let (mut tree, mut geom) = self.shards.lock(key);
        let tree: &mut FieldTree = &mut tree;
        let alg = &mut geom.alg;
        let mut outcomes: Vec<ReqOutcome> = Vec::with_capacity(reqs.len());
        let mut commits: Vec<(Vec<u32>, EqEntry)> = Vec::with_capacity(reqs.len());
        // One charge batch, flushed (and so emptied) twice per requirement:
        // after the refinements, then after the history scans.
        let mut charges = ChargeSet::new();
        let (mut copies, mut fold_ids) = (Vec::new(), Vec::new());

        for &ri in reqs {
            let req = &launch.reqs[ri as usize];
            let mut out = ReqOutcome {
                req: ri,
                ..ReqOutcome::default()
            };
            let target = ctx.forest.space(req.region);

            // ---- Discovery: find the starting nodes (memo hit) or
            // traverse from the tree root (memo miss).
            out.scan_log.op(origin, Op::Memo);
            let starts = match tree.memo.get(&req.region) {
                Some(nodes) if self.memoize => nodes.clone(),
                _ => vec![tree.root],
            };

            // ---- Descend to the live leaves overlapping the target,
            // refining straddlers (Fig 9, `refine`).
            let mut relevant: Vec<u32> = Vec::new();
            let mut stack = starts;
            let mut traversal_tests = 0usize;
            let mut refined = 0usize;
            let mut to_replicate = 0usize;
            while let Some(n) = stack.pop() {
                traversal_tests += 1;
                let node = &tree.nodes[n as usize];
                let dom = node.set.domain;
                // Each traversal step tests the target against this node's
                // (possibly heavily fragmented) domain — inner node or leaf,
                // one `overlaps` first.
                let rects = alg.space(dom).rect_count();
                out.scan_log.op(
                    origin,
                    Op::GeomOp {
                        rects: rects.min(64),
                    },
                );
                if let Some(halves) = node.children {
                    if alg.overlaps(dom, target) {
                        // Replication on demand of immutable inner nodes:
                        // the descriptors this traversal needs and has not
                        // yet cached are fetched in one batched request
                        // below.
                        if tree.replicated.insert((n, origin)) {
                            to_replicate += 1;
                        }
                        stack.extend(halves);
                    }
                    continue;
                }
                let (inside, outside) = match refine(alg, dom, target) {
                    Refine::Disjoint => continue,
                    Refine::Contained => {
                        relevant.push(n);
                        continue;
                    }
                    Refine::Split(inside, outside) => (inside, outside),
                };
                // Refinement happens at the owner of the split set; the
                // round trips for one launch are issued concurrently.
                let parent = &mut tree.nodes[n as usize].set;
                let halves = parent.split(inside, outside, launch.node, &mut charges);
                let first = tree.nodes.len() as u32;
                tree.nodes.extend(halves.map(|set| EqNode {
                    set,
                    children: None,
                }));
                tree.nodes[n as usize].children = Some([first, first + 1]);
                tree.live_leaves += 1;
                refined += 1;
                relevant.push(first);
            }
            charges.flush_into(&mut out.scan_log, origin);
            viz_profile::instant(viz_profile::EventKind::BvhTraversal {
                nodes: traversal_tests as u64,
            });
            if refined > 0 {
                viz_profile::instant(viz_profile::EventKind::EqSetRefined {
                    count: refined as u64,
                });
                viz_profile::instant(viz_profile::EventKind::EqSetCreated {
                    count: 2 * refined as u64,
                });
            }
            if to_replicate > 0 {
                // One batched fetch: the authoritative tree lives on node
                // 0, which must build and ship the descriptors.
                out.scan_log.request(
                    origin,
                    0,
                    96,
                    64 * to_replicate as u64,
                    &[Op::Replicate {
                        nodes: to_replicate,
                    }],
                );
            }

            // Memoize the (now exact) constituent sets.
            tree.memo.insert(req.region, relevant.clone());

            // ---- Materialize + dependences per constituent set, charged
            // at each set's owner (batched per owner).
            let sets = relevant.iter().map(|n| &tree.nodes[*n as usize].set);
            (out.deps, out.plan) = scan_sets(
                sets,
                target,
                req.privilege,
                alg,
                &mut charges,
                &mut copies,
                &mut fold_ids,
            );
            charges.flush_into(&mut out.scan_log, origin);
            for _ in &out.deps {
                out.scan_log.op(origin, Op::DepRecord);
            }
            outcomes.push(out);

            commits.push((
                relevant,
                EqEntry {
                    task: launch.id,
                    req: ri,
                    privilege: req.privilege,
                },
            ));
        }

        // ---- Commit (Fig 9): append to each constituent set. A
        // requirement whose scan found no sets (empty target) commits
        // nothing — the loop body simply never runs, there is no state
        // lookup left to panic on. A set another requirement of this SAME
        // launch refined after this one's scan now has halves: the entry
        // commits to its current leaves instead (their domains are subsets
        // of the refined set, so the entry stays relevant to every point —
        // dropping it would lose the access entirely).
        for (out, (mut stack, entry)) in outcomes.iter_mut().zip(commits) {
            while let Some(n) = stack.pop() {
                let node = &mut tree.nodes[n as usize];
                match node.children {
                    Some(halves) => stack.extend(halves),
                    None => node
                        .set
                        .commit(&entry, launch.node, origin, &mut out.commit_log),
                }
            }
        }
        report_algebra(&mut geom);
        outcomes
    }

    // No `collect`: refinement is monotonic, so the whole tree stays
    // reachable from the root and a sweep has nothing to reclaim.

    fn state_size(&self) -> StateSize {
        let mut size = StateSize::default();
        for (_, t) in self.shards.iter() {
            size.equivalence_sets += t.live_leaves;
            size.index_nodes += t.nodes.len();
            size.memo_entries += t.memo.values().map(Vec::len).sum::<usize>();
            // (A refined node's history is empty.)
            size.history_entries += t.nodes.iter().map(|n| n.set.hist.len()).sum::<usize>();
        }
        self.shards.add_algebra_stats(&mut size);
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnalysisCtx;
    use crate::plan::AnalysisResult;
    use crate::sharding::ShardMap;
    use crate::task::RegionRequirement;
    use viz_geometry::IndexSpace;
    use viz_region::{FieldId, RedOpRegistry};
    use viz_sim::Machine;

    struct Fixture {
        forest: RegionForest,
        field: FieldId,
        machine: Machine,
        shards: ShardMap,
        eng: Warnock,
        next: u32,
    }

    fn fixture_with(build: impl FnOnce(&mut RegionForest, RegionId)) -> (Fixture, RegionId) {
        let mut forest = RegionForest::new();
        let n = forest.create_root("N", IndexSpace::span(0, 29));
        let field = forest.add_field(n, "up");
        build(&mut forest, n);
        (
            Fixture {
                forest,
                field,
                machine: Machine::new(1),
                shards: ShardMap::new(1, false),
                eng: Warnock::new(),
                next: 0,
            },
            n,
        )
    }

    impl Fixture {
        fn next_launch(&mut self, region: RegionId, privilege: Privilege) -> TaskLaunch {
            let id = self.next;
            self.next += 1;
            TaskLaunch {
                id: TaskId(id),
                name: format!("t{id}"),
                node: 0,
                reqs: vec![RegionRequirement::new(region, self.field, privilege)],
                duration_ns: 0,
            }
        }

        /// This fixture's forest with another engine's `machine`.
        fn ctx<'a>(&'a self, machine: &'a mut Machine) -> AnalysisCtx<'a> {
            AnalysisCtx {
                forest: &self.forest,
                machine,
                shards: &self.shards,
            }
        }

        fn analyze(&mut self, launch: &TaskLaunch) -> AnalysisResult {
            let mut ctx = AnalysisCtx {
                forest: &self.forest,
                machine: &mut self.machine,
                shards: &self.shards,
            };
            self.eng.analyze(launch, &mut ctx)
        }

        fn launch(&mut self, region: RegionId, privilege: Privilege) -> AnalysisResult {
            let launch = self.next_launch(region, privilege);
            self.analyze(&launch)
        }
    }

    /// The paper's running example (Fig 1): pieces `P` and ghosts `G` of
    /// `N = [0, 29]`.
    fn paper_partitions(f: &mut RegionForest, n: RegionId) {
        f.create_partition(
            n,
            "P",
            vec![
                IndexSpace::span(0, 9),
                IndexSpace::span(10, 19),
                IndexSpace::span(20, 29),
            ],
        );
        f.create_partition(
            n,
            "G",
            vec![
                IndexSpace::from_points([10, 11, 20].map(viz_geometry::Point::p1)),
                IndexSpace::from_points([8, 9, 20, 21].map(viz_geometry::Point::p1)),
                IndexSpace::from_points([9, 18, 19].map(viz_geometry::Point::p1)),
            ],
        );
    }

    /// Fig 10's refinement cascade: the primary pieces refine the root into
    /// three sets; ghost accesses refine further; repeating the loop adds
    /// no new sets.
    #[test]
    fn fig10_refinement_then_steady_state() {
        let (mut fx, n) = fixture_with(paper_partitions);
        let p = fx.forest.partitions_of(n)[0];
        let g = fx.forest.partitions_of(n)[1];
        let sum = Privilege::Reduce(RedOpRegistry::SUM);

        // t0-t2: the primary writes refine N into the three pieces.
        for i in 0..3 {
            fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
        }
        assert_eq!(fx.eng.state_size().equivalence_sets, 3);
        // t3-t5: ghost reductions split piece interiors from halo cells.
        for i in 0..3 {
            fx.launch(fx.forest.subregion(g, i), sum);
        }
        let after_first_iter = fx.eng.state_size().equivalence_sets;
        assert!(
            after_first_iter > 3,
            "ghost aliasing must refine further: {after_first_iter}"
        );
        // Subsequent iterations: "no further refinements are needed".
        for _ in 0..3 {
            for i in 0..3 {
                fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
            }
            for i in 0..3 {
                fx.launch(fx.forest.subregion(g, i), sum);
            }
        }
        assert_eq!(
            fx.eng.state_size().equivalence_sets,
            after_first_iter,
            "Warnock's sets are stable after the partitions are discovered"
        );
    }

    #[test]
    fn dependences_match_paper_example() {
        let (mut fx, n) = fixture_with(paper_partitions);
        let p = fx.forest.partitions_of(n)[0];
        let g = fx.forest.partitions_of(n)[1];
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        for i in 0..3 {
            fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
        }
        let r3 = fx.launch(fx.forest.subregion(g, 0), sum);
        assert_eq!(r3.deps, vec![TaskId(1), TaskId(2)]);
        let r4 = fx.launch(fx.forest.subregion(g, 1), sum);
        assert_eq!(r4.deps, vec![TaskId(0), TaskId(2)]);
        let r5 = fx.launch(fx.forest.subregion(g, 2), sum);
        assert_eq!(r5.deps, vec![TaskId(0), TaskId(1)]);
        // Second loop entry: t6 = rw P[0] depends on the ghost reducers
        // overlapping P[0] (t4 on 8,9 and t5 on 9) plus its old write t0.
        let r6 = fx.launch(fx.forest.subregion(p, 0), Privilege::ReadWrite);
        assert_eq!(r6.deps, vec![TaskId(0), TaskId(4), TaskId(5)]);
    }

    /// The geometry is the root's: a second field of `N` running the same
    /// ghost/write loop as `up` sweeps no pair and interns no space, and
    /// each field's results are those of a fresh single-field engine.
    #[test]
    fn second_field_of_a_root_is_free() {
        let (mut fx, n) = fixture_with(paper_partitions);
        let (p, g) = (fx.forest.partitions_of(n)[0], fx.forest.partitions_of(n)[1]);
        let dn = fx.forest.add_field(n, "dn");
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let mut geometry = Vec::new();
        for field in [fx.field, dn] {
            fx.field = field;
            let (mut alone, mut machine) = (Warnock::new(), Machine::new(1));
            for _ in 0..3 {
                for (part, privilege) in [(p, Privilege::ReadWrite), (g, sum)] {
                    for i in 0..3 {
                        let launch = fx.next_launch(fx.forest.subregion(part, i), privilege);
                        let expect = alone.analyze(&launch, &mut fx.ctx(&mut machine));
                        assert_eq!(fx.analyze(&launch), expect);
                    }
                }
            }
            let size = fx.eng.state_size();
            geometry.push((size.algebra_misses, size.interned_spaces));
        }
        assert!(geometry[0].0 > 0, "the loop never reached the memo");
        assert_eq!(
            geometry[0], geometry[1],
            "(misses, interned) after each field"
        );
    }

    #[test]
    fn write_resets_histories() {
        let (mut fx, n) = fixture_with(|_, _| {});
        fx.launch(n, Privilege::ReadWrite);
        fx.launch(n, Privilege::Read);
        fx.launch(n, Privilege::Read);
        assert_eq!(fx.eng.state_size().history_entries, 3);
        fx.launch(n, Privilege::ReadWrite);
        assert_eq!(
            fx.eng.state_size().history_entries,
            1,
            "the write cleared the prior history (Fig 9 lines 30-31)"
        );
    }

    #[test]
    fn plan_covers_target_exactly() {
        let (mut fx, n) = fixture_with(|f, n| {
            f.create_equal_partition_1d(n, "P", 3);
        });
        let p = fx.forest.partitions_of(n)[0];
        // Write only piece 0; read the root: base must be piece-0's write
        // plus Initial for the rest.
        fx.launch(fx.forest.subregion(p, 0), Privilege::ReadWrite);
        let r = fx.launch(n, Privilege::Read);
        let total: u64 = r.plans[0].copies.iter().map(|c| c.domain.volume()).sum();
        assert_eq!(total, 30, "copies cover the whole root");
        let from_init: u64 = r.plans[0]
            .copies
            .iter()
            .filter(|c| c.source == Source::Initial)
            .map(|c| c.domain.volume())
            .sum();
        assert_eq!(from_init, 20);
    }

    #[test]
    fn memoization_survives_refinement() {
        let (mut fx, n) = fixture_with(|f, n| {
            f.create_equal_partition_1d(n, "P", 2);
        });
        let p = fx.forest.partitions_of(n)[0];
        let p0 = fx.forest.subregion(p, 0);
        // Touch the root (memoizes [root set]); then refine through P; then
        // the root again — its memo must resolve through the refined tree.
        fx.launch(n, Privilege::ReadWrite);
        fx.launch(p0, Privilege::ReadWrite);
        let r = fx.launch(n, Privilege::Read);
        let total: u64 = r.plans[0].copies.iter().map(|c| c.domain.volume()).sum();
        assert_eq!(total, 30);
        assert_eq!(r.deps.len(), 2, "depends on both prior writes");
    }

    /// Regression (commit path): a requirement whose scan finds *no*
    /// relevant sets — here an empty region — must commit as a no-op. The
    /// seed committed through `self.trees.get_mut(&key).unwrap()` keyed
    /// off state the scan was assumed to have created.
    #[test]
    fn commit_with_no_relevant_sets_is_a_noop() {
        let (mut fx, n) = fixture_with(|f, n| {
            f.create_partition(n, "E", vec![IndexSpace::empty(), IndexSpace::span(0, 29)]);
        });
        let e = fx.forest.partitions_of(n)[0];
        let empty = fx.forest.subregion(e, 0);
        let r = fx.launch(empty, Privilege::ReadWrite);
        assert!(r.deps.is_empty());
        assert!(r.plans[0].copies.is_empty(), "nothing to materialize");
        // The root set is untouched, and a follow-up full write still works.
        assert_eq!(fx.eng.state_size().equivalence_sets, 1);
        let r2 = fx.launch(n, Privilege::ReadWrite);
        assert!(r2.deps.is_empty(), "empty-region write left no history");
    }
}

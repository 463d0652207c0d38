//! The painter's algorithm with region-tree acceleration (paper §5.1).
//!
//! Instead of one global history, each region-tree node keeps a
//! *sub-history*, and the history relevant to a region `R` is found along
//! the path from the root to `R`. The invariant: materializing the **path
//! history** (the concatenation of the histories on the root→R path, views
//! expanded in place) equals the naive painter's result.
//!
//! When a task with region `R` and privilege `p` is launched:
//!
//! 1. For every ancestor `A` of `R` and every partition `Q` of `A` whose
//!    subtree is *open* (has recorded entries), *may interfere* with `p`
//!    (privilege summary), and *overlaps* `R`: the subtree is **closed** —
//!    its histories are captured into an immutable [`CompositeView`]
//!    appended to `A`'s history, and deleted from the subtree. For the
//!    partition on `R`'s own path, the path child is exempted (its entries
//!    stay on the path and remain correctly ordered).
//! 2. The backward visibility scan runs over the path history, newest
//!    first: `R`'s entries, then up the tree, expanding views (and nested
//!    views) in reverse capture order.
//! 3. `⟨p, R⟩` is appended to `R`'s sub-history; a full write prunes the
//!    entries it occludes (§5.1's occlusion rule).
//!
//! Distribution: node states live on first-touch owners; composite views
//! are built with one gather message per remote captured node, are owned by
//! the ancestor's owner, and are *replicated on demand* — the first scan
//! from a node fetches the view, later scans are local. The one root is the
//! scalability sore spot the paper observes (§8.1).
//!
//! All of a tree's per-node state for one field lives in a single
//! `PaintShard`: the walk, closes and view bookkeeping of one requirement
//! never leave its `(root, field)` shard, which is what lets the sharded
//! driver scan distinct shards concurrently.

use crate::analysis::history::{HistEntry, VisScan};
use crate::analysis::{group_reqs_by_shard, ChargeSet, ReqOutcome, ShardKey, ShardedState};
use crate::engine::{CoherenceEngine, GcSweep, ShardCtx, StateSize};
use crate::sharding::ShardMap;
use crate::task::TaskLaunch;
use std::sync::Arc;
use viz_geometry::{FxHashMap, FxHashSet, IndexSpace, Rect, SpaceAlgebra};
use viz_region::privilege::PrivilegeSummary;
use viz_region::{PartitionId, RegionForest, RegionId};
use viz_sim::{NodeId, Op};

#[derive(Clone)]
enum PathEntry {
    Task(HistEntry),
    View(Arc<CompositeView>),
}

/// An immutable snapshot of a closed subtree (§5.1).
pub struct CompositeView {
    id: u64,
    /// `(region, entries)` in DFS preorder of the captured subtree.
    nodes: Vec<(RegionId, Vec<PathEntry>)>,
    /// Bounding box of all captured entry domains (a conservative
    /// prefilter; the entries keep their exact domains).
    bbox: Rect,
    /// Union of captured *write* domains — what this view occludes.
    write_domain: IndexSpace,
    summary: PrivilegeSummary,
    /// Task entries captured, including those inside nested views.
    entries: usize,
    /// Composite views captured, counting this view itself and every view
    /// nested (transitively) inside it — what occluding this view removes
    /// from the alive-view count.
    views: usize,
}

struct NodeState {
    hist: Vec<PathEntry>,
    /// Bounding box of this node's own entry domains (conservative under
    /// pruning — metadata only, never used for plans or dependences).
    own_bbox: Rect,
    own_summary: PrivilegeSummary,
}

impl Default for NodeState {
    fn default() -> Self {
        NodeState {
            hist: Vec::new(),
            own_bbox: Rect::EMPTY,
            own_summary: PrivilegeSummary::EMPTY,
        }
    }
}

impl NodeState {
    fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }
}

/// Aggregate over a subtree, for the open/interference/overlap test.
struct SubtreeAgg {
    summary: PrivilegeSummary,
    bbox: Rect,
    entries: usize,
    /// Owners of the captured nodes (for gather-message pricing).
    owners: Vec<NodeId>,
}

impl Default for SubtreeAgg {
    fn default() -> Self {
        SubtreeAgg {
            summary: PrivilegeSummary::EMPTY,
            bbox: Rect::EMPTY,
            entries: 0,
            owners: Vec::new(),
        }
    }
}

impl SubtreeAgg {
    fn open(&self) -> bool {
        self.entries > 0
    }
}

/// One `(root, field)` shard of the painter's state: the sub-histories of
/// every node in that root's region tree for that field, plus the view
/// bookkeeping (ids, alive counts, replication cache), all of which is
/// tree-local.
#[derive(Default)]
struct PaintShard {
    nodes: FxHashMap<RegionId, NodeState>,
    /// Children of a partition with non-empty subtree state.
    touched: FxHashMap<PartitionId, Vec<RegionId>>,
    next_view: u64,
    views_alive: usize,
    entries_alive: usize,
    /// `(view id, node)` pairs already replicated.
    fetched: FxHashSet<(u64, NodeId)>,
}

impl PaintShard {
    /// Aggregate the state of `region`'s subtree (visiting only touched
    /// nodes).
    fn subtree_agg(
        &self,
        forest: &RegionForest,
        region: RegionId,
        agg: &mut SubtreeAgg,
        shards: &ShardMap,
        task: u32,
    ) {
        if let Some(ns) = self.nodes.get(&region) {
            if !ns.is_empty() {
                agg.summary.merge(ns.own_summary);
                agg.bbox = agg.bbox.union_bbox(&ns.own_bbox);
                agg.entries += ns.hist.len();
                agg.owners.push(shards.owner(region, task));
            }
        }
        for q in forest.partitions_of(region) {
            if let Some(kids) = self.touched.get(q) {
                for k in kids.clone() {
                    self.subtree_agg(forest, k, agg, shards, task);
                }
            }
        }
    }

    /// Capture and clear `region`'s subtree into `out` (DFS preorder).
    fn capture(
        &mut self,
        forest: &RegionForest,
        region: RegionId,
        out: &mut Vec<(RegionId, Vec<PathEntry>)>,
    ) {
        if let Some(ns) = self.nodes.get_mut(&region) {
            if !ns.is_empty() {
                let hist = std::mem::take(&mut ns.hist);
                ns.own_bbox = Rect::EMPTY;
                ns.own_summary = PrivilegeSummary::EMPTY;
                out.push((region, hist));
            }
        }
        for q in forest.partitions_of(region).to_vec() {
            if let Some(kids) = self.touched.remove(&q) {
                for k in kids {
                    self.capture(forest, k, out);
                }
            }
        }
    }

    /// Close the given children of partition `q` into a composite view.
    fn close_children(
        &mut self,
        forest: &RegionForest,
        q: PartitionId,
        children: &[RegionId],
        keep: Option<RegionId>,
        alg: &mut SpaceAlgebra,
    ) -> Option<Arc<CompositeView>> {
        let mut nodes = Vec::new();
        for c in children {
            if Some(*c) == keep {
                continue;
            }
            self.capture(forest, *c, &mut nodes);
        }
        // Update the partition's touched list: drop the captured children.
        if let Some(kids) = self.touched.get_mut(&q) {
            kids.retain(|k| Some(*k) == keep || !children.contains(k));
            if kids.is_empty() {
                self.touched.remove(&q);
            }
        }
        if nodes.is_empty() {
            return None;
        }
        let mut bbox = Rect::EMPTY;
        let mut write_domain = IndexSpace::empty();
        let mut summary = PrivilegeSummary::EMPTY;
        let mut entries = 0;
        let mut views = 1; // this view itself
        for (_, hist) in &nodes {
            for e in hist {
                match e {
                    PathEntry::Task(h) => {
                        entries += 1;
                        bbox = bbox.union_bbox(&h.domain.bbox());
                        if h.privilege.is_write() {
                            write_domain = alg.union_spaces(&write_domain, &h.domain);
                        }
                        summary.add(h.privilege);
                    }
                    PathEntry::View(v) => {
                        entries += v.entries;
                        views += v.views;
                        bbox = bbox.union_bbox(&v.bbox);
                        write_domain = alg.union_spaces(&write_domain, &v.write_domain);
                        summary.merge(v.summary);
                    }
                }
            }
        }
        let id = self.next_view;
        self.next_view += 1;
        self.views_alive += 1;
        Some(Arc::new(CompositeView {
            id,
            nodes,
            bbox,
            write_domain,
            summary,
            entries,
            views,
        }))
    }

    /// Append an entry to a node's history, applying the occlusion-pruning
    /// rule for full writes. Returns geometry ops performed.
    fn append(&mut self, region: RegionId, entry: PathEntry, alg: &mut SpaceAlgebra) -> usize {
        let mut geom = 0;
        let (bbox, summary_priv, write_domain) = match &entry {
            PathEntry::Task(h) => (
                h.domain.bbox(),
                Some(h.privilege),
                if h.privilege.is_write() {
                    Some(h.domain.clone())
                } else {
                    None
                },
            ),
            PathEntry::View(v) => (
                v.bbox,
                None,
                if v.write_domain.is_empty() {
                    None
                } else {
                    Some(v.write_domain.clone())
                },
            ),
        };
        // Task entries are counted once, when first committed; a view's
        // entries were already counted at their original nodes and merely
        // moved, so appending a view adds nothing.
        let is_task = matches!(&entry, PathEntry::Task(_));
        let mut dropped_entries = 0usize;
        let mut dropped_views = 0usize;
        let ns = self.nodes.entry(region).or_default();
        if let Some(wd) = &write_domain {
            ns.hist.retain(|old| {
                geom += 1;
                let occluded = match old {
                    PathEntry::Task(h) => alg.contains_spaces(wd, &h.domain),
                    // Conservative: prune a view only when the write
                    // covers its whole bounding box.
                    PathEntry::View(v) => alg.contains_spaces(wd, &IndexSpace::from_rect(v.bbox)),
                };
                if occluded {
                    match old {
                        PathEntry::Task(_) => dropped_entries += 1,
                        // A pruned view takes every nested view with it.
                        PathEntry::View(v) => {
                            dropped_views += v.views;
                            dropped_entries += v.entries;
                        }
                    }
                }
                !occluded
            });
        }
        if let Some(p) = summary_priv {
            ns.own_summary.add(p);
        } else if let PathEntry::View(v) = &entry {
            ns.own_summary.merge(v.summary);
        }
        ns.own_bbox = ns.own_bbox.union_bbox(&bbox);
        ns.hist.push(entry);
        self.entries_alive -= dropped_entries;
        self.views_alive -= dropped_views;
        if is_task {
            self.entries_alive += 1;
        }
        geom
    }

    /// Mark `region` as touched under its parent partition, up the path.
    fn mark_touched(&mut self, forest: &RegionForest, region: RegionId) {
        let mut cur = region;
        while let Some(q) = forest.parent_partition(cur) {
            let kids = self.touched.entry(q).or_default();
            if !kids.contains(&cur) {
                kids.push(cur);
            }
            cur = forest.parent_region(q);
        }
    }

    /// Reverse scan of one view (nested views expanded), newest first.
    fn scan_view(view: &CompositeView, scan: &mut VisScan) {
        for (_, hist) in view.nodes.iter().rev() {
            for e in hist.iter().rev() {
                if scan.done() {
                    return;
                }
                match e {
                    PathEntry::Task(h) => scan.visit(h),
                    PathEntry::View(v) => Self::scan_view(v, scan),
                }
            }
        }
    }
}

/// The optimized painter's algorithm ("Paint" in the figures).
#[derive(Default)]
pub struct Painter {
    shards: ShardedState<PaintShard>,
}

impl Painter {
    pub fn new() -> Self {
        Self::default()
    }
}

impl CoherenceEngine for Painter {
    fn name(&self) -> &'static str {
        "paint"
    }

    fn prepare(&mut self, launch: &TaskLaunch, ctx: &ShardCtx<'_>) -> Vec<(ShardKey, Vec<u32>)> {
        let groups = group_reqs_by_shard(launch, ctx.forest);
        for (key, _) in &groups {
            self.shards
                .get_or_insert_with(*key, ctx.forest, PaintShard::default);
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
        // Occlusion containment tests and view capture's write-domain
        // unions go through the root geometry's algebra.
        let (mut shard, mut geom) = self.shards.lock(key);
        let mut outcomes: Vec<ReqOutcome> = Vec::with_capacity(reqs.len());
        let mut commits: Vec<(RegionId, HistEntry)> = Vec::with_capacity(reqs.len());

        for &ri in reqs {
            let req = &launch.reqs[ri as usize];
            let mut out = ReqOutcome {
                req: ri,
                ..ReqOutcome::default()
            };
            let r_domain = ctx.forest.domain(req.region).clone();
            let r_bbox = r_domain.bbox();
            let path = ctx.forest.path_from_root(req.region);
            // The logical-state walk along the path (version/open-close
            // bookkeeping at every node).
            out.scan_log.op(origin, Op::PaintWalk { nodes: path.len() });

            // ---- Phase 1: close interfering open subtrees along the path.
            for (k, a) in path.iter().enumerate() {
                let next_on_path = path.get(k + 1).copied();
                let owner_a = ctx.shards.owner(*a, launch.id.0);
                for q in ctx.forest.partitions_of(*a).to_vec() {
                    let Some(kids) = shard.touched.get(&q).cloned() else {
                        continue;
                    };
                    let keep = next_on_path.filter(|n| kids.contains(n));
                    // Test each child subtree individually — §5.1's "skip
                    // creating composite views for subtrees that are closed
                    // or only have histories with privileges that do not
                    // interfere". The path child is exempt (its entries stay
                    // correctly ordered on the path).
                    let mut to_close: Vec<RegionId> = Vec::new();
                    let mut agg = SubtreeAgg::default();
                    for c in &kids {
                        if Some(*c) == keep {
                            continue;
                        }
                        let mut child_agg = SubtreeAgg::default();
                        shard.subtree_agg(ctx.forest, *c, &mut child_agg, ctx.shards, launch.id.0);
                        // Per-child open/summary/bbox test: cheap metadata.
                        out.scan_log.op(origin, Op::HistScan { entries: 1 });
                        if child_agg.open()
                            && child_agg.summary.may_interfere(req.privilege)
                            && child_agg.bbox.overlaps(&r_bbox)
                        {
                            to_close.push(*c);
                            agg.summary.merge(child_agg.summary);
                            agg.entries += child_agg.entries;
                            agg.owners.extend(child_agg.owners);
                        }
                    }
                    if to_close.is_empty() {
                        continue;
                    }
                    // Close: capture the interfering subtrees bottom-up into
                    // one view, one gather message per remote captured node.
                    let closed =
                        shard.close_children(ctx.forest, q, &to_close, keep, &mut geom.alg);
                    if let Some(view) = closed {
                        for o in &agg.owners {
                            if *o != owner_a {
                                out.scan_log
                                    .send(*o, owner_a, 64 + 24 * (view.entries as u64));
                            }
                        }
                        out.scan_log.op(
                            owner_a,
                            Op::ViewCreate {
                                entries: view.entries,
                            },
                        );
                        shard.fetched.insert((view.id, owner_a));
                        let rects = shard.append(*a, PathEntry::View(view), &mut geom.alg);
                        out.scan_log.op(owner_a, Op::GeomOp { rects });
                        shard.mark_touched(ctx.forest, *a);
                    }
                }
            }

            // ---- Phase 2: backward visibility scan over the path history.
            let mut scan = VisScan::new(r_domain.clone(), req.privilege);
            let mut charges = ChargeSet::new();
            for a in path.iter().rev() {
                if scan.done() {
                    break;
                }
                let owner_a = ctx.shards.owner(*a, launch.id.0);
                let mut scanned_here = 0usize;
                let mut view_fetches: Vec<(u64, usize)> = Vec::new();
                if let Some(ns) = shard.nodes.get(a) {
                    for e in ns.hist.iter().rev() {
                        if scan.done() {
                            break;
                        }
                        match e {
                            PathEntry::Task(h) => {
                                scan.visit(h);
                                scanned_here += 1;
                            }
                            PathEntry::View(v) => {
                                scanned_here += 1;
                                // Bounding-box prefilter before expanding.
                                if v.bbox.overlaps(&scan.needed().bbox()) {
                                    if !shard.fetched.contains(&(v.id, origin)) {
                                        view_fetches.push((v.id, v.entries));
                                    }
                                    PaintShard::scan_view(v, &mut scan);
                                }
                            }
                        }
                    }
                }
                // Replication on demand: first use of a view at this origin
                // fetches it from the owner.
                for (vid, entries) in view_fetches {
                    shard.fetched.insert((vid, origin));
                    if owner_a != origin {
                        out.scan_log
                            .request(origin, owner_a, 96, 64 + 24 * entries as u64, &[]);
                    }
                }
                if scanned_here > 0 {
                    charges.add(
                        owner_a,
                        Op::HistScan {
                            entries: scanned_here,
                        },
                    );
                }
            }
            charges.add(
                origin,
                Op::GeomOp {
                    rects: scan.geom_ops,
                },
            );
            let (deps, plan) = scan.finish();
            for _ in &deps {
                out.scan_log.op(origin, Op::DepRecord);
            }
            charges.flush_into(&mut out.scan_log, origin);
            out.deps = deps;
            out.plan = plan;
            outcomes.push(out);

            commits.push((
                req.region,
                HistEntry {
                    task: launch.id,
                    req: ri,
                    privilege: req.privilege,
                    domain: r_domain,
                },
            ));
        }

        // ---- Phase 3: commit all requirement results.
        for (out, (region, entry)) in outcomes.iter_mut().zip(commits) {
            let owner_r = ctx.shards.owner(region, launch.id.0);
            out.commit_log.send(origin, owner_r, 96);
            let rects = shard.append(region, PathEntry::Task(entry), &mut geom.alg);
            out.commit_log.op(owner_r, Op::GeomOp { rects });
            out.commit_log.op(owner_r, Op::HistScan { entries: 1 });
            shard.mark_touched(ctx.forest, region);
        }
        outcomes
    }

    /// Occlusion pruning already drops dead views (their `Arc`s are freed
    /// when the last referencing entry goes), but two side tables outlive
    /// them: the `fetched` replication cache keeps `(view, node)` pairs for
    /// views that no longer exist, and captured/pruned regions keep empty
    /// `NodeState` records. Both are invisible to future scans — a missing
    /// `fetched` pair for a dead view is never consulted (the view cannot
    /// be scanned again), and an absent node state behaves exactly like an
    /// empty one — so dropping them is behavior-preserving.
    fn collect(&mut self, _floor: crate::task::TaskId) -> GcSweep {
        fn alive_view_ids(entries: &[PathEntry], out: &mut FxHashSet<u64>) {
            for e in entries {
                if let PathEntry::View(v) = e {
                    if out.insert(v.id) {
                        for (_, hist) in &v.nodes {
                            alive_view_ids(hist, out);
                        }
                    }
                }
            }
        }
        let mut sweep = GcSweep::default();
        for (_, shard) in self.shards.iter_mut() {
            let before_nodes = shard.nodes.len();
            shard.nodes.retain(|_, ns| !ns.is_empty());
            sweep.index_nodes += before_nodes - shard.nodes.len();
            let mut alive = FxHashSet::default();
            for ns in shard.nodes.values() {
                alive_view_ids(&ns.hist, &mut alive);
            }
            let before_fetched = shard.fetched.len();
            shard.fetched.retain(|(vid, _)| alive.contains(vid));
            sweep.memo_entries += before_fetched - shard.fetched.len();
        }
        sweep
    }

    fn state_size(&self) -> StateSize {
        let mut size = StateSize::default();
        for (_, shard) in self.shards.iter() {
            size.history_entries += shard.entries_alive;
            size.composite_views += shard.views_alive;
            // Replicated-view bookkeeping is the painter's only cache.
            size.memo_entries += shard.fetched.len();
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
    use crate::task::{RegionRequirement, TaskId};
    use viz_region::{FieldId, Privilege, RedOpRegistry};
    use viz_sim::Machine;

    struct Fixture {
        forest: RegionForest,
        field_up: FieldId,
        p: PartitionId,
        g: PartitionId,
        machine: Machine,
        shards: ShardMap,
        eng: Painter,
        next: u32,
    }

    /// The running-example region tree (Figs 1-2): N with disjoint P and
    /// aliased G partitions, one field `up`.
    fn fixture() -> Fixture {
        let mut forest = RegionForest::new();
        let n = forest.create_root("N", IndexSpace::span(0, 29));
        let field_up = forest.add_field(n, "up");
        let p = forest.create_partition(
            n,
            "P",
            vec![
                IndexSpace::span(0, 9),
                IndexSpace::span(10, 19),
                IndexSpace::span(20, 29),
            ],
        );
        let g = forest.create_partition(
            n,
            "G",
            vec![
                IndexSpace::from_points([10, 11, 20].map(viz_geometry::Point::p1)),
                IndexSpace::from_points([8, 9, 20, 21].map(viz_geometry::Point::p1)),
                IndexSpace::from_points([9, 18, 19].map(viz_geometry::Point::p1)),
            ],
        );
        Fixture {
            forest,
            field_up,
            p,
            g,
            machine: Machine::new(1),
            shards: ShardMap::new(1, false),
            eng: Painter::new(),
            next: 0,
        }
    }

    impl Fixture {
        fn launch(&mut self, region: RegionId, privilege: Privilege) -> AnalysisResult {
            let id = self.next;
            self.next += 1;
            let launch = TaskLaunch {
                id: TaskId(id),
                name: format!("t{id}"),
                node: 0,
                ctx: 0,
                reqs: vec![RegionRequirement::new(region, self.field_up, privilege)],
                duration_ns: 0,
            };
            let mut ctx = AnalysisCtx {
                forest: &self.forest,
                machine: &mut self.machine,
                shards: &self.shards,
            };
            self.eng.analyze(&launch, &mut ctx)
        }
    }

    /// The paper's Fig 8 schedule of composite views on the `up` field:
    /// writes through P create no views (P disjoint); the first ghost
    /// reduction closes P's subtree (V0); the next iteration's first write
    /// closes G's subtree (V1).
    #[test]
    fn fig8_composite_view_schedule() {
        let mut fx = fixture();
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        // t0-t2: rw on P[i].up — no views.
        for i in 0..3 {
            let piece = fx.forest.subregion(fx.p, i);
            fx.launch(piece, Privilege::ReadWrite);
        }
        assert_eq!(fx.eng.state_size().composite_views, 0);
        // t3: reduce G[0].up — closes the interfering P subtrees into V0.
        // (Our implementation applies §5.1's skip-non-interfering rule per
        // child, so V0 captures P[1] and P[2] — the pieces G[0] overlaps —
        // while the paper's Fig 8 illustration captures all of P.)
        let g0 = fx.forest.subregion(fx.g, 0);
        let r3 = fx.launch(g0, sum);
        assert_eq!(fx.eng.state_size().composite_views, 1, "V0 created");
        // t3 depends on the overlapping P writers (P[1], P[2] overlap G[0]).
        assert_eq!(r3.deps, vec![TaskId(1), TaskId(2)]);
        // t4: same reduction op as t3 — the G entries need no close, but
        // t4's overlap with the still-open P[0] write closes it (V1).
        let g1 = fx.forest.subregion(fx.g, 1);
        let g2 = fx.forest.subregion(fx.g, 2);
        let r4 = fx.launch(g1, sum);
        assert_eq!(fx.eng.state_size().composite_views, 2, "P[0] closed");
        // t5: everything it overlaps is already closed — no new views.
        let r5 = fx.launch(g2, sum);
        assert_eq!(fx.eng.state_size().composite_views, 2);
        assert_eq!(
            r4.deps,
            vec![TaskId(0), TaskId(2)],
            "G[1] overlaps P[0], P[2]"
        );
        assert_eq!(r5.deps, vec![TaskId(0), TaskId(1)]);
        // t6: rw P[0].up (next iteration) — closes the G subtree (V2).
        let p0 = fx.forest.subregion(fx.p, 0);
        let r6 = fx.launch(p0, Privilege::ReadWrite);
        assert_eq!(fx.eng.state_size().composite_views, 3, "G closed");
        // t6 overwrites its old value (t0) and values reduced by the ghost
        // tasks overlapping P[0] (t4 and t5).
        assert_eq!(r6.deps, vec![TaskId(0), TaskId(4), TaskId(5)]);
    }

    #[test]
    fn disjoint_partition_needs_no_views() {
        let mut fx = fixture();
        for iter in 0..4 {
            for i in 0..3 {
                let piece = fx.forest.subregion(fx.p, i);
                let r = fx.launch(piece, Privilege::ReadWrite);
                if iter == 0 {
                    assert!(r.deps.is_empty());
                } else {
                    // Each piece depends only on its own previous writer.
                    assert_eq!(r.deps.len(), 1, "iter {iter} piece {i}: {:?}", r.deps);
                }
            }
        }
        assert_eq!(fx.eng.state_size().composite_views, 0);
    }

    #[test]
    fn occlusion_pruning_bounds_state_in_steady_loop() {
        let mut fx = fixture();
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let mut peak = 0;
        for _ in 0..6 {
            for i in 0..3 {
                fx.launch(fx.forest.subregion(fx.p, i), Privilege::ReadWrite);
            }
            for i in 0..3 {
                fx.launch(fx.forest.subregion(fx.g, i), sum);
            }
            peak = peak.max(fx.eng.state_size().history_entries);
        }
        let final_size = fx.eng.state_size().history_entries;
        assert!(
            final_size <= peak && final_size <= 24,
            "steady state must not grow unboundedly: {final_size} entries"
        );
    }

    #[test]
    fn plan_reads_through_different_partition() {
        let mut fx = fixture();
        // Write the whole region through P, then read through G: the read
        // must source from the P writers.
        for i in 0..3 {
            fx.launch(fx.forest.subregion(fx.p, i), Privilege::ReadWrite);
        }
        let g0 = fx.forest.subregion(fx.g, 0);
        let r = fx.launch(g0, Privilege::Read);
        assert_eq!(r.deps, vec![TaskId(1), TaskId(2)]);
        let total: u64 = r.plans[0].copies.iter().map(|c| c.domain.volume()).sum();
        assert_eq!(total, 3, "G[0] has 3 points, all covered by P writes");
        assert!(r.plans[0]
            .copies
            .iter()
            .all(|c| c.source != crate::plan::Source::Initial));
    }

    /// Regression (commit-path accounting): a full write over a node whose
    /// history is entirely occluded — including a composite view that
    /// *nests* another view — must prune the whole stack and leave the
    /// alive counts consistent. The seed code counted only the top-level
    /// view when pruning (leaking `composite_views`) and re-looked-up the
    /// just-pushed entry with `hist.last().unwrap()`.
    #[test]
    fn full_write_over_occluded_node_clears_view_accounting() {
        // A three-level tree: N ⊃ P{P0,P1}, P0 ⊃ Q{Q0,Q1}, plus an aliased
        // partition G of N overlapping P0 — deep enough for a view captured
        // at P0 to be nested inside a later view at N.
        let mut forest = RegionForest::new();
        let n = forest.create_root("N", IndexSpace::span(0, 29));
        let f = forest.add_field(n, "v");
        let p = forest.create_partition(
            n,
            "P",
            vec![IndexSpace::span(0, 14), IndexSpace::span(15, 29)],
        );
        let p0 = forest.subregion(p, 0);
        let q = forest.create_partition(
            p0,
            "Q",
            vec![IndexSpace::span(0, 7), IndexSpace::span(8, 14)],
        );
        let g = forest.create_partition(n, "G", vec![IndexSpace::span(5, 20)]);
        let g0 = forest.subregion(g, 0);

        let mut machine = Machine::new(1);
        let shards = ShardMap::new(1, false);
        let mut eng = Painter::new();
        let mut next = 0u32;
        let mut run =
            |eng: &mut Painter, machine: &mut Machine, region: RegionId, privilege: Privilege| {
                let id = next;
                next += 1;
                let launch = TaskLaunch {
                    id: TaskId(id),
                    name: format!("t{id}"),
                    node: 0,
                    ctx: 0,
                    reqs: vec![RegionRequirement::new(region, f, privilege)],
                    duration_ns: 0,
                };
                let mut ctx = AnalysisCtx {
                    forest: &forest,
                    machine,
                    shards: &shards,
                };
                eng.analyze(&launch, &mut ctx)
            };

        // Writes under Q, closed into V0 at P0 by a read of P0.
        run(
            &mut eng,
            &mut machine,
            forest.subregion(q, 0),
            Privilege::ReadWrite,
        );
        run(
            &mut eng,
            &mut machine,
            forest.subregion(q, 1),
            Privilege::ReadWrite,
        );
        run(&mut eng, &mut machine, p0, Privilege::Read);
        assert_eq!(eng.state_size().composite_views, 1, "V0 at P0");
        // A read through G closes P0's subtree from N: the new view V1
        // captures P0's history, *nesting* V0.
        run(&mut eng, &mut machine, g0, Privilege::Read);
        assert_eq!(eng.state_size().composite_views, 2, "V1 nests V0");
        // Full write over the root: every entry and every view — nested
        // ones included — is occluded and pruned in the same commit.
        run(&mut eng, &mut machine, n, Privilege::ReadWrite);
        let size = eng.state_size();
        assert_eq!(
            size.composite_views, 0,
            "all views (incl. nested) pruned by the full write"
        );
        assert_eq!(size.history_entries, 1, "only the full write remains");
    }
}

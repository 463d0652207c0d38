//! Equivalence sets: Warnock's algorithm (§6) and ray casting (§7), one
//! engine.
//!
//! The state is a set of **equivalence sets** — `(region, history)` pairs
//! with the invariant that *every* operation in the history is relevant to
//! *every* point of the region (`dom(eqset) ⊆ dom(entry)` for all entries).
//! Live sets are pairwise disjoint and always cover the root region. When a
//! launch names a region `R` that straddles a set, the set is **refined** —
//! split into `∩R` and `\R` halves (Fig 9, line 11). Because every history
//! entry covers its whole set, the per-set visibility scan needs **no
//! geometry at all** — that is the payoff over the painter's algorithm.
//!
//! Warnock refines monotonically: sets are never merged, and the history of
//! refinements is a search tree that doubles as a BVH (§6.1). A memoized
//! list of constituent sets per named region lets steady-state launches skip
//! the root traversal. The cost is the superlinear growth in the number of
//! sets at scale, which is exactly what dooms Warnock's initialization in
//! Figs 12–14. The tree's inner nodes are immutable once split, so they
//! replicate on demand — but *discovery* of brand-new regions must traverse
//! from the root, whose authority lives on node 0.
//!
//! Ray casting is Warnock plus two changes:
//!
//! 1. **Dominating writes** (Fig 11): materializing with `read-write`
//!    privilege replaces every equivalence set covered by the region with a
//!    *single* fresh set whose history is just the write — occluded sets
//!    are pruned instead of accumulating. Equivalence sets therefore
//!    *coalesce* as well as refine.
//! 2. Because coalescing destroys the refinement tree, the BVH is instead
//!    derived from a **disjoint-and-complete partition** of the root
//!    (chosen by usage): each equivalence set is anchored under the
//!    partition child containing it, and constituent-set discovery is a
//!    region-tree query — purely local, no root traversal. "In rare cases
//!    when no subtree with disjoint-complete partitions exists, the runtime
//!    creates a K-d tree" — implemented here over the root's index space.
//!
//! The result: fewer live sets than Warnock (writes reset the
//! decomposition every iteration), no global discovery traffic, and the
//! near-flat scaling of the `RayCast` curves in Figs 12–17.
//!
//! So one engine, [`EqSetEngine`], serves both: a slab of sets per shard
//! and an index over it with three arms — Warnock's refinement tree, the
//! anchored buckets and the K-d fallback — and `dominate` on or off.
//! `analyze_shard` runs, per requirement, discovery through the index (the
//! tree's descent, `descend`, or ray casting's `collect_candidates` and
//! `refine_candidates`; both refine through one `split`), the history scan
//! (`scan_sets`), and the dominating write (`dominate`); then the commit of
//! every requirement (`commit`). Anchor queries are the region forest's, on
//! each partition's one bounding-box tree: the exact anchors of a
//! requirement (`overlapping_children`) and the anchors a set is placed
//! under (`overlapping_child_bboxes`). The exact check runs on the interned
//! target through the root's geometry, reading its cached box and band, and
//! memoizes nothing there: the shard's memo already holds its answer per
//! region, so a memo entry per child would be a miss never asked again.
//!
//! Everything for one `(root, field)` — sets, index, memo, usage counters —
//! is one shard. The geometry those sets are made of is the root's: every
//! field shard of a root interns into, and memoizes its refinements in, the
//! forest's `RootGeometry` for that root, so a second field refining the
//! same way sweeps nothing.

use crate::analysis::{
    group_reqs_by_shard, report_algebra, ChargeSet, ReqOutcome, ShardKey, ShardedState,
};
use crate::engine::{CoherenceEngine, ShardCtx, StateSize};
use crate::plan::{CopyRange, MaterializePlan, ReduceRange, Source};
use crate::task::{TaskId, TaskLaunch};
use std::sync::Arc;
use viz_geometry::{DynamicBvh, FxHashMap, FxHashSet, Rect, SpaceAlgebra, SpaceId};
use viz_region::{PartitionId, Privilege, RegionForest, RegionId};
use viz_sim::{ChargeLog, NodeId, Op};

/// One operation recorded in an equivalence set's history. The domain is
/// implicit: it covers the whole set.
#[derive(Clone, Debug, PartialEq, Eq)]
struct EqEntry {
    task: TaskId,
    req: u32,
    privilege: Privilege,
}

/// An equivalence set. The domain is an interned handle into the root's
/// [`SpaceAlgebra`]: sibling sets produced by the same partition share
/// storage, and the overlap and refinement tests run against it are
/// memoized.
struct EqSet {
    domain: SpaceId,
    owner: NodeId,
    hist: Vec<EqEntry>,
}

impl EqSet {
    /// Refine (Fig 9, `refine`) a set that straddles a target into its
    /// `(inside, outside)` halves, leaving it an empty history. The split —
    /// the refine, the two new sets and the two-rect geometry — is work at
    /// the owner, batched into `charges`. The history moves to the outside
    /// half, which stays put, and is copied to the inside half, which
    /// migrates to its first user `node` (Legion moves the equivalence-set
    /// metadata to the mapped node, not the node running the analysis).
    fn split(
        &mut self,
        inside: SpaceId,
        outside: SpaceId,
        node: NodeId,
        charges: &mut ChargeSet,
    ) -> [EqSet; 2] {
        let work = [
            Op::EqSetRefine,
            Op::EqSetCreate,
            Op::EqSetCreate,
            Op::GeomOp { rects: 2 },
        ];
        for op in work {
            charges.add(self.owner, op);
        }
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
    fn commit(&mut self, entry: &EqEntry, node: NodeId, origin: NodeId, log: &mut ChargeLog) {
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

/// What refinement (Fig 9, `refine`) makes of a set `dom` against a
/// requirement's `target`.
enum Refine {
    /// Nothing in common: the set is not a constituent.
    Disjoint,
    /// Wholly inside the target: a constituent as it is.
    Contained,
    /// Straddles it: replaced by its `(inside, outside)` halves.
    Split(SpaceId, SpaceId),
}

/// Refine `dom` against `target`: an early-exit `overlaps`, then one
/// `split` for both halves, contained iff nothing lies outside.
fn refine(alg: &mut SpaceAlgebra, dom: SpaceId, target: SpaceId) -> Refine {
    if !alg.overlaps(dom, target) {
        return Refine::Disjoint;
    }
    match alg.split(dom, target) {
        (_, SpaceId::EMPTY) => Refine::Contained,
        (inside, outside) => Refine::Split(inside, outside),
    }
}

/// The history scan over a requirement's constituent `sets`, in order:
/// each set's [`scan_eq_history`], with its `SetTouch` + `HistScan` batched
/// at its owner into `charges`, then the base copies folded into the plan.
/// The sets must tile `target` (they do after refinement). It neither
/// flushes `charges` nor records the dependences: each policy orders those
/// against its own charges. `copies` and `fold_ids` are scratch.
fn scan_sets<'a>(
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

/// One slot of the `FieldState::sets` slab: a live equivalence set, a set
/// killed by the launch being analyzed, a free slot, or (tree arm only) a
/// refined set kept as an inner node of the tree. The slot number is
/// storage only; *order* is `born`.
struct SetSlot {
    /// Domain, owner and history. A refinement split *moves* the history
    /// into the outside half; a freed slot keeps only the history buffer's
    /// capacity for its next tenant.
    eq: EqSet,
    live: bool,
    /// Per-shard creation stamp. Candidates are visited in creation order —
    /// that order fixes deps, plans and charged `GeomOp`s — so every index
    /// entry is a [`key`] carrying it above the slot number.
    born: u32,
    /// When a *refinement split* kills this set, the two halves that
    /// replaced it — so a commit deferred by an earlier requirement of the
    /// same launch can chase the split instead of vanishing, and the tree
    /// arm's descent can reach them. Stays `None` for sets occluded by a
    /// dominating write (those are never the target of a pending
    /// same-launch commit: interfering requirements of one launch must be
    /// disjoint, commuting ones never occlude).
    replaced_by: Option<[u32; 2]>,
    /// Anchor positions whose buckets hold this set: the shard's memoized
    /// placement of its domain, shared with every other set of that domain
    /// (anchored index only; `None` elsewhere and once unregistered).
    /// Removal walks exactly these buckets instead of sweeping every bucket
    /// in the shard — the per-launch cost of a kill is the set's own anchor
    /// count, not the live-set count.
    anchors: Option<Arc<[u32]>>,
}

/// An index entry for the set in `slot`: sorting keys visits sets in birth
/// order whatever slots they landed in, and `key as u32` is the slot.
fn key(born: u32, slot: u32) -> u64 {
    (born as u64) << 32 | slot as u64
}

/// Spatial index over the sets, holding their [`key`]s.
enum SetIndex {
    /// Warnock's refinement tree (§6.1) is the slab itself: slot 0 is the
    /// root set, and a refined set stays as a dead slot whose `replaced_by`
    /// names its halves, so discovery descends from the root (or a memoized
    /// constituent) through the inner nodes overlapping the target. Inner
    /// nodes are immutable once split and replicate on demand: `replicated`
    /// holds the `(slot, node)` pairs already fetched.
    Tree {
        replicated: FxHashSet<(u32, NodeId)>,
    },
    /// Anchored under the children of a disjoint-and-complete partition:
    /// `buckets[i]` holds the sets overlapping child `i` (a set spanning
    /// several anchors appears in each; queries deduplicate).
    Anchored {
        partition: PartitionId,
        buckets: Vec<Vec<u64>>,
        /// The anchors each set domain placed through it went under: the
        /// children whose bounding box meets the domain's, from the
        /// partition's tree in the forest. The answer is a function of the
        /// domain's bbox and the anchors alone, and the steady state
        /// re-creates the same domains every iteration, so placing a set is
        /// one probe. Split halves skip it: they filter their parent's list
        /// (`index_insert`). An anchor shift starts it afresh.
        placement: FxHashMap<SpaceId, Arc<[u32]>>,
    },
    /// Fallback when no such partition exists (§7.1): an incrementally
    /// maintained BVH — set churn is absorbed by leaf insert/remove with
    /// ancestor refits, rebuilding only on degradation.
    Kd { tree: DynamicBvh },
}

impl SetIndex {
    /// An index anchored under `partition`'s children, holding `buckets`.
    fn anchored(partition: PartitionId, buckets: Vec<Vec<u64>>) -> Self {
        let placement = FxHashMap::default();
        SetIndex::Anchored {
            partition,
            buckets,
            placement,
        }
    }
}

/// Reusable backward-scan buffers, one struct per shard. Every vector here
/// used to be allocated fresh per requirement (or per shard batch); holding
/// them in the shard means the scan stops allocating once each has grown to
/// the workload's high-water mark.
#[derive(Default)]
struct ScanScratch {
    /// Traversal stack of the K-d walk and of the tree's descent.
    stack: Vec<u32>,
    /// Candidate set keys for one requirement: raw index hits, then sorted
    /// and deduplicated.
    candidates: Vec<u64>,
    /// Anchor positions the current requirement resolved to.
    req_anchors: Vec<u32>,
    /// Sets killed by refinement within the current requirement.
    killed: Vec<u32>,
    /// The current requirement's remote work, flushed as one multi-request.
    charges: ChargeSet,
    /// The current requirement's per-set base copies, before folding, and
    /// the operand list of one fold.
    copies: Vec<(Source, SpaceId)>,
    fold_ids: Vec<SpaceId>,
    /// The per-anchor pieces of the current dominating write.
    pieces: Vec<SpaceId>,
    /// Constituent sets of the current requirement.
    relevant: Vec<u32>,
    /// Deferred commits of the current shard batch: per requirement its
    /// entry and the end of its target sets in `commit_ids` (they start
    /// where the previous requirement's end).
    commits: Vec<(u32, EqEntry)>,
    commit_ids: Vec<u32>,
    /// Work list of one commit (targets, plus the halves of any a later
    /// requirement split).
    commit_stack: Vec<u32>,
}

/// What every phase of one shard batch reads besides the shard: the
/// forest, the launch's node, and the node the analysis runs on.
struct ScanCtx<'a> {
    forest: &'a RegionForest,
    node: NodeId,
    origin: NodeId,
}

/// Per-(root, field) equivalence-set state — one shard.
struct FieldState {
    /// Slab of sets: a slot is live, killed by the launch being analyzed
    /// (`dead`), or `free` — or, on the tree arm, an inner node. An
    /// occluded set is freed by the launch that occluded it, so the table
    /// is bounded by the live high-water mark plus one launch's kills, not
    /// by program length.
    sets: Vec<SetSlot>,
    /// Slots killed since the last `recycle`. They keep `replaced_by` for
    /// the commit loop and are not reused before it has run.
    dead: Vec<u32>,
    free: Vec<u32>,
    /// The next set's `born`.
    next_born: u32,
    index: SetIndex,
    /// Memoized per named region: the tree arm's constituent sets (§6.1;
    /// slots that were live when memoized, from which lookups descend —
    /// correct because refinement only splits), the anchored arm's
    /// overlapping anchors.
    memo: FxHashMap<RegionId, Vec<u32>>,
    live: usize,
    /// Launches observed per disjoint-and-complete partition — the usage
    /// heuristic of §7.1 that drives anchor shifting.
    usage: FxHashMap<PartitionId, u64>,
    shifts: u64,
    /// Cumulative candidate ids produced by the spatial index across every
    /// requirement scanned against this shard (post-dedup). Flatness under
    /// weak scaling is *measured* from this, not inferred.
    candidates_visited: u64,
    /// Cumulative live sets actually overlap-tested by the backward scans
    /// (the sweep work a launch pays; tracks requirement overlap, not the
    /// live-set count).
    sets_swept: u64,
    scratch: ScanScratch,
    last_refits: u64,
    last_rebuilds: u64,
}

impl FieldState {
    /// Create a live set in a free slot (or a new one) and return the slot.
    /// A history that owns no buffer — the dominating-write set's, or a
    /// clone of an empty one — takes over the slot's old history buffer.
    fn new_set(&mut self, eq: EqSet) -> u32 {
        let born = self.next_born;
        self.next_born = born.checked_add(1).expect("recycle renumbers first");
        self.live += 1;
        let mut set = SetSlot {
            eq,
            live: true,
            born,
            replaced_by: None,
            anchors: None,
        };
        let Some(slot) = self.free.pop() else {
            self.sets.push(set);
            return self.sets.len() as u32 - 1;
        };
        let old = &mut self.sets[slot as usize];
        if set.eq.hist.capacity() == 0 {
            set.eq.hist = std::mem::take(&mut old.eq.hist);
        }
        *old = set;
        slot
    }

    fn kill(&mut self, id: u32) {
        if self.sets[id as usize].live {
            self.sets[id as usize].live = false;
            self.live -= 1;
            self.dead.push(id);
        }
    }

    /// Free the slots this launch killed. Runs at the end of
    /// `analyze_shard`: the commit loop was the last reader of their
    /// `replaced_by`, and the index dropped them when they died. On the
    /// tree arm they are the tree's inner nodes and stay.
    fn recycle(&mut self, alg: &SpaceAlgebra) {
        if let SetIndex::Tree { .. } = self.index {
            self.dead.clear();
        }
        for slot in self.dead.drain(..) {
            let set = &mut self.sets[slot as usize];
            set.eq.hist.clear();
            set.replaced_by = None;
            self.free.push(slot);
        }
        if self.next_born >= BORN_RENUMBER_AT {
            self.renumber(alg);
        }
    }

    /// Restart the birth stamps at `0..live`, keeping their order, and
    /// re-key the index entries to match. (The tree arm never gets here:
    /// its slots are never reused, so it would run out of memory first.)
    fn renumber(&mut self, alg: &SpaceAlgebra) {
        let mut order: Vec<u32> = (0..self.sets.len() as u32)
            .filter(|s| self.sets[*s as usize].live)
            .collect();
        order.sort_unstable_by_key(|s| self.sets[*s as usize].born);
        for (born, slot) in order.iter().enumerate() {
            let set = &mut self.sets[*slot as usize];
            if let SetIndex::Kd { tree } = &mut self.index {
                tree.remove(key(set.born, *slot));
                tree.insert(key(born as u32, *slot), alg.bbox(set.eq.domain));
            }
            set.born = born as u32;
        }
        if let SetIndex::Anchored { buckets, .. } = &mut self.index {
            for k in buckets.iter_mut().flatten() {
                *k = key(self.sets[*k as u32 as usize].born, *k as u32);
            }
        }
        self.next_born = order.len() as u32;
    }

    /// The slab's invariants, checked after every launch in debug builds.
    /// On the anchored arm every live set is placed exactly: its anchors are
    /// its domain's box answer from the forest (an initial set, whose domain
    /// is its one anchor's child, may hold just that anchor), and its key
    /// sits in exactly those buckets.
    #[cfg(any(test, debug_assertions))]
    fn check_slab(&self, forest: &RegionForest, alg: &SpaceAlgebra) {
        let slots = self.sets.len();
        let keys: Vec<u64> = match &self.index {
            SetIndex::Tree { .. } => {
                assert!(self.free.is_empty(), "a tree slot was freed");
                let mut inner = 0;
                for (slot, s) in self.sets.iter().enumerate().filter(|(_, s)| !s.live) {
                    inner += 1;
                    let halves = s.replaced_by.expect("an inner node names its halves");
                    let born = halves.map(|h| self.sets[h as usize].born);
                    assert!(
                        born.iter().all(|b| *b > s.born),
                        "slot {slot}'s halves predate it"
                    );
                    assert!(s.eq.hist.is_empty(), "inner node {slot} holds a history");
                }
                assert_eq!(
                    self.live + inner,
                    slots,
                    "a tree slot is neither live nor inner"
                );
                return;
            }
            SetIndex::Anchored { buckets, .. } => buckets.iter().flatten().copied().collect(),
            SetIndex::Kd { tree } => tree.iter().map(|(k, _)| k).collect(),
        };
        for k in keys {
            let set = &self.sets[k as u32 as usize];
            assert!(set.live, "index names dead slot {}", k as u32);
            assert_eq!(key(set.born, k as u32), k, "index entry with a stale stamp");
        }
        if let SetIndex::Anchored {
            partition, buckets, ..
        } = &self.index
        {
            let kids = forest.children(*partition);
            let mut held: Vec<(u32, u32)> = Vec::new();
            for (a, bucket) in buckets.iter().enumerate() {
                held.extend(bucket.iter().map(|k| (*k as u32, a as u32)));
            }
            let mut placed = Vec::new();
            for (slot, s) in self.sets.iter().enumerate().filter(|(_, s)| s.live) {
                let anchors = s.anchors.as_deref().expect("a live anchored set is placed");
                let domain = s.eq.domain;
                let boxes = forest.overlapping_child_bboxes(*partition, &alg.bbox(domain));
                assert!(
                    anchors == boxes || holds_own_anchor(forest, kids, anchors, domain),
                    "set {slot} is under {anchors:?}, its box meets {boxes:?}"
                );
                placed.extend(anchors.iter().map(|a| (slot as u32, *a)));
            }
            held.sort_unstable();
            placed.sort_unstable();
            assert_eq!(held, placed, "the buckets do not hold the sets' anchors");
        }
        assert_eq!(self.live + self.free.len(), slots, "a slot leaked");
        let mut free = vec![false; slots];
        for slot in &self.free {
            let s = &self.sets[*slot as usize];
            assert!(
                !s.live && s.eq.hist.is_empty() && s.anchors.is_none() && s.replaced_by.is_none(),
                "free slot {slot} still holds state"
            );
            assert!(!free[*slot as usize], "slot {slot} was freed twice");
            free[*slot as usize] = true;
        }
    }
}

/// `recycle` renumbers a shard once its birth stamps pass this, leaving
/// more headroom than one launch can use (2³¹ new sets are 144 GiB of
/// slots, since none is reused before the launch ends).
const BORN_RENUMBER_AT: u32 = 1 << 31;

/// The equivalence-set engine: Warnock's algorithm ("Warnock" / `oldeqcr`
/// in the figures) or ray casting ("RayCast" / `neweqcr`), by policy.
pub struct EqSetEngine {
    shards: ShardedState<FieldState>,
    /// Fig 11's dominating writes, over the partition-anchored index (or
    /// the K-d fallback); without them, Warnock's refinement tree.
    dominate: bool,
    /// Memoize discovery per named region: the tree's constituent sets
    /// (§6.1), the anchored index's overlapping anchors. Off, no memo is
    /// read or written.
    memoize: bool,
    force_kd: bool,
}

impl EqSetEngine {
    /// Warnock's algorithm: monotonic refinement over the refinement tree.
    pub fn warnock() -> Self {
        EqSetEngine {
            shards: ShardedState::new(),
            dominate: false,
            memoize: true,
            force_kd: false,
        }
    }

    /// Ray casting: Warnock plus dominating writes, over a partition-derived
    /// BVH.
    pub fn raycast() -> Self {
        EqSetEngine {
            dominate: true,
            ..Self::warnock()
        }
    }

    /// Always use the K-d tree fallback, even when a disjoint-and-complete
    /// partition exists (ablation A3). Ray casting only: Warnock's index is
    /// its refinement tree.
    pub fn force_kd_tree(self) -> Self {
        EqSetEngine {
            force_kd: true,
            ..self
        }
    }

    /// Disable the discovery memo: every launch traverses from the tree
    /// root (Warnock, ablation A2) or recomputes its anchor list from the
    /// region tree (ray casting, the reference for the memo's property
    /// tests).
    pub fn without_memoization(self) -> Self {
        EqSetEngine {
            memoize: false,
            ..self
        }
    }

    /// The shard state for `root`: Warnock's tree holds the root set in
    /// slot 0. Ray casting anchors on the first disjoint-and-complete
    /// partition (the heuristic "based on which partitions tasks are using"
    /// — our benchmark programs create the primary partition first, which
    /// is the one their tasks write through), else the K-d tree fallback.
    fn init_state(
        forest: &RegionForest,
        root: RegionId,
        dominate: bool,
        force_kd: bool,
    ) -> FieldState {
        let dc = if dominate && !force_kd {
            forest.disjoint_complete_partitions(root)
        } else {
            Vec::new()
        };
        // Initial sets, born in slot order: one per anchor (they cover the
        // root since the partition is complete), else the root itself.
        let initial = |slot: u32, domain, anchors| SetSlot {
            eq: EqSet {
                domain,
                owner: 0,
                hist: Vec::new(),
            },
            live: true,
            born: slot,
            replaced_by: None,
            anchors,
        };
        let (sets, index) = match dc.first() {
            Some(p) => {
                let children = forest.children(*p);
                let mut sets = Vec::with_capacity(children.len());
                let mut buckets = Vec::with_capacity(children.len());
                for (i, c) in children.iter().enumerate() {
                    let i = i as u32;
                    let domain = forest.space(*c);
                    // Exactly its own anchor, as a set contained in child
                    // `i` needs — not seeded into `placement`, which
                    // answers by bounding box.
                    sets.push(initial(i, domain, Some(Arc::from([i]))));
                    buckets.push(vec![key(i, i)]);
                }
                (sets, SetIndex::anchored(*p, buckets))
            }
            None if !dominate => {
                let replicated = FxHashSet::default();
                let set = initial(0, forest.space(root), None);
                (vec![set], SetIndex::Tree { replicated })
            }
            None => {
                let mut tree = DynamicBvh::new();
                tree.insert(key(0, 0), forest.domain(root).bbox());
                let set = initial(0, forest.space(root), None);
                (vec![set], SetIndex::Kd { tree })
            }
        };
        FieldState {
            live: sets.len(),
            next_born: sets.len() as u32,
            sets,
            dead: Vec::new(),
            free: Vec::new(),
            index,
            memo: FxHashMap::default(),
            usage: FxHashMap::default(),
            shifts: 0,
            candidates_visited: 0,
            sets_swept: 0,
            scratch: ScanScratch::default(),
            last_refits: 0,
            last_rebuilds: 0,
        }
    }

    /// Times any field state re-anchored to a different partition (§7.1:
    /// "If the application switches to using a different subtree with
    /// disjoint-complete partitions, the runtime shifts the equivalence
    /// sets to the new subtree").
    pub fn shift_count(&self) -> u64 {
        self.shards.iter().map(|(_, f)| f.shifts).sum()
    }

    /// The disjoint-and-complete partition on `region`'s path from the
    /// root, if any — the subtree this launch "votes" for.
    fn home_partition(forest: &RegionForest, region: RegionId) -> Option<PartitionId> {
        let mut cur = region;
        let mut best = None;
        while let Some(q) = forest.parent_partition(cur) {
            if forest.is_disjoint(q) && forest.is_complete(q) {
                best = Some(q);
            }
            cur = forest.parent_region(q);
        }
        best
    }

    /// Track usage and re-anchor when another disjoint-complete partition
    /// clearly dominates the current one.
    fn maybe_shift(
        state: &mut FieldState,
        alg: &SpaceAlgebra,
        forest: &RegionForest,
        home: Option<PartitionId>,
        log: &mut ChargeLog,
        origin: NodeId,
    ) {
        let Some(home) = home else { return };
        *state.usage.entry(home).or_insert(0) += 1;
        let SetIndex::Anchored { partition, .. } = &state.index else {
            return;
        };
        let current = *partition;
        if home == current {
            return;
        }
        let home_uses = state.usage[&home];
        let current_uses = state.usage.get(&current).copied().unwrap_or(0);
        if home_uses < 16 || home_uses < 4 * current_uses.max(1) {
            return;
        }
        // Shift: rebuild the anchor buckets under the new partition and
        // re-bucket every live set. This wholesale pass is the one place
        // that still walks every live set — shifts are rare (usage must
        // 4x-dominate) and start the placement memo afresh anyway.
        let buckets = vec![Vec::new(); forest.children(home).len()];
        state.index = SetIndex::anchored(home, buckets);
        let mut moved = 0usize;
        for id in 0..state.sets.len() as u32 {
            state.sets[id as usize].anchors = None;
            if state.sets[id as usize].live {
                moved += 1;
                state.index_insert(&[id], None, alg, forest);
            }
        }
        log.op(origin, Op::GeomOp { rects: moved });
        for _ in 0..moved {
            log.op(origin, Op::SetTouch);
        }
        // Refresh the anchor memo instead of clearing it wholesale: a
        // memoized list is stale only if the region's overlapping-anchor
        // set actually differs under the new partition. Recompute each
        // list once (priced as a geometry query), keep the entries that
        // come out unchanged and drop the rest. Keeping an entry is sound
        // precisely because lookups interpret the stored positions against
        // the *current* partition, and the kept value equals the fresh
        // computation against it.
        for (region, old) in std::mem::take(&mut state.memo) {
            let fresh = forest.overlapping_children(home, forest.space(region), alg);
            log.op(
                origin,
                Op::GeomOp {
                    rects: fresh.len().max(1),
                },
            );
            if fresh == old {
                state.memo.insert(region, fresh);
            }
        }
        state.usage.clear();
        state.shifts += 1;
    }
}

/// The K-d arm's candidate walk: the keys of every leaf overlapping any of
/// `rects` (unsorted, possibly repeated across rects). Kept out of line:
/// inlined into the per-requirement loop it cost the anchored arm ~4 % of
/// `steady_us_per_launch` on `stencil_steady`.
#[inline(never)]
fn kd_walk(tree: &DynamicBvh, rects: &[Rect], stack: &mut Vec<u32>, hits: &mut Vec<u64>) {
    for r in rects {
        tree.query_with(r, stack, hits);
    }
}

impl CoherenceEngine for EqSetEngine {
    fn name(&self) -> &'static str {
        if self.dominate {
            "raycast"
        } else {
            "warnock"
        }
    }

    fn prepare(&mut self, launch: &TaskLaunch, ctx: &ShardCtx<'_>) -> Vec<(ShardKey, Vec<u32>)> {
        let groups = group_reqs_by_shard(launch, ctx.forest);
        for (key, _) in &groups {
            self.shards.get_or_insert_with(*key, ctx.forest, || {
                Self::init_state(ctx.forest, key.0, self.dominate, self.force_kd)
            });
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
        let cx = ScanCtx {
            forest: ctx.forest,
            node: launch.node,
            origin: ctx.shards.origin(launch.node),
        };
        let (mut shard, mut geom) = self.shards.lock(key);
        let state: &mut FieldState = &mut shard;
        let mut outcomes: Vec<ReqOutcome> = Vec::with_capacity(reqs.len());
        // The shard's reusable buffers, moved out for the duration of the
        // call (the phases borrow the whole state) and returned, capacity
        // intact, at the end: the scan allocates nothing for them at steady
        // state.
        let mut scratch = std::mem::take(&mut state.scratch);
        let sc = &mut scratch;
        sc.commits.clear();
        sc.commit_ids.clear();

        for &ri in reqs {
            let req = &launch.reqs[ri as usize];
            let target = ctx.forest.space(req.region);
            let mut out = ReqOutcome {
                req: ri,
                ..ReqOutcome::default()
            };
            let log = &mut out.scan_log;
            // All remote work for this requirement — refinements, history
            // scans, invalidations — is batched into `sc.charges` and
            // flushed as concurrent multi-requests (Legion issues these as
            // parallel active messages).
            if let SetIndex::Tree { .. } = state.index {
                state.descend(sc, &cx, &mut geom.alg, req.region, self.memoize, log);
            } else {
                if !self.force_kd {
                    let home = Self::home_partition(ctx.forest, req.region);
                    Self::maybe_shift(state, &geom.alg, ctx.forest, home, log, cx.origin);
                }
                state.collect_candidates(sc, &cx, &geom.alg, req.region, self.memoize, log);
                state.refine_candidates(sc, &cx, &mut geom.alg, target, log);
            }
            let sets = sc.relevant.iter().map(|n| &state.sets[*n as usize].eq);
            (out.deps, out.plan) = scan_sets(
                sets,
                target,
                req.privilege,
                &mut geom.alg,
                &mut sc.charges,
                &mut sc.copies,
                &mut sc.fold_ids,
            );
            // Warnock pays for the scan before recording its dependences;
            // ray casting batches the dominating write's invalidations into
            // the same flush.
            if !self.dominate {
                sc.charges.flush_into(log, cx.origin);
            }
            for _ in &out.deps {
                log.op(cx.origin, Op::DepRecord);
            }
            if self.dominate && req.privilege.is_write() {
                state.dominate(sc, &cx, &mut geom.alg, target, log);
            } else {
                sc.commit_ids.extend_from_slice(&sc.relevant);
            }
            let entry = EqEntry {
                task: launch.id,
                req: ri,
                privilege: req.privilege,
            };
            sc.commits.push((sc.commit_ids.len() as u32, entry));
            if self.dominate {
                sc.charges.flush_into(log, cx.origin);
            }
            outcomes.push(out);
        }

        state.commit(sc, &cx, &mut outcomes);
        state.scratch = scratch;
        state.recycle(&geom.alg);
        #[cfg(debug_assertions)]
        state.check_slab(ctx.forest, &geom.alg);
        report_algebra(&mut geom);
        state.report_maintenance();
        outcomes
    }

    // No `collect`: ray casting frees an occluded set in the launch that
    // occludes it, and Warnock's whole tree stays reachable from the root.

    fn state_size(&self) -> StateSize {
        let mut size = StateSize::default();
        for (_, s) in self.shards.iter() {
            size.equivalence_sets += s.live;
            size.index_nodes += match &s.index {
                SetIndex::Tree { .. } => s.sets.len(),
                SetIndex::Anchored { buckets, .. } => buckets.len(),
                SetIndex::Kd { tree } => tree.len(),
            };
            size.memo_entries += s.memo.values().map(Vec::len).sum::<usize>();
            // (A freed slot's or an inner node's history is empty.)
            size.history_entries += s.sets.iter().map(|set| set.eq.hist.len()).sum::<usize>();
            size.candidates_visited += s.candidates_visited;
            size.sets_swept += s.sets_swept;
        }
        self.shards.add_algebra_stats(&mut size);
        size
    }
}

/// The phases of one shard batch, in the order `analyze_shard` runs them.
impl FieldState {
    /// Discovery on the tree arm (§6.1): from the region's memoized
    /// constituents, or else from the root, descend through every node
    /// overlapping the target — each test priced as a `GeomOp` of the
    /// node's (possibly heavily fragmented) domain — and `split` the live
    /// sets that straddle it. The inner nodes the origin has not cached yet
    /// are fetched in one batched request from node 0, where the
    /// authoritative tree lives. The constituents land in `sc.relevant` in
    /// descent order, and are memoized for the region.
    fn descend(
        &mut self,
        sc: &mut ScanScratch,
        cx: &ScanCtx<'_>,
        alg: &mut SpaceAlgebra,
        region: RegionId,
        memoize: bool,
        log: &mut ChargeLog,
    ) {
        let target = cx.forest.space(region);
        log.op(cx.origin, Op::Memo);
        sc.stack.clear();
        match self.memo.get(&region) {
            Some(starts) if memoize => sc.stack.extend_from_slice(starts),
            _ => sc.stack.push(0),
        }
        sc.relevant.clear();
        sc.killed.clear();
        let (mut tests, mut to_replicate) = (0usize, 0usize);
        while let Some(n) = sc.stack.pop() {
            tests += 1;
            let (dom, halves) = (
                self.sets[n as usize].eq.domain,
                self.sets[n as usize].replaced_by,
            );
            let rects = alg.space(dom).rect_count().min(64);
            log.op(cx.origin, Op::GeomOp { rects });
            let Some(halves) = halves else {
                self.split(n, sc, cx, alg, target);
                continue;
            };
            if alg.overlaps(dom, target) {
                if let SetIndex::Tree { replicated } = &mut self.index {
                    to_replicate += replicated.insert((n, cx.origin)) as usize;
                }
                sc.stack.extend(halves);
            }
        }
        sc.charges.flush_into(log, cx.origin);
        viz_profile::instant(viz_profile::EventKind::BvhTraversal {
            nodes: tests as u64,
        });
        report_refined(sc.killed.len());
        if to_replicate > 0 {
            let work = [Op::Replicate {
                nodes: to_replicate,
            }];
            log.request(cx.origin, 0, 96, 64 * to_replicate as u64, &work);
        }
        if memoize {
            let memo = self.memo.entry(region).or_default();
            memo.clear();
            memo.extend_from_slice(&sc.relevant);
        }
    }

    /// Candidate collection — the ray cast: into `sc.candidates`, the keys
    /// of the sets the index says may overlap `region`, deduplicated (a set
    /// spanning several anchors is in each of their buckets) and sorted,
    /// which visits them in birth order. Anchored, this is a (replicated,
    /// local) region-tree query whose memoized anchor list makes the steady
    /// state O(1); the anchors stay in `sc.req_anchors` for `dominate`. A
    /// first touch's exact anchor check reads the root's geometry without
    /// adding to its memo.
    fn collect_candidates(
        &mut self,
        sc: &mut ScanScratch,
        cx: &ScanCtx<'_>,
        alg: &SpaceAlgebra,
        region: RegionId,
        memoize: bool,
        log: &mut ChargeLog,
    ) {
        sc.candidates.clear();
        sc.req_anchors.clear();
        match &self.index {
            SetIndex::Anchored {
                partition, buckets, ..
            } => {
                let compute = |log: &mut ChargeLog| {
                    let target = cx.forest.space(region);
                    let anchors = cx.forest.overlapping_children(*partition, target, alg);
                    let rects = anchors.len().max(1);
                    log.op(cx.origin, Op::GeomOp { rects });
                    anchors
                };
                if memoize {
                    log.op(cx.origin, Op::Memo);
                    let memo = &mut self.memo;
                    let anchors = memo.entry(region).or_insert_with(|| compute(log));
                    sc.req_anchors.extend_from_slice(anchors);
                } else {
                    sc.req_anchors.extend_from_slice(&compute(log));
                }
                for a in &sc.req_anchors {
                    sc.candidates.extend_from_slice(&buckets[*a as usize]);
                }
                sc.candidates.sort_unstable();
                sc.candidates.dedup();
            }
            SetIndex::Kd { tree } => {
                let target = cx.forest.domain(region).rects();
                kd_walk(tree, target, &mut sc.stack, &mut sc.candidates);
                sc.candidates.sort_unstable();
                sc.candidates.dedup();
                let rects = sc.candidates.len().max(1);
                log.op(cx.origin, Op::GeomOp { rects });
            }
            SetIndex::Tree { .. } => unreachable!("the tree arm descends"),
        }
        viz_profile::instant(viz_profile::EventKind::BvhTraversal {
            nodes: sc.candidates.len() as u64,
        });
        self.candidates_visited += sc.candidates.len() as u64;
    }

    /// Refinement (Fig 9, as in Warnock — ray casting still refines on
    /// partial overlaps): each live candidate is `split` against `target`,
    /// and the dead ones leave the index. The constituents land in
    /// `sc.relevant`, in birth order.
    fn refine_candidates(
        &mut self,
        sc: &mut ScanScratch,
        cx: &ScanCtx<'_>,
        alg: &mut SpaceAlgebra,
        target: SpaceId,
        log: &mut ChargeLog,
    ) {
        sc.relevant.clear();
        sc.killed.clear();
        let mut tests = 0usize;
        for i in 0..sc.candidates.len() {
            let c = sc.candidates[i] as u32;
            if self.sets[c as usize].live {
                tests += 1;
                self.split(c, sc, cx, alg, target);
            }
        }
        if !sc.killed.is_empty() {
            self.index_remove_dead(&sc.killed);
            report_refined(sc.killed.len());
        }
        log.op(
            cx.origin,
            Op::GeomOp {
                rects: tests.max(1),
            },
        );
        self.sets_swept += tests as u64;
        viz_profile::instant(viz_profile::EventKind::ScanSweep {
            candidates: sc.candidates.len() as u64,
            swept: tests as u64,
        });
    }

    /// Refine the live set `c` against `target` (Fig 9, `refine`): it is a
    /// constituent as it is when contained, else through the inside half of
    /// its split. A split set dies into `sc.killed`, its halves join the
    /// index and its `replaced_by`.
    fn split(
        &mut self,
        c: u32,
        sc: &mut ScanScratch,
        cx: &ScanCtx<'_>,
        alg: &mut SpaceAlgebra,
        target: SpaceId,
    ) {
        let (inside, outside) = match refine(alg, self.sets[c as usize].eq.domain, target) {
            Refine::Disjoint => return,
            Refine::Contained => {
                sc.relevant.push(c);
                return;
            }
            Refine::Split(inside, outside) => (inside, outside),
        };
        let halves = self.sets[c as usize]
            .eq
            .split(inside, outside, cx.node, &mut sc.charges);
        self.kill(c);
        sc.killed.push(c);
        let halves = halves.map(|half| self.new_set(half));
        self.sets[c as usize].replaced_by = Some(halves);
        self.index_insert(&halves, Some(c), alg, cx.forest);
        sc.relevant.push(halves[0]);
    }

    /// Dominating write (Fig 11): every constituent set is occluded —
    /// killed and unindexed — and coalesces into one fresh set per anchor
    /// the write covers (the target itself on the K-d arm), which keeps the
    /// index aligned with the disjoint partition; a write within one
    /// anchor, the common case, creates exactly one set. The fresh sets are
    /// the requirement's commit targets, appended to `sc.commit_ids`.
    fn dominate(
        &mut self,
        sc: &mut ScanScratch,
        cx: &ScanCtx<'_>,
        alg: &mut SpaceAlgebra,
        target: SpaceId,
        log: &mut ChargeLog,
    ) {
        for n in &sc.relevant {
            let owner = self.sets[*n as usize].eq.owner;
            self.kill(*n);
            if owner != cx.origin {
                sc.charges.add(owner, Op::EqSetRefine);
            }
        }
        match &self.index {
            SetIndex::Anchored { partition, .. } => {
                // Borrow the child list instead of cloning it: the clone
                // was O(anchors) per write requirement — the single largest
                // per-launch term at weak scale.
                let kids = cx.forest.children(*partition);
                for a in &sc.req_anchors {
                    let piece = alg.intersect(target, cx.forest.space(kids[*a as usize]));
                    if !alg.is_empty_space(piece) {
                        sc.pieces.push(piece);
                    }
                }
            }
            SetIndex::Kd { .. } => {
                if !alg.is_empty_space(target) {
                    sc.pieces.push(target);
                }
            }
            SetIndex::Tree { .. } => unreachable!("refinement is monotonic on the tree"),
        }
        viz_profile::instant(viz_profile::EventKind::EqSetCoalesced {
            count: sc.relevant.len() as u64,
        });
        let first = sc.commit_ids.len();
        for domain in sc.pieces.drain(..) {
            let hist = Vec::new();
            let fresh = self.new_set(EqSet {
                domain,
                owner: cx.node,
                hist,
            });
            log.op(cx.origin, Op::EqSetCreate);
            sc.commit_ids.push(fresh);
        }
        let fresh = &sc.commit_ids[first..];
        viz_profile::instant(viz_profile::EventKind::EqSetCreated {
            count: fresh.len() as u64,
        });
        self.index_insert(fresh, None, alg, cx.forest);
        self.index_remove_dead(&sc.relevant);
    }

    /// Commit (Fig 9): append each requirement's entry to its target sets,
    /// which live in the shard this analysis already holds; a requirement
    /// that resolved to no sets (empty target) commits nothing. A set that
    /// another requirement of this SAME launch split after this one's scan
    /// forwards the commit to its halves (their domains are subsets of the
    /// split set, so the entry stays relevant to every point — dropping it
    /// would lose the access entirely); sets occluded by a dominating write
    /// stay dropped.
    fn commit(&mut self, sc: &mut ScanScratch, cx: &ScanCtx<'_>, outcomes: &mut [ReqOutcome]) {
        let mut first = 0usize;
        for (out, (end, entry)) in outcomes.iter_mut().zip(&sc.commits) {
            sc.commit_stack.clear();
            sc.commit_stack
                .extend_from_slice(&sc.commit_ids[first..*end as usize]);
            first = *end as usize;
            while let Some(n) = sc.commit_stack.pop() {
                let s = &mut self.sets[n as usize];
                if s.live {
                    s.eq.commit(entry, cx.node, cx.origin, &mut out.commit_log);
                } else {
                    sc.commit_stack.extend(s.replaced_by.into_iter().flatten());
                }
            }
        }
    }

    /// Report the K-d tree's refits and rebuilds since the last batch.
    fn report_maintenance(&mut self) {
        let SetIndex::Kd { tree } = &self.index else {
            return;
        };
        let (refits, rebuilds) = (tree.refits(), tree.rebuilds());
        let (dr, db) = (refits - self.last_refits, rebuilds - self.last_rebuilds);
        if dr + db > 0 {
            viz_profile::instant(viz_profile::EventKind::BvhMaintain {
                refits: dr,
                rebuilds: db,
            });
        }
        self.last_refits = refits;
        self.last_rebuilds = rebuilds;
    }

    /// Register new sets in the index: for the anchored index, each set is
    /// placed in every anchor bucket its bounding box overlaps (queries
    /// filter exactly and deduplicate), and the list is shared with the set
    /// so its eventual removal touches only those buckets. The tree needs
    /// nothing: `replaced_by` links them.
    ///
    /// The halves of a split `parent` inherit its placement: a half's box
    /// lies inside the parent's, so the children whose box meets it are the
    /// parent's box anchors whose box meets it — the parent's list,
    /// filtered, and the parent's `Arc` itself when nothing drops out. An
    /// initial set is the exception: it holds just its own anchor, narrower
    /// than its box answer when children's boxes overlap, so its box answer
    /// comes from the placement memo. Any other set — a dominating write's,
    /// or every set an anchor shift re-buckets — is placed through that
    /// memo, which asks the forest the first time a domain is placed.
    fn index_insert(
        &mut self,
        new_ids: &[u32],
        parent: Option<u32>,
        alg: &SpaceAlgebra,
        forest: &RegionForest,
    ) {
        let sets = &mut self.sets;
        match &mut self.index {
            SetIndex::Anchored {
                partition,
                buckets,
                placement,
            } => {
                let kids = forest.children(*partition);
                let place = |domain: SpaceId| {
                    forest.overlapping_child_bboxes(*partition, &alg.bbox(domain))
                };
                let mut placed = |domain: SpaceId| -> Arc<[u32]> {
                    let anchors = placement.entry(domain);
                    anchors.or_insert_with(|| place(domain).into()).clone()
                };
                let outer = parent.map(|p| {
                    let p = &sets[p as usize];
                    let anchors = p.anchors.clone().expect("a live anchored set is placed");
                    if holds_own_anchor(forest, kids, &anchors, p.eq.domain) {
                        placed(p.eq.domain)
                    } else {
                        anchors
                    }
                });
                for id in new_ids {
                    let set = &mut sets[*id as usize];
                    let domain = set.eq.domain;
                    let anchors = match &outer {
                        Some(outer) => {
                            let bbox = alg.bbox(domain);
                            let meets =
                                |a: &u32| alg.bbox(forest.space(kids[*a as usize])).overlaps(&bbox);
                            if outer.iter().all(meets) {
                                outer.clone()
                            } else {
                                outer.iter().copied().filter(meets).collect()
                            }
                        }
                        None => placed(domain),
                    };
                    debug_assert_eq!(
                        anchors[..],
                        place(domain)[..],
                        "a set's placement diverged from the forest's"
                    );
                    for a in anchors.iter() {
                        buckets[*a as usize].push(key(set.born, *id));
                    }
                    set.anchors = Some(anchors);
                }
            }
            SetIndex::Kd { tree } => {
                for id in new_ids {
                    let set = &sets[*id as usize];
                    tree.insert(key(set.born, *id), alg.bbox(set.eq.domain));
                }
            }
            SetIndex::Tree { .. } => {}
        }
    }

    /// Unregister dead sets. Each dead set's recorded anchor list names
    /// exactly the buckets holding it, so the cost is the dead sets' own
    /// footprint — the wholesale `retain` over every bucket this replaces
    /// was O(live sets) per kill batch. `swap_remove` is safe because
    /// queries sort + dedup their candidate lists, so bucket-internal
    /// order is unobservable.
    fn index_remove_dead(&mut self, dead: &[u32]) {
        let sets = &mut self.sets;
        match &mut self.index {
            SetIndex::Anchored { buckets, .. } => {
                for d in dead {
                    let Some(anchors) = sets[*d as usize].anchors.take() else {
                        continue;
                    };
                    for a in anchors.iter() {
                        let bucket = &mut buckets[*a as usize];
                        if let Some(pos) = bucket.iter().position(|m| *m as u32 == *d) {
                            bucket.swap_remove(pos);
                        }
                    }
                }
            }
            SetIndex::Kd { tree } => {
                for d in dead {
                    tree.remove(key(sets[*d as usize].born, *d));
                }
            }
            SetIndex::Tree { .. } => {}
        }
    }
}

/// Is `anchors` just the anchor whose child space `domain` is? An initial
/// set's list is that, not its box answer: narrower when children's boxes
/// overlap.
fn holds_own_anchor(
    forest: &RegionForest,
    kids: &[RegionId],
    anchors: &[u32],
    domain: SpaceId,
) -> bool {
    matches!(anchors, [a] if forest.space(kids[*a as usize]) == domain)
}

/// Profile `count` refinement splits of one requirement.
fn report_refined(count: usize) {
    if count > 0 {
        viz_profile::instant(viz_profile::EventKind::EqSetRefined {
            count: count as u64,
        });
        viz_profile::instant(viz_profile::EventKind::EqSetCreated {
            count: 2 * count as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnalysisCtx;
    use crate::plan::AnalysisResult;
    use crate::sharding::ShardMap;
    use crate::task::RegionRequirement;
    use proptest::prelude::*;
    use viz_geometry::IndexSpace;
    use viz_region::{FieldId, RedOpRegistry};
    use viz_sim::Machine;

    /// An index arm's name and the constructor that reaches it.
    type Arm = (&'static str, fn() -> EqSetEngine);

    /// Every index arm: Warnock's refinement tree, ray casting's anchored
    /// buckets, and its K-d fallback.
    fn arms() -> [Arm; 3] {
        [
            ("tree", EqSetEngine::warnock),
            ("anchored", EqSetEngine::raycast),
            ("kd", || EqSetEngine::raycast().force_kd_tree()),
        ]
    }

    struct Fixture {
        forest: RegionForest,
        field: FieldId,
        machine: Machine,
        shards: ShardMap,
        eng: EqSetEngine,
        next: u32,
    }

    /// A root `N = [0, 29]` with one field, partitioned by `build`, analyzed
    /// by `eng`.
    fn fixture_with(
        eng: EqSetEngine,
        build: impl FnOnce(&mut RegionForest, RegionId),
    ) -> (Fixture, RegionId) {
        let mut forest = RegionForest::new();
        let n = forest.create_root("N", IndexSpace::span(0, 29));
        let field = forest.add_field(n, "up");
        build(&mut forest, n);
        (Fixture::new(forest, field, eng), n)
    }

    /// The paper's running example (Fig 1): pieces `P` and ghosts `G` of
    /// `N = [0, 29]`.
    fn paper_fixture(eng: EqSetEngine) -> (Fixture, RegionId, PartitionId, PartitionId) {
        let (fx, n) = fixture_with(eng, |f, n| {
            let pieces = (0..3).map(|i| IndexSpace::span(10 * i, 10 * i + 9));
            f.create_partition(n, "P", pieces.collect());
            let ghosts = [&[10, 11, 20][..], &[8, 9, 20, 21], &[9, 18, 19]]
                .map(|g| IndexSpace::from_points(g.iter().map(|x| viz_geometry::Point::p1(*x))));
            f.create_partition(n, "G", ghosts.to_vec());
        });
        let parts = fx.forest.partitions_of(n);
        let (p, g) = (parts[0], parts[1]);
        (fx, n, p, g)
    }

    /// A second disjoint-and-complete partition of the paper fixture's
    /// root, so anchor shifts can trigger: Q0 = [0,14], Q1 = [15,29].
    fn add_q(fx: &mut Fixture, n: RegionId) -> PartitionId {
        let halves = vec![IndexSpace::span(0, 14), IndexSpace::span(15, 29)];
        fx.forest.create_partition(n, "Q", halves)
    }

    impl Fixture {
        fn new(forest: RegionForest, field: FieldId, eng: EqSetEngine) -> Self {
            Fixture {
                forest,
                field,
                machine: Machine::new(1),
                shards: ShardMap::new(1, false),
                eng,
                next: 0,
            }
        }

        fn next_launch(&mut self, region: RegionId, privilege: Privilege) -> TaskLaunch {
            self.next += 1;
            TaskLaunch {
                id: TaskId(self.next - 1),
                name: String::new(),
                node: 0,
                reqs: vec![RegionRequirement::new(region, self.field, privilege)],
                duration_ns: 0,
            }
        }

        /// This fixture's forest with a reference engine's `machine`.
        fn ctx<'a>(&'a self, machine: &'a mut Machine) -> AnalysisCtx<'a> {
            AnalysisCtx {
                forest: &self.forest,
                machine,
                shards: &self.shards,
            }
        }

        /// Analyze on the fixture's engine; the slab must hold its
        /// invariants when the launch returns (whatever it killed freed, on
        /// the tree every refined set an inner node).
        fn analyze(&mut self, launch: &TaskLaunch) -> AnalysisResult {
            let mut ctx = AnalysisCtx {
                forest: &self.forest,
                machine: &mut self.machine,
                shards: &self.shards,
            };
            let result = self.eng.analyze(launch, &mut ctx);
            let key = (self.forest.root_of(launch.reqs[0].region), self.field);
            let (shard, geometry) = self.eng.shards.lock(key);
            shard.check_slab(&self.forest, &geometry.alg);
            drop((shard, geometry));
            result
        }

        fn launch(&mut self, region: RegionId, privilege: Privilege) -> AnalysisResult {
            let launch = self.next_launch(region, privilege);
            self.analyze(&launch)
        }

        /// The shard of the fixture's current field.
        fn shard(&mut self) -> &mut FieldState {
            let field = self.field;
            let mut shards = self.eng.shards.iter_mut();
            shards.find(|(k, _)| k.1 == field).expect("a launch ran").1
        }
    }

    /// One iteration of the paper's loop as launches: a write wave over `p`,
    /// then a ghost wave over `g`.
    fn iteration(fx: &mut Fixture, p: PartitionId, g: PartitionId) -> Vec<TaskLaunch> {
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let mut launches = Vec::new();
        for (part, privilege) in [(p, Privilege::ReadWrite), (g, sum)] {
            for i in 0..3 {
                launches.push(fx.next_launch(fx.forest.subregion(part, i), privilege));
            }
        }
        launches
    }

    #[test]
    fn dependences_match_paper_example() {
        for (arm, eng) in arms() {
            let (mut fx, _n, p, g) = paper_fixture(eng());
            let sum = Privilege::Reduce(RedOpRegistry::SUM);
            for i in 0..3 {
                let r = fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
                assert!(r.deps.is_empty(), "{arm}");
            }
            let r3 = fx.launch(fx.forest.subregion(g, 0), sum);
            assert_eq!(r3.deps, vec![TaskId(1), TaskId(2)], "{arm}");
            let r4 = fx.launch(fx.forest.subregion(g, 1), sum);
            assert_eq!(r4.deps, vec![TaskId(0), TaskId(2)], "{arm}");
            let r5 = fx.launch(fx.forest.subregion(g, 2), sum);
            assert_eq!(r5.deps, vec![TaskId(0), TaskId(1)], "{arm}");
            // Second loop entry: t6 = rw P[0] depends on the ghost reducers
            // overlapping P[0] (t4 on 8,9 and t5 on 9) plus its old write t0.
            let r6 = fx.launch(fx.forest.subregion(p, 0), Privilege::ReadWrite);
            assert_eq!(r6.deps, vec![TaskId(0), TaskId(4), TaskId(5)], "{arm}");
        }
    }

    /// The geometry is the root's: a second field of `N` running the same
    /// ghost/write loop as `up` sweeps no pair and interns no space, and
    /// each field's results are those of a fresh single-field engine.
    #[test]
    fn second_field_of_a_root_is_free() {
        for (arm, eng) in arms() {
            let (mut fx, n, p, g) = paper_fixture(eng());
            let dn = fx.forest.add_field(n, "dn");
            let mut geometry = Vec::new();
            for field in [fx.field, dn] {
                fx.field = field;
                let (mut alone, mut machine) = (eng(), Machine::new(1));
                for _ in 0..3 {
                    for launch in iteration(&mut fx, p, g) {
                        let expect = alone.analyze(&launch, &mut fx.ctx(&mut machine));
                        assert_eq!(fx.analyze(&launch), expect, "{arm}");
                    }
                }
                let size = fx.eng.state_size();
                geometry.push((size.algebra_misses, size.interned_spaces));
            }
            assert!(geometry[0].0 > 0, "{arm}: the loop never reached the memo");
            assert_eq!(
                geometry[0], geometry[1],
                "{arm}: (misses, interned) after each field"
            );
        }
    }

    /// Regression (commit path): a requirement that resolves to *no*
    /// equivalence sets — here a write to an empty region — must commit as
    /// a no-op. The seed committed through `get_mut(&key).unwrap()` under
    /// the assumption the scan left something to commit to.
    #[test]
    fn commit_with_no_relevant_sets_is_a_noop() {
        // The sets before any other launch: the root, or one per piece.
        for ((arm, eng), sets) in arms().into_iter().zip([1, 3, 1]) {
            let (mut fx, n, _p, _g) = paper_fixture(eng());
            let e = fx
                .forest
                .create_partition(n, "E", vec![IndexSpace::empty()]);
            let empty = fx.forest.subregion(e, 0);
            let r = fx.launch(empty, Privilege::ReadWrite);
            assert!(r.deps.is_empty(), "{arm}");
            assert!(
                r.plans[0].copies.is_empty(),
                "{arm}: nothing to materialize"
            );
            assert_eq!(fx.eng.state_size().equivalence_sets, sets, "{arm}");
            let r2 = fx.launch(n, Privilege::Read);
            assert!(
                r2.deps.is_empty(),
                "{arm}: empty-region write left no history"
            );
            let r3 = fx.launch(n, Privilege::ReadWrite);
            assert_eq!(r3.deps, vec![TaskId(1)], "{arm}: a full write still works");
        }
    }

    /// Fig 10's refinement cascade: the primary pieces refine the root into
    /// three sets; ghost accesses refine further; repeating the loop adds
    /// no new sets.
    #[test]
    fn fig10_refinement_then_steady_state() {
        let (mut fx, _n, p, g) = paper_fixture(EqSetEngine::warnock());
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
            for launch in iteration(&mut fx, p, g) {
                fx.analyze(&launch);
            }
        }
        assert_eq!(
            fx.eng.state_size().equivalence_sets,
            after_first_iter,
            "Warnock's sets are stable after the partitions are discovered"
        );
    }

    #[test]
    fn write_resets_histories() {
        let (mut fx, n) = fixture_with(EqSetEngine::warnock(), |_, _| {});
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
        let (mut fx, n) = fixture_with(EqSetEngine::warnock(), |f, n| {
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
        let (mut fx, n) = fixture_with(EqSetEngine::warnock(), |f, n| {
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

    /// Ablation A2's engine reads no memo and writes none, and finds what
    /// the memoized engine finds. (Descending from the root instead of the
    /// memo visits the sets in another order, and so lists one task's
    /// reduction fragments in another order.)
    #[test]
    fn warnock_without_memoization_keeps_no_memo() {
        let (mut fx, _n, p, g) = paper_fixture(EqSetEngine::warnock().without_memoization());
        let (mut memoized, mut machine) = (EqSetEngine::warnock(), Machine::new(1));
        let fragments_sorted = |mut r: AnalysisResult| {
            for plan in &mut r.plans {
                let at = |f: &crate::plan::ReduceRange| (f.task, f.req, f.domain.bbox().lo);
                plan.reductions.sort_by_key(at);
            }
            r
        };
        for _ in 0..3 {
            for launch in iteration(&mut fx, p, g) {
                let expect = memoized.analyze(&launch, &mut fx.ctx(&mut machine));
                let got = fx.analyze(&launch);
                assert_eq!(fragments_sorted(got), fragments_sorted(expect));
            }
        }
        assert!(memoized.state_size().memo_entries > 0);
        assert_eq!(fx.eng.state_size().memo_entries, 0);
    }

    /// §7: "The write privilege causes any refinements and their histories
    /// ... to be discarded, reducing the number of equivalence sets."
    #[test]
    fn dominating_writes_coalesce_sets_each_iteration() {
        let (mut fx, _n, p, g) = paper_fixture(EqSetEngine::raycast());
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let mut after_writes = Vec::new();
        let mut after_ghosts = Vec::new();
        for _ in 0..4 {
            for i in 0..3 {
                fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
            }
            after_writes.push(fx.eng.state_size().equivalence_sets);
            for i in 0..3 {
                fx.launch(fx.forest.subregion(g, i), sum);
            }
            after_ghosts.push(fx.eng.state_size().equivalence_sets);
        }
        // After the write wave the decomposition returns to the 3 pieces.
        assert!(
            after_writes.iter().all(|s| *s == 3),
            "writes must coalesce back to the primary pieces: {after_writes:?}"
        );
        // Ghost refinement re-fragments, but to a stable bounded count.
        assert_eq!(after_ghosts[1], after_ghosts[3]);
        assert!(after_ghosts[0] > 3);
    }

    /// §7's pruning, as memory: an occluded set's slot is freed by the
    /// launch that occluded it (`Fixture::analyze` checks every launch), so
    /// the table does not grow with program length — with no `collect`.
    #[test]
    fn set_table_is_bounded_without_gc() {
        let slots_after = |iterations: usize| {
            let (mut fx, _n, p, g) = paper_fixture(EqSetEngine::raycast());
            for _ in 0..iterations {
                for launch in iteration(&mut fx, p, g) {
                    fx.analyze(&launch);
                }
            }
            fx.shard().sets.len()
        };
        assert_eq!(slots_after(4), slots_after(40));
    }

    /// A shard whose birth stamps run out renumbers its live sets in birth
    /// order: same results as a shard that started at zero.
    #[test]
    fn born_wrap_renumbers_in_birth_order() {
        let (mut fresh, _n, p, g) = paper_fixture(EqSetEngine::raycast());
        let (mut old, ..) = paper_fixture(EqSetEngine::raycast());
        for i in 0..4 {
            for launch in iteration(&mut fresh, p, g) {
                assert_eq!(old.analyze(&launch), fresh.analyze(&launch));
            }
            if i == 0 {
                old.shard().next_born = BORN_RENUMBER_AT - 8;
            }
        }
        assert!(old.shard().next_born < 64, "the stamps restarted");
        assert_eq!(old.shard().sets.len(), fresh.shard().sets.len());
    }

    /// `state_size` — and so `Runtime::stats()` — reads through a root
    /// lock that a panicking scan poisoned.
    #[test]
    fn state_size_reads_through_a_poisoned_root_lock() {
        let (mut fx, n, p, g) = paper_fixture(EqSetEngine::raycast());
        for launch in iteration(&mut fx, p, g) {
            fx.analyze(&launch);
        }
        let before = fx.eng.state_size();
        let geometry = Arc::clone(fx.forest.geometry(n));
        let poisoner = std::thread::spawn(move || {
            let _guard = geometry.lock();
            panic!("a scan panics holding its root's geometry");
        });
        assert!(poisoner.join().is_err());
        assert!(fx.forest.geometry(n).is_poisoned());
        assert_eq!(fx.eng.state_size(), before);
    }

    /// A scan that panics holding its shard leaves the shard readable and
    /// claimable: `state_size` still reads it, and the next launches still
    /// analyze, exactly as on an engine no scan panicked in.
    #[test]
    fn shard_survives_a_scan_that_panicked_holding_it() {
        let (mut fx, n, p, g) = paper_fixture(EqSetEngine::raycast());
        let (mut reference, mut machine) = (EqSetEngine::raycast(), Machine::new(1));
        for launch in iteration(&mut fx, p, g) {
            reference.analyze(&launch, &mut fx.ctx(&mut machine));
            fx.analyze(&launch);
        }
        let before = fx.eng.state_size();
        let (eng, key) = (&fx.eng, (n, fx.field));
        let scan = std::thread::scope(|s| {
            let scan = s.spawn(|| {
                let _held = eng.shards.lock(key);
                panic!("a scan panics holding its shard");
            });
            scan.join()
        });
        assert!(scan.is_err());
        assert_eq!(fx.eng.state_size(), before);
        for launch in iteration(&mut fx, p, g) {
            let expect = reference.analyze(&launch, &mut fx.ctx(&mut machine));
            assert_eq!(fx.analyze(&launch), expect);
        }
    }

    #[test]
    fn raycast_keeps_fewer_sets_than_warnock() {
        let (mut fx, _n, p, g) = paper_fixture(EqSetEngine::raycast());
        let mut weng = EqSetEngine::warnock();
        let mut wmachine = Machine::new(1);
        for _ in 0..4 {
            for launch in iteration(&mut fx, p, g) {
                weng.analyze(&launch, &mut fx.ctx(&mut wmachine));
                fx.analyze(&launch);
            }
        }
        let ray = fx.eng.state_size().equivalence_sets;
        let war = weng.state_size().equivalence_sets;
        assert!(
            ray <= war,
            "ray casting must maintain fewer sets (ray {ray} vs warnock {war})"
        );
    }

    /// A root whose only partition is aliased and incomplete: `[0, 12]` and
    /// `[8, 15]` of `[0, 19]`.
    fn kd_fixture() -> (Fixture, RegionId, RegionId, RegionId) {
        let mut forest = RegionForest::new();
        let n = forest.create_root("N", IndexSpace::span(0, 19));
        let field = forest.add_field(n, "v");
        let g = forest.create_partition(
            n,
            "G",
            vec![IndexSpace::span(0, 12), IndexSpace::span(8, 15)],
        );
        let (g0, g1) = (forest.subregion(g, 0), forest.subregion(g, 1));
        (
            Fixture::new(forest, field, EqSetEngine::raycast()),
            n,
            g0,
            g1,
        )
    }

    #[test]
    fn kd_fallback_when_no_disjoint_complete_partition() {
        let (mut fx, n, g0, g1) = kd_fixture();
        let r0 = fx.launch(g0, Privilege::ReadWrite);
        assert!(r0.deps.is_empty());
        let r1 = fx.launch(g1, Privilege::ReadWrite);
        assert_eq!(r1.deps, vec![TaskId(0)], "overlap through the K-d index");
        let r2 = fx.launch(n, Privilege::Read);
        assert_eq!(r2.deps, vec![TaskId(0), TaskId(1)]);
        let total: u64 = r2.plans[0].copies.iter().map(|c| c.domain.volume()).sum();
        assert_eq!(total, 20);
    }

    /// The K-d arm frees and reuses slots like the anchored one: the tree
    /// holds exactly the live sets, under keys `recycle` checks.
    #[test]
    fn kd_arm_reuses_slots() {
        let (mut fx, n, g0, g1) = kd_fixture();
        let (rw, mut slots) = (Privilege::ReadWrite, Vec::new());
        for _ in 0..6 {
            for (region, privilege) in [(g0, rw), (g1, rw), (n, Privilege::Read)] {
                fx.launch(region, privilege);
                let s = fx.shard();
                let SetIndex::Kd { tree } = &s.index else {
                    unreachable!()
                };
                assert_eq!(tree.len(), s.live);
            }
            slots.push(fx.shard().sets.len());
        }
        assert_eq!(slots[1], slots[5], "the table stopped growing: {slots:?}");
    }

    #[test]
    fn plan_reads_across_pieces() {
        let (mut fx, n, p, _) = paper_fixture(EqSetEngine::raycast());
        for i in 0..3 {
            fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
        }
        let r = fx.launch(n, Privilege::Read);
        assert_eq!(r.deps.len(), 3);
        let total: u64 = r.plans[0].copies.iter().map(|c| c.domain.volume()).sum();
        assert_eq!(total, 30);
        assert!(r.plans[0]
            .copies
            .iter()
            .all(|c| c.source != Source::Initial));
    }

    /// Regression (§7.1 shifting): re-anchoring used to clear the whole
    /// anchor memo; it must only invalidate regions whose overlapping-
    /// anchor sets actually changed under the new partition.
    #[test]
    fn shift_keeps_memo_entries_whose_anchors_are_unchanged() {
        let (mut fx, n, p, _g) = paper_fixture(EqSetEngine::raycast());
        // P0 = [0,9] overlaps exactly {Q0}: its memo entry [0] is valid
        // under both partitions. P2 = [20,29] maps to anchor 2 under P but
        // anchor 1 under Q: stale.
        let q = add_q(&mut fx, n);
        for i in 0..3 {
            fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
        }
        assert_eq!(fx.eng.shift_count(), 0);
        // Drive usage of Q until the shift heuristic fires (≥16 uses and
        // ≥4× the current partition's).
        let q0 = fx.forest.subregion(q, 0);
        for _ in 0..16 {
            fx.launch(q0, Privilege::Read);
        }
        assert_eq!(fx.eng.shift_count(), 1, "re-anchored to Q");
        // The memo holds Q0 (just looked up) *and* the still-valid P0
        // entry; P1 and P2 were invalidated. The seed's wholesale clear
        // leaves only Q0.
        assert_eq!(fx.eng.state_size().memo_entries, 2);
        // Post-shift answers stay correct: reading P2 sees the P-wave
        // write, through a freshly recomputed anchor list.
        let r = fx.launch(fx.forest.subregion(p, 2), Privilege::Read);
        assert_eq!(r.deps, vec![TaskId(2)]);
    }

    /// The sorted anchors of the live set whose domain is `space`.
    fn anchors_of(fx: &Fixture, root: RegionId, space: &IndexSpace) -> Vec<u32> {
        let (shard, geometry) = fx.eng.shards.lock((root, fx.field));
        let mut live = shard.sets.iter().filter(|s| s.live);
        let set = live
            .find(|s| geometry.alg.space(s.eq.domain) == space)
            .unwrap_or_else(|| panic!("no live set is {space:?}"));
        let mut anchors = set
            .anchors
            .as_deref()
            .expect("a live set is placed")
            .to_vec();
        anchors.sort_unstable();
        anchors
    }

    /// Interleaved children tile the root with overlapping boxes: P0 =
    /// {0..4, 10..14, 20..24}, P1 = {5..9, 15..19, 25..29}. An initial set
    /// holds only its own anchor, so its halves are placed from its box
    /// answer, [0, 1], not from that list; a later half inherits its
    /// parent's list, filtered by box. Every placement is the forest's box
    /// query (`Fixture::analyze` checks each live set after every launch).
    #[test]
    fn interleaved_anchors_place_halves_by_box() {
        let runs =
            |lo: i64| IndexSpace::from_rects([0, 10, 20].map(|x| Rect::span(lo + x, lo + x + 4)));
        let (mut fx, n) = fixture_with(EqSetEngine::raycast(), |f, n| {
            f.create_partition(n, "P", vec![runs(0), runs(5)]);
            let reads = [(2, 3), (0, 1), (12, 17)].map(|(lo, hi)| IndexSpace::span(lo, hi));
            f.create_partition(n, "R", reads.to_vec());
        });
        let read = fx.forest.partitions_of(n)[1];
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let space = |runs: &[(i64, i64)]| {
            IndexSpace::from_rects(runs.iter().map(|&(lo, hi)| Rect::span(lo, hi)))
        };
        // Splits initial P0: the outside half's box meets both children.
        fx.launch(fx.forest.subregion(read, 0), sum);
        assert_eq!(anchors_of(&fx, n, &space(&[(2, 3)])), [0]);
        let rest = space(&[(0, 1), (4, 4), (10, 14), (20, 24)]);
        assert_eq!(anchors_of(&fx, n, &rest), [0, 1]);
        assert_eq!(anchors_of(&fx, n, &runs(5)), [1], "initial P1 is as built");
        // Splits that half: the inside one drops anchor 1.
        fx.launch(fx.forest.subregion(read, 1), sum);
        assert_eq!(anchors_of(&fx, n, &space(&[(0, 1)])), [0]);
        let rest = space(&[(4, 4), (10, 14), (20, 24)]);
        assert_eq!(anchors_of(&fx, n, &rest), [0, 1]);
        // Splits a non-initial half and initial P1.
        fx.launch(fx.forest.subregion(read, 2), sum);
        for half in [
            space(&[(12, 14)]),
            space(&[(4, 4), (10, 11), (20, 24)]),
            space(&[(15, 17)]),
            space(&[(5, 9), (18, 19), (25, 29)]),
        ] {
            assert_eq!(anchors_of(&fx, n, &half), [0, 1], "{half:?}");
        }
        let mut deps = fx.launch(n, Privilege::Read).deps;
        deps.sort_unstable();
        deps.dedup();
        assert_eq!(deps, [TaskId(0), TaskId(1), TaskId(2)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The anchor memo is a pure cache: across random refine sequences
        /// — including usage-driven anchor shifts — the memoized engine
        /// must produce exactly the dependences and plans of an engine
        /// that recomputes every anchor lookup from the region tree.
        #[test]
        fn anchor_memo_agrees_with_unmemoized(
            // (partition, child, privilege) steps over the paper fixture
            // plus Q.
            ops in prop::collection::vec((0u8..4, 0u8..3, 0u8..3), 1..60),
        ) {
            let (mut fx, n, p, g) = paper_fixture(EqSetEngine::raycast());
            let q = add_q(&mut fx, n);
            let mut bare = EqSetEngine::raycast().without_memoization();
            let mut bare_machine = Machine::new(1);
            for (i, (part, child, privilege)) in ops.into_iter().enumerate() {
                let region = match part {
                    0 => fx.forest.subregion(p, (child % 3) as usize),
                    1 => fx.forest.subregion(g, (child % 3) as usize),
                    // Bias toward Q so shift heuristics actually fire.
                    _ => fx.forest.subregion(q, (child % 2) as usize),
                };
                let privilege = match privilege {
                    0 => Privilege::ReadWrite,
                    1 => Privilege::Read,
                    _ => Privilege::Reduce(RedOpRegistry::SUM),
                };
                let launch = fx.next_launch(region, privilege);
                let memoized = fx.analyze(&launch);
                let reference = bare.analyze(&launch, &mut fx.ctx(&mut bare_machine));
                prop_assert_eq!(&memoized.deps, &reference.deps, "launch {}", i);
                prop_assert_eq!(&memoized.plans, &reference.plans, "launch {}", i);
            }
            prop_assert_eq!(
                fx.eng.state_size().equivalence_sets,
                bare.state_size().equivalence_sets
            );
        }
    }
}

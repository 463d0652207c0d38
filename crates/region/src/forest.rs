//! Region trees: regions, partitions, fields (paper §2, Fig 2(c)).

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use viz_geometry::{Bvh, IndexSpace, InternConfig, Rect, SpaceAlgebra, SpaceId};

/// A logical region: a named subset of a collection's index space.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// A partition: an array of subregions of one parent region.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub u32);

/// A field of a region tree (e.g. `up` / `down` in Fig 1). Coherence is
/// analyzed independently per field.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u32);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl fmt::Debug for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}
impl fmt::Debug for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct RegionNode {
    name: String,
    domain: IndexSpace,
    /// `domain`, interned in the root's geometry when the region was made.
    space: SpaceId,
    /// The partition this region is a child of (`None` for roots).
    parent: Option<PartitionId>,
    /// Partitions dividing this region.
    partitions: Vec<PartitionId>,
    root: RegionId,
    depth: u32,
}

#[derive(Clone, Debug)]
struct PartitionNode {
    name: String,
    parent: RegionId,
    children: Vec<RegionId>,
    disjoint: bool,
    complete: bool,
    /// BVH over children bounding boxes, keyed by position: the anchor
    /// queries (`overlapping_children`, `overlapping_child_bboxes`) and the
    /// verifying `create_partition`'s disjointness check.
    child_bvh: Bvh,
}

/// A BVH over `subdomains`' bounding boxes, keyed by position.
fn child_bvh(subdomains: &[IndexSpace]) -> Bvh {
    let boxes = subdomains.iter().enumerate();
    Bvh::build(boxes.map(|(i, s)| (i as u32, s.bbox())).collect())
}

/// One root region's geometry: an interner holding every region domain of
/// the tree, and the set-algebra memo every engine's scans of the tree go
/// through. Refinement depends only on geometry (§6–7), so the fields of a
/// root — in any engine — ask the same questions, answered once. Invisible:
/// charges are priced per logical operation, never per memo miss, and every
/// output is structural.
pub struct RootGeometry {
    pub alg: SpaceAlgebra,
}

/// A root's geometry as the forest and the engines' shards hold it. A scan
/// locks it once per shard batch: the shards of one root serialize on it.
pub type SharedGeometry = Arc<Mutex<RootGeometry>>;

impl RootGeometry {
    fn new(intern: InternConfig) -> Self {
        RootGeometry {
            alg: SpaceAlgebra::new(intern),
        }
    }

    /// Lock, reading through poison: a scan that panicked holding it also
    /// poisoned the runtime's core, so only a lost batch or a counter
    /// reader ever sees it afterwards.
    pub fn lock(geometry: &SharedGeometry) -> MutexGuard<'_, RootGeometry> {
        geometry.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl fmt::Debug for RootGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RootGeometry")
            .field("stats", &self.alg.stats())
            .finish()
    }
}

/// A forest of region trees (Fig 2(c)): the shared naming structure for all
/// data in a program.
///
/// The forest records names and domains — values live in physical instances
/// owned by the runtime — and neither changes once created. Partitions are
/// verified (or declared) to be disjoint and/or complete at creation time;
/// the analyses consult these flags constantly (e.g. the painter's
/// algorithm skips composite views for disjoint siblings, ray casting
/// anchors equivalence sets under disjoint-and-complete partitions).
///
/// Each root owns a [`RootGeometry`], built with the forest's
/// [`InternConfig`], into which every region's domain is interned when the
/// region is created ([`RegionForest::space`] is an array read). It is a
/// cache behind a lock, the one part of the forest analysis mutates.
///
/// `Clone` is cold: fresh geometries holding only the region domains, built
/// without locking the source's, so cloning a live forest never waits
/// behind analysis, and a clone analyzes from scratch as its source did —
/// runs installed from one clone would otherwise measure a warmed program.
#[derive(Debug, Default)]
pub struct RegionForest {
    regions: Vec<RegionNode>,
    partitions: Vec<PartitionNode>,
    roots: Vec<RegionId>,
    /// Per root, in `roots` order.
    geometries: Vec<SharedGeometry>,
    /// Field names per root region tree, indexed by `FieldId`.
    fields: Vec<(RegionId, String)>,
    intern: InternConfig,
}

impl Clone for RegionForest {
    fn clone(&self) -> Self {
        let fresh = || Arc::new(Mutex::new(RootGeometry::new(self.intern)));
        let mut forest = RegionForest {
            regions: self.regions.clone(),
            partitions: self.partitions.clone(),
            roots: self.roots.clone(),
            geometries: self.roots.iter().map(|_| fresh()).collect(),
            fields: self.fields.clone(),
            intern: self.intern,
        };
        for node in &mut forest.regions {
            let geometry = &forest.geometries[self.root_index(node.root)];
            node.space = RootGeometry::lock(geometry).alg.intern(&node.domain);
        }
        forest
    }
}

impl RegionForest {
    pub fn new() -> Self {
        Self::default()
    }

    /// A forest whose root geometries use `intern`.
    pub fn with_intern(intern: InternConfig) -> Self {
        RegionForest {
            intern,
            ..Self::default()
        }
    }

    /// Create a new root region (a whole collection).
    pub fn create_root(&mut self, name: impl Into<String>, domain: IndexSpace) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        let mut geometry = RootGeometry::new(self.intern);
        self.regions.push(RegionNode {
            name: name.into(),
            space: geometry.alg.intern(&domain),
            domain,
            parent: None,
            partitions: Vec::new(),
            root: id,
            depth: 0,
        });
        self.roots.push(id);
        self.geometries.push(Arc::new(Mutex::new(geometry)));
        id
    }

    /// Position of `root` in `roots` (ids increase, so it is sorted).
    fn root_index(&self, root: RegionId) -> usize {
        self.roots.binary_search(&root).expect("a root")
    }

    /// Add a field to the region tree rooted at `root`.
    pub fn add_field(&mut self, root: RegionId, name: impl Into<String>) -> FieldId {
        debug_assert_eq!(self.regions[root.0 as usize].root, root, "not a root");
        let id = FieldId(self.fields.len() as u32);
        self.fields.push((root, name.into()));
        id
    }

    /// Does `field` exist and belong to the tree containing `region`? O(1):
    /// a field records its root, so this is one lookup and one compare, with
    /// no scan of the forest's fields. `region` must exist.
    pub fn has_field(&self, region: RegionId, field: FieldId) -> bool {
        self.fields
            .get(field.0 as usize)
            .is_some_and(|(root, _)| *root == self.root_of(region))
    }

    pub fn field_name(&self, f: FieldId) -> &str {
        &self.fields[f.0 as usize].1
    }

    /// Partition `parent` into the given subdomains. Disjointness and
    /// completeness are computed from the geometry: candidate overlap pairs
    /// come from a bounding-box BVH (instead of testing all n² pairs) and
    /// the exact checks run through the root's [`SpaceAlgebra`], so
    /// repeated subdomain shapes are checked once.
    ///
    /// # Panics
    /// If any subdomain is not contained in the parent's domain.
    pub fn create_partition(
        &mut self,
        parent: RegionId,
        name: impl Into<String>,
        subdomains: Vec<IndexSpace>,
    ) -> PartitionId {
        let bvh = child_bvh(&subdomains);
        let mut geom = RootGeometry::lock(self.geometry(parent));
        let alg = &mut geom.alg;
        let parent_id = self.space(parent);
        let ids: Vec<_> = subdomains.iter().map(|s| alg.intern(s)).collect();
        for (i, s) in ids.iter().enumerate() {
            assert!(
                alg.contains(parent_id, *s),
                "subregion {i} of partition escapes its parent"
            );
        }
        // Disjointness: no pair of children overlaps. The partition's BVH
        // narrows the pairs to those whose bounding boxes meet.
        let mut disjoint = true;
        let mut candidates = Vec::new();
        'outer: for (i, s) in subdomains.iter().enumerate() {
            candidates.clear();
            for r in s.rects() {
                bvh.query(r, &mut candidates);
            }
            candidates.sort_unstable();
            candidates.dedup();
            for &c in &candidates {
                let j = c as usize;
                if j > i && alg.overlaps(ids[i], ids[j]) {
                    disjoint = false;
                    break 'outer;
                }
            }
        }
        // Completeness: children cover the parent. When disjoint, volumes
        // suffice; otherwise compute the union (one fold, one result kept).
        let parent_volume = self.domain(parent).volume();
        let complete = if disjoint {
            subdomains.iter().map(IndexSpace::volume).sum::<u64>() == parent_volume
        } else {
            let union = alg.union_all(&ids);
            alg.space(union).volume() == parent_volume
        };
        drop(geom);
        self.push_partition(parent, name.into(), subdomains, bvh, disjoint, complete)
    }

    /// Partition with caller-asserted flags (skips the O(n²) verification;
    /// used by generators that construct partitions known to be
    /// disjoint/complete, e.g. regular tilings at large node counts).
    pub fn create_partition_with_flags(
        &mut self,
        parent: RegionId,
        name: impl Into<String>,
        subdomains: Vec<IndexSpace>,
        disjoint: bool,
        complete: bool,
    ) -> PartitionId {
        let bvh = child_bvh(&subdomains);
        self.push_partition(parent, name.into(), subdomains, bvh, disjoint, complete)
    }

    /// Add the partition, its children, and their BVH `child_bvh`.
    fn push_partition(
        &mut self,
        parent: RegionId,
        name: String,
        subdomains: Vec<IndexSpace>,
        child_bvh: Bvh,
        disjoint: bool,
        complete: bool,
    ) -> PartitionId {
        let pid = PartitionId(self.partitions.len() as u32);
        let (root, depth) = {
            let p = &self.regions[parent.0 as usize];
            (p.root, p.depth)
        };
        let geometry = Arc::clone(self.geometry(parent));
        let mut geom = RootGeometry::lock(&geometry);
        let mut children = Vec::with_capacity(subdomains.len());
        for (i, domain) in subdomains.into_iter().enumerate() {
            let rid = RegionId(self.regions.len() as u32);
            self.regions.push(RegionNode {
                name: format!("{name}[{i}]"),
                space: geom.alg.intern(&domain),
                domain,
                parent: Some(pid),
                partitions: Vec::new(),
                root,
                depth: depth + 1,
            });
            children.push(rid);
        }
        self.partitions.push(PartitionNode {
            name,
            parent,
            children,
            disjoint,
            complete,
            child_bvh,
        });
        self.regions[parent.0 as usize].partitions.push(pid);
        pid
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    pub fn domain(&self, r: RegionId) -> &IndexSpace {
        &self.regions[r.0 as usize].domain
    }

    /// `r`'s domain as interned in its root's geometry.
    pub fn space(&self, r: RegionId) -> SpaceId {
        self.regions[r.0 as usize].space
    }

    /// The geometry of `r`'s tree, where [`RegionForest::space`] ids live.
    pub fn geometry(&self, r: RegionId) -> &SharedGeometry {
        &self.geometries[self.root_index(self.root_of(r))]
    }

    pub fn region_name(&self, r: RegionId) -> &str {
        &self.regions[r.0 as usize].name
    }

    pub fn partition_name(&self, p: PartitionId) -> &str {
        &self.partitions[p.0 as usize].name
    }

    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    pub fn roots(&self) -> &[RegionId] {
        &self.roots
    }

    /// The partition this region belongs to, `None` for roots.
    pub fn parent_partition(&self, r: RegionId) -> Option<PartitionId> {
        self.regions[r.0 as usize].parent
    }

    /// The region a partition divides.
    pub fn parent_region(&self, p: PartitionId) -> RegionId {
        self.partitions[p.0 as usize].parent
    }

    /// The subregions of a partition, in color order.
    pub fn children(&self, p: PartitionId) -> &[RegionId] {
        &self.partitions[p.0 as usize].children
    }

    /// The `i`-th subregion of a partition (`P[i]` in the paper's notation).
    pub fn subregion(&self, p: PartitionId, i: usize) -> RegionId {
        self.partitions[p.0 as usize].children[i]
    }

    /// The partitions dividing a region.
    pub fn partitions_of(&self, r: RegionId) -> &[PartitionId] {
        &self.regions[r.0 as usize].partitions
    }

    pub fn is_disjoint(&self, p: PartitionId) -> bool {
        self.partitions[p.0 as usize].disjoint
    }

    pub fn is_complete(&self, p: PartitionId) -> bool {
        self.partitions[p.0 as usize].complete
    }

    /// Root region of the tree containing `r`.
    pub fn root_of(&self, r: RegionId) -> RegionId {
        self.regions[r.0 as usize].root
    }

    pub fn depth(&self, r: RegionId) -> u32 {
        self.regions[r.0 as usize].depth
    }

    /// Regions from the root down to `r`, inclusive on both ends.
    pub fn path_from_root(&self, r: RegionId) -> Vec<RegionId> {
        let mut path = vec![r];
        let mut cur = r;
        while let Some(p) = self.regions[cur.0 as usize].parent {
            cur = self.partitions[p.0 as usize].parent;
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Is `anc` an ancestor of `r` (or `r` itself)?
    pub fn is_ancestor(&self, anc: RegionId, r: RegionId) -> bool {
        let mut cur = r;
        loop {
            if cur == anc {
                return true;
            }
            match self.regions[cur.0 as usize].parent {
                Some(p) => cur = self.partitions[p.0 as usize].parent,
                None => return false,
            }
        }
    }

    /// Positions (colors) of the children of `p` whose domain overlaps
    /// `space`, ascending, via the partition's BVH plus an exact check.
    /// This is the region-tree "acceleration data structure" role from
    /// §5.1.
    ///
    /// `space` is interned in `alg`, the geometry of `p`'s root (the
    /// caller holds its lock). One query with `space`'s cached bounding box
    /// finds every child any of its rects can touch; the exact check drops
    /// the rest through [`SpaceAlgebra::overlaps_unmemoized`], which reads
    /// both operands' shapes off the interner and leaves no memo entry.
    pub fn overlapping_children(
        &self,
        p: PartitionId,
        space: SpaceId,
        alg: &SpaceAlgebra,
    ) -> Vec<u32> {
        let node = &self.partitions[p.0 as usize];
        let mut hits = Vec::new();
        node.child_bvh.query(&alg.bbox(space), &mut hits);
        hits.sort_unstable();
        hits.retain(|c| alg.overlaps_unmemoized(self.space(node.children[*c as usize]), space));
        hits
    }

    /// Positions of the children of `p` whose bounding box overlaps `bbox`,
    /// in the partition BVH's traversal order, with no exact check: a
    /// function of `bbox` and the children alone, so a caller placing sets
    /// by bounding box can memoize it per shape.
    pub fn overlapping_child_bboxes(&self, p: PartitionId, bbox: &Rect) -> Vec<u32> {
        self.partitions[p.0 as usize].child_bvh.query_vec(bbox)
    }

    /// Partitions of `r` that are both disjoint and complete — the subtrees
    /// ray casting prefers for its BVH (§7.1).
    pub fn disjoint_complete_partitions(&self, r: RegionId) -> Vec<PartitionId> {
        self.partitions_of(r)
            .iter()
            .copied()
            .filter(|p| self.is_disjoint(*p) && self.is_complete(*p))
            .collect()
    }

    /// Convenience: create a 1-D root region `[0, n)`.
    pub fn create_root_1d(&mut self, name: impl Into<String>, n: i64) -> RegionId {
        self.create_root(name, IndexSpace::from_rect(Rect::span(0, n - 1)))
    }

    /// Convenience: block-partition a 1-D region into `pieces` equal chunks.
    pub fn create_equal_partition_1d(
        &mut self,
        parent: RegionId,
        name: impl Into<String>,
        pieces: usize,
    ) -> PartitionId {
        let bbox = self.domain(parent).bbox();
        let n = bbox.hi.x - bbox.lo.x + 1;
        let mut subs = Vec::with_capacity(pieces);
        for i in 0..pieces as i64 {
            let lo = bbox.lo.x + i * n / pieces as i64;
            let hi = bbox.lo.x + (i + 1) * n / pieces as i64 - 1;
            subs.push(IndexSpace::from_rect(Rect::span(lo, hi)));
        }
        self.create_partition_with_flags(parent, name, subs, true, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's running example (Figs 1-2): a node region with a
    /// disjoint primary partition and an aliased, incomplete ghost
    /// partition.
    fn paper_forest() -> (RegionForest, RegionId, PartitionId, PartitionId) {
        let mut f = RegionForest::new();
        let n = f.create_root("N", IndexSpace::span(0, 29));
        let p = f.create_partition(
            n,
            "P",
            vec![
                IndexSpace::span(0, 9),
                IndexSpace::span(10, 19),
                IndexSpace::span(20, 29),
            ],
        );
        // Ghost subregions: nodes adjacent to each piece — aliased (some
        // nodes in two ghost subregions) and incomplete.
        let g = f.create_partition(
            n,
            "G",
            vec![
                IndexSpace::from_points([10, 11, 20].map(viz_geometry::Point::p1)),
                IndexSpace::from_points([8, 9, 20, 21].map(viz_geometry::Point::p1)),
                IndexSpace::from_points([9, 18, 19].map(viz_geometry::Point::p1)),
            ],
        );
        (f, n, p, g)
    }

    #[test]
    fn primary_partition_is_disjoint_complete() {
        let (f, _, p, _) = paper_forest();
        assert!(f.is_disjoint(p));
        assert!(f.is_complete(p));
    }

    #[test]
    fn ghost_partition_is_aliased_incomplete() {
        let (f, _, _, g) = paper_forest();
        assert!(!f.is_disjoint(g), "ghost subregions share node 20 / 9");
        assert!(!f.is_complete(g));
    }

    #[test]
    fn tree_navigation() {
        let (f, n, p, g) = paper_forest();
        assert_eq!(f.parent_region(p), n);
        assert_eq!(f.parent_region(g), n);
        let p1 = f.subregion(p, 1);
        assert_eq!(f.parent_partition(p1), Some(p));
        assert_eq!(f.root_of(p1), n);
        assert_eq!(f.depth(p1), 1);
        assert_eq!(f.path_from_root(p1), vec![n, p1]);
        assert!(f.is_ancestor(n, p1));
        assert!(!f.is_ancestor(p1, n));
        assert!(f.is_ancestor(p1, p1));
        assert_eq!(f.partitions_of(n), &[p, g]);
    }

    #[test]
    fn names_follow_color_indexing() {
        let (f, n, p, _) = paper_forest();
        assert_eq!(f.region_name(n), "N");
        assert_eq!(f.region_name(f.subregion(p, 2)), "P[2]");
        assert_eq!(f.partition_name(p), "P");
    }

    #[test]
    fn fields_per_tree() {
        let (mut f, n, _, _) = paper_forest();
        let up = f.add_field(n, "up");
        let down = f.add_field(n, "down");
        let m = f.create_root_1d("M", 10);
        let v = f.add_field(m, "v");
        assert_eq!(f.field_name(down), "down");
        // Fields of a subtree region resolve to the root's fields; a field of
        // another root, or one never added, is not the region's.
        let p0 = f.subregion(f.partitions_of(n)[0], 0);
        for r in [n, p0] {
            assert!(f.has_field(r, up) && f.has_field(r, down));
            assert!(!f.has_field(r, v));
        }
        assert!(f.has_field(m, v) && !f.has_field(m, up));
        assert!(!f.has_field(n, FieldId(99)));
    }

    #[test]
    fn overlapping_children_matches_brute_force() {
        let (f, n, p, g) = paper_forest();
        let geom = RootGeometry::lock(f.geometry(n));
        // G[0] = {10, 11, 20} overlaps P[1] (10..19) and P[2] (20..29).
        let g0 = f.subregion(g, 0);
        assert_eq!(
            f.overlapping_children(p, f.space(g0), &geom.alg),
            vec![1, 2]
        );
        // P[0] = 0..9 overlaps G[1] (8, 9) and G[2] (9).
        let p0 = f.subregion(p, 0);
        assert_eq!(
            f.overlapping_children(g, f.space(p0), &geom.alg),
            vec![1, 2]
        );
        // By bounding box, G[0]'s 10..20 also meets only P[1] and P[2].
        let mut boxes = f.overlapping_child_bboxes(p, &f.domain(g0).bbox());
        boxes.sort_unstable();
        assert_eq!(boxes, vec![1, 2]);
    }

    #[test]
    fn disjoint_complete_partition_discovery() {
        let (f, n, p, _) = paper_forest();
        assert_eq!(f.disjoint_complete_partitions(n), vec![p]);
    }

    #[test]
    fn equal_partition_1d() {
        let mut f = RegionForest::new();
        let r = f.create_root_1d("R", 100);
        let p = f.create_equal_partition_1d(r, "P", 7);
        assert!(f.is_disjoint(p));
        assert!(f.is_complete(p));
        let total: u64 = f.children(p).iter().map(|c| f.domain(*c).volume()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    #[should_panic(expected = "escapes its parent")]
    fn subregion_escaping_parent_panics() {
        let mut f = RegionForest::new();
        let r = f.create_root_1d("R", 10);
        f.create_partition(r, "bad", vec![IndexSpace::span(5, 15)]);
    }

    #[test]
    fn nested_partitions() {
        let mut f = RegionForest::new();
        let r = f.create_root_1d("R", 100);
        let p = f.create_equal_partition_1d(r, "P", 4);
        let p0 = f.subregion(p, 0);
        let q = f.create_equal_partition_1d(p0, "Q", 5);
        let q2 = f.subregion(q, 2);
        assert_eq!(f.depth(q2), 2);
        assert_eq!(f.path_from_root(q2), vec![r, p0, q2]);
        assert_eq!(f.domain(q2).volume(), 5);
        assert!(f.is_ancestor(r, q2));
    }

    /// Distinct region domains of `f`, plus the empty space: what a root
    /// geometry holds before analysis touches it.
    fn domains_interned(f: &RegionForest) -> usize {
        let all = (0..f.num_regions() as u32).map(|r| f.domain(RegionId(r)));
        all.collect::<std::collections::HashSet<_>>().len() + 1
    }

    /// The verifying `create_partition` checks through the root's geometry
    /// and leaves behind the region domains plus the aliased ghost
    /// partition's one `union_all` result — a pairwise `union` chain would
    /// leave an intermediate union resident too.
    #[test]
    fn verified_partitions_intern_their_domains_and_one_union() {
        let (f, n, ..) = paper_forest();
        let interned = RootGeometry::lock(f.geometry(n)).alg.stats().interned;
        assert_eq!(interned, domains_interned(&f) + 1);
    }

    /// `space(r)` names `domain(r)` in a forest and in its clone, whose ids
    /// differ: it holds no union between G's pieces and Q's.
    #[test]
    fn space_resolves_to_domain_in_forest_and_clone() {
        let (mut f, _, p, _) = paper_forest();
        f.create_equal_partition_1d(f.subregion(p, 0), "Q", 2);
        let m = f.create_root_1d("M", 8);
        f.create_equal_partition_1d(m, "R", 4);
        for f in [&f, &f.clone()] {
            for r in (0..f.num_regions() as u32).map(RegionId) {
                let geom = RootGeometry::lock(f.geometry(r));
                assert_eq!(geom.alg.space(f.space(r)), f.domain(r), "{r:?}");
            }
        }
    }

    /// A clone of a forest that analysis has warmed is cold — no counter or
    /// memo entry, only the region domains, as a twin built without
    /// verification — and is taken with the source's lock held.
    #[test]
    fn clone_of_a_warmed_forest_is_cold() {
        let (f, n, p, g) = paper_forest();
        let mut geom = RootGeometry::lock(f.geometry(n));
        // What an engine's refinement does to the root's geometry.
        for (&piece, &ghost) in f.children(p).iter().zip(f.children(g).iter().rev()) {
            let (dom, target) = (f.space(piece), f.space(ghost));
            if geom.alg.overlaps(dom, target) {
                geom.alg.split(dom, target);
            }
        }
        assert!(geom.alg.stats().interned > domains_interned(&f) + 1);
        let cold = RootGeometry::lock(f.clone().geometry(n)).alg.stats();
        let counters = (cold.hits, cold.fast_hits, cold.misses, cold.cache_entries);
        assert_eq!(counters, (0, 0, 0, 0));
        assert_eq!(cold.interned, domains_interned(&f));
    }
}

//! Dependent partitioning (Treichler et al., OOPSLA 2016 — the paper's
//! reference \[25\]).
//!
//! The partitions the benchmarks rely on are rarely written down by hand:
//! the ghost partition of Fig 2(b) is *computed* from the graph's edges.
//! Legion provides a small algebra of partitioning operators for this;
//! this module implements the core of it over [`RegionForest`]:
//!
//! * [`partition_by_field`] — group points by a color function (Legion's
//!   `partition_by_field`, with the field contents supplied as a closure);
//! * [`image`] — push a partition of one region through a relation to
//!   another region (e.g. wires → the nodes they touch);
//! * [`preimage`] — pull a partition back through a relation (e.g. nodes →
//!   the wires touching them);
//! * [`difference`], [`intersection`], [`union_pairwise`] — pairwise
//!   set-algebra on same-color subregions of two partitions.
//!
//! Computed partitions get their disjoint/complete flags from
//! [`RegionForest::create_partition`]'s checks on the root's geometry.
//!
//! The circuit ghost partition is then literally
//! `difference(image(W, endpoints), P)` — see the `circuit_ghosts` test,
//! which reproduces the Fig 2 construction.

use crate::forest::{PartitionId, RegionForest, RegionId};
use viz_geometry::{IndexSpace, Point};

/// Partition `region` by a color function: subregion `i` receives the
/// points colored `i`. Colors outside `0..colors` are dropped. The result
/// is disjoint by construction (each point has one color); completeness is
/// computed from coverage.
pub fn partition_by_field(
    forest: &mut RegionForest,
    region: RegionId,
    name: impl Into<String>,
    colors: usize,
    color_of: impl Fn(Point) -> Option<usize>,
) -> PartitionId {
    let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); colors];
    let mut covered = 0u64;
    let domain = forest.domain(region).clone();
    for p in domain.points() {
        if let Some(c) = color_of(p) {
            if c < colors {
                buckets[c].push(p);
                covered += 1;
            }
        }
    }
    let subs: Vec<IndexSpace> = buckets.into_iter().map(IndexSpace::from_points).collect();
    let complete = covered == domain.volume();
    forest.create_partition_with_flags(region, name, subs, true, complete)
}

/// The image of a partition through a relation: subregion `i` of the
/// result names every point of `target` reachable from a point of
/// `source`'s subregion `i`. Images are aliased in general (two source
/// pieces may reach the same target point) — exactly how ghost partitions
/// arise.
pub fn image(
    forest: &mut RegionForest,
    source: PartitionId,
    target: RegionId,
    name: impl Into<String>,
    relation: impl Fn(Point) -> Vec<Point>,
) -> PartitionId {
    let target_domain = forest.domain(target).clone();
    let children: Vec<RegionId> = forest.children(source).to_vec();
    let mut subs = Vec::with_capacity(children.len());
    for child in children {
        let mut pts = Vec::new();
        for p in forest.domain(child).clone().points() {
            for q in relation(p) {
                if target_domain.contains_point(q) {
                    pts.push(q);
                }
            }
        }
        subs.push(IndexSpace::from_points(pts));
    }
    forest.create_partition(target, name, subs)
}

/// The preimage of a partition through a relation: subregion `i` of the
/// result names every point of `source_region` whose relation image meets
/// subregion `i` of `target_partition`.
pub fn preimage(
    forest: &mut RegionForest,
    source_region: RegionId,
    target_partition: PartitionId,
    name: impl Into<String>,
    relation: impl Fn(Point) -> Vec<Point>,
) -> PartitionId {
    let children: Vec<RegionId> = forest.children(target_partition).to_vec();
    let targets: Vec<IndexSpace> = children.iter().map(|c| forest.domain(*c).clone()).collect();
    let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); targets.len()];
    for p in forest.domain(source_region).clone().points() {
        let qs = relation(p);
        for (i, t) in targets.iter().enumerate() {
            if qs.iter().any(|q| t.contains_point(*q)) {
                buckets[i].push(p);
            }
        }
    }
    let subs = buckets.into_iter().map(IndexSpace::from_points).collect();
    forest.create_partition(source_region, name, subs)
}

/// Pairwise difference: subregion `i` = `a[i] \ b[i]`. Both partitions
/// must partition the same region and have the same color count.
pub fn difference(
    forest: &mut RegionForest,
    a: PartitionId,
    b: PartitionId,
    name: impl Into<String>,
) -> PartitionId {
    pairwise(forest, a, b, name, |x, y| x.subtract(y))
}

/// Pairwise intersection: subregion `i` = `a[i] ∩ b[i]`.
pub fn intersection(
    forest: &mut RegionForest,
    a: PartitionId,
    b: PartitionId,
    name: impl Into<String>,
) -> PartitionId {
    pairwise(forest, a, b, name, |x, y| x.intersect(y))
}

/// Pairwise union: subregion `i` = `a[i] ∪ b[i]`.
pub fn union_pairwise(
    forest: &mut RegionForest,
    a: PartitionId,
    b: PartitionId,
    name: impl Into<String>,
) -> PartitionId {
    pairwise(forest, a, b, name, |x, y| x.union(y))
}

fn pairwise(
    forest: &mut RegionForest,
    a: PartitionId,
    b: PartitionId,
    name: impl Into<String>,
    op: impl Fn(&IndexSpace, &IndexSpace) -> IndexSpace,
) -> PartitionId {
    let parent = forest.parent_region(a);
    assert_eq!(
        parent,
        forest.parent_region(b),
        "pairwise partition ops need a common parent region"
    );
    let ca: Vec<RegionId> = forest.children(a).to_vec();
    let cb: Vec<RegionId> = forest.children(b).to_vec();
    assert_eq!(ca.len(), cb.len(), "pairwise ops need equal color counts");
    let subs: Vec<IndexSpace> = ca
        .iter()
        .zip(&cb)
        .map(|(x, y)| op(forest.domain(*x), forest.domain(*y)))
        .collect();
    forest.create_partition(parent, name, subs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_by_field_groups_colors() {
        let mut f = RegionForest::new();
        let r = f.create_root_1d("A", 12);
        let p = partition_by_field(&mut f, r, "bycolor", 3, |pt| Some((pt.x % 3) as usize));
        assert!(f.is_disjoint(p));
        assert!(f.is_complete(p));
        for i in 0..3 {
            let d = f.domain(f.subregion(p, i));
            assert_eq!(d.volume(), 4);
            assert!(d.contains_point(Point::p1(i as i64)));
        }
    }

    #[test]
    fn partition_by_field_partial_coloring_is_incomplete() {
        let mut f = RegionForest::new();
        let r = f.create_root_1d("A", 10);
        let p = partition_by_field(&mut f, r, "some", 1, |pt| (pt.x < 4).then_some(0));
        assert!(f.is_disjoint(p));
        assert!(!f.is_complete(p));
        assert_eq!(f.domain(f.subregion(p, 0)).volume(), 4);
    }

    /// The Fig 2 construction: ghost nodes = image of each piece's wires
    /// through the endpoint relation, minus the piece's own nodes.
    #[test]
    fn circuit_ghosts_via_image_and_difference() {
        let mut f = RegionForest::new();
        // 9 nodes in 3 pieces; 6 wires, two crossing piece boundaries.
        let nodes = f.create_root_1d("nodes", 9);
        let wires = f.create_root_1d("wires", 6);
        let p = f.create_equal_partition_1d(nodes, "P", 3);
        let w = f.create_equal_partition_1d(wires, "W", 3);
        let endpoints = [(0, 1), (1, 3), (3, 4), (4, 8), (6, 7), (8, 0)];
        let rel = move |pt: Point| -> Vec<Point> {
            let (s, d) = endpoints[pt.x as usize];
            vec![Point::p1(s), Point::p1(d)]
        };
        // Nodes each piece's wires touch (aliased in general).
        let touched = image(&mut f, w, nodes, "touched", rel);
        // Ghosts: touched minus owned.
        let g = difference(&mut f, touched, p, "G");
        // Piece 0 wires: (0,1), (1,3) → touch {0,1,3}; owns {0,1,2} → ghost {3}.
        let g0 = f.domain(f.subregion(g, 0));
        assert!(g0.same_points(&IndexSpace::from_points([Point::p1(3)])));
        // Piece 1 wires: (3,4), (4,8) → touch {3,4,8}; owns {3,4,5} → ghost {8}.
        let g1 = f.domain(f.subregion(g, 1));
        assert!(g1.same_points(&IndexSpace::from_points([Point::p1(8)])));
        // Piece 2 wires: (6,7), (8,0) → touch {6,7,8,0}; owns {6,7,8} → ghost {0}.
        let g2 = f.domain(f.subregion(g, 2));
        assert!(g2.same_points(&IndexSpace::from_points([Point::p1(0)])));
        assert!(!f.is_complete(g));
    }

    #[test]
    fn preimage_finds_wires_touching_pieces() {
        let mut f = RegionForest::new();
        let nodes = f.create_root_1d("nodes", 9);
        let wires = f.create_root_1d("wires", 6);
        let p = f.create_equal_partition_1d(nodes, "P", 3);
        let endpoints = [(0, 1), (1, 3), (3, 4), (4, 8), (6, 7), (8, 0)];
        let rel = move |pt: Point| -> Vec<Point> {
            let (s, d) = endpoints[pt.x as usize];
            vec![Point::p1(s), Point::p1(d)]
        };
        // Wires touching each node piece — aliased (wire 1 touches pieces
        // 0 and 1; wire 5 touches pieces 2 and 0).
        let byp = preimage(&mut f, wires, p, "wires_by_piece", rel);
        assert!(!f.is_disjoint(byp));
        let w0 = f.domain(f.subregion(byp, 0));
        assert!(w0.same_points(&IndexSpace::from_points([0, 1, 5].map(Point::p1))));
        let w1 = f.domain(f.subregion(byp, 1));
        assert!(w1.same_points(&IndexSpace::from_points([1, 2, 3].map(Point::p1))));
    }

    #[test]
    fn intersection_and_union_pairwise() {
        let mut f = RegionForest::new();
        let r = f.create_root_1d("A", 20);
        let a = f.create_partition(
            r,
            "a",
            vec![IndexSpace::span(0, 9), IndexSpace::span(10, 19)],
        );
        let b = f.create_partition(
            r,
            "b",
            vec![IndexSpace::span(5, 14), IndexSpace::span(15, 19)],
        );
        let i = intersection(&mut f, a, b, "i");
        assert!(f
            .domain(f.subregion(i, 0))
            .same_points(&IndexSpace::span(5, 9)));
        assert!(f
            .domain(f.subregion(i, 1))
            .same_points(&IndexSpace::span(15, 19)));
        let u = union_pairwise(&mut f, a, b, "u");
        assert!(f
            .domain(f.subregion(u, 0))
            .same_points(&IndexSpace::span(0, 14)));
        assert!(f.is_disjoint(i));
        assert!(!f.is_complete(i));
    }

    #[test]
    fn image_respects_target_bounds() {
        let mut f = RegionForest::new();
        let a = f.create_root_1d("A", 4);
        let b = f.create_root_1d("B", 4);
        let p = f.create_equal_partition_1d(a, "P", 2);
        // Relation maps out of bounds for some points; those are dropped.
        let img = image(&mut f, p, b, "img", |pt| vec![Point::p1(pt.x * 3)]);
        let i0 = f.domain(f.subregion(img, 0));
        assert!(i0.same_points(&IndexSpace::from_points([0, 3].map(Point::p1))));
        let i1 = f.domain(f.subregion(img, 1));
        assert!(i1.is_empty(), "6 and 9 fall outside B");
    }
}

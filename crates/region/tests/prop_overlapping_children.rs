//! The region forest's anchor queries against a linear scan of the
//! children, for sparse multi-rect targets over aliased and incomplete
//! partitions: `overlapping_children` (one bounding-box query plus the
//! exact check) must name the same child positions in the same order, and
//! `overlapping_child_bboxes` the children whose bounding box meets the
//! query box. Every property runs on a forest with interning on and on one
//! built with `InternConfig::disabled()`, so the exact check's fast paths
//! and band kernel and its direct arm are held to the same scan.

use proptest::prelude::*;
use viz_geometry::{IndexSpace, InternConfig, Point, Rect};
use viz_region::{PartitionId, RegionForest, RegionId, RootGeometry};

fn linear_scan(f: &RegionForest, p: PartitionId, target: &IndexSpace) -> Vec<u32> {
    let children = f.children(p).iter().enumerate();
    let hits = children.filter(|(_, c)| f.domain(**c).overlaps(target));
    hits.map(|(i, _)| i as u32).collect()
}

fn linear_bbox_scan(f: &RegionForest, p: PartitionId, bbox: &Rect) -> Vec<u32> {
    let children = f.children(p).iter().enumerate();
    let hits = children.filter(|(_, c)| f.domain(**c).bbox().overlaps(bbox));
    hits.map(|(i, _)| i as u32).collect()
}

/// Both queries of `p` for `target`, each against its linear scan, with
/// `target` interned into the geometry of `root`; returns the exact hits.
fn check(f: &RegionForest, root: RegionId, p: PartitionId, target: &IndexSpace) -> Vec<u32> {
    let mut geom = RootGeometry::lock(f.geometry(root));
    let t = geom.alg.intern(target);
    let before = geom.alg.stats();
    let hits = f.overlapping_children(p, t, &geom.alg);
    assert_eq!(hits, linear_scan(f, p, target));
    assert_eq!(
        geom.alg.stats(),
        before,
        "the anchor check touched the memo"
    );
    let bbox = target.bbox();
    let mut placed = f.overlapping_child_bboxes(p, &bbox);
    placed.sort_unstable();
    assert_eq!(placed, linear_bbox_scan(f, p, &bbox));
    hits
}

fn forests() -> [RegionForest; 2] {
    [
        RegionForest::new(),
        RegionForest::with_intern(InternConfig::disabled()),
    ]
}

const N: i64 = 512;

/// A sparse 1-D set: scattered points (many short runs) or a few spans.
fn sparse(max_points: usize) -> impl Strategy<Value = IndexSpace> {
    prop_oneof![
        prop::collection::btree_set(0..N, 0..max_points)
            .prop_map(|pts| IndexSpace::from_points(pts.into_iter().map(Point::p1))),
        prop::collection::vec((0..N, 0i64..24), 0..4).prop_map(|spans| {
            IndexSpace::from_rects(
                spans
                    .into_iter()
                    .map(|(lo, w)| Rect::span(lo, (lo + w).min(N - 1))),
            )
        }),
    ]
}

fn plane(rects: std::ops::Range<usize>) -> impl Strategy<Value = IndexSpace> {
    prop::collection::vec(
        (0i64..60, 0i64..4, 0i64..60, 0i64..4)
            .prop_map(|(x, w, y, h)| Rect::xy(x, x + w, y, y + h)),
        rects,
    )
    .prop_map(IndexSpace::from_rects)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Ghost-partition shapes: up to 48 aliased sparse children that need
    /// not cover the root, queried with sparse targets.
    #[test]
    fn sparse_targets_over_aliased_children(
        children in prop::collection::vec(sparse(24), 1..48),
        targets in prop::collection::vec(sparse(40), 1..8),
    ) {
        for mut f in forests() {
            let root = f.create_root_1d("N", N);
            let p = f.create_partition(root, "G", children.clone());
            for t in &targets {
                check(&f, root, p, t);
            }
        }
    }

    /// The same over 2-D multi-rect children and targets.
    #[test]
    fn multi_rect_targets_in_the_plane(
        children in prop::collection::vec(plane(1..4), 1..32),
        targets in prop::collection::vec(plane(1..12), 1..8),
    ) {
        for mut f in forests() {
            let root = f.create_root("R", IndexSpace::from_rect(Rect::xy(0, 63, 0, 63)));
            let p = f.create_partition(root, "T", children.clone());
            for t in &targets {
                check(&f, root, p, t);
            }
        }
    }

    /// A target of a few far-apart points whose box covers every piece of
    /// an equal partition while its rects touch one piece each: the exact
    /// check has to drop nearly every candidate, and placement by bounding
    /// box names every piece.
    #[test]
    fn box_covers_every_child_rects_touch_few(
        pieces in 16usize..64,
        picks in prop::collection::btree_set(0..N, 2..4),
    ) {
        let target = IndexSpace::from_points(
            [0, N - 1].into_iter().chain(picks).map(Point::p1),
        );
        for mut f in forests() {
            let root = f.create_root_1d("N", N);
            let p = f.create_equal_partition_1d(root, "P", pieces);
            let hits = check(&f, root, p, &target);
            prop_assert!(hits.len() <= target.rect_count() && hits.len() >= 2);
            prop_assert_eq!(f.overlapping_child_bboxes(p, &target.bbox()).len(), pieces);
        }
    }
}

//! Integration tests for the *dynamic* aspects the paper's introduction
//! calls essential: regions computed at runtime, partitions created
//! mid-stream, data-dependent control flow, and multiple region trees.

use std::sync::Arc;
use visibility::prelude::*;
use visibility::runtime::validate::check_sufficiency;

/// Partitions may be created *between* launches — the analyses are fully
/// dynamic and must pick up new names for already-written data.
#[test]
fn partitions_created_mid_stream() {
    for engine in EngineKind::all() {
        let mut rt = Runtime::single_node(engine);
        let root = rt.forest_mut().create_root_1d("A", 64);
        let f = rt.forest_mut().add_field(root, "v");
        // Write through the root first.
        rt.submit(LaunchSpec::new(
            "fill",
            0,
            vec![RegionRequirement::read_write(root, f)],
            0,
            Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                rs[0].update_all(|p, _| p.x as f64);
            })),
        ))
        .unwrap()
        .id();
        // Only now create a partition and read through it: the reads must
        // see the root write.
        let p = rt.forest_mut().create_equal_partition_1d(root, "P", 4);
        for i in 0..4 {
            let piece = rt.forest().subregion(p, i);
            let r = rt
                .submit(LaunchSpec::new(
                    "read",
                    0,
                    vec![RegionRequirement::read(piece, f)],
                    0,
                    None,
                ))
                .unwrap()
                .id();
            assert_eq!(rt.dag().preds(r), &[TaskId(0)], "{engine:?}");
        }
        // And a second, *different* partition created even later.
        let q = rt.forest_mut().create_partition(
            root,
            "Q",
            vec![IndexSpace::span(10, 40), IndexSpace::span(41, 50)],
        );
        let q0 = rt.forest().subregion(q, 0);
        let w = rt
            .submit(LaunchSpec::new(
                "rewrite",
                0,
                vec![RegionRequirement::read_write(q0, f)],
                0,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, v| v + 1000.0);
                })),
            ))
            .unwrap()
            .id();
        // The rewrite interferes with the root write and the overlapping
        // piece reads (write-after-read).
        let dag = rt.dag();
        let deps = dag.preds(w);
        assert!(deps.contains(&TaskId(0)), "{engine:?}");
        assert!(deps.len() >= 3, "{engine:?}: {deps:?}");
        drop(dag);
        let probe = rt.inline_read(root, f).unwrap();
        assert!(check_sufficiency(rt.forest(), rt.launches(), rt.dag()).is_empty());
        let store = rt.execute_values();
        let vals = store.inline(probe);
        assert_eq!(vals.get(Point::p1(5)), 5.0);
        assert_eq!(vals.get(Point::p1(25)), 1025.0);
        assert_eq!(vals.get(Point::p1(60)), 60.0);
    }
}

/// Data-dependent control flow: the next launch depends on a value read
/// back from the runtime (the while-(*) loop of Fig 1).
#[test]
fn data_dependent_control_flow() {
    for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
        let mut rt = Runtime::single_node(engine);
        let root = rt.forest_mut().create_root_1d("A", 8);
        let f = rt.forest_mut().add_field(root, "v");
        rt.try_set_initial(root, f, |_| 1.0).unwrap();
        // Keep doubling until the (sequentially-semantic) value crosses a
        // threshold; the number of launches is decided by the data.
        let mut launches = 0;
        loop {
            rt.submit(LaunchSpec::new(
                "double",
                0,
                vec![RegionRequirement::read_write(root, f)],
                0,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, v| v * 2.0);
                })),
            ))
            .unwrap()
            .id();
            launches += 1;
            let probe = rt.inline_read(root, f).unwrap();
            let store = rt.execute_values();
            if store.inline(probe).get(Point::p1(0)) >= 16.0 {
                break;
            }
        }
        assert_eq!(launches, 4, "{engine:?}: 1→2→4→8→16");
    }
}

/// Multiple independent region trees: analysis state is per tree; tasks on
/// different trees never interfere.
#[test]
fn multiple_region_trees_are_independent() {
    for engine in EngineKind::all() {
        let mut rt = Runtime::single_node(engine);
        let a = rt.forest_mut().create_root_1d("A", 16);
        let fa = rt.forest_mut().add_field(a, "v");
        let b = rt.forest_mut().create_root_1d("B", 16);
        let fb = rt.forest_mut().add_field(b, "v");
        rt.submit(LaunchSpec::new(
            "wa",
            0,
            vec![RegionRequirement::read_write(a, fa)],
            0,
            None,
        ))
        .unwrap()
        .id();
        let t = rt
            .submit(LaunchSpec::new(
                "wb",
                0,
                vec![RegionRequirement::read_write(b, fb)],
                0,
                None,
            ))
            .unwrap()
            .id();
        assert!(
            rt.dag().preds(t).is_empty(),
            "{engine:?}: different trees must not interfere"
        );
        // But a task spanning both trees orders against both writers.
        let t2 = rt
            .submit(LaunchSpec::new(
                "both",
                0,
                vec![
                    RegionRequirement::read(a, fa),
                    RegionRequirement::read(b, fb),
                ],
                0,
                None,
            ))
            .unwrap()
            .id();
        assert_eq!(rt.dag().preds(t2).len(), 2, "{engine:?}");
    }
}

/// Nested partitions: a task naming a grandchild region must order against
/// tasks that touched its ancestors and vice versa.
#[test]
fn nested_partition_interference() {
    for engine in EngineKind::all() {
        let mut rt = Runtime::single_node(engine);
        let root = rt.forest_mut().create_root_1d("A", 64);
        let f = rt.forest_mut().add_field(root, "v");
        let p = rt.forest_mut().create_equal_partition_1d(root, "P", 4);
        let p0 = rt.forest().subregion(p, 0);
        let q = rt.forest_mut().create_equal_partition_1d(p0, "Q", 4);
        let q2 = rt.forest().subregion(q, 2); // elements [8, 11]

        let w = rt
            .submit(LaunchSpec::new(
                "deep",
                0,
                vec![RegionRequirement::read_write(q2, f)],
                0,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, _| 7.0);
                })),
            ))
            .unwrap()
            .id();
        assert!(rt.dag().preds(w).is_empty());
        // Sibling grandchild: disjoint, parallel.
        let q3 = rt.forest().subregion(q, 3);
        let s = rt
            .submit(LaunchSpec::new(
                "sib",
                0,
                vec![RegionRequirement::read_write(q3, f)],
                0,
                None,
            ))
            .unwrap()
            .id();
        assert!(rt.dag().preds(s).is_empty(), "{engine:?}");
        // Reading the *root* depends on both grandchildren.
        let r = rt
            .submit(LaunchSpec::new(
                "top",
                0,
                vec![RegionRequirement::read(root, f)],
                0,
                None,
            ))
            .unwrap()
            .id();
        assert_eq!(rt.dag().preds(r), &[w, s], "{engine:?}");
        // And writing P[1] (disjoint from Q's subtree) stays parallel with
        // the grandchildren but orders after the root read.
        let p1 = rt.forest().subregion(p, 1);
        let w2 = rt
            .submit(LaunchSpec::new(
                "p1",
                0,
                vec![RegionRequirement::read_write(p1, f)],
                0,
                None,
            ))
            .unwrap()
            .id();
        assert_eq!(rt.dag().preds(w2), &[r], "{engine:?} (war on the read)");
        assert!(check_sufficiency(rt.forest(), rt.launches(), rt.dag()).is_empty());
    }
}

/// Sparse, highly irregular regions (scattered points) through every
/// engine — the content-based coherence case.
#[test]
fn sparse_scattered_regions() {
    for engine in EngineKind::all() {
        let mut rt = Runtime::single_node(engine);
        let root = rt.forest_mut().create_root_1d("A", 100);
        let f = rt.forest_mut().add_field(root, "v");
        rt.try_set_initial(root, f, |p| p.x as f64).unwrap();
        let evens = rt.forest_mut().create_partition_with_flags(
            root,
            "evens",
            vec![IndexSpace::from_points((0..50).map(|i| Point::p1(i * 2)))],
            true,
            false,
        );
        let threes = rt.forest_mut().create_partition_with_flags(
            root,
            "threes",
            vec![IndexSpace::from_points((0..34).map(|i| Point::p1(i * 3)))],
            true,
            false,
        );
        let e = rt.forest().subregion(evens, 0);
        let t3 = rt.forest().subregion(threes, 0);
        let w = rt
            .submit(LaunchSpec::new(
                "evens+1",
                0,
                vec![RegionRequirement::read_write(e, f)],
                0,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, v| v + 1.0);
                })),
            ))
            .unwrap()
            .id();
        let r = rt
            .submit(LaunchSpec::new(
                "read3",
                0,
                vec![RegionRequirement::read(t3, f)],
                0,
                None,
            ))
            .unwrap()
            .id();
        assert_eq!(
            rt.dag().preds(r),
            &[w],
            "{engine:?}: multiples of 6 are shared"
        );
        let probe = rt.inline_read(root, f).unwrap();
        let store = rt.execute_values();
        let vals = store.inline(probe);
        assert_eq!(vals.get(Point::p1(6)), 7.0);
        assert_eq!(vals.get(Point::p1(9)), 9.0);
        assert_eq!(vals.get(Point::p1(4)), 5.0);
    }
}

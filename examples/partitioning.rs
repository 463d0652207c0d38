//! Dependent partitioning (reference [25]): computing the Fig 2 ghost
//! partition from a graph's edges instead of writing it by hand, then
//! running the Fig 1 program on it with index launches.
//!
//! Run: `cargo run --release --example partitioning`

use std::sync::Arc;
use visibility::prelude::*;
use visibility::region::deppart;
use visibility::runtime::{Projection, TaskBody};

fn main() {
    let mut rt = Runtime::single_node(EngineKind::RayCast);

    // A small graph: 12 nodes in 3 pieces, edges crossing the boundaries.
    let nodes = rt.forest_mut().create_root_1d("nodes", 12);
    let up = rt.forest_mut().add_field(nodes, "up");
    let edges_root = rt.forest_mut().create_root_1d("edges", 8);
    let edges = [
        (0, 1),
        (1, 4), // crosses piece 0 → 1
        (4, 5),
        (5, 9), // crosses piece 1 → 2
        (9, 10),
        (10, 2), // crosses piece 2 → 0
        (3, 7),  // crosses piece 0 → 1
        (8, 11),
    ];

    let p = rt.forest_mut().create_equal_partition_1d(nodes, "P", 3);
    let we = rt
        .forest_mut()
        .create_equal_partition_1d(edges_root, "E", 3); // 8 edges → 3,3,2

    // The Fig 2 construction: nodes each piece's edges *touch*, minus the
    // nodes it owns = its ghost nodes.
    let touched = deppart::image(&mut rt.forest_mut(), we, nodes, "touched", move |pt| {
        let (s, d) = edges[pt.x as usize];
        vec![Point::p1(s), Point::p1(d)]
    });
    let g = deppart::difference(&mut rt.forest_mut(), touched, p, "G");

    println!("computed ghost partition (image(E) \\ P):");
    for i in 0..3 {
        let sub = rt.forest().subregion(g, i);
        let pts: Vec<i64> = rt.forest().domain(sub).points().map(|p| p.x).collect();
        println!("  G[{i}] = {pts:?}");
    }
    assert!(!rt.forest().is_complete(g), "ghosts never cover everything");

    // Run two turns of the Fig 1 loop over the computed partitions.
    rt.try_set_initial(nodes, up, |p| p.x as f64).unwrap();
    for _ in 0..2 {
        rt.index_launch(
            "t1",
            3,
            &[Projection::read_write(p, up)],
            0,
            |i| i,
            |_| {
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, v| v + 1.0);
                }) as TaskBody)
            },
        );
        rt.index_launch(
            "t2",
            3,
            &[Projection::reduce(g, up, RedOpRegistry::SUM)],
            0,
            |i| i,
            |_| {
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    let dom = rs[0].domain().clone();
                    for pt in dom.points() {
                        rs[0].reduce(pt, 100.0);
                    }
                }) as TaskBody)
            },
        );
    }
    let probe = rt.inline_read(nodes, up).unwrap();
    println!(
        "\ntasks: {}, dependence edges: {}, waves: {:?}",
        rt.num_tasks(),
        rt.dag().edge_count(),
        rt.dag().waves().iter().map(Vec::len).collect::<Vec<_>>()
    );
    let store = rt.execute_values();
    let vals = store.inline(probe);
    // Node 4 is ghost for piece 0 (edge 1→4): written +1 twice, reduced
    // +100 twice.
    assert_eq!(vals.get(Point::p1(4)), 4.0 + 2.0 + 200.0);
    println!(
        "node 4 final value: {} (= 4 + 2 writes + 2 ghost reductions)",
        vals.get(Point::p1(4))
    );
}

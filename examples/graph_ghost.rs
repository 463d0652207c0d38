//! The paper's running example, end to end: the Fig 1 program, the Fig 5
//! task stream, and the §3.2 dependence structure, under all three
//! visibility engines.
//!
//! ```text
//! task t1(p<Node>, g<Node>): read-write p.up, reduce::+ g.down;
//! task t2(p<Node>, g<Node>): read-write p.down, reduce::+ g.up;
//! while (*) { for i in 1..3 t1(P[i],G[i]); for i in 1..3 t2(P[i],G[i]) }
//! ```
//!
//! Run: `cargo run --example graph_ghost`

use std::sync::Arc;
use visibility::prelude::*;

/// Build the Fig 2 region tree: nodes N with a disjoint primary partition P
/// and an aliased ghost partition G, two fields `up` and `down`.
fn build(
    rt: &mut Runtime,
) -> (
    viz_region::RegionId,
    viz_region::PartitionId,
    viz_region::PartitionId,
    viz_region::FieldId,
    viz_region::FieldId,
) {
    let n = rt.forest_mut().create_root_1d("N", 30);
    let up = rt.forest_mut().add_field(n, "up");
    let down = rt.forest_mut().add_field(n, "down");
    let p = rt.forest_mut().create_equal_partition_1d(n, "P", 3);
    let g = rt.forest_mut().create_partition(
        n,
        "G",
        vec![
            IndexSpace::from_points([10, 11, 20].map(Point::p1)),
            IndexSpace::from_points([8, 9, 20, 21].map(Point::p1)),
            IndexSpace::from_points([9, 18, 19].map(Point::p1)),
        ],
    );
    (n, p, g, up, down)
}

fn run_engine(engine: EngineKind) {
    let mut rt = Runtime::single_node(engine);
    let (n, p, g, up, down) = build(&mut rt);

    // Two loop iterations of the Fig 1 while-loop.
    for _iter in 0..2 {
        // t1: read-write P[i].up, reduce+ G[i].down
        for i in 0..3 {
            let piece = rt.forest().subregion(p, i);
            let ghost = rt.forest().subregion(g, i);
            rt.submit(LaunchSpec::new(
                "t1",
                0,
                vec![
                    RegionRequirement::read_write(piece, up),
                    RegionRequirement::reduce(ghost, down, RedOpRegistry::SUM),
                ],
                0,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    // up[p] += 1 over the piece; down[g] gets +up-ish noise.
                    rs[0].update_all(|_, v| v + 1.0);
                    let dom = rs[1].domain().clone();
                    for pt in dom.points() {
                        rs[1].reduce(pt, 0.5);
                    }
                })),
            ))
            .unwrap()
            .id();
        }
        // t2: read-write P[i].down, reduce+ G[i].up
        for i in 0..3 {
            let piece = rt.forest().subregion(p, i);
            let ghost = rt.forest().subregion(g, i);
            rt.submit(LaunchSpec::new(
                "t2",
                0,
                vec![
                    RegionRequirement::read_write(piece, down),
                    RegionRequirement::reduce(ghost, up, RedOpRegistry::SUM),
                ],
                0,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, v| v * 0.5);
                    let dom = rs[1].domain().clone();
                    for pt in dom.points() {
                        rs[1].reduce(pt, 0.25);
                    }
                })),
            ))
            .unwrap()
            .id();
        }
    }
    let probe_up = rt.inline_read(n, up).unwrap();
    let probe_down = rt.inline_read(n, down).unwrap();

    // §3.2: "t6 has a dependence on tasks t3, t4, and t5 … In turn t3 has
    // dependences on t0, t1, and t2" — check the up-field part of the
    // structure (our t1 tasks also reduce to down, adding edges there).
    let dag = rt.dag();
    let t6_deps = dag.preds(TaskId(6));
    assert!(t6_deps.contains(&TaskId(0)), "t6 overwrites t0's up values");
    assert!(
        t6_deps.iter().any(|d| (3..6).contains(&d.0)),
        "t6 must wait for the ghost reductions overlapping P[0]"
    );
    for t in [3u32, 4, 5] {
        let deps = dag.preds(TaskId(t));
        assert!(
            deps.iter().all(|d| d.0 < 3) && !deps.is_empty(),
            "t{t} depends only on first-wave tasks: {deps:?}"
        );
    }

    let waves = dag.waves();
    drop(dag);
    println!(
        "{:<8} edges {:>3}  waves {:?}",
        rt.engine_name(),
        rt.dag().edge_count(),
        waves.iter().map(Vec::len).collect::<Vec<_>>()
    );

    let store = rt.execute_values();
    let up0 = store.inline(probe_up).get(Point::p1(20));
    let down0 = store.inline(probe_down).get(Point::p1(20));
    println!("         node 20: up = {up0}, down = {down0}");
}

fn main() {
    println!("The Fig 1 graph program under each visibility engine:");
    for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
        run_engine(engine);
    }
    println!("All engines agree on the dependence structure of §3.2.");
}

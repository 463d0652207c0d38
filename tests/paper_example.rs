//! Cross-crate integration test: the paper's running example (Figs 1, 2, 5)
//! driven through the facade crate, checked against §3.2's stated
//! dependences under every engine, in value and timed modes.

use std::sync::Arc;
use visibility::prelude::*;
use visibility::runtime::validate::{check_sufficiency, count_interfering_pairs};

struct Example {
    rt: Runtime,
    n: visibility::region::RegionId,
    p: visibility::region::PartitionId,
    g: visibility::region::PartitionId,
    up: visibility::region::FieldId,
}

/// Fig 2's region tree (single field `up` suffices for the §3.2 check).
fn build(engine: EngineKind, nodes: usize, dcr: bool) -> Example {
    let mut rt = Runtime::new(RuntimeConfig::new(engine).nodes(nodes).dcr(dcr));
    let n = rt.forest_mut().create_root_1d("N", 30);
    let up = rt.forest_mut().add_field(n, "up");
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
    Example { rt, n, p, g, up }
}

/// Launch the Fig 5 stream on the `up` field: t0-2 write P[i].up, t3-5
/// reduce G[i].up, t6-8 write P[i].up again.
fn launch_fig5(ex: &mut Example) {
    for i in 0..3 {
        let piece = ex.rt.forest().subregion(ex.p, i);
        ex.rt
            .submit(LaunchSpec::new(
                "t1",
                i,
                vec![RegionRequirement::read_write(piece, ex.up)],
                1000,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|pt, v| v + pt.x as f64);
                })),
            ))
            .unwrap()
            .id();
    }
    for i in 0..3 {
        let ghost = ex.rt.forest().subregion(ex.g, i);
        ex.rt
            .submit(LaunchSpec::new(
                "t2",
                i,
                vec![RegionRequirement::reduce(ghost, ex.up, RedOpRegistry::SUM)],
                1000,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    let dom = rs[0].domain().clone();
                    for pt in dom.points() {
                        rs[0].reduce(pt, 100.0);
                    }
                })),
            ))
            .unwrap()
            .id();
    }
    for i in 0..3 {
        let piece = ex.rt.forest().subregion(ex.p, i);
        ex.rt
            .submit(LaunchSpec::new(
                "t1",
                i,
                vec![RegionRequirement::read_write(piece, ex.up)],
                1000,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, v| v * 2.0);
                })),
            ))
            .unwrap()
            .id();
    }
}

#[test]
fn fig5_dependences_match_section_3_2() {
    for engine in EngineKind::all() {
        let mut ex = build(engine, 1, false);
        launch_fig5(&mut ex);
        let dag = ex.rt.dag();
        // "the system will discover that there are no dependences between
        // tasks t0−2" — wave one is parallel.
        for t in 0..3u32 {
            assert!(dag.preds(TaskId(t)).is_empty(), "{engine:?}: t{t}");
        }
        // "t3 has dependences on t0, t1, and t2" — on the tasks whose
        // pieces its ghost region overlaps (t0's piece P[0] does not
        // overlap G[0] = {10,11,20}; the paper states the conservative
        // closure, our engines find the precise subset — check soundness
        // plus the exact sets).
        assert_eq!(dag.preds(TaskId(3)), &[TaskId(1), TaskId(2)], "{engine:?}");
        assert_eq!(dag.preds(TaskId(4)), &[TaskId(0), TaskId(2)], "{engine:?}");
        assert_eq!(dag.preds(TaskId(5)), &[TaskId(0), TaskId(1)], "{engine:?}");
        // "t6 has a dependence on tasks t3, t4, and t5" — the reducers
        // overlapping P[0], plus the write it replaces (t0).
        assert_eq!(
            dag.preds(TaskId(6)),
            &[TaskId(0), TaskId(4), TaskId(5)],
            "{engine:?}"
        );
        // The three waves of Fig 5 can run in parallel groups.
        let waves = dag.waves();
        assert_eq!(
            waves.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 3, 3],
            "{engine:?}"
        );
        // And the whole relation is sound against brute force.
        assert!(check_sufficiency(ex.rt.forest(), ex.rt.launches(), dag).is_empty());
        // 6 write/reduce pairs across waves 1→2, 3 write/write pairs 1→3,
        // and 6 reduce/write pairs 2→3.
        assert_eq!(
            count_interfering_pairs(ex.rt.forest(), ex.rt.launches()),
            15
        );
    }
}

#[test]
fn fig5_values_identical_across_engines_and_machines() {
    let mut reference: Option<Vec<f64>> = None;
    for engine in EngineKind::all() {
        for (nodes, dcr) in [(1, false), (3, false), (3, true)] {
            let mut ex = build(engine, nodes, dcr);
            launch_fig5(&mut ex);
            let probe = ex.rt.inline_read(ex.n, ex.up).unwrap();
            let store = ex.rt.execute_values();
            let vals: Vec<f64> = store.inline(probe).iter().map(|(_, v)| v).collect();
            match &reference {
                None => reference = Some(vals),
                Some(r) => assert_eq!(&vals, r, "{engine:?} nodes={nodes} dcr={dcr} diverged"),
            }
        }
    }
    // Spot-check the blending semantics (§3.1): node 20 = write(20) then
    // two +100 reductions (G[0], G[1]) then overwrite ×2 by t8.
    let r = reference.unwrap();
    assert_eq!(r[20], (20.0 + 200.0) * 2.0);
}

#[test]
fn timed_mode_schedules_three_waves() {
    let mut ex = build(EngineKind::RayCast, 3, true);
    launch_fig5(&mut ex);
    let report = ex.rt.timed_schedule();
    // Three dependent waves of 1µs tasks on three nodes: the makespan must
    // reflect at least three serialized task durations.
    assert!(report.makespan >= 3_000);
    // Tasks in the same wave overlap: makespan far below full serialization.
    assert!(report.makespan < 9 * 1_000 + 1_000_000);
}

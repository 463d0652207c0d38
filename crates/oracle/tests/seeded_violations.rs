//! Seeded-violation tests: corrupt *real* engine histories in the four
//! ways the checker is supposed to catch, and assert the minimal witness
//! comes back exact — not just "some violation somewhere".

use std::sync::Arc;
use viz_oracle::{capture, check, History, Violation};
use viz_runtime::{
    EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, RuntimeConfig,
};

/// A small recorded program with a known shape:
///
/// ```text
/// t0: RW piece0         deps []
/// t1: RW piece0         deps [0]        (WAW)
/// t2: Read root         deps [1, ...]   (RAW on piece0's cells)
/// ```
fn recorded_chain() -> History {
    let mut rt = Runtime::new(RuntimeConfig::new(EngineKind::RayCast).auto_trace(false));
    let root = rt.forest_mut().create_root_1d("A", 40);
    let f = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", 4);
    let piece0 = rt.forest().subregion(p, 0);
    let body = || {
        Some(Arc::new(|rs: &mut [PhysicalRegion]| {
            rs[0].update_all(|_, v| v + 1.0);
        }) as _)
    };
    rt.submit(LaunchSpec::new(
        "w0",
        0,
        vec![RegionRequirement::read_write(piece0, f)],
        1_000,
        body(),
    ))
    .unwrap();
    rt.submit(LaunchSpec::new(
        "w1",
        0,
        vec![RegionRequirement::read_write(piece0, f)],
        1_000,
        body(),
    ))
    .unwrap();
    rt.submit(LaunchSpec::new(
        "r",
        0,
        vec![RegionRequirement::read(root, f)],
        1_000,
        None,
    ))
    .unwrap();
    rt.execute_values();
    capture(&rt).expect("nothing was retired")
}

/// A recorded annotated-trace program whose third instance replays.
fn recorded_trace() -> History {
    let mut rt = Runtime::new(RuntimeConfig::new(EngineKind::RayCast).auto_trace(false));
    let root = rt.forest_mut().create_root_1d("A", 40);
    let f = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", 4);
    for _ in 0..3 {
        rt.try_begin_trace(1).unwrap();
        for i in 0..2 {
            let piece = rt.forest().subregion(p, i);
            rt.submit(LaunchSpec::new(
                "w",
                0,
                vec![RegionRequirement::read_write(piece, f)],
                1_000,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, v| v + 1.0);
                })),
            ))
            .unwrap();
        }
        rt.try_end_trace(1).unwrap();
    }
    rt.execute_values();
    capture(&rt).expect("nothing was retired")
}

#[test]
fn clean_history_passes() {
    let h = recorded_chain();
    let report = check(&h);
    assert!(report.ok(), "{:?}", report.violations);
    assert!(report.pairs_checked > 0);
}

#[test]
fn dropped_required_edge_yields_exact_witness() {
    let mut h = recorded_chain();
    // Sever the WAW edge t0 -> t1. t2 still depends on t1 only, so the
    // pair (0, 1) is now unordered even through the closure.
    h.launches[1].deps.retain(|d| *d != 0);
    let report = check(&h);
    let expected_overlap = h.launches[0].reqs[0].domain.clone();
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::MissingDependence { earlier: 0, later: 1, root: 0, field: 0, overlap }
                if overlap.same_points(&expected_overlap)
        )),
        "want MissingDependence(0 -> 1) over piece0, got {:?}",
        report.violations
    );
    // Severing 0 -> 1 also transitively unorders (0, 2); the pair (1, 2)
    // stays covered by t2's surviving direct edge and must NOT be flagged.
    assert!(report
        .violations
        .iter()
        .all(|v| matches!(v, Violation::MissingDependence { earlier: 0, .. })));
}

#[test]
fn forward_and_self_edges_are_forbidden() {
    let mut h = recorded_chain();
    h.launches[1].deps.push(2); // forward
    let report = check(&h);
    assert!(
        report
            .violations
            .contains(&Violation::ForbiddenEdge { pred: 2, succ: 1 }),
        "got {:?}",
        report.violations
    );

    let mut h = recorded_chain();
    h.launches[2].deps.push(2); // self
    let report = check(&h);
    assert!(
        report
            .violations
            .contains(&Violation::ForbiddenEdge { pred: 2, succ: 2 }),
        "got {:?}",
        report.violations
    );
}

#[test]
fn reordered_dependent_retirement_is_caught() {
    let mut h = recorded_chain();
    // Retire t1 before its predecessor t0.
    let (a, b) = (
        h.retirement.iter().position(|t| *t == 0).unwrap(),
        h.retirement.iter().position(|t| *t == 1).unwrap(),
    );
    h.retirement.swap(a, b);
    let report = check(&h);
    assert!(
        report
            .violations
            .contains(&Violation::RetirementOrder { task: 1, pred: 0 }),
        "got {:?}",
        report.violations
    );

    // A non-permutation log is its own violation.
    let mut h = recorded_chain();
    h.retirement[0] = h.retirement[1];
    let report = check(&h);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::RetirementOrder { pred: u32::MAX, .. })),
        "got {:?}",
        report.violations
    );
}

#[test]
fn corrupted_replay_instance_is_caught() {
    let h = recorded_trace();
    // The third instance (tasks 4, 5) replayed from the template.
    let replayed: Vec<u32> = h
        .launches
        .iter()
        .filter(|l| l.replayed)
        .map(|l| l.id)
        .collect();
    assert_eq!(replayed, vec![4, 5], "third instance replays");
    assert!(check(&h).ok());

    // Corrupt the replay: drop the synthesized WAW edge 2 -> 4 (the
    // capture instance's write of piece0 to its replayed successor).
    let mut h = recorded_trace();
    let victim = h.launches.iter_mut().find(|l| l.replayed).unwrap();
    let dropped = victim.deps.clone();
    let victim_id = victim.id;
    victim.deps.clear();
    let report = check(&h);
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::MissingDependence { later, .. } if *later == victim_id
        )),
        "dropped deps {dropped:?} of replayed launch {victim_id} must surface, got {:?}",
        report.violations
    );
}

//! Tests for the ablation engine variants: they must be *functionally
//! identical* to their parents — only the cost/message profile differs.

use std::sync::Arc;
use viz_apps::{Circuit, CircuitConfig, Workload};
use viz_runtime::analysis::{raycast::RayCast, warnock::Warnock};
use viz_runtime::validate::check_sufficiency;
use viz_runtime::{
    CoherenceEngine, EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime,
    RuntimeConfig,
};

/// Drive a ghost-exchange loop through a custom engine; return final values
/// and (edges, makespan-relevant counters).
fn run(engine: Box<dyn CoherenceEngine>, nodes: usize) -> (Vec<f64>, usize) {
    let mut rt = Runtime::with_engine(RuntimeConfig::new(EngineKind::RayCast).nodes(nodes), engine);
    let root = rt.forest_mut().create_root_1d("A", 48);
    let f = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", 4);
    let g = rt.forest_mut().create_partition(
        root,
        "G",
        (0..4)
            .map(|i| {
                let lo = (i * 12 - 2).max(0);
                let hi = (i * 12 + 13).min(47);
                viz_geometry::IndexSpace::span(lo, hi)
                    .subtract(&viz_geometry::IndexSpace::span(i * 12, i * 12 + 11))
            })
            .collect(),
    );
    rt.try_set_initial(root, f, |p| p.x as f64).unwrap();
    for iter in 0..3 {
        for i in 0..4 {
            let piece = rt.forest().subregion(p, i);
            rt.submit(LaunchSpec::new(
                format!("w{iter}"),
                i % nodes,
                vec![RegionRequirement::read_write(piece, f)],
                100,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, v| v + 1.0);
                })),
            ))
            .unwrap()
            .id();
        }
        for i in 0..4 {
            let ghost = rt.forest().subregion(g, i);
            rt.submit(LaunchSpec::new(
                format!("r{iter}"),
                i % nodes,
                vec![RegionRequirement::reduce(
                    ghost,
                    f,
                    viz_region::RedOpRegistry::SUM,
                )],
                100,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    let dom = rs[0].domain().clone();
                    for pt in dom.points() {
                        rs[0].reduce(pt, 2.0);
                    }
                })),
            ))
            .unwrap()
            .id();
        }
    }
    let probe = rt.inline_read(root, f).unwrap();
    assert!(check_sufficiency(rt.forest(), rt.launches(), rt.dag()).is_empty());
    let edges = rt.dag().edge_count();
    let store = rt.execute_values();
    let vals = store.inline(probe).iter().map(|(_, v)| v).collect();
    (vals, edges)
}

#[test]
fn warnock_without_memoization_is_functionally_identical() {
    let (v1, e1) = run(Box::new(Warnock::new()), 2);
    let (v2, e2) = run(Box::new(Warnock::without_memoization()), 2);
    assert_eq!(v1, v2);
    assert_eq!(
        e1, e2,
        "memoization must not change the dependence relation"
    );
}

#[test]
fn raycast_forced_kd_is_functionally_identical() {
    let (v1, e1) = run(Box::new(RayCast::new()), 2);
    let (v2, e2) = run(Box::new(RayCast::force_kd_tree()), 2);
    assert_eq!(v1, v2);
    assert_eq!(e1, e2, "the index choice must not change the analysis");
}

/// The K-d walk against the anchored default on sparse multi-rect ghost
/// spaces with reductions on aliased nodes: same dependences, same plans.
#[test]
fn raycast_forced_kd_matches_anchored_on_circuit() {
    let analyze = |engine: RayCast| {
        let mut rt = Runtime::with_engine(
            RuntimeConfig::base(EngineKind::RayCast).nodes(2),
            Box::new(engine),
        );
        Circuit::new(CircuitConfig {
            nodes: 2,
            ..CircuitConfig::small(6, 3)
        })
        .execute(&mut rt);
        rt.results()
    };
    let anchored = analyze(RayCast::new());
    let kd = analyze(RayCast::force_kd_tree());
    assert!(anchored.iter().any(|r| !r.deps.is_empty()));
    assert_eq!(anchored, kd);
}

#[test]
fn variants_match_the_default_engines_cross_family() {
    let (v1, _) = run(Box::new(Warnock::new()), 1);
    let (v2, _) = run(Box::new(RayCast::new()), 1);
    let (v3, _) = run(Box::new(RayCast::force_kd_tree()), 1);
    assert_eq!(v1, v2);
    assert_eq!(v2, v3);
}

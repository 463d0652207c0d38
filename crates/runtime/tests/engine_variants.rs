//! Tests for the ablation engine variants: they must be *functionally
//! identical* to their parents — only the cost/message profile differs.

use std::sync::Arc;
use viz_apps::{Circuit, CircuitConfig, Workload};
use viz_runtime::analysis::eqsets::EqSetEngine;
use viz_runtime::validate::check_sufficiency;
use viz_runtime::{
    CoherenceEngine, EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime,
    RuntimeConfig,
};

/// Drive a ghost-exchange loop through a custom engine; return final values
/// and (edges, makespan-relevant counters).
fn run(engine: Box<dyn CoherenceEngine>, nodes: usize) -> (Vec<f64>, usize) {
    // Untraced: the variants are compared on launches they all analyze.
    let mut rt = Runtime::with_engine(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(nodes)
            .auto_trace(false),
        engine,
    );
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

/// Every variant of the equivalence-set engine, by its constructors: the
/// two algorithms, each with its discovery memo off, and ray casting on the
/// K-d fallback.
fn variants() -> [(&'static str, EqSetEngine); 5] {
    [
        ("warnock", EqSetEngine::warnock()),
        (
            "warnock, no memo",
            EqSetEngine::warnock().without_memoization(),
        ),
        ("raycast", EqSetEngine::raycast()),
        (
            "raycast, no memo",
            EqSetEngine::raycast().without_memoization(),
        ),
        ("raycast, K-d", EqSetEngine::raycast().force_kd_tree()),
    ]
}

/// Memoization and the index choice must change neither the values nor
/// the dependence relation, and neither may the algorithm.
#[test]
fn every_variant_is_functionally_identical() {
    for nodes in [1, 2] {
        let runs = variants().map(|(label, engine)| (label, run(Box::new(engine), nodes)));
        let (_, expect) = &runs[0];
        for (label, got) in &runs {
            assert_eq!(got, expect, "{label} at {nodes} nodes: (values, edges)");
        }
    }
}

/// The K-d walk against the anchored default on sparse multi-rect ghost
/// spaces with reductions on aliased nodes: same dependences, same plans.
#[test]
fn raycast_forced_kd_matches_anchored_on_circuit() {
    let analyze = |engine: EqSetEngine| {
        let mut rt = Runtime::with_engine(
            RuntimeConfig::base(EngineKind::RayCast)
                .nodes(2)
                .auto_trace(false),
            Box::new(engine),
        );
        Circuit::new(CircuitConfig {
            nodes: 2,
            ..CircuitConfig::small(6, 3)
        })
        .execute(&mut rt);
        rt.results()
    };
    let anchored = analyze(EqSetEngine::raycast());
    let kd = analyze(EqSetEngine::raycast().force_kd_tree());
    assert!(anchored.iter().any(|r| !r.deps.is_empty()));
    assert_eq!(anchored, kd);
}

//! Bounded-scan regression: per-launch analysis work must track the
//! *requirement's overlap* with live equivalence sets, not the live-set
//! count. Growing the live set 16x at fixed per-launch overlap (one
//! partition piece per launch) must leave the per-launch sweep work within
//! a small constant factor — if any per-launch full sweep creeps back into
//! the raycast scan path, this test catches it as a 16x blow-up. Untraced:
//! the rounds repeat, and a replayed launch scans nothing.

use std::sync::Arc;
use viz_runtime::{
    EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, RuntimeConfig,
};

/// Per-launch scan counters for a disjoint piece-writes program over an
/// `n`-way partition, `iters` rounds.
fn per_launch_scan(n: usize, iters: usize) -> (f64, f64) {
    let mut rt = Runtime::new(
        RuntimeConfig::base(EngineKind::RayCast)
            .nodes(1)
            .auto_trace(false),
    );
    let root = rt.forest_mut().create_root_1d("A", (n * 8) as i64);
    let f = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", n);
    let body: viz_runtime::TaskBody = Arc::new(|rs: &mut [PhysicalRegion]| {
        rs[0].update_all(|_, v| v + 1.0);
    });
    for _ in 0..iters {
        for i in 0..n {
            let piece = rt.forest().subregion(p, i);
            rt.submit(LaunchSpec::new(
                "w",
                0,
                vec![RegionRequirement::read_write(piece, f)],
                0,
                Some(body.clone()),
            ))
            .unwrap();
        }
    }
    let stats = rt.stats();
    let launches = stats.tasks.max(1) as f64;
    (
        stats.state.sets_swept as f64 / launches,
        stats.state.candidates_visited as f64 / launches,
    )
}

#[test]
fn sweep_work_tracks_overlap_not_live_sets() {
    // Same per-launch overlap (one piece) at 16x the live-set count.
    let (small_swept, small_cand) = per_launch_scan(16, 8);
    let (large_swept, large_cand) = per_launch_scan(256, 8);
    assert!(
        small_swept > 0.0 && small_cand > 0.0,
        "instrumentation dead: {small_swept} swept, {small_cand} candidates per launch"
    );
    // Overlap is constant, so per-launch work may wobble (steady-state
    // effects, the dominating-write kill/recreate cycle) but must not
    // scale with the 16x live-set growth. A full sweep would show up as
    // a ~16x ratio; allow 3x as the constant-factor envelope.
    assert!(
        large_swept <= 3.0 * small_swept,
        "per-launch sets_swept grew with the live-set count: \
         {small_swept:.2} at n=16 vs {large_swept:.2} at n=256"
    );
    assert!(
        large_cand <= 3.0 * small_cand,
        "per-launch candidates_visited grew with the live-set count: \
         {small_cand:.2} at n=16 vs {large_cand:.2} at n=256"
    );
}

/// The counters flow through the stats front door and are cumulative:
/// more launches, monotonically more visits.
#[test]
fn counters_are_cumulative_and_exported() {
    let mut rt = Runtime::new(
        RuntimeConfig::base(EngineKind::RayCast)
            .nodes(1)
            .auto_trace(false),
    );
    let root = rt.forest_mut().create_root_1d("A", 64);
    let f = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", 8);
    let mut last = 0u64;
    for round in 0..3 {
        for i in 0..8 {
            let piece = rt.forest().subregion(p, i);
            rt.submit(LaunchSpec::new(
                format!("r{round}"),
                0,
                vec![RegionRequirement::read_write(piece, f)],
                0,
                None,
            ))
            .unwrap();
        }
        let swept = rt.stats().state.sets_swept;
        assert!(swept > last, "sets_swept must advance every round");
        last = swept;
    }
}

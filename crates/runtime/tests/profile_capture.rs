//! The recorder under real load: the parallel value executor's worker
//! threads, the analysis engines, and the simulated machine all record into
//! per-thread rings, and one `take()` collects everything.

use std::sync::Arc;
use viz_profile::{EventKind, Track};
use viz_runtime::{
    EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, RuntimeConfig,
};

/// One end-to-end run: analyze on 4 simulated nodes, execute values on the
/// worker pool, replay the timed schedule. A single test (the recorder's
/// state is process-global).
#[test]
fn recorder_collects_across_executor_threads_and_sim_tracks() {
    viz_profile::enable();
    viz_profile::clear();

    let mut rt = Runtime::new(RuntimeConfig::new(EngineKind::RayCast).nodes(4));
    let root = rt.forest_mut().create_root_1d("A", 64);
    let f = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", 8);
    let mut launched = 0u64;
    for _iter in 0..4 {
        for i in 0..8usize {
            let piece = rt.forest().subregion(p, i);
            rt.submit(LaunchSpec::new(
                "w",
                i % 4,
                vec![RegionRequirement::read_write(piece, f)],
                1_000,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|pt, old| old + pt.x as f64);
                })),
            ))
            .unwrap()
            .id();
            launched += 1;
        }
        rt.submit(LaunchSpec::new(
            "sync",
            0,
            vec![RegionRequirement::read(root, f)],
            1_000,
            None,
        ))
        .unwrap()
        .id();
        launched += 1;
    }
    // The loop repeats, so the default replays its last iteration.
    let analyzed_launches = launched - rt.replayed_launches();
    assert!(analyzed_launches < launched, "the loop replays");
    let _store = rt.execute_values();
    let report = rt.timed_schedule();
    assert!(report.makespan > 0);

    let profile = viz_profile::take();
    assert_eq!(profile.dropped, 0, "default ring holds this workload");

    // The host track says how long phases took, nothing else: counts live
    // in the runtime's counters, not in host events.
    let host_kinds: Vec<&EventKind> = profile
        .events
        .iter()
        .filter(|e| matches!(e.track, Track::Host { .. }))
        .map(|e| &e.kind)
        .filter(|k| !matches!(k, EventKind::Span { .. }))
        .collect();
    assert!(
        host_kinds.is_empty(),
        "host events are spans: {host_kinds:?}"
    );

    // Every analyzed launch appears twice: a host span named after the
    // engine and a LaunchAnalyzed event on its origin node's program track.
    // A replayed launch runs no engine and appears in neither.
    let host_spans = profile
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { name: "raycast" }))
        .count() as u64;
    assert_eq!(host_spans, analyzed_launches);
    let analyzed = profile
        .events
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::LaunchAnalyzed { .. })
                && matches!(e.track, Track::SimProgram { .. })
        })
        .count() as u64;
    assert_eq!(analyzed, analyzed_launches);

    // Worker threads each recorded their task spans into their own ring;
    // take() must see all of them, from however many threads ran.
    let task_spans: Vec<_> = profile
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { name: "task" }))
        .collect();
    assert_eq!(task_spans.len() as u64, launched);

    // Sharded analysis across 4 nodes exercises the message layer: sends on
    // program tracks, in-order service on service tracks.
    let sends = profile
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MsgSend { .. }))
        .count();
    let serves = profile
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MsgServe { .. }))
        .count();
    assert!(sends > 0, "4-node analysis must message remote shards");
    assert_eq!(sends, serves, "every send is served exactly once");
    assert!(profile
        .events
        .iter()
        .any(|e| matches!(e.track, Track::SimService { .. })));

    // The timed schedule populated each node's GPU track.
    let gpu = profile
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GpuTask { .. }))
        .count() as u64;
    assert_eq!(gpu, launched);

    // Disabled again: nothing further is recorded.
    viz_profile::disable();
    drop(viz_profile::span("after-disable"));
    viz_profile::sim_event(
        0,
        1,
        Track::SimGpu { node: 0 },
        EventKind::GpuTask { task: 0 },
    );
    assert!(viz_profile::take().events.is_empty());
}

//! Pipelined-frontend directed tests.
//!
//! That the pipeline is *transparent* — the same dependences, plans and
//! values as the synchronous path, over random programs — is the
//! `pipeline::` axis of the differential matrix (`tests/differential.rs`
//! at the workspace root). Here the drain semantics (fence, inline_read,
//! end_trace, drop), backpressure and the typed error paths are pinned
//! down directly, on Fig 2's forest from `viz_oracle::gen`.

use viz_geometry::Point;
use viz_oracle::gen::{
    run_program, DriveConfig, Forest, GenOp, GenProgram, GenRegion::Piece, GenReq,
};
use viz_region::{Privilege, RedOpRegistry};
use viz_runtime::{
    EngineKind, LaunchSpec, RegionRequirement, Runtime, RuntimeConfig, RuntimeError, TaskId,
};

const N: i64 = 48;
const PIECES: usize = 4;
const RW: Privilege = Privilege::ReadWrite;

fn build_runtime(engine: EngineKind, threads: usize, pipelined: bool) -> Runtime {
    Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(2)
            .analysis_threads(threads)
            .pipeline(pipelined),
    )
}

/// Fig 2's forest in `rt`: partition 0 the primary pieces, 1 the ghosts.
fn halo(rt: &mut Runtime) -> Forest {
    Forest::build(&GenProgram::halo(2, N, PIECES), rt)
}

/// `fence` is a drain point: the fence task is ordered after every queued
/// launch and gets the next program-order id.
#[test]
fn fence_observes_all_queued_launches() {
    let mut rt = build_runtime(EngineKind::RayCast, 1, true);
    let forest = halo(&mut rt);
    for k in 0..PIECES {
        rt.submit(forest.single(Piece(0, k), RW, 3)).unwrap();
    }
    let f = rt.fence();
    assert_eq!(f, TaskId(PIECES as u32), "fence id follows the queued wave");
    let dag = rt.dag();
    let preds = dag.preds(f);
    assert_eq!(
        preds,
        (0..PIECES as u32).map(TaskId).collect::<Vec<_>>(),
        "fence must depend on every queued launch"
    );
}

/// `inline_read` is itself a submission: FIFO order alone guarantees it
/// observes every earlier queued write without draining.
#[test]
fn inline_read_observes_queued_writes() {
    let run = |pipelined: bool| -> Vec<f64> {
        let mut rt = build_runtime(EngineKind::Warnock, 1, pipelined);
        let forest = halo(&mut rt);
        for i in 0..2 * PIECES {
            rt.submit(forest.single(Piece(0, i % PIECES), RW, 11 + i as u32))
                .unwrap();
        }
        let probe = rt
            .inline_read(forest.roots[0], forest.fields[0][0])
            .unwrap();
        let store = rt.execute_values();
        (0..N)
            .map(|x| store.inline(probe).get(Point::p1(x)))
            .collect()
    };
    assert_eq!(run(true), run(false), "inline read missed queued writes");
}

/// Manual traces over the pipelined frontend: begin/end drain, the
/// recorded instances replay, and values match the synchronous run.
#[test]
fn manual_traces_drain_and_replay_pipelined() {
    let mut prog = GenProgram::halo(2, N, PIECES);
    for _ in 0..5 {
        prog.ops.push(GenOp::BeginTrace(7));
        for k in 0..PIECES {
            prog.launch(0, vec![GenReq::new(Piece(0, k), 0, RW)], 5);
        }
        prog.ops.push(GenOp::EndTrace(7));
    }
    let run = |pipeline: bool| {
        let cfg = DriveConfig {
            pipeline,
            values: true,
            ..DriveConfig::new(EngineKind::RayCast)
        };
        let run = run_program(&prog, cfg);
        (run.values, run.replayed)
    };
    let (sync_values, sync_replayed) = run(false);
    let (piped_values, piped_replayed) = run(true);
    assert_eq!(
        piped_values, sync_values,
        "tracing + pipeline changed values"
    );
    assert_eq!(piped_replayed, sync_replayed, "replay counts diverged");
    assert!(
        sync_replayed >= 2 * PIECES as u64,
        "instances 4 and 5 replay"
    );
}

/// Dropping a runtime with a non-empty queue flushes it: every submitted
/// launch retires before the driver exits (observed through the metrics
/// handle, which outlives the runtime).
#[test]
fn drop_flushes_queued_launches() {
    let mut rt = build_runtime(EngineKind::Paint, 1, true);
    let forest = halo(&mut rt);
    let metrics = rt.pipeline_metrics().expect("pipelined runtime");
    const COUNT: usize = 100;
    let privileges = [Privilege::Read, RW, Privilege::Reduce(RedOpRegistry::SUM)];
    for i in 0..COUNT {
        let piece = Piece(i / PIECES % 2, i % PIECES);
        rt.submit(forest.single(piece, privileges[i % 3], 1))
            .unwrap();
    }
    drop(rt);
    assert_eq!(metrics.submitted(), COUNT as u64);
    assert_eq!(
        metrics.retired(),
        COUNT as u64,
        "drop lost queued launches: {}/{} retired",
        metrics.retired(),
        metrics.submitted()
    );
}

/// Backpressure: a tiny queue forces submissions to stall while the driver
/// catches up — the program still completes and retires everything.
#[test]
fn backpressure_bounds_the_queue() {
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::PaintNaive)
            .nodes(2)
            .pipeline(true)
            .pipeline_depth(2),
    );
    let forest = halo(&mut rt);
    let (root, field) = (forest.roots[0], forest.fields[0][0]);
    const COUNT: usize = 400;
    for i in 0..COUNT {
        // Every launch read-writes the full root: the serial history scan
        // grows quadratically, so the driver falls behind a tight
        // submission loop and the 2-deep queue must fill.
        let spec = LaunchSpec::new(
            format!("t{i}"),
            0,
            vec![RegionRequirement::read_write(root, field)],
            0,
            None,
        );
        rt.submit(spec).unwrap();
    }
    rt.flush();
    let m = rt.pipeline_metrics().unwrap();
    assert_eq!(m.submitted(), COUNT as u64);
    assert_eq!(m.retired(), COUNT as u64);
    assert!(
        m.stalls() > 0,
        "a 2-deep queue under {COUNT} serial-scan launches never stalled"
    );
    assert_eq!(rt.num_tasks(), COUNT);
}

/// Typed submission errors: rejected on the application thread, consuming
/// no task id, leaving the pipeline healthy.
#[test]
fn submission_errors_consume_no_ids() {
    let mut rt = build_runtime(EngineKind::RayCast, 1, true);
    let forest = halo(&mut rt);
    let (root, field) = (forest.roots[0], forest.fields[0][0]);
    let bogus = viz_region::RegionId(9999);
    let err = rt
        .submit(LaunchSpec::new(
            "bad",
            0,
            vec![RegionRequirement::read(bogus, field)],
            0,
            None,
        ))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::UnknownRegion { .. }));
    let err = rt
        .submit(LaunchSpec::new(
            "bad",
            0,
            vec![RegionRequirement::read(root, viz_region::FieldId(9999))],
            0,
            None,
        ))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::UnknownField { .. }));
    let err = rt
        .submit(LaunchSpec::new(
            "bad",
            0,
            vec![
                RegionRequirement::read_write(root, field),
                RegionRequirement::read(root, field),
            ],
            0,
            None,
        ))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::InterferingRequirements { .. }));
    assert!(err.to_string().contains("alias with interfering"));
    // The failed submissions consumed no ids: the next valid launch is
    // task 0, and the queue still drains cleanly.
    let h = rt.submit(forest.single(Piece(0, 0), RW, 2)).unwrap();
    assert_eq!(rt.resolve(h), TaskId(0));
    assert_eq!(rt.num_tasks(), 1);
}

/// Trace misnesting is reported as a typed error under the pipeline, with
/// the open trace left intact.
#[test]
fn trace_misnesting_errors_pipelined() {
    let mut rt = build_runtime(EngineKind::Warnock, 1, true);
    let forest = halo(&mut rt);
    assert!(matches!(
        rt.try_end_trace(1),
        Err(RuntimeError::EndWithoutBegin { .. })
    ));
    rt.try_begin_trace(1).unwrap();
    rt.submit(forest.single(Piece(0, 0), RW, 4)).unwrap();
    assert!(matches!(
        rt.try_begin_trace(2),
        Err(RuntimeError::NestedTrace { .. })
    ));
    assert!(matches!(
        rt.try_end_trace(2),
        Err(RuntimeError::MismatchedTraceEnd { .. })
    ));
    assert!(rt.try_end_trace(1).unwrap().is_none());
}

/// Satellite 1 (PR 7): a driver panic mid-batch must not silently lose
/// dequeued-but-unretired specs. The panic is latched, later submissions
/// fail with [`RuntimeError::DriverPanicked`] carrying the exact count of
/// queued launches that will never be analyzed, and dropping the runtime
/// re-raises the original panic payload.
#[test]
fn driver_panic_surfaces_lost_launches_and_rethrows() {
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(2)
            .pipeline(true)
            // Let a poison spec reach the driver thread: producer-side
            // validation would otherwise reject it before enqueue.
            .validate(false),
    );
    let forest = halo(&mut rt);
    let (root, field) = (forest.roots[0], forest.fields[0][0]);
    let metrics = rt.pipeline_metrics().unwrap();
    let ok = |i: usize| {
        LaunchSpec::new(
            format!("ok{i}"),
            0,
            vec![RegionRequirement::read_write(root, field)],
            0,
            None,
        )
    };
    let poison = LaunchSpec::new(
        "poison",
        0,
        vec![RegionRequirement::read(viz_region::RegionId(9999), field)],
        0,
        None,
    );
    // The poison rides last: all three pushes land before the driver can
    // possibly panic, so `submitted` is exactly 3.
    rt.submit_batch(vec![ok(0), ok(1), poison]).unwrap();
    let start = std::time::Instant::now();
    while !metrics.panicked() {
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "driver never panicked on the poison spec"
        );
        std::thread::yield_now();
    }
    assert_eq!(metrics.submitted(), 3);
    let lost = metrics.lost();
    assert!(
        (1..=3).contains(&lost),
        "the poison spec itself can never retire (lost = {lost})"
    );
    assert_eq!(lost, metrics.submitted() - metrics.retired());
    // Subsequent submissions are refused with the loss count attached.
    let err = rt.submit(ok(2)).expect_err("post-panic submissions fail");
    match &err {
        RuntimeError::DriverPanicked { lost: l } => assert_eq!(*l, lost),
        e => panic!("expected DriverPanicked, got {e}"),
    }
    assert!(err.to_string().contains("unanalyzed"));
    // Dropping the runtime propagates the driver's panic payload.
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(rt)));
    assert!(unwound.is_err(), "drop must propagate the driver panic");
    // The metrics handle outlives the runtime and still reports the loss.
    assert!(metrics.panicked());
    assert_eq!(metrics.lost(), lost);
}

/// Handles resolve to program-order ids across every submission spelling
/// (submit, submit_batch, builder, fence, inline_read).
#[test]
fn handles_are_program_ordered_across_spellings() {
    let mut rt = build_runtime(EngineKind::Paint, 4, true);
    let forest = halo(&mut rt);
    let (root, field) = (forest.roots[0], forest.fields[0][0]);
    let h0 = rt.submit(forest.single(Piece(0, 0), RW, 1)).unwrap();
    let sum = Privilege::Reduce(RedOpRegistry::SUM);
    let batch: Vec<LaunchSpec> = (1..4)
        .map(|i| forest.single(Piece(0, i % PIECES), sum, 9))
        .collect();
    let hs = rt.submit_batch(batch).unwrap();
    let hb = rt
        .task("built")
        .on(1)
        .read(forest.region(Piece(0, 0)), field)
        .duration_ns(10)
        .submit()
        .unwrap();
    let f = rt.fence();
    let probe = rt.inline_read(root, field).unwrap();
    assert_eq!(h0.id(), TaskId(0));
    assert_eq!(
        hs.iter().map(|h| h.id()).collect::<Vec<_>>(),
        vec![TaskId(1), TaskId(2), TaskId(3)]
    );
    assert_eq!(hb.id(), TaskId(4));
    assert_eq!(f, TaskId(5));
    assert_eq!(probe, TaskId(6));
    assert_eq!(rt.resolve(hb), TaskId(4));
    assert_eq!(rt.num_tasks(), 7);
    assert_eq!(rt.launches().as_ref().len(), 7);
}

/// A handle from another runtime, whose `seq` is past everything this
/// facade issued, is a typed error in both modes — not a panic
/// (synchronous) nor a wait for a launch that will never commit
/// (pipelined). The resolve runs on its own thread, so a hang fails the
/// test on the timeout instead of wedging it.
#[test]
fn foreign_handle_is_a_typed_error() {
    let mut other = build_runtime(EngineKind::Paint, 1, false);
    let forest = halo(&mut other);
    let foreign = (0..3)
        .map(|i| other.submit(forest.single(Piece(0, i), RW, 1)).unwrap())
        .last()
        .unwrap();
    for pipelined in [false, true] {
        let mut rt = build_runtime(EngineKind::Paint, 1, pipelined);
        let forest = halo(&mut rt);
        rt.submit(forest.single(Piece(0, 0), RW, 1)).unwrap();
        let rt = std::sync::Arc::new(rt);
        let (tx, rx) = std::sync::mpsc::channel();
        let resolver = std::sync::Arc::clone(&rt);
        // A panicking resolver drops `tx` unsent: `Disconnected`.
        let thread = std::thread::spawn(move || tx.send(resolver.try_resolve(foreign)));
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("resolve failed to return ({e}; pipelined: {pipelined})"));
        thread.join().unwrap().unwrap();
        assert_eq!(got, Err(RuntimeError::UnknownHandle { seq: 2, issued: 1 }));
        assert!(got.unwrap_err().to_string().contains("not issued"));
    }
}

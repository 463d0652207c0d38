//! Automatic trace detection: directed tests.
//!
//! That detection is *transparent* — the same dependences, plans and
//! values with it on and off, over random programs with repeating blocks —
//! is the `auto_trace::` axis of the differential matrix
//! (`tests/differential.rs` at the workspace root). Here: a clean loop is
//! promoted and replays, adversarial near-repeats never are, fences and
//! manual traces interrupt it, a mid-replay divergence stays ordered, and
//! the three apps' iterations pass the coverage check and replay.

use viz_apps::{Circuit, CircuitConfig, Pennant, PennantConfig, Stencil, StencilConfig, Workload};
use viz_geometry::Point;
use viz_oracle::gen::{
    run_program, DriveConfig, Forest, GenOp, GenProgram, GenRegion::Piece, GenReq, Run,
};
use viz_region::{Privilege, RedOpRegistry};
use viz_runtime::validate::check_sufficiency;
use viz_runtime::{EngineKind, Runtime, RuntimeConfig};

const N: i64 = 48;
const PIECES: usize = 4;
const RW: Privilege = Privilege::ReadWrite;

fn build_runtime(auto: bool) -> Runtime {
    Runtime::new(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(2)
            .auto_trace(auto),
    )
}

/// Fig 2's forest with no launches yet: partition 0 the primary pieces,
/// 1 the ghosts.
fn halo() -> GenProgram {
    GenProgram::halo(2, N, PIECES)
}

/// Append one launch of `privilege` on piece `k` of partition `part`.
fn push(prog: &mut GenProgram, part: usize, k: usize, privilege: Privilege, salt: u32) {
    prog.launch(0, vec![GenReq::new(Piece(part, k), 0, privilege)], salt);
}

/// Run `prog` with values, serially or sharded (the whole stream per
/// batch), and check the DAG is sufficient.
fn run(prog: &GenProgram, engine: EngineKind, auto_trace: bool, sharded: bool) -> Run {
    let (analysis_threads, batch) = if sharded { (4, usize::MAX) } else { (1, 1) };
    let run = run_program(
        prog,
        DriveConfig {
            analysis_threads,
            batch,
            auto_trace,
            values: true,
            ..DriveConfig::new(engine)
        },
    );
    assert!(run.unsound.is_empty(), "{:?}", run.unsound);
    run
}

/// A long clean loop must be detected and replayed, and serial vs sharded
/// drivers must agree on everything with detection enabled.
#[test]
fn long_loop_is_detected_and_replays() {
    let mut prog = halo();
    for _ in 0..10 {
        for k in 0..PIECES {
            push(&mut prog, 0, k, RW, 7);
        }
        for k in 0..PIECES {
            push(&mut prog, 1, k, Privilege::Reduce(RedOpRegistry::SUM), 3);
        }
    }
    let plain = run(&prog, EngineKind::RayCast, false, false);
    let serial = run(&prog, EngineKind::RayCast, true, false);
    let sharded = run(&prog, EngineKind::RayCast, true, true);
    assert_eq!(serial.values, plain.values);
    assert_eq!(sharded.values, plain.values);
    assert_eq!(
        serial.results, sharded.results,
        "drivers disagree on analysis"
    );
    assert_eq!(serial.detected, 1, "one trace must be promoted");
    assert_eq!(sharded.detected, 1);
    // Detection on the last launch of the 2nd observed instance, whose
    // rows are the template; one analyzed verification instance on the
    // 3rd: the remaining 7 instances replay.
    assert_eq!(serial.replayed, 7 * 8, "replayed launches");
    assert_eq!(
        serial.replayed, sharded.replayed,
        "drivers disagree on replay"
    );
}

/// The template is read off the promoting block's committed rows, so GC
/// must not retire them while the detector observes: at a sweep after
/// every launch (or every fourth) with two launches retained, a period-8
/// stream of ten instances still replays its last seven.
#[test]
fn promotion_reads_its_block_under_aggressive_gc() {
    for interval in [1, 4] {
        let mut rt = Runtime::new(
            RuntimeConfig::new(EngineKind::RayCast)
                .nodes(2)
                .history_gc(true)
                .gc_interval(interval)
                .gc_retain(2),
        );
        let forest = Forest::build(&halo(), &mut rt);
        for _ in 0..10 {
            for k in 0..PIECES {
                rt.submit(forest.single(Piece(0, k), RW, 7)).unwrap();
            }
            for k in 0..PIECES {
                let sum = Privilege::Reduce(RedOpRegistry::SUM);
                rt.submit(forest.single(Piece(1, k), sum, 3)).unwrap();
            }
        }
        let stats = rt.stats();
        assert!(stats.watermark > 0, "interval {interval}: GC retired rows");
        assert_eq!(
            (rt.auto_traces_detected(), rt.auto_traces_demoted()),
            (1, 0),
            "interval {interval}"
        );
        assert_eq!(rt.replayed_launches(), 7 * 8, "interval {interval}");
    }
}

/// Near-repeats — instances that agree except for one launch's privilege,
/// whose position follows an aperiodic (ruler) sequence — must never be
/// promoted: the detector verifies candidate periods element-for-element
/// before trusting them. (A *rotating* mismatch would itself be periodic
/// with period `PIECES` iterations and legitimately promotable.)
#[test]
fn near_repeats_are_never_promoted() {
    let mut prog = halo();
    for iter in 1u32..13 {
        let odd = (iter.trailing_zeros() as usize) % PIECES;
        for k in 0..PIECES {
            // One launch per "iteration" differs; its position is the
            // ruler sequence 0,1,0,2,0,1,0,3,... which has no period.
            let privilege = if k == odd { Privilege::Read } else { RW };
            push(&mut prog, 0, k, privilege, 7);
        }
    }
    for engine in [EngineKind::RayCast, EngineKind::Warnock] {
        let out = run(&prog, engine, true, false);
        assert_eq!(
            out.detected, 0,
            "{engine:?}: near-repeat stream was promoted"
        );
        assert_eq!(out.replayed, 0);
        let plain = run(&prog, engine, false, false);
        assert_eq!(out.values, plain.values);
    }
}

/// Fences interrupt periodicity: a fence between instances resets the
/// detector, so a fenced loop never promotes.
#[test]
fn fences_break_detected_periodicity() {
    let mut prog = halo();
    for _ in 0..8 {
        for k in 0..PIECES {
            push(&mut prog, 0, k, RW, 7);
        }
        prog.ops.push(GenOp::Fence);
    }
    let out = run(&prog, EngineKind::RayCast, true, false);
    assert_eq!(out.detected, 0, "fenced loop must not promote");
    assert_eq!(out.replayed, 0);
}

/// Manual traces take precedence: `begin_trace` during an active auto
/// trace demotes it, and both mechanisms produce correct values.
#[test]
fn manual_trace_supersedes_auto_trace() {
    let values = |auto: bool, manual: bool| -> Vec<Vec<f64>> {
        let mut prog = halo();
        for _ in 0..6 {
            if manual {
                prog.ops.push(GenOp::BeginTrace(9));
            }
            for k in 0..PIECES {
                push(&mut prog, 0, k, RW, 5);
            }
            if manual {
                prog.ops.push(GenOp::EndTrace(9));
            }
        }
        run(&prog, EngineKind::RayCast, auto, false).values
    };
    let plain = values(false, false);
    assert_eq!(values(true, false), plain, "auto tracing changed values");
    assert_eq!(values(false, true), plain, "manual tracing changed values");
    assert_eq!(values(true, true), plain, "mixed tracing changed values");
}

/// The auto-trace mirror of `tracing.rs`'s
/// `mid_replay_divergence_orders_after_replayed_prefix`: a launch diverging
/// mid-replay orders after the replayed prefix, not only after the
/// analyzed instance whose writes the frozen engine state still names.
#[test]
fn auto_mid_replay_divergence_orders_after_replayed_prefix() {
    let mut rt = build_runtime(true);
    let forest = Forest::build(&halo(), &mut rt);
    let submit = |rt: &mut Runtime, k: usize, privilege: Privilege| {
        rt.submit(forest.single(Piece(0, k), privilege, 7))
            .unwrap()
            .id()
    };
    // Unit [RW p0, RW p0, RW p1]: observed twice (the repeat is detected at
    // task 5, and tasks 3-5 are the template), verified (6-8), replayed
    // (9-11).
    for i in 0..12 {
        submit(&mut rt, [0, 0, 1][i % 3], RW);
    }
    assert!(rt.is_replaying() && rt.replayed_launches() == 3);
    // Fifth instance: the first RW p0 replays (task 12), then a read of p0
    // diverges from the recorded RW at cursor 1.
    let prefix = submit(&mut rt, 0, RW);
    let divergent = submit(&mut rt, 0, Privilege::Read);
    assert_eq!(rt.replayed_launches(), 4);
    let cursors: Vec<u32> = rt.trace_violations().iter().map(|v| v.cursor).collect();
    assert_eq!(cursors, [1], "diverged after one replayed launch");
    assert_eq!(
        (rt.auto_traces_detected(), rt.auto_traces_demoted()),
        (1, 1)
    );
    // The frozen engine state's last writer of p0 is verification task 7,
    // which superseded task 6 — the launch the prefix replayed as task 12.
    // A dep on 7 (rebased to 10) alone would let the read race the
    // prefix's write.
    let dag = rt.dag();
    assert!(
        dag.must_follow(divergent, prefix),
        "divergent launch must order after the replayed prefix write: deps {:?}",
        dag.preds(divergent)
    );
    drop(dag);
    assert!(check_sufficiency(rt.forest(), rt.launches(), rt.dag()).is_empty());
}

/// A fence or a `begin_trace` that lands between detection and the first
/// verify launch drops the promoted trace silently: no violation, no
/// demotion, and the values of the untraced run.
#[test]
fn interrupting_a_promotion_before_its_first_launch_is_silent() {
    let run = |auto: bool| -> Vec<f64> {
        let mut rt = build_runtime(auto);
        let forest = Forest::build(&halo(), &mut rt);
        let (root, field) = (forest.roots[0], forest.fields[0][0]);
        let instances = |rt: &mut Runtime, n: usize| {
            for i in 0..n * PIECES {
                rt.submit(forest.single(Piece(0, i % PIECES), RW, 7))
                    .unwrap();
            }
        };
        // Two instances of [RW p0 .. p3]: the last launch promotes the
        // repeat, and the next operation interrupts it.
        instances(&mut rt, 2);
        rt.fence();
        instances(&mut rt, 2);
        rt.try_begin_trace(9).unwrap();
        instances(&mut rt, 1);
        assert_eq!(rt.try_end_trace(9).unwrap(), None);
        assert_eq!(rt.auto_traces_detected(), 2 * u64::from(auto));
        assert!(rt.trace_violations().is_empty());
        assert_eq!((rt.auto_traces_demoted(), rt.replayed_launches()), (0, 0));
        let probe = rt.inline_read(root, field).unwrap();
        assert!(check_sufficiency(rt.forest(), rt.launches(), rt.dag()).is_empty());
        let store = rt.execute_values();
        (0..N)
            .map(|x| store.inline(probe).get(Point::p1(x)))
            .collect()
    };
    assert_eq!(run(true), run(false), "a dropped promotion changed values");
}

/// Replay starts only once the promoted block has passed the coverage
/// check, so the apps replaying under the default config is that check's
/// verdict on their iterations.
#[test]
fn apps_iterations_cover_themselves_and_replay_by_default() {
    let apps: [(&str, Box<dyn Workload>); 3] = [
        (
            "stencil",
            Box::new(Stencil::new(StencilConfig::small(4, 6, 6))),
        ),
        (
            "circuit",
            Box::new(Circuit::new(CircuitConfig::small(4, 6))),
        ),
        (
            "pennant",
            Box::new(Pennant::new(PennantConfig::small(4, 6))),
        ),
    ];
    for (name, app) in apps {
        let mut rt = Runtime::new(RuntimeConfig::base(EngineKind::RayCast).nodes(4));
        app.execute(&mut rt);
        assert!(rt.replayed_launches() > 0, "{name}: the default replays");
    }
}

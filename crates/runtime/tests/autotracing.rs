//! Automatic trace detection tests.
//!
//! The auto-tracer must be *transparent*: enabling it may only change how
//! fast analysis runs, never what it computes. Random programs with an
//! embedded repeating unit run with detection on and off, through all four
//! engines and both analysis drivers (serial and sharded), and must agree
//! on dependences, plans, and executed values. Adversarial near-repeats —
//! streams that look periodic to a hash but differ somewhere — must never
//! be promoted.

use proptest::prelude::*;
use std::sync::Arc;
use viz_geometry::{IndexSpace, Point, Rect};
use viz_region::{Privilege, RedOpRegistry};
use viz_runtime::validate::check_sufficiency;
use viz_runtime::{
    EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, RuntimeConfig,
};

const N: i64 = 48;
const PIECES: usize = 4;

/// One abstract launch of the generated programs (see
/// `prop_engine_differential.rs` for the shape).
#[derive(Clone, Debug)]
struct AbsLaunch {
    target: usize, // 0..PIECES = primary piece, PIECES..2*PIECES = ghost
    privilege: u8, // 0 = read, 1 = rw, 2 = reduce-sum
    salt: u32,     // body constant (does not affect the signature)
}

fn abs_launch() -> impl Strategy<Value = AbsLaunch> {
    ((0..2 * PIECES), 0u8..3, 0u32..1000).prop_map(|(target, privilege, salt)| AbsLaunch {
        target,
        privilege,
        salt,
    })
}

/// A program with structure the detector can (and must) exploit: a random
/// prefix, a unit repeated several times, and a random suffix that breaks
/// the periodicity.
#[derive(Clone, Debug)]
struct Program {
    prefix: Vec<AbsLaunch>,
    unit: Vec<AbsLaunch>,
    repeats: usize,
    suffix: Vec<AbsLaunch>,
}

impl Program {
    fn stream(&self) -> Vec<AbsLaunch> {
        let mut out = self.prefix.clone();
        for _ in 0..self.repeats {
            out.extend(self.unit.iter().cloned());
        }
        out.extend(self.suffix.iter().cloned());
        out
    }
}

fn program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(abs_launch(), 0..4),
        prop::collection::vec(abs_launch(), 1..6),
        1usize..8,
        prop::collection::vec(abs_launch(), 0..4),
    )
        .prop_map(|(prefix, unit, repeats, suffix)| Program {
            prefix,
            unit,
            repeats,
            suffix,
        })
}

fn build_runtime(engine: EngineKind, auto: bool, threads: usize) -> Runtime {
    Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(2)
            .analysis_threads(threads)
            .auto_trace(auto),
    )
}

fn setup_regions(
    rt: &mut Runtime,
) -> (
    viz_region::RegionId,
    viz_region::FieldId,
    Vec<viz_region::RegionId>,
) {
    let root = rt.forest_mut().create_root_1d("A", N);
    let field = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", PIECES);
    let chunk = N / PIECES as i64;
    let ghosts: Vec<IndexSpace> = (0..PIECES as i64)
        .map(|i| {
            let lo = i * chunk;
            let hi = (i + 1) * chunk - 1;
            let mut rects = Vec::new();
            if lo > 0 {
                rects.push(Rect::span(lo - 2, lo - 1));
            }
            if hi < N - 1 {
                rects.push(Rect::span(hi + 1, (hi + 2).min(N - 1)));
            }
            IndexSpace::from_rects(rects)
        })
        .collect();
    let g = rt.forest_mut().create_partition(root, "G", ghosts);
    rt.try_set_initial(root, field, |pt| (pt.x % 17) as f64)
        .unwrap();
    let mut regions = Vec::new();
    for k in 0..PIECES {
        regions.push(rt.forest().subregion(p, k));
    }
    for k in 0..PIECES {
        regions.push(rt.forest().subregion(g, k));
    }
    (root, field, regions)
}

fn spec_of(
    l: &AbsLaunch,
    i: usize,
    regions: &[viz_region::RegionId],
    field: viz_region::FieldId,
) -> LaunchSpec {
    let region = regions[l.target];
    let salt = l.salt as f64 + i as f64;
    let (privilege, body): (Privilege, viz_runtime::TaskBody) = match l.privilege {
        0 => (Privilege::Read, Arc::new(|_: &mut [PhysicalRegion]| {})),
        1 => (
            Privilege::ReadWrite,
            Arc::new(move |rs: &mut [PhysicalRegion]| {
                rs[0].update_all(|pt, v| ((v * 3.0 + salt + pt.x as f64) as i64 % 257) as f64);
            }),
        ),
        _ => (
            Privilege::Reduce(RedOpRegistry::SUM),
            Arc::new(move |rs: &mut [PhysicalRegion]| {
                let dom = rs[0].domain().clone();
                for pt in dom.points() {
                    rs[0].reduce(pt, ((salt as i64 + pt.x) % 13) as f64);
                }
            }),
        ),
    };
    LaunchSpec::new(
        format!("t{i}"),
        l.target % 2,
        vec![RegionRequirement::new(region, field, privilege)],
        100,
        Some(body),
    )
}

struct Outcome {
    values: Vec<f64>,
    deps: Vec<Vec<u32>>,
    plans_fingerprint: usize,
    replayed: u64,
    detected: u64,
}

/// Run one program; `batched` feeds the entire stream through
/// [`Runtime::run_batch`] (the sharded driver path), otherwise launches
/// go one at a time through the serial path.
fn run_program(
    engine: EngineKind,
    auto: bool,
    threads: usize,
    batched: bool,
    stream: &[AbsLaunch],
) -> Outcome {
    let mut rt = build_runtime(engine, auto, threads);
    let (root, field, regions) = setup_regions(&mut rt);
    let specs: Vec<LaunchSpec> = stream
        .iter()
        .enumerate()
        .map(|(i, l)| spec_of(l, i, &regions, field))
        .collect();
    if batched {
        rt.submit_batch(specs).unwrap();
    } else {
        for s in specs {
            rt.submit(LaunchSpec::new(
                s.name,
                s.node,
                s.reqs,
                s.duration_ns,
                s.body,
            ))
            .unwrap()
            .id();
        }
    }
    let probe = rt.inline_read(root, field).unwrap();
    let violations = check_sufficiency(rt.forest(), rt.launches(), rt.dag());
    assert!(
        violations.is_empty(),
        "{engine:?} auto={auto} threads={threads}: unsound DAG: {violations:?}"
    );
    let results = rt.results();
    let deps: Vec<Vec<u32>> = results
        .iter()
        .map(|r| r.deps.iter().map(|d| d.0).collect())
        .collect();
    let plans_fingerprint = results.iter().map(|r| r.plans.len()).sum::<usize>()
        + results
            .iter()
            .flat_map(|r| &r.plans)
            .map(|p| p.copies.len() + p.reductions.len())
            .sum::<usize>();
    let replayed = rt.replayed_launches();
    let detected = rt.auto_traces_detected();
    let store = rt.execute_values();
    let values: Vec<f64> = (0..N)
        .map(|x| store.inline(probe).get(Point::p1(x)))
        .collect();
    Outcome {
        values,
        deps,
        plans_fingerprint,
        replayed,
        detected,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Detection on must be invisible: same dependences and same executed
    /// values as detection off, under every engine and both drivers.
    #[test]
    fn auto_tracing_is_transparent(p in program()) {
        let stream = p.stream();
        let reference = run_program(EngineKind::PaintNaive, false, 1, false, &stream);
        for engine in [
            EngineKind::PaintNaive,
            EngineKind::Paint,
            EngineKind::Warnock,
            EngineKind::RayCast,
        ] {
            for (threads, batched) in [(1, false), (4, true)] {
                let auto = run_program(engine, true, threads, batched, &stream);
                prop_assert_eq!(
                    &auto.values, &reference.values,
                    "{:?} threads={} batched={}: detection changed values",
                    engine, threads, batched
                );
                // Same engine without detection: dependences and plan
                // shapes must be identical, not merely value-equivalent.
                let plain = run_program(engine, false, threads, batched, &stream);
                prop_assert_eq!(&auto.deps, &plain.deps,
                    "{:?}: detection changed dependences", engine);
                prop_assert_eq!(auto.plans_fingerprint, plain.plans_fingerprint,
                    "{:?}: detection changed plans", engine);
            }
        }
    }
}

/// A long clean loop must be detected and replayed, and serial vs sharded
/// drivers must agree on everything with detection enabled.
#[test]
fn long_loop_is_detected_and_replays() {
    let mut unit = Vec::new();
    for k in 0..PIECES {
        unit.push(AbsLaunch {
            target: k,
            privilege: 1,
            salt: 7,
        });
    }
    for k in 0..PIECES {
        unit.push(AbsLaunch {
            target: PIECES + k,
            privilege: 2,
            salt: 3,
        });
    }
    let p = Program {
        prefix: vec![],
        unit,
        repeats: 10,
        suffix: vec![],
    };
    let stream = p.stream();
    let plain = run_program(EngineKind::RayCast, false, 1, false, &stream);
    let serial = run_program(EngineKind::RayCast, true, 1, false, &stream);
    let sharded = run_program(EngineKind::RayCast, true, 4, true, &stream);
    assert_eq!(serial.values, plain.values);
    assert_eq!(sharded.values, plain.values);
    assert_eq!(serial.deps, sharded.deps, "drivers disagree on dependences");
    assert_eq!(serial.detected, 1, "one trace must be promoted");
    assert_eq!(sharded.detected, 1);
    // Detection after 2 observed instances, capture on the 3rd, one
    // analyzed verification instance on the 4th: at least the remaining
    // 6 instances replay.
    assert!(
        serial.replayed >= 6 * 8,
        "expected >= 48 replayed launches, got {}",
        serial.replayed
    );
    assert_eq!(
        serial.replayed, sharded.replayed,
        "drivers disagree on replay"
    );
}

/// Near-repeats — instances that agree except for one launch's privilege,
/// whose position follows an aperiodic (ruler) sequence — must never be
/// promoted: the detector verifies candidate periods element-for-element
/// before trusting them. (A *rotating* mismatch would itself be periodic
/// with period `PIECES` iterations and legitimately promotable.)
#[test]
fn near_repeats_are_never_promoted() {
    let mut stream = Vec::new();
    for iter in 1u32..13 {
        let odd = (iter.trailing_zeros() as usize) % PIECES;
        for k in 0..PIECES {
            stream.push(AbsLaunch {
                target: k,
                // One launch per "iteration" differs; its position is the
                // ruler sequence 0,1,0,2,0,1,0,3,... which has no period.
                privilege: if k == odd { 0 } else { 1 },
                salt: 7,
            });
        }
    }
    for engine in [EngineKind::RayCast, EngineKind::Warnock] {
        let out = run_program(engine, true, 1, false, &stream);
        assert_eq!(
            out.detected, 0,
            "{engine:?}: near-repeat stream was promoted"
        );
        assert_eq!(out.replayed, 0);
        let plain = run_program(engine, false, 1, false, &stream);
        assert_eq!(out.values, plain.values);
    }
}

/// Fences interrupt periodicity: a fence between instances resets the
/// detector, so a fenced loop never promotes.
#[test]
fn fences_break_detected_periodicity() {
    let mut rt = build_runtime(EngineKind::RayCast, true, 1);
    let (root, field, regions) = setup_regions(&mut rt);
    for iter in 0..8 {
        for k in 0..PIECES {
            let l = AbsLaunch {
                target: k,
                privilege: 1,
                salt: 7,
            };
            let s = spec_of(&l, iter * PIECES + k, &regions, field);
            rt.submit(LaunchSpec::new(
                s.name,
                s.node,
                s.reqs,
                s.duration_ns,
                s.body,
            ))
            .unwrap()
            .id();
        }
        rt.fence();
    }
    assert_eq!(rt.auto_traces_detected(), 0, "fenced loop must not promote");
    assert_eq!(rt.replayed_launches(), 0);
    let probe = rt.inline_read(root, field).unwrap();
    assert!(check_sufficiency(rt.forest(), rt.launches(), rt.dag()).is_empty());
    let _ = rt.execute_values();
    let _ = probe;
}

/// Manual traces take precedence: `begin_trace` during an active auto
/// trace demotes it, and both mechanisms produce correct values.
#[test]
fn manual_trace_supersedes_auto_trace() {
    let run = |auto: bool, manual: bool| -> Vec<f64> {
        let mut rt = build_runtime(EngineKind::RayCast, auto, 1);
        let (root, field, regions) = setup_regions(&mut rt);
        let mut i = 0;
        for _ in 0..6 {
            if manual {
                rt.try_begin_trace(9).unwrap();
            }
            for k in 0..PIECES {
                let l = AbsLaunch {
                    target: k,
                    privilege: 1,
                    salt: 5,
                };
                let s = spec_of(&l, i, &regions, field);
                rt.submit(LaunchSpec::new(
                    s.name,
                    s.node,
                    s.reqs,
                    s.duration_ns,
                    s.body,
                ))
                .unwrap()
                .id();
                i += 1;
            }
            if manual {
                rt.try_end_trace(9).unwrap();
            }
        }
        let probe = rt.inline_read(root, field).unwrap();
        assert!(check_sufficiency(rt.forest(), rt.launches(), rt.dag()).is_empty());
        let store = rt.execute_values();
        (0..N)
            .map(|x| store.inline(probe).get(Point::p1(x)))
            .collect()
    };
    let plain = run(false, false);
    assert_eq!(run(true, false), plain, "auto tracing changed values");
    assert_eq!(run(false, true), plain, "manual tracing changed values");
    assert_eq!(run(true, true), plain, "mixed tracing changed values");
}

/// The auto-trace mirror of `tracing.rs`'s
/// `mid_replay_divergence_orders_after_replayed_prefix`: a launch diverging
/// mid-replay orders after the replayed prefix, not only after the
/// analyzed instance whose writes the frozen engine state still names.
#[test]
fn auto_mid_replay_divergence_orders_after_replayed_prefix() {
    let mut rt = build_runtime(EngineKind::RayCast, true, 1);
    let (_, field, regions) = setup_regions(&mut rt);
    let submit = |rt: &mut Runtime, i: usize, target: usize, privilege: u8| {
        let l = AbsLaunch {
            target,
            privilege,
            salt: 7,
        };
        rt.submit(spec_of(&l, i, &regions, field)).unwrap().id()
    };
    // Unit [RW p0, RW p0, RW p1]: observed twice (the repeat is detected at
    // task 5), captured (6-8), verified (9-11), replayed (12-14).
    for i in 0..15 {
        submit(&mut rt, i, [0, 0, 1][i % 3], 1);
    }
    assert!(rt.is_replaying() && rt.replayed_launches() == 3);
    // Sixth instance: the first RW p0 replays (task 15), then a read of p0
    // diverges from the recorded RW at cursor 1.
    let prefix = submit(&mut rt, 15, 0, 1);
    let divergent = submit(&mut rt, 16, 0, 0);
    assert_eq!(rt.replayed_launches(), 4);
    let cursors: Vec<u32> = rt.trace_violations().iter().map(|v| v.cursor).collect();
    assert_eq!(cursors, [1], "diverged after one replayed launch");
    assert_eq!(
        (rt.auto_traces_detected(), rt.auto_traces_demoted()),
        (1, 1)
    );
    // The frozen engine state's last writer of p0 is verification task 10,
    // which superseded task 9 — the launch the prefix replayed as task 15.
    // A dep on 10 (rebased to 13) alone would let the read race the
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
/// capture launch drops the promoted trace silently: no violation, no
/// demotion, and the values of the untraced run.
#[test]
fn interrupting_a_promotion_before_its_first_launch_is_silent() {
    let run = |auto: bool| -> Vec<f64> {
        let mut rt = build_runtime(EngineKind::RayCast, auto, 1);
        let (root, field, regions) = setup_regions(&mut rt);
        let mut i = 0;
        let mut instances = |rt: &mut Runtime, n: usize| {
            for _ in 0..n * PIECES {
                let l = AbsLaunch {
                    target: i % PIECES,
                    privilege: 1,
                    salt: 7,
                };
                rt.submit(spec_of(&l, i, &regions, field)).unwrap().id();
                i += 1;
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

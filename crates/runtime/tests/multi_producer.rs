//! Multi-producer submission-plane tests (PR 7).
//!
//! Tenant contexts submitting concurrently through per-context rings must
//! be *transparent*: each tenant's stream sees exactly the dependences and
//! values it would see running alone on its own runtime, regardless of how
//! the combining dispatcher interleaves the streams. The differential
//! below drives disjoint per-tenant region trees through all four engines,
//! serial and sharded, auto-tracing on and off, and projects the shared
//! run's global history back onto each tenant for comparison against a
//! solo synchronous run. Directed tests pin down scoped fences, ring-slot
//! recycling, typed ring exhaustion, and the combining metrics.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use viz_geometry::Point;
use viz_region::{FieldId, Privilege, RedOpRegistry, RegionId};
use viz_runtime::analysis::paint_naive::PaintNaive;
use viz_runtime::{
    EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, RuntimeConfig,
    RuntimeError, TaskId,
};

const N: i64 = 32;
const PIECES: usize = 4;
const TENANTS: usize = 3;

/// One abstract launch against a tenant's private tree.
#[derive(Clone, Debug)]
struct TLaunch {
    target: usize, // 0..PIECES = piece, PIECES = the whole root
    privilege: u8, // 0 = read, 1 = rw, 2 = reduce-sum
    salt: u32,
}

fn t_launch() -> impl Strategy<Value = TLaunch> {
    ((0..PIECES + 1), 0u8..3, 0u32..100).prop_map(|(target, privilege, salt)| TLaunch {
        target,
        privilege,
        salt,
    })
}

fn streams() -> impl Strategy<Value = Vec<Vec<TLaunch>>> {
    prop::collection::vec(
        prop::collection::vec(t_launch(), 1..7),
        TENANTS..TENANTS + 1,
    )
}

/// Create tenant `t`'s private root, field, and equal partition. Region
/// list is the pieces followed by the root itself.
fn setup_tenant(rt: &mut Runtime, t: usize) -> (RegionId, FieldId, Vec<RegionId>) {
    let root = rt.forest_mut().create_root_1d(format!("R{t}"), N);
    let field = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", PIECES);
    let mut regions: Vec<RegionId> = (0..PIECES).map(|k| rt.forest().subregion(p, k)).collect();
    regions.push(root);
    rt.try_set_initial(root, field, move |pt| ((pt.x * (t as i64 + 3)) % 17) as f64)
        .expect("fresh tenant root");
    (root, field, regions)
}

fn spec_of(l: &TLaunch, i: usize, regions: &[RegionId], field: FieldId) -> LaunchSpec {
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

/// Tenant `t`'s stream run alone, synchronously: the reference each
/// projection must match.
fn run_solo(
    engine: EngineKind,
    auto: bool,
    threads: usize,
    t: usize,
    stream: &[TLaunch],
) -> (Vec<Vec<u32>>, Vec<f64>) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(2)
            .analysis_threads(threads)
            .auto_trace(auto),
    );
    let (root, field, regions) = setup_tenant(&mut rt, t);
    for (i, l) in stream.iter().enumerate() {
        rt.submit(spec_of(l, i, &regions, field))
            .expect("generated launches are valid");
    }
    let probe = rt.inline_read(root, field).unwrap();
    let results = rt.results();
    let deps = results
        .iter()
        .take(stream.len())
        .map(|r| r.deps.iter().map(|d| d.0).collect())
        .collect();
    let store = rt.execute_values();
    let values = (0..N)
        .map(|x| store.inline(probe).get(Point::p1(x)))
        .collect();
    (deps, values)
}

/// All tenants sharing one engine, each submitting its stream from its own
/// thread through its own context. Returns, per tenant, the dependences
/// projected onto that tenant's local submission order, and the final
/// values of its root.
fn run_multi(
    engine: EngineKind,
    auto: bool,
    threads: usize,
    pipelined: bool,
    streams: &[Vec<TLaunch>],
) -> (Vec<Vec<Vec<u32>>>, Vec<Vec<f64>>) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(2)
            .analysis_threads(threads)
            .auto_trace(auto)
            .pipeline(pipelined)
            .submit_rings(streams.len() + 1),
    );
    let setups: Vec<_> = (0..streams.len())
        .map(|t| setup_tenant(&mut rt, t))
        .collect();
    let mut ctxs: Vec<_> = (0..streams.len())
        .map(|_| rt.new_context().expect("one ring per tenant"))
        .collect();
    let resolved: Vec<Vec<TaskId>> = std::thread::scope(|s| {
        let joins: Vec<_> = ctxs
            .iter_mut()
            .zip(streams)
            .zip(&setups)
            .map(|((ctx, stream), (_, field, regions))| {
                let field = *field;
                s.spawn(move || {
                    let handles: Vec<_> = stream
                        .iter()
                        .enumerate()
                        .map(|(i, l)| {
                            ctx.submit(spec_of(l, i, regions, field))
                                .expect("generated launches are valid")
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.resolve().expect("driver alive"))
                        .collect::<Vec<TaskId>>()
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("producer thread"))
            .collect()
    });
    drop(ctxs);
    let results = rt.results();
    let mut deps_out = Vec::new();
    for (t, ids) in resolved.iter().enumerate() {
        let local: std::collections::HashMap<u32, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, g)| (g.0, i as u32))
            .collect();
        let deps: Vec<Vec<u32>> = ids
            .iter()
            .map(|g| {
                results[g.0 as usize]
                    .deps
                    .iter()
                    .map(|d| {
                        *local.get(&d.0).unwrap_or_else(|| {
                            panic!("tenant {t}: dependence on task {} escapes its tree", d.0)
                        })
                    })
                    .collect()
            })
            .collect();
        deps_out.push(deps);
    }
    let probes: Vec<TaskId> = setups
        .iter()
        .map(|(root, field, _)| rt.inline_read(*root, *field).unwrap())
        .collect();
    let store = rt.execute_values();
    let values = probes
        .iter()
        .map(|p| (0..N).map(|x| store.inline(*p).get(Point::p1(x))).collect())
        .collect();
    (deps_out, values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tentpole differential: multi-producer pipelined == multi-context
    /// synchronous == each tenant solo, over every engine, serial and
    /// sharded analysis, auto-tracing on and off.
    #[test]
    fn tenant_streams_are_transparent(streams in streams()) {
        for engine in [
            EngineKind::PaintNaive,
            EngineKind::Paint,
            EngineKind::Warnock,
            EngineKind::RayCast,
        ] {
            for auto in [false, true] {
                for threads in [1, 4] {
                    let (sync_deps, sync_vals) = run_multi(engine, auto, threads, false, &streams);
                    let (piped_deps, piped_vals) = run_multi(engine, auto, threads, true, &streams);
                    prop_assert_eq!(
                        &piped_deps, &sync_deps,
                        "{:?} auto={} threads={}: rings changed dependences",
                        engine, auto, threads
                    );
                    prop_assert_eq!(
                        &piped_vals, &sync_vals,
                        "{:?} auto={} threads={}: rings changed values",
                        engine, auto, threads
                    );
                    for (t, stream) in streams.iter().enumerate() {
                        let (solo_deps, solo_vals) = run_solo(engine, auto, threads, t, stream);
                        prop_assert_eq!(
                            &piped_deps[t], &solo_deps,
                            "{:?} auto={} threads={} tenant {}: shared engine changed dependences",
                            engine, auto, threads, t
                        );
                        prop_assert_eq!(
                            &piped_vals[t], &solo_vals,
                            "{:?} auto={} threads={} tenant {}: shared engine changed values",
                            engine, auto, threads, t
                        );
                    }
                }
            }
        }
    }
}

/// A scoped fence binds exactly its own context's launches — concurrent
/// launches from another tenant float past it.
#[test]
fn scoped_fence_orders_only_its_context() {
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::RayCast)
            .pipeline(true)
            .submit_rings(3),
    );
    let (_ra, fa, ra_regions) = setup_tenant(&mut rt, 0);
    let (_rb, fb, rb_regions) = setup_tenant(&mut rt, 1);
    let mut ca = rt.new_context().unwrap();
    let mut cb = rt.new_context().unwrap();
    let mut a_handles = Vec::new();
    for i in 0..3 {
        let l = TLaunch {
            target: PIECES,
            privilege: 1,
            salt: i as u32,
        };
        a_handles.push(ca.submit(spec_of(&l, i, &ra_regions, fa)).unwrap());
    }
    for i in 0..2 {
        let l = TLaunch {
            target: PIECES,
            privilege: 1,
            salt: 9,
        };
        cb.submit(spec_of(&l, i, &rb_regions, fb)).unwrap();
    }
    let fence = ca.fence().expect("driver alive");
    let mut expect: Vec<u32> = a_handles
        .into_iter()
        .map(|h| h.resolve().unwrap().0)
        .collect();
    expect.sort_unstable();
    drop(ca);
    drop(cb);
    let dag = rt.dag();
    let mut preds: Vec<u32> = dag.preds(fence).iter().map(|t| t.0).collect();
    preds.sort_unstable();
    assert_eq!(
        preds, expect,
        "scoped fence must depend on exactly its own context's launches"
    );
}

/// Ring slots recycle: live contexts are bounded by `submit_rings - 1`,
/// exhaustion is a typed error, and dropped slots are reclaimed by later
/// tenants indefinitely.
#[test]
fn ring_slots_recycle_and_exhaustion_is_typed() {
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::Paint)
            .pipeline(true)
            .submit_rings(2),
    );
    let (_root, field, regions) = setup_tenant(&mut rt, 0);
    let c1 = rt.new_context().unwrap();
    match rt.new_context() {
        Err(RuntimeError::RingsExhausted { rings }) => assert_eq!(rings, 2),
        Ok(_) => panic!("second tenant cannot claim a ring"),
        Err(e) => panic!("expected RingsExhausted, got {e}"),
    }
    drop(c1);
    let mut total = 0u32;
    for round in 0..6u32 {
        let mut c = rt.new_context().expect("dropped slot was reclaimed");
        let l = TLaunch {
            target: PIECES,
            privilege: 1,
            salt: round,
        };
        let h = c
            .submit(spec_of(&l, round as usize, &regions, field))
            .unwrap();
        assert_eq!(h.resolve().unwrap(), TaskId(total));
        total += 1;
        drop(c);
    }
    rt.flush();
    assert_eq!(rt.num_tasks(), total as usize);
}

/// Two producers flooding 4-deep rings with serial-scan-heavy launches:
/// the dispatcher falls behind, both producers stall, and the combining
/// sweep must repeatedly drain both rings under one lock acquisition. The
/// per-ring metrics decompose the global counters exactly.
///
/// Falling behind is certain, not likely: a `dag()` read guard wedges the
/// dispatcher on the core write lock until both producers sit in a full
/// ring, so the sweep after the wedged one finds both rings full.
#[test]
fn combining_dispatcher_merges_concurrent_streams() {
    // The literal Fig 7 painter: no occlusion pruning, so every launch
    // scans the whole history.
    let mut rt = Runtime::with_engine(
        RuntimeConfig::new(EngineKind::PaintNaive)
            .nodes(2)
            .pipeline(true)
            .pipeline_depth(4)
            .submit_rings(3),
        Box::new(PaintNaive::without_pruning()),
    );
    let (root_a, field_a, _) = setup_tenant(&mut rt, 0);
    let (root_b, field_b, _) = setup_tenant(&mut rt, 1);
    let metrics = rt.pipeline_metrics().unwrap();
    const COUNT: usize = 120;
    let mut ca = rt.new_context().unwrap();
    let mut cb = rt.new_context().unwrap();
    // Submissions each producer has begun; ring `1 + p` counts those that
    // returned.
    let begun = [AtomicU64::new(0), AtomicU64::new(0)];
    let wedge = rt.dag();
    std::thread::scope(|s| {
        let producers = [(&mut ca, root_a, field_a), (&mut cb, root_b, field_b)];
        for ((ctx, root, field), begun) in producers.into_iter().zip(&begun) {
            s.spawn(move || {
                for i in 0..COUNT {
                    begun.fetch_add(1, Ordering::SeqCst);
                    // Full-root read-writes: the serial history scan grows
                    // quadratically, so the dispatcher falls behind and
                    // both rings fill.
                    ctx.submit(LaunchSpec::new(
                        format!("t{i}"),
                        0,
                        vec![RegionRequirement::read_write(root, field)],
                        0,
                        None,
                    ))
                    .unwrap();
                }
            });
        }
        // The wedged sweep popped at most a ring's worth from each ring: a
        // producer that has pushed that much and then sits 20 ms inside its
        // next submission without a push waits on a full ring.
        let pushed = |p: usize| metrics.ring(1 + p).submitted;
        loop {
            let before = [pushed(0), pushed(1)];
            std::thread::sleep(std::time::Duration::from_millis(20));
            let stuck = |p: usize| {
                let now = pushed(p);
                now >= 4 && now == before[p] && begun[p].load(Ordering::SeqCst) > now
            };
            if stuck(0) && stuck(1) {
                break;
            }
        }
        drop(wedge);
    });
    drop(ca);
    drop(cb);
    rt.flush();
    assert_eq!(metrics.submitted(), 2 * COUNT as u64);
    assert_eq!(metrics.retired(), 2 * COUNT as u64);
    assert_eq!(metrics.combined_specs(), metrics.retired());
    assert!(metrics.combines() >= 1);
    assert!(metrics.max_combine() >= 1);
    // Depth counts in-flight specs: up to `pipeline_depth` queued in the
    // ring plus up to `pipeline_depth` popped but not yet committed, per
    // ring — so 2×4 per producer, summed across the two producers.
    assert!(
        metrics.max_depth() >= 1 && metrics.max_depth() <= 16,
        "in-flight depth is bounded by rings x 2 x pipeline_depth (got {})",
        metrics.max_depth()
    );
    assert!(
        metrics.ring(1).max_depth <= 8 && metrics.ring(2).max_depth <= 8,
        "per-ring in-flight depth is bounded by 2 x pipeline_depth"
    );
    assert!(
        metrics.multi_ring_combines() >= 1,
        "two stalled producers must co-occur in at least one sweep"
    );
    let ring_submitted: u64 = (0..3).map(|i| metrics.ring(i).submitted).sum();
    assert_eq!(ring_submitted, metrics.submitted());
    assert_eq!(
        metrics.ring(1).submitted + metrics.ring(2).submitted,
        2 * COUNT as u64,
        "tenant rings carry every launch"
    );
    assert!(
        metrics.ring(1).stalls > 0 && metrics.ring(2).stalls > 0,
        "4-deep rings under serial-scan launches must stall both producers"
    );
    let ring_stalls: u64 = (0..3).map(|i| metrics.ring(i).stalls).sum();
    assert_eq!(ring_stalls, metrics.stalls());
    assert_eq!(rt.num_tasks(), 2 * COUNT);
}

//! Multi-producer submission plane: directed tests.
//!
//! That tenant contexts are *transparent* — each root's stream, submitted
//! from its own thread, gets exactly the analysis and values it gets
//! alone, over random programs — is the `producers::` axis of the
//! differential matrix (`tests/differential.rs` at the workspace root).
//! Here: scoped fences, producer-place recycling, typed exhaustion, and
//! the combining metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use viz_oracle::gen::{Forest, GenProgram, GenRegion::Root};
use viz_region::Privilege;
use viz_runtime::analysis::paint_naive::PaintNaive;
use viz_runtime::{
    EngineKind, LaunchSpec, RegionRequirement, Runtime, RuntimeConfig, RuntimeError, TaskId,
};

/// One 32-cell root per tenant, one field each, in `rt`.
fn tenants(rt: &mut Runtime, n: usize) -> Forest {
    Forest::build(&GenProgram::fixed(2, vec![32; n], 1), rt)
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
    let forest = tenants(&mut rt, 2);
    let mut ca = rt.new_context().unwrap();
    let mut cb = rt.new_context().unwrap();
    let mut a_handles = Vec::new();
    for i in 0..3 {
        let spec = forest.single(Root(0), Privilege::ReadWrite, i);
        a_handles.push(ca.submit(spec).unwrap());
    }
    for _ in 0..2 {
        cb.submit(forest.single(Root(1), Privilege::ReadWrite, 9))
            .unwrap();
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

/// Producer places recycle: live contexts are bounded by
/// `submit_rings - 1`, exhaustion is a typed error, and a dropped
/// context's place is reclaimed by later tenants indefinitely.
#[test]
fn ring_slots_recycle_and_exhaustion_is_typed() {
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::Paint)
            .pipeline(true)
            .submit_rings(2),
    );
    let forest = tenants(&mut rt, 1);
    let c1 = rt.new_context().unwrap();
    match rt.new_context() {
        Err(RuntimeError::RingsExhausted { rings }) => assert_eq!(rings, 2),
        Ok(_) => panic!("a second tenant cannot join a 2-producer plane"),
        Err(e) => panic!("expected RingsExhausted, got {e}"),
    }
    drop(c1);
    let mut total = 0u32;
    for round in 0..6u32 {
        let mut c = rt
            .new_context()
            .expect("a dropped context's place was reclaimed");
        let h = c
            .submit(forest.single(Root(0), Privilege::ReadWrite, round))
            .unwrap();
        assert_eq!(h.resolve().unwrap(), TaskId(total));
        total += 1;
        drop(c);
    }
    rt.flush();
    assert_eq!(rt.num_tasks(), total as usize);
}

/// Two producers flooding 4-deep shares of the queue with serial-scan-heavy
/// launches: the dispatcher falls behind, both producers stall, and the
/// combining sweep must repeatedly take both streams under one lock
/// acquisition. Per-producer counts decompose the global counters exactly.
///
/// Falling behind is certain, not likely: a `dag()` read guard wedges the
/// dispatcher on the core write lock until both producers sit on a full
/// share, so the sweep after the wedged one finds both shares full.
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
    let forest = tenants(&mut rt, 2);
    let (root_a, field_a) = (forest.roots[0], forest.fields[0][0]);
    let (root_b, field_b) = (forest.roots[1], forest.fields[1][0]);
    let metrics = rt.pipeline_metrics().unwrap();
    const COUNT: usize = 120;
    let mut ca = rt.new_context().unwrap();
    let mut cb = rt.new_context().unwrap();
    // Submissions each producer has begun, and those that returned.
    let begun = [AtomicU64::new(0), AtomicU64::new(0)];
    let returned = [AtomicU64::new(0), AtomicU64::new(0)];
    // Launches that were still uncommitted when a later submission of the
    // same producer returned more than 2 x pipeline_depth later.
    let overdue = [AtomicU64::new(0), AtomicU64::new(0)];
    let wedge = rt.dag();
    std::thread::scope(|s| {
        let producers = [(&mut ca, root_a, field_a), (&mut cb, root_b, field_b)];
        for (p, (ctx, root, field)) in producers.into_iter().enumerate() {
            let (begun, returned, overdue) = (&begun[p], &returned[p], &overdue[p]);
            s.spawn(move || {
                let mut handles = Vec::with_capacity(COUNT);
                for i in 0..COUNT {
                    begun.fetch_add(1, Ordering::SeqCst);
                    // Full-root read-writes: the serial history scan grows
                    // quadratically, so the dispatcher falls behind and
                    // both shares fill.
                    handles.push(
                        ctx.submit(LaunchSpec::new(
                            format!("t{i}"),
                            0,
                            vec![RegionRequirement::read_write(root, field)],
                            0,
                            None,
                        ))
                        .unwrap(),
                    );
                    returned.fetch_add(1, Ordering::SeqCst);
                    // In flight at a push: at most a full share queued plus
                    // one taken batch, so launch `i - 8` has committed.
                    if i >= 8 && handles[i - 8].try_id().is_none() {
                        overdue.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
        // The wedged sweep took at most a share from each producer: a
        // producer that has returned that much and then sits 20 ms inside
        // its next submission without returning waits on a full share.
        let done = |p: usize| returned[p].load(Ordering::SeqCst);
        loop {
            let before = [done(0), done(1)];
            std::thread::sleep(std::time::Duration::from_millis(20));
            let stuck = |p: usize| {
                let now = done(p);
                now >= 4 && now == before[p] && begun[p].load(Ordering::SeqCst) > now
            };
            if stuck(0) && stuck(1) {
                break;
            }
        }
        drop(wedge);
    });
    let tenant_tasks = ca.num_tasks() + cb.num_tasks();
    drop(ca);
    drop(cb);
    rt.flush();
    assert_eq!(metrics.submitted(), 2 * COUNT as u64);
    assert_eq!(metrics.retired(), 2 * COUNT as u64);
    assert_eq!(metrics.combined_specs(), metrics.retired());
    assert!(metrics.combines() >= 1);
    assert!(metrics.max_combine() >= 1);
    // Depth counts in-flight specs: up to `pipeline_depth` queued plus up
    // to `pipeline_depth` taken but not yet committed, per producer — so
    // 2×4 per producer, summed across the two producers.
    assert!(
        metrics.max_depth() >= 1 && metrics.max_depth() <= 16,
        "in-flight depth is bounded by producers x 2 x pipeline_depth (got {})",
        metrics.max_depth()
    );
    assert_eq!(
        [
            overdue[0].load(Ordering::SeqCst),
            overdue[1].load(Ordering::SeqCst)
        ],
        [0, 0],
        "per-producer in-flight depth is bounded by 2 x pipeline_depth"
    );
    assert!(
        metrics.multi_ring_combines() >= 1,
        "two stalled producers must co-occur in at least one sweep"
    );
    let returned: u64 = returned.iter().map(|r| r.load(Ordering::SeqCst)).sum();
    assert_eq!(returned, metrics.submitted());
    assert_eq!(
        tenant_tasks,
        2 * COUNT,
        "the tenant contexts carry every launch"
    );
    assert!(
        metrics.stalls() >= 2,
        "4-deep shares under serial-scan launches must stall both producers"
    );
    assert_eq!(rt.num_tasks(), 2 * COUNT);
}

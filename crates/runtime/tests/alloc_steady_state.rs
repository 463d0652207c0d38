//! Allocation counts at steady state, as exact numbers.
//!
//! Three families. The K-d candidate walk: the raycast backward scan used
//! to allocate per query (a traversal stack inside `DynamicBvh::query`, a
//! fresh hits vector per requirement); both live in per-shard scratch
//! (`ScanScratch` in `analysis/eqsets.rs`), and `DynamicBvh::query_with`
//! over reused buffers must make **zero** allocations once warm. And the
//! whole engine: a steady-state `RayCast` launch re-derives nothing
//! structural, so its allocation count is small, and identical from one
//! iteration to the next. And the commit path's DAG: `TaskDag::push`
//! stores the dependence vector it is handed and derives nothing that
//! needs memory of its own, so it allocates only when a column grows.
//!
//! The counter is per thread: the test harness runs the tests of this
//! binary on parallel threads, and a process-wide counter charged each
//! test with the others' allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use viz_apps::{Pennant, PennantConfig, Stencil, StencilConfig, Workload};
use viz_geometry::{DynamicBvh, Rect};
use viz_runtime::engine::AnalysisCtx;
use viz_runtime::{EngineKind, Runtime, RuntimeConfig, ShardMap, TaskDag, TaskId};
use viz_sim::Machine;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it never
    // allocates and never runs lazy initialisation, so the allocator cannot
    // re-enter itself through it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may free memory after its
    // thread-locals are gone; those calls are nobody's steady state.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a new allocation for steady-state purposes.
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn fixture(leaves: u64) -> (DynamicBvh, Vec<Rect>) {
    let mut tree = DynamicBvh::new();
    for i in 0..leaves {
        let x = (i as i64 * 13) % 509;
        let y = (i as i64 * 7) % 143;
        tree.insert(i, Rect::xy(x, x + 8, y, y + 5));
    }
    // 24 requirements, two rects each — a realistic shard batch.
    let mut queries = Vec::new();
    for k in 0..24i64 {
        queries.push(Rect::xy(k * 19, k * 19 + 60, 0, 80));
        queries.push(Rect::xy(k * 23, k * 23 + 30, 40, 150));
    }
    (tree, queries)
}

/// Walk `rounds` full batches the way the raycast K-d arm does — one
/// `query_with` per rect of a requirement, then sort + dedup — reusing the
/// traversal stack and the hit buffer; return allocations observed.
fn run_rounds(
    tree: &DynamicBvh,
    queries: &[Rect],
    stack: &mut Vec<u32>,
    hits: &mut Vec<u64>,
    rounds: usize,
) -> u64 {
    let before = allocs();
    for _ in 0..rounds {
        let mut total = 0usize;
        for req in queries.chunks(2) {
            hits.clear();
            for r in req {
                tree.query_with(r, stack, hits);
            }
            // Consume like the scan does, so the work cannot be elided.
            hits.sort_unstable();
            hits.dedup();
            total += hits.len();
        }
        assert!(total > 0, "fixture produced no hits at all");
    }
    allocs() - before
}

#[test]
fn kd_walk_steady_state_allocates_nothing() {
    let (tree, queries) = fixture(256);
    let (mut stack, mut hits) = (Vec::new(), Vec::new());
    // Warm-up grows the traversal stack and the hit buffer.
    run_rounds(&tree, &queries, &mut stack, &mut hits, 2);
    let steady = run_rounds(&tree, &queries, &mut stack, &mut hits, 20);
    assert_eq!(steady, 0, "the K-d walk allocated {steady} times warm");
}

/// Allocations of the bare RayCast engine (`analyze` over the launch stream
/// `app` submits) in each top-level iteration, with that iteration's launch
/// count. Iteration 0 includes the app's set-up launches.
fn engine_allocs_per_iteration(app: &dyn Workload, nodes: usize) -> Vec<(u64, usize)> {
    let mut rt = Runtime::new(RuntimeConfig::base(EngineKind::RayCast).nodes(nodes));
    let run = app.execute(&mut rt);
    rt.flush();
    let forest = rt.forest().clone();
    let launches = rt.launches().to_vec();
    drop(rt);

    let mut engine = EngineKind::RayCast.build();
    let mut machine = Machine::new(nodes);
    let mut shards = ShardMap::new(nodes, false);
    let mut per_iteration = Vec::with_capacity(run.iter_end.len());
    let mut start = 0usize;
    for end in &run.iter_end {
        let end = end.index() + 1;
        let before = allocs();
        for launch in &launches[start..end] {
            for req in &launch.reqs {
                shards.touch(req.region, launch.node, launch.id.0);
            }
            let result = engine.analyze(
                launch,
                &mut AnalysisCtx {
                    forest: &forest,
                    machine: &mut machine,
                    shards: &shards,
                },
            );
            std::hint::black_box(result);
        }
        per_iteration.push((allocs() - before, end - start));
        start = end;
    }
    per_iteration
}

/// Iterations 3–5 (after two warm-up iterations) stay inside the budget,
/// and the last two cost exactly the same: steady state does not creep.
fn assert_engine_budget(name: &str, per_iteration: &[(u64, usize)]) {
    assert_eq!(per_iteration.len(), 5, "{name}: five iterations");
    // The budget is the optimized engine's: under `debug_assertions` every
    // placement re-queries the anchor BVH to check the memo, and that
    // query allocates. (The equality below holds in both builds.)
    if !cfg!(debug_assertions) {
        for (i, (allocs, launches)) in per_iteration.iter().enumerate().skip(2) {
            let per_launch = *allocs as f64 / *launches as f64;
            assert!(
                per_launch <= ENGINE_ALLOCS_PER_LAUNCH,
                "{name}: iteration {} allocated {per_launch:.1} times per launch \
                 ({allocs} over {launches} launches), budget {ENGINE_ALLOCS_PER_LAUNCH}",
                i + 1
            );
        }
    }
    assert_eq!(
        per_iteration[3], per_iteration[4],
        "{name}: iteration 5 allocated differently from iteration 4"
    );
}

/// The steady-state allocation budget of one RayCast launch (`analyze`:
/// `prepare` + `analyze_shard` + charge replay + result assembly). The
/// count is deterministic, so this cannot flake with host load: 36.4 on
/// the stencil and 41.1 on pennant, with nothing sweeping the engine
/// between iterations — killed sets' slots and history buffers are reused.
const ENGINE_ALLOCS_PER_LAUNCH: f64 = 43.0;

#[test]
fn raycast_stencil_steady_launch_stays_inside_the_allocation_budget() {
    let app = Stencil::new(StencilConfig {
        pieces: 64,
        iterations: 5,
        ..StencilConfig::paper(64)
    });
    assert_engine_budget("stencil", &engine_allocs_per_iteration(&app, 64));
}

#[test]
fn raycast_pennant_steady_launch_stays_inside_the_allocation_budget() {
    let app = Pennant::new(PennantConfig {
        iterations: 5,
        ..PennantConfig::paper(16)
    });
    assert_engine_budget("pennant", &engine_allocs_per_iteration(&app, 16));
}

#[test]
fn dag_push_allocates_only_column_growth() {
    // A two-predecessor lattice, built before counting starts.
    const N: u32 = 20_000;
    let deps: Vec<Vec<TaskId>> = (0..N)
        .map(|i| (i.saturating_sub(2)..i).map(TaskId).collect())
        .collect();
    let mut dag = TaskDag::new();
    let before = allocs();
    for d in deps {
        dag.push(d);
    }
    let pushed = allocs() - before;
    // Three columns (`preds`, `depth`, `min_anc`), each doubling at most 16
    // times on the way to 20 000 entries: none per launch.
    assert!(
        pushed <= 3 * 16,
        "{N} pushes allocated {pushed} times; only amortised column growth is allowed"
    );
    assert_eq!(dag.len(), N as usize);
}

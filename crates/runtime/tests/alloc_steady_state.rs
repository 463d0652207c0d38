//! Allocation counts at steady state, as exact numbers.
//!
//! Four families. The K-d candidate walk: the raycast backward scan used
//! to allocate per query (a traversal stack inside `DynamicBvh::query`, a
//! fresh hits vector per requirement); both live in per-shard scratch
//! (`ScanScratch` in `analysis/eqsets.rs`), and `DynamicBvh::query_with`
//! over reused buffers must make **zero** allocations once warm. And the
//! whole engine: a steady-state `RayCast` launch re-derives nothing
//! structural, so its allocation count is small, and identical from one
//! iteration to the next. And the commit path's DAG: `TaskDag::push`
//! copies the dependences it is handed into its own chunked column and
//! derives nothing (its tags are derived when a query asks), so it
//! allocates only when a column grows. And the auto-tracer's repeat detector, which sees every
//! untraced launch: once its buffers have grown, observing a launch
//! allocates nothing. And the replayed launch, a runtime's steady state:
//! submitted through `Runtime::submit_batch`, it is validated, matched
//! against its template and committed through the instance's shift without
//! allocating, so a replayed iteration allocates per batch, not per launch.
//! Beside the counts, the bytes a drained runtime holds per committed
//! launch: a stored result is rows in chunked columns, not vectors of its
//! own.
//!
//! The counter is per thread: the test harness runs the tests of this
//! binary on parallel threads, and a process-wide counter charged each
//! test with the others' allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use viz_apps::{Pennant, PennantConfig, Stencil, StencilConfig, Workload};
use viz_geometry::{DynamicBvh, Rect};
use viz_region::{FieldId, RegionForest, RegionId};
use viz_runtime::autotrace::AutoTracer;
use viz_runtime::engine::AnalysisCtx;
use viz_runtime::{
    EngineKind, LaunchSpec, RegionRequirement, Runtime, RuntimeConfig, ShardMap, TaskDag, TaskId,
    TaskLaunch,
};
use viz_sim::Machine;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it never
    // allocates and never runs lazy initialisation, so the allocator cannot
    // re-enter itself through it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may free memory after its
    // thread-locals are gone; those calls are nobody's steady state.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn track(bytes: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        track(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a new allocation for steady-state purposes.
        count_one();
        track(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has allocated and not freed.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
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

/// Run `app` on a runtime built from `config` and return what feeding its
/// launch stream again needs: the finished region forest, the launches, and
/// the last launch of each top-level iteration.
fn capture(
    app: &dyn Workload,
    config: RuntimeConfig,
) -> (RegionForest, Vec<TaskLaunch>, Vec<TaskId>) {
    let mut rt = Runtime::new(config);
    let run = app.execute(&mut rt);
    rt.flush();
    let forest = rt.forest().clone();
    let launches = rt.launches().to_vec();
    (forest, launches, run.iter_end)
}

/// Allocations of the bare RayCast engine (`analyze` over the launch stream
/// `app` submits) in each top-level iteration, with that iteration's launch
/// count. Iteration 0 includes the app's set-up launches.
fn engine_allocs_per_iteration(app: &dyn Workload, nodes: usize) -> Vec<(u64, usize)> {
    let (forest, launches, iter_end) =
        capture(app, RuntimeConfig::base(EngineKind::RayCast).nodes(nodes));

    let mut engine = EngineKind::RayCast.build();
    let mut machine = Machine::new(nodes);
    let mut shards = ShardMap::new(nodes, false);
    let mut per_iteration = Vec::with_capacity(iter_end.len());
    let mut start = 0usize;
    for end in &iter_end {
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

/// The cold allocation budget of one RayCast launch over 64-piece
/// stencil's first iteration (192 launches, the app's set-up included),
/// where every refinement and plan fold meets its operands for the first
/// time. The 2-D split and fold misses run one kernel in buffers the
/// algebra keeps and intern straight from them, so they allocate only for
/// the spaces they add: 48.3 per launch, 108.6 when every step of those
/// loops built and froze a space of its own and the interner kept a
/// bucket per space. Deterministic, like the steady budget.
const STENCIL_COLD_ALLOCS_PER_LAUNCH: f64 = 50.0;

#[test]
fn raycast_stencil_cold_iteration_stays_inside_the_allocation_budget() {
    let app = Stencil::new(StencilConfig {
        pieces: 64,
        iterations: 5,
        ..StencilConfig::paper(64)
    });
    let (allocs, launches) = engine_allocs_per_iteration(&app, 64)[0];
    let per_launch = allocs as f64 / launches as f64;
    // As for the steady budget, debug builds allocate for their checks.
    if !cfg!(debug_assertions) {
        assert!(
            per_launch <= STENCIL_COLD_ALLOCS_PER_LAUNCH,
            "stencil: iteration 1 allocated {per_launch:.1} times per launch \
             ({allocs} over {launches} launches), budget {STENCIL_COLD_ALLOCS_PER_LAUNCH}"
        );
    }
}

#[test]
fn raycast_pennant_steady_launch_stays_inside_the_allocation_budget() {
    let app = Pennant::new(PennantConfig {
        iterations: 5,
        ..PennantConfig::paper(16)
    });
    assert_engine_budget("pennant", &engine_allocs_per_iteration(&app, 16));
}

/// What 20 000 two-predecessor pushes may allocate: none per launch, only
/// column growth. A push writes one rows column (a `Loc` per task; the
/// `(depth, min_anc)` tags are derived when a query asks), doubling at most
/// 16 times on the way to 20 000 rows, and the chunked edge column, whose
/// 40 000 edges fill 3 chunks and whose chunk list allocates once. Measured
/// 18 (14 doublings, 4 for the edges).
const DAG_PUSH_GROWTH: u64 = 16 + 4;

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
    assert!(
        pushed <= DAG_PUSH_GROWTH,
        "{N} pushes allocated {pushed} times; only amortised column growth is allowed"
    );
    assert_eq!(dag.len(), N as usize);
}

#[test]
fn dag_push_slice_allocates_only_column_growth() {
    const N: u32 = 20_000;
    let deps: Vec<Vec<TaskId>> = (0..N)
        .map(|i| (i.saturating_sub(2)..i).map(TaskId).collect())
        .collect();
    let mut dag = TaskDag::new();
    let before = allocs();
    for d in &deps {
        dag.push_slice(d);
    }
    let pushed = allocs() - before;
    assert!(
        pushed <= DAG_PUSH_GROWTH,
        "{N} pushes allocated {pushed} times; only amortised column growth is allowed"
    );
    assert_eq!(dag.len(), N as usize);
    assert_eq!(dag.preds(TaskId(N - 1)), &deps[N as usize - 1][..]);
}

/// A square-free word over three letters (no block occurs twice in a row,
/// so no period ever repeats): the runs of 1s between consecutive 0s of
/// the Thue–Morse sequence.
fn square_free(n: usize) -> Vec<usize> {
    let mut word = Vec::with_capacity(n);
    let mut ones = 0;
    for k in 1u32.. {
        if word.len() == n {
            return word;
        }
        if k.count_ones() % 2 == 1 {
            ones += 1;
        } else {
            word.push(ones);
            ones = 0;
        }
    }
    unreachable!()
}

/// Feed `letters` (each the node of one launch with `reqs`) to the
/// detector, resetting it after each promotion as the runtime's demotions
/// and fences do; return the allocations the calls that promoted nothing
/// made, and the allocations and periods of the promotions.
fn observe_all(
    t: &mut AutoTracer,
    letters: &[usize],
    reqs: &[RegionRequirement],
) -> (u64, Vec<(u64, usize)>) {
    let (mut quiet, mut promotions) = (0, Vec::new());
    for &node in letters {
        let before = allocs();
        let promoted = t.observe(node, reqs);
        let made = allocs() - before;
        match promoted {
            Some(len) => {
                promotions.push((made, len as usize));
                t.reset();
            }
            None => quiet += made,
        }
    }
    (quiet, promotions)
}

#[test]
fn warm_detector_observes_without_allocating() {
    let reqs = [
        RegionRequirement::read_write(RegionId(1), FieldId(0)),
        RegionRequirement::read(RegionId(2), FieldId(0)),
    ];
    // A promotion replaces the runtime's detector with a fresh one, which
    // allocates nothing until it observes.
    let before = allocs();
    let mut t = AutoTracer::new();
    assert_eq!(allocs() - before, 0, "a fresh detector allocated");

    // Aperiodic: nothing is ever promoted. The first 40 000 launches fill
    // the window (2 · 8 192) and slide it; the next 20 000 allocate nothing.
    let word = square_free(60_000);
    let (_, promoted) = observe_all(&mut t, &word[..40_000], &reqs);
    assert!(promoted.is_empty(), "a square-free stream has no period");
    let (quiet, promoted) = observe_all(&mut t, &word[40_000..], &reqs);
    assert!(promoted.is_empty());
    assert_eq!(
        quiet, 0,
        "observing an aperiodic stream allocated {quiet} times warm"
    );

    // Periodic, after a reset (a demotion or fence; buffers keep their
    // capacity): a period of 7 is promoted after two instances. Warm,
    // observing allocates nothing, and neither does a promotion: it hands
    // over the period, and the template is read off the committed rows.
    let period: Vec<usize> = (0..7).collect();
    let stream: Vec<usize> = period.iter().cycle().take(7 * 40).copied().collect();
    t.reset();
    observe_all(&mut t, &stream[..14], &reqs);
    let (quiet, promoted) = observe_all(&mut t, &stream[14..], &reqs);
    assert_eq!(promoted, vec![(0, 7); 19]);
    assert_eq!(
        quiet, 0,
        "observing a periodic stream allocated {quiet} times warm"
    );
}

/// Bytes a synchronous RayCast runtime holds per committed launch once it
/// has drained `app`'s whole launch stream, fed through
/// `Runtime::submit_batch` one top-level iteration at a time onto the
/// app's finished region forest. Everything the runtime keeps counts:
/// engine state, the commit ledger, the DAG. Deterministic: the sizes of
/// every allocation are a function of the stream alone. Untraced: the
/// budget is an analyzed launch's (a replayed one stores a shared template
/// result and holds less).
fn held_bytes_per_launch(app: &dyn Workload, nodes: usize) -> f64 {
    let config = RuntimeConfig::base(EngineKind::RayCast)
        .nodes(nodes)
        .auto_trace(false);
    let (forest, launches, iter_end) = capture(app, config.clone());
    let mut batches = Vec::with_capacity(iter_end.len());
    let mut start = 0usize;
    for end in &iter_end {
        let end = end.index() + 1;
        let batch: Vec<LaunchSpec> = launches[start..end]
            .iter()
            .map(|l| LaunchSpec::new(l.name.clone(), l.node, l.reqs.clone(), l.duration_ns, None))
            .collect();
        batches.push(batch);
        start = end;
    }

    let mut rt = Runtime::new(config);
    *rt.forest_mut() = forest;
    let before = live_bytes();
    for batch in batches {
        rt.submit_batch(batch).expect("captured launches are valid");
    }
    rt.flush();
    let held = live_bytes() - before;
    assert_eq!(rt.num_tasks(), launches.len());
    held as f64 / launches.len() as f64
}

/// What a drained runtime may hold per committed launch, in bytes, over
/// 50 iterations (6 464 stencil and 3 266 pennant launches): 425.43 and
/// 408.11 measured, 598.3 and 618.5 when every stored result was four or
/// five vectors of its own and the DAG kept a second copy of its
/// dependences. Every launch here is analyzed and stored in the runs; a
/// traced run's verify rows are stored the same way, so only its replayed
/// rows (a template `Arc` and a shift) hold less. A shorter stream
/// measures the columns' first 64 KiB chunks more than the launches in
/// them.
const STENCIL_HELD_BYTES_PER_LAUNCH: f64 = 450.0;
const PENNANT_HELD_BYTES_PER_LAUNCH: f64 = 425.0;

#[test]
fn drained_stencil_holds_inside_the_byte_budget() {
    let app = Stencil::new(StencilConfig {
        pieces: 64,
        iterations: 50,
        ..StencilConfig::paper(64)
    });
    let held = held_bytes_per_launch(&app, 64);
    assert!(
        held <= STENCIL_HELD_BYTES_PER_LAUNCH,
        "stencil: {held:.1} bytes held per launch, budget {STENCIL_HELD_BYTES_PER_LAUNCH}"
    );
}

#[test]
fn drained_pennant_holds_inside_the_byte_budget() {
    let app = Pennant::new(PennantConfig {
        iterations: 50,
        ..PennantConfig::paper(16)
    });
    let held = held_bytes_per_launch(&app, 16);
    assert!(
        held <= PENNANT_HELD_BYTES_PER_LAUNCH,
        "pennant: {held:.1} bytes held per launch, budget {PENNANT_HELD_BYTES_PER_LAUNCH}"
    );
}

/// `app`'s launch stream as the benchmark harness submits it: per top-level
/// iteration, its waves (maximal runs of consecutive launches with one
/// name), each one `submit_batch` call; iteration 0 also carries the
/// set-up launches. Returns the app's finished forest beside them.
fn waves_per_iteration(
    app: &dyn Workload,
    nodes: usize,
) -> (RegionForest, Vec<Vec<Vec<LaunchSpec>>>) {
    let (forest, launches, iter_end) =
        capture(app, RuntimeConfig::base(EngineKind::RayCast).nodes(nodes));
    let mut iterations = Vec::with_capacity(iter_end.len());
    let mut start = 0usize;
    for end in &iter_end {
        let end = end.index() + 1;
        let mut waves: Vec<Vec<LaunchSpec>> = Vec::new();
        for (k, l) in launches[start..end].iter().enumerate() {
            if k == 0 || launches[start + k - 1].name != l.name {
                waves.push(Vec::new());
            }
            let spec = LaunchSpec::new(l.name.clone(), l.node, l.reqs.clone(), l.duration_ns, None);
            waves.last_mut().expect("pushed above").push(spec);
        }
        iterations.push(waves);
        start = end;
    }
    (forest, iterations)
}

/// Allocations, `submit_batch` calls and launches of every iteration from
/// the first one a synchronous runtime (the defaults: auto-tracing on)
/// starts while replaying, each counted over its `submit_batch` calls only
/// (the specs are built before) and each checked to be replayed whole.
fn replayed_iteration_allocs(app: &dyn Workload, nodes: usize) -> Vec<(u64, u64, u64)> {
    let (forest, iterations) = waves_per_iteration(app, nodes);
    let mut rt = Runtime::new(RuntimeConfig::base(EngineKind::RayCast).nodes(nodes));
    *rt.forest_mut() = forest;
    let mut counts = Vec::new();
    for waves in iterations {
        let measured = !counts.is_empty() || rt.is_replaying();
        let replayed = rt.replayed_launches();
        let (batches, launches) = (
            waves.len() as u64,
            waves.iter().map(Vec::len).sum::<usize>() as u64,
        );
        let before = allocs();
        for wave in waves {
            rt.submit_batch(wave).expect("captured launches are valid");
        }
        let made = allocs() - before;
        if measured {
            assert_eq!(
                rt.replayed_launches() - replayed,
                launches,
                "an iteration after replay began was not replayed whole"
            );
            counts.push((made, batches, launches));
        }
    }
    assert!(
        counts.len() >= 2,
        "the runtime replayed fewer than two iterations"
    );
    counts
}

/// What one `submit_batch` call of replayed launches may allocate: the
/// returned handles (a replayed launch itself allocates nothing, and the
/// committed ids go straight into the context's own list).
const REPLAY_ALLOCS_PER_BATCH: u64 = 1;

/// Column growth an iteration may add, whatever its length. After three
/// iterations an iteration is shorter than the history before it, so each
/// per-launch column a replayed commit appends to doubles at most once:
/// the ledger's launches, bodies, completion times and result rows, the
/// DAG's rows and the context's ids (6). The DAG's chunked edge column adds
/// at most one chunk and grows its chunk list once (2). The trace's rebase
/// list is rewritten in place as instances roll, so only its first entry
/// allocates. Measured over the five replayed iterations: pennant 11, 6,
/// 5, 5, 11 allocations (5 calls each), stencil 8, 3, 2, 2, 8 (2 calls
/// each); one more per call (16, 11, 10, 10, 16 and 10, 5, 4, 4, 10) when
/// each call collected its committed ids into a throwaway list first, 12
/// and 6 a steady iteration when each rolled instance rebuilt the rebase
/// list into two fresh vectors, and the first was 483 and 394 (7.4 and 3.1
/// per launch) when validation listed a tree's fields per requirement and
/// a replayed commit built its shifted dependences.
const REPLAY_COLUMN_GROWTH: u64 = 8;

fn assert_replay_budget(name: &str, iterations: &[(u64, u64, u64)]) {
    for &(made, batches, launches) in iterations {
        let budget = REPLAY_ALLOCS_PER_BATCH * batches + REPLAY_COLUMN_GROWTH;
        assert!(
            made <= budget,
            "{name}: a replayed iteration of {launches} launches in {batches} batches \
             allocated {made} times ({:.2} per launch), budget {budget}",
            made as f64 / launches as f64
        );
    }
}

#[test]
fn replayed_pennant_iteration_allocates_per_batch_not_per_launch() {
    let app = Pennant::new(PennantConfig {
        iterations: 8,
        ..PennantConfig::paper(16)
    });
    assert_replay_budget("pennant", &replayed_iteration_allocs(&app, 16));
}

#[test]
fn replayed_stencil_iteration_allocates_per_batch_not_per_launch() {
    let app = Stencil::new(StencilConfig {
        pieces: 64,
        iterations: 8,
        ..StencilConfig::paper(64)
    });
    assert_replay_budget("stencil", &replayed_iteration_allocs(&app, 64));
}

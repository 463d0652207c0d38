//! The bare-layer passes: each layer driven from outside, through its
//! public functions, over the captured launch stream. They give the
//! per-layer metrics; none of them runs inside a measured rep.
//!
//! Steady-state figures are taken over the launches after iteration 0 and
//! are free of span recording: the harness only records per-launch spans
//! during the initialization phase, which bounds the trace file. Every
//! time is at the reference clock ([`crate::clock`]), so the layers' costs
//! can be subtracted from one another although they ran at different
//! moments.

use crate::capture::{digest, Capture};
use crate::clock::RefClock;
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::workloads::Rng;
use std::hint::black_box;
use std::time::Instant;
use viz_geometry::{DynamicBvh, FlatBvh, FxHashSet, Rect, SpaceAlgebra};
use viz_runtime::engine::{AnalysisCtx, ShardCtx};
use viz_runtime::{
    AnalysisResult, CoherenceEngine, EngineKind, ShardMap, TaskDag, TaskId, TaskLaunch,
};
use viz_sim::Machine;

/// Launches between collection sweeps in the GC pass, and how many stay
/// addressable below the frontier at each sweep.
const GC_INTERVAL: usize = 1024;
const GC_RETAIN: u32 = 256;
/// Painter's algorithm costs about a millisecond per launch at 1024
/// pieces; it only sees a prefix of the stream.
pub const PAINT_PREFIX: usize = 2048;
/// Launches timed as one piece by the passes over the whole stream: a few
/// milliseconds, short against a phase of the host's clock.
const PIECE: usize = 256;

/// A bare engine with the context the runtime would hand it.
struct Bare {
    engine: Box<dyn CoherenceEngine>,
    machine: Machine,
    shards: ShardMap,
}

impl Bare {
    fn new(kind: EngineKind, nodes: usize) -> Self {
        Bare {
            engine: kind.build(),
            machine: Machine::new(nodes),
            shards: ShardMap::new(nodes, false),
        }
    }

    fn touch(&mut self, launch: &TaskLaunch) {
        for req in &launch.reqs {
            self.shards.touch(req.region, launch.node, launch.id.0);
        }
    }

    fn analyze(&mut self, cap: &Capture, launch: &TaskLaunch) -> AnalysisResult {
        self.touch(launch);
        self.engine.analyze(
            launch,
            &mut AnalysisCtx {
                forest: &cap.forest,
                machine: &mut self.machine,
                shards: &self.shards,
            },
        )
    }
}

/// `region`: what the forest answers per requirement on the submit path.
pub fn region_layer(cap: &Capture, m: &mut Metrics) {
    m.set("region.regions", cap.forest.num_regions() as f64);
    let reqs: usize = cap.launches.iter().map(|l| l.reqs.len()).sum();
    let ((), ns) = RefClock::new().time(|| {
        let mut acc = 0u64;
        for l in &cap.launches {
            for r in &l.reqs {
                acc = acc
                    .wrapping_add(cap.forest.domain(r.region).rects().len() as u64)
                    .wrapping_add(cap.forest.root_of(r.region).0 as u64);
            }
        }
        black_box(acc);
    });
    m.set("region.lookup_ns_per_req", ns / reqs.max(1) as f64);
}

/// One serial pass of the bare engine over the whole stream.
pub struct EnginePass {
    /// Reference ns of each piece of [`PIECE`] launches of the
    /// initialization phase and of the steady state, in stream order.
    pub init_pieces_ns: Vec<f64>,
    pub steady_pieces_ns: Vec<f64>,
    /// The bare engine reproduced the captured `(deps, plans)` digest.
    pub reproduced: bool,
}

/// `engine`, serial entry point: `analyze` over the whole stream, timed
/// piece by piece. The exact counts it ends with go straight into `m`; the
/// timings are returned, because the caller interleaves several passes
/// with the runtime reps and takes each piece from the pass that ran it
/// fastest.
pub fn engine_pass(cap: &Capture, m: &mut Metrics) -> EnginePass {
    let mut bare = Bare::new(crate::workloads::ENGINE, cap.nodes);
    let init = cap.init_launches();
    let mut results = Vec::with_capacity(cap.launches.len());
    let mut clock = RefClock::new();
    let mut block = |launches: &[TaskLaunch]| -> Vec<f64> {
        launches
            .chunks(PIECE)
            .map(|piece| {
                clock
                    .time(|| results.extend(piece.iter().map(|l| bare.analyze(cap, l))))
                    .1
            })
            .collect()
    };
    let init_pieces_ns = block(&cap.launches[..init]);
    let steady_pieces_ns = block(&cap.launches[init..]);

    let n = cap.launches.len() as f64;
    let s = bare.engine.state_size();
    m.set("engine.sets_swept_per_launch", s.sets_swept as f64 / n);
    m.set(
        "engine.candidates_per_launch",
        s.candidates_visited as f64 / n,
    );
    m.set("engine.equivalence_sets", s.equivalence_sets as f64);
    m.set("engine.history_entries", s.history_entries as f64);
    m.set("engine.index_nodes", s.index_nodes as f64);
    m.set("engine.memo_entries", s.memo_entries as f64);
    let deps: usize = results.iter().map(|r| r.deps.len()).sum();
    m.set("engine.deps_per_launch", deps as f64 / n);
    let lookups = s.algebra_hits + s.algebra_misses;
    m.set(
        "geometry.engine_algebra_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            s.algebra_hits as f64 / lookups as f64
        },
    );
    m.set("geometry.interned_spaces", s.interned_spaces as f64);
    EnginePass {
        init_pieces_ns,
        steady_pieces_ns,
        reproduced: digest(&results) == cap.digest,
    }
}

/// `engine`, sharded entry points: `prepare` on the driver, then
/// `analyze_shard` per `(root, field)` group, each call timed.
pub fn engine_split_pass(cap: &Capture, tracer: &mut Tracer, m: &mut Metrics) {
    tracer.pass("engine.prepare + engine.analyze_shard");
    let mut bare = Bare::new(crate::workloads::ENGINE, cap.nodes);
    let traced = cap.init_launches();
    let mut clock = RefClock::new();
    let (mut prepare_ns, mut shard_ns) = (0.0, 0.0);
    for (i, l) in cap.launches.iter().enumerate() {
        bare.touch(l);
        let ctx = ShardCtx {
            forest: &cap.forest,
            shards: &bare.shards,
        };
        let spans = (i < traced).then(|| {
            let launch = tracer.begin(format!("launch[{}]", l.id.0), Some(l.id.0));
            (launch, tracer.begin("engine.prepare", Some(l.id.0)))
        });
        let (groups, ns) = clock.time(|| bare.engine.prepare(l, &ctx));
        prepare_ns += ns;
        let launch_span = spans.map(|(launch, prepare)| {
            tracer.end(prepare);
            launch
        });
        for (key, reqs) in &groups {
            let span = launch_span.is_some().then(|| {
                tracer.begin(
                    format!("engine.analyze_shard[{}.{}]", key.0 .0, key.1 .0),
                    Some(l.id.0),
                )
            });
            shard_ns += clock
                .time(|| black_box(bare.engine.analyze_shard(*key, l, reqs, &ctx)))
                .1;
            if let Some(span) = span {
                tracer.end(span);
            }
        }
        if let Some(launch) = launch_span {
            tracer.end(launch);
        }
    }
    let n = cap.launches.len() as f64;
    m.set("engine.prepare_ns_per_launch", prepare_ns / n);
    m.set("engine.analyze_shard_ns_per_launch", shard_ns / n);
}

/// Another engine over a prefix of the same stream: ns per launch and the
/// equivalence sets it ends with.
pub fn cross_engine(cap: &Capture, kind: EngineKind, prefix: usize) -> (f64, usize) {
    let mut bare = Bare::new(kind, cap.nodes);
    let launches = &cap.launches[..prefix.min(cap.launches.len())];
    let mut clock = RefClock::new();
    for piece in launches.chunks(PIECE) {
        clock.time(|| {
            for l in piece {
                black_box(bare.analyze(cap, l));
            }
        });
    }
    (
        clock.total_ref_ns() / launches.len() as f64,
        bare.engine.state_size().equivalence_sets,
    )
}

/// `gc`: a second bare-engine pass that sweeps every [`GC_INTERVAL`]
/// launches, as the runtime would with history GC on (it is off by
/// default, so this predicts rather than explains the end-to-end run).
pub fn gc_pass(cap: &Capture, tracer: &mut Tracer, m: &mut Metrics) -> bool {
    tracer.pass("gc");
    let mut bare = Bare::new(crate::workloads::ENGINE, cap.nodes);
    let mut dag = TaskDag::new();
    let mut results = Vec::with_capacity(cap.launches.len());
    let mut clock = RefClock::new();
    let (mut analyze_ns, mut collect_ns, mut retire_ns) = (0.0, 0.0, 0.0);
    let (mut sweeps, mut dropped) = (0usize, 0usize);
    for chunk in cap.launches.chunks(GC_INTERVAL) {
        for piece in chunk.chunks(PIECE) {
            analyze_ns += clock
                .time(|| results.extend(piece.iter().map(|l| bare.analyze(cap, l))))
                .1;
        }
        for r in &results[results.len() - chunk.len()..] {
            dag.push(r.deps.clone());
        }
        let floor = TaskId((results.len() as u32).saturating_sub(GC_RETAIN));
        let span = tracer.begin("gc.collect", Some(floor.0));
        let (sweep, ns) = clock.time(|| bare.engine.collect(floor));
        collect_ns += ns;
        tracer.end(span);
        retire_ns += clock.time(|| black_box(dag.retire_to(floor))).1;
        sweeps += 1;
        dropped += sweep.total();
    }
    m.set(
        "gc.analyze_ns_per_launch_with_gc",
        analyze_ns / cap.launches.len() as f64,
    );
    m.set("gc.collect_us_per_sweep", collect_ns / 1e3 / sweeps as f64);
    m.set("gc.dropped_per_sweep", dropped as f64 / sweeps as f64);
    m.set(
        "gc.dag_retire_us_per_sweep",
        retire_ns / 1e3 / sweeps as f64,
    );
    m.set("gc.tag_words_after", dag.tag_words() as f64);
    // Collection must be invisible to the analysis.
    digest(&results) == cap.digest
}

/// `dag`: a bare `TaskDag` fed the captured dependences.
pub fn dag_pass(cap: &Capture, seed: u64, tracer: &mut Tracer, m: &mut Metrics) {
    tracer.pass("dag");
    let mut dag = TaskDag::new();
    let init = cap.init_launches();
    let mut deps = cap.deps.clone().into_iter();
    for (i, d) in deps.by_ref().take(init).enumerate() {
        let span = tracer.begin("dag.push", Some(i as u32));
        dag.push(d);
        tracer.end(span);
    }
    let mut clock = RefClock::new();
    let ((), push_ns) = clock.time(|| {
        for d in deps {
            dag.push(d);
        }
    });
    m.set(
        "dag.push_ns_per_launch",
        push_ns / cap.steady_launches().max(1) as f64,
    );
    m.set("dag.tag_words", dag.tag_words() as f64);
    m.set(
        "dag.edges_per_launch",
        dag.edge_count() as f64 / cap.launches.len() as f64,
    );

    // Seeded precedence queries, half of them inside the tag window (one
    // word lookup), half anywhere below (may take the predecessor walk).
    // A walk over a long stream is slow, so the sample is also bounded in
    // time; pairs are independent, so the mean stays comparable.
    const PAIRS: usize = 20_000;
    const BUDGET_MS: u128 = 400;
    let n = cap.launches.len() as u64;
    let mut rng = Rng::new(seed ^ 0xda6);
    let pairs: Vec<(TaskId, TaskId)> = (0..PAIRS)
        .map(|k| {
            let t = 1 + rng.below(n - 1);
            let span = if k % 2 == 0 {
                t.min(viz_runtime::dag::DEFAULT_TAG_WINDOW as u64)
            } else {
                t
            };
            (TaskId(t as u32), TaskId((t - 1 - rng.below(span)) as u32))
        })
        .collect();
    let t = Instant::now();
    let mut answered = 0usize;
    let mut ordered = 0usize;
    let mut follow_ns = 0.0;
    for chunk in pairs.chunks(64) {
        follow_ns += clock
            .time(|| {
                for (later, earlier) in chunk {
                    ordered += dag.must_follow(*later, *earlier) as usize;
                }
            })
            .1;
        answered += chunk.len();
        if t.elapsed().as_millis() > BUDGET_MS {
            break;
        }
    }
    m.set("dag.must_follow_ns", follow_ns / answered as f64);
    m.note(
        "dag.must_follow_ns",
        format!("{answered} seeded pairs, {ordered} ordered"),
    );
}

/// `geometry`: the requirement domains of the stream replayed into the
/// spatial indexes and the memoized set algebra.
pub fn geometry_pass(cap: &Capture, seed: u64, m: &mut Metrics) {
    const MAX_DOMAINS: usize = 4096;
    const MAX_HITS_PER_QUERY: usize = 16;
    let mut seen = FxHashSet::default();
    let mut regions = Vec::new();
    'collect: for l in &cap.launches {
        for r in &l.reqs {
            if seen.insert(r.region) {
                regions.push(r.region);
                if regions.len() == MAX_DOMAINS {
                    break 'collect;
                }
            }
        }
    }
    let boxes: Vec<Rect> = regions
        .iter()
        .map(|r| cap.forest.domain(*r).bbox())
        .collect();

    let mut clock = RefClock::new();
    let mut bvh = DynamicBvh::new();
    let ((), ns) = clock.time(|| {
        for (i, b) in boxes.iter().enumerate() {
            bvh.insert(i as u64, *b);
        }
    });
    m.set("geometry.bvh_insert_ns", ns / boxes.len() as f64);

    let mut order: Vec<usize> = (0..boxes.len()).collect();
    Rng::new(seed ^ 0x9e0).shuffle(&mut order);
    let queries: Vec<Rect> = order.iter().map(|&i| boxes[i]).collect();
    let mut hits = Vec::new();
    let mut offsets = vec![0usize];
    let ((), ns) = clock.time(|| {
        for q in &queries {
            bvh.query(q, &mut hits);
            offsets.push(hits.len());
        }
    });
    m.set("geometry.bvh_query_ns", ns / queries.len() as f64);

    let (flat, ns) = clock.time(|| FlatBvh::snapshot(&bvh));
    m.set("geometry.flat_snapshot_us", ns / 1e3);
    let (mut flat_hits, mut flat_offsets) = (Vec::new(), Vec::new());
    let ((), ns) = clock.time(|| flat.batch_query(&queries, &mut flat_hits, &mut flat_offsets));
    m.set("geometry.flat_batch_query_ns", ns / queries.len() as f64);
    assert_eq!(
        flat_hits.len(),
        hits.len(),
        "the flat snapshot finds what the tree finds"
    );

    let mut algebra = SpaceAlgebra::default();
    let ids: Vec<_> = regions
        .iter()
        .map(|r| algebra.intern(cap.forest.domain(*r)))
        .collect();
    let mut ops = 0usize;
    let ((), ns) = clock.time(|| {
        for (k, &q) in order.iter().enumerate() {
            for &h in hits[offsets[k]..offsets[k + 1]]
                .iter()
                .take(MAX_HITS_PER_QUERY)
            {
                let (a, b) = (ids[q], ids[h as usize]);
                if algebra.overlaps(a, b) {
                    black_box(algebra.intersect(a, b));
                    black_box(algebra.subtract(a, b));
                    ops += 2;
                }
                ops += 1;
            }
        }
    });
    m.set("geometry.algebra_op_ns", ns / ops.max(1) as f64);
    let s = algebra.stats();
    let answered = s.hits + s.fast_hits + s.misses;
    m.set(
        "geometry.algebra_hit_ratio",
        if answered == 0 {
            0.0
        } else {
            (s.hits + s.fast_hits) as f64 / answered as f64
        },
    );
}

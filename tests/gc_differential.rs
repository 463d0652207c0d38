//! History GC must be *observationally invisible*: with GC on, every
//! launch still retained (ids at or above the watermark) must carry
//! byte-identical dependences and materialization plans to the same run
//! with GC off, and the simulated machine must observe the exact same
//! operation stream. Checked across all four engines × serial/sharded
//! analysis × pipelined submission × auto-tracing.

use visibility::apps::{Circuit, CircuitConfig, Stencil, StencilConfig, Workload};
use visibility::prelude::*;
use visibility::runtime::AnalysisResult;
use visibility::sim::Counters;

/// The submission/analysis shapes the differential covers.
#[derive(Copy, Clone, Debug)]
enum Mode {
    Serial,
    Sharded,
    Pipelined,
    AutoTraced,
}

const MODES: [Mode; 4] = [
    Mode::Serial,
    Mode::Sharded,
    Mode::Pipelined,
    Mode::AutoTraced,
];

fn configure(engine: EngineKind, mode: Mode, nodes: usize) -> RuntimeConfig {
    let cfg = RuntimeConfig::new(engine)
        .nodes(nodes)
        .validate(false)
        .auto_trace(matches!(mode, Mode::AutoTraced));
    match mode {
        Mode::Serial => cfg.analysis_threads(1),
        Mode::Sharded => cfg.analysis_threads(4),
        Mode::Pipelined => cfg.analysis_threads(1).pipeline(true),
        Mode::AutoTraced => cfg.analysis_threads(1),
    }
}

struct Observed {
    tasks: usize,
    watermark: u32,
    /// Results of the retained suffix `[watermark..tasks)`.
    results: Vec<AnalysisResult>,
    names: Vec<String>,
    counters: Counters,
    replayed: u64,
}

fn run(
    workload: &dyn Workload,
    engine: EngineKind,
    mode: Mode,
    nodes: usize,
    gc: bool,
) -> Observed {
    let mut rt = Runtime::new(
        configure(engine, mode, nodes)
            .history_gc(gc)
            // Aggressive cadence so several sweeps land inside a small
            // program; a retain window big enough to keep suffixes
            // comparable but far smaller than the program.
            .gc_interval(16)
            .gc_retain(24),
    );
    workload.execute(&mut rt);
    let stats = rt.stats();
    let names = rt.launches().iter().map(|l| l.name.clone()).collect();
    let counters = rt.machine().counters().clone();
    Observed {
        tasks: rt.num_tasks(),
        watermark: stats.watermark,
        results: rt.results(),
        names,
        counters,
        replayed: rt.replayed_launches(),
    }
}

fn differential(workload: &dyn Workload, nodes: usize) {
    for engine in EngineKind::all() {
        for mode in MODES {
            let off = run(workload, engine, mode, nodes, false);
            let on = run(workload, engine, mode, nodes, true);
            let ctx = format!("{} {engine:?} {mode:?}", workload.name());

            assert_eq!(off.watermark, 0, "{ctx}: GC-off run must retire nothing");
            assert_eq!(on.replayed, off.replayed, "{ctx}: GC changed what replays");
            if let Mode::AutoTraced = mode {
                // Otherwise the mode would compare two analyzed runs.
                assert!(off.replayed > 0, "{ctx}: nothing replayed");
            }
            assert_eq!(on.tasks, off.tasks, "{ctx}: program length diverged");
            assert!(
                on.watermark > 0,
                "{ctx}: GC never fired — the differential tested nothing \
                 (tasks={}, interval=16)",
                on.tasks
            );
            let w = on.watermark as usize;
            assert!(w <= off.tasks, "{ctx}: watermark past the end");
            assert_eq!(
                on.results,
                off.results[w..],
                "{ctx}: retained analysis results diverged from the GC-off run"
            );
            assert_eq!(
                on.names,
                off.names[w..],
                "{ctx}: retained launch records diverged"
            );
            // PaintNaive is the one engine whose cost model *charges* for
            // scanning occluded entries (§5.1's pathology); its GC sweep
            // reclaims union-occluded entries the commit-time prune cannot,
            // so its simulated scan cost legitimately drops while deps and
            // plans stay identical. Every other engine's sweep only removes
            // state the scans already never visit.
            if engine != EngineKind::PaintNaive {
                assert_eq!(
                    on.counters, off.counters,
                    "{ctx}: simulated machine observed a different operation stream"
                );
            }
        }
    }
}

#[test]
fn stencil_gc_on_off_agree() {
    let app = Stencil::new(StencilConfig {
        nodes: 4,
        iterations: 8,
        ..StencilConfig::small(4, 6, 2)
    });
    differential(&app, 4);
}

#[test]
fn circuit_gc_on_off_agree() {
    let app = Circuit::new(CircuitConfig {
        nodes: 4,
        iterations: 8,
        ..CircuitConfig::small(4, 2)
    });
    differential(&app, 4);
}

/// Fences and manual traces interleaved with GC sweeps: the fence path
/// goes through the same commit pipeline, and replayed launches resolve
/// through templates that must survive retirement (tracing-aware pinning).
#[test]
fn traced_stencil_with_fences_gc_on_off_agree() {
    let app = Stencil::new(StencilConfig {
        nodes: 2,
        iterations: 10,
        traced: true,
        ..StencilConfig::small(4, 6, 2)
    });
    differential(&app, 2);
}

/// Regression: collections used to fire once per `run_specs` call, so the
/// launch counts they landed on — and with them the watermark and
/// PaintNaive's occlusion-sweep charges — depended on how the caller (or
/// the pipelined dispatcher) happened to batch. One captured stream fed in
/// batches of 1, 7 and all at once must be indistinguishable. Untraced, so
/// the engines' sweeps run on every launch.
#[test]
fn gc_sweep_points_ignore_batch_boundaries() {
    let app = Circuit::new(CircuitConfig {
        nodes: 4,
        iterations: 8,
        ..CircuitConfig::small(4, 2)
    });
    for engine in EngineKind::all() {
        for threads in [1, 4] {
            let config = || {
                RuntimeConfig::new(engine)
                    .nodes(4)
                    .validate(false)
                    .pipeline(false)
                    .analysis_threads(threads)
                    .auto_trace(false)
            };
            let mut capture = Runtime::new(config().history_gc(false));
            app.execute(&mut capture);
            let forest = capture.forest().clone();
            let stream = capture.launches().to_vec();

            let run = |batch: usize| {
                let mut rt = Runtime::new(config().history_gc(true).gc_interval(16).gc_retain(24));
                *rt.forest_mut() = forest.clone();
                for chunk in stream.chunks(batch) {
                    let specs = chunk
                        .iter()
                        .map(|l| {
                            LaunchSpec::new(
                                l.name.clone(),
                                l.node,
                                l.reqs.clone(),
                                l.duration_ns,
                                None,
                            )
                        })
                        .collect();
                    rt.submit_batch(specs).expect("captured stream is valid");
                }
                let counters = rt.machine().counters().clone();
                (rt.stats().watermark, rt.results(), counters)
            };
            let whole = run(stream.len());
            assert!(whole.0 > 0, "{engine:?}: GC never fired");
            for batch in [1, 7] {
                let got = run(batch);
                let ctx = format!("{engine:?} threads={threads} batch={batch}");
                assert_eq!(got.0, whole.0, "{ctx}: retirement watermark diverged");
                assert_eq!(got.1, whole.1, "{ctx}: retained results diverged");
                assert_eq!(got.2, whole.2, "{ctx}: machine counters diverged");
            }
        }
    }
}

//! The tentpole's memory claim, as a test: with history GC on, the
//! retained ledger window and the engines' dead state are bounded by the
//! *retain window*, not by program length — and the watermark actually
//! advances. Also covers the eager-execution guards. The bounds are on
//! analyzed launches, so the runs are untraced: a replayed launch never
//! reaches the engines.

use visibility::apps::{Circuit, CircuitConfig, Stencil, StencilConfig, Workload};
use visibility::prelude::*;

fn long_stencil(iterations: usize) -> Stencil {
    Stencil::new(StencilConfig {
        nodes: 4,
        iterations,
        ..StencilConfig::small(4, 6, 2)
    })
}

fn long_circuit(iterations: usize) -> Circuit {
    Circuit::new(CircuitConfig {
        nodes: 4,
        iterations,
        ..CircuitConfig::small(4, 2)
    })
}

#[test]
fn retained_window_is_bounded_by_retain_not_program_length() {
    for engine in EngineKind::all() {
        let mut short_retained = 0;
        for iterations in [10usize, 40] {
            let mut rt = Runtime::new(
                RuntimeConfig::new(engine)
                    .nodes(4)
                    .validate(false)
                    .history_gc(true)
                    .gc_interval(16)
                    .gc_retain(32)
                    .auto_trace(false),
            );
            long_stencil(iterations).execute(&mut rt);
            let stats = rt.stats();
            assert!(stats.gc.collections > 0, "{engine:?}: GC never ran");
            assert!(stats.watermark > 0, "{engine:?}: watermark never advanced");
            assert_eq!(
                stats.retained as u32 + stats.watermark,
                stats.tasks as u32,
                "{engine:?}: ledger accounting broke"
            );
            // Retained window ≤ retain + one GC interval's slack (sweeps
            // are amortized: at most `interval` launches land between the
            // watermark moving and the next sweep).
            assert!(
                stats.retained <= 32 + 16,
                "{engine:?} iters={iterations}: retained {} outgrew the window",
                stats.retained
            );
            if iterations == 10 {
                short_retained = stats.retained;
            } else {
                // 4× the program, same retained ceiling: memory tracks the
                // window, not program length.
                assert!(
                    stats.retained <= short_retained + 16 + 32,
                    "{engine:?}: retained grew with program length \
                     ({short_retained} -> {})",
                    stats.retained
                );
            }
        }
    }
}

#[test]
fn engine_sweeps_reclaim_dead_state() {
    // Circuit exercises both painters' sweep paths: Paint prunes
    // replicated-cache pairs and spatial-index nodes, and the naive painter
    // drops union-occluded history entries its commit-time prune cannot
    // see. Warnock is absent: its refinement is monotonic, so nothing it
    // holds ever becomes unreachable. RayCast is absent: nothing it holds
    // outlives the launch that killed it (`set_table_is_bounded_without_gc`
    // in `analysis/eqsets.rs`).
    for engine in [EngineKind::PaintNaive, EngineKind::Paint] {
        let mut rt = Runtime::new(
            RuntimeConfig::new(engine)
                .nodes(4)
                .validate(false)
                .history_gc(true)
                .gc_interval(16)
                .gc_retain(32)
                .auto_trace(false),
        );
        long_circuit(40).execute(&mut rt);
        let gc = rt.stats().gc;
        let dropped = gc.history_entries
            + gc.equivalence_sets
            + gc.composite_views
            + gc.index_nodes
            + gc.memo_entries;
        assert!(
            dropped > 0,
            "{engine:?}: {} sweeps reclaimed nothing",
            gc.collections
        );
    }
}

#[test]
fn retired_history_refuses_eager_execution() {
    // `execute_values`/`timed_schedule` need the full launch history; once
    // GC has retired a prefix they must fail loudly, not replay garbage.
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(2)
            .validate(false)
            .history_gc(true)
            .gc_interval(8)
            .gc_retain(8),
    );
    long_stencil(20).execute(&mut rt);
    assert!(rt.stats().watermark > 0);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.execute_values();
    }));
    assert!(
        err.is_err(),
        "execute_values silently ran on retired history"
    );
}

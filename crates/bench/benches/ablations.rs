//! Ablation benches for the design choices DESIGN.md §6 calls out.
//!
//! * **A1** — painter's composite views + region-tree sub-histories vs the
//!   literal Fig 7 global history.
//! * **A2** — Warnock's memoized constituent-set lookup (§6.1) vs
//!   traversing the refinement tree from the root on every launch.
//! * **A3** — ray casting's partition-anchored index vs the K-d tree
//!   fallback (§7.1).
//! * **A4** — dominating-write pruning: equivalence sets retained by
//!   RayCast vs Warnock on the same launch stream (reported, not timed).
//! * **A5** — index-space set algebra on the hot shapes (halo rings,
//!   sparse ghost sets).
//! * **A7** — the sharded analysis driver (`analysis_threads > 1`) vs the
//!   serial one on a multi-variable stencil (host time; the analyses are
//!   bit-identical, see `tests/sharded_determinism.rs`).

use std::hint::black_box;
use std::time::Instant;
use viz_apps::{Circuit, CircuitConfig, Stencil, StencilConfig, Workload};
use viz_bench::{measure, median_of, AppKind, RunConfig};
use viz_geometry::{IndexSpace, Point, Rect};
use viz_runtime::analysis::{eqsets::EqSetEngine, paint::Painter, paint_naive::PaintNaive};
use viz_runtime::{CoherenceEngine, EngineKind, Runtime, RuntimeConfig};

/// Samples per row of the host-time table.
const REPS: usize = 9;

fn run_with_engine(engine: Box<dyn CoherenceEngine>, workload: &dyn Workload, nodes: usize) {
    let rt = rt_with_engine(engine, workload, nodes);
    assert!(rt.num_tasks() > 0);
}

/// Untraced, as the paper's §8 runs it: every ablation compares engines or
/// drivers on the launches they analyze, and a replayed launch skips them.
fn rt_with_engine(
    engine: Box<dyn CoherenceEngine>,
    workload: &dyn Workload,
    nodes: usize,
) -> Runtime {
    let mut rt = Runtime::with_engine(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(nodes)
            .validate(false)
            .auto_trace(false),
        engine,
    );
    let run = workload.execute(&mut rt);
    assert!(!run.iter_end.is_empty());
    rt
}

/// A1: the quantity §5.1's optimizations target is the analysis *work*
/// (history entries scanned), not host time — the literal Fig 7 history
/// grows without bound while the tree version's occlusion pruning keeps
/// the visible state small. Reported as a table over loop length.
fn a1_paint_views_report() {
    println!("\n# Ablation A1: painter tree+views vs literal Fig 7 (4 pieces)");
    println!("iterations\ttree_entries_scanned\tnaive_entries_scanned\ttree_state\tnaive_state");
    for iterations in [10usize, 40, 160] {
        let app = Stencil::new(StencilConfig {
            with_bodies: false,
            nodes: 4,
            ..StencilConfig::small(4, 64, iterations)
        });
        let tree = rt_with_engine(Box::new(Painter::new()), &app, 4);
        let naive = rt_with_engine(Box::new(PaintNaive::without_pruning()), &app, 4);
        println!(
            "{iterations}\t{}\t{}\t{}\t{}",
            tree.machine().counters().hist_entries_scanned,
            naive.machine().counters().hist_entries_scanned,
            tree.stats().state.history_entries,
            naive.stats().state.history_entries,
        );
        if iterations >= 40 {
            assert!(
                naive.machine().counters().hist_entries_scanned
                    > 2 * tree.machine().counters().hist_entries_scanned,
                "the unpruned global history must dominate on long loops"
            );
        }
    }
}

/// Host seconds of one call to `f`.
fn secs<O>(f: impl FnOnce() -> O) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// One row of the host-time table: median of [`REPS`] samples of `sample`
/// (seconds), printed in microseconds.
fn row(ablation: &str, variant: &str, param: impl std::fmt::Display, sample: impl FnMut() -> f64) {
    let us = median_of(REPS, sample) * 1e6;
    println!("{ablation}\t{variant}\t{param}\t{us:.3}");
}

fn a2_warnock_memo() {
    for pieces in [4usize, 16] {
        let app = Circuit::new(CircuitConfig {
            with_bodies: false,
            nodes: pieces,
            iterations: 5,
            ..CircuitConfig::small(pieces, 5)
        });
        row("A2_warnock_memo", "memoized", pieces, || {
            secs(|| run_with_engine(Box::new(EqSetEngine::warnock()), &app, pieces))
        });
        row("A2_warnock_memo", "no_memo", pieces, || {
            secs(|| {
                run_with_engine(
                    Box::new(EqSetEngine::warnock().without_memoization()),
                    &app,
                    pieces,
                )
            })
        });
    }
}

fn a3_raycast_index() {
    for pieces in [4usize, 16] {
        let app = Stencil::new(StencilConfig {
            with_bodies: false,
            nodes: pieces,
            ..StencilConfig::small(pieces, 64, 5)
        });
        row("A3_raycast_index", "partition_anchors", pieces, || {
            secs(|| run_with_engine(Box::new(EqSetEngine::raycast()), &app, pieces))
        });
        row("A3_raycast_index", "kd_tree", pieces, || {
            secs(|| {
                run_with_engine(
                    Box::new(EqSetEngine::raycast().force_kd_tree()),
                    &app,
                    pieces,
                )
            })
        });
    }
}

fn a4_dominating_write_report() {
    println!("\n# Ablation A4: equivalence sets retained (dominating writes)");
    println!("app\tpieces\twarnock_sets\traycast_sets");
    for pieces in [4usize, 16, 64] {
        let wl = AppKind::Circuit.bench_scale(pieces);
        let w = measure(
            AppKind::Circuit,
            wl.as_ref(),
            RunConfig {
                engine: EngineKind::Warnock,
                dcr: false,
            },
            pieces,
        );
        let r = measure(
            AppKind::Circuit,
            wl.as_ref(),
            RunConfig {
                engine: EngineKind::RayCast,
                dcr: false,
            },
            pieces,
        );
        println!(
            "circuit\t{pieces}\t{}\t{}",
            w.state.equivalence_sets, r.state.equivalence_sets
        );
        assert!(r.state.equivalence_sets <= w.state.equivalence_sets);
    }
}

fn a5_geometry() {
    // Sub-microsecond ops: one sample times a batch and reports per-op.
    const BATCH: usize = 1_000;
    fn per_op<O>(mut op: impl FnMut() -> O) -> f64 {
        let batch = || {
            for _ in 0..BATCH {
                black_box(op());
            }
        };
        secs(batch) / BATCH as f64
    }
    // The hot shapes: a tile vs its halo ring, and sparse ghost-node sets.
    let tile = IndexSpace::from_rect(Rect::xy(100, 163, 100, 163));
    let grown = IndexSpace::from_rect(Rect::xy(98, 165, 98, 165));
    let halo = grown.subtract(&tile);
    let sparse_a = IndexSpace::from_points((0..400).map(|i| Point::p1(i * 7 % 2048)));
    let sparse_b = IndexSpace::from_points((0..400).map(|i| Point::p1(i * 13 % 2048)));
    let a5 = "A5_geometry";
    row(a5, "halo_subtract", "-", || {
        per_op(|| grown.subtract(&tile))
    });
    row(a5, "halo_overlap_test", "-", || {
        per_op(|| halo.overlaps(&tile))
    });
    row(a5, "halo_intersect", "-", || {
        per_op(|| halo.intersect(&grown))
    });
    row(a5, "sparse_intersect", "-", || {
        per_op(|| sparse_a.intersect(&sparse_b))
    });
    row(a5, "sparse_union", "-", || {
        per_op(|| sparse_a.union(&sparse_b))
    });
}

/// A7: serial vs sharded analysis driver. Same launches, same results —
/// only the host-side scheduling of the per-(root, field) scans differs.
/// Untraced (§8), so every launch reaches the driver.
fn a7_sharded_driver() {
    let app = Stencil::new(StencilConfig {
        pieces: 16,
        tile: 16,
        iterations: 4,
        nodes: 4,
        with_bodies: false,
        traced: false,
        vars: 4,
    });
    for threads in [1usize, 4] {
        row("A7_sharded_driver", "raycast_threads", threads, || {
            secs(|| {
                let mut rt = Runtime::new(
                    RuntimeConfig::new(EngineKind::RayCast)
                        .nodes(4)
                        .dcr(true)
                        .validate(false)
                        .analysis_threads(threads)
                        .auto_trace(false),
                );
                let run = app.execute(&mut rt);
                assert!(!run.iter_end.is_empty());
            })
        });
    }
}

fn main() {
    a1_paint_views_report();
    a4_dominating_write_report();
    println!("\n# Ablations A2/A3/A5/A7: host time, median of {REPS} samples");
    println!("ablation\tvariant\tparam\tmedian_us");
    a2_warnock_memo();
    a3_raycast_index();
    a5_geometry();
    a7_sharded_driver();
}

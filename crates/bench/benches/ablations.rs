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

use criterion::{BenchmarkId, Criterion};
use viz_apps::{Circuit, CircuitConfig, Stencil, StencilConfig, Workload};
use viz_bench::{measure, AppKind, RunConfig};
use viz_geometry::{IndexSpace, Point, Rect};
use viz_runtime::analysis::{
    paint::Painter, paint_naive::PaintNaive, raycast::RayCast, warnock::Warnock,
};
use viz_runtime::{CoherenceEngine, EngineKind, Runtime, RuntimeConfig};

fn run_with_engine(engine: Box<dyn CoherenceEngine>, workload: &dyn Workload, nodes: usize) {
    let rt = rt_with_engine(engine, workload, nodes);
    assert!(rt.num_tasks() > 0);
}

fn rt_with_engine(
    engine: Box<dyn CoherenceEngine>,
    workload: &dyn Workload,
    nodes: usize,
) -> Runtime {
    let mut rt = Runtime::with_engine(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(nodes)
            .validate(false),
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

fn a2_warnock_memo(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_warnock_memo");
    g.sample_size(10);
    for pieces in [4usize, 16] {
        let app = Circuit::new(CircuitConfig {
            with_bodies: false,
            nodes: pieces,
            iterations: 5,
            ..CircuitConfig::small(pieces, 5)
        });
        g.bench_with_input(BenchmarkId::new("memoized", pieces), &pieces, |b, &n| {
            b.iter(|| run_with_engine(Box::new(Warnock::new()), &app, n));
        });
        g.bench_with_input(BenchmarkId::new("no_memo", pieces), &pieces, |b, &n| {
            b.iter(|| run_with_engine(Box::new(Warnock::without_memoization()), &app, n));
        });
    }
    g.finish();
}

fn a3_raycast_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_raycast_bvh");
    g.sample_size(10);
    for pieces in [4usize, 16] {
        let app = Stencil::new(StencilConfig {
            with_bodies: false,
            nodes: pieces,
            ..StencilConfig::small(pieces, 64, 5)
        });
        g.bench_with_input(
            BenchmarkId::new("partition_anchors", pieces),
            &pieces,
            |b, &n| {
                b.iter(|| run_with_engine(Box::new(RayCast::new()), &app, n));
            },
        );
        g.bench_with_input(BenchmarkId::new("kd_tree", pieces), &pieces, |b, &n| {
            b.iter(|| run_with_engine(Box::new(RayCast::force_kd_tree()), &app, n));
        });
    }
    g.finish();
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

fn a5_geometry(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_geometry");
    // The hot shapes: a tile vs its halo ring, and sparse ghost-node sets.
    let tile = IndexSpace::from_rect(Rect::xy(100, 163, 100, 163));
    let grown = IndexSpace::from_rect(Rect::xy(98, 165, 98, 165));
    let halo = grown.subtract(&tile);
    g.bench_function("halo_subtract", |b| {
        b.iter(|| grown.subtract(&tile));
    });
    g.bench_function("halo_overlap_test", |b| {
        b.iter(|| halo.overlaps(&tile));
    });
    g.bench_function("halo_intersect", |b| {
        b.iter(|| halo.intersect(&grown));
    });
    let sparse_a = IndexSpace::from_points((0..400).map(|i| Point::p1(i * 7 % 2048)));
    let sparse_b = IndexSpace::from_points((0..400).map(|i| Point::p1(i * 13 % 2048)));
    g.bench_function("sparse_intersect", |b| {
        b.iter(|| sparse_a.intersect(&sparse_b));
    });
    g.bench_function("sparse_union", |b| {
        b.iter(|| sparse_a.union(&sparse_b));
    });
    g.finish();
}

/// A7: serial vs sharded analysis driver. Same launches, same results —
/// only the host-side scheduling of the per-(root, field) scans differs.
fn a7_sharded_driver(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sharded_driver");
    g.sample_size(10);
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
        g.bench_with_input(
            BenchmarkId::new("raycast_threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut rt = Runtime::new(
                        RuntimeConfig::new(EngineKind::RayCast)
                            .nodes(4)
                            .dcr(true)
                            .validate(false)
                            .analysis_threads(threads),
                    );
                    let run = app.execute(&mut rt);
                    assert!(!run.iter_end.is_empty());
                });
            },
        );
    }
    g.finish();
}

fn main() {
    a1_paint_views_report();
    a4_dominating_write_report();
    // Short measurement windows: the workloads are deterministic
    // simulations, so tight confidence intervals come cheap.
    let mut c = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300))
        .configure_from_args();
    a2_warnock_memo(&mut c);
    a3_raycast_index(&mut c);
    a5_geometry(&mut c);
    a7_sharded_driver(&mut c);
    c.final_summary();
}

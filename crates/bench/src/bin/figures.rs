//! Regenerate the paper's evaluation figures (Figs 12–17).
//!
//! ```text
//! figures [--fig N | --all] [--max-nodes N] [--reps N] [--artifact] [--tracing]
//!         [--auto-tracing] [--out DIR] [--quick] [--plot] [--profile PATH]
//! ```
//!
//! * `--fig 12..=17` — one figure; `--all` — all six (default).
//! * `--max-nodes` — largest node count of the sweep (default 512, the
//!   paper's largest machine).
//! * `--artifact` — also print the Appendix-A.4-format TSV per app.
//! * `--out DIR` — additionally write each table to `DIR/figNN_*.tsv`.
//! * `--quick` — scaled-down workloads (fast smoke run).
//! * `--reps N` — repetition count in the artifact TSV (simulation is
//!   deterministic; reps are replicated rows, default 1).
//! * `--tracing` — also emit the manual dynamic-tracing extension table
//!   (`ext_tracing_<app>`); `--auto-tracing` — the automatic trace
//!   detection table (`ext_autotracing_<app>`).
//! * `--plot` — also print each figure as a terminal chart.
//! * `--profile PATH` — record a structured trace of the sweep and write a
//!   Chrome trace-event JSON to `PATH`, a folded-stack flamegraph to
//!   `PATH.folded`, and per-engine metrics to `PATH.metrics.tsv`.
//!
//! The sweep builds its runtimes with `RuntimeConfig::new`, so the `VIZ_*`
//! execution-strategy knobs (`VIZ_ANALYSIS_THREADS`, `VIZ_PIPELINE`)
//! apply as they do anywhere else; the tables are byte-identical under all
//! of them, only host time changes. The committed
//! `results/` golden is generated with every `VIZ_*` variable unset.

use std::io::Write;
use viz_bench::{artifact_tsv, figure_table, paper_node_counts, sweep, tracing_tables, AppKind};

struct Args {
    figs: Vec<u32>,
    max_nodes: usize,
    reps: usize,
    artifact: bool,
    out: Option<String>,
    quick: bool,
    tracing: bool,
    auto_tracing: bool,
    plot: bool,
    profile: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        figs: vec![12, 13, 14, 15, 16, 17],
        max_nodes: 512,
        reps: 1,
        artifact: false,
        out: None,
        quick: false,
        tracing: false,
        auto_tracing: false,
        plot: false,
        profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fig" => {
                let n: u32 = it.next().expect("--fig N").parse().expect("figure number");
                assert!((12..=17).contains(&n), "figures are 12..=17");
                args.figs = vec![n];
            }
            "--all" => args.figs = vec![12, 13, 14, 15, 16, 17],
            "--max-nodes" => {
                args.max_nodes = it.next().expect("--max-nodes N").parse().expect("number")
            }
            "--reps" => args.reps = it.next().expect("--reps N").parse().expect("number"),
            "--artifact" => args.artifact = true,
            "--out" => args.out = Some(it.next().expect("--out DIR")),
            "--quick" => args.quick = true,
            "--tracing" => args.tracing = true,
            "--auto-tracing" => args.auto_tracing = true,
            "--plot" => args.plot = true,
            "--profile" => args.profile = Some(it.next().expect("--profile PATH")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn emit(out_dir: &Option<String>, name: &str, content: &str) {
    println!("{content}");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).expect("create out dir");
        let path = format!("{dir}/{name}.tsv");
        let mut f = std::fs::File::create(&path).expect("create tsv");
        f.write_all(content.as_bytes()).expect("write tsv");
        eprintln!("wrote {path}");
    }
}

fn main() {
    let args = parse_args();
    if args.profile.is_some() {
        viz_profile::enable();
    }
    let nodes = paper_node_counts(args.max_nodes);
    // Measure each needed app once; init and weak figures share the sweep.
    let mut apps: Vec<AppKind> = args.figs.iter().map(|f| AppKind::of_figure(*f)).collect();
    apps.dedup();
    for app in apps {
        eprintln!(
            "== {} : sweeping nodes {:?} x 5 configs ({}) ==",
            app.label(),
            nodes,
            if args.quick {
                "quick scale"
            } else {
                "paper scale"
            }
        );
        let t0 = std::time::Instant::now();
        let rows = sweep(app, &nodes, !args.quick);
        eprintln!("   swept in {:.1}s host time", t0.elapsed().as_secs_f64());
        for &fig in &args.figs {
            if AppKind::of_figure(fig) != app {
                continue;
            }
            let (name, content) = figure_table(fig, &rows);
            emit(&args.out, &name, &content);
            if args.plot {
                let (scale, unit) = app.unit_scale();
                let chart = if fig <= 14 {
                    viz_bench::plot::render(
                        &format!("Figure {fig}: {} init time", app.label()),
                        "s",
                        &rows,
                        |m| m.init_time_s,
                        true,
                    )
                } else {
                    viz_bench::plot::render(
                        &format!("Figure {fig}: {} weak scaling", app.label()),
                        unit,
                        &rows,
                        move |m| m.throughput_per_node / scale,
                        false,
                    )
                };
                println!("{chart}");
            }
        }
        if args.artifact {
            emit(
                &args.out,
                &format!("artifact_{}", app.label()),
                &artifact_tsv(&rows, args.reps),
            );
        }
        if args.tracing || args.auto_tracing {
            let [manual, auto] = tracing_tables(app, &nodes);
            let label = app.label();
            if args.tracing {
                emit(&args.out, &format!("ext_tracing_{label}"), &manual);
            }
            if args.auto_tracing {
                emit(&args.out, &format!("ext_autotracing_{label}"), &auto);
            }
        }
    }
    if let Some(path) = &args.profile {
        let profile = viz_profile::take();
        std::fs::write(path, viz_profile::export::chrome_trace(&profile))
            .expect("write chrome trace");
        std::fs::write(
            format!("{path}.folded"),
            viz_profile::export::folded_stacks(&profile),
        )
        .expect("write folded stacks");
        std::fs::write(
            format!("{path}.metrics.tsv"),
            viz_profile::export::metrics_tsv(&profile),
        )
        .expect("write metrics tsv");
        eprintln!(
            "profile: {} events ({} dropped) -> {path}, {path}.folded, {path}.metrics.tsv",
            profile.events.len(),
            profile.dropped
        );
    }
}

//! Extended weak scaling (ISSUE 9): fig15-style curves pushed to 16384
//! simulated nodes, with history GC keeping runtime memory bounded by the
//! retained window instead of program length.
//!
//! Each data point runs in a **fresh subprocess** (the binary re-execs
//! itself with `--child`) so `VmHWM` from `/proc/self/status` is the true
//! peak RSS of that point alone — allocator high-water marks and leftover
//! state from earlier points can't contaminate it.
//!
//! Output: `results/ext_weakscale_<app>.tsv`, one row per (gc, nodes)
//! point. The `gc=0` baseline stops at 1024 nodes (that's the point of the
//! exercise: without retirement the ledger and the DAG columns grow with
//! program length — RayCast's set table does not, it frees a set in the
//! launch that occludes it); `gc=1` continues to 16384.
//!
//! Usage:
//!
//! ```text
//! weakscale [max_nodes] [--app stencil|circuit|pennant]
//! weakscale --child <app> <nodes> <gc>      (internal)
//! ```

use std::io::Write as _;
use std::process::Command;
use std::time::Instant;
use viz_bench::AppKind;
use viz_runtime::{EngineKind, Runtime, RuntimeConfig};

/// Peak resident set size of this process, in MiB, from /proc/self/status.
/// Returns 0.0 where procfs is unavailable (non-Linux).
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

fn app_from(label: &str) -> AppKind {
    match label {
        "stencil" => AppKind::Stencil,
        "circuit" => AppKind::Circuit,
        "pennant" => AppKind::Pennant,
        other => panic!("unknown app {other:?}"),
    }
}

const COLUMNS: &str = "app\tgc\tnodes\tlaunches\tretained\twatermark\tanalysis_s\tus_per_launch\t\
                       peak_rss_mb\thistory_entries\tequivalence_sets\tinterned_spaces\t\
                       gc_collections\tgc_retired\tgc_dropped\t\
                       candidates_visited\tsets_swept";

/// One measurement, printed as a TSV row on stdout (parsed by the parent).
fn child(app: AppKind, nodes: usize, gc: bool) {
    // Analysis-streaming mode: no task bodies, no timed schedule — those
    // replay the full history, which is exactly what GC retires. Untraced,
    // as the paper's §8 runs it: the flatness gate is about the analysis
    // cost per launch, which a replayed launch skips.
    let workload = app.paper(nodes);
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(nodes)
            .validate(false)
            .history_gc(gc)
            .auto_trace(false),
    );
    let start = Instant::now();
    let run = workload.execute(&mut rt);
    let analysis_s = start.elapsed().as_secs_f64();
    assert!(!run.iter_end.is_empty());
    let stats = rt.stats();
    let us_per_launch = analysis_s * 1e6 / stats.tasks.max(1) as f64;
    println!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.1}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        app.label(),
        gc as u8,
        nodes,
        stats.tasks,
        stats.retained,
        stats.watermark,
        analysis_s,
        us_per_launch,
        peak_rss_mb(),
        stats.state.history_entries,
        stats.state.equivalence_sets,
        stats.state.interned_spaces,
        stats.gc.collections,
        stats.gc.retired_launches,
        stats.gc.history_entries
            + stats.gc.equivalence_sets
            + stats.gc.composite_views
            + stats.gc.index_nodes
            + stats.gc.memo_entries,
        stats.state.candidates_visited,
        stats.state.sets_swept,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--child") {
        let app = app_from(&args[2]);
        let nodes: usize = args[3].parse().expect("nodes");
        let gc: u8 = args[4].parse().expect("gc");
        child(app, nodes, gc != 0);
        return;
    }

    let mut max_nodes = 16384usize;
    let mut app = AppKind::Stencil;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--app" => app = app_from(it.next().expect("--app value")),
            n => max_nodes = n.parse().expect("max_nodes"),
        }
    }
    // The GC-off baseline is capped: its memory grows with program length,
    // which is the comparison the figure makes.
    let baseline_cap = max_nodes.min(1024);

    let exe = std::env::current_exe().expect("current_exe");
    let mut rows = vec![COLUMNS.to_string()];
    for gc in [false, true] {
        let cap = if gc { max_nodes } else { baseline_cap };
        let mut nodes = 16usize;
        while nodes <= cap {
            eprintln!("weakscale: {} gc={} nodes={}", app.label(), gc as u8, nodes);
            let out = Command::new(&exe)
                .args([
                    "--child",
                    app.label(),
                    &nodes.to_string(),
                    &(gc as u8).to_string(),
                ])
                .output()
                .expect("spawn child");
            assert!(
                out.status.success(),
                "child failed at nodes={nodes} gc={gc}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let row = String::from_utf8(out.stdout).expect("utf8");
            rows.push(row.trim_end().to_string());
            nodes *= 2;
        }
    }

    std::fs::create_dir_all("results").expect("mkdir results");
    let path = format!("results/ext_weakscale_{}.tsv", app.label());
    let mut f = std::fs::File::create(&path).expect("create tsv");
    writeln!(f, "{}", rows.join("\n")).expect("write tsv");
    eprintln!("wrote {path}");
}

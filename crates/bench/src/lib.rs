//! # viz-bench
//!
//! The benchmark harness regenerating every figure of the paper's
//! evaluation (§8):
//!
//! | Figure | Content | `figures --fig N --out results` writes |
//! |---|---|---|
//! | Fig 12 | Stencil initialization time | `fig12_stencil_init.tsv` |
//! | Fig 13 | Circuit initialization time | `fig13_circuit_init.tsv` |
//! | Fig 14 | Pennant initialization time | `fig14_pennant_init.tsv` |
//! | Fig 15 | Stencil weak scaling | `fig15_stencil_weak.tsv` |
//! | Fig 16 | Circuit weak scaling | `fig16_circuit_weak.tsv` |
//! | Fig 17 | Pennant weak scaling | `fig17_pennant_weak.tsv` |
//!
//! The `figures` binary is the only producer of these numbers: it sweeps
//! node counts 1–512 over the five runtime configurations of the paper
//! (RayCast ± DCR, Warnock ± DCR, Paint without DCR) and emits both the
//! artifact's TSV format (Appendix A.4) and per-figure series. The tables
//! under `results/` are its committed output; CI regenerates them and
//! `tests/figures_golden.rs` checks their 1–8-node prefix on every test run.
//!
//! Measurements are *simulated* machine times: the coherence engines run
//! their real data structures at the configured scale, and the LogP cost
//! model converts the resulting operation/message streams into time (see
//! `viz-sim` and DESIGN.md §3).

#![forbid(unsafe_code)]

pub mod plot;

use viz_apps::{
    Circuit, CircuitConfig, Pennant, PennantConfig, Stencil, StencilConfig, Workload, WorkloadRun,
};
use viz_runtime::engine::StateSize;
use viz_runtime::exec::TimedReport;
use viz_runtime::{EngineKind, Runtime, RuntimeConfig};
use viz_sim::Counters;

/// The three benchmark applications.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AppKind {
    Stencil,
    Circuit,
    Pennant,
}

impl AppKind {
    pub fn all() -> [AppKind; 3] {
        [AppKind::Stencil, AppKind::Circuit, AppKind::Pennant]
    }

    pub fn label(self) -> &'static str {
        match self {
            AppKind::Stencil => "stencil",
            AppKind::Circuit => "circuit",
            AppKind::Pennant => "pennant",
        }
    }

    /// The app a figure of the evaluation measures (Figs 12–14 are the
    /// initialization times, Figs 15–17 the weak scaling, in this order).
    pub fn of_figure(fig: u32) -> AppKind {
        match fig {
            12 | 15 => AppKind::Stencil,
            13 | 16 => AppKind::Circuit,
            14 | 17 => AppKind::Pennant,
            _ => panic!("figures are 12..=17, got {fig}"),
        }
    }

    /// Weak-scaling workload at paper scale: one piece per node.
    pub fn paper(self, nodes: usize) -> Box<dyn Workload> {
        match self {
            AppKind::Stencil => Box::new(Stencil::new(StencilConfig::paper(nodes))),
            AppKind::Circuit => Box::new(Circuit::new(CircuitConfig::paper(nodes))),
            AppKind::Pennant => Box::new(Pennant::new(PennantConfig::paper(nodes))),
        }
    }

    /// Paper-scale workload with each iteration wrapped in a runtime trace
    /// (the dynamic-tracing extension, \[15\]).
    pub fn paper_traced(self, nodes: usize) -> Box<dyn Workload> {
        match self {
            AppKind::Stencil => Box::new(Stencil::new(StencilConfig {
                traced: true,
                ..StencilConfig::paper(nodes)
            })),
            AppKind::Circuit => Box::new(Circuit::new(CircuitConfig {
                traced: true,
                ..CircuitConfig::paper(nodes)
            })),
            AppKind::Pennant => Box::new(Pennant::new(PennantConfig {
                traced: true,
                ..PennantConfig::paper(nodes)
            })),
        }
    }

    /// A scaled-down workload (same structure, smaller per-piece size) for
    /// `figures --quick` and the ablation reports.
    pub fn bench_scale(self, nodes: usize) -> Box<dyn Workload> {
        match self {
            AppKind::Stencil => Box::new(Stencil::new(StencilConfig {
                tile: 512,
                iterations: 5,
                ..StencilConfig::paper(nodes)
            })),
            AppKind::Circuit => Box::new(Circuit::new(CircuitConfig {
                nodes_per_piece: 200,
                wires_per_piece: 2_000,
                iterations: 5,
                ..CircuitConfig::paper(nodes)
            })),
            AppKind::Pennant => Box::new(Pennant::new(PennantConfig {
                zones_x_per_piece: 80,
                zones_y: 50,
                iterations: 5,
                ..PennantConfig::paper(nodes)
            })),
        }
    }

    /// The per-node throughput unit of the weak-scaling figure, and its
    /// scale factor as printed by the paper ("10⁹ points/s" etc.).
    pub fn unit_scale(self) -> (f64, &'static str) {
        match self {
            AppKind::Stencil => (1e9, "1e9 points/s"),
            AppKind::Circuit => (1e6, "1e6 wires/s"),
            AppKind::Pennant => (1e6, "1e6 zones/s"),
        }
    }
}

/// One runtime configuration of the evaluation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RunConfig {
    pub engine: EngineKind,
    pub dcr: bool,
}

impl RunConfig {
    /// The five configurations of Figs 12–17, in legend order. (The
    /// painter's algorithm implementation predates DCR, §8.)
    pub fn evaluated() -> [RunConfig; 5] {
        [
            RunConfig {
                engine: EngineKind::RayCast,
                dcr: true,
            },
            RunConfig {
                engine: EngineKind::RayCast,
                dcr: false,
            },
            RunConfig {
                engine: EngineKind::Warnock,
                dcr: true,
            },
            RunConfig {
                engine: EngineKind::Warnock,
                dcr: false,
            },
            RunConfig {
                engine: EngineKind::Paint,
                dcr: false,
            },
        ]
    }

    /// Legend label, matching the paper's figures.
    pub fn label(self) -> String {
        format!(
            "{}, {}",
            self.engine.label(),
            if self.dcr { "DCR" } else { "No DCR" }
        )
    }

    /// Artifact system name (`neweqcr_dcr`, `paint_nodcr`, …).
    pub fn artifact_system(self) -> String {
        format!(
            "{}_{}",
            self.engine.artifact_name(),
            if self.dcr { "dcr" } else { "nodcr" }
        )
    }
}

/// One measured data point.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub app: &'static str,
    pub config: RunConfig,
    pub nodes: usize,
    /// Simulated initialization time (application start through the end of
    /// the first top-level iteration), seconds — Figs 12–14.
    pub init_time_s: f64,
    /// Simulated total elapsed time, seconds (artifact `elapsed_time`).
    pub elapsed_s: f64,
    /// Steady-state per-iteration time (excluding the first), seconds.
    pub per_iter_s: f64,
    /// Elements processed per second per node — Figs 15–17.
    pub throughput_per_node: f64,
    /// Exact operation counts from the engines.
    pub counters: Counters,
    /// Engine state sizes at the end of the run.
    pub state: StateSize,
}

/// Run one workload under one configuration and measure both phases.
/// Untraced, as the paper's §8 runs it: the figures measure the coherence
/// algorithms, not the replay that skips them.
pub fn measure(
    app: AppKind,
    workload: &dyn Workload,
    config: RunConfig,
    nodes: usize,
) -> Measurement {
    let mut rt = Runtime::new(
        RuntimeConfig::new(config.engine)
            .nodes(nodes)
            .dcr(config.dcr)
            .validate(false)
            .auto_trace(false),
    );
    let run = workload.execute(&mut rt);
    let report = rt.timed_schedule();
    assert!(!run.iter_end.is_empty(), "workload must report iterations");
    let init_ns = report.completion_through(run.iter_end[0]);
    let total_ns = report.completion_through(*run.iter_end.last().unwrap());
    let (per_iter_s, throughput_per_node) = steady_state(&run, &report, nodes);
    let counters = rt.machine().counters().clone();
    let state = rt.stats().state;
    Measurement {
        app: app.label(),
        config,
        nodes,
        init_time_s: init_ns as f64 * 1e-9,
        elapsed_s: total_ns as f64 * 1e-9,
        per_iter_s,
        throughput_per_node,
        counters,
        state,
    }
}

/// Steady-state seconds per iteration and per-node throughput (§8: "once
/// the initial analysis is done the performance stabilizes"): the median
/// per-iteration delta over the last half of the iterations, which
/// excludes the pipeline-fill drain after the first-iteration analysis
/// burst. A one-iteration run counts its whole time.
fn steady_state(run: &WorkloadRun, report: &TimedReport, nodes: usize) -> (f64, f64) {
    let at = |t| report.completion_through(t);
    let mut deltas: Vec<u64> = run
        .iter_end
        .windows(2)
        .map(|w| at(w[1]) - at(w[0]))
        .collect();
    let mut half = deltas.split_off(deltas.len() / 2);
    half.sort_unstable();
    let per_iter_ns = half.get(half.len() / 2).copied();
    let per_iter_s = per_iter_ns.unwrap_or_else(|| at(run.iter_end[0])) as f64 * 1e-9;
    let tput = run.elements_per_iter as f64 / per_iter_s / nodes as f64;
    (per_iter_s, if per_iter_s > 0.0 { tput } else { 0.0 })
}

/// Sweep an app over node counts × the five configurations.
pub fn sweep(app: AppKind, node_counts: &[usize], paper_scale: bool) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &nodes in node_counts {
        for config in RunConfig::evaluated() {
            let workload = if paper_scale {
                app.paper(nodes)
            } else {
                app.bench_scale(nodes)
            };
            out.push(measure(app, workload.as_ref(), config, nodes));
        }
    }
    out
}

/// The paper's node counts: powers of two, 1..=512.
pub fn paper_node_counts(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut n = 1;
    while n <= max {
        v.push(n);
        n *= 2;
    }
    v
}

/// Median of `reps` host-time samples — the one wall-clock sampler the bench
/// targets share. Each `sample()` returns its own measurement, so it can set
/// up (and tear down) outside the window it times.
pub fn median_of(reps: usize, sample: impl FnMut() -> f64) -> f64 {
    let mut xs: Vec<f64> = std::iter::repeat_with(sample).take(reps).collect();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Render measurements as the artifact's TSV (Appendix A.4):
/// `system nodes procs_per_node rep init_time elapsed_time`.
pub fn artifact_tsv(rows: &[Measurement], reps: usize) -> String {
    let mut s = String::from("system\tnodes\tprocs_per_node\trep\tinit_time\telapsed_time\n");
    for m in rows {
        for rep in 0..reps {
            s.push_str(&format!(
                "{}\t{}\t1\t{}\t{:.3}\t{:.3}\n",
                m.config.artifact_system(),
                m.nodes,
                rep,
                m.init_time_s,
                m.elapsed_s
            ));
        }
    }
    s
}

/// Render an initialization-time figure (Figs 12–14): one column per
/// configuration, rows by node count.
pub fn init_figure_tsv(rows: &[Measurement]) -> String {
    series_tsv(rows, "init_time_s", |m| m.init_time_s)
}

/// Render a weak-scaling figure (Figs 15–17): throughput per node.
pub fn weak_figure_tsv(app: AppKind, rows: &[Measurement]) -> String {
    let (scale, unit) = app.unit_scale();
    series_tsv(rows, unit, move |m| m.throughput_per_node / scale)
}

/// One figure's table as `figures` emits it: its file stem under
/// `results/` and its content, from the sweep of [`AppKind::of_figure`].
pub fn figure_table(fig: u32, rows: &[Measurement]) -> (String, String) {
    let app = AppKind::of_figure(fig);
    let (kind, title, series) = if fig <= 14 {
        (
            "init",
            "initialization time (simulated seconds)",
            init_figure_tsv(rows),
        )
    } else {
        (
            "weak",
            "weak scaling (throughput per node)",
            weak_figure_tsv(app, rows),
        )
    };
    let label = app.label();
    (
        format!("fig{fig}_{label}_{kind}"),
        format!("# Figure {fig}: {label} {title}\n{series}"),
    )
}

fn series_tsv(rows: &[Measurement], value_name: &str, f: impl Fn(&Measurement) -> f64) -> String {
    let configs = RunConfig::evaluated();
    let mut nodes: Vec<usize> = rows.iter().map(|m| m.nodes).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut s = format!("# value: {value_name}\nnodes");
    for c in configs {
        s.push('\t');
        s.push_str(&c.label());
    }
    s.push('\n');
    for n in nodes {
        s.push_str(&n.to_string());
        for c in configs {
            let v = rows.iter().find(|m| m.nodes == n && m.config == c).map(&f);
            match v {
                Some(v) => s.push_str(&format!("\t{v:.4}")),
                None => s.push_str("\t-"),
            }
        }
        s.push('\n');
    }
    s
}

/// Steady-state per-node throughput of one workload on one runtime, plus
/// the runtime's tracing statistics: (throughput, replayed launches,
/// auto traces detected, auto traces demoted).
fn steady_state_run(
    workload: &dyn Workload,
    config: RunConfig,
    nodes: usize,
    auto_trace: bool,
) -> (f64, u64, u64, u64) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(config.engine)
            .nodes(nodes)
            .dcr(config.dcr)
            .validate(false)
            .auto_trace(auto_trace),
    );
    let run = workload.execute(&mut rt);
    let (_, tput) = steady_state(&run, &rt.timed_schedule(), nodes);
    (
        tput,
        rt.replayed_launches(),
        rt.auto_traces_detected(),
        rt.auto_traces_demoted(),
    )
}

/// The tracing extension experiments, as `[ext_tracing, ext_autotracing]`
/// tables: the ray-casting engine untraced, manually traced
/// (`begin_trace`/`end_trace` in the app), and *unannotated* on a runtime
/// that detects the repeats itself, at paper scale. Tracing removes the
/// per-launch analysis from the steady state, which should flatten the
/// no-DCR curve that analysis costs bend (E9); auto-traced throughput
/// should track manual tracing closely — the detector only costs extra
/// analyzed instances before promotion, which the steady-state median
/// excludes (E10).
pub fn tracing_tables(app: AppKind, node_counts: &[usize]) -> [String; 2] {
    let config = RunConfig {
        engine: EngineKind::RayCast,
        dcr: false,
    };
    let (scale, unit) = app.unit_scale();
    let label = app.label();
    let mut manual = format!(
        "# Extension: dynamic tracing [15] — {label} weak scaling, RayCast No DCR
         # value: {unit}
nodes	untraced	traced	replayed_launches
"
    );
    let mut auto = format!(
        "# Extension: automatic trace detection — {label} weak scaling, RayCast No DCR
         # value: {unit}
nodes	untraced	traced	auto_traced	replayed_manual	replayed_auto	detected	demoted
"
    );
    for &nodes in node_counts {
        let plain = measure(app, app.paper(nodes).as_ref(), config, nodes).throughput_per_node;
        let (manual_tput, manual_replayed, _, _) =
            steady_state_run(app.paper_traced(nodes).as_ref(), config, nodes, false);
        let (auto_tput, auto_replayed, detected, demoted) =
            steady_state_run(app.paper(nodes).as_ref(), config, nodes, true);
        let (plain, manual_tput, auto_tput) =
            (plain / scale, manual_tput / scale, auto_tput / scale);
        manual.push_str(&format!(
            "{nodes}	{plain:.4}	{manual_tput:.4}	{manual_replayed}
"
        ));
        auto.push_str(&format!(
            "{nodes}	{plain:.4}	{manual_tput:.4}	{auto_tput:.4}	{manual_replayed}	{auto_replayed}	{detected}	{demoted}
"
        ));
    }
    [manual, auto]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_configurations_match_paper_legend() {
        let cfgs = RunConfig::evaluated();
        assert_eq!(cfgs.len(), 5);
        let labels: Vec<String> = cfgs.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "RayCast, DCR",
                "RayCast, No DCR",
                "Warnock, DCR",
                "Warnock, No DCR",
                "Paint, No DCR"
            ]
        );
        assert_eq!(cfgs[0].artifact_system(), "neweqcr_dcr");
        assert_eq!(cfgs[4].artifact_system(), "paint_nodcr");
    }

    #[test]
    fn paper_node_counts_are_powers_of_two() {
        assert_eq!(
            paper_node_counts(512),
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        );
        assert_eq!(paper_node_counts(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn measure_produces_sane_stencil_point() {
        let m = measure(
            AppKind::Stencil,
            AppKind::Stencil.bench_scale(2).as_ref(),
            RunConfig {
                engine: EngineKind::RayCast,
                dcr: false,
            },
            2,
        );
        assert!(m.init_time_s > 0.0);
        assert!(m.elapsed_s >= m.init_time_s);
        assert!(m.throughput_per_node > 0.0);
        assert!(m.counters.launches > 0);
    }

    #[test]
    fn artifact_tsv_shape() {
        let m = measure(
            AppKind::Circuit,
            AppKind::Circuit.bench_scale(1).as_ref(),
            RunConfig {
                engine: EngineKind::Paint,
                dcr: false,
            },
            1,
        );
        let tsv = artifact_tsv(&[m], 2);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 reps");
        assert!(lines[0].starts_with("system\tnodes"));
        assert!(lines[1].starts_with("paint_nodcr\t1\t1\t0\t"));
    }

    #[test]
    fn figure_tsv_has_all_configs() {
        let rows = sweep(AppKind::Pennant, &[1, 2], false);
        let fig = init_figure_tsv(&rows);
        let header = fig.lines().nth(1).unwrap();
        assert_eq!(header.split('\t').count(), 6, "nodes + 5 configs");
        assert_eq!(fig.lines().count(), 4, "comment + header + 2 node rows");
    }
}

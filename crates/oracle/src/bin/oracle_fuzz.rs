//! Adversarial fuzz sweep: generated programs × the full execution
//! matrix, every resulting history judged by the saturation checker.
//!
//! ```text
//! oracle_fuzz [--programs N] [--seed S] [--launches L] [--nodes M]
//!             [--out PATH] [--matrix full|quick] [--producers P]
//! ```
//!
//! Writes a TSV summary (default `target/oracle_fuzz.tsv`) with one row
//! per (program, configuration) and exits nonzero if any violation was
//! found — CI runs this with fixed seeds.

use std::io::Write as _;
use viz_oracle::{check, drive_matrix, generate, run_program, Mode, ALL_MODES};

struct Args {
    programs: usize,
    seed: u64,
    launches: usize,
    nodes: usize,
    out: String,
    quick: bool,
    producers: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        programs: 200,
        seed: 0xC0FFEE,
        launches: 28,
        nodes: 2,
        out: "target/oracle_fuzz.tsv".into(),
        quick: false,
        producers: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| panic!("{a} needs a value"));
        match a.as_str() {
            "--programs" => args.programs = val().parse().expect("--programs N"),
            "--seed" => args.seed = val().parse().expect("--seed S"),
            "--launches" => args.launches = val().parse().expect("--launches L"),
            "--nodes" => args.nodes = val().parse().expect("--nodes M"),
            "--out" => args.out = val(),
            "--matrix" => args.quick = val() == "quick",
            "--producers" => args.producers = val().parse::<usize>().expect("--producers P").max(1),
            "--help" | "-h" => {
                eprintln!(
                    "usage: oracle_fuzz [--programs N] [--seed S] [--launches L] \
                     [--nodes M] [--out PATH] [--matrix full|quick] [--producers P]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut matrix = drive_matrix();
    for cfg in &mut matrix {
        cfg.producers = args.producers;
    }
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).expect("create summary dir");
    }
    let mut tsv = std::fs::File::create(&args.out).expect("create summary");
    writeln!(
        tsv,
        "seed\tmode\tengine\tthreads\tpipeline\tauto_trace\tproducers\tlaunches\tpairs\tedges\tviolations"
    )
    .unwrap();

    let mut total_runs = 0u64;
    let mut total_violations = 0u64;
    let mut first_failure: Option<String> = None;
    for p in 0..args.programs {
        let seed = args.seed.wrapping_add(p as u64);
        let mode: Mode = ALL_MODES[p % ALL_MODES.len()];
        let prog = generate(seed, mode, args.launches, args.nodes);
        for (ci, cfg) in matrix.iter().enumerate() {
            // Quick matrix: rotate through the configurations instead of
            // running all 32 per program (CI smoke tier).
            if args.quick && ci % matrix.len() != p % matrix.len() && ci != 0 {
                continue;
            }
            let history = run_program(&prog, *cfg).history;
            let report = check(&history);
            total_runs += 1;
            total_violations += report.violations.len() as u64;
            writeln!(
                tsv,
                "{seed}\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                mode.name(),
                cfg.engine,
                cfg.analysis_threads,
                cfg.pipeline,
                cfg.auto_trace,
                cfg.producers,
                report.launches,
                report.pairs_checked,
                report.edges_checked,
                report.violations.len(),
            )
            .unwrap();
            if !report.ok() && first_failure.is_none() {
                first_failure = Some(format!(
                    "seed {seed} mode {} config {}: {}",
                    mode.name(),
                    cfg.label(),
                    report.violations[0]
                ));
            }
        }
        if (p + 1) % 25 == 0 {
            eprintln!(
                "[oracle_fuzz] {}/{} programs, {} runs, {} violations",
                p + 1,
                args.programs,
                total_runs,
                total_violations
            );
        }
    }
    println!(
        "oracle_fuzz: {} programs x matrix -> {} runs, {} violations (summary: {})",
        args.programs, total_runs, total_violations, args.out
    );
    if total_violations > 0 {
        if let Some(f) = first_failure {
            eprintln!("first failure: {f}");
        }
        std::process::exit(1);
    }
}

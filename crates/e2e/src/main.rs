//! `viz-e2e` command line.
//!
//! ```text
//! viz-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! viz-e2e --all --seed <n> [--seconds <s>] [--smoke]
//! viz-e2e --compare A.json B.json
//! ```

use std::process::{Command, ExitCode};
use viz_e2e::json::Json;
use viz_e2e::{compare, report, run, workloads};

const USAGE: &str =
    "usage: viz-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
       viz-e2e --all --seed <n> [--seconds <s>] [--smoke]
       viz-e2e --compare A.json B.json";

struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        seed: 1,
        seconds: report::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One run of one workload in this process, so `peak_rss_mb` is its own.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let w = workloads::workload(name, args.seed, args.smoke).ok_or(format!(
        "unknown workload {name}; the workloads are {}",
        workloads::NAMES.join(", ")
    ))?;
    let outcome = if args.traced {
        run::run_per_layer(&w, args.seed, args.seconds)
    } else {
        run::run_end_to_end(&w, args.seconds)
    };
    report::print_metrics(&w, args.seed, &outcome, args.traced);
    let dir = report::out_dir();
    let kind = if args.traced { "layers" } else { "e2e" };
    let file = report::file_json(&w, args.seed, args.seconds, &outcome, args.traced);
    report::write(&dir.join(format!("{name}.{kind}.json")), &file)
        .and_then(|()| match &outcome.trace {
            Some((trace, _)) => report::write(&dir.join(format!("{name}.trace.json")), trace),
            None => Ok(()),
        })
        .map_err(|e| format!("writing results under {}: {e}", dir.display()))?;
    // The driver reads the last line of standard output.
    println!("{}", report::result_line(&outcome, args.traced));
    Ok(outcome.correct)
}

/// Every workload, each run in a fresh re-exec'd subprocess.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = report::out_dir();
    let mut ok = true;
    let mut merged = Vec::new();
    for name in workloads::NAMES {
        let mut halves = Vec::new();
        for (trace, kind) in [("0", "e2e"), ("1", "layers")] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("re-exec: {e}"))?;
            ok &= status.success();
            let path = dir.join(format!("{name}.{kind}.json"));
            halves.push(read_json(&path.to_string_lossy())?);
        }
        let both = report::merge(&halves);
        report::write(&dir.join(format!("{name}.json")), &both)
            .map_err(|e| format!("writing {name}.json: {e}"))?;
        merged.push(both);
    }
    let all = dir.join("all.json");
    report::write(&all, &report::merge(&merged)).map_err(|e| format!("writing all.json: {e}"))?;
    println!(
        "# wrote {} (compare two of these with --compare)",
        all.display()
    );
    Ok(ok)
}

fn main() -> ExitCode {
    // Hermetic: the benchmark measures what the defaults give a user, so
    // no `VIZ_*` knob may leak in from the caller's environment. Done
    // before any thread exists.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("VIZ_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        read_json(a)
            .and_then(|a| Ok((a, read_json(b)?)))
            .map(|(a, b)| {
                let (text, agree) = compare::compare(&a, &b);
                print!("{text}");
                agree
            })
    } else if args.all {
        run_all(&args)
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else {
        Err(USAGE.into())
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

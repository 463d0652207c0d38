//! The benchmark's own checks, at `--smoke` sizes: what the harness prints
//! is what `BENCHMARK.json` declares, a replayed rep makes the decisions a
//! black-box `Workload::execute` makes, and exact counts repeat exactly.

use std::collections::BTreeSet;
use std::process::Command;
use viz_e2e::capture::{capture, digest};
use viz_e2e::clock::RefClock;
use viz_e2e::json::Json;
use viz_e2e::metrics::{END_TO_END, PER_LAYER};
use viz_e2e::replay::run_rep;
use viz_e2e::workloads::{workload, Path, NAMES};
use viz_e2e::{report, run};
use viz_runtime::Runtime;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_is_what_the_harness_declares() {
    let file = benchmark_json();
    assert_eq!(file, report::benchmark_json());
    // ... and what it declares fits the driver's schema.
    let keys: Vec<&str> = file.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let mut names = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for item in file.get(list).unwrap().items() {
            let name = item.get("name").and_then(Json::as_str).unwrap();
            assert!(is_name(name), "{name} is not a valid name");
            assert!(names.insert(name.to_string()), "{name} is used twice");
            if let Some(why) = item.get("why").and_then(Json::as_str) {
                assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            }
            if let Some(unit) = item.get("unit").and_then(Json::as_str) {
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "unit {unit} of {name}"
                );
            }
        }
    }
    assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
    let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
    assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
}

/// Run the real binary (it clears `VIZ_*` itself) with its result files
/// under `<scratch>/<test>/e2e/`: tests run in parallel and share no file.
fn viz_e2e(test: &str, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_viz-e2e"))
        .args(args)
        .env(
            "CARGO_TARGET_DIR",
            format!("{}/{test}", env!("CARGO_TARGET_TMPDIR")),
        )
        .env("VIZ_PIPELINE", "1")
        .env("VIZ_GC", "1")
        .output()
        .expect("the benchmark binary runs")
}

fn result_of(out: &std::process::Output) -> Json {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn printed_metric_names_are_the_declared_ones() {
    for (trace, declared) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|e| (e.name, e.unit))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            PER_LAYER
                .iter()
                .map(|p| (p.name, p.unit))
                .collect::<Vec<_>>(),
        ),
    ] {
        let out = viz_e2e(
            "names",
            &[
                "--workload",
                "pennant_waves",
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--smoke",
            ],
        );
        let result = result_of(&out);
        let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let printed: Vec<(&str, &str)> = result
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, v)| (k.as_str(), v.get("unit").and_then(Json::as_str).unwrap()))
            .collect();
        assert_eq!(printed, declared, "--trace {trace}");
        // Every metric is also printed by name for a reader.
        let stdout = String::from_utf8_lossy(&out.stdout);
        for (name, _) in declared {
            assert!(stdout.lines().any(|l| l.starts_with(name)), "{name}");
        }
    }
}

#[test]
fn all_writes_a_file_that_agrees_with_itself() {
    let out = viz_e2e(
        "all",
        &["--all", "--seed", "3", "--seconds", "0.2", "--smoke"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Against itself a result file is never `worse`, lacks nothing and
    // differs in no count; at smoke sizes a timing may be too noisy to
    // resolve, which `--compare` must say.
    let dir = format!("{}/all/e2e", env!("CARGO_TARGET_TMPDIR"));
    let file = format!("{dir}/all.json");
    let out = viz_e2e("all", &["--compare", &file, &file]);
    let report = String::from_utf8_lossy(&out.stdout);
    for name in NAMES {
        for e in END_TO_END {
            let line = report
                .lines()
                .find(|l| l.starts_with(name) && l.contains(e.name))
                .expect(e.name);
            assert!(
                line.contains(" same ") || line.contains(" unresolved "),
                "{line}"
            );
        }
    }
    for bad in ["missing", "differs", "FAILED"] {
        assert!(!report.contains(bad), "{report}");
    }
    assert_eq!(out.status.success(), !report.contains(" unresolved "));
    // Both halves of a workload's launches are counted.
    let all = Json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
    let w = all.get("workloads").unwrap().get(NAMES[0]).unwrap();
    let half = |kind: &str| {
        let path = format!("{dir}/{}.{kind}.json", NAMES[0]);
        Json::parse(&std::fs::read_to_string(path).unwrap())
            .unwrap()
            .get("workloads")
            .and_then(|ws| ws.get(NAMES[0]))
            .and_then(|w| w.get("attempted"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert_eq!(
        w.get("attempted").and_then(Json::as_f64),
        Some(half("e2e") + half("layers"))
    );
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--trace", "0"][..],
        &["--trace", "2"][..],
        &[][..],
    ] {
        let out = viz_e2e("bad", args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn replay_makes_the_decisions_of_a_black_box_execute() {
    for name in NAMES {
        let w = workload(name, 7, true).unwrap();
        let cap = capture(&w, &mut RefClock::new());
        assert_eq!(
            cap.waves.last().unwrap().range.end,
            cap.launches.len(),
            "{name}: waves cover the stream"
        );
        assert_eq!(cap.waves.last().unwrap().iteration, cap.iter_end.len() - 1);
        // An independent black-box run of the app...
        let mut rt = Runtime::new(Path::SYNC.config(w.app.nodes()));
        w.app.build().execute(&mut rt);
        assert_eq!(digest(&rt.results()), cap.digest, "{name}: capture");
        // ... and a replay down the workload's own path.
        let rep = run_rep(&cap, w.path, None);
        assert_eq!(rep.timing.refused, 0);
        assert!(cap.matches(&rep.rt), "{name}: replay");
        assert_eq!(
            rep.timing.steady_wave_ns.len(),
            cap.waves
                .iter()
                .filter(|w| w.range.start >= cap.init_launches())
                .count()
        );
    }
}

#[test]
fn two_smoke_runs_give_identical_exact_counts() {
    for name in NAMES {
        let w = workload(name, 11, true).unwrap();
        let a = run::run_per_layer(&w, 11, 0.05);
        let b = run::run_per_layer(&w, 11, 0.05);
        assert!(a.correct && b.correct, "{name}: checks");
        assert_eq!((a.failed, b.failed), (0, 0));
        for p in PER_LAYER {
            let (va, vb) = (a.metrics.value(p.name), b.metrics.value(p.name));
            assert!(va.is_finite(), "{name}: {} = {va}", p.name);
            if p.exact {
                assert_eq!(va, vb, "{name}: {} must repeat exactly", p.name);
            }
        }
        // The three shares of a steady launch add up by construction.
        let e2e_ns = a.metrics.value("engine.steady_us_per_launch") * 1e3
            + a.metrics.value("dag.push_ns_per_launch")
            + a.metrics.value("runtime.residual_ns_per_launch");
        assert!(e2e_ns > 0.0, "{name}: {e2e_ns}");
        let (trace, self_time) = a.trace.as_ref().unwrap();
        assert_eq!(
            trace.get("traceEvents").unwrap().items().len() as f64,
            // One metadata row per pass: harness, runtime, engine, gc, dag.
            a.metrics.value("trace.spans") + 5.0
        );
        assert!(self_time.contains_key("submit_batch") && self_time.contains_key("gc.collect"));
    }
}

//! What a run prints and writes: every metric by name with its unit, the
//! driver's one-line JSON result, and the result files under
//! `<target>/e2e/` that `--compare` reads.

use crate::json::Json;
use crate::metrics::{layer_of, unit_of, Metrics, END_TO_END, PER_LAYER};
use crate::run::Outcome;
use crate::stats::Summary;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;

/// How long one run measures, as declared to the driver.
pub const RUN_SECONDS: u64 = 25;

/// The contents of the repository's `BENCHMARK.json`, from the tables in
/// [`crate::metrics`] and [`crate::workloads`] (a test pins the file to
/// this).
pub fn benchmark_json() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&["cargo", "run", "--release", "-q", "-p", "viz-e2e", "--"]),
        ),
        ("paths", strs(&["crates/e2e"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                crate::workloads::NAMES
                    .iter()
                    .map(|n| {
                        Json::obj([
                            ("name", Json::str(*n)),
                            ("why", Json::str(crate::workloads::why(n))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("name", Json::str(e.name)),
                            ("unit", Json::str(e.unit)),
                            ("better", Json::str(e.better.as_str())),
                            ("bound", Json::Num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("name", Json::str(p.name)),
                            ("unit", Json::str(p.unit)),
                            ("better", Json::str(p.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `<target dir>/e2e`, inside the checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("e2e")
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The host block every result file carries.
pub fn host() -> Json {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "kernel",
            Json::str(
                read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "rustc",
            Json::str(rustc.unwrap_or_else(|| "unknown".into())),
        ),
    ])
}

/// A metric as the result files hold it: with its spread, and for a
/// per-layer metric the layer it belongs to.
fn metric_json(name: &str, s: &Summary) -> Json {
    let mut fields = vec![
        ("value", Json::Num(s.value)),
        ("unit", Json::str(unit_of(name).expect("declared metric"))),
        ("halves", Json::Arr(s.halves.map(Json::Num).to_vec())),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("min", Json::Num(s.min)),
        ("n", Json::Num(s.n as f64)),
    ];
    if let Some(layer) = layer_of(name) {
        fields.push(("layer", Json::str(layer)));
    }
    Json::obj(fields)
}

/// The names a run of this kind must report, in declaration order.
fn declared(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|p| p.name).collect()
    } else {
        END_TO_END.iter().map(|e| e.name).collect()
    }
}

fn metrics_json(m: &Metrics, traced: bool, full: bool) -> Json {
    Json::obj(declared(traced).into_iter().map(|name| {
        let s = m
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let v = if full {
            metric_json(name, s)
        } else {
            Json::obj([
                ("value", Json::Num(s.value)),
                ("unit", Json::str(unit_of(name).expect("declared metric"))),
            ])
        };
        (name, v)
    }))
}

/// The last line of standard output: exactly the keys the driver reads.
pub fn result_line(o: &Outcome, traced: bool) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", metrics_json(&o.metrics, traced, false)),
    ])
}

/// Every metric by name, with unit, median, quartiles, minimum and sample
/// count.
pub fn print_metrics(w: &Workload, seed: u64, o: &Outcome, traced: bool) {
    println!("# {}: {}", w.name, crate::workloads::why(w.name));
    println!(
        "# {} seed {}{}",
        w.name,
        seed,
        if w.seeded {
            ""
        } else {
            " (this stream is fully determined by its size; the seed only moves query samples)"
        }
    );
    for name in declared(traced) {
        let s = o.metrics.get(name).expect("declared metrics are measured");
        let unit = unit_of(name).expect("declared metric");
        let mut line = format!("{name:<40} {:>16.4} {unit}", s.value);
        if s.n > 1 {
            line += &format!(
                "   halves {:.4} {:.4}  median {:.4}  q1 {:.4}  q3 {:.4}  n {}",
                s.halves[0], s.halves[1], s.median, s.q1, s.q3, s.n
            );
        }
        if let Some(note) = o.metrics.note_of(name) {
            line += &format!("   ({note})");
        }
        println!("{line}");
    }
    if let Some((_, self_time)) = &o.trace {
        println!("# self time by span class (duration minus children)");
        for (class, ns) in self_time {
            println!("self.{class:<35} {:>16.4} ms", *ns as f64 / 1e6);
        }
    }
    println!(
        "# checks: {} ({} launches attempted, {} failed)",
        if o.correct { "passed" } else { "FAILED" },
        o.attempted,
        o.failed
    );
}

/// One run's result file: the shape `--compare` reads, with one workload.
pub fn file_json(w: &Workload, seed: u64, seconds: f64, o: &Outcome, traced: bool) -> Json {
    let mut body = vec![
        ("seeded".to_string(), Json::Bool(w.seeded)),
        ("correct".to_string(), Json::Bool(o.correct)),
        ("attempted".to_string(), Json::Num(o.attempted as f64)),
        ("failed".to_string(), Json::Num(o.failed as f64)),
        (
            if traced { "per_layer" } else { "end_to_end" }.to_string(),
            metrics_json(&o.metrics, traced, true),
        ),
    ];
    if let Some((_, self_time)) = &o.trace {
        body.push((
            "self_time_ms".into(),
            Json::obj(
                self_time
                    .iter()
                    .map(|(class, ns)| (class.as_str(), Json::Num(*ns as f64 / 1e6))),
            ),
        ));
    }
    Json::obj([
        ("bench", Json::str("viz-e2e")),
        ("host", host()),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::obj([(w.name, Json::Obj(body))])),
    ])
}

/// Fold the result files of several runs into one (`--all`).
pub fn merge(files: &[Json]) -> Json {
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for f in files {
        for (name, body) in f.get("workloads").map_or(&[][..], Json::fields) {
            match workloads.iter_mut().find(|(n, _)| n == name) {
                Some((_, Json::Obj(have))) => {
                    for (k, v) in body.fields() {
                        match have.iter_mut().find(|(hk, _)| hk == k) {
                            // Both halves must have passed ...
                            Some((_, Json::Bool(b))) => *b &= *v == Json::Bool(true),
                            // ... and the launches of both count.
                            Some((_, Json::Num(x))) => *x += v.as_f64().unwrap_or(0.0),
                            Some(_) => {}
                            None => have.push((k.clone(), v.clone())),
                        }
                    }
                }
                _ => workloads.push((name.clone(), body.clone())),
            }
        }
    }
    let first = files.first().expect("at least one result file");
    Json::obj(
        ["bench", "host", "seed", "seconds"]
            .into_iter()
            .filter_map(|k| first.get(k).map(|v| (k, v.clone())))
            .chain([("workloads", Json::Obj(workloads))]),
    )
}

pub fn write(path: &Path, json: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{json}\n"))
}

//! The two kinds of run. An end-to-end run (`--trace 0`) sets up, measures
//! untraced reps for the requested time and checks them. A per-layer run
//! (`--trace 1`) is separate and never mixed into those reps: rounds of
//! variant reps (unvalidated, profiled, traced, the special path) and the
//! bare-layer passes.

use crate::capture::{capture, Capture};
use crate::clock::RefClock;
use crate::json::Json;
use crate::layers;
use crate::metrics::Metrics;
use crate::replay::{run_rep, Rep, Timing};
use crate::stats::{median, sorted, tail};
use crate::trace::Tracer;
use crate::workloads::{Path, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};
use viz_runtime::{EngineKind, Runtime};

/// Set-ups per end-to-end run; `setup_s` is the fastest. (No more than
/// four, because the driver's 70 runs must fit 57 minutes and a set-up
/// takes 1 to 3 s; no fewer, because each half of them must hold two.)
const SETUPS: usize = 4;
/// A run never reports a value from fewer reps than this.
const MIN_REPS: usize = 3;
/// Rounds of differential reps in a per-layer run.
const MIN_ROUNDS: usize = 2;

pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Launches submitted by reps of the workload's own path.
    pub attempted: u64,
    /// Launches refused, never committed, or belonging to a rep whose
    /// analysis differs from the capture pass.
    pub failed: u64,
    pub metrics: Metrics,
    /// Chrome trace and per-class self times (per-layer runs only).
    pub trace: Option<(Json, BTreeMap<String, u64>)>,
}

/// A rep either reproduces the captured analysis or all of its launches
/// count as failed.
fn failed_launches(cap: &Capture, rep: &Rep) -> u64 {
    if rep.timing.refused == 0 && cap.matches(&rep.rt) {
        0
    } else {
        cap.launches.len() as u64
    }
}

/// Run the small value-mode twin with real task bodies: every probe must
/// equal the serial reference bit for bit, and the dependence graph must
/// order every interfering pair. Returns (ok, `execute_values` ms, launches).
fn twin_check(w: &Workload, path: Path) -> (bool, f64, usize) {
    let app = w.twin.build();
    let mut rt = Runtime::new(path.config(w.twin.nodes()));
    let run = app.execute(&mut rt);
    let sound =
        viz_runtime::validate::check_sufficiency(rt.forest(), rt.launches(), rt.dag()).is_empty();
    let (store, values_ns) = RefClock::new().time(|| rt.execute_values());
    let values_ms = values_ns / 1e6;
    let expect = app.reference();
    let exact = run.probes.len() == expect.len()
        && run.probes.iter().zip(&expect).all(|(probe, exp)| {
            let got = store.inline(*probe);
            got.values().len() == exp.len()
                && got
                    .iter()
                    .zip(exp)
                    .all(|((_, v), e)| v.to_bits() == e.to_bits())
        });
    let launches = rt.launches().len();
    (sound && exact, values_ms, launches)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn per_rep(reps: &[Timing], f: impl Fn(&Timing) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

fn least(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Median over the steady-state iterations of one rep of the time the
/// application thread spent blocked in `submit_batch` during an iteration.
fn iter_blocked_median_us(t: &Timing) -> f64 {
    let iters: Vec<f64> = t.steady_iter_blocked_ns.iter().map(|ns| ns / 1e3).collect();
    median(&iters)
}

/// The end-to-end timings of the synchronous path, in declaration order.
const TIMINGS: [&str; 4] = [
    "launches_per_s",
    "init_ms",
    "steady_us_per_launch",
    "iter_blocked_us_p50",
];

/// What the stream costs when nothing disturbs it, from some reps of it.
/// Every rep submits the same launches, so the stream is cut into slices
/// whose costs add up to a rep's (the initialization phase, each
/// steady-state iteration, the final drain), and a slice costs the least
/// it cost in any of the reps. Returns the [`TIMINGS`]. (For a synchronous
/// path: there the time blocked in `submit_batch` is the whole cost.)
///
/// What disturbs a rep on a shared host (a neighbour on the sibling
/// hardware thread, in the cache, on the memory bus) only ever slows it
/// down, in phases of seconds: the median over a run's reps moves with how
/// many of them a phase hit (9 to 14 % between the quartiles of ten runs
/// of identical code), the slice-wise minimum by half of that (README.md,
/// "Noise"). Work the program does at the same launch in every rep is in
/// every sample, so it cannot hide from the minimum.
fn floor(cap: &Capture, reps: &[&Timing]) -> [f64; 4] {
    let init_ns = least(reps.iter().map(|t| t.init_ns));
    let iter_ns: Vec<f64> = (0..reps[0].steady_iter_blocked_ns.len())
        .map(|k| least(reps.iter().map(|t| t.steady_iter_blocked_ns[k])))
        .collect();
    let steady_ns = iter_ns.iter().sum::<f64>() + least(reps.iter().map(|t| t.flush_ns));
    [
        cap.launches.len() as f64 / ((init_ns + steady_ns) / 1e9),
        init_ns / 1e6,
        steady_ns / 1e3 / cap.steady_launches() as f64,
        median(&iter_ns) / 1e3,
    ]
}

/// Every other element, from the first (`0`) or the second (`1`).
fn half<T>(items: &[T], from: usize) -> Vec<&T> {
    items.iter().skip(from).step_by(2).collect()
}

pub fn run_end_to_end(w: &Workload, seconds: f64) -> Outcome {
    let mut m = Metrics::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cap = None;
    for _ in 0..SETUPS {
        // One set-up's memory at a time, as a user's process would hold.
        drop(cap.take());
        let mut clock = RefClock::new();
        let c = capture(w, &mut clock);
        clock.time(|| black_box(c.build_specs()));
        setups.push(clock.total_ref_ns() / 1e9);
        cap = Some(c);
    }
    let cap = cap.expect("at least one set-up ran");
    // A set-up is one black-box call: its undisturbed cost is the least.
    let fastest = |s: Vec<&f64>| least(s.into_iter().copied());
    m.set_floor(
        "setup_s",
        fastest(setups.iter().collect()),
        [fastest(half(&setups, 0)), fastest(half(&setups, 1))],
        &setups,
    );

    let n = cap.launches.len() as u64;
    let (mut attempted, mut failed) = (0, 0);
    let mut reps: Vec<Timing> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let phase = Instant::now();
    while reps.len() < MIN_REPS || phase.elapsed() < budget {
        let rep = run_rep(&cap, w.path, None);
        attempted += n;
        failed += failed_launches(&cap, &rep);
        reps.push(rep.timing);
    }
    m.set("peak_rss_mb", peak_rss_mb());

    let all = floor(&cap, &reps.iter().collect::<Vec<_>>());
    let halves = [floor(&cap, &half(&reps, 0)), floor(&cap, &half(&reps, 1))];
    let each: Vec<[f64; 4]> = reps.iter().map(|t| floor(&cap, &[t])).collect();
    for (i, name) in TIMINGS.into_iter().enumerate() {
        m.set_floor(
            name,
            all[i],
            [halves[0][i], halves[1][i]],
            &each.iter().map(|v| v[i]).collect::<Vec<_>>(),
        );
    }
    let ratio = median(&per_rep(&reps, |t| t.clock_ratio));
    m.note(
        "launches_per_s",
        format!(
            "at the {} GHz reference clock; the reps ran at {:.2} GHz",
            crate::clock::REF_GHZ,
            crate::clock::REF_GHZ / ratio,
        ),
    );

    let (twin_ok, _, _) = twin_check(w, w.path);
    Outcome {
        correct: failed == 0 && twin_ok,
        attempted,
        failed,
        metrics: m,
        trace: None,
    }
}

/// Counters read off a drained runtime: the priced operations of the
/// simulated machine and the simulated schedule, computed as
/// `viz_bench::measure` does. All but the schedule's own wall time are
/// deterministic for a given stream, so one rep is enough.
fn sim_counters(cap: &Capture, rt: &mut Runtime, m: &mut Metrics) {
    let n = cap.launches.len() as f64;
    let k = rt.machine().counters().clone();
    m.set("sim.geom_ops_per_launch", k.geom_ops as f64 / n);
    m.set(
        "sim.hist_entries_per_launch",
        k.hist_entries_scanned as f64 / n,
    );
    m.set("sim.messages_per_launch", k.messages as f64 / n);
    m.set("sim.bytes_per_launch", k.bytes as f64 / n);
    let (report, ns) = RefClock::new().time(|| rt.timed_schedule());
    m.set("exec.timed_schedule_ms", ns / 1e6);
    m.set(
        "sim.init_s",
        report.completion_through(cap.iter_end[0]) as f64 * 1e-9,
    );
    // Steady state: the median per-iteration delta over the last half of
    // the iterations.
    let mut deltas: Vec<u64> = cap
        .iter_end
        .windows(2)
        .map(|p| report.completion_through(p[1]) - report.completion_through(p[0]))
        .collect();
    let mut late = deltas.split_off(deltas.len() / 2);
    late.sort_unstable();
    let per_iter_s = late.get(late.len() / 2).map_or(0.0, |ns| *ns as f64 * 1e-9);
    m.set(
        "sim.elems_per_s_node",
        if per_iter_s > 0.0 {
            cap.elements_per_iter as f64 / per_iter_s / cap.nodes as f64
        } else {
            0.0
        },
    );
}

/// One rep of a variant path. Every variant must still make the captured
/// decisions. (Take what is needed and let the rep go: its runtime must be
/// dropped before the next rep starts.)
fn checked_rep(cap: &Capture, path: Path, correct: &mut bool) -> Rep {
    let rep = run_rep(cap, path, None);
    *correct &= failed_launches(cap, &rep) == 0;
    rep
}

/// What one rep of the whole stream down `path` costs undisturbed, in ns,
/// from some reps of it.
fn rep_floor_ns(cap: &Capture, path: Path, reps: &[Timing]) -> f64 {
    if path.pipeline {
        // The analysis runs beside the submitter: a rep costs its wall
        // time, which has no slices that add up to it.
        least(reps.iter().map(|t| t.total_ns))
    } else {
        let launches_per_s = floor(cap, &reps.iter().collect::<Vec<_>>())[0];
        cap.launches.len() as f64 / launches_per_s * 1e9
    }
}

pub fn run_per_layer(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut m = Metrics::default();
    let cap = capture(w, &mut RefClock::new());
    m.set("apps.build_ms", cap.build_ms);
    m.set("apps.execute_cold_ms", cap.execute_cold_ms);
    layers::region_layer(&cap, &mut m);
    let n = cap.launches.len() as u64;
    let (mut attempted, mut failed) = (0, 0);
    let mut correct = true;

    // Rounds of reps: the workload's own path, the bare engine over the
    // same stream, the path without launch validation, the path with
    // viz-profile recording, the path with the harness's spans around
    // every wave, and the workload's special submission path if it has
    // one. Each variant's cost is its undisturbed cost over the rounds.
    let unvalidated = Path {
        validate: false,
        ..w.path
    };
    let mut base: Vec<Timing> = Vec::new();
    let mut engine: Vec<layers::EnginePass> = Vec::new();
    let (mut no_validate, mut profiled, mut alt_reps) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = Vec::new();
    let mut tracer = Tracer::new();
    let mut stats_call_us = Vec::new();
    let (mut profile_events, mut profile_dropped) = (0u64, 0u64);
    let mut pipe = viz_runtime::PipelineStats::default();
    // Two thirds of the requested time go to the rounds; the bare-layer
    // passes below take about the other third again.
    let budget = Duration::from_secs_f64(seconds * 2.0 / 3.0);
    let phase = Instant::now();
    while base.len() < MIN_ROUNDS || phase.elapsed() < budget {
        // No rep outlives its turn: a second live runtime doubles the
        // resident set and slows whatever runs beside it.
        let mut rep = run_rep(&cap, w.path, None);
        attempted += n;
        failed += failed_launches(&cap, &rep);
        let (_, ns) = RefClock::new().time(|| black_box(rep.rt.stats()));
        stats_call_us.push(ns / 1e3);
        if base.is_empty() {
            sim_counters(&cap, &mut rep.rt, &mut m);
        }
        base.push(rep.timing);
        drop(rep.rt);

        engine.push(layers::engine_pass(&cap, &mut m));

        no_validate.push(checked_rep(&cap, unvalidated, &mut correct).timing);
        viz_profile::enable();
        profiled.push(checked_rep(&cap, w.path, &mut correct).timing);
        viz_profile::disable();
        let p = viz_profile::take();
        profile_events = p.events.len() as u64 + p.dropped;
        profile_dropped = p.dropped;
        // The last round's spans are the ones written out.
        tracer = Tracer::new();
        tracer.pass("runtime");
        let rep = run_rep(&cap, w.path, Some(&mut tracer));
        correct &= failed_launches(&cap, &rep) == 0;
        traced.push(rep.timing);
        drop(rep.rt);
        if let Some(path) = w.alt {
            let rep = checked_rep(&cap, path, &mut correct);
            pipe = rep.rt.stats().pipeline.unwrap_or(pipe);
            alt_reps.push(rep.timing);
        }
    }
    let rounds = base.len();
    let base_ns = rep_floor_ns(&cap, w.path, &base);
    let against_base = |path: Path, reps: &[Timing]| rep_floor_ns(&cap, path, reps) / base_ns;
    correct &= engine.iter().all(|e| e.reproduced);

    let ratio = median(&per_rep(&base, |t| t.clock_ratio));
    m.set("host.clock_ratio", ratio);
    m.note(
        "host.clock_ratio",
        format!(
            "reference {} GHz over the clock the reps ran at",
            crate::clock::REF_GHZ
        ),
    );
    // Uncorrected in both ways: by the wall clock, median over the reps.
    m.set(
        "host.wall_launches_per_s",
        median(&per_rep(&base, |t| {
            n as f64 / (t.total_ns * t.clock_ratio / 1e9)
        })),
    );
    m.set(
        "runtime.validate_ns_per_launch",
        (1.0 - against_base(unvalidated, &no_validate)) * base_ns / n as f64,
    );
    m.note(
        "runtime.validate_ns_per_launch",
        format!("differential: {rounds} reps with validate(false) against {rounds} with"),
    );
    m.set(
        "profile.enabled_overhead_pct",
        (against_base(w.path, &profiled) - 1.0) * 100.0,
    );
    m.set(
        "trace.overhead_pct",
        (against_base(w.path, &traced) - 1.0) * 100.0,
    );
    m.set(
        "profile.events_per_launch",
        profile_events as f64 / n as f64,
    );
    m.set("profile.dropped_events", profile_dropped as f64);
    m.set("runtime.stats_call_us", median(&stats_call_us));
    let waves = sorted(
        &base
            .iter()
            .flat_map(|t| t.steady_wave_ns.iter().map(|ns| ns / 1e3))
            .collect::<Vec<_>>(),
    );
    let (pct, value) = tail(&waves);
    m.set("runtime.wave_us_tail", value);
    m.note(
        "runtime.wave_us_tail",
        format!("p{pct} of {} steady-state waves", waves.len()),
    );

    // The special submission path of the workload, measured against its
    // own (plain synchronous) path. 0 = the workload has no such path.
    let alt = w.alt.unwrap_or(w.path);
    let of_pipelined = |f: fn(&Timing) -> f64| {
        if alt.pipeline {
            median(&per_rep(&alt_reps, f))
        } else {
            0.0
        }
    };
    m.set(
        "pipeline.iter_blocked_us_p50",
        of_pipelined(iter_blocked_median_us),
    );
    m.set("pipeline.drain_wait_ms", of_pipelined(|t| t.flush_ns / 1e6));
    m.set("pipeline.stalls", pipe.stalls as f64);
    m.set("pipeline.stalled_ms", pipe.stalled_ns as f64 / 1e6);
    m.set("pipeline.max_depth", pipe.max_depth as f64);
    m.set("pipeline.combines", pipe.combines as f64);
    m.set(
        "pipeline.specs_per_combine",
        pipe.combined_specs as f64 / pipe.combines.max(1) as f64,
    );
    // Throughput of the special path over throughput of the plain one.
    let against_plain = w.alt.map_or(0.0, |alt| 1.0 / against_base(alt, &alt_reps));
    m.set(
        "pipeline.sync_ratio",
        if alt.pipeline { against_plain } else { 0.0 },
    );
    let sharded = alt.threads > 1;
    m.set(
        "sharding.speedup_vs_serial",
        if sharded { against_plain } else { 0.0 },
    );
    let shards: BTreeSet<(u32, u32)> = cap
        .launches
        .iter()
        .filter(|_| sharded)
        .flat_map(|l| &l.reqs)
        .map(|r| (cap.forest.root_of(r.region).0, r.field.0))
        .collect();
    m.set("sharding.shards", shards.len() as f64);

    // The bare layers. The engine's undisturbed cost, like the runtime's:
    // each piece of the stream from the pass that ran it fastest.
    let engine_ns = |pieces: fn(&layers::EnginePass) -> &Vec<f64>| -> f64 {
        (0..pieces(&engine[0]).len())
            .map(|k| least(engine.iter().map(|e| pieces(e)[k])))
            .sum()
    };
    let (init_ns, steady_ns) = (
        engine_ns(|e| &e.init_pieces_ns),
        engine_ns(|e| &e.steady_pieces_ns),
    );
    m.set(
        "engine.analyze_ns_per_launch",
        (init_ns + steady_ns) / n as f64,
    );
    m.set(
        "engine.init_us_per_launch",
        init_ns / 1e3 / cap.init_launches() as f64,
    );
    m.set(
        "engine.steady_us_per_launch",
        steady_ns / 1e3 / cap.steady_launches().max(1) as f64,
    );
    layers::engine_split_pass(&cap, &mut tracer, &mut m);
    // `analyze` is `prepare` + `analyze_shard` + replaying the recorded
    // charges into the simulated machine and assembling the result.
    m.set(
        "sim.charge_replay_ns_per_launch",
        m.value("engine.analyze_ns_per_launch")
            - m.value("engine.prepare_ns_per_launch")
            - m.value("engine.analyze_shard_ns_per_launch"),
    );
    m.note(
        "sim.charge_replay_ns_per_launch",
        "differential: analyze - prepare - analyze_shard",
    );
    correct &= layers::gc_pass(&cap, &mut tracer, &mut m);
    layers::dag_pass(&cap, seed, &mut tracer, &mut m);
    layers::geometry_pass(&cap, seed, &mut m);
    let (warnock_ns, warnock_sets) =
        layers::cross_engine(&cap, EngineKind::Warnock, cap.launches.len());
    m.set("engine.warnock.analyze_ns_per_launch", warnock_ns);
    m.set("engine.warnock.equivalence_sets", warnock_sets as f64);
    let (paint_ns, _) = layers::cross_engine(&cap, EngineKind::Paint, layers::PAINT_PREFIX);
    m.set("engine.paint.analyze_ns_per_launch", paint_ns);
    m.note(
        "engine.paint.analyze_ns_per_launch",
        format!(
            "first {} launches only",
            layers::PAINT_PREFIX.min(cap.launches.len())
        ),
    );

    // What cannot be reached from outside is what is left of a steady
    // launch after the engine and the DAG: by construction the three add
    // up to the undisturbed steady-state cost per launch of this run's own
    // reps (`floor`, as the end-to-end run computes it).
    let steady_ns = floor(&cap, &base.iter().collect::<Vec<_>>())[2] * 1e3;
    m.set(
        "runtime.residual_ns_per_launch",
        steady_ns
            - m.value("engine.steady_us_per_launch") * 1e3
            - m.value("dag.push_ns_per_launch"),
    );
    m.note(
        "runtime.residual_ns_per_launch",
        format!("of {steady_ns:.0} ns per steady launch end to end, from {rounds} reps"),
    );

    let (mut twin_ok, values_ms, twin_launches) = twin_check(w, w.path);
    if let Some(alt) = w.alt {
        twin_ok &= twin_check(w, alt).0;
    }
    m.set("exec.values_ms", values_ms);
    m.set("exec.twin_launches", twin_launches as f64);
    m.set("trace.spans", tracer.spans().len() as f64);

    Outcome {
        correct: correct && failed == 0 && twin_ok,
        attempted,
        failed,
        metrics: m,
        trace: Some((tracer.chrome_trace(), tracer.self_time_ns())),
    }
}

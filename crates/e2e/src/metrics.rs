//! Every metric the benchmark reports, declared once. `BENCHMARK.json`
//! lists the same names, units, directions and bounds (a test pins that);
//! `README.md` says which end-to-end metric each layer should move.

use crate::stats::Summary;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the runtime would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Every timing below is taken at the reference clock ([`crate::clock`])
/// and reports the least each slice of the work cost in any repeat of the
/// run (`run::Floor`). Ten runs of identical code then differ by 2 to 8 %
/// between their quartiles on the 2-core virtual host this was written on,
/// where medians of wall times differed by up to 25 % (README.md, "Noise").
/// The bound is three times the widest spread seen, which is also the
/// largest bound the driver allows.
const TIMING_BOUND: f64 = 0.25;

pub const END_TO_END: &[EndToEnd] = &[
    // One full set-up: app construction, region-forest and partition
    // construction, the capture pass, and the spec build for one rep. The
    // fastest of 4 set-ups per run.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: TIMING_BOUND,
    },
    // Launches / time from the first submit until everything has committed.
    EndToEnd {
        name: "launches_per_s",
        unit: "1/s",
        better: Higher,
        bound: TIMING_BOUND,
    },
    // First submit until the last launch of top-level iteration 0 has
    // committed (the phase of Figs 12-14).
    EndToEnd {
        name: "init_ms",
        unit: "ms",
        better: Lower,
        bound: TIMING_BOUND,
    },
    // (total - init) / launches after iteration 0 (the phase of Figs 15-17).
    EndToEnd {
        name: "steady_us_per_launch",
        unit: "us",
        better: Lower,
        bound: TIMING_BOUND,
    },
    // Time the application thread is blocked in `submit_batch` during one
    // steady-state iteration: median over the iterations.
    EndToEnd {
        name: "iter_blocked_us_p50",
        unit: "us",
        better: Lower,
        bound: TIMING_BOUND,
    },
    // VmHWM of the workload's process after the last rep.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
    },
];

/// A metric of one layer, measured from outside through its public calls.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Module the number belongs to.
    pub layer: &'static str,
    /// An exact count: it must repeat exactly between runs of one seed.
    pub exact: bool,
}

const fn timed(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, layer: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        layer,
        exact: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // host: the clock the run's own reps saw, and their throughput by the
    // wall clock, for a reader who wants the uncorrected figure
    timed("host.clock_ratio", "ratio", Lower, "host"),
    timed("host.wall_launches_per_s", "1/s", Higher, "host"),
    // apps / region -> setup_s (circuit_sparse)
    timed("apps.build_ms", "ms", Lower, "apps"),
    timed("apps.execute_cold_ms", "ms", Lower, "apps"),
    count("region.regions", "count", "region"),
    timed("region.lookup_ns_per_req", "ns", Lower, "region"),
    // runtime (facade, Core, ledger, trace detector, locks)
    timed("runtime.residual_ns_per_launch", "ns", Lower, "runtime"),
    timed("runtime.validate_ns_per_launch", "ns", Lower, "runtime"),
    timed("runtime.wave_us_tail", "us", Lower, "runtime"),
    timed("runtime.stats_call_us", "us", Lower, "runtime"),
    // engine (bare EngineKind::build() over the captured stream)
    timed("engine.prepare_ns_per_launch", "ns", Lower, "engine"),
    timed("engine.analyze_shard_ns_per_launch", "ns", Lower, "engine"),
    timed("engine.analyze_ns_per_launch", "ns", Lower, "engine"),
    timed("engine.init_us_per_launch", "us", Lower, "engine"),
    timed("engine.steady_us_per_launch", "us", Lower, "engine"),
    count("engine.sets_swept_per_launch", "count", "engine"),
    count("engine.candidates_per_launch", "count", "engine"),
    count("engine.equivalence_sets", "count", "engine"),
    count("engine.history_entries", "count", "engine"),
    count("engine.index_nodes", "count", "engine"),
    count("engine.memo_entries", "count", "engine"),
    count("engine.deps_per_launch", "count", "engine"),
    timed(
        "engine.warnock.analyze_ns_per_launch",
        "ns",
        Lower,
        "engine",
    ),
    count("engine.warnock.equivalence_sets", "count", "engine"),
    timed("engine.paint.analyze_ns_per_launch", "ns", Lower, "engine"),
    // gc (bare engine + TaskDag, swept every 1024 launches)
    timed("gc.collect_us_per_sweep", "us", Lower, "gc"),
    count("gc.dropped_per_sweep", "count", "gc"),
    timed("gc.analyze_ns_per_launch_with_gc", "ns", Lower, "gc"),
    timed("gc.dag_retire_us_per_sweep", "us", Lower, "gc"),
    count("gc.tag_words_after", "count", "gc"),
    // dag (bare TaskDag fed the captured deps)
    timed("dag.push_ns_per_launch", "ns", Lower, "dag"),
    timed("dag.must_follow_ns", "ns", Lower, "dag"),
    count("dag.tag_words", "count", "dag"),
    count("dag.edges_per_launch", "count", "dag"),
    // geometry (requirement domains replayed into the spatial indexes)
    timed("geometry.bvh_insert_ns", "ns", Lower, "geometry"),
    timed("geometry.bvh_query_ns", "ns", Lower, "geometry"),
    timed("geometry.flat_snapshot_us", "us", Lower, "geometry"),
    timed("geometry.flat_batch_query_ns", "ns", Lower, "geometry"),
    timed("geometry.algebra_op_ns", "ns", Lower, "geometry"),
    timed("geometry.algebra_hit_ratio", "ratio", Higher, "geometry"),
    timed(
        "geometry.engine_algebra_hit_ratio",
        "ratio",
        Higher,
        "geometry",
    ),
    count("geometry.interned_spaces", "count", "geometry"),
    // sim (priced operations and the simulated schedule; deterministic)
    count("sim.geom_ops_per_launch", "count", "sim"),
    count("sim.hist_entries_per_launch", "count", "sim"),
    count("sim.messages_per_launch", "count", "sim"),
    count("sim.bytes_per_launch", "count", "sim"),
    timed("sim.charge_replay_ns_per_launch", "ns", Lower, "sim"),
    count("sim.init_s", "s", "sim"),
    PerLayer {
        name: "sim.elems_per_s_node",
        unit: "1/s",
        better: Higher,
        layer: "sim",
        exact: true,
    },
    timed("exec.timed_schedule_ms", "ms", Lower, "exec"),
    // pipeline (pennant_pipe only; 0 on synchronous workloads)
    timed("pipeline.iter_blocked_us_p50", "us", Lower, "pipeline"),
    timed("pipeline.drain_wait_ms", "ms", Lower, "pipeline"),
    timed("pipeline.stalls", "count", Lower, "pipeline"),
    timed("pipeline.stalled_ms", "ms", Lower, "pipeline"),
    timed("pipeline.max_depth", "count", Lower, "pipeline"),
    timed("pipeline.combines", "count", Lower, "pipeline"),
    timed("pipeline.specs_per_combine", "count", Higher, "pipeline"),
    timed("pipeline.sync_ratio", "ratio", Higher, "pipeline"),
    // sharding (stencil_sharded only; 0 elsewhere)
    timed("sharding.speedup_vs_serial", "ratio", Higher, "sharding"),
    count("sharding.shards", "count", "sharding"),
    // exec (the small value-mode twin)
    timed("exec.values_ms", "ms", Lower, "exec"),
    count("exec.twin_launches", "count", "exec"),
    // profile / the harness's own tracing
    timed("profile.enabled_overhead_pct", "%", Lower, "profile"),
    timed("profile.events_per_launch", "count", Lower, "profile"),
    timed("profile.dropped_events", "count", Lower, "profile"),
    timed("trace.overhead_pct", "%", Lower, "trace"),
    count("trace.spans", "count", "trace"),
];

pub fn layer_of(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|p| p.name == name).map(|p| p.layer)
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// The values of one run, keyed by declared metric name.
#[derive(Default, Debug, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, Summary>,
    /// Free-form remarks printed beside a metric (which percentile the
    /// tail is, what a differential is relative to).
    notes: BTreeMap<&'static str, String>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.set_summary(name, Summary::single(v));
    }

    pub fn set_summary(&mut self, name: &'static str, s: Summary) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, s);
    }

    pub fn note(&mut self, name: &'static str, note: impl Into<String>) {
        self.notes.insert(name, note.into());
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.values.get(name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("metric {name} not measured"))
            .value
    }

    /// An end-to-end timing: its undisturbed value over all repeats of
    /// the run (see `run::floor`), the same from every other repeat (what
    /// `--compare` takes as the value's own uncertainty), and the median,
    /// quartiles and count of the single repeats.
    pub fn set_floor(&mut self, name: &'static str, value: f64, halves: [f64; 2], each: &[f64]) {
        self.set_summary(
            name,
            Summary {
                value,
                halves,
                ..crate::stats::summarize(each)
            },
        );
    }

    pub fn note_of(&self, name: &str) -> Option<&str> {
        self.notes.get(name).map(String::as_str)
    }
}

//! The sharded-analysis determinism gate: running the visibility analysis
//! on a multi-thread scoped worker pool must be **byte-identical** to the
//! serial driver — same dependences, same materialization plans, same
//! simulated clocks, counters, and makespans. The batched driver only
//! reorders *host* work (per-`(root, field)` scans run concurrently); the
//! pipelined commit stage replays every launch's recorded machine charges
//! in the exact order the serial driver would have issued them. The
//! oracle's history is compared too: whatever path a launch took to the
//! one commit (serial analyze, sharded retire, trace replay, fence), the
//! ledger and DAG rows it left read back the same.

use visibility::apps::{
    Circuit, CircuitConfig, Pennant, PennantConfig, Stencil, StencilConfig, Workload,
};
use visibility::prelude::*;
use visibility::sim::SimTime;

fn run_one(
    workload: &dyn Workload,
    engine: EngineKind,
    nodes: usize,
    dcr: bool,
    threads: usize,
    auto_trace: bool,
) -> Snapshot {
    let mut rt = Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(nodes)
            .dcr(dcr)
            .analysis_threads(threads)
            .auto_trace(auto_trace),
    );
    let run = workload.execute(&mut rt);
    let results: Vec<visibility::runtime::AnalysisResult> = rt.results();
    let analysis_done: Vec<SimTime> = (0..rt.num_tasks() as u32)
        .map(|t| rt.analysis_done(TaskId(t)))
        .collect();
    let clocks = rt.machine().clocks().to_vec();
    let service_clocks = rt.machine().service_clocks().to_vec();
    let counters = rt.machine().counters().clone();
    let state = rt.stats().state;
    let history = rt.recorded_history().expect("GC is off");
    let report = rt.timed_schedule();
    let makespan = report.completion_through(*run.iter_end.last().unwrap());
    Snapshot {
        results,
        analysis_done,
        clocks,
        service_clocks,
        counters,
        state,
        history,
        makespan,
    }
}

struct Snapshot {
    results: Vec<visibility::runtime::AnalysisResult>,
    analysis_done: Vec<SimTime>,
    clocks: Vec<SimTime>,
    service_clocks: Vec<SimTime>,
    counters: visibility::sim::Counters,
    state: visibility::runtime::engine::StateSize,
    history: visibility::runtime::RecordedHistory,
    makespan: SimTime,
}

/// Untraced, so every launch of a batch takes the scan driver, and under
/// the default, which replays the apps' loops once detected. Returns the
/// default's sharded snapshot for case-specific checks.
fn assert_identical(
    workload: &dyn Workload,
    engine: EngineKind,
    nodes: usize,
    dcr: bool,
) -> Snapshot {
    assert_identical_as(workload, engine, nodes, dcr, false);
    assert_identical_as(workload, engine, nodes, dcr, true)
}

fn assert_identical_as(
    workload: &dyn Workload,
    engine: EngineKind,
    nodes: usize,
    dcr: bool,
    auto_trace: bool,
) -> Snapshot {
    let serial = run_one(workload, engine, nodes, dcr, 1, auto_trace);
    let sharded = run_one(workload, engine, nodes, dcr, 4, auto_trace);
    let tag = format!(
        "{} {engine:?} nodes={nodes} dcr={dcr} auto_trace={auto_trace}",
        workload.name()
    );
    assert_eq!(
        serial.results.len(),
        sharded.results.len(),
        "{tag}: launch counts differ"
    );
    for (t, (a, b)) in serial.results.iter().zip(&sharded.results).enumerate() {
        assert_eq!(a.deps, b.deps, "{tag}: dependences of task {t} differ");
        assert_eq!(a.plans, b.plans, "{tag}: plans of task {t} differ");
    }
    assert_eq!(
        serial.analysis_done, sharded.analysis_done,
        "{tag}: per-launch analysis completion times differ"
    );
    assert_eq!(serial.clocks, sharded.clocks, "{tag}: node clocks differ");
    assert_eq!(
        serial.service_clocks, sharded.service_clocks,
        "{tag}: service clocks differ"
    );
    assert_eq!(serial.counters, sharded.counters, "{tag}: counters differ");
    assert_eq!(serial.state, sharded.state, "{tag}: state sizes differ");
    assert_eq!(serial.makespan, sharded.makespan, "{tag}: makespans differ");
    assert_eq!(
        serial.history.retirement, sharded.history.retirement,
        "{tag}: retirement orders differ"
    );
    assert_eq!(serial.history.len(), sharded.history.len());
    for (a, b) in serial
        .history
        .launches
        .iter()
        .zip(&sharded.history.launches)
    {
        let t = a.id;
        assert_eq!(a.id, b.id, "{tag}: recorded ids differ");
        assert_eq!(a.name, b.name, "{tag}: recorded name of {t:?} differs");
        assert_eq!(a.node, b.node, "{tag}: recorded node of {t:?} differs");
        assert_eq!(a.ctx, b.ctx, "{tag}: recorded context of {t:?} differs");
        assert_eq!(a.reqs, b.reqs, "{tag}: recorded reqs of {t:?} differ");
        assert_eq!(
            a.signature, b.signature,
            "{tag}: signature of {t:?} differs"
        );
        assert_eq!(a.deps, b.deps, "{tag}: recorded deps of {t:?} differ");
        assert_eq!(
            a.replayed, b.replayed,
            "{tag}: replay flag of {t:?} differs"
        );
        assert_eq!(a.fence, b.fence, "{tag}: fence flag of {t:?} differs");
    }
    sharded
}

#[test]
fn stencil_sharded_matches_serial_bit_exactly() {
    let app = Stencil::new(StencilConfig {
        nodes: 4,
        vars: 2,
        with_bodies: false,
        ..StencilConfig::small(4, 8, 3)
    });
    for engine in EngineKind::all() {
        assert_identical(&app, engine, 4, true);
        assert_identical(&app, engine, 2, false);
    }
}

#[test]
fn circuit_sharded_matches_serial_bit_exactly() {
    let app = Circuit::new(CircuitConfig {
        nodes: 4,
        with_bodies: false,
        ..CircuitConfig::small(4, 3)
    });
    for engine in EngineKind::all() {
        assert_identical(&app, engine, 4, true);
        assert_identical(&app, engine, 2, false);
    }
}

#[test]
fn pennant_sharded_matches_serial_bit_exactly() {
    let app = Pennant::new(PennantConfig {
        nodes: 4,
        with_bodies: false,
        ..PennantConfig::small(4, 3)
    });
    for engine in EngineKind::all() {
        assert_identical(&app, engine, 4, true);
        assert_identical(&app, engine, 2, false);
    }
}

/// Under the default (auto-tracing on), the serial and two-thread drivers
/// promote at the same launch and replay the same launches: the sharded
/// driver ends its batch at the promoting launch and opens the trace once
/// that launch has committed, as the serial driver does.
#[test]
fn serial_and_sharded_promote_at_the_same_launch() {
    let apps: [Box<dyn Workload>; 3] = [
        Box::new(Stencil::new(StencilConfig::small(4, 8, 6))),
        Box::new(Circuit::new(CircuitConfig::small(4, 6))),
        Box::new(Pennant::new(PennantConfig::small(4, 6))),
    ];
    for app in apps {
        let run = |threads: usize| {
            let mut rt = Runtime::new(
                RuntimeConfig::new(EngineKind::RayCast)
                    .nodes(4)
                    .analysis_threads(threads),
            );
            app.execute(&mut rt);
            let history = rt.recorded_history().expect("GC is off");
            let first_replayed = history.launches.iter().find(|l| l.replayed).map(|l| l.id);
            (
                first_replayed,
                rt.replayed_launches(),
                rt.auto_traces_detected(),
                rt.auto_traces_demoted(),
            )
        };
        let serial = run(1);
        let sharded = run(2);
        let name = app.name();
        assert_eq!(
            serial, sharded,
            "{name}: (first replayed, replayed, detected, demoted)"
        );
        assert!(
            serial.0.is_some() && serial.1 > 0,
            "{name}: the default promotes and replays"
        );
    }
}

#[test]
fn traced_workloads_fall_back_to_serial_and_stay_identical() {
    // Inside begin/end_trace the batched driver must defer to the serial
    // path; the surrounding waves still shard. Everything stays identical.
    let app = Stencil::new(StencilConfig {
        nodes: 2,
        traced: true,
        with_bodies: false,
        ..StencilConfig::small(4, 8, 6)
    });
    assert_identical(&app, EngineKind::RayCast, 2, true);
    // One compared run in which every way into the commit is taken: the
    // init waves shard (four workers), the first trace instances analyze
    // serially, and the later ones replay.
    let app = Circuit::new(CircuitConfig {
        nodes: 2,
        traced: true,
        with_bodies: false,
        ..CircuitConfig::small(4, 6)
    });
    let sharded = assert_identical(&app, EngineKind::RayCast, 2, true);
    let replayed = sharded.history.launches.iter().filter(|l| l.replayed);
    assert!(replayed.count() > 0, "the traced circuit replays");
    assert!(
        sharded.history.launches.iter().any(|l| !l.replayed),
        "and analyzes"
    );
}

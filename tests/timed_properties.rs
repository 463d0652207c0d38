//! Invariants of the timed executor across engines and mappings. The runs
//! are untraced, so every launch carries its engine's analysis charge.

use viz_apps::{Circuit, CircuitConfig, Workload};
use viz_runtime::{EngineKind, Runtime, RuntimeConfig, TaskId};

fn schedule(
    engine: EngineKind,
    nodes: usize,
    dcr: bool,
) -> (
    Runtime,
    viz_runtime::exec::TimedReport,
    viz_apps::WorkloadRun,
) {
    let app = Circuit::new(CircuitConfig {
        nodes,
        nodes_per_piece: 50,
        wires_per_piece: 100,
        with_bodies: false,
        ..CircuitConfig::small(6, 4)
    });
    let mut rt = Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(nodes)
            .dcr(dcr)
            .validate(false)
            .auto_trace(false),
    );
    let run = app.execute(&mut rt);
    let report = rt.timed_schedule();
    (rt, report, run)
}

#[test]
fn completion_respects_dependences_and_analysis() {
    for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
        for (nodes, dcr) in [(1, false), (3, true)] {
            let (rt, report, _) = schedule(engine, nodes, dcr);
            for t in 0..rt.num_tasks() {
                let tid = TaskId(t as u32);
                let launch = &rt.launches()[t];
                // After its dependences…
                for d in rt.dag().preds(tid) {
                    assert!(
                        report.completion[t] > report.completion[d.index()],
                        "{engine:?}: {tid:?} finished before its dependence {d:?}"
                    );
                }
                // …after its analysis, plus its own duration.
                assert!(
                    report.completion[t] >= rt.analysis_done(tid) + launch.duration_ns,
                    "{engine:?}: {tid:?} ran before its analysis completed"
                );
            }
            assert_eq!(
                report.makespan,
                report.completion.iter().copied().max().unwrap()
            );
        }
    }
}

/// Per-node GPU serialization: the tasks of one node can never finish
/// faster than the sum of their durations.
#[test]
fn gpu_throughput_bound() {
    let (rt, report, _) = schedule(EngineKind::RayCast, 3, true);
    for node in 0..3 {
        let total: u64 = rt
            .launches()
            .iter()
            .filter(|l| l.node == node)
            .map(|l| l.duration_ns)
            .sum();
        let last = rt
            .launches()
            .iter()
            .filter(|l| l.node == node)
            .map(|l| report.completion[l.id.index()])
            .max()
            .unwrap_or(0);
        assert!(
            last >= total,
            "node {node}: finished {last} < busy time {total}"
        );
    }
}

/// More nodes must never make the simulated makespan longer for the same
/// per-piece workload with DCR (weak scaling sanity at tiny scale).
#[test]
fn iteration_boundaries_are_monotone() {
    let (_, report, run) = schedule(EngineKind::RayCast, 3, true);
    let mut prev = 0;
    for end in &run.iter_end {
        let t = report.completion_through(*end);
        assert!(t >= prev, "iteration completions must be non-decreasing");
        prev = t;
    }
    assert!(report.makespan >= prev);
}

/// The analysis engines differ in simulated analysis cost but the *task
/// durations* are engine-independent: GPU busy time per node is identical
/// across engines.
#[test]
fn gpu_work_is_engine_independent() {
    let mut sums = Vec::new();
    for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
        let (rt, _, _) = schedule(engine, 3, false);
        let total: u64 = rt.launches().iter().map(|l| l.duration_ns).sum();
        sums.push(total);
    }
    assert_eq!(sums[0], sums[1]);
    assert_eq!(sums[1], sums[2]);
}

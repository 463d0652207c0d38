//! Deferred execution: a value executor (worker threads, real data) and a
//! timed executor (simulated machine, the paper's scaling experiments).
//! Both replay the committed history; neither touches the analysis.

use crate::dag::TaskDag;
use crate::instance::PhysicalRegion;
use crate::ledger::Results;
use crate::plan::Source;
use crate::task::{TaskBody, TaskId, TaskLaunch};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use viz_geometry::{FxHashMap, Point};
use viz_region::{redop::Value, FieldId, Privilege, RedOpRegistry, RegionForest, RegionId};
use viz_sim::{Machine, SimTime};

/// Committed outputs of every task, indexed by `(task, requirement)`.
pub struct ValueStore {
    outputs: Vec<Vec<PhysicalRegion>>,
}

impl ValueStore {
    /// The committed state of requirement `req` of task `t`.
    pub fn output(&self, t: TaskId, req: usize) -> &PhysicalRegion {
        &self.outputs[t.index()][req]
    }

    /// The values materialized by an inline read (see
    /// [`crate::Runtime::inline_read`]).
    pub fn inline(&self, t: TaskId) -> &PhysicalRegion {
        self.output(t, 0)
    }

    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }
}

type InitFn = Arc<dyn Fn(Point) -> Value + Send + Sync>;

/// Inverse of the DAG's predecessor lists: `succs[t]` = the tasks waiting
/// on `t`, ascending. Built here, once per run, for the executor's
/// ready-queue — its only reader.
fn successors(dag: &TaskDag) -> Vec<Vec<TaskId>> {
    let mut succs = vec![Vec::new(); dag.len()];
    for t in (0..dag.len() as u32).map(TaskId) {
        for d in dag.preds(t) {
            succs[d.index()].push(t);
        }
    }
    succs
}

/// Run every launch with real values on worker threads, honoring the DAG.
///
/// Inputs are materialized per the engines' plans: base copies from
/// producers' committed outputs (or the initial contents), then pending
/// reductions folded in ascending task order — which makes the parallel
/// execution produce results identical to sequential execution.
pub(crate) fn execute_values(
    forest: &RegionForest,
    redops: &RedOpRegistry,
    launches: &[TaskLaunch],
    bodies: &[Option<TaskBody>],
    results: &Results,
    dag: &TaskDag,
    initial: &FxHashMap<(RegionId, FieldId), InitFn>,
) -> ValueStore {
    let _exec_span = viz_profile::span("execute_values");
    let n = launches.len();
    // Initial instances, one per (root, field) in use.
    let mut init_instances: FxHashMap<(RegionId, FieldId), PhysicalRegion> = FxHashMap::default();
    for l in launches {
        for req in &l.reqs {
            let key = (forest.root_of(req.region), req.field);
            init_instances.entry(key).or_insert_with(|| {
                let mut inst =
                    PhysicalRegion::new(forest.domain(key.0).clone(), Privilege::ReadWrite, 0.0);
                if let Some(f) = initial.get(&key) {
                    inst.update_all(|p, _| f(p));
                }
                inst
            });
        }
    }

    let outputs: Vec<OnceLock<Vec<PhysicalRegion>>> = (0..n).map(|_| OnceLock::new()).collect();
    let succs = successors(dag);
    let indegree: Vec<AtomicUsize> = (0..n)
        .map(|i| AtomicUsize::new(dag.preds(TaskId(i as u32)).len()))
        .collect();
    let remaining = AtomicUsize::new(n);
    // The ready queue: every worker sends, and they take turns receiving.
    let (tx, rx) = mpsc::channel::<usize>();
    let rx = Mutex::new(rx);
    for (i, deg) in indegree.iter().enumerate() {
        if deg.load(Ordering::Relaxed) == 0 {
            tx.send(i).unwrap();
        }
    }

    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(8)
        .min(n.max(1));

    let run_one = |t: usize| {
        let _task_span = viz_profile::span("task");
        let launch = &launches[t];
        // Replayed launches share the trace template's result; task
        // references are in template coordinates and get shifted here,
        // at the read, instead of deep-cloning the plans per instance.
        let shift = results.shift(t);
        let mut instances = Vec::with_capacity(launch.reqs.len());
        for (ri, req) in launch.reqs.iter().enumerate() {
            let plan = results.plan(t, ri);
            let domain = forest.domain(req.region).clone();
            let init_val = plan
                .fill_identity
                .map(|op| redops.identity(op))
                .unwrap_or(0.0);
            let mut inst = PhysicalRegion::new(domain, req.privilege, init_val);
            if let Privilege::Reduce(op) = req.privilege {
                inst = inst.with_fold(op, redops.get(op).fold);
            }
            for copy in plan.copies {
                match &copy.source {
                    Source::Initial => {
                        let key = (forest.root_of(req.region), req.field);
                        inst.copy_from(&init_instances[&key], &copy.domain);
                    }
                    Source::Task(tid, r) => {
                        let src = &outputs[shift.apply(*tid).index()]
                            .get()
                            .expect("source task not yet executed — dependence missing")
                            [*r as usize];
                        inst.copy_from(src, &copy.domain);
                    }
                }
            }
            // `plan.normalize()` sorted reductions into program order.
            for red in plan.reductions {
                let src = &outputs[shift.apply(red.task).index()]
                    .get()
                    .expect("reduction source not yet executed — dependence missing")
                    [red.req as usize];
                inst.fold_from(src, &red.domain, redops.get(red.redop).fold);
            }
            instances.push(inst);
        }
        if let Some(body) = &bodies[t] {
            body(&mut instances);
        }
        outputs[t]
            .set(instances)
            .unwrap_or_else(|_| panic!("task {t} executed twice"));
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let rx = &rx;
            let tx = tx.clone();
            let remaining = &remaining;
            let indegree = &indegree;
            let succs = &succs;
            let run_one = &run_one;
            scope.spawn(move || {
                // Task bodies run on runtime workers: a blocking resolve
                // from inside one can never be satisfied while the
                // executor holds the core read lock, so mark the thread
                // and let resolve fail fast with `WouldDeadlock`.
                let _worker = crate::pipeline::enter_worker();
                loop {
                    // Bound to a `let` so the queue lock is released before
                    // the task runs.
                    let next = rx.lock().unwrap().recv();
                    let Ok(t) = next else { return };
                    if t == usize::MAX {
                        return;
                    }
                    run_one(t);
                    for s in &succs[t] {
                        if indegree[s.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                            tx.send(s.index()).unwrap();
                        }
                    }
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Last task: release every worker.
                        for _ in 0..workers {
                            tx.send(usize::MAX).unwrap();
                        }
                    }
                }
            });
        }
        if n == 0 {
            drop(tx);
        }
    });

    assert_eq!(remaining.load(Ordering::Acquire), 0, "executor deadlocked");
    ValueStore {
        outputs: outputs
            .into_iter()
            .map(|o| o.into_inner().expect("task never executed"))
            .collect(),
    }
}

/// Per-task completion times from the timed executor.
#[derive(Clone, Debug)]
pub struct TimedReport {
    /// Completion time of each task on the simulated machine.
    pub completion: Vec<SimTime>,
    /// Latest completion across all tasks.
    pub makespan: SimTime,
}

impl TimedReport {
    /// Latest completion among a contiguous range of task ids — used to
    /// delimit application iterations.
    pub fn completion_through(&self, last_task: TaskId) -> SimTime {
        self.completion[..=last_task.index()]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// Replays the dependence DAG on the simulated machine (list scheduling):
///
/// * a task starts no earlier than its **analysis completion** on its origin
///   node — at scale this coupling is what makes analysis the bottleneck
///   (§8.2);
/// * no earlier than its dependences' completions;
/// * inputs sourced from other nodes arrive by simulated DMA;
/// * the node's single GPU runs one task at a time.
pub struct TimedSchedule;

impl TimedSchedule {
    pub(crate) fn run(
        forest: &RegionForest,
        launches: &[TaskLaunch],
        results: &Results,
        dag: &TaskDag,
        analysis_done: &[SimTime],
        machine: &mut Machine,
    ) -> TimedReport {
        let _ = forest;
        let n = launches.len();
        // Realm-style deferred execution: every operation (task completion,
        // copy delivery, analysis ready) is an event; a task's precondition
        // is the merge of its input events.
        let mut events = viz_sim::EventPool::new();
        let mut completion_event = vec![viz_sim::Event::NO_EVENT; n];
        let mut completion = vec![0u64; n];
        let bytes_per_element = machine.cost().bytes_per_element;
        let dispatch = machine.cost().dispatch_ns;
        for t in 0..n {
            let launch = &launches[t];
            let mut preconditions = vec![events.create(analysis_done[t])];
            for d in dag.preds(TaskId(t as u32)) {
                preconditions.push(completion_event[d.index()]);
            }
            // Inter-node data movement for inputs: each remote copy is an
            // operation whose precondition is the producer's completion and
            // whose own completion gates the task.
            // Replayed launches keep task references in template
            // coordinates; shift them onto this instance at the read.
            let shift = results.shift(t);
            for k in 0..results.plan_count(t) {
                let plan = results.plan(t, k);
                for copy in plan.copies {
                    if let Source::Task(s, _) = &copy.source {
                        let s = shift.apply(*s);
                        let src_node = launches[s.index()].node;
                        if src_node != launch.node {
                            let bytes = copy.domain.volume() * bytes_per_element;
                            let arrival =
                                machine.copy(src_node, launch.node, bytes, completion[s.index()]);
                            preconditions.push(events.create(arrival));
                        }
                    }
                }
                for red in plan.reductions {
                    let src = shift.apply(red.task);
                    let src_node = launches[src.index()].node;
                    if src_node != launch.node {
                        let bytes = red.domain.volume() * bytes_per_element;
                        let arrival =
                            machine.copy(src_node, launch.node, bytes, completion[src.index()]);
                        preconditions.push(events.create(arrival));
                    }
                }
            }
            let ready = events.merge(&preconditions);
            let end = machine.gpu_task(
                launch.node,
                events.time(ready) + dispatch,
                launch.duration_ns,
            );
            if viz_profile::enabled() {
                viz_profile::sim_event(
                    end - launch.duration_ns,
                    launch.duration_ns,
                    viz_profile::Track::SimGpu {
                        node: launch.node as u32,
                    },
                    viz_profile::EventKind::GpuTask { task: t as u64 },
                );
            }
            completion_event[t] = events.create(end);
            completion[t] = end;
        }
        let makespan = completion.iter().copied().max().unwrap_or(0);
        TimedReport {
            completion,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use crate::runtime::{LaunchSpec, Runtime, RuntimeConfig};
    use crate::task::RegionRequirement;

    #[test]
    fn successors_inverts_preds() {
        let dag = crate::dag::tests::fig5_dag();
        let succs = successors(&dag);
        assert_eq!(
            succs[0],
            vec![TaskId(3), TaskId(4), TaskId(5)],
            "t0 feeds all of the second wave"
        );
        assert!(succs[8].is_empty());
        assert_eq!(succs.iter().map(Vec::len).sum::<usize>(), 18);
    }

    /// write 1.0 everywhere, then read it back through the runtime.
    #[test]
    fn write_then_read_roundtrip() {
        let mut rt = Runtime::single_node(EngineKind::PaintNaive);
        let root = rt.forest_mut().create_root_1d("A", 16);
        let f = rt.forest_mut().add_field(root, "v");
        rt.submit(LaunchSpec::new(
            "fill",
            0,
            vec![RegionRequirement::read_write(root, f)],
            0,
            Some(Arc::new(|regions: &mut [PhysicalRegion]| {
                regions[0].update_all(|p, _| p.x as f64 * 2.0);
            })),
        ))
        .unwrap();
        let probe = rt.inline_read(root, f).unwrap();
        let store = rt.execute_values();
        let vals = store.inline(probe);
        assert_eq!(vals.get(Point::p1(0)), 0.0);
        assert_eq!(vals.get(Point::p1(7)), 14.0);
    }

    #[test]
    fn initial_values_flow_to_first_reader() {
        let mut rt = Runtime::single_node(EngineKind::PaintNaive);
        let root = rt.forest_mut().create_root_1d("A", 8);
        let f = rt.forest_mut().add_field(root, "v");
        rt.try_set_initial(root, f, |p| 100.0 + p.x as f64).unwrap();
        let probe = rt.inline_read(root, f).unwrap();
        let store = rt.execute_values();
        assert_eq!(store.inline(probe).get(Point::p1(3)), 103.0);
    }

    #[test]
    fn reductions_fold_in_program_order() {
        let mut rt = Runtime::single_node(EngineKind::PaintNaive);
        let root = rt.forest_mut().create_root_1d("A", 4);
        let f = rt.forest_mut().add_field(root, "v");
        rt.try_set_initial(root, f, |_| 10.0).unwrap();
        for i in 0..3u32 {
            let c = (i + 1) as f64; // contribute 1, 2, 3
            rt.submit(LaunchSpec::new(
                format!("reduce{i}"),
                0,
                vec![RegionRequirement::reduce(root, f, RedOpRegistry::SUM)],
                0,
                Some(Arc::new(move |regions: &mut [PhysicalRegion]| {
                    let dom = regions[0].domain().clone();
                    for p in dom.points() {
                        regions[0].reduce(p, c);
                    }
                })),
            ))
            .unwrap();
        }
        let probe = rt.inline_read(root, f).unwrap();
        let store = rt.execute_values();
        assert_eq!(store.inline(probe).get(Point::p1(0)), 16.0);
    }

    #[test]
    fn parallel_writers_on_disjoint_pieces() {
        let mut rt = Runtime::single_node(EngineKind::PaintNaive);
        let root = rt.forest_mut().create_root_1d("A", 40);
        let f = rt.forest_mut().add_field(root, "v");
        let p = rt.forest_mut().create_equal_partition_1d(root, "P", 4);
        for i in 0..4 {
            let piece = rt.forest().subregion(p, i);
            let val = i as f64;
            rt.submit(LaunchSpec::new(
                "piece",
                0,
                vec![RegionRequirement::read_write(piece, f)],
                0,
                Some(Arc::new(move |regions: &mut [PhysicalRegion]| {
                    regions[0].update_all(|_, _| val);
                })),
            ))
            .unwrap();
        }
        let probe = rt.inline_read(root, f).unwrap();
        let store = rt.execute_values();
        let vals = store.inline(probe);
        assert_eq!(vals.get(Point::p1(5)), 0.0);
        assert_eq!(vals.get(Point::p1(15)), 1.0);
        assert_eq!(vals.get(Point::p1(39)), 3.0);
    }

    #[test]
    fn timed_schedule_produces_monotone_completions() {
        let mut rt = Runtime::new(RuntimeConfig::new(EngineKind::PaintNaive).nodes(4));
        let root = rt.forest_mut().create_root_1d("A", 40);
        let f = rt.forest_mut().add_field(root, "v");
        let p = rt.forest_mut().create_equal_partition_1d(root, "P", 4);
        for iter in 0..3 {
            for i in 0..4usize {
                let piece = rt.forest().subregion(p, i);
                rt.submit(LaunchSpec::new(
                    format!("it{iter}"),
                    i,
                    vec![RegionRequirement::read_write(piece, f)],
                    10_000,
                    None,
                ))
                .unwrap();
            }
            // A read of the whole region serializes between iterations.
            rt.submit(LaunchSpec::new(
                "sync",
                0,
                vec![RegionRequirement::read(root, f)],
                5_000,
                None,
            ))
            .unwrap();
        }
        let report = rt.timed_schedule();
        assert_eq!(report.completion.len(), 15);
        assert!(report.makespan >= 3 * 15_000, "three serialized iterations");
        // Dependences respected: sync task completes after its iteration's writers.
        for k in 0..3 {
            let sync = 4 + k * 5;
            for w in (k * 5)..(k * 5 + 4) {
                assert!(report.completion[sync] > report.completion[w]);
            }
        }
    }
}

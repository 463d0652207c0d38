//! An engine panic under the core lock: what the runtime still answers
//! afterwards, and whose message the sharded driver surfaces.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use viz_runtime::analysis::{ReqOutcome, ShardKey};
use viz_runtime::engine::ShardCtx;
use viz_runtime::{
    CoherenceEngine, EngineKind, LaunchSpec, RegionRequirement, Runtime, RuntimeConfig,
    RuntimeError, TaskLaunch,
};

/// A real engine that panics on its `nth` shard scan.
struct PanicsOnNth {
    inner: Box<dyn CoherenceEngine>,
    scans: AtomicUsize,
    nth: usize,
}

impl PanicsOnNth {
    fn boxed(nth: usize) -> Box<dyn CoherenceEngine> {
        Box::new(PanicsOnNth {
            inner: EngineKind::RayCast.build(),
            scans: AtomicUsize::new(0),
            nth,
        })
    }
}

impl CoherenceEngine for PanicsOnNth {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&mut self, launch: &TaskLaunch, ctx: &ShardCtx<'_>) -> Vec<(ShardKey, Vec<u32>)> {
        self.inner.prepare(launch, ctx)
    }

    fn analyze_shard(
        &self,
        key: ShardKey,
        launch: &TaskLaunch,
        reqs: &[u32],
        ctx: &ShardCtx<'_>,
    ) -> Vec<ReqOutcome> {
        let scan = self.scans.fetch_add(1, Ordering::SeqCst) + 1;
        assert!(scan != self.nth, "engine bug on scan {scan}");
        self.inner.analyze_shard(key, launch, reqs, ctx)
    }
}

/// Every panic message raised while the tests below run (the hook is
/// process-wide, and both tests want the same thing from it).
static MESSAGES: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn record_panic_messages() {
    std::panic::set_hook(Box::new(|info| {
        MESSAGES.lock().unwrap().push(info.to_string());
    }));
}

fn write_spec(region: viz_region::RegionId, field: viz_region::FieldId) -> LaunchSpec {
    LaunchSpec::new(
        "w",
        0,
        vec![RegionRequirement::read_write(region, field)],
        0,
        None,
    )
}

#[test]
fn stats_survive_an_engine_panic_and_submissions_report_poison() {
    record_panic_messages();
    const N: usize = 3;
    let config = RuntimeConfig::base(EngineKind::RayCast);
    let mut rt = Runtime::with_engine(config, PanicsOnNth::boxed(N));
    let root = rt.forest_mut().create_root_1d("A", 16);
    let f = rt.forest_mut().add_field(root, "v");
    for _ in 1..N {
        rt.submit(write_spec(root, f)).unwrap();
    }
    let unwound = catch_unwind(AssertUnwindSafe(|| rt.submit(write_spec(root, f))));
    assert!(unwound.is_err(), "the engine's panic reaches the submitter");
    // The front door still opens: the panicking launch committed nothing.
    let stats = rt.stats();
    assert_eq!(stats.tasks, N as u64 - 1);
    assert_eq!(stats.dag.tasks, N as u64 - 1);
    // Submissions and trace annotations refuse with a value instead of a
    // second panic.
    let err = rt.submit(write_spec(root, f)).unwrap_err();
    assert!(matches!(err, RuntimeError::Poisoned { what: "core" }));
    let err = rt.try_begin_trace(1).unwrap_err();
    assert!(matches!(err, RuntimeError::Poisoned { what: "core" }));
    let err = rt.try_end_trace(1).unwrap_err();
    assert!(matches!(err, RuntimeError::Poisoned { what: "core" }));
}

#[test]
fn sharded_driver_surfaces_the_workers_own_panic() {
    record_panic_messages();
    // Untraced: the batch cycles four fields, so auto-tracing would replay
    // it before scan 40 runs, and replay never enters the scan driver whose
    // panic path this test is about.
    let config = RuntimeConfig::base(EngineKind::RayCast)
        .analysis_threads(4)
        .auto_trace(false);
    // A 64-launch batch over four shards, one scan each: the worker that
    // runs scan 40 dies holding results the driver is waiting for, so the
    // driver is blocked in `recv` when the channel closes.
    let mut rt = Runtime::with_engine(config, PanicsOnNth::boxed(40));
    let root = rt.forest_mut().create_root_1d("A", 16);
    let fields: Vec<_> = (0..4)
        .map(|i| rt.forest_mut().add_field(root, format!("v{i}")))
        .collect();
    let batch: Vec<LaunchSpec> = (0..64).map(|i| write_spec(root, fields[i % 4])).collect();
    let unwound = catch_unwind(AssertUnwindSafe(|| rt.submit_batch(batch)));
    assert!(unwound.is_err(), "the worker's panic reaches the submitter");
    let messages = MESSAGES.lock().unwrap().join("\n");
    assert!(
        messages.contains("engine bug on scan 40"),
        "the worker's own message is reported:\n{messages}"
    );
    assert!(
        !messages.contains("RecvError"),
        "not masked by the closed channel:\n{messages}"
    );
    // And the counters are still readable.
    assert_eq!(rt.stats().engine, "raycast");
}

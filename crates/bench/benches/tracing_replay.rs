//! Trace-replay bench: per-launch cost of replaying a trace — manual
//! (`begin_trace`/`end_trace`) and automatic (detector-promoted) — against
//! ordinary analysis, plus a direct zero-copy proof.
//!
//! The workload is the stencil's repetitive top-level loop (64 pieces on 4
//! nodes), the shape tracing exists for. Reported:
//!
//! * host nanoseconds per launch, untraced vs manual vs auto-traced, and
//!   the resulting replay speedup over the visibility analysis;
//! * a pointer-identity proof that replay never deep-clones an
//!   [`viz_runtime::AnalysisResult`]: every replayed launch stores the
//!   *same* `Arc` allocation as the template entry it came from, so the
//!   replayed launches share exactly as many allocations as the template
//!   has entries, however many instances replay.

use std::collections::BTreeSet;
use std::time::Instant;
use viz_apps::{Stencil, StencilConfig, Workload};
use viz_bench::median_of;
use viz_runtime::{EngineKind, Runtime, RuntimeConfig, TaskId};

const PIECES: usize = 64;
const NODES: usize = 4;
const ITERS: usize = 12;

#[derive(Copy, Clone, PartialEq, Debug)]
enum Mode {
    Untraced,
    Manual,
    Auto,
}

fn bench_app(mode: Mode) -> Stencil {
    Stencil::new(StencilConfig {
        pieces: PIECES,
        tile: 8,
        iterations: ITERS,
        nodes: NODES,
        with_bodies: false,
        traced: mode == Mode::Manual,
        vars: 1,
    })
}

/// One full run; returns host seconds, the runtime for inspection and the
/// launches of its last iteration.
fn run_once(engine: EngineKind, mode: Mode) -> (f64, Runtime, usize) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(NODES)
            .dcr(false)
            .validate(false)
            .auto_trace(mode == Mode::Auto),
    );
    let app = bench_app(mode);
    let t0 = Instant::now();
    let run = app.execute(&mut rt);
    let dt = t0.elapsed().as_secs_f64();
    let [.., before, last] = run.iter_end[..] else {
        panic!("the loop runs at least two iterations");
    };
    (dt, rt, (last.0 - before.0) as usize)
}

/// Per-launch host cost per mode, and the replay speedup over analysis.
fn speedup_report() {
    const REPS: usize = 9;
    println!(
        "\n# Trace replay: per-launch host cost (stencil, {PIECES} pieces, {NODES} nodes, \
         {ITERS} iterations)"
    );
    println!("engine\tmode\tns_per_launch\treplayed\tspeedup_vs_untraced");
    for engine in [EngineKind::Paint, EngineKind::RayCast] {
        let mut untraced_ns = 0.0;
        for mode in [Mode::Untraced, Mode::Manual, Mode::Auto] {
            let secs = median_of(REPS, || run_once(engine, mode).0);
            let (_, rt, _) = run_once(engine, mode);
            let ns = secs * 1e9 / rt.num_tasks() as f64;
            if mode == Mode::Untraced {
                untraced_ns = ns;
            }
            println!(
                "{}\t{:?}\t{:.0}\t{}\t{:.2}x",
                engine.label(),
                mode,
                ns,
                rt.replayed_launches(),
                untraced_ns / ns
            );
            if mode != Mode::Untraced {
                assert!(
                    rt.replayed_launches() > 0,
                    "{engine:?} {mode:?}: nothing replayed"
                );
            }
        }
    }
}

/// Zero-copy proof: replayed launches share the template's allocations.
///
/// If replay deep-cloned results, every replayed launch would store a
/// fresh allocation and the distinct-address count would grow with the
/// replayed-launch count. Sharing holds it at the template's length, one
/// iteration's launches. Analyzed launches store their own results, never
/// a shared one.
fn zero_copy_report() {
    for mode in [Mode::Manual, Mode::Auto] {
        let (_, rt, per_iter) = run_once(EngineKind::RayCast, mode);
        let mut replayed = 0u64;
        let mut addrs = BTreeSet::new();
        for t in 0..rt.num_tasks() {
            if let Some(a) = rt.shared_result_addr(TaskId(t as u32)) {
                replayed += 1;
                addrs.insert(a);
            }
        }
        println!(
            "# Zero-copy ({mode:?}): {replayed} replayed launches share {} allocations \
             (template of {per_iter} launches)",
            addrs.len(),
        );
        assert_eq!(replayed, rt.replayed_launches(), "{mode:?}");
        assert!(
            replayed >= 6 * per_iter as u64,
            "{mode:?}: expected most instances to replay, got {replayed}"
        );
        assert_eq!(
            addrs.len(),
            per_iter,
            "{mode:?}: {} distinct allocations for {replayed} replayed launches — \
             replay is cloning results",
            addrs.len(),
        );
    }
}

fn main() {
    speedup_report();
    zero_copy_report();
}

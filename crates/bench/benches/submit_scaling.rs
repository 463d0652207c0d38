//! Submit-scaling bench: aggregate submission throughput as producer
//! contexts are added (PR 7's multi-producer submission plane).
//!
//! Each producer is its own context and pushes launches against its own
//! private region tree into the plane's one submission queue, so producers
//! share only the queue lock on the submission path — no core lock. Each
//! producer's share is deep (`pipeline_depth(4096)`) so the measurement
//! captures push cost, not dispatcher backpressure. The wall-clock window covers barrier-synced
//! submission only; the combined drain happens after the clock stops.
//!
//! Reported: a TSV on stdout of aggregate throughput at 1, 2, 4, and 8
//! producers with scaling relative to one producer. The acceptance target
//! (≥ 3x aggregate throughput at 8 producers vs 1) is asserted only when
//! the host has enough cores to run the producers in parallel; a timesliced
//! host still prints the table.

use std::sync::Barrier;
use std::time::Instant;
use viz_bench::median_of;
use viz_region::{FieldId, RegionId};
use viz_runtime::{EngineKind, LaunchSpec, RegionRequirement, Runtime, RuntimeConfig};

const PIECES: usize = 16;
const N: i64 = PIECES as i64 * 8;
/// Launches per producer: constant per-producer work, so perfect scaling
/// is constant wall-clock and aggregate throughput ∝ producers.
const PER_PRODUCER: usize = 4_000;
const PRODUCER_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Tenant {
    field: FieldId,
    pieces: Vec<RegionId>,
}

fn setup_tenant(rt: &mut Runtime, t: usize) -> Tenant {
    let root = rt.forest_mut().create_root_1d(format!("R{t}"), N);
    let field = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", PIECES);
    let pieces = (0..PIECES).map(|k| rt.forest().subregion(p, k)).collect();
    Tenant { field, pieces }
}

/// One run: `producers` contexts, barrier-released, each pushing
/// `PER_PRODUCER` launches into the shared queue. Returns the submission
/// wall-clock (barrier release to last producer done).
fn run_once(producers: usize) -> f64 {
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(4)
            .dcr(true)
            .validate(false)
            .pipeline(true)
            .pipeline_depth(4096)
            .submit_rings(producers + 1),
    );
    let tenants: Vec<Tenant> = (0..producers).map(|t| setup_tenant(&mut rt, t)).collect();
    let mut ctxs: Vec<_> = (0..producers)
        .map(|_| rt.new_context().expect("one ring per producer"))
        .collect();
    let barrier = Barrier::new(producers);
    // Timed inside each producer (barrier release to its last push): the
    // aggregate window is max(end) - min(start), which stays honest even
    // when a producer runs to completion before the main thread wakes.
    let elapsed = std::thread::scope(|s| {
        let joins: Vec<_> = ctxs
            .iter_mut()
            .zip(&tenants)
            .map(|(ctx, tenant)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    for i in 0..PER_PRODUCER {
                        let k = i % PIECES;
                        ctx.submit(LaunchSpec::new(
                            "t",
                            k % 4,
                            vec![RegionRequirement::read_write(
                                tenant.pieces[k],
                                tenant.field,
                            )],
                            100,
                            None,
                        ))
                        .expect("healthy driver");
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        let spans: Vec<(Instant, Instant)> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let t0 = spans.iter().map(|(s, _)| *s).min().unwrap();
        let t1 = spans.iter().map(|(_, e)| *e).max().unwrap();
        (t1 - t0).as_secs_f64()
    });
    drop(ctxs);
    rt.flush();
    assert_eq!(rt.num_tasks(), producers * PER_PRODUCER);
    elapsed
}

fn scaling_report() {
    const REPS: usize = 5;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n# Submit scaling: {PER_PRODUCER} launches/producer, deep rings \
         (depth 4096), disjoint tenant trees ({cores} host cores)"
    );
    println!("producers\tlaunches\tsubmit_ms\tthroughput_klaunches_s\tscaling_vs_1");
    let mut base_tput = 0.0f64;
    let mut best_scaling = 0.0f64;
    for &p in &PRODUCER_COUNTS {
        let secs = median_of(REPS, || run_once(p));
        let launches = p * PER_PRODUCER;
        let tput = launches as f64 / secs;
        if p == 1 {
            base_tput = tput;
        }
        let scaling = tput / base_tput;
        best_scaling = best_scaling.max(scaling);
        println!(
            "{p}\t{launches}\t{:.3}\t{:.1}\t{scaling:.2}",
            secs * 1e3,
            tput / 1e3,
        );
    }
    if cores >= 8 {
        assert!(
            best_scaling >= 3.0,
            "aggregate submit throughput scaled only {best_scaling:.2}x on {cores} cores \
             (target: >= 3x at 8 producers vs 1)"
        );
    } else {
        println!(
            "# {cores} host core(s): producers timeslice, scaling not asserted \
             (target is >= 3x at 8 producers on >= 8 cores)"
        );
    }
}

fn main() {
    scaling_report();
}

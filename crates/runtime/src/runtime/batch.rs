//! The sharded batch driver: an untraced run of launches has its
//! per-`(root, field)` shard scans spread over scoped worker threads while
//! this thread commits the launches in order. This is the address of the
//! harness's `sharding.*` rows.

use super::core::{Commit, Core};
use super::LaunchSpec;
use crate::analysis::{ReqOutcome, ShardKey};
use crate::engine::{assemble_outcomes, CoherenceEngine, ShardCtx};
use crate::sharding::ShardMap;
use crate::task::{TaskBody, TaskId, TaskLaunch};
use crate::trace::TraceAction;
use std::collections::VecDeque;
use std::sync::mpsc;
use viz_geometry::FxHashMap;
use viz_region::RegionForest;

impl Core {
    /// The sharded scan pipeline over the untraced prefix of `items`:
    /// stops early (after the detection point) when the auto-tracer
    /// promotes a repeat, which it opens once the batch has committed,
    /// leaving the rest for the caller to re-dispatch. The committed ids
    /// are appended to `ids`.
    pub(super) fn run_batch_sharded(
        &mut self,
        ctx: u32,
        items: &mut VecDeque<LaunchSpec>,
        forest: &RegionForest,
        ids: &mut Vec<TaskId>,
    ) {
        let base = self.book.ledger.next_id();
        let mut batch: Vec<TaskLaunch> = Vec::with_capacity(items.len());
        let mut batch_bodies: Vec<Option<TaskBody>> = Vec::with_capacity(items.len());
        let mut groups: Vec<Vec<(ShardKey, Vec<u32>)>> = Vec::with_capacity(items.len());
        let mut promoted = None;
        // Phase A (this thread): assign ids, feed the auto-trace detector,
        // first-touch the shard map, and let the engine create missing
        // shard state. The grouping depends only on the region forest, so
        // the whole segment can be prepared before any scan runs.
        while let Some(spec) = items.pop_front() {
            let launch = TaskLaunch {
                id: TaskId(base + batch.len() as u32),
                name: spec.name,
                node: spec.node % self.shards.nodes(),
                ctx,
                reqs: spec.reqs,
                duration_ns: spec.duration_ns,
            };
            // Outside traces this only updates detector state and returns
            // `Analyze` or, on the launch completing a repeat, `Promote` —
            // the same call the serial driver makes, at the same position
            // in the launch stream.
            let action = self
                .book
                .tracing
                .on_launch(launch.node, &launch.reqs, launch.id.0);
            for req in &launch.reqs {
                self.shards.touch(req.region, launch.node, launch.id.0);
            }
            groups.push(self.engine.prepare(
                &launch,
                &ShardCtx {
                    forest,
                    shards: &self.shards,
                },
            ));
            batch.push(launch);
            batch_bodies.push(spec.body);
            if let TraceAction::Promote { len } = action {
                // A repeat was just detected: verification starts with the
                // next launch, which must go through the trace machinery.
                promoted = Some(len);
                break;
            }
            debug_assert!(matches!(action, TraceAction::Analyze));
        }
        let count = batch.len();
        // Phase B (workers) + C (pipelined commit on this thread): workers
        // read the engine, forest and shard map; the retire closure replays
        // charges on the machine and grows the book.
        let engine: &dyn CoherenceEngine = &*self.engine;
        let shards = &self.shards;
        let machine = &mut self.machine;
        let book = &mut self.book;
        scan_batch(
            engine,
            forest,
            shards,
            &batch,
            &groups,
            self.analysis_threads,
            |i, outcomes| {
                // Exactly the serial per-launch charge sequence: overhead
                // at the origin, then every scan log in requirement order,
                // then every commit log.
                let launch = &batch[i];
                let origin = shards.origin(launch.node);
                let since = machine.now(origin);
                machine.op(origin, viz_sim::Op::LaunchOverhead);
                let mut result = assemble_outcomes(launch, outcomes, machine);
                book.tracing.rebase_result(&mut result);
                let how = Commit::Analyzed {
                    engine: engine.name(),
                    since,
                    result,
                };
                book.commit(machine, origin, launch, how);
            },
        );
        book.ledger.append_launches(&mut batch, &mut batch_bodies);
        if let Some(len) = promoted {
            // As in the serial driver: the promoting launch is committed.
            book.tracing.promote(len, &book.ledger, &book.dag, forest);
        }
        ids.extend((0..count as u32).map(|k| TaskId(base + k)));
    }
}

/// Run one batch's shard scans on a scoped worker pool and retire the
/// launches in order.
///
/// Scheduling contract (this is what makes the parallel driver
/// byte-identical to the serial one):
///
/// * Every group for the same shard goes to the *same* worker, and workers
///   drain their queues in the order enqueued (batch order) — so one
///   shard's scans and commits happen in launch order, exactly as a serial
///   engine would apply them. Distinct shards touch disjoint state and may
///   run concurrently.
/// * Shards are assigned to workers round-robin in first-seen batch order:
///   deterministic, and balanced for the wave-structured batches the apps
///   produce.
/// * `retire` runs on the calling thread, strictly in batch order, as soon
///   as all of an item's shard scans have arrived — a pipelined commit
///   stage: launch *i* replays its recorded charges (pricing and simulated
///   clocks stay sequentially faithful) while later launches are still
///   being scanned.
fn scan_batch(
    engine: &dyn CoherenceEngine,
    forest: &RegionForest,
    shard_map: &ShardMap,
    launches: &[TaskLaunch],
    groups: &[Vec<(ShardKey, Vec<u32>)>],
    threads: usize,
    mut retire: impl FnMut(usize, Vec<ReqOutcome>),
) {
    let n = launches.len();
    let mut shard_worker: FxHashMap<ShardKey, usize> = FxHashMap::default();
    let mut next_worker = 0usize;
    let mut queues: Vec<Vec<(usize, usize)>> = vec![Vec::new(); threads.max(1)];
    for (i, gs) in groups.iter().enumerate() {
        for (gi, (key, _)) in gs.iter().enumerate() {
            let w = *shard_worker.entry(*key).or_insert_with(|| {
                let w = next_worker;
                next_worker = (next_worker + 1) % threads.max(1);
                w
            });
            queues[w].push((i, gi));
        }
    }
    let mut remaining: Vec<usize> = groups.iter().map(Vec::len).collect();
    // Workers hand results back in chunks: cross-thread synchronization
    // (channel traffic, driver wakeups) is paid once per ~CHUNK scans
    // instead of once per scan, which matters because a steady-state shard
    // scan is only a few microseconds of work.
    const CHUNK: usize = 32;
    let (tx, rx) = mpsc::channel::<Vec<(usize, Vec<ReqOutcome>)>>();
    std::thread::scope(|scope| {
        for q in queues {
            if q.is_empty() {
                continue;
            }
            let tx = tx.clone();
            scope.spawn(move || {
                let ctx = ShardCtx {
                    forest,
                    shards: shard_map,
                };
                let mut pending: Vec<(usize, Vec<ReqOutcome>)> = Vec::with_capacity(CHUNK);
                for (i, gi) in q {
                    let (key, reqs) = &groups[i][gi];
                    let span = viz_profile::span(engine.name());
                    let outcomes = engine.analyze_shard(*key, &launches[i], reqs, &ctx);
                    drop(span);
                    pending.push((i, outcomes));
                    if pending.len() >= CHUNK && tx.send(std::mem::take(&mut pending)).is_err() {
                        // Receiver gone: the driver bailed (another worker
                        // panicked). Stop scanning instead of panicking on
                        // a closed channel — the scope join surfaces the
                        // original panic.
                        return;
                    }
                }
                if !pending.is_empty() {
                    let _ = tx.send(pending);
                }
            });
        }
        drop(tx);
        let mut buf: Vec<Vec<ReqOutcome>> = (0..n).map(|_| Vec::new()).collect();
        let mut next = 0usize;
        while next < n {
            while next < n && remaining[next] == 0 {
                retire(next, std::mem::take(&mut buf[next]));
                next += 1;
            }
            if next >= n {
                break;
            }
            let Ok(chunk) = rx.recv() else {
                // Every sender hung up with scans outstanding: a worker
                // panicked. Break and let the scope join re-raise its
                // panic (with the worker's own message) instead of
                // masking it behind a RecvError unwrap here.
                break;
            };
            for (i, outcomes) in chunk {
                buf[i].extend(outcomes);
                remaining[i] -= 1;
            }
        }
    });
}

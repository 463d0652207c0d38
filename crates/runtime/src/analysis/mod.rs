//! The four visibility-based coherence engines (the paper's three, §5–7,
//! plus the naive Fig 7 painter) and their shared machinery.

pub mod eqsets;
pub mod history;
pub mod paint;
pub mod paint_naive;

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use viz_geometry::FxHashMap;
use viz_region::{FieldId, RegionForest, RegionId, RootGeometry, SharedGeometry};
use viz_sim::{ChargeLog, NodeId, Op};

use crate::engine::StateSize;
use crate::task::TaskLaunch;

/// The unit of analysis-state independence: all engines key their state by
/// the root region of the requirement's region tree and the field (§5–7 —
/// the *histories* on distinct `(root, field)` pairs never interact). Scans
/// for distinct shards may therefore run concurrently; the one thing the
/// fields of a root share is the forest's [`RootGeometry`] for that root.
pub type ShardKey = (RegionId, FieldId);

/// Group a launch's requirements by shard, preserving the first-touch order
/// of shards and requirement order within each shard.
pub fn group_reqs_by_shard(
    launch: &TaskLaunch,
    forest: &RegionForest,
) -> Vec<(ShardKey, Vec<u32>)> {
    // A launch names a handful of shards: finding one by scanning `groups`
    // beats building a hash map per launch.
    let mut groups: Vec<(ShardKey, Vec<u32>)> = Vec::with_capacity(launch.reqs.len());
    for (i, req) in launch.reqs.iter().enumerate() {
        let key = (forest.root_of(req.region), req.field);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, reqs)) => reqs.push(i as u32),
            None => groups.push((key, vec![i as u32])),
        }
    }
    groups
}

/// One shard's engine state, accessible from worker threads, and its root's
/// geometry (the forest's, shared with the root's other field shards).
///
/// The driver guarantees at most one worker touches a shard at a time (work
/// for the same shard is queued to the same worker, in launch order), so
/// the lock is only ever claimed with `try_lock`: a violation of that
/// contract panics instead of waiting.
struct ShardCell<S> {
    geometry: SharedGeometry,
    state: Mutex<S>,
}

/// Claim `state` without waiting, reading through poison as
/// [`RootGeometry::lock`] does; `None` if someone holds it.
fn try_claim<S>(state: &Mutex<S>) -> Option<MutexGuard<'_, S>> {
    match state.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Per-`(root, field)` engine state, sharded for concurrent scans.
///
/// Shards are created on the driver thread (`&mut self`, during
/// [`crate::engine::CoherenceEngine::prepare`]) and then accessed from
/// worker threads through [`ShardedState::lock`] (`&self`), one worker per
/// shard at a time.
pub struct ShardedState<S> {
    shards: FxHashMap<ShardKey, Box<ShardCell<S>>>,
}

impl<S> Default for ShardedState<S> {
    fn default() -> Self {
        ShardedState {
            shards: FxHashMap::default(),
        }
    }
}

impl<S> ShardedState<S> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create the shard if missing (driver thread only), next to its root's
    /// geometry in `forest`.
    pub fn get_or_insert_with(
        &mut self,
        key: ShardKey,
        forest: &RegionForest,
        f: impl FnOnce() -> S,
    ) -> &mut S {
        let cell = self.shards.entry(key).or_insert_with(|| {
            Box::new(ShardCell {
                geometry: Arc::clone(forest.geometry(key.0)),
                state: Mutex::new(f()),
            })
        });
        cell.state.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim exclusive access to a shard from a worker, and lock its root's
    /// geometry for the whole shard batch: the shards of one root serialize
    /// on it while distinct roots still overlap. Panics if the shard does not
    /// exist or another worker currently holds it — both indicate a
    /// scheduling bug, not a recoverable condition. A scan that panicked
    /// holding the shard leaves it claimable, as the geometry is.
    pub fn lock(&self, key: ShardKey) -> (MutexGuard<'_, S>, MutexGuard<'_, RootGeometry>) {
        let cell = self
            .shards
            .get(&key)
            .unwrap_or_else(|| panic!("shard {key:?} was not created during prepare"));
        let Some(state) = try_claim(&cell.state) else {
            panic!("shard {key:?} scanned by two workers at once");
        };
        (state, RootGeometry::lock(&cell.geometry))
    }

    /// Add the algebra counters of every root with a shard here, once per
    /// root: summing per shard would count a shared interner once per field.
    pub(crate) fn add_algebra_stats(&self, size: &mut StateSize) {
        let mut roots: Vec<_> = self.shards.iter().collect();
        roots.sort_unstable_by_key(|(key, _)| key.0);
        roots.dedup_by_key(|(key, _)| key.0);
        for (_, cell) in roots {
            size.add_algebra(RootGeometry::lock(&cell.geometry).alg.stats());
        }
    }

    /// Iterate shard states mutably. `&mut self` guarantees no worker holds
    /// a shard — used by the GC sweep on the driver thread between batches.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&ShardKey, &mut S)> {
        self.shards.iter_mut().map(|(k, cell)| {
            let state = cell.state.get_mut();
            (k, state.unwrap_or_else(PoisonError::into_inner))
        })
    }

    /// Iterate shard states for instrumentation, each held while it is
    /// visited. Requires quiescence: panics if any shard is currently
    /// claimed by a worker.
    pub fn iter(&self) -> impl Iterator<Item = (&ShardKey, MutexGuard<'_, S>)> {
        self.shards
            .iter()
            .map(|(k, cell)| match try_claim(&cell.state) {
                Some(state) => (k, state),
                None => panic!("state inspected while shard {k:?} is being scanned"),
            })
    }
}

/// What one shard-local analysis produced for one region requirement:
/// the dependences and plan, plus the machine charges of the scan and the
/// commit, recorded for canonical-order replay by the driver.
#[derive(Debug, Default, PartialEq)]
pub struct ReqOutcome {
    /// Requirement index within the launch.
    pub req: u32,
    pub deps: Vec<crate::task::TaskId>,
    pub plan: crate::plan::MaterializePlan,
    /// Charges from the visibility scan (close, traversal, history scans,
    /// dependence records).
    pub scan_log: ChargeLog,
    /// Charges from committing the requirement into the shard state.
    pub commit_log: ChargeLog,
}

/// Batches analysis operations by the node owning the touched state, then
/// flushes them as priced messages: work on remotely-owned state costs a
/// request/response round trip from the analysis origin (plus the work at
/// the owner); local work is charged directly.
///
/// This is how the engines express the paper's distribution story without
/// real networking: *where* state lives and *who* asks for it produce the
/// message patterns; the machine prices them.
///
/// One flat list in insertion order; a flush drains it, so an engine can
/// keep one set per shard and reuse it for every requirement.
#[derive(Debug, Default)]
pub struct ChargeSet {
    ops: Vec<(NodeId, Op)>,
}

impl ChargeSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, owner: NodeId, op: Op) {
        self.ops.push((owner, op));
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Record all batched work into `log` as one
    /// [`Machine::multi_request`](viz_sim::Machine::multi_request) from
    /// `origin`, leaving the set empty. Remote batches cost one round trip
    /// each (request + response), with request size growing with the op
    /// count (the serialized region descriptions). The round trips to
    /// distinct owners are issued concurrently — the origin blocks until
    /// the last response (Legion overlaps its equivalence-set requests the
    /// same way).
    ///
    /// Order contract: owners ascending, each owner's ops in the order they
    /// were added (the sort is stable).
    pub fn flush_into(&mut self, log: &mut ChargeLog, origin: NodeId) {
        self.ops.sort_by_key(|(owner, _)| *owner);
        log.multi_request(
            origin,
            self.ops.chunk_by(|a, b| a.0 == b.0).map(|batch| {
                let target = (batch[0].0, 96 + 24 * batch.len() as u64, 96);
                (target, batch.iter().map(|(_, op)| *op))
            }),
        );
        self.ops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use viz_sim::Machine;

    /// Flush `set` through a log and replay it onto `m`.
    fn flush(set: &mut ChargeSet, m: &mut Machine, origin: NodeId) {
        let mut log = ChargeLog::new();
        set.flush_into(&mut log, origin);
        assert!(set.is_empty(), "a flush drains the set");
        log.replay(m);
    }

    #[test]
    fn local_charges_advance_origin_only() {
        let mut m = Machine::new(2);
        let mut c = ChargeSet::new();
        c.add(0, Op::EqSetCreate);
        c.add(0, Op::EqSetCreate);
        flush(&mut c, &mut m, 0);
        assert_eq!(m.counters().eqsets_created, 2);
        assert_eq!(m.counters().messages, 0);
        assert!(m.now(0) > 0);
        assert_eq!(m.now(1), 0);
    }

    #[test]
    fn remote_charges_cost_round_trips() {
        let mut m = Machine::new(3);
        let mut c = ChargeSet::new();
        c.add(1, Op::EqSetCreate);
        c.add(2, Op::EqSetCreate);
        flush(&mut c, &mut m, 0);
        assert_eq!(m.counters().messages, 4, "two round trips");
        assert!(m.now(0) > 0, "origin blocked on responses");
        assert_eq!(m.counters().eqsets_created, 2, "work served at owners");
        assert!(m.service_clocks()[1] > 0 && m.service_clocks()[2] > 0);
    }

    #[test]
    fn flush_into_replays_identically_to_direct_calls() {
        let mut direct = Machine::new(3);
        direct.multi_request(
            0,
            &[(0, 120, 96), (1, 144, 96), (2, 120, 96)],
            &[
                &[Op::DepRecord],
                &[Op::HistScan { entries: 4 }, Op::EqSetRefine],
                &[Op::SetTouch],
            ],
        );

        let mut c = ChargeSet::new();
        c.add(1, Op::HistScan { entries: 4 });
        c.add(2, Op::SetTouch);
        c.add(0, Op::DepRecord);
        c.add(1, Op::EqSetRefine);
        let mut replayed = Machine::new(3);
        flush(&mut c, &mut replayed, 0);

        assert_eq!(direct.clocks(), replayed.clocks());
        assert_eq!(direct.service_clocks(), replayed.service_clocks());
        assert_eq!(direct.counters(), replayed.counters());
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..9).prop_map(|rects| Op::GeomOp { rects }),
            (0usize..9).prop_map(|entries| Op::HistScan { entries }),
            Just(Op::EqSetCreate),
            Just(Op::EqSetRefine),
            Just(Op::SetTouch),
            Just(Op::DepRecord),
        ]
    }

    proptest! {
        /// Several sets (empty ones included) flushed into one log replay
        /// exactly as one direct `Machine::multi_request` per set, owners
        /// ascending and each owner's ops in insertion order — the origin
        /// may own state too.
        #[test]
        fn flat_charge_batches_replay_exactly(
            nodes in 1usize..6,
            origin in 0usize..5,
            sets in prop::collection::vec(
                prop::collection::vec((0usize..5, arb_op()), 0..24),
                1..5,
            ),
        ) {
            let origin = origin % nodes;
            let mut direct = Machine::new(nodes);
            let mut log = ChargeLog::new();
            let mut set = ChargeSet::new();
            for ops in &sets {
                let mut by_owner: Vec<Vec<Op>> = vec![Vec::new(); nodes];
                for (owner, op) in ops {
                    by_owner[owner % nodes].push(*op);
                    set.add(owner % nodes, *op);
                }
                let (targets, work): (Vec<_>, Vec<&[Op]>) = by_owner
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| !w.is_empty())
                    .map(|(owner, w)| ((owner, 96 + 24 * w.len() as u64, 96), w.as_slice()))
                    .unzip();
                direct.multi_request(origin, &targets, &work);
                set.flush_into(&mut log, origin);
                prop_assert!(set.is_empty());
            }
            prop_assert_eq!(log.len(), sets.len());
            let mut replayed = Machine::new(nodes);
            log.replay(&mut replayed);
            prop_assert_eq!(direct.clocks(), replayed.clocks());
            prop_assert_eq!(direct.service_clocks(), replayed.service_clocks());
            prop_assert_eq!(direct.counters(), replayed.counters());
        }
    }

    #[test]
    fn sharded_state_locks_are_exclusive() {
        let mut forest = RegionForest::new();
        let key = (forest.create_root_1d("R", 4), viz_region::FieldId(0));
        let mut s: ShardedState<u32> = ShardedState::new();
        *s.get_or_insert_with(key, &forest, || 1) += 1;
        *s.lock(key).0 += 1;
        let held = s.lock(key);
        assert_eq!(*held.0, 3);
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.lock(key);
        }));
        assert!(second.is_err(), "double lock must panic");
        drop(held);
        let _ = s.lock(key);
    }

    /// The root-geometry lock's contract, where ThreadSanitizer looks (CI
    /// runs the lib tests under it): the two fields of one root scanned
    /// from two threads at once give exactly a serial run's outcomes —
    /// deps, plans, charges — and the shared memo ends up the same size.
    /// Every engine takes the lock; each run has a cold clone of the forest.
    #[test]
    fn fields_of_one_root_scan_concurrently_as_serially() {
        use crate::engine::{CoherenceEngine, EngineKind, ShardCtx};
        use crate::sharding::ShardMap;
        use crate::task::{RegionRequirement, TaskId};
        use viz_geometry::{IndexSpace, Point};
        use viz_region::{Privilege, RedOpRegistry};

        let mut forest = RegionForest::new();
        let n = forest.create_root("N", IndexSpace::span(0, 29));
        let fields = [forest.add_field(n, "up"), forest.add_field(n, "dn")];
        let pieces = (0..3).map(|i| IndexSpace::span(10 * i, 10 * i + 9));
        let p = forest.create_partition(n, "P", pieces.collect());
        let ghosts = [&[10, 11, 20][..], &[8, 9, 20, 21], &[9, 18, 19]]
            .map(|g| IndexSpace::from_points(g.iter().map(|x| Point::p1(*x))));
        let g = forest.create_partition(n, "G", ghosts.to_vec());
        // One stream per field: three iterations of writes over P, then
        // reductions over G.
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let waves = [(p, Privilege::ReadWrite), (g, sum)].repeat(3);
        let steps: Vec<_> = waves
            .iter()
            .flat_map(|&(part, privilege)| (0..3).map(move |i| (part, i, privilege)))
            .collect();
        let streams = [0, 1].map(|f| {
            let launch = |(k, &(part, i, privilege)): (usize, _)| TaskLaunch {
                id: TaskId((2 * k + f) as u32),
                name: String::new(),
                node: 0,
                ctx: 0,
                reqs: vec![RegionRequirement::new(
                    forest.subregion(part, i),
                    fields[f],
                    privilege,
                )],
                duration_ns: 0,
            };
            steps.iter().enumerate().map(launch).collect::<Vec<_>>()
        });
        let shards = ShardMap::new(1, false);
        let scan = |eng: &dyn CoherenceEngine, l: &TaskLaunch, ctx: &ShardCtx<'_>| {
            eng.analyze_shard((n, l.reqs[0].field), l, &[0], ctx)
        };
        for kind in EngineKind::all() {
            let forests = [forest.clone(), forest.clone()];
            let [serial_ctx, ctx] = forests.each_ref().map(|forest| ShardCtx {
                forest,
                shards: &shards,
            });
            // Serial: the two streams interleaved on one thread.
            let mut serial = kind.build();
            let mut expect: [Vec<Vec<ReqOutcome>>; 2] = Default::default();
            for k in 0..steps.len() {
                for (stream, out) in streams.iter().zip(&mut expect) {
                    serial.prepare(&stream[k], &serial_ctx);
                    out.push(scan(&*serial, &stream[k], &serial_ctx));
                }
            }
            // Concurrent: both shards prepared here, one thread per field,
            // the two scans of every step released together so they race
            // for the root's lock.
            let ctx = &ctx;
            let mut eng = kind.build();
            for l in streams.iter().flatten() {
                eng.prepare(l, ctx);
            }
            let (eng, step) = (&*eng, &std::sync::Barrier::new(2));
            let mut got: [Vec<Vec<ReqOutcome>>; 2] = Default::default();
            std::thread::scope(|scope| {
                for (stream, out) in streams.iter().zip(&mut got) {
                    scope.spawn(move || {
                        for l in stream {
                            step.wait();
                            out.push(scan(eng, l, ctx));
                        }
                    });
                }
            });
            assert_eq!(got, expect, "{kind:?}");
            assert_eq!(eng.state_size(), serial.state_size(), "{kind:?}");
        }
    }
}

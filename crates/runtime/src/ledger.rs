//! The per-task commit ledger: launches, bodies, stored analysis results,
//! and analysis-completion times, indexed by [`TaskId`].
//!
//! With history GC enabled (see [`crate::config::GcConfig`]) the prefix
//! below the watermark is *retired*: its entries are dropped and `base`
//! records how many. Task ids are stable — accessors subtract the base and
//! panic with a clear message on retired ids — so the rest of the runtime
//! keeps addressing tasks by id, while steady-state memory is bounded by
//! the unretired window instead of growing with program length.
//!
//! The ledger and the DAG are also the history the external consistency
//! oracle (`viz-oracle`) judges: [`Ledger::history`] reads each launch's
//! requirements and context, its DAG row as its dependence edges, and
//! whether its row was replayed or a fence. Commit order is id order on
//! every path (serial, sharded batch, replay, fence), so the retirement
//! order is the ids'.

use crate::dag::TaskDag;
use crate::plan::{AnalysisResult, CopyRange, MaterializePlan, ReduceRange, TaskShift};
use crate::runs::{to_u32, Loc, Runs};
use crate::task::{RegionRequirement, TaskBody, TaskId, TaskLaunch};
use std::sync::Arc;
use viz_region::ReductionOpId;
use viz_sim::{NodeId, SimTime};

/// One committed launch, as the engine claimed it: what was submitted plus
/// the dependence edges it emitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaunchRecord {
    pub id: TaskId,
    pub name: String,
    pub node: NodeId,
    /// The producer context that submitted this launch
    /// ([`TaskLaunch::ctx`]). Scoped fences carry their context's id: the
    /// oracle only requires a fence to follow launches in its own scope.
    pub ctx: u32,
    /// The submitted requirements, exactly as analyzed.
    pub reqs: Vec<RegionRequirement>,
    /// The auto-tracer's fingerprint of `(node, reqs)` — the canonical
    /// signature trace replay validates against.
    pub signature: u64,
    /// The launch's DAG row: the dependence edges the executors honor,
    /// trace-replay shifts already applied.
    pub deps: Vec<TaskId>,
    /// Was this launch's analysis synthesized from a trace template
    /// (annotated or auto) instead of running the visibility engine?
    pub replayed: bool,
    /// Is this an execution fence (ordered after everything prior)?
    pub fence: bool,
}

/// A complete committed history: every launch plus the retirement order.
/// Region-tree geometry is snapshotted separately at export time (the
/// forest only grows, so the final snapshot covers every launch).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordedHistory {
    pub engine: String,
    pub launches: Vec<LaunchRecord>,
    /// Task ids in the order their analyses committed (retired).
    pub retirement: Vec<TaskId>,
}

impl RecordedHistory {
    pub fn len(&self) -> usize {
        self.launches.len()
    }

    pub fn is_empty(&self) -> bool {
        self.launches.is_empty()
    }
}

pub(crate) struct Ledger {
    /// Number of retired (dropped) leading entries — the GC watermark.
    base: u32,
    launches: Vec<TaskLaunch>,
    bodies: Vec<Option<TaskBody>>,
    results: Results,
    /// Simulated time at which each launch's analysis completed on its
    /// origin node — execution cannot start earlier.
    analysis_done: Vec<SimTime>,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            base: 0,
            launches: Vec::new(),
            bodies: Vec::new(),
            results: Results::default(),
            analysis_done: Vec::new(),
        }
    }

    /// The id the next committed launch will get.
    #[inline]
    pub fn next_id(&self) -> u32 {
        self.base + self.launches.len() as u32
    }

    /// Total launches ever committed (retired + retained).
    #[inline]
    pub fn total(&self) -> usize {
        self.next_id() as usize
    }

    /// The GC watermark: every task below it has been retired.
    #[inline]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Launches currently retained (the unretired window).
    #[inline]
    pub fn retained(&self) -> usize {
        self.launches.len()
    }

    /// A retired or uncommitted id is the caller's bug; these panics are
    /// the accessors' documented contract.
    #[inline]
    fn idx(&self, t: TaskId) -> usize {
        match t.0.checked_sub(self.base) {
            Some(i) if (i as usize) < self.launches.len() => i as usize,
            Some(_) => panic!("task {} has not committed", t.0),
            None => panic!(
                "task {} was retired by history GC (watermark {}); \
                 disable RuntimeConfig::history_gc or raise gc_retain to keep it",
                t.0, self.base
            ),
        }
    }

    pub fn launch(&self, t: TaskId) -> &TaskLaunch {
        &self.launches[self.idx(t)]
    }

    pub fn done(&self, t: TaskId) -> SimTime {
        self.analysis_done[self.idx(t)]
    }

    /// The retained launches, oldest first (ids `base..next_id`).
    pub fn launches(&self) -> &[TaskLaunch] {
        &self.launches
    }

    /// The retained launches' stored results; row `i` is task `base + i`.
    pub fn results(&self) -> &Results {
        &self.results
    }

    /// Task `t`'s stored result with its shift applied, `deps` (its DAG
    /// row) as its dependences: see [`Results::resolve`].
    pub fn resolve(&self, t: TaskId, deps: &[TaskId]) -> AnalysisResult {
        self.results.resolve(self.idx(t), deps)
    }

    /// See [`Results::shared_result_addr`].
    pub fn shared_result_addr(&self, t: TaskId) -> Option<usize> {
        self.results.shared_result_addr(self.idx(t))
    }

    /// The full, never-collected history — `None` once anything was
    /// retired. Value execution and the timed schedule replay the whole
    /// program and refuse to run from a partial ledger.
    #[allow(clippy::type_complexity)]
    pub fn full(&self) -> Option<(&[TaskLaunch], &[Option<TaskBody>], &Results, &[SimTime])> {
        (self.base == 0).then_some((
            self.launches.as_slice(),
            self.bodies.as_slice(),
            &self.results,
            self.analysis_done.as_slice(),
        ))
    }

    /// The oracle's history, read off the rows with `dag` (whose row `i`
    /// is task `i`) as the dependence edges. `None` once anything was
    /// retired, as [`Ledger::full`] is: the oracle judges whole histories.
    pub fn history(&self, dag: &TaskDag, engine: &str) -> Option<RecordedHistory> {
        let (launches, ..) = self.full()?;
        let launches: Vec<LaunchRecord> = (launches.iter().zip(&self.results.rows))
            .map(|(l, row)| LaunchRecord {
                id: l.id,
                name: l.name.clone(),
                node: l.node,
                ctx: l.ctx,
                reqs: l.reqs.clone(),
                signature: crate::autotrace::sig_hash(l.node, &l.reqs),
                deps: dag.preds(l.id).to_vec(),
                replayed: matches!(row, Row::Replayed { .. }),
                fence: matches!(row, Row::Fence),
            })
            .collect();
        Some(RecordedHistory {
            engine: engine.to_string(),
            retirement: launches.iter().map(|l| l.id).collect(),
            launches,
        })
    }

    /// One launch's analysis-completion time and stored result. They stay
    /// two pushes, with the DAG row grown between them by the commit
    /// (`runtime/core.rs`, their only caller), so the commit's heap-call
    /// order is the one DESIGN.md §7l measured. The launch itself follows
    /// through [`Ledger::push_launch`] (serial path) or
    /// [`Ledger::append_launches`] (the sharded driver appends a whole
    /// batch once its workers release it), so the column lengths
    /// re-converge at every quiescent point.
    pub fn push_done(&mut self, t: SimTime) {
        self.analysis_done.push(t);
    }

    /// An analyzed launch's result. Its plans move into the runs (its
    /// vectors are freed here); its dependences are dropped, since the
    /// commit already gave them to the DAG.
    pub fn push_analyzed(&mut self, r: AnalysisResult) {
        let row = self.results.push_plans(r.plans);
        self.results.rows.push(row);
    }

    /// A replayed launch's result: its template's, shifted onto it.
    pub fn push_replayed(&mut self, result: Arc<AnalysisResult>, shift: TaskShift) {
        self.results.rows.push(Row::Replayed { result, shift });
    }

    /// A fence's row: no plans (its dependences are all in the DAG).
    pub fn push_fence(&mut self) {
        self.results.rows.push(Row::Fence);
    }

    pub fn push_launch(&mut self, launch: TaskLaunch, body: Option<TaskBody>) {
        debug_assert_eq!(launch.id.0 + 1, self.base + self.results.len() as u32);
        self.launches.push(launch);
        self.bodies.push(body);
    }

    pub fn append_launches(
        &mut self,
        launches: &mut Vec<TaskLaunch>,
        bodies: &mut Vec<Option<TaskBody>>,
    ) {
        self.launches.append(launches);
        self.bodies.append(bodies);
    }

    /// Retire every task below `floor`: drop its launch metadata, body,
    /// stored result, and completion time. Monotone; returns how many
    /// entries were dropped. O(retained) per call — the drain shifts only
    /// the bounded unretired window, and the result runs free whole chunks.
    pub fn retire_to(&mut self, floor: u32) -> usize {
        debug_assert_eq!(self.launches.len(), self.results.len());
        let k = (floor.min(self.next_id()).saturating_sub(self.base)) as usize;
        if k == 0 {
            return 0;
        }
        self.launches.drain(..k);
        self.bodies.drain(..k);
        self.results.retire(k);
        self.analysis_done.drain(..k);
        self.base += k as u32;
        k
    }
}

/// Every retained launch's stored analysis, one row per launch. An
/// analyzed launch's plans, copies and reductions are one run each in
/// append-only chunked columns ([`Runs`]), so a stored result is no heap
/// block of its own and its data never moves once written; its
/// dependences live only in the DAG. A replayed launch shares its
/// template's result. The row's variant is how the launch got its
/// analysis, which the oracle's history reads.
#[derive(Default)]
pub(crate) struct Results {
    rows: Vec<Row>,
    plans: Runs<PlanRow>,
    copies: Runs<CopyRange>,
    reductions: Runs<ReduceRange>,
}

enum Row {
    /// An analyzed launch: one run per column.
    Owned {
        plans: Loc,
        copies: Loc,
        reductions: Loc,
    },
    /// A replayed launch: the template's result, with task references
    /// shifted onto this instance at the read.
    Replayed {
        result: Arc<AnalysisResult>,
        shift: TaskShift,
    },
    /// An execution fence.
    Fence,
}

impl Row {
    /// The row's plan, copy and reduction runs (empty unless owned).
    fn locs(&self) -> [Loc; 3] {
        match self {
            Row::Owned {
                plans,
                copies,
                reductions,
            } => [*plans, *copies, *reductions],
            _ => [Loc::default(); 3],
        }
    }
}

/// One plan of an analyzed launch. Its copies and reductions end at these
/// offsets into the launch's runs and start where the previous plan's end.
struct PlanRow {
    fill_identity: Option<ReductionOpId>,
    copies_end: u32,
    reductions_end: u32,
}

/// A stored plan as its readers see it. Task references are in the
/// coordinates [`Results::shift`] maps onto the launch.
pub(crate) struct PlanView<'a> {
    pub fill_identity: Option<ReductionOpId>,
    pub copies: &'a [CopyRange],
    pub reductions: &'a [ReduceRange],
}

impl Results {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    fn push_plans(&mut self, mut plans: Vec<MaterializePlan>) -> Row {
        let (mut copies_end, mut reductions_end) = (0, 0);
        let rows = plans.iter().map(|p| {
            copies_end += p.copies.len();
            reductions_end += p.reductions.len();
            PlanRow {
                fill_identity: p.fill_identity,
                copies_end: to_u32(copies_end),
                reductions_end: to_u32(reductions_end),
            }
        });
        let plans_loc = self.plans.push(plans.len(), rows);
        let copies = self.copies.push(
            copies_end,
            plans.iter_mut().flat_map(|p| p.copies.drain(..)),
        );
        let reductions = self.reductions.push(
            reductions_end,
            plans.iter_mut().flat_map(|p| p.reductions.drain(..)),
        );
        Row::Owned {
            plans: plans_loc,
            copies,
            reductions,
        }
    }

    /// The shift that maps row `i`'s task references onto the launch.
    pub fn shift(&self, i: usize) -> TaskShift {
        match &self.rows[i] {
            Row::Replayed { shift, .. } => *shift,
            _ => TaskShift::IDENTITY,
        }
    }

    /// Row `i`'s number of plans (one per requirement).
    pub fn plan_count(&self, i: usize) -> usize {
        match &self.rows[i] {
            Row::Owned { plans, .. } => plans.len as usize,
            Row::Replayed { result, .. } => result.plans.len(),
            Row::Fence => 0,
        }
    }

    /// Plan `k` of row `i`.
    pub fn plan(&self, i: usize, k: usize) -> PlanView<'_> {
        match &self.rows[i] {
            Row::Owned {
                plans,
                copies,
                reductions,
            } => {
                let rows = self.plans.get(*plans);
                let (copies_start, reductions_start) = match k.checked_sub(1) {
                    Some(j) => (rows[j].copies_end, rows[j].reductions_end),
                    None => (0, 0),
                };
                let row = &rows[k];
                PlanView {
                    fill_identity: row.fill_identity,
                    copies: &self.copies.get(*copies)
                        [copies_start as usize..row.copies_end as usize],
                    reductions: &self.reductions.get(*reductions)
                        [reductions_start as usize..row.reductions_end as usize],
                }
            }
            Row::Replayed { result, .. } => {
                let plan = &result.plans[k];
                PlanView {
                    fill_identity: plan.fill_identity,
                    copies: &plan.copies,
                    reductions: &plan.reductions,
                }
            }
            // Cannot fire: a fence's `plan_count` is 0, and readers ask for
            // plans below it.
            Row::Fence => panic!("a fence has no plans"),
        }
    }

    /// Row `i` materialized with its shift applied, `deps` (the DAG's row
    /// for the launch) as its dependences. Allocates; for introspection
    /// and for building trace templates.
    pub fn resolve(&self, i: usize, deps: &[TaskId]) -> AnalysisResult {
        let mut r = AnalysisResult {
            deps: Vec::new(),
            plans: (0..self.plan_count(i))
                .map(|k| {
                    let plan = self.plan(i, k);
                    MaterializePlan {
                        copies: plan.copies.to_vec(),
                        reductions: plan.reductions.to_vec(),
                        fill_identity: plan.fill_identity,
                    }
                })
                .collect(),
        };
        let shift = self.shift(i);
        if !shift.is_identity() {
            r.map_tasks(|t| shift.apply(t));
        }
        r.deps = deps.to_vec();
        r
    }

    /// The address of the template result a replayed row `i` shares
    /// (`None` for an analyzed launch or a fence): pointer identity shows
    /// replay shares one allocation per template entry.
    pub fn shared_result_addr(&self, i: usize) -> Option<usize> {
        match &self.rows[i] {
            Row::Replayed { result, .. } => Some(Arc::as_ptr(result) as usize),
            Row::Owned { .. } | Row::Fence => None,
        }
    }

    /// Drop the first `k` rows and every chunk no retained row reads.
    fn retire(&mut self, k: usize) {
        self.rows.drain(..k);
        // Runs are appended in row order, so the first retained non-empty
        // run of a column sits in its lowest live chunk.
        let floor = |col: usize| {
            self.rows
                .iter()
                .map(|r| r.locs()[col])
                .find(|l| l.len > 0)
                .map_or(u32::MAX, |l| l.chunk)
        };
        self.plans.retire_before(floor(0));
        self.copies.retire_before(floor(1));
        self.reductions.retire_before(floor(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Source;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use viz_geometry::IndexSpace;
    use viz_region::RedOpRegistry;

    fn launch(id: u32) -> TaskLaunch {
        TaskLaunch {
            id: TaskId(id),
            name: format!("t{id}"),
            node: 0,
            ctx: 0,
            reqs: Vec::new(),
            duration_ns: 0,
        }
    }

    fn commit(l: &mut Ledger) -> TaskId {
        let id = TaskId(l.next_id());
        l.push_done(0);
        l.push_analyzed(AnalysisResult::default());
        l.push_launch(launch(id.0), None);
        id
    }

    #[test]
    fn ids_survive_retirement() {
        let mut l = Ledger::new();
        for _ in 0..10 {
            commit(&mut l);
        }
        assert!(l.full().is_some());
        assert_eq!(l.retire_to(6), 6);
        assert_eq!(l.base(), 6);
        assert_eq!(l.total(), 10);
        assert_eq!(l.retained(), 4);
        assert!(l.full().is_none());
        assert_eq!(l.launch(TaskId(7)).name, "t7");
        assert_eq!(l.launches()[0].id, TaskId(6));
        // Monotone + idempotent below the watermark.
        assert_eq!(l.retire_to(3), 0);
        // New commits keep global ids.
        assert_eq!(commit(&mut l), TaskId(10));
        assert_eq!(l.launch(TaskId(10)).name, "t10");
    }

    #[test]
    #[should_panic(expected = "retired by history GC")]
    fn retired_access_panics_with_watermark() {
        let mut l = Ledger::new();
        for _ in 0..4 {
            commit(&mut l);
        }
        l.retire_to(2);
        l.launch(TaskId(1));
    }

    fn task(rng: &mut StdRng) -> TaskId {
        TaskId(rng.random_range(0..64u32))
    }

    fn space(rng: &mut StdRng) -> IndexSpace {
        let lo = rng.random_range(0..100i64);
        IndexSpace::span(lo, lo + rng.random_range(0..8i64))
    }

    /// A random result: 0–4 plans (empty ones included), each with 0–3
    /// copies and 0–2 reductions, or a first plan of `huge` copies.
    fn result(rng: &mut StdRng, huge: usize) -> AnalysisResult {
        let plans = (0..rng.random_range(0..5usize).max(usize::from(huge > 0)))
            .map(|k| {
                let n = if k == 0 && huge > 0 {
                    huge
                } else {
                    rng.random_range(0..4usize)
                };
                MaterializePlan {
                    copies: (0..n)
                        .map(|_| CopyRange {
                            source: if rng.random_bool() {
                                Source::Initial
                            } else {
                                Source::Task(task(rng), rng.random_range(0..3u32))
                            },
                            domain: space(rng),
                        })
                        .collect(),
                    reductions: (0..rng.random_range(0..3usize))
                        .map(|_| ReduceRange {
                            task: task(rng),
                            req: rng.random_range(0..3u32),
                            redop: RedOpRegistry::SUM,
                            domain: space(rng),
                        })
                        .collect(),
                    fill_identity: rng.random_bool().then_some(RedOpRegistry::MAX),
                }
            })
            .collect();
        AnalysisResult {
            deps: (0..rng.random_range(0..3u32)).map(TaskId).collect(),
            plans,
        }
    }

    /// What a row must read back: its result with its shift applied, and
    /// the address of the template result a replayed row shares.
    type Expected = (AnalysisResult, Option<usize>);

    /// Commit an analyzed result.
    fn analyzed(l: &mut Ledger, reference: &mut Vec<Expected>, r: AnalysisResult) {
        let id = l.next_id();
        reference.push((r.clone(), None));
        l.push_done(0);
        l.push_analyzed(r);
        l.push_launch(launch(id), None);
    }

    /// Commit a replayed row: a random template result under a random
    /// shift (sometimes the identity).
    fn replayed(l: &mut Ledger, reference: &mut Vec<Expected>, rng: &mut StdRng) {
        let shift = if rng.random_bool() {
            TaskShift::IDENTITY
        } else {
            let lo = rng.random_range(0..32u32);
            TaskShift {
                lo,
                hi: lo + rng.random_range(1..32u32),
                delta: rng.random_range(1..100u32),
            }
        };
        let result = Arc::new(result(rng, 0));
        let mut expected = (*result).clone();
        expected.map_tasks(|t| shift.apply(t));
        let id = l.next_id();
        reference.push((expected, Some(Arc::as_ptr(&result) as usize)));
        l.push_done(0);
        l.push_replayed(result, shift);
        l.push_launch(launch(id), None);
    }

    /// Commit a fence: no plans.
    fn fence(l: &mut Ledger, reference: &mut Vec<Expected>) {
        let id = l.next_id();
        reference.push((AnalysisResult::default(), None));
        l.push_done(0);
        l.push_fence();
        l.push_launch(launch(id), None);
    }

    /// Every retained row reads back what the reference resolves to.
    fn check(l: &Ledger, reference: &[Expected]) {
        let results = l.results();
        assert_eq!(results.len(), l.retained());
        assert_eq!(results.len(), reference.len());
        for (i, (expected, shared)) in reference.iter().enumerate() {
            assert_eq!(results.resolve(i, &expected.deps), *expected, "row {i}");
            assert_eq!(results.shared_result_addr(i), *shared, "row {i}");
        }
        // Each column holds no chunk below its lowest retained run.
        let columns = [
            (results.plans.first_chunk(), results.plans.chunks()),
            (results.copies.first_chunk(), results.copies.chunks()),
            (
                results.reductions.first_chunk(),
                results.reductions.chunks(),
            ),
        ];
        for (col, (first, held)) in columns.into_iter().enumerate() {
            match results
                .rows
                .iter()
                .map(|r| r.locs()[col])
                .find(|l| l.len > 0)
            {
                Some(lowest) => assert_eq!(first, lowest.chunk, "column {col}"),
                None => assert_eq!(held, 0, "column {col}"),
            }
        }
    }

    fn retire(l: &mut Ledger, reference: &mut Vec<Expected>, floor: u32) {
        let k = l.retire_to(floor);
        reference.drain(..k);
        check(l, reference);
    }

    #[test]
    fn chunked_results_match_stored_results() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut l = Ledger::new();
        let mut reference = Vec::new();
        let chunk_copies = Runs::<CopyRange>::LEN;
        for step in 0..3000 {
            match step {
                // More copies than a chunk holds: a chunk of its own.
                100 => {
                    let r = result(&mut rng, chunk_copies + 5);
                    analyzed(&mut l, &mut reference, r);
                }
                // The first retained rows are replayed.
                1000 => {
                    let floor = l.next_id();
                    for _ in 0..3 {
                        replayed(&mut l, &mut reference, &mut rng);
                    }
                    retire(&mut l, &mut reference, floor);
                    assert!(l.results().shared_result_addr(0).is_some());
                }
                // Everything retires.
                2000 => {
                    let all = l.next_id();
                    retire(&mut l, &mut reference, all);
                    assert_eq!(l.retained(), 0);
                    let r = &l.results;
                    assert_eq!(
                        r.plans.chunks() + r.copies.chunks() + r.reductions.chunks(),
                        0
                    );
                }
                _ if rng.random_range(0..10u32) == 0 => {
                    let floor = rng.random_range(l.base()..l.next_id() + 1);
                    retire(&mut l, &mut reference, floor);
                }
                _ if rng.random_range(0..3u32) == 0 => {
                    replayed(&mut l, &mut reference, &mut rng);
                }
                _ if rng.random_range(0..20u32) == 0 => fence(&mut l, &mut reference),
                _ => {
                    let r = result(&mut rng, 0);
                    analyzed(&mut l, &mut reference, r);
                }
            }
            check(&l, &reference);
        }
        assert!(l.base() > 0 && l.retained() > 0);
    }

    /// The launch's context fills `TaskLaunch`'s padding and the row kinds
    /// fit the shared row's size, so the history the oracle reads costs the
    /// ledger no byte per launch.
    #[test]
    fn history_fields_cost_no_layout() {
        assert_eq!(std::mem::size_of::<TaskLaunch>(), 72);
        assert_eq!(std::mem::size_of::<Row>(), 40);
    }
}

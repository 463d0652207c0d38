//! The per-task commit ledger: launches, bodies, stored analysis results,
//! and analysis-completion times, indexed by [`TaskId`].
//!
//! With history GC enabled (see [`crate::config::GcConfig`]) the prefix
//! below the watermark is *retired*: its entries are dropped and `base`
//! records how many. Task ids are stable — accessors subtract the base and
//! panic with a clear message on retired ids — so the rest of the runtime
//! keeps addressing tasks by id, while steady-state memory is bounded by
//! the unretired window instead of growing with program length.

use crate::plan::StoredResult;
use crate::task::{TaskBody, TaskId, TaskLaunch};
use viz_sim::SimTime;

pub(crate) struct Ledger {
    /// Number of retired (dropped) leading entries — the GC watermark.
    base: u32,
    launches: Vec<TaskLaunch>,
    bodies: Vec<Option<TaskBody>>,
    results: Vec<StoredResult>,
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
            results: Vec::new(),
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

    #[cfg(test)]
    pub fn launch(&self, t: TaskId) -> &TaskLaunch {
        &self.launches[self.idx(t)]
    }

    pub fn result(&self, t: TaskId) -> &StoredResult {
        &self.results[self.idx(t)]
    }

    pub fn done(&self, t: TaskId) -> SimTime {
        self.analysis_done[self.idx(t)]
    }

    /// The retained launches, oldest first (ids `base..next_id`).
    pub fn launches(&self) -> &[TaskLaunch] {
        &self.launches
    }

    pub fn results(&self) -> &[StoredResult] {
        &self.results
    }

    /// The full, never-collected history — `None` once anything was
    /// retired. Value execution and the timed schedule replay the whole
    /// program and refuse to run from a partial ledger.
    #[allow(clippy::type_complexity)]
    pub fn full(
        &self,
    ) -> Option<(
        &[TaskLaunch],
        &[Option<TaskBody>],
        &[StoredResult],
        &[SimTime],
    )> {
        (self.base == 0).then_some((
            self.launches.as_slice(),
            self.bodies.as_slice(),
            self.results.as_slice(),
            self.analysis_done.as_slice(),
        ))
    }

    /// One launch's analysis-completion time and stored result. They stay
    /// two pushes because the commit (`runtime/core.rs`, their only caller)
    /// grows the DAG row between them, and the order in which the columns
    /// reallocate is part of the allocation pattern the end-to-end
    /// harness's `peak_rss_mb` rows are sensitive to. The launch itself
    /// follows through [`Ledger::push_launch`] (serial path) or
    /// [`Ledger::append_launches`] (the sharded driver appends a whole
    /// batch once its workers release it), so the column lengths
    /// re-converge at every quiescent point.
    pub fn push_done(&mut self, t: SimTime) {
        self.analysis_done.push(t);
    }

    pub fn push_result(&mut self, r: StoredResult) {
        self.results.push(r);
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
    /// the bounded unretired window.
    pub fn retire_to(&mut self, floor: u32) -> usize {
        debug_assert_eq!(self.launches.len(), self.results.len());
        let k = (floor.min(self.next_id()).saturating_sub(self.base)) as usize;
        if k == 0 {
            return 0;
        }
        self.launches.drain(..k);
        self.bodies.drain(..k);
        self.results.drain(..k);
        self.analysis_done.drain(..k);
        self.base += k as u32;
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AnalysisResult;

    fn launch(id: u32) -> TaskLaunch {
        TaskLaunch {
            id: TaskId(id),
            name: format!("t{id}"),
            node: 0,
            reqs: Vec::new(),
            duration_ns: 0,
        }
    }

    fn commit(l: &mut Ledger) -> TaskId {
        let id = TaskId(l.next_id());
        l.push_done(0);
        l.push_result(StoredResult::Owned(AnalysisResult {
            deps: Vec::new(),
            plans: Vec::new(),
        }));
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
}

//! The dependence DAG produced by the analysis (§3.2).
//!
//! Task ids are assigned in program order, so every edge points from a task
//! to a strictly earlier task and program order is already a topological
//! order. Dependence analysis "relaxes the sequential order to a partial
//! (parallel) order such that the coherence of reads is still guaranteed."
//!
//! The DAG holds what the analysis produced — predecessor lists — plus two
//! tags per task that cost O(deps) to maintain at push time: `depth`
//! (longest-path depth; also the task's wave) and `min_anc` (smallest
//! ancestor id). Nothing on the launch path asks a reachability question,
//! so no transitive index is kept: `must_follow` applies the two tags as
//! exact negative filters and otherwise walks predecessor lists, pruned by
//! the same filters. A consumer that needs O(1) positives builds its own
//! closure beside the query (as `viz-oracle`'s `depa::Precedence` does).

use crate::runs::{Loc, Runs};
use crate::task::TaskId;

/// Harness-pinned (`crates/e2e` samples half its `must_follow` pairs within
/// this many ids); nothing in the runtime reads it. Goes with the next
/// `benchmark` PR.
pub const DEFAULT_TAG_WINDOW: u32 = 4096;

/// Dependence DAG over recorded launches: every predecessor list is one
/// run in an append-only chunked column, and each task has one row.
#[derive(Clone, Debug, Default)]
pub struct TaskDag {
    /// Every task's predecessors (sorted, deduplicated), one run each.
    edges: Runs<TaskId>,
    rows: Vec<Row>,
}

#[derive(Copy, Clone, Debug)]
struct Row {
    /// Where the task's predecessors sit in `edges`.
    preds: Loc,
    /// Longest-path depth (0 for roots).
    depth: u32,
    /// Smallest ancestor id (`u32::MAX` for roots).
    min_anc: u32,
}

impl TaskDag {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the next task (ids must be added in program order) with its
    /// dependences. O(deps).
    pub fn push(&mut self, deps: Vec<TaskId>) -> TaskId {
        self.push_slice(&deps)
    }

    /// [`TaskDag::push`] from a borrowed list: the edges are copied into the
    /// DAG's own column, so a push allocates nothing beyond that column's
    /// growth.
    pub fn push_slice(&mut self, deps: &[TaskId]) -> TaskId {
        self.push_mapped(deps, |d| d)
    }

    /// [`TaskDag::push_slice`] of `deps` with `map` applied to each as it
    /// is read: a replayed launch's template dependences go into the column
    /// through the instance's shift, with no shifted copy in between. `map`
    /// must keep the list ascending (a `TaskShift` does).
    pub(crate) fn push_mapped(
        &mut self,
        deps: &[TaskId],
        map: impl Fn(TaskId) -> TaskId,
    ) -> TaskId {
        let id = TaskId(self.rows.len() as u32);
        debug_assert!(
            deps.iter().all(|d| map(*d) < id),
            "dependence on the future"
        );
        let mut depth = 0u32;
        let mut min_anc = u32::MAX;
        for d in deps.iter().map(|d| map(*d)) {
            let row = &self.rows[d.index()];
            depth = depth.max(row.depth + 1);
            min_anc = min_anc.min(row.min_anc).min(d.0);
        }
        let preds = self.edges.push(deps.len(), deps.iter().map(|d| map(*d)));
        self.rows.push(Row {
            preds,
            depth,
            min_anc,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        self.edges.get(self.rows[t.index()].preds)
    }

    /// Exact negative filters: `anc` can be a proper ancestor of `d` only if
    /// it is earlier, strictly shallower, and not below `d`'s smallest
    /// ancestor.
    fn may_follow(&self, d: TaskId, anc: TaskId) -> bool {
        d > anc && {
            let (row, anc_row) = (&self.rows[d.index()], &self.rows[anc.index()]);
            row.depth > anc_row.depth && row.min_anc <= anc.0
        }
    }

    /// Is `anc` reachable from `t` through dependence edges (i.e. must `t`
    /// run after `anc`)? Reflexive.
    ///
    /// Negatives are mostly O(1) from the `(depth, min_anc)` tags; the rest
    /// is an iterative walk over predecessor lists that skips every task the
    /// tags rule out, with a visited set sized by the id range `t - anc`
    /// (not program length). Debug builds cross-check every answer against
    /// [`TaskDag::must_follow_walk`].
    pub fn must_follow(&self, t: TaskId, anc: TaskId) -> bool {
        let hit = t == anc || (self.may_follow(t, anc) && self.pruned_walk(t, anc));
        debug_assert_eq!(hit, self.must_follow_walk(t, anc));
        hit
    }

    fn pruned_walk(&self, t: TaskId, anc: TaskId) -> bool {
        // `seen[d - anc - 1]` for the ids in `(anc, t)` a walk can visit.
        let mut seen = vec![false; (t.0 - anc.0) as usize];
        let mut stack = vec![t];
        while let Some(cur) = stack.pop() {
            // Reversed, so the smallest predecessor is popped next: a
            // positive descends towards `anc` by the longest jumps.
            for d in self.preds(cur).iter().rev() {
                if *d == anc {
                    return true;
                }
                if self.may_follow(*d, anc) {
                    let seen = &mut seen[(d.0 - anc.0 - 1) as usize];
                    if !*seen {
                        *seen = true;
                        stack.push(*d);
                    }
                }
            }
        }
        false
    }

    /// The unpruned transitive walk over predecessor lists: the reference
    /// that the debug cross-check and `tests/prop_precedence.rs` compare
    /// [`TaskDag::must_follow`] against.
    pub fn must_follow_walk(&self, t: TaskId, anc: TaskId) -> bool {
        if t == anc {
            return true;
        }
        // Depth-first over predecessors; ids decrease along edges so we can
        // prune anything below `anc`.
        let mut seen = vec![false; self.rows.len()];
        let mut stack = vec![t];
        while let Some(cur) = stack.pop() {
            for d in self.preds(cur) {
                if *d == anc {
                    return true;
                }
                if *d > anc && !seen[d.index()] {
                    seen[d.index()] = true;
                    stack.push(*d);
                }
            }
        }
        false
    }

    /// Harness-pinned (`crates/e2e` times it per sweep): the DAG keeps
    /// nothing derived, so there is nothing to retire. Goes with the next
    /// `benchmark` PR.
    pub fn retire_to(&mut self, _floor: TaskId) -> usize {
        0
    }

    /// Harness-pinned (`crates/e2e` reports it): always 0, no tag rows
    /// exist. Goes with the next `benchmark` PR.
    pub fn tag_words(&self) -> usize {
        0
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(|r| r.preds.len as usize).sum()
    }

    /// The length of the longest dependence chain (critical path in tasks).
    pub fn critical_path_len(&self) -> usize {
        self.depths().max().map_or(0, |d| d as usize + 1)
    }

    /// Partition tasks into "waves" that could run concurrently: a task's
    /// wave is one past the max wave of its predecessors (its tag depth).
    pub fn waves(&self) -> Vec<Vec<TaskId>> {
        let mut waves = vec![Vec::new(); self.critical_path_len()];
        for (i, w) in self.depths().enumerate() {
            waves[w as usize].push(TaskId(i as u32));
        }
        waves
    }

    fn depths(&self) -> impl Iterator<Item = u32> + '_ {
        self.rows.iter().map(|r| r.depth)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The paper's Fig 5 dependence structure: three waves of three
    /// independent tasks, each wave depending on all of the previous.
    pub(crate) fn fig5_dag() -> TaskDag {
        let mut dag = TaskDag::new();
        for _ in 0..3 {
            dag.push(vec![]);
        }
        for _ in 3..6 {
            dag.push(vec![TaskId(0), TaskId(1), TaskId(2)]);
        }
        for _ in 6..9 {
            dag.push(vec![TaskId(3), TaskId(4), TaskId(5)]);
        }
        dag
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut dag = TaskDag::new();
        assert_eq!(dag.push(vec![]), TaskId(0));
        assert_eq!(dag.push(vec![TaskId(0)]), TaskId(1));
        assert_eq!(dag.len(), 2);
    }

    #[test]
    fn fig5_waves() {
        let dag = fig5_dag();
        let waves = dag.waves();
        assert_eq!(waves.len(), 3, "t0-2, t3-5, t6-8 run as three waves");
        assert_eq!(waves[0], vec![TaskId(0), TaskId(1), TaskId(2)]);
        assert_eq!(waves[2], vec![TaskId(6), TaskId(7), TaskId(8)]);
        assert_eq!(dag.critical_path_len(), 3);
    }

    #[test]
    fn transitive_reachability() {
        let dag = fig5_dag();
        // t6 depends on t0 only transitively (through t3-5).
        assert!(!dag.preds(TaskId(6)).contains(&TaskId(0)));
        assert!(dag.must_follow(TaskId(6), TaskId(0)));
        assert!(dag.must_follow(TaskId(6), TaskId(6)));
        assert!(!dag.must_follow(TaskId(0), TaskId(6)));
        assert!(!dag.must_follow(TaskId(1), TaskId(0)), "peers unordered");
    }

    #[test]
    fn chain_reachability_at_any_distance() {
        let mut dag = TaskDag::new();
        dag.push(vec![]);
        for i in 1..200u32 {
            dag.push(vec![TaskId(i - 1)]);
        }
        assert!(dag.must_follow(TaskId(199), TaskId(0)));
        assert!(dag.must_follow(TaskId(199), TaskId(64)));
        assert!(dag.must_follow(TaskId(64), TaskId(63)));
        assert!(!dag.must_follow(TaskId(0), TaskId(199)));
        assert_eq!(dag.critical_path_len(), 200);
    }
}

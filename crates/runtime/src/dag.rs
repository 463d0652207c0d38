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

use crate::task::TaskId;

/// Harness-pinned (`crates/e2e` samples half its `must_follow` pairs within
/// this many ids); nothing in the runtime reads it. Goes with the next
/// `benchmark` PR.
pub const DEFAULT_TAG_WINDOW: u32 = 4096;

/// Dependence DAG over recorded launches.
#[derive(Clone, Debug, Default)]
pub struct TaskDag {
    /// `preds[t]` = tasks `t` must wait for (sorted, deduplicated).
    preds: Vec<Vec<TaskId>>,
    /// Longest-path depth of each task (0 for roots).
    depth: Vec<u32>,
    /// Smallest ancestor id of each task (`u32::MAX` for roots).
    min_anc: Vec<u32>,
}

impl TaskDag {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the next task (ids must be added in program order) with its
    /// dependences. O(deps); `deps` is stored as is, so a push allocates
    /// nothing beyond the amortised growth of the three columns.
    pub fn push(&mut self, deps: Vec<TaskId>) -> TaskId {
        let id = TaskId(self.preds.len() as u32);
        debug_assert!(deps.iter().all(|d| *d < id), "dependence on the future");
        let mut depth = 0u32;
        let mut min_anc = u32::MAX;
        for d in &deps {
            depth = depth.max(self.depth[d.index()] + 1);
            min_anc = min_anc.min(self.min_anc[d.index()]).min(d.0);
        }
        self.preds.push(deps);
        self.depth.push(depth);
        self.min_anc.push(min_anc);
        id
    }

    pub fn len(&self) -> usize {
        self.preds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        &self.preds[t.index()]
    }

    /// Exact negative filters: `anc` can be a proper ancestor of `d` only if
    /// it is earlier, strictly shallower, and not below `d`'s smallest
    /// ancestor.
    fn may_follow(&self, d: TaskId, anc: TaskId) -> bool {
        d > anc
            && self.depth[d.index()] > self.depth[anc.index()]
            && self.min_anc[d.index()] <= anc.0
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
        let mut seen = vec![false; self.preds.len()];
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
        self.preds.iter().map(Vec::len).sum()
    }

    /// The length of the longest dependence chain (critical path in tasks).
    pub fn critical_path_len(&self) -> usize {
        self.depth.iter().max().map_or(0, |d| *d as usize + 1)
    }

    /// Partition tasks into "waves" that could run concurrently: a task's
    /// wave is one past the max wave of its predecessors (its tag depth).
    pub fn waves(&self) -> Vec<Vec<TaskId>> {
        let max_wave = self.depth.iter().max().copied().unwrap_or(0) as usize;
        let mut waves = vec![
            Vec::new();
            if self.depth.is_empty() {
                0
            } else {
                max_wave + 1
            }
        ];
        for (i, w) in self.depth.iter().enumerate() {
            waves[*w as usize].push(TaskId(i as u32));
        }
        waves
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

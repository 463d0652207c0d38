//! Histories and the backward visibility scan.
//!
//! The core of the visibility reduction (§3): materializing a region means
//! "looking backwards in time" along each of its points. Reads are fully
//! transparent, reductions semi-transparent, writes opaque. One backward
//! scan over history entries (newest first) yields both the dependences and
//! the materialization plan:
//!
//! * a *write* entry is visible on the points not yet occluded; it becomes a
//!   base-copy source and occludes everything older on those points;
//! * a *reduce* entry is visible on un-occluded points and becomes a pending
//!   fold;
//! * a *read* entry never occludes and never supplies values, but a visible
//!   read still produces a dependence for interfering successors
//!   (write-after-read).
//!
//! Occluded entries produce no dependence edges: every point of an occluded
//! entry is covered by a newer write, the new task depends on that write,
//! and the write (having interfered with everything underneath) depends on
//! the occluded entry — ordering is preserved transitively (§3.2).

use crate::plan::{CopyRange, MaterializePlan, ReduceRange, Source};
use crate::task::TaskId;
use viz_geometry::IndexSpace;
use viz_region::Privilege;

/// One recorded operation: task `task`'s requirement `req` accessed
/// `domain` with `privilege`. (The result pairs the paper's `commit`
/// appends to the state, Fig 7 line 20.)
#[derive(Clone, Debug)]
pub struct HistEntry {
    pub task: TaskId,
    pub req: u32,
    pub privilege: Privilege,
    pub domain: IndexSpace,
}

/// A backward visibility scan for a new access with privilege `priv_new`
/// over `target`. Feed entries newest-to-oldest via [`VisScan::visit`];
/// finish with [`VisScan::finish`].
pub struct VisScan {
    priv_new: Privilege,
    /// Portion of the target not yet occluded by a newer write.
    needed: IndexSpace,
    needed_bbox: viz_geometry::Rect,
    want_values: bool,
    deps: Vec<TaskId>,
    copies: Vec<CopyRange>,
    reductions: Vec<ReduceRange>,
    /// Exact geometry operations performed, for cost charging.
    pub geom_ops: usize,
    pub entries_scanned: usize,
}

impl VisScan {
    /// A reduction privilege still collects dependences (dependence
    /// analysis is a subset of the coherence problem, §3.2) but skips the
    /// plan: it materializes an identity fill instead.
    pub fn new(target: IndexSpace, priv_new: Privilege) -> Self {
        let needed_bbox = target.bbox();
        VisScan {
            priv_new,
            needed: target,
            needed_bbox,
            want_values: priv_new.needs_current_values(),
            deps: Vec::new(),
            copies: Vec::new(),
            reductions: Vec::new(),
            geom_ops: 0,
            entries_scanned: 0,
        }
    }

    /// Nothing older can be visible (every point occluded): scans may stop.
    pub fn done(&self) -> bool {
        self.needed.is_empty()
    }

    /// The still-unoccluded portion of the target.
    pub fn needed(&self) -> &IndexSpace {
        &self.needed
    }

    /// Visit one entry (entries must arrive newest first). A cheap
    /// bounding-box prefilter rejects far-away entries without a full
    /// intersection (counted in `entries_scanned` but not `geom_ops`).
    pub fn visit(&mut self, e: &HistEntry) {
        if self.done() {
            return;
        }
        self.entries_scanned += 1;
        if !e.domain.bbox().overlaps(&self.needed_bbox) {
            return;
        }
        self.geom_ops += 1;
        let vis = e.domain.intersect(&self.needed);
        if vis.is_empty() {
            return;
        }
        if e.privilege.interferes(self.priv_new) {
            self.deps.push(e.task);
        }
        match e.privilege {
            Privilege::ReadWrite => {
                if self.want_values {
                    self.copies.push(CopyRange {
                        source: Source::Task(e.task, e.req),
                        domain: vis,
                    });
                }
                self.geom_ops += 1;
                self.needed = self.needed.subtract(&e.domain);
                self.needed_bbox = self.needed.bbox();
            }
            Privilege::Reduce(op) => {
                if self.want_values {
                    self.reductions.push(ReduceRange {
                        task: e.task,
                        req: e.req,
                        redop: op,
                        domain: vis,
                    });
                }
            }
            Privilege::Read => {}
        }
    }

    /// Complete the scan: any remaining unoccluded points come from the
    /// initial region contents. Returns `(deps, plan)` with deps sorted in
    /// program order.
    pub fn finish(mut self) -> (Vec<TaskId>, MaterializePlan) {
        self.deps.sort_unstable();
        self.deps.dedup();
        let mut plan = MaterializePlan::for_privilege(self.priv_new);
        if self.want_values {
            if !self.needed.is_empty() {
                self.copies.push(CopyRange {
                    source: Source::Initial,
                    domain: self.needed,
                });
            }
            plan.copies = self.copies;
            plan.reductions = self.reductions;
        }
        (self.deps, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_region::RedOpRegistry;

    fn entry(task: u32, privilege: Privilege, lo: i64, hi: i64) -> HistEntry {
        HistEntry {
            task: TaskId(task),
            req: 0,
            privilege,
            domain: IndexSpace::span(lo, hi),
        }
    }

    /// Scan a history (given oldest-first, as stored) for a new access.
    fn scan(
        hist: &[HistEntry],
        target: (i64, i64),
        p: Privilege,
    ) -> (Vec<TaskId>, MaterializePlan) {
        let mut s = VisScan::new(IndexSpace::span(target.0, target.1), p);
        for e in hist.iter().rev() {
            s.visit(e);
        }
        let (deps, mut plan) = s.finish();
        plan.normalize();
        (deps, plan)
    }

    #[test]
    fn read_sees_most_recent_write() {
        let hist = vec![
            entry(0, Privilege::ReadWrite, 0, 9),
            entry(1, Privilege::ReadWrite, 0, 9),
        ];
        let (deps, plan) = scan(&hist, (0, 9), Privilege::Read);
        assert_eq!(deps, vec![TaskId(1)], "t0 occluded by t1");
        assert_eq!(plan.copies.len(), 1);
        assert_eq!(plan.copies[0].source, Source::Task(TaskId(1), 0));
    }

    #[test]
    fn partial_occlusion_takes_both_sources() {
        // t0 writes [0,9]; t1 overwrites [0,4]; a read of [0,9] needs both.
        let hist = vec![
            entry(0, Privilege::ReadWrite, 0, 9),
            entry(1, Privilege::ReadWrite, 0, 4),
        ];
        let (deps, plan) = scan(&hist, (0, 9), Privilege::Read);
        assert_eq!(deps, vec![TaskId(0), TaskId(1)]);
        assert_eq!(plan.copies.len(), 2);
        let total: u64 = plan.copies.iter().map(|c| c.domain.volume()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn uncovered_points_come_from_initial() {
        let hist = vec![entry(0, Privilege::ReadWrite, 0, 4)];
        let (_, plan) = scan(&hist, (0, 9), Privilege::Read);
        assert!(plan
            .copies
            .iter()
            .any(|c| c.source == Source::Initial && c.domain.volume() == 5));
    }

    #[test]
    fn reductions_fold_on_top_of_base_write() {
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let hist = vec![
            entry(0, Privilege::ReadWrite, 0, 9),
            entry(1, sum, 0, 4),
            entry(2, sum, 2, 6),
        ];
        let (deps, plan) = scan(&hist, (0, 9), Privilege::Read);
        assert_eq!(deps, vec![TaskId(0), TaskId(1), TaskId(2)]);
        assert_eq!(plan.copies.len(), 1, "base from t0");
        assert_eq!(plan.reductions.len(), 2);
        assert_eq!(plan.reductions[0].task, TaskId(1), "program order");
    }

    #[test]
    fn write_occludes_older_reductions() {
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let hist = vec![entry(0, sum, 0, 9), entry(1, Privilege::ReadWrite, 0, 9)];
        let (deps, plan) = scan(&hist, (0, 9), Privilege::Read);
        assert_eq!(deps, vec![TaskId(1)]);
        assert!(plan.reductions.is_empty(), "t0's reductions are occluded");
    }

    #[test]
    fn war_dependence_on_visible_reads() {
        let hist = vec![
            entry(0, Privilege::ReadWrite, 0, 9),
            entry(1, Privilege::Read, 0, 9),
            entry(2, Privilege::Read, 0, 4),
        ];
        let (deps, _) = scan(&hist, (0, 9), Privilege::ReadWrite);
        assert_eq!(
            deps,
            vec![TaskId(0), TaskId(1), TaskId(2)],
            "writer waits for the write it overwrites and both readers"
        );
    }

    #[test]
    fn reads_do_not_depend_on_reads() {
        let hist = vec![
            entry(0, Privilege::ReadWrite, 0, 9),
            entry(1, Privilege::Read, 0, 9),
        ];
        let (deps, _) = scan(&hist, (0, 9), Privilege::Read);
        assert_eq!(deps, vec![TaskId(0)]);
    }

    #[test]
    fn same_op_reductions_do_not_interfere() {
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let hist = vec![entry(0, sum, 0, 9)];
        let (deps, plan) = scan(&hist, (0, 9), sum);
        assert!(deps.is_empty());
        assert_eq!(plan.fill_identity, Some(RedOpRegistry::SUM));
        assert!(plan.copies.is_empty(), "reducers materialize identity");
    }

    #[test]
    fn different_op_reductions_interfere() {
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let min = Privilege::Reduce(RedOpRegistry::MIN);
        let hist = vec![entry(0, sum, 0, 9)];
        let (deps, _) = scan(&hist, (0, 9), min);
        assert_eq!(deps, vec![TaskId(0)]);
    }

    #[test]
    fn reducer_depends_on_prior_write_and_reads() {
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let hist = vec![
            entry(0, Privilege::ReadWrite, 0, 9),
            entry(1, Privilege::Read, 0, 9),
        ];
        let (deps, _) = scan(&hist, (0, 9), sum);
        assert_eq!(deps, vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn disjoint_entries_are_invisible() {
        let hist = vec![entry(0, Privilege::ReadWrite, 20, 29)];
        let (deps, plan) = scan(&hist, (0, 9), Privilege::Read);
        assert!(deps.is_empty());
        assert_eq!(plan.copies.len(), 1);
        assert_eq!(plan.copies[0].source, Source::Initial);
    }

    #[test]
    fn scan_stops_once_fully_occluded() {
        let mut s = VisScan::new(IndexSpace::span(0, 9), Privilege::Read);
        s.visit(&entry(5, Privilege::ReadWrite, 0, 9));
        assert!(s.done());
        let before = s.entries_scanned;
        s.visit(&entry(0, Privilege::ReadWrite, 0, 9));
        assert_eq!(s.entries_scanned, before, "occluded entries are skipped");
    }
}

//! Materialization plans — the output of the coherence analysis.
//!
//! A coherence engine answers, for each region requirement of a task, "where
//! do the current values come from?" (§3.1): the most recent *write* per
//! point (opaque in the visibility reduction) plus all *reductions* pending
//! since that write (semi-transparent), ordered by the program-order clock.

use crate::task::TaskId;
use viz_geometry::IndexSpace;
use viz_region::{Privilege, ReductionOpId};

/// Where a range of base values comes from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Source {
    /// The initial contents of the root region (the `[⟨read-write, A⟩]`
    /// entry the paper seeds every history with).
    Initial,
    /// The committed output of requirement `req` of task `task`, which held
    /// write privileges there.
    Task(TaskId, u32),
}

impl Source {
    /// The order [`MaterializePlan::normalize`] folds copies in: by
    /// producing `(task, req)`, initial contents last.
    pub(crate) fn fold_key(&self) -> (TaskId, u32) {
        match self {
            Source::Initial => (TaskId(u32::MAX), u32::MAX),
            Source::Task(t, r) => (*t, *r),
        }
    }
}

/// Copy `domain` from `source` (base values; copies of one plan are
/// pairwise disjoint and, for read/read-write privileges, cover the
/// requirement's full domain).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CopyRange {
    pub source: Source,
    pub domain: IndexSpace,
}

/// Fold the partial accumulation committed by requirement `req` of `task`
/// (a `reduce_f` instance) into the materialized values over `domain`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReduceRange {
    pub task: TaskId,
    pub req: u32,
    pub redop: ReductionOpId,
    pub domain: IndexSpace,
}

/// The coherence plan for one region requirement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaterializePlan {
    /// Base values. Empty for `reduce` privileges (which materialize an
    /// identity-filled instance instead — the lazy-reduction optimization
    /// of §5).
    pub copies: Vec<CopyRange>,
    /// Pending reductions to fold on top of the base values. The executor
    /// folds them in ascending `TaskId` order (program order), which makes
    /// parallel execution bit-identical to sequential execution for
    /// exactly-representable values.
    pub reductions: Vec<ReduceRange>,
    /// `Some(op)` when this requirement is a reduction: the instance is
    /// filled with `op`'s identity.
    pub fill_identity: Option<ReductionOpId>,
}

impl MaterializePlan {
    /// The empty plan a scan for `privilege` starts from: a reduction fills
    /// its instance with the operator's identity and needs nothing else;
    /// any other privilege collects copies and pending reductions.
    pub fn for_privilege(privilege: Privilege) -> Self {
        MaterializePlan {
            fill_identity: privilege.redop(),
            ..Self::default()
        }
    }

    /// Sort reductions into fold order and coalesce adjacent copy ranges
    /// from the same source.
    pub fn normalize(&mut self) {
        self.reductions.sort_by_key(|r| (r.task, r.req));
        // Merge copy ranges with identical sources (a left fold, in place).
        self.copies.sort_by_key(|c| c.source.fold_key());
        self.copies.dedup_by(|c, last| {
            let same = last.source == c.source;
            if same {
                last.domain = last.domain.union(&c.domain);
            }
            same
        });
    }

    /// Total points copied (used by the timed executor to price data
    /// movement).
    pub fn copied_points(&self) -> u64 {
        self.copies.iter().map(|c| c.domain.volume()).sum()
    }

    /// `self` with `shift` applied equals `other` (see
    /// [`AnalysisResult::eq_shifted`]).
    fn eq_shifted(&self, shift: TaskShift, other: &MaterializePlan) -> bool {
        let source = |a: &Source, b: &Source| match (a, b) {
            (Source::Task(t, r), Source::Task(u, s)) => shift.apply(*t) == *u && r == s,
            _ => a == b,
        };
        // Interned domains share one allocation: equal pointers need no
        // walk over the rects (`IndexSpace`'s `==` always walks them).
        let domain = |a: &IndexSpace, b: &IndexSpace| std::ptr::eq(a.rects(), b.rects()) || a == b;
        self.fill_identity == other.fill_identity
            && self.copies.len() == other.copies.len()
            && self.reductions.len() == other.reductions.len()
            && (self.copies.iter().zip(&other.copies))
                .all(|(a, b)| source(&a.source, &b.source) && domain(&a.domain, &b.domain))
            && (self.reductions.iter().zip(&other.reductions)).all(|(a, b)| {
                shift.apply(a.task) == b.task
                    && (a.req, a.redop) == (b.req, b.redop)
                    && domain(&a.domain, &b.domain)
            })
    }
}

/// The full result of analyzing one task launch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisResult {
    /// Tasks this launch must wait for (sorted, deduplicated). Together with
    /// transitivity this orders every interfering pair (§3.2).
    pub deps: Vec<TaskId>,
    /// One plan per region requirement, in requirement order.
    pub plans: Vec<MaterializePlan>,
}

impl AnalysisResult {
    pub fn normalize(&mut self) {
        self.deps.sort_unstable();
        self.deps.dedup();
        for p in &mut self.plans {
            p.normalize();
        }
    }

    /// Is `other` this result with `shift` applied to every task reference?
    /// Compared in place: nothing is copied, and a mismatch stops at the
    /// first differing element.
    pub fn eq_shifted(&self, shift: TaskShift, other: &AnalysisResult) -> bool {
        self.deps.len() == other.deps.len()
            && self.plans.len() == other.plans.len()
            && (self.deps.iter().zip(&other.deps)).all(|(a, b)| shift.apply(*a) == *b)
            && (self.plans.iter().zip(&other.plans)).all(|(a, b)| a.eq_shifted(shift, b))
    }

    /// Rewrite every task reference (dependences, copy sources, reduction
    /// instances) through `f`.
    pub(crate) fn map_tasks(&mut self, f: impl Fn(TaskId) -> TaskId) {
        for d in &mut self.deps {
            *d = f(*d);
        }
        for plan in &mut self.plans {
            for c in &mut plan.copies {
                if let Source::Task(t, _) = &mut c.source {
                    *t = f(*t);
                }
            }
            for r in &mut plan.reductions {
                r.task = f(r.task);
            }
        }
    }
}

/// A uniform task-id translation: ids in `[lo, hi)` move by `+delta`,
/// everything else is untouched. Trace replay computes one shift per
/// *instance* (not per launch) mapping the recorded template window onto
/// the replayed position; consumers apply it lazily when reading task
/// references, so replay never deep-clones an [`AnalysisResult`].
///
/// Because the shift is uniform over the window and replayed windows sit
/// above all earlier ids, applying it preserves the ascending `TaskId`
/// (program) order that reduction folding relies on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TaskShift {
    pub lo: u32,
    pub hi: u32,
    pub delta: u32,
}

impl TaskShift {
    pub const IDENTITY: TaskShift = TaskShift {
        lo: 0,
        hi: 0,
        delta: 0,
    };

    #[inline]
    pub fn is_identity(&self) -> bool {
        self.delta == 0 || self.lo >= self.hi
    }

    #[inline]
    pub fn apply(&self, t: TaskId) -> TaskId {
        if t.0 >= self.lo && t.0 < self.hi {
            TaskId(t.0 + self.delta)
        } else {
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_region::RedOpRegistry;

    #[test]
    fn identity_plan_has_no_copies() {
        let p = MaterializePlan::for_privilege(Privilege::Reduce(RedOpRegistry::SUM));
        assert!(p.copies.is_empty());
        assert_eq!(p.fill_identity, Some(RedOpRegistry::SUM));
        let read = MaterializePlan::for_privilege(Privilege::Read);
        assert_eq!(read, MaterializePlan::default());
    }

    #[test]
    fn normalize_sorts_reductions_in_program_order() {
        let mut p = MaterializePlan::default();
        for t in [5u32, 1, 3] {
            p.reductions.push(ReduceRange {
                task: TaskId(t),
                req: 0,
                redop: RedOpRegistry::SUM,
                domain: IndexSpace::span(0, 4),
            });
        }
        p.normalize();
        let order: Vec<u32> = p.reductions.iter().map(|r| r.task.0).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn normalize_merges_same_source_copies() {
        let mut p = MaterializePlan::default();
        p.copies.push(CopyRange {
            source: Source::Task(TaskId(2), 0),
            domain: IndexSpace::span(0, 4),
        });
        p.copies.push(CopyRange {
            source: Source::Task(TaskId(2), 0),
            domain: IndexSpace::span(5, 9),
        });
        p.copies.push(CopyRange {
            source: Source::Initial,
            domain: IndexSpace::span(20, 24),
        });
        p.normalize();
        assert_eq!(p.copies.len(), 2);
        assert_eq!(p.copied_points(), 15);
    }

    #[test]
    fn result_normalize_dedups_deps() {
        let mut r = AnalysisResult {
            deps: vec![TaskId(3), TaskId(1), TaskId(3)],
            plans: vec![],
        };
        r.normalize();
        assert_eq!(r.deps, vec![TaskId(1), TaskId(3)]);
    }
}

//! The saturation checker: an independent polynomial judge for recorded
//! histories.
//!
//! Given only the *claims* in a [`History`] — submitted requirements,
//! emitted dependence edges, retirement order — the checker re-derives
//! from sequential semantics which precedences are **required** (every
//! interfering pair must be ordered: RAW, WAR, WAW, and cross-operator
//! reductions over overlapping domains of one (root, field)) and which
//! edges are **forbidden** (forward or self edges — program order is the
//! topological order), then saturates the claimed edges into a full
//! happens-before relation ([`Precedence`]) and verifies:
//!
//! 1. every required pair is covered by the claimed closure,
//! 2. no forbidden edge exists (which also forces acyclicity),
//! 3. fences follow everything earlier,
//! 4. the retirement order is a linear extension of the claimed DAG.
//!
//! Violations carry a minimal witness: the offending launch pair, the
//! (root, field), and the intersection of the interfering domains.

use crate::depa::Precedence;
use crate::history::{History, CTX_GLOBAL};
use viz_geometry::{FxHashMap, IndexSpace};

/// One verdict against a history, with a minimal witness.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Launches `earlier` and `later` interfere on `(root, field)` over
    /// `overlap`, but the claimed edges do not order them.
    MissingDependence {
        earlier: u32,
        later: u32,
        root: u32,
        field: u32,
        /// The interfering footprint: intersection of the two domains.
        overlap: IndexSpace,
    },
    /// Launch `succ` claims a dependence on `pred`, but `pred` is not an
    /// earlier task (forward, self, or out-of-range edge). Backward-only
    /// edges are what make the claimed relation acyclic by construction,
    /// so this also covers cycle detection.
    ForbiddenEdge { pred: u32, succ: u32 },
    /// The fence `fence` is not ordered after earlier launch `earlier`.
    MissingFenceOrder { earlier: u32, fence: u32 },
    /// The retirement log is not a DAG-respecting permutation of the
    /// launches: `task` retired before its predecessor `pred` (or the log
    /// is not a permutation at all — then `pred == u32::MAX`).
    RetirementOrder { task: u32, pred: u32 },
    /// The history is internally inconsistent (ids out of order, length
    /// mismatches) — nothing further can be judged.
    MalformedHistory { reason: String },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MissingDependence {
                earlier,
                later,
                root,
                field,
                overlap,
            } => write!(
                f,
                "missing dependence: launches {earlier} -> {later} interfere on \
                 (root {root}, field {field}) over {:?} but are unordered",
                overlap.rects()
            ),
            Violation::ForbiddenEdge { pred, succ } => {
                write!(f, "forbidden edge: launch {succ} depends on {pred}")
            }
            Violation::MissingFenceOrder { earlier, fence } => {
                write!(f, "fence {fence} is not ordered after launch {earlier}")
            }
            Violation::RetirementOrder { task, pred } => {
                if *pred == u32::MAX {
                    write!(f, "retirement log is not a permutation (task {task})")
                } else {
                    write!(f, "task {task} retired before its predecessor {pred}")
                }
            }
            Violation::MalformedHistory { reason } => {
                write!(f, "malformed history: {reason}")
            }
        }
    }
}

/// Outcome of one check run.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    pub launches: usize,
    /// Interfering (ordered-required) pairs examined.
    pub pairs_checked: u64,
    /// Claimed edges examined (direct, pre-closure).
    pub edges_checked: u64,
    pub violations: Vec<Violation>,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Do two requirements interfere? Same tree and field, privileges that do
/// not commute, and overlapping footprints.
fn reqs_interfere(a: &crate::history::HRequirement, b: &crate::history::HRequirement) -> bool {
    a.root == b.root
        && a.field == b.field
        && a.privilege.interferes(b.privilege)
        && a.domain.overlaps(&b.domain)
}

/// Judge a history. Runs in polynomial time (O(n²) pair scan within each
/// (root, field) group plus the O(E·n/64) closure) and touches nothing
/// but the history itself.
pub fn check(history: &History) -> CheckReport {
    let n = history.launches.len();
    let mut report = CheckReport {
        launches: n,
        ..CheckReport::default()
    };

    // -- Structural validity: ids must be 0..n in program order. --------
    for (k, l) in history.launches.iter().enumerate() {
        if l.id as usize != k {
            report.violations.push(Violation::MalformedHistory {
                reason: format!("launch at position {k} has id {}", l.id),
            });
            return report;
        }
    }

    // -- Forbidden edges: every claimed edge must point strictly back. --
    let mut deps: Vec<Vec<u32>> = Vec::with_capacity(n);
    for l in &history.launches {
        let mut clean = Vec::with_capacity(l.deps.len());
        for &d in &l.deps {
            report.edges_checked += 1;
            if d >= l.id {
                report.violations.push(Violation::ForbiddenEdge {
                    pred: d,
                    succ: l.id,
                });
            } else {
                clean.push(d);
            }
        }
        deps.push(clean);
    }

    // -- Saturate the claimed edges into happens-before. ----------------
    let prec = Precedence::build(&deps);

    // -- Required edges: every interfering pair must be ordered. --------
    // Group requirements by (root, field) so only plausibly-conflicting
    // pairs are enumerated.
    let mut groups: FxHashMap<(u32, u32), Vec<(u32, usize)>> = FxHashMap::default();
    for l in &history.launches {
        for (qi, q) in l.reqs.iter().enumerate() {
            groups
                .entry((q.root, q.field))
                .or_default()
                .push((l.id, qi));
        }
    }
    let mut flagged: Vec<(u32, u32)> = Vec::new();
    for ((root, field), members) in &groups {
        for (ai, &(ia, qa)) in members.iter().enumerate() {
            for &(ib, qb) in &members[ai + 1..] {
                if ia == ib {
                    continue; // §4 forbids intra-task interference; validated at submit.
                }
                let (earlier, later, qe, ql) = if ia < ib {
                    (ia, ib, qa, qb)
                } else {
                    (ib, ia, qb, qa)
                };
                let a = &history.launches[earlier as usize].reqs[qe];
                let b = &history.launches[later as usize].reqs[ql];
                if !reqs_interfere(a, b) {
                    continue;
                }
                report.pairs_checked += 1;
                if !prec.precedes(earlier, later) && !flagged.contains(&(earlier, later)) {
                    flagged.push((earlier, later));
                    report.violations.push(Violation::MissingDependence {
                        earlier,
                        later,
                        root: *root,
                        field: *field,
                        overlap: a.domain.intersect(&b.domain),
                    });
                }
            }
        }
    }

    // -- Fences: ordered after everything earlier in their scope. -------
    // A global fence (ctx == CTX_GLOBAL) must follow every earlier launch;
    // a scoped fence (PR 7 multi-producer contexts) only the earlier
    // launches of its own context. Earlier scoped/global fences still
    // bind a global fence, whatever context they carry.
    for l in &history.launches {
        if !l.fence {
            continue;
        }
        for i in 0..l.id {
            if l.ctx != CTX_GLOBAL && history.launches[i as usize].ctx != l.ctx {
                continue; // another producer's launch: out of fence scope
            }
            report.pairs_checked += 1;
            if !prec.precedes(i, l.id) {
                report.violations.push(Violation::MissingFenceOrder {
                    earlier: i,
                    fence: l.id,
                });
            }
        }
    }

    // -- Retirement: a linear extension of the claimed DAG. -------------
    if history.retirement.len() != n {
        report.violations.push(Violation::MalformedHistory {
            reason: format!(
                "retirement log has {} entries for {n} launches",
                history.retirement.len()
            ),
        });
    } else {
        let mut position = vec![u32::MAX; n];
        for (pos, &t) in history.retirement.iter().enumerate() {
            if (t as usize) < n && position[t as usize] == u32::MAX {
                position[t as usize] = pos as u32;
            } else {
                report.violations.push(Violation::RetirementOrder {
                    task: t,
                    pred: u32::MAX,
                });
            }
        }
        if !report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::RetirementOrder { pred: u32::MAX, .. }))
        {
            for l in &history.launches {
                for &p in &deps[l.id as usize] {
                    if position[p as usize] > position[l.id as usize] {
                        report.violations.push(Violation::RetirementOrder {
                            task: l.id,
                            pred: p,
                        });
                    }
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{HLaunch, HPrivilege, HRequirement};

    fn req(root: u32, field: u32, privilege: HPrivilege, lo: i64, hi: i64) -> HRequirement {
        HRequirement {
            root,
            region: root,
            field,
            privilege,
            domain: IndexSpace::span(lo, hi),
        }
    }

    fn launch(id: u32, reqs: Vec<HRequirement>, deps: Vec<u32>) -> HLaunch {
        HLaunch {
            id,
            name: format!("t{id}"),
            node: 0,
            ctx: 0,
            signature: id as u64,
            reqs,
            deps,
            replayed: false,
            fence: false,
        }
    }

    fn history(launches: Vec<HLaunch>) -> History {
        let retirement = (0..launches.len() as u32).collect();
        History {
            engine: "test".into(),
            launches,
            retirement,
        }
    }

    #[test]
    fn clean_write_read_chain_passes() {
        let h = history(vec![
            launch(0, vec![req(0, 0, HPrivilege::ReadWrite, 0, 10)], vec![]),
            launch(1, vec![req(0, 0, HPrivilege::Read, 0, 10)], vec![0]),
            launch(2, vec![req(0, 0, HPrivilege::Read, 0, 10)], vec![0]),
        ]);
        let r = check(&h);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.pairs_checked, 2, "read/read pair does not interfere");
    }

    #[test]
    fn transitive_coverage_suffices() {
        // 0 -> 1 -> 2 claimed; the required (0, 2) WAW edge is covered
        // transitively, not directly.
        let h = history(vec![
            launch(0, vec![req(0, 0, HPrivilege::ReadWrite, 0, 10)], vec![]),
            launch(1, vec![req(0, 0, HPrivilege::ReadWrite, 0, 10)], vec![0]),
            launch(2, vec![req(0, 0, HPrivilege::ReadWrite, 0, 10)], vec![1]),
        ]);
        assert!(check(&h).ok());
    }

    #[test]
    fn disjoint_and_commuting_accesses_need_no_order() {
        let h = history(vec![
            launch(0, vec![req(0, 0, HPrivilege::ReadWrite, 0, 9)], vec![]),
            launch(1, vec![req(0, 0, HPrivilege::ReadWrite, 10, 19)], vec![]),
            launch(2, vec![req(0, 0, HPrivilege::Reduce(0), 0, 19)], vec![0, 1]),
            launch(3, vec![req(0, 0, HPrivilege::Reduce(0), 0, 19)], vec![0, 1]),
            launch(4, vec![req(0, 1, HPrivilege::ReadWrite, 0, 19)], vec![]),
        ]);
        let r = check(&h);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn missing_dependence_yields_minimal_witness() {
        let h = history(vec![
            launch(0, vec![req(0, 0, HPrivilege::ReadWrite, 0, 10)], vec![]),
            launch(1, vec![req(0, 0, HPrivilege::Read, 5, 15)], vec![]),
        ]);
        let r = check(&h);
        assert_eq!(r.violations.len(), 1);
        match &r.violations[0] {
            Violation::MissingDependence {
                earlier,
                later,
                root,
                field,
                overlap,
            } => {
                assert_eq!((*earlier, *later), (0, 1));
                assert_eq!((*root, *field), (0, 0));
                assert!(overlap.same_points(&IndexSpace::span(5, 10)));
            }
            v => panic!("wrong violation {v:?}"),
        }
    }

    #[test]
    fn forward_and_self_edges_are_forbidden() {
        let h = history(vec![
            launch(0, vec![], vec![0]),
            launch(1, vec![], vec![2]),
            launch(2, vec![], vec![]),
        ]);
        let r = check(&h);
        assert_eq!(
            r.violations,
            vec![
                Violation::ForbiddenEdge { pred: 0, succ: 0 },
                Violation::ForbiddenEdge { pred: 2, succ: 1 },
            ]
        );
    }

    #[test]
    fn fence_must_follow_everything() {
        let mut f = launch(2, vec![], vec![1]); // missing edge to 0
        f.fence = true;
        f.ctx = CTX_GLOBAL;
        let h = history(vec![
            launch(0, vec![], vec![]),
            launch(1, vec![], vec![]),
            f,
        ]);
        let r = check(&h);
        assert_eq!(
            r.violations,
            vec![Violation::MissingFenceOrder {
                earlier: 0,
                fence: 2
            }]
        );
    }

    #[test]
    fn scoped_fence_binds_only_its_context() {
        // Context 1 submitted launches 0 and 2; context 2 submitted
        // launch 1. A ctx-1 fence must follow 0 and 2 but may float
        // relative to 1.
        let mut a = launch(0, vec![], vec![]);
        a.ctx = 1;
        let mut b = launch(1, vec![], vec![]);
        b.ctx = 2;
        let mut c = launch(2, vec![], vec![]);
        c.ctx = 1;
        let mut f = launch(3, vec![], vec![0, 2]); // no edge to 1: fine
        f.fence = true;
        f.ctx = 1;
        let h = history(vec![a, b, c, f]);
        let r = check(&h);
        assert!(r.ok(), "{:?}", r.violations);

        // Dropping the edge to its own launch 2 is a violation.
        let mut a = launch(0, vec![], vec![]);
        a.ctx = 1;
        let mut b = launch(1, vec![], vec![]);
        b.ctx = 2;
        let mut c = launch(2, vec![], vec![]);
        c.ctx = 1;
        let mut f = launch(3, vec![], vec![0]);
        f.fence = true;
        f.ctx = 1;
        let h = history(vec![a, b, c, f]);
        let r = check(&h);
        assert_eq!(
            r.violations,
            vec![Violation::MissingFenceOrder {
                earlier: 2,
                fence: 3
            }]
        );
    }

    #[test]
    fn retirement_must_respect_claimed_edges() {
        let mut h = history(vec![launch(0, vec![], vec![]), launch(1, vec![], vec![0])]);
        h.retirement = vec![1, 0];
        let r = check(&h);
        assert_eq!(
            r.violations,
            vec![Violation::RetirementOrder { task: 1, pred: 0 }]
        );
    }

    #[test]
    fn independent_retirement_reorder_is_fine() {
        let mut h = history(vec![launch(0, vec![], vec![]), launch(1, vec![], vec![])]);
        h.retirement = vec![1, 0];
        assert!(check(&h).ok());
    }
}

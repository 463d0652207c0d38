//! Brute-force sufficiency oracle for the dependence analysis.
//!
//! The engines may (and should) omit edges to occluded operations; what must
//! hold is that **every interfering pair of tasks is ordered transitively**
//! (§3.2). This module checks that property directly from the launch
//! stream, independent of any visibility machinery — the ground truth the
//! engines are tested against.

use crate::dag::TaskDag;
use crate::task::TaskLaunch;
use std::ops::Deref;
use viz_region::RegionForest;

/// A violated ordering: tasks `earlier` and `later` interfere but the DAG
/// does not order them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub earlier: crate::task::TaskId,
    pub later: crate::task::TaskId,
    pub reason: String,
}

/// Do two launches interfere (some pair of requirements on the same field
/// with overlapping domains and interfering privileges)?
pub fn launches_interfere(forest: &RegionForest, a: &TaskLaunch, b: &TaskLaunch) -> bool {
    for ra in &a.reqs {
        for rb in &b.reqs {
            if ra.field != rb.field {
                continue;
            }
            if forest.root_of(ra.region) != forest.root_of(rb.region) {
                continue;
            }
            if !ra.privilege.interferes(rb.privilege) {
                continue;
            }
            if forest.domain(ra.region).overlaps(forest.domain(rb.region)) {
                return true;
            }
        }
    }
    false
}

/// Check that the DAG orders every interfering pair (transitively). Returns
/// all violations (empty = the analysis is sound). Quadratic in the number
/// of tasks; intended for tests.
///
/// Generic over how the arguments are held so both plain references and
/// the lock guards returned by the runtime accessors
/// (`check_sufficiency(rt.forest(), rt.launches(), rt.dag())`) work.
pub fn check_sufficiency(
    forest: impl Deref<Target = RegionForest>,
    launches: impl AsRef<[TaskLaunch]>,
    dag: impl Deref<Target = TaskDag>,
) -> Vec<Violation> {
    let forest: &RegionForest = &forest;
    let launches: &[TaskLaunch] = launches.as_ref();
    let dag: &TaskDag = &dag;
    let mut violations = Vec::new();
    for j in 0..launches.len() {
        for i in 0..j {
            let (a, b) = (&launches[i], &launches[j]);
            if launches_interfere(forest, a, b) && !dag.must_follow(b.id, a.id) {
                violations.push(Violation {
                    earlier: a.id,
                    later: b.id,
                    reason: format!(
                        "{} ({:?}) and {} ({:?}) interfere but are unordered",
                        a.name, a.id, b.name, b.id
                    ),
                });
            }
        }
    }
    violations
}

/// Count the pairs of tasks that interfere directly — a measure of how much
/// serialization the program inherently requires (used in tests to assert
/// the engines do not *over*-serialize trivially parallel programs).
pub fn count_interfering_pairs(
    forest: impl Deref<Target = RegionForest>,
    launches: impl AsRef<[TaskLaunch]>,
) -> usize {
    let forest: &RegionForest = &forest;
    let launches: &[TaskLaunch] = launches.as_ref();
    let mut count = 0;
    for j in 0..launches.len() {
        for i in 0..j {
            if launches_interfere(forest, &launches[i], &launches[j]) {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{RegionRequirement, TaskId};
    use viz_region::Privilege;

    fn launch(id: u32, reqs: Vec<RegionRequirement>) -> TaskLaunch {
        TaskLaunch {
            id: TaskId(id),
            name: format!("t{id}"),
            node: 0,
            ctx: 0,
            reqs,
            duration_ns: 0,
        }
    }

    #[test]
    fn detects_missing_ordering() {
        let mut forest = RegionForest::new();
        let root = forest.create_root_1d("A", 10);
        let f = forest.add_field(root, "v");
        let launches = vec![
            launch(0, vec![RegionRequirement::read_write(root, f)]),
            launch(1, vec![RegionRequirement::read_write(root, f)]),
        ];
        let mut dag = TaskDag::new();
        dag.push(vec![]);
        dag.push(vec![]); // missing edge!
        let v = check_sufficiency(&forest, &launches, &dag);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].earlier, TaskId(0));
        assert_eq!(v[0].later, TaskId(1));
    }

    #[test]
    fn transitive_ordering_suffices() {
        let mut forest = RegionForest::new();
        let root = forest.create_root_1d("A", 10);
        let f = forest.add_field(root, "v");
        let launches = vec![
            launch(0, vec![RegionRequirement::read_write(root, f)]),
            launch(1, vec![RegionRequirement::read_write(root, f)]),
            launch(2, vec![RegionRequirement::read_write(root, f)]),
        ];
        let mut dag = TaskDag::new();
        dag.push(vec![]);
        dag.push(vec![TaskId(0)]);
        dag.push(vec![TaskId(1)]); // t2 -> t0 only transitive
        assert!(check_sufficiency(&forest, &launches, &dag).is_empty());
    }

    #[test]
    fn non_interfering_pairs_need_no_ordering() {
        let mut forest = RegionForest::new();
        let root = forest.create_root_1d("A", 10);
        let f = forest.add_field(root, "v");
        let p = forest.create_equal_partition_1d(root, "P", 2);
        let launches = vec![
            launch(
                0,
                vec![RegionRequirement::read_write(forest.subregion(p, 0), f)],
            ),
            launch(
                1,
                vec![RegionRequirement::read_write(forest.subregion(p, 1), f)],
            ),
            launch(2, vec![RegionRequirement::read(root, f)]),
            launch(3, vec![RegionRequirement::read(root, f)]),
        ];
        let mut dag = TaskDag::new();
        dag.push(vec![]);
        dag.push(vec![]);
        dag.push(vec![TaskId(0), TaskId(1)]);
        dag.push(vec![TaskId(0), TaskId(1)]);
        assert!(check_sufficiency(&forest, &launches, &dag).is_empty());
        assert_eq!(count_interfering_pairs(&forest, &launches), 4);
    }

    #[test]
    fn same_op_reductions_do_not_interfere() {
        let mut forest = RegionForest::new();
        let root = forest.create_root_1d("A", 10);
        let f = forest.add_field(root, "v");
        let sum = viz_region::RedOpRegistry::SUM;
        let a = launch(0, vec![RegionRequirement::reduce(root, f, sum)]);
        let b = launch(1, vec![RegionRequirement::reduce(root, f, sum)]);
        assert!(!launches_interfere(&forest, &a, &b));
        let c = launch(2, vec![RegionRequirement::new(root, f, Privilege::Read)]);
        assert!(launches_interfere(&forest, &a, &c));
    }
}

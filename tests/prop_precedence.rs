//! Property tests for `TaskDag` precedence (DESIGN.md §7i): on random DAGs,
//! `TaskDag::must_follow` (the `(depth, min_anc)` filters plus the pruned
//! walk) must equal the unpruned reference walk for **every** ordered pair.
//! The tags are derived when a query asks, so a DAG that grows between
//! queries is checked too, against a depth pass computed from scratch.
//!
//! Release builds skip the DAG's internal debug cross-checks, so this suite
//! is the differential that runs everywhere `cargo test` does.

use proptest::prelude::*;
use visibility::runtime::{TaskDag, TaskId};

/// A compressed random program: task `i` depends on `preds[i]`, each a set
/// of earlier ids picked by index.
#[derive(Clone, Debug)]
struct RandomDag {
    /// For each task: (fan_in, pred_picks) — resolved against earlier ids.
    picks: Vec<Vec<prop::sample::Index>>,
}

fn random_dag(max_tasks: usize, max_fanin: usize) -> impl Strategy<Value = RandomDag> {
    prop::collection::vec(
        prop::collection::vec(any::<prop::sample::Index>(), 0..max_fanin + 1),
        1..max_tasks + 1,
    )
    .prop_map(|picks| RandomDag { picks })
}

/// The random program's dependence lists: task `i`'s sorted, deduplicated.
fn dep_lists(dag: &RandomDag) -> Vec<Vec<TaskId>> {
    (dag.picks.iter().enumerate())
        .map(|(i, picks)| {
            let mut deps: Vec<TaskId> = picks
                .iter()
                .filter(|_| i > 0)
                .map(|p| TaskId(p.index(i) as u32))
                .collect();
            deps.sort_unstable();
            deps.dedup();
            deps
        })
        .collect()
}

/// Materialize the random program into a `TaskDag`.
fn build(dag: &RandomDag) -> TaskDag {
    let mut out = TaskDag::new();
    for deps in dep_lists(dag) {
        out.push(deps);
    }
    out
}

/// The waves of a depth pass computed from scratch over the predecessor
/// lists: each task one past its deepest predecessor.
fn scratch_waves(dag: &TaskDag) -> Vec<Vec<TaskId>> {
    let mut depth = vec![0usize; dag.len()];
    let mut waves: Vec<Vec<TaskId>> = Vec::new();
    for t in 0..dag.len() {
        let t = TaskId(t as u32);
        let d = (dag.preds(t).iter())
            .map(|p| depth[p.index()] + 1)
            .max()
            .unwrap_or(0);
        depth[t.index()] = d;
        if waves.len() <= d {
            waves.resize(d + 1, Vec::new());
        }
        waves[d].push(t);
    }
    waves
}

/// What a DAG answers: `must_follow` on the sampled pairs, in order (so
/// the tag column grows query by query), then, if `whole`, its waves and
/// critical path (which derive the rest of the column). Each `must_follow`
/// is checked against the reference walk on the way, and the waves
/// against a depth pass from scratch.
type Answers = (Vec<bool>, Vec<Vec<TaskId>>, usize);

fn answers(dag: &TaskDag, picks: &[prop::sample::Index], whole: bool) -> Answers {
    let n = dag.len();
    let follows = (picks.chunks_exact(2))
        .map(|pair| {
            let (t, anc) = (
                TaskId(pair[0].index(n) as u32),
                TaskId(pair[1].index(n) as u32),
            );
            let hit = dag.must_follow(t, anc);
            assert_eq!(
                hit,
                dag.must_follow_walk(t, anc),
                "must_follow diverged from the reference walk for ({t:?}, {anc:?}) at {n} tasks"
            );
            hit
        })
        .collect();
    if !whole {
        return (follows, Vec::new(), 0);
    }
    let waves = dag.waves();
    assert_eq!(waves, scratch_waves(dag), "waves at {n} tasks");
    let critical = dag.critical_path_len();
    assert_eq!(critical, waves.len(), "critical path at {n} tasks");
    (follows, waves, critical)
}

/// Assert `must_follow` == the reference walk on all O(n²) ordered pairs.
fn assert_matches_walk(dag: &TaskDag) {
    let n = dag.len() as u32;
    for t in 0..n {
        for anc in 0..n {
            let (t, anc) = (TaskId(t), TaskId(anc));
            assert_eq!(
                dag.must_follow(t, anc),
                dag.must_follow_walk(t, anc),
                "must_follow diverged from the reference walk for ({t:?}, {anc:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Filters + pruned walk agree with the unpruned walk on every pair.
    #[test]
    fn must_follow_equals_walk(dag in random_dag(200, 6)) {
        assert_matches_walk(&build(&dag));
    }

    /// Depth tags define a valid schedule: every task's depth is strictly
    /// greater than each predecessor's, and `waves()` partitions by depth.
    #[test]
    fn depth_is_topological(dag in random_dag(120, 5)) {
        let dag = build(&dag);
        let waves = dag.waves();
        let mut wave_of = vec![0usize; dag.len()];
        for (w, tasks) in waves.iter().enumerate() {
            for t in tasks {
                wave_of[t.index()] = w;
            }
        }
        for t in 0..dag.len() {
            for d in dag.preds(TaskId(t as u32)) {
                prop_assert!(
                    wave_of[d.index()] < wave_of[t],
                    "predecessor {d:?} not in an earlier wave than {t}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A DAG queried while it grows: after each random push batch, sampled
    /// queries (which extend the tag column only as far as they reach)
    /// answer as the reference walk does, and after every other batch the
    /// waves and critical path (which extend it to the end) match a depth
    /// pass from scratch, so the column is extended across one batch or
    /// two. A clone taken between batches, pushed the same next batch,
    /// answers as the original.
    #[test]
    fn a_growing_dag_answers_as_from_scratch(
        dag in random_dag(200, 6),
        batches in prop::collection::vec(1..40usize, 1..12),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 2..48),
    ) {
        let deps = dep_lists(&dag);
        let mut grown = TaskDag::new();
        let mut twin: Option<TaskDag> = None;
        let mut next = 0;
        for (round, size) in batches.iter().cycle().enumerate() {
            if next == deps.len() {
                break;
            }
            let whole = round % 2 == 1 || next + size >= deps.len();
            let batch = &deps[next..(next + size).min(deps.len())];
            next += batch.len();
            for d in batch {
                grown.push_slice(d);
                if let Some(twin) = &mut twin {
                    twin.push_slice(d);
                }
            }
            let expected = answers(&grown, &picks, whole);
            if let Some(twin) = &twin {
                prop_assert_eq!(answers(twin, &picks, whole), expected);
            }
            // Taken after queries, so the clone carries a derived prefix.
            twin = Some(grown.clone());
        }
        prop_assert_eq!(grown.len(), deps.len());
    }
}

/// Deterministic worst cases that proptest's generator is unlikely to hit.
#[test]
fn adversarial_shapes() {
    // Dense diamond lattice: every task depends on the previous two.
    let mut dag = TaskDag::new();
    dag.push(vec![]);
    dag.push(vec![TaskId(0)]);
    for i in 2..300u32 {
        dag.push(vec![TaskId(i - 2), TaskId(i - 1)]);
    }
    assert_matches_walk(&dag);

    // Star with a long-range spoke among unrelated roots.
    let mut star = TaskDag::new();
    star.push(vec![]);
    star.push(vec![TaskId(0)]);
    for _ in 2..200u32 {
        star.push(vec![]);
    }
    star.push(vec![TaskId(1), TaskId(150)]);
    star.push(vec![TaskId(1)]);
    assert_matches_walk(&star);

    // A 100 000-task chain with a few long-range spokes, beside one
    // unrelated root: too long for the all-pairs check or a recursive walk,
    // so each kind of answer is asked directly.
    const N: u32 = 100_000;
    let mut chain = TaskDag::new();
    chain.push(vec![]); // t0: unrelated root
    chain.push(vec![]); // t1: head of the chain
    for i in 2..N {
        let mut deps = vec![TaskId(i - 1)];
        if i % 25_000 == 0 {
            deps.insert(0, TaskId(i / 2));
        }
        chain.push(deps);
    }
    let (first, last) = (TaskId(1), TaskId(N - 1));
    assert!(chain.must_follow(last, first), "positive across the stream");
    assert!(chain.must_follow(TaskId(75_000), TaskId(37_500)), "spoke");
    assert!(!chain.must_follow(last, TaskId(0)), "below min_anc");
    let side = chain.push(vec![TaskId(N - 2)]);
    assert!(!chain.must_follow(side, last), "equal depth");
    assert!(!chain.must_follow(last, side), "later id");
}

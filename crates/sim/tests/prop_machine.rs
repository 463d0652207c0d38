//! Property tests for the simulated machine's timing invariants.

use proptest::prelude::*;
use viz_sim::{Machine, Op};

#[derive(Clone, Debug)]
enum Action {
    Exec { node: u8, ns: u32 },
    Send { from: u8, to: u8, bytes: u16 },
    Request { from: u8, to: u8 },
    GpuTask { node: u8, dur: u32 },
    Barrier,
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..4, 1u32..10_000).prop_map(|(node, ns)| Action::Exec { node, ns }),
        (0u8..4, 0u8..4, 0u16..4096).prop_map(|(from, to, bytes)| Action::Send { from, to, bytes }),
        (0u8..4, 0u8..4).prop_map(|(from, to)| Action::Request { from, to }),
        (0u8..4, 1u32..10_000).prop_map(|(node, dur)| Action::GpuTask { node, dur }),
        Just(Action::Barrier),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Clocks never run backwards, makespan dominates every clock, and
    /// message/byte counters match the actions taken.
    #[test]
    fn clocks_are_monotone_and_counted(actions in prop::collection::vec(action(), 1..40)) {
        let mut m = Machine::new(4);
        let mut prev: Vec<u64> = vec![0; 4];
        let mut expect_msgs = 0u64;
        for a in &actions {
            match a {
                Action::Exec { node, ns } => m.exec_ns(*node as usize, *ns as u64),
                Action::Send { from, to, bytes } => {
                    m.send(*from as usize, *to as usize, *bytes as u64);
                    if from != to {
                        expect_msgs += 1;
                    }
                }
                Action::Request { from, to } => {
                    m.request(*from as usize, *to as usize, 64, 64, &[Op::Memo]);
                    if from != to {
                        expect_msgs += 2;
                    }
                }
                Action::GpuTask { node, dur } => {
                    m.gpu_task(*node as usize, 0, *dur as u64);
                }
                Action::Barrier => {
                    m.barrier();
                    // An all-reduce on 4 nodes is 2·(n−1) messages.
                    expect_msgs += 6;
                }
            }
            for (n, p) in prev.iter_mut().enumerate() {
                prop_assert!(m.now(n) >= *p, "clock {n} ran backwards");
                *p = m.now(n);
            }
        }
        prop_assert_eq!(m.counters().messages, expect_msgs);
        for n in 0..4 {
            prop_assert!(m.time() >= m.now(n));
        }
    }

    /// A GPU can never finish a set of tasks faster than their total
    /// duration, and never leaves gaps when everything is ready at 0.
    #[test]
    fn gpu_utilization_is_exact(durs in prop::collection::vec(1u32..100_000, 1..30)) {
        let mut m = Machine::new(1);
        let mut last = 0;
        for d in &durs {
            last = m.gpu_task(0, 0, *d as u64);
        }
        let total: u64 = durs.iter().map(|d| *d as u64).sum();
        prop_assert_eq!(last, total, "back-to-back tasks pack exactly");
    }

    /// `multi_request` never takes longer than the same requests issued
    /// sequentially, and at least as long as the slowest single one.
    #[test]
    fn multi_request_bounds(targets in prop::collection::vec(1usize..4, 1..6)) {
        let specs: Vec<(usize, u64, u64)> =
            targets.iter().map(|t| (*t, 64, 64)).collect();
        let works: Vec<&[Op]> = targets.iter().map(|_| &[Op::EqSetCreate][..]).collect();
        let mut par = Machine::new(4);
        par.multi_request(0, &specs, &works);
        let mut seq = Machine::new(4);
        for (t, _, _) in &specs {
            seq.request(0, *t, 64, 64, &[Op::EqSetCreate]);
        }
        prop_assert!(par.now(0) <= seq.now(0));
        // Lower bound: one full round trip.
        let mut single = Machine::new(4);
        single.request(0, targets[0], 64, 64, &[Op::EqSetCreate]);
        prop_assert!(par.now(0) >= single.now(0) || targets.iter().all(|t| *t == 0));
    }

    /// Barriers synchronize: afterwards all program clocks are equal and at
    /// least the previous maximum.
    #[test]
    fn barrier_synchronizes(work in prop::collection::vec(0u32..50_000, 4)) {
        let mut m = Machine::new(4);
        for (n, w) in work.iter().enumerate() {
            m.exec_ns(n, *w as u64);
        }
        let max_before = (0..4).map(|n| m.now(n)).max().unwrap();
        m.barrier();
        let t = m.now(0);
        prop_assert!(t >= max_before);
        for n in 1..4 {
            prop_assert_eq!(m.now(n), t);
        }
    }
}

/// The case `clocks_are_monotone_and_counted` once shrank to: a lone
/// barrier on an idle machine is one all-reduce, 2·(n−1) messages, and
/// moves no clock backwards.
#[test]
fn lone_barrier_is_one_all_reduce() {
    let mut m = Machine::new(4);
    m.barrier();
    assert_eq!(m.counters().messages, 6);
    for n in 0..4 {
        assert!(m.time() >= m.now(n));
    }
}

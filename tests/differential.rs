//! One differential matrix over one program generator (`viz_oracle::gen`).
//!
//! The contract (§3.1) is sequential semantics under arbitrary aliasing,
//! for every engine and every way of driving it. Each module below is one
//! *axis* of how the runtime can be driven; `cargo test --test
//! differential -- engine::` runs one. Random cases are generated programs
//! (aliased and incomplete partitions, deep trees, reduction storms, trace
//! near-repeats, mid-run repartitioning); hand-written regressions are
//! named seeds, fixed programs in the same form.
//!
//! Every case is judged twice, by code that shares nothing with the
//! engine under test:
//! 1. **values** — the executed contents of every root field equal a
//!    serial `PaintNaive` run of the same program;
//! 2. **precedence** — the recorded history passes the oracle's checker,
//!    and `check_sufficiency` finds every interfering pair ordered.
//!
//! Where two ways of driving must compute the same analysis (sharded vs
//! serial, interned vs direct, pipelined vs synchronous, auto-traced vs
//! not, a shared runtime vs each root alone), the axis also compares every
//! launch's full `AnalysisResult` — dependences and plans, structurally.

mod judge;

use judge::{judged, judged_as, reference};
use proptest::test_runner::{ProptestConfig, TestRng};
use viz_oracle::gen::equal_pieces;
use viz_oracle::{
    generate, generate_over, run_program, DriveConfig, GenProgram, GenRegion, GenReq, Mode, Run,
    ALL_MODES,
};
use viz_region::{Privilege, RedOpRegistry};
use viz_runtime::plan::AnalysisResult;
use viz_runtime::EngineKind;

use GenRegion::{Piece, Root};

const LAUNCHES: usize = 20;
/// The halo forest's primary and ghost partitions ([`GenProgram::halo`]).
const PRIMARY: usize = 0;
const GHOST: usize = 1;

/// `cases` seeds for the test `name` (`PROPTEST_CASES` overrides the
/// count, as for the property suites).
fn seeds(name: &str, cases: u32) -> Vec<u64> {
    let mut rng = TestRng::from_name(name);
    (0..ProptestConfig::with_cases(cases).cases)
        .map(|_| rng.next_u64())
        .collect()
}

/// The random program of one case: the seed picks the mode, and one case
/// in five draws over [`GenProgram::aliased`]'s sibling partitions and
/// multi-span halo pieces instead of a generated forest.
fn program(seed: u64) -> GenProgram {
    let mode = ALL_MODES[(seed % 6) as usize];
    match seed % 5 {
        0 => generate_over(&GenProgram::aliased(2, 1), seed, mode, LAUNCHES),
        _ => generate(seed, mode, LAUNCHES, 2),
    }
}

/// Fig 1's loop over the halo forest: each turn writes every primary
/// piece, then reduces into every ghost piece.
fn paper_loop(nodes: usize, turns: u32) -> GenProgram {
    let mut prog = GenProgram::halo(nodes, 48, 4);
    for turn in 0..turns {
        for k in 0..4 {
            let rw = GenReq::new(Piece(PRIMARY, k), 0, Privilege::ReadWrite);
            prog.launch(k, vec![rw], turn * 10);
        }
        for k in 0..4 {
            let sum = GenReq::new(Piece(GHOST, k), 0, Privilege::Reduce(RedOpRegistry::SUM));
            prog.launch(k, vec![sum], turn * 10 + 5);
        }
    }
    prog
}

/// Engines × machine shapes: all four engines, on one node, on four, and
/// on four with dynamic control replication.
mod engine {
    use super::*;

    const SHAPES: [(usize, bool); 3] = [(1, false), (4, false), (4, true)];

    fn all_engines_agree(prog: &GenProgram, shapes: &[(usize, bool)]) {
        let reference = reference(prog);
        for engine in EngineKind::all() {
            for &shape in shapes {
                let cfg = DriveConfig {
                    machine: Some(shape),
                    ..DriveConfig::new(engine)
                };
                judged(prog, cfg, &reference);
            }
        }
    }

    #[test]
    fn random_programs() {
        for seed in seeds("engine::random_programs", 24) {
            all_engines_agree(&program(seed), &SHAPES);
        }
    }

    /// Also on two nodes, and on eight with DCR, where the four pieces
    /// leave nodes idle.
    #[test]
    fn paper_loop_all_engines_agree() {
        let shapes = [(1, false), (2, false), (4, false), (4, true), (8, true)];
        all_engines_agree(&paper_loop(4, 6), &shapes);
    }

    /// A write of the whole root, then a sum into one piece: the first
    /// case the engine differential ever shrank to.
    #[test]
    fn root_write_then_piece_reduce() {
        let mut prog = GenProgram::halo(1, 48, 4);
        prog.launch(0, vec![GenReq::new(Root(0), 0, Privilege::ReadWrite)], 0);
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        prog.launch(0, vec![GenReq::new(Piece(PRIMARY, 0), 0, sum)], 0);
        all_engines_agree(&prog, &SHAPES);
    }

    /// Pieces written repeatedly through a disjoint partition depend only
    /// on their own previous writer: no engine may serialize them.
    #[test]
    fn disjoint_writes_stay_parallel_in_every_engine() {
        let mut prog = GenProgram::halo(1, 48, 4);
        for turn in 0..3 {
            for k in 0..4 {
                let rw = GenReq::new(Piece(PRIMARY, k), 0, Privilege::ReadWrite);
                prog.launch(0, vec![rw], turn);
            }
        }
        all_engines_agree(&prog, &SHAPES);
        for engine in EngineKind::all() {
            let run = run_program(&prog, DriveConfig::new(engine));
            let edges: usize = run.results.iter().map(|r| r.deps.len()).sum();
            assert_eq!(edges, 2 * 4, "{engine:?} over-serialized disjoint writes");
        }
    }

    /// Fig 1's task shape: a write of one piece on one field and a sum
    /// into a sparse ghost piece on the other, the fields swapping roles
    /// every half turn.
    #[test]
    fn fig1_alternation_multi_req() {
        let mut prog = GenProgram::fixed(3, vec![36], 2);
        let p = prog.partition(Root(0), equal_pieces(0, 36, 3));
        let ghosts = (0..3)
            .map(|i| {
                (0..3)
                    .filter(|o| *o != i)
                    .flat_map(|o| [(12 * o + 1, 12 * o + 3), (12 * o + 5, 12 * o + 6)])
                    .collect()
            })
            .collect();
        let g = prog.partition(Root(0), ghosts);
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        for turn in 0..3 {
            for (w, r, salt) in [(0, 1, turn), (1, 0, turn + 50)] {
                for i in 0..3 {
                    let reqs = vec![
                        GenReq::new(Piece(p, i as usize), w, Privilege::ReadWrite),
                        GenReq::new(Piece(g, i as usize), r, sum),
                    ];
                    prog.launch(i as usize, reqs, salt);
                }
            }
        }
        all_engines_agree(&prog, &SHAPES);
    }

    /// Writing a grandchild's sparse piece and then reading up and across
    /// the tree: values must route through the deep write.
    #[test]
    fn deep_write_shallow_read_routes_correctly() {
        let mut prog = GenProgram::fixed(2, vec![64], 1);
        let p = prog.partition(Root(0), equal_pieces(0, 64, 4));
        let q = prog.partition(Piece(p, 0), equal_pieces(0, 16, 2));
        let evens = prog.partition(
            Piece(q, 1),
            vec![(4..8).map(|i| (2 * i, 2 * i + 1)).collect()],
        );
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let rw = Privilege::ReadWrite;
        for (i, (region, privilege, salt)) in [
            (Piece(evens, 0), rw, 3),
            (Root(0), sum, 5),
            (Piece(q, 1), rw, 9),
            (Piece(p, 0), sum, 2),
            (Root(0), rw, 7),
            (Piece(q, 0), sum, 1),
        ]
        .into_iter()
        .enumerate()
        {
            prog.launch(i, vec![GenReq::new(region, 0, privilege)], salt);
        }
        all_engines_agree(&prog, &SHAPES);
    }

    /// A documented deviation from §7's "ray casting only prunes": on this
    /// fuzz program (`oracle_fuzz --seed 12648430`, program 219, a
    /// trace-repeats program) serial RayCast retains more equivalence sets
    /// than Warnock. RayCast starts from one set per anchor, Warnock from
    /// one set per root (see ROADMAP.md on the §7 claim).
    #[test]
    fn raycast_retains_more_sets_than_warnock_on_fuzz_seed_12648649() {
        let prog = generate(12648649, Mode::TraceRepeats, 28, 2);
        let sets: Vec<usize> = EngineKind::all()
            .into_iter()
            .map(|e| run_program(&prog, DriveConfig::new(e)).equivalence_sets)
            .collect();
        assert_eq!(sets, [0, 0, 1, 3], "PaintNaive, Paint, Warnock, RayCast");
    }
}

/// Analysis drivers: serial, and sharded at four threads with batches of
/// one launch, five, and every run of consecutive launches at once
/// ([`judge::drivers_agree`]).
mod driver {
    use super::*;

    #[test]
    fn random_programs() {
        for seed in seeds("driver::random_programs", 12) {
            judge::drivers_agree(&program(seed));
        }
    }
}

/// Interned geometry with the memoized set algebra vs the direct sweeps:
/// pure memoization, so the analysis must not move.
mod intern {
    use super::*;

    fn interning_is_invisible(prog: &GenProgram, auto_trace: bool) {
        let reference = reference(prog);
        for engine in EngineKind::all() {
            for (analysis_threads, batch) in [(1, 1), (4, usize::MAX)] {
                let cfg = DriveConfig {
                    analysis_threads,
                    batch,
                    auto_trace,
                    ..DriveConfig::new(engine)
                };
                let on = judged(prog, cfg, &reference);
                let mut off = cfg;
                off.intern = false;
                judged_as(prog, off, &reference, &on);
            }
        }
    }

    #[test]
    fn random_programs() {
        for seed in seeds("intern::random_programs", 10) {
            interning_is_invisible(&program(seed), false);
        }
    }

    /// The paper loop replays under auto-tracing: the trace templates must
    /// be identical too.
    #[test]
    fn paper_loop_interning_invariant_with_auto_trace() {
        interning_is_invisible(&paper_loop(2, 6), true);
    }
}

/// The program a trace-sensitive case runs: every other one repeats a
/// block with one mutated instance, so the auto-tracer has something to
/// promote, replay and demote.
fn repeating_program(seed: u64) -> GenProgram {
    match seed % 2 {
        0 => generate(seed, Mode::TraceRepeats, LAUNCHES, 2),
        _ => program(seed),
    }
}

/// The pipelined frontend may change when analysis runs, never what it
/// computes: pipelined, serial and sharded, vs synchronous and serial, all
/// engines, auto-tracing on and off.
mod pipeline {
    use super::*;

    #[test]
    fn random_programs() {
        for seed in seeds("pipeline::random_programs", 12) {
            let prog = repeating_program(seed);
            let reference = reference(&prog);
            for engine in EngineKind::all() {
                for auto_trace in [false, true] {
                    // Serial and synchronous: the driver axis holds the
                    // sharded analysis to it.
                    let mut cfg = DriveConfig::new(engine);
                    cfg.auto_trace = auto_trace;
                    let sync = judged(&prog, cfg, &reference);
                    for analysis_threads in [1, 4] {
                        let mut on = cfg;
                        (on.pipeline, on.analysis_threads) = (true, analysis_threads);
                        let piped = judged_as(&prog, on, &reference, &sync);
                        assert_eq!(
                            (piped.replayed, piped.detected),
                            (sync.replayed, sync.detected),
                            "{} seed {seed}: trace statistics",
                            on.label()
                        );
                    }
                }
            }
        }
    }
}

/// Automatic trace detection may change how fast analysis runs, never
/// what it computes: auto-traced, serial and sharded (the whole stream per
/// batch), vs plain and serial, all engines.
mod auto_trace {
    use super::*;

    #[test]
    fn random_programs() {
        let mut replayed = 0;
        for seed in seeds("auto_trace::random_programs", 12) {
            let prog = repeating_program(seed);
            let reference = reference(&prog);
            for engine in EngineKind::all() {
                let plain = judged(&prog, DriveConfig::new(engine), &reference);
                for (analysis_threads, batch) in [(1, 1), (4, usize::MAX)] {
                    let auto = DriveConfig {
                        analysis_threads,
                        batch,
                        auto_trace: true,
                        ..DriveConfig::new(engine)
                    };
                    replayed += judged_as(&prog, auto, &reference, &plain).replayed;
                }
            }
        }
        assert!(replayed > 0, "no case replayed a detected trace");
    }
}

/// Concurrent producers: each root's launches come from their own
/// context on their own thread, so a shared runtime must give every root
/// exactly the analysis and values it gets running alone. Programs draw
/// over three roots of [`GenProgram::aliased`], one producer per root.
mod producers {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use viz_oracle::GenOp;
    use viz_runtime::plan::Source;
    use viz_runtime::TaskId;

    /// `prog` with every launch confined to its first requirement's root
    /// and no fences or traces (a global fence would join the streams).
    fn rooted(prog: &GenProgram) -> GenProgram {
        let mut out = prog.clone();
        out.ops.retain_mut(|op| match op {
            GenOp::Launch { reqs, .. } => {
                let root = prog.root_of(reqs[0].region);
                reqs.retain(|q| prog.root_of(q.region) == root);
                true
            }
            GenOp::Partition(_) => true,
            _ => false,
        });
        out
    }

    /// `prog` with only the launches on root `r`.
    fn alone(prog: &GenProgram, r: usize) -> GenProgram {
        let mut out = prog.clone();
        out.ops.retain(|op| match op {
            GenOp::Launch { reqs, .. } => prog.root_of(reqs[0].region) == r,
            _ => true,
        });
        out
    }

    /// The shared run's launches on the root with region id `root`,
    /// renumbered in their own stream's order.
    fn project(run: &Run, root: u32) -> Vec<AnalysisResult> {
        let ids: Vec<u32> = run
            .history
            .launches
            .iter()
            .filter(|l| l.reqs[0].root == root)
            .map(|l| l.id)
            .collect();
        let local: HashMap<u32, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, g)| (*g, i as u32))
            .collect();
        let to_local = |t: &mut TaskId| {
            *t = TaskId(*local.get(&t.0).unwrap_or_else(|| {
                panic!("a launch on root {root} names task {} of another root", t.0)
            }))
        };
        ids.iter()
            .map(|g| {
                let mut r = run.results[*g as usize].clone();
                r.deps.iter_mut().for_each(to_local);
                for plan in &mut r.plans {
                    for c in &mut plan.copies {
                        if let Source::Task(t, _) = &mut c.source {
                            to_local(t);
                        }
                    }
                    plan.reductions
                        .iter_mut()
                        .for_each(|x| to_local(&mut x.task));
                }
                r
            })
            .collect()
    }

    #[test]
    fn random_programs() {
        let mut fanned_out = 0;
        for seed in seeds("producers::random_programs", 3) {
            let mode = ALL_MODES[(seed % 6) as usize];
            let three = GenProgram::aliased(2, 3);
            let prog = rooted(&generate_over(&three, seed, mode, LAUNCHES));
            let roots = prog.roots.len();
            let reference = reference(&prog);
            let alone: Vec<_> = (0..roots)
                .map(|r| {
                    let alone = alone(&prog, r);
                    let reference = super::reference(&alone);
                    (alone, reference)
                })
                .collect();
            for engine in EngineKind::all() {
                // Each root alone, serial and plain: the other axes hold
                // its analysis fixed under threads and auto-tracing.
                let solo: Vec<Run> = alone
                    .iter()
                    .map(|(prog, reference)| judged(prog, DriveConfig::new(engine), reference))
                    .collect();
                for auto_trace in [false, true] {
                    for (analysis_threads, pipeline) in
                        [(1, false), (1, true), (4, false), (4, true)]
                    {
                        let shared = DriveConfig {
                            auto_trace,
                            analysis_threads,
                            pipeline,
                            producers: roots,
                            by_root: true,
                            ..DriveConfig::new(engine)
                        };
                        let run = judged(&prog, shared, &reference);
                        let ctxs: HashSet<u32> =
                            run.history.launches.iter().map(|l| l.ctx).collect();
                        fanned_out += usize::from(ctxs.len() > 1);
                        let what = format!("{} seed {seed}", shared.label());
                        let fields = prog.fields;
                        for (r, solo) in solo.iter().enumerate() {
                            // Roots are created first, in order.
                            let got = project(&run, r as u32);
                            assert_eq!(got, solo.results, "{what}: root {r}'s analysis");
                            let own = r * fields..(r + 1) * fields;
                            assert_eq!(
                                run.values[own.clone()],
                                solo.values[own],
                                "{what}: root {r}'s values"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            fanned_out > 0,
            "no case submitted from two producers at once"
        );
    }
}

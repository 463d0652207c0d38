//! How the differential matrix (`tests/differential.rs`) judges a driven
//! program, shared with `tests/workloads_cross_engine.rs`'s random
//! programs.

use viz_oracle::{check, run_program, DriveConfig, GenProgram, Run};
use viz_runtime::plan::AnalysisResult;
use viz_runtime::EngineKind;

/// Executed values of `prog` under serial `PaintNaive`: the reference.
pub fn reference(prog: &GenProgram) -> Vec<Vec<f64>> {
    let mut cfg = DriveConfig::new(EngineKind::PaintNaive);
    cfg.values = true;
    run_program(prog, cfg).values
}

/// Drive `prog` under `cfg` and judge it against `reference`: its values,
/// the oracle's checker and `check_sufficiency`.
pub fn judged(prog: &GenProgram, mut cfg: DriveConfig, reference: &[Vec<f64>]) -> Run {
    cfg.values = true;
    let run = run_program(prog, cfg);
    let case = format!("{} seed {} ({})", cfg.label(), prog.seed, prog.mode.name());
    assert_eq!(
        run.values, reference,
        "{case}: values diverge from serial PaintNaive"
    );
    let report = check(&run.history);
    assert!(report.ok(), "{case}: {}", report.violations[0]);
    assert!(run.unsound.is_empty(), "{case}: {:?}", run.unsound);
    run
}

/// [`judged`], and the run must compute `base`'s analysis exactly, launch
/// by launch (dependences and plans).
pub fn judged_as(prog: &GenProgram, cfg: DriveConfig, reference: &[Vec<f64>], base: &Run) -> Run {
    let run = judged(prog, cfg, reference);
    let what = format!("{} seed {}", cfg.label(), prog.seed);
    assert_eq!(
        run.results.len(),
        base.results.len(),
        "{what}: launch counts"
    );
    for (i, (x, y)) in run.results.iter().zip(&base.results).enumerate() {
        assert_eq!(x, y, "{what}: launch {i}");
    }
    run
}

/// Transitive closure of the dependences (ids are a topological order).
fn closure(results: &[AnalysisResult]) -> Vec<Vec<bool>> {
    let n = results.len();
    let mut reach = vec![vec![false; n]; n];
    for (t, r) in results.iter().enumerate() {
        for d in &r.deps {
            let d = d.0 as usize;
            let (head, tail) = reach.split_at_mut(t);
            tail[0][d] = true;
            for (j, hit) in head[d].iter().enumerate() {
                tail[0][j] |= *hit;
            }
        }
    }
    reach
}

/// Every engine, serial and sharded at four threads with batches of one
/// launch, five, and every run of consecutive launches at once, each run
/// judged: the sharded driver must reproduce the serial analysis exactly,
/// and all four engines must find the same dependence closure.
pub fn drivers_agree(prog: &GenProgram) {
    let reference = reference(prog);
    let mut first: Option<Vec<Vec<bool>>> = None;
    for engine in EngineKind::all() {
        let serial = judged(prog, DriveConfig::new(engine), &reference);
        for batch in [1, 5, usize::MAX] {
            let mut sharded = DriveConfig::new(engine);
            (sharded.analysis_threads, sharded.batch) = (4, batch);
            judged_as(prog, sharded, &reference, &serial);
        }
        let reach = closure(&serial.results);
        match &first {
            None => first = Some(reach),
            Some(c) => assert!(
                *c == reach,
                "{engine:?} seed {}: dependence closure differs from PaintNaive's",
                prog.seed
            ),
        }
    }
}

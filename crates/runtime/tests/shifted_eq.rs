//! Trace verification compares an analyzed result with the template's
//! result shifted onto it, in place (`AnalysisResult::eq_shifted`). Its
//! verdict must be exactly that of materializing the shifted copy (a clone
//! with every task reference moved, written out below) and comparing: on
//! results the three apps really produce, under random shifts, and when
//! one dependence, copy source or domain of an otherwise equal result is
//! mutated.

use proptest::prelude::*;
use std::sync::OnceLock;
use viz_apps::{Circuit, CircuitConfig, Pennant, PennantConfig, Stencil, StencilConfig, Workload};
use viz_geometry::IndexSpace;
use viz_runtime::{AnalysisResult, EngineKind, Runtime, RuntimeConfig, Source, TaskId, TaskShift};

/// Every launch's result from an untraced run of each app, with the
/// app's top-level iteration ends.
fn captured() -> &'static [(Vec<AnalysisResult>, Vec<TaskId>)] {
    static RESULTS: OnceLock<Vec<(Vec<AnalysisResult>, Vec<TaskId>)>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let apps: [Box<dyn Workload>; 3] = [
            Box::new(Stencil::new(StencilConfig::small(4, 6, 4))),
            Box::new(Circuit::new(CircuitConfig::small(4, 4))),
            Box::new(Pennant::new(PennantConfig::small(4, 4))),
        ];
        apps.iter()
            .map(|app| {
                let config = RuntimeConfig::base(EngineKind::RayCast)
                    .nodes(4)
                    .auto_trace(false);
                let mut rt = Runtime::new(config);
                let run = app.execute(&mut rt);
                (rt.results(), run.iter_end)
            })
            .collect()
    })
}

fn all_results() -> impl Iterator<Item = &'static AnalysisResult> {
    captured().iter().flat_map(|(results, _)| results)
}

/// The shifted copy verification used to build: a clone with `shift`
/// applied to every dependence, copy source and reduction instance.
fn shifted(template: &AnalysisResult, shift: TaskShift) -> AnalysisResult {
    let mut r = template.clone();
    for d in &mut r.deps {
        *d = shift.apply(*d);
    }
    for plan in &mut r.plans {
        for c in &mut plan.copies {
            if let Source::Task(t, _) = &mut c.source {
                *t = shift.apply(*t);
            }
        }
        for red in &mut plan.reductions {
            red.task = shift.apply(red.task);
        }
    }
    r
}

/// The verdict verification had before it compared in place.
fn resolved_eq(template: &AnalysisResult, shift: TaskShift, other: &AnalysisResult) -> bool {
    shifted(template, shift) == *other
}

/// A shift over ids below `n`: a window `[lo, hi)` moved by `delta`.
fn shift_in(n: u32, lo: u32, width: u32, delta: u32) -> TaskShift {
    let lo = lo % n;
    TaskShift {
        lo,
        hi: lo + width % n,
        delta: delta % n,
    }
}

/// Change one element of `r` — a dependence, a copy's source or a copy's
/// or reduction's domain, picked by `what` and `at` — so it differs from
/// what it was. Returns whether `r` had such an element.
fn mutate(r: &mut AnalysisResult, what: u32, at: usize) -> bool {
    let other_domain = |d: &IndexSpace| {
        if d.is_empty() {
            IndexSpace::span(0, 0)
        } else {
            IndexSpace::empty()
        }
    };
    match what % 3 {
        0 => {
            let n = r.deps.len();
            if n == 0 {
                return false;
            }
            r.deps[at % n].0 += 1;
        }
        1 => {
            let mut sources: Vec<&mut Source> = (r.plans.iter_mut())
                .flat_map(|p| &mut p.copies)
                .map(|c| &mut c.source)
                .collect();
            let n = sources.len();
            if n == 0 {
                return false;
            }
            *sources[at % n] = match *sources[at % n] {
                Source::Initial => Source::Task(TaskId(0), 0),
                Source::Task(t, req) => Source::Task(t, req + 1),
            };
        }
        _ => {
            let mut domains: Vec<&mut IndexSpace> = Vec::new();
            for p in &mut r.plans {
                domains.extend(p.copies.iter_mut().map(|c| &mut c.domain));
                domains.extend(p.reductions.iter_mut().map(|c| &mut c.domain));
            }
            let n = domains.len();
            if n == 0 {
                return false;
            }
            let d = &mut domains[at % n];
            **d = other_domain(d);
        }
    }
    true
}

#[test]
fn steady_iterations_are_their_predecessors_shifted() {
    // What a verification instance sees on a loop that repeats: iteration
    // k's results are iteration k-1's moved by one period.
    for (results, iter_end) in captured() {
        let (a, b, c) = (iter_end[1].0 + 1, iter_end[2].0 + 1, iter_end[3].0 + 1);
        let len = c - b;
        assert_eq!(b - a, len, "the app's iterations have one length");
        let shift = TaskShift {
            lo: a - len,
            hi: a + len,
            delta: len,
        };
        for k in a..b {
            let (template, next) = (&results[k as usize], &results[(k + len) as usize]);
            assert!(template.eq_shifted(shift, next), "launch {k}");
            assert!(resolved_eq(template, shift, next), "launch {k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any two captured results, any shift: both comparisons agree.
    #[test]
    fn in_place_comparison_agrees_with_resolve(
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
        lo in 0u32..4096,
        width in 0u32..4096,
        delta in 0u32..4096,
    ) {
        let results: Vec<&AnalysisResult> = all_results().collect();
        let (a, b) = (results[a.index(results.len())], results[b.index(results.len())]);
        let shift = shift_in(results.len() as u32, lo, width, delta);
        prop_assert_eq!(a.eq_shifted(shift, b), resolved_eq(a, shift, b));
        // The shifted copy itself is equal; one changed element is not.
        let mut copy = shifted(a, shift);
        prop_assert!(a.eq_shifted(shift, &copy));
        if mutate(&mut copy, lo, width as usize) {
            prop_assert!(!a.eq_shifted(shift, &copy));
            prop_assert!(!resolved_eq(a, shift, &copy));
        }
    }
}

#[test]
fn every_kind_of_mutation_is_seen() {
    // The random cases above could miss a kind on an unlucky draw: here
    // each kind is applied to every captured result that has one.
    let shift = TaskShift {
        lo: 3,
        hi: 40,
        delta: 17,
    };
    let mut seen = [0usize; 3];
    for r in all_results() {
        for (what, count) in seen.iter_mut().enumerate() {
            let mut copy = shifted(r, shift);
            if mutate(&mut copy, what as u32, 7) {
                *count += 1;
                assert!(!r.eq_shifted(shift, &copy), "mutation {what} went unseen");
                assert!(!resolved_eq(r, shift, &copy));
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "every kind was applied: {seen:?}"
    );
}

//! `--compare A.json B.json`: do two sets of runs agree within the
//! benchmark's own bounds? Per (end-to-end metric, workload) the verdict is
//! `same`, `worse` (B's value is worse than A's by more than the bound) or
//! `unresolved` (on one side the values from the two halves of the run's
//! repeats are further apart than the bound, so that side does not know
//! its own value well enough to be compared). Exact counts must
//! match exactly. Both sides must have passed their checks, B may not fail
//! a larger share of its launches than A, and a declared metric that
//! either side lacks is a disagreement, not a row to skip.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

fn num(metric: &Json, key: &str) -> Option<f64> {
    metric.get(key).and_then(Json::as_f64)
}

/// How far apart the two halves of a run put the metric, as a share of
/// its value.
fn spread(metric: &Json) -> Option<f64> {
    let [a, b] = metric.get("halves")?.items() else {
        return None;
    };
    let v = num(metric, "value").filter(|v| *v != 0.0)?;
    Some((a.as_f64()? - b.as_f64()?).abs() / v.abs())
}

pub fn verdict(a: &Json, b: &Json, better: Better, bound: f64) -> Option<Verdict> {
    let (va, vb) = (num(a, "value")?, num(b, "value")?);
    if spread(a)? > bound || spread(b)? > bound {
        return Some(Verdict::Unresolved);
    }
    let worse_by = match better {
        Better::Lower => (vb - va) / va.abs(),
        Better::Higher => (va - vb) / va.abs(),
    };
    Some(if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    })
}

/// Launches failed over launches attempted; `None` unless the workload
/// passed its checks and attempted something.
fn failed_share(run: &Json) -> Option<f64> {
    if run.get("correct") != Some(&Json::Bool(true)) {
        return None;
    }
    let attempted = num(run, "attempted").filter(|a| *a >= 1.0)?;
    Some(num(run, "failed")? / attempted)
}

/// The report and whether the two sides agree.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut agree = true;
    let (wa, wb) = (a.get("workloads"), b.get("workloads"));
    let names: Vec<&String> = wa
        .map_or(&[][..], Json::fields)
        .iter()
        .map(|(n, _)| n)
        .collect();
    if names.is_empty() {
        return ("no workloads in A\n".into(), false);
    }
    for name in names {
        let (Some(ra), Some(rb)) = (wa.and_then(|w| w.get(name)), wb.and_then(|w| w.get(name)))
        else {
            let _ = writeln!(out, "{name}: missing from B");
            agree = false;
            continue;
        };
        match (failed_share(ra), failed_share(rb)) {
            (Some(fa), Some(fb)) if fb <= fa => {}
            (fa, fb) => {
                agree = false;
                let _ = writeln!(
                    out,
                    "{name:<16} checks                 FAILED     failed share A {fa:?}  B {fb:?} \
                     (None = checks failed or nothing attempted)",
                );
            }
        }
        for e in END_TO_END {
            let pair = (
                ra.get("end_to_end").and_then(|m| m.get(e.name)),
                rb.get("end_to_end").and_then(|m| m.get(e.name)),
            );
            let v = match pair {
                (Some(ma), Some(mb)) => verdict(ma, mb, e.better, e.bound).map(|v| (v, ma, mb)),
                _ => None,
            };
            let Some((v, ma, mb)) = v else {
                agree = false;
                let _ = writeln!(out, "{name:<16} {:<22} missing from A or B", e.name);
                continue;
            };
            agree &= v == Verdict::Same;
            let _ = writeln!(
                out,
                "{name:<16} {:<22} {:<10} A {:>14.4}  B {:>14.4} {}  (bound {:.0}%, halves apart A {:.1}% B {:.1}%)",
                e.name,
                format!("{v:?}").to_lowercase(),
                num(ma, "value").unwrap_or(0.0),
                num(mb, "value").unwrap_or(0.0),
                e.unit,
                e.bound * 100.0,
                spread(ma).unwrap_or(0.0) * 100.0,
                spread(mb).unwrap_or(0.0) * 100.0,
            );
        }
        for p in PER_LAYER.iter().filter(|p| p.exact) {
            let count = |r: &Json| {
                r.get("per_layer")
                    .and_then(|m| m.get(p.name))
                    .and_then(|m| num(m, "value"))
            };
            let (ca, cb) = (count(ra), count(rb));
            if ca.is_none() || ca != cb {
                agree = false;
                let _ = writeln!(
                    out,
                    "{name:<16} {:<22} differs    A {ca:?}  B {cb:?} (an exact count)",
                    p.name,
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "{}",
        if agree {
            "the two sets of runs agree"
        } else {
            "the two sets of runs DISAGREE"
        }
    );
    (out, agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, half_a: f64, half_b: f64) -> Json {
        Json::obj([
            ("value", Json::Num(value)),
            (
                "halves",
                Json::Arr(vec![Json::Num(half_a), Json::Num(half_b)]),
            ),
        ])
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = metric(100.0, 99.0, 101.0);
        let same = metric(105.0, 104.0, 106.0);
        let worse = metric(115.0, 114.0, 116.0);
        let noisy = metric(100.0, 90.0, 110.0);
        assert_eq!(verdict(&a, &same, Better::Lower, 0.1), Some(Verdict::Same));
        assert_eq!(
            verdict(&a, &worse, Better::Lower, 0.1),
            Some(Verdict::Worse)
        );
        // Higher is better: 115 is an improvement, 85 is not.
        assert_eq!(
            verdict(&a, &worse, Better::Higher, 0.1),
            Some(Verdict::Same)
        );
        assert_eq!(
            verdict(&a, &metric(85.0, 84.0, 86.0), Better::Higher, 0.1),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(&a, &noisy, Better::Lower, 0.1),
            Some(Verdict::Unresolved)
        );
    }

    /// A complete result file of one workload: every declared end-to-end
    /// metric at 100 and every exact count at 7.
    fn file() -> Json {
        let e2e = END_TO_END
            .iter()
            .map(|e| (e.name, metric(100.0, 99.5, 100.5)));
        let counts = PER_LAYER
            .iter()
            .filter(|p| p.exact)
            .map(|p| (p.name, metric(7.0, 7.0, 7.0)));
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([
                    ("correct", Json::Bool(true)),
                    ("attempted", Json::Num(1000.0)),
                    ("failed", Json::Num(0.0)),
                    ("end_to_end", Json::obj(e2e)),
                    ("per_layer", Json::obj(counts)),
                ]),
            )]),
        )])
    }

    /// `file()` with one field of the workload's section `section` (or of
    /// the workload itself) replaced, or removed when `v` is `None`.
    fn with(section: Option<&str>, key: &str, v: Option<Json>) -> Json {
        fn edit(obj: &mut Json, path: &[&str], key: &str, v: Option<Json>) {
            let Json::Obj(fields) = obj else {
                panic!("not an object")
            };
            if let Some((head, rest)) = path.split_first() {
                let (_, inner) = fields.iter_mut().find(|(k, _)| k == head).unwrap();
                return edit(inner, rest, key, v);
            }
            fields.retain(|(k, _)| k != key);
            if let Some(v) = v {
                fields.push((key.into(), v));
            }
        }
        let mut f = file();
        let mut path = vec!["workloads", "w"];
        path.extend(section);
        edit(&mut f, &path, key, v);
        f
    }

    #[test]
    fn a_file_agrees_with_itself_and_with_a_change_inside_the_bound() {
        assert!(compare(&file(), &file()).1);
        let bound = END_TO_END[1].bound;
        let name = END_TO_END[1].name;
        let moved = |by: f64| {
            let v = match END_TO_END[1].better {
                Better::Lower => 100.0 * (1.0 + by),
                Better::Higher => 100.0 * (1.0 - by),
            };
            with(Some("end_to_end"), name, Some(metric(v, v - 0.5, v + 0.5)))
        };
        assert!(compare(&file(), &moved(bound * 0.5)).1);
        let (report, agree) = compare(&file(), &moved(bound * 1.5));
        assert!(!agree && report.contains(" worse "), "{report}");
    }

    #[test]
    fn exact_counts_must_match_exactly() {
        let b = with(
            Some("per_layer"),
            "region.regions",
            Some(metric(8.0, 8.0, 8.0)),
        );
        let (report, agree) = compare(&file(), &b);
        assert!(!agree);
        assert!(report.contains("region.regions"));
    }

    #[test]
    fn a_failed_b_disagrees() {
        for b in [
            with(None, "correct", Some(Json::Bool(false))),
            with(None, "failed", Some(Json::Num(513.0))),
            with(None, "attempted", Some(Json::Num(0.0))),
            with(None, "attempted", None),
        ] {
            let (report, agree) = compare(&file(), &b);
            assert!(!agree && report.contains("FAILED"), "{report}");
        }
        // Failing no larger a share than A is not a disagreement.
        let a = with(None, "failed", Some(Json::Num(10.0)));
        assert!(compare(&a, &with(None, "failed", Some(Json::Num(5.0)))).1);
    }

    #[test]
    fn a_metric_missing_from_either_side_disagrees() {
        let name = END_TO_END[1].name;
        for (a, b) in [
            (file(), with(Some("end_to_end"), name, None)),
            (with(Some("end_to_end"), name, None), file()),
            (file(), with(None, "end_to_end", None)),
            (file(), with(Some("per_layer"), "region.regions", None)),
            (file(), with(None, "per_layer", None)),
        ] {
            let (report, agree) = compare(&a, &b);
            assert!(!agree, "{report}");
        }
    }
}

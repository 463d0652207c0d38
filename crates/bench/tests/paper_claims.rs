//! The conclusions EXPERIMENTS.md draws from the committed `results/`
//! tables, asserted on those tables: `figures_golden` shows what moved in
//! a re-blessed golden, this shows whether the claims survived. It reads
//! the committed files only, so it is instant. Covered so far: the tracing
//! tables (E9 and E10).

use std::collections::BTreeMap;
use viz_bench::AppKind;

type Row = BTreeMap<String, f64>;

/// The rows of the committed `results/<stem>.tsv` as column name → value,
/// each labelled with its table and node count.
fn rows(stem: &str) -> Vec<(String, Row)> {
    let path = format!("{}/../../results/{stem}.tsv", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut lines = text.lines().filter(|l| !l.trim_start().starts_with('#'));
    let header: Vec<&str> = lines.next().unwrap_or_default().split('\t').collect();
    let cell = |c: &str| {
        c.parse()
            .unwrap_or_else(|e| panic!("{path}: cell {c:?}: {e}"))
    };
    let row = |l: &str| -> Row {
        header
            .iter()
            .map(|h| h.to_string())
            .zip(l.split('\t').map(cell))
            .collect()
    };
    let label = |r: Row| (format!("{stem} at {} nodes", r["nodes"]), r);
    lines.map(|l| label(row(l))).collect()
}

/// E9: "with the analysis memoized, even the single-analysis-node
/// configuration runs at full GPU throughput" — wherever untraced
/// throughput has fallen off its 1-node value, tracing at least doubles it.
#[test]
fn e9_tracing_at_least_doubles_throughput_past_the_knee() {
    for app in AppKind::all() {
        let rows = rows(&format!("ext_tracing_{}", app.label()));
        let peak = rows[0].1["untraced"];
        let past_knee: Vec<_> = rows
            .iter()
            .filter(|(_, r)| r["untraced"] < 0.9 * peak)
            .collect();
        assert!(
            !past_knee.is_empty(),
            "EXPERIMENTS.md E9: {} never falls off its 1-node value",
            app.label()
        );
        for (at, r) in past_knee {
            let holds = r["traced"] >= 2.0 * r["untraced"];
            assert!(
                holds,
                "EXPERIMENTS.md E9 (tracing recovers full throughput): {at}: {r:?}"
            );
        }
    }
}

/// E10: "At every node count of all three apps the auto-traced throughput
/// equals the hand-traced one … one trace is detected and none is demoted;
/// the detector replays 3/4 of the launches manual tracing replays".
#[test]
fn e10_auto_tracing_tracks_manual_tracing() {
    for app in AppKind::all() {
        for (at, r) in rows(&format!("ext_autotracing_{}", app.label())) {
            let claims = [
                // Not exact: the circuit at 128 nodes reads 4.5383 against 4.5384.
                (
                    "auto-traced throughput equals hand-traced",
                    (r["auto_traced"] - r["traced"]).abs() <= 1e-3 * r["traced"],
                ),
                (
                    "one trace is detected and none is demoted",
                    r["detected"] == 1.0 && r["demoted"] == 0.0,
                ),
                // Detection after two observed instances, capture of the
                // third and verification of the fourth leave 3/4 of the
                // manually replayed launches. ROADMAP item 2(b) (capture on
                // the second occurrence) is expected to flip this claim.
                (
                    "the detector replays 3/4 of the launches manual tracing replays",
                    4.0 * r["replayed_auto"] == 3.0 * r["replayed_manual"],
                ),
            ];
            for (claim, holds) in claims {
                assert!(holds, "EXPERIMENTS.md E10 ({claim}): {at}: {r:?}");
            }
        }
    }
}

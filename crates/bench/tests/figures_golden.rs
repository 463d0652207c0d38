//! The committed `results/` tables are this repo's statement of the paper's
//! Figs 12–17 (plus the artifact and tracing tables). CI regenerates all of
//! them at 512 nodes; this test regenerates their 1–8-node rows — the sweeps
//! go node count by node count, so a `--max-nodes 8` table is a byte prefix
//! of the full one — and fails the moment any simulated charge moves.

use viz_bench::{artifact_tsv, figure_table, paper_node_counts, sweep, tracing_tables, AppKind};
use viz_runtime::{EngineKind, RuntimeConfig};

fn assert_prefix_of_golden(stem: &str, table: &str) {
    let path = format!("{}/../../results/{stem}.tsv", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert!(
        golden.starts_with(table),
        "{stem}: the regenerated 1-8 node rows differ from results/{stem}.tsv; if the change in \
         simulated time is intended, regenerate the goldens (EXPERIMENTS.md) and say why.\n\
         --- regenerated ---\n{table}--- committed (same length) ---\n{}",
        golden.get(..table.len()).unwrap_or(&golden)
    );
}

#[test]
fn tables_through_8_nodes_match_the_committed_goldens() {
    // The sweeps build their runtimes through `RuntimeConfig::new`, as this
    // probe does. GC retires history `timed_schedule` needs, so a `VIZ_GC`
    // leg cannot reproduce them. Auto-tracing is on by default and the
    // sweeps turn it off themselves (§8), so this test runs under defaults.
    let env = RuntimeConfig::new(EngineKind::RayCast);
    if env.gc.enabled {
        eprintln!("figures_golden: skipped (VIZ_GC changes simulated time)");
        return;
    }
    let nodes = paper_node_counts(8);
    for app in AppKind::all() {
        let rows = sweep(app, &nodes, true);
        for fig in (12..=17).filter(|f| AppKind::of_figure(*f) == app) {
            let (stem, table) = figure_table(fig, &rows);
            assert_prefix_of_golden(&stem, &table);
        }
        let label = app.label();
        assert_prefix_of_golden(&format!("artifact_{label}"), &artifact_tsv(&rows, 1));
        let [manual, auto] = tracing_tables(app, &nodes);
        assert_prefix_of_golden(&format!("ext_tracing_{label}"), &manual);
        assert_prefix_of_golden(&format!("ext_autotracing_{label}"), &auto);
    }
}

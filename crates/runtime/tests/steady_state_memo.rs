//! The paper's steady state (§7): a dominating write resets the
//! decomposition every iteration and the next wave re-refines it the same
//! way, so after the first iterations nothing about a launch is new. For
//! the set algebra that means a steady iteration sweeps no rectangle list
//! and interns no space — every refine, overlap test and plan fold is a
//! memo hit on ids the root's geometry already holds.
//!
//! The circuit's working set (512 pieces × a dozen-plus distinct operand
//! pairs per piece per root) is several times what the old 4096-entry
//! segmented-LRU memo could hold, and it is accessed cyclically — the LRU
//! worst case: at that capacity every iteration re-swept nearly all of it.
//!
//! Untraced, so every iteration reaches the engine: a replayed one would
//! sweep and intern nothing for want of analysis.

use viz_apps::{Circuit, CircuitConfig, Workload};
use viz_runtime::engine::StateSize;
use viz_runtime::{EngineKind, Runtime, RuntimeConfig};

fn state_after(iterations: usize) -> StateSize {
    let app = Circuit::new(CircuitConfig {
        pieces: 512,
        nodes_per_piece: 48,
        wires_per_piece: 96,
        pct_external: 25,
        nodes: 4,
        with_bodies: false,
        ..CircuitConfig::small(512, iterations)
    });
    let mut rt = Runtime::new(
        RuntimeConfig::base(EngineKind::RayCast)
            .nodes(4)
            .auto_trace(false),
    );
    app.execute(&mut rt);
    rt.stats().state
}

#[test]
fn steady_iteration_sweeps_nothing_and_interns_nothing() {
    let (third, fourth) = (state_after(3), state_after(4));
    assert!(
        third.algebra_misses > 0,
        "the circuit never reached the memo"
    );
    assert_eq!(
        fourth.algebra_misses, third.algebra_misses,
        "iteration 4 swept rectangle lists iteration 3 had already swept"
    );
    assert_eq!(
        fourth.interned_spaces, third.interned_spaces,
        "iteration 4 interned spaces the roots did not already hold"
    );
    assert!(fourth.algebra_hits > third.algebra_hits);
}

/// The cold path as a count: first touch sweeps a candidate pair at most
/// twice — one early-exit `overlaps`, and one `split` for both halves and
/// the containment answer — and pairs whose target is one rect covering the
/// set's box reach no sweep at all. And a pair is swept once per *root*, not
/// once per field: the `voltage` and `charge` shards of `nodes` split the
/// same ghost spaces against the same pieces through one shared memo. On
/// this circuit that is 1 531 `overlaps` sweeps, 1 487 `split` sweeps and
/// 464 first-touch plan folds, all of them multi-source: the other 1 023
/// folds each read a whole band target from one source, and answer with the
/// target's own id without a merge (`union_all_covering`; with them merged
/// this read 4 505). One memo per `(root, field)` shard read 3 062 + 2 974 +
/// 1 999 = 8 035; four sweeps per straddler (`overlaps`, `contains`,
/// `intersect`, `subtract`) read 12 077; `split` without its covering-rect
/// fast path reads 13 983.
#[test]
fn first_iteration_sweeps_each_pair_once() {
    assert_eq!(state_after(1).algebra_misses, 1531 + 1487 + 464);
}

/// What the first iteration leaves in the roots' interners: the region
/// domains, each distinct split half and each distinct fold result. A band
/// miss interns its kernel's runs directly (`intern_runs`), so this pins
/// that it interns exactly the spaces — no more, no fewer — that interning
/// the `IndexSpace` results did. The same iteration reads 24 836 hits, the 1 023 covering folds among them.
#[test]
fn first_iteration_interns_each_result_once() {
    assert_eq!(state_after(1).interned_spaces, 4977);
}

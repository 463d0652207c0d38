//! Set-algebra microbench: memoized [`SpaceAlgebra`] vs direct sweeps.
//!
//! The workload replays the op mix the engines issue during a ghost-exchange
//! dependence analysis — an `overlaps` filter, then one `split` refinement
//! (both halves from one sweep; an empty outside half means the target
//! contains the set) between task targets and equivalence-set domains — over
//! many identical iterations, which is exactly the repetition the interner
//! and the algebra cache exist to exploit. Reported:
//!
//! * wall-clock of the full op stream, direct (`IndexSpace` sweeps) vs
//!   interned+cached (`SpaceAlgebra` with default config) — the acceptance
//!   target is a ≥ 2× speedup for the cached path;
//! * the cache hit rate (hits + fast-path hits over total lookups).
//!
//! Correctness of the memoized path is not measured here — it is proved
//! structurally by `viz-geometry/tests/prop_interned_algebra.rs` and the
//! engine differential: the `intern` axis of `tests/differential.rs`.

use std::hint::black_box;
use std::time::Instant;
use viz_bench::median_of;
use viz_geometry::{IndexSpace, InternConfig, Rect, SpaceAlgebra};

/// Pieces per side of the simulated 2-D partition; each piece is a
/// `TILE`x`TILE` primary tile plus a four-strip ghost halo, like the 2-D
/// stencil app — multi-rect spaces are where the sweeps actually cost.
const SIDE: i64 = 4;
const TILE: i64 = 32;
/// Halo depth.
const HALO: i64 = 2;
/// Identical analysis rounds — the repetition a trace loop produces.
const ITERS: usize = 40;

/// The (target, set-domain) op stream of one analysis round, as concrete
/// spaces. Each target is checked against every set domain the way the
/// engines' refinement loops do.
fn build_spaces() -> (Vec<IndexSpace>, Vec<IndexSpace>) {
    let n = SIDE * TILE;
    let tiles: Vec<(i64, i64, i64, i64)> = (0..SIDE)
        .flat_map(|i| {
            (0..SIDE).map(move |j| (i * TILE, (i + 1) * TILE - 1, j * TILE, (j + 1) * TILE - 1))
        })
        .collect();
    let primaries: Vec<IndexSpace> = tiles
        .iter()
        .map(|&(x0, x1, y0, y1)| IndexSpace::from_rect(Rect::xy(x0, x1, y0, y1)))
        .collect();
    let ghosts: Vec<IndexSpace> = tiles
        .iter()
        .map(|&(x0, x1, y0, y1)| {
            let mut rects = Vec::new();
            if x0 > 0 {
                rects.push(Rect::xy(x0 - HALO, x0 - 1, y0, y1));
            }
            if x1 < n - 1 {
                rects.push(Rect::xy(x1 + 1, (x1 + HALO).min(n - 1), y0, y1));
            }
            if y0 > 0 {
                rects.push(Rect::xy(x0, x1, y0 - HALO, y0 - 1));
            }
            if y1 < n - 1 {
                rects.push(Rect::xy(x0, x1, y1 + 1, (y1 + HALO).min(n - 1)));
            }
            IndexSpace::from_rects(rects)
        })
        .collect();
    let mut targets = primaries.clone();
    targets.extend(ghosts.iter().cloned());
    // Set domains drift as writes split them: primaries, halos, the
    // extended read sets p ∪ g, and primaries with a neighbour's halo
    // carved out (the halo of the next tile reaches into this one).
    let mut domains = primaries.clone();
    domains.extend(ghosts.iter().cloned());
    for (k, (p, g)) in primaries.iter().zip(&ghosts).enumerate() {
        domains.push(p.union(g));
        domains.push(p.subtract(&ghosts[(k + 1) % ghosts.len()]));
    }
    (targets, domains)
}

/// One full analysis round through plain `IndexSpace` sweeps. Returns a
/// checksum so the optimizer keeps every op.
fn direct_round(targets: &[IndexSpace], domains: &[IndexSpace]) -> u64 {
    let mut sum = 0u64;
    for t in targets {
        for d in domains {
            if !t.overlaps(d) {
                continue;
            }
            let (inside, outside) = d.split(t);
            if outside.is_empty() {
                sum += 1;
                continue;
            }
            sum += inside.rects().len() as u64 + outside.rects().len() as u64;
        }
    }
    sum
}

/// The same round through the interner: spaces are interned once up front
/// (as the engines do when sets are created) and every op is id-keyed.
fn interned_round(
    alg: &mut SpaceAlgebra,
    targets: &[viz_geometry::SpaceId],
    domains: &[viz_geometry::SpaceId],
) -> u64 {
    let mut sum = 0u64;
    for &t in targets {
        for &d in domains {
            if !alg.overlaps(d, t) {
                continue;
            }
            let (inside, outside) = alg.split(d, t);
            if outside == viz_geometry::SpaceId::EMPTY {
                sum += 1;
                continue;
            }
            sum += alg.space(inside).rects().len() as u64 + alg.space(outside).rects().len() as u64;
        }
    }
    sum
}

fn speedup_report() {
    const REPS: usize = 7;
    let (targets, domains) = build_spaces();
    let ops = targets.len() * domains.len() * ITERS;

    let direct_s = median_of(REPS, || {
        let t0 = Instant::now();
        let mut sum = 0u64;
        for _ in 0..ITERS {
            sum = sum.wrapping_add(direct_round(&targets, &domains));
        }
        black_box(sum);
        t0.elapsed().as_secs_f64()
    });

    let mut hit_rate = 0.0;
    let mut interned_count = 0usize;
    let interned_s = median_of(REPS, || {
        let mut alg = SpaceAlgebra::new(InternConfig::default());
        let tids: Vec<_> = targets.iter().map(|s| alg.intern(s)).collect();
        let dids: Vec<_> = domains.iter().map(|s| alg.intern(s)).collect();
        let t0 = Instant::now();
        let mut sum = 0u64;
        for _ in 0..ITERS {
            sum = sum.wrapping_add(interned_round(&mut alg, &tids, &dids));
        }
        black_box(sum);
        let dt = t0.elapsed().as_secs_f64();
        let st = alg.stats();
        let looked_up = st.hits + st.fast_hits + st.misses;
        hit_rate = (st.hits + st.fast_hits) as f64 / looked_up.max(1) as f64;
        interned_count = st.interned;
        dt
    });

    // Sanity: both paths agree on one round.
    {
        let mut alg = SpaceAlgebra::new(InternConfig::default());
        let tids: Vec<_> = targets.iter().map(|s| alg.intern(s)).collect();
        let dids: Vec<_> = domains.iter().map(|s| alg.intern(s)).collect();
        assert_eq!(
            direct_round(&targets, &domains),
            interned_round(&mut alg, &tids, &dids),
            "interned round diverged from direct round"
        );
    }

    let speedup = direct_s / interned_s;
    let per_op_direct = direct_s * 1e9 / ops as f64;
    let per_op_interned = interned_s * 1e9 / ops as f64;
    println!(
        "\n# Set algebra: direct sweeps vs interned+memoized ({} targets x {} domains x {ITERS} rounds = {ops} op groups)",
        targets.len(),
        domains.len()
    );
    print!(
        "path\ttotal_ms\tns_per_op_group\tspeedup\tcache_hit_rate\tinterned_spaces\n\
         direct\t{:.3}\t{per_op_direct:.1}\t1.00\t-\t-\n\
         interned\t{:.3}\t{per_op_interned:.1}\t{speedup:.2}\t{:.3}\t{interned_count}\n",
        direct_s * 1e3,
        interned_s * 1e3,
        hit_rate,
    );
    assert!(
        hit_rate > 0.5,
        "cache hit rate {hit_rate:.3} too low for a repeated op stream"
    );
    assert!(
        speedup >= 2.0,
        "interned algebra reached only {speedup:.2}x over direct sweeps (target: >= 2x)"
    );
}

fn main() {
    speedup_report();
}

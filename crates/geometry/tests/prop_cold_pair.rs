//! Property tests for the first-touch ("cold pair") geometry — the one-pass
//! band `split`, the non-allocating band `contains`, and the memoized
//! `SpaceAlgebra::split`, `union_all` and `overlaps`, whose band misses run
//! the run kernels on interned slices — at sizes that reach the sweeps: the
//! other suites build spaces of at most three rects, which the structural
//! fast paths answer before any sweep runs.
//!
//! The reference is the direct ops — `IndexSpace::intersect` and
//! `IndexSpace::subtract`, the chained `IndexSpace::union` — compared
//! *structurally* (rect-list equality): the engines name equivalence sets by
//! interned id, so a merely point-equal half would change every plan
//! downstream. On a band all three split ops are one branch-free run walk
//! (`SplitRuns`, whose buffers `SpaceAlgebra` reuses across misses), so band
//! pairs are also held to point membership. A plan fold that reads a whole
//! band target (`union_all_covering`) is held to the target and to both
//! folds. Both unions of a band, `IndexSpace::union` and a `union_all`
//! miss, run one branch-free merge kernel (`MergeRuns`), and an `overlaps`
//! with a one-run operand is a binary search: both are held to point
//! membership / a linear scan, with runs at `i64::MIN` and `i64::MAX`.

use proptest::prelude::*;
use viz_geometry::{IndexSpace, InternConfig, Rect, SpaceAlgebra, SpaceId};

/// `(gap, len)` steps of a 1-D band: up to 64 runs, never adjacent.
fn steps() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((1i64..5, 0i64..5), 0..65)
}

fn runs_of(steps: &[(i64, i64)]) -> Vec<(i64, i64)> {
    let mut x = 0;
    steps
        .iter()
        .map(|&(gap, len)| {
            let lo = x + gap;
            x = lo + len + 1;
            (lo, lo + len)
        })
        .collect()
}

fn band_of(runs: impl IntoIterator<Item = (i64, i64)>) -> IndexSpace {
    IndexSpace::from_rects(runs.into_iter().map(|(lo, hi)| Rect::span(lo, hi)))
}

/// A pair of bands of up to 64 runs each. The second is independent of the
/// first, or derived from it so that the shapes random draws almost never
/// produce at this size do occur: interleaved but disjoint (runs inside the
/// first's gaps), nested (sub-runs of its runs), run-adjacent (starting one
/// past a run's end) and straddling (crossing a run's end).
fn band_pair() -> impl Strategy<Value = (IndexSpace, IndexSpace)> {
    (
        steps(),
        steps(),
        0u8..5,
        prop::collection::vec((any::<bool>(), 0i64..4, 0i64..4), 65),
    )
        .prop_map(|(a_steps, b_steps, mode, picks)| {
            let a = runs_of(&a_steps);
            let gaps: Vec<(i64, i64)> = a.windows(2).map(|w| (w[0].1 + 1, w[1].0 - 1)).collect();
            let b = if mode == 0 {
                runs_of(&b_steps)
            } else {
                (if mode == 1 { &gaps } else { &a })
                    .iter()
                    .zip(&picks)
                    .filter(|(_, pick)| pick.0)
                    .map(|(&(lo, hi), &(_, d, e))| match mode {
                        1 => ((lo + d).min(hi), hi),
                        2 => ((lo + d).min(hi), (hi - e).max(lo + d).min(hi)),
                        3 => (hi + 1, hi + 1 + e),
                        _ => ((hi - d).max(lo), hi + e),
                    })
                    .collect()
            };
            (band_of(a), band_of(b))
        })
}

/// A 2-D set of 12 to 20 small rects in a 64x64 universe.
fn plane() -> impl Strategy<Value = IndexSpace> {
    prop::collection::vec(
        (0i64..64, 0i64..8, 0i64..64, 0i64..8)
            .prop_map(|(x, w, y, h)| Rect::xy(x, x + w, y, y + h)),
        12..21,
    )
    .prop_map(IndexSpace::from_rects)
}

/// Band pairs, 2-D pairs, and a band against a 2-D set (no common band: the
/// two-sweep arm), each in both orders.
fn pair() -> impl Strategy<Value = (IndexSpace, IndexSpace)> {
    prop_oneof![
        4 => band_pair(),
        1 => (plane(), plane()),
        1 => (band_pair(), plane()).prop_map(|((a, _), p)| (a, p)),
    ]
}

/// The operands of one `union_all`: 0–6 spaces of the `y == 0` band — runs
/// of up to 64, single spans, empties anywhere (first included) — and, in a
/// third of the lists, one more operand at a random position that leaves the
/// band: runs of another `y` band, or a 2-D set. Either forces the fold
/// that chains `IndexSpace::union`.
fn fold_list() -> impl Strategy<Value = Vec<IndexSpace>> {
    let operand = prop_oneof![
        3 => steps().prop_map(|s| band_of(runs_of(&s))),
        1 => (0i64..240, 0i64..40).prop_map(|(lo, len)| IndexSpace::span(lo, lo + len)),
        1 => Just(IndexSpace::empty()),
    ];
    let stray = prop_oneof![
        steps().prop_map(|s| {
            IndexSpace::from_rects(
                runs_of(&s)
                    .into_iter()
                    .map(|(lo, hi)| Rect::xy(lo, hi, 1, 1)),
            )
        }),
        plane(),
    ];
    let at = any::<prop::sample::Index>();
    (prop::collection::vec(operand, 0..7), 0u8..3, stray, at).prop_map(
        |(mut list, pick, stray, at)| {
            if pick == 0 {
                list.insert(at.index(list.len() + 1), stray);
            }
            list
        },
    )
}

/// A nonempty band of up to 64 runs, and up to five bands to cut it by.
fn band_and_cuts() -> impl Strategy<Value = (IndexSpace, Vec<IndexSpace>)> {
    let band = prop::collection::vec((1i64..5, 0i64..5), 1..65);
    let cut = prop_oneof![
        3 => steps().prop_map(|s| band_of(runs_of(&s))),
        1 => (0i64..240, 0i64..40).prop_map(|(lo, len)| IndexSpace::span(lo, lo + len)),
    ];
    (band, prop::collection::vec(cut, 1..6))
        .prop_map(|(band, cuts)| (band_of(runs_of(&band)), cuts))
}

/// The nonempty tiles `whole` falls into when every tile is split against
/// each cut in turn, shuffled by `seed`.
fn tiles_of(whole: &IndexSpace, cuts: &[IndexSpace], seed: u64) -> Vec<IndexSpace> {
    let mut alg = SpaceAlgebra::default();
    let mut tiles = vec![alg.intern(whole)];
    for cut in cuts {
        let cut = alg.intern(cut);
        tiles = tiles
            .into_iter()
            .flat_map(|tile| <[SpaceId; 2]>::from(alg.split(tile, cut)))
            .filter(|tile| *tile != SpaceId::EMPTY)
            .collect();
    }
    let mut tiles: Vec<IndexSpace> = tiles.iter().map(|t| alg.space(*t).clone()).collect();
    // Tiles are disjoint, so their first points are distinct keys.
    tiles.sort_by_key(|t| (seed ^ t.rects()[0].lo.x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    tiles
}

/// One band's runs from raw `(region, offset, len)` draws: a run near
/// `i64::MIN`, near 0 or ending near `i64::MAX` (at it for offset 0). The
/// draws overlap, nest and abut each other at random, and are coalesced
/// into the band's normal form.
fn extreme_band(draws: &[(u8, i64, i64)]) -> IndexSpace {
    let mut raw: Vec<(i64, i64)> = draws
        .iter()
        .map(|&(region, offset, len)| match region {
            0 => (i64::MIN + offset, i64::MIN + offset + len),
            1 => (offset - 100, offset - 100 + len),
            _ => (i64::MAX - offset - len, i64::MAX - offset),
        })
        .collect();
    raw.sort_unstable();
    let mut runs: Vec<(i64, i64)> = Vec::new();
    for (lo, hi) in raw {
        match runs.last_mut() {
            Some(last) if lo as i128 <= last.1 as i128 + 1 => last.1 = last.1.max(hi),
            _ => runs.push((lo, hi)),
        }
    }
    band_of(runs)
}

/// One raw draw for [`extreme_band`]: a run of up to 24 points in a
/// 60-point window, at the window's extreme end one time in four.
fn extreme_draw() -> impl Strategy<Value = (u8, i64, i64)> {
    let offset = prop_oneof![1 => Just(0i64), 3 => 0i64..60];
    (0u8..3, offset, 0i64..24)
}

/// Up to eight raw draws: runs of different operands often meet.
fn extreme_draws() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    prop::collection::vec(extreme_draw(), 0..9)
}

/// Every point where membership in one of `spaces` can change: each run's
/// ends and the points just outside them.
fn probes<'a>(spaces: impl IntoIterator<Item = &'a IndexSpace>) -> Vec<i64> {
    let ends = spaces.into_iter().flat_map(|s| s.rects()).flat_map(|r| {
        let (lo, hi) = (r.lo.x, r.hi.x);
        [lo.saturating_sub(1), lo, hi, hi.saturating_add(1)]
    });
    ends.collect()
}

/// Sorted by `x` with a gap between every two runs (checked in `i128`).
fn is_normal(space: &IndexSpace) -> bool {
    let runs = space.rects();
    runs.windows(2)
        .all(|w| (w[0].hi.x as i128) + 1 < w[1].lo.x as i128)
        && runs
            .iter()
            .all(|r| r.lo.x <= r.hi.x && (r.lo.y, r.hi.y) == (0, 0))
}

fn chained(spaces: &[IndexSpace]) -> IndexSpace {
    spaces
        .iter()
        .fold(IndexSpace::empty(), |acc, s| acc.union(s))
}

fn check_split(alg: &mut SpaceAlgebra, a: &IndexSpace, b: &IndexSpace) {
    let (inside, outside) = (a.intersect(b), a.subtract(b));
    let (ia, ib) = (alg.intern(a), alg.intern(b));
    let (i, o) = alg.split(ia, ib);
    prop_assert_eq!(alg.space(i), &inside, "inside half diverged");
    prop_assert_eq!(alg.space(o), &outside, "outside half diverged");
    // The cached boxes, read off a band's ends, are the full folds.
    for half in [i, o] {
        prop_assert_eq!(alg.bbox(half), alg.space(half).bbox());
    }
    prop_assert_eq!(o == SpaceId::EMPTY, alg.contains(ib, ia));
    // The halves are the ids the separate ops name.
    prop_assert_eq!((alg.intersect(ia, ib), alg.subtract(ia, ib)), (i, o));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `split` is `(intersect, subtract)` and `contains` is "nothing left
    /// after subtracting", structurally, in both operand orders.
    #[test]
    fn split_and_contains_match_the_direct_sweeps(ab in pair()) {
        let (a, b) = ab;
        for (x, y) in [(&a, &b), (&b, &a)] {
            prop_assert_eq!(x.split(y), (x.intersect(y), x.subtract(y)));
            prop_assert_eq!(x.contains(y), y.subtract(x).is_empty());
        }
        prop_assert_eq!(a.split(&a), (a.clone(), IndexSpace::empty()));
        prop_assert!(a.contains(&a));
    }

    /// Both halves are the points of the first operand inside / outside the
    /// second, in normal form: sorted, disjoint, maximal runs.
    #[test]
    fn band_split_halves_match_points_and_stay_normalized(ab in band_pair()) {
        let (a, b) = ab;
        let (inside, outside) = a.split(&b);
        let keep = |want: bool| {
            IndexSpace::from_points(a.points().filter(|p| b.contains_point(*p) == want))
        };
        prop_assert_eq!(&inside, &keep(true));
        prop_assert_eq!(&outside, &keep(false));
        for half in [inside, outside] {
            for w in half.rects().windows(2) {
                prop_assert!(w[0].hi.x + 1 < w[1].lo.x, "{:?} then {:?}", w[0], w[1]);
            }
        }
    }

    /// `SpaceAlgebra::split` agrees with the direct sweeps with interning on
    /// and off, over pairs sharing one algebra; once every pair has been
    /// seen, further passes sweep nothing and intern nothing.
    #[test]
    fn memoized_split_matches_and_never_sweeps_again(
        pairs in prop::collection::vec(pair(), 1..6),
    ) {
        let mut off = SpaceAlgebra::new(InternConfig::disabled());
        let mut on = SpaceAlgebra::new(InternConfig::default());
        for (a, b) in &pairs {
            check_split(&mut off, a, b);
            check_split(&mut on, a, b);
            check_split(&mut on, b, a);
        }
        prop_assert_eq!(off.stats().hits + off.stats().fast_hits, 0);
        let seen = on.stats();
        for (a, b) in &pairs {
            check_split(&mut on, a, b);
            check_split(&mut on, b, a);
        }
        prop_assert_eq!(on.stats().misses, seen.misses);
        prop_assert_eq!(on.stats().interned, seen.interned);
    }

    /// `union_all` is the chained `IndexSpace::union`, structurally, with
    /// interning on (the band merge through two buffers, or the chained
    /// fold when an operand leaves the band or the first is empty) and off;
    /// the result is the id interning the chained space names, with its
    /// box; a repeat call is one hit.
    #[test]
    fn band_union_all_matches_the_chained_fold(spaces in fold_list()) {
        let chained = spaces.iter().skip(1).fold(
            spaces.first().cloned().unwrap_or_default(),
            |acc, s| acc.union(s),
        );
        for config in [InternConfig::default(), InternConfig::disabled()] {
            let mut alg = SpaceAlgebra::new(config);
            let ids: Vec<_> = spaces.iter().map(|s| alg.intern(s)).collect();
            let folded = alg.union_all(&ids);
            prop_assert_eq!(alg.space(folded), &chained);
            prop_assert_eq!(alg.bbox(folded), chained.bbox());
            let seen = alg.stats();
            prop_assert_eq!(alg.union_all(&ids), folded);
            if config.enabled && ids.len() > 1 {
                prop_assert_eq!(alg.stats().hits, seen.hits + 1, "a repeat fold missed");
                prop_assert_eq!(alg.stats().misses, seen.misses);
            }
            prop_assert_eq!(alg.intern(&chained), folded);
        }
    }

    /// Tiles of a band — the split halves a requirement's constituent sets
    /// are, shuffled — fold back to the band itself: `union_all_covering`
    /// names `whole`, structurally what `union_all` and the chained
    /// `IndexSpace::union` build, with interning on and off. With interning
    /// on and more than one tile it is one fast hit and no miss.
    #[test]
    fn covering_fold_is_the_whole(wc in band_and_cuts(), seed in 0u64..u64::MAX) {
        let (whole, cuts) = wc;
        let tiles = tiles_of(&whole, &cuts, seed);
        prop_assert_eq!(&chained(&tiles), &whole);
        for config in [InternConfig::default(), InternConfig::disabled()] {
            let mut alg = SpaceAlgebra::new(config);
            let w = alg.intern(&whole);
            let ids: Vec<_> = tiles.iter().map(|t| alg.intern(t)).collect();
            let before = alg.stats();
            let covering = alg.union_all_covering(&ids, w);
            let after = alg.stats();
            prop_assert_eq!(covering, w);
            if config.enabled && ids.len() > 1 {
                prop_assert_eq!(after.fast_hits, before.fast_hits + 1);
                prop_assert_eq!(after.misses, before.misses);
                prop_assert_eq!(after.cache_entries, before.cache_entries);
            }
            prop_assert_eq!(alg.union_all(&ids), w);
        }
    }

    /// A tall band (`y` 0..3) tiled into horizontal strips shares no band
    /// with its tiles, so the covering fold is `union_all` — one miss, no
    /// fast hit — and still names a space with the band's points.
    #[test]
    fn tall_band_strips_fall_back_to_union_all(band in steps(), seed in 0u64..u64::MAX) {
        let runs = runs_of(&band);
        let whole = IndexSpace::from_rects(runs.iter().map(|&(lo, hi)| Rect::xy(lo, hi, 0, 3)));
        let mut strips: Vec<IndexSpace> = (0..4)
            .map(|y| IndexSpace::from_rects(runs.iter().map(|&(lo, hi)| Rect::xy(lo, hi, y, y))))
            .collect();
        strips.sort_by_key(|s| (seed ^ s.bbox().lo.y as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for config in [InternConfig::default(), InternConfig::disabled()] {
            let mut alg = SpaceAlgebra::new(config);
            let w = alg.intern(&whole);
            let ids: Vec<_> = strips.iter().map(|s| alg.intern(s)).collect();
            let before = alg.stats();
            let covering = alg.union_all_covering(&ids, w);
            let after = alg.stats();
            if config.enabled && !whole.is_empty() {
                prop_assert_eq!(after.fast_hits, before.fast_hits);
                prop_assert_eq!(after.misses, before.misses + 1);
            }
            prop_assert_eq!(alg.union_all(&ids), covering);
            prop_assert_eq!(alg.space(covering), &chained(&strips));
            prop_assert!(alg.space(covering).same_points(&whole));
        }
    }

    /// One algebra splits band pairs largest first, so every later split
    /// runs in buffers longer than it needs, holding the previous split's
    /// pieces past its own: each half is still exactly the points of its
    /// first operand inside / outside the second.
    #[test]
    fn reused_split_buffers_stay_exact(pairs in prop::collection::vec(band_pair(), 1..8)) {
        let mut pairs = pairs;
        pairs.sort_by_key(|(a, b)| std::cmp::Reverse(a.rect_count() + b.rect_count()));
        let mut alg = SpaceAlgebra::default();
        for (a, b) in &pairs {
            for (x, y) in [(a, b), (b, a)] {
                let (ix, iy) = (alg.intern(x), alg.intern(y));
                let (inside, outside) = alg.split(ix, iy);
                let keep = |want: bool| {
                    IndexSpace::from_points(x.points().filter(|p| y.contains_point(*p) == want))
                };
                prop_assert_eq!(alg.space(inside), &keep(true));
                prop_assert_eq!(alg.space(outside), &keep(false));
            }
        }
    }

    /// The `&self` `overlaps` answers what `IndexSpace::overlaps` does, in
    /// both orders and against itself, with interning on and off, and
    /// records nothing: no memo entry and no counter.
    #[test]
    fn unmemoized_overlaps_matches_and_records_nothing(ab in pair()) {
        let (a, b) = ab;
        for config in [InternConfig::default(), InternConfig::disabled()] {
            let mut alg = SpaceAlgebra::new(config);
            let (ia, ib) = (alg.intern(&a), alg.intern(&b));
            let before = alg.stats();
            for (x, y, ix, iy) in [(&a, &b, ia, ib), (&b, &a, ib, ia), (&a, &a, ia, ia)] {
                prop_assert_eq!(alg.overlaps_unmemoized(ix, iy), x.overlaps(y));
            }
            prop_assert_eq!(alg.stats(), before);
            prop_assert_eq!(alg.overlaps(ia, ib), a.overlaps(&b));
        }
    }

    /// A union on a band holds exactly the points of its operands, in
    /// normal form, whatever they share — overlapping, nested and adjacent
    /// runs, runs at `i64::MIN` and `i64::MAX`: `IndexSpace::union` of two
    /// operands in both orders, and `union_all` of two to five, which is
    /// also the chained `IndexSpace::union`. Membership is compared at every
    /// point where it can change.
    #[test]
    fn band_merge_matches_point_membership(
        draws in prop::collection::vec(extreme_draws(), 2..6),
    ) {
        let spaces: Vec<IndexSpace> = draws.iter().map(|d| extreme_band(d)).collect();
        let in_any = |x: i64, ops: &[IndexSpace]| {
            ops.iter().any(|s| s.contains_point(viz_geometry::Point::p1(x)))
        };
        let check = |union: &IndexSpace, ops: &[IndexSpace]| {
            prop_assert!(is_normal(union), "{:?}", union);
            for x in probes(ops.iter().chain([union])) {
                let p = viz_geometry::Point::p1(x);
                prop_assert_eq!(union.contains_point(p), in_any(x, ops), "at {}", x);
            }
        };
        let (a, b) = (&spaces[0], &spaces[1]);
        check(&a.union(b), &spaces[..2]);
        check(&b.union(a), &spaces[..2]);
        let mut alg = SpaceAlgebra::default();
        let ids: Vec<_> = spaces.iter().map(|s| alg.intern(s)).collect();
        let folded = alg.union_all(&ids);
        let folded = alg.space(folded).clone();
        check(&folded, &spaces);
        prop_assert_eq!(&folded, &chained(&spaces));
    }

    /// An `overlaps` with a one-run operand — the anchor check's piece
    /// against a band, a still-whole piece against a target — answers what
    /// a linear scan of the other operand's runs does, in both argument
    /// orders, through `IndexSpace::overlaps` and both algebra forms.
    #[test]
    fn one_run_overlap_matches_the_walk(
        draws in extreme_draws(),
        run in extreme_draw(),
    ) {
        let (band, one) = (extreme_band(&draws), extreme_band(&[run]));
        let r = one.rects()[0];
        let expect = band.rects().iter().any(|b| b.lo.x <= r.hi.x && r.lo.x <= b.hi.x);
        let mut alg = SpaceAlgebra::default();
        let (ib, io) = (alg.intern(&band), alg.intern(&one));
        for (x, y, ix, iy) in [(&band, &one, ib, io), (&one, &band, io, ib)] {
            prop_assert_eq!(x.overlaps(y), expect);
            prop_assert_eq!(alg.overlaps_unmemoized(ix, iy), expect);
            prop_assert_eq!(alg.overlaps(ix, iy), expect);
        }
    }
}

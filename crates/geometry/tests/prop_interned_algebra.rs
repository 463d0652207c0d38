//! Property tests for the interned/memoized set algebra.
//!
//! The engines compare analysis results *structurally* (rect-list
//! equality), so [`SpaceAlgebra`] must return spaces structurally identical
//! to the direct sweeps — a fast path or cached entry returning a merely
//! point-equal space would silently change materialization plans. These
//! tests drive one long-lived algebra (so the interner and memo accumulate
//! state across operations) and check every result against the unmemoized
//! [`IndexSpace`] operation.

use proptest::prelude::*;
use viz_geometry::{IndexSpace, InternConfig, Rect, SpaceAlgebra, SpaceId, SpaceInterner};

/// A band of up to 11 runs at `y ∈ [2, 3]`, never adjacent.
fn band() -> impl Strategy<Value = IndexSpace> {
    prop::collection::vec((1i64..4, 0i64..4), 0..12).prop_map(|steps| {
        let mut x = 0;
        IndexSpace::from_rects(steps.into_iter().map(|(gap, len)| {
            let lo = x + gap;
            x = lo + len + 1;
            Rect::xy(lo, lo + len, 2, 3)
        }))
    })
}

/// `{r}` as `intersect`'s single-rect fast path interns it: through
/// `intern_rect`, from two one-rect operands neither of which is `r`.
fn via_intern_rect(alg: &mut SpaceAlgebra, r: Rect) -> SpaceId {
    let (ylo, yhi) = (r.lo.y, r.hi.y);
    let left = alg.intern(&Rect::xy(r.lo.x - 1, r.hi.x, ylo, yhi).into());
    let right = alg.intern(&Rect::xy(r.lo.x, r.hi.x + 1, ylo, yhi).into());
    alg.intersect(left, right)
}

/// A small random index space out of up to 4 random rects in a 64x64
/// universe; duplicates across cases are likely, which is exactly what the
/// interner and cache exist for.
fn space() -> impl Strategy<Value = IndexSpace> {
    prop::collection::vec(
        (0i64..64, 0i64..16, 0i64..64, 0i64..16)
            .prop_map(|(x, w, y, h)| Rect::xy(x, x + w, y, y + h)),
        0..4,
    )
    .prop_map(IndexSpace::from_rects)
}

fn check_all_ops(alg: &mut SpaceAlgebra, a: &IndexSpace, b: &IndexSpace) {
    let (ia, ib) = (alg.intern(a), alg.intern(b));
    // Interning round-trips exactly.
    prop_assert_eq!(alg.space(ia), a);
    prop_assert_eq!(alg.space(ib), b);
    prop_assert_eq!(alg.bbox(ia), a.bbox());

    let i = alg.intersect(ia, ib);
    prop_assert_eq!(alg.space(i), &a.intersect(b), "intersect diverged");
    let s = alg.subtract(ia, ib);
    prop_assert_eq!(alg.space(s), &a.subtract(b), "subtract diverged");
    let u = alg.union(ia, ib);
    prop_assert_eq!(alg.space(u), &a.union(b), "union diverged");
    prop_assert_eq!(alg.overlaps(ia, ib), a.overlaps(b), "overlaps diverged");
    prop_assert_eq!(alg.contains(ia, ib), a.contains(b), "contains diverged");

    // Convenience forms must agree with the id-keyed paths.
    prop_assert_eq!(&alg.union_spaces(a, b), &a.union(b));
    prop_assert_eq!(alg.contains_spaces(a, b), a.contains(b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Enabled algebra (fast paths + cache) ≡ direct sweeps, structurally,
    /// over a sequence of pairs sharing one algebra. Running every pair
    /// twice forces the second round through the memo table.
    #[test]
    fn interned_algebra_matches_direct(pairs in prop::collection::vec((space(), space()), 1..12)) {
        let mut alg = SpaceAlgebra::new(InternConfig::default());
        for _ in 0..2 {
            for (a, b) in &pairs {
                check_all_ops(&mut alg, a, b);
            }
        }
    }

    /// The memo never forgets: once every pair has been seen, further
    /// passes give the same results and sweep nothing.
    #[test]
    fn repeat_passes_never_sweep_again(pairs in prop::collection::vec((space(), space()), 1..12)) {
        let mut alg = SpaceAlgebra::new(InternConfig::default());
        for (a, b) in &pairs {
            check_all_ops(&mut alg, a, b);
        }
        let seen = alg.stats();
        for _ in 0..2 {
            for (a, b) in &pairs {
                check_all_ops(&mut alg, a, b);
            }
        }
        prop_assert_eq!(alg.stats().misses, seen.misses);
        prop_assert_eq!(alg.stats().interned, seen.interned);
    }

    /// `union_all` is the left fold of `IndexSpace::union`, structurally,
    /// memoized (second round) or not (`InternConfig::disabled()`).
    #[test]
    fn union_all_matches_the_chained_fold(spaces in prop::collection::vec(space(), 0..6)) {
        let chained = spaces.iter().skip(1).fold(
            spaces.first().cloned().unwrap_or_default(),
            |acc, s| acc.union(s),
        );
        for config in [InternConfig::default(), InternConfig::disabled()] {
            let mut alg = SpaceAlgebra::new(config);
            let ids: Vec<_> = spaces.iter().map(|s| alg.intern(s)).collect();
            for _ in 0..2 {
                let folded = alg.union_all(&ids);
                prop_assert_eq!(alg.space(folded), &chained);
            }
        }
    }

    /// Disabled mode (`InternConfig::disabled()`) also matches direct sweeps.
    #[test]
    fn disabled_algebra_matches_direct(pairs in prop::collection::vec((space(), space()), 1..8)) {
        let mut alg = SpaceAlgebra::new(InternConfig::disabled());
        for (a, b) in &pairs {
            check_all_ops(&mut alg, a, b);
        }
        prop_assert_eq!(alg.stats().hits, 0);
        prop_assert_eq!(alg.stats().fast_hits, 0);
    }

    /// `intern_rect` and `intern` of the one-rect space name the same slot,
    /// whichever sees the rect first — empty rects (negative extents here)
    /// included. Duplicates across the list exercise the repeat path.
    #[test]
    fn intern_rect_agrees_with_intern(
        rects in prop::collection::vec((0i64..8, -2i64..4, 0i64..8, -2i64..4), 1..16),
    ) {
        let mut i = SpaceInterner::new();
        for (k, (x, w, y, h)) in rects.into_iter().enumerate() {
            let r = Rect::xy(x, x + w, y, y + h);
            let space = IndexSpace::from_rect(r);
            let (by_rect, by_space) = if k % 2 == 0 {
                let by_rect = i.intern_rect(r);
                (by_rect, i.intern(&space))
            } else {
                let by_space = i.intern(&space);
                (i.intern_rect(r), by_space)
            };
            prop_assert_eq!(by_rect, by_space);
            prop_assert_eq!(i.get(by_rect), &space);
            prop_assert_eq!(i.bbox(by_rect), space.bbox());
        }
    }

    /// The three ways into the interner agree: a band half `split` built
    /// from runs, the same rects interned as a space, and — for a one-run
    /// half — the rect alone (`intern_rect`) name one slot with one bbox,
    /// whichever path sees the space first.
    #[test]
    fn split_halves_intern_like_their_rects(
        dom in band(),
        target in band(),
        split_first in any::<bool>(),
    ) {
        let mut alg = SpaceAlgebra::new(InternConfig::default());
        let (d, t) = (alg.intern(&dom), alg.intern(&target));
        let halves = [dom.intersect(&target), dom.subtract(&target)];
        let direct = |alg: &mut SpaceAlgebra| {
            halves.clone().map(|h| match h.rects() {
                [r] => via_intern_rect(alg, *r),
                _ => alg.intern(&h),
            })
        };
        let (by_split, by_direct) = if split_first {
            let (i, o) = alg.split(d, t);
            ([i, o], direct(&mut alg))
        } else {
            let by_direct = direct(&mut alg);
            let (i, o) = alg.split(d, t);
            ([i, o], by_direct)
        };
        prop_assert_eq!(by_split, by_direct);
        for (id, half) in by_split.iter().zip(&halves) {
            prop_assert_eq!(alg.space(*id), half);
            prop_assert_eq!(alg.bbox(*id), half.bbox());
            prop_assert_eq!(alg.intern(half), *id);
        }
    }

    /// Self-operations hit the identical-id fast paths and must still be
    /// structurally exact (a ∩ a = a, a \ a = ∅).
    #[test]
    fn self_ops_are_structural_identities(a in space()) {
        let mut alg = SpaceAlgebra::new(InternConfig::default());
        let ia = alg.intern(&a);
        let i = alg.intersect(ia, ia);
        prop_assert_eq!(i, ia);
        prop_assert_eq!(alg.space(i), &a.intersect(&a));
        let s = alg.subtract(ia, ia);
        prop_assert!(alg.space(s).is_empty());
        prop_assert_eq!(alg.space(s), &a.subtract(&a));
    }
}

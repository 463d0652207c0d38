//! Sparse index sets as normalized lists of disjoint rectangles.

use crate::point::Point;
use crate::rect::Rect;
use std::fmt;
use std::sync::Arc;

/// A set of points in the index space, stored as a list of **disjoint**
/// rectangles sorted by `(lo.y, lo.x)` with adjacent rectangles coalesced
/// where a single normalization pass finds them.
///
/// This is the representation of a region's *domain* in the paper's sense: a
/// set of n-dimensional points. All of the set algebra the visibility
/// algorithms rely on is provided:
///
/// * `X/Y` (points of `X` shared with `Y`) — [`IndexSpace::intersect`]
/// * `X\Y` (points of `X` not in `Y`) — [`IndexSpace::subtract`]
/// * `X ∪ Y` — [`IndexSpace::union`]
///
/// The rectangle list is kept normalized, so structural equality of two
/// spaces is *not* guaranteed for equal point sets built differently; use
/// [`IndexSpace::same_points`] for set equality.
///
/// The list is immutable and reference-counted: every operation builds its
/// result in a buffer and freezes it once, so `clone()` is a pointer copy and
/// the interner, the equivalence sets and every stored plan that name the
/// same space share one allocation. Equality and hashing stay
/// content-based.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct IndexSpace {
    rects: Arc<[Rect]>,
}

impl IndexSpace {
    /// The empty set.
    #[inline]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Freeze a list that already satisfies the invariant (disjoint, in
    /// normal form): one copy into the shared allocation, from a `Vec` or a
    /// kernel's buffer alike.
    #[inline]
    pub(crate) fn frozen(rects: impl Into<Arc<[Rect]>>) -> Self {
        IndexSpace {
            rects: rects.into(),
        }
    }

    /// A dense rectangle.
    pub fn from_rect(r: Rect) -> Self {
        if r.is_empty() {
            Self::empty()
        } else {
            IndexSpace {
                rects: Arc::new([r]),
            }
        }
    }

    /// A dense 1-D span `[lo, hi]`.
    pub fn span(lo: i64, hi: i64) -> Self {
        Self::from_rect(Rect::span(lo, hi))
    }

    /// Build from arbitrary (possibly overlapping, possibly empty)
    /// rectangles.
    pub fn from_rects<I: IntoIterator<Item = Rect>>(rects: I) -> Self {
        let mut acc = Vec::new();
        for r in rects {
            Self::add_rect(&mut acc, r);
        }
        Self::normalize(&mut acc);
        Self::frozen(acc)
    }

    /// Build from a set of points; consecutive 1-D runs are coalesced.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Self {
        let mut pts: Vec<Point> = points.into_iter().collect();
        pts.sort_unstable();
        pts.dedup();
        let mut rects = Vec::new();
        let mut run: Option<Rect> = None;
        for p in pts {
            match run {
                Some(ref mut r) if r.hi.y == p.y && r.hi.x + 1 == p.x => {
                    r.hi.x = p.x;
                }
                _ => {
                    if let Some(r) = run.take() {
                        rects.push(r);
                    }
                    run = Some(Rect::point(p));
                }
            }
        }
        if let Some(r) = run {
            rects.push(r);
        }
        Self::normalize(&mut rects);
        Self::frozen(rects)
    }

    /// Add a rectangle's points to a disjoint list (keeps the disjointness
    /// invariant, does not re-normalize; callers batch adds and call
    /// `normalize` once).
    fn add_rect(rects: &mut Vec<Rect>, r: Rect) {
        if r.is_empty() {
            return;
        }
        // Insert only the parts of `r` not already covered.
        let mut pending = vec![r];
        for have in rects.iter() {
            if pending.is_empty() {
                break;
            }
            let mut next = Vec::with_capacity(pending.len());
            for p in pending {
                if p.overlaps(have) {
                    next.extend(p.subtract(have));
                } else {
                    next.push(p);
                }
            }
            pending = next;
        }
        rects.extend(pending);
    }

    /// Restore sorted order and coalesce adjacent rectangles.
    ///
    /// Disjoint rectangles have pairwise-distinct `lo` points, so one sort
    /// establishes a total row-major order, and both merge passes preserve
    /// it: a merge keeps the surviving rectangle's `lo` and only grows its
    /// `hi`. The loop therefore never needs to re-sort, and each pass is
    /// linear — the vertical pass tracks the most recent rectangle per
    /// column band (within a band, row-major order is ascending `lo.y`, so
    /// only band-consecutive rectangles can be y-adjacent).
    fn normalize(rects: &mut Vec<Rect>) {
        if rects.len() <= 1 {
            return;
        }
        rects.sort_unstable_by_key(|r| (r.lo, r.hi));
        loop {
            let mut merged = false;
            // Horizontal merge: same row band, x-adjacent.
            let mut out: Vec<Rect> = Vec::with_capacity(rects.len());
            for r in rects.drain(..) {
                if let Some(last) = out.last_mut() {
                    if last.lo.y == r.lo.y && last.hi.y == r.hi.y && last.hi.x + 1 == r.lo.x {
                        last.hi.x = r.hi.x;
                        merged = true;
                        continue;
                    }
                }
                out.push(r);
            }
            // Vertical merge: same column band, y-adjacent.
            let mut col: crate::hash::FxHashMap<(i64, i64), usize> =
                crate::hash::FxHashMap::default();
            let mut vout: Vec<Rect> = Vec::with_capacity(out.len());
            for r in out {
                if let Some(&i) = col.get(&(r.lo.x, r.hi.x)) {
                    if vout[i].hi.y + 1 == r.lo.y {
                        vout[i].hi.y = r.hi.y;
                        merged = true;
                        continue;
                    }
                }
                col.insert((r.lo.x, r.hi.x), vout.len());
                vout.push(r);
            }
            *rects = vout;
            if !merged {
                break;
            }
        }
    }

    /// The disjoint rectangles making up this set.
    #[inline]
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Shared linear band of two sets, if any (see [`linear_band`]).
    fn common_band(&self, other: &IndexSpace) -> Option<Band> {
        match (linear_band(&self.rects), linear_band(&other.rects)) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Number of points in the set.
    pub fn volume(&self) -> u64 {
        self.rects.iter().map(Rect::volume).sum()
    }

    /// The bounding rectangle (empty rect if the set is empty).
    pub fn bbox(&self) -> Rect {
        self.rects
            .iter()
            .fold(Rect::EMPTY, |acc, r| acc.union_bbox(r))
    }

    pub fn contains_point(&self, p: Point) -> bool {
        self.rects.iter().any(|r| r.contains_point(p))
    }

    /// `self ∩ other ≠ ∅`, with a bounding-box early exit: this is the
    /// single hottest predicate in the dependence analysis.
    pub fn overlaps(&self, other: &IndexSpace) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if !self.bbox().overlaps(&other.bbox()) {
            return false;
        }
        if self.common_band(other).is_some() {
            return runs_overlap(&self.rects, &other.rects);
        }
        for a in self.rects.iter() {
            for b in other.rects.iter() {
                if a.overlaps(b) {
                    return true;
                }
            }
        }
        false
    }

    /// `X/Y`: the subset of `self` sharing points with `other`.
    pub fn intersect(&self, other: &IndexSpace) -> IndexSpace {
        if self.is_empty() || other.is_empty() || !self.bbox().overlaps(&other.bbox()) {
            return IndexSpace::empty();
        }
        if self.common_band(other).is_some() {
            let mut kernel = SplitRuns::default();
            return Self::frozen(kernel.split(&self.rects, &other.rects).0);
        }
        let mut rects = Vec::new();
        for a in self.rects.iter() {
            for b in other.rects.iter() {
                let i = a.intersect(b);
                if !i.is_empty() {
                    rects.push(i);
                }
            }
        }
        // Pairwise intersections of two disjoint families are disjoint.
        Self::normalize(&mut rects);
        Self::frozen(rects)
    }

    /// `X\Y`: the subset of `self` not sharing points with `other`.
    pub fn subtract(&self, other: &IndexSpace) -> IndexSpace {
        if self.is_empty() {
            return IndexSpace::empty();
        }
        if other.is_empty() || !self.bbox().overlaps(&other.bbox()) {
            return self.clone();
        }
        if self.common_band(other).is_some() {
            let mut kernel = SplitRuns::default();
            return Self::frozen(kernel.split(&self.rects, &other.rects).1);
        }
        let mut pending: Vec<Rect> = self.rects.to_vec();
        for b in other.rects.iter() {
            if pending.is_empty() {
                break;
            }
            let mut next = Vec::with_capacity(pending.len());
            for a in pending {
                if a.overlaps(b) {
                    next.extend(a.subtract(b));
                } else {
                    next.push(a);
                }
            }
            pending = next;
        }
        Self::normalize(&mut pending);
        Self::frozen(pending)
    }

    /// `X ∪ Y` as point sets.
    pub fn union(&self, other: &IndexSpace) -> IndexSpace {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        if self.common_band(other).is_some() {
            let mut kernel = MergeRuns::default();
            return Self::frozen(kernel.union_all(&self.rects, [&other.rects[..]]));
        }
        let mut rects = self.rects.to_vec();
        for r in other.rects.iter() {
            Self::add_rect(&mut rects, *r);
        }
        Self::normalize(&mut rects);
        Self::frozen(rects)
    }

    /// `(self ∩ target, self \ target)`: both halves of a refinement,
    /// structurally what [`intersect`](Self::intersect) and
    /// [`subtract`](Self::subtract) return. Operands sharing a linear band
    /// are swept once for both run lists.
    pub fn split(&self, target: &IndexSpace) -> (IndexSpace, IndexSpace) {
        if self.is_empty() {
            return (IndexSpace::empty(), IndexSpace::empty());
        }
        if target.is_empty() || !self.bbox().overlaps(&target.bbox()) {
            return (IndexSpace::empty(), self.clone());
        }
        if self.common_band(target).is_none() {
            return (self.intersect(target), self.subtract(target));
        }
        let mut kernel = SplitRuns::default();
        let (inside, outside) = kernel.split(&self.rects, &target.rects);
        (Self::frozen(inside), Self::frozen(outside))
    }

    /// Does `self` contain every point of `other`?
    pub fn contains(&self, other: &IndexSpace) -> bool {
        if other.is_empty() {
            return true;
        }
        if !self.bbox().contains_rect(&other.bbox()) {
            // Some point of `other` lies outside our bounding box.
            return false;
        }
        if self.common_band(other).is_some() {
            // Our runs are coalesced, so a run of `other` is covered only by
            // lying inside a single one of them.
            debug_assert!(sorted_coalesced(&self.rects));
            let mut i = 0;
            for b in other.rects.iter() {
                while i < self.rects.len() && self.rects[i].hi.x < b.hi.x {
                    i += 1;
                }
                if self.rects.get(i).is_none_or(|a| a.lo.x > b.lo.x) {
                    return false;
                }
            }
            return true;
        }
        other.subtract(self).is_empty()
    }

    /// Set equality (independent of rectangle decomposition).
    pub fn same_points(&self, other: &IndexSpace) -> bool {
        self.volume() == other.volume() && self.contains(other)
    }

    /// Iterate all points in row-major order of the rectangle list.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.rects.iter().flat_map(|r| r.points())
    }

    /// Number of rectangles (a fragmentation measure used by the
    /// instrumentation counters and the cost model).
    #[inline]
    pub fn rect_count(&self) -> usize {
        self.rects.len()
    }
}

// The band kernels. Each works on the rect slices of sets sharing one
// linear band — sorted, disjoint, coalesced runs — and is the only copy of
// its loop: `IndexSpace`'s band arms call them, and so does `SpaceAlgebra`,
// which knows each interned space's band and so skips the re-derivation.

/// A `y` range `(lo, hi)` every rect of a set spans.
pub(crate) type Band = (i64, i64);

/// If every rectangle spans the same single `y` band, return it: the set
/// is effectively one-dimensional and the set operations can run as linear
/// interval sweeps instead of pairwise rectangle tests. All 1-D element-id
/// spaces (graphs, meshes) hit this path.
pub(crate) fn linear_band(rects: &[Rect]) -> Option<Band> {
    let first = rects.first()?;
    let band = (first.lo.y, first.hi.y);
    rects
        .iter()
        .all(|r| (r.lo.y, r.hi.y) == band)
        .then_some(band)
}

/// Are `runs` sorted by `x` and coalesced: no two overlapping or adjacent?
/// What every band kernel assumes of its operands (overflow-safe at
/// `i64::MAX`).
pub(crate) fn sorted_coalesced(runs: &[Rect]) -> bool {
    runs.windows(2)
        .all(|w| w[0].hi.x.saturating_add(1) < w[1].lo.x)
}

/// Do two run lists of one band share a point? A one-run operand, in either
/// order, is a binary search for the first run of the other that does not
/// end before it; otherwise a walk that exits at the first shared point.
pub(crate) fn runs_overlap(ours: &[Rect], theirs: &[Rect]) -> bool {
    debug_assert!(
        sorted_coalesced(ours) && sorted_coalesced(theirs),
        "runs unsorted or not coalesced"
    );
    if let ([r], runs) | (runs, [r]) = (ours, theirs) {
        let i = runs.partition_point(|b| b.hi.x < r.lo.x);
        return runs.get(i).is_some_and(|b| b.lo.x <= r.hi.x);
    }
    let (mut i, mut j) = (0, 0);
    while i < ours.len() && j < theirs.len() {
        let (a, b) = (&ours[i], &theirs[j]);
        if a.hi.x < b.lo.x {
            i += 1;
        } else if b.hi.x < a.lo.x {
            j += 1;
        } else {
            return true;
        }
    }
    false
}

/// The band merge kernel and its two buffers: the union of the sorted,
/// coalesced runs of one band, one branch-free walk per operand pair, folded
/// left over a list of such operands. `IndexSpace::union`'s band arm calls it
/// with fresh buffers; `SpaceAlgebra` keeps one and reuses its buffers
/// across `union_all` misses.
///
/// The walk holds the current output run. Each step takes whichever
/// operand's next run starts first, writes the current run to the next free
/// slot, and keeps it by bumping the count when the taken run starts past
/// its end plus one; otherwise the taken run extends it. Both are written
/// as selects, not jumps. The end-plus-one saturates, so a run ending at `i64::MAX`
/// absorbs every run after it instead of wrapping.
///
/// The buffers are never shrunk and grow to `ours.len() + theirs.len()`
/// runs, more than the union can hold, so a step never checks for room and
/// entries past the count are stale.
#[derive(Default)]
pub(crate) struct MergeRuns {
    acc: Vec<Rect>,
    next: Vec<Rect>,
}

impl MergeRuns {
    /// The left fold `((first ∪ rest₀) ∪ rest₁) ∪ …` as a run list, borrowed
    /// from the buffers until the next fold: the first merge reads both
    /// operands in place, each later one the previous result.
    pub(crate) fn union_all<'a>(
        &mut self,
        first: &[Rect],
        rest: impl IntoIterator<Item = &'a [Rect]>,
    ) -> &[Rect] {
        let mut rest = rest.into_iter();
        let mut n = merge_runs(first, rest.next().unwrap_or_default(), &mut self.acc);
        for runs in rest {
            n = merge_runs(&self.acc[..n], runs, &mut self.next);
            std::mem::swap(&mut self.acc, &mut self.next);
        }
        &self.acc[..n]
    }
}

/// Write the runs of `ours ∪ theirs` to the front of `out`, grown to room
/// for both operands, and return how many there are.
fn merge_runs(ours: &[Rect], theirs: &[Rect], out: &mut Vec<Rect>) -> usize {
    debug_assert!(
        sorted_coalesced(ours) && sorted_coalesced(theirs),
        "runs unsorted or not coalesced"
    );
    let room = ours.len() + theirs.len();
    if out.len() < room {
        out.resize(room, Rect::EMPTY);
    }
    let out = &mut out[..room];
    let (Some(a), Some(b)) = (ours.first(), theirs.first()) else {
        let runs = if ours.is_empty() { theirs } else { ours };
        out[..runs.len()].copy_from_slice(runs);
        return runs.len();
    };
    let a_first = a.lo.x <= b.lo.x;
    let mut cur = if a_first { *a } else { *b };
    let (mut i, mut j, mut n) = (a_first as usize, !a_first as usize, 0);
    let mut step = |r: Rect| {
        let joins = r.lo.x <= cur.hi.x.saturating_add(1);
        out[n] = cur;
        n += !joins as usize;
        cur.lo.x = if joins { cur.lo.x } else { r.lo.x };
        cur.hi.x = if joins { cur.hi.x.max(r.hi.x) } else { r.hi.x };
    };
    while i < ours.len() && j < theirs.len() {
        let (a, b) = (ours[i], theirs[j]);
        let a_first = a.lo.x <= b.lo.x;
        step(if a_first { a } else { b });
        i += a_first as usize;
        j += !a_first as usize;
    }
    // One operand is used up; the other's rest may still join the current
    // run.
    for r in ours[i..].iter().chain(&theirs[j..]) {
        step(*r);
    }
    out[n] = cur;
    n + 1
}

/// The band split kernel and its two output buffers: `(ours ∩ theirs, ours
/// \ theirs)` for the sorted, coalesced runs of one band, in one
/// branch-free walk. `intersect`, `subtract` and `split` all call it;
/// `SpaceAlgebra` keeps one and reuses its buffers across misses.
///
/// Each step looks at one run `a` of ours and one run `b` of theirs and
/// writes both candidate pieces of `a` — the gap before `b` and the part `b`
/// covers — to the next free slot of its buffer, keeping each by bumping
/// that buffer's count when the piece is non-empty. It then consumes
/// whichever run ends first (`b` on a tie: ours' next run starts past it).
/// Where the unconsumed part of `a` starts follows from the indices alone:
/// a consumed run of theirs ended inside `a`. No output piece can be
/// adjacent to the one before it, since both inputs are coalesced, so
/// nothing is merged. The data-dependent choices are selects, not jumps: on
/// a stream of distinct pairs a branchy walk mispredicts nearly every
/// piece.
///
/// The buffers are never shrunk and grow to `ours.len() + theirs.len()`
/// runs, more than either half can hold (each step writes at most one piece
/// of each, and each step consumes a run), so a step never checks for room
/// and entries past a half's count are stale.
#[derive(Default)]
pub(crate) struct SplitRuns {
    inside: Vec<Rect>,
    outside: Vec<Rect>,
}

impl SplitRuns {
    /// `(ours ∩ theirs, ours \ theirs)` as run lists, borrowed from the
    /// buffers until the next split.
    pub(crate) fn split(&mut self, ours: &[Rect], theirs: &[Rect]) -> (&[Rect], &[Rect]) {
        let (Some(first), Some(last)) = (ours.first(), ours.last()) else {
            return (&[], &[]);
        };
        // Only the runs of theirs that meet ours' extent can cut it.
        let theirs = &theirs[..theirs.partition_point(|b| b.lo.x <= last.hi.x)];
        let theirs = &theirs[theirs.partition_point(|b| b.hi.x < first.lo.x)..];
        let room = ours.len() + theirs.len();
        if self.inside.len() < room {
            self.inside.resize(room, Rect::EMPTY);
            self.outside.resize(room, Rect::EMPTY);
        }
        let (inside, outside) = (&mut self.inside[..room], &mut self.outside[..room]);
        let (mut i, mut j, mut n_in, mut n_out) = (0, 0, 0, 0);
        // One past the last consumed run of theirs.
        let mut from = i64::MIN;
        while i < ours.len() && j < theirs.len() {
            let (a, b) = (ours[i], theirs[j]);
            // `cur <= a.hi.x` always, so the gap is empty iff `b` starts at
            // or before `cur` (when the wrapped `b.lo.x - 1` is not read).
            let cur = a.lo.x.max(from);
            let gap = a.hi.x.min(b.lo.x.wrapping_sub(1));
            outside[n_out] = run_of(a, cur, gap);
            n_out += (cur < b.lo.x) as usize;
            let (lo, hi) = (cur.max(b.lo.x), a.hi.x.min(b.hi.x));
            inside[n_in] = run_of(a, lo, hi);
            n_in += (lo <= hi) as usize;
            let b_first = b.hi.x < a.hi.x;
            from = if b_first { b.hi.x + 1 } else { from };
            j += b_first as usize;
            i += !b_first as usize;
        }
        // Theirs is used up: the rest of ours is outside.
        if let Some((a, rest)) = ours[i..].split_first() {
            outside[n_out] = run_of(*a, a.lo.x.max(from), a.hi.x);
            outside[n_out + 1..][..rest.len()].copy_from_slice(rest);
            n_out += 1 + rest.len();
        }
        (&inside[..n_in], &outside[..n_out])
    }
}

/// The piece `[lo, hi]` of run `a` (empty when `lo > hi`).
#[inline(always)]
fn run_of(a: Rect, lo: i64, hi: i64) -> Rect {
    Rect::xy(lo, hi, a.lo.y, a.hi.y)
}

impl fmt::Debug for IndexSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.rects.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{r:?}")?;
        }
        write!(f, "}}")
    }
}

impl From<Rect> for IndexSpace {
    fn from(r: Rect) -> Self {
        IndexSpace::from_rect(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(lo: i64, hi: i64) -> IndexSpace {
        IndexSpace::span(lo, hi)
    }

    #[test]
    fn empty_space() {
        let e = IndexSpace::empty();
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0);
        assert!(e.bbox().is_empty());
        assert!(sp(0, 5).contains(&e));
        assert!(e.contains(&e));
    }

    #[test]
    fn from_overlapping_rects_dedups() {
        let s = IndexSpace::from_rects([Rect::span(0, 10), Rect::span(5, 15)]);
        assert_eq!(s.volume(), 16);
        assert_eq!(s.rect_count(), 1, "adjacent spans coalesce: {s:?}");
    }

    #[test]
    fn from_points_builds_runs() {
        let s = IndexSpace::from_points([1, 2, 3, 7, 8, 20].map(Point::p1));
        assert_eq!(s.volume(), 6);
        assert_eq!(s.rect_count(), 3);
        assert!(s.contains_point(Point::p1(2)));
        assert!(!s.contains_point(Point::p1(4)));
    }

    #[test]
    fn intersect_subtract_partition_the_set() {
        let a = IndexSpace::from_rect(Rect::xy(0, 9, 0, 9));
        let b = IndexSpace::from_rect(Rect::xy(5, 14, 5, 14));
        let i = a.intersect(&b);
        let d = a.subtract(&b);
        assert_eq!(i.volume() + d.volume(), a.volume());
        assert!(!i.overlaps(&d));
        assert!(a.contains(&i) && a.contains(&d));
        assert!(i.union(&d).same_points(&a));
    }

    #[test]
    fn union_is_idempotent_and_commutative() {
        let a = IndexSpace::from_rects([Rect::span(0, 4), Rect::span(10, 14)]);
        let b = IndexSpace::from_rects([Rect::span(3, 11)]);
        let u1 = a.union(&b);
        let u2 = b.union(&a);
        assert!(u1.same_points(&u2));
        assert!(u1.union(&a).same_points(&u1));
        assert_eq!(u1.volume(), 15);
        assert_eq!(u1.rect_count(), 1);
    }

    #[test]
    fn subtract_self_is_empty() {
        let a = IndexSpace::from_rect(Rect::xy(3, 9, 2, 4));
        assert!(a.subtract(&a).is_empty());
    }

    #[test]
    fn two_dimensional_coalescing() {
        // Four quadrant tiles reassemble to one rect.
        let s = IndexSpace::from_rects([
            Rect::xy(0, 4, 0, 4),
            Rect::xy(5, 9, 0, 4),
            Rect::xy(0, 4, 5, 9),
            Rect::xy(5, 9, 5, 9),
        ]);
        assert_eq!(s.volume(), 100);
        assert_eq!(s.rect_count(), 1, "{s:?}");
    }

    #[test]
    fn contains_rejects_partial_overlap() {
        let a = sp(0, 10);
        let b = sp(5, 15);
        assert!(!a.contains(&b));
        assert!(!b.contains(&a));
        assert!(a.contains(&sp(2, 8)));
    }

    #[test]
    fn contains_sweeps_runs_across_a_gap() {
        let gap = IndexSpace::from_rects([Rect::span(0, 4), Rect::span(6, 9)]);
        assert!(!gap.contains(&sp(3, 6)));
        assert!(gap.contains(&IndexSpace::from_rects([
            Rect::span(1, 2),
            Rect::span(7, 9)
        ])));
    }

    #[test]
    fn same_points_ignores_decomposition() {
        let a = IndexSpace::from_rects([Rect::span(0, 3), Rect::span(4, 9)]);
        let b = sp(0, 9);
        assert!(a.same_points(&b));
        assert_eq!(a, b, "normalization should coalesce to identical form");
    }

    #[test]
    fn points_iteration_matches_volume() {
        let s = IndexSpace::from_rects([Rect::xy(0, 2, 0, 1), Rect::span(10, 12)]);
        assert_eq!(s.points().count() as u64, s.volume());
        for p in s.points() {
            assert!(s.contains_point(p));
        }
    }

    #[test]
    fn overlaps_early_exit_correct() {
        let a = sp(0, 4);
        let b = sp(100, 104);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&sp(4, 8)));
    }

    /// The old `normalize` re-sorted on every fixpoint iteration and ran an
    /// O(n²) pair scan for vertical merges. This is the reference
    /// implementation; the rewritten single-sort + linear-merge pass must
    /// produce bit-identical rectangle lists.
    fn normalize_oracle(mut rects: Vec<Rect>) -> Vec<Rect> {
        if rects.len() <= 1 {
            return rects;
        }
        loop {
            rects.sort_unstable_by_key(|r| (r.lo, r.hi));
            let mut merged = false;
            let mut out: Vec<Rect> = Vec::with_capacity(rects.len());
            for r in rects.drain(..) {
                if let Some(last) = out.last_mut() {
                    if last.lo.y == r.lo.y && last.hi.y == r.hi.y && last.hi.x + 1 == r.lo.x {
                        last.hi.x = r.hi.x;
                        merged = true;
                        continue;
                    }
                }
                out.push(r);
            }
            let mut i = 0;
            while i < out.len() {
                let mut j = i + 1;
                while j < out.len() {
                    let (a, b) = (out[i], out[j]);
                    if a.lo.x == b.lo.x && a.hi.x == b.hi.x && a.hi.y + 1 == b.lo.y {
                        out[i].hi.y = b.hi.y;
                        out.remove(j);
                        merged = true;
                    } else {
                        j += 1;
                    }
                }
                i += 1;
            }
            rects = out;
            if !merged {
                break;
            }
        }
        rects
    }

    #[test]
    fn normalize_matches_quadratic_oracle() {
        // Random tilings: build via the public API (new normalize), then
        // re-normalize the raw disjoint rect list with the old algorithm.
        let mut state = 0xfeed_beefu64;
        let mut rnd = move |m: i64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64).rem_euclid(m)
        };
        for _ in 0..200 {
            let mut raw = Vec::new();
            for _ in 0..12 {
                let x = rnd(40);
                let y = rnd(40);
                raw.push(Rect::xy(x, x + rnd(12), y, y + rnd(12)));
            }
            // Replay from_rects by hand so the oracle sees the same raw
            // disjoint list the new normalize sees.
            let mut rects = Vec::new();
            for r in &raw {
                IndexSpace::add_rect(&mut rects, *r);
            }
            let expect = normalize_oracle(rects.clone());
            IndexSpace::normalize(&mut rects);
            assert_eq!(rects, expect, "normalize diverged from oracle on {raw:?}");
            let s = IndexSpace::frozen(rects);
            let direct = IndexSpace::from_points(raw.iter().flat_map(|r| r.points()));
            assert_eq!(s.volume(), direct.volume());
            assert!(s.same_points(&direct));
        }
    }

    #[test]
    fn normalize_worst_case_is_not_quadratic() {
        // 100k isolated points in one row: nothing coalesces, so the old
        // vertical pass compared ~5·10⁹ rect pairs (minutes in debug); the
        // linear pass finishes instantly.
        let n: i64 = 100_000;
        let start = std::time::Instant::now();
        let s = IndexSpace::from_points((0..n).map(|i| Point::p1(i * 2)));
        assert_eq!(s.rect_count(), n as usize);
        assert_eq!(s.volume(), n as u64);
        // Sparse columns stacked with gaps: vertical merging still works.
        let cols = IndexSpace::from_points(
            (0..1000i64).flat_map(|c| [Point::new(c * 2, 0), Point::new(c * 2, 1)]),
        );
        assert_eq!(cols.rect_count(), 1000, "column pairs must merge: {cols:?}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "normalize worst case regressed to quadratic"
        );
    }

    /// A run of the cutting set may start at `i64::MIN`: the kernel never
    /// reads the wrapped coordinate before it.
    #[test]
    fn band_split_at_the_lowest_coordinate() {
        let m = i64::MIN;
        let ours = IndexSpace::from_rects([Rect::span(m, m + 4), Rect::span(m + 8, m + 9)]);
        let theirs = IndexSpace::from_rects([Rect::span(m, m + 1), Rect::span(m + 3, m + 8)]);
        let (inside, outside) = ours.split(&theirs);
        let runs =
            |s: &[(i64, i64)]| IndexSpace::from_rects(s.iter().map(|&(lo, hi)| Rect::span(lo, hi)));
        assert_eq!(inside, runs(&[(m, m + 1), (m + 3, m + 4), (m + 8, m + 8)]));
        assert_eq!(outside, runs(&[(m + 2, m + 2), (m + 9, m + 9)]));
    }

    /// A run may end at `i64::MAX`: the merge's adjacency test saturates
    /// instead of wrapping, so the runs after it are absorbed, not kept
    /// beside it. Both union paths run the one kernel.
    #[test]
    fn band_union_at_the_highest_coordinate() {
        let m = i64::MAX;
        let whole = sp(0, m);
        let runs = IndexSpace::from_rects([Rect::span(10, 12), Rect::span(20, 22)]);
        assert_eq!(whole.union(&runs), whole);
        assert_eq!(runs.union(&whole), whole);
        let tail = IndexSpace::from_rects([Rect::span(m - 9, m - 5), Rect::span(m - 2, m)]);
        let near = IndexSpace::from_rects([Rect::span(m - 4, m - 3), Rect::span(m, m)]);
        assert_eq!(tail.union(&near), sp(m - 9, m));
        let mut alg = crate::SpaceAlgebra::default();
        let ids = [&whole, &runs, &near].map(|s| alg.intern(s));
        let folded = alg.union_all(&ids);
        assert_eq!(alg.space(folded), &whole);
    }

    #[test]
    fn ghost_halo_shape() {
        // The classic stencil halo: a tile's ghost ring.
        let tile = Rect::xy(10, 19, 10, 19);
        let grown = Rect::xy(8, 21, 8, 21);
        let halo = IndexSpace::from_rect(grown).subtract(&IndexSpace::from_rect(tile));
        assert_eq!(halo.volume(), grown.volume() - tile.volume());
        assert!(!halo.overlaps(&IndexSpace::from_rect(tile)));
    }
}

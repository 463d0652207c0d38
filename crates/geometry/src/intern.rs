//! Hash-consed index spaces and memoized set algebra.
//!
//! Every visibility scan bottoms out in [`IndexSpace`] set algebra, and the
//! same handful of domains (partition pieces, ghost halos, equivalence-set
//! domains) meet each other over and over: a stencil that launches the same
//! tiles every timestep recomputes the same intersections millions of times.
//! Legion survives at scale by interning index spaces and caching their
//! pairwise algebra; this module is that layer.
//!
//! * [`SpaceInterner`] stores each distinct (structurally normalized) space
//!   once, content-addressed with the [`crate::hash`] machinery. A
//!   [`SpaceId`] is a handle; id equality is structural space equality.
//!   It is the one place that knows a space's shape: beside each space it
//!   records the bounding box and whether the space is empty, one rect, one
//!   `y` band of runs (`SpaceInterner::band`) or a 2-D set, all found once,
//!   when the space is first interned.
//! * [`SpaceAlgebra`] adds a memo table `(op, lhs, rhs) → result` keyed on
//!   interned ids behind the operation API the engines use, trying cheap
//!   structural fast paths (identical ids, empty operands, bounding-box
//!   disjointness, single-rect pairs, contained-bbox dominance) before
//!   consulting the memo, and only then falling back to the rectangle sweep.
//!   A refinement asks for both halves of a set at once
//!   ([`SpaceAlgebra::split`]): one sweep and one memo entry per cold pair,
//!   with containment read off an empty outside half.
//!
//! **A cold band pair costs its sweep.** When the operands of a `split`,
//! `overlaps` or `union_all` miss share one band (every 1-D graph / mesh
//! space), the miss runs `index_space`'s run kernel straight on the
//! interned slices: no operand's bbox or band is re-derived, and a result is
//! interned by freezing one copy of the kernel's output, its bbox and shape
//! read off its ends (`intern_runs`). A `split` miss runs the branch-free
//! split kernel (`SplitRuns`) and a `union_all` miss the branch-free merge
//! kernel (`MergeRuns`), each in buffers the algebra keeps. An `overlaps`
//! with a one-run operand is a binary search. The content hash runs four
//! independent lanes, one per coordinate.
//! [`SpaceAlgebra::overlaps_unmemoized`] asks the same question as
//! `overlaps` through `&self`, recording nothing: the region forest's
//! anchor check, whose answers its caller memoizes.
//!
//! **A read of a whole target folds nothing.** A requirement's constituent
//! sets tile its target, so a plan fold over all of them from one source is
//! the target. [`SpaceAlgebra::union_all_covering`] answers such a fold on a
//! band with the target's own id, without a merge.
//!
//! **Memo lifetime = operand lifetime.** An entry exists only for a pair of
//! interned ids and dies when the interner does; nothing is evicted. A
//! capacity would bound nothing that matters — every `Space` result an
//! eviction forgets stays in the interner (KBs per space), so evicting saves
//! a 24-byte key and pays a full sweep to recompute an id the interner still
//! holds — and a loop-shaped working set one entry larger than the capacity
//! is the LRU worst case: every lookup misses.
//!
//! **Structural fidelity invariant:** analysis results are compared with
//! structural (`PartialEq`, rect-list) equality, so every fast path and
//! every cached entry must return a space *structurally identical* to what
//! the direct sweep would produce — not merely the same point set. Each fast
//! path below documents why it is faithful; the property tests in
//! `tests/prop_interned_algebra.rs` check this over random rect sets, and
//! the engine differential tests check it end to end. With
//! [`InternConfig::enabled`] off, every operation takes the direct sweep, so
//! the two modes must (and do) agree byte for byte.

use crate::hash::{fx_add, FxHashMap};
use crate::index_space::{
    linear_band, runs_overlap, sorted_coalesced, Band, IndexSpace, MergeRuns, SplitRuns,
};
use crate::rect::Rect;
use std::collections::hash_map::Entry;

/// Handle to an interned [`IndexSpace`]. Two ids are equal iff the spaces
/// are structurally equal (same normalized rect list).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SpaceId(u32);

impl SpaceId {
    /// The empty set, pre-interned in every interner.
    pub const EMPTY: SpaceId = SpaceId(0);

    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Configuration for the interning/memoization layer. Enabled by default;
/// [`InternConfig::disabled`] is the direct-sweep reference the
/// differential tests compare against.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct InternConfig {
    /// When false, every operation runs the direct rectangle sweep:
    /// interning still provides shared storage, but no fast path and no
    /// memoized result is ever used.
    pub enabled: bool,
}

impl Default for InternConfig {
    fn default() -> Self {
        InternConfig { enabled: true }
    }
}

impl InternConfig {
    pub fn disabled() -> Self {
        InternConfig { enabled: false }
    }
}

/// Running counters of the interning/memoization layer, exported through
/// viz-profile by the engines.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AlgebraStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that fell through to the rectangle sweep.
    pub misses: u64,
    /// Operations answered by a structural fast path (no sweep, no memo).
    pub fast_hits: u64,
    /// Distinct spaces currently interned.
    pub interned: usize,
    /// Entries currently memoized.
    pub cache_entries: usize,
}

impl AlgebraStats {
    /// Counter delta since `prev` (sizes are reported as-is, not diffed).
    pub fn delta_since(&self, prev: &AlgebraStats) -> AlgebraStats {
        AlgebraStats {
            hits: self.hits - prev.hits,
            misses: self.misses - prev.misses,
            fast_hits: self.fast_hits - prev.fast_hits,
            interned: self.interned,
            cache_entries: self.cache_entries,
        }
    }
}

struct InternedSpace {
    space: IndexSpace,
    /// Cached bounding box (the disjointness fast paths hit this on every
    /// call; recomputing it is a full rect-list fold).
    bbox: Rect,
    /// How many rects the space has and whether they share one band, as
    /// far as the fast paths and the band kernels care — so they read this
    /// table only, never the shared rect storage.
    shape: Shape,
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum Shape {
    Empty,
    /// Exactly one rect: `bbox` is that rect.
    Single,
    /// Two or more runs, all spanning one `y` band: `bbox`'s `y` range.
    Band,
    /// Rects in more than one `y` band.
    Multi,
}

impl InternedSpace {
    fn new(space: IndexSpace) -> Self {
        let shape = match space.rects() {
            [] => Shape::Empty,
            [_] => Shape::Single,
            rects if linear_band(rects).is_some() => Shape::Band,
            _ => Shape::Multi,
        };
        Self::with_shape(space, shape)
    }

    /// The cached bbox for a known shape: one rect, or a band's first and
    /// last runs (sorted by `x`), give it; only a 2-D set folds its rects.
    fn with_shape(space: IndexSpace, shape: Shape) -> Self {
        let rects = space.rects();
        let bbox = match shape {
            Shape::Single | Shape::Band => {
                let (first, last) = (rects[0], rects[rects.len() - 1]);
                Rect::xy(first.lo.x, last.hi.x, first.lo.y, first.hi.y)
            }
            Shape::Empty | Shape::Multi => space.bbox(),
        };
        InternedSpace { space, bbox, shape }
    }
}

/// Content-addressed store of normalized index spaces.
///
/// Structurally identical spaces share one slot, so equality of interned
/// spaces is id (pointer) equality and the per-space metadata (bounding box,
/// shape) is computed once.
pub struct SpaceInterner {
    spaces: Vec<InternedSpace>,
    /// content hash → candidate slots (collisions resolved structurally).
    by_hash: FxHashMap<u64, Vec<u32>>,
}

impl Default for SpaceInterner {
    fn default() -> Self {
        let mut i = SpaceInterner {
            spaces: Vec::new(),
            by_hash: FxHashMap::default(),
        };
        let id = i.intern(&IndexSpace::empty());
        debug_assert_eq!(id, SpaceId::EMPTY);
        i
    }
}

/// The interner's one content hash, whichever way a space arrives
/// (`intern`, `intern_rect`, `intern_runs`): four independent Fx lanes, one
/// per coordinate, so a long run list's multiply chains overlap instead of
/// queuing behind one another, folded with the length at the end.
fn content_hash(rects: &[Rect]) -> u64 {
    let mut lanes = [0u64; 4];
    for r in rects {
        lanes[0] = fx_add(lanes[0], r.lo.x as u64);
        lanes[1] = fx_add(lanes[1], r.lo.y as u64);
        lanes[2] = fx_add(lanes[2], r.hi.x as u64);
        lanes[3] = fx_add(lanes[3], r.hi.y as u64);
    }
    lanes.into_iter().fold(rects.len() as u64, fx_add)
}

impl SpaceInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct spaces stored.
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spaces.is_empty()
    }

    /// Intern a space. First sight stores a handle to the caller's rect
    /// storage ([`IndexSpace`] is reference-counted), not a copy.
    pub fn intern(&mut self, space: &IndexSpace) -> SpaceId {
        self.intern_with(space.rects(), || InternedSpace::new(space.clone()))
    }

    /// Intern the one-rect space `{r}` (the empty space for an empty `r`):
    /// the same id `intern(&IndexSpace::from_rect(r))` gives, in either
    /// call order, without building the space unless it is new.
    pub fn intern_rect(&mut self, r: Rect) -> SpaceId {
        if r.is_empty() {
            return SpaceId::EMPTY;
        }
        self.intern_with(&[r], || InternedSpace::new(IndexSpace::from_rect(r)))
    }

    /// Intern the output of a band kernel — sorted, coalesced runs of one
    /// band — as `intern` would the space they make: the same id. A new
    /// space freezes one copy of `runs` and reads its bbox and shape off the
    /// ends.
    fn intern_runs(&mut self, runs: &[Rect]) -> SpaceId {
        debug_assert!(
            runs.is_empty() || linear_band(runs).is_some(),
            "not one band"
        );
        debug_assert!(sorted_coalesced(runs), "runs unsorted or not coalesced");
        // No runs hash to the empty space's slot, so a new space has some.
        let shape = if runs.len() == 1 {
            Shape::Single
        } else {
            Shape::Band
        };
        match self.find(runs) {
            Ok(id) => id,
            Err(hash) => {
                let space = InternedSpace::with_shape(IndexSpace::frozen(runs), shape);
                self.insert(hash, space)
            }
        }
    }

    /// The slot holding `rects`, stored from `make()` on first sight.
    fn intern_with(&mut self, rects: &[Rect], make: impl FnOnce() -> InternedSpace) -> SpaceId {
        self.find(rects)
            .unwrap_or_else(|hash| self.insert(hash, make()))
    }

    /// The slot holding `rects`, or the content hash a new slot for them
    /// goes under.
    fn find(&self, rects: &[Rect]) -> Result<SpaceId, u64> {
        let hash = content_hash(rects);
        for &slot in self.by_hash.get(&hash).into_iter().flatten() {
            let stored = self.spaces[slot as usize].space.rects();
            // Re-interning a handle the interner already shares storage
            // with is the common case: same pointer, no rect compare.
            if std::ptr::eq(stored, rects) || stored == rects {
                return Ok(SpaceId(slot));
            }
        }
        Err(hash)
    }

    fn insert(&mut self, hash: u64, space: InternedSpace) -> SpaceId {
        let slot = self.spaces.len() as u32;
        self.by_hash.entry(hash).or_default().push(slot);
        self.spaces.push(space);
        SpaceId(slot)
    }

    /// Resolve an id.
    #[inline]
    pub fn get(&self, id: SpaceId) -> &IndexSpace {
        &self.spaces[id.0 as usize].space
    }

    /// Cached bounding box of an interned space.
    #[inline]
    pub fn bbox(&self, id: SpaceId) -> Rect {
        self.spaces[id.0 as usize].bbox
    }

    #[inline]
    fn is_empty_space(&self, id: SpaceId) -> bool {
        self.spaces[id.0 as usize].shape == Shape::Empty
    }

    /// Single-rect view of an interned space, if it has exactly one rect.
    #[inline]
    fn single_rect(&self, id: SpaceId) -> Option<Rect> {
        let s = &self.spaces[id.0 as usize];
        (s.shape == Shape::Single).then_some(s.bbox)
    }

    /// The `y` range `(lo, hi)` every rect of an interned space spans, if
    /// one does (a one-rect space is a band; the empty space is none).
    #[inline]
    pub(crate) fn band(&self, id: SpaceId) -> Option<Band> {
        let s = &self.spaces[id.0 as usize];
        matches!(s.shape, Shape::Single | Shape::Band).then_some((s.bbox.lo.y, s.bbox.hi.y))
    }

    /// The band two interned spaces share, if any.
    #[inline]
    fn common_band(&self, a: SpaceId, b: SpaceId) -> Option<Band> {
        self.band(a).filter(|band| self.band(b) == Some(*band))
    }

    /// `overlaps`'s structural fast paths on the cached shapes and boxes:
    /// the answer, or `None` when only a sweep can tell.
    fn overlaps_fast(&self, a: SpaceId, b: SpaceId) -> Option<bool> {
        if self.is_empty_space(a) || self.is_empty_space(b) {
            return Some(false);
        }
        if a == b {
            return Some(true);
        }
        let (ba, bb) = (self.bbox(a), self.bbox(b));
        if !ba.overlaps(&bb) {
            return Some(false);
        }
        match (self.single_rect(a), self.single_rect(b)) {
            (Some(ra), Some(rb)) => Some(ra.overlaps(&rb)),
            (_, Some(rb)) if rb.contains_rect(&ba) => Some(true),
            (Some(ra), _) if ra.contains_rect(&bb) => Some(true),
            _ => None,
        }
    }

    /// The sweep behind `overlaps`: the run kernel on a shared band, else
    /// the 2-D test.
    fn sweep_overlaps(&self, a: SpaceId, b: SpaceId) -> bool {
        let (sa, sb) = (self.get(a), self.get(b));
        match self.common_band(a, b) {
            Some(_) => runs_overlap(sa.rects(), sb.rects()),
            None => sa.overlaps(sb),
        }
    }
}

/// Cached operation kinds. `Contains` is `lhs ⊇ rhs`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AlgebraOp {
    Intersect,
    Subtract,
    Union,
    Overlaps,
    Contains,
}

type PairKey = (AlgebraOp, SpaceId, SpaceId);

/// The engines' view of the layer: an interner plus a memo table plus the
/// structural fast paths, behind the same operation vocabulary as
/// [`IndexSpace`] itself.
pub struct SpaceAlgebra {
    interner: SpaceInterner,
    /// Pairwise results, never evicted (see the module docs): one table
    /// per result type keeps an entry at 16 bytes.
    spaces: FxHashMap<PairKey, SpaceId>,
    flags: FxHashMap<PairKey, bool>,
    /// [`SpaceAlgebra::split`] results, both halves under one key.
    splits: FxHashMap<(SpaceId, SpaceId), (SpaceId, SpaceId)>,
    /// [`SpaceAlgebra::union_all`] results, keyed on the whole operand list.
    folds: FxHashMap<Box<[SpaceId]>, SpaceId>,
    /// The band kernels' buffers: the split's, reused by every `split`
    /// miss, and the merge's, by every `union_all` miss on a band.
    split_runs: SplitRuns,
    merge_runs: MergeRuns,
    enabled: bool,
    hits: u64,
    misses: u64,
    fast_hits: u64,
}

impl Default for SpaceAlgebra {
    fn default() -> Self {
        Self::new(InternConfig::default())
    }
}

impl SpaceAlgebra {
    pub fn new(config: InternConfig) -> Self {
        SpaceAlgebra {
            interner: SpaceInterner::new(),
            spaces: FxHashMap::default(),
            flags: FxHashMap::default(),
            splits: FxHashMap::default(),
            folds: FxHashMap::default(),
            split_runs: SplitRuns::default(),
            merge_runs: MergeRuns::default(),
            enabled: config.enabled,
            hits: 0,
            misses: 0,
            fast_hits: 0,
        }
    }

    /// Intern a space (see [`SpaceInterner::intern`]).
    #[inline]
    pub fn intern(&mut self, space: &IndexSpace) -> SpaceId {
        self.interner.intern(space)
    }

    /// Resolve an id.
    #[inline]
    pub fn space(&self, id: SpaceId) -> &IndexSpace {
        self.interner.get(id)
    }

    /// Cached bounding box.
    #[inline]
    pub fn bbox(&self, id: SpaceId) -> Rect {
        self.interner.bbox(id)
    }

    #[inline]
    pub fn is_empty_space(&self, id: SpaceId) -> bool {
        self.interner.is_empty_space(id)
    }

    pub fn stats(&self) -> AlgebraStats {
        AlgebraStats {
            hits: self.hits,
            misses: self.misses,
            fast_hits: self.fast_hits,
            interned: self.interner.len(),
            cache_entries: self.spaces.len()
                + self.flags.len()
                + self.splits.len()
                + self.folds.len(),
        }
    }

    /// `op(lhs, rhs)` through the memo: a miss sweeps, interns the result
    /// and remembers it.
    fn memo_space(
        &mut self,
        key: PairKey,
        op: fn(&IndexSpace, &IndexSpace) -> IndexSpace,
    ) -> SpaceId {
        match self.spaces.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                let r = op(self.interner.get(key.1), self.interner.get(key.2));
                *v.insert(self.interner.intern(&r))
            }
        }
    }

    /// As [`Self::memo_space`] for the predicates: a miss asks `sweep`.
    fn memo_flag(&mut self, key: PairKey, sweep: impl FnOnce(&SpaceInterner) -> bool) -> bool {
        match self.flags.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                *v.insert(sweep(&self.interner))
            }
        }
    }

    #[inline]
    fn single_rect(&self, id: SpaceId) -> Option<Rect> {
        self.interner.single_rect(id)
    }

    /// `lhs ∩ rhs` (the paper's `X/Y`).
    pub fn intersect(&mut self, a: SpaceId, b: SpaceId) -> SpaceId {
        if !self.enabled {
            let r = self.interner.get(a).intersect(self.interner.get(b));
            return self.interner.intern(&r);
        }
        // Fast paths. Each returns exactly what the direct sweep returns:
        // * a ∩ a: pairwise intersections of a disjoint family with itself
        //   are the family itself; normalization of a normalized list is the
        //   identity. Ditto the linear-band sweep.
        // * empty / bbox-disjoint operands: the sweep's own early exits.
        // * single-rect pairs: the sweep computes the one rect intersection.
        // * b a single rect covering a's bbox: every rect of a survives
        //   unchanged, so the result is a itself (and symmetrically).
        if a == b {
            self.fast_hits += 1;
            return a;
        }
        if self.is_empty_space(a) || self.is_empty_space(b) {
            self.fast_hits += 1;
            return SpaceId::EMPTY;
        }
        let (ba, bb) = (self.interner.bbox(a), self.interner.bbox(b));
        if !ba.overlaps(&bb) {
            self.fast_hits += 1;
            return SpaceId::EMPTY;
        }
        match (self.single_rect(a), self.single_rect(b)) {
            (Some(ra), Some(rb)) => {
                self.fast_hits += 1;
                return self.interner.intern_rect(ra.intersect(&rb));
            }
            (_, Some(rb)) if rb.contains_rect(&ba) => {
                self.fast_hits += 1;
                return a;
            }
            (Some(ra), _) if ra.contains_rect(&bb) => {
                self.fast_hits += 1;
                return b;
            }
            _ => {}
        }
        self.memo_space((AlgebraOp::Intersect, a, b), IndexSpace::intersect)
    }

    /// `lhs \ rhs` (the paper's `X\Y`).
    pub fn subtract(&mut self, a: SpaceId, b: SpaceId) -> SpaceId {
        if !self.enabled {
            let r = self.interner.get(a).subtract(self.interner.get(b));
            return self.interner.intern(&r);
        }
        // Fast paths, each matching the sweep structurally:
        // * a \ a = ∅; empty minuend = ∅; empty/bbox-disjoint subtrahend
        //   returns a clone of a (≡ a's own interned storage).
        // * b a single rect covering a's bbox removes everything.
        if a == b || self.is_empty_space(a) {
            self.fast_hits += 1;
            return SpaceId::EMPTY;
        }
        if self.is_empty_space(b) {
            self.fast_hits += 1;
            return a;
        }
        let (ba, bb) = (self.interner.bbox(a), self.interner.bbox(b));
        if !ba.overlaps(&bb) {
            self.fast_hits += 1;
            return a;
        }
        if let Some(rb) = self.single_rect(b) {
            if rb.contains_rect(&ba) {
                self.fast_hits += 1;
                return SpaceId::EMPTY;
            }
        }
        self.memo_space((AlgebraOp::Subtract, a, b), IndexSpace::subtract)
    }

    /// `(dom ∩ target, dom \ target)`: a refinement's two halves from one
    /// sweep and one memo entry, each the id [`Self::intersect`] and
    /// [`Self::subtract`] return. `target ⊇ dom` iff the second is
    /// [`SpaceId::EMPTY`].
    pub fn split(&mut self, dom: SpaceId, target: SpaceId) -> (SpaceId, SpaceId) {
        if !self.enabled {
            return (self.intersect(dom, target), self.subtract(dom, target));
        }
        // Fast paths: the ones `intersect` and `subtract` share, so each
        // half is what that op's own fast path returns.
        if dom == target {
            self.fast_hits += 1;
            return (dom, SpaceId::EMPTY);
        }
        if self.is_empty_space(dom) {
            self.fast_hits += 1;
            return (SpaceId::EMPTY, SpaceId::EMPTY);
        }
        let bd = self.interner.bbox(dom);
        if self.is_empty_space(target) || !bd.overlaps(&self.interner.bbox(target)) {
            self.fast_hits += 1;
            return (SpaceId::EMPTY, dom);
        }
        if self
            .single_rect(target)
            .is_some_and(|rt| rt.contains_rect(&bd))
        {
            self.fast_hits += 1;
            return (dom, SpaceId::EMPTY);
        }
        match self.splits.entry((dom, target)) {
            Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                let i = &mut self.interner;
                let (d, t) = (i.get(dom), i.get(target));
                // What `IndexSpace::split` does, minus re-deriving the band
                // and with the kernel's buffers reused.
                *v.insert(match i.common_band(dom, target) {
                    Some(_) => {
                        let (inside, outside) = self.split_runs.split(d.rects(), t.rects());
                        (i.intern_runs(inside), i.intern_runs(outside))
                    }
                    None => {
                        let (inside, outside) = d.split(t);
                        (i.intern(&inside), i.intern(&outside))
                    }
                })
            }
        }
    }

    /// `lhs ∪ rhs`. No structural fast path beyond the empty operands —
    /// union's decomposition depends on argument order, so everything else
    /// goes through the cache keyed on the exact (lhs, rhs) pair.
    pub fn union(&mut self, a: SpaceId, b: SpaceId) -> SpaceId {
        if !self.enabled {
            let r = self.interner.get(a).union(self.interner.get(b));
            return self.interner.intern(&r);
        }
        if self.is_empty_space(a) {
            self.fast_hits += 1;
            return b;
        }
        if self.is_empty_space(b) {
            self.fast_hits += 1;
            return a;
        }
        self.memo_space((AlgebraOp::Union, a, b), IndexSpace::union)
    }

    /// The left fold `((s₀ ∪ s₁) ∪ s₂) ∪ …`, structurally what chaining
    /// [`IndexSpace::union`] in that order builds, memoized as a unit: a
    /// miss sweeps the fold directly and interns only its result (first
    /// touch pays no per-step intern of intermediates nobody names), a
    /// repeat is one lookup. When every operand after a non-empty first one
    /// is empty or shares its band, the miss runs the band merge kernel
    /// (`MergeRuns`) from the interned slices through the two buffers the
    /// algebra keeps, and freezes only the result.
    pub fn union_all(&mut self, ids: &[SpaceId]) -> SpaceId {
        let [first, rest @ ..] = ids else {
            return SpaceId::EMPTY;
        };
        if rest.is_empty() {
            return *first;
        }
        if !self.enabled {
            return self.interner.intern(&self.chained_union(*first, rest));
        }
        if let Some(&r) = self.folds.get(ids) {
            self.hits += 1;
            return r;
        }
        self.misses += 1;
        let i = &mut self.interner;
        let in_band = |band: &Band| {
            rest.iter()
                .all(|id| i.is_empty_space(*id) || i.band(*id) == Some(*band))
        };
        let r = match i.band(*first).filter(in_band) {
            Some(_) => {
                let rest = rest.iter().filter(|id| !i.is_empty_space(**id));
                let rest = rest.map(|id| i.get(*id).rects());
                let runs = self.merge_runs.union_all(i.get(*first).rects(), rest);
                i.intern_runs(runs)
            }
            None => {
                let acc = self.chained_union(*first, rest);
                self.interner.intern(&acc)
            }
        };
        self.folds.insert(ids.into(), r);
        r
    }

    /// [`Self::union_all`] of operands the caller knows tile `whole` —
    /// pairwise disjoint, inside it and covering it, as a requirement's
    /// constituent sets tile its target. When `whole` is a band every
    /// non-empty operand lies in, the fold is `whole` itself: no merge, no
    /// memo entry, one fast hit. That is structural, not just the same
    /// points: a band's sorted, coalesced runs are the only normal form of
    /// its points, so chaining [`IndexSpace::union`] rebuilds exactly
    /// `whole`'s runs (debug builds check it). Otherwise — interning off,
    /// one operand, a 2-D `whole` or operands in other bands — it is
    /// `union_all`.
    pub fn union_all_covering(&mut self, ids: &[SpaceId], whole: SpaceId) -> SpaceId {
        let i = &self.interner;
        let in_band = |band: Band| {
            ids.iter()
                .all(|id| i.is_empty_space(*id) || i.band(*id) == Some(band))
        };
        if !(self.enabled && ids.len() > 1 && i.band(whole).is_some_and(in_band)) {
            return self.union_all(ids);
        }
        debug_assert_eq!(
            &self.chained_union(ids[0], &ids[1..]),
            self.interner.get(whole),
            "the operands do not tile the whole"
        );
        self.fast_hits += 1;
        whole
    }

    /// `first ∪ rest[0] ∪ …` by chaining [`IndexSpace::union`].
    fn chained_union(&self, first: SpaceId, rest: &[SpaceId]) -> IndexSpace {
        let mut acc = self.interner.get(first).clone();
        for id in rest {
            acc = acc.union(self.interner.get(*id));
        }
        acc
    }

    /// `lhs ∩ rhs ≠ ∅` — the hottest predicate in the analysis.
    pub fn overlaps(&mut self, a: SpaceId, b: SpaceId) -> bool {
        if !self.enabled {
            return self.interner.get(a).overlaps(self.interner.get(b));
        }
        if let Some(answer) = self.interner.overlaps_fast(a, b) {
            self.fast_hits += 1;
            return answer;
        }
        self.memo_flag((AlgebraOp::Overlaps, a, b), |i| i.sweep_overlaps(a, b))
    }

    /// [`Self::overlaps`] without the memo: the same fast paths, then the
    /// same sweep, recording no entry and no counter. For a caller holding
    /// only `&self` whose answers are memoized one level up — the region
    /// forest's anchor check — where an entry per question would be a miss
    /// the memo never sees again.
    pub fn overlaps_unmemoized(&self, a: SpaceId, b: SpaceId) -> bool {
        if !self.enabled {
            return self.interner.get(a).overlaps(self.interner.get(b));
        }
        self.interner
            .overlaps_fast(a, b)
            .unwrap_or_else(|| self.interner.sweep_overlaps(a, b))
    }

    /// Does `lhs` contain every point of `rhs`?
    pub fn contains(&mut self, a: SpaceId, b: SpaceId) -> bool {
        if !self.enabled {
            return self.interner.get(a).contains(self.interner.get(b));
        }
        if self.is_empty_space(b) {
            self.fast_hits += 1;
            return true;
        }
        if a == b {
            self.fast_hits += 1;
            return true;
        }
        if self.is_empty_space(a) {
            self.fast_hits += 1;
            return false;
        }
        let (ba, bb) = (self.interner.bbox(a), self.interner.bbox(b));
        if !ba.overlaps(&bb) {
            self.fast_hits += 1;
            return false;
        }
        if let Some(ra) = self.single_rect(a) {
            // A single rect contains b iff it contains b's bbox.
            self.fast_hits += 1;
            return ra.contains_rect(&bb);
        }
        if !ba.contains_rect(&bb) {
            // Some point of b lies outside a's bounds.
            self.fast_hits += 1;
            return false;
        }
        self.memo_flag((AlgebraOp::Contains, a, b), |i| i.get(a).contains(i.get(b)))
    }

    // Convenience forms for call sites holding plain spaces (the painter
    // engines): intern on the fly, then go through the id-keyed paths. With
    // interning disabled these skip the interner entirely.

    pub fn contains_spaces(&mut self, a: &IndexSpace, b: &IndexSpace) -> bool {
        if !self.enabled {
            return a.contains(b);
        }
        let (a, b) = (self.intern(a), self.intern(b));
        self.contains(a, b)
    }

    pub fn union_spaces(&mut self, a: &IndexSpace, b: &IndexSpace) -> IndexSpace {
        if !self.enabled {
            return a.union(b);
        }
        let (a, b) = (self.intern(a), self.intern(b));
        let r = self.union(a, b);
        self.space(r).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(lo: i64, hi: i64) -> IndexSpace {
        IndexSpace::span(lo, hi)
    }

    #[test]
    fn interning_dedups_structurally() {
        let mut i = SpaceInterner::new();
        let a = i.intern(&sp(0, 9));
        let b = i.intern(&IndexSpace::from_rect(Rect::span(0, 9)));
        let c = i.intern(&sp(0, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.get(a), &sp(0, 9));
        assert_eq!(i.bbox(a), Rect::span(0, 9));
        // empty pre-interned
        assert_eq!(i.intern(&IndexSpace::empty()), SpaceId::EMPTY);
        // A bare rect lands in the slot of its one-rect space.
        assert_eq!(i.intern_rect(Rect::span(0, 9)), a);
        assert_eq!(i.intern_rect(Rect::EMPTY), SpaceId::EMPTY);
        let d = i.intern_rect(Rect::xy(0, 3, 0, 3));
        assert_eq!(i.intern(&IndexSpace::from_rect(Rect::xy(0, 3, 0, 3))), d);
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn ops_match_direct_algebra() {
        let mut alg = SpaceAlgebra::default();
        let shapes = [
            IndexSpace::empty(),
            sp(0, 31),
            sp(16, 47),
            IndexSpace::from_rect(Rect::xy(0, 9, 0, 9)),
            IndexSpace::from_rect(Rect::xy(5, 14, 5, 14)),
            IndexSpace::from_rects([Rect::span(0, 4), Rect::span(10, 14)]),
            IndexSpace::from_rect(Rect::xy(-100, 100, -100, 100)),
        ];
        // Run twice so the second round is answered from the cache.
        for _ in 0..2 {
            for a in &shapes {
                for b in &shapes {
                    let (ia, ib) = (alg.intern(a), alg.intern(b));
                    let i = alg.intersect(ia, ib);
                    assert_eq!(alg.space(i), &a.intersect(b));
                    let s = alg.subtract(ia, ib);
                    assert_eq!(alg.space(s), &a.subtract(b));
                    assert_eq!(alg.split(ia, ib), (i, s));
                    let u = alg.union(ia, ib);
                    assert_eq!(alg.space(u), &a.union(b));
                    assert_eq!(alg.overlaps(ia, ib), a.overlaps(b));
                    assert_eq!(alg.contains(ia, ib), a.contains(b));
                }
            }
        }
        let s = alg.stats();
        assert!(s.hits > 0, "second round should hit: {s:?}");
    }

    #[test]
    fn disabled_mode_matches_too() {
        let mut alg = SpaceAlgebra::new(InternConfig::disabled());
        let a = alg.intern(&sp(0, 20));
        let b = alg.intern(&sp(10, 30));
        let i = alg.intersect(a, b);
        assert_eq!(alg.space(i), &sp(10, 20));
        let s = alg.subtract(a, b);
        assert_eq!(alg.space(s), &sp(0, 9));
        assert!(alg.overlaps(a, b));
        assert!(!alg.contains(a, b));
        assert_eq!(alg.stats().hits, 0);
        assert_eq!(alg.stats().fast_hits, 0);
    }

    /// A loop-shaped working set of any size is swept once: the old
    /// 4096-entry segmented LRU re-swept all of it on every pass.
    #[test]
    fn memo_cannot_thrash() {
        let mut alg = SpaceAlgebra::default();
        // Multi-rect pairs, `b`'s bbox inside `a`'s, so every op misses the
        // fast paths and reaches the memo.
        let pairs: Vec<(SpaceId, SpaceId)> = (0..6000i64)
            .map(|i| {
                let x = i * 20;
                let a = IndexSpace::from_rects([Rect::span(x, x + 3), Rect::span(x + 6, x + 9)]);
                let b =
                    IndexSpace::from_rects([Rect::span(x + 2, x + 4), Rect::span(x + 6, x + 7)]);
                (alg.intern(&a), alg.intern(&b))
            })
            .collect();
        let pass = |alg: &mut SpaceAlgebra| {
            for &(a, b) in &pairs {
                alg.intersect(a, b);
                alg.subtract(a, b);
                alg.overlaps(a, b);
                alg.contains(a, b);
            }
            alg.stats()
        };
        let first = pass(&mut alg);
        assert_eq!(first.misses, 4 * 6000, "every op must reach the memo");
        for _ in 0..2 {
            let s = pass(&mut alg);
            assert_eq!(s.misses, first.misses, "a repeated pass swept again");
            assert_eq!(s.interned, first.interned);
        }
    }

    /// Changing any one coordinate of any one rect changes the hash: each
    /// of the four lanes is read, at every position.
    #[test]
    fn content_hash_reads_every_lane() {
        let rects = [
            Rect::xy(0, 4, 0, 2),
            Rect::xy(7, 9, 0, 2),
            Rect::xy(1, 3, 5, 6),
        ];
        let base = content_hash(&rects);
        for k in 0..rects.len() {
            for coord in 0..4 {
                let mut changed = rects;
                let r = &mut changed[k];
                *[&mut r.lo.x, &mut r.lo.y, &mut r.hi.x, &mut r.hi.y][coord] += 1;
                assert_ne!(content_hash(&changed), base, "rect {k}, coordinate {coord}");
            }
        }
        assert_ne!(content_hash(&rects[..2]), base, "the length is read");
    }

    /// The cached box of a band is read off its ends and equals the fold;
    /// a one-rect space is a band, a 2-D set and the empty set are not.
    #[test]
    fn shapes_and_bands() {
        let mut i = SpaceInterner::new();
        let band = i.intern(&IndexSpace::from_rects([
            Rect::xy(0, 4, 2, 3),
            Rect::xy(9, 12, 2, 3),
        ]));
        assert_eq!(i.band(band), Some((2, 3)));
        assert_eq!(i.bbox(band), Rect::xy(0, 12, 2, 3));
        let single = i.intern_rect(Rect::xy(5, 6, 1, 4));
        assert_eq!(i.band(single), Some((1, 4)));
        let plane = i.intern(&IndexSpace::from_rects([
            Rect::xy(0, 4, 0, 0),
            Rect::xy(0, 2, 3, 3),
        ]));
        assert_eq!(i.band(plane), None);
        assert_eq!(i.bbox(plane), Rect::xy(0, 4, 0, 3));
        assert_eq!(i.band(SpaceId::EMPTY), None);
    }

    #[test]
    fn shared_storage_keeps_the_contract() {
        use crate::hash::FxHasher;
        use std::hash::BuildHasher;
        let build = || IndexSpace::from_rects([Rect::span(0, 4), Rect::span(10, 14)]);
        let (a, b) = (build(), build());
        assert_eq!(a.clone().rects().as_ptr(), a.rects().as_ptr());
        assert_ne!(a.rects().as_ptr(), b.rects().as_ptr());
        assert_eq!(a, b);
        let h = std::hash::BuildHasherDefault::<FxHasher>::default();
        assert_eq!(h.hash_one(&a), h.hash_one(&b));
        let mut i = SpaceInterner::new();
        let id = i.intern(&a);
        assert_eq!(i.intern(&b), id);
        // First sight shares the caller's storage instead of copying it.
        assert_eq!(i.get(id).rects().as_ptr(), a.rects().as_ptr());
    }

    #[test]
    fn identical_id_fast_paths() {
        let mut alg = SpaceAlgebra::default();
        let a = alg.intern(&IndexSpace::from_rects([
            Rect::xy(0, 4, 0, 4),
            Rect::xy(10, 14, 10, 14),
        ]));
        assert_eq!(alg.intersect(a, a), a);
        assert_eq!(alg.subtract(a, a), SpaceId::EMPTY);
        assert_eq!(alg.split(a, a), (a, SpaceId::EMPTY));
        assert!(alg.overlaps(a, a));
        assert!(alg.contains(a, a));
        assert_eq!(alg.stats().misses, 0, "no sweep should have run");
    }
}

//! Online automatic trace detection (in the style of Yadav et al.,
//! *Automatic Tracing in Task-Based Runtime Systems*).
//!
//! Dynamic tracing (\[15\], `trace.rs`) memoizes the dependence/coherence
//! analysis of a repeated launch sequence — but only where the application
//! hand-annotates `begin_trace`/`end_trace`. This module finds the repeats
//! *online* from the launch stream itself:
//!
//! 1. every launch is fingerprinted by a signature hash of `(node, reqs)`
//!    — the exact tuple trace replay validates against;
//! 2. a hash chain (last few positions of each signature) proposes
//!    candidate periods `L = pos - prev_pos`, smallest first;
//! 3. polynomial prefix hashes over a sliding window answer "are the last
//!    `confidence` blocks of length `L` identical?" in O(1) per candidate
//!    (the classic rolling-hash repeated-substring test);
//! 4. a candidate that passes is verified *exactly* (element-wise signature
//!    comparison) before promotion — hash collisions and near-repeats are
//!    never promoted.
//!
//! A promotion fires on the launch that completes the second identical
//! block and hands the period `L` to the trace state machine
//! ([`crate::trace`]). Once that launch has committed, the block's last `L`
//! committed rows become the template (capture is retroactive: the block
//! was analyzed as it was observed); the next `L` launches are analyzed
//! and verified against it, then replay starts.
//! Divergence at any point demotes back to observation — the runtime falls
//! through to normal analysis, it never aborts.

use crate::task::RegionRequirement;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use viz_geometry::{FxHashMap, FxHasher};
use viz_sim::NodeId;

/// Shortest repeat worth promoting. Periods of one launch are almost
/// always incidental (e.g. two identical probes).
const MIN_LEN: u64 = 2;
/// Longest repeat considered; bounds the detector's window memory.
const MAX_LEN: u64 = 8192;
/// How many consecutive identical blocks must be observed before a period
/// is promoted (≥ 2; higher = later but safer promotion).
const CONFIDENCE: u64 = 2;

/// Polynomial rolling-hash base (odd → invertible mod 2^64).
const BASE: u64 = 0x9E37_79B9_7F4A_7C15 | 1;
/// Positions remembered per signature hash: candidate periods are the
/// distances to these. More than one matters when a short incidental
/// repeat (e.g. period 1) hides a longer true period.
const CHAIN: usize = 8;

pub(crate) fn sig_hash(node: NodeId, reqs: &[RegionRequirement]) -> u64 {
    let mut h = FxHasher::default();
    node.hash(&mut h);
    reqs.hash(&mut h);
    h.finish()
}

/// Decorrelate a signature hash before it enters the polynomial hash.
fn mix(h: u64) -> u64 {
    h.wrapping_mul(0xFF51_AFD7_ED55_8CCD).rotate_left(31)
}

/// `BASE^k`, by squaring.
fn base_pow(mut k: u64) -> u64 {
    let (mut acc, mut square) = (1u64, BASE);
    while k > 0 {
        if k & 1 == 1 {
            acc = acc.wrapping_mul(square);
        }
        square = square.wrapping_mul(square);
        k >>= 1;
    }
    acc
}

/// One retained launch of the window: the polynomial hash of the stream
/// through it, its node, and where its requirements sit in the detector's
/// flat requirement buffer (`reqs` entries from absolute offset `first`).
#[derive(Copy, Clone)]
struct Slot {
    prefix: u64,
    node: NodeId,
    first: u64,
    reqs: u32,
}

/// The last [`CHAIN`] absolute positions of one signature hash: the most
/// recent, and the distances from it back to the older ones. A distance
/// saturates at `u16::MAX`, which is farther than any period considered
/// (`max_len < u16::MAX`), so 24 bytes hold what a candidate needs.
#[derive(Copy, Clone)]
struct Chain {
    last: u64,
    older: [u16; CHAIN - 1],
    /// Older positions recorded, at most `CHAIN - 1`.
    count: u8,
}

impl Chain {
    fn new(p: u64) -> Self {
        Chain {
            last: p,
            older: [0; CHAIN - 1],
            count: 0,
        }
    }

    fn push(&mut self, p: u64) {
        let gap = u16::try_from(p - self.last).unwrap_or(u16::MAX);
        self.older.copy_within(..CHAIN - 2, 1);
        self.older[0] = 0;
        for d in &mut self.older {
            *d = d.saturating_add(gap);
        }
        self.last = p;
        self.count = (self.count + 1).min(CHAIN as u8 - 1);
    }

    /// The distances from `p` back to the recorded positions, nearest
    /// first.
    fn distances(&self, p: u64) -> impl Iterator<Item = u64> + '_ {
        let to_last = p - self.last;
        let older = self.older[..usize::from(self.count)].iter();
        std::iter::once(to_last).chain(older.map(move |&d| to_last + u64::from(d)))
    }
}

/// The online repeat detector. Feed every observed (non-traced) launch to
/// [`AutoTracer::observe`]; it returns the period when a repeat is
/// confirmed. A fresh detector allocates nothing; once its buffers have
/// grown to the window (or to the longest stretch observed between
/// resets), observing allocates nothing either.
pub struct AutoTracer {
    min_len: u64,
    max_len: u64,
    confidence: u64,
    /// Retained launches: positions `start .. start + slots.len()` of the
    /// absolute launch stream.
    slots: VecDeque<Slot>,
    start: u64,
    /// The polynomial hash of the stream before `start` (the prefix hash
    /// of an evicted slot). Substring hashes never span a reset, so the
    /// anchor is arbitrary.
    start_prefix: u64,
    /// Every retained launch's requirements, back to back; `reqs[0]` sits
    /// at absolute offset `reqs_start`.
    reqs: VecDeque<RegionRequirement>,
    reqs_start: u64,
    /// Recent absolute positions of each signature hash.
    chains: FxHashMap<u64, Chain>,
}

impl Default for AutoTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl AutoTracer {
    /// The detector with the runtime's bounds.
    pub fn new() -> Self {
        Self::with_bounds(MIN_LEN, MAX_LEN, CONFIDENCE)
    }

    /// The detector over other bounds than the runtime's (unit tests use
    /// short windows). Requires `1 <= min_len <= max_len`, `confidence >= 2`.
    fn with_bounds(min_len: u64, max_len: u64, confidence: u64) -> Self {
        debug_assert!(1 <= min_len && min_len <= max_len && confidence >= 2);
        debug_assert!(max_len < u64::from(u16::MAX), "a chain's distances are u16");
        AutoTracer {
            min_len,
            max_len,
            confidence,
            slots: VecDeque::new(),
            start: 0,
            start_prefix: 0,
            reqs: VecDeque::new(),
            reqs_start: 0,
            chains: FxHashMap::default(),
        }
    }

    /// Forget everything observed so far (demotion, fences and explicit
    /// trace annotations discontinue the stream). Buffers keep their
    /// capacity.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.start = 0;
        self.start_prefix = 0;
        self.reqs.clear();
        self.reqs_start = 0;
        self.chains.clear();
    }

    /// How many of the latest observed launches a promotion could still
    /// read back: the detected block lies within the observed stream and
    /// is at most `max_len` long. The runtime keeps their committed rows
    /// out of GC's reach, since a promotion builds its template from them.
    pub(crate) fn lookback(&self) -> u32 {
        let observed = self.start + self.slots.len() as u64;
        observed.min(self.max_len) as u32
    }

    fn slot(&self, p: u64) -> &Slot {
        &self.slots[(p - self.start) as usize]
    }

    /// The requirements of a retained launch.
    fn reqs_of(&self, s: &Slot) -> impl Iterator<Item = &RegionRequirement> {
        let at = (s.first - self.reqs_start) as usize;
        self.reqs.range(at..at + s.reqs as usize)
    }

    /// Polynomial hash of the stream before absolute position `p`
    /// (`start <= p <= start + slots.len()`).
    fn prefix(&self, p: u64) -> u64 {
        match p - self.start {
            0 => self.start_prefix,
            k => self.slots[k as usize - 1].prefix,
        }
    }

    /// Do the retained launches at absolute positions `a` and `b` have the
    /// same signature, element for element?
    fn same_sig(&self, a: u64, b: u64) -> bool {
        let (sa, sb) = (self.slot(a), self.slot(b));
        sa.node == sb.node && sa.reqs == sb.reqs && self.reqs_of(sa).eq(self.reqs_of(sb))
    }

    /// Are the last `confidence` blocks of length `len` ending at absolute
    /// position `end` identical? The block hashes screen; an element-wise
    /// check confirms, so a hash collision never promotes.
    fn repeats(&self, end: u64, len: u64) -> bool {
        if len < self.min_len || len > self.max_len {
            return false;
        }
        if end - self.start < self.confidence * len {
            return false; // not enough history retained
        }
        // The hash of the `k`-th block back, `[end - (k+1)·len, end - k·len)`.
        let shift = base_pow(len);
        let block = |k: u64| {
            let (a, b) = (end - (k + 1) * len, end - k * len);
            self.prefix(b)
                .wrapping_sub(self.prefix(a).wrapping_mul(shift))
        };
        let first = end - self.confidence * len;
        (1..self.confidence).all(|k| block(k) == block(0))
            && (first..end - len).all(|p| self.same_sig(p, p + len))
    }

    /// Feed one observed launch. Returns the period `L` when the last two
    /// blocks of `L` launches are confirmed identical — by stream
    /// periodicity the *next* `L` launches should equal the last block
    /// element-for-element. A promotion ends the observed stream: the
    /// caller replaces or resets the detector before observing again.
    pub fn observe(&mut self, node: NodeId, reqs: &[RegionRequirement]) -> Option<u32> {
        let hash = sig_hash(node, reqs);
        let pos = self.start + self.slots.len() as u64;
        let prefix = self.prefix(pos).wrapping_mul(BASE).wrapping_add(mix(hash));
        let first = self.reqs_start + self.reqs.len() as u64;
        self.reqs.extend(reqs.iter().cloned());
        self.slots.push_back(Slot {
            prefix,
            node,
            first,
            reqs: reqs.len() as u32,
        });
        let window = (self.confidence * self.max_len) as usize;
        let excess = self.slots.len().saturating_sub(window);
        for gone in self.slots.drain(..excess) {
            self.reqs.drain(..gone.reqs as usize);
            self.reqs_start += u64::from(gone.reqs);
            self.start_prefix = gone.prefix;
            self.start += 1;
        }
        // Candidate periods: distances to recent occurrences of this
        // signature, smallest first, walked on a copy of its chain.
        let recent = match self.chains.entry(hash) {
            Entry::Occupied(mut chain) => {
                let recent = *chain.get();
                chain.get_mut().push(pos);
                Some(recent)
            }
            Entry::Vacant(slot) => {
                slot.insert(Chain::new(pos));
                None
            }
        };
        let end = pos + 1;
        let period = (recent.iter())
            .flat_map(|chain| chain.distances(pos))
            .find(|&len| self.repeats(end, len));
        if let Some(len) = period {
            // At most `max_len`, which fits a chain's `u16` distances.
            return Some(len as u32);
        }
        if self.chains.len() > 4 * window.max(64) {
            // Prune hashes whose last occurrence fell out of the window.
            let start = self.start;
            self.chains.retain(|_, c| c.last >= start);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_region::{FieldId, RegionId};

    fn req(region: u32) -> Vec<RegionRequirement> {
        vec![RegionRequirement::read_write(RegionId(region), FieldId(0))]
    }

    fn tracer(min_len: u64, confidence: u64) -> AutoTracer {
        AutoTracer::with_bounds(min_len, 64, confidence)
    }

    /// Feed a stream of (node, region) symbols; return the positions where
    /// a promotion fired and the promoted period lengths.
    fn drive(t: &mut AutoTracer, stream: &[u32]) -> Vec<(usize, usize)> {
        let mut fired = Vec::new();
        for (i, &s) in stream.iter().enumerate() {
            if let Some(len) = t.observe(0, &req(s)) {
                fired.push((i, len as usize));
                t.reset();
            }
        }
        fired
    }

    #[test]
    fn detects_a_simple_period() {
        let mut t = tracer(2, 2);
        // A B C A B C: the second C completes a square of period 3.
        let fired = drive(&mut t, &[1, 2, 3, 1, 2, 3]);
        assert_eq!(fired, vec![(5, 3)]);
    }

    #[test]
    fn prefers_the_smallest_true_period() {
        let mut t = tracer(2, 2);
        // A B A B A B A B: period 2 fires as soon as two blocks exist;
        // period 4 (also valid) is never preferred over it.
        let fired = drive(&mut t, &[1, 2, 1, 2]);
        assert_eq!(fired, vec![(3, 2)]);
    }

    #[test]
    fn finds_longer_period_past_an_incidental_short_one() {
        let mut t = tracer(2, 2);
        // A B B A B B: the BB pair suggests period 1 (filtered by min_len)
        // and the most recent B-B distance suggests period 2 (blocks
        // differ); only the older chain entry exposes the true period 3.
        let fired = drive(&mut t, &[1, 2, 2, 1, 2, 2]);
        assert_eq!(fired, vec![(5, 3)]);
    }

    #[test]
    fn near_repeats_are_not_promoted() {
        let mut t = tracer(2, 2);
        // A B C A B D: differs in the last element — no promotion.
        let fired = drive(&mut t, &[1, 2, 3, 1, 2, 4]);
        assert!(fired.is_empty());
        // Node changes break the signature even with equal requirements.
        let mut t = tracer(2, 2);
        for (i, node) in [0usize, 1, 0, 2].iter().enumerate() {
            let fired = t.observe(*node, &req(7));
            assert!(fired.is_none(), "promoted at {i}");
        }
    }

    #[test]
    fn higher_confidence_delays_promotion() {
        let mut t = tracer(2, 3);
        let fired = drive(&mut t, &[1, 2, 1, 2, 1, 2, 1, 2]);
        // Three identical blocks of period 2 are needed: fires at index 5.
        assert_eq!(fired, vec![(5, 2)]);
    }

    #[test]
    fn min_len_filters_short_periods() {
        let mut t = tracer(4, 2);
        let fired = drive(&mut t, &[1, 2, 1, 2, 1, 2, 1, 2]);
        // Period 2 is below min_len 4; period 4 (= two ABAB blocks) fires.
        assert_eq!(fired, vec![(7, 4)]);
    }

    #[test]
    fn reset_forgets_history() {
        let mut t = tracer(2, 2);
        assert!(drive(&mut t, &[1, 2, 3, 1, 2]).is_empty());
        t.reset();
        // The missing C means no square exists in the fresh window.
        assert!(drive(&mut t, &[3, 1, 2]).is_empty());
        // But a full fresh square is found (C A B | C A B completes at
        // the second B, index 2 of this slice).
        assert_eq!(drive(&mut t, &[3, 1, 2, 3]), vec![(2, 3)]);
    }

    #[test]
    fn chains_keep_the_last_positions_nearest_first() {
        let mut c = Chain::new(3);
        for p in [5, 9, 100_000, 100_004, 100_005, 100_006, 100_007, 100_008] {
            c.push(p);
        }
        // Nine positions pushed, eight kept; 3 is gone, and the distances
        // back to 5 and 9 saturate: still farther than any period.
        let far = 2 + u64::from(u16::MAX);
        let got: Vec<u64> = c.distances(100_010).collect();
        assert_eq!(got, [2, 3, 4, 5, 6, 10, far, far]);
    }

    #[test]
    fn window_eviction_keeps_detection_sound() {
        let mut t = AutoTracer::with_bounds(2, 4, 2);
        // Period 6 exceeds max_len 4 — never promoted, and the sliding
        // window stays bounded.
        let stream: Vec<u32> = (0..6).cycle().take(60).collect();
        assert!(drive(&mut t, &stream).is_empty());
        assert!(t.slots.len() <= 8);
        // A detectable period arriving later still fires.
        assert_eq!(drive(&mut t, &[9, 8, 9, 8]).last().map(|f| f.1), Some(2));
    }
}

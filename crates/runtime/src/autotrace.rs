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
//! A promoted repeat hands the predicted instance (the last `L`
//! signatures) to the trace state machine ([`crate::trace`]), which
//! validates the next `L` launches against it while capturing their
//! analysis results, verifies one more instance, then replays. Divergence
//! at any point demotes back to observation — the runtime falls through to
//! normal analysis, it never aborts.

use crate::task::RegionRequirement;
use crate::trace::Sig;
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

/// The online repeat detector. Feed every observed (non-traced) launch to
/// [`AutoTracer::observe`]; it returns the predicted instance when a repeat
/// is confirmed.
pub(crate) struct AutoTracer {
    min_len: u64,
    max_len: u64,
    confidence: u64,
    /// Retained signatures with their hashes: positions `start .. start +
    /// sigs.len()` of the absolute launch stream.
    sigs: VecDeque<(u64, Sig)>,
    /// `prefix[k]` = polynomial hash of the absolute stream prefix ending
    /// at position `start + k`; `prefix.len() == sigs.len() + 1`. Substring
    /// hashes never span a reset, so the anchor is arbitrary.
    prefix: VecDeque<u64>,
    start: u64,
    /// `BASE^k` for k up to the window length.
    pow: Vec<u64>,
    /// Recent absolute positions of each signature hash, ascending.
    chains: FxHashMap<u64, Vec<u64>>,
}

impl AutoTracer {
    pub fn new() -> Self {
        Self::with_bounds(MIN_LEN, MAX_LEN, CONFIDENCE)
    }

    /// The detector over other bounds than the runtime's (unit tests use
    /// short windows). Requires `1 <= min_len <= max_len`, `confidence >= 2`.
    fn with_bounds(min_len: u64, max_len: u64, confidence: u64) -> Self {
        debug_assert!(1 <= min_len && min_len <= max_len && confidence >= 2);
        let window = (confidence * max_len) as usize;
        let mut pow = Vec::with_capacity(window + 2);
        pow.push(1u64);
        for k in 1..=window + 1 {
            pow.push(pow[k - 1].wrapping_mul(BASE));
        }
        AutoTracer {
            min_len,
            max_len,
            confidence,
            sigs: VecDeque::new(),
            prefix: VecDeque::from([0u64]),
            start: 0,
            pow,
            chains: FxHashMap::default(),
        }
    }

    /// Forget everything observed so far (promotion, demotion, fences, and
    /// explicit trace annotations all discontinue the stream).
    pub fn reset(&mut self) {
        self.sigs.clear();
        self.prefix.clear();
        self.prefix.push_back(0);
        self.start = 0;
        self.chains.clear();
    }

    /// Hash of the signature block at absolute positions `[a, b)`.
    fn seg_hash(&self, a: u64, b: u64) -> u64 {
        let ia = (a - self.start) as usize;
        let ib = (b - self.start) as usize;
        self.prefix[ib].wrapping_sub(self.prefix[ia].wrapping_mul(self.pow[ib - ia]))
    }

    /// Element-wise check that the last `blocks` blocks of length `len`
    /// (ending at absolute position `end`) are identical.
    fn verify_exact(&self, end: u64, len: u64, blocks: u64) -> bool {
        let first = end - blocks * len;
        (first..end - len).all(|p| {
            self.sigs[(p - self.start) as usize] == self.sigs[(p + len - self.start) as usize]
        })
    }

    /// Feed one observed launch. Returns the predicted repeat unit (the
    /// last `L` signatures, oldest first) when a period `L` is confirmed —
    /// by stream periodicity the *next* `L` launches should equal it
    /// element-for-element. The detector resets itself on promotion.
    pub fn observe(&mut self, node: NodeId, reqs: &[RegionRequirement]) -> Option<Vec<Sig>> {
        let h = sig_hash(node, reqs);
        let pos = self.start + self.sigs.len() as u64;
        // `prefix` is one longer than `sigs`: this is its last element.
        let top = self.prefix[self.sigs.len()];
        self.prefix
            .push_back(top.wrapping_mul(BASE).wrapping_add(mix(h)));
        let reqs = reqs.to_vec();
        self.sigs.push_back((h, Sig { node, reqs }));
        let window = (self.confidence * self.max_len) as usize;
        while self.sigs.len() > window {
            self.sigs.pop_front();
            self.prefix.pop_front();
            self.start += 1;
        }
        // Candidate periods: distances to recent occurrences of this
        // signature, smallest first (the chain is ascending).
        let chain = self.chains.entry(h).or_default();
        let candidates: Vec<u64> = chain.iter().rev().map(|&p| pos - p).collect();
        chain.push(pos);
        if chain.len() > CHAIN {
            chain.remove(0);
        }
        if self.chains.len() > 4 * window.max(64) {
            // Prune hashes whose last occurrence fell out of the window.
            let start = self.start;
            self.chains
                .retain(|_, c| c.last().is_some_and(|&p| p >= start));
        }
        let end = pos + 1;
        for len in candidates {
            if len < self.min_len || len > self.max_len {
                continue;
            }
            if end - self.start < self.confidence * len {
                continue; // not enough history retained
            }
            let base_block = self.seg_hash(end - len, end);
            let all_equal = (1..self.confidence)
                .all(|k| self.seg_hash(end - (k + 1) * len, end - k * len) == base_block);
            if !all_equal || !self.verify_exact(end, len, self.confidence) {
                continue;
            }
            let predicted: Vec<Sig> = self
                .sigs
                .iter()
                .skip(self.sigs.len() - len as usize)
                .map(|(_, sig)| sig.clone())
                .collect();
            self.reset();
            return Some(predicted);
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
            if let Some(p) = t.observe(0, &req(s)) {
                fired.push((i, p.len()));
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
    fn window_eviction_keeps_detection_sound() {
        let mut t = AutoTracer::with_bounds(2, 4, 2);
        // Period 6 exceeds max_len 4 — never promoted, and the sliding
        // window stays bounded.
        let stream: Vec<u32> = (0..6).cycle().take(60).collect();
        assert!(drive(&mut t, &stream).is_empty());
        assert!(t.sigs.len() <= 8);
        // A detectable period arriving later still fires.
        assert_eq!(drive(&mut t, &[9, 8, 9, 8]).last().map(|f| f.1), Some(2));
    }
}

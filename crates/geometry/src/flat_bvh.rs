//! A flattened, structure-of-arrays snapshot of a [`DynamicBvh`].
//!
//! The dynamic tree is the right structure for *maintenance* — leaf
//! insert/remove with ancestor refits — but the wrong one for resolving a
//! *batch* of visibility queries: every query pointer-chases heap nodes and
//! allocates a traversal stack. This snapshot re-lays the tree out the way
//! GPU path tracers do before a dispatch:
//!
//! * **Pre-order node array with skip offsets.** Nodes are stored in DFS
//!   pre-order; each carries the index of the first node *past* its subtree.
//!   Traversal is stackless: a hit advances by one, a miss jumps to `skip`.
//! * **Structure-of-arrays bounds.** Node and leaf bounds live in separate
//!   `min_x`/`min_y`/`max_x`/`max_y` arrays, so the inner ray/box test reads
//!   four contiguous streams instead of striding over node structs.
//! * **Contiguous subtree leaves.** Pre-order makes every subtree's leaves a
//!   contiguous run of the leaf arrays. Once traversal reaches a subtree
//!   with at most `SCAN_CUTOFF` leaves it stops descending and tests the
//!   whole run with `LEAF_CHUNK`-wide unrolled comparisons — the
//!   "4–8 boxes per step" SIMD-friendly sweep the batch API amortizes over
//!   a shard's entire pending query set.
//!
//! A snapshot records the tree's mutation [`DynamicBvh::epoch`]; holders
//! compare epochs to decide when a refinement invalidated it. The layout —
//! flat node array + SoA rect bounds + a flat query list — is exactly the
//! buffer set a future wgpu compute dispatch would upload verbatim.

use crate::dbvh::DynamicBvh;
use crate::rect::Rect;

/// Test boxes per unrolled step of the leaf sweep.
const LEAF_CHUNK: usize = 8;
/// Subtrees at or below this many leaves are swept linearly instead of
/// descended. Four chunks: small enough to keep the sweep cheap on misses,
/// large enough that the branchy traversal loop runs on fat nodes only.
const SCAN_CUTOFF: u32 = 32;

/// Flattened SoA snapshot of a [`DynamicBvh`] with a batched query API.
///
/// Construct with [`FlatBvh::snapshot`]; query one rect with
/// [`FlatBvh::query_into`] or a whole batch with [`FlatBvh::batch_query`].
/// All query paths append into caller-owned buffers and allocate nothing
/// once those buffers have warmed up.
#[derive(Clone, Debug, Default)]
pub struct FlatBvh {
    // ---- nodes, DFS pre-order ----
    /// Index of the first node past this node's subtree (miss target).
    skip: Vec<u32>,
    nmin_x: Vec<i64>,
    nmin_y: Vec<i64>,
    nmax_x: Vec<i64>,
    nmax_y: Vec<i64>,
    /// First entry of this subtree's contiguous run in the leaf arrays.
    leaf_start: Vec<u32>,
    /// Length of that run.
    leaf_count: Vec<u32>,
    // ---- leaves, DFS order ----
    lmin_x: Vec<i64>,
    lmin_y: Vec<i64>,
    lmax_x: Vec<i64>,
    lmax_y: Vec<i64>,
    /// Item id per leaf.
    lid: Vec<u64>,
    /// The [`DynamicBvh::epoch`] this snapshot was taken at.
    epoch: u64,
}

impl FlatBvh {
    /// Flatten the live tree. O(n); allocates the snapshot arrays exactly
    /// once each (sizes are known up front).
    pub fn snapshot(tree: &DynamicBvh) -> FlatBvh {
        let leaves = tree.len();
        // Every DynamicBvh is a full binary tree: n leaves, n - 1 inners.
        let nodes = if leaves == 0 { 0 } else { 2 * leaves - 1 };
        let mut f = FlatBvh {
            skip: Vec::with_capacity(nodes),
            nmin_x: Vec::with_capacity(nodes),
            nmin_y: Vec::with_capacity(nodes),
            nmax_x: Vec::with_capacity(nodes),
            nmax_y: Vec::with_capacity(nodes),
            leaf_start: Vec::with_capacity(nodes),
            leaf_count: Vec::with_capacity(nodes),
            lmin_x: Vec::with_capacity(leaves),
            lmin_y: Vec::with_capacity(leaves),
            lmax_x: Vec::with_capacity(leaves),
            lmax_y: Vec::with_capacity(leaves),
            lid: Vec::with_capacity(leaves),
            epoch: tree.epoch(),
        };
        if leaves == 0 {
            return f;
        }
        // Iterative pre-order with an explicit enter/exit stack, so even a
        // tree the degradation heuristic has not yet rebuilt cannot
        // overflow the call stack.
        enum Walk {
            Enter(u32),
            Exit(u32),
        }
        let mut stack = vec![Walk::Enter(tree.root)];
        while let Some(step) = stack.pop() {
            match step {
                Walk::Enter(idx) => {
                    let n = &tree.nodes[idx as usize];
                    let me = f.skip.len() as u32;
                    f.skip.push(0); // patched on exit
                    f.nmin_x.push(n.bbox.lo.x);
                    f.nmin_y.push(n.bbox.lo.y);
                    f.nmax_x.push(n.bbox.hi.x);
                    f.nmax_y.push(n.bbox.hi.y);
                    f.leaf_start.push(f.lid.len() as u32);
                    f.leaf_count.push(0); // patched on exit
                    stack.push(Walk::Exit(me));
                    if n.is_leaf() {
                        f.lmin_x.push(n.bbox.lo.x);
                        f.lmin_y.push(n.bbox.lo.y);
                        f.lmax_x.push(n.bbox.hi.x);
                        f.lmax_y.push(n.bbox.hi.y);
                        f.lid.push(n.id);
                    } else {
                        // Right first so the left subtree is entered first.
                        stack.push(Walk::Enter(n.right));
                        stack.push(Walk::Enter(n.left));
                    }
                }
                Walk::Exit(me) => {
                    f.skip[me as usize] = f.skip.len() as u32;
                    f.leaf_count[me as usize] = f.lid.len() as u32 - f.leaf_start[me as usize];
                }
            }
        }
        debug_assert_eq!(f.skip.len(), nodes);
        debug_assert_eq!(f.lid.len(), leaves);
        f
    }

    /// The [`DynamicBvh::epoch`] this snapshot reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total nodes in the flattened array.
    pub fn node_count(&self) -> usize {
        self.skip.len()
    }

    /// Live items (leaves) captured by the snapshot.
    pub fn len(&self) -> usize {
        self.lid.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lid.is_empty()
    }

    /// Sweep one contiguous leaf run, [`LEAF_CHUNK`] boxes per step. The
    /// comparisons are written branch-free (`&`, not `&&`) over the four
    /// SoA streams so the compiler can vectorize the chunk body; hits are
    /// extracted from the accumulated mask afterwards.
    #[inline]
    fn scan_leaves(&self, q: &Rect, start: usize, end: usize, out: &mut Vec<u64>) {
        let (qlx, qly, qhx, qhy) = (q.lo.x, q.lo.y, q.hi.x, q.hi.y);
        // Equal-length subslices: one bounds proof up front, none inside
        // the chunk body — the comparisons compile to straight-line
        // vectorizable code over the four streams.
        let lx = &self.lmin_x[start..end];
        let hx = &self.lmax_x[start..end];
        let ly = &self.lmin_y[start..end];
        let hy = &self.lmax_y[start..end];
        let ids = &self.lid[start..end];
        let len = lx.len();
        let mut k = 0;
        while k + LEAF_CHUNK <= len {
            let mut mask = 0u32;
            for j in 0..LEAF_CHUNK {
                let hit = (lx[k + j] <= qhx) as u32
                    & (qlx <= hx[k + j]) as u32
                    & (ly[k + j] <= qhy) as u32
                    & (qly <= hy[k + j]) as u32;
                mask |= hit << j;
            }
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                out.push(ids[k + j]);
                mask &= mask - 1;
            }
            k += LEAF_CHUNK;
        }
        for j in k..len {
            if lx[j] <= qhx && qlx <= hx[j] && ly[j] <= qhy && qly <= hy[j] {
                out.push(ids[j]);
            }
        }
    }

    /// Ids of all items whose rect overlaps `query`, appended to `out`.
    /// Stackless skip-offset traversal; small subtrees are swept linearly.
    pub fn query_into(&self, query: &Rect, out: &mut Vec<u64>) {
        if self.skip.is_empty() || query.is_empty() {
            return;
        }
        let (qlx, qly, qhx, qhy) = (query.lo.x, query.lo.y, query.hi.x, query.hi.y);
        let n = self.skip.len();
        // `[..n]` pins every stream to the loop bound, so the `i < n`
        // check is the only one the traversal pays.
        let skip = &self.skip[..n];
        let nmin_x = &self.nmin_x[..n];
        let nmax_x = &self.nmax_x[..n];
        let nmin_y = &self.nmin_y[..n];
        let nmax_y = &self.nmax_y[..n];
        let leaf_start = &self.leaf_start[..n];
        let leaf_count = &self.leaf_count[..n];
        let mut i = 0usize;
        while i < n {
            let miss = nmin_x[i] > qhx || qlx > nmax_x[i] || nmin_y[i] > qhy || qly > nmax_y[i];
            if miss {
                i = skip[i] as usize;
            } else if leaf_count[i] <= SCAN_CUTOFF {
                let start = leaf_start[i] as usize;
                self.scan_leaves(query, start, start + leaf_count[i] as usize, out);
                i = skip[i] as usize;
            } else {
                i += 1;
            }
        }
    }

    /// Resolve a whole batch of queries in one sweep: hit ids are appended
    /// to `hits`, with `offsets[k]..offsets[k + 1]` delimiting query `k`'s
    /// results (`offsets` gets `queries.len() + 1` entries). Both buffers
    /// are cleared first and reused across calls — steady state performs no
    /// allocation once they have grown to the workload's high-water mark.
    pub fn batch_query(&self, queries: &[Rect], hits: &mut Vec<u64>, offsets: &mut Vec<u32>) {
        hits.clear();
        offsets.clear();
        offsets.push(0);
        for q in queries {
            self.query_into(q, hits);
            offsets.push(hits.len() as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked(tree: &DynamicBvh, live: &[(u64, Rect)], queries: &[Rect]) {
        let snap = FlatBvh::snapshot(tree);
        assert_eq!(snap.len(), live.len());
        assert_eq!(snap.epoch(), tree.epoch());
        let mut hits = Vec::new();
        let mut offsets = Vec::new();
        snap.batch_query(queries, &mut hits, &mut offsets);
        assert_eq!(offsets.len(), queries.len() + 1);
        for (k, q) in queries.iter().enumerate() {
            let mut got: Vec<u64> = hits[offsets[k] as usize..offsets[k + 1] as usize].to_vec();
            got.sort_unstable();
            let mut expect: Vec<u64> = live
                .iter()
                .filter(|(_, r)| r.overlaps(q))
                .map(|(id, _)| *id)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "query {q:?}");
        }
    }

    #[test]
    fn empty_tree_snapshot() {
        let tree = DynamicBvh::new();
        let snap = FlatBvh::snapshot(&tree);
        assert!(snap.is_empty());
        let mut hits = Vec::new();
        let mut offsets = Vec::new();
        snap.batch_query(&[Rect::span(0, 10)], &mut hits, &mut offsets);
        assert!(hits.is_empty());
        assert_eq!(offsets, vec![0, 0]);
    }

    #[test]
    fn matches_dynamic_tree_across_sizes() {
        // Cover both the pure-sweep regime (≤ SCAN_CUTOFF leaves) and the
        // traversal + chunked-sweep regime.
        for n in [1i64, 2, 7, 16, 17, 63, 200] {
            let mut tree = DynamicBvh::new();
            let mut live = Vec::new();
            for i in 0..n {
                let r = Rect::xy(i * 7 % 97, i * 7 % 97 + 10, i * 13 % 53, i * 13 % 53 + 6);
                tree.insert(i as u64, r);
                live.push((i as u64, r));
            }
            let queries = [
                Rect::xy(0, 96, 0, 58),   // everything
                Rect::xy(40, 45, 20, 25), // somewhere in the middle
                Rect::xy(500, 600, 0, 1), // nothing
                Rect::EMPTY,
            ];
            checked(&tree, &live, &queries);
        }
    }

    #[test]
    fn epoch_detects_staleness() {
        let mut tree = DynamicBvh::new();
        tree.insert(1, Rect::span(0, 9));
        let snap = FlatBvh::snapshot(&tree);
        assert_eq!(snap.epoch(), tree.epoch());
        tree.insert(2, Rect::span(20, 29));
        assert_ne!(snap.epoch(), tree.epoch(), "insert must bump the epoch");
        let snap2 = FlatBvh::snapshot(&tree);
        tree.remove(1);
        assert_ne!(snap2.epoch(), tree.epoch(), "remove must bump the epoch");
    }

    #[test]
    fn survives_churn() {
        let mut tree = DynamicBvh::new();
        let mut live: Vec<(u64, Rect)> = Vec::new();
        let mut state = 7u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 300) as i64
        };
        for i in 0..400u64 {
            let (x, y) = (rnd(), rnd());
            let r = Rect::xy(x, x + rnd() % 20, y, y + rnd() % 20);
            tree.insert(i, r);
            live.push((i, r));
            if i % 4 == 0 {
                let victim = live.remove((rnd() as usize) % live.len());
                assert!(tree.remove(victim.0));
            }
        }
        let queries: Vec<Rect> = (0..30)
            .map(|_| {
                let (x, y) = (rnd(), rnd());
                Rect::xy(x, x + 40, y, y + 40)
            })
            .collect();
        checked(&tree, &live, &queries);
    }
}

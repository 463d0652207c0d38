//! Analysis sharding and state ownership — dynamic control replication \[4\].
//!
//! The paper evaluates each engine with and without **DCR** (§8). DCR does
//! not change analysis *results*; it changes *where the analysis runs*:
//!
//! * **Without DCR** the top-level task runs on node 0 and every launch is
//!   analyzed there — a sequential bottleneck at scale, exactly the effect
//!   dominating the no-DCR curves in Figs 12–17.
//! * **With DCR** the top-level task is sharded: the launch for piece `i` is
//!   analyzed by the shard on the node where piece `i` lives, distributing
//!   the source of the analysis across the machine.
//!
//! Analysis *state* (histories, composite views, equivalence sets) is owned
//! by nodes on a first-touch basis, mirroring Legion's migration of
//! equivalence sets to their first user.
//!
//! Ownership versioning is keyed by the **global launch id**, which the
//! combining dispatcher assigns at commit time (PR 7). A combined batch
//! that interleaves several producer contexts therefore needs no special
//! handling here: however the producers' pushes interleaved, each launch's
//! view of the shard map is determined solely by its committed id, exactly
//! as if the interleaved stream had been submitted by one producer.

use viz_geometry::FxHashMap;
use viz_region::RegionId;
use viz_sim::NodeId;

/// Maps analysis work and state to machine nodes.
///
/// Ownership entries are **versioned by the launch that created them**: a
/// lookup on behalf of launch `t` sees exactly the touches of launches
/// `<= t`. The serial driver gets the behavior it always had (each launch
/// touches, then analyzes); the batched driver can touch a whole batch up
/// front and still hand every concurrent scan the view its launch would
/// have seen serially.
#[derive(Clone, Debug)]
pub struct ShardMap {
    nodes: usize,
    dcr: bool,
    owners: FxHashMap<RegionId, (NodeId, u32)>,
}

impl ShardMap {
    pub fn new(nodes: usize, dcr: bool) -> Self {
        ShardMap {
            nodes,
            dcr,
            owners: FxHashMap::default(),
        }
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    pub fn dcr(&self) -> bool {
        self.dcr
    }

    /// The node that analyzes a launch mapped to `task_node`.
    pub fn origin(&self, task_node: NodeId) -> NodeId {
        if self.dcr {
            task_node % self.nodes
        } else {
            0
        }
    }

    /// Record the first-touch owner for a region's analysis state (no-op if
    /// already owned), on behalf of launch `task`.
    pub fn touch(&mut self, region: RegionId, node: NodeId, task: u32) {
        self.owners
            .entry(region)
            .or_insert((node % self.nodes, task));
    }

    /// The owner of analysis state keyed by `region`, as visible to launch
    /// `task`; regions not yet touched by then default to node 0 (the
    /// root's home, where the initial state lives).
    pub fn owner(&self, region: RegionId, task: u32) -> NodeId {
        match self.owners.get(&region) {
            Some((node, touched)) if *touched <= task => *node,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_dcr_everything_originates_on_node_zero() {
        let s = ShardMap::new(8, false);
        for n in 0..8 {
            assert_eq!(s.origin(n), 0);
        }
    }

    #[test]
    fn with_dcr_origin_follows_task_mapping() {
        let s = ShardMap::new(8, true);
        assert_eq!(s.origin(3), 3);
        assert_eq!(s.origin(11), 3, "wraps into the machine");
    }

    #[test]
    fn first_touch_ownership_sticks() {
        let mut s = ShardMap::new(4, true);
        let r = RegionId(7);
        assert_eq!(s.owner(r, 0), 0, "untouched state lives at the root's home");
        s.touch(r, 2, 0);
        s.touch(r, 3, 1);
        assert_eq!(s.owner(r, 1), 2, "first touch wins");
    }

    #[test]
    fn touches_by_later_launches_are_invisible_to_earlier_ones() {
        let mut s = ShardMap::new(4, true);
        let r = RegionId(7);
        // A batch touches regions for every launch before any scan runs;
        // launch 3's touch must not leak into launch 2's view.
        s.touch(r, 1, 3);
        assert_eq!(s.owner(r, 2), 0, "launch 2 predates the touch");
        assert_eq!(s.owner(r, 3), 1, "the toucher itself sees it");
        assert_eq!(s.owner(r, 9), 1, "so does everyone after");
    }

    #[test]
    fn combined_multi_context_batches_version_by_commit_order() {
        // A combined sweep interleaves launches from several contexts;
        // ids are assigned at commit, so the touch order below is exactly
        // the dispatcher's commit order regardless of the source context.
        // Context A committed ids {0, 2}, context B ids {1, 3}.
        let mut s = ShardMap::new(4, true);
        let ra = RegionId(1);
        let rb = RegionId(2);
        s.touch(ra, 3, 0); // A's first launch claims its region on node 3
        s.touch(rb, 2, 1); // B's first launch claims its region on node 2
        s.touch(ra, 1, 2); // A's second launch: already owned, no-op
        s.touch(rb, 1, 3); // B's second launch: already owned, no-op
        assert_eq!(s.owner(ra, 2), 3, "A's state stays where A first put it");
        assert_eq!(s.owner(rb, 3), 2, "B's state stays where B first put it");
        // A launch committed before a region's first touch never sees it,
        // even when the touch came from another context.
        assert_eq!(s.owner(rb, 0), 0);
    }
}

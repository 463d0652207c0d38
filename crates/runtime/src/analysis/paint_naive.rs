//! The painter's algorithm, unoptimized (paper Fig 7).
//!
//! The state is a single global history per `(region tree, field)`: a list
//! of `(privilege, region)` results in commit order. Materializing a region
//! replays the history — here as one backward visibility scan, which is the
//! same computation as Fig 7's oldest-to-newest `paint` but produces the
//! dependences along the way.
//!
//! "The algorithm in Figure 7 is simple but inefficient. When materializing
//! a subregion R, the naive painter's algorithm requires testing every
//! operation in the history for overlap with R." (§5.1) — this engine is
//! exactly that baseline, kept for ablation A1. The one concession to
//! practicality is an optional occlusion-pruning rule on commit (a write
//! whose domain covers an older entry deletes it), which §5.1 also
//! describes; it is on by default and can be disabled to get the literal
//! Fig 7 behavior.

use crate::analysis::history::{HistEntry, VisScan};
use crate::analysis::{group_reqs_by_shard, ChargeSet, ReqOutcome, ShardKey, ShardedState};
use crate::engine::{CoherenceEngine, GcSweep, ShardCtx, StateSize};
use crate::task::TaskLaunch;
use viz_geometry::IndexSpace;
use viz_sim::Op;

/// One global history per (root region, field); the occlusion-prune
/// containment tests go through the root's geometry.
pub struct PaintNaive {
    shards: ShardedState<Vec<HistEntry>>,
    prune_occluded: bool,
}

impl PaintNaive {
    pub fn new() -> Self {
        PaintNaive {
            shards: ShardedState::new(),
            prune_occluded: true,
        }
    }

    /// The literal Fig 7 algorithm: commit appends unconditionally and the
    /// history only ever grows.
    pub fn without_pruning() -> Self {
        PaintNaive {
            prune_occluded: false,
            ..Self::new()
        }
    }
}

impl Default for PaintNaive {
    fn default() -> Self {
        Self::new()
    }
}

impl CoherenceEngine for PaintNaive {
    fn name(&self) -> &'static str {
        "paint-naive"
    }

    fn prepare(&mut self, launch: &TaskLaunch, ctx: &ShardCtx<'_>) -> Vec<(ShardKey, Vec<u32>)> {
        let groups = group_reqs_by_shard(launch, ctx.forest);
        for (key, _) in &groups {
            self.shards.get_or_insert_with(*key, ctx.forest, Vec::new);
        }
        groups
    }

    fn analyze_shard(
        &self,
        key: ShardKey,
        launch: &TaskLaunch,
        reqs: &[u32],
        ctx: &ShardCtx<'_>,
    ) -> Vec<ReqOutcome> {
        let origin = ctx.shards.origin(launch.node);
        let (mut hist, mut geom) = self.shards.lock(key);
        let hist = &mut *hist;
        let mut outcomes: Vec<ReqOutcome> = Vec::with_capacity(reqs.len());
        let mut new_entries: Vec<HistEntry> = Vec::with_capacity(reqs.len());

        for &ri in reqs {
            let req = &launch.reqs[ri as usize];
            let domain = ctx.forest.domain(req.region).clone();
            let mut scan = VisScan::new(domain.clone(), req.privilege);
            for e in hist.iter().rev() {
                scan.visit(e);
                if scan.done() && self.prune_occluded {
                    break;
                }
            }
            // Charge: the whole history lives at node 0 (a single global
            // list; the naive painter predates any distribution). In the
            // literal Fig 7 mode, *every* operation in the history is
            // tested for overlap with R, including fully occluded ones —
            // "the naive painter's algorithm requires testing every
            // operation in the history" (§5.1).
            let tested = if self.prune_occluded {
                scan.entries_scanned
            } else {
                hist.len()
            };
            let mut charges = ChargeSet::new();
            charges.add(0, Op::HistScan { entries: tested });
            charges.add(
                0,
                Op::GeomOp {
                    rects: scan.geom_ops,
                },
            );
            let (deps, plan) = scan.finish();
            for _ in &deps {
                charges.add(0, Op::DepRecord);
            }
            let mut out = ReqOutcome {
                req: ri,
                deps,
                plan,
                ..ReqOutcome::default()
            };
            charges.flush_into(&mut out.scan_log, origin);
            outcomes.push(out);
            new_entries.push(HistEntry {
                task: launch.id,
                req: ri,
                privilege: req.privilege,
                domain,
            });
        }

        // Commit: append the results of all requirements (Fig 7 line 20).
        for (out, entry) in outcomes.iter_mut().zip(new_entries) {
            if self.prune_occluded && entry.privilege.is_write() {
                // §5.1's occlusion rule, applied at entry granularity: an
                // older entry wholly covered by this write can never be
                // visible again.
                let mut rects = 0;
                let alg = &mut geom.alg;
                hist.retain(|old| {
                    rects += 1;
                    !alg.contains_spaces(&entry.domain, &old.domain)
                });
                out.commit_log.op(0, Op::GeomOp { rects });
            }
            hist.push(entry);
        }
        outcomes
    }

    fn collect(&mut self, _floor: crate::task::TaskId) -> GcSweep {
        // Union occlusion: the commit-time prune only drops an entry when a
        // *single* newer write covers it; a sweep can accumulate the union
        // of all newer write domains and drop anything underneath (e.g. a
        // whole-region read jointly occluded by four piece writes). An
        // entry fully covered by newer writes is invisible to every future
        // backward scan — it contributes no dependence and no plan source
        // (occluded entries yield no edges; ordering is transitive through
        // the covering writes, §3.2) — so dropping it is observationally
        // identical, independent of the watermark.
        let mut sweep = GcSweep::default();
        for (_, hist) in self.shards.iter_mut() {
            if !self.prune_occluded {
                continue; // literal Fig 7 mode: the history only grows
            }
            let mut cover = IndexSpace::empty();
            let mut keep = vec![true; hist.len()];
            for (i, e) in hist.iter().enumerate().rev() {
                if !cover.is_empty() && cover.contains(&e.domain) {
                    keep[i] = false;
                    continue;
                }
                if e.privilege.is_write() {
                    cover = cover.union(&e.domain);
                }
            }
            let mut idx = 0;
            hist.retain(|_| {
                let k = keep[idx];
                idx += 1;
                if !k {
                    sweep.history_entries += 1;
                }
                k
            });
        }
        sweep
    }

    fn state_size(&self) -> StateSize {
        let mut sz = StateSize::default();
        for (_, hist) in self.shards.iter() {
            sz.history_entries += hist.len();
        }
        self.shards.add_algebra_stats(&mut sz);
        sz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnalysisCtx;
    use crate::sharding::ShardMap;
    use crate::task::{RegionRequirement, TaskId};
    use viz_region::{FieldId, RegionForest, RegionId};
    use viz_sim::Machine;

    fn setup() -> (RegionForest, RegionId, FieldId) {
        let mut f = RegionForest::new();
        let r = f.create_root_1d("A", 100);
        let fld = f.add_field(r, "v");
        (f, r, fld)
    }

    fn launch(id: u32, reqs: Vec<RegionRequirement>) -> TaskLaunch {
        TaskLaunch {
            id: TaskId(id),
            name: format!("t{id}"),
            node: 0,
            ctx: 0,
            reqs,
            duration_ns: 0,
        }
    }

    #[test]
    fn independent_writers_have_no_deps() {
        let (forest, root, fld) = setup();
        let mut f2 = forest.clone();
        let p = f2.create_equal_partition_1d(root, "P", 4);
        let mut eng = PaintNaive::new();
        let mut machine = Machine::new(1);
        let shards = ShardMap::new(1, false);
        let mut ctx = AnalysisCtx {
            forest: &f2,
            machine: &mut machine,
            shards: &shards,
        };
        for i in 0..4 {
            let r = eng.analyze(
                &launch(
                    i,
                    vec![RegionRequirement::read_write(
                        f2.subregion(p, i as usize),
                        fld,
                    )],
                ),
                &mut ctx,
            );
            assert!(r.deps.is_empty(), "disjoint pieces are parallel");
        }
    }

    #[test]
    fn reader_depends_on_overlapping_writer() {
        let (forest, root, fld) = setup();
        let mut eng = PaintNaive::new();
        let mut machine = Machine::new(1);
        let shards = ShardMap::new(1, false);
        let mut ctx = AnalysisCtx {
            forest: &forest,
            machine: &mut machine,
            shards: &shards,
        };
        eng.analyze(
            &launch(0, vec![RegionRequirement::read_write(root, fld)]),
            &mut ctx,
        );
        let r = eng.analyze(
            &launch(1, vec![RegionRequirement::read(root, fld)]),
            &mut ctx,
        );
        assert_eq!(r.deps, vec![TaskId(0)]);
        assert_eq!(r.plans[0].copies.len(), 1);
    }

    #[test]
    fn pruning_bounds_history_under_repeated_writes() {
        let (forest, root, fld) = setup();
        let mut eng = PaintNaive::new();
        let mut eng_literal = PaintNaive::without_pruning();
        let mut machine = Machine::new(1);
        let shards = ShardMap::new(1, false);
        for i in 0..10 {
            let l = launch(i, vec![RegionRequirement::read_write(root, fld)]);
            let mut ctx = AnalysisCtx {
                forest: &forest,
                machine: &mut machine,
                shards: &shards,
            };
            eng.analyze(&l, &mut ctx);
            let mut ctx = AnalysisCtx {
                forest: &forest,
                machine: &mut machine,
                shards: &shards,
            };
            eng_literal.analyze(&l, &mut ctx);
        }
        assert_eq!(eng.state_size().history_entries, 1);
        assert_eq!(eng_literal.state_size().history_entries, 10);
    }

    #[test]
    fn fields_are_independent() {
        let (mut forest, root, fld) = setup();
        let fld2 = forest.add_field(root, "w");
        let mut eng = PaintNaive::new();
        let mut machine = Machine::new(1);
        let shards = ShardMap::new(1, false);
        let mut ctx = AnalysisCtx {
            forest: &forest,
            machine: &mut machine,
            shards: &shards,
        };
        eng.analyze(
            &launch(0, vec![RegionRequirement::read_write(root, fld)]),
            &mut ctx,
        );
        let r = eng.analyze(
            &launch(1, vec![RegionRequirement::read_write(root, fld2)]),
            &mut ctx,
        );
        assert!(r.deps.is_empty(), "different fields never interfere");
    }
}

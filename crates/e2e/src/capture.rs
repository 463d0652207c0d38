//! The capture pass: run the app once, black box, on a scratch runtime and
//! keep everything a measured rep needs to replay the same launch stream
//! without the app — the region forest, the launches, the wave structure —
//! plus what a rep must reproduce: per-launch dependences, a digest of all
//! `(deps, plans)`, and the simulated machine's counters and clock.

use crate::clock::RefClock;
use crate::workloads::{Path, Workload};
use std::hash::Hasher;
use std::ops::Range;
use viz_geometry::{FxHasher, IndexSpace};
use viz_region::RegionForest;
use viz_runtime::{AnalysisResult, LaunchSpec, Runtime, Source, TaskId, TaskLaunch};
use viz_sim::Counters;

/// One `submit_batch` call of the app: a maximal run of equal launch
/// names. Everything before the first name containing `[` (the apps'
/// per-iteration suffix) is the single init wave.
#[derive(Clone, Debug)]
pub struct Wave {
    pub name: String,
    pub range: Range<usize>,
    /// Top-level loop iteration the wave belongs to (init wave: 0).
    pub iteration: usize,
}

pub struct Capture {
    pub forest: RegionForest,
    pub launches: Vec<TaskLaunch>,
    pub deps: Vec<Vec<TaskId>>,
    pub digest: u64,
    pub counters: Counters,
    pub sim_time: u64,
    pub waves: Vec<Wave>,
    /// Last launch of each top-level iteration; `iter_end[0]` closes the
    /// initialization phase.
    pub iter_end: Vec<TaskId>,
    pub elements_per_iter: u64,
    pub nodes: usize,
    pub build_ms: f64,
    pub execute_cold_ms: f64,
}

impl Capture {
    /// Launches of the initialization phase (init wave + iteration 0).
    pub fn init_launches(&self) -> usize {
        self.iter_end[0].index() + 1
    }

    pub fn steady_launches(&self) -> usize {
        self.launches.len() - self.init_launches()
    }

    /// Fresh specs for one rep, wave by wave. Built outside every timed
    /// window: `submit_batch` consumes them.
    pub fn build_specs(&self) -> Vec<Vec<LaunchSpec>> {
        self.waves
            .iter()
            .map(|w| {
                self.launches[w.range.clone()]
                    .iter()
                    .map(|l| {
                        LaunchSpec::new(l.name.clone(), l.node, l.reqs.clone(), l.duration_ns, None)
                    })
                    .collect()
            })
            .collect()
    }

    /// Did `rt` commit exactly the captured analysis? Launch count,
    /// `(deps, plans)` digest, operation counters and simulated clock.
    pub fn matches(&self, rt: &Runtime) -> bool {
        rt.launches().len() == self.launches.len()
            && digest(&rt.results()) == self.digest
            && *rt.machine().counters() == self.counters
            && rt.machine().time() == self.sim_time
    }
}

/// Timed on `clock` piece by piece; the black-box `execute` is the one
/// piece that cannot be cut shorter than a clock phase.
pub fn capture(w: &Workload, clock: &mut RefClock) -> Capture {
    let (app, build_ns) = clock.time(|| w.app.build());

    let nodes = w.app.nodes();
    let ((rt, run), execute_ns) = clock.time(|| {
        let mut rt = Runtime::new(Path::SYNC.config(nodes));
        let run = app.execute(&mut rt);
        rt.flush();
        (rt, run)
    });

    assert!(!run.iter_end.is_empty(), "apps report their iterations");
    clock
        .time(|| {
            let forest = rt.forest().clone();
            let launches = rt.launches().to_vec();
            let results = rt.results();
            let waves = waves_of(&launches, &run.iter_end);
            let counters = rt.machine().counters().clone();
            let sim_time = rt.machine().time();
            Capture {
                forest,
                digest: digest(&results),
                deps: results.into_iter().map(|r| r.deps).collect(),
                counters,
                sim_time,
                waves,
                launches,
                iter_end: run.iter_end,
                elements_per_iter: run.elements_per_iter,
                nodes,
                build_ms: build_ns / 1e6,
                execute_cold_ms: execute_ns / 1e6,
            }
        })
        .0
}

fn waves_of(launches: &[TaskLaunch], iter_end: &[TaskId]) -> Vec<Wave> {
    let first_iterated = launches
        .iter()
        .position(|l| l.name.contains('['))
        .unwrap_or(launches.len());
    let mut waves = Vec::new();
    if first_iterated > 0 {
        waves.push(Wave {
            name: "init".into(),
            range: 0..first_iterated,
            iteration: 0,
        });
    }
    let mut start = first_iterated;
    let mut iteration = 0;
    while start < launches.len() {
        let mut end = start + 1;
        while end < launches.len() && launches[end].name == launches[start].name {
            end += 1;
        }
        while iter_end[iteration].index() < end - 1 {
            iteration += 1;
        }
        waves.push(Wave {
            name: launches[start].name.clone(),
            range: start..end,
            iteration,
        });
        start = end;
    }
    waves
}

fn hash_space(h: &mut FxHasher, s: &IndexSpace) {
    h.write_usize(s.rects().len());
    for r in s.rects() {
        for c in [r.lo.x, r.lo.y, r.hi.x, r.hi.y] {
            h.write_i64(c);
        }
    }
}

/// An order-sensitive digest of every launch's dependences and
/// materialization plans: two runs with equal digests made the same
/// analysis decisions, rect for rect.
pub fn digest(results: &[AnalysisResult]) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(results.len());
    for r in results {
        h.write_usize(r.deps.len());
        for d in &r.deps {
            h.write_u32(d.0);
        }
        h.write_usize(r.plans.len());
        for p in &r.plans {
            h.write_usize(p.copies.len());
            for c in &p.copies {
                match c.source {
                    Source::Initial => h.write_u64(u64::MAX),
                    Source::Task(t, req) => h.write_u64((t.0 as u64) << 32 | req as u64),
                }
                hash_space(&mut h, &c.domain);
            }
            h.write_usize(p.reductions.len());
            for red in &p.reductions {
                h.write_u64((red.task.0 as u64) << 32 | red.req as u64);
                h.write_u32(red.redop.0);
                hash_space(&mut h, &red.domain);
            }
            h.write_u64(p.fill_identity.map_or(u64::MAX, |op| op.0 as u64));
        }
    }
    h.finish()
}

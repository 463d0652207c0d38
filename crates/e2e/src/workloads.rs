//! The workloads: which app, at what size, through which submission path.
//! Sizes were chosen on a 2-core host so one rep is one to three seconds;
//! `smoke` sizes keep the test suite under ten seconds.

use viz_apps::{
    Circuit, CircuitConfig, Pennant, PennantConfig, Stencil, StencilConfig, Workload as App,
};
use viz_runtime::{EngineKind, RuntimeConfig};

/// Every workload analyses with the paper's final algorithm.
pub const ENGINE: EngineKind = EngineKind::RayCast;

/// How launches reach the analysis. Only the structural setters a workload
/// names are applied on top of `RuntimeConfig::base`: the benchmark
/// measures what the defaults give a user.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Path {
    /// `analysis_threads`: more than one routes batches through the
    /// sharded scan driver.
    pub threads: usize,
    /// Pipelined frontend, submitted through one tenant `Context` on its
    /// own thread (application thread + dispatcher = 2 busy threads).
    pub pipeline: bool,
    pub validate: bool,
}

impl Path {
    pub const SYNC: Path = Path {
        threads: 1,
        pipeline: false,
        validate: true,
    };

    pub fn config(self, nodes: usize) -> RuntimeConfig {
        let cfg = RuntimeConfig::base(ENGINE)
            .nodes(nodes)
            .analysis_threads(self.threads)
            .validate(self.validate);
        if self.pipeline {
            // The facade's ring plus the one tenant.
            cfg.pipeline(true).submit_rings(2)
        } else {
            cfg
        }
    }
}

#[derive(Clone, Debug)]
pub enum AppConfig {
    Stencil(StencilConfig),
    Circuit(CircuitConfig),
    Pennant(PennantConfig),
}

impl AppConfig {
    pub fn build(&self) -> Box<dyn App> {
        match self {
            AppConfig::Stencil(c) => Box::new(Stencil::new(c.clone())),
            AppConfig::Circuit(c) => Box::new(Circuit::new(c.clone())),
            AppConfig::Pennant(c) => Box::new(Pennant::new(c.clone())),
        }
    }

    pub fn nodes(&self) -> usize {
        match self {
            AppConfig::Stencil(c) => c.nodes,
            AppConfig::Circuit(c) => c.nodes,
            AppConfig::Pennant(c) => c.nodes,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Timed mode (no bodies): the measured stream.
    pub app: AppConfig,
    /// The small value-mode twin whose probes are checked bit for bit.
    pub twin: AppConfig,
    /// The path every end-to-end metric is measured on: the defaults a
    /// user gets, which are single-threaded.
    pub path: Path,
    /// The special submission path (sharded scan driver, pipelined rings)
    /// the per-layer run compares it with, rep against rep. On a 2-vCPU
    /// guest a multi-threaded path runs at a speed set by where the
    /// scheduler puts its threads, so none is measured end to end.
    pub alt: Option<Path>,
    /// Does `--seed` change the launch stream? (Stencil and Pennant are
    /// fully determined by their size.)
    pub seeded: bool,
}

pub const NAMES: [&str; 3] = ["stencil_steady", "circuit_sparse", "pennant_waves"];

/// The one-line reason each workload exists (also in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "stencil_steady" => {
            "Dense single-rect regions in dominating-write steady state: launches are cheap, so \
             per-launch bookkeeping has its largest share; its per-layer run also drives the \
             sharded scan path."
        }
        "circuit_sparse" => {
            "Sparse multi-rect ghost spaces with reduce+ on aliased nodes: engine and geometry \
             do nearly all the work; the heavy setup_s and peak_rss_mb case."
        }
        "pennant_waves" => {
            "Many small waves, several reduction operators and a singleton launch per iteration \
             stress per-batch overhead; its per-layer run also drives the pipelined ring path."
        }
        _ => panic!("unknown workload {name}"),
    }
}

/// SplitMix64: the harness's only random source, so inputs depend on
/// nothing but `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

pub fn workload(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let circuit_seed = Rng::new(seed).next_u64();
    Some(match name {
        "stencil_steady" => Workload {
            name: NAMES[0],
            app: AppConfig::Stencil(StencilConfig {
                iterations: if smoke { 4 } else { 48 },
                ..StencilConfig::paper(if smoke { 16 } else { 1024 })
            }),
            twin: AppConfig::Stencil(StencilConfig::small(4, 6, 3)),
            path: Path::SYNC,
            // Two analysis threads over the `in` and `out` field shards.
            alt: Some(Path {
                threads: 2,
                ..Path::SYNC
            }),
            seeded: false,
        },
        "circuit_sparse" => Workload {
            name: NAMES[1],
            app: AppConfig::Circuit(CircuitConfig {
                iterations: if smoke { 3 } else { 8 },
                seed: circuit_seed,
                ..CircuitConfig::paper(if smoke { 8 } else { 512 })
            }),
            twin: AppConfig::Circuit(CircuitConfig {
                seed: circuit_seed,
                ..CircuitConfig::small(4, 3)
            }),
            path: Path::SYNC,
            alt: None,
            seeded: true,
        },
        "pennant_waves" => Workload {
            name: NAMES[2],
            app: AppConfig::Pennant(PennantConfig {
                iterations: if smoke { 6 } else { 100 },
                ..PennantConfig::paper(if smoke { 8 } else { 256 })
            }),
            twin: AppConfig::Pennant(PennantConfig::small(4, 3)),
            path: Path::SYNC,
            alt: Some(Path {
                pipeline: true,
                ..Path::SYNC
            }),
            seeded: false,
        },
        _ => return None,
    })
}

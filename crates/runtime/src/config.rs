//! The one config front door: every `VIZ_*` environment knob the runtime
//! honors is parsed here, and only here.
//!
//! Precedence is uniform across all knobs: **explicit builder setters beat
//! the environment, which beats the built-in defaults.**
//! [`RuntimeConfig::new`] applies [`EnvOverrides::capture`] over
//! [`RuntimeConfig::base`], so setters called afterwards always win;
//! `base()` skips the environment entirely. [`EnvOverrides::capture`] is
//! the only place this crate reads the process environment: nothing below
//! `RuntimeConfig::new` — engine construction included — consults it.
//! [`RuntimeConfig`] lives here, beside [`EnvOverrides::apply`], the only
//! other code that knows its fields.
//!
//! # Knob table
//!
//! | Variable | Default | Effect |
//! |---|---|---|
//! | `VIZ_ANALYSIS_THREADS` | `1` | worker threads for the sharded batch analysis (1 = serial) |
//! | `VIZ_PIPELINE` | off | `1`/`true` runs analysis on a dedicated driver thread |
//! | `VIZ_GC` | off | `1`/`true` enables history garbage collection (watermark past the oldest unretired launch) |
//! | `VIZ_GC_INTERVAL` | `1024` | launches between collections (amortizes the sweep) |
//! | `VIZ_GC_RETAIN` | `256` | most-recent launches always kept un-retired |

use crate::engine::EngineKind;
use viz_sim::CostModel;

/// History-GC configuration (see DESIGN.md §7i).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GcConfig {
    /// Retire per-task bookkeeping (launch metadata, owned analysis
    /// results) and dead engine state older than the watermark. Dependences, plans, and simulated charges are
    /// byte-identical with GC on or off; only
    /// [`Runtime::execute_values`](crate::Runtime::execute_values) /
    /// [`Runtime::timed_schedule`](crate::Runtime::timed_schedule) become
    /// unavailable once anything has actually been retired (they replay
    /// the full history).
    pub enabled: bool,
    /// Launches between collections: the watermark only advances once at
    /// least this many launches are retirable, so sweeps amortize.
    pub interval: u32,
    /// The most recent `retain` launches are never retired (introspection
    /// of fresh results stays valid between collections).
    pub retain: u32,
}

pub const DEFAULT_GC_INTERVAL: u32 = 1024;
pub const DEFAULT_GC_RETAIN: u32 = 256;

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            enabled: false,
            interval: DEFAULT_GC_INTERVAL,
            retain: DEFAULT_GC_RETAIN,
        }
    }
}

/// Configuration for a [`crate::Runtime`].
///
/// # Environment variables
///
/// Every `VIZ_*` knob parses through this module, which documents the
/// full table ([`KNOBS`]) — so existing binaries and the differential CI
/// jobs can flip execution strategies without code changes. Precedence is
/// strict: builder setters beat the environment beats the built-in default
/// ([`RuntimeConfig::new`] applies [`EnvOverrides`] once, setters run
/// after; [`RuntimeConfig::base`] skips the environment entirely).
///
/// Marked `#[non_exhaustive]`: construct with [`RuntimeConfig::new`] and
/// the builder setters.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of simulated machine nodes.
    pub nodes: usize,
    /// Which visibility engine performs the analysis.
    pub engine: EngineKind,
    /// Dynamic control replication: shard the analysis across nodes \[4\].
    pub dcr: bool,
    /// Cost model for the simulated machine.
    pub cost: CostModel,
    /// Check the §4 requirement-aliasing rule (and region/field validity)
    /// on every submission (on by default; benchmarks at large scales may
    /// disable it).
    pub validate_launches: bool,
    /// Worker threads for the sharded analysis driver: with more than one,
    /// a batch's per-(root, field) shard scans run concurrently. Defaults
    /// from `VIZ_ANALYSIS_THREADS` (else 1 = serial).
    pub analysis_threads: usize,
    /// Online automatic trace detection: watch the launch stream for
    /// repeated subsequences and replay them without `begin_trace`
    /// annotations. On by default: replay is the steady state. Only the
    /// paper's untraced measurements (§8) and tests of the analyzed path
    /// turn it off, with [`RuntimeConfig::auto_trace`].
    pub auto_trace: bool,
    /// Pipelined submission: launches are validated on the application
    /// thread, pushed into a bounded queue, and analyzed by a dedicated
    /// driver thread — application, analysis, and (simulated) execution
    /// overlap. Results are byte-identical to the synchronous path.
    /// Defaults from `VIZ_PIPELINE`.
    pub pipeline: bool,
    /// Backpressure bound, per producer: a submission blocks while this
    /// many of its own producer's launches sit in the submission queue, not
    /// yet taken by the driver. Other producers are not affected.
    pub pipeline_depth: usize,
    /// Live producers on the pipelined submission plane. The
    /// [`crate::Runtime`] facade is one, so up to `submit_rings - 1` tenant
    /// [`crate::Context`]s can be live at once
    /// ([`crate::Runtime::new_context`] returns
    /// [`crate::RuntimeError::RingsExhausted`] past that). Defaults to 8;
    /// ignored in synchronous mode. (Named for the per-producer rings the
    /// one shared queue replaced; callers still use the name.)
    pub submit_rings: usize,
    /// Interning/memoization configuration of the region forest's per-root
    /// set algebras, which every engine runs on (enabled by default;
    /// `InternConfig::disabled()` is the direct-sweep reference of the
    /// differential tests). A forest installed wholesale brings its own.
    pub intern: viz_geometry::InternConfig,
    /// History garbage collection (see [`GcConfig`]). Defaults from
    /// `VIZ_GC` / `VIZ_GC_INTERVAL` / `VIZ_GC_RETAIN`. With GC enabled the
    /// runtime retires per-task bookkeeping below a watermark, so whole-history
    /// operations ([`crate::Runtime::execute_values`],
    /// [`crate::Runtime::timed_schedule`]) panic once anything has retired —
    /// GC mode is for analysis streaming, not value execution.
    pub gc: GcConfig,
}

const DEFAULT_PIPELINE_DEPTH: usize = 256;
pub(crate) const DEFAULT_SUBMIT_RINGS: usize = 8;

impl RuntimeConfig {
    /// The standard constructor: built-in defaults with the captured
    /// `VIZ_*` environment applied on top ([`EnvOverrides`]).
    /// Builder setters run after and therefore win.
    pub fn new(engine: EngineKind) -> Self {
        EnvOverrides::capture().apply(Self::base(engine))
    }

    /// The pure built-in defaults — the environment is *not* consulted.
    /// Hermetic tests and the config-precedence suite start here.
    pub fn base(engine: EngineKind) -> Self {
        RuntimeConfig {
            nodes: 1,
            engine,
            dcr: false,
            cost: CostModel::default(),
            validate_launches: true,
            analysis_threads: 1,
            auto_trace: true,
            pipeline: false,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            submit_rings: DEFAULT_SUBMIT_RINGS,
            intern: viz_geometry::InternConfig::default(),
            gc: GcConfig::default(),
        }
    }

    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    pub fn dcr(mut self, dcr: bool) -> Self {
        self.dcr = dcr;
        self
    }

    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    pub fn validate(mut self, v: bool) -> Self {
        self.validate_launches = v;
        self
    }

    // --------------------------------------------------------------
    // Execution strategy (env-var parity documented on the type)
    // --------------------------------------------------------------

    pub fn analysis_threads(mut self, n: usize) -> Self {
        self.analysis_threads = n.max(1);
        self
    }

    /// Toggle online automatic trace detection (on by default; off only
    /// for untraced measurements and tests of the analyzed path).
    pub fn auto_trace(mut self, on: bool) -> Self {
        self.auto_trace = on;
        self
    }

    /// Toggle the pipelined submission frontend.
    pub fn pipeline(mut self, on: bool) -> Self {
        self.pipeline = on;
        self
    }

    /// Per-producer submission-queue bound (backpressure, min 1).
    pub fn pipeline_depth(mut self, n: usize) -> Self {
        self.pipeline_depth = n.max(1);
        self
    }

    /// Live producers on the pipelined plane (min 2: the facade plus at
    /// least one tenant context).
    pub fn submit_rings(mut self, n: usize) -> Self {
        self.submit_rings = n.max(2);
        self
    }

    /// Pin the forest's interning configuration.
    pub fn intern(mut self, cfg: viz_geometry::InternConfig) -> Self {
        self.intern = cfg;
        self
    }

    /// Toggle history garbage collection (retire per-task bookkeeping and
    /// dead engine state below the watermark).
    pub fn history_gc(mut self, on: bool) -> Self {
        self.gc.enabled = on;
        self
    }

    /// Launches between collection sweeps (min 1).
    pub fn gc_interval(mut self, n: u32) -> Self {
        self.gc.interval = n.max(1);
        self
    }

    /// Launches kept below the frontier at each sweep — the unretired
    /// window readers may still address.
    pub fn gc_retain(mut self, n: u32) -> Self {
        self.gc.retain = n;
        self
    }
}

/// The environment's view of every runtime knob: `None` = variable unset
/// (or unparsable) = fall through to the built-in default. Captured once
/// by [`RuntimeConfig::new`]; tests inject a
/// fake environment through [`EnvOverrides::capture_from`].
#[derive(Clone, Debug, Default)]
pub struct EnvOverrides {
    pub analysis_threads: Option<usize>,
    pub pipeline: Option<bool>,
    pub gc: Option<bool>,
    pub gc_interval: Option<u32>,
    pub gc_retain: Option<u32>,
}

fn parse_flag(s: &str) -> bool {
    let s = s.trim();
    s == "1" || s.eq_ignore_ascii_case("true")
}

impl EnvOverrides {
    /// Capture from the process environment.
    pub fn capture() -> Self {
        Self::capture_from(|k| std::env::var(k).ok())
    }

    /// Capture from an arbitrary key→value source (the precedence tests
    /// use a map instead of mutating the process environment).
    pub fn capture_from(get: impl Fn(&str) -> Option<String>) -> Self {
        let num = |k: &str| get(k).and_then(|s| s.trim().parse::<usize>().ok());
        let num32 = |k: &str| get(k).and_then(|s| s.trim().parse::<u32>().ok());
        let flag = |k: &str| get(k).map(|s| parse_flag(&s));
        EnvOverrides {
            analysis_threads: num("VIZ_ANALYSIS_THREADS").filter(|n| *n >= 1),
            pipeline: flag("VIZ_PIPELINE"),
            gc: flag("VIZ_GC"),
            gc_interval: num32("VIZ_GC_INTERVAL"),
            gc_retain: num32("VIZ_GC_RETAIN"),
        }
    }

    /// Overlay these overrides on a config: set knobs replace the config's
    /// current values, unset knobs leave them alone. Called by
    /// [`RuntimeConfig::new`] *before* any
    /// builder setter runs, which is exactly the
    /// explicit > environment > default precedence.
    pub fn apply(&self, mut cfg: RuntimeConfig) -> RuntimeConfig {
        if let Some(n) = self.analysis_threads {
            cfg.analysis_threads = n.max(1);
        }
        if let Some(on) = self.pipeline {
            cfg.pipeline = on;
        }
        if let Some(on) = self.gc {
            cfg.gc.enabled = on;
        }
        if let Some(n) = self.gc_interval {
            cfg.gc.interval = n.max(1);
        }
        if let Some(n) = self.gc_retain {
            cfg.gc.retain = n;
        }
        cfg
    }
}

/// One documented knob (variable name, default, one-line effect) — the
/// single source the README table is refreshed from, and what the
/// coverage test pins against [`EnvOverrides`].
pub struct Knob {
    pub var: &'static str,
    pub default: &'static str,
    pub effect: &'static str,
}

/// Every `VIZ_*` variable the runtime honors.
pub const KNOBS: &[Knob] = &[
    Knob {
        var: "VIZ_ANALYSIS_THREADS",
        default: "1",
        effect: "worker threads for the sharded batch analysis (1 = serial)",
    },
    Knob {
        var: "VIZ_PIPELINE",
        default: "off",
        effect: "analysis on a dedicated driver thread, overlapped with submission",
    },
    Knob {
        var: "VIZ_GC",
        default: "off",
        effect: "history garbage collection past the oldest unretired launch",
    },
    Knob {
        var: "VIZ_GC_INTERVAL",
        default: "1024",
        effect: "launches between collections",
    },
    Knob {
        var: "VIZ_GC_RETAIN",
        default: "256",
        effect: "most-recent launches always kept un-retired",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;

    fn fake_env<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(var, _)| *var == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn env_beats_default() {
        let env = fake_env(&[
            ("VIZ_ANALYSIS_THREADS", "4"),
            ("VIZ_GC", "1"),
            ("VIZ_GC_RETAIN", "32"),
        ]);
        let cfg = EnvOverrides::capture_from(env).apply(RuntimeConfig::base(EngineKind::RayCast));
        assert_eq!(cfg.analysis_threads, 4);
        assert!(cfg.gc.enabled);
        assert_eq!(cfg.gc.retain, 32);
        assert_eq!(
            cfg.gc.interval, DEFAULT_GC_INTERVAL,
            "untouched knob keeps default"
        );
    }

    #[test]
    fn explicit_setter_beats_env() {
        let env = fake_env(&[
            ("VIZ_ANALYSIS_THREADS", "4"),
            ("VIZ_GC", "1"),
            ("VIZ_PIPELINE", "1"),
        ]);
        // RuntimeConfig::new applies env first; setters run after.
        let cfg = EnvOverrides::capture_from(env)
            .apply(RuntimeConfig::base(EngineKind::Warnock))
            .analysis_threads(2)
            .history_gc(false)
            .pipeline(false);
        assert_eq!(cfg.analysis_threads, 2);
        assert!(!cfg.gc.enabled);
        assert!(!cfg.pipeline);
    }

    #[test]
    fn base_ignores_env_entirely() {
        let cfg = RuntimeConfig::base(EngineKind::Paint);
        assert_eq!(cfg.analysis_threads, 1);
        assert!(!cfg.gc.enabled);
        assert!(cfg.auto_trace, "replay is the default steady state");
    }

    #[test]
    fn unset_and_unparsable_fall_through() {
        let o = EnvOverrides::capture_from(fake_env(&[
            ("VIZ_ANALYSIS_THREADS", "zero"),
            ("VIZ_GC_INTERVAL", "-3"),
        ]));
        assert!(o.analysis_threads.is_none());
        assert!(o.gc_interval.is_none());
        assert!(o.gc.is_none());
        let cfg = o.apply(RuntimeConfig::base(EngineKind::PaintNaive));
        assert_eq!(cfg.gc.interval, DEFAULT_GC_INTERVAL);
    }

    /// Every `VIZ_[A-Z_]+` token in `text` (the bare `VIZ_*` glob is not one).
    fn viz_tokens(text: &str) -> Vec<&str> {
        text.match_indices("VIZ_")
            .map(|(at, _)| {
                let rest = &text[at..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .filter(|tok| *tok != "VIZ_")
            .collect()
    }

    #[test]
    fn knob_table_covers_every_override() {
        // Every capture_from key must appear in KNOBS and vice versa.
        let probed = std::cell::RefCell::new(Vec::new());
        let _ = EnvOverrides::capture_from(|k| {
            probed.borrow_mut().push(k.to_string());
            None
        });
        let probed = probed.into_inner();
        for var in &probed {
            assert!(
                KNOBS.iter().any(|k| k.var == var),
                "undocumented knob {var}"
            );
        }
        assert_eq!(probed.len(), KNOBS.len(), "stale row in the knob table");
        assert_eq!(KNOBS.len(), 5);

        // The two prose copies of the table — the README and this module's
        // doc — name exactly the KNOBS variables; DESIGN.md names no other.
        let module_doc: String = include_str!("config.rs")
            .lines()
            .filter(|l| l.starts_with("//! |"))
            .collect();
        let readme = include_str!("../../../README.md");
        let design = include_str!("../../../DESIGN.md");
        for (name, text, is_table) in [
            ("README.md", readme, true),
            ("config.rs doc", &module_doc, true),
            ("DESIGN.md", design, false),
        ] {
            let tokens = viz_tokens(text);
            for tok in &tokens {
                assert!(
                    KNOBS.iter().any(|k| k.var == *tok),
                    "{name} names {tok}, which is not a knob"
                );
            }
            if is_table {
                for k in KNOBS {
                    assert!(tokens.contains(&k.var), "{name} is missing {}", k.var);
                }
            }
        }
    }
}

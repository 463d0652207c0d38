//! The one config front door: every `VIZ_*` environment knob the runtime
//! honors is parsed here, and only here.
//!
//! Precedence is uniform across all knobs: **explicit builder setters beat
//! the environment, which beats the built-in defaults.**
//! [`RuntimeConfig::new`](crate::RuntimeConfig::new) applies
//! [`EnvOverrides::capture`] over [`RuntimeConfig::base`](crate::RuntimeConfig::base),
//! so setters called afterwards always win; `base()` skips the environment
//! entirely. Engine construction never sneak-reads the environment — the
//! resolved [`InternConfig`] / [`VisibilityConfig`] travel inside the
//! [`RuntimeConfig`](crate::RuntimeConfig).
//!
//! # Knob table
//!
//! | Variable | Default | Effect |
//! |---|---|---|
//! | `VIZ_ANALYSIS_THREADS` | `1` | worker threads for the sharded batch analysis (1 = serial) |
//! | `VIZ_AUTO_TRACE` | off | `1`/`true` enables online automatic trace detection |
//! | `VIZ_PIPELINE` | off | `1`/`true` runs analysis on a dedicated driver thread |
//! | `VIZ_SUBMIT_RINGS` | `8` | submission rings in the pipelined plane (min 2) |
//! | `VIZ_ORACLE` | off | `1`/`true` records launch history for the consistency oracle |
//! | `VIZ_INTERN` | on | `0`/`false`/`off`/`no` disables interned-algebra fast paths + memo |
//! | `VIZ_VIS_BACKEND` | `scalar` | `batch` resolves raycast candidate queries through the flattened SoA snapshot |
//! | `VIZ_VIS_BATCH_MIN` | `64` | min live K-d leaves before the batch backend flattens |
//! | `VIZ_GC` | off | `1`/`true` enables history garbage collection (watermark past the oldest unretired launch) |
//! | `VIZ_GC_INTERVAL` | `1024` | launches between collections (amortizes the sweep) |
//! | `VIZ_GC_RETAIN` | `256` | most-recent launches always kept un-retired |
//! | `VIZ_COARSEN` | off | `1`/`true` enables equivalence-set coarsening (merge re-converged siblings) |
//! | `VIZ_TAG_WINDOW` | `4096` | width (task ids) of the precedence ancestor-bitset window |

use crate::analysis::visibility::{VisibilityConfig, VisibilityKind, DEFAULT_BATCH_MIN};
use crate::autotrace::AutoTraceConfig;
use crate::RuntimeConfig;
use viz_geometry::InternConfig;

/// History-GC and coarsening configuration (the tentpole knobs of the
/// weak-scaling work; see DESIGN.md §7i).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GcConfig {
    /// Retire per-task bookkeeping (launch metadata, owned analysis
    /// results, precedence tag rows) and dead engine state older than the
    /// watermark. Dependences, plans, and simulated charges are
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
    /// Equivalence-set coarsening: merge sibling sets whose per-field
    /// histories have re-converged (the inverse of refinement — the paper
    /// never does this). Preserves dependences and plan coverage (plan
    /// ranges over merged sets coalesce) but changes *charges* (fewer sets
    /// to scan); off by default and excluded from the GC differential.
    pub coarsen: bool,
}

pub const DEFAULT_GC_INTERVAL: u32 = 1024;
pub const DEFAULT_GC_RETAIN: u32 = 256;

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            enabled: false,
            interval: DEFAULT_GC_INTERVAL,
            retain: DEFAULT_GC_RETAIN,
            coarsen: false,
        }
    }
}

/// The environment's view of every runtime knob: `None` = variable unset
/// (or unparsable) = fall through to the built-in default. Captured once
/// by [`RuntimeConfig::new`](crate::RuntimeConfig::new); tests inject a
/// fake environment through [`EnvOverrides::capture_from`].
#[derive(Clone, Debug, Default)]
pub struct EnvOverrides {
    pub analysis_threads: Option<usize>,
    pub auto_trace: Option<bool>,
    pub pipeline: Option<bool>,
    pub submit_rings: Option<usize>,
    pub record_history: Option<bool>,
    pub intern_enabled: Option<bool>,
    pub vis_backend: Option<VisibilityKind>,
    pub vis_batch_min: Option<usize>,
    pub gc: Option<bool>,
    pub gc_interval: Option<u32>,
    pub gc_retain: Option<u32>,
    pub coarsen: Option<bool>,
    pub tag_window: Option<u32>,
    pub dirty_shards: Option<bool>,
}

fn parse_flag(s: &str) -> bool {
    let s = s.trim();
    s == "1" || s.eq_ignore_ascii_case("true")
}

fn parse_off(s: &str) -> bool {
    matches!(s.trim(), "0" | "false" | "off" | "no")
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
            auto_trace: flag("VIZ_AUTO_TRACE"),
            pipeline: flag("VIZ_PIPELINE"),
            submit_rings: num("VIZ_SUBMIT_RINGS"),
            record_history: flag("VIZ_ORACLE"),
            intern_enabled: get("VIZ_INTERN").map(|s| !parse_off(&s)),
            vis_backend: get("VIZ_VIS_BACKEND").map(|s| {
                if s.trim().eq_ignore_ascii_case("batch") {
                    VisibilityKind::Batch
                } else {
                    VisibilityKind::Scalar
                }
            }),
            vis_batch_min: num("VIZ_VIS_BATCH_MIN"),
            gc: flag("VIZ_GC"),
            gc_interval: num32("VIZ_GC_INTERVAL"),
            gc_retain: num32("VIZ_GC_RETAIN"),
            coarsen: flag("VIZ_COARSEN"),
            tag_window: num32("VIZ_TAG_WINDOW"),
            dirty_shards: get("VIZ_DIRTY_SHARDS").map(|s| !parse_off(&s)),
        }
    }

    /// Overlay these overrides on a config: set knobs replace the config's
    /// current values, unset knobs leave them alone. Called by
    /// [`RuntimeConfig::new`](crate::RuntimeConfig::new) *before* any
    /// builder setter runs, which is exactly the
    /// explicit > environment > default precedence.
    pub fn apply(&self, mut cfg: RuntimeConfig) -> RuntimeConfig {
        if let Some(n) = self.analysis_threads {
            cfg.analysis_threads = n.max(1);
        }
        if let Some(on) = self.auto_trace {
            cfg.auto_trace = AutoTraceConfig {
                enabled: on,
                ..cfg.auto_trace
            };
        }
        if let Some(on) = self.pipeline {
            cfg.pipeline = on;
        }
        if let Some(n) = self.submit_rings {
            cfg.submit_rings = n.max(2);
        }
        if let Some(on) = self.record_history {
            cfg.record_history = on;
        }
        if let Some(enabled) = self.intern_enabled {
            cfg.intern = Some(InternConfig { enabled });
        }
        if self.vis_backend.is_some() || self.vis_batch_min.is_some() {
            let base = cfg.visibility_backend.unwrap_or_default();
            cfg.visibility_backend = Some(VisibilityConfig {
                kind: self.vis_backend.unwrap_or(base.kind),
                batch_min: self.vis_batch_min.unwrap_or(base.batch_min),
            });
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
        if let Some(on) = self.coarsen {
            cfg.gc.coarsen = on;
        }
        if let Some(n) = self.tag_window {
            cfg.tag_window = n;
        }
        if let Some(on) = self.dirty_shards {
            cfg.dirty_shards = on;
        }
        cfg
    }
}

/// The `VIZ_ANALYSIS_THREADS` default (1 when unset or unparsable).
pub fn default_analysis_threads() -> usize {
    EnvOverrides::capture().analysis_threads.unwrap_or(1)
}

/// The `VIZ_AUTO_TRACE` default (off when unset; `1`/`true` enable).
pub fn default_auto_trace() -> bool {
    EnvOverrides::capture().auto_trace.unwrap_or(false)
}

/// The `VIZ_PIPELINE` default (off when unset; `1`/`true` enable).
pub fn default_pipeline() -> bool {
    EnvOverrides::capture().pipeline.unwrap_or(false)
}

/// The `VIZ_ORACLE` default (off when unset; `1`/`true` enable).
pub fn default_record_history() -> bool {
    EnvOverrides::capture().record_history.unwrap_or(false)
}

/// The `VIZ_SUBMIT_RINGS` default (8 when unset or unparsable; clamped to
/// at least 2 so one tenant context always fits next to the facade's ring).
pub fn default_submit_rings() -> usize {
    EnvOverrides::capture()
        .submit_rings
        .unwrap_or(crate::runtime::DEFAULT_SUBMIT_RINGS)
        .max(2)
}

/// Resolve the interning config from the environment.
pub fn env_intern() -> InternConfig {
    InternConfig {
        enabled: EnvOverrides::capture().intern_enabled.unwrap_or(true),
    }
}

/// Resolve the visibility-backend config from the environment.
pub fn env_visibility() -> VisibilityConfig {
    let o = EnvOverrides::capture();
    VisibilityConfig {
        kind: o.vis_backend.unwrap_or(VisibilityKind::Scalar),
        batch_min: o.vis_batch_min.unwrap_or(DEFAULT_BATCH_MIN),
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
        var: "VIZ_AUTO_TRACE",
        default: "off",
        effect: "online automatic trace detection",
    },
    Knob {
        var: "VIZ_PIPELINE",
        default: "off",
        effect: "analysis on a dedicated driver thread, overlapped with submission",
    },
    Knob {
        var: "VIZ_SUBMIT_RINGS",
        default: "8",
        effect: "submission rings in the pipelined plane (min 2)",
    },
    Knob {
        var: "VIZ_ORACLE",
        default: "off",
        effect: "record launch history for the external consistency oracle",
    },
    Knob {
        var: "VIZ_INTERN",
        default: "on",
        effect: "0/false/off/no disables interned-algebra fast paths and memo",
    },
    Knob {
        var: "VIZ_VIS_BACKEND",
        default: "scalar",
        effect: "batch = flattened SoA candidate resolution for the raycast K-d path",
    },
    Knob {
        var: "VIZ_VIS_BATCH_MIN",
        default: "64",
        effect: "min live K-d leaves before the batch backend flattens",
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
    Knob {
        var: "VIZ_COARSEN",
        default: "off",
        effect: "merge equivalence-set siblings whose histories re-converged",
    },
    Knob {
        var: "VIZ_TAG_WINDOW",
        default: "4096",
        effect: "width (task ids) of the precedence ancestor-bitset window",
    },
    Knob {
        var: "VIZ_DIRTY_SHARDS",
        default: "on",
        effect: "0/false/off/no makes GC sweeps visit every shard instead of only dirty ones",
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
            ("VIZ_INTERN", "off"),
            ("VIZ_VIS_BACKEND", "batch"),
            ("VIZ_TAG_WINDOW", "512"),
        ]);
        let cfg = EnvOverrides::capture_from(env).apply(RuntimeConfig::base(EngineKind::RayCast));
        assert_eq!(cfg.analysis_threads, 4);
        assert!(cfg.gc.enabled);
        assert_eq!(cfg.gc.retain, 32);
        assert_eq!(
            cfg.gc.interval, DEFAULT_GC_INTERVAL,
            "untouched knob keeps default"
        );
        assert!(!cfg.intern.unwrap().enabled);
        assert_eq!(cfg.visibility_backend.unwrap().kind, VisibilityKind::Batch);
        assert_eq!(
            cfg.visibility_backend.unwrap().batch_min,
            DEFAULT_BATCH_MIN,
            "paired knob falls back to its default, not to zero"
        );
        assert_eq!(cfg.tag_window, 512);
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
        assert!(cfg.intern.is_none());
        assert!(cfg.visibility_backend.is_none());
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

    #[test]
    fn knob_table_covers_every_override() {
        // Every capture_from key must appear in the documented table, so
        // the README refresh cannot silently drift.
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
    }
}

//! The one config front door: every `VIZ_*` environment knob the runtime
//! honors is parsed here, and only here.
//!
//! Precedence is uniform across all knobs: **explicit builder setters beat
//! the environment, which beats the built-in defaults.**
//! [`RuntimeConfig::new`](crate::RuntimeConfig::new) applies
//! [`EnvOverrides::capture`] over [`RuntimeConfig::base`](crate::RuntimeConfig::base),
//! so setters called afterwards always win; `base()` skips the environment
//! entirely. [`EnvOverrides::capture`] is the only place this crate reads
//! the process environment: nothing below `RuntimeConfig::new` — engine
//! construction included — consults it.
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
//! | `VIZ_GC` | off | `1`/`true` enables history garbage collection (watermark past the oldest unretired launch) |
//! | `VIZ_GC_INTERVAL` | `1024` | launches between collections (amortizes the sweep) |
//! | `VIZ_GC_RETAIN` | `256` | most-recent launches always kept un-retired |

use crate::autotrace::AutoTraceConfig;
use crate::RuntimeConfig;

/// History-GC configuration (see DESIGN.md §7i).
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
            auto_trace: flag("VIZ_AUTO_TRACE"),
            pipeline: flag("VIZ_PIPELINE"),
            submit_rings: num("VIZ_SUBMIT_RINGS"),
            record_history: flag("VIZ_ORACLE"),
            gc: flag("VIZ_GC"),
            gc_interval: num32("VIZ_GC_INTERVAL"),
            gc_retain: num32("VIZ_GC_RETAIN"),
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

    /// `VIZ_*` suffixes of the variables only the bench crate reads
    /// (spelled without the prefix so a grep of this crate's sources for
    /// `VIZ_` tokens lists exactly the runtime knobs).
    const BENCH_ONLY: &[&str] = &["BENCH_SMOKE", "FIG_MAX_NODES", "PAPER_SCALE"];

    /// Every `VIZ_[A-Z_]+` token in `text`.
    fn viz_tokens(text: &str) -> Vec<&str> {
        text.match_indices("VIZ_")
            .map(|(at, _)| {
                let rest = &text[at..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
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
        assert_eq!(KNOBS.len(), 8);

        // The two prose copies of the table — the README and this module's
        // doc — name exactly the KNOBS variables (plus the bench-only ones).
        let module_doc: String = include_str!("config.rs")
            .lines()
            .filter(|l| l.starts_with("//! |"))
            .collect();
        let readme = include_str!("../../../README.md");
        for (name, text) in [("README.md", readme), ("config.rs doc", &module_doc)] {
            let tokens = viz_tokens(text);
            for tok in &tokens {
                assert!(
                    KNOBS.iter().any(|k| k.var == *tok)
                        || BENCH_ONLY.contains(&&tok["VIZ_".len()..]),
                    "{name} names {tok}, which is not a knob"
                );
            }
            for k in KNOBS {
                assert!(tokens.contains(&k.var), "{name} is missing {}", k.var);
            }
        }
    }
}

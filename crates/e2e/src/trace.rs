//! The harness's own span recorder. Spans are taken around each call into
//! a layer's public functions (in-program spans are a later change), kept
//! in memory, and written as Chrome-trace JSON when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one launch share its id.
    pub launch: Option<u32>,
    /// Which pass recorded it (one Chrome-trace thread row per pass).
    pub pass: u32,
}

/// An open span; closing it out of order is a bug in the harness.
#[must_use]
pub struct SpanId(u32);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
    pass_names: Vec<String>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            pass_names: vec!["harness".into()],
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new pass: later spans land on their own trace row.
    pub fn pass(&mut self, name: &str) {
        assert!(self.open.is_empty(), "a pass starts with no span open");
        self.pass_names.push(name.into());
        self.pass = self.pass_names.len() as u32 - 1;
    }

    pub fn begin(&mut self, name: impl Into<String>, launch: Option<u32>) -> SpanId {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            launch,
            pass: self.pass,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (duration minus the part covered by child spans) summed
    /// per span class: the name with any `[...]` argument removed.
    pub fn self_time_ns(&self) -> BTreeMap<String, u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_class = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(children) {
            let class = s.name.split('[').next().unwrap_or(&s.name).to_string();
            *by_class.entry(class).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child_ns);
        }
        by_class
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): complete events,
    /// one thread row per pass, parent and launch ids in `args`.
    pub fn chrome_trace(&self) -> Json {
        let mut events: Vec<Json> = self
            .pass_names
            .iter()
            .enumerate()
            .map(|(tid, name)| {
                Json::obj([
                    ("name", Json::str("thread_name")),
                    ("ph", Json::str("M")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(tid as f64)),
                    ("args", Json::obj([("name", Json::str(name.as_str()))])),
                ])
            })
            .collect();
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![("id".to_string(), Json::Num(id as f64))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::Num(p as f64)));
            }
            if let Some(l) = s.launch {
                args.push(("launch".into(), Json::Num(l as f64)));
            }
            events.push(Json::obj([
                ("name", Json::str(s.name.as_str())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.pass as f64)),
                ("args", Json::Obj(args)),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ns")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_class() {
        let mut t = Tracer::new();
        let run = t.begin("run", None);
        for k in 0..2 {
            let w = t.begin(format!("wave[{k}]"), None);
            let s = t.begin("submit_batch", Some(k));
            t.end(s);
            t.end(w);
        }
        t.end(run);
        assert_eq!(t.spans().len(), 5);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[2].launch, Some(0));
        let st = t.self_time_ns();
        assert_eq!(
            st.keys().map(String::as_str).collect::<Vec<_>>(),
            ["run", "submit_batch", "wave"]
        );
        let total: u64 = st.values().sum();
        assert_eq!(total, t.spans()[0].end_ns - t.spans()[0].start_ns);
        let trace = t.chrome_trace();
        assert_eq!(trace.get("traceEvents").unwrap().items().len(), 6);
    }
}

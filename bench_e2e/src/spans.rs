//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is (name, start, end, parent, workload). They are kept in
//! memory for the whole traced run and written out once, as
//! `trace_<workload>.json`, when it ends. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans cover.

use serde_json::{json, Value};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store with a stack of open spans (the benchmark drives
/// every layer from one thread, so a stack is the causal chain).
pub struct Recorder {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Self {
        Self {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span; close it
    /// with [`Recorder::end`]. For blocks that cannot be a closure.
    pub fn begin(&mut self, name: &str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx` (the innermost open one); returns its seconds.
    pub fn end(&mut self, idx: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].duration_s()
    }

    /// Run `f` inside a span named `name`; returns `f`'s value and the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let idx = self.begin(name);
        let out = f(self);
        (out, self.end(idx))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_s).collect()
    }

    /// The whole trace plus the per-name self-time rollup.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": match s.parent { Some(p) => json!(p), None => Value::Null },
                    "workload": self.workload,
                })
            })
            .collect();
        let rollup: Vec<Value> = self_time_by_name(&self.spans)
            .into_iter()
            .map(|(name, calls, total_s, self_s)| {
                json!({"name": name, "calls": calls, "total_s": total_s, "self_s": self_s})
            })
            .collect();
        json!({"workload": self.workload, "spans": spans, "self_time": rollup})
    }
}

/// Self time of span `idx`, ns: its duration minus the union of its
/// direct children's intervals (clipped to the parent).
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

/// `(name, calls, total seconds, self seconds)` per span name, in order
/// of first appearance.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64, f64, f64)> {
    let mut out: Vec<(String, u64, f64, f64)> = Vec::new();
    for (idx, s) in spans.iter().enumerate() {
        let self_s = self_time_ns(spans, idx) as f64 * 1e-9;
        match out.iter_mut().find(|(name, ..)| *name == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += s.duration_s();
                row.3 += self_s;
            }
            None => out.push((s.name.clone(), 1, s.duration_s(), self_s)),
        }
    }
    out
}

//! Low-overhead event tracing for the solver stack.
//!
//! Where `sw-telemetry` aggregates (one `TimerStat` per phase name, no
//! matter how many times it fired), this crate records *individual*
//! events on a timeline, so a run can be inspected span by span in
//! Perfetto or `chrome://tracing`:
//!
//! * **spans** — ranges with a start timestamp and a duration, timed by
//!   the caller ([`Tracer::span_at`] takes the start it read,
//!   [`Tracer::span_closed`] only a length, ending now), e.g. one
//!   `step.velocity` span per time step;
//! * **instant events** — points in time with numeric arguments
//!   ([`Tracer::instant`]), e.g. one `io.checkpoint` event per generation
//!   carrying its bytes and step, or one `halo.send` per message.
//!
//! Events land in **lanes**: one lane per recording thread, mapped to a
//! Chrome `(pid, tid)` pair. A rank runner binds its threads to named
//! lanes with [`Tracer::bind_lane`] (`pid` = rank), so a multi-rank trace
//! shows one process row per rank; unbound threads get an automatic lane
//! under pid 0. Each lane is a bounded ring buffer behind its own mutex:
//! recording never blocks another lane, memory is capped, and the oldest
//! events are dropped first (the drop count is exported).
//!
//! Timestamps are monotonic microseconds since the tracer's creation
//! ([`Instant`]-based, so never affected by wall-clock adjustments).
//!
//! Like the telemetry handle, a [`Tracer`] is an `Option<Arc<...>>`:
//! [`Tracer::disabled`] carries `None` and every recording call returns
//! after one branch — a disabled tracer stays out of the numeric path
//! entirely and a traced run is bit-identical to an untraced one.
//!
//! [`Tracer::to_chrome_json`] exports the Chrome trace-event format
//! (`{"traceEvents": [...]}` with `ph: "X"` complete events and
//! `ph: "i"` instants, plus `"M"` metadata naming processes and lanes);
//! `swquake run <scenario> --obs <dir>` writes one as `<dir>/trace.json`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default maximum events retained per lane.
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 16;

/// Lock a mutex, recovering the data if a previous holder panicked: trace
/// state is monotonic bookkeeping, so a poisoned lane is still usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The kind of a recorded event, mapping to a Chrome `ph` phase code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A range with a duration (`ph: "X"`).
    Span,
    /// A point in time (`ph: "i"`).
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name, e.g. `step.velocity` or `halo.send`.
    pub name: String,
    /// Category string (`phase`, `timer`, `event`, …), used by trace
    /// viewers for filtering.
    pub cat: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Start time, microseconds since the tracer was created.
    pub ts_us: f64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: f64,
    /// Numeric arguments, e.g. `[("bytes", 1.2e6)]`.
    pub args: Vec<(String, f64)>,
}

/// Identity of one lane in the exported trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneInfo {
    /// Chrome process id (rank number for rank lanes, 0 otherwise).
    pub pid: u64,
    /// Chrome thread id, unique per lane.
    pub tid: u64,
    /// Human-readable lane name (`rank0`, `driver`, …).
    pub name: String,
}

/// One lane: identity plus a bounded event ring.
#[derive(Debug)]
struct Lane {
    info: LaneInfo,
    ring: Mutex<EventRing>,
}

#[derive(Debug)]
struct EventRing {
    capacity: usize,
    dropped: u64,
    buf: VecDeque<TraceEvent>,
}

impl EventRing {
    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

impl Lane {
    fn record(&self, ev: TraceEvent) {
        lock(&self.ring).push(ev);
    }
}

/// The shared store behind an enabled [`Tracer`].
#[derive(Debug)]
struct Registry {
    /// Unique id distinguishing registries, so a thread-local lane binding
    /// from one tracer is never reused by another.
    uid: u64,
    epoch: Instant,
    lane_capacity: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
}

static REGISTRY_UID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's bound lane, tagged with its registry uid.
    static BOUND_LANE: RefCell<Option<(u64, Arc<Lane>)>> = const { RefCell::new(None) };
}

impl Registry {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Find or create the lane named `(pid, name)`.
    fn lane(&self, pid: u64, name: &str) -> Arc<Lane> {
        let mut lanes = lock(&self.lanes);
        if let Some(l) = lanes.iter().find(|l| l.info.pid == pid && l.info.name == name) {
            return Arc::clone(l);
        }
        let lane = Arc::new(Lane {
            info: LaneInfo { pid, tid: lanes.len() as u64, name: name.to_string() },
            ring: Mutex::new(EventRing {
                capacity: self.lane_capacity,
                dropped: 0,
                buf: VecDeque::new(),
            }),
        });
        lanes.push(Arc::clone(&lane));
        lane
    }

    /// The calling thread's lane: the bound one, or an automatic lane
    /// named after the thread.
    fn current_lane(&self) -> Arc<Lane> {
        BOUND_LANE.with(|slot| {
            let mut slot = slot.borrow_mut();
            if let Some((uid, lane)) = slot.as_ref() {
                if *uid == self.uid {
                    return Arc::clone(lane);
                }
            }
            let thread = std::thread::current();
            let name = match thread.name() {
                Some(n) => n.to_string(),
                None => format!("thread-{:?}", thread.id()),
            };
            let lane = self.lane(0, &name);
            *slot = Some((self.uid, Arc::clone(&lane)));
            lane
        })
    }
}

/// A cheap, clonable, thread-safe handle to a trace store — or to nothing
/// at all ([`Tracer::disabled`]).
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    registry: Option<Arc<Registry>>,
}

impl Tracer {
    /// A live tracer with the default per-lane capacity.
    pub fn enabled() -> Self {
        Self::with_lane_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// A live tracer retaining at most `capacity` events per lane.
    pub fn with_lane_capacity(capacity: usize) -> Self {
        Self {
            registry: Some(Arc::new(Registry {
                uid: REGISTRY_UID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                lane_capacity: capacity.max(1),
                lanes: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The null handle: every recording method returns immediately.
    pub fn disabled() -> Self {
        Self { registry: None }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Bind the calling thread to the lane `(pid, name)`, creating it on
    /// first use. Rank runners call this with `pid` = rank so every rank
    /// gets its own process row in the viewer. Rebinding is idempotent.
    pub fn bind_lane(&self, pid: u64, name: &str) {
        if let Some(reg) = &self.registry {
            let lane = reg.lane(pid, name);
            BOUND_LANE.with(|slot| *slot.borrow_mut() = Some((reg.uid, lane)));
        }
    }

    /// Record a completed span of `seconds` ending now (for callers with
    /// a measured length but no single start: a sum of intervals, another
    /// thread's wall).
    pub fn span_closed(&self, cat: &'static str, name: &str, seconds: f64) {
        if let Some(reg) = &self.registry {
            let dur_us = seconds.max(0.0) * 1e6;
            let end = reg.now_us();
            reg.current_lane().record(TraceEvent {
                name: name.to_string(),
                cat,
                kind: EventKind::Span,
                ts_us: (end - dur_us).max(0.0),
                dur_us,
                args: Vec::new(),
            });
        }
    }

    /// Record a completed span that began at `start` and lasted
    /// `seconds`, exactly as the caller's own clock reads measured it —
    /// no clock is read here, so spans timed by one caller nest on the
    /// timeline the way they nested in time.
    pub fn span_at(&self, cat: &'static str, name: &str, start: Instant, seconds: f64) {
        if let Some(reg) = &self.registry {
            reg.current_lane().record(TraceEvent {
                name: name.to_string(),
                cat,
                kind: EventKind::Span,
                ts_us: start.saturating_duration_since(reg.epoch).as_secs_f64() * 1e6,
                dur_us: seconds.max(0.0) * 1e6,
                args: Vec::new(),
            });
        }
    }

    /// Record an instant event with numeric arguments on the calling
    /// thread's lane.
    pub fn instant(&self, cat: &'static str, name: &str, args: &[(&str, f64)]) {
        if let Some(reg) = &self.registry {
            reg.current_lane().record(TraceEvent {
                name: name.to_string(),
                cat,
                kind: EventKind::Instant,
                ts_us: reg.now_us(),
                dur_us: 0.0,
                args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            });
        }
    }

    /// Snapshot every lane with its retained events, in lane creation
    /// order; events within a lane are in recording order. Empty when
    /// disabled.
    pub fn lanes(&self) -> Vec<(LaneInfo, Vec<TraceEvent>)> {
        match &self.registry {
            None => Vec::new(),
            Some(reg) => lock(&reg.lanes)
                .iter()
                .map(|lane| {
                    (lane.info.clone(), lock(&lane.ring).buf.iter().cloned().collect::<Vec<_>>())
                })
                .collect(),
        }
    }

    /// Total events dropped to ring-buffer eviction, across all lanes.
    pub fn dropped_events(&self) -> u64 {
        match &self.registry {
            None => 0,
            Some(reg) => lock(&reg.lanes).iter().map(|l| lock(&l.ring).dropped).sum(),
        }
    }

    /// Export everything recorded so far as Chrome trace-event JSON
    /// (loadable in Perfetto / `chrome://tracing`). Events are sorted by
    /// `(pid, tid, ts)`; metadata events name each process and lane.
    pub fn to_chrome_json(&self) -> String {
        use serde_json::{json, Value};
        let mut events: Vec<Value> = Vec::new();
        let lanes = self.lanes();
        let mut pids: Vec<u64> = lanes.iter().map(|(info, _)| info.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        for pid in &pids {
            let name = if *pid == 0 { "swquake".to_string() } else { format!("rank {pid}") };
            events.push(json!({
                "ph": "M", "name": "process_name", "pid": *pid as f64, "tid": 0.0,
                "args": {"name": name},
            }));
        }
        for (info, _) in &lanes {
            events.push(json!({
                "ph": "M", "name": "thread_name",
                "pid": info.pid as f64, "tid": info.tid as f64,
                "args": {"name": info.name.clone()},
            }));
        }
        let mut sorted: Vec<(&LaneInfo, &TraceEvent)> = Vec::new();
        for (info, evs) in &lanes {
            for ev in evs {
                sorted.push((info, ev));
            }
        }
        sorted.sort_by(|a, b| {
            (a.0.pid, a.0.tid)
                .cmp(&(b.0.pid, b.0.tid))
                .then(a.1.ts_us.partial_cmp(&b.1.ts_us).expect("timestamps are finite"))
        });
        for (info, ev) in sorted {
            let args = Value::Object(ev.args.iter().map(|(k, v)| (k.clone(), json!(*v))).collect());
            let mut obj = json!({
                "name": ev.name.clone(), "cat": ev.cat,
                "pid": info.pid as f64, "tid": info.tid as f64,
                "ts": ev.ts_us, "args": args,
            });
            match ev.kind {
                EventKind::Span => {
                    obj["ph"] = json!("X");
                    obj["dur"] = json!(ev.dur_us);
                }
                EventKind::Instant => {
                    obj["ph"] = json!("i");
                    obj["s"] = json!("t");
                }
            }
            events.push(obj);
        }
        let trace = json!({
            "traceEvents": Value::Array(events),
            "displayTimeUnit": "ms",
            "otherData": {"droppedEvents": self.dropped_events() as f64},
        });
        serde_json::to_string_pretty(&trace).expect("trace serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::disabled();
        t.span_at("phase", "step", Instant::now(), 0.001);
        t.instant("event", "dma", &[("bytes", 128.0)]);
        t.span_closed("timer", "pack", 0.001);
        assert!(!t.is_enabled());
        assert!(t.lanes().is_empty());
        let json: serde_json::Value = serde_json::from_str(&t.to_chrome_json()).unwrap();
        assert_eq!(json["traceEvents"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn spans_and_instants_record_in_order() {
        let t = Tracer::enabled();
        t.bind_lane(0, "driver");
        let outer = Instant::now();
        t.instant("event", "dma", &[("bytes", 4096.0)]);
        let inner = Instant::now();
        t.span_at("phase", "velocity", inner, inner.elapsed().as_secs_f64());
        t.span_at("phase", "step", outer, outer.elapsed().as_secs_f64());
        let lanes = t.lanes();
        assert_eq!(lanes.len(), 1);
        let (info, events) = &lanes[0];
        assert_eq!(info.name, "driver");
        // Recording order: instant first, then inner span, then outer.
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["dma", "velocity", "step"]);
        assert_eq!(events[0].kind, EventKind::Instant);
        assert_eq!(events[0].args, vec![("bytes".to_string(), 4096.0)]);
        // The outer span starts before the inner and ends after it.
        let (outer, inner) = (&events[2], &events[1]);
        assert!(outer.ts_us <= inner.ts_us);
        assert!(outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us);
    }

    #[test]
    fn span_closed_backdates_its_start() {
        let t = Tracer::enabled();
        t.bind_lane(0, "io");
        t.span_closed("timer", "write", 0.5);
        let (_, events) = &t.lanes()[0];
        assert_eq!(events.len(), 1);
        assert!((events[0].dur_us - 5.0e5).abs() < 1.0);
        assert!(events[0].ts_us >= 0.0, "start must not go negative");
    }

    #[test]
    fn lanes_are_per_thread_and_per_pid() {
        let t = Tracer::enabled();
        t.bind_lane(1, "rank1");
        t.instant("event", "a", &[]);
        std::thread::scope(|s| {
            let t2 = t.clone();
            s.spawn(move || {
                t2.bind_lane(2, "rank2");
                t2.instant("event", "b", &[]);
            });
        });
        let lanes = t.lanes();
        assert_eq!(lanes.len(), 2);
        let by_name = |n: &str| lanes.iter().find(|(i, _)| i.name == n).unwrap();
        assert_eq!(by_name("rank1").0.pid, 1);
        assert_eq!(by_name("rank2").0.pid, 2);
        assert_ne!(by_name("rank1").0.tid, by_name("rank2").0.tid);
        assert_eq!(by_name("rank1").1.len(), 1);
        assert_eq!(by_name("rank2").1.len(), 1);
    }

    #[test]
    fn unbound_threads_get_an_automatic_lane() {
        let t = Tracer::enabled();
        t.instant("event", "x", &[]);
        let lanes = t.lanes();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].0.pid, 0);
        assert_eq!(lanes[0].1.len(), 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::with_lane_capacity(4);
        t.bind_lane(0, "small");
        for i in 0..10 {
            t.instant("event", &format!("e{i}"), &[]);
        }
        let (_, events) = &t.lanes()[0];
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].name, "e6", "oldest events evicted first");
        assert_eq!(t.dropped_events(), 6);
    }

    #[test]
    fn timestamps_are_monotonic_within_a_lane() {
        let t = Tracer::enabled();
        t.bind_lane(0, "mono");
        for _ in 0..50 {
            t.instant("event", "tick", &[]);
        }
        let (_, events) = &t.lanes()[0];
        for w in events.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us, "instants must be time-ordered");
        }
    }

    #[test]
    fn chrome_export_is_valid_and_sorted() {
        let t = Tracer::enabled();
        t.bind_lane(3, "rank3");
        let start = Instant::now();
        t.instant("event", "dma", &[("bytes", 64.0)]);
        t.span_at("phase", "step", start, start.elapsed().as_secs_f64());
        let json: serde_json::Value = serde_json::from_str(&t.to_chrome_json()).unwrap();
        let events = json["traceEvents"].as_array().unwrap();
        // process_name + thread_name metadata, then the two events.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0]["ph"], "M");
        assert_eq!(events[1]["args"]["name"], "rank3");
        let data: Vec<&serde_json::Value> = events.iter().filter(|e| e["ph"] != "M").collect();
        assert_eq!(data.len(), 2);
        // Sorted by ts within the lane.
        let mut prev = -1.0;
        for e in &data {
            let ts = e["ts"].as_f64().unwrap();
            assert!(ts >= prev);
            prev = ts;
            assert_eq!(e["pid"], 3);
            assert!(e["ph"] == "X" || e["ph"] == "i");
        }
        let span = data.iter().find(|e| e["ph"] == "X").unwrap();
        assert!(span["dur"].as_f64().unwrap() >= 0.0);
        let inst = data.iter().find(|e| e["ph"] == "i").unwrap();
        assert_eq!(inst["args"]["bytes"], 64.0);
    }
}

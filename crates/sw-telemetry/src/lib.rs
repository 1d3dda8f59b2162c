//! The telemetry spine of the solver stack.
//!
//! Every subsystem (driver, halo exchange, architecture model, compressor,
//! I/O) reports into one [`Telemetry`] handle:
//!
//! * **timers** — measured wall-time ranges ([`Telemetry::record_span`],
//!   [`Telemetry::record_duration`]) under dotted names like
//!   `step.velocity`; the caller owns the clock, and timers on different
//!   threads aggregate into the same named slot,
//! * **counters** — monotonically increasing totals
//!   ([`Telemetry::add`]), e.g. bytes moved over the halo fabric,
//! * **gauges** — last-value + high-water marks ([`Telemetry::gauge`]),
//!   e.g. the LDM footprint of the busiest kernel,
//! * **series** — bounded ring buffers of per-step samples
//!   ([`Telemetry::sample`]), e.g. wall time per time step.
//!
//! A [`Telemetry::report`] snapshot serializes to JSON with a stable
//! schema (see [`Report`]); `swquake run --metrics out.json` writes one.
//!
//! A handle can also carry a [`Tracer`] from the `sw-trace` crate
//! ([`Telemetry::with_tracer`]): recorded durations then additionally
//! land as timeline *spans* and [`Telemetry::event`] emits instant events,
//! so the same instrumentation sites feed both the aggregate report and a
//! Chrome-trace export (a run bundle's `trace.json`). The per-kernel
//! ledger ([`perf`]) and the per-rank timeline ([`timeline`]) are the
//! bundle's other two reports, and the bench-report schema shared by the
//! bench harness and `swquake inspect --diff` lives in [`bench`].
//!
//! The handle is an `Option<Arc<Registry>>` under the hood:
//! [`Telemetry::disabled`] carries `None` (and a disabled tracer), so
//! every recording call is a branch on a null pointer — no clock reads,
//! no locks, no allocation — and disabled telemetry stays out of the
//! numeric path entirely.

use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

pub mod bench;
pub mod perf;
pub mod timeline;

pub use sw_trace as trace;
pub use sw_trace::Tracer;

/// Default capacity of a per-step sample ring buffer.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// Version stamp embedded in every [`Report`] so downstream consumers can
/// detect schema changes.
///
/// History: v1 = PR 1 baseline; v2 adds `p50`/`p95` to [`SeriesStat`].
pub const SCHEMA_VERSION: u32 = 2;

/// Lock a mutex, recovering the data if a previous holder panicked.
///
/// Every registry mutation is a self-contained aggregate update (add to a
/// counter, fold a sample into a stat), so the state is never left
/// half-written across a panic — recovering the poisoned guard is safe
/// and keeps a panicking worker thread from cascading into telemetry
/// panics when other guards drop during unwinding.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------------

/// A cheap, clonable, thread-safe handle to a metrics registry — or to
/// nothing at all ([`Telemetry::disabled`]).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Option<Arc<Registry>>,
    tracer: Tracer,
}

impl Telemetry {
    /// A live telemetry handle backed by a fresh registry (no tracer).
    pub fn enabled() -> Self {
        Self { registry: Some(Arc::new(Registry::default())), tracer: Tracer::disabled() }
    }

    /// The null handle: every recording method returns immediately.
    pub fn disabled() -> Self {
        Self { registry: None, tracer: Tracer::disabled() }
    }

    /// Attach a tracer: recorded durations additionally land as timeline
    /// spans and [`Telemetry::event`] emits instant events into it.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled unless set via
    /// [`Telemetry::with_tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// True when this handle records aggregate metrics.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Add to a monotonic counter.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(reg) = &self.registry {
            *lock(&reg.counters).entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Set a gauge. The registry keeps both the last value and the
    /// high-water mark.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(reg) = &self.registry {
            let mut gauges = lock(&reg.gauges);
            let g = gauges.entry(name.to_string()).or_insert(GaugeStat { last: value, max: value });
            g.last = value;
            if value > g.max {
                g.max = value;
            }
        }
    }

    /// Push one sample into a bounded ring buffer (default capacity
    /// [`DEFAULT_SERIES_CAPACITY`]; the oldest samples are evicted).
    pub fn sample(&self, name: &str, value: f64) {
        self.sample_with_capacity(name, value, DEFAULT_SERIES_CAPACITY);
    }

    /// [`Telemetry::sample`] with an explicit ring capacity (applied when
    /// the series is first created).
    pub fn sample_with_capacity(&self, name: &str, value: f64, capacity: usize) {
        if let Some(reg) = &self.registry {
            let mut series = lock(&reg.series);
            let s = series.entry(name.to_string()).or_insert_with(|| Ring::new(capacity.max(1)));
            s.push(value);
        }
    }

    /// Record a range the caller timed — it began at `start` and lasted
    /// `seconds` — into a timer slot and, with a tracer attached, as that
    /// exact span. Reads no clock: the caller's one pair of reads serves
    /// every sink, and spans timed by one caller nest as they ran.
    pub fn record_span(&self, name: &str, start: Instant, seconds: f64) {
        if let Some(reg) = &self.registry {
            reg.record_timer(name, seconds);
        }
        self.tracer.span_at("phase", name, start, seconds);
    }

    /// Record a measured duration into a timer slot, for a caller with no
    /// single start to give (a sum of intervals). With a tracer attached,
    /// it is also recorded as a span ending now.
    pub fn record_duration(&self, name: &str, seconds: f64) {
        if let Some(reg) = &self.registry {
            reg.record_timer(name, seconds);
        }
        self.tracer.span_closed("timer", name, seconds);
    }

    /// Emit an instant event with numeric arguments into the attached
    /// tracer (no-op without one). Used for point-in-time facts a run
    /// measured, like "rank R sent N halo bytes".
    pub fn event(&self, name: &str, args: &[(&str, f64)]) {
        self.tracer.instant("event", name, args);
    }

    /// Snapshot everything recorded so far into a serializable report.
    /// Returns an empty schema-stamped report when disabled.
    pub fn report(&self) -> Report {
        match &self.registry {
            None => Report { schema_version: SCHEMA_VERSION, ..Default::default() },
            Some(reg) => {
                let mut rep = reg.snapshot();
                // Ring-buffer drops in the attached tracer would otherwise
                // be silent until Chrome-JSON export; surface them as a
                // counter. Injected at snapshot time (not `add`ed) so
                // repeated report() calls never double-count.
                let dropped = self.tracer.dropped_events();
                if dropped > 0 {
                    rep.counters.push(CounterEntry {
                        name: "trace.dropped_events".to_string(),
                        value: dropped,
                    });
                    rep.counters.sort_by(|a, b| a.name.cmp(&b.name));
                }
                rep
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The shared metric store behind an enabled [`Telemetry`].
#[derive(Debug, Default)]
struct Registry {
    timers: Mutex<HashMap<String, TimerStat>>,
    counters: Mutex<HashMap<String, u64>>,
    gauges: Mutex<HashMap<String, GaugeStat>>,
    series: Mutex<HashMap<String, Ring>>,
}

impl Registry {
    fn record_timer(&self, path: &str, seconds: f64) {
        let mut timers = lock(&self.timers);
        let t = timers.entry(path.to_string()).or_insert_with(TimerStat::empty);
        t.calls += 1;
        t.total_s += seconds;
        if seconds < t.min_s || t.calls == 1 {
            t.min_s = seconds;
        }
        if seconds > t.max_s {
            t.max_s = seconds;
        }
    }

    fn snapshot(&self) -> Report {
        let mut timers: Vec<(String, TimerStat)> =
            lock(&self.timers).iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        timers.sort_by(|a, b| a.0.cmp(&b.0));
        let mut counters: Vec<(String, u64)> =
            lock(&self.counters).iter().map(|(k, v)| (k.clone(), *v)).collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, GaugeStat)> =
            lock(&self.gauges).iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut series: Vec<(String, SeriesStat)> =
            lock(&self.series).iter().map(|(k, v)| (k.clone(), v.stat())).collect();
        series.sort_by(|a, b| a.0.cmp(&b.0));
        Report {
            schema_version: SCHEMA_VERSION,
            timers: timers.into_iter().map(|(name, stat)| TimerEntry { name, stat }).collect(),
            counters: counters
                .into_iter()
                .map(|(name, value)| CounterEntry { name, value })
                .collect(),
            gauges: gauges.into_iter().map(|(name, stat)| GaugeEntry { name, stat }).collect(),
            series: series.into_iter().map(|(name, stat)| SeriesEntry { name, stat }).collect(),
        }
    }
}

/// Nearest-rank percentile over an unsorted window. Well-defined for any
/// input: an empty window yields 0.0 and a single sample yields itself —
/// never NaN, so the JSON report stays parseable.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A bounded ring buffer of f64 samples.
#[derive(Debug)]
struct Ring {
    capacity: usize,
    /// Total samples ever pushed (>= buf.len()).
    pushed: u64,
    buf: Vec<f64>,
    head: usize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self { capacity, pushed: 0, buf: Vec::new(), head: 0 }
    }

    fn push(&mut self, v: f64) {
        self.pushed += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Samples in push order (oldest retained first).
    fn ordered(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn stat(&self) -> SeriesStat {
        let values = self.ordered();
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for &v in &values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        let mean = if values.is_empty() { 0.0 } else { sum / values.len() as f64 };
        SeriesStat {
            capacity: self.capacity as u64,
            pushed: self.pushed,
            min: if values.is_empty() { 0.0 } else { min },
            max: if values.is_empty() { 0.0 } else { max },
            mean,
            p50: percentile(&values, 50.0),
            p95: percentile(&values, 95.0),
            values,
        }
    }
}

// ---------------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------------

/// Aggregated statistics of one named timer.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct TimerStat {
    /// Number of recorded durations.
    pub calls: u64,
    /// Summed wall time, seconds.
    pub total_s: f64,
    /// Shortest span, seconds.
    pub min_s: f64,
    /// Longest span, seconds.
    pub max_s: f64,
}

impl TimerStat {
    fn empty() -> Self {
        Self { calls: 0, total_s: 0.0, min_s: 0.0, max_s: 0.0 }
    }
}

/// Last value + high-water mark of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct GaugeStat {
    /// Most recently set value.
    pub last: f64,
    /// Largest value ever set.
    pub max: f64,
}

/// Summary + retained window of one sample series.
///
/// Every summary field is well-defined for empty and single-sample
/// series: an empty window reports zeros and a single sample reports
/// itself for min/max/mean/p50/p95. No field is ever NaN.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct SeriesStat {
    /// Ring capacity.
    pub capacity: u64,
    /// Total samples pushed (may exceed `values.len()`).
    pub pushed: u64,
    /// Minimum over the retained window.
    pub min: f64,
    /// Maximum over the retained window.
    pub max: f64,
    /// Mean over the retained window.
    pub mean: f64,
    /// Median (nearest-rank 50th percentile) over the retained window.
    pub p50: f64,
    /// Nearest-rank 95th percentile over the retained window.
    pub p95: f64,
    /// The retained window, oldest first.
    pub values: Vec<f64>,
}

/// One named timer in a [`Report`].
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct TimerEntry {
    /// Dotted timer name, e.g. `step.velocity`.
    pub name: String,
    /// Aggregated timings.
    pub stat: TimerStat,
}

/// One named counter in a [`Report`].
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct CounterEntry {
    /// Counter name, e.g. `halo.bytes_sent`.
    pub name: String,
    /// Accumulated total.
    pub value: u64,
}

/// One named gauge in a [`Report`].
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct GaugeEntry {
    /// Gauge name, e.g. `exec.threads`.
    pub name: String,
    /// Last + max values.
    pub stat: GaugeStat,
}

/// One named series in a [`Report`].
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct SeriesEntry {
    /// Series name, e.g. `step.wall_s`.
    pub name: String,
    /// Window summary + retained samples.
    pub stat: SeriesStat,
}

/// A point-in-time snapshot of every metric, with a stable JSON schema.
///
/// Entries are sorted by name so two reports of the same run serialize
/// identically. The schema is versioned via `schema_version`
/// ([`SCHEMA_VERSION`]): additive changes bump it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, serde::Deserialize)]
pub struct Report {
    /// Schema version stamp ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// All timers, sorted by name.
    pub timers: Vec<TimerEntry>,
    /// All counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeEntry>,
    /// All series, sorted by name.
    pub series: Vec<SeriesEntry>,
}

impl Report {
    /// Look up a timer by exact dotted path.
    pub fn timer(&self, name: &str) -> Option<&TimerStat> {
        self.timers.iter().find(|e| e.name == name).map(|e| &e.stat)
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|e| e.name == name).map(|e| e.value)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeStat> {
        self.gauges.iter().find(|e| e.name == name).map(|e| &e.stat)
    }

    /// Look up a series by name.
    pub fn series(&self, name: &str) -> Option<&SeriesStat> {
        self.series.iter().find(|e| e.name == name).map(|e| &e.stat)
    }

    /// Pretty JSON rendering of the report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Parse a report back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::disabled();
        t.record_duration("step", 0.1);
        t.add("bytes", 100);
        t.gauge("ldm", 1.0);
        t.sample("wall", 0.5);
        t.event("dma", &[("bytes", 64.0)]);
        let r = t.report();
        assert_eq!(r.schema_version, SCHEMA_VERSION);
        assert!(r.timers.is_empty());
        assert!(r.counters.is_empty());
        assert!(r.gauges.is_empty());
        assert!(r.series.is_empty());
        assert!(!t.tracer().is_enabled());
    }

    #[test]
    fn counters_and_gauges_aggregate() {
        let t = Telemetry::enabled();
        t.add("bytes", 10);
        t.add("bytes", 32);
        t.gauge("ldm", 5.0);
        t.gauge("ldm", 3.0);
        let r = t.report();
        assert_eq!(r.counter("bytes"), Some(42));
        let g = r.gauge("ldm").unwrap();
        assert_eq!(g.last, 3.0);
        assert_eq!(g.max, 5.0);
    }

    #[test]
    fn series_ring_evicts_oldest() {
        let t = Telemetry::enabled();
        for i in 0..10 {
            t.sample_with_capacity("s", i as f64, 4);
        }
        let s = t.report();
        let s = s.series("s").unwrap();
        assert_eq!(s.pushed, 10);
        assert_eq!(s.values, vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(s.min, 6.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn timers_aggregate_across_threads() {
        let t = Telemetry::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        t.record_duration("work", 1.0e-6);
                        t.add("jobs", 1);
                    }
                });
            }
        });
        let r = t.report();
        assert_eq!(r.timer("work").unwrap().calls, 100);
        assert_eq!(r.counter("jobs"), Some(100));
    }

    #[test]
    fn report_json_roundtrip_is_stable() {
        let t = Telemetry::enabled();
        t.record_duration("step", 0.25);
        t.sample("wall", 0.25);
        t.add("bytes", 7);
        t.gauge("ldm", 1024.0);
        let r = t.report();
        let text = r.to_json();
        let back = Report::from_json(&text).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.to_json(), text, "serialization must be deterministic");
    }

    #[test]
    fn empty_and_single_sample_series_have_finite_stats() {
        // Single sample: every summary field is the sample itself.
        let t = Telemetry::enabled();
        t.sample("one", 2.5);
        let r = t.report();
        let s = r.series("one").unwrap();
        assert_eq!((s.min, s.max, s.mean, s.p50, s.p95), (2.5, 2.5, 2.5, 2.5, 2.5));
        // Empty window from the percentile helper directly.
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        // Nothing in the rendered JSON may be NaN (which would serialize
        // as `null` or unparseable text).
        let text = r.to_json();
        assert!(!text.contains("NaN") && !text.contains("null"), "{text}");
        assert_eq!(Report::from_json(&text).unwrap(), r);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 95.0), 95.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0, "input order must not matter");
        let t = Telemetry::enabled();
        for v in &values {
            t.sample("s", *v);
        }
        let r = t.report();
        let s = r.series("s").unwrap();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
    }

    #[test]
    fn percentile_edge_cases_two_samples_and_identical_values() {
        // Two samples: nearest-rank p50 is the smaller, p95 the larger.
        assert_eq!(percentile(&[10.0, 20.0], 50.0), 10.0);
        assert_eq!(percentile(&[20.0, 10.0], 50.0), 10.0, "input order must not matter");
        assert_eq!(percentile(&[10.0, 20.0], 95.0), 20.0);
        let t = Telemetry::enabled();
        t.sample("two", 20.0);
        t.sample("two", 10.0);
        let s = t.report().series("two").unwrap().clone();
        assert_eq!((s.p50, s.p95), (10.0, 20.0));

        // All-identical window: every percentile is that value, min ==
        // max == mean, and nothing degenerates to 0 or NaN.
        let same = [7.5; 9];
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(percentile(&same, p), 7.5, "p{p}");
        }
        let t = Telemetry::enabled();
        for _ in 0..9 {
            t.sample("same", 7.5);
        }
        let s = t.report().series("same").unwrap().clone();
        assert_eq!((s.min, s.max, s.mean, s.p50, s.p95), (7.5, 7.5, 7.5, 7.5, 7.5));
    }

    #[test]
    fn poisoned_registry_keeps_recording() {
        let t = Telemetry::enabled();
        t.add("jobs", 1);
        t.gauge("g", 1.0);
        t.sample("s", 1.0);
        t.record_duration("work", 0.1);
        // Panic on a worker thread *while holding* every registry lock, so
        // each mutex is poisoned the hard way.
        let reg = t.registry.as_ref().unwrap();
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _a = reg.timers.lock().unwrap();
                    let _b = reg.counters.lock().unwrap();
                    let _c = reg.gauges.lock().unwrap();
                    let _d = reg.series.lock().unwrap();
                    panic!("worker dies mid-record");
                })
                .join()
        });
        assert!(result.is_err(), "worker must have panicked");
        // Telemetry keeps working: no panic, data intact and still mutable.
        t.add("jobs", 1);
        t.gauge("g", 2.0);
        t.sample("s", 2.0);
        t.record_duration("work", 0.2);
        let r = t.report();
        assert_eq!(r.counter("jobs"), Some(2));
        assert_eq!(r.gauge("g").unwrap().last, 2.0);
        assert_eq!(r.series("s").unwrap().pushed, 2);
        assert_eq!(r.timer("work").unwrap().calls, 2);
    }

    #[test]
    fn attached_tracer_records_durations_and_events() {
        let tracer = Tracer::enabled();
        let t = Telemetry::enabled().with_tracer(tracer.clone());
        t.tracer().bind_lane(0, "driver");
        let step = Instant::now();
        t.event("compress.roundtrip", &[("raw_bytes", 1024.0)]);
        let velocity = Instant::now();
        t.record_span("step.velocity", velocity, velocity.elapsed().as_secs_f64());
        t.record_span("step", step, step.elapsed().as_secs_f64());
        t.record_duration("halo.pack", 0.001);
        let lanes = tracer.lanes();
        assert_eq!(lanes.len(), 1);
        let events = &lanes[0].1;
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["compress.roundtrip", "step.velocity", "step", "halo.pack"]);
        // A span recorded from its caller's clock reads sits where it ran:
        // the inner one inside the outer one.
        let (inner, outer) = (&events[1], &events[2]);
        assert!(outer.ts_us <= inner.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
        // Aggregates recorded too, under the same dotted names.
        let r = t.report();
        assert_eq!(r.timer("step.velocity").unwrap().calls, 1);
        assert_eq!(r.timer("halo.pack").unwrap().calls, 1);
    }

    #[test]
    fn tracer_without_registry_still_traces_durations() {
        let tracer = Tracer::enabled();
        let t = Telemetry::disabled().with_tracer(tracer.clone());
        t.record_span("step", Instant::now(), 0.001);
        assert!(!t.is_enabled());
        assert!(t.report().timers.is_empty());
        let lanes = tracer.lanes();
        assert_eq!(lanes[0].1[0].name, "step");
    }
}

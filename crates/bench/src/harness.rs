//! A tiny wall-clock benchmark harness with criterion's surface.
//!
//! The registry is unreachable in the build environment, so the real
//! criterion cannot be used; this module keeps the four `benches/*.rs`
//! files source-compatible. Each `bench_function` runs a short warmup,
//! then `sample_size` timed samples, and prints the median time per
//! iteration plus derived throughput.
//!
//! Every benchmark also lands as a [`BenchRecord`] in the harness's
//! [`BenchReport`] (the stable `BENCH_<name>.json` schema from
//! `sw_telemetry::bench`), so a run can be saved with
//! [`Criterion::save_json`] and compared against a baseline with
//! `swquake inspect --diff` — the CI perf-regression gate.

use std::time::Instant;
use sw_telemetry::bench::{BenchRecord, BenchReport};

/// Harness entry point; mirrors `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    report: BenchReport,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20, report: BenchReport::new() }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n== {name} ==");
        BenchmarkGroup { group: name.to_string(), criterion: self, throughput: None }
    }

    /// Everything recorded so far, in registration order.
    pub fn report(&self) -> &BenchReport {
        &self.report
    }

    /// Write the accumulated records as `BENCH_<name>.json`-schema JSON.
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.report.write_file(path)
    }
}

/// Write `criterion`'s records to `$SWQUAKE_BENCH_JSON` when that
/// variable is set; the `criterion_group!` macro calls this after the
/// targets run so every bench binary can emit a `BENCH_<name>.json`.
pub fn save_if_requested(criterion: &Criterion) {
    if let Some(path) = std::env::var_os("SWQUAKE_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        criterion.save_json(&path).expect("failed to write bench JSON");
        println!("\nwrote {}", path.display());
    }
}

/// Per-iteration work declared for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Hierarchical benchmark name; mirrors `criterion::BenchmarkId`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function/parameter` id.
    pub fn new(function: &str, parameter: impl std::fmt::Display) -> Self {
        Self { label: format!("{function}/{parameter}") }
    }

    /// Id from the parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self { label: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { label: s.to_string() }
    }
}

/// A group of related benchmarks sharing a throughput declaration.
pub struct BenchmarkGroup<'a> {
    group: String,
    criterion: &'a mut Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare per-iteration work for throughput lines.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, label: &str, mut f: F) {
        let mut b = Bencher { samples: Vec::new(), sample_size: self.criterion.sample_size };
        f(&mut b);
        let name = format!("{}/{label}", self.group);
        let record = b.record(&name, self.throughput);
        b.print(label, &record, self.throughput);
        self.criterion.report.records.push(record);
    }

    /// Run one benchmark.
    pub fn bench_function<I, F>(&mut self, id: I, f: F)
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(&id.label, f);
    }

    /// Run one benchmark parameterized by an input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.label, |b| f(b, input));
    }

    /// End the group (printing already happened per-benchmark).
    pub fn finish(self) {}
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Time the closure: warmup, then `sample_size` timed samples.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        for _ in 0..2 {
            std::hint::black_box(f());
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(f());
            self.samples.push(start.elapsed().as_secs_f64());
        }
    }

    /// Fold the timed samples into one schema record.
    fn record(&self, name: &str, throughput: Option<Throughput>) -> BenchRecord {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = crate::median(&sorted);
        let mean =
            if sorted.is_empty() { 0.0 } else { sorted.iter().sum::<f64>() / sorted.len() as f64 };
        // A bench that declares no throughput still gets a real unit
        // (one iteration per iteration): empty units are placeholders
        // and the `inspect --diff` comparator rejects them.
        let (tp, unit) = match throughput {
            Some(Throughput::Elements(n)) => (n as f64, "elements"),
            Some(Throughput::Bytes(n)) => (n as f64, "bytes"),
            None => (1.0, "iters"),
        };
        BenchRecord {
            name: name.to_string(),
            samples: sorted.len() as u64,
            median_s: median,
            mean_s: mean,
            min_s: sorted.first().copied().unwrap_or(0.0),
            max_s: sorted.last().copied().unwrap_or(0.0),
            throughput: tp,
            throughput_unit: unit.to_string(),
            tolerance: None,
            host: None,
        }
    }

    fn print(&self, label: &str, record: &BenchRecord, throughput: Option<Throughput>) {
        if record.samples == 0 {
            println!("{label:<32} (no samples)");
            return;
        }
        let line = match throughput {
            Some(Throughput::Elements(n)) => {
                format!("{:>10.2} Melem/s", n as f64 / record.median_s / 1e6)
            }
            Some(Throughput::Bytes(n)) => {
                format!("{:>10.2} MiB/s", n as f64 / record.median_s / (1024.0 * 1024.0))
            }
            None => String::new(),
        };
        println!("{label:<32} {:>12.3} us/iter {line}", record.median_s * 1e6);
    }
}

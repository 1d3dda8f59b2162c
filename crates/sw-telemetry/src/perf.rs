//! Per-kernel performance ledger: schema, recorder, and the bridge into
//! the bench comparator.
//!
//! The paper attributes performance kernel-by-kernel (velocity, stress,
//! attenuation, plasticity) against a machine model; this module is the
//! host-side equivalent. A [`PerfRecorder`] rides inside the driver as an
//! `Option<Arc<_>>` hook (same pattern as the fault and health hooks):
//! when absent every instrumentation site is a branch on `None`, when
//! present the driver's stage spans add each production-step kernel's
//! measured wall time per rank ([`PerfRecorder::add_wall`]) and the counts
//! only a run can know — bytes checkpointed, planes decoded
//! ([`PerfRecorder::charge`]). Where a ledger is frozen the driver joins
//! those with the SW26010 cost table times the steps run (cells, flops,
//! modeled DMA bytes, predicted seconds) into a versioned [`PerfLedger`]
//! (`perf.json`, schema v1) whose per-kernel records carry derived
//! cells/s, GFLOP/s, GB/s, and an achieved-vs-roofline fraction.
//!
//! `swquake inspect` renders a ledger ([`PerfLedger::text_table`]), and
//! `swquake inspect --diff` lowers it into a
//! [`BenchReport`](crate::bench::BenchReport)
//! ([`PerfLedger::to_bench_report`]) so ledgers and bench reports share
//! one comparator (and its unit/tolerance rules).

use crate::bench::{BenchRecord, BenchReport, BENCH_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version stamp embedded in every [`PerfLedger`].
pub const PERF_SCHEMA_VERSION: u32 = 1;

/// Canonical display order for the production-step kernels. Kernels not
/// in this list sort after it, alphabetically.
pub const KERNEL_ORDER: [&str; 11] = [
    "fstr",
    "dvelc",
    "dstrqc",
    "attenuation",
    "drprecpc",
    "sponge",
    "resident_decode",
    "resident_encode",
    "halo",
    "compression",
    "checkpoint",
];

/// Cap on retained per-step wall samples (enough for any production run
/// we gate in CI; percentiles over the first N steps after that).
const MAX_STEP_SAMPLES: usize = 65_536;

/// Where a ledger was measured, so absolute throughput numbers are only
/// ever compared apples-to-apples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostFingerprint {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// CPU model string (from `/proc/cpuinfo` where available).
    pub cpu: String,
    /// Worker threads the run used (1 for serial execution).
    pub threads: u64,
}

impl HostFingerprint {
    /// Detect the current host, recording `threads` worker threads.
    pub fn detect(threads: u64) -> Self {
        Self {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpu: cpu_model(),
            threads,
        }
    }

    /// Stable identity string: equal ids mean comparable absolute numbers.
    pub fn id(&self) -> String {
        format!("{}/{}/{}/{}t", self.os, self.arch, self.cpu, self.threads)
    }
}

/// Best-effort CPU model name; `"unknown"` when the platform hides it.
fn cpu_model() -> String {
    if let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("model name") {
                if let Some((_, value)) = rest.split_once(':') {
                    return value.trim().to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

/// One kernel's measured counts and derived rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfKernel {
    /// Kernel name (one of [`KERNEL_ORDER`] for production kernels).
    pub name: String,
    /// Total wall seconds inside this kernel (on a rank grid: on the rank
    /// that spent the most there).
    pub wall_s: f64,
    /// Number of timed invocations (on that rank).
    pub calls: u64,
    /// Total cells (grid points) processed.
    pub cells: u64,
    /// Total floating-point operations (from the flop accountant).
    pub flops: f64,
    /// Total modeled DMA bytes (from the architecture model).
    pub dma_bytes: u64,
    /// `cells / wall_s` (0 when wall is 0).
    pub cells_per_s: f64,
    /// `flops / wall_s / 1e9`.
    pub gflops_per_s: f64,
    /// `dma_bytes / wall_s / 1e9`.
    pub gb_per_s: f64,
    /// Modeled SW26010 seconds / measured seconds: how close the host
    /// run comes to the roofline model's predicted time (0 for kernels
    /// the model does not cover, e.g. halo exchange and checkpoint I/O).
    pub roofline_fraction: f64,
}

impl PerfKernel {
    /// Build a record from raw counts, deriving the rates; `modeled_s` is
    /// the roofline model's predicted total seconds (0 = unmodeled).
    #[allow(clippy::too_many_arguments)] // flat counts, one per schema field
    pub fn from_counts(
        name: &str,
        wall_s: f64,
        calls: u64,
        cells: u64,
        flops: f64,
        dma_bytes: u64,
        modeled_s: f64,
    ) -> Self {
        let rate = |x: f64| if wall_s > 0.0 { x / wall_s } else { 0.0 };
        Self {
            name: name.to_string(),
            wall_s,
            calls,
            cells,
            flops,
            dma_bytes,
            cells_per_s: rate(cells as f64),
            gflops_per_s: rate(flops) / 1e9,
            gb_per_s: rate(dma_bytes as f64) / 1e9,
            roofline_fraction: rate(modeled_s),
        }
    }
}

/// A frozen per-kernel performance ledger for one run (schema v1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfLedger {
    /// Schema version stamp ([`PERF_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Where the run was measured.
    pub host: HostFingerprint,
    /// Time steps covered by the ledger.
    pub steps: u64,
    /// Grid cells per step (global, summed over ranks).
    pub grid_cells: u64,
    /// Total wall seconds across all instrumented steps.
    pub wall_s: f64,
    /// Nearest-rank p50 of per-step wall seconds.
    pub step_p50_s: f64,
    /// Nearest-rank p95 of per-step wall seconds.
    pub step_p95_s: f64,
    /// Resolved execution path the run routed kernels through
    /// ("serial" / "parallel" / "simd"). `None` in pre-extension
    /// ledgers (additive field; schema stays v1).
    pub exec_mode: Option<String>,
    /// The lane tier the run's lane loops were dispatched to
    /// ("baseline" / "avx2" / "avx512", `sw_grid::simd::LaneTier`): two
    /// ledgers with different stamps ran different machine code. The
    /// field keeps the name it had when cargo features selected the
    /// kernels; ledgers from those builds hold a feature list or the
    /// empty string here, pre-extension ledgers `None`.
    pub features: Option<String>,
    /// Wavefield storage mode of the run ("full" / "compressed16");
    /// `None` in pre-extension ledgers (additive field; schema stays v1).
    pub resident_mode: Option<String>,
    /// Per-kernel records, in [`KERNEL_ORDER`].
    pub kernels: Vec<PerfKernel>,
}

impl PerfLedger {
    /// Look up a kernel record by name.
    pub fn kernel(&self, name: &str) -> Option<&PerfKernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Kernels whose roofline fraction is known (> 0) but below `min`.
    pub fn below_fraction(&self, min: f64) -> Vec<&PerfKernel> {
        self.kernels
            .iter()
            .filter(|k| k.roofline_fraction > 0.0 && k.roofline_fraction < min)
            .collect()
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("perf ledger serialization is infallible")
    }

    /// Parse a ledger back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Write to a file as JSON.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read and parse a ledger file.
    pub fn read_file(path: &std::path::Path) -> std::io::Result<Result<Self, serde_json::Error>> {
        Ok(Self::from_json(&std::fs::read_to_string(path)?))
    }

    /// `exec: <path>  lanes: <tier>` — how the run executed, for the
    /// header of a report and for each side of a diff; `None` for a
    /// ledger that carries neither stamp.
    pub fn stamps(&self) -> Option<String> {
        (self.exec_mode.is_some() || self.features.is_some()).then(|| {
            format!(
                "exec: {}  lanes: {}",
                self.exec_mode.as_deref().unwrap_or("unknown"),
                match self.features.as_deref() {
                    Some("") | None => "(not recorded)",
                    Some(tier) => tier,
                }
            )
        })
    }

    /// Human-readable throughput table; kernels with a known roofline
    /// fraction below `min_fraction` are flagged `LOW`.
    pub fn text_table(&self, min_fraction: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "host: {}  steps: {}  cells/step: {}  wall: {:.3} s  step p50/p95: {:.3e}/{:.3e} s\n",
            self.host.id(),
            self.steps,
            self.grid_cells,
            self.wall_s,
            self.step_p50_s,
            self.step_p95_s,
        ));
        if let Some(stamps) = self.stamps() {
            out.push_str(&format!(
                "{stamps}{}\n",
                match self.resident_mode.as_deref() {
                    Some(mode) => format!("  resident: {mode}"),
                    None => String::new(),
                },
            ));
        }
        out.push_str(&format!(
            "{:<14} {:>10} {:>12} {:>10} {:>9} {:>9}  verdict\n",
            "kernel", "wall s", "cells/s", "GFLOP/s", "GB/s", "roofline"
        ));
        for k in &self.kernels {
            let (frac, verdict) = if k.roofline_fraction > 0.0 {
                (
                    format!("{:.3}", k.roofline_fraction),
                    if k.roofline_fraction < min_fraction { "LOW" } else { "ok" },
                )
            } else {
                ("-".to_string(), "unmodeled")
            };
            out.push_str(&format!(
                "{:<14} {:>10.4} {:>12.4e} {:>10.3} {:>9.3} {:>9}  {}\n",
                k.name, k.wall_s, k.cells_per_s, k.gflops_per_s, k.gb_per_s, frac, verdict
            ));
        }
        let low = self.below_fraction(min_fraction).len();
        out.push_str(&format!(
            "{} ({} kernels, {} below roofline fraction {:.2})\n",
            if low == 0 { "PASS" } else { "LOW" },
            self.kernels.len(),
            low,
            min_fraction
        ));
        out
    }

    /// Convert to a bench report (schema v2) so the ledger can ride the
    /// bench comparator: one record per kernel, median = mean wall
    /// seconds per step, throughput = cells per step (unit `cells`), the
    /// host fingerprint attached so cross-host diffs skip rather than lie.
    pub fn to_bench_report(&self, prefix: &str) -> BenchReport {
        let steps = self.steps.max(1) as f64;
        let host = self.host.id();
        let mut report = BenchReport { schema_version: BENCH_SCHEMA_VERSION, records: Vec::new() };
        for k in &self.kernels {
            let per_step = k.wall_s / steps;
            report.records.push(BenchRecord {
                name: format!("{prefix}/{}", k.name),
                samples: self.steps,
                median_s: per_step,
                mean_s: per_step,
                min_s: per_step,
                max_s: per_step,
                throughput: (k.cells as f64 / steps).max(1.0),
                throughput_unit: "cells".to_string(),
                tolerance: None,
                host: Some(host.clone()),
            });
        }
        report
    }
}

/// Raw accumulated counts for one kernel (pre-rate-derivation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelCounts {
    /// Kernel name.
    pub name: String,
    /// Total wall seconds, of the rank that spent the most.
    pub wall_s: f64,
    /// Timed invocations on that rank.
    pub calls: u64,
    /// Cells charged.
    pub cells: u64,
    /// Flops charged.
    pub flops: f64,
    /// Modeled DMA bytes charged.
    pub dma_bytes: u64,
}

#[derive(Debug, Default)]
struct Accum {
    /// `(wall seconds, calls)` by rank.
    walls: Vec<(f64, u64)>,
    cells: u64,
    flops: f64,
    dma_bytes: u64,
}

/// The live accumulator the driver records into.
///
/// Thread-safe: walls and count charges from concurrent ranks fold into
/// the same named slots (a short mutex hold per event — the events are
/// per-kernel-per-step, not per-cell). Counts sum over the ranks; walls
/// are kept per rank and a kernel reports its slowest rank's, so a row's
/// wall stays comparable to the step wall instead of growing with the
/// grid.
#[derive(Debug, Default)]
pub struct PerfRecorder {
    slots: Mutex<HashMap<String, Accum>>,
    steps: AtomicU64,
    step_walls: Mutex<Vec<f64>>,
}

impl PerfRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add cell/flop/DMA-byte counts to `name`'s slot.
    pub fn charge(&self, name: &str, cells: u64, flops: f64, dma_bytes: u64) {
        let mut slots = lock_recover(&self.slots);
        let a = slots.entry(name.to_string()).or_default();
        a.cells += cells;
        a.flops += flops;
        a.dma_bytes += dma_bytes;
    }

    /// Add a measured wall interval (and one call) of `rank` to `name`'s
    /// slot.
    pub fn add_wall(&self, rank: usize, name: &str, wall_s: f64) {
        let mut slots = lock_recover(&self.slots);
        let walls = &mut slots.entry(name.to_string()).or_default().walls;
        if walls.len() <= rank {
            walls.resize(rank + 1, (0.0, 0));
        }
        walls[rank].0 += wall_s;
        walls[rank].1 += 1;
    }

    /// Record one completed step: its 1-based index and wall seconds.
    /// With multiple ranks, only one rank should report (the counts are
    /// shared; duplicate step samples would skew the percentiles).
    pub fn note_step(&self, step: u64, wall_s: f64) {
        self.steps.fetch_max(step, Ordering::Relaxed);
        let mut walls = lock_recover(&self.step_walls);
        if walls.len() < MAX_STEP_SAMPLES {
            walls.push(wall_s);
        }
    }

    /// Highest step index reported so far.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Nearest-rank (p50, p95) of the recorded per-step wall times.
    pub fn step_percentiles(&self) -> (f64, f64) {
        let walls = lock_recover(&self.step_walls);
        (crate::percentile(&walls, 50.0), crate::percentile(&walls, 95.0))
    }

    /// Sum of the recorded per-step wall times.
    pub fn total_step_wall(&self) -> f64 {
        lock_recover(&self.step_walls).iter().sum()
    }

    /// Snapshot all slots, sorted in [`KERNEL_ORDER`] (then by name).
    pub fn counts(&self) -> Vec<KernelCounts> {
        let slots = lock_recover(&self.slots);
        let mut out: Vec<KernelCounts> = slots
            .iter()
            .map(|(name, a)| {
                let slowest = a.walls.iter().copied().max_by(|x, y| x.0.total_cmp(&y.0));
                let (wall_s, calls) = slowest.unwrap_or_default();
                KernelCounts {
                    name: name.clone(),
                    wall_s,
                    calls,
                    cells: a.cells,
                    flops: a.flops,
                    dma_bytes: a.dma_bytes,
                }
            })
            .collect();
        sort_canonical(&mut out);
        out
    }
}

/// Sort kernel rows into [`KERNEL_ORDER`], then by name.
pub fn sort_canonical(rows: &mut [KernelCounts]) {
    let rank = |n: &str| KERNEL_ORDER.iter().position(|k| *k == n).unwrap_or(KERNEL_ORDER.len());
    rows.sort_by(|a, b| rank(&a.name).cmp(&rank(&b.name)).then_with(|| a.name.cmp(&b.name)));
}

/// Lock, recovering from a poisoned mutex (aggregate updates are
/// self-contained; see the same pattern on the telemetry registry).
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostFingerprint {
        HostFingerprint {
            os: "linux".to_string(),
            arch: "x86_64".to_string(),
            cpu: "test-cpu".to_string(),
            threads: 4,
        }
    }

    fn ledger() -> PerfLedger {
        PerfLedger {
            schema_version: PERF_SCHEMA_VERSION,
            host: host(),
            steps: 10,
            grid_cells: 1000,
            wall_s: 2.0,
            step_p50_s: 0.19,
            step_p95_s: 0.25,
            exec_mode: Some("parallel".to_string()),
            features: Some(String::new()),
            resident_mode: None,
            kernels: vec![
                PerfKernel::from_counts("dvelc", 1.0, 10, 10_000, 760_000.0, 400_000, 0.5),
                PerfKernel::from_counts("halo", 0.5, 20, 2_000, 0.0, 80_000, 0.0),
            ],
        }
    }

    #[test]
    fn recorder_accumulates_walls_and_charges() {
        let rec = PerfRecorder::new();
        rec.add_wall(0, "dvelc", 0.25);
        rec.add_wall(0, "dvelc", 0.25);
        rec.charge("dvelc", 100, 7600.0, 4000);
        rec.charge("dvelc", 100, 7600.0, 4000);
        rec.charge("sponge", 50, 450.0, 3600);
        let counts = rec.counts();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[0].name, "dvelc", "canonical order puts dvelc first");
        assert_eq!(counts[0].calls, 2);
        assert_eq!(counts[0].cells, 200);
        assert_eq!(counts[0].flops, 15_200.0);
        assert_eq!(counts[0].dma_bytes, 8_000);
        assert_eq!(counts[0].wall_s, 0.5);
        assert_eq!(counts[1].name, "sponge");
    }

    #[test]
    fn a_kernel_reports_its_slowest_ranks_wall_and_every_ranks_counts() {
        let rec = PerfRecorder::new();
        for (rank, wall) in [(0, 0.1), (1, 0.3), (1, 0.3), (2, 0.2)] {
            rec.add_wall(rank, "halo", wall);
            rec.charge("halo", 10, 0.0, 360);
        }
        let halo = &rec.counts()[0];
        assert_eq!((halo.wall_s, halo.calls), (0.6, 2), "rank 1 spent the most");
        assert_eq!((halo.cells, halo.dma_bytes), (40, 1440), "counts sum over the ranks");
    }

    #[test]
    fn recorder_step_percentiles_are_nearest_rank() {
        let rec = PerfRecorder::new();
        for (i, w) in [0.1, 0.2, 0.3, 0.4].iter().enumerate() {
            rec.note_step(i as u64 + 1, *w);
        }
        assert_eq!(rec.steps(), 4);
        let (p50, p95) = rec.step_percentiles();
        assert_eq!(p50, 0.2);
        assert_eq!(p95, 0.4);
        assert!((rec.total_step_wall() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_rates_derive_from_counts() {
        let k = PerfKernel::from_counts("dstrqc", 2.0, 10, 1_000_000, 2.08e8, 500_000_000, 1.0);
        assert_eq!(k.cells_per_s, 500_000.0);
        assert_eq!(k.gflops_per_s, 0.104);
        assert_eq!(k.gb_per_s, 0.25);
        assert_eq!(k.roofline_fraction, 0.5);
        let zero = PerfKernel::from_counts("idle", 0.0, 0, 0, 0.0, 0, 0.0);
        assert_eq!(zero.cells_per_s, 0.0);
        assert_eq!(zero.roofline_fraction, 0.0);
    }

    #[test]
    fn ledger_json_roundtrip_and_lookup() {
        let l = ledger();
        let back = PerfLedger::from_json(&l.to_json()).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.schema_version, PERF_SCHEMA_VERSION);
        assert!(back.kernel("dvelc").is_some());
        assert!(back.kernel("nope").is_none());
    }

    #[test]
    fn below_fraction_ignores_unmodeled_kernels() {
        let l = ledger();
        let low = l.below_fraction(0.6);
        assert_eq!(low.len(), 1, "halo (fraction 0 = unmodeled) must not be flagged");
        assert_eq!(low[0].name, "dvelc");
        assert!(l.below_fraction(0.3).is_empty());
        let table = l.text_table(0.6);
        assert!(table.contains("LOW"));
        assert!(table.contains("unmodeled"));
    }

    #[test]
    fn bench_report_conversion_has_real_units() {
        let l = ledger();
        let report = l.to_bench_report("perf");
        assert_eq!(report.records.len(), 2);
        let r = report.record("perf/dvelc").unwrap();
        assert_eq!(r.median_s, 0.1);
        assert_eq!(r.throughput, 1000.0);
        assert_eq!(r.throughput_unit, "cells");
        assert_eq!(r.host.as_deref(), Some("linux/x86_64/test-cpu/4t"));
    }

    #[test]
    fn host_fingerprint_detects_something() {
        let h = HostFingerprint::detect(8);
        assert!(!h.os.is_empty());
        assert!(!h.arch.is_empty());
        assert!(!h.cpu.is_empty());
        assert_eq!(h.threads, 8);
        assert!(h.id().ends_with("/8t"));
    }

    /// Golden-file pin of PerfLedger schema v1: this exact shape must keep
    /// parsing (and no current field may vanish from the output).
    #[test]
    fn golden_schema_v1_pin() {
        let golden = r#"{
            "schema_version": 1,
            "host": {"os": "linux", "arch": "x86_64", "cpu": "test-cpu", "threads": 4},
            "steps": 10,
            "grid_cells": 1000,
            "wall_s": 2.0,
            "step_p50_s": 0.19,
            "step_p95_s": 0.25,
            "kernels": [
                {"name": "dvelc", "wall_s": 1.0, "calls": 10, "cells": 10000,
                 "flops": 760000.0, "dma_bytes": 400000, "cells_per_s": 10000.0,
                 "gflops_per_s": 0.00076, "gb_per_s": 0.0004, "roofline_fraction": 0.5}
            ]
        }"#;
        let l = PerfLedger::from_json(golden).unwrap();
        assert_eq!(l.schema_version, PERF_SCHEMA_VERSION);
        assert_eq!(l.kernels[0].name, "dvelc");
        let text = l.to_json();
        for key in [
            "schema_version",
            "host",
            "steps",
            "grid_cells",
            "wall_s",
            "step_p50_s",
            "step_p95_s",
            "kernels",
            "cells_per_s",
            "gflops_per_s",
            "gb_per_s",
            "roofline_fraction",
            "dma_bytes",
        ] {
            assert!(text.contains(&format!("\"{key}\"")), "schema v1 lost key {key}");
        }
    }
}

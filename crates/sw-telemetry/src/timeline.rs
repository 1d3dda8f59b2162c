//! Step-aligned per-rank run timeline and load-imbalance attribution.
//!
//! The paper's scaling story (§7: 88 % parallel efficiency on 160 k
//! processes) rests on knowing *where* ranks wait. The aggregate timers in
//! the telemetry [`crate::Report`] answer "how much time did phase X take
//! in total", but not "which rank was the straggler" — and the ROADMAP's
//! local-time-stepping and out-of-core arcs need exactly that attribution
//! before they can be built or validated.
//!
//! [`TimelineRecorder`] is the collection side: a thread-safe accumulator
//! fed from the driver's step loop (one slot per rank × phase), from the
//! halo exchanger's wait/pack/unpack split, and from per-field
//! resident-bytes gauges. Like the perf recorder it is attached as an
//! `Option<Arc<_>>` hook: when absent the instrumented code paths collapse
//! to a branch on `None`, and recording never touches the numerics — an
//! instrumented run is bit-identical to an uninstrumented one.
//!
//! [`TimelineReport`] is the analysis side (schema v1): per-phase per-rank
//! wall time, skew `(max − min) / mean`, the critical-path rank (most
//! non-wait work), the halo-wait fraction, and a per-field memory block
//! with an allocation high-water mark. A run bundle holds it as
//! `timeline.json`; `swquake inspect --max-skew` gates on it.
//!
//! With a stream attached ([`TimelineRecorder::with_stream`]) the recorder
//! also emits heartbeat lines to `<dir>/run.jsonl` every `stride` steps —
//! mirroring the campaign engine's `campaign.jsonl` heartbeats — so a long
//! run can be watched live with `tail -f`. A final line (`"final": true`)
//! is always written on [`TimelineRecorder::finish`], even when the stride
//! exceeds the step count.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::lock;

/// Version stamp of [`TimelineReport`]. Bump on breaking changes.
pub const TIMELINE_SCHEMA_VERSION: u32 = 1;

/// File name of the streamed heartbeat log inside a run bundle.
pub const RUN_LOG_NAME: &str = "run.jsonl";

/// File name of the final report inside a run bundle.
pub const TIMELINE_NAME: &str = "timeline.json";

/// Well-known phase names recorded by the driver and halo exchanger.
/// Anything else is accepted too; these constants just keep the producer
/// and the tests in agreement.
pub mod phase {
    /// Velocity half-step (free surface + velocity update).
    pub const VELOCITY: &str = "velocity";
    /// Stress half-step (stress, source, plasticity, sponge, compression).
    pub const STRESS: &str = "stress";
    /// Step bookkeeping (seismogram/PGV record, checkpoint, health check).
    pub const FINISH: &str = "finish";
    /// Halo packing (serialize faces into send buffers).
    pub const HALO_PACK: &str = "halo.pack";
    /// Time blocked waiting on halo neighbors — the imbalance signal.
    pub const HALO_WAIT: &str = "halo.wait";
    /// Halo unpacking (copy received faces into ghost cells).
    pub const HALO_UNPACK: &str = "halo.unpack";
}

#[derive(Debug, Default)]
struct PhaseSlot {
    /// Accumulated seconds, indexed by rank (grown on demand).
    per_rank_s: Vec<f64>,
    /// Span count per rank.
    calls: Vec<u64>,
}

#[derive(Debug)]
struct Inner {
    /// Highest rank index seen + 1.
    ranks: usize,
    /// Expected total steps (0 when unknown): drives the heartbeat ETA.
    total_steps: u64,
    phases: BTreeMap<String, PhaseSlot>,
    /// Steps completed per rank.
    steps: Vec<u64>,
    /// Total step wall seconds per rank.
    step_wall_s: Vec<f64>,
    /// Per-field resident bytes, indexed by rank.
    memory: BTreeMap<String, Vec<u64>>,
    /// Largest total resident-bytes sum ever observed.
    high_water_bytes: u64,
    /// Wavefield storage mode of the run (`full` / `compressed16`),
    /// `None` until a driver declares it.
    resident_mode: Option<String>,
}

impl Inner {
    fn grow(&mut self, rank: usize) {
        if rank >= self.ranks {
            self.ranks = rank + 1;
        }
        if self.steps.len() < self.ranks {
            self.steps.resize(self.ranks, 0);
            self.step_wall_s.resize(self.ranks, 0.0);
        }
    }
}

struct Stream {
    stride: u64,
    file: Mutex<fs::File>,
}

/// Thread-safe collector for per-rank, per-phase wall time and per-field
/// resident memory. Attach one (as `Arc<TimelineRecorder>`) to each rank's
/// `SimConfig`; every rank feeds the same recorder and
/// [`Self::report`] aggregates across them.
pub struct TimelineRecorder {
    inner: Mutex<Inner>,
    stream: Option<Stream>,
    started: Instant,
}

impl Default for TimelineRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TimelineRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimelineRecorder")
            .field("streaming", &self.stream.is_some())
            .finish_non_exhaustive()
    }
}

impl TimelineRecorder {
    /// A recorder with no heartbeat stream (aggregation only).
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                ranks: 0,
                total_steps: 0,
                phases: BTreeMap::new(),
                steps: Vec::new(),
                step_wall_s: Vec::new(),
                memory: BTreeMap::new(),
                high_water_bytes: 0,
                resident_mode: None,
            }),
            stream: None,
            started: Instant::now(),
        }
    }

    /// Declare the expected step count (enables heartbeat ETAs).
    pub fn with_total_steps(self, steps: u64) -> Self {
        lock(&self.inner).total_steps = steps;
        self
    }

    /// Attach a heartbeat stream: creates `dir` and truncates
    /// `dir/run.jsonl`; a line is emitted every `stride` steps of rank 0
    /// (stride 0 is treated as 1) plus a final line on [`Self::finish`].
    pub fn with_stream(mut self, dir: &Path, stride: u64) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let file = fs::File::create(dir.join(RUN_LOG_NAME))?;
        self.stream = Some(Stream { stride: stride.max(1), file: Mutex::new(file) });
        Ok(self)
    }

    /// Accumulate `seconds` of wall time into `(rank, phase)`.
    pub fn record_phase(&self, rank: usize, phase: &str, seconds: f64) {
        let mut inner = lock(&self.inner);
        inner.grow(rank);
        let ranks = inner.ranks;
        let slot = inner.phases.entry(phase.to_string()).or_default();
        if slot.per_rank_s.len() < ranks {
            slot.per_rank_s.resize(ranks, 0.0);
            slot.calls.resize(ranks, 0);
        }
        slot.per_rank_s[rank] += seconds.max(0.0);
        slot.calls[rank] += 1;
    }

    /// Declare how the run stores its wavefields (`full` /
    /// `compressed16`); echoed in heartbeats and the report.
    pub fn set_resident_mode(&self, mode: impl Into<String>) {
        lock(&self.inner).resident_mode = Some(mode.into());
    }

    /// Record the current resident bytes of one named field on `rank`
    /// (idempotent: re-recording replaces the value). The total across all
    /// fields and ranks feeds the high-water mark.
    pub fn record_memory(&self, rank: usize, field: &str, bytes: u64) {
        let mut inner = lock(&self.inner);
        inner.grow(rank);
        let ranks = inner.ranks;
        let slot = inner.memory.entry(field.to_string()).or_default();
        if slot.len() < ranks {
            slot.resize(ranks, 0);
        }
        slot[rank] = bytes;
        let total: u64 = inner.memory.values().flatten().sum();
        if total > inner.high_water_bytes {
            inner.high_water_bytes = total;
        }
    }

    /// Mark one completed step on `rank` with its wall seconds. When a
    /// stream is attached and `rank` is 0, a heartbeat line is emitted
    /// every `stride` steps.
    pub fn note_step(&self, rank: usize, step: u64, wall_s: f64) {
        let due = {
            let mut inner = lock(&self.inner);
            inner.grow(rank);
            inner.steps[rank] = inner.steps[rank].max(step);
            inner.step_wall_s[rank] += wall_s.max(0.0);
            rank == 0
                && step > 0
                && self.stream.as_ref().is_some_and(|s| step.is_multiple_of(s.stride))
        };
        if due {
            self.emit_heartbeat(false);
        }
    }

    /// Emit the final heartbeat line (always, regardless of stride) and
    /// return the aggregated report. Safe to call without a stream.
    pub fn finish(&self) -> TimelineReport {
        self.emit_heartbeat(true);
        self.report()
    }

    fn emit_heartbeat(&self, fin: bool) {
        let Some(stream) = &self.stream else { return };
        let rep = self.report();
        let step = rep.steps;
        let eta_s = if fin || rep.total_steps == 0 || step == 0 {
            0.0
        } else {
            rep.wall_s / step as f64 * rep.total_steps.saturating_sub(step) as f64
        };
        let mut line = serde_json::json!({
            "event": "heartbeat",
            "final": fin,
            "step": step,
            "steps_total": rep.total_steps,
            "wall_s": rep.wall_s,
            "eta_s": eta_s,
            "max_skew": rep.max_skew,
            "critical_rank": rep.critical_rank,
            "halo_wait_frac": rep.halo_wait_frac,
            "resident_bytes": rep.memory.resident_bytes,
        });
        if let Some(mode) = &rep.resident_mode {
            line["resident"] = serde_json::json!(mode);
        }
        let text = serde_json::to_string(&line).expect("heartbeat serialization is infallible");
        let mut file = lock(&stream.file);
        // Observability must never abort the run it observes: a full disk
        // degrades to missing heartbeats, not a failed simulation.
        let _ = writeln!(file, "{text}");
        let _ = file.flush();
    }

    /// Aggregate everything recorded so far into a schema-v1 report.
    pub fn report(&self) -> TimelineReport {
        let inner = lock(&self.inner);
        let ranks = inner.ranks.max(1);
        let mut phases = Vec::with_capacity(inner.phases.len());
        let mut busy = vec![0.0f64; ranks];
        let mut wait = vec![0.0f64; ranks];
        for (name, slot) in &inner.phases {
            let mut per_rank_s = slot.per_rank_s.clone();
            per_rank_s.resize(ranks, 0.0);
            let mut calls = slot.calls.clone();
            calls.resize(ranks, 0);
            let total: f64 = per_rank_s.iter().sum();
            let mean_s = total / ranks as f64;
            let min_s = per_rank_s.iter().copied().fold(f64::INFINITY, f64::min);
            let max_s = per_rank_s.iter().copied().fold(0.0f64, f64::max);
            let critical_rank = argmax(&per_rank_s);
            for (r, s) in per_rank_s.iter().enumerate() {
                if name == phase::HALO_WAIT {
                    wait[r] += s;
                } else {
                    busy[r] += s;
                }
            }
            phases.push(PhaseTimeline {
                name: name.clone(),
                per_rank_s,
                calls,
                mean_s,
                min_s: if min_s.is_finite() { min_s } else { 0.0 },
                max_s,
                skew: skew(min_s, max_s, mean_s),
                critical_rank,
            });
        }
        let max_skew = phases.iter().map(|p| p.skew).fold(0.0f64, f64::max);
        // The critical-path rank is the one doing the most *non-wait*
        // work: waits equalize total wall time across ranks, so including
        // them would hide the straggler they point at.
        let critical_rank = argmax(&busy);
        let busy_total: f64 = busy.iter().sum();
        let wait_total: f64 = wait.iter().sum();
        let halo_wait_frac = if busy_total + wait_total > 0.0 {
            wait_total / (busy_total + wait_total)
        } else {
            0.0
        };
        let mut fields = Vec::with_capacity(inner.memory.len());
        let mut resident_bytes = 0u64;
        for (name, slot) in &inner.memory {
            let mut per_rank_bytes = slot.clone();
            per_rank_bytes.resize(ranks, 0);
            let total_bytes: u64 = per_rank_bytes.iter().sum();
            resident_bytes += total_bytes;
            fields.push(MemoryField { name: name.clone(), per_rank_bytes, total_bytes });
        }
        TimelineReport {
            schema_version: TIMELINE_SCHEMA_VERSION,
            ranks,
            steps: inner.steps.iter().copied().max().unwrap_or(0),
            total_steps: inner.total_steps,
            wall_s: self.started.elapsed().as_secs_f64(),
            phases,
            critical_rank,
            max_skew,
            halo_wait_frac,
            memory: MemoryReport {
                fields,
                resident_bytes,
                high_water_bytes: inner.high_water_bytes.max(resident_bytes),
            },
            resident_mode: inner.resident_mode.clone(),
        }
    }
}

fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

/// Relative spread `(max − min) / mean`; 0 for degenerate (empty or
/// zero-duration) phases so the report never carries NaN.
fn skew(min_s: f64, max_s: f64, mean_s: f64) -> f64 {
    if mean_s > 0.0 && min_s.is_finite() {
        (max_s - min_s) / mean_s
    } else {
        0.0
    }
}

/// One phase's per-rank timing and its imbalance statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseTimeline {
    /// Phase name (see [`phase`] for the well-known set).
    pub name: String,
    /// Accumulated wall seconds, indexed by rank.
    pub per_rank_s: Vec<f64>,
    /// Recorded span count per rank (0 marks a rank with missing spans).
    pub calls: Vec<u64>,
    /// Mean over ranks of the accumulated seconds.
    pub mean_s: f64,
    /// Fastest rank's accumulated seconds.
    pub min_s: f64,
    /// Slowest rank's accumulated seconds.
    pub max_s: f64,
    /// `(max − min) / mean`, 0 when the phase never ran.
    pub skew: f64,
    /// Rank holding `max_s` for this phase.
    pub critical_rank: usize,
}

/// One field's resident-memory gauge across ranks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryField {
    /// Field name (e.g. `state.u`, `fused.velocity`).
    pub name: String,
    /// Resident bytes, indexed by rank.
    pub per_rank_bytes: Vec<u64>,
    /// Sum over ranks.
    pub total_bytes: u64,
}

/// Working-set block of the timeline report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Per-field gauges, sorted by name.
    pub fields: Vec<MemoryField>,
    /// Current resident bytes summed over fields and ranks.
    pub resident_bytes: u64,
    /// Largest resident total ever observed during the run.
    pub high_water_bytes: u64,
}

/// Step-aligned per-rank timeline (schema v1): what `timeline.json`
/// holds and what `swquake inspect` renders.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineReport {
    /// [`TIMELINE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Number of ranks that reported (at least 1).
    pub ranks: usize,
    /// Highest completed step across ranks.
    pub steps: u64,
    /// Expected total steps (0 when unknown).
    pub total_steps: u64,
    /// Recorder lifetime wall seconds at snapshot time.
    pub wall_s: f64,
    /// Per-phase timings, sorted by phase name.
    pub phases: Vec<PhaseTimeline>,
    /// Rank with the most non-wait work — the load-imbalance culprit.
    pub critical_rank: usize,
    /// Largest per-phase skew in the report.
    pub max_skew: f64,
    /// Fraction of all recorded time spent blocked on halo neighbors.
    pub halo_wait_frac: f64,
    /// Per-field resident-bytes gauges and the allocation high-water mark.
    pub memory: MemoryReport,
    /// Wavefield storage mode (`full` / `compressed16`); absent in
    /// reports from builds or runs that never declared one (additive,
    /// schema v1 stays parseable).
    pub resident_mode: Option<String>,
}

impl TimelineReport {
    /// Phases whose skew exceeds `floor`, for the imbalance gate.
    pub fn phases_over(&self, floor: f64) -> Vec<&PhaseTimeline> {
        self.phases.iter().filter(|p| p.skew > floor).collect()
    }

    /// Human-readable table mirroring the perf ledger's text form.
    pub fn text_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "timeline v{}  ranks: {}  steps: {}  wall: {:.3}s\n",
            self.schema_version, self.ranks, self.steps, self.wall_s
        ));
        out.push_str(&format!(
            "critical rank: {}  max skew: {:.3}  halo wait: {:.1}%\n",
            self.critical_rank,
            self.max_skew,
            self.halo_wait_frac * 100.0
        ));
        out.push_str(&format!(
            "resident: {:.1} MiB (high water {:.1} MiB)\n",
            self.memory.resident_bytes as f64 / (1024.0 * 1024.0),
            self.memory.high_water_bytes as f64 / (1024.0 * 1024.0)
        ));
        if let Some(mode) = &self.resident_mode {
            out.push_str(&format!("resident mode: {mode}\n"));
        }
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>10} {:>8} {:>9}\n",
            "phase", "mean_s", "min_s", "max_s", "skew", "crit-rank"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:<14} {:>10.4} {:>10.4} {:>10.4} {:>8.3} {:>9}\n",
                p.name, p.mean_s, p.min_s, p.max_s, p.skew, p.critical_rank
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_guards_degenerate_phases() {
        assert_eq!(skew(f64::INFINITY, 0.0, 0.0), 0.0);
        assert_eq!(skew(0.0, 0.0, 0.0), 0.0);
        assert!((skew(1.0, 3.0, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggregates_per_rank_phases() {
        let rec = TimelineRecorder::new();
        rec.record_phase(0, phase::STRESS, 1.0);
        rec.record_phase(1, phase::STRESS, 3.0);
        rec.record_phase(0, phase::HALO_WAIT, 2.0);
        let rep = rec.report();
        assert_eq!(rep.ranks, 2);
        let stress = rep.phases.iter().find(|p| p.name == phase::STRESS).unwrap();
        assert_eq!(stress.critical_rank, 1);
        assert!((stress.skew - 1.0).abs() < 1e-12);
        // Rank 1 did the most non-wait work; rank 0's wait does not count.
        assert_eq!(rep.critical_rank, 1);
        assert!((rep.halo_wait_frac - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn memory_high_water_tracks_peak() {
        let rec = TimelineRecorder::new();
        rec.record_memory(0, "state.u", 100);
        rec.record_memory(0, "state.v", 200);
        rec.record_memory(0, "state.v", 50);
        let rep = rec.report();
        assert_eq!(rep.memory.resident_bytes, 150);
        assert_eq!(rep.memory.high_water_bytes, 300);
        assert_eq!(rep.memory.fields.len(), 2);
    }

    #[test]
    fn report_round_trips_through_json() {
        let rec = TimelineRecorder::new();
        rec.record_phase(0, phase::VELOCITY, 0.5);
        rec.note_step(0, 1, 0.5);
        let rep = rec.report();
        let text = serde_json::to_string(&rep).unwrap();
        let back: TimelineReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema_version, TIMELINE_SCHEMA_VERSION);
        assert_eq!(back.ranks, rep.ranks);
        assert_eq!(back.phases.len(), rep.phases.len());
    }
}

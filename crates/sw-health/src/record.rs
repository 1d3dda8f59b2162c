//! The health record: the versioned unit of the JSONL health stream.
//!
//! Like `sw-telemetry`'s report, the serialised shape is a stable
//! contract: `SCHEMA_VERSION` is bumped whenever a field is renamed,
//! removed, or changes meaning, so downstream dashboards can parse
//! streams from mixed solver builds.

use serde::{Deserialize, Serialize};

/// Version of the serialised [`HealthRecord`] schema.
pub const SCHEMA_VERSION: u32 = 1;

/// Per-field scan results for one probe step. `max_abs` is the maximum
/// over *finite* entries only, so it stays meaningful while a blow-up
/// is spreading through the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldProbe {
    pub name: String,
    pub max_abs: f64,
    pub nan_count: u64,
    pub inf_count: u64,
    /// Entries below `f32::MIN_POSITIVE` in magnitude, zero excluded.
    /// The kernels compute in flush-to-zero mode (`sw_grid::fpenv`), so
    /// this is 0 on x86-64 and aarch64; on a target where that mode is a
    /// no-op it counts the wavefront fringe whose arithmetic traps to
    /// microcode — a step that slows along the run shows up here. Absent
    /// from streams written before the field existed (read as 0).
    #[serde(default)]
    pub subnormal_count: u64,
    /// Grid index `(x, y, z)` of the first non-finite entry in scan
    /// order, if any — deterministic across exec modes.
    pub first_bad: Option<(usize, usize, usize)>,
}

/// Raw probe data for one step, before the watchdog has judged it.
#[derive(Debug, Clone, PartialEq)]
pub struct StepProbe {
    pub step: u64,
    pub time: f64,
    pub rank: usize,
    /// max over the three velocity components of the finite max|·|.
    pub max_velocity: f64,
    /// max over the six stress components of the finite max|·|.
    pub max_stress: f64,
    pub kinetic_energy: f64,
    pub fields: Vec<FieldProbe>,
}

impl StepProbe {
    pub fn nan_count(&self) -> u64 {
        self.fields.iter().map(|f| f.nan_count).sum()
    }

    pub fn inf_count(&self) -> u64 {
        self.fields.iter().map(|f| f.inf_count).sum()
    }

    pub fn subnormal_count(&self) -> u64 {
        self.fields.iter().map(|f| f.subnormal_count).sum()
    }

    /// The first field (in probe order) carrying a non-finite entry,
    /// with that entry's grid index.
    pub fn first_bad(&self) -> Option<(&FieldProbe, (usize, usize, usize))> {
        self.fields.iter().find_map(|f| f.first_bad.map(|idx| (f, idx)))
    }
}

/// A non-fatal anomaly: the run continues, but the condition is
/// recorded in the verdict, counted in telemetry, and streamed to the
/// health log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Warning {
    /// max|v| grew by `factor` (> `limit`) since the previous probe.
    VelocityGrowth { factor: f64, limit: f64 },
    /// Kinetic energy grew by `factor` (> `limit`) since the previous
    /// probe.
    EnergyDrift { factor: f64, limit: f64 },
    /// A field's 16-bit round-trip error exceeded its binade budget.
    CompressionBudget { field: String, rel_err: f64, budget: f64 },
    /// Resume skipped a corrupt or incomplete checkpoint generation and
    /// fell back to an older one.
    CheckpointFallback { step: u64, reason: String },
}

/// A fatal anomaly: the run is unrecoverable and should abort after
/// dumping the diagnostic bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fatal {
    Nan {
        field: String,
        index: (usize, usize, usize),
    },
    Inf {
        field: String,
        index: (usize, usize, usize),
    },
    /// The run used `dt` above the CFL-stable `dt_stable` and the
    /// wavefield went non-finite — the classic unstable-timestep
    /// signature.
    CflViolation {
        field: String,
        index: (usize, usize, usize),
        dt: f64,
        dt_stable: f64,
    },
    /// A field's 16-bit round-trip error exceeded its binade budget while
    /// the budget was configured as a hard gate
    /// (`HealthConfig::compression_budget_fatal`) — the abort condition
    /// for compressed-resident runs, where quantization error *is*
    /// solution error. No grid index: the breach is a per-plane
    /// aggregate, not a single bad cell.
    CompressionBudget {
        field: String,
        rel_err: f64,
        budget: f64,
    },
}

impl Fatal {
    pub fn field(&self) -> &str {
        match self {
            Fatal::Nan { field, .. }
            | Fatal::Inf { field, .. }
            | Fatal::CflViolation { field, .. }
            | Fatal::CompressionBudget { field, .. } => field,
        }
    }

    pub fn index(&self) -> (usize, usize, usize) {
        match self {
            Fatal::Nan { index, .. }
            | Fatal::Inf { index, .. }
            | Fatal::CflViolation { index, .. } => *index,
            Fatal::CompressionBudget { .. } => (0, 0, 0),
        }
    }
}

impl std::fmt::Display for Fatal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fatal::Nan { field, index } => {
                write!(f, "NaN in field '{field}' at ({}, {}, {})", index.0, index.1, index.2)
            }
            Fatal::Inf { field, index } => {
                write!(f, "Inf in field '{field}' at ({}, {}, {})", index.0, index.1, index.2)
            }
            Fatal::CflViolation { field, index, dt, dt_stable } => write!(
                f,
                "CFL violation (dt {dt:.6e} s > stable {dt_stable:.6e} s) blew up field \
                 '{field}' at ({}, {}, {})",
                index.0, index.1, index.2
            ),
            Fatal::CompressionBudget { field, rel_err, budget } => write!(
                f,
                "compression error budget breached in field '{field}': binade-relative \
                 round-trip error {rel_err:.3e} > budget {budget:.3e}"
            ),
        }
    }
}

/// The watchdog's judgement of one probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    Healthy,
    Warning(Vec<Warning>),
    Fatal(Fatal),
}

impl Verdict {
    /// Numeric severity for telemetry gauges and trace instants:
    /// 0 healthy, 1 warning, 2 fatal.
    pub fn code(&self) -> u32 {
        match self {
            Verdict::Healthy => 0,
            Verdict::Warning(_) => 1,
            Verdict::Fatal(_) => 2,
        }
    }

    pub fn is_fatal(&self) -> bool {
        matches!(self, Verdict::Fatal(_))
    }

    pub fn warnings(&self) -> &[Warning] {
        match self {
            Verdict::Warning(w) => w,
            _ => &[],
        }
    }
}

/// One line of the JSONL health stream: probe data plus the verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthRecord {
    pub schema_version: u32,
    pub step: u64,
    pub time: f64,
    pub rank: usize,
    pub max_velocity: f64,
    pub max_stress: f64,
    /// `None` when the energy reduction went non-finite (JSON carries
    /// no NaN/Inf; the `nan_count`/`inf_count` and the verdict say
    /// why). `max_velocity`/`max_stress` scan finite entries only and
    /// are therefore always finite.
    pub kinetic_energy: Option<f64>,
    pub nan_count: u64,
    pub inf_count: u64,
    /// Sum of the fields' `subnormal_count`s (see [`FieldProbe`]).
    #[serde(default)]
    pub subnormal_count: u64,
    pub verdict: Verdict,
    pub fields: Vec<FieldProbe>,
}

impl HealthRecord {
    /// A synthetic record carrying only a [`Warning::CheckpointFallback`]
    /// — emitted at resume time, before any stepping, so the stream
    /// documents that the newest generation was skipped. `step`/`time`
    /// are those of the generation actually restored; probe data is
    /// zeroed (nothing has been probed yet).
    pub fn checkpoint_fallback(
        step: u64,
        time: f64,
        rank: usize,
        skipped_step: u64,
        reason: String,
    ) -> Self {
        HealthRecord {
            schema_version: SCHEMA_VERSION,
            step,
            time,
            rank,
            max_velocity: 0.0,
            max_stress: 0.0,
            kinetic_energy: Some(0.0),
            nan_count: 0,
            inf_count: 0,
            subnormal_count: 0,
            verdict: Verdict::Warning(vec![Warning::CheckpointFallback {
                step: skipped_step,
                reason,
            }]),
            fields: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> HealthRecord {
        HealthRecord {
            schema_version: SCHEMA_VERSION,
            step: 40,
            time: 0.25,
            rank: 2,
            max_velocity: 1.5e-3,
            max_stress: 2.0e4,
            kinetic_energy: Some(9.0e2),
            nan_count: 1,
            inf_count: 0,
            subnormal_count: 0,
            verdict: Verdict::Fatal(Fatal::Nan { field: "u".into(), index: (3, 4, 5) }),
            fields: vec![FieldProbe {
                name: "u".into(),
                max_abs: 1.5e-3,
                nan_count: 1,
                inf_count: 0,
                subnormal_count: 0,
                first_bad: Some((3, 4, 5)),
            }],
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = sample_record();
        let line = serde_json::to_string(&rec).expect("serialise");
        let back: HealthRecord = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, rec);
    }

    #[test]
    fn records_written_before_subnormal_count_still_parse() {
        let mut rec = sample_record();
        rec.subnormal_count = 9;
        rec.fields[0].subnormal_count = 9;
        let line = serde_json::to_string(&rec).expect("serialise");
        assert!(line.contains("\"subnormal_count\":9"), "{line}");
        let old = line.replace("\"subnormal_count\":9,", "");
        let back: HealthRecord = serde_json::from_str(&old).expect("parse");
        assert_eq!(back, sample_record());
    }

    #[test]
    fn verdict_codes_are_ordered_by_severity() {
        let warn = Verdict::Warning(vec![Warning::VelocityGrowth { factor: 9.0, limit: 2.0 }]);
        let fatal = Verdict::Fatal(Fatal::Inf { field: "xx".into(), index: (0, 0, 0) });
        assert!(Verdict::Healthy.code() < warn.code());
        assert!(warn.code() < fatal.code());
        assert!(fatal.is_fatal());
        assert_eq!(warn.warnings().len(), 1);
    }

    #[test]
    fn step_probe_finds_first_bad_field_in_order() {
        let probe = StepProbe {
            step: 1,
            time: 0.0,
            rank: 0,
            max_velocity: 0.0,
            max_stress: 0.0,
            kinetic_energy: 0.0,
            fields: vec![
                FieldProbe {
                    name: "u".into(),
                    max_abs: 0.0,
                    nan_count: 0,
                    inf_count: 0,
                    subnormal_count: 0,
                    first_bad: None,
                },
                FieldProbe {
                    name: "v".into(),
                    max_abs: 0.0,
                    nan_count: 0,
                    inf_count: 2,
                    subnormal_count: 0,
                    first_bad: Some((1, 2, 3)),
                },
                FieldProbe {
                    name: "w".into(),
                    max_abs: 0.0,
                    nan_count: 5,
                    inf_count: 0,
                    subnormal_count: 0,
                    first_bad: Some((0, 0, 0)),
                },
            ],
        };
        let (field, idx) = probe.first_bad().expect("bad entry present");
        assert_eq!(field.name, "v");
        assert_eq!(idx, (1, 2, 3));
        assert_eq!(probe.nan_count(), 5);
        assert_eq!(probe.inf_count(), 2);
    }

    #[test]
    fn fatal_display_names_field_and_index() {
        let msg = Fatal::CflViolation {
            field: "w".into(),
            index: (7, 8, 9),
            dt: 2.0e-2,
            dt_stable: 1.0e-2,
        }
        .to_string();
        assert!(msg.contains("CFL violation"), "{msg}");
        assert!(msg.contains("'w'"), "{msg}");
        assert!(msg.contains("(7, 8, 9)"), "{msg}");
    }
}

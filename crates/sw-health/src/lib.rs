//! In-situ simulation-health observability.
//!
//! The solver's correctness-observability layer, complementing the
//! performance layer in `sw-telemetry`/`sw-trace`. Three cooperating
//! pieces, all designed to run *inside* the production step at a
//! configurable stride so long multirank runs fail fast, loudly, and
//! diagnosably instead of silently propagating NaNs to the end:
//!
//! * [`watchdog::Watchdog`] — converts per-step field probes
//!   (max|v|, max|σ|, kinetic energy, NaN/Inf counts) into a typed
//!   [`Verdict`]: `Healthy`, `Warning` (velocity growth, energy drift,
//!   compression budget), or `Fatal` (NaN, Inf, CFL violation).
//! * [`budget::BudgetTracker`] — per-field accounting of the 16-bit
//!   compression round-trip error against a binade-relative budget,
//!   the in-loop analogue of the paper's §6 waveform validation.
//! * [`log::HealthLog`] — an append-only JSONL stream of
//!   [`HealthRecord`]s with a stable, versioned schema, plus the
//!   diagnostic bundle written when a run goes fatal (last-N records
//!   and a field snapshot around the blow-up site).
//!
//! The crate is solver-agnostic: it never touches grids or kernels.
//! `swquake-core` computes the probes (bit-identically in serial and
//! parallel exec modes) and feeds them through here.

pub mod budget;
pub mod log;
pub mod record;
pub mod watchdog;

pub use budget::{BudgetTracker, CompressionSample, FieldBudget};
pub use log::{read_log, write_bundle, BundlePaths, FieldSnapshot, HealthLog};
pub use record::{Fatal, FieldProbe, HealthRecord, StepProbe, Verdict, Warning, SCHEMA_VERSION};
pub use watchdog::{CflInfo, Watchdog};

/// Tuning knobs for the health subsystem. Attached to a simulation
/// config; `Default` gives production-safe values (large growth factors
/// so healthy ramp-up from a quiet start never trips a warning, and a
/// compression budget just above the worst-case f16 round-trip error).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Probe every `stride` steps (0 is treated as 1). At stride 10 a
    /// healthy 64³ production run pays +5–9 % for the probes.
    pub stride: u64,
    /// How many past records the watchdog retains for the diagnostic
    /// bundle's `last-N` dump.
    pub history: usize,
    /// Warn when max|v| grows by more than this factor between probes
    /// (and the previous value exceeded `velocity_floor`).
    pub velocity_growth_factor: f64,
    /// Ignore velocity growth while the field is quieter than this
    /// (m/s); early-source ramp-up is huge in ratio but harmless.
    pub velocity_floor: f64,
    /// Warn when kinetic energy grows by more than this factor between
    /// probes (and the previous value exceeded `energy_floor`).
    pub energy_growth_factor: f64,
    /// Ignore energy drift while the energy is below this (J).
    pub energy_floor: f64,
    /// Binade-relative budget for the 16-bit round-trip: a field whose
    /// max round-trip error exceeds `budget × 2^(e+1)` (where `2^e` is
    /// the binade of the field's max |value|) raises a hard `Warning`.
    /// The default sits just above f16's worst case of `2^-11 ≈ 4.9e-4`.
    pub compression_budget: f64,
    /// Escalate a compression-budget breach from a warning to a fatal
    /// verdict (abort the run). The hard gate for compressed-resident
    /// wavefields, where quantization error *is* solution error; off by
    /// default so the §6.5 round-trip path keeps its advisory semantics.
    pub compression_budget_fatal: bool,
    /// Stream records to this JSONL file as the run progresses.
    pub log_path: Option<String>,
    /// Where to write the diagnostic bundle on a fatal verdict.
    pub bundle_dir: Option<String>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            stride: 10,
            history: 32,
            velocity_growth_factor: 1.0e4,
            velocity_floor: 1.0e-9,
            energy_growth_factor: 1.0e8,
            energy_floor: 1.0e-9,
            compression_budget: 1.0e-3,
            compression_budget_fatal: false,
            log_path: None,
            bundle_dir: None,
        }
    }
}

impl HealthConfig {
    /// Probe stride, with 0 normalised to 1.
    pub fn effective_stride(&self) -> u64 {
        self.stride.max(1)
    }

    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride;
        self
    }

    pub fn with_log_path(mut self, path: impl Into<String>) -> Self {
        self.log_path = Some(path.into());
        self
    }

    pub fn with_bundle_dir(mut self, dir: impl Into<String>) -> Self {
        self.bundle_dir = Some(dir.into());
        self
    }

    /// Make compression-budget breaches fatal (see
    /// [`compression_budget_fatal`](Self::compression_budget_fatal)).
    pub fn with_budget_fatal(mut self, fatal: bool) -> Self {
        self.compression_budget_fatal = fatal;
        self
    }
}

/// End-of-run health summary returned by `Simulation::health()`:
/// the retained records, aggregate counts, and the per-field
/// compression budget ledger.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// The last-N retained health records, oldest first.
    pub records: Vec<HealthRecord>,
    /// Total probes evaluated.
    pub checks: u64,
    /// Total individual warnings raised across all probes.
    pub warnings: u64,
    /// Per-field compression error-budget accounting.
    pub budget: Vec<FieldBudget>,
}

impl HealthReport {
    /// The most severe verdict seen across retained records.
    pub fn worst_verdict_code(&self) -> u32 {
        self.records.iter().map(|r| r.verdict.code()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_production_safe() {
        let c = HealthConfig::default();
        assert_eq!(c.effective_stride(), 10);
        assert!(c.velocity_growth_factor >= 1.0e3);
        assert!(c.energy_growth_factor >= 1.0e6);
        // The budget must clear f16's worst-case binade-relative error.
        assert!(c.compression_budget > (2.0f64).powi(-11));
        assert_eq!(HealthConfig { stride: 0, ..c }.effective_stride(), 1);
    }

    #[test]
    fn builders_compose() {
        let c = HealthConfig::default()
            .with_stride(3)
            .with_log_path("h.jsonl")
            .with_bundle_dir("bundle");
        assert_eq!(c.stride, 3);
        assert_eq!(c.log_path.as_deref(), Some("h.jsonl"));
        assert_eq!(c.bundle_dir.as_deref(), Some("bundle"));
    }
}

//! The stability watchdog: turns raw step probes into typed verdicts.

use std::collections::VecDeque;

use crate::record::{Fatal, HealthRecord, StepProbe, Verdict, Warning, SCHEMA_VERSION};
use crate::HealthConfig;

/// Timestep context for classifying a blow-up: if the run was using a
/// `dt` above the CFL-stable limit, a non-finite wavefield is reported
/// as a CFL violation rather than a bare NaN/Inf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CflInfo {
    pub dt: f64,
    pub dt_stable: f64,
}

impl CflInfo {
    pub fn violated(&self) -> bool {
        self.dt > self.dt_stable
    }
}

/// Stateful verdict engine. Feed it one [`StepProbe`] per probe step
/// (plus any compression-budget warnings accumulated since the last
/// probe) and it returns the full [`HealthRecord`], retaining the last
/// `history` records for the diagnostic bundle.
#[derive(Debug)]
pub struct Watchdog {
    config: HealthConfig,
    records: VecDeque<HealthRecord>,
    prev_velocity: Option<f64>,
    prev_energy: Option<f64>,
    checks: u64,
    warnings_total: u64,
}

impl Watchdog {
    pub fn new(config: HealthConfig) -> Self {
        Watchdog {
            config,
            records: VecDeque::new(),
            prev_velocity: None,
            prev_energy: None,
            checks: 0,
            warnings_total: 0,
        }
    }

    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Judge one probe. `compression` carries budget warnings raised by
    /// the round-trip tracker since the previous probe.
    pub fn evaluate(
        &mut self,
        probe: StepProbe,
        cfl: CflInfo,
        compression: &[Warning],
    ) -> HealthRecord {
        self.checks += 1;
        let mut warnings: Vec<Warning> = compression.to_vec();

        // Growth checks gate on a floor: ratios out of a near-zero
        // field (the first probes after source onset) are enormous but
        // say nothing about stability.
        if let Some(prev) = self.prev_velocity {
            if prev > self.config.velocity_floor && probe.max_velocity.is_finite() {
                let factor = probe.max_velocity / prev;
                if factor > self.config.velocity_growth_factor {
                    warnings.push(Warning::VelocityGrowth {
                        factor,
                        limit: self.config.velocity_growth_factor,
                    });
                }
            }
        }
        if let Some(prev) = self.prev_energy {
            if prev > self.config.energy_floor && probe.kinetic_energy.is_finite() {
                let factor = probe.kinetic_energy / prev;
                if factor > self.config.energy_growth_factor {
                    warnings.push(Warning::EnergyDrift {
                        factor,
                        limit: self.config.energy_growth_factor,
                    });
                }
            }
        }

        let verdict = if let Some((field, index)) = probe.first_bad() {
            Verdict::Fatal(classify(field.nan_count > 0, &field.name, index, cfl))
        } else if let Some(breach) = self.budget_breach(&warnings) {
            Verdict::Fatal(breach)
        } else if warnings.is_empty() {
            Verdict::Healthy
        } else {
            Verdict::Warning(warnings)
        };
        self.warnings_total += verdict.warnings().len() as u64;

        // Only finite values make useful growth baselines.
        if probe.max_velocity.is_finite() {
            self.prev_velocity = Some(probe.max_velocity);
        }
        if probe.kinetic_energy.is_finite() {
            self.prev_energy = Some(probe.kinetic_energy);
        }

        let record = HealthRecord {
            schema_version: SCHEMA_VERSION,
            step: probe.step,
            time: probe.time,
            rank: probe.rank,
            max_velocity: probe.max_velocity,
            max_stress: probe.max_stress,
            kinetic_energy: if probe.kinetic_energy.is_finite() {
                Some(probe.kinetic_energy)
            } else {
                None
            },
            nan_count: probe.nan_count(),
            inf_count: probe.inf_count(),
            subnormal_count: probe.subnormal_count(),
            verdict,
            fields: probe.fields,
        };
        self.records.push_back(record.clone());
        while self.records.len() > self.config.history.max(1) {
            self.records.pop_front();
        }
        record
    }

    /// When the budget is configured as a hard gate, escalate the worst
    /// compression-budget warning of this probe to a fatal verdict.
    fn budget_breach(&self, warnings: &[Warning]) -> Option<Fatal> {
        if !self.config.compression_budget_fatal {
            return None;
        }
        warnings
            .iter()
            .filter_map(|w| match w {
                Warning::CompressionBudget { field, rel_err, budget } => {
                    Some((field, *rel_err, *budget))
                }
                _ => None,
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(field, rel_err, budget)| Fatal::CompressionBudget {
                field: field.clone(),
                rel_err,
                budget,
            })
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &HealthRecord> {
        self.records.iter()
    }

    pub fn last(&self) -> Option<&HealthRecord> {
        self.records.back()
    }

    pub fn checks(&self) -> u64 {
        self.checks
    }

    pub fn warnings_total(&self) -> u64 {
        self.warnings_total
    }
}

fn classify(has_nan: bool, field: &str, index: (usize, usize, usize), cfl: CflInfo) -> Fatal {
    if cfl.violated() {
        Fatal::CflViolation {
            field: field.to_string(),
            index,
            dt: cfl.dt,
            dt_stable: cfl.dt_stable,
        }
    } else if has_nan {
        Fatal::Nan { field: field.to_string(), index }
    } else {
        Fatal::Inf { field: field.to_string(), index }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FieldProbe;

    fn probe(step: u64, vel: f64, energy: f64) -> StepProbe {
        StepProbe {
            step,
            time: step as f64 * 0.01,
            rank: 0,
            max_velocity: vel,
            max_stress: 0.0,
            kinetic_energy: energy,
            fields: vec![FieldProbe {
                name: "u".into(),
                max_abs: vel,
                nan_count: 0,
                inf_count: 0,
                subnormal_count: 0,
                first_bad: None,
            }],
        }
    }

    fn stable_cfl() -> CflInfo {
        CflInfo { dt: 0.01, dt_stable: 0.01 }
    }

    fn watchdog(velocity_growth_factor: f64, energy_growth_factor: f64) -> Watchdog {
        Watchdog::new(HealthConfig {
            velocity_growth_factor,
            energy_growth_factor,
            velocity_floor: 1.0e-12,
            energy_floor: 1.0e-12,
            history: 3,
            ..HealthConfig::default()
        })
    }

    #[test]
    fn healthy_run_stays_healthy_and_bounds_history() {
        let mut dog = watchdog(2.0, 2.0);
        for step in 1..=5 {
            let rec = dog.evaluate(probe(step, 1.0e-3, 5.0), stable_cfl(), &[]);
            assert_eq!(rec.verdict, Verdict::Healthy, "step {step}");
        }
        assert_eq!(dog.checks(), 5);
        assert_eq!(dog.warnings_total(), 0);
        assert_eq!(dog.records().count(), 3, "history bounded to last N");
        assert_eq!(dog.last().unwrap().step, 5);
    }

    #[test]
    fn velocity_growth_and_energy_drift_warn() {
        let mut dog = watchdog(2.0, 4.0);
        dog.evaluate(probe(1, 1.0e-3, 1.0), stable_cfl(), &[]);
        let rec = dog.evaluate(probe(2, 5.0e-3, 10.0), stable_cfl(), &[]);
        let warnings = rec.verdict.warnings();
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(matches!(warnings[0], Warning::VelocityGrowth { factor, .. } if factor > 4.9));
        assert!(matches!(warnings[1], Warning::EnergyDrift { factor, .. } if factor > 9.9));
        assert_eq!(dog.warnings_total(), 2);
    }

    #[test]
    fn growth_from_below_the_floor_is_ignored() {
        let mut dog = Watchdog::new(HealthConfig {
            velocity_growth_factor: 2.0,
            velocity_floor: 1.0e-6,
            ..HealthConfig::default()
        });
        // 1e-9 -> 1e-3 is a 10^6 ratio, but from a sub-floor baseline.
        dog.evaluate(probe(1, 1.0e-9, 0.0), stable_cfl(), &[]);
        let rec = dog.evaluate(probe(2, 1.0e-3, 0.0), stable_cfl(), &[]);
        assert_eq!(rec.verdict, Verdict::Healthy);
    }

    #[test]
    fn compression_warnings_ride_the_next_verdict() {
        let mut dog = watchdog(1.0e9, 1.0e9);
        let w = Warning::CompressionBudget { field: "xx".into(), rel_err: 1.0e-2, budget: 1.0e-3 };
        let rec = dog.evaluate(probe(1, 1.0e-3, 1.0), stable_cfl(), std::slice::from_ref(&w));
        assert_eq!(rec.verdict, Verdict::Warning(vec![w]));
    }

    #[test]
    fn budget_breach_escalates_to_fatal_when_configured() {
        let breach = |field: &str, rel_err: f64| Warning::CompressionBudget {
            field: field.into(),
            rel_err,
            budget: 1.0e-3,
        };
        // Advisory by default: the breach stays a warning.
        let mut dog = watchdog(1.0e9, 1.0e9);
        let rec = dog.evaluate(probe(1, 1.0e-3, 1.0), stable_cfl(), &[breach("xx", 2.0e-2)]);
        assert_eq!(rec.verdict.code(), 1);

        // Hard gate: the worst breach becomes the fatal cause.
        let mut dog = Watchdog::new(HealthConfig {
            compression_budget_fatal: true,
            ..HealthConfig::default()
        });
        let rec = dog.evaluate(
            probe(1, 1.0e-3, 1.0),
            stable_cfl(),
            &[breach("xx", 2.0e-2), breach("u", 5.0e-2)],
        );
        match rec.verdict {
            Verdict::Fatal(Fatal::CompressionBudget { ref field, rel_err, budget }) => {
                assert_eq!(field, "u", "worst breach wins");
                assert_eq!(rel_err, 5.0e-2);
                assert_eq!(budget, 1.0e-3);
            }
            other => panic!("expected fatal budget breach, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_fields_are_fatal_and_classified_by_cfl() {
        let mut bad = probe(7, f64::MAX, f64::INFINITY);
        bad.fields[0].nan_count = 3;
        bad.fields[0].first_bad = Some((1, 2, 3));

        let mut dog = watchdog(1.0e9, 1.0e9);
        let rec = dog.evaluate(bad.clone(), stable_cfl(), &[]);
        assert_eq!(rec.verdict, Verdict::Fatal(Fatal::Nan { field: "u".into(), index: (1, 2, 3) }));

        let mut dog = watchdog(1.0e9, 1.0e9);
        let rec = dog.evaluate(bad, CflInfo { dt: 0.02, dt_stable: 0.01 }, &[]);
        match rec.verdict {
            Verdict::Fatal(Fatal::CflViolation { ref field, index, dt, dt_stable }) => {
                assert_eq!(field, "u");
                assert_eq!(index, (1, 2, 3));
                assert!(dt > dt_stable);
            }
            other => panic!("expected CFL violation, got {other:?}"),
        }
    }
}

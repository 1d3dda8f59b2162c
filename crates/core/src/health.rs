//! The in-situ health monitor: deterministic field probes wired into
//! the production step.
//!
//! `sw-health` owns the policy (watchdog, budget, log); this module
//! owns the mechanics of probing a [`SolverState`] — per-x-plane field
//! scans and the kinetic-energy reduction — with the same
//! fold-partials-in-plane-order discipline the solver's kernels use,
//! so a health record is **bit-identical** whether the run executes
//! serially or on the Rayon pool. The monitor is sampled every
//! `health.stride` steps from `finish_step`; at the default stride a
//! healthy 64³ production run pays +5–9 % for it
//! (`bench_health_overhead`, EXPERIMENTS "Health-monitor overhead").

use std::sync::Arc;

use crate::error::UnstableError;
use crate::state::{kinetic_energy_row, ArrayClass, SolverState};
use rayon::prelude::*;
use sw_compress::errstats::RoundtripError;
use sw_grid::simd::wide;
use sw_grid::Field3;
use sw_health::{
    BudgetTracker, CflInfo, CompressionSample, Fatal, FieldProbe, FieldSnapshot, HealthConfig,
    HealthLog, HealthReport, StepProbe, Verdict, Watchdog,
};
use sw_telemetry::Telemetry;

/// The wavefields the monitor scans, in probe order: the three
/// velocity components, then the six stresses (the same order the
/// compression pipeline uses).
fn monitored_fields(state: &SolverState) -> Vec<(&'static str, &Field3)> {
    let wavefields = state.arrays().filter(|(_, class, _)| *class == ArrayClass::Wavefield);
    wavefields.map(|(name, _, field)| (name, field)).collect()
}

/// Per-x-plane scan partial: the deterministic reduction unit.
#[derive(Debug, Clone, Copy, Default)]
struct PlaneScan {
    max_abs: f32,
    nan: u64,
    inf: u64,
    subnormal: u64,
    /// First non-finite entry of this plane in (y, z) scan order.
    first_bad: Option<(usize, usize)>,
}

/// One x-plane of `field`, scanned inside
/// [`wide`](sw_grid::simd::wide): the lane folds below are compiled for
/// the host's lane tier.
fn scan_plane(field: &Field3, x: usize) -> PlaneScan {
    wide(
        #[inline(always)]
        || {
            let d = field.dims();
            let mut s = PlaneScan::default();
            for y in 0..d.ny {
                scan_row(&mut s, &field.row(x, y)[..d.nz], y);
            }
            s
        },
    )
}

/// One x-plane of the three velocities and its kinetic energy, in one
/// walk of their rows (inside `wide`, as [`scan_plane`]): `u`, `v` and
/// `w` are read once per probe. The energy is
/// [`SolverState::kinetic_energy`]'s plane partial, bit for bit.
fn scan_velocity_plane(state: &SolverState, x: usize) -> ([PlaneScan; 3], f64) {
    wide(
        #[inline(always)]
        || {
            let d = state.dims;
            let mut scans = [PlaneScan::default(); 3];
            let mut energy = 0.0f64;
            for y in 0..d.ny {
                let rows = [&state.u, &state.v, &state.w].map(|f| &f.row(x, y)[..d.nz]);
                for (scan, row) in scans.iter_mut().zip(rows) {
                    scan_row(scan, row, y);
                }
                kinetic_energy_row(rows, state.rho.row(x, y), &mut energy);
            }
            (scans, energy)
        },
    )
}

/// Fold row `y` (its interior `zs`) into its plane's scan.
#[inline(always)]
fn scan_row(s: &mut PlaneScan, zs: &[f32], y: usize) {
    // Fast path: a lane-split max/finiteness fold over the run — eight
    // independent accumulators so the loop vectorizes instead of
    // serializing on one compare chain. `max` is order-independent, so
    // the lane split changes nothing. `a > max` is false for NaN, so a
    // NaN can hide from the max — the finiteness fold catches it and
    // routes to the slow scan.
    let mut mx = [0.0f32; 8];
    // `is_subnormal` tests bits; a float compare would not do, as the
    // probe runs in the kernels' flush-to-zero mode, where a subnormal
    // operand reads as zero.
    let mut sub = [0u32; 8];
    let mut nonfinite = 0u32;
    let mut runs = zs.chunks_exact(8);
    for run in &mut runs {
        for l in 0..8 {
            let a = run[l].abs();
            if a > mx[l] {
                mx[l] = a;
            }
            sub[l] += u32::from(run[l].is_subnormal());
            nonfinite |= u32::from(!run[l].is_finite());
        }
    }
    for &v in runs.remainder() {
        let a = v.abs();
        if a > mx[0] {
            mx[0] = a;
        }
        sub[0] += u32::from(v.is_subnormal());
        nonfinite |= u32::from(!v.is_finite());
    }
    s.subnormal += sub.iter().map(|&n| u64::from(n)).sum::<u64>();
    if nonfinite == 0 {
        let max_abs = mx.iter().fold(0.0f32, |m, &v| if v > m { v } else { m });
        if max_abs > s.max_abs {
            s.max_abs = max_abs;
        }
        return;
    }
    for (z, &v) in zs.iter().enumerate() {
        if v.is_finite() {
            let a = v.abs();
            if a > s.max_abs {
                s.max_abs = a;
            }
        } else {
            if v.is_nan() {
                s.nan += 1;
            } else {
                s.inf += 1;
            }
            if s.first_bad.is_none() {
                s.first_bad = Some((y, z));
            }
        }
    }
}

/// Scan one field into a [`FieldProbe`]. Plane partials are folded in
/// x order in both modes, so the probe (including which entry counts
/// as "first bad") is bit-identical across `ExecMode`s.
fn scan_field(name: &'static str, field: &Field3, parallel: bool) -> FieldProbe {
    let nx = field.dims().nx;
    let planes: Vec<PlaneScan> = if parallel {
        (0..nx).into_par_iter().map(|x| scan_plane(field, x)).collect()
    } else {
        (0..nx).map(|x| scan_plane(field, x)).collect()
    };
    fold_planes(name, &planes)
}

/// Fold one field's plane partials, in x order, into its probe.
fn fold_planes(name: &'static str, planes: &[PlaneScan]) -> FieldProbe {
    let mut probe = FieldProbe {
        name: name.to_string(),
        max_abs: 0.0,
        nan_count: 0,
        inf_count: 0,
        subnormal_count: 0,
        first_bad: None,
    };
    let mut max_abs = 0.0f32;
    for (x, p) in planes.iter().enumerate() {
        if p.max_abs > max_abs {
            max_abs = p.max_abs;
        }
        probe.nan_count += p.nan;
        probe.inf_count += p.inf;
        probe.subnormal_count += p.subnormal;
        if probe.first_bad.is_none() {
            if let Some((y, z)) = p.first_bad {
                probe.first_bad = Some((x, y, z));
            }
        }
    }
    probe.max_abs = f64::from(max_abs);
    probe
}

/// One item of the probe's plane walk: x-plane `x` of the three
/// velocities with its kinetic energy, or of one stress.
#[derive(Clone, Copy)]
enum ProbeItem {
    Velocities([PlaneScan; 3], f64),
    Stress(PlaneScan),
}

/// Probe the full state: all nine wavefields plus the kinetic energy.
fn probe_state(
    state: &SolverState,
    parallel: bool,
    step: u64,
    time: f64,
    rank: usize,
) -> StepProbe {
    // All scans share ONE parallel region over the flattened (plane,
    // item) index space, so the pool's per-region fan-out cost is paid
    // once. Each x-plane holds seven items — the velocities with the
    // kinetic energy (one walk over `u`, `v`, `w` and `ρ`), then the six
    // stresses — so every slab of the walk carries the same mix. The
    // per-plane partials and the per-field fold are exactly
    // [`scan_field`]'s, and the energy partials fold in plane order as
    // [`SolverState::kinetic_energy`]'s do, so the probe stays
    // bit-identical to the field-at-a-time serial scan.
    let monitored = monitored_fields(state);
    let stresses = &monitored[3..];
    let (nx, per_plane) = (state.dims.nx, 1 + stresses.len());
    let item = |k: usize| match k % per_plane {
        0 => {
            let (scans, energy) = scan_velocity_plane(state, k / per_plane);
            ProbeItem::Velocities(scans, energy)
        }
        i => ProbeItem::Stress(scan_plane(stresses[i - 1].1, k / per_plane)),
    };
    let items: Vec<ProbeItem> = if parallel {
        (0..per_plane * nx).into_par_iter().map(item).collect()
    } else {
        (0..per_plane * nx).map(item).collect()
    };
    let mut planes = vec![Vec::with_capacity(nx); monitored.len()];
    let mut energies = Vec::with_capacity(nx);
    for (k, item) in items.into_iter().enumerate() {
        match item {
            ProbeItem::Velocities(scans, energy) => {
                for (field, scan) in planes.iter_mut().zip(scans) {
                    field.push(scan);
                }
                energies.push(energy);
            }
            ProbeItem::Stress(scan) => planes[3 + k % per_plane - 1].push(scan),
        }
    }
    let fields: Vec<FieldProbe> = monitored
        .iter()
        .zip(&planes)
        .map(|((name, _), planes)| fold_planes(name, planes))
        .collect();
    let max_velocity = fields[..3].iter().fold(0.0f64, |m, f| m.max(f.max_abs));
    let max_stress = fields[3..].iter().fold(0.0f64, |m, f| m.max(f.max_abs));
    let vol = state.dx * state.dx * state.dx;
    let kinetic_energy = energies.into_iter().sum::<f64>() * vol;
    StepProbe { step, time, rank, max_velocity, max_stress, kinetic_energy, fields }
}

/// One-shot post-mortem for runs executed *without* a health monitor:
/// scan the state serially and, if it has gone non-finite, produce the
/// same classified [`UnstableError`] the watchdog would have raised
/// (minus the diagnostic bundle).
pub fn diagnose(state: &SolverState, step: u64, rank: usize) -> Option<UnstableError> {
    for (name, field) in monitored_fields(state) {
        let probe = scan_field(name, field, false);
        if let Some(index) = probe.first_bad {
            let cfl = CflInfo { dt: state.dt, dt_stable: state.dt_stable };
            let cause = if cfl.violated() {
                Fatal::CflViolation {
                    field: name.to_string(),
                    index,
                    dt: cfl.dt,
                    dt_stable: cfl.dt_stable,
                }
            } else if probe.nan_count > 0 {
                Fatal::Nan { field: name.to_string(), index }
            } else {
                Fatal::Inf { field: name.to_string(), index }
            };
            return Some(UnstableError {
                step,
                rank,
                field: name.to_string(),
                index,
                cause,
                bundle: None,
            });
        }
    }
    None
}

/// Capture a clamped window of `field` around the blow-up site for the
/// diagnostic bundle. Non-finite entries become `None` (JSON carries
/// no NaN/Inf).
fn snapshot_around(
    state: &SolverState,
    field_name: &str,
    center: (usize, usize, usize),
    step: u64,
    rank: usize,
) -> FieldSnapshot {
    const RADIUS: usize = 2;
    let field = monitored_fields(state)
        .into_iter()
        .find(|(n, _)| *n == field_name)
        .map(|(_, f)| f)
        .unwrap_or(&state.u);
    let d = field.dims();
    let lo = |c: usize| c.saturating_sub(RADIUS);
    let hi = |c: usize, n: usize| (c + RADIUS + 1).min(n);
    let (x0, y0, z0) = (lo(center.0), lo(center.1), lo(center.2));
    let (x1, y1, z1) = (hi(center.0, d.nx), hi(center.1, d.ny), hi(center.2, d.nz));
    let mut values = Vec::with_capacity((x1 - x0) * (y1 - y0) * (z1 - z0));
    for x in x0..x1 {
        for y in y0..y1 {
            for z in z0..z1 {
                let v = field.get(x, y, z);
                values.push(if v.is_finite() { Some(f64::from(v)) } else { None });
            }
        }
    }
    FieldSnapshot {
        field: field_name.to_string(),
        step,
        rank,
        center,
        origin: (x0, y0, z0),
        extent: (x1 - x0, y1 - y0, z1 - z0),
        values,
    }
}

/// The per-simulation health monitor: owns the watchdog, the
/// compression budget ledger, and the (possibly rank-shared) JSONL
/// log. Driven by the simulation driver at probe steps.
#[derive(Debug)]
pub(crate) struct HealthMonitor {
    watchdog: Watchdog,
    budget: BudgetTracker,
    log: Option<Arc<HealthLog>>,
    rank: usize,
    /// Compression-budget warnings accumulated since the last probe,
    /// consumed by the next verdict.
    pending: Vec<sw_health::Warning>,
    failure: Option<UnstableError>,
}

impl HealthMonitor {
    /// `shared_log` (from the multirank runner) wins over the config's
    /// `log_path`; a path that cannot be opened downgrades to no log
    /// rather than killing the run.
    pub(crate) fn new(cfg: HealthConfig, rank: usize, shared_log: Option<Arc<HealthLog>>) -> Self {
        let log = shared_log.or_else(|| {
            cfg.log_path.as_deref().and_then(|p| HealthLog::create(p).ok().map(Arc::new))
        });
        HealthMonitor {
            budget: BudgetTracker::new(cfg.compression_budget),
            watchdog: Watchdog::new(cfg),
            log,
            rank,
            pending: Vec::new(),
            failure: None,
        }
    }

    fn stride(&self) -> u64 {
        self.watchdog.config().effective_stride()
    }

    pub(crate) fn failure(&self) -> Option<&UnstableError> {
        self.failure.as_ref()
    }

    /// Whether `step` is one of the steps every rank probes at — where
    /// the ranks of a grid cast their stop vote, failed or not.
    pub(crate) fn probes_at(&self, step: u64) -> bool {
        step.is_multiple_of(self.stride())
    }

    /// Should the compression pass of the step that will *complete* as
    /// `step` collect round-trip error statistics?
    pub(crate) fn wants_compression_sample(&self, step: u64) -> bool {
        self.failure.is_none() && self.probes_at(step)
    }

    /// Fold one field's round-trip error statistics into the budget
    /// ledger; any exceedance warning rides the next probe's verdict.
    pub(crate) fn record_compression(
        &mut self,
        field: &'static str,
        stats: RoundtripError,
        tel: &Telemetry,
    ) {
        let sample = CompressionSample {
            max_abs_err: stats.max_abs_err,
            sum_sq_err: stats.sum_sq_err,
            count: stats.count,
            max_abs_value: stats.max_abs_value,
        };
        self.record_sample(field, sample, tel);
    }

    /// Fold one resident store's per-step encode statistics into the
    /// budget ledger (the compressed-resident analogue of
    /// [`record_compression`](Self::record_compression)). An f16
    /// overflow encodes to ±inf, making `max_err` infinite — the budget
    /// breach then rides (or, with the hard gate, aborts) the next
    /// probe's verdict.
    pub(crate) fn record_encode_stats(
        &mut self,
        field: &'static str,
        stats: sw_compress::EncodeStats,
        tel: &Telemetry,
    ) {
        let sample = CompressionSample {
            max_abs_err: f64::from(stats.max_err),
            sum_sq_err: stats.sum_sq_err,
            count: stats.count,
            max_abs_value: f64::from(stats.max_abs),
        };
        self.record_sample(field, sample, tel);
    }

    fn record_sample(&mut self, field: &'static str, sample: CompressionSample, tel: &Telemetry) {
        let rel_err = sample.binade_rel_err();
        if tel.is_enabled() {
            tel.sample(&format!("health.compress.rel_err.{field}"), rel_err);
            tel.gauge(
                &format!("health.compress.cumulative_rms.{field}"),
                self.budget
                    .fields()
                    .iter()
                    .find(|f| f.field == field)
                    .map_or(0.0, |f| f.cumulative_rms)
                    + sample.rms(),
            );
        }
        if let Some(w) = self.budget.record(field, sample) {
            tel.add("health.budget_exceedances", 1);
            self.pending.push(w);
        }
    }

    /// Whether step `step` is a probe step (and the monitor is still
    /// live) — lets the driver skip building an expensive probe.
    pub(crate) fn wants_probe(&self, step: u64) -> bool {
        self.failure.is_none() && self.probes_at(step)
    }

    /// Evaluate the state after step `step` completed. No-op except at
    /// probe steps; after a fatal verdict the monitor stops probing
    /// (the failure is latched for the driver to surface).
    pub(crate) fn check(
        &mut self,
        state: &SolverState,
        step: u64,
        time: f64,
        parallel: bool,
        tel: &Telemetry,
    ) {
        if !self.wants_probe(step) {
            return;
        }
        let probe = probe_state(state, parallel, step, time, self.rank);
        let cfl = CflInfo { dt: state.dt, dt_stable: state.dt_stable };
        if let Some(fatal) = self.judge(probe, cfl, tel) {
            let bundle = self.dump_bundle(state, step, &fatal);
            self.failure = Some(UnstableError {
                step,
                rank: self.rank,
                field: fatal.field().to_string(),
                index: fatal.index(),
                cause: fatal,
                bundle,
            });
        }
    }

    /// Evaluate an externally built probe (the compressed-resident path,
    /// which has no full f32 state to scan or snapshot — a fatal verdict
    /// therefore carries no diagnostic bundle). No-op except at probe
    /// steps.
    pub(crate) fn check_probe(&mut self, probe: StepProbe, cfl: CflInfo, tel: &Telemetry) {
        if !self.wants_probe(probe.step) {
            return;
        }
        let step = probe.step;
        if let Some(fatal) = self.judge(probe, cfl, tel) {
            self.failure = Some(UnstableError {
                step,
                rank: self.rank,
                field: fatal.field().to_string(),
                index: fatal.index(),
                cause: fatal,
                bundle: None,
            });
        }
    }

    /// Run one probe through the watchdog: verdict, telemetry, health
    /// log. Returns the fatal cause, if any (latching is the caller's
    /// job — the bundle policy differs by state representation).
    fn judge(&mut self, probe: StepProbe, cfl: CflInfo, tel: &Telemetry) -> Option<Fatal> {
        let step = probe.step;
        let pending = std::mem::take(&mut self.pending);
        let record = self.watchdog.evaluate(probe, cfl, &pending);

        tel.add("health.checks", 1);
        tel.sample("health.max_velocity", record.max_velocity);
        tel.sample("health.max_stress", record.max_stress);
        if let Some(ke) = record.kinetic_energy {
            tel.sample("health.kinetic_energy", ke);
        }
        tel.gauge("health.verdict_code", f64::from(record.verdict.code()));
        let warnings = record.verdict.warnings().len() as u64;
        if warnings > 0 {
            tel.add("health.warnings", warnings);
        }
        if record.nan_count > 0 {
            tel.add("health.nan_points", record.nan_count);
        }
        if record.inf_count > 0 {
            tel.add("health.inf_points", record.inf_count);
        }
        tel.event(
            "health.verdict",
            &[("step", step as f64), ("code", f64::from(record.verdict.code()))],
        );
        if let Some(log) = &self.log {
            if log.append(&record).is_err() {
                tel.add("health.log_errors", 1);
            }
        }

        match record.verdict {
            Verdict::Fatal(fatal) => Some(fatal),
            _ => None,
        }
    }

    /// Append a synthetic record (e.g. a resume-time
    /// checkpoint-fallback warning) to the health log, if one is open.
    pub(crate) fn log_record(&self, record: &sw_health::HealthRecord, tel: &Telemetry) {
        if let Some(log) = &self.log {
            if log.append(record).is_err() {
                tel.add("health.log_errors", 1);
            }
        }
    }

    fn dump_bundle(&self, state: &SolverState, step: u64, fatal: &Fatal) -> Option<String> {
        let dir = self.watchdog.config().bundle_dir.clone()?;
        let snapshot = snapshot_around(state, fatal.field(), fatal.index(), step, self.rank);
        match sw_health::write_bundle(&dir, self.rank, self.watchdog.records(), &snapshot) {
            Ok(paths) => Some(paths.dir.display().to_string()),
            Err(_) => None,
        }
    }

    pub(crate) fn report(&self) -> HealthReport {
        HealthReport {
            records: self.watchdog.records().cloned().collect(),
            checks: self.watchdog.checks(),
            warnings: self.watchdog.warnings_total(),
            budget: self.budget.fields().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateOptions;
    use sw_grid::Dims3;
    use sw_model::HalfspaceModel;

    fn test_state() -> SolverState {
        let model = HalfspaceModel::hard_rock();
        SolverState::from_model(
            &model,
            Dims3::new(12, 10, 8),
            100.0,
            (0.0, 0.0, 0.0),
            StateOptions::default(),
        )
    }

    #[test]
    fn field_scans_are_bit_identical_across_modes() {
        let mut state = test_state();
        state.u.set(3, 4, 5, 1.25);
        state.u.set(9, 2, 1, -7.5);
        state.u.set(5, 5, 5, f32::NAN);
        state.u.set(8, 0, 0, f32::INFINITY);
        // Subnormals, one in a row that also holds a NaN (the slow
        // scan) and one in a clean row; counted in the kernels' FP
        // mode, where a float compare would read them as zero.
        state.u.set(5, 5, 2, f32::from_bits(1));
        state.u.set(1, 1, 1, -f32::MIN_POSITIVE / 2.0);
        let _fp = crate::exec::kernel_fp_env();
        let serial = scan_field("u", &state.u, false);
        let parallel = scan_field("u", &state.u, true);
        assert_eq!(serial, parallel);
        assert_eq!(serial.max_abs, 7.5);
        assert_eq!(serial.nan_count, 1);
        assert_eq!(serial.inf_count, 1);
        assert_eq!(serial.subnormal_count, 2);
        // (5,5,5) precedes (8,0,0) in x-major scan order.
        assert_eq!(serial.first_bad, Some((5, 5, 5)));
    }

    #[test]
    fn probe_orders_velocity_before_stress() {
        let mut state = test_state();
        state.v.set(1, 1, 1, 2.0);
        state.xz.set(2, 2, 2, 3.0e4);
        let probe = probe_state(&state, false, 7, 0.1, 3);
        assert_eq!(probe.max_velocity, 2.0);
        assert_eq!(probe.max_stress, 3.0e4);
        assert_eq!(probe.rank, 3);
        assert_eq!(probe.fields.len(), 9);
        assert_eq!(probe.fields[1].name, "v");
    }

    #[test]
    fn diagnose_classifies_nan_inf_and_cfl() {
        let mut state = test_state();
        assert!(diagnose(&state, 10, 0).is_none());

        state.w.set(2, 3, 4, f32::NAN);
        let e = diagnose(&state, 10, 1).expect("non-finite state");
        assert_eq!(e.field, "w");
        assert_eq!(e.index, (2, 3, 4));
        assert_eq!(e.rank, 1);
        assert!(matches!(e.cause, Fatal::Nan { .. }));

        state.w.set(2, 3, 4, f32::NEG_INFINITY);
        let e = diagnose(&state, 10, 0).expect("non-finite state");
        assert!(matches!(e.cause, Fatal::Inf { .. }));

        state.dt = state.dt_stable * 1.5;
        let e = diagnose(&state, 10, 0).expect("non-finite state");
        assert!(matches!(e.cause, Fatal::CflViolation { .. }));
    }

    #[test]
    fn snapshot_window_clamps_at_domain_edges() {
        let mut state = test_state();
        state.u.set(0, 0, 0, f32::NAN);
        let snap = snapshot_around(&state, "u", (0, 0, 0), 5, 0);
        assert_eq!(snap.origin, (0, 0, 0));
        assert_eq!(snap.extent, (3, 3, 3));
        assert_eq!(snap.values.len(), 27);
        assert_eq!(snap.values[0], None, "the NaN centre is a hole");
        assert!(snap.values[1].is_some());
    }
}

//! The in-situ health monitor: deterministic field probes wired into
//! the production step.
//!
//! `sw-health` owns the policy (watchdog, budget, log); this module
//! owns the mechanics of probing a [`SolverState`] — per-x-plane field
//! scans and the kinetic-energy reduction — with the same
//! fold-partials-in-plane-order discipline the solver's kernels use,
//! so a health record is **bit-identical** whether the run executes
//! serially or on the Rayon pool. The monitor is sampled every
//! `health.stride` steps from `finish_step`. On a compressed run the
//! scan is not a pass of its own: the §6.5 round trip scans each plane
//! it has just decoded and hands the partials over ([`fold_probe`]);
//! [`probe_state`] scans the state of an uncompressed run. At the
//! default stride a healthy 64³ production run pays +5–10 % for the
//! monitor, and +62–65 % at stride 1 (`bench_health_overhead`,
//! EXPERIMENTS "Health-monitor overhead").

use std::sync::Arc;

use crate::error::UnstableError;
use crate::state::{kinetic_energy_row, ArrayClass, SolverState};
use rayon::prelude::*;
use sw_compress::errstats::RoundtripError;
use sw_grid::simd::wide;
use sw_grid::{Dims3, Field3, HALO_WIDTH as H};
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
pub(crate) struct PlaneScan {
    max_abs: f32,
    nan: u64,
    inf: u64,
    subnormal: u64,
    /// First non-finite entry of this plane in (y, z) scan order.
    first_bad: Option<(usize, usize)>,
}

/// Interior row `y` of a padded x-plane of a `d` mesh.
#[inline(always)]
fn interior_row(plane: &[f32], d: Dims3, y: usize) -> &[f32] {
    let start = (y + H) * (d.nz + 2 * H) + H;
    &plane[start..start + d.nz]
}

/// The interior of one padded x-plane of a `d` mesh, scanned inside
/// [`wide`](sw_grid::simd::wide): the lane folds below are compiled for
/// the host's lane tier.
pub(crate) fn scan_plane(plane: &[f32], d: Dims3) -> PlaneScan {
    wide(
        #[inline(always)]
        || {
            let mut scanner = PlaneScanner::new();
            for y in 0..d.ny {
                scanner.row(interior_row(plane, d, y), y);
            }
            scanner.finish()
        },
    )
}

/// The interior of one padded x-plane of the three velocities and its
/// kinetic energy, with `rho`'s plane, in one walk of their rows (inside
/// `wide`, as [`scan_plane`]): `u`, `v` and `w` are read once per probe.
/// The energy is [`SolverState::kinetic_energy`]'s plane partial, bit for
/// bit.
pub(crate) fn scan_velocity_plane(
    planes: [&[f32]; 3],
    rho: &[f32],
    d: Dims3,
) -> ([PlaneScan; 3], f64) {
    wide(
        #[inline(always)]
        || {
            let mut scanners = [PlaneScanner::new(), PlaneScanner::new(), PlaneScanner::new()];
            let mut energy = 0.0f64;
            for y in 0..d.ny {
                let rows = planes.map(|p| interior_row(p, d, y));
                for (scanner, row) in scanners.iter_mut().zip(rows) {
                    scanner.row(row, y);
                }
                kinetic_energy_row(rows, interior_row(rho, d, y), &mut energy);
            }
            (scanners.map(PlaneScanner::finish), energy)
        },
    )
}

/// Lanes of the scan's fast path: one AVX-512 register, two AVX2 ones.
const SCAN_LANES: usize = 16;

/// One x-plane's scan in progress. The fast path's lane accumulators are
/// carried across the plane's rows — a row is too short to amortize
/// reductions of its own — and folded into the [`PlaneScan`] once, by
/// [`Self::finish`].
struct PlaneScanner {
    scan: PlaneScan,
    /// Per-lane max |v| over the finite values seen.
    max: [f32; SCAN_LANES],
    /// Per-lane count of subnormal values.
    subnormal: [u32; SCAN_LANES],
}

impl PlaneScanner {
    #[inline(always)]
    fn new() -> Self {
        Self { scan: PlaneScan::default(), max: [0.0; SCAN_LANES], subnormal: [0; SCAN_LANES] }
    }

    /// Fold row `y` (its interior `zs`) in.
    #[inline(always)]
    fn row(&mut self, zs: &[f32], y: usize) {
        // Fast path: lane-split max / subnormal / finiteness folds, so the
        // loop vectorizes instead of serializing on one compare chain.
        // The max takes finite values only (`a < ∞` is false for ±∞ and
        // NaN); max and counts do not depend on the order, so the lane
        // split changes nothing. `is_subnormal` tests bits; a float
        // compare would not do, as the probe runs in the kernels'
        // flush-to-zero mode, where a subnormal operand reads as zero.
        let mut nonfinite = 0u32;
        let (runs, tail) = zs.as_chunks::<SCAN_LANES>();
        for run in runs {
            for (l, &v) in run.iter().enumerate() {
                self.visit(l, v, &mut nonfinite);
            }
        }
        for (l, &v) in tail.iter().enumerate() {
            self.visit(l, v, &mut nonfinite);
        }
        if nonfinite == 0 {
            return;
        }
        // A row with a non-finite value: count them and find the first,
        // in scan order.
        let s = &mut self.scan;
        for (z, &v) in zs.iter().enumerate().filter(|(_, v)| !v.is_finite()) {
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

    #[inline(always)]
    fn visit(&mut self, l: usize, v: f32, nonfinite: &mut u32) {
        let a = v.abs();
        let finite = a < f32::INFINITY;
        self.max[l] = if finite && a > self.max[l] { a } else { self.max[l] };
        // Subnormal: a zero exponent under a nonzero mantissa.
        let magnitude = v.to_bits() & 0x7fff_ffff;
        self.subnormal[l] += u32::from(magnitude.wrapping_sub(1) < 0x007f_ffff);
        *nonfinite |= u32::from(!finite);
    }

    #[inline(always)]
    fn finish(self) -> PlaneScan {
        let max_abs = self.max.iter().fold(0.0f32, |m, &v| if v > m { v } else { m });
        let subnormal = self.subnormal.iter().map(|&n| u64::from(n)).sum();
        PlaneScan { max_abs, subnormal, ..self.scan }
    }
}

/// Scan one field into a [`FieldProbe`]. Plane partials are folded in
/// x order in both modes, so the probe (including which entry counts
/// as "first bad") is bit-identical across `ExecMode`s.
fn scan_field(name: &'static str, field: &Field3, parallel: bool) -> FieldProbe {
    let d = field.dims();
    let scan = |x: usize| scan_plane(field.plane(x + H), d);
    let planes: Vec<PlaneScan> = if parallel {
        (0..d.nx).into_par_iter().map(scan).collect()
    } else {
        (0..d.nx).map(scan).collect()
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
/// velocities with its kinetic energy, or of one stress. A walk emits
/// [`PROBE_ITEMS`] per plane, in plane order: the velocities, then the
/// six stresses in probe order.
#[derive(Clone, Copy)]
pub(crate) enum ProbeItem {
    Velocities([PlaneScan; 3], f64),
    Stress(PlaneScan),
}

/// Items per x-plane of the probe's walk.
pub(crate) const PROBE_ITEMS: usize = 7;

/// Probe the full state: all nine wavefields plus the kinetic energy.
pub(crate) fn probe_state(
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
    // stresses — so every slab of the walk carries the same mix.
    let monitored = monitored_fields(state);
    let (d, stresses) = (state.dims, &monitored[3..]);
    let item = |k: usize| {
        let p = k / PROBE_ITEMS + H;
        match k % PROBE_ITEMS {
            0 => {
                let planes = [&state.u, &state.v, &state.w].map(|f| f.plane(p));
                let (scans, energy) = scan_velocity_plane(planes, state.rho.plane(p), d);
                ProbeItem::Velocities(scans, energy)
            }
            i => ProbeItem::Stress(scan_plane(stresses[i - 1].1.plane(p), d)),
        }
    };
    let items: Vec<ProbeItem> = if parallel {
        (0..PROBE_ITEMS * d.nx).into_par_iter().map(item).collect()
    } else {
        (0..PROBE_ITEMS * d.nx).map(item).collect()
    };
    fold_probe(state, items, step, time, rank)
}

/// Fold a probe walk's items (in its order, see [`ProbeItem`]) into the
/// probe of `state`'s step. The per-field fold is exactly
/// [`scan_field`]'s, and the energy partials fold in plane order as
/// [`SolverState::kinetic_energy`]'s do, so the probe is bit-identical to
/// the field-at-a-time serial scan whoever walked the planes.
pub(crate) fn fold_probe(
    state: &SolverState,
    items: Vec<ProbeItem>,
    step: u64,
    time: f64,
    rank: usize,
) -> StepProbe {
    let monitored = monitored_fields(state);
    let nx = state.dims.nx;
    debug_assert_eq!(items.len(), PROBE_ITEMS * nx);
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
            ProbeItem::Stress(scan) => planes[3 + k % PROBE_ITEMS - 1].push(scan),
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
    ///
    /// `scanned` is the probe walk the step's §6.5 round trip made over
    /// the values it decoded (the stored ones); without it — an
    /// uncompressed run — the state is scanned here.
    pub(crate) fn check(
        &mut self,
        state: &SolverState,
        scanned: Option<Vec<ProbeItem>>,
        step: u64,
        time: f64,
        parallel: bool,
        tel: &Telemetry,
    ) {
        if !self.wants_probe(step) {
            return;
        }
        let probe = match scanned {
            Some(items) => fold_probe(state, items, step, time, self.rank),
            None => probe_state(state, parallel, step, time, self.rank),
        };
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

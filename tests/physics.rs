//! Physics integration tests: wave speeds, attenuation, boundaries —
//! cross-crate checks that the assembled solver behaves like an elastic
//! medium.

use swquake::core::state::{SolverState, StateOptions};
use swquake::core::{ExecMode, SimConfig, Simulation};
use swquake::grid::Dims3;
use swquake::io::Station;
use swquake::model::{HalfspaceModel, Material, TangshanModel};
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};

fn explosion_cfg(dims: Dims3, dx: f64, steps: usize) -> SimConfig {
    let mut cfg = SimConfig::new(dims, dx, steps);
    cfg.options.attenuation = false;
    cfg.options.sponge_width = 0;
    cfg.sources = vec![PointSource {
        ix: dims.nx / 2,
        iy: dims.ny / 2,
        iz: dims.nz / 2,
        moment: MomentTensor::explosion(1.0e13),
        stf: SourceTimeFunction::Gaussian { delay: 0.08, sigma: 0.02 },
    }];
    cfg
}

/// The P pulse peak moves between two probes at the medium's vp: the
/// peak-to-peak delay over the probe separation gives the wave speed
/// without onset-threshold ambiguity, to within the time step that
/// quantizes both peak times.
#[test]
fn p_wave_travels_at_vp() {
    let dims = Dims3::new(64, 32, 32);
    let dx = 100.0;
    let model = HalfspaceModel::hard_rock();
    let vp = model.material.vp as f64;
    let mut cfg = explosion_cfg(dims, dx, 0);
    // a short pulse (~300 m) so the probes sit in the pulse's far field
    cfg.sources[0].stf = SourceTimeFunction::Gaussian { delay: 0.05, sigma: 0.012 };
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    let probes = [
        (dims.nx / 2 + 10, dims.ny / 2, dims.nz / 2),
        (dims.nx / 2 + 24, dims.ny / 2, dims.nz / 2),
    ];
    let mut peaks = [(0.0f32, 0.0f64); 2];
    // Track only through the direct-arrival window (near probe 0.22 s,
    // far probe 0.45 s): later surface reflections are larger at the
    // near probe and would steal its peak time.
    while sim.time < 0.50 {
        sim.step();
        for (i, &(px, py, pz)) in probes.iter().enumerate() {
            let a = sim.state.u.get(px, py, pz).abs();
            if a > peaks[i].0 {
                peaks[i] = (a, sim.time);
            }
        }
    }
    let dt_peak = peaks[1].1 - peaks[0].1;
    assert!(dt_peak > 0.0, "pulse must reach the far probe later");
    let measured_vp = 14.0 * dx / dt_peak;
    let rel = (measured_vp - vp).abs() / vp;
    // Measured: 5966.3 m/s against 6000, 0.56 % off — the peak-to-peak
    // delay is 30 steps of dt = 7.82 ms, the step nearest the exact
    // 1400 m / vp = 0.2333 s (29 or 31 steps would read 2.8–3.4 % off).
    // Pinned at twice that.
    assert!(rel < 0.012, "measured vp {measured_vp:.1} vs {vp:.0} m/s ({:.2} %)", rel * 100.0);
}

/// The time of the largest sample of `trace` (one per step of `dt`, the
/// first at `dt`) to a fraction of a step: the vertex of the parabola
/// through it and its two neighbours.
fn peak_time(trace: &[f32], dt: f64) -> f64 {
    let peak =
        (1..trace.len() - 1).max_by(|&a, &b| trace[a].total_cmp(&trace[b])).expect("a trace");
    let [a, b, c] = [peak - 1, peak, peak + 1].map(|i| f64::from(trace[i]));
    (peak as f64 + 1.0 + 0.5 * (a - c) / (a - 2.0 * b + c)) * dt
}

/// The S pulse peak moves between two probes at the medium's vs. A
/// vertical strike-slip double couple striking along x (`M_xy` alone)
/// has a P node along +x and radiates its largest S there, polarized
/// along y, so the transverse motion at two probes on that axis is the
/// direct S alone. The Gaussian is the moment rate: the far-field
/// transverse *displacement* (the running sum of `v`) is one lobe, where
/// the velocity is two of opposite sign whose larger one is a coin toss.
/// The pulse is as many cells long as `p_wave_travels_at_vp`'s.
#[test]
fn s_wave_travels_at_vs() {
    let dims = Dims3::new(64, 32, 32);
    let dx = 100.0;
    let model = HalfspaceModel::hard_rock();
    let vs = model.material.vs as f64;
    let mut cfg = explosion_cfg(dims, dx, 0);
    cfg.sources[0].moment = MomentTensor::double_couple(0.0, 90.0, 0.0, 1.0e13);
    cfg.sources[0].stf = SourceTimeFunction::Gaussian { delay: 0.08, sigma: 0.02 };
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    let (x0, y0, z0) = (dims.nx / 2, dims.ny / 2, dims.nz / 2);
    let probes = [(x0 + 10, y0, z0), (x0 + 24, y0, z0)];
    let mut displacement = [vec![0.0f32], vec![0.0f32]];
    // Up to the far probe's direct S (0.77 s) and two cells past it;
    // the first reflection (off the +x face) reaches it at 1.2 s.
    while sim.time < 0.08 + 26.0 * dx / vs {
        sim.step();
        for (trace, &(px, py, pz)) in displacement.iter_mut().zip(&probes) {
            let last = trace[trace.len() - 1];
            trace.push(last + sim.state.v.get(px, py, pz));
        }
    }
    let dt = sim.state.dt;
    let delay = peak_time(&displacement[1][1..], dt) - peak_time(&displacement[0][1..], dt);
    let measured_vs = 14.0 * dx / delay;
    let rel = (measured_vs - vs).abs() / vs;
    // Measured: 3448.7 m/s against 3464, 0.44 % off (the peaks
    // interpolated; whole steps alone would quantize the 0.404 s delay
    // to 1.9 %). Pinned at twice that.
    assert!(rel < 0.009, "measured vs {measured_vs:.1} vs {vs:.0} m/s ({:.2} %)", rel * 100.0);
}

/// An explosion radiates no shear on the axes — before free-surface
/// conversions arrive: track the peak motion at a probe due +x of the
/// source only through the direct-arrival window.
#[test]
fn explosion_is_compressional_on_axis() {
    let dims = Dims3::new(40, 32, 32);
    let model = HalfspaceModel::hard_rock();
    let cfg = explosion_cfg(dims, 100.0, 0);
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    let (px, py, pz) = (dims.nx / 2 + 10, dims.ny / 2, dims.nz / 2);
    let mut radial = 0.0f32;
    let mut tangential = 0.0f32;
    // direct P at 0.08 + 1000/6000 = 0.25 s; S at 0.37 s; the first
    // surface conversion near 0.6 s — stop at 0.34 s.
    while sim.time < 0.34 {
        sim.step();
        radial = radial.max(sim.state.u.get(px, py, pz).abs());
        tangential = tangential
            .max(sim.state.v.get(px, py, pz).abs())
            .max(sim.state.w.get(px, py, pz).abs());
    }
    assert!(radial > 1e-7, "radial motion exists: {radial}");
    // Measured: tangential / radial = 0.052. The staggered grid samples
    // `v` and `w` half a cell off the axis, and 50 m at 1000 m is 0.05 of
    // the radial motion. Pinned at twice that.
    assert!(
        tangential < radial * 0.10,
        "explosion radiates P only on axis: radial {radial} tangential {tangential}"
    );
}

/// With the sponge on, the total kinetic energy decays after the source
/// stops. (That the closed box keeps its energy is rung 1d's,
/// `elastic_box_conserves_kinetic_plus_strain_energy`.)
#[test]
fn sponge_absorbs_outgoing_energy() {
    let dims = Dims3::new(32, 32, 24);
    let model = HalfspaceModel::hard_rock();
    let mut damped_cfg = explosion_cfg(dims, 100.0, 0);
    damped_cfg.options.sponge_width = 6;
    let mut damped = Simulation::new(&model, &damped_cfg).expect("valid config");
    // run long enough for the wave to hit the boundary several times
    for _ in 0..80 {
        damped.step();
    }
    let e_mid_damped = damped.state.kinetic_energy();
    for _ in 0..160 {
        damped.step();
    }
    let decay_damped = damped.state.kinetic_energy() / e_mid_damped;
    assert!(decay_damped < 0.2, "sponge kills the wavefield: {decay_damped}");
}

/// Rung 1d, discrete energy: in an elastic, sponge-free box (rigid
/// sides and bottom, the free surface on top) kinetic + strain energy is
/// conserved once the explosion's source-time function has ended. The
/// leapfrog holds velocities half a step off the stresses, so the sum
/// breathes by a little as energy moves between its halves; it must not
/// drift. Measured over 240 steps after the source: see EXPERIMENTS
/// "Discrete energy"; pinned at about twice the measurement.
#[test]
fn elastic_box_conserves_kinetic_plus_strain_energy() {
    let dims = Dims3::new(32, 32, 24);
    let model = HalfspaceModel::hard_rock();
    let cfg = explosion_cfg(dims, 100.0, 0);
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    // The Gaussian's delay + 6σ: its moment rate is below 1e-7 of its
    // peak from here on.
    while sim.time < 0.08 + 6.0 * 0.02 {
        sim.step();
    }
    let energy = |s: &Simulation| s.state.kinetic_energy() + s.state.strain_energy();
    let e0 = energy(&sim);
    assert!(e0 > 0.0 && e0.is_finite(), "the source put energy in: {e0}");
    let (k0, mut drift, mut kinetic_swing) = (sim.state.kinetic_energy(), 0.0f64, 0.0f64);
    for _ in 0..240 {
        sim.step();
        drift = drift.max((energy(&sim) / e0 - 1.0).abs());
        kinetic_swing = kinetic_swing.max((sim.state.kinetic_energy() / k0 - 1.0).abs());
    }
    // Measured: the sum strays by at most 8.57e-4 of 4.18e8 J, while the
    // kinetic half alone swings by 0.111 of its value as the box rings.
    // Pinned at twice (and half) those.
    assert!(kinetic_swing > 0.055, "the kinetic half must trade with the strain half");
    assert!(drift < 1.7e-3, "kinetic + strain energy drifted by {drift:.3e} of {e0:.4e} J");
}

/// Attenuation (finite Q) bleeds amplitude relative to the elastic run.
#[test]
fn attenuation_reduces_amplitudes() {
    let dims = Dims3::new(40, 28, 24);
    let lossy_material = Material::new(6000.0, 3464.0, 2700.0, 20.0, 10.0);
    let elastic_model = HalfspaceModel::hard_rock();
    let lossy_model = HalfspaceModel { material: lossy_material };
    let mut cfg = explosion_cfg(dims, 100.0, 140);
    cfg.stations = vec![Station { name: "P".into(), ix: dims.nx / 2 + 12, iy: dims.ny / 2 }];
    let mut elastic_cfg = cfg.clone();
    elastic_cfg.options.attenuation = false;
    let mut lossy_cfg = cfg.clone();
    lossy_cfg.options.attenuation = true;
    let mut elastic = Simulation::new(&elastic_model, &elastic_cfg).expect("valid config");
    elastic.run(cfg.steps);
    let mut lossy = Simulation::new(&lossy_model, &lossy_cfg).expect("valid config");
    lossy.run(cfg.steps);
    let pe = elastic.seismo.get("P").unwrap().peak_horizontal();
    let pl = lossy.seismo.get("P").unwrap().peak_horizontal();
    assert!(pl < pe, "Q=10 must attenuate: elastic {pe} lossy {pl}");
    assert!(pl > pe * 0.2, "but not annihilate the wave");
}

/// Rung 2b: the Drucker–Prager step invariants on a running nonlinear
/// scenario (32³, sponge on, walked by the pool), checked after every
/// step on every cell: √J₂ − Y ≤ tol·Y, Δεᵖ ≥ 0, and the step's plastic
/// dissipation Σ √3·√J₂·Δεᵖ (the return's σ:Δεᵖ) ≥ 0. The taper that
/// follows the return cannot push a cell over yield while Y(0) ≥ 0:
/// Y(d·σm) = d·Y(σm) + (1 − d)·Y(0) ≥ d·√J₂(σ) = √J₂(d·σ). So without
/// §6.5 compression the excess is rounding alone, and with it the
/// excess is the 16-bit codec's. Each bound is ≈ 2× its measurement
/// (EXPERIMENTS "Plasticity step invariants"); a cell with Y = 0 must
/// have no deviator left beyond the same excess over the cohesion term.
#[test]
fn plasticity_caps_stress_and_accumulates_strain() {
    const STEPS: usize = 60;
    let dims = Dims3::cube(32);
    let model = HalfspaceModel::hard_rock();
    // Measured worst excess: 1.05e-7 plain, 2.33e-4 compressed.
    for (compression, tol) in [(false, 2.1e-7), (true, 4.7e-4)] {
        let mut cfg = explosion_cfg(dims, 100.0, STEPS)
            .with_compression(compression)
            .with_exec(ExecMode::Parallel);
        cfg.options.nonlinear = true;
        cfg.options.sponge_width = 6;
        // huge source so yielding definitely happens
        cfg.sources[0].moment = MomentTensor::double_couple(30.0, 90.0, 180.0, 5.0e16);
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        let mut eqp = sim.state.eqp.clone();
        let (mut worst, mut dissipated) = (0.0f64, 0.0f64);
        for step in 1..=STEPS {
            sim.step();
            let s = &sim.state;
            let mut dissipation = 0.0f64;
            for (x, y) in (0..dims.nx).flat_map(|x| (0..dims.ny).map(move |y| (x, y))) {
                let stress = [&s.xx, &s.yy, &s.zz, &s.xy, &s.xz, &s.yz].map(|f| f.row(x, y));
                let [sigma0, cohes, cosphi, sinphi, pf, now, before] =
                    [&s.sigma0, &s.cohes, &s.cosphi, &s.sinphi, &s.pf, &s.eqp, &eqp]
                        .map(|f| f.row(x, y));
                for z in 0..dims.nz {
                    let (mean, _, tau_bar) = invariants(stress.map(|row| row[z]));
                    let mean_total = mean + f64::from(sigma0[z]);
                    let cohesion = f64::from(cohes[z] * cosphi[z]);
                    let friction = (mean_total + f64::from(pf[z])) * f64::from(sinphi[z]);
                    let yld = (cohesion - friction).max(0.0);
                    // Relative to Y, or to the cohesion term where Y is 0.
                    worst = worst.max((tau_bar - yld) / if yld > 0.0 { yld } else { cohesion });
                    let d_eqp = f64::from(now[z]) - f64::from(before[z]);
                    assert!(d_eqp >= 0.0, "step {step}: eqp fell at ({x}, {y}, {z}) by {d_eqp}");
                    dissipation += 3f64.sqrt() * tau_bar * d_eqp;
                }
            }
            assert!(dissipation >= 0.0, "step {step}: dissipation {dissipation}");
            dissipated += dissipation;
            eqp = s.eqp.clone();
        }
        assert!(!sim.state.has_blown_up());
        assert!(worst <= tol, "compression {compression}: stress exceeds yield by {worst}");
        assert!(dissipated > 0.0 && sim.state.eqp.max_abs() > 0.0, "plastic strain accumulated");
    }
}

/// One homogeneous cell of a plastic medium: λ = μ = 30 GPa, cohesion
/// 1 MPa, φ = 30°, an effective lithostatic mean stress of −10 MPa and
/// the pore pressure `pf`.
fn drucker_prager_cell(pf: f32) -> SolverState {
    let options =
        StateOptions { attenuation: false, nonlinear: true, sponge_width: 0, ..Default::default() };
    let mut s = SolverState::blank(Dims3::cube(1), 100.0, 1e-3, 1e-3, options);
    let (sin, cos) = 30f32.to_radians().sin_cos();
    let material = [
        (&mut s.lam, 3.0e10),
        (&mut s.mu, 3.0e10),
        (&mut s.cohes, 1.0e6),
        (&mut s.sinphi, sin),
        (&mut s.cosphi, cos),
        (&mut s.pf, pf),
        (&mut s.sigma0, -10.0e6),
    ];
    for (field, value) in material {
        field.set(0, 0, 0, value);
    }
    s
}

/// The cell's stress `[xx, yy, zz, xy, xz, yz]`.
fn cell_stress(s: &SolverState) -> [f32; 6] {
    [&s.xx, &s.yy, &s.zz, &s.xy, &s.xz, &s.yz].map(|f| f.get(0, 0, 0))
}

/// Mean stress, deviator (`[xx, yy, zz, xy, xz, yz]`) and √J₂, in f64.
fn invariants(stress: [f32; 6]) -> (f64, [f64; 6], f64) {
    let v = stress.map(f64::from);
    let mean = (v[0] + v[1] + v[2]) / 3.0;
    let dev = [v[0] - mean, v[1] - mean, v[2] - mean, v[3], v[4], v[5]];
    let j2 = 0.5 * (dev[0] * dev[0] + dev[1] * dev[1] + dev[2] * dev[2])
        + dev[3] * dev[3]
        + dev[4] * dev[4]
        + dev[5] * dev[5];
    (mean, dev, j2.sqrt())
}

/// Rung 2a: the Drucker–Prager return mapping against its closed form.
/// One cell is driven along a strain path, increment by increment: the
/// elastic trial `σ += λ tr(Δε) I + 2μ Δε`, then `drprecpc_calc` and
/// `drprecpc_app`. Below yield the cell is untouched, bit for bit. At
/// yield √J₂ lands on `Y = max(0, c·cosφ − (σm + σ₀ + pf)·sinφ)`, the
/// mean stress keeps its trial value, and `eqp` grows by the equivalent
/// plastic strain `√(⅔ Δεᵖ:Δεᵖ)` of `Δεᵖ = (1 − r)·s/(2μ)` — which for
/// pure shear, where the normal deviators are zero, is not zero.
#[test]
fn drucker_prager_return_lands_on_the_closed_form() {
    use swquake::core::kernels::{drprecpc_app, drprecpc_calc};
    // (path, Δε per increment as [xx, yy, zz, xy, xz, yz], increments)
    let paths = [
        ("pure shear", [0.0, 0.0, 0.0, 2.0e-5, 0.0, 0.0], 12),
        ("uniaxial compression", [-1.0e-4, 0.0, 0.0, 0.0, 0.0, 0.0], 16),
    ];
    // Relative misfits on a yielding increment — √J₂ against Y, the mean
    // stress against its trial value, Δeqp against its closed form —
    // measured at most 1.39e-7, 2.67e-8 and 4.03e-6 (f32 kernels against
    // the f64 closed form) and pinned at about twice that.
    const BOUNDS: [f64; 3] = [3e-7, 6e-8, 8e-6];
    for (path, strain, increments) in paths {
        for pf in [0.0, 4.0e6] {
            let what = format!("{path}, pf {pf:e}");
            let mut s = drucker_prager_cell(pf);
            let [lam, mu, c, sin, cos, sigma0] =
                [&s.lam, &s.mu, &s.cohes, &s.sinphi, &s.cosphi, &s.sigma0].map(|f| f.get(0, 0, 0));
            let [c, sin, cos, sigma0] = [c, sin, cos, sigma0].map(f64::from);
            let (mut elastic, mut yielded) = (0, 0);
            for _ in 0..increments {
                let trace = strain[0] + strain[1] + strain[2];
                let fields = [&mut s.xx, &mut s.yy, &mut s.zz, &mut s.xy, &mut s.xz, &mut s.yz];
                for (i, field) in fields.into_iter().enumerate() {
                    let normal = if i < 3 { lam * trace } else { 0.0 };
                    field.set(0, 0, 0, field.get(0, 0, 0) + normal + 2.0 * mu * strain[i]);
                }
                let trial = cell_stress(&s);
                let eqp = s.eqp.get(0, 0, 0);
                let (mean, dev, tau) = invariants(trial);
                let y = (c * cos - (mean + sigma0 + f64::from(pf)) * sin).max(0.0);
                drprecpc_calc(&mut s);
                drprecpc_app(&mut s);
                let after = cell_stress(&s);
                if tau <= y {
                    elastic += 1;
                    assert_eq!(after.map(f32::to_bits), trial.map(f32::to_bits), "{what}");
                    assert_eq!(s.eqp.get(0, 0, 0).to_bits(), eqp.to_bits(), "{what}");
                    assert_eq!(s.yldfac.get(0, 0, 0), 1.0, "{what}");
                    continue;
                }
                yielded += 1;
                let (mean_after, _, tau_after) = invariants(after);
                let r = y / tau;
                let strain_p = dev.map(|d| (1.0 - r) * d / (2.0 * f64::from(mu)));
                let contracted = strain_p[..3].iter().map(|e| e * e).sum::<f64>()
                    + 2.0 * strain_p[3..].iter().map(|e| e * e).sum::<f64>();
                let deqp = (2.0 / 3.0 * contracted).sqrt();
                assert!(deqp > 0.0, "{what}: the return removed nothing");
                let got = f64::from(s.eqp.get(0, 0, 0)) - f64::from(eqp);
                let misfits = [
                    ("√J₂ against Y", (tau_after - y).abs() / y),
                    ("mean stress", (mean_after - mean).abs() / mean.abs().max(y)),
                    ("Δeqp against its closed form", (got - deqp).abs() / deqp),
                ];
                for ((quantity, misfit), bound) in misfits.into_iter().zip(BOUNDS) {
                    assert!(misfit < bound, "{what}: {quantity} off by {misfit:.2e}");
                }
            }
            assert!(elastic >= 2 && yielded >= 4, "{what}: {elastic} elastic, {yielded} yielding");
        }
    }
}

/// The free surface against its closed form: in a Poisson solid
/// (ν = 0.25, vp = √3 vs) the Rayleigh wave runs along the surface at
/// 0.9194 vs, the root of the Rayleigh equation. A shallow explosion
/// (200 m) under the surface, and the vertical surface velocity at two
/// stations due +x, 2 and 5 km out: there the Rayleigh pulse is the
/// largest motion, and the delay between its largest lobes over the
/// stations' separation is the speed. Each station is read up to four
/// pulse widths past that arrival, and the sponge takes up what the
/// sides and the bottom would send back.
#[test]
fn rayleigh_wave_travels_at_0_9194_vs() {
    let vs = 3464.0f32;
    let model =
        HalfspaceModel { material: Material::new(3.0f32.sqrt() * vs, vs, 2700.0, 800.0, 400.0) };
    let c_r = 0.9194 * f64::from(vs);
    let (dx, near, far, sigma) = (100.0, 20, 50, 0.06);
    let dims = Dims3::new(80, 40, 30);
    let mut cfg = explosion_cfg(dims, dx, 0);
    cfg.options.sponge_width = 8;
    let (x0, y0, delay) = (12, dims.ny / 2, 4.0 * sigma);
    let stf = SourceTimeFunction::Gaussian { delay, sigma };
    cfg.sources[0] = PointSource { ix: x0, iz: 2, stf, ..cfg.sources[0] };
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    let ends = [near, far].map(|n| delay + n as f64 * dx / c_r + 4.0 * sigma);
    let mut traces = [Vec::new(), Vec::new()];
    while sim.time < ends[1] {
        sim.step();
        for ((trace, n), end) in traces.iter_mut().zip([near, far]).zip(ends) {
            if sim.time <= end {
                trace.push(sim.state.w.get(x0 + n, y0, 0));
            }
        }
    }
    // The largest lobe, whichever its sign.
    let (max, min) = traces[0].iter().fold((0.0f32, 0.0f32), |(a, b), &w| (a.max(w), b.min(w)));
    let sign = if max >= -min { 1.0 } else { -1.0 };
    let dt = sim.state.dt;
    let [t_near, t_far] =
        traces.map(|t| peak_time(&t.iter().map(|w| sign * w).collect::<Vec<_>>(), dt));
    let measured = (far - near) as f64 * dx / (t_far - t_near);
    let rel = (measured - c_r).abs() / c_r;
    // Measured: 3212.0 m/s against 0.9194 vs = 3184.8, 0.85 % off, with
    // a dominant wavelength of ≈ 12 cells (1 / 2πσ = 2.65 Hz). Pinned at
    // twice that.
    assert!(rel < 0.017, "measured c_R {measured:.1} vs {c_r:.1} m/s ({:.2} %)", rel * 100.0);
}

/// Rung 2e, the direction of the paper's Fig. 11 as a number: plasticity
/// lowers near-fault PGV. A strong double couple (M0 5e15 N·m, Mw 4.4)
/// 900 m under the epicentre of a small Tangshan basin (30 × 28 × 16
/// cells of 150 m), recorded by surface stations within 300 m of the
/// epicentre, with Drucker–Prager off and on (no attenuation, no
/// compression). Measured: plastic over elastic PGV 0.299; the pin is
/// within 2× of it either way (EXPERIMENTS "Plasticity and near-fault
/// PGV", where a weaker source reverses the sign).
#[test]
fn plasticity_lowers_near_fault_pgv() {
    let model = TangshanModel::with_extent(4_500.0, 4_200.0, 2_400.0);
    let (dims, dx) = (Dims3::new(30, 28, 16), 150.0);
    let (ex, ey) = model.epicenter();
    let (ix, iy) = ((ex / dx) as usize, (ey / dx) as usize);
    let pgv = |nonlinear: bool| {
        let mut cfg = SimConfig::new(dims, dx, 120);
        cfg.options.attenuation = false;
        cfg.options.nonlinear = nonlinear;
        cfg.options.sponge_width = 4;
        cfg.sources = vec![PointSource {
            ix,
            iy,
            iz: 6,
            moment: MomentTensor::double_couple(30.0, 90.0, 180.0, 5.0e15),
            stf: SourceTimeFunction::Triangle { onset: 0.05, duration: 0.4 },
        }];
        let near = [(0, 0), (2, 0), (0, 2), (-2, 0), (0, -2), (2, 2), (-2, -2)];
        cfg.stations = near
            .iter()
            .map(|&(dx, dy)| Station {
                name: format!("{dx},{dy}"),
                ix: ix.checked_add_signed(dx).unwrap(),
                iy: iy.checked_add_signed(dy).unwrap(),
            })
            .collect();
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(cfg.steps);
        assert!(!sim.state.has_blown_up());
        sim.seismo.seismograms().iter().map(|s| s.peak_horizontal()).fold(0.0, f32::max)
    };
    let (elastic, plastic) = (pgv(false), pgv(true));
    assert!(plastic < elastic, "plasticity raised near-fault PGV: {elastic} -> {plastic}");
    let ratio = plastic / elastic;
    assert!((0.15..=0.6).contains(&ratio), "plastic over elastic PGV {ratio}, measured 0.299");
}

//! Drucker–Prager plasticity (`drprecpc_calc`, `drprecpc_app`).
//!
//! Paper eqs. (3)–(4): the yield stress is
//! `Y(σ) = max(0, c·cosφ − (σₘ + P_f)·sinφ)` and when the deviatoric
//! stress magnitude `τ̄ = √J₂` exceeds `Y`, the deviator is scaled back
//! onto the yield surface: `σᵢⱼ = σₘδᵢⱼ + r·sᵢⱼ` with `r = Y/τ̄`.
//!
//! Sign convention: compression is negative, so the lithostatic prestress
//! `σ₀` (stored in the state) is negative and pore pressure `P_f`
//! positive. The *dynamic* stress carried by the FD arrays rides on top of
//! that prestress; the yield check uses the total mean stress.
//!
//! The paper reports `drprecpc_calc` as "the most time-consuming part of
//! the entire program" — it touches every point, reads the whole stress
//! tensor plus four material arrays, and takes a square root per point.

use super::plane::for_each_plane;
use super::sponge::{taper_row, PlaneMaxima, STRESSES, WAVEFIELDS};
use crate::state::SolverState;
use std::ops::Range;
use sw_compress::par::MaxAbs;
use sw_grid::HALO_WIDTH as H;

/// `drprecpc_calc`: compute the yield factor `r` for every point into
/// `yldfac` (1.0 where elastic). Returns the number of yielding points.
pub fn drprecpc_calc(s: &mut SolverState) -> usize {
    drprecpc_calc_region(s, 0..s.dims.nx, false)
}

/// One column's yield factors: `r` from the stress rows
/// `[xx, yy, zz, xy, xz, yz]` and the material rows `[σ₀, c, cosφ, sinφ,
/// P_f]` into `out`. Returns the number of yielding points. The branch
/// and the `sqrt` per point keep the loop at width 1.
#[inline(always)]
fn yield_factors(stress: [&[f32]; 6], material: [&[f32]; 5], out: &mut [f32]) -> usize {
    let [rxx, ryy, rzz, rxy, rxz, ryz] = stress;
    let [rsig, rc, rcos, rsin, rpf] = material;
    let mut yielding = 0;
    for (z, out) in out.iter_mut().enumerate() {
        let (sxx, syy, szz) = (rxx[z], ryy[z], rzz[z]);
        let (sxy, sxz, syz) = (rxy[z], rxz[z], ryz[z]);
        let mean_dyn = (sxx + syy + szz) / 3.0;
        let mean_total = mean_dyn + rsig[z];
        // deviator of the total stress = deviator of the dynamic part
        // (the prestress is isotropic)
        let (dxx, dyy, dzz) = (sxx - mean_dyn, syy - mean_dyn, szz - mean_dyn);
        let j2 = 0.5 * (dxx * dxx + dyy * dyy + dzz * dzz) + sxy * sxy + sxz * sxz + syz * syz;
        let tau_bar = j2.sqrt();
        let y_stress = (rc[z] * rcos[z] - (mean_total + rpf[z]) * rsin[z]).max(0.0);
        *out = if tau_bar > y_stress && tau_bar > 0.0 {
            yielding += 1;
            y_stress / tau_bar
        } else {
            1.0
        };
    }
    yielding
}

/// One column's return mapping: scale the deviator of the stress rows
/// `[xx, yy, zz, xy, xz, yz]` by the yield factors `ryld` where they are
/// below 1 and accumulate the equivalent plastic strain into `eqp`.
#[inline(always)]
fn return_map(stress: [&mut [f32]; 6], eqp: &mut [f32], ryld: &[f32], rmu: &[f32]) {
    let [pxx, pyy, pzz, pxy, pxz, pyz] = stress;
    for (z, &r) in ryld.iter().enumerate() {
        if r >= 1.0 {
            continue;
        }
        let (sxx, syy, szz) = (pxx[z], pyy[z], pzz[z]);
        let (sxy, sxz, syz) = (pxy[z], pxz[z], pyz[z]);
        let mean = (sxx + syy + szz) / 3.0;
        let (dxx, dyy, dzz) = (sxx - mean, syy - mean, szz - mean);
        pxx[z] = mean + r * dxx;
        pyy[z] = mean + r * dyy;
        pzz[z] = mean + r * dzz;
        pxy[z] = r * sxy;
        pxz[z] = r * sxz;
        pyz[z] = r * syz;
        // The return removes Δεᵖ = (1 − r)·s/(2μ), whose equivalent
        // plastic strain √(⅔ Δεᵖ:Δεᵖ) is (1 − r)·√J₂/(√3·μ): shear
        // deviators included.
        let j2 = 0.5 * (dxx * dxx + dyy * dyy + dzz * dzz) + sxy * sxy + sxz * sxz + syz * syz;
        eqp[z] += (1.0 - r) * j2.sqrt() / (3f32.sqrt() * rmu[z].max(1.0));
    }
}

/// [`drprecpc_calc`] over the columns of `x_range`, planes walked by the
/// pool or the caller.
pub fn drprecpc_calc_region(s: &mut SolverState, x_range: Range<usize>, pool: bool) -> usize {
    debug_assert!(s.options.nonlinear);
    let d = s.dims;
    let pnz = d.nz + 2 * H;
    let (xx, yy, zz, xy, xz, yz) = (&s.xx, &s.yy, &s.zz, &s.xy, &s.xz, &s.yz);
    let (sigma0, cohes, cosphi, sinphi, pf) = (&s.sigma0, &s.cohes, &s.cosphi, &s.sinphi, &s.pf);
    let per_plane = for_each_plane(
        [&mut s.yldfac],
        x_range,
        pool,
        #[inline(always)]
        |x, [pyld]| {
            let mut local = 0usize;
            for y in 0..d.ny {
                let stress = [xx, yy, zz, xy, xz, yz].map(|f| f.row(x, y));
                let material = [sigma0, cohes, cosphi, sinphi, pf].map(|f| f.row(x, y));
                let base = (y + H) * pnz + H;
                local += yield_factors(stress, material, &mut pyld[base..base + d.nz]);
            }
            local
        },
    );
    per_plane.into_iter().sum()
}

/// `drprecpc_app`: apply the yield factors — scale the stress deviator
/// back onto the yield surface and accumulate the equivalent plastic
/// strain of what the return removed.
pub fn drprecpc_app(s: &mut SolverState) {
    drprecpc_app_region(s, 0..s.dims.nx, false);
}

/// [`drprecpc_app`] over the columns of `x_range`, pool or caller.
pub fn drprecpc_app_region(s: &mut SolverState, x_range: Range<usize>, pool: bool) {
    debug_assert!(s.options.nonlinear);
    let d = s.dims;
    let pnz = d.nz + 2 * H;
    let (yldfac, mu) = (&s.yldfac, &s.mu);
    let fields = [&mut s.xx, &mut s.yy, &mut s.zz, &mut s.xy, &mut s.xz, &mut s.yz, &mut s.eqp];
    for_each_plane(
        fields,
        x_range,
        pool,
        #[inline(always)]
        |x, [pxx, pyy, pzz, pxy, pxz, pyz, peqp]| {
            for y in 0..d.ny {
                let column = (y + H) * pnz + H..(y + H) * pnz + H + d.nz;
                let stress = [&mut *pxx, &mut *pyy, &mut *pzz, &mut *pxy, &mut *pxz, &mut *pyz]
                    .map(|p| &mut p[column.clone()]);
                return_map(stress, &mut peqp[column], yldfac.row(x, y), mu.row(x, y));
            }
        },
    );
}

/// The step's plasticity and sponge in one plane walk over the columns of
/// `x_range`, pool or caller: per column, [`drprecpc_calc`]'s yield
/// factors, [`drprecpc_app`]'s return mapping, and then the state's
/// sponge over the nine wavefields in the column's band (their last store
/// of the step: `dstrqc` has read the undamped velocities, and no later
/// stage reads undamped values). Returns the number of yielding points
/// and — with `scale` — the six stresses' max-abs per x-plane, taken from
/// each column while it is still in L1 (DESIGN "The round trip's
/// neighbours ride it"). Every stage is pointwise, so the walk leaves the
/// bits the three passes leave.
pub fn drprecpc_region(
    s: &mut SolverState,
    x_range: Range<usize>,
    pool: bool,
    scale: bool,
) -> (usize, Option<PlaneMaxima>) {
    debug_assert!(s.options.nonlinear);
    let d = s.dims;
    let pnz = d.nz + 2 * H;
    let taper = (s.options.sponge_width > 0).then(|| s.sponge.clone());
    let (sigma0, cohes, cosphi, sinphi, pf, mu) =
        (&s.sigma0, &s.cohes, &s.cosphi, &s.sinphi, &s.pf, &s.mu);
    let fields = [
        &mut s.u,
        &mut s.v,
        &mut s.w,
        &mut s.xx,
        &mut s.yy,
        &mut s.zz,
        &mut s.xy,
        &mut s.xz,
        &mut s.yz,
        &mut s.yldfac,
        &mut s.eqp,
    ];
    let per_plane = for_each_plane(
        fields,
        x_range,
        pool,
        #[inline(always)]
        |x, planes| {
            let [pu, pv, pw, pxx, pyy, pzz, pxy, pxz, pyz, pyld, peqp] = planes;
            let (mut wavefields, mut local) = ([pu, pv, pw, pxx, pyy, pzz, pxy, pxz, pyz], 0);
            let mut max = [MaxAbs::default(); STRESSES];
            for y in 0..d.ny {
                let base = (y + H) * pnz + H;
                let column = base..base + d.nz;
                let material = [sigma0, cohes, cosphi, sinphi, pf].map(|f| f.row(x, y));
                let ryld = &mut pyld[column.clone()];
                let [.., sxx, syy, szz, sxy, sxz, syz] = &mut wavefields;
                let stress = [sxx, syy, szz, sxy, sxz, syz].map(|p| &mut p[column.clone()]);
                local += yield_factors(stress.each_ref().map(|p| &**p), material, ryld);
                return_map(stress, &mut peqp[column.clone()], ryld, mu.row(x, y));
                if let Some(profile) = &taper {
                    let (z0, damp) = profile.column(x, y);
                    for plane in &mut wavefields[..WAVEFIELDS] {
                        taper_row(&mut plane[base + z0..], damp);
                    }
                }
                if scale {
                    for (m, plane) in max.iter_mut().zip(&wavefields[WAVEFIELDS - STRESSES..]) {
                        m.row(&plane[column.clone()]);
                    }
                }
            }
            (local, max.map(MaxAbs::get))
        },
    );
    let yielding = per_plane.iter().map(|&(local, _)| local).sum();
    (yielding, scale.then(|| per_plane.into_iter().map(|(_, max)| max).collect()))
}

/// J₂ deviatoric magnitude of the dynamic stress at a point (test probe).
pub fn tau_bar_at(s: &SolverState, x: usize, y: usize, z: usize) -> f32 {
    let (sxx, syy, szz) = (s.xx.get(x, y, z), s.yy.get(x, y, z), s.zz.get(x, y, z));
    let mean = (sxx + syy + szz) / 3.0;
    let j2 = 0.5 * ((sxx - mean).powi(2) + (syy - mean).powi(2) + (szz - mean).powi(2))
        + s.xy.get(x, y, z).powi(2)
        + s.xz.get(x, y, z).powi(2)
        + s.yz.get(x, y, z).powi(2);
    j2.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{PlasticityConfig, StateOptions};
    use sw_grid::Dims3;
    use sw_model::HalfspaceModel;

    fn state() -> SolverState {
        let opts = StateOptions {
            sponge_width: 0,
            nonlinear: true,
            plasticity: PlasticityConfig {
                cohesion_surface: 1.0e6,
                cohesion_gradient: 0.0,
                friction_angle_deg: 30.0,
                fluid_pressure_ratio: 0.0,
            },
            ..Default::default()
        };
        SolverState::from_model(
            &HalfspaceModel::hard_rock(),
            Dims3::new(6, 6, 6),
            100.0,
            (0.0, 0.0, 0.0),
            opts,
        )
    }

    /// Yield stress formula check at a known point: Y = c·cosφ − (σm+Pf)·sinφ.
    #[test]
    fn yield_stress_matches_eq3() {
        let mut s = state();
        // Set shear well above yield at one point.
        s.xy.set(3, 3, 3, 50.0e6);
        let sigma0 = s.sigma0.get(3, 3, 3);
        let expect_y = 1.0e6 * (30f32.to_radians().cos()) - sigma0 * 30f32.to_radians().sin();
        let n = drprecpc_calc(&mut s);
        assert!(n >= 1);
        let r = s.yldfac.get(3, 3, 3);
        assert!((r - expect_y / 50.0e6).abs() / r < 1e-4, "r {r}");
    }

    /// After apply, the stress sits exactly on the yield surface.
    #[test]
    fn return_mapping_lands_on_the_surface() {
        let mut s = state();
        s.xy.set(3, 3, 3, 50.0e6);
        s.xx.set(3, 3, 3, 5.0e6);
        s.yy.set(3, 3, 3, -2.0e6);
        drprecpc_calc(&mut s);
        drprecpc_app(&mut s);
        // Recompute: τ̄ must equal Y within float tolerance.
        let mean_total = (s.xx.get(3, 3, 3) + s.yy.get(3, 3, 3) + s.zz.get(3, 3, 3)) / 3.0
            + s.sigma0.get(3, 3, 3);
        let y = (s.cohes.get(3, 3, 3) * s.cosphi.get(3, 3, 3)
            - (mean_total + s.pf.get(3, 3, 3)) * s.sinphi.get(3, 3, 3))
        .max(0.0);
        let tb = tau_bar_at(&s, 3, 3, 3);
        assert!((tb - y).abs() / y < 1e-3, "tau {tb} vs Y {y}");
        assert!(s.eqp.get(3, 3, 3) > 0.0, "plastic strain accumulated");
    }

    /// Elastic points are untouched by the apply pass.
    #[test]
    fn elastic_points_unchanged() {
        let mut s = state();
        s.xy.set(2, 2, 2, 1.0e3); // far below yield
        let before = s.xy.get(2, 2, 2);
        let n = drprecpc_calc(&mut s);
        assert_eq!(n, 0, "nothing yields");
        drprecpc_app(&mut s);
        assert_eq!(s.xy.get(2, 2, 2), before);
        assert_eq!(s.yldfac.get(2, 2, 2), 1.0);
    }

    /// Mean stress is preserved by the return mapping (only the deviator
    /// scales).
    #[test]
    fn mean_stress_preserved() {
        let mut s = state();
        s.xx.set(3, 3, 3, 40.0e6);
        s.yy.set(3, 3, 3, -10.0e6);
        s.xy.set(3, 3, 3, 60.0e6);
        let mean_before = (s.xx.get(3, 3, 3) + s.yy.get(3, 3, 3) + s.zz.get(3, 3, 3)) / 3.0;
        drprecpc_calc(&mut s);
        drprecpc_app(&mut s);
        let mean_after = (s.xx.get(3, 3, 3) + s.yy.get(3, 3, 3) + s.zz.get(3, 3, 3)) / 3.0;
        assert!((mean_before - mean_after).abs() <= mean_before.abs() * 1e-5);
    }

    /// Deeper points (more confinement) yield less for the same shear.
    #[test]
    fn confinement_raises_strength() {
        let mut s = state();
        let shear = 30.0e6f32;
        s.xy.set(3, 3, 0, shear);
        s.xy.set(3, 3, 5, shear);
        drprecpc_calc(&mut s);
        let r_shallow = s.yldfac.get(3, 3, 0);
        let r_deep = s.yldfac.get(3, 3, 5);
        assert!(r_deep > r_shallow, "deep {r_deep} vs shallow {r_shallow}");
    }

    /// Tensile mean stress can drive Y to zero: total deviatoric collapse.
    #[test]
    fn tension_cutoff() {
        let mut s = state();
        // Large tension overwhelming cohesion and lithostatic pressure.
        let t = 200.0e6f32;
        s.xx.set(3, 3, 0, t);
        s.yy.set(3, 3, 0, t);
        s.zz.set(3, 3, 0, t);
        s.xy.set(3, 3, 0, 10.0e6);
        drprecpc_calc(&mut s);
        drprecpc_app(&mut s);
        assert!(tau_bar_at(&s, 3, 3, 0) < 1.0, "deviator collapsed under tension");
    }
}

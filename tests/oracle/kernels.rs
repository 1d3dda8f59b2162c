//! The naive stencil kernels: the `.get()`-indexed triple loops
//! `swquake-core` ran before every kernel became one lane-generic plane
//! body (`crates/core/src/kernels/`), moved here verbatim as the
//! reference `tests/kernel_matrix.rs` compares that body with, bit for
//! bit, and `bench_step_exec` times it against.
//!
//! Do not "improve" this file: its value is that it is obviously the old
//! code — one cell at a time, every tap through the staggered operators
//! of `swquake_core::staggered`.

use std::ops::Range;
use sw_grid::{Field3, HALO_WIDTH};
use swquake_core::staggered::{dxm, dxp, dym, dyp, dzm, dzp};
use swquake_core::state::SolverState;

/// Update velocities in the sub-box `x_range × y_range` (full z).
///
/// The per-cell density divide is hoisted into the precomputed
/// `buoyancy` field (`1/ρ`), so the hottest loop multiplies instead.
/// Bit-compat note: `dt_dx * (1/ρ)` rounds differently from `dt_dx / ρ`
/// in general, so this changed results vs the pre-buoyancy kernels by
/// ≤ 1 ulp per update; every execution path (scalar, parallel, SIMD,
/// fused) shares the same buoyancy formulation and stays bit-identical
/// across modes.
pub fn update_velocity_region(s: &mut SolverState, x_range: Range<usize>, y_range: Range<usize>) {
    let d = s.dims;
    let dt_dx = (s.dt / s.dx) as f32;
    for x in x_range {
        for y in y_range.clone() {
            for z in 0..d.nz {
                let b = dt_dx * s.buoyancy.get(x, y, z);
                let du = dxp(&s.xx, x, y, z) + dym(&s.xy, x, y, z) + dzm(&s.xz, x, y, z);
                let dv = dxm(&s.xy, x, y, z) + dyp(&s.yy, x, y, z) + dzm(&s.yz, x, y, z);
                let dw = dxm(&s.xz, x, y, z) + dym(&s.yz, x, y, z) + dzp(&s.zz, x, y, z);
                s.u.set(x, y, z, s.u.get(x, y, z) + b * du);
                s.v.set(x, y, z, s.v.get(x, y, z) + b * dv);
                s.w.set(x, y, z, s.w.get(x, y, z) + b * dw);
            }
        }
    }
}

/// `dvelcx`: the central region — all x, y away from the halo strips.
pub fn dvelcx(s: &mut SolverState) {
    let d = s.dims;
    let h = HALO_WIDTH.min(d.ny / 2);
    update_velocity_region(s, 0..d.nx, h..d.ny - h);
}

/// `dvelcy`: the two y-boundary strips of width `HALO_WIDTH` (computed
/// after the y halo has arrived).
pub fn dvelcy(s: &mut SolverState) {
    let d = s.dims;
    let h = HALO_WIDTH.min(d.ny / 2);
    update_velocity_region(s, 0..d.nx, 0..h);
    update_velocity_region(s, 0..d.nx, d.ny - h..d.ny);
}

/// Update stresses (and memory variables) in `x_range × y_range` (full z).
pub fn update_stress_region(s: &mut SolverState, x_range: Range<usize>, y_range: Range<usize>) {
    let d = s.dims;
    let inv_dx = (1.0 / s.dx) as f32;
    let dt = s.dt as f32;
    let atten = s.options.attenuation;
    let tau = s.tau as f32;
    let (a_coef, b_coef) = if atten {
        ((2.0 * tau - dt) / (2.0 * tau + dt), 2.0 * dt / (2.0 * tau + dt))
    } else {
        (1.0, 0.0)
    };
    for x in x_range {
        for y in y_range.clone() {
            for z in 0..d.nz {
                let lam = s.lam.get(x, y, z);
                let mu = s.mu.get(x, y, z);
                // strain rates (1/s)
                let exx = dxm(&s.u, x, y, z) * inv_dx;
                let eyy = dym(&s.v, x, y, z) * inv_dx;
                let ezz = dzm(&s.w, x, y, z) * inv_dx;
                let div = exx + eyy + ezz;
                let exy = (dyp(&s.u, x, y, z) + dxp(&s.v, x, y, z)) * inv_dx;
                let exz = (dzp(&s.u, x, y, z) + dxp(&s.w, x, y, z)) * inv_dx;
                let eyz = (dzp(&s.v, x, y, z) + dyp(&s.w, x, y, z)) * inv_dx;
                // elastic stress rates (Pa/s)
                let rates = [
                    lam * div + 2.0 * mu * exx,
                    lam * div + 2.0 * mu * eyy,
                    lam * div + 2.0 * mu * ezz,
                    mu * exy,
                    mu * exz,
                    mu * eyz,
                ];
                // (Without attenuation the Q weights and memory variables
                // are no longer allocated; they were read and ignored.)
                let (wp, ws) =
                    if atten { (s.wp.get(x, y, z), s.ws.get(x, y, z)) } else { (0.0, 0.0) };
                let weights = [wp, wp, wp, ws, ws, ws];
                let fields: [&mut Field3; 6] =
                    [&mut s.xx, &mut s.yy, &mut s.zz, &mut s.xy, &mut s.xz, &mut s.yz];
                for (c, field) in fields.into_iter().enumerate() {
                    let e = rates[c];
                    let r_old = if atten { s.r[c].get(x, y, z) } else { 0.0 };
                    let (r_new, r_bar) = if atten {
                        let rn = a_coef * r_old + b_coef * weights[c] * e;
                        (rn, 0.5 * (rn + r_old))
                    } else {
                        (0.0, 0.0)
                    };
                    field.set(x, y, z, field.get(x, y, z) + dt * (e - r_bar));
                    if atten {
                        s.r[c].set(x, y, z, r_new);
                    }
                }
            }
        }
    }
}

/// `dstrqc`: the full-domain stress update.
pub fn dstrqc(s: &mut SolverState) {
    let d = s.dims;
    update_stress_region(s, 0..d.nx, 0..d.ny);
}

/// Apply the free-surface condition to the stress (and `w`) halos.
pub fn fstr(s: &mut SolverState) {
    let nx = s.dims.nx;
    fstr_region(s, 0..nx);
}

/// Apply the free-surface condition to the columns in `x_range` only.
///
/// Every halo value `fstr` writes is read back only at the same `(x, y)`
/// column (the velocity/stress stencils are purely vertical through these
/// planes), so imaging a sub-range of columns is exactly the restriction
/// of the full kernel — the resident slab sweeps rely on this.
pub fn fstr_region(s: &mut SolverState, x_range: Range<usize>) {
    let d = s.dims;
    for x in x_range {
        for y in 0..d.ny {
            image_stress(s, x, y);
            image_w(s, x, y);
        }
    }
}

/// `fstr`'s stress rows alone, over the columns in `x_range`.
pub fn fstr_stress_region(s: &mut SolverState, x_range: Range<usize>) {
    let d = s.dims;
    for x in x_range {
        for y in 0..d.ny {
            image_stress(s, x, y);
        }
    }
}

/// `fstr`'s `w` rows alone, over the columns of `x_range × y_range`.
pub fn fstr_w_region(s: &mut SolverState, x_range: Range<usize>, y_range: Range<usize>) {
    for x in x_range {
        for y in y_range.clone() {
            image_w(s, x, y);
        }
    }
}

fn image_stress(s: &mut SolverState, x: usize, y: usize) {
    let (xi, yi) = (x as isize, y as isize);
    // zz: zero on the surface plane, antisymmetric above.
    s.zz.set(x, y, 0, 0.0);
    s.zz.set_i(xi, yi, -1, -s.zz.get(x, y, 1));
    s.zz.set_i(xi, yi, -2, -s.zz.get(x, y, 2));
    // xz, yz: antisymmetric about the surface (half-staggered).
    s.xz.set_i(xi, yi, -1, -s.xz.get(x, y, 0));
    s.xz.set_i(xi, yi, -2, -s.xz.get(x, y, 1));
    s.yz.set_i(xi, yi, -1, -s.yz.get(x, y, 0));
    s.yz.set_i(xi, yi, -2, -s.yz.get(x, y, 1));
}

fn image_w(s: &mut SolverState, x: usize, y: usize) {
    let (xi, yi) = (x as isize, y as isize);
    // w: symmetric continuation.
    s.w.set_i(xi, yi, -1, s.w.get(x, y, 0));
    s.w.set_i(xi, yi, -2, s.w.get(x, y, 1));
}

/// `drprecpc_calc`: compute the yield factor `r` for every point into
/// `yldfac` (1.0 where elastic). Returns the number of yielding points.
pub fn drprecpc_calc(s: &mut SolverState) -> usize {
    let nx = s.dims.nx;
    drprecpc_calc_region(s, 0..nx)
}

/// Pointwise yield-factor computation restricted to `x_range` columns.
pub fn drprecpc_calc_region(s: &mut SolverState, x_range: Range<usize>) -> usize {
    debug_assert!(s.options.nonlinear);
    let d = s.dims;
    let mut yielding = 0usize;
    for x in x_range {
        for y in 0..d.ny {
            for z in 0..d.nz {
                let (sxx, syy, szz) = (s.xx.get(x, y, z), s.yy.get(x, y, z), s.zz.get(x, y, z));
                let (sxy, sxz, syz) = (s.xy.get(x, y, z), s.xz.get(x, y, z), s.yz.get(x, y, z));
                let mean_dyn = (sxx + syy + szz) / 3.0;
                let mean_total = mean_dyn + s.sigma0.get(x, y, z);
                // deviator of the total stress = deviator of the dynamic
                // part (the prestress is isotropic)
                let (dxx, dyy, dzz) = (sxx - mean_dyn, syy - mean_dyn, szz - mean_dyn);
                let j2 =
                    0.5 * (dxx * dxx + dyy * dyy + dzz * dzz) + sxy * sxy + sxz * sxz + syz * syz;
                let tau_bar = j2.sqrt();
                let c = s.cohes.get(x, y, z);
                let y_stress = (c * s.cosphi.get(x, y, z)
                    - (mean_total + s.pf.get(x, y, z)) * s.sinphi.get(x, y, z))
                .max(0.0);
                let r = if tau_bar > y_stress && tau_bar > 0.0 {
                    yielding += 1;
                    y_stress / tau_bar
                } else {
                    1.0
                };
                s.yldfac.set(x, y, z, r);
            }
        }
    }
    yielding
}

/// `drprecpc_app`: apply the yield factors — scale the stress deviator
/// back onto the yield surface and accumulate plastic strain.
pub fn drprecpc_app(s: &mut SolverState) {
    let nx = s.dims.nx;
    drprecpc_app_region(s, 0..nx);
}

/// Pointwise return mapping restricted to `x_range` columns.
pub fn drprecpc_app_region(s: &mut SolverState, x_range: Range<usize>) {
    debug_assert!(s.options.nonlinear);
    let d = s.dims;
    for x in x_range {
        for y in 0..d.ny {
            for z in 0..d.nz {
                let r = s.yldfac.get(x, y, z);
                if r >= 1.0 {
                    continue;
                }
                let (sxx, syy, szz) = (s.xx.get(x, y, z), s.yy.get(x, y, z), s.zz.get(x, y, z));
                let (sxy, sxz, syz) = (s.xy.get(x, y, z), s.xz.get(x, y, z), s.yz.get(x, y, z));
                let mean = (sxx + syy + szz) / 3.0;
                s.xx.set(x, y, z, mean + r * (sxx - mean));
                s.yy.set(x, y, z, mean + r * (syy - mean));
                s.zz.set(x, y, z, mean + r * (szz - mean));
                s.xy.set(x, y, z, r * sxy);
                s.xz.set(x, y, z, r * sxz);
                s.yz.set(x, y, z, r * syz);
                // Equivalent plastic strain of Δεᵖ = (1 − r)·s/(2μ):
                // √(⅔ Δεᵖ:Δεᵖ) = (1 − r)·√J₂/(√3·μ).
                let (dxx, dyy, dzz) = (sxx - mean, syy - mean, szz - mean);
                let j2 =
                    0.5 * (dxx * dxx + dyy * dyy + dzz * dzz) + sxy * sxy + sxz * sxz + syz * syz;
                let mu = s.mu.get(x, y, z).max(1.0);
                s.eqp.set(x, y, z, s.eqp.get(x, y, z) + (1.0 - r) * j2.sqrt() / (3f32.sqrt() * mu));
            }
        }
    }
}

/// The Cerjan damping profile as `SolverState::build_sponge` filled it
/// into a whole-mesh array (`dcrj`) before the product tabulated it per
/// distance (`SpongeProfile`): the five absorbing faces (not the z = 0
/// free surface) taper over `sponge_width` points.
pub fn whole_mesh_sponge(s: &SolverState) -> Field3 {
    let d = s.dims;
    let mut dcrj = Field3::filled(d, HALO_WIDTH, 1.0);
    let n = s.options.sponge_width;
    if n == 0 {
        return dcrj;
    }
    let alpha = 0.095f32; // classic Cerjan decay constant
    let (global, x_off, y_off) = s.options.global_span.unwrap_or((d, 0, 0));
    let factor = |dist: usize| -> f32 {
        if dist >= n {
            1.0
        } else {
            let a = alpha * (n - dist) as f32 / n as f32;
            (-a * a * 10.0).exp()
        }
    };
    for x in 0..d.nx {
        for y in 0..d.ny {
            for z in 0..d.nz {
                let gx = x + x_off;
                let gy = y + y_off;
                let dist = gx
                    .min(global.nx - 1 - gx)
                    .min(gy.min(global.ny - 1 - gy))
                    .min(global.nz - 1 - z); // z = 0 face is the free surface
                dcrj.set(x, y, z, factor(dist));
            }
        }
    }
    dcrj
}

/// Apply the sponge to all dynamic fields (`dcrj` is no longer part of
/// the state: build it once with [`whole_mesh_sponge`]).
pub fn apply_sponge(s: &mut SolverState, dcrj: &Field3) {
    let nx = s.dims.nx;
    apply_sponge_region(s, dcrj, 0..nx);
}

/// Apply the sponge to the columns in `x_range` only.
///
/// The damping is a pointwise multiply by `dcrj`, so restricting the x
/// range is exactly the restriction of the full kernel.
pub fn apply_sponge_region(s: &mut SolverState, dcrj: &Field3, x_range: Range<usize>) {
    let memory = s.options.attenuation;
    sponge_fields(s, dcrj, x_range, true, memory);
}

/// The sponge over the columns in `x_range`, restricted to the nine
/// wavefields (`wavefields`) and/or the six memory variables (`memory`).
pub fn sponge_fields(
    s: &mut SolverState,
    dcrj: &Field3,
    x_range: Range<usize>,
    wavefields: bool,
    memory: bool,
) {
    let d = s.dims;
    if s.options.sponge_width == 0 {
        return;
    }
    for x in x_range {
        for y in 0..d.ny {
            let damp: Vec<f32> = dcrj.row(x, y).to_vec();
            if wavefields {
                for f in [
                    &mut s.u, &mut s.v, &mut s.w, &mut s.xx, &mut s.yy, &mut s.zz, &mut s.xy,
                    &mut s.xz, &mut s.yz,
                ] {
                    for (v, &g) in f.row_mut(x, y).iter_mut().zip(&damp) {
                        *v *= g;
                    }
                }
            }
            if memory {
                for f in s.r.iter_mut() {
                    for (v, &g) in f.row_mut(x, y).iter_mut().zip(&damp) {
                        *v *= g;
                    }
                }
            }
        }
    }
}

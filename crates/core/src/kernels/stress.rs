//! The stress update with attenuation (`dstrqc`).
//!
//! Paper eq. (2): `∂σ/∂t = λ(∇·v)I + μ(∇v + ∇vᵀ)`, plus one coarse-grained
//! anelastic memory variable per stress component (the `r1..r6` arrays of
//! Fig. 5d). The memory variables implement a standard-linear-solid
//! mechanism centered at the reference frequency: with weight `w ≈ 1/Q`,
//!
//! ```text
//! σⁿ⁺¹ = σⁿ + dt (E − r̄)        E = elastic stress rate
//! rⁿ⁺¹ = a rⁿ + b w E           a = (2τ−dt)/(2τ+dt), b = 2dt/(2τ+dt)
//! ```
//!
//! so a `Q = ∞` (w = 0) medium is exactly elastic and smaller Q decays
//! faster — the property the attenuation tests pin down.
//!
//! Nothing else in a step writes `r`, so the sponge's taper of the memory
//! variables rides this store: given a profile, each row of `r` is
//! multiplied by its column's factors right after `r̄` has used the
//! undamped `rⁿ⁺¹`, while the row is still in cache.

use super::plane::{
    d_across, dz, for_each_plane, sweep_row, taps, tile_row, Lane, Region, DXM, DXP, DYM, DYP,
};
use super::sponge::taper_row;
use crate::state::{SolverState, SpongeProfile};
use sw_grid::tile::blocks;
use sw_grid::HALO_WIDTH as H;

/// Update the stresses (and memory variables) in `region`, planes walked
/// by the pool or the caller, and — given a `taper` — damp the memory
/// variables by it as they are stored (the step's sponge for `r`). The
/// resident engine tapers its slab in a sweep of its own and passes
/// `None`.
pub fn dstrqc_region(
    s: &mut SolverState,
    region: &Region,
    pool: bool,
    taper: Option<&SpongeProfile>,
) {
    let nz = s.dims.nz;
    let pnz = nz + 2 * H;
    let inv_dx = (1.0 / s.dx) as f32;
    let dt = s.dt as f32;
    let tau = s.tau as f32;
    let (a_coef, b_coef) = ((2.0 * tau - dt) / (2.0 * tau + dt), 2.0 * dt / (2.0 * tau + dt));
    let atten = s.options.attenuation;
    let taper = taper.filter(|_| atten && s.options.sponge_width > 0);
    let (u, v, w, lam, mu, wp, ws) = (&s.u, &s.v, &s.w, &s.lam, &s.mu, &s.wp, &s.ws);
    let [r1, r2, r3, r4, r5, r6] = &mut s.r;
    let fields =
        [&mut s.xx, &mut s.yy, &mut s.zz, &mut s.xy, &mut s.xz, &mut s.yz, r1, r2, r3, r4, r5, r6];
    for_each_plane(
        fields,
        region.x.clone(),
        pool,
        #[inline(always)]
        |x, planes| {
            let [pxx, pyy, pzz, pxy, pxz, pyz, pr1, pr2, pr3, pr4, pr5, pr6] = planes;
            let (mut stress, mut mem) =
                ([pxx, pyy, pzz, pxy, pxz, pyz], [pr1, pr2, pr3, pr4, pr5, pr6]);
            for tile in blocks(nz, region.tile_z) {
                for (y0, ylen) in blocks(region.y.len(), region.tile_y) {
                    for y in region.y.start + y0..region.y.start + y0 + ylen {
                        // Tap rows, named by the difference they feed.
                        let at = (x, y);
                        let (dxm_u, dyp_u) = (taps(u, DXM, at, tile), taps(u, DYP, at, tile));
                        let (dxp_v, dym_v) = (taps(v, DXP, at, tile), taps(v, DYM, at, tile));
                        let (dxp_w, dyp_w) = (taps(w, DXP, at, tile), taps(w, DYP, at, tile));
                        let (u_c, v_c, w_c) = (dxm_u[0], dym_v[0], dxp_w[1]);
                        let (lam_c, mu_c) = (tile_row(lam, at, tile), tile_row(mu, at, tile));
                        let out = (y + H) * pnz + H + tile.0..(y + H) * pnz + H + tile.0 + tile.1;
                        let stress = stress.each_mut().map(|p| &mut p[out.clone()]);
                        // The Q weights and memory variables are detached
                        // without attenuation: rows of nothing, never read.
                        let (wp_c, ws_c, mem_out) = if atten {
                            (tile_row(wp, at, tile), tile_row(ws, at, tile), out)
                        } else {
                            (&[][..], &[][..], 0..0)
                        };
                        let mem = mem.each_mut().map(|p| &mut p[mem_out.clone()]);
                        sweep_row!(tile.1, |t, L| {
                            let i = t + H;
                            let (inv_dx, dt) = (L::splat(inv_dx), L::splat(dt));
                            let (lam, mu) = (L::load(&lam_c[i..]), L::load(&mu_c[i..]));
                            // strain rates (1/s)
                            let exx = d_across::<L>(&dxm_u, i) * inv_dx;
                            let eyy = d_across::<L>(&dym_v, i) * inv_dx;
                            let ezz = dz::<L>(w_c, i) * inv_dx;
                            let div = exx + eyy + ezz;
                            let exy =
                                (d_across::<L>(&dyp_u, i) + d_across::<L>(&dxp_v, i)) * inv_dx;
                            let exz = (dz::<L>(u_c, i + 1) + d_across::<L>(&dxp_w, i)) * inv_dx;
                            let eyz = (dz::<L>(v_c, i + 1) + d_across::<L>(&dyp_w, i)) * inv_dx;
                            // elastic stress rates (Pa/s)
                            let two_mu = L::splat(2.0) * mu;
                            let rates = [
                                lam * div + two_mu * exx,
                                lam * div + two_mu * eyy,
                                lam * div + two_mu * ezz,
                                mu * exy,
                                mu * exz,
                                mu * eyz,
                            ];
                            if atten {
                                let (wp, ws) = (L::load(&wp_c[i..]), L::load(&ws_c[i..]));
                                let weights = [wp, wp, wp, ws, ws, ws];
                                for c in 0..6 {
                                    let r_old = L::load(&mem[c][t..]);
                                    let r_new = L::splat(a_coef) * r_old
                                        + L::splat(b_coef) * weights[c] * rates[c];
                                    let r_bar = L::splat(0.5) * (r_new + r_old);
                                    (L::load(&stress[c][t..]) + dt * (rates[c] - r_bar))
                                        .store(&mut stress[c][t..]);
                                    r_new.store(&mut mem[c][t..]);
                                }
                            } else {
                                // `e − 0`, as the attenuated form reads with no memory.
                                let zero = L::splat(0.0);
                                for c in 0..6 {
                                    (L::load(&stress[c][t..]) + dt * (rates[c] - zero))
                                        .store(&mut stress[c][t..]);
                                }
                            }
                        });
                        if let Some(profile) = taper {
                            // The column's band within this tile.
                            let (z0, damp) = profile.column(x, y);
                            let (from, to) = (z0.max(tile.0), tile.0 + tile.1);
                            if from < to {
                                for row in mem {
                                    taper_row(&mut row[from - tile.0..], &damp[from - z0..to - z0]);
                                }
                            }
                        }
                    }
                }
            }
        },
    );
}

/// `dstrqc`: the full-domain stress update.
pub fn dstrqc(s: &mut SolverState) {
    dstrqc_region(s, &Region::whole(s.dims), false, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateOptions;
    use sw_grid::Dims3;
    use sw_model::HalfspaceModel;

    fn state(attenuation: bool) -> SolverState {
        let opts = StateOptions { sponge_width: 0, attenuation, ..Default::default() };
        SolverState::from_model(
            &HalfspaceModel::hard_rock(),
            Dims3::new(8, 8, 8),
            100.0,
            (0.0, 0.0, 0.0),
            opts,
        )
    }

    /// A uniform velocity gradient du/dx produces the textbook stress
    /// rates: xx = (λ+2μ)ε̇, yy = zz = λε̇.
    #[test]
    fn uniaxial_strain_rates() {
        let mut s = state(false);
        let g = 0.5f32; // m/s per grid step
        for x in -2..10isize {
            for y in -2..10isize {
                for z in -2..10isize {
                    s.u.set_i(x, y, z, g * x as f32);
                }
            }
        }
        dstrqc(&mut s);
        let m = sw_model::Material::hard_rock();
        let e = g / s.dx as f32; // strain rate
        let dt = s.dt as f32;
        let expect_xx = (m.lambda() + 2.0 * m.mu()) * e * dt;
        let expect_yy = m.lambda() * e * dt;
        let got_xx = s.xx.get(4, 4, 4);
        let got_yy = s.yy.get(4, 4, 4);
        assert!((got_xx - expect_xx).abs() / expect_xx < 1e-4, "xx {got_xx} vs {expect_xx}");
        assert!((got_yy - expect_yy).abs() / expect_yy < 1e-4, "yy {got_yy} vs {expect_yy}");
        assert_eq!(s.xy.get(4, 4, 4), 0.0, "no shear from pure uniaxial strain");
    }

    /// A shear velocity gradient du/dy produces only xy stress.
    #[test]
    fn simple_shear_rates() {
        let mut s = state(false);
        let g = 0.5f32;
        for x in -2..10isize {
            for y in -2..10isize {
                for z in -2..10isize {
                    s.u.set_i(x, y, z, g * y as f32);
                }
            }
        }
        dstrqc(&mut s);
        let m = sw_model::Material::hard_rock();
        let expect = m.mu() * (g / s.dx as f32) * s.dt as f32;
        let got = s.xy.get(4, 4, 4);
        assert!((got - expect).abs() / expect < 1e-4, "xy {got} vs {expect}");
        assert!(s.xx.get(4, 4, 4).abs() < expect * 1e-5);
    }

    /// With attenuation on, repeated cycling loses stress amplitude
    /// relative to the elastic case; with w = 0 the memory variables stay
    /// zero and the result is bit-identical to the elastic path.
    #[test]
    fn attenuation_bleeds_energy() {
        let mut elastic = state(false);
        let mut anelastic = state(true);
        // make Q strong so one step shows a difference
        for v in anelastic.wp.raw_mut() {
            *v = 0.1; // Q = 10
        }
        for v in anelastic.ws.raw_mut() {
            *v = 0.1;
        }
        for s in [&mut elastic, &mut anelastic] {
            for x in -2..10isize {
                s.u.set_i(x, 4, 4, 0.5 * x as f32);
            }
        }
        for _ in 0..20 {
            dstrqc(&mut elastic);
            dstrqc(&mut anelastic);
        }
        let e = elastic.xx.get(4, 4, 4).abs();
        let a = anelastic.xx.get(4, 4, 4).abs();
        assert!(a < e, "attenuated stress {a} must trail elastic {e}");
        assert!(a > 0.5 * e, "but not unphysically fast");
    }

    #[test]
    fn zero_q_weight_matches_elastic_exactly() {
        let mut elastic = state(false);
        let mut anelastic = state(true);
        for v in anelastic.wp.raw_mut() {
            *v = 0.0;
        }
        for v in anelastic.ws.raw_mut() {
            *v = 0.0;
        }
        for s in [&mut elastic, &mut anelastic] {
            for x in -2..10isize {
                s.u.set_i(x, 4, 4, 0.5 * x as f32);
            }
        }
        dstrqc(&mut elastic);
        dstrqc(&mut anelastic);
        assert_eq!(elastic.xx.max_abs_diff(&anelastic.xx), 0.0);
        assert_eq!(anelastic.r[0].max_abs(), 0.0, "memory variables stay zero");
    }
}

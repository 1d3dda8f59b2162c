//! Velocity updates (`dvelcx`, `dvelcy`).
//!
//! Paper eq. (1): `ρ ∂v/∂t = ∇·σ`. On the staggered grid, `u` lives at
//! `(i+1/2, j, k)`, `v` at `(i, j+1/2, k)` and `w` at `(i, j, k+1/2)`, so
//! each component's divergence mixes forward and backward operators.
//!
//! AWP-ODC splits the update into a *central* kernel (`dvelcx`) and the
//! y-boundary strips (`dvelcy`) so the central region can compute while
//! the y halos are in flight; both are regions of the one body below.
//! The body also images `w` at the free surface as it stores the column
//! (`fstr`'s `w` rows, `mirror_w`), so the stress half needs no image
//! of its own.

use super::freesurf::mirror_w;
use super::plane::{
    d_across, dz, for_each_plane, sweep_row, taps, tile_row, Lane, Region, DXM, DXP, DYM, DYP,
};
use crate::state::SolverState;
use sw_grid::tile::blocks;
use sw_grid::HALO_WIDTH as H;

/// Update `u, v, w` in `region`, planes walked by the pool or the caller,
/// and — `image_w` — mirror each updated column's `w` into its two
/// free-surface halo cells once its top two cells are stored. The
/// resident engine, which images its slab itself, passes `false`.
pub fn dvelc_region(s: &mut SolverState, region: &Region, pool: bool, image_w: bool) {
    let nz = s.dims.nz;
    let pnz = nz + 2 * H;
    // The deepest cell the mirror reads: `w(1)`, or the bottom halo cell
    // under a one-cell column (which no update writes).
    let mirrored = 1.min(nz - 1);
    // The per-cell density divide is hoisted into the precomputed
    // `buoyancy` field (`1/ρ`), so the hottest loop multiplies.
    let dt_dx = (s.dt / s.dx) as f32;
    let (xx, yy, zz, xy, xz, yz, buoyancy) =
        (&s.xx, &s.yy, &s.zz, &s.xy, &s.xz, &s.yz, &s.buoyancy);
    for_each_plane(
        [&mut s.u, &mut s.v, &mut s.w],
        region.x.clone(),
        pool,
        #[inline(always)]
        |x, mut planes| {
            for tile in blocks(nz, region.tile_z) {
                for (y0, ylen) in blocks(region.y.len(), region.tile_y) {
                    for y in region.y.start + y0..region.y.start + y0 + ylen {
                        // Tap rows, named by the difference they feed.
                        let at = (x, y);
                        let (dxp_xx, dyp_yy) = (taps(xx, DXP, at, tile), taps(yy, DYP, at, tile));
                        let (dxm_xy, dym_xy) = (taps(xy, DXM, at, tile), taps(xy, DYM, at, tile));
                        let (dxm_xz, dym_yz) = (taps(xz, DXM, at, tile), taps(yz, DYM, at, tile));
                        let (xz_c, yz_c, zz_c) = (dxm_xz[0], dym_yz[0], tile_row(zz, at, tile));
                        let b_c = tile_row(buoyancy, at, tile);
                        let out = (y + H) * pnz + H + tile.0..(y + H) * pnz + H + tile.0 + tile.1;
                        let [ou, ov, ow] = planes.each_mut().map(|p| &mut p[out.clone()]);
                        sweep_row!(tile.1, |t, L| {
                            let i = t + H;
                            let b = L::splat(dt_dx) * L::load(&b_c[i..]);
                            let du = d_across::<L>(&dxp_xx, i)
                                + d_across::<L>(&dym_xy, i)
                                + dz::<L>(xz_c, i);
                            let dv = d_across::<L>(&dxm_xy, i)
                                + d_across::<L>(&dyp_yy, i)
                                + dz::<L>(yz_c, i);
                            let dw = d_across::<L>(&dxm_xz, i)
                                + d_across::<L>(&dym_yz, i)
                                + dz::<L>(zz_c, i + 1);
                            (L::load(&ou[t..]) + b * du).store(&mut ou[t..]);
                            (L::load(&ov[t..]) + b * dv).store(&mut ov[t..]);
                            (L::load(&ow[t..]) + b * dw).store(&mut ow[t..]);
                        });
                        if image_w && (tile.0..tile.0 + tile.1).contains(&mirrored) {
                            mirror_w(planes[2], (y + H) * pnz + H);
                        }
                    }
                }
            }
        },
    );
}

/// `dvelcx`: the central region — all x, y away from the halo strips.
pub fn dvelcx(s: &mut SolverState) {
    let (d, h) = (s.dims, H.min(s.dims.ny / 2));
    dvelc_region(s, &Region::new(0..d.nx, h..d.ny - h), false, true);
}

/// `dvelcy`: the two y-boundary strips of width `HALO_WIDTH` (computed
/// after the y halo has arrived).
pub fn dvelcy(s: &mut SolverState) {
    let (d, h) = (s.dims, H.min(s.dims.ny / 2));
    dvelc_region(s, &Region::new(0..d.nx, 0..h), false, true);
    dvelc_region(s, &Region::new(0..d.nx, d.ny - h..d.ny), false, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateOptions;
    use sw_grid::Dims3;
    use sw_model::HalfspaceModel;

    fn state() -> SolverState {
        let opts = StateOptions { sponge_width: 0, ..Default::default() };
        SolverState::from_model(
            &HalfspaceModel::hard_rock(),
            Dims3::new(10, 10, 8),
            100.0,
            (0.0, 0.0, 0.0),
            opts,
        )
    }

    #[test]
    fn zero_stress_means_zero_acceleration() {
        let mut s = state();
        dvelcx(&mut s);
        dvelcy(&mut s);
        assert_eq!(s.peak_velocity(), 0.0);
    }

    /// A uniform xx gradient accelerates u like a body force ∂xx/∂x / ρ.
    #[test]
    fn uniform_gradient_gives_uniform_acceleration() {
        let mut s = state();
        let g = 1.0e6; // Pa per grid step
        let d = s.dims;
        // fill including halo so every interior stencil sees the ramp
        for x in -2..(d.nx as isize + 2) {
            for y in -2..(d.ny as isize + 2) {
                for z in -2..(d.nz as isize + 2) {
                    s.xx.set_i(x, y, z, g * x as f32);
                }
            }
        }
        dvelcx(&mut s);
        dvelcy(&mut s);
        let expect = (s.dt / s.dx) as f32 * g / 2700.0;
        for x in 0..d.nx {
            let got = s.u.get(x, 5, 3);
            assert!((got - expect).abs() / expect < 1e-4, "u({x}) = {got} vs {expect}");
        }
        // v and w stay zero: no shear, no zz/yy
        assert_eq!(s.v.max_abs(), 0.0);
        assert_eq!(s.w.max_abs(), 0.0);
    }

    /// dvelcx + dvelcy together must equal one full-region update.
    #[test]
    fn split_kernels_cover_the_domain_once() {
        let mut a = state();
        let mut b = state();
        // random-ish stress state
        let d = a.dims;
        for (x, y, z) in d.iter() {
            let v = ((x * 7 + y * 13 + z * 29) % 17) as f32 - 8.0;
            a.xx.set(x, y, z, v);
            b.xx.set(x, y, z, v);
            a.xy.set(x, y, z, 0.5 * v);
            b.xy.set(x, y, z, 0.5 * v);
            a.yz.set(x, y, z, -0.25 * v);
            b.yz.set(x, y, z, -0.25 * v);
        }
        dvelcx(&mut a);
        dvelcy(&mut a);
        dvelc_region(&mut b, &Region::whole(d), false, true);
        assert_eq!(a.u.max_abs_diff(&b.u), 0.0);
        assert_eq!(a.v.max_abs_diff(&b.v), 0.0);
        assert_eq!(a.w.max_abs_diff(&b.w), 0.0);
    }

    /// Momentum change scales inversely with density.
    #[test]
    fn buoyancy_scaling() {
        let mut s = state();
        s.xx.set(5, 5, 3, 1.0e6);
        let mut heavy = s.clone();
        for v in heavy.rho.raw_mut() {
            *v *= 2.0;
        }
        heavy.rebuild_buoyancy();
        dvelcx(&mut s);
        dvelcx(&mut heavy);
        let a = s.u.get(5, 5, 3);
        let b = heavy.u.get(5, 5, 3);
        assert!((a - 2.0 * b).abs() <= a.abs() * 1e-5, "a={a} b={b}");
    }
}

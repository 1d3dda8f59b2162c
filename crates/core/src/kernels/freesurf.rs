//! The free-surface kernel (`fstr`).
//!
//! Stress imaging at the z = 0 plane (the surface; depth grows with z):
//! the traction components vanish on the surface and are mirrored
//! antisymmetrically into the halo above it, so the velocity stencils
//! near the surface see a traction-free boundary:
//!
//! * `σzz(0) = 0`, `σzz(−k) = −σzz(k)`;
//! * `σxz`, `σyz` (stored at `k + 1/2`): `σ(−1) = −σ(0)`, `σ(−2) = −σ(1)`;
//! * `w` (stored at `k + 1/2`) mirrors symmetrically for the `D⁺z`
//!   stencil of `σzz`.
//!
//! Fig. 7 singles this kernel out: it touches only two z-planes per
//! column, so its arithmetic density is too low to profit from the CPEs
//! (4–5× speedup instead of ~30×). The step images each field once,
//! inside a walk that is already there: the stress rows in one plane
//! walk of their own at the head of the velocity half, and `w` inside
//! `dvelc`'s plane body right after it stores the column (`mirror_w`).
//! Every halo value either writes is read back only at its own `(x, y)`
//! column.

use super::plane::for_each_plane;
use crate::state::SolverState;
use std::ops::Range;
use sw_grid::HALO_WIDTH as H;

/// Apply the free-surface condition to the stress and `w` halos — on
/// the calling thread in every mode: a pool region costs more than it
/// (EXPERIMENTS "The tail rides the stores": the stress image through
/// the pool read 1.3× the calling thread's wall at 80³ and a tie at
/// 128³).
pub fn fstr(s: &mut SolverState) {
    fstr_region(s, 0..s.dims.nx);
}

/// [`fstr`] on the columns in `x_range` only. Every halo value it writes
/// is read back only at the same `(x, y)` column, so this is exactly the
/// restriction of the full kernel — the resident slab sweeps rely on it.
pub fn fstr_region(s: &mut SolverState, x_range: Range<usize>) {
    image_region(s, x_range, true);
}

/// `fstr`'s stress rows alone (σzz, σxz, σyz) over `x_range`: the
/// velocity half's image. `w` is imaged by `dvelc` as it stores it.
pub fn fstr_stress_region(s: &mut SolverState, x_range: Range<usize>) {
    image_region(s, x_range, false);
}

/// Mirror `w` into its two free-surface halo cells — a symmetric
/// continuation for the `D⁺z` stencil of `σzz` — in a padded x-plane
/// whose surface cell of the column sits at `at`.
#[inline(always)]
pub(crate) fn mirror_w(pw: &mut [f32], at: usize) {
    pw[at - 1] = pw[at];
    pw[at - 2] = pw[at + 1];
}

/// The one imaging body: the stress rows of every column of `x_range`,
/// and `w`'s when `with_w`.
fn image_region(s: &mut SolverState, x_range: Range<usize>, with_w: bool) {
    let ny = s.dims.ny;
    let pnz = s.dims.nz + 2 * H;
    let fields = [&mut s.zz, &mut s.xz, &mut s.yz, &mut s.w];
    for_each_plane(
        fields,
        x_range,
        false,
        #[inline(always)]
        |_, [pzz, pxz, pyz, pw]| {
            for y in 0..ny {
                // padded depth `z` of this column; the surface is `H`
                let at = |z: usize| (y + H) * pnz + z;
                // zz: zero on the surface plane, antisymmetric above.
                pzz[at(H)] = 0.0;
                pzz[at(H - 1)] = -pzz[at(H + 1)];
                pzz[at(H - 2)] = -pzz[at(H + 2)];
                // xz, yz: antisymmetric about the surface (half-staggered).
                pxz[at(H - 1)] = -pxz[at(H)];
                pxz[at(H - 2)] = -pxz[at(H + 1)];
                pyz[at(H - 1)] = -pyz[at(H)];
                pyz[at(H - 2)] = -pyz[at(H + 1)];
                if with_w {
                    mirror_w(pw, at(H));
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::velocity::dvelcx;
    use crate::state::StateOptions;
    use sw_grid::Dims3;
    use sw_model::HalfspaceModel;

    fn state() -> SolverState {
        let opts = StateOptions { sponge_width: 0, attenuation: false, ..Default::default() };
        SolverState::from_model(
            &HalfspaceModel::hard_rock(),
            Dims3::new(8, 8, 10),
            100.0,
            (0.0, 0.0, 0.0),
            opts,
        )
    }

    #[test]
    fn traction_components_vanish_and_mirror() {
        let mut s = state();
        for z in 0..10 {
            s.zz.set(4, 4, z, (z + 1) as f32);
            s.xz.set(4, 4, z, 10.0 * (z + 1) as f32);
        }
        fstr(&mut s);
        assert_eq!(s.zz.get(4, 4, 0), 0.0);
        assert_eq!(s.zz.at_i(4, 4, -1), -s.zz.get(4, 4, 1));
        assert_eq!(s.zz.at_i(4, 4, -2), -s.zz.get(4, 4, 2));
        assert_eq!(s.xz.at_i(4, 4, -1), -s.xz.get(4, 4, 0));
        assert_eq!(s.xz.at_i(4, 4, -2), -s.xz.get(4, 4, 1));
    }

    /// With imaging applied, a stress state that is pure σzz below the
    /// surface accelerates the surface upward (free surface rebounds)
    /// instead of being clamped.
    #[test]
    fn surface_rebounds() {
        let mut s = state();
        // compressive zz everywhere below the first plane
        for (x, y, z) in s.dims.iter() {
            if z >= 1 {
                s.zz.set(x, y, z, -1.0e6);
            }
        }
        fstr(&mut s);
        dvelcx(&mut s);
        // w at the surface staggered point (k = 0 is z = +1/2) feels
        // D+z(zz) = zz(1) − zz(0) < 0 → downward-negative... the sign
        // depends on the convention; the essential check is that the
        // surface moves while the deep interior (uniform zz) does not.
        let surf = s.w.get(4, 4, 0).abs();
        let deep = s.w.get(4, 4, 6).abs();
        assert!(surf > 0.0, "surface must accelerate");
        assert!(deep < surf * 1e-3, "uniform interior feels no net force");
    }

    /// Without fstr the same state leaves the surface inert — the kernel
    /// is what creates the boundary behaviour.
    #[test]
    fn without_fstr_no_rebound() {
        let mut s = state();
        for (x, y, z) in s.dims.iter() {
            if z >= 1 {
                s.zz.set(x, y, z, -1.0e6);
            }
        }
        dvelcx(&mut s);
        let with_halo_zero = s.w.get(4, 4, 0).abs();
        let mut s2 = state();
        for (x, y, z) in s2.dims.iter() {
            if z >= 1 {
                s2.zz.set(x, y, z, -1.0e6);
            }
        }
        fstr(&mut s2);
        dvelcx(&mut s2);
        assert!(
            (s2.w.get(4, 4, 0) - s.w.get(4, 4, 0)).abs() > 0.0
                || with_halo_zero != s2.w.get(4, 4, 0).abs(),
            "imaging changes the surface update"
        );
    }

    /// fstr touches only the surface region: deep stresses are untouched.
    #[test]
    fn interior_untouched() {
        let mut s = state();
        for (x, y, z) in s.dims.iter() {
            s.zz.set(x, y, z, (x + y + z) as f32);
        }
        let before = s.zz.get(4, 4, 7);
        fstr(&mut s);
        assert_eq!(s.zz.get(4, 4, 7), before);
    }
}

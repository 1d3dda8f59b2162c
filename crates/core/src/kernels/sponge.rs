//! The Cerjan absorbing sponge.
//!
//! Multiplies velocity, stress, and memory variables by the damping
//! taper ([`SpongeProfile`](crate::state::SpongeProfile): 1 in the
//! interior, < 1 in the sponge bands along the five absorbing faces),
//! gradually absorbing outgoing waves so the mesh boundary does not
//! reflect them back into the region of interest. A column inside a
//! horizontal band is damped top to bottom; one outside them only over
//! the bottom band, the cells above it being multiplied by exactly 1.
//!
//! The step applies the taper where the values are stored (`taper_row`):
//! `dstrqc` tapers the memory variables as it writes them, the
//! return-mapping walk the nine wavefields of a nonlinear state. The
//! standalone pass here is left for the wavefields of an elastic state
//! ([`taper_wavefields_region`]) — the source injection sits between the
//! stress update and the taper — and for the resident engine's slab.

use super::plane::{for_each_plane, sweep_row, Lane};
use crate::state::{ArrayClass, SolverState, StateOptions};
use std::ops::Range;
use sw_compress::par::MaxAbs;
use sw_grid::HALO_WIDTH as H;

/// The wavefields, which lead [`SolverState::dynamic_mut`].
pub const WAVEFIELDS: usize = 9;

/// The stresses, which end the wavefields.
pub const STRESSES: usize = 6;

/// What a walk that stores the stresses last reports with `scale`: per
/// x-plane of its range, in ascending `x`, the max-abs of each stress's
/// interior (`xx yy zz xy xz yz`) — the scale the §6.5 codecs that
/// self-calibrate are chosen from. Folded with `f32::max` over the
/// planes, each is [`sw_compress::par::fields_max_abs`] of the stored
/// field, bit for bit.
pub type PlaneMaxima = Vec<[f32; STRESSES]>;

/// Arrays one whole sponge damps: the nine wavefields, then the memory
/// variables when the options carry them (they trail the wavefields in
/// [`SolverState::dynamic_mut`]).
pub fn damped_arrays(options: &StateOptions) -> usize {
    options.arrays().filter(|(_, class)| *class != ArrayClass::Material).count()
}

/// Multiply `row` by the factors `damp`, element by element: the taper of
/// one column's band, in whichever pass stores the row.
#[inline(always)]
pub(crate) fn taper_row(row: &mut [f32], damp: &[f32]) {
    let row = &mut row[..damp.len()];
    sweep_row!(damp.len(), |t, L| {
        (L::load(&row[t..]) * L::load(&damp[t..])).store(&mut row[t..]);
    });
}

/// Apply the sponge to all dynamic fields.
pub fn apply_sponge(s: &mut SolverState) {
    apply_sponge_region(s, 0..s.dims.nx, false);
}

/// Apply the sponge to every dynamic field over the columns of
/// `x_range`, planes walked by the pool or the caller.
pub fn apply_sponge_region(s: &mut SolverState, x_range: Range<usize>, pool: bool) {
    let damped = damped_arrays(&s.options);
    taper_region(s, damped, x_range, pool, false);
}

/// The sponge over the nine wavefields alone: the standalone pass of an
/// elastic state's step, whose memory variables `dstrqc` tapers. With
/// `scale` it is the stresses' last store, and it also returns their
/// [`PlaneMaxima`], read from each full stress row after its band is
/// damped — it then walks the planes even without a sponge.
pub fn taper_wavefields_region(
    s: &mut SolverState,
    x_range: Range<usize>,
    pool: bool,
    scale: bool,
) -> Option<PlaneMaxima> {
    taper_region(s, WAVEFIELDS, x_range, pool, scale)
}

/// Taper the first `arrays` dynamic fields over the columns of `x_range`;
/// with `scale`, return the stresses' max-abs per plane.
fn taper_region(
    s: &mut SolverState,
    arrays: usize,
    x_range: Range<usize>,
    pool: bool,
    scale: bool,
) -> Option<PlaneMaxima> {
    let d = s.dims;
    let damped = s.options.sponge_width > 0;
    if !damped && !scale {
        return None;
    }
    let pnz = d.nz + 2 * H;
    let profile = s.sponge.clone();
    let per_plane = for_each_plane(
        s.dynamic_mut(),
        x_range,
        pool,
        #[inline(always)]
        |x, mut planes| {
            let mut max = [MaxAbs::default(); STRESSES];
            for y in 0..d.ny {
                let base = (y + H) * pnz + H;
                if damped {
                    let (z0, damp) = profile.column(x, y);
                    for plane in &mut planes[..arrays] {
                        taper_row(&mut plane[base + z0..], damp);
                    }
                }
                if scale {
                    for (m, plane) in max.iter_mut().zip(&planes[WAVEFIELDS - STRESSES..]) {
                        m.row(&plane[base..base + d.nz]);
                    }
                }
            }
            max.map(MaxAbs::get)
        },
    );
    scale.then_some(per_plane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateOptions;
    use sw_grid::Dims3;
    use sw_model::HalfspaceModel;

    fn state(width: usize) -> SolverState {
        let opts = StateOptions { sponge_width: width, ..Default::default() };
        SolverState::from_model(
            &HalfspaceModel::hard_rock(),
            Dims3::new(16, 16, 16),
            100.0,
            (0.0, 0.0, 0.0),
            opts,
        )
    }

    #[test]
    fn sponge_damps_boundary_preserves_center() {
        let mut s = state(4);
        for (x, y, z) in s.dims.iter() {
            s.u.set(x, y, z, 1.0);
        }
        apply_sponge(&mut s);
        assert!(s.u.get(0, 8, 8) < 1.0, "edge damped");
        assert_eq!(s.u.get(8, 8, 8), 1.0, "center untouched");
        // repeated application decays monotonically
        let e1 = s.u.get(0, 8, 8);
        apply_sponge(&mut s);
        assert!(s.u.get(0, 8, 8) < e1);
    }

    #[test]
    fn free_surface_is_not_damped() {
        let mut s = state(4);
        for (x, y, z) in s.dims.iter() {
            s.w.set(x, y, z, 1.0);
        }
        apply_sponge(&mut s);
        // z = 0 at the horizontal center: no damping from the z axis…
        assert_eq!(s.w.get(8, 8, 0), 1.0);
        // …but the bottom absorbs.
        assert!(s.w.get(8, 8, 15) < 1.0);
    }

    #[test]
    fn an_elastic_state_damps_the_nine_wavefields() {
        let elastic = StateOptions { attenuation: false, ..Default::default() };
        assert_eq!(damped_arrays(&elastic) as f64, crate::flops::SPONGE_FLOPS);
        assert_eq!(damped_arrays(&StateOptions::default()), 15);
        let plastic = StateOptions { nonlinear: true, ..elastic };
        assert_eq!(damped_arrays(&plastic), 9);
    }

    #[test]
    fn zero_width_is_a_noop() {
        let mut s = state(0);
        for (x, y, z) in s.dims.iter() {
            s.xx.set(x, y, z, 3.0);
        }
        apply_sponge(&mut s);
        assert_eq!(s.xx.get(0, 0, 15), 3.0);
    }
}

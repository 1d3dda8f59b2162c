//! The paper's kernel set (§7.2), each written once.
//!
//! * [`velocity`] — `dvelcx` / `dvelcy`: the velocity updates (central
//!   region and y-halo strips, so halo traffic overlaps the centre);
//! * [`stress`] — `dstrqc`: stress update + attenuation memory variables;
//! * [`freesurf`] — `fstr`: the stress-imaging free surface;
//! * [`plastic`] — `drprecpc_calc` / `drprecpc_app`: Drucker–Prager
//!   plasticity (paper eqs. 3–4);
//! * [`source`] — `addsrc`; [`sponge`] — the Cerjan absorbing boundary;
//! * [`plane`] — what they share: the [`Region`] a kernel covers, the
//!   iterator that hands its x-planes to the calling thread or the pool
//!   (MPE vs the 64-CPE pool, §6.2), and the lane type of the row loops.
//!
//! A bare kernel name (`dstrqc`) covers the whole mesh on the calling
//! thread, `*_par` through the pool, and `*_region` takes the box and the
//! choice. All run the same body and produce the same bits
//! (`tests/kernel_matrix.rs`, against `tests/oracle/kernels.rs`).
//!
//! The bare names keep the paper's one-kernel contracts. The step calls
//! the region forms that also carry its tail (DESIGN "The tail rides the
//! stores"): `fstr_stress_region` images the stresses, `dvelc_region`
//! images `w` as it stores it, `dstrqc_region` tapers `r` given a
//! profile, and `drprecpc_region` walks yield factors, return mapping
//! and the wavefields' taper column by column. The walk that stores the
//! stresses last (`drprecpc_region`, or `taper_wavefields_region` on an
//! elastic state) also returns their max-abs per plane when the §6.5
//! codecs ask for it (DESIGN "The round trip's neighbours ride it").

pub mod freesurf;
pub mod plane;
pub mod plastic;
pub mod source;
pub mod sponge;
pub mod stress;
pub mod velocity;

/// `fstr_par` is `fstr`: it has no pool form, the name is kept for callers.
pub use freesurf::{fstr, fstr as fstr_par, fstr_region, fstr_stress_region};
pub use plane::Region;
pub use plastic::{
    drprecpc_app, drprecpc_app_region, drprecpc_calc, drprecpc_calc_region, drprecpc_region,
};
pub use source::addsrc;
pub use sponge::{apply_sponge, apply_sponge_region, taper_wavefields_region, PlaneMaxima};
pub use stress::{dstrqc, dstrqc_region};
pub use velocity::{dvelc_region, dvelcx, dvelcy};

use crate::state::SolverState;

/// Pool-iterated velocity update (`dvelcx` + `dvelcy` in one pass).
pub fn dvelc_par(s: &mut SolverState) {
    dvelc_region(s, &Region::whole(s.dims), true, true);
}

/// Pool-iterated `dstrqc`.
pub fn dstrqc_par(s: &mut SolverState) {
    dstrqc_region(s, &Region::whole(s.dims), true, None);
}

/// Pool-iterated `drprecpc_calc`.
pub fn drprecpc_calc_par(s: &mut SolverState) -> usize {
    drprecpc_calc_region(s, 0..s.dims.nx, true)
}

/// Pool-iterated `drprecpc_app`.
pub fn drprecpc_app_par(s: &mut SolverState) {
    drprecpc_app_region(s, 0..s.dims.nx, true);
}

/// Pool-iterated Cerjan sponge.
pub fn apply_sponge_par(s: &mut SolverState) {
    apply_sponge_region(s, 0..s.dims.nx, true);
}

/// Benchmark compatibility only: the names `bench_e2e` links from when
/// lanes were a separate copy. Drop at its re-baseline (ROADMAP item 5).
pub mod simd {
    pub use super::{
        apply_sponge_par as apply_sponge_simd, drprecpc_app_par as drprecpc_app_simd,
        drprecpc_calc_par as drprecpc_calc_simd, dstrqc_par as dstrqc_simd,
        dvelc_par as dvelc_simd, fstr_par as fstr_simd,
    };
}

//! The full simulation state, and the one list of its arrays.
//!
//! §3 of the paper counts the arrays: a linear run needs 28 3-D arrays,
//! the nonlinear Drucker–Prager run over 35 — "which almost increase 25 %
//! of both the memory capacity and memory bandwidth". This module owns
//! those arrays and is the only one that knows which exist:
//! [`SolverState::blank`] allocates what the options' physics uses — the
//! nine wavefields and four material arrays always, the six attenuation
//! memory variables and two Q weights with attenuation, the seven
//! plasticity arrays (cohesion, friction angle, fluid pressure, initial
//! mean stress, yield factor, accumulated plastic strain) with
//! plasticity — and leaves the rest [`Field3::detached`], which own no
//! storage and panic on any element access. [`SolverState::arrays`] names
//! the allocated ones; memory gauges, checkpoint field sets, the resident
//! slab and the §3 accounting read that list instead of keeping their
//! own. The Cerjan taper is not an array: it is a function of a cell's
//! distance to the nearest absorbing face, tabulated in [`SpongeProfile`].

use crate::staggered::stable_dt;
use std::sync::Arc;
use sw_grid::{Dims3, Field3, HALO_WIDTH, PHASE_TURN};
use sw_model::VelocityModel;

/// Plasticity configuration (the depth-dependent Drucker–Prager inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlasticityConfig {
    /// Cohesion at the surface, Pa.
    pub cohesion_surface: f32,
    /// Cohesion gradient with depth, Pa/m.
    pub cohesion_gradient: f32,
    /// Friction angle, degrees.
    pub friction_angle_deg: f32,
    /// Pore-fluid pressure as a fraction of lithostatic stress.
    pub fluid_pressure_ratio: f32,
}

impl Default for PlasticityConfig {
    fn default() -> Self {
        Self {
            cohesion_surface: 5.0e6,
            cohesion_gradient: 500.0,
            friction_angle_deg: 35.0,
            fluid_pressure_ratio: 0.4,
        }
    }
}

/// Options controlling which physics a state carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateOptions {
    /// Enable the attenuation memory variables.
    pub attenuation: bool,
    /// Enable Drucker–Prager plasticity.
    pub nonlinear: bool,
    /// Reference frequency for the attenuation mechanism, Hz.
    pub reference_frequency: f64,
    /// Cerjan sponge width in grid points.
    pub sponge_width: usize,
    /// Plasticity parameters.
    pub plasticity: PlasticityConfig,
    /// Multiplier on the CFL-stable timestep. 1.0 (the default) runs at
    /// the stable `dt`; values above 1.0 deliberately violate the CFL
    /// bound (the health watchdog's unstable-scenario knob).
    pub dt_scale: f64,
    /// For a rank-local subdomain: the global extents and this
    /// subdomain's (x, y) offset, so the sponge profile is computed in
    /// global coordinates and multi-rank runs match single-rank runs
    /// bit for bit.
    pub global_span: Option<(Dims3, usize, usize)>,
}

impl Default for StateOptions {
    fn default() -> Self {
        Self {
            attenuation: true,
            nonlinear: false,
            reference_frequency: 1.0,
            sponge_width: 10,
            plasticity: PlasticityConfig::default(),
            dt_scale: 1.0,
            global_span: None,
        }
    }
}

/// What an array is to a step — who advances it, and which memory gauge
/// and checkpoint set it falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayClass {
    /// `u v w xx yy zz xy xz yz`: advanced by the stencils, exchanged
    /// between ranks, stored 16-bit by the codecs.
    Wavefield,
    /// `r1..r6`: advanced with the stresses when attenuation is on.
    MemoryVariable,
    /// Read pointwise: the media parameters, the Q weights and the
    /// plasticity set (of which the plasticity kernels write `yldfac`,
    /// every step, and `eqp`, the one a checkpoint carries).
    Material,
}

/// Whether a state built with the options carries a group of arrays.
type Wanted = fn(&StateOptions) -> bool;

/// Every array a state can carry, grouped by class and by the physics
/// that calls for it, in [`SolverState::arrays`] order (the first fifteen
/// are [`RESIDENT_FIELDS`](crate::resident::RESIDENT_FIELDS)).
const ARRAYS: [(&[&str], ArrayClass, Wanted); 5] = [
    (&["u", "v", "w", "xx", "yy", "zz", "xy", "xz", "yz"], ArrayClass::Wavefield, |_| true),
    (&["r1", "r2", "r3", "r4", "r5", "r6"], ArrayClass::MemoryVariable, |o| o.attenuation),
    // `rho` stays beside `buoyancy`: `kinetic_energy` reads it.
    (&["lam", "mu", "rho", "buoyancy"], ArrayClass::Material, |_| true),
    (&["wp", "ws"], ArrayClass::Material, |o| o.attenuation),
    (&["cohes", "sinphi", "cosphi", "pf", "sigma0", "yldfac", "eqp"], ArrayClass::Material, |o| {
        o.nonlinear
    }),
];

/// Bytes between the L1 phases of consecutive slots of [`ARRAYS`]: slot
/// `i`'s array starts `i × PHASE_STRIDE` bytes past a [`PHASE_TURN`]
/// boundary, so the 28 slots spread over one turn and no two arrays a
/// kernel streams at one cell index share an L1 set there (DESIGN.md,
/// "Array placement").
const PHASE_STRIDE: usize = 144;

/// Bytes between the pages of consecutive slots inside the L2's set span
/// (2 MiB, 16 ways: 128 KiB). An array on huge pages starts
/// `i × (PAGE_STRIDE + PHASE_STRIDE)` past a [`HUGE_PAGE`](sw_grid::HUGE_PAGE) boundary, so
/// its L2 set index is its slot's own; on small pages the kernel picks
/// each page's frame and the stride does nothing.
const PAGE_STRIDE: usize = 4096;

/// Bytes of the L2's set span: the address bits below it pick the set.
const L2_SET_SPAN: usize = 128 << 10;

const _: () = {
    let (mut slots, mut group) = (0, 0);
    while group < ARRAYS.len() {
        slots += ARRAYS[group].0.len();
        group += 1;
    }
    assert!(slots * PHASE_STRIDE <= PHASE_TURN, "two slots would share a phase");
    assert!(PAGE_STRIDE.is_multiple_of(PHASE_TURN), "the page stride moves the L1 phase");
    assert!(slots * (PAGE_STRIDE + PHASE_STRIDE) <= L2_SET_SPAN, "two slots would share a page");
};

/// The placement of the array named `name`: its slot in [`ARRAYS`] ×
/// (`PAGE_STRIDE` + `PHASE_STRIDE`), the bytes its origin sits past a
/// [`HUGE_PAGE`](sw_grid::HUGE_PAGE) boundary ([`Field3::at_phase`]); modulo [`PHASE_TURN`]
/// that is slot × `PHASE_STRIDE`.
pub fn phase(name: &str) -> usize {
    let slot = rows().position(|(n, _, _)| n == name).expect("an array of the list");
    slot * (PAGE_STRIDE + PHASE_STRIDE)
}

/// [`ARRAYS`], one row per array.
fn rows() -> impl Iterator<Item = (&'static str, ArrayClass, Wanted)> {
    let groups = ARRAYS.iter();
    groups.flat_map(|&(names, class, wanted)| names.iter().map(move |&name| (name, class, wanted)))
}

impl StateOptions {
    /// Name and class of every array a state built with these options
    /// allocates: 13 always, 8 more with attenuation, 7 more with
    /// plasticity.
    pub fn arrays(self) -> impl Iterator<Item = (&'static str, ArrayClass)> {
        rows().filter(move |(_, _, wanted)| wanted(&self)).map(|(name, class, _)| (name, class))
    }
}

/// The Cerjan taper as a table. The factor at a cell depends only on its
/// distance to the nearest of the five absorbing faces (z = 0 is the free
/// surface): `min(h, nz − 1 − z)`, `h` being the horizontal distance of
/// its column. One row of `nz` factors per `h` below `sponge_width` that
/// the global mesh has, and one shared row for every column further in,
/// whose factors are 1.0 above the bottom band — the kernel skips those
/// (`x · 1.0` is the identity on every value a step stores; none is
/// subnormal, which `tests/fpenv.rs` pins). Rows are indexed in global
/// coordinates, so rank pieces and resident tiles agree with the
/// single-rank run bit for bit, and the table's size is bounded by the
/// mesh whatever the width.
#[derive(Debug, Clone)]
pub struct SpongeProfile {
    /// `bands` rows for `h = 0..bands`, then the shared row.
    taper: Arc<[f32]>,
    nz: usize,
    bands: usize,
    /// First cell of the shared row that is below 1.0.
    z0: usize,
    /// Global `(nx, ny)`, and this piece's offset in it.
    global: (usize, usize),
    offset: (usize, usize),
}

impl SpongeProfile {
    fn new(dims: Dims3, options: &StateOptions) -> Self {
        let n = options.sponge_width;
        let alpha = 0.095f32; // classic Cerjan decay constant
        let (global, x_off, y_off) = options.global_span.unwrap_or((dims, 0, 0));
        let factor = |dist: usize| -> f32 {
            if dist >= n {
                1.0
            } else {
                let a = alpha * (n - dist) as f32 / n as f32;
                (-a * a * 10.0).exp()
            }
        };
        let bands = n.min(global.nx.min(global.ny).div_ceil(2));
        // The last row: every column at least `n` from the four sides.
        let taper = (0..bands)
            .chain([usize::MAX])
            .flat_map(|h| (0..dims.nz).map(move |z| factor(h.min(global.nz - 1 - z))))
            .collect();
        Self {
            taper,
            nz: dims.nz,
            bands,
            z0: global.nz.saturating_sub(n).min(dims.nz),
            global: (global.nx, global.ny),
            offset: (x_off, y_off),
        }
    }

    /// The cells of local column `(x, y)` the sponge changes: the first
    /// one's `z` and the factors from there down to the bottom.
    #[inline]
    pub fn column(&self, x: usize, y: usize) -> (usize, &[f32]) {
        let (gx, gy) = (x + self.offset.0, y + self.offset.1);
        let h = gx.min(self.global.0 - 1 - gx).min(gy.min(self.global.1 - 1 - gy));
        let z0 = if h < self.bands { 0 } else { self.z0 };
        (z0, &self.taper[h.min(self.bands) * self.nz + z0..][..self.nz - z0])
    }

    /// Cells of a `dims` piece the sponge changes: its columns' lengths
    /// summed. A grid's pieces add up to the whole mesh's count.
    pub fn damped_cells(&self, dims: Dims3) -> u64 {
        let mut cells = 0;
        for x in 0..dims.nx {
            for y in 0..dims.ny {
                cells += self.column(x, y).1.len() as u64;
            }
        }
        cells
    }

    /// Factors tabulated: `nz` per row, a row per horizontal distance the
    /// global mesh has below the width, and the shared one.
    pub fn factors(&self) -> usize {
        self.taper.len()
    }

    /// The same table seen from a piece `x` columns further along — a
    /// resident tile of this (sub)domain.
    pub(crate) fn shifted(&self, x: usize) -> Self {
        Self { offset: (self.offset.0 + x, self.offset.1), ..self.clone() }
    }
}

/// All simulation arrays for one (sub)domain.
#[derive(Debug, Clone)]
pub struct SolverState {
    /// Interior extents.
    pub dims: Dims3,
    /// Grid spacing, m.
    pub dx: f64,
    /// Time step actually used, s (`dt_stable × options.dt_scale`).
    pub dt: f64,
    /// CFL-stable time step for this grid and model, s.
    pub dt_stable: f64,
    /// Velocity x (stored at `(i+1/2, j, k)`).
    pub u: Field3,
    /// Velocity y (at `(i, j+1/2, k)`).
    pub v: Field3,
    /// Velocity z (at `(i, j, k+1/2)`).
    pub w: Field3,
    /// Normal stress xx (at integer points).
    pub xx: Field3,
    /// Normal stress yy.
    pub yy: Field3,
    /// Normal stress zz.
    pub zz: Field3,
    /// Shear stress xy (at `(i+1/2, j+1/2, k)`).
    pub xy: Field3,
    /// Shear stress xz (at `(i+1/2, j, k+1/2)`).
    pub xz: Field3,
    /// Shear stress yz (at `(i, j+1/2, k+1/2)`).
    pub yz: Field3,
    /// Attenuation memory variables, one per stress component (detached
    /// without attenuation, as are `wp` and `ws`).
    pub r: [Field3; 6],
    /// Lamé λ, Pa.
    pub lam: Field3,
    /// Shear modulus μ, Pa.
    pub mu: Field3,
    /// Density, kg/m³.
    pub rho: Field3,
    /// Reciprocal density `1/ρ`, 1/(kg/m³) — precomputed so the velocity
    /// update multiplies instead of dividing per cell. Kept in exact sync
    /// with `rho` by [`Self::from_model`]; code that rescales `rho` must
    /// rescale this too (or call [`Self::rebuild_buoyancy`]).
    pub buoyancy: Field3,
    /// P attenuation weight `1/Qp`.
    pub wp: Field3,
    /// S attenuation weight `1/Qs`.
    pub ws: Field3,
    /// Cohesion, Pa (this and the six below: nonlinear only, detached
    /// otherwise).
    pub cohes: Field3,
    /// sin of the friction angle.
    pub sinphi: Field3,
    /// cos of the friction angle.
    pub cosphi: Field3,
    /// Pore-fluid pressure, Pa.
    pub pf: Field3,
    /// Initial (lithostatic, effective) mean stress, Pa (negative in
    /// compression).
    pub sigma0: Field3,
    /// Yield factor of the last plasticity pass (1 = elastic).
    pub yldfac: Field3,
    /// Accumulated plastic strain.
    pub eqp: Field3,
    /// Cerjan damping profile (multiplies velocity and stress).
    pub sponge: SpongeProfile,
    /// Attenuation relaxation time, s.
    pub tau: f64,
    /// Options this state was built with.
    pub options: StateOptions,
}

impl SolverState {
    /// A state with zeroed arrays (`yldfac` at 1, elastic): exactly the
    /// ones `options` call for ([`StateOptions::arrays`]), each at its
    /// slot's [`phase`]; the others are detached. The one allocator of a
    /// state: [`Self::from_model`], rank pieces and the resident slab
    /// start here.
    pub fn blank(dims: Dims3, dx: f64, dt: f64, dt_stable: f64, options: StateOptions) -> Self {
        let f = |name: &str| match options.arrays().find(|(wanted, _)| *wanted == name) {
            Some(_) => Field3::at_phase(dims, HALO_WIDTH, phase(name)),
            None => Field3::detached(dims, HALO_WIDTH),
        };
        let mut state = Self {
            dims,
            dx,
            dt,
            dt_stable,
            u: f("u"),
            v: f("v"),
            w: f("w"),
            xx: f("xx"),
            yy: f("yy"),
            zz: f("zz"),
            xy: f("xy"),
            xz: f("xz"),
            yz: f("yz"),
            r: ["r1", "r2", "r3", "r4", "r5", "r6"].map(f),
            lam: f("lam"),
            mu: f("mu"),
            rho: f("rho"),
            buoyancy: f("buoyancy"),
            wp: f("wp"),
            ws: f("ws"),
            cohes: f("cohes"),
            sinphi: f("sinphi"),
            cosphi: f("cosphi"),
            pf: f("pf"),
            sigma0: f("sigma0"),
            yldfac: f("yldfac"),
            eqp: f("eqp"),
            sponge: SpongeProfile::new(dims, &options),
            tau: 1.0 / (2.0 * std::f64::consts::PI * options.reference_frequency),
            options,
        };
        state.yldfac.raw_mut().fill(1.0);
        state
    }

    /// Build a state from a velocity model. `origin` is the physical
    /// position (m) of grid index (0, 0, 0); depth = `origin.2 + z·dx`.
    pub fn from_model(
        model: &dyn VelocityModel,
        dims: Dims3,
        dx: f64,
        origin: (f64, f64, f64),
        options: StateOptions,
    ) -> Self {
        let dt_stable = stable_dt(dx, model.vp_max() as f64);
        let mut state = Self::blank(dims, dx, dt_stable * options.dt_scale, dt_stable, options);
        let p = options.plasticity;
        let (sp, cp) = p.friction_angle_deg.to_radians().sin_cos();
        for x in 0..dims.nx {
            for y in 0..dims.ny {
                for z in 0..dims.nz {
                    let depth = origin.2 + (z as f64 + 0.5) * dx;
                    let m = model.sample(
                        origin.0 + (x as f64 + 0.5) * dx,
                        origin.1 + (y as f64 + 0.5) * dx,
                        depth,
                    );
                    state.lam.set(x, y, z, m.lambda());
                    state.mu.set(x, y, z, m.mu());
                    state.rho.set(x, y, z, m.rho);
                    state.buoyancy.set(x, y, z, 1.0 / m.rho);
                    if options.attenuation {
                        state.wp.set(x, y, z, 1.0 / m.qp);
                        state.ws.set(x, y, z, 1.0 / m.qs);
                    }
                    if options.nonlinear {
                        let depth = depth as f32;
                        let litho = -(m.rho - 1000.0) * 9.81 * depth; // effective, compressive < 0
                        state.cohes.set(x, y, z, p.cohesion_surface + p.cohesion_gradient * depth);
                        state.sinphi.set(x, y, z, sp);
                        state.cosphi.set(x, y, z, cp);
                        state.pf.set(x, y, z, -litho * p.fluid_pressure_ratio);
                        state.sigma0.set(x, y, z, litho);
                    }
                }
            }
        }
        state
    }

    /// The allocated arrays — name, class, field — in one fixed order:
    /// the only enumeration of a state's arrays there is. A detached
    /// array (one the options rule out, or one the resident engine has
    /// taken over 16-bit) is not listed.
    pub fn arrays(&self) -> impl Iterator<Item = (&'static str, ArrayClass, &Field3)> {
        let Self { lam, mu, rho, buoyancy, wp, ws, cohes, sinphi, cosphi, pf, .. } = self;
        let Self { sigma0, yldfac, eqp, .. } = self;
        let material =
            [lam, mu, rho, buoyancy, wp, ws, cohes, sinphi, cosphi, pf, sigma0, yldfac, eqp];
        let fields = self.dynamic().into_iter().chain(material);
        rows().zip(fields).filter(|(_, f)| !f.is_detached()).map(|((n, c, _), f)| (n, c, f))
    }

    /// The first allocated array that does not sit at its slot's
    /// [`phase`]: `None` for a state [`Self::blank`] built, and for its
    /// clones (a [`Field3`] clone keeps its placement).
    pub fn misplaced(&self) -> Option<&'static str> {
        self.arrays().find(|&(name, _, f)| !f.sits_at(phase(name))).map(|(name, ..)| name)
    }

    /// Number of 3-D arrays the state carries (the §3 accounting).
    pub fn array_count(&self) -> usize {
        self.arrays().count()
    }

    /// Recompute `buoyancy = 1/ρ` from the current density field — for
    /// code (tests, experiments) that edits `rho` after construction.
    pub fn rebuild_buoyancy(&mut self) {
        for (b, &r) in self.buoyancy.raw_mut().iter_mut().zip(self.rho.raw()) {
            *b = if r != 0.0 { 1.0 / r } else { 0.0 };
        }
    }

    /// The fifteen dynamic fields in
    /// [`RESIDENT_FIELDS`](crate::resident::RESIDENT_FIELDS) order: the
    /// nine wavefields ([`COMPRESSED_FIELDS`](crate::driver::COMPRESSED_FIELDS)),
    /// then the six attenuation memory variables (detached without
    /// attenuation).
    pub fn dynamic(&self) -> [&Field3; 15] {
        let [r1, r2, r3, r4, r5, r6] = &self.r;
        [
            &self.u, &self.v, &self.w, &self.xx, &self.yy, &self.zz, &self.xy, &self.xz, &self.yz,
            r1, r2, r3, r4, r5, r6,
        ]
    }

    /// [`Self::dynamic`], mutably.
    pub fn dynamic_mut(&mut self) -> [&mut Field3; 15] {
        let Self { u, v, w, xx, yy, zz, xy, xz, yz, r: [r1, r2, r3, r4, r5, r6], .. } = self;
        [u, v, w, xx, yy, zz, xy, xz, yz, r1, r2, r3, r4, r5, r6]
    }

    /// Kinetic energy of one x-plane's interior (before the cell-volume
    /// factor): the reduction unit of [`Self::kinetic_energy`].
    fn kinetic_energy_plane(&self, x: usize) -> f64 {
        let mut e = 0.0f64;
        for y in 0..self.dims.ny {
            let rows = [&self.u, &self.v, &self.w].map(|f| f.row(x, y));
            kinetic_energy_row(rows, self.rho.row(x, y), &mut e);
        }
        e
    }

    /// Kinetic energy of the interior, J (cell volume × ½ρv²).
    ///
    /// Accumulated as one f64 partial per x-plane, folded in plane
    /// order — the order the health probe folds its plane partials in on
    /// either exec path (`health::fold_probe`), so health records don't
    /// depend on the `ExecMode` (`tests/exec_equivalence.rs`, health axis).
    pub fn kinetic_energy(&self) -> f64 {
        let vol = self.dx * self.dx * self.dx;
        (0..self.dims.nx).map(|x| self.kinetic_energy_plane(x)).sum::<f64>() * vol
    }

    /// Strain energy of one x-plane's interior (before the cell-volume
    /// factor), cell by cell in z order within each row, rows in y order.
    fn strain_energy_plane(&self, x: usize) -> f64 {
        let mut e = 0.0f64;
        for y in 0..self.dims.ny {
            let stress = [&self.xx, &self.yy, &self.zz, &self.xy, &self.xz, &self.yz];
            let [xx, yy, zz, xy, xz, yz] = stress.map(|f| f.row(x, y));
            let (lam, mu) = (self.lam.row(x, y), self.mu.row(x, y));
            for z in 0..self.dims.nz {
                let (l, m) = (f64::from(lam[z]), f64::from(mu[z]));
                if m <= 0.0 {
                    continue;
                }
                let normal = [xx[z], yy[z], zz[z]].map(f64::from);
                let shear = [xy[z], xz[z], yz[z]].map(f64::from);
                let trace: f64 = normal.iter().sum();
                let contracted = normal.iter().map(|s| s * s).sum::<f64>()
                    + 2.0 * shear.iter().map(|s| s * s).sum::<f64>();
                e += (contracted - l / (3.0 * l + 2.0 * m) * trace * trace) / (4.0 * m);
            }
        }
        e
    }

    /// Strain energy of the interior, J: cell volume × ½σ:C⁻¹σ, with the
    /// λ and μ the stress update applies at each cell — for the isotropic
    /// compliance, (σ:σ − λ/(3λ + 2μ)·(tr σ)²)/(4μ). Accumulated as one
    /// f64 partial per x-plane, folded in plane order like
    /// [`Self::kinetic_energy`]; a cell without rigidity (μ = 0) holds
    /// none.
    pub fn strain_energy(&self) -> f64 {
        let vol = self.dx * self.dx * self.dx;
        (0..self.dims.nx).map(|x| self.strain_energy_plane(x)).sum::<f64>() * vol
    }

    /// Largest absolute velocity anywhere (NaN-free sanity probe).
    pub fn peak_velocity(&self) -> f32 {
        self.u.max_abs().max(self.v.max_abs()).max(self.w.max_abs())
    }

    /// True when any velocity component has gone non-finite. (`max_abs`
    /// cannot be used here: `f32::max` ignores NaN operands.)
    pub fn has_blown_up(&self) -> bool {
        [&self.u, &self.v, &self.w].iter().any(|f| f.raw().iter().any(|v| !v.is_finite()))
    }
}

/// Add one row's ½ρv² to `e`, cell by cell in z order (per cell volume):
/// the kinetic-energy reduction's one accumulation order, shared by
/// [`SolverState::kinetic_energy`] and the health probe's plane walk.
/// The terms of a run of cells are computed first, a loop the lanes
/// take, and then added in order: the sum is one chain of dependent
/// adds, and it no longer waits on the arithmetic that feeds it.
#[inline(always)]
pub(crate) fn kinetic_energy_row([us, vs, ws]: [&[f32]; 3], rs: &[f32], e: &mut f64) {
    const RUN: usize = 64;
    let mut terms = [0.0f64; RUN];
    let n = rs.len();
    let (us, vs, ws) = (&us[..n], &vs[..n], &ws[..n]);
    for z0 in (0..n).step_by(RUN) {
        let run = &mut terms[..RUN.min(n - z0)];
        for (k, term) in run.iter_mut().enumerate() {
            let z = z0 + k;
            let v2 = (us[z] * us[z] + vs[z] * vs[z] + ws[z] * ws[z]) as f64;
            *term = 0.5 * rs[z] as f64 * v2;
        }
        for &term in &*run {
            *e += term;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resident::RESIDENT_FIELDS;
    use sw_model::HalfspaceModel;

    fn state(nonlinear: bool) -> SolverState {
        let model = HalfspaceModel::hard_rock();
        let options = StateOptions { nonlinear, ..Default::default() };
        SolverState::from_model(&model, Dims3::new(12, 10, 8), 100.0, (0.0, 0.0, 0.0), options)
    }

    #[test]
    fn array_count_matches_paper_scaling() {
        let lin = state(false);
        let nl = state(true);
        let (n_lin, n_nl) = (lin.arrays().count(), nl.arrays().count());
        assert_eq!((n_lin, n_nl), (21, 28));
        assert_eq!((lin.array_count(), nl.array_count()), (n_lin, n_nl));
        // §3: moving to nonlinear adds ~25 % more arrays.
        let ratio = n_nl as f64 / n_lin as f64;
        assert!((1.15..1.45).contains(&ratio), "array ratio {ratio}");
        // What the options promise is what is allocated, in one order.
        let names = |s: &SolverState| s.arrays().map(|(n, c, _)| (n, c)).collect::<Vec<_>>();
        assert_eq!(names(&lin), lin.options.arrays().collect::<Vec<_>>());
        assert_eq!(names(&nl), nl.options.arrays().collect::<Vec<_>>());
        assert_eq!(names(&nl)[..15].iter().map(|a| a.0).collect::<Vec<_>>(), RESIDENT_FIELDS);
    }

    #[test]
    fn material_fields_are_sampled() {
        let s = state(false);
        let m = sw_model::Material::hard_rock();
        assert!((s.mu.get(3, 3, 3) - m.mu()).abs() / m.mu() < 1e-6);
        assert!((s.lam.get(3, 3, 3) - m.lambda()).abs() / m.lambda() < 1e-6);
        assert_eq!(s.rho.get(0, 0, 0), 2700.0);
        assert_eq!(s.buoyancy.get(0, 0, 0), 1.0 / 2700.0);
        assert!((s.wp.get(0, 0, 0) - 1.0 / 800.0).abs() < 1e-9);
    }

    #[test]
    fn rebuild_buoyancy_tracks_density_edits() {
        let mut s = state(false);
        for v in s.rho.raw_mut() {
            *v *= 2.0;
        }
        s.rebuild_buoyancy();
        assert_eq!(s.buoyancy.get(3, 3, 3), 1.0 / 5400.0);
        // Halo density is zero; buoyancy must not become inf there.
        assert_eq!(s.buoyancy.at_i(-1, 0, 0), 0.0);
    }

    #[test]
    fn cfl_dt_is_stable_range() {
        let s = state(false);
        assert!(s.dt > 0.0 && s.dt < 100.0 / 6000.0, "dt {} s", s.dt);
    }

    #[test]
    fn lithostatic_prestress_grows_with_depth() {
        let s = state(true);
        let shallow = s.sigma0.get(0, 0, 0);
        let deep = s.sigma0.get(0, 0, 7);
        assert!(shallow < 0.0, "compression is negative");
        assert!(deep < shallow, "more compression at depth");
        assert!(s.pf.get(0, 0, 7) > 0.0, "pore pressure positive");
        assert!(s.cohes.get(0, 0, 7) > s.cohes.get(0, 0, 0));
    }

    #[test]
    fn sponge_damps_edges_not_interior_or_surface() {
        let s = state(false);
        let factor = |x, y, z: usize| {
            let (z0, taper) = s.sponge.column(x, y);
            z.checked_sub(z0).map_or(1.0, |i| taper[i])
        };
        // Interior of a small grid is inside the sponge reach, so use the
        // relative ordering instead of absolute 1.0.
        let corner = factor(0, 5, 7);
        let center = factor(6, 5, 1);
        assert!(corner < center, "edges damp harder: {corner} vs {center}");
        // free surface (z = 0) is not damped by the z criterion
        assert!(factor(6, 5, 0) >= corner);
    }

    #[test]
    fn sponge_table_is_bounded_by_the_mesh_not_the_width() {
        let options = StateOptions { sponge_width: usize::MAX / 2, ..Default::default() };
        let profile = SpongeProfile::new(Dims3::new(8, 6, 5), &options);
        // Three distinct distances on the 6-wide axis, and the shared row.
        assert_eq!(profile.factors(), (3 + 1) * 5);
        assert_eq!(profile.column(4, 3), (0, &profile.taper[2 * 5..3 * 5]));
    }

    #[test]
    fn energy_and_blowup_probes() {
        let mut s = state(false);
        assert_eq!(s.kinetic_energy(), 0.0);
        s.u.set(3, 3, 3, 2.0);
        let e = s.kinetic_energy();
        // ½ · 2700 · 4 · (100 m)³
        assert!((e - 0.5 * 2700.0 * 4.0 * 1.0e6).abs() / e < 1e-6);
        assert!(!s.has_blown_up());
        s.v.set(0, 0, 0, f32::NAN);
        assert!(s.has_blown_up());
    }

    #[test]
    fn linear_state_skips_plasticity_arrays() {
        let s = state(false);
        for f in [&s.cohes, &s.sinphi, &s.cosphi, &s.pf, &s.sigma0, &s.yldfac, &s.eqp] {
            assert!(f.is_detached() && f.resident_bytes() == 0);
        }
        // where plasticity runs, yldfac starts elastic everywhere
        assert_eq!(state(true).yldfac.get(3, 3, 3), 1.0);
    }
}

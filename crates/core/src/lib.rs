//! `swquake-core` — the paper's primary contribution: a nonlinear
//! staggered-grid finite-difference earthquake simulator in the AWP-ODC
//! lineage, redesigned around the Sunway memory schemes of §6.
//!
//! The solver integrates the velocity–stress formulation (paper eqs. 1–2)
//! with 4th-order staggered differences in space and leapfrog in time,
//! coarse-grained anelastic attenuation (the r1..r6 memory variables of
//! Fig. 5), Drucker–Prager plasticity (eqs. 3–4), a stress-imaging free
//! surface and Cerjan absorbing boundaries.
//!
//! * [`staggered`] — the 4th-order staggered difference operators
//!   (c₁ = 9/8, c₂ = −1/24) and CFL bound;
//! * [`state`] — the full simulation state: the 28 (linear) / 35+
//!   (nonlinear) 3-D arrays of §3, built from any `sw-model` velocity
//!   model;
//! * [`kernels`] — the paper's kernel set: `dvelcx`/`dvelcy` (velocity),
//!   `dstrqc` (stress + attenuation), `fstr` (free surface),
//!   `drprecpc_calc`/`drprecpc_app` (plasticity), `addsrc` (source
//!   injection), and the Cerjan sponge;
//! * [`flops`] — §7.1-convention flop accounting;
//! * [`driver`] — the per-rank timestep driver with recorders, restart
//!   control and on-the-fly compression;
//! * [`health`] — the in-situ simulation-health monitor: per-step field
//!   probes, the stability watchdog, and the compression error budget;
//! * [`exec`] — execution modes: serial reference kernels vs the Rayon
//!   CPE-pool analogue (bit-identical; §6.2's "never compute on the
//!   MPE" as a host-side switch);
//! * [`resident`] — compressed-resident wavefields: the dynamic arrays
//!   live as 16-bit planes and each phase streams column tiles through a
//!   small f32 slab, so scenarios bigger than RAM still run;
//! * [`framework`] — the unified workflow of Fig. 3 (rupture → partition
//!   → interpolate → propagate → record);
//! * [`hazard`] — PGV → Chinese seismic intensity hazard maps
//!   (Fig. 11e–f);
//! * [`sunway`] — execution of a kernel through the simulated SW26010
//!   memory hierarchy (LDM windows + DMA + register-communication halos),
//!   bit-identical to the plain kernel while charging hardware costs.

pub mod driver;
pub mod error;
pub mod exec;
pub mod flops;
pub mod framework;
pub mod hazard;
pub mod health;
pub mod kernels;
pub mod resident;
pub mod staggered;
pub mod state;
pub mod sunway;

pub use driver::{MultiRankOutput, ResumeInfo, SimConfig, Simulation};
pub use error::{ConfigError, KilledError, RestoreError, RunError, UnstableError};
pub use exec::{simd_compiled, ExecMode, ExecPath};
pub use framework::UnifiedFramework;
pub use resident::ResidentMode;
pub use state::SolverState;

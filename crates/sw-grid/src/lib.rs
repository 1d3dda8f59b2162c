//! Flat 3-D field arrays and decomposition geometry for `swquake`.
//!
//! This crate provides the storage layer shared by every other subsystem of
//! the SC17 TaihuLight earthquake-simulation reproduction:
//!
//! * [`Dims3`] — grid extents with the paper's axis convention (§6.3):
//!   **z is the fastest axis**, y second, x slowest;
//! * [`Field3`] — a single scalar field with a stencil halo;
//! * [`simd`] — the fixed-width `f32` lane type the stencil kernels
//!   compute in, and `wide`, the run-time dispatch that compiles every
//!   lane loop for the instruction-set tier the host has;
//! * [`tile`] — the multi-level blocking geometry of Fig. 4 (MPI partition →
//!   core-group block → Athread region → LDM window);
//! * [`halo`] — pack/unpack of halo faces for inter-rank exchange;
//! * [`fpenv`] — the flush-to-zero floating-point environment every
//!   thread that runs kernel code computes in;
//! * [`hugepage`] — transparent huge pages under every field that fills
//!   one.

pub mod array3;
pub mod dims;
pub mod fpenv;
pub mod halo;
pub mod hugepage;
pub mod simd;
pub mod tile;

pub use array3::{Array3, Field3, PHASE_TURN};
pub use dims::{Dims3, Idx3};
pub use halo::{Face, HaloSpec};
pub use hugepage::HUGE_PAGE;
pub use tile::{AthreadLayout, CgBlock, LdmWindow, TileIter};

/// Stencil halo width used throughout: the solver is 4th-order in space,
/// which needs two points on each side (the paper's `H = 2`).
pub const HALO_WIDTH: usize = 2;

//! Flat 3-D field arrays and decomposition geometry for `swquake`.
//!
//! This crate provides the storage layer shared by every other subsystem of
//! the SC17 TaihuLight earthquake-simulation reproduction:
//!
//! * [`Dims3`] — grid extents with the paper's axis convention (§6.3):
//!   **z is the fastest axis**, y second, x slowest;
//! * [`Field3`] — a single scalar field with a stencil halo;
//! * [`Vec3Field`] / [`Vec6Field`] — the *fused* array-of-structures fields of
//!   §6.4 (velocity fused into 3-vectors, stress and memory variables into
//!   6-vectors) that raise the DMA block size;
//! * [`tile`] — the multi-level blocking geometry of Fig. 4 (MPI partition →
//!   core-group block → Athread region → LDM window);
//! * [`halo`] — pack/unpack of halo faces for inter-rank exchange;
//! * [`fpenv`] — the flush-to-zero floating-point environment every
//!   thread that runs kernel code computes in.

pub mod array3;
pub mod dims;
pub mod fpenv;
pub mod fused;
pub mod halo;
#[cfg(feature = "simd")]
pub mod simd;
pub mod tile;

pub use array3::{Array3, Field3};
pub use dims::{Dims3, Idx3};
pub use fused::{Vec3Field, Vec6Field};
pub use halo::{Face, HaloSpec};
pub use tile::{AthreadLayout, CgBlock, LdmWindow, TileIter};

/// Stencil halo width used throughout: the solver is 4th-order in space,
/// which needs two points on each side (the paper's `H = 2`).
pub const HALO_WIDTH: usize = 2;

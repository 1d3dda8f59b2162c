//! What every kernel is written against.
//!
//! A kernel is a *plane body*: given an interior column `x` and that
//! column's padded planes of the fields it writes, it updates rows of
//! the planes, reading any other field through `&Field3`. It writes
//! nothing else, so [`for_each_plane`] may run bodies in any order on any
//! thread: "execution mode" only says who walks the planes.
//!
//! Inside a row the body is generic over [`Lane`]: [`sweep_row!`] runs
//! it at [`F32x8`] for the main run and at `f32` (width 1) for the tail.
//! Both evaluate the scalar reference's expression tree per element
//! (`tests/oracle/kernels.rs`), no FMA: every path computes the same bits.
//!
//! What an `F32x8` operation compiles to is decided per call of a plane
//! body: [`for_each_plane`] makes that call through
//! [`sw_grid::simd::wide`], on the thread that runs the plane, so the
//! body — an `#[inline(always)]` closure, as are the lane operators
//! under it — is compiled once per lane tier (8-way unrolled scalar and
//! SSE2 code at the x86-64 baseline, one 256-bit instruction per lane
//! operation under AVX2 / AVX-512) and the host's best tier runs. A
//! kernel written as a plain closure or calling a non-inlined helper in
//! its row loop still works; it just stays baseline code
//! (`bench_step_exec`'s `wide_over_baseline` records and CI's
//! disassembly check are there to notice).

use crate::staggered::{C1, C2};
use rayon::prelude::*;
use std::ops::{Add, Mul, Range, Sub};
use sw_grid::simd::wide;
pub(crate) use sw_grid::simd::{F32x8, LANES};
use sw_grid::{Dims3, Field3, HALO_WIDTH};

/// z extent of a cache tile: ~30 tap rows × 512 × 4 B ≈ 60 KB sits in
/// L2 with room for the write streams.
pub const TILE_Z: usize = 512;
/// y extent of a cache tile: bounds how far apart its y-tap rows lie.
pub const TILE_Y: usize = 32;

/// The sub-box a stencil kernel updates (full z) and the y–z tiles it
/// walks each x-plane in. Cells are independent within a pass, so tiling
/// only reorders visits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Interior columns along x.
    pub x: Range<usize>,
    /// Interior columns along y.
    pub y: Range<usize>,
    /// y extent of a tile.
    pub tile_y: usize,
    /// z extent of a tile.
    pub tile_z: usize,
}

impl Region {
    /// `x × y` with the default tiles.
    pub fn new(x: Range<usize>, y: Range<usize>) -> Self {
        Self { x, y, tile_y: TILE_Y, tile_z: TILE_Z }
    }

    /// The whole interior of a `dims` mesh.
    pub fn whole(dims: Dims3) -> Self {
        Self::new(0..dims.nx, 0..dims.ny)
    }
}

/// Call `body(x, planes)` once per interior column `x` of `x_range`,
/// `planes[i]` being the padded x-plane of `fields[i]` there — empty for
/// a detached field, which the body then must not index: on the
/// calling thread in ascending `x`, or — with `pool` — as one pool region
/// in which each participant walks a contiguous slab of `x` upwards
/// (handing a CG block's sub-blocks to the CPE threads, §6.2). What the
/// bodies return comes back in ascending `x` either way.
pub(crate) fn for_each_plane<const N: usize, R: Send>(
    fields: [&mut Field3; N],
    x_range: Range<usize>,
    pool: bool,
    body: impl Fn(usize, [&mut [f32]; N]) -> R + Sync,
) -> Vec<R> {
    let mut streams = fields.map(|f| {
        let (len, detached) = (f.plane_len(), f.is_detached());
        (detached, f.raw_mut().chunks_mut(len).skip(HALO_WIDTH + x_range.start))
    });
    let planes_of = |x| {
        let planes = streams.each_mut().map(|(detached, s)| {
            let absent = || detached.then(Default::default);
            s.next().or_else(absent).expect("x_range lies inside the mesh")
        });
        (x, planes)
    };
    // `wide` goes around each call, on the thread that makes it: what it
    // selects does not carry over to a pool helper.
    let run = |(x, planes)| {
        wide(
            #[inline(always)]
            || body(x, planes),
        )
    };
    if pool {
        let planes: Vec<_> = x_range.map(planes_of).collect();
        planes.into_par_iter().map(run).collect()
    } else {
        x_range.map(planes_of).map(run).collect()
    }
}

/// The element type a row body computes in: `f32` itself or a fixed-width
/// vector of them with element-wise arithmetic.
pub(crate) trait Lane:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self>
{
    fn splat(v: f32) -> Self;
    /// From / into the leading elements of a slice.
    fn load(s: &[f32]) -> Self;
    fn store(self, out: &mut [f32]);
}

impl Lane for f32 {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        v
    }
    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        s[0]
    }
    #[inline(always)]
    fn store(self, out: &mut [f32]) {
        out[0] = self;
    }
}

impl Lane for F32x8 {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        F32x8::splat(v)
    }
    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        F32x8::load(s)
    }
    #[inline(always)]
    fn store(self, out: &mut [f32]) {
        F32x8::store(self, out)
    }
}

/// Run a row body over `0..$len`: `$t` advances by whole vectors with
/// `$L = F32x8`, then element by element with `$L = f32` — the same
/// block at another width, so no kernel has a separately written tail.
macro_rules! sweep_row {
    ($len:expr, |$t:ident, $L:ident| $body:block) => {{
        let mut $t = 0;
        {
            type $L = $crate::kernels::plane::F32x8;
            while $t + $crate::kernels::plane::LANES <= $len {
                $body
                $t += $crate::kernels::plane::LANES;
            }
        }
        type $L = f32;
        while $t < $len {
            $body
            $t += 1;
        }
    }};
}
pub(crate) use sweep_row;

/// The four z-tile rows one 4th-order staggered difference across x or y
/// combines, in the order [`d_across`] reads them. Each is halo-extended
/// ([`Field3::row_tile`]): tile-local `z` sits at index `z + HALO_WIDTH`.
pub(crate) type Taps<'a> = [&'a [f32]; 4];

/// Column offsets `(dx, dy)` of the tap rows of `D⁺` along x —
/// `c₁ (f[+1] − f[0]) + c₂ (f[+2] − f[−1])`, the column itself is row 1 —
/// of `D⁻` along x — `c₁ (f[0] − f[−1]) + c₂ (f[+1] − f[−2])`, the column
/// itself is row 0 — and of the same two along y.
pub(crate) const DXP: [(isize, isize); 4] = [(1, 0), (0, 0), (2, 0), (-1, 0)];
pub(crate) const DXM: [(isize, isize); 4] = [(0, 0), (-1, 0), (1, 0), (-2, 0)];
pub(crate) const DYP: [(isize, isize); 4] = [(0, 1), (0, 0), (0, 2), (0, -1)];
pub(crate) const DYM: [(isize, isize); 4] = [(0, 0), (0, -1), (0, 1), (0, -2)];

/// The halo-extended row of `f` at column `(x, y)` over z-tile `(z0, len)`.
#[inline(always)]
pub(crate) fn tile_row(f: &Field3, (x, y): (usize, usize), (z0, len): (usize, usize)) -> &[f32] {
    f.row_tile(x as isize, y as isize, z0, len)
}

/// The tap rows of one difference pattern around column `(x, y)`. An array
/// literal: through `array::map` `dvelc` measures a quarter slower.
#[inline(always)]
pub(crate) fn taps(
    f: &Field3,
    [a, b, c, d]: [(isize, isize); 4],
    (x, y): (usize, usize),
    (z0, len): (usize, usize),
) -> Taps<'_> {
    let (x, y) = (x as isize, y as isize);
    [
        f.row_tile(x + a.0, y + a.1, z0, len),
        f.row_tile(x + b.0, y + b.1, z0, len),
        f.row_tile(x + c.0, y + c.1, z0, len),
        f.row_tile(x + d.0, y + d.1, z0, len),
    ]
}

/// `C1·(a[i] − b[i]) + C2·(c[i] − d[i])` across four tap rows (along x or
/// y) at row index `i`.
#[inline(always)]
pub(crate) fn d_across<L: Lane>([a, b, c, d]: &Taps, i: usize) -> L {
    L::splat(C1) * (L::load(&a[i..]) - L::load(&b[i..]))
        + L::splat(C2) * (L::load(&c[i..]) - L::load(&d[i..]))
}

/// `D⁻` along z at row index `i`: shifted loads from one halo-extended
/// row. `D⁺` at `i` is the same difference one cell on, `dz(r, i + 1)`.
#[inline(always)]
pub(crate) fn dz<L: Lane>(r: &[f32], i: usize) -> L {
    L::splat(C1) * (L::load(&r[i..]) - L::load(&r[i - 1..]))
        + L::splat(C2) * (L::load(&r[i + 1..]) - L::load(&r[i - 2..]))
}

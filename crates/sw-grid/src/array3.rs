//! Scalar 3-D fields with stencil halos.
//!
//! A [`Field3`] owns an `(nx+2h) × (ny+2h) × (nz+2h)` allocation where `h` is
//! the halo width; interior indices run over `0..nx` etc. and map to padded
//! coordinates by adding `h`. Negative-offset stencil taps therefore never
//! need bounds branches in the hot loops — they stay inside the allocation.

use crate::dims::{Dims3, Idx3};
use crate::hugepage::{self, HUGE_PAGE};

/// A generic 3-D array without a halo, z fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct Array3<T> {
    dims: Dims3,
    data: Vec<T>,
}

impl<T: Clone + Default> Array3<T> {
    /// Allocate with `T::default()` everywhere.
    pub fn new(dims: Dims3) -> Self {
        Self { dims, data: vec![T::default(); dims.len()] }
    }
}

impl<T> Array3<T> {
    /// Build from an existing flat vector; `data.len()` must equal `dims.len()`.
    pub fn from_vec(dims: Dims3, data: Vec<T>) -> Self {
        assert_eq!(data.len(), dims.len(), "flat length must match dims");
        Self { dims, data }
    }

    /// Grid extents.
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// Flat read-only view in memory order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable view in memory order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the flat vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Immutable element access.
    #[inline(always)]
    pub fn at(&self, x: usize, y: usize, z: usize) -> &T {
        &self.data[self.dims.offset(x, y, z)]
    }

    /// Mutable element access.
    #[inline(always)]
    pub fn at_mut(&mut self, x: usize, y: usize, z: usize) -> &mut T {
        let o = self.dims.offset(x, y, z);
        &mut self.data[o]
    }

    /// Map every element, producing a new array.
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> Array3<U> {
        Array3 { dims: self.dims, data: self.data.iter().map(f).collect() }
    }
}

impl<T> std::ops::Index<Idx3> for Array3<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (x, y, z): Idx3) -> &T {
        self.at(x, y, z)
    }
}

impl<T> std::ops::IndexMut<Idx3> for Array3<T> {
    #[inline(always)]
    fn index_mut(&mut self, (x, y, z): Idx3) -> &mut T {
        self.at_mut(x, y, z)
    }
}

/// Bytes of one cache phase turn: a [`Field3`]'s origin can sit at any
/// 4-byte phase modulo this, the page size and the span of L1 set indices.
pub const PHASE_TURN: usize = 4096;

/// The turn a field of `padded` extents is placed in: a [`HUGE_PAGE`] when
/// it fills one (its store is advised onto huge pages), else one
/// [`PHASE_TURN`]. A function of the dims alone, as the slack is.
fn turn(padded: Dims3) -> usize {
    match padded.len() * std::mem::size_of::<f32>() >= HUGE_PAGE {
        true => HUGE_PAGE,
        false => PHASE_TURN,
    }
}

/// Elements of slack a live [`Field3`] allocates beyond its padded length,
/// so its origin can be moved to any phase of its turn: one turn for a
/// small field; two for a large one, whose origin sits inside the first
/// whole huge page of the allocation.
fn slack(padded: Dims3) -> usize {
    let bytes = match turn(padded) {
        HUGE_PAGE => 2 * HUGE_PAGE,
        small => small,
    };
    bytes / std::mem::size_of::<f32>()
}

/// A single-precision scalar field with a halo of width `h` on every side.
///
/// Interior coordinates are `0..nx` × `0..ny` × `0..nz`; the backing store is
/// padded so that stencil taps up to `h` points outside the interior are
/// plain loads. All simulation state in the paper (velocity, stress,
/// material, attenuation memory variables, plasticity arrays — the "over 35
/// 3-D arrays" of the nonlinear case) is stored in fields of this shape.
///
/// The store is allocated [`slack`] elements longer than the padded field
/// (calloc'd, so the untouched slack costs no page) and the field starts
/// `lead` elements in, at the phase [`Self::at_phase`] was asked for; every
/// accessor sees the padded field only. The allocation's size depends on
/// the dims alone. A field of at least one [`HUGE_PAGE`] has the whole
/// huge pages of its store (lead and field) advised onto transparent huge
/// pages ([`crate::hugepage`]).
#[derive(Debug)]
pub struct Field3 {
    interior: Dims3,
    padded: Dims3,
    halo: usize,
    /// Offset of the padded origin in `store`, which is truncated to end
    /// at the field's last element (the slack stays in its capacity).
    lead: usize,
    store: Vec<f32>,
}

impl Clone for Field3 {
    /// A copy at the same placement. A small field's copy is written
    /// once (the new store is not zeroed first); a large field's starts
    /// as calloc memory, so its lead — up to 2 MiB — is never written and
    /// costs no page.
    fn clone(&self) -> Self {
        if self.store.is_empty() {
            return Self::detached(self.interior, self.halo);
        }
        if turn(self.padded) == HUGE_PAGE {
            let mut copy = Self::at_phase(self.interior, self.halo, self.phase());
            copy.raw_mut().copy_from_slice(self.raw());
            return copy;
        }
        let mut store = Vec::with_capacity(self.store.capacity());
        let lead = lead_for(&store, self.phase(), PHASE_TURN);
        store.resize(lead, 0.0);
        store.extend_from_slice(self.raw());
        Self { lead, store, ..*self }
    }
}

/// Elements from the start of `store`'s allocation to the origin at
/// `phase` of a `turn`: the first address at `phase` modulo a
/// [`PHASE_TURN`], or `phase` past the allocation's first [`HUGE_PAGE`]
/// boundary.
fn lead_for(store: &[f32], phase: usize, turn: usize) -> usize {
    let start = store.as_ptr() as usize;
    let origin = match turn {
        HUGE_PAGE => start.next_multiple_of(HUGE_PAGE) + phase,
        _ => start + (phase + PHASE_TURN - start % PHASE_TURN) % PHASE_TURN,
    };
    (origin - start) / std::mem::size_of::<f32>()
}

impl PartialEq for Field3 {
    /// Same shape and same padded values; where the field sits does not
    /// matter.
    fn eq(&self, other: &Self) -> bool {
        (self.interior, self.padded, self.halo) == (other.interior, other.padded, other.halo)
            && self.raw() == other.raw()
    }
}

impl Field3 {
    /// Allocate a zero-filled field with interior `dims` and halo width `halo`
    /// (at cache phase 0).
    pub fn new(dims: Dims3, halo: usize) -> Self {
        Self::at_phase(dims, halo, 0)
    }

    /// Allocate a zero-filled field whose padded origin sits `phase` bytes
    /// past a [`HUGE_PAGE`] boundary if the field fills a huge page, and
    /// `phase` modulo [`PHASE_TURN`] past a page boundary if not; the
    /// phase modulo [`PHASE_TURN`] is the same either way. Arrays read at
    /// the same cell index in one loop want distinct phases: at a shared
    /// one, cell `(x, y, z)` of every array maps to the same L1 set, and
    /// on huge pages to the same L2 set.
    pub fn at_phase(dims: Dims3, halo: usize, phase: usize) -> Self {
        let size = std::mem::size_of::<f32>();
        assert!(
            phase < HUGE_PAGE && phase.is_multiple_of(size),
            "phase {phase} is not a 4-byte phase of a huge page"
        );
        let padded = dims.padded(halo);
        let mut store = vec![0.0f32; padded.len() + slack(padded)];
        let turn = turn(padded);
        let lead = lead_for(&store, phase % turn, turn);
        store.truncate(lead + padded.len());
        if turn == HUGE_PAGE {
            hugepage::advise(&store);
        }
        Self { interior: dims, padded, halo, lead, store }
    }

    /// Allocate filled with `value`.
    pub fn filled(dims: Dims3, halo: usize, value: f32) -> Self {
        let mut f = Self::new(dims, halo);
        f.raw_mut().fill(value);
        f
    }

    /// Where the padded origin sits: its address modulo [`HUGE_PAGE`] for
    /// a field that fills a huge page, modulo [`PHASE_TURN`] otherwise.
    pub fn phase(&self) -> usize {
        self.raw().as_ptr() as usize % turn(self.padded)
    }

    /// Whether the origin sits where [`Self::at_phase`] puts it for
    /// `phase`.
    pub fn sits_at(&self, phase: usize) -> bool {
        self.phase() == phase % turn(self.padded)
    }

    /// Interior extents (excluding halo).
    pub fn dims(&self) -> Dims3 {
        self.interior
    }

    /// Extents of the padded allocation.
    pub fn padded_dims(&self) -> Dims3 {
        self.padded
    }

    /// Halo width on each side.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Bytes resident in the padded allocation (halo included) — the
    /// working-set gauge the run timeline reports per field.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.raw())
    }

    /// Linear offset into the padded field for interior coords (may be
    /// negative-side halo when `x` etc. come in as signed via `at_i`);
    /// the element sits at `lead` plus this in `store`.
    #[inline(always)]
    fn off(&self, x: usize, y: usize, z: usize) -> usize {
        self.padded.offset(x + self.halo, y + self.halo, z + self.halo)
    }

    /// Read an interior (or halo, via signed coords) value.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        self.store[self.lead + self.off(x, y, z)]
    }

    /// Write an interior value.
    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f32) {
        let o = self.lead + self.off(x, y, z);
        self.store[o] = v;
    }

    /// Signed-coordinate read reaching into the halo: `x ∈ -h .. nx+h-1`.
    #[inline(always)]
    pub fn at_i(&self, x: isize, y: isize, z: isize) -> f32 {
        let h = self.halo as isize;
        debug_assert!(x >= -h && y >= -h && z >= -h);
        let o = self.padded.offset((x + h) as usize, (y + h) as usize, (z + h) as usize);
        self.store[self.lead + o]
    }

    /// Signed-coordinate write reaching into the halo.
    #[inline(always)]
    pub fn set_i(&mut self, x: isize, y: isize, z: isize, v: f32) {
        let h = self.halo as isize;
        debug_assert!(x >= -h && y >= -h && z >= -h);
        let o =
            self.lead + self.padded.offset((x + h) as usize, (y + h) as usize, (z + h) as usize);
        self.store[o] = v;
    }

    /// Raw padded storage (memory order, includes halo).
    #[inline(always)]
    pub fn raw(&self) -> &[f32] {
        &self.store[self.lead..]
    }

    /// Raw padded storage, mutable.
    #[inline(always)]
    pub fn raw_mut(&mut self) -> &mut [f32] {
        &mut self.store[self.lead..]
    }

    /// The contiguous interior row (length `nz`) at `(x, y, 0..nz)` — the
    /// one blessed way to get at contiguous lanes for plane scans,
    /// reductions, and vectorized kernels.
    #[inline]
    pub fn row(&self, x: usize, y: usize) -> &[f32] {
        debug_assert!(x < self.interior.nx && y < self.interior.ny);
        let o = self.lead + self.off(x, y, 0);
        &self.store[o..o + self.interior.nz]
    }

    /// Mutable contiguous interior row at `(x, y, 0..nz)`.
    #[inline]
    pub fn row_mut(&mut self, x: usize, y: usize) -> &mut [f32] {
        debug_assert!(x < self.interior.nx && y < self.interior.ny);
        let o = self.lead + self.off(x, y, 0);
        let nz = self.interior.nz;
        &mut self.store[o..o + nz]
    }

    /// Halo-extended row at signed `(x, y)`: spans `z ∈ [-h, nz+h)` so a
    /// z-stencil of radius ≤ `h` taps it without branches. Interior `z`
    /// maps to slice index `z + halo`.
    #[inline]
    pub fn row_halo(&self, x: isize, y: isize) -> &[f32] {
        let h = self.halo as isize;
        debug_assert!(x >= -h && y >= -h);
        debug_assert!(x < self.interior.nx as isize + h && y < self.interior.ny as isize + h);
        let o = self.lead + self.padded.offset((x + h) as usize, (y + h) as usize, 0);
        &self.store[o..o + self.padded.nz]
    }

    /// Per-tile halo-aware slice: the z-tile `[z0, z0+len)` of the row at
    /// signed `(x, y)`, extended by the halo on both sides so every
    /// z-stencil tap of the tile is a plain load. The returned slice spans
    /// `z ∈ [z0-h, z0+len+h)`; tile-local `z` maps to index `z - z0 + halo`.
    #[inline]
    pub fn row_tile(&self, x: isize, y: isize, z0: usize, len: usize) -> &[f32] {
        debug_assert!(z0 + len <= self.interior.nz);
        let row = self.row_halo(x, y);
        &row[z0..z0 + len + 2 * self.halo]
    }

    /// Mutable interior z-tile `[z0, z0+len)` of the row at `(x, y)` (no
    /// halo extension — writes stay inside the tile).
    #[inline]
    pub fn row_tile_mut(&mut self, x: usize, y: usize, z0: usize, len: usize) -> &mut [f32] {
        debug_assert!(z0 + len <= self.interior.nz);
        let o = self.lead + self.off(x, y, z0);
        &mut self.store[o..o + len]
    }

    /// A detached placeholder: records the shape of a field whose payload
    /// lives elsewhere (e.g. in a compressed-resident store) but owns no
    /// f32 storage — `resident_bytes()` is 0 and any element access panics
    /// loudly instead of returning stale zeros.
    pub fn detached(dims: Dims3, halo: usize) -> Self {
        Self { interior: dims, padded: dims.padded(halo), halo, lead: 0, store: Vec::new() }
    }

    /// Whether this field is a detached placeholder (no storage).
    pub fn is_detached(&self) -> bool {
        self.store.is_empty() && !self.padded.is_empty()
    }

    /// Values per padded x-plane (`padded.ny * padded.nz`).
    #[inline]
    pub fn plane_len(&self) -> usize {
        self.padded.ny * self.padded.nz
    }

    /// The contiguous padded x-plane `p ∈ 0..padded.nx` (y/z halos
    /// included) — the streaming unit of the compressed-resident store.
    /// Interior plane `x` is padded plane `x + halo`.
    #[inline]
    pub fn plane(&self, p: usize) -> &[f32] {
        debug_assert!(p < self.padded.nx);
        let (len, o) = (self.plane_len(), self.lead);
        &self.store[o + p * len..o + (p + 1) * len]
    }

    /// Mutable contiguous padded x-plane `p`.
    #[inline]
    pub fn plane_mut(&mut self, p: usize) -> &mut [f32] {
        debug_assert!(p < self.padded.nx);
        let (len, o) = (self.plane_len(), self.lead);
        &mut self.store[o + p * len..o + (p + 1) * len]
    }

    /// Copy `n` padded x-planes from `src` (starting at `src_p`) into this
    /// field (starting at `dst_p`). Both fields must share `ny`, `nz`, and
    /// halo width — the slab-window copy of the resident step loop, which
    /// moves material planes into a narrow working set without touching
    /// per-element indexing.
    pub fn copy_planes_from(&mut self, src: &Field3, src_p: usize, dst_p: usize, n: usize) {
        assert_eq!(self.plane_len(), src.plane_len(), "plane shapes must match");
        assert!(src_p + n <= src.padded.nx && dst_p + n <= self.padded.nx);
        let len = self.plane_len();
        self.raw_mut()[dst_p * len..(dst_p + n) * len]
            .copy_from_slice(&src.raw()[src_p * len..(src_p + n) * len]);
    }

    /// Fill interior from a closure over interior coordinates.
    pub fn fill_with(&mut self, f: impl Fn(usize, usize, usize) -> f32) {
        let d = self.interior;
        for (x, y, z) in d.iter() {
            self.set(x, y, z, f(x, y, z));
        }
    }

    /// Copy the interior into a compact (halo-free) vector in memory order.
    pub fn interior_to_vec(&self) -> Vec<f32> {
        let d = self.interior;
        let mut out = Vec::with_capacity(d.len());
        for x in 0..d.nx {
            for y in 0..d.ny {
                out.extend_from_slice(self.row(x, y));
            }
        }
        out
    }

    /// Overwrite the interior from a compact vector in memory order.
    pub fn interior_from_slice(&mut self, src: &[f32]) {
        let d = self.interior;
        assert_eq!(src.len(), d.len());
        for x in 0..d.nx {
            for y in 0..d.ny {
                let o = (x * d.ny + y) * d.nz;
                self.row_mut(x, y).copy_from_slice(&src[o..o + d.nz]);
            }
        }
    }

    /// Maximum absolute interior value (`f32::max` skips NaN and reports
    /// ±Inf). Folded per row, then over the row maxima: a fold that starts
    /// fresh on each contiguous row vectorizes, one carried across rows
    /// does not.
    pub fn max_abs(&self) -> f32 {
        let d = self.interior;
        let mut m = 0.0f32;
        for x in 0..d.nx {
            for y in 0..d.ny {
                m = m.max(self.row(x, y).iter().fold(0.0f32, |r, &v| r.max(v.abs())));
            }
        }
        m
    }

    /// Interior (min, max).
    pub fn min_max(&self) -> (f32, f32) {
        let d = self.interior;
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for x in 0..d.nx {
            for y in 0..d.ny {
                for &v in self.row(x, y) {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
        }
        (lo, hi)
    }

    /// Sum of squared interior values (used by the energy-decay tests).
    pub fn norm2(&self) -> f64 {
        let d = self.interior;
        let mut s = 0.0f64;
        for x in 0..d.nx {
            for y in 0..d.ny {
                for &v in self.row(x, y) {
                    s += (v as f64) * (v as f64);
                }
            }
        }
        s
    }

    /// Maximum absolute interior difference to another same-shape field.
    pub fn max_abs_diff(&self, other: &Field3) -> f32 {
        assert_eq!(self.interior, other.interior);
        let d = self.interior;
        let mut m = 0.0f32;
        for x in 0..d.nx {
            for y in 0..d.ny {
                for (a, b) in self.row(x, y).iter().zip(other.row(x, y)) {
                    m = m.max((a - b).abs());
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_bytes_counts_the_padded_allocation() {
        let f = Field3::new(Dims3::new(3, 3, 3), 2);
        assert_eq!(f.resident_bytes(), 7 * 7 * 7 * 4);
    }

    #[test]
    fn halo_padding_is_invisible_to_interior() {
        let mut f = Field3::new(Dims3::new(3, 3, 3), 2);
        f.set(0, 0, 0, 1.0);
        f.set(2, 2, 2, 2.0);
        assert_eq!(f.get(0, 0, 0), 1.0);
        assert_eq!(f.get(2, 2, 2), 2.0);
        // halo starts zeroed
        assert_eq!(f.at_i(-1, 0, 0), 0.0);
        assert_eq!(f.at_i(3, 2, 2), 0.0);
    }

    #[test]
    fn signed_access_reaches_halo() {
        let mut f = Field3::new(Dims3::cube(2), 2);
        f.set_i(-2, -2, -2, 7.0);
        assert_eq!(f.at_i(-2, -2, -2), 7.0);
        f.set_i(3, 3, 3, 8.0);
        assert_eq!(f.at_i(3, 3, 3), 8.0);
    }

    #[test]
    fn row_is_contiguous_interior() {
        let mut f = Field3::new(Dims3::new(2, 2, 4), 1);
        for z in 0..4 {
            f.set(1, 1, z, z as f32);
        }
        assert_eq!(f.row(1, 1), &[0.0, 1.0, 2.0, 3.0]);
        f.row_mut(1, 1)[2] = 9.0;
        assert_eq!(f.get(1, 1, 2), 9.0);
    }

    #[test]
    fn row_halo_spans_both_halos() {
        let mut f = Field3::new(Dims3::new(3, 3, 4), 2);
        f.set_i(1, 1, -2, -2.0);
        f.set_i(1, 1, -1, -1.0);
        for z in 0..4 {
            f.set(1, 1, z, z as f32);
        }
        f.set_i(1, 1, 4, 40.0);
        f.set_i(1, 1, 5, 50.0);
        assert_eq!(f.row_halo(1, 1), &[-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 40.0, 50.0]);
        // Signed (x, y) reaches rows inside the x/y halo.
        assert_eq!(f.row_halo(-1, 1).len(), 8);
    }

    #[test]
    fn row_tile_is_halo_extended_window() {
        let mut f = Field3::new(Dims3::new(2, 2, 8), 2);
        for z in 0..8 {
            f.set(0, 0, z, 10.0 + z as f32);
        }
        // Tile [2, 6): slice spans z ∈ [0, 8) of the interior here because
        // the halo extension folds in z = 0, 1 and z = 6, 7.
        let t = f.row_tile(0, 0, 2, 4);
        assert_eq!(t.len(), 4 + 4);
        assert_eq!(t[2], 12.0, "tile-local z=0 is interior z=2");
        // A tile starting at z=0 reaches into the lower halo (zeros).
        let lo = f.row_tile(0, 0, 0, 4);
        assert_eq!(&lo[..2], &[0.0, 0.0]);
        assert_eq!(lo[2], 10.0);
    }

    #[test]
    fn row_tile_mut_writes_interior_only() {
        let mut f = Field3::new(Dims3::new(2, 2, 8), 2);
        f.row_tile_mut(1, 1, 4, 3).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(f.get(1, 1, 4), 1.0);
        assert_eq!(f.get(1, 1, 6), 3.0);
        assert_eq!(f.get(1, 1, 3), 0.0);
        assert_eq!(f.get(1, 1, 7), 0.0);
    }

    #[test]
    fn planes_are_contiguous_padded_slabs() {
        let d = Dims3::new(3, 2, 4);
        let mut f = Field3::new(d, 2);
        f.fill_with(|x, y, z| (x * 100 + y * 10 + z) as f32 + 1.0);
        // Interior x=1 lives in padded plane 3.
        let p = f.plane(1 + 2);
        assert_eq!(p.len(), f.plane_len());
        assert_eq!(p.len(), (2 + 4) * (4 + 4));
        // (y=0, z=0) of interior x=1 sits at padded (2, 2) within the plane.
        assert_eq!(p[2 * (4 + 4) + 2], 101.0);
        // Halo plane 0 is all zeros.
        assert!(f.plane(0).iter().all(|&v| v == 0.0));
        // Mutation through plane_mut lands at the right interior cell.
        let len = f.plane_len();
        f.plane_mut(2)[2 * (4 + 4) + 2] = 9.0;
        assert_eq!(f.get(0, 0, 0), 9.0);
        let _ = len;
    }

    #[test]
    fn copy_planes_between_different_nx() {
        let big = {
            let mut f = Field3::new(Dims3::new(8, 3, 4), 2);
            f.fill_with(|x, y, z| (x * 100 + y * 10 + z) as f32);
            f
        };
        // A narrow slab with the same (ny, nz, halo) receives planes 4..7.
        let mut slab = Field3::new(Dims3::new(3, 3, 4), 2);
        slab.copy_planes_from(&big, 4, 1, 3);
        // big padded plane 4 = interior x=2; slab padded plane 1 = interior x=-1.
        assert_eq!(slab.at_i(-1, 0, 0), big.get(2, 0, 0));
        assert_eq!(slab.get(0, 1, 2), big.get(3, 1, 2));
        assert_eq!(slab.get(1, 2, 3), big.get(4, 2, 3));
        // Untouched slab planes stay zero.
        assert!(slab.plane(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn detached_field_records_shape_without_storage() {
        let f = Field3::detached(Dims3::new(4, 5, 6), 2);
        assert!(f.is_detached());
        assert_eq!(f.dims(), Dims3::new(4, 5, 6));
        assert_eq!(f.halo(), 2);
        assert_eq!(f.resident_bytes(), 0);
        let live = Field3::new(Dims3::new(4, 5, 6), 2);
        assert!(!live.is_detached());
    }

    #[test]
    fn a_field_starts_at_the_phase_it_asked_for_and_its_clone_keeps_it() {
        let d = Dims3::new(5, 4, 3);
        for phase in [0, 4, 144, 2016, PHASE_TURN - 4] {
            let mut f = Field3::at_phase(d, 2, phase);
            assert_eq!(f.phase(), phase);
            f.set(4, 3, 2, 7.0);
            let c = f.clone();
            assert_eq!((c.phase(), c.get(4, 3, 2)), (phase, 7.0));
        }
    }

    /// The placements `core::state` gives its 28 slots: a page and 144 B
    /// apart.
    fn slot_phases() -> impl Iterator<Item = usize> {
        (0..28).map(|slot| slot * (PHASE_TURN + 144))
    }

    /// Padded extents of at least one huge page (132³ f32 ≈ 8.8 MiB).
    const LARGE: Dims3 = Dims3 { nx: 128, ny: 128, nz: 128 };

    #[test]
    fn every_slot_keeps_its_phase_modulo_a_page_on_any_field() {
        for (dims, halo) in [(Dims3::new(5, 4, 3), 2), (LARGE, 2)] {
            for phase in slot_phases() {
                let f = Field3::at_phase(dims, halo, phase);
                assert_eq!(f.raw().as_ptr() as usize % PHASE_TURN, phase % PHASE_TURN);
                assert!(f.sits_at(phase), "{dims:?} at {phase}");
            }
        }
    }

    #[test]
    fn a_large_field_starts_its_slot_page_into_its_first_whole_huge_page() {
        for phase in slot_phases() {
            let f = Field3::at_phase(LARGE, 2, phase);
            let base = f.store.as_ptr() as usize;
            let origin = f.raw().as_ptr() as usize;
            assert_eq!((origin % HUGE_PAGE, f.phase()), (phase, phase));
            assert_eq!(origin - phase, base.next_multiple_of(HUGE_PAGE), "slot at {phase}");
            assert_eq!(f.store.capacity(), LARGE.padded(2).len() + 2 * HUGE_PAGE / 4);
            // Advice covers the origin's huge page up to the field's last
            // whole one: what it adds to resident memory is the lead inside
            // the first.
            let (first, len) = hugepage::whole_pages(&f.store).expect("huge pages");
            let end = origin + f.resident_bytes();
            assert_eq!((first, first + len), (origin - phase, end / HUGE_PAGE * HUGE_PAGE));
        }
    }

    #[test]
    fn a_small_field_sits_as_before() {
        let d = Dims3::new(12, 10, 9);
        for phase in slot_phases() {
            let f = Field3::at_phase(d, 2, phase);
            assert_eq!(f.phase(), phase % PHASE_TURN);
            assert_eq!(f.store.capacity(), d.padded(2).len() + PHASE_TURN / 4);
            assert!(f.lead * 4 < PHASE_TURN);
            assert_eq!(hugepage::whole_pages(&f.store), None);
            let c = f.clone();
            assert_eq!((c.phase(), c.store.capacity()), (f.phase(), f.store.capacity()));
        }
    }

    /// Whether the base page holding `addr` is mapped in this process, as
    /// `/proc/self/pagemap` reports it; `None` where that cannot be read.
    fn present(addr: usize) -> Option<bool> {
        use std::io::{Read, Seek, SeekFrom};
        let mut map = std::fs::File::open("/proc/self/pagemap").ok()?;
        map.seek(SeekFrom::Start((addr / PHASE_TURN * 8) as u64)).ok()?;
        let mut entry = [0u8; 8];
        map.read_exact(&mut entry).ok()?;
        Some(u64::from_le_bytes(entry) >> 63 == 1)
    }

    #[test]
    fn a_large_clone_keeps_the_placement_and_never_touches_its_lead() {
        // Over glibc's largest mmap threshold (32 MiB): the allocation is a
        // fresh mapping, so a page nobody wrote is not present.
        let dims = Dims3::new(200, 200, 210);
        let phase = 27 * (PHASE_TURN + 144);
        let mut f = Field3::at_phase(dims, 2, phase);
        f.set(199, 199, 209, 7.0);
        f.set_i(-2, -2, -2, 3.0);
        let c = f.clone();
        assert_eq!((c.phase(), c.get(199, 199, 209), c.at_i(-2, -2, -2)), (phase, 7.0, 3.0));
        assert_eq!(c, f);
        // Below the first huge-page boundary the lead lies on small pages;
        // past the allocator's own first page none of them was touched.
        // (Reading one would map the zero page: the lead is read last.)
        let base = c.store.as_ptr() as usize;
        let boundary = base.next_multiple_of(HUGE_PAGE);
        let pages = (base / PHASE_TURN + 1) * PHASE_TURN..boundary;
        match present(base) {
            Some(true) => {
                for page in pages.step_by(PHASE_TURN) {
                    assert_eq!(present(page), Some(false), "lead page {page:#x} was touched");
                }
            }
            _ => eprintln!("skipping the lead's pages: /proc/self/pagemap does not report them"),
        }
        assert!(c.store[..c.lead].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn raw_is_the_padded_field_and_nothing_of_the_pad() {
        let d = Dims3::new(3, 4, 5);
        let f = Field3::at_phase(d, 2, 1000);
        assert_eq!(f.raw().len(), d.padded(2).len());
        assert_eq!(f.resident_bytes(), d.padded(2).len() * 4);
        let g = Field3::filled(d, 2, 1.5);
        assert!(g.raw().iter().all(|&v| v == 1.5));
        assert_eq!(g.raw().len(), d.padded(2).len());
    }

    #[test]
    fn equality_ignores_the_pad() {
        let d = Dims3::new(3, 4, 5);
        let mut a = Field3::at_phase(d, 2, 0);
        let mut b = Field3::at_phase(d, 2, 2048);
        assert_ne!(a.phase(), b.phase());
        assert_eq!(a, b);
        a.set_i(-2, 0, 0, 3.0);
        assert_ne!(a, b);
        b.set_i(-2, 0, 0, 3.0);
        assert_eq!(a, b);
        // Shape still counts: same values, other halo.
        assert_ne!(Field3::new(Dims3::cube(1), 0), Field3::new(Dims3::cube(1), 1));
        assert_ne!(Field3::new(d, 2), Field3::detached(d, 2));
    }

    #[test]
    fn detached_fields_own_nothing_and_clone_detached() {
        let f = Field3::detached(Dims3::new(4, 5, 6), 2);
        let c = f.clone();
        for f in [&f, &c] {
            assert!(f.is_detached() && f.raw().is_empty());
            assert_eq!((f.resident_bytes(), f.store.capacity()), (0, 0));
        }
        assert_eq!(f, c);
    }

    #[test]
    #[should_panic]
    fn detached_field_access_panics() {
        let f = Field3::detached(Dims3::cube(3), 2);
        let _ = f.get(0, 0, 0);
    }

    #[test]
    fn interior_vec_roundtrip() {
        let d = Dims3::new(3, 4, 5);
        let mut f = Field3::new(d, 2);
        f.fill_with(|x, y, z| (x * 100 + y * 10 + z) as f32);
        let v = f.interior_to_vec();
        let mut g = Field3::new(d, 2);
        g.interior_from_slice(&v);
        assert_eq!(f.max_abs_diff(&g), 0.0);
    }

    #[test]
    fn reductions() {
        let mut f = Field3::new(Dims3::cube(3), 1);
        f.set(1, 1, 1, -4.0);
        f.set(0, 0, 0, 3.0);
        assert_eq!(f.max_abs(), 4.0);
        assert_eq!(f.min_max(), (-4.0, 3.0));
        assert_eq!(f.norm2(), 25.0);
        // NaN is skipped wherever it sits in a row, ±Inf is reported,
        // halo values are not looked at.
        f.set(2, 0, 0, f32::NAN);
        f.set(2, 2, 2, f32::NAN);
        f.set_i(-1, 0, 0, 9.0);
        assert_eq!(f.max_abs(), 4.0);
        f.set(0, 2, 1, f32::NEG_INFINITY);
        assert_eq!(f.max_abs(), f32::INFINITY);
    }

    #[test]
    fn array3_indexing() {
        let mut a: Array3<u32> = Array3::new(Dims3::new(2, 3, 4));
        a[(1, 2, 3)] = 42;
        assert_eq!(a[(1, 2, 3)], 42);
        assert_eq!(*a.at(1, 2, 3), 42);
        let b = a.map(|v| v * 2);
        assert_eq!(b[(1, 2, 3)], 84);
    }

    #[test]
    #[should_panic(expected = "flat length")]
    fn from_vec_checks_len() {
        let _ = Array3::from_vec(Dims3::cube(2), vec![0u8; 7]);
    }
}

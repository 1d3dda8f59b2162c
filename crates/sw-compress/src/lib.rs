//! On-the-fly field compression (§6.5, Fig. 5) and the LZ4 checkpoint codec.
//!
//! The paper's compression scheme stores simulation fields as 16-bit values
//! in main memory and decompresses/recompresses them on the fly in the CPE
//! LDM, doubling both the effective memory capacity and the effective
//! bandwidth. Three lossy 32→16-bit codecs are used (Fig. 5d):
//!
//! 1. [`f16`](mod@f16) — IEEE 754 binary16 (1 sign / 5 exponent / 10 mantissa bits);
//! 2. [`adaptive`] — exponent width fitted to the array's recorded dynamic
//!    range, remaining bits spent on mantissa;
//! 3. [`norm`] — per-array affine normalization into `[1, 2)` so the
//!    exponent is constant and all 16 stored bits are mantissa (the
//!    production choice for most velocity and stress arrays).
//!
//! The per-array statistics the codecs need come from a coarse-resolution
//! pre-run ([`stats`], Fig. 5a). [`field`] wires a codec to a 3-D field with
//! the plane-by-plane decompress–compute–compress workflow of Fig. 5c.
//!
//! [`lz4`] is an independent *lossless* block codec, implemented from
//! scratch, used by the checkpoint/restart path (§6.2: "we integrate the LZ4
//! compression" to shrink the 108-TB restart wavefields).

pub mod adaptive;
pub mod calib;
pub mod errstats;
pub mod f16;
pub mod field;
pub mod lz4;
pub mod norm;
pub mod par;
pub mod plane;
pub mod stats;

pub use adaptive::AdaptiveCodec;
pub use calib::{calibrated_codec, max_abs_bucket, CodecCache};
pub use f16::{f16_to_f32, f32_to_f16, F16Codec};
pub use field::{Codec, CompressedField3};
pub use norm::NormCodec;
pub use plane::{value_bucket, EncodeStats, ResidentField3};
pub use stats::FieldStats;

use sw_grid::simd::wide;

/// Every lossy 16-bit codec compresses one f32 to one u16 and back.
///
/// # Lane bodies
///
/// `encode` and `decode` of the three codecs are **branch-free**:
/// straight-line integer/float operations and selects on the value's
/// bit pattern, no `match`, no data-dependent shift, no `leading_zeros`.
/// The slice methods below are plain loops over that one body (safe
/// code only, no intrinsics); a per-value call is the width-1 use of the
/// same body. Each loop is entered through [`sw_grid::simd::wide`], so
/// the auto-vectorizer compiles it once per lane tier and the CPU's
/// best one is picked at run time: 4-wide SSE2 at the x86-64 baseline
/// (the build sets no `-C target-cpu`), 8-wide AVX2 or 16-wide AVX-512
/// where the host has them, NEON on aarch64. An implementor keeps that
/// by marking `encode`/`decode`/`roundtrip` `#[inline(always)]`; a body
/// that is merely called from the loop stays baseline code. The branchy
/// scalar conversions these bodies replaced live on in `tests/oracle/`
/// and every bit pattern must match them exactly, at every tier
/// (`tests/codec_lanes.rs`).
///
/// # The subnormal rule
///
/// An f32-subnormal input encodes as signed zero in every codec, decided
/// on the bit pattern — so the result does not depend on whether the
/// calling thread runs flush-to-zero ([`sw_grid::fpenv`]) or not.
pub trait Codec16 {
    /// Compress a single value.
    fn encode(&self, v: f32) -> u16;
    /// Decompress a single value.
    fn decode(&self, c: u16) -> f32;

    /// Worst-case absolute round-trip error for values inside the codec's
    /// declared domain.
    fn max_abs_error(&self) -> f32;

    /// `decode(encode(v))`. Codecs may override this with a fused body
    /// that never materializes the code, provided it returns the same
    /// bits for every input (pinned exhaustively in `tests/codec_lanes.rs`).
    #[inline]
    fn roundtrip(&self, v: f32) -> f32 {
        self.decode(self.encode(v))
    }

    /// Compress a slice into a preallocated buffer.
    fn encode_slice(&self, src: &[f32], dst: &mut [u16]) {
        assert_eq!(src.len(), dst.len());
        wide(
            #[inline(always)]
            || {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = self.encode(s);
                }
            },
        )
    }

    /// Decompress a slice into a preallocated buffer.
    fn decode_slice(&self, src: &[u16], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        wide(
            #[inline(always)]
            || {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = self.decode(s);
                }
            },
        )
    }

    /// Round-trip a slice in place — the §6.5 16-bit inter-step storage,
    /// simulated functionally.
    fn roundtrip_slice(&self, data: &mut [f32]) {
        wide(
            #[inline(always)]
            || {
                for v in data {
                    *v = self.roundtrip(*v);
                }
            },
        )
    }
}

/// +Inf as f32 bits: every magnitude above it is a NaN.
pub(crate) const F32_INF: u32 = 0x7f80_0000;

/// `if c { a } else { b }` on lane words. Both arms are already
/// computed, so this lowers to a compare mask and and/andn/or — the
/// select every lane body is built from.
#[inline(always)]
pub(crate) fn select(c: bool, a: u32, b: u32) -> u32 {
    if c {
        a
    } else {
        b
    }
}

//! The scalar codec oracle (and, in [`lz4`], the byte-at-a-time LZ4
//! reference; in [`kernels`], the naive stencil kernels).
//!
//! These are the branchy per-value conversions `sw-compress` shipped
//! before its codecs became branch-free lane bodies — decision trees,
//! `leading_zeros`, data-dependent shifts — kept here, unoptimized, as
//! the reference every bit pattern must match (`tests/codec_lanes.rs`,
//! and `bench_codec`, which times the lane bodies against them). They
//! carry the defined-behaviour fixes that landed with the lane bodies:
//!
//! * an f32-subnormal input encodes as signed zero in every codec,
//!   decided on the bit pattern (so independent of flush-to-zero mode);
//! * an adaptive value at or above `2^(exp_max + 1)` — or rounding up to
//!   it — saturates to the largest value the window holds (top exponent
//!   code, all-ones mantissa) instead of keeping its mantissa under a
//!   clamped exponent, or collapsing to `2^e` when the carry ran out of
//!   exponent code `2^Ne − 1`;
//! * an adaptive code whose exponent lies outside f32's range decodes to
//!   signed zero (such codes are never emitted) and the sign is applied
//!   as a bit, not as a multiplication.
//!
//! Do not "improve" this file: its value is that it is obviously the old
//! code.

#![allow(dead_code)]

pub mod kernels;
pub mod lz4;

use sw_compress::stats::unbiased_exponent;

/// `Field3::max_abs` as it was before it folded per row: one running
/// maximum carried across every row, which does not vectorize. The
/// calibration scan (`sw_compress::par::fields_max_abs`) and today's
/// `Field3::max_abs` must return the same value for every input.
pub fn max_abs_carried(f: &sw_grid::Field3) -> f32 {
    let d = f.dims();
    let mut m = 0.0f32;
    for x in 0..d.nx {
        for y in 0..d.ny {
            for &v in f.row(x, y) {
                m = m.max(v.abs());
            }
        }
    }
    m
}

/// The resident store's plane calibration scan as it was before it
/// became a lane body: a carried `max` behind a branch, one value at a
/// time. `sw_compress::plane::finite_max_abs` must return the same
/// `(max_abs bits, nonfinite)` for every plane.
pub fn finite_max_abs(src: &[f32]) -> (f32, u64) {
    let mut max = 0.0f32;
    let mut nonfinite = 0u64;
    for &v in src {
        let a = v.abs();
        if a.is_finite() {
            max = max.max(a);
        } else {
            nonfinite += 1;
        }
    }
    (max, nonfinite)
}

fn is_subnormal_or_zero(v: f32) -> bool {
    v.to_bits() & 0x7f80_0000 == 0
}

/// Convert an f32 to IEEE binary16 bits with round-to-nearest-even.
pub fn f32_to_f16(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: keep a quiet-NaN payload bit so NaN stays NaN.
        let nan_bit = if frac != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan_bit | ((frac >> 13) as u16 & 0x03ff);
    }

    // Unbiased exponent in f32 is exp - 127; f16 bias is 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflow → signed infinity.
        return sign | 0x7c00;
    }
    if unbiased >= -14 {
        // Normal range: round 23-bit mantissa to 10 bits, nearest-even.
        let half_exp = ((unbiased + 15) as u16) << 10;
        let mant = frac >> 13;
        let round_bits = frac & 0x1fff;
        let mut out = sign | half_exp | mant as u16;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (mant & 1) == 1) {
            out += 1; // may carry into the exponent, which is correct
        }
        return out;
    }
    if unbiased >= -25 {
        // Subnormal range: shift the implicit leading 1 into the mantissa.
        let full = 0x0080_0000 | frac;
        let shift = (-14 - unbiased + 13) as u32;
        let mant = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut out = sign | mant as u16;
        if rem > half || (rem == half && (mant & 1) == 1) {
            out += 1;
        }
        return out;
    }
    // Too small even for a subnormal (f32 subnormals included): flush to
    // signed zero.
    sign
}

/// Convert IEEE binary16 bits back to f32.
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let frac = (h & 0x03ff) as u32;
    let bits = match (exp, frac) {
        (0, 0) => sign,
        (0, _) => {
            // Subnormal: renormalize.
            let lead = frac.leading_zeros() - 22; // zeros within the 10-bit field
            let mant = (frac << (lead + 1)) & 0x03ff;
            let e = 127 - 15 - lead;
            sign | (e << 23) | (mant << 13)
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, _) => sign | 0x7f80_0000 | (frac << 13),
        _ => sign | ((exp + 127 - 15) << 23) | (frac << 13),
    };
    f32::from_bits(bits)
}

/// Scalar `AdaptiveCodec` over the exponent window `[exp_min, exp_max]`.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveOracle {
    pub exp_min: i32,
    pub exp_max: i32,
    pub exp_bits: u32,
    pub mant_bits: u32,
}

impl AdaptiveOracle {
    pub fn new(exp_min: i32, exp_max: i32) -> Self {
        let span = (exp_max - exp_min + 2) as u32;
        let exp_bits = 32 - (span - 1).leading_zeros();
        assert!(exp_bits <= 8, "dynamic range too wide for a 16-bit format");
        Self { exp_min, exp_max, exp_bits, mant_bits: 15 - exp_bits }
    }

    pub fn encode(&self, v: f32) -> u16 {
        let sign = if v.is_sign_negative() { 0x8000u16 } else { 0 };
        if is_subnormal_or_zero(v) || !v.is_finite() {
            return sign;
        }
        let e = unbiased_exponent(v);
        if e < self.exp_min {
            return sign; // below the recorded range: flush to zero
        }
        let top_code = (self.exp_max - self.exp_min + 1) as u16;
        let largest = (top_code << self.mant_bits) | ((1 << self.mant_bits) - 1);
        if e > self.exp_max {
            return sign | largest; // above the recorded range: saturate
        }
        let code = (e - self.exp_min + 1) as u16;
        // Extract the top `mant_bits` of the 23-bit mantissa, rounding.
        let bits = v.abs().to_bits();
        let frac = bits & 0x007f_ffff;
        let shift = 23 - self.mant_bits;
        let mut mant = frac >> shift;
        let rem = frac & ((1u32 << shift) - 1);
        if rem >= (1u32 << (shift - 1)) {
            mant += 1;
            if mant >> self.mant_bits != 0 {
                // Carry into the exponent; out of the top binade it saturates.
                if code == top_code {
                    return sign | largest;
                }
                return sign | ((code + 1) << self.mant_bits);
            }
        }
        sign | (code << self.mant_bits) | mant as u16
    }

    pub fn decode(&self, c: u16) -> f32 {
        let sign = ((c & 0x8000) as u32) << 16;
        let body = c & 0x7fff;
        let code = body >> self.mant_bits;
        let e = self.exp_min + code as i32 - 1;
        if code == 0 || !(-126..=128).contains(&e) {
            return f32::from_bits(sign);
        }
        let mant = (body & ((1 << self.mant_bits) - 1)) as u32;
        let frac = mant << (23 - self.mant_bits);
        f32::from_bits(sign | (((e + 127) as u32) << 23) | frac)
    }
}

/// Scalar `NormCodec` over the value range `[vmin, vmax]`.
#[derive(Debug, Clone, Copy)]
pub struct NormOracle {
    vmin: f32,
    scale: f32,
    inv_scale: f32,
}

impl NormOracle {
    pub fn new(vmin: f32, vmax: f32) -> Self {
        let span = vmax - vmin;
        let span = if span > 0.0 { span } else { 1.0 };
        Self { vmin, scale: 1.0 / span, inv_scale: span }
    }

    pub fn encode(&self, v: f32) -> u16 {
        let v = if is_subnormal_or_zero(v) { 0.0 } else { v };
        // Normalize into [1, 2); clamp out-of-range values to the ends.
        let n = 1.0 + (v - self.vmin) * self.scale;
        let n = n.clamp(1.0, 1.999_999_9);
        let bits = n.to_bits();
        let frac = bits & 0x007f_ffff;
        let rounded = frac + 0x40; // round at bit 6 (we keep bits 7..22)
        if rounded > 0x007f_ffff {
            0xffff // rounding would carry past 2.0: saturate
        } else {
            (rounded >> 7) as u16
        }
    }

    pub fn decode(&self, c: u16) -> f32 {
        let bits = 0x3f80_0000u32 | ((c as u32) << 7);
        let n = f32::from_bits(bits);
        (n - 1.0) * self.inv_scale + self.vmin
    }
}

/// Any of the three oracles behind one encode/decode pair.
#[derive(Debug, Clone, Copy)]
pub enum Oracle {
    F16,
    Adaptive(AdaptiveOracle),
    Norm(NormOracle),
}

impl Oracle {
    pub fn encode(&self, v: f32) -> u16 {
        match self {
            Oracle::F16 => f32_to_f16(v),
            Oracle::Adaptive(c) => c.encode(v),
            Oracle::Norm(c) => c.encode(v),
        }
    }

    pub fn decode(&self, c: u16) -> f32 {
        match self {
            Oracle::F16 => f16_to_f32(c),
            Oracle::Adaptive(x) => x.decode(c),
            Oracle::Norm(x) => x.decode(c),
        }
    }

    pub fn roundtrip(&self, v: f32) -> f32 {
        self.decode(self.encode(v))
    }
}

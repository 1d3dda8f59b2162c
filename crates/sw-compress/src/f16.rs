//! Method (1) of Fig. 5d: IEEE 754 binary16.
//!
//! "Method (1) directly uses the 16-bit half precision defined by the IEEE
//! 754 standard, using 5 bits for the exponent and 10 bits for the
//! mantissa." Conversion is implemented from scratch with round-to-nearest-
//! even, gradual underflow to subnormals, and overflow to infinity — the
//! numerical problems the paper warns about for wide-dynamic-range arrays
//! (overflow) and narrow ones (wasted exponent bits) are therefore
//! faithfully present.

use crate::{select, Codec16, F32_INF};

/// `2^-14`, the smallest normal binary16, as f32 bits.
const F16_MIN_NORMAL: u32 = 113 << 23;
/// `2^16`; the normal-range rounding carries 65520 and above to here,
/// which is already the infinity code.
const F16_OVERFLOW: u32 = (127 + 16) << 23;
/// 65520, the smallest magnitude that rounds to infinity.
const F16_ROUNDS_TO_INF: u32 = 0x477f_f000;

/// Convert an f32 to IEEE binary16 bits with round-to-nearest-even.
///
/// Branch-free lane body. In the f16-normal range the rounding is an
/// integer add on the f32 bits (`0xfff` + the kept mantissa's low bit,
/// carrying naturally into the exponent) followed by the exponent rebias
/// and a shift. In the f16-subnormal range `|v| + 0.5` lets the FP adder
/// do the round-to-nearest-even: 0.5 has a `2^-24` ulp, the f16 subnormal
/// quantum, so the sum's mantissa *is* the code (f32 subnormals and
/// everything below `2^-25` land on 0.5, i.e. code 0).
#[inline(always)]
pub fn f32_to_f16(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let abs = bits & 0x7fff_ffff;
    let normal = (abs.wrapping_add(0xc800_0fff).wrapping_add((abs >> 13) & 1)) >> 13;
    let subnormal = (f32::from_bits(abs) + 0.5).to_bits().wrapping_sub(0.5f32.to_bits());
    // Inf / NaN: keep a quiet-NaN payload bit so NaN stays NaN.
    let inf_nan = ((abs >> 13) & 0x7fff) | select(abs > F32_INF, 0x0200, 0);
    let body = select(abs < F16_MIN_NORMAL, subnormal, normal);
    let body = select(abs >= F16_OVERFLOW, 0x7c00, body);
    let body = select(abs >= F32_INF, inf_nan, body);
    (sign | body) as u16
}

/// Convert IEEE binary16 bits back to f32 (branch-free lane body; the
/// subnormal arm renormalizes with one exact FP subtract).
#[inline(always)]
pub fn f16_to_f32(h: u16) -> f32 {
    let h = u32::from(h);
    let sign = (h & 0x8000) << 16;
    let body = (h & 0x7fff) << 13;
    let exp = body & 0x0f80_0000;
    let normal = body + ((127 - 15) << 23);
    let inf_nan = body + ((255 - 31) << 23);
    let subnormal =
        (f32::from_bits(body + F16_MIN_NORMAL) - f32::from_bits(F16_MIN_NORMAL)).to_bits();
    let mag = select(exp == 0, subnormal, select(exp == 0x0f80_0000, inf_nan, normal));
    f32::from_bits(sign | mag)
}

/// `f16_to_f32(f32_to_f16(v))` without materializing the code: the same
/// roundings applied in f32 bit space (add-and-mask in the normal range,
/// `(|v| + 0.5) − 0.5` in the subnormal range).
#[inline(always)]
fn f16_roundtrip(v: f32) -> f32 {
    let bits = v.to_bits();
    let sign = bits & 0x8000_0000;
    let abs = bits & 0x7fff_ffff;
    let normal = (abs + 0xfff + ((abs >> 13) & 1)) & !0x1fff;
    let subnormal = ((f32::from_bits(abs) + 0.5) - 0.5).to_bits();
    let mag = select(abs < F16_MIN_NORMAL, subnormal, normal);
    let mag = select(abs >= F16_ROUNDS_TO_INF, F32_INF, mag);
    let mag = select(abs > F32_INF, (abs & !0x1fff) | 0x0040_0000, mag);
    f32::from_bits(sign | mag)
}

/// [`Codec16`] wrapper for binary16.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct F16Codec;

impl Codec16 for F16Codec {
    #[inline(always)]
    fn encode(&self, v: f32) -> u16 {
        f32_to_f16(v)
    }

    #[inline(always)]
    fn decode(&self, c: u16) -> f32 {
        f16_to_f32(c)
    }

    #[inline(always)]
    fn roundtrip(&self, v: f32) -> f32 {
        f16_roundtrip(v)
    }

    fn max_abs_error(&self) -> f32 {
        // Relative error is 2^-11 per round trip; as an absolute bound it
        // depends on magnitude, so report the bound at the f16 max (65504).
        65504.0 * 0.000_488_28
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for v in [0.0f32, 1.0, -1.0, 2.0, 0.5, 1024.0, -2048.0, 0.25] {
            assert_eq!(f16_to_f32(f32_to_f16(v)), v, "{v} must be exact in f16");
        }
    }

    #[test]
    fn relative_error_within_half_ulp() {
        let mut v = 1.0e-4f32;
        while v < 6.0e4 {
            let r = f16_to_f32(f32_to_f16(v));
            let rel = ((r - v) / v).abs();
            assert!(rel <= 4.9e-4, "v={v} r={r} rel={rel}");
            v *= 1.37;
        }
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(f16_to_f32(f32_to_f16(1.0e6)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(-1.0e6)), f32::NEG_INFINITY);
        // Largest finite f16.
        assert_eq!(f16_to_f32(f32_to_f16(65504.0)), 65504.0);
    }

    #[test]
    fn subnormals_and_underflow() {
        // Smallest f16 subnormal is 2^-24 ≈ 5.96e-8.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16_to_f32(f32_to_f16(tiny)), tiny);
        // Below half of it: flush to zero.
        let r = f16_to_f32(f32_to_f16(1.0e-9));
        assert_eq!(r, 0.0);
        // Sign preserved on flush.
        assert!(f16_to_f32(f32_to_f16(-1.0e-9)).is_sign_negative());
    }

    #[test]
    fn nan_and_inf_pass_through() {
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(f32::NEG_INFINITY)), f32::NEG_INFINITY);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; ties
        // go to the even mantissa (1.0).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16_to_f32(f32_to_f16(halfway)), 1.0);
        // Just above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(f16_to_f32(f32_to_f16(above)), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn mantissa_carry_into_exponent() {
        // Rounding 1.9999999 up carries into the exponent → 2.0.
        assert_eq!(f16_to_f32(f32_to_f16(1.999_999_9)), 2.0);
    }

    #[test]
    fn codec_trait_slice_roundtrip() {
        let codec = F16Codec;
        let src: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.37).collect();
        let mut enc = vec![0u16; src.len()];
        let mut dec = vec![0f32; src.len()];
        codec.encode_slice(&src, &mut enc);
        codec.decode_slice(&enc, &mut dec);
        for (a, b) in src.iter().zip(&dec) {
            assert!((a - b).abs() <= a.abs() * 5e-4 + 1e-6);
        }
    }
}

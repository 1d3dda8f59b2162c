//! Method (2) of Fig. 5d: adaptive exponent width.
//!
//! "Method (2) determines the required exponent bit-width according to the
//! recorded maximum dynamic range in the first part, and uses the rest bits
//! for mantissa. Method (2) assures the coverage of the full dynamic range,
//! and can reserve more bits for the mantissa parts of variables with a
//! small dynamic range. The only disadvantage is the relatively high
//! computational cost." (`Ne = ceil(log2(Emax − Emin))`, `Nf = 15 − Ne`.)
//!
//! Layout: 1 sign bit, `Ne` exponent bits, `15 − Ne` mantissa bits. The
//! all-zero exponent code is reserved for zero (and magnitudes below the
//! smallest recorded binade, which flush to zero), so the usable exponent
//! codes are `1 ..= 2^Ne − 1`.
//!
//! The code body is the f32's `exponent | mantissa` word, rounded to
//! `15 − Ne` mantissa bits and rebased so `exp_min` gets exponent code 1.
//! The lane bodies below work on that word directly: rounding is one
//! integer add whose carry runs into the exponent by itself, saturation
//! is a clamp of the body, and flushing is a select on the magnitude.
//! Defined edges: zero, f32 subnormals, ±Inf and NaN encode as signed
//! zero; everything from `2^(exp_max + 1)` up — including a rounding
//! carry out of the top binade — saturates to the largest value the
//! window holds (top exponent code, all-ones mantissa), which keeps the
//! round trip monotone and idempotent; a code whose exponent lies
//! outside f32's range decodes to signed zero.

use crate::stats::FieldStats;
use crate::{select, Codec16, F32_INF};

/// The adaptive-exponent codec, parameterized by an array's recorded
/// exponent range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveCodec {
    exp_min: i32,
    exp_max: i32,
    /// Exponent field width in bits.
    pub exp_bits: u32,
    /// Mantissa field width in bits.
    pub mant_bits: u32,
}

impl AdaptiveCodec {
    /// Build from an exponent range `[exp_min, exp_max]` (unbiased).
    pub fn new(exp_min: i32, exp_max: i32) -> Self {
        assert!(exp_max >= exp_min, "empty exponent range");
        // +1 binade for the range itself, +1 code reserved for zero.
        let span = (exp_max - exp_min + 2) as u32;
        let exp_bits = 32 - (span - 1).leading_zeros();
        assert!(exp_bits <= 8, "dynamic range too wide for a 16-bit format");
        Self { exp_min, exp_max, exp_bits, mant_bits: 15 - exp_bits }
    }

    /// Build from coarse-run statistics.
    ///
    /// The recorded `exp_min` is clamped to 30 binades below `exp_max`:
    /// values smaller than ~1e-9 of the array's peak carry no signal, and
    /// covering them would spend exponent bits that are far more valuable
    /// as mantissa precision (the error that accumulates over thousands
    /// of decompress–compute–compress steps is the *relative* one).
    pub fn from_stats(stats: &FieldStats) -> Self {
        if stats.exponent_span() == 0 {
            // Array was identically zero in the coarse run; give it one
            // binade around 1.0 so fine-run noise still encodes.
            Self::new(0, 0)
        } else {
            // Four binades of headroom above the recorded maximum: the
            // fine run resolves sharper pulses than the coarse pass, and
            // saturation distorts far more than a coarser quantum.
            let hi = stats.exp_max + 4;
            Self::new(stats.exp_min.max(hi - 29), hi)
        }
    }

    /// Dropped low mantissa bits.
    #[inline(always)]
    fn shift(&self) -> u32 {
        23 - self.mant_bits
    }

    /// The f32 exponent field that maps to exponent code 0.
    #[inline(always)]
    fn rebase(&self) -> i32 {
        self.exp_min + 126
    }

    /// Magnitude bits below which a value flushes to zero (`2^exp_min`,
    /// and never less than the smallest normal f32).
    #[inline(always)]
    fn flush_below(&self) -> i32 {
        (self.exp_min + 127).clamp(1, 255) << 23
    }
}

impl Codec16 for AdaptiveCodec {
    #[inline(always)]
    fn encode(&self, v: f32) -> u16 {
        let shift = self.shift();
        let bits = v.to_bits();
        let sign = (bits >> 16) & 0x8000;
        let abs = bits & 0x7fff_ffff;
        // Round half up on the dropped bits, rebase the exponent.
        let body = ((abs + (1 << (shift - 1))) >> shift) as i32 - (self.rebase() << self.mant_bits);
        // `exp_max`'s exponent code over an all-ones mantissa.
        let largest = ((self.exp_max - self.exp_min + 2) << self.mant_bits) - 1;
        let body = if body > largest { largest } else { body };
        let flush = ((abs as i32) < self.flush_below()) | (abs >= F32_INF);
        (sign | select(flush, 0, body as u32)) as u16
    }

    #[inline(always)]
    fn decode(&self, c: u16) -> f32 {
        let c = u32::from(c);
        let sign = (c & 0x8000) << 16;
        let body = c & 0x7fff;
        let mag = ((body << self.shift()) as i32).wrapping_add(self.rebase() << 23);
        // Exponent code 0, or an exponent f32 cannot hold (the add wrapped).
        let zero = (body < (1 << self.mant_bits)) | (mag < (1 << 23));
        f32::from_bits(sign | select(zero, 0, mag as u32))
    }

    /// The same rounding, saturation and flush as `decode(encode(v))`,
    /// applied to the f32 bits in place.
    #[inline(always)]
    fn roundtrip(&self, v: f32) -> f32 {
        let shift = self.shift();
        let bits = v.to_bits();
        let sign = bits & 0x8000_0000;
        let abs = bits & 0x7fff_ffff;
        let mag = ((abs + (1 << (shift - 1))) & !((1 << shift) - 1)) as i32;
        // The largest body as f32 bits (past Inf for windows reaching
        // beyond f32, where no finite input can round that far).
        let largest =
            ((i64::from(self.exp_max + 128) << 23) - (1 << shift)).min(i64::from(i32::MAX)) as i32;
        let mag = if mag > largest { largest } else { mag };
        let flush = ((abs as i32) < self.flush_below()) | (abs >= F32_INF);
        f32::from_bits(sign | select(flush, 0, mag as u32))
    }

    fn max_abs_error(&self) -> f32 {
        // Half an ULP at the largest binade.
        2.0f32.powi(self.exp_max) * 2.0f32.powi(-(self.mant_bits as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_range_gets_wide_mantissa() {
        // One binade [1, 2): exponent needs to distinguish {zero, e=0} → 1 bit.
        let c = AdaptiveCodec::new(0, 0);
        assert_eq!(c.exp_bits, 1);
        assert_eq!(c.mant_bits, 14);
        let v = 1.234_567f32;
        let r = c.decode(c.encode(v));
        assert!((r - v).abs() < 2.0 * c.max_abs_error(), "r={r}");
        assert!((r - v).abs() < 1e-3);
    }

    #[test]
    fn wide_range_still_covers() {
        // Exponents -20..=20: span 42 (+zero) → 6 bits.
        let c = AdaptiveCodec::new(-20, 20);
        assert_eq!(c.exp_bits, 6);
        for v in [1.0e-6f32, 3.0e-3, 0.5, 1.0, 777.0, 9.5e5] {
            let r = c.decode(c.encode(v));
            let rel = ((r - v) / v).abs();
            assert!(rel < 2.0f32.powi(-(c.mant_bits as i32 - 1)), "v={v} r={r}");
        }
    }

    #[test]
    fn zero_roundtrips_exactly() {
        let c = AdaptiveCodec::new(-5, 5);
        assert_eq!(c.decode(c.encode(0.0)), 0.0);
        assert_eq!(c.decode(c.encode(-0.0)), 0.0);
    }

    #[test]
    fn below_range_flushes_to_zero() {
        let c = AdaptiveCodec::new(0, 4);
        assert_eq!(c.decode(c.encode(1.0e-8)), 0.0);
    }

    #[test]
    fn above_range_saturates_without_garbage() {
        let c = AdaptiveCodec::new(0, 4);
        let r = c.decode(c.encode(1.0e9));
        // Clamped into the largest covered binade [16, 32).
        assert!((16.0..32.0).contains(&r), "saturated to {r}");
    }

    #[test]
    fn sign_is_preserved() {
        let c = AdaptiveCodec::new(-3, 3);
        assert!(c.decode(c.encode(-2.5)) < 0.0);
        assert!(c.decode(c.encode(2.5)) > 0.0);
    }

    #[test]
    fn from_stats_of_constant_zero_field() {
        let s = FieldStats::of_slice(&[0.0, 0.0]);
        let c = AdaptiveCodec::from_stats(&s);
        assert_eq!(c.decode(c.encode(0.0)), 0.0);
    }

    #[test]
    fn beats_f16_on_narrow_range() {
        // For values in [1, 2), the adaptive codec keeps 14 mantissa bits
        // vs binary16's 10 — the paper's motivation for method (2).
        let c = AdaptiveCodec::new(0, 0);
        let v = 1.000_3f32;
        let adaptive_err = (c.decode(c.encode(v)) - v).abs();
        let f16_err = (crate::f16::f16_to_f32(crate::f16::f32_to_f16(v)) - v).abs();
        assert!(adaptive_err < f16_err, "adaptive {adaptive_err} vs f16 {f16_err}");
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn range_wider_than_8_exponent_bits_is_rejected() {
        let _ = AdaptiveCodec::new(-170, 170);
    }
}

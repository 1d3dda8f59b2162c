//! Method (3) of Fig. 5d: normalization into `[1, 2)` — the production codec.
//!
//! "According to the statistics in the first part, we normalize all the
//! values of the same array to the range between 1 and 2, which corresponds
//! to an exponent value of zero. Therefore, after the normalization, we can
//! shift the bits to get the mantissa part as the compressed value directly,
//! which significantly simplifies the compression process."
//!
//! Encoding is a fused multiply-add plus a shift; decoding is a shift plus a
//! fused multiply-add — the cheapest of the three codecs, which is why the
//! paper adopts it "for most velocity and stress variables". Every value in
//! `[1, 2)` has exponent 0 and positive sign, so all 16 stored bits carry
//! mantissa: the worst-case absolute error is `range / 2^16` (half an ULP of
//! the 16-bit mantissa grid after rounding).

use crate::stats::FieldStats;
use crate::{select, Codec16};

/// The normalization codec, parameterized by an array's value range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormCodec {
    vmin: f32,
    scale: f32,     // 1 / (vmax - vmin)
    inv_scale: f32, // vmax - vmin
}

impl NormCodec {
    /// Build from a value range `[vmin, vmax]`.
    pub fn new(vmin: f32, vmax: f32) -> Self {
        assert!(vmax >= vmin, "inverted range");
        assert!(vmin.is_finite() && vmax.is_finite(), "range must be finite");
        let span = vmax - vmin;
        // A degenerate (constant) array still needs a nonzero scale.
        let span = if span > 0.0 { span } else { 1.0 };
        Self { vmin, scale: 1.0 / span, inv_scale: span }
    }

    /// Build from coarse-run statistics, widened by 10 % as a safety margin
    /// for the fine run's slightly larger dynamic range.
    pub fn from_stats(stats: &FieldStats) -> Self {
        if stats.count == 0 {
            return Self::new(0.0, 1.0);
        }
        let w = stats.widened(1.1);
        Self::new(w.min, w.max)
    }

    /// The represented minimum.
    pub fn vmin(&self) -> f32 {
        self.vmin
    }

    /// The represented maximum.
    pub fn vmax(&self) -> f32 {
        self.vmin + self.inv_scale
    }
}

impl Codec16 for NormCodec {
    #[inline(always)]
    fn encode(&self, v: f32) -> u16 {
        // The subnormal rule: an f32-subnormal input is zero.
        let bits = v.to_bits();
        let v = f32::from_bits(select(bits & 0x7f80_0000 == 0, 0, bits));
        // Normalize into [1, 2); clamp out-of-range values to the ends.
        let n = 1.0 + (v - self.vmin) * self.scale;
        let n = n.clamp(1.0, 1.999_999_9);
        // Exponent is now 0 (biased 127): the top 16 mantissa bits, with
        // rounding, are the compressed value.
        // Round at bit 6 (we keep bits 7..22); a carry past 2.0 saturates.
        let rounded = (n.to_bits() & 0x007f_ffff) + 0x40;
        select(rounded > 0x007f_ffff, 0xffff, rounded >> 7) as u16
    }

    #[inline(always)]
    fn decode(&self, c: u16) -> f32 {
        let bits = 0x3f80_0000u32 | ((c as u32) << 7);
        let n = f32::from_bits(bits);
        (n - 1.0) * self.inv_scale + self.vmin
    }

    fn max_abs_error(&self) -> f32 {
        // 16 mantissa bits over a unit binade, with rounding: 2^-17 of the
        // span each way, plus clamp slack at the very top.
        self.inv_scale / 65536.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_within_bound() {
        let c = NormCodec::new(-3.0, 5.0);
        let bound = c.max_abs_error();
        assert!((bound - 8.0 / 65536.0).abs() < 1e-9);
        let mut v = -3.0f32;
        while v <= 5.0 {
            let r = c.decode(c.encode(v));
            assert!((r - v).abs() <= bound, "v={v} r={r} err={}", (r - v).abs());
            v += 0.001_37;
        }
    }

    #[test]
    fn endpoints_are_representable() {
        let c = NormCodec::new(-1.0, 1.0);
        assert!((c.decode(c.encode(-1.0)) - (-1.0)).abs() <= c.max_abs_error());
        assert!((c.decode(c.encode(1.0)) - 1.0).abs() <= 2.0 * c.max_abs_error());
    }

    #[test]
    fn out_of_range_clamps() {
        let c = NormCodec::new(0.0, 1.0);
        assert!(c.decode(c.encode(-5.0)).abs() <= c.max_abs_error());
        assert!((c.decode(c.encode(9.0)) - 1.0).abs() <= 2.0 * c.max_abs_error());
    }

    #[test]
    fn constant_array_is_exact() {
        let c = NormCodec::new(4.2, 4.2);
        assert!((c.decode(c.encode(4.2)) - 4.2).abs() < 1e-6);
    }

    #[test]
    fn from_stats_widens_range() {
        let s = FieldStats::of_slice(&[-1.0, 1.0]);
        let c = NormCodec::from_stats(&s);
        assert!(c.vmin() < -1.0);
        assert!(c.vmax() > 1.0);
        // A fine-run value 5 % beyond the coarse range still encodes.
        let v = 1.05f32;
        assert!((c.decode(c.encode(v)) - v).abs() <= c.max_abs_error());
    }

    #[test]
    fn zero_count_stats_fall_back() {
        let c = NormCodec::from_stats(&FieldStats::empty());
        assert_eq!(c.decode(c.encode(0.0)), 0.0);
    }

    /// The codec must be monotone: a larger input never decodes smaller.
    #[test]
    fn encoding_is_monotone() {
        let c = NormCodec::new(-2.0, 2.0);
        let mut prev = c.encode(-2.0);
        let mut v = -2.0f32;
        while v <= 2.0 {
            let e = c.encode(v);
            assert!(e >= prev, "monotonicity broken at {v}");
            prev = e;
            v += 0.003;
        }
    }

    /// Fig. 5d labels methods by what they apply to; method (3) serves
    /// velocity/stress arrays whose range is symmetric around zero — check
    /// signedness survives.
    #[test]
    fn symmetric_range_keeps_sign() {
        let c = NormCodec::new(-0.25, 0.25);
        assert!(c.decode(c.encode(-0.1)) < 0.0);
        assert!(c.decode(c.encode(0.1)) > 0.0);
        assert!(c.decode(c.encode(0.0)).abs() <= c.max_abs_error());
    }
}

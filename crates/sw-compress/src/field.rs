//! Compressed 3-D fields and the decompress–compute–compress workflow
//! (Fig. 5b/5c).
//!
//! A [`CompressedField3`] keeps a whole simulation array as 16-bit codes in
//! (simulated) main memory — half the DRAM footprint and half the DMA bytes
//! of the f32 field it replaces. The CPEs stream z-runs through their LDM:
//! `dma_get` compressed codes, decode, compute in f32, encode, `dma_put`
//! the results back.

use crate::adaptive::AdaptiveCodec;
use crate::f16::F16Codec;
use crate::norm::NormCodec;
use crate::stats::FieldStats;
use crate::Codec16;
use sw_grid::{Dims3, Field3};

/// A dynamically chosen 16-bit codec (the three methods of Fig. 5d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Codec {
    /// Method (1): IEEE binary16.
    F16(F16Codec),
    /// Method (2): adaptive exponent width.
    Adaptive(AdaptiveCodec),
    /// Method (3): normalization into `[1, 2)`.
    Norm(NormCodec),
}

impl Codec {
    /// Fig. 5d's per-array assignment: binary16 for the velocity group
    /// (`vel, ww0, phi, cohes, taxx..taxz`), adaptive for the stress /
    /// memory-variable group (`str, r1..r6, sigma2, yldfac`), and
    /// normalization for the material group (`d1, lam, mu, qp, qs, vx1,
    /// vx2, ww`). Unknown arrays get the paper's final-design default,
    /// method (3).
    pub fn paper_assignment(array: &str, stats: &FieldStats) -> Codec {
        const F16_GROUP: [&str; 9] = ["vel", "u", "v", "w", "ww0", "phi", "cohes", "taxx", "taxz"];
        const ADAPTIVE_GROUP: [&str; 16] = [
            "str", "xx", "yy", "zz", "xy", "xz", "yz", "r1", "r2", "r3", "r4", "r5", "r6",
            "sigma2", "yldfac", "eqp",
        ];
        if F16_GROUP.contains(&array) {
            Codec::F16(F16Codec)
        } else if ADAPTIVE_GROUP.contains(&array) {
            Codec::Adaptive(AdaptiveCodec::from_stats(stats))
        } else {
            Codec::Norm(NormCodec::from_stats(stats))
        }
    }
}

/// Run `$body` with `$c` bound to the concrete codec inside `$codec`.
macro_rules! with_variant {
    ($codec:expr, $c:ident => $body:expr) => {
        match $codec {
            Codec::F16($c) => $body,
            Codec::Adaptive($c) => $body,
            Codec::Norm($c) => $body,
        }
    };
}

/// Per-value calls dispatch per value; the slice methods dispatch **once
/// per slice** and then run the concrete codec's loop, which enters
/// [`sw_grid::simd::wide`] itself.
impl Codec16 for Codec {
    #[inline]
    fn encode(&self, v: f32) -> u16 {
        with_variant!(self, c => c.encode(v))
    }

    #[inline]
    fn decode(&self, c: u16) -> f32 {
        with_variant!(self, x => x.decode(c))
    }

    #[inline]
    fn roundtrip(&self, v: f32) -> f32 {
        with_variant!(self, c => c.roundtrip(v))
    }

    fn max_abs_error(&self) -> f32 {
        with_variant!(self, c => c.max_abs_error())
    }

    fn encode_slice(&self, src: &[f32], dst: &mut [u16]) {
        with_variant!(self, c => c.encode_slice(src, dst))
    }

    fn decode_slice(&self, src: &[u16], dst: &mut [f32]) {
        with_variant!(self, c => c.decode_slice(src, dst))
    }

    fn roundtrip_slice(&self, data: &mut [f32]) {
        with_variant!(self, c => c.roundtrip_slice(data))
    }
}

/// A 3-D field stored as 16-bit codes (same halo convention as
/// [`Field3`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedField3 {
    interior: Dims3,
    padded: Dims3,
    halo: usize,
    codec: Codec,
    data: Vec<u16>,
}

impl CompressedField3 {
    /// Allocate, encoding zero everywhere.
    pub fn new(dims: Dims3, halo: usize, codec: Codec) -> Self {
        let padded = dims.padded(halo);
        let zero = codec.encode(0.0);
        Self { interior: dims, padded, halo, codec, data: vec![zero; padded.len()] }
    }

    /// Compress an existing f32 field.
    pub fn from_field(f: &Field3, codec: Codec) -> Self {
        let mut out = Self::new(f.dims(), f.halo(), codec);
        codec.encode_slice(f.raw(), &mut out.data);
        out
    }

    /// Decompress into a new f32 field.
    pub fn to_field(&self) -> Field3 {
        let mut f = Field3::new(self.interior, self.halo);
        self.codec.decode_slice(&self.data, f.raw_mut());
        f
    }

    /// Interior extents.
    pub fn dims(&self) -> Dims3 {
        self.interior
    }

    /// The codec in use.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Stored bytes (the paper's capacity argument: half of the f32 field).
    pub fn stored_bytes(&self) -> usize {
        self.data.len() * 2
    }

    /// The raw 16-bit codes in memory order (halo included) — for bitwise
    /// comparisons and serialization.
    pub fn codes(&self) -> &[u16] {
        &self.data
    }

    #[inline(always)]
    fn off(&self, x: usize, y: usize, z: usize) -> usize {
        self.padded.offset(x + self.halo, y + self.halo, z + self.halo)
    }

    /// Decode one interior value.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        self.codec.decode(self.data[self.off(x, y, z)])
    }

    /// Encode one interior value.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f32) {
        let o = self.off(x, y, z);
        self.data[o] = self.codec.encode(v);
    }

    /// Decompress the z-run at `(x, y)` into an LDM-style buffer.
    pub fn decode_z_run(&self, x: usize, y: usize, buf: &mut [f32]) {
        let nz = self.interior.nz;
        assert_eq!(buf.len(), nz);
        let o = self.off(x, y, 0);
        self.codec.decode_slice(&self.data[o..o + nz], buf);
    }

    /// Compress an LDM-style buffer back into the z-run at `(x, y)`.
    pub fn encode_z_run(&mut self, x: usize, y: usize, buf: &[f32]) {
        assert_eq!(buf.len(), self.interior.nz);
        let o = self.off(x, y, 0);
        self.codec.encode_slice(buf, &mut self.data[o..o + buf.len()]);
    }

    /// Batched read-modify-write of scattered cells — the source-injection
    /// path. Each `(x, y, z, increment)` decodes one code, adds, and
    /// re-encodes that one code.
    ///
    /// This exists because the z-run workflow is the wrong tool for point
    /// updates: incrementing a single cell through
    /// [`decode_z_run`](Self::decode_z_run)/[`encode_z_run`](Self::encode_z_run)
    /// rewrites all `nz` codes of the run, and for codecs whose round trip
    /// is not idempotent on codes the rewrite can perturb *untouched*
    /// neighbours (their decoded values re-encode to different codes).
    /// `apply_adds` touches exactly the target codes and nothing else.
    pub fn apply_adds(&mut self, adds: &[(usize, usize, usize, f32)]) {
        for &(x, y, z, v) in adds {
            let o = self.off(x, y, z);
            self.data[o] = self.codec.encode(self.codec.decode(self.data[o]) + v);
        }
    }

    /// The Fig. 5c workflow over a whole field: for every `(x, y)` z-run,
    /// decompress → `f(x, y, buf)` computes in place → compress back.
    pub fn update_z_runs(&mut self, mut f: impl FnMut(usize, usize, &mut [f32])) {
        let d = self.interior;
        let mut buf = vec![0.0f32; d.nz];
        for x in 0..d.nx {
            for y in 0..d.ny {
                self.decode_z_run(x, y, &mut buf);
                f(x, y, &mut buf);
                self.encode_z_run(x, y, &buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavefield(d: Dims3) -> Field3 {
        let mut f = Field3::new(d, 2);
        f.fill_with(|x, y, z| {
            ((x as f32 * 0.7).sin() * (y as f32 * 0.3).cos() + z as f32 * 0.01) * 0.2
        });
        f
    }

    #[test]
    fn roundtrip_within_codec_bound() {
        let d = Dims3::new(6, 5, 8);
        let f = wavefield(d);
        let stats = FieldStats::of_field(&f);
        for codec in [
            Codec::F16(F16Codec),
            Codec::Adaptive(AdaptiveCodec::from_stats(&stats)),
            Codec::Norm(NormCodec::from_stats(&stats)),
        ] {
            let c = CompressedField3::from_field(&f, codec);
            let g = c.to_field();
            let err = f.max_abs_diff(&g);
            assert!(
                err <= codec.max_abs_error() * 1.01 + 1e-7,
                "{codec:?}: err {err} vs bound {}",
                codec.max_abs_error()
            );
        }
    }

    #[test]
    fn stored_bytes_are_half_of_f32() {
        let d = Dims3::new(10, 10, 10);
        let f = Field3::new(d, 2);
        let c = CompressedField3::from_field(&f, Codec::F16(F16Codec));
        assert_eq!(c.stored_bytes() * 2, f.raw().len() * 4);
    }

    #[test]
    fn z_run_pipeline_matches_pointwise() {
        let d = Dims3::new(4, 4, 16);
        let f = wavefield(d);
        let stats = FieldStats::of_field(&f);
        let codec = Codec::Norm(NormCodec::from_stats(&stats));
        let mut c = CompressedField3::from_field(&f, codec);
        // double every value through the z-run pipeline
        c.update_z_runs(|_, _, buf| {
            for v in buf.iter_mut() {
                *v *= 2.0;
            }
        });
        // compare against pointwise reference (note: clamping may bite at
        // the range edge, so stay within half range)
        for (x, y, z) in d.iter() {
            let expect = 2.0 * f.get(x, y, z);
            if expect.abs() < stats.max.abs() {
                let got = c.get(x, y, z);
                assert!(
                    (got - expect).abs() <= 3.0 * codec.max_abs_error(),
                    "({x},{y},{z}): {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn paper_assignment_routes_groups() {
        let s = FieldStats::of_slice(&[0.5, 1.0, 2.0]);
        assert!(matches!(Codec::paper_assignment("vel", &s), Codec::F16(_)));
        assert!(matches!(Codec::paper_assignment("cohes", &s), Codec::F16(_)));
        assert!(matches!(Codec::paper_assignment("r3", &s), Codec::Adaptive(_)));
        assert!(matches!(Codec::paper_assignment("yldfac", &s), Codec::Adaptive(_)));
        assert!(matches!(Codec::paper_assignment("lam", &s), Codec::Norm(_)));
        assert!(matches!(Codec::paper_assignment("unknown_array", &s), Codec::Norm(_)));
    }

    /// Documents the read-modify-write cost that motivates `apply_adds`:
    /// injecting one source increment through the z-run workflow performs
    /// `2 · nz` codec operations and `nz` code stores for a single-cell
    /// write — a write amplification of `nz` (here 16×, and the production
    /// z extent is thousands). The batched setter performs exactly one
    /// decode and one encode per increment.
    ///
    /// The test also pins the safety property both paths share: stored
    /// codes are canonical (`encode` maps every decoded value back to the
    /// code it came from), so neither path may perturb untouched codes —
    /// only the *cost* differs, which is why the source-injection path
    /// uses `apply_adds`.
    #[test]
    fn apply_adds_avoids_z_run_write_amplification() {
        let d = Dims3::new(4, 4, 16);
        let f = wavefield(d);
        let stats = FieldStats::of_field(&f);
        let codec = Codec::Norm(NormCodec::from_stats(&stats));

        // Path A (the documented cost): decode the whole z-run, add to one
        // cell, encode the whole z-run back — 2·nz codec ops, nz stores.
        let mut z_run_path = CompressedField3::from_field(&f, codec);
        let mut run = vec![0.0f32; d.nz];
        z_run_path.decode_z_run(2, 2, &mut run);
        run[5] += 0.01;
        z_run_path.encode_z_run(2, 2, &run);
        let z_run_ops = 2 * d.nz;

        // Path B: the batched setter — one decode + one encode per add.
        let mut batched = CompressedField3::from_field(&f, codec);
        batched.apply_adds(&[(2, 2, 5, 0.01)]);
        let batched_ops = 2;

        assert!(
            z_run_ops >= 16 * batched_ops,
            "the z-run path amplifies one write into {z_run_ops} codec ops"
        );

        // Same result, radically different cost: both paths change exactly
        // the target code and leave every untouched code bit-identical.
        let reference = CompressedField3::from_field(&f, codec);
        let diff = |a: &CompressedField3| {
            a.codes().iter().zip(reference.codes()).filter(|(x, y)| x != y).count()
        };
        assert_eq!(diff(&z_run_path), 1);
        assert_eq!(diff(&batched), 1);
        assert_eq!(z_run_path.codes(), batched.codes());
        let expect = f.get(2, 2, 5) + 0.01;
        assert!((batched.get(2, 2, 5) - expect).abs() <= 3.0 * codec.max_abs_error());
    }

    #[test]
    fn set_get_single_values() {
        let d = Dims3::cube(3);
        let mut c = CompressedField3::new(d, 2, Codec::Norm(NormCodec::new(-1.0, 1.0)));
        c.set(1, 1, 1, 0.5);
        assert!((c.get(1, 1, 1) - 0.5).abs() < 1e-4);
        assert_eq!(c.get(0, 0, 0), 0.0);
    }
}

//! Plane-granular resident compression: a whole simulation array kept as
//! 16-bit codes with an independently calibrated codec per x-plane.
//!
//! This is the resident-representation half of ROADMAP item 2. The §6.5
//! round-trip path compresses a field once per step with one field-wide
//! codec; a [`ResidentField3`] instead *lives* compressed, and the driver
//! streams x-plane slabs through a small f32 working set
//! (decompress → compute → compress, Fig. 5c at plane granularity).
//!
//! Per-plane calibration solves the chicken-and-egg of resident encoding:
//! a field-wide codec would need the global max-abs before any plane can
//! be encoded, and would saturate whenever the wavefront grows past the
//! previous step's range. Each plane instead buckets its *own* max-abs at
//! encode time ([`max_abs_bucket`]) and pulls the matching calibrated
//! codec from a bucket-keyed [`CodecCache`] — the "binade slot reuse" of
//! the plane store. The codec is a pure function of the plane's content,
//! which keeps runs deterministic and checkpoint/restore byte-exact.

use crate::calib::{max_abs_bucket, CodecCache};
use crate::field::Codec;
use crate::stats::unbiased_exponent;
use crate::{select, Codec16, F32_INF};
use sw_grid::simd::wide;
use sw_grid::{Dims3, Field3};

/// Binade bucket of a single value (`i32::MIN` = zero; nonfinite values
/// escalate to the top bucket so the codec window opens fully).
#[inline]
pub fn value_bucket(v: f32) -> i32 {
    if v == 0.0 {
        i32::MIN
    } else if v.is_finite() {
        unbiased_exponent(v)
    } else {
        127
    }
}

/// Round-trip error statistics accumulated while encoding planes.
///
/// The driver folds one of these per field per step and streams the
/// result into the health log, where the binade-relative error budget is
/// enforced ([`rel_err`](EncodeStats::rel_err)). `nonfinite` doubles as
/// the NaN/Inf detector for compressed-resident fields: the codecs
/// launder nonfinite values into clamped or zero codes, so the usual
/// post-hoc field scan would never see them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeStats {
    /// Largest finite |value| encoded.
    pub max_abs: f32,
    /// Largest absolute round-trip error among finite values.
    pub max_err: f32,
    /// Sum of squared round-trip errors (finite values).
    pub sum_sq_err: f64,
    /// Finite values encoded.
    pub count: u64,
    /// Nonfinite values encountered (laundered by the codecs).
    pub nonfinite: u64,
}

impl EncodeStats {
    /// The identity for [`EncodeStats::merge`].
    pub fn empty() -> Self {
        Self { max_abs: 0.0, max_err: 0.0, sum_sq_err: 0.0, count: 0, nonfinite: 0 }
    }

    /// Fold in statistics gathered elsewhere (another plane or field).
    pub fn merge(&mut self, o: &Self) {
        self.max_abs = self.max_abs.max(o.max_abs);
        self.max_err = self.max_err.max(o.max_err);
        self.sum_sq_err += o.sum_sq_err;
        self.count += o.count;
        self.nonfinite += o.nonfinite;
    }

    /// Worst round-trip error relative to the field's peak magnitude —
    /// the quantity the health budget bounds. Zero fields report 0;
    /// a nonzero error on an all-zero field reports infinity.
    pub fn rel_err(&self) -> f32 {
        if self.max_abs > 0.0 {
            self.max_err / self.max_abs
        } else if self.max_err > 0.0 {
            f32::INFINITY
        } else {
            0.0
        }
    }

    /// Root-mean-square round-trip error (0 when empty).
    pub fn rms_err(&self) -> f32 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_sq_err / self.count as f64).sqrt() as f32
        }
    }
}

/// Lanes of the calibration scan (one AVX2 register of `u32`, two SSE2).
const SCAN_LANES: usize = 8;

/// The calibration scan: `(largest finite |v|, number of nonfinite v)`.
///
/// One branch-free lane body on the value's bit pattern — clear the
/// sign, compare against +Inf, select, integer max, integer count.
/// Finite magnitudes order as their bit patterns do, and max and count
/// are order-independent, so the lanes return exactly what a carried
/// scalar loop returns (`tests/oracle/` keeps that loop;
/// `tests/codec_lanes.rs` pins the two together), and — like the codecs'
/// subnormal rule — the result does not depend on the thread's
/// flush-to-zero mode. Runs at the host's lane tier
/// ([`sw_grid::simd::wide`]).
pub fn finite_max_abs(src: &[f32]) -> (f32, u64) {
    #[inline(always)]
    fn lane(v: f32, max: &mut u32, nonfinite: &mut u32) {
        let mag = v.to_bits() & 0x7fff_ffff;
        let finite = mag < F32_INF;
        *max = (*max).max(select(finite, mag, 0));
        *nonfinite += u32::from(!finite);
    }
    wide(
        #[inline(always)]
        || {
            let mut max = [0u32; SCAN_LANES];
            let mut total = 0u64;
            // u32 lane counters cannot wrap within a block this short.
            for block in src.chunks(1 << 20) {
                let mut nonfinite = [0u32; SCAN_LANES];
                let (rows, tail) = block.as_chunks::<SCAN_LANES>();
                for row in rows {
                    for ((&v, max), nonfinite) in row.iter().zip(&mut max).zip(&mut nonfinite) {
                        lane(v, max, nonfinite);
                    }
                }
                for &v in tail {
                    lane(v, &mut max[0], &mut nonfinite[0]);
                }
                total += nonfinite.iter().map(|&n| u64::from(n)).sum::<u64>();
            }
            (f32::from_bits(max.into_iter().max().unwrap_or(0)), total)
        },
    )
}

/// Values decoded per block of the encode statistics pass (stays in L1
/// between the decode and the fold).
const STATS_BLOCK: usize = 1024;

/// A 3-D field resident as 16-bit codes, one calibrated codec per padded
/// x-plane. Same halo convention as [`Field3`]; plane indices are in
/// *padded* x space (`0 .. dims.nx + 2*halo`), matching the contiguous
/// x-major layout the driver's slab loop streams through.
#[derive(Debug, Clone)]
pub struct ResidentField3 {
    interior: Dims3,
    padded: Dims3,
    halo: usize,
    cache: CodecCache,
    plane_codecs: Vec<Codec>,
    plane_buckets: Vec<i32>,
    plane_max: Vec<f32>,
    data: Vec<u16>,
}

/// Equality is over the *payload* — dims, per-plane buckets, and stored
/// codes — not over incidental cache state (which depends on visit order).
impl PartialEq for ResidentField3 {
    fn eq(&self, other: &Self) -> bool {
        self.interior == other.interior
            && self.halo == other.halo
            && self.plane_buckets == other.plane_buckets
            && self.data == other.data
    }
}

impl ResidentField3 {
    /// Allocate with every plane in the zero bucket.
    pub fn new(dims: Dims3, halo: usize, base: Codec) -> Self {
        let padded = dims.padded(halo);
        let mut cache = CodecCache::new(base);
        let zero_codec = cache.get(i32::MIN);
        let zero = zero_codec.encode(0.0);
        Self {
            interior: dims,
            padded,
            halo,
            cache,
            plane_codecs: vec![zero_codec; padded.nx],
            plane_buckets: vec![i32::MIN; padded.nx],
            plane_max: vec![0.0; padded.nx],
            data: vec![zero; padded.len()],
        }
    }

    /// Compress an existing f32 field plane by plane.
    pub fn from_field(f: &Field3, base: Codec) -> Self {
        let mut out = Self::new(f.dims(), f.halo(), base);
        for p in 0..out.padded.nx {
            out.encode_plane(p, f.plane(p));
        }
        out
    }

    /// Re-encode an f32 field under *pinned* per-plane buckets — the
    /// checkpoint-restore path. Because calibrated codecs are round-trip
    /// idempotent on codes, re-encoding a decoded field under the buckets
    /// it was decoded with reproduces the stored codes bit for bit.
    pub fn from_field_with_buckets(f: &Field3, base: Codec, buckets: &[i32]) -> Self {
        let mut out = Self::new(f.dims(), f.halo(), base);
        assert_eq!(buckets.len(), out.padded.nx, "one bucket per padded plane");
        for (p, &bucket) in buckets.iter().enumerate() {
            out.encode_plane_with_bucket(p, f.plane(p), bucket);
        }
        out
    }

    /// Decompress into a new f32 field.
    pub fn to_field(&self) -> Field3 {
        let mut f = Field3::new(self.interior, self.halo);
        for p in 0..self.padded.nx {
            self.decode_plane_into(p, f.plane_mut(p));
        }
        f
    }

    /// Interior extents.
    pub fn dims(&self) -> Dims3 {
        self.interior
    }

    /// Halo width.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Number of padded x-planes.
    pub fn plane_count(&self) -> usize {
        self.padded.nx
    }

    /// Values per padded plane (`padded.ny * padded.nz`).
    pub fn plane_len(&self) -> usize {
        self.padded.ny * self.padded.nz
    }

    /// Per-plane binade buckets (the checkpoint sidecar payload).
    pub fn plane_buckets(&self) -> &[i32] {
        &self.plane_buckets
    }

    /// Advisory per-plane max-abs recorded at the last encode.
    pub fn plane_max(&self) -> &[f32] {
        &self.plane_max
    }

    /// Stored bytes — the capacity win over the f32 field it replaces.
    pub fn stored_bytes(&self) -> usize {
        self.data.len() * 2
    }

    /// Largest advisory plane max-abs (gauge support).
    pub fn max_abs(&self) -> f32 {
        self.plane_max.iter().fold(0.0f32, |a, &b| a.max(b))
    }

    #[inline]
    fn plane_range(&self, p: usize) -> std::ops::Range<usize> {
        let len = self.plane_len();
        p * len..(p + 1) * len
    }

    /// Decode padded plane `p` into `dst` (length [`plane_len`](Self::plane_len)).
    pub fn decode_plane_into(&self, p: usize, dst: &mut [f32]) {
        let codec = self.plane_codecs[p];
        codec.decode_slice(&self.data[self.plane_range(p)], dst);
    }

    /// Encode `src` as padded plane `p`, calibrating the codec from the
    /// plane's own max-abs. The returned statistics hold what the
    /// calibration scan saw (`max_abs`, `count`, `nonfinite`); the two
    /// error fields stay zero — measuring them costs a decode of the
    /// plane, see [`encode_plane_sampled`](Self::encode_plane_sampled).
    pub fn encode_plane(&mut self, p: usize, src: &[f32]) -> EncodeStats {
        let scan = finite_max_abs(src);
        self.encode_scanned_plane(p, src, max_abs_bucket(scan.0), scan)
    }

    /// [`encode_plane`](Self::encode_plane) plus the round-trip error
    /// statistics of the plane, for the steps whose statistics the health
    /// monitor consumes. The stored codes, bucket and `plane_max` are the
    /// ones `encode_plane` leaves.
    pub fn encode_plane_sampled(&mut self, p: usize, src: &[f32]) -> EncodeStats {
        let mut stats = self.encode_plane(p, src);
        (stats.max_err, stats.sum_sq_err) = self.roundtrip_errors(p, src);
        stats
    }

    /// Encode `src` as padded plane `p` under an explicit bucket (restore
    /// path, and the escalation arm of [`apply_adds`](Self::apply_adds)).
    pub fn encode_plane_with_bucket(&mut self, p: usize, src: &[f32], bucket: i32) {
        self.encode_scanned_plane(p, src, bucket, finite_max_abs(src));
    }

    /// The one plane encoder: [`Codec16::encode_slice`] into the store
    /// under `bucket`'s calibrated codec.
    fn encode_scanned_plane(
        &mut self,
        p: usize,
        src: &[f32],
        bucket: i32,
        (max_abs, nonfinite): (f32, u64),
    ) -> EncodeStats {
        assert_eq!(src.len(), self.plane_len(), "plane length mismatch");
        let codec = self.cache.get(bucket);
        let range = self.plane_range(p);
        codec.encode_slice(src, &mut self.data[range]);
        self.plane_codecs[p] = codec;
        self.plane_buckets[p] = bucket;
        self.plane_max[p] = max_abs;
        EncodeStats {
            max_abs,
            max_err: 0.0,
            sum_sq_err: 0.0,
            count: src.len() as u64 - nonfinite,
            nonfinite,
        }
    }

    /// `(max_err, sum_sq_err)` of stored plane `p` against `src`, the
    /// values it was encoded from: decodes the codes block by block and
    /// folds the errors in element order (one f64 chain, so the sum is a
    /// fixed function of the plane).
    fn roundtrip_errors(&self, p: usize, src: &[f32]) -> (f32, f64) {
        let codec = self.plane_codecs[p];
        let codes = &self.data[self.plane_range(p)];
        let (mut max_err, mut sum_sq_err) = (0.0f32, 0.0f64);
        let mut decoded = [0.0f32; STATS_BLOCK];
        for (vs, cs) in src.chunks(STATS_BLOCK).zip(codes.chunks(STATS_BLOCK)) {
            let ds = &mut decoded[..vs.len()];
            codec.decode_slice(cs, ds);
            for (&v, &d) in vs.iter().zip(ds.iter()) {
                // Nonfinite values contribute a zero error (adding 0.0
                // leaves both accumulators unchanged, bit for bit).
                let err = if v.is_finite() { (d - v).abs() } else { 0.0 };
                max_err = max_err.max(err);
                sum_sq_err += (err as f64) * (err as f64);
            }
        }
        (max_err, sum_sq_err)
    }

    #[inline(always)]
    fn off(&self, x: usize, y: usize, z: usize) -> usize {
        self.padded.offset(x + self.halo, y + self.halo, z + self.halo)
    }

    /// Decode one interior value (seismogram taps, PGV scans).
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        self.plane_codecs[x + self.halo].decode(self.data[self.off(x, y, z)])
    }

    /// Batched read-modify-write of scattered interior cells — the
    /// source-injection path. `adds` are `(x, y, z, increment)` applied in
    /// order. As long as every incremented value stays within its plane's
    /// current bucket the write is a single-code encode; only a bucket
    /// escalation re-encodes the affected plane (with the widened codec),
    /// instead of every write thrashing a whole z-run as
    /// `CompressedField3::encode_z_run` would.
    ///
    /// The escalate-or-not decision depends only on the stored codes and
    /// `adds` — never on the advisory `plane_max` — so a restored run
    /// makes exactly the choices the uninterrupted run made.
    pub fn apply_adds(&mut self, adds: &[(usize, usize, usize, f32)]) {
        for &(x, y, z, v) in adds {
            let p = x + self.halo;
            let off = self.off(x, y, z);
            let codec = self.plane_codecs[p];
            let new = codec.decode(self.data[off]) + v;
            let b = value_bucket(new);
            if b <= self.plane_buckets[p] {
                self.data[off] = codec.encode(new);
                self.plane_max[p] = self.plane_max[p].max(new.abs());
            } else {
                // Escalate: widen the plane's codec to cover `new`, then
                // re-encode the whole plane once under the new bucket.
                let mut buf = vec![0.0f32; self.plane_len()];
                self.decode_plane_into(p, &mut buf);
                buf[off - p * self.plane_len()] = new;
                self.encode_plane_with_bucket(p, &buf, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::calibrated_codec;
    use crate::stats::FieldStats;

    fn wavefield(d: Dims3) -> Field3 {
        let mut f = Field3::new(d, 2);
        f.fill_with(|x, y, z| {
            ((x as f32 * 0.7).sin() * (y as f32 * 0.3).cos() + z as f32 * 0.01) * 0.2
        });
        f
    }

    fn bases() -> [Codec; 3] {
        let empty = FieldStats::empty();
        [
            Codec::paper_assignment("xx", &empty),  // Adaptive
            Codec::paper_assignment("lam", &empty), // Norm
            Codec::paper_assignment("u", &empty),   // F16
        ]
    }

    #[test]
    fn roundtrip_stays_within_binade_relative_bound() {
        let d = Dims3::new(6, 5, 8);
        let f = wavefield(d);
        for base in bases() {
            let r = ResidentField3::from_field(&f, base);
            let g = r.to_field();
            let err = f.max_abs_diff(&g);
            // Calibrated per-plane codecs keep ≥10 mantissa bits over a
            // window anchored at each plane's own binade.
            let bound = f.max_abs() * 2.0f32.powi(-9);
            assert!(err <= bound, "{base:?}: err {err} vs bound {bound}");
        }
    }

    #[test]
    fn plane_path_matches_whole_field_encode_bitwise() {
        // Encoding plane-by-plane must agree bit for bit with encoding the
        // whole field through the same calibrated per-plane codecs.
        let d = Dims3::new(5, 4, 6);
        let f = wavefield(d);
        for base in bases() {
            let r = ResidentField3::from_field(&f, base);
            for p in 0..r.plane_count() {
                let codec = calibrated_codec(&base, r.plane_buckets()[p]);
                assert_eq!(codec, r.plane_codecs[p]);
                let mut dec = vec![0.0f32; r.plane_len()];
                r.decode_plane_into(p, &mut dec);
                for (i, (&v, &got)) in f.plane(p).iter().zip(&dec).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        codec.decode(codec.encode(v)).to_bits(),
                        "p={p} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn decode_reencode_under_pinned_buckets_is_byte_identical() {
        let d = Dims3::new(6, 5, 7);
        let mut f = wavefield(d);
        // Give planes wildly different magnitudes so buckets differ.
        for x in 0..d.nx {
            let s = 10.0f32.powi(x as i32 - 3);
            for y in 0..d.ny {
                for z in 0..d.nz {
                    let v = f.get(x, y, z) * s;
                    f.set(x, y, z, v);
                }
            }
        }
        for base in bases() {
            let r = ResidentField3::from_field(&f, base);
            let decoded = r.to_field();
            let r2 = ResidentField3::from_field_with_buckets(&decoded, base, r.plane_buckets());
            assert_eq!(r, r2, "{base:?}: restore path must reproduce codes exactly");
        }
    }

    #[test]
    fn apply_adds_matches_decode_modify_encode() {
        let d = Dims3::new(6, 5, 7);
        let f = wavefield(d);
        for base in bases() {
            let mut r = ResidentField3::from_field(&f, base);
            // In-bucket adds: tiny nudges that stay inside each plane's binade.
            let adds = [(1usize, 2usize, 3usize, 1.0e-3f32), (4, 0, 6, -2.0e-3)];
            let before: Vec<i32> = r.plane_buckets().to_vec();
            r.apply_adds(&adds);
            assert_eq!(r.plane_buckets(), &before[..], "no escalation for in-bucket adds");
            for &(x, y, z, v) in &adds {
                let expect = {
                    let codec = r.plane_codecs[x + r.halo()];
                    codec.decode(codec.encode(codec.decode(codec.encode(f.get(x, y, z))) + v))
                };
                assert_eq!(r.get(x, y, z).to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn apply_adds_escalates_bucket_once_per_plane() {
        let d = Dims3::new(4, 4, 4);
        let base = bases()[0];
        let mut r = ResidentField3::new(d, 2, base);
        assert!(r.plane_buckets().iter().all(|&b| b == i32::MIN));
        // A large source injection into a zero plane must widen its codec.
        r.apply_adds(&[(1, 1, 1, 3.5)]);
        let p = 1 + r.halo();
        assert_eq!(r.plane_buckets()[p], 1, "3.5 ∈ [2,4) → bucket 1");
        let got = r.get(1, 1, 1);
        assert!((got - 3.5).abs() < 3.5 * 1e-3, "got {got}");
        // Neighbours in the same plane stay zero.
        assert_eq!(r.get(1, 0, 0), 0.0);
        // Other planes untouched.
        assert_eq!(r.plane_buckets()[p + 1], i32::MIN);
    }

    #[test]
    fn zero_field_stores_and_reports_zero() {
        let d = Dims3::new(4, 3, 5);
        for base in bases() {
            let r = ResidentField3::new(d, 2, base);
            assert_eq!(r.max_abs(), 0.0);
            assert_eq!(r.get(0, 0, 0), 0.0);
            let f = r.to_field();
            assert_eq!(f.max_abs(), 0.0);
            assert_eq!(r.stored_bytes() * 2, f.raw().len() * 4);
        }
    }

    #[test]
    fn encode_stats_feed_health() {
        let d = Dims3::new(4, 4, 4);
        let f = wavefield(d);
        let mut r = ResidentField3::new(d, 2, bases()[1]);
        let mut total = EncodeStats::empty();
        for p in 0..r.plane_count() {
            total.merge(&r.encode_plane_sampled(p, f.plane(p)));
        }
        assert_eq!(total.count, (r.plane_count() * r.plane_len()) as u64);
        assert_eq!(total.nonfinite, 0);
        assert!(total.max_abs > 0.0);
        assert!(total.rel_err() > 0.0 && total.rel_err() < 2.0f32.powi(-9));
        assert!(total.rms_err() <= total.max_err);
    }

    #[test]
    fn nonfinite_values_are_counted_not_propagated() {
        let d = Dims3::new(3, 3, 3);
        let mut f = Field3::new(d, 2);
        f.set(1, 1, 1, f32::NAN);
        f.set(2, 2, 2, f32::INFINITY);
        f.set(0, 0, 0, 0.25);
        let mut r = ResidentField3::new(d, 2, bases()[0]);
        let mut total = EncodeStats::empty();
        for p in 0..r.plane_count() {
            total.merge(&r.encode_plane_sampled(p, f.plane(p)));
        }
        assert_eq!(total.nonfinite, 2);
        assert!((total.max_abs - 0.25).abs() < 1e-7);
        assert!(total.rel_err().is_finite());
    }
}

//! Parallel codec loops (the CPE-pool analogue of Fig. 5c).
//!
//! On the Sunway port every (de)compression loop runs on the 64-CPE pool;
//! here the same loops fan out over the shared Rayon pool. Each chunk runs
//! the codec's own slice method — the one lane body per codec — and each
//! element is independent, so every function in this module is
//! bit-identical to its serial counterpart in [`Codec16`] regardless of
//! thread count or chunk boundaries.

use crate::Codec16;
use rayon::prelude::*;
use sw_grid::simd::wide;
use sw_grid::Field3;

/// Elements per parallel work unit. Large enough that the per-chunk
/// dispatch overhead vanishes, small enough that a 64³ field (≈280 K
/// padded elements) still splits into plenty of chunks.
pub const PAR_CHUNK: usize = 16 * 1024;

/// Parallel [`Codec16::encode_slice`].
pub fn encode_par<C: Codec16 + Sync>(codec: &C, src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len());
    src.par_chunks(PAR_CHUNK)
        .zip(dst.par_chunks_mut(PAR_CHUNK))
        .for_each(|(s, d)| codec.encode_slice(s, d));
}

/// Parallel [`Codec16::decode_slice`].
pub fn decode_par<C: Codec16 + Sync>(codec: &C, src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    src.par_chunks(PAR_CHUNK)
        .zip(dst.par_chunks_mut(PAR_CHUNK))
        .for_each(|(s, d)| codec.decode_slice(s, d));
}

/// Parallel [`Codec16::roundtrip_slice`].
pub fn roundtrip_par<C: Codec16 + Sync>(codec: &C, data: &mut [f32]) {
    data.par_chunks_mut(PAR_CHUNK).for_each(|chunk| codec.roundtrip_slice(chunk));
}

/// `f` over `items`, results in input order: one pool region when
/// `parallel`, a plain loop on the calling thread otherwise. Each item is
/// evaluated by exactly one call either way, so the result does not
/// depend on the mode or the pool width.
pub fn map_ordered<T: Send, R: Send>(
    items: Vec<T>,
    parallel: bool,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if parallel {
        items.into_par_iter().map(f).collect()
    } else {
        items.into_iter().map(f).collect()
    }
}

/// Lane accumulators of [`MaxAbs`]: two AVX2 registers, so two
/// independent max chains, and a whole number of rows of every mesh
/// side that is a multiple of 16.
const MAX_LANES: usize = 16;

/// A max-abs fold carried across rows: `f32::max` skips NaN and reports
/// ±Inf, and max is associative and commutative over the magnitudes it
/// sees, so any visit order — a plane's rows in turn, or each row the
/// moment a kernel has stored it — gives the same bits. One set of lane
/// maxima is carried across rows: a row is too short to amortize a
/// reduction of its own at the wide tiers. Call it inside
/// [`wide`](sw_grid::simd::wide); its methods inline into the caller.
#[derive(Clone, Copy)]
pub struct MaxAbs([f32; MAX_LANES]);

impl Default for MaxAbs {
    fn default() -> Self {
        Self([0.0; MAX_LANES])
    }
}

impl MaxAbs {
    /// Fold `row`'s magnitudes in.
    #[inline(always)]
    pub fn row(&mut self, row: &[f32]) {
        let (chunks, tail) = row.as_chunks::<MAX_LANES>();
        for chunk in chunks {
            for (m, &v) in self.0.iter_mut().zip(chunk) {
                *m = m.max(v.abs());
            }
        }
        for (m, &v) in self.0.iter_mut().zip(tail) {
            *m = m.max(v.abs());
        }
    }

    /// The max-abs of every row folded in (0 for none).
    #[inline(always)]
    pub fn get(self) -> f32 {
        self.0.into_iter().fold(0.0, f32::max)
    }
}

/// Max-abs over the interior rows of padded x-plane `x + halo`.
fn plane_max_abs(f: &Field3, x: usize) -> f32 {
    wide(
        #[inline(always)]
        || {
            let mut max = MaxAbs::default();
            for y in 0..f.dims().ny {
                max.row(f.row(x, y));
            }
            max.get()
        },
    )
}

/// Interior max-abs of each field — the exact counterpart of
/// [`Field3::max_abs`], and what the per-plane maxima of the step's
/// last-store walks fold to (they replaced this scan as the codec scale;
/// it stays as their reference and the codec benchmark's). All fields
/// are scanned as **one** flattened pass over `(field, x-plane)` items:
/// one pool region when `parallel`, a plain loop otherwise.
pub fn fields_max_abs(fields: &[&Field3], parallel: bool) -> Vec<f32> {
    let items: Vec<(usize, usize)> = fields
        .iter()
        .enumerate()
        .flat_map(|(i, f)| (0..f.dims().nx).map(move |x| (i, x)))
        .collect();
    let partials = map_ordered(items, parallel, |(i, x)| (i, plane_max_abs(fields[i], x)));
    let mut out = vec![0.0f32; fields.len()];
    for (i, m) in partials {
        out[i] = out[i].max(m);
    }
    out
}

/// Parallel interior maximum absolute value of one field.
pub fn field_max_abs_par(f: &Field3) -> f32 {
    fields_max_abs(&[f], true)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveCodec, Codec, F16Codec, FieldStats, NormCodec};

    fn noisy(n: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 2_654_435_761) % 1_000_003) as f32 - 5e5) * 1e-4).collect()
    }

    fn codecs(data: &[f32]) -> Vec<Codec> {
        let stats = FieldStats::of_slice(data);
        vec![
            Codec::F16(F16Codec),
            Codec::Adaptive(AdaptiveCodec::from_stats(&stats)),
            Codec::Norm(NormCodec::from_stats(&stats)),
        ]
    }

    #[test]
    fn encode_decode_par_match_serial_bitwise() {
        let data = noisy(3 * PAR_CHUNK + 777);
        for codec in codecs(&data) {
            let mut ser_codes = vec![0u16; data.len()];
            codec.encode_slice(&data, &mut ser_codes);
            let mut par_codes = vec![0u16; data.len()];
            encode_par(&codec, &data, &mut par_codes);
            assert_eq!(ser_codes, par_codes);

            let mut ser_out = vec![0.0f32; data.len()];
            codec.decode_slice(&ser_codes, &mut ser_out);
            let mut par_out = vec![0.0f32; data.len()];
            decode_par(&codec, &par_codes, &mut par_out);
            assert_eq!(
                ser_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn roundtrip_par_matches_serial_bitwise() {
        let data = noisy(2 * PAR_CHUNK + 13);
        for codec in codecs(&data) {
            let mut serial = data.clone();
            for v in serial.iter_mut() {
                *v = codec.decode(codec.encode(*v));
            }
            let mut par = data.clone();
            roundtrip_par(&codec, &mut par);
            let mut slice = data.clone();
            codec.roundtrip_slice(&mut slice);
            assert_eq!(slice, par);
            assert_eq!(
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn field_max_abs_par_matches_serial() {
        let mut f = sw_grid::Field3::new(sw_grid::Dims3::new(9, 7, 11), 2);
        f.fill_with(|x, y, z| (x * 13 + y * 5 + z) as f32 - 40.0);
        f.set_i(-1, -1, -1, 1.0e9); // halo value must be ignored, as in max_abs
        assert_eq!(f.max_abs(), field_max_abs_par(&f));
        // NaN is skipped, ±Inf is reported, several fields keep their order.
        let mut g = f.clone();
        g.set(3, 3, 3, f32::NAN);
        let mut h = f.clone();
        h.set(8, 6, 10, f32::NEG_INFINITY);
        for parallel in [false, true] {
            let got = fields_max_abs(&[&f, &g, &h], parallel);
            assert_eq!(got, vec![f.max_abs(), g.max_abs(), f32::INFINITY]);
        }
    }
}

//! The §6.5 in-place round trip over whole arrays, with optional error
//! statistics for the health monitor's compression error budget.
//!
//! [`roundtrip_arrays`] is the one call path: every array is cut into
//! [`PAR_CHUNK`]-sized chunks, every chunk goes through
//! [`Codec16::roundtrip_slice`] (the codec's lane body), and all chunks
//! of all arrays form one flattened pass — one pool region, or a plain
//! loop. With statistics on, a companion pass per chunk accumulates the
//! max absolute error, the error sum of squares, and the max |original|
//! that fixes the field's binade — in a fixed blocked order *within*
//! each chunk (see [`chunk_stats`]) — and the per-chunk partials are
//! folded **in chunk order**, so serial and parallel runs are
//! bit-identical for any thread count: the same deterministic-reduction
//! discipline the solver's energy probe uses.

use crate::par::PAR_CHUNK;
use crate::Codec16;
use rayon::prelude::*;
use sw_grid::simd::wide;

/// Accumulated round-trip error statistics for one array.
///
/// Non-finite originals are round-tripped like any other value but are
/// excluded from the statistics (their "error" is meaningless and a
/// single NaN would poison the RMS); the health monitor's field scans
/// detect and report them separately.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoundtripError {
    /// max |decoded − original| over finite entries.
    pub max_abs_err: f64,
    /// Σ (decoded − original)² over finite entries.
    pub sum_sq_err: f64,
    /// Finite entries processed.
    pub count: u64,
    /// max |original| over finite entries.
    pub max_abs_value: f64,
}

impl RoundtripError {
    pub fn rms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_sq_err / self.count as f64).sqrt()
        }
    }
}

/// Fold `b` into `a`, preserving the order-sensitive sum.
fn merge(a: RoundtripError, b: RoundtripError) -> RoundtripError {
    RoundtripError {
        max_abs_err: if b.max_abs_err > a.max_abs_err { b.max_abs_err } else { a.max_abs_err },
        sum_sq_err: a.sum_sq_err + b.sum_sq_err,
        count: a.count + b.count,
        max_abs_value: if b.max_abs_value > a.max_abs_value {
            b.max_abs_value
        } else {
            a.max_abs_value
        },
    }
}

/// Elements buffered on the stack per inner block: small enough that
/// the originals stay L1-resident between the round-trip pass and the
/// stats pass, large enough to amortize the loop split.
const STATS_BLOCK: usize = 1024;

/// One chunk's round trip and statistics, run inside
/// [`wide`](sw_grid::simd::wide): the stats pass is compiled for the
/// host's lane tier like the codec bodies are.
fn chunk_stats<C: Codec16>(codec: &C, chunk: &mut [f32]) -> RoundtripError {
    wide(
        #[inline(always)]
        || chunk_stats_body(codec, chunk),
    )
}

#[inline(always)]
fn chunk_stats_body<C: Codec16>(codec: &C, chunk: &mut [f32]) -> RoundtripError {
    // Three passes per stack-resident block instead of one fused loop:
    // the round-trip pass stays as tight as the plain (stats-free)
    // round trip; an element-wise pass writes each value's error (+0
    // for a non-finite original) and |original| (0 likewise) and counts
    // the non-finite ones, a loop with nothing carried but an integer
    // sum; and a lane pass folds them into four accumulator lanes —
    // lane = position mod 4 within each block, the block's tail on
    // lane 0 — each a `[_; 4]` step, so a lane tier runs a group as one
    // vector. The lane assignment is a fixed function of element
    // position, so the statistics remain bit-identical for any thread
    // count and lane tier — only the (documented) summation order
    // differs from a naive single-accumulator loop.
    let mut lanes = Lanes::default();
    let mut nonfinite = 0u64;
    let mut scratch = [0.0f32; STATS_BLOCK];
    let mut errors = [0.0f64; STATS_BLOCK];
    let mut values = [0.0f32; STATS_BLOCK];
    for block in chunk.chunks_mut(STATS_BLOCK) {
        let n = block.len();
        let orig = &mut scratch[..n];
        orig.copy_from_slice(block);
        codec.roundtrip_slice(block);
        let (errors, values) = (&mut errors[..n], &mut values[..n]);
        let pairs = orig.iter().zip(block.iter());
        for ((err, val), (&o, &d)) in errors.iter_mut().zip(values.iter_mut()).zip(pairs) {
            let fin = o.is_finite();
            *err = if fin { f64::from(d) - f64::from(o) } else { 0.0 };
            *val = if fin { o.abs() } else { 0.0 };
            nonfinite += u64::from(!fin);
        }
        let mut e4 = errors.chunks_exact(4);
        let mut v4 = values.chunks_exact(4);
        for (es, vs) in (&mut e4).zip(&mut v4) {
            lanes.fold(es.try_into().expect("fours"), vs.try_into().expect("fours"));
        }
        for (&e, &v) in e4.remainder().iter().zip(v4.remainder()) {
            lanes.fold(&[e, 0.0, 0.0, 0.0], &[v, 0.0, 0.0, 0.0]);
        }
    }
    RoundtripError {
        max_abs_err: lanes.max_err.iter().fold(0.0f64, |a, &b| if b > a { b } else { a }),
        sum_sq_err: (lanes.sq[0] + lanes.sq[1]) + (lanes.sq[2] + lanes.sq[3]),
        count: chunk.len() as u64 - nonfinite,
        max_abs_value: f64::from(
            lanes.max_val.iter().fold(0.0f32, |a, &b| if b > a { b } else { a }),
        ),
    }
}

/// The stats pass's four accumulator lanes.
#[derive(Default)]
struct Lanes {
    sq: [f64; 4],
    max_err: [f64; 4],
    max_val: [f32; 4],
}

impl Lanes {
    /// Fold one group of errors and |originals|, lane `l` taking element
    /// `l`. Both maxima keep `v > m` of non-negative operands; a lane
    /// padded with zeros (the tail, which rides lane 0 alone) adds +0
    /// everywhere.
    #[inline(always)]
    fn fold(&mut self, err: &[f64; 4], val: &[f32; 4]) {
        for l in 0..4 {
            self.sq[l] += err[l] * err[l];
            // |err| is NaN only where the decode is, which `v > m`
            // never keeps.
            let e = err[l].abs();
            self.max_err[l] = if e > self.max_err[l] { e } else { self.max_err[l] };
            self.max_val[l] = if val[l] > self.max_val[l] { val[l] } else { self.max_val[l] };
        }
    }
}

/// Round-trip every `(array, codec)` pair in place as one flattened
/// pass over `(array, PAR_CHUNK)` items: a single pool region when
/// `parallel`, a plain loop over the same items otherwise. Returns one
/// [`RoundtripError`] per array — the chunk partials folded in chunk
/// order when `stats` is set, all-zero (and no stats pass run) when not.
/// The stored values never depend on `parallel` or `stats`.
pub fn roundtrip_arrays<C: Codec16 + Sync>(
    work: Vec<(&mut [f32], &C)>,
    parallel: bool,
    stats: bool,
) -> Vec<RoundtripError> {
    let arrays = work.len();
    let items: Vec<(usize, &mut [f32], &C)> = work
        .into_iter()
        .enumerate()
        .flat_map(|(i, (data, codec))| data.chunks_mut(PAR_CHUNK).map(move |c| (i, c, codec)))
        .collect();
    let kernel = |(i, chunk, codec): (usize, &mut [f32], &C)| {
        if stats {
            (i, chunk_stats(codec, chunk))
        } else {
            codec.roundtrip_slice(chunk);
            (i, RoundtripError::default())
        }
    };
    let partials: Vec<(usize, RoundtripError)> = if parallel {
        items.into_par_iter().map(kernel).collect()
    } else {
        items.into_iter().map(kernel).collect()
    };
    let mut out = vec![RoundtripError::default(); arrays];
    for (i, partial) in partials {
        out[i] = merge(out[i], partial);
    }
    out
}

/// Serial in-place round trip of one array with error statistics. The
/// stored values after the call are identical to [`Codec16`]
/// round-tripping.
pub fn roundtrip_err_stats<C: Codec16 + Sync>(codec: &C, data: &mut [f32]) -> RoundtripError {
    roundtrip_arrays(vec![(data, codec)], false, true)[0]
}

/// Parallel variant of [`roundtrip_err_stats`]; bit-identical to it
/// (values and statistics) because partials are collected per chunk
/// and folded in chunk order.
pub fn roundtrip_err_stats_par<C: Codec16 + Sync>(codec: &C, data: &mut [f32]) -> RoundtripError {
    roundtrip_arrays(vec![(data, codec)], true, true)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Codec, FieldStats};

    fn test_codec() -> Codec {
        let mut stats = FieldStats::empty();
        for v in [-4.0f32, -0.5, 0.5, 4.0] {
            stats.observe(v);
        }
        Codec::paper_assignment("vel", &stats)
    }

    fn test_data(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32 * 0.37).sin() * 3.7) + 0.01).collect()
    }

    #[test]
    fn stats_match_a_reference_two_pass_computation() {
        let codec = test_codec();
        let mut data = test_data(5000);
        let orig = data.clone();
        let s = roundtrip_err_stats(&codec, &mut data);

        let mut max_err = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut max_abs = 0.0f64;
        for (&o, &d) in orig.iter().zip(&data) {
            let err = f64::from(d) - f64::from(o);
            max_err = max_err.max(err.abs());
            sum_sq += err * err;
            max_abs = max_abs.max(f64::from(o.abs()));
        }
        assert_eq!(s.max_abs_err, max_err);
        // The blocked four-lane accumulation sums in a different (but
        // fixed) order than the naive loop, so compare to rounding.
        assert!((s.sum_sq_err - sum_sq).abs() <= 1e-12 * sum_sq, "{} vs {sum_sq}", s.sum_sq_err);
        assert_eq!(s.count, 5000);
        assert_eq!(s.max_abs_value, max_abs);
        assert!(s.rms() > 0.0 && s.rms() <= s.max_abs_err);
    }

    #[test]
    fn roundtrip_values_match_the_plain_roundtrip() {
        let codec = test_codec();
        let mut fused = test_data(3000);
        let mut plain = fused.clone();
        roundtrip_err_stats(&codec, &mut fused);
        for v in &mut plain {
            *v = codec.decode(codec.encode(*v));
        }
        assert_eq!(fused, plain);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Span several PAR_CHUNKs so the parallel fold genuinely merges.
        let codec = test_codec();
        let mut serial = test_data(3 * PAR_CHUNK + 123);
        let mut parallel = serial.clone();
        let s = roundtrip_err_stats(&codec, &mut serial);
        let p = roundtrip_err_stats_par(&codec, &mut parallel);
        assert_eq!(serial, parallel);
        assert_eq!(s.max_abs_err.to_bits(), p.max_abs_err.to_bits());
        assert_eq!(s.sum_sq_err.to_bits(), p.sum_sq_err.to_bits());
        assert_eq!(s.count, p.count);
        assert_eq!(s.max_abs_value.to_bits(), p.max_abs_value.to_bits());
    }

    #[test]
    fn non_finite_entries_are_excluded_from_stats() {
        let codec = test_codec();
        let mut data = vec![1.0f32, f32::NAN, 2.0, f32::INFINITY];
        let s = roundtrip_err_stats(&codec, &mut data);
        assert_eq!(s.count, 2);
        assert!(s.sum_sq_err.is_finite());
        assert!(s.max_abs_err.is_finite());
        assert_eq!(s.max_abs_value, 2.0);
    }

    #[test]
    fn empty_input_is_clean_zero() {
        let s = roundtrip_err_stats(&test_codec(), &mut []);
        assert_eq!(s, RoundtripError::default());
        assert_eq!(s.rms(), 0.0);
    }
}

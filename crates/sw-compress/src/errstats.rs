//! The §6.5 in-place round trip, one work item at a time, with optional
//! error statistics for the health monitor's compression error budget.
//!
//! [`roundtrip_item`] is the unit every caller walks: the step's round
//! trip hands it one padded x-plane of one wavefield per item (and scans
//! the decoded plane for the watchdog while it is still in cache), and
//! [`roundtrip_err_stats`] / [`roundtrip_err_stats_par`] hand it
//! [`PAR_CHUNK`]-sized chunks of one array. An item goes through
//! [`Codec16::roundtrip_slice`] (the codec's lane body). With statistics
//! on, a companion pass accumulates the max absolute error, the error
//! sum of squares, and the max |original| that fixes the field's binade
//! — in a fixed blocked order *within* the item (see [`pair_stats_body`]) —
//! and callers fold the item partials **in item order**
//! ([`RoundtripError::merge`]), so serial and parallel runs are
//! bit-identical for any thread count: the same deterministic-reduction
//! discipline the solver's energy probe uses.

use crate::par::{map_ordered, PAR_CHUNK};
use crate::Codec16;
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

    /// `a` with the next item's partial `b` folded in: the sum is
    /// order-sensitive, so partials fold in item order.
    pub fn merge(a: RoundtripError, b: RoundtripError) -> RoundtripError {
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
}

/// Elements buffered on the stack per inner block: small enough that
/// the originals stay L1-resident between the round-trip pass and the
/// stats pass, large enough to amortize the loop split.
const STATS_BLOCK: usize = 1024;

/// Two items' round trips and statistics in lockstep, run inside
/// [`wide`](sw_grid::simd::wide): the stats pass is compiled for the
/// host's lane tier like the codec bodies are. Each item's statistics
/// are the ones it gets alone; see [`pair_stats_body`].
fn pair_stats<C: Codec16>(codec: &C, items: [&mut [f32]; 2]) -> [RoundtripError; 2] {
    wide(
        #[inline(always)]
        || pair_stats_body(codec, items),
    )
}

#[inline(always)]
fn pair_stats_body<C: Codec16>(codec: &C, items: [&mut [f32]; 2]) -> [RoundtripError; 2] {
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
    //
    // The lane pass is latency-bound: each group waits on the last one's
    // sum and maxima. Two items' blocks are therefore folded in
    // lockstep, each into its own lanes, so the two chains overlap;
    // each item's groups still fold in its own order, so its statistics
    // are the ones it gets alone (EXPERIMENTS "The round trip's
    // neighbours ride it": the lane pass was half of the statistics'
    // cost, and two chains took a third of it off).
    let lens = items.each_ref().map(|item| item.len() as u64);
    let mut lanes = [Lanes::default(), Lanes::default()];
    let mut nonfinite = [0u64; 2];
    let mut scratch = [0.0f32; STATS_BLOCK];
    let mut errors = [[0.0f64; STATS_BLOCK]; 2];
    let mut values = [[0.0f32; STATS_BLOCK]; 2];
    let mut blocks = items.map(|item| item.chunks_mut(STATS_BLOCK));
    loop {
        let mut n = [0usize; 2];
        for (i, blocks) in blocks.iter_mut().enumerate() {
            let Some(block) = blocks.next() else { continue };
            n[i] = block.len();
            let orig = &mut scratch[..n[i]];
            orig.copy_from_slice(block);
            codec.roundtrip_slice(block);
            let (errors, values) = (&mut errors[i][..n[i]], &mut values[i][..n[i]]);
            let pairs = orig.iter().zip(block.iter());
            let mut bad = 0u64;
            for ((err, val), (&o, &d)) in errors.iter_mut().zip(values.iter_mut()).zip(pairs) {
                let fin = o.is_finite();
                *err = if fin { f64::from(d) - f64::from(o) } else { 0.0 };
                *val = if fin { o.abs() } else { 0.0 };
                bad += u64::from(!fin);
            }
            nonfinite[i] += bad;
        }
        if n == [0, 0] {
            break;
        }
        // Whole groups in lockstep over the length both blocks have,
        // then either block's remaining groups and its tail alone.
        let common = n[0].min(n[1]) / 4 * 4;
        let groups = |i: usize, range: std::ops::Range<usize>| {
            let es = errors[i][range.clone()].chunks_exact(4);
            es.zip(values[i][range].chunks_exact(4)).map(|(es, vs)| {
                (<&[f64; 4]>::try_from(es).expect("fours"), vs.try_into().expect("fours"))
            })
        };
        let [first, second] = &mut lanes;
        for ((ea, va), (eb, vb)) in groups(0, 0..common).zip(groups(1, 0..common)) {
            first.fold(ea, va);
            second.fold(eb, vb);
        }
        for (i, lanes) in lanes.iter_mut().enumerate() {
            let whole = n[i] / 4 * 4;
            for (es, vs) in groups(i, common..whole) {
                lanes.fold(es, vs);
            }
            for (&e, &v) in errors[i][whole..n[i]].iter().zip(&values[i][whole..n[i]]) {
                lanes.fold(&[e, 0.0, 0.0, 0.0], &[v, 0.0, 0.0, 0.0]);
            }
        }
    }
    [0, 1].map(|i| {
        let lanes = &lanes[i];
        RoundtripError {
            max_abs_err: lanes.max_err.iter().fold(0.0f64, |a, &b| if b > a { b } else { a }),
            sum_sq_err: (lanes.sq[0] + lanes.sq[1]) + (lanes.sq[2] + lanes.sq[3]),
            count: lens[i] - nonfinite[i],
            max_abs_value: f64::from(
                lanes.max_val.iter().fold(0.0f32, |a, &b| if b > a { b } else { a }),
            ),
        }
    })
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

/// Round-trip one item in place through `codec`; with `stats`, return
/// its error statistics (all-zero, and no stats pass run, without). The
/// statistics are those of the item's two halves, folded in order: the
/// halves' lane passes run in lockstep. The stored values never depend
/// on `stats`.
pub fn roundtrip_item<C: Codec16>(codec: &C, item: &mut [f32], stats: bool) -> RoundtripError {
    if stats {
        let (first, second) = item.split_at_mut(item.len() / 2);
        let [first, second] = pair_stats(codec, [first, second]);
        RoundtripError::merge(first, second)
    } else {
        codec.roundtrip_slice(item);
        RoundtripError::default()
    }
}

/// `data` as [`PAR_CHUNK`] items, one pool region of chunk pairs when
/// `parallel`, the chunk partials folded in chunk order.
fn chunked<C: Codec16 + Sync>(codec: &C, data: &mut [f32], parallel: bool) -> RoundtripError {
    let mut chunks = data.chunks_mut(PAR_CHUNK);
    let mut pairs = Vec::new();
    while let Some(first) = chunks.next() {
        pairs.push([first, chunks.next().unwrap_or_default()]);
    }
    let partials = map_ordered(pairs, parallel, |pair| pair_stats(codec, pair));
    partials.into_iter().flatten().fold(RoundtripError::default(), RoundtripError::merge)
}

/// Serial in-place round trip of one array with error statistics. The
/// stored values after the call are identical to [`Codec16`]
/// round-tripping.
pub fn roundtrip_err_stats<C: Codec16 + Sync>(codec: &C, data: &mut [f32]) -> RoundtripError {
    chunked(codec, data, false)
}

/// Parallel variant of [`roundtrip_err_stats`]; bit-identical to it
/// (values and statistics) because partials are collected per chunk
/// and folded in chunk order.
pub fn roundtrip_err_stats_par<C: Codec16 + Sync>(codec: &C, data: &mut [f32]) -> RoundtripError {
    chunked(codec, data, true)
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

//! The bit-identity contract of the §6.5 codecs.
//!
//! `sw-compress` implements each 16-bit codec once, as a branch-free lane
//! body that the slice methods run at vector width and `encode`/`decode`
//! run at width 1. The branchy scalar conversions those bodies replaced
//! are kept in `tests/oracle/` and every bit pattern must match them —
//! so seismograms, checkpoints, resident stores and the health ledger do
//! not change by a bit — under the baseline lane cap and under every
//! wider lane tier this host offers (`sw_grid::simd::wide` compiles the
//! slice loops once per tier). This file pins that, plus the codecs' ordering
//! properties and the fact that the driver's telemetry / health / plain
//! round-trip runs are one call path.

mod oracle;

use oracle::{AdaptiveOracle, NormOracle, Oracle};
use swquake::compress::errstats::{roundtrip_err_stats, roundtrip_err_stats_par};
use swquake::compress::par::PAR_CHUNK;
use swquake::compress::{
    calibrated_codec, AdaptiveCodec, Codec, Codec16, F16Codec, FieldStats, NormCodec,
};
use swquake::core::{ExecMode, SimConfig, Simulation};
use swquake::grid::simd::{per_tier, LaneTier};
use swquake::grid::Dims3;
use swquake::health::HealthConfig;
use swquake::io::Station;
use swquake::model::LayeredModel;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};
use swquake::telemetry::Telemetry;

/// Adaptive exponent windows: a top-code carry window (span + 1 a power
/// of two), one binade, a wide one, the driver's former 30- and its
/// calibrated 31-binade window, both clamp edges of the calibration, a
/// window reaching below f32's normal range, and two at the top of it.
const ADAPTIVE_WINDOWS: [(i32, i32); 10] = [
    (0, 2),
    (0, 0),
    (-20, 20),
    (-35, -6),
    (-36, -6),
    (-126, -96),
    (-140, -110),
    (97, 127),
    (98, 127),
    (-3, 3),
];

/// Normalization ranges: the zero-bucket codec, the empty-stats
/// sentinel, asymmetric and degenerate ranges, and calibrated
/// power-of-two ranges from tiny to huge.
fn norm_ranges() -> [(f32, f32); 8] {
    let p = |e: i32| 2.0f32.powi(e);
    [
        (0.0, 0.0),
        (0.0, 1.0),
        (-3.0, 5.0),
        (4.2, 4.2),
        (-1.0, 1.0),
        (-p(-9), p(-9)),
        (-p(-119), p(-119)),
        (-p(126), p(126)),
    ]
}

fn all_codecs() -> Vec<(Codec, Oracle)> {
    let mut out = vec![(Codec::F16(F16Codec), Oracle::F16)];
    for (lo, hi) in ADAPTIVE_WINDOWS {
        out.push((
            Codec::Adaptive(AdaptiveCodec::new(lo, hi)),
            Oracle::Adaptive(AdaptiveOracle::new(lo, hi)),
        ));
    }
    for (lo, hi) in norm_ranges() {
        out.push((Codec::Norm(NormCodec::new(lo, hi)), Oracle::Norm(NormOracle::new(lo, hi))));
    }
    out
}

/// Every slice method and every per-value method against the oracle, on
/// one block of inputs.
fn assert_block_matches(codec: &Codec, oracle: &Oracle, block: &[f32]) {
    let mut codes = vec![0u16; block.len()];
    codec.encode_slice(block, &mut codes);
    let mut decoded = vec![0.0f32; block.len()];
    codec.decode_slice(&codes, &mut decoded);
    let mut tripped = block.to_vec();
    codec.roundtrip_slice(&mut tripped);
    for (i, &v) in block.iter().enumerate() {
        let ctx = || format!("{codec:?} input {:#010x} lanes {}", v.to_bits(), LaneTier::active());
        let want_code = oracle.encode(v);
        let want = oracle.decode(want_code).to_bits();
        assert_eq!(codes[i], want_code, "encode_slice: {}", ctx());
        assert_eq!(decoded[i].to_bits(), want, "decode_slice: {}", ctx());
        assert_eq!(tripped[i].to_bits(), want, "roundtrip_slice: {}", ctx());
        assert_eq!(codec.encode(v), want_code, "encode: {}", ctx());
        assert_eq!(codec.decode(want_code).to_bits(), want, "decode: {}", ctx());
        assert_eq!(codec.roundtrip(v).to_bits(), want, "roundtrip: {}", ctx());
    }
}

/// `count` patterns starting at `first`, `stride` apart.
fn patterns(first: u64, stride: u64, count: usize) -> Vec<f32> {
    (0..count as u64)
        .map(|i| first + i * stride)
        .take_while(|&b| b <= u64::from(u32::MAX))
        .map(|b| f32::from_bits(b as u32))
        .collect()
}

/// A prime stride over all 2³² patterns: ~1 400 mantissas in every
/// exponent of either sign, ~715 k patterns per codec.
const SWEEP_STRIDE: u64 = 6_007;

#[test]
fn lane_bodies_match_the_scalar_oracle_on_a_strided_sweep() {
    const BLOCK: usize = 1 << 14;
    per_tier(|_| {
        for (codec, oracle) in all_codecs() {
            let mut first = 0u64;
            while first <= u64::from(u32::MAX) {
                assert_block_matches(&codec, &oracle, &patterns(first, SWEEP_STRIDE, BLOCK));
                first += SWEEP_STRIDE * BLOCK as u64;
            }
        }
    });
}

/// Magnitude bit patterns around which behaviour changes: f32's own
/// edges, binary16's normal/subnormal/flush/overflow boundaries and
/// rounding ties, each adaptive window's flush / saturate / carry
/// boundaries, and each normalization range's ends.
fn pivots() -> Vec<u32> {
    let mut p = vec![
        0,
        1,                // smallest subnormal
        0x007f_ffff,      // largest subnormal
        0x0080_0000,      // smallest normal
        0x7f7f_ffff,      // largest finite
        0x7f80_0000,      // Inf
        0x7f80_0001,      // signalling NaN, smallest payload
        0x7f80_2000,      // NaN whose payload only just survives binary16
        0x7fc0_0000,      // quiet NaN
        0x7fff_ffff,      // NaN, all-ones payload
        0x3880_0000,      // 2^-14: smallest normal binary16
        0x3380_0000,      // 2^-24: smallest subnormal binary16
        0x3300_0000,      // 2^-25: the tie that rounds to zero
        0x3340_0000,      // 1.5 · 2^-25: rounds up to 2^-24
        0x477f_e000,      // 65504: largest finite binary16
        0x477f_f000,      // 65520: the tie that rounds to infinity
        0x4780_0000,      // 2^16
        0x3f80_1000,      // 1 + 2^-11: tie to even (down)
        0x3f80_3000,      // 1 + 3·2^-11: tie to even (up)
        0x3fff_f000,      // just under 2: carries into the exponent
        1.0f32.to_bits(), // Norm ends
        2.0f32.to_bits(),
    ];
    for (lo, hi) in ADAPTIVE_WINDOWS {
        let codec = AdaptiveCodec::new(lo, hi);
        let half = 1u32 << (22 - codec.mant_bits);
        for e in [lo, lo + 1, hi, hi + 1] {
            let biased = (e + 127).clamp(1, 254) as u32;
            // The binade's first pattern and the last rounding tie below it.
            p.push(biased << 23);
            p.push((biased << 23) - half);
        }
    }
    for (lo, hi) in norm_ranges() {
        p.extend([lo.abs().to_bits(), hi.abs().to_bits(), ((lo + hi) * 0.5).abs().to_bits()]);
    }
    p
}

#[test]
fn lane_bodies_match_the_scalar_oracle_at_every_edge() {
    let mut edges = Vec::new();
    for pivot in pivots() {
        for delta in -3i64..=3 {
            let b = i64::from(pivot) + delta;
            if (0..=0x7fff_ffff).contains(&b) {
                edges.push(f32::from_bits(b as u32));
                edges.push(f32::from_bits(b as u32 | 0x8000_0000));
            }
        }
    }
    per_tier(|_| {
        for (codec, oracle) in all_codecs() {
            assert_block_matches(&codec, &oracle, &edges);
            // Every slice length around the vector width (up to two
            // 512-bit registers of codes and a tail), at every alignment:
            // the loop remainders run the same body.
            for offset in 0..4 {
                for len in 0..=67 {
                    assert_block_matches(&codec, &oracle, &edges[offset..offset + len]);
                }
            }
        }
    });
}

/// Decoding is total: every one of the 65 536 codes, emitted or not,
/// decodes as the oracle says.
#[test]
fn every_code_decodes_as_the_oracle_does() {
    let codes: Vec<u16> = (0..=u16::MAX).collect();
    let mut decoded = vec![0.0f32; codes.len()];
    per_tier(|tier| {
        for (codec, oracle) in all_codecs() {
            codec.decode_slice(&codes, &mut decoded);
            for (&c, d) in codes.iter().zip(&decoded) {
                let want = oracle.decode(c).to_bits();
                assert_eq!(d.to_bits(), want, "{codec:?} code {c:#06x} lanes {tier}");
            }
        }
    });
}

/// Both defined-behaviour fixes, with and without flush-to-zero.
#[test]
fn subnormal_inputs_encode_to_signed_zero_in_any_fp_environment() {
    let subnormals = [1.0e-40f32, -3.0e-39, f32::from_bits(1), -f32::from_bits(0x007f_ffff)];
    let check = || {
        for (codec, _) in all_codecs() {
            for v in subnormals {
                let zero = f32::from_bits(v.to_bits() & 0x8000_0000);
                assert_eq!(codec.encode(v), codec.encode(zero), "{codec:?} {v:e}");
                let r = codec.roundtrip(v);
                assert_eq!(r.to_bits(), codec.roundtrip(zero).to_bits(), "{codec:?} {v:e}");
                if !matches!(codec, Codec::Norm(_)) {
                    assert_eq!(r.to_bits(), zero.to_bits(), "{codec:?} {v:e}");
                }
            }
        }
    };
    check();
    let _ftz = swquake::grid::fpenv::flush_subnormals();
    check();
}

#[test]
fn the_adaptive_codec_saturates_to_its_largest_value() {
    // Span + 1 = 4: exponent codes 1..=3 are all in use, so rounding
    // 7.9999 up has nowhere to carry to (it used to collapse to 4.0).
    let codec = AdaptiveCodec::new(0, 2);
    let largest = codec.roundtrip(7.999_9);
    assert!((7.99..8.0).contains(&largest), "7.9999 → {largest}");
    assert_eq!(codec.encode(7.999_9), 0x7fff);
    // With a spare exponent code the carry used to produce 2^(exp_max+1),
    // which the next round trip halved; values above the window kept
    // their mantissa under a clamped exponent. All of them clamp now.
    let codec = AdaptiveCodec::new(0, 4);
    let largest = codec.roundtrip(31.999_9);
    assert!((31.9..32.0).contains(&largest), "31.9999 → {largest}");
    for v in [32.0f32, 48.0, 1.0e9, f32::MAX] {
        assert_eq!(codec.roundtrip(v), largest, "{v}");
        assert_eq!(codec.roundtrip(-v), -largest, "-{v}");
    }
}

/// Ascending magnitudes (strided), each yielded with its round trip.
fn ascending(codec: &Codec, limit: u32) -> impl Iterator<Item = (f32, f32)> + '_ {
    (0..limit).step_by(SWEEP_STRIDE as usize).map(move |b| {
        let v = f32::from_bits(b);
        (v, codec.roundtrip(v))
    })
}

/// The round trip of every codec is monotone non-decreasing and
/// idempotent over all finite inputs. (Idempotence of the normalization
/// codec holds for the calibrated power-of-two ranges, which are the
/// ones the stores rely on.)
#[test]
fn roundtrip_is_monotone_and_idempotent() {
    let inf = 0x7f80_0000u32;
    let mut codecs = vec![Codec::F16(F16Codec)];
    codecs.extend(ADAPTIVE_WINDOWS.map(|(lo, hi)| Codec::Adaptive(AdaptiveCodec::new(lo, hi))));
    codecs.extend(
        norm_ranges()
            .into_iter()
            .filter(|(lo, hi)| *lo == -hi)
            .map(|(lo, hi)| Codec::Norm(NormCodec::new(lo, hi))),
    );
    for codec in codecs {
        let symmetric = !matches!(codec, Codec::Norm(_));
        let (mut prev, mut prev_neg) = (codec.roundtrip(0.0), codec.roundtrip(-0.0));
        for (v, r) in ascending(&codec, inf) {
            assert!(r >= prev, "{codec:?}: rt({v:e}) = {r:e} < {prev:e}");
            prev = r;
            assert_eq!(codec.roundtrip(r).to_bits(), r.to_bits(), "{codec:?}: rt(rt({v:e}))");
            let rn = codec.roundtrip(-v);
            assert!(rn <= prev_neg, "{codec:?}: rt(-{v:e}) = {rn:e} > {prev_neg:e}");
            prev_neg = rn;
            assert_eq!(codec.roundtrip(rn).to_bits(), rn.to_bits(), "{codec:?}: rt(rt(-{v:e}))");
            if symmetric {
                assert_eq!(rn.to_bits(), (-r).to_bits(), "{codec:?}: rt(-{v:e})");
            }
        }
    }
}

/// The self-calibrated adaptive codec the driver runs for a stress field
/// whose max-abs lies in `[2^-10, 2^-9)`.
fn driver_adaptive_codec() -> (Codec, Oracle) {
    let base = Codec::paper_assignment("xx", &FieldStats::empty());
    let codec = calibrated_codec(&base, -10);
    assert_eq!(codec, Codec::Adaptive(AdaptiveCodec::new(-36, -6)));
    (codec, Oracle::Adaptive(AdaptiveOracle::new(-36, -6)))
}

/// All 2³² patterns, split over two threads, once per lane tier.
fn assert_matches_exhaustively(codec: Codec, oracle: Oracle) {
    const BLOCK: u64 = 1 << 16;
    per_tier(|_| {
        std::thread::scope(|s| {
            for half in 0..2u64 {
                s.spawn(move || {
                    for block in (half << 15)..((half + 1) << 15) {
                        assert_block_matches(&codec, &oracle, &patterns(block * BLOCK, 1, 1 << 16));
                    }
                });
            }
        });
    });
}

/// Release-mode CI job: `cargo test --release --test codec_lanes -- --ignored`.
#[test]
#[ignore = "all 2^32 patterns: minutes in release mode, hours in debug"]
fn exhaustive_f16_matches_the_oracle() {
    assert_matches_exhaustively(Codec::F16(F16Codec), Oracle::F16);
}

#[test]
#[ignore = "all 2^32 patterns: minutes in release mode, hours in debug"]
fn exhaustive_driver_adaptive_window_matches_the_oracle() {
    let (codec, oracle) = driver_adaptive_codec();
    assert_matches_exhaustively(codec, oracle);
}

fn noisy(n: usize) -> Vec<f32> {
    (0..n).map(|i| (((i * 2_654_435_761) % 1_000_003) as f32 - 5e5) * 1e-4).collect()
}

fn hash(data: &[f32]) -> u64 {
    data.iter().fold(0u64, |h, v| {
        (h.rotate_left(5) ^ u64::from(v.to_bits())).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

/// `roundtrip_err_stats{,_par}`: stored values equal the oracle's round
/// trip, and values and statistics equal — to the bit — what the scalar
/// implementation before the lane bodies produced (the constants were
/// printed by that implementation), for 1, 2 and 4 pool threads.
#[test]
fn error_statistics_are_unchanged_for_any_thread_count() {
    // (max_abs_err, sum_sq_err, count, max_abs_value, hash of stored values)
    type Pinned = (u64, u64, u64, u64, u64);
    let cases: [(Codec, Oracle, Pinned); 3] = [
        (
            Codec::F16(F16Codec),
            Oracle::F16,
            (
                0x3f8f_f400_0000_0000,
                0x3ffc_f4df_3eb4_931a,
                49_275,
                0x4049_0000_0000_0000,
                0x2a00_571e_e9d4_97d0,
            ),
        ),
        (
            Codec::Adaptive(AdaptiveCodec::new(-8, 6)),
            Oracle::Adaptive(AdaptiveOracle::new(-8, 6)),
            (
                0x3f7f_f400_0000_0000,
                0x3fdc_f58e_68aa_d4a2,
                49_275,
                0x4049_0000_0000_0000,
                0xd788_5be8_b4a2_ef7f,
            ),
        ),
        (
            Codec::Norm(NormCodec::new(-64.0, 64.0)),
            Oracle::Norm(NormOracle::new(-64.0, 64.0)),
            (
                0x3f50_2e00_0000_0000,
                0x3f90_0af3_acab_a020,
                49_275,
                0x4049_0000_0000_0000,
                0xf68c_4fe8_6234_07f6,
            ),
        ),
    ];
    let data = noisy(3 * PAR_CHUNK + 123);
    for (codec, oracle, want) in cases {
        let reference: Vec<u32> = data.iter().map(|&v| oracle.roundtrip(v).to_bits()).collect();
        for threads in [1, 2, 4] {
            rayon::ThreadPoolBuilder::new().num_threads(threads).build_global().unwrap();
            for parallel in [false, true] {
                let mut d = data.clone();
                let s = if parallel {
                    roundtrip_err_stats_par(&codec, &mut d)
                } else {
                    roundtrip_err_stats(&codec, &mut d)
                };
                let got = (
                    s.max_abs_err.to_bits(),
                    s.sum_sq_err.to_bits(),
                    s.count,
                    s.max_abs_value.to_bits(),
                    hash(&d),
                );
                assert_eq!(got, want, "{codec:?} threads {threads} parallel {parallel}");
                assert!(d.iter().map(|v| v.to_bits()).eq(reference.iter().copied()));
            }
        }
    }
    rayon::ThreadPoolBuilder::new().num_threads(0).build_global().unwrap();
}

/// Compression, attenuation, plasticity and sponge on a 24³ mesh.
fn compressed_config() -> SimConfig {
    let mut cfg = SimConfig::new(Dims3::cube(24), 150.0, 30).with_compression(true);
    cfg.options.sponge_width = 4;
    cfg.options.attenuation = true;
    cfg.options.nonlinear = true;
    let moment = MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14);
    let stf = SourceTimeFunction::Triangle { onset: 0.05, duration: 0.5 };
    cfg.sources = vec![PointSource { ix: 11, iy: 12, iz: 9, moment, stf }];
    cfg.stations = vec![
        Station { name: "A".into(), ix: 5, iy: 5 },
        Station { name: "B".into(), ix: 12, iy: 11 },
        Station { name: "C".into(), ix: 20, iy: 17 },
    ];
    cfg
}

fn seismogram_bits(cfg: &SimConfig) -> Vec<u32> {
    let model = LayeredModel::north_china();
    let mut sim = Simulation::new(&model, cfg).expect("valid config");
    sim.run_checked(cfg.steps).expect("healthy run");
    let bits: Vec<u32> = sim
        .seismo
        .seismograms()
        .iter()
        .flat_map(|s| s.samples.iter().flatten().map(|v| v.to_bits()))
        .collect();
    assert!(bits.iter().any(|&b| b & 0x7fff_ffff != 0), "the stations must see the wave");
    bits
}

/// Telemetry on, health sampling every step, and neither used to be
/// three round-trip implementations; they are now one chunk kernel, and
/// a compressed run's seismograms are byte-identical across all three —
/// in every execution mode. The error statistics ride only the steps
/// someone reads them on: the monitor's probe steps or, with a metrics
/// registry and no monitor, the default health stride (the
/// `compress.max_roundtrip_error` gauge).
#[test]
fn telemetry_health_and_plain_runs_share_one_roundtrip() {
    rayon::ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
    let base = compressed_config();
    let reference = seismogram_bits(&base.clone().with_exec(ExecMode::Serial));
    for exec in [ExecMode::Serial, ExecMode::Parallel] {
        let plain = base.clone().with_exec(exec);
        let telemetry = plain.clone().with_telemetry(Telemetry::enabled());
        let health = plain.clone().with_health(HealthConfig::default().with_stride(1));
        let both = telemetry.clone().with_health(HealthConfig::default().with_stride(1));
        for (what, cfg) in
            [("plain", plain), ("telemetry", telemetry), ("health", health), ("both", both)]
        {
            assert_eq!(seismogram_bits(&cfg), reference, "{exec:?} {what}");
        }
    }
    let model = LayeredModel::north_china();
    for (steps, sampled) in [(9, false), (10, true)] {
        let telemetry = Telemetry::enabled();
        let cfg = base.clone().with_telemetry(telemetry.clone());
        Simulation::new(&model, &cfg).expect("valid config").run(steps);
        let report = telemetry.report();
        let gauge = report.gauge("compress.max_roundtrip_error");
        assert_eq!(gauge.is_some(), sampled, "{steps} steps");
    }
}

/// `Field3::max_abs` folds per row and the calibration scan per plane;
/// both return what the row-carried fold they replaced returns, for
/// every input: NaN skipped wherever it sits, ±Inf reported, subnormals
/// and signed zeros by magnitude, halo cells never read.
#[test]
fn max_abs_folds_match_the_carried_fold() {
    use swquake::compress::par::fields_max_abs;
    use swquake::grid::Field3;
    let specials =
        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.0e-40, -3.0e38, f32::MIN_POSITIVE];
    for (case, dims) in
        [Dims3::new(1, 1, 1), Dims3::new(3, 5, 17), Dims3::new(9, 7, 33)].into_iter().enumerate()
    {
        let mut f = Field3::new(dims, 2);
        f.fill_with(|x, y, z| ((x * 31 + y * 7 + z) as f32 - 40.0) * 1.0e-3);
        f.set_i(-1, -1, -1, 1.0e30);
        let mut fields = vec![f.clone()];
        for (i, &s) in specials.iter().enumerate() {
            let mut g = f.clone();
            g.set(i % dims.nx, (i * 3) % dims.ny, (i * 5) % dims.nz, s);
            fields.push(g);
        }
        let expect: Vec<u32> =
            fields.iter().map(|g| oracle::max_abs_carried(g).to_bits()).collect();
        let direct: Vec<u32> = fields.iter().map(|g| g.max_abs().to_bits()).collect();
        assert_eq!(direct, expect, "case {case}: Field3::max_abs");
        let refs: Vec<&Field3> = fields.iter().collect();
        per_tier(|tier| {
            for parallel in [false, true] {
                let scan: Vec<u32> =
                    fields_max_abs(&refs, parallel).iter().map(|m| m.to_bits()).collect();
                assert_eq!(
                    scan, expect,
                    "case {case}: fields_max_abs(parallel = {parallel}) lanes {tier}"
                );
            }
        });
    }
}

/// The resident store's calibration scan is a lane body; the carried
/// scalar loop it replaced is the oracle. Pinned on `(max_abs bits,
/// nonfinite count)` over seeded planes salted with NaN, ±Inf, −0.0 and
/// subnormals, at every length 0..=67 (whole lane rows, every tail
/// length) and a few plane-sized ones, plus the all-nonfinite, all-zero
/// and all-subnormal planes.
#[test]
fn the_calibration_scan_matches_the_carried_scalar_scan() {
    use swquake::compress::plane::finite_max_abs;
    let pin = |plane: &[f32], what: &str| {
        let (max, bad) = oracle::finite_max_abs(plane);
        per_tier(|tier| {
            let (lane_max, lane_bad) = finite_max_abs(plane);
            assert_eq!((lane_max.to_bits(), lane_bad), (max.to_bits(), bad), "{what} lanes {tier}");
        });
    };
    let specials = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1.0e-40,
        -7.0e-42,
        f32::from_bits(1),
        f32::MIN_POSITIVE,
        f32::MAX,
        -f32::MAX,
    ];
    let mut state = 0x5eed_1234_abcd_ef01u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in (0..=67).chain([64 * 64, 52 * 52 + 3, (1 << 20) + 9]) {
        for salt in [0u64, 3, 11] {
            let scale = 2.0f32.powi((next() % 200) as i32 - 120);
            let plane: Vec<f32> = (0..len)
                .map(|_| {
                    let r = next();
                    if salt != 0 && r % salt == 0 {
                        specials[(r >> 32) as usize % specials.len()]
                    } else {
                        ((r >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0) * scale
                    }
                })
                .collect();
            pin(&plane, &format!("len {len} salt {salt}"));
        }
    }
    for len in [1usize, 7, 8, 9, 67] {
        pin(&vec![f32::NAN; len], "all NaN");
        pin(&vec![f32::NEG_INFINITY; len], "all -Inf");
        pin(&vec![-0.0; len], "all -0.0");
        pin(&vec![-3.0e-41; len], "all subnormal");
    }
    // Every lane position, alone: the maximum and the bad value are found
    // wherever they sit.
    for i in 0..19 {
        let mut plane = vec![0.25f32; 19];
        plane[i] = -8.0;
        plane[(i + 5) % 19] = f32::NAN;
        pin(&plane, &format!("peak at {i}"));
    }
}

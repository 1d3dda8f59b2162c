//! `codec` — single-thread throughput of the §6.5 16-bit codecs: the
//! branch-free lane bodies (`Codec16::{encode,decode,roundtrip}_slice`)
//! against the branchy scalar oracle they replaced (`tests/oracle/`), and
//! the calibration scan against the row-carried fold `Field3::max_abs`
//! used to be (`oracle::max_abs_carried`), on one 84³ array (the
//! padded 80³ wavefield of the `nonlinear-tangshan` benchmark workload).
//!
//! Per codec (`f16`, `adaptive`, `norm`) and operation (`encode`,
//! `decode`, `roundtrip`), plus `scan`, the [`BenchReport`] holds
//!
//! * `codec/<codec>/<op>/lanes` and `…/oracle` — absolute seconds per
//!   pass, host-stamped (a diff against another host's baseline skips
//!   them);
//! * `codec/<codec>/<op>/lanes_over_oracle` — the dimensionless time
//!   ratio, carrying its own tolerance of `1/0.7 − 1`: `inspect --diff`
//!   against the committed `BENCH_codec.json` fails when the lane body's
//!   advantage over the oracle drops below 0.7× the committed
//!   measurement — which is what a lost vectorization looks like;
//! * `codec/<codec>/<op>/wide_over_baseline` — the lane body dispatched
//!   to the host's lane tier over the same body under the baseline cap
//!   (`swq_bench::wide_over_baseline`; stamped with the tier): 1.0 means
//!   the body no longer inlines into `sw_grid::simd::wide`.
//!
//! Every tier the host offers is timed and printed; `lanes` is the
//! dispatched one.
//!
//! Usage: `bench_codec [out.json] [threads]` (defaults:
//! `BENCH_codec_new.json`, `min(cores, 4)`; the passes themselves run on
//! the calling thread).

#[path = "../../../../tests/oracle/mod.rs"]
mod oracle;

use std::hint::black_box;
use std::time::Instant;

use oracle::{AdaptiveOracle, NormOracle, Oracle};
use sw_compress::{calibrated_codec, max_abs_bucket, AdaptiveCodec, Codec, Codec16, FieldStats};
use sw_grid::simd::{per_tier, LaneTier};
use sw_grid::{Dims3, Field3};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use sw_telemetry::perf::HostFingerprint;

const SIDE: usize = 80;
const HALO: usize = 2;
const REPS: usize = 15;

/// Same-host reruns of the absolute records are noisy; the ratios gate.
const ABSOLUTE_TOLERANCE: f64 = 10.0;

/// A wavefield-shaped array: a quiescent tenth, then noise whose
/// magnitude decays over 24 binades below a peak of 0.03 (so every
/// oracle branch — flush, subnormal, rounding carry — is taken, in an
/// order a branch predictor cannot learn).
fn wavefield() -> Field3 {
    let mut f = Field3::new(Dims3::cube(SIDE), HALO);
    let n = f.raw().len();
    for (i, v) in f.raw_mut().iter_mut().enumerate().skip(n / 10) {
        let noise = ((i * 2_654_435_761) % 1_000_003) as f32 / 5.0e5 - 1.0;
        *v = 0.03 * noise * 2.0f32.powi(-((i * 24 / n) as i32));
    }
    f
}

/// Median seconds of `REPS` calls of `pass`, each after `reset`.
fn time(mut reset: impl FnMut(), mut pass: impl FnMut()) -> Vec<f64> {
    reset();
    pass();
    (0..REPS)
        .map(|_| {
            reset();
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn record(name: String, samples: &[f64], elems: usize, host: &str) -> BenchRecord {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    BenchRecord {
        name,
        samples: sorted.len() as u64,
        median_s: swq_bench::median(&sorted),
        mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
        min_s: sorted[0],
        max_s: sorted[sorted.len() - 1],
        throughput: elems as f64,
        throughput_unit: "elements".to_string(),
        tolerance: Some(ABSOLUTE_TOLERANCE),
        host: Some(host.to_string()),
    }
}

/// The `lanes`, `oracle`, `lanes_over_oracle` and `wide_over_baseline`
/// records of one pairing; `tiers` holds the lane body's samples under
/// each tier, baseline first and the dispatched tier last.
fn pair(
    what: &str,
    tiers: &[(LaneTier, Vec<f64>)],
    oracle: &[f64],
    elems: usize,
    host: &str,
) -> [BenchRecord; 4] {
    let melem = |s: f64| elems as f64 / s / 1e6;
    let (_, dispatched) = tiers.last().expect("the baseline tier always runs");
    let lanes = record(format!("codec/{what}/lanes"), dispatched, elems, host);
    let oracle = record(format!("codec/{what}/oracle"), oracle, elems, host);
    let ratio = lanes.median_s / oracle.median_s;
    let tier_rates: Vec<String> = tiers
        .iter()
        .map(|(tier, samples)| format!("{tier} {:6.0}", melem(swq_bench::median_of(samples))))
        .collect();
    println!(
        "{what:20} lanes {} Melem/s   oracle {:6.0} Melem/s   ({:.1}x)",
        tier_rates.join("  "),
        melem(oracle.median_s),
        1.0 / ratio
    );
    let wide = swq_bench::wide_over_baseline(
        &format!("codec/{what}"),
        lanes.median_s,
        swq_bench::median_of(&tiers[0].1),
        lanes.samples,
    );
    let ratio =
        swq_bench::ratio_record(format!("codec/{what}/lanes_over_oracle"), ratio, lanes.samples);
    [lanes, oracle, ratio, wide]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_codec_new.json".to_string());
    let threads = swq_bench::pin_pool(args.next());
    let host = HostFingerprint::detect(threads as u64).id();

    let field = wavefield();
    let src = field.raw();
    let n = src.len();
    println!(
        "codec: {n} elements ({SIDE}^3 + halo {HALO}), {REPS} passes, one thread, lane tier {}",
        LaneTier::detected()
    );

    // The calibrated codecs the driver and the resident store would pick.
    let bucket = max_abs_bucket(field.max_abs());
    let empty = FieldStats::empty();
    let codecs: Vec<(&str, Codec, Oracle)> = ["u", "xx", "lam"]
        .into_iter()
        .map(|array| match calibrated_codec(&Codec::paper_assignment(array, &empty), bucket) {
            c @ Codec::F16(_) => ("f16", c, Oracle::F16),
            c @ Codec::Adaptive(_) => {
                // The calibration's 31-binade window, four above the bucket.
                let (lo, hi) = (bucket + 4 - 30, bucket + 4);
                assert_eq!(c, Codec::Adaptive(AdaptiveCodec::new(lo, hi)));
                ("adaptive", c, Oracle::Adaptive(AdaptiveOracle::new(lo, hi)))
            }
            c @ Codec::Norm(n) => ("norm", c, Oracle::Norm(NormOracle::new(n.vmin(), n.vmax()))),
        })
        .collect();

    let mut report = BenchReport::new();
    let mut codes = vec![0u16; n];
    let mut out = vec![0.0f32; n];
    for (name, codec, oracle) in &codecs {
        let lanes =
            per_tier(|_| time(|| (), || codec.encode_slice(black_box(src), black_box(&mut codes))));
        let scalar = time(
            || (),
            || {
                for (c, &v) in black_box(&mut codes).iter_mut().zip(black_box(src)) {
                    *c = oracle.encode(v);
                }
            },
        );
        report.records.extend(pair(&format!("{name}/encode"), &lanes, &scalar, n, &host));

        let coded = codes.clone();
        let lanes = per_tier(|_| {
            time(|| (), || codec.decode_slice(black_box(&coded), black_box(&mut out)))
        });
        let scalar = time(
            || (),
            || {
                for (v, &c) in black_box(&mut out).iter_mut().zip(black_box(&coded)) {
                    *v = oracle.decode(c);
                }
            },
        );
        report.records.extend(pair(&format!("{name}/decode"), &lanes, &scalar, n, &host));

        // In place, so every pass starts from a fresh copy (not timed).
        let cell = std::cell::RefCell::new(&mut out);
        let reset = || cell.borrow_mut().copy_from_slice(src);
        let lanes =
            per_tier(|_| time(reset, || codec.roundtrip_slice(black_box(&mut cell.borrow_mut()))));
        let scalar = time(reset, || {
            for v in black_box(&mut cell.borrow_mut()).iter_mut() {
                *v = oracle.roundtrip(*v);
            }
        });
        report.records.extend(pair(&format!("{name}/roundtrip"), &lanes, &scalar, n, &host));
    }

    let interior = field.dims().len();
    let lanes = per_tier(|_| {
        time(
            || (),
            || {
                black_box(sw_compress::par::fields_max_abs(&[black_box(&field)], false));
            },
        )
    });
    let scalar = time(
        || (),
        || {
            black_box(oracle::max_abs_carried(black_box(&field)));
        },
    );
    report.records.extend(pair("scan", &lanes, &scalar, interior, &host));

    let records = report.records.len();
    report.write_file(std::path::Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} ({records} records)");
}

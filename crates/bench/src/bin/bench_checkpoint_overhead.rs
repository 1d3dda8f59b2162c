//! `checkpoint_overhead` — what durable checkpointing costs, on the full
//! production step and piece by piece. The committed baseline is
//! `BENCH_checkpoint.json`; CI reruns this binary and gates the
//! dimensionless records with `swquake inspect --diff`.
//!
//! **The step.** The complete per-step pipeline on a 48³ mesh three ways
//! — store off, committing a generation every 10 steps (the CLI
//! default), and committing every step:
//!
//! * `checkpoint_overhead/off`, `/interval10`, `/interval1` — absolute
//!   seconds per step, host-stamped;
//! * `checkpoint_overhead/interval10_over_off`, `/interval1_over_off` —
//!   the **ratio of the means** (a median would ignore the
//!   1-in-interval checkpoint steps entirely). The cost is per
//!   *generation*, so the ratios scale as `1 + c/interval`; interval1
//!   bounds the per-generation cost `c` the step thread cannot hide
//!   (the encode, plus the wait for a write that a single step does not
//!   cover). `interval10_over_off` is gated.
//!
//! **The generation**, on the step-30 state of a 64³ attenuating basin
//! run (16 fields, 16 MiB raw — a `campaign-checkpointed` scenario):
//!
//! * `checkpoint/encode` — `Checkpoint::encode` (checksums + LZ4 over
//!   the pool), `checkpoint/write_commit` — `write_atomic` +
//!   `commit_generation` (two fsyncs and a manifest rewrite),
//!   `checkpoint/restore` — `restore_newest_valid` + `Simulation::restore`,
//!   `checkpoint/step_thread` — what the step that cuts that generation
//!   costs beyond an ordinary one, with the writer thread taking the
//!   write (interval 10, one sample per fresh 30-step run): absolute,
//!   host-stamped;
//! * `checkpoint/lz4_compress`, `/lz4_decompress`, `/checksum` — one
//!   thread over the sixteen fields' bytes, throughput in bytes (MB/s
//!   and GB/s are printed); `…/reference` are the byte-at-a-time LZ4 of
//!   `tests/oracle/lz4.rs` and the byte-wise `fnv1a`;
//! * gated ratios: `checkpoint/encoded_over_raw` (image bytes over raw
//!   f32 bytes — the compressor may not give size away),
//!   `checkpoint/step_thread_over_encode_plus_write` (1.0 would be a
//!   fully synchronous generation; the writer thread is what keeps it
//!   below the encode's share), and `…/fast_over_reference` for the two
//!   LZ4 directions and the checksum (a lost optimisation reads 1.0).
//!
//! Ratios carry their own tolerance (`1/0.7 − 1`, the slack
//! `bench_codec` uses); absolutes are host-stamped and skipped on a
//! foreign host.
//!
//! Usage: `bench_checkpoint_overhead [out.json] [threads]` (defaults:
//! `BENCH_checkpoint_new.json`, `min(cores, 4)` worker threads).

#[path = "../../../../tests/oracle/lz4.rs"]
#[allow(dead_code)]
mod reference_lz4;

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sw_compress::lz4;
use sw_grid::Dims3;
use sw_io::checkpoint::{self, write_atomic};
use sw_io::CheckpointStore;
use sw_model::{LayeredModel, TangshanModel};
use sw_source::{MomentTensor, PointSource, SourceTimeFunction};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use sw_telemetry::perf::HostFingerprint;
use swquake_core::{ExecMode, SimConfig, Simulation};

const SIDE: usize = 48;
const WARMUP_STEPS: usize = 3;
const TIMED_STEPS: usize = 120;

/// The per-generation probes: mesh, steps per run (the last one cuts the
/// generation that is measured), reps.
const GEN_SIDE: usize = 64;
const GEN_STEPS: usize = 30;
const GEN_REPS: usize = 7;

/// Same-host reruns of the absolute records are noisy; the ratios gate.
const ABSOLUTE_TOLERANCE: f64 = 10.0;
/// A gated ratio may grow to `1/0.7` of the committed measurement.
const RATIO_TOLERANCE: f64 = 1.0 / 0.7 - 1.0;

/// The production step shape, as in `bench_health_overhead`: nonlinear +
/// attenuation + sponge + compression, with a real source.
fn bench_config() -> SimConfig {
    let mut cfg = SimConfig::new(Dims3::cube(SIDE), 100.0, WARMUP_STEPS + TIMED_STEPS);
    cfg.options.sponge_width = 8;
    cfg.options.attenuation = true;
    cfg.options.nonlinear = true;
    cfg.sources = vec![PointSource {
        ix: SIDE / 2,
        iy: SIDE / 2,
        iz: SIDE / 3,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14),
        stf: SourceTimeFunction::Triangle { onset: 0.02, duration: 0.3 },
    }];
    cfg.with_compression(true).with_exec(ExecMode::Parallel)
}

/// Build one simulation per checkpoint cadence (0 = store off) and time
/// them in interleaved rounds of 10 steps, so slow drift — frequency
/// scaling, page-cache warm-up — lands evenly on all variants. Each
/// round is a multiple of every interval, so every variant pays its
/// writes inside its own timed window.
fn time_variants(scratch: &Path, intervals: &[u64]) -> Vec<Vec<f64>> {
    const ROUND: usize = 10;
    let model = LayeredModel::north_china();
    let mut sims: Vec<Simulation> = intervals
        .iter()
        .map(|&interval| {
            let mut cfg = bench_config();
            if interval > 0 {
                cfg = cfg
                    .with_checkpoint_dir(scratch.join(format!("interval{interval}")))
                    .with_checkpoint_interval(interval);
            }
            let mut sim = Simulation::new(&model, &cfg).expect("valid bench config");
            sim.run(WARMUP_STEPS);
            sim
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(TIMED_STEPS); sims.len()];
    for _round in 0..TIMED_STEPS / ROUND {
        for (sim, out) in sims.iter_mut().zip(&mut samples) {
            for _ in 0..ROUND {
                let t0 = Instant::now();
                sim.step();
                out.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    samples
}

/// An absolute record: seconds per pass over `throughput` units.
fn record(name: &str, samples: &[f64], throughput: f64, unit: &str, host: &str) -> BenchRecord {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    BenchRecord {
        name: name.to_string(),
        samples: n as u64,
        median_s: swq_bench::median(&sorted),
        mean_s: sorted.iter().sum::<f64>() / n as f64,
        min_s: sorted[0],
        max_s: sorted[n - 1],
        throughput,
        throughput_unit: unit.to_string(),
        tolerance: Some(ABSOLUTE_TOLERANCE),
        host: Some(host.to_string()),
    }
}

/// A dimensionless record; gated against the baseline when `gated`.
fn ratio_record(name: &str, ratio: f64, samples: u64, gated: bool) -> BenchRecord {
    BenchRecord {
        name: name.to_string(),
        samples,
        median_s: ratio,
        mean_s: ratio,
        min_s: ratio,
        max_s: ratio,
        throughput: 1.0,
        throughput_unit: "ratio".to_string(),
        tolerance: Some(if gated { RATIO_TOLERANCE } else { ABSOLUTE_TOLERANCE }),
        host: None,
    }
}

/// Seconds of `GEN_REPS` calls of `pass`, after one untimed call.
fn time<R>(mut pass: impl FnMut() -> R) -> Vec<f64> {
    black_box(pass());
    (0..GEN_REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(pass());
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// The `campaign-checkpointed` scenario shape: 64³ basin, attenuation,
/// sponge, one double couple near the surface, checkpoints every 10.
fn generation_config(dir: &Path) -> SimConfig {
    let mut cfg = SimConfig::new(Dims3::cube(GEN_SIDE), 100.0, GEN_STEPS);
    cfg.options.sponge_width = 8;
    cfg.options.attenuation = true;
    cfg.sources = vec![PointSource {
        ix: GEN_SIDE / 2,
        iy: GEN_SIDE / 2 + 1,
        iz: 5,
        moment: MomentTensor::double_couple(45.0, 70.0, 20.0, 3.5e16),
        stf: SourceTimeFunction::Triangle { onset: 0.005, duration: 0.1 },
    }];
    cfg.with_exec(ExecMode::Simd).with_checkpoint_dir(dir).with_checkpoint_interval(10)
}

/// The per-generation records (see the module docs).
fn generation_records(scratch: &Path, host: &str) -> Vec<BenchRecord> {
    let extent = GEN_SIDE as f64 * 100.0;
    let model = TangshanModel::with_extent(extent, extent, extent);
    let cfg = generation_config(&scratch.join("run"));

    // `GEN_REPS` fresh 30-step runs, as a campaign makes them. Each gives
    // one sample of what the step-30 generation costs the step thread
    // beyond an ordinary step (the median of the nine before it), with
    // the writer thread taking the write; the last run's state is the
    // one the building blocks below are timed on.
    let mut step_thread = Vec::with_capacity(GEN_REPS);
    let mut ordinary_s = 0.0;
    let mut sim = Simulation::new(&model, &cfg).expect("valid bench config");
    for rep in 0..GEN_REPS {
        if rep > 0 {
            sim = Simulation::new(&model, &cfg).expect("valid bench config");
        }
        let steps: Vec<f64> = (0..GEN_STEPS)
            .map(|_| {
                let t0 = Instant::now();
                sim.step();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let mut ordinary = steps[GEN_STEPS - 10..GEN_STEPS - 1].to_vec();
        ordinary.sort_by(f64::total_cmp);
        ordinary_s = swq_bench::median(&ordinary);
        step_thread.push((steps[GEN_STEPS - 1] - ordinary_s).max(0.0));
    }

    // The synchronous building blocks, on the state the loop left.
    let ckpt = sim.make_checkpoint();
    let raw_bytes = ckpt.raw_bytes() as f64;
    let image = ckpt.encode();
    let encode = time(|| ckpt.encode());
    // One image per timed write, each stamped with the step it is
    // committed under (the store checks it on restore).
    let mut stamped = ckpt.clone();
    let images: Vec<(u64, Vec<u8>)> = (0..=GEN_REPS)
        .map(|_| {
            stamped.step += 1;
            (stamped.step, stamped.encode())
        })
        .collect();
    let mut images = images.iter();
    let dir = scratch.join("probe");
    let store = CheckpointStore::create(&dir, 3).expect("scratch store");
    let write_commit = time(|| {
        let (step, image) = images.next().expect("one image per pass");
        write_atomic(&dir.join(CheckpointStore::rank_file_name(*step, 0)), image)
            .expect("scratch write");
        store.commit_generation(*step, sim.time, 1).expect("scratch commit");
    });
    // The restore reads back the state's own generation: a restamped one
    // no longer matches the run's clock and recorders, and is refused.
    let own = scratch.join("own");
    let own_store = CheckpointStore::create(&own, 1).expect("scratch store");
    write_atomic(&own.join(CheckpointStore::rank_file_name(ckpt.step, 0)), &image)
        .expect("scratch write");
    own_store.commit_generation(ckpt.step, ckpt.time, 1).expect("scratch commit");
    let restore = time(|| {
        let generation = own_store.restore_newest_valid(1).expect("a generation was committed");
        sim.restore(&generation.checkpoints[0]).expect("own checkpoint restores");
    });

    // One thread over the sixteen fields' bytes.
    let fields: Vec<Vec<u8>> = ckpt
        .fields
        .iter()
        .map(|(_, f)| f.interior_to_vec().iter().flat_map(|v| v.to_le_bytes()).collect())
        .collect();
    let each = |f: &dyn Fn(&[u8]) -> Vec<u8>| fields.iter().map(|b| f(b)).collect::<Vec<_>>();
    let blocks = each(&|b| lz4::compress(b));
    let compress = time(|| each(&|b| lz4::compress(b)));
    let compress_ref = time(|| each(&|b| reference_lz4::compress(b)));
    let decompress = time(|| {
        blocks.iter().zip(&fields).for_each(|(c, b)| {
            black_box(lz4::decompress_into(c, b.len()).expect("own block"));
        })
    });
    let decompress_ref = time(|| {
        blocks.iter().for_each(|c| {
            black_box(reference_lz4::decompress(c).expect("conforming block"));
        })
    });
    let sum = time(|| fields.iter().map(|b| checkpoint::checksum64(b)).fold(0, |a, b| a ^ b));
    let sum_ref = time(|| fields.iter().map(|b| checkpoint::fnv1a(b)).fold(0, |a, b| a ^ b));

    let rec = |name: &str, samples: &[f64], bytes: f64| {
        record(&format!("checkpoint/{name}"), samples, bytes, "bytes", host)
    };
    let records = vec![
        rec("encode", &encode, raw_bytes),
        rec("write_commit", &write_commit, image.len() as f64),
        record("checkpoint/step_thread", &step_thread, 1.0, "iters", host),
        rec("restore", &restore, raw_bytes),
        rec("lz4_compress", &compress, raw_bytes),
        rec("lz4_compress/reference", &compress_ref, raw_bytes),
        rec("lz4_decompress", &decompress, raw_bytes),
        rec("lz4_decompress/reference", &decompress_ref, raw_bytes),
        rec("checksum", &sum, raw_bytes),
        rec("checksum/reference", &sum_ref, raw_bytes),
    ];
    let median = |name: &str| {
        records.iter().find(|r| r.name == format!("checkpoint/{name}")).expect(name).median_s
    };
    let reps = GEN_REPS as u64;
    let over = |name: &str| {
        ratio_record(
            &format!("checkpoint/{name}/fast_over_reference"),
            median(name) / median(&format!("{name}/reference")),
            reps,
            true,
        )
    };
    let (compress_x, decompress_x, sum_x) =
        (over("lz4_compress"), over("lz4_decompress"), over("checksum"));
    println!(
        "generation ({GEN_SIDE}^3, {:.1} MiB raw -> {:.2} MiB): encode {:.1} ms, write+commit \
         {:.1} ms, step thread {:.1} ms per due step (ordinary step {:.1} ms), restore {:.1} ms",
        raw_bytes / (1 << 20) as f64,
        image.len() as f64 / (1 << 20) as f64,
        median("encode") * 1e3,
        median("write_commit") * 1e3,
        median("step_thread") * 1e3,
        ordinary_s * 1e3,
        median("restore") * 1e3,
    );
    println!(
        "one thread: LZ4 compress {:.0} MB/s ({:.1}x the reference), decompress {:.0} MB/s \
         ({:.1}x), checksum {:.2} GB/s ({:.1}x byte-wise FNV)",
        raw_bytes / median("lz4_compress") / 1e6,
        1.0 / compress_x.median_s,
        raw_bytes / median("lz4_decompress") / 1e6,
        1.0 / decompress_x.median_s,
        raw_bytes / median("checksum") / 1e9,
        1.0 / sum_x.median_s,
    );
    let ratios = [
        ratio_record("checkpoint/encoded_over_raw", image.len() as f64 / raw_bytes, 1, true),
        ratio_record(
            "checkpoint/step_thread_over_encode_plus_write",
            median("step_thread") / (median("encode") + median("write_commit")),
            step_thread.len() as u64,
            true,
        ),
        compress_x,
        decompress_x,
        sum_x,
    ];
    records.into_iter().chain(ratios).collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_checkpoint_new.json".to_string());
    let threads = swq_bench::pin_pool(args.next());
    let host = HostFingerprint::detect(threads as u64).id();
    let scratch = std::env::temp_dir().join(format!("swquake_bench_ckpt_{}", std::process::id()));
    println!(
        "checkpoint_overhead: {SIDE}^3 mesh, {TIMED_STEPS} timed steps per variant, \
         {threads} worker threads, store in {}",
        scratch.display()
    );

    let samples = time_variants(&scratch, &[0, 10, 1]);
    let cells = (SIDE * SIDE * SIDE) as f64;
    let off = record("checkpoint_overhead/off", &samples[0], cells, "elements", &host);
    let interval10 =
        record("checkpoint_overhead/interval10", &samples[1], cells, "elements", &host);
    let interval1 = record("checkpoint_overhead/interval1", &samples[2], cells, "elements", &host);
    // Mean-over-mean: the generation cost lands on 1-in-interval steps,
    // which a median ignores.
    let r10 = ratio_record(
        "checkpoint_overhead/interval10_over_off",
        interval10.mean_s / off.mean_s,
        interval10.samples,
        true,
    );
    let r1 = ratio_record(
        "checkpoint_overhead/interval1_over_off",
        interval1.mean_s / off.mean_s,
        interval1.samples,
        false,
    );
    println!(
        "off {:.4} s/step, interval10 {:.4} s/step ({:+.2}%), interval1 {:.4} s/step ({:+.2}%)",
        off.mean_s,
        interval10.mean_s,
        (r10.median_s - 1.0) * 100.0,
        interval1.mean_s,
        (r1.median_s - 1.0) * 100.0,
    );

    let mut report = BenchReport::new();
    report.records = vec![off, interval10, interval1, r10, r1];
    report.records.extend(generation_records(&scratch, &host));
    let records = report.records.len();
    report.write_file(Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} ({records} records)");
    std::fs::remove_dir_all(&scratch).ok();
}

//! `checkpoint_overhead` — cost of durable checkpointing on the full
//! production step.
//!
//! Times the complete per-step pipeline on a 48³ mesh three ways —
//! store off, committing a generation every 10 steps (the CLI default),
//! and committing every step — and writes a [`BenchReport`] with five
//! records:
//!
//! * `checkpoint_overhead/off` — absolute seconds per step, no store;
//! * `checkpoint_overhead/interval10` / `checkpoint_overhead/interval1`
//!   — absolute seconds per step with the LZ4 encode, atomic write
//!   (temp + fsync + rename) and manifest commit amortised at that
//!   cadence;
//! * `checkpoint_overhead/interval10_over_off` /
//!   `checkpoint_overhead/interval1_over_off` — the **dimensionless
//!   ratio** of the means (a median would ignore the 1-in-interval
//!   checkpoint steps entirely). The cost is per *generation* (LZ4
//!   encode + fsync + rename), so the ratios scale as `1 + c/interval`
//!   — interval1 bounds the per-write cost `c`, and production
//!   cadences (hundreds of steps between generations, as in the
//!   paper's 15-hour campaigns) sit well under 1%.
//!
//! Usage: `bench_checkpoint_overhead [out.json] [threads]` (defaults:
//! `BENCH_checkpoint_overhead_new.json`, `min(cores, 4)` worker threads).

use std::path::Path;
use std::time::Instant;

use sw_grid::Dims3;
use sw_model::LayeredModel;
use sw_source::{MomentTensor, PointSource, SourceTimeFunction};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use swquake_core::{ExecMode, SimConfig, Simulation};

const SIDE: usize = 48;
const WARMUP_STEPS: usize = 3;
const TIMED_STEPS: usize = 120;

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

fn record(name: &str, samples: &[f64]) -> BenchRecord {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = swq_bench::median(&sorted);
    BenchRecord {
        name: name.to_string(),
        samples: n as u64,
        median_s: median,
        mean_s: sorted.iter().sum::<f64>() / n as f64,
        min_s: sorted[0],
        max_s: sorted[n - 1],
        throughput: (SIDE * SIDE * SIDE) as f64,
        throughput_unit: "elements".to_string(),
        tolerance: None,
        host: None,
    }
}

fn ratio_record(name: &str, num: &BenchRecord, den: &BenchRecord) -> BenchRecord {
    // Mean-over-mean: the write cost lands on 1-in-interval steps,
    // which a median ignores.
    let ratio = num.mean_s / den.mean_s;
    BenchRecord {
        name: name.to_string(),
        samples: num.samples,
        median_s: ratio,
        mean_s: ratio,
        min_s: ratio,
        max_s: ratio,
        throughput: 1.0,
        throughput_unit: "ratio".to_string(),
        tolerance: None,
        host: None,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_checkpoint_overhead_new.json".to_string());
    swq_bench::pin_pool(args.next());
    let scratch = std::env::temp_dir().join(format!("swquake_bench_ckpt_{}", std::process::id()));
    println!(
        "checkpoint_overhead: {SIDE}^3 mesh, {TIMED_STEPS} timed steps per variant, \
         {} worker threads, store in {}",
        rayon::current_num_threads(),
        scratch.display()
    );

    let samples = time_variants(&scratch, &[0, 10, 1]);
    let off = record("checkpoint_overhead/off", &samples[0]);
    let interval10 = record("checkpoint_overhead/interval10", &samples[1]);
    let interval1 = record("checkpoint_overhead/interval1", &samples[2]);
    let r10 = ratio_record("checkpoint_overhead/interval10_over_off", &interval10, &off);
    let r1 = ratio_record("checkpoint_overhead/interval1_over_off", &interval1, &off);
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
    report.write_file(std::path::Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} (5 records)");
    std::fs::remove_dir_all(&scratch).ok();
}

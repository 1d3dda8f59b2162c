//! `obs_overhead` — cost of the run-timeline observability layer
//! (`swquake run --obs`) on the full production step.
//!
//! Times the complete per-step pipeline on a 64³ mesh three ways —
//! timeline off, timeline with heartbeats at the default stride, and
//! timeline with a heartbeat every step — and writes a [`BenchReport`]
//! with five records:
//!
//! * `obs_overhead/off` — absolute seconds per step, no recorder;
//! * `obs_overhead/stride_default` / `obs_overhead/stride1` — absolute
//!   seconds per step with phase timing, per-rank step accounting, and
//!   JSONL heartbeats streamed at that stride;
//! * `obs_overhead/stride_default_over_off` /
//!   `obs_overhead/stride1_over_off` — the **dimensionless ratio** of
//!   the means (the heartbeat write lands on 1-in-stride steps, which a
//!   median would ignore). The acceptance bar is stride_default under
//!   1.02 (<2% overhead); stride1 is informational, bounding the
//!   worst case.
//!
//! Usage: `bench_obs_overhead [out.json] [threads]` (defaults:
//! `BENCH_obs_overhead_new.json`, `min(cores, 4)` worker threads).

use std::sync::Arc;
use std::time::Instant;

use sw_grid::Dims3;
use sw_model::LayeredModel;
use sw_source::{MomentTensor, PointSource, SourceTimeFunction};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use sw_telemetry::timeline::{TimelineRecorder, DEFAULT_HEARTBEAT_STRIDE};
use swquake_core::{ExecMode, SimConfig, Simulation};

const SIDE: usize = 64;
const WARMUP_STEPS: usize = 3;
const TIMED_STEPS: usize = 160;

/// The production step shape, as in `bench_step_exec`: nonlinear +
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

/// Build one simulation per recorder configuration and time them in
/// interleaved rounds (10 steps of each variant per round), so slow
/// drift — frequency scaling, page-cache warm-up — lands evenly on all
/// variants instead of biasing whichever ran first. Each round is a
/// multiple of every heartbeat stride, so every variant pays its writes
/// inside its own timed window.
fn time_variants(strides: &[Option<u64>], dir: &std::path::Path) -> Vec<Vec<f64>> {
    const ROUND: usize = 10;
    let model = LayeredModel::north_china();
    let mut sims: Vec<Simulation> = strides
        .iter()
        .enumerate()
        .map(|(i, stride)| {
            let mut cfg = bench_config();
            if let Some(stride) = stride {
                let rec = TimelineRecorder::new()
                    .with_total_steps((WARMUP_STEPS + TIMED_STEPS) as u64)
                    .with_stream(&dir.join(format!("v{i}")), *stride)
                    .expect("bench obs dir is writable");
                cfg = cfg.with_timeline(Arc::new(rec));
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
    // Mean-over-mean is steadier than median-over-median here: the
    // heartbeat write lands on 1-in-stride steps, which a median ignores.
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
    let path = args.next().unwrap_or_else(|| "BENCH_obs_overhead_new.json".to_string());
    swq_bench::pin_pool(args.next());
    println!(
        "obs_overhead: {SIDE}^3 mesh, {TIMED_STEPS} timed steps per variant, \
         {} worker threads, default stride {DEFAULT_HEARTBEAT_STRIDE}",
        rayon::current_num_threads()
    );

    let dir = std::env::temp_dir().join(format!("swq_bench_obs_{}", std::process::id()));
    let samples = time_variants(&[None, Some(DEFAULT_HEARTBEAT_STRIDE), Some(1)], &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let off = record("obs_overhead/off", &samples[0]);
    let default = record("obs_overhead/stride_default", &samples[1]);
    let stride1 = record("obs_overhead/stride1", &samples[2]);
    let r_default = ratio_record("obs_overhead/stride_default_over_off", &default, &off);
    let r1 = ratio_record("obs_overhead/stride1_over_off", &stride1, &off);
    println!(
        "off {:.4} s/step, stride{DEFAULT_HEARTBEAT_STRIDE} {:.4} s/step ({:+.2}%), \
         stride1 {:.4} s/step ({:+.2}%)",
        off.mean_s,
        default.mean_s,
        (r_default.median_s - 1.0) * 100.0,
        stride1.mean_s,
        (r1.median_s - 1.0) * 100.0,
    );

    let mut report = BenchReport::new();
    report.records = vec![off, default, stride1, r_default, r1];
    report.write_file(std::path::Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} (5 records)");
}

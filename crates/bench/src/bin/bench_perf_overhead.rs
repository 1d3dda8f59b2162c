//! `perf_overhead` — cost of the per-kernel performance ledger on the
//! full production step.
//!
//! Times the complete per-step pipeline on a 64³ mesh two ways — perf
//! recorder off and armed — and writes a [`BenchReport`] with three
//! records:
//!
//! * `perf_overhead/off` — absolute seconds per step, no recorder;
//! * `perf_overhead/on` — absolute seconds per step with the ledger
//!   recording every kernel every step (there is no stride: the ledger
//!   is always full-rate when armed);
//! * `perf_overhead/on_over_off` — the **dimensionless ratio** of the
//!   means. The acceptance bar is under 1.01 (<1% overhead): the
//!   recorder costs ~8 `Instant` pairs plus ~9 short mutex-guarded
//!   slot adds per step, against a multi-millisecond step.
//!
//! Usage: `bench_perf_overhead [out.json] [threads]` (defaults:
//! `BENCH_perf_overhead_new.json`, `min(cores, 4)` worker threads).

use std::sync::Arc;
use std::time::Instant;

use sw_grid::Dims3;
use sw_model::LayeredModel;
use sw_source::{MomentTensor, PointSource, SourceTimeFunction};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use sw_telemetry::perf::PerfRecorder;
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

/// Build one simulation per variant (recorder off / armed) and time
/// them in interleaved rounds (10 steps of each per round), so slow
/// drift — frequency scaling, page-cache warm-up — lands evenly on
/// both variants instead of biasing whichever ran first.
fn time_variants() -> Vec<Vec<f64>> {
    const ROUND: usize = 10;
    let model = LayeredModel::north_china();
    let variants: Vec<Option<Arc<PerfRecorder>>> = vec![None, Some(Arc::new(PerfRecorder::new()))];
    let mut sims: Vec<Simulation> = variants
        .iter()
        .map(|perf| {
            let mut cfg = bench_config();
            if let Some(p) = perf {
                cfg = cfg.with_perf(Arc::clone(p));
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
    // Mean-over-mean: robust to a stray slow sample on either side in a
    // way that still charges every instrumented step.
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
    let path = args.next().unwrap_or_else(|| "BENCH_perf_overhead_new.json".to_string());
    swq_bench::pin_pool(args.next());
    println!(
        "perf_overhead: {SIDE}^3 mesh, {TIMED_STEPS} timed steps per variant, \
         {} worker threads",
        rayon::current_num_threads()
    );

    let samples = time_variants();
    let off = record("perf_overhead/off", &samples[0]);
    let on = record("perf_overhead/on", &samples[1]);
    let ratio = ratio_record("perf_overhead/on_over_off", &on, &off);
    println!(
        "off {:.4} s/step, on {:.4} s/step, overhead {:+.2}%",
        off.mean_s,
        on.mean_s,
        (ratio.mean_s - 1.0) * 100.0
    );

    let mut report = BenchReport::new();
    report.records = vec![off, on, ratio];
    report.write_file(std::path::Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} (3 records)");
}

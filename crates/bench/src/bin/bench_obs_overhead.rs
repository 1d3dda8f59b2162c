//! `obs_overhead` — what observing a run costs on the full production
//! step, one committed record.
//!
//! Times the complete per-step pipeline on a 64³ mesh two ways — no sink
//! (`off`), and every sink a run bundle arms (`all`: what `swquake run
//! --obs <dir>` and every campaign member write — telemetry with a tracer
//! attached, the perf ledger's recorder, the streamed health log, and the
//! run timeline with heartbeats at the watchdog's probe stride) — each
//! with the watchdog at its default stride, which `swquake run` and every
//! campaign member arm whatever the flags — and writes a [`BenchReport`]
//! with three records:
//!
//! * `obs_overhead/{off,all}` — absolute seconds per step, host-stamped
//!   (skipped on a foreign host);
//! * `obs_overhead/all_over_off` — the **dimensionless ratio**: per
//!   interleaved round, `all`'s ten steps over `off`'s ten steps, and the
//!   median of those ratios over the rounds (a round holds one heartbeat
//!   write, which a median over steps would ignore; pairing rounds that
//!   ran back to back keeps a noisy neighbour's burst out of the number).
//!   `inspect --diff` gates it against the committed
//!   `BENCH_obs_overhead.json`. Every stage is timed by one pair of clock
//!   reads however many sinks are armed, so the bundle costs what its
//!   dearest part costs. The bar is under 1.02 (< 2 % overhead). The §6.5
//!   round trip computes the wavefields' round-trip error statistics only
//!   on the steps someone reads them — the watchdog's probe steps, which
//!   `off` pays too — so the registry adds its clock reads and nothing
//!   else; a registry attached *without* a monitor (library use) samples
//!   them at the same stride for the `compress.max_roundtrip_error` gauge
//!   and pays for it (≈ +10 %, EXPERIMENTS "One scenario runner").
//!
//! Usage: `bench_obs_overhead [out.json] [threads]` (defaults:
//! `BENCH_obs_overhead_new.json`, `min(cores, 4)` worker threads).

use std::sync::Arc;
use std::time::Instant;

use sw_grid::Dims3;
use sw_health::{HealthConfig, HealthLog};
use sw_model::LayeredModel;
use sw_source::{MomentTensor, PointSource, SourceTimeFunction};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use sw_telemetry::perf::{HostFingerprint, PerfRecorder};
use sw_telemetry::timeline::TimelineRecorder;
use sw_telemetry::{Telemetry, Tracer};
use swquake_core::{ExecMode, SimConfig, Simulation};

const SIDE: usize = 64;
const WARMUP_STEPS: usize = 3;
const TIMED_STEPS: usize = 160;
/// Steps of one variant per interleaved round.
const ROUND_STEPS: usize = 10;

/// Same-host reruns of the absolute records are noisy; the ratio gates.
const ABSOLUTE_TOLERANCE: f64 = 10.0;
/// What the gated overhead ratio may grow by over its committed
/// measurement. The `1/0.7` slack of the speed-up ratios would pass a
/// sink that costs 40 % of the step; reruns of an overhead ratio spread
/// by ±3 % on a shared 2-vCPU host (EXPERIMENTS).
const OVERHEAD_TOLERANCE: f64 = 0.10;

/// The production step shape, as in `bench_step_exec`: nonlinear +
/// attenuation + sponge + compression, with a real source — and the
/// watchdog no CLI run goes without.
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
    cfg.with_compression(true).with_exec(ExecMode::Parallel).with_health(HealthConfig::default())
}

/// `bench_config` with every sink of a bundle in `dir` armed, as
/// `swquake::run::run_scenario` arms them.
fn bundle_config(dir: &std::path::Path) -> SimConfig {
    let telemetry = Telemetry::enabled().with_tracer(Tracer::enabled());
    telemetry.tracer().bind_lane(0, "driver");
    let stride = HealthConfig::default().stride;
    let timeline = TimelineRecorder::new()
        .with_total_steps((WARMUP_STEPS + TIMED_STEPS) as u64)
        .with_stream(dir, stride)
        .expect("bench obs dir is writable");
    let log = HealthLog::create(dir.join("health.jsonl")).expect("bench obs dir is writable");
    bench_config()
        .with_telemetry(telemetry)
        .with_perf(Arc::new(PerfRecorder::new()))
        .with_timeline(Arc::new(timeline))
        .with_health_log(Arc::new(log))
}

/// Build `off` and `all` and time them in interleaved rounds (10 steps of
/// each per round), so slow drift — frequency scaling, page-cache warm-up
/// — lands evenly on both instead of biasing whichever ran first. Each
/// round is a multiple of the heartbeat stride, so `all` pays its writes
/// inside its own timed window.
fn time_variants(dir: &std::path::Path) -> [Vec<f64>; 2] {
    let model = LayeredModel::north_china();
    let mut sims = [bench_config(), bundle_config(dir)].map(|cfg| {
        let mut sim = Simulation::new(&model, &cfg).expect("valid bench config");
        sim.run(WARMUP_STEPS);
        sim
    });
    let mut samples = [Vec::with_capacity(TIMED_STEPS), Vec::with_capacity(TIMED_STEPS)];
    for _round in 0..TIMED_STEPS / ROUND_STEPS {
        for (sim, out) in sims.iter_mut().zip(&mut samples) {
            for _ in 0..ROUND_STEPS {
                let t0 = Instant::now();
                sim.step();
                out.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    samples
}

fn record(name: &str, samples: &[f64], host: &str) -> BenchRecord {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    BenchRecord {
        name: format!("obs_overhead/{name}"),
        samples: n as u64,
        median_s: swq_bench::median(&sorted),
        mean_s: sorted.iter().sum::<f64>() / n as f64,
        min_s: sorted[0],
        max_s: sorted[n - 1],
        throughput: (SIDE * SIDE * SIDE) as f64,
        throughput_unit: "elements".to_string(),
        tolerance: Some(ABSOLUTE_TOLERANCE),
        host: Some(host.to_string()),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_obs_overhead_new.json".to_string());
    let threads = swq_bench::pin_pool(args.next());
    let host = HostFingerprint::detect(threads as u64).id();
    println!(
        "obs_overhead: {SIDE}^3 mesh, {TIMED_STEPS} timed steps per variant, \
         {threads} worker threads, heartbeat stride {}",
        HealthConfig::default().stride
    );

    let dir = std::env::temp_dir().join(format!("swq_bench_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench obs dir is writable");
    let [off, all] = time_variants(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let rounds = |samples: &[f64]| -> Vec<f64> {
        samples.chunks(ROUND_STEPS).map(|round| round.iter().sum()).collect()
    };
    let paired: Vec<f64> =
        rounds(&all).iter().zip(&rounds(&off)).map(|(on, off)| on / off).collect();
    let ratio = swq_bench::median_of(&paired);
    let (off, all) = (record("off", &off, &host), record("all", &all, &host));
    println!("{:<16} {:.4} s/step", "off", off.mean_s);
    println!("{:<16} {:.4} s/step ({:+.2}%)", "all", all.mean_s, (ratio - 1.0) * 100.0);
    let samples = all.samples;
    let mut report = BenchReport::new();
    report.records = vec![
        off,
        all,
        BenchRecord {
            tolerance: Some(OVERHEAD_TOLERANCE),
            ..swq_bench::ratio_record("obs_overhead/all_over_off".to_string(), ratio, samples)
        },
    ];
    report.write_file(std::path::Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} ({} records)", report.records.len());
}

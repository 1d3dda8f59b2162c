//! `step_exec` — serial vs parallel vs simd full production step.
//!
//! Times the complete per-step pipeline (free surface, velocity, stress +
//! attenuation, source injection, plasticity, sponge, and the §6.5
//! compression round trip) on a 64³ mesh in all three [`ExecMode`]s and
//! writes a schema-v2 [`BenchReport`]:
//!
//! * `step_exec/serial` — absolute seconds per step, reference kernels;
//! * `step_exec/parallel` — absolute seconds per step, Rayon CPE-pool
//!   kernels;
//! * `step_exec/simd` — absolute seconds per step, vectorized
//!   cache-tiled kernels (with a default build the `simd` mode degrades
//!   to `parallel` and a warning is printed — gate the ratio only from
//!   `--features simd` runs). All absolute records carry the host
//!   fingerprint (so a diff against a baseline from another machine
//!   skips them instead of comparing apples to oranges) and a generous
//!   per-record tolerance for same-host reruns;
//! * `step_exec/parallel_over_serial` — the **dimensionless ratio** of
//!   the two medians (unit `ratio`). This is the record the committed
//!   baseline `BENCH_step_exec.json` pins at 2/3 (= a 1.5× speedup
//!   floor), so `swquake bench-diff BENCH_step_exec.json <this output>
//!   --tolerance 0` passes exactly when the parallel path is at least
//!   1.5× faster — a machine-independent gate, unlike the absolutes;
//! * `step_exec/simd_over_serial` — same dimensionless gate for the
//!   vectorized path; the committed baseline pins it at 0.62 (≈ 1.6×),
//!   tighter than the parallel floor, so the gate fails if SIMD ever
//!   stops paying for itself over plain `parallel`;
//! * `step_exec/kernel/<name>` — absolute per-kernel wall seconds per
//!   step from the perf ledger of the parallel run (host-stamped,
//!   throughput in `cells`);
//! * `step_exec/simd_kernel/<name>` — the same per-kernel records from
//!   the simd run's ledger, so per-kernel speedups (dvelc, dstrqc, …)
//!   are measured, not inferred.
//!
//! Usage: `bench_step_exec [out.json] [threads]` (defaults:
//! `BENCH_step_exec_new.json`, `min(cores, 4)` worker threads).

use std::sync::Arc;
use std::time::Instant;

use sw_grid::Dims3;
use sw_model::LayeredModel;
use sw_source::{MomentTensor, PointSource, SourceTimeFunction};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use sw_telemetry::perf::{HostFingerprint, PerfLedger, PerfRecorder};
use swquake_core::{simd_compiled, ExecMode, SimConfig, Simulation};

const SIDE: usize = 64;
const WARMUP_STEPS: usize = 3;
const TIMED_STEPS: usize = 12;

/// Fractional slowdown same-host reruns of the absolute records are
/// allowed before gating (absolute wall times on a shared CI box are
/// noisy; the ratio record is the tight gate).
const ABSOLUTE_TOLERANCE: f64 = 10.0;

/// The production step shape: nonlinear + attenuation + sponge +
/// self-calibrating compression, with a real source so the wavefield is
/// non-trivial by the time the timed steps run.
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
    cfg.with_compression(true)
}

/// Per-step wall times plus the perf ledger for one execution mode.
/// Both modes run with the recorder armed so its (tiny) overhead
/// cancels out of the parallel/serial ratio.
fn time_mode(exec: ExecMode) -> (Vec<f64>, PerfLedger) {
    let model = LayeredModel::north_china();
    let recorder = Arc::new(PerfRecorder::new());
    let cfg = bench_config().with_exec(exec).with_perf(Arc::clone(&recorder));
    let mut sim = Simulation::new(&model, &cfg).expect("valid bench config");
    sim.run(WARMUP_STEPS);
    let samples = (0..TIMED_STEPS)
        .map(|_| {
            let t0 = Instant::now();
            sim.step();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let ledger = sim.perf_ledger().expect("recorder is armed");
    (samples, ledger)
}

fn record(name: &str, samples: &[f64], host: &str) -> BenchRecord {
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
        tolerance: Some(ABSOLUTE_TOLERANCE),
        host: Some(host.to_string()),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_step_exec_new.json".to_string());
    let threads = swq_bench::pin_pool(args.next());
    println!(
        "step_exec: {SIDE}^3 mesh, {TIMED_STEPS} timed steps per mode, \
         {} worker threads",
        rayon::current_num_threads()
    );

    if !simd_compiled() {
        println!(
            "warning: built without --features simd; ExecMode::Simd degrades to \
             parallel, so the simd records below measure the parallel path"
        );
    }
    let host = HostFingerprint::detect(threads as u64).id();
    let (serial_samples, _serial_ledger) = time_mode(ExecMode::Serial);
    let (parallel_samples, parallel_ledger) = time_mode(ExecMode::Parallel);
    let (simd_samples, simd_ledger) = time_mode(ExecMode::Simd);
    let serial = record("step_exec/serial", &serial_samples, &host);
    let parallel = record("step_exec/parallel", &parallel_samples, &host);
    let simd = record("step_exec/simd", &simd_samples, &host);
    let ratio_record = |name: &str, numerator: &BenchRecord| BenchRecord {
        name: name.to_string(),
        samples: numerator.samples,
        median_s: numerator.median_s / serial.median_s,
        mean_s: numerator.median_s / serial.median_s,
        min_s: numerator.median_s / serial.median_s,
        max_s: numerator.median_s / serial.median_s,
        throughput: 1.0,
        throughput_unit: "ratio".to_string(),
        tolerance: None,
        host: None,
    };
    let par_ratio = ratio_record("step_exec/parallel_over_serial", &parallel);
    let simd_ratio = ratio_record("step_exec/simd_over_serial", &simd);
    println!(
        "serial {:.4} s/step, parallel {:.4} s/step ({:.2}x), simd {:.4} s/step ({:.2}x)",
        serial.median_s,
        parallel.median_s,
        1.0 / par_ratio.median_s,
        simd.median_s,
        1.0 / simd_ratio.median_s,
    );

    let mut report = BenchReport::new();
    report.records = vec![serial, parallel, simd, par_ratio, simd_ratio];
    // Per-kernel absolute throughput records from the parallel and simd
    // runs' ledgers (host-stamped; diffs against a foreign baseline skip
    // them).
    for (ledger, prefix) in
        [(&parallel_ledger, "step_exec/kernel"), (&simd_ledger, "step_exec/simd_kernel")]
    {
        let mut kernel_report = ledger.to_bench_report(prefix);
        for r in &mut kernel_report.records {
            r.tolerance = Some(ABSOLUTE_TOLERANCE);
        }
        report.records.extend(kernel_report.records);
    }
    let n = report.records.len();
    report.write_file(std::path::Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} ({n} records)");
}

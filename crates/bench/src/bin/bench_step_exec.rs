//! `step_exec` — the full production step with its x-planes walked by
//! the calling thread vs handed to the pool, and each kernel's one lane
//! body against the naive kernel it replaced.
//!
//! Times the complete per-step pipeline (free surface, velocity, stress +
//! attenuation, source injection, plasticity, sponge, and the §6.5
//! compression round trip) under [`ExecMode::Serial`] and
//! [`ExecMode::Parallel`] on cubes of 16³ to 64³, in `ROUNDS` alternated
//! rounds per mesh (a fresh simulation per mode and round) after
//! `WARM_POOL_SECONDS` of untimed parallel steps, then the stencil and
//! pointwise kernels on the 64³ run's wavefield against
//! `tests/oracle/kernels.rs`, and writes a schema-v2 [`BenchReport`]:
//!
//! * `step_exec/serial`, `step_exec/parallel` — absolute seconds per
//!   step at 64³, every round's samples. All absolute records carry the
//!   host fingerprint (so a diff against a baseline from another machine
//!   skips them instead of comparing apples to oranges) and a generous
//!   per-record tolerance for same-host reruns;
//! * `step_exec/parallel_over_serial` — the **dimensionless ratio** at 64³:
//!   the median over rounds of each round's parallel over serial median,
//!   with the rounds' spread as `min_s`/`max_s`. A measurement carrying its
//!   own tolerance of `1/0.7 − 1`: `inspect --diff` against the committed
//!   `BENCH_step_exec.json` fails when the pool's advantage at this width
//!   drops below 0.7× the committed one;
//! * `step_exec/crossover/<side>/parallel_over_serial` — the same ratio
//!   on the smaller cubes: where it crosses 1 is where
//!   `exec::AUTO_PARALLEL_THRESHOLD` belongs. Host-stamped: the
//!   crossover is a property of the machine;
//! * `step_exec/<kernel>/lanes`, `…/oracle` and `…/lanes_over_oracle`
//!   for `dvelc`, `dstrqc`, `drprecpc_calc` and `sponge` — one thread,
//!   absolute seconds per call and their ratio under the same
//!   tolerance: a body that stops vectorizing (or starts paying per-row
//!   overhead) shows here before it shows in a step;
//! * `step_exec/<kernel>/wide_over_baseline` — the lane body dispatched
//!   to the host's lane tier over the same body under the baseline cap
//!   (`swq_bench::wide_over_baseline`; stamped with the tier): 1.0 means
//!   the body no longer inlines into `sw_grid::simd::wide`. Every tier
//!   the host offers is timed and printed; `lanes` is the dispatched one;
//! * `step_exec/kernel/<name>` — absolute per-kernel wall seconds per
//!   step from the perf ledger of the last parallel 64³ round
//!   (host-stamped, throughput in `cells`).
//!
//! Usage: `bench_step_exec [out.json] [threads]` (defaults:
//! `BENCH_step_exec_new.json`, `min(cores, 4)` worker threads).

#[path = "../../../../tests/oracle/mod.rs"]
mod oracle;

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sw_grid::simd::{per_tier, LaneTier};
use sw_grid::Dims3;
use sw_model::LayeredModel;
use sw_source::{MomentTensor, PointSource, SourceTimeFunction};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use sw_telemetry::perf::{HostFingerprint, PerfLedger, PerfRecorder};
use swquake_core::state::SolverState;
use swquake_core::{kernels, ExecMode, SimConfig, Simulation};

/// The mesh every record but the crossover sweep is taken on.
const SIDE: usize = 64;
/// Cube sides of the crossover sweep, `SIDE` last.
const SWEEP: [usize; 5] = [16, 24, 32, 48, SIDE];
/// Alternated serial / parallel rounds per mesh.
const ROUNDS: usize = 5;
const WARMUP_STEPS: usize = 3;
const TIMED_STEPS: usize = 12;
/// Parallel steps run before anything is timed. On a virtual host a vCPU
/// that sat idle for a few seconds wakes slowly, and every pool region
/// then pays for the wake-up: 64³ parallel steps measured 4.2–4.7 ms
/// from an idle host and 2.7–3.2 ms after both vCPUs had been busy, while
/// serial steps read 4.2–4.3 ms either way.
const WARM_POOL_SECONDS: f64 = 2.0;

/// Fractional slowdown same-host reruns of the absolute records are
/// allowed before gating (absolute wall times on a shared CI box are
/// noisy; the ratio records are the gate).
const ABSOLUTE_TOLERANCE: f64 = 10.0;

/// The production step shape: nonlinear + attenuation + sponge +
/// self-calibrating compression, with a real source so the wavefield is
/// non-trivial by the time the timed steps run.
fn bench_config(side: usize) -> SimConfig {
    let mut cfg = SimConfig::new(Dims3::cube(side), 100.0, WARMUP_STEPS + TIMED_STEPS);
    cfg.options.sponge_width = 8;
    cfg.options.attenuation = true;
    cfg.options.nonlinear = true;
    cfg.sources = vec![PointSource {
        ix: side / 2,
        iy: side / 2,
        iz: side / 3,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14),
        stf: SourceTimeFunction::Triangle { onset: 0.02, duration: 0.3 },
    }];
    cfg.with_compression(true)
}

/// Per-step wall times, the perf ledger and the final state for one
/// execution mode on a `side`³ mesh. Both modes run with the recorder
/// armed so its (tiny) overhead cancels out of the parallel/serial ratio.
fn time_mode(exec: ExecMode, side: usize) -> (Vec<f64>, PerfLedger, SolverState) {
    let model = LayeredModel::north_china();
    let recorder = Arc::new(PerfRecorder::new());
    let cfg = bench_config(side).with_exec(exec).with_perf(Arc::clone(&recorder));
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
    (samples, ledger, sim.state)
}

/// Keep the pool busy for [`WARM_POOL_SECONDS`].
fn warm_pool() {
    let cfg = bench_config(SIDE).with_exec(ExecMode::Parallel);
    let mut sim = Simulation::new(&LayeredModel::north_china(), &cfg).expect("valid bench config");
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < WARM_POOL_SECONDS {
        sim.step();
    }
}

/// `TIMED_STEPS` calls of `kernel`, each on a fresh copy of `state`.
fn time_kernel(state: &SolverState, mut kernel: impl FnMut(&mut SolverState)) -> Vec<f64> {
    let _fp = swquake_core::exec::kernel_fp_env();
    (0..=TIMED_STEPS)
        .map(|_| {
            let mut s = state.clone();
            let t0 = Instant::now();
            kernel(black_box(&mut s));
            t0.elapsed().as_secs_f64()
        })
        .skip(1)
        .collect()
}

/// The gated ratio of two records' medians.
fn ratio_record(name: String, numerator: &BenchRecord, denominator: &BenchRecord) -> BenchRecord {
    swq_bench::ratio_record(name, numerator.median_s / denominator.median_s, numerator.samples)
}

/// A gated ratio measured once per round: the median round, with the
/// rounds' mean and extremes.
fn spread_record(name: String, ratios: &[f64]) -> BenchRecord {
    let mut sorted = ratios.to_vec();
    sorted.sort_by(f64::total_cmp);
    BenchRecord {
        mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
        min_s: sorted[0],
        max_s: sorted[sorted.len() - 1],
        ..swq_bench::ratio_record(name, swq_bench::median(&sorted), sorted.len() as u64)
    }
}

/// What the alternated rounds on one mesh left: every round's
/// parallel-over-serial ratio, the pooled step samples of each mode, the
/// last parallel round's ledger and the last serial round's state.
struct Sweep {
    ratios: Vec<f64>,
    serial: Vec<f64>,
    parallel: Vec<f64>,
    ledger: PerfLedger,
    state: SolverState,
}

fn sweep(side: usize) -> Sweep {
    let (mut ratios, mut serial, mut parallel, mut last) =
        (Vec::new(), Vec::new(), Vec::new(), None);
    for round in 0..ROUNDS {
        // Every other round the pool goes first, so a drift of the host's
        // pace does not favour one mode.
        let early = (round % 2 == 1).then(|| time_mode(ExecMode::Parallel, side));
        let (s_samples, _, state) = time_mode(ExecMode::Serial, side);
        let (p_samples, ledger, _) = early.unwrap_or_else(|| time_mode(ExecMode::Parallel, side));
        ratios.push(swq_bench::median_of(&p_samples) / swq_bench::median_of(&s_samples));
        serial.extend(s_samples);
        parallel.extend(p_samples);
        last = Some((ledger, state));
    }
    let (ledger, state) = last.expect("at least one round");
    Sweep { ratios, serial, parallel, ledger, state }
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
        "step_exec: {SWEEP:?} cubes, {ROUNDS} rounds of {TIMED_STEPS} timed steps per mode, \
         {} worker threads, lane tier {}",
        rayon::current_num_threads(),
        LaneTier::detected()
    );

    let host = HostFingerprint::detect(threads as u64).id();
    warm_pool();
    let mut report = BenchReport::new();
    let mut main = None;
    for side in SWEEP {
        let run = sweep(side);
        let name = if side == SIDE {
            "step_exec/parallel_over_serial".to_string()
        } else {
            format!("step_exec/crossover/{side}/parallel_over_serial")
        };
        let ratio = spread_record(name, &run.ratios);
        println!(
            "{side:3}^3: serial {:8.3} ms/step, parallel {:8.3} ms/step, parallel/serial {:.3} \
             [{:.3}, {:.3}] over {ROUNDS} rounds",
            swq_bench::median_of(&run.serial) * 1e3,
            swq_bench::median_of(&run.parallel) * 1e3,
            ratio.median_s,
            ratio.min_s,
            ratio.max_s,
        );
        if side == SIDE {
            report.records.extend([
                record("step_exec/serial", &run.serial, &host),
                record("step_exec/parallel", &run.parallel, &host),
                ratio,
            ]);
            main = Some(run);
        } else {
            report.records.push(BenchRecord { host: Some(host.clone()), ..ratio });
        }
    }
    let Sweep { ledger: parallel_ledger, state, .. } = main.expect("the sweep ends at SIDE");

    // Each kernel's lane body against the naive loop, on one thread. The
    // naive sponge multiplies by the whole-mesh profile it used to find
    // in the state, built once outside the timed calls.
    let taper = oracle::kernels::whole_mesh_sponge(&state);
    type Kernel<'a> = &'a dyn Fn(&mut SolverState);
    let pairs: [(&str, Kernel, Kernel); 4] = [
        (
            "dvelc",
            &|s| {
                kernels::dvelcx(s);
                kernels::dvelcy(s);
            },
            &|s| {
                oracle::kernels::dvelcx(s);
                oracle::kernels::dvelcy(s);
            },
        ),
        ("dstrqc", &kernels::dstrqc, &oracle::kernels::dstrqc),
        (
            "drprecpc_calc",
            &|s| {
                black_box(kernels::drprecpc_calc(s));
            },
            &|s| {
                black_box(oracle::kernels::drprecpc_calc(s));
            },
        ),
        ("sponge", &kernels::apply_sponge, &|s| oracle::kernels::apply_sponge(s, &taper)),
    ];
    for (name, lanes, naive) in pairs {
        let tiers = per_tier(|_| time_kernel(&state, lanes));
        let (_, dispatched) = tiers.last().expect("the baseline tier always runs");
        let lanes = record(&format!("step_exec/{name}/lanes"), dispatched, &host);
        let naive = record(&format!("step_exec/{name}/oracle"), &time_kernel(&state, naive), &host);
        let ratio = ratio_record(format!("step_exec/{name}/lanes_over_oracle"), &lanes, &naive);
        let tier_ms: Vec<String> = tiers
            .iter()
            .map(|(tier, samples)| format!("{tier} {:7.3}", swq_bench::median_of(samples) * 1e3))
            .collect();
        println!(
            "{name:14} lanes {} ms   oracle {:8.3} ms   ({:.1}x)",
            tier_ms.join("  "),
            naive.median_s * 1e3,
            1.0 / ratio.median_s
        );
        let wide = swq_bench::wide_over_baseline(
            &format!("step_exec/{name}"),
            lanes.median_s,
            swq_bench::median_of(&tiers[0].1),
            lanes.samples,
        );
        report.records.extend([lanes, naive, ratio, wide]);
    }

    // Per-kernel absolute throughput records from the parallel run's
    // ledger (host-stamped; diffs against a foreign baseline skip them).
    let mut kernel_report = parallel_ledger.to_bench_report("step_exec/kernel");
    for r in &mut kernel_report.records {
        r.tolerance = Some(ABSOLUTE_TOLERANCE);
    }
    report.records.extend(kernel_report.records);
    let n = report.records.len();
    report.write_file(std::path::Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} ({n} records)");
}

//! The traced run: per-layer metrics of one workload.
//!
//! The workload's generated files are lowered again, in process, through
//! the same public functions the CLI uses; every call into a layer gets a
//! span. One untraced CLI invocation of the same files runs first, and
//! the in-process seismograms must equal its output byte for byte — the
//! traced numbers describe the computation the end-to-end numbers time,
//! or the run counts as failed. Nothing measured here ever enters an
//! end-to-end median.

// The product's error types are wide by design (a cold abort path, see
// `Simulation::step_checked`); spans hand them through unchanged.
#![allow(clippy::result_large_err)]

use crate::cli::{Repetition, SeismoCsv};
use crate::measure::{check_misfit, Prepared};
use crate::metrics::KERNELS;
use crate::probes::{self, HostProbe, Variant};
use crate::spans::Recorder;
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::{scenario_id, Drive, Inputs, Spec};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use swquake::core::{ExecMode, ResidentMode, SimConfig, Simulation, SolverState};
use swquake::health::{HealthConfig, HealthLog};
use swquake::model::VelocityModel;
use swquake::telemetry::perf::PerfRecorder;
use swquake::telemetry::timeline::TimelineRecorder;
use swquake::telemetry::Telemetry;
use swquake::Scenario;

/// Checkpoint cadence of campaigns (the CLI's default).
const CAMPAIGN_CHECKPOINT_INTERVAL: u64 = 10;
/// Mesh of the halo probe: the `nonlinear-tangshan` mesh, whatever
/// workload is being traced.
const HALO_MESH: usize = 80;

/// What a traced run hands back.
pub struct TraceOutput {
    /// `(name, value)` for every `metrics::per_layer` name.
    pub metrics: Vec<(String, f64)>,
    /// Share of the step loop each dominant layer takes, for the report.
    pub shares: Vec<(String, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub host: HostProbe,
    /// The span store, ready to be written as `trace_<workload>.json`.
    pub trace: Value,
}

/// One scenario lowered in process.
struct Lowered {
    cfg: SimConfig,
    state: Arc<SolverState>,
    model: Arc<Box<dyn VelocityModel>>,
}

/// Lower every scenario of the workload the way the CLI does, with a
/// span per set-up stage. Campaign scenarios share the built model and
/// the sampled state, as the CLI's artifact cache makes them.
fn lower_all(rec: &mut Recorder, scenarios: &[Scenario]) -> Result<Vec<Lowered>, String> {
    let mut out: Vec<Lowered> = Vec::new();
    for scenario in scenarios {
        let shared = out.first().map(|first| (Arc::clone(&first.model), Arc::clone(&first.state)));
        let model = match &shared {
            Some((model, _)) => Arc::clone(model),
            None => Arc::new(rec.span("setup.model_build", |_| scenario.build_model()).0),
        };
        let (cfg, _) =
            rec.span("setup.source_lower", |_| scenario.to_config(model.as_ref().as_ref()));
        let cfg = cfg.map_err(|e| e.to_string())?;
        let state = match shared {
            Some((_, state)) => state,
            None => Arc::new(
                rec.span("setup.state_sample", |_| {
                    SolverState::from_model(
                        model.as_ref().as_ref(),
                        cfg.dims,
                        cfg.dx,
                        cfg.origin,
                        cfg.options,
                    )
                })
                .0,
            ),
        };
        out.push(Lowered { cfg, state, model });
    }
    Ok(out)
}

/// Arm `cfg` with everything the CLI arms for this workload (execution
/// mode, health watchdog, and for campaigns telemetry, ledgers and the
/// checkpoint store), writing side files under `dir`.
fn arm(spec: &Spec, cfg: &SimConfig, threads: usize, dir: &Path) -> Result<SimConfig, String> {
    let mut cfg = cfg.clone().with_exec(ExecMode::Simd).with_threads(threads);
    let mut health = HealthConfig::default()
        .with_stride(10)
        .with_bundle_dir(dir.join("health_bundle").display().to_string());
    let with_log = spec.health || matches!(spec.drive, Drive::Campaign { .. });
    if with_log {
        let path = dir.join("health.jsonl");
        let log = HealthLog::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        health.log_path = Some(path.display().to_string());
        cfg = cfg.with_health_log(Arc::new(log));
    }
    cfg = cfg.with_health(health);
    if matches!(spec.drive, Drive::Campaign { .. }) {
        let steps = cfg.steps as u64;
        cfg = cfg
            .with_telemetry(Telemetry::enabled())
            .with_perf(Arc::new(PerfRecorder::new()))
            .with_timeline(Arc::new(TimelineRecorder::new().with_total_steps(steps)))
            .with_checkpoint_dir(dir.join("ckpt"))
            .with_checkpoint_interval(CAMPAIGN_CHECKPOINT_INTERVAL);
    }
    Ok(cfg)
}

/// One in-process pass over every scenario of the workload.
struct Pass {
    /// Wall of the stepping loops alone, summed over scenarios.
    loop_s: f64,
    /// The seismograms each scenario wrote (first pass only).
    csv: Vec<SeismoCsv>,
    /// The last scenario's simulation, for the probes.
    sim: Option<Simulation>,
}

/// Run every scenario to completion under `dir`. With `traced`, each step
/// is a `driver.step` span; without, the loop runs bare. `write` also
/// writes the result files through the CLI's writer.
fn pass(
    rec: &mut Recorder,
    prepared: &Prepared,
    lowered: &[Lowered],
    dir: &Path,
    traced: bool,
    write: bool,
) -> Result<Pass, String> {
    let mut out = Pass { loop_s: 0.0, csv: Vec::new(), sim: None };
    for (i, low) in lowered.iter().enumerate() {
        let sdir = dir.join(scenario_id(i));
        crate::cli::fresh_dir(&sdir)?;
        let cfg = arm(&prepared.spec, &low.cfg, prepared.threads, &sdir)?;
        let new_span = if traced { "driver.sim_new" } else { "driver.sim_new.untraced" };
        let (sim, _) =
            rec.span(new_span, |_| Simulation::new_with_state((*low.state).clone(), &cfg));
        let mut sim = sim.map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        if traced {
            for _ in 0..cfg.steps {
                rec.span("driver.step", |_| sim.step_checked()).0.map_err(|e| e.to_string())?;
            }
        } else {
            rec.span("driver.bare_loop", |_| sim.run_checked(cfg.steps))
                .0
                .map_err(|e| e.to_string())?;
        }
        out.loop_s += t0.elapsed().as_secs_f64();
        if write {
            let prefix = sdir.join("out").display().to_string();
            let (files, _) = rec.span("io.write_outputs", |_| {
                swquake::outputs::write_outputs(&sim, &cfg, &prefix, &Telemetry::disabled())
            });
            let files = files.map_err(|e| e.to_string())?;
            out.csv.push(SeismoCsv::read(Path::new(&files.seismograms))?);
        }
        out.sim = Some(sim);
    }
    Ok(out)
}

/// A counter summed over telemetry reports (`--metrics` files).
fn counter_sum(paths: &[PathBuf], name: &str) -> f64 {
    paths
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .filter_map(|text| swquake::telemetry::Report::from_json(&text).ok())
        .filter_map(|report| report.counter(name))
        .sum::<u64>() as f64
}

/// Checkpoint generations on disk under `dirs` (entries of each store's
/// manifest).
fn generations_on_disk(dirs: &[PathBuf]) -> f64 {
    dirs.iter()
        .filter_map(|d| std::fs::read_to_string(d.join("MANIFEST.json")).ok())
        .filter_map(|text| serde_json::from_str::<Value>(&text).ok())
        .filter_map(|v| v["generations"].as_array().map(Vec::len))
        .sum::<usize>() as f64
}

/// Share of the traced step loop spent cutting checkpoints: what the
/// checkpoint steps cost beyond an ordinary step, over the whole loop.
fn checkpoint_loop_share(steps: &[f64], steps_per_scenario: usize, interval: Option<u64>) -> f64 {
    let Some(interval) = interval else { return 0.0 };
    let due = |i: usize| ((i % steps_per_scenario) as u64 + 1).is_multiple_of(interval);
    let ordinary: Vec<f64> =
        steps.iter().enumerate().filter(|(i, _)| !due(*i)).map(|(_, s)| *s).collect();
    let base = median(&ordinary);
    let extra: f64 =
        steps.iter().enumerate().filter(|(i, _)| due(*i)).map(|(_, s)| (s - base).max(0.0)).sum();
    extra / steps.iter().sum::<f64>()
}

/// The traced run of one prepared workload. `seconds` bounds the
/// repeated in-process loops; the probes are sized by `smoke`.
pub fn traced_run(prepared: &Prepared, seconds: f64, smoke: bool) -> TraceOutput {
    let spec = prepared.spec;
    let mut rec = Recorder::new(spec.name);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let dir = prepared.dir.join("traced");

    // 1. The same files through the CLI, untraced (only `--metrics`, a
    //    counter dump, is added to single runs; campaigns always write
    //    theirs).
    let cli_extra: &[&str] = match spec.drive {
        Drive::Run => &["--metrics", "metrics.json"],
        Drive::Campaign { .. } => &[],
    };
    let (cli_rep, _) =
        rec.span("cli.run", |_| prepared.run("traced_cli", Inputs::MAIN, spec.steps, cli_extra));
    failures.extend(cli_rep.failures.iter().cloned());
    let misfit = check_misfit(&spec, &cli_rep, &prepared.references, &mut failures);
    metrics.push(("check.seis_misfit".to_string(), misfit));
    let cli_dir = prepared.dir.join("traced_cli");

    // 2. The same files in process, with spans: one more operation.
    let attempted = cli_rep.attempted + 1;
    let budget_s = seconds * 0.25;
    let outcome = in_process(
        prepared,
        &cli_rep,
        &cli_dir,
        &dir,
        budget_s,
        smoke,
        &mut rec,
        &mut metrics,
        &mut failures,
    );
    let (shares, host) = match outcome {
        Ok(found) => found,
        Err(e) => {
            failures.push(format!("traced in-process run: {e}"));
            (Vec::new(), HostProbe::default())
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cli_dir).ok();
    metrics.push(("ops.attempted".to_string(), attempted as f64));
    metrics.push(("ops.failed".to_string(), failures.len() as f64));
    TraceOutput { metrics, shares, attempted, failures, host, trace: rec.to_json() }
}

/// One uncounted warm-up step of `sim` (span `<span>.warm`), then
/// `steps` steps in spans called `span`.
fn steps_block(
    rec: &mut Recorder,
    span: &str,
    sim: &mut Simulation,
    steps: usize,
) -> Result<(), String> {
    rec.span(&format!("{span}.warm"), |_| sim.step_checked()).0.map_err(|e| e.to_string())?;
    for _ in 0..steps {
        rec.span(span, |_| sim.step_checked()).0.map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn kernel_ms(rec: &Recorder, k: &str) -> f64 {
    median(&rec.durations(&Variant::AsRun.span_name(k))) * 1e3
}

/// Step 2 of [`traced_run`]: lower, run, cross-check against the CLI's
/// output, replay every layer. Pushes into `metrics` and `failures`;
/// returns the dominant-layer shares and the host probe.
#[allow(clippy::too_many_arguments)]
fn in_process(
    prepared: &Prepared,
    cli_rep: &Repetition,
    cli_dir: &Path,
    dir: &Path,
    loop_budget_s: f64,
    smoke: bool,
    rec: &mut Recorder,
    metrics: &mut Vec<(String, f64)>,
    failures: &mut Vec<String>,
) -> Result<(Vec<(String, f64)>, HostProbe), String> {
    let spec = prepared.spec;
    let threads = prepared.threads;
    let t_run = Instant::now();
    let scenario_dirs: Vec<PathBuf> = match spec.drive {
        Drive::Run => vec![cli_dir.to_path_buf()],
        Drive::Campaign { scenarios, .. } => {
            (0..scenarios).map(|i| cli_dir.join("camp").join(scenario_id(i))).collect()
        }
    };
    let metric_files: Vec<PathBuf> = scenario_dirs.iter().map(|d| d.join("metrics.json")).collect();
    let store_dirs: Vec<PathBuf> = scenario_dirs.iter().map(|d| d.join("ckpt")).collect();
    let host = probes::host_probe(rec, threads, smoke);
    let mut lowered = lower_all(rec, &prepared.inputs.scenarios)?;
    let first = pass(rec, prepared, &lowered, &dir.join("pass0"), true, true)?;

    // The in-process run must be the CLI's computation.
    for (i, (mine, theirs)) in first.csv.iter().zip(&cli_rep.seismograms).enumerate() {
        match theirs {
            Some(theirs) if mine == theirs => {}
            Some(theirs) if mine.rows.len() != theirs.rows.len() => failures.push(format!(
                "scenario {i}: in-process run took {} steps, CLI {}",
                mine.rows.len(),
                theirs.rows.len()
            )),
            Some(_) => {
                failures.push(format!("scenario {i}: in-process seismograms differ from the CLI's"))
            }
            None => {} // the CLI side already failed on its own
        }
    }

    // Alternate bare and traced loops while the budget lasts.
    let mut traced_loops = vec![first.loop_s];
    let mut bare_loops = Vec::new();
    for round in 0.. {
        let bare = round % 2 == 0;
        let p = pass(rec, prepared, &lowered, &dir.join("again"), !bare, false)?;
        if bare { &mut bare_loops } else { &mut traced_loops }.push(p.loop_s);
        let spent = t_run.elapsed().as_secs_f64();
        if round >= 1 && spent + 1.5 * p.loop_s > loop_budget_s {
            break;
        }
    }
    let step_s = rec.durations("driver.step");
    let step_p50 = median(&step_s);
    let reps = if smoke { 2 } else { 3 };

    // Checkpoints, on the simulation the first pass left behind. (The
    // traced run holds several copies of the state; each is released
    // as soon as its last reader is done, because on a fresh VM every
    // never-touched page costs a fault.)
    let mut sim = first.sim.expect("a pass leaves its last simulation");
    let io = probes::io_probe(rec, &mut sim, &dir.join("io_probe"), reps)?;
    drop(sim);
    let interval =
        matches!(spec.drive, Drive::Campaign { .. }).then_some(CAMPAIGN_CHECKPOINT_INTERVAL);
    let first_pass_steps = &step_s[..spec.steps * spec.scenarios()];
    let ckpt_share = checkpoint_loop_share(first_pass_steps, spec.steps, interval);
    metrics.extend([
        ("io.ckpt_encode_ms".to_string(), io.encode_ms),
        ("io.ckpt_write_fsync_ms".to_string(), io.write_fsync_ms),
        ("io.ckpt_mib".to_string(), io.mib),
        ("io.ckpt_mb_per_s".to_string(), io.mb_per_s),
        ("io.restore_ms".to_string(), io.restore_ms),
        ("io.generations".to_string(), generations_on_disk(&store_dirs)),
        ("io.ckpt_loop_share".to_string(), ckpt_share),
    ]);

    // Mid-run state for the replays: a plain twin of the last scenario
    // (full residency, no health log, no checkpoints) stepped to the
    // middle of the run — step time grows along a run, so "a step" is
    // taken where the replays are.
    let prepare = rec.begin("replay.prepare");
    let low = lowered.pop().expect("a workload has a scenario");
    drop(lowered);
    let full_cfg = low
        .cfg
        .clone()
        .with_exec(ExecMode::Simd)
        .with_threads(threads)
        .with_resident(ResidentMode::Full);
    let state = Arc::try_unwrap(low.state).unwrap_or_else(|shared| (*shared).clone());
    let mut twin = Simulation::new_with_state(state, &full_cfg).map_err(|e| e.to_string())?;
    rec.span("driver.plain_warm", |_| twin.run(full_cfg.steps / 2));
    let mut mid = twin.state;
    // The replay state: the same wavefields over populated plasticity
    // inputs, so kernels this workload never runs can be replayed too.
    let mut options = low.cfg.options;
    options.nonlinear = true;
    let mut replay = SolverState::from_model(
        low.model.as_ref().as_ref(),
        low.cfg.dims,
        low.cfg.dx,
        low.cfg.origin,
        options,
    );
    for (dst, src) in [
        (&mut replay.u, &mid.u),
        (&mut replay.v, &mid.v),
        (&mut replay.w, &mid.w),
        (&mut replay.xx, &mid.xx),
        (&mut replay.yy, &mid.yy),
        (&mut replay.zz, &mid.zz),
        (&mut replay.xy, &mid.xy),
        (&mut replay.xz, &mid.xz),
        (&mut replay.yz, &mid.yz),
    ] {
        dst.clone_from(src);
    }
    replay.r.clone_from(&mid.r);
    let sources = &low.cfg.sources;
    let new_sim =
        |cfg: &SimConfig| Simulation::new_with_state(mid.clone(), cfg).map_err(|e| e.to_string());
    let mut plain_sim = new_sim(&full_cfg)?;
    let mut probed_sim =
        new_sim(&full_cfg.clone().with_health(HealthConfig::default().with_stride(1)))?;
    let mut serial_sim = new_sim(&full_cfg.clone().with_exec(ExecMode::Serial))?;
    rec.end(prepare);

    // Replay rounds. A round is a sequence of blocks — the kernel
    // sequence as run, plain steps, codec round trips, health-probed
    // steps, the serial kernel sequence, serial steps — each block a
    // few back-to-back repetitions after one uncounted warm-up, so a
    // kernel meets the cache state it meets inside a real step loop.
    // Two rounds put everything that is compared within seconds of
    // each other, so slow host drift cancels.
    for _ in 0..2 {
        probes::replay_kernels(rec, &mut replay, sources, Variant::AsRun, reps);
        steps_block(rec, "driver.plain_step", &mut plain_sim, reps)?;
        for pass in 0..=reps {
            probes::codec_roundtrip(rec, &mut mid, pass == 0);
        }
        steps_block(rec, "health.step_probed", &mut probed_sim, reps)?;
        probes::replay_kernels(rec, &mut replay, sources, Variant::Serial, reps - 1);
        steps_block(rec, "pool.step_serial", &mut serial_sim, reps - 1)?;
    }
    drop((plain_sim, probed_sim, serial_sim, replay));
    let plain_step_s = median(&rec.durations("driver.plain_step"));
    let roundtrip_s = median(&rec.durations("compress.roundtrip"));

    metrics.extend([
        ("host.triad_gbs".to_string(), host.triad_gbs),
        ("host.fma_gflops".to_string(), host.fma_gflops),
        ("host.llc_mib".to_string(), host.llc_mib),
        ("host.probe_array_mib".to_string(), host.array_mib),
        ("host.clock_ratio".to_string(), host.clock_ratio),
    ]);
    let attenuation = low.cfg.options.attenuation;
    for k in KERNELS {
        let t = median(&rec.durations(&Variant::AsRun.span_name(k)));
        let t_serial = median(&rec.durations(&Variant::Serial.span_name(k)));
        let (cells, bytes, flops) =
            probes::kernel_work(k, low.cfg.dims, attenuation, sources.len());
        metrics.push((format!("kernels.{k}.mcells_per_s"), cells / t / 1e6));
        if k != "addsrc" {
            metrics.push((format!("kernels.{k}.simd_over_serial"), t / t_serial));
        }
        let Some(flops) = flops else { continue };
        let intensity = flops / bytes;
        metrics.extend([
            (format!("kernels.{k}.gbs_computed"), cells * bytes / t / 1e9),
            (format!("kernels.{k}.flops_per_byte"), intensity),
            (
                format!("kernels.{k}.roofline_frac"),
                cells * flops / t / 1e9 / host.roofline_gflops(intensity),
            ),
        ]);
    }

    // Codecs.
    let (plane_enc, plane_dec, lz4) = probes::plane_and_lz4(rec, &mid.u, reps);
    metrics.extend([
        (
            "compress.roundtrip_melem_per_s".to_string(),
            probes::codec_roundtrip_elems(&mid) as f64 / roundtrip_s / 1e6,
        ),
        ("compress.plane_encode_melem_per_s".to_string(), plane_enc),
        ("compress.plane_decode_melem_per_s".to_string(), plane_dec),
        ("compress.lz4_mb_per_s".to_string(), lz4),
        (
            "compress.codec_rebuilds".to_string(),
            counter_sum(&metric_files, "compress.codec_rebuilds"),
        ),
    ]);

    // Resident streaming of this workload's own physics.
    let cap = spec.resident_cap.unwrap_or(1 << 20);
    let resident =
        probes::resident_probe(rec, &mut mid, sources, cap, if smoke { 0.05 } else { 0.5 });
    drop(mid);
    metrics.extend([
        ("resident.decode_s".to_string(), resident.decode_s),
        ("resident.encode_s".to_string(), resident.encode_s),
        ("resident.stored_ratio".to_string(), resident.stored_ratio),
        ("resident.step_over_full".to_string(), resident.step_s / plain_step_s),
    ]);

    // The step loop, and what the replays leave unexplained once the
    // layers this workload's step runs are subtracted.
    let unattributed_ms = if spec.resident_cap.is_some() {
        (resident.step_s - resident.decode_s - resident.encode_s) * 1e3
    } else {
        let mut ms = 2.0 * kernel_ms(rec, "fstr")
            + kernel_ms(rec, "dvelc")
            + kernel_ms(rec, "dstrqc")
            + kernel_ms(rec, "addsrc")
            + kernel_ms(rec, "sponge");
        if spec.nonlinear {
            ms += kernel_ms(rec, "drprecpc_calc") + kernel_ms(rec, "drprecpc_app");
        }
        if spec.compression {
            ms += roundtrip_s * 1e3;
        }
        plain_step_s * 1e3 - ms
    };
    let p95 = tail_percentile(&step_s).map_or_else(|| percentile(&step_s, 95.0), |(_, v)| v);
    metrics.extend([
        ("driver.step_ms_p50".to_string(), step_p50 * 1e3),
        ("driver.step_ms_p95".to_string(), p95 * 1e3),
        ("driver.step_samples".to_string(), step_s.len() as f64),
        ("driver.unattributed_ms".to_string(), unattributed_ms),
        ("driver.sim_new_ms".to_string(), median(&rec.durations("driver.sim_new")) * 1e3),
        (
            "pool.fanout_us_per_region".to_string(),
            probes::pool_fanout_us(rec, threads, if smoke { 200 } else { 2000 }),
        ),
        (
            "pool.parallel_over_serial".to_string(),
            plain_step_s / median(&rec.durations("pool.step_serial")),
        ),
        (
            "health.probe_ms".to_string(),
            (median(&rec.durations("health.step_probed")) - plain_step_s) * 1e3,
        ),
        ("health.probes".to_string(), counter_sum(&metric_files, "health.checks")),
    ]);

    // Halo exchange (no current workload runs multirank; recorded so
    // the multirank merge has a before).
    let halo =
        probes::halo_probe(rec, if smoke { 20 } else { HALO_MESH }, if smoke { 5 } else { 30 });
    metrics.extend([
        ("halo.pack_us".to_string(), halo.pack_us),
        ("halo.wait_us".to_string(), halo.wait_us),
        ("halo.unpack_us".to_string(), halo.unpack_us),
        ("halo.bytes_per_step".to_string(), halo.bytes_per_step),
        ("halo.msgs_per_step".to_string(), halo.msgs_per_step),
    ]);

    // Set-up stages, campaign counters.
    let stage_ms = |name: &str| median(&rec.durations(name)) * 1e3;
    let summary: Value = std::fs::read_to_string(cli_dir.join("camp").join("summary.json"))
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or(Value::Null);
    let from_summary = |key: &str| summary[key].as_f64().unwrap_or(0.0);
    metrics.extend([
        ("setup.model_build_ms".to_string(), stage_ms("setup.model_build")),
        ("setup.state_sample_ms".to_string(), stage_ms("setup.state_sample")),
        ("setup.source_lower_ms".to_string(), stage_ms("setup.source_lower")),
        ("campaign.artifact_hits".to_string(), from_summary("artifact_hits")),
        ("campaign.artifact_misses".to_string(), from_summary("artifact_misses")),
        ("campaign.scenarios_done".to_string(), from_summary("done")),
        ("trace.overhead_frac".to_string(), median(&traced_loops) / median(&bare_loops) - 1.0),
    ]);

    // Which layers own the loop (only those this workload's step runs).
    let loop_ms = plain_step_s * 1e3;
    let stencils = 2.0 * kernel_ms(rec, "fstr")
        + kernel_ms(rec, "dvelc")
        + kernel_ms(rec, "dstrqc")
        + kernel_ms(rec, "sponge");
    let mut shares =
        vec![("stencil kernels (fstr, dvelc, dstrqc, sponge)".to_string(), stencils / loop_ms)];
    if spec.compression || spec.nonlinear {
        let mut ms = kernel_ms(rec, "dstrqc");
        if spec.compression {
            ms += roundtrip_s * 1e3;
        }
        if spec.nonlinear {
            ms += kernel_ms(rec, "drprecpc_calc") + kernel_ms(rec, "drprecpc_app");
        }
        shares.push(("compression + plasticity + stress/attenuation".to_string(), ms / loop_ms));
    }
    if spec.resident_cap.is_some() {
        shares.push((
            "resident decode + encode (of the resident step)".to_string(),
            (resident.decode_s + resident.encode_s) / resident.step_s,
        ));
    }
    if interval.is_some() {
        shares.push(("checkpoint generations (of the traced loop)".to_string(), ckpt_share));
    }
    Ok((shares, host))
}

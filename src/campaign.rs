//! Scenario campaigns: the glue between the solver stack and the
//! [`sw_campaign`] engine.
//!
//! The engine ([`sw_campaign::run_campaign`]) is solver-agnostic — it
//! schedules opaque scenario values over a bounded worker pool and keeps
//! the durable manifest. This module supplies the solver side: parsing
//! each scenario ([`Scenario::from_value_versioned`]), sharing the
//! expensive setup artifacts across scenarios through the campaign's
//! [`sw_campaign::ArtifactCache`], wiring per-scenario health logs / checkpoint
//! stores / telemetry, running (or resuming) the simulation, and writing
//! the same output files `swquake run` writes.
//!
//! # What gets shared
//!
//! * `model/…` — the built earth model ([`Scenario::model_cache_key`]):
//!   extent-free models share one instance campaign-wide, extent-bound
//!   ones per mesh shape;
//! * `state/…` — the sampled material state
//!   ([`SolverState::from_model`], the dominant setup cost), keyed by
//!   model + mesh + spacing + solver options; scenarios differing only
//!   in sources/stations/duration share it;
//! * `sources/…` — the lowered source list, keyed by a content hash of
//!   the scenario's source spec (the slot a generated kinematic rupture
//!   would occupy).
//!
//! Cache traffic is visible as `campaign.artifact_hits` /
//! `campaign.artifact_misses` in the campaign telemetry and summary.

use crate::error::Error;
use crate::outputs::write_outputs;
use crate::scenario::{Scenario, ScenarioVersion};
use std::sync::Arc;
use sw_campaign::{
    content_hash, CampaignError, CampaignOptions, CampaignReport, CampaignSpec, FailureClass,
    Outcome, Phase, Task,
};
use sw_model::VelocityModel;
use sw_source::PointSource;
use sw_telemetry::Telemetry;
use swquake_core::state::SolverState;
use swquake_core::{ExecMode, Simulation};

/// Checkpoint cadence for campaign scenarios that do not set one
/// (matches the `swquake run --checkpoint-dir` default).
const DEFAULT_CHECKPOINT_INTERVAL: u64 = 10;

/// The `swquake campaign` flags, resolved.
#[derive(Default)]
pub struct CampaignRunOptions {
    /// Campaign output directory (default `<name>_campaign`).
    pub dir: Option<String>,
    /// Override the spec's `max_concurrent`.
    pub jobs: Option<usize>,
    /// Resume an interrupted campaign in the same directory.
    pub resume: bool,
    /// Override the spec's `fail_fast`.
    pub fail_fast: Option<bool>,
    /// Kernel implementation for every scenario.
    pub exec: Option<ExecMode>,
    /// Worker-pool width for every scenario.
    pub threads: Option<usize>,
    /// Campaign-wide telemetry handle (`campaign.*` counters land here);
    /// `None` uses a fresh enabled handle.
    pub telemetry: Option<Telemetry>,
    /// Also write each scenario's perf ledger to `<dir>/<id>/perf.json`
    /// (the `summary.json` rollup is always populated regardless).
    pub perf: bool,
}

/// Read, parse, and run (or resume) the campaign described by `path`.
///
/// Campaign-level telemetry lands in the returned report and in
/// `summary.json` in the campaign directory; per-scenario telemetry in
/// `<dir>/<id>/metrics.json`.
pub fn run_campaign_file(
    path: &str,
    opts: &CampaignRunOptions,
) -> Result<CampaignReport, CampaignError> {
    let text = std::fs::read_to_string(path).map_err(|e| CampaignError {
        scenario: None,
        phase: Phase::Spec,
        detail: format!("cannot read {path}: {e}"),
        class: FailureClass::Usage,
    })?;
    let spec = CampaignSpec::from_json(&text)?;
    // Every scenario takes its exec, thread, residency and health-stride
    // defaults from the environment: refuse a mistyped one once, up front.
    swquake_core::exec::check_env().map_err(|e| CampaignError {
        scenario: None,
        phase: Phase::Setup,
        detail: Error::Config(e).to_string(),
        class: FailureClass::Usage,
    })?;
    let dir = opts.dir.clone().unwrap_or_else(|| format!("{}_campaign", spec.name));
    let engine_opts = CampaignOptions {
        jobs: opts.jobs,
        resume: opts.resume,
        fail_fast: opts.fail_fast,
        telemetry: opts.telemetry.clone().unwrap_or_else(Telemetry::enabled),
    };
    // The fault plan is read once, campaign-wide: every scenario arms the
    // same drill (kill@N kills whichever scenario reaches step N — the
    // crash drills run sequentially so the victim is deterministic).
    let fault = sw_fault::FaultPlan::from_env().map_err(|e| CampaignError {
        scenario: None,
        phase: Phase::Setup,
        detail: format!("invalid fault plan: {}", e.0),
        class: FailureClass::Usage,
    })?;
    if let Some(plan) = &fault {
        eprintln!("fault plan armed from SWQUAKE_FAULT_PLAN: {} event(s)", plan.events().len());
    }
    let fault = fault.map(Arc::new);
    retain_freed_heap();
    sw_campaign::run_campaign(&spec, std::path::Path::new(&dir), &engine_opts, |task| {
        run_scenario(task, opts, fault.clone())
    })
}

/// Make the allocator keep what a finished scenario frees, so the next
/// one reuses it. Scenarios allocate and free the same tens of megabytes
/// of field arrays one after another; glibc returns such a block to the
/// system as soon as it is free — unless some small allocation happens to
/// sit above it on the heap, which is what a run used to get by accident
/// from the step's first pool region — and the next scenario then
/// page-faults all of it in again: 12 ms against 1.6 ms to clone a 64³
/// state. glibc adapts how much it keeps to the largest mapped block it
/// has seen freed (up to 32 MiB), so one untouched allocation, freed
/// here, settles that for the process. Other allocators ignore it.
fn retain_freed_heap() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(31 << 20)));
}

/// Exit code for a finished campaign: 0 all done, 1 completed with
/// instabilities, 3 completed with failures (failures dominate), 2 for
/// spec/usage aborts, 137 when an injected kill aborted it.
pub fn exit_code(report: &CampaignReport) -> i32 {
    if let Some(abort) = &report.aborted {
        return match abort.class {
            FailureClass::Killed => 137,
            FailureClass::Usage => 2,
            FailureClass::Failed => 3,
            FailureClass::Unstable => 1,
        };
    }
    if report.failed > 0 {
        3
    } else if report.unstable > 0 {
        1
    } else {
        0
    }
}

/// Run one scenario for the engine, classifying any failure.
fn run_scenario(
    task: &Task<'_>,
    opts: &CampaignRunOptions,
    fault: Option<Arc<sw_fault::FaultPlan>>,
) -> Outcome {
    match try_run_scenario(task, opts, fault) {
        Ok(detail) => Outcome::Done { detail },
        Err(Error::Unstable(e)) => Outcome::Unstable { detail: e.to_string() },
        Err(Error::Killed(e)) => Outcome::Killed { detail: e.to_string() },
        Err(e) => Outcome::Failed { phase: phase_of(&e), detail: e.to_string() },
    }
}

/// Which lifecycle phase a solver-stack error belongs to.
fn phase_of(e: &Error) -> Phase {
    match e {
        Error::Scenario(_) | Error::UnknownModel(_) => Phase::Parse,
        Error::Config(_) | Error::FaultPlan(_) => Phase::Build,
        Error::Io { .. } => Phase::Outputs,
        _ => Phase::Run,
    }
}

#[allow(clippy::result_large_err)] // cold abort-path error; see Scenario::from_json
fn try_run_scenario(
    task: &Task<'_>,
    opts: &CampaignRunOptions,
    fault: Option<Arc<sw_fault::FaultPlan>>,
) -> Result<String, Error> {
    let (scenario, version) = Scenario::from_value_versioned(task.scenario)?;
    if version == ScenarioVersion::V1 {
        eprintln!(
            "warning: scenario `{}` uses the deprecated v1 schema (no `schema` field); \
             re-emit it with `swquake --write-example` conventions (`schema: 2`)",
            task.id
        );
    }
    std::fs::create_dir_all(&task.dir)
        .map_err(|e| Error::Io { path: task.dir.display().to_string(), source: e })?;

    // --- shared artifacts -------------------------------------------------
    let model: Arc<Box<dyn VelocityModel>> =
        task.cache.get_or_build(&scenario.model_cache_key(), || scenario.build_model());
    let mut cfg = scenario.to_config(model.as_ref().as_ref())?;
    let sources_json =
        serde_json::to_string(&scenario.sources).expect("source spec serialization is infallible");
    let sources: Arc<Vec<PointSource>> = task
        .cache
        .get_or_build(&format!("sources/{}", content_hash(&sources_json)), || cfg.sources.clone());
    cfg.sources = (*sources).clone();
    // The material state is the dominant setup cost: key it by everything
    // `SolverState::from_model` reads so equal-mesh scenarios share it.
    let state_key = format!(
        "state/{}/{}@{}/{:?}/{:?}",
        scenario.model_cache_key(),
        cfg.dims,
        cfg.dx,
        cfg.origin,
        cfg.options,
    );
    let state: Arc<SolverState> = task.cache.get_or_build(&state_key, || {
        SolverState::from_model(model.as_ref().as_ref(), cfg.dims, cfg.dx, cfg.origin, cfg.options)
    });

    // --- per-scenario wiring ---------------------------------------------
    let telemetry = Telemetry::enabled();
    cfg = cfg.with_telemetry(telemetry.clone());
    // Every scenario runs with the perf recorder armed: the campaign
    // summary's per-kernel rollup is unconditional (the recorder costs
    // well under 1% of a step — the `perf` variant of `bench_obs_overhead`);
    // `--perf` only adds the per-scenario `perf.json` file.
    let perf_recorder = Arc::new(sw_telemetry::perf::PerfRecorder::new());
    cfg = cfg.with_perf(Arc::clone(&perf_recorder));
    // The run timeline rides along the same way: always armed (no
    // heartbeat stream — phase timing is a few monotonic-clock reads per
    // step), final report written to `<dir>/timeline.json` and its skew
    // summary deposited in the campaign rollup.
    let timeline_rec = Arc::new(
        sw_telemetry::timeline::TimelineRecorder::new().with_total_steps(cfg.steps as u64),
    );
    cfg = cfg.with_timeline(Arc::clone(&timeline_rec));
    if let Some(exec) = opts.exec {
        cfg = cfg.with_exec(exec);
    }
    if let Some(threads) = opts.threads {
        cfg = cfg.with_threads(threads);
    }
    let health_log_path = task.dir.join("health.jsonl");
    let health_log = sw_health::HealthLog::create(&health_log_path)
        .map_err(|e| Error::Io { path: health_log_path.display().to_string(), source: e })?;
    let stride = swquake_core::exec::health_stride_from_env()
        .unwrap_or(sw_health::HealthConfig::default().stride);
    let mut health_cfg = sw_health::HealthConfig::default()
        .with_stride(stride)
        .with_bundle_dir(task.dir.join("health_bundle").display().to_string());
    health_cfg.log_path = Some(health_log_path.display().to_string());
    cfg = cfg.with_health(health_cfg).with_health_log(Arc::new(health_log));
    let interval = if cfg.checkpoint_interval > 0 {
        cfg.checkpoint_interval
    } else {
        DEFAULT_CHECKPOINT_INTERVAL
    };
    cfg = cfg
        .with_checkpoint_dir(task.dir.join("ckpt"))
        .with_checkpoint_interval(interval)
        .with_fault_plan(fault);

    // --- run (or resume) --------------------------------------------------
    let mut sim = if task.resume {
        // The crash may have hit before the first checkpoint was cut; an
        // empty/unusable store falls back to a fresh start rather than
        // wedging the campaign.
        match Simulation::resume_with_state((*state).clone(), &cfg) {
            Ok((sim, _info)) => sim,
            Err(swquake_core::error::RunError::ResumeFailed { detail }) => {
                eprintln!(
                    "note: scenario `{}` restarts from scratch (no usable checkpoint: {detail})",
                    task.id
                );
                Simulation::new_with_state((*state).clone(), &cfg)?
            }
            Err(e) => return Err(e.into()),
        }
    } else {
        Simulation::new_with_state((*state).clone(), &cfg)?
    };
    let remaining = cfg.steps.saturating_sub(sim.step_count as usize);
    sim.run_checked(remaining)?;
    if sim.state.has_blown_up() {
        // The watchdog missed it (probe stride coarser than the blow-up
        // tail) — diagnose post-hoc so the manifest still explains it.
        if let Some(e) = swquake_core::health::diagnose(&sim.state, sim.step_count, 0) {
            return Err(Error::Unstable(e));
        }
    }

    // --- outputs ----------------------------------------------------------
    let prefix = task.dir.join("out").display().to_string();
    let files = write_outputs(&sim, &cfg, &prefix, &telemetry)?;
    let metrics_path = task.dir.join("metrics.json");
    std::fs::write(&metrics_path, sim.metrics().to_json())
        .map_err(|e| Error::Io { path: metrics_path.display().to_string(), source: e })?;
    if let Some(ledger) = sim.perf_ledger() {
        task.perf.record(task.id, ledger.clone());
        if opts.perf {
            let perf_path = task.dir.join("perf.json");
            ledger
                .write_file(&perf_path)
                .map_err(|e| Error::Io { path: perf_path.display().to_string(), source: e })?;
        }
    }
    let timeline = timeline_rec.finish();
    let timeline_path = task.dir.join(sw_telemetry::timeline::TIMELINE_NAME);
    let timeline_text =
        serde_json::to_string(&timeline).expect("timeline serialization is infallible");
    std::fs::write(&timeline_path, timeline_text)
        .map_err(|e| Error::Io { path: timeline_path.display().to_string(), source: e })?;
    task.timeline.record(task.id, timeline);
    Ok(format!("PGV max {:.3e} m/s, max intensity {:.1}", files.pgv_max, files.max_intensity))
}

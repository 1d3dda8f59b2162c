//! The one scenario runner: [`run_scenario`] is what `swquake run` and a
//! campaign member both call, and the only place in this crate that
//! lowers a [`Scenario`] to a `SimConfig`, arms the observability sinks,
//! builds or resumes the simulation, runs it, and writes what it leaves
//! behind.
//!
//! A caller describes the run as plain data — a [`RunPlan`] — and gets a
//! [`RunSummary`] back; nothing about *how* a scenario is executed lives
//! in the CLI or the campaign glue. Two arms execute, and both end in
//! the solver's one merge (`Simulation::finish` / `run_multirank`), which
//! is also where a blow-up the watchdog missed is diagnosed:
//!
//! * one rank on the calling thread, on the [`Material`]'s already-sampled
//!   state when the caller has one (the campaign's artifact cache hands
//!   out clones) and on a freshly sampled one otherwise;
//! * a rank grid ([`RunPlan::ranks`]), whose ranks each sample their own
//!   subdomain from the model.
//!
//! # The bundle
//!
//! [`Artifacts`] names every file a run can leave besides its results.
//! [`Artifacts::bundle`] is the one observed layout: a directory holding
//! `metrics.json`, `health.jsonl`, `perf.json`, `timeline.json`,
//! `trace.json` and the heartbeat stream `run.jsonl`. `swquake run --obs
//! <dir>` and every campaign member directory resolve to it, and
//! `swquake inspect` reads either. The diagnostic bundle of an unstable
//! run rides the result prefix (`<prefix>_health_bundle/`).

use crate::error::Error;
use crate::outputs::{write_result_files, OutputFiles};
use crate::scenario::Scenario;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use sw_fault::FaultPlan;
use sw_health::{HealthConfig, HealthLog};
use sw_model::VelocityModel;
use sw_parallel::RankGrid;
use sw_source::PointSource;
use sw_telemetry::perf::PerfRecorder;
use sw_telemetry::timeline::{TimelineRecorder, TIMELINE_NAME};
use sw_telemetry::{Telemetry, Tracer};
use swquake_core::driver::run_multirank;
use swquake_core::error::RunError;
use swquake_core::state::SolverState;
use swquake_core::{exec, ExecMode, MultiRankOutput, ResidentMode, Simulation};

/// Checkpoint cadence of a run with a store when neither the plan nor the
/// scenario sets one.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 10;

/// What a scenario is sampled from, and what the caller has already built
/// of it.
pub struct Material<'a> {
    /// The earth model ([`Scenario::build_model`]).
    pub model: &'a dyn VelocityModel,
    /// Hands out the model sampled onto the scenario's mesh
    /// ([`Scenario::sample_state`]) — a clone from the campaign's artifact
    /// cache — so a single-rank build does not sample again. Called once
    /// the scenario has lowered to a valid configuration, never before.
    pub state: Option<&'a dyn Fn() -> SolverState>,
    /// The lowered source list ([`Scenario::point_sources`]).
    pub sources: Option<&'a [PointSource]>,
}

/// The durable checkpoint store of a run.
#[derive(Debug, Clone)]
pub struct Checkpoints {
    /// Where the generations and their manifest live.
    pub dir: PathBuf,
    /// Steps between generations; `None` takes the scenario's
    /// `checkpoint_interval`, else [`DEFAULT_CHECKPOINT_INTERVAL`].
    pub interval: Option<u64>,
    /// Generations retained (`None`: the store's default).
    pub keep: Option<usize>,
}

/// Where a run starts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Resume {
    /// At step 0, clearing whatever the store holds.
    #[default]
    Fresh,
    /// At the newest generation the store can restore; none is
    /// [`Error::Resume`] (`swquake run --resume`: the operator said there
    /// is one).
    Required,
    /// At the newest generation the store can restore, else at step 0
    /// with a note on stderr (`swquake campaign --resume`: the crash may
    /// have come before the member's first generation was cut).
    OrRestart,
}

/// The perf ledger's file name in a bundle.
pub const LEDGER_NAME: &str = "perf.json";

/// The files a run leaves besides its results; every `None` is a sink
/// that is not armed.
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// The bundle directory. Arms the tracer, the per-kernel ledger and
    /// the run timeline, whose heartbeats follow the watchdog's probe
    /// stride.
    pub bundle: Option<PathBuf>,
    /// The telemetry report; arms the metrics registry.
    pub metrics: Option<PathBuf>,
    /// The streamed health log (the watchdog itself is always armed).
    pub health: Option<PathBuf>,
}

impl Artifacts {
    /// The one observed layout, under `dir`: what a campaign member
    /// leaves and what `swquake run --obs <dir>` resolves to.
    pub fn bundle(dir: &Path) -> Self {
        Self {
            bundle: Some(dir.to_path_buf()),
            metrics: Some(dir.join("metrics.json")),
            health: Some(dir.join("health.jsonl")),
        }
    }
}

/// How to run one scenario: plain data, filled in from `swquake run`'s
/// flags or by the campaign glue for a member.
#[derive(Clone, Default)]
pub struct RunPlan {
    /// Who walks the kernels' x-planes (`None`: `SWQUAKE_EXEC`, else auto).
    pub exec: Option<ExecMode>,
    /// Worker-pool width (`None`: `SWQUAKE_THREADS`, else every core).
    pub threads: Option<usize>,
    /// Wavefield storage between steps (`None`: the scenario's field,
    /// else full).
    pub resident: Option<ResidentMode>,
    /// Byte budget of the compressed16 decode slab.
    pub memory_cap: Option<u64>,
    /// Watchdog probe cadence (`None`: the [`HealthConfig`] default).
    pub health_stride: Option<u64>,
    /// Run on this rank grid; `None` or 1x1 is one rank on the calling
    /// thread.
    pub ranks: Option<(usize, usize)>,
    /// The checkpoint store. Without one no checkpoint is cut, whatever
    /// cadence the scenario names: nothing could read it.
    pub checkpoints: Option<Checkpoints>,
    /// Where the run starts; anything but `Fresh` needs `checkpoints`.
    pub resume: Resume,
    /// The crash drill to arm ([`fault_plan_from_env`]).
    pub fault: Option<Arc<FaultPlan>>,
    /// Result files are `<prefix>_seismograms.csv` and
    /// `<prefix>_hazard.json`.
    pub prefix: String,
    /// What else to write.
    pub artifacts: Artifacts,
    /// Print the start banner (mesh, steps, resolved exec path, lane tier,
    /// the resident store's footprint) to stdout before the first step —
    /// what the CLI shows while a long run is in flight.
    pub announce: bool,
}

/// What a finished run did, for the caller to print.
pub struct RunSummary {
    /// What the solver's merge returned: the observables, the watchdog's
    /// counts, the per-kernel ledger (when the recorder was armed) and the
    /// generation the run resumed from.
    pub merged: MultiRankOutput,
    /// Steps the scenario lowers to.
    pub steps: usize,
    /// Wall time of build + step loop, s.
    pub wall_s: f64,
    /// The result files and their peaks.
    pub files: OutputFiles,
    /// Why a [`Resume::OrRestart`] run started over instead.
    pub restarted: Option<String>,
}

/// The crash drill `SWQUAKE_FAULT_PLAN` arms, announced on stderr. Read
/// once per process: a campaign hands every member the same plan.
#[allow(clippy::result_large_err)] // cold abort-path error; see Scenario::from_json
pub fn fault_plan_from_env() -> Result<Option<Arc<FaultPlan>>, Error> {
    let plan = FaultPlan::from_env().map_err(|e| Error::FaultPlan(e.0))?;
    if let Some(plan) = &plan {
        eprintln!("fault plan armed from SWQUAKE_FAULT_PLAN: {} event(s)", plan.events().len());
    }
    Ok(plan.map(Arc::new))
}

fn io_error(path: &Path) -> impl FnOnce(std::io::Error) -> Error + '_ {
    move |source| Error::Io { path: path.display().to_string(), source }
}

/// Run `scenario` as `plan` says and write everything it leaves behind.
#[allow(clippy::result_large_err)] // cold abort-path error; see Scenario::from_json
pub fn run_scenario(
    scenario: &Scenario,
    material: Material<'_>,
    plan: &RunPlan,
) -> Result<RunSummary, Error> {
    let art = &plan.artifacts;
    let model = material.model;
    let mut cfg = scenario.to_config(model)?;
    if let Some(sources) = material.sources {
        cfg.sources = sources.to_vec();
    }
    cfg.exec = plan.exec.unwrap_or(cfg.exec);
    cfg.threads = plan.threads.unwrap_or(cfg.threads);
    cfg.resident = plan.resident.unwrap_or(cfg.resident);
    cfg.memory_cap_bytes = plan.memory_cap.or(cfg.memory_cap_bytes);

    // Counters and timers feed the metrics report. Without it this stays
    // the disabled (branch-on-None) telemetry of an uninstrumented run.
    let mut telemetry =
        if art.metrics.is_some() { Telemetry::enabled() } else { Telemetry::disabled() };
    // One cadence: heartbeats follow the watchdog's probes.
    let stride = plan.health_stride.unwrap_or(HealthConfig::default().stride);
    if let Some(dir) = &art.bundle {
        std::fs::create_dir_all(dir).map_err(io_error(dir))?;
        telemetry = telemetry.with_tracer(Tracer::enabled());
        telemetry.tracer().bind_lane(0, "driver");
        let timeline = TimelineRecorder::new()
            .with_total_steps(cfg.steps as u64)
            .with_stream(dir, stride)
            .map_err(io_error(dir))?;
        cfg = cfg.with_perf(Arc::new(PerfRecorder::new())).with_timeline(Arc::new(timeline));
    }
    cfg = cfg.with_telemetry(telemetry.clone());
    // The watchdog is always armed, so a blow-up aborts with a diagnosis;
    // a health path additionally streams the JSONL log.
    let mut health = HealthConfig::default()
        .with_stride(stride)
        .with_bundle_dir(format!("{}_health_bundle", plan.prefix));
    if let Some(path) = &art.health {
        let log = HealthLog::create(path).map_err(io_error(path))?;
        health.log_path = Some(path.display().to_string());
        cfg = cfg.with_health_log(Arc::new(log));
    }
    cfg = cfg.with_health(health).with_fault_plan(plan.fault.clone());
    // Cadence: the plan, else the scenario, else the default — and none
    // at all without a store to persist into.
    if let Some(store) = &plan.checkpoints {
        let interval =
            store.interval.or(scenario.checkpoint_interval).unwrap_or(DEFAULT_CHECKPOINT_INTERVAL);
        cfg = cfg.with_checkpoint_dir(&store.dir).with_checkpoint_interval(interval);
        if let Some(keep) = store.keep {
            cfg = cfg.with_checkpoint_keep(keep);
        }
    }

    // Resolve the mode against the pool width the run will use.
    exec::configure_threads(cfg.threads);
    if plan.announce {
        println!(
            "mesh {} at dx = {} m, {} steps, model {}, nonlinear {}, compression {}, exec {} \
             (path {}), lanes {}{}",
            cfg.dims,
            cfg.dx,
            cfg.steps,
            scenario.model,
            scenario.nonlinear,
            scenario.compression,
            cfg.exec,
            cfg.exec.resolve_path(cfg.dims.len()),
            sw_grid::simd::LaneTier::active(),
            if cfg.resident == ResidentMode::Compressed16 { ", resident compressed16" } else { "" }
        );
    }
    // Either arm runs the one step schedule and ends in the one merge.
    let grid = plan.ranks.filter(|&(mx, my)| mx * my > 1).map(|(mx, my)| RankGrid::new(mx, my));
    let execute = |resume: bool| {
        let cfg = cfg.clone().with_resume(resume);
        match grid {
            Some(grid) => run_multirank(model, &cfg, grid),
            None => {
                let state =
                    material.state.map_or_else(|| scenario.sample_state(model), |cached| cached());
                let mut sim = Simulation::new_with_state(state, &cfg)?;
                if plan.announce {
                    announce_resident(&sim, plan.memory_cap);
                }
                sim.run_checked(cfg.steps.saturating_sub(sim.step_count as usize))?;
                sim.finish()
            }
        }
    };
    let t0 = std::time::Instant::now();
    let mut restarted = None;
    let out = match execute(plan.resume != Resume::Fresh) {
        Err(RunError::ResumeFailed { detail }) if plan.resume == Resume::OrRestart => {
            eprintln!(
                "note: no usable checkpoint for {} ({detail}); restarting from scratch",
                plan.prefix
            );
            restarted = Some(detail);
            execute(false)
        }
        other => other,
    }?;
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(info) = &out.resume {
        for (step, reason) in &info.skipped {
            eprintln!("warning: skipped checkpoint generation at step {step}: {reason}");
        }
    }

    let files =
        write_result_files(&out.seismograms, &out.pgv, out.dt, &cfg, &plan.prefix, &telemetry)?;
    if let Some(path) = &art.metrics {
        std::fs::write(path, telemetry.report().to_json()).map_err(io_error(path))?;
    }
    if let (Some(dir), Some(recorder)) = (&art.bundle, &cfg.timeline) {
        // The `trace.dropped_events` counter alone is easy to miss, and
        // a silently truncated trace reads as a complete one.
        let dropped = telemetry.tracer().dropped_events();
        if dropped > 0 {
            eprintln!(
                "warning: {dropped} trace event(s) were dropped by ring-buffer eviction; \
                 the exported trace is incomplete"
            );
        }
        let trace = dir.join("trace.json");
        std::fs::write(&trace, telemetry.tracer().to_chrome_json()).map_err(io_error(&trace))?;
        if let Some(ledger) = &out.ledger {
            let path = dir.join(LEDGER_NAME);
            ledger.write_file(&path).map_err(io_error(&path))?;
        }
        // Emits the closing heartbeat.
        let report = recorder.finish();
        let path = dir.join(TIMELINE_NAME);
        let text = serde_json::to_string(&report).expect("timeline serialization is infallible");
        std::fs::write(&path, text).map_err(io_error(&path))?;
    }
    Ok(RunSummary { merged: out, steps: cfg.steps, wall_s, files, restarted })
}

/// The second banner line of a compressed-resident run: what the 16-bit
/// stores and the decode slab occupy.
fn announce_resident(sim: &Simulation, cap: Option<u64>) {
    if let (Some(stored), Some(slab)) =
        (sim.resident_stored_bytes(), sim.resident_working_set_bytes())
    {
        let cap = cap.map_or(String::new(), |cap| format!(" (cap {cap} B)"));
        println!("resident compressed16: stores {stored} B, decode slab {slab} B{cap}");
    }
}

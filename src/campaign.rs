//! Scenario campaigns: the glue between the solver stack and the
//! [`sw_campaign`] engine.
//!
//! The engine ([`sw_campaign::run_campaign`]) is solver-agnostic — it
//! schedules opaque scenario values over a bounded worker pool and keeps
//! the durable manifest. This module supplies the solver side: parsing
//! each scenario ([`Scenario::from_value_versioned`]), sharing the
//! expensive setup artifacts across scenarios through the campaign's
//! [`sw_campaign::ArtifactCache`], and handing each member to
//! [`crate::run::run_scenario`] — the function `swquake run` calls —
//! with the member directory as its bundle ([`Artifacts::bundle`]).
//!
//! # What gets shared
//!
//! * `model/…` — the built earth model ([`Scenario::model_cache_key`]):
//!   extent-free models share one instance campaign-wide, extent-bound
//!   ones per mesh shape;
//! * `state/…` — the sampled material state
//!   ([`Scenario::sample_state`], the dominant setup cost), keyed by
//!   model + mesh + spacing + solver options; scenarios differing only
//!   in sources/stations/duration share it;
//! * `sources/…` — the lowered source list, keyed by a content hash of
//!   the scenario's source spec (the slot a generated kinematic rupture
//!   would occupy).
//!
//! Cache traffic is visible as `campaign.artifact_hits` /
//! `campaign.artifact_misses` in the campaign telemetry and summary.

use crate::error::Error;
use crate::run::{self, Artifacts, Checkpoints, Material, Resume, RunPlan};
use crate::scenario::Scenario;
use std::sync::Arc;
use sw_campaign::{
    content_hash, CampaignError, CampaignOptions, CampaignReport, CampaignSpec, FailureClass,
    Outcome, Phase, Task,
};
use sw_model::VelocityModel;
use sw_source::PointSource;
use sw_telemetry::Telemetry;
use swquake_core::state::SolverState;

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
    /// What every member's plan starts from: `--exec` and `--threads`
    /// land here; the fault plan is read from the environment, and the
    /// per-member fields (prefix, store, artifacts, resume) are filled in
    /// per scenario.
    pub member: RunPlan,
    /// Campaign-wide telemetry handle (`campaign.*` counters land here);
    /// `None` uses a fresh enabled handle.
    pub telemetry: Option<Telemetry>,
}

/// Read, parse, and run (or resume) the campaign described by `path`.
///
/// The campaign's state lands in the returned report and in
/// `summary.json` in the campaign directory; what each scenario measured
/// in its bundle `<dir>/<id>/`.
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
    let fault = run::fault_plan_from_env().map_err(|e| CampaignError {
        scenario: None,
        phase: Phase::Setup,
        detail: e.to_string(),
        class: FailureClass::Usage,
    })?;
    let member = RunPlan { fault, ..opts.member.clone() };
    retain_freed_heap();
    sw_campaign::run_campaign(&spec, std::path::Path::new(&dir), &engine_opts, |task| {
        run_member(task, &member)
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
///
/// This is about page faults only. Where each array sits in the cache
/// (its phase modulo 4 KiB) is set by `SolverState::blank` from the
/// allocation's own address, so a member's arrays are placed the same
/// with or without this, and the same as under `swquake run`.
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
fn run_member(task: &Task<'_>, member: &RunPlan) -> Outcome {
    match try_run_member(task, member) {
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

/// Cache look-ups, then the one runner with the member directory as its
/// bundle.
#[allow(clippy::result_large_err)] // cold abort-path error; see Scenario::from_json
fn try_run_member(task: &Task<'_>, member: &RunPlan) -> Result<String, Error> {
    let (scenario, version) = Scenario::from_value_versioned(task.scenario)?;
    version.warn_if_deprecated(&format!("scenario `{}`", task.id));

    let model: Arc<Box<dyn VelocityModel>> =
        task.cache.get_or_build(&scenario.model_cache_key(), || scenario.build_model());
    let model = model.as_ref().as_ref();
    let sources_json =
        serde_json::to_string(&scenario.sources).expect("source spec serialization is infallible");
    let sources: Arc<Vec<PointSource>> =
        task.cache.get_or_build(&format!("sources/{}", content_hash(&sources_json)), || {
            scenario.point_sources()
        });
    let state = || -> SolverState {
        let cached: Arc<SolverState> =
            task.cache.get_or_build(&scenario.state_cache_key(), || scenario.sample_state(model));
        (*cached).clone()
    };

    // A member is always observed: its directory is a bundle, which
    // `swquake inspect <campaign dir>` reads (every sink at once costs
    // under 2 % of a step — `bench_obs_overhead`).
    let plan = RunPlan {
        checkpoints: Some(Checkpoints { dir: task.dir.join("ckpt"), interval: None, keep: None }),
        // The crash may have hit before the first checkpoint was cut; an
        // empty store restarts the member rather than wedging the campaign.
        resume: if task.resume { Resume::OrRestart } else { Resume::Fresh },
        prefix: task.dir.join("out").display().to_string(),
        artifacts: Artifacts::bundle(&task.dir),
        ..member.clone()
    };
    let material = Material { model, state: Some(&state), sources: Some(&sources) };
    let files = run::run_scenario(&scenario, material, &plan)?.files;
    Ok(format!("PGV max {:.3e} m/s, max intensity {:.1}", files.pgv_max, files.max_intensity))
}

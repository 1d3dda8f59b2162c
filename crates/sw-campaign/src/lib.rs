//! Scenario campaign engine: batch many earthquakes through one
//! resident solver process.
//!
//! A campaign file queues scenario descriptions; the engine runs them
//! against shared infrastructure instead of paying full setup per CLI
//! invocation:
//!
//! * **Artifact sharing** — earth-model builds, generated source lists
//!   and sampled material states are cached in a content-hash-keyed
//!   [`ArtifactCache`]; scenarios agreeing on the inputs share one
//!   instance (`campaign.artifact_hits` / `campaign.artifact_misses`
//!   telemetry counters);
//! * **Bounded concurrency** — up to `max_concurrent` scenarios in
//!   flight on [`sw_parallel::run_jobs`] worker threads, each free to
//!   fan its kernels over the shared Rayon helper budget without
//!   oversubscription (see `sw_parallel::jobs`);
//! * **Durability** — a campaign [`manifest`] (`MANIFEST.json`, atomic
//!   rewrites) records per-scenario state so `--resume` skips completed
//!   scenarios and resumes the one a crash interrupted;
//! * **Streaming results** — a JSONL [`log`] gets an event per scenario
//!   completion, a `heartbeat` progress line after each one (cumulative
//!   states, in-flight/pending counts, running-mean ETA), and a final
//!   summary, also written to `summary.json`. The summary holds the
//!   campaign's state (tallies, artifact-cache traffic, the abort, each
//!   scenario's standing), nothing a member measured: each member's
//!   directory keeps its own ledger and timeline, and `swquake inspect
//!   <campaign dir>` reads every done one from disk.
//!
//! The engine is solver-agnostic: scenarios are opaque JSON values, and
//! the embedding crate supplies a runner closure that lowers and runs
//! one scenario, reporting an [`Outcome`]. The `swquake` umbrella crate
//! wires this to `Scenario`/`Simulation`; tests drive it with toy
//! runners.

pub mod cache;
pub mod log;
pub mod manifest;

pub use cache::{content_hash, ArtifactCache};
pub use log::CampaignLog;
pub use manifest::{
    CampaignManifest, ManifestEntry, ManifestError, ManifestStore, ScenarioState, MANIFEST_NAME,
    MANIFEST_SCHEMA_VERSION,
};

use serde::{Serialize, Value};
use serde_json::json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use sw_telemetry::Telemetry;

/// Campaign file schema version this build reads.
pub const CAMPAIGN_SCHEMA_VERSION: u32 = 1;

/// Streaming event log file name inside the campaign directory.
pub const LOG_NAME: &str = "campaign.jsonl";

/// Final summary file name inside the campaign directory.
pub const SUMMARY_NAME: &str = "summary.json";

/// One queued scenario: an id (also its subdirectory name) plus the
/// scenario description, opaque to the engine.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Unique id within the campaign (`[A-Za-z0-9._-]+`).
    pub id: String,
    /// The scenario body, handed to the runner unparsed.
    pub scenario: Value,
}

/// A parsed campaign file.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign schema version ([`CAMPAIGN_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Campaign name (manifest stamp, default output dir name).
    pub name: String,
    /// Scenarios in flight at once (the CLI `--jobs` overrides).
    pub max_concurrent: usize,
    /// Abort on the first failed/unstable scenario (the CLI
    /// `--fail-fast` overrides).
    pub fail_fast: bool,
    /// The scenario queue, in order.
    pub scenarios: Vec<ScenarioSpec>,
}

impl CampaignSpec {
    /// Parse a campaign file. Unknown keys, duplicate or unusable ids,
    /// and an empty queue are rejected here, before anything runs.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        let spec_err = |detail: String| CampaignError {
            scenario: None,
            phase: Phase::Spec,
            detail,
            class: FailureClass::Usage,
        };
        let value: Value =
            serde_json::from_str(text).map_err(|e| spec_err(format!("invalid JSON: {e}")))?;
        serde::de::deny_unknown(
            &value,
            &["schema", "name", "max_concurrent", "fail_fast", "scenarios"],
            "campaign",
        )
        .map_err(|e| spec_err(e.to_string()))?;
        if value.as_object().is_none() {
            return Err(spec_err(format!("expected a campaign object, got {}", value.kind())));
        }
        let schema = match value.get("schema") {
            None => CAMPAIGN_SCHEMA_VERSION,
            Some(v) => v.as_u64().map(|n| n as u32).ok_or_else(|| {
                spec_err(format!("`schema` must be an integer, got {}", v.kind()))
            })?,
        };
        if schema != CAMPAIGN_SCHEMA_VERSION {
            return Err(spec_err(format!(
                "unsupported campaign schema version {schema} (this build reads \
                 {CAMPAIGN_SCHEMA_VERSION})"
            )));
        }
        let name = match value.get("name") {
            None => "campaign".to_string(),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| spec_err("`name` must be a string".into()))?,
        };
        let max_concurrent = match value.get("max_concurrent") {
            None => 1,
            Some(v) => v
                .as_u64()
                .filter(|&n| n >= 1)
                .ok_or_else(|| spec_err("`max_concurrent` must be an integer ≥ 1".into()))?
                as usize,
        };
        let fail_fast = match value.get("fail_fast") {
            None => false,
            Some(v) => {
                v.as_bool().ok_or_else(|| spec_err("`fail_fast` must be a boolean".into()))?
            }
        };
        let entries = value
            .get("scenarios")
            .and_then(Value::as_array)
            .ok_or_else(|| spec_err("`scenarios` must be a non-empty array".into()))?;
        if entries.is_empty() {
            return Err(spec_err("`scenarios` must be a non-empty array".into()));
        }
        let mut scenarios = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            serde::de::deny_unknown(entry, &["id", "scenario"], "campaign scenario")
                .map_err(|e| spec_err(format!("scenarios[{i}]: {e}")))?;
            let id = entry
                .get("id")
                .and_then(Value::as_str)
                .ok_or_else(|| spec_err(format!("scenarios[{i}]: missing string `id`")))?;
            if id.is_empty() || !id.chars().all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
            {
                return Err(spec_err(format!(
                    "scenarios[{i}]: id `{id}` must be non-empty [A-Za-z0-9._-] \
                     (it names the scenario's output directory)"
                )));
            }
            if scenarios.iter().any(|s: &ScenarioSpec| s.id == id) {
                return Err(spec_err(format!("duplicate scenario id `{id}`")));
            }
            let scenario =
                entry.get("scenario").cloned().filter(|v| !v.is_null()).ok_or_else(|| {
                    spec_err(format!("scenarios[{i}]: missing `scenario` object"))
                })?;
            scenarios.push(ScenarioSpec { id: id.to_string(), scenario });
        }
        Ok(Self { schema, name, max_concurrent, fail_fast, scenarios })
    }
}

/// Where in a scenario's (or the campaign's) lifecycle a failure hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Parsing/validating the campaign file itself.
    Spec,
    /// Campaign-level setup (directories, manifest, log).
    Setup,
    /// Parsing one scenario description.
    Parse,
    /// Building the scenario's model/config/stores.
    Build,
    /// Stepping the solver.
    Run,
    /// Writing the scenario's outputs.
    Outputs,
}

impl Phase {
    /// Lowercase tag for logs and summaries.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Spec => "spec",
            Self::Setup => "setup",
            Self::Parse => "parse",
            Self::Build => "build",
            Self::Run => "run",
            Self::Outputs => "outputs",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Coarse class of a campaign abort, for exit-code mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Operator error: bad campaign file, unusable directory.
    Usage,
    /// A scenario failed for a non-physics reason.
    Failed,
    /// A scenario's solver went unstable.
    Unstable,
    /// An injected fault killed a scenario (crash drills); the process
    /// should exit as if `kill -9` had hit it.
    Killed,
}

impl FailureClass {
    /// Lowercase tag for logs and summaries.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Usage => "usage",
            Self::Failed => "failed",
            Self::Unstable => "unstable",
            Self::Killed => "killed",
        }
    }
}

/// A campaign-level failure: which scenario (if any), which phase, what
/// happened, and how the CLI should classify it.
#[derive(Debug, Clone)]
pub struct CampaignError {
    /// The scenario at fault; `None` for campaign-level failures.
    pub scenario: Option<String>,
    /// Lifecycle phase the failure hit.
    pub phase: Phase,
    /// Operator-facing cause.
    pub detail: String,
    /// Exit-code class.
    pub class: FailureClass,
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.scenario {
            Some(id) => {
                write!(f, "campaign scenario `{id}` failed during {}: {}", self.phase, self.detail)
            }
            None => write!(f, "campaign failed during {}: {}", self.phase, self.detail),
        }
    }
}

impl std::error::Error for CampaignError {}

/// What one scenario run came to, as reported by the runner closure.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Completed; outputs written. `detail` is a short result line.
    Done {
        /// Short result line for the log (e.g. PGV).
        detail: String,
    },
    /// The solver went unstable (terminal, not retried on resume).
    Unstable {
        /// The watchdog's diagnosis.
        detail: String,
    },
    /// Failed for a non-physics reason (terminal).
    Failed {
        /// Lifecycle phase that failed.
        phase: Phase,
        /// The cause.
        detail: String,
    },
    /// An injected fault killed the run: the engine aborts the whole
    /// campaign, leaving this scenario `running` in the manifest exactly
    /// as a real SIGKILL would — `--resume` picks it back up.
    Killed {
        /// The kill event description.
        detail: String,
    },
}

/// One scenario's slot handed to the runner closure.
pub struct Task<'a> {
    /// Queue position.
    pub index: usize,
    /// Scenario id.
    pub id: &'a str,
    /// The scenario description (opaque JSON).
    pub scenario: &'a Value,
    /// This scenario's private work directory (health log, checkpoint
    /// store, outputs) — `<campaign dir>/<id>`.
    pub dir: PathBuf,
    /// Whether to resume from the scenario's checkpoint store (the
    /// manifest caught it `running` when the campaign died).
    pub resume: bool,
    /// The campaign-wide artifact cache.
    pub cache: &'a ArtifactCache,
    /// The campaign-wide telemetry handle.
    pub telemetry: &'a Telemetry,
}

/// Engine options (the CLI flags, minus the campaign file itself).
pub struct CampaignOptions {
    /// Override the spec's `max_concurrent`.
    pub jobs: Option<usize>,
    /// Resume a previously interrupted campaign in the same directory.
    pub resume: bool,
    /// Override the spec's `fail_fast`.
    pub fail_fast: Option<bool>,
    /// Campaign-wide telemetry (counters named `campaign.*`).
    pub telemetry: Telemetry,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self { jobs: None, resume: false, fail_fast: None, telemetry: Telemetry::disabled() }
    }
}

/// One scenario's final standing in the campaign report.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario id.
    pub id: String,
    /// Terminal (or, after an abort, last) state.
    pub state: ScenarioState,
    /// Result or failure detail.
    pub detail: String,
    /// Wall time this run spent on the scenario, s.
    pub wall_s: f64,
    /// True when the scenario did not run this invocation (resume skip
    /// or post-abort).
    pub skipped: bool,
}

/// The campaign's final report (also rendered to `summary.json`).
#[derive(Debug)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Scenarios completed this run or before (`done` states).
    pub done: usize,
    /// Scenarios in `failed` state.
    pub failed: usize,
    /// Scenarios in `unstable` state.
    pub unstable: usize,
    /// Scenarios skipped this run (resume) or never started (abort).
    pub skipped: usize,
    /// Artifact-cache hits ([`ArtifactCache::hits`]).
    pub artifact_hits: u64,
    /// Artifact-cache misses (= builds actually performed).
    pub artifact_misses: u64,
    /// Campaign wall time, s.
    pub wall_s: f64,
    /// Set when the campaign aborted early (kill or `--fail-fast`).
    pub aborted: Option<CampaignError>,
    /// Per-scenario standing, in queue order.
    pub scenarios: Vec<ScenarioReport>,
}

impl CampaignReport {
    /// The JSON rendering written to `summary.json`.
    pub fn summary_json(&self) -> Value {
        json!({
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "name": self.name,
            "done": self.done,
            "failed": self.failed,
            "unstable": self.unstable,
            "skipped": self.skipped,
            "artifact_hits": self.artifact_hits,
            "artifact_misses": self.artifact_misses,
            "artifact_hit_rate": self.artifact_hit_rate(),
            "wall_s": self.wall_s,
            "aborted": match &self.aborted {
                None => Value::Null,
                Some(e) => json!({
                    "scenario": match &e.scenario {
                        Some(id) => Value::String(id.clone()),
                        None => Value::Null,
                    },
                    "phase": e.phase.as_str(),
                    "class": e.class.as_str(),
                    "detail": e.detail,
                }),
            },
            "scenarios": self.scenarios,
        })
    }

    /// Fraction of artifact lookups served from the cache (0 when no
    /// lookups happened).
    pub fn artifact_hit_rate(&self) -> f64 {
        let total = self.artifact_hits + self.artifact_misses;
        if total == 0 {
            0.0
        } else {
            self.artifact_hits as f64 / total as f64
        }
    }
}

/// Run (or resume) a campaign in `dir`, calling `runner` for every
/// scenario that needs work, at most `jobs` concurrently.
///
/// Returns `Err` only when the campaign could not start (unusable
/// directory, manifest mismatch). A campaign that started always returns
/// `Ok` with the report — including aborted ones, which carry the abort
/// in [`CampaignReport::aborted`]; per-scenario failures are states in
/// the report, not errors, so one bad scenario never takes down the
/// queue unless `fail_fast` asks for it.
pub fn run_campaign<F>(
    spec: &CampaignSpec,
    dir: &Path,
    opts: &CampaignOptions,
    runner: F,
) -> Result<CampaignReport, CampaignError>
where
    F: Fn(&Task) -> Outcome + Sync,
{
    let setup_err = |detail: String| CampaignError {
        scenario: None,
        phase: Phase::Setup,
        detail,
        class: FailureClass::Usage,
    };
    std::fs::create_dir_all(dir)
        .map_err(|e| setup_err(format!("cannot create campaign dir {}: {e}", dir.display())))?;
    let ids: Vec<String> = spec.scenarios.iter().map(|s| s.id.clone()).collect();
    let manifest = if opts.resume {
        let store = ManifestStore::open(dir).map_err(|e| setup_err(e.to_string()))?;
        let prior_ids: Vec<String> = store.snapshot().scenarios.into_iter().map(|e| e.id).collect();
        if prior_ids != ids {
            return Err(setup_err(format!(
                "campaign file does not match the manifest being resumed \
                 (manifest ids {prior_ids:?}, campaign ids {ids:?})"
            )));
        }
        store
    } else {
        ManifestStore::create(dir, &spec.name, &ids).map_err(|e| setup_err(e.to_string()))?
    };
    let prior: Vec<ScenarioState> = manifest.snapshot().scenarios.iter().map(|e| e.state).collect();
    let log = CampaignLog::create(&dir.join(LOG_NAME), opts.resume)
        .map_err(|e| setup_err(format!("cannot open campaign log: {e}")))?;
    let cache = ArtifactCache::new();
    let telemetry = &opts.telemetry;
    let jobs = opts.jobs.unwrap_or(spec.max_concurrent).max(1);
    let fail_fast = opts.fail_fast.unwrap_or(spec.fail_fast);
    log.event(&json!({
        "event": "campaign_start",
        "name": spec.name,
        "scenarios": spec.scenarios.len(),
        "jobs": jobs,
        "resume": opts.resume,
        "fail_fast": fail_fast,
    }));
    let abort: Mutex<Option<CampaignError>> = Mutex::new(None);
    let abort_flag = AtomicBool::new(false);
    // Heartbeat state: scenarios already terminal before this run, plus
    // live counters updated as this run's scenarios start and finish.
    let total = spec.scenarios.len();
    let is_terminal = |s: &ScenarioState| {
        matches!(s, ScenarioState::Done | ScenarioState::Failed | ScenarioState::Unstable)
    };
    let pre_done = prior.iter().filter(|s| **s == ScenarioState::Done).count();
    let pre_failed = prior.iter().filter(|s| **s == ScenarioState::Failed).count();
    let pre_unstable = prior.iter().filter(|s| **s == ScenarioState::Unstable).count();
    let pre_terminal = prior.iter().filter(|s| is_terminal(s)).count();
    let done_now = AtomicUsize::new(0);
    let failed_now = AtomicUsize::new(0);
    let unstable_now = AtomicUsize::new(0);
    let started = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let finished_wall = Mutex::new(0.0_f64);
    // One progress line per scenario completion: cumulative states, how
    // many are in flight/pending, and an ETA from the running mean wall
    // time of scenarios finished this run.
    let heartbeat = |state: ScenarioState, wall: f64| {
        match state {
            ScenarioState::Done => done_now.fetch_add(1, Ordering::SeqCst),
            ScenarioState::Failed => failed_now.fetch_add(1, Ordering::SeqCst),
            ScenarioState::Unstable => unstable_now.fetch_add(1, Ordering::SeqCst),
            _ => 0,
        };
        let fin = finished.fetch_add(1, Ordering::SeqCst) + 1;
        let mean_wall = {
            let mut sum = finished_wall.lock().unwrap_or_else(|p| p.into_inner());
            *sum += wall;
            *sum / fin as f64
        };
        let running = started.load(Ordering::SeqCst).saturating_sub(fin);
        let remaining = total.saturating_sub(pre_terminal + fin + running);
        let eta_s = mean_wall * (remaining + running) as f64 / jobs as f64;
        log.event(&json!({
            "event": "heartbeat",
            "done": pre_done + done_now.load(Ordering::SeqCst),
            "failed": pre_failed + failed_now.load(Ordering::SeqCst),
            "unstable": pre_unstable + unstable_now.load(Ordering::SeqCst),
            "running": running,
            "pending": remaining,
            "eta_s": eta_s,
        }));
    };
    let raise_abort = |err: CampaignError| {
        let mut slot = abort.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            slot.replace(err);
            abort_flag.store(true, Ordering::SeqCst);
        }
    };
    let t0 = Instant::now();
    let reports = sw_parallel::run_jobs(jobs, spec.scenarios.len(), |i| {
        let entry = &spec.scenarios[i];
        let id = entry.id.as_str();
        // Terminal scenarios from an earlier run are skipped (never
        // re-run); fresh campaigns start all-pending so this only fires
        // on resume.
        if matches!(prior[i], ScenarioState::Done | ScenarioState::Failed | ScenarioState::Unstable)
        {
            log.event(&json!({"event": "scenario_skipped", "id": id, "state": prior[i].as_str()}));
            telemetry.add("campaign.scenarios_skipped", 1);
            return ScenarioReport {
                id: id.to_string(),
                state: prior[i],
                detail: format!("skipped (already {})", prior[i]),
                wall_s: 0.0,
                skipped: true,
            };
        }
        if abort_flag.load(Ordering::SeqCst) {
            return ScenarioReport {
                id: id.to_string(),
                state: ScenarioState::Pending,
                detail: "not started (campaign aborted)".to_string(),
                wall_s: 0.0,
                skipped: true,
            };
        }
        let resume_scenario = opts.resume && prior[i] == ScenarioState::Running;
        let task = Task {
            index: i,
            id,
            scenario: &entry.scenario,
            dir: dir.join(id),
            resume: resume_scenario,
            cache: &cache,
            telemetry,
        };
        // A scenario whose state cannot be persisted must not run: the
        // manifest is the durable record resume trusts.
        let persist = |state: ScenarioState, detail: &str| -> Result<(), String> {
            manifest.set_state(id, state, detail).map_err(|e| e.to_string())
        };
        if let Err(e) = persist(ScenarioState::Running, "") {
            let detail = format!("cannot persist manifest: {e}");
            log.event(&json!({"event": "scenario", "id": id, "state": "failed", "detail": detail}));
            telemetry.add("campaign.scenarios_failed", 1);
            heartbeat(ScenarioState::Failed, 0.0);
            if fail_fast {
                raise_abort(CampaignError {
                    scenario: Some(id.to_string()),
                    phase: Phase::Setup,
                    detail: detail.clone(),
                    class: FailureClass::Failed,
                });
            }
            return ScenarioReport {
                id: id.to_string(),
                state: ScenarioState::Failed,
                detail,
                wall_s: 0.0,
                skipped: false,
            };
        }
        log.event(&json!({"event": "scenario_start", "id": id, "resume": resume_scenario}));
        started.fetch_add(1, Ordering::SeqCst);
        let ts = Instant::now();
        let outcome = runner(&task);
        let wall = ts.elapsed().as_secs_f64();
        telemetry.record_duration("campaign.scenario", wall);
        let (state, detail) = match outcome {
            Outcome::Done { detail } => {
                telemetry.add("campaign.scenarios_done", 1);
                (ScenarioState::Done, detail)
            }
            Outcome::Unstable { detail } => {
                telemetry.add("campaign.scenarios_unstable", 1);
                if fail_fast {
                    raise_abort(CampaignError {
                        scenario: Some(id.to_string()),
                        phase: Phase::Run,
                        detail: detail.clone(),
                        class: FailureClass::Unstable,
                    });
                }
                (ScenarioState::Unstable, detail)
            }
            Outcome::Failed { phase, detail } => {
                telemetry.add("campaign.scenarios_failed", 1);
                if fail_fast {
                    raise_abort(CampaignError {
                        scenario: Some(id.to_string()),
                        phase,
                        detail: detail.clone(),
                        class: FailureClass::Failed,
                    });
                }
                (ScenarioState::Failed, detail)
            }
            Outcome::Killed { detail } => {
                // Leave the manifest at `running`, exactly what a real
                // SIGKILL leaves behind: resume restores this scenario
                // from its checkpoint store.
                log.event(&json!({
                    "event": "campaign_abort",
                    "scenario": id,
                    "phase": "run",
                    "detail": detail,
                }));
                raise_abort(CampaignError {
                    scenario: Some(id.to_string()),
                    phase: Phase::Run,
                    detail: detail.clone(),
                    class: FailureClass::Killed,
                });
                return ScenarioReport {
                    id: id.to_string(),
                    state: ScenarioState::Running,
                    detail,
                    wall_s: wall,
                    skipped: false,
                };
            }
        };
        let detail = match persist(state, &detail) {
            Ok(()) => detail,
            Err(e) => format!("{detail} (and manifest persist failed: {e})"),
        };
        log.event(&json!({
            "event": "scenario",
            "id": id,
            "state": state.as_str(),
            "detail": detail,
            "wall_s": wall,
        }));
        heartbeat(state, wall);
        ScenarioReport { id: id.to_string(), state, detail, wall_s: wall, skipped: false }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    telemetry.add("campaign.artifact_hits", cache.hits());
    telemetry.add("campaign.artifact_misses", cache.misses());
    telemetry.record_duration("campaign.wall", wall_s);
    let count = |s: ScenarioState| reports.iter().filter(|r| r.state == s).count();
    let report = CampaignReport {
        name: spec.name.clone(),
        done: count(ScenarioState::Done),
        failed: count(ScenarioState::Failed),
        unstable: count(ScenarioState::Unstable),
        skipped: reports.iter().filter(|r| r.skipped).count(),
        artifact_hits: cache.hits(),
        artifact_misses: cache.misses(),
        wall_s,
        aborted: abort.into_inner().unwrap_or_else(|p| p.into_inner()),
        scenarios: reports,
    };
    let summary = report.summary_json();
    log.event(&json!({
        "event": "summary",
        "done": report.done,
        "failed": report.failed,
        "unstable": report.unstable,
        "skipped": report.skipped,
        "artifact_hits": report.artifact_hits,
        "artifact_misses": report.artifact_misses,
        "wall_s": report.wall_s,
    }));
    if let Ok(doc) = sw_io::DocFile::at(dir.join(SUMMARY_NAME)) {
        let _ = doc.save(&serde_json::to_string_pretty(&summary).expect("summary serializes"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("swq_campaign_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn spec(n: usize) -> CampaignSpec {
        let scenarios = (0..n)
            .map(|i| format!("{{\"id\": \"s{i}\", \"scenario\": {{\"mw\": {i}}}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        CampaignSpec::from_json(&format!(
            "{{\"schema\": 1, \"name\": \"t\", \"scenarios\": [{scenarios}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn spec_rejects_bad_files() {
        for (text, needle) in [
            ("{ nope", "invalid JSON"),
            ("{\"scenarios\": []}", "non-empty"),
            ("{\"schema\": 9, \"scenarios\": [{\"id\": \"a\", \"scenario\": {}}]}", "unsupported"),
            (
                "{\"frobnicate\": 1, \"scenarios\": [{\"id\": \"a\", \"scenario\": {}}]}",
                "unknown field",
            ),
            ("{\"scenarios\": [{\"id\": \"a b\", \"scenario\": {}}]}", "A-Za-z0-9"),
            (
                "{\"scenarios\": [{\"id\": \"a\", \"scenario\": {}}, {\"id\": \"a\", \
                 \"scenario\": {}}]}",
                "duplicate",
            ),
            ("{\"scenarios\": [{\"id\": \"a\"}]}", "missing `scenario`"),
        ] {
            let err = CampaignSpec::from_json(text).unwrap_err();
            assert!(err.detail.contains(needle), "`{text}` → {err}");
            assert_eq!(err.class, FailureClass::Usage);
        }
    }

    #[test]
    fn campaign_runs_all_and_records_states() {
        let d = dir("run");
        let report = run_campaign(&spec(3), &d, &CampaignOptions::default(), |task| {
            // s1 goes unstable, the rest complete — and the queue keeps
            // going: one bad scenario must not abort the campaign.
            if task.id == "s1" {
                Outcome::Unstable { detail: "CFL violated".into() }
            } else {
                Outcome::Done { detail: String::new() }
            }
        })
        .unwrap();
        assert_eq!((report.done, report.unstable, report.failed, report.skipped), (2, 1, 0, 0));
        assert!(report.aborted.is_none());
        let manifest = ManifestStore::open(&d).unwrap().snapshot();
        assert_eq!(manifest.scenarios[1].state, ScenarioState::Unstable);
        assert_eq!(manifest.scenarios[0].state, ScenarioState::Done);
        assert_eq!(manifest.scenarios[2].state, ScenarioState::Done);
        assert!(d.join(SUMMARY_NAME).exists());
        assert!(d.join(LOG_NAME).exists());
    }

    #[test]
    fn fail_fast_aborts_the_queue() {
        let d = dir("failfast");
        let opts = CampaignOptions { fail_fast: Some(true), ..Default::default() };
        let report = run_campaign(&spec(4), &d, &opts, |task| {
            if task.index == 0 {
                Outcome::Failed { phase: Phase::Build, detail: "bad scenario".into() }
            } else {
                Outcome::Done { detail: String::new() }
            }
        })
        .unwrap();
        let aborted = report.aborted.expect("fail-fast abort recorded");
        assert_eq!(aborted.class, FailureClass::Failed);
        assert_eq!(aborted.scenario.as_deref(), Some("s0"));
        // With one sequential worker, nothing after s0 starts.
        assert!(report.scenarios[1..].iter().all(|r| r.skipped));
        let manifest = ManifestStore::open(&d).unwrap().snapshot();
        assert_eq!(manifest.scenarios[1].state, ScenarioState::Pending);
    }

    #[test]
    fn kill_leaves_running_in_manifest_and_resume_retries_it() {
        let d = dir("kill");
        let report = run_campaign(&spec(3), &d, &CampaignOptions::default(), |task| {
            if task.id == "s1" {
                Outcome::Killed { detail: "injected kill".into() }
            } else {
                assert!(!task.resume);
                Outcome::Done { detail: String::new() }
            }
        })
        .unwrap();
        assert_eq!(report.aborted.as_ref().map(|a| a.class), Some(FailureClass::Killed));
        let manifest = ManifestStore::open(&d).unwrap().snapshot();
        assert_eq!(manifest.scenarios[0].state, ScenarioState::Done);
        assert_eq!(manifest.scenarios[1].state, ScenarioState::Running, "kill leaves `running`");
        assert_eq!(manifest.scenarios[2].state, ScenarioState::Pending);
        // Resume: s0 skipped, s1 handed back with task.resume, s2 fresh.
        let opts = CampaignOptions { resume: true, ..Default::default() };
        let report = run_campaign(&spec(3), &d, &opts, |task| {
            match task.id {
                "s0" => panic!("done scenario must not re-run"),
                "s1" => assert!(task.resume, "interrupted scenario resumes"),
                _ => assert!(!task.resume),
            }
            Outcome::Done { detail: String::new() }
        })
        .unwrap();
        // `done` counts the skipped-because-already-done scenario too.
        assert_eq!((report.done, report.skipped), (3, 1));
        let manifest = ManifestStore::open(&d).unwrap().snapshot();
        assert!(manifest.scenarios.iter().all(|e| e.state == ScenarioState::Done));
    }

    #[test]
    fn artifacts_are_shared_across_scenarios() {
        let d = dir("cache");
        let report = run_campaign(&spec(3), &d, &CampaignOptions::default(), |task| {
            let model = task.cache.get_or_build("model/shared", || vec![0u8; 8]);
            assert_eq!(model.len(), 8);
            Outcome::Done { detail: String::new() }
        })
        .unwrap();
        assert_eq!(report.artifact_misses, 1, "model built exactly once");
        assert_eq!(report.artifact_hits, 2);
    }

    #[test]
    fn resume_rejects_a_different_campaign_file() {
        let d = dir("mismatch");
        run_campaign(&spec(2), &d, &CampaignOptions::default(), |_| Outcome::Done {
            detail: String::new(),
        })
        .unwrap();
        let opts = CampaignOptions { resume: true, ..Default::default() };
        let err = run_campaign(&spec(3), &d, &opts, |_| Outcome::Done { detail: String::new() })
            .unwrap_err();
        assert!(err.detail.contains("does not match"), "got: {err}");
    }

    #[test]
    fn summary_holds_state_and_the_log_streams_heartbeats() {
        let d = dir("heartbeat");
        run_campaign(&spec(3), &d, &CampaignOptions::default(), |_| Outcome::Done {
            detail: String::new(),
        })
        .unwrap();
        let text = std::fs::read_to_string(d.join(SUMMARY_NAME)).unwrap();
        let summary: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(summary.get("done").and_then(Value::as_u64), Some(3));
        let hit_rate = summary.get("artifact_hit_rate").and_then(Value::as_f64);
        assert_eq!(hit_rate, Some(0.0), "no artifact lookups in this campaign");
        // What members measured is read from their directories, not here.
        for key in ["perf", "timeline"] {
            assert!(summary.get(key).is_none(), "summary carries `{key}`");
        }
        // One heartbeat per completion, counting up to done=3 pending=0.
        let log = std::fs::read_to_string(d.join(LOG_NAME)).unwrap();
        let beats: Vec<Value> = log
            .lines()
            .filter_map(|l| serde_json::from_str(l).ok())
            .filter(|v: &Value| v.get("event").and_then(Value::as_str) == Some("heartbeat"))
            .collect();
        assert_eq!(beats.len(), 3);
        let last = beats.last().unwrap();
        assert_eq!(last.get("done").and_then(Value::as_u64), Some(3));
        assert_eq!(last.get("pending").and_then(Value::as_u64), Some(0));
        assert!(last.get("eta_s").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn concurrent_campaign_completes_every_scenario() {
        let d = dir("jobs");
        let mut s = spec(8);
        s.max_concurrent = 4;
        let report = run_campaign(&s, &d, &CampaignOptions::default(), |task| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _ = task.cache.get_or_build("model/shared", || 1u8);
            Outcome::Done { detail: String::new() }
        })
        .unwrap();
        assert_eq!(report.done, 8);
        assert_eq!(report.artifact_misses, 1);
        assert_eq!(report.artifact_hits, 7);
    }
}

//! Campaign end-to-end tests: schema-version pinning, artifact sharing,
//! the campaign crash drill (kill → `--resume` → byte-identical
//! outputs), and the campaign exit-code contract.

use std::path::PathBuf;
use std::process::Command;
use swquake::telemetry::Telemetry;
use swquake::{Scenario, ScenarioVersion};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swquake")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swquake_campaign_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small v2 scenario on the shared 20×20×12 Tangshan mesh.
fn scenario_value(duration: f64, dt_scale: Option<f64>) -> serde_json::Value {
    let mut v = serde_json::json!({
        "schema": 2,
        "mesh": [20, 20, 12],
        "dx": 250.0,
        "duration": duration,
        "model": "tangshan",
        "nonlinear": false,
        "attenuation": true,
        "compression": false,
        "sponge_width": 4,
        "sources": [{
            "position": [10, 10, 6],
            "mw": 5.5,
            "mechanism": [30.0, 90.0, 180.0],
            "onset": 0.2,
            "duration": 1.0
        }],
        "stations": [{"name": "probe", "ix": 14, "iy": 14}],
        "output_prefix": "ignored_by_campaigns"
    });
    if let Some(scale) = dt_scale {
        v["dt_scale"] = serde_json::json!(scale);
    }
    v
}

fn campaign_json(name: &str, scenarios: &[(&str, serde_json::Value)]) -> String {
    let entries: Vec<serde_json::Value> = scenarios
        .iter()
        .map(|(id, s)| serde_json::json!({"id": *id, "scenario": s.clone()}))
        .collect();
    serde_json::to_string(&serde_json::json!({
        "schema": 1,
        "name": name,
        "scenarios": entries,
    }))
    .unwrap()
}

/// `swquake inspect <dir>`, which must exit 0; its stdout.
fn inspect(dir: &std::path::Path) -> String {
    let out = Command::new(bin()).args(["inspect", dir.to_str().unwrap()]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    stdout
}

/// The members `inspect` rendered a ledger with a `dvelc` row and a
/// timeline for, in the order it rendered them.
fn inspected_members(dir: &std::path::Path, stdout: &str) -> Vec<String> {
    let sections: Vec<&str> = stdout.split("== ").skip(1).collect();
    let member = |section: &str, file: &str| -> Option<String> {
        let path = section.lines().next()?.strip_suffix(file)?;
        let id = path.strip_prefix(dir.to_str()?)?.trim_matches('/');
        Some(id.to_string())
    };
    let ledgers: Vec<String> = sections
        .iter()
        .filter(|s| s.lines().any(|l| l.starts_with("dvelc ")))
        .filter_map(|s| member(s, "perf.json"))
        .collect();
    let timelines: Vec<String> = sections
        .iter()
        .filter(|s| s.contains("critical rank:"))
        .filter_map(|s| member(s, "timeline.json"))
        .collect();
    assert_eq!(ledgers, timelines, "every member's ledger and timeline:\n{stdout}");
    ledgers
}

/// `summary.json` holds the campaign's state, and nothing a member
/// measured.
fn summary(dir: &std::path::Path) -> serde_json::Value {
    let text = std::fs::read_to_string(dir.join("summary.json")).unwrap();
    let summary: serde_json::Value = serde_json::from_str(&text).unwrap();
    for key in ["perf", "timeline"] {
        assert!(summary.get(key).is_none(), "summary.json carries `{key}`: {summary:?}");
    }
    summary
}

fn manifest_states(dir: &std::path::Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(dir.join("MANIFEST.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    v["scenarios"]
        .as_array()
        .unwrap()
        .iter()
        .map(|e| (e["id"].as_str().unwrap().to_string(), e["state"].as_str().unwrap().to_string()))
        .collect()
}

/// Golden-file pin of the two scenario schema versions: the SAME
/// physical setup written as legacy v1 (no `schema`, stringly model,
/// tuple stations) and as current v2 must lower to identical solver
/// configs. If this breaks, one of the loaders drifted.
#[test]
fn v1_and_v2_golden_files_lower_to_identical_configs() {
    let v1_text = r#"{
        "mesh": [24, 24, 12],
        "dx": 250.0,
        "duration": 1.0,
        "model": "north_china",
        "nonlinear": true,
        "attenuation": true,
        "compression": false,
        "sponge_width": 6,
        "dt_scale": 0.9,
        "checkpoint_interval": 25,
        "sources": [{
            "position": [12, 12, 6],
            "mw": 6.0,
            "mechanism": [45.0, 60.0, 90.0],
            "onset": 0.3,
            "duration": 0.8
        }],
        "stations": [["near", 14, 14], ["far", 20, 20]],
        "output_prefix": "golden"
    }"#;
    let v2_text = r#"{
        "schema": 2,
        "mesh": [24, 24, 12],
        "dx": 250.0,
        "duration": 1.0,
        "model": "north_china",
        "nonlinear": true,
        "attenuation": true,
        "compression": false,
        "sponge_width": 6,
        "dt_scale": 0.9,
        "checkpoint_interval": 25,
        "sources": [{
            "position": [12, 12, 6],
            "mw": 6.0,
            "mechanism": [45.0, 60.0, 90.0],
            "onset": 0.3,
            "duration": 0.8
        }],
        "stations": [
            {"name": "near", "ix": 14, "iy": 14},
            {"name": "far", "ix": 20, "iy": 20}
        ],
        "output_prefix": "golden"
    }"#;
    let (s1, ver1) = Scenario::from_json_versioned(v1_text).expect("v1 loads");
    let (s2, ver2) = Scenario::from_json_versioned(v2_text).expect("v2 loads");
    assert_eq!(ver1, ScenarioVersion::V1);
    assert_eq!(ver2, ScenarioVersion::V2);

    let model = s1.build_model();
    let c1 = s1.to_config(model.as_ref()).expect("v1 lowers");
    let c2 = s2.to_config(model.as_ref()).expect("v2 lowers");
    assert_eq!(c1.dims, c2.dims);
    assert_eq!(c1.dx, c2.dx);
    assert_eq!(c1.steps, c2.steps);
    assert_eq!(c1.options, c2.options);
    assert_eq!(c1.sources, c2.sources);
    assert_eq!(c1.stations, c2.stations);
    assert_eq!(s1.checkpoint_interval, s2.checkpoint_interval);
    assert_eq!(c1.compression, c2.compression);
    // And the station names made it through the v1 tuple upgrade.
    assert_eq!(c2.stations[0].name, "near");
    assert_eq!(c2.stations[1].name, "far");
}

/// Three scenarios on the same mesh/model build the model, the material
/// state, and the source list exactly once each — asserted through the
/// campaign telemetry counters and the report.
#[test]
fn campaign_builds_shared_artifacts_exactly_once() {
    let dir = workdir("share");
    let spec_path = dir.join("campaign.json");
    // Same mesh, model, and sources; only the duration differs — so the
    // model, state, and source-list artifacts are each built once.
    std::fs::write(
        &spec_path,
        campaign_json(
            "share",
            &[
                ("a", scenario_value(0.25, None)),
                ("b", scenario_value(0.30, None)),
                ("c", scenario_value(0.35, None)),
            ],
        ),
    )
    .unwrap();
    let telemetry = Telemetry::enabled();
    let opts = swquake::campaign::CampaignRunOptions {
        dir: Some(dir.join("camp").to_str().unwrap().to_string()),
        telemetry: Some(telemetry.clone()),
        ..Default::default()
    };
    let report = swquake::campaign::run_campaign_file(spec_path.to_str().unwrap(), &opts).unwrap();
    assert_eq!(report.done, 3, "aborted: {:?}", report.aborted);
    assert_eq!(
        (report.artifact_misses, report.artifact_hits),
        (3, 6),
        "model + state + sources each built once, then shared"
    );
    let counters = telemetry.report();
    assert_eq!(counters.counter("campaign.artifact_misses"), Some(3));
    assert_eq!(counters.counter("campaign.artifact_hits"), Some(6));
    assert_eq!(counters.counter("campaign.scenarios_done"), Some(3));

    // Per-scenario artifacts landed in per-scenario directories.
    for id in ["a", "b", "c"] {
        let sdir = dir.join("camp").join(id);
        assert!(sdir.join("out_seismograms.csv").exists(), "{id} seismograms");
        assert!(sdir.join("out_hazard.json").exists(), "{id} hazard");
        assert!(sdir.join("health.jsonl").exists(), "{id} health log");
        assert!(sdir.join("metrics.json").exists(), "{id} metrics");
        assert!(sdir.join("ckpt").join("MANIFEST.json").exists(), "{id} checkpoint store");
    }
    // The summary mirrors the report.
    let summary = summary(&dir.join("camp"));
    assert_eq!(summary["done"], 3);
    assert_eq!(summary["artifact_misses"], 3);
    assert_eq!(summary["artifact_hits"], 6);
    // Results streamed: one scenario event per completion in the JSONL log.
    let log = std::fs::read_to_string(dir.join("camp").join("campaign.jsonl")).unwrap();
    let scenario_events = log.lines().filter(|l| l.contains("\"event\":\"scenario\"")).count();
    assert_eq!(scenario_events, 3, "log: {log}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Queue `s1`, `s2` (short) and `s3` (long) in `<dir>/campaign.json`,
/// with a kill step that lands in `s3` only, past its first checkpoint.
fn drill_spec(dir: &std::path::Path) -> (PathBuf, usize) {
    let short = 0.3;
    let long = 1.2;
    // Derive steps from the real lowering so the drill cannot silently
    // stop covering the interesting window.
    let probe = |d: f64| {
        let v = scenario_value(d, None);
        let (s, _) = Scenario::from_json_versioned(&serde_json::to_string(&v).unwrap()).unwrap();
        let model = s.build_model();
        s.to_config(model.as_ref()).unwrap().steps
    };
    let steps_short = probe(short);
    let steps_long = probe(long);
    let kill_at = steps_short + 4;
    assert!(kill_at > 10, "kill must land past the first checkpoint (interval 10)");
    assert!(steps_long > kill_at + 4, "long scenario must still be running at the kill");
    let spec_path = dir.join("campaign.json");
    let members = [
        ("s1", scenario_value(short, None)),
        ("s2", scenario_value(short, None)),
        ("s3", scenario_value(long, None)),
    ];
    std::fs::write(&spec_path, campaign_json("drill", &members)).unwrap();
    (spec_path, kill_at)
}

/// Run the drill campaign into `camp_dir` with the kill armed: exit 137,
/// the victim left `running`.
fn crash(spec_path: &std::path::Path, camp_dir: &std::path::Path, kill_at: usize) {
    let out = Command::new(bin())
        .args(["campaign", spec_path.to_str().unwrap(), "--dir", camp_dir.to_str().unwrap()])
        .env("SWQUAKE_FAULT_PLAN", format!("seed=7;kill@{kill_at}"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(137), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        manifest_states(camp_dir),
        vec![
            ("s1".to_string(), "done".to_string()),
            ("s2".to_string(), "done".to_string()),
            ("s3".to_string(), "running".to_string()),
        ],
        "a kill leaves the victim `running`, exactly like a real SIGKILL"
    );
}

/// `--resume` (no fault plan) the crashed drill in `camp_dir`: exit 0,
/// every member done.
fn resume(spec_path: &std::path::Path, camp_dir: &std::path::Path) {
    let out = Command::new(bin())
        .args([
            "campaign",
            spec_path.to_str().unwrap(),
            "--dir",
            camp_dir.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(manifest_states(camp_dir).iter().all(|(_, s)| s == "done"));
}

/// The campaign crash drill: an injected kill aborts the campaign with
/// exit 137 leaving the victim `running` in the manifest; `--resume`
/// skips the completed scenarios (their outputs untouched), resumes the
/// victim from its checkpoint store, and the final outputs are
/// byte-identical to an uninterrupted campaign.
#[test]
fn killed_campaign_resumes_byte_identically() {
    let dir = workdir("drill");
    let (spec_path, kill_at) = drill_spec(&dir);

    // Reference: the same campaign, never interrupted.
    let ref_dir = dir.join("reference");
    let out = Command::new(bin())
        .args(["campaign", spec_path.to_str().unwrap(), "--dir", ref_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Crash run: the kill hits s3 (the only scenario long enough).
    let camp_dir = dir.join("crashed");
    crash(&spec_path, &camp_dir, kill_at);
    let mtime = |p: &std::path::Path| std::fs::metadata(p).unwrap().modified().unwrap();
    let s1_csv = camp_dir.join("s1").join("out_seismograms.csv");
    let s1_before = mtime(&s1_csv);

    // Resume: completed scenarios are skipped, the victim picks up from
    // its checkpoint store.
    resume(&spec_path, &camp_dir);
    assert_eq!(s1_before, mtime(&s1_csv), "done scenarios must not be re-run on resume");

    // The resumed campaign's outputs are byte-identical to the
    // uninterrupted reference — for the resumed scenario especially.
    for id in ["s1", "s2", "s3"] {
        for file in ["out_seismograms.csv", "out_hazard.json"] {
            let a = std::fs::read(camp_dir.join(id).join(file)).unwrap();
            let b = std::fs::read(ref_dir.join(id).join(file)).unwrap();
            assert_eq!(a, b, "{id}/{file} differs from the uninterrupted reference");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// After a kill and a resume, the one roll-up reads every done member
/// from disk — the two the first invocation finished, and the one the
/// second resumed — while `summary.json` holds state only. (A roll-up
/// kept in the summary listed the resumed member alone.)
#[test]
fn inspect_rolls_up_every_member_of_a_resumed_campaign() {
    let dir = workdir("resumed_rollup");
    let (spec_path, kill_at) = drill_spec(&dir);
    let camp_dir = dir.join("camp");
    crash(&spec_path, &camp_dir, kill_at);
    resume(&spec_path, &camp_dir);
    assert_eq!(inspected_members(&camp_dir, &inspect(&camp_dir)), ["s1", "s2", "s3"]);
    let summary = summary(&camp_dir);
    assert_eq!((summary["done"].as_u64(), summary["skipped"].as_u64()), (Some(3), Some(2)));
    std::fs::remove_dir_all(&dir).ok();
}

/// Exit-code contract: one unstable scenario does not abort the queue
/// (exit 1 after completing everything); a failed scenario yields exit 3
/// (failures dominate); `--fail-fast` stops at the first bad scenario.
#[test]
fn campaign_exit_codes_follow_the_contract() {
    let dir = workdir("codes");
    // dt_scale 3.0 deliberately violates the CFL bound → unstable.
    let spec_path = dir.join("unstable.json");
    std::fs::write(
        &spec_path,
        campaign_json(
            "codes",
            &[
                ("bad", scenario_value(2.0, Some(3.0))),
                ("ok1", scenario_value(0.25, None)),
                ("ok2", scenario_value(0.25, None)),
            ],
        ),
    )
    .unwrap();
    let camp = dir.join("unstable_camp");
    let out = Command::new(bin())
        .args(["campaign", spec_path.to_str().unwrap(), "--dir", camp.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        manifest_states(&camp),
        vec![
            ("bad".to_string(), "unstable".to_string()),
            ("ok1".to_string(), "done".to_string()),
            ("ok2".to_string(), "done".to_string()),
        ],
        "one unstable scenario must not abort the rest of the queue"
    );

    // --fail-fast: the queue stops at the first bad scenario.
    let ff = dir.join("failfast_camp");
    let out = Command::new(bin())
        .args([
            "campaign",
            spec_path.to_str().unwrap(),
            "--dir",
            ff.to_str().unwrap(),
            "--fail-fast",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let states = manifest_states(&ff);
    assert_eq!(states[0], ("bad".to_string(), "unstable".to_string()));
    assert!(
        states[1..].iter().all(|(_, s)| s == "pending"),
        "fail-fast must leave the rest pending: {states:?}"
    );

    // A scenario that cannot even be parsed is `failed`, and failures
    // dominate the exit code (3).
    let failed_path = dir.join("failed.json");
    let mut bad_model = scenario_value(0.25, None);
    bad_model["model"] = serde_json::json!("flat_earth");
    std::fs::write(
        &failed_path,
        campaign_json("codes_failed", &[("broken", bad_model), ("ok", scenario_value(0.25, None))]),
    )
    .unwrap();
    let fcamp = dir.join("failed_camp");
    let out = Command::new(bin())
        .args(["campaign", failed_path.to_str().unwrap(), "--dir", fcamp.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let states = manifest_states(&fcamp);
    assert_eq!(states[0].1, "failed");
    assert_eq!(states[1].1, "done");
    std::fs::remove_dir_all(&dir).ok();
}

/// The campaign roll-up is `swquake inspect <campaign dir>`: it renders
/// every done member's ledger and timeline from its bundle.
/// `summary.json` carries the campaign's state (tallies, the
/// artifact-cache hit rate) and `campaign.jsonl` a heartbeat progress
/// line per completion.
#[test]
fn inspect_rolls_up_the_members_and_the_log_streams_heartbeats() {
    let dir = workdir("perf");
    let spec_path = dir.join("campaign.json");
    std::fs::write(
        &spec_path,
        campaign_json(
            "perf",
            &[("a", scenario_value(0.25, None)), ("b", scenario_value(0.30, None))],
        ),
    )
    .unwrap();
    let camp = dir.join("camp");
    let out = Command::new(bin())
        .args(["campaign", spec_path.to_str().unwrap(), "--dir", camp.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let summary = summary(&camp);
    assert_eq!(summary["done"], 2);
    let hit_rate = summary["artifact_hit_rate"].as_f64().unwrap();
    assert!((0.0..=1.0).contains(&hit_rate) && hit_rate > 0.0, "hit rate {hit_rate}");
    assert_eq!(inspected_members(&camp, &inspect(&camp)), ["a", "b"]);

    // One heartbeat per completed scenario, with progress counts and ETA.
    let log = std::fs::read_to_string(camp.join("campaign.jsonl")).unwrap();
    let beats: Vec<serde_json::Value> = log
        .lines()
        .filter_map(|l| serde_json::from_str(l).ok())
        .filter(|v: &serde_json::Value| v["event"] == "heartbeat")
        .collect();
    assert_eq!(beats.len(), 2, "log: {log}");
    let last = beats.last().unwrap();
    assert_eq!(last["done"], 2);
    assert_eq!(last["pending"], 0);
    assert!(last["eta_s"].as_f64().is_some());

    // Every member's bundle holds its ledger next to metrics.json.
    for id in ["a", "b"] {
        let ledger: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(camp.join(id).join("perf.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(ledger["schema_version"], 1, "{id} ledger schema");
        let dvelc = ledger["kernels"].as_array().unwrap().iter().find(|k| k["name"] == "dvelc");
        let dvelc = dvelc.unwrap_or_else(|| panic!("{id} ledger has no dvelc row"));
        assert!(dvelc["wall_s"].as_f64().unwrap() > 0.0);
        assert!(ledger["step_p95_s"].as_f64().unwrap() >= ledger["step_p50_s"].as_f64().unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// There is no `--perf` opt-in any more: a plain campaign's members are
/// bundles — ledger, trace and heartbeats included — and the roll-up,
/// `swquake inspect`, is populated from them.
#[test]
fn campaign_rollup_is_populated_even_without_perf_flag() {
    let dir = workdir("noperf");
    let spec_path = dir.join("campaign.json");
    std::fs::write(&spec_path, campaign_json("noperf", &[("a", scenario_value(0.25, None))]))
        .unwrap();
    let camp = dir.join("camp");
    let out = Command::new(bin())
        .args(["campaign", spec_path.to_str().unwrap(), "--dir", camp.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    for file in ["perf.json", "timeline.json", "trace.json", "run.jsonl"] {
        assert!(camp.join("a").join(file).exists(), "member `a` has no {file}");
    }
    summary(&camp);
    assert_eq!(inspected_members(&camp, &inspect(&camp)), ["a"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Campaign concurrency rides the bounded job pool: `--jobs 2` completes
/// every scenario and still shares artifacts.
#[test]
fn concurrent_campaign_completes_and_shares() {
    let dir = workdir("jobs");
    let spec_path = dir.join("campaign.json");
    std::fs::write(
        &spec_path,
        campaign_json(
            "jobs",
            &[
                ("a", scenario_value(0.25, None)),
                ("b", scenario_value(0.25, None)),
                ("c", scenario_value(0.25, None)),
                ("d", scenario_value(0.25, None)),
            ],
        ),
    )
    .unwrap();
    let camp = dir.join("camp");
    let out = Command::new(bin())
        .args([
            "campaign",
            spec_path.to_str().unwrap(),
            "--dir",
            camp.to_str().unwrap(),
            "--jobs",
            "2",
            "--exec",
            "parallel",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(manifest_states(&camp).iter().all(|(_, s)| s == "done"));
    let summary = summary(&camp);
    assert_eq!(summary["done"], 4);
    // All four scenarios are identical: one build each for model, state,
    // and sources; nine shared requests.
    assert_eq!(summary["artifact_misses"], 3, "summary: {summary:?}");
    assert_eq!(summary["artifact_hits"], 9, "summary: {summary:?}");
    std::fs::remove_dir_all(&dir).ok();
}

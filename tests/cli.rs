//! End-to-end tests of the `swquake` CLI binary: template generation,
//! a full scenario run with output files, and error handling.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swquake")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swquake_cli_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn write_example_then_run_produces_outputs() {
    let dir = workdir("roundtrip");
    let scenario = dir.join("scenario.json");
    let status = Command::new(bin())
        .args(["--write-example", scenario.to_str().unwrap()])
        .status()
        .expect("spawn swquake");
    assert!(status.success());

    // Shrink the template so the test runs quickly, and point the outputs
    // into the temp dir.
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["mesh"] = serde_json::json!([20, 20, 12]);
    json["duration"] = serde_json::json!(1.5);
    json["sources"][0]["position"] = serde_json::json!([10, 10, 6]);
    json["stations"] = serde_json::json!([{"name": "probe", "ix": 14, "iy": 14}]);
    json["output_prefix"] = serde_json::json!(dir.join("out").to_str().unwrap());
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();

    let output =
        Command::new(bin()).arg(scenario.to_str().unwrap()).output().expect("run scenario");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("PGV max"), "stdout: {stdout}");

    // Seismogram CSV: header + one row per step, finite values.
    let csv = std::fs::read_to_string(dir.join("out_seismograms.csv")).unwrap();
    let mut lines = csv.lines();
    assert_eq!(lines.next().unwrap(), "t,probe_vx,probe_vy,probe_vz");
    let rows: Vec<&str> = lines.collect();
    assert!(rows.len() > 50, "rows {}", rows.len());
    for cell in rows.last().unwrap().split(',') {
        let v: f64 = cell.parse().expect("numeric CSV cell");
        assert!(v.is_finite());
    }

    // Hazard JSON: grids of the right size, intensity consistent with PGV.
    let hazard: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("out_hazard.json")).unwrap())
            .unwrap();
    assert_eq!(hazard["nx"], 20);
    assert_eq!(hazard["pgv_ms"].as_array().unwrap().len(), 400);
    assert_eq!(hazard["intensity"].as_array().unwrap().len(), 400);
    let max_i = hazard["max_intensity"].as_f64().unwrap();
    assert!((1.0..=12.0).contains(&max_i));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_and_bad_json_fail_cleanly() {
    let out = Command::new(bin()).arg("/nonexistent/scenario.json").output().unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));

    let dir = workdir("badjson");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{ not json").unwrap();
    let out = Command::new(bin()).arg(bad.to_str().unwrap()).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid scenario"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_arguments_prints_usage() {
    let out = Command::new(bin()).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    for args in [
        vec!["run", "scenario.json", "--frobnicate"],
        vec!["run", "scenario.json", "--fused"], // removed with the AoS step path
        vec!["scenario.json", "--metrics"],      // flag missing its value
        vec!["inspect", "--diff", "a.json", "b.json", "--frobnicate"],
        vec!["inspect", "--diff", "only-one.json"],
    ] {
        let out = Command::new(bin()).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage"), "args {args:?}");
    }
}

/// A bundle's `trace.json` is valid Chrome trace-event JSON with spans
/// from the driver stages — and only what the run measured: the modeled
/// hardware charges are constants of the mesh, not events (`metrics.json`
/// and the ledger carry them).
#[test]
fn run_with_trace_writes_chrome_trace_json() {
    let dir = workdir("trace");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["mesh"] = serde_json::json!([20, 20, 12]);
    json["duration"] = serde_json::json!(0.5);
    json["sources"][0]["position"] = serde_json::json!([10, 10, 6]);
    json["stations"] = serde_json::json!([{"name": "probe", "ix": 14, "iy": 14}]);
    json["output_prefix"] = serde_json::json!(dir.join("out").to_str().unwrap());
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();

    let obs = dir.join("obs");
    let out = Command::new(bin())
        .args(["run", scenario.to_str().unwrap(), "--obs", obs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let trace = obs.join("trace.json");

    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();
    let names: Vec<&str> = events.iter().filter_map(|e| e["name"].as_str()).collect();
    assert!(names.contains(&"step.velocity"), "no driver span in {names:?}");
    assert!(!names.iter().any(|n| n.starts_with("arch.")), "modeled constants in {names:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `inspect --diff` is the perf gate: identical inputs pass (exit 0), an
/// injected regression fails (exit 1), garbage input is a usage-class
/// error (exit 2).
#[test]
fn bench_diff_gates_regressions() {
    let dir = workdir("benchdiff");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    let record = |median: f64| {
        serde_json::json!({
            "name": "smoke/kernel", "samples": 10.0, "median_s": median,
            "mean_s": median, "min_s": median, "max_s": median,
            "throughput": 8000.0, "throughput_unit": "cells",
        })
    };
    let report = |median: f64| {
        serde_json::to_string(&serde_json::json!({
            "schema_version": 1.0, "records": [record(median)],
        }))
        .unwrap()
    };
    std::fs::write(&old, report(1e-3)).unwrap();
    std::fs::write(&new, report(1e-3)).unwrap();

    let identical = Command::new(bin())
        .args(["inspect", "--diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(identical.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&identical.stdout).contains("PASS"));

    std::fs::write(&new, report(2e-3)).unwrap();
    let regressed = Command::new(bin())
        .args(["inspect", "--diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .args(["--tolerance", "0.15"])
        .output()
        .unwrap();
    assert_eq!(regressed.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("REGRESSED"));

    std::fs::write(&new, "{ not json").unwrap();
    let garbage = Command::new(bin())
        .args(["inspect", "--diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(garbage.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// Unit problems are a hard usage error (exit 2), not a regression:
/// records disagreeing on their throughput unit are not comparable, and
/// the empty placeholder unit (`throughput: 0, throughput_unit: ""`)
/// is impossible to commit — the diff rejects it on sight.
#[test]
fn bench_diff_unit_errors_are_hard_errors_exit_2() {
    let dir = workdir("benchdiff_units");
    let record = |unit: &str, throughput: f64| {
        serde_json::json!({
            "name": "smoke/kernel", "samples": 10.0, "median_s": 1e-3,
            "mean_s": 1e-3, "min_s": 1e-3, "max_s": 1e-3,
            "throughput": throughput, "throughput_unit": unit,
        })
    };
    let report = |unit: &str, throughput: f64| {
        serde_json::to_string(&serde_json::json!({
            "schema_version": 2.0, "records": [record(unit, throughput)],
        }))
        .unwrap()
    };
    let old = dir.join("old.json");
    let new = dir.join("new.json");

    // Mismatched units: cells vs elements.
    std::fs::write(&old, report("cells", 8000.0)).unwrap();
    std::fs::write(&new, report("elements", 8000.0)).unwrap();
    let out = Command::new(bin())
        .args(["inspect", "--diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNIT ERROR"), "stdout: {stdout}");
    assert!(stdout.contains("cells") && stdout.contains("elements"), "stdout: {stdout}");

    // The empty placeholder unit, on either side.
    std::fs::write(&new, report("", 0.0)).unwrap();
    let out = Command::new(bin())
        .args(["inspect", "--diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("empty throughput_unit"),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden pin of the committed `BENCH_step_exec.json` baseline: schema
/// v2, the machine-independent ratio gate, and host-stamped per-kernel
/// throughput records with real (non-placeholder) units.
#[test]
fn committed_step_exec_baseline_is_schema_v2() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_step_exec.json");
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(doc["schema_version"].as_u64(), Some(2));
    let records = doc["records"].as_array().unwrap();
    let by_name = |n: &str| {
        records
            .iter()
            .find(|r| r["name"] == n)
            .unwrap_or_else(|| panic!("record `{n}` missing from the committed baseline"))
    };
    // The ratios are measurements carrying their own tolerance, not
    // hand-written floors.
    let ratios = ["parallel_over_serial", "dvelc/lanes_over_oracle", "dstrqc/lanes_over_oracle"];
    for n in ratios {
        let ratio = by_name(&format!("step_exec/{n}"));
        assert_eq!(ratio["throughput_unit"], "ratio");
        assert!(ratio["median_s"].as_f64().unwrap() > 0.0);
        assert!((ratio["tolerance"].as_f64().unwrap() - (1.0 / 0.7 - 1.0)).abs() < 1e-9, "{n}");
    }
    for k in ["dvelc", "dstrqc"] {
        let ratio = by_name(&format!("step_exec/{k}/lanes_over_oracle"));
        assert!(ratio["median_s"].as_f64().unwrap() < 1.0, "the {k} body must beat the oracle");
    }
    assert!(records.iter().all(|r| !r["name"].as_str().unwrap().contains("simd")));
    for n in ["step_exec/serial", "step_exec/parallel"] {
        let r = by_name(n);
        assert_eq!(r["throughput_unit"], "elements");
        assert!(r["host"].as_str().is_some(), "{n} must be host-stamped");
        assert!(r["tolerance"].as_f64().unwrap() > 0.0);
    }
    for k in ["dvelc", "dstrqc", "drprecpc", "sponge", "compression"] {
        let r = by_name(&format!("step_exec/kernel/{k}"));
        assert_eq!(r["throughput_unit"], "cells");
        assert!(r["host"].as_str().is_some(), "kernel {k} must be host-stamped");
        assert!(r["throughput"].as_f64().unwrap() > 0.0, "kernel {k} placeholder throughput");
    }
}

/// A missing baseline (the common first-run footgun) is a usage-class
/// error: exit 2 and a message that says which file is missing and what
/// role it plays, instead of a bare OS error.
#[test]
fn bench_diff_missing_baseline_exits_2_with_clear_message() {
    let dir = workdir("benchdiff_missing");
    let new = dir.join("new.json");
    std::fs::write(
        &new,
        serde_json::to_string(&serde_json::json!({"schema_version": 1.0, "records": []})).unwrap(),
    )
    .unwrap();

    let missing = dir.join("does_not_exist.json");
    let out = Command::new(bin())
        .args(["inspect", "--diff", missing.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("baseline not found"), "stderr: {stderr}");
    assert!(stderr.contains("does_not_exist.json"), "stderr: {stderr}");

    // Same class of failure for a missing candidate, named as such.
    let out = Command::new(bin())
        .args(["inspect", "--diff", new.to_str().unwrap(), missing.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("candidate not found"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--resume` without a store to resume from is a usage error, caught at
/// argument parsing, not deep in the run.
#[test]
fn resume_without_checkpoint_dir_is_a_usage_error() {
    let out = Command::new(bin()).args(["run", "scenario.json", "--resume"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// Resuming from an empty or unreadable store is an operational error:
/// exit 2 with the store's diagnosis, not a panic or a silent fresh
/// start.
#[test]
fn resume_from_broken_store_exits_2_with_diagnosis() {
    let dir = workdir("badstore");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["mesh"] = serde_json::json!([20, 20, 12]);
    json["duration"] = serde_json::json!(1.0);
    json["sources"][0]["position"] = serde_json::json!([10, 10, 6]);
    json["stations"] = serde_json::json!([{"name": "probe", "ix": 14, "iy": 14}]);
    json["output_prefix"] = serde_json::json!(dir.join("out").to_str().unwrap());
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();

    // An empty store: nothing was ever committed.
    let empty = dir.join("empty_ckpt");
    std::fs::create_dir_all(&empty).unwrap();
    let out = Command::new(bin())
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--checkpoint-dir",
            empty.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot resume"), "stderr: {stderr}");

    // A store whose manifest is garbage.
    let garbled = dir.join("garbled_ckpt");
    std::fs::create_dir_all(&garbled).unwrap();
    std::fs::write(garbled.join("MANIFEST.json"), "{ not json").unwrap();
    let out = Command::new(bin())
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--checkpoint-dir",
            garbled.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot resume"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed `SWQUAKE_FAULT_PLAN` is a hard error (exit 2), never a
/// silently dropped drill.
#[test]
fn malformed_fault_plan_is_rejected() {
    let dir = workdir("badplan");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let out = Command::new(bin())
        .args(["run", scenario.to_str().unwrap()])
        .env("SWQUAKE_FAULT_PLAN", "frobnicate@10")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid fault plan"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_model_is_rejected() {
    let dir = workdir("badmodel");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["model"] = serde_json::json!("flat_earth");
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();
    let out = Command::new(bin()).arg(scenario.to_str().unwrap()).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown model"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A mesh whose arrays cannot be allocated is a configuration error,
/// exit 2 naming the bytes, before anything is allocated: one whose byte
/// count overflows 64 bits, and one past any host's memory and swap
/// (8.4·10^16 bytes; a single-rank 4096³ mesh, 2.8·10^11, is past most).
/// They used to abort on the failed allocation (exit 134) or panic on a
/// capacity overflow (exit 101).
#[test]
fn a_mesh_too_large_to_allocate_exits_2_naming_its_bytes() {
    let dir = workdir("toolarge");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    for (n, needle) in [
        (3_000_000u64, "more than 18446744073709551615 bytes".to_string()),
        (100_000, format!("need {} bytes", 21 * 4 * 100_004u64.pow(3))),
    ] {
        json["mesh"] = serde_json::json!([n, n, n]);
        std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();
        let out = Command::new(bin()).arg(scenario.to_str().unwrap()).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{n}³: {stderr}");
        assert!(stderr.contains("invalid configuration") && stderr.contains(&needle), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--health` streams a JSONL log: one versioned record per probe step,
/// healthy verdicts on a sane scenario, parseable line by line.
#[test]
fn run_with_health_writes_jsonl_log() {
    let dir = workdir("health");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["mesh"] = serde_json::json!([20, 20, 12]);
    json["duration"] = serde_json::json!(1.0);
    json["sources"][0]["position"] = serde_json::json!([10, 10, 6]);
    json["stations"] = serde_json::json!([{"name": "probe", "ix": 14, "iy": 14}]);
    json["output_prefix"] = serde_json::json!(dir.join("out").to_str().unwrap());
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();

    let log = dir.join("health.jsonl");
    let out = Command::new(bin())
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--health",
            log.to_str().unwrap(),
            "--health-stride",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote health log"));

    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(lines.len() >= 5, "only {} probes in the log", lines.len());
    for (i, line) in lines.iter().enumerate() {
        let rec: serde_json::Value = serde_json::from_str(line).expect("JSONL line parses");
        assert_eq!(rec["schema_version"], 1, "line {i}");
        assert_eq!(rec["step"].as_u64().unwrap(), (i as u64 + 1) * 5, "line {i}");
        assert_eq!(rec["rank"], 0);
        assert_eq!(rec["verdict"], "Healthy", "line {i}: {line}");
        assert_eq!(rec["fields"].as_array().unwrap().len(), 9);
        assert!(rec["kinetic_energy"].as_f64().unwrap().is_finite());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A deliberately CFL-violating scenario (`dt_scale` past the stable
/// bound) exits 1 with the watchdog's diagnosis on stderr and leaves
/// the diagnostic bundle next to the other outputs.
#[test]
fn unstable_scenario_exits_1_with_diagnostic_bundle() {
    let dir = workdir("unstable");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["mesh"] = serde_json::json!([20, 20, 12]);
    json["duration"] = serde_json::json!(8.0);
    json["dt_scale"] = serde_json::json!(3.0);
    json["sources"][0]["position"] = serde_json::json!([10, 10, 6]);
    json["stations"] = serde_json::json!([{"name": "probe", "ix": 14, "iy": 14}]);
    json["output_prefix"] = serde_json::json!(dir.join("out").to_str().unwrap());
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();

    let out = Command::new(bin())
        .args(["run", scenario.to_str().unwrap(), "--health-stride", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unstable"), "stderr: {stderr}");
    assert!(stderr.contains("CFL") || stderr.contains("dt"), "stderr: {stderr}");

    // The bundle rides the output prefix: last-N records + snapshot.
    let bundle = dir.join("out_health_bundle");
    let records = std::fs::read_to_string(bundle.join("rank0_records.jsonl")).unwrap();
    let last = records.lines().rfind(|l| !l.trim().is_empty()).unwrap();
    let rec: serde_json::Value = serde_json::from_str(last).unwrap();
    assert!(rec["verdict"]["Fatal"].as_object().is_some(), "last record not fatal: {rec:?}");
    let snap: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(bundle.join("rank0_snapshot.json")).unwrap())
            .unwrap();
    assert!(!snap["values"].as_array().unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden-file shape of the seismogram CSV: the exact header for a
/// multi-station scenario (stations in scenario order) and exactly one
/// row per step, every cell numeric.
#[test]
fn seismogram_csv_has_golden_header_and_one_row_per_step() {
    let dir = workdir("seismo_golden");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["mesh"] = serde_json::json!([20, 20, 12]);
    json["duration"] = serde_json::json!(1.0);
    json["sources"][0]["position"] = serde_json::json!([10, 10, 6]);
    json["stations"] = serde_json::json!([
        {"name": "west", "ix": 4, "iy": 10},
        {"name": "mid", "ix": 10, "iy": 10},
        {"name": "east", "ix": 16, "iy": 10}
    ]);
    json["output_prefix"] = serde_json::json!(dir.join("out").to_str().unwrap());
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();

    let out = Command::new(bin()).arg(scenario.to_str().unwrap()).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let steps: usize = stdout
        .lines()
        .find_map(|l| l.split(" steps").next()?.rsplit(' ').next()?.parse().ok())
        .expect("step count in banner");

    let csv = std::fs::read_to_string(dir.join("out_seismograms.csv")).unwrap();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "t,west_vx,west_vy,west_vz,mid_vx,mid_vy,mid_vz,east_vx,east_vy,east_vz",
        "station order must follow the scenario"
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), steps, "one row per step");
    for row in &rows {
        assert_eq!(row.split(',').count(), 10);
        for cell in row.split(',') {
            let v: f64 = cell.parse().expect("numeric cell");
            assert!(v.is_finite());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every subcommand answers `--help` on stdout with exit 0 — help is
/// not a usage error.
#[test]
fn every_subcommand_answers_help_with_exit_0() {
    for args in [
        vec!["--help"],
        vec!["-h"],
        vec!["run", "--help"],
        vec!["campaign", "--help"],
        vec!["inspect", "--help"],
    ] {
        let out = Command::new(bin()).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "args {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage"), "args {args:?}: {stdout}");
    }
    // Per-subcommand help names that subcommand's flags.
    let out = Command::new(bin()).args(["campaign", "--help"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--fail-fast"), "campaign help: {stdout}");
    assert!(stdout.contains("--resume"), "campaign help: {stdout}");
    for sub in ["run", "campaign"] {
        let out = Command::new(bin()).args([sub, "--help"]).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("simd is an alias of parallel"), "{sub} help: {stdout}");
    }
}

/// `--exec simd` and `SWQUAKE_EXEC=simd` still parse, and take the path
/// `--exec parallel` takes: the banner prints what the mode resolved to.
#[test]
fn exec_simd_is_an_alias_of_parallel() {
    let dir = workdir("exec_alias");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["mesh"] = serde_json::json!([20, 20, 12]);
    json["duration"] = serde_json::json!(0.3);
    json["sources"][0]["position"] = serde_json::json!([10, 10, 6]);
    json["stations"] = serde_json::json!([{"name": "probe", "ix": 14, "iy": 14}]);
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();
    let run = |args: &[&str], env: Option<&str>| {
        let mut cmd = Command::new(bin());
        cmd.current_dir(&dir).arg("run").arg(&scenario).args(args).env_remove("SWQUAKE_EXEC");
        if let Some(mode) = env {
            cmd.env("SWQUAKE_EXEC", mode);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            std::fs::read(dir.join("swquake_out_seismograms.csv")).unwrap(),
        )
    };
    let (serial, reference) = run(&["--exec", "serial"], None);
    // The banner names the resolved path and the lane tier of the host.
    let lanes = swquake::grid::simd::LaneTier::detected();
    let banner = format!("exec serial (path serial), lanes {lanes}");
    assert!(serial.contains(&banner), "stdout: {serial}");
    for (args, env) in [
        (&["--exec", "simd"][..], None),
        (&["--exec", "parallel"][..], None),
        (&[][..], Some("simd")),
    ] {
        let (stdout, csv) = run(args, env);
        assert!(stdout.contains("(path parallel)"), "{args:?} {env:?}: {stdout}");
        assert_eq!(csv, reference, "{args:?} {env:?}: seismograms differ from serial");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `SWQUAKE_*` default that is set but does not parse is a
/// configuration error (exit 2) naming the variable and what it accepts
/// — `SWQUAKE_EXEC=paralel` used to run `auto`, `SWQUAKE_THREADS=two`
/// every core — for `run` and for `campaign`; valid values still run.
#[test]
fn unparsable_environment_defaults_are_rejected() {
    let dir = workdir("bad_env");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["mesh"] = serde_json::json!([16, 16, 10]);
    json["duration"] = serde_json::json!(0.1);
    json["sources"][0]["position"] = serde_json::json!([8, 8, 5]);
    json["stations"] = serde_json::json!([{"name": "probe", "ix": 10, "iy": 10}]);
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();
    let spec = dir.join("campaign.json");
    let campaign = serde_json::json!({
        "schema": 1, "name": "env", "scenarios": [{"id": "s1", "scenario": json}]
    });
    std::fs::write(&spec, serde_json::to_string(&campaign).unwrap()).unwrap();
    const VARS: [&str; 2] = ["SWQUAKE_EXEC", "SWQUAKE_THREADS"];
    let invoke = |subcommand: &[&str], var: &str, value: &str| {
        let mut cmd = Command::new(bin());
        cmd.current_dir(&dir).args(subcommand);
        for v in VARS {
            cmd.env_remove(v);
        }
        cmd.env(var, value).output().unwrap()
    };
    let run = ["run", scenario.to_str().unwrap()];
    let camp = ["campaign", spec.to_str().unwrap(), "--dir", "camp"];
    for (var, bad, accepted, good) in [
        ("SWQUAKE_EXEC", "paralel", "serial|parallel|simd|auto", "parallel"),
        ("SWQUAKE_THREADS", "two", "a thread count", "2"),
    ] {
        for subcommand in [&run[..], &camp[..]] {
            let out = invoke(subcommand, var, bad);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{subcommand:?} {var}={bad}: {stderr}");
            assert!(
                stderr.contains("invalid configuration")
                    && stderr.contains(var)
                    && stderr.contains(bad)
                    && stderr.contains(accepted),
                "{subcommand:?} {var}={bad}: {stderr}"
            );
        }
        assert!(!dir.join("camp").exists(), "{var}: a refused campaign must not start");
        let out = invoke(&run, var, good);
        assert!(out.status.success(), "{var}={good}: {}", String::from_utf8_lossy(&out.stderr));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A legacy v1 scenario (no `schema` field, tuple stations) still runs,
/// but the CLI flags it as deprecated on stderr.
#[test]
fn v1_scenario_runs_with_deprecation_warning() {
    let dir = workdir("v1_compat");
    let scenario = dir.join("scenario.json");
    let v1 = serde_json::json!({
        "mesh": [20, 20, 12],
        "dx": 250.0,
        "duration": 1.0,
        "model": "tangshan",
        "nonlinear": false,
        "attenuation": true,
        "compression": false,
        "sponge_width": 8,
        "sources": [{
            "position": [10, 10, 6],
            "mw": 5.5,
            "mechanism": [30.0, 90.0, 180.0],
            "onset": 0.2,
            "duration": 1.0
        }],
        "stations": [["probe", 14, 14]],
        "output_prefix": dir.join("out").to_str().unwrap(),
    });
    std::fs::write(&scenario, serde_json::to_string(&v1).unwrap()).unwrap();
    let out = Command::new(bin()).arg(scenario.to_str().unwrap()).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deprecated"), "no deprecation warning: {stderr}");
    assert!(dir.join("out_seismograms.csv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// In the v2 schema a typo'd field is rejected loudly (exit 2) instead
/// of silently running the wrong simulation.
#[test]
fn v2_scenario_with_unknown_field_is_rejected() {
    let dir = workdir("v2_strict");
    let scenario = dir.join("scenario.json");
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["sponge_widht"] = serde_json::json!(8); // typo
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();
    let out = Command::new(bin()).arg(scenario.to_str().unwrap()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown field `sponge_widht`"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Campaign usage errors (no file, unknown flag, bad spec) exit 2.
#[test]
fn campaign_usage_errors_exit_2() {
    for args in [vec!["campaign"], vec!["campaign", "c.json", "--frobnicate"]] {
        let out = Command::new(bin()).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage"), "args {args:?}");
    }
    // A campaign file that is not a valid spec is a campaign spec error.
    let dir = workdir("campaign_badspec");
    let spec = dir.join("campaign.json");
    std::fs::write(&spec, r#"{"scenarios": []}"#).unwrap();
    let out = Command::new(bin()).args(["campaign", spec.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("campaign failed during spec"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The example scenario shrunk to 24x24x14 (two stations, one on each
/// side of a 2-wide rank grid), tweaked by `tweak`, with outputs under
/// `<dir>/<prefix>`.
fn shrunk_example(
    dir: &std::path::Path,
    prefix: &str,
    tweak: impl FnOnce(&mut serde_json::Value),
) -> PathBuf {
    let scenario = dir.join(format!("{prefix}.json"));
    Command::new(bin()).args(["--write-example", scenario.to_str().unwrap()]).status().unwrap();
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    json["mesh"] = serde_json::json!([24, 24, 14]);
    json["duration"] = serde_json::json!(1.5);
    json["sources"][0]["position"] = serde_json::json!([12, 12, 6]);
    json["stations"] = serde_json::json!([
        {"name": "west", "ix": 6, "iy": 6},
        {"name": "east", "ix": 17, "iy": 15}
    ]);
    json["output_prefix"] = serde_json::json!(dir.join(prefix).to_str().unwrap());
    tweak(&mut json);
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();
    scenario
}

/// `swquake run <scenario> <args>`, under fault plan `fault` or none.
fn run_scenario(scenario: &std::path::Path, args: &[&str], fault: Option<&str>) -> Output {
    let mut cmd = Command::new(bin());
    cmd.arg("run").arg(scenario).args(args);
    match fault {
        Some(plan) => cmd.env("SWQUAKE_FAULT_PLAN", plan),
        None => cmd.env_remove("SWQUAKE_FAULT_PLAN"),
    };
    cmd.output().unwrap()
}

fn result_files(dir: &std::path::Path, prefix: &str) -> (Vec<u8>, Vec<u8>) {
    let read = |suffix: &str| std::fs::read(dir.join(format!("{prefix}_{suffix}"))).unwrap();
    (read("seismograms.csv"), read("hazard.json"))
}

/// The scenario at `path` as the one member `m` of a campaign run into
/// `<dir>/<name>` (the returned directory).
fn one_member_campaign(dir: &Path, name: &str, path: &Path) -> (PathBuf, Output) {
    let scenario: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let spec = dir.join(format!("{name}.json"));
    let campaign = serde_json::json!({
        "schema": 1, "name": name, "scenarios": [{"id": "m", "scenario": scenario}]
    });
    std::fs::write(&spec, serde_json::to_string(&campaign).unwrap()).unwrap();
    let camp = dir.join(name);
    let mut cmd = Command::new(bin());
    cmd.arg("campaign").arg(&spec).arg("--dir").arg(&camp);
    cmd.env_remove("SWQUAKE_FAULT_PLAN");
    (camp, cmd.output().unwrap())
}

/// A blow-up the watchdog's stride misses must not pass as a result: the
/// run exits 1 with the classified diagnosis from the end state, on a
/// rank grid as without one. (`--ranks 2x1` used to exit 0 with `PGV max
/// inf` and NaN seismograms: only the single-rank tail looked.) Every way
/// of executing ends in the one merge, so `run`, `run --ranks` and a
/// campaign member report the same step, field, index and cause. (A
/// member probes at the default stride of 10, which nothing but
/// `--health-stride` changes: the run is nine steps of a time step a
/// thousand times the stable one, gone non-finite before a probe is due.)
#[test]
fn a_blow_up_the_watchdog_misses_exits_1_on_every_rank_grid() {
    let dir = workdir("late_blowup");
    let scenario = shrunk_example(&dir, "bad", |json| {
        json["dt_scale"] = serde_json::json!(1000.0);
        json["duration"] = serde_json::json!(130.0);
        json["sources"][0]["onset"] = serde_json::json!(0.0);
        json["sources"][0]["duration"] = serde_json::json!(60.0);
    });
    let diagnosis = |text: &str| {
        let at = text.find("solver unstable at step").unwrap_or_else(|| panic!("in: {text}"));
        text[at..].lines().next().unwrap().to_string()
    };
    let mut diagnoses = Vec::new();
    for ranks in [None, Some("1x1"), Some("2x1")] {
        let mut args = vec!["--health-stride", "100000"];
        args.extend(ranks.iter().flat_map(|r| ["--ranks", *r]));
        let out = run_scenario(&scenario, &args, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{ranks:?}: {stderr}");
        assert!(
            stderr.contains("solver unstable") && stderr.contains("CFL violation"),
            "{ranks:?}: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("PGV max"), "{ranks:?} reported a result: {stdout}");
        diagnoses.push(diagnosis(&stderr));
    }
    let (camp, out) = one_member_campaign(&dir, "camp", &scenario);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let manifest: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(camp.join("MANIFEST.json")).unwrap())
            .unwrap();
    assert_eq!(manifest["scenarios"][0]["state"], "unstable");
    diagnoses.push(diagnosis(manifest["scenarios"][0]["detail"].as_str().unwrap()));
    assert!(diagnoses.iter().all(|d| *d == diagnoses[0]), "diagnoses differ: {diagnoses:#?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Flag pairs that cannot work together, and flag values that do not
/// parse, exit 2 with the usage — and, on the line before it, which flags
/// (or which flag and which value) and why.
#[test]
fn clashing_run_flags_are_named_before_the_usage() {
    for (args, named) in [
        (&["--ranks", "2x2", "--resident", "compressed16"][..], ["--ranks", "--resident"]),
        (&["--resume"][..], ["--resume", "--checkpoint-dir"]),
        (&["--threads", "abc"][..], ["--threads", "'abc'"]),
        (&["--health-stride", "x"][..], ["--health-stride", "'x'"]),
        (&["--ranks", "2"][..], ["--ranks", "'2'"]),
        (&["--ranks", "0x2"][..], ["--ranks", "'0x2'"]),
        (&["--memory-cap", "1q"][..], ["--memory-cap", "'1q'"]),
        (&["--exec", "fast"][..], ["--exec", "'fast'"]),
        (&["--metrics"][..], ["--metrics", "needs a value"]),
        // Flags that would silently do nothing alone.
        (&["--checkpoint-interval", "5"][..], ["--checkpoint-interval", "--checkpoint-dir"]),
        (&["--checkpoint-keep", "2"][..], ["--checkpoint-keep", "--checkpoint-dir"]),
        // An unknown flag and a stray positional are named too, and so
        // are the per-sink switches `--obs` replaced.
        (&["--bogus"][..], ["unknown flag", "'--bogus'"]),
        (&["--trace", "t.json"][..], ["unknown flag", "'--trace'"]),
        (&["--roofline", "r.json"][..], ["unknown flag", "'--roofline'"]),
        (&["--perf", "p.json"][..], ["unknown flag", "'--perf'"]),
        (&["--obs", "d", "--obs-stride", "5"][..], ["unknown flag", "'--obs-stride'"]),
        (&["b.json"][..], ["unexpected argument", "'b.json'"]),
    ] {
        let out = run_scenario(std::path::Path::new("scenario.json"), args, None);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let (why, usage) = stderr.split_once("usage:").expect("usage text");
        assert!(named.iter().all(|flag| why.contains(flag)), "{args:?}: {stderr}");
        assert_eq!(usage.trim(), "swquake [run] <scenario.json> [run flags]", "{args:?}");
    }
    // The other subcommands name a rejected value, an unknown flag or a
    // stray argument the same way, above their own usage line.
    for (args, named) in [
        (
            &["inspect", "--diff", "a.json", "b.json", "--tolerance", "junk"][..],
            ["--tolerance", "'junk'"],
        ),
        (&["inspect", "p.json", "--min-fraction", "junk"][..], ["--min-fraction", "'junk'"]),
        (&["inspect", "t.json", "--max-skew", "junk"][..], ["--max-skew", "'junk'"]),
        (&["inspect", "t.json", "--tolerance", "0.1"][..], ["--tolerance", "with --diff"]),
        (&["inspect", "--diff", "a", "b", "--max-skew", "1"][..], ["--max-skew", "without --diff"]),
        (&["campaign", "c.json", "--jobs", "junk"][..], ["--jobs", "'junk'"]),
        (&["campaign", "c.json", "--ranks", "2x1"][..], ["unknown flag", "'--ranks'"]),
        (&["campaign", "c.json", "--perf"][..], ["unknown flag", "'--perf'"]),
        (&["campaign", "c.json", "d.json"][..], ["unexpected argument", "'d.json'"]),
        (&["inspect", "p.json", "--bogus"][..], ["unknown flag", "'--bogus'"]),
        (&["inspect", "--diff", "a.json"][..], ["missing", "<old> <new>"]),
        (&["inspect"][..], ["missing", "<bundle|campaign-dir|file>"]),
    ] {
        let out = Command::new(bin()).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let (why, usage) = stderr.split_once("usage:").expect("usage text");
        assert!(named.iter().all(|part| why.contains(part)), "{args:?}: {stderr}");
        let own = format!("swquake {} ", args[0]);
        assert!(usage.lines().all(|l| l.contains(&own)), "{args:?}: not its own lines: {stderr}");
    }
    // `--ranks` with `--obs` is a pair that works (`tests/perf.rs` runs
    // it): it gets as far as the file.
    let out = run_scenario(
        std::path::Path::new("does_not_exist.json"),
        &["--ranks", "2x1", "--obs", "obs"],
        None,
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// `--ranks` through the binary: the nonlinear + attenuation step writes
/// the same bytes on one rank and on 2x2 halo-exchanged subdomains, and a
/// 1x1 "grid" is the single-rank run, §6.5 compression included. (With
/// compression a real grid calibrates its codecs per rank — the CLI has
/// no coarse-run statistics to hand them — so that pair is pinned where
/// the statistics are global: `tests/exec_equivalence.rs`.)
#[test]
fn rank_grids_write_the_same_files_as_a_single_rank() {
    let dir = workdir("ranks_equal");
    for (compression, grid) in [(true, "1x1"), (false, "2x2")] {
        let production = |json: &mut serde_json::Value| {
            json["nonlinear"] = serde_json::json!(true);
            json["compression"] = serde_json::json!(compression);
        };
        let plain = shrunk_example(&dir, "plain", production);
        let out = run_scenario(&plain, &[], None);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let ranked = shrunk_example(&dir, "ranked", production);
        let out = run_scenario(&ranked, &["--ranks", grid], None);
        assert!(out.status.success(), "{grid}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.contains("on 2x2 ranks"), grid == "2x2", "{grid}: {stdout}");
        assert!(
            result_files(&dir, "ranked") == result_files(&dir, "plain"),
            "--ranks {grid} diverged from the single-rank run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash drill on a rank grid, through the binary: `kill@25` brings
/// all four ranks down as exit 137 with the step-20 generation the last
/// one committed, and `--ranks 2x2 --resume` says which generation it
/// took and finishes byte-identical to a run that never died.
#[test]
fn a_killed_rank_grid_resumes_byte_identically() {
    let dir = workdir("ranks_kill");
    let reference = shrunk_example(&dir, "ref", |_| {});
    let out = run_scenario(&reference, &["--ranks", "2x2"], None);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let drill = shrunk_example(&dir, "drill", |_| {});
    let ckpt = dir.join("ckpt");
    let store = ["--checkpoint-dir", ckpt.to_str().unwrap(), "--checkpoint-interval", "10"];
    let grid = ["--ranks", "2x2"];
    let killed = run_scenario(&drill, &[&grid[..], &store[..]].concat(), Some("kill@25:rank=2"));
    let stderr = String::from_utf8_lossy(&killed.stderr);
    assert_eq!(killed.status.code(), Some(137), "stderr: {stderr}");
    assert!(stderr.contains("killed at step 25 (injected fault on rank 2)"), "stderr: {stderr}");

    let resumed = run_scenario(&drill, &[&grid[..], &store[..], &["--resume"][..]].concat(), None);
    assert!(resumed.status.success(), "stderr: {}", String::from_utf8_lossy(&resumed.stderr));
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("resumed from checkpoint generation at step 20"), "stdout: {stdout}");
    assert!(result_files(&dir, "drill") == result_files(&dir, "ref"), "diverged after resume");
    std::fs::remove_dir_all(&dir).ok();
}

/// `(kind, name)` of every metric in a `--metrics` / `metrics.json` file.
fn metric_names(path: &Path) -> std::collections::BTreeSet<(String, String)> {
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    ["timers", "counters", "gauges", "series"]
        .into_iter()
        .flat_map(|kind| {
            let entries = report[kind].as_array().cloned().unwrap_or_default();
            entries.into_iter().map(move |e| (kind.to_string(), e["name"].as_str().unwrap().into()))
        })
        .collect()
}

/// Without a store nothing can read a checkpoint, so none is cut: a
/// scenario's `checkpoint_interval` alone used to clone the whole dynamic
/// state every N steps into a list nobody looked at.
#[test]
fn a_scenario_cadence_without_a_store_cuts_no_checkpoint() {
    let dir = workdir("no_store");
    let plain = shrunk_example(&dir, "plain", |_| {});
    let cadenced = shrunk_example(&dir, "cadenced", |json| {
        json["checkpoint_interval"] = serde_json::json!(5);
    });
    let out = run_scenario(&plain, &[], None);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let metrics = dir.join("m.json");
    let out = run_scenario(&cadenced, &["--metrics", metrics.to_str().unwrap()], None);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let names = metric_names(&metrics);
    for (kind, name) in [("counters", "io.checkpoints"), ("timers", "step.checkpoint")] {
        assert!(!names.contains(&(kind.to_string(), name.to_string())), "{name} in {names:?}");
    }
    assert!(result_files(&dir, "cadenced") == result_files(&dir, "plain"));
    // With a store the field is the cadence.
    let ckpt = dir.join("ckpt");
    let stored =
        ["--checkpoint-dir", ckpt.to_str().unwrap(), "--metrics", metrics.to_str().unwrap()];
    let out = run_scenario(&cadenced, &stored, None);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(metric_names(&metrics).contains(&("counters".into(), "io.checkpoints".into())));
    std::fs::remove_dir_all(&dir).ok();
}

/// One bundle: `run --obs d --checkpoint-dir d/ckpt` leaves in `d` what a
/// campaign leaves in a member directory, the same result bytes and the
/// same metric names, and `inspect` reads either directory — and the
/// campaign directory, member by member.
#[test]
fn run_obs_and_a_campaign_member_leave_one_layout() {
    let dir = workdir("layout");
    let obs = dir.join("d");
    let ckpt = obs.join("ckpt");
    let scenario = shrunk_example(&dir, "layout", |json| {
        json["output_prefix"] = serde_json::json!(obs.join("out").to_str().unwrap());
    });
    let flags = ["--obs", obs.to_str().unwrap(), "--checkpoint-dir", ckpt.to_str().unwrap()];
    let out = run_scenario(&scenario, &flags, None);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let (camp, out) = one_member_campaign(&dir, "camp", &scenario);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let member = camp.join("m");

    let listing = |d: &Path| -> std::collections::BTreeSet<String> {
        let entries = std::fs::read_dir(d).unwrap();
        entries.map(|e| e.unwrap().file_name().into_string().unwrap()).collect()
    };
    let in_obs = listing(&obs);
    for file in ["metrics.json", "health.jsonl", "perf.json", "timeline.json", "trace.json"] {
        assert!(in_obs.contains(file), "no {file} in {in_obs:?}");
    }
    assert!(in_obs.contains("run.jsonl"), "no heartbeat stream in {in_obs:?}");
    assert_eq!(in_obs, listing(&member));
    for file in ["out_seismograms.csv", "out_hazard.json"] {
        assert!(
            std::fs::read(obs.join(file)).unwrap() == std::fs::read(member.join(file)).unwrap()
        );
    }
    assert_eq!(metric_names(&obs.join("metrics.json")), metric_names(&member.join("metrics.json")));
    for d in [&obs, &member, &camp] {
        let out = Command::new(bin()).arg("inspect").arg(d).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "inspect {}", d.display());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("dvelc") && stdout.contains("critical rank"), "{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every sink armed at once, on one rank and on a grid: both end in the
/// one merge, so the health line counts the same things either way.
#[test]
fn the_health_line_has_one_shape_on_every_rank_grid() {
    let dir = workdir("health_line");
    let scenario = shrunk_example(&dir, "out", |_| {});
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let sinks =
        [("--metrics", path("m.json")), ("--health", path("h.jsonl")), ("--obs", path("obs"))];
    let mut lines = Vec::new();
    for ranks in [None, Some("2x1")] {
        let mut args: Vec<&str> = sinks.iter().flat_map(|(f, p)| [*f, p.as_str()]).collect();
        args.extend(ranks.iter().flat_map(|r| ["--ranks", *r]));
        let out = run_scenario(&scenario, &args, None);
        assert!(out.status.success(), "{ranks:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout.lines().find(|l| l.starts_with("wrote health log")).expect("health line");
        // The digits aside: a grid evaluates one probe per rank.
        lines.push(line.chars().filter(|c| !c.is_ascii_digit()).collect::<String>());
    }
    assert!(lines[0].ends_with("( probes,  warnings)"), "{lines:?}");
    assert_eq!(lines[0], lines[1]);
    std::fs::remove_dir_all(&dir).ok();
}

/// `--write-example` into a directory that does not exist is an I/O
/// error naming the path (exit 2), not a panic (it used to exit 101
/// with a backtrace).
#[test]
fn write_example_into_a_missing_directory_exits_2_naming_the_path() {
    let out =
        Command::new(bin()).args(["--write-example", "/no/such/dir/s.json"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("/no/such/dir/s.json") && !stderr.contains("panicked"), "{stderr}");
}

/// A perf ledger as `inspect` reads it: schema v1, one modeled kernel at
/// half its roofline.
fn ledger_json() -> serde_json::Value {
    serde_json::json!({
        "schema_version": 1,
        "host": {"os": "linux", "arch": "x86_64", "cpu": "test-cpu", "threads": 2},
        "steps": 10, "grid_cells": 1000, "wall_s": 2.0, "step_p50_s": 0.19, "step_p95_s": 0.25,
        "kernels": [{"name": "dvelc", "wall_s": 1.0, "calls": 10, "cells": 10000,
            "flops": 760000.0, "dma_bytes": 400000, "cells_per_s": 10000.0,
            "gflops_per_s": 0.00076, "gb_per_s": 0.0004, "roofline_fraction": 0.5}]
    })
}

/// A two-rank run timeline whose `stress` phase has skew 1.0 (rank 1
/// took three times rank 0's second).
fn timeline_json() -> serde_json::Value {
    serde_json::json!({
        "schema_version": 1, "ranks": 2, "steps": 10, "total_steps": 10, "wall_s": 4.0,
        "phases": [{"name": "stress", "per_rank_s": [1.0, 3.0], "calls": [10, 10],
            "mean_s": 2.0, "min_s": 1.0, "max_s": 3.0, "skew": 1.0, "critical_rank": 1}],
        "critical_rank": 1, "max_skew": 1.0, "halo_wait_frac": 0.0,
        "memory": {"fields": [], "resident_bytes": 0, "high_water_bytes": 0}
    })
}

fn write_json(path: &Path, value: &serde_json::Value) {
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, serde_json::to_string(value).unwrap()).unwrap();
}

/// `swquake inspect <args>`: exit code, stdout, stderr.
fn inspect(args: &[&Path]) -> (Option<i32>, String, String) {
    let out = Command::new(bin()).arg("inspect").args(args).output().unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// Every fraction `inspect` takes goes through one parser: `nan` would
/// pass every gate (`skew > NaN` is false — `imbalance-report --max-skew
/// nan` used to print "no phase over skew NaN" and exit 0 on a skew of
/// 1.0), `inf` would never trip one, and a negative floor means nothing.
/// Each is a usage error naming the flag; a real floor still gates.
#[test]
fn inspect_fractions_reject_nan_inf_and_negative_values() {
    let dir = workdir("inspect_fractions");
    let timeline = dir.join("timeline.json");
    write_json(&timeline, &timeline_json());
    let t = timeline.to_str().unwrap();
    for (flag, value) in ["--max-skew", "--min-fraction", "--tolerance"]
        .iter()
        .flat_map(|f| ["nan", "inf", "-0.5"].map(|v| (*f, v)))
    {
        let args: Vec<&str> = match flag {
            "--tolerance" => vec!["inspect", "--diff", t, t, flag, value],
            _ => vec!["inspect", t, flag, value],
        };
        let out = Command::new(bin()).args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(&format!("'{value}' for {flag}")), "{flag} {value}: {stderr}");
    }
    let (code, _, stderr) = inspect(&[&timeline, Path::new("--max-skew"), Path::new("0.5")]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("phase `stress` skew 1.000 exceeds 0.500 (critical rank 1)"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A ledger cut short by a crash mid-write is a parse error naming it.
#[test]
fn inspect_names_a_truncated_ledger() {
    let dir = workdir("inspect_truncated");
    let path = dir.join("perf.json");
    let text = serde_json::to_string(&ledger_json()).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    let (code, _, stderr) = inspect(&[&path]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("cannot parse") && stderr.contains(path.to_str().unwrap()), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A rank count past every integer (`1e400` reads as infinity) is a
/// parse error naming the file, never a saturated count.
#[test]
fn inspect_names_a_timeline_with_an_impossible_rank_count() {
    let dir = workdir("inspect_ranks");
    let path = dir.join("timeline.json");
    let text =
        serde_json::to_string(&timeline_json()).unwrap().replace("\"ranks\":2", "\"ranks\":1e400");
    assert!(text.contains("1e400"), "{text}");
    std::fs::write(&path, text).unwrap();
    let (code, _, stderr) = inspect(&[&path]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("ranks") && stderr.contains(path.to_str().unwrap()), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A JSON file that is neither a ledger nor a timeline — the
/// repository's `BENCHMARK.json` — is named as such.
#[test]
fn inspect_names_a_file_that_is_no_report() {
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCHMARK.json"));
    let (code, _, stderr) = inspect(&[path]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("BENCHMARK.json is neither a perf ledger nor a run timeline"));
}

/// An empty directory holds nothing to read.
#[test]
fn inspect_refuses_an_empty_directory() {
    let dir = workdir("inspect_empty");
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let (code, _, stderr) = inspect(&[&empty]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(empty.to_str().unwrap()) && stderr.contains("to read"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory with files, none of them one `inspect` knows, is refused
/// the same way.
#[test]
fn inspect_refuses_a_directory_with_no_known_file() {
    let dir = workdir("inspect_unknown");
    let other = dir.join("other");
    write_json(&other.join("metrics.json"), &serde_json::json!({"schema_version": 2}));
    let (code, _, stderr) = inspect(&[&other]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("no perf.json, timeline.json or MANIFEST.json"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A campaign whose member `b` lost its ledger: `a` still renders, `b`'s
/// missing file is named, the exit is 2; a member that never finished is
/// listed with its state and not read.
#[test]
fn inspect_renders_every_campaign_member_and_names_a_missing_ledger() {
    let dir = workdir("inspect_campaign");
    let camp = dir.join("camp");
    let member =
        |id: &str, state: &str| serde_json::json!({"id": id, "state": state, "detail": ""});
    let manifest = serde_json::json!({"schema_version": 1, "name": "c",
        "scenarios": [member("a", "done"), member("b", "done"), member("c", "unstable")]});
    write_json(&camp.join("MANIFEST.json"), &manifest);
    for id in ["a", "b"] {
        write_json(&camp.join(id).join("timeline.json"), &timeline_json());
    }
    write_json(&camp.join("a").join("perf.json"), &ledger_json());
    let (code, stdout, stderr) = inspect(&[&camp]);
    assert_eq!(code, Some(2), "{stdout}\n{stderr}");
    let missing = camp.join("b").join("perf.json");
    assert!(stderr.contains(&format!("cannot read {}", missing.display())), "{stderr}");
    let rendered = |id: &str, file: &str| format!("== {}", camp.join(id).join(file).display());
    for (id, file) in [("a", "perf.json"), ("a", "timeline.json"), ("b", "timeline.json")] {
        assert!(stdout.contains(&rendered(id, file)), "{id}/{file} not rendered: {stdout}");
    }
    assert!(stdout.contains("member `c`: unstable"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint cadence or retention of 0 is refused where it enters,
/// naming the flag or the field. `--checkpoint-interval 0` used to cut
/// nothing, a scenario's `"checkpoint_interval": 0` every 10 steps, and
/// `--checkpoint-keep 0` kept one generation.
#[test]
fn a_zero_checkpoint_cadence_or_retention_exits_2_naming_it() {
    let dir = workdir("zero_cadence");
    let ckpt = dir.join("ckpt");
    let store = ["--checkpoint-dir", ckpt.to_str().unwrap()];
    let plain = shrunk_example(&dir, "plain", |_| {});
    for flag in ["--checkpoint-interval", "--checkpoint-keep"] {
        let out = run_scenario(&plain, &[&store[..], &[flag, "0"]].concat(), None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(stderr.contains(&format!("invalid value '0' for {flag}")), "{stderr}");
    }
    let zero = shrunk_example(&dir, "zero", |json| {
        json["checkpoint_interval"] = serde_json::json!(0);
    });
    let out = run_scenario(&zero, &store, None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("checkpoint_interval must be at least 1"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A resume continues the run that cut the generation or fails with exit
/// 2, `cannot resume`, naming what differs — on one rank and on 2x2. A
/// station the generation holds no history for used to panic (exit 101),
/// one moved under its name spliced two positions' histories, and a
/// halved `dt_scale` or attenuation switched off resumed with exit 0 into
/// a spliced run.
#[test]
fn a_resume_under_another_scenario_exits_2_naming_what_differs() {
    type Edit = fn(&mut serde_json::Value);
    let dir = workdir("resume_other");
    let base = shrunk_example(&dir, "base", |_| {});
    let edits: [(&str, &str, Edit); 4] = [
        ("added", "station `north`", |json| {
            let north = serde_json::json!({"name": "north", "ix": 12, "iy": 20});
            json["stations"].as_array_mut().unwrap().push(north);
        }),
        ("moved", "station `east`", |json| json["stations"][1]["ix"] = serde_json::json!(16)),
        ("finer", "this run's dt", |json| json["dt_scale"] = serde_json::json!(0.5)),
        ("elastic", "field `r1`", |json| json["attenuation"] = serde_json::json!(false)),
    ];
    for ranks in ["1x1", "2x2"] {
        for (name, named, edit) in edits {
            let ckpt = dir.join(format!("ckpt_{name}_{ranks}"));
            let store = ["--checkpoint-dir", ckpt.to_str().unwrap(), "--ranks", ranks];
            // Past the source's onset: the generation holds a live wavefield.
            let killed = run_scenario(&base, &store, Some("kill@35"));
            assert_eq!(killed.status.code(), Some(137), "{ranks}: the drill must kill the run");
            let edited = shrunk_example(&dir, name, edit);
            let out = run_scenario(&edited, &[&store[..], &["--resume"]].concat(), None);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} on {ranks}: {stderr}");
            assert!(stderr.contains("cannot resume") && stderr.contains(named), "{stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

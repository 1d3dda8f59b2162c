//! `BENCHMARK.json` and the code agree, and `bench_e2e --smoke` emits
//! every name it lists.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use swq_bench_e2e::metrics::{end_to_end, per_layer, MetricDef};
use swq_bench_e2e::workloads::specs;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench_e2e sits in the repo")
        .to_path_buf()
}

fn benchmark() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    doc[key]
        .as_array()
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().unwrap_or_else(|| panic!("{key}: {f}")).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn defined(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
    defs.into_iter().map(|d| (d.name, d.unit.to_string(), d.better.to_string())).collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_code_emits() {
    let doc = benchmark();
    let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert_eq!(listed(&doc, "end_to_end"), defined(end_to_end()));
    assert_eq!(listed(&doc, "per_layer"), defined(per_layer()));
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit, better) in
        listed(&doc, "end_to_end").into_iter().chain(listed(&doc, "per_layer"))
    {
        assert!(name_ok(&name), "metric name {name}");
        assert!(unit_ok(&unit), "unit {unit} of {name}");
        assert!(better == "lower" || better == "higher", "direction of {name}");
        assert!(seen.insert(name.clone()), "{name} is listed twice");
    }
    for m in doc["end_to_end"].as_array().unwrap() {
        let bound = m["bound"].as_f64().expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m["name"].as_str().unwrap());
    }
    assert!(listed(&doc, "end_to_end")
        .iter()
        .any(|(n, u, b)| n == "setup_s" && u == "s" && b == "lower"));
    let workloads: Vec<(String, String)> = doc["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| (w["name"].as_str().unwrap().to_string(), w["why"].as_str().unwrap().to_string()))
        .collect();
    let from_code: Vec<(String, String)> =
        specs(false).iter().map(|s| (s.name.to_string(), s.why.to_string())).collect();
    assert_eq!(workloads, from_code);
    for (name, why) in &workloads {
        assert!(name_ok(name) && seen.insert(name.clone()), "workload name {name}");
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    let seconds = doc["run_seconds"].as_u64().expect("run_seconds is a whole number");
    assert!((1..=60).contains(&seconds));
    assert_eq!(doc["paths"], serde_json::json!(["bench_e2e"]));
}

/// The release CLI binary, if someone built it; the smoke test does not
/// build it itself.
fn swquake_binary() -> Option<PathBuf> {
    let mut candidates = vec![repo_root().join("target/release/swquake")];
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        candidates.insert(0, repo_root().join(dir).join("release/swquake"));
    }
    candidates.into_iter().find(|p| p.is_file())
}

fn smoke(workload: &str, trace: &str, swquake: &Path) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "9",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--swquake")
        .arg(swquake)
        .current_dir(repo_root())
        .output()
        .expect("bench_e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a result line"))
        .expect("the last line is JSON")
}

#[test]
fn smoke_run_emits_every_listed_metric_for_every_workload() {
    let Some(swquake) = swquake_binary() else {
        eprintln!(
            "SKIPPED: no release swquake binary under target/release; build it with \
             `cargo build --release --features simd --bin swquake` to run the smoke test"
        );
        return;
    };
    let doc = benchmark();
    for workload in doc["workloads"].as_array().unwrap() {
        let name = workload["name"].as_str().unwrap();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = smoke(name, trace, &swquake);
            let keys: Vec<&str> =
                result.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result["correct"], true, "{name} --trace {trace}: {result:?}");
            assert_eq!(result["failed"], 0);
            assert!(result["attempted"].as_u64().unwrap() >= 1);
            let emitted: Vec<(String, String)> = result["metrics"]
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, v)| {
                    assert!(v["value"].as_f64().is_some(), "{name}: {k} has a numeric value");
                    (k.clone(), v["unit"].as_str().unwrap().to_string())
                })
                .collect();
            let mut emitted_sorted = emitted.clone();
            emitted_sorted.sort();
            let mut expected: Vec<(String, String)> =
                listed(&doc, key).into_iter().map(|(n, u, _)| (n, u)).collect();
            expected.sort();
            assert_eq!(emitted_sorted, expected, "{name} --trace {trace}");
        }
    }
}

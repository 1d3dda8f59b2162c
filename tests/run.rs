//! The one scenario runner (`swquake::run::run_scenario`), called the way
//! `swquake run` and a campaign member call it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use swquake::fault::FaultPlan;
use swquake::run::{run_scenario, Checkpoints, Material, Resume, RunPlan};
use swquake::{Error, Scenario, ScenarioStation};

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swquake_run_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The example scenario shrunk to test size (~70 steps).
fn small_scenario() -> Scenario {
    let mut s = Scenario::example();
    s.mesh = [20, 20, 12];
    s.duration = 1.0;
    s.sources[0].position = [10, 10, 6];
    s.stations = vec![ScenarioStation { name: "probe".to_string(), ix: 14, iy: 14 }];
    s
}

fn plan(dir: &Path, prefix: &str, store: &str, resume: Resume, fault: Option<&str>) -> RunPlan {
    RunPlan {
        checkpoints: Some(Checkpoints { dir: dir.join(store), interval: Some(10), keep: None }),
        resume,
        fault: fault.map(|spec| Arc::new(FaultPlan::parse(spec).unwrap())),
        prefix: dir.join(prefix).display().to_string(),
        ..RunPlan::default()
    }
}

fn results(dir: &Path, prefix: &str) -> (Vec<u8>, Vec<u8>) {
    let read = |suffix: &str| std::fs::read(dir.join(format!("{prefix}_{suffix}"))).unwrap();
    (read("seismograms.csv"), read("hazard.json"))
}

/// The two resume policies differ in exactly one cell of this table: a
/// store nothing can be restored from is an error when the operator asked
/// for a resume (`run --resume`) and a noted fresh start when a campaign
/// did (`campaign --resume`: the crash may have come before the first
/// generation). A rotten newest generation is skipped, and reported, the
/// same way under both.
#[test]
#[allow(clippy::result_large_err)] // `run` hands the cold abort-path error through
fn the_two_resume_policies_differ_only_on_an_empty_store() {
    let dir = workdir("resume");
    let scenario = small_scenario();
    let model = scenario.build_model();
    let run = |plan: &RunPlan| {
        run_scenario(
            &scenario,
            Material { model: model.as_ref(), state: None, sources: None },
            plan,
        )
    };

    run(&plan(&dir, "ref", "ref_ckpt", Resume::Fresh, None)).expect("reference run");
    let reference = results(&dir, "ref");

    for policy in [Resume::Required, Resume::OrRestart] {
        // An empty store: nothing was ever committed.
        let tag = format!("{policy:?}");
        std::fs::create_dir_all(dir.join(format!("{tag}_empty"))).unwrap();
        let outcome = run(&plan(&dir, &tag, &format!("{tag}_empty"), policy, None));
        match policy {
            Resume::Required => {
                let Err(e @ Error::Resume(_)) = outcome else {
                    panic!("{tag}: a resume from an empty store must fail as Error::Resume");
                };
                let text = e.to_string();
                assert!(
                    text.starts_with("cannot resume: ") && text.contains("manifest not found"),
                    "{tag}: {text}"
                );
            }
            _ => {
                let summary = outcome.expect("or-restart falls back to a fresh run");
                let why = summary.restarted.expect("the fallback is noted");
                assert!(why.contains("manifest not found"), "{tag}: {why}");
                assert!(summary.merged.resume.is_none(), "{tag}");
                assert!(results(&dir, &tag) == reference, "{tag}: restarted run diverged");
            }
        }

        // Killed at 25 with generations at 10 and 20, the newest then
        // rotted in place: both policies fall back to step 10 and say
        // which generation they passed over.
        let store = format!("{tag}_rotten");
        let killed = run(&plan(&dir, &tag, &store, Resume::Fresh, Some("kill@25")));
        assert!(matches!(killed, Err(Error::Killed(_))), "{tag}: the drill must kill the run");
        let manifest: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(dir.join(&store).join("MANIFEST.json")).unwrap(),
        )
        .unwrap();
        let newest = manifest["generations"].as_array().unwrap().last().unwrap().clone();
        assert_eq!(newest["step"].as_u64(), Some(20));
        let victim = dir.join(&store).join(newest["files"][0].as_str().unwrap());
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();

        let summary = run(&plan(&dir, &tag, &store, policy, None)).expect("fallback resume");
        let info = summary.merged.resume.expect("resumed");
        assert_eq!(info.step, 10, "{tag}");
        assert_eq!(info.skipped.len(), 1, "{tag}: {:?}", info.skipped);
        assert_eq!(info.skipped[0].0, 20, "{tag}");
        assert!(summary.restarted.is_none(), "{tag}");
        assert!(results(&dir, &tag) == reference, "{tag}: resumed run diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! Crash drills: deterministic fault injection against the durable
//! checkpoint store, end to end. The invariant under test is always the
//! same — kill (or corrupt) a persisting campaign, resume it, and the
//! final observables are byte-identical to a run that never died.
//! Single-rank drills go through the real CLI binary (exit code 137,
//! `--resume`, CSV diffs); multirank and write-fault drills go through
//! the library so they can assert on the typed errors.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use swquake::core::driver::run_multirank;
use swquake::core::{RunError, SimConfig, Simulation};
use swquake::fault::FaultPlan;
use swquake::grid::Dims3;
use swquake::io::Station;
use swquake::model::LayeredModel;
use swquake::parallel::RankGrid;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swquake")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swquake_drill_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write the example scenario shrunk to drill size, pointing its outputs
/// at `prefix`.
fn write_scenario(dir: &Path, name: &str, prefix: &str) -> PathBuf {
    let path = dir.join(name);
    let status =
        Command::new(bin()).args(["--write-example", path.to_str().unwrap()]).status().unwrap();
    assert!(status.success());
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    json["mesh"] = serde_json::json!([20, 20, 12]);
    json["duration"] = serde_json::json!(1.5);
    json["sources"][0]["position"] = serde_json::json!([10, 10, 6]);
    json["stations"] = serde_json::json!([{"name": "probe", "ix": 14, "iy": 14}]);
    json["output_prefix"] = serde_json::json!(dir.join(prefix).to_str().unwrap());
    std::fs::write(&path, serde_json::to_string(&json).unwrap()).unwrap();
    path
}

fn read_outputs(dir: &Path, prefix: &str) -> (String, String) {
    let csv = std::fs::read_to_string(dir.join(format!("{prefix}_seismograms.csv"))).unwrap();
    let hazard = std::fs::read_to_string(dir.join(format!("{prefix}_hazard.json"))).unwrap();
    (csv, hazard)
}

/// The single-rank drill through the real binary: an injected `kill@20`
/// exits with code 137 (the SIGKILL convention) mid-campaign, `--resume`
/// restores the newest committed generation, and the finished outputs
/// are byte-identical to a run that was never killed.
#[test]
fn cli_kill_then_resume_is_byte_identical() {
    let dir = workdir("cli_kill");
    let reference = write_scenario(&dir, "reference.json", "ref");
    let drill = write_scenario(&dir, "drill.json", "drill");
    let ckpt_dir = dir.join("ckpt");

    let out = Command::new(bin()).arg(reference.to_str().unwrap()).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Campaign 1: die abruptly at the end of step 20 (a committed step).
    let killed = Command::new(bin())
        .args([
            "run",
            drill.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--checkpoint-interval",
            "10",
        ])
        .env("SWQUAKE_FAULT_PLAN", "kill@20")
        .output()
        .unwrap();
    assert_eq!(
        killed.status.code(),
        Some(137),
        "stderr: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(ckpt_dir.join("MANIFEST.json").exists(), "no manifest committed before the kill");

    // Campaign 2: resume and finish.
    let resumed = Command::new(bin())
        .args([
            "run",
            drill.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--checkpoint-interval",
            "10",
            "--resume",
        ])
        .env_remove("SWQUAKE_FAULT_PLAN")
        .output()
        .unwrap();
    assert!(resumed.status.success(), "stderr: {}", String::from_utf8_lossy(&resumed.stderr));
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("resumed from checkpoint generation at step 20"), "stdout: {stdout}");

    let (ref_csv, ref_hazard) = read_outputs(&dir, "ref");
    let (drill_csv, drill_hazard) = read_outputs(&dir, "drill");
    assert_eq!(ref_csv, drill_csv, "seismogram CSV diverged after resume");
    assert_eq!(ref_hazard, drill_hazard, "hazard map diverged after resume");
    std::fs::remove_dir_all(&dir).ok();
}

/// The same CLI drill under `"resident": "compressed16"`: the kill
/// lands while every wavefield lives in its 16-bit store, the committed
/// generation carries the bucket sidecar, and the resumed campaign's
/// outputs are byte-identical to a compressed run that never died —
/// the sidecar restores the stores to the exact planes the kill
/// interrupted, so the 16-bit round-trip sequence replays identically.
#[test]
fn cli_kill_then_resume_compressed16_is_byte_identical() {
    let dir = workdir("cli_kill_resident");
    let reference = write_scenario(&dir, "reference.json", "ref");
    let drill = write_scenario(&dir, "drill.json", "drill");
    for path in [&reference, &drill] {
        let mut json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        json["resident"] = serde_json::json!("compressed16");
        json["memory_cap_bytes"] = serde_json::json!(512 * 1024);
        std::fs::write(path, serde_json::to_string(&json).unwrap()).unwrap();
    }
    let ckpt_dir = dir.join("ckpt");

    let out = Command::new(bin()).arg(reference.to_str().unwrap()).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resident compressed16"), "no resident echo, stdout: {stdout}");

    let killed = Command::new(bin())
        .args([
            "run",
            drill.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--checkpoint-interval",
            "10",
        ])
        .env("SWQUAKE_FAULT_PLAN", "kill@20")
        .output()
        .unwrap();
    assert_eq!(
        killed.status.code(),
        Some(137),
        "stderr: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(ckpt_dir.join("MANIFEST.json").exists(), "no manifest committed before the kill");

    let resumed = Command::new(bin())
        .args([
            "run",
            drill.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--checkpoint-interval",
            "10",
            "--resume",
        ])
        .env_remove("SWQUAKE_FAULT_PLAN")
        .output()
        .unwrap();
    assert!(resumed.status.success(), "stderr: {}", String::from_utf8_lossy(&resumed.stderr));
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("resumed from checkpoint generation at step 20"), "stdout: {stdout}");

    let (ref_csv, ref_hazard) = read_outputs(&dir, "ref");
    let (drill_csv, drill_hazard) = read_outputs(&dir, "drill");
    assert_eq!(ref_csv, drill_csv, "compressed16 seismogram CSV diverged after resume");
    assert_eq!(ref_hazard, drill_hazard, "compressed16 hazard map diverged after resume");
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupting the newest committed generation on disk must not fail the
/// resume: the store falls back to the previous generation, warns on
/// stderr, and the finished outputs are still byte-identical.
#[test]
fn cli_corrupt_newest_generation_falls_back_with_warning() {
    let dir = workdir("cli_corrupt");
    let reference = write_scenario(&dir, "reference.json", "ref");
    let drill = write_scenario(&dir, "drill.json", "drill");
    let ckpt_dir = dir.join("ckpt");

    let out = Command::new(bin()).arg(reference.to_str().unwrap()).output().unwrap();
    assert!(out.status.success());

    let killed = Command::new(bin())
        .args([
            "run",
            drill.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--checkpoint-interval",
            "10",
        ])
        .env("SWQUAKE_FAULT_PLAN", "kill@25")
        .output()
        .unwrap();
    assert_eq!(killed.status.code(), Some(137));

    // Rot the newest generation's file in place (an undetected media
    // flip, not a truncation — the checksum must catch it).
    let manifest: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(ckpt_dir.join("MANIFEST.json")).unwrap())
            .unwrap();
    let generations = manifest["generations"].as_array().unwrap();
    assert!(generations.len() >= 2, "need a generation to fall back to: {generations:?}");
    let newest = generations.last().unwrap();
    let newest_step = newest["step"].as_u64().unwrap();
    let victim = ckpt_dir.join(newest["files"][0].as_str().unwrap());
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let resumed = Command::new(bin())
        .args([
            "run",
            drill.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--checkpoint-interval",
            "10",
            "--resume",
        ])
        .env_remove("SWQUAKE_FAULT_PLAN")
        .output()
        .unwrap();
    assert!(resumed.status.success(), "stderr: {}", String::from_utf8_lossy(&resumed.stderr));
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains(&format!("skipped checkpoint generation at step {newest_step}")),
        "no fallback warning, stderr: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        stdout
            .contains(&format!("resumed from checkpoint generation at step {}", newest_step - 10)),
        "stdout: {stdout}"
    );

    let (ref_csv, ref_hazard) = read_outputs(&dir, "ref");
    let (drill_csv, drill_hazard) = read_outputs(&dir, "drill");
    assert_eq!(ref_csv, drill_csv, "seismogram CSV diverged after fallback resume");
    assert_eq!(ref_hazard, drill_hazard, "hazard map diverged after fallback resume");
    std::fs::remove_dir_all(&dir).ok();
}

/// Library-level config shared by the multirank and write-fault drills.
fn drill_config(steps: usize) -> SimConfig {
    let dims = Dims3::new(24, 22, 14);
    let mut cfg = SimConfig::new(dims, 150.0, steps).with_compression(true);
    cfg.options.sponge_width = 4;
    cfg.options.attenuation = true;
    cfg.sources = vec![PointSource {
        ix: 11,
        iy: 10,
        iz: 7,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14),
        stf: SourceTimeFunction::Triangle { onset: 0.05, duration: 0.5 },
    }];
    cfg.stations = vec![
        Station { name: "A".into(), ix: 5, iy: 5 },
        Station { name: "B".into(), ix: 12, iy: 11 },
    ];
    cfg
}

/// The multirank drill: a targeted rank death brings the whole 2×2 grid
/// down through the collective kill vote as `RunError::Killed`, before
/// any partial generation can commit; resuming the same rank grid from
/// the store finishes with merged observables byte-identical to an
/// undisturbed run.
#[test]
fn multirank_kill_then_resume_is_bit_identical() {
    let dir = workdir("multirank_kill");
    let ckpt_dir = dir.join("ckpt");
    let model = LayeredModel::north_china();
    let grid = RankGrid::new(2, 2);
    let cfg = drill_config(40);

    let reference = run_multirank(&model, &cfg, grid).expect("undisturbed run");

    // Rank 2 dies at step 25 (between commits at 20 and 30).
    let plan = FaultPlan::parse("kill@25:rank=2").unwrap();
    let persisting = cfg.clone().with_checkpoint_dir(&ckpt_dir).with_checkpoint_interval(10);
    let err =
        run_multirank(&model, &persisting.clone().with_fault_plan(Some(Arc::new(plan))), grid)
            .expect_err("the drill must kill the run");
    match err {
        RunError::Killed(k) => {
            assert_eq!((k.step, k.rank), (25, 2), "wrong victim: {k:?}");
        }
        other => panic!("expected Killed, got {other:?}"),
    }

    let resumed = run_multirank(&model, &persisting.with_resume(true), grid)
        .expect("resume from the step-20 generation");
    for (a, b) in reference.seismograms.iter().zip(&resumed.seismograms) {
        assert_eq!(a.station.name, b.station.name);
        assert_eq!(a.samples, b.samples, "station {} diverged", a.station.name);
    }
    assert_eq!(reference.pgv.pgv, resumed.pgv.pgv, "hazard map diverged");
    assert_eq!(reference.flops, resumed.flops, "flop ledger diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Write faults (injected I/O error, torn file, bit rot) never take the
/// campaign down — the run completes, the damaged generations are
/// skipped at restore time with reasons, and the oldest intact
/// generation still resumes bit-identically.
#[test]
fn write_faults_leave_an_older_generation_restorable() {
    let dir = workdir("write_faults");
    let ckpt_dir = dir.join("ckpt");
    let model = LayeredModel::north_china();
    let cfg = drill_config(40);

    let mut reference = Simulation::new(&model, &cfg).unwrap();
    reference.run(cfg.steps);

    // Commits at 10, 30 (bit-rotted), 40 (torn); the step-20 write fails
    // outright, so no generation ever exists for it.
    let plan = FaultPlan::parse("seed=7;ioerr@20;flip@30:flips=4;torn@40:frac=0.5").unwrap();
    let persisting = cfg.clone().with_checkpoint_dir(&ckpt_dir).with_checkpoint_interval(10);
    let mut drilled =
        Simulation::new(&model, &persisting.clone().with_fault_plan(Some(Arc::new(plan)))).unwrap();
    drilled.run_checked(cfg.steps).expect("write faults are not fatal");

    let mut resumed = Simulation::new(&model, &persisting.with_resume(true))
        .expect("an intact generation remains");
    let info = resumed.resumed().cloned().expect("a resumed simulation");
    assert_eq!(info.step, 10, "must fall all the way back to the intact generation");
    assert_eq!(info.skipped.len(), 2, "both damaged generations reported: {:?}", info.skipped);
    let skipped_steps: Vec<u64> = info.skipped.iter().map(|(s, _)| *s).collect();
    assert_eq!(skipped_steps, vec![40, 30], "newest first");
    assert!(info.skipped.iter().all(|(_, reason)| !reason.is_empty()));

    resumed.run(cfg.steps - info.step as usize);
    assert_eq!(reference.state.u.max_abs_diff(&resumed.state.u), 0.0, "wavefield diverged");
    assert_eq!(reference.pgv.pgv, resumed.pgv.pgv, "hazard map diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// The worst-timed crash: death after staging the checkpoint temp file
/// but before the atomic rename. The manifest never sees the partial
/// generation, the leftover temp file is ignored, and the previous
/// generation resumes bit-identically.
#[test]
fn kill_mid_write_cannot_corrupt_the_store() {
    let dir = workdir("killwrite");
    let ckpt_dir = dir.join("ckpt");
    let model = LayeredModel::north_china();
    let cfg = drill_config(40);

    let mut reference = Simulation::new(&model, &cfg).unwrap();
    reference.run(cfg.steps);

    let plan = FaultPlan::parse("killwrite@20").unwrap();
    let persisting = cfg.clone().with_checkpoint_dir(&ckpt_dir).with_checkpoint_interval(10);
    let mut drilled =
        Simulation::new(&model, &persisting.clone().with_fault_plan(Some(Arc::new(plan)))).unwrap();
    let err = drilled.run_checked(cfg.steps).expect_err("mid-write kill");
    match err {
        RunError::Killed(k) => assert_eq!(k.step, 20),
        other => panic!("expected Killed, got {other:?}"),
    }

    let mut resumed =
        Simulation::new(&model, &persisting.with_resume(true)).expect("previous generation intact");
    let info = resumed.resumed().cloned().expect("a resumed simulation");
    assert_eq!(info.step, 10, "the staged-but-unrenamed generation must not be visible");
    assert!(info.skipped.is_empty(), "crash debris is not a fallback: {:?}", info.skipped);
    resumed.run(cfg.steps - 10);
    assert_eq!(reference.state.u.max_abs_diff(&resumed.state.u), 0.0, "wavefield diverged");
    assert_eq!(reference.pgv.pgv, resumed.pgv.pgv, "hazard map diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// A rank image that passes every checksum but does not fit the run: it
/// decodes, so the store calls the generation valid — what it holds is
/// only known once its fields are laid against the rank's subdomain.
/// That happens before any simulation is built or rank thread started,
/// for every field of every rank, so the resume fails as
/// `ResumeFailed` naming rank and field, on one rank and on 2x1, where
/// it used to panic on a rank thread (only the first field's dims were
/// looked at) while the neighbour walked into a halo exchange.
#[test]
fn a_crafted_rank_image_is_a_classified_resume_failure() {
    use std::sync::mpsc;
    use std::time::Duration;
    use swquake::grid::Field3;
    use swquake::io::{Checkpoint, CheckpointStore};

    let model = LayeredModel::north_china();
    type Craft = fn(&mut Checkpoint);
    let crafts: [(&str, Craft); 3] = [
        ("`v`", |ckpt| {
            // The second field, on another mesh; the first still fits.
            let (name, f) = &mut ckpt.fields[1];
            assert_eq!(name, "v");
            let d = f.dims();
            *f = Field3::new(Dims3::new(d.nx + 1, d.ny, d.nz), f.halo());
        }),
        ("`stress_xx`", |ckpt| ckpt.fields[3].0 = "stress_xx".to_string()),
        // Every field that is there checks out, but one the run advances
        // is not: resuming would restart `w` from zero.
        ("`w`", |ckpt| ckpt.fields.retain(|(name, _)| name != "w")),
    ];
    for grid in [RankGrid::new(1, 1), RankGrid::new(2, 1)] {
        for (field, craft) in crafts {
            let dir = workdir(&format!("crafted_{}x{}", grid.mx, field.len()));
            let cfg = drill_config(20).with_checkpoint_dir(&dir).with_checkpoint_interval(10);
            run_multirank(&model, &cfg, grid).expect("persisting run");
            // Re-encode the last rank's image of the newest generation.
            let victim = grid.len() - 1;
            let path = dir.join(CheckpointStore::rank_file_name(20, victim));
            let mut ckpt = Checkpoint::read_file(&path).expect("committed image");
            craft(&mut ckpt);
            ckpt.write_file(&path).unwrap();

            // On a thread of its own, so a hang is a failure, not a stall.
            let (tx, rx) = mpsc::channel();
            let resuming = cfg.clone().with_resume(true);
            std::thread::spawn(move || {
                let model = LayeredModel::north_china();
                let mut errors = vec![run_multirank(&model, &resuming, grid).err()];
                if grid.len() == 1 {
                    errors.push(Simulation::new(&model, &resuming).err());
                }
                tx.send(errors).ok();
            });
            let errors = rx
                .recv_timeout(Duration::from_secs(120))
                .expect("the resume neither returned nor failed cleanly: a hang or a rank panic");
            for err in errors {
                match err {
                    Some(RunError::ResumeFailed { detail }) => assert!(
                        detail.contains(&format!("rank {victim}")) && detail.contains(field),
                        "{grid:?} {field}: {detail}"
                    ),
                    other => panic!("{grid:?} {field}: expected ResumeFailed, got {other:?}"),
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The other direction: an image may hold known fields the run does not
/// carry. Builds before the state allocated by physics wrote six all-zero
/// memory variables and `eqp` for an elastic run; such a store still
/// resumes, the extras are ignored (the run has nowhere to put them), and
/// the result is the undisturbed run's, bit for bit.
#[test]
fn an_image_with_fields_the_run_does_not_carry_still_resumes() {
    use swquake::grid::Field3;
    use swquake::io::{Checkpoint, CheckpointStore};

    let model = LayeredModel::north_china();
    let dir = workdir("extra_fields");
    let mut cfg = drill_config(30).with_compression(false);
    cfg.options.attenuation = false;
    let mut reference = Simulation::new(&model, &cfg).expect("valid config");
    reference.run(cfg.steps);

    let stored = cfg.clone().with_checkpoint_dir(&dir).with_checkpoint_interval(10);
    let mut first = Simulation::new(&model, &stored).expect("valid config");
    first.run(20);
    drop(first);
    let path = dir.join(CheckpointStore::rank_file_name(20, 0));
    let mut ckpt = Checkpoint::read_file(&path).expect("committed image");
    let names: Vec<&str> = ckpt.fields.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["u", "v", "w", "xx", "yy", "zz", "xy", "xz", "yz"], "an elastic image");
    let zeros = Field3::new(ckpt.fields[0].1.dims(), ckpt.fields[0].1.halo());
    for name in ["r1", "r2", "r3", "r4", "r5", "r6", "eqp"] {
        ckpt.fields.push((name.to_string(), zeros.clone()));
    }
    ckpt.write_file(&path).unwrap();

    let mut resumed =
        Simulation::new(&model, &stored.with_resume(true)).expect("the extras are fine");
    assert_eq!(resumed.resumed().map(|info| info.step), Some(20));
    assert_eq!(resumed.state.arrays().count(), 13, "nothing was attached to hold them");
    resumed.run(cfg.steps - 20);
    for ((name, _, a), (_, _, b)) in reference.state.arrays().zip(resumed.state.arrays()) {
        assert_eq!(a.max_abs_diff(b), 0.0, "`{name}` diverged");
    }
    assert_eq!(reference.pgv.pgv, resumed.pgv.pgv, "hazard map diverged");
    std::fs::remove_dir_all(&dir).ok();
}

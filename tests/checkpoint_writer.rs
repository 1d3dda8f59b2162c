//! Format v3 and the generation writer, from outside: the driver's
//! borrowed-field encode and `Checkpoint::encode` are one encoder (same
//! bytes in every exec mode and pool width), older magics are version
//! errors, and a generation handed to the writer thread is on disk and in
//! the manifest at every point the step thread promises it is — when
//! `run`/`run_checked` return, when the simulation is dropped mid-run,
//! and before the next generation is staged.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use swquake::core::{ExecMode, SimConfig, Simulation};
use swquake::fault::FaultPlan;
use swquake::grid::Dims3;
use swquake::health::HealthConfig;
use swquake::io::checkpoint::{Checkpoint, CheckpointError};
use swquake::io::store::{Manifest, MANIFEST_NAME};
use swquake::io::{CheckpointStore, Station};
use swquake::model::LayeredModel;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};
use swquake::telemetry::Telemetry;

fn config(steps: usize) -> SimConfig {
    let mut cfg = SimConfig::new(Dims3::new(20, 18, 12), 150.0, steps);
    cfg.options.sponge_width = 4;
    cfg.options.attenuation = true;
    cfg.sources = vec![PointSource {
        ix: 10,
        iy: 9,
        iz: 6,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14),
        stf: SourceTimeFunction::Triangle { onset: 0.05, duration: 0.5 },
    }];
    cfg.stations = vec![Station { name: "A".into(), ix: 5, iy: 5 }];
    cfg.with_checkpoint_interval(10)
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swquake_writer_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Steps the on-disk manifest lists, each checked to have its rank file.
fn committed(dir: &Path) -> Vec<u64> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_NAME)).expect("manifest on disk");
    let manifest: Manifest = serde_json::from_str(&text).expect("manifest parses");
    manifest
        .generations
        .iter()
        .map(|g| {
            assert!(dir.join(&g.files[0]).exists(), "manifest lists a missing {}", g.files[0]);
            g.step
        })
        .collect()
}

#[test]
fn sqk2_images_are_a_version_error() {
    let model = LayeredModel::north_china();
    // No store, so no cadence: a cadence without one is a config error.
    let mut sim = Simulation::new(&model, &config(5).with_checkpoint_interval(0)).unwrap();
    sim.run(5);
    let mut image = sim.make_checkpoint().encode();
    assert_eq!(&image[..4], b"3KQS", "format v3, little-endian \"SQK3\"");
    image[..4].copy_from_slice(b"2KQS");
    assert_eq!(
        Checkpoint::decode(&image),
        Err(CheckpointError::BadVersion { found: 0x5351_4b32 }),
        "one reader: a v2 image is refused, not reinterpreted"
    );
}

/// The image the driver's writer put on disk for step 20 is, byte for
/// byte, `make_checkpoint().encode()` of the same state — whichever exec
/// mode cut it and however wide the pool was.
#[test]
fn driver_and_checkpoint_share_one_encoder_in_every_mode_and_width() {
    let model = LayeredModel::north_china();
    let mut images: Vec<Vec<u8>> = Vec::new();
    for exec in [ExecMode::Serial, ExecMode::Parallel] {
        for threads in [1usize, 2, 4] {
            let dir = workdir(&format!("encoder_{exec}_{threads}"));
            let cfg = config(20).with_exec(exec).with_threads(threads).with_checkpoint_dir(&dir);
            let mut sim = Simulation::new(&model, &cfg).unwrap();
            sim.run(20);
            let on_disk = std::fs::read(dir.join(CheckpointStore::rank_file_name(20, 0))).unwrap();
            assert_eq!(
                on_disk,
                sim.make_checkpoint().encode(),
                "{exec} x {threads}: borrowed-field encode != Checkpoint::encode"
            );
            // (Halos are not stored, so compare re-encodings, not fields.)
            assert_eq!(Checkpoint::decode(&on_disk).unwrap().encode(), on_disk);
            images.push(on_disk);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(images.windows(2).all(|w| w[0] == w[1]), "modes and widths agree on the image");
    rayon::ThreadPoolBuilder::new().num_threads(0).build_global().unwrap();
}

#[test]
fn generations_are_durable_at_every_join_point() {
    let model = LayeredModel::north_china();

    // (a) when `run` and `run_checked` return — the watchdog makes
    // `run_checked` take its checked-stepping branch.
    let dir = workdir("join_run");
    let cfg = config(30).with_checkpoint_dir(&dir);
    let mut sim = Simulation::new(&model, &cfg).unwrap();
    sim.run(10);
    assert_eq!(committed(&dir), vec![10], "run returned: generation 10 is committed");
    sim.run(10);
    assert_eq!(committed(&dir), vec![10, 20]);
    drop(sim);
    let dir_checked = workdir("join_run_checked");
    let cfg = config(30).with_checkpoint_dir(&dir_checked).with_health(HealthConfig::default());
    let mut sim = Simulation::new(&model, &cfg).unwrap();
    sim.run_checked(20).expect("healthy run");
    assert_eq!(committed(&dir_checked), vec![10, 20], "run_checked returned");
    drop(sim);

    // (c) before generation N + 1 is staged: stepping one by one, the
    // step that cuts generation 20 does not return before 10 is in.
    let dir_steps = workdir("join_stage");
    let cfg = config(30).with_checkpoint_dir(&dir_steps);
    let mut sim = Simulation::new(&model, &cfg).unwrap();
    for _ in 0..20 {
        sim.step();
    }
    assert_eq!(committed(&dir_steps).first(), Some(&10), "staging 20 waited for 10");

    // (b) dropped mid-run, generation 20 possibly still in flight.
    for _ in 0..5 {
        sim.step();
    }
    drop(sim);
    assert_eq!(committed(&dir_steps), vec![10, 20], "drop waited for the generation in flight");

    // And a restore joins before it rewinds: nothing is written behind
    // the restored state's back.
    let mut resumed = Simulation::new(&model, &cfg.with_resume(true)).unwrap();
    assert_eq!(resumed.resumed().map(|info| info.step), Some(20));
    for _ in 0..10 {
        resumed.step();
    }
    let snapshot = resumed.make_checkpoint();
    resumed.restore(&snapshot).unwrap();
    assert_eq!(committed(&dir_steps), vec![10, 20, 30], "restore waited for generation 30");
    for dir in [dir, dir_checked, dir_steps] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn an_injected_write_error_is_counted_and_the_run_continues() {
    let model = LayeredModel::north_china();
    let dir = workdir("ioerr");
    let plan = FaultPlan::parse("seed=2;ioerr@20").unwrap();
    let telemetry = Telemetry::enabled();
    let cfg = config(30)
        .with_checkpoint_dir(&dir)
        .with_fault_plan(Some(Arc::new(plan)))
        .with_telemetry(telemetry.clone());
    let mut sim = Simulation::new(&model, &cfg).unwrap();
    sim.run_checked(30).expect("a failed checkpoint write is a warning, not an abort");
    assert_eq!(sim.step_count, 30);
    assert_eq!(committed(&dir), vec![10, 30], "generation 20 never reached the manifest");
    let report = sim.metrics();
    assert_eq!(report.counter("io.checkpoint_failures"), Some(1));
    assert_eq!(report.counter("io.checkpoint_generations"), Some(2));
    assert_eq!(report.counter("io.checkpoints"), Some(3), "three generations were cut");
    let wait = report.timer("io.checkpoint_wait").expect("the step thread's wait is timed");
    let write = report.timer("io.checkpoint_write").expect("the writer's wall is timed");
    assert_eq!(write.calls, 3, "one write wall per generation handed over");
    assert!(wait.total_s >= 0.0 && write.total_s > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

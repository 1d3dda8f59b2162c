//! End-to-end telemetry coverage: a quickstart-scale run must emit
//! metrics for every instrumented subsystem, the JSON report must
//! round-trip through its stable schema, and a disabled [`Telemetry`]
//! must not change a single output bit.

use std::sync::Arc;
use swquake::core::driver::run_multirank;
use swquake::core::{SimConfig, Simulation};
use swquake::grid::Dims3;
use swquake::model::HalfspaceModel;
use swquake::parallel::RankGrid;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};
use swquake::telemetry::perf::{PerfLedger, PerfRecorder};
use swquake::telemetry::{Report, Telemetry};

fn quickstart_config(steps: usize) -> SimConfig {
    let mut cfg =
        SimConfig::new(Dims3::new(32, 32, 24), 200.0, steps).with_sources(vec![PointSource {
            ix: 16,
            iy: 16,
            iz: 12,
            moment: MomentTensor::explosion(1.0e14),
            stf: SourceTimeFunction::Gaussian { delay: 0.15, sigma: 0.04 },
        }]);
    cfg.options.attenuation = false;
    cfg
}

/// The quickstart run, with every optional subsystem switched on, must
/// populate metrics from all four instrumented layers: the step driver,
/// the compression codecs, checkpoint I/O, and (below, in the multirank
/// test) the halo fabric.
#[test]
fn quickstart_emits_metrics_for_every_phase() {
    let dir = std::env::temp_dir().join(format!("swquake_telemetry_phase_{}", std::process::id()));
    let telemetry = Telemetry::enabled();
    let mut cfg = quickstart_config(10)
        .with_compression(true)
        .with_telemetry(telemetry.clone())
        .with_checkpoint_dir(&dir)
        .with_checkpoint_interval(5);
    cfg.options.nonlinear = true;
    let model = HalfspaceModel::hard_rock();
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    sim.run(cfg.steps);
    std::fs::remove_dir_all(&dir).ok();

    let report = sim.metrics();
    // Step driver: one timer per kernel phase, plus per-step series.
    for phase in [
        "step",
        "step.free_surface",
        "step.velocity",
        "step.stress",
        "step.source",
        "step.plasticity",
        "step.compression",
        "step.record",
    ] {
        let t = report.timer(phase).unwrap_or_else(|| panic!("missing timer {phase}"));
        assert!(t.calls > 0, "{phase} never fired");
    }
    // A nonlinear step has no standalone sponge pass: the return-mapping
    // walk (`step.plasticity`) tapers the wavefields as it stores them.
    assert!(report.timer("step.sponge").is_none(), "a nonlinear step grew a sponge pass");
    assert_eq!(report.series("step.wall_s").expect("step.wall_s series").pushed, 10);

    // Compression codecs.
    // One round-trip pass per step; there is no separate encode or
    // decode pass to time.
    assert_eq!(report.timer("compress.roundtrip").expect("round-trip timer").calls, 10);
    assert!(report.timer("compress.encode").is_none() && report.timer("compress.decode").is_none());
    assert!(report.gauge("compress.max_roundtrip_error").is_some());

    // Checkpoint I/O (interval 5 over 10 steps -> 2 checkpoints).
    assert_eq!(report.counter("io.checkpoints"), Some(2));
    assert!(report.counter("io.checkpoint_bytes").expect("checkpoint bytes") > 0);
    assert_eq!(report.timer("step.checkpoint").expect("checkpoint phase").calls, 2);

    // Both the simulation accessor and the shared handle see one store.
    assert_eq!(telemetry.report(), report);
}

/// With a durable store, the step thread's share of a generation
/// (`step.checkpoint`: encode + any wait), the time it spent blocked on
/// the writer (`io.checkpoint_wait`) and the writer thread's own wall
/// (`io.checkpoint_write`) are three separate numbers, complete when
/// `run` returns.
#[test]
fn durable_checkpoints_time_the_step_thread_and_the_writer_separately() {
    let dir = std::env::temp_dir().join(format!("swquake_telemetry_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = Telemetry::enabled();
    let cfg = quickstart_config(10)
        .with_telemetry(telemetry.clone())
        .with_checkpoint_interval(5)
        .with_checkpoint_dir(&dir);
    let model = HalfspaceModel::hard_rock();
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    sim.run(cfg.steps);

    let report = sim.metrics();
    assert_eq!(report.counter("io.checkpoints"), Some(2));
    assert_eq!(report.counter("io.checkpoint_generations"), Some(2));
    assert_eq!(report.counter("io.checkpoint_failures"), None);
    let disk = report.counter("io.checkpoint_disk_bytes").expect("disk bytes");
    assert!(disk > 0 && disk < report.counter("io.checkpoint_bytes").unwrap());
    let step_thread = report.timer("step.checkpoint").expect("checkpoint phase");
    let wait = report.timer("io.checkpoint_wait").expect("wait timer");
    let write = report.timer("io.checkpoint_write").expect("write timer");
    assert_eq!(step_thread.calls, 2);
    assert_eq!(write.calls, 2, "one writer wall per generation, folded in at its join");
    assert!(write.total_s > 0.0);
    // One wait per hand-over plus the join when `run` returned.
    assert_eq!(wait.calls, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A multi-rank run must report per-rank halo pack/wait/unpack timings
/// and fabric byte counts.
#[test]
fn multirank_run_reports_halo_fabric_metrics() {
    let telemetry = Telemetry::enabled();
    let cfg = quickstart_config(6).with_telemetry(telemetry.clone());
    let model = HalfspaceModel::hard_rock();
    let out = run_multirank(&model, &cfg, RankGrid::new(2, 1)).expect("valid config");
    assert!(out.flops > 0.0);

    let report = telemetry.report();
    for rank in 0..2 {
        for stage in ["pack", "wait", "unpack"] {
            let name = format!("halo.{stage}.rank{rank}");
            assert!(report.timer(&name).is_some(), "missing {name}");
        }
        assert!(report.counter(&format!("halo.bytes_sent.rank{rank}")).expect("rank bytes") > 0);
    }
    let total: u64 =
        (0..2).map(|r| report.counter(&format!("halo.bytes_sent.rank{r}")).unwrap()).sum();
    assert_eq!(report.counter("halo.bytes_sent"), Some(total));
}

/// What a step costs is the perf ledger's alone: its counts are one
/// step's rows times the steps the simulation ran — not its step count,
/// which a restore rewinds — and its flops are the run's flop total. A
/// 2×2 grid's ranks add their local meshes' rows up to the single
/// rank's cells and flops, plus a halo row.
#[test]
fn ledger_counts_are_the_step_rows_times_the_steps_run() {
    let model = HalfspaceModel::hard_rock();
    let mut cfg = quickstart_config(7).with_perf(Arc::new(PerfRecorder::new()));
    cfg.options.nonlinear = true;
    let counts = |ledger: &PerfLedger| -> Vec<(String, u64, f64, u64)> {
        let rows = ledger.kernels.iter().filter(|k| k.name != "halo");
        rows.map(|k| (k.name.clone(), k.cells, k.flops, k.dma_bytes)).collect()
    };

    // One step's rows, from a one-step run.
    let mut one = Simulation::new(&model, &cfg.clone().with_perf(Arc::new(PerfRecorder::new())))
        .expect("valid config");
    one.run(1);
    let per_step = counts(&one.perf_ledger().expect("recorder armed"));
    assert_eq!(one.flops.flops, per_step.iter().map(|r| r.2).sum::<f64>());
    let times = |n: u64| -> Vec<(String, u64, f64, u64)> {
        per_step.iter().map(|(k, c, f, b)| (k.clone(), c * n, f * n as f64, b * n)).collect()
    };

    // Seven steps, then a restore to step 3 and four more: the ledger
    // counts the eleven steps run; the flop total is that of step 7.
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    sim.run(3);
    let at_three = sim.make_checkpoint();
    sim.run(4);
    let seven_steps = sim.flops.flops;
    assert_eq!(counts(&sim.perf_ledger().unwrap()), times(7));
    sim.restore(&at_three).expect("same mesh");
    sim.run(4);
    assert_eq!(sim.step_count, 7);
    assert_eq!(counts(&sim.perf_ledger().unwrap()), times(11));
    assert_eq!(sim.flops.flops, seven_steps);

    let grid = RankGrid::new(2, 2);
    let cfg = cfg.with_perf(Arc::new(PerfRecorder::new()));
    let out = run_multirank(&model, &cfg, grid).expect("valid config");
    let ledger = out.ledger.expect("recorder armed");
    assert_eq!(counts(&ledger).len(), per_step.len(), "2x2 ranks: {ledger:?}");
    // Each rank truncates its modeled bytes: ±1 byte per rank per step.
    for (got, want) in counts(&ledger).iter().zip(times(7)) {
        assert_eq!((&got.0, got.1, got.2), (&want.0, want.1, want.2), "2x2 ranks");
        assert!(got.3.abs_diff(want.3) <= 4 * 7, "2x2 ranks: {got:?} against {want:?}");
    }
    assert!(ledger.kernel("halo").is_some_and(|h| h.cells > 0));
    assert_eq!(out.flops, seven_steps);
}

/// The JSON report must survive a serialize/deserialize round trip
/// unchanged — the schema is a contract for external tooling.
#[test]
fn report_json_round_trips_through_stable_schema() {
    let telemetry = Telemetry::enabled();
    let cfg = quickstart_config(4).with_telemetry(telemetry.clone());
    let model = HalfspaceModel::hard_rock();
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    sim.run(cfg.steps);

    let report = sim.metrics();
    let json = report.to_json();
    assert!(json.contains("\"schema_version\""));
    let back = Report::from_json(&json).expect("report parses back");
    assert_eq!(back, report);
    // Stable ordering: serializing the parsed copy is byte-identical.
    assert_eq!(back.to_json(), json);
}

/// Disabling telemetry must not change one bit of the physics output:
/// seismograms and the PGV field of a plain run and an instrumented run
/// are compared exactly, with compression on so the instrumented
/// round-trip codec path is exercised too.
#[test]
fn disabled_telemetry_changes_no_output_bit() {
    let model = HalfspaceModel::hard_rock();
    let mut cfg = quickstart_config(12)
        .with_compression(true)
        .with_stations(vec![swquake::io::Station { name: "s0".into(), ix: 20, iy: 20 }]);
    cfg.options.nonlinear = true;

    let mut plain = Simulation::new(&model, &cfg).expect("valid config");
    plain.run(cfg.steps);
    let instrumented_cfg = cfg.clone().with_telemetry(Telemetry::enabled());
    let mut instrumented = Simulation::new(&model, &instrumented_cfg).expect("valid config");
    instrumented.run(cfg.steps);

    assert_eq!(plain.state.u.max_abs_diff(&instrumented.state.u), 0.0);
    assert_eq!(plain.state.xx.max_abs_diff(&instrumented.state.xx), 0.0);
    assert_eq!(plain.pgv.pgv, instrumented.pgv.pgv);
    let a = &plain.seismo.seismograms()[0].samples;
    let b = &instrumented.seismo.seismograms()[0].samples;
    assert_eq!(a, b, "station samples must match bit for bit");
    // And the plain run recorded nothing.
    assert!(plain.metrics().timers.is_empty());
}

const PINNED_NAMES: [&str; 46] = [
    "timer compress.roundtrip",
    "timer io.checkpoint_wait",
    "timer io.checkpoint_write",
    "timer step",
    "timer step.checkpoint",
    "timer step.compression",
    "timer step.free_surface",
    "timer step.plasticity",
    "timer step.record",
    "timer step.source",
    "timer step.stress",
    "timer step.velocity",
    "counter compress.codec_rebuilds",
    "counter compress.codec_reuses",
    "counter health.checks",
    "counter io.checkpoint_bytes",
    "counter io.checkpoint_disk_bytes",
    "counter io.checkpoint_generations",
    "counter io.checkpoints",
    "gauge compress.max_roundtrip_error",
    "gauge exec.lanes",
    "gauge exec.mode",
    "gauge exec.threads",
    "gauge health.compress.cumulative_rms.u",
    "gauge health.compress.cumulative_rms.v",
    "gauge health.compress.cumulative_rms.w",
    "gauge health.compress.cumulative_rms.xx",
    "gauge health.compress.cumulative_rms.xy",
    "gauge health.compress.cumulative_rms.xz",
    "gauge health.compress.cumulative_rms.yy",
    "gauge health.compress.cumulative_rms.yz",
    "gauge health.compress.cumulative_rms.zz",
    "gauge health.verdict_code",
    "series health.compress.rel_err.u",
    "series health.compress.rel_err.v",
    "series health.compress.rel_err.w",
    "series health.compress.rel_err.xx",
    "series health.compress.rel_err.xy",
    "series health.compress.rel_err.xz",
    "series health.compress.rel_err.yy",
    "series health.compress.rel_err.yz",
    "series health.compress.rel_err.zz",
    "series health.kinetic_energy",
    "series health.max_stress",
    "series health.max_velocity",
    "series step.wall_s",
];

/// What the registry no longer carries: the cost table times the steps
/// (`arch.*`), a series that pushed the same value every step, and
/// compression byte counts that were the mesh size times a constant.
/// Each has one home now — the perf ledger — or none.
const DELETED_NAMES: [&str; 5] = [
    "arch.",
    "step.flops",
    "compress.raw_bytes",
    "compress.encoded_bytes",
    "compress.achieved_ratio",
];

/// The metric names of a single-rank run are a contract (`--metrics`
/// consumers key on them): every optional subsystem on — plasticity,
/// attenuation, §6.5 compression, a durable store, the watchdog — must
/// report exactly this set. A stray `step.halo_*` phase (the halo stages
/// of the step schedule exist only on a rank grid) or a dropped
/// `step.free_surface` fails here.
#[test]
fn single_rank_metric_names_are_pinned() {
    let dir = std::env::temp_dir().join(format!("swquake_tel_names_{}", std::process::id()));
    let telemetry = Telemetry::enabled();
    let mut cfg = quickstart_config(10)
        .with_compression(true)
        .with_telemetry(telemetry.clone())
        .with_health(swquake::health::HealthConfig::default().with_stride(5))
        .with_checkpoint_interval(5)
        .with_checkpoint_dir(&dir);
    cfg.options.nonlinear = true;
    cfg.options.attenuation = true;
    let model = HalfspaceModel::hard_rock();
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    sim.run_checked(cfg.steps).expect("healthy run");
    let report = sim.metrics();
    let _ = std::fs::remove_dir_all(&dir);

    let names = |prefix: &str, names: Vec<&str>| -> Vec<String> {
        names.into_iter().map(|n| format!("{prefix} {n}")).collect()
    };
    let mut got = names("timer", report.timers.iter().map(|t| t.name.as_str()).collect());
    got.extend(names("counter", report.counters.iter().map(|c| c.name.as_str()).collect()));
    got.extend(names("gauge", report.gauges.iter().map(|g| g.name.as_str()).collect()));
    got.extend(names("series", report.series.iter().map(|s| s.name.as_str()).collect()));
    assert_eq!(got, PINNED_NAMES, "the metric name set of a single-rank run changed");
    for name in &got {
        let name = name.split_once(' ').map_or(name.as_str(), |(_, n)| n);
        assert!(!DELETED_NAMES.iter().any(|d| name.starts_with(d)), "{name} is back");
    }
}

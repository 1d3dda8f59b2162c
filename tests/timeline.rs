//! Run-timeline contract tests: the observability layer must (a) never
//! perturb the physics — instrumented runs are bit-identical to
//! uninstrumented ones — and (b) attribute injected load imbalance to
//! the rank that caused it (the `slow` fault drill the CI smoke job
//! exercises end-to-end).

use std::sync::Arc;
use swquake::core::driver::run_multirank;
use swquake::core::{SimConfig, Simulation};
use swquake::fault::FaultPlan;
use swquake::grid::Dims3;
use swquake::io::Station;
use swquake::model::LayeredModel;
use swquake::parallel::RankGrid;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};
use swquake::telemetry::timeline::{phase, TimelineRecorder, TimelineReport};

fn small_config(steps: usize) -> SimConfig {
    let dims = Dims3::new(24, 24, 14);
    let mut cfg = SimConfig::new(dims, 200.0, steps);
    cfg.options.sponge_width = 4;
    cfg.sources = vec![PointSource {
        ix: 12,
        iy: 12,
        iz: 6,
        moment: MomentTensor::explosion(1.0e13),
        stf: SourceTimeFunction::Gaussian { delay: 0.1, sigma: 0.03 },
    }];
    cfg.stations = vec![Station { name: "S".into(), ix: 6, iy: 6 }];
    cfg
}

/// A single-rank instrumented run records every compute phase on rank 0
/// and reports per-field resident memory.
#[test]
fn single_rank_run_populates_the_timeline() {
    let model = LayeredModel::north_china();
    let cfg = small_config(12);
    let rec = Arc::new(TimelineRecorder::new().with_total_steps(12));
    let cfg_tl = cfg.clone().with_timeline(Arc::clone(&rec));
    let mut sim = Simulation::new(&model, &cfg_tl).expect("valid config");
    sim.run(12);
    let rep = rec.finish();
    assert_eq!(rep.ranks, 1);
    assert_eq!(rep.steps, 12);
    assert_eq!(rep.critical_rank, 0, "only one rank to pick from");
    for name in [phase::VELOCITY, phase::STRESS, phase::FINISH] {
        let p = rep.phases.iter().find(|p| p.name == name).expect("compute phase recorded");
        assert_eq!(p.calls, vec![12], "{name} once per step");
        assert_eq!(p.skew, 0.0, "one rank cannot be skewed against itself");
    }
    assert!(
        rep.phases.iter().all(|p| p.name != phase::HALO_WAIT),
        "no halo exchange on a single rank"
    );
    // All nine wavefields plus memory variables and material tables.
    assert!(rep.memory.fields.iter().any(|f| f.name == "state.u"));
    assert!(rep.memory.fields.iter().any(|f| f.name == "state.material"));
    assert!(rep.memory.resident_bytes > 0);
    assert!(rep.memory.high_water_bytes >= rep.memory.resident_bytes);
}

/// The memory gauges are the allocation: they add up to the bytes of the
/// arrays the state lists, so a state that carries less reports less.
#[test]
fn memory_gauges_add_up_to_the_arrays_the_state_carries() {
    let model = LayeredModel::north_china();
    let gauged = |attenuation: bool, nonlinear: bool| {
        let mut cfg = small_config(1);
        cfg.options.attenuation = attenuation;
        cfg.options.nonlinear = nonlinear;
        let rec = Arc::new(TimelineRecorder::new());
        let sim = Simulation::new(&model, &cfg.with_timeline(Arc::clone(&rec))).expect("valid");
        let arrays: usize = sim.state.arrays().map(|(_, _, f)| f.resident_bytes()).sum();
        let rep = rec.finish();
        let gauges: u64 = rep.memory.fields.iter().map(|f| f.total_bytes).sum();
        assert_eq!(gauges, arrays as u64, "attenuation {attenuation} nonlinear {nonlinear}");
        assert_eq!(rep.memory.resident_bytes, gauges);
        (sim.state.arrays().count(), gauges)
    };
    let (elastic, attenuating, nonlinear) =
        (gauged(false, false), gauged(true, false), gauged(true, true));
    assert_eq!((elastic.0, attenuating.0, nonlinear.0), (13, 21, 28));
    // One padded array is the unit: 13 : 21 : 28 of them.
    assert_eq!(elastic.1 * 21, attenuating.1 * 13);
    assert_eq!(elastic.1 * 28, nonlinear.1 * 13);
    assert!(elastic.1 < nonlinear.1);
}

/// The timeline hook must be a pure observer: seismograms and PGV of an
/// instrumented run are bit-identical to the uninstrumented run, single-
/// and multi-rank.
#[test]
fn instrumented_runs_are_bit_identical() {
    let model = LayeredModel::north_china();
    let cfg = small_config(20);

    let mut plain = Simulation::new(&model, &cfg).expect("valid config");
    plain.run(cfg.steps);

    let rec = Arc::new(TimelineRecorder::new());
    let cfg_tl = cfg.clone().with_timeline(Arc::clone(&rec));
    let mut instrumented = Simulation::new(&model, &cfg_tl).expect("valid config");
    instrumented.run(cfg.steps);

    for (a, b) in plain.seismo.seismograms().iter().zip(instrumented.seismo.seismograms()) {
        assert_eq!(a.samples, b.samples, "station {} diverged", a.station.name);
    }
    assert_eq!(plain.pgv.pgv, instrumented.pgv.pgv, "single-rank PGV diverged");

    let multi_plain = run_multirank(&model, &cfg, RankGrid::new(2, 2)).expect("valid config");
    let rec_m = Arc::new(TimelineRecorder::new());
    let cfg_m = cfg.clone().with_timeline(Arc::clone(&rec_m));
    let multi_tl = run_multirank(&model, &cfg_m, RankGrid::new(2, 2)).expect("valid config");
    assert_eq!(multi_plain.pgv.pgv, multi_tl.pgv.pgv, "multirank PGV diverged");
    assert_eq!(rec_m.report().ranks, 4, "all four ranks reported");
}

/// Acceptance pin: a `slow` fault injected on one rank must surface as
/// that rank being the critical-path rank, with the stress phase (where
/// the sleep lands) skewed above any reasonable gate floor.
#[test]
fn slow_rank_is_named_critical_path() {
    let model = LayeredModel::north_china();
    let mut cfg = small_config(25);
    let plan = FaultPlan::parse("seed=1;slow@5:rank=2:frac=2.0").expect("valid plan");
    cfg = cfg.with_fault_plan(Some(Arc::new(plan)));
    let rec = Arc::new(TimelineRecorder::new().with_total_steps(25));
    cfg = cfg.with_timeline(Arc::clone(&rec));
    let out = run_multirank(&model, &cfg, RankGrid::new(2, 2)).expect("valid config");
    assert!(out.flops > 0.0);
    let rep = rec.finish();
    assert_eq!(rep.ranks, 4);
    assert_eq!(rep.critical_rank, 2, "straggler attribution picked the slowed rank");
    let stress = rep.phases.iter().find(|p| p.name == phase::STRESS).expect("stress recorded");
    assert_eq!(stress.critical_rank, 2, "the sleep lands inside the stress window");
    assert!(
        stress.skew > 0.25,
        "a 2x compute stretch over 20 of 25 steps must exceed the smoke gate, got {}",
        stress.skew
    );
    assert!(rep.phases_over(0.25).iter().any(|p| p.name == phase::STRESS));
}

/// Edge cases the aggregator must not trip on: ranks with missing
/// spans and zero-duration phases.
#[test]
fn missing_spans_and_zero_durations_are_tolerated() {
    let rec = TimelineRecorder::new();
    // rank 0 records two phases; rank 1 only one — `stress` has a
    // missing span on rank 1.
    rec.record_phase(0, phase::VELOCITY, 1.0);
    rec.record_phase(0, phase::STRESS, 2.0);
    rec.record_phase(1, phase::VELOCITY, 1.0);
    // and one phase is entirely zero-duration on every rank.
    rec.record_phase(0, phase::FINISH, 0.0);
    rec.record_phase(1, phase::FINISH, 0.0);
    let rep = rec.report();
    assert_eq!(rep.ranks, 2);
    let stress = rep.phases.iter().find(|p| p.name == phase::STRESS).unwrap();
    assert_eq!(stress.per_rank_s, vec![2.0, 0.0], "missing span reads as zero");
    assert_eq!(stress.calls, vec![1, 0]);
    assert_eq!(stress.critical_rank, 0);
    assert!((stress.skew - 2.0).abs() < 1e-12, "(2-0)/1 = 2");
    let finish = rep.phases.iter().find(|p| p.name == phase::FINISH).unwrap();
    assert_eq!(finish.skew, 0.0, "zero-duration phase cannot divide by zero");
    // The report must survive its own serialization round trip.
    let text = serde_json::to_string(&rep).unwrap();
    let back: TimelineReport = serde_json::from_str(&text).unwrap();
    assert_eq!(back.phases.len(), rep.phases.len());
}

/// A heartbeat stride longer than the run still yields at least the
/// final heartbeat line, so `run.jsonl` is never empty.
#[test]
fn stride_longer_than_run_still_emits_final_heartbeat() {
    let dir = std::env::temp_dir().join(format!("swq_tl_stride_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let model = LayeredModel::north_china();
    let cfg = small_config(5);
    let rec = TimelineRecorder::new()
        .with_total_steps(5)
        .with_stream(&dir, 1_000) // stride far beyond the 5-step run
        .expect("stream opens");
    let rec = Arc::new(rec);
    let cfg = cfg.with_timeline(Arc::clone(&rec));
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    sim.run(5);
    let rep = rec.finish();
    assert_eq!(rep.steps, 5);
    let log = std::fs::read_to_string(dir.join("run.jsonl")).expect("heartbeat log exists");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 1, "exactly the final heartbeat");
    let beat: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(beat.get("final").and_then(serde_json::Value::as_bool), Some(true));
    assert_eq!(beat.get("step").and_then(serde_json::Value::as_u64), Some(5));
    let _ = std::fs::remove_dir_all(&dir);
}

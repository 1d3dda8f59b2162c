//! End-to-end tracing coverage: an instrumented run must emit spans and
//! instant events from every subsystem into valid Chrome trace-event
//! JSON, timestamps must be monotonic within a lane, and attaching a
//! tracer must not change a single output bit of the physics.

use swquake::core::driver::run_multirank;
use swquake::core::{SimConfig, Simulation};
use swquake::grid::Dims3;
use swquake::model::HalfspaceModel;
use swquake::parallel::RankGrid;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};
use swquake::telemetry::Telemetry;
use swquake::trace::Tracer;

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

fn traced_run(steps: usize) -> Telemetry {
    let dir = std::env::temp_dir().join(format!("swquake_trace_{steps}_{}", std::process::id()));
    let telemetry = Telemetry::enabled().with_tracer(Tracer::enabled());
    telemetry.tracer().bind_lane(0, "driver");
    let mut cfg = quickstart_config(steps)
        .with_compression(true)
        .with_telemetry(telemetry.clone())
        .with_checkpoint_dir(&dir)
        .with_checkpoint_interval(3);
    cfg.options.nonlinear = true;
    let model = HalfspaceModel::hard_rock();
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    sim.run(cfg.steps);
    std::fs::remove_dir_all(&dir).ok();
    telemetry
}

/// A fully instrumented run emits stage spans, the compression round
/// trip's sub-span and checkpoint I/O instants, and the whole timeline
/// exports as well-formed Chrome trace-event JSON. It carries what the
/// run measured and nothing else: the modeled SW26010 charges are
/// constants of the mesh (the perf ledger's), and so are a round trip's
/// byte counts — not events to repeat every step.
#[test]
fn traced_run_exports_valid_chrome_json_with_all_subsystems() {
    let telemetry = traced_run(6);
    let json = telemetry.tracer().to_chrome_json();
    let doc: serde_json::Value = serde_json::from_str(&json).expect("trace JSON parses");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
    assert_eq!(doc["otherData"]["droppedEvents"].as_f64(), Some(0.0));

    // Every event carries the Chrome-required fields.
    for e in events {
        for key in ["name", "ph", "pid", "tid"] {
            assert!(!e[key].is_null(), "event missing {key}: {e:?}");
        }
        match e["ph"].as_str().unwrap() {
            "X" => {
                assert!(e["ts"].as_f64().is_some() && e["dur"].as_f64().is_some(), "{e:?}")
            }
            "i" => assert_eq!(e["s"].as_str(), Some("t"), "{e:?}"),
            "M" => {}
            other => panic!("unexpected phase {other}"),
        }
    }

    let names: Vec<&str> = events.iter().filter_map(|e| e["name"].as_str()).collect();
    // Driver stage spans, the round-trip sub-span, I/O instants.
    for expected in [
        "step",
        "step.free_surface",
        "step.velocity",
        "step.stress",
        "step.source",
        "step.plasticity",
        "step.compression",
        "step.record",
        "step.checkpoint",
        "compress.roundtrip",
        "io.checkpoint",
    ] {
        assert!(names.contains(&expected), "trace missing {expected}");
    }
    assert!(!names.iter().any(|n| n.starts_with("arch.")), "modeled constants in the trace");
    // The nonlinear step tapers inside the return-mapping walk: no
    // standalone sponge span.
    assert!(!names.contains(&"step.sponge"), "a nonlinear step grew a sponge pass");
    let instant = |e: &&serde_json::Value| e["ph"] == "i" && e["name"] == "compress.roundtrip";
    assert!(!events.iter().any(|e| instant(&e)), "a constant round-trip instant per step");
    // One span per stage per step, all on the driver's lane.
    let on_driver = |name: &str| {
        events.iter().filter(|e| e["name"].as_str() == Some(name) && e["ph"] == "X").count()
    };
    assert_eq!(on_driver("step"), 6);
    assert_eq!(on_driver("step.velocity"), 6);
    // One free-surface image per step: the stress rows at the head of
    // the velocity half (`dvelc` images `w` as it stores it).
    assert_eq!(on_driver("step.free_surface"), 6);
    assert_eq!(on_driver("step.checkpoint"), 2);
    let lanes = telemetry.tracer().lanes();
    assert_eq!(lanes.len(), 1, "a single-rank run records on one lane");
    assert_eq!(lanes[0].0.name, "driver");
    // Every span is the interval its stage was timed over, so a stage
    // sits inside its step on the timeline exactly as it did in time.
    let recorded = &lanes[0].1;
    let steps: Vec<_> = recorded.iter().filter(|e| e.name == "step").collect();
    for stage in recorded.iter().filter(|e| e.name.starts_with("step.")) {
        let end = stage.ts_us + stage.dur_us;
        let inside = steps.iter().any(|s| s.ts_us <= stage.ts_us && end <= s.ts_us + s.dur_us);
        assert!(inside, "{} at {} us is outside every step span", stage.name, stage.ts_us);
    }
}

/// Within each (pid, tid) lane of the exported JSON, timestamps are
/// sorted — a hard requirement for sensible rendering in Perfetto.
#[test]
fn exported_events_are_monotonic_within_each_lane() {
    let telemetry = traced_run(4);
    let json = telemetry.tracer().to_chrome_json();
    let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    let mut last: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
    let mut data_events = 0;
    for e in doc["traceEvents"].as_array().unwrap() {
        if e["ph"].as_str() == Some("M") {
            continue;
        }
        data_events += 1;
        let lane = (e["pid"].as_f64().unwrap() as u64, e["tid"].as_f64().unwrap() as u64);
        let ts = e["ts"].as_f64().unwrap();
        assert!(ts >= 0.0);
        if let Some(prev) = last.insert(lane, ts) {
            assert!(ts >= prev, "lane {lane:?} went backwards: {prev} -> {ts}");
        }
    }
    assert!(data_events > 0);
}

/// A multi-rank run traces the halo fabric: each rank binds its own
/// lane and emits `halo.send` / `halo.recv` instants with byte counts.
#[test]
fn multirank_trace_has_per_rank_lanes_and_halo_events() {
    let telemetry = Telemetry::enabled().with_tracer(Tracer::enabled());
    let cfg = quickstart_config(4).with_telemetry(telemetry.clone());
    let model = HalfspaceModel::hard_rock();
    run_multirank(&model, &cfg, RankGrid::new(2, 1)).expect("valid config");

    let lanes = telemetry.tracer().lanes();
    let lane_names: Vec<String> = lanes.iter().map(|(info, _)| info.name.clone()).collect();
    for rank in 0..2 {
        let name = format!("rank{rank}");
        assert!(lane_names.contains(&name), "missing lane {name} in {lane_names:?}");
    }
    let rank_events: Vec<&str> = lanes
        .iter()
        .filter(|(info, _)| info.name.starts_with("rank"))
        .flat_map(|(_, events)| events.iter().map(|e| e.name.as_str()))
        .collect();
    assert!(rank_events.contains(&"halo.send"), "no halo.send in {rank_events:?}");
    assert!(rank_events.contains(&"halo.recv"), "no halo.recv in {rank_events:?}");
    let send =
        lanes.iter().flat_map(|(_, events)| events.iter()).find(|e| e.name == "halo.send").unwrap();
    assert!(send.args.iter().any(|(k, v)| k == "bytes" && *v > 0.0));
}

/// Attaching a tracer must not change one bit of the physics output:
/// wave fields, PGV, and seismograms of a traced and an untraced run
/// are compared exactly.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let model = HalfspaceModel::hard_rock();
    let mut cfg = quickstart_config(8)
        .with_compression(true)
        .with_stations(vec![swquake::io::Station { name: "s0".into(), ix: 20, iy: 20 }]);
    cfg.options.nonlinear = true;

    let mut plain = Simulation::new(&model, &cfg).expect("valid config");
    plain.run(cfg.steps);

    let telemetry = Telemetry::enabled().with_tracer(Tracer::enabled());
    telemetry.tracer().bind_lane(0, "driver");
    let traced_cfg = cfg.clone().with_telemetry(telemetry.clone());
    let mut traced = Simulation::new(&model, &traced_cfg).expect("valid config");
    traced.run(cfg.steps);

    assert_eq!(plain.state.u.max_abs_diff(&traced.state.u), 0.0);
    assert_eq!(plain.state.v.max_abs_diff(&traced.state.v), 0.0);
    assert_eq!(plain.state.xx.max_abs_diff(&traced.state.xx), 0.0);
    assert_eq!(plain.pgv.pgv, traced.pgv.pgv);
    assert_eq!(
        plain.seismo.seismograms()[0].samples,
        traced.seismo.seismograms()[0].samples,
        "station samples must match bit for bit"
    );
    // And the traced run actually recorded a timeline.
    assert!(telemetry.tracer().lanes().iter().any(|(_, events)| !events.is_empty()));
}

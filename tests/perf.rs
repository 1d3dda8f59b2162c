//! The per-kernel performance ledger contract:
//!
//! * the ledger's **counts** (cells, flops, modeled DMA bytes) are a
//!   property of the physics configuration, identical between serial
//!   and parallel execution — only wall times may differ;
//! * arming the recorder is observationally free: an instrumented run
//!   is bit-identical to an uninstrumented one on every physics output;
//! * every production-step kernel reports non-zero throughput and a
//!   non-zero achieved-vs-roofline fraction;
//! * `swquake inspect --diff` gates a seeded per-kernel regression and
//!   `swquake inspect` flags kernels below `--min-fraction`;
//! * `swquake run --obs` writes the ledger into its bundle — on a rank
//!   grid too, where the counts are the single-rank run's plus the halo
//!   traffic.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use swquake::core::{ExecMode, SimConfig, Simulation};
use swquake::grid::simd::LaneTier;
use swquake::grid::Dims3;
use swquake::io::Station;
use swquake::model::LayeredModel;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};
use swquake::telemetry::perf::{PerfLedger, PerfRecorder, PERF_SCHEMA_VERSION};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swquake")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swquake_perf_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Pin a real pool so `Parallel` genuinely fans out (idempotent; shared
/// by every test in this binary).
fn pin_pool() {
    rayon::ThreadPoolBuilder::new().num_threads(4).build_global().ok();
}

/// Every production feature on at once, as the run cases of
/// `tests/matrix/` have them, with the §6.5 round trip.
fn production_config() -> SimConfig {
    let dims = Dims3::new(30, 28, 16);
    let mut cfg = SimConfig::new(dims, 150.0, 60).with_compression(true);
    cfg.options.sponge_width = 5;
    cfg.options.attenuation = true;
    cfg.options.nonlinear = true;
    let moment = MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14);
    let stf = SourceTimeFunction::Triangle { onset: 0.05, duration: 0.5 };
    cfg.sources = vec![
        PointSource { ix: 14, iy: 13, iz: 8, moment, stf },
        PointSource { ix: 15, iy: 14, iz: 5, moment, stf },
    ];
    cfg.stations = vec![Station { name: "A".into(), ix: 5, iy: 5 }];
    cfg
}

fn run_with_perf(cfg: &SimConfig, exec: ExecMode) -> (Simulation, PerfLedger) {
    let model = LayeredModel::north_china();
    let recorder = Arc::new(PerfRecorder::new());
    let cfg = cfg.clone().with_exec(exec).with_perf(Arc::clone(&recorder));
    let mut sim = Simulation::new(&model, &cfg).expect("valid config");
    sim.run(cfg.steps);
    let ledger = sim.perf_ledger().expect("recorder armed");
    (sim, ledger)
}

/// The ledger's cell/flop/byte counts are execution-mode-independent:
/// serial and parallel runs of the same configuration charge identical
/// work, kernel by kernel (wall times are the only thing allowed to
/// differ).
#[test]
fn serial_and_parallel_ledgers_agree_on_counts() {
    pin_pool();
    let cfg = production_config();
    let (_, serial) = run_with_perf(&cfg, ExecMode::Serial);
    let (_, parallel) = run_with_perf(&cfg, ExecMode::Parallel);
    assert_eq!(serial.steps, parallel.steps);
    assert_eq!(serial.grid_cells, parallel.grid_cells);
    assert_eq!(serial.kernels.len(), parallel.kernels.len());
    for (s, p) in serial.kernels.iter().zip(&parallel.kernels) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.calls, p.calls, "{}: calls differ across exec modes", s.name);
        assert_eq!(s.cells, p.cells, "{}: cells differ across exec modes", s.name);
        assert_eq!(s.flops, p.flops, "{}: flops differ across exec modes", s.name);
        assert_eq!(s.dma_bytes, p.dma_bytes, "{}: DMA bytes differ across exec modes", s.name);
    }
}

/// Arming the recorder must not perturb the physics: an instrumented
/// run bit-matches an uninstrumented one on every field and seismogram.
#[test]
fn instrumented_run_is_bit_identical_to_uninstrumented() {
    pin_pool();
    let cfg = production_config();
    let model = LayeredModel::north_china();
    let mut plain = Simulation::new(&model, &cfg).expect("valid config");
    plain.run(cfg.steps);
    let (instrumented, _) = run_with_perf(&cfg, ExecMode::Auto);
    assert_eq!(plain.state.u.max_abs_diff(&instrumented.state.u), 0.0, "u differs");
    assert_eq!(plain.state.v.max_abs_diff(&instrumented.state.v), 0.0, "v differs");
    assert_eq!(plain.state.w.max_abs_diff(&instrumented.state.w), 0.0, "w differs");
    assert_eq!(plain.state.xx.max_abs_diff(&instrumented.state.xx), 0.0, "xx differs");
    assert_eq!(plain.state.eqp.max_abs_diff(&instrumented.state.eqp), 0.0, "eqp differs");
    for (sa, sb) in plain.seismo.seismograms().iter().zip(instrumented.seismo.seismograms()) {
        assert_eq!(sa.samples, sb.samples, "station {} differs", sa.station.name);
    }
}

/// Acceptance shape of one ledger: schema v1, wall/percentile fields
/// populated, and non-zero cells/s, GFLOP/s and roofline fraction for
/// every modeled production-step kernel.
#[test]
fn ledger_reports_nonzero_rates_for_every_production_kernel() {
    pin_pool();
    let cfg = production_config();
    let (_, ledger) = run_with_perf(&cfg, ExecMode::Parallel);
    assert_eq!(ledger.schema_version, PERF_SCHEMA_VERSION);
    assert_eq!(ledger.steps, 60);
    assert_eq!(ledger.grid_cells, (30 * 28 * 16) as u64);
    assert!(ledger.wall_s > 0.0);
    assert!(ledger.step_p50_s > 0.0);
    assert!(ledger.step_p95_s >= ledger.step_p50_s);
    // The ledger says which machine code ran: the pool path at this
    // host's lane tier.
    assert_eq!(ledger.exec_mode.as_deref(), Some("parallel"));
    assert_eq!(ledger.features.as_deref(), Some(LaneTier::detected().name()));
    for name in ["fstr", "dvelc", "dstrqc", "attenuation", "drprecpc"] {
        let k = ledger.kernel(name).unwrap_or_else(|| panic!("kernel `{name}` missing"));
        assert!(k.wall_s > 0.0, "{name}: zero wall time");
        assert!(k.cells_per_s > 0.0, "{name}: zero cells/s");
        assert!(k.gflops_per_s > 0.0, "{name}: zero GFLOP/s");
        assert!(k.roofline_fraction > 0.0, "{name}: zero roofline fraction");
    }
    // A nonlinear step runs no standalone sponge pass: the taper rides
    // `dstrqc`'s store of the memory variables and the return-mapping
    // walk's of the wavefields, and their rows count its multiplies.
    assert!(ledger.kernel("sponge").is_none(), "a nonlinear step grew a sponge pass");
    // Compression moves bytes, not flops; its bandwidth and modeled
    // fraction must still be non-zero.
    let c = ledger.kernel("compression").expect("compression kernel");
    assert!(c.cells_per_s > 0.0);
    assert!(c.gb_per_s > 0.0);
    assert!(c.roofline_fraction > 0.0);
}

/// `inspect --diff` end to end: a ledger diffed against itself passes (exit
/// 0); seeding a 10× slowdown into one kernel fails the gate (exit 1).
#[test]
fn perf_diff_cli_gates_a_seeded_regression() {
    pin_pool();
    let dir = workdir("diff");
    let cfg = production_config();
    let (_, ledger) = run_with_perf(&cfg, ExecMode::Parallel);
    let old = dir.join("old_perf.json");
    let new = dir.join("new_perf.json");
    ledger.write_file(&old).unwrap();
    ledger.write_file(&new).unwrap();
    let out = Command::new(bin())
        .args(["inspect", "--diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "identical ledgers must pass; stdout: {stdout}");
    // Each side says how it ran, so ledgers from two tiers are never
    // compared silently.
    let stamps = format!("exec: parallel  lanes: {}", LaneTier::detected());
    for side in ["baseline:", "candidate:"] {
        let echoed = stdout.lines().any(|l| l.starts_with(side) && l.contains(&stamps));
        assert!(echoed, "no `{side} {stamps}` line in: {stdout}");
    }

    // Seed the regression: dvelc takes 10× the wall time.
    let mut slowed = ledger.clone();
    let k = slowed.kernels.iter_mut().find(|k| k.name == "dvelc").expect("dvelc present");
    k.wall_s *= 10.0;
    slowed.write_file(&new).unwrap();
    let out = Command::new(bin())
        .args(["inspect", "--diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .args(["--tolerance", "0.5"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded slowdown must gate; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "stdout: {stdout}");
    assert!(stdout.contains("dvelc"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `inspect` renders the table (exit 0 with the default
/// never-flagging threshold) and exits 1 when a kernel sits below
/// `--min-fraction` of its modeled roofline.
#[test]
fn perf_report_cli_flags_kernels_below_min_fraction() {
    pin_pool();
    let dir = workdir("report");
    let cfg = production_config();
    let (_, ledger) = run_with_perf(&cfg, ExecMode::Parallel);
    let path = dir.join("perf.json");
    ledger.write_file(&path).unwrap();
    let out = Command::new(bin()).args(["inspect", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "default threshold never flags");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dvelc") && stdout.contains("roofline"), "stdout: {stdout}");
    let lanes = format!("lanes: {}", LaneTier::detected());
    assert!(stdout.contains(&lanes), "no `{lanes}` in the header: {stdout}");

    // Pin the fractions low so the threshold verdict is deterministic.
    let mut low = ledger.clone();
    for k in &mut low.kernels {
        if k.roofline_fraction > 0.0 {
            k.roofline_fraction = 0.01;
        }
    }
    low.write_file(&path).unwrap();
    let out = Command::new(bin())
        .args(["inspect", path.to_str().unwrap(), "--min-fraction", "0.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "kernels below the floor must flag");
    assert!(String::from_utf8_lossy(&out.stdout).contains("LOW"));

    // Garbage input is a usage error.
    std::fs::write(&path, "{ not json").unwrap();
    let out = Command::new(bin()).args(["inspect", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// The example scenario shrunk to 20x20x12 and half a second, outputs
/// under `dir`.
fn small_scenario(dir: &std::path::Path) -> PathBuf {
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
    scenario
}

/// `swquake run --obs d` writes the ledger into the bundle next to the
/// other reports, and `inspect d` renders it with the timeline.
#[test]
fn run_obs_writes_the_ledger_into_the_bundle() {
    let dir = workdir("run");
    let scenario = small_scenario(&dir);
    let obs = dir.join("obs");
    let out = Command::new(bin())
        .args(["run", scenario.to_str().unwrap(), "--obs", obs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote bundle"));
    let ledger = PerfLedger::read_file(&obs.join("perf.json")).unwrap().unwrap();
    assert_eq!(ledger.schema_version, PERF_SCHEMA_VERSION);
    let dvelc = ledger.kernel("dvelc").expect("dvelc in the ledger");
    assert!(dvelc.cells_per_s > 0.0);
    assert!(dvelc.roofline_fraction > 0.0);
    assert!(!dir.join("perf_history.jsonl").exists(), "no history file beside the bundle");

    let out = Command::new(bin()).arg("inspect").arg(&obs).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dvelc") && stdout.contains("critical rank"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A rank grid's bundle: the grid's ledger is frozen at the merge, its
/// counts summed over the ranks' local meshes — so row by row the
/// single-rank run's, plus a `halo` row — and each row's wall the slowest
/// rank's, so no row outlasts the run. `inspect` renders it.
#[test]
fn a_rank_grid_writes_the_single_rank_ledger_plus_a_halo_row() {
    let dir = workdir("ranks");
    let scenario = small_scenario(&dir);
    let ledger_of = |name: &str, ranks: &[&str]| -> PerfLedger {
        let obs = dir.join(name);
        let out = Command::new(bin())
            .args(["run", scenario.to_str().unwrap(), "--obs", obs.to_str().unwrap()])
            .args(ranks)
            .output()
            .unwrap();
        assert!(out.status.success(), "{ranks:?}: {}", String::from_utf8_lossy(&out.stderr));
        PerfLedger::read_file(&obs.join("perf.json")).unwrap().unwrap()
    };
    let single = ledger_of("single", &[]);
    let grid = ledger_of("grid", &["--ranks", "2x1"]);
    assert_eq!((grid.steps, grid.grid_cells), (single.steps, single.grid_cells));
    let rows = |l: &PerfLedger| l.kernels.iter().map(|k| k.name.clone()).collect::<Vec<_>>();
    let mut with_halo = rows(&single);
    with_halo.insert(with_halo.iter().position(|n| n == "sponge").unwrap() + 1, "halo".into());
    assert_eq!(rows(&grid), with_halo);
    for k in &single.kernels {
        let g = grid.kernel(&k.name).unwrap();
        assert_eq!((g.cells, g.flops), (k.cells, k.flops), "{}", k.name);
        // Each rank truncates its own share of the modeled bytes per step.
        let slack = 2 * single.steps;
        assert!(g.dma_bytes.abs_diff(k.dma_bytes) <= slack, "{}: {g:?} vs {k:?}", k.name);
        assert_eq!(g.roofline_fraction > 0.0, k.roofline_fraction > 0.0, "{}", k.name);
    }
    // 2x1: each rank sends one 2-wide x-face of 20x12 cells, 9 fields.
    let halo = grid.kernel("halo").unwrap();
    assert_eq!(halo.cells, 2 * 2 * 20 * 12 * grid.steps);
    assert_eq!(halo.dma_bytes, halo.cells * 9 * 4);
    assert_eq!(halo.calls, 2 * grid.steps, "two exchanges a step, on the slowest rank");
    for k in &grid.kernels {
        assert!(k.wall_s <= grid.wall_s, "{} outlasts the run: {k:?}", k.name);
    }
    let out =
        Command::new(bin()).args(["inspect", dir.join("grid").to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("halo") && stdout.contains("unmodeled"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

//! The execution-mode contract: `ExecMode::Parallel` (x-planes handed to
//! the Rayon CPE-pool analogue) must be **bit-identical** to
//! `ExecMode::Serial` (planes walked on the calling thread) on the full
//! production feature set — nonlinear plasticity, attenuation, Cerjan
//! sponge, and the §6.5 compression round trip — on the single-rank path,
//! under the 2×2 rank decomposition, and across checkpoint/restore in
//! either direction — and the same bits again under the baseline lane cap
//! and every wider lane tier the host offers (`sw_grid::simd`). That is
//! the property that lets mode, and the CPU a run lands on, be a pure
//! performance choice.

use swquake::core::driver::run_multirank;
use swquake::core::{ExecMode, ExecPath, SimConfig, Simulation};
use swquake::grid::simd::{cap_lanes, per_tier, LaneTier};
use swquake::grid::Dims3;
use swquake::health::budget::{BudgetTracker, CompressionSample};
use swquake::health::HealthConfig;
use swquake::io::Station;
use swquake::model::LayeredModel;
use swquake::parallel::RankGrid;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};

/// Pin a real pool so `Parallel` genuinely fans out (idempotent; shared
/// by every test in this binary).
fn pin_pool() {
    rayon::ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
}

/// Every production feature on at once, with sources near rank seams.
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
        PointSource { ix: 1, iy: 26, iz: 10, moment, stf },
    ];
    cfg.stations = vec![
        Station { name: "A".into(), ix: 5, iy: 5 },
        Station { name: "B".into(), ix: 15, iy: 14 }, // on the 2x2 rank seam
        Station { name: "C".into(), ix: 28, iy: 3 },
    ];
    cfg
}

fn run_mode(cfg: &SimConfig, exec: ExecMode) -> Simulation {
    let model = LayeredModel::north_china();
    let mut sim = Simulation::new(&model, &cfg.clone().with_exec(exec)).expect("valid config");
    sim.run(cfg.steps);
    sim
}

fn assert_states_identical(a: &Simulation, b: &Simulation) {
    assert_eq!(a.state.u.max_abs_diff(&b.state.u), 0.0, "u differs");
    assert_eq!(a.state.v.max_abs_diff(&b.state.v), 0.0, "v differs");
    assert_eq!(a.state.w.max_abs_diff(&b.state.w), 0.0, "w differs");
    assert_eq!(a.state.xx.max_abs_diff(&b.state.xx), 0.0, "xx differs");
    assert_eq!(a.state.yz.max_abs_diff(&b.state.yz), 0.0, "yz differs");
    assert_eq!(a.state.eqp.max_abs_diff(&b.state.eqp), 0.0, "eqp differs");
    for (i, (ra, rb)) in a.state.r.iter().zip(b.state.r.iter()).enumerate() {
        assert_eq!(ra.max_abs_diff(rb), 0.0, "r{} differs", i + 1);
    }
    for (sa, sb) in a.seismo.seismograms().iter().zip(b.seismo.seismograms()) {
        assert_eq!(sa.samples, sb.samples, "station {} differs", sa.station.name);
    }
}

/// Single rank: the parallel step pipeline (free surface, velocity,
/// stress, plasticity, sponge, compression) bit-matches the serial one
/// over a 60-step nonlinear run — at every lane tier, and every tier
/// matches the baseline.
#[test]
fn parallel_matches_serial_single_rank() {
    pin_pool();
    let cfg = production_config();
    let runs = per_tier(|_| (run_mode(&cfg, ExecMode::Serial), run_mode(&cfg, ExecMode::Parallel)));
    let (_, (baseline, _)) = &runs[0];
    assert!(!baseline.state.has_blown_up());
    for (tier, (serial, parallel)) in &runs {
        println!("lanes {tier}");
        assert_states_identical(baseline, serial);
        assert_states_identical(serial, parallel);
    }
}

/// 2×2 ranks, each rank fanning its kernels out over the shared pool:
/// still bit-identical to the serial single-rank run. Compression uses
/// globally-collected statistics so every rank derives the same codec
/// a single-rank run would (per-rank self-calibration is the one thing
/// that legitimately depends on the decomposition).
#[test]
fn parallel_matches_serial_across_2x2_ranks() {
    pin_pool();
    let model = LayeredModel::north_china();
    let mut cfg = production_config();
    let stats = {
        let mut probe = Simulation::new(&model, &cfg).expect("valid config");
        probe.run(20);
        probe.collect_stats()
    };
    cfg.compression_stats = stats;

    let serial_single = run_mode(&cfg, ExecMode::Serial);
    let mut runs = vec![(ExecMode::Serial, None)];
    runs.extend(LaneTier::available().map(|tier| (ExecMode::Parallel, Some(tier))));
    for (exec, cap) in runs {
        let _cap = cap.map(cap_lanes);
        let multi = run_multirank(&model, &cfg.clone().with_exec(exec), RankGrid::new(2, 2))
            .expect("valid config");
        for s in serial_single.seismo.seismograms() {
            let m = multi
                .seismograms
                .iter()
                .find(|m| m.station.name == s.station.name)
                .expect("station recorded");
            assert_eq!(s.samples, m.samples, "station {} differs under {exec}", s.station.name);
        }
        let d = cfg.dims;
        for x in 0..d.nx {
            for y in 0..d.ny {
                assert_eq!(
                    serial_single.pgv.at(x, y),
                    multi.pgv.at(x, y),
                    "PGV differs at ({x},{y}) under {exec}"
                );
            }
        }
    }
}

/// The kinetic-energy probe is a deterministic reduction: the parallel
/// variant folds per-x-plane partials in plane order, so it bit-matches
/// the serial sum for any thread count. This is what lets a health
/// record be compared across exec modes (and across reruns) with `==`.
#[test]
fn kinetic_energy_reduction_is_bitwise_deterministic() {
    pin_pool();
    let cfg = production_config();
    let sim = run_mode(&cfg, ExecMode::Serial);
    let serial = sim.state.kinetic_energy();
    let parallel = sim.state.kinetic_energy_par();
    assert!(serial > 0.0, "wavefield carries energy after 60 steps");
    assert_eq!(serial.to_bits(), parallel.to_bits(), "{serial} vs {parallel}");
}

/// Health records — field maxima, NaN/Inf counts, kinetic energy,
/// verdicts, and the compression-budget ledger — are bit-identical
/// between serial and parallel execution of the same run.
#[test]
fn health_records_are_identical_across_exec_modes() {
    pin_pool();
    let cfg = production_config().with_health(HealthConfig::default().with_stride(5));
    let serial = run_mode(&cfg, ExecMode::Serial);
    let parallel = run_mode(&cfg, ExecMode::Parallel);
    assert_states_identical(&serial, &parallel);

    let sr = serial.health().expect("monitor attached");
    let pr = parallel.health().expect("monitor attached");
    assert_eq!(sr.records.len(), 12, "60 steps / stride 5");
    assert_eq!(sr.records, pr.records);
    assert_eq!(sr.checks, pr.checks);
    assert_eq!(sr.warnings, pr.warnings);
    assert_eq!(sr.budget, pr.budget);
}

/// Checkpoints cross execution modes transparently: a run checkpointed
/// in one mode and resumed in the other bit-matches an uninterrupted
/// serial run, in both directions.
#[test]
fn checkpoint_restore_is_mode_agnostic() {
    pin_pool();
    let model = LayeredModel::north_china();
    let cfg = production_config();
    let reference = run_mode(&cfg, ExecMode::Serial);

    for (first_exec, second_exec) in
        [(ExecMode::Serial, ExecMode::Parallel), (ExecMode::Parallel, ExecMode::Serial)]
    {
        let mut first =
            Simulation::new(&model, &cfg.clone().with_exec(first_exec)).expect("valid config");
        first.run(30);
        let ckpt = first.make_checkpoint();

        let mut second =
            Simulation::new(&model, &cfg.clone().with_exec(second_exec)).expect("valid config");
        second.restore(&ckpt).expect("matching checkpoint");
        second.run(30);

        assert_eq!(
            reference.state.u.max_abs_diff(&second.state.u),
            0.0,
            "u differs after {first_exec} -> {second_exec} restore"
        );
        assert_eq!(
            reference.state.xx.max_abs_diff(&second.state.xx),
            0.0,
            "xx differs after {first_exec} -> {second_exec} restore"
        );
        assert_eq!(
            reference.state.eqp.max_abs_diff(&second.state.eqp),
            0.0,
            "eqp differs after {first_exec} -> {second_exec} restore"
        );
        assert_eq!(
            reference.state.r[3].max_abs_diff(&second.state.r[3]),
            0.0,
            "r4 differs after {first_exec} -> {second_exec} restore"
        );
    }
}

/// `ExecMode::Simd` is an alias of `Parallel` on every build — and so is
/// `Auto` on a mesh above its threshold: neither has a slower path to
/// degrade to, and both match the serial reference bitwise on the full
/// production feature set.
#[test]
fn simd_matches_serial_single_rank() {
    pin_pool();
    let mut cfg = production_config();
    cfg.dims = Dims3::new(36, 34, 28); // above `AUTO_PARALLEL_THRESHOLD`
    cfg.steps = 20;
    let serial = run_mode(&cfg, ExecMode::Serial);
    assert!(!serial.state.has_blown_up());
    assert_eq!(serial.exec_path(), ExecPath::Serial);
    for exec in [ExecMode::Simd, ExecMode::Auto] {
        let pooled = run_mode(&cfg, exec);
        assert_eq!(pooled.exec_path(), ExecPath::Parallel, "{exec} takes the pool path");
        assert_states_identical(&serial, &pooled);
    }
}

/// A checkpoint taken under `Simd` restores into a serial run (and vice
/// versa) bit-identically to an uninterrupted serial run — mode remains
/// a pure performance choice across the durability boundary.
#[test]
fn simd_checkpoint_restore_is_mode_agnostic() {
    pin_pool();
    let model = LayeredModel::north_china();
    let cfg = production_config();
    let reference = run_mode(&cfg, ExecMode::Serial);

    for (first_exec, second_exec) in
        [(ExecMode::Simd, ExecMode::Serial), (ExecMode::Serial, ExecMode::Simd)]
    {
        let mut first =
            Simulation::new(&model, &cfg.clone().with_exec(first_exec)).expect("valid config");
        first.run(30);
        let ckpt = first.make_checkpoint();
        let mut second =
            Simulation::new(&model, &cfg.clone().with_exec(second_exec)).expect("valid config");
        second.restore(&ckpt).expect("matching checkpoint");
        second.run(30);
        assert_eq!(
            reference.state.u.max_abs_diff(&second.state.u),
            0.0,
            "u differs after {first_exec} -> {second_exec} restore"
        );
        assert_eq!(
            reference.state.eqp.max_abs_diff(&second.state.eqp),
            0.0,
            "eqp differs after {first_exec} -> {second_exec} restore"
        );
    }
}

/// The equivalence contract, expressed through the sw-health budget
/// machinery: every wavefield's serial-vs-simd deviation, folded into
/// the binade-relative error ledger the compression watchdog uses, must
/// spend exactly zero of an (arbitrarily tight) budget. Where a future
/// kernel variant has to reassociate (and so can only be
/// epsilon-bounded), this is the ledger that bounds it; today's lane
/// layout preserves in-lane order, so the spend is exactly zero.
#[test]
fn exec_mode_deviation_spends_zero_error_budget() {
    pin_pool();
    let cfg = production_config();
    let serial = run_mode(&cfg, ExecMode::Serial);
    let simd = run_mode(&cfg, ExecMode::Simd);
    let mut tracker = BudgetTracker::new(1.0e-12);
    let pairs = [
        ("u", &serial.state.u, &simd.state.u),
        ("w", &serial.state.w, &simd.state.w),
        ("xx", &serial.state.xx, &simd.state.xx),
        ("yz", &serial.state.yz, &simd.state.yz),
    ];
    for (name, a, b) in pairs {
        let sample = CompressionSample {
            max_abs_err: a.max_abs_diff(b) as f64,
            sum_sq_err: 0.0,
            count: a.raw().len() as u64,
            max_abs_value: a.max_abs() as f64,
        };
        assert!(tracker.record(name, sample).is_none(), "{name} over budget");
    }
    assert_eq!(tracker.exceedances(), 0);
    for f in tracker.fields() {
        assert_eq!(f.worst_rel_err, 0.0, "{} spent error budget", f.field);
    }
}

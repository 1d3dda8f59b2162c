//! The run half of the one test matrix: whole runs of the production
//! config pinned against its serial, single-rank, `Full` run — the same
//! answer from any decomposition — along six axes: exec (`Serial`,
//! `Parallel`; `Simd` where a case names the alias), lane tier, rank grid
//! (up to an uneven 7×3 on the Tangshan basin), store (`Full` three ways,
//! the §6.5 round trip, `Compressed16` capped or not, on an over-cap mesh
//! too), restart (an image cut at half under another exec, tier or store)
//! and health (off, stride 3 and 5, the fatal budget gate).
//!
//! One list of run cases ([`run_cases`]), one way to run them
//! ([`execute`]), one comparison ([`compare`]): seismograms, PGV, flops,
//! the monitor's report and every field of the images, bit for bit except
//! `Compressed16` against `Full` (an epsilon tier). The oracle half is
//! `tests/kernel_matrix.rs`. Each case names the test that checks it; a
//! test is one line, [`check`], in the `tests/*_equivalence.rs` file the
//! case names, and those files hold nothing else.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use swquake::compress::FieldStats;
use swquake::core::driver::{run_multirank, MultiRankOutput};
use swquake::core::state::StateOptions;
use swquake::core::{ExecMode, ResidentMode, SimConfig, Simulation};
use swquake::grid::simd::{cap_lanes, LaneTier};
use swquake::grid::Dims3;
use swquake::health::{HealthConfig, HealthReport};
use swquake::io::checkpoint::Checkpoint;
use swquake::io::Station;
use swquake::model::{LayeredModel, TangshanModel, VelocityModel};
use swquake::parallel::RankGrid;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};

/// The pool width is process-wide; tests that set it take turns.
static POOL: Mutex<()> = Mutex::new(());

fn with_pool_width<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _turn = POOL.lock().unwrap_or_else(|e| e.into_inner());
    rayon::ThreadPoolBuilder::new().num_threads(threads).build_global().unwrap();
    f()
}

/// A whole run of the production config, placed on the run axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    exec: ExecMode,
    lanes: LaneTier,
    ranks: (usize, usize),
    store: Store,
    /// Probe stride (0: no monitor), and whether the budget is fatal.
    health: (u64, bool),
    /// Resumed at half from the image cut under this exec, tier and store.
    restart: Option<(ExecMode, LaneTier, Store)>,
    /// 40 × 36 × 20 (an f32 footprint over twice [`CAP`]), or Tangshan.
    over_cap: bool,
    tangshan: bool,
}

/// `Full` by default, spelled out and capped; the §6.5 round trip,
/// self-calibrated or on the global statistics of a 20-step coarse run
/// (Fig. 5a); 16 bits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Store {
    Full,
    FullExplicit,
    FullCapped,
    RoundTrip,
    RoundTripGlobal,
    C16,
    C16Capped,
}

/// Room for the slab's fixed 4H planes; both meshes stream in tiles.
const CAP: u64 = 1 << 20;
const RUN_STEPS: usize = 60;
/// The epsilon tier of 16 bits against `Full`, pinned from measurement
/// (misfit ~4e-3, PGV ~6e-3 of the peak) with ~10x headroom.
const EPS: f32 = 0.05;
const REFERENCE: Run = Run {
    exec: ExecMode::Serial,
    lanes: LaneTier::Baseline,
    ranks: (1, 1),
    store: Store::Full,
    health: (0, false),
    restart: None,
    over_cap: false,
    tangshan: false,
};

impl Run {
    /// Nonlinear + attenuation + a 5-cell sponge, three sources near the
    /// rank seams; stations on the 2×2 seam, in the sponge and outside it.
    fn config(self) -> SimConfig {
        let dims = if self.over_cap { Dims3::new(40, 36, 20) } else { Dims3::new(30, 28, 16) };
        let mut cfg = SimConfig::new(dims, 150.0, RUN_STEPS).with_exec(self.exec);
        cfg.options =
            StateOptions { sponge_width: 5, attenuation: true, nonlinear: true, ..cfg.options };
        let moment = MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14);
        let stf = SourceTimeFunction::Triangle { onset: 0.05, duration: 0.5 };
        let at = [(14, 13, 8), (15, 14, 5), (1, 26, 10)];
        cfg.sources = at.map(|(ix, iy, iz)| PointSource { ix, iy, iz, moment, stf }).to_vec();
        let at = [("seam", 15, 14), ("sponge", 28, 3), ("A", 8, 8), ("C", 22, 20)];
        cfg.stations = at.map(|(name, ix, iy)| Station { name: name.into(), ix, iy }).to_vec();
        if self.health.0 > 0 {
            let health = HealthConfig::default().with_stride(self.health.0);
            cfg = cfg.with_health(health.with_budget_fatal(self.health.1));
        }
        match self.store {
            Store::Full => cfg,
            Store::FullExplicit => cfg.with_resident(ResidentMode::Full),
            Store::FullCapped => cfg.with_memory_cap(CAP),
            Store::RoundTrip => cfg.with_compression(true),
            Store::RoundTripGlobal => {
                static STATS: OnceLock<Vec<(String, FieldStats)>> = OnceLock::new();
                let coarse = Run { store: Store::RoundTrip, ..REFERENCE }.config();
                let stats = STATS.get_or_init(|| {
                    let mut sim = Simulation::new(&LayeredModel::north_china(), &coarse).unwrap();
                    sim.run(20);
                    sim.collect_stats()
                });
                cfg.with_compression(true).with_compression_stats(stats.clone())
            }
            Store::C16 => cfg.with_resident(ResidentMode::Compressed16),
            Store::C16Capped => cfg.with_resident(ResidentMode::Compressed16).with_memory_cap(CAP),
        }
    }

    /// The production config with the §6.5 round trip, serial, on one
    /// rank and unmonitored: what `tests/perf.rs` measures the ledger on.
    #[allow(dead_code)]
    pub fn round_trip() -> SimConfig {
        Run { store: Store::RoundTrip, ..REFERENCE }.config()
    }

    /// The run whose half image this one resumes from.
    fn first_half(self) -> Option<Run> {
        self.restart.map(|(exec, lanes, store)| Run { exec, lanes, store, restart: None, ..self })
    }
}

/// What a run leaves: the merged observables; for one rank also the
/// monitor's report, the images cut at half (unless it resumed) and at
/// the end, the engine's (slab, stores) bytes and the f32 dynamic bytes.
struct Outcome {
    out: MultiRankOutput,
    health: Option<HealthReport>,
    images: Vec<Checkpoint>,
    resident: Option<(u64, u64)>,
    footprint: u64,
}

/// Run `run` (its lane cap held by the caller); a restart resumes from
/// the half image of its first half's outcome in `done`, through bytes.
fn execute(run: Run, done: &[(Run, Outcome)]) -> Outcome {
    let model: Box<dyn VelocityModel + Sync> = match run.tangshan {
        true => Box::new(TangshanModel::with_extent(4_500.0, 4_200.0, 2_400.0)),
        false => Box::new(LayeredModel::north_china()),
    };
    let cfg = run.config();
    if run.ranks != (1, 1) {
        let grid = RankGrid::new(run.ranks.0, run.ranks.1);
        let out = run_multirank(&*model, &cfg, grid).expect("a grid run");
        return Outcome { out, health: None, images: vec![], resident: None, footprint: 0 };
    }
    let first = done.iter().find(|(r, _)| Some(*r) == run.first_half());
    let image = first.map(|(_, first)| first.images[0].encode());
    let (mut sim, mut images) = (Simulation::new(&*model, &cfg).expect("valid config"), vec![]);
    match image {
        Some(image) => sim.restore(&Checkpoint::decode(&image).unwrap()).unwrap(),
        None => {
            sim.run(RUN_STEPS / 2);
            images.push(sim.make_checkpoint());
        }
    }
    sim.run(RUN_STEPS / 2);
    let resident = sim.resident_working_set_bytes().zip(sim.resident_stored_bytes());
    let sixteen = matches!(run.store, Store::C16 | Store::C16Capped);
    assert_eq!(resident.is_some(), sixteen, "{run:?}: an engine iff 16 bits");
    assert!(run.store != Store::C16Capped || resident.unwrap().0 <= CAP, "{run:?}: slab over cap");
    let health = sim.health();
    if let Some(h) = &health {
        assert!(sim.health_failure().is_none(), "{run:?}: {:?}", sim.health_failure());
        let probes = RUN_STEPS as u64 / run.health.0;
        assert_eq!((h.checks, h.records.len() as u64), (probes, probes), "{run:?}: probes");
        let encodes = sixteen || matches!(run.store, Store::RoundTrip | Store::RoundTripGlobal);
        assert_eq!(!h.budget.is_empty(), encodes, "{run:?}: budget ledger");
    }
    let footprint = sim.state.dynamic().iter().map(|f| f.resident_bytes() as u64).sum();
    images.push(sim.make_checkpoint());
    Outcome { out: sim.finish().expect("a finite run"), health, images, resident, footprint }
}

/// A run against its reference, bit for bit or (not bitwise) within the
/// epsilon tier, checked by the test `test` of the file `file`.
struct Case {
    file: &'static str,
    test: &'static str,
    bitwise: bool,
    run: Run,
    reference: Run,
}

const EXEC: &str = "tests/exec_equivalence.rs";
const RANKS: &str = "tests/parallel_equivalence.rs";
const RESIDENT: &str = "tests/resident_equivalence.rs";

/// Each single-axis step away from the reference, and the crossings where
/// two axes meet in one code path (the round trip across exec, tier and
/// ranks; 16 bits across exec, tier, restart and the budget gate) — not
/// the cartesian product. Not bitwise: 16 bits against `Full`.
fn run_cases() -> Vec<Case> {
    use ExecMode::{Parallel as P, Serial as S, Simd};
    let (r, host, base) = (REFERENCE, LaneTier::detected(), LaneTier::Baseline);
    let [rt, global, c16, capped] =
        [Store::RoundTrip, Store::RoundTripGlobal, Store::C16, Store::C16Capped]
            .map(|store| Run { store, ..r });
    let (tangshan, over) = (Run { tangshan: true, ..r }, Run { over_cap: true, exec: P, ..r });
    let (probed, monitored) = (Run { health: (3, false), ..r }, Run { health: (5, false), ..rt });
    let mut single = vec![(true, Run { exec: P, ..r }, r)];
    for lanes in LaneTier::available().skip(1) {
        single.extend([(true, Run { lanes, ..r }, r), (true, Run { exec: P, lanes, ..rt }, rt)]);
    }
    let mut grids = vec![(true, Run { ranks: (2, 2), ..global }, global)];
    for lanes in LaneTier::available() {
        grids.push((true, Run { exec: P, lanes, ranks: (2, 2), ..global }, global));
    }
    let groups = vec![
        (EXEC, "parallel_matches_serial_single_rank", single),
        (
            EXEC,
            "exec_mode_deviation_spends_zero_error_budget",
            vec![(true, Run { exec: P, ..rt }, rt)],
        ),
        (EXEC, "parallel_matches_serial_across_2x2_ranks", grids),
        (
            EXEC,
            "kinetic_energy_reduction_is_bitwise_deterministic",
            vec![(true, Run { exec: P, ..probed }, probed)],
        ),
        (
            EXEC,
            "health_records_are_identical_across_exec_modes",
            vec![
                (true, probed, r),
                (true, monitored, rt),
                (true, Run { exec: P, ..monitored }, monitored),
            ],
        ),
        (
            EXEC,
            "checkpoint_restore_is_mode_agnostic",
            vec![
                (true, Run { restart: Some((P, base, r.store)), ..r }, r),
                (true, Run { restart: Some((S, host, r.store)), ..r }, r),
                (true, Run { restart: Some((P, base, rt.store)), ..rt }, rt),
                (true, Run { exec: P, restart: Some((S, base, rt.store)), ..rt }, rt),
            ],
        ),
        (EXEC, "simd_matches_serial_single_rank", vec![(true, Run { exec: Simd, ..r }, r)]),
        (
            EXEC,
            "simd_checkpoint_restore_is_mode_agnostic",
            vec![
                (true, Run { restart: Some((Simd, base, r.store)), ..r }, r),
                (true, Run { exec: Simd, restart: Some((S, base, r.store)), ..r }, r),
            ],
        ),
        (RANKS, "two_by_one_matches_single_rank", vec![(true, Run { ranks: (2, 1), ..r }, r)]),
        (RANKS, "one_by_two_matches_single_rank", vec![(true, Run { ranks: (1, 2), ..r }, r)]),
        (RANKS, "two_by_two_matches_single_rank", vec![(true, Run { ranks: (2, 2), ..r }, r)]),
        (RANKS, "three_by_two_matches_single_rank", vec![(true, Run { ranks: (3, 2), ..r }, r)]),
        (
            RANKS,
            "uneven_decomposition_matches",
            vec![(true, Run { ranks: (7, 3), ..tangshan }, tangshan)],
        ),
        (
            RANKS,
            "flops_are_decomposition_invariant",
            vec![(true, Run { exec: P, ranks: (2, 2), ..r }, r)],
        ),
        (
            RESIDENT,
            "compressed16_matches_full_within_epsilon_across_exec_modes",
            vec![
                (false, c16, r),
                (false, Run { exec: P, ..c16 }, r),
                (false, capped, r),
                (true, Run { exec: P, ..c16 }, c16),
            ],
        ),
        (
            RESIDENT,
            "full_mode_is_bitwise_unchanged_by_resident_knobs",
            vec![
                (true, Run { store: Store::FullExplicit, ..r }, r),
                (true, Run { store: Store::FullCapped, ..r }, r),
            ],
        ),
        (
            RESIDENT,
            "over_cap_scenario_completes_with_bounded_working_set",
            vec![(false, Run { store: Store::C16Capped, ..over }, over)],
        ),
        (
            RESIDENT,
            "health_budget_gate_passes_under_compressed16",
            vec![(true, Run { health: (3, true), ..capped }, capped)],
        ),
        (
            RESIDENT,
            "error_statistics_ride_only_the_sampled_steps",
            vec![(true, Run { health: (3, false), ..c16 }, c16)],
        ),
        (
            RESIDENT,
            "checkpoints_cross_the_resident_mode_boundary",
            vec![
                (false, Run { restart: Some((S, base, c16.store)), ..r }, r),
                (false, Run { restart: Some((S, base, r.store)), ..c16 }, r),
            ],
        ),
        (
            RESIDENT,
            "checkpoints_cross_the_lane_tier_boundary",
            vec![
                (true, Run { lanes: host, ..capped }, capped),
                (
                    true,
                    Run { lanes: host, restart: Some((S, base, capped.store)), ..capped },
                    capped,
                ),
                (true, Run { restart: Some((S, host, capped.store)), ..capped }, capped),
            ],
        ),
    ];
    let cases = groups.into_iter().flat_map(|(file, test, cases)| {
        let case = move |(bitwise, run, reference)| Case { file, test, bitwise, run, reference };
        cases.into_iter().map(case)
    });
    cases.collect()
}

/// The one comparison: the flop total; seismograms, PGV, the monitor's
/// report (same monitor) and every field of the images bit for bit — or,
/// not bitwise, PGV and the stations outside the sponge (where a relative
/// misfit measures boundary noise) within the epsilon tier, and a capped
/// 16-bit store on the over-cap mesh under the f32 footprint, slab in.
fn compare(case: &Case, want: &Outcome, got: &Outcome) {
    let Case { bitwise, run, reference, .. } = *case;
    let what = format!("{run:?} against {reference:?}");
    let (w, g) = (&want.out, &got.out);
    assert!((w.flops - g.flops).abs() < 1e-9 * w.flops, "{what}: flop totals");
    let peak = w.pgv.pgv.iter().fold(0.0f32, |m, &v| m.max(v));
    let off = |(a, b): (&f32, &f32)| if bitwise { a != b } else { (a - b).abs() > EPS * peak };
    let pgv = w.pgv.pgv.iter().zip(&g.pgv.pgv).position(off);
    assert!(peak > 0.0 && pgv.is_none(), "{what}: PGV at surface index {pgv:?}");
    for (a, b) in w.seismograms.iter().zip(&g.seismograms) {
        let name = &a.station.name;
        assert_eq!(name, &b.station.name, "{what}: stations");
        let misfit = if bitwise || name == "sponge" { 0.0 } else { b.normalized_misfit(a) };
        assert!(misfit < f64::from(EPS), "{what}: station {name} misfit {misfit:.3e}");
        assert!(!bitwise || a.samples == b.samples, "{what}: station {name} differs");
    }
    if run.over_cap && !bitwise {
        let (slab, stored) = got.resident.expect("16 bits");
        assert!(want.footprint >= 2 * CAP && stored + slab < want.footprint, "{what}: footprint");
    }
    if let (true, Some(a), Some(b)) =
        (bitwise && run.health == reference.health, &want.health, &got.health)
    {
        assert_eq!(a.records, b.records, "{what}: health records");
        assert_eq!((a.checks, a.warnings, &a.budget), (b.checks, b.warnings, &b.budget), "{what}");
    }
    for (a, b) in want.images.iter().rev().zip(got.images.iter().rev()).filter(|_| bitwise) {
        assert_eq!((a.step, a.time.to_bits()), (b.step, b.time.to_bits()), "{what}: image clock");
        for ((name, fa), (other, fb)) in a.fields.iter().zip(&b.fields) {
            let at = fa.raw().iter().zip(fb.raw()).position(|(x, y)| x.to_bits() != y.to_bits());
            assert!(name == other && at.is_none(), "{what}: step {} `{name}` at {at:?}", a.step);
        }
        assert_eq!(a.fields.len(), b.fields.len(), "{what}: image fields");
    }
}

/// Every run `cases` need, each once: uninterrupted runs
/// first (a restart reads their half images), tier by tier under one lane
/// cap and one turn of `POOL` (the oracle tests' order), two at a time.
fn execute_all(cases: &[&Case]) -> Vec<(Run, Outcome)> {
    let key = |run: &Run| (run.restart.is_some(), run.lanes);
    let runs = cases.iter().flat_map(|c| [c.run.first_half(), Some(c.reference), Some(c.run)]);
    let mut runs: Vec<Run> = runs.flatten().collect();
    runs.sort_by_key(|run| (key(run), format!("{run:?}")));
    runs.dedup();
    let mut done = vec![];
    for batch in runs.chunk_by(|a, b| key(a) == key(b)) {
        let (_cap, next, batch_done) =
            (cap_lanes(batch[0].lanes), AtomicUsize::new(0), Mutex::new(vec![]));
        let worker = || {
            while let Some(&run) = batch.get(next.fetch_add(1, Ordering::Relaxed)) {
                let outcome = execute(run, &done);
                batch_done.lock().unwrap().push((run, outcome));
            }
        };
        with_pool_width(4, || {
            std::thread::scope(|s| [s.spawn(worker), s.spawn(worker)].map(|h| h.join().unwrap()))
        });
        done.extend(batch_done.into_inner().unwrap());
    }
    done
}

/// The files whose tests check run cases.
const SOURCES: [(&str, &str); 3] = [
    (EXEC, include_str!("../exec_equivalence.rs")),
    (RANKS, include_str!("../parallel_equivalence.rs")),
    (RESIDENT, include_str!("../resident_equivalence.rs")),
];

/// Check the run cases of `test` in `file` against their references. The
/// first call of a test binary runs every case of its file; the others
/// wait for those runs and compare their own cases. No case goes
/// unchecked: each must name a test of its file that checks it.
pub fn check(file: &str, test: &str) {
    static DONE: OnceLock<Vec<(Run, Outcome)>> = OnceLock::new();
    let cases = run_cases();
    let here: Vec<&Case> = cases.iter().filter(|c| c.file == file).collect();
    let (_, src) = SOURCES.iter().find(|(name, _)| *name == file).expect("a run-case file");
    for t in here.iter().map(|c| c.test) {
        let body = format!("#[test]\nfn {t}() {{\n    matrix::check(file!(), \"{t}\");\n}}");
        assert!(src.contains(&body), "{file}: no test checks the run cases of `{t}`");
    }
    let done = DONE.get_or_init(|| execute_all(&here));
    let outcome = |x: Run| &done.iter().find(|(run, _)| *run == x).expect("run").1;
    let mine: Vec<&&Case> = here.iter().filter(|c| c.test == test).collect();
    assert!(!mine.is_empty(), "{file} has no run case for `{test}`");
    for case in mine {
        compare(case, outcome(case.reference), outcome(case.run));
    }
}

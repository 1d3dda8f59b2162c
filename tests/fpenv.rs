//! The floating-point environment contract: every thread that runs
//! kernel code flushes subnormals to zero (`sw_grid::fpenv`), whichever
//! execution mode, layout or rank decomposition put it to work, and the
//! caller of the library gets its own mode back afterwards. The mode
//! is one control word for SSE, VEX and EVEX arithmetic alike, so it
//! holds inside `sw_grid::simd::wide` at every lane tier.
//!
//! Nothing here measures time. The first test pins the invariant that
//! keeps a step at step 40 as cheap as at step 2 — no subnormal survives
//! in a wavefield — and the second pins the mechanism thread by thread,
//! so it keeps holding when the pool's helpers stop being born (and
//! handed the mode by the thread library) once per region.

#![cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]

use std::hint::black_box;
use std::sync::{Barrier, Mutex, MutexGuard};
use swquake::core::driver::run_multirank;
use swquake::core::exec::kernel_fp_env;
use swquake::core::{ExecMode, ResidentMode, SimConfig, Simulation};
use swquake::grid::simd::{per_tier, wide};
use swquake::grid::{fpenv, Dims3, Field3};
use swquake::health::HealthConfig;
use swquake::model::LayeredModel;
use swquake::parallel::{run_jobs, run_ranks, RankGrid};
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};

const STEPS: usize = 40;

/// Pin a real pool so the pool-based paths genuinely fan out, and hold
/// it: the helper budget is process-wide, and the thread test needs to
/// know how many helpers its region gets.
fn pin_pool() -> MutexGuard<'static, ()> {
    static POOL: Mutex<()> = Mutex::new(());
    let held = POOL.lock().unwrap_or_else(|e| e.into_inner());
    rayon::ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
    held
}

/// 48³ with one point source in the middle: after 40 steps the physical
/// wavefront is still inside the mesh and the stencil's decaying
/// precursor ahead of it crosses 1.2e-38 well before the boundary.
fn point_source_config(attenuation: bool) -> SimConfig {
    let mut cfg =
        SimConfig::new(Dims3::new(48, 48, 48), 100.0, STEPS).with_resident(ResidentMode::Full);
    cfg.options.attenuation = attenuation;
    cfg.sources = vec![PointSource {
        ix: 24,
        iy: 24,
        iz: 24,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14),
        stf: SourceTimeFunction::Triangle { onset: 0.0, duration: 0.2 },
    }];
    cfg
}

fn subnormals(field: &Field3) -> usize {
    field.raw().iter().filter(|v| v.is_subnormal()).count()
}

/// Subnormal cells over the nine wavefields and the memory variables.
fn subnormals_in_state(sim: &Simulation) -> usize {
    let s = &sim.state;
    [&s.u, &s.v, &s.w, &s.xx, &s.yy, &s.zz, &s.xy, &s.xz, &s.yz]
        .into_iter()
        .chain(s.r.iter())
        .map(subnormals)
        .sum()
}

/// A product whose exact result is subnormal: zero when the executing
/// thread flushes, `MIN_POSITIVE / 2` when it does not.
fn tiny_product() -> f32 {
    black_box(f32::MIN_POSITIVE) * black_box(0.5)
}

/// A product with a subnormal operand and a normal result, computed in
/// code compiled for the dispatched lane tier: zero when the executing
/// thread reads subnormal operands as zero, `2 · MIN_POSITIVE` when not.
fn wide_product_of_a_tiny_operand() -> f32 {
    wide(
        #[inline(always)]
        || black_box(f32::MIN_POSITIVE * 0.5) * black_box(4.0),
    )
}

/// After 40 steps no cell of `u, v, w, xx..yz` or `r[0..6]` is
/// subnormal — serial, parallel and 2×2 ranks alike — and the wave is
/// still there.
///
/// Before kernel threads flushed, the attenuating runs of this test
/// ended with 4 330 subnormal cells among the 2.11 M of the fifteen
/// padded 52³ arrays, serial and parallel alike.
#[test]
fn no_wavefield_cell_is_subnormal_after_forty_steps() {
    let _pool = pin_pool();
    let model = LayeredModel::north_china();
    let run = |cfg: SimConfig| {
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(STEPS);
        assert!(sim.state.u.max_abs() > 0.0 && !sim.state.has_blown_up());
        sim
    };

    let attenuating = point_source_config(true);
    for exec in [ExecMode::Serial, ExecMode::Parallel] {
        let sim = run(attenuating.clone().with_exec(exec));
        assert_eq!(subnormals_in_state(&sim), 0, "subnormal cells left under {exec}");
    }

    // Rank threads never go through `Simulation::step`; their final
    // fields are read through the health probe every rank takes at the
    // last step, which counts subnormals in the nine wavefields.
    let ranked = attenuating
        .with_exec(ExecMode::Parallel)
        .with_health(HealthConfig::default().with_stride(STEPS as u64));
    let out = run_multirank(&model, &ranked, RankGrid::new(2, 2)).expect("healthy run");
    assert_eq!(out.health.len(), 4, "one probe per rank at step {STEPS}");
    for record in &out.health {
        assert_eq!(record.fields.len(), 9);
        assert!(record.max_velocity > 0.0);
        assert_eq!(record.subnormal_count, 0, "rank {} holds subnormal cells", record.rank);
    }
}

/// Every kind of thread the solver computes on flushes while the
/// spawning thread holds a guard: pool helpers (at least two of them,
/// held in the region together by a barrier), rank threads and campaign
/// job workers. And `Simulation::step` hands the calling thread back
/// the mode it came with.
#[test]
fn compute_threads_adopt_the_spawners_mode_and_step_restores_the_callers() {
    use rayon::prelude::*;
    let _pool = pin_pool();
    assert!(!fpenv::is_flushing(), "test threads start in the default mode");
    {
        let _fp = kernel_fp_env();
        assert_eq!(tiny_product(), 0.0);

        // Three items over a free budget of three helpers: the caller
        // and two helpers take one each, and nobody leaves the barrier
        // until all three are inside the region.
        assert_eq!(rayon::worker_budget(), (0, 3));
        let caller = std::thread::current().id();
        let gate = Barrier::new(3);
        let products: Vec<(bool, f32)> = (0..3usize)
            .into_par_iter()
            .map(|_| {
                gate.wait();
                (std::thread::current().id() != caller, tiny_product())
            })
            .collect();
        assert_eq!(products.iter().filter(|&&(on_helper, _)| on_helper).count(), 2);
        assert!(products.iter().all(|&(_, product)| product == 0.0), "{products:?}");

        // The same region once per lane tier, the product taken inside
        // `wide`: wider registers do not leave the control word behind,
        // on the caller or on a helper.
        per_tier(|tier| {
            let gate = Barrier::new(3);
            let products: Vec<(bool, f32)> = (0..3usize)
                .into_par_iter()
                .map(|_| {
                    gate.wait();
                    (std::thread::current().id() != caller, wide_product_of_a_tiny_operand())
                })
                .collect();
            assert_eq!(products.iter().filter(|&&(on_helper, _)| on_helper).count(), 2);
            assert!(products.iter().all(|&(_, p)| p == 0.0), "lanes {tier}: {products:?}");
        });

        let ranks = run_ranks(RankGrid::new(2, 1), |_| tiny_product());
        assert_eq!(ranks, vec![0.0, 0.0]);
        let jobs = run_jobs(2, 4, |_| tiny_product());
        assert_eq!(jobs, vec![0.0; 4]);
    }
    // Without a guard on the spawner, the same threads do not flush.
    assert_eq!(tiny_product(), f32::MIN_POSITIVE / 2.0);
    assert_eq!(wide_product_of_a_tiny_operand(), f32::MIN_POSITIVE * 2.0);
    assert_eq!(
        run_ranks(RankGrid::new(2, 1), |_| tiny_product()),
        vec![f32::MIN_POSITIVE / 2.0; 2]
    );

    let model = LayeredModel::north_china();
    let mut sim = Simulation::new(&model, &point_source_config(false)).expect("valid config");
    sim.step();
    assert!(!fpenv::is_flushing());
    assert_eq!(tiny_product(), f32::MIN_POSITIVE / 2.0, "step() left the caller flushing");
}

//! Regenerates Fig. 7: per-kernel speedups across the optimization levels
//! (MPE → PAR → MEM → CMPR) and achieved DMA bandwidths — from the
//! calibrated SW26010 model — plus a *real* measurement on this host: each
//! kernel's one body with its x-planes walked by the calling thread vs
//! handed to the Rayon pool, the host-side analogue of the MPE → PAR
//! step (one core against the 64-CPE pool).

use std::time::Instant;
use sw_arch::perf::{KernelPerfModel, OptLevel};
use sw_grid::Dims3;
use sw_model::HalfspaceModel;
use swquake_core::kernels;
use swquake_core::state::{SolverState, StateOptions};

fn host_state() -> SolverState {
    let opts = StateOptions { sponge_width: 0, ..Default::default() };
    let mut s = SolverState::from_model(
        &HalfspaceModel::hard_rock(),
        Dims3::new(96, 96, 96),
        100.0,
        (0.0, 0.0, 0.0),
        opts,
    );
    for (x, y, z) in s.dims.iter() {
        let v = ((x * 31 + y * 17 + z * 7) % 23) as f32 - 11.0;
        s.xx.set(x, y, z, v * 1e4);
        s.xy.set(x, y, z, -v * 5e3);
        s.u.set(x, y, z, v * 0.01);
    }
    s
}

fn time_it(mut f: impl FnMut()) -> f64 {
    // warmup + best of 3
    f();
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    swq_bench::header("Fig. 7: kernel speedups and DMA bandwidth per optimization level");
    let m = KernelPerfModel::paper();
    println!(
        "{:>16} {:>8} {:>8} {:>8} {:>8} | {:>10} {:>10}",
        "kernel", "MPE x", "PAR x", "MEM x", "CMPR x", "MEM GB/s", "MEM util"
    );
    for k in m.kernels() {
        let pts: Vec<_> = OptLevel::ALL.iter().map(|&l| m.point(k, l)).collect();
        println!(
            "{:>16} {:>8.1} {:>8.1} {:>8.1} {:>8.1} | {:>10.1} {:>9.0}%",
            k.name,
            pts[0].speedup,
            pts[1].speedup,
            pts[2].speedup,
            pts[3].speedup,
            pts[2].dma_bandwidth / 1e9,
            pts[2].bandwidth_utilization * 100.0
        );
    }
    println!(
        "\npaper bar values: PAR 12.9-13.1x, MEM 22.9-28.9x, CMPR 39.3-47.8x, fstr 4.2x;\n\
         bandwidths 12.4-27 GB/s (36-79 % of the 34 GB/s DDR3 peak)"
    );

    // The naive-compression datum of §6.5: 1/3 of the uncompressed speed.
    let naive: f64 =
        m.kernels().iter().map(|k| k.coverage * m.seconds_per_point_naive_cmpr(k)).sum();
    let mem = m.step_seconds_per_point(true, OptLevel::Mem);
    println!(
        "naive first-version compression: {:.2}x slower than uncompressed (paper: ~3x)",
        naive / mem
    );

    // Real host measurement: calling-thread vs pool iteration.
    println!("\nhost measurement (96^3 mesh, {} threads):", rayon::current_num_threads());
    let mut s = host_state();
    let t_vel_serial = time_it(|| {
        kernels::dvelcx(&mut s);
        kernels::dvelcy(&mut s);
    });
    let mut s2 = host_state();
    let t_vel_par = time_it(|| kernels::dvelc_par(&mut s2));
    let mut s3 = host_state();
    let t_str_serial = time_it(|| kernels::dstrqc(&mut s3));
    let mut s4 = host_state();
    let t_str_par = time_it(|| kernels::dstrqc_par(&mut s4));
    println!(
        "  dvelc : calling thread {:>7.2} ms, pool {:>7.2} ms -> {:.1}x",
        t_vel_serial * 1e3,
        t_vel_par * 1e3,
        t_vel_serial / t_vel_par
    );
    println!(
        "  dstrqc: calling thread {:>7.2} ms, pool {:>7.2} ms -> {:.1}x",
        t_str_serial * 1e3,
        t_str_par * 1e3,
        t_str_serial / t_str_par
    );
}

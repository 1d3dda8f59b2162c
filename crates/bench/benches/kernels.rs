//! Benchmarks for the solver kernels (each walked by the calling thread;
//! `fig7_kernels` compares that with pool iteration) and of the linear
//! vs nonlinear step — the real-host counterpart of Fig. 7.

use sw_grid::Dims3;
use sw_model::HalfspaceModel;
use swq_bench::harness::{Criterion, Throughput};
use swq_bench::{criterion_group, criterion_main};
use swquake_core::kernels;
use swquake_core::state::{SolverState, StateOptions};

fn noisy_state(n: usize, nonlinear: bool) -> SolverState {
    let opts = StateOptions { sponge_width: 0, nonlinear, ..Default::default() };
    let mut s = SolverState::from_model(
        &HalfspaceModel::hard_rock(),
        Dims3::cube(n),
        100.0,
        (0.0, 0.0, 0.0),
        opts,
    );
    for (x, y, z) in s.dims.iter() {
        let v = ((x * 31 + y * 17 + z * 7) % 23) as f32 - 11.0;
        s.xx.set(x, y, z, v * 1e4);
        s.xy.set(x, y, z, -v * 5e3);
        s.u.set(x, y, z, v * 0.01);
        s.v.set(x, y, z, v * 0.007);
    }
    s
}

fn bench_kernels(c: &mut Criterion) {
    let n = 48;
    let points = (n * n * n) as u64;
    let mut group = c.benchmark_group("kernels");
    group.throughput(Throughput::Elements(points));

    let mut s = noisy_state(n, false);
    group.bench_function("dvelc", |b| {
        b.iter(|| {
            kernels::dvelcx(&mut s);
            kernels::dvelcy(&mut s);
        })
    });
    let mut s = noisy_state(n, false);
    group.bench_function("dstrqc", |b| b.iter(|| kernels::dstrqc(&mut s)));
    let mut s = noisy_state(n, true);
    group.bench_function("drprecpc_calc", |b| b.iter(|| kernels::drprecpc_calc(&mut s)));
    let mut s = noisy_state(n, true);
    kernels::drprecpc_calc(&mut s);
    group.bench_function("drprecpc_app", |b| b.iter(|| kernels::drprecpc_app(&mut s)));
    let mut s = noisy_state(n, false);
    group.bench_function("fstr", |b| b.iter(|| kernels::fstr(&mut s)));
    let mut s = noisy_state(n, false);
    group.bench_function("apply_sponge", |b| b.iter(|| kernels::apply_sponge(&mut s)));
    group.finish();

    // full steps: the linear-vs-nonlinear cost ratio of §3
    let mut group = c.benchmark_group("full_step");
    group.throughput(Throughput::Elements(points));
    for nonlinear in [false, true] {
        let mut s = noisy_state(n, nonlinear);
        let label = if nonlinear { "nonlinear" } else { "linear" };
        group.bench_function(label, |b| {
            b.iter(|| {
                kernels::fstr(&mut s);
                kernels::dvelcx(&mut s);
                kernels::dvelcy(&mut s);
                kernels::fstr(&mut s);
                kernels::dstrqc(&mut s);
                if nonlinear {
                    kernels::drprecpc_calc(&mut s);
                    kernels::drprecpc_app(&mut s);
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels
}
criterion_main!(benches);

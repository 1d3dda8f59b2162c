//! CI perf-smoke benchmark: a deliberately tiny subset of the kernel
//! and codec benches, sized to finish in seconds on a cold runner.
//!
//! Writes a [`BenchReport`]-schema JSON (`BENCH_smoke.json` by default,
//! or the path given as the first argument). CI runs this twice is not
//! needed — one run is uploaded as an artifact and gated against the
//! same file via `swquake inspect --diff`, which by construction passes on
//! identical inputs and exercises the whole regression pipe.

use sw_compress::{lz4, Codec16, F16Codec, FieldStats, NormCodec};
use sw_grid::Dims3;
use sw_model::HalfspaceModel;
use swq_bench::harness::{BenchmarkId, Criterion, Throughput};
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

fn bench_smoke(c: &mut Criterion) {
    let n = 20;
    let points = (n * n * n) as u64;
    let mut group = c.benchmark_group("smoke");
    group.throughput(Throughput::Elements(points));
    let mut s = noisy_state(n, false);
    group.bench_function(BenchmarkId::new("kernel", "dvelc"), |b| {
        b.iter(|| {
            kernels::dvelcx(&mut s);
            kernels::dvelcy(&mut s);
        })
    });
    let mut s = noisy_state(n, false);
    group.bench_function(BenchmarkId::new("kernel", "dstrqc"), |b| {
        b.iter(|| kernels::dstrqc(&mut s))
    });

    let data: Vec<f32> = (0..4096)
        .map(|i| {
            let t = i as f32 * 0.013;
            (t.sin() * (0.3 * t).cos()) * 1.0e-2
        })
        .collect();
    let stats = FieldStats::of_slice(&data);
    let mut enc = vec![0u16; data.len()];
    group.throughput(Throughput::Elements(data.len() as u64));
    let norm = NormCodec::from_stats(&stats);
    group.bench_function(BenchmarkId::new("codec", "norm_encode"), |b| {
        b.iter(|| norm.encode_slice(&data, &mut enc))
    });
    group.bench_function(BenchmarkId::new("codec", "f16_encode"), |b| {
        b.iter(|| F16Codec.encode_slice(&data, &mut enc))
    });
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function(BenchmarkId::new("codec", "lz4_compress"), |b| {
        b.iter(|| lz4::compress(&bytes))
    });
    group.finish();
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_smoke.json".to_string());
    let mut criterion = Criterion::default().sample_size(10);
    bench_smoke(&mut criterion);
    criterion.save_json(std::path::Path::new(&path)).expect("failed to write bench smoke JSON");
    println!("\nwrote {path} ({} records)", criterion.report().records.len());
}

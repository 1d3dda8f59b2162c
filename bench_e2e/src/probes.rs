//! Single-layer probes of the traced run.
//!
//! Each probe calls one layer through its public API, on a clone of the
//! workload's mid-run state, inside spans of the benchmark's own
//! [`Recorder`]. Bytes moved are *computed* from the arrays a kernel
//! touches, not measured; the host probe supplies the denominators of
//! the roofline fractions, measured in the same run.

use crate::hostclock::{HostClock, REFERENCE_S};
use crate::spans::Recorder;
use crate::stats::median;
use rayon::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use swquake::compress::{
    calibrated_codec, lz4, max_abs_bucket, par, Codec, FieldStats, ResidentField3,
};
use swquake::core::driver::COMPRESSED_FIELDS;
use swquake::core::flops::{
    DRPRECPC_CALC_FLOPS, DSTRQC_FLOPS, DVELC_FLOPS, FSTR_FLOPS, SPONGE_FLOPS,
};
use swquake::core::resident::ResidentEngine;
use swquake::core::{kernels, Simulation, SolverState};
use swquake::grid::halo::Face;
use swquake::grid::{Dims3, Field3, HALO_WIDTH};
use swquake::io::checkpoint::write_atomic;
use swquake::io::CheckpointStore;
use swquake::parallel::{run_ranks, HaloExchanger, RankGrid};
use swquake::source::PointSource;

const MIB: f64 = 1024.0 * 1024.0;

/// Measured machine limits the kernel numbers are judged against.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostProbe {
    /// STREAM-triad bandwidth over all benchmark threads, GB/s.
    pub triad_gbs: f64,
    /// Peak f32 multiply-add rate of this build's code generation over
    /// all benchmark threads, GFLOP/s.
    pub fma_gflops: f64,
    /// Last-level cache, MiB (0 when sysfs hides it).
    pub llc_mib: f64,
    /// Sum of the L2 caches the benchmark threads use, MiB.
    pub l2_sum_mib: f64,
    /// Size of each of the three triad arrays, MiB.
    pub array_mib: f64,
    /// Median of five host-clock samples over the reference sample: how
    /// much slower than its usual pace the host was during this run.
    pub clock_ratio: f64,
}

impl HostProbe {
    /// Arrays under four last-level caches can be served from cache in
    /// part: the roofline fractions are then labelled *cache-assisted*.
    pub fn cache_assisted(&self) -> bool {
        self.array_mib < 4.0 * self.llc_mib
    }

    /// Roofline bound for a kernel of arithmetic intensity `flops_per_byte`.
    pub fn roofline_gflops(&self, flops_per_byte: f64) -> f64 {
        self.fma_gflops.min(self.triad_gbs * flops_per_byte)
    }
}

/// `(last-level, one L2)` cache sizes of cpu0 in bytes, from sysfs.
fn cache_sizes() -> (u64, u64) {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let (mut llc, mut llc_level, mut l2) = (0u64, 0u32, 0u64);
    for idx in 0..8 {
        let dir = base.join(format!("index{idx}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().map(|m| m << 20),
                None => size.parse::<u64>(),
            },
        };
        let Ok(bytes) = bytes else { continue };
        if level == 2 {
            l2 = bytes;
        }
        if level > llc_level {
            (llc_level, llc) = (level, bytes);
        }
    }
    (llc, l2)
}

/// Best-of-three STREAM triad `a = b + s*c` over `threads` threads.
fn triad_gbs(elems: usize, threads: usize) -> f64 {
    let mut a = vec![0.0f32; elems];
    let b = vec![1.0f32; elems];
    let c = vec![2.0f32; elems];
    let chunk = elems.div_ceil(threads);
    let mut best = f64::INFINITY;
    for pass in 0..4 {
        let s = black_box(0.5f32);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + s * *c;
                    }
                });
            }
        });
        let dt = t0.elapsed().as_secs_f64();
        // Pass 0 pays the first touch of `a`.
        if pass > 0 {
            best = best.min(dt);
        }
        black_box(&a);
    }
    (3 * elems * 4) as f64 / best / 1e9
}

/// Sixteen independent 4-lane multiply-add chains per thread: enough to
/// cover the pipeline latency, so the rate is the issue-width limit of
/// whatever vector ISA this build targets.
fn fma_gflops(threads: usize, seconds: f64) -> f64 {
    fn burn(iters: u64) -> f32 {
        let m = black_box([1.000_000_1f32; 8]);
        let a = black_box([1.0e-9f32; 8]);
        let mut acc = [[1.0f32; 8]; 8];
        for _ in 0..iters {
            for row in &mut acc {
                for l in 0..8 {
                    row[l] = row[l] * m[l] + a[l];
                }
            }
        }
        black_box(acc).iter().flatten().sum()
    }
    const FLOPS_PER_ITER: f64 = 8.0 * 8.0 * 2.0;
    let t0 = Instant::now();
    black_box(burn(1_000_000));
    let iters = (1.0e6 * seconds / t0.elapsed().as_secs_f64().max(1e-6)) as u64;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || black_box(burn(iters)));
        }
    });
    threads as f64 * iters as f64 * FLOPS_PER_ITER / t0.elapsed().as_secs_f64() / 1e9
}

/// Measure the host. Triad arrays are 256 MiB each (and at least four
/// times the L2 sum); `smoke` shrinks them to 4 MiB.
pub fn host_probe(rec: &mut Recorder, threads: usize, smoke: bool) -> HostProbe {
    let (llc, l2) = cache_sizes();
    let l2_sum = l2 * threads as u64;
    let array_bytes: u64 = if smoke { 4 << 20 } else { (256u64 << 20).max(4 * l2_sum) };
    let (triad, _) = rec.span("host.triad", |_| triad_gbs(array_bytes as usize / 4, threads));
    let (fma, _) = rec.span("host.fma", |_| fma_gflops(threads, if smoke { 0.02 } else { 0.2 }));
    let (clock, _) = rec.span("host.clock", |_| {
        let clock = HostClock::new(threads, smoke);
        median(&(0..5).map(|_| clock.sample().total_s()).collect::<Vec<f64>>())
    });
    HostProbe {
        triad_gbs: triad,
        fma_gflops: fma,
        llc_mib: llc as f64 / MIB,
        l2_sum_mib: l2_sum as f64 / MIB,
        array_mib: array_bytes as f64 / MIB,
        clock_ratio: clock / REFERENCE_S,
    }
}

/// Which implementation of the kernels a replay calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// What `--exec simd` resolves to in this build (the vectorized tiled
    /// kernels with the `simd` feature, the pool kernels without).
    AsRun,
    /// The serial reference kernels.
    Serial,
}

impl Variant {
    /// Span name of kernel `k` under this variant.
    pub fn span_name(self, k: &str) -> String {
        match self {
            Variant::AsRun => format!("kernels.{k}"),
            Variant::Serial => format!("kernels.{k}.serial"),
        }
    }
}

/// Replay `1 + steps` full kernel sequences on `state` (free surface,
/// velocity, free surface, stress, sources, plasticity, sponge — the
/// driver's order), one span per kernel call. The first sequence only
/// brings the arrays into whatever cache holds them in a real step loop;
/// its spans carry a `.warm` suffix and are not counted. `state` must
/// carry populated plasticity arrays (`options.nonlinear`).
pub fn replay_kernels(
    rec: &mut Recorder,
    state: &mut SolverState,
    sources: &[PointSource],
    variant: Variant,
    steps: usize,
) {
    for step in 0..=steps {
        let name = |k: &str| {
            let base = variant.span_name(k);
            if step == 0 {
                format!("{base}.warm")
            } else {
                base
            }
        };
        let t = step as f64 * state.dt;
        match variant {
            Variant::Serial => {
                rec.span(&name("fstr"), |_| kernels::fstr(state));
                rec.span(&name("dvelc"), |_| {
                    kernels::dvelcx(state);
                    kernels::dvelcy(state);
                });
                rec.span(&name("fstr"), |_| kernels::fstr(state));
                rec.span(&name("dstrqc"), |_| kernels::dstrqc(state));
                rec.span(&name("addsrc"), |_| kernels::addsrc(state, sources, t));
                rec.span(&name("drprecpc_calc"), |_| kernels::drprecpc_calc(state));
                rec.span(&name("drprecpc_app"), |_| kernels::drprecpc_app(state));
                rec.span(&name("sponge"), |_| kernels::apply_sponge(state));
            }
            #[cfg(feature = "simd")]
            Variant::AsRun => {
                use kernels::simd;
                rec.span(&name("fstr"), |_| simd::fstr_simd(state));
                rec.span(&name("dvelc"), |_| simd::dvelc_simd(state));
                rec.span(&name("fstr"), |_| simd::fstr_simd(state));
                rec.span(&name("dstrqc"), |_| simd::dstrqc_simd(state));
                rec.span(&name("addsrc"), |_| kernels::addsrc(state, sources, t));
                rec.span(&name("drprecpc_calc"), |_| simd::drprecpc_calc_simd(state));
                rec.span(&name("drprecpc_app"), |_| simd::drprecpc_app_simd(state));
                rec.span(&name("sponge"), |_| simd::apply_sponge_simd(state));
            }
            #[cfg(not(feature = "simd"))]
            Variant::AsRun => {
                rec.span(&name("fstr"), |_| kernels::fstr_par(state));
                rec.span(&name("dvelc"), |_| kernels::dvelc_par(state));
                rec.span(&name("fstr"), |_| kernels::fstr_par(state));
                rec.span(&name("dstrqc"), |_| kernels::dstrqc_par(state));
                rec.span(&name("addsrc"), |_| kernels::addsrc(state, sources, t));
                rec.span(&name("drprecpc_calc"), |_| kernels::drprecpc_calc_par(state));
                rec.span(&name("drprecpc_app"), |_| kernels::drprecpc_app_par(state));
                rec.span(&name("sponge"), |_| kernels::apply_sponge_par(state));
            }
        }
    }
}

/// Cells one call of kernel `k` covers and the f32 bytes and flops it
/// spends per cell, computed from the arrays it touches (each array
/// counted once per read and once per write, stencil re-reads assumed
/// cached). `None` for flops where the product defines no count.
pub fn kernel_work(
    k: &str,
    dims: Dims3,
    attenuation: bool,
    sources: usize,
) -> (f64, f64, Option<f64>) {
    let cells = dims.len() as f64;
    let surface = (dims.nx * dims.ny) as f64;
    let arrays = |n: u32| f64::from(n) * 4.0;
    match k {
        // 8 reads + 9 writes in the two planes around the surface.
        "fstr" => (surface, arrays(17), Some(FSTR_FLOPS)),
        // u, v, w, six stresses, buoyancy in; u, v, w out.
        "dvelc" => (cells, arrays(13), Some(DVELC_FLOPS)),
        // u, v, w, lam, mu, six stresses in; six stresses out; with
        // attenuation also six memory variables in and out, wp, ws in.
        "dstrqc" if attenuation => (cells, arrays(31), Some(DSTRQC_FLOPS)),
        "dstrqc" => (cells, arrays(17), Some(DSTRQC_FLOPS - 36.0)),
        // six stresses, sigma0, cohes, cosphi, sinphi, pf in; yldfac out.
        "drprecpc_calc" => (cells, arrays(12), Some(DRPRECPC_CALC_FLOPS)),
        // Touches yldfac alone where nothing yields and fourteen more
        // arrays where something does: no byte count without knowing the
        // data, so none is given.
        "drprecpc_app" => (cells, 0.0, None),
        // dcrj in; nine wavefields in and out.
        "sponge" => (cells, arrays(19), Some(SPONGE_FLOPS)),
        // six stresses in and out at each source cell.
        "addsrc" => (sources as f64, arrays(12), None),
        other => panic!("unknown kernel {other}"),
    }
}

/// One pass of the §6.5 in-place path as the driver runs it in pool
/// modes: a max-abs calibration scan per wavefield, then the nine round
/// trips fanned out over the pool. A `warm` pass is recorded apart.
pub fn codec_roundtrip(rec: &mut Recorder, state: &mut SolverState, warm: bool) {
    let name = if warm { "compress.roundtrip.warm" } else { "compress.roundtrip" };
    rec.span(name, |_| {
        let s = &mut *state;
        let fields = [
            &mut s.u, &mut s.v, &mut s.w, &mut s.xx, &mut s.yy, &mut s.zz, &mut s.xy, &mut s.xz,
            &mut s.yz,
        ];
        let work: Vec<(&mut Field3, Codec)> = fields
            .into_iter()
            .zip(COMPRESSED_FIELDS)
            .map(|(f, name)| {
                let base = Codec::paper_assignment(name, &FieldStats::empty());
                let bucket = max_abs_bucket(par::field_max_abs_par(f));
                (f, calibrated_codec(&base, bucket))
            })
            .collect();
        work.into_par_iter().for_each(|(field, codec)| {
            par::roundtrip_par(&codec, field.raw_mut());
        });
    });
}

/// Elements one [`codec_roundtrip`] pass moves.
pub fn codec_roundtrip_elems(state: &SolverState) -> usize {
    9 * state.u.raw().len()
}

/// Plane codec throughput (the resident path) and LZ4 (the checkpoint
/// path) on one wavefield: `(encode Melem/s, decode Melem/s, LZ4 MB/s)`.
pub fn plane_and_lz4(rec: &mut Recorder, field: &Field3, reps: usize) -> (f64, f64, f64) {
    let elems = field.raw().len() as f64;
    let base = Codec::paper_assignment("u", &FieldStats::empty());
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut lz = Vec::new();
    for _ in 0..reps {
        let (store, t) =
            rec.span("compress.plane_encode", |_| ResidentField3::from_field(field, base));
        enc.push(t);
        dec.push(rec.span("compress.plane_decode", |_| black_box(store.to_field())).1);
        lz.push(rec.span("compress.lz4", |_| black_box(lz4::compress_f32(field.raw()))).1);
    }
    (elems / median(&enc) / 1e6, elems / median(&dec) / 1e6, elems * 4.0 / median(&lz) / 1e6)
}

/// What the resident probe saw, per step.
#[derive(Debug, Clone, Copy)]
pub struct ResidentProbe {
    pub decode_s: f64,
    pub encode_s: f64,
    pub step_s: f64,
    /// (stores + slab) over the f32 bytes of the 15 dynamic fields.
    pub stored_ratio: f64,
}

/// Stream `state` through a compressed-resident engine under `cap`: one
/// warm step, then timed steps until `budget_s` is spent (at least one).
pub fn resident_probe(
    rec: &mut Recorder,
    state: &mut SolverState,
    sources: &[PointSource],
    cap: u64,
    budget_s: f64,
) -> ResidentProbe {
    let (mut engine, _) =
        rec.span("resident.engine_new", |_| ResidentEngine::new(state, Some(cap)));
    let dynamic_bytes: usize = [
        &state.u, &state.v, &state.w, &state.xx, &state.yy, &state.zz, &state.xy, &state.xz,
        &state.yz,
    ]
    .iter()
    .map(|f| f.resident_bytes())
    .chain(state.r.iter().map(Field3::resident_bytes))
    .sum();
    let stored: u64 =
        (0..15).map(|i| engine.stored_bytes(i)).sum::<u64>() + engine.working_set_bytes();
    let (mut decode, mut encode, mut step) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    for i in 0.. {
        let (_, step_s) = rec.span("resident.step", |_| {
            engine.begin_step();
            engine.velocity_sweep(state);
            engine.stress_sweep(state);
            engine.inject_sources(state, sources, i as f64 * state.dt);
            if engine.wants_plastic_sponge() {
                engine.plastic_sponge_sweep(state);
            }
        });
        // The first step pays the slab's first touch.
        if i > 0 {
            let perf = engine.perf();
            decode.push(perf.decode_s);
            encode.push(perf.encode_s);
            step.push(step_s);
            if t0.elapsed().as_secs_f64() > budget_s {
                break;
            }
        }
    }
    ResidentProbe {
        decode_s: median(&decode),
        encode_s: median(&encode),
        step_s: median(&step),
        stored_ratio: stored as f64 / dynamic_bytes as f64,
    }
}

/// What the checkpoint probe saw, per generation.
#[derive(Debug, Clone, Copy)]
pub struct IoProbe {
    pub encode_ms: f64,
    pub write_fsync_ms: f64,
    pub mib: f64,
    /// Raw f32 megabytes made durable per second of encode + write.
    pub mb_per_s: f64,
    pub restore_ms: f64,
}

/// Cut `gens` checkpoint generations of `sim` into a fresh store under
/// `dir` — snapshot, encode (LZ4 + checksum), atomic write + fsync,
/// manifest commit — then restore the newest into `sim`.
pub fn io_probe(
    rec: &mut Recorder,
    sim: &mut Simulation,
    dir: &Path,
    gens: usize,
) -> Result<IoProbe, String> {
    let store = CheckpointStore::create(dir, 3).map_err(|e| e.to_string())?;
    let (mut encode, mut write, mut mib, mut raw_mb) = (Vec::new(), Vec::new(), 0.0, 0.0);
    for g in 0..gens {
        let step = sim.step_count + g as u64;
        let (ckpt, _) = rec.span("io.ckpt_snapshot", |_| sim.make_checkpoint());
        let (bytes, encode_s) = rec.span("io.ckpt_encode", |_| ckpt.encode());
        let path = dir.join(CheckpointStore::rank_file_name(step, 0));
        let (result, write_s) = rec.span("io.ckpt_write_fsync", |_| {
            write_atomic(&path, &bytes).map_err(|e| e.to_string()).and_then(|()| {
                store.commit_generation(step, sim.time, 1).map_err(|e| e.to_string())
            })
        });
        result?;
        encode.push(encode_s);
        write.push(write_s);
        mib = bytes.len() as f64 / MIB;
        raw_mb = ckpt.raw_bytes() as f64 / 1e6;
    }
    let (restored, restore_s) = rec.span("io.restore", |_| {
        let generation = store.restore_newest_valid(1).map_err(|e| e.to_string())?;
        sim.restore(&generation.checkpoints[0]).map_err(|e| e.to_string())
    });
    restored?;
    let (encode_s, write_s) = (median(&encode), median(&write));
    Ok(IoProbe {
        encode_ms: encode_s * 1e3,
        write_fsync_ms: write_s * 1e3,
        mib,
        mb_per_s: raw_mb / (encode_s + write_s),
        restore_ms: restore_s * 1e3,
    })
}

/// Cost of opening and closing one empty parallel region at `threads`, µs.
pub fn pool_fanout_us(rec: &mut Recorder, threads: usize, regions: usize) -> f64 {
    let (_, total_s) = rec.span("pool.fanout", |_| {
        for _ in 0..regions {
            (0..threads).into_par_iter().for_each(|i| {
                black_box(i);
            });
        }
    });
    total_s / regions as f64 * 1e6
}

/// What the halo probe saw, per step (two exchanges: three velocity
/// fields, then six stress fields), on the critical rank.
#[derive(Debug, Clone, Copy)]
pub struct HaloProbe {
    pub pack_us: f64,
    pub wait_us: f64,
    pub unpack_us: f64,
    pub bytes_per_step: f64,
    pub msgs_per_step: f64,
}

/// Exchange the nine wavefield halos of a `mesh`³ domain split over a 2×1
/// rank grid, `steps` times. `post` is pack + send; `finish` is receive
/// wait + unpack, and the unpack part is replayed alone to split the two.
pub fn halo_probe(rec: &mut Recorder, mesh: usize, steps: usize) -> HaloProbe {
    let grid = RankGrid::new(2, 1);
    let global = Dims3::cube(mesh);
    let exchanger = HaloExchanger::standard();
    let per_rank: Vec<(Vec<[f64; 3]>, u64, u64)> = rec
        .span("halo.probe", |_| {
            run_ranks(grid, |comm| {
                let (_, _, dims) = grid.local_span(comm.rank, global);
                let mut fields: Vec<Field3> =
                    (0..9).map(|i| Field3::filled(dims, HALO_WIDTH, i as f32 + 1.0)).collect();
                let faces: Vec<Face> =
                    Face::ALL.into_iter().filter(|f| comm.has_neighbor(*f)).collect();
                let mut bytes = 0u64;
                for f in &fields {
                    let lens = exchanger.spec.face_len(f);
                    for face in &faces {
                        bytes += 4 * match face {
                            Face::West | Face::East => lens.x_face,
                            Face::South | Face::North => lens.y_face,
                        } as u64;
                    }
                }
                let mut samples = Vec::with_capacity(steps);
                for _ in 0..steps {
                    let (mut pack, mut finish, mut unpack) = (0.0, 0.0, 0.0);
                    let (velocity, stress) = fields.split_at_mut(3);
                    for group in [velocity, stress] {
                        let t = Instant::now();
                        exchanger.post(comm, &group.iter().collect::<Vec<&Field3>>());
                        pack += t.elapsed().as_secs_f64();
                        let t = Instant::now();
                        exchanger.finish(comm, &mut group.iter_mut().collect::<Vec<&mut Field3>>());
                        finish += t.elapsed().as_secs_f64();
                        // Replay the unpack alone, from this rank's own
                        // face data (same sizes as the neighbour's).
                        let mut buf = Vec::new();
                        for f in group.iter_mut() {
                            for face in &faces {
                                exchanger.spec.pack(f, *face, &mut buf);
                                let t = Instant::now();
                                exchanger.spec.unpack(f, *face, &buf);
                                unpack += t.elapsed().as_secs_f64();
                            }
                        }
                    }
                    samples.push([pack, finish, unpack]);
                }
                (samples, bytes, 2 * faces.len() as u64)
            })
        })
        .0;
    // Per step, the slowest rank sets the pace.
    let critical = |part: usize| -> f64 {
        let per_step: Vec<f64> = (0..steps)
            .map(|s| per_rank.iter().map(|(samples, ..)| samples[s][part]).fold(0.0, f64::max))
            .collect();
        median(&per_step) * 1e6
    };
    let (pack_us, finish_us, unpack_us) = (critical(0), critical(1), critical(2));
    HaloProbe {
        pack_us,
        wait_us: (finish_us - unpack_us).max(0.0),
        unpack_us,
        bytes_per_step: per_rank.iter().map(|(_, b, _)| *b as f64).sum(),
        msgs_per_step: per_rank.iter().map(|(_, _, m)| *m as f64).sum(),
    }
}

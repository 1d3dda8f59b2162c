//! `resident` — overhead and footprint of the compressed-resident
//! wavefield mode against the full f32 baseline.
//!
//! Times the complete per-step pipeline on a 48³ production-shaped mesh
//! (nonlinear + attenuation + sponge, real source) in both storage
//! modes and writes a [`BenchReport`] with five records:
//!
//! * `resident/full` / `resident/compressed16` — absolute seconds per
//!   step in each mode;
//! * `resident/compressed16_over_full` — the dimensionless step-time
//!   ratio (the decode/encode tax of streaming every tile through the
//!   f32 slab);
//! * `resident/footprint_ratio` — compressed dynamic bytes (16-bit
//!   stores + decode slab) over the full-mode dynamic f32 bytes: the
//!   memory the mode buys back, < 1.0 whenever the slab cap is tighter
//!   than the mesh;
//! * `resident/seismogram_misfit` — the normalized RMS misfit of the
//!   compressed run's seismogram against the full run's (the Fig. 6
//!   comparison quantity), recording the accuracy the overhead pays for.
//!
//! Usage: `bench_resident [out.json] [threads]` (defaults:
//! `BENCH_resident_new.json`, `min(cores, 4)` worker threads).

use std::time::Instant;

use sw_grid::Dims3;
use sw_io::Station;
use sw_model::LayeredModel;
use sw_source::{MomentTensor, PointSource, SourceTimeFunction};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use swquake_core::{ExecMode, ResidentMode, SimConfig, Simulation};

const SIDE: usize = 48;
const WARMUP_STEPS: usize = 3;
const TIMED_STEPS: usize = 60;
/// Slab cap that forces a narrow tile on the 48³ mesh, so the bench
/// exercises the streaming path rather than a whole-mesh slab.
const MEMORY_CAP: u64 = 2 << 20;

/// The production step shape (as in `bench_checkpoint_overhead`, minus
/// the §6.5 round trip, which the compressed-resident mode replaces).
fn bench_config() -> SimConfig {
    let mut cfg = SimConfig::new(Dims3::cube(SIDE), 100.0, WARMUP_STEPS + TIMED_STEPS);
    cfg.options.sponge_width = 8;
    cfg.options.attenuation = true;
    cfg.options.nonlinear = true;
    cfg.sources = vec![PointSource {
        ix: SIDE / 2,
        iy: SIDE / 2,
        iz: SIDE / 3,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14),
        stf: SourceTimeFunction::Triangle { onset: 0.02, duration: 0.3 },
    }];
    cfg.stations = vec![Station { name: "probe".to_string(), ix: SIDE / 2 + 6, iy: SIDE / 2 + 6 }];
    cfg.with_exec(ExecMode::Parallel)
}

/// Time the two modes in interleaved rounds so slow drift lands evenly.
fn time_variants() -> (Vec<Vec<f64>>, Vec<Simulation>) {
    const ROUND: usize = 10;
    let model = LayeredModel::north_china();
    let mut sims: Vec<Simulation> = [ResidentMode::Full, ResidentMode::Compressed16]
        .into_iter()
        .map(|mode| {
            let mut cfg = bench_config().with_resident(mode);
            if mode == ResidentMode::Compressed16 {
                cfg = cfg.with_memory_cap(MEMORY_CAP);
            }
            let mut sim = Simulation::new(&model, &cfg).expect("valid bench config");
            sim.run(WARMUP_STEPS);
            sim
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(TIMED_STEPS); sims.len()];
    for _round in 0..TIMED_STEPS / ROUND {
        for (sim, out) in sims.iter_mut().zip(&mut samples) {
            for _ in 0..ROUND {
                let t0 = Instant::now();
                sim.step();
                out.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    (samples, sims)
}

fn record(name: &str, samples: &[f64]) -> BenchRecord {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = swq_bench::median(&sorted);
    BenchRecord {
        name: name.to_string(),
        samples: n as u64,
        median_s: median,
        mean_s: sorted.iter().sum::<f64>() / n as f64,
        min_s: sorted[0],
        max_s: sorted[n - 1],
        throughput: (SIDE * SIDE * SIDE) as f64,
        throughput_unit: "elements".to_string(),
        tolerance: None,
        host: None,
    }
}

fn scalar_record(name: &str, value: f64, samples: u64) -> BenchRecord {
    BenchRecord {
        name: name.to_string(),
        samples,
        median_s: value,
        mean_s: value,
        min_s: value,
        max_s: value,
        throughput: 1.0,
        throughput_unit: "ratio".to_string(),
        tolerance: None,
        host: None,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_resident_new.json".to_string());
    swq_bench::pin_pool(args.next());
    println!(
        "resident: {SIDE}^3 mesh, {TIMED_STEPS} timed steps per mode, {} worker threads, \
         compressed16 slab cap {} MiB",
        rayon::current_num_threads(),
        MEMORY_CAP >> 20
    );

    let (samples, sims) = time_variants();
    let full = record("resident/full", &samples[0]);
    let compressed = record("resident/compressed16", &samples[1]);
    let overhead = scalar_record(
        "resident/compressed16_over_full",
        compressed.mean_s / full.mean_s,
        compressed.samples,
    );

    // Footprint: full-mode dynamic f32 bytes (15 padded fields) vs the
    // compressed stores plus the bounded decode slab.
    let full_dynamic: u64 = {
        let s = &sims[0].state;
        let fields = [&s.u, &s.v, &s.w, &s.xx, &s.yy, &s.zz, &s.xy, &s.xz, &s.yz];
        let wave: u64 = fields.iter().map(|f| f.resident_bytes() as u64).sum();
        wave + s.r.iter().map(|f| f.resident_bytes() as u64).sum::<u64>()
    };
    let compressed_dynamic = sims[1].resident_stored_bytes().expect("compressed mode")
        + sims[1].resident_working_set_bytes().expect("compressed mode");
    let footprint = scalar_record(
        "resident/footprint_ratio",
        compressed_dynamic as f64 / full_dynamic as f64,
        1,
    );

    let reference = &sims[0].seismo.seismograms()[0];
    let misfit = sims[1].seismo.seismograms()[0].normalized_misfit(reference);
    let misfit_rec = scalar_record("resident/seismogram_misfit", misfit, 1);

    println!(
        "full {:.4} s/step, compressed16 {:.4} s/step ({:.2}x), footprint {:.3}x \
         ({} -> {} dynamic bytes), seismogram misfit {:.3e}",
        full.mean_s,
        compressed.mean_s,
        overhead.median_s,
        footprint.median_s,
        full_dynamic,
        compressed_dynamic,
        misfit
    );

    let mut report = BenchReport::new();
    report.records = vec![full, compressed, overhead, footprint, misfit_rec];
    report.write_file(std::path::Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} (5 records)");
}

//! `resident` — overhead and footprint of the compressed-resident
//! wavefield mode against the full f32 baseline.
//!
//! Times the complete per-step pipeline on a production-shaped mesh
//! (nonlinear + attenuation + sponge, real source) in both storage
//! modes — 48³ under a slab cap that forces a narrow tile, and 128³ at
//! the default tile width (the mesh size ROADMAP item 3's keep-or-cut
//! gate is stated on) — and the plane codec on its own. Both modes step
//! on the calling thread (`ExecMode::Serial`): the resident sweeps never
//! open a pool region, so the ratio is the streaming and codec tax at
//! equal parallelism and does not move with the number of cores the host
//! happens to have free (a pooled full step is further ahead by whatever
//! the pool gains on that host). The [`BenchReport`] holds
//!
//! * `resident/full`, `resident/compressed16` (and `…_128`) — absolute
//!   seconds per step in each mode, host-stamped (a diff against another
//!   host's baseline skips them);
//! * `resident/compressed16_over_full` (and `…_128`) — the dimensionless
//!   step-time ratio of the medians: the decode/encode tax of streaming
//!   every tile through the f32 slab;
//! * `resident/footprint_ratio` (and `…_128`) — compressed dynamic bytes
//!   (16-bit stores + decode slab) over the full-mode dynamic f32 bytes:
//!   the memory the mode buys back;
//! * `resident/plane_encode_over_decode` — time to encode every plane of
//!   the nine wavefields of a step-30 run (calibration scan +
//!   `encode_slice`, as an unsampled step does it) over the time to
//!   decode them. A ratio far above the committed one means the encode
//!   side grew a pass again;
//! * `resident/seismogram_misfit` — the normalized RMS misfit of the
//!   48³ compressed run's seismogram against the full run's (the Fig. 6
//!   comparison quantity), recording the accuracy the overhead pays for;
//! * `resident/{plane_encode,plane_decode,compressed16,compressed16_128}/wide_over_baseline`
//!   — the plane passes and the compressed step dispatched to the host's
//!   lane tier over the same code under the baseline cap
//!   (`swq_bench::wide_over_baseline`; stamped with the tier): 1.0 means
//!   the codec loops no longer inline into `sw_grid::simd::wide`.
//!
//! The ratios carry a tolerance of `1/0.7 − 1` for `inspect --diff` against
//! the committed `BENCH_resident.json`.
//!
//! Usage: `bench_resident [out.json] [threads]` (defaults:
//! `BENCH_resident_new.json`, `min(cores, 4)` worker threads).

use std::hint::black_box;
use std::time::Instant;

use sw_compress::{Codec, FieldStats, ResidentField3};
use sw_grid::simd::{cap_lanes, per_tier, LaneTier};
use sw_grid::Dims3;
use sw_io::Station;
use sw_model::LayeredModel;
use sw_source::{MomentTensor, PointSource, SourceTimeFunction};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use sw_telemetry::perf::HostFingerprint;
use swq_bench::ratio_record;
use swquake_core::driver::COMPRESSED_FIELDS;
use swquake_core::{ExecMode, ResidentMode, SimConfig, Simulation};

/// One timed mesh: side, slab cap, untimed and timed steps per mode, and
/// the steps each mode runs before the other takes its turn.
struct Mesh {
    suffix: &'static str,
    side: usize,
    cap: Option<u64>,
    warmup: usize,
    timed: usize,
    round: usize,
}

/// A cap that forces a narrow tile, so the bench exercises the streaming
/// path rather than a whole-mesh slab.
const CAPPED: Mesh =
    Mesh { suffix: "", side: 48, cap: Some(2 << 20), warmup: 3, timed: 60, round: 10 };
/// ROADMAP item 3's gate mesh at the default tile width.
const LARGE: Mesh = Mesh { suffix: "_128", side: 128, cap: None, warmup: 2, timed: 10, round: 5 };

/// The plane codec probe: steps before the wavefields are taken, reps.
const PLANE_STEPS: usize = 30;
const PLANE_REPS: usize = 15;

/// Same-host reruns of the absolute records are noisy; the ratios gate.
const ABSOLUTE_TOLERANCE: f64 = 10.0;

/// The production step shape (as in `bench_checkpoint_overhead`, minus
/// the §6.5 round trip, which the compressed-resident mode replaces), on
/// the calling thread.
fn bench_config(side: usize, steps: usize) -> SimConfig {
    let mut cfg = SimConfig::new(Dims3::cube(side), 100.0, steps);
    cfg.options.sponge_width = 8;
    cfg.options.attenuation = true;
    cfg.options.nonlinear = true;
    cfg.sources = vec![PointSource {
        ix: side / 2,
        iy: side / 2,
        iz: side / 3,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14),
        stf: SourceTimeFunction::Triangle { onset: 0.02, duration: 0.3 },
    }];
    cfg.stations = vec![Station { name: "probe".to_string(), ix: side / 2 + 6, iy: side / 2 + 6 }];
    cfg.with_exec(ExecMode::Serial)
}

/// The timed variants: both modes as a run dispatches them, and the
/// compressed mode once more under the baseline lane cap.
const VARIANTS: [(ResidentMode, Option<LaneTier>); 3] = [
    (ResidentMode::Full, None),
    (ResidentMode::Compressed16, None),
    (ResidentMode::Compressed16, Some(LaneTier::Baseline)),
];

/// Time the variants in interleaved rounds so slow drift lands evenly.
fn time_variants(mesh: &Mesh) -> (Vec<Vec<f64>>, Vec<Simulation>) {
    let model = LayeredModel::north_china();
    let mut sims: Vec<Simulation> = VARIANTS
        .into_iter()
        .map(|(mode, _)| {
            let mut cfg = bench_config(mesh.side, mesh.warmup + mesh.timed).with_resident(mode);
            if let (ResidentMode::Compressed16, Some(cap)) = (mode, mesh.cap) {
                cfg = cfg.with_memory_cap(cap);
            }
            let mut sim = Simulation::new(&model, &cfg).expect("valid bench config");
            sim.run(mesh.warmup);
            sim
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(mesh.timed); sims.len()];
    for _round in 0..mesh.timed / mesh.round {
        for ((sim, out), (_, cap)) in sims.iter_mut().zip(&mut samples).zip(VARIANTS) {
            let _cap = cap.map(cap_lanes);
            for _ in 0..mesh.round {
                let t0 = Instant::now();
                sim.step();
                out.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    (samples, sims)
}

fn record(name: String, samples: &[f64], elems: usize, host: &str) -> BenchRecord {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    BenchRecord {
        name,
        samples: n as u64,
        median_s: swq_bench::median(&sorted),
        mean_s: sorted.iter().sum::<f64>() / n as f64,
        min_s: sorted[0],
        max_s: sorted[n - 1],
        throughput: elems as f64,
        throughput_unit: "elements".to_string(),
        tolerance: Some(ABSOLUTE_TOLERANCE),
        host: Some(host.to_string()),
    }
}

/// The step-time and footprint records of one mesh, plus its
/// simulations in [`VARIANTS`] order (the caller reads the seismograms of
/// the first two).
fn mesh_records(mesh: &Mesh, host: &str) -> (Vec<BenchRecord>, Vec<Simulation>) {
    let (samples, sims) = time_variants(mesh);
    let cells = mesh.side.pow(3);
    let sfx = mesh.suffix;
    let full = record(format!("resident/full{sfx}"), &samples[0], cells, host);
    let compressed = record(format!("resident/compressed16{sfx}"), &samples[1], cells, host);
    let overhead = ratio_record(
        format!("resident/compressed16_over_full{sfx}"),
        compressed.median_s / full.median_s,
        compressed.samples,
    );

    // Footprint: full-mode dynamic f32 bytes (15 padded fields) vs the
    // compressed stores plus the bounded decode slab.
    let full_dynamic: u64 = sims[0].state.dynamic().iter().map(|f| f.resident_bytes() as u64).sum();
    let compressed_dynamic = sims[1].resident_stored_bytes().expect("compressed mode")
        + sims[1].resident_working_set_bytes().expect("compressed mode");
    let footprint = ratio_record(
        format!("resident/footprint_ratio{sfx}"),
        compressed_dynamic as f64 / full_dynamic as f64,
        1,
    );
    println!(
        "{side}^3 ({tile}): full {:.4} s/step, compressed16 {:.4} s/step ({:.2}x), footprint \
         {:.3}x ({full_dynamic} -> {compressed_dynamic} dynamic bytes)",
        full.median_s,
        compressed.median_s,
        overhead.median_s,
        footprint.median_s,
        side = mesh.side,
        tile = mesh.cap.map_or("default tile".to_string(), |c| format!("{} MiB slab", c >> 20)),
    );
    let capped = swq_bench::median_of(&samples[2]);
    let wide = swq_bench::wide_over_baseline(
        &format!("resident/compressed16{sfx}"),
        compressed.median_s,
        capped,
        compressed.samples,
    );
    println!(
        "        compressed16 under the baseline lane cap {capped:.4} s/step (wide {:.2}x)",
        1.0 / wide.median_s
    );
    (vec![full, compressed, overhead, footprint, wide], sims)
}

/// `(encode seconds, decode seconds)` of one pass over every plane.
type PlaneTimes = (f64, f64);

/// Encode and decode every padded plane of the nine wavefields of a
/// full-mode run at step [`PLANE_STEPS`], each under its Fig. 5d codec:
/// `(encode seconds, decode seconds)` per pass under each lane tier the
/// host offers (baseline first), medians over [`PLANE_REPS`] interleaved
/// passes, and the values in a pass.
fn plane_codec_times() -> (Vec<(LaneTier, PlaneTimes)>, usize) {
    let model = LayeredModel::north_china();
    let mut sim = Simulation::new(&model, &bench_config(CAPPED.side, PLANE_STEPS))
        .expect("valid bench config");
    sim.run(PLANE_STEPS);
    let dynamic = sim.state.dynamic();
    let fields = &dynamic[..COMPRESSED_FIELDS.len()];
    let mut stores: Vec<ResidentField3> = COMPRESSED_FIELDS
        .iter()
        .zip(fields)
        .map(|(name, f)| {
            ResidentField3::from_field(f, Codec::paper_assignment(name, &FieldStats::empty()))
        })
        .collect();
    let mut plane = vec![0.0f32; stores[0].plane_len()];
    let values = fields.iter().map(|f| f.raw().len()).sum();
    let tiers = per_tier(|_| {
        let (mut encode, mut decode) = (Vec::new(), Vec::new());
        for _ in 0..PLANE_REPS {
            let t0 = Instant::now();
            for (store, f) in stores.iter_mut().zip(fields) {
                for p in 0..store.plane_count() {
                    black_box(store.encode_plane(p, f.plane(p)));
                }
            }
            encode.push(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            for store in &stores {
                for p in 0..store.plane_count() {
                    store.decode_plane_into(p, &mut plane);
                    black_box(&plane);
                }
            }
            decode.push(t1.elapsed().as_secs_f64());
        }
        (swq_bench::median_of(&encode), swq_bench::median_of(&decode))
    });
    (tiers, values)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_resident_new.json".to_string());
    let threads = swq_bench::pin_pool(args.next());
    let host = HostFingerprint::detect(threads as u64).id();
    println!("resident: {threads} worker threads, host {host}, lane tier {}", LaneTier::detected());

    let mut report = BenchReport::new();
    let (records, sims) = mesh_records(&CAPPED, &host);
    report.records.extend(records);
    let reference = &sims[0].seismo.seismograms()[0];
    let misfit = sims[1].seismo.seismograms()[0].normalized_misfit(reference);
    println!("seismogram misfit {misfit:.3e}");
    drop(sims);
    report.records.extend(mesh_records(&LARGE, &host).0);

    let (tiers, values) = plane_codec_times();
    for (tier, (encode_s, decode_s)) in &tiers {
        println!(
            "plane codec on {values} values, {tier}: encode {:.0} Melem/s, decode {:.0} Melem/s \
             ({:.2}x)",
            values as f64 / encode_s / 1e6,
            values as f64 / decode_s / 1e6,
            encode_s / decode_s
        );
    }
    let (base_encode_s, base_decode_s) = tiers[0].1;
    let (encode_s, decode_s) = tiers[tiers.len() - 1].1;
    let reps = PLANE_REPS as u64;
    report.records.extend([
        ratio_record("resident/plane_encode_over_decode".to_string(), encode_s / decode_s, reps),
        swq_bench::wide_over_baseline("resident/plane_encode", encode_s, base_encode_s, reps),
        swq_bench::wide_over_baseline("resident/plane_decode", decode_s, base_decode_s, reps),
    ]);
    report.records.push(ratio_record("resident/seismogram_misfit".to_string(), misfit, 1));

    let n = report.records.len();
    report.write_file(std::path::Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} ({n} records)");
}

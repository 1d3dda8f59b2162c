//! Durability of the checkpoint path: fuzz-style decoder hardening
//! (truncation at every byte boundary, seeded bit flips — never a
//! panic, always a classified error), property-style round trips for
//! the LZ4 codec and the checkpoint container over seeded shapes, the
//! manifest schema golden file, and the headline crash-consistency
//! property — a resumed run is bit-identical to an uninterrupted one in
//! both exec modes, down to the recorder state.

use std::path::PathBuf;

use swquake::compress::lz4;
use swquake::core::driver::run_multirank;
use swquake::core::{ExecMode, SimConfig, Simulation, SolverState};
use swquake::grid::{Dims3, Field3};
use swquake::io::checkpoint::Checkpoint;
use swquake::io::recorder::Seismogram;
use swquake::io::store::{Manifest, ManifestGeneration, MANIFEST_SCHEMA_VERSION};
use swquake::io::Station;
use swquake::model::LayeredModel;
use swquake::parallel::RankGrid;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};

/// SplitMix64: the same tiny deterministic generator `sw-fault` uses,
/// so the fuzz corpus is reproducible from the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn f32(&mut self) -> f32 {
        // Mix magnitudes from subnormal to ~1e6, signed.
        let m = (self.next() % 2000) as f32 / 100.0 - 10.0;
        let v = m.exp2() * if self.next().is_multiple_of(2) { 1.0 } else { -1.0 };
        if self.next().is_multiple_of(97) {
            0.0
        } else {
            v
        }
    }
}

fn sample_checkpoint(seed: u64, dims: Dims3, halo: usize, with_aux: bool) -> Checkpoint {
    let mut rng = Rng(seed);
    let mut fields = Vec::new();
    for name in ["u", "xx", "eqp"] {
        // Fill the interior only: the encoder stores interior cells and
        // the decoder re-derives halos, so halo garbage can't round-trip.
        let mut f = Field3::new(dims, halo);
        for x in 0..dims.nx {
            for y in 0..dims.ny {
                for z in 0..dims.nz {
                    f.set(x, y, z, rng.f32());
                }
            }
        }
        fields.push((name.to_string(), f));
    }
    let (seismograms, pgv) = if with_aux {
        let seismo = Seismogram {
            station: Station { name: "S".into(), ix: 1, iy: 2 },
            dt: 0.01,
            samples: (0..17).map(|_| [rng.f32(), rng.f32(), rng.f32()]).collect(),
        };
        let pgv = (0..dims.nx * dims.ny).map(|_| rng.f32().abs()).collect();
        (vec![seismo], Some((dims.nx, dims.ny, pgv)))
    } else {
        (Vec::new(), None)
    };
    Checkpoint { step: 42, time: 1.625, flops: 3.5e9, fields, seismograms, pgv }
}

/// Truncation at EVERY byte boundary is a classified decode error —
/// never a panic, never a silent partial decode.
#[test]
fn truncation_at_every_byte_is_a_classified_error() {
    let ckpt = sample_checkpoint(7, Dims3::new(5, 4, 3), 1, true);
    let bytes = ckpt.encode();
    assert_eq!(Checkpoint::decode(&bytes).unwrap(), ckpt, "full image must decode");
    for len in 0..bytes.len() {
        let result = std::panic::catch_unwind(|| Checkpoint::decode(&bytes[..len]));
        let decoded = result.unwrap_or_else(|_| panic!("decoder panicked at truncation {len}"));
        assert!(decoded.is_err(), "truncation to {len}/{} bytes decoded", bytes.len());
    }
}

/// Seeded single- and multi-bit flips anywhere in the image (payload,
/// lengths, checksums) are classified errors, never panics. The
/// whole-file checksum is verified before any parsing, so corrupt
/// length fields can't drive huge allocations either.
#[test]
fn seeded_bit_flips_are_classified_errors() {
    let ckpt = sample_checkpoint(11, Dims3::new(4, 5, 6), 2, true);
    let pristine = ckpt.encode();
    let mut rng = Rng(0xF11B_5EED);
    for case in 0..600 {
        let mut bytes = pristine.clone();
        let flips = 1 + rng.below(3);
        for _ in 0..flips {
            let byte = rng.below(bytes.len());
            let bit = rng.below(8);
            bytes[byte] ^= 1 << bit;
        }
        let result = std::panic::catch_unwind(|| Checkpoint::decode(&bytes));
        let decoded = result.unwrap_or_else(|_| panic!("decoder panicked on flip case {case}"));
        assert!(decoded.is_err(), "flip case {case} decoded as valid");
    }
}

/// LZ4 codec property: compress → decompress is the identity over
/// seeded buffers of every texture the checkpointer produces — empty,
/// constant runs, random bytes, and f32 wavefield-like data.
#[test]
fn lz4_round_trips_seeded_buffers() {
    let mut rng = Rng(23);
    // Byte-level corpus.
    let mut corpus: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0u8; 1],
        vec![0u8; 4096],
        vec![0xAB; 777],
        (0..=255u8).cycle().take(3000).collect(),
    ];
    for _ in 0..20 {
        let n = rng.below(5000);
        // Mix compressible runs and incompressible noise.
        let mut buf = Vec::with_capacity(n);
        while buf.len() < n {
            if rng.next().is_multiple_of(3) {
                let run = 1 + rng.below(64);
                let b = (rng.next() & 0xFF) as u8;
                buf.extend(std::iter::repeat_n(b, run.min(n - buf.len())));
            } else {
                buf.push((rng.next() & 0xFF) as u8);
            }
        }
        corpus.push(buf);
    }
    for (i, buf) in corpus.iter().enumerate() {
        let packed = lz4::compress(buf);
        let back = lz4::decompress(&packed).unwrap_or_else(|e| panic!("case {i}: {e}"));
        assert_eq!(&back, buf, "case {i}: LZ4 round trip diverged");
    }
    // f32-level corpus (what checkpoints actually store).
    for _ in 0..10 {
        let n = rng.below(4000);
        let vals: Vec<f32> = (0..n).map(|_| rng.f32()).collect();
        let packed = lz4::compress_f32(&vals);
        let back = lz4::decompress_f32(&packed).expect("decompress_f32");
        assert_eq!(back.len(), vals.len());
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "f32 round trip must be bit-exact");
        }
    }
}

/// Checkpoint container property: encode → decode is the identity over
/// seeded field shapes and halos, with and without the recorder
/// sections.
#[test]
fn checkpoint_round_trips_over_seeded_shapes() {
    let mut rng = Rng(31);
    for case in 0..24 {
        let dims = Dims3::new(1 + rng.below(7), 1 + rng.below(7), 1 + rng.below(7));
        let halo = rng.below(3);
        let with_aux = case % 2 == 0;
        let ckpt = sample_checkpoint(rng.next(), dims, halo, with_aux);
        let back = Checkpoint::decode(&ckpt.encode())
            .unwrap_or_else(|e| panic!("case {case} ({dims:?}, halo {halo}): {e}"));
        assert_eq!(back, ckpt, "case {case}: round trip diverged");
    }
}

/// The manifest schema is a stable on-disk contract: this is its golden
/// file. If this test fails, you changed the serialised shape — bump
/// `MANIFEST_SCHEMA_VERSION` and migrate readers.
#[test]
fn manifest_schema_golden_file() {
    let manifest = Manifest {
        schema_version: MANIFEST_SCHEMA_VERSION,
        keep: 3,
        generations: vec![
            ManifestGeneration {
                step: 50,
                time: 0.5,
                ranks: 1,
                files: vec!["ckpt-00000050-r0.swq".to_string()],
                encoded_bytes: 1024,
            },
            ManifestGeneration {
                step: 100,
                time: 1.25,
                ranks: 4,
                files: vec![
                    "ckpt-00000100-r0.swq".to_string(),
                    "ckpt-00000100-r1.swq".to_string(),
                    "ckpt-00000100-r2.swq".to_string(),
                    "ckpt-00000100-r3.swq".to_string(),
                ],
                encoded_bytes: 4096,
            },
        ],
    };
    let golden = r#"{
  "schema_version": 1,
  "keep": 3,
  "generations": [
    {
      "step": 50,
      "time": 0.5,
      "ranks": 1,
      "files": [
        "ckpt-00000050-r0.swq"
      ],
      "encoded_bytes": 1024
    },
    {
      "step": 100,
      "time": 1.25,
      "ranks": 4,
      "files": [
        "ckpt-00000100-r0.swq",
        "ckpt-00000100-r1.swq",
        "ckpt-00000100-r2.swq",
        "ckpt-00000100-r3.swq"
      ],
      "encoded_bytes": 4096
    }
  ]
}"#;
    assert_eq!(serde_json::to_string_pretty(&manifest).unwrap(), golden);
    // And the golden text parses back to the same manifest (the resume
    // path's direction).
    let back: Manifest = serde_json::from_str(golden).unwrap();
    assert_eq!(back, manifest);
}

fn drill_config(steps: usize, exec: ExecMode) -> SimConfig {
    let dims = Dims3::new(20, 18, 12);
    let mut cfg = SimConfig::new(dims, 150.0, steps).with_exec(exec).with_compression(true);
    cfg.options.sponge_width = 4;
    cfg.options.attenuation = true;
    cfg.sources = vec![PointSource {
        ix: 10,
        iy: 9,
        iz: 6,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14),
        stf: SourceTimeFunction::Triangle { onset: 0.05, duration: 0.5 },
    }];
    cfg.stations = vec![Station { name: "A".into(), ix: 5, iy: 5 }];
    cfg
}

fn workdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("swquake_durability_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The headline property: kill a persisting run after a committed
/// generation, resume from disk, and everything — wavefields,
/// seismogram samples, PGV accumulator, flop totals — is bit-identical
/// to the uninterrupted run. Holds in both exec modes.
#[test]
fn resumed_runs_are_bit_identical_in_both_exec_modes() {
    for exec in [ExecMode::Serial, ExecMode::Parallel] {
        let dir = workdir(&format!("resume_{exec:?}"));
        let model = LayeredModel::north_china();
        let cfg = drill_config(40, exec);

        let mut reference = Simulation::new(&model, &cfg).unwrap();
        reference.run(cfg.steps);

        // First attempt: persist every 10 steps, "die" after step 20.
        let persisting = cfg.clone().with_checkpoint_dir(&dir).with_checkpoint_interval(10);
        {
            let mut first = Simulation::new(&model, &persisting).unwrap();
            first.run(20);
        } // dropped mid-campaign: the store holds generations 10 and 20

        let mut resumed = Simulation::new(&model, &persisting.with_resume(true)).unwrap();
        let info = resumed.resumed().expect("a resumed simulation");
        assert_eq!(info.step, 20, "newest committed generation");
        assert!(info.skipped.is_empty(), "nothing was corrupt: {:?}", info.skipped);
        assert_eq!(resumed.step_count, 20);
        resumed.run(cfg.steps - 20);

        for ((name, _, a), (_, _, b)) in reference.state.arrays().zip(resumed.state.arrays()) {
            assert_eq!(a.max_abs_diff(b), 0.0, "{exec:?}: `{name}` diverged");
        }
        let (a, b) = (reference.seismo.get("A").unwrap(), resumed.seismo.get("A").unwrap());
        assert_eq!(a.samples, b.samples, "{exec:?}: seismogram history diverged");
        assert_eq!(reference.pgv.pgv, resumed.pgv.pgv, "{exec:?}: hazard accumulator diverged");
        assert_eq!(reference.flops.flops, resumed.flops.flops, "{exec:?}: flop ledger diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `SimConfig::resume` is the one resume switch: the same store resumed
/// through `Simulation::new`, `Simulation::new_with_state` and a 1x1
/// `run_multirank` starts at the same step from bit-identical state, and
/// every one ends where the uninterrupted run does.
#[test]
fn every_entry_point_honours_the_resume_switch() {
    let dir = workdir("one_switch");
    let model = LayeredModel::north_china();
    let cfg = drill_config(40, ExecMode::Serial);
    let mut reference = Simulation::new(&model, &cfg).unwrap();
    reference.run(cfg.steps);
    let reference = reference.finish().unwrap();

    let persisting = cfg.clone().with_checkpoint_dir(&dir).with_checkpoint_interval(10);
    Simulation::new(&model, &persisting).unwrap().run(25);
    // A cadence of 0 cuts nothing, so every entry point finds the store
    // the killed run left: generations 10 and 20.
    let resuming = persisting.with_checkpoint_interval(0).with_resume(true);
    let mut built = Simulation::new(&model, &resuming).unwrap();
    let state = SolverState::from_model(&model, cfg.dims, cfg.dx, cfg.origin, cfg.options);
    let handed = Simulation::new_with_state(state, &resuming).unwrap();
    assert_eq!((built.step_count, handed.step_count), (20, 20));
    for ((name, _, a), (_, _, b)) in built.state.arrays().zip(handed.state.arrays()) {
        assert_eq!(a.max_abs_diff(b), 0.0, "`{name}` differs between the constructors");
    }
    built.run(cfg.steps - 20);
    let single = built.finish().unwrap();
    let grid = run_multirank(&model, &resuming, RankGrid::new(1, 1)).unwrap();
    for out in [single, grid] {
        assert_eq!(out.resume.map(|info| info.step), Some(20));
        assert_eq!(out.seismograms, reference.seismograms, "seismograms diverged");
        assert_eq!(out.pgv.pgv, reference.pgv.pgv, "hazard map diverged");
        assert_eq!(out.flops, reference.flops, "flop ledger diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

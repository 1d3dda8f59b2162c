//! One body per kernel, pinned against the naive reference; one answer
//! per run, whoever computes it.
//!
//! `swquake-core` writes each stencil kernel once (a lane-generic plane
//! body, `crates/core/src/kernels/`) and only chooses who walks the
//! x-planes. The **oracle half** runs that body — per kernel and over
//! five full steps — on the calling thread and through the pool at widths
//! 1 to 4 (3 puts seams between slabs of unequal length), under every
//! physics combination, on meshes chosen to hit the vector tail
//! (`nz % 8 ≠ 0`), rows shorter than one vector (`nz < 8`), meshes below
//! and above one y-tile, forced 5 × 16 tiles whose edges cross the mesh,
//! `ny = 1..4` (where the `dvelcx` / `dvelcy` split degenerates) and
//! sponge widths 0 and 3, and compares **every bit of every array the
//! state carries, halo planes included** with `tests/oracle/kernels.rs` —
//! once under the baseline lane cap (the code every host without AVX2
//! runs) and once per wider lane tier this host offers
//! (`sw_grid::simd`). Two more axes pin the one list of arrays: the
//! sponge's tabulated taper against the oracle's whole-mesh profile over
//! the geometries that bend it (no sponge, overlapping bands, a non-cubic
//! mesh, rank pieces, a width far beyond the mesh), and the set of arrays
//! each physics allocates — and that a step touches no other.
//!
//! The **run half** — whole runs of the production config along the
//! exec, lane-tier, rank, store, restart and health axes — is
//! `tests/matrix/`, checked by `tests/{exec,parallel,resident}_equivalence.rs`.

mod oracle;

use oracle::kernels as naive;
use std::sync::Mutex;
use swquake::compress::{calibrated_codec, max_abs_bucket, Codec, Codec16, FieldStats};
use swquake::core::driver::{run_multirank, COMPRESSED_FIELDS};
use swquake::core::kernels::{self, Region};
use swquake::core::state::{self, ArrayClass, PlasticityConfig, SolverState, StateOptions};
use swquake::core::{ExecMode, ExecPath, ResidentMode, SimConfig, Simulation};
use swquake::grid::simd::{per_tier, LaneTier};
use swquake::grid::{hugepage, Dims3, Field3, HALO_WIDTH, PHASE_TURN};
use swquake::model::LayeredModel;
use swquake::parallel::RankGrid;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};

/// The pool width is process-wide; tests that set it take turns.
static POOL: Mutex<()> = Mutex::new(());

fn with_pool_width<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _turn = POOL.lock().unwrap_or_else(|e| e.into_inner());
    rayon::ThreadPoolBuilder::new().num_threads(threads).build_global().unwrap();
    f()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Physics {
    Elastic,
    Attenuation,
    /// Plasticity over an elastic medium: no memory variable, no Q weight.
    Nonlinear,
    NonlinearAttenuation,
    /// … plus the §6.5 inter-step compression round trip (full steps only).
    NonlinearAttenuationCompressed,
}

impl Physics {
    const KERNEL_LEVEL: [Physics; 4] =
        [Physics::Elastic, Physics::Attenuation, Physics::Nonlinear, Physics::NonlinearAttenuation];
    const ALL: [Physics; 5] = [
        Physics::Elastic,
        Physics::Attenuation,
        Physics::Nonlinear,
        Physics::NonlinearAttenuation,
        Physics::NonlinearAttenuationCompressed,
    ];

    fn options(self, sponge_width: usize) -> StateOptions {
        StateOptions {
            attenuation: !matches!(self, Physics::Elastic | Physics::Nonlinear),
            nonlinear: !matches!(self, Physics::Elastic | Physics::Attenuation),
            sponge_width,
            plasticity: PlasticityConfig {
                cohesion_surface: 1.0e5,
                cohesion_gradient: 0.0,
                friction_angle_deg: 30.0,
                fluid_pressure_ratio: 0.0,
            },
            ..Default::default()
        }
    }
}

/// Meshes of the matrix.
const MESHES: [(usize, usize, usize); 8] = [
    (6, 5, 19),  // nz % 8 = 3: two vectors and a tail
    (5, 7, 5),   // nz < 8: tail only
    (4, 40, 9),  // ny above one 32-row y-tile
    (4, 12, 37), // edges of forced 5 x 16 tiles cross the mesh
    (5, 1, 9),   // ny = 1: dvelcy owns nothing
    (5, 2, 9),   // ny = 2: dvelcx owns nothing
    (5, 3, 9),   // ny = 3: one-row strips
    (5, 4, 9),   // ny = 4: the strips meet
];

/// Fill every stored value of `f`, halo included, with seeded noise.
fn noise(f: &mut Field3, seed: u32, scale: f32) {
    let mut s = seed.wrapping_mul(2_654_435_761).wrapping_add(12_345);
    for v in f.raw_mut() {
        s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        *v = ((s >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * scale;
    }
}

/// A state whose dynamic arrays (and `eqp`) carry noise in every cell —
/// so a wrong tap, a skipped row or a missed halo plane shows. (Filling a
/// detached array fills nothing.)
fn noisy_state(dims: (usize, usize, usize), physics: Physics, sponge_width: usize) -> SolverState {
    noisy(Dims3::new(dims.0, dims.1, dims.2), physics.options(sponge_width))
}

fn noisy(dims: Dims3, options: StateOptions) -> SolverState {
    let model = LayeredModel::north_china();
    let mut s = SolverState::from_model(&model, dims, 150.0, (0.0, 0.0, 0.0), options);
    let scales = [0.02, 0.02, 0.02, 4e6, 4e6, 4e6, 4e6, 4e6, 4e6, 2e3, 2e3, 2e3, 2e3, 2e3, 2e3];
    for (i, (f, scale)) in s.dynamic_mut().into_iter().zip(scales).enumerate() {
        noise(f, i as u32 + 1, scale);
    }
    noise(&mut s.eqp, 99, 1e-6);
    s
}

/// Every stored bit of every array the two states carry — the same ones.
fn assert_bitwise(reference: &SolverState, got: &SolverState, what: &str) {
    assert_eq!(reference.arrays().count(), got.arrays().count(), "{what}: an array came or went");
    for ((name, _, a), (other, _, b)) in reference.arrays().zip(got.arrays()) {
        assert_eq!(name, other, "{what}: the states carry different arrays");
        let first = a.raw().iter().zip(b.raw()).position(|(x, y)| x.to_bits() != y.to_bits());
        assert_eq!(first, None, "{what}: `{name}` differs from the oracle at raw index {first:?}");
    }
}

/// One kernel, product vs oracle, from the same noisy state.
fn check_kernel(
    base: &SolverState,
    what: &str,
    reference: impl FnOnce(&mut SolverState) -> usize,
    product: impl FnOnce(&mut SolverState) -> usize,
) {
    let (mut want, mut got) = (base.clone(), base.clone());
    let (n_want, n_got) = (reference(&mut want), product(&mut got));
    assert_eq!(n_want, n_got, "{what}: yield count");
    assert_bitwise(&want, &got, what);
}

fn check_every_kernel(
    tier: LaneTier,
    dims: (usize, usize, usize),
    physics: Physics,
    sponge: usize,
    pool: bool,
) {
    let what =
        |k: &str| format!("{k} on {dims:?} {physics:?} sponge {sponge} pool {pool} lanes {tier}");
    let base = noisy_state(dims, physics, sponge);
    let d = base.dims;
    let whole = Region::whole(d);
    let tiled = Region { tile_y: 5, tile_z: 16, ..Region::whole(d) };
    let unit = |f: fn(&mut SolverState)| {
        move |s: &mut SolverState| -> usize {
            f(s);
            0
        }
    };
    let nx = d.nx;
    // fstr has one form; it must leave the z-halo planes the oracle does.
    // The velocity half's image is its stress rows.
    check_kernel(&base, &what("fstr"), unit(naive::fstr), unit(kernels::fstr));
    check_kernel(&base, &what("fstr_par"), unit(naive::fstr), unit(kernels::fstr_par));
    check_kernel(
        &base,
        &what("fstr stress rows"),
        |s| {
            naive::fstr_stress_region(s, 0..nx);
            0
        },
        |s| {
            kernels::fstr_stress_region(s, 0..nx);
            0
        },
    );
    // dvelc images `w` as it stores it: the oracle's two velocity kernels
    // followed by fstr's `w` rows over the columns they updated — or,
    // for the resident engine (which images its slab itself), without.
    let naive_dvelc = |image_w: bool| {
        move |s: &mut SolverState| {
            naive::dvelcx(s);
            naive::dvelcy(s);
            if image_w {
                naive::fstr_w_region(s, 0..nx, 0..d.ny);
            }
            0
        }
    };
    // dstrqc, given the profile, tapers `r` as it stores it: the oracle's
    // stress update followed by its sponge over the six memory variables.
    let dcrj = naive::whole_mesh_sponge(&base);
    let memory = base.options.attenuation;
    let taper = base.sponge.clone();
    for region in [&whole, &tiled] {
        for image_w in [true, false] {
            check_kernel(&base, &what("dvelc"), naive_dvelc(image_w), |s| {
                kernels::dvelc_region(s, region, pool, image_w);
                0
            });
        }
        check_kernel(&base, &what("dstrqc"), unit(naive::dstrqc), |s| {
            kernels::dstrqc_region(s, region, pool, None);
            0
        });
        check_kernel(
            &base,
            &what("tapered dstrqc"),
            |s| {
                naive::dstrqc(s);
                naive::sponge_fields(s, &dcrj, 0..nx, false, memory);
                0
            },
            |s| {
                kernels::dstrqc_region(s, region, pool, Some(&taper));
                0
            },
        );
    }
    check_kernel(&base, &what("dvelcx+dvelcy"), naive_dvelc(true), |s| {
        kernels::dvelcx(s);
        kernels::dvelcy(s);
        0
    });
    // Each half of the split covers exactly the oracle's half, `w` rows
    // of its own columns included.
    let h = HALO_WIDTH.min(d.ny / 2);
    check_kernel(
        &base,
        &what("dvelcx"),
        |s| {
            naive::dvelcx(s);
            naive::fstr_w_region(s, 0..nx, h..d.ny - h);
            0
        },
        unit(kernels::dvelcx),
    );
    check_kernel(
        &base,
        &what("dvelcy"),
        |s| {
            naive::dvelcy(s);
            naive::fstr_w_region(s, 0..nx, 0..h);
            naive::fstr_w_region(s, 0..nx, d.ny - h..d.ny);
            0
        },
        unit(kernels::dvelcy),
    );
    // A sub-box (the resident slab's use): interior columns only.
    if d.nx > 2 {
        check_kernel(
            &base,
            &what("dstrqc sub-box"),
            |s| {
                naive::update_stress_region(s, 1..d.nx - 1, 0..d.ny);
                0
            },
            |s| {
                kernels::dstrqc_region(s, &Region::new(1..d.nx - 1, 0..d.ny), pool, None);
                0
            },
        );
        check_kernel(
            &base,
            &what("tapered dstrqc sub-box"),
            |s| {
                naive::update_stress_region(s, 1..d.nx - 1, 0..d.ny);
                naive::sponge_fields(s, &dcrj, 1..d.nx - 1, false, memory);
                0
            },
            |s| {
                kernels::dstrqc_region(s, &Region::new(1..d.nx - 1, 0..d.ny), pool, Some(&taper));
                0
            },
        );
    }
    if base.options.nonlinear {
        check_kernel(&base, &what("drprecpc_calc"), naive::drprecpc_calc, |s| {
            kernels::drprecpc_calc_region(s, 0..d.nx, pool)
        });
        // The return mapping consumes the yield factors: compute them
        // once (with the oracle) and branch from there.
        let mut yielded = base.clone();
        assert!(naive::drprecpc_calc(&mut yielded) > 0, "the noisy state must yield somewhere");
        check_kernel(&yielded, &what("drprecpc_app"), unit(naive::drprecpc_app), |s| {
            kernels::drprecpc_app_region(s, 0..d.nx, pool);
            0
        });
        // The step's walk: yield factors, return mapping and the sponge
        // over the nine wavefields, per column.
        let reference = |s: &mut SolverState| {
            let yielding = naive::drprecpc_calc(s);
            naive::drprecpc_app(s);
            naive::sponge_fields(s, &dcrj, 0..nx, true, false);
            yielding
        };
        // With `scale` the walk also reports the stresses' max-abs; it
        // stores the same bits either way.
        for scale in [false, true] {
            check_kernel(&base, &what(&format!("drprecpc walk scale {scale}")), reference, |s| {
                kernels::drprecpc_region(s, 0..nx, pool, scale).0
            });
        }
    }
    check_sponge(&base, &what("sponge"), pool);
    // The elastic step's standalone pass: the nine wavefields alone.
    for scale in [false, true] {
        check_kernel(
            &base,
            &what(&format!("wavefield sponge scale {scale}")),
            |s| {
                naive::sponge_fields(s, &dcrj, 0..nx, true, false);
                0
            },
            |s| {
                kernels::taper_wavefields_region(s, 0..nx, pool, scale);
                0
            },
        );
    }
}

/// The walk that stores the stresses last — the return-mapping walk on a
/// nonlinear state, the wavefield taper on an elastic one, either one
/// with or without a sponge — reports their max-abs per plane, and those
/// fold (`f32::max`, plane order) to `fields_max_abs` of the state the
/// walk left, bit for bit: the codec scale the round trip used to scan
/// for. The stresses are salted with NaN (skipped), ±Inf (reported),
/// subnormals and −0.0 (by magnitude), and, in the kernels' FP mode,
/// subnormals read as zero on both sides.
fn check_stress_maxima(tier: LaneTier, dims: (usize, usize, usize), pool: bool) {
    use swquake::compress::par::fields_max_abs;
    let specials =
        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.0e-40, -f32::from_bits(1), -3.0e38];
    for physics in Physics::KERNEL_LEVEL {
        for sponge in [0, 3] {
            for flushing in [false, true] {
                let what = format!(
                    "{dims:?} {physics:?} sponge {sponge} pool {pool} flushing {flushing} \
                     lanes {tier}"
                );
                let mut s = noisy_state(dims, physics, sponge);
                let d = s.dims;
                let stresses = [&mut s.xx, &mut s.yy, &mut s.zz, &mut s.xy, &mut s.xz, &mut s.yz];
                for (i, f) in stresses.into_iter().enumerate() {
                    // One special per stress (the first two get two each),
                    // at cells spread over the planes.
                    for (j, &v) in specials.iter().enumerate().filter(|(j, _)| j % 6 == i) {
                        f.set((i + j) % d.nx, (3 * j) % d.ny, (5 * j + i) % d.nz, v);
                    }
                }
                let _fp = flushing.then(swquake::core::exec::kernel_fp_env);
                let maxima = if physics.options(sponge).nonlinear {
                    kernels::drprecpc_region(&mut s, 0..d.nx, pool, true).1
                } else {
                    kernels::taper_wavefields_region(&mut s, 0..d.nx, pool, true)
                };
                let maxima = maxima.expect("asked for the scale");
                assert_eq!(maxima.len(), d.nx, "{what}: one entry per plane");
                let folded: Vec<u32> = (0..6)
                    .map(|i| maxima.iter().fold(0.0f32, |m, plane| m.max(plane[i])).to_bits())
                    .collect();
                let stored = [&s.xx, &s.yy, &s.zz, &s.xy, &s.xz, &s.yz];
                for parallel in [false, true] {
                    let scan: Vec<u32> =
                        fields_max_abs(&stored, parallel).iter().map(|m| m.to_bits()).collect();
                    assert_eq!(folded, scan, "{what}: against fields_max_abs({parallel})");
                }
            }
        }
    }
}

#[test]
fn the_stresses_last_store_reports_their_max_abs_per_plane() {
    per_tier(|tier| {
        for dims in MESHES {
            check_stress_maxima(tier, dims, false);
        }
        for threads in [1, 2, 3, 4] {
            with_pool_width(threads, || {
                for dims in MESHES {
                    check_stress_maxima(tier, dims, true);
                }
            });
        }
    });
}

/// The tabulated taper against the oracle's whole-mesh profile.
fn check_sponge(base: &SolverState, what: &str, pool: bool) {
    let dcrj = naive::whole_mesh_sponge(base);
    let nx = base.dims.nx;
    let reference = |s: &mut SolverState| {
        naive::apply_sponge(s, &dcrj);
        0
    };
    check_kernel(base, what, reference, |s| {
        kernels::apply_sponge_region(s, 0..nx, pool);
        0
    });
}

#[test]
fn every_kernel_matches_the_oracle_on_the_calling_thread() {
    per_tier(|tier| {
        for dims in MESHES {
            for physics in Physics::KERNEL_LEVEL {
                for sponge in [0, 3] {
                    check_every_kernel(tier, dims, physics, sponge, false);
                }
            }
        }
    });
}

#[test]
fn every_kernel_matches_the_oracle_through_the_pool_at_widths_1_2_3_4() {
    per_tier(|tier| {
        for threads in [1, 2, 3, 4] {
            with_pool_width(threads, || {
                for dims in MESHES {
                    for physics in Physics::KERNEL_LEVEL {
                        for sponge in [0, 3] {
                            check_every_kernel(tier, dims, physics, sponge, true);
                        }
                    }
                }
            });
        }
    });
}

const STEPS: usize = 5;

fn source(dims: (usize, usize, usize)) -> PointSource {
    PointSource {
        ix: dims.0 / 2,
        iy: dims.1 / 2,
        iz: dims.2 / 2,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e13),
        stf: SourceTimeFunction::Triangle { onset: 0.0, duration: 0.2 },
    }
}

/// The driver's step sequence on the naive kernels, in the driver's
/// floating-point environment, with the §6.5 round trip as the driver
/// calibrates it (a codec is a pure function of the field's current
/// max-abs bucket).
fn oracle_steps(mut s: SolverState, sources: &[PointSource], compression: bool) -> SolverState {
    let _fp = swquake::core::exec::kernel_fp_env();
    let dcrj = naive::whole_mesh_sponge(&s);
    let mut time = 0.0;
    for _ in 0..STEPS {
        naive::fstr(&mut s);
        naive::dvelcx(&mut s);
        naive::dvelcy(&mut s);
        naive::fstr(&mut s);
        naive::dstrqc(&mut s);
        kernels::addsrc(&mut s, sources, time);
        if s.options.nonlinear {
            naive::drprecpc_calc(&mut s);
            naive::drprecpc_app(&mut s);
        }
        naive::apply_sponge(&mut s, &dcrj);
        if compression {
            for (name, f) in COMPRESSED_FIELDS.iter().zip(s.dynamic_mut()) {
                let base = Codec::paper_assignment(name, &FieldStats::empty());
                let codec = calibrated_codec(&base, max_abs_bucket(f.max_abs()));
                codec.roundtrip_slice(f.raw_mut());
            }
        }
        time += s.dt;
    }
    s
}

fn check_full_steps(
    tier: LaneTier,
    dims: (usize, usize, usize),
    physics: Physics,
    sponge: usize,
    exec: ExecMode,
) {
    let what =
        format!("{STEPS} steps on {dims:?} {physics:?} sponge {sponge} exec {exec} lanes {tier}");
    let base = noisy_state(dims, physics, sponge);
    let compression = physics == Physics::NonlinearAttenuationCompressed;
    let mut cfg = SimConfig::new(base.dims, base.dx, STEPS)
        .with_sources(vec![source(dims)])
        .with_compression(compression)
        .with_exec(exec)
        .with_resident(ResidentMode::Full);
    cfg.options = base.options;
    let want = oracle_steps(base.clone(), &cfg.sources, compression);
    let mut sim = Simulation::new_with_state(base, &cfg).expect("valid config");
    let pool = exec != ExecMode::Serial;
    assert_eq!(sim.exec_path().is_parallel(), pool, "{what}");
    sim.run(STEPS);
    assert!(!sim.state.has_blown_up(), "{what}: the run must stay finite");
    assert_bitwise(&want, &sim.state, &what);
}

#[test]
fn five_full_steps_match_the_oracle_on_the_calling_thread() {
    per_tier(|tier| {
        for dims in MESHES {
            for physics in Physics::ALL {
                for sponge in [0, 3] {
                    check_full_steps(tier, dims, physics, sponge, ExecMode::Serial);
                }
            }
        }
    });
}

#[test]
fn five_full_steps_match_the_oracle_through_the_pool_at_widths_1_2_3_4() {
    per_tier(|tier| {
        for threads in [1, 2, 3, 4] {
            with_pool_width(threads, || {
                for dims in MESHES {
                    for physics in Physics::ALL {
                        for sponge in [0, 3] {
                            for exec in [ExecMode::Parallel, ExecMode::Simd] {
                                check_full_steps(tier, dims, physics, sponge, exec);
                            }
                        }
                    }
                }
            });
        }
    });
}

/// The sponge-geometry axis. The taper is a table indexed by a column's
/// horizontal distance to the global mesh's sides; every way that index
/// can go wrong — no sponge at all, bands that overlap because the width
/// is half the mesh or more, axes of different lengths, a width no mesh
/// could hold — must leave the bits the whole-mesh profile leaves, with
/// attenuation (fifteen damped arrays) and without (nine).
#[test]
fn sponge_geometries_match_the_whole_mesh_profile() {
    let geometries: [((usize, usize, usize), usize); 6] = [
        ((9, 9, 9), 0),              // no sponge
        ((9, 9, 9), 5),              // bands overlap: no interior column
        ((8, 8, 8), 4),              // … exactly meeting, on an even axis
        ((13, 6, 21), 4),            // non-cubic: ny caps the distances
        ((7, 11, 3), 5),             // wider than the mesh is deep
        ((8, 8, 8), usize::MAX / 2), // a width no mesh holds
    ];
    per_tier(|tier| {
        for (dims, width) in geometries {
            for physics in [Physics::Elastic, Physics::Attenuation] {
                let base = noisy_state(dims, physics, width);
                let d = base.dims;
                assert!(
                    base.sponge.factors() <= (d.nx.min(d.ny).div_ceil(2) + 1) * d.nz,
                    "{dims:?} width {width}: the table outgrew the mesh"
                );
                for pool in [false, true] {
                    let what = format!(
                        "sponge on {dims:?} width {width} {physics:?} pool {pool} lanes {tier}"
                    );
                    check_sponge(&base, &what, pool);
                }
            }
        }
    });
}

/// 2 × 2 rank pieces, each built with `global_span`, damp their cells
/// with the bits the whole mesh damps them with — uneven splits, a width
/// that crosses the cut, and the bottom band under every piece.
#[test]
fn rank_pieces_damp_like_the_whole_mesh() {
    let global = Dims3::new(11, 9, 7);
    for width in [3, 6] {
        let options = Physics::Attenuation.options(width);
        let mut whole = noisy(global, options);
        let before = whole.clone();
        naive::apply_sponge(&mut whole, &naive::whole_mesh_sponge(&before));
        for (x0, nx) in [(0, 6), (6, 5)] {
            for (y0, ny) in [(0, 4), (4, 5)] {
                let local = Dims3::new(nx, ny, global.nz);
                let span = StateOptions { global_span: Some((global, x0, y0)), ..options };
                let mut piece = noisy(local, span);
                for (mine, all) in piece.dynamic_mut().into_iter().zip(before.dynamic()) {
                    mine.fill_with(|x, y, z| all.get(x0 + x, y0 + y, z));
                }
                for pool in [false, true] {
                    let mut damped = piece.clone();
                    kernels::apply_sponge_region(&mut damped, 0..nx, pool);
                    for (name, got, want) in damped
                        .arrays()
                        .zip(whole.arrays())
                        .filter(|((_, class, _), _)| *class != ArrayClass::Material)
                        .map(|((name, _, got), (_, _, want))| (name, got, want))
                    {
                        for (x, y, z) in local.iter() {
                            assert_eq!(
                                got.get(x, y, z).to_bits(),
                                want.get(x0 + x, y0 + y, z).to_bits(),
                                "`{name}` at piece ({x0}, {y0}) cell ({x}, {y}, {z}), width {width}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The options axis: each physics allocates exactly its arrays — 13
/// always, 8 more with attenuation, 7 more with plasticity — and a full
/// step, walked by the caller or the pool, reads and writes no other
/// (touching a detached array panics) and attaches none.
#[test]
fn each_physics_carries_exactly_its_arrays_and_a_step_touches_no_other() {
    const ALWAYS: [&str; 13] =
        ["u", "v", "w", "xx", "yy", "zz", "xy", "xz", "yz", "lam", "mu", "rho", "buoyancy"];
    const ATTENUATION: [&str; 8] = ["r1", "r2", "r3", "r4", "r5", "r6", "wp", "ws"];
    const NONLINEAR: [&str; 7] = ["cohes", "sinphi", "cosphi", "pf", "sigma0", "yldfac", "eqp"];
    let dims = (9, 8, 11);
    with_pool_width(2, || {
        for (physics, count) in [
            (Physics::Elastic, 13),
            (Physics::Attenuation, 21),
            (Physics::Nonlinear, 20),
            (Physics::NonlinearAttenuation, 28),
        ] {
            let base = noisy_state(dims, physics, 3);
            let mut expected: Vec<&str> = ALWAYS.to_vec();
            if base.options.attenuation {
                expected.extend(ATTENUATION);
            }
            if base.options.nonlinear {
                expected.extend(NONLINEAR);
            }
            let names = |s: &SolverState| {
                let mut names: Vec<&str> = s.arrays().map(|(name, _, _)| name).collect();
                names.sort_unstable();
                names
            };
            expected.sort_unstable();
            assert_eq!(names(&base), expected, "{physics:?}");
            assert_eq!((base.arrays().count(), base.array_count()), (count, count), "{physics:?}");
            let bytes =
                |s: &SolverState| s.arrays().map(|(_, _, f)| f.resident_bytes()).sum::<usize>();
            assert_eq!(bytes(&base), count * base.u.resident_bytes(), "{physics:?}");
            for exec in [ExecMode::Serial, ExecMode::Parallel] {
                let mut cfg = SimConfig::new(base.dims, base.dx, STEPS)
                    .with_sources(vec![source(dims)])
                    .with_exec(exec)
                    .with_resident(ResidentMode::Full);
                cfg.options = base.options;
                let mut sim = Simulation::new_with_state(base.clone(), &cfg).expect("valid config");
                sim.run(STEPS);
                assert_eq!(names(&sim.state), expected, "{physics:?} after {STEPS} steps, {exec}");
            }
        }
    });
}

/// Every array `s` carries sits at its slot's placement
/// (`state::phase`), and no two arrays share a cache phase.
fn assert_placed(s: &SolverState, what: &str) {
    let mut phases = Vec::new();
    for (name, _, f) in s.arrays() {
        assert!(f.sits_at(state::phase(name)), "`{name}` {what} at {}", f.phase());
        phases.push(f.phase() % PHASE_TURN);
    }
    let count = phases.len();
    phases.sort_unstable();
    phases.dedup();
    assert_eq!(phases.len(), count, "{what}: two arrays share a phase");
}

/// `AnonHugePages` of the mapping of `/proc/self/smaps` that holds
/// `addr`, in kB.
fn anon_huge_kb(addr: usize) -> u64 {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("/proc/self/smaps");
    let mut inside = false;
    for line in smaps.lines() {
        let range = line.split_whitespace().next().and_then(|r| r.split_once('-'));
        if let Some((lo, hi)) = range.and_then(|(lo, hi)| {
            Some((usize::from_str_radix(lo, 16).ok()?, usize::from_str_radix(hi, 16).ok()?))
        }) {
            inside = (lo..hi).contains(&addr);
        } else if let Some(kb) = line.strip_prefix("AnonHugePages:").filter(|_| inside) {
            return kb.trim().trim_end_matches("kB").trim().parse().expect("a kB count");
        }
    }
    panic!("no mapping of /proc/self/smaps holds {addr:#x}")
}

/// The placement axis: wherever a state comes from — sampled from a
/// model, cloned (the campaign's cached-state path), restored from a
/// checkpoint, resumed from the store — each array sits at its slot's
/// cache phase (DESIGN.md, "Array placement"). Rank pieces are states
/// `Simulation` builds itself; it checks each as it builds it (a debug
/// assertion, which this suite runs under), on a fresh and on a resumed
/// 2×2 grid here. A 128³ state's arrays each fill huge pages: each starts
/// its slot's page into one, and the page it starts on is huge.
#[test]
fn every_array_sits_at_its_slots_cache_phase() {
    let mut large = SolverState::blank(
        Dims3::cube(128),
        100.0,
        1e-3,
        1e-3,
        StateOptions { attenuation: false, nonlinear: false, ..Default::default() },
    );
    assert_placed(&large, "at 128³");
    if hugepage::available() {
        for f in large.dynamic_mut().into_iter().filter(|f| !f.is_detached()) {
            f.raw_mut()[0] = 1.0;
        }
        for f in [&mut large.lam, &mut large.mu, &mut large.rho, &mut large.buoyancy] {
            f.raw_mut()[0] = 1.0;
        }
        for (name, _, f) in large.arrays() {
            let kb = anon_huge_kb(f.raw().as_ptr() as usize);
            assert!(kb >= 2048, "`{name}` at 128³ starts on small pages ({kb} kB huge)");
        }
    } else {
        eprintln!("skipping the huge-page check: no transparent huge pages on this host");
    }
    drop(large);

    let dir = std::env::temp_dir().join(format!("swquake_placement_{}", std::process::id()));
    let model = LayeredModel::north_china();
    let dims = (12, 10, 9);
    for physics in Physics::KERNEL_LEVEL {
        let base = noisy_state(dims, physics, 3);
        assert_placed(&base, &format!("{physics:?} from the model"));
        assert_placed(&base.clone(), &format!("{physics:?} cloned"));
        let ckpt_dir = dir.join(format!("{physics:?}"));
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let mut plain = SimConfig::new(base.dims, base.dx, 4).with_sources(vec![source(dims)]);
        plain.options = base.options;
        let cfg = plain.clone().with_checkpoint_dir(&ckpt_dir).with_checkpoint_interval(2);
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(4);
        let ckpt = sim.make_checkpoint();
        drop(sim);
        let mut restored = Simulation::new_with_state(base.clone(), &plain).expect("valid config");
        restored.restore(&ckpt).expect("a checkpoint of this run");
        assert_placed(&restored.state, &format!("{physics:?} restored"));
        let resumed = Simulation::new(&model, &cfg.clone().with_resume(true)).expect("resumes");
        assert_eq!(resumed.resumed().map(|r| r.step), Some(4));
        assert_placed(&resumed.state, &format!("{physics:?} resumed"));
        drop(resumed);
        let grid = RankGrid::new(2, 2);
        let on_grid = cfg.with_checkpoint_dir(dir.join("grid"));
        run_multirank(&model, &on_grid, grid).expect("a 2x2 run");
        let mut again = on_grid.with_resume(true);
        again.steps = 6;
        let resumed = run_multirank(&model, &again, grid).expect("a 2x2 resume");
        assert_eq!(resumed.resume.map(|r| r.step), Some(4));
        let _ = std::fs::remove_dir_all(dir.join("grid"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compressed-resident runs stream slabs through the same bodies on the
/// calling thread whatever the mode: the three spellings produce one
/// byte sequence.
#[test]
fn resident_compressed16_is_the_same_under_every_exec_spelling() {
    with_pool_width(4, || {
        let dims = (12, 10, 19);
        let run = |exec: ExecMode| {
            let base = noisy_state(dims, Physics::NonlinearAttenuation, 3);
            let mut cfg = SimConfig::new(base.dims, base.dx, STEPS)
                .with_sources(vec![source(dims)])
                .with_exec(exec)
                .with_resident(ResidentMode::Compressed16)
                .with_memory_cap(256 << 10);
            cfg.options = base.options;
            let mut sim = Simulation::new_with_state(base, &cfg).expect("valid config");
            sim.run(STEPS);
            sim.make_checkpoint()
        };
        let serial = run(ExecMode::Serial);
        for exec in [ExecMode::Parallel, ExecMode::Simd] {
            let other = run(exec);
            assert_eq!(serial.fields.len(), other.fields.len());
            for ((name, a), (_, b)) in serial.fields.iter().zip(&other.fields) {
                let same = a.raw().iter().zip(b.raw()).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "resident field `{name}` differs between serial and {exec}");
            }
        }
    });
}

/// `auto` above its threshold and the `simd` alias both resolve to the
/// pool path on any build — there is no slower path to degrade to.
#[test]
fn auto_and_simd_resolve_to_the_pool_path() {
    with_pool_width(2, || {
        let big = 32 * 32 * 32;
        assert_eq!(ExecMode::Auto.resolve_path(big), ExecPath::Parallel);
        assert_eq!(ExecMode::Simd.resolve_path(1), ExecPath::Parallel);
        assert_eq!(ExecMode::Parallel.resolve_path(1), ExecPath::Parallel);
        assert_eq!(ExecMode::Auto.resolve_path(big - 1), ExecPath::Serial);
    });
    let exec_rs = include_str!("../crates/core/src/exec.rs");
    assert!(
        !exec_rs.contains("cfg(feature") && !exec_rs.contains("cfg!("),
        "exec resolution must not depend on the build"
    );
    assert!(swquake::core::simd_compiled());
}

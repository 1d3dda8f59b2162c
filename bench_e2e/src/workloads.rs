//! The four benchmark workloads and the seeded generator of their input
//! files.
//!
//! Mesh sizes, step counts, physics switches and source/station counts are
//! frozen here; the seed only places sources and stations and picks
//! mechanisms and onsets. It moves them within a narrow window: a step
//! costs more the further the wavefield has spread (15 → 45 ms over the
//! 40 steps of `elastic-large`), so a source free to roam the mesh, or to
//! sit at any depth, made one seed's run 8 % longer than another's —
//! noise in every comparison across seeds. The program under test
//! receives nothing but the generated JSON files.

use serde_json::{json, Value};
use swquake::core::staggered::stable_dt;
use swquake::{ModelKind, Scenario, ScenarioSource, ScenarioStation, SCENARIO_SCHEMA_VERSION};

/// Grid spacing of every workload, m.
const DX: f64 = 100.0;
/// Cerjan sponge width of every workload, grid points.
const SPONGE: usize = 8;
/// Stations per scenario.
const STATIONS: usize = 8;
/// Source-time-function length, s: short enough that moment is released
/// inside the reference prefix of every workload.
const STF_DURATION: f64 = 0.1;

/// How a workload is driven through the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// One `swquake run <scenario>`.
    Run,
    /// `swquake campaign` killed by a fault plan at `kill_at`, then
    /// `--resume`d to completion.
    Campaign { scenarios: usize, kill_at: u64 },
}

/// One workload's frozen shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (which layers it stresses).
    pub why: &'static str,
    /// Cube side of the mesh.
    pub mesh: usize,
    pub model: ModelKind,
    pub nonlinear: bool,
    pub attenuation: bool,
    /// §6.5 inter-step compression.
    pub compression: bool,
    /// `resident: compressed16` under this slab cap, bytes.
    pub resident_cap: Option<u64>,
    pub sources: usize,
    /// Steps per scenario.
    pub steps: usize,
    /// Steps of the serial, uncompressed, fully resident reference the
    /// seismograms are checked against (a prefix of `steps`).
    pub ref_steps: usize,
    /// Stream the health log (`--health`, stride 10).
    pub health: bool,
    /// Seismograms must equal the reference bit for bit (misfit exactly
    /// 0); otherwise the lossy-codec tier applies.
    pub bitwise: bool,
    pub drive: Drive,
}

impl Spec {
    pub fn cells(&self) -> usize {
        self.mesh * self.mesh * self.mesh
    }

    pub fn scenarios(&self) -> usize {
        match self.drive {
            Drive::Run => 1,
            Drive::Campaign { scenarios, .. } => scenarios,
        }
    }
}

/// Misfit tier of the lossy workloads (relative L2 against the reference).
pub const MISFIT_TIER: f64 = 0.05;

/// Workload names, in reporting order. Permanent: later issues cite them.
pub const NAMES: [&str; 4] =
    ["elastic-large", "nonlinear-tangshan", "resident-capped", "campaign-checkpointed"];

/// The workload table; `smoke` shrinks every mesh to 16³–24³ so the whole
/// pipeline can be exercised in seconds (numbers are then meaningless).
pub fn specs(smoke: bool) -> [Spec; 4] {
    let pick = |full: usize, small: usize| if smoke { small } else { full };
    [
        Spec {
            name: NAMES[0],
            why: "128^3 elastic + sponge only: the working set is far beyond L2, so the \
                  memory-bound stencil kernels are the whole loop; codec, plasticity and \
                  checkpoint code is bypassed",
            mesh: pick(128, 24),
            model: ModelKind::NorthChina,
            nonlinear: false,
            attenuation: false,
            compression: false,
            resident_cap: None,
            sources: 1,
            steps: pick(40, 12),
            ref_steps: pick(10, 6),
            health: false,
            bitwise: true,
            drive: Drive::Run,
        },
        Spec {
            name: NAMES[1],
            why: "80^3 basin, attenuation + Drucker-Prager + inter-step compression, 64 fault \
                  sources: the paper's production step; codec round trip, plasticity and many \
                  small parallel regions dominate",
            mesh: pick(80, 20),
            model: ModelKind::Tangshan,
            nonlinear: true,
            attenuation: true,
            compression: true,
            resident_cap: None,
            sources: 64,
            steps: pick(60, 12),
            ref_steps: pick(15, 6),
            health: true,
            bitwise: false,
            drive: Drive::Run,
        },
        Spec {
            name: NAMES[2],
            why: "48^3 with wavefields resident 16-bit under a 1 MiB slab cap: plane \
                  encode/decode and tile streaming are the loop; same codec layer as \
                  nonlinear-tangshan, used as a stream",
            mesh: pick(48, 16),
            model: ModelKind::Tangshan,
            nonlinear: false,
            attenuation: true,
            compression: false,
            resident_cap: Some(1 << 20),
            sources: 1,
            steps: pick(24, 8),
            ref_steps: pick(24, 8),
            health: false,
            bitwise: false,
            drive: Drive::Run,
        },
        Spec {
            name: NAMES[3],
            why: "4-scenario 64^3 campaign, checkpoint every 10 steps, killed by a fault plan \
                  then resumed: checkpoint encode + LZ4 + fsync, restore and set-up sharing \
                  dominate; stencils are the minority",
            mesh: pick(64, 16),
            model: ModelKind::Tangshan,
            nonlinear: false,
            attenuation: true,
            compression: false,
            resident_cap: None,
            sources: 1,
            steps: pick(30, 12),
            ref_steps: pick(8, 6),
            health: false,
            bitwise: true,
            drive: Drive::Campaign { scenarios: 4, kill_at: pick(25, 11) as u64 },
        },
    ]
}

/// The spec called `name`.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    specs(smoke).into_iter().find(|s| s.name == name)
}

/// SplitMix64: tiny, seedable, good enough to place sources.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// The generated input files of one workload.
pub struct Inputs {
    /// The scenario(s) as the CLI will run them (one per campaign entry).
    pub scenarios: Vec<Scenario>,
    /// The reference variant of each scenario: serial-comparable physics
    /// (no compression, full residency) cut to `ref_steps`.
    pub references: Vec<Scenario>,
    /// `(file name, content)`; see [`Inputs::MAIN`] and friends.
    pub files: Vec<(String, String)>,
}

impl Inputs {
    /// The file handed to `swquake run` / `swquake campaign`.
    pub const MAIN: &'static str = "workload.json";
    /// Same, with every scenario cut to one step (the set-up probe).
    pub const SETUP: &'static str = "workload_setup.json";

    /// File name of reference scenario `i`.
    pub fn reference_name(i: usize) -> String {
        format!("reference_{i}.json")
    }
}

/// Duration that lowers to exactly `steps` steps of the scenario's model.
fn duration_for(scenario: &Scenario, steps: usize) -> f64 {
    let dt = stable_dt(scenario.dx, scenario.build_model().vp_max() as f64);
    (steps as f64 - 0.5) * dt
}

/// Nearest grid index to `v` that stays out of the sponge (on meshes too
/// small to have an undamped core, the mesh centre).
fn clamp_interior(v: f64, n: usize) -> usize {
    let lo = (SPONGE + 1).min(n / 2);
    let hi = n.saturating_sub(SPONGE + 2).max(n / 2);
    (v.round().max(0.0) as usize).clamp(lo, hi)
}

/// One seeded scenario of `spec` (campaign entries draw from the same
/// generator one after another, so they differ).
fn scenario(spec: &Spec, rng: &mut Rng) -> Scenario {
    let n = spec.mesh;
    let mid = n as f64 / 2.0;
    let reach = (n as f64 / 32.0).max(2.0);
    let (cx, cy) = (rng.range(mid - reach, mid + reach), rng.range(mid - reach, mid + reach));
    // Strike within 20 degrees of north-east, so a fault trace keeps its
    // length inside the mesh whatever the seed.
    let mechanism = [rng.range(25.0, 65.0), rng.range(60.0, 80.0), rng.range(-180.0, 180.0)];
    let depth = (n / 12).max(3);
    let sources = if spec.sources == 1 {
        vec![ScenarioSource {
            position: [clamp_interior(cx, n), clamp_interior(cy, n), depth],
            mw: 5.0,
            mechanism,
            onset: rng.range(0.0, 0.01),
            duration: STF_DURATION,
        }]
    } else {
        // Point sources along a fault trace through (cx, cy): the trace is
        // half a mesh long, the rupture front runs along it.
        let azimuth = mechanism[0].to_radians();
        let half = n as f64 / 4.0;
        (0..spec.sources)
            .map(|i| {
                let along = -half + 2.0 * half * (i as f64 + rng.unit()) / spec.sources as f64;
                ScenarioSource {
                    position: [
                        clamp_interior(cx + along * azimuth.sin(), n),
                        clamp_interior(cy + along * azimuth.cos(), n),
                        rng.int(depth - 1, depth + 1),
                    ],
                    mw: 4.0,
                    mechanism,
                    onset: 0.02 * (along + half) / (2.0 * half) + rng.range(0.0, 0.005),
                    duration: STF_DURATION,
                }
            })
            .collect()
    };
    // Stations ring the epicentre closely, so every seismogram carries
    // signal inside the reference prefix.
    let phase = rng.range(0.0, std::f64::consts::TAU);
    let stations = (0..STATIONS)
        .map(|i| {
            let angle = phase + std::f64::consts::TAU * i as f64 / STATIONS as f64;
            let radius = rng.range(2.0, 6.0);
            ScenarioStation {
                name: format!("st{i}"),
                ix: clamp_interior(cx + radius * angle.cos(), n),
                iy: clamp_interior(cy + radius * angle.sin(), n),
            }
        })
        .collect();
    let mut s = Scenario {
        schema: SCENARIO_SCHEMA_VERSION,
        mesh: [n, n, n],
        dx: DX,
        duration: 0.0,
        model: spec.model,
        nonlinear: spec.nonlinear,
        attenuation: spec.attenuation,
        compression: spec.compression,
        sponge_width: SPONGE,
        dt_scale: None,
        checkpoint_interval: None,
        resident: spec.resident_cap.map(|_| "compressed16".to_string()),
        memory_cap_bytes: spec.resident_cap,
        sources,
        stations,
        output_prefix: "out".to_string(),
    };
    s.duration = duration_for(&s, spec.steps);
    s
}

/// Scenario id inside a campaign file (also its output directory).
pub fn scenario_id(i: usize) -> String {
    format!("s{i}")
}

fn campaign_json(name: &str, scenarios: &[Scenario]) -> String {
    let entries: Vec<Value> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let body: Value =
                serde_json::from_str(&s.to_json()).expect("scenario JSON parses back");
            json!({"id": scenario_id(i), "scenario": body})
        })
        .collect();
    let spec = json!({"schema": 1, "name": name, "scenarios": entries});
    serde_json::to_string_pretty(&spec).expect("campaign serialization is infallible")
}

/// Generate every input file of `spec` from `seed`. Same seed, same bytes.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    // Mix the workload name in, so one seed does not put every
    // workload's source in the same spot.
    let salt = spec.name.bytes().fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
    let mut rng = Rng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let scenarios: Vec<Scenario> =
        (0..spec.scenarios()).map(|_| scenario(spec, &mut rng)).collect();
    let with_steps = |s: &Scenario, steps: usize| {
        let mut cut = s.clone();
        cut.duration = duration_for(s, steps);
        cut
    };
    let setups: Vec<Scenario> = scenarios.iter().map(|s| with_steps(s, 1)).collect();
    let references: Vec<Scenario> = scenarios
        .iter()
        .map(|s| {
            let mut r = with_steps(s, spec.ref_steps);
            r.compression = false;
            r.resident = None;
            r.memory_cap_bytes = None;
            r
        })
        .collect();
    let mut files = Vec::new();
    match spec.drive {
        Drive::Run => {
            files.push((Inputs::MAIN.to_string(), scenarios[0].to_json()));
            files.push((Inputs::SETUP.to_string(), setups[0].to_json()));
        }
        Drive::Campaign { .. } => {
            files.push((Inputs::MAIN.to_string(), campaign_json("bench", &scenarios)));
            files.push((Inputs::SETUP.to_string(), campaign_json("bench", &setups)));
        }
    }
    for (i, r) in references.iter().enumerate() {
        files.push((Inputs::reference_name(i), r.to_json()));
    }
    Inputs { scenarios, references, files }
}

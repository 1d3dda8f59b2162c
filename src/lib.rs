//! # swquake
//!
//! A Rust reproduction of the SC17 Gordon Bell paper *"18.9-Pflops
//! Nonlinear Earthquake Simulation on Sunway TaihuLight: Enabling
//! Depiction of 18-Hz and 8-Meter Scenarios"* (Fu et al., 2017).
//!
//! This umbrella crate re-exports every subsystem:
//!
//! * [`core`] ([`swquake_core`]) — the nonlinear staggered-grid FD solver
//!   (AWP-ODC lineage): velocity/stress/attenuation kernels,
//!   Drucker–Prager plasticity, free surface, sponge, timestep driver,
//!   the unified Fig.-3 framework, and hazard maps;
//! * [`grid`] — 3-D fields, halos, fused arrays, blocking geometry;
//! * [`arch`] — the SW26010 / TaihuLight simulator: LDM, the Table-3 DMA
//!   model, register communication, the §6.4 analytic blocking model,
//!   per-kernel perf model (Fig. 7 / Table 4) and machine-scale scaling
//!   model (Figs. 8–9);
//! * [`compress`] — the §6.5 on-the-fly 32→16-bit codecs and a
//!   from-scratch LZ4 for checkpoints;
//! * [`model`] — layered crust / sediment basin / Tangshan-like models;
//! * [`source`] — moment tensors, source time functions, kinematic
//!   faults, the source partitioner;
//! * [`rupture`] — the CG-FDM-role dynamic rupture generator;
//! * [`parallel`] — the MPI-like 2-D rank runtime with overlapped halo
//!   exchange;
//! * [`io`] — LZ4 checkpoints, the durable checkpoint store (atomic
//!   writes, versioned manifest, keep-N retention), group-I/O model,
//!   recorders;
//! * [`fault`] — seeded deterministic fault injection (I/O errors, torn
//!   writes, bit flips, rank death) behind the crash drills;
//! * [`telemetry`] — the metrics spine every subsystem reports into:
//!   nestable phase timers, counters, gauges, per-step sample rings, and
//!   a stable-schema JSON report;
//! * [`trace`] — the low-overhead span/event recorder behind a bundle's
//!   `trace.json`: per-rank lanes of monotonic timestamps exported as
//!   Chrome trace-event JSON (Perfetto-viewable).
//!
//! Plus the crate's own front end:
//!
//! * [`scenario`] — JSON scenario files (versioned schema, v2 current)
//!   and their lowering to solver configs (what the `swquake` binary
//!   runs);
//! * [`campaign`] — scenario campaigns: the [`sw_campaign`] engine wired
//!   to this crate's scenarios — shared artifact cache, bounded
//!   concurrency, durable manifest with `--resume` (what `swquake
//!   campaign` runs);
//! * [`run`] — the one scenario runner: `swquake run` and every campaign
//!   member execute a scenario through [`run::run_scenario`], which also
//!   defines the one observed layout ([`run::Artifacts::bundle`]) that
//!   `swquake inspect` reads;
//! * [`outputs`] — the result-file writer behind it;
//! * [`error`] — the crate-level [`enum@Error`]; fallible constructors
//!   (`Simulation::new`, `run_multirank`, `Simulation::restore`,
//!   scenario parsing) return typed errors instead of exiting.
//!
//! ## Quickstart
//!
//! ```
//! use swquake::core::{SimConfig, Simulation};
//! use swquake::grid::Dims3;
//! use swquake::model::HalfspaceModel;
//! use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};
//!
//! let mut cfg = SimConfig::new(Dims3::new(32, 32, 24), 200.0, 50)
//!     .with_sources(vec![PointSource {
//!         ix: 16, iy: 16, iz: 12,
//!         moment: MomentTensor::double_couple(30.0, 90.0, 180.0, 1.0e15),
//!         stf: SourceTimeFunction::Gaussian { delay: 0.2, sigma: 0.05 },
//!     }]);
//! cfg.options.attenuation = false;
//! let model = HalfspaceModel::hard_rock();
//! let mut sim = Simulation::new(&model, &cfg).expect("valid config");
//! sim.run(cfg.steps);
//! assert!(sim.pgv.max() > 0.0);
//! ```
//!
//! ## Observability
//!
//! Attach an enabled [`telemetry::Telemetry`] handle to collect per-phase
//! wall times (`step.velocity`, `step.stress`, …), halo-fabric timings
//! per rank, modeled SW26010 hardware charges, compression codec costs,
//! and checkpoint I/O — then snapshot everything as JSON:
//!
//! ```
//! use swquake::core::{SimConfig, Simulation};
//! use swquake::grid::Dims3;
//! use swquake::model::HalfspaceModel;
//! use swquake::telemetry::Telemetry;
//!
//! let cfg = SimConfig::new(Dims3::new(16, 16, 12), 200.0, 5)
//!     .with_telemetry(Telemetry::enabled());
//! let model = HalfspaceModel::hard_rock();
//! let mut sim = Simulation::new(&model, &cfg).expect("valid config");
//! sim.run(cfg.steps);
//! let report = sim.metrics();
//! assert_eq!(report.timer("step").unwrap().calls, 5);
//! let json = report.to_json(); // stable schema, sorted names
//! assert!(json.contains("step.velocity"));
//! ```
//!
//! The default is [`telemetry::Telemetry::disabled`], which records
//! nothing and keeps every instrumentation point down to a branch on
//! `None`; the CLI enables it with `swquake run --metrics out.json`.
//!
//! Attach a [`trace::Tracer`] with
//! [`telemetry::Telemetry::with_tracer`] to additionally record a
//! timeline of spans (phases, timers) and instant events (DMA charges,
//! register-communication rounds, halo traffic, compression round
//! trips, checkpoint I/O), one lane per rank, exportable as Chrome
//! trace-event JSON via [`trace::Tracer::to_chrome_json`] — that is
//! the `trace.json` of a `swquake run --obs <dir>` bundle. `swquake
//! inspect` renders a bundle's per-kernel ledger and timeline, and
//! `swquake inspect --diff` gates two ledgers or
//! [`telemetry::bench::BenchReport`] files against a tolerance.

pub mod campaign;
pub mod error;
pub mod outputs;
pub mod run;
pub mod scenario;

pub use error::Error;
pub use scenario::{
    ModelKind, Scenario, ScenarioSource, ScenarioStation, ScenarioVersion, SCENARIO_SCHEMA_VERSION,
};

pub use sw_arch as arch;
pub use sw_compress as compress;
pub use sw_fault as fault;
pub use sw_grid as grid;
pub use sw_health as health;
pub use sw_io as io;
pub use sw_model as model;
pub use sw_parallel as parallel;
pub use sw_rupture as rupture;
pub use sw_source as source;
pub use sw_telemetry as telemetry;
pub use sw_trace as trace;
pub use swquake_core as core;

//! The timestep driver.
//!
//! [`Simulation`] owns one (sub)domain's state and runs the paper's step
//! sequence: free-surface imaging → velocity update (`dvelcx`/`dvelcy`) →
//! stress update (`dstrqc`) → source injection (`addsrc`) → plasticity
//! (`drprecpc_calc`/`app`) → Cerjan sponge, with recorders, flop
//! accounting (§7.1), checkpoint/restart, and optional on-the-fly
//! compression of the wavefields (§6.5): when enabled, every wavefield is
//! stored 16-bit between steps, which is functionally simulated by a
//! per-step encode/decode round trip through the Fig. 5d codecs.
//!
//! Every stage of the step reports into the configured [`Telemetry`]
//! handle (see [`SimConfig::with_telemetry`]): stage wall times are the
//! `step.*` timers, the compression round trip reports `compress.*`
//! timers and codec-cache counters, and checkpoints `io.*`. Telemetry
//! holds only what was measured. What a step costs — cells, flops, the
//! modeled SW26010 bytes and seconds — is the perf ledger's per-step rows
//! ([`ledger_rows`]), computed once per simulation: the flop total adds
//! their flops every step and the frozen ledger multiplies them by the
//! steps run. With [`Telemetry::disabled`] (the default) every recording
//! call is a branch on `None` and the numeric path is untouched.
//!
//! There is one step schedule, [`Simulation::step`]: `[halo(stress)] →
//! velocity → [halo(velocity)] → stress → finish → [settle]`. The
//! bracketed stages exist when the simulation is one rank of a grid
//! (Fig. 4 level 1): [`run_multirank`] only sets the ranks up, lets each
//! run that same schedule, and merges their observables, which are
//! bit-identical to a single-rank run (the integration tests pin that
//! down). The compressed-resident engine is the implementation of the
//! velocity/stress stages, not a second schedule.

use crate::error::{ConfigError, KilledError, RestoreError, RunError, UnstableError};
use crate::exec::{self, ExecMode, ExecPath};
use crate::flops::{
    FlopCounter, ATTENUATION_FLOPS, DRPRECPC_APP_FLOPS, DRPRECPC_CALC_FLOPS, DSTRQC_FLOPS,
    DVELC_FLOPS, FSTR_FLOPS,
};
use crate::health::{scan_plane, scan_velocity_plane, HealthMonitor, ProbeItem, PROBE_ITEMS};
use crate::kernels::sponge::{damped_arrays, STRESSES, WAVEFIELDS};
use crate::kernels::{self, PlaneMaxima, Region};
use crate::resident::{ResidentEngine, ResidentMode, RESIDENT_FIELDS, SIDECAR_FIELD};
use crate::staggered::stable_dt;
use crate::state::{ArrayClass, SolverState, StateOptions};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;
use sw_arch::perf::step_costs;
use sw_compress::errstats::{roundtrip_item, RoundtripError};
use sw_compress::{max_abs_bucket, Codec, CodecCache, FieldStats};
use sw_fault::FaultHook;
use sw_grid::halo::Face;
use sw_grid::simd::LaneTier;
use sw_grid::{Dims3, Field3, HALO_WIDTH};
use sw_health::{
    CflInfo, FieldProbe, HealthConfig, HealthLog, HealthRecord, HealthReport, StepProbe,
};
use sw_io::checkpoint::{self, Checkpoint, ImageMeta};
use sw_io::store::{
    CheckpointStore, GenerationOutcome, GenerationWriter, RestoredGeneration, StoreError,
    WriteError,
};
use sw_io::{PgvRecorder, SeismogramRecorder, SnapshotRecorder, Station};
use sw_model::VelocityModel;
use sw_parallel::{run_ranks, FaultVote, HaloExchanger, RankComm, RankGrid, StopBarrier};
use sw_source::{PointSource, SourcePartitioner};
use sw_telemetry::perf::{
    sort_canonical, HostFingerprint, KernelCounts, PerfKernel, PerfLedger, PerfRecorder,
    PERF_SCHEMA_VERSION,
};
use sw_telemetry::timeline::{phase as tl_phase, TimelineRecorder};
use sw_telemetry::Telemetry;

/// The nine wavefields the compression scheme stores 16-bit.
pub const COMPRESSED_FIELDS: [&str; 9] = ["u", "v", "w", "xx", "yy", "zz", "xy", "xz", "yz"];

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Global mesh extents.
    pub dims: Dims3,
    /// Grid spacing, m.
    pub dx: f64,
    /// Steps to run.
    pub steps: usize,
    /// Physics options.
    pub options: StateOptions,
    /// Point sources (global indices).
    pub sources: Vec<PointSource>,
    /// Recording stations (global indices).
    pub stations: Vec<Station>,
    /// Surface snapshot times, s (empty = none); decimation stride.
    pub snapshot_times: Vec<f64>,
    /// Snapshot decimation stride.
    pub snapshot_stride: usize,
    /// Checkpoint every N steps into the store under `checkpoint_dir`
    /// (0 = never). A cadence without a store is a [`ConfigError`].
    pub checkpoint_interval: u64,
    /// Store wavefields 16-bit between steps (§6.5).
    pub compression: bool,
    /// Per-array statistics from a coarse pre-run (Fig. 5a). Without
    /// them, compression falls back to per-step self statistics.
    pub compression_stats: Vec<(String, FieldStats)>,
    /// Physical position of grid index (0,0,0), m.
    pub origin: (f64, f64, f64),
    /// Who walks the x-planes of each step phase: the calling thread or
    /// the Rayon pool (bit-identical). Defaults to the `SWQUAKE_EXEC`
    /// environment override when set, [`ExecMode::Auto`] otherwise.
    pub exec: ExecMode,
    /// How the dynamic wavefields (and attenuation memory variables) live
    /// between steps: [`ResidentMode::Full`] keeps plain f32 arrays;
    /// [`ResidentMode::Compressed16`] keeps them as 16-bit planes and
    /// streams x-tiles through a small f32 slab each step (see
    /// [`crate::resident`]). Incompatible with §6.5 inter-step
    /// compression, surface snapshots and multirank runs —
    /// [`SimConfig::validate`] / [`run_multirank`] reject those
    /// combinations.
    pub resident: ResidentMode,
    /// Byte budget for the compressed-resident decode slab; the engine
    /// solves the widest tile that fits (see
    /// [`crate::resident::tile_width_for_cap`]). `None` uses the default
    /// tile width. Ignored in `Full` mode.
    pub memory_cap_bytes: Option<u64>,
    /// Pin the global Rayon worker budget to this many threads (0 = keep
    /// the current setting). Defaults to `SWQUAKE_THREADS` when set.
    pub threads: usize,
    /// Metrics sink for every subsystem the run touches (defaults to
    /// [`Telemetry::disabled`], which records nothing).
    pub telemetry: Telemetry,
    /// In-situ health monitoring (stability watchdog, field/energy
    /// probes, compression error budget). `None` (the default) runs
    /// with zero health overhead.
    pub health: Option<HealthConfig>,
    /// A pre-opened health log shared across ranks; wins over the
    /// config's `log_path` (set by [`run_multirank`] and the CLI).
    pub shared_health_log: Option<Arc<HealthLog>>,
    /// Durable checkpoint directory: every due checkpoint is persisted
    /// through a [`CheckpointStore`] — atomic files, a versioned
    /// manifest, keep-N retention. The store is a checkpoint's only home.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint generations the store retains.
    pub checkpoint_keep: usize,
    /// Deterministic fault-injection plan for crash drills (`None` —
    /// the default — injects nothing and costs one branch per step).
    pub fault: FaultHook,
    /// Resume from the newest generation under `checkpoint_dir` that is
    /// valid for every rank, instead of starting fresh. The store must
    /// already exist; corrupt or incomplete newer generations are
    /// skipped and reported ([`ResumeInfo::skipped`]). [`Simulation::new`],
    /// [`Simulation::new_with_state`] and [`run_multirank`] all read it.
    pub resume: bool,
    /// Per-kernel performance recorder (`None` — the default — costs one
    /// branch per instrumentation site, same pattern as `fault`). When
    /// armed, every production-step kernel accumulates wall time; freeze
    /// with [`Simulation::perf_ledger`] (on a rank grid:
    /// [`MultiRankOutput::ledger`]), which joins in the modeled counts.
    pub perf: Option<Arc<PerfRecorder>>,
    /// Step-aligned run-timeline recorder (`None` — the default — costs
    /// one branch per step, same pattern as `perf`). When armed, every
    /// step's velocity/stress/finish split and the halo wait/pack/unpack
    /// split accumulate per rank, plus per-field resident-bytes gauges
    /// at construction. Recording never touches the numerics: an
    /// instrumented run is bit-identical to an uninstrumented one.
    pub timeline: Option<Arc<TimelineRecorder>>,
}

impl SimConfig {
    /// A minimal config for a mesh.
    pub fn new(dims: Dims3, dx: f64, steps: usize) -> Self {
        Self {
            dims,
            dx,
            steps,
            options: StateOptions::default(),
            sources: Vec::new(),
            stations: Vec::new(),
            snapshot_times: Vec::new(),
            snapshot_stride: 4,
            checkpoint_interval: 0,
            compression: false,
            compression_stats: Vec::new(),
            origin: (0.0, 0.0, 0.0),
            exec: ExecMode::from_env(),
            resident: ResidentMode::default(),
            memory_cap_bytes: None,
            threads: exec::threads_from_env(),
            telemetry: Telemetry::disabled(),
            health: None,
            shared_health_log: None,
            checkpoint_dir: None,
            checkpoint_keep: sw_io::store::DEFAULT_KEEP,
            fault: None,
            resume: false,
            perf: None,
            timeline: None,
        }
    }

    /// Choose the execution mode (overrides the `SWQUAKE_EXEC` default).
    #[must_use]
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Choose how wavefields are stored between steps; see
    /// [`SimConfig::resident`] for the compatibility contract.
    #[must_use]
    pub fn with_resident(mut self, resident: ResidentMode) -> Self {
        self.resident = resident;
        self
    }

    /// Cap the compressed-resident decode slab at `bytes`; see
    /// [`SimConfig::memory_cap_bytes`].
    #[must_use]
    pub fn with_memory_cap(mut self, bytes: u64) -> Self {
        self.memory_cap_bytes = Some(bytes);
        self
    }

    /// Pin the global Rayon worker budget (0 = keep the current setting).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replace the source list.
    #[must_use]
    pub fn with_sources(mut self, sources: Vec<PointSource>) -> Self {
        self.sources = sources;
        self
    }

    /// Replace the station list.
    #[must_use]
    pub fn with_stations(mut self, stations: Vec<Station>) -> Self {
        self.stations = stations;
        self
    }

    /// Enable or disable 16-bit inter-step storage (§6.5).
    #[must_use]
    pub fn with_compression(mut self, enabled: bool) -> Self {
        self.compression = enabled;
        self
    }

    /// Provide coarse-run statistics (Fig. 5a) for the codecs.
    #[must_use]
    pub fn with_compression_stats(mut self, stats: Vec<(String, FieldStats)>) -> Self {
        self.compression_stats = stats;
        self
    }

    /// Attach a telemetry handle; pass [`Telemetry::enabled`] to collect
    /// metrics from every subsystem the run touches.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enable in-situ health monitoring with the given configuration.
    #[must_use]
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = Some(health);
        self
    }

    /// Attach a pre-opened health log (shared across ranks); overrides
    /// the health config's `log_path`.
    #[must_use]
    pub fn with_health_log(mut self, log: Arc<HealthLog>) -> Self {
        self.shared_health_log = Some(log);
        self
    }

    /// Persist due checkpoints into `dir` (atomic files + versioned
    /// manifest + retention) at [`SimConfig::with_checkpoint_interval`]'s
    /// cadence.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Checkpoint every `interval` steps (0 = never) into the store of
    /// [`SimConfig::with_checkpoint_dir`].
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Keep the newest `keep` checkpoint generations in the store.
    #[must_use]
    pub fn with_checkpoint_keep(mut self, keep: usize) -> Self {
        self.checkpoint_keep = keep.max(1);
        self
    }

    /// Arm a deterministic fault-injection plan (crash drills only).
    #[must_use]
    pub fn with_fault_plan(mut self, fault: FaultHook) -> Self {
        self.fault = fault;
        self
    }

    /// Resume from the newest valid checkpoint generation instead of
    /// starting fresh; see [`SimConfig::resume`].
    #[must_use]
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Arm a per-kernel performance recorder (shared across ranks in a
    /// multirank run).
    #[must_use]
    pub fn with_perf(mut self, perf: Arc<PerfRecorder>) -> Self {
        self.perf = Some(perf);
        self
    }

    /// Arm a run-timeline recorder (shared across ranks in a multirank
    /// run); see [`SimConfig::timeline`].
    #[must_use]
    pub fn with_timeline(mut self, timeline: Arc<TimelineRecorder>) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Check that the configuration can produce a runnable simulation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let d = self.dims;
        if d.nx == 0 || d.ny == 0 || d.nz == 0 {
            return Err(ConfigError::EmptyDims { dims: d });
        }
        if self.checkpoint_interval > 0 && self.checkpoint_dir.is_none() {
            return Err(ConfigError::CheckpointWithoutStore { interval: self.checkpoint_interval });
        }
        if self.dx <= 0.0 || !self.dx.is_finite() {
            return Err(ConfigError::NonPositiveSpacing { dx: self.dx });
        }
        for (index, src) in self.sources.iter().enumerate() {
            if src.ix >= d.nx || src.iy >= d.ny || src.iz >= d.nz {
                return Err(ConfigError::SourceOutOfBounds {
                    index,
                    position: (src.ix, src.iy, src.iz),
                    dims: d,
                });
            }
        }
        for st in &self.stations {
            if st.ix >= d.nx || st.iy >= d.ny {
                return Err(ConfigError::StationOutOfBounds {
                    name: st.name.clone(),
                    position: (st.ix, st.iy),
                    dims: d,
                });
            }
        }
        let scale = self.options.dt_scale;
        if !scale.is_finite() || scale <= 0.0 {
            return Err(ConfigError::InvalidDtScale { dt_scale: scale });
        }
        // The arrays `SolverState::blank` allocates, halos included.
        let arrays = self.options.arrays().count();
        let bytes = [d.nx, d.ny, d.nz].into_iter().try_fold(4 * arrays as u64, |bytes, n| {
            let padded = n.checked_add(2 * HALO_WIDTH)?;
            bytes.checked_mul(u64::try_from(padded).ok()?)
        });
        let host = host_memory_bytes();
        if bytes.is_none_or(|bytes| host.is_some_and(|host| bytes > host)) {
            return Err(ConfigError::StateTooLarge { dims: d, arrays, bytes, host });
        }
        if self.resident == ResidentMode::Compressed16 {
            if self.compression {
                return Err(ConfigError::ResidentUnsupported { feature: "inter-step compression" });
            }
            if !self.snapshot_times.is_empty() {
                return Err(ConfigError::ResidentUnsupported { feature: "surface snapshots" });
            }
        }
        Ok(())
    }
}

/// The host's `MemTotal + SwapTotal` from `/proc/meminfo`, bytes; `None`
/// where it cannot be read.
fn host_memory_bytes() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kib = |key: &str| -> Option<u64> {
        let line = meminfo.lines().find_map(|l| l.strip_prefix(key))?;
        line.trim().strip_suffix("kB")?.trim().parse().ok()
    };
    kib("MemTotal:")?.checked_add(kib("SwapTotal:")?)?.checked_mul(1024)
}

/// One perf-ledger row's counts for one step of one rank: the host's
/// cell and flop counts ([`crate::flops`]) beside the SW26010 cost
/// table's DMA bytes and predicted seconds.
struct LedgerRow {
    name: &'static str,
    cells: u64,
    flops: f64,
    dma_bytes: u64,
    /// 0 for what the model does not cover (halo exchange).
    model_seconds: f64,
}

/// The ledger's rows for one step over `state`'s mesh: the one account
/// of what a step costs, its flops summing to the §7.1 total. Each row
/// sums the §6.4 kernels the host kernel stands for; the fused stress
/// kernel's bytes and seconds split by flop share between `dstrqc` and
/// `attenuation`. The sponge counts the cells its bands hold, one
/// multiply per damped array; the model prices it over the whole mesh.
/// Off the resident engine, the taper's multiplies are counted on the
/// stores that carry them (DESIGN "The tail rides the stores"): the
/// memory variables' on `attenuation`, a nonlinear state's wavefields on
/// `drprecpc`; the `sponge` row is the standalone pass that is left, and
/// a nonlinear state has none.
fn ledger_rows(state: &SolverState, compression: bool, resident: bool) -> Vec<LedgerRow> {
    let (dims, o) = (state.dims, &state.options);
    let costs = step_costs(dims, o.nonlinear, compression);
    let cells = dims.len() as u64;
    let row = |name, cells: u64, flops_per_cell: f64, kernels: &[&str], share: f64| {
        let of = kernels.iter().filter_map(|k| costs.get(k));
        let (bytes, seconds) = of.fold((0.0, 0.0), |(bytes, seconds), k| {
            (bytes + k.dma_bytes(), seconds + k.model_seconds)
        });
        LedgerRow {
            name,
            cells,
            flops: flops_per_cell * cells as f64,
            dma_bytes: (bytes * share) as u64,
            model_seconds: seconds * share,
        }
    };
    let damped = state.sponge.damped_cells(dims);
    let taper = |arrays: usize| if resident { 0.0 } else { (damped * arrays as u64) as f64 };
    let memory = damped_arrays(o) - WAVEFIELDS;
    let att = if o.attenuation { ATTENUATION_FLOPS / DSTRQC_FLOPS } else { 0.0 };
    let mut rows = vec![
        row("fstr", (dims.nx * dims.ny) as u64, FSTR_FLOPS, &["fstr"], 1.0),
        row("dvelc", cells, DVELC_FLOPS, &["dvelcx", "dvelcy"], 1.0),
        row("dstrqc", cells, DSTRQC_FLOPS - ATTENUATION_FLOPS, &["dstrqc"], 1.0 - att),
    ];
    if o.attenuation {
        let mut attenuation = row("attenuation", cells, ATTENUATION_FLOPS, &["dstrqc"], att);
        attenuation.flops += taper(memory);
        rows.push(attenuation);
    }
    if o.nonlinear {
        let flops = DRPRECPC_CALC_FLOPS + DRPRECPC_APP_FLOPS;
        let mut walk = row("drprecpc", cells, flops, &["drprecpc_calc", "drprecpc_app"], 1.0);
        walk.flops += taper(WAVEFIELDS);
        rows.push(walk);
    }
    if resident || !o.nonlinear {
        let arrays = if resident { WAVEFIELDS + memory } else { WAVEFIELDS };
        rows.push(row("sponge", damped, arrays as f64, &["sponge"], 1.0));
    }
    if compression {
        rows.push(row("compression", cells, 0.0, &["compression"], 1.0));
    }
    rows
}

/// Halo traffic of one step of one rank: it sends its width-`HALO_WIDTH`
/// boundary planes of all 9 wavefields to each neighbour (4 bytes per
/// float), matching the exchanger's own byte accounting.
fn halo_row(comm: &RankComm, local: Dims3) -> LedgerRow {
    let sides = |faces: [Face; 2]| faces.iter().filter(|f| comm.has_neighbor(**f)).count();
    let planes = sides([Face::West, Face::East]) * local.ny * local.nz
        + sides([Face::South, Face::North]) * local.nx * local.nz;
    let cells = (HALO_WIDTH * planes) as u64;
    LedgerRow { name: "halo", cells, flops: 0.0, dma_bytes: 9 * cells * 4, model_seconds: 0.0 }
}

/// One stage of the step schedule, as each observer names it: the
/// telemetry timer (also the trace span), the perf ledger's row, the run
/// timeline's third of the step. [`Simulation::span`] is the only place a
/// stage is timed, and this the only list of stages.
#[derive(Clone, Copy)]
struct Stage {
    timer: Option<&'static str>,
    row: Option<&'static str>,
    third: Option<&'static str>,
}

impl Stage {
    const fn timed(timer: &'static str, row: Option<&'static str>) -> Self {
        Self { timer: Some(timer), row, third: None }
    }

    const fn third(name: &'static str) -> Self {
        Self { timer: None, row: None, third: Some(name) }
    }

    const HALO_STRESS: Self = Self::timed("step.halo_stress", Some("halo"));
    const HALO_VELOCITY: Self = Self::timed("step.halo_velocity", Some("halo"));
    const FREE_SURFACE: Self = Self::timed("step.free_surface", Some("fstr"));
    const VELOCITY: Self = Self::timed("step.velocity", Some("dvelc"));
    const STRESS: Self = Self::timed("step.stress", Some("dstrqc"));
    const SOURCE: Self = Self::timed("step.source", None);
    const PLASTICITY: Self = Self::timed("step.plasticity", Some("drprecpc"));
    const SPONGE: Self = Self::timed("step.sponge", Some("sponge"));
    const COMPRESSION: Self = Self::timed("step.compression", Some("compression"));
    const RECORD: Self = Self::timed("step.record", None);
    const CHECKPOINT: Self = Self::timed("step.checkpoint", Some("checkpoint"));
    const VELOCITY_THIRD: Self = Self::third(tl_phase::VELOCITY);
    const STRESS_THIRD: Self = Self::third(tl_phase::STRESS);
    const FINISH_THIRD: Self = Self::third(tl_phase::FINISH);
}

/// What the ranks of one run share: the halo fabric's exchanger and the
/// three rendezvous of [`Simulation::settle`].
struct RankShared {
    exchanger: HaloExchanger,
    /// Rank-death vote (`None` when no fault plan is armed).
    kill: Option<FaultVote>,
    /// The store every rank writes its image into and rank 0 commits,
    /// behind `commit`, once all of them have.
    store: Option<Arc<CheckpointStore>>,
    commit: Barrier,
    /// Health stop vote, cast at the probe steps.
    stop: StopBarrier,
    /// The abort the ranks agree on: each rank with a verdict of its own
    /// offers it before a vote, all read the lowest rank's after it (the
    /// vote's barrier orders the two; the offers of one vote are for one
    /// step, so that is the earliest `(step, rank)`).
    verdict: Mutex<Option<(usize, RunError)>>,
}

impl RankShared {
    fn new(config: &SimConfig, parties: usize, store: Option<Arc<CheckpointStore>>) -> Self {
        let mut exchanger = HaloExchanger::standard().with_telemetry(config.telemetry.clone());
        if let Some(tl) = &config.timeline {
            exchanger = exchanger.with_timeline(Arc::clone(tl));
        }
        Self {
            exchanger,
            kill: FaultVote::new(parties, &config.fault),
            store,
            commit: Barrier::new(parties),
            stop: StopBarrier::new(parties),
            verdict: Mutex::new(None),
        }
    }

    /// One collective decision: offer `rank`'s verdict, cast `vote`, and
    /// — when any rank voted to stop — return the verdict all ranks leave
    /// with.
    fn agree(
        &self,
        rank: usize,
        mine: Option<RunError>,
        vote: impl FnOnce(bool) -> bool,
    ) -> Option<RunError> {
        let verdict = || self.verdict.lock().expect("a rank panicked holding the verdict");
        let stop = mine.is_some();
        if let Some(e) = mine {
            let mut agreed = verdict();
            if agreed.as_ref().is_none_or(|(lowest, _)| rank < *lowest) {
                *agreed = Some((rank, e));
            }
        }
        vote(stop).then(|| verdict().clone()).flatten().map(|(_, e)| e)
    }
}

/// What makes a simulation one rank of a grid: its endpoints in the halo
/// fabric and what it shares with the other ranks. The halo stages and
/// the rendezvous of [`Simulation::settle`] exist only with a link.
struct RankLink {
    comm: RankComm,
    shared: Arc<RankShared>,
}

/// One compressed wavefield's codec state across steps.
///
/// A field whose config carries coarse-run statistics keeps the codec
/// built from them. A field without (the empty-stats sentinels of
/// [`Codec::paper_assignment`]) self-calibrates: each step its max-abs
/// comes from the walk that stored it last ([`PlaneMaxima`]), and the
/// codec from `sw_compress`'s binade-bucket
/// [`CodecCache`] — the same calibration the resident store uses, so a
/// codec is built only the first time the field's magnitude visits a
/// power-of-two bucket. The active codec is a pure function of the
/// *current* field — never of run history — so a restored checkpoint
/// picks the identical codec and restart stays bit-exact.
struct CompressionSlot {
    /// Calibrated codecs by bucket; `None` for a fixed codec.
    cache: Option<CodecCache>,
    /// The codec applied this step.
    active: Codec,
}

impl CompressionSlot {
    fn new(base: Codec) -> Self {
        let self_calibrating = match &base {
            Codec::Norm(n) => n.vmin() == 0.0 && n.vmax() == 1.0,
            Codec::Adaptive(a) => a.exp_bits == 1,
            Codec::F16(_) => false,
        };
        Self { cache: self_calibrating.then(|| CodecCache::new(base)), active: base }
    }

    /// Re-calibrate `active` for a field whose interior max-abs is
    /// `max_abs`; returns whether a codec had to be built.
    fn refresh(&mut self, max_abs: f32) -> bool {
        // A non-finite max means the field is blowing up; keep whatever
        // codec we have (the instability check after the step reports it).
        let Some(cache) = self.cache.as_mut().filter(|_| max_abs.is_finite()) else {
            return false;
        };
        let built = cache.built();
        self.active = cache.get(max_abs_bucket(max_abs));
        cache.built() > built
    }
}

/// One item of the round trip's walk: padded x-plane `p` of the three
/// velocities, or of stress `i`.
enum PlaneWork<'a> {
    Velocities(usize, [&'a mut [f32]; 3]),
    Stress(usize, usize, &'a mut [f32]),
}

/// Round-trip the nine wavefields of `state` in place through `codecs`
/// ([`COMPRESSED_FIELDS`] order) as one walk over padded x-planes —
/// every raw element, halos included — in [`PROBE_ITEMS`] items per
/// plane: the three velocities, then each stress. The walk is one pool
/// region when `parallel`, a plain loop over the same items otherwise.
/// Returns each field's error statistics (the item partials folded in
/// plane order; all-zero without `stats`) and, with `probe`, the
/// watchdog's probe walk over the decoded interior planes, taken while
/// they are in cache: the stored values, in the order
/// [`health::fold_probe`](crate::health) folds.
fn roundtrip_planes(
    state: &mut SolverState,
    codecs: [&Codec; WAVEFIELDS],
    parallel: bool,
    stats: bool,
    probe: bool,
) -> (Vec<RoundtripError>, Option<Vec<ProbeItem>>) {
    let d = state.dims;
    let SolverState { u, v, w, xx, yy, zz, xy, xz, yz, rho, .. } = state;
    let (len, padded) = (u.plane_len(), u.padded_dims().nx);
    let mut streams = [u, v, w, xx, yy, zz, xy, xz, yz].map(|f| f.raw_mut().chunks_mut(len));
    let mut items = Vec::with_capacity(PROBE_ITEMS * padded);
    for p in 0..padded {
        let [u, v, w, stresses @ ..] =
            streams.each_mut().map(|s| s.next().expect("a padded plane"));
        items.push(PlaneWork::Velocities(p, [u, v, w]));
        items.extend(stresses.into_iter().enumerate().map(|(i, s)| PlaneWork::Stress(p, i, s)));
    }
    let rho = &*rho;
    let scans = |p: usize| probe && (HALO_WIDTH..HALO_WIDTH + d.nx).contains(&p);
    let none = RoundtripError::default();
    let partials = sw_compress::par::map_ordered(items, parallel, |work| match work {
        PlaneWork::Velocities(p, mut planes) => {
            let mut errors = [none; 3];
            for ((e, plane), codec) in errors.iter_mut().zip(&mut planes).zip(&codecs[..3]) {
                *e = roundtrip_item(*codec, plane, stats);
            }
            let scan = scans(p).then(|| {
                let (scans, energy) =
                    scan_velocity_plane(planes.each_ref().map(|q| &**q), rho.plane(p), d);
                ProbeItem::Velocities(scans, energy)
            });
            (errors, scan)
        }
        PlaneWork::Stress(p, i, plane) => {
            let error = roundtrip_item(codecs[3 + i], plane, stats);
            let scan = scans(p).then(|| ProbeItem::Stress(scan_plane(plane, d)));
            ([error, none, none], scan)
        }
    });
    let mut errors = vec![none; WAVEFIELDS];
    let mut scanned = probe.then(|| Vec::with_capacity(PROBE_ITEMS * d.nx));
    for (k, (partial, scan)) in partials.into_iter().enumerate() {
        let fields = match k % PROBE_ITEMS {
            0 => 0..3,
            i => 2 + i..3 + i,
        };
        for (f, e) in fields.zip(partial) {
            errors[f] = RoundtripError::merge(errors[f], e);
        }
        if let (Some(items), Some(scan)) = (&mut scanned, scan) {
            items.push(scan);
        }
    }
    (errors, scanned)
}

/// One running simulation (one rank's subdomain, or the whole domain).
pub struct Simulation {
    /// The solver state.
    pub state: SolverState,
    /// Rank-local sources.
    pub sources: Vec<PointSource>,
    /// Simulated time, s.
    pub time: f64,
    /// Steps taken.
    pub step_count: u64,
    /// Station recorder.
    pub seismo: SeismogramRecorder,
    /// Peak-ground-velocity recorder.
    pub pgv: PgvRecorder,
    /// Surface snapshot recorder.
    pub snapshots: SnapshotRecorder,
    /// Flop accounting.
    pub flops: FlopCounter,
    /// Writer into the durable store due generations are persisted into,
    /// when one is configured; holds the one generation in flight.
    writer: Option<GenerationWriter>,
    /// Steps between generations ([`SimConfig::checkpoint_interval`]);
    /// only a simulation holding a `writer` is ever due.
    checkpoint_interval: u64,
    /// The generation this simulation was rewound to at build.
    resumed: Option<ResumeInfo>,
    /// Present when this simulation is one rank of a grid.
    link: Option<RankLink>,
    /// This rank's id (file naming in the store, fault targeting, health
    /// records); 0 without a link.
    rank: usize,
    /// The armed fault plan, if any.
    fault: FaultHook,
    /// Latched injected kill: once set, checked stepping refuses to
    /// continue, mimicking a dead process.
    fault_kill: Option<KilledError>,
    /// The abort this rank's grid agreed on ([`RankShared::agree`]);
    /// always `None` without a link.
    halt: Option<RunError>,
    snapshot_times: Vec<f64>,
    next_snapshot: usize,
    compression: Option<Vec<CompressionSlot>>,
    /// Who walks the planes of every step phase (resolved from
    /// [`SimConfig::exec`] for this mesh).
    path: ExecPath,
    /// The compressed-resident engine when [`SimConfig::resident`] is
    /// `Compressed16`; the state's dynamic arrays are detached and every
    /// step phase streams tiles through the engine's f32 slab instead.
    resident: Option<ResidentEngine>,
    telemetry: Telemetry,
    /// Steps this simulation has taken itself (a restore rewinds
    /// `step_count`, not this): what the frozen ledger multiplies
    /// `rows` by.
    steps_run: u64,
    /// What one step costs this rank: its mesh's ledger rows plus, on a
    /// grid, its halo traffic. Fixed at build, like everything they
    /// depend on.
    rows: Vec<LedgerRow>,
    health: Option<HealthMonitor>,
    /// Per-kernel performance recorder (shared across ranks), `None`
    /// when perf is off.
    perf: Option<Arc<PerfRecorder>>,
    /// Step-aligned run-timeline recorder (shared across ranks), `None`
    /// when observability is off.
    timeline: Option<Arc<TimelineRecorder>>,
}

/// Feed the per-field resident-bytes gauges of one rank's working set
/// into the run timeline: the nine wavefields individually (they are what
/// the compressed-resident-grid arc will shrink), plus the attenuation
/// memory variables and the material arrays as aggregates — together
/// exactly the bytes of [`SolverState::arrays`]. Called once at
/// construction — allocations are fixed for the life of a simulation, so
/// this is also the high-water mark. Compressed-resident, the dynamic
/// fields are the engine's 16-bit stores (the f32 arrays are detached)
/// and its decode slab is one more gauge.
fn record_resident_memory(
    tl: &TimelineRecorder,
    rank: usize,
    state: &SolverState,
    resident: Option<&ResidentEngine>,
) {
    let live = state.arrays().map(|(name, class, f)| (name, class, f.resident_bytes() as u64));
    // The engine's stores are the leading, dynamic arrays of the options' list.
    let stored = resident.into_iter().flat_map(|e| {
        let classed = e.carried().zip(state.options.arrays());
        classed.map(move |((i, name), (_, class))| (name, class, e.stored_bytes(i)))
    });
    let (mut memvars, mut material) = (0, 0);
    for (name, class, bytes) in live.chain(stored) {
        match class {
            ArrayClass::Wavefield => tl.record_memory(rank, &format!("state.{name}"), bytes),
            ArrayClass::MemoryVariable => memvars += bytes,
            ArrayClass::Material => material += bytes,
        }
    }
    tl.record_memory(rank, "state.memvars", memvars);
    tl.record_memory(rank, "state.material", material);
    if let Some(engine) = resident {
        tl.record_memory(rank, "resident.working_set", engine.working_set_bytes());
    }
}

/// Build a health probe from the compressed-resident engine's per-step
/// encode statistics: max-abs per wavefield comes from the (finite-only)
/// encode scans for free; the decode scan for exact NaN/Inf locations
/// runs only on the cold path (a step whose encodes saw nonfinite
/// values). Kinetic energy needs a full-field pass the resident path
/// deliberately avoids, so it is reported as NaN — the watchdog skips
/// non-finite energy baselines by contract.
fn resident_probe(engine: &ResidentEngine, step: u64, time: f64, rank: usize) -> StepProbe {
    let mut fields = Vec::with_capacity(COMPRESSED_FIELDS.len());
    for (idx, (name, stats)) in engine.step_stats().take(COMPRESSED_FIELDS.len()).enumerate() {
        let (nan_count, inf_count, first_bad) =
            if stats.nonfinite > 0 { engine.scan_nonfinite(idx) } else { (0, 0, None) };
        fields.push(FieldProbe {
            name: name.to_string(),
            max_abs: f64::from(stats.max_abs),
            nan_count,
            inf_count,
            // The encoder's statistics do not count them.
            subnormal_count: 0,
            first_bad,
        });
    }
    let max_velocity = fields[..3].iter().fold(0.0f64, |m, f| m.max(f.max_abs));
    let max_stress = fields[3..].iter().fold(0.0f64, |m, f| m.max(f.max_abs));
    StepProbe { step, time, rank, max_velocity, max_stress, kinetic_energy: f64::NAN, fields }
}

impl Simulation {
    /// Build a single-rank simulation over the full config domain, at
    /// step 0 or, with [`SimConfig::resume`], at the newest valid
    /// generation in its store.
    ///
    /// Fails with [`ConfigError`] when the mesh is degenerate or a source
    /// or station lies outside it, and with [`RunError::ResumeFailed`]
    /// when a resume finds no generation this run can restore. Corrupt or
    /// incomplete newer generations are skipped with a logged
    /// [`sw_health::Warning::CheckpointFallback`] and counted in
    /// `io.restore_fallbacks`.
    #[allow(clippy::result_large_err)] // cold set-up error; see step_checked
    pub fn new(model: &dyn VelocityModel, config: &SimConfig) -> Result<Self, RunError> {
        let state =
            SolverState::from_model(model, config.dims, config.dx, config.origin, config.options);
        Self::new_with_state(state, config)
    }

    /// Like [`Simulation::new`] but reusing an already-built material
    /// state (the campaign engine caches `SolverState::from_model` per
    /// mesh shape and hands out clones). The state must have been built
    /// for this config's dims/dx/origin/options — the campaign's cache
    /// key covers exactly those — or restores and physics will mismatch.
    #[allow(clippy::result_large_err)] // cold set-up error; see step_checked
    pub fn new_with_state(state: SolverState, config: &SimConfig) -> Result<Self, RunError> {
        config.validate()?;
        let part = [(config.dims, config.stations.as_slice())];
        let (store, restored) = open_generation(config, &part, state.dt)?;
        let mut sim = Self::build(state, config, store, None);
        if let Some(restored) = &restored {
            sim.rewind_to(restored);
        }
        Ok(sim)
    }

    /// The generation this simulation was resumed from (`None` for a
    /// fresh start).
    pub fn resumed(&self) -> Option<&ResumeInfo> {
        self.resumed.as_ref()
    }

    /// Rewind a freshly built rank to its image of the generation
    /// [`open_generation`] chose and validated; rank 0 records the
    /// resume in telemetry and, when generations were skipped, as
    /// checkpoint-fallback warnings in the health log.
    fn rewind_to(&mut self, restored: &RestoredGeneration) {
        self.apply_checkpoint(&restored.checkpoints[self.rank]);
        let RestoredGeneration { step, time, ref skipped, .. } = *restored;
        self.resumed = Some(ResumeInfo { step, time, skipped: skipped.clone() });
        if self.rank != 0 {
            return;
        }
        let tel = &self.telemetry;
        tel.gauge("io.resume_step", step as f64);
        if skipped.is_empty() {
            return;
        }
        tel.add("io.restore_fallbacks", skipped.len() as u64);
        if let Some(monitor) = &self.health {
            for (at, reason) in skipped {
                let record =
                    HealthRecord::checkpoint_fallback(step, time, self.rank, *at, reason.clone());
                monitor.log_record(&record, tel);
            }
        }
    }

    /// Build one rank over `state` — the whole domain without a `link`.
    /// The caller has validated the config and opened `store`.
    fn build(
        mut state: SolverState,
        config: &SimConfig,
        store: Option<Arc<CheckpointStore>>,
        link: Option<RankLink>,
    ) -> Self {
        debug_assert_eq!(state.misplaced(), None, "an array off its cache phase");
        let d = state.dims;
        let rank = link.as_ref().map_or(0, |l| l.comm.rank);
        let compression = config.compression.then(|| {
            COMPRESSED_FIELDS
                .iter()
                .map(|name| {
                    let stats = config
                        .compression_stats
                        .iter()
                        .find(|(n, _)| n == *name)
                        .map(|(_, s)| *s)
                        .unwrap_or_else(FieldStats::empty);
                    CompressionSlot::new(Codec::paper_assignment(name, &stats))
                })
                .collect()
        });
        exec::configure_threads(config.threads);
        let path = config.exec.resolve_path(d.len());
        let telemetry = config.telemetry.clone();
        if telemetry.is_enabled() {
            telemetry.gauge("exec.mode", f64::from(u8::from(path.is_parallel())));
            telemetry.gauge("exec.threads", rayon::current_num_threads() as f64);
            // 0 baseline, 1 avx2, 2 avx512 (`LaneTier`'s order).
            telemetry.gauge("exec.lanes", f64::from(LaneTier::active() as u8));
        }
        let resident = (config.resident == ResidentMode::Compressed16).then(|| {
            let engine = ResidentEngine::new(&state, config.memory_cap_bytes);
            // The engine now holds the dynamic values 16-bit; detach the
            // f32 arrays so the footprint win is real, not additive.
            for f in state.dynamic_mut() {
                *f = Field3::detached(d, HALO_WIDTH);
            }
            engine
        });
        let timeline = config.timeline.clone();
        if let Some(tl) = &timeline {
            record_resident_memory(tl, rank, &state, resident.as_ref());
            tl.set_resident_mode(config.resident.to_string());
        }
        let mut rows = ledger_rows(&state, compression.is_some(), resident.is_some());
        rows.extend(link.as_ref().map(|l| halo_row(&l.comm, d)));
        Self {
            state,
            sources: config.sources.clone(),
            time: 0.0,
            step_count: 0,
            seismo: SeismogramRecorder::new(config.stations.clone(), 0.0),
            pgv: PgvRecorder::new(d.nx, d.ny),
            snapshots: SnapshotRecorder::new(config.snapshot_stride),
            flops: FlopCounter::default(),
            writer: store.map(GenerationWriter::new),
            checkpoint_interval: config.checkpoint_interval,
            resumed: None,
            link,
            rank,
            fault: config.fault.clone(),
            fault_kill: None,
            halt: None,
            snapshot_times: config.snapshot_times.clone(),
            next_snapshot: 0,
            compression,
            path,
            resident,
            telemetry,
            steps_run: 0,
            rows,
            health: config
                .health
                .clone()
                .map(|h| HealthMonitor::new(h, rank, config.shared_health_log.clone())),
            perf: config.perf.clone(),
            timeline,
        }
    }

    /// Whether this simulation fans work out over the Rayon pool.
    pub fn is_parallel(&self) -> bool {
        self.path.is_parallel()
    }

    /// What the configured [`ExecMode`] resolved to for this mesh.
    pub fn exec_path(&self) -> ExecPath {
        self.path
    }

    /// How this simulation stores its wavefields between steps.
    pub fn resident_mode(&self) -> ResidentMode {
        if self.resident.is_some() {
            ResidentMode::Compressed16
        } else {
            ResidentMode::Full
        }
    }

    /// The compressed-resident decode slab's f32 byte footprint (`None`
    /// in full mode) — what [`SimConfig::memory_cap_bytes`] bounds.
    pub fn resident_working_set_bytes(&self) -> Option<u64> {
        self.resident.as_ref().map(ResidentEngine::working_set_bytes)
    }

    /// Total bytes the compressed 16-bit stores occupy (`None` in full
    /// mode) — what replaces the f32 wavefield + memory-variable arrays.
    pub fn resident_stored_bytes(&self) -> Option<u64> {
        self.resident.as_ref().map(|e| (0..RESIDENT_FIELDS.len()).map(|i| e.stored_bytes(i)).sum())
    }

    /// The telemetry handle this simulation records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Snapshot everything recorded so far into a serializable report
    /// (empty, schema-stamped, when telemetry is disabled).
    pub fn metrics(&self) -> sw_telemetry::Report {
        self.telemetry.report()
    }

    /// Freeze the per-kernel performance ledger (when a recorder is
    /// armed; `None` otherwise): the recorder's measured walls joined with
    /// this simulation's per-step rows times the steps run.
    pub fn perf_ledger(&self) -> Option<PerfLedger> {
        self.perf.as_deref().map(|rec| freeze_ledger(rec, &[self]))
    }

    /// Advance one step: the one schedule every rank of every run takes.
    /// The halo stages and the end-of-step rendezvous exist only with
    /// a rank link; a single-rank step records no halo phase and takes
    /// no barrier.
    pub fn step(&mut self) {
        let _fp = exec::kernel_fp_env();
        let observed = self.timers_armed() || self.perf.is_some() || self.timeline.is_some();
        // A `slow` fault stretches the step it is due for (the numbering
        // is post-step, hence +1) by a fraction of its own measured wall
        // time. The sleep sits inside the stress stage, so the timeline
        // attributes the skew to this rank's compute — exactly what a
        // real straggler looks like to its neighbours — and it never
        // touches the numerics: outputs stay bit-identical.
        let slow = self.fault.as_ref().and_then(|p| p.slow_due(self.step_count + 1, self.rank));
        let start = (observed || slow.is_some()).then(Instant::now);
        // Stress halos feed the velocity stencils, velocity halos the
        // stress stencils (indices into `SolverState::dynamic_mut`).
        self.halo_stage(Stage::HALO_STRESS, 3..9);
        self.span(Stage::VELOCITY_THIRD, |s| s.velocity_half());
        self.halo_stage(Stage::HALO_VELOCITY, 0..3);
        let scanned = self.span(Stage::STRESS_THIRD, |s| {
            let scanned = s.stress_half();
            if let (Some(frac), Some(t0)) = (slow, start) {
                std::thread::sleep(t0.elapsed().mul_f64(frac));
            }
            scanned
        });
        self.span(Stage::FINISH_THIRD, |s| s.finish_step(scanned));
        if let Some(start) = start.filter(|_| observed) {
            // The step wall, read once for all of its sinks.
            let wall = start.elapsed().as_secs_f64();
            self.telemetry.record_span("step", start, wall);
            self.telemetry.sample("step.wall_s", wall);
            // The ledger's counts are shared, so one rank reports step
            // walls (duplicates would skew the percentiles); the timeline
            // keeps them per rank (rank 0's also drive the heartbeats).
            if let Some(p) = self.perf.as_deref().filter(|_| self.rank == 0) {
                p.note_step(self.step_count, wall);
            }
            if let Some(tl) = self.timeline.as_deref() {
                tl.note_step(self.rank, self.step_count, wall);
            }
        }
        self.settle();
    }

    /// Whether a recorded duration lands anywhere: in the metrics
    /// registry or on an attached tracer's timeline.
    fn timers_armed(&self) -> bool {
        self.telemetry.is_enabled() || self.telemetry.tracer().is_enabled()
    }

    /// Enter one stage — the only clock of the step loop: one pair of
    /// reads around `body`, fanned out to whichever of the stage's
    /// observers is armed (the telemetry timer, which is also the trace
    /// span; the perf ledger's row; the timeline's third). With none
    /// armed the clock is not read, and the reads never touch the
    /// numerics, so instrumented runs stay bit-identical.
    fn span<R>(&mut self, stage: Stage, body: impl FnOnce(&mut Self) -> R) -> R {
        let armed = (stage.timer.is_some() && self.timers_armed())
            || (stage.row.is_some() && self.perf.is_some())
            || (stage.third.is_some() && self.timeline.is_some());
        let t0 = armed.then(Instant::now);
        let out = body(self);
        if let Some(t0) = t0 {
            let wall = t0.elapsed().as_secs_f64();
            if let Some(name) = stage.timer {
                self.telemetry.record_span(name, t0, wall);
            }
            if let (Some(name), Some(p)) = (stage.row, self.perf.as_deref()) {
                p.add_wall(self.rank, name, wall);
            }
            if let (Some(name), Some(tl)) = (stage.third, self.timeline.as_deref()) {
                tl.record_phase(self.rank, name, wall);
            }
        }
        out
    }

    /// Exchange the halos of `fields` with the neighbouring ranks.
    fn halo_stage(&mut self, stage: Stage, fields: std::ops::Range<usize>) {
        if self.link.is_none() {
            return;
        }
        self.span(stage, |s| {
            let link = s.link.as_ref().expect("checked above");
            link.shared.exchanger.exchange(&link.comm, &mut s.state.dynamic_mut()[fields]);
        });
    }

    /// Whether the health monitor will read the 16-bit round-trip error
    /// statistics of the step now running (it samples the step that is
    /// completing, so the count is one ahead).
    fn compression_sampled(&self) -> bool {
        self.health.as_ref().is_some_and(|m| m.wants_compression_sample(self.step_count + 1))
    }

    /// First half of the step: the stress image + the velocity update,
    /// which images `w` as it stores it, on the f32 arrays or —
    /// compressed-resident — tile by tile through the engine, which
    /// images the free surface inside its sweep.
    fn velocity_half(&mut self) {
        let pool = self.path.is_parallel();
        let whole = Region::whole(self.state.dims);
        let sampled = self.compression_sampled();
        match &mut self.resident {
            Some(engine) => {
                engine.begin_step();
                if sampled {
                    engine.sample_encode_errors();
                }
            }
            None => self.span(Stage::FREE_SURFACE, |s| {
                kernels::fstr_stress_region(&mut s.state, whole.x.clone());
            }),
        }
        self.span(Stage::VELOCITY, |s| match &mut s.resident {
            Some(engine) => engine.velocity_sweep(&s.state),
            None => kernels::dvelc_region(&mut s.state, &whole, pool, true),
        });
    }

    /// Second half of the step: stress update, source injection,
    /// plasticity, sponge, and the §6.5 compression round trip. The taper
    /// rides the stores that come last (DESIGN "The tail rides the
    /// stores"): `dstrqc` damps the memory variables, the return-mapping
    /// walk the wavefields of a nonlinear state, and only an elastic
    /// state's wavefields take a pass of their own — `addsrc` sits
    /// between their stress store and the taper. Whichever walk stores
    /// the stresses last also returns their max-abs per plane when a
    /// codec self-calibrates from it (DESIGN "The round trip's neighbours
    /// ride it"). The engine fuses plasticity into its own sponge sweep,
    /// and validation keeps the round trip off it (it stores 16-bit
    /// already). Returns the probe walk the round trip made, on the steps
    /// the monitor probes.
    fn stress_half(&mut self) -> Option<Vec<ProbeItem>> {
        let pool = self.path.is_parallel();
        let whole = Region::whole(self.state.dims);
        let nx = self.state.dims.nx;
        let nonlinear = self.state.options.nonlinear;
        let taper = self.state.sponge.clone();
        let scale = self.compression.iter().flatten().any(|slot| slot.cache.is_some());
        self.span(Stage::STRESS, |s| match &mut s.resident {
            Some(engine) => engine.stress_sweep(&s.state),
            None => kernels::dstrqc_region(&mut s.state, &whole, pool, Some(&taper)),
        });
        self.span(Stage::SOURCE, |s| match &mut s.resident {
            Some(engine) => engine.inject_sources(&s.state, &s.sources, s.time),
            None => kernels::addsrc(&mut s.state, &s.sources, s.time),
        });
        let maxima = match &self.resident {
            None if nonlinear => self.span(Stage::PLASTICITY, |s| {
                kernels::drprecpc_region(&mut s.state, 0..nx, pool, scale).1
            }),
            None => self.span(Stage::SPONGE, |s| {
                kernels::taper_wavefields_region(&mut s.state, 0..nx, pool, scale)
            }),
            Some(engine) if engine.wants_plastic_sponge() => self.span(Stage::SPONGE, |s| {
                let engine = s.resident.as_mut().expect("matched above");
                engine.plastic_sponge_sweep(&mut s.state);
                None
            }),
            Some(_) => None,
        };
        self.compression_roundtrip(maxima)
    }

    /// The §6.5 16-bit inter-step storage, simulated as an in-place
    /// round trip of every wavefield through its codec. The
    /// self-calibrating fields' codecs come from `maxima`, their max-abs
    /// per plane as the step's last store left them, through the
    /// binade-bucket cache (see [`CompressionSlot`]); then one walk over
    /// padded x-planes ([`roundtrip_planes`]) runs every plane through
    /// its codec's lane body. Error statistics (for telemetry and the
    /// health budget) and, on a probe step, the watchdog's scan of the
    /// decoded planes ride the same items and never change a stored
    /// value. Returns that scan.
    fn compression_roundtrip(&mut self, maxima: Option<PlaneMaxima>) -> Option<Vec<ProbeItem>> {
        let mut slots = self.compression.take()?;
        let tel = self.telemetry.clone();
        let parallel = self.path.is_parallel();
        let scanned = self.span(Stage::COMPRESSION, |sim| {
            let (mut calibrating, mut rebuilds) = (0u64, 0u64);
            for (i, slot) in slots.iter_mut().enumerate().filter(|(_, s)| s.cache.is_some()) {
                // Only the stresses self-calibrate: the velocities' codec
                // is the fixed f16 (`Codec::paper_assignment`).
                let stress = i - (WAVEFIELDS - STRESSES);
                let planes = maxima.as_ref().expect("the stresses' last store reports their scale");
                let max_abs = planes.iter().fold(0.0f32, |m, plane| m.max(plane[stress]));
                calibrating += 1;
                rebuilds += u64::from(slot.refresh(max_abs));
            }
            if tel.is_enabled() {
                tel.add("compress.codec_rebuilds", rebuilds);
                tel.add("compress.codec_reuses", calibrating - rebuilds);
            }
            // The error statistics cost most of a round trip: they run on
            // the steps the monitor samples or, with a metrics registry
            // and no monitor, at the default health stride for the gauge.
            let health_sampling = sim.compression_sampled();
            let gauge_sampling = sim.health.is_none()
                && tel.is_enabled()
                && (sim.step_count + 1).is_multiple_of(HealthConfig::default().effective_stride());
            let sampled = health_sampling || gauge_sampling;
            let t0 = Instant::now();
            let codecs = std::array::from_fn(|i| &slots[i].active);
            let (stats, scanned) =
                roundtrip_planes(&mut sim.state, codecs, parallel, sampled, health_sampling);
            if tel.is_enabled() {
                tel.record_duration("compress.roundtrip", t0.elapsed().as_secs_f64());
                if sampled {
                    let max_err = stats.iter().fold(0.0f64, |m, s| m.max(s.max_abs_err));
                    tel.gauge("compress.max_roundtrip_error", max_err);
                }
            }
            if health_sampling {
                if let Some(monitor) = &mut sim.health {
                    for (name, stats) in COMPRESSED_FIELDS.iter().zip(stats) {
                        monitor.record_compression(name, stats, &tel);
                    }
                }
            }
            scanned
        });
        self.compression = Some(slots);
        scanned
    }

    /// Recording, flop accounting, checkpointing, clock advance, health.
    /// The two points where the compressed-resident engine differs:
    /// recorders tap decoded cells, and the health probe is built from
    /// the step's encode statistics instead of scanning f32 arrays (which
    /// are detached in that mode).
    fn finish_step(&mut self, scanned: Option<Vec<ProbeItem>>) {
        let tel = self.telemetry.clone();
        self.span(Stage::RECORD, |s| match &s.resident {
            Some(engine) => {
                let tap = |field, x, y| engine.sample(field, x, y, 0);
                s.seismo.record_with(|x, y| [tap(0, x, y), tap(1, x, y), tap(2, x, y)]);
                s.pgv.record_with(|x, y| (tap(0, x, y), tap(1, x, y)));
            }
            None => {
                s.seismo.record(&s.state.u, &s.state.v, &s.state.w);
                s.pgv.record(&s.state.u, &s.state.v);
            }
        });
        self.flops.flops += self.rows.iter().map(|r| r.flops).sum::<f64>();
        if let (Some(p), Some(engine)) = (self.perf.as_deref(), &self.resident) {
            // What the engine measured inside its sweeps this step. DMA
            // convention: each decoded/encoded value moves a 2-byte code
            // on one side and a 4-byte float on the other.
            let rp = engine.perf();
            p.add_wall(self.rank, "resident_decode", rp.decode_s);
            p.charge("resident_decode", rp.decoded_cells, 0.0, rp.decoded_cells * 6);
            p.add_wall(self.rank, "resident_encode", rp.encode_s);
            p.charge("resident_encode", rp.encoded_cells, 0.0, rp.encoded_cells * 6);
        }
        self.time += self.state.dt;
        self.step_count += 1;
        self.steps_run += 1;
        // (Never due compressed-resident: validation rejects snapshots.)
        if self.next_snapshot < self.snapshot_times.len()
            && self.time >= self.snapshot_times[self.next_snapshot]
        {
            let s = &self.state;
            self.snapshots.capture(self.time, &s.u, &s.v, &s.w);
            self.next_snapshot += 1;
        }
        if self.checkpoint_due() {
            self.cut_checkpoint(&tel);
        }
        let Some(monitor) = &mut self.health else { return };
        let Some(engine) = &self.resident else {
            let (step, time, parallel) = (self.step_count, self.time, self.path.is_parallel());
            monitor.check(&self.state, scanned, step, time, parallel, &tel);
            return;
        };
        if monitor.wants_compression_sample(self.step_count) {
            for (name, stats) in engine.step_stats() {
                if stats.count > 0 || stats.nonfinite > 0 {
                    monitor.record_encode_stats(name, stats, &tel);
                }
            }
        }
        if monitor.wants_probe(self.step_count) {
            let probe = resident_probe(engine, self.step_count, self.time, self.rank);
            let cfl = CflInfo { dt: self.state.dt, dt_stable: self.state.dt_stable };
            monitor.check_probe(probe, cfl, &tel);
        }
    }

    /// End of the step: what the ranks of a grid settle together before
    /// any of them starts the next one. Alone, only the fault plan's kill
    /// latches — a single rank agrees with itself and takes no barrier.
    ///
    /// The order is the one that is safe. The rank-death vote comes
    /// first: a step on which any rank dies must not commit its
    /// generation, so the store looks exactly as if `kill -9` had hit the
    /// process there (`fault_kill` folds in mid-write kills latched
    /// during `finish_step`). Then the generation commit: rank 0 writes
    /// the manifest only once every rank's image has landed — a crash can
    /// leave orphan rank files but never a manifest entry pointing at a
    /// half-written generation — and all ranks wait until it is durable,
    /// so none races into the next step's writes mid-rewrite. Last the
    /// stop vote at probe steps: every rank probes at the same step
    /// numbers, so every rank reaches it, and a fatal verdict anywhere
    /// pulls all ranks out together before the next halo exchange.
    fn settle(&mut self) {
        // An armed plan kills the run *after* the step completes.
        if self.fault.as_ref().is_some_and(|p| p.kill_due(self.step_count, self.rank)) {
            let died = KilledError { step: self.step_count, rank: self.rank };
            self.fault_kill.get_or_insert(died);
        }
        let Some(link) = &self.link else { return };
        let shared = &*link.shared;
        if let Some(kill) = &shared.kill {
            let mine = self.fault_kill.clone().map(RunError::Killed);
            self.halt = shared.agree(self.rank, mine, |dead| kill.vote(dead));
            if self.halt.is_some() {
                return;
            }
        }
        if let Some(store) = shared.store.as_ref().filter(|_| self.checkpoint_due()) {
            shared.commit.wait();
            if self.rank == 0 {
                let parties = link.comm.grid.len();
                match store.commit_generation(self.step_count, self.time, parties) {
                    Ok(()) => self.telemetry.add("io.checkpoint_generations", 1),
                    Err(_) => self.telemetry.add("io.checkpoint_failures", 1),
                }
            }
            shared.commit.wait();
        }
        if self.health.as_ref().is_some_and(|m| m.probes_at(self.step_count)) {
            let mine = self.health_failure().cloned().map(RunError::Unstable);
            self.halt = shared.agree(self.rank, mine, |failed| shared.stop.vote(failed));
        }
    }

    /// Whether the step just taken cuts a generation: only a simulation
    /// holding a store writer ever does.
    fn checkpoint_due(&self) -> bool {
        self.writer.is_some()
            && self.checkpoint_interval > 0
            && self.step_count.is_multiple_of(self.checkpoint_interval)
    }

    /// Cut the due generation: encode it straight from the live state
    /// ([`checkpoint::encode_image`]; no [`Checkpoint`] is cloned) and
    /// hand it to the store's writer thread. `step.checkpoint` and the
    /// perf ledger's `checkpoint` row time what the step thread spent
    /// here: the encode plus any wait for the writer.
    fn cut_checkpoint(&mut self, tel: &Telemetry) {
        self.span(Stage::CHECKPOINT, |sim| {
            let fields = sim.checkpoint_fields();
            if tel.is_enabled() || sim.perf.is_some() {
                let bytes: usize = fields.iter().map(|(_, f)| f.raw().len() * 4).sum();
                if tel.is_enabled() {
                    tel.add("io.checkpoint_bytes", bytes as u64);
                    tel.add("io.checkpoints", 1);
                    tel.event(
                        "io.checkpoint",
                        &[("bytes", bytes as f64), ("step", sim.step_count as f64)],
                    );
                }
                if let Some(p) = sim.perf.as_deref() {
                    p.charge("checkpoint", sim.state.dims.len() as u64, 0.0, bytes as u64);
                }
            }
            let borrowed: Vec<(&str, &Field3)> =
                fields.iter().map(|(name, f)| (name.as_str(), f.as_ref())).collect();
            let image = checkpoint::encode_image(
                ImageMeta { step: sim.step_count, time: sim.time, flops: sim.flops.flops },
                &borrowed,
                sim.seismo.seismograms(),
                Some((sim.pgv.nx(), sim.pgv.ny(), &sim.pgv.pgv)),
                sim.path.is_parallel(),
            );
            drop(fields);
            sim.stage_generation(image, tel);
        });
    }

    /// Hand an encoded generation to the writer thread, first waiting
    /// for (and accounting) the one still in flight. The write and the
    /// manifest commit then overlap the following steps — except when a
    /// fault plan is armed, where drills need the store to look the same
    /// after every step, and with a rank link, whose ranks commit
    /// centrally behind a barrier ([`Self::settle`]; a per-rank commit
    /// would publish a generation some ranks have not finished writing):
    /// both wait in the same step. `io.checkpoint_wait` is the time this
    /// thread spent blocked.
    fn stage_generation(&mut self, image: Vec<u8>, tel: &Telemetry) {
        let Some(writer) = self.writer.as_mut() else { return };
        let alone = self.link.is_none();
        let same_step = self.fault.is_some() || !alone;
        let t0 = Instant::now();
        let previous = writer.stage(self.step_count, self.time, self.rank, image, alone);
        let this = if same_step { writer.join() } else { None };
        tel.record_duration("io.checkpoint_wait", t0.elapsed().as_secs_f64());
        for outcome in [previous, this].into_iter().flatten() {
            self.note_generation(outcome, tel);
        }
    }

    /// Wait for the generation in flight, if any, and account it.
    fn join_writer(&mut self) {
        let Some(writer) = self.writer.as_mut() else { return };
        let tel = self.telemetry.clone();
        let t0 = Instant::now();
        if let Some(outcome) = writer.join() {
            tel.record_duration("io.checkpoint_wait", t0.elapsed().as_secs_f64());
            self.note_generation(outcome, &tel);
        }
    }

    /// Fold a finished generation into the run. A failed write is a
    /// telemetry-counted warning, not a run abort — the campaign
    /// continues on the previous generation. An injected mid-write kill
    /// latches [`Self::fault_kill`] so checked stepping dies like the
    /// real process would. `io.checkpoint_write` is the writer thread's
    /// own wall.
    fn note_generation(&mut self, outcome: GenerationOutcome, tel: &Telemetry) {
        match outcome.written {
            Ok(bytes) => {
                tel.add("io.checkpoint_disk_bytes", bytes);
                match outcome.committed {
                    Some(Ok(())) => tel.add("io.checkpoint_generations", 1),
                    Some(Err(_)) => tel.add("io.checkpoint_failures", 1),
                    None => {}
                }
            }
            Err(WriteError::Killed) => {
                self.fault_kill = Some(KilledError { step: outcome.step, rank: self.rank });
            }
            Err(WriteError::Io(_)) => tel.add("io.checkpoint_failures", 1),
        }
        tel.record_duration("io.checkpoint_write", outcome.wall_s);
    }

    /// Run `n` steps. When this returns the last checkpoint generation
    /// cut is on disk and in the manifest.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
        self.join_writer();
    }

    /// Advance one step, surfacing a fatal health verdict or an
    /// injected kill as an error. A simulation whose watchdog has
    /// already gone fatal (or that has already been killed) refuses to
    /// step further.
    // The diagnosis is wide (field name, grid index, cause, bundle
    // path) but constructed at most once per run, on the abort path;
    // boxing it would complicate the public API for a cold error.
    #[allow(clippy::result_large_err)]
    pub fn step_checked(&mut self) -> Result<(), RunError> {
        self.verdict()?;
        self.step();
        self.verdict()
    }

    /// What stops this run, if anything has: the verdict this rank's
    /// grid agreed on, else its own — an injected kill (latched after
    /// the step it is due for, or mid-write by the store) outranks a
    /// fatal health verdict latched the same step: it means "the process
    /// died here", so crash drills exit as killed.
    #[allow(clippy::result_large_err)] // see step_checked
    fn verdict(&self) -> Result<(), RunError> {
        if let Some(agreed) = &self.halt {
            return Err(agreed.clone());
        }
        if let Some(k) = &self.fault_kill {
            return Err(RunError::Killed(k.clone()));
        }
        self.health_failure().map_or(Ok(()), |e| Err(RunError::Unstable(e.clone())))
    }

    /// Run up to `n` steps, stopping at the watchdog's first fatal
    /// verdict or the fault plan's first kill. Without a health config
    /// or fault plan it is equivalent to [`Simulation::run`]; like it,
    /// it returns — `Ok` or not — with no checkpoint write in flight.
    #[allow(clippy::result_large_err)] // cold abort-path error; see step_checked
    pub fn run_checked(&mut self, n: usize) -> Result<(), RunError> {
        if self.health.is_some() || self.fault.is_some() || self.fault_kill.is_some() {
            let stepped = (0..n).try_for_each(|_| self.step_checked());
            self.join_writer();
            stepped
        } else {
            self.run(n);
            Ok(())
        }
    }

    /// The health monitor's report so far (`None` when the simulation
    /// runs without health monitoring).
    pub fn health(&self) -> Option<HealthReport> {
        self.health.as_ref().map(|m| m.report())
    }

    /// The latched fatal verdict, if the watchdog has raised one.
    pub fn health_failure(&self) -> Option<&UnstableError> {
        self.health.as_ref().and_then(|m| m.failure())
    }

    /// End a single-rank run the way [`run_multirank`] ends a grid's: the
    /// merge of one rank at offset 0. Fails with the post-hoc diagnosis
    /// when the wavefield has blown up and the watchdog (probe stride too
    /// coarse, or none armed) did not say so.
    #[allow(clippy::result_large_err)] // cold abort-path error; see step_checked
    pub fn finish(self) -> Result<MultiRankOutput, RunError> {
        let dims = self.state.dims;
        let stations: Vec<Station> =
            self.seismo.seismograms().iter().map(|s| s.station.clone()).collect();
        merge(&[&self], &[(0, 0, dims)], dims, &stations)
    }

    /// The named fields a checkpoint carries — the dynamic arrays this run
    /// has, and `eqp` — borrowed from the live state. Compressed-resident
    /// runs checkpoint decompressed f32 fields (same schema as full mode,
    /// so either mode can restore the other's checkpoints) plus a bucket
    /// sidecar that lets a compressed resume re-encode byte-identically;
    /// those are decoded here, owned.
    fn checkpoint_fields(&self) -> Vec<(String, Cow<'_, Field3>)> {
        let mut fields: Vec<(String, Cow<'_, Field3>)> =
            Vec::with_capacity(RESIDENT_FIELDS.len() + 2);
        if let Some(engine) = &self.resident {
            fields.push((SIDECAR_FIELD.to_string(), Cow::Owned(engine.sidecar())));
            let stored = engine.carried();
            fields
                .extend(stored.map(|(i, name)| (name.to_string(), Cow::Owned(engine.to_field(i)))));
        }
        let live = self.state.arrays().filter(|&(name, class, _)| checkpointed(name, class));
        fields.extend(live.map(|(name, _, f)| (name.to_string(), Cow::Borrowed(f))));
        fields
    }

    /// Snapshot the full dynamic state and the observation state. In
    /// parallel mode the field clones fan out over the pool
    /// (order-preserving map, so the layout is identical either way).
    pub fn make_checkpoint(&self) -> Checkpoint {
        let fields = self.checkpoint_fields();
        let fields = sw_compress::par::map_ordered(fields, self.path.is_parallel(), |(name, f)| {
            (name, f.into_owned())
        });
        Checkpoint {
            step: self.step_count,
            time: self.time,
            flops: self.flops.flops,
            fields,
            seismograms: self.seismo.seismograms().to_vec(),
            pgv: Some((self.pgv.nx(), self.pgv.ny(), self.pgv.pgv.clone())),
        }
    }

    /// Restore the dynamic state from a checkpoint.
    ///
    /// Fails with [`RestoreError`], before anything is touched, when the
    /// checkpoint does not fit this run ([`check_checkpoint`]).
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), RestoreError> {
        let stations: Vec<Station> =
            self.seismo.seismograms().iter().map(|s| s.station.clone()).collect();
        let s = &self.state;
        check_checkpoint(ckpt, s.dims, &s.options, &stations, s.dt)?;
        // The store must not change under a state that is about to be
        // rewound past the generation in flight.
        self.join_writer();
        self.apply_checkpoint(ckpt);
        Ok(())
    }

    /// Rewind to a checkpoint [`check_checkpoint`] has accepted. A
    /// compressed-resident run re-encodes every dynamic field into its
    /// 16-bit store: with the bucket sidecar a compressed-mode checkpoint
    /// restores byte-identically, a full-mode one (no sidecar) re-derives
    /// the buckets from the content. A full-mode run takes the fields,
    /// which are stored decompressed, as they are; the sidecar is moot.
    /// A field this run does not carry (the all-zero memory variables and
    /// `eqp` older builds wrote for elastic runs) is ignored: the check
    /// has seen that it is all zero.
    fn apply_checkpoint(&mut self, ckpt: &Checkpoint) {
        let sidecar = ckpt.fields.iter().find(|(n, _)| n == SIDECAR_FIELD).map(|(_, f)| f);
        for (name, field) in &ckpt.fields {
            let live = match RESIDENT_FIELDS.iter().position(|n| n == name) {
                Some(i) => match &mut self.resident {
                    Some(engine) => {
                        engine.restore_field(name, field, sidecar);
                        None
                    }
                    None => self.state.dynamic_mut().into_iter().nth(i),
                },
                None => (name == "eqp").then_some(&mut self.state.eqp),
            };
            // Into the live array: it stays where `SolverState::blank`
            // placed it.
            if let Some(live) = live.filter(|f| !f.is_detached()) {
                live.raw_mut().copy_from_slice(field.raw());
            }
        }
        // Recorders and accumulators, so a resumed run's seismograms,
        // hazard map and flop totals are byte-identical to an
        // uninterrupted one.
        self.step_count = ckpt.step;
        self.time = ckpt.time;
        self.flops = FlopCounter { flops: ckpt.flops };
        self.seismo.restore_samples(&ckpt.seismograms);
        if let Some((nx, ny, pgv)) = &ckpt.pgv {
            self.pgv = PgvRecorder::from_parts(*nx, *ny, pgv.clone());
        }
        // Skip snapshots whose trigger time the restored clock has
        // already passed — a resumed run must not re-emit them.
        self.next_snapshot = self.snapshot_times.iter().filter(|t| **t <= self.time).count();
    }

    /// Collect per-wavefield statistics (the Fig. 5a coarse-run product).
    /// Parallel mode scans each field with the exact parallel reduction
    /// (`FieldStats::of_field_par`) — same statistics, any thread count.
    pub fn collect_stats(&self) -> Vec<(String, FieldStats)> {
        let scan =
            if self.path.is_parallel() { FieldStats::of_field_par } else { FieldStats::of_field };
        let stats = |i| match &self.resident {
            Some(engine) => scan(&engine.to_field(i)),
            None => scan(self.state.dynamic()[i]),
        };
        COMPRESSED_FIELDS.iter().enumerate().map(|(i, name)| (name.to_string(), stats(i))).collect()
    }
}

/// Freeze `rec` into a ledger for the run `ranks` took part in (one
/// simulation, or every rank of a grid): a function of the configuration,
/// the ranks' meshes and the recorder. Each rank's per-step rows times
/// the steps run are summed into the counts — cells, flops, modeled DMA
/// bytes, the §6.4 model's predicted seconds — beside what the recorder
/// measured: per row the wall of the rank that spent the most there, and
/// the counts only a run knows (checkpoint bytes, resident planes).
fn freeze_ledger(rec: &PerfRecorder, ranks: &[&Simulation]) -> PerfLedger {
    let first = ranks[0];
    let steps_run = first.steps_run;
    let mut counts = rec.counts();
    let mut modeled: Vec<(&str, f64)> = Vec::new();
    for row in ranks.iter().flat_map(|sim| &sim.rows) {
        let at = counts.iter().position(|c| c.name == row.name).unwrap_or_else(|| {
            counts.push(KernelCounts { name: row.name.to_string(), ..Default::default() });
            counts.len() - 1
        });
        counts[at].cells += row.cells * steps_run;
        counts[at].flops += row.flops * steps_run as f64;
        counts[at].dma_bytes += row.dma_bytes * steps_run;
        match modeled.iter_mut().find(|(name, _)| *name == row.name) {
            Some((_, seconds)) => *seconds += row.model_seconds,
            None => modeled.push((row.name, row.model_seconds)),
        }
    }
    sort_canonical(&mut counts);
    // The fused stress kernel's wall covers both the stress update and
    // the attenuation terms; split it by flop share so both rows carry
    // real timings.
    let di = counts.iter().position(|c| c.name == "dstrqc");
    let ai = counts.iter().position(|c| c.name == "attenuation");
    if let (Some(di), Some(ai)) = (di, ai) {
        let share = ATTENUATION_FLOPS / DSTRQC_FLOPS;
        let wall = counts[di].wall_s;
        counts[di].wall_s = wall * (1.0 - share);
        counts[ai].wall_s = wall * share;
        counts[ai].calls = counts[di].calls;
    }
    let per_step = |name: &str| modeled.iter().find(|(k, _)| *k == name).map_or(0.0, |(_, s)| *s);
    let kernels = counts
        .iter()
        .map(|c| {
            PerfKernel::from_counts(
                &c.name,
                c.wall_s,
                c.calls,
                c.cells,
                c.flops,
                c.dma_bytes,
                per_step(&c.name) * steps_run as f64,
            )
        })
        .collect();
    let (p50, p95) = rec.step_percentiles();
    let threads = if first.path.is_parallel() { rayon::current_num_threads() } else { 1 };
    PerfLedger {
        schema_version: PERF_SCHEMA_VERSION,
        host: HostFingerprint::detect(threads as u64),
        steps: rec.steps().max(first.step_count),
        grid_cells: ranks.iter().map(|sim| sim.state.dims.len() as u64).sum(),
        wall_s: rec.total_step_wall(),
        step_p50_s: p50,
        step_p95_s: p95,
        exec_mode: Some(first.path.to_string()),
        features: Some(LaneTier::active().name().to_string()),
        resident_mode: Some(first.resident_mode().to_string()),
        kernels,
    }
}

/// Remap coarse-run statistics (Fig. 5a) to a finer mesh: the stress
/// arrays scale with the source cell volume ratio `(dx_c/dx_f)^3`
/// (stress-glut injection density), while velocity amplitudes converge
/// with resolution and keep their recorded ranges.
pub fn rescale_coarse_stats(
    stats: Vec<(String, FieldStats)>,
    dx_coarse: f64,
    dx_fine: f64,
) -> Vec<(String, FieldStats)> {
    let vol_ratio = (dx_coarse / dx_fine).powi(3) as f32;
    stats
        .into_iter()
        .map(|(name, s)| {
            let scaled = match name.as_str() {
                "xx" | "yy" | "zz" | "xy" | "xz" | "yz" => s.scaled(vol_ratio),
                _ => s,
            };
            (name, scaled)
        })
        .collect()
}

/// Whether `class`'s array `name` is part of a checkpoint: everything the
/// stencils advance, and the accumulated plastic strain.
fn checkpointed(name: &str, class: ArrayClass) -> bool {
    class != ArrayClass::Material || name == "eqp"
}

/// Whether `ckpt` is a state of this run, so that applying it cannot
/// fail half way, leave an array at zero, or splice two runs:
/// - every field — name and shape — and its PGV map fit a simulation
///   over `dims`, and every array a run with `options` checkpoints is
///   there. A known field the run does not advance must be all zero (the
///   legacy images older builds wrote for elastic runs); a live one means
///   the image was cut under other physics;
/// - its clock is `step × dt` of this run. The clock is a sum of `step`
///   equal increments, whose rounding error stays below `step² · ε · dt`;
///   that is the tolerance;
/// - its seismograms record exactly the run's `stations`, at their
///   positions, one sample per step.
fn check_checkpoint(
    ckpt: &Checkpoint,
    dims: Dims3,
    options: &StateOptions,
    stations: &[Station],
    dt: f64,
) -> Result<(), RestoreError> {
    let mismatch = |field: &str, checkpoint: Dims3, simulation: Dims3| {
        Err(RestoreError::DimsMismatch { field: field.to_string(), checkpoint, simulation })
    };
    let memvars = RESIDENT_FIELDS.len() - COMPRESSED_FIELDS.len();
    let carried: Vec<&str> =
        options.arrays().filter_map(|(n, class)| checkpointed(n, class).then_some(n)).collect();
    for (name, field) in &ckpt.fields {
        let (want, halo) = if name == SIDECAR_FIELD {
            // One bucket per padded x-plane of each resident field.
            (Dims3::new(RESIDENT_FIELDS.len(), dims.nx + 2 * HALO_WIDTH, 1), 0)
        } else if name == "eqp" || RESIDENT_FIELDS.contains(&name.as_str()) {
            (dims, HALO_WIDTH)
        } else if let Some(index) = name.strip_prefix('r').and_then(|i| i.parse().ok()) {
            return Err(RestoreError::MemoryVariableOutOfRange { index, available: memvars });
        } else {
            return Err(RestoreError::UnknownField { field: name.clone() });
        };
        if field.dims() != want {
            return mismatch(name, field.dims(), want);
        }
        if field.halo() != halo {
            let padded = Dims3::new(want.nx + 2 * halo, want.ny + 2 * halo, want.nz + 2 * halo);
            return mismatch(name, field.padded_dims(), padded);
        }
        let advanced = name == SIDECAR_FIELD || carried.contains(&name.as_str());
        if !advanced && field.raw().iter().any(|&v| v != 0.0) {
            return Err(RestoreError::UncarriedField { field: name.clone() });
        }
    }
    if let Some(field) = carried.into_iter().find(|c| ckpt.fields.iter().all(|(n, _)| n != c)) {
        return Err(RestoreError::MissingField { field });
    }
    let steps = ckpt.step as f64;
    if ckpt.time.is_nan() || (ckpt.time - steps * dt).abs() > steps * steps * f64::EPSILON * dt {
        return Err(RestoreError::ClockMismatch { step: ckpt.step, time: ckpt.time, dt });
    }
    let saved: Vec<&Station> = ckpt.seismograms.iter().map(|s| &s.station).collect();
    let stray = |station: &Station, reason| {
        Err(RestoreError::StationMismatch { station: station.clone(), reason })
    };
    if let Some(st) = stations.iter().find(|st| !saved.contains(st)) {
        return stray(st, "this run records it, the checkpoint holds no history for it");
    }
    if let Some(st) = saved.into_iter().find(|st| !stations.contains(st)) {
        return stray(st, "the checkpoint holds a history for it, this run does not record it");
    }
    if let Some(s) = ckpt.seismograms.iter().find(|s| s.samples.len() as u64 != ckpt.step) {
        return stray(&s.station, "its history is not one sample per step");
    }
    match &ckpt.pgv {
        Some((nx, ny, pgv)) if (*nx, *ny) != (dims.nx, dims.ny) || pgv.len() != nx * ny => {
            mismatch("pgv", Dims3::new(*nx, *ny, 1), Dims3::new(dims.nx, dims.ny, 1))
        }
        _ => Ok(()),
    }
}

/// The one way a run reaches its store, shared by all its ranks: a
/// fresh, cleared one under `checkpoint_dir` (or none); resuming
/// ([`SimConfig::resume`]), the existing one — finding none is an
/// operator error, not a fresh start — and its newest generation that
/// holds a valid image for every rank. `parts` are the rank subdomains
/// and their rank-local stations, in rank order, and `dt` is the time
/// step every rank steps with. All decoding and every check happen here,
/// before any simulation is built or rank thread started, so the ranks
/// agree on one generation by construction and none can fail to restore
/// it while its neighbours walk into a halo exchange.
#[allow(clippy::result_large_err)] // cold resume-path error; see Simulation::step_checked
fn open_generation(
    config: &SimConfig,
    parts: &[(Dims3, &[Station])],
    dt: f64,
) -> Result<(Option<Arc<CheckpointStore>>, Option<RestoredGeneration>), RunError> {
    let failed = |detail: String| RunError::ResumeFailed { detail };
    let open = |how: fn(&Path, usize) -> Result<CheckpointStore, StoreError>, dir: &Path| {
        let store = how(dir, config.checkpoint_keep).map_err(|e| ConfigError::CheckpointDir {
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        Ok::<_, ConfigError>(Arc::new(store.with_fault(config.fault.clone())))
    };
    let dir = config.checkpoint_dir.as_deref();
    if !config.resume {
        return Ok((dir.map(|dir| open(CheckpointStore::create, dir)).transpose()?, None));
    }
    let dir = dir.ok_or_else(|| failed("no checkpoint directory configured".into()))?;
    let store = open(CheckpointStore::open, dir).map_err(|e| failed(e.to_string()))?;
    let restored = store.restore_newest_valid(parts.len()).map_err(|e| failed(e.to_string()))?;
    for (rank, (ckpt, (dims, stations))) in restored.checkpoints.iter().zip(parts).enumerate() {
        check_checkpoint(ckpt, *dims, &config.options, stations, dt).map_err(|e| {
            failed(format!(
                "rank {rank} of the step-{} generation: {e} — resume with the scenario and \
                 rank grid that cut it",
                restored.step
            ))
        })?;
    }
    Ok((Some(store), Some(restored)))
}

/// What a resume restored: the generation's step/time and any newer
/// generations that were skipped as corrupt or incomplete.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeInfo {
    /// Step of the generation restored.
    pub step: u64,
    /// Simulated time of the generation restored.
    pub time: f64,
    /// Newer generations skipped, newest first: `(step, reason)`.
    pub skipped: Vec<(u64, String)>,
}

/// Output of a multi-rank run: merged observables.
#[derive(Debug, Clone)]
pub struct MultiRankOutput {
    /// All stations' seismograms, in the order the config listed them,
    /// with global surface coordinates (stable across decompositions).
    pub seismograms: Vec<sw_io::recorder::Seismogram>,
    /// Global PGV map.
    pub pgv: PgvRecorder,
    /// Total useful flops.
    pub flops: f64,
    /// Health records merged across ranks, sorted by `(step, rank)`
    /// (empty when the config carries no health monitoring): each rank's
    /// retained window, not the whole log.
    pub health: Vec<HealthRecord>,
    /// Probes the ranks' monitors evaluated over the run, summed.
    pub probes: u64,
    /// Warnings those probes raised, summed.
    pub warnings: u64,
    /// Timestep in seconds (CFL-derived, identical on every rank).
    pub dt: f64,
    /// What the run resumed from (`None` for a fresh start).
    pub resume: Option<ResumeInfo>,
    /// The per-kernel performance ledger, frozen at the merge (`None`
    /// without a recorder in the config): counts summed over the ranks'
    /// local meshes, each row's wall the slowest rank's.
    pub ledger: Option<PerfLedger>,
}

/// Run `config` on an `Mx × My` rank grid; observables are merged and the
/// wavefield evolution is bit-identical to the single-rank run.
///
/// This is set-up and merge only: every rank is a [`Simulation`] holding
/// a rank link and runs [`Simulation::run_checked`] — the one step
/// schedule — on its own thread. The global config is validated once up
/// front; per-rank telemetry aggregates into the shared handle, with
/// halo-fabric timings reported per rank (`halo.*.rankN`).
///
/// With health monitoring enabled, all ranks probe at the same steps
/// and vote through a collective stop barrier, so a fatal verdict on
/// any rank aborts every rank at the same step — no rank is left
/// blocking in a halo exchange. The error carries the earliest-failing
/// rank's diagnosis; a blow-up the probe stride missed is diagnosed from
/// the ranks' end states.
#[allow(clippy::result_large_err)] // cold abort-path error; see Simulation::step_checked
pub fn run_multirank(
    model: &(dyn VelocityModel + Sync),
    config: &SimConfig,
    grid: RankGrid,
) -> Result<MultiRankOutput, RunError> {
    config.validate()?;
    // Halo exchange (and the 1-rank degenerate case of this runner)
    // assumes f32 wavefield arrays, which the compressed-resident mode
    // detaches.
    if config.resident == ResidentMode::Compressed16 {
        return Err(ConfigError::ResidentUnsupported { feature: "multirank halo exchange" }.into());
    }
    let global = config.dims;
    let spans: Vec<(usize, usize, Dims3)> =
        (0..grid.len()).map(|rank| grid.local_span(rank, global)).collect();
    let sources =
        SourcePartitioner::new(grid.mx, grid.my, global.nx, global.ny).partition(&config.sources);
    // All ranks stream into one shared JSONL log (per-line writes are
    // atomic); opening it per rank would truncate it repeatedly.
    let health_log = config.shared_health_log.clone().or_else(|| {
        let path = config.health.as_ref()?.log_path.as_deref()?;
        HealthLog::create(path).ok().map(Arc::new)
    });
    let configs: Vec<SimConfig> = spans
        .iter()
        .zip(sources)
        .map(|(&(x0, y0, local), sources)| {
            let mut cfg = config.clone();
            cfg.dims = local;
            cfg.origin = (
                config.origin.0 + x0 as f64 * config.dx,
                config.origin.1 + y0 as f64 * config.dx,
                config.origin.2,
            );
            cfg.options.global_span = Some((global, x0, y0));
            cfg.sources = sources;
            cfg.stations = config
                .stations
                .iter()
                .filter(|s| {
                    s.ix >= x0 && s.ix < x0 + local.nx && s.iy >= y0 && s.iy < y0 + local.ny
                })
                .map(|s| Station { name: s.name.clone(), ix: s.ix - x0, iy: s.iy - y0 })
                .collect();
            cfg.shared_health_log = health_log.clone();
            if let Some(h) = &mut cfg.health {
                h.log_path = None;
            }
            cfg
        })
        .collect();
    let parts: Vec<(Dims3, &[Station])> =
        configs.iter().map(|cfg| (cfg.dims, cfg.stations.as_slice())).collect();
    // The time step every rank's state steps with (`SolverState::from_model`).
    let dt = stable_dt(config.dx, f64::from(model.vp_max())) * config.options.dt_scale;
    let (store, restored) = open_generation(config, &parts, dt)?;
    let shared = Arc::new(RankShared::new(config, grid.len(), store.clone()));
    let ranks = run_ranks(grid, |comm| {
        // Each rank thread records into its own trace lane (one process
        // row per rank in the exported Chrome trace).
        config.telemetry.tracer().bind_lane(comm.rank as u64, &format!("rank{}", comm.rank));
        let cfg = &configs[comm.rank];
        let state = SolverState::from_model(model, cfg.dims, cfg.dx, cfg.origin, cfg.options);
        let link = RankLink { comm: comm.clone(), shared: Arc::clone(&shared) };
        let mut sim = Simulation::build(state, cfg, store.clone(), Some(link));
        if let Some(restored) = &restored {
            sim.rewind_to(restored);
        }
        let outcome = sim.run_checked(config.steps.saturating_sub(sim.step_count as usize));
        (sim, outcome)
    });
    // A collective abort is the same error on every rank.
    for (_, outcome) in &ranks {
        outcome.clone()?;
    }
    let sims: Vec<&Simulation> = ranks.iter().map(|(sim, _)| sim).collect();
    merge(&sims, &spans, global, &config.stations)
}

/// Where every run ends, one rank ([`Simulation::finish`]) or a grid
/// ([`run_multirank`]): `ranks[i]` covers `spans[i]` of `global`, and all
/// of them have stopped stepping. A blow-up the probe stride missed is
/// diagnosed here from the end states — all ranks stopped at the same
/// step, so the first in rank order is the earliest `(step, rank)` —
/// and otherwise the observables are merged back to global coordinates,
/// `stations` giving the order of the seismograms.
#[allow(clippy::result_large_err)] // cold abort-path error; see Simulation::step_checked
fn merge(
    ranks: &[&Simulation],
    spans: &[(usize, usize, Dims3)],
    global: Dims3,
    stations: &[Station],
) -> Result<MultiRankOutput, RunError> {
    for sim in ranks.iter().filter(|sim| sim.state.has_blown_up()) {
        if let Some(e) = crate::health::diagnose(&sim.state, sim.step_count, sim.rank) {
            return Err(e.into());
        }
    }
    let mut seismograms = Vec::new();
    let mut pgv = PgvRecorder::new(global.nx, global.ny);
    let mut flops = 0.0;
    let mut health: Vec<HealthRecord> = Vec::new();
    let (mut probes, mut warnings) = (0, 0);
    for (sim, &(x0, y0, local)) in ranks.iter().zip(spans) {
        // Restore global surface coordinates on the rank-local stations.
        seismograms.extend(sim.seismo.seismograms().iter().map(|s| {
            let mut s = s.clone();
            s.station.ix += x0;
            s.station.iy += y0;
            s
        }));
        for x in 0..local.nx {
            for y in 0..local.ny {
                let v = sim.pgv.at(x, y);
                let idx = (x0 + x) * global.ny + (y0 + y);
                if v > pgv.pgv[idx] {
                    pgv.pgv[idx] = v;
                }
            }
        }
        flops += sim.flops.flops;
        if let Some(report) = sim.health() {
            health.extend(report.records);
            probes += report.checks;
            warnings += report.warnings;
        }
    }
    health.sort_by_key(|r| (r.step, r.rank));
    // Stations come back in the order the config listed them, not in
    // rank order — stable across decompositions.
    seismograms.sort_by_key(|s| {
        stations.iter().position(|st| st.name == s.station.name).unwrap_or(usize::MAX)
    });
    let dt = ranks.first().map_or(0.0, |sim| sim.state.dt);
    let ledger =
        ranks.first().and_then(|sim| sim.perf.as_deref()).map(|rec| freeze_ledger(rec, ranks));
    let resume = ranks.first().and_then(|sim| sim.resumed.clone());
    Ok(MultiRankOutput { seismograms, pgv, flops, health, probes, warnings, dt, resume, ledger })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_model::HalfspaceModel;
    use sw_source::{MomentTensor, SourceTimeFunction};

    fn explosion_config(steps: usize) -> SimConfig {
        let dims = Dims3::new(24, 24, 16);
        let mut cfg = SimConfig::new(dims, 100.0, steps);
        cfg.options.sponge_width = 4;
        cfg.options.attenuation = false;
        cfg.with_sources(vec![PointSource {
            ix: 12,
            iy: 12,
            iz: 8,
            moment: MomentTensor::explosion(1.0e13),
            stf: SourceTimeFunction::Gaussian { delay: 0.05, sigma: 0.02 },
        }])
        .with_stations(vec![Station { name: "S".into(), ix: 6, iy: 6 }])
    }

    #[test]
    fn explosion_radiates_and_stays_finite() {
        let cfg = explosion_config(60);
        let model = HalfspaceModel::hard_rock();
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(cfg.steps);
        assert!(!sim.state.has_blown_up());
        assert!(sim.pgv.max() > 0.0, "waves reached the surface");
        let s = sim.seismo.get("S").unwrap();
        assert_eq!(s.samples.len(), 60);
        assert!(sim.flops.flops > 0.0);
    }

    #[test]
    fn checkpoint_restart_is_exact() {
        let cfg = explosion_config(40);
        let model = HalfspaceModel::hard_rock();
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(20);
        let ckpt = sim.make_checkpoint();
        // run 20 more, then rewind and replay
        sim.run(20);
        let final_u = sim.state.u.clone();
        let mut sim2 = Simulation::new(&model, &cfg).expect("valid config");
        sim2.restore(&ckpt).expect("matching checkpoint");
        assert_eq!(sim2.step_count, 20);
        sim2.run(20);
        assert_eq!(sim2.state.u.max_abs_diff(&final_u), 0.0, "restart must be bit-exact");
    }

    #[test]
    fn compression_mode_stays_close_to_reference() {
        let cfg = explosion_config(40);
        let model = HalfspaceModel::hard_rock();
        let mut reference = Simulation::new(&model, &cfg).expect("valid config");
        reference.run(cfg.steps);
        // use a second reference run's stats as the "coarse run" product
        let mut coarse = Simulation::new(&model, &cfg).expect("valid config");
        coarse.run(cfg.steps);
        let ccfg =
            cfg.clone().with_compression(true).with_compression_stats(coarse.collect_stats());
        let mut compressed = Simulation::new(&model, &ccfg).expect("valid config");
        compressed.run(ccfg.steps);
        assert!(!compressed.state.has_blown_up());
        let a = reference.seismo.get("S").unwrap();
        let b = compressed.seismo.get("S").unwrap();
        let misfit = b.normalized_misfit(a);
        assert!(misfit < 0.25, "compressed misfit {misfit}");
        assert!(misfit > 0.0, "compression is lossy");
    }

    #[test]
    fn snapshots_fire_at_requested_times() {
        let mut cfg = explosion_config(30);
        let model = HalfspaceModel::hard_rock();
        let dt = crate::staggered::stable_dt(cfg.dx, 6000.0);
        cfg.snapshot_times = vec![5.0 * dt, 20.0 * dt];
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(cfg.steps);
        assert_eq!(sim.snapshots.snapshots.len(), 2);
    }

    #[test]
    fn a_cadence_without_a_store_is_a_config_error() {
        let cfg = explosion_config(10).with_checkpoint_interval(5);
        let model = HalfspaceModel::hard_rock();
        assert_eq!(cfg.validate(), Err(ConfigError::CheckpointWithoutStore { interval: 5 }));
        assert!(matches!(
            Simulation::new(&model, &cfg),
            Err(RunError::Config(ConfigError::CheckpointWithoutStore { interval: 5 }))
        ));
    }

    #[test]
    fn a_store_keeps_the_newest_generations() {
        let dir = std::env::temp_dir().join(format!("swquake_driver_keep_{}", std::process::id()));
        let cfg = explosion_config(20).with_checkpoint_interval(5).with_checkpoint_dir(&dir);
        let model = HalfspaceModel::hard_rock();
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(cfg.steps);
        let manifest = CheckpointStore::open(&dir, cfg.checkpoint_keep).expect("store").manifest();
        let steps: Vec<u64> = manifest.generations.iter().map(|g| g.step).collect();
        assert_eq!(steps, vec![10, 15, 20], "default keep = 3, all joined when run returns");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_bounds_source_is_rejected() {
        let mut cfg = explosion_config(5);
        cfg.sources[0].iz = 99;
        let model = HalfspaceModel::hard_rock();
        let err = Simulation::new(&model, &cfg).err().expect("construction must fail");
        assert!(
            matches!(err, RunError::Config(ConfigError::SourceOutOfBounds { index: 0, .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn out_of_bounds_station_is_rejected() {
        let cfg = explosion_config(5).with_stations(vec![Station {
            name: "far".into(),
            ix: 1000,
            iy: 0,
        }]);
        let model = HalfspaceModel::hard_rock();
        assert!(matches!(
            Simulation::new(&model, &cfg),
            Err(RunError::Config(ConfigError::StationOutOfBounds { .. }))
        ));
    }

    #[test]
    fn degenerate_mesh_is_rejected() {
        let cfg = SimConfig::new(Dims3::new(0, 8, 8), 100.0, 1);
        assert!(matches!(cfg.validate(), Err(ConfigError::EmptyDims { .. })));
        let cfg = SimConfig::new(Dims3::new(8, 8, 8), -1.0, 1);
        assert!(matches!(cfg.validate(), Err(ConfigError::NonPositiveSpacing { .. })));
    }

    #[test]
    fn restore_rejects_mismatched_checkpoint() {
        let model = HalfspaceModel::hard_rock();
        let cfg = explosion_config(5);
        let sim = Simulation::new(&model, &cfg).expect("valid config");
        let mut ckpt = sim.make_checkpoint();
        ckpt.fields.push(("mystery".into(), sim.state.u.clone()));
        let mut sim2 = Simulation::new(&model, &cfg).expect("valid config");
        assert!(matches!(sim2.restore(&ckpt), Err(RestoreError::UnknownField { .. })));
        let small = SimConfig::new(Dims3::new(8, 8, 8), 100.0, 5);
        let mut sim3 = Simulation::new(&model, &small).expect("valid config");
        assert!(matches!(
            sim3.restore(&sim.make_checkpoint()),
            Err(RestoreError::DimsMismatch { .. })
        ));
    }

    /// An image of another run is refused, naming what differs: a
    /// station it has no history for, one it recorded elsewhere, a clock
    /// stepped with another dt, a live array this run does not advance.
    #[test]
    fn restore_rejects_an_image_of_another_run() {
        let model = HalfspaceModel::hard_rock();
        let cfg = explosion_config(6);
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(cfg.steps);
        let ckpt = sim.make_checkpoint();
        let station = |name: &str, ix| Station { name: name.into(), ix, iy: 6 };
        let mut more = Simulation::new(
            &model,
            &cfg.clone().with_stations(vec![station("S", 6), station("T", 9)]),
        )
        .expect("valid config");
        let Err(RestoreError::StationMismatch { station: added, .. }) = more.restore(&ckpt) else {
            panic!("a station the image does not hold")
        };
        assert_eq!(added.name, "T");
        let mut moved = Simulation::new(&model, &cfg.clone().with_stations(vec![station("S", 7)]))
            .expect("valid config");
        assert!(matches!(moved.restore(&ckpt), Err(RestoreError::StationMismatch { .. })));
        let mut finer = cfg.clone();
        finer.options.dt_scale = 0.5;
        let mut finer = Simulation::new(&model, &finer).expect("valid config");
        assert!(matches!(finer.restore(&ckpt), Err(RestoreError::ClockMismatch { step: 6, .. })));
        let mut lossy = cfg.clone();
        lossy.options.attenuation = true;
        let mut lossy = Simulation::new(&model, &lossy).expect("valid config");
        lossy.run(cfg.steps);
        assert!(matches!(
            sim.restore(&lossy.make_checkpoint()),
            Err(RestoreError::UncarriedField { field }) if field == "r1"
        ));
        sim.restore(&ckpt).expect("its own image");
    }

    #[test]
    fn a_state_past_64_bits_or_the_host_is_a_config_error() {
        let huge = SimConfig::new(Dims3::cube(3_000_000), 100.0, 1).validate();
        assert!(matches!(huge, Err(ConfigError::StateTooLarge { bytes: None, .. })), "{huge:?}");
        let Some(host) = host_memory_bytes() else { return };
        let big = SimConfig::new(Dims3::cube(100_000), 100.0, 1).validate();
        let Err(ConfigError::StateTooLarge { arrays: 21, bytes: Some(bytes), .. }) = big else {
            panic!("{big:?}")
        };
        assert!(bytes > host && bytes == 84 * 100_004u64.pow(3), "{bytes} against {host}");
        assert!(SimConfig::new(Dims3::cube(16), 100.0, 1).validate().is_ok());
    }

    #[test]
    fn telemetry_covers_every_phase() {
        let dir = std::env::temp_dir().join(format!("swquake_driver_tel_{}", std::process::id()));
        let tel = Telemetry::enabled();
        let cfg = explosion_config(10)
            .with_telemetry(tel.clone())
            .with_checkpoint_dir(&dir)
            .with_checkpoint_interval(5);
        let model = HalfspaceModel::hard_rock();
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(cfg.steps);
        std::fs::remove_dir_all(&dir).ok();
        let report = sim.metrics();
        for phase in [
            "step",
            "step.free_surface",
            "step.velocity",
            "step.stress",
            "step.source",
            "step.sponge",
            "step.record",
            "step.checkpoint",
        ] {
            let t = report.timer(phase).unwrap_or_else(|| panic!("missing timer {phase}"));
            assert!(t.calls > 0, "{phase} never fired");
        }
        assert_eq!(report.timer("step").unwrap().calls, 10);
        assert_eq!(report.counter("io.checkpoints"), Some(2));
        assert_eq!(report.series("step.wall_s").unwrap().pushed, 10);
        // What a step costs is the ledger's, not the registry's: no
        // series counts flops.
        assert!(report.series.iter().all(|e| !e.name.contains("flops")), "{:?}", report.series);
    }

    /// Every modeled kernel's row joins the cost table (cells, bytes,
    /// roofline fraction) with a measured wall, and the rows' flops are
    /// the run's flop total. A nonlinear step has no standalone sponge
    /// pass, so no `sponge` row: its taper rides the return-mapping walk.
    #[test]
    fn ledger_joins_the_cost_table_and_measured_walls() {
        for nonlinear in [true, false] {
            let mut cfg = explosion_config(8)
                .with_telemetry(Telemetry::enabled())
                .with_perf(Arc::new(PerfRecorder::new()));
            cfg.options.nonlinear = nonlinear;
            let model = HalfspaceModel::hard_rock();
            let mut sim = Simulation::new(&model, &cfg).expect("valid config");
            sim.run(cfg.steps);
            let ledger = sim.perf_ledger().expect("recorder armed");
            let tail = if nonlinear { "drprecpc" } else { "sponge" };
            for name in ["fstr", "dvelc", "dstrqc", tail] {
                let k = ledger.kernel(name).unwrap_or_else(|| panic!("no `{name}` row"));
                assert!(k.wall_s > 0.0 && k.calls > 0, "{name} has no measured wall: {k:?}");
                assert!(k.cells > 0 && k.dma_bytes > 0, "{name} has no modeled work: {k:?}");
                assert!(k.roofline_fraction > 0.0, "{name} has no roofline fraction: {k:?}");
            }
            let gone = if nonlinear { "sponge" } else { "drprecpc" };
            assert!(ledger.kernel(gone).is_none(), "nonlinear {nonlinear}: a `{gone}` row");
            let flops: f64 = ledger.kernels.iter().map(|k| k.flops).sum();
            assert_eq!(flops, sim.flops.flops);
        }
    }

    /// The ledger's per-step rows against the numbers the driver's own
    /// per-step charge tables held before the one cost table replaced
    /// them, recorded from them at PR 20: `(row, cells, flops, dma bytes,
    /// modeled seconds)` — except the sponge's cells and flops, which
    /// those tables charged over every cell. Those are counted here from
    /// what one sponge pass changes on an all-ones state: the cells whose
    /// `u` it changes, and every value it changes. Off the resident
    /// engine the taper's multiplies move to the stores that carry them:
    /// the memory variables' to `attenuation`, a nonlinear state's
    /// wavefields to `drprecpc` (whose `sponge` row goes), so the total
    /// stays.
    #[test]
    fn ledger_rows_match_the_recorded_charge_tables() {
        type Row = (&'static str, u64, f64, u64, f64);
        let cases: [(Dims3, [bool; 3], &[Row]); 6] = [
            (
                Dims3::new(48, 48, 24),
                [false, false, false],
                &[
                    ("fstr", 2304, 18432.0, 33177, 6.290120637199567e-6),
                    ("dvelc", 55296, 4202496.0, 2875392, 0.0001114172591769028),
                    ("dstrqc", 55296, 3760128.0, 6856704, 0.000251576909352518),
                    ("sponge", 55296, 497664.0, 3981312, 0.00011709741176470588),
                ],
            ),
            (
                Dims3::new(48, 48, 24),
                [false, true, false],
                &[
                    ("fstr", 2304, 18432.0, 33177, 6.290120637199567e-6),
                    ("dvelc", 55296, 4202496.0, 2875392, 0.0001114172591769028),
                    ("dstrqc", 55296, 3760128.0, 4483229, 0.00016449259457664638),
                    ("attenuation", 55296, 1990656.0, 2373474, 8.708431477587161e-5),
                    ("sponge", 55296, 497664.0, 3981312, 0.00011709741176470588),
                ],
            ),
            (
                Dims3::new(48, 48, 24),
                [true, true, true],
                &[
                    ("fstr", 2304, 18432.0, 16588, 3.1450603185997836e-6),
                    ("dvelc", 55296, 4202496.0, 1437696, 8.650349114754098e-5),
                    ("dstrqc", 55296, 3760128.0, 2241614, 0.00013244217139974778),
                    ("attenuation", 55296, 1990656.0, 1186737, 7.011644368221941e-5),
                    ("drprecpc", 55296, 2654208.0, 3538944, 0.0002472063580327869),
                    ("sponge", 55296, 497664.0, 1990656, 5.854870588235294e-5),
                    ("compression", 55296, 0.0, 5971968, 0.00017564611764705882),
                ],
            ),
            (
                Dims3::cube(80),
                [false, false, false],
                &[
                    ("fstr", 6400, 51200.0, 307200, 5.824185775184784e-5),
                    ("dvelc", 512000, 38912000.0, 26624000, 0.001031641288675026),
                    ("dstrqc", 512000, 34816000.0, 63488000, 0.0023294158273381295),
                    ("sponge", 512000, 4608000.0, 36864000, 0.0010842352941176471),
                ],
            ),
            (
                Dims3::cube(80),
                [false, true, false],
                &[
                    ("fstr", 6400, 51200.0, 307200, 5.824185775184784e-5),
                    ("dvelc", 512000, 38912000.0, 26624000, 0.001031641288675026),
                    ("dstrqc", 512000, 34816000.0, 41511384, 0.0015230795794133924),
                    ("attenuation", 512000, 18432000.0, 21976615, 0.0008063362479247371),
                    ("sponge", 512000, 4608000.0, 36864000, 0.0010842352941176471),
                ],
            ),
            (
                Dims3::cube(80),
                [true, true, true],
                &[
                    ("fstr", 6400, 51200.0, 153600, 2.912092887592392e-5),
                    ("dvelc", 512000, 38912000.0, 13312000, 0.0008009582513661202),
                    ("dstrqc", 512000, 34816000.0, 20755692, 0.0012263164018495164),
                    ("attenuation", 512000, 18432000.0, 10988307, 0.0006492263303909205),
                    ("drprecpc", 512000, 24576000.0, 32768000, 0.002288947759562841),
                    ("sponge", 512000, 4608000.0, 18432000, 0.0005421176470588236),
                    ("compression", 512000, 0.0, 55296000, 0.0016263529411764705),
                ],
            ),
        ];
        for (dims, [nonlinear, attenuation, compression], want) in cases {
            let options = StateOptions { nonlinear, attenuation, ..Default::default() };
            let mut state = SolverState::blank(dims, 100.0, 1e-3, 1e-3, options);
            for f in state.dynamic_mut().into_iter().filter(|f| !f.is_detached()) {
                f.raw_mut().fill(1.0);
            }
            kernels::sponge::apply_sponge(&mut state);
            let changed =
                |f: &Field3| dims.iter().filter(|&(x, y, z)| f.get(x, y, z) != 1.0).count();
            let cells = changed(&state.u) as u64;
            let values = |fields: &[&Field3]| {
                fields.iter().filter(|f| !f.is_detached()).map(|f| changed(f)).sum::<usize>() as f64
            };
            let dynamic = state.dynamic();
            let (wavefields, memory) = (values(&dynamic[..9]), values(&dynamic[9..]));
            assert!(0 < cells && cells < dims.len() as u64, "{dims}: {cells} damped cells");
            for resident in [true, false] {
                let mut want: Vec<Row> = want
                    .iter()
                    .map(|&row| match row {
                        ("sponge", _, _, bytes, seconds) => {
                            let flops = if resident { wavefields + memory } else { wavefields };
                            ("sponge", cells, flops, bytes, seconds)
                        }
                        ("attenuation", c, flops, b, t) if !resident => {
                            (row.0, c, flops + memory, b, t)
                        }
                        ("drprecpc", c, flops, b, t) if !resident => {
                            (row.0, c, flops + wavefields, b, t)
                        }
                        other => other,
                    })
                    .collect();
                if !resident && nonlinear {
                    want.retain(|row| row.0 != "sponge");
                }
                let got: Vec<Row> = ledger_rows(&state, compression, resident)
                    .iter()
                    .map(|r| (r.name, r.cells, r.flops, r.dma_bytes, r.model_seconds))
                    .collect();
                let what = format!("{dims} nonlinear {nonlinear} attenuation {attenuation}");
                assert_eq!(got, want, "{what} resident {resident}");
                let total = |rows: &[Row]| rows.iter().map(|r| r.2).sum::<f64>();
                if !resident {
                    let all = ledger_rows(&state, compression, true);
                    let all: Vec<Row> =
                        all.iter().map(|r| (r.name, r.cells, r.flops, 0, 0.0)).collect();
                    assert_eq!(
                        total(&got),
                        total(&all),
                        "{what}: the taper's flops moved, not changed"
                    );
                }
            }
        }
    }

    #[test]
    fn compression_slots_calibrate_only_without_stats_and_only_on_finite_maxima() {
        let empty = FieldStats::empty();
        let base = Codec::paper_assignment("xx", &empty);
        let mut slot = CompressionSlot::new(base);
        assert!(slot.refresh(2.0), "first visit of a bucket builds its codec");
        assert_eq!(slot.active, sw_compress::calibrated_codec(&base, 1));
        assert!(!slot.refresh(3.0), "same bucket: cache hit");
        let kept = slot.active;
        assert!(!slot.refresh(f32::INFINITY), "non-finite magnitudes never rebuild");
        assert_eq!(slot.active, kept);
        // Coarse-run statistics (or binary16) pin the codec.
        for fixed in [
            Codec::paper_assignment("u", &empty),
            Codec::paper_assignment("xx", &FieldStats::of_slice(&[1.0e-3, 0.5])),
        ] {
            let mut slot = CompressionSlot::new(fixed);
            assert!(!slot.refresh(2.0));
            assert_eq!(slot.active, fixed);
        }
    }

    #[test]
    fn self_calibrating_compression_reuses_codecs() {
        let tel = Telemetry::enabled();
        let cfg = explosion_config(30).with_compression(true).with_telemetry(tel.clone());
        let model = HalfspaceModel::hard_rock();
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(cfg.steps);
        let report = sim.metrics();
        let rebuilds = report.counter("compress.codec_rebuilds").unwrap();
        let reuses = report.counter("compress.codec_reuses").unwrap();
        // 30 steps × 6 self-calibrating (adaptive) fields; before the
        // cache every one of those was a full-field scan + rebuild.
        assert_eq!(rebuilds + reuses, 30 * 6);
        assert!(reuses > rebuilds, "steady-state steps must hit the cache");
        assert!(rebuilds >= 6, "every field calibrates at least once");

        // Caching is deterministic: an identical run bit-matches.
        let cfg2 = explosion_config(30).with_compression(true);
        let mut sim2 = Simulation::new(&model, &cfg2).expect("valid config");
        sim2.run(cfg2.steps);
        assert_eq!(sim.state.u.max_abs_diff(&sim2.state.u), 0.0);
        assert_eq!(sim.state.xx.max_abs_diff(&sim2.state.xx), 0.0);
    }

    /// The round trip's probe walk, folded, is the probe of the state it
    /// left — every `FieldProbe` field, `first_bad` and the kinetic
    /// energy's bits — and its statistics and stored values do not depend
    /// on who walked the planes or whether the walk scanned: at every
    /// lane tier, on the calling thread and through the pool at widths
    /// 1–4, over a state salted with NaN, ±Inf, −0.0 and subnormals.
    #[test]
    fn the_round_trips_probe_walk_is_the_probe_of_what_it_stored() {
        let options = StateOptions { nonlinear: true, ..Default::default() };
        let model = HalfspaceModel::hard_rock();
        let mut base =
            SolverState::from_model(&model, Dims3::new(7, 5, 19), 100.0, (0.0, 0.0, 0.0), options);
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        for (i, f) in base.dynamic_mut().into_iter().take(WAVEFIELDS).enumerate() {
            // `xz` takes the f16 codec below, which keeps a NaN a NaN.
            let scale = match i {
                0..3 => 0.02,
                7 => 1.0e3,
                _ => 4.0e6,
            };
            for v in f.raw_mut() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                *v = ((seed >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * scale;
            }
        }
        base.xz.set(4, 3, 11, f32::NAN);
        base.xz.set(6, 0, 2, f32::NAN);
        base.yy.set(2, 4, 18, f32::INFINITY);
        base.zz.set(0, 0, 0, f32::NEG_INFINITY);
        base.u.set(3, 2, 5, -0.0);
        base.w.set(5, 1, 7, f32::from_bits(3));
        base.xy.set(1, 1, 1, -1.0e-40);
        let codecs: Vec<Codec> = COMPRESSED_FIELDS
            .iter()
            .zip(base.dynamic())
            .map(|(&name, f)| {
                let finite: Vec<f32> = f.raw().iter().copied().filter(|v| v.is_finite()).collect();
                let name = if name == "xz" { "vel" } else { name };
                Codec::paper_assignment(name, &FieldStats::of_slice(&finite))
            })
            .collect();
        let codecs: [&Codec; WAVEFIELDS] = std::array::from_fn(|i| &codecs[i]);
        let mut stored = base.clone();
        roundtrip_planes(&mut stored, codecs, false, false, false);
        let want = crate::health::probe_state(&stored, false, 7, 0.5, 2);
        assert_eq!(want.nan_count(), 2);
        assert!(want.first_bad().is_some());
        let bits = |p: &StepProbe| {
            let fields: Vec<_> =
                p.fields.iter().map(|f| (f.max_abs.to_bits(), f.clone())).collect();
            (p.kinetic_energy.to_bits(), p.max_velocity.to_bits(), p.max_stress.to_bits(), fields)
        };
        let mut reference_stats = None;
        let mut walk = |tier, parallel: bool, what: &str| {
            let mut s = base.clone();
            let (stats, scanned) = roundtrip_planes(&mut s, codecs, parallel, true, true);
            let got = crate::health::fold_probe(&s, scanned.expect("asked to scan"), 7, 0.5, 2);
            assert_eq!(bits(&got), bits(&want), "{what} lanes {tier}");
            for (a, b) in s.dynamic().into_iter().zip(stored.dynamic()).take(WAVEFIELDS) {
                assert!(a.raw().iter().zip(b.raw()).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
            let stats: Vec<_> = stats.iter().map(|e| (e.sum_sq_err.to_bits(), *e)).collect();
            let first = reference_stats.get_or_insert_with(|| stats.clone());
            assert_eq!(&stats, first, "{what} lanes {tier}: statistics");
        };
        sw_grid::simd::per_tier(|tier| {
            walk(tier, false, "calling thread");
            for threads in [1, 2, 3, 4] {
                rayon::ThreadPoolBuilder::new().num_threads(threads).build_global().unwrap();
                walk(tier, true, &format!("pool width {threads}"));
            }
        });
        rayon::ThreadPoolBuilder::new().num_threads(0).build_global().unwrap();
    }

    #[test]
    fn parallel_exec_matches_serial_bitwise() {
        rayon::ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
        let model = HalfspaceModel::hard_rock();
        let mut cfg = explosion_config(25).with_compression(true);
        cfg.options.nonlinear = true;
        cfg.options.attenuation = true;
        let mut serial = Simulation::new(&model, &cfg.clone().with_exec(ExecMode::Serial))
            .expect("valid config");
        serial.run(cfg.steps);
        let mut par = Simulation::new(&model, &cfg.clone().with_exec(ExecMode::Parallel))
            .expect("valid config");
        assert!(par.is_parallel());
        par.run(cfg.steps);
        assert_eq!(serial.state.u.max_abs_diff(&par.state.u), 0.0);
        assert_eq!(serial.state.xx.max_abs_diff(&par.state.xx), 0.0);
        assert_eq!(serial.state.eqp.max_abs_diff(&par.state.eqp), 0.0);
        for (a, b) in serial.state.r.iter().zip(par.state.r.iter()) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    #[test]
    fn exec_gauges_are_reported() {
        let tel = Telemetry::enabled();
        let cfg = explosion_config(2).with_exec(ExecMode::Parallel).with_telemetry(tel.clone());
        let model = HalfspaceModel::hard_rock();
        let mut sim = Simulation::new(&model, &cfg).expect("valid config");
        sim.run(cfg.steps);
        let report = sim.metrics();
        assert_eq!(report.gauge("exec.mode").unwrap().last, 1.0);
        assert!(report.gauge("exec.threads").unwrap().last >= 1.0);
        assert_eq!(report.gauge("exec.lanes").unwrap().last, f64::from(LaneTier::active() as u8));
    }

    #[test]
    fn telemetry_does_not_perturb_the_wavefield() {
        let model = HalfspaceModel::hard_rock();
        let cfg = explosion_config(20);
        let mut plain = Simulation::new(&model, &cfg).expect("valid config");
        plain.run(cfg.steps);
        let instrumented_cfg = cfg.clone().with_telemetry(Telemetry::enabled());
        let mut instrumented = Simulation::new(&model, &instrumented_cfg).expect("valid config");
        instrumented.run(cfg.steps);
        assert_eq!(plain.state.u.max_abs_diff(&instrumented.state.u), 0.0);
        assert_eq!(plain.state.xx.max_abs_diff(&instrumented.state.xx), 0.0);
    }
}

//! Error types for the public solver API.
//!
//! Construction ([`crate::Simulation::new`], [`crate::driver::run_multirank`])
//! validates the configuration up front ([`ConfigError`]) and, resuming,
//! the generation it restores ([`RunError::ResumeFailed`]); checkpoint
//! restore returns [`RestoreError`] instead of panicking on a malformed or
//! mismatched checkpoint. A run whose health watchdog reaches a fatal
//! verdict aborts with [`UnstableError`], and [`RunError`] is the union
//! the constructors and the checked step loop return.

use std::fmt;
use sw_grid::Dims3;

/// A configuration that cannot produce a runnable simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A mesh extent is zero.
    EmptyDims {
        /// The offending extents.
        dims: Dims3,
    },
    /// Grid spacing must be strictly positive and finite.
    NonPositiveSpacing {
        /// The offending spacing, m.
        dx: f64,
    },
    /// A point source lies outside the mesh.
    SourceOutOfBounds {
        /// Index of the source in `SimConfig::sources`.
        index: usize,
        /// The source's grid position.
        position: (usize, usize, usize),
        /// The mesh extents it must fit in.
        dims: Dims3,
    },
    /// A recording station lies outside the surface grid.
    StationOutOfBounds {
        /// The station's name.
        name: String,
        /// The station's surface position.
        position: (usize, usize),
        /// The mesh extents it must fit in.
        dims: Dims3,
    },
    /// The timestep multiplier must be finite and strictly positive.
    InvalidDtScale {
        /// The offending multiplier.
        dt_scale: f64,
    },
    /// A checkpoint cadence without a store, which nothing could read.
    CheckpointWithoutStore {
        /// The cadence, steps.
        interval: u64,
    },
    /// The checkpoint directory could not be initialised or opened.
    CheckpointDir {
        /// The directory.
        path: String,
        /// What went wrong (store error rendered to text — keeps this
        /// enum `Clone`/`PartialEq`).
        detail: String,
    },
    /// The compressed-resident wavefield path was requested together with
    /// a feature it does not cover (the §6.5 inter-step compression round
    /// trip, surface snapshots, or multirank halo exchange — those
    /// operate on full f32 wavefields).
    ResidentUnsupported {
        /// The incompatible feature.
        feature: &'static str,
    },
    /// The state's arrays cannot be allocated: their bytes overflow 64
    /// bits, or exceed the host's memory plus swap.
    StateTooLarge {
        /// The mesh.
        dims: Dims3,
        /// Arrays the options call for.
        arrays: usize,
        /// Their bytes, halos included (`None`: past `u64::MAX`).
        bytes: Option<u64>,
        /// The host's `MemTotal + SwapTotal`, bytes, where readable.
        host: Option<u64>,
    },
    /// A `SWQUAKE_*` default is set to something its option does not
    /// accept ([`crate::exec::check_env`]).
    InvalidEnv {
        /// The variable.
        var: &'static str,
        /// What it holds.
        value: String,
        /// The values it accepts.
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDims { dims } => {
                write!(f, "mesh has a zero extent: {}x{}x{}", dims.nx, dims.ny, dims.nz)
            }
            Self::NonPositiveSpacing { dx } => {
                write!(f, "grid spacing must be positive and finite, got {dx}")
            }
            Self::SourceOutOfBounds { index, position, dims } => write!(
                f,
                "source #{index} at ({}, {}, {}) is outside the {}x{}x{} mesh",
                position.0, position.1, position.2, dims.nx, dims.ny, dims.nz
            ),
            Self::StationOutOfBounds { name, position, dims } => write!(
                f,
                "station `{name}` at ({}, {}) is outside the {}x{} surface grid",
                position.0, position.1, dims.nx, dims.ny
            ),
            Self::InvalidDtScale { dt_scale } => {
                write!(f, "dt_scale must be finite and positive, got {dt_scale}")
            }
            Self::CheckpointWithoutStore { interval } => {
                write!(f, "checkpoint_interval {interval} needs a checkpoint directory to cut into")
            }
            Self::CheckpointDir { path, detail } => {
                write!(f, "checkpoint directory {path} unusable: {detail}")
            }
            Self::ResidentUnsupported { feature } => {
                write!(f, "the compressed-resident wavefield path does not support {feature}")
            }
            Self::StateTooLarge { dims, arrays, bytes, host } => {
                write!(f, "a {dims} mesh's {arrays} arrays need ")?;
                match (bytes, host) {
                    (Some(bytes), Some(host)) => write!(
                        f,
                        "{bytes} bytes, more than this host's {host} bytes of memory and swap"
                    ),
                    _ => write!(f, "more than {} bytes", u64::MAX),
                }
            }
            Self::InvalidEnv { var, value, expected } => {
                write!(f, "environment variable {var} is set to `{value}` (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A checkpoint that cannot be restored into this simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// A checkpointed field's extents differ from the simulation mesh.
    DimsMismatch {
        /// The field's name in the checkpoint.
        field: String,
        /// Extents recorded in the checkpoint.
        checkpoint: Dims3,
        /// Extents of the running simulation.
        simulation: Dims3,
    },
    /// The checkpoint names a field the solver does not know.
    UnknownField {
        /// The unrecognized field name.
        field: String,
    },
    /// An attenuation memory-variable index (`r1`..`r6`) is out of range
    /// for this simulation's options.
    MemoryVariableOutOfRange {
        /// The 1-based memory-variable index from the checkpoint.
        index: usize,
        /// How many memory variables this simulation carries.
        available: usize,
    },
    /// The checkpoint lacks an array this simulation advances: resuming
    /// from it would restart that array at zero.
    MissingField {
        /// The array's name.
        field: &'static str,
    },
    /// The checkpoint holds a non-zero array this simulation does not
    /// advance: it was cut under other physics.
    UncarriedField {
        /// The array's name.
        field: String,
    },
    /// The checkpoint's clock is not its step count times this
    /// simulation's time step: it was cut with another `dt`.
    ClockMismatch {
        /// The checkpoint's step.
        step: u64,
        /// The checkpoint's simulated time, s.
        time: f64,
        /// This simulation's time step, s.
        dt: f64,
    },
    /// The checkpoint's seismograms are not this simulation's stations,
    /// at their positions, one sample per step.
    StationMismatch {
        /// The station (rank-local position on a grid).
        station: sw_io::Station,
        /// What differs.
        reason: &'static str,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimsMismatch { field, checkpoint, simulation } => write!(
                f,
                "checkpoint field `{field}` is {}x{}x{} but the simulation mesh is {}x{}x{}",
                checkpoint.nx,
                checkpoint.ny,
                checkpoint.nz,
                simulation.nx,
                simulation.ny,
                simulation.nz
            ),
            Self::UnknownField { field } => {
                write!(f, "checkpoint contains unknown field `{field}`")
            }
            Self::MemoryVariableOutOfRange { index, available } => write!(
                f,
                "checkpoint memory variable r{index} is out of range \
                 (simulation carries {available})"
            ),
            Self::MissingField { field } => {
                write!(f, "checkpoint lacks field `{field}`, which this run carries")
            }
            Self::UncarriedField { field } => {
                write!(f, "checkpoint field `{field}` is non-zero; this run does not advance it")
            }
            Self::ClockMismatch { step, time, dt } => {
                write!(f, "checkpoint time {time} s is not step {step} × this run's dt {dt} s")
            }
            Self::StationMismatch { station: s, reason } => {
                write!(f, "station `{}` at ({}, {}): {reason}", s.name, s.ix, s.iy)
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// The solver went numerically unstable: the health watchdog reached a
/// fatal verdict. Carries everything a post-mortem needs — where the
/// blow-up first showed (step, rank, field, grid index), why the
/// watchdog classified it the way it did, and where the on-disk
/// diagnostic bundle was written (if a bundle directory was
/// configured).
#[derive(Debug, Clone, PartialEq)]
pub struct UnstableError {
    /// Step at which the fatal probe fired.
    pub step: u64,
    /// Simulated MPI rank that detected the blow-up (0 single-rank).
    pub rank: usize,
    /// Name of the first field carrying a non-finite value.
    pub field: String,
    /// Rank-local grid index of the first non-finite value, in scan
    /// order (deterministic across exec modes).
    pub index: (usize, usize, usize),
    /// The watchdog's classification (NaN / Inf / CFL violation).
    pub cause: sw_health::Fatal,
    /// Directory of the diagnostic bundle dumped before aborting.
    pub bundle: Option<String>,
}

impl fmt::Display for UnstableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "solver unstable at step {} on rank {}: {}", self.step, self.rank, self.cause)?;
        if let Some(dir) = &self.bundle {
            write!(f, " (diagnostic bundle in {dir})")?;
        }
        Ok(())
    }
}

impl std::error::Error for UnstableError {}

/// The run was killed by an injected rank-death fault (crash drills):
/// the process is expected to abort as if `kill -9` had hit it, leaving
/// whatever the checkpoint store has committed as the only survivor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KilledError {
    /// Step the kill fired at.
    pub step: u64,
    /// Rank that died (other ranks abort collectively).
    pub rank: usize,
}

impl fmt::Display for KilledError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run killed at step {} (injected fault on rank {})", self.step, self.rank)
    }
}

impl std::error::Error for KilledError {}

/// Everything a full run can fail with: an invalid configuration up
/// front, a fatal health verdict mid-run, an injected kill, or a resume
/// that found no restorable generation.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The health watchdog aborted the run.
    Unstable(UnstableError),
    /// An injected fault killed the run (crash drills).
    Killed(KilledError),
    /// Resume was requested but no checkpoint generation could be
    /// restored (all corrupt, or none committed).
    ResumeFailed {
        /// The store's explanation, rendered to text.
        detail: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => e.fmt(f),
            Self::Unstable(e) => e.fmt(f),
            Self::Killed(e) => e.fmt(f),
            Self::ResumeFailed { detail } => write!(f, "cannot resume: {detail}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Unstable(e) => Some(e),
            Self::Killed(e) => Some(e),
            Self::ResumeFailed { .. } => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<UnstableError> for RunError {
    fn from(e: UnstableError) -> Self {
        RunError::Unstable(e)
    }
}

impl From<KilledError> for RunError {
    fn from(e: KilledError) -> Self {
        RunError::Killed(e)
    }
}

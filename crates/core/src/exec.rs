//! Execution modes: who walks the x-planes of a step.
//!
//! The paper's production runs never compute on the management core —
//! every kernel of the step executes on the 64-CPE pool (§6.2, Fig. 4),
//! and the kernels are the same code either way. [`ExecMode`] is the
//! host-side version of that switch: every kernel has one body
//! ([`crate::kernels`]); `Serial` iterates its planes on the calling
//! thread, `Parallel` hands them (and the §6.5 compression round trip,
//! checkpoint encodes and health scans) to the Rayon pool, and `Auto` —
//! the default — picks `Parallel` when the grid is big enough to
//! amortize the fan-out and more than one worker thread is available.
//! `Simd` is accepted as another spelling of `Parallel`: the vector
//! lanes it used to select run in every mode.
//!
//! Both paths are **bit-identical** (pinned by `tests/kernel_matrix.rs`
//! kernel by kernel, and over whole runs by the exec cases of
//! `tests/exec_equivalence.rs`): planes are disjoint and each is computed
//! by one call of the one body, so mode is purely a performance choice.
//!
//! ## Who walks which planes in a pool region
//!
//! The calling thread and each helper it borrows own one contiguous
//! slab of the region's x-planes and walk it in ascending `x`, the host
//! form of the paper's per-CPE sub-block (§6.2): a plane read by the
//! ±2-plane x-stencil stays in the cache of the one core that reads it.
//! A participant that runs dry takes the back half of the fullest slab,
//! so a preempted core or a costly stretch of planes (the sponge's
//! damped x-bands) does not hold the region up. Which thread computes a
//! plane is not promised and never enters a result (DESIGN.md, "Plane
//! ownership").
//!
//! ## Composing with the rank runtime
//!
//! `run_multirank` spawns one OS thread per rank; each rank's step then
//! fans out over the *shared, bounded* Rayon worker budget (see the
//! vendored `rayon` crate and `sw_parallel::run_ranks`). Helper
//! acquisition never blocks — a rank that finds the budget empty simply
//! runs its planes inline — so ranks × pool composes without deadlock
//! and the process never runs more than `ranks + threads − 1` busy
//! threads. Pin the budget with [`SimConfig::with_threads`]
//! (`--threads` on the CLI, `SWQUAKE_THREADS` in the environment).
//!
//! [`SimConfig::with_threads`]: crate::SimConfig::with_threads

use crate::error::ConfigError;
use std::fmt;
use std::str::FromStr;
use sw_grid::fpenv;

/// Grid size (interior points) above which `Auto` goes parallel. Below
/// it, plane fan-out overhead rivals the kernel work itself: a 32³ block
/// is roughly where one x plane reaches a few thousand points.
pub const AUTO_PARALLEL_THRESHOLD: usize = 32 * 32 * 32;

/// Who iterates the planes of every step phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The calling thread.
    Serial,
    /// The Rayon pool.
    Parallel,
    /// Alias of [`ExecMode::Parallel`], kept because command lines and
    /// `SWQUAKE_EXEC` values name it.
    Simd,
    /// `Parallel` when the grid exceeds [`AUTO_PARALLEL_THRESHOLD`]
    /// points and the pool has more than one thread; `Serial` otherwise.
    #[default]
    Auto,
}

/// What a mode resolved to for a given mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Planes are walked on the calling thread.
    Serial,
    /// Planes are handed to the Rayon pool.
    Parallel,
}

impl ExecPath {
    /// Whether this path fans work out over the Rayon pool.
    pub fn is_parallel(self) -> bool {
        self == ExecPath::Parallel
    }
}

impl fmt::Display for ExecPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecPath::Serial => "serial",
            ExecPath::Parallel => "parallel",
        })
    }
}

/// Whether this build carries the vectorized kernels: always — they are
/// the only kernels. Kept because `bench_e2e` asks.
pub const fn simd_compiled() -> bool {
    true
}

impl ExecMode {
    /// The process-wide default: `SWQUAKE_EXEC` when set (same syntax as
    /// `--exec`; an invalid value is ignored here and refused by
    /// [`check_env`]), `Auto` otherwise. Explicit
    /// [`crate::SimConfig::with_exec`] always wins over the environment.
    pub fn from_env() -> Self {
        env_default(&EXEC_ENV).unwrap_or_default()
    }

    /// Resolve the mode for a mesh: `true` means run a pool-based path.
    pub fn resolve(self, points: usize) -> bool {
        self.resolve_path(points).is_parallel()
    }

    /// Resolve the mode for a mesh of `points` interior cells.
    pub fn resolve_path(self, points: usize) -> ExecPath {
        match self {
            ExecMode::Serial => ExecPath::Serial,
            ExecMode::Parallel | ExecMode::Simd => ExecPath::Parallel,
            ExecMode::Auto => {
                if points >= AUTO_PARALLEL_THRESHOLD && rayon::current_num_threads() > 1 {
                    ExecPath::Parallel
                } else {
                    ExecPath::Serial
                }
            }
        }
    }
}

impl FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "serial" => Ok(ExecMode::Serial),
            "parallel" => Ok(ExecMode::Parallel),
            "simd" => Ok(ExecMode::Simd),
            "auto" => Ok(ExecMode::Auto),
            other => {
                Err(format!("unknown exec mode `{other}` (expected serial|parallel|simd|auto)"))
            }
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecMode::Serial => "serial",
            ExecMode::Parallel => "parallel",
            ExecMode::Simd => "simd",
            ExecMode::Auto => "auto",
        })
    }
}

/// Pin the global Rayon worker budget to `threads` (0 = leave the
/// current setting: hardware parallelism unless previously pinned).
/// Idempotent; the last call wins.
pub fn configure_threads(threads: usize) {
    if threads > 0 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("the vendored pool accepts reconfiguration");
    }
}

/// Enter the floating-point environment all kernel code runs in —
/// subnormals flush to zero ([`sw_grid::fpenv`]) — on the calling thread
/// and on every pool helper it borrows while the guard lives; dropping
/// the guard restores the caller's own mode. The driver holds one
/// across every step, in every exec mode, residency and rank, so
/// all of them compute the same bits. Code that calls kernels directly
/// enters it the same way.
pub fn kernel_fp_env() -> fpenv::FlushGuard {
    // Pool helpers take over the borrowing thread's mode instead of
    // counting on the thread library to copy it. A helper lives for one
    // region, so it never needs its own mode back.
    rayon::set_start_handler(rayon::StartHandler {
        capture: || u64::from(fpenv::is_flushing()),
        adopt: |flushing| {
            if flushing != 0 {
                std::mem::forget(fpenv::flush_subnormals());
            }
        },
    });
    fpenv::flush_subnormals()
}

/// A `SWQUAKE_*` variable holding the default of an option, and the
/// values that option accepts.
struct EnvDefault {
    var: &'static str,
    expected: &'static str,
}

const EXEC_ENV: EnvDefault =
    EnvDefault { var: "SWQUAKE_EXEC", expected: "serial|parallel|simd|auto" };
const THREADS_ENV: EnvDefault =
    EnvDefault { var: "SWQUAKE_THREADS", expected: "a thread count, 0 meaning every core" };

/// The parsed value of `env.var`: `Ok(None)` when unset, an error naming
/// the variable when set to something `T` does not parse from.
fn env_value<T: FromStr>(env: &EnvDefault) -> Result<Option<T>, ConfigError> {
    let Some(raw) = std::env::var_os(env.var) else { return Ok(None) };
    raw.to_str().and_then(|v| v.parse().ok()).map(Some).ok_or_else(|| ConfigError::InvalidEnv {
        var: env.var,
        value: raw.to_string_lossy().into_owned(),
        expected: env.expected,
    })
}

/// The lenient read the library constructors use: unset or unparsable
/// is `None`.
fn env_default<T: FromStr>(env: &EnvDefault) -> Option<T> {
    env_value(env).ok().flatten()
}

/// Refuse a `SWQUAKE_EXEC` or `SWQUAKE_THREADS` that is set but does not
/// parse. The library constructors ([`ExecMode::from_env`],
/// [`threads_from_env`]) stay infallible and fall back to the built-in
/// default; a front end that reads those variables on a user's behalf
/// calls this first, so `SWQUAKE_EXEC=paralel` is an error and not a
/// silent `auto`.
pub fn check_env() -> Result<(), ConfigError> {
    env_value::<ExecMode>(&EXEC_ENV)?;
    env_value::<usize>(&THREADS_ENV)?;
    Ok(())
}

/// The thread-count default from `SWQUAKE_THREADS` (0 = unset/invalid).
pub fn threads_from_env() -> usize {
    env_default(&THREADS_ENV).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_round_trips() {
        for mode in [ExecMode::Serial, ExecMode::Parallel, ExecMode::Simd, ExecMode::Auto] {
            assert_eq!(mode.to_string().parse::<ExecMode>().unwrap(), mode);
        }
        assert_eq!("PARALLEL".parse::<ExecMode>().unwrap(), ExecMode::Parallel);
        assert_eq!("SIMD".parse::<ExecMode>().unwrap(), ExecMode::Simd);
        assert!("cpes".parse::<ExecMode>().is_err());
    }

    #[test]
    fn fixed_modes_ignore_grid_size() {
        assert!(!ExecMode::Serial.resolve(usize::MAX));
        assert!(ExecMode::Parallel.resolve(1));
        assert_eq!(ExecMode::Simd.resolve_path(1), ExecPath::Parallel, "simd is an alias");
        assert_eq!(ExecMode::Serial.resolve_path(usize::MAX), ExecPath::Serial);
    }

    #[test]
    fn auto_stays_serial_below_threshold() {
        assert!(!ExecMode::Auto.resolve(AUTO_PARALLEL_THRESHOLD - 1));
    }

    #[test]
    fn auto_above_threshold_follows_pool_width() {
        let expect = rayon::current_num_threads() > 1;
        assert_eq!(ExecMode::Auto.resolve(AUTO_PARALLEL_THRESHOLD), expect);
    }
}

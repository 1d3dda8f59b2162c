//! `bench_e2e` — the repository benchmark.
//!
//! End-to-end metrics are measured from outside, by spawning the release
//! `swquake` binary on generated scenario and campaign files with every
//! program-side trace off ([`measure`]), and counted in seconds of the
//! quiet reference host ([`hostclock`]). Per-layer metrics come from a
//! separate traced run that rebuilds the same simulation in process and
//! records a span around every call into a layer ([`traced`], [`probes`]).
//! See `README.md` next to this crate and `BENCHMARK.json` at the
//! repository root.

pub mod cli;
pub mod compare;
pub mod hostclock;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;

/// Hardware threads of this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Worker threads a benchmark uses unless told otherwise: every core up
/// to four, never more threads than cores.
pub fn default_threads() -> usize {
    nproc().min(4)
}

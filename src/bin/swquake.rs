//! `swquake` — the command-line driver.
//!
//! Subcommands:
//!
//! * `run <scenario.json>` — run one earthquake scenario through the
//!   full solver and write seismograms (CSV), the PGV field, and a
//!   seismic-intensity hazard map (the bare legacy form
//!   `swquake <scenario.json>` still works);
//! * `campaign <campaign.json>` — batch many scenarios through one
//!   resident solver process: expensive setup artifacts (earth model,
//!   material state, source lists) are shared through a content-hash
//!   cache, up to `--jobs` scenarios run concurrently on the bounded
//!   worker pool, and a durable manifest makes the whole campaign
//!   resumable (`--resume`) after a crash;
//! * `bench-diff <old.json> <new.json>` — the perf-regression gate over
//!   two `BENCH_<name>.json` files (the same command as `perf-diff`);
//! * `perf-report <perf.json>` — render a perf ledger (from `run
//!   --perf` or a campaign's per-scenario `perf.json`) as a per-kernel
//!   table, flagging kernels below `--min-fraction` of their modeled
//!   roofline;
//! * `perf-diff <old> <new>` — the per-kernel regression gate: compares
//!   two perf ledgers (or bench reports — the formats are
//!   auto-detected and interchangeable here);
//! * `imbalance-report <timeline.json>` — render a run timeline (from
//!   `run --obs`) as a per-phase imbalance table; `--max-skew <frac>`
//!   turns it into a gate that exits 1 when any phase's skew
//!   `(max − min) / mean` across ranks exceeds the floor;
//! * `--write-example [path]` — emit a commented scenario template.
//!
//! Every subcommand answers `--help`. For `run`: `--metrics` writes
//! telemetry from every subsystem (step phases, compression codecs,
//! modeled SW26010 hardware charges, I/O) as a stable-schema JSON
//! report; `--trace` records a Chrome trace-event timeline (open it in
//! Perfetto / `chrome://tracing`) and `--roofline` writes the
//! predicted-vs-simulated per-kernel attribution report. `--exec
//! serial|parallel|auto` picks who walks the x-planes of each kernel
//! (the calling thread or the bit-identical Rayon CPE-pool analogue;
//! `simd` is accepted as an alias of `parallel`) and `--threads <n>`
//! pins the worker-pool width. `--health <out.jsonl>`
//! streams the in-situ simulation-health log (stability watchdog +
//! compression error budget) and `--health-stride <n>` sets how often
//! the wavefield is probed (default 10, or `SWQUAKE_HEALTH_STRIDE`).
//! `--checkpoint-dir <dir>` persists checkpoints durably (atomic files,
//! versioned manifest, keep-N retention; `--checkpoint-interval` and
//! `--checkpoint-keep` tune the cadence and retention) and `--resume`
//! restarts a killed run from the newest valid generation —
//! bit-identically, including the seismogram/hazard outputs.
//! `--ranks <MX>x<MY>` runs the scenario on an MX×MY rank grid (the
//! multirank runner: two blocking halo exchanges per step, merged
//! observables, bit-identical to single-rank). `--obs <dir>` arms the run timeline:
//! heartbeat lines stream to `<dir>/run.jsonl` every `--obs-stride`
//! steps (default 10) and the final per-rank, per-phase
//! `<dir>/timeline.json` feeds `swquake imbalance-report`. The
//! `SWQUAKE_FAULT_PLAN` environment variable arms the deterministic
//! crash drills (`seed=N;kill@STEP`, `torn@STEP:frac=F`,
//! `slow@STEP:rank=R:frac=F`, ... — see `swquake::fault`).
//!
//! ```text
//! swquake --write-example scenario.json           # emit a commented template
//! swquake scenario.json                           # run it (legacy form)
//! swquake run scenario.json --metrics out.json    # run + telemetry report
//! swquake run scenario.json --trace trace.json    # run + Chrome trace
//! swquake run scenario.json --roofline roof.json  # run + attribution table
//! swquake run scenario.json --exec parallel --threads 8
//! swquake run scenario.json --health health.jsonl --health-stride 5
//! swquake run scenario.json --checkpoint-dir ckpt --checkpoint-interval 25
//! swquake run scenario.json --checkpoint-dir ckpt --resume
//! swquake campaign campaign.json --jobs 2         # batch scenarios
//! swquake campaign campaign.json --resume         # pick up after a crash
//! swquake campaign campaign.json --perf           # + per-scenario perf.json
//! swquake run scenario.json --perf perf.json      # per-kernel ledger
//! swquake perf-report perf.json --min-fraction 0.1
//! swquake perf-diff old_perf.json new_perf.json --tolerance 0.2
//! swquake bench-diff old.json new.json --tolerance 0.15
//! swquake run scenario.json --ranks 2x2 --obs obs  # multirank + timeline
//! swquake imbalance-report obs/timeline.json --max-skew 0.25
//! ```
//!
//! Exit codes: 0 on success, 1 when the solver goes unstable, a
//! campaign completes with unstable scenarios, `bench-diff`/`perf-diff`
//! find a regression, `perf-report` flags a kernel below
//! `--min-fraction`, or `imbalance-report` finds a phase over
//! `--max-skew`, 2 for any usage, parse, or configuration error
//! (including unknown flags, unusable checkpoint stores, and
//! unit-mismatched bench records), 3 when a
//! campaign completes with failed scenarios (failures dominate
//! instabilities), and 137 when an injected fault kills the run
//! (mirroring a SIGKILLed process). All solver failures flow through
//! [`swquake::Error`] and are mapped to a code in one place, here.

use std::sync::Arc;
use swquake::campaign::CampaignRunOptions;
use swquake::core::driver::run_multirank;
use swquake::core::{ExecMode, MultiRankOutput, ResidentMode, Simulation};
use swquake::health::{HealthConfig, HealthLog};
use swquake::parallel::RankGrid;
use swquake::telemetry::bench::{compare, BenchReport};
use swquake::telemetry::perf::{PerfLedger, PerfRecorder};
use swquake::telemetry::timeline::{
    TimelineRecorder, TimelineReport, DEFAULT_HEARTBEAT_STRIDE, RUN_LOG_NAME, TIMELINE_NAME,
};
use swquake::telemetry::{Telemetry, Tracer};
use swquake::{Error, Scenario, ScenarioVersion};

const GENERAL_USAGE: &str = "\
usage: swquake [run] <scenario.json> [run flags]
       swquake campaign <campaign.json> [campaign flags]
       swquake bench-diff <old.json> <new.json> [--tolerance <frac>]
       swquake perf-report <perf.json> [--min-fraction <frac>]
       swquake perf-diff <old.json> <new.json> [--tolerance <frac>]
       swquake imbalance-report <timeline.json> [--max-skew <frac>]
       swquake --write-example [path]
       swquake <subcommand> --help";

const RUN_HELP: &str = "\
usage: swquake run <scenario.json> [flags]

Run one earthquake scenario and write seismograms (CSV), the PGV field,
and a seismic-intensity hazard map. The bare form
`swquake <scenario.json>` is equivalent.

flags:
  --metrics <out.json>         telemetry report (stable JSON schema)
  --trace <out.json>           Chrome trace-event timeline
  --roofline <out.json>        per-kernel predicted-vs-simulated report
  --exec serial|parallel|auto  who walks each kernel's x-planes: the
                               calling thread or the worker pool (default
                               auto; simd is an alias of parallel)
  --threads <n>                worker-pool width for pool-based modes
  --resident full|compressed16 wavefield storage between steps (default
                               full, or SWQUAKE_RESIDENT; compressed16
                               keeps wavefields 16-bit and streams tiles
                               through a capped f32 slab — rejects
                               compression scenarios, snapshots and
                               --ranks)
  --memory-cap <bytes>         byte budget for the compressed16 decode
                               slab (suffixes k/m/g; default: an 8-column
                               tile)
  --health <out.jsonl>         stream the simulation-health log
  --health-stride <n>          wavefield probe cadence (default 10)
  --checkpoint-dir <dir>       durable checkpoint store
  --checkpoint-interval <n>    checkpoint every n steps
  --checkpoint-keep <n>        generations to retain
  --resume                     restart from the newest valid checkpoint
  --perf <out.json>            per-kernel performance ledger (wall time,
                               cells/s, GFLOP/s, GB/s, roofline fraction);
                               also appends one line to perf_history.jsonl
                               next to <out.json>; with --ranks a row's
                               wall is its slowest rank's
  --ranks <MX>x<MY>            run on an MX x MY rank grid (multirank
                               halo exchange; observables are merged and
                               bit-identical to the single-rank run)
  --obs <dir>                  run timeline: stream heartbeat lines to
                               <dir>/run.jsonl and write the final
                               per-rank, per-phase <dir>/timeline.json
                               (consumed by `swquake imbalance-report`)
  --obs-stride <n>             steps between heartbeat lines (default 10;
                               a final line is always written)";

const CAMPAIGN_HELP: &str = "\
usage: swquake campaign <campaign.json> [flags]

Batch many scenarios through one resident solver process. The campaign
file queues scenario descriptions ({\"scenarios\": [{\"id\": ...,
\"scenario\": {...}}, ...]}); expensive setup artifacts (earth model,
material state, source lists) are shared across scenarios through a
content-hash cache, and a durable MANIFEST.json records per-scenario
state so an interrupted campaign resumes where it stopped. Results
stream to campaign.jsonl as each scenario finishes; summary.json and
per-scenario output directories land next to the manifest.

flags:
  --dir <dir>                  campaign directory (default <name>_campaign)
  --jobs <n>                   scenarios in flight at once
                               (default: the file's max_concurrent, or 1)
  --resume                     skip done scenarios, resume the interrupted one
  --fail-fast                  abort on the first failed/unstable scenario
  --exec serial|parallel|auto  who walks each kernel's x-planes, for every
                               scenario (simd is an alias of parallel)
  --threads <n>                worker-pool width for pool-based modes
  --perf                       write each scenario's per-kernel ledger to
                               <dir>/<id>/perf.json (the summary.json
                               perf rollup is always populated)

exit codes: 0 all scenarios done; 1 completed with unstable scenarios;
3 completed with failed scenarios; 2 usage/spec errors; 137 when an
injected fault kills a scenario (the campaign aborts, resumable).";

const BENCH_DIFF_HELP: &str = "\
usage: swquake bench-diff <old.json> <new.json> [--tolerance <frac>]

Compare two BENCH_<name>.json reports (or perf ledgers: this is the
same command as `perf-diff`); exit 0 on pass, 1 on regression
beyond the tolerance (default 0.1; a record's own `tolerance` field
overrides it), 2 when either file fails to load or records disagree on
(or omit) their throughput unit. Records stamped with different hosts
are skipped rather than compared.";

const PERF_REPORT_HELP: &str = "\
usage: swquake perf-report <perf.json> [--min-fraction <frac>]

Render a per-kernel performance ledger (from `swquake run --perf` or a
campaign scenario's perf.json) as a table: wall time, cells/s, GFLOP/s,
GB/s and the achieved fraction of the modeled SW26010 roofline, under a
header naming the host, the exec path and the lane tier (baseline /
avx2 / avx512) the run dispatched to. Exit 0 normally, 1 when any modeled kernel is below --min-fraction (default 0,
which never flags), 2 when the file fails to load.";

const PERF_DIFF_HELP: &str = "\
usage: swquake perf-diff <old.json> <new.json> [--tolerance <frac>]

Per-kernel perf-regression gate. Each side may be a perf ledger (from
`run --perf`) or a BENCH_<name>.json report — auto-detected, so a
ledger can be diffed against a committed bench baseline. Ledger sides
echo their exec path and lane tier (baseline / avx2 / avx512) above the
table, so cross-mode and cross-host comparisons are self-describing. Exit 0 on pass, 1 on
regression beyond the tolerance (default 0.1; per-record `tolerance`
overrides), 2 on load failures or unit mismatches.";

const IMBALANCE_REPORT_HELP: &str = "\
usage: swquake imbalance-report <timeline.json> [--max-skew <frac>]

Render a run timeline (written by `swquake run --obs <dir>`) as a
per-phase load-imbalance table: per-rank wall time, skew
`(max - min) / mean`, the phase's critical rank, the run's overall
critical-path rank (most non-wait work), the halo-wait fraction, and
the per-field resident-memory gauges.

With --max-skew the report becomes a gate: exit 1 when any phase's
skew exceeds the floor (the offending phases and their critical ranks
are listed). Exit 0 otherwise, 2 when the file fails to load.";

// One value, built once at startup and consumed immediately — the
// size skew between variants never multiplies.
#[allow(clippy::large_enum_variant)]
enum Command {
    Help(&'static str),
    WriteExample(String),
    Run {
        scenario: String,
        outputs: RunOutputs,
    },
    Campaign {
        path: String,
        opts: CampaignRunOptions,
    },
    /// `bench-diff` or `perf-diff`, as `tool` spells it.
    Diff {
        tool: &'static str,
        old: String,
        new: String,
        tolerance: f64,
    },
    PerfReport {
        path: String,
        min_fraction: f64,
    },
    ImbalanceReport {
        path: String,
        max_skew: Option<f64>,
    },
}

/// Optional report files a `run` can emit, plus execution overrides.
#[derive(Default)]
struct RunOutputs {
    metrics: Option<String>,
    trace: Option<String>,
    roofline: Option<String>,
    exec: Option<ExecMode>,
    threads: Option<usize>,
    resident: Option<ResidentMode>,
    memory_cap: Option<u64>,
    health: Option<String>,
    health_stride: Option<u64>,
    checkpoint_dir: Option<String>,
    checkpoint_interval: Option<u64>,
    checkpoint_keep: Option<usize>,
    resume: bool,
    perf: Option<String>,
    ranks: Option<(usize, usize)>,
    obs: Option<String>,
    obs_stride: Option<u64>,
}

impl RunOutputs {
    fn any(&self) -> bool {
        self.metrics.is_some() || self.trace.is_some() || self.roofline.is_some()
    }
}

/// The value of `flag`, through `parse`. A missing or rejected value is
/// named on stderr — with what `flag` `expects` — before the caller's
/// `None` prints the usage.
fn value<T>(
    flag: &str,
    args: &mut std::slice::Iter<'_, String>,
    expects: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let Some(raw) = args.next() else {
        eprintln!("{flag} needs a value ({expects})");
        return None;
    };
    let parsed = parse(raw);
    if parsed.is_none() {
        eprintln!("invalid value '{raw}' for {flag} (expected {expects})");
    }
    parsed
}

/// [`value`] for a flag that takes a path.
fn file_arg(flag: &str, args: &mut std::slice::Iter<'_, String>) -> Option<String> {
    value(flag, args, "a path", |v| Some(v.to_string()))
}

/// [`value`] through `T`'s own `FromStr`.
fn parsed<T: std::str::FromStr>(
    flag: &str,
    args: &mut std::slice::Iter<'_, String>,
    expects: &str,
) -> Option<T> {
    value(flag, args, expects, |v| v.parse().ok())
}

const EXEC_MODES: &str = "serial, parallel, simd or auto";

fn parse_args(args: &[String]) -> Option<Command> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("--help") | Some("-h") => return Some(Command::Help(GENERAL_USAGE)),
        // One command under two names.
        Some("bench-diff") => return parse_diff("bench-diff", BENCH_DIFF_HELP, rest),
        Some("perf-diff") => return parse_diff("perf-diff", PERF_DIFF_HELP, rest),
        Some("perf-report") => {
            return parse_report(rest, PERF_REPORT_HELP, "--min-fraction", 1, |mut paths, min| {
                Command::PerfReport { path: paths.remove(0), min_fraction: min.unwrap_or(0.0) }
            })
        }
        Some("imbalance-report") => {
            return parse_report(rest, IMBALANCE_REPORT_HELP, "--max-skew", 1, |mut paths, skew| {
                Command::ImbalanceReport { path: paths.remove(0), max_skew: skew }
            })
        }
        Some("campaign") => return parse_campaign(rest),
        _ => {}
    }
    let mut positional: Vec<String> = Vec::new();
    let mut outputs = RunOutputs::default();
    let mut write_example = false;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--help" | "-h" => return Some(Command::Help(RUN_HELP)),
            "--write-example" => write_example = true,
            "--metrics" => outputs.metrics = Some(file_arg(a, &mut iter)?),
            "--trace" => outputs.trace = Some(file_arg(a, &mut iter)?),
            "--roofline" => outputs.roofline = Some(file_arg(a, &mut iter)?),
            "--exec" => outputs.exec = Some(parsed(a, &mut iter, EXEC_MODES)?),
            "--threads" => outputs.threads = Some(parsed(a, &mut iter, "a thread count")?),
            "--resident" => outputs.resident = Some(parsed(a, &mut iter, "full or compressed16")?),
            "--memory-cap" => {
                let expects = "a byte count, optionally with a k, m or g suffix";
                outputs.memory_cap = Some(value(a, &mut iter, expects, parse_bytes)?)
            }
            "--health" => outputs.health = Some(file_arg(a, &mut iter)?),
            "--health-stride" => {
                outputs.health_stride = Some(parsed(a, &mut iter, "a number of steps")?)
            }
            "--checkpoint-dir" => outputs.checkpoint_dir = Some(file_arg(a, &mut iter)?),
            "--checkpoint-interval" => {
                outputs.checkpoint_interval = Some(parsed(a, &mut iter, "a number of steps")?)
            }
            "--checkpoint-keep" => {
                outputs.checkpoint_keep = Some(parsed(a, &mut iter, "a number of generations")?)
            }
            "--resume" => outputs.resume = true,
            "--perf" => outputs.perf = Some(file_arg(a, &mut iter)?),
            "--ranks" => {
                let expects = "<MX>x<MY>, both at least 1";
                outputs.ranks = Some(value(a, &mut iter, expects, parse_rank_grid)?)
            }
            "--obs" => outputs.obs = Some(file_arg(a, &mut iter)?),
            "--obs-stride" => outputs.obs_stride = Some(parsed(a, &mut iter, "a number of steps")?),
            flag if flag.starts_with("--") => return None,
            other => positional.push(other.to_string()),
        }
    }
    // Flag pairs that cannot work together are usage errors; say which
    // pair and why before the usage text.
    let ranked = outputs.ranks.is_some_and(|(mx, my)| mx * my > 1);
    let clash = if outputs.resume && outputs.checkpoint_dir.is_none() {
        Some("--resume needs --checkpoint-dir: there is no store to resume from")
    } else if ranked && outputs.resident == Some(ResidentMode::Compressed16) {
        Some(
            "--ranks and --resident compressed16 cannot be combined: the halo exchange reads \
             the f32 wavefield arrays, which compressed16 does not keep",
        )
    } else {
        None
    };
    if let Some(why) = clash {
        eprintln!("{why}");
        return None;
    }
    if write_example {
        let path = positional.first().cloned().unwrap_or_else(|| "scenario.json".to_string());
        return Some(Command::WriteExample(path));
    }
    // Optional `run` subcommand before the scenario path.
    if positional.first().map(String::as_str) == Some("run") {
        positional.remove(0);
    }
    if positional.len() == 1 {
        Some(Command::Run { scenario: positional.remove(0), outputs })
    } else {
        None
    }
}

/// A byte count with an optional k/m/g suffix (powers of 1024), e.g.
/// `64m` → 67108864.
fn parse_bytes(spec: &str) -> Option<u64> {
    let spec = spec.trim();
    let (digits, shift) = match spec.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&spec[..i], 10),
        (i, 'm') | (i, 'M') => (&spec[..i], 20),
        (i, 'g') | (i, 'G') => (&spec[..i], 30),
        _ => (spec, 0),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_shl(shift).filter(|v| v >> shift == n)
}

/// `MXxMY` (e.g. `2x2`) → a rank-grid shape; both factors must be ≥ 1.
fn parse_rank_grid(spec: &str) -> Option<(usize, usize)> {
    let (mx, my) = spec.split_once('x')?;
    let (mx, my): (usize, usize) = (mx.parse().ok()?, my.parse().ok()?);
    (mx >= 1 && my >= 1).then_some((mx, my))
}

fn parse_campaign(args: &[String]) -> Option<Command> {
    let mut positional: Vec<String> = Vec::new();
    let mut opts = CampaignRunOptions::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--help" | "-h" => return Some(Command::Help(CAMPAIGN_HELP)),
            "--dir" => opts.dir = Some(file_arg(a, &mut iter)?),
            "--jobs" => opts.jobs = Some(parsed(a, &mut iter, "a number of scenarios")?),
            "--resume" => opts.resume = true,
            "--fail-fast" => opts.fail_fast = Some(true),
            "--exec" => opts.exec = Some(parsed(a, &mut iter, EXEC_MODES)?),
            "--threads" => opts.threads = Some(parsed(a, &mut iter, "a thread count")?),
            "--perf" => opts.perf = true,
            flag if flag.starts_with("--") => return None,
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() == 1 {
        Some(Command::Campaign { path: positional.remove(0), opts })
    } else {
        None
    }
}

/// The report subcommands share one shape: `--help`, one optional
/// fraction-valued `flag`, and exactly `paths` file arguments, which
/// `build` turns into the command.
fn parse_report(
    args: &[String],
    help: &'static str,
    flag: &str,
    paths: usize,
    build: impl FnOnce(Vec<String>, Option<f64>) -> Command,
) -> Option<Command> {
    let mut positional: Vec<String> = Vec::new();
    let mut fraction = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--help" | "-h" => return Some(Command::Help(help)),
            given if given == flag => fraction = Some(parsed(a, &mut iter, "a fraction")?),
            other if other.starts_with("--") => return None,
            other => positional.push(other.to_string()),
        }
    }
    (positional.len() == paths).then(|| build(positional, fraction))
}

fn parse_diff(tool: &'static str, help: &'static str, args: &[String]) -> Option<Command> {
    parse_report(args, help, "--tolerance", 2, |mut paths, tolerance| {
        let new = paths.remove(1);
        Command::Diff { tool, old: paths.remove(0), new, tolerance: tolerance.unwrap_or(0.1) }
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        None => {
            eprintln!("{GENERAL_USAGE}");
            2
        }
        Some(Command::Help(text)) => {
            println!("{text}");
            0
        }
        Some(Command::WriteExample(path)) => {
            std::fs::write(&path, Scenario::example().to_json()).expect("write example scenario");
            println!("wrote example scenario to {path}");
            0
        }
        Some(Command::Run { scenario, outputs }) => match run(&scenario, &outputs) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("{e}");
                match e {
                    Error::Unstable(_) => 1,
                    // Same code a SIGKILLed process reports (128 + 9):
                    // the crash drills in CI assert on it.
                    Error::Killed(_) => 137,
                    _ => 2,
                }
            }
        },
        Some(Command::Campaign { path, opts }) => campaign(&path, &opts),
        Some(Command::Diff { tool, old, new, tolerance }) => diff(tool, &old, &new, tolerance),
        Some(Command::PerfReport { path, min_fraction }) => perf_report(&path, min_fraction),
        Some(Command::ImbalanceReport { path, max_skew }) => imbalance_report(&path, max_skew),
    };
    std::process::exit(code);
}

/// Run (or resume) a campaign and map the report to an exit code.
fn campaign(path: &str, opts: &CampaignRunOptions) -> i32 {
    match swquake::campaign::run_campaign_file(path, opts) {
        Ok(report) => {
            let dir = opts.dir.clone().unwrap_or_else(|| format!("{}_campaign", report.name));
            println!(
                "campaign `{}`: {} done, {} failed, {} unstable, {} skipped \
                 in {:.1} s wall time",
                report.name,
                report.done,
                report.failed,
                report.unstable,
                report.skipped,
                report.wall_s
            );
            println!(
                "artifact cache: {} hits, {} misses (builds)",
                report.artifact_hits, report.artifact_misses
            );
            println!("campaign outputs in {dir} (manifest, campaign.jsonl, summary.json)");
            if let Some(abort) = &report.aborted {
                eprintln!("{abort}");
            }
            swquake::campaign::exit_code(&report)
        }
        Err(e) => {
            eprintln!("{}", Error::Campaign(e));
            2
        }
    }
}

/// The regression gate behind `bench-diff` and `perf-diff`: exit 0 on
/// pass, 1 on regression/missing, 2 when either file fails to load or
/// parse or records disagree on their units.
///
/// Each side is a bench report or a perf ledger — a ledger has a
/// top-level `kernels` array, a bench report `records` — and ledgers are
/// lowered to per-kernel bench records, so the two formats diff against
/// each other. The lowering drops the ledger's exec-path and lane-tier
/// stamps, so they are echoed per side here: a cross-mode or cross-tier
/// diff must say what it is comparing.
fn diff(tool: &str, old_path: &str, new_path: &str, tolerance: f64) -> i32 {
    let load = |path: &str, role: &str| -> Result<(BenchReport, Option<String>), String> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                format!(
                    "{tool}: {role} not found: {path}\n\
                     (run the benchmark first to produce it, or pass the right path)"
                )
            } else {
                format!("{tool}: cannot read {role} {path}: {e}")
            }
        })?;
        let parse_error = |e: serde_json::Error| format!("{tool}: cannot parse {role} {path}: {e}");
        let probe: serde_json::Value = serde_json::from_str(&text).map_err(parse_error)?;
        if probe.as_object().is_some_and(|o| o.iter().any(|(k, _)| k == "kernels")) {
            let ledger = PerfLedger::from_json(&text).map_err(parse_error)?;
            Ok((ledger.to_bench_report("perf"), ledger.stamps()))
        } else {
            BenchReport::from_json(&text).map(|r| (r, None)).map_err(parse_error)
        }
    };
    let ((old, old_echo), (new, new_echo)) =
        match (load(old_path, "baseline"), load(new_path, "candidate")) {
            (Ok(o), Ok(n)) => (o, n),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return 2;
            }
        };
    if let Some(echo) = &old_echo {
        println!("baseline:  {echo}");
    }
    if let Some(echo) = &new_echo {
        println!("candidate: {echo}");
    }
    let cmp = compare(&old, &new, tolerance);
    print!("{}", cmp.text_table());
    // Unit disagreements (including the empty placeholder unit) are a
    // usage error — the reports are not comparable — not a regression.
    if !cmp.unit_errors.is_empty() {
        2
    } else if cmp.passed() {
        0
    } else {
        1
    }
}

/// Render a perf ledger as a per-kernel table; exit 1 when any modeled
/// kernel is below `min_fraction` of its roofline, 2 on load failure.
fn perf_report(path: &str, min_fraction: f64) -> i32 {
    let ledger = match load_perf_ledger(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    print!("{}", ledger.text_table(min_fraction));
    if ledger.below_fraction(min_fraction).is_empty() {
        0
    } else {
        1
    }
}

fn load_perf_ledger(path: &str) -> Result<PerfLedger, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("perf-report: cannot read {path}: {e}"))?;
    PerfLedger::from_json(&text).map_err(|e| format!("perf-report: cannot parse {path}: {e}"))
}

/// Render a run timeline as a per-phase imbalance table; with a skew
/// floor, exit 1 when any phase exceeds it. Exit 2 on load failure.
fn imbalance_report(path: &str, max_skew: Option<f64>) -> i32 {
    let report: TimelineReport = match std::fs::read_to_string(path)
        .map_err(|e| format!("imbalance-report: cannot read {path}: {e}"))
        .and_then(|text| {
            serde_json::from_str(&text)
                .map_err(|e| format!("imbalance-report: cannot parse {path}: {e}"))
        }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    print!("{}", report.text_table());
    let Some(floor) = max_skew else { return 0 };
    let over = report.phases_over(floor);
    if over.is_empty() {
        println!("imbalance gate passed: no phase over skew {floor:.3}");
        0
    } else {
        for p in &over {
            eprintln!(
                "imbalance: phase `{}` skew {:.3} exceeds {:.3} (critical rank {})",
                p.name, p.skew, floor, p.critical_rank
            );
        }
        eprintln!("critical-path rank: {}", report.critical_rank);
        1
    }
}

#[allow(clippy::result_large_err)] // cold abort-path error; see Scenario::from_json
fn run(path: &str, outputs: &RunOutputs) -> Result<(), Error> {
    swquake::core::exec::check_env()?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Io { path: path.to_string(), source: e })?;
    let (scenario, version) = Scenario::from_json_versioned(&text)?;
    if version == ScenarioVersion::V1 {
        eprintln!(
            "warning: {path} uses the deprecated v1 scenario schema (no `schema` field); \
             re-emit it with `swquake --write-example` conventions (`schema: 2`)"
        );
    }
    let model = scenario.build_model();
    // Counters/timers feed --metrics and --roofline; the tracer feeds
    // --trace. Without any of the three this stays the disabled
    // (branch-on-None) telemetry, bit-identical to an uninstrumented run.
    let mut telemetry = if outputs.any() { Telemetry::enabled() } else { Telemetry::disabled() };
    if outputs.trace.is_some() {
        telemetry = telemetry.with_tracer(Tracer::enabled());
        telemetry.tracer().bind_lane(0, "driver");
    }
    let mut cfg = scenario.to_config(model.as_ref())?.with_telemetry(telemetry.clone());
    // `--perf` arms the per-kernel ledger; without it the recorder stays
    // `None` and every instrumentation site is a branch on a cold Option.
    let perf_recorder = outputs.perf.as_ref().map(|_| Arc::new(PerfRecorder::new()));
    if let Some(p) = &perf_recorder {
        cfg = cfg.with_perf(Arc::clone(p));
    }
    if let Some(exec) = outputs.exec {
        cfg = cfg.with_exec(exec);
    }
    if let Some(threads) = outputs.threads {
        cfg = cfg.with_threads(threads);
    }
    if let Some(resident) = outputs.resident {
        cfg = cfg.with_resident(resident);
    }
    if let Some(cap) = outputs.memory_cap {
        cfg = cfg.with_memory_cap(cap);
    }
    // Health monitoring is always armed so a blow-up aborts with a
    // diagnosis; `--health` additionally streams the JSONL log.
    let stride = outputs
        .health_stride
        .or_else(swquake::core::exec::health_stride_from_env)
        .unwrap_or(HealthConfig::default().stride);
    let mut health_cfg = HealthConfig::default()
        .with_stride(stride)
        .with_bundle_dir(format!("{}_health_bundle", scenario.output_prefix));
    if let Some(log_path) = &outputs.health {
        let log = HealthLog::create(log_path)
            .map_err(|e| Error::Io { path: log_path.clone(), source: e })?;
        health_cfg.log_path = Some(log_path.clone());
        cfg = cfg.with_health_log(Arc::new(log));
    }
    cfg = cfg.with_health(health_cfg);
    // Durable checkpointing + crash drills.
    if let Some(dir) = &outputs.checkpoint_dir {
        cfg = cfg.with_checkpoint_dir(dir);
        // Persisting needs a cadence: CLI flag > scenario field > a
        // conservative default.
        let interval = outputs.checkpoint_interval.unwrap_or(if cfg.checkpoint_interval > 0 {
            cfg.checkpoint_interval
        } else {
            10
        });
        cfg = cfg.with_checkpoint_interval(interval);
        if let Some(keep) = outputs.checkpoint_keep {
            cfg = cfg.with_checkpoint_keep(keep);
        }
    }
    let fault = swquake::fault::FaultPlan::from_env().map_err(|e| Error::FaultPlan(e.0))?;
    if let Some(plan) = fault {
        eprintln!("fault plan armed from SWQUAKE_FAULT_PLAN: {} event(s)", plan.events().len());
        cfg = cfg.with_fault_plan(Some(Arc::new(plan)));
    }
    // `--obs` arms the run timeline: per-rank per-phase spans, streamed
    // heartbeats in <dir>/run.jsonl, final report in <dir>/timeline.json.
    let timeline = match &outputs.obs {
        Some(dir) => {
            let stride = outputs.obs_stride.unwrap_or(DEFAULT_HEARTBEAT_STRIDE);
            let rec = TimelineRecorder::new()
                .with_total_steps(cfg.steps as u64)
                .with_stream(std::path::Path::new(dir), stride)
                .map_err(|e| Error::Io { path: dir.clone(), source: e })?;
            Some(Arc::new(rec))
        }
        None => None,
    };
    if let Some(tl) = &timeline {
        cfg = cfg.with_timeline(Arc::clone(tl));
    }
    // Resolve the mode against the pool width the run will use.
    swquake::core::exec::configure_threads(cfg.threads);
    println!(
        "mesh {} at dx = {} m, {} steps, model {}, nonlinear {}, compression {}, exec {} \
         (path {}), lanes {}{}",
        cfg.dims,
        cfg.dx,
        cfg.steps,
        scenario.model,
        scenario.nonlinear,
        scenario.compression,
        cfg.exec,
        cfg.exec.resolve_path(cfg.dims.len()),
        swquake::grid::simd::LaneTier::active(),
        if cfg.resident == ResidentMode::Compressed16 { ", resident compressed16" } else { "" }
    );
    // Either path runs the one step schedule and hands the tail below
    // the same things. `--ranks MxN` runs it on halo-exchanged
    // subdomains and merges the observables back to global coordinates
    // (bit-identical to the single-rank run); without it the simulation
    // stays here, which is what the resident banner needs.
    let ranks = outputs.ranks.filter(|&(mx, my)| mx * my > 1);
    let t0 = std::time::Instant::now();
    let done = match ranks {
        Some((mx, my)) => {
            cfg = cfg.with_resume(outputs.resume);
            let out = run_multirank(model.as_ref(), &cfg, RankGrid::new(mx, my))?;
            Finished { health: format!("{} records", out.health.len()), out }
        }
        None => {
            let (mut sim, resume) = if outputs.resume {
                let (sim, info) = Simulation::resume(model.as_ref(), &cfg)?;
                (sim, Some(info))
            } else {
                (Simulation::new(model.as_ref(), &cfg)?, None)
            };
            if let (Some(stored), Some(slab)) =
                (sim.resident_stored_bytes(), sim.resident_working_set_bytes())
            {
                println!(
                    "resident compressed16: stores {stored} B, decode slab {slab} B{}",
                    match outputs.memory_cap {
                        Some(cap) => format!(" (cap {cap} B)"),
                        None => String::new(),
                    }
                );
            }
            sim.run_checked(cfg.steps.saturating_sub(sim.step_count as usize))?;
            if sim.state.has_blown_up() {
                // The watchdog missed it (probe stride too coarse for the
                // tail of the run) — diagnose post-hoc so the exit still
                // explains where the wavefield first went bad, as
                // `run_multirank` does from its ranks' end states.
                if let Some(e) = swquake::core::health::diagnose(&sim.state, sim.step_count, 0) {
                    return Err(Error::Unstable(e));
                }
            }
            let health = sim.health().expect("the watchdog is armed above");
            Finished {
                health: format!("{} probes, {} warnings", health.checks, health.warnings),
                out: MultiRankOutput {
                    seismograms: sim.seismo.seismograms().to_vec(),
                    pgv: sim.pgv.clone(),
                    flops: sim.flops.flops,
                    health: health.records,
                    dt: sim.state.dt,
                    resume,
                    ledger: sim.perf_ledger(),
                },
            }
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    if let Some(info) = &done.out.resume {
        for (skipped_step, reason) in &info.skipped {
            eprintln!("warning: skipped checkpoint generation at step {skipped_step}: {reason}");
        }
        println!(
            "resumed from checkpoint generation at step {} (t = {:.4} s)",
            info.step, info.time
        );
    }
    println!(
        "simulated {:.2} s in {wall:.1} s wall time ({:.2} Gflop/s sustained){}",
        cfg.steps as f64 * done.out.dt,
        done.out.flops / wall / 1e9,
        ranks.map_or(String::new(), |(mx, my)| format!(" on {mx}x{my} ranks"))
    );
    let files = swquake::outputs::write_result_files(
        &done.out.seismograms,
        &done.out.pgv,
        done.out.dt,
        &cfg,
        &scenario.output_prefix,
        &telemetry,
    )?;
    println!("wrote {} and {}", files.seismograms, files.hazard);
    println!("PGV max {:.3e} m/s, max intensity {:.1}", files.pgv_max, files.max_intensity);

    if let Some(metrics_path) = &outputs.metrics {
        std::fs::write(metrics_path, telemetry.report().to_json())
            .map_err(|e| Error::Io { path: metrics_path.to_string(), source: e })?;
        println!("wrote metrics to {metrics_path}");
    }
    if let Some(roofline_path) = &outputs.roofline {
        let report = swquake::core::roofline::attribute(
            cfg.dims,
            cfg.options.nonlinear,
            cfg.compression,
            &telemetry.report(),
        );
        std::fs::write(roofline_path, report.to_json())
            .map_err(|e| Error::Io { path: roofline_path.to_string(), source: e })?;
        print!("{}", report.text_table());
        println!("wrote roofline report to {roofline_path}");
    }
    write_trace(outputs, &telemetry)?;
    if let Some(health_path) = &outputs.health {
        println!("wrote health log to {health_path} ({})", done.health);
    }
    if let (Some(perf_path), Some(ledger)) = (&outputs.perf, &done.out.ledger) {
        let path = std::path::Path::new(perf_path);
        ledger.write_file(path).map_err(|e| Error::Io { path: perf_path.clone(), source: e })?;
        // Every instrumented run also lands one line in the durable
        // history next to the ledger, so trends survive overwrites.
        let history = path.with_file_name("perf_history.jsonl");
        swquake::io::jsonl::append_line(&history, &ledger.history_line("run"))
            .map_err(|e| Error::Io { path: history.display().to_string(), source: e })?;
        println!("wrote perf ledger to {perf_path} (history appended to {})", history.display());
    }
    finalize_timeline(outputs, timeline.as_ref())
}

/// What either way of executing a scenario hands the one tail of `run`:
/// the observables and the ledger (merged, for a rank grid) and the one
/// thing the two count differently.
struct Finished {
    out: MultiRankOutput,
    /// What the `--health` line counts.
    health: String,
}

/// Export the Chrome trace when `--trace` was given, warning first when
/// ring-buffer eviction dropped events — the `trace.dropped_events`
/// counter alone is easy to miss, and a silently truncated trace reads
/// as a complete one.
#[allow(clippy::result_large_err)] // cold abort-path error; see Scenario::from_json
fn write_trace(outputs: &RunOutputs, telemetry: &Telemetry) -> Result<(), Error> {
    let Some(trace_path) = &outputs.trace else { return Ok(()) };
    let dropped = telemetry.tracer().dropped_events();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} trace event(s) were dropped by ring-buffer eviction; \
             the exported trace is incomplete"
        );
    }
    std::fs::write(trace_path, telemetry.tracer().to_chrome_json())
        .map_err(|e| Error::Io { path: trace_path.to_string(), source: e })?;
    println!("wrote trace to {trace_path} (open in Perfetto or chrome://tracing)");
    Ok(())
}

/// Finalize the `--obs` timeline: emit the closing heartbeat, write
/// `<dir>/timeline.json`, and print the per-phase imbalance table.
#[allow(clippy::result_large_err)] // cold abort-path error; see Scenario::from_json
fn finalize_timeline(
    outputs: &RunOutputs,
    timeline: Option<&Arc<TimelineRecorder>>,
) -> Result<(), Error> {
    let (Some(dir), Some(tl)) = (&outputs.obs, timeline) else { return Ok(()) };
    let report = tl.finish();
    let path = std::path::Path::new(dir).join(TIMELINE_NAME);
    let text = serde_json::to_string(&report).expect("timeline serialization is infallible");
    std::fs::write(&path, text)
        .map_err(|e| Error::Io { path: path.display().to_string(), source: e })?;
    print!("{}", report.text_table());
    println!("wrote run timeline to {} (heartbeats in {dir}/{RUN_LOG_NAME})", path.display());
    Ok(())
}

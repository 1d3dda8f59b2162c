//! `swquake` — the command-line driver.
//!
//! Subcommands:
//!
//! * `run <scenario.json>` — run one earthquake scenario through the
//!   full solver and write seismograms (CSV), the PGV field, and a
//!   seismic-intensity hazard map (the bare legacy form
//!   `swquake <scenario.json>` still works). The flags fill in a
//!   [`swquake::run::RunPlan`]; executing it, and every file it leaves,
//!   is [`swquake::run::run_scenario`] — the function a campaign member
//!   runs through too;
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
//!   `run --obs` or a campaign member) as a per-phase imbalance table; `--max-skew <frac>`
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
//! the wavefield is probed (default 10).
//! `--checkpoint-dir <dir>` persists checkpoints durably (atomic files,
//! versioned manifest, keep-N retention; `--checkpoint-interval` and
//! `--checkpoint-keep` tune the cadence and retention) and `--resume`
//! restarts a killed run from the newest valid generation —
//! bit-identically, including the seismogram/hazard outputs.
//! `--ranks <MX>x<MY>` runs the scenario on an MX×MY rank grid (the
//! multirank runner: two blocking halo exchanges per step, merged
//! observables, bit-identical to single-rank). `--obs <dir>` makes
//! `<dir>` what a campaign member directory is — `metrics.json`,
//! `health.jsonl`, `perf.json` and the per-rank, per-phase
//! `timeline.json` that feeds `swquake imbalance-report` (a path given to
//! `--metrics`/`--health`/`--perf` moves that one file) — and streams
//! heartbeat lines to `<dir>/run.jsonl` every `--obs-stride` steps
//! (default 10). The `SWQUAKE_FAULT_PLAN` environment variable arms the
//! deterministic crash drills (`seed=N;kill@STEP`, `torn@STEP:frac=F`,
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

use std::path::PathBuf;
use swquake::campaign::CampaignRunOptions;
use swquake::core::ResidentMode;
use swquake::run::{
    fault_plan_from_env, run_scenario, Artifacts, Checkpoints, Material, Resume, RunPlan,
};
use swquake::telemetry::bench::{compare, BenchReport};
use swquake::telemetry::perf::PerfLedger;
use swquake::telemetry::timeline::{TimelineReport, DEFAULT_HEARTBEAT_STRIDE, RUN_LOG_NAME};
use swquake::{Error, Scenario};

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
                               full; compressed16 keeps wavefields 16-bit
                               and streams tiles through a capped f32
                               slab — rejects compression scenarios,
                               snapshots and --ranks)
  --memory-cap <bytes>         byte budget for the compressed16 decode
                               slab (suffixes k/m/g; default: an 8-column
                               tile)
  --health <out.jsonl>         stream the simulation-health log
  --health-stride <n>          wavefield probe cadence (default 10)
  --checkpoint-dir <dir>       durable checkpoint store (without one no
                               checkpoint is cut)
  --checkpoint-interval <n>    checkpoint every n steps (default: the
                               scenario's checkpoint_interval, else 10)
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
  --obs <dir>                  observe the run into <dir>, laid out as a
                               campaign member: metrics.json, health.jsonl,
                               perf.json, the per-rank per-phase
                               timeline.json (for `imbalance-report`), plus
                               heartbeat lines streamed to run.jsonl
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

Render a run timeline (`swquake run --obs <dir>` and every campaign
member write one) as a per-phase load-imbalance table: per-rank wall time, skew
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
        plan: RunPlan,
        /// `--perf` was given: the ledger also lands one line in the
        /// history file beside it.
        perf_history: bool,
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

/// The `run` flags that only mean something together; every other flag
/// fills in its [`RunPlan`] field directly.
#[derive(Default)]
struct StoreAndObs {
    checkpoint_dir: Option<PathBuf>,
    checkpoint_interval: Option<u64>,
    checkpoint_keep: Option<usize>,
    resume: bool,
    obs: Option<PathBuf>,
    obs_stride: Option<u64>,
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
fn file_arg<T: From<String>>(flag: &str, args: &mut std::slice::Iter<'_, String>) -> Option<T> {
    value(flag, args, "a path", |v| Some(v.to_string().into()))
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

/// The line of [`GENERAL_USAGE`] that names `subcommand`, as a usage text
/// of its own: what a usage error prints under its reason.
fn usage_of(subcommand: &str) -> String {
    let line = GENERAL_USAGE.lines().find(|l| l.contains(subcommand)).unwrap_or(GENERAL_USAGE);
    format!("usage: {}", line.trim_start_matches("usage:").trim_start())
}

/// `Err` is the usage text to print; the reason is already on stderr.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let rest = args.get(1..).unwrap_or_default();
    let (subcommand, parsed) = match args.first().map(String::as_str) {
        None => return Err(GENERAL_USAGE.to_string()),
        Some("--help") | Some("-h") => return Ok(Command::Help(GENERAL_USAGE)),
        // One command under two names.
        Some("bench-diff") => ("bench-diff", parse_diff("bench-diff", BENCH_DIFF_HELP, rest)),
        Some("perf-diff") => ("perf-diff", parse_diff("perf-diff", PERF_DIFF_HELP, rest)),
        Some("perf-report") => (
            "perf-report",
            parse_report(rest, PERF_REPORT_HELP, "--min-fraction", 1, |mut paths, min| {
                Command::PerfReport { path: paths.remove(0), min_fraction: min.unwrap_or(0.0) }
            }),
        ),
        Some("imbalance-report") => (
            "imbalance-report",
            parse_report(rest, IMBALANCE_REPORT_HELP, "--max-skew", 1, |mut paths, skew| {
                Command::ImbalanceReport { path: paths.remove(0), max_skew: skew }
            }),
        ),
        Some("campaign") => ("campaign", parse_campaign(rest)),
        // Optional `run` subcommand before the scenario path.
        Some("run") => ("[run]", parse_run(rest)),
        Some(_) => ("[run]", parse_run(args)),
    };
    parsed.ok_or_else(|| usage_of(subcommand))
}

/// Name an unknown flag on stderr; the caller's `None` prints the usage.
fn unknown_flag<T>(flag: &str) -> Option<T> {
    eprintln!("unknown flag '{flag}'");
    None
}

/// Exactly `n` positional arguments (`what` they are, for the message), or
/// the missing or stray one named on stderr.
fn positionals(found: Vec<String>, n: usize, what: &str) -> Option<Vec<String>> {
    if let Some(stray) = found.get(n) {
        eprintln!("unexpected argument '{stray}'");
        return None;
    }
    if found.len() < n {
        eprintln!("missing {what}");
        return None;
    }
    Some(found)
}

fn parse_run(args: &[String]) -> Option<Command> {
    let mut positional: Vec<String> = Vec::new();
    let mut plan = RunPlan { announce: true, ..RunPlan::default() };
    let mut late = StoreAndObs::default();
    let mut write_example = false;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--help" | "-h" => return Some(Command::Help(RUN_HELP)),
            "--write-example" => write_example = true,
            "--metrics" => plan.artifacts.metrics = Some(file_arg(a, &mut iter)?),
            "--trace" => plan.artifacts.trace = Some(file_arg(a, &mut iter)?),
            "--roofline" => plan.artifacts.roofline = Some(file_arg(a, &mut iter)?),
            "--health" => plan.artifacts.health = Some(file_arg(a, &mut iter)?),
            "--perf" => plan.artifacts.perf = Some(file_arg(a, &mut iter)?),
            "--exec" => plan.exec = Some(parsed(a, &mut iter, EXEC_MODES)?),
            "--threads" => plan.threads = Some(parsed(a, &mut iter, "a thread count")?),
            "--resident" => plan.resident = Some(parsed(a, &mut iter, "full or compressed16")?),
            "--memory-cap" => {
                let expects = "a byte count, optionally with a k, m or g suffix";
                plan.memory_cap = Some(value(a, &mut iter, expects, parse_bytes)?)
            }
            "--health-stride" => {
                plan.health_stride = Some(parsed(a, &mut iter, "a number of steps")?)
            }
            "--ranks" => {
                let expects = "<MX>x<MY>, both at least 1";
                plan.ranks = Some(value(a, &mut iter, expects, parse_rank_grid)?)
            }
            "--checkpoint-dir" => late.checkpoint_dir = Some(file_arg(a, &mut iter)?),
            "--checkpoint-interval" => {
                late.checkpoint_interval = Some(parsed(a, &mut iter, "a number of steps")?)
            }
            "--checkpoint-keep" => {
                late.checkpoint_keep = Some(parsed(a, &mut iter, "a number of generations")?)
            }
            "--resume" => late.resume = true,
            "--obs" => late.obs = Some(file_arg(a, &mut iter)?),
            "--obs-stride" => late.obs_stride = Some(parsed(a, &mut iter, "a number of steps")?),
            flag if flag.starts_with("--") => return unknown_flag(flag),
            other => positional.push(other.to_string()),
        }
    }
    // Flag pairs that cannot work together, and flags that would silently
    // do nothing alone, are usage errors; say which and why before the
    // usage text.
    let ranked = plan.ranks.is_some_and(|(mx, my)| mx * my > 1);
    let store = late.checkpoint_dir.is_some();
    let clash = if late.resume && !store {
        Some("--resume needs --checkpoint-dir: there is no store to resume from")
    } else if late.checkpoint_interval.is_some() && !store {
        Some("--checkpoint-interval needs --checkpoint-dir: without a store no checkpoint is cut")
    } else if late.checkpoint_keep.is_some() && !store {
        Some("--checkpoint-keep needs --checkpoint-dir: there is no store to retain anything in")
    } else if late.obs_stride.is_some() && late.obs.is_none() {
        Some("--obs-stride needs --obs: there is no heartbeat stream to pace")
    } else if ranked && plan.resident == Some(ResidentMode::Compressed16) {
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
    let scenario = positionals(positional, 1, "<scenario.json>")?.remove(0);
    plan.checkpoints = late.checkpoint_dir.map(|dir| Checkpoints {
        dir,
        interval: late.checkpoint_interval,
        keep: late.checkpoint_keep,
    });
    plan.resume = if late.resume { Resume::Required } else { Resume::Fresh };
    // `--obs <dir>` is the member layout under <dir> plus the heartbeat
    // stream; a path given by its own flag wins.
    let perf_history = plan.artifacts.perf.is_some();
    if let Some(dir) = late.obs {
        let member = Artifacts::member(&dir, true);
        let art = &mut plan.artifacts;
        art.metrics = art.metrics.take().or(member.metrics);
        art.health = art.health.take().or(member.health);
        art.perf = art.perf.take().or(member.perf);
        art.timeline = member.timeline;
        art.heartbeat_stride = Some(late.obs_stride.unwrap_or(DEFAULT_HEARTBEAT_STRIDE));
    }
    Some(Command::Run { scenario, plan, perf_history })
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
            "--exec" => opts.member.exec = Some(parsed(a, &mut iter, EXEC_MODES)?),
            "--threads" => opts.member.threads = Some(parsed(a, &mut iter, "a thread count")?),
            "--perf" => opts.perf = true,
            flag if flag.starts_with("--") => return unknown_flag(flag),
            other => positional.push(other.to_string()),
        }
    }
    let path = positionals(positional, 1, "<campaign.json>")?.remove(0);
    Some(Command::Campaign { path, opts })
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
            other if other.starts_with("--") => return unknown_flag(other),
            other => positional.push(other.to_string()),
        }
    }
    let what = if paths == 1 { "the report file" } else { "<old.json> <new.json>" };
    Some(build(positionals(positional, paths, what)?, fraction))
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
        Err(usage) => {
            eprintln!("{usage}");
            2
        }
        Ok(Command::Help(text)) => {
            println!("{text}");
            0
        }
        Ok(Command::WriteExample(path)) => {
            std::fs::write(&path, Scenario::example().to_json()).expect("write example scenario");
            println!("wrote example scenario to {path}");
            0
        }
        Ok(Command::Run { scenario, plan, perf_history }) => {
            match run(&scenario, plan, perf_history) {
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
            }
        }
        Ok(Command::Campaign { path, opts }) => campaign(&path, &opts),
        Ok(Command::Diff { tool, old, new, tolerance }) => diff(tool, &old, &new, tolerance),
        Ok(Command::PerfReport { path, min_fraction }) => perf_report(&path, min_fraction),
        Ok(Command::ImbalanceReport { path, max_skew }) => imbalance_report(&path, max_skew),
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

/// Flags → [`RunPlan`] happened at parsing; this is file → scenario →
/// the one runner → print the [`swquake::run::RunSummary`].
#[allow(clippy::result_large_err)] // cold abort-path error; see Scenario::from_json
fn run(path: &str, mut plan: RunPlan, perf_history: bool) -> Result<(), Error> {
    swquake::core::exec::check_env()?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Io { path: path.to_string(), source: e })?;
    let (scenario, version) = Scenario::from_json_versioned(&text)?;
    version.warn_if_deprecated(path);
    plan.prefix = scenario.output_prefix.clone();
    plan.fault = fault_plan_from_env()?;
    let model = scenario.build_model();
    let done = run_scenario(
        &scenario,
        Material { model: model.as_ref(), state: None, sources: None },
        &plan,
    )?;

    if let Some(info) = &done.merged.resume {
        println!(
            "resumed from checkpoint generation at step {} (t = {:.4} s)",
            info.step, info.time
        );
    }
    println!(
        "simulated {:.2} s in {:.1} s wall time ({:.2} Gflop/s sustained){}",
        done.steps as f64 * done.merged.dt,
        done.wall_s,
        done.merged.flops / done.wall_s / 1e9,
        match plan.ranks {
            Some((mx, my)) if mx * my > 1 => format!(" on {mx}x{my} ranks"),
            _ => String::new(),
        }
    );
    println!("wrote {} and {}", done.files.seismograms, done.files.hazard);
    println!(
        "PGV max {:.3e} m/s, max intensity {:.1}",
        done.files.pgv_max, done.files.max_intensity
    );
    let art = &plan.artifacts;
    if let Some(metrics) = &art.metrics {
        println!("wrote metrics to {}", metrics.display());
    }
    if let (Some(roofline), Some(report)) = (&art.roofline, &done.roofline) {
        print!("{}", report.text_table());
        println!("wrote roofline report to {}", roofline.display());
    }
    if let Some(trace) = &art.trace {
        println!("wrote trace to {} (open in Perfetto or chrome://tracing)", trace.display());
    }
    if let Some(health) = &art.health {
        println!(
            "wrote health log to {} ({} probes, {} warnings)",
            health.display(),
            done.merged.probes,
            done.merged.warnings
        );
    }
    if let (Some(perf), Some(ledger)) = (&art.perf, &done.merged.ledger) {
        print!("wrote perf ledger to {}", perf.display());
        if perf_history {
            // A ledger asked for by name also lands one line in the
            // durable history next to it, so trends survive overwrites.
            let history = perf.with_file_name("perf_history.jsonl");
            swquake::io::jsonl::append_line(&history, &ledger.history_line("run"))
                .map_err(|e| Error::Io { path: history.display().to_string(), source: e })?;
            print!(" (history appended to {})", history.display());
        }
        println!();
    }
    if let (Some(dir), Some(report)) = (&art.timeline, &done.timeline) {
        print!("{}", report.text_table());
        println!(
            "wrote run timeline to {} (heartbeats in {})",
            dir.join(swquake::telemetry::timeline::TIMELINE_NAME).display(),
            dir.join(RUN_LOG_NAME).display()
        );
    }
    Ok(())
}

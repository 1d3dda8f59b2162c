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
//! * `inspect <bundle | campaign-dir | file>` — the one reader of what an
//!   observed run leaves: the per-kernel perf ledger (`perf.json`) and the
//!   per-rank, per-phase timeline (`timeline.json`) of a `run --obs`
//!   bundle, of every done member of a campaign directory, or of one such
//!   file, rendered as tables. `--min-fraction <f>` exits 1 when a modeled
//!   kernel runs below that fraction of its SW26010 roofline, `--max-skew
//!   <f>` when a phase's skew `(max − min) / mean` across ranks exceeds
//!   it. `inspect --diff <old> <new>` is the regression gate over two perf
//!   ledgers or `BENCH_<name>.json` reports, failing past `--tolerance`
//!   (default 0.1);
//! * `--write-example [path]` — emit a commented scenario template.
//!
//! Every subcommand answers `--help`. For `run`, `--obs <dir>` is the one
//! switch that observes a run: `<dir>` becomes the bundle a campaign
//! member directory also is — `metrics.json` (telemetry from every
//! subsystem: step phases, compression codecs, modeled SW26010 hardware
//! charges, I/O), `health.jsonl`, `perf.json`, `timeline.json`, the Chrome
//! trace `trace.json` (open it in Perfetto / `chrome://tracing`) and the
//! heartbeat stream `run.jsonl`, one line every `--health-stride` steps.
//! `--metrics <file>` and `--health <file>` write those two files alone,
//! or move them out of the bundle. `--exec serial|parallel|auto` picks
//! who walks the x-planes of each kernel (the calling thread or the
//! bit-identical Rayon CPE-pool analogue; `simd` is accepted as an alias
//! of `parallel`) and `--threads <n>` pins the worker-pool width. The
//! watchdog probes the wavefield every `--health-stride <n>` steps
//! (default 10). `--checkpoint-dir <dir>` persists checkpoints durably
//! (atomic files, versioned manifest, keep-N retention;
//! `--checkpoint-interval` and `--checkpoint-keep` tune the cadence and
//! retention) and `--resume` restarts a killed run from the newest valid
//! generation — bit-identically, including the seismogram/hazard
//! outputs. `--ranks <MX>x<MY>` runs the scenario on an MX×MY rank grid
//! (the multirank runner: two blocking halo exchanges per step, merged
//! observables, bit-identical to single-rank). The `SWQUAKE_FAULT_PLAN`
//! environment variable arms the deterministic crash drills
//! (`seed=N;kill@STEP`, `torn@STEP:frac=F`, `slow@STEP:rank=R:frac=F`,
//! ... — see `swquake::fault`).
//!
//! ```text
//! swquake --write-example scenario.json           # emit a commented template
//! swquake scenario.json                           # run it (legacy form)
//! swquake run scenario.json --metrics out.json    # run + telemetry report
//! swquake run scenario.json --obs obs             # run + the whole bundle
//! swquake run scenario.json --exec parallel --threads 8
//! swquake run scenario.json --health health.jsonl --health-stride 5
//! swquake run scenario.json --checkpoint-dir ckpt --checkpoint-interval 25
//! swquake run scenario.json --checkpoint-dir ckpt --resume
//! swquake campaign campaign.json --jobs 2         # batch scenarios
//! swquake campaign campaign.json --resume         # pick up after a crash
//! swquake inspect obs --min-fraction 0.1          # ledger + timeline tables
//! swquake inspect campaign_dir                    # every done member
//! swquake run scenario.json --ranks 2x2 --obs obs  # multirank + timeline
//! swquake inspect obs/timeline.json --max-skew 0.25
//! swquake inspect --diff old.json new.json --tolerance 0.15
//! ```
//!
//! Exit codes: 0 on success, 1 when the solver goes unstable, a
//! campaign completes with unstable scenarios, `inspect --diff` finds a
//! regression, or `inspect` flags a kernel below `--min-fraction` or a
//! phase over `--max-skew`, 2 for any usage, parse, or configuration
//! error (including unknown flags, unusable checkpoint stores, files
//! `inspect` cannot read, and unit-mismatched bench records), 3 when a
//! campaign completes with failed scenarios (failures dominate
//! instabilities), and 137 when an injected fault kills the run
//! (mirroring a SIGKILLed process). All solver failures flow through
//! [`swquake::Error`] and are mapped to a code in one place, here.

use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use sw_campaign::{CampaignManifest, ScenarioState, MANIFEST_NAME};
use swquake::campaign::CampaignRunOptions;
use swquake::core::ResidentMode;
use swquake::run::{
    fault_plan_from_env, run_scenario, Artifacts, Checkpoints, Material, Resume, RunPlan,
    LEDGER_NAME,
};
use swquake::telemetry::bench::{compare, BenchReport};
use swquake::telemetry::perf::PerfLedger;
use swquake::telemetry::timeline::{TimelineReport, TIMELINE_NAME};
use swquake::{Error, Scenario};

const GENERAL_USAGE: &str = "\
usage: swquake [run] <scenario.json> [run flags]
       swquake campaign <campaign.json> [campaign flags]
       swquake inspect <bundle|campaign-dir|file> [--min-fraction <frac>] [--max-skew <frac>]
       swquake inspect --diff <old> <new> [--tolerance <frac>]
       swquake --write-example [path]
       swquake <subcommand> --help";

const RUN_HELP: &str = "\
usage: swquake run <scenario.json> [flags]

Run one earthquake scenario and write seismograms (CSV), the PGV field,
and a seismic-intensity hazard map. The bare form
`swquake <scenario.json>` is equivalent.

flags:
  --obs <dir>                  observe the run into the bundle <dir>, laid
                               out as a campaign member: metrics.json,
                               health.jsonl, perf.json (per-kernel ledger),
                               timeline.json (per-rank per-phase), trace.json
                               (Chrome trace) and run.jsonl (a heartbeat
                               every --health-stride steps); read it with
                               `swquake inspect <dir>`
  --metrics <out.json>         telemetry report (stable JSON schema)
  --health <out.jsonl>         stream the simulation-health log
  --health-stride <n>          wavefield probe and heartbeat cadence
                               (default 10)
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
  --checkpoint-dir <dir>       durable checkpoint store (without one no
                               checkpoint is cut)
  --checkpoint-interval <n>    checkpoint every n >= 1 steps (default: the
                               scenario's checkpoint_interval, else 10)
  --checkpoint-keep <n>        generations to retain (>= 1)
  --resume                     restart from the newest valid checkpoint
  --ranks <MX>x<MY>            run on an MX x MY rank grid (multirank
                               halo exchange; observables are merged and
                               bit-identical to the single-rank run)";

const CAMPAIGN_HELP: &str = "\
usage: swquake campaign <campaign.json> [flags]

Batch many scenarios through one resident solver process. The campaign
file queues scenario descriptions ({\"scenarios\": [{\"id\": ...,
\"scenario\": {...}}, ...]}); expensive setup artifacts (earth model,
material state, source lists) are shared across scenarios through a
content-hash cache, and a durable MANIFEST.json records per-scenario
state so an interrupted campaign resumes where it stopped. Results
stream to campaign.jsonl as each scenario finishes; summary.json (the
campaign's state: tallies, artifact-cache traffic, each scenario's
standing) and per-scenario directories land next to the manifest. Each
scenario directory is a bundle, as `swquake run --obs` writes one, plus
its results; `swquake inspect <dir>` is the campaign's roll-up: it
renders every done member's ledger and timeline, after a --resume too.

flags:
  --dir <dir>                  campaign directory (default <name>_campaign)
  --jobs <n>                   scenarios in flight at once
                               (default: the file's max_concurrent, or 1)
  --resume                     skip done scenarios, resume the interrupted one
  --fail-fast                  abort on the first failed/unstable scenario
  --exec serial|parallel|auto  who walks each kernel's x-planes, for every
                               scenario (simd is an alias of parallel)
  --threads <n>                worker-pool width for pool-based modes

exit codes: 0 all scenarios done; 1 completed with unstable scenarios;
3 completed with failed scenarios; 2 usage/spec errors; 137 when an
injected fault kills a scenario (the campaign aborts, resumable).";

const INSPECT_HELP: &str = "\
usage: swquake inspect <bundle|campaign-dir|file> [--min-fraction <frac>] [--max-skew <frac>]
       swquake inspect --diff <old> <new> [--tolerance <frac>]

Read what an observed run leaves. Given a bundle (`swquake run --obs
<dir>`), render its per-kernel perf ledger (perf.json: wall time,
cells/s, GFLOP/s, GB/s and the achieved fraction of the modeled SW26010
roofline, under a header naming the host, the exec path and the lane
tier) and its timeline (timeline.json: per-rank wall time per phase,
skew (max - min) / mean, each phase's critical rank, the run's
critical-path rank, the halo-wait fraction and the per-field resident
memory). Given a campaign directory, do so for every done member; given
one of the two files, render it alone.

  --min-fraction <frac>  exit 1 when a modeled kernel is below this
                         fraction of its roofline (default 0: never)
  --max-skew <frac>      exit 1 when a phase's skew exceeds this floor,
                         naming the phase and its critical rank

--diff compares two perf ledgers or BENCH_<name>.json reports (either
side may be either) and exits 1 when
a record slowed down past --tolerance (default 0.1; a record's own
`tolerance` field overrides it) or went missing. Records stamped with
different hosts are skipped rather than compared.

Every fraction is a finite number >= 0. Exit 2 when a file cannot be
read or parsed (the path is named; the other files still render), when
a directory holds nothing to read, or when bench records disagree on
(or omit) their throughput unit.";

// One value, built once at startup and consumed immediately — the
// size skew between variants never multiplies.
#[allow(clippy::large_enum_variant)]
enum Command {
    Help(&'static str),
    WriteExample(String),
    Run { scenario: String, plan: RunPlan },
    Campaign { path: String, opts: CampaignRunOptions },
    Inspect { path: String, min_fraction: f64, max_skew: Option<f64> },
    Diff { old: String, new: String, tolerance: f64 },
}

/// The `run` flags that only mean something together; every other flag
/// fills in its [`RunPlan`] field directly.
#[derive(Default)]
struct StoreFlags {
    checkpoint_dir: Option<PathBuf>,
    // Not 0, which would mean "never" or be raised to 1, depending on the flag.
    checkpoint_interval: Option<NonZeroU64>,
    checkpoint_keep: Option<NonZeroUsize>,
    resume: bool,
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

/// [`value`] for a fraction: a finite number ≥ 0. `nan` would pass every
/// gate (`x > NaN` is false) and `inf` would never trip one.
fn fraction(flag: &str, args: &mut std::slice::Iter<'_, String>) -> Option<f64> {
    value(flag, args, "a fraction: a finite number >= 0", |v| {
        v.parse::<f64>().ok().filter(|f| f.is_finite() && *f >= 0.0)
    })
}

const EXEC_MODES: &str = "serial, parallel, simd or auto";

/// The lines of [`GENERAL_USAGE`] that name `subcommand`, as a usage text
/// of their own: what a usage error prints under its reason.
fn usage_of(subcommand: &str) -> String {
    let own = format!("swquake {subcommand} ");
    let lines: Vec<&str> = GENERAL_USAGE
        .lines()
        .filter(|l| l.contains(&own))
        .map(|l| l.trim_start_matches("usage:").trim_start())
        .collect();
    format!("usage: {}", lines.join("\n       "))
}

/// `Err` is the usage text to print; the reason is already on stderr.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let rest = args.get(1..).unwrap_or_default();
    let (subcommand, parsed) = match args.first().map(String::as_str) {
        None => return Err(GENERAL_USAGE.to_string()),
        Some("--help") | Some("-h") => return Ok(Command::Help(GENERAL_USAGE)),
        Some("inspect") => ("inspect", parse_inspect(rest)),
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
    let mut store = StoreFlags::default();
    let mut obs: Option<PathBuf> = None;
    let mut write_example = false;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--help" | "-h" => return Some(Command::Help(RUN_HELP)),
            "--write-example" => write_example = true,
            "--obs" => obs = Some(file_arg(a, &mut iter)?),
            "--metrics" => plan.artifacts.metrics = Some(file_arg(a, &mut iter)?),
            "--health" => plan.artifacts.health = Some(file_arg(a, &mut iter)?),
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
            "--checkpoint-dir" => store.checkpoint_dir = Some(file_arg(a, &mut iter)?),
            "--checkpoint-interval" => {
                store.checkpoint_interval = Some(parsed(a, &mut iter, "at least 1 step")?)
            }
            "--checkpoint-keep" => {
                store.checkpoint_keep = Some(parsed(a, &mut iter, "at least 1 generation")?)
            }
            "--resume" => store.resume = true,
            flag if flag.starts_with("--") => return unknown_flag(flag),
            other => positional.push(other.to_string()),
        }
    }
    // Flag pairs that cannot work together, and flags that would silently
    // do nothing alone, are usage errors; say which and why before the
    // usage text.
    let ranked = plan.ranks.is_some_and(|(mx, my)| mx * my > 1);
    let has_store = store.checkpoint_dir.is_some();
    let clash = if store.resume && !has_store {
        Some("--resume needs --checkpoint-dir: there is no store to resume from")
    } else if store.checkpoint_interval.is_some() && !has_store {
        Some("--checkpoint-interval needs --checkpoint-dir: without a store no checkpoint is cut")
    } else if store.checkpoint_keep.is_some() && !has_store {
        Some("--checkpoint-keep needs --checkpoint-dir: there is no store to retain anything in")
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
    plan.checkpoints = store.checkpoint_dir.map(|dir| Checkpoints {
        dir,
        interval: store.checkpoint_interval.map(NonZeroU64::get),
        keep: store.checkpoint_keep.map(NonZeroUsize::get),
    });
    plan.resume = if store.resume { Resume::Required } else { Resume::Fresh };
    // `--obs <dir>` is the bundle under <dir>; a path given by its own
    // flag moves that one file out of it.
    if let Some(dir) = obs {
        let bundle = Artifacts::bundle(&dir);
        let art = &mut plan.artifacts;
        art.metrics = art.metrics.take().or(bundle.metrics);
        art.health = art.health.take().or(bundle.health);
        art.bundle = bundle.bundle;
    }
    Some(Command::Run { scenario, plan })
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
            flag if flag.starts_with("--") => return unknown_flag(flag),
            other => positional.push(other.to_string()),
        }
    }
    let path = positionals(positional, 1, "<campaign.json>")?.remove(0);
    Some(Command::Campaign { path, opts })
}

fn parse_inspect(args: &[String]) -> Option<Command> {
    let mut positional: Vec<String> = Vec::new();
    let mut diff = false;
    let (mut min_fraction, mut max_skew, mut tolerance) = (None, None, None);
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--help" | "-h" => return Some(Command::Help(INSPECT_HELP)),
            "--diff" => diff = true,
            "--min-fraction" => min_fraction = Some(fraction(a, &mut iter)?),
            "--max-skew" => max_skew = Some(fraction(a, &mut iter)?),
            "--tolerance" => tolerance = Some(fraction(a, &mut iter)?),
            flag if flag.starts_with("--") => return unknown_flag(flag),
            other => positional.push(other.to_string()),
        }
    }
    // A gate flag of the other form would silently do nothing.
    let misplaced = if diff {
        [("--min-fraction", min_fraction.is_some()), ("--max-skew", max_skew.is_some())]
            .into_iter()
            .find_map(|(flag, given)| given.then_some(flag))
    } else {
        tolerance.is_some().then_some("--tolerance")
    };
    if let Some(flag) = misplaced {
        let form = if diff { "without --diff" } else { "with --diff" };
        eprintln!("{flag} only gates `inspect` {form}");
        return None;
    }
    if diff {
        let mut paths = positionals(positional, 2, "<old> <new>")?;
        let new = paths.remove(1);
        return Some(Command::Diff {
            old: paths.remove(0),
            new,
            tolerance: tolerance.unwrap_or(0.1),
        });
    }
    let path = positionals(positional, 1, "<bundle|campaign-dir|file>")?.remove(0);
    Some(Command::Inspect { path, min_fraction: min_fraction.unwrap_or(0.0), max_skew })
}

/// Every error's exit code, in one place.
fn exit_code(e: &Error) -> i32 {
    match e {
        Error::Unstable(_) => 1,
        // Same code a SIGKILLed process reports (128 + 9): the crash
        // drills in CI assert on it.
        Error::Killed(_) => 137,
        _ => 2,
    }
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
            match std::fs::write(&path, Scenario::example().to_json()) {
                Ok(()) => {
                    println!("wrote example scenario to {path}");
                    0
                }
                Err(source) => {
                    let e = Error::Io { path, source };
                    eprintln!("{e}");
                    exit_code(&e)
                }
            }
        }
        Ok(Command::Run { scenario, plan }) => match run(&scenario, plan) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("{e}");
                exit_code(&e)
            }
        },
        Ok(Command::Campaign { path, opts }) => campaign(&path, &opts),
        Ok(Command::Inspect { path, min_fraction, max_skew }) => {
            inspect(Path::new(&path), min_fraction, max_skew)
        }
        Ok(Command::Diff { old, new, tolerance }) => diff(&old, &new, tolerance),
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

/// What `inspect` renders: a perf ledger or a run timeline.
enum Observed {
    Ledger(PerfLedger),
    Timeline(TimelineReport),
}

/// Read `path` as whichever of the two it is; every failure names the
/// path.
fn load_observed(path: &Path) -> Result<Observed, String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {shown}: {e}"))?;
    let parse_error = |e: serde_json::Error| format!("cannot parse {shown}: {e}");
    let probe: serde_json::Value = serde_json::from_str(&text).map_err(parse_error)?;
    if probe.get("kernels").is_some() {
        serde_json::from_value(probe).map(Observed::Ledger).map_err(parse_error)
    } else if probe.get("phases").is_some() {
        serde_json::from_value(probe).map(Observed::Timeline).map_err(parse_error)
    } else {
        Err(format!(
            "{shown} is neither a perf ledger nor a run timeline (no `kernels` or `phases`)"
        ))
    }
}

/// The files `inspect` reads under `path`: the path itself unless it is
/// a directory; a bundle's ledger and timeline; those of every done
/// member of a campaign directory (its `MANIFEST.json` names them).
fn inspected_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    let bundle = |dir: &Path| [dir.join(LEDGER_NAME), dir.join(TIMELINE_NAME)];
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let manifest = path.join(MANIFEST_NAME);
    if !manifest.exists() {
        let files = bundle(path);
        return if files.iter().any(|f| f.exists()) {
            Ok(files.to_vec())
        } else {
            Err(format!(
                "{}: no {LEDGER_NAME}, {TIMELINE_NAME} or {MANIFEST_NAME} to read",
                path.display()
            ))
        };
    }
    let shown = manifest.display();
    let text =
        std::fs::read_to_string(&manifest).map_err(|e| format!("cannot read {shown}: {e}"))?;
    let campaign: CampaignManifest =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {shown}: {e}"))?;
    let mut files = Vec::new();
    for member in &campaign.scenarios {
        if member.state == ScenarioState::Done {
            files.extend(bundle(&path.join(&member.id)));
        } else {
            println!("member `{}`: {} (nothing to read)", member.id, member.state);
        }
    }
    Ok(files)
}

/// Render every file under `path` ([`inspected_files`]). Exit 2 when any
/// cannot be read — the rest still render — else 1 when a kernel is below
/// `min_fraction` of its roofline or a phase's skew is over `max_skew`.
fn inspect(path: &Path, min_fraction: f64, max_skew: Option<f64>) -> i32 {
    let files = match inspected_files(path) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("inspect: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for file in &files {
        let verdict = match load_observed(file) {
            Err(e) => {
                eprintln!("inspect: {e}");
                2
            }
            Ok(observed) => {
                println!("== {}", file.display());
                match observed {
                    Observed::Ledger(ledger) => gate_ledger(&ledger, min_fraction),
                    Observed::Timeline(report) => gate_timeline(&report, max_skew),
                }
            }
        };
        code = code.max(verdict);
    }
    code
}

/// The ledger's table; 1 when a modeled kernel is below `min_fraction`.
fn gate_ledger(ledger: &PerfLedger, min_fraction: f64) -> i32 {
    print!("{}", ledger.text_table(min_fraction));
    i32::from(!ledger.below_fraction(min_fraction).is_empty())
}

/// The timeline's table; with a skew floor, 1 when a phase exceeds it.
fn gate_timeline(report: &TimelineReport, max_skew: Option<f64>) -> i32 {
    print!("{}", report.text_table());
    let Some(floor) = max_skew else { return 0 };
    let over = report.phases_over(floor);
    if over.is_empty() {
        println!("imbalance gate passed: no phase over skew {floor:.3}");
        return 0;
    }
    for p in &over {
        eprintln!(
            "imbalance: phase `{}` skew {:.3} exceeds {:.3} (critical rank {})",
            p.name, p.skew, floor, p.critical_rank
        );
    }
    eprintln!("critical-path rank: {}", report.critical_rank);
    1
}

/// The regression gate of `inspect --diff`: exit 0 on pass, 1 on
/// regression/missing, 2 when either file fails to load or parse or
/// records disagree on their units.
///
/// Each side is a bench report or a perf ledger — a ledger has a
/// top-level `kernels` array, a bench report `records` — and ledgers are
/// lowered to per-kernel bench records, so the two formats diff against
/// each other. The lowering drops the ledger's exec-path and lane-tier
/// stamps, so they are echoed per side here: a cross-mode or cross-tier
/// diff must say what it is comparing.
fn diff(old_path: &str, new_path: &str, tolerance: f64) -> i32 {
    let load = |path: &str, role: &str| -> Result<(BenchReport, Option<String>), String> {
        let shown = Path::new(path).display();
        let text = std::fs::read_to_string(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                format!(
                    "inspect: {role} not found: {shown}\n\
                     (run the benchmark first to produce it, or pass the right path)"
                )
            } else {
                format!("inspect: cannot read {role} {shown}: {e}")
            }
        })?;
        let parse_error =
            |e: serde_json::Error| format!("inspect: cannot parse {role} {shown}: {e}");
        let probe: serde_json::Value = serde_json::from_str(&text).map_err(parse_error)?;
        if probe.get("kernels").is_some() {
            let ledger: PerfLedger = serde_json::from_value(probe).map_err(parse_error)?;
            Ok((ledger.to_bench_report("perf"), ledger.stamps()))
        } else {
            serde_json::from_value(probe).map(|r| (r, None)).map_err(parse_error)
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

/// Flags → [`RunPlan`] happened at parsing; this is file → scenario →
/// the one runner → print the [`swquake::run::RunSummary`].
#[allow(clippy::result_large_err)] // cold abort-path error; see Scenario::from_json
fn run(path: &str, mut plan: RunPlan) -> Result<(), Error> {
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
    if let Some(health) = &art.health {
        println!(
            "wrote health log to {} ({} probes, {} warnings)",
            health.display(),
            done.merged.probes,
            done.merged.warnings
        );
    }
    if let Some(dir) = &art.bundle {
        println!("wrote bundle {} (read it with `swquake inspect {0}`)", dir.display());
    }
    Ok(())
}

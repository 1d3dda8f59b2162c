//! `bench_e2e` — run the repository benchmark.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   # one workload
//! bench_e2e --seed <n> --out results.json      # all four, end to end and traced
//! bench_e2e --compare parent.json change.json  # verdict per workload x metric
//! bench_e2e --host-clock 200                   # samples of the host clock
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use swq_bench_e2e::cli::{self, Paths};
use swq_bench_e2e::compare;
use swq_bench_e2e::hostclock::{self, HostClock, REFERENCE_S};
use swq_bench_e2e::measure::{E2eRun, Prepared, WorkloadResult};
use swq_bench_e2e::metrics;
use swq_bench_e2e::traced::{self, TraceOutput};
use swq_bench_e2e::workloads::{self, Spec};
use swq_bench_e2e::{default_threads, nproc};

const USAGE: &str = "\
usage: bench_e2e [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]
                 [--out <results.json>] [--threads <n>] [--smoke] [--swquake <binary>]
       bench_e2e --compare <parent.json> <change.json>
       bench_e2e --host-clock <samples> [--threads <n>]

Without --workload every workload is measured (interleaved round-robin)
and then traced. --seconds is the measuring time per workload (default
30). --smoke shrinks every mesh and probe to exercise the pipeline in
seconds. --swquake uses an existing release binary instead of building
one. --host-clock prints samples of the clock the end-to-end times are
counted in (touch, stream, compute; seconds), to re-calibrate it on
another host. Run from the repository root.";

/// Fewest cycles a workload's medians may rest on.
const MIN_CYCLES: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    threads: usize,
    smoke: bool,
    swquake: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    host_clock: Option<usize>,
    host_clock_sample: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: None,
        out: None,
        threads: default_threads(),
        smoke: false,
        swquake: None,
        compare: None,
        host_clock: None,
        host_clock_sample: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if args.threads == 0 || args.threads > nproc() {
                    return Err(format!(
                        "--threads {} is outside 1..={} (this host's cores): oversubscribed \
                         timings are not comparable",
                        args.threads,
                        nproc()
                    ));
                }
            }
            "--smoke" => args.smoke = true,
            "--swquake" => args.swquake = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            hostclock::SAMPLE_FLAG => args.host_clock_sample = true,
            "--host-clock" => {
                args.host_clock = Some(value()?.parse().map_err(|e| format!("--host-clock: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn run_compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let bounds = compare::bounds_from(&read_json(Path::new("BENCHMARK.json"))?)?;
    let (table, pass) = compare::compare(&read_json(parent)?, &read_json(change)?, &bounds);
    print!("{table}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

/// Print `samples` samples of the host clock, part by part, and their
/// deciles.
fn run_host_clock(samples: usize, threads: usize) {
    let clock = HostClock::new(threads, false);
    let mut parts: [Vec<f64>; 4] = Default::default();
    for _ in 0..samples {
        let s = clock.sample();
        println!("{}", hostclock::sample_line(&s));
        for (v, x) in parts.iter_mut().zip([s.touch_s, s.stream_s, s.compute_s, s.total_s()]) {
            v.push(x);
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    for (what, v) in ["touch", "stream", "compute", "sample"].iter().zip(&parts) {
        println!(
            "{what:<8} p10 {:.6} s  median {:.6} s  p90 {:.6} s",
            swq_bench_e2e::stats::percentile(v, 10.0),
            swq_bench_e2e::stats::median(v),
            swq_bench_e2e::stats::percentile(v, 90.0)
        );
    }
    println!("REFERENCE_S is {REFERENCE_S} s; these were {threads} threads");
}

fn unit_of(defs: &[metrics::MetricDef], name: &str) -> &'static str {
    defs.iter().find(|d| d.name == name).map_or("", |d| d.unit)
}

fn print_e2e(result: &WorkloadResult) {
    let defs = metrics::end_to_end();
    for (name, samples) in &result.samples {
        let s = swq_bench_e2e::stats::Summary::of(samples);
        println!(
            "{:<22} {:<20} {:>12.4} {:<9} q1 {:.4} q3 {:.4} n {}",
            result.name,
            name,
            s.median,
            unit_of(&defs, name),
            s.q1,
            s.q3,
            s.n
        );
    }
    for (name, samples) in &result.raw {
        let s = swq_bench_e2e::stats::Summary::of(samples);
        println!(
            "{:<22} {:<20} {:>12.4} {:<9} q1 {:.4} q3 {:.4} (not a metric)",
            result.name, name, s.median, "s", s.q1, s.q3
        );
    }
    println!("{:<22} {:<20} {:>12.3e}", result.name, "seis_misfit", result.seis_misfit);
    println!(
        "{:<22} {:<20} {:>12.4} ({} of {} operations failed)",
        result.name,
        "failed_share",
        result.failed() as f64 / result.attempted.max(1) as f64,
        result.failed(),
        result.attempted
    );
    for f in &result.failures {
        println!("{:<22} FAILED: {f}", result.name);
    }
}

fn print_traced(name: &str, out: &TraceOutput) {
    let defs = metrics::per_layer();
    for (metric, value) in &out.metrics {
        println!("{name:<22} {metric:<36} {value:>14.6} {}", unit_of(&defs, metric));
    }
    for (layer, share) in &out.shares {
        println!("{name:<22} share of the step loop: {layer:<48} {:>5.1}%", share * 100.0);
    }
    let host = &out.host;
    println!(
        "{name:<22} host probe: triad over three {:.0} MiB arrays (L2 sum {:.0} MiB, last-level \
         cache {:.0} MiB){}",
        host.array_mib,
        host.l2_sum_mib,
        host.llc_mib,
        if host.cache_assisted() {
            ": under 4 x the last-level cache, so roofline fractions are cache-assisted"
        } else {
            ""
        }
    );
    for f in &out.failures {
        println!("{name:<22} FAILED: {f}");
    }
}

/// The result line the driver reads.
fn result_line(attempted: u64, failed: u64, metrics: Vec<(String, Value)>) -> String {
    let line = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    serde_json::to_string(&line).expect("result serialization is infallible")
}

fn metric_value(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

fn e2e_metrics(result: &WorkloadResult, prefix: &str) -> Vec<(String, Value)> {
    let defs = metrics::end_to_end();
    result
        .samples
        .iter()
        .map(|(name, samples)| {
            let median = swq_bench_e2e::stats::median(samples);
            (format!("{prefix}{name}"), metric_value(median, unit_of(&defs, name)))
        })
        .collect()
}

fn traced_metrics(out: &TraceOutput, prefix: &str) -> Vec<(String, Value)> {
    let defs = metrics::per_layer();
    out.metrics
        .iter()
        .map(|(name, value)| {
            (format!("{prefix}{name}"), metric_value(*value, unit_of(&defs, name)))
        })
        .collect()
}

fn write_trace(dir: &Path, workload: &str, out: &TraceOutput) -> Result<(), String> {
    let path = dir.join(format!("trace_{workload}.json"));
    let text = serde_json::to_string(&out.trace).expect("trace serialization is infallible");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((parent, change)) = &args.compare {
        return run_compare(parent, change);
    }
    if args.host_clock_sample {
        println!("{}", hostclock::sample_line(&hostclock::work(args.threads, args.smoke)));
        return Ok(true);
    }
    if let Some(samples) = args.host_clock {
        run_host_clock(samples, args.threads);
        return Ok(true);
    }
    let paths = Paths::from_cwd()?;
    let bin = match &args.swquake {
        // Invocations run in their own directories: the path must not be
        // relative to this one.
        Some(bin) => bin.canonicalize().map_err(|e| format!("--swquake {}: {e}", bin.display()))?,
        None => cli::build_swquake(&paths)?,
    };
    std::fs::create_dir_all(&paths.work)
        .map_err(|e| format!("cannot create {}: {e}", paths.work.display()))?;
    if !swquake::core::simd_compiled() {
        println!(
            "warning: bench_e2e was built without --features simd; the traced in-process run \
             takes the pool kernels, not the vectorized ones the CLI runs"
        );
    }
    let specs: Vec<Spec> = match &args.workload {
        Some(name) => vec![workloads::spec(name, args.smoke).ok_or_else(|| {
            format!("unknown workload {name}; known: {}", workloads::NAMES.join(", "))
        })?],
        None => workloads::specs(args.smoke).to_vec(),
    };
    let single = args.workload.is_some();
    // A single-workload call does one kind of run; the all-workload call
    // does both unless told otherwise.
    let (do_e2e, do_trace) = match (single, args.trace) {
        (true, Some(true)) => (false, true),
        (true, _) => (true, false),
        (false, Some(false)) => (true, false),
        (false, _) => (true, true),
    };
    let trace_dir = match args.out.as_deref().and_then(Path::parent) {
        Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
        Some(_) => PathBuf::from("."),
        None => paths.work.clone(),
    };
    println!(
        "bench_e2e: seed {}, {} threads of {} cores, {:.0} s per workload{}",
        args.seed,
        args.threads,
        nproc(),
        args.seconds,
        if args.smoke { ", SMOKE sizes (numbers are meaningless)" } else { "" }
    );

    let mut line_metrics: Vec<(String, Value)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut prepared: Vec<Prepared> = Vec::new();
    for spec in &specs {
        prepared.push(Prepared::new(&paths, &bin, *spec, args.seed, args.threads)?);
    }
    let mut e2e_results: Vec<WorkloadResult> = Vec::new();
    let mut traces: Vec<TraceOutput> = Vec::new();
    if do_trace {
        for p in &prepared {
            let out = traced::traced_run(p, args.seconds, args.smoke);
            print_traced(p.spec.name, &out);
            write_trace(&trace_dir, p.spec.name, &out)?;
            attempted += out.attempted;
            failed += out.failures.len() as u64;
            let prefix = if single { String::new() } else { format!("{}/", p.spec.name) };
            line_metrics.extend(traced_metrics(&out, &prefix));
            traces.push(out);
        }
    }
    if do_e2e {
        // Round-robin over the workloads, one cycle each, so slow host
        // drift lands on all of them alike.
        let mut runs: Vec<E2eRun> = prepared.into_iter().map(E2eRun::new).collect();
        // A smoke run is one cycle, whatever `--seconds` says.
        let (min_cycles, budget) =
            if args.smoke { (1, 0.0) } else { (MIN_CYCLES, args.seconds * runs.len() as f64) };
        let clock = HostClock::new(args.threads, args.smoke);
        let t0 = Instant::now();
        loop {
            for run in &mut runs {
                run.cycle(&clock);
            }
            let cycles = runs[0].cycles();
            let per_round = t0.elapsed().as_secs_f64() / cycles as f64;
            if cycles >= min_cycles && t0.elapsed().as_secs_f64() + per_round > budget {
                break;
            }
        }
        for run in runs {
            let result = run.finish();
            print_e2e(&result);
            attempted += result.attempted;
            failed += result.failed();
            let prefix = if single { String::new() } else { format!("{}/", result.name) };
            line_metrics.extend(e2e_metrics(&result, &prefix));
            e2e_results.push(result);
        }
    } else {
        for p in &prepared {
            p.cleanup();
        }
    }

    if let Some(out) = &args.out {
        // Results and traces were pushed in `specs` order.
        let report: Vec<(String, Value)> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut entry =
                    e2e_results.get(i).map_or_else(|| json!({}), WorkloadResult::to_json);
                if let Some(traced) = traces.get(i) {
                    entry["per_layer"] = Value::Object(traced_metrics(traced, ""));
                    entry["shares"] = Value::Object(
                        traced.shares.iter().map(|(k, v)| (k.clone(), json!(*v))).collect(),
                    );
                    entry["traced_failures"] = json!(traced.failures);
                }
                entry["why"] = json!(spec.why);
                (spec.name.to_string(), entry)
            })
            .collect();
        let host = swquake::telemetry::perf::HostFingerprint::detect(args.threads as u64);
        let doc = json!({
            "schema": 1,
            "seed": args.seed,
            "seconds_per_workload": args.seconds,
            "smoke": args.smoke,
            "host": {"id": host.id(), "cores": nproc(), "threads": args.threads},
            "workloads": Value::Object(report),
        });
        let text = serde_json::to_string_pretty(&doc).expect("results serialization is infallible");
        std::fs::write(out, text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }
    println!("{}", result_line(attempted, failed, line_metrics));
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

//! Driving the release `swquake` binary from outside: build it, spawn it,
//! watch its memory high-water mark, and read back what it wrote.

use crate::workloads::{scenario_id, Drive, Inputs, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Where the benchmark finds things: the checkout root, the cargo target
/// directory, and its own scratch space under the target directory.
pub struct Paths {
    pub root: PathBuf,
    pub target: PathBuf,
    pub work: PathBuf,
}

impl Paths {
    /// Resolve from the current directory, which must be the checkout
    /// root (the one holding the product's `Cargo.toml` and `src/`).
    pub fn from_cwd() -> Result<Self, String> {
        let root = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
        if !root.join("Cargo.toml").is_file() || !root.join("src/bin/swquake.rs").is_file() {
            return Err(format!(
                "{} is not a swquake checkout (no Cargo.toml / src/bin/swquake.rs); run \
                 bench_e2e from the repository root",
                root.display()
            ));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => {
                let dir = PathBuf::from(dir);
                if dir.is_absolute() {
                    dir
                } else {
                    root.join(dir)
                }
            }
            None => root.join("target"),
        };
        let work = target.join("bench_e2e_work");
        Ok(Self { root, target, work })
    }

    /// Path of the release CLI binary inside the target directory.
    pub fn swquake(&self) -> PathBuf {
        self.target.join("release").join("swquake")
    }
}

/// Build (or confirm up to date) the release `swquake` binary with the
/// vectorized kernels, exactly as a user would.
pub fn build_swquake(paths: &Paths) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--features", "simd"])
        .args(["--bin", "swquake", "--manifest-path"])
        .arg(paths.root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&paths.target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building swquake failed ({status})"));
    }
    let bin = paths.swquake();
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo succeeded but {} is missing", bin.display()))
    }
}

/// What one CLI invocation did, seen from outside.
#[derive(Debug, Clone)]
pub struct Invocation {
    pub wall_s: f64,
    pub exit_code: Option<i32>,
    /// Child `VmHWM`, MiB (0 when `/proc` never answered).
    pub peak_rss_mib: f64,
}

/// `VmHWM` of process `pid` in kB, if `/proc` still has it.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Spawn `bin args` in `dir`, poll its memory high-water mark until it
/// exits, and wait for it. Output is discarded; stderr goes to
/// `stderr.log` in `dir` so a failed operation can be explained.
pub fn invoke(bin: &Path, args: &[&str], dir: &Path, env: &[(&str, &str)]) -> Invocation {
    let stderr = std::fs::File::create(dir.join("stderr.log"))
        .map(Stdio::from)
        .unwrap_or_else(|_| Stdio::null());
    let mut cmd = Command::new(bin);
    cmd.args(args).current_dir(dir).stdout(Stdio::null()).stderr(stderr);
    // The benchmark's inputs are the generated files only: no ambient
    // override may change what the program does.
    for var in [
        "SWQUAKE_FAULT_PLAN",
        "SWQUAKE_EXEC",
        "SWQUAKE_THREADS",
        "SWQUAKE_RESIDENT",
        "SWQUAKE_HEALTH_STRIDE",
        "SWQUAKE_BENCH_JSON",
    ] {
        cmd.env_remove(var);
    }
    for (k, v) in env {
        cmd.env(k, v);
    }
    let t0 = Instant::now();
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(_) => return Invocation { wall_s: 0.0, exit_code: None, peak_rss_mib: 0.0 },
    };
    let pid = child.id();
    let mut hwm_kb = 0u64;
    let status = loop {
        if let Some(kb) = vm_hwm_kb(pid) {
            hwm_kb = hwm_kb.max(kb);
        }
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break child.wait().ok(),
        }
    };
    Invocation {
        wall_s: t0.elapsed().as_secs_f64(),
        exit_code: status.and_then(|s| s.code()),
        peak_rss_mib: hwm_kb as f64 / 1024.0,
    }
}

/// A seismogram CSV as the CLI wrote it: the raw data rows (for bitwise
/// comparison) and the parsed values.
#[derive(Debug, Clone, PartialEq)]
pub struct SeismoCsv {
    pub header: String,
    pub rows: Vec<String>,
    /// `values[row][column]`, the `t` column dropped.
    pub values: Vec<Vec<f64>>,
}

impl SeismoCsv {
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty seismogram file")?.to_string();
        let columns = header.split(',').count();
        let mut rows = Vec::new();
        let mut values = Vec::new();
        for (i, line) in lines.enumerate() {
            let row: Result<Vec<f64>, _> = line.split(',').skip(1).map(str::parse::<f64>).collect();
            let row = row.map_err(|e| format!("row {i}: {e}"))?;
            if row.len() + 1 != columns {
                return Err(format!("row {i} has {} columns, header has {columns}", row.len() + 1));
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(format!("row {i} holds a non-finite value"));
            }
            rows.push(line.to_string());
            values.push(row);
        }
        Ok(Self { header, rows, values })
    }

    /// Relative L2 misfit of this file's first `reference.rows.len()` rows
    /// against `reference`, row for row. Exactly 0 when the row texts are
    /// identical; infinite when the reference is silent and this is not.
    pub fn misfit_on_prefix(&self, reference: &SeismoCsv) -> Result<f64, String> {
        let n = reference.rows.len();
        if self.rows.len() < n || self.header != reference.header {
            return Err(format!(
                "cannot compare {} rows against a {n}-row reference (headers {})",
                self.rows.len(),
                if self.header == reference.header { "match" } else { "differ" }
            ));
        }
        if self.rows[..n] == reference.rows[..] {
            return Ok(0.0);
        }
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for (row, reference_row) in self.values[..n].iter().zip(&reference.values) {
            for (a, b) in row.iter().zip(reference_row) {
                num += (a - b) * (a - b);
                den += b * b;
            }
        }
        Ok(if den == 0.0 {
            if num == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (num / den).sqrt()
        })
    }
}

/// Flags every measured invocation shares.
fn exec_flags(threads: usize) -> Vec<String> {
    vec!["--exec".into(), "simd".into(), "--threads".into(), threads.to_string()]
}

/// Outcome of one repetition (one `run`, or kill + resume of a campaign).
#[derive(Debug, Clone)]
pub struct Repetition {
    pub wall_s: f64,
    pub peak_rss_mib: f64,
    /// Operations attempted / failed in this repetition, with the reasons.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Seismograms per scenario (empty entry when unreadable).
    pub seismograms: Vec<Option<SeismoCsv>>,
}

impl Repetition {
    /// Steps completed, read back from the seismogram row counts.
    pub fn steps_done(&self) -> usize {
        self.seismograms.iter().flatten().map(|s| s.rows.len()).sum()
    }
}

/// Scenario states in a campaign `MANIFEST.json`, as `(id, state)`.
fn manifest_states(dir: &Path) -> Vec<(String, String)> {
    let Ok(text) = std::fs::read_to_string(dir.join("MANIFEST.json")) else { return Vec::new() };
    let Ok(v) = serde_json::from_str::<serde_json::Value>(&text) else { return Vec::new() };
    let Some(entries) = v["scenarios"].as_array() else { return Vec::new() };
    entries
        .iter()
        .filter_map(|e| Some((e["id"].as_str()?.to_string(), e["state"].as_str()?.to_string())))
        .collect()
}

/// Run the workload once through the CLI in a fresh `dir` and check what
/// it left behind. `file` is [`Inputs::MAIN`] or [`Inputs::SETUP`];
/// `expect_steps` the rows each seismogram must have. The set-up variant
/// of a campaign runs as a single uninterrupted invocation. `extra`
/// appends flags (the traced run asks for `--metrics`).
pub fn run_once(
    bin: &Path,
    spec: &Spec,
    dir: &Path,
    file: &str,
    expect_steps: usize,
    threads: usize,
    extra: &[&str],
) -> Repetition {
    let mut rep = Repetition {
        wall_s: 0.0,
        peak_rss_mib: 0.0,
        attempted: 0,
        failures: Vec::new(),
        seismograms: Vec::new(),
    };
    let flags = exec_flags(threads);
    let input = format!("../{file}");
    let note = |rep: &mut Repetition, what: &str, inv: &Invocation, want: i32| {
        rep.attempted += 1;
        rep.wall_s += inv.wall_s;
        rep.peak_rss_mib = rep.peak_rss_mib.max(inv.peak_rss_mib);
        if inv.exit_code != Some(want) {
            rep.failures.push(format!("{what}: exit {:?}, expected {want}", inv.exit_code));
        }
    };
    let mut csv_paths = Vec::new();
    match spec.drive {
        Drive::Run => {
            let mut args: Vec<&str> = vec!["run", &input];
            args.extend(flags.iter().map(String::as_str));
            if spec.health {
                args.extend(["--health", "health.jsonl", "--health-stride", "10"]);
            }
            args.extend(extra);
            let inv = invoke(bin, &args, dir, &[]);
            note(&mut rep, "run", &inv, 0);
            csv_paths.push(dir.join("out_seismograms.csv"));
        }
        Drive::Campaign { scenarios, kill_at } => {
            let mut args: Vec<&str> = vec!["campaign", &input, "--dir", "camp", "--jobs", "1"];
            args.extend(flags.iter().map(String::as_str));
            args.extend(extra);
            if file == Inputs::SETUP {
                let inv = invoke(bin, &args, dir, &[]);
                note(&mut rep, "campaign (one step)", &inv, 0);
            } else {
                let plan = format!("seed=1;kill@{kill_at}");
                let inv = invoke(bin, &args, dir, &[("SWQUAKE_FAULT_PLAN", &plan)]);
                note(&mut rep, "campaign (killed)", &inv, 137);
                args.push("--resume");
                let inv = invoke(bin, &args, dir, &[]);
                note(&mut rep, "campaign --resume", &inv, 0);
            }
            // One operation per scenario: it must end `done`.
            let states = manifest_states(&dir.join("camp"));
            for i in 0..scenarios {
                rep.attempted += 1;
                let id = scenario_id(i);
                match states.iter().find(|(sid, _)| *sid == id) {
                    Some((_, state)) if state == "done" => {}
                    other => rep.failures.push(format!(
                        "scenario {id}: state {:?}, expected done",
                        other.map(|(_, s)| s.as_str())
                    )),
                }
                csv_paths.push(dir.join("camp").join(&id).join("out_seismograms.csv"));
            }
        }
    }
    for path in csv_paths {
        match SeismoCsv::read(&path) {
            Ok(csv) if csv.rows.len() == expect_steps => rep.seismograms.push(Some(csv)),
            Ok(csv) => {
                rep.failures.push(format!(
                    "{}: {} rows, expected {expect_steps}",
                    path.display(),
                    csv.rows.len()
                ));
                rep.seismograms.push(Some(csv));
            }
            Err(e) => {
                rep.failures.push(e);
                rep.seismograms.push(None);
            }
        }
    }
    rep
}

/// Run reference scenario `i` (serial, one thread) in `dir` and read its
/// seismograms.
pub fn run_reference(bin: &Path, dir: &Path, i: usize) -> Result<SeismoCsv, String> {
    let input = format!("../{}", Inputs::reference_name(i));
    let inv = invoke(bin, &["run", &input, "--exec", "serial", "--threads", "1"], dir, &[]);
    if inv.exit_code != Some(0) {
        return Err(format!("reference run {i}: exit {:?}", inv.exit_code));
    }
    SeismoCsv::read(&dir.join("out_seismograms.csv"))
}

/// Empty `dir` (creating it if needed).
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Write the generated input files of a workload into `dir`.
pub fn write_inputs(dir: &Path, inputs: &Inputs) -> Result<(), String> {
    for (name, content) in &inputs.files {
        let path = dir.join(name);
        std::fs::write(&path, content)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

//! The end-to-end measurement of one workload: closed loop, one process
//! at a time, every program-side trace off.
//!
//! A run is a sequence of *cycles*. Each cycle spawns the CLI twice on
//! the same generated inputs: once with every scenario cut to one step
//! (the set-up probe: process start, scenario load, model build, state
//! sampling, source lowering, writing a one-row result) and once in full
//! (the repetition). A [`HostClock`] sample is taken before, between and
//! after the two, and each invocation's wall time is scaled by the two
//! samples around it: the times are seconds of the quiet reference host,
//! not of whatever the neighbours on this shared machine left over. Every
//! reported metric is the median over cycles.

use crate::cli::{self, Paths, Repetition, SeismoCsv};
use crate::hostclock::{normalised, HostClock};
use crate::stats::Summary;
use crate::workloads::{self, Inputs, Spec, MISFIT_TIER};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// Samples of one workload's end-to-end metrics plus its operation tally.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: String,
    /// `(metric name, one sample per cycle)`, in `metrics::end_to_end`
    /// order.
    pub samples: Vec<(String, Vec<f64>)>,
    /// What the normalised times were made from, one sample per cycle:
    /// wall seconds of the repetition and of the set-up probe, and the
    /// mean of the cycle's three host-clock samples. Not metrics.
    pub raw: Vec<(String, Vec<f64>)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Median relative L2 misfit against the reference over repetitions.
    pub seis_misfit: f64,
}

impl WorkloadResult {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn to_json(&self) -> Value {
        let metrics: Vec<(String, Value)> = self
            .samples
            .iter()
            .map(|(name, samples)| {
                let s = Summary::of(samples);
                (
                    name.clone(),
                    json!({"median": s.median, "q1": s.q1, "q3": s.q3, "n": s.n,
                           "samples": samples}),
                )
            })
            .collect();
        let raw: Vec<(String, Value)> =
            self.raw.iter().map(|(name, samples)| (name.clone(), json!(samples))).collect();
        json!({
            "metrics": Value::Object(metrics),
            "raw": Value::Object(raw),
            "attempted": self.attempted,
            "failed": self.failed(),
            "failed_share": self.failed() as f64 / self.attempted.max(1) as f64,
            "failures": self.failures,
            "seis_misfit": self.seis_misfit,
        })
    }
}

/// Check one repetition's seismograms against the references; returns the
/// worst misfit and pushes a failure per violated rule.
pub fn check_misfit(
    spec: &Spec,
    rep: &Repetition,
    references: &[SeismoCsv],
    failures: &mut Vec<String>,
) -> f64 {
    let mut worst = 0.0f64;
    for (i, (got, reference)) in rep.seismograms.iter().zip(references).enumerate() {
        let Some(got) = got else { continue }; // already a failure of its own
        match got.misfit_on_prefix(reference) {
            Ok(m) => {
                worst = worst.max(m);
                if spec.bitwise && m != 0.0 {
                    failures.push(format!("scenario {i}: misfit {m:e} on a bitwise workload"));
                } else if m.is_nan() || m > MISFIT_TIER {
                    failures
                        .push(format!("scenario {i}: misfit {m:e} above the {MISFIT_TIER} tier"));
                }
            }
            Err(e) => failures.push(format!("scenario {i}: {e}")),
        }
    }
    worst
}

/// One workload's inputs on disk plus its reference seismograms, ready to
/// be run any number of times.
pub struct Prepared {
    pub spec: Spec,
    pub bin: PathBuf,
    pub dir: PathBuf,
    pub inputs: Inputs,
    pub references: Vec<SeismoCsv>,
    pub threads: usize,
}

impl Prepared {
    /// Generate the inputs for `seed` under the work directory and run
    /// the serial references.
    pub fn new(
        paths: &Paths,
        bin: &Path,
        spec: Spec,
        seed: u64,
        threads: usize,
    ) -> Result<Self, String> {
        let dir = paths.work.join(format!("{}-{seed}", spec.name));
        cli::fresh_dir(&dir)?;
        let inputs = workloads::generate(&spec, seed);
        cli::write_inputs(&dir, &inputs)?;
        let mut references = Vec::new();
        for i in 0..inputs.references.len() {
            let ref_dir = dir.join(format!("ref{i}"));
            cli::fresh_dir(&ref_dir)?;
            let csv = cli::run_reference(bin, &ref_dir, i)?;
            if csv.rows.len() != spec.ref_steps {
                return Err(format!(
                    "reference {i} has {} rows, expected {}",
                    csv.rows.len(),
                    spec.ref_steps
                ));
            }
            references.push(csv);
        }
        Ok(Self { spec, bin: bin.to_path_buf(), dir, inputs, references, threads })
    }

    /// One CLI pass over `file` in a fresh sub-directory `sub`.
    pub fn run(&self, sub: &str, file: &str, steps: usize, extra: &[&str]) -> Repetition {
        let dir = self.dir.join(sub);
        if let Err(e) = cli::fresh_dir(&dir) {
            return Repetition {
                wall_s: 0.0,
                peak_rss_mib: 0.0,
                attempted: 1,
                failures: vec![e],
                seismograms: Vec::new(),
            };
        }
        cli::run_once(&self.bin, &self.spec, &dir, file, steps, self.threads, extra)
    }

    /// Remove everything this workload wrote (checkpoint stores are big).
    pub fn cleanup(&self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// The running end-to-end measurement of one workload.
pub struct E2eRun {
    pub prepared: Prepared,
    wall_s: Vec<f64>,
    setup_wall_s: Vec<f64>,
    clock_s: Vec<f64>,
    setup_s: Vec<f64>,
    tts_s: Vec<f64>,
    mcells_per_s: Vec<f64>,
    peak_rss_mib: Vec<f64>,
    misfits: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl E2eRun {
    pub fn new(prepared: Prepared) -> Self {
        Self {
            prepared,
            wall_s: Vec::new(),
            setup_wall_s: Vec::new(),
            clock_s: Vec::new(),
            setup_s: Vec::new(),
            tts_s: Vec::new(),
            mcells_per_s: Vec::new(),
            peak_rss_mib: Vec::new(),
            misfits: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    pub fn cycles(&self) -> usize {
        self.tts_s.len()
    }

    /// One set-up probe and one full repetition, samples of `clock`
    /// around each.
    pub fn cycle(&mut self, clock: &HostClock) {
        let p = &self.prepared;
        let c0 = clock.sample().total_s();
        let probe = p.run("setup", Inputs::SETUP, 1, &[]);
        let c1 = clock.sample().total_s();
        let rep = p.run("rep", Inputs::MAIN, p.spec.steps, &[]);
        let c2 = clock.sample().total_s();
        self.attempted += probe.attempted + rep.attempted;
        self.failures.extend(probe.failures.iter().map(|f| format!("set-up probe: {f}")));
        let mut rep_failures = rep.failures.clone();
        self.misfits.push(check_misfit(&p.spec, &rep, &p.references, &mut rep_failures));
        self.failures.extend(rep_failures);
        let setup_s = normalised(probe.wall_s, c0, c1);
        let tts_s = normalised(rep.wall_s, c1, c2);
        let loop_s = tts_s - setup_s;
        self.wall_s.push(rep.wall_s);
        self.setup_wall_s.push(probe.wall_s);
        self.clock_s.push((c0 + c1 + c2) / 3.0);
        self.setup_s.push(setup_s);
        self.tts_s.push(tts_s);
        self.peak_rss_mib.push(rep.peak_rss_mib);
        self.mcells_per_s.push((p.spec.cells() * rep.steps_done()) as f64 / loop_s / 1e6);
    }

    pub fn finish(self) -> WorkloadResult {
        let result = WorkloadResult {
            name: self.prepared.spec.name.to_string(),
            samples: vec![
                ("time_to_solution_s".to_string(), self.tts_s),
                ("setup_s".to_string(), self.setup_s),
                ("mcells_per_s".to_string(), self.mcells_per_s),
                ("peak_rss_mib".to_string(), self.peak_rss_mib),
            ],
            raw: vec![
                ("wall_s".to_string(), self.wall_s),
                ("setup_wall_s".to_string(), self.setup_wall_s),
                ("host_clock_s".to_string(), self.clock_s),
            ],
            attempted: self.attempted,
            failures: self.failures,
            seis_misfit: crate::stats::median(&self.misfits),
        };
        self.prepared.cleanup();
        result
    }
}

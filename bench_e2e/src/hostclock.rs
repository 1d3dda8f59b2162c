//! The host clock: how fast this machine is *right now*, for a process
//! that has just started.
//!
//! The reference host is a slice of a shared machine. Identical CLI
//! invocations take 30–60 % longer in some minutes than in others, and
//! differ by as much from one second to the next: the cost of a first
//! touch of fresh memory, the rate at which fresh memory streams, and the
//! multiply-add rate of two threads each move by up to a factor of two,
//! not together. Raw wall time therefore says more about the neighbours
//! than about the program.
//!
//! A clock *sample* is a fixed piece of work that belongs to the
//! benchmark, not to the product, run the way the CLI runs: as a fresh
//! process (this binary, `--host-clock-sample`) whose threads together
//! allocate and touch fresh arrays, stream a triad over them, and run a
//! multiply-add chain out of registers. The three parts are sized to take
//! about the same time on the reference host, so a sample slows down by
//! the mean of the three slowdowns — the blend that tracked all four
//! workloads in the sizing runs (a clock of one part alone does worse on
//! every workload, and one that keeps its arrays from sample to sample
//! read its fastest value all through a run in which the CLI was 40 %
//! slow). The end-to-end run takes a sample before and after every CLI
//! invocation and scales the invocation's wall time by [`REFERENCE_S`]
//! over the mean of the two: seconds as the reference host counts them at
//! its usual pace.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Barrier;
use std::time::Instant;

/// One sample on the reference host at its usual pace (2 threads),
/// seconds: the median of some two thousand samples taken over three
/// hours while writing this (half-hour medians 0.058 to 0.075). It only fixes the scale of the normalised seconds; ratios
/// between runs do not depend on it.
pub const REFERENCE_S: f64 = 0.065;

/// The flag that makes this binary take one sample and print it.
pub const SAMPLE_FLAG: &str = "--host-clock-sample";

/// Elements of each of the three arrays a thread allocates (12 MiB per
/// array: the three are eighteen times a 2 MiB L2).
const ELEMS: usize = 3 << 20;
/// Triad passes over the arrays.
const TRIAD_PASSES: usize = 7;
/// Multiply-add iterations (eight independent 8-lane chains).
const FMA_ITERS: u64 = 4_200_000;

/// The three parts of one sample, seconds (slowest thread of each).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Allocating and first touching the arrays.
    pub touch_s: f64,
    /// Streaming the triad over them.
    pub stream_s: f64,
    /// The multiply-add chain.
    pub compute_s: f64,
}

impl Sample {
    pub fn total_s(&self) -> f64 {
        self.touch_s + self.stream_s + self.compute_s
    }
}

fn multiply_add(iters: u64) -> f32 {
    let m = black_box([1.000_000_1f32; 8]);
    let a = black_box([1.0e-9f32; 8]);
    let mut acc = [[1.0f32; 8]; 8];
    for _ in 0..iters {
        for row in &mut acc {
            for l in 0..8 {
                row[l] = row[l] * m[l] + a[l];
            }
        }
    }
    black_box(acc).iter().flatten().sum()
}

/// Do one sample's work in this process, on `threads` threads. The
/// threads enter each part together, so none has the core's shared units
/// to itself by finishing another part early. `small` shrinks the work a
/// thousandfold (smoke runs and tests: the sample then means nothing).
pub fn work(threads: usize, small: bool) -> Sample {
    let shrink = if small { 1000 } else { 1 };
    let (elems, iters) = (ELEMS / shrink, FMA_ITERS / shrink as u64);
    let threads = threads.max(1);
    let gate = Barrier::new(threads);
    let parts: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let gate = &gate;
                scope.spawn(move || {
                    gate.wait();
                    let t0 = Instant::now();
                    let mut a = vec![0.5f32; elems];
                    let b = black_box(vec![1.0f32; elems]);
                    let c = black_box(vec![2.0f32; elems]);
                    let touch_s = t0.elapsed().as_secs_f64();
                    gate.wait();
                    let t1 = Instant::now();
                    for pass in 0..TRIAD_PASSES {
                        let s = black_box(0.5f32 + pass as f32 * 1.0e-3);
                        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                            *a = *b + s * *c;
                        }
                        black_box(&mut a);
                    }
                    let stream_s = t1.elapsed().as_secs_f64();
                    gate.wait();
                    let t2 = Instant::now();
                    black_box(multiply_add(iters));
                    Sample { touch_s, stream_s, compute_s: t2.elapsed().as_secs_f64() }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a clock thread panicked")).collect()
    });
    parts.into_iter().fold(Sample { touch_s: 0.0, stream_s: 0.0, compute_s: 0.0 }, |m, p| Sample {
        touch_s: m.touch_s.max(p.touch_s),
        stream_s: m.stream_s.max(p.stream_s),
        compute_s: m.compute_s.max(p.compute_s),
    })
}

/// What the `--host-clock-sample` process prints.
pub fn sample_line(sample: &Sample) -> String {
    format!("{:.9} {:.9} {:.9}", sample.touch_s, sample.stream_s, sample.compute_s)
}

fn parse_sample_line(line: &str) -> Option<Sample> {
    let mut parts = line.split_whitespace().map(str::parse::<f64>);
    let sample = Sample {
        touch_s: parts.next()?.ok()?,
        stream_s: parts.next()?.ok()?,
        compute_s: parts.next()?.ok()?,
    };
    (parts.next().is_none() && sample.total_s() > 0.0).then_some(sample)
}

/// Takes samples by spawning this binary.
pub struct HostClock {
    exe: Option<PathBuf>,
    threads: usize,
    small: bool,
}

impl HostClock {
    pub fn new(threads: usize, small: bool) -> Self {
        Self { exe: std::env::current_exe().ok(), threads, small }
    }

    /// One sample in a fresh process (in this one, should the spawn fail:
    /// a poorer clock, still a clock).
    pub fn sample(&self) -> Sample {
        let spawned = self.exe.as_ref().and_then(|exe| {
            let mut cmd = Command::new(exe);
            cmd.args([SAMPLE_FLAG, "--threads", &self.threads.to_string()]);
            if self.small {
                cmd.arg("--smoke");
            }
            let out = cmd.stdin(Stdio::null()).stderr(Stdio::null()).output().ok()?;
            parse_sample_line(String::from_utf8_lossy(&out.stdout).lines().last()?)
        });
        spawned.unwrap_or_else(|| work(self.threads, self.small))
    }
}

/// `wall_s` as the reference host counts it at its usual pace, given the
/// clock samples taken just before and just after.
pub fn normalised(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * REFERENCE_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_twice_as_slow_halves_the_time() {
        assert_eq!(normalised(3.0, REFERENCE_S, REFERENCE_S), 3.0);
        assert_eq!(normalised(3.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 1.5);
        assert_eq!(normalised(3.0, REFERENCE_S, 3.0 * REFERENCE_S), 1.5);
    }

    #[test]
    fn a_sample_has_three_positive_parts_and_survives_its_line() {
        let sample = work(2, true);
        assert!(sample.touch_s > 0.0 && sample.stream_s > 0.0 && sample.compute_s > 0.0);
        let back = parse_sample_line(&sample_line(&sample)).expect("the line parses back");
        assert!((back.total_s() - sample.total_s()).abs() < 1e-8);
        assert_eq!(parse_sample_line("1 2"), None);
        assert_eq!(parse_sample_line("bench_e2e: nope"), None);
    }
}

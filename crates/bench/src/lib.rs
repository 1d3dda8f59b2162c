//! Shared helpers for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the SC17
//! paper and prints the paper's value next to the model/measurement, so
//! EXPERIMENTS.md can be filled by running them.

use sw_grid::simd::LaneTier;
use sw_telemetry::bench::BenchRecord;

/// Format a floating value with engineering-style precision.
pub fn eng(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 0.01 {
        format!("{v:.2}")
    } else {
        format!("{v:.3e}")
    }
}

/// Print a header followed by an underline of the same width.
pub fn header(title: &str) {
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
}

/// Relative deviation as a percentage string.
pub fn dev(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return "-".to_string();
    }
    format!("{:+.1}%", (measured - paper) / paper * 100.0)
}

/// Median of an ascending-sorted sample set (mean of the two middle
/// samples when their number is even; 0 for none).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Pin the worker pool of a `bench_*` binary to its `[threads]`
/// argument, or to `min(cores, 4)` without one (CI passes 4; a bare run
/// on a smaller host must not oversubscribe it and stamp `/4t` on the
/// records). Returns the pinned count.
pub fn pin_pool(threads_arg: Option<String>) -> usize {
    let threads = threads_arg.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get).min(4)
    });
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("the vendored pool accepts reconfiguration");
    threads
}

/// What a gated time ratio may grow by before `inspect --diff` fails it: to
/// `1/0.7` of the committed measurement.
pub const RATIO_TOLERANCE: f64 = 1.0 / 0.7 - 1.0;

/// A dimensionless record (unit `ratio`, no host stamp) carrying
/// [`RATIO_TOLERANCE`]: `inspect --diff` gates it on every host.
pub fn ratio_record(name: String, ratio: f64, samples: u64) -> BenchRecord {
    BenchRecord {
        name,
        samples,
        median_s: ratio,
        mean_s: ratio,
        min_s: ratio,
        max_s: ratio,
        throughput: 1.0,
        throughput_unit: "ratio".to_string(),
        tolerance: Some(RATIO_TOLERANCE),
        host: None,
    }
}

/// The `<what>/wide_over_baseline` record: seconds of one body
/// dispatched to the host's tier over seconds of the same body under the
/// baseline cap. A body whose inline chain into `sw_grid::simd::wide`
/// broke reads 1.0. The record is stamped with the tier in place of a
/// host id, so `inspect --diff` gates it against a baseline from the same
/// tier and skips it against any other.
pub fn wide_over_baseline(what: &str, wide_s: f64, baseline_s: f64, samples: u64) -> BenchRecord {
    BenchRecord {
        host: Some(format!("lanes/{}", LaneTier::detected())),
        ..ratio_record(format!("{what}/wide_over_baseline"), wide_s / baseline_s, samples)
    }
}

/// Median of an unsorted sample set.
pub fn median_of(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_sample_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 10.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 10.0]), 3.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(123.4), "123");
        assert_eq!(eng(12.34), "12.3");
        assert_eq!(eng(1.234), "1.23");
        assert_eq!(eng(0.0001234), "1.234e-4");
        assert_eq!(dev(110.0, 100.0), "+10.0%");
        assert_eq!(dev(1.0, 0.0), "-");
    }
}

pub mod harness;

/// Declare a benchmark entry function from a config + target list
/// (criterion-compatible surface for the vendored mini-harness).
///
/// When `SWQUAKE_BENCH_JSON` is set, the accumulated records are also
/// written to that path in the `BENCH_<name>.json` schema, ready for
/// `swquake inspect --diff`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
            $crate::harness::save_if_requested(&criterion);
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::harness::Criterion::default();
            $( $target(&mut criterion); )+
            $crate::harness::save_if_requested(&criterion);
        }
    };
}

/// Declare `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

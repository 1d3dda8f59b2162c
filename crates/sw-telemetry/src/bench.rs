//! Stable bench-report schema and the regression comparator.
//!
//! The bench harness writes one [`BenchReport`] (`BENCH_<name>.json`) per
//! run; `swquake inspect --diff old.json new.json --tolerance 0.15`
//! parses two of them with [`compare`] and fails when any benchmark's median slowed
//! down by more than the tolerance, or when a benchmark disappeared. CI
//! runs this as the perf-regression gate, so both ends of the pipe live
//! here next to the report schema they share.

use serde::{Deserialize, Serialize};

/// Version stamp embedded in every [`BenchReport`].
///
/// History: v1 = ratio/throughput records; v2 adds the optional
/// per-record `tolerance` (overrides the CLI default for that record)
/// and `host` (a [`crate::perf::HostFingerprint`] id — absolute records
/// from different hosts are skipped rather than compared). v1 files
/// still parse: the new fields read as `None`.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Summary of one benchmark: sample statistics over measured wall times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Benchmark id, e.g. `dvelcx/64x64x64`.
    pub name: String,
    /// Number of timed samples.
    pub samples: u64,
    /// Median seconds per iteration (the comparison metric: robust to
    /// scheduler noise in a way the mean is not).
    pub median_s: f64,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Fastest sample, seconds per iteration.
    pub min_s: f64,
    /// Slowest sample, seconds per iteration.
    pub max_s: f64,
    /// Declared throughput denominator per iteration (elements, cells,
    /// bytes, or 1.0 with unit `"iters"` when the bench declared none).
    pub throughput: f64,
    /// Unit of `throughput`, e.g. `"elements"`, `"cells"`, `"bytes"`,
    /// `"ratio"`, `"iters"`. An empty unit is a placeholder and makes
    /// [`compare`] fail — real records always declare what they measure.
    pub throughput_unit: String,
    /// Per-record tolerance override (fractional slowdown allowed);
    /// `None` uses the comparison-wide tolerance. Schema v2.
    pub tolerance: Option<f64>,
    /// Host fingerprint id for absolute (machine-dependent) records;
    /// `None` marks a machine-independent record (e.g. a ratio). Two
    /// records with differing fingerprints are skipped, not compared.
    /// Schema v2.
    pub host: Option<String>,
}

/// A full bench run: schema stamp + one record per benchmark.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version stamp ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// One record per benchmark, in registration order.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// An empty report with the current schema stamp.
    pub fn new() -> Self {
        Self { schema_version: BENCH_SCHEMA_VERSION, records: Vec::new() }
    }

    /// Look up a record by benchmark id.
    pub fn record(&self, name: &str) -> Option<&BenchRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench report serialization is infallible")
    }

    /// Parse a report back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Write to a file as JSON.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read and parse a report file.
    pub fn read_file(path: &std::path::Path) -> std::io::Result<Result<Self, serde_json::Error>> {
        Ok(Self::from_json(&std::fs::read_to_string(path)?))
    }
}

/// Verdict on one benchmark present in both reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchDiffEntry {
    /// Benchmark id.
    pub name: String,
    /// Old median, seconds per iteration.
    pub old_median_s: f64,
    /// New median, seconds per iteration.
    pub new_median_s: f64,
    /// `new / old` (1.0 when both are 0; a large sentinel never occurs —
    /// a zero old median with a nonzero new one flags as regressed with
    /// the raw ratio of the values clamped into finite range).
    pub ratio: f64,
    /// The tolerance this record was judged against (the old record's
    /// own `tolerance` when set, else the comparison-wide one).
    pub tolerance: f64,
    /// True when `ratio > 1 + tolerance`.
    pub regressed: bool,
}

/// The result of comparing two bench reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchComparison {
    /// Allowed fractional slowdown before a benchmark counts as regressed
    /// (0.15 = new median may be up to 15% slower).
    pub tolerance: f64,
    /// Per-benchmark verdicts, in old-report order.
    pub entries: Vec<BenchDiffEntry>,
    /// Benchmarks in the old report but not the new one (counts as
    /// failure: a silently dropped bench would mask a regression).
    pub missing: Vec<String>,
    /// Benchmarks only in the new report (informational).
    pub added: Vec<String>,
    /// Unit problems: empty `throughput_unit` on any record (placeholder
    /// data must not gate anything) or an old/new unit mismatch (the two
    /// records measure different things). Any entry fails the comparison
    /// and the CLI treats it as a usage error (exit 2).
    pub unit_errors: Vec<String>,
    /// Benchmarks skipped because both records carry a host fingerprint
    /// and the fingerprints differ (informational: absolute numbers from
    /// different machines are not comparable).
    pub host_skipped: Vec<String>,
}

impl BenchComparison {
    /// True when nothing regressed, nothing went missing, and no record
    /// had a unit problem.
    pub fn passed(&self) -> bool {
        self.missing.is_empty()
            && self.unit_errors.is_empty()
            && self.entries.iter().all(|e| !e.regressed)
    }

    /// Human-readable verdict table.
    pub fn text_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>12} {:>12} {:>8}  verdict\n",
            "benchmark", "old median", "new median", "ratio"
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<40} {:>12} {:>12} {:>7.3}x  {}\n",
                e.name,
                format_seconds(e.old_median_s),
                format_seconds(e.new_median_s),
                e.ratio,
                if e.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("{name:<40} missing from new report  FAIL\n"));
        }
        for name in &self.added {
            out.push_str(&format!("{name:<40} new benchmark (no baseline)\n"));
        }
        for name in &self.host_skipped {
            out.push_str(&format!("{name:<40} host differs — skipped\n"));
        }
        for err in &self.unit_errors {
            out.push_str(&format!("UNIT ERROR: {err}\n"));
        }
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        out.push_str(&format!(
            "{} ({} compared, {} regressed, {} missing, {} skipped, {} unit errors, \
             tolerance {:.0}%)\n",
            verdict,
            self.entries.len(),
            self.entries.iter().filter(|e| e.regressed).count(),
            self.missing.len(),
            self.host_skipped.len(),
            self.unit_errors.len(),
            self.tolerance * 100.0
        ));
        out
    }
}

fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Compare two bench reports: every benchmark in `old` must still exist
/// in `new` with a median no more than `tolerance` slower (a record's
/// own `tolerance` field, when set, overrides the default for it).
///
/// Records with an empty `throughput_unit` on either side, or with
/// mismatched units between old and new, are unit errors — they fail
/// the comparison outright. Records whose host fingerprints both exist
/// and differ are skipped (absolute numbers from different machines).
pub fn compare(old: &BenchReport, new: &BenchReport, tolerance: f64) -> BenchComparison {
    let tolerance = tolerance.max(0.0);
    let mut entries = Vec::new();
    let mut missing = Vec::new();
    let mut unit_errors = Vec::new();
    let mut host_skipped = Vec::new();
    for (side, report) in [("old", old), ("new", new)] {
        for r in &report.records {
            if r.throughput_unit.is_empty() {
                unit_errors.push(format!(
                    "{side} record `{}`: empty throughput_unit (placeholder throughput \
                     is not allowed; declare a real unit, e.g. `cells`)",
                    r.name
                ));
            }
        }
    }
    for o in &old.records {
        match new.record(&o.name) {
            None => missing.push(o.name.clone()),
            Some(n) => {
                if !o.throughput_unit.is_empty()
                    && !n.throughput_unit.is_empty()
                    && o.throughput_unit != n.throughput_unit
                {
                    unit_errors.push(format!(
                        "record `{}`: unit mismatch (old `{}` vs new `{}`) — \
                         the records measure different things",
                        o.name, o.throughput_unit, n.throughput_unit
                    ));
                    continue;
                }
                if let (Some(oh), Some(nh)) = (&o.host, &n.host) {
                    if oh != nh {
                        host_skipped.push(o.name.clone());
                        continue;
                    }
                }
                let ratio = if o.median_s > 0.0 {
                    n.median_s / o.median_s
                } else if n.median_s == 0.0 {
                    1.0
                } else {
                    // Old median was 0 (degenerate baseline) but new is
                    // not: flag it, with a finite stand-in ratio.
                    f64::MAX
                };
                let tol = o.tolerance.unwrap_or(tolerance).max(0.0);
                entries.push(BenchDiffEntry {
                    name: o.name.clone(),
                    old_median_s: o.median_s,
                    new_median_s: n.median_s,
                    ratio,
                    tolerance: tol,
                    regressed: ratio > 1.0 + tol,
                });
            }
        }
    }
    let added = new
        .records
        .iter()
        .filter(|n| old.record(&n.name).is_none())
        .map(|n| n.name.clone())
        .collect();
    BenchComparison { tolerance, entries, missing, added, unit_errors, host_skipped }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, median_s: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            samples: 10,
            median_s,
            mean_s: median_s,
            min_s: median_s * 0.9,
            max_s: median_s * 1.1,
            throughput: 4096.0,
            throughput_unit: "elements".to_string(),
            tolerance: None,
            host: None,
        }
    }

    fn report(records: Vec<BenchRecord>) -> BenchReport {
        BenchReport { schema_version: BENCH_SCHEMA_VERSION, records }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(vec![record("a", 1e-3), record("b", 2e-3)]);
        let cmp = compare(&r, &r, 0.1);
        assert!(cmp.passed());
        assert_eq!(cmp.entries.len(), 2);
        assert!(cmp.entries.iter().all(|e| e.ratio == 1.0));
        assert!(cmp.text_table().contains("PASS"));
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let old = report(vec![record("a", 1e-3)]);
        let new = report(vec![record("a", 1.2e-3)]);
        assert!(!compare(&old, &new, 0.1).passed());
        assert!(compare(&old, &new, 0.25).passed(), "20% slower is inside 25% tolerance");
        assert!(compare(&old, &new, 0.1).text_table().contains("REGRESSED"));
    }

    #[test]
    fn speedups_always_pass() {
        let old = report(vec![record("a", 1e-3)]);
        let new = report(vec![record("a", 0.2e-3)]);
        let cmp = compare(&old, &new, 0.0);
        assert!(cmp.passed());
        assert!(cmp.entries[0].ratio < 1.0);
    }

    #[test]
    fn missing_bench_fails_and_added_is_informational() {
        let old = report(vec![record("a", 1e-3), record("gone", 1e-3)]);
        let new = report(vec![record("a", 1e-3), record("fresh", 1e-3)]);
        let cmp = compare(&old, &new, 0.1);
        assert!(!cmp.passed());
        assert_eq!(cmp.missing, vec!["gone".to_string()]);
        assert_eq!(cmp.added, vec!["fresh".to_string()]);
    }

    #[test]
    fn zero_old_median_is_handled() {
        let old = report(vec![record("z", 0.0)]);
        let same = compare(&old, &old, 0.1);
        assert!(same.passed(), "0 vs 0 is not a regression");
        let new = report(vec![record("z", 1e-6)]);
        assert!(!compare(&old, &new, 0.1).passed());
    }

    #[test]
    fn empty_unit_is_a_unit_error() {
        let mut placeholder = record("exec/ratio", 0.6);
        placeholder.throughput = 0.0;
        placeholder.throughput_unit = String::new();
        let old = report(vec![placeholder.clone()]);
        let new = report(vec![placeholder]);
        let cmp = compare(&old, &new, 0.1);
        assert!(!cmp.passed(), "empty-unit placeholders must not gate anything");
        assert_eq!(cmp.unit_errors.len(), 2, "flagged on both sides");
        assert!(cmp.text_table().contains("UNIT ERROR"));
    }

    #[test]
    fn unit_mismatch_is_a_unit_error() {
        let old = report(vec![record("a", 1e-3)]);
        let mut changed = record("a", 1e-3);
        changed.throughput_unit = "bytes".to_string();
        let new = report(vec![changed]);
        let cmp = compare(&old, &new, 0.1);
        assert!(!cmp.passed());
        assert_eq!(cmp.unit_errors.len(), 1);
        assert!(cmp.unit_errors[0].contains("unit mismatch"));
        assert!(cmp.entries.is_empty(), "mismatched records are not compared");
    }

    #[test]
    fn per_record_tolerance_overrides_default() {
        let mut lax = record("a", 1e-3);
        lax.tolerance = Some(10.0); // allow 10x
        let old = report(vec![lax]);
        let new = report(vec![record("a", 5e-3)]);
        let cmp = compare(&old, &new, 0.0);
        assert!(cmp.passed(), "5x slowdown is inside the record's own 10x tolerance");
        assert_eq!(cmp.entries[0].tolerance, 10.0);
        let strict = report(vec![record("a", 1e-3)]);
        assert!(!compare(&strict, &new, 0.0).passed(), "without the override it regresses");
    }

    #[test]
    fn differing_hosts_skip_instead_of_compare() {
        let mut o = record("abs/step", 1e-3);
        o.host = Some("hostA".to_string());
        let mut n = record("abs/step", 9e-3);
        n.host = Some("hostB".to_string());
        let cmp = compare(&report(vec![o.clone()]), &report(vec![n.clone()]), 0.0);
        assert!(cmp.passed(), "cross-host absolutes are informational, not gates");
        assert_eq!(cmp.host_skipped, vec!["abs/step".to_string()]);
        n.host = Some("hostA".to_string());
        let cmp = compare(&report(vec![o]), &report(vec![n]), 0.0);
        assert!(!cmp.passed(), "same host compares for real");
    }

    #[test]
    fn v1_reports_without_new_fields_still_parse() {
        let v1 = r#"{
            "schema_version": 1,
            "records": [{
                "name": "a", "samples": 3, "median_s": 0.001, "mean_s": 0.001,
                "min_s": 0.0009, "max_s": 0.0011,
                "throughput": 10.0, "throughput_unit": "elements"
            }]
        }"#;
        let r = BenchReport::from_json(v1).unwrap();
        assert_eq!(r.records[0].tolerance, None);
        assert_eq!(r.records[0].host, None);
    }

    #[test]
    fn report_json_roundtrip() {
        let r = report(vec![record("kernels/dvelcx", 3.25e-4)]);
        let text = r.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("swquake_bench_schema_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let r = report(vec![record("a", 1e-3)]);
        r.write_file(&path).unwrap();
        assert_eq!(BenchReport::read_file(&path).unwrap().unwrap(), r);
        std::fs::remove_file(&path).ok();
    }
}

//! `bench_e2e --compare A.json B.json`: the parent's results against a
//! change's, metric by metric, under the bounds `BENCHMARK.json` fixes.

use serde_json::Value;
use std::fmt::Write;

/// Absolute slack on `setup_s`, s: below this a difference is scheduler
/// jitter on a sub-second quantity, whatever its relative size.
const SETUP_FLOOR_S: f64 = 0.02;

/// One end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end bounds of a parsed `BENCHMARK.json`.
pub fn bounds_from(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark["end_to_end"].as_array().ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m["name"].as_str().ok_or("metric without a name")?.to_string(),
                better: m["better"].as_str().ok_or("metric without a direction")?.to_string(),
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// Not regressed, but a side's interquartile range is wider than the
    /// bound: the runs cannot tell "unchanged" from "worse".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `(median, q1, q3)` of one side of one metric.
type Side = (f64, f64, f64);

/// Judge one metric.
pub fn verdict(rule: &Bound, parent: Side, change: Side) -> Verdict {
    let worse_by = match rule.better.as_str() {
        "lower" => change.0 - parent.0,
        _ => parent.0 - change.0,
    };
    let floor = if rule.name == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
    if worse_by > (rule.bound * parent.0.abs()).max(floor) {
        return Verdict::Regressed;
    }
    let spread = |s: Side| (s.2 - s.1) / s.0.abs();
    if spread(parent) > rule.bound || spread(change) > rule.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn side(results: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = &results["workloads"][workload]["metrics"][metric];
    Some((m["median"].as_f64()?, m["q1"].as_f64()?, m["q3"].as_f64()?))
}

/// The comparison table and whether the change passes (no `regressed`
/// verdict, no workload with a higher failed share).
pub fn compare(parent: &Value, change: &Value, bounds: &[Bound]) -> (String, bool) {
    let mut table = String::new();
    let mut pass = true;
    let workloads: Vec<&str> = parent["workloads"]
        .as_object()
        .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    writeln!(
        table,
        "{:<22} {:<19} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "bound"
    )
    .ok();
    for w in workloads {
        if change["workloads"][w].is_null() {
            writeln!(table, "{w:<22} (absent from the change's results)").ok();
            continue;
        }
        for rule in bounds {
            let (Some(p), Some(c)) = (side(parent, w, &rule.name), side(change, w, &rule.name))
            else {
                continue;
            };
            let v = verdict(rule, p, c);
            pass &= v != Verdict::Regressed;
            let cell = |s: Side| format!("{:.4} [{:.4}, {:.4}]", s.0, s.1, s.2);
            writeln!(
                table,
                "{w:<22} {:<19} {:>34} {:>34} {:>5.0}%  {}",
                rule.name,
                cell(p),
                cell(c),
                rule.bound * 100.0,
                v.as_str()
            )
            .ok();
        }
        let share = |r: &Value| r["workloads"][w]["failed_share"].as_f64().unwrap_or(0.0);
        let (p, c) = (share(parent), share(change));
        let worse = c > p;
        pass &= !worse;
        writeln!(
            table,
            "{w:<22} {:<19} {p:>34.4} {c:>34.4} {:>5.0}%  {}",
            "failed_share",
            0.0,
            if worse { "regressed" } else { "ok" }
        )
        .ok();
    }
    (table, pass)
}

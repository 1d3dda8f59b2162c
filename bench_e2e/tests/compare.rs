//! `--compare`: ok / regressed / unresolved, and the exit rule.

use serde_json::json;
use swq_bench_e2e::compare::{bounds_from, compare, verdict, Bound, Verdict};

fn rule(name: &str, better: &str, bound: f64) -> Bound {
    Bound { name: name.to_string(), better: better.to_string(), bound }
}

#[test]
fn verdicts_follow_the_bound_and_the_spread() {
    let lower = rule("time_to_solution_s", "lower", 0.10);
    assert_eq!(verdict(&lower, (10.0, 9.9, 10.1), (10.5, 10.4, 10.6)), Verdict::Ok);
    assert_eq!(verdict(&lower, (10.0, 9.9, 10.1), (11.5, 11.4, 11.6)), Verdict::Regressed);
    assert_eq!(verdict(&lower, (10.0, 9.9, 10.1), (8.0, 7.9, 8.1)), Verdict::Ok);
    // Spread wider than the bound: cannot call it unchanged.
    assert_eq!(verdict(&lower, (10.0, 9.0, 10.6), (10.2, 10.1, 10.3)), Verdict::Unresolved);
    let higher = rule("mcells_per_s", "higher", 0.10);
    assert_eq!(verdict(&higher, (100.0, 99.0, 101.0), (85.0, 84.0, 86.0)), Verdict::Regressed);
    assert_eq!(verdict(&higher, (100.0, 99.0, 101.0), (120.0, 119.0, 121.0)), Verdict::Ok);
    // setup_s has an absolute floor of 0.02 s.
    let setup = rule("setup_s", "lower", 0.10);
    assert_eq!(verdict(&setup, (0.10, 0.099, 0.101), (0.115, 0.114, 0.116)), Verdict::Ok);
    assert_eq!(verdict(&setup, (0.10, 0.099, 0.101), (0.125, 0.124, 0.126)), Verdict::Regressed);
}

fn results(tts: f64, failed_share: f64) -> serde_json::Value {
    json!({"workloads": {"w": {
        "metrics": {"time_to_solution_s": {"median": tts, "q1": tts * 0.99, "q3": tts * 1.01, "n": 5}},
        "failed_share": failed_share,
    }}})
}

#[test]
fn a_regression_or_more_failures_fail_the_comparison() {
    let benchmark = json!({"end_to_end": [
        {"name": "time_to_solution_s", "unit": "s", "better": "lower", "bound": 0.1}
    ]});
    let bounds = bounds_from(&benchmark).unwrap();
    let (table, pass) = compare(&results(10.0, 0.0), &results(10.2, 0.0), &bounds);
    assert!(pass, "{table}");
    assert!(table.contains("ok"));
    let (table, pass) = compare(&results(10.0, 0.0), &results(12.0, 0.0), &bounds);
    assert!(!pass && table.contains("regressed"), "{table}");
    let (_, pass) = compare(&results(10.0, 0.0), &results(10.0, 0.25), &bounds);
    assert!(!pass, "a higher failed share must fail");
}

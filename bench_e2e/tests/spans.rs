//! Self time = a span's duration minus what its children cover.

use swq_bench_e2e::spans::{self_time_by_name, self_time_ns, Recorder, Span};

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span { name: name.to_string(), start_ns, end_ns, parent }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("step", 0, 100, None),        // 0
        span("kernel", 10, 40, Some(0)),   // 1
        span("kernel", 30, 60, Some(0)),   // 2: overlaps 1 by 10
        span("codec", 70, 80, Some(0)),    // 3
        span("plane", 72, 78, Some(3)),    // 4: grandchild, not step's to subtract
        span("outside", 90, 130, Some(0)), // 5: clipped to the parent's end
    ];
    // Covered: [10, 60) + [70, 80) + [90, 100) = 70.
    assert_eq!(self_time_ns(&spans, 0), 30);
    assert_eq!(self_time_ns(&spans, 1), 30);
    assert_eq!(self_time_ns(&spans, 3), 4);
    assert_eq!(self_time_ns(&spans, 4), 6);
    let rollup = self_time_by_name(&spans);
    let kernel = rollup.iter().find(|r| r.0 == "kernel").unwrap();
    assert_eq!(kernel.1, 2);
    assert!((kernel.2 - 60e-9).abs() < 1e-15 && (kernel.3 - 60e-9).abs() < 1e-15);
}

#[test]
fn recorder_nests_by_call_order_and_exports_every_field() {
    let mut rec = Recorder::new("wl");
    rec.span("outer", |rec| {
        rec.span("inner", |_| ());
        rec.span("inner", |_| ());
    });
    let idx = rec.begin("block");
    rec.end(idx);
    let spans = rec.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert_eq!(spans[3].parent, None);
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    assert_eq!(rec.durations("inner").len(), 2);
    let json = rec.to_json();
    let first = &json["spans"][1];
    for key in ["id", "name", "start_ns", "end_ns", "parent", "workload"] {
        assert!(first.get(key).is_some(), "span field {key}");
    }
    assert_eq!(first["workload"], "wl");
    assert_eq!(first["parent"], 0);
}

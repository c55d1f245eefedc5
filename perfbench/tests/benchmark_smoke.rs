//! Smoke tests of the benchmark itself: each workload repeats exactly and
//! checks clean at a short length, `--compare` flags regressions, and the
//! metric catalogue agrees with `BENCHMARK.json`. (The checker's rejection
//! of wrong answers and wrong thresholds is unit-tested in `check.rs`.)

use topk_perfbench::compare::{bounds, compare, Verdict};
use topk_perfbench::json::{obj, Json};
use topk_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use topk_perfbench::run::{run, RunConfig, RunReport};
use topk_perfbench::workload::Workload;

fn short_run(w: Workload, trace: bool) -> RunReport {
    run(&RunConfig {
        seconds: 120.0,
        max_steps: Some(200),
        trace,
        with_exact: true,
        ..RunConfig::new(w, 7)
    })
}

/// Counts rather than times: these must repeat exactly.
fn deterministic(name: &str) -> bool {
    !(name.contains("_us") || name.ends_with("_s") || name.starts_with("trace."))
}

#[test]
fn every_workload_repeats_exactly_and_checks_clean() {
    for w in Workload::ALL {
        let a = short_run(w, true);
        let b = short_run(w, true);
        for r in [&a, &b] {
            assert!(r.correct(), "{}: {:?}", w.name(), r.first_failure);
            assert_eq!(r.steps, 200);
            assert_eq!(r.value("check_fail_frac"), Some(0.0), "{}", w.name());
        }
        for (def, v) in &a.metrics {
            assert!(v.is_finite(), "{} {}", w.name(), def.name);
            if deterministic(def.name) {
                assert_eq!(Some(*v), b.value(def.name), "{} {}", w.name(), def.name);
            }
        }
        let v = |name| a.value(name).unwrap();
        match w {
            Workload::Silent100k | Workload::Serve100k => assert_eq!(v("msgs_per_step"), 0.0),
            Workload::Churn100k => assert!(v("proto.resets_per_kstep") >= 5.0),
            Workload::Socket256 => {
                assert!(v("wire_bytes_per_step") > 0.0);
                assert_eq!(v("net.retransmit_frames"), 0.0);
                assert_eq!(v("session.dense_route_frac"), 1.0);
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let r = short_run(Workload::Socket256, false);
    assert!(r.correct());
    for def in END_TO_END {
        assert!(r.value(def.name).unwrap() > 0.0, "{}", def.name);
    }
}

fn report(updates_per_s: &[f64], msgs_per_step: f64) -> Json {
    let values = |v: &[f64]| {
        obj([(
            "values",
            Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
        )])
    };
    obj([(
        "workloads",
        obj([(
            "churn-100k",
            obj([(
                "metrics",
                obj([
                    ("updates_per_s", values(updates_per_s)),
                    ("msgs_per_step", values(&[msgs_per_step; 5])),
                ]),
            )]),
        )]),
    )])
}

#[test]
fn compare_flags_a_throughput_drop_and_a_message_count_change() {
    let bounds = vec![("updates_per_s".to_string(), 0.1)];
    let base = [100.0, 101.0, 99.0, 100.0, 100.5];
    let a = report(&base, 3.0);
    let verdict = |b: &Json, metric: &str| {
        compare(&a, b, &bounds)
            .into_iter()
            .find(|r| r.metric == metric)
            .unwrap()
            .verdict
    };

    let same = report(&base, 3.0);
    assert_eq!(verdict(&same, "updates_per_s"), Verdict::Unchanged);
    assert_eq!(verdict(&same, "msgs_per_step"), Verdict::Same);

    let dropped: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
    let b = report(&dropped, 4.0);
    assert_eq!(verdict(&b, "updates_per_s"), Verdict::Worse);
    assert_eq!(verdict(&b, "msgs_per_step"), Verdict::Differs);
    assert!(compare(&a, &b, &bounds)
        .iter()
        .all(|r| r.verdict.is_regression()));
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    let names = |key| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    };
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads"), workloads);
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc.get(key).unwrap().as_arr();
        assert_eq!(listed.len(), table.len(), "{key}");
        for (m, def) in listed.iter().zip(table) {
            let field = |f| m.get(f).unwrap().as_str().unwrap();
            let MetricDef { name, unit, better } = def;
            assert_eq!(
                (field("name"), field("unit"), field("better")),
                (*name, *unit, better.as_str())
            );
        }
    }
    let b = bounds(&doc).unwrap();
    let setup = b.iter().find(|(n, _)| n == "setup_s").unwrap().1;
    assert!(b.iter().all(|&(_, x)| x > 0.0 && x <= setup && x <= 0.25));
}

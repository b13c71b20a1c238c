//! Short runs of every workload: each prints every metric `BENCHMARK.json`
//! names, with its unit, and passes every check on this tree; the exact
//! counts of the traced run repeat; and a corrupted reference is caught.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;
use tfe_encode::Value;

const WORKLOADS: [&str; 3] = ["l2hmc_cpu", "classifier_train", "dp_train"];
const EXACT: [&str; 5] = [
    "runtime.eager_ops_per_step",
    "graph.nodes_optimized",
    "dist.wire_bytes_per_step",
    "dist.rpcs_per_step",
    "state.ckpt_bytes",
];

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in section `key` of `BENCHMARK.json`.
fn named(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Result {
    correct: bool,
    failed: i64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Result {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let v = Value::parse(last).expect("the last line is JSON");
    let obj = v.as_object().expect("an object");
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{workload}");
    let metrics = obj["metrics"]
        .as_object()
        .expect("metrics")
        .iter()
        .map(|(k, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit").to_string();
            (k.clone(), (value, unit))
        })
        .collect();
    Result {
        correct: obj["correct"].as_bool().expect("correct"),
        failed: obj["failed"].as_i64().expect("failed"),
        metrics,
    }
}

fn assert_named(workload: &str, r: &Result, names: &[(String, String)]) {
    let got: Vec<&String> = r.metrics.keys().collect();
    let mut want: Vec<&String> = names.iter().map(|(n, _)| n).collect();
    want.sort();
    assert_eq!(got, want, "{workload}: metric names");
    for (name, unit) in names {
        assert_eq!(&r.metrics[name].1, unit, "{workload}: unit of {name}");
    }
}

#[test]
fn every_workload_reports_every_metric_and_checks_fail_on_a_bad_reference() {
    let spec = spec();
    let (end_to_end, per_layer) = (named(&spec, "end_to_end"), named(&spec, "per_layer"));
    for workload in WORKLOADS {
        let r = run(workload, false, &[]);
        assert_named(workload, &r, &end_to_end);
        assert!(r.correct, "{workload}: {} checks failed", r.failed);
        assert_eq!(r.metrics["ok_share"].0, 1.0, "{workload}");

        let (a, b) = (run(workload, true, &[]), run(workload, true, &[]));
        assert_named(workload, &a, &per_layer);
        assert!(a.correct && b.correct, "{workload}: traced run checks failed");
        for name in EXACT {
            assert_eq!(a.metrics[name].0, b.metrics[name].0, "{workload}: {name} repeats");
            assert!(a.metrics[name].0 > 0.0, "{workload}: {name} counted");
        }

        let bad = run(workload, false, &["--corrupt-reference"]);
        assert!(!bad.correct && bad.failed > 0, "{workload}: corrupted reference not caught");
        assert!(bad.metrics["ok_share"].0 < 1.0, "{workload}");
    }
}

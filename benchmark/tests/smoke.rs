//! The benchmark's own smoke test: a short run of each workload prints
//! every metric `BENCHMARK.json` names, with its unit, and a corrupted
//! copy of a reference answer makes the correctness gate fail.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 4] = ["solve", "service-hot", "service-churn", "routed-hot"];

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Run the benchmark; returns the parsed last line of its output.
fn run(workload: &str, trace: bool, corrupt: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_gmm-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--corrupt", if corrupt { "1" } else { "0" }])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        out.status
    );
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark prints a result");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: result line {last:?}: {e}"))
}

fn assert_metrics(workload: &str, result: &Value, wanted: &Value) {
    let metrics = result.get("metrics").expect("result has metrics");
    for m in wanted.as_array().expect("metric list") {
        let name = m.get("name").and_then(|v| v.as_str()).expect("metric name");
        let unit = m.get("unit").and_then(|v| v.as_str()).expect("metric unit");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: no metric {name}"));
        assert_eq!(
            got.get("unit").and_then(|v| v.as_str()),
            Some(unit),
            "{workload}: unit of {name}"
        );
        assert!(
            got.get("value").and_then(|v| v.as_f64()).is_some(),
            "{workload}: value of {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let spec = spec();
    for w in WORKLOADS {
        let e2e = run(w, false, false);
        assert_eq!(e2e.get("correct"), Some(&Value::Bool(true)), "{w}: {e2e:?}");
        assert_eq!(e2e.get("failed").and_then(|v| v.as_u64()), Some(0), "{w}");
        assert_metrics(w, &e2e, spec.get("end_to_end").expect("end_to_end"));

        let traced = run(w, true, false);
        assert_eq!(
            traced.get("correct"),
            Some(&Value::Bool(true)),
            "{w}: {traced:?}"
        );
        assert_metrics(w, &traced, spec.get("per_layer").expect("per_layer"));
    }
}

#[test]
fn a_corrupted_reference_fails_the_gate() {
    for w in WORKLOADS {
        let r = run(w, false, true);
        assert_eq!(r.get("correct"), Some(&Value::Bool(false)), "{w}: {r:?}");
        assert!(
            r.get("failed").and_then(|v| v.as_u64()).unwrap_or(0) >= 1,
            "{w}: {r:?}"
        );
    }
}

//! Runs the built binary at `--smoke` sizes and holds what it prints
//! against `BENCHMARK.json`: every workload runs both ways, every check
//! passes, and the last line of standard output carries exactly the listed
//! metrics with the listed units.

use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("valid JSON")
}

fn listed(json: &Value, key: &str) -> Vec<(String, String)> {
    let text = |e: &Value, field: &str| {
        e.get(field)
            .and_then(Value::as_str)
            .expect(field)
            .to_string()
    };
    json.get(key)
        .and_then(Value::as_array)
        .expect(key)
        .iter()
        .map(|e| {
            (
                text(e, "name"),
                e.get("unit").map_or(String::new(), |_| text(e, "unit")),
            )
        })
        .collect()
}

/// Run one workload at smoke size; return its standard output.
fn smoke_stdout(workload: &str, trace: &str, seed: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_e2e"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Run one workload at smoke size; return the parsed last line.
fn smoke(workload: &str, trace: &str, seed: &str) -> Value {
    let stdout = smoke_stdout(workload, trace, seed);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {last}"))
}

fn assert_result(result: &Value, expected: &[(String, String)], what: &str) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1,
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Value::as_f64)
                    .expect("value")
                    .is_finite(),
                "{what} {name}"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(printed, expected, "{what}");
}

#[test]
fn every_workload_prints_every_listed_metric_with_its_unit() {
    let json = benchmark_json();
    let end_to_end = listed(&json, "end_to_end");
    let per_layer = listed(&json, "per_layer");
    for (workload, _) in listed(&json, "workloads") {
        let result = smoke(&workload, "0", "2024");
        assert_result(&result, &end_to_end, &workload);
        for (name, m) in result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics")
        {
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }
        assert_result(&smoke(&workload, "1", "2024"), &per_layer, &workload);
    }
}

/// Simulated metrics are exact. `model_cost` is read on the reference
/// scenario, so it is the same to the last bit in every run, whatever the
/// seed; `sim_digest` covers the scenarios drawn from `--seed` as well, so
/// it repeats for a seed and moves with it.
#[test]
fn model_cost_is_exact_and_the_digest_follows_the_seed() {
    let run = |seed| {
        let stdout = smoke_stdout("market_faulted_full", "0", seed);
        let line = |key: &str| {
            stdout
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .unwrap_or_else(|| panic!("no {key} line"))
                .to_string()
        };
        (line("model_cost "), line("sim_digest "))
    };
    let (cost_7, digest_7) = run("7");
    assert_eq!(run("7"), (cost_7.clone(), digest_7.clone()));
    let (cost_8, digest_8) = run("8");
    assert_eq!(cost_7, cost_8);
    assert_ne!(digest_7, digest_8);
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_e2e"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
}

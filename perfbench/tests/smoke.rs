//! Runs the real binary on every workload in `--quick` mode, both with and
//! without tracing, and checks its output against `BENCHMARK.json`: every
//! metric named there is printed exactly once with a finite value, and the
//! staged replay's spans cover the replay.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::json::{parse, Value};
use perfbench::report::write_guarded;

const EXE: &str = env!("CARGO_BIN_EXE_perfbench");

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

/// Runs one quick workload and returns its whole stdout.
fn quick_run(workload: &str, trace: bool) -> String {
    let out = Command::new(EXE)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--quick")
        .arg("--work-dir")
        .arg(tmp("work"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn benchmark_json_is_what_the_tables_describe() {
    let out = Command::new(EXE)
        .arg("describe")
        .output()
        .expect("perfbench runs");
    let described =
        parse(String::from_utf8_lossy(&out.stdout).trim()).expect("describe prints JSON");
    assert_eq!(
        described,
        benchmark_json(),
        "regenerate BENCHMARK.json with `perfbench describe`"
    );
}

#[test]
fn every_workload_prints_every_metric_once() {
    let doc = benchmark_json();
    for (workload, _) in names(&doc, "workloads") {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let stdout = quick_run(&workload, trace);
            let line = stdout.lines().last().expect("a result line");
            let result = parse(line).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));

            let metrics = result
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics");
            let expected = names(&doc, key);
            assert_eq!(metrics.len(), expected.len(), "{workload} {key}");
            for (name, unit) in &expected {
                let hits: Vec<_> = metrics.iter().filter(|(k, _)| k == name).collect();
                assert_eq!(
                    hits.len(),
                    1,
                    "{workload}: {name} printed {} times",
                    hits.len()
                );
                let m = &hits[0].1;
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                // The human-readable listing names it once, too.
                let listed = stdout
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
                    .count();
                assert_eq!(listed, 1, "{workload}: {name} listed {listed} times");
            }
            if !trace {
                for (name, _) in &expected {
                    let v = metrics
                        .iter()
                        .find(|(k, _)| k == name)
                        .unwrap()
                        .1
                        .get("value");
                    assert!(
                        v.and_then(Value::as_f64) > Some(0.0),
                        "{workload}: end-to-end {name} must never be 0"
                    );
                }
            } else {
                let coverage = metrics
                    .iter()
                    .find(|(k, _)| k == "trace.coverage_ratio")
                    .and_then(|(_, m)| m.get("value")?.as_f64())
                    .expect("trace.coverage_ratio");
                assert!(coverage >= 0.95, "{workload}: span coverage {coverage}");
            }
        }
    }
}

#[test]
fn quick_results_never_replace_full_ones() {
    let path = tmp("guard").join("result.json");
    let full = Value::obj([("quick", Value::from(false))]);
    let quick = Value::obj([("quick", Value::from(true))]);
    write_guarded(&path, &full, false).unwrap();
    assert!(write_guarded(&path, &quick, true).is_err());
    write_guarded(&path, &full, false).unwrap();
    std::fs::remove_file(&path).unwrap();
    write_guarded(&path, &quick, true).unwrap();
    write_guarded(&path, &quick, true).unwrap();
}

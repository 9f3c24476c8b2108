//! `perfbench suite` runs every workload several times and writes one set
//! file; `perfbench compare` puts two set files side by side, one row per
//! (workload, end-to-end metric).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{parse, Value};
use crate::metrics::{Better, END_TO_END};
use crate::report::{host, write_guarded};
use crate::stats::{median, spread};
use crate::workload::WORKLOADS;

#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Untraced runs per workload, on seeds `first_seed..first_seed + runs`.
    pub runs: u64,
    pub first_seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: PathBuf,
    pub work_dir: PathBuf,
}

/// Runs one workload in a child process of its own — so its peak RSS is
/// its own — and returns the parsed result line.
fn child_run(opts: &SuiteOptions, workload: &str, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&opts.work_dir)
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload} seed {seed}: no output"))?;
    let result = parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exited with {}: {line}",
            out.status
        ));
    }
    Ok(result)
}

fn metric_values(result: &Value) -> Vec<(String, String, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                m.get("unit")?.as_str()?.to_string(),
                m.get("value")?.as_f64()?,
            ))
        })
        .collect()
}

/// Runs the whole set and writes the set file.
pub fn suite(opts: &SuiteOptions) -> Result<(), String> {
    let seeds: Vec<u64> = (opts.first_seed..opts.first_seed + opts.runs).collect();
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        for &seed in &seeds {
            eprintln!("suite: {} seed {seed}", w.name);
            let result = child_run(opts, w.name, seed, false)?;
            attempted += result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
            for (name, unit, value) in metric_values(&result) {
                match series.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, _, values)) => values.push(value),
                    None => series.push((name, unit, vec![value])),
                }
            }
        }
        eprintln!("suite: {} traced", w.name);
        let traced = child_run(opts, w.name, opts.first_seed, true)?;
        correct &= traced.get("correct").and_then(Value::as_bool) == Some(true);
        workloads.push((
            w.name.to_string(),
            Value::obj([
                ("correct", Value::from(correct)),
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                (
                    "end_to_end",
                    Value::Obj(
                        series
                            .into_iter()
                            .map(|(name, unit, values)| {
                                (
                                    name,
                                    Value::obj([
                                        ("unit", Value::from(unit)),
                                        ("samples", Value::from(values.len())),
                                        ("median", Value::Num(median(&values))),
                                        ("spread", Value::Num(spread(&values).unwrap_or(0.0))),
                                        (
                                            "values",
                                            Value::Arr(
                                                values.into_iter().map(Value::Num).collect(),
                                            ),
                                        ),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Value::Null),
                ),
            ]),
        ));
    }
    let doc = Value::obj([
        ("schema", Value::from("perfbench-set-v1")),
        ("host", host()),
        ("quick", Value::from(opts.quick)),
        ("seconds", Value::from(opts.seconds)),
        (
            "seeds",
            Value::Arr(seeds.iter().map(|&s| Value::from(s)).collect()),
        ),
        ("workloads", Value::Obj(workloads)),
    ]);
    write_guarded(&opts.out, &doc, opts.quick)
}

fn load_set(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Value::as_str) != Some("perfbench-set-v1") {
        return Err(format!("{}: not a perfbench set file", path.display()));
    }
    Ok(doc)
}

fn series(set: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    set.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so the
    /// medians cannot resolve a change of that size.
    Unresolved,
}

/// The rule of one row: `b` against the base `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // The same values seed for seed: nothing changed, however much the
    // seeds differ from one another (deterministic metrics).
    if a == b {
        return Verdict::Ok;
    }
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if widest > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Lower => mb > ma * (1.0 + bound),
        Better::Higher => mb < ma * (1.0 - bound),
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison table; `Ok(true)` when every row is `ok`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    println!("base a = {}", a_path.display());
    println!("     b = {}", b_path.display());
    println!(
        "{:<13} {:<19} {:>13} {:>13}  {:<26} {:>6} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "b/a (base a)", "bound", "spread"
    );
    let mut all_ok = true;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (series(&a, w.name, m.name), series(&b, w.name, m.name))
            else {
                println!("{:<13} {:<19} missing from one of the sets", w.name, m.name);
                all_ok = false;
                continue;
            };
            let (ma, mb) = (median(&va), median(&vb));
            let v = verdict(&va, &vb, m.better, m.bound);
            all_ok &= v == Verdict::Ok;
            let widest = spread(&va).unwrap_or(0.0).max(spread(&vb).unwrap_or(0.0));
            let label = match v {
                Verdict::Ok if va == vb => "ok (identical)",
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{:<13} {:<19} {:>13.4} {:>13.4}  {:<26} {:>5.0}% {:>7.1}%  {label}",
                w.name,
                m.name,
                ma,
                mb,
                format!("{:.4} (a = {:.4} {})", mb / ma, ma, m.unit),
                m.bound * 100.0,
                widest * 100.0,
            );
        }
        for (side, set) in [("a", &a), ("b", &b)] {
            let failed = set
                .get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|w| w.get("failed"))
                .and_then(Value::as_f64);
            if failed != Some(0.0) {
                println!("{:<13} failed operations in set {side}: {failed:?}", w.name);
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_uses_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let slow = [85.0, 86.0, 84.0, 85.5, 84.5];
        let noisy = [100.0, 140.0, 60.0, 120.0, 80.0];
        assert_eq!(verdict(&base, &same, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(verdict(&base, &slow, Better::Higher, 0.10), Verdict::Worse);
        // Lower is better: a smaller median is no regression.
        assert_eq!(verdict(&base, &slow, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&base, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&noisy, &noisy, Better::Higher, 0.10), Verdict::Ok);
    }
}

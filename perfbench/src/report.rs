//! The result envelope every output shares: host block, seed, frozen work,
//! sample counts beside every percentile — plus the one-line result the
//! driver reads.

use std::path::Path;
use std::process::Command;

use crate::json::{parse, Value};
use crate::run::{RunOptions, RunResult};

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The instruction-set extensions the binary was compiled to assume, which
/// is what a `-C target-cpu` setting changes.
fn target_cpu() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else {
        "generic"
    }
}

/// Where the numbers were measured.
pub fn host() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unknown = || "unknown".to_string();
    Value::obj([
        ("nproc", Value::from(nproc)),
        ("cpu_model", Value::from(cpu_model)),
        (
            "rustc",
            Value::from(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_sha",
            Value::from(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("target_cpu", Value::from(target_cpu())),
    ])
}

fn metrics_value(result: &RunResult) -> Value {
    Value::Obj(
        result
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::obj([
                        ("value", Value::Num(m.value)),
                        ("unit", Value::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    Value::obj([
        ("correct", Value::from(result.correct)),
        ("attempted", Value::from(result.attempted)),
        ("failed", Value::from(result.failed)),
        ("metrics", metrics_value(result)),
    ])
    .to_json()
}

/// The result file: the line above inside the shared envelope.
pub fn result_file(opts: &RunOptions, result: &RunResult) -> Value {
    Value::obj([
        ("schema", Value::from("perfbench-result-v1")),
        ("host", host()),
        ("workload", Value::from(opts.workload.as_str())),
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        ("trace", Value::from(opts.trace)),
        ("quick", Value::from(opts.quick)),
        ("correct", Value::from(result.correct)),
        ("attempted", Value::from(result.attempted)),
        ("failed", Value::from(result.failed)),
        (
            "problems",
            Value::Arr(
                result
                    .problems
                    .iter()
                    .map(|p| Value::from(p.as_str()))
                    .collect(),
            ),
        ),
        ("metrics", metrics_value(result)),
        ("detail", result.detail.clone()),
    ])
}

/// Writes `doc` to `path`, refusing to replace the result of a full run
/// with that of a `--quick` one.
pub fn write_guarded(path: &Path, doc: &Value, quick: bool) -> Result<(), String> {
    if quick {
        let existing_is_full = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| parse(&text).ok())
            .and_then(|old| old.get("quick").and_then(Value::as_bool))
            == Some(false);
        if existing_is_full {
            return Err(format!(
                "{}: holds the result of a full run; a --quick run will not overwrite it",
                path.display()
            ));
        }
    }
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

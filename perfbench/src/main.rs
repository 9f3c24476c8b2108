//! `perfbench` command line. The driver's form is
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`;
//! `suite`, `compare` and `describe` are the ledger's own tools.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::compare::{compare, suite, SuiteOptions};
use perfbench::json::Value;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::report::{result_file, result_line, write_guarded};
use perfbench::run::{run, RunOptions};
use perfbench::workload::WORKLOADS;

/// How long one run measures; frozen in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 8;

const USAGE: &str = "usage:
  perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--work-dir <dir>] [--out <file>]
  perfbench suite --out <file> [--runs <n>] [--first-seed <n>] [--seconds <s>] [--quick] [--work-dir <dir>]
  perfbench compare <a.json> <b.json>
  perfbench describe";

/// Scratch space inside the checkout: next to the build output.
fn default_work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench-work")
}

struct Flags {
    values: Vec<(String, String)>,
    quick: bool,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: Vec::new(),
            quick: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                flags.quick = true;
                continue;
            }
            if !known.contains(&flag.as_str()) {
                return Err(format!(
                    "unknown flag {flag} (known: {} --quick)",
                    known.join(" ")
                ));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.values.push((flag.clone(), value.clone()));
        }
        Ok(flags)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.num(flag)?
            .ok_or_else(|| format!("{flag} is required\n{USAGE}"))
    }
}

fn run_one(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--work-dir",
            "--out",
        ],
    )?;
    let seconds: f64 = flags.required("--seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds: must be positive, got {seconds}"));
    }
    let trace = match flags.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other}")),
    };
    let work = flags
        .get("--work-dir")
        .map_or_else(default_work_dir, PathBuf::from);
    let scratch = work.join(format!("run-{}", std::process::id()));
    let opts = RunOptions {
        workload: flags.required("--workload")?,
        seed: flags.required("--seed")?,
        seconds,
        trace,
        quick: flags.quick,
        work_dir: scratch.clone(),
        trace_dir: work.join("traces"),
    };
    let outcome = run(&opts);
    let _ = std::fs::remove_dir_all(&scratch);
    let result = outcome?;

    println!(
        "perfbench {} seed {} seconds {} trace {}{}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.quick { " (quick)" } else { "" }
    );
    if let Some(table) = &result.waterfall {
        print!("{table}");
    }
    for m in &result.metrics {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for problem in &result.problems {
        println!("  FAILED CHECK: {problem}");
    }
    let out = flags.get("--out").map_or_else(
        || {
            work.join("results").join(format!(
                "{}-trace{}-seed{}.json",
                opts.workload,
                u8::from(opts.trace),
                opts.seed
            ))
        },
        PathBuf::from,
    );
    write_guarded(&out, &result_file(&opts, &result), opts.quick)?;
    println!("  result file: {}", out.display());
    println!("{}", result_line(&result));
    Ok(result.correct)
}

fn run_suite(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["--out", "--runs", "--first-seed", "--seconds", "--work-dir"],
    )?;
    let opts = SuiteOptions {
        runs: flags.num("--runs")?.unwrap_or(5),
        first_seed: flags.num("--first-seed")?.unwrap_or(1),
        seconds: flags.num("--seconds")?.unwrap_or(RUN_SECONDS as f64),
        quick: flags.quick,
        out: flags.required::<PathBuf>("--out")?,
        work_dir: flags
            .get("--work-dir")
            .map_or_else(default_work_dir, PathBuf::from),
    };
    suite(&opts)?;
    println!("set file: {}", opts.out.display());
    Ok(true)
}

/// `BENCHMARK.json`, generated from the tables the benchmark itself uses.
fn describe() -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "perfbench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Value::from)
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::from("perfbench")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::from(w.name)), ("why", Value::from(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("suite") => run_suite(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare(a.as_ref(), b.as_ref()),
            _ => Err(format!("compare takes two set files\n{USAGE}")),
        },
        Some("describe") => {
            println!("{}", describe().to_json());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => run_one(args),
        _ => Err(USAGE.to_string()),
    }
}

/// Keeps freed memory inside the process for the length of a run.
///
/// Every chunk, InsLearn copies the whole model state at least twice and
/// publish exports every table: tens to hundreds of megabytes allocated and
/// freed per chunk. With glibc's defaults those blocks are mapped and
/// unmapped each time (or live in per-thread heaps that are unmapped when
/// empty), so a third of a run's CPU time was kernel page-fault work, and on
/// the reference microVM that share — not the user-mode work — was what moved
/// from run to run (user time within 2 %, kernel time 2.7–4.6 s on identical
/// input). One arena, grown with `brk` and never trimmed, recycles the blocks
/// instead. The setting is the same on every commit, and the copies still
/// cost their `memcpy`, which is what a change to them would save.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn retain_freed_memory() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_TOP_PAD: c_int = -2;
    const M_MMAP_THRESHOLD: c_int = -3;
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // integers, touches no memory of ours, and runs here before any other
    // thread exists. A rejected setting returns 0 and leaves the default.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        mallopt(M_TOP_PAD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn retain_freed_memory() {}

fn main() -> ExitCode {
    retain_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // A failed check or a regression: the result was printed.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

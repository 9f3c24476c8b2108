//! End-to-end smoke test of the `supa` CLI binary: generate → stats → mine →
//! train → evaluate → recommend over a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_supa"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("supa-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn full_pipeline_runs() {
    let data = tmp("taobao.tsv");
    let ckpt = tmp("taobao.ckpt");

    // generate
    let out = bin()
        .args([
            "generate",
            "--dataset",
            "taobao",
            "--scale",
            "0.005",
            "--seed",
            "3",
            "--out",
            data.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stats
    let out = bin()
        .args(["stats", "--data", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("|E|="), "stats output: {stdout}");
    assert!(stdout.contains("degree"));

    // ingest --out: the canonical file's header precedes the edges it
    // streams, so its first line states the node universe and no edge or
    // timestamp count.
    let canon = tmp("taobao-canon.tsv");
    let out = bin()
        .args([
            "ingest",
            "--data",
            data.to_str().unwrap(),
            "--out",
            canon.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let source = std::fs::read_to_string(&data).unwrap();
    let written = std::fs::read_to_string(&canon).unwrap();
    let first = written.lines().next().unwrap();
    let nodes = |line: &str| {
        line.split_whitespace()
            .find(|t| t.starts_with("|V|="))
            .map(String::from)
    };
    assert!(first.starts_with("# taobao: |V|="), "first line: {first}");
    assert_eq!(
        nodes(first),
        nodes(source.lines().next().unwrap()),
        "first line: {first}"
    );
    assert!(
        !first.contains("|E|") && !first.contains("|T|"),
        "first line: {first}"
    );
    let edges = |text: &str| text.lines().filter(|l| l.starts_with("edge ")).count();
    assert_eq!(edges(&written), edges(&source));

    // mine
    let out = bin()
        .args(["mine", "--data", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("support"),
        "mine produced no schemas"
    );

    // train (small settings so the test stays quick)
    let out = bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            ckpt.to_str().unwrap(),
            "--dim",
            "16",
            "--n-iter",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.exists());

    // evaluate (sampled for speed) — must parse a sane MRR.
    let out = bin()
        .args([
            "evaluate",
            "--data",
            data.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--dim",
            "16",
            "--sampled",
            "50",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mrr: f64 = stdout
        .split("MRR")
        .nth(1)
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("no MRR in: {stdout}"));
    assert!(mrr > 0.0 && mrr <= 1.0);

    // recommend
    let out = bin()
        .args([
            "recommend",
            "--data",
            data.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--dim",
            "16",
            "--user",
            "0",
            "--relation",
            "PageView",
            "--top",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1."), "no ranked list: {stdout}");

    // serve (tiny closed loop: 2 readers × 40 queries, epoch verification on)
    let out = bin()
        .args([
            "serve",
            "--data",
            data.to_str().unwrap(),
            "--dim",
            "16",
            "--readers",
            "2",
            "--queries",
            "40",
            "--batch",
            "128",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("torn reads 0"), "serve output: {stdout}");
    assert!(stdout.contains("probe digest"), "serve output: {stdout}");
}

#[test]
fn dim_mismatch_is_a_clean_error() {
    let data = tmp("mismatch.tsv");
    let ckpt = tmp("mismatch.ckpt");
    let mut args = vec![
        "generate",
        "--dataset",
        "uci",
        "--scale",
        "0.004",
        "--seed",
        "1",
        "--out",
    ];
    args.push(data.to_str().unwrap());
    assert!(bin().args(&args).output().unwrap().status.success());
    let out = bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            ckpt.to_str().unwrap(),
            "--dim",
            "16",
            "--n-iter",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Evaluating with the wrong --dim must fail with a message, not panic.
    let out = bin()
        .args([
            "evaluate",
            "--data",
            data.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--dim",
            "32",
            "--sampled",
            "20",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "expected a clean error"
    );
}

#[test]
fn bad_invocations_fail_cleanly() {
    for args in [
        vec!["nope"],
        vec![
            "train",
            "--data",
            "/definitely/not/here.tsv",
            "--out",
            "/tmp/x",
        ],
        vec!["generate", "--dataset", "taobao"], // missing --out
        // typo'd flag: must be rejected by name, not silently defaulted
        vec!["train", "--data", "/tmp/x.tsv", "--checkpont-dir", "/tmp/c"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    }

    let out = bin()
        .args(["serve", "--data", "/tmp/x.tsv", "--cheese", "brie"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--cheese"), "error must name the flag: {err}");
}

#[test]
fn help_prints_usage_and_flags() {
    // `supa --help`, `supa help`, and `--help` anywhere among a command's
    // flags: the text goes to stdout and the exit code is 0.
    for (args, want) in [
        (&["--help"][..], "usage: supa <"),
        (&["help"], "usage: supa <"),
        (&["serve", "--help"], "  --stream-tsv VALUE\n"),
        (&["serve", "--help"], "  --ann\n"),
        (
            &["ingest", "--data", "/definitely/not/here.tsv", "--help"],
            "  --out VALUE",
        ),
    ] {
        let out = bin().args(args).output().unwrap();
        assert!(out.status.success(), "args {args:?} should succeed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(want), "{args:?}: {stdout}");
    }
}

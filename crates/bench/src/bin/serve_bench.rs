//! `serve_bench` — seeded serving benchmark, closed- or open-loop.
//!
//! Replays a synthetic dataset's event stream through the `supa-serve`
//! engine while reader threads issue query traffic, then prints the
//! throughput/latency/staleness report. Exits non-zero if any torn read is
//! observed or no queries were served.
//!
//! ```text
//! serve_bench [--dataset taobao] [--scale 0.02] [--events 0(=all)]
//!             [--stream-tsv FILE] [--interner-budget 0(=default)]
//!             [--readers 4] [--queries 500] [--top 10] [--batch 64]
//!             [--dim 16] [--seed 7] [--workers 1] [--shards 1] [--verify]
//!             [--ann] [--ef-search 64] [--guard-every 64] [--min-recall 0.95]
//!             [--shed-policy block|drop-oldest|sample-1-in-k] [--sample-k 8]
//!             [--queue 0(=default)] [--metrics-dump FILE]
//!             [--open-loop] [--arrival-rate 0(=calibrate)]
//!             [--overload-factor 2.0] [--max-p99-us 0(=unbounded)]
//!             [--expect-shed]
//! ```
//!
//! `--stream-tsv FILE` switches the closed-loop bench to file replay: the
//! dump's edges are streamed straight off disk through `supa-ingest`
//! (never materialised in memory) instead of generating a synthetic
//! dataset. A well-formed dump written by `supa generate` produces the
//! same probe digest either way.
//!
//! The `events offered / admitted / applied` counts, epoch count, and probe
//! digest are deterministic for a fixed seed; QPS and latency quantiles are
//! machine-dependent. The report splits cached and uncached query traffic
//! into separate QPS/latency columns, since cache hits otherwise flatter
//! the aggregate p50.
//!
//! `--shards N` runs the N-way user-sharded engine. `--shards 1` (the
//! default) is the single-writer engine, bit-identical to prior releases;
//! every `N >= 2` pins one deterministic probe digest, independent of the
//! shard count and the host's core count.
//!
//! `--ann` serves queries through per-epoch `supa-ann` indexes; the run
//! fails if the sampled guard recall drops below `--min-recall` (so CI can
//! gate ANN serving quality exactly as it gates torn reads).
//!
//! `--open-loop` switches to Poisson arrivals at `--arrival-rate` events/s
//! that do **not** slow down when the engine lags — the overload scenario
//! admission control exists for. With `--arrival-rate 0` the bench first
//! times a closed-loop replay to estimate the sustainable ingest rate, then
//! offers `--overload-factor` times that. The run fails on any torn read,
//! on a query p99 above `--max-p99-us` (when set), and — under
//! `--expect-shed` — if the admission layer shed nothing (the overload was
//! not an overload).

use std::process::ExitCode;
use std::time::Instant;

use supa::{InsLearnConfig, Supa, SupaConfig};
use supa_datasets::{all_datasets, Dataset};
use supa_ingest::{scan_tsv, IngestOptions};
use supa_serve::{
    run_closed_loop, run_open_loop, run_streamed_closed_loop, AdmissionOptions, AnnOptions,
    LoadConfig, OpenLoopConfig, ServeConfig, ShedPolicy,
};

struct Args {
    dataset: String,
    scale: f64,
    events: usize,
    readers: usize,
    queries: usize,
    top: usize,
    batch: usize,
    dim: usize,
    seed: u64,
    workers: usize,
    shards: usize,
    verify: bool,
    ann: bool,
    ef_search: usize,
    guard_every: u64,
    min_recall: f64,
    shed_policy: ShedPolicy,
    sample_k: u32,
    queue: usize,
    metrics_dump: Option<std::path::PathBuf>,
    stream_tsv: Option<std::path::PathBuf>,
    interner_budget: usize,
    open_loop: bool,
    arrival_rate: f64,
    overload_factor: f64,
    max_p99_us: f64,
    expect_shed: bool,
}

fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        dataset: "taobao".into(),
        scale: 0.02,
        events: 0,
        readers: 4,
        queries: 500,
        top: 10,
        batch: 64,
        dim: 16,
        seed: 7,
        workers: 1,
        shards: 1,
        verify: false,
        ann: false,
        ef_search: AnnOptions::default().ef_search,
        guard_every: AnnOptions::default().guard_every,
        min_recall: AnnOptions::default().min_recall,
        shed_policy: ShedPolicy::Block,
        sample_k: AdmissionOptions::default().sample_k,
        queue: 0,
        metrics_dump: None,
        stream_tsv: None,
        interner_budget: 0,
        open_loop: false,
        arrival_rate: 0.0,
        overload_factor: 2.0,
        max_p99_us: 0.0,
        expect_shed: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--verify" {
            a.verify = true;
            continue;
        }
        if flag == "--ann" {
            a.ann = true;
            continue;
        }
        if flag == "--open-loop" {
            a.open_loop = true;
            continue;
        }
        if flag == "--expect-shed" {
            a.expect_shed = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--dataset" => a.dataset = v.clone(),
            "--scale" => a.scale = num(&flag, &v)?,
            "--events" => a.events = num(&flag, &v)?,
            "--readers" => a.readers = num(&flag, &v)?,
            "--queries" => a.queries = num(&flag, &v)?,
            "--top" => a.top = num(&flag, &v)?,
            "--batch" => a.batch = num(&flag, &v)?,
            "--dim" => a.dim = num(&flag, &v)?,
            "--seed" => a.seed = num(&flag, &v)?,
            "--workers" => a.workers = num(&flag, &v)?,
            "--shards" => a.shards = num(&flag, &v)?,
            "--ef-search" => a.ef_search = num(&flag, &v)?,
            "--guard-every" => a.guard_every = num(&flag, &v)?,
            "--min-recall" => a.min_recall = num(&flag, &v)?,
            "--shed-policy" => a.shed_policy = v.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--sample-k" => a.sample_k = num(&flag, &v)?,
            "--queue" => a.queue = num(&flag, &v)?,
            "--metrics-dump" => a.metrics_dump = Some(v.clone().into()),
            "--stream-tsv" => a.stream_tsv = Some(v.clone().into()),
            "--interner-budget" => a.interner_budget = num(&flag, &v)?,
            "--arrival-rate" => a.arrival_rate = num(&flag, &v)?,
            "--overload-factor" => a.overload_factor = num(&flag, &v)?,
            "--max-p99-us" => a.max_p99_us = num(&flag, &v)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

fn build_model(d: &Dataset, a: &Args) -> Result<Supa, String> {
    let cfg = SupaConfig {
        dim: a.dim,
        ..SupaConfig::small()
    };
    Ok(Supa::from_dataset(d, cfg, a.seed)
        .map_err(|e| e.to_string())?
        .with_inslearn(InsLearnConfig {
            batch_size: a.batch.max(1024),
            ..InsLearnConfig::fast()
        }))
}

fn serve_config(a: &Args) -> ServeConfig {
    let mut cfg = ServeConfig {
        train_batch: a.batch,
        workers: a.workers,
        shards: a.shards,
        ann: a.ann.then(|| AnnOptions {
            ef_search: a.ef_search,
            guard_every: a.guard_every,
            min_recall: a.min_recall,
            seed: a.seed,
            ..AnnOptions::default()
        }),
        admission: AdmissionOptions {
            policy: a.shed_policy,
            sample_k: a.sample_k,
            ..AdmissionOptions::default()
        },
        ..ServeConfig::default()
    };
    if a.queue > 0 {
        cfg.queue_capacity = a.queue;
    }
    cfg
}

fn load_config(a: &Args) -> LoadConfig {
    LoadConfig {
        readers: a.readers,
        top_k: a.top,
        queries_per_reader: a.queries,
        seed: a.seed,
        warmup_per_reader: 8,
        verify: a.verify,
        metrics_dump: a.metrics_dump.clone(),
        ..LoadConfig::default()
    }
}

/// Times a quiet closed-loop replay (no readers, default `block` admission)
/// to estimate the sustainable ingest rate in events/s.
fn calibrate_rate(d: &Dataset, a: &Args) -> Result<f64, String> {
    let model = build_model(d, a)?;
    let cfg = ServeConfig {
        train_batch: a.batch,
        workers: a.workers,
        ..ServeConfig::default()
    };
    let load = LoadConfig {
        readers: 0,
        queries_per_reader: 0,
        seed: a.seed,
        verify: false,
        metrics_dump: None,
        ..LoadConfig::default()
    };
    let t0 = Instant::now();
    let report = run_closed_loop(d, model, cfg, load).map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64().max(1e-6);
    Ok((report.events_offered as f64 / secs).max(1.0))
}

fn run_closed(d: &Dataset, a: &Args) -> Result<(), String> {
    let model = build_model(d, a)?;
    println!(
        "serve_bench: {} ({} events), {} readers × {} queries, top-{}, chunk {}, seed {}, {}{}{}{}",
        d.name,
        d.edges.len(),
        a.readers,
        a.queries,
        a.top,
        a.batch,
        a.seed,
        a.shed_policy,
        if a.shards > 1 {
            format!(", {} shards", a.shards)
        } else {
            String::new()
        },
        if a.verify { ", verifying" } else { "" },
        if a.ann {
            format!(", ann ef={}", a.ef_search)
        } else {
            String::new()
        },
    );
    let report =
        run_closed_loop(d, model, serve_config(a), load_config(a)).map_err(|e| e.to_string())?;
    println!("{report}");
    gate_closed(&report, a)
}

/// Closed-loop bench against a TSV dump on disk: the dump is scanned once
/// (validation + node universe), then its edges are streamed straight into
/// the engine's ingest queue without ever being materialised.
fn run_streamed(path: &std::path::Path, a: &Args) -> Result<(), String> {
    let opts = IngestOptions {
        interner_budget: if a.interner_budget > 0 {
            a.interner_budget
        } else {
            IngestOptions::default().interner_budget
        },
        ..IngestOptions::default()
    };
    let scan = scan_tsv(path, &opts).map_err(|e| e.to_string())?;
    let stats = scan.stats;
    let (d, mut stream) = scan.into_stream().map_err(|e| e.to_string())?;
    if d.metapaths.is_empty() {
        return Err(format!(
            "{}: dump declares no metapaths; serve_bench cannot mine them from a stream",
            path.display()
        ));
    }
    let model = build_model(&d, a)?;
    println!(
        "serve_bench: {} ({} streamed events, {} interned nodes), {} readers × {} queries, \
         top-{}, chunk {}, seed {}, {}",
        path.display(),
        stats.edges,
        stats.interner.interned,
        a.readers,
        a.queries,
        a.top,
        a.batch,
        a.seed,
        a.shed_policy,
    );
    let report = run_streamed_closed_loop(&d, model, serve_config(a), load_config(a), &mut stream)
        .map_err(|e| e.to_string())?;
    println!("{report}");
    let end = stream.stats();
    println!(
        "stream: {} lines ({} B), {} edges, {} malformed, interner peak {} B ({} spills)",
        end.lines,
        end.bytes,
        end.edges,
        end.malformed,
        end.interner.peak_mem_bytes,
        end.interner.spills,
    );
    gate_closed(&report, a)
}

fn gate_closed(report: &supa_serve::LoadReport, a: &Args) -> Result<(), String> {
    if report.metrics.torn_reads > 0 {
        return Err(format!(
            "{} torn reads — epoch consistency violated",
            report.metrics.torn_reads
        ));
    }
    if report.metrics.queries == 0 || report.metrics.qps <= 0.0 {
        return Err("no queries served (zero QPS)".into());
    }
    if a.ann {
        if report.metrics.ann_guard_checks == 0 {
            return Err("--ann run performed no guard checks (no ANN-served queries?)".into());
        }
        if report.metrics.ann_recall < a.min_recall {
            return Err(format!(
                "ANN guard recall {:.4} below the --min-recall floor {:.4}",
                report.metrics.ann_recall, a.min_recall
            ));
        }
    }
    Ok(())
}

fn run_open(d: &Dataset, a: &Args) -> Result<(), String> {
    let rate = if a.arrival_rate > 0.0 {
        a.arrival_rate
    } else {
        if !(a.overload_factor.is_finite() && a.overload_factor > 0.0) {
            return Err(format!(
                "--overload-factor: must be positive, got {}",
                a.overload_factor
            ));
        }
        let sustainable = calibrate_rate(d, a)?;
        let rate = sustainable * a.overload_factor;
        println!(
            "calibrated: ~{sustainable:.0} ev/s sustainable, offering {rate:.0} ev/s \
             ({}× overload)",
            a.overload_factor
        );
        rate
    };
    let model = build_model(d, a)?;
    println!(
        "serve_bench: {} ({} events), open loop @ {:.0} ev/s, {} readers, top-{}, chunk {}, \
         seed {}, {}",
        d.name,
        d.edges.len(),
        rate,
        a.readers,
        a.top,
        a.batch,
        a.seed,
        a.shed_policy,
    );
    let open = OpenLoopConfig {
        arrival_rate: rate,
        events: d.edges.len(),
        ..OpenLoopConfig::default()
    };
    let report = run_open_loop(d, model, serve_config(a), load_config(a), open)
        .map_err(|e| e.to_string())?;
    println!("{report}");

    if report.metrics.torn_reads > 0 {
        return Err(format!(
            "{} torn reads — epoch consistency violated",
            report.metrics.torn_reads
        ));
    }
    if report.queries == 0 {
        return Err("no queries served during the burst".into());
    }
    if a.expect_shed && report.metrics.events_shed() == 0 {
        return Err(format!(
            "--expect-shed: the admission layer shed nothing at {rate:.0} ev/s \
             (overload did not overload; raise --arrival-rate or shrink --queue)"
        ));
    }
    if a.max_p99_us > 0.0 && report.query_p99_us > a.max_p99_us {
        return Err(format!(
            "query p99 {:.1} µs above the --max-p99-us bound {:.1} µs",
            report.query_p99_us, a.max_p99_us
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let a = parse_args()?;
    if let Some(path) = a.stream_tsv.clone() {
        if a.open_loop {
            return Err("--stream-tsv drives the closed loop; drop --open-loop".into());
        }
        return run_streamed(&path, &a);
    }
    let mut d = all_datasets(a.scale, a.seed)
        .into_iter()
        .find(|d| {
            d.name.to_lowercase().replace('.', "") == a.dataset.to_lowercase().replace('.', "")
        })
        .ok_or_else(|| format!("unknown dataset '{}'", a.dataset))?;
    if a.events > 0 {
        d.edges.truncate(a.events);
    }
    if a.open_loop {
        run_open(&d, &a)
    } else {
        run_closed(&d, &a)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

//! `supa` — the command-line front end of the SUPA recommender.
//!
//! ```text
//! supa generate  --dataset taobao --scale 0.02 --seed 7 --out data.tsv
//! supa stats     --data data.tsv
//! supa mine      --data data.tsv [--min-support 0.02]
//! supa train     --data data.tsv --out model.ckpt [--dim 32] [--holdout 0.2]
//!                [--n-iter 20] [--batch 1024] [--seed 7] [--mine]
//!                [--checkpoint-dir DIR] [--checkpoint-every N] [--keep K]
//!                [--resume] [--on-bad-event strict|skip|clamp]
//! supa evaluate  --data data.tsv --checkpoint model.ckpt [--dim 32]
//!                [--holdout 0.2] [--sampled N]
//! supa recommend --data data.tsv --checkpoint model.ckpt --user 3
//!                --relation Buy [--top 10] [--dim 32] [--include-seen]
//! supa ingest    --data dump.tsv [--schema schema.tsv] [--scan-lines 10000]
//!                [--interner-budget BYTES] [--on-bad-event strict|skip]
//!                [--out canonical.tsv]
//! supa serve     (--data data.tsv | --stream-tsv dump.tsv)
//!                [--schema schema.tsv] [--interner-budget BYTES]
//!                [--scan-lines 10000] [--dim 32] [--seed 7] [--readers 4]
//!                [--queries 500] [--top 10] [--batch 64] [--queue 1024]
//!                [--snapshot-every 1] [--cache 4096] [--checkpoint-dir DIR]
//!                [--checkpoint-every 8] [--keep 3] [--resume]
//!                [--on-bad-event strict|skip|clamp] [--warmup 8]
//!                [--ann] [--ef-search 64] [--ef-margin 32]
//!                [--guard-every 64] [--min-recall 0.95]
//!                [--shed-policy block|drop-oldest|sample-1-in-k]
//!                [--sample-k 8] [--priority Rel=low|normal|high,...]
//!                [--metrics-dump FILE]
//!                [--prom-addr 127.0.0.1:9464] [--prom-wait 0]
//!                [--publish-addr 127.0.0.1:7001] [--publish-segment FILE]
//!                [--publish-wait 0]
//! supa replica   --data data.tsv (--connect HOST:PORT | --segment FILE)
//!                [--top 10] [--seed 7] [--ann] [--ef-search 64]
//!                [--ef-margin 32] [--max-resyncs 8] [--metrics-dump FILE]
//! ```
//!
//! Data is the self-describing TSV of `supa_datasets::load_tsv`; checkpoints
//! are `Supa::save_checkpoint` blobs. `train --holdout F` withholds the final
//! `F` fraction of the (time-sorted) stream so a later `evaluate` with the
//! same `--holdout` measures genuine forecasting.
//!
//! Fault tolerance: `--checkpoint-dir` rotates crash-safe checkpoints every
//! `--checkpoint-every` batches (keeping the newest `--keep`); `--resume`
//! restarts from the newest *valid* one, reporting any damaged files it had
//! to skip. `--on-bad-event` chooses what happens to malformed stream
//! events: `strict` aborts on the first (the default), `skip` quarantines
//! them, `clamp` repairs what is repairable and quarantines the rest.
//!
//! `serve` runs the closed-loop serving engine of `supa-serve`: the
//! dataset's event stream is replayed through a bounded ingest queue into
//! incremental training while `--readers` threads issue `--queries` top-K
//! queries each against epoch-versioned snapshots, then prints the
//! throughput/latency/staleness report. With `--checkpoint-dir` the writer
//! checkpoints every `--checkpoint-every` chunks, and `--resume` warm-starts
//! from the newest valid checkpoint.
//!
//! `--ann` serves top-K through per-epoch HNSW indexes (`supa-ann`) instead
//! of brute-force scoring the full catalog. The indexes are *shared-base*:
//! relations with the same destination node type share one index over
//! `h_long + h_short`, and the per-relation context term is recovered by
//! exact re-scoring over a beam widened by `--ef-margin` on top of the
//! `--ef-search` query beam. One in `--guard-every` ANN answers is
//! re-scored exactly, with recall below `--min-recall` tallied (and
//! reported) as a guard breach. ANN answers are re-scored exactly, so
//! reported scores stay bit-identical to brute force — only top-K
//! membership can differ. With `--checkpoint-dir` the indexes persist
//! inside checkpoints, and `--resume` restores them fingerprint-verified
//! instead of rebuilding.
//!
//! Overload: `--shed-policy` picks what happens when the ingest queue fills —
//! `block` (the default; producers wait, exactly today's backpressure),
//! `drop-oldest` (evict the stalest queued event once the degradation ladder
//! escalates), or `sample-1-in-k` (admit one event in `--sample-k` per
//! priority class, reweighting survivors by `k` so expected gradient mass is
//! preserved). `--priority Buy=high,View=low` tags relations with shedding
//! priority classes (unlisted relations are `normal`). `--metrics-dump FILE`
//! appends a JSON line of serving metrics — including shed counts and the
//! current degradation level — every ~200 ms while the run is live.
//!
//! Streaming ingestion: `serve --stream-tsv` replays an event dump straight
//! off disk through `supa-ingest` instead of materialising the edge list —
//! peak memory is O(nodes + queue), not O(events). A validation pass first
//! discovers the node universe (and, for headerless dumps, infers the
//! schema over the first `--scan-lines` lines or reads a `--schema`
//! sidecar); the replay pass then streams edges through the same admission
//! path as `--data`, so a well-formed dump produces the *same probe digest*
//! either way. String node ids are mapped to dense ids by a
//! bounded-memory interner that spills to disk under `--interner-budget`
//! bytes. `ingest` runs the validation pass alone — parse, count, report
//! throughput — and with `--out` converts a dump to the canonical TSV
//! without ever holding its edges in memory.
//!
//! Observability: `serve --prom-addr HOST:PORT` exposes every serving
//! metric (including the streaming `ingest_*` counters) in the Prometheus
//! text format for the lifetime of the run; `--prom-wait N` keeps the run
//! alive after the replay until at least `N` scrapes have been answered.
//!
//! Replication: `serve --publish-addr` streams every published epoch as a
//! CRC-framed delta over TCP (each new subscriber first receives a full
//! baseline), `--publish-segment` appends the same frames to a file for
//! offline replay, and `--publish-wait N` holds the writer at epoch 0 until
//! `N` subscribers have attached (which makes their ANN index structure
//! bit-identical to the writer's). `replica` is the other side: it tails
//! `--connect` (or replays `--segment`) over the *same* `--data` file the
//! writer serves, applies baselines and deltas, and answers the seeded probe
//! queries — printing a `probe digest` that matches the writer's exactly
//! when replication was lossless. Corrupt frames and epoch gaps are counted
//! and healed by resync (up to `--max-resyncs` reconnects over TCP), never
//! silently applied.

use std::collections::HashMap;
use std::io::BufReader;
use std::process::ExitCode;

use supa::{CheckpointManager, InsLearnConfig, Supa, SupaConfig, TrainOptions};
use supa_datasets::{all_datasets, load_tsv, save_header, save_tsv, write_edge_line, Dataset};
use supa_eval::{top_k_scored, RankingEvaluator, Scorer};
use supa_graph::{
    guard_stream, mine_metapaths, MiningConfig, NodeId, PriorityMap, QuarantinePolicy,
};
use supa_ingest::{scan_tsv, IngestOptions};
use supa_replica::{replay_segment, run_tcp, AnnParams, PublishOptions, Replica};
use supa_rng::SmallRng;
use supa_serve::{
    probe_digest, run_closed_loop, run_streamed_closed_loop, AdmissionOptions, AnnOptions,
    CheckpointOptions, LoadConfig, ServeConfig, ServeMetrics, ShedPolicy, StopCause,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What flags a subcommand accepts. Anything else is a hard error — a typo
/// like `--checkpont-dir` must not silently fall back to a default.
struct CommandSpec {
    name: &'static str,
    /// Flags that take a value (`--flag value`).
    value_flags: &'static [&'static str],
    /// Flags that take none (`--flag`).
    bool_flags: &'static [&'static str],
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "generate",
        value_flags: &["dataset", "scale", "seed", "out"],
        bool_flags: &[],
    },
    CommandSpec {
        name: "stats",
        value_flags: &["data"],
        bool_flags: &[],
    },
    CommandSpec {
        name: "mine",
        value_flags: &["data", "min-support", "seed"],
        bool_flags: &[],
    },
    CommandSpec {
        name: "train",
        value_flags: &[
            "data",
            "out",
            "holdout",
            "dim",
            "seed",
            "batch",
            "n-iter",
            "checkpoint-dir",
            "checkpoint-every",
            "keep",
            "on-bad-event",
        ],
        bool_flags: &["mine", "resume"],
    },
    CommandSpec {
        name: "evaluate",
        value_flags: &["data", "checkpoint", "holdout", "dim", "seed", "sampled"],
        bool_flags: &["mine"],
    },
    CommandSpec {
        name: "recommend",
        value_flags: &[
            "data",
            "checkpoint",
            "user",
            "relation",
            "top",
            "dim",
            "seed",
        ],
        bool_flags: &["mine", "include-seen"],
    },
    CommandSpec {
        name: "ingest",
        value_flags: &[
            "data",
            "schema",
            "scan-lines",
            "interner-budget",
            "on-bad-event",
            "out",
        ],
        bool_flags: &[],
    },
    CommandSpec {
        name: "serve",
        value_flags: &[
            "data",
            "stream-tsv",
            "schema",
            "scan-lines",
            "interner-budget",
            "dim",
            "seed",
            "readers",
            "queries",
            "top",
            "batch",
            "queue",
            "snapshot-every",
            "cache",
            "checkpoint-dir",
            "checkpoint-every",
            "keep",
            "on-bad-event",
            "warmup",
            "ef-search",
            "ef-margin",
            "guard-every",
            "min-recall",
            "shed-policy",
            "sample-k",
            "priority",
            "metrics-dump",
            "prom-addr",
            "prom-wait",
            "publish-addr",
            "publish-segment",
            "publish-wait",
        ],
        bool_flags: &["mine", "resume", "ann"],
    },
    CommandSpec {
        name: "replica",
        value_flags: &[
            "data",
            "connect",
            "segment",
            "top",
            "seed",
            "ef-search",
            "ef-margin",
            "max-resyncs",
            "metrics-dump",
        ],
        bool_flags: &["ann"],
    },
];

/// Splits `args` into the subcommand and a `--flag value` map, rejecting
/// flags the subcommand does not declare.
fn parse(args: &[String]) -> Result<(String, HashMap<String, String>), String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?.clone();
    let spec = COMMANDS
        .iter()
        .find(|s| s.name == cmd)
        .ok_or_else(|| format!("unknown command '{cmd}'; {}", usage()))?;
    let mut flags = HashMap::new();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected positional argument '{a}'"));
        };
        if spec.bool_flags.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
        } else if spec.value_flags.contains(&name) {
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), v.clone());
        } else {
            let known: Vec<String> = spec
                .value_flags
                .iter()
                .chain(spec.bool_flags)
                .map(|f| format!("--{f}"))
                .collect();
            return Err(format!(
                "unknown flag --{name} for '{cmd}' (known flags: {})",
                known.join(", ")
            ));
        }
    }
    Ok((cmd, flags))
}

fn usage() -> String {
    "usage: supa <generate|stats|mine|train|evaluate|recommend|ingest|serve|replica> [--flags]; \
     `supa <command> --help` lists a command's flags"
        .to_string()
}

/// The text `supa --help`, `supa help` and `supa <command> --help` print:
/// the usage line, or the command's flags from [`COMMANDS`].
fn help(args: &[String]) -> Option<String> {
    let (first, rest) = args.split_first()?;
    if first == "--help" || first == "help" {
        return Some(usage());
    }
    let spec = COMMANDS.iter().find(|s| s.name == first)?;
    let values = spec.value_flags.iter().map(|f| format!("  --{f} VALUE"));
    let flags: Vec<String> = values
        .chain(spec.bool_flags.iter().map(|f| format!("  --{f}")))
        .collect();
    let asked = rest.iter().any(|a| a == "--help");
    asked.then(|| format!("usage: supa {first} [--flags]\n{}", flags.join("\n")))
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse '{v}'")),
    }
}

/// The `--ann` flags `serve` and `replica` share. Without `--ann`, any of
/// them — or of `also`, the command's own flags that only mean something
/// with it — is an error naming the flag.
fn ann_params(flags: &HashMap<String, String>, also: &[&str]) -> Result<Option<AnnParams>, String> {
    if !flags.contains_key("ann") {
        let mut stray = ["ef-search", "ef-margin"].iter().chain(also);
        return match stray.find(|f| flags.contains_key(**f)) {
            Some(f) => Err(format!("--{f} needs --ann")),
            None => Ok(None),
        };
    }
    let defaults = AnnParams::default();
    Ok(Some(AnnParams {
        ef_search: get(flags, "ef-search", defaults.ef_search)?,
        ef_margin: get(flags, "ef-margin", defaults.ef_margin)?,
        seed: get(flags, "seed", defaults.seed)?,
        ..defaults
    }))
}

fn require<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required --{name}"))
}

fn load_dataset(flags: &HashMap<String, String>) -> Result<Dataset, String> {
    let path = require(flags, "data")?;
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    load_tsv(path, BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

/// Streaming-ingest knobs shared by `serve --stream-tsv` and `ingest`.
fn ingest_options(
    flags: &HashMap<String, String>,
    skip_malformed: bool,
) -> Result<IngestOptions, String> {
    let defaults = IngestOptions::default();
    Ok(IngestOptions {
        schema_path: flags.get("schema").map(Into::into),
        interner_budget: get(flags, "interner-budget", defaults.interner_budget)?,
        scan_lines: get(flags, "scan-lines", defaults.scan_lines)?,
        skip_malformed,
    })
}

/// The training slice under `--holdout F`: the leading `1−F` of the stream.
fn train_slice(d: &Dataset, holdout: f64) -> Result<&[supa_graph::TemporalEdge], String> {
    if !(0.0..1.0).contains(&holdout) {
        return Err("--holdout must be in [0, 1)".into());
    }
    let cut = ((d.edges.len() as f64) * (1.0 - holdout)).round() as usize;
    Ok(&d.edges[..cut.min(d.edges.len())])
}

fn build_model(d: &Dataset, flags: &HashMap<String, String>) -> Result<Supa, String> {
    let dim: usize = get(flags, "dim", 32)?;
    let seed: u64 = get(flags, "seed", 7u64)?;
    let cfg = SupaConfig {
        dim,
        ..SupaConfig::small()
    };
    let mut metapaths = d.metapaths.clone();
    if metapaths.is_empty() || flags.contains_key("mine") {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = d.full_graph();
        metapaths = mine_metapaths(&g, &MiningConfig::default(), &mut rng)
            .into_iter()
            .map(|m| m.schema)
            .collect();
        eprintln!("mined {} metapath schemas", metapaths.len());
        if metapaths.is_empty() {
            return Err("no metapaths: declare them in the TSV or grow the data".into());
        }
    }
    Supa::new(
        d.prototype.schema(),
        d.prototype.num_nodes(),
        metapaths,
        cfg,
        supa::SupaVariant::full(),
        seed,
    )
    .map_err(|e| e.to_string())
}

fn run(args: &[String]) -> Result<(), String> {
    if let Some(text) = help(args) {
        println!("{text}");
        return Ok(());
    }
    let (cmd, flags) = parse(args)?;
    match cmd.as_str() {
        "generate" => {
            let name = require(&flags, "dataset")?.to_lowercase();
            let scale: f64 = get(&flags, "scale", 0.02)?;
            if !scale.is_finite() || scale <= 0.0 {
                return Err(format!("--scale must be positive and finite, got {scale}"));
            }
            let seed: u64 = get(&flags, "seed", 7u64)?;
            let out = require(&flags, "out")?;
            let d = all_datasets(scale, seed)
                .into_iter()
                .find(|d| d.name.to_lowercase().replace('.', "") == name.replace('.', ""))
                .ok_or_else(|| format!("unknown dataset '{name}'"))?;
            let f = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
            save_tsv(&d, std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
            println!("wrote {} ({})", out, d.summary());
            Ok(())
        }
        "stats" => {
            let d = load_dataset(&flags)?;
            println!("{}", d.summary());
            let g = d.full_graph();
            let st = supa_graph::GraphStats::compute(&g);
            print!("{}", st.render(g.schema()));
            Ok(())
        }
        "mine" => {
            let d = load_dataset(&flags)?;
            let min_support: f64 = get(&flags, "min-support", 0.01)?;
            let seed: u64 = get(&flags, "seed", 7u64)?;
            let g = d.full_graph();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mined = mine_metapaths(
                &g,
                &MiningConfig {
                    samples_per_node: 6,
                    min_support,
                },
                &mut rng,
            );
            let schema = d.prototype.schema();
            for m in mined {
                let names: Vec<&str> = m
                    .schema
                    .node_types()
                    .iter()
                    .map(|&t| schema.node_type_name(t).unwrap())
                    .collect();
                let rels: Vec<&str> = m.schema.rel_sets()[0]
                    .iter()
                    .map(|r| schema.relation_name(r).unwrap())
                    .collect();
                println!(
                    "{:<40} via {{{}}}  support {:.2}%",
                    names.join(" -> "),
                    rels.join(","),
                    100.0 * m.support
                );
            }
            Ok(())
        }
        "train" => {
            let d = load_dataset(&flags)?;
            let out = require(&flags, "out")?;
            let holdout: f64 = get(&flags, "holdout", 0.2)?;
            let train = train_slice(&d, holdout)?;
            let policy: QuarantinePolicy = flags
                .get("on-bad-event")
                .map(|s| s.parse())
                .transpose()
                .map_err(|e| format!("--on-bad-event: {e}"))?
                .unwrap_or(QuarantinePolicy::Strict);
            let mut model = build_model(&d, &flags)?;
            let il = InsLearnConfig {
                batch_size: get(&flags, "batch", 1024)?,
                n_iter: get(&flags, "n-iter", 20)?,
                ..InsLearnConfig::default()
            };
            let mut g = d.prototype.clone();
            let (train, quarantine) =
                guard_stream(&mut g, train, policy).map_err(|e| e.to_string())?;
            if quarantine.total_faults() > 0 {
                eprintln!("{}", quarantine.summary());
            }
            let start = std::time::Instant::now();
            let report = if let Some(dir) = flags.get("checkpoint-dir") {
                let keep: usize = get(&flags, "keep", 3)?;
                let mut mgr =
                    CheckpointManager::new(dir, keep).map_err(|e| format!("{dir}: {e}"))?;
                let (report, outcome) = model
                    .train_inslearn_ft(
                        &g,
                        &train,
                        &il,
                        TrainOptions {
                            checkpoints: Some(&mut mgr),
                            checkpoint_every: get(&flags, "checkpoint-every", 1)?,
                            resume: flags.contains_key("resume"),
                            ..Default::default()
                        },
                    )
                    .map_err(|e| e.to_string())?;
                if let Some(o) = outcome {
                    for (path, reason) in &o.skipped {
                        eprintln!("skipped checkpoint {}: {reason}", path.display());
                    }
                    match &o.loaded {
                        Some((path, n)) => println!(
                            "resumed from {} ({n} events already consumed)",
                            path.display()
                        ),
                        None => println!("no valid checkpoint to resume from; starting fresh"),
                    }
                }
                report
            } else {
                if flags.contains_key("resume") {
                    return Err("--resume needs --checkpoint-dir".into());
                }
                model.train_inslearn(&g, &train, &il)
            };
            println!(
                "trained on {} edges in {:.1}s ({} batches, {} iterations, {} validations)",
                train.len(),
                start.elapsed().as_secs_f64(),
                report.batches,
                report.iterations,
                report.validations
            );
            if report.divergence_rollbacks > 0 || report.lr_backoffs > 0 {
                println!(
                    "divergence guard: {} rollbacks, {} learning-rate backoffs",
                    report.divergence_rollbacks, report.lr_backoffs
                );
            }
            let f = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
            let mut w = std::io::BufWriter::new(f);
            model
                .save_checkpoint(&mut w, 0, None)
                .map_err(|e| e.to_string())?;
            println!("checkpoint written to {out}");
            Ok(())
        }
        "evaluate" => {
            let d = load_dataset(&flags)?;
            let ckpt = require(&flags, "checkpoint")?;
            let holdout: f64 = get(&flags, "holdout", 0.2)?;
            let train = train_slice(&d, holdout)?;
            let test = &d.edges[train.len()..];
            if test.is_empty() {
                return Err("--holdout left no test edges".into());
            }
            let mut model = build_model(&d, &flags)?;
            let blob = std::fs::read(ckpt).map_err(|e| format!("{ckpt}: {e}"))?;
            model.load_checkpoint(&blob).map_err(|e| e.to_string())?;
            let g = {
                let mut g = d.prototype.clone();
                for e in train {
                    g.add_edge(e.src, e.dst, e.relation, e.time)
                        .map_err(|e| e.to_string())?;
                }
                g
            };
            let sampled: usize = get(&flags, "sampled", 0)?;
            let ev = if sampled > 0 {
                RankingEvaluator::sampled(sampled, get(&flags, "seed", 7u64)?)
            } else {
                RankingEvaluator::full()
            };
            let m = ev.evaluate(&g, &model, test);
            println!(
                "test edges {}  H@20 {:.4}  H@50 {:.4}  NDCG@10 {:.4}  MRR {:.4}",
                m.len(),
                m.hit20(),
                m.hit50(),
                m.ndcg10(),
                m.mrr()
            );
            Ok(())
        }
        "recommend" => {
            let d = load_dataset(&flags)?;
            let ckpt = require(&flags, "checkpoint")?;
            let user: u32 = require(&flags, "user")?
                .parse()
                .map_err(|_| "--user must be a node id".to_string())?;
            let rel_name = require(&flags, "relation")?;
            let top: usize = get(&flags, "top", 10)?;
            let schema = d.prototype.schema();
            let rel = schema
                .relation_by_name(rel_name)
                .ok_or_else(|| format!("unknown relation '{rel_name}'"))?;
            let target_ty = schema.relation(rel).unwrap().dst_type;

            let mut model = build_model(&d, &flags)?;
            let blob = std::fs::read(ckpt).map_err(|e| format!("{ckpt}: {e}"))?;
            model.load_checkpoint(&blob).map_err(|e| e.to_string())?;
            let g = d.full_graph();
            if user as usize >= g.num_nodes() {
                return Err(format!("user {user} is not a node"));
            }
            let candidates = g.nodes_of_type(target_ty);
            let recs = if flags.contains_key("include-seen") {
                model.top_k(NodeId(user), candidates, rel, top)
            } else {
                model.top_k_unseen(&g, NodeId(user), candidates, rel, top)
            };
            for (rank, (v, score)) in recs.iter().enumerate() {
                println!("{:>3}. node {:<8} γ = {:+.4}", rank + 1, v.0, score);
            }
            // Also show the raw score of a sanity pair if the user has one.
            if let Some(n) = g.neighbors(NodeId(user)).last() {
                println!(
                    "(latest seen item {} scores {:+.4})",
                    n.node.0,
                    model.score(NodeId(user), n.node, rel)
                );
            }
            Ok(())
        }
        "ingest" => {
            let path = require(&flags, "data")?;
            let skip = match flags.get("on-bad-event").map(String::as_str) {
                None | Some("strict") => false,
                Some("skip") => true,
                Some(other) => {
                    return Err(format!(
                        "--on-bad-event: ingest accepts strict|skip, got '{other}'"
                    ))
                }
            };
            let opts = ingest_options(&flags, skip)?;
            let t0 = std::time::Instant::now();
            let report =
                scan_tsv(std::path::Path::new(path), &opts).map_err(|e| format!("{path}: {e}"))?;
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            let s = report.stats;
            println!("{}", report.dataset.summary());
            println!("mode:   {}", report.mode);
            println!(
                "lines:  {} total ({} B): {} schema, {} node, {} edge, {} comment, {} malformed",
                s.lines, s.bytes, s.schema_lines, s.node_lines, s.edges, s.comments, s.malformed
            );
            if s.out_of_order > 0 {
                println!(
                    "order:  {} out-of-order timestamps (load_tsv would re-sort; \
                     streamed replay preserves file order)",
                    s.out_of_order
                );
            }
            if s.interner.interned > 0 {
                println!(
                    "intern: {} string ids, {} spills, peak {} B resident, {} B in runs",
                    s.interner.interned,
                    s.interner.spills,
                    s.interner.peak_mem_bytes,
                    s.interner.run_bytes
                );
            }
            println!(
                "speed:  {:.0} lines/s ({:.1} MB/s) over the validation pass",
                s.lines as f64 / secs,
                s.bytes as f64 / (1e6 * secs)
            );
            if let Some(out) = flags.get("out") {
                use std::io::Write;
                let (d, stream) = report.into_stream().map_err(|e| format!("{path}: {e}"))?;
                let f = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
                let mut w = std::io::BufWriter::new(f);
                save_header(&d, &mut w).map_err(|e| format!("{out}: {e}"))?;
                let schema = d.prototype.schema();
                let mut written = 0u64;
                for ev in stream {
                    let e = ev.map_err(|e| format!("{path}: {e}"))?;
                    write_edge_line(&mut w, schema, &e).map_err(|e| format!("{out}: {e}"))?;
                    written += 1;
                }
                w.flush().map_err(|e| format!("{out}: {e}"))?;
                println!("wrote {out}: canonical header + {written} streamed edges");
            }
            Ok(())
        }
        "serve" => {
            let policy: QuarantinePolicy = flags
                .get("on-bad-event")
                .map(|s| s.parse())
                .transpose()
                .map_err(|e| format!("--on-bad-event: {e}"))?
                .unwrap_or(QuarantinePolicy::Skip);
            let streaming = flags.contains_key("stream-tsv");
            if streaming && flags.contains_key("data") {
                return Err("--data and --stream-tsv are mutually exclusive".into());
            }
            if !streaming {
                for f in ["schema", "scan-lines", "interner-budget"] {
                    if flags.contains_key(f) {
                        return Err(format!("--{f} needs --stream-tsv"));
                    }
                }
            }
            if flags.contains_key("prom-wait") && !flags.contains_key("prom-addr") {
                return Err("--prom-wait needs --prom-addr".into());
            }
            let (d, mut stream) = if streaming {
                if flags.contains_key("mine") {
                    return Err(
                        "--mine needs --data: metapaths cannot be mined from a stream; \
                         declare metapath lines in the dump or a --schema sidecar"
                            .into(),
                    );
                }
                let path = flags.get("stream-tsv").unwrap();
                let skip = !matches!(policy, QuarantinePolicy::Strict);
                let opts = ingest_options(&flags, skip)?;
                let report = scan_tsv(std::path::Path::new(path), &opts)
                    .map_err(|e| format!("{path}: {e}"))?;
                eprintln!(
                    "scanned {path}: mode {}, {} nodes, {} edges, {} malformed",
                    report.mode,
                    report.dataset.prototype.num_nodes(),
                    report.stats.edges,
                    report.stats.malformed
                );
                if report.dataset.metapaths.is_empty() {
                    return Err(
                        "streamed dump declares no metapaths: add metapath lines to the \
                         dump or a --schema sidecar"
                            .into(),
                    );
                }
                let (d, stream) = report.into_stream().map_err(|e| format!("{path}: {e}"))?;
                (d, Some(stream))
            } else {
                (load_dataset(&flags)?, None)
            };
            let checkpoint = match flags.get("checkpoint-dir") {
                Some(dir) => {
                    let defaults = CheckpointOptions::new(dir);
                    Some(CheckpointOptions {
                        every: get(&flags, "checkpoint-every", defaults.every)?,
                        keep: get(&flags, "keep", defaults.keep)?,
                        resume: flags.contains_key("resume"),
                        ..defaults
                    })
                }
                None => {
                    if flags.contains_key("resume") {
                        return Err("--resume needs --checkpoint-dir".into());
                    }
                    None
                }
            };
            let model = build_model(&d, &flags)?;
            let ann = match ann_params(&flags, &["guard-every", "min-recall"])? {
                Some(p) => {
                    let defaults = AnnOptions::default();
                    Some(AnnOptions {
                        ef_search: p.ef_search,
                        ef_margin: p.ef_margin,
                        guard_every: get(&flags, "guard-every", defaults.guard_every)?,
                        min_recall: get(&flags, "min-recall", defaults.min_recall)?,
                        seed: p.seed,
                        ..defaults
                    })
                }
                None => None,
            };
            let shed_policy: ShedPolicy = flags
                .get("shed-policy")
                .map(|s| s.parse())
                .transpose()
                .map_err(|e| format!("--shed-policy: {e}"))?
                .unwrap_or_default();
            let priorities = flags
                .get("priority")
                .map(|spec| PriorityMap::parse(spec, d.prototype.schema()))
                .transpose()
                .map_err(|e| format!("--priority: {e}"))?;
            let admission_defaults = AdmissionOptions::default();
            let admission = AdmissionOptions {
                policy: shed_policy,
                sample_k: get(&flags, "sample-k", admission_defaults.sample_k)?,
                priorities,
                ..admission_defaults
            };
            let publish_wait: usize = get(&flags, "publish-wait", 0)?;
            let replication = {
                let tcp_addr = flags.get("publish-addr").cloned();
                let segment = flags.get("publish-segment").map(Into::into);
                if publish_wait > 0 && tcp_addr.is_none() {
                    return Err("--publish-wait needs --publish-addr".into());
                }
                if tcp_addr.is_some() || segment.is_some() {
                    Some(PublishOptions {
                        tcp_addr,
                        segment,
                        wait_subscribers: publish_wait,
                    })
                } else {
                    None
                }
            };
            let serve_defaults = ServeConfig::default();
            let serve_cfg = ServeConfig {
                queue_capacity: get(&flags, "queue", serve_defaults.queue_capacity)?,
                train_batch: get(&flags, "batch", serve_defaults.train_batch)?,
                snapshot_every: get(&flags, "snapshot-every", serve_defaults.snapshot_every)?,
                policy,
                cache_capacity: get(&flags, "cache", serve_defaults.cache_capacity)?,
                checkpoint,
                ann,
                admission,
                replication,
                ..serve_defaults
            };
            let load_defaults = LoadConfig::default();
            let load = LoadConfig {
                readers: get(&flags, "readers", load_defaults.readers)?,
                top_k: get(&flags, "top", load_defaults.top_k)?,
                queries_per_reader: get(&flags, "queries", load_defaults.queries_per_reader)?,
                seed: get(&flags, "seed", 7u64)?,
                warmup_per_reader: get(&flags, "warmup", load_defaults.warmup_per_reader)?,
                verify: true,
                metrics_dump: flags.get("metrics-dump").map(Into::into),
                prom_addr: flags.get("prom-addr").cloned(),
                prom_wait: get(&flags, "prom-wait", load_defaults.prom_wait)?,
            };
            let expected_queries = (load.readers * load.queries_per_reader) as u64;
            let report = match stream.as_mut() {
                Some(s) => run_streamed_closed_loop(&d, model, serve_cfg, load, s),
                None => run_closed_loop(&d, model, serve_cfg, load),
            }
            .map_err(|e| e.to_string())?;
            println!("{report}");
            match &report.stop {
                StopCause::Panicked(msg) => {
                    return Err(format!("writer thread panicked: {msg}"));
                }
                StopCause::Fault(e) => {
                    return Err(format!("strict policy stopped ingest: {e}"));
                }
                StopCause::Shutdown | StopCause::Killed => {}
            }
            if report.metrics.torn_reads > 0 {
                return Err(format!(
                    "{} torn reads — epoch consistency violated",
                    report.metrics.torn_reads
                ));
            }
            if report.metrics.queries != expected_queries {
                return Err(format!(
                    "served {} of {expected_queries} queries (--readers × --queries)",
                    report.metrics.queries
                ));
            }
            Ok(())
        }
        "replica" => {
            use std::sync::atomic::Ordering::Relaxed;
            let connect = flags.get("connect").cloned();
            let segment = flags.get("segment").cloned();
            if connect.is_some() == segment.is_some() {
                return Err("replica needs exactly one of --connect or --segment".into());
            }
            let d = load_dataset(&flags)?;
            let ann = ann_params(&flags, &[])?;
            let top: usize = get(&flags, "top", 10)?;
            let seed: u64 = get(&flags, "seed", 7u64)?;
            let mut replica = Replica::new(d.prototype.clone(), ann);
            let started = std::time::Instant::now();
            let stream = match (&connect, &segment) {
                (Some(addr), None) => run_tcp(addr, &mut replica, get(&flags, "max-resyncs", 8)?),
                (None, Some(path)) => replay_segment(std::path::Path::new(path), &mut replica),
                _ => unreachable!("exactly one transport was checked above"),
            };

            // Bridge the stream counters into the shared serving metrics so
            // the report and the --metrics-dump line speak the same schema
            // as the writer's.
            let c = replica.counters;
            let metrics = ServeMetrics::default();
            metrics.deltas_applied.store(c.deltas_applied, Relaxed);
            metrics.delta_bytes_applied.store(c.bytes_applied, Relaxed);
            metrics
                .delta_crc_failures
                .store(c.crc_failures.saturating_add(c.torn_tail), Relaxed);
            metrics.delta_resyncs.store(c.resyncs, Relaxed);
            let report = metrics.report(started.elapsed());
            if let Some(path) = flags.get("metrics-dump") {
                use std::io::Write;
                let mut f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
                let line = report.to_json();
                writeln!(
                    f,
                    "{{\"t_ms\":{},{}",
                    started.elapsed().as_millis(),
                    &line[1..]
                )
                .map_err(|e| format!("{path}: {e}"))?;
            }
            stream.map_err(|e| format!("replication stream: {e}"))?;
            if !replica.bootstrapped() {
                return Err("stream ended before any baseline frame; nothing to serve".into());
            }

            println!(
                "replica: epoch {}, {} baselines + {} deltas applied ({} B), \
                 {} events appended, {} crc failures, {} gaps, {} resyncs, {} torn tail, \
                 {} index adoptions, {} index rebuilds",
                replica.epoch(),
                c.baselines_applied,
                c.deltas_applied,
                c.bytes_applied,
                c.events_appended,
                c.crc_failures,
                c.gaps,
                c.resyncs,
                c.torn_tail,
                c.index_adoptions,
                c.index_rebuilds,
            );
            println!("{report}");
            // The writer's probe digest scores the probe mix directly
            // against its final snapshot (brute force, cache-free); answer
            // the same way here so the two digests compare state, not
            // retrieval strategy.
            let snap = replica.snapshot().expect("bootstrapped was checked above");
            let digest = probe_digest(&d, seed, top, |user, rel, k| {
                top_k_scored(snap, user, replica.candidates(rel), rel, k)
            });
            println!("check:  probe digest {digest:#018x}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'; {}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sargs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_splits_command_and_flags() {
        let (cmd, flags) = parse(&sargs(&[
            "train", "--data", "x.tsv", "--dim", "16", "--mine",
        ]))
        .unwrap();
        assert_eq!(cmd, "train");
        assert_eq!(flags.get("data").unwrap(), "x.tsv");
        assert_eq!(flags.get("dim").unwrap(), "16");
        assert!(flags.contains_key("mine"));
    }

    #[test]
    fn parse_rejects_bad_shapes() {
        assert!(parse(&[]).is_err());
        assert!(parse(&sargs(&["train", "positional"])).is_err());
        assert!(parse(&sargs(&["train", "--data"])).is_err());
        assert!(parse(&sargs(&["frobnicate", "--data", "x.tsv"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // The typo must be named, not silently ignored.
        let err = parse(&sargs(&["train", "--checkpont-dir", "/tmp/x"])).unwrap_err();
        assert!(err.contains("--checkpont-dir"), "{err}");
        assert!(
            err.contains("--checkpoint-dir"),
            "should list known flags: {err}"
        );
        // Training has one serial regime and the engine one shard, so no
        // command takes `--workers` or `--shards`; each must fail by name,
        // not be silently accepted.
        for (cmd, flag) in [
            ("train", "--workers"),
            ("serve", "--workers"),
            ("serve", "--shards"),
        ] {
            let err = parse(&sargs(&[cmd, flag, "2"])).unwrap_err();
            assert!(err.contains(flag), "{cmd}: {err}");
        }
        // A flag valid for one command is still invalid for another.
        let err = parse(&sargs(&["stats", "--user", "3"])).unwrap_err();
        assert!(err.contains("--user") && err.contains("'stats'"), "{err}");
        // Boolean flags are per-command too.
        assert!(parse(&sargs(&["generate", "--resume"])).is_err());
        assert!(parse(&sargs(&["serve", "--resume"])).is_ok());
    }

    #[test]
    fn flag_helpers() {
        let (_, flags) = parse(&sargs(&["train", "--dim", "16"])).unwrap();
        assert_eq!(get(&flags, "dim", 32usize).unwrap(), 16);
        assert_eq!(get(&flags, "top", 10usize).unwrap(), 10);
        assert!(get::<usize>(&flags, "dim", 0).is_ok());
        assert!(require(&flags, "dim").is_ok());
        assert!(require(&flags, "nope").is_err());
        let (_, bad) = parse(&sargs(&["train", "--dim", "banana"])).unwrap();
        assert!(get::<usize>(&bad, "dim", 0).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&sargs(&["frobnicate"])).is_err());
        assert!(run(&sargs(&[
            "generate",
            "--dataset",
            "nope",
            "--out",
            "/dev/null"
        ]))
        .is_err());
    }

    #[test]
    fn resume_is_a_boolean_flag_and_needs_a_dir() {
        let (_, flags) = parse(&sargs(&["train", "--resume", "--data", "x.tsv"])).unwrap();
        assert_eq!(flags.get("resume").unwrap(), "true");
        assert_eq!(flags.get("data").unwrap(), "x.tsv");
    }

    #[test]
    fn generate_rejects_garbage_scales() {
        for s in ["nan", "inf", "-1", "0"] {
            let err = run(&sargs(&[
                "generate",
                "--dataset",
                "uci",
                "--scale",
                s,
                "--out",
                "/dev/null",
            ]))
            .unwrap_err();
            assert!(err.contains("--scale"), "scale {s}: {err}");
        }
    }

    #[test]
    fn serve_overload_flags_parse_and_stay_serve_only() {
        let (_, flags) = parse(&sargs(&[
            "serve",
            "--shed-policy",
            "drop-oldest",
            "--sample-k",
            "4",
            "--priority",
            "Buy=high",
            "--metrics-dump",
            "/tmp/m.jsonl",
        ]))
        .unwrap();
        assert_eq!(flags.get("shed-policy").unwrap(), "drop-oldest");
        assert_eq!(get(&flags, "sample-k", 8u32).unwrap(), 4);
        assert_eq!(flags.get("priority").unwrap(), "Buy=high");
        assert_eq!(flags.get("metrics-dump").unwrap(), "/tmp/m.jsonl");
        assert!(parse(&sargs(&["train", "--shed-policy", "block"])).is_err());
        // Every flag ci.sh's serving digest matrix passes to `serve`, so a
        // rename breaks `cargo test`, not only ci.sh.
        let ci_matrix: Vec<&str> = "serve --data t.tsv --readers 2 --queries 100 --seed 7 \
             --batch 512 --shed-policy sample-1-in-k --queue 8192"
            .split_whitespace()
            .collect();
        let (_, flags) = parse(&sargs(&ci_matrix)).unwrap();
        assert_eq!(flags.len(), ci_matrix.len() / 2);
        for flag in ["readers", "queries", "batch", "queue"] {
            assert!(get::<usize>(&flags, flag, 0).unwrap() > 0, "--{flag}");
        }
        let policy = get(&flags, "shed-policy", ShedPolicy::Block).unwrap();
        assert_eq!(policy, ShedPolicy::SampleOneInK);
    }

    #[test]
    fn shed_policy_flag_values_parse_or_error() {
        assert_eq!("block".parse::<ShedPolicy>().unwrap(), ShedPolicy::Block);
        assert_eq!(
            "sample-1-in-k".parse::<ShedPolicy>().unwrap(),
            ShedPolicy::SampleOneInK
        );
        assert!("drop-newest".parse::<ShedPolicy>().is_err());
    }

    #[test]
    fn replica_and_publish_flags_parse_per_command() {
        let (cmd, flags) = parse(&sargs(&[
            "replica",
            "--data",
            "x.tsv",
            "--connect",
            "127.0.0.1:7001",
            "--ann",
            "--max-resyncs",
            "3",
        ]))
        .unwrap();
        assert_eq!(cmd, "replica");
        assert_eq!(flags.get("connect").unwrap(), "127.0.0.1:7001");
        assert!(flags.contains_key("ann"));
        assert_eq!(get(&flags, "max-resyncs", 8usize).unwrap(), 3);
        // The publish flags belong to `serve`, and the replication transports
        // belong to `replica` — never the other way around.
        assert!(parse(&sargs(&[
            "serve",
            "--publish-addr",
            "127.0.0.1:0",
            "--publish-segment",
            "/tmp/x.seg",
            "--publish-wait",
            "1",
        ]))
        .is_ok());
        assert!(parse(&sargs(&["replica", "--publish-addr", "x"])).is_err());
        assert!(parse(&sargs(&["serve", "--connect", "x"])).is_err());
        // Exactly one transport is required at run time.
        let err = run(&sargs(&["replica", "--data", "x.tsv"])).unwrap_err();
        assert!(err.contains("--connect or --segment"), "{err}");
        let err = run(&sargs(&[
            "replica",
            "--data",
            "x.tsv",
            "--connect",
            "a",
            "--segment",
            "b",
        ]))
        .unwrap_err();
        assert!(err.contains("--connect or --segment"), "{err}");
    }

    #[test]
    fn ingest_and_stream_flags_parse_per_command() {
        let (cmd, flags) = parse(&sargs(&[
            "ingest",
            "--data",
            "dump.tsv",
            "--interner-budget",
            "1048576",
            "--scan-lines",
            "500",
            "--out",
            "canonical.tsv",
        ]))
        .unwrap();
        assert_eq!(cmd, "ingest");
        assert_eq!(get(&flags, "interner-budget", 0usize).unwrap(), 1_048_576);
        assert_eq!(flags.get("out").unwrap(), "canonical.tsv");
        // serve accepts the streaming and prom flags too; train does not.
        assert!(parse(&sargs(&[
            "serve",
            "--stream-tsv",
            "dump.tsv",
            "--interner-budget",
            "4096",
            "--prom-addr",
            "127.0.0.1:0",
            "--prom-wait",
            "1",
        ]))
        .is_ok());
        assert!(parse(&sargs(&["train", "--stream-tsv", "d.tsv"])).is_err());
        assert!(parse(&sargs(&["ingest", "--readers", "2"])).is_err());
        // Run-time flag coupling, checked before any file is opened.
        let err = run(&sargs(&[
            "serve",
            "--data",
            "a.tsv",
            "--stream-tsv",
            "b.tsv",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run(&sargs(&[
            "serve",
            "--data",
            "a.tsv",
            "--interner-budget",
            "1",
        ]))
        .unwrap_err();
        assert!(
            err.contains("--interner-budget needs --stream-tsv"),
            "{err}"
        );
        let err = run(&sargs(&["serve", "--data", "a.tsv", "--prom-wait", "1"])).unwrap_err();
        assert!(err.contains("--prom-wait needs --prom-addr"), "{err}");
        let err = run(&sargs(&["serve", "--stream-tsv", "d.tsv", "--mine"])).unwrap_err();
        assert!(err.contains("--mine needs --data"), "{err}");
        let err = run(&sargs(&[
            "ingest",
            "--data",
            "x.tsv",
            "--on-bad-event",
            "clamp",
        ]))
        .unwrap_err();
        assert!(err.contains("strict|skip"), "{err}");
    }

    #[test]
    fn bad_event_policy_parses_or_errors() {
        assert_eq!(
            "clamp".parse::<QuarantinePolicy>().unwrap(),
            QuarantinePolicy::Clamp
        );
        assert!("lenient".parse::<QuarantinePolicy>().is_err());
    }
}

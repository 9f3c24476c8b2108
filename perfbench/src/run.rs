//! One benchmark run: the timed engine pass (tracing off → end-to-end
//! metrics) or the engine pass plus the staged replays (→ per-layer
//! metrics), with every correctness check, folded into one result.

use std::path::PathBuf;

use crate::engine_run::{run_engine, EngineOutcome};
use crate::json::Value;
use crate::metrics::{Measured, END_TO_END, PER_LAYER};
use crate::replay::{staged_replay, ReplayOutcome};
use crate::setup::serve_config;
use crate::stats::{highest_supported_percentile, mean, median, percentile, sorted};
use crate::trace::StageStats;
use crate::workload::Workload;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Scratch directory for the dump, segment and checkpoints; emptied
    /// when the run ends.
    pub work_dir: PathBuf,
    /// Where a traced run leaves its span file.
    pub trace_dir: PathBuf,
}

#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Measured>,
    /// Frozen work, sample counts and the highest supported percentiles,
    /// for the result file.
    pub detail: Value,
    /// Human-readable waterfall of the traced replay.
    pub waterfall: Option<String>,
}

fn sample_detail(label: &str, unit: &str, values: &[f64]) -> (String, Value) {
    let s = sorted(values.to_vec());
    let (tail_label, tail_p) = highest_supported_percentile(s.len());
    (
        label.to_string(),
        Value::obj([
            ("samples", Value::from(s.len())),
            ("unit", Value::from(unit)),
            ("p50", Value::from(percentile(&s, 0.5))),
            ("highest_supported", Value::from(tail_label)),
            (
                "highest_supported_value",
                Value::from(percentile(&s, tail_p)),
            ),
        ]),
    )
}

/// Fewest windows a median is taken over; a shorter run (`--quick`) reports
/// its whole-run rate.
const MIN_RATE_WINDOWS: usize = 3;

/// Median rate of the run's windows (see [`crate::stats::RateWindows`]).
fn query_qps(e: &EngineOutcome) -> f64 {
    if e.query_rates.len() >= MIN_RATE_WINDOWS {
        median(&e.query_rates)
    } else {
        e.query_us.len() as f64 / e.query_window_s
    }
}

fn end_to_end(e: &EngineOutcome) -> Vec<(&'static str, f64)> {
    let scored = sorted(e.miss_us.clone());
    vec![
        ("setup_s", e.setup_s),
        ("ingest_eps", e.events as f64 / e.wall_s),
        ("publish_lag_p50_ms", median(&e.lag_ms)),
        ("query_qps", query_qps(e)),
        ("query_p50_us", percentile(&scored, 0.5)),
        (
            "holdout_hit_at_10",
            e.holdout_hits as f64 / e.holdout_total.max(1) as f64,
        ),
        ("peak_rss_mb", e.peak_rss_mb),
    ]
}

fn per_layer(
    w: &Workload,
    e: &EngineOutcome,
    untraced: &ReplayOutcome,
    traced: &ReplayOutcome,
) -> Vec<(&'static str, f64)> {
    let stages = traced.recorder.by_name();
    let none = StageStats::default();
    let stage = |name: &str| stages.get(name).unwrap_or(&none);
    let mean_ns = |name: &str| stage(name).mean_ns();
    let median_ms = |name: &str| stage(name).median_ns() / 1e6;
    let c = &traced.counts;
    let events = e.events as f64;
    let report = e.report.as_ref();
    let refreshed: f64 = c.refresh_nodes.iter().sum();
    let replica = e.replica.as_ref();
    vec![
        ("datasets.generate_s", e.setup_times.generate_s),
        ("datasets.save_tsv_s", e.setup_times.save_tsv_s),
        ("ingest.scan_s", e.setup_times.scan_s),
        ("ingest.parse_ns_per_event", mean_ns("ingest.parse")),
        ("graph.guard_admit_ns", mean_ns("graph.guard_admit")),
        ("graph.add_edge_ns", mean_ns("graph.add_edge")),
        ("core.train_chunk_ms", median_ms("core.train_chunk")),
        (
            "core.train_us_per_event",
            stage("core.train_chunk").total_ns() as f64 / 1e3 / events,
        ),
        (
            "core.inslearn_passes_per_chunk",
            mean(&c.inslearn_iterations),
        ),
        ("core.train_pass_us_per_event", c.train_pass_us_per_event),
        ("core.state_snapshot_ms", c.state_snapshot_ms),
        ("core.touched_rows_per_chunk", mean(&c.touched_rows)),
        ("core.export_snapshot_ms", median_ms("core.export_snapshot")),
        ("core.export_snapshot_bytes", c.snapshot_bytes as f64),
        ("core.delta_extract_ms", median_ms("core.delta_extract")),
        ("core.delta_encode_ms", median_ms("core.delta_encode")),
        ("core.delta_bytes_per_chunk", mean(&c.delta_bytes)),
        ("core.checkpoint_save_ms", median_ms("core.checkpoint_save")),
        ("core.checkpoint_bytes", c.checkpoint_bytes as f64),
        ("ann.build_s", c.ann_build_s),
        ("ann.index_bytes", c.index_bytes as f64),
        ("ann.update_batch_ms", median_ms("ann.update_batch")),
        (
            "ann.update_us_per_node",
            if refreshed > 0.0 {
                stage("ann.update_batch").total_ns() as f64 / 1e3 / refreshed
            } else {
                0.0
            },
        ),
        ("ann.refresh_batch_nodes", mean(&c.refresh_nodes)),
        ("ann.clone_ms", median_ms("ann.clone")),
        ("ann.search_us", mean_ns("ann.search") / 1e3),
        ("ann.candidates_per_query", mean(&c.candidates_per_query)),
        ("ann.recall_at_10", e.ann_recall.unwrap_or(0.0)),
        ("serve.rerank_us", mean_ns("serve.rerank") / 1e3),
        ("serve.brute_score_us", mean_ns("serve.brute_score") / 1e3),
        ("serve.cache_get_ns", mean_ns("serve.cache_get")),
        (
            "serve.cache_invalidate_us",
            stage("serve.cache_invalidate").median_ns() / 1e3,
        ),
        (
            "serve.snapshot_swap_us",
            stage("serve.snapshot_swap").median_ns() / 1e3,
        ),
        ("serve.chunk_ms", median_ms("writer.chunk")),
        (
            "serve.cache_hit_rate",
            if w.reader {
                report.map_or(0.0, |r| r.cache_hit_rate)
            } else {
                0.0
            },
        ),
        ("serve.query_cached_p50_us", median(&e.hit_us)),
        ("serve.query_uncached_p50_us", median(&e.miss_us)),
        (
            "serve.query_uncached_p95_us",
            percentile(&sorted(e.miss_us.clone()), 0.95),
        ),
        (
            "serve.query_p99_us",
            percentile(&sorted(e.query_us.clone()), 0.99),
        ),
        (
            "serve.publish_lag_p95_ms",
            percentile(&sorted(e.lag_ms.clone()), 0.95),
        ),
        ("serve.ingest_call_ns", e.ingest_call_s * 1e9 / events),
        ("serve.producer_blocked_share", e.ingest_call_s / e.wall_s),
        ("serve.flush_ms", e.flush_ms),
        (
            "serve.engine_overhead_ratio",
            // An open loop's wall is its schedule, not the engine's speed.
            if w.paced {
                0.0
            } else {
                e.wall_s / untraced.writer_wall_s
            },
        ),
        (
            "serve.gen_late_p95_ms",
            percentile(&sorted(e.late_ms.clone()), 0.95),
        ),
        ("serve.backlog_max", e.backlog_max as f64),
        ("replica.apply_ms_per_epoch", median_ms("replica.apply")),
        (
            "replica.apply_eps",
            replica.map_or(0.0, |r| events / r.apply_s),
        ),
        (
            "replica.segment_bytes",
            replica.map_or(0.0, |r| r.segment_bytes as f64),
        ),
        (
            "replica.delta_bytes_per_event",
            report.map_or(0.0, |r| r.delta_bytes_published as f64 / events),
        ),
        ("trace.coverage_ratio", traced.recorder.coverage_ratio()),
        (
            "trace.overhead_ratio",
            traced.writer_wall_s / untraced.writer_wall_s,
        ),
        ("trace.spans", traced.recorder.spans().len() as f64),
    ]
}

/// The traced replay as a table: where the single-threaded wall goes.
fn waterfall(traced: &ReplayOutcome) -> String {
    use std::fmt::Write as _;
    let stages = traced.recorder.by_name();
    let wall_ns = traced.wall_s * 1e9;
    let mut rows: Vec<(&str, &StageStats)> = stages.iter().map(|(n, s)| (*n, s)).collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
    let mut out = String::new();
    writeln!(
        out,
        "staged replay {:.3} s, span coverage {:.4}",
        traced.wall_s,
        traced.recorder.coverage_ratio()
    )
    .expect("String write");
    writeln!(
        out,
        "  {:<26} {:>8} {:>12} {:>8} {:>12}",
        "span", "calls", "self ms", "share", "median us"
    )
    .expect("String write");
    for (name, s) in rows {
        writeln!(
            out,
            "  {:<26} {:>8} {:>12.3} {:>7.2}% {:>12.2}",
            name,
            s.calls,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / wall_ns,
            s.median_ns() / 1e3
        )
        .expect("String write");
    }
    out
}

/// Pairs each entry of a metric table with its measured value, in table
/// order. A table entry without a value, or a value without an entry, is a
/// bug in this file.
fn named(
    values: &[(&'static str, f64)],
    table: impl ExactSizeIterator<Item = (&'static str, &'static str)>,
) -> Vec<Measured> {
    assert_eq!(values.len(), table.len(), "metric table and values differ");
    table
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no value measured for {name}"))
                .1;
            Measured { name, unit, value }
        })
        .collect()
}

pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let base = Workload::by_name(&opts.workload).ok_or_else(|| {
        let known: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{}' (known: {})",
            opts.workload,
            known.join(", ")
        )
    })?;
    let (w, timed) = if opts.quick {
        let w = base.quick();
        let timed = Workload::QUICK_CHUNKS * w.chunk;
        (w, timed)
    } else {
        (base.clone(), base.timed_events(opts.seconds))
    };
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("{}: {e}", opts.work_dir.display()))?;
    let dir = opts.work_dir.as_path();

    // Only the untraced run of a full workload reports `setup_s`.
    let repeat_setups = !opts.trace && !opts.quick;
    let mut e = run_engine(&w, opts.seed, timed, repeat_setups, opts.trace, dir)?;

    let mut detail = vec![
        (
            "work".to_string(),
            Value::obj([
                ("timed_events", Value::from(timed)),
                ("warm_events", Value::from(w.warm_events)),
                ("holdout_events", Value::from(w.holdout)),
                ("chunk", Value::from(w.chunk)),
                ("events_per_second", Value::from(w.events_per_second)),
                ("paced", Value::from(w.paced)),
            ]),
        ),
        (
            "digest".to_string(),
            Value::from(format!("{:#018x}", e.digest)),
        ),
        ("setup_samples".to_string(), Value::from(e.setup_samples)),
        (
            "poll_gap_max_ms".to_string(),
            Value::from(e.poll_gap_max_ms),
        ),
        sample_detail("query_latency", "us", &e.query_us),
        sample_detail("scored_query_latency", "us", &e.miss_us),
        sample_detail("publish_lag", "ms", &e.lag_ms),
        sample_detail("query_rate_windows", "1/s", &e.query_rates),
        (
            "query_qps_whole_run".to_string(),
            Value::from(e.query_us.len() as f64 / e.query_window_s),
        ),
    ];
    if w.paced {
        detail.push(sample_detail("generator_lateness", "ms", &e.late_ms));
    }

    let mut waterfall_text = None;
    let metrics = if opts.trace {
        let cfg = serve_config(&w, opts.seed, dir);
        let untraced = staged_replay(&w, &cfg, opts.seed, timed, false, dir)?;
        let traced = staged_replay(&w, &cfg, opts.seed, timed, true, dir)?;
        e.attempted += 2;
        for (what, digest) in [("untraced", untraced.digest), ("traced", traced.digest)] {
            if digest != e.digest {
                e.failed += 1;
                e.problems.push(format!(
                    "{what} staged replay digest {digest:#018x} differs from the engine's {:#018x}",
                    e.digest
                ));
            }
        }
        let coverage = traced.recorder.coverage_ratio();
        if coverage < 0.95 {
            e.failed += 1;
            e.problems.push(format!(
                "span self times cover {coverage:.4} of the replay, below 0.95"
            ));
        }
        std::fs::create_dir_all(&opts.trace_dir)
            .map_err(|err| format!("{}: {err}", opts.trace_dir.display()))?;
        let trace_path = opts
            .trace_dir
            .join(format!("trace-{}-seed{}.jsonl", w.name, opts.seed));
        traced
            .recorder
            .write_jsonl(&trace_path)
            .map_err(|err| format!("{}: {err}", trace_path.display()))?;
        detail.push((
            "trace_file".to_string(),
            Value::from(trace_path.display().to_string()),
        ));
        waterfall_text = Some(waterfall(&traced));
        named(
            &per_layer(&w, &e, &untraced, &traced),
            PER_LAYER.iter().map(|m| (m.name, m.unit)),
        )
    } else {
        named(&end_to_end(&e), END_TO_END.iter().map(|m| (m.name, m.unit)))
    };
    let _ = std::fs::remove_file(dir.join(format!("{}.tsv", w.name)));

    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        e.failed += 1;
        e.problems
            .push(format!("metric {} is not finite", bad.name));
    }
    Ok(RunResult {
        correct: e.failed == 0,
        attempted: e.attempted.max(1),
        failed: e.failed,
        problems: e.problems,
        metrics,
        detail: Value::Obj(detail),
        waterfall: waterfall_text,
    })
}

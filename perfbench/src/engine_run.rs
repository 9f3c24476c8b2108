//! The timed pass: the real `ServeEngine`, driven from outside through
//! `ServeHandle` only, by at most two threads — one producer and one
//! reader (or, on write-only workloads, one poller watching for epochs).

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use supa_datasets::Dataset;
use supa_eval::{top_k_scored, RecallAccumulator};
use supa_graph::NodeId;
use supa_ingest::EventStream;
use supa_replica::{replay_segment, Replica};
use supa_serve::{probe_digest, MetricsReport, ServeEngine, ServeHandle, StopCause};

use crate::setup::{
    clean_outputs, next_event, prepare, segment_path, serve_config, QueryGen, SetupTimes, TOP_K,
};
use crate::stats::{median, RateWindows};
use crate::workload::Workload;

/// One query in this many is re-scored against the epoch it claims.
const VERIFY_EVERY: u64 = 16;
/// Unmetered queries the reader issues first (thread-local scratch, page
/// faults), as the repo's own load generator does.
const WARMUP_QUERIES: usize = 8;
/// Full set-ups per untraced run (`setup_s` is their median): at least
/// three, more while they are cheap.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET_S: f64 = 2.0;
/// Floor on post-flush ANN recall@10. At the default beam widths the
/// shared-base index reaches 0.74 to 0.91 on the Kuaishou graph, depending on
/// the seed (and no more than 0.95 at four times the beam), so the engine's
/// own 0.95 guard default is out of reach here and no level near the observed
/// ones holds on every seed; the floor only catches a collapse, and the
/// per-layer metric `ann.recall_at_10` records the level.
const MIN_RECALL: f64 = 0.5;
/// One held-out probe in this many is also scored exactly for the recall
/// figure: a brute-force scan costs ten times the probe it checks.
const RECALL_EVERY: usize = 4;
/// Length of the windows `query_qps` is the median of. It equals the paced
/// workload's epoch period (chunk 8 at 16 events/s), so that every window
/// holds one whole invalidate-and-refill cycle of the result cache whatever
/// its phase.
const RATE_WINDOW_NS: u64 = 500_000_000;

#[derive(Debug, Default)]
pub struct EngineOutcome {
    /// Median wall of the full set-ups (generate → engine started).
    pub setup_s: f64,
    pub setup_samples: usize,
    /// Stage walls of the set-up whose engine ran the timed region.
    pub setup_times: SetupTimes,

    pub events: usize,
    /// First `ingest()` to `flush()` returning.
    pub wall_s: f64,
    pub flush_ms: f64,
    /// Per full-chunk epoch: due time of its last event → first poll that
    /// saw it published.
    pub lag_ms: Vec<f64>,
    /// Coarsest gap between two polls of `epochs_published`.
    pub poll_gap_max_ms: f64,

    /// Latency of every metered query, unsorted.
    pub query_us: Vec<f64>,
    /// Wall the metered queries were issued over.
    pub query_window_s: f64,
    /// Metered queries per second in each consecutive [`RATE_WINDOW_NS`] of
    /// that wall.
    pub query_rates: Vec<f64>,
    /// The same latencies split by cache outcome. The end-to-end latency
    /// percentiles are taken over the misses — the queries that were scored —
    /// because the mix's median jumps between a sub-microsecond hit and a
    /// scored miss whenever the hit rate crosses one half, and the hit rate
    /// moves with the very speeds being measured.
    pub hit_us: Vec<f64>,
    pub miss_us: Vec<f64>,

    /// Traced runs only: wall inside `ingest()` calls.
    pub ingest_call_s: f64,
    /// Open loop: how late each event was sent after it was due.
    pub late_ms: Vec<f64>,
    /// Traced runs only: most events handed over but not yet trained.
    pub backlog_max: u64,

    pub holdout_hits: usize,
    pub holdout_total: usize,
    /// Brute-force probe digest of the post-flush state.
    pub digest: u64,
    /// Post-flush ANN answers against exact ones (ANN workloads).
    pub ann_recall: Option<f64>,
    pub replica: Option<ReplicaOutcome>,
    pub report: Option<MetricsReport>,
    /// `VmHWM` after the timed region and probes, before verification.
    pub peak_rss_mb: f64,

    pub attempted: u64,
    pub failed: u64,
    /// Every violated check, in words.
    pub problems: Vec<String>,
}

#[derive(Debug)]
pub struct ReplicaOutcome {
    pub apply_s: f64,
    pub segment_bytes: u64,
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Live {
    dataset: Dataset,
    stream: EventStream,
    handle: ServeHandle,
}

struct ObserverOut {
    seen_ns: Vec<u64>,
    poll_gap_max_ns: u64,
    query_us: Vec<f64>,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    window_s: f64,
    rates: Vec<f64>,
    torn: u64,
}

/// The second thread: issues the reader's closed-loop queries when the
/// workload has a reader, and in any case stamps the first poll of
/// `epochs_published` that shows each epoch.
fn observe(
    handle: &ServeHandle,
    mut gen: Option<QueryGen>,
    e0: u64,
    n_epochs: usize,
    stop: &AtomicBool,
    t0: Instant,
) -> ObserverOut {
    let m = handle.ingest_metrics();
    let mut out = ObserverOut {
        seen_ns: vec![0; n_epochs],
        poll_gap_max_ns: 0,
        query_us: Vec::new(),
        hit_us: Vec::new(),
        miss_us: Vec::new(),
        window_s: 0.0,
        rates: Vec::new(),
        torn: 0,
    };
    if let Some(gen) = gen.as_mut() {
        for _ in 0..WARMUP_QUERIES {
            let (user, rel) = gen.next_query();
            let _ = handle.warm_query(user, rel, TOP_K);
        }
    }
    let window = Instant::now();
    let mut next_epoch = 0usize;
    let mut last_poll_ns = t0.elapsed().as_nanos() as u64;
    let mut windows = RateWindows::new(RATE_WINDOW_NS, last_poll_ns);
    let mut n = 0u64;
    loop {
        // Read `stop` before polling, so the last poll happens after the
        // producer's flush returned and sees every epoch.
        let done = stop.load(Ordering::Acquire);
        match gen.as_mut() {
            Some(gen) if !done => {
                let (user, rel) = gen.next_query();
                let hits_before = m.cache_hits.load(Ordering::Relaxed);
                let t = Instant::now();
                let result = handle.query(user, rel, TOP_K);
                let us = t.elapsed().as_nanos() as f64 / 1e3;
                out.query_us.push(us);
                // One reader thread, so the counter moves only for this query.
                if m.cache_hits.load(Ordering::Relaxed) > hits_before {
                    out.hit_us.push(us);
                } else {
                    out.miss_us.push(us);
                }
                n += 1;
                if n.is_multiple_of(VERIFY_EVERY) {
                    // `None`: the epoch aged out of the history ring — not
                    // checkable, not a failure.
                    if handle.verify(user, rel, TOP_K, &result) == Some(false) {
                        out.torn += 1;
                    }
                }
            }
            Some(_) => {}
            None if !done => std::thread::sleep(Duration::from_micros(200)),
            None => {}
        }
        let published = m
            .epochs_published
            .load(Ordering::Relaxed)
            .saturating_sub(e0) as usize;
        let now_ns = t0.elapsed().as_nanos() as u64;
        if gen.is_some() && !done {
            windows.completed(now_ns);
        }
        out.poll_gap_max_ns = out.poll_gap_max_ns.max(now_ns - last_poll_ns);
        last_poll_ns = now_ns;
        while next_epoch < n_epochs.min(published) {
            out.seen_ns[next_epoch] = now_ns;
            next_epoch += 1;
        }
        if done {
            break;
        }
    }
    out.window_s = window.elapsed().as_secs_f64();
    out.rates = windows.rates;
    out
}

struct ProducerOut {
    wall_s: f64,
    flush_ms: f64,
    ingest_call_s: f64,
    late_ms: Vec<f64>,
    backlog_max: u64,
}

/// The producer: streams `timed` events off the dump into `ingest()` — as
/// fast as backpressure allows (closed loop) or on the workload's fixed
/// schedule (open loop) — stamping when the last event of each chunk was
/// due, then flushes.
fn produce(
    w: &Workload,
    handle: &ServeHandle,
    stream: &mut EventStream,
    timed: usize,
    trace: bool,
    due_ns: &[AtomicU64],
    t0: Instant,
) -> Result<ProducerOut, String> {
    let m = handle.ingest_metrics();
    let applied0 = m.events_applied.load(Ordering::Relaxed);
    let mut out = ProducerOut {
        wall_s: 0.0,
        flush_ms: 0.0,
        ingest_call_s: 0.0,
        late_ms: Vec::new(),
        backlog_max: 0,
    };
    let start = Instant::now();
    let origin_ns = (start - t0).as_nanos() as u64;
    for i in 0..timed {
        let edge = next_event(stream)?;
        let due = if w.paced {
            let target = Duration::from_secs_f64(i as f64 / w.events_per_second);
            let now = start.elapsed();
            if target > now {
                std::thread::sleep(target - now);
            }
            out.late_ms
                .push(start.elapsed().saturating_sub(target).as_secs_f64() * 1e3);
            origin_ns + target.as_nanos() as u64
        } else {
            t0.elapsed().as_nanos() as u64
        };
        if (i + 1) % w.chunk == 0 {
            due_ns[(i + 1) / w.chunk - 1].store(due, Ordering::Relaxed);
        }
        if trace {
            let t = Instant::now();
            handle.ingest(edge).map_err(|e| e.to_string())?;
            out.ingest_call_s += t.elapsed().as_secs_f64();
            let trained = m.events_applied.load(Ordering::Relaxed) - applied0;
            out.backlog_max = out.backlog_max.max((i as u64 + 1).saturating_sub(trained));
        } else {
            handle.ingest(edge).map_err(|e| e.to_string())?;
        }
    }
    let t = Instant::now();
    handle.flush().map_err(|e| e.to_string())?;
    out.flush_ms = t.elapsed().as_secs_f64() * 1e3;
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Sets up repeatedly (the last engine is the one measured), runs the timed
/// region, probes the post-flush state and checks it. With `repeat_setups`
/// there are at least [`MIN_SETUPS`] full set-ups, and cheap ones go on until
/// [`SETUP_BUDGET_S`] is spent or [`MAX_SETUPS`] are done, so that the median
/// of a 25 ms set-up rests on as much work as that of a 5 s one.
pub fn run_engine(
    w: &Workload,
    seed: u64,
    timed: usize,
    repeat_setups: bool,
    trace: bool,
    dir: &Path,
) -> Result<EngineOutcome, String> {
    let mut out = EngineOutcome {
        events: timed,
        ..EngineOutcome::default()
    };

    let mut setup_walls = Vec::new();
    let mut live: Option<Live> = None;
    loop {
        // Tear the previous engine down outside the timer.
        drop(live.take());
        clean_outputs(dir);
        let t = Instant::now();
        let p = prepare(w, seed, timed, dir)?;
        let handle = ServeEngine::start(p.graph, p.model, serve_config(w, seed, dir))
            .map_err(|e| format!("engine start: {e}"))?;
        setup_walls.push(t.elapsed().as_secs_f64());
        let enough = !repeat_setups
            || setup_walls.len() >= MAX_SETUPS
            || (setup_walls.len() >= MIN_SETUPS
                && setup_walls.iter().sum::<f64>() >= SETUP_BUDGET_S);
        out.setup_times = p.times;
        live = Some(Live {
            dataset: p.dataset,
            stream: p.stream,
            handle,
        });
        if enough {
            break;
        }
    }
    out.setup_s = median(&setup_walls);
    out.setup_samples = setup_walls.len();
    let Live {
        dataset,
        mut stream,
        handle,
    } = live.expect("at least one set-up ran");

    // --- timed region -----------------------------------------------------
    let m = handle.ingest_metrics();
    let e0 = m.epochs_published.load(Ordering::Relaxed);
    let n_epochs = timed / w.chunk;
    let due_ns: Vec<AtomicU64> = (0..n_epochs).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let gen = w.reader.then(|| QueryGen::new(&dataset, seed));
    let (produced, observed) = std::thread::scope(|s| {
        let observer = s.spawn(|| observe(&handle, gen, e0, n_epochs, &stop, t0));
        let produced = produce(w, &handle, &mut stream, timed, trace, &due_ns, t0);
        stop.store(true, Ordering::Release);
        (produced, observer.join())
    });
    let produced = produced?;
    let observed = observed.map_err(|_| "reader thread panicked".to_string())?;

    out.wall_s = produced.wall_s;
    out.flush_ms = produced.flush_ms;
    out.ingest_call_s = produced.ingest_call_s;
    out.late_ms = produced.late_ms;
    out.backlog_max = produced.backlog_max;
    out.poll_gap_max_ms = observed.poll_gap_max_ns as f64 / 1e6;
    out.lag_ms = due_ns
        .iter()
        .zip(&observed.seen_ns)
        .map(|(due, &seen)| seen.saturating_sub(due.load(Ordering::Relaxed)) as f64 / 1e6)
        .collect();
    out.query_us = observed.query_us;
    out.hit_us = observed.hit_us;
    out.miss_us = observed.miss_us;
    out.query_window_s = observed.window_s;
    out.query_rates = observed.rates;
    out.attempted = timed as u64 + out.query_us.len() as u64;
    out.failed += observed.torn;
    if observed.torn > 0 {
        out.problems.push(format!(
            "{} torn reads on the sampled verify",
            observed.torn
        ));
    }
    if observed.seen_ns.contains(&0) && n_epochs > 0 {
        out.failed += 1;
        out.problems
            .push("an epoch of the timed region was never seen published".into());
    }

    // --- post-flush probes ------------------------------------------------
    let snap = handle.snapshot();
    let mut probe_us = Vec::with_capacity(w.holdout);
    let mut recall = RecallAccumulator::default();
    let mut query_vec = Vec::new();
    let mut search = supa_ann::SearchScratch::default();
    let probe_start = Instant::now();
    let mut probe_windows = RateWindows::new(RATE_WINDOW_NS, 0);
    for j in 0..w.holdout {
        let e = next_event(&mut stream)?;
        let t = Instant::now();
        let result = handle.query(e.src, e.relation, TOP_K);
        probe_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        probe_windows.completed(probe_start.elapsed().as_nanos() as u64);
        out.holdout_hits += usize::from(result.items.iter().any(|&(item, _)| item == e.dst));
        if let Some(ann) = snap.ann.as_deref().filter(|_| j % RECALL_EVERY == 0) {
            // The held-out events' sources are the serving population. The
            // published index is searched directly — the engine's ANN arm,
            // without the result cache, whose staleness is not index recall —
            // and compared with exact scoring of the same snapshot.
            let candidates = handle.candidates(e.relation);
            let ef = ann.ef_search().max(TOP_K).saturating_add(ann.ef_margin());
            if let Some(index) = ann.index(e.relation).filter(|_| ef < candidates.len()) {
                snap.scorer
                    .composite_into(e.src, e.relation, &mut query_vec);
                let beam: Vec<NodeId> = index
                    .search_into(&query_vec, ef, ef, &mut search)
                    .iter()
                    .map(|&id| NodeId(id))
                    .collect();
                let approx = top_k_scored(&snap.scorer, e.src, &beam, e.relation, TOP_K);
                let exact = top_k_scored(&snap.scorer, e.src, candidates, e.relation, TOP_K);
                recall.push(&exact, &approx);
            }
        }
        if (j as u64).is_multiple_of(VERIFY_EVERY)
            && handle.verify(e.src, e.relation, TOP_K, &result) == Some(false)
        {
            out.failed += 1;
            out.problems.push(format!(
                "holdout probe {j} differs from its epoch's exact re-score"
            ));
        }
    }
    out.holdout_total = w.holdout;
    out.attempted += w.holdout as u64;
    if !w.reader {
        // Write-only workloads have no concurrent reader; their query
        // figures are the quiescent post-flush probes.
        out.query_window_s = probe_start.elapsed().as_secs_f64();
        out.query_rates = probe_windows.rates;
        // No cache on these workloads: every probe is scored.
        out.miss_us.clone_from(&probe_us);
        out.query_us = probe_us;
    }

    if w.ann {
        out.ann_recall = Some(recall.mean());
        if recall.mean() < MIN_RECALL {
            out.failed += 1;
            out.problems.push(format!(
                "ann recall@10 {:.4} is below the {MIN_RECALL} floor",
                recall.mean()
            ));
        }
    }

    out.digest = probe_digest(&dataset, seed, TOP_K, |user, rel, k| {
        top_k_scored(&snap.scorer, user, handle.candidates(rel), rel, k)
    });
    drop(snap);
    out.peak_rss_mb = peak_rss_mb();

    // --- shutdown and checks ---------------------------------------------
    let report = handle.shutdown();
    if !matches!(report.stop, StopCause::Shutdown) {
        out.failed += 1;
        out.problems
            .push(format!("writer stopped with {:?}", report.stop));
    }
    let lost = [
        ("quarantined", report.metrics.events_quarantined),
        ("shed", report.metrics.events_shed()),
        ("torn reads", report.metrics.torn_reads),
        ("delta publish errors", report.metrics.delta_publish_errors),
    ];
    for (what, count) in lost {
        if count > 0 {
            out.failed += count;
            out.problems.push(format!("{count} {what}"));
        }
    }
    if report.events_admitted != timed as u64 {
        out.failed += (timed as u64).abs_diff(report.events_admitted);
        out.problems.push(format!(
            "engine admitted {} of {timed} events",
            report.events_admitted
        ));
    }

    if w.replicate {
        let segment = segment_path(dir);
        let segment_bytes = std::fs::metadata(&segment).map_or(0, |m| m.len());
        let mut replica = Replica::new(dataset.prototype.clone(), None);
        let t = Instant::now();
        replay_segment(&segment, &mut replica).map_err(|e| format!("segment replay: {e}"))?;
        let apply_s = t.elapsed().as_secs_f64();
        let digest = probe_digest(&dataset, seed, TOP_K, |user, rel, k| {
            replica.query(user, rel, k)
        });
        if digest != out.digest {
            out.failed += 1;
            out.problems.push(format!(
                "replica digest {digest:#018x} differs from the writer's {:#018x}",
                out.digest
            ));
        }
        out.replica = Some(ReplicaOutcome {
            apply_s,
            segment_bytes,
        });
    }
    out.report = Some(report.metrics);
    clean_outputs(dir);
    Ok(out)
}

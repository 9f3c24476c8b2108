//! Seeded load generators: replay a dataset's event stream through a
//! serving engine while reader threads issue query traffic, then report
//! throughput, latency, staleness, and consistency.
//!
//! Two arrival models:
//!
//! - [`run_closed_loop`] — the producer offers the next event as soon as
//!   the previous `ingest` returns, so a lagging engine slows the producer
//!   down (backpressure hides overload). The report separates
//!   *deterministic* fields (counts, the post-flush result digest —
//!   reproducible for a fixed seed) from *timing* fields (QPS, latency
//!   quantiles, cache hit rate — machine- and load-dependent), so seeded
//!   runs can be compared modulo timing.
//! - [`run_open_loop`] — seeded Poisson arrivals at a fixed mean rate that
//!   do **not** slow down when the engine lags; the backlog is the
//!   experiment. Readers hammer queries for the whole burst and their
//!   latencies are recorded exactly (not histogram-bucketed), so the
//!   report can prove tail-latency bounds under overload, alongside shed
//!   counts and the degradation ladder's peak and recovery.
//!
//! Both runners can periodically append one JSON line of [`MetricsReport`]
//! to [`LoadConfig::metrics_dump`] while they run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use supa::Supa;
use supa_datasets::Dataset;
use supa_eval::top_k_scored;
use supa_graph::{NodeId, RelationId, TemporalEdge};

use crate::engine::{ServeConfig, ServeEngine, ServeHandle, StopCause};
use crate::metrics::{MetricsReport, ServeMetrics};
use crate::prom::PromServer;

/// Query-side knobs for [`run_closed_loop`] and [`run_open_loop`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent reader threads.
    pub readers: usize,
    /// K for every top-K query.
    pub top_k: usize,
    /// Queries each reader issues (closed loop only; open-loop readers run
    /// for the duration of the burst).
    pub queries_per_reader: usize,
    /// Seed for the query mix (reader `i` uses `seed ^ i`-derived streams).
    pub seed: u64,
    /// Unmetered warm-up queries each reader issues before its metered loop
    /// (drawn from a separate rng stream, so the metered mix is unchanged).
    /// The first query on a fresh thread pays one-off costs — thread-local
    /// scratch allocation, faulting the embedding tables in — that would
    /// otherwise show up as a multi-millisecond p99 outlier.
    pub warmup_per_reader: usize,
    /// Re-score every result against its claimed epoch's retained snapshot
    /// and count mismatches as torn reads.
    pub verify: bool,
    /// Append a [`MetricsReport`] JSON line here every ~200 ms while the
    /// run is live (plus one final line), for offline overload analysis.
    pub metrics_dump: Option<std::path::PathBuf>,
    /// Serve Prometheus text exposition (`text/plain; version=0.0.4`) on
    /// this address (e.g. `127.0.0.1:9464`) for the lifetime of the run.
    pub prom_addr: Option<String>,
    /// With `prom_addr`: after the replay finishes, keep serving until at
    /// least this many scrapes have been answered (bounded by a ~60 s
    /// timeout), so a scraper that races a short run still gets a sample.
    pub prom_wait: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            readers: 4,
            top_k: 10,
            queries_per_reader: 500,
            seed: 7,
            warmup_per_reader: 8,
            verify: true,
            metrics_dump: None,
            prom_addr: None,
            prom_wait: 0,
        }
    }
}

/// A stream of timestamped edges for [`run_streamed_closed_loop`]: the
/// producer side of the closed loop, abstracted so a replay can come from
/// an in-memory dataset or a bounded-memory file reader without the two
/// paths diverging (they must produce the same engine digest).
pub trait EventSource {
    /// The next event, `None` at end of stream, `Some(Err)` on a fatal
    /// stream error (the run aborts and surfaces it).
    fn next_event(&mut self) -> Option<std::io::Result<TemporalEdge>>;

    /// Publishes source-side counters (lines, bytes, interner tallies) into
    /// the engine's metrics block. Called every few thousand events and
    /// once at end of stream; the default does nothing.
    fn publish(&self, _metrics: &ServeMetrics) {}
}

/// The in-memory source behind [`run_closed_loop`]: yields a dataset's
/// edge slice in order, infallibly.
struct SliceSource<'a> {
    iter: std::slice::Iter<'a, TemporalEdge>,
}

impl EventSource for SliceSource<'_> {
    fn next_event(&mut self) -> Option<std::io::Result<TemporalEdge>> {
        self.iter.next().map(|&e| Ok(e))
    }
}

/// The bounded-memory file producer: `supa-ingest`'s second pass streams
/// edges straight off disk, and its line/byte/interner tallies surface as
/// the engine's `ingest_*` metrics.
impl EventSource for supa_ingest::EventStream {
    fn next_event(&mut self) -> Option<std::io::Result<TemporalEdge>> {
        self.next().map(|r| {
            r.map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
        })
    }

    fn publish(&self, m: &ServeMetrics) {
        let s = self.stats();
        // `stats()` is cumulative, so these are absolute stores, not adds.
        m.ingest_lines.store(s.lines, Ordering::Relaxed);
        m.ingest_comments.store(s.comments, Ordering::Relaxed);
        m.ingest_malformed.store(s.malformed, Ordering::Relaxed);
        m.ingest_interned_nodes
            .store(s.interner.interned, Ordering::Relaxed);
        m.ingest_spills.store(s.interner.spills, Ordering::Relaxed);
        m.ingest_bytes.store(s.bytes, Ordering::Relaxed);
    }
}

/// Outcome of one closed-loop run.
#[derive(Debug)]
pub struct LoadReport {
    /// Events offered to the ingest queue (the full stream, unless the
    /// writer stopped early).
    pub events_offered: u64,
    /// Queries whose claimed epoch had already aged out of the history ring
    /// (only counted under `verify`; such results are *not* torn reads,
    /// just unverifiable).
    pub unverifiable: u64,
    /// FNV-1a digest of deterministic probe queries issued after the final
    /// flush, scored directly against the final snapshot. Identical across
    /// runs with the same dataset, model seed, and serve/load seeds.
    pub digest: u64,
    /// Throughput each reader achieved over its own metered window, indexed
    /// by reader (empty when no reader issued metered queries). The
    /// aggregate `metrics.qps` divides by wall clock, so with staggered
    /// reader lifetimes it can sit well below the per-reader rates; this is
    /// the skew view.
    pub reader_qps: Vec<f64>,
    /// Serving metrics at shutdown.
    pub metrics: MetricsReport,
    /// Why the writer stopped (normally `Shutdown`).
    pub stop: StopCause,
}

/// Formats per-reader rates as `[r0 .., r1 .., ...]` for the reports.
fn fmt_reader_qps(qps: &[f64]) -> String {
    let cells: Vec<String> = qps
        .iter()
        .enumerate()
        .map(|(i, q)| format!("r{i} {q:.0}"))
        .collect();
    format!("[{}]", cells.join(", "))
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "offered {} events", self.events_offered)?;
        writeln!(f, "{}", self.metrics)?;
        if self.reader_qps.len() > 1 {
            writeln!(f, "qps/r:  {}", fmt_reader_qps(&self.reader_qps))?;
        }
        write!(
            f,
            "check:  {} unverifiable, probe digest {:#018x}",
            self.unverifiable, self.digest
        )
    }
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Issues the 64 seeded probe queries against `answer` and folds users,
/// relations, item ids, and score bits into the FNV-1a digest the load
/// reports print as `probe digest 0x…`.
///
/// The probe mix is a pure function of `(dataset, seed)`, so any two
/// answerers — the writer's post-flush snapshot, a replica that tailed its
/// delta stream, a segment replay — produce the same digest exactly when
/// their top-K answers are bit-identical.
pub fn probe_digest<F>(dataset: &Dataset, seed: u64, top_k: usize, mut answer: F) -> u64
where
    F: FnMut(NodeId, RelationId, usize) -> Vec<(NodeId, f32)>,
{
    let mix = QueryMix::from_dataset(dataset);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..64 {
        let (user, rel) = mix.sample(&mut rng);
        fnv1a(&mut digest, &user.0.to_le_bytes());
        fnv1a(&mut digest, &rel.0.to_le_bytes());
        for (item, score) in answer(user, rel, top_k) {
            fnv1a(&mut digest, &item.0.to_le_bytes());
            fnv1a(&mut digest, &score.to_bits().to_le_bytes());
        }
    }
    digest
}

/// Per-relation query-side universe: which nodes may ask, about what.
struct QueryMix {
    /// `(relation, users of its source type)`, relations with no possible
    /// querier excluded.
    per_relation: Vec<(RelationId, Vec<NodeId>)>,
}

impl QueryMix {
    fn from_dataset(d: &Dataset) -> Self {
        let schema = d.prototype.schema();
        let per_relation = (0..schema.num_relations())
            .filter_map(|r| {
                let rel = RelationId(r as u16);
                let users = d.prototype.nodes_of_type(schema.relation(rel)?.src_type);
                (!users.is_empty()).then(|| (rel, users.to_vec()))
            })
            .collect();
        QueryMix { per_relation }
    }

    fn sample(&self, rng: &mut SmallRng) -> (NodeId, RelationId) {
        let (rel, users) = &self.per_relation[rng.random_range(0..self.per_relation.len())];
        (users[rng.random_range(0..users.len())], *rel)
    }
}

/// Appends one [`MetricsReport`] JSON line (prefixed with a `t_ms` relative
/// timestamp) every ~200 ms until `stop` is raised, then a final line. On a
/// sharded engine each line also carries the per-shard breakdown
/// (`"shards":[...]`, see [`ServeHandle::metrics_json`]).
fn dump_loop(handle: &ServeHandle, file: std::fs::File, stop: &AtomicBool) {
    use std::io::Write;
    let mut wtr = std::io::BufWriter::new(file);
    let t0 = Instant::now();
    loop {
        let done = stop.load(Ordering::Relaxed);
        let line = handle.metrics_json();
        // Splice the timestamp into the report object: both are flat JSON.
        let _ = writeln!(
            wtr,
            "{{\"t_ms\":{},{}",
            t0.elapsed().as_millis(),
            &line[1..]
        );
        if done {
            break;
        }
        for _ in 0..10 {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let _ = wtr.flush();
}

/// Answers pending scrapes every ~20 ms until `stop` is raised, then one
/// final poll; the exposition is rendered only when a scrape is waiting.
/// `served` accumulates how many scrapes were answered (the `prom_wait`
/// gate watches it).
fn prom_loop(handle: &ServeHandle, srv: PromServer, stop: &AtomicBool, served: &AtomicU64) {
    loop {
        let done = stop.load(Ordering::Relaxed);
        let n = srv.poll(|| crate::prom::render(&handle.metrics()));
        if n > 0 {
            served.fetch_add(n as u64, Ordering::Relaxed);
        }
        if done {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// With `prom_addr` set: blocks until `prom_wait` scrapes have been
/// answered or ~60 s pass, so short CI runs stay alive long enough for an
/// external scraper to land one request.
fn prom_wait_gate(load: &LoadConfig, served: &AtomicU64) {
    if load.prom_addr.is_none() || load.prom_wait == 0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while served.load(Ordering::Relaxed) < load.prom_wait as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Replays `dataset`'s event stream into a fresh serving engine while
/// `load.readers` threads issue `load.queries_per_reader` queries each,
/// then flushes, runs deterministic probe queries, and shuts down.
pub fn run_closed_loop(
    dataset: &Dataset,
    model: Supa,
    serve_cfg: ServeConfig,
    load: LoadConfig,
) -> std::io::Result<LoadReport> {
    let mut source = SliceSource {
        iter: dataset.edges.iter(),
    };
    run_streamed_closed_loop(dataset, model, serve_cfg, load, &mut source)
}

/// [`run_closed_loop`] with the producer abstracted behind an
/// [`EventSource`]: events come from `source` instead of
/// `dataset.edges`, so a bounded-memory file reader can replay a dump the
/// dataset never materialises. `dataset` supplies only the node universe
/// and query mix (its edge list may be empty).
///
/// The contract both producers share: a well-formed dump streamed through
/// here and the same dump loaded via `load_tsv` and replayed by
/// [`run_closed_loop`] produce the **same probe digest** — streaming is an
/// I/O strategy, not a semantic change.
pub fn run_streamed_closed_loop(
    dataset: &Dataset,
    model: Supa,
    serve_cfg: ServeConfig,
    load: LoadConfig,
    source: &mut dyn EventSource,
) -> std::io::Result<LoadReport> {
    let mix = QueryMix::from_dataset(dataset);
    let mut dump_file = match &load.metrics_dump {
        Some(path) => Some(std::fs::File::create(path)?),
        None => None,
    };
    let mut prom = match &load.prom_addr {
        Some(addr) => Some(PromServer::bind(addr)?),
        None => None,
    };
    let handle = ServeEngine::start(dataset.prototype.clone(), model, serve_cfg)?;

    let unverifiable = AtomicU64::new(0);
    let dump_stop = AtomicBool::new(false);
    let prom_stop = AtomicBool::new(false);
    let prom_served = AtomicU64::new(0);
    let reader_qps: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
    let mut digest = 0u64;
    let mut offered = 0u64;
    let mut stream_err: Option<std::io::Error> = None;
    std::thread::scope(|outer| {
        if let Some(file) = dump_file.take() {
            let handle = &handle;
            let dump_stop = &dump_stop;
            outer.spawn(move || dump_loop(handle, file, dump_stop));
        }
        if let Some(srv) = prom.take() {
            let handle = &handle;
            let prom_stop = &prom_stop;
            let prom_served = &prom_served;
            outer.spawn(move || prom_loop(handle, srv, prom_stop, prom_served));
        }
        std::thread::scope(|scope| {
            for reader in 0..load.readers {
                let handle = &handle;
                let mix = &mix;
                let unverifiable = &unverifiable;
                let reader_qps = &reader_qps;
                let mut rng =
                    SmallRng::seed_from_u64(load.seed ^ (reader as u64).wrapping_mul(0x9E37));
                let mut warm_rng = SmallRng::seed_from_u64(
                    load.seed ^ 0x5741_524D ^ (reader as u64).wrapping_mul(0x9E37),
                );
                scope.spawn(move || {
                    for _ in 0..load.warmup_per_reader {
                        let (user, rel) = mix.sample(&mut warm_rng);
                        let _ = handle.warm_query(user, rel, load.top_k);
                    }
                    let t0 = Instant::now();
                    for _ in 0..load.queries_per_reader {
                        let (user, rel) = mix.sample(&mut rng);
                        let result = handle.query(user, rel, load.top_k);
                        if load.verify && handle.verify(user, rel, load.top_k, &result).is_none() {
                            unverifiable.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let secs = t0.elapsed().as_secs_f64();
                    if load.queries_per_reader > 0 && secs > 0.0 {
                        reader_qps
                            .lock()
                            .unwrap()
                            .push((reader, load.queries_per_reader as f64 / secs));
                    }
                });
            }

            // The ingest loop runs on this thread, concurrent with the
            // readers; under the default `block` policy `ingest` blocks when
            // the bounded queue fills (backpressure) — which in turn stalls
            // the source's reads, so a streamed file is consumed no faster
            // than the engine absorbs it.
            loop {
                match source.next_event() {
                    None => break,
                    Some(Err(e)) => {
                        stream_err = Some(e);
                        break;
                    }
                    Some(Ok(edge)) => {
                        offered += 1;
                        if handle.ingest(edge).is_err() {
                            break; // writer stopped (strict-policy fault)
                        }
                        if offered.is_multiple_of(512) {
                            source.publish(handle.ingest_metrics());
                        }
                    }
                }
            }
            source.publish(handle.ingest_metrics());
        });

        // Drain the queue and train the final partial chunk so the probe
        // sees every admitted event, then digest a deterministic query
        // sample scored directly against the final snapshot (bypassing the
        // cache, whose contents depend on reader timing).
        let _ = handle.flush();
        let snap = handle.snapshot();
        digest = probe_digest(dataset, load.seed, load.top_k, |user, rel, k| {
            top_k_scored(&snap.scorer, user, handle.candidates(rel), rel, k)
        });
        dump_stop.store(true, Ordering::Relaxed);
        prom_wait_gate(&load, &prom_served);
        prom_stop.store(true, Ordering::Relaxed);
    });

    let mut per_reader = reader_qps.into_inner().unwrap_or_else(|e| e.into_inner());
    per_reader.sort_by_key(|&(reader, _)| reader);
    let report = handle.shutdown();
    if let Some(e) = stream_err {
        return Err(e);
    }
    Ok(LoadReport {
        events_offered: offered,
        unverifiable: unverifiable.into_inner(),
        digest,
        reader_qps: per_reader.into_iter().map(|(_, qps)| qps).collect(),
        metrics: report.metrics,
        stop: report.stop,
    })
}

/// Arrival-side knobs for [`run_open_loop`].
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Mean Poisson arrival rate, events per second. Offered load, not
    /// achieved load: the producer never slows down for a lagging engine.
    pub arrival_rate: f64,
    /// Events to offer (truncated to the dataset's stream length).
    pub events: usize,
    /// After the burst is flushed, how long to wait for the degradation
    /// ladder to walk back to level 0 before giving up (the report records
    /// the level actually reached).
    pub recovery_timeout: Duration,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            arrival_rate: 50_000.0,
            events: 4096,
            recovery_timeout: Duration::from_secs(10),
        }
    }
}

/// Outcome of one open-loop (Poisson-arrival) overload run.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Events actually offered to admission control.
    pub events_offered: u64,
    /// Wall-clock duration of the arrival burst.
    pub burst_secs: f64,
    /// `events_offered / burst_secs` — sags below the configured rate only
    /// if the admission path itself blocked (e.g. pre-escalation
    /// backpressure), since the pacer never waits for the engine.
    pub achieved_rate: f64,
    /// Metered queries answered during the burst.
    pub queries: u64,
    /// Exact (sorted-sample, not histogram) query latency median, µs.
    pub query_p50_us: f64,
    /// Exact query latency 99th percentile, µs.
    pub query_p99_us: f64,
    /// Verified queries whose epoch aged out of the history ring.
    pub unverifiable: u64,
    /// Throughput each reader achieved over its own metered window, indexed
    /// by reader (the aggregate `queries / burst_secs` hides skew).
    pub reader_qps: Vec<f64>,
    /// Highest degradation-ladder level the burst forced.
    pub max_level: u64,
    /// Ladder level after the recovery wait (0 = fully recovered).
    pub final_level: u8,
    /// Serving metrics at shutdown (shed counts live here).
    pub metrics: MetricsReport,
    /// Why the writer stopped (normally `Shutdown`).
    pub stop: StopCause,
}

impl std::fmt::Display for OpenLoopReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "offered {} events in {:.2}s (~{:.0} ev/s achieved)",
            self.events_offered, self.burst_secs, self.achieved_rate
        )?;
        writeln!(f, "{}", self.metrics)?;
        writeln!(
            f,
            "open:   {} queries, exact p50 {:.1} µs, p99 {:.1} µs, {} unverifiable",
            self.queries, self.query_p50_us, self.query_p99_us, self.unverifiable
        )?;
        if self.reader_qps.len() > 1 {
            writeln!(f, "qps/r:  {}", fmt_reader_qps(&self.reader_qps))?;
        }
        write!(
            f,
            "ladder: peaked at level {}, finished at level {}",
            self.max_level, self.final_level
        )
    }
}

/// Exact percentile over an ascending sample (0 for an empty sample).
fn pctl(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = (p.clamp(0.0, 1.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

/// Offers `open.events` events at seeded Poisson arrivals of
/// `open.arrival_rate`/s while `load.readers` threads hammer queries, then
/// flushes, waits for ladder recovery, and shuts down.
///
/// The producer is *open-loop*: when an arrival's scheduled time is already
/// past it fires immediately and never re-paces, so a lagging engine faces
/// the full configured rate — exactly the regime admission control exists
/// for.
pub fn run_open_loop(
    dataset: &Dataset,
    model: Supa,
    serve_cfg: ServeConfig,
    load: LoadConfig,
    open: OpenLoopConfig,
) -> std::io::Result<OpenLoopReport> {
    if !open.arrival_rate.is_finite() || open.arrival_rate <= 0.0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "open-loop arrival_rate must be a positive finite rate, got {}",
                open.arrival_rate
            ),
        ));
    }
    let mix = QueryMix::from_dataset(dataset);
    let mut dump_file = match &load.metrics_dump {
        Some(path) => Some(std::fs::File::create(path)?),
        None => None,
    };
    let mut prom = match &load.prom_addr {
        Some(addr) => Some(PromServer::bind(addr)?),
        None => None,
    };
    let handle = ServeEngine::start(dataset.prototype.clone(), model, serve_cfg)?;

    let unverifiable = AtomicU64::new(0);
    let dump_stop = AtomicBool::new(false);
    let prom_stop = AtomicBool::new(false);
    let prom_served = AtomicU64::new(0);
    let read_stop = AtomicBool::new(false);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let reader_qps: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
    let events = open.events.min(dataset.edges.len());
    let mut offered = 0u64;
    let mut burst_secs = 0.0f64;
    std::thread::scope(|outer| {
        if let Some(file) = dump_file.take() {
            let handle = &handle;
            let dump_stop = &dump_stop;
            outer.spawn(move || dump_loop(handle, file, dump_stop));
        }
        if let Some(srv) = prom.take() {
            let handle = &handle;
            let prom_stop = &prom_stop;
            let prom_served = &prom_served;
            outer.spawn(move || prom_loop(handle, srv, prom_stop, prom_served));
        }
        std::thread::scope(|scope| {
            for reader in 0..load.readers {
                let handle = &handle;
                let mix = &mix;
                let unverifiable = &unverifiable;
                let read_stop = &read_stop;
                let latencies = &latencies;
                let reader_qps = &reader_qps;
                let mut rng =
                    SmallRng::seed_from_u64(load.seed ^ (reader as u64).wrapping_mul(0x9E37));
                let mut warm_rng = SmallRng::seed_from_u64(
                    load.seed ^ 0x5741_524D ^ (reader as u64).wrapping_mul(0x9E37),
                );
                scope.spawn(move || {
                    for _ in 0..load.warmup_per_reader {
                        let (user, rel) = mix.sample(&mut warm_rng);
                        let _ = handle.warm_query(user, rel, load.top_k);
                    }
                    let mut local = Vec::new();
                    let metered_from = Instant::now();
                    while !read_stop.load(Ordering::Relaxed) {
                        let (user, rel) = mix.sample(&mut rng);
                        let t0 = Instant::now();
                        let result = handle.query(user, rel, load.top_k);
                        local.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                        if load.verify && handle.verify(user, rel, load.top_k, &result).is_none() {
                            unverifiable.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let secs = metered_from.elapsed().as_secs_f64();
                    if !local.is_empty() && secs > 0.0 {
                        reader_qps
                            .lock()
                            .unwrap()
                            .push((reader, local.len() as f64 / secs));
                    }
                    latencies.lock().unwrap().extend(local);
                });
            }

            // Seeded Poisson pacer on this thread: exponential inter-arrival
            // gaps, absolute-time targets (drift-free), never waits for the
            // engine when behind schedule.
            let mut rng = SmallRng::seed_from_u64(load.seed ^ 0x4F50_454E);
            let start = Instant::now();
            let mut next_s = 0.0f64;
            for &edge in &dataset.edges[..events] {
                next_s += -(1.0 - rng.random::<f64>()).ln() / open.arrival_rate;
                let target = start + Duration::from_secs_f64(next_s);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                if handle.ingest(edge).is_err() {
                    break; // writer stopped
                }
                offered += 1;
            }
            burst_secs = start.elapsed().as_secs_f64();
            read_stop.store(true, Ordering::Relaxed);
        });

        // Drain and train everything that survived admission, then give the
        // writer's idle ticks time to walk the ladder back to full service.
        let _ = handle.flush();
        let deadline = Instant::now() + open.recovery_timeout;
        while handle.degradation_level() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        dump_stop.store(true, Ordering::Relaxed);
        prom_wait_gate(&load, &prom_served);
        prom_stop.store(true, Ordering::Relaxed);
    });

    let mut lat = latencies.into_inner().unwrap_or_else(|e| e.into_inner());
    lat.sort_unstable();
    let mut per_reader = reader_qps.into_inner().unwrap_or_else(|e| e.into_inner());
    per_reader.sort_by_key(|&(reader, _)| reader);
    let final_level = handle.degradation_level();
    let report = handle.shutdown();
    let max_level = report.metrics.degradation_max;
    Ok(OpenLoopReport {
        events_offered: offered,
        burst_secs,
        achieved_rate: if burst_secs > 0.0 {
            offered as f64 / burst_secs
        } else {
            0.0
        },
        queries: lat.len() as u64,
        query_p50_us: pctl(&lat, 0.50) as f64 / 1e3,
        query_p99_us: pctl(&lat, 0.99) as f64 / 1e3,
        unverifiable: unverifiable.into_inner(),
        reader_qps: per_reader.into_iter().map(|(_, qps)| qps).collect(),
        max_level,
        final_level,
        metrics: report.metrics,
        stop: report.stop,
    })
}

//! Lock-free serving metrics: counters, a log₂-bucketed latency histogram,
//! and the derived report (p50/p99, QPS, cache hit rate, staleness).
//!
//! Everything is `AtomicU64` with relaxed ordering — metrics are advisory
//! and must never serialize the query path. Staleness is defined as
//! `events_ingested − events_applied`: how many admitted events the
//! currently-published embeddings have not yet absorbed. Admission-control
//! counters (`events_shed_*`, the degradation-level gauge and transition
//! tallies) stay zero under the default `block` policy.
//!
//! Every raw counter is declared exactly once, as a row of the `metrics!`
//! invocation below: `field: Kind, "help";`, optionally preceded by
//! `///` lines of further detail. The macro expands the rows into the named
//! atomics of [`ServeMetrics`], the same-named fields of [`MetricsReport`],
//! the raw loads behind [`ServeMetrics::report`] and the crate-private
//! `DESCRIPTORS` table that [`MetricsReport::to_json`] and
//! [`crate::prom::render`] loop over. The help
//! text is the rustdoc summary of both fields and the `# HELP` line.
//! Recording stays a `fetch_add` on a named field; the table is only walked
//! when a report is taken.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use supa_graph::EventPriority;

/// Number of log₂ latency buckets; bucket `i` covers `[2^i, 2^{i+1})` ns,
/// bucket 0 covers `[0, 2)` ns. 2⁴⁷ ns ≈ 39 h, comfortably past any query.
const BUCKETS: usize = 48;

/// A log₂-bucketed latency histogram over nanoseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations (saturating: a histogram that has absorbed
    /// `u64::MAX` samples reports `u64::MAX`, it does not wrap).
    pub fn count(&self) -> u64 {
        self.counts
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.load(Ordering::Relaxed)))
    }

    /// The upper bound (ns) of the bucket containing quantile `q ∈ [0, 1]`,
    /// or 0 if nothing was recorded. Bucketing bounds the error to 2×.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c.load(Ordering::Relaxed));
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << 63
    }
}

/// How a raw counter is rendered by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Cumulative tally: JSON key `name`, Prometheus `supa_{name}_total`.
    Counter,
    /// Point-in-time value: JSON key `name`, Prometheus `supa_{name}`.
    Gauge,
    /// A tally under its own JSON key that Prometheus exposes as one label
    /// value of a hand-written family (`supa_events_shed_total{priority}`).
    Labelled,
    /// Feeds a derived value only (`cache_hit_rate`, `ann_recall`,
    /// `ann_recall_ewma`); never rendered under its own name.
    Internal,
}

/// One row of the metrics table: everything the renderers need to know
/// about a raw counter.
pub(crate) struct Descriptor {
    /// The field name on both structs, and the JSON key.
    pub name: &'static str,
    pub kind: Kind,
    /// Rustdoc summary of both fields and the Prometheus `# HELP` text.
    pub help: &'static str,
    #[cfg(test)]
    pub cell: fn(&ServeMetrics) -> &AtomicU64,
    pub get: fn(&MetricsReport) -> u64,
}

/// `n` per second over a `secs`-long window (0 for an empty window).
fn per_sec(n: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

/// `num / den`, or `empty` while nothing has been counted.
fn ratio(num: u64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

/// Decodes the `1 + round(ewma · 1e6)` recall scaling (0 = no check yet).
fn ewma_from_scaled(scaled: u64) -> f64 {
    match scaled {
        0 => 1.0,
        v => (v - 1) as f64 / 1e6,
    }
}

macro_rules! metrics {
    ($( $(#[$detail:meta])* $field:ident: $kind:ident, $help:literal; )+) => {
        /// Shared serving counters (writer and readers both update these).
        #[derive(Debug, Default)]
        pub struct ServeMetrics {
            $( #[doc = $help] #[doc = ""] $(#[$detail])* pub $field: AtomicU64, )+
            /// Query latency distribution.
            pub latency: LatencyHistogram,
            /// Latency distribution of cache-hit queries only.
            pub latency_hit: LatencyHistogram,
            /// Latency distribution of uncached (freshly scored) queries only.
            pub latency_miss: LatencyHistogram,
        }

        /// A point-in-time summary of [`ServeMetrics`]: every raw counter
        /// under its own name, then the derived rates and quantiles.
        ///
        /// `events_*`, `epochs_published`, `queries` and `torn_reads` are
        /// deterministic for a seeded run; `qps`, latency quantiles, cache
        /// hit rate and `staleness` depend on thread timing.
        #[derive(Debug, Clone, PartialEq)]
        pub struct MetricsReport {
            $( #[doc = $help] #[doc = ""] $(#[$detail])* pub $field: u64, )+
            /// Fraction of queries answered from the per-user cache.
            pub cache_hit_rate: f64,
            /// Mean guard-measured recall@K (exact integer tally `matched /
            /// expected`; 1.0 when no guard check has run).
            pub ann_recall: f64,
            /// Guard-recall moving average (α = 1/8; 1.0 until any guard check).
            pub ann_recall_ewma: f64,
            /// Queries per second over the report window.
            pub qps: f64,
            /// Cache-hit queries per second over the report window.
            pub cached_qps: f64,
            /// Freshly-scored (cache-miss) queries per second over the window.
            pub uncached_qps: f64,
            /// Latency quantiles over all queries (µs, log₂-bucketed).
            pub p50_us: f64,
            pub p99_us: f64,
            /// Latency quantiles over cache-hit queries only (0 until any hit).
            pub cached_p50_us: f64,
            pub cached_p99_us: f64,
            /// Latency quantiles over cache-miss queries only — the honest
            /// cost of a fresh score, unflattered by sub-µs cache hits.
            pub uncached_p50_us: f64,
            pub uncached_p99_us: f64,
            /// Admitted events not yet reflected in published embeddings.
            pub staleness: u64,
        }

        impl ServeMetrics {
            /// One relaxed load of every raw counter; the derived fields
            /// are left at zero for [`ServeMetrics::report`] to fill in.
            fn load_raw(&self) -> MetricsReport {
                MetricsReport {
                    $( $field: self.$field.load(Ordering::Relaxed), )+
                    cache_hit_rate: 0.0,
                    ann_recall: 0.0,
                    ann_recall_ewma: 0.0,
                    qps: 0.0,
                    cached_qps: 0.0,
                    uncached_qps: 0.0,
                    p50_us: 0.0,
                    p99_us: 0.0,
                    cached_p50_us: 0.0,
                    cached_p99_us: 0.0,
                    uncached_p50_us: 0.0,
                    uncached_p99_us: 0.0,
                    staleness: 0,
                }
            }
        }

        /// The metrics table, in declaration order.
        pub(crate) static DESCRIPTORS: &[Descriptor] = &[
            $( Descriptor {
                name: stringify!($field),
                kind: Kind::$kind,
                help: $help,
                #[cfg(test)]
                cell: |m| &m.$field,
                get: |r| r.$field,
            }, )+
        ];
    };
}

metrics! {
    events_ingested: Counter, "Events admitted by the guard and inserted into the graph.";
    events_quarantined: Counter, "Events the stream guard quarantined.";
    events_applied: Counter, "Admitted events whose training update has been applied.";
    epochs_published: Gauge, "Snapshots published (the current epoch number).";
    queries: Counter, "Queries answered.";
    cache_hits: Internal, "Queries answered from the per-user cache.";
    torn_reads: Counter, "Verified queries that matched no published epoch (must stay 0).";
    /// Cache hits and brute-force fallbacks are excluded.
    ann_queries: Counter, "Metered queries answered through the ANN index.";
    ann_guard_checks: Counter, "ANN answers re-scored against the full candidate set.";
    ann_guard_expected: Internal, "Exact-top-K entries the guard expected, over all checks.";
    ann_guard_matched: Internal, "Exact-top-K entries the ANN answers recovered.";
    ann_guard_breaches: Counter, "Guard checks whose recall fell below the configured floor.";
    /// Refresh and freeze, on the writer thread.
    ann_publish_us: Counter, "Cumulative microseconds refreshing ANN indexes at publication.";
    ann_publish_last_us: Gauge, "Microseconds of the most recent epoch's ANN refresh.";
    /// Counts ids × groups actually re-linked, so it reflects the real batch
    /// size the shared beam amortizes over.
    ann_refresh_batch: Gauge, "Ids re-linked into the ANN indexes at the most recent epoch.";
    ann_ef_search: Gauge, "ef_search in effect (0 = ANN off).";
    ann_ef_margin: Gauge, "ef_margin in effect.";
    /// Scaled as `1 + round(ewma · 1e6)` so 0 means "no guard check yet".
    /// Updated by [`ServeMetrics::record_guard_recall`].
    ann_recall_ewma_scaled: Internal, "Moving average of guard-measured recall.";
    events_shed_low: Labelled, "Low-priority events shed by the admission layer.";
    events_shed_normal: Labelled, "Normal-priority events shed by the admission layer.";
    events_shed_high: Labelled, "High-priority events shed by the admission layer.";
    /// Their updates carry weight `k`.
    events_resampled: Counter, "Events admitted as 1-in-k survivors under sampling shed.";
    degradation_level: Gauge, "Current degradation-ladder level (0 = full service).";
    degradation_max: Gauge, "Highest ladder level reached over the engine's lifetime.";
    level_escalations: Counter, "Degradation-ladder escalations (level increases).";
    level_deescalations: Counter, "Degradation-ladder de-escalations (recoveries).";
    shed_occupancy: Gauge, "Queue occupancy at the most recent shed decision.";
    deltas_published: Counter, "Epoch-delta frames published by the replication publisher.";
    delta_bytes_published: Counter, "Wire bytes of published delta frames.";
    delta_publish_errors: Counter, "Publish attempts that failed on transport I/O.";
    /// Delta extraction, encoding, segment write and subscriber fan-out, on
    /// the writer thread.
    delta_publish_us: Counter, "Cumulative microseconds publishing replication deltas.";
    /// Serving continues; a later resume starts from the last save that landed.
    checkpoint_errors: Counter, "Checkpoint saves that failed on I/O.";
    /// Serialisation, write, fsync and rename, on the writer thread; failed
    /// saves included.
    checkpoint_save_us: Counter, "Cumulative microseconds saving checkpoints.";
    /// Patching a recycled snapshot or exporting a fresh one, on the writer
    /// thread, like the next two rows.
    snapshot_export_us: Counter, "Cumulative microseconds exporting published snapshots.";
    /// A node counts once, however many of its tables were rewritten: all
    /// of them on a full export or after a memory write, only the written
    /// context tables' composites otherwise.
    snapshot_rows_copied: Counter, "Nodes whose rows were written into published snapshots.";
    snapshot_full_exports: Counter, "Published snapshots that copied every row.";
    /// Not torn reads: the ring keeps `keep_history + 1` epochs.
    verify_aged_out: Counter, "Verify calls whose epoch had left the history ring.";
    /// Summed from each chunk's `InsLearnReport`, like the next two rows.
    inslearn_rollbacks: Counter, "Training batches rolled back to their best-validated state.";
    inslearn_divergence_rollbacks: Counter, "Training divergences recovered by a rollback.";
    inslearn_early_stops: Counter, "Training batches that stopped early (patience exceeded).";
    /// Training's sampler thread draws the next events' walks and negatives
    /// while the trainer applies gradients; this is how long the trainer
    /// stood idle for them. Near zero: the trainer bounds a chunk's
    /// training; most of `n_iter` passes: the sampler does.
    inslearn_sample_wait_us: Counter, "Cumulative microseconds the trainer waited for sampled walks and negatives.";
    deltas_applied: Counter, "Replication frames applied on the replica side.";
    delta_bytes_applied: Counter, "Wire bytes of applied replication frames.";
    delta_crc_failures: Counter, "Replication frames rejected by CRC/framing checks.";
    delta_resyncs: Counter, "Replication resyncs (TCP reconnect or segment baseline scan).";
    /// All `ingest_*` rows stay 0 unless the run streams with `--stream-tsv`.
    ingest_lines: Counter, "Lines consumed by the streaming TSV reader (all kinds).";
    ingest_comments: Counter, "Comment/blank lines skipped by the streaming reader.";
    ingest_malformed: Counter, "Malformed lines skipped under lenient streaming.";
    ingest_interned_nodes: Gauge, "Distinct string node ids interned by the streaming reader.";
    ingest_spills: Counter, "Interner spill-to-disk episodes under the memory budget.";
    ingest_bytes: Counter, "Bytes consumed from the streamed dump (terminators included).";
    /// Touched items whose base row (`h_long + h_short`) did not move: the
    /// chunk changed only their context rows, which the index does not store.
    ann_refresh_unchanged: Counter, "Staged ids the ANN refresh skipped as unchanged.";
}

impl ServeMetrics {
    /// Current staleness: admitted events not yet reflected in published
    /// embeddings.
    pub fn staleness(&self) -> u64 {
        self.events_ingested
            .load(Ordering::Relaxed)
            .saturating_sub(self.events_applied.load(Ordering::Relaxed))
    }

    /// Total events shed across all priority classes (saturating).
    pub fn events_shed(&self) -> u64 {
        self.events_shed_low
            .load(Ordering::Relaxed)
            .saturating_add(self.events_shed_normal.load(Ordering::Relaxed))
            .saturating_add(self.events_shed_high.load(Ordering::Relaxed))
    }

    /// Tallies one shed event of class `prio`, observed at `occupancy`
    /// queued events.
    pub fn count_shed(&self, prio: EventPriority, occupancy: usize) {
        let counter = match prio {
            EventPriority::Low => &self.events_shed_low,
            EventPriority::Normal => &self.events_shed_normal,
            EventPriority::High => &self.events_shed_high,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.shed_occupancy
            .store(occupancy as u64, Ordering::Relaxed);
    }

    /// Feeds one guard-measured recall observation into the moving average
    /// (α = 1/8; the first observation seeds the average). Guard checks are
    /// sparse — one in `guard_every` ANN answers — so a racing pair of
    /// readers at worst loses one observation, which an advisory EWMA
    /// tolerates by design.
    pub fn record_guard_recall(&self, recall: f64) {
        const ALPHA: f64 = 0.125;
        let prev = self.ann_recall_ewma_scaled.load(Ordering::Relaxed);
        let next = if prev == 0 {
            recall
        } else {
            ewma_from_scaled(prev) * (1.0 - ALPHA) + recall * ALPHA
        };
        let scaled = 1 + (next.clamp(0.0, 1.0) * 1e6).round() as u64;
        self.ann_recall_ewma_scaled.store(scaled, Ordering::Relaxed);
    }

    /// The guard-recall moving average (1.0 until any guard check has run).
    pub fn guard_recall_ewma(&self) -> f64 {
        ewma_from_scaled(self.ann_recall_ewma_scaled.load(Ordering::Relaxed))
    }

    /// Records a degradation-ladder transition to `level`, updating the
    /// gauge, lifetime max, and the escalation/de-escalation tallies.
    pub fn record_level(&self, level: u8) {
        let prev = self.degradation_level.swap(level as u64, Ordering::Relaxed);
        if (level as u64) > prev {
            self.level_escalations.fetch_add(1, Ordering::Relaxed);
        } else if (level as u64) < prev {
            self.level_deescalations.fetch_add(1, Ordering::Relaxed);
        }
        self.degradation_max
            .fetch_max(level as u64, Ordering::Relaxed);
    }

    /// Derives the human-facing report. `elapsed` is the serving wall-clock
    /// window the QPS is computed over.
    pub fn report(&self, elapsed: Duration) -> MetricsReport {
        let secs = elapsed.as_secs_f64();
        let us = |h: &LatencyHistogram, q: f64| h.quantile_ns(q) as f64 / 1e3;
        // Derived values come from the same loads the raw fields report.
        let raw = self.load_raw();
        MetricsReport {
            cache_hit_rate: ratio(raw.cache_hits, raw.queries, 0.0),
            ann_recall: ratio(raw.ann_guard_matched, raw.ann_guard_expected, 1.0),
            ann_recall_ewma: ewma_from_scaled(raw.ann_recall_ewma_scaled),
            qps: per_sec(raw.queries, secs),
            cached_qps: per_sec(raw.cache_hits, secs),
            uncached_qps: per_sec(raw.queries.saturating_sub(raw.cache_hits), secs),
            p50_us: us(&self.latency, 0.50),
            p99_us: us(&self.latency, 0.99),
            cached_p50_us: us(&self.latency_hit, 0.50),
            cached_p99_us: us(&self.latency_hit, 0.99),
            uncached_p50_us: us(&self.latency_miss, 0.50),
            uncached_p99_us: us(&self.latency_miss, 0.99),
            staleness: raw.events_ingested.saturating_sub(raw.events_applied),
            ..raw
        }
    }
}

impl MetricsReport {
    /// Total events shed across all priority classes.
    pub fn events_shed(&self) -> u64 {
        self.events_shed_low
            .saturating_add(self.events_shed_normal)
            .saturating_add(self.events_shed_high)
    }

    /// The report as one line of JSON (for the `--metrics-dump` JSON-lines
    /// stream): every non-internal table row under its field name, then the
    /// derived values. Hand-rolled: every value is a plain number and the
    /// float fields are guaranteed finite by [`ServeMetrics::report`].
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(1024);
        s.push('{');
        for d in DESCRIPTORS.iter().filter(|d| d.kind != Kind::Internal) {
            let _ = write!(s, "\"{}\":{},", d.name, (d.get)(self));
        }
        let _ = write!(s, "\"events_shed\":{},", self.events_shed());
        for (key, v, decimals) in [
            ("cache_hit_rate", self.cache_hit_rate, 6),
            ("ann_recall", self.ann_recall, 6),
            ("ann_recall_ewma", self.ann_recall_ewma, 6),
            ("qps", self.qps, 3),
            ("cached_qps", self.cached_qps, 3),
            ("uncached_qps", self.uncached_qps, 3),
            ("p50_us", self.p50_us, 3),
            ("p99_us", self.p99_us, 3),
            ("cached_p50_us", self.cached_p50_us, 3),
            ("cached_p99_us", self.cached_p99_us, 3),
            ("uncached_p50_us", self.uncached_p50_us, 3),
            ("uncached_p99_us", self.uncached_p99_us, 3),
        ] {
            let _ = write!(s, "\"{key}\":{v:.decimals$},");
        }
        let _ = write!(s, "\"staleness\":{}}}", self.staleness);
        s
    }
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ingest: {} admitted, {} quarantined, {} applied ({} epochs, staleness {})",
            self.events_ingested,
            self.events_quarantined,
            self.events_applied,
            self.epochs_published,
            self.staleness,
        )?;
        write!(
            f,
            "serve:  {} queries @ {:.0} QPS, p50 {:.1} µs, p99 {:.1} µs, \
             cache hit {:.1}%, torn reads {}",
            self.queries,
            self.qps,
            self.p50_us,
            self.p99_us,
            100.0 * self.cache_hit_rate,
            self.torn_reads,
        )?;
        if self.cached_p50_us > 0.0 || self.uncached_p50_us > 0.0 {
            write!(
                f,
                "\ncache:  cached {:.0} QPS (p50 {:.1} µs, p99 {:.1} µs), \
                 uncached {:.0} QPS (p50 {:.1} µs, p99 {:.1} µs)",
                self.cached_qps,
                self.cached_p50_us,
                self.cached_p99_us,
                self.uncached_qps,
                self.uncached_p50_us,
                self.uncached_p99_us,
            )?;
        }
        if self.ann_queries > 0 || self.ann_ef_search > 0 {
            write!(
                f,
                "\nann:    {} ann queries, {} guard checks, recall {:.4} (ewma {:.4}), \
                 {} breaches, ef {}+{}, last refresh {} ids in {} µs, \
                 {} unchanged ids skipped",
                self.ann_queries,
                self.ann_guard_checks,
                self.ann_recall,
                self.ann_recall_ewma,
                self.ann_guard_breaches,
                self.ann_ef_search,
                self.ann_ef_margin,
                self.ann_refresh_batch,
                self.ann_publish_last_us,
                self.ann_refresh_unchanged,
            )?;
        }
        if self.events_shed() > 0 || self.events_resampled > 0 || self.degradation_max > 0 {
            write!(
                f,
                "\nshed:   {} shed (low {}, normal {}, high {}), {} resampled, \
                 level {} (max {}, {} up / {} down)",
                self.events_shed(),
                self.events_shed_low,
                self.events_shed_normal,
                self.events_shed_high,
                self.events_resampled,
                self.degradation_level,
                self.degradation_max,
                self.level_escalations,
                self.level_deescalations,
            )?;
        }
        if self.ingest_lines > 0 {
            write!(
                f,
                "\nstream: {} lines ({} B), {} comments, {} malformed, \
                 {} interned nodes, {} spills",
                self.ingest_lines,
                self.ingest_bytes,
                self.ingest_comments,
                self.ingest_malformed,
                self.ingest_interned_nodes,
                self.ingest_spills,
            )?;
        }
        if self.deltas_published > 0
            || self.deltas_applied > 0
            || self.delta_crc_failures > 0
            || self.delta_publish_errors > 0
        {
            write!(
                f,
                "\nrepl:   {} published ({} B), {} applied ({} B), \
                 {} crc failures, {} resyncs, {} publish errors",
                self.deltas_published,
                self.delta_bytes_published,
                self.deltas_applied,
                self.delta_bytes_applied,
                self.delta_crc_failures,
                self.delta_resyncs,
                self.delta_publish_errors,
            )?;
        }
        if self.checkpoint_errors > 0 {
            write!(f, "\nckpt:   {} failed saves", self.checkpoint_errors)?;
        }
        let mut serialised: Vec<String> = [
            (self.delta_publish_us, "publishing deltas"),
            (self.checkpoint_save_us, "saving checkpoints"),
        ]
        .into_iter()
        .filter(|&(us, _)| us > 0)
        .map(|(us, what)| format!("{us} µs {what}"))
        .collect();
        if self.snapshot_export_us > 0 || self.snapshot_rows_copied > 0 {
            serialised.push(format!(
                "{} µs exporting snapshots ({} rows, {} full)",
                self.snapshot_export_us, self.snapshot_rows_copied, self.snapshot_full_exports
            ));
        }
        if self.verify_aged_out > 0 {
            serialised.push(format!("{} verifies aged out", self.verify_aged_out));
        }
        if !serialised.is_empty() {
            write!(f, "\nwriter: {}", serialised.join(", "))?;
        }
        if self.inslearn_rollbacks > 0
            || self.inslearn_divergence_rollbacks > 0
            || self.inslearn_early_stops > 0
            || self.inslearn_sample_wait_us > 0
        {
            write!(
                f,
                "\ntrain:  {} rollbacks, {} divergence rollbacks, {} early stops, \
                 {} µs waiting for samples",
                self.inslearn_rollbacks,
                self.inslearn_divergence_rollbacks,
                self.inslearn_early_stops,
                self.inslearn_sample_wait_us,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_observations() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        for us in [1u64, 2, 4, 100, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        // p100 bucket upper bound is ≥ the max observation and ≤ 2× it.
        let p100 = h.quantile_ns(1.0);
        assert!(p100 >= 1_000_000, "{p100}");
        assert!(p100 <= 2_000_000, "{p100}");
        // p50 covers the median (4 µs) within its 2× bucket.
        let p50 = h.quantile_ns(0.5);
        assert!((4_000..=8_000).contains(&p50), "{p50}");
    }

    #[test]
    fn empty_histogram_reports_zero_for_every_quantile() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 0);
        }
        // A report over zero samples is all-zero, not NaN.
        let r = ServeMetrics::default().report(Duration::ZERO);
        assert_eq!(r.p50_us, 0.0);
        assert_eq!(r.p99_us, 0.0);
        assert_eq!(r.qps, 0.0);
        assert_eq!(r.cache_hit_rate, 0.0);
    }

    #[test]
    fn single_sample_pins_every_quantile_to_its_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(100));
        for q in [0.0, 0.5, 0.99, 1.0] {
            let ns = h.quantile_ns(q);
            // One observation: p50 == p99 == p100, within the 2× bucket.
            assert!((100_000..=200_000).contains(&ns), "q={q} -> {ns}");
        }
    }

    #[test]
    fn saturated_counters_do_not_wrap_or_panic() {
        let h = LatencyHistogram::default();
        h.counts[10].store(u64::MAX, Ordering::Relaxed);
        h.counts[20].store(u64::MAX, Ordering::Relaxed);
        assert_eq!(h.count(), u64::MAX);
        // Quantiles stay ordered and land in a populated bucket.
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        assert!(p50 >= 1u64 << 11, "{p50}");
        assert!(p99 >= p50, "{p50} vs {p99}");
        // An absurd observation saturates into the top bucket.
        h.record(Duration::from_secs(u64::MAX));
        assert_eq!(h.counts[BUCKETS - 1].load(Ordering::Relaxed), 1);
    }

    /// A block with `i + 1` stored into table row `i`: every raw counter
    /// distinct and non-zero.
    fn populated() -> ServeMetrics {
        let m = ServeMetrics::default();
        for (i, d) in DESCRIPTORS.iter().enumerate() {
            (d.cell)(&m).store(i as u64 + 1, Ordering::Relaxed);
        }
        m
    }

    /// `to_json` output as `(key, value text)` pairs, in order.
    fn json_pairs(json: &str) -> Vec<(&str, &str)> {
        let body = json.strip_prefix('{').unwrap().strip_suffix('}').unwrap();
        body.split(',')
            .map(|kv| {
                let (k, v) = kv.split_once(':').unwrap();
                (k.trim_matches('"'), v)
            })
            .collect()
    }

    /// The JSON key set of the last hand-written `to_json` (minus the
    /// never-written `replica_lag_epochs`), sorted. Keys may be added; an
    /// existing one changing is a wire-format break.
    const JSON_KEYS: &str = "ann_ef_margin ann_ef_search ann_guard_breaches ann_guard_checks \
        ann_publish_last_us ann_publish_us ann_queries ann_recall ann_recall_ewma \
        ann_refresh_batch ann_refresh_unchanged cache_hit_rate cached_p50_us cached_p99_us \
        cached_qps checkpoint_errors \
        checkpoint_save_us degradation_level degradation_max delta_bytes_applied \
        delta_bytes_published delta_crc_failures delta_publish_errors delta_publish_us \
        delta_resyncs deltas_applied deltas_published \
        epochs_published events_applied events_ingested events_quarantined events_resampled \
        events_shed events_shed_high events_shed_low events_shed_normal ingest_bytes \
        ingest_comments ingest_interned_nodes ingest_lines ingest_malformed ingest_spills \
        inslearn_divergence_rollbacks inslearn_early_stops inslearn_rollbacks \
        inslearn_sample_wait_us \
        level_deescalations level_escalations p50_us p99_us qps queries shed_occupancy \
        snapshot_export_us snapshot_full_exports snapshot_rows_copied \
        staleness torn_reads uncached_p50_us uncached_p99_us uncached_qps verify_aged_out";

    /// What `to_json` adds to the table rows: the derived values.
    const JSON_DERIVED: [&str; 14] = [
        "events_shed",
        "cache_hit_rate",
        "ann_recall",
        "ann_recall_ewma",
        "qps",
        "cached_qps",
        "uncached_qps",
        "p50_us",
        "p99_us",
        "cached_p50_us",
        "cached_p99_us",
        "uncached_p50_us",
        "uncached_p99_us",
        "staleness",
    ];

    #[test]
    fn json_keys_are_the_table_rows_plus_the_derived_list() {
        let json = populated().report(Duration::from_secs(1)).to_json();
        assert!(!json.contains('\n'), "{json}");
        let keys: Vec<&str> = json_pairs(&json).into_iter().map(|(k, _)| k).collect();
        // Every non-internal row exactly once (so no internal tally leaks
        // under its own name), then exactly the derived list.
        let mut expect: Vec<&str> = DESCRIPTORS
            .iter()
            .filter(|d| d.kind != Kind::Internal)
            .map(|d| d.name)
            .collect();
        expect.extend(JSON_DERIVED);
        assert_eq!(keys, expect);
        // And the set is the pinned wire format.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, JSON_KEYS.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn every_row_round_trips_through_report_and_json() {
        let r = populated().report(Duration::from_secs(1));
        let json = r.to_json();
        let pairs = json_pairs(&json);
        let value_of = |key: &str| pairs.iter().find(|(k, _)| *k == key).unwrap().1;
        for (i, d) in DESCRIPTORS.iter().enumerate() {
            assert_eq!((d.get)(&r), i as u64 + 1, "{}", d.name);
            if d.kind != Kind::Internal {
                assert_eq!(value_of(d.name), (i + 1).to_string(), "{}", d.name);
            }
        }
        // Internal tallies surface through their derived values, in the
        // pinned number formats.
        assert_eq!(r.cache_hit_rate, r.cache_hits as f64 / r.queries as f64);
        assert_eq!(
            value_of("cache_hit_rate"),
            format!("{:.6}", r.cache_hit_rate)
        );
        assert_eq!(
            r.ann_recall,
            r.ann_guard_matched as f64 / r.ann_guard_expected as f64
        );
        assert_eq!(value_of("ann_recall"), format!("{:.6}", r.ann_recall));
        assert_eq!(
            r.ann_recall_ewma,
            (r.ann_recall_ewma_scaled - 1) as f64 / 1e6
        );
        assert_eq!(value_of("ann_recall_ewma"), "0.000017");
        assert_eq!(r.qps, r.queries as f64);
        assert_eq!(value_of("qps"), format!("{:.3}", r.qps));
        assert_eq!(value_of("events_shed"), r.events_shed().to_string());
        assert_eq!(
            r.staleness,
            r.events_ingested.saturating_sub(r.events_applied)
        );
        assert_eq!(value_of("staleness"), r.staleness.to_string());
        // `report()` fills derived fields over zeroed defaults: with every
        // input live, a derived value still reading 0 was forgotten there.
        let m = populated();
        m.queries.store(9, Ordering::Relaxed);
        m.events_ingested.store(50, Ordering::Relaxed);
        for h in [&m.latency, &m.latency_hit, &m.latency_miss] {
            h.record(Duration::from_micros(25));
        }
        let json = m.report(Duration::from_secs(1)).to_json();
        for (key, value) in json_pairs(&json) {
            if JSON_DERIVED.contains(&key) {
                assert!(value.parse::<f64>().unwrap() > 0.0, "{key} = {value}");
            }
        }
    }

    #[test]
    fn cached_and_uncached_latency_split_the_report() {
        let m = ServeMetrics::default();
        m.queries.store(4, Ordering::Relaxed);
        m.cache_hits.store(3, Ordering::Relaxed);
        for _ in 0..3 {
            m.latency_hit.record(Duration::from_nanos(400));
        }
        m.latency_miss.record(Duration::from_micros(50));
        let r = m.report(Duration::from_secs(1));
        assert_eq!(r.cached_qps, 3.0);
        assert_eq!(r.uncached_qps, 1.0);
        assert!(r.cached_p50_us < 1.1, "{}", r.cached_p50_us);
        assert!(r.uncached_p50_us >= 50.0, "{}", r.uncached_p50_us);
        let text = r.to_string();
        assert!(text.contains("cache:  cached 3 QPS"), "{text}");
        assert!(text.contains("uncached 1 QPS"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"cached_qps\":3.000,"), "{json}");
        assert!(json.contains("\"uncached_p50_us\":"), "{json}");
        // No cache line until either split histogram has data.
        let quiet = ServeMetrics::default().report(Duration::ZERO).to_string();
        assert!(!quiet.contains("cache:"), "{quiet}");
    }

    #[test]
    fn report_derives_rates() {
        let m = ServeMetrics::default();
        m.events_ingested.store(100, Ordering::Relaxed);
        m.events_applied.store(90, Ordering::Relaxed);
        m.queries.store(50, Ordering::Relaxed);
        m.cache_hits.store(10, Ordering::Relaxed);
        let r = m.report(Duration::from_secs(2));
        assert_eq!(r.staleness, 10);
        assert_eq!(r.qps, 25.0);
        assert!((r.cache_hit_rate - 0.2).abs() < 1e-12);
        assert_eq!(r.torn_reads, 0);
        let text = r.to_string();
        assert!(text.contains("torn reads 0"), "{text}");
        assert!(text.contains("staleness 10"), "{text}");
        // No shed line when the admission layer never acted.
        assert!(!text.contains("shed:"), "{text}");
    }

    #[test]
    fn display_prints_a_section_only_once_its_family_acted() {
        // Nothing but the two always-on lines while every family is idle.
        let quiet = ServeMetrics::default().report(Duration::ZERO).to_string();
        for section in ["cache:", "ann:", "shed:", "stream:", "repl:"] {
            assert!(!quiet.contains(section), "{quiet}");
        }
        let m = ServeMetrics::default();
        m.deltas_published.fetch_add(4, Ordering::Relaxed);
        m.delta_bytes_published.fetch_add(1024, Ordering::Relaxed);
        m.delta_crc_failures.fetch_add(2, Ordering::Relaxed);
        m.delta_resyncs.fetch_add(1, Ordering::Relaxed);
        m.ann_publish_last_us.store(120, Ordering::Relaxed);
        m.ann_refresh_batch.store(37, Ordering::Relaxed);
        m.ann_refresh_unchanged.store(900, Ordering::Relaxed);
        m.ann_ef_search.store(96, Ordering::Relaxed);
        m.ann_ef_margin.store(32, Ordering::Relaxed);
        m.ingest_lines.store(1000, Ordering::Relaxed);
        m.ingest_interned_nodes.store(40, Ordering::Relaxed);
        m.ingest_spills.store(1, Ordering::Relaxed);
        m.ingest_bytes.store(65536, Ordering::Relaxed);
        let text = m.report(Duration::from_secs(1)).to_string();
        assert!(text.contains("repl:   4 published (1024 B)"), "{text}");
        assert!(text.contains("2 crc failures, 1 resyncs"), "{text}");
        assert!(text.contains("ef 96+32"), "{text}");
        assert!(
            text.contains("last refresh 37 ids in 120 µs, 900 unchanged ids skipped"),
            "{text}"
        );
        assert!(text.contains("stream: 1000 lines (65536 B)"), "{text}");
        assert!(text.contains("40 interned nodes, 1 spills"), "{text}");
    }

    #[test]
    fn display_prints_the_training_outcome_only_once_non_zero() {
        let m = ServeMetrics::default();
        let quiet = m.report(Duration::ZERO).to_string();
        assert!(!quiet.contains("train:"), "{quiet}");
        m.inslearn_early_stops.fetch_add(2, Ordering::Relaxed);
        let text = m.report(Duration::ZERO).to_string();
        assert!(
            text.contains(
                "train:  0 rollbacks, 0 divergence rollbacks, 2 early stops, \
                 0 µs waiting for samples"
            ),
            "{text}"
        );
        // The sampler wait alone is worth the line.
        let m = ServeMetrics::default();
        m.inslearn_sample_wait_us.fetch_add(750, Ordering::Relaxed);
        let text = m.report(Duration::ZERO).to_string();
        assert!(
            text.contains("0 early stops, 750 µs waiting for samples"),
            "{text}"
        );
    }

    #[test]
    fn display_prints_each_serialisation_cost_only_once_non_zero() {
        let m = ServeMetrics::default();
        let quiet = m.report(Duration::ZERO).to_string();
        assert!(!quiet.contains("writer:"), "{quiet}");
        m.delta_publish_us.fetch_add(1500, Ordering::Relaxed);
        let text = m.report(Duration::ZERO).to_string();
        assert!(text.contains("writer: 1500 µs publishing deltas"), "{text}");
        assert!(!text.contains("checkpoints"), "{text}");
        m.checkpoint_save_us.fetch_add(70, Ordering::Relaxed);
        let text = m.report(Duration::ZERO).to_string();
        assert!(
            text.contains("writer: 1500 µs publishing deltas, 70 µs saving checkpoints"),
            "{text}"
        );
        // A save that succeeded is a cost, not a failure.
        assert!(!text.contains("ckpt:"), "{text}");
        assert!(!text.contains("snapshots"), "{text}");
        m.snapshot_export_us.fetch_add(900, Ordering::Relaxed);
        m.snapshot_rows_copied.fetch_add(4096, Ordering::Relaxed);
        m.snapshot_full_exports.fetch_add(1, Ordering::Relaxed);
        let text = m.report(Duration::ZERO).to_string();
        assert!(
            text.contains("saving checkpoints, 900 µs exporting snapshots (4096 rows, 1 full)"),
            "{text}"
        );
        assert!(!text.contains("aged out"), "{text}");
        m.verify_aged_out.fetch_add(3, Ordering::Relaxed);
        let text = m.report(Duration::ZERO).to_string();
        assert!(text.contains("1 full), 3 verifies aged out"), "{text}");
    }

    #[test]
    fn guard_recall_ewma_seeds_then_blends() {
        let m = ServeMetrics::default();
        assert_eq!(m.guard_recall_ewma(), 1.0);
        assert_eq!(m.report(Duration::ZERO).ann_recall_ewma, 1.0);
        // First observation seeds, later ones blend at α = 1/8.
        m.record_guard_recall(0.8);
        assert!((m.guard_recall_ewma() - 0.8).abs() < 1e-5);
        m.record_guard_recall(1.0);
        let expect = 0.8 * 0.875 + 1.0 * 0.125;
        assert!((m.guard_recall_ewma() - expect).abs() < 1e-5);
        let r = m.report(Duration::from_secs(1));
        assert!((r.ann_recall_ewma - expect).abs() < 1e-5);
    }

    #[test]
    fn count_shed_and_record_level_feed_the_report() {
        let m = ServeMetrics::default();
        m.count_shed(EventPriority::Low, 60);
        m.count_shed(EventPriority::Low, 61);
        m.count_shed(EventPriority::High, 62);
        m.events_resampled.fetch_add(5, Ordering::Relaxed);
        m.record_level(1);
        m.record_level(2);
        m.record_level(1);
        let r = m.report(Duration::from_secs(1));
        assert_eq!(r.events_shed(), 3);
        assert_eq!(r.events_shed_low, 2);
        assert_eq!(r.events_shed_high, 1);
        assert_eq!(r.shed_occupancy, 62);
        assert_eq!(r.degradation_level, 1);
        assert_eq!(r.degradation_max, 2);
        assert_eq!(r.level_escalations, 2);
        assert_eq!(r.level_deescalations, 1);
        let text = r.to_string();
        assert!(text.contains("shed:   3 shed"), "{text}");
    }
}

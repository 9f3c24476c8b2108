//! Prometheus text exposition for [`ServeMetrics`](crate::ServeMetrics) —
//! table-driven, dependency-free.
//!
//! [`render`] turns a [`MetricsReport`] into the Prometheus text format
//! (`text/plain; version=0.0.4`): one `# HELP` / `# TYPE` header per
//! family. It walks the metrics table (`metrics::DESCRIPTORS`): counter rows
//! become `supa_{name}_total`, gauge rows `supa_{name}`, and the row's help
//! string is the `# HELP` text. Only the derived and labelled families are
//! written out by hand: staleness, the three ratios, shed events by
//! `priority`, and the QPS / latency quantiles by `path`. [`PromServer`] is
//! the smallest possible scrape endpoint: a non-blocking TCP listener whose
//! [`PromServer::poll`] call renders once and answers every pending
//! connection. The serving harness polls it from a side thread so scrapes
//! never touch the query or writer paths — a scrape costs one
//! `ServeMetrics::report` plus a write, and a poll with nobody waiting
//! costs one `accept`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use crate::metrics::{Kind, MetricsReport, DESCRIPTORS};

/// Renders a report in the Prometheus text exposition format
/// (`text/plain; version=0.0.4`). Every float the report produces is
/// finite, so the output never contains `NaN`/`inf`.
pub fn render(r: &MetricsReport) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(4096);
    for d in DESCRIPTORS {
        let (suffix, kind) = match d.kind {
            Kind::Counter => ("_total", "counter"),
            Kind::Gauge => ("", "gauge"),
            Kind::Labelled | Kind::Internal => continue,
        };
        let (name, help, value) = (d.name, d.help, (d.get)(r));
        let _ = writeln!(
            s,
            "# HELP supa_{name}{suffix} {help}\n\
             # TYPE supa_{name}{suffix} {kind}\n\
             supa_{name}{suffix} {value}"
        );
    }
    // The derived and labelled families, written out as the text they are.
    // `path` distinguishes the combined query distribution from its
    // cache-hit / cache-miss splits.
    let MetricsReport {
        staleness,
        cache_hit_rate,
        ann_recall,
        ann_recall_ewma,
        events_shed_low,
        events_shed_normal,
        events_shed_high,
        qps,
        cached_qps,
        uncached_qps,
        p50_us,
        p99_us,
        cached_p50_us,
        cached_p99_us,
        uncached_p50_us,
        uncached_p99_us,
        ..
    } = r;
    let _ = write!(
        s,
        "# HELP supa_staleness_events Admitted events not yet reflected in published embeddings.\n\
         # TYPE supa_staleness_events gauge\n\
         supa_staleness_events {staleness}\n\
         # HELP supa_cache_hit_rate Fraction of queries answered from the per-user cache.\n\
         # TYPE supa_cache_hit_rate gauge\n\
         supa_cache_hit_rate {cache_hit_rate:.6}\n\
         # HELP supa_ann_recall Mean guard-measured recall@K (1.0 until any check).\n\
         # TYPE supa_ann_recall gauge\n\
         supa_ann_recall {ann_recall:.6}\n\
         # HELP supa_ann_recall_ewma Guard-recall moving average (alpha = 1/8).\n\
         # TYPE supa_ann_recall_ewma gauge\n\
         supa_ann_recall_ewma {ann_recall_ewma:.6}\n\
         # HELP supa_events_shed_total Events shed by the admission layer, by priority class.\n\
         # TYPE supa_events_shed_total counter\n\
         supa_events_shed_total{{priority=\"low\"}} {events_shed_low}\n\
         supa_events_shed_total{{priority=\"normal\"}} {events_shed_normal}\n\
         supa_events_shed_total{{priority=\"high\"}} {events_shed_high}\n\
         # HELP supa_qps Queries per second over the report window.\n\
         # TYPE supa_qps gauge\n\
         supa_qps{{path=\"all\"}} {qps:.3}\n\
         supa_qps{{path=\"cached\"}} {cached_qps:.3}\n\
         supa_qps{{path=\"uncached\"}} {uncached_qps:.3}\n\
         # HELP supa_query_latency_us Query latency quantiles (log2-bucketed, microseconds).\n\
         # TYPE supa_query_latency_us gauge\n\
         supa_query_latency_us{{path=\"all\",quantile=\"0.5\"}} {p50_us:.3}\n\
         supa_query_latency_us{{path=\"all\",quantile=\"0.99\"}} {p99_us:.3}\n\
         supa_query_latency_us{{path=\"cached\",quantile=\"0.5\"}} {cached_p50_us:.3}\n\
         supa_query_latency_us{{path=\"cached\",quantile=\"0.99\"}} {cached_p99_us:.3}\n\
         supa_query_latency_us{{path=\"uncached\",quantile=\"0.5\"}} {uncached_p50_us:.3}\n\
         supa_query_latency_us{{path=\"uncached\",quantile=\"0.99\"}} {uncached_p99_us:.3}\n"
    );
    s
}

/// How long a single scrape connection may stall on read or write before
/// it is dropped. Scrapes are advisory; a wedged client must never pin the
/// poll loop.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_millis(250);

/// A minimal Prometheus scrape endpoint: a non-blocking TCP listener that
/// answers every pending connection with a freshly rendered exposition body.
///
/// The server never reads the request beyond draining what has already
/// arrived — every path on every method gets the same `200` with
/// `Content-Type: text/plain; version=0.0.4`, which is all a Prometheus
/// scraper needs and keeps the endpoint free of parsing surface.
pub struct PromServer {
    listener: TcpListener,
}

impl PromServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free port).
    pub fn bind(addr: &str) -> std::io::Result<PromServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(PromServer { listener })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Answers every connection currently pending on the listener,
    /// returning how many scrapes were served. `render` produces the body
    /// and is called at most once per poll, and only after a connection
    /// has been accepted: a poll with nothing pending returns immediately
    /// without rendering.
    pub fn poll(&self, mut render: impl FnMut() -> String) -> usize {
        let mut served = 0;
        let mut body = None;
        // `WouldBlock` means the backlog is drained; any other accept error
        // ends this poll too, and the next one retries.
        while let Ok((stream, _)) = self.listener.accept() {
            if answer(stream, body.get_or_insert_with(&mut render)).is_ok() {
                served += 1;
            }
        }
        served
    }
}

/// Writes one HTTP/1.1 response carrying `body` and closes the connection.
fn answer(mut stream: TcpStream, body: &str) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    // Drain whatever request bytes have arrived; we answer identically
    // regardless, so a partial request is fine.
    let mut scratch = [0u8; 1024];
    let _ = stream.read(&mut scratch);
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServeMetrics;
    use std::sync::atomic::Ordering;

    fn sample_report() -> MetricsReport {
        let m = ServeMetrics::default();
        m.events_ingested.store(120, Ordering::Relaxed);
        m.events_applied.store(100, Ordering::Relaxed);
        m.queries.store(50, Ordering::Relaxed);
        m.cache_hits.store(10, Ordering::Relaxed);
        m.epochs_published.store(4, Ordering::Relaxed);
        m.ingest_lines.store(2000, Ordering::Relaxed);
        m.ingest_interned_nodes.store(64, Ordering::Relaxed);
        m.ingest_bytes.store(4096, Ordering::Relaxed);
        m.events_shed_normal.store(3, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(25));
        m.report(Duration::from_secs(2))
    }

    #[test]
    fn render_emits_well_formed_exposition() {
        let text = render(&sample_report());
        // Every series line belongs to a family that was announced first.
        let mut announced = std::collections::HashSet::new();
        for line in text.lines() {
            assert!(!line.is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().unwrap();
                let kind = it.next().unwrap();
                assert!(kind == "counter" || kind == "gauge", "{line}");
                announced.insert(name.to_string());
            } else if !line.starts_with('#') {
                let name = line.split(['{', ' ']).next().unwrap().to_string();
                assert!(announced.contains(&name), "unannounced series: {line}");
                let value = line.rsplit(' ').next().unwrap();
                assert!(value.parse::<f64>().unwrap().is_finite(), "{line}");
            }
        }
        // Counter naming: cumulative tallies end in _total.
        assert!(text.contains("supa_events_ingested_total 120"), "{text}");
        assert!(text.contains("supa_queries_total 50"), "{text}");
        assert!(text.contains("supa_staleness_events 20"), "{text}");
        assert!(text.contains("supa_epochs_published 4"), "{text}");
        // Labelled families.
        assert!(
            text.contains("supa_events_shed_total{priority=\"normal\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("supa_query_latency_us{path=\"all\",quantile=\"0.99\"}"),
            "{text}"
        );
        // Ingest counters ride along.
        assert!(text.contains("supa_ingest_lines_total 2000"), "{text}");
        assert!(text.contains("supa_ingest_interned_nodes 64"), "{text}");
        assert!(text.contains("supa_ingest_bytes_total 4096"), "{text}");
    }

    /// Every `# TYPE` line of the last hand-written `render` (minus the
    /// never-written `supa_replica_lag_epochs`), sorted. Families may be
    /// added; an existing one changing is a wire-format break.
    const FAMILIES: &str = "\
        supa_ann_ef_margin gauge\nsupa_ann_ef_search gauge\n\
        supa_ann_guard_breaches_total counter\nsupa_ann_guard_checks_total counter\n\
        supa_ann_publish_last_us gauge\nsupa_ann_publish_us_total counter\n\
        supa_ann_queries_total counter\nsupa_ann_recall gauge\nsupa_ann_recall_ewma gauge\n\
        supa_ann_refresh_batch gauge\nsupa_cache_hit_rate gauge\nsupa_degradation_level gauge\n\
        supa_degradation_max gauge\nsupa_delta_bytes_applied_total counter\n\
        supa_delta_bytes_published_total counter\nsupa_delta_crc_failures_total counter\n\
        supa_delta_publish_errors_total counter\nsupa_delta_resyncs_total counter\n\
        supa_deltas_applied_total counter\nsupa_deltas_published_total counter\n\
        supa_epochs_published gauge\nsupa_events_applied_total counter\n\
        supa_events_ingested_total counter\nsupa_events_quarantined_total counter\n\
        supa_events_resampled_total counter\nsupa_events_shed_total counter\n\
        supa_ingest_bytes_total counter\nsupa_ingest_comments_total counter\n\
        supa_ingest_interned_nodes gauge\nsupa_ingest_lines_total counter\n\
        supa_ingest_malformed_total counter\nsupa_ingest_spills_total counter\n\
        supa_level_deescalations_total counter\nsupa_level_escalations_total counter\n\
        supa_qps gauge\nsupa_queries_total counter\nsupa_query_latency_us gauge\n\
        supa_shed_occupancy gauge\nsupa_staleness_events gauge\nsupa_torn_reads_total counter";

    /// What `render` adds to the counter and gauge rows of the table.
    const DERIVED_FAMILIES: [&str; 7] = [
        "supa_staleness_events gauge",
        "supa_cache_hit_rate gauge",
        "supa_ann_recall gauge",
        "supa_ann_recall_ewma gauge",
        "supa_events_shed_total counter",
        "supa_qps gauge",
        "supa_query_latency_us gauge",
    ];

    #[test]
    fn every_table_row_round_trips_into_its_own_family() {
        // Row `i` holds `i + 1`: every raw counter distinct and non-zero.
        let m = ServeMetrics::default();
        for (i, d) in DESCRIPTORS.iter().enumerate() {
            (d.cell)(&m).store(i as u64 + 1, Ordering::Relaxed);
        }
        let r = m.report(Duration::from_secs(1));
        let text = render(&r);
        let has = |line: String| text.lines().any(|l| l == line);
        let mut families = Vec::new();
        for (i, d) in DESCRIPTORS.iter().enumerate() {
            let (name, kind) = match d.kind {
                Kind::Counter => (format!("supa_{}_total", d.name), "counter"),
                Kind::Gauge => (format!("supa_{}", d.name), "gauge"),
                // Neither is scraped under its own name.
                Kind::Labelled | Kind::Internal => {
                    assert!(!text.contains(&format!("supa_{}", d.name)), "{}", d.name);
                    continue;
                }
            };
            assert!(has(format!("{name} {}", i + 1)), "{name} in {text}");
            assert!(has(format!("# HELP {name} {}", d.help)), "{name}");
            families.push(format!("{name} {kind}"));
        }
        // Labelled rows are scraped as one label value each; internal
        // tallies through their derived ratios, in the pinned formats.
        for (prio, n) in [
            ("low", r.events_shed_low),
            ("normal", r.events_shed_normal),
            ("high", r.events_shed_high),
        ] {
            assert!(has(format!(
                "supa_events_shed_total{{priority=\"{prio}\"}} {n}"
            )));
        }
        assert!(has(format!("supa_cache_hit_rate {:.6}", 6.0 / 5.0)));
        assert!(has(format!("supa_ann_recall {:.6}", 11.0 / 10.0)));
        assert!(has("supa_ann_recall_ewma 0.000017".into()));
        assert!(has(format!("supa_staleness_events {}", r.staleness)));
        assert!(has(format!("supa_qps{{path=\"all\"}} {:.3}", r.qps)));
        // The `# TYPE` lines are exactly the table's counters and gauges
        // plus the derived list, each once — and that set is the pinned
        // wire format.
        families.extend(DERIVED_FAMILIES.map(String::from));
        families.sort_unstable();
        let mut announced: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        announced.sort_unstable();
        assert_eq!(announced, families);
        assert_eq!(announced, FAMILIES.lines().collect::<Vec<_>>());
    }

    #[test]
    fn poll_renders_only_for_a_pending_connection() {
        let srv = PromServer::bind("127.0.0.1:0").unwrap();
        let served = srv.poll(|| panic!("rendered with nobody waiting"));
        assert_eq!(served, 0);
    }

    #[test]
    fn server_answers_a_real_scrape() {
        let srv = PromServer::bind("127.0.0.1:0").unwrap();
        let addr = srv.local_addr().unwrap();
        let body = render(&sample_report());
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let mut response = String::new();
            c.read_to_string(&mut response).unwrap();
            response
        });
        // Poll until the pending connection is picked up.
        let (mut served, mut renders) = (0, 0);
        for _ in 0..200 {
            served += srv.poll(|| {
                renders += 1;
                body.clone()
            });
            if served > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(served, 1);
        assert_eq!(renders, 1, "idle polls must not render");
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(
            response.contains("Content-Type: text/plain; version=0.0.4"),
            "{response}"
        );
        assert!(response.contains("supa_queries_total 50"), "{response}");
        // Content-Length matches the body exactly.
        let (head, got_body) = response.split_once("\r\n\r\n").unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, got_body.len());
        assert_eq!(got_body, body);
    }
}

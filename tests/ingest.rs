//! Integration tests for streaming ingestion end-to-end through the
//! serving engine: a TSV dump replayed off disk via `supa-ingest` must
//! produce the exact probe digest of the materialised `load_tsv` path,
//! ingest counters must surface in the serving metrics report, and the
//! Prometheus listener must answer a real scrape during a run.

use std::io::{Read, Write};

use supa_datasets::{save_tsv, taobao, Dataset};
use supa_ingest::{scan_tsv, IngestOptions};
use supa_serve::{run_closed_loop, run_streamed_closed_loop, LoadConfig, ServeConfig};

mod common;
use common::fast_model;

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        train_batch: 64,
        ..ServeConfig::default()
    }
}

fn load_cfg(seed: u64) -> LoadConfig {
    LoadConfig {
        readers: 2,
        top_k: 10,
        queries_per_reader: 50,
        seed,
        verify: false,
        ..LoadConfig::default()
    }
}

/// Writes `d` as a TSV dump under a unique temp path and returns the path.
fn write_dump(d: &Dataset, tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("supa-test-ingest-{}-{tag}.tsv", std::process::id()));
    let f = std::fs::File::create(&path).expect("create dump");
    let mut w = std::io::BufWriter::new(f);
    save_tsv(d, &mut w).expect("write dump");
    w.flush().expect("flush dump");
    path
}

/// The headline contract: streaming a well-formed dump straight into the
/// ingest queue produces the exact engine digest of materialising it with
/// `load_tsv` and replaying the edge vector.
#[test]
fn streamed_replay_is_bit_identical_to_materialised() {
    let d = taobao(0.02, 41);
    let dump = write_dump(&d, "identity");

    let md = {
        let f = std::fs::File::open(&dump).expect("open dump");
        supa_datasets::load_tsv("dump", std::io::BufReader::new(f)).expect("load_tsv")
    };
    let mrep = run_closed_loop(&md, fast_model(&md, 41), serve_cfg(), load_cfg(41))
        .expect("materialised replay");

    let scan = scan_tsv(&dump, &IngestOptions::default()).expect("scan");
    let (sd, mut stream) = scan.into_stream().expect("stream");
    assert!(
        sd.edges.is_empty(),
        "streamed dataset must not buffer edges"
    );
    let srep = run_streamed_closed_loop(
        &sd,
        fast_model(&sd, 41),
        serve_cfg(),
        load_cfg(41),
        &mut stream,
    )
    .expect("streamed replay");
    let _ = std::fs::remove_file(&dump);

    assert_eq!(mrep.events_offered, srep.events_offered, "same event count");
    assert_eq!(
        mrep.digest, srep.digest,
        "streamed replay must reproduce the materialised probe digest"
    );

    // The streamed run's metrics report carries the ingest counters; the
    // materialised run's stays silent.
    let st = stream.stats();
    assert_eq!(srep.metrics.ingest_lines, st.lines);
    assert_eq!(srep.metrics.ingest_bytes, st.bytes);
    assert!(srep.metrics.ingest_lines > 0);
    assert_eq!(srep.metrics.ingest_malformed, 0);
    assert_eq!(mrep.metrics.ingest_lines, 0);
}

/// A dump with one mangled edge line streams cleanly under the skip policy
/// (`--on-bad-event skip`): the bad line is counted, the survivors produce
/// the same digest as streaming the clean dump.
#[test]
fn skip_policy_quarantines_malformed_lines_in_the_stream() {
    let mut d = taobao(0.02, 43);
    d.edges.truncate(400);
    let clean = write_dump(&d, "clean");
    let dirty = {
        let path =
            std::env::temp_dir().join(format!("supa-test-ingest-{}-dirty.tsv", std::process::id()));
        let body = std::fs::read_to_string(&clean).expect("read clean dump");
        let mut f = std::fs::File::create(&path).expect("create dirty dump");
        f.write_all(body.as_bytes()).expect("copy dump");
        writeln!(f, "edge 0 not-a-node pv 12345").expect("append bad line");
        path
    };

    let opts = IngestOptions {
        skip_malformed: true,
        ..IngestOptions::default()
    };
    let run = |path: &std::path::Path| {
        let scan = scan_tsv(path, &opts).expect("scan");
        let (sd, mut stream) = scan.into_stream().expect("stream");
        let rep = run_streamed_closed_loop(
            &sd,
            fast_model(&sd, 43),
            serve_cfg(),
            load_cfg(43),
            &mut stream,
        )
        .expect("streamed replay");
        (rep, stream.stats())
    };
    let (clean_rep, clean_stats) = run(&clean);
    let (dirty_rep, dirty_stats) = run(&dirty);
    let _ = std::fs::remove_file(&clean);
    let _ = std::fs::remove_file(&dirty);

    assert_eq!(clean_stats.malformed, 0);
    assert_eq!(dirty_stats.malformed, 1);
    assert_eq!(dirty_rep.metrics.ingest_malformed, 1);
    assert_eq!(clean_rep.events_offered, dirty_rep.events_offered);
    assert_eq!(
        clean_rep.digest, dirty_rep.digest,
        "a quarantined line must not perturb the surviving replay"
    );
}

/// The same mangled dump is a named scan error under the strict policy.
#[test]
fn strict_policy_rejects_malformed_dumps_at_scan_time() {
    let mut d = taobao(0.02, 47);
    d.edges.truncate(100);
    let dump = write_dump(&d, "strict");
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&dump)
            .expect("reopen dump");
        writeln!(f, "edge 0 not-a-node pv 12345").expect("append bad line");
    }
    let err = scan_tsv(&dump, &IngestOptions::default());
    let _ = std::fs::remove_file(&dump);
    assert!(err.is_err(), "strict scan must reject the mangled line");
}

/// End-to-end observability: with `prom_addr` set, a real HTTP scrape
/// against the listener answers with a well-formed text exposition while
/// the closed loop is running. `prom_wait: 1` holds the run open until the
/// scrape has landed, so the test is not racing shutdown.
#[test]
fn prometheus_listener_answers_a_scrape_mid_run() {
    let d = taobao(0.02, 53);
    // Probe a free port, then hand it to the engine's listener.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").to_string()
    };
    let load = LoadConfig {
        prom_addr: Some(addr.clone()),
        prom_wait: 1,
        ..load_cfg(53)
    };

    let body = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            // Retry until the listener is up and answering.
            for _ in 0..600 {
                if let Ok(mut s) = std::net::TcpStream::connect(&addr) {
                    let _ = s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
                    let mut buf = String::new();
                    if s.read_to_string(&mut buf).is_ok() && buf.contains("\r\n\r\n") {
                        return buf;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            panic!("no scrape answered within the retry budget");
        });
        run_closed_loop(&d, fast_model(&d, 53), serve_cfg(), load).expect("closed loop");
        scraper.join().expect("scraper thread")
    });

    assert!(body.starts_with("HTTP/1.1 200 OK\r\n"), "got: {body:.100}");
    assert!(body.contains("text/plain; version=0.0.4"));
    assert!(body.contains("# TYPE supa_events_applied_total counter"));
    assert!(body.contains("# TYPE supa_queries_total counter"));
    // No streaming in this run: the ingest family reads zero but is present.
    assert!(body.contains("supa_ingest_lines_total 0"));
}

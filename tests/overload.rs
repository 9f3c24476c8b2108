//! Overload and admission-control integration tests for `supa-serve`:
//! bit-identity of the default `block` policy with offline chunked
//! training, off-overload equivalence of every shedding policy, the
//! degradation ladder under a genuine open-loop burst (shed counts, tail
//! latency, recovery to full service), and named startup-validation
//! errors.

use std::time::{Duration, Instant};

use supa::InsLearnConfig;
use supa_datasets::{taobao, Dataset};
use supa_eval::top_k_scored;
use supa_graph::{PriorityMap, QuarantinePolicy, StreamGuard, TemporalEdge};
use supa_serve::{
    run_open_loop, AdmissionOptions, LoadConfig, OpenLoopConfig, ServeConfig, ServeEngine,
    ShedPolicy, StopCause,
};

mod common;
use common::{fast_model, query_pairs};

/// Admission options whose detector can never trip: a huge lag allowance
/// and default watermarks over a queue larger than the whole stream.
fn calm(policy: ShedPolicy) -> AdmissionOptions {
    AdmissionOptions {
        policy,
        lag_chunks: u64::MAX,
        ..AdmissionOptions::default()
    }
}

/// A twitchy detector over a tiny queue: escalates after 2 hot
/// observations per rung and recovers after 4 calm ones, so a full-blast
/// burst walks the whole ladder and the post-flush idle ticks walk it
/// back within milliseconds.
fn twitchy(policy: ShedPolicy, priorities: Option<PriorityMap>) -> AdmissionOptions {
    AdmissionOptions {
        policy,
        sample_k: 4,
        priorities,
        high_watermark: 0.75,
        low_watermark: 0.25,
        escalate_window: 2,
        recovery_window: 4,
        lag_chunks: 2,
        chunk_scale: 4,
    }
}

/// The `block` policy — even with every admission knob explicitly set —
/// must stay bit-identical to the offline guard + chunked
/// `fit_incremental` loop: same epochs, same counts, same scores to the
/// last bit, and nothing shed.
#[test]
fn block_policy_is_bit_identical_to_offline_chunked_training() {
    const CHUNK: usize = 64;
    let d = taobao(0.02, 17);
    let n_events = 1000.min(d.edges.len());
    let events = &d.edges[..n_events];

    let handle = ServeEngine::start(
        d.prototype.clone(),
        fast_model(&d, 17),
        ServeConfig {
            train_batch: CHUNK,
            cache_capacity: 0,
            admission: AdmissionOptions {
                policy: ShedPolicy::Block,
                sample_k: 3,
                high_watermark: 0.6,
                low_watermark: 0.2,
                escalate_window: 1,
                recovery_window: 1,
                lag_chunks: 1,
                ..AdmissionOptions::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for &e in events {
        handle.ingest(e).unwrap();
    }
    handle.flush().unwrap();
    assert_eq!(handle.degradation_level(), 0, "block never degrades");

    // Offline: identical chunk loop on this thread.
    let mut model = fast_model(&d, 17);
    let mut g = d.prototype.clone();
    let mut guard = StreamGuard::new(QuarantinePolicy::Skip);
    let mut chunk: Vec<TemporalEdge> = Vec::new();
    let mut admitted = 0u64;
    let mut chunks = 0u64;
    for &e in events {
        if let Some(adm) = guard.admit(&g, e).unwrap() {
            g.add_edge(adm.src, adm.dst, adm.relation, adm.time)
                .unwrap();
            admitted += 1;
            chunk.push(adm);
            if chunk.len() == CHUNK {
                model.fit_incremental(&g, &chunk);
                chunks += 1;
                chunk.clear();
            }
        }
    }
    if !chunk.is_empty() {
        model.fit_incremental(&g, &chunk);
    }
    use supa_eval::Recommender;
    let offline = model.export_serving_snapshot();

    for (user, rel) in query_pairs(&d, 25) {
        let online = handle.query(user, rel, 10);
        let expect = top_k_scored(&offline, user, handle.candidates(rel), rel, 10);
        assert_eq!(online.items.len(), expect.len());
        for (a, b) in online.items.iter().zip(&expect) {
            assert_eq!(a.0, b.0, "user {} rel {}: item mismatch", user.0, rel.0);
            assert_eq!(
                a.1.to_bits(),
                b.1.to_bits(),
                "user {} rel {}: score not bit-identical",
                user.0,
                rel.0
            );
        }
    }

    let report = handle.shutdown();
    assert_eq!(report.metrics.events_ingested, admitted);
    assert_eq!(report.metrics.events_applied, admitted);
    // The engine publishes once per full chunk during ingest, once on
    // flush (training the remainder), and once more on shutdown — the same
    // unconditional flush/shutdown publishes as the pre-admission engine.
    assert_eq!(report.metrics.epochs_published, chunks + 2);
    assert_eq!(report.metrics.events_shed(), 0);
    assert_eq!(report.metrics.events_resampled, 0);
    assert_eq!(report.metrics.degradation_max, 0);
    assert!(matches!(report.stop, StopCause::Shutdown));
}

/// Off overload (queue bigger than the stream, lag detector disabled) the
/// shedding policies shed nothing and their served scores are bit-equal
/// to `block` — including `sample-1-in-k`, whose weighted training path
/// must be exact for weight 1.
#[test]
fn shedding_policies_match_block_exactly_when_not_overloaded() {
    let d = taobao(0.02, 23);
    let n_events = 1000.min(d.edges.len());
    let serve = |policy: ShedPolicy| {
        let handle = ServeEngine::start(
            d.prototype.clone(),
            fast_model(&d, 23),
            ServeConfig {
                train_batch: 64,
                queue_capacity: 4096,
                cache_capacity: 0,
                admission: calm(policy),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for &e in &d.edges[..n_events] {
            handle.ingest(e).unwrap();
        }
        handle.flush().unwrap();
        let answers: Vec<_> = query_pairs(&d, 25)
            .into_iter()
            .map(|(u, r)| handle.query(u, r, 10).items)
            .collect();
        (answers, handle.shutdown())
    };

    let (base, base_report) = serve(ShedPolicy::Block);
    for policy in [ShedPolicy::DropOldest, ShedPolicy::SampleOneInK] {
        let (answers, report) = serve(policy);
        assert_eq!(report.metrics.events_shed(), 0, "{policy}: nothing to shed");
        assert_eq!(report.metrics.events_resampled, 0, "{policy}");
        assert_eq!(report.metrics.degradation_max, 0, "{policy}");
        assert_eq!(
            report.metrics.events_applied, base_report.metrics.events_applied,
            "{policy}"
        );
        for (qa, qb) in answers.iter().zip(&base) {
            assert_eq!(qa.len(), qb.len(), "{policy}");
            for (a, b) in qa.iter().zip(qb) {
                assert_eq!(a.0, b.0, "{policy}: item mismatch");
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "{policy}: score not bit-identical to block"
                );
            }
        }
    }
}

/// Exact p99 (µs) of unloaded queries against a warmed, cache-less
/// engine, floored at 2 ms so the overload bound below never collapses to
/// scheduler noise: on a single-core debug host the writer, pacer, and
/// readers time-slice one CPU and even healthy queries land in the
/// millisecond buckets (see the microbench note in the verify recipe).
/// The bound still catches reader starvation, which shows up as tens of
/// milliseconds or worse.
fn unloaded_p99_floor_us(d: &Dataset, seed: u64) -> f64 {
    let handle = ServeEngine::start(
        d.prototype.clone(),
        fast_model(d, seed),
        ServeConfig {
            train_batch: 32,
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for &e in &d.edges[..256.min(d.edges.len())] {
        handle.ingest(e).unwrap();
    }
    handle.flush().unwrap();
    let pairs = query_pairs(d, 32);
    for &(u, r) in &pairs {
        let _ = handle.query(u, r, 10);
    }
    let mut lat: Vec<u64> = (0..400)
        .map(|i| {
            let (u, r) = pairs[i % pairs.len()];
            let t0 = Instant::now();
            let _ = handle.query(u, r, 10);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    handle.shutdown();
    lat.sort_unstable();
    let p99_us = lat[(lat.len() * 99) / 100] as f64 / 1e3;
    p99_us.max(2_000.0)
}

/// Drives a seeded open-loop burst far past the sustainable rate and
/// checks the tentpole claims: events are shed (never silently), reads
/// are never torn, query p99 stays within 5× of the unloaded baseline,
/// the ladder escalates to priority shedding or beyond, and service
/// recovers to level 0 once the burst ends.
fn burst(
    policy: ShedPolicy,
    priorities: Option<PriorityMap>,
    seed: u64,
) -> supa_serve::OpenLoopReport {
    let d = taobao(0.02, seed);
    let baseline_us = unloaded_p99_floor_us(&d, seed);
    let report = run_open_loop(
        &d,
        fast_model(&d, seed),
        ServeConfig {
            train_batch: 32,
            queue_capacity: 64,
            cache_capacity: 0,
            admission: twitchy(policy, priorities),
            ..ServeConfig::default()
        },
        LoadConfig {
            readers: 2,
            queries_per_reader: 0, // open loop: readers run for the burst
            seed,
            warmup_per_reader: 2,
            verify: true,
            ..LoadConfig::default()
        },
        OpenLoopConfig {
            // Far beyond any sustainable training rate: the pacer never
            // sleeps, so the queue fills and stays full until the ladder
            // reacts. Overload is forced by construction, not by timing.
            arrival_rate: 2_000_000.0,
            events: usize::MAX,
            recovery_timeout: Duration::from_secs(20),
        },
    )
    .unwrap();

    assert!(matches!(report.stop, StopCause::Shutdown), "{policy}");
    assert_eq!(report.metrics.torn_reads, 0, "{policy}: torn reads");
    assert!(
        report.metrics.events_shed() > 0,
        "{policy}: a 2×+ overload must shed ({} offered, {} ingested)",
        report.events_offered,
        report.metrics.events_ingested
    );
    assert!(
        report.metrics.degradation_max >= 2,
        "{policy}: burst should climb at least to priority shedding, peaked at {}",
        report.metrics.degradation_max
    );
    assert_eq!(
        report.final_level, 0,
        "{policy}: service must recover to full after the burst"
    );
    if report.queries > 0 {
        let bound = 5.0 * baseline_us;
        assert!(
            report.query_p99_us <= bound,
            "{policy}: loaded p99 {:.1} µs above 5× unloaded baseline ({:.1} µs)",
            report.query_p99_us,
            bound
        );
    }
    report
}

#[test]
fn drop_oldest_burst_sheds_keeps_p99_bounded_and_recovers() {
    let d = taobao(0.02, 29);
    let priorities = PriorityMap::parse("PageView=low,Buy=high", d.prototype.schema()).unwrap();
    let report = burst(ShedPolicy::DropOldest, Some(priorities), 29);
    // Shed accounting is per priority class and must add up.
    assert_eq!(
        report.metrics.events_shed(),
        report.metrics.events_shed_low
            + report.metrics.events_shed_normal
            + report.metrics.events_shed_high
    );
}

#[test]
fn sample_one_in_k_burst_sheds_reweights_and_recovers() {
    let report = burst(ShedPolicy::SampleOneInK, None, 37);
    assert!(
        report.metrics.events_resampled > 0,
        "survivors of the 1-in-k sampler must be counted (and reweighted)"
    );
}

/// Drop-oldest at `ShedAll` with a full queue admits the incoming event and
/// sheds an already-queued one — for every shard count, because every shard
/// count shares the one ingest queue. A queue of 8 against 64-event chunks
/// keeps the writer behind by construction: while it trains a chunk the
/// producer offers the rest of the stream, and a one-observation ladder is
/// at `ShedAll` (staleness ≥ one chunk) long before the stream ends. The
/// last offered event is the only one naming its user, so that user's base
/// vector moves iff the event was admitted and trained.
#[test]
fn drop_oldest_evicts_a_queued_event_for_every_shard_count() {
    let d = taobao(0.02, 43);
    let last = *d.edges.last().unwrap();
    let filler: Vec<TemporalEdge> = d.edges[..d.edges.len() - 1]
        .iter()
        .copied()
        .filter(|e| e.src != last.src)
        .collect();
    let priorities = PriorityMap::parse("PageView=low,Buy=high", d.prototype.schema()).unwrap();
    for shards in [1usize, 4] {
        let handle = ServeEngine::start(
            d.prototype.clone(),
            // No validation hold-out: every admitted event trains.
            fast_model(&d, 43).with_inslearn(InsLearnConfig {
                valid_size: 0,
                ..InsLearnConfig::fast()
            }),
            ServeConfig {
                train_batch: 64,
                queue_capacity: 8,
                cache_capacity: 0,
                shards,
                admission: AdmissionOptions {
                    policy: ShedPolicy::DropOldest,
                    priorities: Some(priorities.clone()),
                    escalate_window: 1,
                    recovery_window: u32::MAX,
                    lag_chunks: 1,
                    ..AdmissionOptions::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let base = |h: &supa_serve::ServeHandle| {
            let mut row = Vec::new();
            h.snapshot().scorer.base_into(last.src, &mut row);
            row
        };
        let before = base(&handle);
        for &e in &filler {
            handle.ingest(e).unwrap();
        }
        assert_eq!(handle.degradation_level(), 3, "shards={shards}: ShedAll");
        handle.ingest(last).unwrap();
        handle.flush().unwrap();
        assert_ne!(
            before,
            base(&handle),
            "shards={shards}: the last offered event must be admitted and trained"
        );
        let m = handle.shutdown().metrics;
        assert!(m.events_shed() > 0, "shards={shards}: the burst must shed");
        assert_eq!(
            m.events_shed(),
            m.events_shed_low + m.events_shed_normal + m.events_shed_high,
            "shards={shards}"
        );
        assert_eq!(
            m.events_ingested + m.events_quarantined + m.events_shed(),
            filler.len() as u64 + 1,
            "shards={shards}: every offered event is trained, quarantined, or shed"
        );
        assert_eq!(m.events_applied, m.events_ingested, "shards={shards}");
    }
}

/// Nonsensical admission configuration is rejected at startup with a
/// named error, never silently clamped.
#[test]
fn startup_rejects_bad_admission_config_by_name() {
    let d = taobao(0.01, 11);
    let start =
        |cfg: ServeConfig| match ServeEngine::start(d.prototype.clone(), fast_model(&d, 11), cfg) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("bad config must be rejected"),
        };

    let err = start(ServeConfig {
        queue_capacity: 0,
        ..ServeConfig::default()
    });
    assert!(err.contains("queue_capacity"), "{err}");

    let err = start(ServeConfig {
        admission: AdmissionOptions {
            policy: ShedPolicy::SampleOneInK,
            sample_k: 0,
            ..AdmissionOptions::default()
        },
        ..ServeConfig::default()
    });
    assert!(err.contains("sample_k"), "{err}");

    let err = start(ServeConfig {
        admission: AdmissionOptions {
            policy: ShedPolicy::DropOldest,
            priorities: Some(PriorityMap::default()),
            ..AdmissionOptions::default()
        },
        ..ServeConfig::default()
    });
    assert!(err.contains("priority map is empty"), "{err}");

    let err = start(ServeConfig {
        admission: AdmissionOptions {
            policy: ShedPolicy::DropOldest,
            high_watermark: 0.3,
            low_watermark: 0.6,
            ..AdmissionOptions::default()
        },
        ..ServeConfig::default()
    });
    assert!(err.contains("watermarks"), "{err}");
}

//! Streaming platform: run SUPA the way the paper deploys it — as an online
//! model consuming a Kuaishou-like event stream batch by batch, making
//! recommendations *between* batches without ever revisiting old data.
//!
//! ```text
//! cargo run --release -p supa --example streaming_platform
//! ```

use std::time::Instant;

use supa::{InsLearnConfig, Supa, SupaConfig};
use supa_datasets::kuaishou;
use supa_eval::{RankingEvaluator, Scorer};
use supa_graph::sequential_batches;

fn main() {
    // A scaled-down Kuaishou: users, videos, authors; watch/like/forward/
    // comment/upload behaviours arriving over a simulated week.
    let data = kuaishou(0.01, 7);
    println!("{}", data.summary());

    let mut model = Supa::from_dataset(&data, SupaConfig::small(), 7).expect("valid metapaths");
    let il = InsLearnConfig {
        batch_size: 2048,
        n_iter: 6,
        valid_interval: 3,
        valid_size: 100,
        patience: 2,
        valid_candidates: 50,
    };

    // The platform: edges arrive in order; we keep a live graph, feed each
    // arriving batch to InsLearn, and measure ranking quality on the *next*
    // batch (pure forecasting — the model has never seen those edges).
    let mut g = data.prototype.clone();
    let evaluator = RankingEvaluator::sampled(100, 99);
    let batches: Vec<_> = sequential_batches(&data.edges, 4096).collect();
    println!(
        "streaming {} events in {} arrival windows\n",
        data.edges.len(),
        batches.len()
    );

    let mut ingested = 0usize;
    for w in 0..batches.len() {
        // Events arrive: insert into the live graph.
        for e in batches[w] {
            g.add_edge(e.src, e.dst, e.relation, e.time).unwrap();
        }
        ingested += batches[w].len();

        // Learn from this window only (single pass over the stream).
        let start = Instant::now();
        model.train_inslearn(&g, batches[w], &il);
        let train_ms = start.elapsed().as_secs_f64() * 1e3;

        // Forecast the next window.
        if w + 1 < batches.len() {
            let metrics = evaluator.evaluate(&g, &model, batches[w + 1]);
            println!(
                "window {:>2}: ingested {:>6} events | trained in {:>7.1} ms | \
                 next-window MRR {:.4} H@20 {:.4}",
                w + 1,
                ingested,
                train_ms,
                metrics.mrr(),
                metrics.hit20()
            );
        }
    }

    // Instant scoring stays available at any moment between events.
    let e = data.edges.last().unwrap();
    println!(
        "\nfinal γ(u, v, r) of the last observed interaction: {:.3}",
        model.score(e.src, e.dst, e.relation)
    );

    // Operational hygiene: checkpoint the live model and prove a restarted
    // process scores identically (Adam moments travel too, so training
    // resumes bit-exactly after a crash).
    let mut blob = Vec::new();
    model
        .save_checkpoint(&mut blob, 0, None)
        .expect("serialise");
    let mut restarted = Supa::from_dataset(&data, SupaConfig::small(), 999).expect("fresh process");
    restarted.load_checkpoint(&blob).expect("restore");
    assert_eq!(
        model.score(e.src, e.dst, e.relation),
        restarted.score(e.src, e.dst, e.relation)
    );
    println!(
        "checkpoint round-trip OK ({:.1} MiB); restarted process serves identical scores",
        blob.len() as f64 / (1024.0 * 1024.0)
    );
}

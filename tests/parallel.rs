//! Determinism guarantees for the parallel execution layer (supa-par):
//!
//! - a training pass with `workers = 1` is the *exact* serial path —
//!   bit-identical learnable state and loss to per-event `train_edge`;
//! - every `workers ≥ 2` / `shards ≥ 2` setting gives one identical result
//!   (waves and per-wave gradients do not depend on how a wave is split);
//! - parallel ranking evaluation is bit-identical to the sequential
//!   evaluator for every thread count.
//!
//! The single-core CI box cannot observe speedups, so these tests pin down
//! the *values*; throughput is measured by the `throughput` experiment.

use supa::Supa;
use supa_bench::harness::{make_dataset, make_supa, HarnessConfig};
use supa_eval::RankingEvaluator;

fn quick() -> HarnessConfig {
    HarnessConfig::default().quickened()
}

/// Every learnable f32/f64 in the model, as raw bits (bit-equality is
/// stricter than `==`: it also distinguishes `0.0` from `-0.0`).
fn state_bits(m: &Supa) -> Vec<u64> {
    let s = m.state();
    let mut out = Vec::new();
    for table in [&s.h_long, &s.h_short].into_iter().chain(s.ctx.iter()) {
        out.extend(table.data().iter().map(|x| u64::from(x.to_bits())));
    }
    out.extend(s.alpha.iter().map(|a| a.value.to_bits()));
    out
}

#[test]
fn one_worker_pass_is_bit_identical_to_per_event_training() {
    let cfg = quick();
    let d = make_dataset("Taobao", &cfg);
    let g = d.full_graph();

    let mut serial = make_supa(&d, &cfg);
    serial.resolve_time_scale(&g);
    let mut total = 0.0;
    for e in &d.edges {
        total += serial.train_edge(&g, e).total();
    }
    let loss_serial = total / d.edges.len() as f64;

    let mut pass = make_supa(&d, &cfg).with_workers(1);
    pass.resolve_time_scale(&g);
    let loss_pass = pass.train_pass(&g, &d.edges);

    assert_eq!(loss_serial.to_bits(), loss_pass.to_bits());
    assert_eq!(state_bits(&serial), state_bits(&pass));
}

/// Every `workers ≥ 2` and every `shards ≥ 2` setting is the one
/// wave-frozen regime: same loss, same state, to the bit. In both regimes
/// an all-ones weight vector is the unweighted pass.
#[test]
fn wave_frozen_training_is_identical_across_worker_and_shard_counts() {
    let cfg = quick();
    let d = make_dataset("Taobao", &cfg);
    let g = d.full_graph();
    let ones = vec![1.0f32; d.edges.len()];

    let run = |workers: usize, shards: usize, weights: Option<&[f32]>| {
        let mut m = make_supa(&d, &cfg)
            .with_workers(workers)
            .with_shards(shards);
        m.resolve_time_scale(&g);
        let loss = m.train_pass_weighted(&g, &d.edges, weights);
        (loss.to_bits(), state_bits(&m))
    };
    let frozen = run(2, 1, None);
    for (workers, shards) in [(4, 1), (1, 2), (1, 4), (2, 4)] {
        assert_eq!(
            run(workers, shards, None),
            frozen,
            "workers={workers} shards={shards} left the wave-frozen regime"
        );
    }
    assert_eq!(run(2, 1, Some(&ones)), frozen, "unit weights, wave-frozen");

    let serial = run(1, 1, None);
    assert_eq!(run(1, 1, Some(&ones)), serial, "unit weights, serial");
    assert_ne!(
        serial.1, frozen.1,
        "per-wave α freezing should be observable on this stream"
    );
}

#[test]
fn parallel_evaluation_is_bit_identical_to_serial() {
    let cfg = quick();
    let d = make_dataset("Taobao", &cfg);
    let g = d.full_graph();
    let holdout = (d.edges.len() / 5).max(1);
    let (train, test) = d.edges.split_at(d.edges.len() - holdout);

    let mut m = make_supa(&d, &cfg);
    m.resolve_time_scale(&g);
    let _ = m.train_pass(&g, train);

    for ev in [RankingEvaluator::sampled(40, 2), RankingEvaluator::full()] {
        let seq = ev.evaluate(&g, &m, test);
        for threads in [2usize, 3, 4, 8] {
            let par = ev.evaluate_parallel(&g, &m, test, threads);
            assert_eq!(par.len(), seq.len(), "threads={threads}");
            assert_eq!(
                par.mrr().to_bits(),
                seq.mrr().to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                par.hit20().to_bits(),
                seq.hit20().to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                par.hit50().to_bits(),
                seq.hit50().to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                par.ndcg10().to_bits(),
                seq.ndcg10().to_bits(),
                "threads={threads}"
            );
        }
    }
}

#[test]
fn set_workers_resolves_zero_to_machine_parallelism() {
    let cfg = quick();
    let d = make_dataset("Taobao", &cfg);
    let mut m = make_supa(&d, &cfg);
    assert_eq!(m.workers(), 1, "default is the exact serial path");
    m.set_workers(0);
    assert_eq!(m.workers(), supa_par::available_workers().max(1));
    m.set_workers(3);
    assert_eq!(m.workers(), 3);
}

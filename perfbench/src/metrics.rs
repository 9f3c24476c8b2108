//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` repeats these tables for the driver; the smoke test
//! fails when the two disagree.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the serving system sees. Every workload reports every
/// one of them, with tracing off. The bounds are what the reference host
/// supports (README, "Stability pass"): over ten seeds the widest
/// inter-quartile spread of a timing was 14 % of its median in a quiet pass
/// and 26 % in a noisy one, and whole passes drift by 10–30 %.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_eps", "1/s", Higher, 0.25),
    e2e("publish_lag_p50_ms", "ms", Lower, 0.25),
    e2e("query_qps", "1/s", Higher, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("holdout_hit_at_10", "ratio", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Single layers (layer = crate), from the traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [PerLayer; 53] = [
    layer("datasets.generate_s", "s", Lower),
    layer("datasets.save_tsv_s", "s", Lower),
    layer("ingest.scan_s", "s", Lower),
    layer("ingest.parse_ns_per_event", "ns", Lower),
    layer("graph.guard_admit_ns", "ns", Lower),
    layer("graph.add_edge_ns", "ns", Lower),
    layer("core.train_chunk_ms", "ms", Lower),
    layer("core.train_us_per_event", "us", Lower),
    layer("core.inslearn_passes_per_chunk", "count", Lower),
    layer("core.train_pass_us_per_event", "us", Lower),
    layer("core.state_snapshot_ms", "ms", Lower),
    layer("core.touched_rows_per_chunk", "count", Lower),
    layer("core.export_snapshot_ms", "ms", Lower),
    layer("core.export_snapshot_bytes", "B", Lower),
    layer("core.delta_extract_ms", "ms", Lower),
    layer("core.delta_encode_ms", "ms", Lower),
    layer("core.delta_bytes_per_chunk", "B", Lower),
    layer("core.checkpoint_save_ms", "ms", Lower),
    layer("core.checkpoint_bytes", "B", Lower),
    layer("ann.build_s", "s", Lower),
    layer("ann.index_bytes", "B", Lower),
    layer("ann.update_batch_ms", "ms", Lower),
    layer("ann.update_us_per_node", "us", Lower),
    layer("ann.refresh_batch_nodes", "count", Lower),
    layer("ann.clone_ms", "ms", Lower),
    layer("ann.search_us", "us", Lower),
    layer("ann.candidates_per_query", "count", Lower),
    layer("ann.recall_at_10", "ratio", Higher),
    layer("serve.rerank_us", "us", Lower),
    layer("serve.brute_score_us", "us", Lower),
    layer("serve.cache_get_ns", "ns", Lower),
    layer("serve.cache_invalidate_us", "us", Lower),
    layer("serve.snapshot_swap_us", "us", Lower),
    layer("serve.chunk_ms", "ms", Lower),
    layer("serve.cache_hit_rate", "ratio", Higher),
    layer("serve.query_cached_p50_us", "us", Lower),
    layer("serve.query_uncached_p50_us", "us", Lower),
    layer("serve.query_uncached_p95_us", "us", Lower),
    layer("serve.query_p99_us", "us", Lower),
    layer("serve.publish_lag_p95_ms", "ms", Lower),
    layer("serve.ingest_call_ns", "ns", Lower),
    layer("serve.producer_blocked_share", "ratio", Lower),
    layer("serve.flush_ms", "ms", Lower),
    layer("serve.engine_overhead_ratio", "ratio", Lower),
    layer("serve.gen_late_p95_ms", "ms", Lower),
    layer("serve.backlog_max", "events", Lower),
    layer("replica.apply_ms_per_epoch", "ms", Lower),
    layer("replica.apply_eps", "1/s", Higher),
    layer("replica.segment_bytes", "B", Lower),
    layer("replica.delta_bytes_per_event", "B", Lower),
    layer("trace.coverage_ratio", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

/// One measured value, as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_bounds_are_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}

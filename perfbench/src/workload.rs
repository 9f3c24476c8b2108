//! The four workloads. Everything that defines a workload's work is a
//! constant here, frozen together with `BENCHMARK.json`; only the seed and
//! the time budget come from the command line.

/// Which synthetic dataset (from `supa-datasets`) a workload streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Graph {
    /// Taobao at the given scale (1.0 = 12 611 nodes, 20 890 events).
    Taobao(f64),
    /// Kuaishou at the given scale (0.4 = 55 525 nodes, 3 node types,
    /// 5 relations).
    Kuaishou(f64),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub graph: Graph,
    /// Admitted events per training chunk; an epoch is published per chunk.
    pub chunk: usize,
    /// Events trained offline into the model during set-up, before the
    /// engine starts and the index is built.
    pub warm_events: usize,
    /// Fixed work: the timed region streams `events_per_second × --seconds`
    /// events (rounded to whole chunks). For a closed loop the figure was
    /// calibrated once so that the region lasts about `--seconds` on the
    /// 2-core reference host at the commit that added the ledger; for the
    /// open loop it is the schedule itself.
    pub events_per_second: f64,
    /// Open loop: events are sent on the fixed schedule above and timed from
    /// when they were due. Closed loop otherwise: the next event is offered
    /// when the previous `ingest` returns.
    pub paced: bool,
    /// Held-out events (the ones right after the timed region) probed after
    /// the final flush.
    pub holdout: usize,
    /// One closed-loop Zipf(1.0) reader runs beside the producer. Without
    /// it the second thread only polls for published epochs.
    pub reader: bool,
    /// ANN serving with `AnnOptions::default()`; exact scoring otherwise.
    pub ann: bool,
    /// Query-cache capacity: 0 on the write-only workloads, so that every
    /// post-flush probe is scored; `ServeConfig::default()`'s 4096 on
    /// `full_small`, whose 4 000 keys fit, so that its misses come from
    /// invalidation; 512 on `query_ann`, a tenth of its 5 472 keys, so that
    /// its misses come from capacity. With the default 4096 nearly every key
    /// fits there too, a miss is what the last epoch invalidated, and the hit
    /// rate (0.75) rises with the number of queries the reader fits into an
    /// epoch: a host 5 % slower answered 8–10 % fewer queries, and `query_qps`
    /// spread past its bound between two sets of runs of the same code. At
    /// 512 the hit rate is 0.48–0.49 on every seed and at every speed.
    pub cache_capacity: usize,
    /// Replicate every epoch to a segment file and replay it into an
    /// in-process replica afterwards.
    pub replicate: bool,
    /// Checkpoint every this many chunks.
    pub checkpoint_every: Option<usize>,
}

pub const STREAM_SMALL: Workload = Workload {
    name: "stream_small",
    why: "write-only closed loop on the 12.6k-node Taobao graph: training dominates and publish is cheap, so a faster train pass shows here and O(touched) publish should not",
    graph: Graph::Taobao(1.0),
    chunk: 64,
    warm_events: 0,
    events_per_second: 1_568.0,
    paced: false,
    holdout: 8_192,
    reader: false,
    ann: false,
    cache_capacity: 0,
    replicate: false,
    checkpoint_every: None,
};

pub const STREAM_LARGE: Workload = Workload {
    name: "stream_large",
    why: "the same loop on the 55.5k-node Kuaishou graph: per-chunk work that scales with N (snapshot export, history ring) shows here; ingest_eps large/small is the graph-size-independence claim",
    graph: Graph::Kuaishou(0.4),
    chunk: 64,
    warm_events: 0,
    events_per_second: 376.0,
    paced: false,
    holdout: 2_048,
    reader: false,
    ann: false,
    cache_capacity: 0,
    replicate: false,
    checkpoint_every: None,
};

pub const QUERY_ANN: Workload = Workload {
    name: "query_ann",
    why: "one Zipf reader (key space > cache) through cache, ANN beam and exact rerank beside an open-loop producer paced well under the sustainable rate, so freshness is measured without queue wait",
    graph: Graph::Kuaishou(0.2),
    chunk: 8,
    warm_events: 8_192,
    events_per_second: 16.0,
    paced: true,
    holdout: 4_096,
    reader: true,
    ann: true,
    cache_capacity: 512,
    replicate: false,
    checkpoint_every: None,
};

pub const FULL_SMALL: Workload = Workload {
    name: "full_small",
    why: "producer at full speed beside one Zipf reader (key space <= cache), exact scoring, segment replication, checkpoints: reads and writes contend for two cores, and ANN is bypassed",
    graph: Graph::Taobao(1.0),
    chunk: 64,
    warm_events: 0,
    events_per_second: 1_136.0,
    paced: false,
    holdout: 8_192,
    reader: true,
    ann: false,
    cache_capacity: 4_096,
    replicate: true,
    checkpoint_every: Some(8),
};

pub const WORKLOADS: [&Workload; 4] = [&STREAM_SMALL, &STREAM_LARGE, &QUERY_ANN, &FULL_SMALL];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Events in the timed region for a `--seconds` budget: whole chunks, at
    /// least one.
    pub fn timed_events(&self, seconds: f64) -> usize {
        let chunks = (self.events_per_second * seconds / self.chunk as f64).round() as usize;
        chunks.max(1) * self.chunk
    }

    /// The same layers on a few hundred events and a small graph, for the
    /// smoke test. Results of a quick run are not comparable with full ones.
    pub fn quick(&self) -> Workload {
        Workload {
            graph: match self.graph {
                Graph::Taobao(_) => Graph::Taobao(0.1),
                Graph::Kuaishou(_) => Graph::Kuaishou(0.02),
            },
            warm_events: self.warm_events.min(256),
            holdout: 64,
            ..self.clone()
        }
    }

    /// Timed events of a quick run: four chunks, whatever the budget.
    pub const QUICK_CHUNKS: usize = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_work_is_whole_chunks() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert_eq!(w.timed_events(8.0) % w.chunk, 0);
            assert!(w.timed_events(0.001) >= w.chunk);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}

//! The staged replay: one thread calls each layer's public functions in the
//! order the engine's writer and readers do, on the same input, with a span
//! around every call. It is the single-threaded baseline of the engine pass
//! (same events in, same probe digest out) and the source of every
//! per-layer timing.
//!
//! Writer order per event: `EventStream::next` → `StreamGuard::admit` →
//! `Dmhg::add_edge`; per chunk: `Supa::train_inslearn_ft` →
//! `export_serving_snapshot` + `take_touched` → `HnswIndex::update_batch` →
//! index clone (what the engine's freeze pays) → `extract_delta` + `encode`
//! → segment write → `Replica::apply` → snapshot swap →
//! `QueryCache::invalidate_touched` → `CheckpointManager::save`.
//! Reader order per query: `QueryCache::get` → `composite_into` →
//! `HnswIndex::search_into` → `top_k_scored_with` → `QueryCache::put`.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use supa::delta::{encode_baseline, BaselineFrame, Frame, GuardState};
use supa::{CheckpointManager, InsLearnConfig, ServingSnapshot, Supa, TrainOptions};
use supa_ann::{AnnConfig, HnswIndex, SearchScratch};
use supa_datasets::Dataset;
use supa_eval::{top_k_scored, top_k_scored_with, TopKScratch};
use supa_graph::{Dmhg, NodeId, QuarantinePolicy, RelationId, StreamGuard, TemporalEdge};
use supa_ingest::EventStream;
use supa_replica::Replica;
use supa_serve::{probe_digest, AnnOptions, QueryCache, ServeConfig};

use crate::setup::{clean_outputs, next_event, prepare, segment_path, QueryGen, TOP_K};
use crate::trace::Recorder;
use crate::workload::Workload;

/// Reader queries replayed after each chunk on workloads with a reader.
const QUERIES_PER_CHUNK: usize = 32;

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub chunks: u64,
    pub inslearn_iterations: Vec<f64>,
    pub touched_rows: Vec<f64>,
    pub refresh_nodes: Vec<f64>,
    pub delta_bytes: Vec<f64>,
    pub candidates_per_query: Vec<f64>,
    pub checkpoint_bytes: u64,
    pub ann_build_s: f64,
    pub index_bytes: u64,
    /// Size of one exported snapshot, as its baseline frame encodes it.
    pub snapshot_bytes: u64,
    /// Reference calls on the final state: one full-state copy (InsLearn
    /// takes at least one per chunk) and one plain training pass.
    pub state_snapshot_ms: f64,
    pub train_pass_us_per_event: f64,
}

pub struct ReplayOutcome {
    /// Wall of the replayed timed region (the root span's extent).
    pub wall_s: f64,
    /// The same without the time inside replayed reader queries.
    pub writer_wall_s: f64,
    pub digest: u64,
    pub recorder: Recorder,
    pub counts: ReplayCounts,
}

struct AnnState {
    ef: usize,
    group_of: Vec<usize>,
    owned: Vec<Vec<NodeId>>,
    master: Vec<Option<HnswIndex>>,
    /// The published copy queries search (the engine's frozen `AnnEpoch`).
    frozen: Vec<Option<HnswIndex>>,
    base: Vec<f32>,
    batch_ids: Vec<u32>,
    batch_rows: Vec<f32>,
}

struct Replay<'a> {
    w: &'a Workload,
    rec: Recorder,
    counts: ReplayCounts,
    graph: Dmhg,
    model: Supa,
    il_cfg: InsLearnConfig,
    guard: StreamGuard,
    candidates: Vec<Vec<NodeId>>,
    scorer: Arc<ServingSnapshot>,
    history: VecDeque<Arc<ServingSnapshot>>,
    keep_history: usize,
    ann: Option<AnnState>,
    segment: Option<std::io::BufWriter<std::fs::File>>,
    replica: Option<Replica>,
    checkpoints: Option<CheckpointManager>,
    cache: QueryCache,
    pending: Vec<TemporalEdge>,
    interval_events: Vec<TemporalEdge>,
    admitted: u64,
    epoch: u64,
    // Reader-side scratch, as the engine keeps per reader thread.
    query_vec: Vec<f32>,
    search: SearchScratch,
    cand: Vec<NodeId>,
    topk: TopKScratch,
}

impl Replay<'_> {
    fn absorb(&mut self, stream: &mut EventStream, chunk_id: u64) -> Result<(), String> {
        let edge = self
            .rec
            .time("ingest.parse", chunk_id, || next_event(stream))?;
        let admitted = self.rec.time("graph.guard_admit", chunk_id, || {
            self.guard.admit(&self.graph, edge)
        });
        let Ok(Some(e)) = admitted else {
            return Err(format!("stream guard refused a generated event: {edge:?}"));
        };
        self.rec
            .time("graph.add_edge", chunk_id, || {
                self.graph.add_edge(e.src, e.dst, e.relation, e.time)
            })
            .map_err(|err| format!("add_edge: {err}"))?;
        self.admitted += 1;
        if self.segment.is_some() {
            self.interval_events.push(e);
        }
        self.pending.push(e);
        Ok(())
    }

    fn train_pending(&mut self, chunk_id: u64) -> Result<(), String> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let (report, _) = self
            .rec
            .time("core.train_chunk", chunk_id, || {
                self.model.train_inslearn_ft(
                    &self.graph,
                    &self.pending,
                    &self.il_cfg,
                    TrainOptions::default(),
                )
            })
            .map_err(|e| format!("train: {e}"))?;
        self.counts
            .inslearn_iterations
            .push(report.iterations as f64);
        self.counts.chunks += 1;
        self.pending.clear();
        Ok(())
    }

    fn publish(&mut self, chunk_id: u64) -> Result<(), String> {
        self.epoch += 1;
        let scorer = self.rec.time("core.export_snapshot", chunk_id, || {
            self.model.export_serving_snapshot()
        });
        let touched = self
            .rec
            .time("core.take_touched", chunk_id, || self.model.take_touched());
        self.counts.touched_rows.push(touched.len() as f64);

        if let Some(ann) = &mut self.ann {
            let refreshed = self.rec.time("ann.update_batch", chunk_id, || {
                let mut refreshed = 0usize;
                for (g, index) in ann.master.iter_mut().enumerate() {
                    let Some(index) = index else { continue };
                    ann.batch_ids.clear();
                    ann.batch_rows.clear();
                    for &id in &touched {
                        if ann.owned[g].binary_search(&NodeId(id)).is_ok() {
                            scorer.base_into(NodeId(id), &mut ann.base);
                            ann.batch_ids.push(id);
                            ann.batch_rows.extend_from_slice(&ann.base);
                        }
                    }
                    if !ann.batch_ids.is_empty() {
                        index.update_batch(&ann.batch_ids, &ann.batch_rows);
                        refreshed += ann.batch_ids.len();
                    }
                }
                refreshed
            });
            self.counts.refresh_nodes.push(refreshed as f64);
            ann.frozen = self.rec.time("ann.clone", chunk_id, || ann.master.clone());
        }

        if let Some(segment) = &mut self.segment {
            let events = std::mem::take(&mut self.interval_events);
            let frame = self.rec.time("core.delta_extract", chunk_id, || {
                scorer.extract_delta(
                    self.epoch,
                    self.epoch - 1,
                    &touched,
                    events,
                    GuardState::default(),
                )
            });
            let bytes = self
                .rec
                .time("core.delta_encode", chunk_id, || frame.encode());
            self.counts.delta_bytes.push(bytes.len() as f64);
            self.rec
                .time("replica.segment_write", chunk_id, || {
                    segment.write_all(&bytes).and_then(|()| segment.flush())
                })
                .map_err(|e| format!("segment: {e}"))?;
            let replica = self.replica.as_mut().expect("replica beside the segment");
            self.rec
                .time("replica.apply", chunk_id, || {
                    replica.apply(&Frame::Delta(frame))
                })
                .map_err(|e| format!("replica apply: {e}"))?;
        }

        self.rec.time("serve.snapshot_swap", chunk_id, || {
            let scorer = Arc::new(scorer);
            self.history.push_back(scorer.clone());
            // +1: the ring also holds the current snapshot.
            while self.history.len() > self.keep_history + 1 {
                self.history.pop_front();
            }
            self.scorer = scorer;
        });
        self.rec.time("serve.cache_invalidate", chunk_id, || {
            self.cache.invalidate_touched(&touched)
        });
        Ok(())
    }

    fn checkpoint(&mut self, chunk_id: u64) -> Result<(), String> {
        let (Some(every), Some(mgr)) = (self.w.checkpoint_every, &mut self.checkpoints) else {
            return Ok(());
        };
        if !self.counts.chunks.is_multiple_of(every as u64) {
            return Ok(());
        }
        let path = self
            .rec
            .time("core.checkpoint_save", chunk_id, || {
                mgr.save(&self.model, self.admitted)
            })
            .map_err(|e| format!("checkpoint: {e}"))?;
        self.counts.checkpoint_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        Ok(())
    }

    /// One reader query, as `ServeHandle::query` answers it.
    fn query(&mut self, user: NodeId, rel: RelationId, query_id: u64) {
        let group = self.rec.open("reader.query", query_id);
        let cached = self.rec.time("serve.cache_get", query_id, || {
            self.cache.get(user.0, rel.0, TOP_K)
        });
        if cached.is_some() {
            self.rec.close(group);
            return;
        }
        let candidates = &self.candidates[rel.index()];
        let scorer = &*self.scorer;
        let index = self.ann.as_ref().and_then(|ann| {
            let index = ann.frozen[ann.group_of[rel.index()]].as_ref()?;
            (ann.ef < candidates.len()).then_some((ann.ef, index))
        });
        let items = match index {
            Some((ef, index)) => {
                self.rec.time("core.composite", query_id, || {
                    scorer.composite_into(user, rel, &mut self.query_vec)
                });
                self.rec.time("ann.search", query_id, || {
                    let found = index.search_into(&self.query_vec, ef, ef, &mut self.search);
                    self.cand.clear();
                    self.cand.extend(found.iter().map(|&id| NodeId(id)));
                });
                self.counts
                    .candidates_per_query
                    .push(self.cand.len() as f64);
                self.rec.time("serve.rerank", query_id, || {
                    top_k_scored_with(scorer, user, &self.cand, rel, TOP_K, &mut self.topk).to_vec()
                })
            }
            None => self.rec.time("serve.brute_score", query_id, || {
                top_k_scored_with(scorer, user, candidates, rel, TOP_K, &mut self.topk).to_vec()
            }),
        };
        self.rec.time("serve.cache_put", query_id, || {
            self.cache.put(user.0, rel.0, TOP_K, self.epoch, items)
        });
        self.rec.close(group);
    }
}

/// Sorted, duplicate-free candidate items per relation, as the engine
/// derives them at start.
fn relation_candidates(graph: &Dmhg) -> Vec<Vec<NodeId>> {
    let schema = graph.schema();
    (0..schema.num_relations())
        .map(|r| {
            let spec = schema
                .relation(RelationId(r as u16))
                .expect("relation in range");
            let mut list = graph.nodes_of_type(spec.dst_type).to_vec();
            list.sort_unstable();
            list.dedup();
            list
        })
        .collect()
}

fn build_ann(
    opts: &AnnOptions,
    graph: &Dmhg,
    candidates: &[Vec<NodeId>],
    scorer: &ServingSnapshot,
) -> AnnState {
    let (group_of, num_groups) = graph.schema().dst_type_groups();
    let mut owned: Vec<Vec<NodeId>> = vec![Vec::new(); num_groups];
    for (r, &g) in group_of.iter().enumerate() {
        if owned[g].is_empty() {
            owned[g] = candidates[r].clone();
        }
    }
    let config = AnnConfig {
        m: opts.m,
        ef_construction: opts.ef_construction,
        seed: opts.seed,
    };
    let mut base = Vec::new();
    let master: Vec<Option<HnswIndex>> = owned
        .iter()
        .map(|items| {
            if items.is_empty() {
                return None;
            }
            let mut index = HnswIndex::new(scorer.dim(), config.clone());
            for &item in items {
                scorer.base_into(item, &mut base);
                index.insert(item.0, &base);
            }
            Some(index)
        })
        .collect();
    AnnState {
        ef: opts.ef_search.max(TOP_K).saturating_add(opts.ef_margin),
        group_of,
        owned,
        frozen: master.clone(),
        master,
        base,
        batch_ids: Vec::new(),
        batch_rows: Vec::new(),
    }
}

/// Replays the workload's timed region on one thread. `traced` turns the
/// span recorder on and replays the reader's queries between chunks; with it
/// off only the writer's calls run, with no clock reads — the reader changes
/// no writer state, so both end in the same digest, and the traced writer
/// wall against this one is the tracing overhead.
pub fn staged_replay(
    w: &Workload,
    cfg: &ServeConfig,
    seed: u64,
    timed: usize,
    traced: bool,
    dir: &Path,
) -> Result<ReplayOutcome, String> {
    clean_outputs(dir);
    let p = prepare(w, seed, timed, dir)?;
    let dataset: Dataset = p.dataset;
    let mut stream = p.stream;
    let mut model = p.model;
    // What `ServeEngine::start` does to the model it is handed.
    model.enable_touch_tracking();
    model.set_workers(cfg.workers);
    model.set_shards(cfg.shards);

    let mut counts = ReplayCounts::default();
    let candidates = relation_candidates(&p.graph);
    let scorer = model.export_serving_snapshot();
    let ann = cfg.ann.as_ref().map(|opts| {
        let t = Instant::now();
        let ann = build_ann(opts, &p.graph, &candidates, &scorer);
        counts.ann_build_s = t.elapsed().as_secs_f64();
        counts.index_bytes = ann
            .master
            .iter()
            .flatten()
            .map(|i| i.memory_bytes() as u64)
            .sum();
        ann
    });
    let mut segment = None;
    let mut replica = None;
    if w.replicate {
        let file = std::fs::File::create(segment_path(dir)).map_err(|e| format!("segment: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        out.write_all(&encode_baseline(0, &scorer, GuardState::default()))
            .and_then(|()| out.flush())
            .map_err(|e| format!("segment: {e}"))?;
        segment = Some(out);
        let mut r = Replica::new(dataset.prototype.clone(), None);
        r.apply(&Frame::Baseline(BaselineFrame {
            epoch: 0,
            snapshot: scorer.clone(),
            guard: GuardState::default(),
            index: None,
        }))
        .map_err(|e| format!("replica baseline: {e}"))?;
        replica = Some(r);
    }
    let checkpoints = match &cfg.checkpoint {
        Some(ck) => Some(CheckpointManager::new(&ck.dir, ck.keep).map_err(|e| e.to_string())?),
        None => None,
    };
    let scorer = Arc::new(scorer);

    let mut r = Replay {
        w,
        rec: Recorder::new(traced),
        counts,
        il_cfg: model.inslearn_config().clone(),
        graph: p.graph,
        model,
        guard: StreamGuard::new(QuarantinePolicy::Skip),
        candidates,
        history: VecDeque::from([scorer.clone()]),
        scorer,
        keep_history: cfg.keep_history.max(1),
        ann,
        segment,
        replica,
        checkpoints,
        cache: QueryCache::new(cfg.cache_capacity),
        pending: Vec::with_capacity(w.chunk),
        interval_events: Vec::new(),
        admitted: 0,
        epoch: 0,
        query_vec: Vec::new(),
        search: SearchScratch::default(),
        cand: Vec::new(),
        topk: TopKScratch::default(),
    };
    let mut gen = (w.reader && traced).then(|| QueryGen::new(&dataset, seed));
    let mut last_chunk: Vec<TemporalEdge> = Vec::new();
    let mut query_id = 0u64;

    let wall = Instant::now();
    let root = r.rec.open("replay", 0);
    let mut chunk_id = 1u64;
    let mut chunk_span = None;
    for _ in 0..timed {
        let span = *chunk_span.get_or_insert_with(|| r.rec.open("writer.chunk", chunk_id));
        r.absorb(&mut stream, chunk_id)?;
        if r.pending.len() >= w.chunk {
            last_chunk.clone_from(&r.pending);
            r.train_pending(chunk_id)?;
            r.publish(chunk_id)?;
            r.checkpoint(chunk_id)?;
            r.rec.close(span);
            chunk_span = None;
            chunk_id += 1;
            if let Some(gen) = gen.as_mut() {
                for _ in 0..QUERIES_PER_CHUNK {
                    let (user, rel) = gen.next_query();
                    query_id += 1;
                    r.query(user, rel, query_id);
                }
            }
        }
    }
    // `flush()`: train whatever is pending and publish once more.
    let span = chunk_span.unwrap_or_else(|| r.rec.open("writer.chunk", chunk_id));
    r.train_pending(chunk_id)?;
    r.publish(chunk_id)?;
    r.rec.close(span);
    r.rec.close(root);
    let wall_s = wall.elapsed().as_secs_f64();

    let digest = probe_digest(&dataset, seed, TOP_K, |user, rel, k| {
        top_k_scored(&*r.scorer, user, &r.candidates[rel.index()], rel, k)
    });

    if traced {
        r.counts.snapshot_bytes =
            encode_baseline(r.epoch, &r.scorer, GuardState::default()).len() as u64;
        let mut copies = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let copy = std::hint::black_box(r.model.snapshot());
            copies.push(t.elapsed().as_secs_f64() * 1e3);
            drop(copy);
        }
        r.counts.state_snapshot_ms = crate::stats::median(&copies);
        if !last_chunk.is_empty() {
            let t = Instant::now();
            std::hint::black_box(r.model.train_pass(&r.graph, &last_chunk));
            r.counts.train_pass_us_per_event =
                t.elapsed().as_secs_f64() * 1e6 / last_chunk.len() as f64;
        }
    }

    let reader_ns: u64 = r
        .rec
        .spans()
        .iter()
        .filter(|s| s.name == "reader.query")
        .map(|s| s.duration_ns())
        .sum();
    Ok(ReplayOutcome {
        wall_s,
        writer_wall_s: wall_s - reader_ns as f64 / 1e9,
        digest,
        recorder: r.rec,
        counts: r.counts,
    })
}

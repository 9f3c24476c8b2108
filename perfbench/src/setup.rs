//! Set-up shared by the engine pass and the staged replay: generate the
//! dataset from the seed, hand it over as a TSV dump, scan it with
//! `supa-ingest`, build the model and train the warm prefix.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use supa::{InsLearnConfig, Supa, SupaConfig};
use supa_datasets::{kuaishou, save_header, taobao, write_edge_line, Dataset};
use supa_graph::{Dmhg, NodeId, QuarantinePolicy, RelationId, TemporalEdge};
use supa_ingest::{scan_tsv, EventStream, IngestOptions};
use supa_replica::PublishOptions;
use supa_serve::{AnnOptions, CheckpointOptions, ServeConfig};

use crate::stats::{SplitMix64, Zipf};
use crate::workload::{Graph, Workload};

/// Top-K of every query the benchmark issues.
pub const TOP_K: usize = 10;

/// Wall time of each set-up stage the benchmark drives itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub save_tsv_s: f64,
    pub scan_s: f64,
}

/// Everything a pass needs, positioned at the first timed event.
pub struct Prepared {
    /// Node universe, schema and metapaths as `scan_tsv` rebuilt them.
    pub dataset: Dataset,
    /// Pass 2 over the dump; the warm prefix has already been consumed.
    pub stream: EventStream,
    /// Prototype plus the warm prefix's edges.
    pub graph: Dmhg,
    /// Model trained on the warm prefix.
    pub model: Supa,
    pub times: SetupTimes,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Reads the next event of a dump the benchmark wrote itself, so any error
/// is a bug in the benchmark or the ingest layer.
pub fn next_event(stream: &mut EventStream) -> Result<TemporalEdge, String> {
    match stream.next() {
        Some(Ok(e)) => Ok(e),
        Some(Err(e)) => Err(format!("ingest: {e}")),
        None => Err("ingest: dump ended before the workload's events did".into()),
    }
}

/// Generates the workload's dataset from `seed`, writes the first
/// `warm + timed + holdout` events as a TSV dump under `dir`, scans it and
/// builds the warm model.
pub fn prepare(w: &Workload, seed: u64, timed: usize, dir: &Path) -> Result<Prepared, String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let generated = match w.graph {
        Graph::Taobao(scale) => taobao(scale, seed),
        Graph::Kuaishou(scale) => kuaishou(scale, seed),
    };
    times.generate_s = secs(t);
    let needed = w.warm_events + timed + w.holdout;
    if generated.edges.len() < needed {
        return Err(format!(
            "{}: workload needs {needed} events, the dataset has {}",
            w.name,
            generated.edges.len()
        ));
    }

    let t = Instant::now();
    let path = dir.join(format!("{}.tsv", w.name));
    {
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let schema = generated.prototype.schema();
        save_header(&generated, &mut out)
            .and_then(|()| {
                generated.edges[..needed]
                    .iter()
                    .try_for_each(|e| write_edge_line(&mut out, schema, e))
            })
            .and_then(|()| out.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    times.save_tsv_s = secs(t);
    drop(generated);

    let t = Instant::now();
    let scan = scan_tsv(&path, &IngestOptions::default()).map_err(|e| format!("scan: {e}"))?;
    let (dataset, mut stream) = scan.into_stream().map_err(|e| format!("scan: {e}"))?;
    times.scan_s = secs(t);

    // The configuration the repo's own serving benches use (`serve_bench`,
    // `expt throughput`): d = 32, fast InsLearn profile.
    let mut model = Supa::from_dataset(&dataset, SupaConfig::small(), seed)
        .map_err(|e| format!("model: {e}"))?
        .with_inslearn(InsLearnConfig {
            batch_size: 1024,
            ..InsLearnConfig::fast()
        });

    let mut graph = dataset.prototype.clone();
    if w.warm_events > 0 {
        let mut warm = Vec::with_capacity(w.warm_events);
        for _ in 0..w.warm_events {
            let e = next_event(&mut stream)?;
            graph
                .add_edge(e.src, e.dst, e.relation, e.time)
                .map_err(|e| format!("warm prefix: {e}"))?;
            warm.push(e);
        }
        let cfg = model.inslearn_config().clone();
        model.train_inslearn(&graph, &warm, &cfg);
    }

    Ok(Prepared {
        dataset,
        stream,
        graph,
        model,
        times,
    })
}

/// Where a workload's replication segment and checkpoints go.
pub fn segment_path(dir: &Path) -> PathBuf {
    dir.join("epochs.segment")
}

pub fn checkpoint_dir(dir: &Path) -> PathBuf {
    dir.join("checkpoints")
}

/// Removes the segment and checkpoints a previous pass left in `dir`, so
/// that every pass starts from the same empty state.
pub fn clean_outputs(dir: &Path) {
    let _ = std::fs::remove_file(segment_path(dir));
    let _ = std::fs::remove_dir_all(checkpoint_dir(dir));
}

/// The engine configuration of a workload: `ServeConfig::default()` (block
/// policy, queue 1024, one worker, one shard) plus what the workload turns
/// on.
pub fn serve_config(w: &Workload, seed: u64, dir: &Path) -> ServeConfig {
    ServeConfig {
        train_batch: w.chunk,
        snapshot_every: 1,
        policy: QuarantinePolicy::Skip,
        cache_capacity: w.cache_capacity,
        workers: 1,
        shards: 1,
        ann: w.ann.then(|| AnnOptions {
            seed,
            ..AnnOptions::default()
        }),
        replication: w.replicate.then(|| PublishOptions {
            tcp_addr: None,
            segment: Some(segment_path(dir)),
            wait_subscribers: 0,
        }),
        checkpoint: w.checkpoint_every.map(|every| CheckpointOptions {
            every,
            ..CheckpointOptions::new(checkpoint_dir(dir))
        }),
        ..ServeConfig::default()
    }
}

/// Seeded query traffic: Zipf(1.0) over the users (source type of relation
/// 0) crossed uniformly with the relations those users can ask about.
pub struct QueryGen {
    users: Vec<NodeId>,
    rels: Vec<RelationId>,
    zipf: Zipf,
    rng: SplitMix64,
}

impl QueryGen {
    pub fn new(dataset: &Dataset, seed: u64) -> QueryGen {
        let schema = dataset.prototype.schema();
        let user_type = schema
            .relation(RelationId(0))
            .expect("datasets declare at least one relation")
            .src_type;
        let users = dataset.prototype.nodes_of_type(user_type).to_vec();
        let rels = (0..schema.num_relations())
            .map(|r| RelationId(r as u16))
            .filter(|&r| schema.relation(r).is_some_and(|s| s.src_type == user_type))
            .collect();
        QueryGen {
            zipf: Zipf::new(users.len()),
            users,
            rels,
            rng: SplitMix64(seed ^ 0x5155_4552),
        }
    }

    pub fn next_query(&mut self) -> (NodeId, RelationId) {
        let user = self.users[self.zipf.sample(&mut self.rng)];
        let rel = self.rels[self.rng.below(self.rels.len())];
        (user, rel)
    }
}

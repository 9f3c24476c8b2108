//! Helpers the serving integration tests share (`mod common;` in each).

// Each test crate compiles its own copy and none uses every helper.
#![allow(dead_code)]

use supa::{InsLearnConfig, Supa, SupaConfig};
use supa_datasets::Dataset;
use supa_graph::{NodeId, RelationId};

/// A small, fast-training model over `d`.
pub fn fast_model(d: &Dataset, seed: u64) -> Supa {
    let cfg = SupaConfig {
        dim: 16,
        ..SupaConfig::small()
    };
    Supa::from_dataset(d, cfg, seed)
        .unwrap()
        .with_inslearn(InsLearnConfig {
            batch_size: 4096,
            n_iter: 2,
            valid_interval: 2,
            ..InsLearnConfig::fast()
        })
}

/// Query-side sample: `(user, relation)` pairs that are valid under the
/// schema, cycling over relations and their source-type nodes.
pub fn query_pairs(d: &Dataset, n: usize) -> Vec<(NodeId, RelationId)> {
    let schema = d.prototype.schema();
    let mut pairs = Vec::new();
    'outer: loop {
        for r in 0..schema.num_relations() {
            let rel = RelationId(r as u16);
            let users = d
                .prototype
                .nodes_of_type(schema.relation(rel).unwrap().src_type);
            if users.is_empty() {
                continue;
            }
            pairs.push((users[pairs.len() % users.len()], rel));
            if pairs.len() >= n {
                break 'outer;
            }
        }
    }
    pairs
}

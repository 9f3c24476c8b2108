//! Event quarantine: admission control for raw edge streams.
//!
//! Production event streams contain garbage — NaN timestamps, ids that
//! never joined the graph, events arriving out of order, exact duplicates
//! from at-least-once delivery. [`StreamGuard`] classifies each incoming
//! event against the graph's schema and node universe and applies a
//! [`QuarantinePolicy`]:
//!
//! - [`QuarantinePolicy::Strict`] — the first malformed event aborts the
//!   ingest with a [`QuarantineError`] naming the stream position and
//!   fault.
//! - [`QuarantinePolicy::Skip`] — malformed events are quarantined
//!   (dropped and counted); the rest of the stream flows.
//! - [`QuarantinePolicy::Clamp`] — events with *fixable* faults (negative
//!   or out-of-order timestamps) are repaired and admitted; unfixable ones
//!   (NaN time, unknown ids, schema violations, duplicates) are
//!   quarantined as under `Skip`.
//!
//! Every decision is tallied in a [`QuarantineReport`], with the first few
//! faults sampled verbatim for diagnostics.

use std::collections::HashSet;

use crate::graph::Dmhg;
use crate::stream::TemporalEdge;

/// What to do with malformed events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuarantinePolicy {
    /// Abort ingest on the first malformed event.
    Strict,
    /// Drop malformed events, keep going.
    #[default]
    Skip,
    /// Repair what is repairable, drop the rest.
    Clamp,
}

impl std::str::FromStr for QuarantinePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "strict" => Ok(QuarantinePolicy::Strict),
            "skip" => Ok(QuarantinePolicy::Skip),
            "clamp" => Ok(QuarantinePolicy::Clamp),
            other => Err(format!(
                "unknown quarantine policy '{other}' (expected strict|skip|clamp)"
            )),
        }
    }
}

/// Why an event was judged malformed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventFault {
    /// Timestamp is NaN or ±∞. Unfixable.
    NonFiniteTime,
    /// Timestamp is negative (the paper requires `t ∈ ℝ⁺`). Clamp repairs
    /// to `0.0`.
    NegativeTime,
    /// An endpoint id outside the graph's node universe. Unfixable.
    UnknownNode,
    /// A relation id never declared in the schema. Unfixable.
    UnknownRelation,
    /// Endpoint node types violate the relation's declaration. Unfixable.
    EndpointMismatch,
    /// Timestamp is older than an already-admitted event. Clamp repairs to
    /// the newest admitted time.
    OutOfOrder,
    /// Exact `(src, dst, relation, time)` duplicate of an admitted event
    /// (at-least-once delivery). Unfixable (dropping *is* the repair).
    Duplicate,
}

impl EventFault {
    /// Whether [`QuarantinePolicy::Clamp`] can repair this fault.
    pub fn is_fixable(&self) -> bool {
        matches!(self, EventFault::NegativeTime | EventFault::OutOfOrder)
    }
}

impl std::fmt::Display for EventFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventFault::NonFiniteTime => write!(f, "non-finite timestamp"),
            EventFault::NegativeTime => write!(f, "negative timestamp"),
            EventFault::UnknownNode => write!(f, "unknown node id"),
            EventFault::UnknownRelation => write!(f, "unknown relation id"),
            EventFault::EndpointMismatch => write!(f, "endpoint types violate relation schema"),
            EventFault::OutOfOrder => write!(f, "out-of-order timestamp"),
            EventFault::Duplicate => write!(f, "duplicate event"),
        }
    }
}

/// A malformed event under [`QuarantinePolicy::Strict`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineError {
    /// 0-based position of the offending event in the stream.
    pub position: u64,
    /// The classified fault.
    pub fault: EventFault,
    /// The offending event.
    pub edge: TemporalEdge,
}

impl std::fmt::Display for QuarantineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed event at stream position {}: {} ({:?} -> {:?}, relation {}, t = {})",
            self.position,
            self.fault,
            self.edge.src,
            self.edge.dst,
            self.edge.relation.0,
            self.edge.time
        )
    }
}

impl std::error::Error for QuarantineError {}

/// How many faulty events are kept verbatim in the report.
const SAMPLE_LIMIT: usize = 8;

/// Tally of admission decisions over one stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuarantineReport {
    /// Events admitted unchanged.
    pub admitted: usize,
    /// Events repaired by [`QuarantinePolicy::Clamp`] and admitted.
    pub clamped: usize,
    /// Events dropped.
    pub quarantined: usize,
    /// Per-fault tallies (an event counts under its first detected fault).
    pub non_finite_time: usize,
    /// See [`EventFault::NegativeTime`].
    pub negative_time: usize,
    /// See [`EventFault::UnknownNode`].
    pub unknown_node: usize,
    /// See [`EventFault::UnknownRelation`].
    pub unknown_relation: usize,
    /// See [`EventFault::EndpointMismatch`].
    pub endpoint_mismatch: usize,
    /// See [`EventFault::OutOfOrder`].
    pub out_of_order: usize,
    /// See [`EventFault::Duplicate`].
    pub duplicate: usize,
    /// The first few faults, as `(stream position, fault)`.
    pub samples: Vec<(u64, EventFault)>,
}

impl QuarantineReport {
    /// Total faulty events seen (clamped + quarantined).
    pub fn total_faults(&self) -> usize {
        self.clamped + self.quarantined
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} admitted, {} clamped, {} quarantined \
             (time: {} non-finite / {} negative / {} out-of-order; \
             ids: {} node / {} relation / {} endpoint; {} duplicate)",
            self.admitted,
            self.clamped,
            self.quarantined,
            self.non_finite_time,
            self.negative_time,
            self.out_of_order,
            self.unknown_node,
            self.unknown_relation,
            self.endpoint_mismatch,
            self.duplicate,
        )
    }

    /// Adds `other`'s tallies into `self` (the engine-level report is the sum
    /// of its per-shard guards'). Fault samples are concatenated in call
    /// order; their stream positions stay per-guard admission counts.
    /// `other` is destructured exhaustively, so a counter added to the
    /// struct cannot be forgotten here.
    pub fn merge(&mut self, other: QuarantineReport) {
        let QuarantineReport {
            admitted,
            clamped,
            quarantined,
            non_finite_time,
            negative_time,
            unknown_node,
            unknown_relation,
            endpoint_mismatch,
            out_of_order,
            duplicate,
            samples,
        } = other;
        self.admitted += admitted;
        self.clamped += clamped;
        self.quarantined += quarantined;
        self.non_finite_time += non_finite_time;
        self.negative_time += negative_time;
        self.unknown_node += unknown_node;
        self.unknown_relation += unknown_relation;
        self.endpoint_mismatch += endpoint_mismatch;
        self.out_of_order += out_of_order;
        self.duplicate += duplicate;
        self.samples.extend(samples);
    }

    fn record_fault(&mut self, position: u64, fault: EventFault) {
        match fault {
            EventFault::NonFiniteTime => self.non_finite_time += 1,
            EventFault::NegativeTime => self.negative_time += 1,
            EventFault::UnknownNode => self.unknown_node += 1,
            EventFault::UnknownRelation => self.unknown_relation += 1,
            EventFault::EndpointMismatch => self.endpoint_mismatch += 1,
            EventFault::OutOfOrder => self.out_of_order += 1,
            EventFault::Duplicate => self.duplicate += 1,
        }
        if self.samples.len() < SAMPLE_LIMIT {
            self.samples.push((position, fault));
        }
    }
}

/// Stateful admission filter over an edge stream (see the module docs).
#[derive(Debug, Clone)]
pub struct StreamGuard {
    policy: QuarantinePolicy,
    report: QuarantineReport,
    position: u64,
    max_admitted_time: Option<f64>,
    seen: HashSet<(u32, u32, u16, u64)>,
}

impl StreamGuard {
    /// A fresh guard with the given policy.
    pub fn new(policy: QuarantinePolicy) -> Self {
        StreamGuard {
            policy,
            report: QuarantineReport::default(),
            position: 0,
            max_admitted_time: None,
            seen: HashSet::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> QuarantinePolicy {
        self.policy
    }

    /// How many events this guard has classified (the 0-based position the
    /// *next* event will be judged at). Serving checkpoints record this to
    /// know where in the stream to resume.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// The tally so far.
    pub fn report(&self) -> &QuarantineReport {
        &self.report
    }

    /// Consumes the guard, returning its tally.
    pub fn into_report(self) -> QuarantineReport {
        self.report
    }

    /// Classifies `edge` against `g`, in fault-priority order. Returns the
    /// first fault found.
    fn classify(&self, g: &Dmhg, edge: &TemporalEdge) -> Option<EventFault> {
        if !edge.time.is_finite() {
            return Some(EventFault::NonFiniteTime);
        }
        if edge.time < 0.0 {
            return Some(EventFault::NegativeTime);
        }
        let n = g.num_nodes();
        if edge.src.index() >= n || edge.dst.index() >= n {
            return Some(EventFault::UnknownNode);
        }
        if edge.relation.index() >= g.schema().num_relations() {
            return Some(EventFault::UnknownRelation);
        }
        let (tu, tv) = (g.node_type(edge.src), g.node_type(edge.dst));
        if g.schema().check_edge(edge.relation, tu, tv).is_err() {
            return Some(EventFault::EndpointMismatch);
        }
        if self.seen.contains(&Self::dedup_key(edge)) {
            return Some(EventFault::Duplicate);
        }
        if let Some(max) = self.max_admitted_time {
            if edge.time < max {
                return Some(EventFault::OutOfOrder);
            }
        }
        None
    }

    fn dedup_key(edge: &TemporalEdge) -> (u32, u32, u16, u64) {
        (edge.src.0, edge.dst.0, edge.relation.0, edge.time.to_bits())
    }

    /// Admits, repairs, or quarantines one event.
    ///
    /// `Ok(Some(edge))` — admitted (possibly with a clamped timestamp);
    /// `Ok(None)` — quarantined; `Err` — only under
    /// [`QuarantinePolicy::Strict`].
    pub fn admit(
        &mut self,
        g: &Dmhg,
        edge: TemporalEdge,
    ) -> Result<Option<TemporalEdge>, QuarantineError> {
        let position = self.position;
        self.position += 1;
        let Some(fault) = self.classify(g, &edge) else {
            self.report.admitted += 1;
            self.seen.insert(Self::dedup_key(&edge));
            self.max_admitted_time = Some(match self.max_admitted_time {
                Some(m) => m.max(edge.time),
                None => edge.time,
            });
            return Ok(Some(edge));
        };
        match self.policy {
            QuarantinePolicy::Strict => Err(QuarantineError {
                position,
                fault,
                edge,
            }),
            QuarantinePolicy::Clamp if fault.is_fixable() => {
                let mut fixed = edge;
                fixed.time = match fault {
                    EventFault::NegativeTime => 0.0,
                    // Unwrap is safe: OutOfOrder requires an admitted event.
                    EventFault::OutOfOrder => self.max_admitted_time.unwrap_or(0.0),
                    _ => unreachable!("only time faults are fixable"),
                };
                // The repaired event must itself be admissible (e.g. the
                // clamp may have created a duplicate).
                if let Some(residual) = self.classify(g, &fixed) {
                    self.report.quarantined += 1;
                    self.report.record_fault(position, residual);
                    return Ok(None);
                }
                self.report.clamped += 1;
                self.report.record_fault(position, fault);
                self.seen.insert(Self::dedup_key(&fixed));
                self.max_admitted_time = Some(match self.max_admitted_time {
                    Some(m) => m.max(fixed.time),
                    None => fixed.time,
                });
                Ok(Some(fixed))
            }
            _ => {
                self.report.quarantined += 1;
                self.report.record_fault(position, fault);
                Ok(None)
            }
        }
    }
}

/// Filters `events` against `g` under `policy`, inserting every admitted
/// event into the graph. Returns the admitted (possibly repaired) events in
/// order plus the quarantine tally.
pub fn guard_stream(
    g: &mut Dmhg,
    events: &[TemporalEdge],
    policy: QuarantinePolicy,
) -> Result<(Vec<TemporalEdge>, QuarantineReport), QuarantineError> {
    let mut guard = StreamGuard::new(policy);
    let mut admitted = Vec::with_capacity(events.len());
    for (i, &e) in events.iter().enumerate() {
        if let Some(edge) = guard.admit(g, e)? {
            // `admit` validated everything `add_edge` checks, so this
            // cannot fail; treat a failure as a quarantine anyway rather
            // than panicking in a pipeline built not to.
            match g.add_edge(edge.src, edge.dst, edge.relation, edge.time) {
                Ok(()) => admitted.push(edge),
                Err(_) => {
                    guard.report.quarantined += 1;
                    guard
                        .report
                        .record_fault(i as u64, EventFault::EndpointMismatch);
                }
            }
        }
    }
    Ok((admitted, guard.into_report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, RelationId};
    use crate::schema::GraphSchema;

    fn toy() -> (Dmhg, Vec<NodeId>, Vec<NodeId>, RelationId) {
        let mut schema = GraphSchema::new();
        let user = schema.add_node_type("User");
        let item = schema.add_node_type("Item");
        let click = schema.add_relation("Click", user, item);
        let mut g = Dmhg::new(schema);
        let us = g.add_nodes(user, 3);
        let vs = g.add_nodes(item, 3);
        (g, us, vs, click)
    }

    fn ok_edge(us: &[NodeId], vs: &[NodeId], r: RelationId, t: f64) -> TemporalEdge {
        TemporalEdge::new(us[0], vs[0], r, t)
    }

    #[test]
    fn merge_carries_every_counter_and_all_samples() {
        let part = |base: usize, fault: EventFault| QuarantineReport {
            admitted: base + 1,
            clamped: base + 2,
            quarantined: base + 3,
            non_finite_time: base + 4,
            negative_time: base + 5,
            unknown_node: base + 6,
            unknown_relation: base + 7,
            endpoint_mismatch: base + 8,
            out_of_order: base + 9,
            duplicate: base + 10,
            samples: vec![(base as u64, fault)],
        };
        let mut total = part(0, EventFault::Duplicate);
        total.merge(part(100, EventFault::OutOfOrder));
        assert_eq!(
            total,
            QuarantineReport {
                admitted: 102,
                clamped: 104,
                quarantined: 106,
                non_finite_time: 108,
                negative_time: 110,
                unknown_node: 112,
                unknown_relation: 114,
                endpoint_mismatch: 116,
                out_of_order: 118,
                duplicate: 120,
                samples: vec![(0, EventFault::Duplicate), (100, EventFault::OutOfOrder)],
            }
        );
    }

    #[test]
    fn clean_stream_is_fully_admitted() {
        let (mut g, us, vs, r) = toy();
        let events: Vec<TemporalEdge> = (0..5)
            .map(|i| TemporalEdge::new(us[i % 3], vs[(i + 1) % 3], r, i as f64))
            .collect();
        let (admitted, report) = guard_stream(&mut g, &events, QuarantinePolicy::Strict).unwrap();
        assert_eq!(admitted, events);
        assert_eq!(report.admitted, 5);
        assert_eq!(report.total_faults(), 0);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn strict_aborts_with_position_and_fault() {
        let (mut g, us, vs, r) = toy();
        let events = vec![
            ok_edge(&us, &vs, r, 1.0),
            TemporalEdge::new(us[1], vs[1], r, f64::NAN),
        ];
        let err = guard_stream(&mut g, &events, QuarantinePolicy::Strict).unwrap_err();
        assert_eq!(err.position, 1);
        assert_eq!(err.fault, EventFault::NonFiniteTime);
        assert!(err.to_string().contains("position 1"));
    }

    #[test]
    fn skip_quarantines_each_fault_class() {
        let (mut g, us, vs, r) = toy();
        let events = vec![
            ok_edge(&us, &vs, r, 5.0),                           // admitted
            TemporalEdge::new(us[1], vs[1], r, f64::NAN),        // non-finite
            TemporalEdge::new(us[1], vs[1], r, -3.0),            // negative
            TemporalEdge::new(NodeId(99), vs[1], r, 6.0),        // unknown node
            TemporalEdge::new(us[1], vs[1], RelationId(9), 6.0), // unknown relation
            TemporalEdge::new(us[1], us[2], r, 6.0),             // endpoint mismatch
            TemporalEdge::new(us[1], vs[1], r, 2.0),             // out of order
            ok_edge(&us, &vs, r, 5.0),                           // duplicate
            TemporalEdge::new(us[2], vs[2], r, 7.0),             // admitted
        ];
        let (admitted, report) = guard_stream(&mut g, &events, QuarantinePolicy::Skip).unwrap();
        assert_eq!(admitted.len(), 2);
        assert_eq!(report.admitted, 2);
        assert_eq!(report.quarantined, 7);
        assert_eq!(report.clamped, 0);
        assert_eq!(report.non_finite_time, 1);
        assert_eq!(report.negative_time, 1);
        assert_eq!(report.unknown_node, 1);
        assert_eq!(report.unknown_relation, 1);
        assert_eq!(report.endpoint_mismatch, 1);
        assert_eq!(report.out_of_order, 1);
        assert_eq!(report.duplicate, 1);
        assert_eq!(report.samples.len(), 7);
        assert_eq!(report.samples[0], (1, EventFault::NonFiniteTime));
        assert_eq!(g.num_edges(), 2);
        assert!(report.summary().contains("2 admitted"));
    }

    #[test]
    fn clamp_repairs_time_faults_only() {
        let (mut g, us, vs, r) = toy();
        let events = vec![
            TemporalEdge::new(us[0], vs[0], r, -2.0), // negative → t = 0
            TemporalEdge::new(us[1], vs[1], r, 9.0),  // admitted
            TemporalEdge::new(us[2], vs[2], r, 4.0),  // out of order → t = 9
            TemporalEdge::new(us[0], vs[1], r, f64::NAN), // unfixable
        ];
        let (admitted, report) = guard_stream(&mut g, &events, QuarantinePolicy::Clamp).unwrap();
        assert_eq!(admitted.len(), 3);
        assert_eq!(admitted[0].time, 0.0);
        assert_eq!(admitted[2].time, 9.0);
        assert_eq!(report.clamped, 2);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.non_finite_time, 1);
        // Admitted stream is time-sorted, as InsLearn requires.
        assert!(admitted.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn clamp_that_creates_a_duplicate_is_quarantined() {
        let (mut g, us, vs, r) = toy();
        let events = vec![
            ok_edge(&us, &vs, r, 9.0),
            // Clamping this out-of-order event to t = 9 would duplicate the
            // first event exactly; it must be dropped, not admitted twice.
            ok_edge(&us, &vs, r, 3.0),
        ];
        let (admitted, report) = guard_stream(&mut g, &events, QuarantinePolicy::Clamp).unwrap();
        assert_eq!(admitted.len(), 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.duplicate, 1);
    }

    #[test]
    fn repeat_interactions_at_new_times_are_not_duplicates() {
        let (mut g, us, vs, r) = toy();
        let events = vec![
            ok_edge(&us, &vs, r, 1.0),
            ok_edge(&us, &vs, r, 2.0), // same pair, later time: legitimate
        ];
        let (admitted, report) = guard_stream(&mut g, &events, QuarantinePolicy::Strict).unwrap();
        assert_eq!(admitted.len(), 2);
        assert_eq!(report.duplicate, 0);
    }

    #[test]
    fn policy_parses_from_cli_strings() {
        assert_eq!(
            "strict".parse::<QuarantinePolicy>().unwrap(),
            QuarantinePolicy::Strict
        );
        assert_eq!(
            "skip".parse::<QuarantinePolicy>().unwrap(),
            QuarantinePolicy::Skip
        );
        assert_eq!(
            "clamp".parse::<QuarantinePolicy>().unwrap(),
            QuarantinePolicy::Clamp
        );
        assert!("yolo".parse::<QuarantinePolicy>().is_err());
    }

    #[test]
    fn sample_list_is_bounded() {
        let (mut g, us, vs, r) = toy();
        let events: Vec<TemporalEdge> = (0..50)
            .map(|_| TemporalEdge::new(us[0], vs[0], r, f64::NAN))
            .collect();
        let (_, report) = guard_stream(&mut g, &events, QuarantinePolicy::Skip).unwrap();
        assert_eq!(report.quarantined, 50);
        assert_eq!(report.samples.len(), SAMPLE_LIMIT);
    }
}

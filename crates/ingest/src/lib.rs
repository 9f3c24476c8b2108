//! # supa-ingest — bounded-memory streaming ingestion for event dumps
//!
//! `supa_datasets::load_tsv` materialises the whole dump — a `Vec` of every
//! edge plus the full graph — before one event reaches the engine. That is
//! fine for bench-scale synthetic data and hopeless for the paper's
//! production regime (Taobao/Kuaishou, 10⁸ interactions). This crate
//! replays a dump in **two passes with O(nodes + queue) resident memory**:
//!
//! 1. [`scan_tsv`] — one full streaming pass that validates every line,
//!    discovers the node universe (dense `node` lines, or arbitrary string
//!    ids through the bounded [`Interner`], or a schema-inference pre-pass
//!    for headerless dumps), and builds the *prototype* — the same
//!    `Dataset` that `load_tsv` returns, minus the edge vector.
//! 2. [`EventStream`] — a second pass that re-reads the file and yields
//!    `TemporalEdge`s one at a time, to be fed straight into the serving
//!    engine's bounded ingest queue. Backpressure comes from the engine's
//!    admission layer: when the queue is full the caller blocks or sheds
//!    per its `ShedPolicy`, so peak RSS never scales with the event count.
//!
//! The node universe must be known before the engine starts (snapshots,
//! ANN candidates, and the ingest guard are sized from it), which is why
//! the scan is a separate pass rather than interleaved discovery. The
//! price is reading the file twice; the payoff is that a dump larger than
//! RAM replays at full speed.
//!
//! **One grammar**: both passes parse every line through
//! `supa_datasets::loader`, as `load_tsv` does, so for the declared dialect
//! the prototype and the (stably time-sorted) edges are what `load_tsv`
//! produces and a malformed line fails with the same `LoadError`;
//! `tests/ingest_properties.rs` checks this over generated dumps.
//!
//! The crate is dependency-free (std + the workspace graph/dataset crates
//! only) so it can be reused by any front-end.

pub mod interner;
pub mod reader;

pub use interner::{Interner, InternerError, InternerStats};
pub use reader::LineReader;

use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};

use supa_datasets::loader::{declare_node, EdgeFields, Header, Line};
use supa_datasets::{Dataset, LoadError, LoadErrorKind};
use supa_graph::{Dmhg, GraphSchema, NodeId, NodeTypeId, TemporalEdge};

/// Knobs for [`scan_tsv`] / [`EventStream`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Sidecar schema file (`nodetype`/`relation`/`metapath` lines only)
    /// for dumps that carry no in-file schema.
    pub schema_path: Option<PathBuf>,
    /// Hard cap, in bytes, on the interner's resident memory
    /// (`--interner-budget`). Exceeding it is a named error, not growth.
    pub interner_budget: usize,
    /// How many data lines the schema-inference pre-pass examines on a
    /// headerless dump (`--scan-lines`).
    pub scan_lines: usize,
    /// Skip malformed lines (counting them) instead of failing on the
    /// first one. Io and interner-budget errors still abort.
    pub skip_malformed: bool,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            schema_path: None,
            interner_budget: 256 << 20,
            scan_lines: 10_000,
            skip_malformed: false,
        }
    }
}

/// How node identity was established for a dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Dense `node` lines, exactly `load_tsv`'s id space.
    Declared,
    /// String endpoints interned in first-appearance order against a
    /// declared (in-file or sidecar) schema.
    Interned,
    /// Like `Interned`, with the schema itself synthesized by the
    /// bounded-prefix inference pass.
    Inferred,
}

impl std::fmt::Display for IngestMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IngestMode::Declared => "declared",
            IngestMode::Interned => "interned",
            IngestMode::Inferred => "inferred",
        })
    }
}

/// Streaming counters; pass-1 totals in [`ScanReport::stats`], live pass-2
/// progress via [`EventStream::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestStats {
    /// Lines read, of any kind.
    pub lines: u64,
    /// Comment and blank lines.
    pub comments: u64,
    /// Schema lines (`nodetype`/`relation`/`metapath`).
    pub schema_lines: u64,
    /// `node` declaration lines.
    pub node_lines: u64,
    /// Edge events parsed.
    pub edges: u64,
    /// Lines skipped under [`IngestOptions::skip_malformed`].
    pub malformed: u64,
    /// Bytes consumed from the dump.
    pub bytes: u64,
    /// Edges whose timestamp went backwards (a non-zero count voids the
    /// bit-identity contract — `load_tsv` would have re-sorted them).
    pub out_of_order: u64,
    /// Interner counters (zero in [`IngestMode::Declared`]).
    pub interner: InternerStats,
}

/// A named ingestion failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IngestError {
    /// Reading the dump or sidecar failed.
    Io { line: usize, msg: String },
    /// A malformed line, in the shared `LoadError` vocabulary.
    Parse(LoadError),
    /// A line that is not valid UTF-8.
    NotUtf8 { line: usize },
    /// The bounded interner failed (budget overflow, spill io).
    Interner { line: usize, source: InternerError },
    /// A string id re-appeared under a relation slot of a different node
    /// type than the one its first appearance fixed.
    TypeConflict {
        line: usize,
        key: String,
        expected: String,
        got: String,
    },
    /// A `node` line after string-id edges (the two id spaces cannot mix).
    MixedIdSpaces { line: usize },
    /// In inferred mode, a relation first appeared after the inference
    /// prefix, so its endpoint types were never discovered.
    RelationPastPrefix {
        line: usize,
        relation: String,
        scan_lines: usize,
    },
    /// The dump declares schema lines although a sidecar schema was given.
    SchemaInDumpAndSidecar { line: usize },
    /// The sidecar schema file contains non-schema lines.
    SidecarData { line: usize },
    /// Pass 2 saw content pass 1 did not (the file changed between the
    /// scan and the replay).
    ChangedBetweenPasses { line: usize },
}

impl IngestError {
    /// Lenient mode ([`IngestOptions::skip_malformed`]) skips these;
    /// everything else always aborts.
    pub fn recoverable(&self) -> bool {
        matches!(
            self,
            IngestError::Parse(_) | IngestError::NotUtf8 { .. } | IngestError::TypeConflict { .. }
        )
    }

    /// The 1-based dump line the error points at (0 if none).
    pub fn line(&self) -> usize {
        match self {
            IngestError::Io { line, .. }
            | IngestError::NotUtf8 { line }
            | IngestError::Interner { line, .. }
            | IngestError::TypeConflict { line, .. }
            | IngestError::MixedIdSpaces { line }
            | IngestError::RelationPastPrefix { line, .. }
            | IngestError::SchemaInDumpAndSidecar { line }
            | IngestError::SidecarData { line }
            | IngestError::ChangedBetweenPasses { line } => *line,
            IngestError::Parse(e) => e.line,
        }
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io { line: 0, msg } => write!(f, "io error: {msg}"),
            IngestError::Io { line, msg } => write!(f, "line {line}: io error: {msg}"),
            IngestError::Parse(e) => write!(f, "{e}"),
            IngestError::NotUtf8 { line } => write!(f, "line {line}: not valid utf-8"),
            IngestError::Interner { line, source } => write!(f, "line {line}: {source}"),
            IngestError::TypeConflict {
                line,
                key,
                expected,
                got,
            } => write!(
                f,
                "line {line}: node id '{key}' first appeared as type {expected} \
                 but is used here as type {got}"
            ),
            IngestError::MixedIdSpaces { line } => write!(
                f,
                "line {line}: node declaration after string-id edges \
                 (dense and interned id spaces cannot mix)"
            ),
            IngestError::RelationPastPrefix {
                line,
                relation,
                scan_lines,
            } => write!(
                f,
                "line {line}: relation '{relation}' first appears beyond the \
                 {scan_lines}-line inference prefix; raise --scan-lines or \
                 provide a schema"
            ),
            IngestError::SchemaInDumpAndSidecar { line } => write!(
                f,
                "line {line}: dump declares schema lines but a sidecar \
                 --schema file was given"
            ),
            IngestError::SidecarData { line } => write!(
                f,
                "schema file line {line}: only nodetype/relation/metapath \
                 lines are allowed in a sidecar schema"
            ),
            IngestError::ChangedBetweenPasses { line } => {
                write!(f, "line {line}: dump changed between scan and replay")
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl From<LoadError> for IngestError {
    fn from(e: LoadError) -> Self {
        IngestError::Parse(e)
    }
}

fn open(path: &Path) -> Result<LineReader<File>, IngestError> {
    File::open(path)
        .map(LineReader::new)
        .map_err(|e| IngestError::Io {
            line: 0,
            msg: format!("{}: {e}", path.display()),
        })
}

fn io_at<T>(r: std::io::Result<T>, line: usize) -> Result<T, IngestError> {
    r.map_err(|e| IngestError::Io {
        line,
        msg: e.to_string(),
    })
}

fn utf8(line: &[u8], lineno: usize) -> Result<&str, IngestError> {
    std::str::from_utf8(line).map_err(|_| IngestError::NotUtf8 { line: lineno })
}

/// The fields of a line that is neither blank, schema nor node: a bare
/// `SRC DST REL TIME` edge in the string-id modes, an unknown directive in
/// the declared dialect.
fn bare_edge(text: &str, mode: IngestMode, lineno: usize) -> Result<EdgeFields<'_>, LoadError> {
    if mode == IngestMode::Declared {
        let kind = LoadErrorKind::UnknownDirective(text.to_string());
        return Err(LoadError::at(lineno, kind));
    }
    EdgeFields::split(text.split_whitespace(), lineno)
}

/// Parses a sidecar schema file (`nodetype`/`relation`/`metapath` lines
/// and comments only).
fn load_sidecar(path: &Path) -> Result<Header, IngestError> {
    let mut rdr = open(path)?;
    let mut header = Header::default();
    while io_at(rdr.read_line(), rdr.lineno() + 1)? {
        let lineno = rdr.lineno();
        match Line::parse(utf8(rdr.line(), lineno)?, lineno) {
            Ok(Line::Blank) => {}
            Ok(Line::Schema(d, parts)) => header.apply(d, parts, lineno, false)?,
            _ => return Err(IngestError::SidecarData { line: lineno }),
        }
    }
    Ok(header)
}

/// Whether the dump's first non-comment line is an edge (or not UTF-8,
/// which the main scan then reports), so the inference pre-pass must run.
fn headerless(path: &Path) -> Result<bool, IngestError> {
    let mut rdr = open(path)?;
    while io_at(rdr.read_line(), rdr.lineno() + 1)? {
        let line = std::str::from_utf8(rdr.line()).map(|text| Line::parse(text, rdr.lineno()));
        match line {
            Ok(Ok(Line::Blank)) => {}
            Ok(Ok(Line::Schema(..) | Line::Node(_))) => return Ok(false),
            _ => return Ok(true),
        }
    }
    Ok(false)
}

/// Union-find over `(relation, side)` slots for schema inference.
struct SlotUnion {
    parent: Vec<usize>,
}

impl SlotUnion {
    fn new() -> Self {
        SlotUnion { parent: Vec::new() }
    }

    fn add(&mut self) -> usize {
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: the smaller (earlier-created) root wins, so
            // synthesized type numbering follows first appearance.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Schema-inference pre-pass for headerless dumps: scan a bounded prefix,
/// treat each `(relation, src/dst position)` as a typed slot, and merge
/// slots that share an id string. Each surviving slot class becomes a
/// synthesized node type `T0, T1, …` (numbered by first appearance).
fn infer_schema(path: &Path, opts: &IngestOptions) -> Result<GraphSchema, IngestError> {
    let mut rdr = open(path)?;
    let mut slots = SlotUnion::new();
    // relation name → (first lineno order index, src slot, dst slot)
    let mut rels: Vec<(String, usize, usize)> = Vec::new();
    let mut rel_index: HashMap<String, usize> = HashMap::new();
    // id string → the slot of its first appearance
    let mut id_slot: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut data_lines = 0usize;
    while data_lines < opts.scan_lines && io_at(rdr.read_line(), rdr.lineno() + 1)? {
        let lineno = rdr.lineno();
        let text = match utf8(rdr.line(), lineno) {
            Ok(t) => t,
            Err(_) if opts.skip_malformed => continue,
            Err(e) => return Err(e),
        };
        let line = Line::parse(text, lineno);
        if matches!(line, Ok(Line::Blank)) {
            continue;
        }
        data_lines += 1;
        let parsed = match line {
            Ok(Line::Edge(fields)) => Ok(fields),
            Ok(Line::Other(text)) => EdgeFields::split(text.split_whitespace(), lineno),
            // Schema and node lines after an edge are the main scan's errors.
            Ok(_) => continue,
            Err(e) => Err(e),
        };
        let fields = match parsed {
            Ok(f) => f,
            Err(_) if opts.skip_malformed => continue,
            Err(e) => return Err(e.into()),
        };
        let ri = match rel_index.get(fields.rel) {
            Some(&i) => i,
            None => {
                let src_slot = slots.add();
                let dst_slot = slots.add();
                rels.push((fields.rel.to_string(), src_slot, dst_slot));
                rel_index.insert(fields.rel.to_string(), rels.len() - 1);
                rels.len() - 1
            }
        };
        let (src_slot, dst_slot) = (rels[ri].1, rels[ri].2);
        for (key, slot) in [(fields.src, src_slot), (fields.dst, dst_slot)] {
            match id_slot.get(key.as_bytes()) {
                Some(&prev) => slots.union(prev, slot),
                None => {
                    id_slot.insert(key.as_bytes().to_vec(), slot);
                }
            }
        }
    }
    // Synthesize types for slot classes in first-appearance order.
    let mut schema = GraphSchema::new();
    let mut type_of_root: HashMap<usize, NodeTypeId> = HashMap::new();
    let mut resolve = |slots: &mut SlotUnion, schema: &mut GraphSchema, slot: usize| {
        let root = slots.find(slot);
        *type_of_root
            .entry(root)
            .or_insert_with(|| schema.add_node_type(format!("T{}", schema.num_node_types())))
    };
    for (name, src_slot, dst_slot) in &rels {
        let src = resolve(&mut slots, &mut schema, *src_slot);
        let dst = resolve(&mut slots, &mut schema, *dst_slot);
        schema.add_relation(name, src, dst);
    }
    Ok(schema)
}

impl std::fmt::Debug for ScanReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanReport")
            .field("dataset", &self.dataset.name)
            .field("mode", &self.mode)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// The result of pass 1: the prototype dataset (no edges), counters, and
/// the frozen state pass 2 needs to translate endpoints.
pub struct ScanReport {
    /// Prototype + metapaths, `edges` empty — feed this to
    /// `Supa::from_dataset` and the engine exactly like a materialised
    /// dataset.
    pub dataset: Dataset,
    /// How node identity was established.
    pub mode: IngestMode,
    /// Pass-1 totals.
    pub stats: IngestStats,
    path: PathBuf,
    options: IngestOptions,
    interner: Option<Interner>,
}

impl ScanReport {
    /// Opens pass 2: consumes the report, returning the prototype dataset
    /// and the edge stream separately so the caller can hand the dataset
    /// to the engine while iterating the stream.
    pub fn into_stream(self) -> Result<(Dataset, EventStream), IngestError> {
        let reader = open(&self.path)?;
        let stream = EventStream {
            reader,
            schema: self.dataset.prototype.schema().clone(),
            num_nodes: self.dataset.prototype.num_nodes(),
            mode: self.mode,
            interner: self.interner,
            skip_malformed: self.options.skip_malformed,
            scan_stats: self.stats,
            stats: IngestStats::default(),
            prev_time: f64::NEG_INFINITY,
            fused: false,
        };
        Ok((self.dataset, stream))
    }
}

/// Pass 1: stream the dump once, validating every line and building the
/// prototype with bounded memory. See the crate docs for the three node
/// identity modes.
pub fn scan_tsv(path: &Path, opts: &IngestOptions) -> Result<ScanReport, IngestError> {
    let sidecar = opts.schema_path.is_some();
    let mut header = match &opts.schema_path {
        Some(p) => load_sidecar(p)?,
        None => Header::default(),
    };
    let mut mode = IngestMode::Interned;
    if !sidecar && headerless(path)? {
        header.schema = infer_schema(path, opts)?;
        mode = IngestMode::Inferred;
    }
    let inferred = mode == IngestMode::Inferred;

    let mut rdr = open(path)?;
    let mut stats = IngestStats::default();
    let mut proto: Option<Dmhg> = None;
    let mut interner: Option<Interner> = None;
    let mut prev_time = f64::NEG_INFINITY;

    macro_rules! lenient {
        ($result:expr) => {
            match $result {
                Ok(v) => v,
                Err(e) => {
                    let e: IngestError = e.into();
                    if opts.skip_malformed && e.recoverable() {
                        stats.malformed += 1;
                        continue;
                    }
                    return Err(e);
                }
            }
        };
    }

    while io_at(rdr.read_line(), rdr.lineno() + 1)? {
        let lineno = rdr.lineno();
        stats.lines += 1;
        stats.bytes = rdr.bytes();
        let text = lenient!(utf8(rdr.line(), lineno));
        let fields = match lenient!(Line::parse(text, lineno)) {
            Line::Blank => {
                stats.comments += 1;
                continue;
            }
            Line::Schema(directive, parts) => {
                if sidecar {
                    return Err(IngestError::SchemaInDumpAndSidecar { line: lineno });
                }
                let after_data = inferred || proto.is_some() || interner.is_some();
                lenient!(header.apply(directive, parts, lineno, after_data));
                stats.schema_lines += 1;
                continue;
            }
            Line::Node(parts) => {
                stats.node_lines += 1;
                if interner.is_some() {
                    return Err(IngestError::MixedIdSpaces { line: lineno });
                }
                let g = proto.get_or_insert_with(|| Dmhg::new(header.schema.clone()));
                lenient!(declare_node(g, parts, lineno));
                mode = IngestMode::Declared;
                continue;
            }
            Line::Edge(fields) => fields,
            Line::Other(text) => lenient!(bare_edge(text, mode, lineno)),
        };
        let t = if mode == IngestMode::Declared {
            let g = proto.as_ref().expect("declared mode implies nodes");
            lenient!(fields.resolve_in(g, lineno)).time
        } else if header.schema.num_relations() == 0 && !inferred {
            // No schema at all: load_tsv's error for an edge with nothing
            // declared.
            lenient!(Err(LoadError::at(lineno, LoadErrorKind::EdgeBeforeNodes)))
        } else {
            let g = proto.get_or_insert_with(|| Dmhg::new(header.schema.clone()));
            let it = interner.get_or_insert_with(|| Interner::new(opts.interner_budget));
            lenient!(intern_edge(
                g,
                it,
                &fields,
                lineno,
                inferred.then_some(opts.scan_lines)
            ));
            lenient!(fields.time(lineno))
        };
        if t < prev_time {
            stats.out_of_order += 1;
        }
        prev_time = t;
        stats.edges += 1;
    }
    stats.bytes = rdr.bytes();
    if let Some(it) = &interner {
        stats.interner = it.stats();
    }

    let (prototype, metapaths) = header.finish(proto)?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("stream")
        .to_string();
    Ok(ScanReport {
        dataset: Dataset {
            name,
            prototype,
            edges: Vec::new(),
            metapaths,
        },
        mode,
        stats,
        path: path.to_path_buf(),
        options: opts.clone(),
        interner,
    })
}

/// Interns a string-id edge's endpoints, registering fresh nodes in the
/// prototype (dense, first-appearance order) and checking type
/// consistency for repeats.
/// `inferred_from` is the inference prefix length when the schema was
/// inferred, which names an unknown relation's error.
fn intern_edge(
    g: &mut Dmhg,
    it: &mut Interner,
    fields: &EdgeFields,
    lineno: usize,
    inferred_from: Option<usize>,
) -> Result<(), IngestError> {
    let rel = fields
        .relation(g.schema(), lineno)
        .map_err(|e| match inferred_from {
            Some(scan_lines) => IngestError::RelationPastPrefix {
                line: lineno,
                relation: fields.rel.to_string(),
                scan_lines,
            },
            None => e.into(),
        })?;
    let spec = g.schema().relation(rel).expect("relation just resolved");
    for (key, want_ty) in [(fields.src, spec.src_type), (fields.dst, spec.dst_type)] {
        let (id, fresh) = it
            .intern(key.as_bytes())
            .map_err(|source| IngestError::Interner {
                line: lineno,
                source,
            })?;
        if fresh {
            let assigned = g
                .try_add_node(want_ty)
                .map_err(|e| LoadError::at(lineno, LoadErrorKind::Graph(e.to_string())))?;
            debug_assert_eq!(assigned, NodeId(id), "interner and prototype desynced");
        } else if g.node_type(NodeId(id)) != want_ty {
            let name = |t| {
                g.schema()
                    .node_type_name(t)
                    .unwrap_or("<unknown>")
                    .to_string()
            };
            return Err(IngestError::TypeConflict {
                line: lineno,
                key: key.to_string(),
                expected: name(g.node_type(NodeId(id))),
                got: name(want_ty),
            });
        }
    }
    Ok(())
}

/// Pass 2: re-reads the dump and yields edges in file order, translating
/// endpoints through the frozen pass-1 state. Feed each edge to
/// `ServeHandle::ingest` — the engine's bounded queue and admission layer
/// provide the backpressure.
pub struct EventStream {
    reader: LineReader<File>,
    schema: GraphSchema,
    num_nodes: usize,
    mode: IngestMode,
    interner: Option<Interner>,
    skip_malformed: bool,
    /// Pass-1 totals (interner facts, node lines, …).
    scan_stats: IngestStats,
    /// Live pass-2 counters.
    stats: IngestStats,
    prev_time: f64,
    fused: bool,
}

impl EventStream {
    /// Live counters: pass-2 line/byte/edge progress merged with the
    /// pass-1 interner facts.
    pub fn stats(&self) -> IngestStats {
        let mut s = self.stats;
        s.node_lines = self.scan_stats.node_lines;
        s.schema_lines = self.scan_stats.schema_lines;
        s.interner = match &self.interner {
            Some(it) => it.stats(),
            None => self.scan_stats.interner,
        };
        s
    }

    /// How node identity was established in pass 1.
    pub fn mode(&self) -> IngestMode {
        self.mode
    }

    fn next_inner(&mut self) -> Option<Result<TemporalEdge, IngestError>> {
        loop {
            match self.reader.read_line() {
                Ok(false) => return None,
                Ok(true) => {}
                Err(e) => {
                    return Some(Err(IngestError::Io {
                        line: self.reader.lineno() + 1,
                        msg: e.to_string(),
                    }))
                }
            }
            let lineno = self.reader.lineno();
            self.stats.lines += 1;
            self.stats.bytes = self.reader.bytes();
            match self.classify(lineno) {
                Ok(Some(edge)) => {
                    self.stats.edges += 1;
                    if edge.time < self.prev_time {
                        self.stats.out_of_order += 1;
                    }
                    self.prev_time = edge.time;
                    return Some(Ok(edge));
                }
                Ok(None) => {}
                Err(e) => {
                    if self.skip_malformed && e.recoverable() {
                        self.stats.malformed += 1;
                        continue;
                    }
                    return Some(Err(e));
                }
            }
        }
    }

    /// Parses the current line; `Ok(None)` for non-edge lines.
    fn classify(&mut self, lineno: usize) -> Result<Option<TemporalEdge>, IngestError> {
        // Borrow the line bytes once; everything below works on `text`.
        let text = utf8(self.reader.line(), lineno)?;
        let fields = match Line::parse(text, lineno)? {
            Line::Blank => {
                self.stats.comments += 1;
                return Ok(None);
            }
            // Pass 1 already validated schema and node lines; skip them.
            Line::Schema(..) | Line::Node(_) => return Ok(None),
            Line::Edge(fields) => fields,
            Line::Other(text) => bare_edge(text, self.mode, lineno)?,
        };
        let Some(it) = &mut self.interner else {
            let edge = fields.resolve(&self.schema, self.num_nodes, lineno)?;
            return Ok(Some(edge));
        };
        let rel = fields.relation(&self.schema, lineno)?;
        let mut translate = |key: &str| -> Result<u32, IngestError> {
            let (id, fresh) =
                it.intern(key.as_bytes())
                    .map_err(|source| IngestError::Interner {
                        line: lineno,
                        source,
                    })?;
            if fresh || id as usize >= self.num_nodes {
                return Err(IngestError::ChangedBetweenPasses { line: lineno });
            }
            Ok(id)
        };
        let (src, dst) = (translate(fields.src)?, translate(fields.dst)?);
        let t = fields.time(lineno)?;
        Ok(Some(TemporalEdge::new(NodeId(src), NodeId(dst), rel, t)))
    }
}

impl Iterator for EventStream {
    type Item = Result<TemporalEdge, IngestError>;

    /// Yields the next edge; after the first error the stream is fused.
    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        let item = self.next_inner();
        if matches!(item, Some(Err(_))) {
            self.fused = true;
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_dump(content: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "supa-ingest-test-{}-{:x}.tsv",
            std::process::id(),
            interner::fnv1a(content.as_bytes())
        ));
        let mut f = File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        path
    }

    fn collect(path: &Path, opts: &IngestOptions) -> (Dataset, Vec<TemporalEdge>, IngestStats) {
        let report = scan_tsv(path, opts).unwrap();
        let (dataset, mut stream) = report.into_stream().unwrap();
        let mut edges = Vec::new();
        for e in &mut stream {
            edges.push(e.unwrap());
        }
        let stats = stream.stats();
        (dataset, edges, stats)
    }

    const DECLARED: &str = "\
# demo
nodetype User
nodetype Item
relation Click User Item
metapath User Click Item Click User
node 0 User
node 1 Item
node 2 Item
edge 0 1 Click 1.0
edge 0 2 Click 2.0
";

    #[test]
    fn declared_dump_matches_load_tsv_exactly() {
        let path = write_dump(DECLARED);
        let want =
            supa_datasets::load_tsv("d", std::io::BufReader::new(File::open(&path).unwrap()))
                .unwrap();
        let (got, edges, stats) = collect(&path, &IngestOptions::default());
        assert_eq!(got.prototype.schema(), want.prototype.schema());
        assert_eq!(got.num_nodes(), want.num_nodes());
        for id in 0..got.num_nodes() as u32 {
            assert_eq!(
                got.prototype.node_type(NodeId(id)),
                want.prototype.node_type(NodeId(id))
            );
        }
        assert_eq!(got.metapaths, want.metapaths);
        assert_eq!(edges, want.edges);
        assert_eq!(stats.edges, 2);
        assert_eq!(stats.out_of_order, 0);
        assert_eq!(stats.interner.interned, 0);
        let report = scan_tsv(&path, &IngestOptions::default()).unwrap();
        assert_eq!(report.mode, IngestMode::Declared);
        assert!(report.dataset.edges.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn late_metapath_lines_load_through_both_entry_points() {
        // A metapath line may follow nodes and edges; a relation line may not.
        let dump = "nodetype U\nnodetype I\nrelation C U I\nnode 0 U\nmetapath U C I\n\
                    node 1 I\nedge 0 1 C 1.0\nmetapath I C U C I\n";
        let late = format!("{dump}relation B U I\n");
        let (good, bad) = (write_dump(dump), write_dump(&late));
        let want = supa_datasets::load_tsv("d", dump.as_bytes()).unwrap();
        let (got, edges, _) = collect(&good, &IngestOptions::default());
        assert_eq!((got.metapaths.len(), &got.metapaths), (2, &want.metapaths));
        assert_eq!(edges, want.edges);
        let want = supa_datasets::load_tsv("d", late.as_bytes()).unwrap_err();
        assert_eq!(want, LoadError::at(9, LoadErrorKind::SchemaAfterNodes));
        let got = scan_tsv(&bad, &IngestOptions::default()).unwrap_err();
        assert_eq!(got, IngestError::Parse(want));
        for p in [good, bad] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn interned_dump_with_in_file_schema() {
        let dump = "\
nodetype User
nodetype Item
relation Click User Item
edge alice item-9 Click 1.0
edge bob item-9 Click 2.0
edge alice item-3 Click 3.0
";
        let path = write_dump(dump);
        let report = scan_tsv(&path, &IngestOptions::default()).unwrap();
        assert_eq!(report.mode, IngestMode::Interned);
        assert_eq!(report.stats.interner.interned, 4); // alice, item-9, bob, item-3
        let (dataset, stream) = report.into_stream().unwrap();
        assert_eq!(dataset.num_nodes(), 4);
        let schema = dataset.prototype.schema();
        let user = schema.node_type_by_name("User").unwrap();
        let item = schema.node_type_by_name("Item").unwrap();
        // First-appearance order: alice=0(User), item-9=1(Item), bob=2, item-3=3.
        assert_eq!(dataset.prototype.node_type(NodeId(0)), user);
        assert_eq!(dataset.prototype.node_type(NodeId(1)), item);
        assert_eq!(dataset.prototype.node_type(NodeId(2)), user);
        assert_eq!(dataset.prototype.node_type(NodeId(3)), item);
        let edges: Vec<_> = stream.map(|e| e.unwrap()).collect();
        assert_eq!(edges.len(), 3);
        assert_eq!((edges[0].src, edges[0].dst), (NodeId(0), NodeId(1)));
        assert_eq!((edges[1].src, edges[1].dst), (NodeId(2), NodeId(1)));
        assert_eq!((edges[2].src, edges[2].dst), (NodeId(0), NodeId(3)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn headerless_dump_infers_schema() {
        let dump = "\
# raw production dump: user item behaviour ts
u1 i1 Click 1.0
u2 i1 Click 2.0
u1 i1 Buy 3.0
u2 u1 Follow 4.0
";
        let path = write_dump(dump);
        let report = scan_tsv(&path, &IngestOptions::default()).unwrap();
        assert_eq!(report.mode, IngestMode::Inferred);
        let schema = report.dataset.prototype.schema();
        // Users and items form two slot classes (u* appear as Follow dst,
        // merging Follow's dst slot with the user slot).
        assert_eq!(schema.num_node_types(), 2);
        assert_eq!(schema.num_relations(), 3);
        let click = schema.relation_by_name("Click").unwrap();
        let follow = schema.relation_by_name("Follow").unwrap();
        let click_spec = schema.relation(click).unwrap();
        let follow_spec = schema.relation(follow).unwrap();
        assert_eq!(follow_spec.src_type, click_spec.src_type);
        assert_eq!(follow_spec.dst_type, click_spec.src_type);
        let (_, edges, stats) = collect(&path, &IngestOptions::default());
        assert_eq!(edges.len(), 4);
        assert_eq!(stats.edges, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn relation_past_prefix_is_named() {
        let dump = "\
u1 i1 Click 1.0
u2 i1 Click 2.0
u1 i2 Surprise 3.0
";
        let path = write_dump(dump);
        let err = scan_tsv(
            &path,
            &IngestOptions {
                scan_lines: 2,
                ..IngestOptions::default()
            },
        )
        .unwrap_err();
        match &err {
            IngestError::RelationPastPrefix { relation, .. } => {
                assert_eq!(relation, "Surprise");
            }
            other => panic!("expected RelationPastPrefix, got {other:?}"),
        }
        assert!(err.to_string().contains("inference prefix"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn type_conflict_is_named() {
        let dump = "\
nodetype User
nodetype Item
relation Click User Item
relation Stock Item Item
edge alice item-1 Click 1.0
edge alice item-1 Stock 2.0
";
        let path = write_dump(dump);
        let err = scan_tsv(&path, &IngestOptions::default()).unwrap_err();
        match &err {
            IngestError::TypeConflict { key, .. } => assert_eq!(key, "alice"),
            other => panic!("expected TypeConflict, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mixed_id_spaces_rejected() {
        let dump = "\
nodetype User
relation R User User
edge a b R 1.0
node 0 User
";
        let path = write_dump(dump);
        let err = scan_tsv(&path, &IngestOptions::default()).unwrap_err();
        assert!(
            matches!(err, IngestError::MixedIdSpaces { line: 4 }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sidecar_schema_drives_a_bare_dump() {
        let schema = "\
nodetype User
nodetype Item
relation Click User Item
";
        let spath = write_dump(schema);
        let dump = "\
edge u1 i1 Click 1.0
u2 i1 Click 2.0
";
        let dpath = write_dump(dump);
        let opts = IngestOptions {
            schema_path: Some(spath.clone()),
            ..IngestOptions::default()
        };
        let report = scan_tsv(&dpath, &opts).unwrap();
        assert_eq!(report.mode, IngestMode::Interned);
        assert_eq!(report.dataset.num_nodes(), 3);
        // A dump that declares schema on top of a sidecar is rejected.
        let headed = write_dump("nodetype X\nedge a b Click 1.0\n");
        let err = scan_tsv(&headed, &opts).unwrap_err();
        assert!(
            matches!(err, IngestError::SchemaInDumpAndSidecar { .. }),
            "{err:?}"
        );
        // A sidecar with data lines is rejected.
        let bad_sidecar = write_dump("nodetype U\nedge 0 1 R 1.0\n");
        let err = scan_tsv(
            &dpath,
            &IngestOptions {
                schema_path: Some(bad_sidecar.clone()),
                ..IngestOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, IngestError::SidecarData { line: 2 }),
            "{err:?}"
        );
        for p in [spath, dpath, headed, bad_sidecar] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn strict_mode_fails_and_lenient_mode_counts() {
        let dump = "\
nodetype User
relation R User User
node 0 User
node 1 User
edge 0 1 R 1.0
edge 0 1 R nan
edge 0 99 R 2.0
edge 0 1 R 3.0
";
        let path = write_dump(dump);
        let err = scan_tsv(&path, &IngestOptions::default()).unwrap_err();
        assert_eq!(err.line(), 6);
        let opts = IngestOptions {
            skip_malformed: true,
            ..IngestOptions::default()
        };
        let report = scan_tsv(&path, &opts).unwrap();
        assert_eq!(report.stats.malformed, 2);
        assert_eq!(report.stats.edges, 2);
        let (_, stream) = report.into_stream().unwrap();
        let mut stream = stream;
        let edges: Vec<_> = (&mut stream).map(|e| e.unwrap()).collect();
        assert_eq!(edges.len(), 2);
        assert_eq!(stream.stats().malformed, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_edges_are_counted_not_hidden() {
        let dump = "\
nodetype U
relation R U U
node 0 U
node 1 U
edge 0 1 R 5.0
edge 1 0 R 2.0
";
        let path = write_dump(dump);
        let report = scan_tsv(&path, &IngestOptions::default()).unwrap();
        assert_eq!(report.stats.out_of_order, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_garbage_rejected_in_stream_parser_too() {
        let dump = "\
nodetype U
relation R U U
node 0 U
node 1 U
edge 0 1 R 1.0 extra
";
        let path = write_dump(dump);
        let err = scan_tsv(&path, &IngestOptions::default()).unwrap_err();
        match err {
            IngestError::Parse(e) => {
                assert_eq!(e.line, 5);
                assert!(matches!(
                    e.kind,
                    LoadErrorKind::TrailingFields {
                        directive: "edge",
                        ..
                    }
                ));
            }
            other => panic!("expected Parse(TrailingFields), got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_overflow_surfaces_as_named_interner_error() {
        let mut dump = String::from("nodetype U\nrelation R U U\n");
        for i in 0..500 {
            dump.push_str(&format!("edge user-{i} item-{i} R {}.0\n", i + 1));
        }
        let path = write_dump(&dump);
        let err = scan_tsv(
            &path,
            &IngestOptions {
                interner_budget: 512,
                ..IngestOptions::default()
            },
        )
        .unwrap_err();
        match &err {
            IngestError::Interner {
                source: InternerError::BudgetExceeded { budget, .. },
                ..
            } => assert_eq!(*budget, 512),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_is_fused_after_error() {
        let dump = "\
nodetype U
relation R U U
node 0 U
edge 0 0 R 1.0
garbage line here
edge 0 0 R 2.0
";
        let path = write_dump(dump);
        // Lenient scan so pass 1 succeeds; strict stream so pass 2 errors.
        let report = scan_tsv(
            &path,
            &IngestOptions {
                skip_malformed: true,
                ..IngestOptions::default()
            },
        )
        .unwrap();
        let (_, mut stream) = report.into_stream().unwrap();
        stream.skip_malformed = false;
        assert!(stream.next().unwrap().is_ok());
        assert!(stream.next().unwrap().is_err());
        assert!(stream.next().is_none(), "stream must fuse after an error");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_schema_only_dumps_scan_cleanly() {
        let path = write_dump("# nothing but comments\n\n");
        let report = scan_tsv(&path, &IngestOptions::default()).unwrap();
        assert_eq!(report.dataset.num_nodes(), 0);
        assert_eq!(report.stats.edges, 0);
        let (_, stream) = report.into_stream().unwrap();
        assert_eq!(stream.count(), 0);
        std::fs::remove_file(&path).ok();
    }
}

//! TSV interchange for users who have the real datasets.
//!
//! The format is self-describing (tab- or space-separated, `#` comments):
//!
//! ```text
//! nodetype User
//! nodetype Video
//! relation Click User Video
//! metapath User Click Video Click User
//! node 0 User
//! node 1 Video
//! edge 0 1 Click 1633024800
//! ```
//!
//! `nodetype`/`relation` lines declare the schema and must precede the nodes;
//! `metapath` lines (optional, anywhere) declare multiplex metapath schemas
//! as an alternating `type rel[,rel…] type …` sequence; `node` lines must
//! precede the edges that reference them and use dense, in-order ids.
//!
//! This module owns the grammar: [`Line::parse`] recognises a line,
//! [`Header::apply`] takes the schema lines, [`declare_node`] the `node`
//! lines and [`EdgeFields`] the edges. [`load_tsv`] and `supa-ingest`'s
//! scan and replay all parse through them, so a dump that loads here
//! streams to the same prototype and edges, and a malformed one fails the
//! same way there.
//!
//! Malformed input surfaces as a [`LoadError`]: the 1-based line number plus
//! a matchable [`LoadErrorKind`], so CLI exit paths and tests can match on
//! the kind instead of grepping strings.

use std::io::{BufRead, Write};
use std::str::SplitWhitespace;

use supa_graph::{
    Dmhg, GraphSchema, MetapathSchema, NodeId, RelationId, RelationSet, TemporalEdge,
};

use crate::dataset::Dataset;

/// A TSV parse failure: where (1-based line number) and what.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadError {
    /// 1-based line number of the offending line (0 when not line-specific).
    pub line: usize,
    /// What went wrong, matchable in tests and CLI exit paths.
    pub kind: LoadErrorKind,
}

impl LoadError {
    /// Builds an error pinned to a 1-based line number.
    pub fn at(line: usize, kind: LoadErrorKind) -> Self {
        LoadError { line, kind }
    }
}

/// The matchable failure classes of the TSV parsers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LoadErrorKind {
    /// The underlying reader failed.
    Io(String),
    /// A line that starts with none of the known directives.
    UnknownDirective(String),
    /// A `nodetype`/`relation` line after the first `node` line.
    SchemaAfterNodes,
    /// A directive line ended before a required field.
    MissingField(&'static str),
    /// A `nodetype`/`relation`/`metapath` declared twice.
    Duplicate(&'static str),
    /// A name that was never declared (`what` is "node type", "src type",
    /// "dst type", or "relation").
    UnknownName { what: &'static str, name: String },
    /// A field that failed to parse (`what` is "node id", "src", "dst", or
    /// "timestamp").
    BadField { what: &'static str, token: String },
    /// A `node` line whose id is not the next dense id.
    NonDenseNodeId { expected: u32, got: u32 },
    /// An `edge` line before any `node` line.
    EdgeBeforeNodes,
    /// An `edge` endpoint beyond the declared node universe.
    UndeclaredEndpoint { node: u32, num_nodes: usize },
    /// Extra tokens after a directive's declared fields — trailing garbage
    /// is rejected by name, never silently dropped.
    TrailingFields {
        directive: &'static str,
        extra: String,
    },
    /// A graph-level rejection (endpoint type mismatch, invalid timestamp,
    /// node capacity), carried as the `GraphError` text.
    Graph(String),
    /// A `metapath` line that is not an alternating `type rel type …` list.
    MetapathShape,
    /// An undeclared name inside a `metapath` line.
    UnknownMetapathName { what: &'static str, name: String },
    /// A structurally invalid metapath schema (arity, endpoint types).
    Metapath(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: ", self.line)?;
        }
        match &self.kind {
            LoadErrorKind::Io(e) => write!(f, "io error: {e}"),
            LoadErrorKind::UnknownDirective(line) => {
                write!(f, "expected nodetype/relation/metapath/node/edge: {line}")
            }
            LoadErrorKind::SchemaAfterNodes => write!(f, "schema lines must precede nodes"),
            LoadErrorKind::MissingField(what) => write!(f, "missing {what}"),
            LoadErrorKind::Duplicate(what) => write!(f, "duplicate {what}"),
            LoadErrorKind::UnknownName { what, name } => write!(f, "unknown {what} '{name}'"),
            LoadErrorKind::BadField { what, token } => write!(f, "bad {what} '{token}'"),
            LoadErrorKind::NonDenseNodeId { expected, got } => write!(
                f,
                "node ids must be dense and in order (expected {expected}, got {got})"
            ),
            LoadErrorKind::EdgeBeforeNodes => write!(f, "edge before any node"),
            LoadErrorKind::UndeclaredEndpoint { node, num_nodes } => write!(
                f,
                "edge references undeclared node {node} ({num_nodes} nodes declared)"
            ),
            LoadErrorKind::TrailingFields { directive, extra } => {
                write!(f, "trailing fields after {directive} line: '{extra}'")
            }
            LoadErrorKind::Graph(msg) => write!(f, "{msg}"),
            LoadErrorKind::MetapathShape => {
                write!(f, "metapath needs alternating type rel type …")
            }
            LoadErrorKind::UnknownMetapathName { what, name } => {
                write!(f, "unknown {what} in metapath '{name}'")
            }
            LoadErrorKind::Metapath(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// One line of the dialect: its directive recognised and, for an `edge`
/// line, its fields split.
pub enum Line<'a> {
    /// A blank line or a `#` comment.
    Blank,
    /// A `nodetype`, `relation` or `metapath` line, for [`Header::apply`].
    Schema(&'a str, SplitWhitespace<'a>),
    /// The fields of a `node ID TYPE` line, for [`declare_node`].
    Node(SplitWhitespace<'a>),
    /// An `edge SRC DST REL TIME` line.
    Edge(EdgeFields<'a>),
    /// Any other line, trimmed: an unknown directive, or a bare edge in
    /// `supa-ingest`'s string-id modes.
    Other(&'a str),
}

impl<'a> Line<'a> {
    /// Classifies one line (terminator stripped or not). Fails only on an
    /// `edge` line whose fields do not split.
    pub fn parse(text: &'a str, lineno: usize) -> Result<Line<'a>, LoadError> {
        let text = text.trim();
        if text.is_empty() || text.starts_with('#') {
            return Ok(Line::Blank);
        }
        let mut parts = text.split_whitespace();
        Ok(match parts.next() {
            Some(d @ ("nodetype" | "relation" | "metapath")) => Line::Schema(d, parts),
            Some("node") => Line::Node(parts),
            Some("edge") => Line::Edge(EdgeFields::split(parts, lineno)?),
            _ => Line::Other(text),
        })
    }
}

/// The next field of a line, or [`LoadErrorKind::MissingField`] naming it.
fn field<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    what: &'static str,
    lineno: usize,
) -> Result<&'a str, LoadError> {
    parts
        .next()
        .ok_or_else(|| LoadError::at(lineno, LoadErrorKind::MissingField(what)))
}

/// Fails with [`LoadErrorKind::TrailingFields`] if `parts` still has tokens
/// left after every declared field was consumed.
fn reject_trailing<'a>(
    mut parts: impl Iterator<Item = &'a str>,
    directive: &'static str,
    lineno: usize,
) -> Result<(), LoadError> {
    let extra: Vec<&str> = parts.by_ref().collect();
    if extra.is_empty() {
        Ok(())
    } else {
        Err(LoadError::at(
            lineno,
            LoadErrorKind::TrailingFields {
                directive,
                extra: extra.join(" "),
            },
        ))
    }
}

fn unknown(what: &'static str, name: &str, lineno: usize) -> LoadError {
    let name = name.to_string();
    LoadError::at(lineno, LoadErrorKind::UnknownName { what, name })
}

fn bad(what: &'static str, token: &str, lineno: usize) -> LoadError {
    let token = token.to_string();
    LoadError::at(lineno, LoadErrorKind::BadField { what, token })
}

/// The schema a dump declares, as its `nodetype`, `relation` and `metapath`
/// lines build it.
#[derive(Default)]
pub struct Header {
    /// The node types and relations declared so far.
    pub schema: GraphSchema,
    /// `metapath` lines by line number, resolved once the schema is final.
    metapath_lines: Vec<(usize, Vec<String>)>,
}

impl Header {
    /// Applies one schema line ([`Line::Schema`]). `after_data` says a node
    /// or edge line came first: a `nodetype` or `relation` line may not
    /// follow one ([`LoadErrorKind::SchemaAfterNodes`]); a `metapath` line
    /// may come anywhere, since metapaths resolve against the final schema.
    pub fn apply<'a>(
        &mut self,
        directive: &str,
        mut parts: impl Iterator<Item = &'a str>,
        lineno: usize,
        after_data: bool,
    ) -> Result<(), LoadError> {
        let err = |kind: LoadErrorKind| LoadError::at(lineno, kind);
        match directive {
            "metapath" => {
                let tokens: Vec<String> = parts.map(str::to_string).collect();
                if self.metapath_lines.iter().any(|(_, prev)| *prev == tokens) {
                    return Err(err(LoadErrorKind::Duplicate("metapath")));
                }
                self.metapath_lines.push((lineno, tokens));
            }
            _ if after_data => return Err(err(LoadErrorKind::SchemaAfterNodes)),
            "nodetype" => {
                let ty = field(&mut parts, "type name", lineno)?;
                if self.schema.node_type_by_name(ty).is_some() {
                    return Err(err(LoadErrorKind::Duplicate("node type")));
                }
                reject_trailing(parts, "nodetype", lineno)?;
                self.schema.add_node_type(ty);
            }
            _ => {
                let rel = field(&mut parts, "relation name", lineno)?;
                let src = field(&mut parts, "src type", lineno)?;
                let dst = field(&mut parts, "dst type", lineno)?;
                if self.schema.relation_by_name(rel).is_some() {
                    return Err(err(LoadErrorKind::Duplicate("relation")));
                }
                let type_of = |what, name| {
                    self.schema
                        .node_type_by_name(name)
                        .ok_or_else(|| unknown(what, name, lineno))
                };
                let (src, dst) = (type_of("src type", src)?, type_of("dst type", dst)?);
                reject_trailing(parts, "relation", lineno)?;
                self.schema.add_relation(rel, src, dst);
            }
        }
        Ok(())
    }

    /// The prototype — the declared nodes `graph`, or an empty graph over
    /// the schema when no `node` line came — and the resolved metapaths.
    pub fn finish(self, graph: Option<Dmhg>) -> Result<(Dmhg, Vec<MetapathSchema>), LoadError> {
        let prototype = graph.unwrap_or_else(|| Dmhg::new(self.schema));
        let mut metapaths = Vec::new();
        for (lineno, tokens) in self.metapath_lines {
            metapaths.push(resolve_metapath(prototype.schema(), &tokens, lineno)?);
        }
        Ok((prototype, metapaths))
    }
}

/// Declares the node of a `node ID TYPE` line ([`Line::Node`]) in `g`; the
/// id must be the next dense id.
pub fn declare_node<'a>(
    g: &mut Dmhg,
    mut parts: impl Iterator<Item = &'a str>,
    lineno: usize,
) -> Result<(), LoadError> {
    let err = |kind: LoadErrorKind| LoadError::at(lineno, kind);
    let id_tok = field(&mut parts, "node id", lineno)?;
    let id: u32 = id_tok.parse().map_err(|_| bad("node id", id_tok, lineno))?;
    let ty_name = field(&mut parts, "node type", lineno)?;
    let ty = g
        .schema()
        .node_type_by_name(ty_name)
        .ok_or_else(|| unknown("node type", ty_name, lineno))?;
    let assigned = g
        .try_add_node(ty)
        .map_err(|e| err(LoadErrorKind::Graph(e.to_string())))?;
    if assigned != NodeId(id) {
        return Err(err(LoadErrorKind::NonDenseNodeId {
            expected: assigned.0,
            got: id,
        }));
    }
    reject_trailing(parts, "node", lineno)
}

/// An edge line's four raw fields. `edge SRC DST REL TIME` and the bare
/// `SRC DST REL TIME` spelling of `supa-ingest`'s string-id modes both
/// split to this.
pub struct EdgeFields<'a> {
    /// The source endpoint as written.
    pub src: &'a str,
    /// The destination endpoint as written.
    pub dst: &'a str,
    /// The relation name as written.
    pub rel: &'a str,
    /// Read through [`Self::time`], which validates it.
    time: &'a str,
}

impl<'a> EdgeFields<'a> {
    /// Splits `SRC DST REL TIME` off `parts` (the `edge` keyword, if any,
    /// already consumed), rejecting missing and trailing fields.
    pub fn split(
        mut parts: impl Iterator<Item = &'a str>,
        lineno: usize,
    ) -> Result<EdgeFields<'a>, LoadError> {
        let fields = EdgeFields {
            src: field(&mut parts, "src", lineno)?,
            dst: field(&mut parts, "dst", lineno)?,
            rel: field(&mut parts, "relation", lineno)?,
            time: field(&mut parts, "timestamp", lineno)?,
        };
        reject_trailing(parts, "edge", lineno)?;
        Ok(fields)
    }

    /// The relation, which `schema` must declare.
    pub fn relation(&self, schema: &GraphSchema, lineno: usize) -> Result<RelationId, LoadError> {
        schema
            .relation_by_name(self.rel)
            .ok_or_else(|| unknown("relation", self.rel, lineno))
    }

    /// The timestamp: it must parse as `f64`, be finite, and be
    /// non-negative (the paper's `t ∈ ℝ⁺`), so NaN never reaches training.
    pub fn time(&self, lineno: usize) -> Result<f64, LoadError> {
        let t: f64 = self
            .time
            .parse()
            .map_err(|_| bad("timestamp", self.time, lineno))?;
        if !t.is_finite() || t < 0.0 {
            let msg = supa_graph::GraphError::InvalidTimestamp(t).to_string();
            return Err(LoadError::at(lineno, LoadErrorKind::Graph(msg)));
        }
        Ok(t)
    }

    /// The edge of the declared dialect: numeric endpoints below
    /// `num_nodes`, a declared relation, a valid timestamp. [`Self::resolve_in`]
    /// also checks the endpoint types.
    pub fn resolve(
        &self,
        schema: &GraphSchema,
        num_nodes: usize,
        lineno: usize,
    ) -> Result<TemporalEdge, LoadError> {
        let endpoint = |tok: &str, what| tok.parse::<u32>().map_err(|_| bad(what, tok, lineno));
        let (src, dst) = (endpoint(self.src, "src")?, endpoint(self.dst, "dst")?);
        let rel = self.relation(schema, lineno)?;
        let t = self.time(lineno)?;
        for node in [src, dst] {
            if node as usize >= num_nodes {
                let kind = LoadErrorKind::UndeclaredEndpoint { node, num_nodes };
                return Err(LoadError::at(lineno, kind));
            }
        }
        Ok(TemporalEdge::new(NodeId(src), NodeId(dst), rel, t))
    }

    /// [`Self::resolve`] against the declared nodes of `g`, plus the check
    /// that the endpoint types fit the relation.
    pub fn resolve_in(&self, g: &Dmhg, lineno: usize) -> Result<TemporalEdge, LoadError> {
        let e = self.resolve(g.schema(), g.num_nodes(), lineno)?;
        g.schema()
            .check_edge(e.relation, g.node_type(e.src), g.node_type(e.dst))
            .map_err(|err| LoadError::at(lineno, LoadErrorKind::Graph(err.to_string())))?;
        Ok(e)
    }
}

/// Parses a self-describing dataset from TSV lines.
///
/// Returns a [`LoadError`] describing the first malformed line.
pub fn load_tsv<R: BufRead>(name: &str, reader: R) -> Result<Dataset, LoadError> {
    let mut header = Header::default();
    let mut graph: Option<Dmhg> = None;
    let mut edges: Vec<TemporalEdge> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(|e| LoadError::at(lineno, LoadErrorKind::Io(e.to_string())))?;
        match Line::parse(&line, lineno)? {
            Line::Blank => {}
            Line::Schema(d, parts) => header.apply(d, parts, lineno, graph.is_some())?,
            Line::Node(parts) => {
                let g = graph.get_or_insert_with(|| Dmhg::new(header.schema.clone()));
                declare_node(g, parts, lineno)?;
            }
            Line::Edge(fields) => {
                let g = graph
                    .as_ref()
                    .ok_or_else(|| LoadError::at(lineno, LoadErrorKind::EdgeBeforeNodes))?;
                edges.push(fields.resolve_in(g, lineno)?);
            }
            Line::Other(text) => {
                let kind = LoadErrorKind::UnknownDirective(text.to_string());
                return Err(LoadError::at(lineno, kind));
            }
        }
    }
    let (prototype, metapaths) = header.finish(graph)?;
    supa_graph::sort_by_time(&mut edges);
    Ok(Dataset {
        name: name.to_string(),
        prototype,
        edges,
        metapaths,
    })
}

/// Resolves one `metapath` line's tokens against the final schema.
fn resolve_metapath(
    schema: &GraphSchema,
    tokens: &[String],
    lineno: usize,
) -> Result<MetapathSchema, LoadError> {
    let err = |kind: LoadErrorKind| LoadError::at(lineno, kind);
    if tokens.len() < 3 || tokens.len().is_multiple_of(2) {
        return Err(err(LoadErrorKind::MetapathShape));
    }
    let unknown = |what, name: &str| {
        err(LoadErrorKind::UnknownMetapathName {
            what,
            name: name.to_string(),
        })
    };
    let mut types = Vec::new();
    let mut rels = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if i % 2 == 0 {
            let ty = schema.node_type_by_name(tok);
            types.push(ty.ok_or_else(|| unknown("node type", tok))?);
        } else {
            let mut set = RelationSet::EMPTY;
            for r in tok.split(',') {
                let rel = schema.relation_by_name(r);
                set.insert(rel.ok_or_else(|| unknown("relation", r))?);
            }
            rels.push(set);
        }
    }
    let metapath = MetapathSchema::new(types, rels)
        .map_err(|e| err(LoadErrorKind::Metapath(e.to_string())))?;
    metapath
        .validate(schema)
        .map_err(|e| err(LoadErrorKind::Metapath(e.to_string())))?;
    Ok(metapath)
}

/// Serialises a dataset (schema, metapaths, nodes, edges) to the TSV format.
pub fn save_tsv<W: Write>(dataset: &Dataset, mut w: W) -> std::io::Result<()> {
    save_header(dataset, &mut w)?;
    let schema = dataset.prototype.schema();
    for e in &dataset.edges {
        write_edge_line(&mut w, schema, e)?;
    }
    Ok(())
}

/// Writes everything *except* the edge stream — comment, schema, metapath,
/// and `node` lines. [`save_tsv`] is this followed by one
/// [`write_edge_line`] per edge; the streaming converter (`supa ingest
/// --out`) uses the split to emit a canonical header and then append edges
/// it never materialises.
///
/// The comment line is the dataset's [`Dataset::summary`]. A dataset that
/// holds no edges (a streamed prototype, whose edges follow the header)
/// cannot count them, so its line leaves `|E|` and `|T|` out.
pub fn save_header<W: Write>(dataset: &Dataset, w: &mut W) -> std::io::Result<()> {
    let schema = dataset.prototype.schema();
    if dataset.edges.is_empty() {
        writeln!(
            w,
            "# {}: |V|={} |O|={} |R|={}",
            dataset.name,
            dataset.num_nodes(),
            schema.num_node_types(),
            schema.num_relations()
        )?;
    } else {
        writeln!(w, "# {}", dataset.summary())?;
    }
    for (_, name) in schema.node_types() {
        writeln!(w, "nodetype {name}")?;
    }
    for (_, spec) in schema.relations() {
        writeln!(
            w,
            "relation {} {} {}",
            spec.name,
            schema.node_type_name(spec.src_type).unwrap(),
            schema.node_type_name(spec.dst_type).unwrap()
        )?;
    }
    for p in &dataset.metapaths {
        let mut tokens = Vec::new();
        for (i, &ty) in p.node_types().iter().enumerate() {
            tokens.push(schema.node_type_name(ty).unwrap().to_string());
            if i < p.rel_sets().len() {
                let rels: Vec<&str> = p.rel_sets()[i]
                    .iter()
                    .map(|r| schema.relation_name(r).unwrap())
                    .collect();
                tokens.push(rels.join(","));
            }
        }
        writeln!(w, "metapath {}", tokens.join(" "))?;
    }
    for id in 0..dataset.prototype.num_nodes() {
        let ty = dataset.prototype.node_type(NodeId(id as u32));
        writeln!(w, "node {} {}", id, schema.node_type_name(ty).unwrap())?;
    }
    Ok(())
}

/// Writes one `edge` line in the canonical format [`load_tsv`] reads back.
pub fn write_edge_line<W: Write>(
    w: &mut W,
    schema: &GraphSchema,
    e: &TemporalEdge,
) -> std::io::Result<()> {
    writeln!(
        w,
        "edge {} {} {} {}",
        e.src.0,
        e.dst.0,
        schema.relation_name(e.relation).unwrap(),
        e.time
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const GOOD: &str = "\
# a comment
nodetype User
nodetype Video
relation Click User Video
relation Like User Video
metapath User Click,Like Video Click User
node 0 User
node 1 Video
node 2 Video

edge 0 1 Click 5.0
edge 0 2 Like 2.5
";

    fn load_err(input: &str) -> LoadError {
        load_tsv("x", Cursor::new(input.to_string())).unwrap_err()
    }

    #[test]
    fn parses_self_describing_format() {
        let d = load_tsv("rt", Cursor::new(GOOD)).unwrap();
        assert_eq!(d.num_nodes(), 3);
        assert_eq!(d.num_edges(), 2);
        assert_eq!(d.prototype.schema().num_node_types(), 2);
        assert_eq!(d.prototype.schema().num_relations(), 2);
        assert_eq!(d.metapaths.len(), 1);
        assert_eq!(d.metapaths[0].rel_sets()[0].len(), 2);
        // Sorted by time on load.
        assert_eq!(d.edges[0].time, 2.5);
    }

    #[test]
    fn roundtrip_via_tsv() {
        let d = load_tsv("rt", Cursor::new(GOOD)).unwrap();
        let mut buf = Vec::new();
        save_tsv(&d, &mut buf).unwrap();
        let d2 = load_tsv("rt", Cursor::new(buf)).unwrap();
        assert_eq!(d2.edges, d.edges);
        assert_eq!(d2.num_nodes(), d.num_nodes());
        assert_eq!(d2.metapaths, d.metapaths);
    }

    #[test]
    fn catalog_dataset_roundtrips() {
        let d = crate::catalog::kuaishou(0.005, 3);
        let mut buf = Vec::new();
        save_tsv(&d, &mut buf).unwrap();
        let d2 = load_tsv(&d.name, Cursor::new(buf)).unwrap();
        assert_eq!(d2.num_nodes(), d.num_nodes());
        assert_eq!(d2.num_edges(), d.num_edges());
        assert_eq!(d2.metapaths.len(), d.metapaths.len());
        assert_eq!(d2.edges[..50], d.edges[..50]);
    }

    #[test]
    fn rejects_unknown_names() {
        let err = load_err("nodetype U\nnode 0 Ghost\n");
        assert_eq!(err.line, 2);
        assert!(
            matches!(
                &err.kind,
                LoadErrorKind::UnknownName {
                    what: "node type",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("unknown node type"), "{err}");

        let err = load_err("nodetype U\nrelation R U U\nnode 0 U\nnode 1 U\nedge 0 1 Zap 1.0\n");
        assert!(
            matches!(
                &err.kind,
                LoadErrorKind::UnknownName {
                    what: "relation",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("unknown relation"), "{err}");
    }

    #[test]
    fn rejects_schema_after_nodes() {
        let err = load_err("nodetype U\nnode 0 U\nnodetype V\n");
        assert_eq!(err.kind, LoadErrorKind::SchemaAfterNodes);
        assert!(err.to_string().contains("must precede"), "{err}");
    }

    #[test]
    fn rejects_sparse_node_ids_and_dangling_edges() {
        let err = load_err("nodetype U\nnode 5 U\n");
        assert_eq!(
            err.kind,
            LoadErrorKind::NonDenseNodeId {
                expected: 0,
                got: 5
            }
        );
        assert!(err.to_string().contains("dense"), "{err}");

        let err = load_err("nodetype U\nrelation R U U\nnode 0 U\nedge 0 7 R 1.0\n");
        assert_eq!(
            err.kind,
            LoadErrorKind::UndeclaredEndpoint {
                node: 7,
                num_nodes: 1
            }
        );
        assert!(err.to_string().contains("undeclared node"), "{err}");
    }

    #[test]
    fn rejects_type_mismatched_edges() {
        let err = load_err(
            "nodetype U\nnodetype V\nrelation R U V\n\
             node 0 U\nnode 1 U\nedge 0 1 R 1.0\n",
        );
        assert!(matches!(&err.kind, LoadErrorKind::Graph(_)), "{err:?}");
        assert!(err.to_string().contains("endpoint"), "{err}");
    }

    #[test]
    fn rejects_bad_metapaths() {
        let err = load_err("nodetype U\nrelation R U U\nmetapath U R\nnode 0 U\n");
        assert_eq!(err.kind, LoadErrorKind::MetapathShape);
        assert!(err.to_string().contains("alternating"), "{err}");

        let err = load_err("nodetype U\nrelation R U U\nmetapath U Zap U\nnode 0 U\n");
        assert!(
            err.to_string().contains("unknown relation in metapath"),
            "{err}"
        );
    }

    #[test]
    fn rejects_garbage_lines() {
        let err = load_err("banana\n");
        assert_eq!(err.line, 1);
        assert!(
            matches!(&err.kind, LoadErrorKind::UnknownDirective(_)),
            "{err:?}"
        );
        assert!(err.to_string().contains("expected"), "{err}");
    }

    #[test]
    fn rejects_file_truncated_mid_edge() {
        // A crash while writing can cut the file anywhere; an edge line
        // missing its trailing fields must be an error, not a silent drop.
        let err = load_err("nodetype U\nrelation R U U\nnode 0 U\nnode 1 U\nedge 0 1 R\n");
        assert_eq!(err.kind, LoadErrorKind::MissingField("timestamp"));
        assert!(err.to_string().contains("missing timestamp"), "{err}");

        let err = load_err("nodetype U\nrelation R U U\nnode 0 U\nnode 1 U\nedge 0\n");
        assert_eq!(err.kind, LoadErrorKind::MissingField("dst"));
        assert!(err.to_string().contains("missing dst"), "{err}");
    }

    #[test]
    fn rejects_unparseable_edge_fields() {
        let err = load_err("nodetype U\nrelation R U U\nnode 0 U\nnode 1 U\nedge 0 1 R x\n");
        assert!(
            matches!(
                &err.kind,
                LoadErrorKind::BadField {
                    what: "timestamp",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("bad timestamp"), "{err}");

        let err = load_err("nodetype U\nrelation R U U\nnode 0 U\nnode 1 U\nedge 0 q R 1.0\n");
        assert!(err.to_string().contains("bad dst"), "{err}");
    }

    #[test]
    fn rejects_non_finite_and_negative_timestamps() {
        for t in ["nan", "NaN", "inf", "-inf", "-3.0"] {
            let bad = format!("nodetype U\nrelation R U U\nnode 0 U\nnode 1 U\nedge 0 1 R {t}\n");
            let err = load_err(&bad);
            assert_eq!(err.line, 5, "t={t}");
            assert!(
                matches!(&err.kind, LoadErrorKind::Graph(_)),
                "t={t}: {err:?}"
            );
            assert!(
                err.to_string().contains("invalid timestamp"),
                "t={t}: {err}"
            );
        }
    }

    #[test]
    fn rejects_duplicate_metapath_lines() {
        let err = load_err(
            "nodetype U\nrelation R U U\n\
             metapath U R U\nmetapath U R U\nnode 0 U\n",
        );
        assert_eq!(err.kind, LoadErrorKind::Duplicate("metapath"));
        assert!(err.to_string().contains("duplicate metapath"), "{err}");
        // Distinct metapaths still load fine.
        let ok = "nodetype U\nrelation R U U\nrelation S U U\n\
                  metapath U R U\nmetapath U S U\nnode 0 U\n";
        let d = load_tsv("x", Cursor::new(ok)).unwrap();
        assert_eq!(d.metapaths.len(), 2);
    }

    #[test]
    fn rejects_trailing_garbage_on_every_directive() {
        // Regression: extra tokens after the declared fields used to be
        // silently dropped; a column-shifted dump (e.g. an extra weight
        // column) must fail loudly instead of loading wrong.
        let err = load_err("nodetype U\nrelation R U U\nnode 0 U\nnode 1 U\nedge 0 1 R 1.0 99\n");
        assert_eq!(err.line, 5);
        assert_eq!(
            err.kind,
            LoadErrorKind::TrailingFields {
                directive: "edge",
                extra: "99".to_string()
            }
        );
        assert!(err.to_string().contains("trailing fields"), "{err}");
        assert!(err.to_string().contains("99"), "{err}");

        let err = load_err("nodetype U\nnode 0 U extra\n");
        assert_eq!(
            err.kind,
            LoadErrorKind::TrailingFields {
                directive: "node",
                extra: "extra".to_string()
            }
        );

        let err = load_err("nodetype U V\n");
        assert!(
            matches!(
                &err.kind,
                LoadErrorKind::TrailingFields {
                    directive: "nodetype",
                    ..
                }
            ),
            "{err:?}"
        );
        let err = load_err("nodetype U\nrelation R U U bogus trailing\n");
        assert_eq!(
            err.kind,
            LoadErrorKind::TrailingFields {
                directive: "relation",
                extra: "bogus trailing".to_string()
            }
        );
    }
}

//! Generated differential test of the streamed ≡ materialised contract for
//! the declared dialect: over generated dumps, `supa_datasets::load_tsv`
//! and `scan_tsv` + `EventStream` must build the same schema, node types,
//! metapaths and edges, and over the same dumps with one mutated line they
//! must fail with the same `LoadError` (kind and line).
//!
//! Two differences are by design and not generated: a line that is not
//! valid UTF-8 (`load_tsv` reports an io error, the streaming reader
//! `IngestError::NotUtf8`), and an edge line before any `node` line
//! (`load_tsv` rejects it, the streaming reader switches to string ids).

use std::io::Write;
use std::path::Path;

use supa_datasets::{load_tsv, Dataset};
use supa_graph::{NodeId, TemporalEdge};
use supa_ingest::{scan_tsv, IngestError, IngestOptions};
use supa_rng::{check, Case, SmallRng};

/// A dump's data lines, fields separated by one space; `None` is a comment
/// or blank line.
type Lines = Vec<Option<String>>;

fn pick<'a, T>(rng: &mut SmallRng, xs: &'a [T]) -> &'a T {
    &xs[rng.random_range(0..xs.len())]
}

fn one_of(rng: &mut SmallRng, xs: &[&'static str]) -> &'static str {
    xs[rng.random_range(0..xs.len())]
}

/// A declared dump of 1–4 node types, 1–5 relations, dense nodes, and
/// edges time-sorted or shuffled; metapath lines before the nodes, among
/// them or after the edges; comment and blank lines anywhere. Returns the
/// lines and the node count.
fn generate(case: &mut Case) -> (Lines, usize) {
    let (num_types, num_rels) = (case.len(1..5), case.len(1..6));
    let num_nodes = case.len(1..40).max(num_types);
    let num_edges = case.len(0..120);
    let rng = &mut case.rng;
    let draw = |rng: &mut SmallRng| rng.random_range(0..num_types);
    let rels: Vec<(usize, usize)> = (0..num_rels).map(|_| (draw(rng), draw(rng))).collect();
    let mut node_type: Vec<usize> = (0..num_nodes).map(|_| draw(rng)).collect();
    for t in 0..num_types {
        node_type[t * num_nodes / num_types] = t; // every type gets a node
    }
    let of_type =
        |t: usize| -> Vec<usize> { (0..num_nodes).filter(|&v| node_type[v] == t).collect() };

    let mut head: Vec<String> = (0..num_types).map(|t| format!("nodetype Ty{t}")).collect();
    for (r, (s, d)) in rels.iter().enumerate() {
        head.push(format!("relation R{r} Ty{s} Ty{d}"));
    }
    let nodes: Vec<String> = (0..num_nodes)
        .map(|v| format!("node {v} Ty{}", node_type[v]))
        .collect();
    let mut times: Vec<f64> = (0..num_edges)
        .map(|_| rng.random_range(0..30u32) as f64 * 0.5)
        .collect();
    if rng.random_bool(0.5) {
        times.sort_by(f64::total_cmp);
    }
    let mut edges = Vec::new();
    for t in times {
        let r = rng.random_range(0..num_rels);
        let (mut src, mut dst) = (
            *pick(rng, &of_type(rels[r].0)),
            *pick(rng, &of_type(rels[r].1)),
        );
        if rng.random_bool(0.3) {
            std::mem::swap(&mut src, &mut dst); // a relation fits either way round
        }
        edges.push(format!("edge {src} {dst} R{r} {t}"));
    }
    // Metapaths: out along a relation and maybe back, each hop a set of
    // the relations joining its two types.
    let mut metapaths: Vec<String> = Vec::new();
    for _ in 0..rng.random_range(0..4) {
        let (s, d) = *pick(rng, &rels);
        let mut walk = if rng.random_bool(0.5) {
            vec![s, d]
        } else {
            vec![d, s]
        };
        if rng.random_bool(0.5) {
            walk.push(walk[0]);
        }
        let mut tokens = vec!["metapath".to_string(), format!("Ty{}", walk[0])];
        for hop in walk.windows(2) {
            let joins: Vec<String> = (0..num_rels)
                .filter(|&r| rels[r] == (hop[0], hop[1]) || rels[r] == (hop[1], hop[0]))
                .map(|r| format!("R{r}"))
                .collect();
            tokens.push(joins[..rng.random_range(1..=joins.len())].join(","));
            tokens.push(format!("Ty{}", hop[1]));
        }
        let line = tokens.join(" ");
        if !metapaths.contains(&line) {
            metapaths.push(line);
        }
    }
    let (mut early, mut mid, mut late) = (head, Vec::new(), Vec::new());
    for m in metapaths {
        [&mut early, &mut mid, &mut late][rng.random_range(0..3)].push(m);
    }
    let cut = rng.random_range(0..=num_nodes);
    let body = early
        .into_iter()
        .chain(nodes[..cut].iter().cloned())
        .chain(mid);
    let body = body
        .chain(nodes[cut..].iter().cloned())
        .chain(edges)
        .chain(late);
    let mut lines = Vec::new();
    for l in body {
        while rng.random_bool(0.1) {
            lines.push(None);
        }
        lines.push(Some(l));
    }
    (lines, num_nodes)
}

/// The dump's text: tab and space separators, some indented lines,
/// comments and blank lines, LF or CRLF line ends.
fn render(lines: &Lines, rng: &mut SmallRng) -> String {
    let end = one_of(rng, &["\n", "\n", "\r\n"]);
    let mut out = String::new();
    for l in lines {
        match l {
            None => out.push_str(one_of(rng, &["# a comment", "", "  ", "\t# indented"])),
            Some(text) => {
                out.push_str(one_of(rng, &["", "", " ", "\t"]));
                for (i, tok) in text.split(' ').enumerate() {
                    if i > 0 {
                        out.push_str(one_of(rng, &[" ", " ", "\t", "  ", " \t"]));
                    }
                    out.push_str(tok);
                }
                out.push_str(one_of(rng, &["", "", " ", "\t"]));
            }
        }
        out.push_str(end);
    }
    out
}

/// Breaks one data line: a dropped field, a trailing field, a bad id, a
/// NaN or negative time, an unknown name, an undeclared endpoint or a
/// non-dense node id. `None` when the drawn line does not take the drawn
/// mutation.
fn mutate(lines: &mut Lines, num_nodes: usize, rng: &mut SmallRng) -> Option<String> {
    let data: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].is_some()).collect();
    let i = *pick(rng, &data);
    let line = lines[i].as_deref().unwrap();
    let mut tokens: Vec<String> = line.split(' ').map(String::from).collect();
    let (n, what) = (tokens.len(), rng.random_range(0..7));
    // (field, replacement): `None` drops the field, field `n` appends one.
    let (j, to) = match (what, tokens[0].as_str()) {
        (0, _) if n > 1 => (rng.random_range(1..n), None),
        (1, _) => (n, Some("extra".to_string())),
        (2, "node") => (1, Some("x7".into())),
        (2, "edge") => (rng.random_range(1..3), Some("-1".into())),
        (3, "edge") => (4, Some(one_of(rng, &["NaN", "-0.5", "inf"]).into())),
        (4, "node") => (2, Some("Ghost".into())),
        (4, "edge") => (3, Some("Ghost".into())),
        (4, "relation") => (rng.random_range(2..4), Some("Ghost".into())),
        (4, "metapath") => (rng.random_range(1..n), Some("Ghost".into())),
        (5, "edge") => (rng.random_range(1..3), Some((num_nodes + 3).to_string())),
        (6, "node") => {
            let id: usize = tokens[1].parse().unwrap();
            (1, Some((id + rng.random_range(1..4)).to_string()))
        }
        _ => return None,
    };
    match to {
        None => drop(tokens.remove(j)),
        Some(t) if j == n => tokens.push(t),
        Some(t) => tokens[j] = t,
    }
    lines[i] = Some(tokens.join(" "));
    Some(format!("mutation {what} on line {}", i + 1))
}

/// Both passes of the streaming reader: the prototype and the edges in
/// file order.
fn stream(path: &Path) -> Result<(Dataset, Vec<TemporalEdge>), IngestError> {
    let (dataset, stream) = scan_tsv(path, &IngestOptions::default())?.into_stream()?;
    Ok((dataset, stream.collect::<Result<_, _>>()?))
}

#[test]
fn streamed_dumps_equal_materialised_ones_and_fail_alike() {
    let path =
        std::env::temp_dir().join(format!("supa-ingest-properties-{}.tsv", std::process::id()));
    let write = |text: &str| {
        std::fs::File::create(&path)
            .unwrap()
            .write_all(text.as_bytes())
            .unwrap()
    };
    let materialise = |text: &str| load_tsv("dump", std::io::Cursor::new(text.to_string()));
    let mut mutated = 0;
    check(300, |case| {
        let (mut lines, num_nodes) = generate(case);
        let text = render(&lines, &mut case.rng);
        write(&text);
        let want = materialise(&text).unwrap_or_else(|e| panic!("load_tsv: {e}\n{text}"));
        let (got, mut edges) = stream(&path).unwrap_or_else(|e| panic!("stream: {e}\n{text}"));
        assert_eq!(got.prototype.schema(), want.prototype.schema(), "{text}");
        assert_eq!(got.num_nodes(), want.num_nodes(), "{text}");
        for v in (0..got.num_nodes() as u32).map(NodeId) {
            assert_eq!(got.prototype.node_type(v), want.prototype.node_type(v));
        }
        assert_eq!(got.metapaths, want.metapaths, "{text}");
        supa_graph::sort_by_time(&mut edges); // stable, as load_tsv sorts
        assert_eq!(edges, want.edges, "{text}");

        let Some(what) = mutate(&mut lines, num_nodes, &mut case.rng) else {
            return;
        };
        let text = render(&lines, &mut case.rng);
        write(&text);
        let Err(want) = materialise(&text) else {
            panic!("load_tsv took {what}\n{text}");
        };
        match stream(&path) {
            Err(IngestError::Parse(got)) => assert_eq!(got, want, "{what}\n{text}"),
            other => panic!(
                "{what}: stream gave {:?}, load_tsv {want}\n{text}",
                other.err()
            ),
        }
        mutated += 1;
    });
    std::fs::remove_file(&path).ok();
    assert!(mutated >= 100, "only {mutated} cases took a mutation");
}

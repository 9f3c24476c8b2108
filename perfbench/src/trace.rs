//! In-memory spans for the staged replay: name, start, end, the span that
//! caused it, and the chunk or query it belongs to. Spans are kept in memory
//! and written out as JSON lines only when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans that only group other spans. Their own self time is loop glue the
/// benchmark did not attribute to any layer, so it does not count towards
/// coverage.
pub const GROUP_SPANS: [&str; 3] = ["replay", "writer.chunk", "reader.query"];

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    parent: u32,
    /// Chunk number (writer spans) or query number (reader spans).
    pub id: u64,
}

impl Span {
    pub fn parent(&self) -> Option<usize> {
        (self.parent != NO_PARENT).then_some(self.parent as usize)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Token(u32);

/// Records spans on one thread. A disabled recorder reads no clock and
/// stores nothing, which is what the untraced replay runs with.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> Token {
        if !self.enabled {
            return Token(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            id,
        });
        self.stack.push(idx);
        Token(idx)
    }

    /// Closes `token`, which must be the innermost open span.
    pub fn close(&mut self, token: Token) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(token.0), "spans must close innermost-first");
        self.spans[token.0 as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let token = self.open(name, id);
        let out = f();
        self.close(token);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part its child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent() {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Per span name: call count, summed self time and the individual
    /// durations (for medians).
    pub fn by_name(&self) -> BTreeMap<&'static str, StageStats> {
        let own = self.self_times_ns();
        let mut out: BTreeMap<&'static str, StageStats> = BTreeMap::new();
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += self_ns;
            e.durations_ns.push(s.duration_ns());
        }
        out
    }

    /// Share of the root span's wall covered by the self time of layer
    /// spans (everything except [`GROUP_SPANS`]). 0 without a root.
    pub fn coverage_ratio(&self) -> f64 {
        let Some(root) = self.spans.first() else {
            return 0.0;
        };
        let own = self.self_times_ns();
        let covered: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| !GROUP_SPANS.contains(&s.name))
            .map(|(_, &ns)| ns)
            .sum();
        covered as f64 / root.duration_ns().max(1) as f64
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent() {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

#[derive(Debug, Clone, Default)]
pub struct StageStats {
    pub calls: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl StageStats {
    pub fn total_ns(&self) -> u64 {
        self.durations_ns.iter().sum()
    }

    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns() as f64 / self.calls as f64
        }
    }

    pub fn median_ns(&self) -> f64 {
        let v: Vec<f64> = self.durations_ns.iter().map(|&d| d as f64).collect();
        crate::stats::median(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_excludes_groups() {
        let mut r = Recorder::new(true);
        let root = r.open("replay", 0);
        let chunk = r.open("writer.chunk", 1);
        r.time("core.train_chunk", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        r.time("core.export_snapshot", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        r.close(chunk);
        r.close(root);

        let own = r.self_times_ns();
        assert_eq!(r.spans()[2].parent(), Some(1));
        assert!(
            own[0] < 5_000_000,
            "root self time is glue only: {}",
            own[0]
        );
        assert!(own[2] >= 20_000_000);
        let cov = r.coverage_ratio();
        assert!(cov > 0.9 && cov <= 1.0, "coverage {cov}");
        let stages = r.by_name();
        assert_eq!(stages["core.train_chunk"].calls, 1);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut r = Recorder::new(false);
        let t = r.open("replay", 0);
        assert_eq!(r.time("x", 0, || 7), 7);
        r.close(t);
        assert!(r.spans().is_empty());
        assert_eq!(r.coverage_ratio(), 0.0);
    }
}

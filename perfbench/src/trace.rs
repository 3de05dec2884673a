//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name, a start and end (nanoseconds from the tracer's
//! origin), an optional parent and the request it belongs to. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover. Spans stay in memory while the workload runs and
//! are written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against a shared origin. Not thread-safe by design:
/// each thread owns a tracer and [`Tracer::absorb`] merges them.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes a span under a name decided at its end.
    pub fn close_as(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
        self.close(id);
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s, kids))
        .collect()
}

/// Nanoseconds of `span` covered by the union of `intervals`.
fn covered_ns(span: &Span, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Share of each root span named `root` that its children cover, summed
/// over all such roots: `(covered, total)` in nanoseconds.
pub fn coverage(spans: &[Span], root: &str) -> (u64, u64) {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == root)
        .fold((0, 0), |(covered, total), (s, own)| {
            (covered + s.duration_ns() - own, total + s.duration_ns())
        })
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub self_ns: u64,
}

/// Spans grouped by name, in name order.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let row = rows.entry(s.name).or_insert(LayerRow {
            name: s.name,
            count: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.self_ns += own;
    }
    rows.into_values().collect()
}

/// Durations (ns) of every span with the given name.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("predict", 0, 10, Some(0)),
            span("attempt", 10, 60, Some(0)),
            span("attempt", 60, 95, Some(0)),
            span("inner", 20, 30, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![5, 10, 40, 35, 10]);
        assert_eq!(coverage(&spans, "request"), (95, 100));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 10, 110, None),
            span("a", 0, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 100, 200, Some(0)),
        ];
        // Covered: [10,50) and [100,110) = 50 ns.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn layer_table_groups_by_name() {
        let spans = vec![
            span("request", 0, 100, None),
            span("attempt", 0, 30, Some(0)),
            span("attempt", 30, 90, Some(0)),
            span("request", 200, 250, None),
        ];
        let rows = layer_table(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "attempt");
        assert_eq!((rows[0].count, rows[0].self_ns), (2, 90));
        assert_eq!((rows[1].count, rows[1].self_ns), (2, 60));
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.open("root", None, 1);
        a.close(root);
        let mut b = Tracer::new(origin);
        let r = b.open("request", None, 2);
        let c = b.open("child", Some(r), 2);
        b.close(c);
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
    }
}

//! In-memory spans recorded around calls into the library's layers.
//!
//! Spans are pushed to one vector while the run measures and are only
//! summarised and written out after it ends.  With tracing off every call
//! is a branch and nothing is recorded.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (`0` is never issued).
pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    /// Shared by every span of one flow (its submit and its collection).
    pub flow: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A started span; hand it back to [`Tracer::end`].
pub struct Open {
    id: SpanId,
    name: &'static str,
    start: Instant,
    parent: Option<SpanId>,
    flow: Option<u64>,
}

impl Open {
    /// This span's id, to parent child spans on (`None` when tracing is
    /// off).
    pub fn id(&self) -> Option<SpanId> {
        (self.id != 0).then_some(self.id)
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, flow: Option<u64>) -> Open {
        let id = if self.enabled { self.next.fetch_add(1, Ordering::Relaxed) } else { 0 };
        Open { id, name, start: Instant::now(), parent, flow }
    }

    pub fn end(&self, open: Open) {
        if self.enabled {
            self.push(open.id, open.name, open.start, Instant::now(), open.parent, open.flow);
        }
    }

    /// Records an interval that was measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        flow: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, start, end, parent, flow);
        Some(id)
    }

    fn push(
        &self,
        id: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        flow: Option<u64>,
    ) {
        let span = Span {
            id,
            name,
            start: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent,
            flow,
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let open = self.begin(name, parent, None);
        let out = f(open.id());
        self.end(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start, span.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut cursor = span.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (span.id, (span.end - span.start).saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals of a trace.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    pub count: u64,
    /// Summed durations, in seconds.
    pub total_s: f64,
    /// Summed self times, in seconds.
    pub self_s: f64,
    /// Individual durations, in seconds.
    pub durations: Vec<f64>,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for span in spans {
        let entry = out.entry(span.name).or_default();
        let duration = (span.end - span.start) as f64 * 1e-9;
        entry.count += 1;
        entry.total_s += duration;
        entry.self_s += own[&span.id] as f64 * 1e-9;
        entry.durations.push(duration);
    }
    out
}

/// Writes one tab-separated line per span: id, name, start_ns, end_ns,
/// parent (0 = none), flow (empty = none).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tflow")?;
    for s in spans {
        let flow = s.flow.map(|f| f.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.name,
            s.start,
            s.end,
            s.parent.unwrap_or(0),
            flow
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { id, name: "s", start, end, parent, flow: None }
    }

    #[test]
    fn a_span_fully_covered_by_its_children_has_zero_self_time() {
        let spans = [span(1, 0, 100, None), span(2, 0, 60, Some(1)), span(3, 60, 100, Some(1))];
        let own = self_times(&spans);
        assert_eq!(own[&1], 0);
        assert_eq!(own[&2], 60);
        assert_eq!(own[&3], 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Children overlap each other (parallel work) and one overhangs the
        // parent's end: only [10, 80) of the parent is covered.
        let spans = [
            span(1, 0, 80, None),
            span(2, 10, 50, Some(1)),
            span(3, 30, 70, Some(1)),
            span(4, 60, 120, Some(1)),
            span(5, 20, 25, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 10);
        assert_eq!(own[&2], 35);
        let totals = totals(&spans);
        assert_eq!(totals["s"].count, 5);
    }

    #[test]
    fn nested_timed_spans_link_to_their_parent() {
        let tracer = Tracer::new(true);
        tracer.time("outer", None, |id| tracer.time("inner", id, |_| ()));
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let value = tracer.time("x", None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }
}

//! In-memory spans recorded around calls into each layer.
//!
//! A span is one public call (or one request or session): name, start,
//! end, the span that caused it, and the request or session id. Spans
//! stay in memory while the run measures and are written out, one JSON
//! object per line, when it ends. With tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Sample;

/// Index of a recorded span; [`NONE`] when tracing is off.
pub type SpanId = usize;

/// The id of no span.
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub id: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        id: u64,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets the end of a span recorded open-ended (e.g. a request whose
    /// answer has not arrived yet).
    pub fn finish(&mut self, span: SpanId, end: Instant) {
        if span != NONE {
            let end = self.ns(end);
            self.spans[span].end_ns = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, grouped by name, in microseconds: its
    /// duration minus the part its children cover.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Sample> {
        self_times_us(&self.spans)
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"id\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            );
        }
        out
    }
}

/// See [`Tracer::self_times_us`]. Children may overlap (parallel work);
/// their union is subtracted once.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<&'static str, Sample> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE && s.parent < spans.len() {
            children[s.parent].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Sample> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let kids = &mut children[i];
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        out.entry(s.name).or_default().push(own as f64 / 1e3);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span("root", 0, 10_000, NONE),
            span("a", 1_000, 4_000, 0),
            span("b", 3_000, 6_000, 0),  // overlaps a by 1 µs
            span("c", 9_000, 12_000, 0), // runs past the parent's end
        ];
        let mut t = self_times_us(&spans);
        // covered: [1,6) + [9,10) = 6 µs of 10
        assert_eq!(t.get_mut("root").unwrap().median(), 4.0);
        assert_eq!(t.get_mut("a").unwrap().median(), 3.0);
        assert_eq!(t.get_mut("c").unwrap().median(), 3.0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", now, now, NONE, 1), NONE);
        t.finish(NONE, now);
        assert!(t.spans().is_empty());
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn jsonl_lines_parse() {
        let mut t = Tracer::new(true);
        let now = Instant::now();
        let root = t.record("session", now, now, NONE, 9);
        t.record("router.submit", now, now, root, 9);
        let text = t.to_jsonl();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            stepping_metrics::snapshot::json::parse(line).unwrap();
        }
        assert!(text.contains("\"parent\": null") && text.contains("\"parent\": 0"));
    }
}

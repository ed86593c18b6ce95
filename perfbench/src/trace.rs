//! In-memory spans around the benchmark's calls into each layer, written
//! once when the run ends.

// balloc-lint: allow-file(L002): spans record wall-clock start and end
// times of benchmark calls.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per run; later spans are counted, not stored, so a long
/// traced window cannot grow memory without bound.
const MAX_SPANS: usize = 1 << 18;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index + 1 of the causing span, 0 for a root.
    parent: u32,
    /// Request, task or job id shared by the spans of one unit of work.
    id: u64,
}

/// A span handle; `SpanId(0)` is "not recorded".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let now = self.ns(Instant::now());
        self.push(name, now, 0, parent, id)
    }

    pub fn end(&mut self, span: SpanId) {
        if span != SpanId::NONE {
            let now = self.ns(Instant::now());
            self.spans[span.0 as usize - 1].end_ns = now;
        }
    }

    /// Records a finished span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        id: u64,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, s, e, parent, id)
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        id: u64,
    ) -> SpanId {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.0,
            id,
        });
        SpanId(self.spans.len() as u32)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time per span name: duration minus the time covered by child
    /// spans, summed; `(name, spans, total_ns, self_ns)` sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child);
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 256);
        let _ = write!(out, "{{{header},\"dropped\":{},\"spans\":[", self.dropped);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"i\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.id
            );
        }
        out.push_str("]}\n");
        out
    }
}

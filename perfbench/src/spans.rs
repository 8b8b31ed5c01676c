//! The benchmark's own spans, recorded around calls into each layer's
//! public functions during a traced run. Spans stay in memory and are
//! written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `devmem.alloc`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job, sample or request the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    /// Spans closed under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the time their direct children cover.
    pub self_ns: u64,
}

/// A single-threaded span recorder. When disabled, [`Tracer::span`] runs
/// the closure and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes with the matching [`Tracer::end`]. Spans
    /// opened before it is closed become its children.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        // Reserve the slot now so children can name it as their parent.
        let slot = self.spans.len();
        let parent = self.open.last().map(|o| o.0);
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, id });
        let start = self.now_ns();
        self.open.push((slot, start));
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let (slot, start) = self.open.pop().expect("end() without a matching begin()");
        self.spans[slot].start_ns = start;
        self.spans[slot].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// Every closed span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as a JSON array of
    /// `{"name","start_ns","end_ns","parent","id"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new(true);
        t.begin("job", 7);
        t.span("devmem.alloc", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("exec.launch", 7, || std::thread::sleep(std::time::Duration::from_millis(3)));
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7));
        let totals = t.totals();
        let job = totals["job"];
        let children = totals["devmem.alloc"].total_ns + totals["exec.launch"].total_ns;
        assert_eq!(job.self_ns, job.total_ns - children);
        assert_eq!(totals["exec.launch"].self_ns, totals["exec.launch"].total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("job", 1, || 41 + 1);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
        assert_eq!(t.to_json(), "[\n]");
    }
}

//! In-memory span recorder with Chrome trace-event export.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! of the program; nothing inside the program is instrumented. Each span
//! has a layer, a name, a start, an end, a parent and a request id
//! shared by the spans of one operation. Counts are recorded at the same
//! boundaries. Everything stays in memory until [`Tracer::write_chrome`]
//! writes a trace-event file that Perfetto and `chrome://tracing` open.
//! When off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer (module) the span measures, e.g. `coord`.
    pub layer: &'static str,
    /// The span's label, e.g. `Q10`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one operation.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A counter sample taken at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
struct Count {
    name: &'static str,
    at_ns: u64,
    value: f64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: Vec<Count>,
}

impl Tracer {
    /// A recorder that starts on or off.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Turns recording on or off (only between spans).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer`/`name` for request `req` under the
    /// innermost open span. Returns `None` when tracing is off.
    pub fn begin(&mut self, layer: &'static str, name: &str, req: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes span `id`, and any span still open inside it (left open by
    /// a panic that unwound past its [`end`](Self::end)).
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span of `layer`/`name` for request `req`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.begin(layer, name, req);
        let out = f(self);
        self.end(id);
        out
    }

    /// Records a counter value at the current boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            let at_ns = self.now_ns();
            self.counts.push(Count { name, at_ns, value });
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The most recently started span of `layer`, if any.
    pub fn last(&self, layer: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.layer == layer)
    }

    /// Writes [`render_chrome`](Self::render_chrome) to `path`.
    pub fn write_chrome(&self, path: &std::path::Path, context: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.render_chrome(context))
    }

    /// The spans and counts as Chrome trace-event JSON, with `context`
    /// (already-rendered JSON object members) as metadata.
    pub fn render_chrome(&self, context: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        out.push_str(context);
        out.push_str("},\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
        };
        for (id, s) in self.spans.iter().enumerate() {
            sep(&mut out);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"req\":{}}}}}",
                quote(&s.name),
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req
            );
        }
        for c in &self.counts {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"value\":{}}}}}",
                c.name,
                c.at_ns as f64 / 1e3,
                c.value
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Each span's self time: its duration minus the part covered by its
/// children. Children of one parent never overlap (one thread records
/// them, strictly nested), so the covered part is the sum of their
/// durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

/// Self time summed per layer over the subtree rooted at `root`
/// (inclusive). The values add up to the root's duration exactly.
pub fn layer_self_times(spans: &[Span], root: usize) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut in_tree = vec![false; spans.len()];
    let mut by_layer = BTreeMap::new();
    // Parents precede children, so one forward pass marks the subtree.
    for (i, s) in spans.iter().enumerate() {
        in_tree[i] = i == root || s.parent.is_some_and(|p| in_tree[p]);
        if in_tree[i] {
            *by_layer.entry(s.layer).or_insert(0) += own[i];
        }
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { layer, name: layer.to_string(), start_ns, end_ns, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 60, 70, Some(2)),
            span("a", 200, 230, None),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10, 30]);
        let layers = layer_self_times(&spans, 0);
        assert_eq!(layers.values().sum::<u64>(), 100);
        assert_eq!(layers["a"], 30, "the span outside the subtree is excluded");
        assert_eq!(layers["root"], 30);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut t = Tracer::new(true);
        t.span("op", "q", 7, |t| {
            t.span("coord", "Q1", 7, |t| t.count("rows", 3.0));
            t.span("oracle", "check", 7, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s.iter().all(|x| x.req == 7 && x.end_ns >= x.start_ns));
        assert_eq!(layer_self_times(s, 0).values().sum::<u64>(), s[0].dur_ns());

        let v = crate::json::parse(&t.render_chrome("\"seed\":1")).expect("trace is valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).expect("event list");
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(events[3].get("ph").and_then(|p| p.as_str()), Some("C"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", "q", 1, |_| 5), 5);
        t.count("rows", 1.0);
        assert!(t.spans().is_empty());
    }
}

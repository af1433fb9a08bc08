//! In-memory spans for the traced pass.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, the op it belongs to, the span that caused it, start and end.
//! Spans stay in memory and are written once, at exit, as Chrome
//! trace-event JSON (open with `chrome://tracing` or
//! <https://ui.perfetto.dev>).

use std::io::Write;
use std::time::Instant;

/// "No parent": the span is the root of its op.
pub const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `<layer>.<stage>`, e.g. `storage.filter`.
    pub name: &'static str,
    /// The op this span belongs to; spans of one op share it.
    pub op_id: u32,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; `>= start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. `begin`/`end` cost one clock read and (for `begin`) one
/// push into a pre-reserved vector each.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording does not
    /// allocate inside a measured region.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span and return its index (the `parent` of its children).
    pub fn begin(&mut self, name: &'static str, op_id: u32, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(name, op_id, parent);
        let out = f();
        self.end(s);
        out
    }

    /// Every recorded span, in `begin` order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of all spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Write the spans as Chrome trace-event JSON. The parent index and
    /// self time ride along in `args`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op_id\":{},\"span\":{i},\
                 \"parent\":{parent},\"self_ns\":{self_ns}}}}}{sep}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1000.0,
                s.duration_ns() as f64 / 1000.0,
                s.op_id,
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// A span's self time: its duration minus the part of it its direct
/// children cover. Children are sequential here (one client thread), so
/// the covered part is the sum of their durations, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("core.op", ROOT, 0, 100),
            span("storage.filter", 0, 10, 50),
            span("rtree.candidates", 1, 20, 30),
            span("geom.refine", 0, 60, 90),
            // A child that overruns its parent only counts inside it.
            span("late", 3, 80, 120),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 20, 40]);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut t = Tracer::with_capacity(4);
        let op = t.begin("core.op", 7, ROOT);
        t.span("epoch.pin", 7, op, || std::hint::black_box(1 + 1));
        t.end(op);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].op_id), (op, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations("epoch.pin").len(), 1);
    }
}

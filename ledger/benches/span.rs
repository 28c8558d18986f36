//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A disabled [`Tracer`] reads no clock and stores nothing, so the same
//! staged code runs traced and untraced and the difference between the two
//! is the tracing overhead. Spans are written out only when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval. A span's id is its index in the trace file.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Grid cell the work belongs to (the shared identifier).
    pub cell: usize,
}

/// Handle returned by [`Tracer::open`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A tracer that does nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, cell: usize) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            cell,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Ends a span and returns its nanoseconds; 0 when disabled.
    pub fn close(&mut self, id: SpanId) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = self.now_ns();
        let s = &mut self.spans[id.0];
        s.end_ns = end_ns;
        s.end_ns - s.start_ns
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes one JSON object per span (`id` = line number from 0).
    pub fn write_jsonl(&self, path: &std::path::Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"cell\": {}}}",
                s.name, s.start_ns, s.end_ns, s.cell
            )?;
        }
        out.flush()
    }
}

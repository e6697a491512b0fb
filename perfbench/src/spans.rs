//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers one call as the caller sees it.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the same [`Tracer`], or [`ROOT`].
    parent: u32,
    /// Request index on the client side, chunk index in the replay: spans
    /// of one request or chunk share it.
    id: u64,
}

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

    /// Starts a span that [`close`](Self::close) ends; returns its index.
    pub fn open(&mut self, name: &'static str, parent: u32, id: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        let end_ns = self.now_ns();
        self.spans[span as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, id);
        let out = f();
        self.close(span);
        out
    }

    /// Durations of the spans called `name` whose id is at least `min_id`,
    /// in microseconds.
    pub fn durations_us(&self, name: &str, min_id: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.id >= min_id)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Spans recorded so far.
    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    /// Writes the first `limit` spans as tab-separated `index name start_ns
    /// end_ns parent id` rows (parent `-` for a root span), after a comment
    /// line saying how many were recorded.
    pub fn write_tsv(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {} of {} spans; times in ns since the run's origin",
            limit.min(self.spans.len()),
            self.spans.len()
        )?;
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

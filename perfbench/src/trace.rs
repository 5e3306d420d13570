//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's side of each public call; nothing inside the library
//! is instrumented. They are kept in memory and written out at exit.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Which pass over the workload the span belongs to.
    pub pass: usize,
}

pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    pass: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload,
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns its result with the span's duration in seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Span duration minus the time its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"workload\":\"{}\",\"pass\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"parent\":{parent}}}",
                s.name,
                self.workload,
                s.pass,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            )?;
        }
        out.flush()
    }
}

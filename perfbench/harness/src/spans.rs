//! In-memory span log for the traced run.
//!
//! The benchmark opens its own spans around each call into a layer's
//! public function, and the same log is handed to the library as its
//! [`Tracer`], so the spans the library already emits (`"compile"`,
//! `"compress"`, `"link"`, `"load"`, `"run"`, `"verify"`) nest under
//! them. Every span keeps its name, start, end, parent and request id;
//! the log is written out as a Chrome trace when the run ends.

use lowband_trace::{RoundEvent, Tracer};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: u64,
}

/// Durations of one span name, aggregated over the log.
#[derive(Default, Clone)]
pub struct Layer {
    /// Per-occurrence duration, ns.
    pub total: Vec<f64>,
    /// Per-occurrence self time (duration minus direct children), ns.
    pub own: Vec<f64>,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tag the spans opened from now on with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self, name: &'static str) {
        let end = self.now();
        let idx = self.open.pop().expect("span exit without a matching enter");
        debug_assert_eq!(self.spans[idx].name, name, "unbalanced span");
        self.spans[idx].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit(name);
        out
    }

    /// Per-name durations and self times.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let layer = out.entry(s.name).or_default();
            layer.total.push(dur as f64);
            layer.own.push(dur.saturating_sub(child_ns[i]) as f64);
        }
        out
    }

    /// Write the log as a Chrome `trace_event` document of complete
    /// (`"X"`) events, parent index and request id in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}{sep}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.request
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

impl Tracer for SpanLog {
    fn span_enter(&mut self, name: &'static str) {
        self.enter(name);
    }

    fn span_exit(&mut self, name: &'static str) {
        self.exit(name);
    }

    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    fn histogram(&mut self, _name: &'static str, _value: u64) {}

    fn round(&mut self, _event: RoundEvent) {}

    fn node_loads(&mut self, _sends: &[u64], _recvs: &[u64]) {}
}

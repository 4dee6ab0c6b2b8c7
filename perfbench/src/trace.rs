//! In-memory span recorder. Spans are kept until the run ends and then
//! written out as JSON lines; per-layer metrics are derived from them
//! (durations, children, self time).

use crate::alloc;
use sph_json::Value;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Spans of one request (an episode, a served job) share this id.
    pub request: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Mutex::new(Vec::with_capacity(1 << 16)) }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a thread panicked while recording a span")
    }

    /// Record `f` as span `name`; `f` receives the new span's id so it can
    /// parent child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans();
            spans.push(Span { name, start: 0.0, end: f64::NAN, parent, request });
            spans.len() - 1
        };
        let start = self.now();
        let out = f(id);
        let end = self.now();
        let mut spans = self.spans();
        spans[id].start = start;
        spans[id].end = end;
        out
    }

    /// [`Tracer::span`] that also charges the allocations made inside it
    /// to allocation bucket `layer`. Main thread only (see `alloc`).
    pub fn layer<R>(
        &self,
        name: &'static str,
        layer: usize,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let previous = alloc::enter(layer);
        let out = self.span(name, parent, request, f);
        alloc::leave(previous);
        out
    }

    /// Record an interval that was observed rather than executed here
    /// (e.g. a served job's queue wait, seen by polling); returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        let span = Span { name, start: at(start), end: at(end), parent, request };
        let mut spans = self.spans();
        spans.push(span);
        spans.len() - 1
    }

    pub fn get(&self, id: usize) -> Span {
        self.spans()[id].clone()
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: usize) -> Vec<Span> {
        self.spans().iter().filter(|s| s.parent == Some(id)).cloned().collect()
    }

    /// Write every span as one JSON object per line, with its self time
    /// (duration minus the time its direct children cover).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut child_time = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.dur();
            }
        }
        let mut out = String::with_capacity(spans.len() * 120);
        for (i, s) in spans.iter().enumerate() {
            let line = Value::obj(vec![
                ("id", Value::Num(i as f64)),
                ("name", Value::str(s.name)),
                ("start", Value::Num(s.start)),
                ("end", Value::Num(s.end)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                ("request", Value::Str(format!("{:016x}", s.request))),
                ("self", Value::Num(s.dur() - child_time[i])),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

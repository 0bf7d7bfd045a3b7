//! In-memory span recorder around calls into hhsim's public functions.
//!
//! Spans are recorded by the benchmark's own code, from outside the
//! program: name, layer, start, end, parent span and pass id. They stay
//! in memory until the run ends and are then written as a Chrome trace.
//! A layer's self time is its span minus the part its children cover.

use crate::clock::Stopwatch;
use std::collections::BTreeMap;
use std::io::{self, Write};

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called ("render:fig3", "run_phase:flat", ...).
    pub name: String,
    /// The hhsim layer the call belongs to ("cluster", "arch", ...).
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The pass the span belongs to (spans of one pass share it).
    pub pass: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; always times the call so that per-layer
/// rates can be computed on untraced passes too.
pub struct Tracer {
    enabled: bool,
    epoch: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only times.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next pass: later spans carry the new pass id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Runs `f` inside a span and returns its result with the wall
    /// seconds it took. `f` receives the tracer so it can open children.
    pub fn span<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let t0 = Stopwatch::start();
            let out = f(self);
            return (out, t0.seconds());
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: self.epoch.nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.epoch.nanos();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        let secs = span.dur_ns() as f64 / 1e9;
        (out, secs)
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto). `ts`/`dur` are microseconds; `args` carries the span id,
    /// its parent, the pass id and the self time.
    pub fn write_chrome_trace(&self, w: &mut impl Write) -> io::Result<()> {
        let selfs = self_ns(&self.spans);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"pass\":{},\
                 \"self_us\":{:.3}}}}}{comma}",
                crate::json::escape(&s.name),
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.pass,
                selfs[i] as f64 / 1e3,
            )?;
        }
        writeln!(w, "]}}")
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap (the
/// recorder is a stack), so that part is the sum of their durations.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}

/// Self seconds summed per layer over the spans of `pass`.
pub fn layer_self_s(spans: &[Span], pass: u32) -> BTreeMap<&'static str, f64> {
    let selfs = self_ns(spans);
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(selfs) {
        if s.pass == pass {
            *out.entry(s.layer).or_insert(0.0) += ns as f64 / 1e9;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>, layer: &'static str) -> Span {
        Span {
            name: "s".into(),
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // root [0,100) with children [10,30) and [40,90); the second
        // child has its own child [50,60).
        let spans = vec![
            span(0, 100, None, "bench"),
            span(10, 30, Some(0), "arch"),
            span(40, 90, Some(0), "cluster"),
            span(50, 60, Some(2), "des"),
        ];
        assert_eq!(self_ns(&spans), vec![30, 20, 40, 10]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
        let by_layer = layer_self_s(&spans, 1);
        assert_eq!(by_layer["cluster"], 40e-9);
        assert!(layer_self_s(&spans, 2).is_empty());
    }

    #[test]
    fn recorder_nests_and_tags_passes() {
        let mut t = Tracer::new(true);
        t.next_pass();
        let (v, secs) = t.span("outer", "bench", |t| t.span("inner", "des", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].pass, 1);
        let mut buf = Vec::new();
        t.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"name\":\"inner\",\"cat\":\"des\",\"ph\":\"X\""));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.span("x", "bench", |_| 1 + 1);
        assert_eq!(v, 2);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}

//! In-memory span tracer for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions: name, start, end, parent span and run
//! id. They stay in memory until the run ends and are then written out
//! with the report. A disabled tracer records nothing and never reads the
//! clock, so the untraced run pays one branch per span site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`; the layer is the crate the call goes into.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The scenario run this span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { epoch: Instant::now(), on: false, run: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer { on: true, spans: Vec::with_capacity(4096), ..Tracer::off() }
    }

    /// Tag later spans with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, run: self.run });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close the span `id`, which must be the innermost open one, and
    /// return its duration in seconds (0 when disabled).
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let Some(idx) = id.0 else { return 0.0 };
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].dur_ns() as f64 * 1e-9
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part its direct
    /// children cover (children never overlap — the tracer is
    /// single-threaded and strictly nested).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time summed per span name, seconds.
    pub fn self_s_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Durations of every span named `name`, seconds, in run order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-9).collect()
    }

    /// The spans as a JSON array (hand-rolled; every field is an integer
    /// or a static name).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("a");
        t.time("b", || ());
        t.exit(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        let root = t.enter("root");
        t.time("child", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit(root);
        let own = t.self_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0] + own[1], t.spans()[0].dur_ns());
        assert!(own[1] >= 2_000_000);
    }
}

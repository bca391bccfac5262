//! In-memory span recorder for traced runs, written out at the end as a
//! Chrome `trace_event` document (one track per layer) plus a per-layer
//! self-time table.
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! the layers' own sources carry no instrumentation. A disabled tracer
//! records nothing, so the same request code serves untraced runs.

use sara_util::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The repository modules a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own request envelope.
    Bench,
    Core,
    Pnr,
    Sim,
    Sarad,
}

impl Layer {
    pub const ALL: [Layer; 5] = [Layer::Bench, Layer::Core, Layer::Pnr, Layer::Sim, Layer::Sarad];

    /// Short name used in metric names (`self.<short>_ms`).
    pub fn short(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Core => "core",
            Layer::Pnr => "pnr",
            Layer::Sim => "sim",
            Layer::Sarad => "sarad",
        }
    }

    /// Track name: the crate the layer lives in.
    pub fn track(self) -> &'static str {
        match self {
            Layer::Bench => "pipebench (request)",
            Layer::Core => "sara-core",
            Layer::Pnr => "sara-pnr",
            Layer::Sim => "plasticine-sim",
            Layer::Sarad => "sarad",
        }
    }
}

#[derive(Debug, Clone)]
struct Span {
    name: String,
    layer: Layer,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    req: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer { on: false, t0, spans: Vec::new(), open: Vec::new(), req: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Tag the spans that follow with request id `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, layer: Layer, name: &str) -> SpanId {
        self.begin_at(layer, name, Instant::now())
    }

    pub fn begin_at(&mut self, layer: Layer, name: &str, at: Instant) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: self.us(at),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_at(id, Instant::now());
    }

    pub fn end_at(&mut self, id: SpanId, at: Instant) {
        let Some(i) = id.0 else { return };
        let end = self.us(at);
        self.spans[i].end_us = end;
        let top = self.open.pop();
        assert_eq!(top, Some(i), "spans must close in LIFO order");
    }

    /// A closed span over `[from, to]` under the currently open span.
    pub fn record(&mut self, layer: Layer, name: &str, from: Instant, to: Instant) {
        let id = self.begin_at(layer, name, from);
        self.end_at(id, to);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, layer: Layer, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time (duration minus the part its child spans cover) of each
    /// span, in µs.
    fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_us - s.start_us;
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| (s.end_us - s.start_us) - c).collect()
    }

    /// Number of request envelopes (root `Bench` spans) recorded.
    pub fn requests(&self) -> usize {
        self.spans.iter().filter(|s| s.parent.is_none() && s.layer == Layer::Bench).count()
    }

    /// Total duration of the request envelopes, in ms.
    pub fn request_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.layer == Layer::Bench)
            .map(|s| s.end_us - s.start_us)
            .sum::<f64>()
            / 1e3
    }

    /// Self time per layer over spans inside request envelopes, in ms.
    pub fn layer_self_ms(&self) -> BTreeMap<Layer, f64> {
        let mut root_of = vec![usize::MAX; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = match s.parent {
                Some(p) => root_of[p],
                None => i,
            };
        }
        let mut out: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
        for (i, st) in self.self_times().into_iter().enumerate() {
            let root = &self.spans[root_of[i]];
            if root.layer == Layer::Bench {
                *out.entry(self.spans[i].layer).or_default() += st / 1e3;
            }
        }
        out
    }

    /// Self time and count per span name, in ms, for the table.
    pub fn name_self_ms(&self) -> BTreeMap<(Layer, String), (f64, usize)> {
        let mut out: BTreeMap<(Layer, String), (f64, usize)> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry((s.layer, s.name.clone())).or_default();
            e.0 += st / 1e3;
            e.1 += 1;
        }
        out
    }

    /// The Chrome `trace_event` document: one thread per layer, one
    /// complete (`X`) event per span with its request id and parent.
    pub fn chrome_trace(&self, source: &str) -> Json {
        let mut events = vec![Json::object()
            .set("name", "process_name")
            .set("ph", "M")
            .set("pid", 0)
            .set("tid", 0)
            .set("args", Json::object().set("name", source))];
        for (tid, l) in Layer::ALL.iter().enumerate() {
            events.push(
                Json::object()
                    .set("name", "thread_name")
                    .set("ph", "M")
                    .set("pid", 0)
                    .set("tid", tid)
                    .set("args", Json::object().set("name", l.track())),
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            let tid = Layer::ALL.iter().position(|&l| l == s.layer).expect("known layer");
            let mut args = Json::object().set("id", i).set("req", s.req);
            if let Some(p) = s.parent {
                args = args.set("parent", p).set("parent_name", self.spans[p].name.as_str());
            }
            events.push(
                Json::object()
                    .set("name", s.name.as_str())
                    .set("cat", s.layer.short())
                    .set("ph", "X")
                    .set("pid", 0)
                    .set("tid", tid)
                    .set("ts", s.start_us)
                    .set("dur", s.end_us - s.start_us)
                    .set("args", args),
            );
        }
        Json::object()
            .set("displayTimeUnit", "ms")
            .set("traceEvents", Json::Array(events))
            .set("otherData", Json::object().set("source", source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        tr.set_enabled(true);
        let ms = |n: u64| t0 + std::time::Duration::from_millis(n);
        let root = tr.begin_at(Layer::Bench, "request", ms(0));
        tr.record(Layer::Core, "core.compile", ms(1), ms(3));
        tr.record(Layer::Sim, "sim.active", ms(3), ms(9));
        tr.end_at(root, ms(10));
        let by_layer = tr.layer_self_ms();
        assert!((by_layer[&Layer::Bench] - 2.0).abs() < 1e-9);
        assert!((by_layer[&Layer::Core] - 2.0).abs() < 1e-9);
        assert!((by_layer[&Layer::Sim] - 6.0).abs() < 1e-9);
        assert!((tr.request_ms() - 10.0).abs() < 1e-9);
        assert_eq!(tr.requests(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(Instant::now());
        let id = tr.begin(Layer::Core, "x");
        tr.end(id);
        assert_eq!(tr.requests(), 0);
        assert_eq!(tr.name_self_ms().len(), 0);
    }
}

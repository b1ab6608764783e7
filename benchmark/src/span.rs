//! In-memory spans for the traced run. A span is recorded from the
//! benchmark's own code around a call into a layer; it carries its name
//! (`layer.what`), start and end, the span that caused it and the
//! operation it belongs to. Nothing is written until the run ends.
//!
//! Self time is a span's duration minus the time its children cover, so
//! the self times of a tree sum to the root's duration exactly.

use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The replayed operation (or probe) this span belongs to; spans of
    /// one operation share it.
    pub op: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span is attributed to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "an opened span must be ended"]
pub struct Open(usize);

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) -> usize {
        assert!(self.stack.is_empty(), "operations do not nest");
        self.op += 1;
        self.op
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close a span; spans close innermost first. Returns its seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        let now = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = now;
        span.duration_ns() as f64 * 1e-9
    }

    /// Time `f` under a span and return its result and seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }
}

/// Self time of every span, in nanoseconds: duration minus the summed
/// durations of its direct children (children never overlap: one thread
/// records them, innermost first).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Seconds of all spans with this name.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

/// Self seconds per layer over the span trees rooted at `root_name`
/// spans, largest first, with each layer's share of those roots' total.
pub fn layer_shares(spans: &[Span], root_name: &str) -> Vec<(String, f64, f64)> {
    let own = self_times_ns(spans);
    // A span counts when its outermost ancestor is a `root_name` span.
    let in_tree: Vec<bool> = (0..spans.len())
        .map(|mut i| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            spans[i].name == root_name
        })
        .collect();
    let mut by_layer: Vec<(String, f64)> = Vec::new();
    let mut total = 0.0;
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| in_tree[*i]) {
        let secs = own[i] as f64 * 1e-9;
        total += secs;
        match by_layer.iter_mut().find(|(l, _)| l == s.layer()) {
            Some(entry) => entry.1 += secs,
            None => by_layer.push((s.layer().to_string(), secs)),
        }
    }
    by_layer.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_layer
        .into_iter()
        .map(|(l, s)| (l, s, if total > 0.0 { s / total } else { 0.0 }))
        .collect()
}

/// Chrome `trace_event` JSON (the format the repo's own telemetry
/// exports): one complete (`X`) event per span, microsecond timestamps,
/// the operation id as the thread id so operations stack side by side.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"workload\": {}, \"span\": {i}, \"parent\": {}}}}}",
            crate::json::quote(s.name),
            crate::json::quote(s.layer()),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.op,
            crate::json::quote(workload),
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

pub fn write(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100] -> engine.new [10,30], engine.measure [30,90]
        //            engine.measure -> sim.assemble [80,90]
        let spans = vec![
            span("op", 0, 100, None),
            span("engine.new", 10, 30, Some(0)),
            span("engine.measure", 30, 90, Some(0)),
            span("sim.assemble", 80, 90, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn layer_shares_cover_the_op_total_and_skip_other_roots() {
        let spans = vec![
            span("op", 0, 100, None),
            span("engine.new", 10, 30, Some(0)),
            span("engine.measure", 30, 90, Some(0)),
            span("probe", 100, 400, None),
            span("engine.measure", 100, 400, Some(3)),
        ];
        let shares = layer_shares(&spans, "op");
        assert_eq!(shares[0].0, "engine");
        assert!((shares[0].1 - 80e-9).abs() < 1e-15);
        assert!((shares.iter().map(|s| s.2).sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares.iter().map(|s| s.1).sum::<f64>() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_exports_loadable_json() {
        let mut t = Tracer::new();
        t.next_op();
        let op = t.begin("op");
        let ((), inner) = t.time("engine.new", || std::hint::black_box(()));
        let outer = t.end(op);
        assert!(outer >= inner);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 1);
        let doc = crate::json::parse(&chrome_trace(&t.spans, "w")).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }
}

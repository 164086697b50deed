//! Spans recorded from the benchmark's own files, around calls into the
//! measured crates' public functions. Nothing inside those crates is
//! instrumented; spans inside the program are a later change (ROADMAP 1a).
//!
//! Spans stay in memory until the run ends. A layer's self time is its
//! span's duration minus the part its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share an id.
    pub op_id: u64,
}

/// Count, total and self time of every span of one name.
#[derive(Default, Clone, Copy)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Layer {
    /// Mean duration in µs (0 for a layer that recorded nothing).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64 / 1e3
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    /// A tracer whose clock starts at `t0`; tracers of several client
    /// threads share one `t0` so [`Tracer::absorb`] can merge them.
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start a new operation: the spans that follow carry `id`.
    /// Concurrent clients keep their ids apart themselves.
    pub fn begin_op(&mut self, id: u64) {
        self.op_id = id;
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. `f` receives the tracer so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Record a child span whose duration another party measured (the
    /// server's own `wall_ns` inside a client-observed submission). Only
    /// the duration is known, so it is centred in its parent.
    pub fn child_of_known_duration(&mut self, name: &'static str, dur_ns: u64) {
        let parent = *self.open.last().expect("a span is open");
        let p_start = self.spans[parent].start_ns;
        let p_len = self.now_ns().saturating_sub(p_start);
        let dur_ns = dur_ns.min(p_len);
        let start_ns = p_start + (p_len - dur_ns) / 2;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            op_id: self.op_id,
        });
    }

    /// Merge another thread's spans (same `t0`) into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time by span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let l = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            l.count += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The layer named `name`, all zeros if it recorded nothing.
    pub fn layer(&self, name: &str) -> Layer {
        self.layers().get(name).copied().unwrap_or_default()
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// The self-time table, one row per span name.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<34} {:>8} {:>12} {:>12} {:>10}\n",
            "span", "count", "total_ms", "self_ms", "mean_us"
        );
        for (name, l) in self.layers() {
            out.push_str(&format!(
                "{:<34} {:>8} {:>12.3} {:>12.3} {:>10.2}\n",
                name,
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                l.mean_us()
            ));
        }
        out
    }

    /// Write every span as `name,start_ns,end_ns,parent,op_id`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,start_ns,end_ns,parent,op_id")?;
        for s in &self.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                w,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
        w.flush()
    }
}

/// Run `f` as operation `op_id` inside a span named `name` when there is
/// a tracer, bare when there is none: what lets a workload drive its
/// traced and its untraced pass through one loop.
pub fn spanned<T>(
    tr: &mut Option<&mut Tracer>,
    op_id: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(tr) => {
            tr.begin_op(op_id);
            tr.span(name, |_| f())
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new(Instant::now());
        let nap = || std::thread::sleep(std::time::Duration::from_millis(2));
        tr.span("outer", |tr| {
            tr.span("inner", |_| nap());
            nap();
            tr.child_of_known_duration("told", 1_000);
        });
        let layers = tr.layers();
        let (outer, inner, told) = (layers["outer"], layers["inner"], layers["told"]);
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(told.total_ns, 1_000);
        assert_eq!(
            outer.self_ns,
            outer.total_ns - inner.total_ns - told.total_ns
        );
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, Some(0));
    }

    #[test]
    fn absorb_reindexes_parents_and_ops_stay_apart() {
        let t0 = Instant::now();
        let (mut a, mut b) = (Tracer::new(t0), Tracer::new(t0));
        a.begin_op(2);
        a.span("x", |_| ());
        b.begin_op(3);
        b.span("y", |tr| tr.span("z", |_| ()));
        let (ida, idb) = (a.spans()[0].op_id, b.spans()[0].op_id);
        assert_ne!(ida, idb);
        a.absorb(b);
        assert_eq!(a.spans()[2].name, "z");
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}

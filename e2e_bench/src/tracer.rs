//! Spans around the benchmark's calls into each layer, kept in memory
//! and written out when a traced run ends: a Chrome trace-event file
//! and a per-layer self-time table.
//!
//! The spans live in the benchmark, not in the program: each one wraps
//! a call the benchmark makes into a layer's public API. A disabled
//! tracer records nothing, so untraced phases pay one load and branch
//! per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    /// The enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// The request this span serves (shared by all spans of one
    /// request); 0 when it serves none.
    pub req: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// An open span; records itself when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    parent: u64,
    req: u64,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts or stops recording; spans already open still record.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a span named `name` (by convention `<layer>.<call>`).
    pub fn span(&self, name: &'static str) -> Option<Span<'_>> {
        self.span_req(name, 0)
    }

    /// Opens a span that serves request `req`.
    pub fn span_req(&self, name: &'static str, req: u64) -> Option<Span<'_>> {
        if !self.enabled() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Some(Span {
            tracer: self,
            name,
            id,
            parent,
            req,
            start: Instant::now(),
        })
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        let rec = SpanRec {
            name: self.name,
            id: self.id,
            parent: self.parent,
            req: self.req,
            tid: TID.with(|t| *t),
            start_ns: self.tracer.nanos(self.start),
            end_ns: self.tracer.nanos(end),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

/// `spans` as a Chrome trace-event JSON array (complete events,
/// microsecond timestamps), loadable in `chrome://tracing` or Perfetto.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}{sep}",
            s.name,
            layer_of(s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req,
        );
    }
    out.push_str("]\n");
    out
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-name totals: call count, total time and self time (total minus
/// the part of each span's interval its child spans cover).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get(&s.id)
            .map(|c| covered_ns(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += dur;
        row.self_ns += dur - covered.min(dur);
    }
    table
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// The self-time table as aligned text, one row per span name, with a
/// per-layer subtotal of self time.
pub fn render_self_times(table: &BTreeMap<&'static str, SelfTime>) -> String {
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, row) in table {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12.3} {:>12.3}",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
        *layers.entry(layer_of(name)).or_default() += row.self_ns;
    }
    out.push_str("\nself time by layer\n");
    for (layer, ns) in layers {
        let _ = writeln!(out, "{:<28} {:>12.3} ms", layer, ns as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> SpanRec {
        SpanRec {
            name,
            id,
            parent,
            req: 0,
            tid: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec("xp.prime", 1, 0, 0, 100),
            rec("sim.run", 2, 1, 10, 40),
            rec("sim.run", 3, 1, 30, 50), // overlaps the first child
            rec("core.estimate", 4, 0, 200, 210),
        ];
        let t = self_times(&spans);
        assert_eq!(t["xp.prime"].self_ns, 60);
        assert_eq!(t["sim.run"].count, 2);
        assert_eq!(t["sim.run"].total_ns, 50);
        assert_eq!(t["core.estimate"].self_ns, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("sim.run"));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("runtime.prime");
            let _inner = t.span("sim.run");
        }
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "runtime.prime").unwrap();
        let inner = spans.iter().find(|s| s.name == "sim.run").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(chrome_json(&spans).contains("\"ph\":\"X\""));
    }
}

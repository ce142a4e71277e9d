//! Benchmark-side spans around calls into each layer's public API.
//!
//! Nothing inside the program is instrumented: a span covers one call
//! the benchmark makes (a poll, a burst, an `advance_by`, ...). Spans
//! are kept in memory and written out when the benchmark ends. A layer's
//! self time is its spans' duration minus the time their children cover.

// sky-lint: allow-file(D002, host wall time is what the benchmark measures)

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sampling.poll`.
    pub name: Cow<'static, str>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload operation (poll or burst index) it belongs to.
    pub op: u64,
}

/// Collects spans when enabled; when disabled every call is a no-op, so
/// untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Debug)]
#[must_use]
pub struct Entered(Option<usize>);

impl Recorder {
    /// A recorder that records (`true`) or ignores (`false`) spans.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag subsequent spans with this operation id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span nested in the innermost open one.
    pub fn enter(&mut self, name: impl Into<Cow<'static, str>>) -> Entered {
        if !self.enabled {
            return Entered(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Entered(Some(id))
    }

    /// End a span started by [`enter`](Self::enter).
    pub fn exit(&mut self, entered: Entered) {
        if let Some(id) = entered.0 {
            self.spans[id].end_ns = self.ns(Instant::now());
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans exit in nesting order");
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let entered = self.enter(name);
        let out = f();
        self.exit(entered);
        out
    }

    /// Record a finished span measured elsewhere (e.g. on a worker
    /// thread), as a child of the innermost open span.
    pub fn record(&mut self, name: impl Into<Cow<'static, str>>, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name: name.into(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.stack.last().copied(),
                op: self.op,
            });
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus the time children cover), s.
    pub self_s: f64,
}

/// Per-name totals and self times over the spans whose outermost
/// ancestor is named `root` (a phase such as `setup` or `timed`).
pub fn layer_times(spans: &[Span], root: &str) -> BTreeMap<String, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    // A parent is always recorded before its children.
    let mut top: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        top.push(s.parent.map_or(i, |p| top[p]));
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (i, (s, kids)) in spans.iter().zip(children.iter_mut()).enumerate() {
        if spans[top[i]].name != root {
            continue;
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let self_ns = dur.saturating_sub(covered_ns(kids));
        let entry = out.entry(s.name.to_string()).or_default();
        entry.count += 1;
        entry.total_s += dur as f64 * 1e-9;
        entry.self_s += self_ns as f64 * 1e-9;
    }
    out
}

/// Length of the union of intervals (children may overlap when they ran
/// on parallel workers).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Append `spans` as JSON lines tagged with their pass.
pub fn write_jsonl(out: &mut String, pass: usize, spans: &[Span]) {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"pass\":{pass},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )
        .expect("writing to a String cannot fail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a", 30, 60, Some(0)),
            span("b", 80, 90, Some(0)),
            span("leaf", 12, 20, Some(1)),
            span("other", 100, 110, None),
            span("a", 101, 109, Some(5)),
        ];
        let t = layer_times(&spans, "pass");
        assert!(!t.contains_key("other"));
        assert_eq!(t["pass"].count, 1);
        assert!((t["pass"].self_s - 40e-9).abs() < 1e-15);
        assert_eq!(t["a"].count, 2);
        assert!((t["a"].total_s - 60e-9).abs() < 1e-15);
        assert!((t["a"].self_s - 52e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let entered = rec.enter("x");
        rec.exit(entered);
        assert_eq!(rec.time("y", || 7), 7);
        assert!(rec.spans().is_empty());
    }
}

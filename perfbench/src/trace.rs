//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: a name (the layer, e.g.
//! `sched.solve`), a start and end on the run's monotonic clock, the span
//! that was open when it started (its parent), and the id of the request it
//! belongs to — spans of one request share an id. Spans are kept in memory
//! and written out once, when the run ends.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover. With tracing off, [`Tracer::span`] calls
//! the closure and records nothing.

use mals_util::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`gen.daggen`, `sched.solve`, …).
    pub name: &'static str,
    /// Request id shared by every span of one request.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for request `id`. Spans opened
    /// by `f` (through the tracer it receives) become children of this one.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.ns(Instant::now());
        result
    }

    /// Records an interval measured elsewhere (another thread, or a total
    /// a layer reports about itself) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.enabled {
            let (start, end) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                id,
                parent: self.open.last().copied(),
                start,
                end: end.max(start),
            });
        }
    }

    /// Per span name: summed duration and summed self time, in ms.
    pub fn ms_by_name(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let children = children_of(&self.spans);
        let mut totals = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let entry = totals.entry(span.name).or_insert((0.0, 0.0));
            entry.0 += (span.end - span.start) as f64 / 1e6;
            entry.1 += self_time_ns(&self.spans, &children[index], index) as f64 / 1e6;
        }
        totals
    }

    /// The spans as JSON lines: `{"i","name","id","parent","start_ns","end_ns"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("i", Json::Num(index as f64)),
                ("name", Json::str(span.name)),
                ("id", Json::Num(span.id as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(span.start as f64)),
                ("end_ns", Json::Num(span.end as f64)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

/// Child indices of every span.
fn children_of(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(index);
        }
    }
    children
}

/// Self time of `spans[index]`: its duration minus the length of the union
/// of its children's intervals, each clipped to the parent's interval (so
/// overlapping children — e.g. recorded from other threads — count once).
pub fn self_time_ns(spans: &[Span], children: &[usize], index: usize) -> u64 {
    let parent = &spans[index];
    let mut covered: Vec<(u64, u64)> = children
        .iter()
        .map(|&c| {
            (
                spans[c].start.clamp(parent.start, parent.end),
                spans[c].end.clamp(parent.start, parent.end),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    covered.sort_unstable();
    let mut union = 0;
    let mut cursor = parent.start;
    for (s, e) in covered {
        let s = s.max(cursor);
        if e > s {
            union += e - s;
            cursor = e;
        }
    }
    (parent.end - parent.start) - union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start,
            end,
        }
    }

    fn self_times(spans: &[Span]) -> Vec<u64> {
        let children = children_of(spans);
        (0..spans.len())
            .map(|i| self_time_ns(spans, &children[i], i))
            .collect()
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] ⊃ a [10,40] ⊃ a1 [15,25]; b [50,90].
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root's interval exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped_and_merged() {
        // Children [10,50] and [30,70] overlap; [90,130] overhangs the
        // parent's end at 100: covered = [10,70] ∪ [90,100] = 70.
        let spans = vec![
            span("root", None, 0, 100),
            span("x", Some(0), 10, 50),
            span("y", Some(0), 30, 70),
            span("z", Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_spans_and_sums_self_time_by_name() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7));
        let by_name = tracer.ms_by_name();
        let (outer_total, outer_self) = by_name["outer"];
        let (inner_total, inner_self) = by_name["inner"];
        assert_eq!(inner_total, inner_self);
        assert!((outer_self + inner_self - outer_total).abs() < 1e-6);
        assert!(inner_self >= 2.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("outer", 1, |t| t.span("inner", 1, |_| 42));
        tracer.record("x", 1, Instant::now(), Instant::now());
        assert_eq!(value, 42);
        assert!(tracer.spans().is_empty());
    }
}

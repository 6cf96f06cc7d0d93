//! In-memory spans recorded by the benchmark around its calls into each
//! layer. The program under test is opaque from here; spans inside it are
//! ROADMAP item 6's job. Self time = duration − the part children cover.

use crate::clock::now_ns;
use crate::json::Json;

/// One timed interval. `parent` indexes the tracer's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An interval that has started and not yet ended.
#[derive(Debug)]
pub struct OpenSpan {
    start_ns: u64,
    /// The span's place in the tracer's list (None when not recorded).
    slot: Option<usize>,
}

impl OpenSpan {
    /// The index children pass as `parent` (None when tracing is off).
    pub fn id(&self) -> Option<usize> {
        self.slot
    }
}

/// Collects spans when enabled; always times. Timed code takes the same
/// path either way, so the traced − untraced difference is the cost of
/// recording and nothing else.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

/// Spans kept per tracer; beyond this only timing continues. Bounds
/// memory on a fast machine without changing what is timed.
const MAX_SPANS: usize = 400_000;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, spans: Vec::new() }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Starts an interval.
    pub fn begin(&mut self, name: &'static str, op_id: u64, parent: Option<usize>) -> OpenSpan {
        let slot = (self.enabled && self.spans.len() < MAX_SPANS).then(|| {
            self.spans.push(Span { name, op_id, parent, start_ns: 0, end_ns: 0 });
            self.spans.len() - 1
        });
        let start_ns = now_ns();
        if let Some(slot) = slot {
            self.spans[slot].start_ns = start_ns;
        }
        OpenSpan { start_ns, slot }
    }

    /// Ends an interval and returns its duration in nanoseconds.
    pub fn end(&mut self, open: OpenSpan) -> u64 {
        let end_ns = now_ns();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = end_ns;
        }
        end_ns - open.start_ns
    }

    /// Times `f` as one leaf interval.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let open = self.begin(name, op_id, parent);
        let out = f();
        (out, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans in (a client thread's, say), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children are clipped to the parent and their
/// overlaps counted once, so concurrent children cannot drive a self
/// time below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, heaviest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut totals: std::collections::BTreeMap<&'static str, (u64, usize)> = Default::default();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let slot = totals.entry(s.name).or_default();
        slot.0 += own;
        slot.1 += 1;
    }
    let mut rows: Vec<_> = totals.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// One span per line, as JSON.
pub fn render_spans(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("id", Json::Num(id as f64)),
            ("name", Json::str(s.name)),
            ("op_id", Json::Num(s.op_id as f64)),
            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op_id: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", None, 0, 100),
            span("parse", Some(0), 10, 30),
            span("execute", Some(0), 30, 80),
            span("scan", Some(2), 35, 60),
            // Overlaps `execute` (a concurrent child) and overruns the parent.
            span("encode", Some(0), 70, 120),
        ];
        // op: 100 − (20 + 50 + the 20 of encode not already covered) = 10.
        assert_eq!(self_times(&spans), vec![10, 20, 25, 25, 50]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("encode", 50, 1));
        assert_eq!(by_name.iter().map(|r| r.1).sum::<u64>(), 130);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut off = Tracer::new(false);
        let root = off.begin("op", 1, None);
        assert_eq!(root.id(), None);
        let (v, _) = off.span("leaf", 1, root.id(), || 7);
        off.end(root);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let root = on.begin("op", 9, None);
        on.span("leaf", 9, root.id(), || ());
        let total = on.end(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[0].end_ns - on.spans()[0].start_ns, total);
        assert!(on.spans()[1].start_ns >= on.spans()[0].start_ns);

        let mut merged = Tracer::new(true);
        merged.span("first", 0, None, || ());
        merged.absorb(on);
        assert_eq!(merged.spans()[2].parent, Some(1));
        assert_eq!(render_spans(merged.spans()).lines().count(), 3);
    }
}

//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent}`; spans nest by call
//! order. They are kept in a `Vec` and written out once, when the
//! traced pass ends. A layer's **self time** is its span minus the part
//! of that interval its direct children cover.

use std::time::Instant;

use elsc_obs::json::{array, Obj};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<op>` (or a phase name: `setup`, `run`, `report`, ...).
    pub name: String,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and, defensively, anything opened inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        (r, self.spans[id].dur_ns() as f64 / 1e9)
    }

    /// Grafts spans recorded elsewhere (a child process) under the
    /// innermost open span, shifting their clock by `offset_ns`.
    pub fn graft(&mut self, spans: &[Span], offset_ns: u64) {
        let base = self.spans.len();
        let under = self.open.last().copied();
        for s in spans {
            self.spans.push(Span {
                name: s.name.clone(),
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
                parent: s.parent.map(|p| p + base).or(under),
            });
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ns since the origin — the offset to graft a child started now.
    pub fn offset_ns(&self) -> u64 {
        self.now_ns()
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// covered by its direct children (children are clipped to the parent,
/// so a clock skew between processes can never drive it negative).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let p = &spans[id];
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            s.end_ns
                .min(p.end_ns)
                .saturating_sub(s.start_ns.max(p.start_ns))
        })
        .sum();
    p.dur_ns().saturating_sub(covered)
}

/// Renders spans as the trace-file document. Every span of one traced
/// pass carries the same `workload` — the identifier they share.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let items = spans.iter().enumerate().map(|(i, s)| {
        let o = Obj::new()
            .u64("id", i as u64)
            .str("name", &s.name)
            .u64("start_ns", s.start_ns)
            .u64("end_ns", s.end_ns);
        let o = match s.parent {
            Some(p) => o.u64("parent", p as u64),
            None => o.raw("parent", "null"),
        };
        o.str("workload", workload)
            .u64("self_ns", self_ns(spans, i))
            .build()
    });
    Obj::new()
        .str("workload", workload)
        .raw("spans", array(items))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("workload", 0, 100, None),
            span("setup", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("machine.step", 40, 60, Some(2)),
        ];
        // workload: 100 - (20 + 60); the grandchild is not subtracted twice.
        assert_eq!(self_ns(&spans, 0), 20);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 2), 40);
        assert_eq!(self_ns(&spans, 3), 20);
        // Self times of a tree sum to the root's duration.
        let total: u64 = (0..spans.len()).map(|i| self_ns(&spans, i)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("p", 10, 20, None),
            span("c", 5, 25, Some(0)), // skewed clock: sticks out both ends
        ];
        assert_eq!(self_ns(&spans, 0), 0);
    }

    #[test]
    fn recorder_nests_by_call_order_and_grafts() {
        let mut r = Recorder::new();
        let ((), _) = r.time("outer", |r| {
            let ((), _) = r.time("inner", |_| ());
            r.graft(
                &[
                    span("child.root", 0, 5, None),
                    span("child.leaf", 1, 2, Some(0)),
                ],
                7,
            );
        });
        let s = r.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].parent, s[2].start_ns), (Some(0), 7));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[0].end_ns >= s[1].end_ns);
        assert_eq!(self_ns(s, 2), 4);
    }
}

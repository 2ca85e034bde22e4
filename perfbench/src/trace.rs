//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A span has a name (`<layer>.<call>`), a start and an end relative to
//! the tracer's origin, and the span that was open when it began. Spans
//! stay in memory; the workload reduces them to per-layer metrics when
//! it ends. A disabled tracer records nothing, so the untraced run pays
//! one branch per call site.

use std::time::{Duration, Instant};

use crate::stats::Samples;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// Handle of an open span; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end = self.origin.elapsed();
            self.stack.retain(|&s| s != id);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Self time of every span named `name`: its duration minus the part
    /// its child spans cover.
    pub fn self_times(&self, name: &str) -> Samples {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = Samples::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                out.push((s.end - s.start).saturating_sub(child_time[i]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.enter("a.outer");
        t.span("b.inner", || std::thread::sleep(Duration::from_millis(2)));
        t.exit(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let mut outer_self = t.self_times("a.outer");
        let mut inner_self = t.self_times("b.inner");
        assert!(inner_self.median() >= 0.002);
        assert!(outer_self.median() < inner_self.median());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a.call", || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}

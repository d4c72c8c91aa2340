//! The harness's own spans, recorded around each call into a layer during
//! the traced repetition, kept in memory and written as JSON lines when the
//! run ends. The kernel's `SpanRecord`s for a run are appended as children
//! of the harness span that caused them.
//!
//! A span's *self time* is its duration minus the part of it its children
//! cover (overlapping children are not counted twice).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use eden_kernel::SpanRecord;

/// One span: a named interval with the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the file.
    pub id: u64,
    /// The causing span (`None` for a root).
    pub parent: Option<u64>,
    /// Spans of one operation share this.
    pub trace: u64,
    /// `layer:what`, e.g. `eden-transput:run read-only`.
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// An in-memory span recorder, driven from the harness's main thread.
#[derive(Debug)]
pub struct Tracer {
    /// An untraced run hands the same code a tracer that records nothing.
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans currently open, outermost first.
    open: Vec<usize>,
    next_id: u64,
    next_trace: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer that records nothing: `span` just runs its body.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            next_trace: 1,
        }
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, parent: Option<u64>, trace: u64, name: String, start_ns: u64) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Run `body` inside a span named `name`, child of the span open around
    /// it (a root of a fresh trace if none is). Returns `body`'s value and
    /// the span's id (0 when the tracer is off).
    pub fn span<R>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        if !self.enabled {
            return (body(self), 0);
        }
        let (parent, trace) = match self.open.last() {
            Some(&i) => (Some(self.spans[i].id), self.spans[i].trace),
            None => {
                self.next_trace += 1;
                (None, self.next_trace - 1)
            }
        };
        let start = self.ns(Instant::now());
        let idx = self.push(parent, trace, name.to_owned(), start);
        self.open.push(idx);
        let value = body(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        (value, self.spans[idx].id)
    }

    /// Record an interval measured elsewhere (a waiter thread, say) as a
    /// child of span `parent`, clamped into the parent's interval.
    pub fn add_child(&mut self, parent: u64, name: &str, start: Instant, end: Instant) -> u64 {
        let Some(host) = self.span_by_id(parent).cloned() else {
            return 0;
        };
        let start_ns = self.ns(start).clamp(host.start_ns, host.end_ns);
        let end_ns = self.ns(end).clamp(start_ns, host.end_ns);
        let idx = self.push(Some(parent), host.trace, name.to_owned(), start_ns);
        self.spans[idx].end_ns = end_ns;
        self.spans[idx].id
    }

    /// Append the kernel's spans of one run as descendants of harness span
    /// `parent`. `kernel_epoch` is the harness's estimate of the kernel's
    /// observability epoch (the instant its kernel was built); kernel spans
    /// are clamped into the parent's interval, so an estimate that is off by
    /// the kernel's build time cannot produce a child outside its parent.
    /// Kernel spans keep their own causal links: a record whose parent is in
    /// `records` hangs under it, every other one under `parent`.
    pub fn add_kernel_spans(&mut self, parent: u64, kernel_epoch: Instant, records: &[SpanRecord]) {
        let Some(host) = self.span_by_id(parent).cloned() else {
            return;
        };
        let base = self.ns(kernel_epoch);
        let first = self.next_id;
        let index: std::collections::HashMap<u64, u64> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.span, first + i as u64))
            .collect();
        for r in records {
            let start = (base + r.start_ns).clamp(host.start_ns, host.end_ns);
            let end = (base + r.start_ns + r.queue_ns + r.sched_ns + r.service_ns)
                .clamp(start, host.end_ns);
            let up = r
                .parent
                .and_then(|p| index.get(&p).copied())
                .unwrap_or(parent);
            let idx = self.push(
                Some(up),
                host.trace,
                format!("eden-kernel:{} hop{}", r.op.as_str(), r.hop),
                start,
            );
            self.spans[idx].end_ns = end;
        }
    }

    /// [`add_kernel_spans`](Self::add_kernel_spans) for several harness
    /// spans at once: each gets the records whose trace id is in its list.
    pub fn add_kernel_spans_by_trace(
        &mut self,
        hosts: &[(u64, Vec<u64>)],
        kernel_epoch: Instant,
        records: &[SpanRecord],
    ) {
        for (span, traces) in hosts {
            let of_span: Vec<SpanRecord> = records
                .iter()
                .filter(|r| traces.contains(&r.trace))
                .cloned()
                .collect();
            self.add_kernel_spans(*span, kernel_epoch, &of_span);
        }
    }

    /// The span with this id.
    pub fn span_by_id(&self, id: u64) -> Option<&Span> {
        // Ids are handed out in push order, starting at 1.
        self.spans.get((id as usize).checked_sub(1)?)
    }

    /// Every span recorded so far, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`spans`](Self::spans).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(from, to) in kids.iter() {
                    let from = from.clamp(reach, s.end_ns);
                    let to = to.clamp(from, s.end_ns);
                    covered += to - from;
                    reach = reach.max(to);
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Write one JSON object per span to `path` (parent directories are
    /// created).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id,
                parent,
                s.trace,
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns,
                self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parent_and_trace() {
        let mut t = Tracer::new();
        let ((), outer) = t.span("outer", |t| {
            t.span("inner", |_| ());
        });
        let ((), other) = t.span("other", |_| ());
        let spans = t.spans();
        assert_eq!(spans[0].id, outer);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].trace, spans[0].trace);
        assert_eq!(spans[2].id, other);
        assert_eq!(spans[2].parent, None);
        assert_ne!(spans[2].trace, spans[0].trace);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn self_time_does_not_count_overlapping_children_twice() {
        let mut t = Tracer::new();
        let ((), root) = t.span("root", |_| ());
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        let at = |ns: u64| t.epoch + std::time::Duration::from_nanos(ns);
        let (a0, a1, b0, b1) = (at(10), at(50), at(30), at(70));
        t.add_child(root, "a", a0, a1);
        t.add_child(root, "b", b0, b1);
        // Children cover [10, 70): 60 ns of the root's 100.
        assert_eq!(t.self_times_ns(), vec![40, 40, 40]);
    }
}

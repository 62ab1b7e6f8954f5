//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side of
//! the boundary: name, start, end, the span that was open on the same
//! thread when it started (its parent), and the frame it served. Spans
//! stay in memory and are written out once, when the run ends, so the
//! recording itself does no I/O on the measured path.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"source.pull"`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The frame the call served, when it served one.
    pub frame: Option<u64>,
    /// Small per-process thread number.
    pub thread: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Log {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A span recorder; cloning shares the log. [`Tracer::off`] records
/// nothing and costs one branch per call site.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    log: Option<Arc<Log>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { log: None }
    }

    /// A recording tracer with its epoch at now.
    pub fn on() -> Self {
        Tracer {
            log: Some(Arc::new(Log {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Opens a span on this thread; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(log) = &self.log else {
            return SpanGuard { open: None };
        };
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_ns = log.epoch.elapsed().as_nanos() as u64;
        let index = {
            let mut spans = log.spans.lock().expect("span log is never poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                frame: None,
                thread: THREAD.with(|t| *t),
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard {
            open: Some((Arc::clone(log), index)),
        }
    }

    /// Records an already-finished interval as a span, child of the
    /// span open on this thread — for a phase whose boundaries are
    /// observed at two different calls.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        let Some(log) = &self.log else {
            return;
        };
        let ns = |t: Instant| t.saturating_duration_since(log.epoch).as_nanos() as u64;
        let parent = OPEN.with(|open| open.borrow().last().copied());
        log.spans
            .lock()
            .expect("span log is never poisoned")
            .push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end).max(ns(start)),
                parent,
                frame: None,
                thread: THREAD.with(|t| *t),
            });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.log.as_ref().map_or_else(Vec::new, |log| {
            log.spans
                .lock()
                .expect("span log is never poisoned")
                .clone()
        })
    }
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<(Arc<Log>, usize)>,
}

impl SpanGuard {
    /// Tags the span with the frame it served.
    pub fn frame(&self, id: u64) {
        if let Some((log, index)) = &self.open {
            log.spans.lock().expect("span log is never poisoned")[*index].frame = Some(id);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((log, index)) = self.open.take() else {
            return;
        };
        let end_ns = log.epoch.elapsed().as_nanos() as u64;
        if let Ok(mut spans) = log.spans.lock() {
            spans[index].end_ns = end_ns;
        }
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == index) {
                open.remove(pos);
            }
        });
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"frame\": {}, \"thread\": {}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.frame),
            s.thread
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            frame: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,60).
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two worker-thread children overlapping in [30,50), one running
        // past the parent's end: covered = [10,80) clipped to the parent.
        let spans = [
            span("run", 0, 70, None),
            span("w1", 10, 50, Some(0)),
            span("w2", 30, 80, Some(0)),
            span("w3", 35, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 40, 50, 10]);
    }

    #[test]
    fn recorded_spans_nest_by_thread() {
        let tracer = Tracer::on();
        {
            let outer = tracer.span("outer");
            outer.frame(7);
            {
                let _inner = tracer.span("inner");
            }
            let _second = tracer.span("second");
        }
        let _after = tracer.span("after");
        drop(_after);
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("second", Some(0)),
                ("after", None)
            ]
        );
        assert_eq!(spans[0].frame, Some(7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let selfs = self_times(&spans);
        assert!(selfs[0] <= spans[0].duration_ns());
    }

    #[test]
    fn off_records_nothing() {
        let tracer = Tracer::off();
        let guard = tracer.span("x");
        guard.frame(1);
        drop(guard);
        assert!(tracer.spans().is_empty());
    }
}

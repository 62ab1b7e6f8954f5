//! Delegating adapters the traced run puts at layer boundaries: a
//! [`FrameSource`] that times each pull and a [`ScheduleCache`] that
//! times each lookup. Both forward every call unchanged; the untraced
//! run does not use them at all.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use streamgrid_core::cache::{CompileRequest, ScheduleCache};
use streamgrid_core::framework::CompiledPipeline;
use streamgrid_core::pipeline::CompileError;
use streamgrid_core::source::{Frame, FrameSource};

use crate::trace::Tracer;

thread_local! {
    /// The frame this thread pulled last: the frame a following cache
    /// lookup serves (both run on the puller's thread).
    static LAST_FRAME: Cell<Option<u64>> = const { Cell::new(None) };
}

/// One `next_frame` call.
#[derive(Debug, Clone, Copy)]
pub struct Pull {
    pub start: Instant,
    pub ns: u64,
}

/// A shared, append-only sample log.
pub type Log<T> = Arc<Mutex<Vec<T>>>;

/// Takes every sample out of `log`.
pub fn drain<T>(log: &Log<T>) -> Vec<T> {
    std::mem::take(&mut *log.lock().expect("probe log is never poisoned"))
}

/// Times every pull of the wrapped source.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    tracer: Tracer,
    log: Log<Pull>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, tracer: Tracer, log: Log<Pull>) -> Self {
        TimedSource { inner, tracer, log }
    }
}

impl<S: FrameSource> FrameSource for TimedSource<S> {
    fn next_frame(&mut self) -> Option<Frame> {
        let span = self.tracer.span("source.pull");
        let start = Instant::now();
        let frame = self.inner.next_frame();
        let ns = start.elapsed().as_nanos() as u64;
        if let Some(frame) = &frame {
            span.frame(frame.id);
        }
        LAST_FRAME.with(|last| last.set(frame.as_ref().map(|f| f.id)));
        drop(span);
        self.log
            .lock()
            .expect("probe log is never poisoned")
            .push(Pull { start, ns });
        frame
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn remaining_frames(&self) -> Option<u64> {
        self.inner.remaining_frames()
    }
}

/// One `get_or_compile` call; the solver counters are set on misses.
#[derive(Debug, Clone, Copy)]
pub struct Lookup {
    pub end: Instant,
    pub ns: u64,
    pub miss: bool,
    pub lp_iterations: u64,
    pub bb_nodes: u64,
    pub constraints: u64,
}

/// Times every lookup of the wrapped cache and records the solver's
/// counters for the lookups that solved.
#[derive(Debug)]
pub struct TimedCache<C> {
    inner: C,
    tracer: Tracer,
    log: Log<Lookup>,
}

impl<C> TimedCache<C> {
    pub fn new(inner: C, tracer: Tracer, log: Log<Lookup>) -> Self {
        TimedCache { inner, tracer, log }
    }
}

impl<C: ScheduleCache> ScheduleCache for TimedCache<C> {
    fn get_or_compile(
        &self,
        req: &CompileRequest<'_>,
    ) -> Result<Arc<CompiledPipeline>, CompileError> {
        let span = self.tracer.span("cache.lookup");
        if let Some(id) = LAST_FRAME.with(Cell::get) {
            span.frame(id);
        }
        let solves = self.inner.solver_invocations();
        let start = Instant::now();
        let result = self.inner.get_or_compile(req);
        let end = Instant::now();
        drop(span);
        let miss = self.inner.solver_invocations() > solves;
        let (lp_iterations, bb_nodes, constraints) = match (&result, miss) {
            (Ok(c), true) => (
                c.schedule.lp_iterations,
                c.schedule.solver_nodes,
                c.schedule.constraint_count as u64,
            ),
            _ => (0, 0, 0),
        };
        self.log
            .lock()
            .expect("probe log is never poisoned")
            .push(Lookup {
                end,
                ns: (end - start).as_nanos() as u64,
                miss,
                lp_iterations,
                bb_nodes,
                constraints,
            });
        result
    }

    fn solver_invocations(&self) -> u64 {
        self.inner.solver_invocations()
    }

    fn compiled_count(&self) -> usize {
        self.inner.compiled_count()
    }
}

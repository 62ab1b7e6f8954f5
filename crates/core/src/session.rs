//! Reusable pipeline sessions: compile once, execute many clouds —
//! optionally in parallel, optionally over a shared or persistent
//! schedule cache.
//!
//! Bench sweeps execute the same pipeline hundreds of times, and the ILP
//! solve dominates their wall-time. A [`Session`] amortizes it by
//! routing every compile through a [`ScheduleCache`] keyed by
//! `(spec, config, chunk_elements)`: the default [`InMemoryCache`] is
//! the session's private map, a [`crate::cache::SharedCache`] pools
//! solves across sessions, and a [`crate::cache::FileCache`] persists
//! them across processes. Frame *executions* are independent once
//! compiled, so [`Session::stream`] can fan them across worker threads
//! ([`StreamOptions::workers`]) with reports bit-identical to the
//! sequential path.
//!
//! [`InMemoryCache`]: crate::cache::InMemoryCache

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::cache::{spec_fingerprint, CompileRequest, InMemoryCache, ScheduleCache};
use crate::framework::{CompiledPipeline, ExecuteOptions, ExecutionReport};
use crate::pipeline::{CompileError, PipelineSpec};
use crate::source::{FrameReport, FrameSource, StreamOptions, StreamReport};
use crate::transform::StreamGridConfig;

/// A reusable execution session over one [`PipelineSpec`].
///
/// Created by [`StreamGrid::session`](crate::framework::StreamGrid::session) (private in-memory cache) or
/// [`StreamGrid::session_builder`](crate::framework::StreamGrid::session_builder) (any [`ScheduleCache`]). The session
/// holds an active [`StreamGridConfig`] (switchable with
/// [`Session::set_config`]); the first run at a given
/// `(config, chunk_elements)` key pays one ILP solve — unless the cache
/// already holds it — and every later run reuses the schedule.
/// [`Session::compiled`] hands out one cached design (run it with
/// [`CompiledPipeline::execute`]); [`Session::stream`] runs a whole
/// [`FrameSource`].
/// [`Session::solver_invocations`] reports the solves the session's
/// cache actually performed, so callers can assert the amortization they
/// expect; with a shared cache that count covers every session sharing
/// it.
///
/// # Examples
///
/// Three cloud sizes that share one chunking compile exactly once:
///
/// ```
/// use streamgrid_core::apps::AppDomain;
/// use streamgrid_core::framework::StreamGrid;
/// use streamgrid_core::source::{ReplaySource, StreamOptions};
/// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
///
/// let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
/// let mut session = fw.session(AppDomain::Classification.spec());
/// // 2397 and 2400 source elements both stream as 600-element chunks.
/// let sizes = [2400, 2397, 2400];
/// let report = session
///     .stream(ReplaySource::new(&sizes), &StreamOptions::default())
///     .unwrap();
/// assert_eq!(report.frame_count(), 3);
/// assert_eq!(session.solver_invocations(), 1);
/// assert!(report.all_clean());
/// ```
#[derive(Debug)]
pub struct Session {
    spec: PipelineSpec,
    /// The spec's stable textual identity and its hash, computed once:
    /// every compile request carries both, so caches can key on the
    /// cheap fingerprint and verify hits against the full identity.
    spec_repr: Box<str>,
    spec_fp: u64,
    config: StreamGridConfig,
    cache: Box<dyn ScheduleCache>,
    deny_lints: bool,
}

/// Configures a [`Session`] before opening it — most importantly which
/// [`ScheduleCache`] backs it. Created by [`StreamGrid::session_builder`](crate::framework::StreamGrid::session_builder).
///
/// # Examples
///
/// ```
/// use streamgrid_core::apps::AppDomain;
/// use streamgrid_core::cache::SharedCache;
/// use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
/// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
///
/// let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
/// let shared = SharedCache::new();
/// let mut session = fw
///     .session_builder(AppDomain::Classification.spec())
///     .with_cache(shared.clone())
///     .build();
/// let design = session.compiled(4 * 300).unwrap();
/// let options = ExecuteOptions::for_spec(session.spec());
/// assert!(design.execute(&options).is_clean());
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    spec: PipelineSpec,
    config: StreamGridConfig,
    cache: Box<dyn ScheduleCache>,
    deny_lints: bool,
}

impl SessionBuilder {
    pub(crate) fn new(spec: PipelineSpec, config: StreamGridConfig) -> Self {
        SessionBuilder {
            spec,
            config,
            cache: Box::new(InMemoryCache::new()),
            deny_lints: false,
        }
    }

    /// Backs the session with `cache` instead of a fresh private
    /// [`InMemoryCache`] — pass a [`crate::cache::SharedCache`] clone to
    /// pool solves across sessions, or a [`crate::cache::FileCache`] to
    /// persist them across processes.
    pub fn with_cache(mut self, cache: impl ScheduleCache + 'static) -> Self {
        self.cache = Box::new(cache);
        self
    }

    /// Overrides the transform configuration the session starts with
    /// (the framework's config by default).
    pub fn with_config(mut self, config: StreamGridConfig) -> Self {
        self.config = config;
        self
    }

    /// Promotes linter findings (warnings included) to
    /// [`CompileError::LintDenied`]: every compile this session serves —
    /// [`Session::compiled`] and every [`Session::stream`] frame — fails
    /// instead of executing a design the linter flagged. Without this, findings
    /// still surface on [`ExecutionReport::lints`](crate::framework::ExecutionReport::lints).
    pub fn deny_lints(mut self) -> Self {
        self.deny_lints = true;
        self
    }

    /// Opens the session.
    pub fn build(self) -> Session {
        let spec_repr: Box<str> = crate::cache::spec_repr(&self.spec).into();
        Session {
            spec_fp: spec_fingerprint(&spec_repr),
            spec_repr,
            spec: self.spec,
            config: self.config,
            cache: self.cache,
            deny_lints: self.deny_lints,
        }
    }
}

impl Session {
    pub(crate) fn new(spec: PipelineSpec, config: StreamGridConfig) -> Self {
        SessionBuilder::new(spec, config).build()
    }

    /// The pipeline this session executes.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The active transform configuration.
    pub fn config(&self) -> &StreamGridConfig {
        &self.config
    }

    /// Switches the active transform configuration. Cached compilations
    /// persist — switching back to an earlier config re-hits its cache
    /// entries instead of re-solving.
    pub fn set_config(&mut self, config: StreamGridConfig) {
        self.config = config;
    }

    /// ILP solves the session's cache has performed. For the default
    /// private cache this is exactly the session's own solves (one per
    /// distinct `(config, chunk_elements)` key it compiled); for a
    /// shared or file cache it is the cache's total, which is the point
    /// — hits served by other sessions or a warm directory show up as
    /// solves *not* taken.
    pub fn solver_invocations(&self) -> u64 {
        self.cache.solver_invocations()
    }

    /// The compiled design for a cloud of `total_elements`, compiling
    /// (one ILP solve) on the first request per `(config,
    /// chunk_elements)` key and serving the cache afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the compile path.
    pub fn compiled(&mut self, total_elements: u64) -> Result<Arc<CompiledPipeline>, CompileError> {
        let req = CompileRequest::new(
            &self.spec,
            &self.spec_repr,
            self.spec_fp,
            &self.config,
            total_elements,
        );
        let compiled = self.cache.get_or_compile(&req)?;
        // The one choke point every session compile flows through —
        // every stream frame lands here, so denying lints in one place
        // covers them all (cache hits included: lints are part of the
        // compiled design).
        if self.deny_lints && !compiled.lints.is_empty() {
            let rendered: Vec<String> = compiled.lints.iter().map(|d| d.render()).collect();
            return Err(CompileError::LintDenied(rendered.join("\n")));
        }
        Ok(compiled)
    }

    /// Streams every frame of `source` through the compiled pipeline
    /// and returns a [`StreamReport`]: per-frame execution reports plus
    /// stream-level aggregates (total cycles, energy, frames per solve,
    /// p50/p95/max frame cycles).
    ///
    /// Each frame's size is rounded up to its
    /// [`StreamOptions::bucketing`] bucket before compiling, so a
    /// stream of near-identical sweep sizes hits the `(config,
    /// chunk_elements)` compile cache instead of paying one ILP solve
    /// per unique frame size; [`StreamReport::solver_invocations`]
    /// records the solves this stream actually paid (the cache-counter
    /// delta — with a cache shared across concurrently-streaming
    /// sessions the delta can include their solves too).
    ///
    /// Each distinct compiled design executes once per stream, and its
    /// report fills every frame that bucketed to it. That is exact: all
    /// frames share one [`ExecuteOptions`] (variable-latency seed
    /// included) and deterministic termination makes a design's timing
    /// independent of its input, so a frame's report depends on its
    /// design alone.
    ///
    /// With [`StreamOptions::workers`] > 1 the design *executions* fan
    /// out across that many scoped threads. Frames are pulled and
    /// compiled on the calling thread in arrival order (so solver
    /// accounting is unchanged), each frame gets an ordered result
    /// slot, and execution is deterministic — the report is
    /// bit-identical to the sequential one.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CompileError`] from the compile path.
    ///
    /// # Examples
    ///
    /// A 16-frame stream of jittering sweep sizes costs one solve per
    /// 1024-element bucket, not one per frame — and four workers return
    /// the same report faster:
    ///
    /// ```
    /// use streamgrid_core::apps::AppDomain;
    /// use streamgrid_core::framework::StreamGrid;
    /// use streamgrid_core::source::{ReplaySource, SizeBucketing, StreamOptions};
    /// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
    ///
    /// let sizes: Vec<u64> = (0..16).map(|i| 3000 + 64 * i).collect();
    /// let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    /// let options = StreamOptions::bucketed(SizeBucketing::Quantize(1024));
    ///
    /// let mut session = fw.session(AppDomain::Registration.spec());
    /// let report = session.stream(ReplaySource::new(&sizes), &options).unwrap();
    /// assert_eq!(report.frame_count(), 16);
    /// assert!(report.solver_invocations < 16);
    /// assert!(report.all_clean());
    ///
    /// let mut parallel = fw.session(AppDomain::Registration.spec());
    /// let overlapped = parallel
    ///     .stream(ReplaySource::new(&sizes), &options.with_workers(4))
    ///     .unwrap();
    /// assert_eq!(overlapped, report, "workers never change results");
    /// ```
    pub fn stream<S: FrameSource>(
        &mut self,
        mut source: S,
        options: &StreamOptions,
    ) -> Result<StreamReport, CompileError> {
        let exec = options
            .exec
            .unwrap_or_else(|| ExecuteOptions::for_spec(&self.spec));
        let solves_before = self.cache.solver_invocations();
        let (lower, upper) = source.size_hint();
        let capacity = upper.unwrap_or(lower).min(1 << 16);
        // Phase 1: pull and compile in arrival order on this thread —
        // cache behavior and solve counts are identical no matter how
        // many workers execute later.
        let mut frames: Vec<(crate::source::Frame, u64)> = Vec::with_capacity(capacity);
        let mut compiled: Vec<Arc<CompiledPipeline>> = Vec::with_capacity(capacity);
        loop {
            if options
                .max_frames
                .is_some_and(|max| frames.len() as u64 >= max)
            {
                break;
            }
            let Some(frame) = source.next_frame() else {
                break;
            };
            let scheduled_elements = options.bucketing.bucket(frame.elements);
            compiled.push(self.compiled(scheduled_elements)?);
            frames.push((frame, scheduled_elements));
        }
        // Phase 2: execute — inline, or overlapped across workers with
        // one ordered result slot per frame.
        let reports = execute_ordered(&compiled, &exec, options.workers);
        let frames = frames
            .into_iter()
            .zip(reports)
            .map(|((frame, scheduled_elements), report)| FrameReport {
                frame,
                scheduled_elements,
                report,
            })
            .collect();
        Ok(StreamReport {
            frames,
            solver_invocations: self.cache.solver_invocations() - solves_before,
            bucketing: options.bucketing,
        })
    }
}

/// Executes `compiled[i]` for every `i` under shared `options`,
/// returning reports in input order — the executor behind
/// [`Session::stream`].
///
/// Each distinct design runs **once**. Under shared options a frame's
/// report is a function of its compiled design alone: deterministic
/// termination fixes pipeline timing regardless of the input, and the
/// variable-latency model draws from the options' seed, which every
/// frame shares. So frames are grouped by design ([`group_by_design`])
/// and each design's report is copied into all of its frames' ordered
/// slots, so every report equals a fresh [`CompiledPipeline::execute`].
fn execute_ordered(
    compiled: &[Arc<CompiledPipeline>],
    options: &ExecuteOptions,
    workers: usize,
) -> Vec<ExecutionReport> {
    let (designs, slots) = group_by_design(compiled);
    let runs = execute_each(&designs, options, workers);
    slots.into_iter().map(|d| runs[d].clone()).collect()
}

/// Executes every design under shared `options`, returning reports in
/// input order.
///
/// `workers <= 1` runs inline. Otherwise at most
/// `min(workers, designs)` scoped threads drain a shared index counter
/// (a thousand-design stream never spawns a thousand threads); each
/// worker returns its `(index, report)` pairs through its join handle
/// and the results land in their ordered slots. Execution is
/// deterministic, so the output is bit-identical for every worker
/// count.
fn execute_each(
    designs: &[&Arc<CompiledPipeline>],
    options: &ExecuteOptions,
    workers: usize,
) -> Vec<ExecutionReport> {
    let workers = workers.min(designs.len());
    if workers <= 1 {
        return designs.iter().map(|c| c.execute(options)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut reports: Vec<Option<ExecutionReport>> = vec![None; designs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= designs.len() {
                            break;
                        }
                        done.push((i, designs[i].execute(options)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, report) in handle.join().expect("executor workers do not panic") {
                reports[i] = Some(report);
            }
        }
    });
    reports
        .into_iter()
        .map(|r| r.expect("every index was drained from the queue"))
        .collect()
}

/// Groups frames by the design they compiled to: the distinct designs
/// in first-seen order, and for every frame the index of its design in
/// that list. Identity is the `Arc` pointer — every [`ScheduleCache`]
/// hands out the same `Arc` on a hit, and a cache that rebuilt an equal
/// design would only group less, never wrongly.
fn group_by_design(
    compiled: &[Arc<CompiledPipeline>],
) -> (Vec<&Arc<CompiledPipeline>>, Vec<usize>) {
    let mut index: HashMap<*const CompiledPipeline, usize> = HashMap::new();
    let mut designs = Vec::new();
    let slots = compiled
        .iter()
        .map(|c| {
            *index.entry(Arc::as_ptr(c)).or_insert_with(|| {
                designs.push(c);
                designs.len() - 1
            })
        })
        .collect();
    (designs, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppDomain;
    use crate::framework::StreamGrid;
    use crate::transform::SplitConfig;

    fn csdt4() -> StreamGrid {
        StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)))
    }

    /// One cloud through the session's cache under the spec's defaults.
    fn run_one(s: &mut Session, total_elements: u64) -> Result<ExecutionReport, CompileError> {
        Ok(s.compiled(total_elements)?
            .execute(&ExecuteOptions::for_spec(s.spec())))
    }

    #[test]
    fn cache_hits_skip_solves() {
        let mut s = csdt4().session(AppDomain::Classification.spec());
        let a = s.compiled(4 * 300).unwrap();
        let again = s.compiled(4 * 300).unwrap();
        let b = s.compiled(4 * 600).unwrap();
        assert_eq!(s.solver_invocations(), 2);
        assert!(Arc::ptr_eq(&a, &again), "a hit hands out the cached design");
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn chunk_elements_key_folds_equal_chunkings() {
        let mut s = csdt4().session(AppDomain::Classification.spec());
        // 2397 and 2400 total elements both round up to 600-element
        // chunks; 2401 needs 601-element chunks (ceiling division — no
        // element may be dropped).
        s.compiled(2400).unwrap();
        s.compiled(2397).unwrap();
        assert_eq!(s.solver_invocations(), 1);
        s.compiled(2401).unwrap();
        assert_eq!(s.solver_invocations(), 2);
    }

    #[test]
    fn config_switch_keeps_cache_warm() {
        let csdt = StreamGridConfig::cs_dt(SplitConfig::linear(4, 2));
        let base = StreamGridConfig::base();
        let mut s = StreamGrid::new(csdt).session(AppDomain::Classification.spec());
        s.compiled(4 * 300).unwrap();
        s.set_config(base);
        s.compiled(4 * 300).unwrap();
        assert_eq!(s.solver_invocations(), 2);
        // Switching back re-hits the first entry.
        s.set_config(csdt);
        s.compiled(4 * 300).unwrap();
        assert_eq!(s.solver_invocations(), 2);
    }

    #[test]
    fn session_reports_match_one_shot_execute() {
        let fw = csdt4();
        let spec = AppDomain::Registration.spec();
        let mut s = fw.session(spec.clone());
        let solved = run_one(&mut s, 4 * 400).unwrap();
        let cached = run_one(&mut s, 4 * 400).unwrap();
        assert_eq!(s.solver_invocations(), 1);
        let fresh = fw
            .compile_spec(&spec, 4 * 400)
            .unwrap()
            .execute(&ExecuteOptions::for_spec(&spec));
        assert_eq!(solved, fresh);
        assert_eq!(cached, fresh);
    }

    #[test]
    fn session_runs_resolve_and_record_exec_mode() {
        use crate::framework::ExecMode;
        use crate::source::{ReplaySource, StreamOptions};
        use streamgrid_sim::EngineMode;

        let one_frame = |s: &mut Session, options: &StreamOptions| {
            let mut report = s.stream(ReplaySource::new(&[4 * 300]), options).unwrap();
            report.frames.remove(0).report
        };
        let mut s = csdt4().session(AppDomain::Classification.spec());
        // Default options carry ExecMode::Auto: event-driven under CS+DT.
        let auto = one_frame(&mut s, &StreamOptions::default());
        assert_eq!(auto.exec_mode, EngineMode::EventDriven);
        // Forcing the oracle through the stream's exec override changes
        // the engine but not one bit of the run report.
        let forced = StreamOptions::default().with_exec(
            ExecuteOptions::for_spec(&AppDomain::Classification.spec())
                .with_exec_mode(ExecMode::CycleAccurate),
        );
        let oracle = one_frame(&mut s, &forced);
        assert_eq!(oracle.exec_mode, EngineMode::CycleAccurate);
        assert_eq!(auto.run, oracle.run);
        // Base (variable latency) resolves Auto to the oracle.
        s.set_config(StreamGridConfig::base());
        assert_eq!(
            one_frame(&mut s, &StreamOptions::default()).exec_mode,
            EngineMode::CycleAccurate
        );
    }

    #[test]
    fn stream_bucketing_amortizes_solves() {
        use crate::source::{ReplaySource, SizeBucketing, StreamOptions};

        // 12 distinct sizes: Exact pays 12 solves, Quantize(1200) folds
        // them into 2 buckets (4800 and 6000).
        let sizes: Vec<u64> = (0..12u64).map(|i| 4000 + 100 * i).collect();
        let fw = csdt4();
        let mut exact = fw.session(AppDomain::Classification.spec());
        let exact_report = exact
            .stream(
                ReplaySource::new(&sizes),
                &StreamOptions::bucketed(SizeBucketing::Exact),
            )
            .unwrap();
        assert_eq!(exact_report.solver_invocations, 12);

        let mut bucketed = fw.session(AppDomain::Classification.spec());
        let bucketed_report = bucketed
            .stream(
                ReplaySource::new(&sizes),
                &StreamOptions::bucketed(SizeBucketing::Quantize(1200)),
            )
            .unwrap();
        assert_eq!(bucketed_report.solver_invocations, 2);
        assert_eq!(bucketed_report.frame_count(), 12);
        assert!(bucketed_report.all_clean());
        // Bucketing rounds work up, never down.
        assert!(bucketed_report.scheduled_elements() >= bucketed_report.source_elements());
        assert_eq!(
            exact_report.scheduled_elements(),
            exact_report.source_elements()
        );
        // Aggregates are well-formed.
        assert!(bucketed_report.frames_per_solve() > 1.0);
        assert!(bucketed_report.p50_frame_cycles() <= bucketed_report.p95_frame_cycles());
        assert!(bucketed_report.p95_frame_cycles() <= bucketed_report.max_frame_cycles());
        assert!(bucketed_report.total_cycles() >= bucketed_report.max_frame_cycles());
    }

    #[test]
    fn stream_solver_invocations_count_only_this_stream() {
        use crate::source::{ReplaySource, StreamOptions};

        let mut s = csdt4().session(AppDomain::Classification.spec());
        s.compiled(4 * 300).unwrap();
        assert_eq!(s.solver_invocations(), 1);
        // The replayed size is already cached: the stream pays nothing.
        let report = s
            .stream(
                ReplaySource::new(&[4 * 300, 4 * 300]),
                &StreamOptions::default(),
            )
            .unwrap();
        assert_eq!(report.solver_invocations, 0);
        assert_eq!(s.solver_invocations(), 1);
    }

    #[test]
    fn stream_respects_max_frames() {
        use crate::source::{StreamOptions, SyntheticSource};

        let mut s = csdt4().session(AppDomain::Classification.spec());
        let report = s
            .stream(
                SyntheticSource::new(4 * 300, 100),
                &StreamOptions::default().with_max_frames(5),
            )
            .unwrap();
        assert_eq!(report.frame_count(), 5);
        assert_eq!(report.solver_invocations, 1);
    }

    #[test]
    fn stream_workers_match_sequential_bit_for_bit() {
        use crate::source::{ReplaySource, SizeBucketing, StreamOptions};

        let sizes: Vec<u64> = (0..10u64).map(|i| 1200 + 40 * i).collect();
        let fw = csdt4();
        let options = StreamOptions::bucketed(SizeBucketing::Quantize(400));
        let mut seq = fw.session(AppDomain::Classification.spec());
        let sequential = seq.stream(ReplaySource::new(&sizes), &options).unwrap();
        for workers in [2usize, 8] {
            let mut par = fw.session(AppDomain::Classification.spec());
            let parallel = par
                .stream(ReplaySource::new(&sizes), &options.with_workers(workers))
                .unwrap();
            assert_eq!(parallel, sequential, "{workers} workers changed the report");
        }
    }

    #[test]
    fn grouping_runs_each_design_once_in_first_seen_order() {
        let mut s = csdt4().session(AppDomain::Classification.spec());
        let a = s.compiled(4 * 300).unwrap();
        let b = s.compiled(4 * 450).unwrap();
        let c = s.compiled(4 * 600).unwrap();
        let frames = [&b, &a, &b, &c, &a, &b].map(Arc::clone);
        let (designs, slots) = group_by_design(&frames);
        assert_eq!(designs.len(), 3, "three designs, three executions");
        for (got, want) in designs.iter().zip([&b, &a, &c]) {
            assert!(Arc::ptr_eq(got, want));
        }
        assert_eq!(slots, [0, 1, 0, 2, 1, 0]);
        // An equal design behind a different `Arc` only groups less.
        let twins = [Arc::clone(&a), Arc::new((*a).clone())];
        let (designs, slots) = group_by_design(&twins);
        assert_eq!(designs.len(), 2);
        assert_eq!(slots, [0, 1]);
    }

    #[test]
    fn repeated_designs_report_like_fresh_executions() {
        use crate::source::{ReplaySource, SizeBucketing, StreamOptions};

        // Quantize(1200) folds twelve sizes onto two designs.
        let sizes: Vec<u64> = (0..12u64).map(|i| 4000 + 100 * i).collect();
        let exec = ExecuteOptions::for_spec(&AppDomain::Classification.spec());
        for config in [
            StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)),
            StreamGridConfig::base(),
        ] {
            let fw = StreamGrid::new(config);
            for workers in [1usize, 2, 4] {
                let options =
                    StreamOptions::bucketed(SizeBucketing::Quantize(1200)).with_workers(workers);
                let mut s = fw.session(AppDomain::Classification.spec());
                let report = s.stream(ReplaySource::new(&sizes), &options).unwrap();
                assert_eq!(report.frame_count(), sizes.len() as u64);
                for frame in &report.frames {
                    let fresh = fw
                        .compile_spec(&AppDomain::Classification.spec(), frame.scheduled_elements)
                        .unwrap()
                        .execute(&exec);
                    assert_eq!(frame.report, fresh, "{config:?}, {workers} workers");
                }
            }
        }
    }

    #[test]
    fn builder_defaults_match_plain_session() {
        let fw = csdt4();
        let mut plain = fw.session(AppDomain::Classification.spec());
        let mut built = fw.session_builder(AppDomain::Classification.spec()).build();
        assert_eq!(
            run_one(&mut plain, 4 * 300).unwrap(),
            run_one(&mut built, 4 * 300).unwrap()
        );
        assert_eq!(plain.solver_invocations(), built.solver_invocations());
    }

    #[test]
    fn deny_lints_promotes_findings_to_compile_errors() {
        use crate::transform::TerminationConfig;

        // DT without CS is the SG004 lint: deadlines without bounded
        // chunks cannot keep results deterministic.
        let dt_only = StreamGridConfig {
            splitting: None,
            termination: Some(TerminationConfig::default()),
        };
        let fw = StreamGrid::new(dt_only);

        // A permissive session still runs and surfaces the finding on
        // the report.
        let mut lax = fw.session(AppDomain::Classification.spec());
        let report = run_one(&mut lax, 1200).unwrap();
        assert!(report.lints.warnings >= 1);
        assert!(report.lints.messages.iter().any(|m| m.contains("SG004")));

        // A denying session refuses to execute the same design.
        let mut strict = fw
            .session_builder(AppDomain::Classification.spec())
            .deny_lints()
            .build();
        match strict.compiled(1200) {
            Err(CompileError::LintDenied(msg)) => assert!(msg.contains("SG004")),
            other => panic!("expected LintDenied, got {other:?}"),
        }
    }

    #[test]
    fn deny_lints_passes_clean_pipelines() {
        let mut s = csdt4()
            .session_builder(AppDomain::Classification.spec())
            .deny_lints()
            .build();
        let report = run_one(&mut s, 4 * 300).unwrap();
        assert!(report.lints.is_clean());
    }
}

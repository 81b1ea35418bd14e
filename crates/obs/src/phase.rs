//! The one phase timer.
//!
//! Training and serving are fixed pipelines of named phases. A phase is timed **once**: a [`PhaseGuard`] reads the clock
//! when it is opened and when it is dropped, and that single interval
//! feeds both stores — milliseconds into the phase's histogram series
//! (`family{phase="name"}`, if the phase declares one) and a span named
//! after the phase into the flight recorder (if a tracer is attached and
//! the caller supplied a trace context). A guard with neither sink never
//! reads the clock. Guards touch no RNG and branch on no recorded value,
//! and span ids are pure functions of `(trace id, phase name, index)`, so
//! instrumentation cannot change what the instrumented code computes.
//!
//! Each stack spells its phase names in one [`phase_table!`](crate::phase_table):
//! call sites open guards by table entry, tests and docs iterate the
//! table, so a name has one spelling, one interval and one meaning.

use std::sync::Arc;
use std::time::Instant;

use crate::registry::HistogramHandle;
use crate::trace::{
    derive_span_id, RecordKind, SpanArgs, SpanRecord, TraceContext, Tracer, NO_ARGS,
};
use crate::Observer;

/// One row of a [`PhaseTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Position in the table (assigned by [`phase_table!`](crate::phase_table)).
    pub row: usize,
    /// The `phase="…"` label of the series and the name of the span.
    pub name: &'static str,
    /// Whether the phase records into `family{phase=name}`. A trace-only
    /// phase (`false`) costs nothing — no clock read, no lock — on a
    /// path that is not being traced.
    pub series: bool,
}

/// A stack's phase vocabulary: the one place its phase names are spelled.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTable {
    /// Histogram family of the phases that declare a series.
    pub family: &'static str,
    /// Trace category of every span (the Chrome `cat`).
    pub cat: &'static str,
    /// The rows, in `row` order.
    pub phases: &'static [Phase],
}

/// Declares a stack's phases: `TABLE = "family", "cat";` then one
/// `NAME = timed "label";` (a series, and a span when traced) or
/// `NAME = trace_only "label";` per row. Expands to one `pub const`
/// [`Phase`] per row, numbered in order, and the [`PhaseTable`] of them.
#[macro_export]
macro_rules! phase_table {
    (
        $(#[$table_doc:meta])* $table:ident = $family:literal, $cat:literal;
        $($(#[$doc:meta])* $phase:ident = $kind:ident $name:literal;)+
    ) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Row { $($phase),+ }
        $(
            $(#[$doc])*
            pub const $phase: $crate::Phase = $crate::Phase {
                row: Row::$phase as usize,
                name: $name,
                series: $crate::phase_table!(@$kind),
            };
        )+
        $(#[$table_doc])*
        pub const $table: $crate::PhaseTable = $crate::PhaseTable {
            family: $family,
            cat: $cat,
            phases: &[$($phase),+],
        };
    };
    (@timed) => { true };
    (@trace_only) => { false };
}

/// A [`PhaseTable`] resolved against one observer: the series handles and
/// the tracer, looked up once so that opening a guard does no registry
/// work. Resolve outside the hot loop; a tracer attached to the observer
/// later is not seen by a set resolved earlier.
#[derive(Debug)]
pub struct PhaseSet {
    cat: &'static str,
    /// One entry per row; `None` for trace-only rows and under a disabled
    /// observer.
    series: Vec<Option<HistogramHandle>>,
    tracer: Option<Arc<Tracer>>,
}

impl PhaseSet {
    /// Resolves `table` against `obs`.
    #[must_use]
    pub fn resolve(obs: &Observer, table: &PhaseTable) -> Self {
        let series = table.phases.iter().map(|p| {
            let registry = obs.registry().filter(|_| p.series)?;
            Some(registry.histogram_with(table.family, Some(("phase", p.name))))
        });
        PhaseSet {
            cat: table.cat,
            series: series.collect(),
            tracer: obs.tracer(),
        }
    }

    /// Whether guards of this set record spans.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens `phase` now. The span — recorded only when the set is traced
    /// and `ctx` is given — belongs to trace `ctx.trace_id`, parents under
    /// `ctx.parent_span` and has id
    /// `derive_span_id(ctx.trace_id, phase.name, index)`.
    pub fn start(&self, phase: Phase, ctx: Option<TraceContext>, index: u64) -> PhaseGuard<'_> {
        self.open(phase, ctx, index, None)
    }

    /// As [`PhaseSet::start`] for an interval that began at `start` —
    /// one that does not nest lexically, such as a wait that began on
    /// another thread or a root span closed after its children.
    pub fn since(
        &self,
        phase: Phase,
        ctx: Option<TraceContext>,
        index: u64,
        start: Instant,
    ) -> PhaseGuard<'_> {
        self.open(phase, ctx, index, Some(start))
    }

    fn open(
        &self,
        phase: Phase,
        ctx: Option<TraceContext>,
        index: u64,
        start: Option<Instant>,
    ) -> PhaseGuard<'_> {
        let series = self.series[phase.row].as_ref();
        let span = self.tracer.as_deref().zip(ctx).map(|(tracer, ctx)| {
            let rec = SpanRecord {
                trace_id: ctx.trace_id,
                span_id: derive_span_id(ctx.trace_id, phase.name, index),
                parent_id: ctx.parent_span,
                name: phase.name,
                cat: self.cat,
                kind: RecordKind::Span,
                ts_us: 0,
                dur_us: 0,
                args: NO_ARGS,
            };
            (tracer, rec)
        });
        let live = span.is_some() || series.is_some();
        PhaseGuard {
            start: live.then(|| start.unwrap_or_else(Instant::now)),
            series,
            span,
        }
    }

    /// Records a point event under `ctx`, when traced and `ctx` is given.
    pub fn instant(&self, name: &'static str, ctx: Option<TraceContext>, args: SpanArgs) {
        if let Some((tracer, ctx)) = self.tracer.as_deref().zip(ctx) {
            tracer.instant(name, self.cat, ctx.trace_id, ctx.parent_span, args);
        }
    }
}

/// An open phase; dropping it records the interval (so early returns and
/// `?` are still measured).
#[derive(Debug)]
#[must_use = "a phase guard records when it is dropped"]
pub struct PhaseGuard<'a> {
    /// `None` when neither sink is live: the guard never reads the clock.
    start: Option<Instant>,
    series: Option<&'a HistogramHandle>,
    span: Option<(&'a Tracer, SpanRecord)>,
}

impl PhaseGuard<'_> {
    /// Attaches an integer argument to the span (two slots; extras are
    /// ignored, as is everything when no span is being recorded).
    pub fn arg(mut self, name: &'static str, value: u64) -> Self {
        let mut slots = self.span.iter_mut().flat_map(|(_, rec)| &mut rec.args);
        if let Some(slot) = slots.find(|slot| slot.0.is_empty()) {
            *slot = (name, value);
        }
        self
    }

    /// The context children of this phase open their guards under: this
    /// span's trace id with this span as parent. `None` when no span is being recorded, so children
    /// record none either.
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.span.as_ref().map(|(_, rec)| TraceContext {
            trace_id: rec.trace_id,
            parent_span: rec.span_id,
        })
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        if let Some(series) = self.series {
            series.record(elapsed.as_secs_f64() * 1e3);
        }
        if let Some((tracer, mut rec)) = self.span.take() {
            rec.ts_us = tracer.us_at(start);
            rec.dur_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
            tracer.recorder.record(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{derive_trace_id, TraceConfig, DOMAIN_TRAIN_STEP};

    crate::phase_table! {
        /// The table under test.
        TABLE = "demo_phase_ms", "demo";
        /// A span only.
        OUTER = trace_only "outer";
        /// A series, and a span when traced.
        WORK = timed "work";
    }

    fn root() -> TraceContext {
        TraceContext {
            trace_id: derive_trace_id(7, DOMAIN_TRAIN_STEP, 1),
            parent_span: 0,
        }
    }

    fn work_series(obs: &Observer) -> crate::Histogram {
        let series = Some(("phase", WORK.name));
        let registry = obs.registry().unwrap();
        registry.histogram_with(TABLE.family, series).snapshot()
    }

    #[test]
    fn one_interval_feeds_both_sinks() {
        let obs = Observer::new("both");
        let tracer = obs.attach_tracer(TraceConfig::named("test")).unwrap();
        let phases = PhaseSet::resolve(&obs, &TABLE);
        assert!(phases.traced());

        let outer = phases.start(OUTER, Some(root()), 1).arg("step", 1);
        let inner = phases
            .start(WORK, outer.context(), 4)
            .arg("n", 3)
            .arg("m", 4)
            .arg("ignored", 5);
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(inner);
        drop(outer);

        let series = work_series(&obs);
        assert_eq!(series.count(), 1, "one record in the series");
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2, "one span per guard, child first");
        let (work, outer) = (&spans[0], &spans[1]);
        assert_eq!((work.name, work.cat), ("work", "demo"));
        assert_eq!(work.span_id, derive_span_id(root().trace_id, "work", 4));
        assert_eq!(outer.span_id, derive_span_id(root().trace_id, "outer", 1));
        assert_eq!(work.parent_id, outer.span_id);
        assert_eq!(work.trace_id, outer.trace_id);
        assert_eq!(work.args, [("n", 3), ("m", 4)], "third arg dropped");
        assert_eq!(outer.args[0], ("step", 1));
        // The series and the span hold the same interval, to the
        // microsecond the span is truncated to.
        assert!(work.dur_us >= 2_000);
        assert!((series.sum() * 1e3 - work.dur_us as f64).abs() < 1.0);
        assert!(outer.ts_us <= work.ts_us && outer.dur_us >= work.dur_us);
    }

    #[test]
    fn a_missing_sink_is_a_no_op() {
        // Disabled observer: nothing anywhere, and not even a clock read.
        let phases = PhaseSet::resolve(&Observer::disabled(), &TABLE);
        assert!(!phases.traced());
        let guard = phases.start(WORK, Some(root()), 1).arg("n", 1);
        assert!(guard.start.is_none() && guard.context().is_none());
        drop(guard);

        // Enabled but untraced: the series records, no span exists, and a
        // trace-only phase stays off the clock.
        let obs = Observer::new("untraced");
        let phases = PhaseSet::resolve(&obs, &TABLE);
        let outer = phases.start(OUTER, Some(root()), 1);
        assert!(outer.start.is_none() && outer.context().is_none());
        drop(phases.start(WORK, outer.context(), 1));
        assert_eq!(work_series(&obs).count(), 1);
        assert!(!obs.render_prometheus().contains("outer"));

        // Traced: a trace-only phase records a span and no series; a
        // guard opened without a context records a series and no span.
        let tracer = obs.attach_tracer(TraceConfig::named("test")).unwrap();
        let phases = PhaseSet::resolve(&obs, &TABLE);
        drop(phases.start(OUTER, Some(root()), 1));
        drop(phases.start(WORK, None, 1));
        let names: Vec<&str> = tracer.snapshot().iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer"]);
        assert_eq!(work_series(&obs).count(), 2);
        assert!(!obs.render_prometheus().contains("outer"));
    }

    #[test]
    fn a_tracer_attached_after_resolution_is_not_seen() {
        // The sentence in `Observer::attach_tracer`'s doc: a tracer takes
        // effect when a phase set is resolved, not before.
        let obs = Observer::new("late");
        let early = PhaseSet::resolve(&obs, &TABLE);
        let tracer = obs.attach_tracer(TraceConfig::named("late")).unwrap();
        drop(early.start(OUTER, Some(root()), 1));
        assert!(!early.traced() && tracer.snapshot().is_empty());
        let late = PhaseSet::resolve(&obs, &TABLE);
        drop(late.start(OUTER, Some(root()), 1));
        assert_eq!(tracer.snapshot().len(), 1);
    }

    #[test]
    fn since_closes_an_interval_that_began_elsewhere() {
        // What the serving engine's three hand-computed spans were:
        // ts = the given start on the tracer's clock, dur = start → now.
        let obs = Observer::new("since");
        let tracer = obs.attach_tracer(TraceConfig::named("test")).unwrap();
        let phases = PhaseSet::resolve(&obs, &TABLE);
        let began = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(3));
        let before = tracer.us_at(Instant::now());
        drop(phases.since(WORK, Some(root()), 9, began));
        let after = tracer.us_at(Instant::now());

        let spans = tracer.snapshot();
        let span = spans.last().unwrap();
        assert_eq!(span.ts_us, tracer.us_at(began));
        assert!(span.dur_us >= 3_000);
        let end = span.ts_us + span.dur_us;
        assert!(before <= end + 1 && end <= after, "{before} {end} {after}");
        assert_eq!(span.span_id, derive_span_id(root().trace_id, "work", 9));
        assert!(work_series(&obs).sum() >= 3.0, "the series saw it too");
    }

    #[test]
    fn early_return_still_records() {
        fn fails(phases: &PhaseSet) -> Result<u64, std::num::ParseIntError> {
            let _guard = phases.start(WORK, Some(root()), 2);
            let parsed = "not a number".parse::<u64>()?;
            Ok(parsed)
        }
        let obs = Observer::new("early");
        let tracer = obs.attach_tracer(TraceConfig::named("test")).unwrap();
        let phases = PhaseSet::resolve(&obs, &TABLE);
        assert!(fails(&phases).is_err());
        assert_eq!(work_series(&obs).count(), 1);
        assert_eq!(tracer.snapshot().len(), 1);
    }
}

//! `plp-obs` — dependency-light observability for training and serving.
//!
//! The ROADMAP's production north-star needs a run to be observable
//! *while* it burns its ε budget, not only from a `Vec` returned at the
//! end. This crate provides the four pieces the rest of the workspace
//! threads through its hot paths:
//!
//! * [`hist::Histogram`] — bounded-memory **log-linear histograms**
//!   (fixed bucket layout, mergeable, ≤ one-bucket-width
//!   quantile error) that replace unbounded per-sample `Vec`s,
//! * [`registry::MetricsRegistry`] — named counters, gauges and
//!   histograms behind cheap `Arc` handles, with a
//!   **Prometheus-text-format** exporter
//!   ([`MetricsRegistry::render_prometheus`]),
//! * [`phase::PhaseGuard`] — the one **phase timer** (no `tracing`
//!   crate; the build is offline): each phase of a stack's
//!   [`phase::PhaseTable`] is timed once, and the interval feeds its
//!   latency histogram and, when traced, the flight recorder,
//! * [`events::EventSink`] — a **structured JSONL event log** written
//!   one `write_all` per line, so a killed run leaves a readable log.
//!
//! [`Observer`] bundles them behind one cheap-to-clone handle that is
//! **inert by default** (like the trainer's `FaultInjector`): a
//! `Observer::disabled()` makes every counter, phase and event a no-op,
//! so instrumentation can stay compiled into the hot paths
//! unconditionally.

pub mod events;
pub mod hist;
pub mod phase;
pub mod registry;
pub mod trace;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde_json::Value;

use events::EventSink;
pub use hist::Histogram;
pub use phase::{Phase, PhaseSet, PhaseTable};
pub use registry::{Counter, Gauge, HistogramHandle, MetricsRegistry};
pub use trace::{TraceConfig, TraceContext, Tracer};

/// The shared state behind an enabled [`Observer`].
#[derive(Debug)]
struct ObserverCore {
    run_id: String,
    registry: MetricsRegistry,
    sink: Option<Mutex<EventSink>>,
    seq: AtomicU64,
    dropped_events: AtomicU64,
    /// Attached post-construction by [`Observer::attach_tracer`]; shared
    /// by every clone, like the registry.
    tracer: Mutex<Option<Arc<Tracer>>>,
    /// The trace context the *current* unit of work (train step, fed
    /// round) runs under — set by the driving loop, read by executors so
    /// their spans parent correctly without threading context through
    /// every call signature.
    trace_scope: Mutex<Option<TraceContext>>,
}

/// One observability context for a run: a metrics registry plus an
/// optional JSONL event sink, shared by every clone.
///
/// `Observer::default()` is **disabled**: every operation is a no-op and
/// every handle it returns is disconnected, so components accept an
/// `Observer` unconditionally and pay nothing when nobody is watching.
///
/// Event-sink write failures never propagate into the instrumented code
/// path (observability must not crash training); they are counted in
/// [`Observer::dropped_events`] instead.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    inner: Option<Arc<ObserverCore>>,
}

impl Observer {
    /// The inert observer: records nothing, emits nothing.
    pub fn disabled() -> Self {
        Observer { inner: None }
    }

    /// An enabled observer with a metrics registry but no event sink.
    pub fn new(run_id: &str) -> Self {
        Observer::with_sink(run_id, None)
    }

    /// An enabled observer writing JSONL events to `path` (created if
    /// missing, appended to if present — resume semantics).
    ///
    /// # Errors
    /// Any `std::io::Error` from opening the log file.
    pub fn with_jsonl_file(run_id: &str, path: &Path) -> std::io::Result<Self> {
        Ok(Observer::with_sink(run_id, Some(EventSink::file(path)?)))
    }

    /// An enabled observer capturing events in memory (tests, tooling);
    /// read them back with [`Observer::captured_events`].
    pub fn with_memory_sink(run_id: &str) -> Self {
        Observer::with_sink(run_id, Some(EventSink::memory()))
    }

    fn with_sink(run_id: &str, sink: Option<EventSink>) -> Self {
        Observer {
            inner: Some(Arc::new(ObserverCore {
                run_id: run_id.to_string(),
                registry: MetricsRegistry::new(),
                sink: sink.map(Mutex::new),
                seq: AtomicU64::new(0),
                dropped_events: AtomicU64::new(0),
                tracer: Mutex::new(None),
                trace_scope: Mutex::new(None),
            })),
        }
    }

    /// Attaches a [`Tracer`] (flight recorder + deterministic span ids)
    /// to this observer and every clone sharing its core. Returns the
    /// shared tracer handle, or `None` when the observer is disabled —
    /// tracing rides on an enabled observer, never the other way round.
    ///
    /// Instrumented code picks the tracer up when it resolves its
    /// [`PhaseSet`] — a training run at its start, a serving engine at
    /// construction, a federated executor each round — so a tracer
    /// attached (or replaced) later takes effect at the next resolution,
    /// never in the middle of one.
    pub fn attach_tracer(&self, cfg: TraceConfig) -> Option<Arc<Tracer>> {
        let core = self.inner.as_ref()?;
        let tracer = Arc::new(Tracer::new(cfg));
        *core.tracer.lock().expect("tracer poisoned") = Some(Arc::clone(&tracer));
        Some(tracer)
    }

    /// The attached tracer, if tracing is enabled (a mutex read: hot
    /// paths go through a resolved [`PhaseSet`] instead).
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.inner
            .as_ref()
            .and_then(|c| c.tracer.lock().ok().and_then(|t| t.clone()))
    }

    /// Publishes the trace context the current unit of work (train
    /// step, fed round) runs under; executors read it with
    /// [`Observer::trace_scope`] to parent their spans without context
    /// threading through every call signature. No-op when disabled.
    pub fn set_trace_scope(&self, ctx: Option<TraceContext>) {
        if let Some(core) = &self.inner {
            if let Ok(mut scope) = core.trace_scope.lock() {
                *scope = ctx;
            }
        }
    }

    /// The trace context published by the driving loop, if any.
    pub fn trace_scope(&self) -> Option<TraceContext> {
        self.inner
            .as_ref()
            .and_then(|c| c.trace_scope.lock().ok().and_then(|s| *s))
    }

    /// `false` for the inert observer.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The run id events are stamped with (`None` when disabled).
    pub fn run_id(&self) -> Option<&str> {
        self.inner.as_ref().map(|c| c.run_id.as_str())
    }

    /// The metrics registry (`None` when disabled).
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|c| &c.registry)
    }

    /// The counter `name` (disconnected no-op handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .as_ref()
            .map_or_else(Counter::default, |c| c.registry.counter(name))
    }

    /// The counter `name{key="value"}`.
    pub fn counter_with(&self, name: &str, key: &str, value: &str) -> Counter {
        self.inner.as_ref().map_or_else(Counter::default, |c| {
            c.registry.counter_with(name, Some((key, value)))
        })
    }

    /// The gauge `name` (disconnected no-op handle when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .as_ref()
            .map_or_else(Gauge::default, |c| c.registry.gauge(name))
    }

    /// The histogram `name` (disconnected no-op handle when disabled).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.inner
            .as_ref()
            .map_or_else(HistogramHandle::default, |c| c.registry.histogram(name))
    }

    /// Appends one event to the JSONL sink as
    /// `{"kind": …, "payload": …, "run_id": …, "seq": n}`. A no-op when
    /// disabled or sinkless; write failures increment
    /// [`Observer::dropped_events`] and are otherwise swallowed.
    pub fn emit(&self, kind: &str, payload: Value) {
        let Some(core) = &self.inner else { return };
        let Some(sink) = &core.sink else { return };
        let seq = core.seq.fetch_add(1, Ordering::Relaxed);
        let line = serde_json::json!({
            "run_id": core.run_id,
            "seq": seq,
            "kind": kind,
            "payload": payload
        })
        .to_string();
        let wrote = sink
            .lock()
            .map_err(|_| ())
            .and_then(|mut s| s.append_line(&line).map_err(|_| ()));
        if wrote.is_err() {
            core.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events lost to sink write failures.
    pub fn dropped_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |c| c.dropped_events.load(Ordering::Relaxed))
    }

    /// The lines captured by a memory sink (empty otherwise).
    pub fn captured_events(&self) -> Vec<String> {
        let Some(core) = &self.inner else {
            return Vec::new();
        };
        let Some(sink) = &core.sink else {
            return Vec::new();
        };
        sink.lock()
            .expect("sink poisoned")
            .lines()
            .map_or_else(Vec::new, <[String]>::to_vec)
    }

    /// Renders the registry in Prometheus text format (empty string when
    /// disabled).
    pub fn render_prometheus(&self) -> String {
        self.inner
            .as_ref()
            .map_or_else(String::new, |c| c.registry.render_prometheus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_free_and_silent() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        obs.counter("c").inc();
        obs.gauge("g").set(1.0);
        obs.histogram("h").record(1.0);
        obs.emit("step", serde_json::json!({"step": 1}));
        assert_eq!(obs.captured_events().len(), 0);
        assert_eq!(obs.render_prometheus(), "");
        assert_eq!(obs.run_id(), None);
        assert!(obs.registry().is_none());
    }

    #[test]
    fn emitted_events_carry_envelope_and_sequence() {
        let obs = Observer::with_memory_sink("run-7");
        obs.emit("run_start", serde_json::json!({"max_steps": 5}));
        obs.emit("step", serde_json::json!({"step": 1, "eps": 0.25}));
        let events = obs.captured_events();
        assert_eq!(events.len(), 2);
        for (i, line) in events.iter().enumerate() {
            let v: Value = serde_json::from_str(line).unwrap();
            let obj = v.as_object().unwrap();
            assert_eq!(obj.get("run_id"), Some(&Value::Str("run-7".into())));
            assert_eq!(obj.get("seq").and_then(Value::as_f64), Some(i as f64));
            assert!(obj.contains_key("kind") && obj.contains_key("payload"));
        }
        assert_eq!(obs.dropped_events(), 0);
    }

    #[test]
    fn clones_share_registry_and_sink() {
        let obs = Observer::with_memory_sink("shared");
        let clone = obs.clone();
        clone.counter("steps").add(3);
        clone.emit("step", serde_json::json!({"step": 1}));
        assert_eq!(obs.counter("steps").get(), 3);
        assert_eq!(obs.captured_events().len(), 1);
    }

    #[test]
    fn prometheus_rendering_covers_all_metric_kinds() {
        let obs = Observer::new("render");
        obs.counter("plp_steps_total").inc();
        obs.gauge("plp_epsilon_spent").set(0.75);
        let sample = Some(("phase", "sample"));
        let registry = obs.registry().unwrap();
        registry
            .histogram_with("plp_train_phase_ms", sample)
            .record(0.5);
        let text = obs.render_prometheus();
        assert!(text.contains("plp_steps_total 1"), "{text}");
        assert!(text.contains("plp_epsilon_spent 0.75"), "{text}");
        assert!(
            text.contains("plp_train_phase_ms_bucket{phase=\"sample\",le=\"+Inf\"} 1"),
            "{text}"
        );
    }
}

//! The metrics registry: named counters, gauges and histograms behind
//! cheap cloneable handles, with a Prometheus-text-format exporter.
//!
//! Metrics are identified by a name plus an optional single
//! `key="value"` label (enough for the per-phase series this workspace
//! needs). Handles returned by the registry are `Arc`-backed: resolve
//! once, then record lock-free (counters, gauges) or under a short
//! per-metric mutex (histograms). A `Default`-constructed handle is
//! *disconnected* — every operation is a no-op — which is how the
//! disabled [`crate::Observer`] makes instrumentation free to leave in
//! place.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;

/// Metric identity: name plus an optional `(key, value)` label pair.
type MetricKey = (String, Option<(String, String)>);

/// A concurrent registry of counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Mutex<Histogram>>>>,
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disconnected handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge handle. Values are stored as raw `f64` bits,
/// so `set(x)` followed by `get()` is bit-exact.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge to `v` (bit-exact).
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (`0.0` for a disconnected handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// A histogram handle; see [`Histogram`] for the layout and accuracy
/// guarantees.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<Mutex<Histogram>>>);

impl HistogramHandle {
    /// Records one sample.
    pub fn record(&self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records the same sample `n` times in O(1).
    pub fn record_n(&self, v: f64, n: u64) {
        if let Some(cell) = &self.0 {
            cell.lock().expect("histogram poisoned").record_n(v, n);
        }
    }

    /// A point-in-time copy of the histogram (empty for a disconnected
    /// handle).
    pub fn snapshot(&self) -> Histogram {
        self.0.as_ref().map_or_else(Histogram::new, |cell| {
            cell.lock().expect("histogram poisoned").clone()
        })
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, None)
    }

    /// The counter `name{key="value"}` (created on first use); `label`
    /// is an optional `(key, value)` pair.
    pub fn counter_with(&self, name: &str, label: Option<(&str, &str)>) -> Counter {
        let mut map = self.counters.lock().expect("registry poisoned");
        Counter(Some(Arc::clone(
            map.entry(key_of(name, label)).or_default(),
        )))
    }

    /// The gauge `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, None)
    }

    /// The gauge `name{key="value"}` (created on first use).
    pub fn gauge_with(&self, name: &str, label: Option<(&str, &str)>) -> Gauge {
        let mut map = self.gauges.lock().expect("registry poisoned");
        Gauge(Some(Arc::clone(
            map.entry(key_of(name, label)).or_default(),
        )))
    }

    /// The histogram `name` (created on first use).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.histogram_with(name, None)
    }

    /// The histogram `name{key="value"}` (created on first use).
    pub fn histogram_with(&self, name: &str, label: Option<(&str, &str)>) -> HistogramHandle {
        let mut map = self.histograms.lock().expect("registry poisoned");
        HistogramHandle(Some(Arc::clone(
            map.entry(key_of(name, label)).or_default(),
        )))
    }

    /// Renders every metric in the Prometheus text exposition format.
    ///
    /// Histograms render cumulative `_bucket{le="…"}` series (only the
    /// boundaries whose bucket is non-empty, plus `+Inf` — omitting
    /// boundaries keeps cumulative counts valid and the output compact),
    /// a `_sum` and a `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.lock().expect("registry poisoned");
        render_scalars(&mut out, &counters, "counter", |cell| {
            format_number(cell.load(Ordering::Relaxed) as f64)
        });
        drop(counters);

        let gauges = self.gauges.lock().expect("registry poisoned");
        render_scalars(&mut out, &gauges, "gauge", |cell| {
            format_number(f64::from_bits(cell.load(Ordering::Relaxed)))
        });
        drop(gauges);

        let histograms = self.histograms.lock().expect("registry poisoned");
        let mut last_name: Option<&str> = None;
        for ((name, label), cell) in histograms.iter() {
            if last_name != Some(name.as_str()) {
                let _ = writeln!(out, "# TYPE {name} histogram");
                last_name = Some(name.as_str());
            }
            let h = cell.lock().expect("histogram poisoned").clone();
            let mut cumulative = 0u64;
            for (i, &c) in h.bucket_counts().iter().enumerate() {
                cumulative += c;
                let (_, upper) = Histogram::bucket_bounds(i);
                if c > 0 && upper.is_finite() {
                    let series = series_with_le(name, label.as_ref(), &format_number(upper));
                    let _ = writeln!(out, "{series} {cumulative}");
                }
            }
            let series = series_with_le(name, label.as_ref(), "+Inf");
            let _ = writeln!(out, "{series} {cumulative}");
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                name,
                label_suffix(label.as_ref()),
                format_number(h.sum())
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                name,
                label_suffix(label.as_ref()),
                h.count()
            );
        }
        out
    }
}

fn key_of(name: &str, label: Option<(&str, &str)>) -> MetricKey {
    (
        name.to_string(),
        label.map(|(k, v)| (k.to_string(), v.to_string())),
    )
}

/// Renders the counter or gauge sections (they share their shape).
fn render_scalars(
    out: &mut String,
    map: &BTreeMap<MetricKey, Arc<AtomicU64>>,
    kind: &str,
    value_of: impl Fn(&AtomicU64) -> String,
) {
    let mut last_name: Option<&str> = None;
    for ((name, label), cell) in map.iter() {
        if last_name != Some(name.as_str()) {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_name = Some(name.as_str());
        }
        let _ = writeln!(
            out,
            "{}{} {}",
            name,
            label_suffix(label.as_ref()),
            value_of(cell)
        );
    }
}

/// `{key="value"}` or the empty string.
fn label_suffix(label: Option<&(String, String)>) -> String {
    match label {
        Some((k, v)) => format!("{{{k}=\"{}\"}}", escape_label(v)),
        None => String::new(),
    }
}

/// `name_bucket{…,le="…"}` with the metric label (if any) merged in.
fn series_with_le(name: &str, label: Option<&(String, String)>, le: &str) -> String {
    match label {
        Some((k, v)) => format!("{name}_bucket{{{k}=\"{}\",le=\"{le}\"}}", escape_label(v)),
        None => format!("{name}_bucket{{le=\"{le}\"}}"),
    }
}

/// Escapes `\`, `"` and newlines per the Prometheus text format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Shortest-round-trip float rendering (integers render without `.0`,
/// matching Prometheus conventions).
fn format_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate_and_render() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-resolving the same name sees the same cell.
        assert_eq!(reg.counter("requests_total").get(), 5);

        let g = reg.gauge("epsilon_spent");
        g.set(1.25);
        assert_eq!(g.get(), 1.25);
        g.set(2.5);
        assert_eq!(reg.gauge("epsilon_spent").get(), 2.5);

        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("requests_total 5"), "{text}");
        assert!(text.contains("# TYPE epsilon_spent gauge"), "{text}");
        assert!(text.contains("epsilon_spent 2.5"), "{text}");
    }

    #[test]
    fn gauge_round_trip_is_bit_exact() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("eps");
        for v in [0.1 + 0.2, 1.0 / 3.0, 2.0f64.powi(-40), 123.456789] {
            g.set(v);
            assert_eq!(g.get().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn labeled_series_are_distinct_and_rendered() {
        let reg = MetricsRegistry::new();
        reg.counter_with("stops_total", Some(("reason", "Diverged")))
            .inc();
        reg.counter_with("stops_total", Some(("reason", "MaxSteps")))
            .add(2);
        assert_eq!(
            reg.counter_with("stops_total", Some(("reason", "Diverged")))
                .get(),
            1
        );
        let text = reg.render_prometheus();
        assert!(
            text.contains("stops_total{reason=\"Diverged\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("stops_total{reason=\"MaxSteps\"} 2"),
            "{text}"
        );
        // One TYPE line for the family.
        assert_eq!(text.matches("# TYPE stops_total counter").count(), 1);
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("phase_ms", Some(("phase", "matmul")));
        h.record(0.5);
        h.record(0.6);
        h.record(200.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE phase_ms histogram"), "{text}");
        assert!(
            text.contains("phase_ms_bucket{phase=\"matmul\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("phase_ms_count{phase=\"matmul\"} 3"),
            "{text}"
        );
        // Cumulative counts are non-decreasing down the rendered series.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("phase_ms_bucket")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "cumulative counts must not decrease: {text}");
            last = n;
        }
        assert_eq!(last, 3);
    }

    #[test]
    fn hostile_label_values_are_escaped_per_exposition_format() {
        // Regression pin for the exposition escaping rules: a label
        // value containing `\`, `"` or a newline must render as `\\`,
        // `\"` and `\n` — otherwise one hostile/odd label (say, a user
        // agent or a path) corrupts the whole scrape.
        let reg = MetricsRegistry::new();
        let hostile = "path\\to\"x\"\nline2";
        reg.counter_with("odd_total", Some(("label", hostile)))
            .inc();
        let text = reg.render_prometheus();
        assert!(
            text.contains("odd_total{label=\"path\\\\to\\\"x\\\"\\nline2\"} 1"),
            "{text}"
        );
        // The rendered output must stay one series per physical line: a
        // raw newline in a label value would split the series in two.
        for line in text.lines().filter(|l| l.contains("odd_total{")) {
            assert!(
                line.ends_with(" 1"),
                "series split by unescaped newline: {line:?}"
            );
        }
    }

    #[test]
    fn hostile_label_values_are_escaped_in_histogram_bucket_series() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("odd_ms", Some(("phase", "a\"b\\c\nd")));
        h.record(1.0);
        let text = reg.render_prometheus();
        // Both the bucket series (le merged in) and the sum/count series
        // go through the escaping path.
        assert!(
            text.contains("odd_ms_bucket{phase=\"a\\\"b\\\\c\\nd\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("odd_ms_count{phase=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
        // Escape order matters: backslashes first, or the `\"` from the
        // quote escape would be double-escaped.
        assert_eq!(escape_label("\\\""), "\\\\\\\"");
        assert_eq!(escape_label("\n"), "\\n");
    }

    #[test]
    fn disconnected_handles_are_no_ops() {
        let c = Counter::default();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(9.0);
        assert_eq!(g.get(), 0.0);
        let h = HistogramHandle::default();
        h.record(1.0);
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn handles_share_state_across_threads() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut joins = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            joins.push(std::thread::spawn(move || {
                let c = reg.counter("shared");
                let h = reg.histogram("lat_ms");
                for i in 0..100 {
                    c.inc();
                    h.record(i as f64 * 0.01);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(reg.counter("shared").get(), 400);
        assert_eq!(reg.histogram("lat_ms").snapshot().count(), 400);
    }
}

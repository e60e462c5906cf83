//! Named counters, gauges and histograms with a mergeable snapshot.
//!
//! A [`Registry`] is a string-keyed table of metric handles. Handles are
//! cheap `Arc`-backed clones: register once, keep the handle in a struct
//! field, and increment it lock-free on the hot path — the registry
//! lock is only taken at registration and snapshot time. Registries are
//! instantiable (the estimator gives each session its own, so no two
//! threads contend on one) and snapshots [`merge`][Snapshot::merge], so
//! a session's registry and the DSE search's sum into one `--metrics`
//! table.
//!
//! ```
//! use tytra_trace::metrics::Registry;
//! let reg = Registry::new();
//! let hits = reg.counter("memo.hits");
//! hits.incr();
//! hits.add(2);
//! assert_eq!(hits.get(), 3);
//! let snap = reg.snapshot();
//! assert_eq!(format!("{}", snap.get("memo.hits").unwrap()), "3");
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const RELAXED: Ordering = Ordering::Relaxed;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not attached to any registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn incr(&self) {
        self.0.fetch_add(1, RELAXED);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, RELAXED);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(RELAXED)
    }
}

/// A last-write-wins instantaneous value (stored as `f64`).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A free-standing gauge initialised to 0.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), RELAXED);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(RELAXED))
    }
}

const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Log₂ buckets: bucket `b` holds values whose bit length is `b`
    /// (i.e. `2^(b-1) ≤ v < 2^b`; bucket 0 holds exactly 0).
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistogramInner {
    fn default() -> HistogramInner {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A histogram over unsigned samples (typically nanoseconds), with
/// power-of-two buckets: cheap to record, mergeable, and good enough to
/// read off medians and tails to within a factor of two.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner::default()))
    }
}

impl Histogram {
    /// A free-standing histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let h = &*self.0;
        h.count.fetch_add(1, RELAXED);
        h.sum.fetch_add(v, RELAXED);
        h.min.fetch_min(v, RELAXED);
        h.max.fetch_max(v, RELAXED);
        let bucket = (64 - v.leading_zeros()) as usize;
        h.buckets[bucket].fetch_add(1, RELAXED);
    }

    /// Point-in-time summary of everything recorded so far.
    pub fn summary(&self) -> HistogramSummary {
        let h = &*self.0;
        let mut buckets = [0u64; BUCKETS];
        for (b, slot) in buckets.iter_mut().zip(h.buckets.iter()) {
            *b = slot.load(RELAXED);
        }
        HistogramSummary {
            count: h.count.load(RELAXED),
            sum: h.sum.load(RELAXED),
            min: h.min.load(RELAXED),
            max: h.max.load(RELAXED),
            buckets,
        }
    }
}

/// Immutable histogram summary; the snapshot-side twin of [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Log₂ bucket counts (see [`Histogram`]).
    pub buckets: [u64; BUCKETS],
}

impl HistogramSummary {
    /// Mean sample, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in 0..=1), so accurate to within 2×. 0 when empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 { 0 } else { (1u64 << b) - 1 };
            }
        }
        self.max
    }

    /// Fold another summary into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSummary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// A live metric handle, as stored in a registry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named table of metrics. See the module docs for the usage pattern.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or register the counter called `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Get or register the gauge called `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or register the histogram called `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut table = self.inner.lock().expect("metrics registry poisoned");
        table.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Point-in-time values of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let table = self.inner.lock().expect("metrics registry poisoned");
        Snapshot {
            entries: table
                .iter()
                .map(|(name, m)| {
                    let value = match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.summary())),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(f64),
    /// Histogram summary (boxed: the bucket array dwarfs the other
    /// variants).
    Histogram(Box<HistogramSummary>),
}

/// A histogram's samples print as plain counts, since a value does not
/// know its name; [`Snapshot::render_table`] prints the histograms whose
/// names end in `_ns` as durations.
impl std::fmt::Display for MetricValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricValue::Counter(v) => write!(f, "{v}"),
            MetricValue::Gauge(v) => write!(f, "{v:.3}"),
            MetricValue::Histogram(h) => f.write_str(&fmt_histogram(h, fmt_count)),
        }
    }
}

fn fmt_histogram(h: &HistogramSummary, unit: fn(f64) -> String) -> String {
    if h.count == 0 {
        return "count 0".to_string();
    }
    format!(
        "count {}  mean {}  p50 ≤{}  p95 ≤{}  max {}",
        h.count,
        unit(h.mean()),
        unit(h.quantile_bound(0.50) as f64),
        unit(h.quantile_bound(0.95) as f64),
        unit(h.max as f64),
    )
}

/// Render a count: whole numbers as integers, a fractional mean to two
/// places.
fn fmt_count(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Render a nanosecond magnitude with a human unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Sorted point-in-time view of a registry; mergeable across registries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// An empty snapshot (identity for [`merge`][Snapshot::merge]).
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value by name, 0 when absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Fold `other` into this snapshot: counters sum, gauges keep the
    /// maximum (workers report peaks), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, value) in &other.entries {
            match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => match (&mut self.entries[i].1, value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (mine, theirs) => {
                        panic!("metric `{name}` merged across kinds: {mine:?} vs {theirs:?}")
                    }
                },
                Err(i) => self.entries.insert(i, (name.clone(), value.clone())),
            }
        }
    }

    /// Two-column text table (`  name  value`), one metric per line.
    /// Histograms whose names end in `_ns` sample durations and print
    /// with a time unit; every other value prints as its `Display` does.
    pub fn render_table(&self) -> String {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            let value = match value {
                MetricValue::Histogram(h) if name.ends_with("_ns") => fmt_histogram(h, fmt_ns),
                other => other.to_string(),
            };
            out.push_str(&format!("  {name:<width$}  {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("a.count");
        c.incr();
        c.add(4);
        reg.gauge("a.level").set(2.5);
        // Re-registration returns the same underlying cell.
        reg.counter("a.count").incr();
        assert_eq!(c.get(), 6);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), 6);
        assert_eq!(snap.get("a.level"), Some(&MetricValue::Gauge(2.5)));
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100_000);
        assert_eq!(s.sum, 101_106);
        // Median sample is 3 → bucket bound 3; tail is the max bucket.
        assert_eq!(s.quantile_bound(0.5), 3);
        assert!(s.quantile_bound(1.0) >= 100_000);
        assert_eq!(
            HistogramSummary { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; BUCKETS] }
                .quantile_bound(0.5),
            0
        );
    }

    #[test]
    fn snapshots_merge_counters_gauges_histograms() {
        let a = Registry::new();
        a.counter("hits").add(3);
        a.gauge("depth").set(1.0);
        a.histogram("ns").record(8);
        let b = Registry::new();
        b.counter("hits").add(4);
        b.counter("only.b").incr();
        b.gauge("depth").set(5.0);
        b.histogram("ns").record(16);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("hits"), 7);
        assert_eq!(snap.counter("only.b"), 1);
        assert_eq!(snap.get("depth"), Some(&MetricValue::Gauge(5.0)));
        match snap.get("ns") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!((h.count, h.sum, h.min, h.max), (2, 24, 8, 16));
            }
            other => panic!("bad merge: {other:?}"),
        }
        let table = snap.render_table();
        assert!(table.contains("hits") && table.contains('7'), "{table}");
    }

    #[test]
    fn table_prints_durations_only_for_ns_histograms() {
        let reg = Registry::new();
        let batch = reg.histogram("serve.batch_size");
        batch.record(1);
        batch.record(2);
        reg.histogram("serve.request_ns").record(1500);
        let table = reg.snapshot().render_table();
        assert_eq!(
            table,
            "  serve.batch_size  count 2  mean 1.50  p50 ≤1  p95 ≤3  max 2\n  \
             serve.request_ns  count 1  mean 1.50µs  p50 ≤2.05µs  p95 ≤2.05µs  max 1.50µs\n"
        );
    }
}

//! Prometheus text-format exposition over [`Snapshot`].
//!
//! The renderer targets the [text exposition format]: one `# TYPE`
//! comment per family followed by its sample lines. Counters and
//! gauges map directly; a log₂ [`HistogramSummary`] maps to a native
//! Prometheus histogram whose `le` bucket bounds are the power-of-two
//! bucket upper bounds (cumulative counts, then `+Inf`, `_sum` and
//! `_count`). Metric names sanitize `.` (and anything else outside
//! `[a-zA-Z0-9_:]`) to `_`, so `session.memo.hits` scrapes as
//! `session_memo_hits`.
//!
//! [text exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/
//! [`HistogramSummary`]: crate::metrics::HistogramSummary

use crate::json::number;
use crate::metrics::{MetricValue, Snapshot};
use std::fmt::Write as _;

/// A snapshot name as a legal Prometheus metric name.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.entries {
        let metric = sanitize_metric_name(name);
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {metric} counter\n{metric} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {metric} gauge\n{metric} {}", number(*v));
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {metric} histogram");
                let mut cumulative = 0u64;
                for (b, n) in h.buckets.iter().enumerate() {
                    if *n == 0 {
                        continue;
                    }
                    cumulative += n;
                    let le = if b == 0 { 0 } else { (1u64 << b) - 1 };
                    let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{metric}_sum {}", h.sum);
                let _ = writeln!(out, "{metric}_count {}", h.count);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("session.memo.hits").add(42);
        reg.gauge("dse.worker.0.points_per_sec").set(1234.5);
        let h = reg.histogram("estimator.estimate_ns");
        for v in [3u64, 3, 100, 100_000] {
            h.record(v);
        }
        reg.histogram("estimator.empty_ns");
        reg.snapshot()
    }

    #[test]
    fn names_sanitize_to_the_prometheus_charset() {
        assert_eq!(sanitize_metric_name("session.memo.hits"), "session_memo_hits");
        assert_eq!(sanitize_metric_name("dse.worker.0.pps"), "dse_worker_0_pps");
        assert_eq!(sanitize_metric_name("0weird"), "_0weird");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn counters_and_gauges_expose_with_type_lines() {
        let out = render_prometheus(&sample());
        assert!(out.contains("# TYPE session_memo_hits counter\nsession_memo_hits 42\n"), "{out}");
        assert!(
            out.contains(
                "# TYPE dse_worker_0_points_per_sec gauge\ndse_worker_0_points_per_sec 1234.5\n"
            ),
            "{out}"
        );
    }

    #[test]
    fn histograms_expose_cumulative_buckets_sum_and_count() {
        let out = render_prometheus(&sample());
        // Samples 3,3 land in le=3; 100 in le=127; 100000 in le=131071.
        assert!(out.contains("estimator_estimate_ns_bucket{le=\"3\"} 2\n"), "{out}");
        assert!(out.contains("estimator_estimate_ns_bucket{le=\"127\"} 3\n"), "{out}");
        assert!(out.contains("estimator_estimate_ns_bucket{le=\"131071\"} 4\n"), "{out}");
        assert!(out.contains("estimator_estimate_ns_bucket{le=\"+Inf\"} 4\n"), "{out}");
        assert!(out.contains("estimator_estimate_ns_sum 100106\n"), "{out}");
        assert!(out.contains("estimator_estimate_ns_count 4\n"), "{out}");
        // Empty histogram: no finite buckets, zero count.
        assert!(out.contains("estimator_empty_ns_bucket{le=\"+Inf\"} 0\n"), "{out}");
        assert!(out.contains("estimator_empty_ns_count 0\n"), "{out}");
    }

    #[test]
    fn every_line_is_comment_or_name_value() {
        for line in render_prometheus(&sample()).lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad: {line}"));
            assert!(!name.is_empty());
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad value: {line}"));
        }
    }
}

//! # tytra-trace — observability for the estimator and DSE pipeline
//!
//! Hand-rolled (zero external dependencies, like the rest of the
//! workspace) structured tracing and metrics:
//!
//! * **spans** — [`span()`] opens a named, timed region on the calling
//!   thread; spans nest through a thread-local stack, so a DSE sweep
//!   renders as one tree per worker thread. Spans carry `key=value`
//!   [`Value`] fields (fingerprints, memo hit/miss, variant tags).
//!   Tracing is off by default and gated on one `AtomicBool`: a span
//!   site on the disabled path costs a single relaxed atomic load and
//!   allocates nothing.
//! * **metrics** — [`metrics::Registry`], a named table of counters,
//!   gauges and log₂-bucket histograms with a mergeable
//!   [`metrics::Snapshot`]. Always on (counters are uncontended
//!   atomics); the estimator session's memo statistics live here.
//! * **sinks** — [`sink::render_tree`] (human-readable span tree),
//!   [`sink::render_jsonl`] (one JSON object per span) and
//!   [`sink::render_chrome`] (Chrome trace-event JSON for
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev), with one
//!   lane per thread). All three are pure functions over
//!   `&[SpanRecord]`, so they are trivially testable and never touch
//!   global state.
//!
//! Completed spans accumulate in a global buffer; the owner of the
//! process (the `tybec` CLI, a bench binary, a test) calls
//! [`take_records`] to drain them and feeds a sink. The span taxonomy
//! used across the workspace is documented in `docs/observability.md`.
//!
//! ```
//! tytra_trace::set_enabled(true);
//! {
//!     let mut outer = tytra_trace::span("demo.outer");
//!     outer.record("answer", 42u64);
//!     let _inner = tytra_trace::span("demo.inner");
//! }
//! tytra_trace::set_enabled(false);
//! let records = tytra_trace::take_records();
//! let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
//! assert!(names.contains(&"demo.outer") && names.contains(&"demo.inner"));
//! println!("{}", tytra_trace::sink::render_tree(&records, &tytra_trace::thread_labels()));
//! ```

pub mod bounded;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod prometheus;
pub mod recorder;
pub mod sink;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Master switch. All [`span()`] sites load this and bail before doing
/// any other work, so instrumentation left in hot paths is free when
/// tracing is off. (The [`recorder`] flight rings are independent of
/// this switch: they are on by default and stay on.)
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Completed spans, appended on guard drop, drained by [`take_records`].
/// Bounded by [`RECORD_CAP`]: once full, further spans are counted in
/// [`dropped_spans`] instead of growing memory without limit.
static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Default ceiling on retained span records (see [`set_record_cap`]).
pub const DEFAULT_RECORD_CAP: usize = 1 << 16;

/// Current ceiling on [`RECORDS`].
static RECORD_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RECORD_CAP);

/// Spans discarded because [`RECORDS`] was at capacity — the
/// `trace.dropped_spans` counter.
static DROPPED_SPANS: AtomicU64 = AtomicU64::new(0);

/// Human labels for trace lanes, registered by [`set_thread_label`].
static LABELS: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

/// Monotonic time zero for the whole process: every timestamp is
/// nanoseconds since the first span (or the first explicit
/// [`set_enabled`]) of the process, so one trace file has one coherent
/// timeline across threads.
static ANCHOR: OnceLock<Instant> = OnceLock::new();

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Dense per-thread lane id (0 = unassigned). Distinct from the OS
    /// thread id so trace lanes are small and stable within a run.
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    /// Stack of open span ids on this thread; the top is the parent of
    /// the next span.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn current_thread_id() -> u64 {
    THREAD_ID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Turn span collection on or off. Spans already open keep recording;
/// new span sites become no-ops immediately. Enabling also pins the
/// process time anchor so timestamps start near zero.
pub fn set_enabled(on: bool) {
    if on {
        let _ = ANCHOR.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span collection is on. Use this to gate instrumentation whose
/// *arguments* are expensive to build (a `format!`ed variant tag, say):
/// the span site itself needs no guard.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drain every completed span recorded so far, in completion order.
pub fn take_records() -> Vec<SpanRecord> {
    match RECORDS.lock() {
        Ok(mut v) => std::mem::take(&mut *v),
        Err(_) => Vec::new(),
    }
}

/// Copy (without draining) every completed span recorded so far. Used
/// by `tybec profile`, which needs to fold the records while leaving
/// them in place for a later `--trace` drain.
pub fn snapshot_records() -> Vec<SpanRecord> {
    RECORDS.lock().map(|v| v.clone()).unwrap_or_default()
}

/// The `trace.dropped_spans` counter: spans discarded because the
/// record buffer was at capacity. Monotone for the process lifetime.
pub fn dropped_spans() -> u64 {
    DROPPED_SPANS.load(Ordering::Relaxed)
}

/// Change the record-buffer capacity (default [`DEFAULT_RECORD_CAP`]).
/// Already-buffered records are kept even if over the new cap; only
/// future records are gated. Intended for tests and long daemons.
pub fn set_record_cap(cap: usize) {
    RECORD_CAP.store(cap, Ordering::Relaxed);
}

/// Label the calling thread's trace lane (e.g. `dse-worker-3`). The
/// label shows up as the thread name in the tree and Chrome sinks.
/// No-op while tracing is disabled.
pub fn set_thread_label(label: &str) {
    if !enabled() {
        return;
    }
    let tid = current_thread_id();
    if let Ok(mut labels) = LABELS.lock() {
        match labels.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, l)) => *l = label.to_string(),
            None => labels.push((tid, label.to_string())),
        }
    }
}

/// The thread labels registered so far, in registration order.
pub fn thread_labels() -> Vec<(u64, String)> {
    LABELS.lock().map(|l| l.clone()).unwrap_or_default()
}

/// A field value attached to a span. Numbers stay typed so sinks can
/// emit them as JSON numbers; non-finite floats degrade to strings in
/// the JSON sinks (JSON has no NaN/Infinity).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (fingerprints, counts, worker ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rates, scores).
    F64(f64),
    /// Boolean (memo hit/miss).
    Bool(bool),
    /// Free text (module names, variant tags).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One completed span: what the sinks consume.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Trace lane (dense per-thread id, see [`set_thread_label`]).
    pub tid: u64,
    /// Span name (`estimator.validate`, `dse.variant`, …).
    pub name: String,
    /// Nanoseconds since the process trace anchor.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// `key=value` fields, in recording order.
    pub fields: Vec<(String, Value)>,
}

struct SpanInner {
    id: u64,
    parent: Option<u64>,
    tid: u64,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(String, Value)>,
}

/// An open span; records itself on drop. Obtained from [`span()`].
///
/// When tracing is disabled the guard is inert: no id, no allocation,
/// and [`record`][Span::record] is a no-op (its value conversion is
/// skipped too, since `Into` runs inside the enabled check).
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Attach a field. Keys repeat freely; sinks keep the order.
    pub fn record(&mut self, key: &str, value: impl Into<Value>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((key.to_string(), value.into()));
        }
    }

    /// Builder-style [`record`][Span::record].
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Span {
        self.record(key, value);
        self
    }

    /// Whether this guard is actually collecting.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let end_ns = now_ns();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards are scope-shaped so our id is normally on top, but a
            // moved guard may drop out of order: remove by value.
            if let Some(pos) = stack.iter().rposition(|&id| id == inner.id) {
                stack.remove(pos);
            }
        });
        recorder::record_close(inner.name);
        let record = SpanRecord {
            id: inner.id,
            parent: inner.parent,
            tid: inner.tid,
            name: inner.name.to_string(),
            start_ns: inner.start_ns,
            dur_ns: end_ns.saturating_sub(inner.start_ns),
            fields: inner.fields,
        };
        if let Ok(mut records) = RECORDS.lock() {
            if records.len() < RECORD_CAP.load(Ordering::Relaxed) {
                records.push(record);
            } else {
                DROPPED_SPANS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Open a span named `name` on the calling thread. The returned guard
/// times the region until it drops; nesting follows lexical scope.
///
/// The flight [`recorder`] logs the open unconditionally (one relaxed
/// load + a ring write, no allocation); everything else — ids,
/// timestamps, the record itself — happens only while tracing is
/// enabled. Names are static, as the recorder keeps them by reference.
pub fn span(name: &'static str) -> Span {
    recorder::record_open(name);
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { inner: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let tid = current_thread_id();
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    Span {
        inner: Some(SpanInner { id, parent, tid, name, start_ns: now_ns(), fields: Vec::new() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global collector is process-wide; tests that toggle it run
    /// under one lock so parallel test threads cannot interleave.
    pub(crate) static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let before = take_records().len();
        let mut s = span("never.recorded");
        assert!(!s.is_active());
        s.record("k", 1u64);
        drop(s);
        assert_eq!(take_records().len(), 0, "had {before} stale records");
    }

    #[test]
    fn nesting_links_parents_and_fields_survive() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let _ = take_records();
        {
            let mut outer = span("t.outer").with("who", "outer");
            outer.record("n", 7u64);
            {
                let _inner = span("t.inner");
            }
        }
        set_enabled(false);
        let records = take_records();
        let outer = records.iter().find(|r| r.name == "t.outer").expect("outer recorded");
        let inner = records.iter().find(|r| r.name == "t.inner").expect("inner recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.tid, inner.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert_eq!(
            outer.fields,
            vec![
                ("who".to_string(), Value::Str("outer".to_string())),
                ("n".to_string(), Value::U64(7)),
            ]
        );
    }

    #[test]
    fn record_buffer_is_bounded_and_counts_drops() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let _ = take_records();
        set_record_cap(8);
        let dropped_before = dropped_spans();
        for _ in 0..20 {
            let _s = span("cap.test");
        }
        set_enabled(false);
        set_record_cap(DEFAULT_RECORD_CAP);
        let records = take_records();
        assert_eq!(records.len(), 8, "buffer capped");
        assert_eq!(dropped_spans() - dropped_before, 12, "overflow counted");
        // Draining frees the buffer: new spans record again.
        set_enabled(true);
        {
            let _s = span("cap.after");
        }
        set_enabled(false);
        assert_eq!(take_records().len(), 1);
    }

    #[test]
    fn spans_leave_breadcrumbs_in_the_flight_recorder() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        // Recorder-only (tracing off): the open is logged, nothing else.
        std::thread::spawn(|| {
            set_enabled(false);
            {
                let _s = span("crumb.untraced");
            }
            let d = recorder::dump_current_thread().expect("lane exists");
            let opens = d
                .events
                .iter()
                .filter(|e| e.name == "crumb.untraced")
                .map(|e| e.kind)
                .collect::<Vec<_>>();
            assert_eq!(opens, [recorder::EventKind::Open]);
        })
        .join()
        .unwrap();
        // Traced: both open and close land in the ring.
        set_enabled(true);
        {
            let _s = span("crumb.traced");
        }
        set_enabled(false);
        let _ = take_records();
        let d = recorder::dump_current_thread().expect("lane exists");
        let kinds: Vec<recorder::EventKind> =
            d.events.iter().filter(|e| e.name == "crumb.traced").map(|e| e.kind).collect();
        assert_eq!(kinds, [recorder::EventKind::Open, recorder::EventKind::Close]);
    }

    #[test]
    fn threads_get_distinct_lanes_and_labels() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let _ = take_records();
        let main_tid = {
            let _s = span("t.main");
            current_thread_id()
        };
        let worker_tid = std::thread::spawn(|| {
            set_thread_label("test-worker");
            let _s = span("t.worker");
            current_thread_id()
        })
        .join()
        .unwrap();
        set_enabled(false);
        assert_ne!(main_tid, worker_tid);
        let records = take_records();
        assert_eq!(records.iter().find(|r| r.name == "t.worker").unwrap().tid, worker_tid);
        assert!(thread_labels().iter().any(|(t, l)| *t == worker_tid && l == "test-worker"));
    }
}

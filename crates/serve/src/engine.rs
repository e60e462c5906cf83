//! Request execution: warm estimator sessions, the cross-request cache,
//! and per-request fault isolation.
//!
//! An [`Engine`] holds estimator sessions keyed by target device, each
//! with warm memo tables; one computation uses it at a time, and the
//! daemon keeps idle engines in a pool. [`Shared`] is the daemon-wide
//! state every connection sees: the bounded cross-request response
//! cache, the single-flight table and the live metrics registry. The
//! split keeps the hot path lock-light: a warm estimate touches the
//! shared cache mutex once and its engine's session the rest of the way.
//!
//! Responses are rendered from the same code paths the offline CLI
//! prints from (`tybec cost` also costs the identity patch of an arena
//! built from the parsed module), so a served `estimate` payload is
//! byte-identical to `tybec cost` stdout for the same design and
//! target, whatever engine, connection or cache state produced it.

use crate::protocol::{
    parse_request, render_err, render_ok, MetricsFormat, Request, RequestError, RequestKind,
};
use std::collections::HashMap;
use std::str::Utf8Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use tytra_cost::EstimatorSession;
use tytra_device::TargetFn;
use tytra_dse::{render_search_leaderboard, search_with, ExplorationConfig, SearchConfig};
use tytra_ir::{fingerprint_module, ArenaModule, ErrorCategory, IrModule, TybecError};
use tytra_kernels::EvalKernel;
use tytra_trace::bounded::BoundedMap;
use tytra_trace::metrics::{Counter, Histogram, Registry, Snapshot};
use tytra_trace::recorder;

/// Cross-request cache key: request flavour tag, canonical device name
/// (empty for device-independent requests), structural fingerprint of
/// the parsed design.
pub type CacheKey = (u8, String, u64);

const TAG_ESTIMATE: u8 = 1;
const TAG_BOUND: u8 = 2;
const TAG_ANALYZE_TEXT: u8 = 3;
const TAG_ANALYZE_JSON: u8 = 4;

/// Parsed, ready-to-run request body, produced by [`prepare`].
#[derive(Debug)]
pub enum Work {
    /// `estimate_design` on the arena's identity patch, and render the
    /// report. The arena holds the design's validation verdict.
    Estimate { a: Box<ArenaModule>, dev: String },
    /// `bound_design` on the arena's identity patch, and render the
    /// verdict.
    Bound { a: Box<ArenaModule>, dev: String },
    /// Dataflow analysis; `json` selects the strict-JSON rendering.
    Analyze { m: Box<IrModule>, json: bool },
    /// Full-space search over a named kernel.
    Dse { kernel: String, dev: String, lanes: Vec<u64>, top: usize },
    /// Snapshot of the daemon's metrics registry.
    Metrics { format: MetricsFormat },
    /// Stop accepting connections.
    Shutdown,
}

/// Resolve a target name exactly as the CLI's `--target` flag does. The
/// canonical name lets aliases like `stratix` share a cache class and a
/// warm session with `stratix-v-gsd8`.
fn lookup_target(name: &str) -> Result<(&'static str, TargetFn), TybecError> {
    tytra_device::target_by_name(name).map_err(|e| TybecError::new(ErrorCategory::Config, e))
}

fn lookup_kernel(name: &str) -> Result<Box<dyn EvalKernel>, TybecError> {
    tytra_kernels::kernel_by_name(name).map_err(|e| TybecError::new(ErrorCategory::Config, e))
}

/// Turn a decoded request into runnable [`Work`] plus its cache key (if
/// the flavour is cacheable): parse and validate the TIRL design,
/// resolve the target, fingerprint. A design to cost is parsed,
/// validated, built into its arena and fingerprinted once each; the
/// cache key is the `fingerprint_module` of the arena's template, the
/// parsed module.
pub fn prepare(kind: &RequestKind) -> Result<(Work, Option<CacheKey>), TybecError> {
    let arena = |design: &str| -> Result<(Box<ArenaModule>, u64), TybecError> {
        let a = ArenaModule::validated(tytra_ir::parse_unvalidated(design)?)?;
        let fp = fingerprint_module(a.template());
        Ok((Box::new(a), fp))
    };
    Ok(match kind {
        RequestKind::Estimate { design, target } => {
            let dev = lookup_target(target)?.0.to_string();
            let (a, fp) = arena(design)?;
            let key = (TAG_ESTIMATE, dev.clone(), fp);
            (Work::Estimate { a, dev }, Some(key))
        }
        RequestKind::Bound { design, target } => {
            let dev = lookup_target(target)?.0.to_string();
            let (a, fp) = arena(design)?;
            let key = (TAG_BOUND, dev.clone(), fp);
            (Work::Bound { a, dev }, Some(key))
        }
        RequestKind::Analyze { design, json } => {
            let m = tytra_ir::parse(design)?;
            let fp = fingerprint_module(&m);
            let tag = if *json { TAG_ANALYZE_JSON } else { TAG_ANALYZE_TEXT };
            (Work::Analyze { m: Box::new(m), json: *json }, Some((tag, String::new(), fp)))
        }
        RequestKind::Dse { kernel, target, lanes, top } => {
            lookup_kernel(kernel)?;
            let dev = lookup_target(target)?.0.to_string();
            (Work::Dse { kernel: kernel.clone(), dev, lanes: lanes.clone(), top: *top }, None)
        }
        RequestKind::Metrics { format } => (Work::Metrics { format: *format }, None),
        RequestKind::Shutdown => (Work::Shutdown, None),
    })
}

/// Source-level fast-path key: request flavour tag, raw target string,
/// raw design text. Identical source bytes parse to the identical
/// module, so this maps straight to a [`CacheKey`] without re-parsing.
type FastKey = (u8, String, String);

/// The fast-path key for a request, if its flavour has one.
fn fast_key(kind: &RequestKind) -> Option<FastKey> {
    match kind {
        RequestKind::Estimate { design, target } => {
            Some((TAG_ESTIMATE, target.clone(), design.clone()))
        }
        RequestKind::Bound { design, target } => Some((TAG_BOUND, target.clone(), design.clone())),
        RequestKind::Analyze { design, json } => {
            let tag = if *json { TAG_ANALYZE_JSON } else { TAG_ANALYZE_TEXT };
            Some((tag, String::new(), design.clone()))
        }
        _ => None,
    }
}

/// What a guarded computation answers: the payload, or the error plus
/// the flight-recorder dump of a panic.
pub type Outcome = Result<String, (TybecError, Option<String>)>;

/// One cacheable computation in progress. Its leader publishes the
/// outcome once; requests that missed the cache on the same key meanwhile
/// wait for it instead of computing again.
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<Outcome>>,
    landed: Condvar,
}

impl Flight {
    /// Block until the leader publishes, then return its outcome.
    fn wait(&self) -> Outcome {
        let mut slot = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(o) = slot.as_ref() {
                return o.clone();
            }
            slot = self.landed.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// How a request that missed the cache on a key proceeds.
enum Claim {
    /// The payload landed in the cache meanwhile.
    Hit(String),
    /// Another request is computing it: wait on its flight.
    Follow(Arc<Flight>),
    /// Compute it, then [`land`][Shared::land] this flight.
    Lead(Arc<Flight>),
}

/// Daemon-wide state: the bounded cross-request response cache, the
/// shutdown flag, and the live metrics registry (`serve.*` names; see
/// `docs/serve.md` for the catalogue).
pub struct Shared {
    cache: Mutex<BoundedMap<CacheKey, String>>,
    /// Cacheable computations in progress, keyed like the cache, with
    /// the number of requests following each: the single-flight table
    /// that keeps concurrent misses on one key from all computing it.
    inflight: Mutex<HashMap<CacheKey, (Arc<Flight>, u64)>>,
    /// Raw request text → structural cache key, so a repeat of the exact
    /// same request bytes skips TIRL parsing and fingerprinting
    /// entirely and is answered from [`Shared::cache`]. Bounded by the
    /// same CLOCK policy and capacity as the response cache.
    fast: Mutex<BoundedMap<FastKey, CacheKey>>,
    /// Set by a `shutdown` request or
    /// [`ServerHandle::stop`](crate::server::ServerHandle::stop); the
    /// accept loop checks it per connection.
    pub shutdown: AtomicBool,
    registry: Registry,
    /// Requests read off connections (including ones rejected at parse).
    pub requests: Counter,
    /// Requests answered with `ok:false`.
    pub errors: Counter,
    /// Requests answered from the cross-request cache or by another
    /// request's in-flight computation of the same key.
    pub cache_hits: Counter,
    /// Cacheable computations actually performed.
    pub cache_misses: Counter,
    /// Cache entries the CLOCK hand dropped under capacity pressure.
    pub cache_evictions: Counter,
    /// Requests answered per cacheable computation: its leader plus the
    /// requests that followed its flight.
    pub batch_size: Histogram,
    /// Wall time from request read to response write, nanoseconds.
    pub request_ns: Histogram,
    /// JSONL decoding per request line, nanoseconds.
    pub decode_ns: Histogram,
    /// [`prepare`] per request that missed the exact-text fast path:
    /// TIRL parsing, validation, the arena build and fingerprinting,
    /// nanoseconds.
    pub prepare_ns: Histogram,
    /// Each computation, led or uncacheable, nanoseconds.
    pub compute_ns: Histogram,
    /// Rendering and writing each response, nanoseconds.
    pub write_ns: Histogram,
}

impl Shared {
    /// Fresh daemon state with a response cache bounded to
    /// `cache_capacity` entries.
    pub fn new(cache_capacity: usize) -> Shared {
        let registry = Registry::new();
        Shared {
            cache: Mutex::new(BoundedMap::new(cache_capacity)),
            inflight: Mutex::new(HashMap::new()),
            fast: Mutex::new(BoundedMap::new(cache_capacity)),
            shutdown: AtomicBool::new(false),
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            cache_evictions: registry.counter("serve.cache.evictions"),
            batch_size: registry.histogram("serve.batch_size"),
            request_ns: registry.histogram("serve.request_ns"),
            decode_ns: registry.histogram("serve.decode_ns"),
            prepare_ns: registry.histogram("serve.prepare_ns"),
            compute_ns: registry.histogram("serve.compute_ns"),
            write_ns: registry.histogram("serve.write_ns"),
            registry,
        }
    }

    /// Point-in-time snapshot of the daemon's metrics registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Cached payload for `key`, marking it recently used.
    pub fn cache_get(&self, key: &CacheKey) -> Option<String> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).get(key).cloned()
    }

    /// Store a computed payload under `key`.
    pub fn cache_put(&self, key: CacheKey, payload: String) {
        if self.cache.lock().unwrap_or_else(|e| e.into_inner()).insert(key, payload) {
            self.cache_evictions.incr();
        }
    }

    /// Single-flight admission after a cache miss on `key`: follow the
    /// flight already computing it, or take the payload if it landed in
    /// the cache since the miss, or lead a new flight.
    fn claim(&self, key: &CacheKey) -> Claim {
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((flight, followers)) = inflight.get_mut(key) {
            *followers += 1;
            return Claim::Follow(Arc::clone(flight));
        }
        // A leader caches its payload before it leaves the table, so under
        // the table lock a missing flight means the cache is current.
        if let Some(hit) = self.cache_get(key) {
            return Claim::Hit(hit);
        }
        let flight = Arc::new(Flight::default());
        inflight.insert(key.clone(), (Arc::clone(&flight), 0));
        Claim::Lead(flight)
    }

    /// Publish a led flight's outcome to its followers and retire it,
    /// recording how many requests it answered. A successful payload must
    /// already be in the cache.
    fn land(&self, key: &CacheKey, flight: &Flight, outcome: &Outcome) {
        *flight.outcome.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome.clone());
        flight.landed.notify_all();
        let retired = self.inflight.lock().unwrap_or_else(|e| e.into_inner()).remove(key);
        self.batch_size.record(1 + retired.map_or(0, |(_, followers)| followers));
    }

    /// Fast-path probe: the cached payload for this exact request text,
    /// if both the source memo and the response cache hold it. No TIRL
    /// parsing happens on this path.
    fn fast_get(&self, key: &FastKey) -> Option<String> {
        let cache_key = self.fast.lock().unwrap_or_else(|e| e.into_inner()).get(key).cloned()?;
        self.cache_get(&cache_key)
    }

    /// Remember which structural class this exact request text maps to.
    fn fast_put(&self, key: FastKey, cache_key: CacheKey) {
        // Evictions here are bookkeeping-only (the memo is re-derivable
        // by parsing), so they don't count toward `cache_evictions`.
        self.fast.lock().unwrap_or_else(|e| e.into_inner()).insert(key, cache_key);
    }

    /// The per-request path for one request line, up to the response
    /// line it returns: decode the line (one that is not UTF-8 gets a
    /// `parse` error), answer a repeat of request text already answered
    /// from the exact-text fast path, else prepare the request, probe
    /// the cache with single flight and let `compute` (a guarded
    /// computation on some engine) answer a miss. Records the line's
    /// decode, prepare and compute timings. A request `fault_inject`
    /// matches skips the fast path, the cache and single flight, so it
    /// reaches `compute` with the fault flag set and nobody waits on it.
    pub(crate) fn serve_line(
        &self,
        line: Result<&str, Utf8Error>,
        fault_inject: Option<fn(&Request) -> bool>,
        compute: impl FnOnce(&Work, bool) -> Outcome,
    ) -> String {
        self.requests.incr();
        recorder::mark("serve.request", 1);
        let (id, outcome) = self.answer(line, fault_inject, |work, fault| {
            let t = Instant::now();
            let outcome = compute(work, fault);
            self.compute_ns.record(elapsed_ns(t));
            outcome
        });
        match &outcome {
            Ok(payload) => render_ok(id, payload),
            Err((e, dump)) => {
                self.errors.incr();
                render_err(id, e, dump.as_deref())
            }
        }
    }

    /// One request line's id and outcome (see
    /// [`serve_line`][Shared::serve_line]).
    fn answer(
        &self,
        line: Result<&str, Utf8Error>,
        fault_inject: Option<fn(&Request) -> bool>,
        compute: impl FnOnce(&Work, bool) -> Outcome,
    ) -> (u64, Outcome) {
        let t = Instant::now();
        let decoded = line
            .map_err(|e| RequestError {
                id: 0,
                error: TybecError::new(
                    ErrorCategory::Parse,
                    format!("request line is not UTF-8: {e}"),
                ),
            })
            .and_then(parse_request);
        self.decode_ns.record(elapsed_ns(t));
        let req = match decoded {
            Ok(r) => r,
            Err(RequestError { id, error }) => return (id, Err((error, None))),
        };
        let fast = if fault_inject.is_none() { fast_key(&req.kind) } else { None };
        if let Some(hit) = fast.as_ref().and_then(|k| self.fast_get(k)) {
            self.cache_hits.incr();
            return (req.id, Ok(hit));
        }
        let t = Instant::now();
        let prepared = prepare(&req.kind);
        self.prepare_ns.record(elapsed_ns(t));
        let (work, key) = match prepared {
            Ok(p) => p,
            Err(e) => return (req.id, Err((e, None))),
        };
        if let (Some(fk), Some(key)) = (fast, &key) {
            self.fast_put(fk, key.clone());
        }
        let fault = fault_inject.is_some_and(|pred| pred(&req));
        let outcome = match &key {
            Some(key) if !fault => self.cached_or_computed(&work, key, compute),
            _ => compute(&work, fault),
        };
        (req.id, outcome)
    }

    /// The payload for a cacheable request: from the cache, from another
    /// request's computation of the same key (single flight), or
    /// computed by `compute` and cached.
    fn cached_or_computed(
        &self,
        work: &Work,
        key: &CacheKey,
        compute: impl FnOnce(&Work, bool) -> Outcome,
    ) -> Outcome {
        let claim = match self.cache_get(key) {
            Some(hit) => Claim::Hit(hit),
            None => self.claim(key),
        };
        match claim {
            Claim::Hit(hit) => {
                self.cache_hits.incr();
                Ok(hit)
            }
            Claim::Follow(flight) => {
                let outcome = flight.wait();
                if outcome.is_ok() {
                    self.cache_hits.incr();
                }
                outcome
            }
            Claim::Lead(flight) => {
                let outcome = compute(work, false);
                if let Ok(payload) = &outcome {
                    self.cache_misses.incr();
                    self.cache_put(key.clone(), payload.clone());
                }
                self.land(key, &flight, &outcome);
                outcome
            }
        }
    }
}

/// Nanoseconds since `since`.
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Execution state for one computation at a time: an estimator session
/// per target device, kept warm across requests.
#[derive(Default)]
pub struct Engine {
    sessions: HashMap<String, EstimatorSession>,
}

impl Engine {
    /// An engine with no warm sessions yet.
    pub fn new() -> Engine {
        Engine::default()
    }

    fn session(&mut self, dev: &str) -> Result<&mut EstimatorSession, TybecError> {
        if !self.sessions.contains_key(dev) {
            let (_, device) = lookup_target(dev)?;
            self.sessions.insert(dev.to_string(), EstimatorSession::new(device()));
        }
        Ok(self.sessions.get_mut(dev).expect("session just ensured"))
    }

    /// Run one prepared request body to its response payload. Payloads
    /// reproduce the offline CLI's stdout for the same input (see module
    /// docs); errors carry the same category the CLI would exit with.
    pub fn compute(&mut self, work: &Work, shared: &Shared) -> Result<String, TybecError> {
        match work {
            Work::Estimate { a, dev } => {
                let report = self.session(dev)?.estimate_design(&a.identity())?;
                Ok(format!("{report}"))
            }
            Work::Bound { a, dev } => {
                let b = self.session(dev)?.bound_design(&a.identity())?;
                Ok(format!("{b:?}"))
            }
            Work::Analyze { m, json } => {
                let report = tytra_analyze::analyze_module(m);
                if *json {
                    // `tybec analyze --json` prints with println!.
                    Ok(format!("{}\n", report.render_json()))
                } else {
                    Ok(report.render_text())
                }
            }
            Work::Dse { kernel, dev, lanes, top } => {
                let factory = lookup_kernel(kernel)?.variant_factory();
                let space =
                    ExplorationConfig { lanes: lanes.clone(), ..ExplorationConfig::default() };
                let cfg = SearchConfig { space, top_k: *top, ..SearchConfig::default() };
                let outcome = search_with(&factory, self.session(dev)?, &cfg);
                Ok(render_search_leaderboard(&outcome, *top))
            }
            Work::Metrics { format } => Ok(shared.snapshot().render(*format)),
            Work::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                Ok("shutting down".to_string())
            }
        }
    }

    /// [`compute`][Engine::compute] behind a panic fence
    /// ([`tytra_trace::catch_panic`]). A panicking request — injected via
    /// `fault` or a genuine bug — becomes a categorized internal error
    /// plus this thread's flight-recorder breadcrumbs; the engine (and
    /// the daemon) live on.
    pub fn compute_guarded(&mut self, work: &Work, shared: &Shared, fault: bool) -> Outcome {
        let outcome = tytra_trace::catch_panic(|| {
            if fault {
                recorder::mark("serve.fault_inject", 1);
                panic!("injected fault");
            }
            self.compute(work, shared)
        });
        match outcome {
            Ok(r) => r.map_err(|e| (e, None)),
            Err(message) => {
                let dump =
                    recorder::dump_current_thread().map(|lane| recorder::render_dump(&[lane]));
                let err = TybecError::new(
                    ErrorCategory::Internal,
                    format!("request panicked: {message}"),
                );
                Err((err, dump))
            }
        }
    }

    /// Full in-process round-trip for one request line: the daemon's
    /// per-request path (`Shared::serve_line`) minus the socket, with
    /// this engine computing. The fuzz `serve-equivalence` oracle and
    /// perfbench drive it directly.
    pub fn respond(&mut self, line: &str, shared: &Shared) -> String {
        let t0 = Instant::now();
        let out = shared
            .serve_line(Ok(line), None, |work, fault| self.compute_guarded(work, shared, fault));
        shared.request_ns.record(elapsed_ns(t0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_kernels::Sor;
    use tytra_transform::Variant;

    #[test]
    fn respond_answers_a_repeated_line_from_the_exact_text_fast_path() {
        let m = Sor::default().lower_variant(&Variant::baseline()).expect("lowerable variant");
        let line = format!(
            "{{\"id\":1,\"kind\":\"estimate\",\"design\":\"{}\",\"target\":\"eval-small\"}}",
            tytra_trace::json::escape(&tytra_ir::print(&m))
        );
        let (mut engine, shared) = (Engine::new(), Shared::new(16));
        let cold = engine.respond(&line, &shared);
        assert!(cold.starts_with("{\"id\":1,\"ok\":true,"), "{cold}");
        assert_eq!(shared.prepare_ns.summary().count, 1, "the first line is prepared");
        let hits = shared.cache_hits.get();
        let warm = engine.respond(&line, &shared);
        assert_eq!(warm, cold);
        assert_eq!(shared.cache_hits.get(), hits + 1);
        assert_eq!(shared.prepare_ns.summary().count, 1, "the repeat is not prepared again");
    }
}

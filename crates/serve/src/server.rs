//! The daemon: listener, per-connection readers, the micro-batching
//! dispatcher, and the worker pool.
//!
//! ```text
//! accept loop ──▶ reader thread per connection  (serve.conn.N lanes)
//!                   │ parse JSONL + TIRL, fingerprint
//!                   ▼
//!               dispatcher thread               (micro-batching)
//!                   │ recv(), then drain try_recv() up to batch_max;
//!                   │ group same-class estimate/bound/analyze requests
//!                   ▼
//!               worker pool                     (serve.worker.N lanes)
//!                   │ cache probe → guarded compute → fan out
//!                   ▼
//!               per-connection writer (mutexed; responses carry ids)
//! ```
//!
//! Grouping means N concurrent clients asking for the same structural
//! class pay for one computation: the group leader computes (or hits
//! the cross-request cache) and every member gets the same payload
//! rendered under its own request id. Responses may leave a connection
//! out of order; ids correlate.

use crate::engine::{fast_key, prepare, CacheKey, Claim, Engine, Outcome, Shared, Work};
use crate::protocol::{parse_request, render_err, render_ok, Request, RequestError};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use tytra_ir::{ErrorCategory, TybecError};
use tytra_trace::recorder;

/// Daemon tuning knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads; 0 means the machine's available parallelism.
    pub workers: usize,
    /// Cross-request cache capacity (entries; CLOCK-evicted past it).
    pub cache_capacity: usize,
    /// Most requests one dispatcher wake-up will coalesce.
    pub batch_max: usize,
    /// Test hook: requests this predicate matches panic inside the
    /// worker's guarded region (the `SearchConfig::fault_inject` idiom),
    /// exercising per-request fault isolation.
    pub fault_inject: Option<fn(&Request) -> bool>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { workers: 0, cache_capacity: 4096, batch_max: 32, fault_inject: None }
    }
}

/// Where the daemon listens; also how `stop()` pokes the accept loop
/// out of its blocking `accept`.
#[derive(Clone)]
enum Endpoint {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    fn poke(&self) {
        match self {
            Endpoint::Tcp(addr) => {
                let _ = TcpStream::connect(addr);
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

type ClientWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// One prepared request in flight.
struct Job {
    id: u64,
    req: Request,
    work: Work,
    key: Option<CacheKey>,
    writer: ClientWriter,
    t0: Instant,
}

/// A batch group: every job shares one structural class, so the leader's
/// payload answers them all.
struct Group {
    jobs: Vec<Job>,
    fault: bool,
}

/// A running daemon. Dropping the handle does NOT stop the server; call
/// [`stop`][ServerHandle::stop].
pub struct ServerHandle {
    endpoint: Endpoint,
    shared: Arc<Shared>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The TCP address the daemon is listening on (panics for a
    /// Unix-socket daemon).
    pub fn addr(&self) -> SocketAddr {
        match &self.endpoint {
            Endpoint::Tcp(a) => *a,
            #[cfg(unix)]
            Endpoint::Unix(_) => panic!("unix-socket server has no TCP address"),
        }
    }

    /// The daemon-wide shared state (cache + metrics registry).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Block until the daemon exits on its own — i.e. until a `shutdown`
    /// request is served. This is what `tybec serve` does after binding.
    pub fn wait(mut self) {
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }

    /// Stop accepting connections and join the daemon once in-flight
    /// connections have drained.
    pub fn stop(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.endpoint.poke();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Serve on a TCP address (use port 0 to let the OS pick).
pub fn serve_tcp(addr: &str, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let endpoint = Endpoint::Tcp(listener.local_addr()?);
    Ok(spawn_server(Listener::Tcp(listener), endpoint, cfg))
}

/// Serve on a Unix-domain socket path (removed first if it exists).
#[cfg(unix)]
pub fn serve_unix(path: &Path, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let endpoint = Endpoint::Unix(path.to_path_buf());
    Ok(spawn_server(Listener::Unix(listener), endpoint, cfg))
}

fn spawn_server(listener: Listener, endpoint: Endpoint, cfg: ServeConfig) -> ServerHandle {
    let shared = Arc::new(Shared::new(cfg.cache_capacity));
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
    } else {
        cfg.workers
    };

    let (job_tx, job_rx) = unbounded::<Job>();
    let (group_tx, group_rx) = unbounded::<Group>();

    // Dispatcher: block for one job, drain whatever else is queued (up
    // to batch_max), group by structural class, hand groups to workers.
    let dispatcher = {
        let shared = Arc::clone(&shared);
        let batch_max = cfg.batch_max.max(1);
        let fault_inject = cfg.fault_inject;
        std::thread::spawn(move || {
            tytra_trace::set_thread_label("serve.dispatch");
            dispatch_loop(&job_rx, &group_tx, &shared, batch_max, fault_inject);
        })
    };

    // Worker pool: each worker owns an engine with warm sessions.
    let mut worker_joins = Vec::with_capacity(workers);
    for i in 0..workers {
        let group_rx = group_rx.clone();
        let shared = Arc::clone(&shared);
        let endpoint = endpoint.clone();
        worker_joins.push(std::thread::spawn(move || {
            tytra_trace::set_thread_label(&format!("serve.worker.{i}"));
            let mut engine = Engine::new();
            while let Ok(group) = group_rx.recv() {
                run_group(&mut engine, group, &shared, &endpoint);
            }
        }));
    }
    drop(group_rx);

    // Accept loop. Reader threads are detached: each exits when its
    // client hangs up, dropping its job sender; the dispatcher exits
    // once the accept loop and every reader are gone.
    //
    // With fault injection armed, readers skip the exact-text fast path
    // so every matched request actually reaches a worker and panics.
    let fast_path = cfg.fault_inject.is_none();
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            tytra_trace::set_thread_label("serve.accept");
            let mut conn_id = 0u64;
            loop {
                let stream: Option<(Box<dyn BufRead + Send>, ClientWriter)> = match &listener {
                    Listener::Tcp(l) => match l.accept() {
                        Ok((s, _)) => split_tcp(s),
                        Err(_) => None,
                    },
                    #[cfg(unix)]
                    Listener::Unix(l) => match l.accept() {
                        Ok((s, _)) => split_unix(s),
                        Err(_) => None,
                    },
                };
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Some((reader, writer)) = stream else { continue };
                conn_id += 1;
                let job_tx = job_tx.clone();
                let shared = Arc::clone(&shared);
                let label = format!("serve.conn.{conn_id}");
                std::thread::spawn(move || {
                    tytra_trace::set_thread_label(&label);
                    read_loop(reader, writer, &job_tx, &shared, fast_path);
                });
            }
            drop(job_tx);
            let _ = dispatcher.join();
            for j in worker_joins {
                let _ = j.join();
            }
        })
    };

    ServerHandle { endpoint, shared, join: Some(accept) }
}

fn split_tcp(s: TcpStream) -> Option<(Box<dyn BufRead + Send>, ClientWriter)> {
    let r = s.try_clone().ok()?;
    Some((Box::new(BufReader::new(r)), Arc::new(Mutex::new(Box::new(s) as Box<dyn Write + Send>))))
}

#[cfg(unix)]
fn split_unix(s: UnixStream) -> Option<(Box<dyn BufRead + Send>, ClientWriter)> {
    let r = s.try_clone().ok()?;
    Some((Box::new(BufReader::new(r)), Arc::new(Mutex::new(Box::new(s) as Box<dyn Write + Send>))))
}

fn write_line(writer: &ClientWriter, line: &str) {
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

/// Per-connection reader: parse each JSONL line and its TIRL design,
/// answer malformed requests immediately, enqueue the rest. Lines are
/// read as bytes, so a line that is not UTF-8 gets a `parse` error like
/// any other malformed request, and the requests after it are still
/// served.
fn read_loop(
    mut reader: Box<dyn BufRead + Send>,
    writer: ClientWriter,
    job_tx: &Sender<Job>,
    shared: &Shared,
    fast_path: bool,
) {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let bytes = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let line = std::str::from_utf8(bytes.strip_suffix(b"\r").unwrap_or(bytes));
        if line.is_ok_and(|l| l.trim().is_empty()) {
            continue;
        }
        let t0 = Instant::now();
        shared.requests.incr();
        recorder::mark("serve.request", 1);
        let parsed = line.map_err(|e| RequestError {
            id: 0,
            error: TybecError::new(ErrorCategory::Parse, format!("request line is not UTF-8: {e}")),
        });
        let req = match parsed.and_then(parse_request) {
            Ok(r) => r,
            Err(RequestError { id, error }) => {
                shared.errors.incr();
                shared.request_ns.record(t0.elapsed().as_nanos() as u64);
                write_line(&writer, &render_err(id, &error, None));
                continue;
            }
        };
        // Exact-text fast path: a repeat of request bytes the daemon has
        // already answered skips parsing, fingerprinting, and the
        // dispatcher — the reader serves the cached payload directly.
        if fast_path {
            if let Some(hit) = fast_key(&req.kind).and_then(|k| shared.fast_get(&k)) {
                shared.cache_hits.incr();
                write_line(&writer, &render_ok(req.id, &hit));
                shared.request_ns.record(t0.elapsed().as_nanos() as u64);
                continue;
            }
        }
        match prepare(&req.kind) {
            Ok((work, key)) => {
                if let (Some(fk), Some(key)) = (fast_key(&req.kind), &key) {
                    shared.fast_put(fk, key.clone());
                }
                shared.enqueued();
                let job = Job { id: req.id, req, work, key, writer: Arc::clone(&writer), t0 };
                if job_tx.send(job).is_err() {
                    return;
                }
            }
            Err(e) => {
                shared.errors.incr();
                shared.request_ns.record(t0.elapsed().as_nanos() as u64);
                write_line(&writer, &render_err(req.id, &e, None));
            }
        }
    }
}

fn dispatch_loop(
    job_rx: &Receiver<Job>,
    group_tx: &Sender<Group>,
    shared: &Shared,
    batch_max: usize,
    fault_inject: Option<fn(&Request) -> bool>,
) {
    while let Ok(first) = job_rx.recv() {
        let mut batch = vec![first];
        while batch.len() < batch_max {
            match job_rx.try_recv() {
                Ok(j) => batch.push(j),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        shared.dequeued(batch.len() as u64);
        shared.batches.incr();
        shared.batch_size.record(batch.len() as u64);

        // Group same-class cacheable jobs; faulted and uncacheable jobs
        // stay singletons. Arrival order is preserved group-wise, so a
        // quiet daemon (batches of one) behaves exactly like no batching.
        let mut groups: Vec<Group> = Vec::new();
        for job in batch {
            let fault = fault_inject.map(|pred| pred(&job.req)).unwrap_or(false);
            let slot = (!fault).then_some(job.key.as_ref()).flatten().and_then(|key| {
                groups
                    .iter_mut()
                    .find(|g| !g.fault && g.jobs.first().and_then(|j| j.key.as_ref()) == Some(key))
            });
            match slot {
                Some(g) => g.jobs.push(job),
                None => groups.push(Group { jobs: vec![job], fault }),
            }
        }
        for g in groups {
            if group_tx.send(g).is_err() {
                return;
            }
        }
    }
}

/// Execute one group on this worker: cache probe, guarded compute by the
/// leader, fan the payload out to every member under its own id.
fn run_group(engine: &mut Engine, group: Group, shared: &Shared, endpoint: &Endpoint) {
    let Group { jobs, fault } = group;
    let leader = jobs.first().expect("groups are non-empty");
    // Injected faults skip the cache and the single-flight table, so the
    // fault actually fires and nobody waits on it.
    let payload = match (&leader.key, fault) {
        (Some(key), false) => cached_or_computed(engine, &leader.work, key, jobs.len(), shared),
        _ => engine.compute_guarded(&leader.work, shared, fault),
    };

    match &payload {
        Ok(text) => {
            for job in &jobs {
                write_line(&job.writer, &render_ok(job.id, text));
                shared.request_ns.record(job.t0.elapsed().as_nanos() as u64);
            }
        }
        Err((e, dump)) => {
            for job in &jobs {
                shared.errors.incr();
                write_line(&job.writer, &render_err(job.id, e, dump.as_deref()));
                shared.request_ns.record(job.t0.elapsed().as_nanos() as u64);
            }
        }
    }

    if matches!(leader.work, Work::Shutdown) {
        // `compute` set the flag; unblock the accept loop.
        endpoint.poke();
    }
}

/// The payload for a cacheable group of `members` jobs: from the cache,
/// from another worker's computation of the same key (single flight), or
/// computed here and cached. Members served without a computation of
/// their own count as cache hits.
fn cached_or_computed(
    engine: &mut Engine,
    work: &Work,
    key: &CacheKey,
    members: usize,
    shared: &Shared,
) -> Outcome {
    let claim = match shared.cache_get(key) {
        Some(hit) => Claim::Hit(hit),
        None => shared.claim(key),
    };
    match claim {
        Claim::Hit(hit) => {
            shared.cache_hits.add(members as u64);
            Ok(hit)
        }
        Claim::Follow(flight) => {
            let outcome = flight.wait();
            if outcome.is_ok() {
                shared.cache_hits.add(members as u64);
            }
            outcome
        }
        Claim::Lead(flight) => {
            let outcome = engine.compute_guarded(work, shared, false);
            if let Ok(payload) = &outcome {
                shared.cache_misses.incr();
                shared.cache_hits.add(members as u64 - 1);
                shared.cache_put(key.clone(), payload.clone());
            }
            shared.land(key, &flight, &outcome);
            outcome
        }
    }
}

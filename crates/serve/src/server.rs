//! The daemon: the listener, and one thread per connection that answers
//! that connection's requests end to end, in request order.
//!
//! ```text
//! accept loop ──▶ connection thread              (serve.conn.N lanes)
//!                   │ decode JSONL; exact-text fast path
//!                   │ parse TIRL, fingerprint
//!                   │ cache probe → single flight → guarded compute
//!                   │ on an engine taken from the daemon's pool
//!                   ▼
//!                 response written on the same thread (ids echoed)
//! ```
//!
//! Concurrent clients asking the same question pay for one computation:
//! a connection that misses the cache on a key another connection is
//! computing waits for that payload (the single-flight table in
//! [`Shared`]). Engines are pooled, not owned by connections, so a
//! client that sends one request and hangs up still lands on warm
//! estimator sessions.

use crate::engine::{fast_key, prepare, CacheKey, Claim, Engine, Outcome, Shared, Work};
use crate::protocol::{parse_request, render_err, render_ok, Request, RequestError};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::str::Utf8Error;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use tytra_ir::{ErrorCategory, TybecError};
use tytra_trace::recorder;

/// Daemon settings.
#[derive(Clone)]
pub struct ServeConfig {
    /// Cross-request cache capacity (entries; CLOCK-evicted past it).
    pub cache_capacity: usize,
    /// Test hook: requests this predicate matches panic inside the
    /// guarded region (the `SearchConfig::fault_inject` idiom),
    /// exercising per-request fault isolation.
    pub fault_inject: Option<fn(&Request) -> bool>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { cache_capacity: 4096, fault_inject: None }
    }
}

/// Where the daemon listens; also how a shutdown pokes the accept loop
/// out of its blocking `accept`.
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

/// What every connection thread shares: the cache and metrics, the
/// engine pool, and the settings.
struct Daemon {
    shared: Arc<Shared>,
    /// Idle engines. A computation takes one (or makes one) and puts it
    /// back, so the pool never holds more engines than the peak number
    /// of concurrent computations.
    engines: Mutex<Vec<Engine>>,
    endpoint: Endpoint,
    fault_inject: Option<fn(&Request) -> bool>,
}

/// A running daemon. Dropping the handle does NOT stop the server; call
/// [`stop`][ServerHandle::stop].
pub struct ServerHandle {
    daemon: Arc<Daemon>,
    join: JoinHandle<()>,
}

impl ServerHandle {
    /// The TCP address the daemon is listening on (panics for a
    /// Unix-socket daemon).
    pub fn addr(&self) -> SocketAddr {
        match &self.daemon.endpoint {
            Endpoint::Tcp(a) => *a,
            #[cfg(unix)]
            Endpoint::Unix(_) => panic!("unix-socket server has no TCP address"),
        }
    }

    /// The daemon-wide shared state (cache + metrics registry).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.daemon.shared
    }

    /// Block until the daemon exits on its own: a `shutdown` request has
    /// been served and every connected client has hung up. This is what
    /// `tybec serve` does after binding.
    pub fn wait(self) {
        let _ = self.join.join();
    }

    /// Stop accepting connections and return once every connected
    /// client has hung up.
    pub fn stop(self) {
        self.daemon.shared.shutdown.store(true, Ordering::SeqCst);
        self.daemon.endpoint.poke();
        self.wait();
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
    let daemon = Arc::new(Daemon {
        shared: Arc::new(Shared::new(cfg.cache_capacity)),
        engines: Mutex::new(Vec::new()),
        endpoint,
        fault_inject: cfg.fault_inject,
    });
    let join = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            tytra_trace::set_thread_label("serve.accept");
            accept_loop(listener, &daemon);
        })
    };
    ServerHandle { daemon, join }
}

/// Accept connections, one thread each, until shutdown; then stop
/// listening and join the connections still open, which end when their
/// clients hang up.
fn accept_loop(listener: Listener, daemon: &Arc<Daemon>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut conn_id = 0u64;
    loop {
        let stream = match &listener {
            Listener::Tcp(l) => l.accept().ok().and_then(|(s, _)| split_tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().ok().and_then(|(s, _)| split_unix(s)),
        };
        if daemon.shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Some((reader, writer)) = stream else { continue };
        // Join the connections whose clients have hung up, so a
        // long-lived daemon holds one handle per open connection.
        for done in conns.extract_if(.., |c| c.is_finished()) {
            let _ = done.join();
        }
        conn_id += 1;
        let daemon = Arc::clone(daemon);
        let label = format!("serve.conn.{conn_id}");
        conns.push(std::thread::spawn(move || {
            tytra_trace::set_thread_label(&label);
            daemon.serve_connection(reader, writer);
        }));
    }
    drop(listener);
    for conn in conns {
        let _ = conn.join();
    }
}

type Halves = (Box<dyn BufRead + Send>, Box<dyn Write + Send>);

fn split_tcp(s: TcpStream) -> Option<Halves> {
    let r = s.try_clone().ok()?;
    Some((Box::new(BufReader::new(r)), Box::new(s)))
}

#[cfg(unix)]
fn split_unix(s: UnixStream) -> Option<Halves> {
    let r = s.try_clone().ok()?;
    Some((Box::new(BufReader::new(r)), Box::new(s)))
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl Daemon {
    /// Answer one connection's requests in order until its client hangs
    /// up. Lines are read as bytes, so a line that is not UTF-8 gets a
    /// `parse` error like any other malformed request, and the requests
    /// after it are still served.
    fn serve_connection(
        &self,
        mut reader: Box<dyn BufRead + Send>,
        mut writer: Box<dyn Write + Send>,
    ) {
        let shared = &self.shared;
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
            let (id, outcome) = self.answer(line);
            let t_write = Instant::now();
            let response = match &outcome {
                Ok(payload) => render_ok(id, payload),
                Err((e, dump)) => {
                    shared.errors.incr();
                    render_err(id, e, dump.as_deref())
                }
            };
            let _ = writer.write_all(response.as_bytes()).and_then(|()| writer.flush());
            shared.write_ns.record(elapsed_ns(t_write));
            shared.request_ns.record(elapsed_ns(t0));
        }
    }

    /// One request line's id and outcome.
    fn answer(&self, line: Result<&str, Utf8Error>) -> (u64, Outcome) {
        let shared = &self.shared;
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
        shared.decode_ns.record(elapsed_ns(t));
        let req = match decoded {
            Ok(r) => r,
            Err(RequestError { id, error }) => return (id, Err((error, None))),
        };
        // Exact-text fast path: a repeat of request bytes the daemon has
        // already answered skips parsing and fingerprinting. It is off
        // while fault injection is armed, so every matched request
        // reaches the guarded compute and panics.
        let fast = if self.fault_inject.is_none() { fast_key(&req.kind) } else { None };
        if let Some(hit) = fast.as_ref().and_then(|k| shared.fast_get(k)) {
            shared.cache_hits.incr();
            return (req.id, Ok(hit));
        }
        let t = Instant::now();
        let prepared = prepare(&req.kind);
        shared.prepare_ns.record(elapsed_ns(t));
        let (work, key) = match prepared {
            Ok(p) => p,
            Err(e) => return (req.id, Err((e, None))),
        };
        if let (Some(fk), Some(key)) = (fast, &key) {
            shared.fast_put(fk, key.clone());
        }
        // Injected faults skip the cache and the single-flight table, so
        // the fault actually fires and nobody waits on it.
        let fault = self.fault_inject.is_some_and(|pred| pred(&req));
        let outcome = match &key {
            Some(key) if !fault => self.cached_or_computed(&work, key),
            _ => self.compute(&work, fault),
        };
        if matches!(work, Work::Shutdown) {
            // `compute` set the flag; unblock the accept loop. This
            // connection is still served until its client hangs up.
            self.endpoint.poke();
        }
        (req.id, outcome)
    }

    /// The payload for a cacheable request: from the cache, from another
    /// connection's computation of the same key (single flight), or
    /// computed here and cached.
    fn cached_or_computed(&self, work: &Work, key: &CacheKey) -> Outcome {
        let shared = &self.shared;
        let claim = match shared.cache_get(key) {
            Some(hit) => Claim::Hit(hit),
            None => shared.claim(key),
        };
        match claim {
            Claim::Hit(hit) => {
                shared.cache_hits.incr();
                Ok(hit)
            }
            Claim::Follow(flight) => {
                let outcome = flight.wait();
                if outcome.is_ok() {
                    shared.cache_hits.incr();
                }
                outcome
            }
            Claim::Lead(flight) => {
                let outcome = self.compute(work, false);
                if let Ok(payload) = &outcome {
                    shared.cache_misses.incr();
                    shared.cache_put(key.clone(), payload.clone());
                }
                shared.land(key, &flight, &outcome);
                outcome
            }
        }
    }

    /// [`Engine::compute_guarded`] on an engine from the pool.
    fn compute(&self, work: &Work, fault: bool) -> Outcome {
        let pooled = self.engines.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let mut engine = pooled.unwrap_or_default();
        let t = Instant::now();
        let outcome = engine.compute_guarded(work, &self.shared, fault);
        self.shared.compute_ns.record(elapsed_ns(t));
        self.engines.lock().unwrap_or_else(|e| e.into_inner()).push(engine);
        outcome
    }
}

//! The daemon: the listener, and one thread per connection that answers
//! that connection's requests end to end, in request order.
//!
//! ```text
//! accept loop ──▶ connection thread              (serve.conn.N lanes)
//!                   │ decode JSONL; exact-text fast path
//!                   │ parse + validate TIRL, build its arena, fingerprint
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

use crate::engine::{elapsed_ns, Engine, Outcome, Shared, Work};
use crate::protocol::Request;
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
            let response = shared.serve_line(line, self.fault_inject, |work, fault| {
                let outcome = self.compute(work, fault);
                if matches!(work, Work::Shutdown) {
                    // `compute` set the flag; unblock the accept loop.
                    // This connection is still served until its client
                    // hangs up.
                    self.endpoint.poke();
                }
                outcome
            });
            let t_write = Instant::now();
            let _ = writer.write_all(response.as_bytes()).and_then(|()| writer.flush());
            shared.write_ns.record(elapsed_ns(t_write));
            shared.request_ns.record(elapsed_ns(t0));
        }
    }

    /// [`Engine::compute_guarded`] on an engine from the pool.
    fn compute(&self, work: &Work, fault: bool) -> Outcome {
        let pooled = self.engines.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let mut engine = pooled.unwrap_or_default();
        let outcome = engine.compute_guarded(work, &self.shared, fault);
        self.engines.lock().unwrap_or_else(|e| e.into_inner()).push(engine);
        outcome
    }
}

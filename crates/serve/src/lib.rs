//! `tybec serve` — the cost model as a long-running service.
//!
//! Every offline `tybec` invocation pays cold-start parsing, session
//! warm-up, and process spawn before the first estimate. This crate
//! keeps all of that alive across requests: a zero-dependency JSONL
//! daemon (TCP or Unix socket) in which each connection's thread answers
//! its requests in order, on a pool of engines holding warm
//! [`EstimatorSession`](tytra_cost::EstimatorSession)s, behind a
//! cross-request response cache bounded by the same CLOCK policy
//! ([`tytra_trace::bounded`]) as the session memos and a single-flight
//! table that makes concurrent identical misses compute once.
//!
//! Guarantees, pinned by the loopback suite and the `serve-equivalence`
//! fuzz oracle:
//!
//! - **Byte-identity**: an `estimate` payload is byte-identical to
//!   `tybec cost` stdout for the same design and target; a `dse`
//!   payload to the offline leaderboard — whatever engine, connection
//!   or cache state produced it, in any concurrency interleaving.
//! - **Request order**: a connection's responses come back in the order
//!   of its requests.
//! - **Fault isolation**: a panicking request answers with a
//!   categorized internal error plus a flight-recorder dump; the daemon
//!   and its other requests are unaffected.
//! - **Bounded memory**: the response cache and every session memo
//!   table evict under capacity pressure, with `evictions` counters in
//!   the live registry.
//!
//! Protocol spec, error payloads, and deployment notes: `docs/serve.md`.

pub mod engine;
pub mod protocol;
pub mod server;

pub use engine::{prepare, Engine, Shared, Work};
pub use protocol::{
    parse_request, render_err, render_ok, MetricsFormat, Request, RequestError, RequestKind,
};
pub use server::{serve_tcp, ServeConfig, ServerHandle};

#[cfg(unix)]
pub use server::serve_unix;

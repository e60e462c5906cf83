//! Loopback suite: real sockets, concurrent clients, and the pinned
//! service guarantees — byte-identity with the offline CLI renderings,
//! warm-equals-cold replay, request order on a connection, per-request
//! fault isolation, the shutdown drain, and the `dse` request's board
//! size and lane handling.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;
use tytra_dse::{render_search_leaderboard, search, ExplorationConfig, SearchConfig};
use tytra_kernels::{EvalKernel, Hotspot, Sor};
use tytra_serve::{serve_tcp, ServeConfig};
use tytra_trace::json::{self, Json};
use tytra_transform::Variant;

/// TIRL source for a kernel variant — what a client would send.
fn design(kernel: &str, lanes: u64) -> String {
    let k: Box<dyn EvalKernel> = match kernel {
        "sor" => Box::new(Sor::default()),
        "hotspot" => Box::new(Hotspot::default()),
        other => panic!("unknown kernel {other}"),
    };
    let v = Variant { lanes, ..Variant::baseline() };
    tytra_ir::print(&k.lower_variant(&v).expect("lowerable variant"))
}

fn request(id: u64, kind: &str, src: &str, target: &str) -> String {
    format!(
        "{{\"id\":{id},\"kind\":\"{kind}\",\"design\":\"{}\",\"target\":\"{target}\"}}\n",
        json::escape(src)
    )
}

/// What the offline CLI prints for the same input: `tybec cost` stdout
/// for estimate, the session bound debug rendering, the analyze report.
fn offline(kind: &str, src: &str, target: &str) -> String {
    let dev = tytra_device::target_by_name(target).expect("known target").1();
    let m = tytra_ir::parse(src).expect("server-accepted design parses offline");
    match kind {
        "estimate" => format!("{}", tytra_cost::estimate(&m, &dev).expect("estimable")),
        "bound" => {
            let mut s = tytra_cost::EstimatorSession::new(dev);
            format!("{:?}", s.bound(&m).expect("boundable"))
        }
        "analyze" => tytra_analyze::analyze_module(&m).render_text(),
        other => panic!("unknown kind {other}"),
    }
}

/// Send `lines` over one connection and collect the responses by id.
fn roundtrip(addr: std::net::SocketAddr, lines: &[String]) -> HashMap<u64, Json> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for line in lines {
        stream.write_all(line.as_bytes()).expect("send");
    }
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut by_id = HashMap::new();
    for _ in 0..lines.len() {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        let v = json::parse(resp.trim_end()).expect("response is valid JSON");
        let id = v.get("id").and_then(Json::as_num).expect("response id") as u64;
        by_id.insert(id, v);
    }
    by_id
}

fn report_of(v: &Json) -> &str {
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "expected ok response: {v:?}");
    v.get("report").and_then(Json::as_str).expect("report payload")
}

#[test]
fn concurrent_clients_get_byte_identical_offline_payloads() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    // Three structural classes × three request flavours, each with its
    // offline-CLI expected payload computed up front.
    let cases: Vec<(String, String, String)> = {
        let designs = [("sor", 1), ("sor", 4), ("hotspot", 2)].map(|(k, l)| design(k, l)).to_vec();
        let mut cases = Vec::new();
        for src in &designs {
            for kind in ["estimate", "bound", "analyze"] {
                cases.push((kind.to_string(), src.clone(), offline(kind, src, "eval-small")));
            }
        }
        cases
    };

    const CLIENTS: u64 = 6;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let cases = &cases;
            scope.spawn(move || {
                // Each client walks the cases from a different offset, so
                // the daemon sees interleaved mixes of structural classes.
                let lines: Vec<String> = cases
                    .iter()
                    .cycle()
                    .skip(c as usize)
                    .take(cases.len())
                    .enumerate()
                    .map(|(i, (kind, src, _))| {
                        request(c * 1000 + i as u64, kind, src, "eval-small")
                    })
                    .collect();
                let responses = roundtrip(addr, &lines);
                for (i, (kind, _, expected)) in
                    cases.iter().cycle().skip(c as usize).take(cases.len()).enumerate()
                {
                    let resp = &responses[&(c * 1000 + i as u64)];
                    assert_eq!(
                        report_of(resp),
                        expected,
                        "client {c} request {i} ({kind}) diverged from the offline CLI"
                    );
                }
            });
        }
    });

    let snap = handle.shared().snapshot();
    let hits = snap.counter("serve.cache.hits");
    let misses = snap.counter("serve.cache.misses");
    assert!(hits > 0, "replayed classes must hit the cross-request cache");
    assert!(misses >= 9, "each distinct (kind, design) class computes at least once");
    handle.stop();
}

#[test]
fn warm_replay_is_bit_identical_to_cold() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let src = design("sor", 2);
    let lines: Vec<String> = (0..4).map(|i| request(i, "estimate", &src, "eval-small")).collect();
    let responses = roundtrip(handle.addr(), &lines);

    // First answer is computed cold; the rest come from warm sessions
    // and the cross-request cache. All must be the same bytes, and the
    // same bytes `tybec cost` prints.
    let expected = offline("estimate", &src, "eval-small");
    for i in 0..4 {
        assert_eq!(report_of(&responses[&i]), expected, "replay {i} diverged");
    }
    let snap = handle.shared().snapshot();
    assert_eq!(snap.counter("serve.cache.misses"), 1, "one cold computation");
    assert!(snap.counter("serve.cache.hits") >= 3, "replays served warm");
    handle.stop();
}

#[test]
fn the_cache_key_is_the_design_structure_not_its_text() {
    // A comment and a new indentation miss the exact-text fast path but
    // leave the design's structure, and so its cache key, as it was; a
    // changed immediate is a new design.
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let src = design("sor", 1);
    let respaced = format!("; the same design, re-indented\n{}", src.replace("\n  ", "\n\t "));
    let changed = src.replacen(", 3\n", ", 4\n", 1);
    assert!(respaced != src && changed != src, "both variants differ in text");
    let lines: Vec<String> = [&src, &respaced, &changed]
        .iter()
        .enumerate()
        .map(|(i, s)| request(i as u64, "estimate", s, "eval-small"))
        .collect();
    let responses = roundtrip(handle.addr(), &lines);
    assert_eq!(report_of(&responses[&1]), report_of(&responses[&0]));
    assert_eq!(report_of(&responses[&0]), offline("estimate", &src, "eval-small"));
    assert_eq!(report_of(&responses[&2]), offline("estimate", &changed, "eval-small"));
    let snap = handle.shared().snapshot();
    assert_eq!(snap.counter("serve.cache.misses"), 2, "the original and the changed design");
    assert_eq!(snap.counter("serve.cache.hits"), 1, "the re-indented design");
    handle.stop();
}

#[test]
fn concurrent_identical_requests_compute_once() {
    // Eight connections, each answered on its own thread, start the same
    // cold request at once: only the single-flight table keeps them from
    // all computing it.
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = handle.addr();
    // Wide enough that a cold estimate outlasts the other connections'
    // parse of the same request: without single flight this stampedes.
    let src = design("hotspot", 16);

    const CONNS: u64 = 8;
    const PER_CONN: u64 = 8;
    let start = std::sync::Barrier::new(CONNS as usize);
    let reports: Vec<String> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNS)
            .map(|c| {
                let (start, src) = (&start, &src);
                scope.spawn(move || {
                    let lines: Vec<String> = (0..PER_CONN)
                        .map(|i| request(c * PER_CONN + i, "estimate", src, "eval-small"))
                        .collect();
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    start.wait();
                    stream.write_all(lines.concat().as_bytes()).expect("send");
                    let mut reader = BufReader::new(stream);
                    (0..PER_CONN)
                        .map(|_| {
                            let mut resp = String::new();
                            reader.read_line(&mut resp).expect("read response");
                            let v = json::parse(resp.trim_end()).expect("valid JSON");
                            report_of(&v).to_string()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect()
    });

    assert_eq!(reports.len() as u64, CONNS * PER_CONN);
    let expected = offline("estimate", &src, "eval-small");
    assert!(reports.iter().all(|r| *r == expected), "every answer is the offline bytes");
    let snap = handle.shared().snapshot();
    assert_eq!(snap.counter("serve.cache.misses"), 1, "one computation for 64 requests");
    assert_eq!(snap.counter("serve.cache.hits"), CONNS * PER_CONN - 1);
    // The one computation answered its leader and the connections that
    // followed its flight: at most one first request per connection.
    let answered = handle.shared().batch_size.summary();
    assert_eq!(answered.count, 1, "one led flight");
    assert!((1..=CONNS).contains(&answered.sum), "{answered:?}");
    handle.stop();
}

#[test]
fn injected_fault_is_answered_and_isolated() {
    let cfg = ServeConfig { fault_inject: Some(|req| req.id == 666), ..ServeConfig::default() };
    let handle = serve_tcp("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr();
    let src = design("sor", 1);

    let lines = vec![
        request(666, "estimate", &src, "eval-small"),
        request(1, "estimate", &src, "eval-small"),
    ];
    let responses = roundtrip(addr, &lines);

    // The faulted request gets a categorized internal error with the
    // worker's flight-recorder breadcrumbs attached.
    let faulted = &responses[&666];
    assert_eq!(faulted.get("ok").and_then(Json::as_bool), Some(false));
    let err = faulted.get("error").expect("error object");
    assert_eq!(err.get("category").and_then(Json::as_str), Some("internal"));
    assert_eq!(err.get("exit_code").and_then(Json::as_num), Some(10.0));
    let msg = err.get("message").and_then(Json::as_str).unwrap_or_default();
    assert!(msg.contains("injected fault"), "message names the panic: {msg}");
    let dump = faulted.get("flight_dump").and_then(Json::as_str).unwrap_or_default();
    assert!(dump.contains("serve.fault_inject"), "dump has the breadcrumb: {dump}");

    // The healthy request after it on the same connection is unaffected,
    // and the daemon keeps serving new connections afterwards.
    assert_eq!(report_of(&responses[&1]), offline("estimate", &src, "eval-small"));
    let after = roundtrip(addr, &[request(2, "estimate", &src, "eval-small")]);
    assert_eq!(report_of(&after[&2]), offline("estimate", &src, "eval-small"));
    handle.stop();
}

#[test]
fn malformed_lines_are_rejected_without_killing_the_connection() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let src = design("sor", 1);
    let lines = vec![
        "]not json at all\n".to_string(),
        format!("{{\"id\":7,\"kind\":\"estimate\",\"design\":\"st1 broken\"}}\n"),
        request(8, "estimate", &src, "eval-small"),
    ];
    let responses = roundtrip(handle.addr(), &lines);

    let bad_json = &responses[&0];
    assert_eq!(bad_json.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        bad_json.get("error").and_then(|e| e.get("category")).and_then(Json::as_str),
        Some("parse")
    );
    let bad_design = &responses[&7];
    assert_eq!(bad_design.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(report_of(&responses[&8]), offline("estimate", &src, "eval-small"));
    handle.stop();
}

#[test]
fn a_non_utf8_line_is_answered_and_the_requests_after_it_are_served() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(b"{\"id\":1,\"kind\":\"metrics\"}\n\xff\n{\"id\":3,\"kind\":\"metrics\"}\n")
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut by_id = HashMap::new();
    for _ in 0..3 {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        let v = json::parse(resp.trim_end()).expect("response is valid JSON");
        by_id.insert(v.get("id").and_then(Json::as_num).expect("response id") as u64, v);
    }
    drop(reader);
    report_of(&by_id[&1]);
    report_of(&by_id[&3]);
    let error = by_id[&0].get("error").expect("the non-UTF-8 line gets an error");
    assert_eq!(error.get("category").and_then(Json::as_str), Some("parse"));
    assert_eq!(error.get("exit_code").and_then(Json::as_num), Some(2.0));
    let snap = handle.shared().snapshot();
    assert_eq!(snap.counter("serve.requests"), 3);
    assert_eq!(snap.counter("serve.errors"), 1);
    handle.stop();
}

#[test]
fn metrics_and_shutdown_round_trip() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = handle.addr();
    let src = design("sor", 1);
    let responses = roundtrip(addr, &[request(1, "estimate", &src, "eval-small")]);
    assert!(responses[&1].get("ok").and_then(Json::as_bool) == Some(true));

    let responses = roundtrip(
        addr,
        &[
            "{\"id\":2,\"kind\":\"metrics\",\"format\":\"prometheus\"}\n".to_string(),
            "{\"id\":3,\"kind\":\"shutdown\"}\n".to_string(),
        ],
    );
    let metrics = report_of(&responses[&2]);
    assert!(metrics.contains("serve_requests"), "prometheus exposition has serve metrics");
    assert_eq!(report_of(&responses[&3]), "shutting down");
    // The daemon exits on its own once the shutdown response is out and
    // the clients hang up — exactly what `tybec serve` blocks on.
    handle.wait();
}

/// Run `handle.wait()` on a watchdog thread; the receiver gets a message
/// once it returns, so a stalled daemon fails the test instead of hanging
/// the suite.
fn watch_wait(handle: tytra_serve::ServerHandle) -> mpsc::Receiver<()> {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.wait();
        let _ = done_tx.send(());
    });
    done_rx
}

const SHUTDOWN: &str = "{\"id\":9,\"kind\":\"shutdown\"}\n";

#[test]
fn shutdown_after_clients_hang_up_never_stalls() {
    let (sor1, sor2) = (design("sor", 1), design("sor", 2));
    for round in 0..100 {
        let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = handle.addr();
        let mut clients: Vec<TcpStream> =
            (0..2).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        for (id, (client, src)) in clients.iter_mut().zip([&sor1, &sor2]).enumerate() {
            client
                .write_all(request(id as u64, "estimate", src, "eval-small").as_bytes())
                .expect("send");
        }
        for client in &clients {
            let mut resp = String::new();
            BufReader::new(client).read_line(&mut resp).expect("read response");
            report_of(&json::parse(resp.trim_end()).expect("valid JSON"));
        }
        drop(clients);
        assert_eq!(report_of(&roundtrip(addr, &[SHUTDOWN.to_string()])[&9]), "shutting down");
        let done = watch_wait(handle);
        done.recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("round {round}: wait() did not return within 5 s"));
    }
}

#[test]
fn shutdown_drains_a_connected_client() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = handle.addr();
    let src = design("sor", 1);
    let mut client = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    let mut ask = |id: u64| {
        client.write_all(request(id, "estimate", &src, "eval-small").as_bytes()).expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        let v = json::parse(resp.trim_end()).expect("valid JSON");
        assert_eq!(v.get("id").and_then(Json::as_num), Some(id as f64));
        report_of(&v).to_string()
    };
    ask(1);

    assert_eq!(report_of(&roundtrip(addr, &[SHUTDOWN.to_string()])[&9]), "shutting down");
    let done = watch_wait(handle);
    assert!(
        done.recv_timeout(Duration::from_millis(200)).is_err(),
        "wait() returned while a client was still connected"
    );
    assert_eq!(ask(2), offline("estimate", &src, "eval-small"), "the connected client is served");
    drop((client, reader));
    done.recv_timeout(Duration::from_secs(5))
        .expect("wait() returns within 5 s of the last client's hang-up");
}

#[test]
fn one_connection_answers_in_request_order() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let src = design("sor", 1);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut resp = String::new();
    stream.write_all(request(1, "estimate", &src, "eval-small").as_bytes()).expect("send");
    reader.read_line(&mut resp).expect("read response");

    // A slow uncacheable search, then an exact repeat of request 1 (a
    // fast-path hit) and a line too broken to carry an id, in one write.
    let wide: Vec<u64> = (1..=64).collect();
    let pipelined = [
        dse_request(2, "hotspot", &wide, ""),
        request(3, "estimate", &src, "eval-small"),
        "]broken\n".to_string(),
    ];
    stream.write_all(pipelined.concat().as_bytes()).expect("send");
    let ids: Vec<u64> = (0..pipelined.len())
        .map(|_| {
            resp.clear();
            reader.read_line(&mut resp).expect("read response");
            let v = json::parse(resp.trim_end()).expect("valid JSON");
            v.get("id").and_then(Json::as_num).expect("response id") as u64
        })
        .collect();
    assert_eq!(ids, [2, 3, 0]);
    drop((stream, reader));
    handle.stop();
}

/// A valid design of `pipe` functions, each calling the next six times,
/// twelve levels deep: 2.8 kB of TIRL whose call hierarchy has 6^12
/// leaf instances.
fn fan_out_design() -> String {
    let mut src = String::from(
        "!module = !\"fanout\"\n!ndrange = !{64}\n!nki = !1\n!form = !\"B\"\n\
         %mem_p = memobj addrSpace(1) ui18, !size, !64\n\
         %strobj_p = streamobj %mem_p, !read, !\"CONT\"\n\
         @main.p = addrSpace(12) ui18, !\"istream\", !\"CONT\", !0, !\"strobj_p\"\n\
         %mem_q = memobj addrSpace(1) ui18, !size, !64\n\
         %strobj_q = streamobj %mem_q, !write, !\"CONT\"\n\
         @main.q = addrSpace(12) ui18, !\"ostream\", !\"CONT\", !0, !\"strobj_q\"\n\
         define void @f12(ui18 %p, out ui18 %q) pipe {\n  ui18 %q__out = or ui18 %p, 0\n}\n",
    );
    for l in (0..12).rev() {
        src += &format!("define void @f{l}(ui18 %p, out ui18 %q) pipe {{\n");
        src += &format!("  call @f{}(%p, %q) pipe\n", l + 1).repeat(6);
        src += "}\n";
    }
    src + "define void @main() {\n  call @f0(%p, %q) pipe\n}\n"
}

#[test]
fn an_over_budget_call_hierarchy_is_rejected_without_holding_the_connection() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let (fan, src) = (fan_out_design(), design("sor", 1));
    let lines = vec![
        request(1, "analyze", &fan, "eval-small"),
        request(2, "estimate", &fan, "eval-small"),
        request(3, "bound", &fan, "eval-small"),
        request(4, "estimate", &src, "eval-small"),
    ];
    let addr = handle.addr();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(roundtrip(addr, &lines));
    });
    let responses = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("answered within 10 s instead of expanding every call path");
    // The design validates, so analysis (which expands nothing) answers.
    report_of(&responses[&1]);
    for id in [2, 3] {
        let error = responses[&id].get("error").expect("rejected");
        assert_eq!(error.get("category").and_then(Json::as_str), Some("config"), "{id}");
        assert_eq!(error.get("exit_code").and_then(Json::as_num), Some(4.0), "{id}");
        let message = error.get("message").and_then(Json::as_str).expect("message");
        assert!(message.contains("more than 65536 configuration nodes"), "{message}");
    }
    assert_eq!(report_of(&responses[&4]), offline("estimate", &src, "eval-small"));
    handle.stop();
}

#[test]
fn phase_histograms_count_the_requests_that_reach_each_phase() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let shared = std::sync::Arc::clone(handle.shared());
    let src = design("sor", 1);
    // Each line with the phases it reaches past decoding and writing:
    // (p)repare and (c)ompute.
    let mix = [
        (request(1, "estimate", &src, "eval-small"), "pc"),
        (request(2, "estimate", &src, "eval-small"), ""), // exact-text fast path
        ("]not json\n".to_string(), ""),
        ("{\"id\":4,\"kind\":\"estimate\",\"design\":\"st1 broken\"}\n".to_string(), "p"),
        (request(5, "bound", &src, "eval-small"), "pc"),
        ("{\"id\":6,\"kind\":\"metrics\"}\n".to_string(), "pc"),
        (request(7, "estimate", &src, "stratix-v-gsd8"), "pc"),
        (request(8, "estimate", &src, "stratix"), "p"), // same cache key as 7
    ];
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for (line, _) in &mix {
        stream.write_all(line.as_bytes()).expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
    }
    drop((stream, reader));
    // The connection records a request's write after sending it; stop
    // returns once the connection's thread has ended.
    handle.stop();

    let reached = |phase: char| mix.iter().filter(|(_, p)| p.contains(phase)).count() as u64;
    let count = |h: &tytra_trace::metrics::Histogram| h.summary().count;
    let lines = mix.len() as u64;
    assert_eq!(count(&shared.decode_ns), lines);
    assert_eq!(count(&shared.prepare_ns), reached('p'));
    assert_eq!(count(&shared.compute_ns), reached('c'));
    assert_eq!(count(&shared.write_ns), lines);
    assert_eq!(count(&shared.request_ns), lines);
    // Led computations of cacheable requests, each answering one request.
    assert_eq!(shared.batch_size.summary().count, 3);
    assert_eq!(shared.batch_size.summary().sum, 3);
}

/// A `dse` request line; `extra` is spliced into the JSON object.
fn dse_request(id: u64, kernel: &str, lanes: &[u64], extra: &str) -> String {
    let lanes: Vec<String> = lanes.iter().map(u64::to_string).collect();
    format!(
        "{{\"id\":{id},\"kind\":\"dse\",\"kernel\":\"{kernel}\",\"lanes\":[{}]{extra}}}\n",
        lanes.join(",")
    )
}

/// The `== full exploration ==` section of a `tybec dse` run pinned in
/// the CLI's golden fixture.
fn golden_exploration(kernel: &str) -> String {
    const GOLDEN: &str = include_str!("../../cli/tests/golden/dse_lanes_1_64.txt");
    let run = GOLDEN
        .split_once(&format!("== tybec dse {kernel} --lanes 1,...,64\n"))
        .expect("kernel in the fixture")
        .1;
    let board = run.split_once("== full exploration ==\n").expect("exploration section").1;
    board.split_once("\n== guided tuning").expect("tuning section").0.to_string()
}

#[test]
fn dse_on_a_warmed_engine_equals_the_cli_exploration() {
    // One connection at a time, so one computation at a time: the pool
    // holds one engine, and the estimate and bound requests warm the
    // session the dse request then searches through.
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let src = design("sor", 4);
    let wide: Vec<u64> = (1..=64).collect();
    let lines = [
        request(1, "estimate", &src, "stratix-v-gsd8"),
        request(2, "bound", &src, "stratix-v-gsd8"),
        dse_request(3, "sor", &wide, ""),
    ];
    let mut responses = HashMap::new();
    for line in lines {
        responses.extend(roundtrip(handle.addr(), &[line]));
    }
    assert_eq!(report_of(&responses[&1]), offline("estimate", &src, "stratix-v-gsd8"));
    assert_eq!(report_of(&responses[&3]), golden_exploration("sor"));
    handle.stop();
}

#[test]
fn dse_top_sets_the_board_size() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let dev = tytra_device::stratix_v_gsd8();
    let wide: Vec<u64> = (1..=64).collect();
    let space = ExplorationConfig { lanes: wide.clone(), ..ExplorationConfig::default() };
    let lines = [
        dse_request(1, "sor", &wide, ",\"top\":20"),
        dse_request(2, "sor", &wide, ",\"top\":9007199254740991"),
    ];
    let responses = roundtrip(handle.addr(), &lines);

    let twenty = search(
        &Sor::default(),
        &dev,
        &SearchConfig { space: space.clone(), top_k: 20, ..SearchConfig::default() },
    );
    assert_eq!(twenty.leaderboard.len(), 20);
    assert_eq!(report_of(&responses[&1]), render_search_leaderboard(&twenty, 20));

    // A board as large as JSON integers go holds every valid variant.
    let all = search(
        &Sor::default(),
        &dev,
        &SearchConfig { space, top_k: usize::MAX, ..SearchConfig::default() },
    );
    let valid = all.stats.generated - all.invalid.len() as u64 - all.stats.faulted;
    assert_eq!(all.leaderboard.len() as u64, valid);
    assert_eq!(report_of(&responses[&2]), render_search_leaderboard(&all, usize::MAX));
    handle.stop();
}

#[test]
fn dse_repeated_lanes_and_the_unread_exhaustive_field_change_nothing() {
    // The search estimates every variant, so `exhaustive` is a field the
    // protocol does not read, and unread fields are ignored.
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let target = ",\"target\":\"eval-small\"";
    let exhaustive = format!("{target},\"exhaustive\":true");
    let lines = [
        dse_request(1, "sor", &[2, 2], target),
        dse_request(2, "sor", &[2], target),
        dse_request(3, "sor", &[2], &exhaustive),
    ];
    let responses = roundtrip(handle.addr(), &lines);
    let repeated = report_of(&responses[&1]);
    assert_eq!(repeated, report_of(&responses[&2]));
    assert_eq!(report_of(&responses[&3]), repeated);
    // Header plus one row per variant: vect {1, 2} × forms {A, B}.
    assert_eq!(repeated.lines().count(), 5, "{repeated}");
    handle.stop();
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_the_same_bytes() {
    use std::os::unix::net::UnixStream;
    let path = std::env::temp_dir().join(format!("tybec-serve-test-{}.sock", std::process::id()));
    let handle = tytra_serve::serve_unix(&path, ServeConfig::default()).expect("bind unix");
    let src = design("hotspot", 1);

    let mut stream = UnixStream::connect(&path).expect("connect unix");
    stream.write_all(request(5, "estimate", &src, "eval-small").as_bytes()).expect("send");
    let mut resp = String::new();
    BufReader::new(stream.try_clone().expect("clone")).read_line(&mut resp).expect("read");
    drop(stream);

    let v = json::parse(resp.trim_end()).expect("valid response");
    assert_eq!(report_of(&v), offline("estimate", &src, "eval-small"));
    handle.stop();
    let _ = std::fs::remove_file(&path);
}

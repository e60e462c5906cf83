//! Loopback suite: real sockets, concurrent clients, and the pinned
//! service guarantees — byte-identity with the offline CLI renderings,
//! warm-equals-cold replay, per-request fault isolation, and the `dse`
//! request's board size and lane handling.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use tytra_dse::{render_search_leaderboard, search, ExplorationConfig, SearchConfig};
use tytra_kernels::{EvalKernel, Hotspot, Sor};
use tytra_serve::{serve_tcp, target_device, ServeConfig};
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
    let dev = target_device(target).expect("known target");
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
/// Responses may arrive out of order; ids correlate.
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
fn concurrent_identical_requests_compute_once() {
    // One dispatcher wake-up per request and several workers: identical
    // requests land in different batches on different workers, so only
    // the single-flight table keeps them from all computing.
    let cfg = ServeConfig { workers: 4, batch_max: 1, ..ServeConfig::default() };
    let handle = serve_tcp("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr();
    // Wide enough that a cold estimate outlasts the other readers' parse
    // of the same request: without single flight this stampedes.
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

    // The healthy request in the same batch window is unaffected, and
    // the daemon keeps serving new connections afterwards.
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

/// A `dse` request line; `extra` is spliced into the JSON object.
fn dse_request(id: u64, lanes: &[u64], extra: &str) -> String {
    let lanes: Vec<String> = lanes.iter().map(u64::to_string).collect();
    format!(
        "{{\"id\":{id},\"kind\":\"dse\",\"kernel\":\"sor\",\"lanes\":[{}]{extra}}}\n",
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
fn dse_on_a_warmed_worker_equals_the_cli_exploration() {
    // One worker: the estimate and bound requests warm the session the
    // dse request then searches through.
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let handle = serve_tcp("127.0.0.1:0", cfg).expect("bind");
    let src = design("sor", 4);
    let wide: Vec<u64> = (1..=64).collect();
    let lines = [
        request(1, "estimate", &src, "stratix-v-gsd8"),
        request(2, "bound", &src, "stratix-v-gsd8"),
        dse_request(3, &wide, ""),
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
    let dev = target_device("stratix-v-gsd8").expect("known target");
    let wide: Vec<u64> = (1..=64).collect();
    let space = ExplorationConfig { lanes: wide.clone(), ..ExplorationConfig::default() };
    let lines =
        [dse_request(1, &wide, ",\"top\":20"), dse_request(2, &wide, ",\"top\":9007199254740991")];
    let responses = roundtrip(handle.addr(), &lines);

    let twenty = search(
        &Sor::default(),
        &dev,
        &SearchConfig { top_k: 20, ..SearchConfig::pruned(space.clone()) },
    );
    assert_eq!(twenty.leaderboard.len(), 20);
    assert_eq!(report_of(&responses[&1]), render_search_leaderboard(&twenty, 20));

    // A board as large as JSON integers go holds every valid variant.
    let all = search(
        &Sor::default(),
        &dev,
        &SearchConfig { top_k: usize::MAX, ..SearchConfig::exhaustive(space) },
    );
    let valid = all.stats.generated - all.invalid.len() as u64 - all.stats.faulted;
    assert_eq!(all.leaderboard.len() as u64, valid);
    assert_eq!(report_of(&responses[&2]), render_search_leaderboard(&all, usize::MAX));
    handle.stop();
}

#[test]
fn dse_repeated_lanes_are_searched_once() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let target = ",\"target\":\"eval-small\"";
    let lines = [dse_request(1, &[2, 2], target), dse_request(2, &[2], target)];
    let responses = roundtrip(handle.addr(), &lines);
    let repeated = report_of(&responses[&1]);
    assert_eq!(repeated, report_of(&responses[&2]));
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

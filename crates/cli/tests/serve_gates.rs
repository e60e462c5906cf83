//! The daemon's service gates, over an in-process `serve_tcp`:
//!
//! 1. **Mixed replay**: 8 clients pipeline 2,400 estimate, bound and
//!    analyze requests over six designs. Every response is `ok`, and the
//!    cross-request cache answers more than half of them.
//! 2. **Warm probe**: 200 lock-step estimates of one design. The p50 is
//!    under 1 ms and the p99 under 25 ms.
//! 3. **Spawn baseline**: the same estimate served one `tybec cost`
//!    process per request. The daemon serves at least 10× its
//!    requests/s.
//!
//! CI runs this in a release build (`cargo test --release -p tytra-cli
//! --test serve_gates`). A debug build slows the daemon more than it
//! slows process start, so there the throughput ratio is floored lower;
//! every other assertion is the same in every build.
//!
//! This file holds one test, so nothing else in its process competes
//! with the timings.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::Instant;
use tytra_kernels::{EvalKernel, Hotspot, LavaMd, Sor};
use tytra_serve::{serve_tcp, ServeConfig};
use tytra_trace::json::{self, Json};
use tytra_transform::Variant;

/// The designs the mixed replay cycles through: three kernels at a few
/// lane counts, as TIRL text.
fn designs() -> Vec<String> {
    let kernels: [(Box<dyn EvalKernel>, &[u64]); 3] = [
        (Box::new(Sor::default()), &[1, 2, 4]),
        (Box::new(Hotspot::default()), &[1, 2]),
        (Box::new(LavaMd::default()), &[1]),
    ];
    kernels
        .iter()
        .flat_map(|(k, lanes)| {
            lanes.iter().map(|&lanes| {
                let m = k.lower_variant(&Variant { lanes, ..Variant::baseline() }).expect("lowers");
                tytra_ir::print(&m)
            })
        })
        .collect()
}

fn request(id: usize, kind: &str, src: &str) -> String {
    format!(
        "{{\"id\":{id},\"kind\":\"{kind}\",\"design\":\"{}\",\"target\":\"eval-small\"}}\n",
        json::escape(src)
    )
}

/// Pipeline `lines` over one connection; every response must be `ok`.
fn drive(addr: SocketAddr, lines: &[String]) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(lines.concat().as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    for _ in lines {
        resp.clear();
        reader.read_line(&mut resp).expect("response");
        let v = json::parse(resp.trim_end()).expect("valid response JSON");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }
}

/// The `q`-quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn daemon_answers_every_request_hits_its_cache_and_outruns_process_spawn() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 300;
    const PROBES: usize = 200;
    const SPAWNS: usize = 20;
    let designs = designs();
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let addr = handle.addr();

    // Every client cycles kinds and designs from its own offset, so the
    // daemon sees interleaved repeats of each design.
    let kinds = ["estimate", "estimate", "bound", "analyze"];
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let designs = &designs;
            scope.spawn(move || {
                let lines: Vec<String> = (c * PER_CLIENT..(c + 1) * PER_CLIENT)
                    .map(|n| request(n, kinds[n % kinds.len()], &designs[n % designs.len()]))
                    .collect();
                drive(addr, &lines);
            });
        }
    });
    let served_per_s = (CLIENTS * PER_CLIENT) as f64 / t0.elapsed().as_secs_f64();

    let probe = request(0, "estimate", &designs[0]);
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut latencies_ms = Vec::with_capacity(PROBES);
    let mut resp = String::new();
    for _ in 0..PROBES {
        let t = Instant::now();
        stream.write_all(probe.as_bytes()).expect("send probe");
        resp.clear();
        reader.read_line(&mut resp).expect("probe response");
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop((stream, reader));
    latencies_ms.sort_by(f64::total_cmp);
    let (p50, p99) = (quantile(&latencies_ms, 0.5), quantile(&latencies_ms, 0.99));

    let snap = handle.shared().snapshot();
    handle.stop();
    let hits = snap.counter("serve.cache.hits");
    let misses = snap.counter("serve.cache.misses");
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    let tirl = std::env::temp_dir().join(format!("serve_gates_{}.tirl", std::process::id()));
    std::fs::write(&tirl, &designs[0]).expect("write the baseline design");
    let t0 = Instant::now();
    for _ in 0..SPAWNS {
        let out = Command::new(env!("CARGO_BIN_EXE_tybec"))
            .arg("cost")
            .arg(&tirl)
            .args(["--target", "eval-small"])
            .output()
            .expect("tybec runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let spawned_per_s = SPAWNS as f64 / t0.elapsed().as_secs_f64();
    std::fs::remove_file(&tirl).ok();
    let speedup = served_per_s / spawned_per_s;

    let summary = format!(
        "hits {hits}, misses {misses}, warm p50 {p50:.3} ms, p99 {p99:.3} ms, \
         {served_per_s:.0} vs {spawned_per_s:.0} requests/s ({speedup:.1}x)"
    );
    eprintln!("{summary}");
    assert!(hits > 0, "{summary}");
    assert!(hit_rate > 0.5, "cache hit rate {hit_rate:.3} is not over 50%: {summary}");
    assert!(p50 < 1.0, "warm p50 is not under 1 ms: {summary}");
    assert!(p99 < 25.0, "warm p99 is not under 25 ms: {summary}");
    let floor = if cfg!(debug_assertions) { 3.0 } else { 10.0 };
    assert!(speedup >= floor, "the daemon serves under {floor}x process spawn: {summary}");
}

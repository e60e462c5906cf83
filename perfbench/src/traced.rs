//! The traced run: per-layer numbers from in-process calls into each
//! crate's public functions.
//!
//! 1. A short untraced closed loop records the wall time of each op
//!    through `tybec` (spawned, or over the daemon socket).
//! 2. The same ops are replayed in process, once untraced and once with
//!    spans around every layer call. Spans (name, start, end, parent, op)
//!    stay in memory until the replay ends. Their self times give the
//!    layer table; the part of the op wall no layer call covers is
//!    `cli.unattributed_pct`; traced against untraced replay is
//!    `trace.overhead_pct`.
//! 3. Probes time each layer's public entry point on a seeded sample of
//!    the workload's own inputs, so every per-call metric is measured on
//!    every workload, including layers the workload's ops bypass.
//!
//! Span names are `<layer>.<call>`; layers are the workspace crates.

use crate::inputs::{self, Design, OpStream};
use crate::stats::median;
use crate::workloads::{Done, Prepared, Workload, ONESHOT_COMMANDS};
use crate::Metric;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tytra_cost::EstimatorSession;
use tytra_dse::{ExplorationConfig, SearchConfig, SearchStats};
use tytra_ir::MemForm;
use tytra_serve::{Engine, Shared, Work};
use tytra_transform::{enumerate_variants, InnerKind, Variant};

/// One recorded span.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: usize,
}

struct Recorder {
    on: bool,
    t0: Instant,
    op: usize,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        t0: Instant::now(),
        op: 0,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Run `f` inside a span named `name` (a plain call while tracing is off).
fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = REC.with_borrow_mut(|r| {
        r.on.then(|| {
            let id = r.spans.len();
            let start_ns = r.t0.elapsed().as_nanos() as u64;
            let parent = r.stack.last().copied();
            r.spans.push(SpanRec { name, start_ns, end_ns: start_ns, parent, op: r.op });
            r.stack.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        REC.with_borrow_mut(|r| {
            r.spans[id].end_ns = r.t0.elapsed().as_nanos() as u64;
            r.stack.pop();
        });
    }
    out
}

fn set_tracing(on: bool) {
    REC.with_borrow_mut(|r| r.on = on);
}

fn set_op(op: usize) {
    REC.with_borrow_mut(|r| r.op = op);
}

fn take_spans() -> Vec<SpanRec> {
    REC.with_borrow_mut(|r| std::mem::take(&mut r.spans))
}

/// What one replayed `dse` op did.
struct DseReplay {
    board: String,
    sweep: Duration,
    search: Duration,
    tune: Duration,
    stats: SearchStats,
}

/// The calls `tybec dse <kernel> --lanes …` makes, in its order.
fn replay_dse(kernel: &str, lanes: &[u64]) -> DseReplay {
    let kernel = inputs::kernel(kernel);
    let dev = inputs::device();
    let mut session = EstimatorSession::new(dev.clone());
    let t = Instant::now();
    let rows = span("dse.lane_sweep", || {
        tytra_dse::lane_sweep_session(kernel.as_ref(), &mut session, lanes, &Variant::baseline())
    });
    let sweep = t.elapsed();
    std::hint::black_box(span("cli.render", || tytra_dse::report::render_table(&rows)));
    let space = ExplorationConfig { lanes: lanes.to_vec(), ..ExplorationConfig::default() };
    let cfg = SearchConfig::pruned(space);
    let t = Instant::now();
    let outcome = span("dse.search", || tytra_dse::search(kernel.as_ref(), &dev, &cfg));
    let search = t.elapsed();
    let board = span("cli.render", || tytra_dse::render_search_leaderboard(&outcome, 10));
    let t = Instant::now();
    let steps = span("dse.tune", || {
        tytra_dse::tune_session(kernel.as_ref(), &mut session, Variant::baseline(), 12)
    });
    let tune = t.elapsed();
    std::hint::black_box(span("cli.render", || {
        let mut s = String::new();
        for step in &steps {
            let action = step.action.map(|a| format!("→ {a}")).unwrap_or_default();
            let _ = writeln!(
                s,
                "  {:<18} EKIT {:>12.1}  {} {}",
                step.variant.tag(),
                step.ekit,
                step.limiter,
                action
            );
        }
        s
    }));
    DseReplay { board, sweep, search, tune, stats: outcome.stats }
}

/// The calls `tybec <cmd> <design>` makes, returning what it checks
/// against: the full stdout, or for `actual` its first two lines.
fn replay_oneshot(cmd: &str, d: &Design) -> Result<String, String> {
    let dev = inputs::device();
    let e = |e: tytra_ir::TybecError| e.to_string();
    let src = span("cli.read", || std::fs::read_to_string(&d.path)).map_err(|e| e.to_string())?;
    let m = span("ir.parse", || tytra_ir::parse_unvalidated(&src)).map_err(|e| e.to_string())?;
    if cmd == "lint" {
        let report = span("lint.module", || tytra_lint::lint(&m, &dev));
        return Ok(span("cli.render", || tytra_lint::render_text(&report, &d.path)));
    }
    span("ir.validate", || tytra_ir::validate(&m)).map_err(|e| e.to_string())?;
    match cmd {
        "cost" => {
            let r = span("cost.estimate", || tytra_cost::estimate(&m, &dev)).map_err(e)?;
            Ok(span("cli.render", || format!("{r}")))
        }
        "analyze" => {
            let report = span("analyze.module", || tytra_analyze::analyze_module(&m));
            Ok(span("cli.render", || report.render_text()))
        }
        _ => {
            let est = span("cost.estimate", || tytra_cost::estimate(&m, &dev)).map_err(e)?;
            let synth = span("sim.synth", || tytra_sim::synthesize(&m, &dev)).map_err(e)?;
            let run = span("sim.run", || tytra_sim::run_application(&m, &dev)).map_err(e)?;
            std::hint::black_box(run.cpki());
            Ok(span("cli.render", || {
                format!("estimated: {}\nactual   : {}\n", est.resources.total, synth.resources)
            }))
        }
    }
}

/// The calls `Engine::respond` makes for one request line, split by layer.
fn replay_serve(line: &str, engine: &mut Engine, shared: &Shared) -> String {
    let req = match span("serve.request", || tytra_serve::parse_request(line)) {
        Ok(r) => r,
        Err(e) => return tytra_serve::render_err(e.id, &e.error, None),
    };
    let (work, key) = match span("ir.prepare", || tytra_serve::prepare(&req.kind)) {
        Ok(p) => p,
        Err(e) => return tytra_serve::render_err(req.id, &e, None),
    };
    if let Some(hit) = key.as_ref().and_then(|k| span("serve.cache", || shared.cache_get(k))) {
        return span("serve.render", || tytra_serve::render_ok(req.id, &hit));
    }
    let layer = match work {
        Work::Estimate { .. } => "cost.estimate",
        Work::Bound { .. } => "cost.bound",
        Work::Analyze { .. } => "analyze.module",
        _ => "serve.compute",
    };
    match span(layer, || engine.compute(&work, shared)) {
        Ok(payload) => {
            if let Some(k) = key {
                span("serve.cache", || shared.cache_put(k, payload.clone()));
            }
            span("serve.render", || tytra_serve::render_ok(req.id, &payload))
        }
        Err(e) => tytra_serve::render_err(req.id, &e, None),
    }
}

/// Replays `done` in process; returns per-op wall and failures.
fn replay_all(p: &Prepared, done: &[Done], traced: bool) -> (Vec<f64>, usize) {
    set_tracing(traced);
    let lanes = p.workload.lanes();
    let mut ms = Vec::with_capacity(done.len());
    let mut failed = 0;
    let mut epoch = usize::MAX;
    let mut engine = Engine::new();
    let mut shared = Shared::new(tytra_serve::ServeConfig::default().cache_capacity);
    for (i, d) in done.iter().enumerate() {
        set_op(i);
        let t = Instant::now();
        let ok = span("op", || match p.workload {
            Workload::Dse => {
                let r = replay_dse(inputs::KERNELS[d.op.item], &lanes);
                r.board == p.leaderboards[d.op.item]
            }
            Workload::Oneshot => {
                let design = &p.designs[d.op.item / 4];
                let slot = d.op.item % 4;
                match replay_oneshot(ONESHOT_COMMANDS[slot], design) {
                    Ok(out) if slot == 3 => {
                        p.actual_out[d.op.item / 4].lines().take(2).eq(out.lines())
                    }
                    Ok(out) => out == p.expected[d.op.item / 4][slot],
                    Err(_) => false,
                }
            }
            Workload::Serve => {
                if d.epoch != epoch {
                    epoch = d.epoch;
                    engine = Engine::new();
                    shared = Shared::new(tytra_serve::ServeConfig::default().cache_capacity);
                }
                let line = &p.requests[d.op.item][inputs::request_slot(d.op.draw)];
                replay_serve(line, &mut engine, &shared) == p.expected_response(&d.op)
            }
        });
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        failed += usize::from(!ok);
    }
    set_tracing(false);
    (ms, failed)
}

/// The traced run's result.
pub struct Traced {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub table: String,
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Run the traced run of `p`'s workload for about `budget`.
pub fn run(p: &mut Prepared, budget: Duration) -> Result<Traced, String> {
    let measured = p.measure(budget.mul_f64(0.35))?;
    p.teardown()?;
    let done = measured.done;
    let mut failed = done.iter().filter(|d| !d.ok).count();

    // A warm-up pass, then untraced and traced replays alternate until
    // the budget is spent. The spans of the first traced replay feed the
    // layer table.
    let t0 = Instant::now();
    failed += replay_all(p, &done, false).1;
    let (mut untraced_total, mut traced_total) = (0.0, 0.0);
    let mut spans = Vec::new();
    let mut reps = 0.0;
    loop {
        reps += 1.0;
        let (untraced_ms, f1) = replay_all(p, &done, false);
        let (traced_ms, f2) = replay_all(p, &done, true);
        failed += f1 + f2;
        untraced_total += untraced_ms.iter().sum::<f64>();
        traced_total += traced_ms.iter().sum::<f64>();
        let taken = take_spans();
        if spans.is_empty() {
            spans = taken;
        }
        if t0.elapsed() >= budget.mul_f64(0.5) {
            break;
        }
    }

    let mut help_ms = Vec::new();
    for _ in 0..30 {
        let r = crate::proc::run(&p.tybec, &["help"]).map_err(|e| format!("tybec help: {e}"))?;
        failed += usize::from(!r.success);
        help_ms.push(r.wall.as_secs_f64() * 1e3);
    }
    let spawn_ms = median(&help_ms);
    let floor = if p.workload == Workload::Serve { 0.0 } else { spawn_ms };

    // Self time per span, top-level layer time per op.
    let mut child_ns = vec![0u64; spans.len()];
    for s in &spans {
        if let Some(parent) = s.parent {
            child_ns[parent] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut covered_ms = vec![0.0; done.len()];
    for (i, s) in spans.iter().enumerate() {
        let self_ms = (s.end_ns - s.start_ns - child_ns[i]) as f64 / 1e6;
        let e = by_name.entry(s.name).or_default();
        e.0 += self_ms;
        e.1 += 1;
        if s.name != "op" {
            *by_layer.entry(layer_of(s.name)).or_default() += self_ms;
            if s.parent.is_some_and(|parent| spans[parent].name == "op") {
                covered_ms[s.op] += (s.end_ns - s.start_ns) as f64 / 1e6;
            }
        }
    }
    let wall_total: f64 = done.iter().map(|d| d.ms).sum();
    let unattributed: f64 =
        done.iter().zip(&covered_ms).map(|(d, c)| (d.ms - floor - c).max(0.0)).sum();
    let unattributed_pct = unattributed / wall_total.max(1e-9) * 100.0;

    let mut table = String::new();
    let n = done.len().max(1) as f64;
    let _ = writeln!(
        table,
        "traced replay of {} {:?} op(s): op wall {:.3} ms/op, replay {:.3} ms/op untraced, {:.3} traced",
        done.len(),
        p.workload,
        wall_total / n,
        untraced_total / n / reps,
        traced_total / n / reps
    );
    let _ = writeln!(table, "  {:<12} {:>12} {:>8}", "layer", "self us/op", "% wall");
    if floor > 0.0 {
        let _ = writeln!(
            table,
            "  {:<12} {:>12.1} {:>8.1}   (process start: `tybec help` wall)",
            "cli.spawn",
            floor * 1e3,
            floor * n / wall_total.max(1e-9) * 100.0
        );
    }
    for (layer, ms) in &by_layer {
        let _ = writeln!(
            table,
            "  {:<12} {:>12.1} {:>8.1}",
            layer,
            ms / n * 1e3,
            ms / wall_total.max(1e-9) * 100.0
        );
    }
    let _ = writeln!(table, "  {:<12} {:>12} {:>8.1}", "unattributed", "", unattributed_pct);
    let _ = writeln!(table, "  spans (self ms total, count):");
    for (name, (ms, count)) in &by_name {
        let _ = writeln!(table, "    {name:<20} {ms:>10.3} {count:>7}");
    }

    let mut metrics = vec![
        ("cli.spawn_ms", spawn_ms, "ms"),
        ("cli.unattributed_pct", unattributed_pct, "%"),
        ("trace.overhead_pct", (traced_total / untraced_total.max(1e-9) - 1.0) * 100.0, "%"),
    ];
    let (probe_metrics, probe_failed) = probe(p)?;
    metrics.extend(probe_metrics);
    failed += probe_failed;
    Ok(Traced { attempted: done.len(), failed, metrics, table })
}

/// Wall time and count of the calls it timed.
struct Timer {
    total: Duration,
    calls: u32,
}

impl Timer {
    fn new() -> Timer {
        Timer { total: Duration::ZERO, calls: 0 }
    }

    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        self.total += t.elapsed();
        self.calls += 1;
        r
    }

    fn us(&self) -> f64 {
        self.total.as_secs_f64() * 1e6 / f64::from(self.calls.max(1))
    }
}

/// Repetitions of each probed call.
const PROBE_REPS: usize = 3;

/// Per-call timings of every layer on all of the workload's designs and
/// on every point of the kernels' variant spaces; returns the metrics and
/// the number of failed calls.
fn probe(p: &Prepared) -> Result<(Vec<Metric>, usize), String> {
    let dev = inputs::device();
    let mut failed = 0;
    let err = |e: tytra_ir::TybecError| e.to_string();

    let (mut parse, mut validate, mut arena) = (Timer::new(), Timer::new(), Timer::new());
    let (mut est_cold, mut est_warm, mut bound) = (Timer::new(), Timer::new(), Timer::new());
    let (mut analyze, mut lint, mut synth, mut run) =
        (Timer::new(), Timer::new(), Timer::new(), Timer::new());
    let mut bytes = 0usize;
    let mut shared_session = EstimatorSession::new(dev.clone());
    for d in &p.designs {
        for _ in 0..PROBE_REPS {
            let m =
                parse.time(|| tytra_ir::parse_unvalidated(&d.text)).map_err(|e| e.to_string())?;
            bytes += d.text.len();
            validate.time(|| tytra_ir::validate(&m)).map_err(|e| e.to_string())?;
            let tree = m.clone();
            arena.time(|| tytra_ir::ArenaModule::build(tree));
            let mut session = EstimatorSession::new(dev.clone());
            est_cold.time(|| session.estimate(&m)).map_err(err)?;
            est_warm.time(|| session.estimate(&m)).map_err(err)?;
            let mut session = EstimatorSession::new(dev.clone());
            bound.time(|| session.bound(&m)).map_err(err)?;
            analyze.time(|| tytra_analyze::analyze_module(&m));
            lint.time(|| tytra_lint::lint(&m, &dev));
            synth.time(|| tytra_sim::synthesize(&m, &dev)).map_err(err)?;
            run.time(|| tytra_sim::run_application(&m, &dev)).map_err(err)?;
        }
        let m = tytra_ir::parse(&d.text).map_err(|e| e.to_string())?;
        shared_session.estimate(&m).map_err(err)?;
    }
    let parse_mb_per_s = bytes as f64 / parse.total.as_secs_f64().max(1e-12) / 1e6;

    let lanes = p.workload.lanes();
    let (mut lower, mut design, mut bound_d, mut est_d) =
        (Timer::new(), Timer::new(), Timer::new(), Timer::new());
    let (mut sweep, mut search, mut tune) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut stats = SearchStats::default();
    for k in inputs::KERNELS {
        let kernel = inputs::kernel(k);
        let variants: Vec<Variant> = enumerate_variants(
            kernel.geometry().size(),
            &lanes,
            &[1, 2],
            &[MemForm::A, MemForm::B],
        )
        .into_iter()
        .filter(|v| v.inner == InnerKind::Pipe)
        .collect();
        let factory = kernel.variant_factory();
        let mut session = EstimatorSession::new(dev.clone());
        for v in &variants {
            let lowered = lower.time(|| kernel.lower_variant(v));
            failed += usize::from(lowered.is_err());
            let Ok(vd) = design.time(|| factory.design(v)) else {
                failed += 1;
                continue;
            };
            failed += usize::from(bound_d.time(|| session.bound_design(&vd.patched())).is_err());
            failed += usize::from(est_d.time(|| session.estimate_design(&vd.patched())).is_err());
        }
        let r = replay_dse(k, &lanes);
        sweep += r.sweep;
        search += r.search;
        tune += r.tune;
        stats += r.stats;
    }
    let nk = inputs::KERNELS.len() as f64;

    let (respond_cold, respond_warm, serve_failed) = probe_respond(&p.designs, p.seed);
    failed += serve_failed;
    let (batch_mean, hit_rate, daemon_failed) = probe_daemon(&p.designs, p.seed)?;
    failed += daemon_failed;

    let metrics = vec![
        ("ir.parse_us", parse.us(), "us"),
        ("ir.parse_mb_per_s", parse_mb_per_s, "MB/s"),
        ("ir.validate_us", validate.us(), "us"),
        ("ir.arena_build_us", arena.us(), "us"),
        ("transform.lower_us", lower.us(), "us"),
        ("transform.factory_design_us", design.us(), "us"),
        ("cost.estimate_cold_us", est_cold.us(), "us"),
        ("cost.estimate_warm_us", est_warm.us(), "us"),
        ("cost.bound_us", bound.us(), "us"),
        ("cost.memo_hit_rate", shared_session.stats().hit_rate(), "ratio"),
        ("cost.bound_design_us", bound_d.us(), "us"),
        ("cost.estimate_design_us", est_d.us(), "us"),
        ("dse.lane_sweep_ms", sweep.as_secs_f64() * 1e3 / nk, "ms"),
        ("dse.search_ms", search.as_secs_f64() * 1e3 / nk, "ms"),
        ("dse.tune_ms", tune.as_secs_f64() * 1e3 / nk, "ms"),
        ("dse.points_per_s", stats.generated as f64 / search.as_secs_f64().max(1e-12), "1/s"),
        ("dse.generated", stats.generated as f64 / nk, "count"),
        ("dse.estimated", stats.estimated as f64 / nk, "count"),
        ("dse.pruned_frac", stats.pruned_fraction(), "ratio"),
        ("dse.collapsed", stats.collapsed as f64 / nk, "count"),
        ("dse.stolen", stats.stolen as f64 / nk, "count"),
        ("analyze.module_us", analyze.us(), "us"),
        ("lint.module_us", lint.us(), "us"),
        ("sim.synth_us", synth.us(), "us"),
        ("sim.run_us", run.us(), "us"),
        ("serve.respond_cold_us", respond_cold, "us"),
        ("serve.respond_warm_us", respond_warm, "us"),
        ("serve.cache_hit_rate", hit_rate, "ratio"),
        ("serve.batch_size_mean", batch_mean, "count"),
    ];
    Ok((metrics, failed))
}

/// The serve op stream over `designs`: (op, request line), one epoch.
fn serve_stream(designs: &[Design], seed: u64) -> Vec<(inputs::Op, String)> {
    OpStream::new(seed, designs.len())
        .epoch()
        .into_iter()
        .map(|op| {
            let kind = inputs::REQUEST_KINDS[inputs::request_slot(op.draw)];
            (op, inputs::request_line(op.item as u64 + 1, kind, &designs[op.item].text))
        })
        .collect()
}

fn response_ok(resp: &str, op: &inputs::Op) -> bool {
    resp.starts_with(&format!("{{\"id\":{},\"ok\":true,", op.item + 1))
}

/// `Engine::respond` per request, cold and warm, in microseconds.
fn probe_respond(designs: &[Design], seed: u64) -> (f64, f64, usize) {
    let (mut cold, mut warm) = (Timer::new(), Timer::new());
    let mut failed = 0;
    for _ in 0..PROBE_REPS {
        let mut engine = Engine::new();
        let shared = Shared::new(tytra_serve::ServeConfig::default().cache_capacity);
        for (op, line) in serve_stream(designs, seed) {
            let timer = if op.warm { &mut warm } else { &mut cold };
            let resp = timer.time(|| engine.respond(&line, &shared));
            failed += usize::from(!response_ok(&resp, &op));
        }
    }
    (cold.us(), warm.us(), failed)
}

/// The serve stream through an in-process daemon on two connections:
/// mean dispatcher batch size and the share of requests served from the
/// cache.
fn probe_daemon(designs: &[Design], seed: u64) -> Result<(f64, f64, usize), String> {
    let handle = tytra_serve::serve_tcp("127.0.0.1:0", tytra_serve::ServeConfig::default())
        .map_err(|e| format!("in-process daemon: {e}"))?;
    let addr = handle.addr();
    let stream = serve_stream(designs, seed);
    let failed: usize = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let ops: Vec<&(inputs::Op, String)> =
                    stream.iter().filter(|(op, _)| op.item % 2 == c).collect();
                s.spawn(move || -> usize {
                    let Ok(conn) = TcpStream::connect(addr) else { return ops.len() };
                    let _ = conn.set_nodelay(true);
                    let Ok(mut writer) = conn.try_clone() else { return ops.len() };
                    let mut reader = BufReader::new(conn);
                    let mut failed = 0;
                    let mut reply = String::new();
                    for (op, line) in ops {
                        reply.clear();
                        let ok = writer.write_all(format!("{line}\n").as_bytes()).is_ok()
                            && reader.read_line(&mut reply).is_ok()
                            && response_ok(&reply, op);
                        failed += usize::from(!ok);
                    }
                    failed
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).sum()
    });
    let shared = handle.shared();
    let batch_mean = shared.batch_size.summary().mean();
    let (hits, misses) = (shared.cache_hits.get(), shared.cache_misses.get());
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    handle.stop();
    Ok((batch_mean, hit_rate, failed))
}

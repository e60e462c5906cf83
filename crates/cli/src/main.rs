//! `tybec` — the TyTra Back-End Compiler command-line front end.
//!
//! The tool described in paper section VI ("we have developed a back-end
//! compiler that accepts a design variant in TyTra-IR, costs it and, if
//! needed, generates the HDL code for it"):
//!
//! ```text
//! tybec cost   <design.tirl> [--target <name>]      cost-model report
//! tybec actual <design.tirl> [--target <name>]      virtual synthesis + simulation, est-vs-actual
//! tybec hdl    <design.tirl> [--target <name>] [-o out.v] [--wrapper] [--check]
//! tybec tree   <design.tirl>                        configuration tree (Fig 8)
//! tybec dse    <sor|hotspot|lavamd> [--target <name>] [--lanes N,N,...] [--stats] [--metrics]
//! tybec roofline <sor|hotspot|lavamd> [--target <name>] [--lanes N,N,...]
//! tybec exec   <design.tirl> [--items N] [--seed S]   run the datapath functionally
//! tybec lint   <design.tirl> [--target <name>] [--json] [--deny-warnings]
//! tybec analyze <design.tirl> [--json]              dataflow analysis report
//! tybec profile <design.tirl> [--target <name>]     per-pass self-time attribution
//! tybec serve  [--tcp <addr>|--unix <path>] [--cache-capacity N]
//! ```
//!
//! Every subcommand also accepts the global profiling flags
//! `--trace <out>` and `--trace-format chrome|jsonl|tree|folded` (see
//! `docs/observability.md`). Tracing observes the run without changing
//! it: stdout stays byte-identical, the trace file and its one-line
//! status go elsewhere (the file and stderr respectively).
//!
//! The flight recorder (always-on crash breadcrumbs) is live for every
//! invocation; a panic dumps the per-thread event rings to stderr (and
//! to `$TYTRA_FLIGHT_DUMP` when set). `TYTRA_FLIGHT_RECORDER=0` turns
//! it off.
//!
//! Targets: `stratix-v-gsd8` (default), `virtex7-adm7v3`, `eval-small`.

use std::process::ExitCode;
use tytra_codegen::{check, emit_design, emit_maxj_wrapper};
use tytra_cost::EstimatorSession;
use tytra_device::TargetDevice;
use tytra_dse::{lane_sweep_with, search_with, tune_with, ExplorationConfig, SearchConfig};
use tytra_ir::{ArenaModule, ErrorCategory, IrError, TybecError};
use tytra_kernels::EvalKernel;
use tytra_sim::run_application;
use tytra_trace::metrics::MetricsFormat;
use tytra_trace::{profile, recorder, sink};
use tytra_transform::Variant;

const USAGE: &str = "usage: tybec <cost|actual|hdl|tree|dse|roofline|exec|lint|analyze|profile|serve> <input> [options]
  cost   <design.tirl> [--target <name>]
  actual <design.tirl> [--target <name>]
  hdl    <design.tirl> [--target <name>] [-o <out.v>] [--wrapper] [--check]
  tree   <design.tirl>
  dse    <sor|hotspot|lavamd> [--target <name>] [--lanes 1,2,4,...] [--exhaustive] [--stats] [--metrics]
         [--metrics-format table|prometheus] [--metrics-out <file>]
         the search estimates every variant; --exhaustive is accepted and changes nothing
  roofline <sor|hotspot|lavamd> [--target <name>] [--lanes 1,2,4,...]
  exec   <design.tirl> [--items N] [--seed S]
  lint   <design.tirl> [--target <name>] [--json] [--deny-warnings]
  analyze <design.tirl> [--json]
  profile <design.tirl> [--target <name>]
  serve  [--tcp <addr>|--unix <path>] [--cache-capacity N]
         cost-model daemon: JSONL requests over TCP (default 127.0.0.1:7737) or a Unix socket;
         see docs/serve.md for the wire protocol
global: --trace <out> [--trace-format chrome|jsonl|tree|folded]   write a span trace of the run
env: TYTRA_FLIGHT_RECORDER=0 disables crash breadcrumbs; TYTRA_FLIGHT_DUMP=<path> writes panic dumps there
targets: stratix-v-gsd8 (default) | virtex7-adm7v3 | eval-small";

/// What one subcommand takes, as its line in [`USAGE`] lists it.
struct Usage {
    cmd: &'static str,
    /// Whether it takes one positional argument (a design or a kernel).
    positional: bool,
    /// Flags followed by a value.
    valued: &'static [&'static str],
    /// Flags that stand alone.
    switches: &'static [&'static str],
}

const USAGES: [Usage; 11] = [
    Usage { cmd: "cost", positional: true, valued: &["--target"], switches: &[] },
    Usage { cmd: "actual", positional: true, valued: &["--target"], switches: &[] },
    Usage {
        cmd: "hdl",
        positional: true,
        valued: &["--target", "-o"],
        switches: &["--wrapper", "--check"],
    },
    Usage { cmd: "tree", positional: true, valued: &[], switches: &[] },
    Usage {
        cmd: "dse",
        positional: true,
        valued: &["--target", "--lanes", "--metrics-format", "--metrics-out"],
        switches: &["--exhaustive", "--stats", "--metrics"],
    },
    Usage { cmd: "roofline", positional: true, valued: &["--target", "--lanes"], switches: &[] },
    Usage { cmd: "exec", positional: true, valued: &["--items", "--seed"], switches: &[] },
    Usage {
        cmd: "lint",
        positional: true,
        valued: &["--target"],
        switches: &["--json", "--deny-warnings"],
    },
    Usage { cmd: "analyze", positional: true, valued: &[], switches: &["--json"] },
    Usage { cmd: "profile", positional: true, valued: &["--target"], switches: &[] },
    Usage {
        cmd: "serve",
        positional: false,
        valued: &["--tcp", "--unix", "--cache-capacity"],
        switches: &[],
    },
];

/// Fail, before anything is printed, on an argument `cmd`'s usage line
/// does not list, on a valued flag without its value and on a second
/// positional argument: an ignored `--taget` or `--deny-warning` would
/// silently run with the default instead. Returns the positional
/// argument, the one input every subcommand then reads, so a flag's value
/// is never taken for it.
fn check_args<'a>(cmd: &str, args: &'a [String]) -> Result<Option<&'a str>, String> {
    let Some(usage) = USAGES.iter().find(|u| u.cmd == cmd) else { return Ok(None) };
    let mut input = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if usage.valued.contains(&a.as_str()) {
            if it.next().is_none_or(|v| v.starts_with("--")) {
                return Err(format!("`tybec {cmd}` flag `{a}` expects a value"));
            }
        } else if usage.positional && input.is_none() && !a.starts_with('-') {
            input = Some(a.as_str());
        } else if !usage.switches.contains(&a.as_str()) {
            return Err(format!("unknown `tybec {cmd}` argument `{a}`"));
        }
    }
    Ok(input)
}

fn main() -> ExitCode {
    // The flight recorder is on by default; the env switch exists for
    // measuring its (tiny) overhead and for paranoid reproductions.
    if std::env::var("TYTRA_FLIGHT_RECORDER").as_deref() == Ok("0") {
        recorder::set_enabled(false);
    }
    recorder::install_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tybec: {e}");
            e.exit_code()
        }
    }
}

/// What a failed `tybec` invocation exits with.
///
/// Usage mistakes (bad flags, unknown commands) and lint policy
/// failures keep the traditional exit 1; structured pipeline failures
/// exit with their [`ErrorCategory`]'s code (parse 2, validate 3,
/// config 4, estimate 5, sim 6, search 7, io 8, internal 10), so
/// scripts can tell "your input is broken" from "the tool is broken"
/// without scraping stderr.
#[derive(Debug)]
enum CliError {
    /// Bad invocation or a lint policy failure: generic exit 1.
    Usage(String),
    /// A categorized pipeline error.
    Tybec(TybecError),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::FAILURE,
            CliError::Tybec(e) => ExitCode::from(e.category.exit_code()),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => f.write_str(m),
            CliError::Tybec(e) => write!(f, "{e}"),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Usage(m.to_string())
    }
}

impl From<TybecError> for CliError {
    fn from(e: TybecError) -> CliError {
        CliError::Tybec(e)
    }
}

impl From<IrError> for CliError {
    fn from(e: IrError) -> CliError {
        CliError::Tybec(e.into())
    }
}

/// How `--trace` writes the collected spans out.
#[derive(Debug, Clone, Copy)]
enum TraceFormat {
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    Chrome,
    /// One JSON object per span per line.
    Jsonl,
    /// Human-readable span tree.
    Tree,
    /// Collapsed stacks (`root;child;leaf self_ns`), one line per
    /// unique stack — feed to inferno/flamegraph.pl or speedscope.
    Folded,
}

/// The non-trace args plus the requested trace output, if any.
type SplitArgs = (Vec<String>, Option<(String, TraceFormat)>);

/// Split the global `--trace` / `--trace-format` flags off the argument
/// list (so subcommand parsers never see them) and return the remaining
/// args plus the requested trace output, if any.
fn split_trace_flags(args: &[String]) -> Result<SplitArgs, String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut path = None;
    let mut format = TraceFormat::Chrome;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => {
                path = Some(it.next().ok_or("--trace expects an output path")?.clone());
            }
            "--trace-format" => {
                let v = it.next().ok_or("--trace-format expects chrome|jsonl|tree|folded")?;
                format = match v.as_str() {
                    "chrome" => TraceFormat::Chrome,
                    "jsonl" => TraceFormat::Jsonl,
                    "tree" => TraceFormat::Tree,
                    "folded" => TraceFormat::Folded,
                    other => {
                        return Err(format!(
                            "unknown --trace-format `{other}` (expected chrome|jsonl|tree|folded)"
                        ))
                    }
                };
            }
            _ => rest.push(a.clone()),
        }
    }
    Ok((rest, path.map(|p| (p, format))))
}

/// Drain the collected spans and write them to `path` in `format`. The
/// status line goes to stderr so stdout stays identical to an untraced
/// run.
fn write_trace(path: &str, format: TraceFormat) -> Result<(), String> {
    let records = tytra_trace::take_records();
    let labels = tytra_trace::thread_labels();
    let body = match format {
        TraceFormat::Chrome => sink::render_chrome(&records, &labels),
        TraceFormat::Jsonl => sink::render_jsonl(&records),
        TraceFormat::Tree => sink::render_tree(&records, &labels),
        TraceFormat::Folded => profile::render_folded(&records),
    };
    std::fs::write(path, body).map_err(|e| format!("writing trace {path}: {e}"))?;
    eprintln!("trace: {} span(s) written to {path}", records.len());
    Ok(())
}

fn run(args: &[String]) -> Result<(), CliError> {
    let (args, trace_out) = split_trace_flags(args)?;
    let Some(cmd) = args.first() else {
        return Err(USAGE.to_string().into());
    };
    let rest = &args[1..];
    let input = check_args(cmd, rest)?;
    if trace_out.is_some() {
        tytra_trace::set_enabled(true);
        tytra_trace::set_thread_label("main");
    }
    if cmd != "serve" {
        exit_quietly_on_closed_stdout();
    }
    let result = {
        // Root span covering the whole subcommand (`tybec.cost`, …). Span
        // names are static; this one is built once per process.
        let _root =
            tytra_trace::enabled().then(|| tytra_trace::span(String::leak(format!("tybec.{cmd}"))));
        match cmd.as_str() {
            "cost" => cmd_cost(input, rest),
            "actual" => cmd_actual(input, rest),
            "hdl" => cmd_hdl(input, rest),
            "tree" => cmd_tree(input),
            "dse" => cmd_dse(input, rest),
            "roofline" => cmd_roofline(input, rest),
            "exec" => cmd_exec(input, rest),
            "lint" => cmd_lint(input, rest),
            "analyze" => cmd_analyze(input, rest),
            "profile" => cmd_profile(input, rest),
            "serve" => cmd_serve(rest),
            "--help" | "-h" | "help" => {
                println!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
        }
    };
    if let Some((path, format)) = &trace_out {
        // Write the trace even when the command failed — a trace of a
        // failing run is exactly what you want to look at — but let the
        // command's own error win the exit status.
        let wrote = write_trace(path, *format).map_err(CliError::from);
        result.and(wrote)
    } else {
        result
    }
}

/// Restore the default `SIGPIPE` action, so a one-shot command whose
/// reader hangs up (`tybec dse sor | head -1`) ends quietly, as Unix
/// filters do, instead of panicking in `println!`. The Rust runtime
/// ignores `SIGPIPE`; `serve` keeps it ignored, so a client that hangs up
/// costs the daemon a write error, not its life.
fn exit_quietly_on_closed_stdout() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: the declaration matches C's `signal(int, sighandler_t)`,
        // whose handler argument is pointer-sized; SIGPIPE is 13 and
        // SIG_DFL is 0 on every Unix target, and installing the default
        // action runs no handler code in this process.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn target_of(args: &[String]) -> Result<TargetDevice, String> {
    let name = flag_value(args, "--target").unwrap_or(tytra_device::DEFAULT_TARGET);
    let (_, device) = tytra_device::target_by_name(name)?;
    Ok(device())
}

/// Read the `.tirl` input named on the command line and parse and
/// validate it.
fn load_module(input: Option<&str>) -> Result<tytra_ir::IrModule, CliError> {
    load(input, tytra_ir::parse)
}

/// [`load_module`] for the commands that cost the design: the parsed
/// module is validated once and moved into the arena the estimator runs
/// on, which keeps the verdict.
fn load_arena(input: Option<&str>) -> Result<ArenaModule, CliError> {
    load(input, |src| ArenaModule::validated(tytra_ir::parse_unvalidated(src)?))
}

/// The positional input, which must name a `.tirl` file.
fn tirl_path(input: Option<&str>) -> Result<&str, CliError> {
    input.filter(|p| p.ends_with(".tirl")).ok_or_else(|| "expected a .tirl input file".into())
}

fn load<T>(
    input: Option<&str>,
    parse: impl FnOnce(&str) -> Result<T, IrError>,
) -> Result<T, CliError> {
    let path = tirl_path(input)?;
    let src = std::fs::read_to_string(path)
        .map_err(|e| TybecError::new(ErrorCategory::Io, format!("reading {path}: {e}")))?;
    parse(&src).map_err(|e| {
        let mut t = TybecError::from(e);
        t.message = format!("{path}: {}", t.message);
        CliError::Tybec(t)
    })
}

/// `tybec lint`: parse *without* validating, then run validation and the
/// six `tirlint` passes through one diagnostic sink. Exit policy: any
/// error-severity diagnostic fails; warnings fail only under
/// `--deny-warnings`.
fn cmd_lint(input: Option<&str>, args: &[String]) -> Result<(), CliError> {
    let m = load(input, tytra_ir::parse_unvalidated)?;
    let path = tirl_path(input)?;
    let dev = target_of(args)?;
    let report = tytra_lint::lint(&m, &dev);
    if has_flag(args, "--json") {
        print!("{}", tytra_lint::render_json(&report, path));
    } else {
        print!("{}", tytra_lint::render_text(&report, path));
    }
    let errors = report.errors();
    let warnings = report.warnings();
    if errors > 0 {
        return Err(format!("{path}: {errors} lint error(s)").into());
    }
    if has_flag(args, "--deny-warnings") && warnings > 0 {
        return Err(format!("{path}: {warnings} warning(s) denied by --deny-warnings").into());
    }
    Ok(())
}

/// `tybec analyze`: run the dataflow-analysis catalogue (value ranges,
/// stream-deadlock, cost-congruence) over a validated design and print
/// the aggregated report — strict JSON under `--json`.
fn cmd_analyze(input: Option<&str>, args: &[String]) -> Result<(), CliError> {
    let m = load_module(input)?;
    let report = tytra_analyze::analyze_module(&m);
    if has_flag(args, "--json") {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(())
}

/// `tybec profile`: run a cold and a warm estimate of the design under
/// full span tracing, then print per-pass self-time attribution: which
/// passes dominate, and what the memo tables buy on the warm run.
fn cmd_profile(input: Option<&str>, args: &[String]) -> Result<(), CliError> {
    let a = load_arena(input)?;
    let dev = target_of(args)?;
    let mut session = EstimatorSession::new(dev);

    // Attribution needs span records: collect for the two measured runs
    // only, and snapshot (never drain) so a simultaneous `--trace` still
    // writes every span it saw.
    let was_on = tytra_trace::enabled();
    tytra_trace::set_enabled(true);
    let before = tytra_trace::snapshot_records().len();
    session.estimate_design(&a.identity())?;
    let cold = session.stats();
    session.estimate_design(&a.identity())?;
    let warm = session.stats();
    let records: Vec<_> = tytra_trace::snapshot_records().into_iter().skip(before).collect();
    tytra_trace::set_enabled(was_on);

    // Drop the CLI's own wrapper span; the table is about estimator
    // passes, not the harness around them.
    let rows: Vec<_> = profile::attribution(&records)
        .into_iter()
        .filter(|r| !r.name.starts_with("tybec."))
        .collect();
    println!("== profile: {} (cold + warm estimate) ==", a.template().name);
    print!("{}", profile::render_attribution_table(&rows));
    let warm_hits = warm.hits - cold.hits;
    let warm_lookups = warm.lookups() - cold.lookups();
    println!(
        "  memo: cold {}/{} hit(s), warm {}/{} hit(s) ({:.0}% warm hit rate)",
        cold.hits,
        cold.lookups(),
        warm_hits,
        warm_lookups,
        if warm_lookups == 0 { 0.0 } else { warm_hits as f64 / warm_lookups as f64 * 100.0 }
    );
    Ok(())
}

/// `tybec serve`: run the cost model as a long-lived JSONL daemon in
/// which each connection's thread answers its own requests, in order,
/// on pooled warm estimator sessions behind a bounded cross-request
/// cache. Blocks until a `shutdown` request is served and every client
/// has hung up. Wire protocol and deployment notes: `docs/serve.md`.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    use tytra_serve::{serve_tcp, ServeConfig};
    let mut cfg = ServeConfig::default();
    if let Some(v) = flag_value(args, "--cache-capacity") {
        cfg.cache_capacity = v.parse().map_err(|e| format!("bad --cache-capacity: {e}"))?;
    }
    let tcp = flag_value(args, "--tcp");
    let unix = flag_value(args, "--unix");
    if tcp.is_some() && unix.is_some() {
        return Err("--tcp and --unix are mutually exclusive".into());
    }
    if let Some(path) = unix {
        #[cfg(unix)]
        {
            let handle = tytra_serve::serve_unix(std::path::Path::new(path), cfg)
                .map_err(|e| TybecError::new(ErrorCategory::Io, format!("binding {path}: {e}")))?;
            eprintln!("tybec serve: listening on unix socket {path}");
            handle.wait();
            return Ok(());
        }
        #[cfg(not(unix))]
        {
            return Err(
                format!("--unix {path}: unix sockets are unavailable on this platform").into()
            );
        }
    }
    let addr = tcp.unwrap_or("127.0.0.1:7737");
    let handle = serve_tcp(addr, cfg)
        .map_err(|e| TybecError::new(ErrorCategory::Io, format!("binding {addr}: {e}")))?;
    eprintln!("tybec serve: listening on {}", handle.addr());
    handle.wait();
    Ok(())
}

fn cmd_cost(input: Option<&str>, args: &[String]) -> Result<(), CliError> {
    let a = load_arena(input)?;
    let dev = target_of(args)?;
    let report = EstimatorSession::new(dev).estimate_design(&a.identity())?;
    print!("{report}");
    Ok(())
}

fn cmd_actual(input: Option<&str>, args: &[String]) -> Result<(), CliError> {
    let a = load_arena(input)?;
    let dev = target_of(args)?;
    let est = EstimatorSession::new(dev.clone()).estimate_design(&a.identity())?;
    // The run synthesizes the design itself; its result is the "actual".
    let run = run_application(a.template(), &dev)?;
    let synth = &run.synth;
    println!("estimated: {}", est.resources.total);
    println!("actual   : {}", synth.resources);
    let err = est.resources.total.pct_error_vs(&synth.resources);
    println!(
        "error %  : ALUT {:+.1} REG {:+.1} BRAM {:+.1} DSP {:+.1}",
        err[0], err[1], err[2], err[3]
    );
    println!("clock    : est {:.1} MHz, achieved {:.1} MHz", est.clock.freq_mhz, synth.fmax_mhz);
    println!(
        "CPKI     : est {:.0}, simulated {} ({:+.2} %)",
        est.throughput.cpki,
        run.cpki(),
        (est.throughput.cpki - run.cpki() as f64) / run.cpki() as f64 * 100.0
    );
    println!(
        "runtime  : {:.3} ms/instance, {:.3} s total; {:.1} W, {:.1} J",
        run.t_instance_s * 1e3,
        run.t_total_s,
        run.power.delta_watts,
        run.power.delta_energy_j
    );
    Ok(())
}

fn cmd_hdl(input: Option<&str>, args: &[String]) -> Result<(), CliError> {
    let m = load_module(input)?;
    let dev = target_of(args)?;
    let hdl = emit_design(&m, &dev)?;
    if has_flag(args, "--check") {
        check(&hdl)
            .map_err(|errs| errs.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("\n"))?;
        eprintln!("structural check: ok");
    }
    match flag_value(args, "-o") {
        Some(path) => {
            std::fs::write(path, &hdl).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{hdl}"),
    }
    if has_flag(args, "--wrapper") {
        print!("{}", emit_maxj_wrapper(&m));
    }
    Ok(())
}

fn cmd_tree(input: Option<&str>) -> Result<(), CliError> {
    let m = load_module(input)?;
    let tree = tytra_ir::config_tree::extract(&m)?;
    println!("class: {:?}, lanes: {}", tree.class, tree.lanes);
    print!("{}", tree.root.outline());
    Ok(())
}

/// The kernel `tybec dse` and `tybec roofline` take as their positional
/// argument.
fn kernel_of(input: Option<&str>) -> Result<Box<dyn EvalKernel>, String> {
    match input {
        Some(name) => tytra_kernels::kernel_by_name(name),
        None => Err(format!("expected a kernel: {}", tytra_kernels::KERNEL_NAMES)),
    }
}

/// The `--lanes` list in the order given (the search's default lane
/// counts without the flag), keeping the first occurrence of each value:
/// a repeated lane count would print its sweep row (and roofline point)
/// twice. A lane count of 0 is rejected: no design has it, so every
/// section would print empty.
fn lanes_flag(args: &[String]) -> Result<Vec<u64>, String> {
    let Some(list) = flag_value(args, "--lanes") else {
        return Ok(ExplorationConfig::default().lanes);
    };
    let mut lanes = Vec::new();
    for s in list.split(',') {
        let l = s.trim().parse::<u64>().map_err(|e| format!("bad lane `{s}`: {e}"))?;
        if l == 0 {
            return Err(format!("bad lane `{s}`: a design has at least one lane"));
        }
        if !lanes.contains(&l) {
            lanes.push(l);
        }
    }
    Ok(lanes)
}

fn cmd_roofline(input: Option<&str>, args: &[String]) -> Result<(), CliError> {
    let kernel = kernel_of(input)?;
    let dev = target_of(args)?;
    let mut points = Vec::new();
    for lanes in lanes_flag(args)? {
        let v = Variant { lanes, ..Variant::baseline() };
        let Ok(m) = kernel.lower_variant(&v) else { continue };
        points.push(tytra_dse::roofline::roofline(&m, &dev)?);
    }
    print!("{}", tytra_dse::roofline::render(&points));
    Ok(())
}

fn cmd_exec(input: Option<&str>, args: &[String]) -> Result<(), CliError> {
    use tytra_sim::{execute_module, ExecInputs};
    let m = load_module(input)?;
    let items: usize = match flag_value(args, "--items") {
        Some(v) => match v.parse().map_err(|e| format!("bad --items: {e}"))? {
            0 => return Err("bad --items `0`: a run executes at least one work-item".into()),
            n => n,
        },
        None => (m.meta.global_size() as usize).min(4096),
    };
    let seed: u64 = match flag_value(args, "--seed") {
        Some(v) => v.parse().map_err(|e| format!("bad --seed: {e}"))?,
        None => 42,
    };
    // Seed every input port of the lane function with a deterministic
    // pseudo-random array (splitmix-style mix over the index).
    let tree = tytra_ir::config_tree::extract(&m)?;
    let node = tree.root.lane();
    if node.kind == tytra_ir::ParKind::Par {
        return Err("empty par".into());
    }
    let lane = m.function(&node.function).ok_or("missing lane function")?;
    let mut inputs = ExecInputs::default();
    for p in lane.params.iter().filter(|p| p.dir == tytra_ir::PortDir::In) {
        let data: Vec<f64> = (0..items as u64)
            .map(|i| {
                let mut x = i.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 27;
                (x % 1024) as f64
            })
            .collect();
        inputs.set(p.name.clone(), data);
    }
    let out = execute_module(&m, &inputs, items)?;
    println!("executed {items} work-items of `{}`", m.name);
    let mut names: Vec<&String> = out.arrays.keys().collect();
    names.sort();
    for name in names {
        let arr = &out.arrays[name];
        let sum: f64 = arr.iter().sum();
        let head: Vec<String> = arr.iter().take(6).map(|v| format!("{v}")).collect();
        println!("  {name}: checksum {sum}, head [{}]", head.join(", "));
    }
    let mut reds: Vec<(&String, &f64)> = out.reductions.iter().collect();
    reds.sort_by(|a, b| a.0.cmp(b.0));
    for (acc, v) in reds {
        println!("  @{acc} = {v}");
    }
    Ok(())
}

fn cmd_dse(input: Option<&str>, args: &[String]) -> Result<(), CliError> {
    let kernel = kernel_of(input)?;
    let dev = target_of(args)?;
    let lanes = lanes_flag(args)?;
    let show_stats = has_flag(args, "--stats");
    let show_metrics = has_flag(args, "--metrics");
    let format_name = flag_value(args, "--metrics-format").unwrap_or("table");
    let metrics_format = MetricsFormat::from_name(format_name).ok_or_else(|| {
        format!("unknown --metrics-format `{format_name}` (expected table|prometheus)")
    })?;
    let metrics_out = flag_value(args, "--metrics-out");

    // One variant factory serves the sweep, the search and the tuning run,
    // so each design is lowered and validated once; one estimator session
    // serves all three, so the search and the tuning start with the memo
    // tables the passes before them filled.
    let factory = kernel.variant_factory();
    let mut session = EstimatorSession::new(dev);

    println!("== lane sweep (Fig 15 style) ==");
    let rows = {
        let _sp = tytra_trace::span("dse.lane_sweep");
        lane_sweep_with(&factory, &mut session, &lanes, &Variant::baseline())
    };
    {
        let _sp = tytra_trace::span("cli.render");
        print!("{}", tytra_dse::report::render_table(&rows));
    }

    println!("\n== full exploration ==");
    let space = ExplorationConfig { lanes, ..ExplorationConfig::default() };
    let cfg = SearchConfig { space, ..SearchConfig::default() };
    let outcome = {
        let _sp = tytra_trace::span("dse.search");
        search_with(&factory, &mut session, &cfg)
    };
    {
        let _sp = tytra_trace::span("cli.render");
        print!("{}", tytra_dse::render_search_leaderboard(&outcome, cfg.top_k));
    }

    println!("\n== guided tuning from baseline ==");
    let steps = {
        let _sp = tytra_trace::span("dse.tuning");
        tune_with(&factory, &mut session, Variant::baseline(), 12)
    };
    {
        let _sp = tytra_trace::span("cli.render");
        for step in steps {
            println!(
                "  {:<18} EKIT {:>12.1}  {} {}",
                step.variant.tag(),
                step.ekit,
                step.limiter,
                step.action.map(|a| format!("→ {a}")).unwrap_or_default()
            );
        }
    }

    // The session holds the estimator's metrics for the whole run, the
    // outcome the search's own `dse.*` metrics.
    let merged = || {
        let mut snap = session.metrics_snapshot();
        snap.merge(&outcome.metrics);
        snap
    };
    if show_stats {
        println!("\n== estimator session stats ==");
        println!("{}", tytra_dse::render_stats_line("total", &session.stats()));
        println!("{}", tytra_dse::render_search_stats_line(&outcome.stats));
        println!("{}", tytra_dse::render_latency_stats_line(&session.metrics_snapshot()));
    }
    if show_metrics {
        println!("\n== metrics ==");
        print!("{}", merged().render(metrics_format));
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, merged().render(metrics_format))
            .map_err(|e| format!("writing metrics {path}: {e}"))?;
        eprintln!("metrics: snapshot written to {path}");
    }
    Ok(())
}

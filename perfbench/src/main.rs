//! The repository's benchmark: the release `tybec` binary driven end to
//! end in three closed-loop workloads (`dse`, `oneshot`, `serve`), every
//! output checked, plus a traced run for per-layer numbers.
//!
//! ```text
//! perfbench --workload <dse|oneshot|serve> --seed N --seconds S --trace <0|1>
//!           --tybec <path to tybec> --work <scratch dir>
//! ```
//!
//! Run it through `perfbench/run.py`, which builds both binaries first.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). A human-readable report goes to stderr.
//!
//! Model accuracy (`err_*_p90`) compares the cost model with the
//! tytra-sim emulator, not with silicon.

mod actual;
mod inputs;
mod proc;
mod stats;
mod traced;
mod workloads;

use stats::{median, percentile};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Prepared, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tybec: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}` (expected 0 or 1)")),
        },
        tybec: PathBuf::from(get("--tybec")?),
        work: PathBuf::from(get("--work")?),
    })
}

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn print_result(attempted: usize, failed: usize, metrics: &[Metric]) -> Result<(), String> {
    let mut body = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    );
    Ok(())
}

/// The end-to-end run: set up `SETUP_REPS` times, then the closed loop.
fn untraced(args: &Args) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut p) = prepared.take() {
            p.teardown()?;
        }
        let t = Instant::now();
        prepared = Some(workloads::setup(args.workload, &args.tybec, args.seed, &args.work)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut p = prepared.expect("SETUP_REPS > 0");
    let measured = p.measure(Duration::from_secs(args.seconds));
    let down = p.teardown();
    let m = measured?;
    down?;

    let all: Vec<f64> = m.done.iter().map(|d| d.ms).collect();
    let cold: Vec<f64> = m.done.iter().filter(|d| !d.op.warm).map(|d| d.ms).collect();
    let warm: Vec<f64> = m.done.iter().filter(|d| d.op.warm).map(|d| d.ms).collect();
    let failed = m.done.iter().filter(|d| !d.ok).count();
    let attempted = m.done.len();
    let p90 = |xs: &[f64]| percentile(xs, 0.9).unwrap_or(0.0);
    let acc = &p.accuracy;
    let err_p90 = |axis: usize| p90(&acc.samples[axis]);

    eprintln!("workload {:?}, seed {}, {} design(s)", args.workload, args.seed, p.designs.len());
    let count = |k| p.designs.iter().filter(|d| d.source_kind == k).count();
    eprintln!(
        "  corpus by source: {} asset, {} kernel variant, {} TirlGen",
        count(inputs::Source::Asset),
        count(inputs::Source::Variant),
        count(inputs::Source::Generated)
    );
    eprintln!(
        "  {attempted} op(s) in {:.3} s ({} cold, {} warm), failed_frac {}",
        m.window_s,
        cold.len(),
        warm.len(),
        failed as f64 / attempted.max(1) as f64
    );
    eprintln!("  accuracy vs the tytra-sim emulator (not silicon), |est - act| / act:");
    for (i, axis) in ["ALUT", "REG", "BRAM", "DSP", "CPKI"].iter().enumerate() {
        eprintln!(
            "    {axis:<5} p50 {:>7.2} %  p90 {:>7.2} %  max {:>7.2} %  over {} design(s), {} zero-actual left out",
            percentile(&acc.samples[i], 0.5).unwrap_or(0.0),
            err_p90(i),
            percentile(&acc.samples[i], 1.0).unwrap_or(0.0),
            acc.samples[i].len(),
            acc.zero_actual[i]
        );
    }

    let metrics: Vec<Metric> = vec![
        ("setup_s", median(&setup_s), "s"),
        ("ops_per_s", attempted as f64 / m.window_s.max(1e-9), "ops/s"),
        ("op_ms_p50", median(&all), "ms"),
        ("op_ms_p90", p90(&all), "ms"),
        ("cold_ms_p50", median(&cold), "ms"),
        ("cold_ms_p90", p90(&cold), "ms"),
        ("warm_ms_p50", median(&warm), "ms"),
        ("peak_rss_mb", m.peak_rss_kib as f64 / 1024.0, "MB"),
        ("err_alut_p90", err_p90(0), "%"),
        ("err_reg_p90", err_p90(1), "%"),
        ("err_bram_p90", err_p90(2), "%"),
        // The model is exact on more than 90% of the corpus designs that
        // use DSPs, so their p90 reads 0; the worst case is reported.
        ("err_dsp_max", percentile(&acc.samples[3], 1.0).unwrap_or(0.0), "%"),
        ("err_cpki_p90", err_p90(4), "%"),
    ];
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<14} {value:>12.4} {unit}");
    }
    print_result(attempted, failed, &metrics)
}

/// The traced run: per-layer metrics only.
fn traced_run(args: &Args) -> Result<(), String> {
    let mut p = workloads::setup(args.workload, &args.tybec, args.seed, &args.work)?;
    let result = traced::run(&mut p, Duration::from_secs(args.seconds));
    let down = p.teardown();
    let t = result?;
    down?;
    eprint!("{}", t.table);
    for (name, value, unit) in &t.metrics {
        eprintln!("  {name:<28} {value:>12.4} {unit}");
    }
    print_result(t.attempted, t.failed, &t.metrics)
}

fn main() -> std::process::ExitCode {
    let result = parse_args().and_then(|a| if a.trace { traced_run(&a) } else { untraced(&a) });
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

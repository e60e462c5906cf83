//! `trace_check` — validate observability artifacts produced by
//! `tybec`: Chrome trace-event files, folded flamegraph stacks and
//! Prometheus text exposition.
//!
//! ```text
//! trace_check <trace.json> [--expect <span-name>]...
//! trace_check --folded <stacks.folded> [--expect <frame>]...
//! trace_check --prom <metrics.prom> [--expect <metric>]...
//! ```
//!
//! Chrome mode checks that the file parses as trace-event JSON (a
//! `traceEvents` array of objects each carrying `name`/`ph`/`pid`/`tid`,
//! with `ts`/`dur` on complete events), and that every `--expect`ed span
//! name occurs at least once.
//!
//! Folded mode checks the collapsed-stack grammar — every line is
//! `frame;frame;frame count` with nonempty frames and an integer count
//! — and that every `--expect`ed frame occurs in some stack.
//!
//! Prometheus mode checks the text exposition line grammar (comments,
//! `name[{labels}] value` samples), that histogram `_bucket` series
//! are cumulative and consistent with `_count`, and that every
//! `--expect`ed metric family occurs. CI runs all three over the DSE
//! smoke sweeps before uploading them as artifacts.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use tytra_trace::json::{parse, Json};

const USAGE: &str = "usage: trace_check <trace.json> [--expect <name>]... \
     | trace_check --folded <file> [--expect <frame>]... \
     | trace_check --prom <file> [--expect <metric>]...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("trace_check: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    path: String,
    expects: Vec<String>,
    mode: Mode,
}

enum Mode {
    Chrome,
    Folded,
    Prom,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut expects = Vec::new();
    let mut mode = Mode::Chrome;
    let mut path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--expect" => expects.push(it.next().ok_or("--expect needs a name")?.clone()),
            "--folded" => mode = Mode::Folded,
            "--prom" => mode = Mode::Prom,
            other if !other.starts_with("--") => path = Some(other.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let path = path.ok_or(USAGE)?;
    Ok(Options { path, expects, mode })
}

fn run(args: &[String]) -> Result<String, String> {
    let opts = parse_args(args)?;
    let src =
        std::fs::read_to_string(&opts.path).map_err(|e| format!("reading {}: {e}", opts.path))?;
    match opts.mode {
        Mode::Chrome => check_chrome(&opts, &src),
        Mode::Folded => check_folded(&opts, &src),
        Mode::Prom => check_prom(&opts, &src),
    }
}

fn check_chrome(opts: &Options, src: &str) -> Result<String, String> {
    let path = &opts.path;
    let doc = parse(src).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no `traceEvents` array"))?;
    if events.is_empty() {
        return Err(format!("{path}: empty trace"));
    }

    let mut names = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing string `name`"))?;
        let ph = ev.get("ph").and_then(Json::as_str).ok_or(format!("event {i}: missing `ph`"))?;
        for key in ["pid", "tid"] {
            ev.get(key).and_then(Json::as_num).ok_or(format!("event {i}: missing `{key}`"))?;
        }
        if ph == "X" {
            for key in ["ts", "dur"] {
                ev.get(key)
                    .and_then(Json::as_num)
                    .ok_or(format!("event {i} ({name}): missing `{key}`"))?;
            }
            names.insert(name.to_string());
        }
    }

    for want in &opts.expects {
        if !names.contains(want) {
            return Err(format!("{path}: no `{want}` span (have: {names:?})"));
        }
    }

    Ok(format!(
        "{path}: ok — {} events, {} distinct complete-span names",
        events.len(),
        names.len()
    ))
}

fn check_folded(opts: &Options, src: &str) -> Result<String, String> {
    let path = &opts.path;
    let mut frames = BTreeSet::new();
    let mut stacks = 0usize;
    for (lineno, line) in src.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            return Err(format!("{path}:{n}: empty line"));
        }
        let (stack, count) =
            line.rsplit_once(' ').ok_or(format!("{path}:{n}: no `stack count` split"))?;
        count
            .parse::<u64>()
            .map_err(|_| format!("{path}:{n}: count `{count}` is not an integer"))?;
        if stack.is_empty() {
            return Err(format!("{path}:{n}: empty stack"));
        }
        for frame in stack.split(';') {
            if frame.is_empty() {
                return Err(format!("{path}:{n}: empty frame in `{stack}`"));
            }
            if frame.contains(char::is_whitespace) {
                return Err(format!("{path}:{n}: whitespace inside frame `{frame}`"));
            }
            frames.insert(frame.to_string());
        }
        stacks += 1;
    }
    if stacks == 0 {
        return Err(format!("{path}: no stacks"));
    }
    for want in &opts.expects {
        if !frames.contains(want) {
            return Err(format!("{path}: no `{want}` frame (have: {frames:?})"));
        }
    }
    Ok(format!("{path}: ok — {stacks} stacks, {} distinct frames", frames.len()))
}

fn prom_name_ok(name: &str) -> bool {
    !name.is_empty()
        && !name.as_bytes()[0].is_ascii_digit()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn check_prom(opts: &Options, src: &str) -> Result<String, String> {
    let path = &opts.path;
    // family → (bucket cumulative counts in order, +Inf count, _count value)
    let mut buckets: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut inf: BTreeMap<String, u64> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut families = BTreeSet::new();
    let mut samples = 0usize;
    for (lineno, line) in src.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) =
            line.rsplit_once(' ').ok_or(format!("{path}:{n}: no `name value` split"))?;
        let value: f64 =
            value.parse().map_err(|_| format!("{path}:{n}: value `{value}` is not a number"))?;
        let (name, labels) = match name_part.split_once('{') {
            Some((name, rest)) => {
                let labels =
                    rest.strip_suffix('}').ok_or(format!("{path}:{n}: unterminated labels"))?;
                (name, Some(labels))
            }
            None => (name_part, None),
        };
        if !prom_name_ok(name) {
            return Err(format!("{path}:{n}: bad metric name `{name}`"));
        }
        samples += 1;
        if let Some(family) = name.strip_suffix("_bucket") {
            let labels = labels.ok_or(format!("{path}:{n}: `{name}` without le label"))?;
            let le = labels
                .strip_prefix("le=\"")
                .and_then(|l| l.strip_suffix('"'))
                .ok_or(format!("{path}:{n}: `{name}` labels `{labels}` are not le=\"…\""))?;
            if le == "+Inf" {
                inf.insert(family.to_string(), value as u64);
            } else {
                le.parse::<f64>().map_err(|_| format!("{path}:{n}: bad le bound `{le}`"))?;
                buckets.entry(family.to_string()).or_default().push(value as u64);
            }
            families.insert(family.to_string());
        } else if let Some(family) = name.strip_suffix("_count") {
            counts.insert(family.to_string(), value as u64);
            families.insert(family.to_string());
        } else if let Some(family) = name.strip_suffix("_sum") {
            families.insert(family.to_string());
        } else {
            families.insert(name.to_string());
        }
    }
    if samples == 0 {
        return Err(format!("{path}: no samples"));
    }
    for (family, inf_count) in &inf {
        if counts.get(family) != Some(inf_count) {
            return Err(format!("{path}: `{family}_count` disagrees with the +Inf bucket"));
        }
    }
    for (family, series) in &buckets {
        if series.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("{path}: `{family}_bucket` series is not cumulative"));
        }
        let inf_count = *inf.get(family).ok_or(format!("{path}: `{family}` has no +Inf bucket"))?;
        if series.last().copied().unwrap_or(0) > inf_count {
            return Err(format!("{path}: `{family}` buckets exceed the +Inf bucket"));
        }
    }
    for want in &opts.expects {
        if !families.contains(want) {
            return Err(format!("{path}: no `{want}` metric (have: {families:?})"));
        }
    }
    Ok(format!("{path}: ok — {samples} samples, {} metric families", families.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn with_file(content: &str, f: impl FnOnce(&str)) {
        let path = std::env::temp_dir().join(format!(
            "trace_check_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, content).unwrap();
        f(path.to_str().unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn folded_grammar_accepts_and_rejects() {
        with_file("a;b;c 12\nroot 3\n", |p| {
            let summary = run(&args(&["--folded", p, "--expect", "b"])).unwrap();
            assert!(summary.contains("2 stacks"), "{summary}");
            let err = run(&args(&["--folded", p, "--expect", "zz"])).unwrap_err();
            assert!(err.contains("no `zz` frame"), "{err}");
        });
        with_file("a;;c 12\n", |p| {
            assert!(run(&args(&["--folded", p])).unwrap_err().contains("empty frame"));
        });
        with_file("a;b twelve\n", |p| {
            assert!(run(&args(&["--folded", p])).unwrap_err().contains("not an integer"));
        });
        with_file("", |p| {
            assert!(run(&args(&["--folded", p])).unwrap_err().contains("no stacks"));
        });
    }

    #[test]
    fn prom_grammar_accepts_and_rejects() {
        let good = "# TYPE hits counter\nhits 3\n# TYPE ns histogram\n\
                    ns_bucket{le=\"3\"} 2\nns_bucket{le=\"7\"} 4\nns_bucket{le=\"+Inf\"} 5\n\
                    ns_sum 22\nns_count 5\n";
        with_file(good, |p| {
            let summary = run(&args(&["--prom", p, "--expect", "hits", "--expect", "ns"])).unwrap();
            assert!(summary.contains("metric families"), "{summary}");
            let err = run(&args(&["--prom", p, "--expect", "nope"])).unwrap_err();
            assert!(err.contains("no `nope` metric"), "{err}");
        });
        let decumulative = "ns_bucket{le=\"3\"} 4\nns_bucket{le=\"7\"} 2\n\
                            ns_bucket{le=\"+Inf\"} 5\nns_count 5\n";
        with_file(decumulative, |p| {
            assert!(run(&args(&["--prom", p])).unwrap_err().contains("not cumulative"));
        });
        let mismatch = "ns_bucket{le=\"+Inf\"} 5\nns_count 7\n";
        with_file(mismatch, |p| {
            assert!(run(&args(&["--prom", p])).unwrap_err().contains("disagrees"));
        });
        with_file("3bad 1\n", |p| {
            assert!(run(&args(&["--prom", p])).unwrap_err().contains("bad metric name"));
        });
    }

    #[test]
    fn real_renderers_pass_their_checkers() {
        use tytra_trace::metrics::Registry;
        let reg = Registry::new();
        reg.counter("dse.points").add(9);
        let h = reg.histogram("estimator.estimate_ns");
        for v in [5u64, 900, 40_000] {
            h.record(v);
        }
        with_file(&tytra_trace::prometheus::render_prometheus(&reg.snapshot()), |p| {
            run(&args(&[
                "--prom",
                p,
                "--expect",
                "dse_points",
                "--expect",
                "estimator_estimate_ns",
            ]))
            .unwrap();
        });

        let records = vec![
            tytra_trace::SpanRecord {
                id: 1,
                parent: None,
                tid: 1,
                name: "tybec.dse".into(),
                start_ns: 0,
                dur_ns: 100,
                fields: vec![],
            },
            tytra_trace::SpanRecord {
                id: 2,
                parent: Some(1),
                tid: 1,
                name: "estimator.validate".into(),
                start_ns: 10,
                dur_ns: 50,
                fields: vec![],
            },
        ];
        with_file(&tytra_trace::profile::render_folded(&records), |p| {
            run(&args(&["--folded", p, "--expect", "estimator.validate"])).unwrap();
        });
    }
}

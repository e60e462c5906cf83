//! Integration tests driving the `tybec` binary end to end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tybec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tybec"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("tybec runs")
}

fn tybec_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut c = Command::new(env!("CARGO_BIN_EXE_tybec"));
    c.args(args).current_dir(workspace_root());
    for (k, v) in envs {
        c.env(k, v);
    }
    c.output().expect("tybec runs")
}

fn workspace_root() -> PathBuf {
    // crates/cli → workspace root two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn no_args_prints_usage_and_fails() {
    let o = tybec(&[]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("usage: tybec"));
}

#[test]
fn help_succeeds() {
    let o = tybec(&["help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("cost"));
    assert!(stdout(&o).contains("eval-small"));
}

#[test]
fn cost_reports_on_the_shipped_asset() {
    let o = tybec(&["cost", "assets/sor_c2.tirl"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    for needle in ["design", "resources", "EKIT", "limiter", "clock"] {
        assert!(out.contains(needle), "missing `{needle}` in:\n{out}");
    }
}

#[test]
fn cost_accepts_target_flag() {
    let o = tybec(&["cost", "assets/sor_c2.tirl", "--target", "eval-small"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("eval-small"));
    let bad = tybec(&["cost", "assets/sor_c2.tirl", "--target", "nonsense"]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("unknown target"));
}

#[test]
fn actual_compares_estimate_and_simulation() {
    let o = tybec(&["actual", "assets/sor_c2.tirl"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("estimated:"));
    assert!(out.contains("actual   :"));
    assert!(out.contains("CPKI"));
    assert!(out.contains("error %"));
}

#[test]
fn tree_shows_the_four_lane_structure() {
    let o = tybec(&["tree", "assets/sor_c1_4lane.tirl"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("C1ParallelPipes"));
    assert_eq!(out.matches("pipe f0").count(), 4);
}

#[test]
fn hdl_emits_checked_verilog_to_a_file() {
    let dir = std::env::temp_dir().join("tytra_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("sor.v");
    let out_str = out_path.to_str().unwrap();
    let o = tybec(&["hdl", "assets/sor_c2.tirl", "--check", "-o", out_str]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stderr(&o).contains("structural check: ok"));
    let hdl = std::fs::read_to_string(&out_path).unwrap();
    assert!(hdl.contains("module tytra_f0"));
    assert!(hdl.contains("endmodule"));
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn hdl_wrapper_prints_maxj() {
    let o = tybec(&["hdl", "assets/sor_c2.tirl", "--wrapper"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("extends Kernel"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let o = tybec(&["cost", "assets/ghost.tirl"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("ghost.tirl"));
}

#[test]
fn parse_errors_carry_positions() {
    let dir = std::env::temp_dir().join("tytra_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.tirl");
    std::fs::write(&bad, "define void @f0(ui18 %p) pipe {\n ui18 %x = frob ui18 %p, %p\n}\n")
        .unwrap();
    let o = tybec(&["cost", bad.to_str().unwrap()]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(err.contains("unknown opcode"), "{err}");
    assert!(err.contains("2:"), "position missing: {err}");
    std::fs::remove_file(&bad).ok();
}

#[test]
fn exit_codes_distinguish_error_categories() {
    let dir = std::env::temp_dir().join("tytra_cli_test");
    std::fs::create_dir_all(&dir).unwrap();

    // Usage mistakes keep the traditional exit 1.
    assert_eq!(tybec(&["frobnicate"]).status.code(), Some(1));
    assert_eq!(tybec(&["dse", "fft"]).status.code(), Some(1));

    // Parse errors exit 2.
    let bad = dir.join("exit_parse.tirl");
    std::fs::write(&bad, "define void @f0(ui18 %p) pipe {\n ui18 %x = frob ui18 %p, %p\n}\n")
        .unwrap();
    assert_eq!(tybec(&["cost", bad.to_str().unwrap()]).status.code(), Some(2));
    std::fs::remove_file(&bad).ok();

    // Validation errors exit 3 (parses, but declares a duplicate name).
    let invalid = dir.join("exit_validate.tirl");
    std::fs::write(
        &invalid,
        "!module = !\"dup\"\n!ndrange = !{8}\n!nki = !1\n!form = !\"B\"\n\
         %mem_p = memobj addrSpace(1) ui18, !size, !8\n\
         %mem_p = memobj addrSpace(1) ui18, !size, !8\n",
    )
    .unwrap();
    let o = tybec(&["cost", invalid.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(3), "{}", stderr(&o));
    std::fs::remove_file(&invalid).ok();

    // Filesystem errors exit 8.
    assert_eq!(tybec(&["cost", "assets/ghost.tirl"]).status.code(), Some(8));
}

#[test]
fn dse_runs_a_small_sweep() {
    let o = tybec(&["dse", "sor", "--target", "eval-small", "--lanes", "1,2,4"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("lane sweep"));
    assert!(out.contains("full exploration"));
    assert!(out.contains("guided tuning"));
    assert!(out.contains("EWGT/s"));
}

#[test]
fn a_closed_stdout_ends_a_one_shot_command_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_tybec"))
        .args(["dse", "lavamd", "--lanes", "1,2,4,8,16,32,64"])
        .current_dir(workspace_root())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tybec runs");
    // Take the first line and hang up, as `| head -1` does; the sweep
    // rows, the leaderboard and the tuning trajectory are still unwritten.
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    let mut err = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut err).expect("stderr");
    let status = child.wait().expect("tybec exits");
    assert!(first.contains("lane sweep"), "{first}");
    assert!(!err.contains("panicked"), "a hang-up is not a crash:\n{err}");
    assert_ne!(status.code(), Some(101), "{err}");
}

#[test]
fn roofline_places_variants() {
    let o = tybec(&["roofline", "hotspot", "--lanes", "1,8"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("compute roof"));
    assert!(out.contains("memory"), "8 hotspot lanes should be memory-bound:\n{out}");
    assert_eq!(out.lines().count(), 3);
}

#[test]
fn exec_runs_the_datapath_deterministically() {
    let a = tybec(&["exec", "assets/sor_c2.tirl", "--items", "256", "--seed", "7"]);
    assert!(a.status.success(), "{}", stderr(&a));
    let b = tybec(&["exec", "assets/sor_c2.tirl", "--items", "256", "--seed", "7"]);
    assert_eq!(stdout(&a), stdout(&b), "same seed, same checksums");
    assert!(stdout(&a).contains("checksum"));
    assert!(stdout(&a).contains("@sorErrAcc"));
    let c = tybec(&["exec", "assets/sor_c2.tirl", "--items", "256", "--seed", "8"]);
    assert_ne!(stdout(&a), stdout(&c), "different seed, different data");
}

#[test]
fn dse_rejects_unknown_kernel() {
    let o = tybec(&["dse", "fft"]);
    assert_eq!(o.status.code(), Some(1));
    assert_eq!(stderr(&o), "tybec: unknown kernel `fft`; expected sor|hotspot|lavamd\n");
    let o = tybec(&["dse"]);
    assert_eq!(o.status.code(), Some(1));
    assert_eq!(stderr(&o), "tybec: expected a kernel: sor|hotspot|lavamd\n");
}

#[test]
fn dse_rejects_flags_it_does_not_take() {
    for bad in [&["--metrics-stream", "x"][..], &["--workers", "2"], &["--exhaustiv"]] {
        let mut args = vec!["dse", "sor", "--target", "eval-small"];
        args.extend_from_slice(bad);
        let o = tybec(&args);
        assert_eq!(o.status.code(), Some(1), "{bad:?}: {}", stderr(&o));
        assert!(o.stdout.is_empty(), "{bad:?}: {}", stdout(&o));
        assert!(stderr(&o).contains(&format!("`{}`", bad[0])), "{bad:?}: {}", stderr(&o));
    }
}

#[test]
fn misspelled_and_valueless_flags_fail_before_any_output() {
    // Each case and the argument its error must name. Serve's removed
    // `--workers` and `--batch` come before a valueless `--tcp`, which
    // the error would name if they were still taken.
    let cases: [(&[&str], &str); 7] = [
        (&["cost", "assets/sor_c2.tirl", "--taget", "eval-small"], "--taget"),
        (&["lint", "crates/lint/tests/fixtures/tl1001.tirl", "--deny-warning"], "--deny-warning"),
        (&["cost", "assets/sor_c2.tirl", "--target"], "--target"),
        (&["dse", "sor", "--lanes"], "--lanes"),
        (&["tree", "assets/sor_c2.tirl", "assets/sor_c2.tirl"], "assets/sor_c2.tirl"),
        (&["serve", "--workers", "2", "--tcp"], "--workers"),
        (&["serve", "--batch", "8", "--tcp"], "--batch"),
    ];
    for (args, culprit) in cases {
        let o = tybec(args);
        assert_eq!(o.status.code(), Some(1), "{args:?}: {}", stderr(&o));
        assert!(o.stdout.is_empty(), "{args:?}: {}", stdout(&o));
        assert!(stderr(&o).contains(&format!("`{culprit}`")), "{args:?}: {}", stderr(&o));
    }
}

#[test]
fn dse_stats_reports_high_hit_rate() {
    let o = tybec(&["dse", "sor", "--target", "eval-small", "--stats"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("estimator session stats"), "{out}");
    let total = out
        .lines()
        .find(|l| l.trim_start().starts_with("total"))
        .unwrap_or_else(|| panic!("no total stats line:\n{out}"));
    // "  total       1234 hits    56 misses  hit rate  84.7%      0 evicted"
    let pct: f64 = total
        .split("hit rate")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.trim_end_matches('%').parse().ok())
        .unwrap_or_else(|| panic!("unparseable stats line: {total}"));
    assert!(pct > 50.0, "memo hit rate should exceed 50%: {total}");
}

#[test]
fn dse_exhaustive_flag_does_not_change_the_output() {
    // The branch-and-bound default and the --exhaustive escape hatch
    // must print byte-identical reports (the admissibility contract);
    // only the --stats counters may differ, so compare without them.
    // The lavamd case sweeps the widest space, lanes 1..=64, over one
    // variant factory shared by the sweep, the search and the tuning.
    let wide: String = (1..=64).map(|l: u64| l.to_string()).collect::<Vec<_>>().join(",");
    for base in
        [vec!["dse", "sor", "--target", "eval-small"], vec!["dse", "lavamd", "--lanes", &wide]]
    {
        let pruned = tybec(&base);
        let exhaustive = tybec(&[&base[..], &["--exhaustive"]].concat());
        assert!(pruned.status.success(), "{}", stderr(&pruned));
        assert!(exhaustive.status.success(), "{}", stderr(&exhaustive));
        assert_eq!(stdout(&pruned), stdout(&exhaustive), "--exhaustive changed {base:?}");
    }
}

#[test]
fn a_zero_lane_count_fails_before_any_output() {
    for args in [
        &["dse", "sor", "--lanes", "0"][..],
        &["dse", "sor", "--target", "eval-small", "--lanes", "1,0,2"],
        &["roofline", "hotspot", "--lanes", "0"],
    ] {
        let o = tybec(args);
        assert_eq!(o.status.code(), Some(1), "{args:?}: {}", stderr(&o));
        assert!(o.stdout.is_empty(), "{args:?}: {}", stdout(&o));
        assert!(stderr(&o).contains("bad lane `0`"), "{args:?}: {}", stderr(&o));
    }
}

#[test]
fn repeated_lane_values_print_each_point_once() {
    // A repeated `--lanes` value keeps its first occurrence only: no
    // duplicated sweep rows, leaderboard entries or roofline points.
    for (repeated, distinct) in [
        (vec!["dse", "sor", "--target", "eval-small", "--lanes", "2,2"], "2"),
        (vec!["dse", "sor", "--target", "eval-small", "--lanes", "4,2,4,1,2"], "4,2,1"),
        (vec!["roofline", "sor", "--lanes", "2,2,4"], "2,4"),
    ] {
        let once: Vec<&str> =
            repeated[..repeated.len() - 1].iter().copied().chain([distinct]).collect();
        let (a, b) = (tybec(&repeated), tybec(&once));
        assert!(a.status.success(), "{repeated:?}: {}", stderr(&a));
        assert!(b.status.success(), "{once:?}: {}", stderr(&b));
        assert_eq!(stdout(&a), stdout(&b), "{repeated:?} vs {once:?}");
    }
}

const DSE_GOLDEN: &str = include_str!("golden/dse_lanes_1_64.txt");

/// `tybec dse <kernel> --lanes 1,…,64` stdout, pinned byte for byte for
/// sor, hotspot and lavamd, both at the default settings and with
/// `--exhaustive`. The fixture holds one `== tybec dse <kernel> --lanes
/// 1,...,64` header line per kernel, followed by that run's stdout.
///
/// Regenerating: when a change moves the model on purpose, run
/// `cargo test -p tytra-cli --test cli dse_stdout`. On a mismatch the
/// test writes the new image to `dse_lanes_1_64.txt` under Cargo's
/// per-target test scratch directory (`target/tmp`; the panic message
/// names the path). Review its diff against
/// `crates/cli/tests/golden/dse_lanes_1_64.txt`, copy it over the
/// fixture, and list the moved rows in CHANGES.md.
#[test]
fn dse_stdout_over_lanes_1_to_64_matches_the_golden_fixture() {
    let wide: String = (1..=64).map(|l: u64| l.to_string()).collect::<Vec<_>>().join(",");
    for extra in [&[][..], &["--exhaustive"][..]] {
        let mut actual = String::new();
        for kernel in ["sor", "hotspot", "lavamd"] {
            let o = tybec(&[&["dse", kernel, "--lanes", &wide][..], extra].concat());
            assert!(o.status.success(), "{kernel} {extra:?}: {}", stderr(&o));
            actual.push_str(&format!("== tybec dse {kernel} --lanes 1,...,64\n"));
            actual.push_str(&stdout(&o));
        }
        if actual == DSE_GOLDEN {
            continue;
        }
        let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dse_lanes_1_64.txt");
        std::fs::write(&out, &actual).expect("write the new image");
        let first = actual
            .lines()
            .zip(DSE_GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| actual.lines().count().min(DSE_GOLDEN.lines().count()));
        panic!(
            "`tybec dse` {extra:?} stdout differs from tests/golden/dse_lanes_1_64.txt from \
             line {}: fixture {:?}, now {:?}; the new image is at {}",
            first + 1,
            DSE_GOLDEN.lines().nth(first),
            actual.lines().nth(first),
            out.display()
        );
    }
}

#[test]
fn dse_stats_shows_pruning_counters() {
    let o = tybec(&["dse", "sor", "--target", "eval-small", "--stats"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    let line = out
        .lines()
        .find(|l| l.trim_start().starts_with("search"))
        .unwrap_or_else(|| panic!("no search stats line:\n{out}"));
    assert!(line.contains("generated"), "{line}");
    assert!(line.contains("pruned"), "{line}");
    // The default eval-small sweep includes lane counts that cannot fit,
    // so the bound pass must have pruned something.
    let pruned: u64 = line
        .split_whitespace()
        .zip(line.split_whitespace().skip(1))
        .find(|(_, label)| *label == "pruned")
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable search line: {line}"));
    assert!(pruned > 0, "expected pruning on eval-small: {line}");

    let exhaustive = tybec(&["dse", "sor", "--target", "eval-small", "--stats", "--exhaustive"]);
    let ex_out = stdout(&exhaustive);
    let ex_line = ex_out
        .lines()
        .find(|l| l.trim_start().starts_with("search"))
        .unwrap_or_else(|| panic!("no search stats line:\n{ex_out}"));
    assert!(ex_line.contains(" 0 pruned"), "exhaustive mode must not prune: {ex_line}");
    // The faulted column is byte-stable and reads 0 on a healthy sweep,
    // in both modes.
    assert!(line.ends_with("    0 faulted"), "pruned line: {line}");
    assert!(ex_line.ends_with("    0 faulted"), "exhaustive line: {ex_line}");
}

const ASSETS: [&str; 4] = [
    "assets/sor_c2.tirl",
    "assets/sor_c1_4lane.tirl",
    "assets/hotspot_c2.tirl",
    "assets/lavamd_c2.tirl",
];

#[test]
fn lint_runs_all_passes_over_every_asset() {
    for asset in ASSETS {
        let o = tybec(&["lint", asset, "--deny-warnings"]);
        assert!(o.status.success(), "{asset}: {}", stderr(&o));
        let out = stdout(&o);
        assert!(out.contains("0 errors") || out.contains("clean"), "{asset}:\n{out}");
    }
}

#[test]
fn analyze_json_has_the_full_report_shape_on_every_asset() {
    use tytra_trace::json::Json;
    for asset in ASSETS {
        let o = tybec(&["analyze", asset, "--json"]);
        assert!(o.status.success(), "{asset}: {}", stderr(&o));
        let doc = tytra_trace::json::parse(&stdout(&o)).expect("strict JSON");
        let field = |v: &Json, key: &str| -> Json {
            v.get(key).cloned().unwrap_or_else(|| panic!("{asset}: no `{key}` in {v:?}"))
        };
        assert!(field(&doc, "design").as_str().is_some(), "{asset}");
        let solver = field(&doc, "solver");
        for key in ["nodes", "iterations", "peak_worklist"] {
            assert!(field(&solver, key).as_num().is_some(), "{asset}: solver.{key}");
        }
        let reachable = field(&doc, "reachable");
        assert!(reachable.as_arr().expect("array").iter().all(|f| f.as_str().is_some()));
        let functions = field(&doc, "functions");
        for f in functions.as_arr().expect("array") {
            assert!(field(f, "name").as_str().is_some(), "{asset}");
            for key in ["values", "constants", "consumed", "callees"] {
                field(f, key);
            }
        }
        for key in ["clamp_findings", "deadlock_findings"] {
            assert!(field(&doc, key).as_arr().is_some(), "{asset}: {key}");
        }
        let congruence = field(&doc, "congruence");
        let key = field(&congruence, "key");
        let hex = key.as_str().and_then(|k| k.strip_prefix("0x")).expect("0x-prefixed key");
        assert!(hex.len() == 16 && u64::from_str_radix(hex, 16).is_ok(), "{asset}: {hex}");
        assert!(field(&congruence, "canonical_form").as_str().is_some(), "{asset}");
    }
}

#[test]
fn lint_reports_validation_and_exits_nonzero_on_errors() {
    let o = tybec(&["lint", "crates/lint/tests/fixtures/tl1003.tirl"]);
    assert!(!o.status.success(), "out-of-range offset is an error");
    let out = stdout(&o);
    assert!(out.contains("error[TL1003]"), "{out}");
    assert!(out.contains("--> crates/lint/tests/fixtures/tl1003.tirl:21:"), "{out}");
    assert!(out.contains("= help:"), "{out}");
}

#[test]
fn lint_deny_warnings_flips_the_exit_code() {
    let fixture = "crates/lint/tests/fixtures/tl1001.tirl";
    let ok = tybec(&["lint", fixture]);
    assert!(ok.status.success(), "warnings alone must not fail: {}", stderr(&ok));
    assert!(stdout(&ok).contains("warning[TL1001]"));
    let deny = tybec(&["lint", fixture, "--deny-warnings"]);
    assert!(!deny.status.success(), "--deny-warnings must fail on warnings");
    assert!(stderr(&deny).contains("denied by --deny-warnings"));
}

#[test]
fn lint_json_is_machine_readable() {
    let o = tybec(&["lint", "crates/lint/tests/fixtures/tl1004.tirl", "--json"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.trim_start().starts_with('{'), "{out}");
    assert!(out.contains("\"code\": \"TL1004\""), "{out}");
    assert!(out.contains("\"module\": \"fix_tl1004\""), "{out}");
    assert!(out.contains("\"line\": 17"), "{out}");
}

fn trace_tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tybec_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn tracing_leaves_cost_stdout_bit_identical() {
    let path = trace_tmp("cost_equiv.json");
    let plain = tybec(&["cost", "assets/sor_c2.tirl"]);
    let traced = tybec(&["cost", "assets/sor_c2.tirl", "--trace", path.to_str().unwrap()]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    assert!(traced.status.success(), "{}", stderr(&traced));
    assert_eq!(plain.stdout, traced.stdout, "--trace must not perturb the report");
    assert!(stderr(&traced).contains("span(s) written"), "{}", stderr(&traced));
    std::fs::remove_file(&path).ok();
}

#[test]
fn tracing_leaves_dse_stdout_bit_identical() {
    let path = trace_tmp("dse_equiv.jsonl");
    let base = &["dse", "sor", "--target", "eval-small", "--lanes", "1,2,4"];
    let plain = tybec(base);
    let args: Vec<&str> = base
        .iter()
        .copied()
        .chain(["--trace", path.to_str().unwrap(), "--trace-format", "jsonl"])
        .collect();
    let traced = tybec(&args);
    assert!(plain.status.success(), "{}", stderr(&plain));
    assert!(traced.status.success(), "{}", stderr(&traced));
    assert_eq!(plain.stdout, traced.stdout, "--trace must not perturb the sweep");
    std::fs::remove_file(&path).ok();
}

#[test]
fn chrome_trace_has_all_pass_spans_and_nests_variants_in_the_search() {
    let path = trace_tmp("dse_lanes.json");
    let o = tybec(&[
        "dse",
        "sor",
        "--target",
        "eval-small",
        "--lanes",
        "1,2,4",
        "--exhaustive",
        "--trace",
        path.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let body = std::fs::read_to_string(&path).unwrap();
    let doc = tytra_trace::json::parse(&body).expect("chrome trace parses as JSON");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
    assert!(!events.is_empty(), "empty trace");
    for (i, e) in events.iter().enumerate() {
        assert!(e.get("name").and_then(|n| n.as_str()).is_some(), "event {i} has no name: {e:?}");
        assert!(e.get("ph").and_then(|p| p.as_str()).is_some(), "event {i} has no ph: {e:?}");
        let mut keys = vec!["pid", "tid"];
        if e.get("ph").and_then(|p| p.as_str()) == Some("X") {
            keys.extend(["ts", "dur"]);
        }
        for key in keys {
            assert!(e.get(key).and_then(|v| v.as_num()).is_some(), "event {i} has no {key}: {e:?}");
        }
    }
    let complete: Vec<_> =
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    for pass in [
        "estimator.validate",
        "estimator.configure",
        "estimator.schedule",
        "estimator.parameters",
        "estimator.resources",
        "estimator.clock",
        "estimator.bandwidth",
        "estimator.throughput",
        "tybec.dse",
        "transform.lower",
        "dse.lane_sweep",
        "dse.tuning",
        "dse.search",
        "dse.variant",
    ] {
        assert!(
            complete.iter().any(|e| e.get("name").and_then(|n| n.as_str()) == Some(pass)),
            "span `{pass}` missing from trace"
        );
    }
    // (lane, start, end) in integer nanoseconds; the sink prints
    // microseconds to three decimals.
    let extent = |e: &tytra_trace::json::Json| {
        let num = |key: &str| e.get(key).and_then(|v| v.as_num()).expect("numeric field");
        let ns = |key: &str| (num(key) * 1e3).round() as u64;
        (num("tid") as u64, ns("ts"), ns("ts") + ns("dur"))
    };
    let extents = |name: &str| -> Vec<(u64, u64, u64)> {
        complete
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .map(|e| extent(e))
            .collect()
    };
    let searches = extents("dse.search");
    assert_eq!(searches.len(), 1, "one dse.search span");
    let (lane, start, end) = searches[0];
    let variants = extents("dse.variant");
    assert!(!variants.is_empty());
    for (l, s, e) in variants {
        assert!(
            l == lane && start <= s && e <= end,
            "dse.variant ({l}, {s}..{e}) outside dse.search ({lane}, {start}..{end})"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn pruned_search_trace_has_bound_spans() {
    // The default (branch-and-bound) dse run must show its bound pass in
    // the trace: a dse.bound span per bounded variant, alongside the
    // dse.variant spans of the survivors that paid the full estimate.
    let path = trace_tmp("dse_bound.json");
    let o = tybec(&[
        "dse",
        "sor",
        "--target",
        "eval-small",
        "--trace",
        path.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let body = std::fs::read_to_string(&path).unwrap();
    let doc = tytra_trace::json::parse(&body).expect("chrome trace parses as JSON");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .count()
    };
    let bounds = count("dse.bound");
    let estimates = count("dse.variant");
    assert_eq!(count("tybec.dse"), 1, "one root span");
    assert!(bounds > 0, "pruned search must trace its bound pass");
    assert!(estimates > 0, "survivors must still be fully estimated");
    assert!(
        estimates < bounds,
        "the default eval-small sweep has unfittable lane counts, so some \
         variants must be pruned: {bounds} bounds vs {estimates} estimates"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn jsonl_trace_lines_all_parse() {
    let path = trace_tmp("cost_lines.jsonl");
    let o = tybec(&[
        "cost",
        "assets/sor_c2.tirl",
        "--trace",
        path.to_str().unwrap(),
        "--trace-format",
        "jsonl",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(!body.trim().is_empty());
    let mut names = Vec::new();
    for line in body.lines() {
        let v = tytra_trace::json::parse(line)
            .unwrap_or_else(|e| panic!("bad JSONL line `{line}`: {e}"));
        names.push(v.get("name").and_then(|n| n.as_str()).expect("name field").to_string());
    }
    assert!(names.iter().any(|n| n == "estimator.estimate"), "{names:?}");
    assert!(names.iter().any(|n| n == "tybec.cost"), "{names:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn tree_trace_format_renders_span_tree() {
    let path = trace_tmp("cost_tree.txt");
    let o = tybec(&[
        "cost",
        "assets/sor_c2.tirl",
        "--trace",
        path.to_str().unwrap(),
        "--trace-format",
        "tree",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.contains("tybec.cost"), "{body}");
    assert!(body.contains("estimator.estimate"), "{body}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn dse_metrics_prints_the_registry_table() {
    let o = tybec(&["dse", "sor", "--target", "eval-small", "--lanes", "1,2", "--metrics"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    let (_, table) = out.split_once("== metrics ==\n").expect("a metrics section");
    let names: Vec<&str> = table.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(
        names,
        [
            "dse.bound_ns",
            "dse.estimate_ns",
            "dse.faulted",
            "dse.points",
            "dse.points_per_sec",
            "dse.pruned_bound",
            "dse.pruned_unfit",
            "estimator.bound_ns",
            "estimator.estimate_ns",
            "session.memo.entries",
            "session.memo.evictions",
            "session.memo.hits",
            "session.memo.misses",
        ],
        "{out}"
    );
}

#[test]
fn folded_trace_format_renders_collapsed_stacks() {
    let path = trace_tmp("cost_folded.txt");
    let o = tybec(&[
        "cost",
        "assets/sor_c2.tirl",
        "--trace",
        path.to_str().unwrap(),
        "--trace-format",
        "folded",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(!body.trim().is_empty());
    // Every line is `root;child;leaf self_ns` — flamegraph.pl input.
    for line in body.lines() {
        let (stack, count) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
        for frame in stack.split(';') {
            assert!(!frame.is_empty() && !frame.contains(char::is_whitespace), "{line}");
        }
        count.parse::<u64>().unwrap_or_else(|e| panic!("bad self-time in `{line}`: {e}"));
    }
    assert!(
        body.lines().any(|l| l.starts_with("tybec.cost;estimator.estimate;")),
        "estimator passes should fold under the root span:\n{body}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn flight_recorder_env_switch_keeps_stdout_identical() {
    // The recorder is on by default and must never show in stdout, so a
    // run with it disabled is byte-identical on every CLI path.
    // (No --stats here: its latency quantiles are wall-clock readings,
    // the one part of the CLI that is deliberately not byte-stable.)
    for args in [
        vec!["cost", "assets/sor_c2.tirl"],
        vec!["dse", "sor", "--target", "eval-small", "--lanes", "1,2,4"],
    ] {
        let on = tybec(&args);
        let off = tybec_env(&args, &[("TYTRA_FLIGHT_RECORDER", "0")]);
        assert!(on.status.success(), "{}", stderr(&on));
        assert!(off.status.success(), "{}", stderr(&off));
        assert_eq!(on.stdout, off.stdout, "recorder state leaked into {args:?} stdout");
    }
}

#[test]
fn profile_subcommand_ranks_estimator_passes() {
    let o = tybec(&["profile", "assets/sor_c2.tirl", "--target", "eval-small"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("== profile:"), "{out}");
    assert!(out.contains("self%"), "attribution table header missing:\n{out}");
    assert!(out.contains("estimator.estimate"), "{out}");
    assert!(out.contains("memo: cold"), "{out}");
    // The warm estimate replays from the memo tables.
    let memo = out.lines().find(|l| l.trim_start().starts_with("memo:")).unwrap();
    assert!(memo.contains("% warm hit rate"), "{memo}");
}

#[test]
fn dse_metrics_out_writes_prometheus_exposition() {
    let path = trace_tmp("dse_metrics.prom");
    let o = tybec(&[
        "dse",
        "sor",
        "--target",
        "eval-small",
        "--lanes",
        "1,2",
        "--metrics-out",
        path.to_str().unwrap(),
        "--metrics-format",
        "prometheus",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stderr(&o).contains("snapshot written"), "{}", stderr(&o));
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.contains("# TYPE"), "{body}");
    // Each sample is `name[{le="bound"}] value`. A histogram's `_bucket`
    // series is cumulative and ends in an `+Inf` bucket equal to its
    // `_count`.
    let mut families = std::collections::BTreeSet::new();
    let mut buckets: std::collections::BTreeMap<&str, Vec<(&str, u64)>> = Default::default();
    let mut counts = std::collections::BTreeMap::new();
    for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
        let value: f64 = value.parse().unwrap_or_else(|e| panic!("bad value in `{line}`: {e}"));
        let (name, le) = match series.split_once('{') {
            Some((name, labels)) => {
                let le = labels.strip_prefix("le=\"").and_then(|l| l.strip_suffix("\"}"));
                (name, Some(le.unwrap_or_else(|| panic!("labels are not le=\"…\": {line}"))))
            }
            None => (series, None),
        };
        assert!(
            !name.starts_with(|c: char| c.is_ascii_digit())
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name: {line}"
        );
        if let Some(family) = name.strip_suffix("_bucket") {
            let le = le.unwrap_or_else(|| panic!("bucket without le: {line}"));
            assert!(le == "+Inf" || le.parse::<f64>().is_ok(), "bad le bound: {line}");
            buckets.entry(family).or_default().push((le, value as u64));
            families.insert(family);
        } else if let Some(family) = name.strip_suffix("_count") {
            counts.insert(family, value as u64);
            families.insert(family);
        } else {
            families.insert(name.strip_suffix("_sum").unwrap_or(name));
        }
    }
    for (family, series) in &buckets {
        assert!(series.windows(2).all(|w| w[0].1 <= w[1].1), "{family} is not cumulative:\n{body}");
        assert_eq!(series.last().map(|b| b.0), Some("+Inf"), "{family} has no +Inf bucket");
        assert_eq!(series.last().map(|b| b.1), counts.get(family).copied(), "{family} +Inf");
    }
    for family in ["dse_points", "estimator_estimate_ns"] {
        assert!(families.contains(family), "no `{family}` metric:\n{body}");
    }
    assert!(buckets.contains_key("estimator_estimate_ns"), "{body}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_metrics_format_is_rejected() {
    let o = tybec(&["dse", "sor", "--target", "eval-small", "--metrics-format", "xml"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--metrics-format"), "{}", stderr(&o));
}

#[test]
fn dse_stats_shows_latency_quantiles() {
    let o = tybec(&["dse", "sor", "--target", "eval-small", "--stats"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    let line = out
        .lines()
        .find(|l| l.trim_start().starts_with("latency (ns)"))
        .unwrap_or_else(|| panic!("no latency stats line:\n{out}"));
    assert!(line.contains("bound p50"), "{line}");
    assert!(line.contains("estimate p50"), "{line}");
    assert!(line.contains('≤'), "a real sweep must populate the histograms: {line}");
    assert!(!line.contains("n/a"), "{line}");
}

#[test]
fn bad_trace_format_is_rejected() {
    let o =
        tybec(&["cost", "assets/sor_c2.tirl", "--trace", "/tmp/x.json", "--trace-format", "xml"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--trace-format"), "{}", stderr(&o));
}

#[test]
fn lint_surfaces_validator_codes_with_spans() {
    // A structurally invalid design: lint must report the TL00xx codes
    // (with anchors) and fail, with TL1xxx passes suppressed.
    let dir = std::env::temp_dir().join("tybec_lint_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("invalid.tirl");
    std::fs::write(
        &path,
        "!module = !\"bad\"\n!ndrange = !{4}\n!nki = !1\n!form = !\"B\"\n\n\
         define void @f0(ui18 %a, out ui18 %o) pipe {\n  ui18 %t1 = add ui18 %zzz, 1\n  \
         ui18 %o__out = or ui18 %t1, 0\n}\n\ndefine void @main() {\n  call @f0(%a, %o) pipe\n}\n",
    )
    .unwrap();
    let o = tybec(&["lint", path.to_str().unwrap()]);
    assert!(!o.status.success());
    let out = stdout(&o);
    assert!(out.contains("error[TL0010]"), "{out}");
    assert!(out.contains(":7:"), "span should anchor line 7:\n{out}");
    assert!(!out.contains("TL10"), "lint passes must be suppressed:\n{out}");
}

#[test]
fn lint_fails_a_design_the_cost_model_rejects() {
    // Twelve levels of `pipe` functions, each calling the next six
    // times: the design validates, but its call hierarchy expands past
    // the configuration-node budget, so `tybec cost` fails and lint
    // must not call the design clean.
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
    src += "define void @main() {\n  call @f0(%p, %q) pipe\n}\n";
    let dir = std::env::temp_dir().join("tybec_lint_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fan_out.tirl");
    std::fs::write(&path, src).unwrap();
    let p = path.to_str().unwrap();
    assert_eq!(tybec(&["cost", p]).status.code(), Some(4), "a config error");
    let o = tybec(&["lint", p]);
    assert_eq!(o.status.code(), Some(1), "{}", stdout(&o));
    let out = stdout(&o);
    assert!(out.contains("error[TL1005]"), "{out}");
    assert!(out.contains("more than 65536 configuration nodes"), "{out}");
    assert!(!out.contains("note: cost model not evaluated"), "{out}");
    let json = stdout(&tybec(&["lint", p, "--json"]));
    assert!(json.contains("\"code\": \"TL1005\", \"severity\": \"error\""), "{json}");
    assert!(json.contains("\"cost_evaluated\": false"), "{json}");
    std::fs::remove_file(&path).ok();
}

//! Set-up and the untraced closed-loop runs of the three workloads.
//!
//! - `dse`: one caller spawns `tybec dse <kernel> --lanes 1,…,64` over
//!   the three kernels. Checked against the `--exhaustive` leaderboard.
//! - `oneshot`: one caller spawns `tybec cost|analyze|lint|actual
//!   <design>` over the corpus. Checked against in-process renderings
//!   (cost, analyze, lint) and the set-up's `tybec actual` output.
//! - `serve`: two connections to one `tybec serve`, estimate:bound:analyze
//!   = 2:1:1. Checked byte for byte against the expected response line;
//!   estimate payloads come from `tybec cost` stdout.
//!
//! Every workload splits its ops into *cold* (an input its epoch has not
//! run) and *warm* (a byte-for-byte repeat). Only `serve` keeps state
//! across ops, so on the process workloads the two read the same: they
//! are the control for a cache change.

use crate::actual::{self, ErrorDistribution};
use crate::inputs::{self, Design, OpStream};
use crate::proc::{self, Daemon};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Dse,
    Oneshot,
    Serve,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "dse" => Some(Workload::Dse),
            "oneshot" => Some(Workload::Oneshot),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The lane list of the DSE runs this workload makes or probes.
    pub fn lanes(self) -> Vec<u64> {
        match self {
            Workload::Dse => inputs::wide_lanes(),
            _ => inputs::default_lanes(),
        }
    }
}

pub const ONESHOT_COMMANDS: [&str; 4] = ["cost", "analyze", "lint", "actual"];

/// Everything a run needs after set-up.
pub struct Prepared {
    pub workload: Workload,
    pub tybec: PathBuf,
    pub seed: u64,
    /// The workload's designs: the corpus, or for `dse` the design points
    /// its ops explore.
    pub designs: Vec<Design>,
    /// `tybec actual` stdout per design.
    pub actual_out: Vec<String>,
    pub accuracy: ErrorDistribution,
    /// `dse`: the `--exhaustive` leaderboard per kernel.
    pub leaderboards: Vec<String>,
    /// `oneshot`: cost, analyze, lint stdout per design. `serve`:
    /// estimate, bound, analyze payload per design.
    pub expected: Vec<[String; 3]>,
    /// `serve`: request line per design and kind, keyed by design index.
    pub requests: Vec<[String; 3]>,
    pub daemon: Option<Daemon>,
}

/// Map `f` over `items` on two threads, keeping order.
fn par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let (a, b) = items.split_at(items.len() / 2);
    let (ra, rb) = std::thread::scope(|s| {
        let h = s.spawn(|| a.iter().map(&f).collect::<Result<Vec<R>, String>>());
        let rb = b.iter().map(&f).collect::<Result<Vec<R>, String>>();
        (h.join().expect("set-up thread panicked"), rb)
    });
    let mut out = ra?;
    out.extend(rb?);
    Ok(out)
}

/// The `== full exploration ==` leaderboard of `tybec dse` stdout.
pub fn leaderboard(stdout: &str) -> Option<&str> {
    let start = stdout.find("== full exploration ==\n")? + "== full exploration ==\n".len();
    let len = stdout[start..].find("\n== guided tuning")?;
    Some(&stdout[start..start + len])
}

fn tybec_ok(tybec: &Path, args: &[&str]) -> Result<String, String> {
    let r = proc::run(tybec, args).map_err(|e| format!("spawning tybec {args:?}: {e}"))?;
    if !r.success || r.stdout.is_empty() {
        return Err(format!("tybec {args:?} failed at set-up"));
    }
    Ok(r.stdout)
}

/// Generate the inputs, record the references, and for `serve` start the
/// daemon. `work` is wiped first.
pub fn setup(workload: Workload, tybec: &Path, seed: u64, work: &Path) -> Result<Prepared, String> {
    let io = |e: std::io::Error| format!("set-up I/O: {e}");
    let _ = std::fs::remove_dir_all(work);
    let dir = work.join("designs");
    let designs = match workload {
        Workload::Dse => inputs::dse_designs(&dir).map_err(io)?,
        _ => inputs::corpus(Path::new("assets"), &dir).map_err(io)?,
    };
    if designs.is_empty() {
        return Err("no usable designs".into());
    }
    let dev = inputs::device();

    let actual_out = par_map(&designs, |d| tybec_ok(tybec, &["actual", &d.path]))?;
    let mut accuracy = ErrorDistribution::default();
    for (d, out) in designs.iter().zip(&actual_out) {
        let a = actual::parse(out)
            .ok_or_else(|| format!("unparsable `tybec actual` output for {}", d.path))?;
        // The parser must read the cost model's numbers.
        let m = tytra_ir::parse(&d.text).map_err(|e| e.to_string())?;
        let est = tytra_cost::estimate(&m, &dev).map_err(|e| e.to_string())?;
        let line = format!("estimated: {}", est.resources.total);
        let cpki = format!("{:.0}", est.throughput.cpki).parse::<f64>().ok();
        if !out.lines().any(|l| l == line) || cpki != Some(a.cpki_est) {
            return Err(format!("`tybec actual` disagrees with the cost model on {}", d.path));
        }
        accuracy.add(&a);
    }

    let mut p = Prepared {
        workload,
        tybec: tybec.to_path_buf(),
        seed,
        designs,
        actual_out,
        accuracy,
        leaderboards: Vec::new(),
        expected: Vec::new(),
        requests: Vec::new(),
        daemon: None,
    };
    match workload {
        Workload::Dse => {
            let lanes = lanes_arg(&inputs::wide_lanes());
            for k in inputs::KERNELS {
                let out = tybec_ok(tybec, &["dse", k, "--lanes", &lanes, "--exhaustive"])?;
                let board = leaderboard(&out).ok_or("no leaderboard in `tybec dse`")?;
                p.leaderboards.push(board.to_string());
            }
        }
        Workload::Oneshot => {
            for d in &p.designs {
                let m = tytra_ir::parse(&d.text).map_err(|e| e.to_string())?;
                let cost =
                    format!("{}", tytra_cost::estimate(&m, &dev).map_err(|e| e.to_string())?);
                let analyze = tytra_analyze::analyze_module(&m).render_text();
                let lint = tytra_lint::render_text(&tytra_lint::lint(&m, &dev), &d.path);
                p.expected.push([cost, analyze, lint]);
            }
        }
        Workload::Serve => {
            let costs = par_map(&p.designs, |d| tybec_ok(tybec, &["cost", &d.path]))?;
            for ((i, d), cost) in p.designs.iter().enumerate().zip(costs) {
                let m = tytra_ir::parse(&d.text).map_err(|e| e.to_string())?;
                let mut session = tytra_cost::EstimatorSession::new(dev.clone());
                let bound = format!("{:?}", session.bound(&m).map_err(|e| e.to_string())?);
                let analyze = tytra_analyze::analyze_module(&m).render_text();
                p.expected.push([cost, bound, analyze]);
                let id = i as u64 + 1;
                p.requests
                    .push(inputs::REQUEST_KINDS.map(|k| inputs::request_line(id, k, &d.text)));
            }
            p.daemon = Some(Daemon::start(tybec).map_err(|e| format!("starting daemon: {e}"))?);
        }
    }
    Ok(p)
}

pub fn lanes_arg(lanes: &[u64]) -> String {
    lanes.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// One finished op of a measured run.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub op: inputs::Op,
    /// Serve epoch the op ran in (0 for the process workloads).
    pub epoch: usize,
    pub ms: f64,
    pub ok: bool,
}

/// What a measured run saw.
#[derive(Default)]
pub struct Measured {
    pub done: Vec<Done>,
    /// Time with ops in flight, seconds.
    pub window_s: f64,
    /// Largest `tybec` child or daemon peak RSS, KiB.
    pub peak_rss_kib: i64,
}

impl Prepared {
    /// `tybec` arguments of a process-workload op.
    fn op_args(&self, op: &inputs::Op, lanes: &str) -> Vec<String> {
        match self.workload {
            Workload::Dse => {
                vec!["dse".into(), inputs::KERNELS[op.item].into(), "--lanes".into(), lanes.into()]
            }
            _ => {
                let d = &self.designs[op.item / 4];
                vec![ONESHOT_COMMANDS[op.item % 4].into(), d.path.clone()]
            }
        }
    }

    /// Whether a process-workload op printed what it should.
    fn op_output_ok(&self, op: &inputs::Op, stdout: &str) -> bool {
        match self.workload {
            Workload::Dse => leaderboard(stdout) == Some(self.leaderboards[op.item].as_str()),
            _ => {
                let d = op.item / 4;
                match op.item % 4 {
                    3 => stdout == self.actual_out[d],
                    c => stdout == self.expected[d][c],
                }
            }
        }
    }

    fn pool(&self) -> usize {
        match self.workload {
            Workload::Dse => inputs::KERNELS.len(),
            Workload::Oneshot => self.designs.len() * ONESHOT_COMMANDS.len(),
            Workload::Serve => self.designs.len(),
        }
    }

    /// The response line a serve op must get back.
    pub fn expected_response(&self, op: &inputs::Op) -> String {
        tytra_serve::render_ok(
            op.item as u64 + 1,
            &self.expected[op.item][inputs::request_slot(op.draw)],
        )
    }

    /// Run the workload's closed loop for `budget`.
    pub fn measure(&mut self, budget: Duration) -> Result<Measured, String> {
        match self.workload {
            Workload::Serve => self.measure_serve(budget),
            _ => Ok(self.measure_process(budget)),
        }
    }

    fn measure_process(&self, budget: Duration) -> Measured {
        let lanes = lanes_arg(&self.workload.lanes());
        let mut stream = OpStream::new(self.seed, self.pool());
        let mut m = Measured::default();
        let t0 = Instant::now();
        'run: loop {
            for op in stream.epoch() {
                if t0.elapsed() >= budget {
                    break 'run;
                }
                let args = self.op_args(&op, &lanes);
                let args: Vec<&str> = args.iter().map(String::as_str).collect();
                let done = match proc::run(&self.tybec, &args) {
                    Ok(r) => {
                        m.peak_rss_kib = m.peak_rss_kib.max(r.maxrss_kib);
                        let ok =
                            r.success && !r.stdout.is_empty() && self.op_output_ok(&op, &r.stdout);
                        Done { op, epoch: 0, ms: r.wall.as_secs_f64() * 1e3, ok }
                    }
                    Err(_) => Done { op, epoch: 0, ms: 0.0, ok: false },
                };
                m.done.push(done);
            }
        }
        m.window_s = t0.elapsed().as_secs_f64();
        m
    }

    /// Epochs of the serve stream. Each epoch runs on a fresh daemon, so
    /// a cold request is one the daemon has never seen. Connection `c`
    /// sends the ops whose design index has parity `c`, in stream order,
    /// so a warm op always follows the reply to the op it repeats.
    fn measure_serve(&mut self, budget: Duration) -> Result<Measured, String> {
        let mut stream = OpStream::new(self.seed, self.pool());
        let mut m = Measured::default();
        let mut used = Duration::ZERO;
        let mut epoch = 0;
        while used < budget {
            let ops = stream.epoch();
            let daemon = match self.daemon.take() {
                Some(d) => d,
                None => Daemon::start(&self.tybec).map_err(|e| format!("starting daemon: {e}"))?,
            };
            let left = budget - used;
            let t0 = Instant::now();
            let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|c| {
                        let ops: Vec<inputs::Op> =
                            ops.iter().filter(|o| o.item % 2 == c).copied().collect();
                        let addr = daemon.addr.clone();
                        let this = &*self;
                        s.spawn(move || this.client(&addr, &ops, epoch, t0, left))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
            });
            used += t0.elapsed();
            if let Some(hwm) = daemon.vm_hwm_kib() {
                m.peak_rss_kib = m.peak_rss_kib.max(hwm);
            }
            daemon.shutdown().map_err(|e| format!("stopping daemon: {e}"))?;
            for r in results {
                m.done.extend(r?);
            }
            epoch += 1;
        }
        m.window_s = used.as_secs_f64();
        Ok(m)
    }

    fn client(
        &self,
        addr: &str,
        ops: &[inputs::Op],
        epoch: usize,
        t0: Instant,
        budget: Duration,
    ) -> Result<Vec<Done>, String> {
        let io = |e: std::io::Error| format!("serve client: {e}");
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let mut writer = stream.try_clone().map_err(io)?;
        let mut reader = BufReader::new(stream);
        let mut done = Vec::with_capacity(ops.len());
        let mut reply = String::new();
        for op in ops {
            if t0.elapsed() >= budget {
                break;
            }
            let mut line = self.requests[op.item][inputs::request_slot(op.draw)].clone();
            line.push('\n');
            let sent = Instant::now();
            writer.write_all(line.as_bytes()).map_err(io)?;
            reply.clear();
            let n = reader.read_line(&mut reply).map_err(io)?;
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            let ok = n > 0 && reply == self.expected_response(op);
            done.push(Done { op: *op, epoch, ms, ok });
        }
        Ok(done)
    }

    /// Stop the daemon if one is running.
    pub fn teardown(&mut self) -> Result<(), String> {
        match self.daemon.take() {
            Some(d) => d.shutdown().map_err(|e| format!("stopping daemon: {e}")),
            None => Ok(()),
        }
    }
}

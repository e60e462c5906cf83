//! Child processes: one-shot `tybec` runs reaped with `wait4` (for their
//! peak RSS), and the `tybec serve` daemon.
//!
//! Linux on a 64-bit target only: `struct rusage` is declared here with
//! `long` fields as `i64`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` (Linux, 64-bit).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const WNOHANG: i32 = 1;
const EINTR: i32 = 4;

/// Reap `pid`: `Some((exit code or None if signalled, peak RSS in KiB))`,
/// or `None` when `nohang` is set and the child is still running.
fn reap(pid: u32, nohang: bool) -> std::io::Result<Option<(Option<i32>, i64)>> {
    let pid = i32::try_from(pid).map_err(|_| std::io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // the C `int` and `struct rusage` wait4 writes to.
        let r = unsafe { wait4(pid, &mut status, if nohang { WNOHANG } else { 0 }, &mut ru) };
        if r == pid {
            let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
            return Ok(Some((code, ru.maxrss)));
        }
        if r == 0 {
            return Ok(None);
        }
        let e = std::io::Error::last_os_error();
        if e.raw_os_error() != Some(EINTR) {
            return Err(e);
        }
    }
}

/// One finished `tybec` run.
pub struct Run {
    /// Exit code 0.
    pub success: bool,
    /// Everything it printed on stdout.
    pub stdout: String,
    /// From spawn to exit, stdout read.
    pub wall: Duration,
    /// Peak resident set of the child, KiB.
    pub maxrss_kib: i64,
}

/// Run `program args…` to completion with stdout captured and stderr
/// discarded.
pub fn run(program: &Path, args: &[&str]) -> std::io::Result<Run> {
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = String::new();
    let read = child.stdout.take().expect("stdout is piped").read_to_string(&mut stdout);
    let (code, maxrss_kib) = reap(child.id(), false)?.expect("blocking wait4 returns the child");
    let wall = t0.elapsed();
    read?;
    Ok(Run { success: code == Some(0), stdout, wall, maxrss_kib })
}

/// A running `tybec serve` on a loopback port the OS picked.
pub struct Daemon {
    child: Option<Child>,
    /// Kept open so the daemon's stderr writes never fail.
    _stderr: BufReader<ChildStderr>,
    /// Where it listens.
    pub addr: String,
}

impl Daemon {
    /// Start the daemon with default settings and wait until it listens.
    pub fn start(tybec: &Path) -> std::io::Result<Daemon> {
        let mut child = Command::new(tybec)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let mut d = Daemon { child: Some(child), _stderr: stderr, addr: String::new() };
        read?;
        match line.trim().strip_prefix("tybec serve: listening on ") {
            Some(addr) => d.addr = addr.to_string(),
            None => return Err(std::io::Error::other(format!("daemon said `{}`", line.trim()))),
        }
        Ok(d)
    }

    /// Peak resident set so far (`VmHWM`), KiB.
    pub fn vm_hwm_kib(&self) -> Option<i64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Ask the daemon to shut down and reap it; kill it if it does not
    /// exit within a few seconds. Every client connection must be closed
    /// first, or the daemon waits for them.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        let asked = TcpStream::connect(&self.addr).and_then(|mut s| {
            s.write_all(b"{\"id\":0,\"kind\":\"shutdown\"}\n")?;
            let mut reply = String::new();
            BufReader::new(s).read_line(&mut reply).map(|_| ())
        });
        let Some(mut child) = self.child.take() else { return asked };
        let deadline = Instant::now() + Duration::from_secs(5);
        while asked.is_ok() && Instant::now() < deadline {
            if reap(child.id(), true)?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = child.kill();
        reap(child.id(), false)?;
        asked.and(Err(std::io::Error::other("daemon did not exit on shutdown")))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(child.id(), false);
        }
    }
}

//! One `netdird` process: spawn, readiness, `/proc` readings, shutdown.
//! Dropping a [`Daemon`] kills and reaps the process, so no error or
//! panic path leaves one behind.

use netdir_server::RetryPolicy;
use netdir_wire::{ClientOptions, WireClient};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Pid of the running daemon (0 = none), for the watchdog.
static RUNNING: AtomicU32 = AtomicU32::new(0);

/// Bound the whole process: after `limit`, kill the daemon (if any) and
/// exit with status 3. Covers the one wait no socket timeout bounds —
/// a daemon that hangs before announcing its address.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: no result after {limit:?}, giving up");
        let pid = RUNNING.load(Ordering::SeqCst);
        if pid != 0 {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        std::process::exit(3);
    });
}

/// Kernel clock ticks per second in `/proc/PID/stat` (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's parting line has somewhere to go.
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn to first `Pong`.
    pub setup: Duration,
}

/// A client that reports every refusal and error instead of retrying,
/// so they are counted as failed operations.
pub fn client(addr: SocketAddr) -> WireClient {
    WireClient::connect(
        addr,
        ClientOptions {
            timeout: Duration::from_secs(60),
            retry: RetryPolicy::none(),
            ..ClientOptions::default()
        },
    )
}

impl Daemon {
    /// Start `netdird` on an ephemeral port with default flags over
    /// `ldif` (plus `--wal` when given; a stale file there is removed
    /// first, or the daemon would replay it) and wait until it answers a
    /// ping. No flush policy applies: the daemon never calls `fsync`.
    pub fn start(netdird: &Path, ldif: &Path, wal: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(netdird);
        cmd.args(["--listen", "127.0.0.1:0", "--ldif"]).arg(ldif);
        if let Some(wal) = wal {
            match std::fs::remove_file(wal) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("cannot remove stale {}: {e}", wal.display()));
                }
                _ => {}
            }
            cmd.arg("--wal").arg(wal);
        }
        let started = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", netdird.display()))?;
        RUNNING.store(child.id(), Ordering::SeqCst);
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        // From here on the process is owned by a Daemon, whose Drop
        // reaps it on every early return below.
        let mut daemon = Daemon {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        // The line is printed once the listener is bound, after the
        // whole load; end of file means the daemon died first.
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read netdird's stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .rsplit_once(" on ")
            .filter(|(head, _)| head.starts_with("netdird: serving "))
            .and_then(|(_, addr)| addr.parse().ok())
            .ok_or_else(|| format!("netdird did not announce an address, said {line:?}"))?;
        client(daemon.addr)
            .ping()
            .map_err(|e| format!("netdird does not answer pings: {e}"))?;
        daemon.setup = started.elapsed();
        Ok(daemon)
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    }

    fn status_field(&self, field: &str) -> Result<f64, String> {
        self.proc_file("status")?
            .lines()
            .find_map(|l| {
                l.strip_prefix(field)?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
            .ok_or_else(|| format!("/proc status has no {field}"))
    }

    /// Peak resident set so far, MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        Ok(self.status_field("VmHWM:")? / 1024.0)
    }

    /// Resident set right now, MiB.
    pub fn rss_mb(&self) -> Result<f64, String> {
        Ok(self.status_field("VmRSS:")? / 1024.0)
    }

    pub fn threads(&self) -> Result<f64, String> {
        self.status_field("Threads:")
    }

    /// CPU time consumed so far (user + system).
    pub fn cpu(&self) -> Result<Duration, String> {
        cpu_of(&self.proc_file("stat")?)
    }

    /// Graceful stop: `Shutdown` frame, then wait for the exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        client(self.addr)
            .shutdown_server()
            .map_err(|e| format!("netdird refused to shut down: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for netdird: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("netdird exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After a clean shutdown() the process is already reaped and
        // both calls are no-ops that may report an error; ignore it.
        let _ = self.child.kill();
        let _ = self.child.wait();
        RUNNING.store(0, Ordering::SeqCst);
    }
}

/// CPU time of this process so far.
pub fn own_cpu() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    cpu_of(&stat)
}

/// utime + stime from a `/proc/PID/stat` line. The command name (field
/// 2) may hold spaces, so fields are counted from the closing paren.
fn cpu_of(stat: &str) -> Result<Duration, String> {
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (ticks(), ticks()) {
        (Some(user), Some(system)) => Ok(Duration::from_secs_f64((user + system) / TICKS_PER_S)),
        _ => Err(format!("malformed /proc stat line {stat:?}")),
    }
}

extern "C" {
    /// glibc's wrapper of the Linux system call; std links glibc.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread — and every thread or process it starts
/// from now on, which is how the daemon is reached — to the machine's
/// last CPU (the first one takes most interrupts).
///
/// A closed-loop connection is a strictly serial pipeline: client and
/// daemon never run at the same time. Left to the scheduler they land
/// now on one CPU, now on two, and on two every hand-over wakes an idle
/// virtual CPU, which on the reference box costs more than the request
/// and differs from run to run (median point-lookup latency 0.43, 0.60
/// and 0.65 ms in three consecutive runs; 0.390 and 0.390 ms on one
/// CPU). `write_mix` has two such pipelines; they share the CPU too, or
/// its numbers wander by a third between runs.
pub fn pin_to_one_cpu() -> Result<(), String> {
    // Read before the first pin: afterwards the answer is 1.
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mask: u64 = 1 << (cpus - 1).min(63);
    // SAFETY: `mask` is 8 readable bytes and the size passed says so;
    // pid 0 names the calling thread; the call writes nothing.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

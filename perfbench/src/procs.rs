//! The system's own processes: `mqo_serve` alone, or `mqo_router
//! --supervise` in front of `mqo_serve` cells. Started fresh for every
//! set-up, drained with `POST /shutdown`, and checked for leftovers.

use mqo_service::http::roundtrip;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const START_TIMEOUT: Duration = Duration::from_secs(60);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// A running system under test.
pub struct System {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    /// Where clients connect: the cell, or the router in front of the cells.
    pub front: SocketAddr,
    /// The `mqo_serve` cells behind the router (empty without a router).
    pub cells: Vec<SocketAddr>,
    bins: [PathBuf; 2],
}

/// A port free at the moment of asking; the cell binds it a moment later
/// (the router needs cell addresses before it spawns the cells).
fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

fn bin(dir: &Path, name: &str) -> io::Result<PathBuf> {
    let path = dir.join(name).canonicalize()?;
    if path.to_string_lossy().contains(char::is_whitespace) {
        // The router splits its --supervise template on whitespace.
        return Err(io::Error::other(format!("{path:?} contains whitespace")));
    }
    Ok(path)
}

impl System {
    /// Starts the system with default flags: one `mqo_serve`, or
    /// `mqo_router --supervise` over `cells` cells. Returns once the front
    /// reports `listening on` and every process answers `/healthz`.
    pub fn start(bin_dir: &Path, cells: usize) -> io::Result<System> {
        let serve = bin(bin_dir, "mqo_serve")?;
        let router = bin(bin_dir, "mqo_router")?;
        let mut cell_addrs = Vec::new();
        let mut command = if cells == 0 {
            let mut c = Command::new(&serve);
            c.args(["--addr", "127.0.0.1:0"]);
            c
        } else {
            for _ in 0..cells {
                cell_addrs.push(SocketAddr::from(([127, 0, 0, 1], free_port()?)));
            }
            let list: Vec<String> = cell_addrs.iter().map(|a| a.to_string()).collect();
            let mut c = Command::new(&router);
            c.args(["--addr", "127.0.0.1:0", "--cells", &list.join(",")])
                .arg("--supervise")
                .arg(format!("{} --addr {{addr}}", serve.display()));
            c
        };
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let front = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        break addr.trim().parse().map_err(io::Error::other)?;
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other("system exited before listening"));
                }
            }
        };
        // Keep draining stdout so the process never blocks on a full pipe.
        let stdout = std::thread::spawn(move || for _ in lines.by_ref() {});
        let system = System {
            child,
            stdout: Some(stdout),
            front,
            cells: cell_addrs,
            bins: [serve, router],
        };
        let deadline = Instant::now() + START_TIMEOUT;
        for addr in std::iter::once(system.front).chain(system.cells.iter().copied()) {
            while !matches!(roundtrip(addr, "GET", "/healthz", b""), Ok((200, _))) {
                if Instant::now() > deadline {
                    return Err(io::Error::other(format!("{addr} never became healthy")));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        Ok(system)
    }

    /// Peak resident memory (`VmHWM`) of the front process and its child
    /// processes, megabytes.
    pub fn peak_rss_mb(&self) -> f64 {
        let front = self.child.id();
        let mut pids = vec![front];
        pids.extend(children_of(front));
        pids.iter().map(|&p| vm_hwm_kb(p)).sum::<f64>() / 1024.0
    }

    /// CPU time (user + system) the front process and its child
    /// processes have used so far, seconds.
    pub fn cpu_seconds(&self) -> f64 {
        let front = self.child.id();
        let mut pids = vec![front];
        pids.extend(children_of(front));
        pids.iter().map(|&p| cpu_ticks(p)).sum::<f64>() / CLOCK_TICKS_PER_S
    }

    /// Drains the system with `POST /shutdown` and waits for every process
    /// to exit. Errors when the drain times out or a process of the system
    /// outlives it.
    pub fn stop(mut self) -> io::Result<()> {
        let result = self.drain();
        if result.is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        let leftovers = wait_no_leftovers(&self.bins);
        result.and(leftovers)
    }

    fn drain(&mut self) -> io::Result<()> {
        roundtrip(self.front, "POST", "/shutdown", b"")?;
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("system exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("system did not drain"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for System {
    fn drop(&mut self) {
        // Only reached on an error path before `stop`: never leave the
        // system running.
        if let Some(stdout) = self.stdout.take() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            for pid in processes_running(&self.bins) {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
            let _ = stdout.join();
        }
    }
}

fn proc_pids() -> Vec<u32> {
    std::fs::read_dir("/proc")
        .map(|dir| {
            dir.flatten()
                .filter_map(|e| e.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn children_of(parent: u32) -> Vec<u32> {
    proc_pids()
        .into_iter()
        .filter(|&pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| {
                    let rest = &s[s.rfind(')')? + 2..];
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(parent)
        })
        .collect()
}

/// `USER_HZ`, the unit of the CPU times in `/proc/<pid>/stat` (100 on
/// every Linux architecture this runs on).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of a process, clock ticks.
fn cpu_ticks(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            let rest: Vec<&str> = s[s.rfind(')')? + 2..].split_whitespace().collect();
            // Fields 14 and 15 of stat, counted after the command name.
            Some(rest.get(11)?.parse::<f64>().ok()? + rest.get(12)?.parse::<f64>().ok()?)
        })
        .unwrap_or(0.0)
}

fn vm_hwm_kb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// CPU time (user + system) this process has used so far, seconds.
pub fn own_cpu_seconds() -> f64 {
    cpu_ticks(std::process::id()) / CLOCK_TICKS_PER_S
}

/// Peak resident memory of this process, megabytes.
pub fn own_peak_rss_mb() -> f64 {
    vm_hwm_kb(std::process::id()) / 1024.0
}

/// Live processes running one of `bins`.
fn processes_running(bins: &[PathBuf]) -> Vec<u32> {
    proc_pids()
        .into_iter()
        .filter(|pid| {
            std::fs::read_link(format!("/proc/{pid}/exe"))
                .map(|exe| bins.contains(&exe))
                .unwrap_or(false)
        })
        .collect()
}

fn wait_no_leftovers(bins: &[PathBuf]) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left = processes_running(bins);
        if left.is_empty() {
            return Ok(());
        }
        if Instant::now() > deadline {
            for pid in &left {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
            return Err(io::Error::other(format!("leftover processes {left:?}")));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

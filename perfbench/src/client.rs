//! The load generator: keep-alive HTTP lanes driven closed-loop or on an
//! open-loop arrival schedule.
//!
//! One lane is one thread with one connection. A lane writes requests
//! (pipelined when several are outstanding) and parses responses out of
//! its own buffer, so the client needs no more threads than connections.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A lane gives up on a server that stays silent this long.
const STALL: Duration = Duration::from_secs(30);

/// One request/response exchange as the client saw it.
pub struct Exchange {
    /// Index of the request within its phase.
    pub index: usize,
    /// When the request was due (closed loop: when it was sent).
    pub due: Instant,
    /// When its bytes were written.
    pub sent: Instant,
    /// When the whole response had arrived.
    pub done: Instant,
    pub status: u16,
    pub body: Vec<u8>,
}

impl Exchange {
    /// Latency from when the request was due, microseconds.
    pub fn latency_us(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e6
    }

    /// How late the generator sent the request, microseconds.
    pub fn late_us(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e6
    }
}

/// What a lane sends, and when.
pub enum Schedule<'a> {
    /// Keep `depth` requests outstanding, taking indices from the shared
    /// counter, until `until` or until the pool runs out.
    Closed {
        next: &'a AtomicUsize,
        depth: usize,
        until: Instant,
    },
    /// Send each `(index, due)` at its due time, whatever is outstanding.
    Open { due: Vec<(usize, Instant)> },
}

/// Splits one complete `content-length`-framed response off the front of
/// `buf`: `(consumed, status, body)`, or `None` while incomplete.
fn split_response(buf: &[u8]) -> io::Result<Option<(usize, u16, Vec<u8>)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((total, status, buf[head_end + 4..total].to_vec())))
}

/// Runs one lane over a fresh keep-alive connection.
pub fn run_lane(
    addr: SocketAddr,
    requests: &[&[u8]],
    mut schedule: Schedule<'_>,
) -> io::Result<Vec<Exchange>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut outstanding: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
    let mut out = Vec::new();
    let mut cursor = 0usize;
    loop {
        let now = Instant::now();
        let mut sending_done = false;
        let mut wait = STALL;
        match &mut schedule {
            Schedule::Closed { next, depth, until } => {
                while outstanding.len() < *depth && now < *until {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests.len() {
                        break;
                    }
                    stream.write_all(requests[i])?;
                    let sent = Instant::now();
                    outstanding.push_back((i, sent, sent));
                }
                sending_done = now >= *until || next.load(Ordering::Relaxed) >= requests.len();
            }
            Schedule::Open { due } => {
                while cursor < due.len() && due[cursor].1 <= Instant::now() {
                    let (i, at) = due[cursor];
                    stream.write_all(requests[i])?;
                    outstanding.push_back((i, at, Instant::now()));
                    cursor += 1;
                }
                match due.get(cursor) {
                    Some(&(_, at)) => wait = at.saturating_duration_since(Instant::now()),
                    None => sending_done = true,
                }
            }
        }
        if outstanding.is_empty() {
            if sending_done {
                return Ok(out);
            }
            if wait.is_zero() {
                continue;
            }
            std::thread::sleep(wait);
            continue;
        }
        if wait.is_zero() {
            continue;
        }
        stream.set_read_timeout(Some(wait))?;
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed a keep-alive connection",
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if wait == STALL {
                    return Err(e);
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let mut start = 0;
        while let Some((used, status, body)) = split_response(&buf[start..])? {
            let done = Instant::now();
            let (index, due, sent) = outstanding.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "unsolicited response")
            })?;
            out.push(Exchange {
                index,
                due,
                sent,
                done,
                status,
                body,
            });
            start += used;
        }
        buf.drain(..start);
    }
}

/// Runs `lanes` closed-loop lanes over one request pool for `seconds` (or
/// until the pool is spent); exchanges come back sorted by index, with the
/// instant the phase started.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[&[u8]],
    lanes: usize,
    depth: usize,
    seconds: f64,
) -> io::Result<(Vec<Exchange>, Instant)> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let results: Vec<io::Result<Vec<Exchange>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|_| {
                let next = &next;
                s.spawn(move || run_lane(addr, requests, Schedule::Closed { next, depth, until }))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client lane panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_by_key(|e| e.index);
    Ok((all, start))
}

/// Sends every request at `start + offset`, request `i` on lane
/// `i % lanes`; exchanges come back sorted by index.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[&[u8]],
    offsets: &[Duration],
    lanes: usize,
) -> io::Result<Vec<Exchange>> {
    // Connect first, then start the clock a little ahead, so connection
    // set-up never makes the first arrivals late.
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<io::Result<Vec<Exchange>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let due: Vec<(usize, Instant)> = offsets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % lanes == lane)
                    .map(|(i, &off)| (i, start + off))
                    .collect();
                s.spawn(move || run_lane(addr, requests, Schedule::Open { due }))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client lane panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_by_key(|e| e.index);
    Ok(all)
}

/// `GET /metrics` parsed as JSON.
pub fn scrape(addr: SocketAddr) -> io::Result<serde_json::Value> {
    let (status, body) = mqo_service::http::roundtrip(addr, "GET", "/metrics", b"")?;
    if status != 200 {
        return Err(io::Error::other(format!("/metrics answered {status}")));
    }
    serde_json::from_slice(&body).map_err(|e| io::Error::other(e.to_string()))
}

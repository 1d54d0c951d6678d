//! The structure-sharded router front (`mqo_router`, DESIGN.md §13–§14).
//!
//! A thin front process that consistently shards `POST /solve` requests
//! across N `mqo_serve` *cells* by the instance's QUBO structure
//! (`Qubo::structure_hash`, which is weight-independent): structurally
//! identical instances always land on the same cell, so each cell's
//! embedding cache sees the full hit-rate benefit of its shard instead of
//! every cell re-deriving every embedding.
//!
//! The router is a [`Server`] like `mqo_serve`: the same endpoint table,
//! bounded admission queue, worker pool and drain. Its [`Answerer`] is the
//! fleet of cells: where a cell's workers solve, the router's [`FORWARDERS`]
//! workers forward over *pooled keep-alive upstream connections*
//! ([`crate::http::KeepAliveClient`]), so neither accepting nor forwarding
//! blocks the poll loop. Admission is bounded by [`ROUTER_QUEUE`]: beyond
//! 64 queued requests, across all shards, `/solve` answers a typed 429.
//!
//! Per-cell resilience (DESIGN.md §14):
//!
//! * every cell has its own [`CircuitBreaker`]; an unreachable cell is
//!   skipped after `failure_threshold` consecutive failures and its traffic
//!   falls through to the next healthy cell (consistent order: the probe
//!   sequence starts at `hash % cells` and walks forward);
//! * **zero-loss failover**: a connection reset, timeout, or 5xx from a
//!   dying cell transparently replays the request on the next healthy cell
//!   — safe because solves are deterministic by `(problem, seed)`, so a
//!   replayed answer is bit-identical to the one the dying cell would have
//!   produced. Replays stay inside the client's remaining deadline budget:
//!   the router subtracts its own elapsed time and forwards a strictly
//!   decreasing `deadline_ms` upstream ([`next_deadline`]);
//! * idempotent repeats (same structure, weights, seed, reads, gauges,
//!   backend) can be answered from a small router-side **response cache**
//!   without touching a cell — the cached bytes are the exact bytes of the
//!   first answer;
//! * cells **quarantined** by the fleet supervisor
//!   ([`crate::supervisor::Supervisor`]) are skipped like open breakers:
//!   the fall-through walk *is* the shard-range remap;
//! * any HTTP answer from a cell — including typed rejections — counts as
//!   cell transport health; only transport errors trip the breaker, but
//!   5xx answers are treated as replayable (the last one is passed through
//!   verbatim if no cell does better);
//! * a final `503 backend_unavailable` carries an honest `Retry-After`
//!   computed from the soonest breaker re-probe, not a constant.

use crate::api::{Reject, SolveRequest};
use crate::breaker::{BreakerConfig, BreakerSnapshot, CircuitBreaker};
use crate::cache::Lru;
use crate::engine::EPSILON;
use crate::event_loop::{LoopConfig, Response};
use crate::http::KeepAliveClient;
use crate::metrics::{lock_recover, Metrics};
use crate::queue::QueueConfig;
use crate::server::{Answerer, Server};
use crate::supervisor::{Supervisor, SupervisorConfig};
use mqo_core::logical::LogicalMapping;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Forwarding workers (each checks out pooled upstream connections).
pub const FORWARDERS: usize = 4;

/// The router's admission queue: [`FORWARDERS`] workers, one request per
/// claim (a worker never forwards a claimed batch serially), and at most
/// 64 queued requests across all shards before `/solve` answers 429.
pub const ROUTER_QUEUE: QueueConfig = QueueConfig {
    depth: 64,
    workers: FORWARDERS,
    batch_size: 1,
};

/// Replay window for requests that carry no `deadline_ms` of their own,
/// milliseconds. Requests with a client deadline use that instead.
pub const FAILOVER_BUDGET_MS: u64 = 2_000;

/// Pause between failover passes over the fleet, milliseconds — gives a
/// respawning cell or a cooling breaker a moment before the next pass.
pub const ROUND_BACKOFF_MS: u64 = 25;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct MqoRouterConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Upstream `mqo_serve` cell addresses (at least one). A supervised
    /// fleet spawns one cell per address.
    pub cells: Vec<String>,
    /// Upstream connect/read/write timeout, milliseconds.
    pub io_timeout_ms: u64,
    /// Per-cell circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Response-cache entries for idempotent repeats (0 disables).
    pub response_cache: usize,
    /// Maximum failover passes over the fleet before giving up (at least
    /// 1). Each pass tries every admissible cell once.
    pub failover_rounds: u32,
    /// Spawn and supervise the cells as child processes (respawn on death,
    /// quarantine on crash loop). `None` routes to externally managed
    /// cells exactly as before.
    pub supervisor: Option<SupervisorConfig>,
    /// Client-side event-loop limits.
    pub front: LoopConfig,
}

impl MqoRouterConfig {
    /// Loopback defaults over the given cells.
    #[must_use]
    pub fn new(cells: Vec<String>) -> Self {
        MqoRouterConfig {
            addr: "127.0.0.1:0".to_string(),
            cells,
            io_timeout_ms: 10_000,
            breaker: BreakerConfig::default(),
            response_cache: 128,
            failover_rounds: 4,
            supervisor: None,
            front: LoopConfig::default(),
        }
    }
}

/// The shard key of one instance: the structure hash of its logical QUBO.
/// Weight-independent, so instances differing only in costs/savings values
/// still map to the same cell (and hit its cached embedding).
#[must_use]
pub fn structure_key(problem: &mqo_core::problem::MqoProblem, epsilon: f64) -> u64 {
    LogicalMapping::new(problem, epsilon)
        .qubo()
        .structure_hash()
}

/// The forwarded deadline for the next replay attempt: the client's budget
/// minus the time the router already spent, additionally capped one below
/// the previously forwarded deadline so the sequence is **strictly
/// decreasing across hops** even when attempts land in the same
/// millisecond. `None` means the budget is exhausted — stop replaying.
#[must_use]
pub fn next_deadline(budget_ms: u64, elapsed_ms: u64, previous: Option<u64>) -> Option<u64> {
    let remaining = budget_ms.checked_sub(elapsed_ms)?;
    let capped = match previous {
        Some(prev) => remaining.min(prev.saturating_sub(1)),
        None => remaining,
    };
    if capped == 0 {
        None
    } else {
        Some(capped)
    }
}

/// One upstream cell: address, connection pool, breaker, counters.
struct Cell {
    addr: SocketAddr,
    display: String,
    pool: Mutex<Vec<KeepAliveClient>>,
    breaker: CircuitBreaker,
    forwarded: AtomicU64,
    failures: AtomicU64,
}

/// Serialisable per-cell health reported under the router's `/metrics`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CellSnapshot {
    /// The cell's address.
    pub addr: String,
    /// Breaker state and transition counters.
    pub breaker: BreakerSnapshot,
    /// Requests this cell answered.
    pub forwarded: u64,
    /// Transport failures talking to this cell.
    pub failures: u64,
    /// Idle pooled keep-alive connections to this cell.
    pub pooled: usize,
    /// Whether the supervisor quarantined this cell (shard range remapped).
    #[serde(default)]
    pub quarantined: bool,
}

/// The router's [`Answerer`]: the cells, the failover machinery, the
/// response cache and, when the router owns its cells, their supervisor.
struct Fleet {
    cells: Vec<Cell>,
    io_timeout: Duration,
    failover_rounds: u32,
    /// Per-cell quarantine flags; shared with the supervisor when one is
    /// running, all-false otherwise.
    quarantined: Arc<Vec<AtomicBool>>,
    /// Successful `/solve` answers keyed by the *canonical* request bytes
    /// (the request re-serialised without its `deadline_ms`, so the key
    /// covers structure, weights, seed, reads, gauges, and backend pin —
    /// everything the answer depends on, nothing it doesn't). Safe because
    /// solves are deterministic: a hit returns the exact bytes the fleet
    /// produced for the first occurrence.
    response_cache: Lru<Vec<u8>, String>,
    supervisor: Option<Arc<Supervisor>>,
    metrics: Arc<Metrics>,
    lock_recoveries: AtomicU64,
}

impl Fleet {
    /// Primary cell of a shard key, before breaker fall-through.
    fn primary(&self, hash: u64) -> usize {
        (hash % self.cells.len() as u64) as usize
    }

    /// `Retry-After` seconds for a request no cell could take: the soonest
    /// moment any open breaker will admit a probe again (rounded up; at
    /// least 1 s). Falls back to 1 s when nothing is measurably open.
    fn retry_after_secs(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(|cell| cell.breaker.remaining_open())
            .min()
            .map(|remaining| (remaining.as_millis() as u64).div_ceil(1_000).max(1))
            .unwrap_or(1)
    }

    /// Forwards one `/solve` request to the shard's cell, transparently
    /// replaying on the next healthy cell after a transport failure or a
    /// 5xx, within the request's deadline budget counted from `admitted`.
    /// Non-5xx HTTP answers are passed through verbatim.
    fn forward(&self, request: &SolveRequest, admitted: Instant) -> Response {
        // Canonical bytes: the request without its deadline. Response-cache
        // key and the upstream body for deadline-less requests are both
        // this serialisation.
        let canonical = {
            let mut canon = request.clone();
            canon.deadline_ms = None;
            match serde_json::to_string(&canon) {
                Ok(json) => json.into_bytes(),
                Err(e) => {
                    return Response::reject(&Reject::InternalError {
                        detail: format!("cannot re-serialise request: {e}"),
                    })
                }
            }
        };
        if self.response_cache.capacity() > 0 {
            if let Some(body) = self.response_cache.get(&canonical) {
                Metrics::inc(&self.metrics.router_cache_hits);
                return Response::json(200, body);
            }
            Metrics::inc(&self.metrics.router_cache_misses);
        }

        let n = self.cells.len();
        let primary = self.primary(structure_key(&request.problem, EPSILON));
        let budget = request.deadline_ms;
        // The replay window: the client's own deadline when it sent one,
        // the configured failover budget otherwise.
        let window_ms = budget.unwrap_or(FAILOVER_BUDGET_MS);
        let mut last_forwarded: Option<u64> = None;
        let mut last_5xx: Option<(u16, String)> = None;
        let mut failed_attempts = 0u32;
        let mut budget_exhausted = false;
        let mut detail = String::new();
        let mut note = |entry: String| {
            if detail.len() < 1_024 {
                if !detail.is_empty() {
                    detail.push_str("; ");
                }
                detail.push_str(&entry);
            }
        };

        'rounds: for round in 0..self.failover_rounds.max(1) {
            if round > 0 {
                let elapsed = admitted.elapsed().as_millis() as u64;
                if elapsed.saturating_add(ROUND_BACKOFF_MS) >= window_ms {
                    budget_exhausted = true;
                    break 'rounds;
                }
                std::thread::sleep(Duration::from_millis(ROUND_BACKOFF_MS));
            }
            for step in 0..n {
                let idx = (primary + step) % n;
                let cell = &self.cells[idx];
                if self.quarantined[idx].load(Ordering::SeqCst) {
                    note(format!("{}: quarantined", cell.display));
                    continue;
                }
                if !cell.breaker.admit() {
                    note(format!("{}: breaker open", cell.display));
                    continue;
                }
                // Budget check per attempt; the forwarded deadline strictly
                // decreases across hops.
                let elapsed = admitted.elapsed().as_millis() as u64;
                let forwarded_deadline = match budget {
                    Some(b) => match next_deadline(b, elapsed, last_forwarded) {
                        Some(d) => {
                            last_forwarded = Some(d);
                            Some(d)
                        }
                        None => {
                            budget_exhausted = true;
                            break 'rounds;
                        }
                    },
                    None => {
                        if elapsed >= window_ms {
                            budget_exhausted = true;
                            break 'rounds;
                        }
                        None
                    }
                };
                let body: Vec<u8> = match forwarded_deadline {
                    Some(deadline) => {
                        let mut fwd = request.clone();
                        fwd.deadline_ms = Some(deadline);
                        match serde_json::to_string(&fwd) {
                            Ok(json) => json.into_bytes(),
                            Err(_) => canonical.clone(),
                        }
                    }
                    None => canonical.clone(),
                };
                match self.try_cell(cell, &body) {
                    Ok((status, resp_body)) => {
                        cell.breaker.record_success();
                        let resp_body = String::from_utf8(resp_body)
                            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
                        if status >= 500 {
                            // The cell answered, but with a server-side
                            // failure — replayable on another cell; keep the
                            // answer to pass through verbatim if nothing
                            // does better.
                            failed_attempts += 1;
                            note(format!("{}: upstream {status}", cell.display));
                            last_5xx = Some((status, resp_body));
                            continue;
                        }
                        Metrics::inc(&cell.forwarded);
                        if failed_attempts > 0 {
                            Metrics::inc(&self.metrics.failovers);
                        }
                        if status == 200 {
                            self.response_cache.insert(canonical, resp_body.clone());
                        }
                        return Response::json(status, resp_body);
                    }
                    Err(e) => {
                        cell.breaker.record_failure();
                        Metrics::inc(&cell.failures);
                        failed_attempts += 1;
                        note(format!("{}: {e}", cell.display));
                    }
                }
            }
        }

        if budget_exhausted {
            Metrics::inc(&self.metrics.deadline_budget_exhausted);
        }
        // A 5xx a cell actually produced beats a synthetic router error —
        // pass the last one through verbatim.
        if let Some((status, body)) = last_5xx {
            return Response::json(status, body);
        }
        if budget_exhausted {
            return Response::reject(&Reject::DeadlineExceeded {
                deadline_ms: window_ms,
            });
        }
        let retry_after = self.retry_after_secs();
        Response::reject(&Reject::BackendUnavailable { detail })
            .with_header("retry-after", retry_after.to_string())
    }

    /// One attempt against one cell over a pooled keep-alive connection;
    /// the client itself retries once on a stale pooled connection.
    fn try_cell(&self, cell: &Cell, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut client = lock_recover(&cell.pool, &self.lock_recoveries)
            .pop()
            .unwrap_or_else(|| KeepAliveClient::with_timeout(cell.addr, Some(self.io_timeout)));
        let result = client.request("POST", "/solve", body);
        if result.is_ok() {
            lock_recover(&cell.pool, &self.lock_recoveries).push(client);
        }
        result
    }

    fn cell_snapshots(&self) -> Vec<CellSnapshot> {
        self.cells
            .iter()
            .enumerate()
            .map(|(idx, cell)| CellSnapshot {
                addr: cell.display.clone(),
                breaker: cell.breaker.snapshot(),
                forwarded: cell.forwarded.load(Ordering::Relaxed),
                failures: cell.failures.load(Ordering::Relaxed),
                pooled: lock_recover(&cell.pool, &self.lock_recoveries).len(),
                quarantined: self.quarantined[idx].load(Ordering::SeqCst),
            })
            .collect()
    }
}

impl Answerer for Fleet {
    fn answer(&self, request: &SolveRequest, admitted: Instant, _queue_wait_us: u64) -> Response {
        self.forward(request, admitted)
    }

    fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    fn metrics_json(&self) -> serde_json::Value {
        serde_json::json!({
            "service": self.metrics.snapshot(),
            "router": serde_json::json!({
                "cells": self.cell_snapshots(),
                "response_cache_len": self.response_cache.stats().len,
            }),
            "supervisor": self.supervisor.as_ref().map(|s| s.snapshots()),
        })
    }

    fn health(&self) -> String {
        format!(r#"{{"status":"ok","cells":{}}}"#, self.cells.len())
    }
}

/// A running structure-sharded router (optionally supervising its cells).
pub struct MqoRouter {
    server: Server,
    fleet: Arc<Fleet>,
    supervisor_report: Mutex<Vec<String>>,
}

impl std::fmt::Debug for MqoRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MqoRouter")
            .field("addr", &self.server.local_addr())
            .field("cells", &self.fleet.cells.len())
            .field("supervised", &self.fleet.supervisor.is_some())
            .finish()
    }
}

impl MqoRouter {
    /// Optionally spawns and readies the supervised fleet, resolves the
    /// cells, then serves them behind [`ROUTER_QUEUE`].
    pub fn start(config: MqoRouterConfig) -> io::Result<MqoRouter> {
        MqoRouter::serve(config, ROUTER_QUEUE)
    }

    fn serve(config: MqoRouterConfig, queue: QueueConfig) -> io::Result<MqoRouter> {
        if config.cells.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one cell",
            ));
        }
        let metrics = Arc::new(Metrics::default());

        // Supervision first: cells must exist (or be quarantined) before
        // the router starts answering.
        let (supervisor, quarantined) = match config.supervisor.clone() {
            Some(sup_config) => {
                let sup = Supervisor::start(sup_config, &config.cells, Arc::clone(&metrics))
                    .map_err(io::Error::other)?;
                sup.wait_ready().map_err(io::Error::other)?;
                let flags = sup.quarantine_flags();
                (Some(Arc::new(sup)), flags)
            }
            None => (
                None,
                Arc::new(
                    config
                        .cells
                        .iter()
                        .map(|_| AtomicBool::new(false))
                        .collect(),
                ),
            ),
        };

        let cells = config
            .cells
            .iter()
            .map(|spec| {
                let resolved = spec.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("cell {spec:?} resolves to nothing"),
                    )
                })?;
                Ok(Cell {
                    addr: resolved,
                    display: spec.clone(),
                    pool: Mutex::new(Vec::new()),
                    breaker: CircuitBreaker::new(config.breaker),
                    forwarded: AtomicU64::new(0),
                    failures: AtomicU64::new(0),
                })
            })
            .collect::<io::Result<Vec<Cell>>>()?;
        let fleet = Arc::new(Fleet {
            cells,
            io_timeout: Duration::from_millis(config.io_timeout_ms.max(1)),
            failover_rounds: config.failover_rounds,
            quarantined,
            response_cache: Lru::new(config.response_cache),
            supervisor,
            metrics,
            lock_recoveries: AtomicU64::new(0),
        });
        let server = Server::serve(&config.addr, fleet.clone(), queue, config.front)?;
        Ok(MqoRouter {
            server,
            fleet,
            supervisor_report: Mutex::new(Vec::new()),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The router's front-end metrics handle.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        self.server.metrics()
    }

    /// Per-cell health (breaker state, traffic, pool size, quarantine).
    #[must_use]
    pub fn cells(&self) -> Vec<CellSnapshot> {
        self.fleet.cell_snapshots()
    }

    /// The fleet supervisor, when this router spawned its own cells.
    #[must_use]
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.fleet.supervisor.as_ref()
    }

    /// How the supervised cells went down; empty before [`MqoRouter::wait`]
    /// finishes (or when unsupervised).
    #[must_use]
    pub fn supervisor_report(&self) -> Vec<String> {
        lock_recover(&self.supervisor_report, &self.fleet.lock_recoveries).clone()
    }

    /// Blocks until shutdown is requested, drains the server (every
    /// admitted forward is answered), then drains the supervised cells.
    pub fn wait(&self) {
        self.server.wait();
        self.drain_cells();
    }

    /// Requests a graceful shutdown and waits for the drain.
    pub fn shutdown(&self) {
        self.server.shutdown();
        self.drain_cells();
    }

    fn drain_cells(&self) {
        if let Some(supervisor) = &self.fleet.supervisor {
            let report = supervisor.shutdown();
            *lock_recover(&self.supervisor_report, &self.fleet.lock_recoveries) = report;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::http::{read_response, render_request, roundtrip};
    use crate::server::ServerConfig;
    use mqo_chimera::graph::ChimeraGraph;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn cell_server() -> Server {
        let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
        engine.device.num_reads = 20;
        engine.device.num_gauges = 2;
        Server::start(ServerConfig::new(engine)).expect("bind cell")
    }

    fn router_over(cells: &[&Server]) -> MqoRouter {
        let specs = cells
            .iter()
            .map(|cell| cell.local_addr().to_string())
            .collect();
        MqoRouter::start(MqoRouterConfig::new(specs)).expect("bind router")
    }

    /// Two structurally distinct tiny instances (different plan counts), so
    /// they can shard to different cells.
    const TINY_A: &[u8] =
        br#"{"problem": {"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}, "seed": 7}"#;
    const TINY_B: &[u8] =
        br#"{"problem": {"queries": [[2,4,6],[3,1]], "savings": [[1,3,5.0]]}, "seed": 7}"#;

    #[test]
    fn sharded_responses_are_bit_identical_to_a_single_cell() {
        let cell_a = cell_server();
        let cell_b = cell_server();
        let router = router_over(&[&cell_a, &cell_b]);
        let solo = cell_server();
        for body in [TINY_A, TINY_B] {
            let (via_router, direct) = (
                roundtrip(router.local_addr(), "POST", "/solve", body).unwrap(),
                roundtrip(solo.local_addr(), "POST", "/solve", body).unwrap(),
            );
            assert_eq!(
                via_router.0,
                200,
                "{}",
                String::from_utf8_lossy(&via_router.1)
            );
            // Identical (problem, seed) answers bit-identically regardless
            // of which cell solved it (timing fields differ; compare the
            // solution surface).
            let r: serde_json::Value = serde_json::from_slice(&via_router.1).unwrap();
            let d: serde_json::Value = serde_json::from_slice(&direct.1).unwrap();
            for field in ["selection", "cost", "backend", "reads", "qubits_used"] {
                assert_eq!(r[field], d[field], "{field}");
            }
        }
        let total: u64 = router.cells().iter().map(|c| c.forwarded).sum();
        assert_eq!(total, 2);
        router.shutdown();
        cell_a.shutdown();
        cell_b.shutdown();
        solo.shutdown();
    }

    #[test]
    fn same_structure_always_lands_on_the_same_cell() {
        let cell_a = cell_server();
        let cell_b = cell_server();
        let router = router_over(&[&cell_a, &cell_b]);
        // Same structure, different weights/seeds: one cell takes them all.
        let bodies: Vec<Vec<u8>> = (0..4)
            .map(|seed| {
                format!(
                    r#"{{"problem": {{"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}}, "seed": {seed}}}"#
                )
                .into_bytes()
            })
            .collect();
        for body in &bodies {
            let (status, body) = roundtrip(router.local_addr(), "POST", "/solve", body).unwrap();
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        }
        let cells = router.cells();
        let loads: Vec<u64> = cells.iter().map(|c| c.forwarded).collect();
        assert!(
            loads.contains(&4) && loads.contains(&0),
            "one cell takes the whole structure shard, saw {loads:?}"
        );
        // The owning cell saw 1 miss + 3 hits; the idle cell saw nothing.
        let owner = if loads[0] == 4 { &cell_a } else { &cell_b };
        assert_eq!(owner.metrics().snapshot().cache_hits, 3);
        router.shutdown();
        cell_a.shutdown();
        cell_b.shutdown();
    }

    #[test]
    fn dead_cells_fall_through_and_recovery_warms_the_cache() {
        let cell_a = cell_server();
        let cell_b = cell_server();
        let mut config = MqoRouterConfig::new(vec![
            cell_a.local_addr().to_string(),
            cell_b.local_addr().to_string(),
        ]);
        config.breaker.failure_threshold = 1;
        config.breaker.open_ms = 50;
        config.io_timeout_ms = 500;
        // This test exercises the *uncached* fall-through path: a repeat of
        // TINY_A must reach a cell, not the response cache.
        config.response_cache = 0;
        let router = MqoRouter::start(config).expect("bind router");

        // Find which cell owns TINY_A's structure, then kill it.
        let (status, _) = roundtrip(router.local_addr(), "POST", "/solve", TINY_A).unwrap();
        assert_eq!(status, 200);
        let owner_idx = router
            .cells()
            .iter()
            .position(|c| c.forwarded == 1)
            .expect("one cell answered");
        let (owner, survivor) = if owner_idx == 0 {
            (cell_a, &cell_b)
        } else {
            (cell_b, &cell_a)
        };
        owner.shutdown();

        // The shard's primary is gone: requests fall through to the
        // survivor and still answer 200.
        let (status, body) = roundtrip(router.local_addr(), "POST", "/solve", TINY_A).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let cells = router.cells();
        assert!(
            cells[owner_idx].failures >= 1,
            "dead cell recorded failures"
        );
        assert_eq!(
            survivor.metrics().snapshot().requests_total,
            1,
            "survivor answered the fallen-through request"
        );
        // The fall-through was a transparent failover and is counted.
        assert!(
            router.metrics().snapshot().failovers >= 1,
            "failover counted"
        );
        router.shutdown();
        survivor.shutdown();
    }

    #[test]
    fn router_metrics_report_per_cell_breaker_state() {
        let cell = cell_server();
        let router = router_over(&[&cell]);
        let (status, body) = roundtrip(router.local_addr(), "GET", "/metrics", b"").unwrap();
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(v["router"]["cells"][0]["breaker"]["state"], "closed");
        assert_eq!(v["router"]["cells"][0]["quarantined"], false);
        assert!(v["service"]["requests_total"].is_u64());
        assert!(
            v["supervisor"].is_null(),
            "unsupervised router reports no supervisor panel"
        );
        let (status, body) = roundtrip(router.local_addr(), "GET", "/healthz", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"status":"ok","cells":1}"#);
        router.shutdown();
        cell.shutdown();
    }

    #[test]
    fn malformed_bodies_are_rejected_at_the_router_without_forwarding() {
        let cell = cell_server();
        let router = router_over(&[&cell]);
        let (status, body) = roundtrip(router.local_addr(), "POST", "/solve", b"{nope").unwrap();
        assert_eq!(status, 400);
        let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(v["reason"], "invalid_request");
        assert_eq!(cell.metrics().snapshot().requests_total, 0);
        assert_eq!(router.cells()[0].forwarded, 0);
        router.shutdown();
        cell.shutdown();
    }

    #[test]
    fn repeated_requests_hit_the_response_cache_with_identical_bytes() {
        let cell = cell_server();
        let router = router_over(&[&cell]);
        let (status, first) = roundtrip(router.local_addr(), "POST", "/solve", TINY_A).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&first));
        let (status, second) = roundtrip(router.local_addr(), "POST", "/solve", TINY_A).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            first, second,
            "a cache hit returns the exact bytes of the first answer"
        );
        let snapshot = router.metrics().snapshot();
        assert_eq!(snapshot.router_cache_hits, 1);
        assert_eq!(snapshot.router_cache_misses, 1);
        assert_eq!(
            cell.metrics().snapshot().requests_total,
            1,
            "the repeat never reached the cell"
        );
        // A different deadline must not change the cache key: the answer
        // depends on (problem, seed, reads, gauges, backend) only.
        let with_deadline =
            br#"{"problem": {"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}, "seed": 7, "deadline_ms": 9000}"#;
        let (status, third) =
            roundtrip(router.local_addr(), "POST", "/solve", with_deadline).unwrap();
        assert_eq!(status, 200);
        assert_eq!(third, first, "deadline-only variation is the same answer");
        assert_eq!(router.metrics().snapshot().router_cache_hits, 2);
        // A different seed is a different answer and must miss.
        let other_seed =
            br#"{"problem": {"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}, "seed": 8}"#;
        let (status, _) = roundtrip(router.local_addr(), "POST", "/solve", other_seed).unwrap();
        assert_eq!(status, 200);
        assert_eq!(router.metrics().snapshot().router_cache_misses, 2);
        router.shutdown();
        cell.shutdown();
    }

    #[test]
    fn cached_responses_are_bit_identical_to_the_uncached_path() {
        // Same request through a caching router and a cache-disabled
        // router over equally configured cells: the solution surface is
        // identical — the cache changes *where* bytes come from, never
        // *what* they say.
        let cell_cached = cell_server();
        let cell_plain = cell_server();
        let cached_router = router_over(&[&cell_cached]);
        let mut plain_config = MqoRouterConfig::new(vec![cell_plain.local_addr().to_string()]);
        plain_config.response_cache = 0;
        let plain_router = MqoRouter::start(plain_config).expect("bind router");

        // Prime the cache, then read through it.
        let (_, _) = roundtrip(cached_router.local_addr(), "POST", "/solve", TINY_B).unwrap();
        let (status_c, via_cache) =
            roundtrip(cached_router.local_addr(), "POST", "/solve", TINY_B).unwrap();
        let (status_p, via_plain) =
            roundtrip(plain_router.local_addr(), "POST", "/solve", TINY_B).unwrap();
        assert_eq!((status_c, status_p), (200, 200));
        assert_eq!(cached_router.metrics().snapshot().router_cache_hits, 1);
        let c: serde_json::Value = serde_json::from_slice(&via_cache).unwrap();
        let p: serde_json::Value = serde_json::from_slice(&via_plain).unwrap();
        for field in ["selection", "cost", "backend", "reads", "qubits_used"] {
            assert_eq!(c[field], p[field], "{field}");
        }
        cached_router.shutdown();
        plain_router.shutdown();
        cell_cached.shutdown();
        cell_plain.shutdown();
    }

    #[test]
    fn retry_after_reflects_the_breaker_cooling_interval() {
        // One unreachable cell with a 30 s breaker: the first request
        // opens the breaker, the second is rejected while it is open and
        // must advertise the breaker's remaining cooling time, not "1".
        let dead = {
            // Bind-then-drop: a port that connects to nothing.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let mut config = MqoRouterConfig::new(vec![dead.to_string()]);
        config.breaker.failure_threshold = 1;
        config.breaker.open_ms = 30_000;
        config.io_timeout_ms = 200;
        config.failover_rounds = 1;
        let router = MqoRouter::start(config).expect("bind router");

        let (status, _) = roundtrip(router.local_addr(), "POST", "/solve", TINY_A).unwrap();
        assert_eq!(status, 503, "dead cell yields backend_unavailable");
        // Second request: the breaker is open, nothing is attempted.
        let mut stream = std::net::TcpStream::connect(router.local_addr()).unwrap();
        stream
            .write_all(&render_request(
                "POST",
                "/solve",
                &router.local_addr().to_string(),
                TINY_A,
                true,
            ))
            .unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let parts = read_response(&mut reader).unwrap();
        assert_eq!(parts.status, 503);
        let retry_after = parts.retry_after.expect("503 carries Retry-After");
        assert!(
            (2..=30).contains(&retry_after),
            "Retry-After tracks the ~30 s breaker interval, got {retry_after}"
        );
        router.shutdown();
    }

    #[test]
    fn next_deadline_subtracts_elapsed_and_strictly_decreases() {
        assert_eq!(next_deadline(1_000, 0, None), Some(1_000));
        assert_eq!(next_deadline(1_000, 400, None), Some(600));
        assert_eq!(next_deadline(1_000, 1_000, None), None, "budget spent");
        assert_eq!(next_deadline(1_000, 1_500, None), None, "budget overdrawn");
        // Same-millisecond replays still strictly decrease.
        assert_eq!(next_deadline(1_000, 400, Some(600)), Some(599));
        assert_eq!(next_deadline(1_000, 400, Some(1)), None, "floor reached");
        // The previous cap never lets the deadline grow back.
        assert_eq!(next_deadline(1_000, 0, Some(500)), Some(499));
    }

    #[test]
    fn full_admission_queue_answers_429_and_every_admitted_request_answers_once() {
        // A black-hole cell: the kernel accepts connections on its backlog,
        // nothing ever answers, so a forwarder blocks on it.
        let black_hole = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut config = MqoRouterConfig::new(vec![black_hole.local_addr().unwrap().to_string()]);
        config.io_timeout_ms = 5_000;
        config.failover_rounds = 1;
        let router = MqoRouter::serve(
            config,
            QueueConfig {
                depth: 1,
                workers: 1,
                batch_size: 1,
            },
        )
        .expect("bind router");
        let addr = router.local_addr();
        let send = |body: &[u8]| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            s.write_all(&render_request("POST", "/solve", "t", body, true))
                .unwrap();
            s
        };
        let wait_until = |ready: &dyn Fn() -> bool, what: &str| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !ready() {
                assert!(Instant::now() < deadline, "timed out: {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // The first request occupies the single forwarder, the second
        // fills the depth-1 queue, the third must be turned away.
        let a = send(TINY_A);
        wait_until(
            &|| router.metrics().snapshot().batches_dispatched >= 1,
            "the forwarder claims the first request",
        );
        let b = send(TINY_B);
        wait_until(
            &|| router.metrics().snapshot().queue_depth >= 1,
            "the second request queues",
        );
        let rejected = read_response(&mut std::io::BufReader::new(send(TINY_A))).unwrap();
        assert_eq!(rejected.status, 429);
        assert_eq!(rejected.retry_after, Some(1), "429 advertises Retry-After");
        let v: serde_json::Value = serde_json::from_slice(&rejected.body).unwrap();
        assert_eq!(v["reason"], "queue_full");
        assert_eq!(router.metrics().snapshot().rejected_queue_full, 1);

        // Closing the black hole resets its connections: both admitted
        // requests now get their one answer (no cell can take them), and
        // nothing follows it on the wire.
        drop(black_hole);
        for held in [a, b] {
            let mut reader = std::io::BufReader::new(held);
            let answer = read_response(&mut reader).unwrap();
            assert_eq!(
                answer.status,
                503,
                "{}",
                String::from_utf8_lossy(&answer.body)
            );
            assert!(answer.close);
            let mut rest = Vec::new();
            std::io::Read::read_to_end(&mut reader, &mut rest).unwrap();
            assert!(rest.is_empty(), "exactly one answer per admitted request");
        }
        assert_eq!(router.metrics().snapshot().rejected_queue_full, 1);
        router.shutdown();
    }
}

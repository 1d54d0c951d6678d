//! Chaos-drain integration tests (ISSUE-5, satellite d).
//!
//! A server under nonzero chaos rates — worker panics, backend failures —
//! must never lose a request: every replayed request ends as a valid solve
//! (200) or a typed error (500/503 with a `reason` tag), and the drain
//! completes without hanging. A second battery pins the determinism contract: the fault
//! schedule is keyed on request seeds, so identical seeds and chaos
//! config produce identical chaos counters and per-request outcomes at
//! any worker count, and an inert chaos config (rates all zero) is
//! indistinguishable from a chaos-free server.

use mqo_chimera::graph::ChimeraGraph;
use mqo_service::chaos::{ChaosConfig, CHAOS_PANIC_MESSAGE};
use mqo_service::engine::EngineConfig;
use mqo_service::http::roundtrip;
use mqo_service::metrics::MetricsSnapshot;
use mqo_service::server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};

/// Installs a panic hook that swallows the injected chaos panics (they are
/// load-bearing for these tests and would otherwise spray backtraces over
/// the output) while delegating every other panic to the default hook.
fn silence_chaos_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains(CHAOS_PANIC_MESSAGE) {
                prev(info);
            }
        }));
    });
}

fn chaos_server(chaos: ChaosConfig, workers: usize, breaker_threshold: u32) -> Server {
    let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
    engine.device.num_reads = 10;
    engine.device.num_gauges = 2;
    engine.chaos = chaos;
    engine.breaker.failure_threshold = breaker_threshold;
    engine.breaker.open_ms = 50;
    let mut config = ServerConfig::new(engine);
    config.queue.workers = workers;
    config.queue.batch_size = 4;
    Server::start(config).expect("bind loopback")
}

/// One tiny two-query instance; the structure is shared so the cache warms,
/// while the per-request `seed` drives both annealing and the chaos rolls.
fn body(seed: u64) -> Vec<u8> {
    format!(
        r#"{{"problem": {{"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}}, "seed": {seed}}}"#
    )
    .into_bytes()
}

/// Replays `bodies` against the server from `clients` concurrent threads
/// and returns `(index, status, parsed body)` per request. Panics if any
/// connection errors — under chaos the server must still answer every
/// accepted request.
fn replay(
    addr: std::net::SocketAddr,
    bodies: Vec<Vec<u8>>,
    clients: usize,
) -> Vec<(usize, u16, serde_json::Value)> {
    let bodies = Arc::new(bodies);
    let next = Arc::new(AtomicUsize::new(0));
    let results = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let bodies = Arc::clone(&bodies);
            let next = Arc::clone(&next);
            let results = Arc::clone(&results);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= bodies.len() {
                    return;
                }
                let (status, reply) =
                    roundtrip(addr, "POST", "/solve", &bodies[i]).expect("request completes");
                let v: serde_json::Value =
                    serde_json::from_slice(&reply).expect("body is valid JSON");
                results.lock().unwrap().push((i, status, v));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let mut results = Arc::try_unwrap(results).unwrap().into_inner().unwrap();
    results.sort_by_key(|(i, _, _)| *i);
    results
}

/// The chaos counters that must not depend on scheduling: everything keyed
/// on request seeds, plus the outcome tallies they imply.
fn deterministic_counters(s: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("requests_total", s.requests_total),
        ("solved_total", s.solved_total),
        ("rejected_internal", s.rejected_internal),
        ("rejected_unavailable", s.rejected_unavailable),
        ("worker_panics_caught", s.worker_panics_caught),
        ("chaos_panics_injected", s.chaos_panics_injected),
        (
            "chaos_backend_failures_injected",
            s.chaos_backend_failures_injected,
        ),
    ]
}

/// Fifty different chaos schedules: whatever mix of panics and backend
/// failures a seed produces, the drain is clean — every request is
/// answered with a solve or a typed error, and shutdown completes.
#[test]
fn fifty_chaos_seeds_drain_cleanly() {
    silence_chaos_panics();
    const REQUESTS: usize = 8;
    for chaos_seed in 0..50u64 {
        let chaos = ChaosConfig {
            seed: chaos_seed,
            worker_panic_rate: 0.3,
            backend_failure_rate: 0.1,
            ..ChaosConfig::NONE
        };
        let server = chaos_server(chaos, 2, 2);
        let addr = server.local_addr();
        let bodies = (0..REQUESTS)
            .map(|i| body(chaos_seed * 100 + i as u64))
            .collect();
        let results = replay(addr, bodies, 3);
        assert_eq!(results.len(), REQUESTS, "seed {chaos_seed}: lost requests");
        let mut solved = 0u64;
        for (i, status, v) in &results {
            match status {
                200 => {
                    assert!(v["cost"].is_number(), "seed {chaos_seed} request {i}: {v}");
                    solved += 1;
                }
                500 | 503 => {
                    let reason = v["reason"].as_str().unwrap_or_else(|| {
                        panic!("seed {chaos_seed} request {i}: {status} without reason: {v}")
                    });
                    assert!(
                        ["internal_error", "backend_unavailable"].contains(&reason),
                        "seed {chaos_seed} request {i}: unexpected reason {reason}"
                    );
                }
                other => panic!("seed {chaos_seed} request {i}: unexpected status {other}: {v}"),
            }
        }
        // Drain: shutdown must complete (a hang here fails the harness
        // timeout), and the books must balance afterwards.
        server.shutdown();
        let s = server.metrics().snapshot();
        assert_eq!(s.requests_total, REQUESTS as u64, "seed {chaos_seed}");
        assert_eq!(s.solved_total, solved, "seed {chaos_seed}");
        assert_eq!(
            s.solved_total + s.rejected_internal + s.rejected_unavailable,
            REQUESTS as u64,
            "seed {chaos_seed}: outcomes must partition the requests"
        );
        assert_eq!(
            s.worker_panics_caught, s.chaos_panics_injected,
            "seed {chaos_seed}"
        );
    }
}

/// Same seeds + same chaos config at 1 worker and at 4 workers: the fault
/// schedule is keyed on request seeds, not scheduling, so the per-request
/// outcomes and every chaos counter agree exactly. (Breakers are disabled
/// here: their trips depend on attempt order, which is legitimately
/// scheduling-dependent.)
#[test]
fn chaos_schedule_is_identical_across_worker_counts() {
    silence_chaos_panics();
    const REQUESTS: usize = 24;
    let chaos = ChaosConfig {
        seed: 123,
        worker_panic_rate: 0.4,
        backend_failure_rate: 0.3,
        ..ChaosConfig::NONE
    };
    let mut runs = Vec::new();
    for workers in [1usize, 4] {
        let server = chaos_server(chaos, workers, 0);
        let addr = server.local_addr();
        let bodies = (0..REQUESTS).map(|i| body(i as u64)).collect();
        let results = replay(addr, bodies, 3);
        server.shutdown();
        let outcomes: BTreeMap<usize, u16> =
            results.iter().map(|(i, status, _)| (*i, *status)).collect();
        runs.push((workers, outcomes, server.metrics().snapshot()));
    }
    let (_, outcomes_a, snap_a) = &runs[0];
    let (_, outcomes_b, snap_b) = &runs[1];
    assert_eq!(
        outcomes_a, outcomes_b,
        "per-request outcomes must not depend on the worker count"
    );
    assert_eq!(
        deterministic_counters(snap_a),
        deterministic_counters(snap_b),
        "chaos counters must not depend on the worker count"
    );
    // The schedule actually fired: this config injects faults.
    assert!(snap_a.chaos_panics_injected > 0, "panic stream never fired");
    assert!(
        snap_a.chaos_backend_failures_injected > 0,
        "backend stream never fired"
    );
}

/// An inert chaos config (seed set, all rates zero) is indistinguishable
/// from a chaos-free server: identical solve answers (modulo wall-clock
/// timing fields) and identically zero fault counters.
#[test]
fn inert_chaos_is_indistinguishable_from_clean() {
    silence_chaos_panics();
    const REQUESTS: usize = 6;
    let inert = ChaosConfig {
        seed: 99,
        ..ChaosConfig::NONE
    };
    assert!(inert.is_inert());
    let mut answers = Vec::new();
    for chaos in [ChaosConfig::NONE, inert] {
        let server = chaos_server(chaos, 2, 5);
        let addr = server.local_addr();
        let bodies = (0..REQUESTS).map(|i| body(i as u64)).collect();
        let mut results = replay(addr, bodies, 1);
        server.shutdown();
        let s = server.metrics().snapshot();
        assert_eq!(s.solved_total, REQUESTS as u64);
        assert_eq!(s.chaos_panics_injected, 0);
        assert_eq!(s.chaos_backend_failures_injected, 0);
        // Strip the only nondeterministic fields (timings) before the
        // bit-identical comparison.
        for (_, _, v) in &mut results {
            if let serde_json::Value::Object(fields) = v {
                fields.retain(|(k, _)| k != "wall_us" && k != "queue_wait_us");
            }
        }
        answers.push(results);
    }
    assert_eq!(
        answers[0], answers[1],
        "inert chaos must answer bit-identically to a clean server"
    );
}

/// Panics lose no requests and no workers: six requests the chaos schedule
/// strikes each get a typed `500 internal_error`, every panic is caught at
/// the per-job unwind boundary, and a clean request sent after them is
/// still solved by the same pool. (At panic rate 1.0 no `/solve` could be
/// clean, so the test picks six seeds the schedule strikes and one it
/// spares.)
#[test]
fn panicking_requests_lose_nothing_and_the_pool_keeps_solving() {
    silence_chaos_panics();
    let chaos = ChaosConfig {
        seed: 7,
        worker_panic_rate: 0.5,
        ..ChaosConfig::NONE
    };
    let server = chaos_server(chaos, 2, 0);
    let addr = server.local_addr();
    let panicking: Vec<u64> = (0..).filter(|&s| chaos.worker_panics(s)).take(6).collect();
    for &seed in &panicking {
        let (status, reply) = roundtrip(addr, "POST", "/solve", &body(seed)).unwrap();
        assert_eq!(status, 500, "{}", String::from_utf8_lossy(&reply));
        let v: serde_json::Value = serde_json::from_slice(&reply).unwrap();
        assert_eq!(v["reason"], "internal_error");
    }
    let clean = (0..).find(|&s| !chaos.worker_panics(s)).unwrap();
    let (status, reply) = roundtrip(addr, "POST", "/solve", &body(clean)).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    server.shutdown();
    let s = server.metrics().snapshot();
    assert_eq!(s.chaos_panics_injected, 6);
    assert_eq!(s.worker_panics_caught, 6);
    assert_eq!(s.rejected_internal, 6);
    assert_eq!(s.solved_total, 1);
    assert_eq!(s.requests_total, 7);
}

/// The answer-integrity acceptance drain: with sample corruption injected
/// into every successful answer path, the run ends with **zero unflagged
/// corrupted answers** — every corruption is deterministically repaired to
/// a verified-feasible selection with a truthful cost (or rejected with a
/// typed 500), and the `/metrics` books reconcile exactly:
/// `chaos_corruptions_injected == integrity_violations ==
/// integrity_repairs + integrity_rejects`.
#[test]
fn corruption_chaos_drains_with_zero_unflagged_answers() {
    silence_chaos_panics();
    const REQUESTS: usize = 16;
    // Client-side re-verification oracle for `body()`'s instance:
    // costs [2, 4, 3, 1], one saving (plan 1, plan 2) of 5.
    let verify = |selection: &[u64], cost: f64| {
        assert_eq!(selection.len(), 2, "one plan per query");
        assert!(selection[0] <= 1 && (2..=3).contains(&selection[1]));
        let costs = [2.0, 4.0, 3.0, 1.0];
        let mut expect = costs[selection[0] as usize] + costs[selection[1] as usize];
        if selection[0] == 1 && selection[1] == 2 {
            expect -= 5.0;
        }
        assert_eq!(cost, expect, "served cost must be truthful");
    };
    for repair in [true, false] {
        let chaos = ChaosConfig {
            seed: 31,
            sample_corruption_rate: 0.6,
            ..ChaosConfig::NONE
        };
        let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
        engine.device.num_reads = 10;
        engine.device.num_gauges = 2;
        engine.chaos = chaos;
        engine.integrity_repair = repair;
        let mut config = ServerConfig::new(engine);
        config.queue.workers = 2;
        config.queue.batch_size = 4;
        let server = Server::start(config).expect("bind loopback");
        let addr = server.local_addr();
        let bodies = (0..REQUESTS).map(|i| body(i as u64)).collect();
        let results = replay(addr, bodies, 3);
        assert_eq!(results.len(), REQUESTS, "repair={repair}: lost requests");
        let mut rejected = 0u64;
        for (i, status, v) in &results {
            match status {
                200 => {
                    let selection: Vec<u64> = match &v["selection"] {
                        serde_json::Value::Array(items) => {
                            items.iter().map(|p| p.as_u64().expect("plan id")).collect()
                        }
                        other => panic!("request {i}: selection is not an array: {other:?}"),
                    };
                    verify(&selection, v["cost"].as_f64().expect("cost"));
                }
                500 => {
                    assert!(!repair, "with repair on every corruption is fixable");
                    assert_eq!(v["reason"], "integrity_violation", "request {i}: {v}");
                    rejected += 1;
                }
                other => panic!("repair={repair} request {i}: status {other}: {v}"),
            }
        }
        server.shutdown();
        let s = server.metrics().snapshot();
        assert!(
            s.chaos_corruptions_injected > 0,
            "repair={repair}: the corruption stream never fired"
        );
        assert_eq!(
            s.integrity_violations, s.chaos_corruptions_injected,
            "repair={repair}: every injected corruption must be flagged"
        );
        assert_eq!(
            s.integrity_repairs + s.integrity_rejects,
            s.integrity_violations,
            "repair={repair}: flagged answers are repaired or rejected, never served raw"
        );
        if repair {
            assert_eq!(s.integrity_rejects, 0);
            assert_eq!(s.solved_total, REQUESTS as u64);
        } else {
            assert_eq!(s.integrity_repairs, 0);
            assert_eq!(s.integrity_rejects, rejected);
            assert_eq!(s.solved_total + rejected, REQUESTS as u64);
        }
    }
}

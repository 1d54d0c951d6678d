//! The serving workloads: the client drives the system's own binaries over
//! loopback HTTP; a traced run then replays the same requests in-process.

use crate::client::{self, Exchange};
use crate::inputs::{Request, ServeGen, EPSILON};
use crate::procs::System;
use crate::replay::{self, layer_metrics, solve_span_sum, Answer, EngineReplay, Tracer};
use crate::stats::{median, quantile, ratio};
use crate::{num, Ctx, Report};
use mqo_chimera::graph::ChimeraGraph;
use mqo_service::api::SolveResponse;
use mqo_service::engine::{EngineConfig, SolveEngine};
use mqo_service::http::{parse_request, render_response, HttpLimits, KeepAliveClient};
use mqo_service::metrics::Metrics;
use mqo_service::SolveRequest;
use serde_json::json;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Client lanes (threads, each with one connection): one per CPU of the
/// reference host.
const LANES: usize = 2;

/// The share of `--seconds` given to the closed-loop phase; the open-loop
/// phase takes the rest.
const CLOSED_SHARE: f64 = 0.4;

/// Requests timed through the router and straight to a cell in a traced
/// fleet run (`router.hop_us`).
const HOP_REQUESTS: usize = 200;

/// Counters summed over the cells that answer solves.
const CELL_COUNTERS: [&str; 11] = [
    "requests_total",
    "batches_dispatched",
    "rejected_queue_full",
    "cache_hits",
    "cache_misses",
    "reads_verified_clean",
    "reads_repaired",
    "reads_broken_chains",
    "chain_majority_repairs",
    "chain_tie_breaks",
    "event_loop_wakeups",
];

/// Counters of the router process.
const ROUTER_COUNTERS: [&str; 5] = [
    "event_loop_wakeups",
    "failovers",
    "cell_respawns",
    "router_cache_hits",
    "router_cache_misses",
];

/// Router counters that count recoveries: a failover replay or a respawned
/// cell. Either makes the run's figures include a recovery, so each must
/// stay 0.
const RECOVERY_COUNTERS: [&str; 2] = ["failovers", "cell_respawns"];

/// Seed-determined read counts of the warm-up set.
const EXACT_COUNTS: [&str; 5] = [
    "reads_verified_clean",
    "reads_repaired",
    "reads_broken_chains",
    "chain_majority_repairs",
    "chain_tie_breaks",
];

/// A `/metrics` snapshot of the whole system: cell counters summed, router
/// counters apart.
struct Snapshot {
    cells: Vec<f64>,
    router: Vec<f64>,
}

impl Snapshot {
    /// The counters of a freshly started system.
    fn zero() -> Snapshot {
        Snapshot {
            cells: vec![0.0; CELL_COUNTERS.len()],
            router: vec![0.0; ROUTER_COUNTERS.len()],
        }
    }

    fn take(sys: &System) -> io::Result<Snapshot> {
        let mut cells = vec![0.0; CELL_COUNTERS.len()];
        let cell_addrs: Vec<SocketAddr> = if sys.cells.is_empty() {
            vec![sys.front]
        } else {
            sys.cells.clone()
        };
        for addr in cell_addrs {
            let m = client::scrape(addr)?;
            for (slot, name) in cells.iter_mut().zip(CELL_COUNTERS) {
                *slot += m["service"][name].as_f64().unwrap_or(0.0);
            }
        }
        let mut router = vec![0.0; ROUTER_COUNTERS.len()];
        if !sys.cells.is_empty() {
            let m = client::scrape(sys.front)?;
            for (slot, name) in router.iter_mut().zip(ROUTER_COUNTERS) {
                *slot = m["service"][name].as_f64().unwrap_or(0.0);
            }
        }
        Ok(Snapshot { cells, router })
    }

    fn cell(&self, later: &Snapshot, name: &str) -> f64 {
        let i = CELL_COUNTERS
            .iter()
            .position(|&n| n == name)
            .expect("known counter");
        later.cells[i] - self.cells[i]
    }

    fn router(&self, later: &Snapshot, name: &str) -> f64 {
        let i = ROUTER_COUNTERS
            .iter()
            .position(|&n| n == name)
            .expect("known counter");
        later.router[i] - self.router[i]
    }

    /// Records a problem for every recovery the router counted since the
    /// system started.
    fn check_no_recovery(&self, when: &str, report: &mut Report) {
        for name in RECOVERY_COUNTERS {
            let n = Snapshot::zero().router(self, name);
            if n != 0.0 {
                report.problem(format!("{when}: router counted {n} {name}"));
            }
        }
    }
}

/// An exchange checked against the request that was sent.
struct Checked<'a> {
    request: &'a Request,
    exchange: Exchange,
    /// The decoded answer when the status was 200 and the answer passed
    /// `integrity::verify_selection` against the problem sent.
    response: Option<SolveResponse>,
}

fn check<'a>(requests: &'a [&'a Request], exchanges: Vec<Exchange>) -> Vec<Checked<'a>> {
    exchanges
        .into_iter()
        .map(|exchange| {
            let request = requests[exchange.index];
            let response = (exchange.status == 200)
                .then(|| serde_json::from_slice::<SolveResponse>(&exchange.body).ok())
                .flatten()
                .filter(|r| replay::verify(&request.problem, &r.selection, r.cost));
            Checked {
                request,
                exchange,
                response,
            }
        })
        .collect()
}

fn ok_count(checked: &[Checked<'_>]) -> usize {
    checked.iter().filter(|c| c.response.is_some()).count()
}

fn bytes<'a>(requests: &[&'a Request]) -> Vec<&'a [u8]> {
    requests.iter().map(|r| r.bytes.as_slice()).collect()
}

/// Sends the warm-up set closed-loop at the measured pipeline depth and
/// returns the checked exchanges.
fn warm_up<'a>(
    sys: &System,
    probe: &'a [&'a Request],
    depth: usize,
) -> io::Result<Vec<Checked<'a>>> {
    let (ex, _) = client::closed_loop(sys.front, &bytes(probe), LANES, depth, 3600.0)?;
    Ok(check(probe, ex))
}

/// The seed-determined summary of a warm-up: answers plus read counts.
#[derive(PartialEq)]
struct ProbeSummary {
    answers: Vec<Option<Answer>>,
    counts: Vec<f64>,
}

impl ProbeSummary {
    fn qa_cost(&self) -> f64 {
        self.answers.iter().flatten().map(Answer::cost).sum()
    }

    /// Best costs relative to the reference costs of the same problems
    /// (`replay::reference_cost`).
    fn qa_cost_ratio(&self, probe: &[&Request]) -> f64 {
        let reference: f64 = probe
            .iter()
            .zip(&self.answers)
            .filter(|(_, a)| a.is_some())
            .map(|(r, _)| replay::reference_cost(&r.problem))
            .sum();
        ratio(self.qa_cost(), reference)
    }

    fn qa_device_ms(&self) -> f64 {
        self.answers
            .iter()
            .flatten()
            .map(Answer::device_time_us)
            .sum::<f64>()
            / 1e3
    }
}

pub fn run(ctx: &Ctx, cells: usize, report: &mut Report) -> io::Result<()> {
    let spec = &ctx.spec;
    let seconds = ctx.seconds;
    let closed_s = seconds * CLOSED_SHARE;
    let open_s = seconds - closed_s;
    let rate = spec.f64("open_rate_rps");
    let limit_us = spec.f64("latency_limit_ms") * 1e3;
    let depth = spec.usize("pipeline_depth");
    let hop_n = if ctx.trace && cells > 0 {
        HOP_REQUESTS
    } else {
        0
    };
    let mut gen = ServeGen::new(spec, ctx.seed);
    let closed_n = (spec.f64("max_rps") * closed_s).ceil() as usize;
    let inputs = gen.build(closed_n, rate, open_s, hop_n);
    let probe: Vec<&Request> = inputs.probe.iter().collect();
    let closed: Vec<&Request> = inputs.closed.iter().collect();
    let open: Vec<&Request> = inputs.open.iter().map(|(_, r)| r).collect();
    let offsets: Vec<_> = inputs.open.iter().map(|(t, _)| *t).collect();

    // Set-up: fresh processes every time, so caches start empty.
    let setups = spec.usize("setups").max(1);
    let mut setup_s = Vec::new();
    let mut summaries: Vec<ProbeSummary> = Vec::new();
    let mut attempted = 0usize;
    let mut verified = 0usize;
    let mut sys = None;
    let mut probe_checked = Vec::new();
    for k in 0..setups {
        let t0 = Instant::now();
        let s = System::start(&ctx.bin_dir, cells)?;
        let checked = warm_up(&s, &probe, depth)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let after = Snapshot::take(&s)?;
        after.check_no_recovery(&format!("set-up {k}"), report);
        attempted += checked.len();
        verified += ok_count(&checked);
        summaries.push(ProbeSummary {
            answers: checked
                .iter()
                .map(|c| c.response.as_ref().map(Answer::from_response))
                .collect(),
            counts: EXACT_COUNTS
                .iter()
                .map(|n| Snapshot::zero().cell(&after, n))
                .collect(),
        });
        if k + 1 < setups {
            if let Err(e) = s.stop() {
                report.problem(format!("set-up {k}: {e}"));
            }
        } else {
            sys = Some(s);
            probe_checked = checked;
        }
    }
    if summaries.iter().any(|s| *s != summaries[0]) {
        report.problem("warm-up answers or read counts differ between fresh set-ups");
    }
    let summary = &summaries[0];
    let sys = sys.expect("at least one set-up");

    // Measured phases, each bracketed by /metrics scrapes.
    let before = Snapshot::take(&sys)?;
    let cpu_before = sys.cpu_seconds();
    let (closed_ex, closed_start) =
        client::closed_loop(sys.front, &bytes(&closed), LANES, depth, closed_s)?;
    let closed_cpu_s = sys.cpu_seconds() - cpu_before;
    let mid = Snapshot::take(&sys)?;
    let open_ex = client::open_loop(sys.front, &bytes(&open), &offsets, LANES)?;
    let after = Snapshot::take(&sys)?;
    let hop = if hop_n > 0 {
        Some(router_hop(&sys, &inputs.hop)?)
    } else {
        None
    };
    Snapshot::take(&sys)?.check_no_recovery("measured phases", report);
    let rss_mb = sys.peak_rss_mb();
    if let Err(e) = sys.stop() {
        report.problem(format!("shutdown: {e}"));
    }

    let closed_checked = check(&closed, closed_ex);
    let open_checked = check(&open, open_ex);
    attempted += closed_checked.len() + open_checked.len();
    verified += ok_count(&closed_checked) + ok_count(&open_checked);
    if let Some(h) = &hop {
        attempted += h.sent;
        verified += h.verified;
    }
    report.attempted = attempted;
    report.failed = attempted - verified;

    // End-to-end metrics. Each phase is cut into equal windows and the
    // wall-clock rates read the median window, so a stall that hits one
    // window moves one window, while a slowdown over most of the phase
    // moves the result. CPU time per request is charged only while the
    // system runs, so steal time leaves it alone.
    let windows = spec.usize("windows").max(1);
    let window_len = closed_s / windows as f64;
    let window_of =
        |c: &Checked<'_>| ((c.exchange.done - closed_start).as_secs_f64() / window_len) as usize;
    let mut completions = vec![0usize; windows];
    for c in closed_checked.iter().filter(|c| c.response.is_some()) {
        if let Some(n) = completions.get_mut(window_of(c)) {
            *n += 1;
        }
    }
    let rates: Vec<f64> = completions.iter().map(|&n| n as f64 / window_len).collect();
    let closed_walls: Vec<f64> = closed_checked
        .iter()
        .filter_map(|c| c.response.as_ref().map(|r| r.wall_us as f64))
        .collect();
    let mut open_windows: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for c in &open_checked {
        let k = offsets[c.exchange.index].as_secs_f64() / (open_s / windows as f64);
        open_windows[(k as usize).min(windows - 1)].push(c.exchange.latency_us());
    }
    let per_window = |q: f64| -> Vec<f64> {
        open_windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q))
            .collect()
    };
    let within = open_checked
        .iter()
        .filter(|c| c.response.is_some() && c.exchange.latency_us() <= limit_us)
        .count();
    report.set("throughput_rps", median(&rates));
    report.set(
        "cpu_ms_per_req",
        ratio(closed_cpu_s * 1e3, ok_count(&closed_checked) as f64),
    );
    report.set("latency_p50_ms", median(&per_window(0.5)) / 1e3);
    report.set("latency_p99_ms", median(&per_window(0.99)) / 1e3);
    report.set("slo_frac", ratio(within as f64, open_checked.len() as f64));
    report.set("ok_frac", ratio(verified as f64, attempted as f64));
    report.set("qa_solve_s", median(&closed_walls) / 1e6);
    report.set("qa_cost_ratio", summary.qa_cost_ratio(&probe));
    report.set("setup_s", median(&setup_s));
    report.set("rss_mb", rss_mb);
    report.exact("qa_cost", summary.qa_cost());
    report.exact("qa_device_ms", summary.qa_device_ms());
    for (name, v) in EXACT_COUNTS.iter().zip(&summary.counts) {
        report.exact(name, *v);
    }
    report.detail(
        "phases",
        json!({
            "warmup_requests": probe.len(),
            "setup_s": setup_s,
            "closed_requests": closed_checked.len(),
            "closed_rps_per_window": rates,
            "closed_rps_best_window": rates.iter().copied().fold(0.0, f64::max),
            "open_p50_p90_p99_us_per_window": open_windows
                .iter()
                .map(|w| [0.5, 0.9, 0.99].map(|q| quantile(w, q)).to_vec())
                .collect::<Vec<_>>(),
            "open_requests": open_checked.len(),
            "open_rate_rps": rate,
            "latency_limit_ms": limit_us / 1e3,
        }),
    );

    // Per-layer metrics from the untraced phases.
    let client_reqs = (closed_checked.len() + open_checked.len()) as f64;
    let residual: Vec<f64> = closed_checked
        .iter()
        .filter_map(|c| {
            let r = c.response.as_ref()?;
            Some(c.exchange.latency_us() - r.queue_wait_us as f64 - r.wall_us as f64)
        })
        .collect();
    report.set("frontend.residual_us_p50", median(&residual));
    report.set("frontend.residual_us_p99", quantile(&residual, 0.99));
    let wakeups =
        before.cell(&after, "event_loop_wakeups") + before.router(&after, "event_loop_wakeups");
    report.set("event_loop.wakeups_per_req", ratio(wakeups, client_reqs));
    report.set("router.failovers", before.router(&after, "failovers"));
    let router_hits = before.router(&after, "router_cache_hits");
    let router_lookups = router_hits + before.router(&after, "router_cache_misses");
    report.set("router.cache_hit_frac", ratio(router_hits, router_lookups));
    if let Some(h) = &hop {
        report.set("router.hop_us", h.hop_us);
    }
    let waits: Vec<f64> = open_checked
        .iter()
        .filter_map(|c| c.response.as_ref().map(|r| r.queue_wait_us as f64))
        .collect();
    report.set("queue.wait_us_p50", median(&waits));
    report.set("queue.wait_us_p99", quantile(&waits, 0.99));
    let cell_reqs = before.cell(&after, "requests_total");
    report.set(
        "queue.batch_size",
        ratio(cell_reqs, before.cell(&after, "batches_dispatched")),
    );
    report.set(
        "queue.reject_frac",
        ratio(before.cell(&after, "rejected_queue_full"), cell_reqs),
    );
    let wall_of = |hit: bool| -> Vec<f64> {
        probe_checked
            .iter()
            .chain(&closed_checked)
            .chain(&open_checked)
            .filter_map(|c| c.response.as_ref())
            .filter(|r| r.cache_hit == hit)
            .map(|r| r.wall_us as f64)
            .collect()
    };
    report.set("engine.wall_us_hit_p50", median(&wall_of(true)));
    report.set("engine.wall_us_miss_p50", median(&wall_of(false)));
    let hits = before.cell(&after, "cache_hits");
    report.set(
        "cache.hit_frac",
        ratio(hits, hits + before.cell(&after, "cache_misses")),
    );
    let late: Vec<f64> = open_checked.iter().map(|c| c.exchange.late_us()).collect();
    report.set("loadgen.late_us_p99", quantile(&late, 0.99));
    report.set("qa_device_ms", summary.qa_device_ms());
    report.detail(
        "closed_phase_cells",
        serde_json::Value::Object(
            CELL_COUNTERS
                .iter()
                .map(|&n| (n.to_string(), num(before.cell(&mid, n))))
                .collect(),
        ),
    );

    if ctx.trace {
        // Replay the warm-up set of the measured set-up, then the head of
        // the closed-loop pool, in the order the server received them.
        let take = spec.usize("replay_requests");
        let set: Vec<&Checked<'_>> = probe_checked
            .iter()
            .chain(closed_checked.iter().take(take))
            .collect();
        replay_serving(&set, report)?;
    }
    Ok(())
}

/// The router's own cost per request: the same requests sent through the
/// router and straight to the cell the router forwards them to.
struct Hop {
    hop_us: f64,
    sent: usize,
    verified: usize,
}

fn router_hop(sys: &System, requests: &[Request]) -> io::Result<Hop> {
    let mut via_router = KeepAliveClient::new(sys.front);
    let mut direct: Vec<KeepAliveClient> =
        sys.cells.iter().map(|&a| KeepAliveClient::new(a)).collect();
    let (mut through, mut straight) = (Vec::new(), Vec::new());
    let (mut sent, mut verified) = (0, 0);
    for (i, req) in requests.iter().enumerate() {
        let key = mqo_service::shard::structure_key(&req.problem, EPSILON);
        let cell = (key % sys.cells.len() as u64) as usize;
        let body = serde_json::to_string(&req.solve)
            .map_err(io::Error::other)?
            .into_bytes();
        // Warm the cell's embedding cache with a sibling request (same
        // problem, another seed), so both timed sends are cache hits.
        let mut sibling = req.solve.clone();
        sibling.seed = sibling.seed.wrapping_add(1);
        let sibling = serde_json::to_string(&sibling)
            .map_err(io::Error::other)?
            .into_bytes();
        direct[cell].request("POST", "/solve", &sibling)?;
        let time = |client: &mut KeepAliveClient| -> io::Result<(f64, Vec<u8>)> {
            let t0 = Instant::now();
            let (status, reply) = client.request("POST", "/solve", &body)?;
            let us = t0.elapsed().as_secs_f64() * 1e6;
            Ok((us, if status == 200 { reply } else { Vec::new() }))
        };
        let (a, b) = if i % 2 == 0 {
            let a = time(&mut via_router)?;
            (a, time(&mut direct[cell])?)
        } else {
            let b = time(&mut direct[cell])?;
            (time(&mut via_router)?, b)
        };
        sent += 3;
        let ok = |reply: &[u8]| {
            serde_json::from_slice::<SolveResponse>(reply)
                .ok()
                .filter(|r| replay::verify(&req.problem, &r.selection, r.cost))
                .map(|r| Answer::from_response(&r))
        };
        let (ra, rb) = (ok(&a.1), ok(&b.1));
        // The sibling is counted as verified when both timed answers are:
        // it only warms the cache.
        if ra.is_some() && ra == rb {
            verified += 3;
        }
        through.push(a.0);
        straight.push(b.0);
    }
    Ok(Hop {
        hop_us: median(&through) - median(&straight),
        sent,
        verified,
    })
}

/// In-process replay of served requests: the real `SolveEngine::solve`
/// untraced and the traced replay, interleaved; both must reproduce the
/// server's answers bit for bit.
fn replay_serving(set: &[&Checked<'_>], report: &mut Report) -> io::Result<()> {
    let config = EngineConfig::new(ChimeraGraph::dwave_2x());
    let time_per_read = config.device.time_per_read_us();
    let engine = SolveEngine::new(config.clone(), Arc::new(Metrics::default()));
    let mut replica = EngineReplay::new(config);
    let mut tr = Tracer::new();
    let limits = HttpLimits::default();
    let (mut untraced_us, mut roots) = (Vec::new(), Vec::new());
    let (mut parse_us, mut encode_us) = (Vec::new(), Vec::new());
    let mut misses = Vec::new();
    let mut phases = Vec::new();
    let (mut reads, mut repaired, mut broken) = (0usize, 0usize, 0usize);
    let mut mismatches = 0usize;
    for c in set {
        let Some(served) = &c.response else {
            continue;
        };
        let served_answer = Answer::from_response(served);

        let t0 = Instant::now();
        let parsed = parse_request(&c.request.bytes, &limits)
            .ok()
            .flatten()
            .and_then(|p| serde_json::from_slice::<SolveRequest>(&p.request.body).ok());
        parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let Some(request) = parsed else {
            report.problem("a sent request does not parse back");
            continue;
        };
        let t0 = Instant::now();
        let body = serde_json::to_string(served).map_err(io::Error::other)?;
        std::hint::black_box(render_response(200, &body, &[], false));
        encode_us.push(t0.elapsed().as_secs_f64() * 1e6);

        let t0 = Instant::now();
        let untraced = engine.solve(&request);
        untraced_us.push(t0.elapsed().as_secs_f64() * 1e6);

        tr.next_solve();
        let first = tr.spans.len();
        let traced = replica.solve(&request, &mut tr);
        roots.push(tr.spans[first].us());

        match (untraced, traced) {
            (Ok(u), Ok(t))
                if Answer::from_response(&u) == served_answer
                    && t.replayed.answer == served_answer =>
            {
                if t.miss {
                    misses.push(solve_span_sum(&tr, first, "embed"));
                }
                reads += t.replayed.answer.reads;
                repaired += t.replayed.repaired;
                broken += t.replayed.broken;
                phases.push(t.replayed.phases);
            }
            _ => mismatches += 1,
        }
    }
    if mismatches > 0 {
        report.problem(format!(
            "{mismatches} replayed answers differ from the served ones"
        ));
    }
    report.set("http.parse_us", median(&parse_us));
    report.set("http.encode_us", median(&encode_us));
    report.set("embed.us", median(&misses));
    layer_metrics(&tr, &phases, reads, repaired, broken, time_per_read, report);
    report.set(
        "trace.overhead_frac",
        median(&roots) / median(&untraced_us) - 1.0,
    );
    report.detail("replayed_solves", json!(phases.len()));
    report.write_spans(&tr)
}

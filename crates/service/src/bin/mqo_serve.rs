//! `mqo_serve` — the batching MQO solve server.
//!
//! ```text
//! mqo_serve [--addr 127.0.0.1:7700] [--small] [--reads N] [--gauges N]
//!           [--workers N] [--cache-capacity N] [--breaker-threshold N]
//!           [--chaos-seed N] [--chaos-panic-rate F]
//!           [--chaos-backend-failure-rate F] [--chaos-corruption-rate F]
//! ```
//!
//! Binds, prints `listening on <addr>` (scripts parse that line), then
//! serves until `POST /shutdown` arrives; shutdown drains the queue before
//! the process exits. The `--chaos-*` flags inject deterministic faults
//! (worker panics, backend failures, answer corruption) for resilience
//! testing; all rates default to zero, which is bit-identical to a
//! chaos-free build. Every other setting keeps the library default of
//! [`ServerConfig::new`].

use mqo_chimera::graph::ChimeraGraph;
use mqo_service::engine::EngineConfig;
use mqo_service::server::{Server, ServerConfig};
use std::time::Duration;

const HELP: &str = "mqo_serve: batching MQO solve server
--addr A            bind address (default 127.0.0.1:7700)
--small             4-cell Chimera graph instead of the 12x12 D-Wave 2X
--reads N           default annealing reads per request (100)
--gauges N          default gauge batches per request (10)
--workers N         solve workers (2)
--cache-capacity N  embedding cache entries, 0 disables (128)
--breaker-threshold N  consecutive failures that open a breaker, 0 = off (5)
--chaos-seed N      seed of the chaos streams (0)
--chaos-panic-rate F   per-request worker panic probability (0)
--chaos-backend-failure-rate F  per-attempt backend failure probability (0)
--chaos-corruption-rate F  per-request answer corruption probability (0)";

fn parse_config() -> Result<ServerConfig, String> {
    let mut small = false;
    let mut config = ServerConfig::new(EngineConfig::new(ChimeraGraph::dwave_2x()));
    config.addr = "127.0.0.1:7700".to_string();
    let engine = &mut config.engine;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--small" => small = true,
            "--reads" => engine.device.num_reads = parse(&value("--reads")?, "--reads")?,
            "--gauges" => engine.device.num_gauges = parse(&value("--gauges")?, "--gauges")?,
            "--workers" => config.queue.workers = parse(&value("--workers")?, "--workers")?,
            "--cache-capacity" => {
                engine.cache_capacity = parse(&value("--cache-capacity")?, "--cache-capacity")?
            }
            "--breaker-threshold" => {
                engine.breaker.failure_threshold =
                    parse(&value("--breaker-threshold")?, "--breaker-threshold")?
            }
            "--chaos-seed" => engine.chaos.seed = parse(&value("--chaos-seed")?, "--chaos-seed")?,
            "--chaos-panic-rate" => {
                engine.chaos.worker_panic_rate =
                    parse(&value("--chaos-panic-rate")?, "--chaos-panic-rate")?
            }
            "--chaos-backend-failure-rate" => {
                engine.chaos.backend_failure_rate = parse(
                    &value("--chaos-backend-failure-rate")?,
                    "--chaos-backend-failure-rate",
                )?
            }
            "--chaos-corruption-rate" => {
                engine.chaos.sample_corruption_rate = parse(
                    &value("--chaos-corruption-rate")?,
                    "--chaos-corruption-rate",
                )?
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if small {
        engine.graph = ChimeraGraph::new(2, 2);
    }
    engine.device.num_reads = engine.device.num_reads.max(1);
    engine.device.num_gauges = engine.device.num_gauges.clamp(1, engine.device.num_reads);
    engine.chaos.validate()?;
    Ok(config)
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn main() {
    let config = match parse_config() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mqo_serve: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mqo_serve: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    let server = std::sync::Arc::new(server);
    spawn_supervision_watchdog(&server);
    server.wait();
    println!("drained and stopped");
}

/// When spawned by a fleet supervisor (`MQO_SUPERVISED` set, stdin is a
/// pipe the supervisor holds open), watch stdin for EOF: the pipe closes
/// the instant the supervising process dies — even on SIGKILL, where its
/// own cleanup never runs — so the cell drains itself instead of living
/// on as an orphan. Standalone runs (no env var) are unaffected.
fn spawn_supervision_watchdog(server: &std::sync::Arc<Server>) {
    if std::env::var_os("MQO_SUPERVISED").is_none() {
        return;
    }
    let server = std::sync::Arc::clone(server);
    std::thread::spawn(move || {
        use std::io::Read;
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        eprintln!("mqo_serve: supervisor vanished (stdin closed); draining");
        server.shutdown();
        // A drain with no supervisor left must still terminate: give it a
        // bounded grace, then exit hard. A clean drain beats this to it.
        std::thread::sleep(Duration::from_secs(2));
        std::process::exit(3);
    });
}

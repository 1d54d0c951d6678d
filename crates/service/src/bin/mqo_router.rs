//! `mqo_router` — structure-sharded front for a fleet of `mqo_serve` cells.
//!
//! ```text
//! mqo_router --cells 127.0.0.1:7700,127.0.0.1:7701 [--addr 127.0.0.1:7600]
//!            [--supervise 'CMD --addr {addr}']
//!            [--breaker-threshold N] [--breaker-open-ms N]
//!            [--backoff-initial-ms N] [--backoff-max-ms N]
//!            [--chaos-kill-seed N] [--chaos-kills N]
//!            [--chaos-kill-min-ms N] [--chaos-kill-max-ms N]
//! ```
//!
//! Shards `POST /solve` requests across the cells by the instance's QUBO
//! structure hash so each cell's embedding cache serves a consistent slice
//! of the workload; unreachable cells are skipped via per-cell circuit
//! breakers, failed forwards replay transparently on healthy cells inside
//! the client's deadline budget, and recovered cells get their caches
//! warmed from recent exemplar requests.
//!
//! With `--supervise`, the router *owns* its cells: the command template
//! (whitespace-split; `{addr}` substitutes the cell address) is spawned
//! once per `--cells` entry, dead cells respawn with exponential backoff,
//! and crash-looping cells are quarantined with their shard range remapped
//! onto the survivors. The `--chaos-kill-*` flags arm a seeded kill
//! schedule that SIGKILLs supervised cells at deterministic times — the
//! fleet-chaos proof harness. Every other setting keeps the library
//! default of [`MqoRouterConfig::new`] and [`SupervisorConfig::new`].
//!
//! Prints `listening on <addr>` (scripts parse that line), serves until
//! `POST /shutdown`, then prints `drained and stopped` after the router
//! *and* any supervised cells have drained.

use mqo_service::shard::{MqoRouter, MqoRouterConfig};
use mqo_service::supervisor::SupervisorConfig;

const HELP: &str = "mqo_router: structure-sharded front for mqo_serve cells
--cells A,B,...     upstream cell addresses (required)
--addr A            bind address (default 127.0.0.1:7600)
--supervise CMD     spawn each cell from this template ({addr} substituted)
--breaker-threshold N  consecutive failures that open a cell breaker (5)
--breaker-open-ms N    cell breaker cooling period (1000)
--backoff-initial-ms N respawn backoff seed (100)
--backoff-max-ms N     respawn backoff cap (5000)
--chaos-kill-seed N / --chaos-kills N  seeded SIGKILL schedule (off)
--chaos-kill-min-ms N / --chaos-kill-max-ms N  kill delay bounds (100/2000)";

fn parse_config() -> Result<MqoRouterConfig, String> {
    let mut config = MqoRouterConfig::new(Vec::new());
    config.addr = "127.0.0.1:7600".to_string();
    // Supervision settings are collected first and attached once the flags
    // are read (flag order must not matter).
    let mut supervise_template: Option<Vec<String>> = None;
    let mut sup = SupervisorConfig::new(Vec::new(), 0);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--cells" => {
                config.cells = value("--cells")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--supervise" => {
                supervise_template = Some(split_command(&value("--supervise")?, "--supervise")?)
            }
            "--breaker-threshold" => {
                config.breaker.failure_threshold =
                    parse(&value("--breaker-threshold")?, "--breaker-threshold")?
            }
            "--breaker-open-ms" => {
                config.breaker.open_ms = parse(&value("--breaker-open-ms")?, "--breaker-open-ms")?
            }
            "--backoff-initial-ms" => {
                sup.respawn.backoff_initial_ms =
                    parse(&value("--backoff-initial-ms")?, "--backoff-initial-ms")?
            }
            "--backoff-max-ms" => {
                sup.respawn.backoff_max_ms = parse(&value("--backoff-max-ms")?, "--backoff-max-ms")?
            }
            "--chaos-kill-seed" => {
                sup.kill_schedule.seed = parse(&value("--chaos-kill-seed")?, "--chaos-kill-seed")?
            }
            "--chaos-kills" => {
                sup.kill_schedule.kills = parse(&value("--chaos-kills")?, "--chaos-kills")?
            }
            "--chaos-kill-min-ms" => {
                sup.kill_schedule.min_delay_ms =
                    parse(&value("--chaos-kill-min-ms")?, "--chaos-kill-min-ms")?
            }
            "--chaos-kill-max-ms" => {
                sup.kill_schedule.max_delay_ms =
                    parse(&value("--chaos-kill-max-ms")?, "--chaos-kill-max-ms")?
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if config.cells.is_empty() {
        return Err("--cells is required (comma-separated mqo_serve addresses)".to_string());
    }
    if let Some(template) = supervise_template {
        sup.commands = vec![template; config.cells.len()];
        config.supervisor = Some(sup);
    }
    Ok(config)
}

/// Splits a command template on whitespace; `{addr}` placeholders survive
/// as their own tokens and are substituted per cell at spawn time.
fn split_command(spec: &str, flag: &str) -> Result<Vec<String>, String> {
    let tokens: Vec<String> = spec.split_whitespace().map(|s| s.to_string()).collect();
    if tokens.is_empty() {
        return Err(format!("{flag}: empty command"));
    }
    Ok(tokens)
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
            eprintln!("mqo_router: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let supervised = config.supervisor.is_some();
    let router = match MqoRouter::start(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mqo_router: cannot start: {e}");
            std::process::exit(1);
        }
    };
    if supervised {
        for cell in router
            .supervisor()
            .map(|s| s.snapshots())
            .unwrap_or_default()
        {
            println!("cell {}: supervised (alive: {})", cell.addr, cell.alive);
        }
    }
    println!("listening on {}", router.local_addr());
    router.wait();
    for line in router.supervisor_report() {
        println!("{line}");
    }
    println!("drained and stopped");
}

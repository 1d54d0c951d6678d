//! `mqo_serve` — the batching MQO solve server.
//!
//! ```text
//! mqo_serve [--addr 127.0.0.1:7700] [--small] [--reads N] [--gauges N]
//!           [--threads N] [--queue-depth N] [--workers N] [--batch N]
//!           [--cache-capacity N] [--fault-rate F] [--derating F]
//!           [--deadline-ms N] [--milp-max-queries N] [--budget-ms N]
//!           [--max-connections N] [--request-deadline-ms N]
//!           [--io-timeout-ms N] [--accept-shards N] [--max-pipeline N]
//!           [--breaker-threshold N] [--breaker-open-ms N]
//!           [--chaos-seed N] [--chaos-panic-rate F]
//!           [--chaos-backend-failure-rate F] [--chaos-corruption-rate F]
//!           [--no-integrity-repair] [--no-verify-gate]
//! ```
//!
//! Binds, prints `listening on <addr>` (scripts parse that line), then
//! serves until `POST /shutdown` arrives; shutdown drains the queue before
//! the process exits. The `--chaos-*` flags inject deterministic faults
//! (worker panics, backend failures, answer corruption) for resilience
//! testing; all rates default to zero, which is bit-identical to a
//! chaos-free build.

use mqo_chimera::graph::ChimeraGraph;
use mqo_service::chaos::ChaosConfig;
use mqo_service::engine::EngineConfig;
use mqo_service::queue::QueueConfig;
use mqo_service::server::{Server, ServerConfig};
use std::time::Duration;

struct Options {
    addr: String,
    small: bool,
    reads: usize,
    gauges: usize,
    threads: usize,
    queue_depth: usize,
    workers: usize,
    batch: usize,
    cache_capacity: usize,
    fault_rate: f64,
    derating: f64,
    deadline_ms: u64,
    milp_max_queries: usize,
    budget_ms: u64,
    max_connections: usize,
    request_deadline_ms: u64,
    io_timeout_ms: u64,
    accept_shards: usize,
    max_pipeline: usize,
    breaker_threshold: u32,
    breaker_open_ms: u64,
    chaos: ChaosConfig,
    integrity_repair: bool,
    verify_gate: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:7700".to_string(),
            small: false,
            reads: 100,
            gauges: 10,
            threads: 0,
            queue_depth: 64,
            workers: 2,
            batch: 8,
            cache_capacity: 128,
            fault_rate: 0.0,
            derating: 0.0,
            deadline_ms: 0,
            milp_max_queries: 14,
            budget_ms: 250,
            max_connections: 256,
            request_deadline_ms: 10_000,
            io_timeout_ms: 10_000,
            accept_shards: 2,
            max_pipeline: 32,
            breaker_threshold: 5,
            breaker_open_ms: 1_000,
            chaos: ChaosConfig::NONE,
            integrity_repair: true,
            verify_gate: true,
        }
    }
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--small" => opts.small = true,
            "--reads" => opts.reads = parse(&value("--reads")?, "--reads")?,
            "--gauges" => opts.gauges = parse(&value("--gauges")?, "--gauges")?,
            "--threads" => opts.threads = parse(&value("--threads")?, "--threads")?,
            "--queue-depth" => opts.queue_depth = parse(&value("--queue-depth")?, "--queue-depth")?,
            "--workers" => opts.workers = parse(&value("--workers")?, "--workers")?,
            "--batch" => opts.batch = parse(&value("--batch")?, "--batch")?,
            "--cache-capacity" => {
                opts.cache_capacity = parse(&value("--cache-capacity")?, "--cache-capacity")?
            }
            "--fault-rate" => opts.fault_rate = parse(&value("--fault-rate")?, "--fault-rate")?,
            "--derating" => opts.derating = parse(&value("--derating")?, "--derating")?,
            "--deadline-ms" => opts.deadline_ms = parse(&value("--deadline-ms")?, "--deadline-ms")?,
            "--milp-max-queries" => {
                opts.milp_max_queries = parse(&value("--milp-max-queries")?, "--milp-max-queries")?
            }
            "--budget-ms" => opts.budget_ms = parse(&value("--budget-ms")?, "--budget-ms")?,
            "--max-connections" => {
                opts.max_connections = parse(&value("--max-connections")?, "--max-connections")?
            }
            "--request-deadline-ms" => {
                opts.request_deadline_ms =
                    parse(&value("--request-deadline-ms")?, "--request-deadline-ms")?
            }
            "--io-timeout-ms" => {
                opts.io_timeout_ms = parse(&value("--io-timeout-ms")?, "--io-timeout-ms")?
            }
            "--accept-shards" => {
                opts.accept_shards = parse(&value("--accept-shards")?, "--accept-shards")?
            }
            "--max-pipeline" => {
                opts.max_pipeline = parse(&value("--max-pipeline")?, "--max-pipeline")?
            }
            "--breaker-threshold" => {
                opts.breaker_threshold =
                    parse(&value("--breaker-threshold")?, "--breaker-threshold")?
            }
            "--breaker-open-ms" => {
                opts.breaker_open_ms = parse(&value("--breaker-open-ms")?, "--breaker-open-ms")?
            }
            "--chaos-seed" => opts.chaos.seed = parse(&value("--chaos-seed")?, "--chaos-seed")?,
            "--chaos-panic-rate" => {
                opts.chaos.worker_panic_rate =
                    parse(&value("--chaos-panic-rate")?, "--chaos-panic-rate")?
            }
            "--chaos-backend-failure-rate" => {
                opts.chaos.backend_failure_rate = parse(
                    &value("--chaos-backend-failure-rate")?,
                    "--chaos-backend-failure-rate",
                )?
            }
            "--chaos-corruption-rate" => {
                opts.chaos.sample_corruption_rate = parse(
                    &value("--chaos-corruption-rate")?,
                    "--chaos-corruption-rate",
                )?
            }
            "--no-integrity-repair" => opts.integrity_repair = false,
            "--no-verify-gate" => opts.verify_gate = false,
            "--help" | "-h" => {
                println!(
                    "mqo_serve: batching MQO solve server\n\
                     --addr A            bind address (default 127.0.0.1:7700)\n\
                     --small             4-cell Chimera graph instead of the 12x12 D-Wave 2X\n\
                     --reads N           default annealing reads per request (100)\n\
                     --gauges N          default gauge batches per request (10)\n\
                     --threads N         device read-execution threads, 0 = all cores (0)\n\
                     --queue-depth N     admission queue bound (64)\n\
                     --workers N         solve workers (2)\n\
                     --batch N           max requests per worker wake-up (8)\n\
                     --cache-capacity N  embedding cache entries, 0 disables (128)\n\
                     --fault-rate F      per-gauge qubit dropout probability (0)\n\
                     --derating F        capacity fraction withheld from routing (0)\n\
                     --deadline-ms N     default queue deadline, 0 = none (0)\n\
                     --milp-max-queries N  MILP routing bound (14)\n\
                     --budget-ms N       classical backend wall budget (250)\n\
                     --max-connections N   concurrent-connection cap (256)\n\
                     --request-deadline-ms N  per-request read deadline, 0 = none (10000)\n\
                     --io-timeout-ms N   keep-alive idle / write-stall timeout (10000)\n\
                     --accept-shards N   event-loop accept shards (2)\n\
                     --max-pipeline N    pipelined requests per connection cap (32)\n\
                     --breaker-threshold N  consecutive failures that open a breaker, 0 = off (5)\n\
                     --breaker-open-ms N    breaker cooling period (1000)\n\
                     --chaos-seed N      seed of the chaos streams (0)\n\
                     --chaos-panic-rate F   per-request worker panic probability (0)\n\
                     --chaos-backend-failure-rate F  per-attempt backend failure probability (0)\n\
                     --chaos-corruption-rate F  per-request answer corruption probability (0)\n\
                     --no-integrity-repair  reject gate failures with a typed 500 instead of repairing\n\
                     --no-verify-gate    disable answer re-validation (bench escape hatch)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn main() {
    let opts = match parse_options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mqo_serve: {e} (try --help)");
            std::process::exit(2);
        }
    };

    let graph = if opts.small {
        ChimeraGraph::new(2, 2)
    } else {
        ChimeraGraph::dwave_2x()
    };
    let mut engine = EngineConfig::new(graph);
    engine.device.num_reads = opts.reads.max(1);
    engine.device.num_gauges = opts.gauges.clamp(1, engine.device.num_reads);
    engine.device.threads = opts.threads;
    engine.device.faults.qubit_dropout_rate = opts.fault_rate;
    engine.cache_capacity = opts.cache_capacity;
    engine.router.capacity_derating = if opts.fault_rate > 0.0 && opts.derating == 0.0 {
        // A faulty device should not be routed instances that only fit a
        // pristine chip; derate capacity by the dropout rate by default.
        opts.fault_rate
    } else {
        opts.derating
    };
    engine.router.milp_max_queries = opts.milp_max_queries;
    engine.classical_budget = Duration::from_millis(opts.budget_ms.max(1));
    if let Err(e) = opts.chaos.validate() {
        eprintln!("mqo_serve: {e}");
        std::process::exit(2);
    }
    engine.chaos = opts.chaos;
    engine.integrity_repair = opts.integrity_repair;
    engine.verify_gate = opts.verify_gate;
    engine.breaker.failure_threshold = opts.breaker_threshold;
    engine.breaker.open_ms = opts.breaker_open_ms;

    let mut config = ServerConfig::new(engine);
    config.addr = opts.addr;
    config.queue = QueueConfig {
        depth: opts.queue_depth.max(1),
        workers: opts.workers.max(1),
        batch_size: opts.batch.max(1),
        default_deadline_ms: opts.deadline_ms,
    };
    config.max_connections = opts.max_connections.max(1);
    config.request_deadline_ms = opts.request_deadline_ms;
    config.io_timeout_ms = opts.io_timeout_ms.max(1);
    config.accept_shards = opts.accept_shards.max(1);
    config.max_pipeline = opts.max_pipeline.max(1);

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

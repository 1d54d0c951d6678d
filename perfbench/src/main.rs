//! `perfbench` — the repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --spec FILE --out DIR
//! ```
//!
//! Runs one workload, checks every answer, and prints as its last stdout
//! line `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced (`--trace 0`), or the per-layer metrics from a traced
//! run (`--trace 1`). Earlier lines carry the host fingerprint and run
//! details; the same goes to a report file under `--out`.

mod client;
mod inputs;
mod paper;
mod procs;
mod replay;
mod serve;
mod stats;

use replay::Tracer;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// End-to-end metrics with their units, printed by untraced runs.
const END_TO_END: [(&str, &str); 8] = [
    ("throughput_rps", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("slo_frac", "frac"),
    ("ok_frac", "frac"),
    ("qa_solve_s", "s"),
    ("qa_cost_ratio", "ratio"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics with their units, printed by traced runs. A layer the
/// workload does not exercise reads 0. The open-loop latency percentiles
/// are here rather than end to end: on a 2-CPU host shared with other
/// machines they move with the host's steal time by more than any bound
/// could absorb.
const PER_LAYER: [(&str, &str); 35] = [
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("frontend.residual_us_p50", "us"),
    ("frontend.residual_us_p99", "us"),
    ("http.parse_us", "us"),
    ("http.encode_us", "us"),
    ("event_loop.wakeups_per_req", "count"),
    ("router.hop_us", "us"),
    ("router.failovers", "count"),
    ("router.cache_hit_frac", "frac"),
    ("queue.wait_us_p50", "us"),
    ("queue.wait_us_p99", "us"),
    ("queue.batch_size", "count"),
    ("queue.reject_frac", "frac"),
    ("engine.wall_us_hit_p50", "us"),
    ("engine.wall_us_miss_p50", "us"),
    ("route.us", "us"),
    ("cache.hit_frac", "frac"),
    ("embed.us", "us"),
    ("gate.verify_us", "us"),
    ("pipeline.solve_us", "us"),
    ("logical.map_us", "us"),
    ("physical.map_us", "us"),
    ("unembed.us", "us"),
    ("reads.repaired_frac", "frac"),
    ("reads.broken_chain_frac", "frac"),
    ("device.program_s", "s"),
    ("device.read_s", "s"),
    ("device.assemble_s", "s"),
    ("device.host_us_per_read", "us"),
    ("device.sim_us", "us"),
    ("qa_device_ms", "ms"),
    ("loadgen.late_us_p99", "us"),
    ("trace.overhead_frac", "frac"),
    ("trace.reconcile_err", "frac"),
];

/// One workload's parameters from the spec file.
#[derive(Clone)]
pub struct Spec(serde_json::Value);

impl Spec {
    fn get(&self, key: &str) -> &serde_json::Value {
        &self.0[key]
    }

    pub fn f64(&self, key: &str) -> f64 {
        self.get(key)
            .as_f64()
            .unwrap_or_else(|| panic!("spec: {key} must be a number"))
    }

    pub fn usize(&self, key: &str) -> usize {
        self.f64(key) as usize
    }

    pub fn opt_usize(&self, key: &str) -> Option<usize> {
        self.get(key).as_u64().map(|v| v as usize)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.get(key).as_bool().unwrap_or(false)
    }

    pub fn usize_list(&self, key: &str) -> Vec<usize> {
        match self.get(key) {
            serde_json::Value::Array(items) => items
                .iter()
                .map(|v| v.as_u64().expect("spec lists hold integers") as usize)
                .collect(),
            _ => panic!("spec: {key} must be a list"),
        }
    }
}

/// Everything a workload runner needs.
pub struct Ctx {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    out_prefix: PathBuf,
}

/// What a run found: metrics, the exact seed-determined values, details,
/// and every problem that makes the run incorrect.
pub struct Report {
    metrics: BTreeMap<String, f64>,
    exact: Vec<(String, f64)>,
    details: Vec<(String, Value)>,
    problems: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    spans_path: PathBuf,
}

impl Report {
    fn new(spans_path: PathBuf) -> Report {
        Report {
            metrics: BTreeMap::new(),
            exact: Vec::new(),
            details: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            spans_path,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a value fixed by the seed; checked against the spec file's
    /// recorded values for that seed, when it has them.
    pub fn exact(&mut self, name: &str, value: f64) {
        self.exact.push((name.to_string(), value));
    }

    pub fn detail(&mut self, name: &str, value: Value) {
        self.details.push((name.to_string(), value));
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: {what}");
        self.problems.push(what);
    }

    /// Writes the traced run's spans next to the report.
    pub fn write_spans(&self, tr: &Tracer) -> std::io::Result<()> {
        let spans = Value::Array(
            tr.spans
                .iter()
                .map(|s| {
                    json!({
                        "solve": s.solve,
                        "name": s.name,
                        "parent": s.parent,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                    })
                })
                .collect(),
        );
        std::fs::write(&self.spans_path, spans.to_string())
    }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

/// `steal` ticks and all ticks from the aggregate line of `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A measured number as JSON; a value that is not finite prints as `null`.
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::F64(v)
    } else {
        Value::Null
    }
}

fn fingerprint(steal: (u64, u64)) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let (steal_end, total_end) = cpu_ticks();
    let (steal_d, total_d) = (steal_end - steal.0, total_end - steal.1);
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu_model": cpu_model,
        "rustc": command_line("rustc", &["--version"]),
        "git_sha": command_line("git", &["rev-parse", "HEAD"]),
        "steal_ticks": steal_d,
        "steal_frac": num(stats::ratio(steal_d as f64, total_d as f64)),
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut opts: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            fail(format!("unexpected argument {flag}"));
        };
        let value = args
            .next()
            .unwrap_or_else(|| fail(format!("{flag} needs a value")));
        opts.insert(name.to_string(), value);
    }
    let opt = |name: &str| -> &str {
        opts.get(name)
            .map(String::as_str)
            .unwrap_or_else(|| fail(format!("--{name} is required")))
    };
    let workload = opt("workload").to_string();
    let seed: u64 = opt("seed").parse().unwrap_or_else(|e| fail(e));
    let seconds: f64 = opt("seconds").parse().unwrap_or_else(|e| fail(e));
    let trace = match opt("trace") {
        "0" => false,
        "1" => true,
        other => fail(format!("--trace wants 0 or 1, got {other}")),
    };
    let spec_text = std::fs::read_to_string(opt("spec")).unwrap_or_else(|e| fail(e));
    let spec_all: serde_json::Value = serde_json::from_str(&spec_text).unwrap_or_else(|e| fail(e));
    let spec = Spec(spec_all["workloads"][workload.as_str()].clone());
    if spec.0.is_null() {
        fail(format!("unknown workload {workload}"));
    }
    let out_dir = PathBuf::from(opt("out"));
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| fail(e));
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let ctx = Ctx {
        spec,
        seed,
        seconds,
        trace,
        bin_dir: PathBuf::from(opt("bin-dir")),
        out_prefix: out_dir.join(&stem),
    };

    let steal = cpu_ticks();
    let mut report = Report::new(ctx.out_prefix.with_extension("spans.json"));
    let kind = ctx.spec.get("kind").as_str().unwrap_or("").to_string();
    let result = match kind.as_str() {
        "serve" => serve::run(&ctx, 0, &mut report),
        "fleet" => serve::run(&ctx, 2, &mut report),
        "paper" => paper::run(&ctx, &mut report),
        other => fail(format!("unknown workload kind {other:?}")),
    };
    if let Err(e) = result {
        fail(format!("{workload}: {e}"));
    }

    // Seed-determined values must repeat the recorded ones exactly.
    let recorded = &spec_all["expected"][workload.as_str()][seed.to_string().as_str()];
    let mut exact_fields = Vec::new();
    for (name, value) in std::mem::take(&mut report.exact) {
        if let Some(want) = recorded[name.as_str()].as_f64() {
            if want.to_bits() != value.to_bits() {
                report.problem(format!("{name} = {value:?}, recorded {want:?}"));
            }
        }
        exact_fields.push((name, num(value)));
    }
    let recorded_seed = !recorded.is_null();

    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = Value::Object(
        list.iter()
            .map(|&(name, unit)| {
                let value = report.metrics.get(name).copied().unwrap_or(0.0);
                (name.to_string(), json!({"value": num(value), "unit": unit}))
            })
            .collect(),
    );
    let correct = report.problems.is_empty() && report.failed == 0 && report.attempted > 0;
    let full = json!({
        "workload": workload,
        "seed": seed,
        "seconds": num(seconds),
        "trace": trace,
        "fingerprint": fingerprint(steal),
        "exact": Value::Object(exact_fields),
        "exact_recorded_for_seed": recorded_seed,
        "details": Value::Object(std::mem::take(&mut report.details)),
        "problems": report.problems,
        "all_metrics": Value::Object(
            report
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), num(*v)))
                .collect()
        ),
    });
    let full = serde_json::to_string(&full).unwrap_or_else(|e| fail(e));
    if let Err(e) = std::fs::write(ctx.out_prefix.with_extension("json"), &full) {
        fail(e);
    }
    println!("{full}");
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": metrics,
        })
    );
}

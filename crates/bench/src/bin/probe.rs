//! Focused sampler-convergence probe at full machine scale: a PIQMC
//! sweeps × beta grid plus the behavioural back-end, on one instance of a
//! chosen class, against a long hill-climbing reference. Complements
//! `calibrate` (which runs the broad grid on a small machine). Gaps are
//! absolute cost differences to the reference.
//!
//! Usage: `cargo run --release -p mqo-bench --bin probe -- --plans 3 --reads 100`
//!
//! Developer knobs (environment): `MQO_PROBE_SCALE`, `MQO_PROBE_COST_LEVELS`
//! reshape the generated instance; `MQO_B_RESTARTS`, `MQO_B_SWEEPS`,
//! `MQO_B_BETA`, `MQO_B_THRESH`, `MQO_B_NOISE` override the behavioural
//! back-end.

use mqo::pipeline::QuantumMqoSolver;
use mqo_annealer::behavioral::BehavioralSampler;
use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_annealer::sqa::{PathIntegralQmcSampler, SqaConfig};
use mqo_bench::cli::HarnessOptions;
use mqo_bench::harness::{paper_machine, small_machine};
use mqo_heuristics::{AnytimeHeuristic, HillClimbing};
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn env_num<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(format!("{name} must be numeric, got {v:?}")))
    })
}

fn main() {
    let opts = HarnessOptions::from_env();
    let graph = if opts.small {
        small_machine()
    } else {
        paper_machine()
    };
    let plans = opts.plans_filter.unwrap_or(3);
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed.wrapping_add(17));
    let mut workload = PaperWorkloadConfig::paper_class(plans);
    if let Some(scale) = env_num("MQO_PROBE_SCALE") {
        workload.saving_scale = scale;
    }
    if let Some(levels) = env_num("MQO_PROBE_COST_LEVELS") {
        workload.cost_levels = levels;
    }
    let inst = paper::generate(&graph, &workload, &mut rng).unwrap_or_else(|e| fail(e));
    eprintln!(
        "instance: {} queries x {plans} plans, {} vars, {} savings",
        inst.problem.num_queries(),
        inst.problem.num_plans(),
        inst.problem.num_savings()
    );
    let reference = HillClimbing
        .run(&inst.problem, Duration::from_secs(20), 1)
        .best
        .1;
    eprintln!("reference (CLIMB 20s): {reference:.1}");

    println!("slices,sweeps,beta,first_gap,best_gap,broken,wall_ms_per_read");
    for &slices in &[8usize] {
        for &sweeps in &[] {
            for &beta in &[32.0f64, 96.0] {
                let device = QuantumAnnealer::new(
                    DeviceConfig {
                        num_reads: opts.reads.min(20),
                        num_gauges: 10,
                        ..DeviceConfig::default()
                    },
                    PathIntegralQmcSampler::new(SqaConfig {
                        slices,
                        sweeps,
                        beta,
                        ..SqaConfig::default()
                    }),
                );
                let solver = QuantumMqoSolver::new(graph.clone(), device);
                let t0 = Instant::now();
                let out = solver
                    .solve_with_embedding(&inst.problem, inst.layout.embedding.clone(), opts.seed)
                    .unwrap_or_else(|e| fail(e));
                let wall = t0.elapsed().as_secs_f64() * 1e3 / out.reads as f64;
                let first = out
                    .trace
                    .value_at(Duration::from_secs_f64(376e-6))
                    .unwrap_or(f64::NAN);
                let best = out.best.1;
                println!(
                    "{slices},{sweeps},{beta},{:.1},{:.1},{},{wall:.1}",
                    first - reference,
                    best - reference,
                    out.broken_chain_reads
                );
            }
        }
    }

    // Behavioural back-end reference row.
    let noise: f64 = std::env::var("MQO_B_NOISE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01);
    let device = QuantumAnnealer::new(
        DeviceConfig {
            num_reads: opts.reads.min(100),
            num_gauges: 10,
            control_error: mqo_annealer::noise::ControlErrorModel::new(noise),
            ..DeviceConfig::default()
        },
        {
            let mut bc = mqo_annealer::behavioral::BehavioralConfig::default();
            if let Some(v) = env_num("MQO_B_RESTARTS") {
                bc.oracle_restarts = v;
            }
            if let Some(v) = env_num("MQO_B_SWEEPS") {
                bc.read_sweeps = v;
            }
            if let Some(v) = env_num("MQO_B_BETA") {
                bc.beta = v;
            }
            if let Some(v) = env_num("MQO_B_THRESH") {
                bc.cluster_threshold = v;
            }
            BehavioralSampler::new(bc)
        },
    );
    let solver = QuantumMqoSolver::new(graph.clone(), device);
    let t0 = Instant::now();
    let out = solver
        .solve_with_embedding(&inst.problem, inst.layout.embedding.clone(), opts.seed)
        .unwrap_or_else(|e| fail(e));
    let wall = t0.elapsed().as_secs_f64() * 1e3 / out.reads as f64;
    let first = out
        .trace
        .value_at(Duration::from_secs_f64(376e-6))
        .unwrap_or(f64::NAN);
    println!(
        "behavioral,-,-,{:.1},{:.1},{},{wall:.1}",
        first - reference,
        out.best.1 - reference,
        out.broken_chain_reads
    );
}

//! The paper workload: Algorithm 1 in-process on the simulated D-Wave 2X
//! with the behavioural back-end, under the paper's protocol of 1 000 reads
//! in 10 gauges, over fixed generated instances.

use crate::inputs::{paper_instances, paper_solve_seed};
use crate::procs::{own_cpu_seconds, own_peak_rss_mb};
use crate::replay::{self, layer_metrics, replay_pipeline, Answer, Tracer};
use crate::stats::{median, quantile, ratio};
use crate::{Ctx, Report};
use mqo::pipeline::{QuantumMqoOutcome, QuantumMqoSolver};
use mqo_annealer::behavioral::BehavioralSampler;
use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_bench::harness::paper_machine;
use serde_json::json;
use std::io;
use std::time::Instant;

/// The seed-determined part of one solve.
#[derive(Clone, PartialEq)]
struct Solved {
    answer: Answer,
    repaired: usize,
    broken: usize,
}

fn solved(out: &QuantumMqoOutcome) -> Solved {
    let (selection, cost) = &out.best;
    Solved {
        answer: Answer {
            selection: selection.plans().iter().map(|p| p.0).collect(),
            cost_bits: cost.to_bits(),
            reads: out.reads,
            qubits_used: out.qubits_used,
            device_time_bits: out
                .trace
                .points()
                .last()
                .map_or(0.0, |p| p.elapsed.as_secs_f64() * 1e6)
                .to_bits(),
        },
        repaired: out.repaired_reads,
        broken: out.broken_chain_reads,
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let spec = &ctx.spec;
    let classes = spec.usize_list("plan_classes");
    let limit_s = spec.f64("latency_limit_ms") / 1e3;

    // Set-up: machine, instance generation, the instances' embeddings and
    // one warm-up solve of each instance, whose answers every later solve
    // must reproduce exactly.
    let config = DeviceConfig::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    let mut warm: Option<Vec<Option<Solved>>> = None;
    let (mut attempted, mut verified) = (0usize, 0usize);
    for _ in 0..spec.usize("setups").max(1) {
        let t0 = Instant::now();
        let machine = paper_machine();
        let instances = paper_instances(&machine, &classes, ctx.seed);
        let embeddings: Vec<_> = instances
            .iter()
            .map(|i| i.layout.embedding.clone())
            .collect();
        let solver = QuantumMqoSolver::new(
            machine,
            QuantumAnnealer::new(config, BehavioralSampler::default()),
        );
        let answers: Vec<Option<Solved>> = instances
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let seed = paper_solve_seed(ctx.seed, i);
                let out = solver.solve_with_embedding(&inst.problem, embeddings[i].clone(), seed);
                out.ok()
                    .map(|o| solved(&o))
                    .filter(|s| replay::verify(&inst.problem, &s.answer.selection, s.answer.cost()))
            })
            .collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        attempted += answers.len();
        verified += answers.iter().flatten().count();
        match &warm {
            None => warm = Some(answers),
            Some(w) if *w != answers => {
                report.problem("warm-up answers differ between set-ups");
            }
            Some(_) => {}
        }
        built = Some((solver, instances, embeddings));
    }
    let (solver, instances, embeddings) = built.expect("at least one set-up");
    let first = warm.expect("at least one set-up");

    // Rounds over the fixed instances until the time is up; every solve
    // must reproduce the warm-up answer exactly. A traced run interleaves
    // the traced replay of each solve with the untraced solve.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); instances.len()];
    let mut rounds = Vec::new();
    let mut tr = Tracer::new();
    let (mut phases, mut traced_us) = (Vec::new(), Vec::new());
    let (mut reads, mut repaired, mut broken) = (0, 0, 0);
    let start = Instant::now();
    let cpu_start = own_cpu_seconds();
    while rounds.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut round_s = 0.0;
        for (i, inst) in instances.iter().enumerate() {
            let seed = paper_solve_seed(ctx.seed, i);
            let embedding = embeddings[i].clone();
            let t0 = Instant::now();
            let out = solver.solve_with_embedding(&inst.problem, embedding, seed);
            let dt = t0.elapsed().as_secs_f64();
            attempted += 1;
            round_s += dt;
            times[i].push(dt);
            let Ok(out) = out else {
                report.problem(format!("instance {i} failed to solve"));
                continue;
            };
            let s = solved(&out);
            if !replay::verify(&inst.problem, &s.answer.selection, s.answer.cost()) {
                report.problem(format!("instance {i}: answer fails verification"));
                continue;
            }
            verified += 1;
            if first[i].as_ref() != Some(&s) {
                report.problem(format!("instance {i}: a repeat differs from the warm-up"));
            }
            if ctx.trace {
                tr.next_solve();
                let root = tr.open("qa.solve", None);
                let traced = replay_pipeline(
                    &solver,
                    &inst.problem,
                    embeddings[i].clone(),
                    seed,
                    &mut tr,
                    Some(root),
                );
                let ok = traced.as_ref().is_ok_and(|t| {
                    let a = &t.answer;
                    tr.time("gate.verify", root, || {
                        replay::verify(&inst.problem, &a.selection, a.cost())
                    })
                });
                tr.close(root);
                traced_us.push(tr.spans[root].us());
                match traced {
                    Ok(t) if ok && t.answer == s.answer => {
                        let a = &t.answer;
                        reads += a.reads;
                        repaired += t.repaired;
                        broken += t.broken;
                        phases.push(t.phases);
                    }
                    _ => report.problem(format!("instance {i}: traced replay differs")),
                }
            }
        }
        rounds.push(round_s);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu_s = own_cpu_seconds() - cpu_start;
    report.attempted = attempted;
    report.failed = attempted - verified;

    let solves: Vec<Solved> = first.iter().flatten().cloned().collect();
    let qa_cost: f64 = solves.iter().map(|s| s.answer.cost()).sum();
    let reference: f64 = instances
        .iter()
        .zip(&first)
        .filter(|(_, s)| s.is_some())
        .map(|(inst, _)| replay::reference_cost(&inst.problem))
        .sum();
    let qa_device_ms: f64 = solves
        .iter()
        .map(|s| s.answer.device_time_us())
        .sum::<f64>()
        / 1e3;
    let all_times: Vec<f64> = times.iter().flatten().copied().collect();
    let untraced_s: f64 = all_times.iter().sum();
    let per_instance: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let mean_solve_s = per_instance.iter().sum::<f64>() / per_instance.len() as f64;
    report.set("throughput_rps", 1.0 / mean_solve_s);
    report.set("cpu_ms_per_req", ratio(cpu_s * 1e3, all_times.len() as f64));
    report.set("latency_p50_ms", median(&rounds) * 1e3);
    report.set("latency_p99_ms", quantile(&rounds, 0.99) * 1e3);
    report.set(
        "slo_frac",
        ratio(
            rounds.iter().filter(|&&r| r <= limit_s).count() as f64,
            rounds.len() as f64,
        ),
    );
    report.set("ok_frac", ratio(verified as f64, attempted as f64));
    report.set("qa_solve_s", mean_solve_s);
    report.set("qa_cost_ratio", ratio(qa_cost, reference));
    report.set("setup_s", median(&setup_s));
    report.set("rss_mb", own_peak_rss_mb());
    report.set("qa_device_ms", qa_device_ms);
    report.exact("qa_cost", qa_cost);
    report.exact("qa_device_ms", qa_device_ms);
    report.exact(
        "reads_repaired",
        solves.iter().map(|s| s.repaired as f64).sum(),
    );
    report.exact(
        "reads_broken_chains",
        solves.iter().map(|s| s.broken as f64).sum(),
    );
    report.detail(
        "phases",
        json!({
            "rounds": rounds.len(),
            "seconds": elapsed,
            "setup_s": setup_s,
            "instances": instances
                .iter()
                .zip(&per_instance)
                .map(|(inst, &t)| {
                    json!({
                        "queries": inst.problem.num_queries(),
                        "plans": inst.problem.num_plans(),
                        "median_solve_s": t,
                    })
                })
                .collect::<Vec<_>>(),
        }),
    );
    if ctx.trace {
        layer_metrics(
            &tr,
            &phases,
            reads,
            repaired,
            broken,
            config.time_per_read_us(),
            report,
        );
        report.set(
            "trace.overhead_frac",
            ratio(traced_us.iter().sum(), untraced_s * 1e6) - 1.0,
        );
        report.write_spans(&tr)?;
    }
    Ok(())
}

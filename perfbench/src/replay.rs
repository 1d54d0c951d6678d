//! The traced replay: the calls `SolveEngine::solve` and
//! `QuantumMqoSolver::solve_with_embedding` make, made again from here in
//! the same order through the layers' public functions, each inside a span.
//!
//! Solves are deterministic by (problem, seed), so a replay must reproduce
//! the untraced answer bit for bit; a difference means the replay no longer
//! mirrors the program and the run fails.

use crate::stats::{median, ratio};
use crate::Report;
use mqo::pipeline::QuantumMqoSolver;
use mqo_annealer::device::{PhaseTimings, QuantumAnnealer};
use mqo_annealer::sa::SimulatedAnnealingSampler;
use mqo_annealer::sampler::{Sampler, SamplerHints};
use mqo_chimera::embedding::{embed_structure, Embedding};
use mqo_chimera::packing::{self, Placer};
use mqo_chimera::physical::PhysicalMapping;
use mqo_core::ids::PlanId;
use mqo_core::integrity;
use mqo_core::ising::Ising;
use mqo_core::logical::LogicalMapping;
use mqo_core::problem::MqoProblem;
use mqo_core::solution::Selection;
use mqo_heuristics::HillClimbing;
use mqo_service::api::{Backend, SolveRequest, SolveResponse};
use mqo_service::cache::CacheKey;
use mqo_service::engine::EngineConfig;
use mqo_service::router::route;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call. Spans of one replayed solve share `solve`.
pub struct Span {
    pub solve: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder, written out when the run ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    solve: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            solve: 0,
        }
    }

    /// Starts the spans of a new solve.
    pub fn next_solve(&mut self) {
        self.solve += 1;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            solve: self.solve,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }
}

/// What a solve returned, in the fields the client can see plus the
/// seed-determined counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub selection: Vec<u32>,
    pub cost_bits: u64,
    pub reads: usize,
    pub qubits_used: usize,
    pub device_time_bits: u64,
}

impl Answer {
    pub fn from_response(r: &SolveResponse) -> Answer {
        Answer {
            selection: r.selection.clone(),
            cost_bits: r.cost.to_bits(),
            reads: r.reads,
            qubits_used: r.qubits_used,
            device_time_bits: r.device_time_us.to_bits(),
        }
    }

    pub fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }

    pub fn device_time_us(&self) -> f64 {
        f64::from_bits(self.device_time_bits)
    }
}

/// Result of one replayed Algorithm-1 solve.
pub struct Replayed {
    pub answer: Answer,
    pub repaired: usize,
    pub broken: usize,
    pub phases: PhaseTimings,
}

/// `solve_with_embedding` on a clean first attempt, one span per layer.
/// Errors when the run would leave the clean path (re-embedding after a
/// qubit dropout), which the replay does not mirror.
pub fn replay_pipeline<S: Sampler>(
    solver: &QuantumMqoSolver<S>,
    problem: &MqoProblem,
    embedding: Embedding,
    seed: u64,
    tr: &mut Tracer,
    parent: Option<usize>,
) -> Result<Replayed, String> {
    let span = tr.open("pipeline.solve", parent);
    let logical = tr.time("logical.map", span, || {
        LogicalMapping::new(problem, solver.epsilon)
    });
    let edges: Vec<_> = logical
        .qubo()
        .quadratic()
        .iter()
        .map(|&(a, b, _)| (a, b))
        .collect();
    std::hint::black_box(&edges);
    let graph = solver.graph.clone();
    let physical = tr
        .time("physical.map", span, || {
            PhysicalMapping::new(logical.qubo(), embedding.clone(), &graph, solver.epsilon)
        })
        .map_err(|e| e.to_string())?;
    let (samples, phases) = tr.time("device.run", span, || {
        for &(i, j, _) in physical.physical_qubo().quadratic() {
            let (a, b) = (
                physical.qubit_of_phys(i.index()),
                physical.qubit_of_phys(j.index()),
            );
            if !graph.has_coupler(a, b) {
                return Err("coupling off the hardware graph".to_string());
            }
        }
        let ising = Ising::from_qubo(physical.physical_qubo());
        let chains = physical.dense_chains();
        solver
            .device
            .run_ising_timed(
                &ising,
                physical.physical_qubo(),
                &SamplerHints { chains: &chains },
                seed,
            )
            .map_err(|e| e.to_string())
    })?;
    if !samples.faults().dropped_qubits.is_empty() {
        return Err("dropped qubits: the replay mirrors clean runs only".to_string());
    }
    let descent = solver.resilience.repair_descent_moves;
    let (best, device_us, repaired, broken) = tr.time("unembed", span, || {
        let mut best: Option<(Selection, f64)> = None;
        let mut device_us = 0.0;
        let (mut repaired, mut broken) = (0, 0);
        for read in samples.reads() {
            let unembedded = physical.unembed(&read.assignment);
            if unembedded.broken_chains > 0 {
                broken += 1;
            }
            let (selection, was_repaired) =
                logical.decode_with_repair(problem, &unembedded.logical);
            let (selection, cost) = if was_repaired {
                repaired += 1;
                let (sel, cost, _) = HillClimbing::descend_bounded(problem, selection, descent);
                (sel, cost)
            } else {
                let cost = problem.selection_cost(&selection);
                (selection, cost)
            };
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                device_us =
                    Duration::from_secs_f64((0.0 + read.elapsed_us) * 1e-6).as_secs_f64() * 1e6;
                best = Some((selection, cost));
            }
        }
        (best, device_us, repaired, broken)
    });
    tr.close(span);
    let (selection, cost) = best.ok_or("the device returned no reads")?;
    Ok(Replayed {
        answer: Answer {
            selection: selection.plans().iter().map(|p| p.0).collect(),
            cost_bits: cost.to_bits(),
            reads: samples.reads().len(),
            qubits_used: physical.num_physical_vars(),
            device_time_bits: device_us.to_bits(),
        },
        repaired,
        broken,
        phases,
    })
}

/// Instances with at most this many selections get their exact optimum
/// as the quality reference.
const BRUTE_FORCE_LIMIT: f64 = 65_536.0;

/// The cost the quality metric divides by: the exact optimum when the
/// instance is small enough to enumerate, otherwise the selection of every
/// query's cheapest plan (savings included).
pub fn reference_cost(problem: &MqoProblem) -> f64 {
    let space: f64 = problem
        .queries()
        .map(|q| problem.num_plans_of(q) as f64)
        .product();
    if space <= BRUTE_FORCE_LIMIT {
        return problem.brute_force_optimum().1;
    }
    let selection = problem
        .queries()
        .map(|q| {
            problem
                .plans_of(q)
                .min_by(|&a, &b| problem.plan_cost(a).total_cmp(&problem.plan_cost(b)))
                .expect("every query has a plan")
        })
        .collect();
    problem.selection_cost(&Selection::new(selection))
}

/// `integrity::verify_selection` on an answer against the problem sent.
pub fn verify(problem: &MqoProblem, selection: &[u32], cost: f64) -> bool {
    let selection = Selection::new(selection.iter().map(|&p| PlanId(p)).collect());
    integrity::verify_selection(problem, &selection, cost, integrity::DEFAULT_TOLERANCE).is_ok()
}

/// `SolveEngine::solve` for the annealer path, replayed with its own
/// embedding cache (keyed as the engine keys it).
pub struct EngineReplay {
    config: EngineConfig,
    graph_fingerprint: u64,
    cache: HashMap<CacheKey, Arc<Embedding>>,
}

/// A replayed engine solve and whether its embedding was a cache miss.
pub struct EngineReplayed {
    pub replayed: Replayed,
    pub miss: bool,
}

impl EngineReplay {
    pub fn new(config: EngineConfig) -> EngineReplay {
        EngineReplay {
            graph_fingerprint: config.graph.fingerprint(),
            config,
            cache: HashMap::new(),
        }
    }

    pub fn solve(&mut self, req: &SolveRequest, tr: &mut Tracer) -> Result<EngineReplayed, String> {
        let EngineReplay {
            config: cfg,
            graph_fingerprint,
            cache,
        } = self;
        let root = tr.open("engine.solve", None);
        let decision = tr.time("route", root, || {
            route(&req.problem, &cfg.graph, &cfg.router)
        });
        if req.backend.is_some() || decision.backend != Backend::Annealer {
            return Err(format!("request routed to {}", decision.backend));
        }
        let logical = tr.time("logical.map", root, || {
            LogicalMapping::new(&req.problem, cfg.epsilon)
        });
        let place = tr.open("place", Some(root));
        let mut placer = Placer::new(&cfg.graph);
        let n = logical.qubo().num_vars();
        let side = packing::footprint_side(n);
        let key = CacheKey {
            structure: logical.qubo().structure_hash(),
            graph: packing::region_graph(n).fingerprint(),
        };
        let (canonical, mut miss) = cached(cache, key, tr, place, || {
            Ok(packing::canonical_embedding(n))
        })?;
        let placed = if side <= cfg.graph.rows().min(cfg.graph.cols()) {
            placer.place(&canonical, side).map(|p| p.embedding)
        } else {
            None
        };
        let embedding = match placed {
            Some(e) => e,
            None => {
                let key = CacheKey {
                    structure: logical.qubo().structure_hash(),
                    graph: *graph_fingerprint,
                };
                let edges: Vec<_> = logical
                    .qubo()
                    .quadratic()
                    .iter()
                    .map(|&(a, b, _)| (a, b))
                    .collect();
                let (e, fallback_miss) = cached(cache, key, tr, place, || {
                    embed_structure(&cfg.graph, n, &edges, key.structure, cfg.embed_tries)
                        .map_err(|e| e.to_string())
                })?;
                miss = fallback_miss;
                (*e).clone()
            }
        };
        tr.close(place);
        let mut device = cfg.device;
        if let Some(reads) = req.reads {
            device.num_reads = reads.clamp(1, cfg.max_reads);
        }
        if let Some(gauges) = req.gauges {
            device.num_gauges = gauges.clamp(1, device.num_reads);
        }
        device.num_gauges = device.num_gauges.min(device.num_reads);
        let solver = QuantumMqoSolver {
            graph: cfg.graph.clone(),
            device: QuantumAnnealer::new(device, SimulatedAnnealingSampler::default()),
            epsilon: cfg.epsilon,
            resilience: cfg.resilience,
        };
        let replayed = replay_pipeline(&solver, &req.problem, embedding, req.seed, tr, Some(root))?;
        let answer = &replayed.answer;
        let ok = tr.time("gate.verify", root, || {
            verify(&req.problem, &answer.selection, answer.cost())
        });
        tr.close(root);
        if !ok {
            return Err("the replayed answer fails the integrity gate".to_string());
        }
        Ok(EngineReplayed { replayed, miss })
    }
}

/// An embedding through the replay's cache; a miss runs `make` inside an
/// `embed` span. Returns the embedding and whether it was a miss.
fn cached(
    cache: &mut HashMap<CacheKey, Arc<Embedding>>,
    key: CacheKey,
    tr: &mut Tracer,
    parent: usize,
    make: impl FnOnce() -> Result<Embedding, String>,
) -> Result<(Arc<Embedding>, bool), String> {
    if let Some(e) = cache.get(&key) {
        return Ok((Arc::clone(e), false));
    }
    let e = Arc::new(tr.time("embed", parent, make)?);
    cache.insert(key, Arc::clone(&e));
    Ok((e, true))
}

/// Total duration of the spans named `name` from span `first` on.
pub fn solve_span_sum(tr: &Tracer, first: usize, name: &str) -> f64 {
    tr.spans[first..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.us())
        .sum()
}

/// Per-layer metrics shared by every traced replay: per-solve medians of
/// the span totals, device phase timings and the exact read counts.
pub fn layer_metrics(
    tr: &Tracer,
    phases: &[mqo_annealer::device::PhaseTimings],
    reads: usize,
    repaired: usize,
    broken: usize,
    time_per_read_us: f64,
    report: &mut Report,
) {
    let solves = tr.spans.last().map_or(0, |s| s.solve as usize);
    let per_solve = |name: &str| -> f64 {
        let mut totals = vec![0.0; solves + 1];
        let mut seen = vec![false; solves + 1];
        for s in tr.spans.iter().filter(|s| s.name == name) {
            totals[s.solve as usize] += s.us();
            seen[s.solve as usize] = true;
        }
        let v: Vec<f64> = totals
            .into_iter()
            .zip(seen)
            .filter_map(|(t, s)| s.then_some(t))
            .collect();
        median(&v)
    };
    report.set("route.us", per_solve("route"));
    report.set("gate.verify_us", per_solve("gate.verify"));
    report.set("pipeline.solve_us", per_solve("pipeline.solve"));
    report.set("logical.map_us", per_solve("logical.map"));
    report.set("physical.map_us", per_solve("physical.map"));
    report.set("unembed.us", per_solve("unembed"));
    let program: Vec<f64> = phases.iter().map(|p| p.program_s).collect();
    let read: Vec<f64> = phases.iter().map(|p| p.read_s).collect();
    let assemble: Vec<f64> = phases.iter().map(|p| p.assemble_s).collect();
    report.set("device.program_s", median(&program));
    report.set("device.read_s", median(&read));
    report.set("device.assemble_s", median(&assemble));
    report.set(
        "device.host_us_per_read",
        ratio(read.iter().sum::<f64>() * 1e6, reads as f64),
    );
    report.set("device.sim_us", reads as f64 * time_per_read_us);
    report.set("reads.repaired_frac", ratio(repaired as f64, reads as f64));
    report.set(
        "reads.broken_chain_frac",
        ratio(broken as f64, reads as f64),
    );
    // Reconciliation: the stages' self-times must add up to the root
    // spans; whatever a root covers outside every stage is unattributed.
    let mut child_us = vec![0.0; tr.spans.len()];
    for s in &tr.spans {
        if let Some(p) = s.parent {
            child_us[p] += s.us();
        }
    }
    let (mut root_total, mut stage_total) = (0.0, 0.0);
    for (i, s) in tr.spans.iter().enumerate() {
        if s.parent.is_none() {
            root_total += s.us();
        } else {
            stage_total += s.us() - child_us[i];
        }
    }
    report.set(
        "trace.reconcile_err",
        ratio((stage_total - root_total).abs(), root_total),
    );
}

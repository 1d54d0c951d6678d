//! Workload inputs, made from the workload seed alone.
//!
//! Serving workloads get a list of `POST /solve` requests, pre-rendered as
//! the exact HTTP bytes the client sends. The programs under test see only
//! these bytes; the seed never leaves the benchmark.

use crate::stats::mix;
use crate::Spec;
use mqo_chimera::graph::ChimeraGraph;
use mqo_core::problem::MqoProblem;
use mqo_service::api::SolveRequest;
use mqo_service::http::render_request;
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Seed streams, one per use, so that no two draws share randomness.
const STREAM_STRUCTURE: u64 = 1;
const STREAM_PICK: u64 = 2;
const STREAM_REQUEST_SEED: u64 = 3;
const STREAM_ARRIVALS: u64 = 4;
const STREAM_INSTANCE: u64 = 5;

/// Epsilon the serving stack builds its logical QUBO with (engine and
/// router default); the structure key below must agree with it.
pub const EPSILON: f64 = 0.25;

/// One request of a serving workload.
pub struct Request {
    /// The request as the client encodes it.
    pub solve: SolveRequest,
    /// The problem, shared with every request of the same structure.
    pub problem: Arc<MqoProblem>,
    /// The exact HTTP bytes sent (`POST /solve`, keep-alive).
    pub bytes: Vec<u8>,
}

impl Request {
    fn new(problem: Arc<MqoProblem>, seed: u64, reads: Option<usize>) -> Request {
        let mut solve = SolveRequest::new((*problem).clone(), seed);
        solve.reads = reads;
        let body = serde_json::to_string(&solve).expect("solve requests serialise");
        let bytes = render_request("POST", "/solve", "bench", body.as_bytes(), false);
        Request {
            solve,
            problem,
            bytes,
        }
    }
}

/// The request phases of one serving run. Every phase draws from its own
/// index range, so each request is a pure function of (seed, phase, index).
pub struct ServeInputs {
    /// Warm-up requests, sent after every set-up; their answers and read
    /// counts are fixed by the seed.
    pub probe: Vec<Request>,
    /// Closed-loop pool, consumed in order.
    pub closed: Vec<Request>,
    /// Open-loop requests with their due offsets from the phase start.
    pub open: Vec<(Duration, Request)>,
    /// Requests for the router-hop comparison (traced runs only).
    pub hop: Vec<Request>,
}

/// Generator of serving requests for one workload and seed.
pub struct ServeGen {
    seed: u64,
    reads: Option<usize>,
    graph: ChimeraGraph,
    spec: Spec,
    /// Repeated structures (empty when every request is a new structure).
    structures: Vec<Arc<MqoProblem>>,
    seen: HashSet<u64>,
    fresh: u64,
}

impl ServeGen {
    pub fn new(spec: &Spec, seed: u64) -> ServeGen {
        let mut gen = ServeGen {
            seed,
            reads: spec.opt_usize("reads"),
            graph: ChimeraGraph::dwave_2x(),
            spec: spec.clone(),
            structures: Vec::new(),
            seen: HashSet::new(),
            fresh: 0,
        };
        if !spec.flag("unique_structures") {
            for _ in 0..spec.usize("structures") {
                let problem = gen.new_structure();
                gen.structures.push(problem);
            }
        }
        gen
    }

    /// A paper-class instance whose logical structure no earlier call
    /// returned. The plan class cycles through the spec's classes; the
    /// query count brings the instance near the spec's plan count, so all
    /// classes cost about the same to solve.
    fn new_structure(&mut self) -> Arc<MqoProblem> {
        let classes = self.spec.usize_list("plan_classes");
        let plans = self.spec.usize("plans_per_instance");
        loop {
            let k = self.fresh;
            self.fresh += 1;
            let class = classes[k as usize % classes.len()];
            let max_queries = ((plans + class / 2) / class).max(1);
            let cfg = PaperWorkloadConfig {
                sharing_probability: self.spec.f64("sharing_probability"),
                max_queries,
                ..PaperWorkloadConfig::paper_class(class)
            };
            let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed, STREAM_STRUCTURE, k));
            let instance = paper::generate(&self.graph, &cfg, &mut rng)
                .expect("paper instances fit the D-Wave 2X graph");
            let key = mqo_service::shard::structure_key(&instance.problem, EPSILON);
            if self.seen.insert(key) {
                return Arc::new(instance.problem);
            }
        }
    }

    /// Request `index` of phase `phase`: a repeated structure picked by the
    /// seed, or a structure never sent before; always a fresh solve seed.
    fn request(&mut self, phase: u64, index: u64) -> Request {
        let seed = mix(self.seed, STREAM_REQUEST_SEED, (phase << 40) | index);
        let problem = if self.structures.is_empty() {
            self.new_structure()
        } else {
            // The warm-up cycles through every structure; later phases
            // pick one at random.
            let n = self.structures.len() as u64;
            let pick = if phase == 0 {
                index % n
            } else {
                mix(self.seed, STREAM_PICK, (phase << 40) | index) % n
            };
            Arc::clone(&self.structures[pick as usize])
        };
        Request::new(problem, seed, self.reads)
    }

    /// Builds every phase: `closed` requests for the closed loop and a
    /// Poisson arrival schedule at `rate` per second over `open_s` seconds.
    pub fn build(&mut self, closed: usize, rate: f64, open_s: f64, hop: usize) -> ServeInputs {
        let probe = (0..self.spec.usize("probe_requests") as u64)
            .map(|i| self.request(0, i))
            .collect();
        let closed = (0..closed as u64).map(|i| self.request(1, i)).collect();
        let mut arrivals = ChaCha8Rng::seed_from_u64(mix(self.seed, STREAM_ARRIVALS, 0));
        let mut open = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = arrivals.gen();
            t += -(1.0 - u).ln() / rate;
            if t >= open_s {
                break;
            }
            let req = self.request(2, open.len() as u64);
            open.push((Duration::from_secs_f64(t), req));
        }
        let hop = (0..hop as u64).map(|i| self.request(3, i)).collect();
        ServeInputs {
            probe,
            closed,
            open,
            hop,
        }
    }
}

/// The fixed instances of the paper workload: one instance per class, each
/// from a generator stream of its own, on the given machine.
pub fn paper_instances(
    graph: &ChimeraGraph,
    classes: &[usize],
    seed: u64,
) -> Vec<paper::PaperInstance> {
    classes
        .iter()
        .map(|&class| {
            let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, STREAM_INSTANCE, class as u64));
            paper::generate(graph, &PaperWorkloadConfig::paper_class(class), &mut rng)
                .expect("paper classes fit the paper machine")
        })
        .collect()
}

/// The Algorithm-1 seed of fixed paper instance `index`.
pub fn paper_solve_seed(seed: u64, index: usize) -> u64 {
    mix(seed, STREAM_REQUEST_SEED, (4 << 40) | index as u64)
}

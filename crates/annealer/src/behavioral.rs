//! The behavioural device back-end: calibrated sample quality at any scale.
//!
//! **Why this exists.** Faithful classical simulation of 1000-qubit quantum
//! annealing is computationally infeasible — that infeasibility is the very
//! premise of the paper. The physics back-ends ([`crate::sqa`],
//! [`crate::sa`]) reproduce the hardware's behaviour on small problems but
//! fall off at full machine scale (quantified by the `calibrate`/`probe`
//! harness binaries). For full-scale experiments the device model therefore
//! switches to a *behavioural* back-end, in the same way an I/O simulator
//! models a disk by its latency distribution rather than its magnetics:
//!
//! 1. **Oracle phase** (once per programming, i.e. per gauge batch): a
//!    strong, domain-agnostic local search over the *programmed* problem —
//!    greedy descent over single spins, strong-bond cluster flips (chains),
//!    and coupled cluster-pair flips (which is what a logical plan swap
//!    looks like physically), from multiple random starts. This runs inside
//!    [`Sampler::program`], so the expensive search executes exactly once
//!    per gauge batch and its result is shared — immutably — by all reads.
//! 2. **Read phase** (per annealing run): the oracle state is perturbed by
//!    a short Metropolis equilibration at the calibrated inverse
//!    temperature, producing the run-to-run spread. Because the programmed
//!    problem carries gauge-specific control-error noise, reads from
//!    different gauge batches land on genuinely different near-optima of
//!    the *true* problem — exactly the mechanism behind the hardware's
//!    observed residuals (first read ≈ +1.5 % of run best, best-of-1000 ≈
//!    +0.4 % of optimum on MQO instances).
//!
//! Samples never use any information beyond the programmed Ising problem;
//! the MQO semantics, embeddings, and true (noise-free) objective stay
//! invisible, so the device-model contract is identical to the physics
//! back-ends.

use crate::clusters::Units;
use crate::sampler::{metropolis_accept, ProgrammedSampler, ReadScratch, Sampler, SamplerHints};
use mqo_core::ids::VarId;
use mqo_core::ising::Ising;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// Configuration for [`BehavioralSampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehavioralConfig {
    /// Random restarts of the oracle local search per programming.
    pub oracle_restarts: usize,
    /// Metropolis sweeps applied to each read for thermal spread.
    pub read_sweeps: usize,
    /// Inverse temperature of the read equilibration, relative to `max|w|`.
    pub beta: f64,
    /// Relative strength above which a ferromagnetic bond joins a cluster.
    pub cluster_threshold: f64,
}

impl Default for BehavioralConfig {
    fn default() -> Self {
        BehavioralConfig {
            oracle_restarts: 12,
            read_sweeps: 8,
            beta: 40.0,
            cluster_threshold: 0.5,
        }
    }
}

/// The behavioural sampler. The oracle search runs in
/// [`Sampler::program`] — once per gauge batch — and the programmed state
/// is immutable thereafter, so reads can execute concurrently.
#[derive(Debug, Clone, Default)]
pub struct BehavioralSampler {
    config: BehavioralConfig,
}

impl BehavioralSampler {
    /// Creates a sampler with the given configuration.
    pub fn new(config: BehavioralConfig) -> Self {
        assert!(config.oracle_restarts >= 1);
        assert!(config.beta > 0.0);
        BehavioralSampler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> BehavioralConfig {
        self.config
    }

    /// Greedy descent over single spins, unit flips, unit aligns and
    /// coupled unit-pair flips until no move improves.
    ///
    /// Makes exactly the decisions of
    /// [`BehavioralSampler::descend_reference`], in the same order, and so
    /// leaves the same state. Descent draws no randomness, so a move's delta
    /// is a pure function of the spins it reads. A move rejected at step
    /// `c` whose units were not touched after `c` would be evaluated to the
    /// bit-identical delta and rejected again; it is skipped. Unit flip
    /// deltas are memoised under the same stamps and feed the pair deltas.
    pub fn descend(ising: &Ising, units: &Units, moves: &UnitMoves, s: &mut [i8]) {
        debug_assert_eq!(moves.around.len(), units.len());
        let mut stamps = Stamps::new(moves, units.len());
        // Step at which each move was last evaluated and rejected.
        let mut spin_checked = vec![0u64; ising.num_spins()];
        let mut align_checked = vec![[0u64; 2]; units.len()];
        let mut pair_checked = vec![0u64; moves.pairs.len()];

        loop {
            let mut improved = false;
            for i in 0..ising.num_spins() {
                let u = units.unit_of[i] as usize;
                if stamps.touched[u] <= spin_checked[i] {
                    continue;
                }
                if ising.flip_delta(s, VarId::new(i)) < -1e-12 {
                    s[i] = -s[i];
                    stamps.touch(u);
                    improved = true;
                } else {
                    spin_checked[i] = stamps.clock;
                }
            }
            for (u, checked) in align_checked.iter_mut().enumerate() {
                if units.members[u].len() < 2 {
                    continue;
                }
                if stamps.flip_delta(ising, units, s, u) < -1e-12 {
                    units.apply_flip(s, u);
                    stamps.touch(u);
                    improved = true;
                }
                // Align moves repair broken chains that whole-unit flips
                // leave locally stable.
                for (k, v) in [1i8, -1].into_iter().enumerate() {
                    if stamps.touched[u] <= checked[k] {
                        continue;
                    }
                    if units.align_delta(ising, s, u, v) < -1e-12 {
                        units.apply_align(s, u, v);
                        stamps.touch(u);
                        improved = true;
                    } else {
                        checked[k] = stamps.clock;
                    }
                }
            }
            for (p, &(a, b)) in moves.pairs.iter().enumerate() {
                let (a, b) = (a as usize, b as usize);
                if stamps.touched[a].max(stamps.touched[b]) <= pair_checked[p] {
                    continue;
                }
                let delta_a = stamps.flip_delta(ising, units, s, a);
                let delta_b = stamps.flip_delta(ising, units, s, b);
                if units.pair_flip_delta_from(ising, s, a, b, delta_a, delta_b) < -1e-12 {
                    units.apply_flip(s, a);
                    units.apply_flip(s, b);
                    stamps.touch(a);
                    stamps.touch(b);
                    improved = true;
                } else {
                    pair_checked[p] = stamps.clock;
                }
            }
            if !improved {
                return;
            }
        }
    }

    fn run_oracle(
        &self,
        ising: &Ising,
        units: &Units,
        moves: &UnitMoves,
        rng: &mut dyn RngCore,
    ) -> Vec<i8> {
        let n = ising.num_spins();
        let mut best: Option<(f64, Vec<i8>)> = None;
        for _ in 0..self.config.oracle_restarts {
            let mut s: Vec<i8> = (0..n)
                .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                .collect();
            Self::descend(ising, units, moves, &mut s);
            let e = ising.energy(&s);
            if best.as_ref().is_none_or(|(be, _)| e < *be) {
                best = Some((e, s));
            }
        }
        best.expect("at least one restart").1
    }
}

/// The move structure of one programming, shared by every oracle restart:
/// the sorted, deduplicated unit pairs linked by at least one coupling, and
/// each unit's closed neighbourhood (itself and every unit it shares a
/// coupling with).
#[derive(Debug, Clone)]
pub struct UnitMoves {
    pairs: Vec<(u32, u32)>,
    around: Vec<Vec<u32>>,
}

impl UnitMoves {
    /// Derives the unit pairs and neighbourhoods of `units` over `ising`.
    pub fn new(ising: &Ising, units: &Units) -> UnitMoves {
        let mut pairs = Vec::new();
        for &(a, b, _) in ising.couplings() {
            let ua = units.unit_of[a.index()];
            let ub = units.unit_of[b.index()];
            if ua != ub {
                pairs.push(if ua < ub { (ua, ub) } else { (ub, ua) });
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut around: Vec<Vec<u32>> = (0..units.len() as u32).map(|u| vec![u]).collect();
        for &(a, b) in &pairs {
            around[a as usize].push(b);
            around[b as usize].push(a);
        }
        UnitMoves { pairs, around }
    }
}

/// The step clock of one descent and what it stamps. Every move reads only
/// spins of the units it moves and of their neighbours, and writes only
/// spins of the units it moves; so a move on `u` touches `u`'s closed
/// neighbourhood, and `touched[u]` is the last step that may have changed
/// an input of a move on `u`.
struct Stamps<'a> {
    around: &'a [Vec<u32>],
    clock: u64,
    touched: Vec<u64>,
    /// Memoised [`Units::flip_delta`] per unit and the step it was taken at.
    flip: Vec<(f64, u64)>,
}

impl<'a> Stamps<'a> {
    fn new(moves: &'a UnitMoves, units: usize) -> Self {
        // Everything starts touched at step 1, after every "never" (0).
        Stamps {
            around: &moves.around,
            clock: 1,
            touched: vec![1; units],
            flip: vec![(0.0, 0); units],
        }
    }

    /// Records a move applied to unit `u`.
    fn touch(&mut self, u: usize) {
        self.clock += 1;
        for &v in &self.around[u] {
            self.touched[v as usize] = self.clock;
        }
    }

    /// [`Units::flip_delta`] of `u`, recomputed only if `u` was touched
    /// after the memoised value was taken.
    fn flip_delta(&mut self, ising: &Ising, units: &Units, s: &[i8], u: usize) -> f64 {
        let (delta, at) = self.flip[u];
        if self.touched[u] <= at {
            return delta;
        }
        let delta = units.flip_delta(ising, s, u);
        self.flip[u] = (delta, self.clock);
        delta
    }
}

impl Sampler for BehavioralSampler {
    type Programmed = ProgrammedBehavioral;

    fn program(
        &self,
        ising: Ising,
        hints: &SamplerHints<'_>,
        rng: &mut dyn RngCore,
    ) -> ProgrammedBehavioral {
        let units = if hints.chains.is_empty() {
            Units::detect(&ising, self.config.cluster_threshold)
        } else {
            Units::from_chains(&ising, hints.chains)
        };
        let oracle = if ising.num_spins() == 0 {
            Vec::new()
        } else {
            let moves = UnitMoves::new(&ising, &units);
            self.run_oracle(&ising, &units, &moves, rng)
        };
        let beta = self.config.beta / ising.max_abs_weight().max(f64::MIN_POSITIVE);
        ProgrammedBehavioral {
            config: self.config,
            beta,
            oracle,
            units,
            ising,
        }
    }

    fn name(&self) -> &'static str {
        "behavioral"
    }
}

/// [`BehavioralSampler`] programmed with one problem: the oracle state has
/// been computed and every read equilibrates around it independently.
#[derive(Debug, Clone)]
pub struct ProgrammedBehavioral {
    pub(crate) config: BehavioralConfig,
    pub(crate) beta: f64,
    pub(crate) oracle: Vec<i8>,
    pub(crate) units: Units,
    pub(crate) ising: Ising,
}

impl ProgrammedBehavioral {
    /// The oracle state this programming equilibrates reads around.
    pub fn oracle(&self) -> &[i8] {
        &self.oracle
    }

    /// The read-phase equilibration kernel, generic over the RNG
    /// (monomorphized over [`ChaCha8Rng`] on the device hot path).
    ///
    /// Per-spin local fields are maintained incrementally: single-spin
    /// proposals read the cached field, and accepted flips — single-spin
    /// or whole-unit — patch the affected neighbourhoods in `O(deg)`.
    /// Unit-flip deltas are still evaluated by [`Units::flip_delta`] so
    /// the arithmetic matches the reference kernel exactly.
    fn equilibrate<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [i8], fields: &mut Vec<f64>) {
        let ising = &self.ising;
        let units = &self.units;
        let n = ising.num_spins();
        debug_assert_eq!(out.len(), n);
        if n == 0 {
            return;
        }

        // Read phase: short thermal equilibration around the oracle state.
        out.copy_from_slice(&self.oracle);
        let beta = self.beta;
        ising.local_fields_into(out, fields);
        let (offsets, idx, w) = ising.adjacency();
        for _ in 0..self.config.read_sweeps {
            for i in 0..n {
                let delta = -2.0 * f64::from(out[i]) * fields[i];
                if metropolis_accept(rng, beta, delta) {
                    let flipped = -out[i];
                    out[i] = flipped;
                    let step = f64::from(flipped);
                    let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                    for k in lo..hi {
                        fields[idx[k] as usize] += 2.0 * w[k] * step;
                    }
                }
            }
            for u in 0..units.len() {
                if units.members[u].len() < 2 {
                    continue;
                }
                let delta = units.flip_delta(ising, out, u);
                if metropolis_accept(rng, beta, delta) {
                    units.apply_flip(out, u);
                    for &i in &units.members[u] {
                        let step = f64::from(out[i]);
                        let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                        for k in lo..hi {
                            fields[idx[k] as usize] += 2.0 * w[k] * step;
                        }
                    }
                }
            }
        }
    }
}

impl ProgrammedSampler for ProgrammedBehavioral {
    fn num_spins(&self) -> usize {
        self.ising.num_spins()
    }

    fn sample_into(&self, rng: &mut dyn RngCore, out: &mut [i8]) {
        self.equilibrate(rng, out, &mut Vec::new());
    }

    fn sample_into_fast(&self, rng: &mut ChaCha8Rng, out: &mut [i8], scratch: &mut ReadScratch) {
        self.equilibrate(rng, out, &mut scratch.fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_core::ising::spins_to_bits;
    use mqo_core::qubo::Qubo;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn frustrated_qubo() -> Qubo {
        let mut b = Qubo::builder(6);
        for i in 0..6u32 {
            b.add_linear(VarId(i), (i as f64) - 2.5);
        }
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                b.add_quadratic(VarId(i), VarId(j), ((i + 2 * j) % 5) as f64 - 2.0);
            }
        }
        b.build()
    }

    #[test]
    fn finds_the_ground_state_of_small_problems() {
        let qubo = frustrated_qubo();
        let ising = Ising::from_qubo(&qubo);
        let (_, opt) = qubo.brute_force_minimum();
        let sampler = BehavioralSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut hits = 0;
        for _ in 0..20 {
            let s = sampler.sample(&ising, &mut rng);
            if (qubo.energy(&spins_to_bits(&s)) - opt).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(hits >= 15, "only {hits}/20 ground-state reads");
    }

    #[test]
    fn reads_have_thermal_spread() {
        let ising = Ising::from_qubo(&frustrated_qubo());
        let sampler = BehavioralSampler::new(BehavioralConfig {
            beta: 2.0, // hot → visible spread
            ..BehavioralConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let energies: std::collections::BTreeSet<i64> = (0..40)
            .map(|_| (ising.energy(&sampler.sample(&ising, &mut rng)) * 1000.0) as i64)
            .collect();
        assert!(energies.len() > 1, "reads must not be identical");
    }

    #[test]
    fn oracle_runs_once_per_programming() {
        // With zero read sweeps, every read returns the oracle state
        // verbatim — so all reads of one programming must be identical,
        // and the expensive search demonstrably runs in `program`, not
        // per read.
        let ising = Ising::from_qubo(&frustrated_qubo());
        let sampler = BehavioralSampler::new(BehavioralConfig {
            read_sweeps: 0,
            ..BehavioralConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let programmed = sampler.program(ising.clone(), &SamplerHints::default(), &mut rng);
        let mut a = vec![0i8; ising.num_spins()];
        let mut b = vec![0i8; ising.num_spins()];
        programmed.sample_into(&mut ChaCha8Rng::seed_from_u64(1), &mut a);
        programmed.sample_into(&mut ChaCha8Rng::seed_from_u64(2), &mut b);
        assert_eq!(a, b, "reads with no sweeps must replay the oracle state");

        // A fresh programming of a different problem yields its own oracle.
        let other = Ising::new(vec![1.0, -1.0], vec![], 0.0);
        let p2 = sampler.program(other, &SamplerHints::default(), &mut rng);
        assert_eq!(p2.num_spins(), 2);
        let mut c = vec![0i8; 2];
        p2.sample_into(&mut ChaCha8Rng::seed_from_u64(3), &mut c);
        assert_eq!(c, vec![-1, 1], "descent solves the trivial field problem");
    }

    /// Three chains, one of them gauge-flipped (antiferromagnetic bonds),
    /// and a free spin, linked by weak frustrated couplings.
    fn chained_ising() -> (Ising, Vec<Vec<usize>>) {
        let ising = Ising::new(
            vec![0.5, -1.0, 0.25, 1.0, -0.5, 0.75, 0.0, -0.25],
            vec![
                (VarId(0), VarId(1), -4.0),
                (VarId(1), VarId(2), -4.0),
                (VarId(3), VarId(4), -3.0),
                (VarId(5), VarId(6), 3.0),
                (VarId(2), VarId(3), 1.0),
                (VarId(0), VarId(4), -0.5),
                (VarId(4), VarId(5), 1.0),
                (VarId(1), VarId(6), -1.0),
                (VarId(6), VarId(7), 0.5),
                (VarId(2), VarId(7), -1.0),
            ],
            0.0,
        );
        (ising, vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]])
    }

    #[test]
    fn descent_reaches_pairwise_local_minima() {
        let frustrated = Ising::from_qubo(&frustrated_qubo());
        let frustrated_units = Units::detect(&frustrated, 0.5);
        let (chained, chains) = chained_ising();
        let chained_units = Units::from_chains(&chained, &chains);
        let cases = [(frustrated, frustrated_units), (chained, chained_units)];
        for (ising, units) in &cases {
            let n = ising.num_spins();
            let moves = UnitMoves::new(ising, units);
            for mask in 0u32..(1 << n) {
                let mut s: Vec<i8> = (0..n)
                    .map(|i| if mask & (1 << i) != 0 { 1 } else { -1 })
                    .collect();
                BehavioralSampler::descend(ising, units, &moves, &mut s);
                for i in 0..n {
                    assert!(ising.flip_delta(&s, VarId::new(i)) >= -1e-9);
                }
                for u in 0..units.len() {
                    assert!(units.flip_delta(ising, &s, u) >= -1e-9);
                    for v in [1i8, -1] {
                        assert!(units.align_delta(ising, &s, u, v) >= -1e-9);
                    }
                }
                for &(a, b) in &moves.pairs {
                    let delta = units.pair_flip_delta(ising, &s, a as usize, b as usize);
                    assert!(delta >= -1e-9, "units {a},{b} mask {mask}: {delta}");
                }
            }
        }
        // Pair moves are exercised: five of the chained problem's six unit
        // pairs are coupled.
        let (ising, units) = &cases[1];
        assert_eq!(UnitMoves::new(ising, units).pairs.len(), 5);
    }

    #[test]
    fn handles_empty_problems() {
        let ising = Ising::new(vec![], vec![], 0.0);
        let sampler = BehavioralSampler::default();
        assert!(sampler
            .sample(&ising, &mut ChaCha8Rng::seed_from_u64(0))
            .is_empty());
    }
}

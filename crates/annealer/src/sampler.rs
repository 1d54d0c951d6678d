//! The sampler abstraction: anything that can draw low-energy spin
//! configurations from an Ising problem.
//!
//! The real D-Wave 2X performs one *annealing run* per read; a sampler here
//! plays the role of one such run. The device model in [`crate::device`]
//! wraps a sampler with gauge transformations, control-error noise, and the
//! per-read timing model.

use crate::faults::FaultEvents;
use mqo_core::ising::Ising;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// Below this Metropolis exponent the acceptance test is decided without
/// drawing. The acceptance draw is a 32-bit uniform compared against
/// `⌊exp(arg)·2³²⌋`, and that floor is `0` for every `arg < −32·ln 2 ≈
/// −22.1807`: an uphill move this unlikely *cannot* be accepted at the
/// draw's resolution, so it is rejected outright and the RNG stream is not
/// advanced. (The constant sits a margin below `−32·ln 2` so the rounding
/// of `exp` itself can never produce a non-zero floor past the cutoff.)
/// Frozen-phase sweeps therefore cost no random draws and no `exp` calls —
/// and a sweep that consumes no randomness and accepts nothing is invariant
/// under any further cooling, which is what makes the early-freeze exit in
/// the kernels exact rather than approximate.
pub const METROPOLIS_EXP_CUTOFF: f64 = -22.181;

/// The shared Metropolis acceptance rule of every fast annealing kernel.
///
/// Downhill and neutral moves (`delta <= 0`) are accepted without a draw;
/// hopeless uphill moves (`−β·delta` below [`METROPOLIS_EXP_CUTOFF`]) are
/// rejected without a draw; everything else draws one 32-bit uniform `u`
/// and accepts iff `u < ⌊exp(−β·delta)·2³²⌋` (the saturating `as u32`
/// cast *is* that floor for this argument range). A 32-bit acceptance
/// draw quantizes probabilities to multiples of `2⁻³²` — far below
/// anything an annealing schedule can resolve — and costs half the
/// random bytes of a 53-bit uniform.
///
/// The comparison is decided by [`bounded_accept`] from the draw's float
/// bucket; `exp` runs only for the ~0.1 % of draws whose bucket straddles
/// the threshold. The decision is the one
/// [`crate::reference::metropolis_accept_reference`] makes, draw for draw,
/// which the reference kernels and `tests/proptest_kernels.rs` pin.
#[inline]
pub fn metropolis_accept<R: Rng + ?Sized>(rng: &mut R, beta: f64, delta: f64) -> bool {
    if delta <= 0.0 {
        return true;
    }
    let arg = -beta * delta;
    if arg < METROPOLIS_EXP_CUTOFF {
        return false;
    }
    let u = rng.next_u32();
    match bounded_accept(u, arg) {
        Some(accept) => accept,
        None => exact_accept(u, arg),
    }
}

/// The acceptance comparison with `exp` evaluated: the fallback of
/// [`metropolis_accept`] when [`bounded_accept`] cannot call the draw.
#[cold]
#[inline(never)]
fn exact_accept(u: u32, arg: f64) -> bool {
    u < (arg.exp() * 4_294_967_296.0) as u32
}

/// Decides `u < ⌊exp(arg)·2³²⌋` (saturating cast) without `exp`, or
/// returns `None` when the draw is too close to the threshold to call.
///
/// *Restating the test.* Let `v = u + 1`, exact as an `f64` in `1..=2³²`,
/// and `P = fl(exp(arg))·2³²` (the scaling is exact). If `u = u32::MAX`
/// the saturated cast is at most `u32::MAX`, so the test rejects for every
/// `arg`. Otherwise `u < ⌊P⌋_sat ⟺ v ≤ P`: below `2³²` because `v` is an
/// integer, and at or above `2³²` both sides hold since `v < 2³²`.
///
/// *Bucketing the draw.* Write `v = 2^e·(1+f)` with `e` (`0..=32`) from
/// the exponent bits and bucket `m` (`0..256`) from the top 8 mantissa
/// bits, so `2^e·(1+m/256) ≤ v < 2^e·(1+(m+1)/256)`. With
/// `t = arg + (32−e)·ln 2`, `v ≤ P` is `ln(v/2^e) ≤ t` up to the rounding
/// of `exp`; the bucket brackets `ln(v/2^e)` between `ln(1+m/256)` and
/// `ln(1+(m+1)/256)`. So `t ≥ ACCEPT_AT[m]` accepts, `t < REJECT_BELOW[m]`
/// rejects, and anything between is `None`.
///
/// *Why the margin makes it exact.* Both tables sit `LN_MARGIN` = 1e-9
/// outside the bucket's log edges. Every error is far below that in the
/// log domain: `t` and the table entries round by less than 1e-14 (for
/// `arg` in `[METROPOLIS_EXP_CUTOFF, 0]`, `|arg|, |(32−e)·ln 2| ≤ 22.2`,
/// and the const-evaluated `ln` is good to ~1e-16), and libm `exp` is off
/// by about one ulp, ≈ 2.2e-16 relative. So `t ≥ ACCEPT_AT[m]` proves
/// `P > v·(1 + ~1e-9)` and `t < REJECT_BELOW[m]` proves `P < v·(1 − ~1e-9)`:
/// each decision taken here is the one the `exp` expression takes.
///
/// *Edge cases.* `e = 32` happens only for `u = u32::MAX`, whose test
/// always rejects; its scale is `−∞`, so `t = −∞` rejects (a NaN `t`,
/// from `arg = +∞`, returns `None`). `arg = −0.0`, `−f64::MIN_POSITIVE`
/// and other `arg` near 0 make `fl(exp(arg)) = 1`, the saturated case:
/// every `u < u32::MAX` accepts, and the bucket accepts them all except
/// the top bucket of `e = 31`, whose `t = ln 2` lies between its two
/// bounds and falls back. Positive `arg` (negative β) gives `t ≥ ln 2`, which no
/// bucket rejects, and `P ≥ 2³²`, where every `u < u32::MAX` accepts.
#[inline]
#[must_use]
pub fn bounded_accept(u: u32, arg: f64) -> Option<bool> {
    let bits = (f64::from(u) + 1.0).to_bits();
    let e = ((bits >> 52) - 1023) as usize;
    let m = ((bits >> 44) & 0xff) as usize;
    let t = arg + LN_SCALE[e];
    if t >= ACCEPT_AT[m] {
        Some(true)
    } else if t < REJECT_BELOW[m] {
        Some(false)
    } else {
        None
    }
}

/// Log-domain margin of the bucket tables, far above every rounding error
/// of [`bounded_accept`]'s inputs (< 1e-14) and far below a bucket's width
/// (≈ 2.0e-3 to 3.9e-3), so it adds almost no fallbacks.
const LN_MARGIN: f64 = 1e-9;

/// `REJECT_BELOW[m] = ln(1 + m/256) − LN_MARGIN`: below it, every draw of
/// bucket `m` rejects.
static REJECT_BELOW: [f64; 256] = bucket_edges(0.0, -LN_MARGIN);

/// `ACCEPT_AT[m] = ln(1 + (m+1)/256) + LN_MARGIN`: at or above it, every
/// draw of bucket `m` accepts.
static ACCEPT_AT: [f64; 256] = bucket_edges(1.0, LN_MARGIN);

/// `LN_SCALE[e] = (32 − e)·ln 2` moves `arg` from the `2³²` scale of the
/// draw to the `[1, 2)` scale of its mantissa; `e = 32` (only `u =
/// u32::MAX`, which never accepts) maps to `−∞`.
static LN_SCALE: [f64; 33] = {
    let mut table = [f64::NEG_INFINITY; 33];
    let mut e = 0;
    while e < 32 {
        table[e] = (32 - e) as f64 * std::f64::consts::LN_2;
        e += 1;
    }
    table
};

/// `ln(1 + (m + offset)/256) + margin` for every bucket `m`.
const fn bucket_edges(offset: f64, margin: f64) -> [f64; 256] {
    let mut table = [0.0; 256];
    let mut m = 0;
    while m < 256 {
        table[m] = ln_1_to_2(1.0 + (m as f64 + offset) / 256.0) + margin;
        m += 1;
    }
    table
}

/// `ln x` for `x ∈ [1, 2]`, evaluable in const context: `2·atanh(z)` with
/// `z = (x−1)/(x+1) ≤ 1/3`, whose series terms fall below `1e-28` by the
/// 30th; accurate to a few ulps.
const fn ln_1_to_2(x: f64) -> f64 {
    let z = (x - 1.0) / (x + 1.0);
    let z2 = z * z;
    let mut power = z;
    let mut sum = 0.0;
    let mut k = 1;
    while k < 60 {
        sum += power / k as f64;
        power *= z2;
        k += 2;
    }
    2.0 * sum
}

/// Reusable per-worker buffers threaded through
/// [`ProgrammedSampler::sample_into_fast`], so hot read loops allocate
/// nothing per read. A device worker owns one `ReadScratch` for its whole
/// chunk of reads; kernels resize the buffers they need and overwrite them
/// completely, so stale contents never leak between reads.
#[derive(Debug, Clone, Default)]
pub struct ReadScratch {
    /// Per-spin local fields (`num_spins`, or `slices · num_spins` for
    /// replica kernels).
    pub fields: Vec<f64>,
    /// Spin configurations (replica kernels store all slices flattened).
    pub spins: Vec<i8>,
    /// Per-slice energies for replica read-out.
    pub energies: Vec<f64>,
    /// Active-spin bitmask words for kernels that skip frozen spins.
    pub mask: Vec<u64>,
    /// Spin configurations as `±1.0` doubles, for kernels whose hot loop
    /// avoids `i8 ↔ f64` conversion entirely.
    pub spinf: Vec<f64>,
}

/// Host-side structure hints the device may hand to a sampler.
///
/// The host *programmed* the minor embedding, so host-side machinery (like
/// D-Wave's own chain-aware unembedding and postprocessing tools) knows
/// which spins form chains. Samplers may use this for collective moves;
/// chain strengths alone cannot reveal it, because Choi's per-chain bound
/// makes chains of cheap-to-deselect variables arbitrarily weak.
#[derive(Debug, Clone, Copy, Default)]
pub struct SamplerHints<'a> {
    /// Spin groups (by dense spin index) that represent one logical
    /// variable each. Empty when the problem was not minor-embedded.
    pub chains: &'a [Vec<usize>],
}

/// Draws low-energy spin configurations from an Ising problem.
///
/// The interface mirrors the device's two-phase protocol: [`Sampler::program`]
/// is called once per programming cycle (gauge batch) and may run arbitrary
/// per-problem precomputation; the returned [`ProgrammedSampler`] then serves
/// many independent reads. Both phases must be deterministic given the RNG
/// stream, so that experiments are reproducible from a seed, and programmed
/// samplers must be shareable across threads — the device fans reads out over
/// a worker pool.
pub trait Sampler: Send + Sync {
    /// The programmed form of this sampler. A concrete associated type
    /// (instead of `Box<dyn ProgrammedSampler>`) lets the device store
    /// per-gauge programmings unboxed and dispatch reads statically.
    type Programmed: ProgrammedSampler;

    /// Programs the sampler with one (noise-perturbed, gauged) problem.
    ///
    /// Takes the Ising model by value so the programmed state is
    /// self-contained and can outlive the caller's borrow. `rng` is the
    /// *programming* stream; per-read randomness comes from the streams
    /// handed to [`ProgrammedSampler::sample_into`].
    fn program(
        &self,
        ising: Ising,
        hints: &SamplerHints<'_>,
        rng: &mut dyn RngCore,
    ) -> Self::Programmed;

    /// Human-readable sampler name for experiment logs.
    fn name(&self) -> &'static str;

    /// Convenience: programs the problem and performs a single annealing
    /// run, returning the final spin configuration (`±1` per spin).
    fn sample(&self, ising: &Ising, rng: &mut dyn RngCore) -> Vec<i8> {
        self.sample_hinted(ising, &SamplerHints::default(), rng)
    }

    /// Like [`Sampler::sample`], with embedding hints available.
    fn sample_hinted(
        &self,
        ising: &Ising,
        hints: &SamplerHints<'_>,
        rng: &mut dyn RngCore,
    ) -> Vec<i8> {
        let programmed = self.program(ising.clone(), hints, rng);
        let mut out = vec![0i8; ising.num_spins()];
        programmed.sample_into(rng, &mut out);
        out
    }
}

/// A sampler that has been programmed with one problem and now serves
/// independent reads.
///
/// Reads must depend only on the programmed state and the per-read RNG
/// stream — never on interior mutability carried between calls — so that
/// reads can execute concurrently and in any order with identical results.
pub trait ProgrammedSampler: Send + Sync {
    /// Number of spins in the programmed problem.
    fn num_spins(&self) -> usize;

    /// Performs one annealing run, writing the final spin configuration
    /// (`±1` per spin) into `out`, which has length
    /// [`ProgrammedSampler::num_spins`]. Every element of `out` is
    /// overwritten; the previous contents are scratch.
    fn sample_into(&self, rng: &mut dyn RngCore, out: &mut [i8]);

    /// Monomorphic hot path of [`ProgrammedSampler::sample_into`]: the RNG
    /// is the concrete [`ChaCha8Rng`] every device stream uses (no virtual
    /// call per draw) and `scratch` supplies reusable buffers (no per-read
    /// allocation). Must produce bit-identical output to `sample_into` on
    /// the same RNG state; the default implementation simply delegates.
    fn sample_into_fast(&self, rng: &mut ChaCha8Rng, out: &mut [i8], scratch: &mut ReadScratch) {
        let _ = scratch;
        self.sample_into(rng, out);
    }
}

/// A single annealed-and-read-out configuration with bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    /// Spin configuration mapped to binary (QUBO) variables.
    pub assignment: Vec<bool>,
    /// True (noise-free) energy of the assignment under the programmed QUBO.
    pub energy: f64,
    /// Simulated device time elapsed when this read completed, in
    /// microseconds (anneal + read-out, accumulated over the run so far).
    pub elapsed_us: f64,
    /// Which gauge transformation batch produced this read.
    pub gauge: usize,
}

/// An ordered collection of reads from one device run.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    reads: Vec<Read>,
    faults: FaultEvents,
}

impl SampleSet {
    /// Wraps reads in chronological order (no faults recorded).
    pub fn new(reads: Vec<Read>) -> Self {
        SampleSet::with_faults(reads, FaultEvents::default())
    }

    /// Wraps reads in chronological order together with the fault events
    /// the device injected while producing them.
    pub fn with_faults(reads: Vec<Read>, faults: FaultEvents) -> Self {
        debug_assert!(reads.windows(2).all(|w| w[0].elapsed_us <= w[1].elapsed_us));
        SampleSet { reads, faults }
    }

    /// Fault events injected during the run (all-zero without injection).
    pub fn faults(&self) -> &FaultEvents {
        &self.faults
    }

    /// All reads in chronological order.
    pub fn reads(&self) -> &[Read] {
        &self.reads
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// The lowest-energy read overall.
    pub fn best(&self) -> Option<&Read> {
        self.reads
            .iter()
            .min_by(|a, b| a.energy.total_cmp(&b.energy))
    }

    /// The lowest-energy read among those completed within `elapsed_us`
    /// simulated device time — the anytime view used in Figures 4 and 5.
    pub fn best_within(&self, elapsed_us: f64) -> Option<&Read> {
        self.reads
            .iter()
            .take_while(|r| r.elapsed_us <= elapsed_us)
            .min_by(|a, b| a.energy.total_cmp(&b.energy))
    }

    /// Iterates `(elapsed_us, best_energy_so_far)` — the quality-vs-time
    /// trajectory of the run.
    pub fn trajectory(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.reads.len());
        let mut best = f64::INFINITY;
        for r in &self.reads {
            if r.energy < best {
                best = r.energy;
            }
            out.push((r.elapsed_us, best));
        }
        out
    }

    /// Per-chain break statistics over all reads, against the given chains
    /// (dense physical indices per logical variable, e.g. from
    /// `PhysicalMapping::dense_chains`). A chain is *broken* in a read when
    /// its qubits disagree; broken chains are repaired by majority vote,
    /// with exact ties resolved to `true` by convention.
    pub fn chain_break_stats(&self, chains: &[Vec<usize>]) -> ChainBreakStats {
        let mut breaks_per_chain = vec![0usize; chains.len()];
        let mut total_breaks = 0;
        let mut majority_repairs = 0;
        let mut tie_breaks = 0;
        for r in &self.reads {
            for (c, chain) in chains.iter().enumerate() {
                let ones = chain.iter().filter(|&&i| r.assignment[i]).count();
                if ones != 0 && ones != chain.len() {
                    breaks_per_chain[c] += 1;
                    total_breaks += 1;
                    if 2 * ones == chain.len() {
                        tie_breaks += 1;
                    } else {
                        majority_repairs += 1;
                    }
                }
            }
        }
        ChainBreakStats {
            reads: self.reads.len(),
            breaks_per_chain,
            total_breaks,
            majority_repairs,
            tie_breaks,
        }
    }
}

/// Chain-break statistics of one device run, per chain and aggregated.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChainBreakStats {
    /// Reads the statistics cover.
    pub reads: usize,
    /// Break count per chain (index = logical variable order of the chains
    /// the statistics were computed against).
    pub breaks_per_chain: Vec<usize>,
    /// Total broken-chain observations across all reads and chains.
    pub total_breaks: usize,
    /// Broken chains where a strict qubit majority determined the value.
    pub majority_repairs: usize,
    /// Broken chains with an exact tie, resolved to `true` by convention.
    pub tie_breaks: usize,
}

impl ChainBreakStats {
    /// Number of chains covered.
    #[must_use]
    pub fn num_chains(&self) -> usize {
        self.breaks_per_chain.len()
    }

    /// Mean break probability per (read, chain) cell.
    #[must_use]
    pub fn break_rate(&self) -> f64 {
        let cells = self.reads * self.breaks_per_chain.len();
        if cells == 0 {
            0.0
        } else {
            self.total_breaks as f64 / cells as f64
        }
    }

    /// Break rate of the most fragile chain.
    #[must_use]
    pub fn max_chain_break_rate(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.breaks_per_chain
            .iter()
            .map(|&b| b as f64 / self.reads as f64)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(e: f64, t: f64) -> Read {
        Read {
            assignment: vec![],
            energy: e,
            elapsed_us: t,
            gauge: 0,
        }
    }

    #[test]
    fn bucket_tables_match_libm_logarithms() {
        for m in 0..256 {
            let lo = (1.0 + m as f64 / 256.0).ln();
            let hi = (1.0 + (m + 1) as f64 / 256.0).ln();
            assert!(
                (REJECT_BELOW[m] + LN_MARGIN - lo).abs() < 1e-15,
                "bucket {m}"
            );
            assert!((ACCEPT_AT[m] - LN_MARGIN - hi).abs() < 1e-15, "bucket {m}");
        }
        for (e, &scale) in LN_SCALE[..32].iter().enumerate() {
            assert_eq!(scale, (32 - e) as f64 * std::f64::consts::LN_2);
        }
        assert_eq!(LN_SCALE[32], f64::NEG_INFINITY);
    }

    #[test]
    fn best_and_best_within_respect_time_cutoffs() {
        let s = SampleSet::new(vec![read(5.0, 376.0), read(2.0, 752.0), read(3.0, 1128.0)]);
        assert_eq!(s.best().unwrap().energy, 2.0);
        assert_eq!(s.best_within(400.0).unwrap().energy, 5.0);
        assert_eq!(s.best_within(800.0).unwrap().energy, 2.0);
        assert!(s.best_within(100.0).is_none());
    }

    #[test]
    fn trajectory_is_monotone_non_increasing() {
        let s = SampleSet::new(vec![
            read(5.0, 1.0),
            read(7.0, 2.0),
            read(2.0, 3.0),
            read(4.0, 4.0),
        ]);
        let t = s.trajectory();
        assert_eq!(t, vec![(1.0, 5.0), (2.0, 5.0), (3.0, 2.0), (4.0, 2.0)]);
    }

    #[test]
    fn empty_set_behaves() {
        let s = SampleSet::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.best().is_none());
        assert!(s.trajectory().is_empty());
        assert!(s.faults().is_empty());
        let stats = s.chain_break_stats(&[]);
        assert_eq!(stats.break_rate(), 0.0);
        assert_eq!(stats.max_chain_break_rate(), 0.0);
    }

    fn read_bits(bits: &[bool]) -> Read {
        Read {
            assignment: bits.to_vec(),
            energy: 0.0,
            elapsed_us: 376.0,
            gauge: 0,
        }
    }

    #[test]
    fn chain_break_stats_count_breaks_majorities_and_ties() {
        // Chains: [0,1,2] and [3,4]. Read 1: first chain broken 2-vs-1
        // (majority), second intact. Read 2: first intact, second tied.
        let reads = [
            read_bits(&[true, true, false, false, false]),
            read_bits(&[false, false, false, true, false]),
        ];
        let mut r2 = reads[1].clone();
        r2.elapsed_us = 752.0;
        let s = SampleSet::new(vec![reads[0].clone(), r2]);
        let chains = vec![vec![0, 1, 2], vec![3, 4]];
        let stats = s.chain_break_stats(&chains);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.num_chains(), 2);
        assert_eq!(stats.breaks_per_chain, vec![1, 1]);
        assert_eq!(stats.total_breaks, 2);
        assert_eq!(stats.majority_repairs, 1);
        assert_eq!(stats.tie_breaks, 1);
        assert!((stats.break_rate() - 0.5).abs() < 1e-12);
        assert!((stats.max_chain_break_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn faults_are_carried_by_the_set() {
        let faults = crate::faults::FaultEvents {
            readout_flips: 4,
            ..Default::default()
        };
        let s = SampleSet::with_faults(vec![read(1.0, 376.0)], faults.clone());
        assert_eq!(s.faults(), &faults);
    }
}

//! Property-based bit-identity tests for the fast annealing kernels.
//!
//! The hot kernels (monomorphic RNG, SoA adjacency, incremental local
//! fields, scratch reuse, SA's early-freeze exit) must produce **the exact
//! same bytes** as two independent transcriptions of the algorithm: the
//! trait-object path ([`ProgrammedSampler::sample_into`]) and the naive
//! reference kernels in [`mqo_annealer::reference`]. These tests drive all
//! three from identical RNG states over random problems and assert
//! byte-for-byte equality — and additionally pin the device protocol's
//! thread-count invariance for every back-end, which now rides on the
//! persistent worker pool. The behavioural oracle's descent, which skips
//! moves whose inputs have not changed, is pinned the same way against the
//! reference descent that re-evaluates every move. The fast kernels'
//! Metropolis decision, taken from the draw's float bucket without `exp`,
//! is pinned against the reference `exp` comparison on single draws too:
//! random, near the threshold, at every bucket edge and at the endpoints.

use mqo_annealer::behavioral::{BehavioralSampler, UnitMoves};
use mqo_annealer::clusters::Units;
use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_annealer::reference::metropolis_accept_reference;
use mqo_annealer::sa::SimulatedAnnealingSampler;
use mqo_annealer::sampler::{
    bounded_accept, metropolis_accept, ProgrammedSampler, ReadScratch, Sampler, SamplerHints,
    METROPOLIS_EXP_CUTOFF,
};
use mqo_annealer::sqa::{PathIntegralQmcSampler, SqaConfig};
use mqo_core::ids::VarId;
use mqo_core::ising::Ising;
use mqo_core::qubo::Qubo;
use proptest::prelude::*;
use rand::rngs::mock::StepRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn arb_ising() -> impl Strategy<Value = Ising> {
    (2usize..=8).prop_flat_map(|n| {
        let h = proptest::collection::vec(-5.0f64..5.0, n);
        let j = proptest::collection::vec(((0..n, 0..n), -3.0f64..3.0), 0..=2 * n);
        (h, j).prop_map(move |(h, j)| {
            let couplings = j
                .into_iter()
                .filter(|((a, b), _)| a != b)
                .map(|((a, b), w)| (VarId::new(a), VarId::new(b), w))
                .collect();
            Ising::new(h, couplings, 0.0)
        })
    })
}

/// A minor-embedded-looking problem of `n` spins: chains of 1–5 spins
/// bonded at −3 or −4, small-integer fields and problem couplings (so
/// exact-zero and tied deltas occur), then a random gauge, which turns
/// the bonds of some chains antiferromagnetic. Returns the problem and its
/// chains (the singletons included, as hints carry them).
fn chained_problem(n: usize, seed: u64) -> (Ising, Vec<Vec<usize>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut chains = Vec::new();
    let mut couplings = Vec::new();
    let mut rest = &order[..];
    while !rest.is_empty() {
        let len = rng.gen_range(1..=5usize).min(rest.len());
        let (chain, tail) = rest.split_at(len);
        let bond = -f64::from(rng.gen_range(3..=4u8));
        for w in chain.windows(2) {
            couplings.push((VarId::new(w[0]), VarId::new(w[1]), bond));
        }
        chains.push(chain.to_vec());
        rest = tail;
    }
    for _ in 0..2 * n {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            let w = f64::from(rng.gen_range(-2..=2i8));
            couplings.push((VarId::new(a), VarId::new(b), w));
        }
    }
    let h = (0..n).map(|_| f64::from(rng.gen_range(-2..=2i8))).collect();
    let gauge: Vec<i8> = (0..n)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect();
    let ising = Ising::new(h, couplings, 0.0).gauge_transformed(&gauge);
    (ising, chains)
}

/// Draws one sample through each of the three code paths from the same RNG
/// state and asserts the outputs and final RNG positions agree exactly.
/// `reference` runs the naive transcription for the concrete programmed
/// type (inherent method, so it cannot be dispatched through the trait).
fn assert_three_way_identity<P: ProgrammedSampler>(
    programmed: &P,
    reference: impl Fn(&mut ChaCha8Rng, &mut [i8]),
    read_seed: u64,
    reads: usize,
) -> Result<(), TestCaseError> {
    let n = programmed.num_spins();
    let mut scratch = ReadScratch::default();
    // One persistent RNG + scratch per path, reused across reads — exactly
    // how a device worker consumes its chunk.
    let mut rng_dyn = ChaCha8Rng::seed_from_u64(read_seed);
    let mut rng_fast = ChaCha8Rng::seed_from_u64(read_seed);
    let mut rng_ref = ChaCha8Rng::seed_from_u64(read_seed);
    for read in 0..reads {
        let mut a = vec![0i8; n];
        let mut b = vec![0i8; n];
        let mut c = vec![0i8; n];
        programmed.sample_into(&mut rng_dyn, &mut a);
        programmed.sample_into_fast(&mut rng_fast, &mut b, &mut scratch);
        reference(&mut rng_ref, &mut c);
        prop_assert_eq!(&a, &b, "dyn vs fast diverged at read {}", read);
        prop_assert_eq!(&a, &c, "dyn vs reference diverged at read {}", read);
        // The RNG stream positions must agree too, or later reads on a
        // shared stream would silently diverge.
        let probe_a = rng_dyn.clone().next_u64();
        let probe_b = rng_fast.clone().next_u64();
        let probe_c = rng_ref.clone().next_u64();
        prop_assert_eq!(probe_a, probe_b, "rng position dyn vs fast, read {}", read);
        prop_assert_eq!(probe_a, probe_c, "rng position dyn vs ref, read {}", read);
    }
    Ok(())
}

use rand::RngCore;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SA: fast, trait-object, and reference kernels are bit-identical,
    /// including RNG stream positions (the early-freeze exit must consume
    /// exactly the draws the reference consumes).
    #[test]
    fn sa_kernels_are_bit_identical(
        ising in arb_ising(),
        prog_seed in 0u64..1000,
        read_seed in 0u64..1000,
    ) {
        let sampler = SimulatedAnnealingSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(prog_seed);
        let programmed = sampler.program(ising, &SamplerHints::default(), &mut rng);
        assert_three_way_identity(
            &programmed,
            |rng, out| programmed.sample_into_reference(rng, out),
            read_seed,
            3,
        )?;
    }

    /// PIQMC: fast, trait-object, and reference kernels are bit-identical
    /// across the replica sweep, cluster moves, and read-out argmin.
    #[test]
    fn sqa_kernels_are_bit_identical(
        ising in arb_ising(),
        prog_seed in 0u64..1000,
        read_seed in 0u64..1000,
    ) {
        // Few sweeps/slices keep the case fast; identity must hold anyway.
        let sampler = PathIntegralQmcSampler::new(SqaConfig {
            sweeps: 24,
            slices: 4,
            ..SqaConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(prog_seed);
        let programmed = sampler.program(ising, &SamplerHints::default(), &mut rng);
        assert_three_way_identity(
            &programmed,
            |rng, out| programmed.sample_into_reference(rng, out),
            read_seed,
            2,
        )?;
    }

    /// Behavioural back-end: fast, trait-object, and reference read kernels
    /// are bit-identical around the shared oracle state.
    #[test]
    fn behavioral_kernels_are_bit_identical(
        ising in arb_ising(),
        prog_seed in 0u64..1000,
        read_seed in 0u64..1000,
    ) {
        let sampler = BehavioralSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(prog_seed);
        let programmed = sampler.program(ising, &SamplerHints::default(), &mut rng);
        assert_three_way_identity(
            &programmed,
            |rng, out| programmed.sample_into_reference(rng, out),
            read_seed,
            3,
        )?;
    }

    /// The oracle descent makes the reference descent's decisions: from the
    /// same start it ends in the same state, with hinted chains (some
    /// gauge-flipped) and with detected clusters.
    #[test]
    fn behavioral_descent_matches_reference(
        n in 10usize..=60,
        seed in 0u64..100_000,
        hinted in 0u8..2,
    ) {
        let (ising, chains) = chained_problem(n, seed);
        let units = if hinted == 1 {
            Units::from_chains(&ising, &chains)
        } else {
            Units::detect(&ising, 0.5)
        };
        let moves = UnitMoves::new(&ising, &units);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        for start in 0..4 {
            let s: Vec<i8> = (0..n)
                .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                .collect();
            let mut fast = s.clone();
            let mut reference = s;
            BehavioralSampler::descend(&ising, &units, &moves, &mut fast);
            BehavioralSampler::descend_reference(&ising, &units, &mut reference);
            prop_assert_eq!(&fast, &reference, "descents diverged from start {}", start);
        }
    }

    /// `program()` yields the oracle of the reference restart loop: the same
    /// starts drawn from the same stream, each run through the reference
    /// descent, the first lowest energy kept.
    #[test]
    fn behavioral_oracle_matches_reference_loop(
        n in 10usize..=60,
        seed in 0u64..100_000,
        prog_seed in 0u64..1000,
    ) {
        let (ising, chains) = chained_problem(n, seed);
        let sampler = BehavioralSampler::default();
        let hints = SamplerHints { chains: &chains };
        let mut rng = ChaCha8Rng::seed_from_u64(prog_seed);
        let programmed = sampler.program(ising.clone(), &hints, &mut rng);

        let units = Units::from_chains(&ising, &chains);
        let mut rng_ref = ChaCha8Rng::seed_from_u64(prog_seed);
        let mut best: Option<(f64, Vec<i8>)> = None;
        for _ in 0..sampler.config().oracle_restarts {
            let mut s: Vec<i8> = (0..n)
                .map(|_| if rng_ref.gen::<bool>() { 1 } else { -1 })
                .collect();
            BehavioralSampler::descend_reference(&ising, &units, &mut s);
            let e = ising.energy(&s);
            if best.as_ref().is_none_or(|(be, _)| e < *be) {
                best = Some((e, s));
            }
        }
        let (_, oracle) = best.expect("at least one restart");
        prop_assert_eq!(programmed.oracle(), &oracle[..]);
        prop_assert_eq!(rng.next_u64(), rng_ref.next_u64(), "rng positions differ");
    }
}

/// Device-protocol thread invariance for one back-end: runs at 1, 2, 3, and
/// 8 threads must be bit-identical (the persistent pool executes chunks,
/// but chunking depends only on the requested thread count).
fn assert_thread_invariant<S: Sampler + Clone>(sampler: S, seed: u64) {
    let mut b = Qubo::builder(5);
    b.add_linear(VarId(0), -1.0);
    b.add_linear(VarId(4), 0.5);
    b.add_quadratic(VarId(0), VarId(1), 1.0);
    b.add_quadratic(VarId(1), VarId(2), -1.0);
    b.add_quadratic(VarId(2), VarId(3), 0.75);
    b.add_quadratic(VarId(3), VarId(4), -0.25);
    let qubo = b.build();
    let ising = Ising::from_qubo(&qubo);
    let run_with = |threads: usize| {
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: 22,
                num_gauges: 4,
                threads,
                ..DeviceConfig::default()
            },
            sampler.clone(),
        )
        .run_ising(&ising, &qubo, seed)
        .unwrap()
    };
    let serial = run_with(1);
    for threads in [2, 3, 8] {
        let parallel = run_with(threads);
        assert_eq!(
            serial.reads(),
            parallel.reads(),
            "thread count {threads} changed the run"
        );
    }
}

#[test]
fn sa_device_runs_are_thread_invariant() {
    assert_thread_invariant(SimulatedAnnealingSampler::default(), 17);
}

#[test]
fn sqa_device_runs_are_thread_invariant() {
    assert_thread_invariant(
        PathIntegralQmcSampler::new(SqaConfig {
            sweeps: 16,
            slices: 4,
            ..SqaConfig::default()
        }),
        18,
    );
}

#[test]
fn behavioral_device_runs_are_thread_invariant() {
    assert_thread_invariant(BehavioralSampler::default(), 19);
}

/// The fast and reference Metropolis decisions on draw `u` at exponent
/// `arg` (as `β = −arg`, `delta = 1`, so `−β·delta` is `arg` exactly),
/// after checking that a bucket decision, where one is taken, agrees too.
fn decisions(u: u32, arg: f64) -> (bool, bool) {
    let (beta, delta) = (-arg, 1.0);
    let fast = metropolis_accept(&mut StepRng::new(u64::from(u), 0), beta, delta);
    let reference = metropolis_accept_reference(&mut StepRng::new(u64::from(u), 0), beta, delta);
    if let Some(bounded) = bounded_accept(u, arg) {
        assert_eq!(
            bounded, reference,
            "bucket decision, u = {u}, arg = {arg:e}"
        );
    }
    (fast, reference)
}

/// `x` moved one ulp toward `+∞` (`up`) or `−∞`.
fn next_float(x: f64, up: bool) -> f64 {
    if x == 0.0 {
        let tiny = f64::from_bits(1);
        return if up { tiny } else { -tiny };
    }
    let bits = x.to_bits();
    f64::from_bits(if (x > 0.0) == up { bits + 1 } else { bits - 1 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Uniform draws over the whole drawing range of the exponent.
    #[test]
    fn metropolis_decision_matches_reference(
        u in any::<u32>(),
        arg in METROPOLIS_EXP_CUTOFF..0.0f64,
    ) {
        let (fast, reference) = decisions(u, arg);
        prop_assert_eq!(fast, reference, "u = {}, arg = {:e}", u, arg);
    }

    /// Exponents within 1e-8 of the draw's own threshold `ln((u+1)/2³²)`,
    /// where the bucket bounds are tightest and the fallback runs.
    #[test]
    fn metropolis_decision_matches_reference_near_threshold(
        u in any::<u32>(),
        offset in -1e-8..1e-8f64,
    ) {
        let arg = ((f64::from(u) + 1.0) / 4_294_967_296.0).ln() + offset;
        let (fast, reference) = decisions(u, arg);
        prop_assert_eq!(fast, reference, "u = {}, arg = {:e}", u, arg);
    }
}

/// Every bucket `(e, m)`: draws at its lower edge and one either side, at
/// exponents within ±4 ulps of each draw's exact threshold.
#[test]
fn metropolis_decision_matches_reference_at_every_bucket_edge() {
    let mut checked = 0usize;
    for e in 0..=32u32 {
        for m in 0..256u64 {
            let edge = ((256 + m) << e).div_ceil(256);
            for v in [edge - 1, edge, edge + 1] {
                if !(1..=1u64 << 32).contains(&v) {
                    continue;
                }
                let u = (v - 1) as u32;
                let threshold = (v as f64 / 4_294_967_296.0).ln();
                for ulps in -4i32..=4 {
                    let mut arg = threshold;
                    for _ in 0..ulps.unsigned_abs() {
                        arg = next_float(arg, ulps > 0);
                    }
                    let (fast, reference) = decisions(u, arg);
                    assert_eq!(fast, reference, "e = {e}, m = {m}, u = {u}, arg = {arg:e}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 33 * 256 * 9, "the sweep covers every bucket");
}

/// The extreme draws at the cutoff and at exponents that round `exp` to 1,
/// where the saturating cast decides: `u32::MAX` never accepts.
#[test]
fn metropolis_decision_matches_reference_at_endpoints() {
    for u in [0, 1, u32::MAX - 1, u32::MAX] {
        for arg in [METROPOLIS_EXP_CUTOFF, -0.0, -f64::MIN_POSITIVE, -1e-300] {
            let (fast, reference) = decisions(u, arg);
            assert_eq!(fast, reference, "u = {u}, arg = {arg:e}");
            if arg != METROPOLIS_EXP_CUTOFF {
                assert_eq!(
                    fast,
                    u != u32::MAX,
                    "saturated cast, u = {u}, arg = {arg:e}"
                );
            }
        }
    }
}

/// The bucket leaves fewer than 1 % of seeded uniform draws to `exp`, and
/// every draw agrees with the reference.
#[test]
fn bounded_accept_rarely_falls_back() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x3e7a);
    let draws = 1_000_000;
    let mut fallbacks = 0;
    for _ in 0..draws {
        let u = rng.next_u32();
        let arg = rng.gen_range(METROPOLIS_EXP_CUTOFF..0.0);
        if bounded_accept(u, arg).is_none() {
            fallbacks += 1;
        }
        let (fast, reference) = decisions(u, arg);
        assert_eq!(fast, reference, "u = {u}, arg = {arg:e}");
    }
    assert!(
        fallbacks * 100 < draws,
        "{fallbacks} of {draws} draws fell back"
    );
}

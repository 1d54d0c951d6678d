//! Ising-model formulation and the exact QUBO ⇄ Ising correspondence.
//!
//! The D-Wave hardware natively minimises an Ising energy
//! `E(s) = Σ_i h_i s_i + Σ_{i<j} J_ij s_i s_j` over spins `s ∈ {−1,+1}^n`.
//! The substitution `x_i = (1 + s_i)/2` maps any QUBO onto an Ising problem
//! (plus a constant offset) and back, preserving the ordering of all
//! solutions. Samplers in `mqo-annealer` operate on [`Ising`] while the rest
//! of the pipeline reasons in QUBO terms.

use crate::error::CoreError;
use crate::ids::VarId;
use crate::qubo::Qubo;
use serde::{Deserialize, Serialize};

/// A sparse Ising problem `Σ h_i s_i + Σ_{i<j} J_ij s_i s_j + offset`.
///
/// The adjacency is stored in structure-of-arrays CSR form
/// (`adj_offsets`/`adj_idx`/`adj_w`) so annealing inner loops can stream
/// neighbour indices and weights from separate dense slices instead of
/// scanning `(VarId, f64)` tuples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ising {
    h: Vec<f64>,
    j: Vec<(VarId, VarId, f64)>,
    offset: f64,
    adj_offsets: Vec<u32>,
    adj_idx: Vec<u32>,
    adj_w: Vec<f64>,
}

impl Ising {
    /// Builds an Ising problem from explicit fields and couplings.
    ///
    /// `couplings` must reference distinct in-range variables; duplicate
    /// (unordered) pairs accumulate.
    pub fn new(h: Vec<f64>, couplings: Vec<(VarId, VarId, f64)>, offset: f64) -> Self {
        let n = h.len();
        debug_assert!(
            h.iter()
                .chain(couplings.iter().map(|(_, _, w)| w))
                .all(|w| w.is_finite()),
            "non-finite Ising weight; untrusted inputs must go through Ising::try_new"
        );
        let mut merged = std::collections::BTreeMap::new();
        for (i, j, w) in couplings {
            assert!(i.index() < n && j.index() < n, "coupling out of range");
            assert_ne!(i, j, "self-coupling is not an Ising term");
            let key = if i < j { (i, j) } else { (j, i) };
            *merged.entry(key).or_insert(0.0) += w;
        }
        let j: Vec<(VarId, VarId, f64)> = merged
            .into_iter()
            .filter(|(_, w)| *w != 0.0)
            .map(|((a, b), w)| (a, b, w))
            .collect();
        Self::from_canonical(h, j, offset)
    }

    /// Like [`Ising::new`], but rejects NaN/infinite fields and couplings
    /// with a typed error. This is the constructor for untrusted input:
    /// a non-finite weight would silently poison every downstream energy
    /// (NaN defeats the `<` comparisons of the annealing kernels), so it
    /// must never reach a programmed sampler.
    pub fn try_new(
        h: Vec<f64>,
        couplings: Vec<(VarId, VarId, f64)>,
        offset: f64,
    ) -> Result<Self, CoreError> {
        for (i, &hi) in h.iter().enumerate() {
            if !hi.is_finite() {
                return Err(CoreError::NonFiniteWeight {
                    term: "field",
                    index: i,
                    value: hi,
                });
            }
        }
        for &(i, _, w) in &couplings {
            if !w.is_finite() {
                return Err(CoreError::NonFiniteWeight {
                    term: "coupling",
                    index: i.index(),
                    value: w,
                });
            }
        }
        Ok(Ising::new(h, couplings, offset))
    }

    /// Builds an Ising problem from an already-canonical coupling list:
    /// unique upper-triangular pairs (`i < j`) sorted lexicographically, as
    /// produced by [`Ising::couplings`] on any existing problem.
    ///
    /// This is the fast path for transformations that preserve the coupling
    /// structure (gauges, control-error perturbation): it skips the merge
    /// map of [`Ising::new`] and builds the adjacency with one counting
    /// sort. Zero weights are *not* filtered; callers deriving from an
    /// existing problem's canonical list keep its exact structure.
    pub fn from_canonical(h: Vec<f64>, couplings: Vec<(VarId, VarId, f64)>, offset: f64) -> Self {
        let n = h.len();
        debug_assert!(
            couplings
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "couplings must be sorted and unique"
        );
        let j = couplings;
        let mut degree = vec![0u32; n];
        for &(a, b, _) in &j {
            assert!(a.index() < n && b.index() < n, "coupling out of range");
            assert!(a < b, "couplings must be upper-triangular");
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }
        let mut adj_offsets = vec![0u32; n + 1];
        for i in 0..n {
            adj_offsets[i + 1] = adj_offsets[i] + degree[i];
        }
        let mut cursor: Vec<u32> = adj_offsets[..n].to_vec();
        let entries = adj_offsets[n] as usize;
        let mut adj_idx = vec![0u32; entries];
        let mut adj_w = vec![0.0f64; entries];
        for &(a, b, w) in &j {
            let ca = cursor[a.index()] as usize;
            adj_idx[ca] = b.index() as u32;
            adj_w[ca] = w;
            cursor[a.index()] += 1;
            let cb = cursor[b.index()] as usize;
            adj_idx[cb] = a.index() as u32;
            adj_w[cb] = w;
            cursor[b.index()] += 1;
        }

        Ising {
            h,
            j,
            offset,
            adj_offsets,
            adj_idx,
            adj_w,
        }
    }

    /// The gauge-transformed problem `h_i → g_i h_i`, `J_ij → g_i g_j J_ij`
    /// for signs `g ∈ {−1, +1}^n`.
    ///
    /// Sign flips leave the adjacency structure untouched, so this reuses
    /// the CSR offsets and neighbour indices and only maps the weights —
    /// no merge map, no counting sort. The result is exactly equal (bit for
    /// bit: sign flips are exact in IEEE arithmetic) to rebuilding via
    /// [`Ising::new`] with transformed terms.
    pub fn gauge_transformed(&self, signs: &[i8]) -> Ising {
        assert_eq!(signs.len(), self.num_spins(), "gauge/problem size mismatch");
        debug_assert!(signs.iter().all(|&g| g == 1 || g == -1));
        let h = self
            .h
            .iter()
            .zip(signs)
            .map(|(&hi, &g)| f64::from(g) * hi)
            .collect();
        let j = self
            .j
            .iter()
            .map(|&(a, b, w)| {
                (
                    a,
                    b,
                    f64::from(signs[a.index()]) * f64::from(signs[b.index()]) * w,
                )
            })
            .collect();
        let mut adj_w = self.adj_w.clone();
        for i in 0..self.num_spins() {
            let gi = f64::from(signs[i]);
            let (lo, hi) = (
                self.adj_offsets[i] as usize,
                self.adj_offsets[i + 1] as usize,
            );
            for k in lo..hi {
                adj_w[k] = f64::from(signs[self.adj_idx[k] as usize]) * gi * self.adj_w[k];
            }
        }
        Ising {
            h,
            j,
            offset: self.offset,
            adj_offsets: self.adj_offsets.clone(),
            adj_idx: self.adj_idx.clone(),
            adj_w,
        }
    }

    /// Number of spins.
    #[inline]
    pub fn num_spins(&self) -> usize {
        self.h.len()
    }

    /// Per-spin fields `h_i`.
    #[inline]
    pub fn fields(&self) -> &[f64] {
        &self.h
    }

    /// Upper-triangular couplings `(i, j, J_ij)`.
    #[inline]
    pub fn couplings(&self) -> &[(VarId, VarId, f64)] {
        &self.j
    }

    /// Constant energy offset relative to the source QUBO.
    #[inline]
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Coupled neighbours of spin `i`: pairs `(j, J_ij)` in CSR order.
    #[inline]
    pub fn neighbours(&self, i: VarId) -> impl Iterator<Item = (VarId, f64)> + '_ {
        let lo = self.adj_offsets[i.index()] as usize;
        let hi = self.adj_offsets[i.index() + 1] as usize;
        self.adj_idx[lo..hi]
            .iter()
            .zip(&self.adj_w[lo..hi])
            .map(|(&j, &w)| (VarId(j), w))
    }

    /// Neighbour indices of spin `i` (parallel to
    /// [`Ising::neighbour_weights`]).
    #[inline]
    pub fn neighbour_indices(&self, i: VarId) -> &[u32] {
        let lo = self.adj_offsets[i.index()] as usize;
        let hi = self.adj_offsets[i.index() + 1] as usize;
        &self.adj_idx[lo..hi]
    }

    /// Neighbour coupling weights of spin `i` (parallel to
    /// [`Ising::neighbour_indices`]).
    #[inline]
    pub fn neighbour_weights(&self, i: VarId) -> &[f64] {
        let lo = self.adj_offsets[i.index()] as usize;
        let hi = self.adj_offsets[i.index() + 1] as usize;
        &self.adj_w[lo..hi]
    }

    /// The raw CSR adjacency `(offsets, indices, weights)`: spin `i`'s
    /// neighbours occupy `offsets[i]..offsets[i+1]` of the two flat arrays.
    /// Annealing kernels stream these slices directly.
    #[inline]
    pub fn adjacency(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.adj_offsets, &self.adj_idx, &self.adj_w)
    }

    /// Evaluates the energy of a spin configuration (`s_i ∈ {−1, +1}`),
    /// including the offset so it is directly comparable to QUBO energies.
    pub fn energy(&self, s: &[i8]) -> f64 {
        assert_eq!(s.len(), self.num_spins(), "spin vector length mismatch");
        debug_assert!(s.iter().all(|&v| v == 1 || v == -1));
        let mut e = self.offset;
        for (h, &si) in self.h.iter().zip(s) {
            e += h * f64::from(si);
        }
        for &(i, j, w) in &self.j {
            e += w * f64::from(s[i.index()]) * f64::from(s[j.index()]);
        }
        e
    }

    /// Energy change from flipping spin `i`, in `O(deg(i))`.
    #[inline]
    pub fn flip_delta(&self, s: &[i8], i: VarId) -> f64 {
        -2.0 * f64::from(s[i.index()]) * self.local_field(s, i)
    }

    /// Local field at spin `i` (`h_i + Σ_j J_ij s_j`), used by annealing
    /// sweeps that precompute fields. Accumulates in CSR order — the same
    /// order incremental field maintenance in the annealing kernels uses,
    /// so both paths produce identical floating-point values.
    #[inline]
    pub fn local_field(&self, s: &[i8], i: VarId) -> f64 {
        let lo = self.adj_offsets[i.index()] as usize;
        let hi = self.adj_offsets[i.index() + 1] as usize;
        let mut field = self.h[i.index()];
        for (&j, &w) in self.adj_idx[lo..hi].iter().zip(&self.adj_w[lo..hi]) {
            field += w * f64::from(s[j as usize]);
        }
        field
    }

    /// Writes every spin's local field `h_i + Σ_j J_ij s_j` into `fields`
    /// (resized to `num_spins`). Annealing kernels call this once per read
    /// and then maintain the array incrementally across accepted flips.
    pub fn local_fields_into(&self, s: &[i8], fields: &mut Vec<f64>) {
        let n = self.num_spins();
        debug_assert_eq!(s.len(), n);
        fields.clear();
        fields.extend((0..n).map(|i| self.local_field(s, VarId(i as u32))));
    }

    /// Largest absolute field/coupling magnitude; the annealer normalises by
    /// this before programming the device model.
    pub fn max_abs_weight(&self) -> f64 {
        let h = self.h.iter().map(|w| w.abs()).fold(0.0, f64::max);
        let j = self.j.iter().map(|(_, _, w)| w.abs()).fold(0.0, f64::max);
        h.max(j)
    }

    /// Converts a QUBO into the equivalent Ising problem via
    /// `x_i = (1 + s_i)/2`. Energies are preserved exactly:
    /// `qubo.energy(x) == ising.energy(s)` for corresponding assignments.
    pub fn from_qubo(qubo: &Qubo) -> Self {
        let n = qubo.num_vars();
        let mut h = vec![0.0; n];
        let mut offset = 0.0;
        for (i, &a) in qubo.linear().iter().enumerate() {
            h[i] += a / 2.0;
            offset += a / 2.0;
        }
        let mut couplings = Vec::with_capacity(qubo.num_quadratic());
        for &(i, j, b) in qubo.quadratic() {
            couplings.push((i, j, b / 4.0));
            h[i.index()] += b / 4.0;
            h[j.index()] += b / 4.0;
            offset += b / 4.0;
        }
        Ising::new(h, couplings, offset)
    }

    /// Converts back to a QUBO (inverse of [`Ising::from_qubo`] up to the
    /// constant offset, which QUBO cannot represent; the returned f64 is that
    /// residual constant so `qubo.energy(x) + residual == ising.energy(s)`).
    pub fn to_qubo(&self) -> (Qubo, f64) {
        let n = self.num_spins();
        let mut b = Qubo::builder(n);
        let mut residual = self.offset;
        for (i, &hi) in self.h.iter().enumerate() {
            // h s = h (2x − 1) = 2h x − h
            b.add_linear(VarId::new(i), 2.0 * hi);
            residual -= hi;
        }
        for &(i, j, w) in &self.j {
            // J s_i s_j = J (2x_i−1)(2x_j−1) = 4J x_i x_j − 2J x_i − 2J x_j + J
            b.add_quadratic(i, j, 4.0 * w);
            b.add_linear(i, -2.0 * w);
            b.add_linear(j, -2.0 * w);
            residual += w;
        }
        (b.build(), residual)
    }
}

/// Converts a boolean assignment to spins (`true → +1`, `false → −1`).
pub fn bits_to_spins(x: &[bool]) -> Vec<i8> {
    x.iter().map(|&b| if b { 1 } else { -1 }).collect()
}

/// Converts spins to a boolean assignment (`+1 → true`).
pub fn spins_to_bits(s: &[i8]) -> Vec<bool> {
    s.iter().map(|&v| v > 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_qubo() -> Qubo {
        let mut b = Qubo::builder(3);
        b.add_linear(VarId(0), 2.0);
        b.add_linear(VarId(1), -3.0);
        b.add_linear(VarId(2), 1.0);
        b.add_quadratic(VarId(0), VarId(1), 4.0);
        b.add_quadratic(VarId(1), VarId(2), -2.0);
        b.build()
    }

    #[test]
    fn qubo_and_ising_energies_agree_on_all_assignments() {
        let q = small_qubo();
        let ising = Ising::from_qubo(&q);
        for mask in 0u32..8 {
            let x: Vec<bool> = (0..3).map(|i| mask & (1 << i) != 0).collect();
            let s = bits_to_spins(&x);
            assert!(
                (q.energy(&x) - ising.energy(&s)).abs() < 1e-12,
                "mismatch on {x:?}"
            );
        }
    }

    #[test]
    fn round_trip_qubo_ising_qubo_preserves_energies() {
        let q = small_qubo();
        let ising = Ising::from_qubo(&q);
        let (q2, residual) = ising.to_qubo();
        for mask in 0u32..8 {
            let x: Vec<bool> = (0..3).map(|i| mask & (1 << i) != 0).collect();
            assert!(
                (q.energy(&x) - (q2.energy(&x) + residual)).abs() < 1e-12,
                "round-trip mismatch on {x:?}"
            );
        }
    }

    #[test]
    fn flip_delta_matches_energy_difference() {
        let ising = Ising::from_qubo(&small_qubo());
        for mask in 0u32..8 {
            let mut s: Vec<i8> = (0..3)
                .map(|i| if mask & (1 << i) != 0 { 1 } else { -1 })
                .collect();
            for i in 0..3 {
                let before = ising.energy(&s);
                let delta = ising.flip_delta(&s, VarId::new(i));
                s[i] = -s[i];
                let after = ising.energy(&s);
                s[i] = -s[i];
                assert!(
                    ((after - before) - delta).abs() < 1e-12,
                    "flip {i} mask {mask}"
                );
            }
        }
    }

    #[test]
    fn spin_bit_conversions_are_inverse() {
        let x = vec![true, false, true, true, false];
        assert_eq!(spins_to_bits(&bits_to_spins(&x)), x);
        let s = vec![1i8, -1, -1, 1];
        assert_eq!(bits_to_spins(&spins_to_bits(&s)), s);
    }

    #[test]
    fn duplicate_couplings_merge_and_self_couplings_panic() {
        let i = Ising::new(
            vec![0.0, 0.0],
            vec![(VarId(0), VarId(1), 1.0), (VarId(1), VarId(0), 0.5)],
            0.0,
        );
        assert_eq!(i.couplings(), &[(VarId(0), VarId(1), 1.5)]);

        let result = std::panic::catch_unwind(|| {
            Ising::new(vec![0.0], vec![(VarId(0), VarId(0), 1.0)], 0.0)
        });
        assert!(result.is_err());
    }

    #[test]
    fn local_field_and_flip_delta_are_consistent() {
        let ising = Ising::from_qubo(&small_qubo());
        let s = vec![1i8, -1, 1];
        for i in 0..3 {
            let v = VarId::new(i);
            let expect = -2.0 * f64::from(s[i]) * ising.local_field(&s, v);
            assert!((ising.flip_delta(&s, v) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn max_abs_weight_covers_fields_and_couplings() {
        let ising = Ising::new(vec![0.5, -3.0], vec![(VarId(0), VarId(1), 2.0)], 10.0);
        assert_eq!(ising.max_abs_weight(), 3.0);
    }

    #[test]
    fn from_canonical_equals_new_on_canonical_input() {
        let built = Ising::from_qubo(&small_qubo());
        let rebuilt = Ising::from_canonical(
            built.fields().to_vec(),
            built.couplings().to_vec(),
            built.offset(),
        );
        assert_eq!(built, rebuilt);
    }

    #[test]
    fn gauge_transformed_equals_full_rebuild() {
        let ising = Ising::from_qubo(&small_qubo());
        for mask in 0u32..8 {
            let signs: Vec<i8> = (0..3)
                .map(|i| if mask & (1 << i) != 0 { 1 } else { -1 })
                .collect();
            let fast = ising.gauge_transformed(&signs);
            let h = ising
                .fields()
                .iter()
                .enumerate()
                .map(|(i, &hi)| f64::from(signs[i]) * hi)
                .collect();
            let couplings = ising
                .couplings()
                .iter()
                .map(|&(i, j, w)| {
                    (
                        i,
                        j,
                        f64::from(signs[i.index()]) * f64::from(signs[j.index()]) * w,
                    )
                })
                .collect();
            let slow = Ising::new(h, couplings, ising.offset());
            assert_eq!(fast, slow, "gauge rebuild mismatch for signs {signs:?}");
        }
    }

    #[test]
    fn soa_accessors_agree_with_the_neighbour_iterator() {
        let ising = Ising::from_qubo(&small_qubo());
        let (offsets, idx, w) = ising.adjacency();
        assert_eq!(offsets.len(), ising.num_spins() + 1);
        assert_eq!(idx.len(), w.len());
        for i in 0..ising.num_spins() {
            let v = VarId::new(i);
            let from_iter: Vec<(u32, f64)> = ising
                .neighbours(v)
                .map(|(j, w)| (j.index() as u32, w))
                .collect();
            let from_slices: Vec<(u32, f64)> = ising
                .neighbour_indices(v)
                .iter()
                .copied()
                .zip(ising.neighbour_weights(v).iter().copied())
                .collect();
            assert_eq!(from_iter, from_slices);
        }
    }

    #[test]
    fn try_new_rejects_non_finite_weights_with_typed_errors() {
        assert!(matches!(
            Ising::try_new(vec![f64::NAN, 0.0], vec![], 0.0).unwrap_err(),
            CoreError::NonFiniteWeight {
                term: "field",
                index: 0,
                ..
            }
        ));
        assert!(matches!(
            Ising::try_new(
                vec![0.0, 0.0],
                vec![(VarId(0), VarId(1), f64::NEG_INFINITY)],
                0.0
            )
            .unwrap_err(),
            CoreError::NonFiniteWeight {
                term: "coupling",
                ..
            }
        ));
        let ok = Ising::try_new(vec![0.5, -1.0], vec![(VarId(0), VarId(1), 2.0)], 0.25).unwrap();
        assert_eq!(ok.couplings(), &[(VarId(0), VarId(1), 2.0)]);
    }

    #[test]
    fn local_fields_into_matches_per_spin_local_field() {
        let ising = Ising::from_qubo(&small_qubo());
        let s = vec![1i8, -1, 1];
        let mut fields = Vec::new();
        ising.local_fields_into(&s, &mut fields);
        for (i, &f) in fields.iter().enumerate() {
            assert_eq!(f, ising.local_field(&s, VarId::new(i)));
        }
        assert_eq!(fields.len(), 3);
    }
}

//! Strong-bond cluster detection over programmed Ising problems.
//!
//! Minor-embedding chains appear in the programmed problem as groups of
//! spins linked by the strongest ferromagnetic couplings. Detecting them
//! *from the couplings alone* lets samplers perform collective moves — the
//! discrete-time counterpart of the joint dynamics strongly coupled qubits
//! exhibit in hardware — without any host-side knowledge of the embedding.

use mqo_core::ids::VarId;
use mqo_core::ising::Ising;

/// Connected components of the subgraph of couplings with
/// `J ≤ −threshold · max|J|` (ferromagnetic and strong). Only components
/// with at least two spins are returned.
pub fn strong_bond_clusters(ising: &Ising, threshold: f64) -> Vec<Vec<usize>> {
    let n = ising.num_spins();
    // Chain bonds are ferromagnetic but their strengths vary per chain
    // (Choi's bound is per-chain), so a threshold relative to the single
    // strongest bond misses weaker chains. The magnitudes are instead
    // bimodal — problem couplings (e.g. shared-work savings) sit well below
    // the weakest chain bond — so split at the largest multiplicative gap
    // in the sorted magnitudes, falling back to `threshold · max` when the
    // distribution shows no clear gap.
    let mut mags: Vec<f64> = ising
        .couplings()
        .iter()
        .filter(|(_, _, w)| *w < 0.0)
        .map(|(_, _, w)| -w)
        .collect();
    if mags.is_empty() {
        return Vec::new();
    }
    mags.sort_by(f64::total_cmp);
    let strongest = *mags.last().expect("non-empty");
    let mut split = threshold * strongest;
    let mut best_ratio = 2.0; // minimum gap worth trusting
    for w in mags.windows(2) {
        let ratio = w[1] / w[0].max(f64::MIN_POSITIVE);
        if ratio > best_ratio {
            best_ratio = ratio;
            split = (w[0] * w[1]).sqrt();
        }
    }
    let cutoff = -split;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for &(a, b, w) in ising.couplings() {
        if w <= cutoff {
            let ra = find(&mut parent, a.index());
            let rb = find(&mut parent, b.index());
            if ra != rb {
                parent[ra] = rb;
            }
        }
    }
    let mut groups: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    let mut clusters: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() >= 2).collect();
    clusters.iter_mut().for_each(|c| c.sort_unstable());
    clusters.sort();
    clusters
}

/// The *units* of a problem: every strong-bond cluster plus a singleton per
/// remaining spin, together with an O(1) `unit_of` map. Units partition the
/// spins; collective local search moves flip whole units.
#[derive(Debug, Clone)]
pub struct Units {
    /// Spin groups, each flipped as one move.
    pub members: Vec<Vec<usize>>,
    /// `unit_of[spin]` — the unit containing each spin.
    pub unit_of: Vec<u32>,
    /// `pos[spin]` — the spin's slot in its unit's `members` (and `signs`).
    pub pos: Vec<u32>,
    /// Internally consistent relative sign per member (parallel to
    /// `members`): the unit's two low-intra-energy states are
    /// `s_i = ±signs[i]`. Under a gauge transformation chain bonds may turn
    /// antiferromagnetic, so "consistent" is *not* always "all equal".
    pub signs: Vec<Vec<i8>>,
}

impl Units {
    /// Builds units from the strong-bond clusters at `threshold`.
    pub fn detect(ising: &Ising, threshold: f64) -> Units {
        Self::from_groups(ising, strong_bond_clusters(ising, threshold))
    }

    /// Builds units from known chains (host-provided embedding hints);
    /// spins outside every chain become singletons.
    pub fn from_chains(ising: &Ising, chains: &[Vec<usize>]) -> Units {
        Self::from_groups(
            ising,
            chains.iter().filter(|c| c.len() >= 2).cloned().collect(),
        )
    }

    fn from_groups(ising: &Ising, groups: Vec<Vec<usize>>) -> Units {
        let n = ising.num_spins();
        let mut unit_of = vec![u32::MAX; n];
        let mut pos = vec![0u32; n];
        let mut members = Vec::with_capacity(groups.len());
        for group in groups {
            let id = members.len() as u32;
            for (k, &i) in group.iter().enumerate() {
                debug_assert!(unit_of[i] == u32::MAX, "groups must be disjoint");
                unit_of[i] = id;
                pos[i] = k as u32;
            }
            members.push(group);
        }
        for (i, u) in unit_of.iter_mut().enumerate() {
            if *u == u32::MAX {
                *u = members.len() as u32;
                members.push(vec![i]);
            }
        }
        let mut units = Units {
            members,
            unit_of,
            pos,
            signs: Vec::new(),
        };
        units.signs = (0..units.len())
            .map(|u| units.relative_signs(ising, u))
            .collect();
        units
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether there are no units (empty problem).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Energy change of jointly flipping every spin of `unit` in `s`
    /// (intra-unit couplings are invariant; only external terms count).
    pub fn flip_delta(&self, ising: &Ising, s: &[i8], unit: usize) -> f64 {
        let id = unit as u32;
        let mut delta = 0.0;
        for &i in &self.members[unit] {
            let si = f64::from(s[i]);
            let mut ext = ising.fields()[i];
            for (j, w) in ising.neighbours(VarId::new(i)) {
                if self.unit_of[j.index()] != id {
                    ext += w * f64::from(s[j.index()]);
                }
            }
            delta += -2.0 * si * ext;
        }
        delta
    }

    /// Energy change of flipping two distinct units jointly: the sum of the
    /// individual deltas corrected by the couplings *between* the two units
    /// (those flip twice, i.e. not at all).
    pub fn pair_flip_delta(&self, ising: &Ising, s: &[i8], a: usize, b: usize) -> f64 {
        let (delta_a, delta_b) = (self.flip_delta(ising, s, a), self.flip_delta(ising, s, b));
        self.pair_flip_delta_from(ising, s, a, b, delta_a, delta_b)
    }

    /// [`Units::pair_flip_delta`] given the two units' own
    /// [`Units::flip_delta`] values, so a caller that already holds them
    /// (the oracle descent memoises them) skips recomputing them. The
    /// expression and summation order are those of `pair_flip_delta`.
    pub(crate) fn pair_flip_delta_from(
        &self,
        ising: &Ising,
        s: &[i8],
        a: usize,
        b: usize,
        delta_a: f64,
        delta_b: f64,
    ) -> f64 {
        debug_assert_ne!(a, b);
        let mut delta = delta_a + delta_b;
        let idb = b as u32;
        for &i in &self.members[a] {
            for (j, w) in ising.neighbours(VarId::new(i)) {
                if self.unit_of[j.index()] == idb {
                    // Both endpoints flip: the product term is invariant,
                    // but each individual delta assumed the other was fixed.
                    delta += 4.0 * w * f64::from(s[i]) * f64::from(s[j.index()]);
                }
            }
        }
        delta
    }

    /// Flips every spin of a unit in place.
    pub fn apply_flip(&self, s: &mut [i8], unit: usize) {
        for &i in &self.members[unit] {
            s[i] = -s[i];
        }
    }

    /// Energy change of *aligning* a unit — setting member `i` to
    /// `v · signs[i]`, its internally consistent state — which repairs
    /// broken chains that plain whole-unit flips cannot fix.
    pub fn align_delta(&self, ising: &Ising, s: &[i8], unit: usize, v: i8) -> f64 {
        // The flipped subset D = members whose current spin differs from
        // the target. Couplings inside D are invariant; everything else
        // (including members staying put) counts as external.
        let members = &self.members[unit];
        let signs = &self.signs[unit];
        let target = |k: usize| -> i8 { v * signs[k] };
        let mut delta = 0.0;
        for (k, &i) in members.iter().enumerate() {
            if s[i] == target(k) {
                continue;
            }
            let si = f64::from(s[i]);
            let mut ext = ising.fields()[i];
            for (j, w) in ising.neighbours(VarId::new(i)) {
                let j = j.index();
                // External unless j is another member that also flips.
                let flips_too =
                    self.unit_of[j] == unit as u32 && s[j] != target(self.pos[j] as usize);
                if !flips_too {
                    ext += w * f64::from(s[j]);
                }
            }
            delta += -2.0 * si * ext;
        }
        delta
    }

    /// Sets every member of a unit to its consistent state with overall
    /// sign `v`.
    pub fn apply_align(&self, s: &mut [i8], unit: usize, v: i8) {
        for (k, &i) in self.members[unit].iter().enumerate() {
            s[i] = v * self.signs[unit][k];
        }
    }

    /// Relative signs making a unit internally consistent: BFS over the
    /// intra-unit couplings, following `−sign(J)` across each bond (J < 0 →
    /// parallel, J > 0 → antiparallel). Members unreachable through
    /// intra-unit bonds default to `+1`.
    fn relative_signs(&self, ising: &Ising, unit: usize) -> Vec<i8> {
        let group = &self.members[unit];
        let mut signs: Vec<i8> = vec![0; group.len()];
        signs[0] = 1;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(k) = queue.pop_front() {
            for (j, w) in ising.neighbours(VarId::new(group[k])) {
                if self.unit_of[j.index()] == unit as u32 {
                    let kj = self.pos[j.index()] as usize;
                    if signs[kj] == 0 {
                        signs[kj] = if w < 0.0 { signs[k] } else { -signs[k] };
                        queue.push_back(kj);
                    }
                }
            }
        }
        for s in &mut signs {
            if *s == 0 {
                *s = 1;
            }
        }
        signs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_problem() -> Ising {
        // Two 2-spin chains (J = −4) coupled by a weak +1 bond, plus a
        // free spin.
        Ising::new(
            vec![0.5, 0.0, -0.25, 0.0, 1.0],
            vec![
                (VarId(0), VarId(1), -4.0),
                (VarId(2), VarId(3), -4.0),
                (VarId(1), VarId(2), 1.0),
                (VarId(3), VarId(4), 0.5),
            ],
            0.0,
        )
    }

    /// The linear-search transcription of [`Units::relative_signs`] that
    /// `pos` replaced: membership and slot by `position` over the group.
    fn relative_signs_by_search(ising: &Ising, group: &[usize]) -> Vec<i8> {
        let pos = |i: usize| group.iter().position(|&g| g == i);
        let mut signs: Vec<i8> = vec![0; group.len()];
        signs[0] = 1;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(k) = queue.pop_front() {
            for (j, w) in ising.neighbours(VarId::new(group[k])) {
                if let Some(kj) = pos(j.index()) {
                    if signs[kj] == 0 {
                        signs[kj] = if w < 0.0 { signs[k] } else { -signs[k] };
                        queue.push_back(kj);
                    }
                }
            }
        }
        for s in &mut signs {
            if *s == 0 {
                *s = 1;
            }
        }
        signs
    }

    #[test]
    fn pos_index_matches_linear_search_on_gauge_transformed_chains() {
        // A 5-spin chain listed out of spin order (so slots differ from
        // spin indices), a 3-spin chain, and a free spin, weakly coupled.
        let ising = Ising::new(
            vec![0.5, -0.25, 0.0, 1.0, -0.5, 0.25, 0.0, 0.75, -1.0],
            vec![
                (VarId(6), VarId(2), -4.0),
                (VarId(2), VarId(0), -4.0),
                (VarId(0), VarId(7), -4.0),
                (VarId(7), VarId(4), -4.0),
                (VarId(1), VarId(3), -3.0),
                (VarId(3), VarId(5), -3.0),
                (VarId(0), VarId(1), 1.0),
                (VarId(4), VarId(5), -0.5),
                (VarId(5), VarId(8), 0.75),
            ],
            0.0,
        );
        let chains = vec![vec![6, 2, 0, 7, 4], vec![5, 3, 1]];
        for mask in 0u32..(1 << 9) {
            let gauge: Vec<i8> = (0..9)
                .map(|i| if mask & (1 << i) != 0 { -1 } else { 1 })
                .collect();
            let gauged = ising.gauge_transformed(&gauge);
            let units = Units::from_chains(&gauged, &chains);
            for (u, members) in units.members.iter().enumerate() {
                for (k, &i) in members.iter().enumerate() {
                    assert_eq!(units.unit_of[i], u as u32);
                    assert_eq!(units.pos[i], k as u32);
                }
                assert_eq!(
                    units.signs[u],
                    relative_signs_by_search(&gauged, members),
                    "unit {u} gauge mask {mask}"
                );
                // The consistent state is the gauge image of "all equal".
                for (k, &i) in members.iter().enumerate() {
                    let expect = gauge[i] * gauge[members[0]];
                    assert_eq!(units.signs[u][k], expect, "unit {u} slot {k}");
                }
            }
        }
    }

    #[test]
    fn detects_strong_ferromagnetic_components() {
        let ising = chain_problem();
        let clusters = strong_bond_clusters(&ising, 0.5);
        assert_eq!(clusters, vec![vec![0, 1], vec![2, 3]]);
        // Higher threshold than any bond → none.
        assert!(strong_bond_clusters(&ising, 1.1).is_empty());
        // No couplings at all → none.
        assert!(strong_bond_clusters(&Ising::new(vec![1.0], vec![], 0.0), 0.5).is_empty());
    }

    #[test]
    fn units_partition_all_spins() {
        let ising = chain_problem();
        let units = Units::detect(&ising, 0.5);
        assert_eq!(units.len(), 3); // two chains + singleton spin 4
        let mut covered: Vec<usize> = units.members.iter().flatten().copied().collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2, 3, 4]);
        for (u, members) in units.members.iter().enumerate() {
            for &i in members {
                assert_eq!(units.unit_of[i], u as u32);
            }
        }
    }

    #[test]
    fn unit_flip_delta_matches_energy_difference() {
        let ising = chain_problem();
        let units = Units::detect(&ising, 0.5);
        for mask in 0u32..32 {
            let s: Vec<i8> = (0..5)
                .map(|i| if mask & (1 << i) != 0 { 1 } else { -1 })
                .collect();
            for u in 0..units.len() {
                let mut t = s.clone();
                units.apply_flip(&mut t, u);
                let expect = ising.energy(&t) - ising.energy(&s);
                let fast = units.flip_delta(&ising, &s, u);
                assert!(
                    (expect - fast).abs() < 1e-9,
                    "unit {u} mask {mask}: {expect} vs {fast}"
                );
            }
        }
    }

    #[test]
    fn align_delta_matches_energy_difference() {
        let ising = chain_problem();
        let units = Units::detect(&ising, 0.5);
        for mask in 0u32..32 {
            let s: Vec<i8> = (0..5)
                .map(|i| if mask & (1 << i) != 0 { 1 } else { -1 })
                .collect();
            for u in 0..units.len() {
                for v in [1i8, -1] {
                    let mut t = s.clone();
                    units.apply_align(&mut t, u, v);
                    let expect = ising.energy(&t) - ising.energy(&s);
                    let fast = units.align_delta(&ising, &s, u, v);
                    assert!(
                        (expect - fast).abs() < 1e-9,
                        "unit {u} v {v} mask {mask}: {expect} vs {fast}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_flip_delta_matches_energy_difference() {
        let ising = chain_problem();
        let units = Units::detect(&ising, 0.5);
        for mask in 0u32..32 {
            let s: Vec<i8> = (0..5)
                .map(|i| if mask & (1 << i) != 0 { 1 } else { -1 })
                .collect();
            for a in 0..units.len() {
                for b in 0..units.len() {
                    if a == b {
                        continue;
                    }
                    let mut t = s.clone();
                    units.apply_flip(&mut t, a);
                    units.apply_flip(&mut t, b);
                    let expect = ising.energy(&t) - ising.energy(&s);
                    let fast = units.pair_flip_delta(&ising, &s, a, b);
                    assert!(
                        (expect - fast).abs() < 1e-9,
                        "units {a},{b} mask {mask}: {expect} vs {fast}"
                    );
                }
            }
        }
    }
}

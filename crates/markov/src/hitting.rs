//! Expected hitting times and hitting-time distributions.

use stab_core::engine::{BitSet, Budget, RowStore};
use stab_core::{Configuration, LocalState};

use crate::chain::AbsorbingChain;
use crate::error::MarkovError;
use crate::linalg::{self, Solution};
use crate::qstore::{QEntry, QStorage};

/// Above this many transient states the sparse BiCGSTAB solver replaces
/// dense Gaussian elimination.
const DENSE_LIMIT: usize = 600;

/// Relative residual tolerance of the iterative solver:
/// `‖b − (I − Q) x‖∞ ≤ TOL · ‖b‖∞`.
const TOL: f64 = 1e-12;

/// Per-configuration expected stabilization times `t = (I − Q)⁻¹ b` (the
/// unit reward `b = 1` for expected steps), with the solve's residual.
#[derive(Debug, Clone)]
pub struct HittingTimes {
    times: Vec<f64>,
    /// `‖b − (I − Q) t‖∞`, by one explicit pass.
    residual: f64,
    /// `min_i b_i` of the right-hand side (1 for expected steps).
    reward_floor: f64,
}

impl HittingTimes {
    fn new(times: Vec<f64>, residual: f64, reward: &[f64]) -> Self {
        let reward_floor = reward.iter().copied().fold(f64::INFINITY, f64::min);
        HittingTimes {
            times,
            residual,
            reward_floor,
        }
    }

    /// Expected steps from the transient state with the given index.
    pub fn of_transient(&self, idx: usize) -> f64 {
        self.times[idx]
    }

    /// The true residual `‖b − (I − Q) t‖∞` of the returned times,
    /// measured by one explicit pass over `Q` (0 without transient
    /// states).
    pub fn residual_inf(&self) -> f64 {
        self.residual
    }

    /// A rigorous bound on `‖t − t*‖∞`, the distance of the returned times
    /// from the exact solution `t*` (up to the rounding of the residual
    /// pass itself).
    ///
    /// The error is `N r` with `N = (I − Q)⁻¹ ≥ 0` and `r` the residual.
    /// For the unit reward, `‖N‖∞ = ‖N 1‖∞ = ‖t*‖∞ ≤ ‖t‖∞ + ‖t − t*‖∞`,
    /// which rearranges to `‖t‖∞·‖r‖∞ / (1 − ‖r‖∞)`. A general reward
    /// `b ≥ b_min > 0` gives `N 1 ≤ N b / b_min`, hence the bound
    /// `‖t‖∞·‖r‖∞ / (b_min − ‖r‖∞)`. It is infinite when the residual
    /// reaches `b_min` (in particular for a reward with a zero entry).
    pub fn error_bound(&self) -> f64 {
        if self.residual == 0.0 {
            0.0
        } else if self.residual < self.reward_floor {
            let t_inf = self.times.iter().fold(0.0, |m: f64, t| m.max(t.abs()));
            t_inf * self.residual / (self.reward_floor - self.residual)
        } else {
            f64::INFINITY
        }
    }

    /// The worst-case expected stabilization time over all configurations
    /// (legitimate ones contribute 0).
    pub fn worst_case(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }

    /// The transient index attaining the worst case, if any transient state
    /// exists.
    pub fn worst_index(&self) -> Option<usize> {
        (0..self.times.len()).max_by(|&i, &j| self.times[i].total_cmp(&self.times[j]))
    }

    /// The average expected stabilization time over a *uniformly random
    /// initial configuration* of the full space with `total` configurations
    /// (legitimate configurations count 0 steps).
    pub fn average_uniform(&self, total: u64) -> f64 {
        assert!(
            total as usize >= self.times.len(),
            "total below transient count"
        );
        self.times.iter().sum::<f64>() / total as f64
    }

    /// The weighted average `Σ wᵢ·tᵢ / total`: the uniform-initial average
    /// of a **quotient** chain, where transient state `i` stands for `wᵢ`
    /// concrete configurations
    /// ([`AbsorbingChain::transient_orbits`]) and `total` is the
    /// represented configuration count
    /// ([`AbsorbingChain::represented_configs`]). With unit weights this
    /// reduces to [`HittingTimes::average_uniform`].
    ///
    /// # Panics
    ///
    /// Panics if `weights` has the wrong length or `total` is below the
    /// total weight of the transient states.
    pub fn average_weighted(&self, weights: &[u64], total: u64) -> f64 {
        assert_eq!(weights.len(), self.times.len(), "weight length mismatch");
        let mass: u64 = weights.iter().sum();
        assert!(total >= mass, "total below total transient weight");
        self.times
            .iter()
            .zip(weights)
            .map(|(t, &w)| t * w as f64)
            .sum::<f64>()
            / total as f64
    }

    /// All transient expected times.
    pub fn as_slice(&self) -> &[f64] {
        &self.times
    }
}

/// Iteration cap of the sparse solver. Restricted to the states that
/// reach `L`, `I − Q` is nonsingular and BiCGSTAB converges in tens of
/// iterations on the zoo (17 on Herman N=15); the cap only bounds a
/// pathological run.
const MAX_ITER: usize = 100_000;

/// `Q` with the rows outside `live` emptied. Each emptied row reads
/// `x_i = b_i`, so the system is block-triangular: `I − Q` restricted to
/// `live` (nonsingular when `live` is the set of states that reach `L`)
/// above an identity block.
struct Pinned<'a, M> {
    q: &'a M,
    live: &'a BitSet,
}

impl<M: RowStore<Item = QEntry>> RowStore for Pinned<'_, M> {
    type Item = QEntry;
    type Row<'b>
        = std::iter::Flatten<std::option::IntoIter<M::Row<'b>>>
    where
        Self: 'b;

    fn n_rows(&self) -> usize {
        self.q.n_rows()
    }

    fn row_iter(&self, i: usize) -> Self::Row<'_> {
        self.live
            .get(i)
            .then(|| self.q.row_iter(i))
            .into_iter()
            .flatten()
    }

    fn spill_resident_bytes(&self) -> u64 {
        self.q.spill_resident_bytes()
    }
}

/// Solves `(I − Q) x = b` over concrete rows by the size-appropriate
/// solver: dense Gaussian elimination up to [`DENSE_LIMIT`] rows (its
/// residual measured by one explicit pass), budget-probed BiCGSTAB above.
fn solve_rows<M: RowStore<Item = QEntry>>(
    q: &M,
    b: &[f64],
    budget: &Budget,
) -> Result<Solution, MarkovError> {
    let n = q.n_rows();
    if n > DENSE_LIMIT {
        return linalg::bicgstab_budgeted(q, b, TOL, MAX_ITER, budget);
    }
    let mut a = vec![vec![0.0; n]; n];
    for (i, row) in a.iter_mut().enumerate() {
        row[i] = 1.0;
        for (j, p) in q.row_iter(i) {
            row[j as usize] -= p;
        }
    }
    let x = linalg::solve_dense(a, b.to_vec())?;
    let residual_inf = linalg::residual_into(q, b, &x, &mut vec![0.0; n]);
    Ok(Solution { x, residual_inf })
}

/// [`solve_rows`] over `q`, or over `q` with the rows outside `live`
/// pinned ([`Pinned`]).
fn solve_on<M: RowStore<Item = QEntry>>(
    q: &M,
    live: Option<&BitSet>,
    b: &[f64],
    budget: &Budget,
) -> Result<Solution, MarkovError> {
    match live {
        None => solve_rows(q, b, budget),
        Some(live) => solve_rows(&Pinned { q, live }, b, budget),
    }
}

impl<S: LocalState> AbsorbingChain<S> {
    /// Solves `(I − Q) x = b`, optionally with the rows outside `live`
    /// pinned. The tier is dispatched once here, so the solver runs
    /// monomorphically over the concrete row cursor instead of through
    /// [`QStorage::row_iter`]'s per-entry enum. One entry probe of the
    /// `solver` stage covers the dense path (whose runtime is bounded by
    /// [`DENSE_LIMIT`]); BiCGSTAB adds one per iteration.
    fn solve_fundamental(
        &self,
        b: &[f64],
        live: Option<&BitSet>,
        budget: &Budget,
    ) -> Result<Solution, MarkovError> {
        debug_assert_eq!(b.len(), self.n_transient());
        budget.probe("solver", 0, 0)?;
        match self.q() {
            QStorage::Flat(q) => solve_on(q, live, b, budget),
            QStorage::Compressed(q) => solve_on(q, live, b, budget),
            QStorage::Disk(q) => solve_on(q, live, b, budget),
        }
    }

    /// Solves `(I − Q) t = 1` for the expected stabilization times.
    ///
    /// # Errors
    ///
    /// [`MarkovError::NotAbsorbing`] if some configuration cannot reach
    /// `L` (infinite expected time); solver errors otherwise.
    pub fn expected_steps(&self) -> Result<HittingTimes, MarkovError> {
        self.expected_steps_with(&Budget::unlimited())
    }

    /// [`AbsorbingChain::expected_steps`] under a cooperative [`Budget`]:
    /// the iterative solver probes the `solver` stage each sweep, so an
    /// exhausted wall-clock budget surfaces as
    /// [`MarkovError::Core`]`(BudgetExhausted)` instead of iterating to
    /// the sweep cap.
    ///
    /// # Errors
    ///
    /// As [`AbsorbingChain::expected_steps`], plus the budget error above.
    pub fn expected_steps_with(&self, budget: &Budget) -> Result<HittingTimes, MarkovError> {
        self.almost_surely_absorbing()?;
        self.solve_reward(&vec![1.0; self.n_transient()], budget)
    }

    /// The reward solve behind [`AbsorbingChain::expected_steps_with`] and
    /// [`AbsorbingChain::expected_reward`], once absorption is proved.
    fn solve_reward(&self, reward: &[f64], budget: &Budget) -> Result<HittingTimes, MarkovError> {
        if self.n_transient() == 0 {
            return Ok(HittingTimes::new(Vec::new(), 0.0, reward));
        }
        let sol = self.solve_fundamental(reward, None, budget)?;
        Ok(HittingTimes::new(sol.x, sol.residual_inf, reward))
    }

    /// The expected stabilization time from a specific configuration
    /// (0 when legitimate).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` was not explored (possible in reachable mode) —
    /// its expected time is unknown, not 0; probe with
    /// [`AbsorbingChain::is_explored`] first.
    pub fn expected_from(&self, times: &HittingTimes, cfg: &Configuration<S>) -> f64 {
        match self.transient_index(cfg) {
            None => {
                assert!(
                    self.is_explored(cfg),
                    "configuration {cfg:?} was not explored; its expected time is unknown"
                );
                0.0
            }
            Some(i) => times.of_transient(i),
        }
    }

    /// Solves the reward equation `(I − Q) x = r` for an arbitrary
    /// per-step reward vector `r` over the transient states: `x(γ)` is the
    /// expected accumulated reward before absorption.
    ///
    /// # Errors
    ///
    /// [`MarkovError::NotAbsorbing`] when absorption is not almost sure;
    /// solver errors otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `reward` has the wrong length.
    pub fn expected_reward(&self, reward: &[f64]) -> Result<HittingTimes, MarkovError> {
        assert_eq!(reward.len(), self.n_transient(), "reward length mismatch");
        self.almost_surely_absorbing()?;
        self.solve_reward(reward, &Budget::unlimited())
    }

    /// Exact expected number of process activations (*moves*) before
    /// stabilization: the reward solve with the per-step expected
    /// activation sizes. Under the central daemon this equals
    /// [`AbsorbingChain::expected_steps`]; under the synchronous daemon it
    /// counts total work.
    ///
    /// # Errors
    ///
    /// As for [`AbsorbingChain::expected_reward`].
    pub fn expected_moves(&self) -> Result<HittingTimes, MarkovError> {
        self.expected_reward(self.step_moves())
    }

    /// Absorption probabilities per transient state, `a = (I − Q)⁻¹ r`
    /// with `r` the one-step absorption vector. For probabilistically
    /// self-stabilizing systems this is the all-ones vector (Theorems 8–9).
    ///
    /// Only the states that can reach `L` need a solve: every other state
    /// absorbs with probability exactly 0. When all of them reach `L`
    /// (almost-sure absorption, proved by the graph closure) every
    /// probability is exactly 1 and nothing is solved; otherwise the solve
    /// runs over the reaching states only, with the rest pinned at exactly
    /// 0 — a nonsingular system, unlike the unrestricted one.
    ///
    /// # Errors
    ///
    /// Solver errors only; this does not require almost-sure absorption.
    pub fn absorption_probabilities(&self) -> Result<Vec<f64>, MarkovError> {
        self.absorption_probabilities_with(&Budget::unlimited())
    }

    /// [`AbsorbingChain::absorption_probabilities`] under a cooperative
    /// [`Budget`] (`solver`-stage probes, as
    /// [`AbsorbingChain::expected_steps_with`]; the proved case still
    /// probes once).
    ///
    /// # Errors
    ///
    /// Solver errors, plus [`MarkovError::Core`]`(BudgetExhausted)` when a
    /// probe trips.
    pub fn absorption_probabilities_with(&self, budget: &Budget) -> Result<Vec<f64>, MarkovError> {
        let n = self.n_transient();
        if n == 0 {
            return Ok(Vec::new());
        }
        let live = self.reaches_l();
        if live.is_full() {
            budget.probe("solver", 0, 0)?;
            return Ok(vec![1.0; n]);
        }
        let mut probs = self.solve_fundamental(self.absorb(), Some(live), budget)?.x;
        for (i, p) in probs.iter_mut().enumerate() {
            if !live.get(i) {
                *p = 0.0;
            }
        }
        Ok(probs)
    }

    /// The CDF of the stabilization time from the uniform initial
    /// distribution over the *represented* configurations:
    /// `cdf[k] = P(stabilized within k steps)`, for `k = 0..=horizon`.
    ///
    /// On a full-sweep chain the represented set is the whole space (the
    /// PR 1 semantics); on a quotient chain every transient state carries
    /// its orbit's mass, so the CDF equals the full-space CDF exactly; on
    /// a reachable-mode chain the distribution is uniform over the
    /// explored (reached) configurations.
    pub fn hitting_cdf_uniform(&self, horizon: usize) -> Vec<f64> {
        let n = self.n_transient();
        let total = self.represented_configs() as f64;
        // Initially the legitimate mass is already absorbed; transient
        // state i starts with the mass of its whole orbit.
        let transient_mass: u64 = self.transient_orbits().iter().sum();
        let mut absorbed = (total - transient_mass as f64) / total;
        let mut mass: Vec<f64> = self
            .transient_orbits()
            .iter()
            .map(|&o| o as f64 / total)
            .collect();
        let mut cdf = Vec::with_capacity(horizon + 1);
        cdf.push(absorbed);
        for _ in 0..horizon {
            let mut next = vec![0.0; n];
            for (i, &m) in mass.iter().enumerate() {
                if m == 0.0 {
                    continue;
                }
                absorbed += m * self.absorb()[i];
                for (j, q) in self.q().row_iter(i) {
                    next[j as usize] += m * q;
                }
            }
            mass = next;
            cdf.push(absorbed);
        }
        cdf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qstore::QMatrix;
    use stab_algorithms::{DijkstraRing, HermanRing, TokenCirculation, TwoProcessToggle};
    use stab_core::engine::{EdgeStoreKind, ExploreOptions, Quotient};
    use stab_core::{Daemon, ProjectedLegitimacy, Transformed};
    use stab_graph::builders;

    /// Trans(Algorithm 3) under the synchronous daemon, solved by hand on
    /// the projection chain: from (F,F) both processes toss, giving (T,T)
    /// with ¼ (absorbed), a half-raised state with ½, and (F,F) again with
    /// ¼; from a half-raised state only one process is enabled, lowering
    /// with ½ back to (F,F) or staying. The equations
    /// `t_ff = 1 + ½·t_h + ¼·t_ff` and `t_h = 1 + ½·t_h + ½·t_ff`
    /// solve to `t_h = 2 + t_ff`, hence `t_ff = 8` and `t_h = 10`.
    #[test]
    fn transformed_toggle_exact_times() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&a, Daemon::Synchronous, &spec, 1 << 12).unwrap();
        let times = chain.expected_steps().unwrap();
        // From any coined configuration projecting to (F,F):
        let ff = Transformed::<TwoProcessToggle>::lift(
            &Configuration::from_vec(vec![false, false]),
            false,
        );
        let t = chain.expected_from(&times, &ff);
        assert!((t - 8.0).abs() < 1e-9, "expected 8, got {t}");
        let half = Transformed::<TwoProcessToggle>::lift(
            &Configuration::from_vec(vec![true, false]),
            false,
        );
        let th = chain.expected_from(&times, &half);
        assert!((th - 10.0).abs() < 1e-9, "expected 10, got {th}");
    }

    /// Theorems 8–9 numerically: absorption probability 1 under the
    /// synchronous and the distributed randomized scheduler. The *central*
    /// randomized scheduler is deliberately excluded — and asserted to
    /// fail — because Algorithm 3 needs a simultaneous move, which no
    /// central scheduler (randomized or not) can provide. This is exactly
    /// why the paper's transformer keeps synchronous steps possible.
    #[test]
    fn absorption_probabilities_are_one_for_transformed_systems() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        for daemon in [Daemon::Synchronous, Daemon::Distributed] {
            let chain = AbsorbingChain::build(&a, daemon, &spec, 1 << 12).unwrap();
            let probs = chain.absorption_probabilities().unwrap();
            for (i, p) in probs.iter().enumerate() {
                assert!(
                    (p - 1.0).abs() < 1e-9,
                    "absorption {p} from {} under {daemon}",
                    chain.render(i)
                );
            }
        }
        let central = AbsorbingChain::build(&a, Daemon::Central, &spec, 1 << 12).unwrap();
        let probs = central.absorption_probabilities().unwrap();
        assert!(
            probs.iter().any(|p| *p < 1e-9),
            "the central scheduler cannot converge Algorithm 3, even transformed"
        );
    }

    /// Without almost-sure absorption the solve runs over the states that
    /// reach `L` only: every other state reads exactly 0, every reaching
    /// state a positive probability.
    #[test]
    fn restricted_absorption_solve_pins_unreaching_states_at_exact_zero() {
        let plain = TwoProcessToggle::new();
        let toggle =
            AbsorbingChain::build(&plain, Daemon::Central, &plain.legitimacy(), 1 << 12).unwrap();
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let transformed = AbsorbingChain::build(&a, Daemon::Central, &spec, 1 << 12).unwrap();
        check_restricted(&toggle);
        check_restricted(&transformed);
    }

    fn check_restricted<S: LocalState>(chain: &AbsorbingChain<S>) {
        let live = chain.reaches_l();
        assert!(!live.is_full(), "the central daemon cannot converge");
        let probs = chain.absorption_probabilities().unwrap();
        for (i, &p) in probs.iter().enumerate() {
            if live.get(i) {
                assert!(p > 0.0 && p <= 1.0 + 1e-12, "{}: {p}", chain.render(i));
            } else {
                assert_eq!(p.to_bits(), 0.0f64.to_bits(), "{}", chain.render(i));
            }
        }
    }

    /// A deterministic xorshift stream for the random-chain tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// `HittingTimes::error_bound` covers the distance to the dense
    /// solution on random absorbing chains, for loose and tight solves and
    /// for unit and non-unit rewards. The dense reference carries its own
    /// rounding, hence the `1e-13·‖t‖∞` allowance.
    #[test]
    fn error_bound_covers_distance_to_dense_on_random_chains() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..40 {
            let n = 5 + (xorshift(&mut rng) % 60) as usize;
            let rows: Vec<Vec<(u32, f64)>> = (0..n)
                .map(|_| {
                    // 1–4 consecutive (hence distinct, as n ≥ 5) columns.
                    let k = 1 + xorshift(&mut rng) % 4;
                    let first = xorshift(&mut rng) % n as u64;
                    let raw: Vec<(u32, f64)> = (0..k)
                        .map(|m| {
                            let j = u32::try_from((first + m) % n as u64)
                                .expect("a column below n fits u32");
                            (j, 1.0 + (xorshift(&mut rng) % 100) as f64)
                        })
                        .collect();
                    let total: f64 = raw.iter().map(|&(_, w)| w).sum();
                    // Keep between 70% and 99% of the mass in Q.
                    let keep = 0.7 + 0.29 * (xorshift(&mut rng) % 1000) as f64 / 1000.0;
                    let mut row: Vec<(u32, f64)> = raw
                        .into_iter()
                        .map(|(j, w)| (j, keep * w / total))
                        .collect();
                    row.sort_by_key(|&(j, _)| j);
                    row
                })
                .collect();
            let q = QMatrix::from_rows(rows);
            let unit = vec![1.0; n];
            let reward: Vec<f64> = (0..n)
                .map(|_| 1.0 + (xorshift(&mut rng) % 200) as f64 / 100.0)
                .collect();
            for b in [&unit, &reward] {
                let mut a = vec![vec![0.0; n]; n];
                for (i, row) in q.rows().enumerate() {
                    a[i][i] += 1.0;
                    for &(j, p) in row {
                        a[i][j as usize] -= p;
                    }
                }
                let dense = linalg::solve_dense(a, b.clone()).unwrap();
                for tol in [1e-4, 1e-12] {
                    let sol = linalg::bicgstab(&q, b, tol, 100_000).unwrap();
                    let times = HittingTimes::new(sol.x, sol.residual_inf, b);
                    let t_inf = times.as_slice().iter().fold(0.0f64, |m, t| m.max(t.abs()));
                    let err = times
                        .as_slice()
                        .iter()
                        .zip(&dense)
                        .fold(0.0f64, |m, (x, d)| m.max((x - d).abs()));
                    let bound = times.error_bound();
                    assert!(bound.is_finite());
                    assert!(
                        err <= bound + 1e-13 * t_inf,
                        "n={n} tol={tol}: error {err:e} above bound {bound:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn error_bound_degenerates_honestly() {
        let exact = HittingTimes::new(vec![2.0, 3.0], 0.0, &[1.0, 1.0]);
        assert_eq!(exact.error_bound(), 0.0);
        let unit = HittingTimes::new(vec![2.0, 4.0], 0.5, &[1.0, 1.0]);
        assert_eq!(unit.residual_inf(), 0.5);
        assert_eq!(unit.error_bound(), 4.0 * 0.5 / 0.5);
        let zero_reward = HittingTimes::new(vec![2.0, 0.0], 1e-15, &[1.0, 0.0]);
        assert_eq!(zero_reward.error_bound(), f64::INFINITY);
        let empty = HittingTimes::new(Vec::new(), 0.0, &[]);
        assert_eq!(empty.error_bound(), 0.0);
    }

    /// The reference study instance: Herman N=15 on the dihedral quotient
    /// and the compressed tier (1222 transient states, past the dense
    /// limit). BiCGSTAB converges within 60 probed passes and matches the
    /// dense reference values to 1e-12 relative.
    #[test]
    fn herman15_converges_within_60_passes() {
        let a = HermanRing::on_ring(&builders::ring(15)).unwrap();
        let opts = ExploreOptions::full()
            .with_quotient(Quotient::Automorphism)
            .with_edge_store(EdgeStoreKind::Compressed);
        let chain =
            AbsorbingChain::build_with(&a, Daemon::Synchronous, &a.legitimacy(), 1 << 22, &opts)
                .unwrap();
        assert_eq!(chain.n_transient(), 1222);
        let budget = Budget::unlimited();
        let times = chain.expected_steps_with(&budget).unwrap();
        assert!(
            budget.probes_seen() <= 60,
            "{} passes",
            budget.probes_seen()
        );
        assert!(times.residual_inf() <= 1e-12);
        assert!(times.error_bound() < 1e-10);
        // Dense solve of the same quotient chain.
        let worst = 33.333_333_333_333_35;
        let average = 23.342_590_484_406_035;
        let got_avg = times.average_weighted(chain.transient_orbits(), chain.represented_configs());
        assert!(((times.worst_case() - worst) / worst).abs() < 1e-12);
        assert!(((got_avg - average) / average).abs() < 1e-12);
    }

    /// The solver's byte probes carry the rows' spill-resident figure: 0
    /// on the in-RAM tiers (their bytes were charged when `Q` was built),
    /// the offsets, probability table and chunk cache on the disk tier. A
    /// one-byte budget therefore lets a BiCGSTAB-sized solve through on
    /// the flat and compressed tiers and trips it on the disk tier.
    #[test]
    fn one_byte_budget_trips_the_solver_only_on_the_disk_tier() {
        let a = HermanRing::on_ring(&builders::ring(11)).unwrap();
        for kind in [
            EdgeStoreKind::Flat,
            EdgeStoreKind::Compressed,
            EdgeStoreKind::Disk,
        ] {
            let opts = ExploreOptions::full().with_edge_store(kind);
            let chain = AbsorbingChain::build_with(
                &a,
                Daemon::Synchronous,
                &a.legitimacy(),
                1 << 12,
                &opts,
            )
            .unwrap();
            assert!(
                chain.n_transient() > DENSE_LIMIT,
                "must take the BiCGSTAB path"
            );
            let got = chain.expected_steps_with(&Budget::unlimited().with_max_bytes(1));
            if kind == EdgeStoreKind::Disk {
                assert!(
                    matches!(
                        got,
                        Err(MarkovError::Core(stab_core::CoreError::BudgetExhausted {
                            stage: "solver",
                            ..
                        }))
                    ),
                    "disk tier: {got:?}"
                );
            } else {
                assert!(got.is_ok(), "{}: {got:?}", kind.label());
            }
        }
    }

    #[test]
    fn herman3_expected_times_are_finite_and_positive() {
        let a = HermanRing::on_ring(&builders::ring(3)).unwrap();
        let chain =
            AbsorbingChain::build(&a, Daemon::Synchronous, &a.legitimacy(), 1 << 12).unwrap();
        let times = chain.expected_steps().unwrap();
        // The two transient states are the uniform configurations, where
        // all three tokens coexist; each process flips a fair coin, and the
        // step absorbs unless the outcome is uniform again (prob 2/8):
        // t = 1 + (2/8)·t  =>  t = 4/3.
        for i in 0..chain.n_transient() {
            let t = times.of_transient(i);
            assert!((t - 4.0 / 3.0).abs() < 1e-9, "expected 4/3, got {t}");
        }
    }

    #[test]
    fn dijkstra_central_times_match_dense_and_sparse() {
        let a = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
        let chain = AbsorbingChain::build(&a, Daemon::Central, &a.legitimacy(), 1 << 20).unwrap();
        let times = chain.expected_steps().unwrap();
        // Cross-validate dense against BiCGSTAB on the same rows.
        let n = chain.n_transient();
        let sparse = linalg::bicgstab(chain.q(), &vec![1.0; n], 1e-12, 1_000_000).unwrap();
        for (i, g) in sparse.x.iter().enumerate() {
            assert!((times.of_transient(i) - g).abs() < 1e-7);
        }
        assert!(times.worst_case() > 0.0);
        assert!(times.average_uniform(chain.n_configs()) <= times.worst_case());
    }

    #[test]
    fn token_ring_transformed_times_decrease_toward_legitimacy() {
        let base = TokenCirculation::on_ring(&builders::ring(3)).unwrap();
        let spec = ProjectedLegitimacy::new(base.legitimacy());
        let a = Transformed::new(TokenCirculation::on_ring(&builders::ring(3)).unwrap());
        let chain = AbsorbingChain::build(&a, Daemon::Distributed, &spec, 1 << 20).unwrap();
        let times = chain.expected_steps().unwrap();
        assert!(times.worst_case().is_finite());
        assert!(times.worst_case() > 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_approaches_one() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&a, Daemon::Synchronous, &spec, 1 << 12).unwrap();
        let cdf = chain.hitting_cdf_uniform(200);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "CDF must be monotone");
        }
        assert!(
            cdf[0] > 0.0,
            "legitimate initial mass is absorbed at time 0"
        );
        assert!(
            (cdf.last().unwrap() - 1.0).abs() < 1e-6,
            "mass absorbs eventually"
        );
    }

    #[test]
    fn budgeted_solves_degrade_or_match_unlimited() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&a, Daemon::Synchronous, &spec, 1 << 12).unwrap();
        let expired = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
        assert!(matches!(
            chain.expected_steps_with(&expired),
            Err(MarkovError::Core(stab_core::CoreError::BudgetExhausted {
                stage: "solver",
                ..
            }))
        ));
        assert!(matches!(
            chain.absorption_probabilities_with(&expired),
            Err(MarkovError::Core(_))
        ));
        // Unlimited budgets reproduce the plain results exactly.
        let plain = chain.expected_steps().unwrap();
        let budgeted = chain.expected_steps_with(&Budget::unlimited()).unwrap();
        assert_eq!(plain.as_slice(), budgeted.as_slice());
    }

    #[test]
    fn non_absorbing_chain_reports_error() {
        let a = TwoProcessToggle::new();
        let chain = AbsorbingChain::build(&a, Daemon::Central, &a.legitimacy(), 1 << 12).unwrap();
        assert!(matches!(
            chain.expected_steps(),
            Err(MarkovError::NotAbsorbing { .. })
        ));
    }

    #[test]
    fn expected_moves_equal_steps_under_central_daemon() {
        // Central daemon: exactly one move per step, so the two solves
        // coincide state by state.
        let a = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
        let chain = AbsorbingChain::build(&a, Daemon::Central, &a.legitimacy(), 1 << 20).unwrap();
        let steps = chain.expected_steps().unwrap();
        let moves = chain.expected_moves().unwrap();
        for i in 0..chain.n_transient() {
            assert!((steps.of_transient(i) - moves.of_transient(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn expected_moves_exceed_steps_under_synchronous_daemon() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&a, Daemon::Synchronous, &spec, 1 << 12).unwrap();
        let steps = chain.expected_steps().unwrap();
        let moves = chain.expected_moves().unwrap();
        for i in 0..chain.n_transient() {
            assert!(moves.of_transient(i) >= steps.of_transient(i) - 1e-9);
        }
        assert!(moves.worst_case() > steps.worst_case());
    }

    #[test]
    fn unit_reward_recovers_expected_steps() {
        let a = HermanRing::on_ring(&builders::ring(5)).unwrap();
        let chain =
            AbsorbingChain::build(&a, Daemon::Synchronous, &a.legitimacy(), 1 << 12).unwrap();
        let steps = chain.expected_steps().unwrap();
        let unit = chain
            .expected_reward(&vec![1.0; chain.n_transient()])
            .unwrap();
        for i in 0..chain.n_transient() {
            assert!((steps.of_transient(i) - unit.of_transient(i)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "reward length mismatch")]
    fn reward_length_checked() {
        let a = TwoProcessToggle::new();
        let chain =
            AbsorbingChain::build(&a, Daemon::Distributed, &a.legitimacy(), 1 << 12).unwrap();
        let _ = chain.expected_reward(&[1.0]);
    }

    #[test]
    fn worst_index_points_at_worst_case() {
        let a = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
        let chain = AbsorbingChain::build(&a, Daemon::Central, &a.legitimacy(), 1 << 20).unwrap();
        let times = chain.expected_steps().unwrap();
        let worst = times.worst_index().unwrap();
        assert!((times.of_transient(worst) - times.worst_case()).abs() < 1e-12);
    }
}

//! The single-pass fairness analysis against the per-kind searches it
//! replaced: one Tarjan walk plus one component summary must reproduce,
//! bit for bit, the verdicts and rendered witnesses of four separate
//! Tarjan-and-scan searches (kept below as the reference), over the zoo
//! × the paper's four daemons × the flat, compressed and disk tiers —
//! the disk tier with chunks small enough that the cache must rotate.

use stab_algorithms::{
    CenterLeader, DijkstraFourState, DijkstraRing, DijkstraThreeState, FairnessGadget,
    GreedyColoring, HermanRing, ParentLeader, TokenCirculation, TwoProcessToggle,
};
use stab_checker::analysis::{analyze_space, StabilizationReport};
use stab_checker::{scc as checker_scc, ExploredSpace, Verdict, Witness};
use stab_core::engine::{BitSet, Budget, EdgeStoreKind, ExploreOptions, SpillConfig};
use stab_core::{Algorithm, CoreError, Daemon, Legitimacy, LocalState};
use stab_graph::builders;

const CAP: u64 = 1 << 22;

/// Chunks of a few rows and a two-chunk cache: every analysis pass
/// evicts and re-reads.
fn tiny_spill() -> SpillConfig {
    SpillConfig {
        dir: None,
        chunk_bytes: 256,
        cache_bytes: 512,
    }
}

// ---------------------------------------------------------------------
// Reference: the per-kind searches, one Tarjan walk per fairness kind.
// ---------------------------------------------------------------------

mod scc {
    pub use stab_checker::scc::membership;
    use stab_checker::ExploredSpace;
    use stab_core::engine::{BitSet, Budget};
    use stab_core::{CoreError, LocalState};

    /// The Tarjan walk, behind the budget's entry probe.
    pub fn sccs_budgeted<S: LocalState>(
        space: &ExploredSpace<S>,
        alive: &BitSet,
        budget: &Budget,
    ) -> Result<Vec<Vec<u32>>, CoreError> {
        budget.probe("verdicts", space.resident_edge_bytes(), 0)?;
        Ok(stab_checker::scc::sccs(space, alive))
    }

    /// Whether a component contains at least one internal edge (including
    /// self-loops) — i.e. supports an infinite execution.
    pub fn has_internal_edge<S: LocalState>(
        space: &ExploredSpace<S>,
        comp: &[u32],
        alive: &BitSet,
    ) -> bool {
        let in_comp = membership(space.total(), comp);
        comp.iter().any(|&v| {
            space
                .edge_iter(v)
                .any(|e| alive.get(e.to as usize) && in_comp.get(e.to as usize))
        })
    }

    /// Extracts some cycle within a component (used for lasso display): walks
    /// internal edges from `start` until a repeat.
    pub fn some_cycle<S: LocalState>(
        space: &ExploredSpace<S>,
        comp: &[u32],
        alive: &BitSet,
    ) -> Vec<u32> {
        let in_comp = membership(space.total(), comp);
        let start = comp
            .iter()
            .copied()
            .find(|&v| {
                space
                    .edge_iter(v)
                    .any(|e| alive.get(e.to as usize) && in_comp.get(e.to as usize))
            })
            .expect("component has an internal edge");
        let mut seen_at = std::collections::HashMap::new();
        let mut path = vec![start];
        seen_at.insert(start, 0usize);
        let mut cur = start;
        loop {
            let next = space
                .edge_iter(cur)
                .find(|e| alive.get(e.to as usize) && in_comp.get(e.to as usize))
                .expect("strongly connected component keeps internal edges")
                .to;
            if let Some(&i) = seen_at.get(&next) {
                return path[i..].to_vec();
            }
            seen_at.insert(next, path.len());
            path.push(next);
            cur = next;
        }
    }
}

fn reference_report<S: LocalState>(
    space: &ExploredSpace<S>,
    algorithm: String,
    spec: String,
    budget: &Budget,
) -> Result<StabilizationReport, CoreError> {
    let states = u64::from(space.total());
    budget.probe("verdicts", space.resident_edge_bytes(), 0)?;
    let reachable = space.reachable_from_initial();
    budget.probe("verdicts", space.resident_edge_bytes(), states)?;
    let can_reach = space.can_reach_legit_budgeted(budget)?;
    budget.probe("verdicts", space.resident_edge_bytes(), states)?;

    let closure = check_closure(space);
    let weak = check_weak(space, &can_reach);
    let deadlock = find_deadlock(space, &reachable);

    // Fair-cycle analyses run on the reachable illegitimate subgraph: a
    // non-converging execution never enters L (it would stay by closure),
    // so its recurrent behaviour lives entirely outside L.
    let alive = reachable.and_not(space.transition_system().legit());

    let self_unfair = fairness_verdict(space, &alive, &deadlock, FairKind::Unfair, budget)?;
    let self_weakly_fair = fairness_verdict(space, &alive, &deadlock, FairKind::Weak, budget)?;
    let self_strongly_fair = fairness_verdict(space, &alive, &deadlock, FairKind::Strong, budget)?;
    let self_gouda = fairness_verdict(space, &alive, &deadlock, FairKind::Gouda, budget)?;

    // Probabilistic convergence via the independent a.s.-reachability
    // criterion: from every reachable configuration, L is reachable.
    let probabilistic = check_probabilistic(space, &reachable, &can_reach);

    Ok(StabilizationReport {
        algorithm,
        spec,
        daemon: space.daemon(),
        states: space.total() as u64,
        legitimate: space.legit_count(),
        deterministic: space.deterministic(),
        closure,
        weak,
        self_unfair,
        self_weakly_fair,
        self_strongly_fair,
        self_gouda,
        probabilistic,
    })
}

/// Strong closure: every step from `L` stays in `L`.
fn check_closure<S: LocalState>(space: &ExploredSpace<S>) -> Verdict {
    for id in 0..space.total() {
        if !space.is_legit(id) {
            continue;
        }
        for e in space.edge_iter(id) {
            if !space.is_legit(e.to) {
                return Verdict::fail(Witness::EscapesLegitimate {
                    from: space.render(id),
                    to: space.render(e.to),
                });
            }
        }
    }
    Verdict::pass()
}

/// Possible convergence: every initial configuration has an execution
/// reaching `L`.
fn check_weak<S: LocalState>(space: &ExploredSpace<S>, can_reach: &BitSet) -> Verdict {
    for id in 0..space.total() {
        if space.is_initial(id) && !can_reach.get(id as usize) {
            return Verdict::fail(Witness::NoPathToLegitimate {
                config: space.render(id),
            });
        }
    }
    Verdict::pass()
}

/// Probabilistic convergence under the randomized scheduler: from every
/// configuration reachable from the initial set, `L` remains reachable
/// (a.s. absorption in finite Markov chains).
fn check_probabilistic<S: LocalState>(
    space: &ExploredSpace<S>,
    reachable: &BitSet,
    can_reach: &BitSet,
) -> Verdict {
    match reachable.and_not(can_reach).ones().next() {
        Some(id) => Verdict::fail(Witness::NoPathToLegitimate {
            // lint: cast-ok(bitset bits are bounded by the u32 config count)
            config: space.render(id as u32),
        }),
        None => Verdict::pass(),
    }
}

/// A reachable terminal configuration outside `L`, if any.
fn find_deadlock<S: LocalState>(space: &ExploredSpace<S>, reachable: &BitSet) -> Option<u32> {
    (0..space.total())
        .find(|&id| reachable.get(id as usize) && !space.is_legit(id) && space.is_terminal(id))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FairKind {
    Unfair,
    Weak,
    Strong,
    Gouda,
}

/// Certain convergence under a fairness assumption: fails on a reachable
/// deadlock outside `L` or a reachable fairness-compatible cycle outside
/// `L`.
fn fairness_verdict<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    deadlock: &Option<u32>,
    kind: FairKind,
    budget: &Budget,
) -> Result<Verdict, CoreError> {
    if let Some(id) = *deadlock {
        return Ok(Verdict::fail(Witness::DeadlockOutsideLegitimate {
            config: space.render(id),
        }));
    }
    let comp = match kind {
        FairKind::Unfair => find_any_cycle_component(space, alive, budget)?,
        FairKind::Weak => find_weakly_fair_component(space, alive, budget)?,
        FairKind::Strong => find_strongly_fair_component(space, alive, budget)?,
        FairKind::Gouda => find_closed_component(space, alive, budget)?,
    };
    Ok(match comp {
        None => Verdict::pass(),
        Some(comp) => {
            let in_comp = scc::membership(space.total(), comp.as_slice());
            let stem = space
                .path(|id| space.is_initial(id), |id| in_comp.get(id as usize))
                .unwrap_or_default();
            let cycle = scc::some_cycle(space, &comp, alive);
            Verdict::fail(Witness::Lasso {
                stem: stem.into_iter().map(|id| space.render(id)).collect(),
                cycle: cycle.into_iter().map(|id| space.render(id)).collect(),
            })
        }
    })
}

/// Any SCC with an internal edge: an (unfair) infinite execution.
fn find_any_cycle_component<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    budget: &Budget,
) -> Result<Option<Vec<u32>>, CoreError> {
    Ok(scc::sccs_budgeted(space, alive, budget)?
        .into_iter()
        .find(|comp| scc::has_internal_edge(space, comp, alive)))
}

/// Generalized-Büchi check for weak fairness: a component supports a
/// weakly-fair infinite execution iff every process is either disabled at
/// some configuration of the component or activated on some internal edge
/// (the cycle can then be stitched to visit all these witnesses).
fn find_weakly_fair_component<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    budget: &Budget,
) -> Result<Option<Vec<u32>>, CoreError> {
    Ok(scc::sccs_budgeted(space, alive, budget)?
        .into_iter()
        .find(|comp| {
            if !scc::has_internal_edge(space, comp, alive) {
                return false;
            }
            let in_comp = scc::membership(space.total(), comp);
            let mut always_enabled = u64::MAX;
            let mut moved = 0u64;
            for &v in comp {
                always_enabled &= space.enabled_mask(v);
                for e in space.edge_iter(v) {
                    if in_comp.get(e.to as usize) {
                        moved |= e.movers;
                    }
                }
            }
            always_enabled & !moved == 0
        }))
}

/// Streett-style recursive refinement for strong fairness: a component is
/// strongly-fair iff every process enabled somewhere in it is activated on
/// some internal edge; otherwise remove the configurations where a
/// violating process is enabled and recurse into the sub-components.
fn find_strongly_fair_component<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    budget: &Budget,
) -> Result<Option<Vec<u32>>, CoreError> {
    for comp in scc::sccs_budgeted(space, alive, budget)? {
        if !scc::has_internal_edge(space, &comp, alive) {
            continue;
        }
        let in_comp = scc::membership(space.total(), &comp);
        let mut enabled_union = 0u64;
        let mut moved = 0u64;
        for &v in &comp {
            enabled_union |= space.enabled_mask(v);
            for e in space.edge_iter(v) {
                if in_comp.get(e.to as usize) {
                    moved |= e.movers;
                }
            }
        }
        let bad = enabled_union & !moved;
        if bad == 0 {
            return Ok(Some(comp));
        }
        // An execution confined to this component that starves a `bad`
        // process must avoid the configurations where it is enabled.
        let mut refined = BitSet::new(space.total() as usize);
        let mut shrunk = false;
        for &v in &comp {
            if space.enabled_mask(v) & bad == 0 {
                refined.insert(v as usize);
            } else {
                shrunk = true;
            }
        }
        debug_assert!(
            shrunk,
            "a bad process is enabled somewhere in the component"
        );
        if let Some(found) = find_strongly_fair_component(space, &refined, budget)? {
            return Ok(Some(found));
        }
    }
    Ok(None)
}

/// Gouda fairness: a non-converging Gouda-fair execution requires a
/// *closed* recurrent set — a bottom SCC (no edge leaves it at all).
fn find_closed_component<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    budget: &Budget,
) -> Result<Option<Vec<u32>>, CoreError> {
    Ok(scc::sccs_budgeted(space, alive, budget)?
        .into_iter()
        .find(|comp| {
            if !scc::has_internal_edge(space, comp, alive) {
                return false;
            }
            let in_comp = scc::membership(space.total(), comp);
            comp.iter()
                .all(|&v| space.edge_iter(v).all(|e| in_comp.get(e.to as usize)))
        }))
}

// ---------------------------------------------------------------------
// The differential.
// ---------------------------------------------------------------------

fn assert_same_report(got: &StabilizationReport, want: &StabilizationReport, label: &str) {
    assert_eq!(got.states, want.states, "{label}: states");
    assert_eq!(got.legitimate, want.legitimate, "{label}: legitimate");
    assert_eq!(
        got.deterministic, want.deterministic,
        "{label}: determinism"
    );
    for (g, w, name) in [
        (&got.closure, &want.closure, "closure"),
        (&got.weak, &want.weak, "weak"),
        (&got.self_unfair, &want.self_unfair, "unfair"),
        (&got.self_weakly_fair, &want.self_weakly_fair, "weakly fair"),
        (
            &got.self_strongly_fair,
            &want.self_strongly_fair,
            "strongly fair",
        ),
        (&got.self_gouda, &want.self_gouda, "Gouda"),
        (&got.probabilistic, &want.probabilistic, "probabilistic"),
    ] {
        assert_eq!(g, w, "{label}: {name}");
        assert_eq!(g.to_string(), w.to_string(), "{label}: rendered {name}");
    }
    assert_eq!(got.to_string(), want.to_string(), "{label}: report");
}

/// Explores `alg` under each paper daemon onto each tier and pins the
/// single-pass report to the reference. Returns how many reports carried
/// a lasso witness, so callers can check the case was not vacuous.
fn differential<A, L>(alg: &A, spec: &L, opts: &ExploreOptions<A::State>) -> usize
where
    A: Algorithm + Sync,
    A::State: LocalState + Sync,
    L: Legitimacy<A::State> + Sync,
{
    let mut lassos = 0;
    for daemon in Daemon::ALL {
        for kind in [
            EdgeStoreKind::Flat,
            EdgeStoreKind::Compressed,
            EdgeStoreKind::Disk,
        ] {
            let label = format!("{} under {daemon} ({})", alg.name(), kind.label());
            let topts = opts.clone().with_edge_store(kind).with_spill(tiny_spill());
            let space = match ExploredSpace::explore_with(alg, daemon, spec, CAP, &topts) {
                Ok(space) => space,
                // The distributed daemon's enumeration cap is the
                // exploration's business, not the analysis'.
                Err(CoreError::TooManyEnabled { .. }) => continue,
                Err(e) => panic!("{label}: {e}"),
            };
            let want = reference_report(&space, alg.name(), spec.name(), &Budget::unlimited())
                .expect("unlimited budget");
            let got = analyze_space(&space, alg.name(), spec.name());
            assert_same_report(&got, &want, &label);
            lassos += [
                &got.self_unfair,
                &got.self_weakly_fair,
                &got.self_strongly_fair,
                &got.self_gouda,
            ]
            .iter()
            .filter(|v| matches!(v.witness(), Some(Witness::Lasso { .. })))
            .count();
        }
    }
    lassos
}

#[test]
fn token_circulation_matches_reference() {
    for n in [4, 6] {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        assert!(differential(&alg, &alg.legitimacy(), &ExploreOptions::full()) > 0);
    }
}

#[test]
fn dijkstra_rings_match_reference() {
    let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    differential(&alg, &alg.legitimacy(), &ExploreOptions::full());
    let alg = DijkstraThreeState::on_ring(&builders::ring(4)).unwrap();
    differential(&alg, &alg.legitimacy(), &ExploreOptions::full());
    let alg = DijkstraFourState::on_path(&builders::path(4)).unwrap();
    differential(&alg, &alg.legitimacy(), &ExploreOptions::full());
}

#[test]
fn herman_matches_reference() {
    let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    differential(&alg, &alg.legitimacy(), &ExploreOptions::full());
}

#[test]
fn coloring_and_toggle_match_reference() {
    let alg = GreedyColoring::new(&builders::path(4)).unwrap();
    assert!(differential(&alg, &alg.legitimacy(), &ExploreOptions::full()) > 0);
    let alg = TwoProcessToggle::new();
    assert!(differential(&alg, &alg.legitimacy(), &ExploreOptions::full()) > 0);
}

#[test]
fn leader_elections_match_reference() {
    let alg = ParentLeader::on_tree(&builders::path(4)).unwrap();
    differential(&alg, &alg.legitimacy(), &ExploreOptions::full());
    let alg = CenterLeader::on_tree(&builders::path(4)).unwrap();
    assert!(differential(&alg, &alg.legitimacy(), &ExploreOptions::full()) > 0);
}

/// The gadget's weakly-fair cycle fails the strong-fairness check at the
/// top level, so the strongly fair verdict goes through the refinement.
#[test]
fn fairness_gadget_matches_reference() {
    let alg = FairnessGadget::new();
    assert!(differential(&alg, &alg.legitimacy(), &ExploreOptions::full()) > 0);
}

/// Reachable-only spaces start the stems at designated seeds rather than
/// everywhere.
#[test]
fn reachable_spaces_match_reference() {
    let alg = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
    let ix = stab_core::SpaceIndexer::new(&alg, CAP).unwrap();
    let seeds: Vec<_> = ix.iter().step_by(7).collect();
    differential(&alg, &alg.legitimacy(), &ExploreOptions::reachable(seeds));
}

/// Both analyses give up on the same exhausted budget, with the same
/// typed error.
#[test]
fn exhausted_budget_is_refused_alike() {
    let alg = TwoProcessToggle::new();
    let spec = alg.legitimacy();
    let space = ExploredSpace::explore(&alg, Daemon::Distributed, &spec, CAP).unwrap();
    let expired = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
    let got = stab_checker::analyze_space_budgeted(&space, "t".into(), "s".into(), &expired);
    let want = reference_report(&space, "t".into(), "s".into(), &expired);
    assert!(matches!(
        (got, want),
        (
            Err(CoreError::BudgetExhausted {
                stage: "verdicts",
                ..
            }),
            Err(CoreError::BudgetExhausted {
                stage: "verdicts",
                ..
            })
        )
    ));
}

/// On the disk tier with a one-chunk cache, the whole analysis (closures,
/// one decomposition, summary, witnesses) reads fewer chunks than four
/// standalone Tarjan walks over the same alive set did.
#[test]
fn one_analysis_misses_fewer_chunks_than_four_tarjan_walks() {
    let alg = HermanRing::on_ring(&builders::ring(11)).unwrap();
    let spec = alg.legitimacy();
    let opts = ExploreOptions::full()
        .with_edge_store(EdgeStoreKind::Disk)
        .with_spill(SpillConfig {
            dir: None,
            chunk_bytes: 4096,
            cache_bytes: 4096,
        });
    let space = ExploredSpace::explore_with(&alg, Daemon::Synchronous, &spec, CAP, &opts).unwrap();
    let ts = space.transition_system();
    let misses = || ts.spill_cache_stats().expect("disk tier").1;

    let before = misses();
    analyze_space(&space, alg.name(), spec.name());
    let analysis = misses() - before;

    let alive = space
        .reachable_from_initial()
        .and_not(space.transition_system().legit());
    let before = misses();
    for _ in 0..4 {
        checker_scc::sccs(&space, &alive);
    }
    let four_walks = misses() - before;
    assert!(
        analysis < four_walks,
        "analysis missed {analysis} chunks, four Tarjan walks {four_walks}"
    );
}

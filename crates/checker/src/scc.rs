//! Strongly connected components over configuration subgraphs, and the
//! per-component facts the fair-cycle searches read.
//!
//! An analysis decomposes its `alive` set once
//! (`Components::decompose_budgeted`): one Tarjan walk plus one
//! id-ordered summary pass over the alive rows, after which every
//! fairness check is a lookup over the components in Tarjan order.
//!
//! Tarjan walks the engine's edge store through zero-alloc row cursors
//! ([`EdgeIter`]) — one live cursor per DFS frame — so it runs unchanged
//! over the flat CSR, the compressed byte-stream, and the disk-spilled
//! chunk tiers (a disk-tier cursor pins its chunk in the cache for the
//! frame's lifetime; the id-ordered summary pass reads each chunk once).
//! The `alive` masks are bit-packed [`BitSet`]s, matching the engine's
//! label sets.

use stab_core::engine::{ids, BitSet, Budget, EdgeIter};
use stab_core::{CoreError, LocalState};

use crate::space::ExploredSpace;

/// Nodes discovered (or rows summarised) between two cooperative budget
/// probes.
const PROBE_STRIDE: u32 = 4096;

#[cfg(test)]
thread_local! {
    /// Tarjan walks on this thread, for the tests that pin how often an
    /// analysis decomposes.
    pub(crate) static TARJAN_RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Iterative Tarjan SCC over the subgraph induced by `alive`. Returns the
/// components (each a list of configuration ids); single nodes without a
/// self-loop are included as singleton components.
pub fn sccs<S: LocalState>(space: &ExploredSpace<S>, alive: &BitSet) -> Vec<Vec<u32>> {
    let (comps, _) = tarjan(space, alive, &Budget::unlimited()).expect("unlimited budget");
    comps.iter().map(|(members, _)| members.to_vec()).collect()
}

/// The Tarjan walk: the components in pop order with blank facts, and
/// each alive node's component number (`u32::MAX` outside `alive`).
/// Probes the `verdicts` stage at entry and every `PROBE_STRIDE`
/// discovered nodes, each probe carrying the store's resident-set bytes
/// (the disk tier's cache-pressure figure).
fn tarjan<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    budget: &Budget,
) -> Result<(Components, Vec<u32>), CoreError> {
    #[cfg(test)]
    TARJAN_RUNS.with(|c| c.set(c.get() + 1));
    let n = space.total() as usize;
    budget.probe("verdicts", space.resident_edge_bytes(), 0)?;
    debug_assert_eq!(alive.len(), n);
    // `index[v]` is v's discovery index while v is on the Tarjan stack
    // and its component number once popped (`u32::MAX`: not visited).
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = BitSet::new(n);
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut out = Components {
        members: Vec::new(),
        bounds: vec![0],
        facts: Vec::new(),
    };

    // Explicit DFS stack: (node, edge cursor). The cursor decodes the
    // node's row lazily and resumes where the frame left off.
    let mut call: Vec<(u32, EdgeIter<'_>)> = Vec::new();
    // lint: cast-ok(config counts are bounded by the u32 id width)
    for root in 0..n as u32 {
        if !alive.get(root as usize) || index[root as usize] != u32::MAX {
            continue;
        }
        let mut discovered = Some(root);
        loop {
            if let Some(w) = discovered.take() {
                index[w as usize] = next_index;
                low[w as usize] = next_index;
                next_index += 1;
                if next_index.is_multiple_of(PROBE_STRIDE) {
                    budget.probe("verdicts", space.resident_edge_bytes(), next_index as u64)?;
                }
                stack.push(w);
                on_stack.insert(w as usize);
                call.push((w, space.edge_iter(w)));
            }
            let Some(frame) = call.last_mut() else { break };
            let v = frame.0;
            match frame.1.next() {
                Some(e) if alive.get(e.to as usize) && index[e.to as usize] == u32::MAX => {
                    discovered = Some(e.to);
                }
                Some(e) if on_stack.get(e.to as usize) => {
                    low[v as usize] = low[v as usize].min(index[e.to as usize]);
                }
                Some(_) => {}
                None => {
                    // v finished.
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent as usize] = low[parent as usize].min(low[v as usize]);
                    }
                    if low[v as usize] == index[v as usize] {
                        let comp = ids::id_u32(out.facts.len(), "components fit the u32 id width");
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack.remove(w as usize);
                            index[w as usize] = comp;
                            out.members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        out.bounds.push(out.members.len());
                        out.facts.push(ComponentFacts {
                            internal: false,
                            closed: true,
                            moved: 0,
                            enabled_and: u64::MAX,
                            enabled_or: 0,
                        });
                    }
                }
            }
        }
    }
    Ok((out, index))
}

/// What one component's rows say about the executions confined to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ComponentFacts {
    /// Some edge stays inside (a self-loop counts): an infinite execution.
    pub(crate) internal: bool,
    /// No edge leaves it, into `alive` or not: a bottom SCC.
    pub(crate) closed: bool,
    /// OR of the movers on its internal edges.
    pub(crate) moved: u64,
    /// Processes enabled at every one of its configurations.
    pub(crate) enabled_and: u64,
    /// Processes enabled at some of its configurations.
    pub(crate) enabled_or: u64,
}

/// The strongly connected components of one `alive` subgraph in Tarjan
/// order, each with its [`ComponentFacts`].
#[derive(Debug, Clone)]
pub(crate) struct Components {
    /// Component `c` is `members[bounds[c]..bounds[c + 1]]`, in pop order.
    members: Vec<u32>,
    bounds: Vec<usize>,
    facts: Vec<ComponentFacts>,
}

impl Components {
    /// Unbudgeted [`Components::decompose_budgeted`].
    pub(crate) fn decompose<S: LocalState>(space: &ExploredSpace<S>, alive: &BitSet) -> Self {
        Self::decompose_budgeted(space, alive, &Budget::unlimited())
            .expect("unlimited budget cannot be exhausted")
    }

    /// One Tarjan walk over `alive`, then one id-ordered pass over the
    /// alive rows that fills in every component's facts, probing the
    /// `verdicts` stage every `PROBE_STRIDE` rows.
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetExhausted`] when a probe trips.
    pub(crate) fn decompose_budgeted<S: LocalState>(
        space: &ExploredSpace<S>,
        alive: &BitSet,
        budget: &Budget,
    ) -> Result<Self, CoreError> {
        let (mut comps, comp_of) = tarjan(space, alive, budget)?;
        for (row, v) in alive.ones().enumerate() {
            if (row + 1).is_multiple_of(PROBE_STRIDE as usize) {
                budget.probe("verdicts", space.resident_edge_bytes(), row as u64 + 1)?;
            }
            let v = ids::id_u32(v, "alive ids fit the u32 id width");
            let c = comp_of[v as usize];
            let f = &mut comps.facts[c as usize];
            f.enabled_and &= space.enabled_mask(v);
            f.enabled_or |= space.enabled_mask(v);
            for e in space.edge_iter(v) {
                if comp_of[e.to as usize] == c {
                    f.internal = true;
                    f.moved |= e.movers;
                } else {
                    f.closed = false;
                }
            }
        }
        Ok(comps)
    }

    /// Every component's members (in pop order) and facts, in Tarjan
    /// order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u32], &ComponentFacts)> {
        self.bounds
            .windows(2)
            .map(|w| &self.members[w[0]..w[1]])
            .zip(&self.facts)
    }

    /// The members of the first component, in Tarjan order, whose facts
    /// satisfy `pred`.
    pub(crate) fn find(&self, pred: impl Fn(&ComponentFacts) -> bool) -> Option<&[u32]> {
        self.iter().find(|(_, f)| pred(f)).map(|(m, _)| m)
    }
}

/// Membership mask of a component.
pub fn membership(total: u32, comp: &[u32]) -> BitSet {
    let mut mask = BitSet::new(total as usize);
    for &v in comp {
        mask.insert(v as usize);
    }
    mask
}

/// Extracts some cycle inside a component (used for lasso display):
/// follows the first internal edge from `start` until a configuration
/// repeats. Every member of a recurrent component has an internal edge.
pub fn some_cycle<S: LocalState>(
    space: &ExploredSpace<S>,
    start: u32,
    in_comp: &BitSet,
) -> Vec<u32> {
    let mut seen_at = std::collections::HashMap::new();
    let mut path = vec![start];
    seen_at.insert(start, 0usize);
    let mut cur = start;
    loop {
        let next = space
            .edge_iter(cur)
            .find(|e| in_comp.get(e.to as usize))
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

#[cfg(test)]
mod tests {
    use super::*;
    use stab_algorithms::TwoProcessToggle;
    use stab_core::{Configuration, Daemon};

    fn toggle_space() -> ExploredSpace<bool> {
        let a = TwoProcessToggle::new();
        let spec = a.legitimacy();
        ExploredSpace::explore(&a, Daemon::Central, &spec, 1 << 10).unwrap()
    }

    #[test]
    fn central_toggle_has_one_nontrivial_scc() {
        // Under the central daemon: (F,F) <-> (T,F) and (F,F) <-> (F,T)
        // form one SCC; (T,T) is a terminal singleton.
        let space = toggle_space();
        let alive = BitSet::full(space.total() as usize);
        let comps = Components::decompose(&space, &alive);
        let listed: Vec<_> = comps.iter().collect();
        assert_eq!(listed.len(), 2);
        let (big, facts) = listed
            .iter()
            .find(|(m, _)| m.len() == 3)
            .expect("3-config SCC");
        assert!(facts.internal);
        // No central step reaches (T,T): the toggle component is closed.
        assert!(facts.closed);
        assert_eq!(facts.moved, 0b11);
        assert_eq!((facts.enabled_and, facts.enabled_or), (0b00, 0b11));
        let (single, facts) = listed.iter().find(|(m, _)| m.len() == 1).unwrap();
        assert!(!facts.internal);
        assert!(facts.closed, "a terminal node is closed");
        let tt = space.id_of(&Configuration::from_vec(vec![true, true]));
        assert_eq!(*single, [tt]);
        // The decomposition lists the components `sccs` does.
        let members: Vec<&[u32]> = listed.iter().map(|(m, _)| *m).collect();
        assert_eq!(members, sccs(&space, &alive));
        assert_eq!(comps.find(|f| f.internal), Some(*big));
    }

    #[test]
    fn filtering_splits_components() {
        let space = toggle_space();
        let mut alive = BitSet::full(space.total() as usize);
        // Remove (F,F): the remaining illegitimate configurations cannot
        // reach each other.
        let ff = space.id_of(&Configuration::from_vec(vec![false, false]));
        alive.remove(ff as usize);
        let comps = Components::decompose(&space, &alive);
        assert_eq!(comps.iter().count(), 3);
        assert_eq!(comps.find(|f| f.internal), None);
    }

    #[test]
    fn exhausted_budget_stops_tarjan_with_typed_error() {
        let space = toggle_space();
        let alive = BitSet::full(space.total() as usize);
        let budget = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
        assert!(matches!(
            Components::decompose_budgeted(&space, &alive, &budget),
            Err(CoreError::BudgetExhausted {
                stage: "verdicts",
                resource: "wall-time-ms",
                ..
            })
        ));
    }

    #[test]
    fn some_cycle_returns_a_loop() {
        let space = toggle_space();
        let alive = BitSet::full(space.total() as usize);
        let comps = sccs(&space, &alive);
        let big = comps.iter().find(|c| c.len() == 3).unwrap();
        let cycle = some_cycle(&space, big[0], &membership(space.total(), big));
        assert!(cycle.len() >= 2);
        // The cycle's successive elements are connected by edges.
        for i in 0..cycle.len() {
            let from = cycle[i];
            let to = cycle[(i + 1) % cycle.len()];
            assert!(
                space.edges(from).unwrap().iter().any(|e| e.to == to),
                "cycle edge {from}->{to} missing"
            );
        }
    }
}

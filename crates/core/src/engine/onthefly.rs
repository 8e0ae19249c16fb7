//! Traversal selection: the full mixed-radix sweep, the symmetry-quotient
//! sweep, and on-the-fly reachable-only BFS with hash-interned
//! configurations.
//!
//! The full sweep materialises every configuration, so state-space size —
//! not speed — caps the largest checkable instance. The two traversals
//! here push past that cap along independent axes:
//!
//! * the **quotient sweep** stores one representative per orbit of the
//!   selected symmetry group ([`Quotient`]): ≈ `total / N` states on an
//!   `N`-ring under rotations, ≈ `total / 2N` under the dihedral group,
//!   up to `∏ |class|!` less on stars and trees under leaf permutations —
//!   still visiting every index once to find the representatives;
//! * the **reachable BFS** stores only configurations reachable from a
//!   designated initial set, discovered frontier by frontier, with a
//!   `HashMap` interner handing out dense ids in discovery order — the
//!   standard on-the-fly construction of explicit-state model checkers.
//!
//! Both compose: a reachable BFS over canonical representatives explores
//! the quotient of the reachable set.

use std::collections::HashMap;

use crate::algorithm::Algorithm;
use crate::config::Configuration;
use crate::scheduler::DaemonSpec;
use crate::space::SpaceIndexer;
use crate::spec::Legitimacy;
use crate::CoreError;

use super::bitset::BitSet;
use super::edgestore::{EdgeStorageBuilder, EdgeStoreKind};
use super::equivariance::GateStamp;
use super::explore::{
    conflict_masks, run_fingerprint, Chunk, Edge, MergeState, TransitionSystem, COMPRESSED_BATCH,
};
use super::ids;
use super::parallel;
use super::quotient::{CanonScratch, GroupCanonicalizer};
use super::resilience::{
    CheckpointConfig, Checkpointer, FinalMeta, LabelBits, RunGuard, SnapshotSource,
};
use super::rowgen::RowGen;
use super::spill::SpillConfig;

/// How to traverse the configuration space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreMode<S> {
    /// Sweep every mixed-radix index (the stabilization default, `I = C`).
    Full,
    /// Breadth-first search from the designated initial configurations;
    /// only reachable configurations are interned and explored, and the
    /// system's initial set is exactly the seeds.
    Reachable {
        /// The designated initial configurations.
        seeds: Vec<Configuration<S>>,
    },
}

/// Symmetry reduction applied to configuration ids: which permutation
/// group of the communication graph the exploration quotients by (one id
/// per group orbit, see [`GroupCanonicalizer`]).
///
/// Every quotient requires the algorithm to respect the group and the
/// specification to be invariant under it — both are checked per run by
/// the engine's equivariance gate, which rejects unsound combinations
/// with [`CoreError::QuotientUnsupported`] *per algorithm*, not per
/// topology (e.g. Dijkstra's rooted ring is rejected on the very topology
/// Herman's ring is accepted on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quotient {
    /// No reduction: one id per configuration.
    #[default]
    None,
    /// One id per rotation orbit of a uniform ring (cyclic group `C_N`,
    /// up to `N`-fold reduction).
    RingRotation,
    /// One id per rotation-or-reflection orbit of a uniform ring
    /// (dihedral group `D_N`, up to `2N`-fold reduction).
    RingDihedral,
    /// The topology-derived full-automorphism quotient: dihedral on
    /// rings, the leaf-permutation subgroup on stars and trees
    /// (up to `∏ |class|!`-fold reduction).
    Automorphism,
}

impl Quotient {
    /// Stable lower-case label (`"none"` / `"ring-rotation"` /
    /// `"ring-dihedral"` / `"automorphism"`) used by plan records and the
    /// `BENCH_explore.json` schema.
    pub fn label(self) -> &'static str {
        match self {
            Quotient::None => "none",
            Quotient::RingRotation => "ring-rotation",
            Quotient::RingDihedral => "ring-dihedral",
            Quotient::Automorphism => "automorphism",
        }
    }
}

/// Which traversal produced a [`TransitionSystem`] (for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalMode {
    /// Full sweep (plain or quotient).
    Full,
    /// Reachable-only BFS from designated seeds.
    Reachable,
}

/// Per-run exploration options for
/// [`TransitionSystem::explore_with`].
///
/// ```
/// use stab_core::engine::{ExploreOptions, Quotient};
/// let opts: ExploreOptions<u8> = ExploreOptions::full().with_ring_quotient();
/// assert_eq!(opts.quotient, Quotient::RingRotation);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions<S> {
    /// The traversal: full sweep or reachable-only BFS.
    pub mode: ExploreMode<S>,
    /// Optional symmetry reduction.
    pub quotient: Quotient,
    /// Reachable-mode safety valve: the BFS fails with
    /// [`CoreError::StateSpaceTooLarge`] once more states than this are
    /// interned (default `u32::MAX`, the id-width limit; larger caps are
    /// rejected with [`CoreError::StateCapExceedsIdWidth`]).
    pub max_states: u64,
    /// Which edge-store tier the exploration materialises (default
    /// [`EdgeStoreKind::Flat`]; select [`EdgeStoreKind::Compressed`] for
    /// instances whose 24 B/edge flat store exceeds RAM).
    pub edge_store: EdgeStoreKind,
    /// Periodic checkpointing of exploration state to a frame directory
    /// (default off). With checkpointing the exploration runs
    /// sequentially so every frame snapshots a deterministic prefix; a
    /// re-run with the same options resumes from the frames on disk, and
    /// [`TransitionSystem::resume`] reconstructs a completed run.
    pub checkpoint: Option<CheckpointConfig>,
    /// Disk-tier spill placement and budgets (chunk size, pinned cache
    /// bytes); ignored by the in-RAM tiers. With no explicit directory
    /// a checkpointed run spills next to its frames
    /// (`<checkpoint-dir>/spill`) and an unanchored run uses a
    /// self-cleaning temp directory.
    pub spill: SpillConfig,
    /// The equivariance gate these options already passed, when they come
    /// from [`Plan::options`](super::Plan::options); the exploration skips
    /// its own gate only when the stamp names the run it explores.
    pub(crate) gate: Option<GateStamp>,
}

impl<S> ExploreOptions<S> {
    /// The default traversal: full sweep, no quotient, flat edge store.
    pub fn full() -> Self {
        ExploreOptions {
            mode: ExploreMode::Full,
            quotient: Quotient::None,
            max_states: u32::MAX as u64,
            edge_store: EdgeStoreKind::Flat,
            checkpoint: None,
            spill: SpillConfig::default(),
            gate: None,
        }
    }

    /// Reachable-only BFS from `seeds`.
    pub fn reachable(seeds: Vec<Configuration<S>>) -> Self {
        ExploreOptions {
            mode: ExploreMode::Reachable { seeds },
            quotient: Quotient::None,
            max_states: u32::MAX as u64,
            edge_store: EdgeStoreKind::Flat,
            checkpoint: None,
            spill: SpillConfig::default(),
            gate: None,
        }
    }

    /// Selects the symmetry group the traversal quotients by (the
    /// exploration then runs the equivariance gate itself).
    ///
    /// ```
    /// use stab_core::engine::{ExploreOptions, Quotient};
    /// let opts: ExploreOptions<u8> = ExploreOptions::full().with_quotient(Quotient::RingDihedral);
    /// assert_eq!(opts.quotient, Quotient::RingDihedral);
    /// ```
    #[must_use]
    pub fn with_quotient(mut self, quotient: Quotient) -> Self {
        self.quotient = quotient;
        self.gate = None;
        self
    }

    /// Adds the ring-rotation quotient to the traversal (shorthand for
    /// [`ExploreOptions::with_quotient`]`(Quotient::RingRotation)`).
    #[must_use]
    pub fn with_ring_quotient(self) -> Self {
        self.with_quotient(Quotient::RingRotation)
    }

    /// Caps the number of interned states in reachable mode.
    #[must_use]
    pub fn with_max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }

    /// Selects the edge-store tier the exploration materialises.
    ///
    /// ```
    /// use stab_core::engine::{EdgeStoreKind, ExploreOptions};
    /// let opts: ExploreOptions<u8> =
    ///     ExploreOptions::full().with_edge_store(EdgeStoreKind::Compressed);
    /// assert_eq!(opts.edge_store, EdgeStoreKind::Compressed);
    /// ```
    #[must_use]
    pub fn with_edge_store(mut self, edge_store: EdgeStoreKind) -> Self {
        self.edge_store = edge_store;
        self
    }

    /// Checkpoints exploration state under `dir` every `every_n_states`
    /// explored states, as a chain of CRC32-framed delta files written
    /// atomically (temp file + rename). A re-run with the same options
    /// and directory resumes from the longest valid frame prefix instead
    /// of starting over; a corrupted or torn frame falls back to the
    /// previous one. Checkpointed explorations run sequentially so every
    /// frame snapshots a deterministic prefix of the traversal.
    #[must_use]
    pub fn with_checkpoint(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        every_n_states: u64,
    ) -> Self {
        self.checkpoint = Some(CheckpointConfig::new(dir, every_n_states));
        self
    }

    /// Overrides the disk-tier spill configuration (directory, chunk
    /// size, pinned-cache bytes). An explicit directory is treated as
    /// user-owned: stale chunks are pruned on reuse but the directory
    /// itself survives the run.
    #[must_use]
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = spill;
        self
    }

    /// The spill configuration a run actually uses: an explicit
    /// directory wins; otherwise a checkpointed run anchors its spill
    /// at `<checkpoint-dir>/spill` (so a resumed run re-spills into
    /// the same place [`TransitionSystem::resume`] reads), and an
    /// unanchored run gets a per-process self-cleaning temp dir.
    pub(super) fn effective_spill(&self) -> SpillConfig {
        let mut spill = self.spill.clone();
        if spill.dir.is_none() {
            if let Some(ck) = &self.checkpoint {
                spill.dir = Some(ck.dir.join("spill"));
            }
        }
        spill
    }
}

/// Dense ids for explored states.
#[derive(Debug)]
pub(super) enum StateIds {
    /// id = mixed-radix index (full sweep without quotient).
    Dense {
        /// Space size (for range checks).
        total: u64,
    },
    /// Hash-interned ids (quotient sweep or reachable BFS).
    Interned(StateTable),
}

/// The intern table of a non-dense exploration: dense id ↔ full-space
/// mixed-radix index, plus the group-orbit size per id (1 without
/// quotienting).
#[derive(Debug, Default)]
pub(super) struct StateTable {
    full_of: Vec<u64>,
    ids: HashMap<u64, u32>,
    orbit: Vec<u64>,
}

impl StateTable {
    /// The id of `full`, if interned.
    #[inline]
    pub fn lookup(&self, full: u64) -> Option<u32> {
        self.ids.get(&full).copied()
    }

    /// Interns `full` (computing its orbit size on first sight) and
    /// returns its id.
    #[inline]
    fn intern(&mut self, full: u64, orbit: impl FnOnce() -> u64) -> u32 {
        match self.ids.get(&full) {
            Some(&id) => id,
            None => {
                let id = ids::id_u32(self.full_of.len(), "interned state ids fit u32");
                self.full_of.push(full);
                self.orbit.push(orbit());
                self.ids.insert(full, id);
                id
            }
        }
    }

    /// The full-space index behind `id`.
    #[inline]
    pub fn full_of(&self, id: u32) -> u64 {
        self.full_of[id as usize]
    }

    /// The group-orbit size of `id`.
    #[inline]
    pub fn orbit(&self, id: u32) -> u64 {
        self.orbit[id as usize]
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.full_of.len()
    }

    /// Total concrete configurations represented (Σ orbit sizes).
    pub fn represented(&self) -> u64 {
        self.orbit.iter().sum()
    }

    /// The persisted columns (full-space index and orbit size, in id
    /// order) — the checkpoint snapshot surface.
    pub(super) fn parts(&self) -> (&[u64], &[u64]) {
        (&self.full_of, &self.orbit)
    }

    /// Rebuilds a table from its persisted columns (inverse of
    /// [`StateTable::parts`]); the hash index is rederived, so the result
    /// interns identically to the original.
    pub(super) fn from_parts(full_of: Vec<u64>, orbit: Vec<u64>) -> Self {
        let ids = full_of
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, ids::id_u32(i, "interned state ids fit u32")))
            .collect();
        StateTable {
            full_of,
            ids,
            orbit,
        }
    }
}

/// Merges consecutive equal `(to, movers)` edges of a sorted row, summing
/// probabilities — the orbit multiplicities of quotient folding.
fn merge_parallel_edges(row: &mut Vec<Edge>) {
    if row.len() <= 1 {
        return;
    }
    let mut write = 0;
    for read in 1..row.len() {
        if row[read].to == row[write].to && row[read].movers == row[write].movers {
            row[write].prob += row[read].prob;
        } else {
            write += 1;
            row[write] = row[read];
        }
    }
    row.truncate(write + 1);
}

/// Full sweep over a symmetry quotient: pass 1 collects the canonical
/// representatives (in ascending index order, one sequential scan),
/// pass 2 explores exactly those rows with successors canonicalized.
/// Under the distributed daemon many activations of one configuration
/// reach the same successor; the row arrives sorted by target, so each
/// run of repeats is canonicalized once (a last-seen check, no memo
/// table).
pub(super) fn explore_quotient_sweep<A, L>(
    alg: &A,
    ix: &SpaceIndexer<A::State>,
    daemon: DaemonSpec,
    spec: &L,
    canon: GroupCanonicalizer,
    opts: &ExploreOptions<A::State>,
    guard: &RunGuard,
) -> Result<TransitionSystem, CoreError>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let total = ix.total();
    let kind = opts.edge_store;
    let spill = opts.effective_spill();
    let quotient = opts.quotient;
    let mut ck = match &opts.checkpoint {
        Some(cfg) => Some(Checkpointer::open(
            cfg,
            run_fingerprint(alg, ix, daemon, opts),
            kind,
            guard.faults(),
        )?),
        None => None,
    };
    let mut replay = ck.as_mut().and_then(Checkpointer::take_replay);
    if replay.as_ref().is_some_and(|r| r.complete.is_some()) {
        let dir = &opts.checkpoint.as_ref().expect("checkpoint configured").dir;
        return replay
            .take()
            .expect("checked above")
            .into_transition_system(dir);
    }
    guard.probe("explore", 0, 0)?;
    // Pass 1: representatives and their orbit sizes. A resumed run skips
    // the pass — its first frame carried the whole table.
    let mut start = 0u64;
    let mut restored: Option<MergeState> = None;
    let table = match replay {
        Some(r) => {
            let (full_of, orbit): (Vec<u64>, Vec<u64>) = r.table.iter().copied().unzip();
            let t = StateTable::from_parts(full_of, orbit);
            start = r.cursor;
            restored = Some(MergeState::from_replay(kind, t.len(), r, &spill));
            t
        }
        None => {
            // Sequential: the scan costs ~60 ns per configuration on rings
            // (2 ms at 2¹⁵), and forking workers for it made the
            // allocator's peak RSS ratchet up across repeated studies.
            let mut table = StateTable::default();
            let mut scratch = CanonScratch::default();
            for full in 0..total {
                if canon.is_canonical(full, &mut scratch) {
                    table.intern(full, || canon.orbit(full, &mut scratch));
                }
            }
            table
        }
    };
    let n_reps = table.len();
    assert!(
        n_reps <= u32::MAX as usize,
        "quotient representatives must fit in u32 ids"
    );
    guard.probe("explore", 0, n_reps as u64)?;

    // Pass 2: explore the representative rows; successors canonicalize to
    // representatives, which are all in the table by construction. With a
    // flat store the rows are produced by parallel chunks; a compressed
    // store streams bounded sequential batches instead, so peak memory is
    // the byte stream plus one batch of flat rows.
    let conflicts = conflict_masks(alg, daemon);
    let table_ref = &table;
    let canon_ref = &canon;
    let explore_range = |range: std::ops::Range<u64>| -> Result<Chunk, CoreError> {
        let mut chunk = Chunk::with_capacity((range.end - range.start) as usize);
        let mut gen = RowGen::new();
        let mut digits = Vec::new();
        let mut scratch = CanonScratch::default();
        let mut row: Vec<Edge> = Vec::new();
        for id in range {
            // lint: cast-ok(chunk ranges stay within the u32 representative count)
            let full = table_ref.full_of(id as u32);
            let cfg = ix.decode(full);
            ix.write_digits(full, &mut digits);
            chunk.legit.push(spec.is_legitimate(&cfg));
            chunk.initial.push(alg.is_initial(&cfg));
            let (mask, det) = gen.generate(alg, ix, daemon, &conflicts, &cfg, &digits, full)?;
            chunk.deterministic &= det;
            chunk.enabled.push(mask);
            row.clear();
            // Rows are sorted by raw target, so repeats are adjacent; no
            // index reaches u64::MAX (totals stay below 2⁶³).
            let (mut last_raw, mut last_to) = (u64::MAX, 0u32);
            for e in &gen.row {
                if e.to != last_raw {
                    let cto = canon_ref.canonical(e.to, &mut scratch);
                    last_to = table_ref
                        .lookup(cto)
                        .expect("canonical successors are representatives");
                    last_raw = e.to;
                }
                row.push(Edge {
                    to: last_to,
                    movers: e.movers,
                    prob: e.prob,
                });
            }
            row.sort_unstable_by_key(|e| (e.to, e.movers));
            merge_parallel_edges(&mut row);
            chunk
                .counts
                .push(ids::id_u32(row.len(), "per-row edge count fits u32"));
            chunk.edges.extend_from_slice(&row);
        }
        Ok(chunk)
    };
    let mut merge = restored.unwrap_or_else(|| MergeState::new(kind, n_reps, &spill));
    // Checkpointed or guarded runs take the sequential path regardless of
    // tier, so frames and probes see a deterministic prefix.
    let sequential = kind != EdgeStoreKind::Flat || ck.is_some() || guard.is_active();
    if !sequential {
        for chunk in parallel::map_chunks(n_reps as u64, explore_range)? {
            merge.absorb(chunk);
        }
    } else {
        while start < n_reps as u64 {
            guard.probe("explore", merge.bytes_estimate(), start)?;
            let end = (start + COMPRESSED_BATCH).min(n_reps as u64);
            merge.absorb(explore_range(start..end)?);
            start = end;
            if let Some(ck) = &mut ck {
                ck.tick(start, &merge.snapshot_source(Some(&table), &[]))?;
            }
        }
        if let Some(ck) = &mut ck {
            ck.finalize(
                n_reps as u64,
                &merge.snapshot_source(Some(&table), &[]),
                FinalMeta {
                    dense_total: None,
                    canon: Some(&canon),
                    quotient,
                    traversal: TraversalMode::Full,
                },
            )?;
        }
    }
    let (forward, enabled, legit, initial, deterministic) = merge.finish();
    Ok(TransitionSystem::assemble(
        forward,
        enabled,
        legit,
        initial,
        deterministic,
        StateIds::Interned(table),
        Some(canon),
        quotient,
        TraversalMode::Full,
    ))
}

/// On-the-fly BFS from `seeds`: hash-interned ids in discovery order, the
/// selected edge store built incrementally from the frontier (the BFS is
/// row-at-a-time by nature, so the compressed tier streams with no
/// batching at all). With a canonicalizer, every interned configuration
/// is an orbit representative.
#[allow(clippy::too_many_arguments)]
pub(super) fn explore_reachable<A, L>(
    alg: &A,
    ix: &SpaceIndexer<A::State>,
    daemon: DaemonSpec,
    spec: &L,
    seeds: &[Configuration<A::State>],
    canon: Option<GroupCanonicalizer>,
    opts: &ExploreOptions<A::State>,
    guard: &RunGuard,
) -> Result<TransitionSystem, CoreError>
where
    A: Algorithm,
    L: Legitimacy<A::State>,
{
    let max_states = opts.max_states;
    // A cap above the id width could never be enforced — interning fails
    // at u32 ids first — so reject it instead of silently clamping.
    if max_states > u32::MAX as u64 {
        return Err(CoreError::StateCapExceedsIdWidth {
            requested: max_states,
            limit: u32::MAX as u64,
        });
    }
    let conflicts = conflict_masks(alg, daemon);
    let mut table = StateTable::default();
    let mut scratch = CanonScratch::default();

    let canonical_of = |full: u64, scratch: &mut CanonScratch| match &canon {
        None => full,
        Some(c) => c.canonical(full, scratch),
    };
    // Seeds are interned first, so they occupy ids 0..#distinct-seeds and
    // form the system's initial set.
    let mut seed_ids = Vec::with_capacity(seeds.len());
    for cfg in seeds {
        let full = canonical_of(ix.encode(cfg), &mut scratch);
        let id = table.intern(full, || match &canon {
            None => 1,
            Some(c) => c.orbit(full, &mut scratch),
        });
        seed_ids.push(id);
    }

    let mut gen = RowGen::new();
    let mut digits = Vec::new();
    let mut row: Vec<Edge> = Vec::new();
    let spill = opts.effective_spill();
    let mut builder = EdgeStorageBuilder::with_spill(opts.edge_store, &spill);
    let mut enabled: Vec<u64> = Vec::new();
    let mut legit_flags: Vec<bool> = Vec::new();
    let mut deterministic = true;
    let mut next = 0usize;

    let mut ck = match &opts.checkpoint {
        Some(cfg) => Some(Checkpointer::open(
            cfg,
            run_fingerprint(alg, ix, daemon, opts),
            opts.edge_store,
            guard.faults(),
        )?),
        None => None,
    };
    if let Some(c) = &mut ck {
        if let Some(r) = c.take_replay() {
            if r.complete.is_some() {
                let dir = &opts.checkpoint.as_ref().expect("checkpoint configured").dir;
                return r.into_transition_system(dir);
            }
            // The persisted table already contains the seeds and the
            // un-explored frontier (entries past the cursor), so the
            // fresh interning above is discarded wholesale.
            let (full_of, orbit): (Vec<u64>, Vec<u64>) = r.table.iter().copied().unzip();
            table = StateTable::from_parts(full_of, orbit);
            seed_ids = r.seeds.clone();
            next = r.cursor as usize;
            enabled = r.enabled;
            legit_flags = r.legit;
            deterministic = r.deterministic;
            builder = r.builder.into_builder(opts.edge_store, &spill);
        }
    }

    // The intern table doubles as the BFS queue: ids are handed out in
    // discovery order and `next` chases the growing tail.
    while next < table.len() {
        guard.probe("explore", builder.bytes_estimate(), next as u64)?;
        let id = ids::id_u32(next, "interned state ids fit u32");
        next += 1;
        let full = table.full_of(id);
        let cfg = ix.decode(full);
        ix.write_digits(full, &mut digits);
        legit_flags.push(spec.is_legitimate(&cfg));
        let (mask, det) = gen.generate(alg, ix, daemon, &conflicts, &cfg, &digits, full)?;
        deterministic &= det;
        enabled.push(mask);
        row.clear();
        // Rows are sorted by raw target, so repeated successors are
        // adjacent and canonicalize (and intern) once; no index reaches
        // u64::MAX (totals stay below 2⁶³).
        let (mut last_raw, mut last_to) = (u64::MAX, 0u32);
        for e in &gen.row {
            if e.to != last_raw {
                let cto = canonical_of(e.to, &mut scratch);
                last_to = match table.lookup(cto) {
                    Some(to) => to,
                    None => table.intern(cto, || match &canon {
                        None => 1,
                        Some(c) => c.orbit(cto, &mut scratch),
                    }),
                };
                last_raw = e.to;
            }
            row.push(Edge {
                to: last_to,
                movers: e.movers,
                prob: e.prob,
            });
        }
        if table.len() as u64 > max_states {
            return Err(CoreError::StateSpaceTooLarge {
                total: table.len() as u128,
                cap: max_states,
            });
        }
        row.sort_unstable_by_key(|e| (e.to, e.movers));
        merge_parallel_edges(&mut row);
        builder.push_row(&row);
        if let Some(c) = &mut ck {
            c.tick(
                next as u64,
                &SnapshotSource {
                    builder: &builder,
                    enabled: &enabled,
                    legit: LabelBits::Flags(&legit_flags),
                    initial: LabelBits::Empty,
                    deterministic,
                    table: Some(&table),
                    seeds: &seed_ids,
                },
            )?;
        }
    }
    if let Some(c) = &mut ck {
        c.finalize(
            next as u64,
            &SnapshotSource {
                builder: &builder,
                enabled: &enabled,
                legit: LabelBits::Flags(&legit_flags),
                initial: LabelBits::Empty,
                deterministic,
                table: Some(&table),
                seeds: &seed_ids,
            },
            FinalMeta {
                dense_total: None,
                canon: canon.as_ref(),
                quotient: opts.quotient,
                traversal: TraversalMode::Reachable,
            },
        )?;
    }

    let n = table.len();
    let mut legit = BitSet::new(n);
    for (i, &l) in legit_flags.iter().enumerate() {
        if l {
            legit.insert(i);
        }
    }
    let mut initial = BitSet::new(n);
    for &id in &seed_ids {
        initial.insert(id as usize);
    }
    Ok(TransitionSystem::assemble(
        builder.finish(),
        enabled,
        legit,
        initial,
        deterministic,
        StateIds::Interned(table),
        canon,
        opts.quotient,
        TraversalMode::Reachable,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionId, ActionMask};
    use crate::outcome::Outcomes;
    use crate::view::View;
    use crate::{Daemon, Predicate};
    use stab_graph::{builders, Graph, NodeId};

    /// One-bit anonymous ring algorithm: copy the predecessor when
    /// differing from it. Using the ring *orientation* (not raw port 0,
    /// which is direction-inconsistent under sorted port numbering — the
    /// equivariance gate rejects that variant) makes every node's program
    /// identical up to rotation, hence rotation-equivariant.
    struct CopyRing {
        g: Graph,
        orient: stab_graph::RingOrientation,
    }

    impl CopyRing {
        fn new(n: usize) -> Self {
            let g = builders::ring(n);
            let orient = stab_graph::RingOrientation::canonical(&g).unwrap();
            CopyRing { g, orient }
        }
    }

    impl Algorithm for CopyRing {
        type State = bool;
        fn graph(&self) -> &Graph {
            &self.g
        }
        fn name(&self) -> String {
            "copy-ring".into()
        }
        fn state_space(&self, _v: NodeId) -> Vec<bool> {
            vec![false, true]
        }
        fn enabled_actions<V: View<bool>>(&self, v: &V) -> ActionMask {
            let pred = *v.neighbor(self.orient.pred_port(v.node()));
            ActionMask::when(pred != *v.me(), ActionId::A1)
        }
        fn apply<V: View<bool>>(&self, v: &V, _a: ActionId) -> Outcomes<bool> {
            Outcomes::certain(*v.neighbor(self.orient.pred_port(v.node())))
        }
    }

    fn agreement() -> Predicate<bool> {
        Predicate::new("agreement", |c: &Configuration<bool>| {
            c.states().iter().all(|&b| b) || c.states().iter().all(|&b| !b)
        })
    }

    #[test]
    fn reachable_all_seeds_matches_full_sweep_edge_for_edge() {
        let alg = CopyRing::new(4);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        for daemon in Daemon::ALL {
            let full = TransitionSystem::explore(&alg, &ix, daemon, &spec).unwrap();
            // Seeding with every configuration in index order makes BFS
            // hand out ids equal to mixed-radix indices.
            let seeds: Vec<_> = ix.iter().collect();
            let opts = ExploreOptions::reachable(seeds);
            let reach = TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &opts).unwrap();
            assert_eq!(reach.traversal(), TraversalMode::Reachable);
            assert_eq!(reach.n_configs(), full.n_configs());
            assert_eq!(reach.legit(), full.legit());
            for id in 0..full.n_configs() {
                assert_eq!(reach.full_index_of(id), id as u64);
                assert_eq!(reach.enabled_mask(id), full.enabled_mask(id));
                assert_eq!(
                    reach.edges(id).unwrap(),
                    full.edges(id).unwrap(),
                    "row {id} under {daemon}"
                );
            }
        }
    }

    #[test]
    fn reachable_interns_only_the_reachable_set() {
        let alg = CopyRing::new(4);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        // From ⟨T,F,F,F⟩ under the central daemon, the copy dynamics can
        // reach only a strict subset of the 16 configurations.
        let seed = Configuration::from_vec(vec![true, false, false, false]);
        let opts = ExploreOptions::reachable(vec![seed.clone()]);
        let ts = TransitionSystem::explore_with(&alg, &ix, Daemon::Central, &spec, &opts).unwrap();
        assert!(ts.n_configs() < 16, "strict subset, got {}", ts.n_configs());
        // The seed is the whole initial set and has id 0.
        assert_eq!(ts.initial().count_ones(), 1);
        assert!(ts.is_initial(0));
        assert_eq!(ts.full_index_of(0), ix.encode(&seed));
        // Every explored state is reachable from the seed by construction.
        let mut seeds = BitSet::new(ts.n_configs() as usize);
        seeds.insert(0);
        assert!(ts.forward_closure(&seeds).is_full());
        // Unreached configurations have no id.
        let unreached = ix.encode(&Configuration::from_vec(vec![true, false, true, false]));
        assert_eq!(ts.id_of_full_index(unreached), None);
    }

    #[test]
    fn reachable_mode_respects_the_state_cap() {
        let alg = CopyRing::new(5);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let seeds: Vec<_> = ix.iter().collect();
        let opts = ExploreOptions::reachable(seeds).with_max_states(7);
        let err =
            TransitionSystem::explore_with(&alg, &ix, Daemon::Central, &spec, &opts).unwrap_err();
        assert!(matches!(err, CoreError::StateSpaceTooLarge { cap: 7, .. }));
    }

    #[test]
    fn quotient_sweep_folds_rotations_exactly() {
        let alg = CopyRing::new(5);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let opts = ExploreOptions::full().with_ring_quotient();
        let ts = TransitionSystem::explore_with(&alg, &ix, Daemon::Central, &spec, &opts).unwrap();
        // 8 binary 5-necklaces; orbits tile the 32-configuration space.
        assert_eq!(ts.n_configs(), 8);
        assert_eq!(ts.represented_configs(), 32);
        assert_eq!(ts.quotient(), Quotient::RingRotation);
        // Representatives are canonical, ids ascend with full index.
        let canon = ts.canonicalizer().unwrap();
        let mut buf = CanonScratch::default();
        let mut prev = None;
        for id in 0..ts.n_configs() {
            let full = ts.full_index_of(id);
            assert!(canon.is_canonical(full, &mut buf));
            assert!(prev < Some(full), "ids ascend with representative index");
            prev = Some(full);
            // Any orbit member resolves to the representative's id.
            assert_eq!(ts.id_of_full_index(full), Some(id));
        }
        // Per-row probability mass stays exactly stochastic after folding.
        for id in 0..ts.n_configs() {
            if ts.is_terminal(id) {
                continue;
            }
            let mass: f64 = ts.edges(id).unwrap().iter().map(|e| e.prob).sum();
            assert!((mass - 1.0).abs() < 1e-9, "row {id} mass {mass}");
        }
        // The two all-equal configurations are terminal representatives.
        assert_eq!(ts.legit_count(), 2);
    }

    #[test]
    fn oversized_state_cap_is_rejected_not_clamped() {
        let alg = CopyRing::new(4);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let seeds: Vec<_> = ix.iter().collect();
        let opts = ExploreOptions::reachable(seeds).with_max_states(u32::MAX as u64 + 1);
        let err =
            TransitionSystem::explore_with(&alg, &ix, Daemon::Central, &spec, &opts).unwrap_err();
        assert!(matches!(
            err,
            CoreError::StateCapExceedsIdWidth {
                requested,
                limit,
            } if requested == u32::MAX as u64 + 1 && limit == u32::MAX as u64
        ));
        // The id-width cap itself is fine.
        let seeds: Vec<_> = ix.iter().collect();
        let opts = ExploreOptions::reachable(seeds).with_max_states(u32::MAX as u64);
        assert!(TransitionSystem::explore_with(&alg, &ix, Daemon::Central, &spec, &opts).is_ok());
    }

    #[test]
    fn compressed_store_matches_flat_across_modes() {
        use super::super::edgestore::EdgeStoreKind;
        let alg = CopyRing::new(5);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let seeds: Vec<_> = ix.iter().collect();
        let mode_opts: Vec<ExploreOptions<bool>> = vec![
            ExploreOptions::full(),
            ExploreOptions::full().with_ring_quotient(),
            ExploreOptions::reachable(seeds.clone()),
            ExploreOptions::reachable(seeds).with_ring_quotient(),
        ];
        for daemon in Daemon::ALL {
            for opts in &mode_opts {
                let flat = TransitionSystem::explore_with(&alg, &ix, daemon, &spec, opts).unwrap();
                for kind in [EdgeStoreKind::Compressed, EdgeStoreKind::Disk] {
                    let comp = TransitionSystem::explore_with(
                        &alg,
                        &ix,
                        daemon,
                        &spec,
                        &opts.clone().with_edge_store(kind),
                    )
                    .unwrap();
                    assert_eq!(comp.edge_store_kind(), kind);
                    assert_eq!(comp.n_configs(), flat.n_configs());
                    assert_eq!(comp.n_edges(), flat.n_edges());
                    assert_eq!(comp.legit(), flat.legit());
                    assert_eq!(comp.initial(), flat.initial());
                    for id in 0..flat.n_configs() {
                        assert_eq!(comp.full_index_of(id), flat.full_index_of(id));
                        assert_eq!(comp.enabled_mask(id), flat.enabled_mask(id));
                        assert_eq!(comp.edge_row_is_empty(id), flat.edge_row_is_empty(id));
                        let a: Vec<Edge> = flat.edge_iter(id).collect();
                        let b: Vec<Edge> = comp.edge_iter(id).collect();
                        assert_eq!(a, b, "row {id} under {daemon} with {:?}", opts.quotient);
                    }
                    // The reverse CSR decodes to the same predecessor
                    // lists, and the streaming closure agrees with it.
                    assert_eq!(comp.reverse(), flat.reverse());
                    assert_eq!(comp.backward_closure(flat.legit()), {
                        flat.backward_closure(flat.legit())
                    });
                    if kind == EdgeStoreKind::Compressed {
                        // The compressed tier actually compresses.
                        assert!(
                            comp.edge_bytes() < flat.edge_bytes(),
                            "{} vs {} bytes",
                            comp.edge_bytes(),
                            flat.edge_bytes()
                        );
                    }
                }
            }
        }
    }

    mod resilience {
        use super::*;
        use crate::engine::{Budget, EdgeStoreKind, FaultPlan, RunGuard};
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

        fn tmp_dir(tag: &str) -> PathBuf {
            let d = std::env::temp_dir().join(format!(
                "stab-explore-ckpt-{}-{}-{}",
                std::process::id(),
                tag,
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&d).unwrap();
            d
        }

        fn variants(ix: &SpaceIndexer<bool>) -> Vec<ExploreOptions<bool>> {
            let seeds: Vec<_> = ix.iter().collect();
            vec![
                ExploreOptions::full(),
                ExploreOptions::full().with_edge_store(EdgeStoreKind::Compressed),
                ExploreOptions::full().with_ring_quotient(),
                ExploreOptions::full()
                    .with_ring_quotient()
                    .with_edge_store(EdgeStoreKind::Compressed),
                ExploreOptions::full().with_edge_store(EdgeStoreKind::Disk),
                ExploreOptions::full()
                    .with_ring_quotient()
                    .with_edge_store(EdgeStoreKind::Disk),
                ExploreOptions::reachable(seeds.clone()),
                ExploreOptions::reachable(vec![seeds[1].clone()])
                    .with_edge_store(EdgeStoreKind::Compressed),
                ExploreOptions::reachable(seeds.clone()).with_edge_store(EdgeStoreKind::Disk),
                ExploreOptions::reachable(seeds).with_ring_quotient(),
            ]
        }

        #[test]
        fn checkpointed_runs_match_plain_runs_and_resume_bit_for_bit() {
            let alg = CopyRing::new(5);
            let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
            let spec = agreement();
            for daemon in Daemon::ALL {
                for opts in variants(&ix) {
                    let plain =
                        TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &opts).unwrap();
                    let dir = tmp_dir("match");
                    let ck_opts = opts.with_checkpoint(&dir, 4);
                    let ck =
                        TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &ck_opts).unwrap();
                    assert_eq!(
                        ck.content_digest(),
                        plain.content_digest(),
                        "checkpointing changed the system under {daemon}"
                    );
                    // Cold reconstruction from the frames alone.
                    let resumed = TransitionSystem::resume(&dir).unwrap();
                    assert_eq!(resumed.content_digest(), plain.content_digest());
                    // A re-run over the complete chain short-circuits to
                    // the same system (and must not re-explore).
                    let again =
                        TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &ck_opts).unwrap();
                    assert_eq!(again.content_digest(), plain.content_digest());
                    std::fs::remove_dir_all(&dir).unwrap();
                }
            }
        }

        #[test]
        fn resume_after_any_kill_point_matches_the_uninterrupted_run() {
            let alg = CopyRing::new(5);
            let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
            let spec = agreement();
            for opts in variants(&ix) {
                let plain =
                    TransitionSystem::explore_with(&alg, &ix, Daemon::Central, &spec, &opts)
                        .unwrap();
                for kill in 1..=4u64 {
                    let dir = tmp_dir("kill");
                    let ck_opts = opts.clone().with_checkpoint(&dir, 2);
                    let guard = RunGuard::new(
                        Budget::unlimited(),
                        FaultPlan::none().with_kill_after_frames(kill),
                    );
                    let first = TransitionSystem::explore_guarded(
                        &alg,
                        &ix,
                        Daemon::Central,
                        &spec,
                        &ck_opts,
                        &guard,
                    );
                    let digest = match first {
                        // Death injected after the kill-th durable frame:
                        // a plain re-run resumes from disk and finishes.
                        Err(CoreError::Interrupted { after_frames }) => {
                            assert_eq!(after_frames, kill);
                            TransitionSystem::explore_with(
                                &alg,
                                &ix,
                                Daemon::Central,
                                &spec,
                                &ck_opts,
                            )
                            .unwrap()
                            .content_digest()
                        }
                        // The run wrote fewer frames than the kill point.
                        Ok(ts) => ts.content_digest(),
                        Err(e) => panic!("unexpected error: {e}"),
                    };
                    assert_eq!(
                        digest,
                        plain.content_digest(),
                        "kill after frame {kill} diverged"
                    );
                    std::fs::remove_dir_all(&dir).unwrap();
                }
            }
        }

        #[test]
        fn corrupted_tail_frame_falls_back_and_reexploration_heals_it() {
            let alg = CopyRing::new(5);
            let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
            let spec = agreement();
            let plain = TransitionSystem::explore_with(
                &alg,
                &ix,
                Daemon::Central,
                &spec,
                &ExploreOptions::full(),
            )
            .unwrap();
            let dir = tmp_dir("corrupt");
            let opts: ExploreOptions<bool> = ExploreOptions::full().with_checkpoint(&dir, 2);
            TransitionSystem::explore_with(&alg, &ix, Daemon::Central, &spec, &opts).unwrap();
            let frames = crate::engine::resilience::list_frames(&dir);
            FaultPlan::flip_bit(frames.last().unwrap(), 123).unwrap();
            // The final frame is gone, so cold resume refuses...
            assert!(matches!(
                TransitionSystem::resume(&dir),
                Err(CoreError::CheckpointIncomplete { .. })
            ));
            // ...but re-exploring adopts the valid prefix and heals.
            let healed =
                TransitionSystem::explore_with(&alg, &ix, Daemon::Central, &spec, &opts).unwrap();
            assert_eq!(healed.content_digest(), plain.content_digest());
            assert_eq!(
                TransitionSystem::resume(&dir).unwrap().content_digest(),
                plain.content_digest()
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn exhausted_budgets_surface_as_typed_errors_not_panics() {
            let alg = CopyRing::new(5);
            let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
            let spec = agreement();
            // State budget: the BFS probes per row.
            let seeds: Vec<_> = ix.iter().collect();
            let guard = RunGuard::new(Budget::unlimited().with_max_states(10), FaultPlan::none());
            let err = TransitionSystem::explore_guarded(
                &alg,
                &ix,
                Daemon::Central,
                &spec,
                &ExploreOptions::reachable(seeds),
                &guard,
            )
            .unwrap_err();
            assert!(matches!(
                err,
                CoreError::BudgetExhausted {
                    stage: "explore",
                    resource: "states",
                    limit: 10,
                    ..
                }
            ));
            // An already-expired wall clock trips the first probe of any
            // traversal.
            for opts in variants(&ix) {
                let guard = RunGuard::new(
                    Budget::unlimited().with_wall_time(std::time::Duration::ZERO),
                    FaultPlan::none(),
                );
                let err = TransitionSystem::explore_guarded(
                    &alg,
                    &ix,
                    Daemon::Central,
                    &spec,
                    &opts,
                    &guard,
                )
                .unwrap_err();
                assert!(matches!(
                    err,
                    CoreError::BudgetExhausted {
                        resource: "wall-time-ms",
                        ..
                    }
                ));
            }
        }
    }

    #[test]
    fn reachable_quotient_composes() {
        let alg = CopyRing::new(6);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let seeds: Vec<_> = ix.iter().collect();
        let quotient_sweep = TransitionSystem::explore_with(
            &alg,
            &ix,
            Daemon::Central,
            &spec,
            &ExploreOptions::full().with_ring_quotient(),
        )
        .unwrap();
        let reach_quotient = TransitionSystem::explore_with(
            &alg,
            &ix,
            Daemon::Central,
            &spec,
            &ExploreOptions::reachable(seeds).with_ring_quotient(),
        )
        .unwrap();
        // Seeding everything makes the reachable quotient cover every
        // orbit: same representative set, possibly different id order.
        assert_eq!(reach_quotient.n_configs(), quotient_sweep.n_configs());
        assert_eq!(
            reach_quotient.represented_configs(),
            quotient_sweep.represented_configs()
        );
        let mut a: Vec<u64> = (0..reach_quotient.n_configs())
            .map(|id| reach_quotient.full_index_of(id))
            .collect();
        let b: Vec<u64> = (0..quotient_sweep.n_configs())
            .map(|id| quotient_sweep.full_index_of(id))
            .collect();
        a.sort_unstable();
        assert_eq!(a, b);
    }
}

//! Symmetry-group quotienting: orbit canonicalization of mixed-radix
//! configuration indices under a permutation group of the communication
//! graph.
//!
//! The paper's Definition 6 lumping argument is valid for *any*
//! automorphism group of the graph, not just ring rotations: the group
//! partitions the configuration space into orbits, and every analysis —
//! possibilistic (closure, reachability, fair cycles) and probabilistic
//! (the Definition 6 Markov chain) — can run on one representative per
//! orbit whenever the algorithm and the legitimacy predicate respect the
//! symmetry (checked per run by the engine's equivariance gate).
//!
//! [`GroupCanonicalizer`] picks the representative: the orbit member whose
//! digit sequence, read in canonical position order, is
//! **lexicographically least**. Four group strategies are supported, each
//! with a canonicalization specialised to its structure:
//!
//! | group                          | canonicalization                  | cost   |
//! |--------------------------------|-----------------------------------|--------|
//! | ring rotations `C_N`           | least rotation of a packed word   | O(N)   |
//! | ring dihedral `D_N`            | same, over the reversed word too  | O(N)   |
//! | leaf permutations `∏ Sym(cᵢ)`  | sort digits within classes        | O(N log N) |
//! | explicit permutation set       | least image over the group        | O(N·\|G\|) |
//!
//! Canonicalization works directly on mixed-radix indices (no
//! configuration allocation), so it is cheap enough to run per successor
//! edge during exploration. The ring strategies pack the digits in cycle
//! order into one `u64` (or, past 64 bits, `u128`) word, position 0 most
//! significant, so lexicographic order is integer order and a rotation is
//! one shift/or/mask; the same sweep yields the period and chirality
//! that size the orbit.

use std::collections::HashSet;
use std::ops::{BitAnd, BitOr, Shl, Shr};

use stab_graph::trees::leaf_classes;
use stab_graph::{builders, Graph, NodeId, RingRotations};

use crate::space::SpaceIndexer;
use crate::{CoreError, LocalState};

/// Reusable scratch for [`GroupCanonicalizer`] calls: nothing is allocated
/// per call once the buffers have grown to the working size.
#[derive(Debug, Default, Clone)]
pub struct CanonScratch {
    /// Digits of the argument in position order.
    digits: Vec<u32>,
    /// Second sequence (reversal, permutation images).
    alt: Vec<u32>,
    /// Best image so far (explicit strategy) / sort area (leaf classes).
    best: Vec<u32>,
    /// Orbit enumeration area (explicit strategy).
    orbit_ids: Vec<u64>,
}

/// An unsigned machine word holding a ring configuration's digits packed
/// most-significant-first (see [`RingWords`]).
trait Word:
    Copy
    + Ord
    + From<u64>
    + BitOr<Output = Self>
    + BitAnd<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    const MAX: Self;
    const BITS: u32;
    /// The low 64 bits.
    fn low_u64(self) -> u64;
}

macro_rules! impl_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const MAX: Self = <$t>::MAX;
            const BITS: u32 = <$t>::BITS;
            fn low_u64(self) -> u64 {
                // lint: cast-ok(deliberate truncation to the low word; callers mask one digit)
                self as u64
            }
        }
    )*};
}
impl_word!(u64, u128);

/// The packed-word layout of the ring strategies: position `j`'s digit
/// takes `bits` bits at offset `bits·(N−1−j)` of the forward word, so
/// lexicographic order of digit sequences is integer order of words; the
/// reversed word mirrors the offsets. Empty for the non-ring strategies.
#[derive(Debug, Clone, Default)]
struct RingWords {
    /// Bits per digit: `⌈log₂ radix⌉`, at least 1.
    bits: u32,
    /// Packed width `bits·N` (at most 128, as `radixᴺ < 2⁶⁴`).
    width: u32,
    /// The ring's uniform alphabet size.
    radix: u64,
    /// Forward-word offset of mixed-radix digit `i` (node order).
    fwd: Vec<u32>,
}

impl RingWords {
    /// The layout for a ring whose position `j` has weight
    /// `pos_weights[j]` and every node has `radix` states.
    fn new(pos_weights: &[u64], radix: u64) -> Self {
        let n = pos_weights.len();
        let bits = (u64::BITS - radix.saturating_sub(1).leading_zeros()).max(1);
        // Positions in weight order: entry `i` holds mixed-radix digit `i`.
        let mut by_weight: Vec<usize> = (0..n).collect();
        by_weight.sort_by_key(|&j| pos_weights[j]);
        // lint: cast-ok(ring sizes stay far below u32; offsets stay below 128)
        let offset = |slot: usize| bits * slot as u32;
        RingWords {
            bits,
            width: offset(n),
            radix,
            fwd: by_weight.iter().map(|&j| offset(n - 1 - j)).collect(),
        }
    }

    /// The forward and reversed words of `full`: shift/mask digits for a
    /// power-of-two radix, one running quotient otherwise.
    #[inline]
    fn words<W: Word>(&self, full: u64) -> (W, W) {
        let pow2 = self.radix.is_power_of_two();
        let (mut fwd, mut rev, mut rest) = (W::from(0), W::from(0), full);
        for &at in &self.fwd {
            let (digit, next) = if pow2 {
                (rest & (self.radix - 1), rest >> self.bits)
            } else {
                (rest % self.radix, rest / self.radix)
            };
            rest = next;
            fwd = fwd | W::from(digit) << at;
            rev = rev | W::from(digit) << (self.width - self.bits - at);
        }
        (fwd, rev)
    }

    /// The mixed-radix index of forward word `word`.
    #[inline]
    fn index_of<W: Word>(&self, word: W) -> u64 {
        let mask = u64::MAX >> (u64::BITS - self.bits);
        self.fwd.iter().rev().fold(0, |idx, &at| {
            idx * self.radix + ((word >> at).low_u64() & mask)
        })
    }

    /// Sweeps the rotations of `full` — and with `dihedral` the rotations
    /// of its reversal — in the narrowest word that holds the ring.
    /// Returns the index of the least image, the rotation period, and
    /// whether some rotation of the reversal equals `full` (achiral).
    fn sweep(&self, full: u64, dihedral: bool) -> (u64, u64, bool) {
        if self.width <= u64::BITS {
            self.sweep_in::<u64>(full, dihedral)
        } else {
            self.sweep_in::<u128>(full, dihedral)
        }
    }

    #[inline]
    fn sweep_in<W: Word>(&self, full: u64, dihedral: bool) -> (u64, u64, bool) {
        let mask = W::MAX >> (W::BITS - self.width);
        // One position left: digit 0 wraps to the end.
        let rotate = |w: W| ((w << self.bits) | (w >> (self.width - self.bits))) & mask;
        let (word, mut rev) = self.words::<W>(full);
        let (mut least, mut rot) = (word, word);
        let (mut period, mut achiral) = (0u64, false);
        // Rotations repeat with the period, and a reversal has the same
        // period as the word, so one period covers every distinct image.
        loop {
            if dihedral {
                achiral |= rev == word;
                least = least.min(rev);
                rev = rotate(rev);
            }
            rot = rotate(rot);
            period += 1;
            if rot == word {
                break;
            }
            least = least.min(rot);
        }
        let canonical = if least == word {
            full
        } else {
            self.index_of(least)
        };
        (canonical, period, achiral)
    }
}

/// The group structure a [`GroupCanonicalizer`] exploits.
#[derive(Debug, Clone)]
pub(super) enum Strategy {
    /// Cyclic rotations of a ring (positions in cycle order).
    Cycle,
    /// Rotations and reflections of a ring (positions in cycle order).
    Dihedral,
    /// Products of symmetric groups over interchangeable-leaf classes
    /// (positions = node indices; each entry lists class positions
    /// ascending).
    LeafClasses(Vec<Vec<usize>>),
    /// An explicit, composition-closed permutation list over positions
    /// (positions = node indices; `perm[v]` = image position of `v`).
    Explicit(Vec<Vec<u32>>),
}

/// Maps mixed-radix configuration indices to the index of the
/// lexicographically-least member of their orbit under a permutation group
/// of the nodes.
///
/// Built by [`GroupCanonicalizer::ring_rotation`],
/// [`GroupCanonicalizer::ring_dihedral`],
/// [`GroupCanonicalizer::leaf_permutation`] (topology-derived groups) or
/// [`GroupCanonicalizer::from_permutations`] (an explicit generator set,
/// e.g. `stab_checker::Automorphism::all`). Construction validates what is
/// checkable structurally — group applicability to the topology and equal
/// state alphabets along every node orbit; behavioural soundness
/// (equivariance of the algorithm, invariance of the specification) is
/// checked per exploration by the engine's equivariance gate.
#[derive(Debug, Clone)]
pub struct GroupCanonicalizer {
    /// Mixed-radix weight of the node at position `j`.
    pos_weights: Vec<u64>,
    /// Alphabet size of the node at position `j`.
    pos_radix: Vec<u64>,
    /// Node-indexed weights (for applying node permutations).
    node_weights: Vec<u64>,
    /// Node-indexed radixes.
    node_radix: Vec<u64>,
    strategy: Strategy,
    /// Order of the quotient group.
    group_order: u64,
    /// Node-space generator permutations (`perm[v]` = image node of `v`),
    /// consumed by the per-run equivariance gate.
    generators: Vec<Vec<u32>>,
    /// Ring strategies' packed-word layout (derived, not checkpointed).
    words: RingWords,
}

/// Validates that `a` and `b` have identical state alphabets.
fn require_equal_alphabets<S: LocalState>(
    ix: &SpaceIndexer<S>,
    a: NodeId,
    b: NodeId,
) -> Result<(), CoreError> {
    if ix.states_of(a) != ix.states_of(b) {
        return Err(CoreError::QuotientUnsupported {
            reason: format!(
                "state alphabets differ between symmetric nodes (node {a} has {}, {b} has {})",
                ix.states_of(a).len(),
                ix.states_of(b).len()
            ),
        });
    }
    Ok(())
}

impl GroupCanonicalizer {
    /// The cyclic rotation group `C_N` of a uniform ring.
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] if `g` is not a ring (including
    /// all graphs with fewer than 3 nodes) or its nodes have unequal state
    /// alphabets.
    pub fn ring_rotation<S: LocalState>(
        g: &Graph,
        ix: &SpaceIndexer<S>,
    ) -> Result<Self, CoreError> {
        Self::ring(g, ix, false)
    }

    /// The full dihedral group `D_N` (rotations and reflections) of a
    /// uniform ring: up to `2N`-fold state reduction, at the same O(N)
    /// per-canonicalization cost as the rotation quotient.
    ///
    /// # Errors
    ///
    /// As [`GroupCanonicalizer::ring_rotation`].
    pub fn ring_dihedral<S: LocalState>(
        g: &Graph,
        ix: &SpaceIndexer<S>,
    ) -> Result<Self, CoreError> {
        Self::ring(g, ix, true)
    }

    fn ring<S: LocalState>(
        g: &Graph,
        ix: &SpaceIndexer<S>,
        dihedral: bool,
    ) -> Result<Self, CoreError> {
        let rot = RingRotations::of(g).map_err(|_| CoreError::QuotientUnsupported {
            reason: format!("the {}-node topology is not a ring", g.n()),
        })?;
        let order = rot.order();
        for &v in &order[1..] {
            require_equal_alphabets(ix, order[0], v)?;
        }
        let n = order.len();
        let radix = ix.states_of(order[0]).len() as u64;
        let mut generators = vec![node_perm(&rot.permutation(1))];
        if dihedral {
            generators.push(node_perm(&rot.reflection()));
        }
        Ok(Self::from_snapshot_parts(
            order.iter().map(|&v| ix.weight(v)).collect(),
            vec![radix; n],
            (0..n).map(|v| ix.weight(NodeId::new(v))).collect(),
            vec![radix; n],
            if dihedral {
                Strategy::Dihedral
            } else {
                Strategy::Cycle
            },
            if dihedral { 2 * n as u64 } else { n as u64 },
            generators,
        ))
    }

    /// The leaf-permutation group `∏_c Sym(c)` over the
    /// interchangeable-leaf classes of a star or tree
    /// ([`stab_graph::trees::leaf_classes`]): up to `∏ |c|!`-fold reduction
    /// without ever materialising the (factorially large) group.
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] if `g` has no class of at least
    /// two same-parent leaves, if class alphabets are unequal, or if the
    /// group order overflows `u64`.
    pub fn leaf_permutation<S: LocalState>(
        g: &Graph,
        ix: &SpaceIndexer<S>,
    ) -> Result<Self, CoreError> {
        let classes = leaf_classes(g);
        if classes.is_empty() {
            return Err(CoreError::QuotientUnsupported {
                reason: format!(
                    "the {}-node topology has no class of two or more same-parent leaves",
                    g.n()
                ),
            });
        }
        let mut group_order: u64 = 1;
        let mut generators = Vec::new();
        for class in &classes {
            for &v in &class[1..] {
                require_equal_alphabets(ix, class[0], v)?;
            }
            for pair in class.windows(2) {
                generators.push(transposition(g.n(), pair[0], pair[1]));
            }
            group_order = (1..=class.len() as u64)
                .try_fold(group_order, |acc, k| acc.checked_mul(k))
                .ok_or_else(|| CoreError::QuotientUnsupported {
                    reason: "leaf-permutation group order overflows u64".into(),
                })?;
        }
        let classes = classes
            .iter()
            .map(|c| c.iter().map(|v| v.index()).collect())
            .collect();
        Ok(Self::node_indexed(
            ix,
            Strategy::LeafClasses(classes),
            group_order,
            generators,
        ))
    }

    /// The topology-derived full-automorphism quotient: the dihedral group
    /// on rings (`Aut(ring) = D_N` exactly), the reflection group on
    /// builder-labelled grids (`Aut(grid) = C₂ × C₂`, or `D₄` when
    /// square), and the leaf-permutation subgroup on stars and trees (for
    /// stars the full `Sym(leaves) = Aut`, for trees the sound subgroup
    /// generated by same-parent leaf swaps).
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] if the topology is neither a
    /// ring, a grid with a nontrivial reflection, nor a graph with
    /// interchangeable leaves, or alphabets break the symmetry.
    pub fn automorphism<S: LocalState>(g: &Graph, ix: &SpaceIndexer<S>) -> Result<Self, CoreError> {
        if g.is_ring() {
            return Self::ring_dihedral(g, ix);
        }
        // Grids before leaf classes: a 1 × n grid is a path, whose leaves
        // have distinct parents, so only the reflection group applies.
        if let Some((rows, cols)) = builders::grid_dims(g) {
            if rows * cols > 1 {
                return Self::grid_reflections(ix, rows, cols);
            }
        }
        Self::leaf_permutation(g, ix).map_err(|e| CoreError::QuotientUnsupported {
            reason: format!(
                "no topology-derived automorphism group for the {}-node graph \
                 (not a ring or grid; {e})",
                g.n()
            ),
        })
    }

    /// The reflection group of a row-major `rows × cols` grid
    /// ([`stab_graph::builders::grid`]): the row flip, the column flip,
    /// and — when the grid is square — the transpose, closed under
    /// composition (order 4 for proper rectangles, 8 for squares, 2 for
    /// degenerate `1 × n` paths).
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] if the dimensions do not match
    /// the space, the grid is `1 × 1` (no nontrivial reflection), or
    /// reflected nodes have unequal state alphabets.
    pub fn grid_reflections<S: LocalState>(
        ix: &SpaceIndexer<S>,
        rows: usize,
        cols: usize,
    ) -> Result<Self, CoreError> {
        let n = rows * cols;
        if n != ix.n() {
            return Err(CoreError::QuotientUnsupported {
                reason: format!(
                    "{rows}×{cols} grid dimensions do not match the {}-node space",
                    ix.n()
                ),
            });
        }
        if n <= 1 {
            return Err(CoreError::QuotientUnsupported {
                reason: "a 1×1 grid has no nontrivial reflection".into(),
            });
        }
        let at = |r: usize, c: usize| NodeId::new(r * cols + c);
        let mut perms: Vec<Vec<NodeId>> = Vec::new();
        if rows > 1 {
            perms.push((0..n).map(|v| at(rows - 1 - v / cols, v % cols)).collect());
        }
        if cols > 1 {
            perms.push((0..n).map(|v| at(v / cols, cols - 1 - v % cols)).collect());
        }
        if rows == cols && rows > 1 {
            perms.push((0..n).map(|v| at(v % cols, v / cols)).collect());
        }
        Self::from_permutations(ix, &perms)
    }

    /// An explicit permutation set (e.g. from
    /// `stab_checker::Automorphism::all` or a hand-picked generator list),
    /// closed under composition internally. Canonicalization costs
    /// O(N·|G|) per call, so prefer the structured constructors when the
    /// group is a known ring or leaf symmetry.
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] if some entry is not a
    /// permutation of the space's nodes, maps between nodes with unequal
    /// alphabets, or the composition closure exceeds
    /// [`GroupCanonicalizer::EXPLICIT_GROUP_CAP`] elements.
    pub fn from_permutations<S: LocalState>(
        ix: &SpaceIndexer<S>,
        perms: &[Vec<NodeId>],
    ) -> Result<Self, CoreError> {
        let n = ix.n();
        let mut generators: Vec<Vec<u32>> = Vec::new();
        for perm in perms {
            if perm.len() != n {
                return Err(CoreError::QuotientUnsupported {
                    reason: format!(
                        "permutation over {} nodes does not match the {n}-node space",
                        perm.len()
                    ),
                });
            }
            let mut seen = vec![false; n];
            for (v, &img) in perm.iter().enumerate() {
                if img.index() >= n || seen[img.index()] {
                    return Err(CoreError::QuotientUnsupported {
                        reason: "group entry is not a permutation of the nodes".into(),
                    });
                }
                seen[img.index()] = true;
                require_equal_alphabets(ix, NodeId::new(v), img)?;
            }
            generators.push(node_perm(perm));
        }
        let group = close_under_composition(n, &generators)?;
        let group_order = group.len() as u64;
        Ok(Self::node_indexed(
            ix,
            Strategy::Explicit(group),
            group_order,
            generators,
        ))
    }

    /// Closure cap for [`GroupCanonicalizer::from_permutations`].
    pub const EXPLICIT_GROUP_CAP: usize = 1 << 16;

    /// Number of processes.
    #[inline]
    pub fn n(&self) -> usize {
        self.pos_weights.len()
    }

    /// Order of the quotient group (`N`, `2N`, `∏|c|!`, or the explicit
    /// group size). Every orbit size divides it.
    #[inline]
    pub fn group_order(&self) -> u64 {
        self.group_order
    }

    /// The node-space generator permutations of the group
    /// (`perm[v]` = image node of `v`), as consumed by the per-run
    /// equivariance gate.
    pub fn generators(&self) -> &[Vec<u32>] {
        &self.generators
    }

    /// Borrowed view of every field — the checkpoint snapshot surface
    /// (the canonicalizer is pure data, so a final frame can embed it and
    /// [`resume`](super::TransitionSystem::resume) can reconstruct
    /// quotient systems without re-deriving the group).
    #[allow(clippy::type_complexity)]
    pub(super) fn snapshot_parts(
        &self,
    ) -> (&[u64], &[u64], &[u64], &[u64], &Strategy, u64, &[Vec<u32>]) {
        (
            &self.pos_weights,
            &self.pos_radix,
            &self.node_weights,
            &self.node_radix,
            &self.strategy,
            self.group_order,
            &self.generators,
        )
    }

    /// A canonicalizer whose positions are the node indices.
    fn node_indexed<S: LocalState>(
        ix: &SpaceIndexer<S>,
        strategy: Strategy,
        order: u64,
        gens: Vec<Vec<u32>>,
    ) -> Self {
        let weights: Vec<u64> = (0..ix.n()).map(|v| ix.weight(NodeId::new(v))).collect();
        let radix: Vec<u64> = (0..ix.n())
            .map(|v| ix.radix(NodeId::new(v)) as u64)
            .collect();
        let (w, r) = (weights.clone(), radix.clone());
        Self::from_snapshot_parts(weights, radix, w, r, strategy, order, gens)
    }

    /// Assembles a canonicalizer from its parts — the constructors' common
    /// tail and the inverse of [`GroupCanonicalizer::snapshot_parts`]. The
    /// ring strategies' packed-word layout is rebuilt here, so a resumed
    /// quotient system canonicalizes exactly like the original.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn from_snapshot_parts(
        pos_weights: Vec<u64>,
        pos_radix: Vec<u64>,
        node_weights: Vec<u64>,
        node_radix: Vec<u64>,
        strategy: Strategy,
        group_order: u64,
        generators: Vec<Vec<u32>>,
    ) -> Self {
        let words = match strategy {
            Strategy::Cycle | Strategy::Dihedral => {
                RingWords::new(&pos_weights, pos_radix.first().copied().unwrap_or(1))
            }
            Strategy::LeafClasses(_) | Strategy::Explicit(_) => RingWords::default(),
        };
        GroupCanonicalizer {
            pos_weights,
            pos_radix,
            node_weights,
            node_radix,
            strategy,
            group_order,
            generators,
            words,
        }
    }

    /// Applies a node permutation to a configuration index:
    /// the resulting configuration holds `x`'s state of node `v` at node
    /// `perm[v]`.
    pub fn apply_perm(&self, full: u64, perm: &[u32]) -> u64 {
        debug_assert_eq!(perm.len(), self.n());
        let mut out = 0u64;
        for (v, &img) in perm.iter().enumerate() {
            let digit = (full / self.node_weights[v]) % self.node_radix[v];
            out += digit * self.node_weights[img as usize];
        }
        out
    }

    /// Writes the digits of `full` in position order into `buf`.
    fn position_digits(&self, full: u64, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(
            self.pos_weights
                .iter()
                .zip(&self.pos_radix)
                // lint: cast-ok(a digit is strictly below its radix, which fits u32)
                .map(|(&w, &r)| ((full / w) % r) as u32),
        );
    }

    /// The index encoded by position digits `d`.
    fn index_of_digits(&self, d: &[u32]) -> u64 {
        d.iter()
            .zip(&self.pos_weights)
            .map(|(&digit, &w)| digit as u64 * w)
            .sum()
    }

    /// The index of the lexicographically-least orbit member of `full`.
    /// `scratch` is caller-provided (no allocation per call once grown).
    pub fn canonical(&self, full: u64, scratch: &mut CanonScratch) -> u64 {
        match &self.strategy {
            Strategy::Cycle => self.words.sweep(full, false).0,
            Strategy::Dihedral => self.words.sweep(full, true).0,
            Strategy::LeafClasses(classes) => {
                self.position_digits(full, &mut scratch.digits);
                for class in classes {
                    scratch.best.clear();
                    scratch
                        .best
                        .extend(class.iter().map(|&p| scratch.digits[p]));
                    scratch.best.sort_unstable();
                    for (&p, &digit) in class.iter().zip(&scratch.best) {
                        scratch.digits[p] = digit;
                    }
                }
                self.index_of_digits(&scratch.digits)
            }
            Strategy::Explicit(group) => {
                self.position_digits(full, &mut scratch.digits);
                let d = &scratch.digits;
                let n = d.len();
                scratch.best.clear();
                scratch.best.extend_from_slice(d);
                for perm in group {
                    // Image digits: state of position v lands at perm[v].
                    scratch.alt.resize(n, 0);
                    for v in 0..n {
                        scratch.alt[perm[v] as usize] = d[v];
                    }
                    if scratch.alt < scratch.best {
                        std::mem::swap(&mut scratch.best, &mut scratch.alt);
                    }
                }
                self.index_of_digits(&scratch.best)
            }
        }
    }

    /// Like [`GroupCanonicalizer::canonical`] without caller-provided
    /// scratch — convenient for `&self` lookup paths (id resolution,
    /// chain queries) that have nowhere to keep scratch. Allocation-free
    /// after the first call on a thread (thread-local scratch).
    pub fn canonical_owned(&self, full: u64) -> u64 {
        thread_local! {
            static SCRATCH: std::cell::RefCell<CanonScratch> =
                std::cell::RefCell::new(CanonScratch::default());
        }
        SCRATCH.with(|s| self.canonical(full, &mut s.borrow_mut()))
    }

    /// Whether `full` is its own canonical representative.
    pub fn is_canonical(&self, full: u64, scratch: &mut CanonScratch) -> bool {
        self.canonical(full, scratch) == full
    }

    /// The orbit size of `full`: the number of *distinct* configurations
    /// the group maps it to. Always divides
    /// [`GroupCanonicalizer::group_order`].
    pub fn orbit(&self, full: u64, scratch: &mut CanonScratch) -> u64 {
        match &self.strategy {
            Strategy::Cycle => self.words.sweep(full, false).1,
            Strategy::Dihedral => {
                // Achiral: the reflections contribute no new members.
                let (_, period, achiral) = self.words.sweep(full, true);
                period * if achiral { 1 } else { 2 }
            }
            Strategy::LeafClasses(classes) => {
                self.position_digits(full, &mut scratch.digits);
                let mut orbit: u128 = 1;
                for class in classes {
                    scratch.best.clear();
                    scratch
                        .best
                        .extend(class.iter().map(|&p| scratch.digits[p]));
                    scratch.best.sort_unstable();
                    // Multinomial |class|! / ∏ multiplicity! — the number
                    // of distinct arrangements of the class digits.
                    let numer: u128 = (1..=class.len() as u128).product();
                    let (mut run, mut denom) = (1u128, 1u128);
                    for w in scratch.best.windows(2) {
                        run = if w[0] == w[1] { run + 1 } else { 1 };
                        denom *= run;
                    }
                    orbit *= numer / denom;
                }
                u64::try_from(orbit).expect("orbit size fits u64 (<= group order)")
            }
            Strategy::Explicit(group) => {
                self.position_digits(full, &mut scratch.digits);
                let d = &scratch.digits;
                let n = d.len();
                scratch.orbit_ids.clear();
                for perm in group {
                    scratch.alt.resize(n, 0);
                    for v in 0..n {
                        scratch.alt[perm[v] as usize] = d[v];
                    }
                    scratch.orbit_ids.push(self.index_of_digits(&scratch.alt));
                }
                scratch.orbit_ids.sort_unstable();
                scratch.orbit_ids.dedup();
                scratch.orbit_ids.len() as u64
            }
        }
    }
}

/// Node-space permutation as `u32` images.
fn node_perm(perm: &[NodeId]) -> Vec<u32> {
    // lint: cast-ok(node indices are bounded by the node count, far below u32)
    perm.iter().map(|v| v.index() as u32).collect()
}

/// The transposition of nodes `a` and `b`.
fn transposition(n: usize, a: NodeId, b: NodeId) -> Vec<u32> {
    // lint: cast-ok(node counts stay far below u32)
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.swap(a.index(), b.index());
    perm
}

/// BFS closure of `generators` under composition (identity included).
fn close_under_composition(n: usize, generators: &[Vec<u32>]) -> Result<Vec<Vec<u32>>, CoreError> {
    // lint: cast-ok(node counts stay far below u32)
    let identity: Vec<u32> = (0..n as u32).collect();
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut group: Vec<Vec<u32>> = Vec::new();
    let mut queue: Vec<Vec<u32>> = vec![identity];
    while let Some(p) = queue.pop() {
        if !seen.insert(p.clone()) {
            continue;
        }
        if seen.len() > GroupCanonicalizer::EXPLICIT_GROUP_CAP {
            return Err(CoreError::QuotientUnsupported {
                reason: format!(
                    "composition closure of the permutation set exceeds {} elements",
                    GroupCanonicalizer::EXPLICIT_GROUP_CAP
                ),
            });
        }
        for g in generators {
            let composed: Vec<u32> = (0..n).map(|v| g[p[v] as usize]).collect();
            if !seen.contains(&composed) {
                queue.push(composed);
            }
        }
        group.push(p);
    }
    Ok(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionId, ActionMask};
    use crate::algorithm::Algorithm;
    use crate::outcome::Outcomes;
    use crate::view::View;
    use stab_graph::{builders, NodeId};

    /// A trivial algorithm with `radix` states per node (never enabled;
    /// only the space matters here).
    struct States {
        g: Graph,
        radix: u8,
    }

    impl Algorithm for States {
        type State = u8;
        fn graph(&self) -> &Graph {
            &self.g
        }
        fn name(&self) -> String {
            "states".into()
        }
        fn state_space(&self, _v: NodeId) -> Vec<u8> {
            (0..self.radix).collect()
        }
        fn enabled_actions<V: View<u8>>(&self, _v: &V) -> ActionMask {
            ActionMask::empty()
        }
        fn apply<V: View<u8>>(&self, _v: &V, _a: ActionId) -> Outcomes<u8> {
            unreachable!("never enabled")
        }
    }

    fn space(g: Graph, radix: u8) -> (Graph, SpaceIndexer<u8>) {
        let alg = States { g, radix };
        let ix = SpaceIndexer::new(&alg, 1 << 40).unwrap();
        (alg.g, ix)
    }

    fn ring_canon(n: usize, radix: u8, dihedral: bool) -> (SpaceIndexer<u8>, GroupCanonicalizer) {
        let (g, ix) = space(builders::ring(n), radix);
        let canon = if dihedral {
            GroupCanonicalizer::ring_dihedral(&g, &ix).unwrap()
        } else {
            GroupCanonicalizer::ring_rotation(&g, &ix).unwrap()
        };
        (ix, canon)
    }

    /// Brute force: the least rotation (and, with `dihedral`, rotated
    /// reversal) of a digit sequence.
    fn naive_least(states: &[u8], dihedral: bool) -> Vec<u8> {
        let n = states.len();
        let mut images = Vec::new();
        for k in 0..n {
            let rot: Vec<u8> = (0..n).map(|j| states[(j + k) % n]).collect();
            if dihedral {
                images.push(rot.iter().rev().copied().collect::<Vec<u8>>());
            }
            images.push(rot);
        }
        images.into_iter().min().unwrap()
    }

    #[test]
    fn packed_words_switch_to_u128_past_64_bits() {
        // Radix 3 packs 2 bits per digit: N=32 fills a u64 exactly, N=33
        // needs the u128 path. Both must agree with brute force.
        for n in [32usize, 33, 39] {
            let alg = States {
                g: builders::ring(n),
                radix: 3,
            };
            let ix = SpaceIndexer::new(&alg, u64::MAX).unwrap();
            let g = alg.g;
            let mut scratch = CanonScratch::default();
            for dihedral in [false, true] {
                let canon = GroupCanonicalizer::ring(&g, &ix, dihedral).unwrap();
                assert_eq!(canon.words.width as usize, 2 * n);
                for seed in 1..40u64 {
                    let full = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % ix.total();
                    let states: Vec<u8> = ix.decode(full).states().to_vec();
                    let least = naive_least(&states, dihedral);
                    let c = canon.canonical(full, &mut scratch);
                    assert_eq!(ix.decode(c).states(), &least[..], "N={n} at {full}");
                    assert!(canon.is_canonical(c, &mut scratch));
                }
                // ⟨0,1,2⟩ repeated has period 3 and is chiral, so the
                // reflections double its orbit.
                if n % 3 == 0 {
                    let cfg: Vec<u8> = (0..n).map(|j| [0, 1, 2][j % 3]).collect();
                    let full = ix.encode(&crate::Configuration::from_vec(cfg));
                    let expect = if dihedral { 6 } else { 3 };
                    assert_eq!(canon.orbit(full, &mut scratch), expect, "N={n}");
                }
            }
        }
    }

    #[test]
    fn rotation_canonical_is_idempotent_and_minimal_in_orbit() {
        let (ix, canon) = ring_canon(5, 3, false);
        let mut scratch = CanonScratch::default();
        for full in 0..ix.total() {
            let c = canon.canonical(full, &mut scratch);
            assert_eq!(canon.canonical(c, &mut scratch), c, "idempotent at {full}");
            assert!(canon.is_canonical(c, &mut scratch));
            // The representative is the minimum *lexicographic* rotation;
            // verify against a brute-force rotation of the decoded config.
            let cfg = ix.decode(full);
            let n = cfg.len();
            let states: Vec<u8> = cfg.states().to_vec();
            let min_seq = (0..n)
                .map(|k| (0..n).map(|j| states[(j + k) % n]).collect::<Vec<u8>>())
                .min()
                .unwrap();
            let min_full = ix.encode(&crate::Configuration::from_vec(min_seq));
            assert_eq!(c, min_full, "orbit minimum of {full}");
        }
    }

    #[test]
    fn dihedral_canonical_is_least_over_rotations_and_reflections() {
        let (ix, canon) = ring_canon(6, 2, true);
        let mut scratch = CanonScratch::default();
        assert_eq!(canon.group_order(), 12);
        for full in 0..ix.total() {
            let c = canon.canonical(full, &mut scratch);
            assert_eq!(canon.canonical(c, &mut scratch), c, "idempotent at {full}");
            let states: Vec<u8> = ix.decode(full).states().to_vec();
            let min_seq = naive_least(&states, true);
            let min_full = ix.encode(&crate::Configuration::from_vec(min_seq));
            assert_eq!(c, min_full, "dihedral orbit minimum of {full}");
        }
    }

    #[test]
    fn dihedral_orbits_tile_the_space() {
        for (n, radix) in [(3usize, 2u8), (5, 2), (4, 3), (6, 2)] {
            let (ix, canon) = ring_canon(n, radix, true);
            let mut scratch = CanonScratch::default();
            let mut covered = 0u64;
            let mut reps = 0u64;
            for full in 0..ix.total() {
                if canon.is_canonical(full, &mut scratch) {
                    reps += 1;
                    let orbit = canon.orbit(full, &mut scratch);
                    assert!(
                        canon.group_order().is_multiple_of(orbit),
                        "orbit {orbit} divides group order (N={n})"
                    );
                    covered += orbit;
                }
            }
            assert_eq!(covered, ix.total(), "dihedral orbits tile (N={n})");
            assert!(reps >= ix.total() / (2 * n as u64));
        }
    }

    #[test]
    fn chiral_necklaces_have_doubled_orbits() {
        // ⟨0,0,1,0,1,1⟩ on the 6-ring is chiral: its reversal is not a
        // rotation of it, so the dihedral orbit is twice the rotation one.
        let (ix, rot) = ring_canon(6, 2, false);
        let (_, dih) = ring_canon(6, 2, true);
        let mut scratch = CanonScratch::default();
        let chiral = ix.encode(&crate::Configuration::from_vec(vec![0u8, 0, 1, 0, 1, 1]));
        assert_eq!(rot.orbit(chiral, &mut scratch), 6);
        assert_eq!(dih.orbit(chiral, &mut scratch), 12);
        // An achiral (palindromic) necklace keeps its rotation orbit.
        let achiral = ix.encode(&crate::Configuration::from_vec(vec![0u8, 0, 1, 0, 0, 1]));
        assert_eq!(
            dih.orbit(achiral, &mut scratch),
            rot.orbit(achiral, &mut scratch)
        );
    }

    #[test]
    fn leaf_permutation_sorts_class_digits() {
        let (g, ix) = space(builders::star(5), 3);
        let canon = GroupCanonicalizer::leaf_permutation(&g, &ix).unwrap();
        assert_eq!(canon.group_order(), 24); // 4! leaf orders
        let mut scratch = CanonScratch::default();
        // Hub state is untouched; leaf digits sort ascending.
        let full = ix.encode(&crate::Configuration::from_vec(vec![2u8, 1, 0, 2, 0]));
        let c = canon.canonical(full, &mut scratch);
        assert_eq!(
            ix.decode(c).states(),
            &[2u8, 0, 0, 1, 2],
            "leaves sorted, hub fixed"
        );
        // Orbit = multinomial over the leaf digit multiset {0,0,1,2}.
        assert_eq!(canon.orbit(full, &mut scratch), 12);
        // Orbits tile the space.
        let mut covered = 0u64;
        for full in 0..ix.total() {
            if canon.is_canonical(full, &mut scratch) {
                covered += canon.orbit(full, &mut scratch);
            }
        }
        assert_eq!(covered, ix.total());
    }

    #[test]
    fn explicit_group_matches_dihedral_on_rings() {
        // Feeding the dihedral generators as an explicit permutation set
        // must canonicalize identically to the structured strategy.
        let (g, ix) = space(builders::ring(5), 2);
        let dih = GroupCanonicalizer::ring_dihedral(&g, &ix).unwrap();
        let rot = RingRotations::of(&g).unwrap();
        let explicit =
            GroupCanonicalizer::from_permutations(&ix, &[rot.permutation(1), rot.reflection()])
                .unwrap();
        assert_eq!(explicit.group_order(), 10);
        let mut s1 = CanonScratch::default();
        let mut s2 = CanonScratch::default();
        for full in 0..ix.total() {
            assert_eq!(
                dih.canonical(full, &mut s1),
                explicit.canonical(full, &mut s2),
                "at {full}"
            );
            assert_eq!(dih.orbit(full, &mut s1), explicit.orbit(full, &mut s2));
        }
    }

    #[test]
    fn apply_perm_round_trips_through_generators() {
        let (ix, canon) = ring_canon(5, 3, true);
        let mut scratch = CanonScratch::default();
        for full in (0..ix.total()).step_by(7) {
            for perm in canon.generators() {
                let image = canon.apply_perm(full, perm);
                assert_eq!(
                    canon.canonical(image, &mut scratch),
                    canon.canonical(full, &mut scratch),
                    "orbit-invariant at {full}"
                );
            }
        }
    }

    #[test]
    fn grid_reflections_tile_the_space() {
        // 2×3 rectangle: C₂ × C₂, order 4.
        let (g, ix) = space(builders::grid(2, 3), 2);
        let canon = GroupCanonicalizer::automorphism(&g, &ix).unwrap();
        assert_eq!(canon.group_order(), 4);
        let mut scratch = CanonScratch::default();
        let mut covered = 0u64;
        for full in 0..ix.total() {
            if canon.is_canonical(full, &mut scratch) {
                let orbit = canon.orbit(full, &mut scratch);
                assert!(canon.group_order().is_multiple_of(orbit));
                covered += orbit;
            }
        }
        assert_eq!(covered, ix.total(), "grid reflection orbits tile");
        // 2×2 is a ring in grid labelling? No — grid labelling differs
        // from ring labelling, but the *graph* is still a 4-cycle, so the
        // dihedral strategy handles it.
        let (g, ix) = space(builders::grid(2, 2), 2);
        assert!(g.is_ring());
        assert!(GroupCanonicalizer::automorphism(&g, &ix).is_ok());
        // 3×3 square gains the transpose: D₄, order 8.
        let (g, ix) = space(builders::grid(3, 3), 2);
        let canon = GroupCanonicalizer::automorphism(&g, &ix).unwrap();
        assert_eq!(canon.group_order(), 8);
    }

    #[test]
    fn grid_canonical_is_least_over_reflections() {
        let (g, ix) = space(builders::grid(2, 3), 2);
        let canon = GroupCanonicalizer::automorphism(&g, &ix).unwrap();
        let mut scratch = CanonScratch::default();
        // Brute-force the four images of each configuration.
        let reflect = |states: &[u8], fr: bool, fc: bool| -> Vec<u8> {
            (0..6)
                .map(|v| {
                    let (mut r, mut c) = (v / 3, v % 3);
                    if fr {
                        r = 1 - r;
                    }
                    if fc {
                        c = 2 - c;
                    }
                    states[r * 3 + c]
                })
                .collect()
        };
        for full in 0..ix.total() {
            let c = canon.canonical(full, &mut scratch);
            let states: Vec<u8> = ix.decode(full).states().to_vec();
            let min = [(false, false), (true, false), (false, true), (true, true)]
                .into_iter()
                .map(|(fr, fc)| reflect(&states, fr, fc))
                .min()
                .unwrap();
            let min_full = ix.encode(&crate::Configuration::from_vec(min));
            assert_eq!(c, min_full, "reflection-orbit minimum of {full}");
        }
    }

    #[test]
    fn degenerate_grid_path_gets_the_reflection() {
        let (g, ix) = space(builders::path(4), 2);
        let canon = GroupCanonicalizer::automorphism(&g, &ix).unwrap();
        assert_eq!(canon.group_order(), 2);
        let mut scratch = CanonScratch::default();
        let flip = ix.encode(&crate::Configuration::from_vec(vec![1u8, 0, 0, 0]));
        let kept = ix.encode(&crate::Configuration::from_vec(vec![0u8, 0, 0, 1]));
        assert_eq!(canon.canonical(flip, &mut scratch), kept);
    }

    #[test]
    fn non_rings_are_rejected_cleanly() {
        for g in [
            builders::path(1),
            builders::path(2),
            builders::path(4),
            builders::star(5),
        ] {
            let (g, ix) = space(g, 2);
            for dihedral in [false, true] {
                let err = GroupCanonicalizer::ring(&g, &ix, dihedral).unwrap_err();
                assert!(
                    matches!(err, CoreError::QuotientUnsupported { .. }),
                    "{err}"
                );
                assert!(err.to_string().contains("not a ring"));
            }
        }
    }

    #[test]
    fn leafless_graphs_are_rejected_for_leaf_quotients() {
        let (g, ix) = space(builders::ring(5), 2);
        let err = GroupCanonicalizer::leaf_permutation(&g, &ix).unwrap_err();
        assert!(err.to_string().contains("same-parent leaves"));
        let (g, ix) = space(builders::path(4), 2);
        let err = GroupCanonicalizer::leaf_permutation(&g, &ix).unwrap_err();
        assert!(matches!(err, CoreError::QuotientUnsupported { .. }));
    }

    #[test]
    fn unequal_alphabets_are_rejected() {
        struct Lopsided {
            g: Graph,
        }
        impl Algorithm for Lopsided {
            type State = u8;
            fn graph(&self) -> &Graph {
                &self.g
            }
            fn name(&self) -> String {
                "lopsided".into()
            }
            fn state_space(&self, v: NodeId) -> Vec<u8> {
                if v.index() == 1 {
                    vec![0, 1, 2]
                } else {
                    vec![0, 1]
                }
            }
            fn enabled_actions<V: View<u8>>(&self, _v: &V) -> ActionMask {
                ActionMask::empty()
            }
            fn apply<V: View<u8>>(&self, _v: &V, _a: ActionId) -> Outcomes<u8> {
                unreachable!("never enabled")
            }
        }
        let alg = Lopsided {
            g: builders::ring(4),
        };
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        for build in [
            GroupCanonicalizer::ring_rotation(alg.graph(), &ix),
            GroupCanonicalizer::ring_dihedral(alg.graph(), &ix),
        ] {
            assert!(build.unwrap_err().to_string().contains("alphabets differ"));
        }
        // Leaf classes with unequal leaf alphabets are rejected too.
        struct LopsidedStar {
            g: Graph,
        }
        impl Algorithm for LopsidedStar {
            type State = u8;
            fn graph(&self) -> &Graph {
                &self.g
            }
            fn name(&self) -> String {
                "lopsided-star".into()
            }
            fn state_space(&self, v: NodeId) -> Vec<u8> {
                if v.index() == 2 {
                    vec![0, 1, 2]
                } else {
                    vec![0, 1]
                }
            }
            fn enabled_actions<V: View<u8>>(&self, _v: &V) -> ActionMask {
                ActionMask::empty()
            }
            fn apply<V: View<u8>>(&self, _v: &V, _a: ActionId) -> Outcomes<u8> {
                unreachable!("never enabled")
            }
        }
        let alg = LopsidedStar {
            g: builders::star(4),
        };
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let err = GroupCanonicalizer::leaf_permutation(alg.graph(), &ix).unwrap_err();
        assert!(err.to_string().contains("alphabets differ"));
    }

    #[test]
    fn explicit_closure_is_capped() {
        // A 16-node star's leaf transpositions generate 15! ≫ the cap.
        let (g, ix) = space(builders::star(16), 2);
        let perms: Vec<Vec<NodeId>> = (1..15)
            .map(|i| {
                let mut p: Vec<NodeId> = (0..16).map(NodeId::new).collect();
                p.swap(i, i + 1);
                p
            })
            .collect();
        let _ = g;
        let err = GroupCanonicalizer::from_permutations(&ix, &perms).unwrap_err();
        assert!(err.to_string().contains("closure"));
    }
}

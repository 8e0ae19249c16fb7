//! The transient-to-transient matrix `Q` on the engine's tier stack
//! (`stab_core::engine::edgestore`): `Q` is a [`RowStorage`] of
//! `(column, probability)` entries, so it has exactly the edge store's
//! flat, compressed and disk tiers, builder and row cursors. On the
//! compressed and disk tiers an entry encodes as a zig-zag varint column
//! delta plus a varint index into the deduplicated probability table.
//!
//! [`AbsorbingChain`](crate::AbsorbingChain) picks the tier matching the
//! transition system it was built from, so a run selected with
//! `ExploreOptions::with_edge_store(EdgeStoreKind::Compressed)` keeps its
//! memory profile through the whole Markov pipeline: the solvers
//! ([`crate::linalg`]) iterate rows through the engine's `RowStore`
//! trait and never materialise a flat copy. The chain dispatches the
//! tier once per solve, so the solver runs monomorphically over the
//! concrete cursor (the per-entry enum of [`QStorage::row_iter`] is for
//! callers that walk a few rows). The tradeoff is deliberate: every
//! matrix-vector product of the BiCGSTAB solve re-decodes the stream
//! (and, on the disk tier, re-faults chunks through the cache), paying
//! time for the memory reduction that lets 10⁹-entry chains fit at all.

use stab_core::engine::{Csr, RowStorage, RowStorageBuilder};

/// One stored entry of `Q`: `(column j, probability Q_ij)`.
pub type QEntry = (u32, f64);

/// The flat `Q` tier: row `i` holds `(j, Q_ij)` entries sorted by `j`.
pub type QMatrix = Csr<QEntry>;

/// The per-run `Q` store of an [`AbsorbingChain`](crate::AbsorbingChain):
/// whichever tier matches the transition system's edge store.
pub type QStorage = RowStorage<QEntry>;

/// Tier-selected assembly of a [`QStorage`]: rows appended in
/// transient-index order. On the disk tier `Q` is working state (never
/// checkpointed), so [`QStorageBuilder::new`] spills to a self-cleaning
/// temporary directory with the default budgets.
pub type QStorageBuilder = RowStorageBuilder<QEntry>;

//! One three-tier row store for both graphs the paper's checks read: the
//! transition system's edges ([`EdgeStorage`], walked by the weak, self
//! and fairness verdicts) and the absorbing chain's transient matrix `Q`
//! (`stab_markov::QStorage`, solved for the probabilistic-stabilization
//! times). [`RowStorage<T>`] is generic over the row item `T`
//! ([`RowItem`]: an [`Edge`], or a `(column, probability)` entry of `Q`),
//! and the item only decides what one entry encodes. The tiers are
//!
//! * **flat** — a [`Csr<T>`]: u32 offsets, slice access, 24 bytes per
//!   edge and 16 per `Q` entry;
//! * **compressed** — [`CompressedRows<T>`], a byte-packed stream for
//!   10⁸+-entry systems;
//! * **disk** — [`DiskRows<T>`], the same stream spilled to CRC-framed
//!   chunk files behind a pinned-budget cache, for 10⁹+-entry systems
//!   whose compressed stream itself exceeds RAM.
//!
//! # Why compress
//!
//! Reachable-only exploration and symmetry quotients cap the largest
//! checkable instance by *edge memory*, not time: every [`Edge`] costs
//! `size_of::<Edge>()` = 24 bytes in the flat CSR, so Herman N=17
//! (≈ 1.3·10⁸ edges for the full sweep) sits at the RAM ceiling. The
//! compressed tier stores, per row,
//!
//! * the targets (successor ids, or `Q` columns) as **zig-zag varint
//!   deltas** — against the row's own id for the first item (delta
//!   encoding keeps successors close to their source), then against the
//!   previous target (rows are sorted by target, so the gaps are small);
//! * for an edge, the activation bitmask as a plain varint (low process
//!   bits dominate);
//! * the probability as a varint **index into a deduplicated probability
//!   table** — distinct probabilities per run are few (powers of ½ for
//!   Herman, `1/#activations` families elsewhere), so the side-channel
//!   `Vec<f64>` stays tiny.
//!
//! Measured bytes per edge land at 3–6 for the zoo (see
//! `BENCH_explore.json`, schema v4+), a 4–8× reduction over the flat tier.
//!
//! Row boundaries are **u64 byte offsets**, and item counts are tracked
//! in u64 throughout, so systems past 2³² edges are representable rather
//! than silently wrapped (the flat tier's u32 offsets *panic* past that
//! point — see [`Csr::from_counts`]).
//!
//! Every tier implements the [`RowStore`] row-access trait. [`RowStorage`]
//! is the runtime-selected store, assembled row by row by
//! [`RowStorageBuilder`]; the exploration picks the tier with
//! [`ExploreOptions::with_edge_store`](super::ExploreOptions::with_edge_store)
//! and the chain's `Q` inherits it. Decoding is allocation-free:
//! [`RowIter`] is a cursor over the byte stream (or a slice iterator on
//! the flat tier), which is what Tarjan, the reachability closures and
//! the `Q`-row reads need. Loops that sweep every row many times (the
//! solvers) match the tier once and run monomorphically over its
//! concrete [`RowStore::Row`] cursor.

use std::collections::HashMap;
use std::marker::PhantomData;

use super::csr::Csr;
use super::explore::Edge;
use super::ids;
use super::resilience::Budget;
use super::spill::{SpillConfig, SpillCursor, SpillSink, SpillStore};
use crate::error::CoreError;

/// Variable-byte (LEB128) and zig-zag primitives of the compressed row
/// stream.
pub mod vbyte {
    /// Maps a signed delta onto the unsigned varint domain
    /// (0, −1, 1, −2, … ↦ 0, 1, 2, 3, …).
    #[inline]
    pub fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    /// Inverse of [`zigzag`].
    #[inline]
    pub fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    /// Appends `v` as an LEB128 varint (7 payload bits per byte,
    /// continuation in the high bit).
    #[inline]
    pub fn write(buf: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8; // lint: cast-ok(masked to 7 bits)
            v >>= 7;
            if v == 0 {
                buf.push(byte);
                return;
            }
            buf.push(byte | 0x80);
        }
    }

    /// Reads one LEB128 varint at `*pos`, advancing the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the stream ends mid-varint (corrupt stream).
    #[inline]
    pub fn read(buf: &[u8], pos: &mut usize) -> u64 {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = buf[*pos];
            *pos += 1;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }
}

/// Shared low-level writer for delta-compressed row streams: u64 byte
/// offsets, zig-zag varint target deltas (base = the row's own index
/// before its first item, then the previous target), and a dedup-interned
/// probability table. [`RowStorageBuilder`] drives it through each
/// item's [`RowItem::encode`], so the subtle parts of the encoding live
/// exactly once.
#[derive(Debug)]
pub struct DeltaStreamWriter {
    offsets: Vec<u64>,
    stream: Vec<u8>,
    probs: Vec<f64>,
    prob_ids: HashMap<u64, u32>,
    n_items: u64,
    prev: i64,
    /// Global byte offset of `stream[0]`: 0 for in-RAM streams, and the
    /// number of already-spilled bytes once [`DeltaStreamWriter::drain`]
    /// has handed prefixes of the stream to a chunk sink. `offsets` stay
    /// global either way.
    base: u64,
}

impl Default for DeltaStreamWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaStreamWriter {
    /// An empty stream positioned at row 0.
    pub fn new() -> Self {
        DeltaStreamWriter {
            offsets: vec![0],
            stream: Vec::new(),
            probs: Vec::new(),
            prob_ids: HashMap::new(),
            n_items: 0,
            prev: 0,
            base: 0,
        }
    }

    /// Writes the next item's target as a zig-zag varint delta and counts
    /// the item. Call first per item, before any payload varints.
    #[inline]
    pub fn target(&mut self, target: u32) {
        vbyte::write(&mut self.stream, vbyte::zigzag(target as i64 - self.prev));
        self.prev = target as i64;
        self.n_items += 1;
    }

    /// Writes a raw payload varint for the current item.
    #[inline]
    pub fn raw(&mut self, v: u64) {
        vbyte::write(&mut self.stream, v);
    }

    /// Interns `prob` (keyed by its exact bit pattern) and writes its
    /// table id as a varint.
    #[inline]
    pub fn prob(&mut self, prob: f64) {
        let pid = match self.prob_ids.entry(prob.to_bits()) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = ids::id_u32(self.probs.len(), "interned probability ids fit u32");
                self.probs.push(prob);
                e.insert(id);
                id
            }
        };
        vbyte::write(&mut self.stream, pid as u64);
    }

    /// Closes the current row: records its end offset (global, i.e.
    /// including any drained prefix) and re-bases the delta encoding on
    /// the next row's index.
    pub fn end_row(&mut self) {
        // lint: arith-ok(byte offsets grow by in-memory buffer lengths; u64 outlives addressable memory)
        self.offsets.push(self.base + self.stream.len() as u64);
        self.prev = (self.offsets.len() - 1) as i64;
    }

    /// Bytes currently resident in the pending (undrained) stream tail.
    pub fn pending_len(&self) -> usize {
        self.stream.len()
    }

    /// Global byte offset at which the pending tail starts.
    pub fn pending_base(&self) -> u64 {
        self.base
    }

    /// Hands the pending stream bytes to a chunk sink and re-bases the
    /// writer past them: returns `(start, bytes)` where `start` is the
    /// global offset of `bytes[0]`. Only valid at a row boundary (right
    /// after [`DeltaStreamWriter::end_row`]), so spilled chunks always
    /// end on row boundaries.
    pub fn drain(&mut self) -> (u64, Vec<u8>) {
        let start = self.base;
        let bytes = std::mem::take(&mut self.stream);
        // lint: arith-ok(base advances by a drained in-memory buffer length; u64 outlives addressable memory)
        self.base += bytes.len() as u64;
        (start, bytes)
    }

    /// Finalises into `(offsets, stream, probs, n_items)`.
    pub fn into_parts(self) -> (Vec<u64>, Vec<u8>, Vec<f64>, u64) {
        (self.offsets, self.stream, self.probs, self.n_items)
    }

    /// Borrowed view of the in-progress stream
    /// `(offsets, stream, probs, n_items)` — the checkpoint snapshot
    /// surface (valid only at a row boundary, i.e. right after
    /// [`DeltaStreamWriter::end_row`]).
    pub fn parts(&self) -> (&[u64], &[u8], &[f64], u64) {
        (&self.offsets, &self.stream, &self.probs, self.n_items)
    }

    /// Rebuilds an in-progress writer from checkpointed parts, positioned
    /// at the row boundary the parts were captured at: the prob-intern
    /// map is rebuilt from `probs` (ids are insertion order) and the
    /// delta base is re-derived from the offsets length, exactly as
    /// [`DeltaStreamWriter::end_row`] left it.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty (a valid stream always starts with
    /// offset 0).
    pub fn from_parts(offsets: Vec<u64>, stream: Vec<u8>, probs: Vec<f64>, n_items: u64) -> Self {
        assert!(!offsets.is_empty(), "offsets must start with 0");
        let prob_ids = probs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p.to_bits(),
                    ids::id_u32(i, "interned probability ids fit u32"),
                )
            })
            .collect();
        let prev = (offsets.len() - 1) as i64;
        let base = offsets.last().unwrap() - stream.len() as u64;
        DeltaStreamWriter {
            offsets,
            stream,
            probs,
            prob_ids,
            n_items,
            prev,
            base,
        }
    }
}

/// The decoding surface of one encoded row, mirroring
/// [`DeltaStreamWriter`]: [`RowItem::decode`] reads an item's target
/// first, then its payload. Implemented by the compressed tier's
/// [`DeltaStreamReader`] and the disk tier's [`DiskReader`].
pub trait ItemReader {
    /// Whether the row's span is exhausted.
    fn done(&self) -> bool;
    /// Decodes the next item's target (call first per item).
    fn target(&mut self) -> u32;
    /// Decodes a raw payload varint.
    fn raw(&mut self) -> u64;
    /// Decodes a probability-table id and resolves it.
    fn prob(&mut self) -> f64;
}

/// The decoding counterpart of [`DeltaStreamWriter`]: a zero-alloc
/// cursor over one row's span of an in-RAM delta-compressed stream,
/// holding the rebase / zig-zag-accumulation / prob-table invariants
/// exactly once.
#[derive(Debug, Clone)]
pub struct DeltaStreamReader<'a> {
    stream: &'a [u8],
    pos: usize,
    end: usize,
    /// Delta base: the row id before the first item, then the previous
    /// target.
    prev: i64,
    probs: &'a [f64],
}

impl<'a> DeltaStreamReader<'a> {
    /// A cursor over row `row` spanning `offsets[row]..offsets[row + 1]`.
    #[inline]
    pub fn new(stream: &'a [u8], offsets: &[u64], row: usize, probs: &'a [f64]) -> Self {
        DeltaStreamReader {
            stream,
            pos: offsets[row] as usize,
            end: offsets[row + 1] as usize,
            prev: row as i64,
            probs,
        }
    }
}

impl ItemReader for DeltaStreamReader<'_> {
    #[inline]
    fn done(&self) -> bool {
        self.pos >= self.end
    }

    #[inline]
    fn target(&mut self) -> u32 {
        self.prev += vbyte::unzigzag(vbyte::read(self.stream, &mut self.pos));
        ids::delta_target(self.prev, "corrupt compressed delta stream")
    }

    #[inline]
    fn raw(&mut self) -> u64 {
        vbyte::read(self.stream, &mut self.pos)
    }

    #[inline]
    fn prob(&mut self) -> f64 {
        self.probs[vbyte::read(self.stream, &mut self.pos) as usize]
    }
}

/// The disk tier's [`ItemReader`]: a [`SpillCursor`] pinning the row's
/// cached chunk (so the cache may rotate underneath it) plus the
/// resident probability table.
#[derive(Debug, Clone)]
pub struct DiskReader<'a> {
    cur: SpillCursor,
    probs: &'a [f64],
}

impl ItemReader for DiskReader<'_> {
    #[inline]
    fn done(&self) -> bool {
        self.cur.done()
    }

    #[inline]
    fn target(&mut self) -> u32 {
        self.cur.target()
    }

    #[inline]
    fn raw(&mut self) -> u64 {
        self.cur.raw()
    }

    #[inline]
    fn prob(&mut self) -> f64 {
        self.probs[self.cur.raw() as usize]
    }
}

/// One stored row item and its byte encoding on the compressed and disk
/// tiers: the target as a zig-zag varint delta, then the item's payload.
/// Implemented for [`Edge`] (target delta, movers varint, probability id)
/// and for the `(column, probability)` entry of the chain's `Q` (target
/// delta, probability id).
pub trait RowItem: Copy {
    /// The row this item points at: a successor id, or a `Q` column.
    fn target(&self) -> u32;
    /// Appends the item (target first) to the stream.
    fn encode(&self, w: &mut DeltaStreamWriter);
    /// Reads one item back, mirroring [`RowItem::encode`].
    fn decode(r: &mut impl ItemReader) -> Self;
}

impl RowItem for Edge {
    #[inline]
    fn target(&self) -> u32 {
        self.to
    }

    #[inline]
    fn encode(&self, w: &mut DeltaStreamWriter) {
        w.target(self.to);
        w.raw(self.movers);
        w.prob(self.prob);
    }

    #[inline]
    fn decode(r: &mut impl ItemReader) -> Self {
        Edge {
            to: r.target(),
            movers: r.raw(),
            prob: r.prob(),
        }
    }
}

impl RowItem for (u32, f64) {
    #[inline]
    fn target(&self) -> u32 {
        self.0
    }

    #[inline]
    fn encode(&self, w: &mut DeltaStreamWriter) {
        w.target(self.0);
        w.prob(self.1);
    }

    #[inline]
    fn decode(r: &mut impl ItemReader) -> Self {
        (r.target(), r.prob())
    }
}

/// Which tier a run materialises its rows (edges, and the chain's `Q`)
/// in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeStoreKind {
    /// The flat `Csr` tier: 24 B/edge, u32 offsets, slice access —
    /// the fastest store while edge memory fits.
    #[default]
    Flat,
    /// The byte-packed delta stream: ~3–6 B/edge, u64 offsets, cursor
    /// access — for instances whose flat store exceeds RAM.
    Compressed,
    /// The compressed stream spilled to CRC-framed chunk files behind a
    /// pinned-budget cache: ~3–6 B/edge *on disk*, only offsets, the
    /// probability table and the cached chunks resident — for instances
    /// whose compressed stream itself exceeds RAM.
    Disk,
}

impl EdgeStoreKind {
    /// Stable lower-case label (`"flat"` / `"compressed"` / `"disk"`)
    /// used by the bench JSON schema.
    pub fn label(self) -> &'static str {
        match self {
            EdgeStoreKind::Flat => "flat",
            EdgeStoreKind::Compressed => "compressed",
            EdgeStoreKind::Disk => "disk",
        }
    }
}

/// Row access, implemented by every tier and by the runtime-selected
/// [`RowStorage`]. Code generic over it (the solvers, the stream
/// inversion) runs monomorphically over the concrete row cursor.
pub trait RowStore {
    /// The decoded row item.
    type Item: RowItem;
    /// The zero-alloc row cursor.
    type Row<'a>: Iterator<Item = Self::Item>
    where
        Self: 'a;
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Cursor over row `i`'s items, ascending by target.
    fn row_iter(&self, i: usize) -> Self::Row<'_>;
    /// The bytes a row walk keeps in RAM on behalf of spilled rows — the
    /// figure the solvers feed their budget probes. 0 on the in-RAM tiers,
    /// whose whole footprint was charged when the store was built; on the
    /// disk tier, [`DiskRows::resident_bytes`] (offsets, probability
    /// table and the pinned chunk cache).
    fn spill_resident_bytes(&self) -> u64 {
        0
    }
}

impl<T: RowItem> RowStore for Csr<T> {
    type Item = T;
    type Row<'a>
        = std::iter::Copied<std::slice::Iter<'a, T>>
    where
        Self: 'a;

    fn n_rows(&self) -> usize {
        Csr::n_rows(self)
    }

    #[inline]
    fn row_iter(&self, i: usize) -> Self::Row<'_> {
        self.row(i).iter().copied()
    }
}

/// Zero-alloc decoding cursor over one row of a stream tier: the
/// compressed tier reads through a [`DeltaStreamReader`], the disk tier
/// through a [`DiskReader`].
#[derive(Debug, Clone)]
pub struct StreamRow<R, T> {
    reader: R,
    item: PhantomData<fn() -> T>,
}

impl<R: ItemReader, T: RowItem> Iterator for StreamRow<R, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        if self.reader.done() {
            return None;
        }
        Some(T::decode(&mut self.reader))
    }
}

/// The compressed tier: per-row zig-zag varint target deltas plus a
/// deduplicated probability table, delimited by u64 byte offsets.
#[derive(Debug)]
pub struct CompressedRows<T> {
    /// Byte offset of each row's encoding in `stream` (`n_rows + 1`
    /// entries, monotone).
    offsets: Vec<u64>,
    /// The packed row stream.
    stream: Vec<u8>,
    /// Deduplicated probabilities, indexed by the stream's probability
    /// ids.
    probs: Vec<f64>,
    /// Total items across all rows.
    n_items: u64,
    item: PhantomData<fn() -> T>,
}

impl<T> CompressedRows<T> {
    /// Number of distinct probabilities interned in the side table.
    pub fn prob_table_len(&self) -> usize {
        self.probs.len()
    }

    /// The byte offsets delimiting each row's encoding.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }
}

impl<T: RowItem> RowStore for CompressedRows<T> {
    type Item = T;
    type Row<'a>
        = StreamRow<DeltaStreamReader<'a>, T>
    where
        Self: 'a;

    fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn row_iter(&self, i: usize) -> Self::Row<'_> {
        StreamRow {
            reader: DeltaStreamReader::new(&self.stream, &self.offsets, i, &self.probs),
            item: PhantomData,
        }
    }
}

/// The disk tier: the compressed encoding of [`CompressedRows`], but
/// with the byte stream spilled to CRC-framed chunk files (see
/// [`super::spill`]); only the u64 row offsets, the deduplicated
/// probability table and a pinned-budget chunk cache stay resident.
/// Chunks end on row boundaries, so every row decodes from exactly one
/// cached chunk.
#[derive(Debug)]
pub struct DiskRows<T> {
    /// Global byte offset of each row's encoding (`n_rows + 1` entries,
    /// monotone) — resident.
    offsets: Vec<u64>,
    /// Deduplicated probabilities — resident.
    probs: Vec<f64>,
    /// Total items across all rows.
    n_items: u64,
    /// The spilled chunk files plus their cache.
    store: SpillStore,
    item: PhantomData<fn() -> T>,
}

impl<T> DiskRows<T> {
    /// Resident side tables: the offsets and the probability table.
    fn side_bytes(&self) -> u64 {
        (self.offsets.len() * 8 + self.probs.len() * 8) as u64
    }

    /// Bytes currently resident in RAM: offsets + probability table +
    /// cached chunks (the figure budget probes report as cache pressure).
    pub fn resident_bytes(&self) -> u64 {
        self.side_bytes() + self.store.resident_bytes()
    }

    /// High-water mark of [`DiskRows::resident_bytes`] across the
    /// store's lifetime (cache peak, not current occupancy).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.side_bytes() + self.store.peak_resident_bytes()
    }

    /// Total payload bytes spilled to chunk files.
    pub fn spilled_bytes(&self) -> u64 {
        self.store.spilled_bytes()
    }

    /// The spill directory holding the chunk files.
    pub fn spill_dir(&self) -> &std::path::Path {
        self.store.dir()
    }

    /// `(hits, misses)` of the chunk cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.store.cache_stats()
    }

    /// Re-validates every chunk file's frame (magic, length, CRC32C)
    /// against the recorded metadata.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckpointCorrupt`] naming the first bad chunk — a
    /// torn or bit-flipped spill file is refused, never decoded.
    pub fn verify_chunks(&self) -> Result<(), CoreError> {
        self.store.verify_chunks()
    }
}

impl<T: RowItem> RowStore for DiskRows<T> {
    type Item = T;
    type Row<'a>
        = StreamRow<DiskReader<'a>, T>
    where
        Self: 'a;

    fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn row_iter(&self, i: usize) -> Self::Row<'_> {
        StreamRow {
            reader: DiskReader {
                cur: self.store.row_cursor(&self.offsets, i),
                probs: &self.probs,
            },
            item: PhantomData,
        }
    }

    fn spill_resident_bytes(&self) -> u64 {
        self.resident_bytes()
    }
}

/// Cursor over one row of any tier, yielding decoded items by value in
/// target order.
#[derive(Debug, Clone)]
pub enum RowIter<'a, T> {
    /// Slice walk over the flat tier.
    Flat(std::iter::Copied<std::slice::Iter<'a, T>>),
    /// Varint decode over the compressed tier.
    Compressed(StreamRow<DeltaStreamReader<'a>, T>),
    /// Varint decode over a pinned chunk of the disk tier.
    Disk(StreamRow<DiskReader<'a>, T>),
}

impl<T: RowItem> Iterator for RowIter<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        match self {
            RowIter::Flat(it) => it.next(),
            RowIter::Compressed(it) => it.next(),
            RowIter::Disk(it) => it.next(),
        }
    }
}

/// A runtime-selected row store: whichever tier the run picked.
// One instance per run, so the Disk variant's inline size is moot.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum RowStorage<T> {
    /// Flat `Csr` tier.
    Flat(Csr<T>),
    /// Byte-packed compressed tier.
    Compressed(CompressedRows<T>),
    /// Disk-spilled compressed tier.
    Disk(DiskRows<T>),
}

/// The per-run edge store of a [`TransitionSystem`](super::TransitionSystem).
pub type EdgeStorage = RowStorage<Edge>;

/// The builder of an [`EdgeStorage`].
pub type EdgeStorageBuilder = RowStorageBuilder<Edge>;

/// Cursor over one row of an [`EdgeStorage`].
pub type EdgeIter<'a> = RowIter<'a, Edge>;

impl<T: RowItem> RowStorage<T> {
    /// Which tier this store is.
    pub fn kind(&self) -> EdgeStoreKind {
        match self {
            RowStorage::Flat(_) => EdgeStoreKind::Flat,
            RowStorage::Compressed(_) => EdgeStoreKind::Compressed,
            RowStorage::Disk(_) => EdgeStoreKind::Disk,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        match self {
            RowStorage::Flat(c) => Csr::n_rows(c),
            RowStorage::Compressed(c) => c.n_rows(),
            RowStorage::Disk(d) => d.n_rows(),
        }
    }

    /// Total stored items (u64: representable past 2³²).
    pub fn n_entries(&self) -> u64 {
        match self {
            RowStorage::Flat(c) => c.n_entries() as u64,
            RowStorage::Compressed(c) => c.n_items,
            RowStorage::Disk(d) => d.n_items,
        }
    }

    /// The store's footprint (offsets + items + side tables), comparable
    /// across tiers: on the disk tier, the resident side tables plus the
    /// spilled stream.
    pub fn bytes(&self) -> u64 {
        match self {
            RowStorage::Flat(c) => {
                (c.n_entries() * std::mem::size_of::<T>()
                    + (Csr::n_rows(c) + 1) * std::mem::size_of::<u32>()) as u64
            }
            RowStorage::Compressed(c) => {
                (c.stream.len() + c.offsets.len() * 8 + c.probs.len() * 8) as u64
            }
            RowStorage::Disk(d) => d.side_bytes() + d.spilled_bytes(),
        }
    }

    /// Cursor over row `i`'s items, ascending by target.
    #[inline]
    pub fn row_iter(&self, i: usize) -> RowIter<'_, T> {
        match self {
            RowStorage::Flat(c) => RowIter::Flat(c.row_iter(i)),
            RowStorage::Compressed(c) => RowIter::Compressed(c.row_iter(i)),
            RowStorage::Disk(d) => RowIter::Disk(d.row_iter(i)),
        }
    }

    /// Row `i` decoded into a fresh vector (test and display
    /// convenience; the hot loops iterate [`RowStorage::row_iter`]).
    pub fn row_vec(&self, i: usize) -> Vec<T> {
        self.row_iter(i).collect()
    }

    /// Whether row `i` stores no items (a terminal configuration).
    pub fn row_is_empty(&self, i: usize) -> bool {
        match self {
            RowStorage::Flat(c) => c.row(i).is_empty(),
            RowStorage::Compressed(c) => c.offsets[i] == c.offsets[i + 1],
            RowStorage::Disk(d) => d.offsets[i] == d.offsets[i + 1],
        }
    }

    /// Row `i` as a slice — **flat tier only**: `None` on the compressed
    /// and disk tiers, whose rows exist only in decoded form (iterate
    /// [`RowStorage::row_iter`] instead).
    pub fn try_row_slice(&self, i: usize) -> Option<&[T]> {
        match self {
            RowStorage::Flat(c) => Some(c.row(i)),
            RowStorage::Compressed(_) | RowStorage::Disk(_) => None,
        }
    }

    /// Row `i` as a slice — **flat tier only**.
    ///
    /// # Panics
    ///
    /// Panics on the compressed tier; prefer
    /// [`RowStorage::try_row_slice`] (or the typed
    /// `CoreError::FlatStoreRequired` surface of
    /// `TransitionSystem::edges`).
    pub fn row_slice(&self, i: usize) -> &[T] {
        self.try_row_slice(i)
            .expect("edge slices exist only on the flat store; use row_iter / edge_iter")
    }

    /// The reverse adjacency as a `Csr<u32>` (row `j` = rows with an
    /// item targeting `j`, ascending with multiplicity), built by
    /// decoding the stream twice on the compressed and disk tiers.
    ///
    /// # Panics
    ///
    /// Panics if the item count exceeds `u32::MAX` — the reverse CSR is
    /// u32-offset (checked, never silently wrapped).
    pub fn invert_targets(&self) -> Csr<u32> {
        self.invert_targets_budgeted(&Budget::unlimited())
            .expect("unlimited budget cannot be exhausted")
    }

    /// [`RowStorage::invert_targets`] under a cooperative [`Budget`]:
    /// the reverse-CSR allocation is probed on the `reverse` stage before
    /// anything is built, and the chunk-blocked decoding passes re-probe
    /// per row block, so an over-budget inversion surfaces as
    /// [`CoreError::BudgetExhausted`] (a `Degraded` study outcome)
    /// instead of an OOM.
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetExhausted`] when a probe trips.
    pub fn invert_targets_budgeted(&self, budget: &Budget) -> Result<Csr<u32>, CoreError> {
        match self {
            RowStorage::Flat(c) => {
                let full_bytes = c.n_entries() as u64 * 4 + (Csr::n_rows(c) as u64 + 1) * 4;
                budget.probe("reverse", full_bytes, Csr::n_rows(c) as u64)?;
                Ok(c.invert(|item| item.target()))
            }
            RowStorage::Compressed(c) => invert_stream(c, c.n_items, budget),
            RowStorage::Disk(d) => invert_stream(d, d.n_items, budget),
        }
    }

    /// Bytes currently resident in RAM: the whole store
    /// ([`RowStorage::bytes`]) on the in-RAM tiers; on the disk tier,
    /// only the offsets, probability table and cached chunks.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            RowStorage::Flat(_) | RowStorage::Compressed(_) => self.bytes(),
            RowStorage::Disk(d) => d.resident_bytes(),
        }
    }

    /// High-water mark of [`RowStorage::resident_bytes`]: equal to it
    /// on the in-RAM tiers, the cache's peak on the disk tier.
    pub fn peak_resident_bytes(&self) -> u64 {
        match self {
            RowStorage::Flat(_) | RowStorage::Compressed(_) => self.bytes(),
            RowStorage::Disk(d) => d.peak_resident_bytes(),
        }
    }

    /// Bytes spilled to chunk files: zero on the in-RAM tiers.
    pub fn spilled_bytes(&self) -> u64 {
        match self {
            RowStorage::Flat(_) | RowStorage::Compressed(_) => 0,
            RowStorage::Disk(d) => d.spilled_bytes(),
        }
    }

    /// `(hits, misses)` of the disk tier's chunk cache; `None` on the
    /// in-RAM tiers.
    pub fn spill_cache_stats(&self) -> Option<(u64, u64)> {
        match self {
            RowStorage::Flat(_) | RowStorage::Compressed(_) => None,
            RowStorage::Disk(d) => Some(d.cache_stats()),
        }
    }
}

impl RowStorage<Edge> {
    /// Total stored edges ([`RowStorage::n_entries`]).
    pub fn n_edges(&self) -> u64 {
        self.n_entries()
    }

    /// The edge store's footprint ([`RowStorage::bytes`]).
    pub fn edge_bytes(&self) -> u64 {
        self.bytes()
    }
}

impl RowStorage<(u32, f64)> {
    /// The `Q` store's footprint ([`RowStorage::bytes`]) — the `Q`-side
    /// analogue of the engine's `edge_bytes`.
    pub fn q_bytes(&self) -> u64 {
        self.bytes()
    }

    /// The `Q` store's resident set ([`RowStorage::resident_bytes`]).
    pub fn resident_q_bytes(&self) -> u64 {
        self.resident_bytes()
    }
}

impl<T: RowItem> RowStore for RowStorage<T> {
    type Item = T;
    type Row<'a>
        = RowIter<'a, T>
    where
        Self: 'a;

    fn n_rows(&self) -> usize {
        RowStorage::n_rows(self)
    }

    fn row_iter(&self, i: usize) -> RowIter<'_, T> {
        RowStorage::row_iter(self, i)
    }

    fn spill_resident_bytes(&self) -> u64 {
        match self {
            RowStorage::Flat(_) | RowStorage::Compressed(_) => 0,
            RowStorage::Disk(d) => d.resident_bytes(),
        }
    }
}

/// Rows decoded between two budget probes of the inversion passes.
const INVERT_PROBE_STRIDE: usize = 1 << 16;

/// Counting-sort inversion of a stream tier (the flat tier uses
/// [`Csr::invert`]), decoding each row twice. The full reverse-CSR
/// allocation (4 B/entry data + 4 B/row counts + cursor) is probed on
/// the `reverse` stage up front, and both decoding passes re-probe every
/// `INVERT_PROBE_STRIDE` (65 536) rows — the passes run row-sequentially,
/// so on the disk tier chunks rotate through the cache exactly once per
/// pass.
///
/// # Panics
///
/// Panics if `n_entries` exceeds `u32::MAX` — the reverse CSR is
/// u32-offset (checked, never silently wrapped).
fn invert_stream<S: RowStore>(
    rows: &S,
    n_entries: u64,
    budget: &Budget,
) -> Result<Csr<u32>, CoreError> {
    assert!(
        n_entries <= u32::MAX as u64,
        "reverse CSR is u32-offset; {n_entries} entries exceed it"
    );
    let n_rows = rows.n_rows();
    let full_bytes = n_entries * 4 + (n_rows as u64) * 8;
    budget.probe("reverse", full_bytes, n_rows as u64)?;
    let mut counts = vec![0u32; n_rows];
    for i in 0..n_rows {
        if i % INVERT_PROBE_STRIDE == 0 && i > 0 {
            budget.probe("reverse", (n_rows as u64) * 4, i as u64)?;
        }
        for item in rows.row_iter(i) {
            counts[item.target() as usize] += 1;
        }
    }
    // Exclusive prefix sum = the write cursor per target row
    // (`Csr::from_counts` re-derives the offsets from `counts`).
    let mut cursor = Vec::with_capacity(n_rows);
    let mut acc = 0u32;
    for &c in &counts {
        cursor.push(acc);
        acc += c;
    }
    let mut data = vec![0u32; n_entries as usize];
    for i in 0..n_rows {
        if i % INVERT_PROBE_STRIDE == 0 && i > 0 {
            budget.probe("reverse", full_bytes, i as u64)?;
        }
        for item in rows.row_iter(i) {
            let t = item.target() as usize;
            // lint: cast-ok(row index is bounded by the u32 id width)
            data[cursor[t] as usize] = i as u32;
            cursor[t] += 1;
        }
    }
    Ok(Csr::from_counts(&counts, data))
}

/// Tier-selected assembly of a [`RowStorage`]: rows (or whole chunks of
/// rows) are appended in id order and the selected store comes out of
/// [`RowStorageBuilder::finish`].
#[derive(Debug)]
pub enum RowStorageBuilder<T> {
    /// Accumulates per-row counts + flat items for `Csr::from_counts`.
    Flat {
        /// Per-row item counts.
        counts: Vec<u32>,
        /// Concatenated row data.
        items: Vec<T>,
    },
    /// Streams rows straight into the compressed encoding. With a sink
    /// (the disk tier), whenever the pending stream tail reaches the
    /// configured chunk size at a row boundary it is drained into a
    /// CRC-framed chunk file, so the resident set stays bounded by one
    /// chunk regardless of system size.
    Stream {
        /// The shared delta encoder (on the disk tier, its pending tail
        /// starts at [`DeltaStreamWriter::pending_base`]; earlier bytes
        /// are read back through [`SpillSink::byte_range`]).
        w: DeltaStreamWriter,
        /// The chunk writer of the disk tier; `None` keeps the stream in
        /// RAM (the compressed tier).
        sink: Option<SpillSink>,
    },
}

impl<T: RowItem> RowStorageBuilder<T> {
    /// An empty builder of the selected tier (the disk tier with its
    /// default [`SpillConfig`]: a self-cleaning temporary directory).
    pub fn new(kind: EdgeStoreKind) -> Self {
        Self::with_spill(kind, &SpillConfig::default())
    }

    /// An empty builder of the selected tier, spilling per `cfg` on the
    /// disk tier (`cfg` is ignored by the in-RAM tiers).
    pub fn with_spill(kind: EdgeStoreKind, cfg: &SpillConfig) -> Self {
        match kind {
            EdgeStoreKind::Flat => RowStorageBuilder::Flat {
                counts: Vec::new(),
                items: Vec::new(),
            },
            EdgeStoreKind::Compressed => Self::from_writer(DeltaStreamWriter::new(), None),
            EdgeStoreKind::Disk => Self::from_writer(DeltaStreamWriter::new(), Some(cfg)),
        }
    }

    /// A stream-tier builder around a (possibly checkpoint-restored)
    /// writer: spilling per `spill` on the disk tier, where restored
    /// stream bytes are re-spilled as rows keep arriving; in RAM when
    /// `spill` is `None`.
    pub fn from_writer(w: DeltaStreamWriter, spill: Option<&SpillConfig>) -> Self {
        RowStorageBuilder::Stream {
            w,
            sink: spill.map(SpillSink::create),
        }
    }

    /// Heap bytes currently held by the under-construction store — the
    /// usage an exploration reports at each budget probe. On the disk
    /// tier this is the *resident* set (offsets, probability table and
    /// the pending chunk), not the spilled bytes.
    pub fn bytes_estimate(&self) -> u64 {
        match self {
            RowStorageBuilder::Flat { counts, items } => {
                (items.len() * std::mem::size_of::<T>() + counts.len() * 4) as u64
            }
            RowStorageBuilder::Stream { w, .. } => {
                let (offsets, _, probs, _) = w.parts();
                // lint: arith-ok(approximate size accounting over resident buffer lengths)
                (w.pending_len() + offsets.len() * 8 + probs.len() * 8) as u64
            }
        }
    }

    /// Appends the next row (items sorted by target, as every exploration
    /// path and the chain build produce them).
    ///
    /// # Panics
    ///
    /// Panics on the flat tier if the row holds more than `u32::MAX`
    /// items (u32 per-row counts).
    pub fn push_row(&mut self, row: &[T]) {
        match self {
            RowStorageBuilder::Flat { counts, items } => {
                counts.push(u32::try_from(row.len()).expect("row length exceeds u32::MAX entries"));
                items.extend_from_slice(row);
            }
            RowStorageBuilder::Stream { w, sink } => {
                for item in row {
                    item.encode(w);
                }
                w.end_row();
                if let Some(sink) = sink {
                    sink.maybe_spill(w);
                }
            }
        }
    }

    /// Appends a whole chunk of rows (`chunk_counts[i]` items each,
    /// concatenated in `chunk_items`) — the bulk path of the parallel
    /// full sweep.
    pub fn push_chunk(&mut self, chunk_counts: &[u32], chunk_items: &[T]) {
        if let RowStorageBuilder::Flat { counts, items } = self {
            counts.extend_from_slice(chunk_counts);
            items.extend_from_slice(chunk_items);
            return;
        }
        let mut base = 0usize;
        for &c in chunk_counts {
            // lint: arith-ok(base plus per-chunk counts stays within the slice the counts describe)
            self.push_row(&chunk_items[base..base + c as usize]);
            // lint: arith-ok(cursor stays within chunk_items.len, itself a valid usize)
            base += c as usize;
        }
    }

    /// Finalises the selected store; the disk tier drains its pending
    /// tail into a last chunk and seals the chunk set behind its cache.
    ///
    /// # Panics
    ///
    /// Panics on the flat tier past `u32::MAX` total items
    /// ([`Csr::from_counts`]'s checked offsets) — the compressed tiers
    /// are the supported representations at that scale.
    pub fn finish(self) -> RowStorage<T> {
        match self {
            RowStorageBuilder::Flat { counts, items } => {
                RowStorage::Flat(Csr::from_counts(&counts, items))
            }
            RowStorageBuilder::Stream { w, sink: None } => {
                let (offsets, stream, probs, n_items) = w.into_parts();
                RowStorage::Compressed(CompressedRows {
                    offsets,
                    stream,
                    probs,
                    n_items,
                    item: PhantomData,
                })
            }
            RowStorageBuilder::Stream {
                mut w,
                sink: Some(mut sink),
            } => {
                sink.spill(&mut w);
                let (offsets, _, probs, n_items) = w.into_parts();
                RowStorage::Disk(DiskRows {
                    offsets,
                    probs,
                    n_items,
                    store: sink.finish(),
                    item: PhantomData,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(to: u32, movers: u64, prob: f64) -> Edge {
        Edge { to, movers, prob }
    }

    #[test]
    fn vbyte_round_trips_across_widths() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            vbyte::write(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(vbyte::read(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_is_a_bijection_on_small_deltas() {
        for v in [-3i64, -2, -1, 0, 1, 2, 3, i64::MIN / 2, i64::MAX / 2] {
            assert_eq!(vbyte::unzigzag(vbyte::zigzag(v)), v);
        }
        // Small magnitudes stay small: one-byte varints for |δ| < 64.
        assert!(vbyte::zigzag(-64) < 128);
        assert!(vbyte::zigzag(63) < 128);
    }

    #[test]
    fn compressed_round_trips_rows() {
        let rows: Vec<Vec<Edge>> = vec![
            vec![edge(0, 0b1, 0.5), edge(2, 0b10, 0.5)],
            vec![],
            vec![edge(0, 0b11, 0.25), edge(1, 0b1, 0.25), edge(1, 0b10, 0.5)],
        ];
        let mut b = EdgeStorageBuilder::new(EdgeStoreKind::Compressed);
        for r in &rows {
            b.push_row(r);
        }
        let store = b.finish();
        assert_eq!(store.n_rows(), 3);
        assert_eq!(store.n_edges(), 5);
        // Two distinct probabilities interned.
        let EdgeStorage::Compressed(c) = &store else {
            panic!("compressed tier expected")
        };
        assert_eq!(c.prob_table_len(), 2);
        for (i, want) in rows.iter().enumerate() {
            let got: Vec<Edge> = store.row_iter(i).collect();
            assert_eq!(&got, want, "row {i}");
            assert_eq!(store.row_is_empty(i), want.is_empty());
        }
    }

    #[test]
    fn offsets_are_monotone_and_bytes_accounted() {
        let mut b = EdgeStorageBuilder::new(EdgeStoreKind::Compressed);
        for i in 0..50u32 {
            let row: Vec<Edge> = (0..i % 7)
                .map(|j| edge(i + j, 1 << (j % 8), 0.125))
                .collect();
            b.push_row(&row);
        }
        let store = b.finish();
        let EdgeStorage::Compressed(c) = &store else {
            panic!("compressed tier expected")
        };
        for w in c.offsets().windows(2) {
            assert!(w[0] <= w[1], "offsets monotone");
        }
        assert_eq!(
            *c.offsets().last().unwrap() as usize,
            store.edge_bytes() as usize - c.offsets().len() * 8 - c.prob_table_len() * 8
        );
    }

    #[test]
    fn storage_matches_between_tiers() {
        let rows: Vec<Vec<Edge>> = (0..20)
            .map(|i| {
                (0..(i % 5))
                    .map(|j| edge((i * 7 + j * 3) % 20, (1 << j) | 1, 1.0 / (j + 1) as f64))
                    .collect()
            })
            .collect();
        let mut flat = EdgeStorageBuilder::new(EdgeStoreKind::Flat);
        let mut comp = EdgeStorageBuilder::new(EdgeStoreKind::Compressed);
        // Tiny chunks and cache so even this 20-row system spans several
        // spill files, exercises cross-chunk row cursors, and evicts.
        let spill = SpillConfig {
            chunk_bytes: 16,
            cache_bytes: 32,
            ..SpillConfig::default()
        };
        let mut disk = EdgeStorageBuilder::with_spill(EdgeStoreKind::Disk, &spill);
        for r in &rows {
            flat.push_row(r);
            comp.push_row(r);
            disk.push_row(r);
        }
        let flat = flat.finish();
        let comp = comp.finish();
        let disk = disk.finish();
        assert_eq!(flat.kind(), EdgeStoreKind::Flat);
        assert_eq!(comp.kind(), EdgeStoreKind::Compressed);
        assert_eq!(disk.kind(), EdgeStoreKind::Disk);
        assert_eq!(flat.n_edges(), comp.n_edges());
        assert_eq!(flat.n_edges(), disk.n_edges());
        for i in 0..rows.len() {
            let a: Vec<Edge> = flat.row_iter(i).collect();
            let b: Vec<Edge> = comp.row_iter(i).collect();
            let c: Vec<Edge> = disk.row_iter(i).collect();
            assert_eq!(a, b, "row {i}");
            assert_eq!(a, c, "row {i}");
        }
        // The compressed tier beats 24 B/edge even on this tiny system.
        assert!(comp.edge_bytes() < flat.edge_bytes());
        // The disk tier keeps less than the full stream resident.
        assert!(disk.resident_bytes() < disk.edge_bytes());
    }

    #[test]
    fn push_chunk_equals_per_row_pushes() {
        let rows: Vec<Vec<Edge>> = vec![
            vec![edge(1, 1, 0.5)],
            vec![edge(0, 2, 0.25), edge(3, 1, 0.75)],
            vec![],
            vec![edge(2, 4, 1.0)],
        ];
        // lint: cast-ok(four-row test fixture)
        let counts: Vec<u32> = rows.iter().map(|r| r.len() as u32).collect();
        let flat_edges: Vec<Edge> = rows.iter().flatten().copied().collect();
        for kind in [
            EdgeStoreKind::Flat,
            EdgeStoreKind::Compressed,
            EdgeStoreKind::Disk,
        ] {
            let mut by_row = EdgeStorageBuilder::new(kind);
            for r in &rows {
                by_row.push_row(r);
            }
            let mut by_chunk = EdgeStorageBuilder::new(kind);
            by_chunk.push_chunk(&counts, &flat_edges);
            let (a, b) = (by_row.finish(), by_chunk.finish());
            for i in 0..rows.len() {
                let ra: Vec<Edge> = a.row_iter(i).collect();
                let rb: Vec<Edge> = b.row_iter(i).collect();
                assert_eq!(ra, rb);
            }
        }
    }

    #[test]
    fn invert_targets_agrees_between_tiers() {
        let rows: Vec<Vec<Edge>> = vec![
            vec![edge(1, 1, 1.0), edge(2, 2, 1.0)],
            vec![edge(2, 1, 1.0)],
            vec![edge(0, 1, 0.5), edge(2, 2, 0.5)],
        ];
        let mut flat = EdgeStorageBuilder::new(EdgeStoreKind::Flat);
        let mut comp = EdgeStorageBuilder::new(EdgeStoreKind::Compressed);
        let mut disk = EdgeStorageBuilder::new(EdgeStoreKind::Disk);
        for r in &rows {
            flat.push_row(r);
            comp.push_row(r);
            disk.push_row(r);
        }
        let (flat, comp, disk) = (flat.finish(), comp.finish(), disk.finish());
        let (ra, rb, rc) = (
            flat.invert_targets(),
            comp.invert_targets(),
            disk.invert_targets(),
        );
        assert_eq!(ra, rb);
        assert_eq!(ra, rc);
        assert_eq!(rb.row(2), &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "edge slices exist only on the flat store")]
    fn compressed_row_slice_panics() {
        let mut b = EdgeStorageBuilder::new(EdgeStoreKind::Compressed);
        b.push_row(&[edge(0, 1, 1.0)]);
        let store = b.finish();
        let _ = store.row_slice(0);
    }
}

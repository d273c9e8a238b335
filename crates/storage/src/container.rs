//! Self-describing containers: the on-disk unit of chunk storage.
//!
//! A container (Section 3.3 of the paper, following the Data Domain design) holds a
//! *data section* with the unique chunks written to it and a *metadata section*
//! listing each chunk's fingerprint, offset and length.  All disk accesses happen at
//! container granularity, which preserves the locality of a backup stream: chunks
//! that were written together are read (and their fingerprints prefetched) together.
//!
//! Once sealed, a container is split in two: its backend object (header, data
//! section, metadata section) is the only home of the chunk bytes, and a
//! [`ContainerSummary`] — the metadata plus the data section's length and
//! checksum — is all the container directory and the journal keep.
//!
//! The checksum is striped: SHA-1 over the SHA-1s of sixteen stripes of the
//! data section (see [`section_checksum`]), so the seal, every restart's
//! object check and compaction's victim check hash sixteen independent
//! streams at once instead of one serial stream.

use crate::journal::Reader;
use crate::{ChunkLocation, SharedBytes};
use sigma_hashkit::{Digest, Fingerprint, FingerprintAlgorithm, Sha1};

/// Magic prefix of a serialized container object ("SCNT").
const CONTAINER_BLOB_MAGIC: u32 = 0x5343_4E54;

/// Current container-object format version.  Version 3 striped the
/// data-section checksum; version 2 was SHA-1 of the whole section, in the
/// same layout.
const CONTAINER_BLOB_VERSION: u8 = 3;

/// Number of stripes [`section_checksum`] splits a data section into: one
/// per lane of the batch SHA-1 kernel.  Part of the on-disk format.
const CHECKSUM_STRIPES: usize = 16;
const _: () = assert!(CHECKSUM_STRIPES == FingerprintAlgorithm::BATCH_LANES);

/// SHA-1's block length: stripes start on block boundaries.
const SHA1_BLOCK: usize = 64;

/// The checksum of a container's data section: SHA-1 over the concatenated
/// SHA-1s of its sixteen stripes, in stripe order.
///
/// The stripe length `s` is `data.len().div_ceil(16)` rounded up to a whole
/// 64-byte block, and at least 64; stripe `i` is `[i·s, (i+1)·s)` clipped to
/// the section, so the last stripes may be short or empty.  The stripes are
/// independent, so one [`FingerprintAlgorithm::fingerprint_batch`] call
/// hashes them side by side (on AVX-512, one per vector lane; elsewhere one
/// after another at the per-chunk speed).  The value depends only on the
/// bytes.  This is the only definition of the checksum: the seal, recovery's
/// object check and compaction's victim check all call it.
pub(crate) fn section_checksum(data: &[u8]) -> Fingerprint {
    let stripe = data
        .len()
        .div_ceil(CHECKSUM_STRIPES)
        .next_multiple_of(SHA1_BLOCK)
        .max(SHA1_BLOCK);
    let stripes: [&[u8]; CHECKSUM_STRIPES] = std::array::from_fn(|i| {
        let start = (i * stripe).min(data.len());
        &data[start..(start + stripe).min(data.len())]
    });
    let mut digests = [0u8; CHECKSUM_STRIPES * Fingerprint::LEN];
    let batch = FingerprintAlgorithm::Sha1.fingerprint_batch(&stripes);
    for (out, fingerprint) in digests.chunks_exact_mut(Fingerprint::LEN).zip(&batch) {
        out.copy_from_slice(fingerprint.as_bytes());
    }
    Sha1::fingerprint(&digests)
}

/// The format version an object's header names when its magic is intact but
/// the version is not [`CONTAINER_BLOB_VERSION`]: an object another version
/// of this code wrote, which this one can neither verify nor safely discard.
pub(crate) fn foreign_version(object: &[u8]) -> Option<u8> {
    let mut r = Reader::new(object);
    if r.u32()? != CONTAINER_BLOB_MAGIC {
        return None;
    }
    r.u8().filter(|&version| version != CONTAINER_BLOB_VERSION)
}

/// Byte offset of the data section inside a serialized container object:
/// magic (4) + version (1) + id (8) + logical size (8) + data length (4) +
/// data-section checksum (20).
///
/// Every chunk read is served straight from the object at
/// `CONTAINER_BLOB_DATA_OFFSET + chunk offset`, so this constant is part of the
/// on-disk format, not an implementation detail.
pub const CONTAINER_BLOB_DATA_OFFSET: usize = 4 + 1 + 8 + 8 + 4 + Fingerprint::LEN;

/// Identifier of a container within one deduplication node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ContainerId(u64);

impl ContainerId {
    /// Wraps a raw container number.
    pub fn new(id: u64) -> Self {
        ContainerId(id)
    }

    /// The raw container number.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ContainerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "container-{}", self.0)
    }
}

/// Metadata record for one chunk inside a container's metadata section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Fingerprint of the chunk.
    pub fingerprint: Fingerprint,
    /// Byte offset of the chunk within the container's data section.
    pub offset: u32,
    /// Chunk length in bytes.
    pub len: u32,
}

/// The metadata section of a container.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContainerMeta {
    /// Chunk records in write order.
    pub records: Vec<ChunkRecord>,
}

impl ContainerMeta {
    /// Fingerprints of every chunk in the container, in write order.
    pub fn fingerprints(&self) -> impl Iterator<Item = Fingerprint> + '_ {
        self.records.iter().map(|r| r.fingerprint)
    }

    /// Number of chunks described.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no chunks are described.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Size in bytes of the serialized metadata section (fixed-width estimate:
    /// fingerprint + offset + length per record).
    pub fn serialized_size(&self) -> usize {
        self.records.len() * (Fingerprint::LEN + 8)
    }

    /// The record a chunk index placed at `offset`, if it names `fingerprint`
    /// and `len`: a binary search of the table, which is in offset order
    /// because a container is only ever appended to.
    pub(crate) fn record_at(
        &self,
        fingerprint: &Fingerprint,
        offset: u32,
        len: usize,
    ) -> Option<&ChunkRecord> {
        let first = self.records.partition_point(|r| r.offset < offset);
        // Zero-length records share their offset with the next record.
        self.records[first..]
            .iter()
            .take_while(|r| r.offset == offset)
            .find(|r| r.fingerprint == *fingerprint && r.len as usize == len)
    }
}

/// The bytes of the chunk a chunk index placed at `offset`, `len` bytes
/// long, in a container whose record table is `meta` and data section
/// `data`.  `None` unless the record at `offset` names `fingerprint` and
/// `len` (see [`ContainerMeta::record_at`]) and lies inside `data`.
pub(crate) fn extent<'a>(
    meta: &ContainerMeta,
    data: &'a [u8],
    fingerprint: &Fingerprint,
    offset: u32,
    len: usize,
) -> Option<&'a [u8]> {
    let record = meta.record_at(fingerprint, offset, len)?;
    data.get(record.offset as usize..record.offset as usize + len)
}

/// A sealed container without its data section: what the container directory
/// and the journal know about it.  The data section itself lives once, in the
/// container's backend object, whose length and checksum this summary pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerSummary {
    /// The container's identifier.
    pub id: ContainerId,
    /// The metadata section.
    pub meta: ContainerMeta,
    /// Length of the data section in bytes.
    pub data_len: u32,
    /// Data-section size as the object's head records it.  This version
    /// writes `data_len` here; an object an older build wrote for a
    /// trace-driven node may name more, for records that have no bytes in
    /// the section.  The store counts a sealed container's bytes by it.
    pub logical_size: u64,
    /// Striped SHA-1 of the data section: SHA-1 over the SHA-1s of its
    /// sixteen block-aligned stripes (format version 3).  Recovery discards a
    /// container whose object no longer hashes to it.
    pub checksum: Fingerprint,
}

impl ContainerSummary {
    /// Size of the data section in bytes, as its head records it.
    pub fn data_size(&self) -> usize {
        self.logical_size as usize
    }

    /// Number of chunks stored.
    pub fn chunk_count(&self) -> usize {
        self.meta.len()
    }

    /// The chunk-index entry of each record, in table order: what replay
    /// indexes from a seal, adopt, GC-compact or snapshot record.
    pub fn chunk_locations(&self) -> impl Iterator<Item = (Fingerprint, ChunkLocation)> + '_ {
        self.meta.records.iter().map(|record| {
            (
                record.fingerprint,
                ChunkLocation {
                    container: self.id,
                    offset: record.offset,
                    len: record.len,
                },
            )
        })
    }

    /// Decodes a container object written by [`Container::to_object`]
    /// back into its summary: splits it into its three parts at the data
    /// length its head names and checks them with
    /// [`from_parts`](Self::from_parts).
    ///
    /// Returns `None` on any framing violation — bad magic or version,
    /// truncated sections, trailing garbage — and when the data section does
    /// not hash to the striped checksum in the header.
    pub fn from_object(bytes: &[u8]) -> Option<ContainerSummary> {
        let (head, rest) = bytes.split_at_checked(CONTAINER_BLOB_DATA_OFFSET)?;
        let data_len = Self::decode_object_head(head)?.data_len as usize;
        let (data, records) = rest.split_at_checked(data_len)?;
        Self::from_parts(head, data, records)
    }

    /// Decodes a container object read as its three parts — the head (the
    /// first [`CONTAINER_BLOB_DATA_OFFSET`] bytes), the data section and the
    /// record table after it — back into its summary.  Every check of an
    /// object runs here.
    ///
    /// Returns `None` when the head is not a current-version head, the data
    /// section is not the length the head names or does not hash to its
    /// checksum, or the record table is truncated or followed by anything.
    pub fn from_parts(head: &[u8], data: &[u8], records: &[u8]) -> Option<ContainerSummary> {
        let mut summary = Self::decode_object_head(head)?;
        if data.len() != summary.data_len as usize || section_checksum(data) != summary.checksum {
            return None;
        }
        let mut r = Reader::new(records);
        summary.meta.records = Self::decode_records(&mut r)?;
        r.is_empty().then_some(summary)
    }

    /// The first [`CONTAINER_BLOB_DATA_OFFSET`] bytes of the summary's
    /// object: magic, version and the summary's head.
    pub(crate) fn object_head(&self) -> Vec<u8> {
        let mut head = Vec::with_capacity(CONTAINER_BLOB_DATA_OFFSET);
        head.extend_from_slice(&CONTAINER_BLOB_MAGIC.to_le_bytes());
        head.push(CONTAINER_BLOB_VERSION);
        self.encode_head(&mut head);
        debug_assert_eq!(head.len(), CONTAINER_BLOB_DATA_OFFSET);
        head
    }

    /// Decodes what [`object_head`](Self::object_head) wrote, with an empty
    /// record table; `None` unless `head` is exactly a current-version head.
    fn decode_object_head(head: &[u8]) -> Option<ContainerSummary> {
        let mut r = Reader::new(head);
        if r.u32()? != CONTAINER_BLOB_MAGIC || r.u8()? != CONTAINER_BLOB_VERSION {
            return None;
        }
        let summary = Self::decode_head(&mut r)?;
        r.is_empty().then_some(summary)
    }

    /// The summary's encoding, shared by the journal records and the object
    /// header: `id u64 | logical_size u64 | data_len u32 | checksum [20]`, then
    /// the record table.  The object puts the data section between the two.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.encode_head(out);
        self.encode_records(out);
    }

    /// Decodes what [`encode`](Self::encode) wrote.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Option<ContainerSummary> {
        let mut summary = Self::decode_head(r)?;
        summary.meta.records = Self::decode_records(r)?;
        Some(summary)
    }

    fn encode_head(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.as_u64().to_le_bytes());
        out.extend_from_slice(&self.logical_size.to_le_bytes());
        out.extend_from_slice(&self.data_len.to_le_bytes());
        out.extend_from_slice(self.checksum.as_bytes());
    }

    /// `record_count u32 | (fingerprint, offset u32, len u32) x record_count`.
    fn encode_records(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.meta.records.len() as u32).to_le_bytes());
        for record in &self.meta.records {
            out.extend_from_slice(record.fingerprint.as_bytes());
            out.extend_from_slice(&record.offset.to_le_bytes());
            out.extend_from_slice(&record.len.to_le_bytes());
        }
    }

    /// The head of a summary, with an empty record table.
    fn decode_head(r: &mut Reader<'_>) -> Option<ContainerSummary> {
        Some(ContainerSummary {
            id: ContainerId::new(r.u64()?),
            logical_size: r.u64()?,
            data_len: r.u32()?,
            checksum: r.fingerprint()?,
            meta: ContainerMeta::default(),
        })
    }

    fn decode_records(r: &mut Reader<'_>) -> Option<Vec<ChunkRecord>> {
        let record_count = r.u32()? as usize;
        let mut records = Vec::with_capacity(record_count.min(65_536));
        for _ in 0..record_count {
            records.push(ChunkRecord {
                fingerprint: r.fingerprint()?,
                offset: r.u32()?,
                len: r.u32()?,
            });
        }
        Some(records)
    }
}

/// A sealed, immutable container.
///
/// Every record's bytes are in the data section, so the container's size is
/// the section's length.  Only a container rebuilt from a corrupt summary, or
/// from an object an older build wrote for a trace-driven node, can hold a
/// record that points past it, and [`chunk_at`](Self::chunk_at) refuses
/// that record.
///
/// The data section is a [`SharedBytes`] view, so a container rebuilt from a
/// cached or in-RAM object for migration shares those bytes rather than
/// copying them.
#[derive(Debug, Clone)]
pub struct Container {
    id: ContainerId,
    meta: ContainerMeta,
    data: SharedBytes,
    /// Striped SHA-1 of `data` as journaled, for a container read back from
    /// its object: re-homing it (a migration) keeps that checksum instead of
    /// hashing the bytes again, so rot on the source stays detectable.
    checksum: Option<Fingerprint>,
}

impl Container {
    /// Rebuilds a sealed container from its summary and the data section read
    /// back from its object.
    pub(crate) fn from_summary(summary: ContainerSummary, data: SharedBytes) -> Self {
        Container {
            id: summary.id,
            meta: summary.meta,
            data,
            checksum: Some(summary.checksum),
        }
    }

    /// The container's identifier.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// Returns the same container under a different identifier.
    ///
    /// Container IDs are allocated per node, so a container migrated to another
    /// node by the rebalancer must be re-identified in its new store's ID space;
    /// chunk offsets and lengths are unaffected.
    pub fn with_id(mut self, id: ContainerId) -> Container {
        self.id = id;
        self
    }

    /// The metadata section.
    pub fn meta(&self) -> &ContainerMeta {
        &self.meta
    }

    /// Size of the data section in bytes.
    pub fn data_size(&self) -> usize {
        self.data.len()
    }

    /// Number of chunks stored.
    pub fn chunk_count(&self) -> usize {
        self.meta.len()
    }

    /// The data section.
    pub(crate) fn data(&self) -> &[u8] {
        &self.data
    }

    /// The payload of the chunk a chunk index placed at `offset`, `len`
    /// bytes long.
    ///
    /// Returns `None` unless the record at `offset` names `fingerprint` and
    /// `len`, and when that record points past the data section (a corrupt
    /// record, or a payload-less one from an object an older build wrote).
    pub fn chunk_at(&self, fingerprint: &Fingerprint, offset: u32, len: usize) -> Option<&[u8]> {
        extent(&self.meta, &self.data, fingerprint, offset, len)
    }

    /// What the container directory keeps of the sealed container, and the
    /// bytes of its backend object, the only home of the data section:
    ///
    /// ```text
    /// magic u32 | version u8 | id u64 | logical_size u64 | data_len u32 | checksum [20]
    /// data section (data_len bytes)            <- starts at CONTAINER_BLOB_DATA_OFFSET
    /// record_count u32 | (fingerprint, offset u32, len u32) x record_count
    /// ```
    ///
    /// The concatenation of the three parts the container store writes, so
    /// the layout has one definition.
    pub fn to_object(&self) -> (ContainerSummary, Vec<u8>) {
        self.with_object_parts(|parts| parts.concat())
    }

    /// Runs `write` on the three parts of the container's backend object, in
    /// order — head, data section, record table (the layout
    /// [`to_object`](Self::to_object) shows) — and returns the summary with
    /// its result.
    ///
    /// Between the magic/version prefix and the data section sits the
    /// summary's head, and after the data its record table — the same
    /// encoding the journal records use.  The data section is the
    /// container's own buffer, not a copy, so the store writes it out as it
    /// was appended.  The checksum is the striped SHA-1 of the data section,
    /// computed here (on the sealer thread, for a rollover) unless the
    /// container was read back with a known one.
    pub(crate) fn with_object_parts<T>(
        &self,
        write: impl FnOnce(&[&[u8]]) -> T,
    ) -> (ContainerSummary, T) {
        let summary = ContainerSummary {
            id: self.id,
            meta: self.meta.clone(),
            data_len: self.data.len() as u32,
            logical_size: self.data.len() as u64,
            checksum: self
                .checksum
                .unwrap_or_else(|| section_checksum(&self.data)),
        };
        let head = summary.object_head();
        let mut records = Vec::with_capacity(4 + self.meta.serialized_size());
        summary.encode_records(&mut records);
        let written = write(&[&head[..], &self.data[..], &records[..]]);
        (summary, written)
    }
}

/// An open (mutable) container being filled by one backup stream.
///
/// # Example
///
/// ```
/// use sigma_storage::{ContainerBuilder, ContainerId};
/// use sigma_hashkit::{Digest, Sha1};
///
/// let mut builder = ContainerBuilder::new(ContainerId::new(1), 1024 * 1024);
/// let payload = b"some unique chunk".to_vec();
/// let fp = Sha1::fingerprint(&payload);
/// let offset = builder.used() as u32;
/// assert!(builder.try_append(fp, &payload));
/// let container = builder.seal();
/// assert_eq!(container.chunk_count(), 1);
/// assert_eq!(
///     container.chunk_at(&fp, offset, payload.len()),
///     Some(payload.as_slice())
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ContainerBuilder {
    id: ContainerId,
    capacity: usize,
    meta: ContainerMeta,
    data: Vec<u8>,
}

impl ContainerBuilder {
    /// Creates an open container with the given identifier and data-section capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(id: ContainerId, capacity: usize) -> Self {
        assert!(capacity > 0, "container capacity must be non-zero");
        ContainerBuilder {
            id,
            capacity,
            meta: ContainerMeta::default(),
            data: Vec::new(),
        }
    }

    /// The container's identifier.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// Bytes currently used in the data section.
    pub fn used(&self) -> usize {
        self.data.len()
    }

    /// Bytes still available in the data section.
    pub fn remaining(&self) -> usize {
        self.capacity - self.data.len()
    }

    /// Number of chunks appended so far.
    pub fn chunk_count(&self) -> usize {
        self.meta.len()
    }

    /// The records appended so far, in offset order.
    pub(crate) fn meta(&self) -> &ContainerMeta {
        &self.meta
    }

    /// The bytes appended so far.
    pub(crate) fn data(&self) -> &[u8] {
        &self.data
    }

    /// True if a chunk of `len` bytes fits in the remaining capacity.
    pub fn fits(&self, len: usize) -> bool {
        len <= self.remaining()
    }

    /// Appends a chunk if it fits; returns `false` (without modifying the container)
    /// when the chunk does not fit.
    pub fn try_append(&mut self, fingerprint: Fingerprint, data: &[u8]) -> bool {
        if !self.fits(data.len()) {
            return false;
        }
        if self.data.capacity() == 0 {
            // The whole section at once: appends never regrow (and re-copy)
            // it, and an empty container never allocates one.
            self.data.reserve_exact(self.capacity);
        }
        self.meta.records.push(ChunkRecord {
            fingerprint,
            offset: self.data.len() as u32,
            len: data.len() as u32,
        });
        self.data.extend_from_slice(data);
        true
    }

    /// Seals the container, making it immutable.
    pub fn seal(self) -> Container {
        Container {
            id: self.id,
            meta: self.meta,
            data: self.data.into(),
            checksum: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sigma_hashkit::reference::ReferenceSha1;
    use sigma_hashkit::{Digest, Sha1};

    #[test]
    fn container_id_display() {
        assert_eq!(ContainerId::new(7).to_string(), "container-7");
        assert_eq!(ContainerId::new(7).as_u64(), 7);
    }

    #[test]
    fn append_and_lookup() {
        let mut b = ContainerBuilder::new(ContainerId::new(1), 4096);
        let chunks: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 100]).collect();
        let fps: Vec<Fingerprint> = chunks.iter().map(|c| Sha1::fingerprint(c)).collect();
        for (fp, c) in fps.iter().zip(&chunks) {
            assert!(b.try_append(*fp, c));
        }
        assert_eq!(b.used(), 1000);
        assert_eq!(b.chunk_count(), 10);
        let sealed = b.seal();
        for (i, (fp, c)) in fps.iter().zip(&chunks).enumerate() {
            let offset = 100 * i as u32;
            assert_eq!(sealed.chunk_at(fp, offset, 100).unwrap(), c.as_slice());
            assert!(sealed.chunk_at(fp, offset, 99).is_none(), "wrong length");
            assert!(sealed.chunk_at(fp, offset + 1, 100).is_none(), "no record");
        }
        assert!(
            sealed.chunk_at(&fps[1], 0, 100).is_none(),
            "another chunk's record"
        );
        assert!(sealed.chunk_at(&Fingerprint::ZERO, 0, 100).is_none());
    }

    #[test]
    fn zero_length_records_share_an_offset_and_both_are_found() {
        let mut b = ContainerBuilder::new(ContainerId::new(1), 4096);
        let (empty, next) = (Sha1::fingerprint(b""), Sha1::fingerprint(b"next"));
        assert!(b.try_append(Sha1::fingerprint(b"head"), b"head"));
        assert!(b.try_append(empty, b""));
        assert!(b.try_append(next, b"next"));
        let sealed = b.seal();
        assert_eq!(sealed.chunk_at(&empty, 4, 0), Some(&b""[..]));
        assert_eq!(sealed.chunk_at(&next, 4, 4), Some(&b"next"[..]));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut b = ContainerBuilder::new(ContainerId::new(2), 150);
        assert!(b.try_append(Sha1::fingerprint(b"a"), &[1u8; 100]));
        assert!(!b.try_append(Sha1::fingerprint(b"b"), &[2u8; 100]));
        assert_eq!(b.chunk_count(), 1, "failed append must not modify state");
        assert_eq!(b.remaining(), 50);
        assert!(b.fits(50));
        assert!(!b.fits(51));
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        ContainerBuilder::new(ContainerId::new(0), 0);
    }

    #[test]
    fn container_builder_reserves_its_section_once() {
        let capacity = 64 * 1024;
        let mut b = ContainerBuilder::new(ContainerId::new(12), capacity);
        assert_eq!(b.data.capacity(), 0, "nothing allocated up front");
        let chunk = section(1000);
        assert!(b.try_append(Sha1::fingerprint(b"first"), &chunk));
        assert_eq!(
            b.data.capacity(),
            capacity,
            "the first payload reserves it all"
        );
        let section_ptr = b.data.as_ptr();
        let mut i = 0u64;
        while b.fits(chunk.len()) {
            assert!(b.try_append(Sha1::fingerprint(&i.to_le_bytes()), &chunk));
            i += 1;
        }
        let rest = section(b.remaining());
        assert!(b.try_append(Sha1::fingerprint(b"last"), &rest));
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.data.len(), capacity);
        assert_eq!(b.data.capacity(), capacity, "never regrown");
        assert_eq!(b.data.as_ptr(), section_ptr, "never moved");
        let sealed = b.seal();
        assert_eq!(sealed.data.as_ptr(), section_ptr, "sealing copies nothing");
        let (_, data_part) = sealed.with_object_parts(|parts| parts[1].as_ptr());
        assert_eq!(
            data_part, section_ptr,
            "the object's data part is the section"
        );
    }

    #[test]
    fn meta_serialized_size_scales_with_records() {
        let mut b = ContainerBuilder::new(ContainerId::new(3), 4096);
        assert_eq!(b.clone().seal().meta().serialized_size(), 0);
        b.try_append(Sha1::fingerprint(b"x"), b"x");
        b.try_append(Sha1::fingerprint(b"y"), b"y");
        assert_eq!(
            b.seal().meta().serialized_size(),
            2 * (Fingerprint::LEN + 8)
        );
    }

    #[test]
    fn object_roundtrip() {
        let mut b = ContainerBuilder::new(ContainerId::new(11), 4096);
        assert!(b.try_append(Sha1::fingerprint(b"real"), b"real payload"));
        assert!(b.try_append(Sha1::fingerprint(b"more"), b"more bytes"));
        let sealed = b.seal();
        let data = b"real payloadmore bytes";
        let (summary, object) = sealed.to_object();
        assert_eq!(
            &object[CONTAINER_BLOB_DATA_OFFSET..CONTAINER_BLOB_DATA_OFFSET + data.len()],
            data,
            "data section sits at the documented offset"
        );
        assert_eq!(summary.id, sealed.id());
        assert_eq!(&summary.meta, sealed.meta());
        assert_eq!(summary.data_len as usize, data.len());
        assert_eq!(
            summary.logical_size,
            data.len() as u64,
            "the size is the data's"
        );
        assert_eq!(summary.data_size(), sealed.data_size());
        assert_eq!(summary.checksum, reference_checksum(data));
        assert_eq!(
            ContainerSummary::from_object(&object),
            Some(summary.clone())
        );
        let (head, rest) = object.split_at(CONTAINER_BLOB_DATA_OFFSET);
        let (section, records) = rest.split_at(data.len());
        assert_eq!(
            ContainerSummary::from_parts(head, section, records),
            Some(summary.clone())
        );
        assert_eq!(head, summary.object_head(), "the head is the summary's");
        for (head, section, records) in [
            (&head[..head.len() - 1], section, records),
            (head, &section[..section.len() - 1], records),
            (head, section, &records[..records.len() - 1]),
            (head, section, &[records, &[0]].concat()[..]),
        ] {
            assert_eq!(ContainerSummary::from_parts(head, section, records), None);
        }
        let rebuilt = Container::from_summary(summary.clone(), data.to_vec().into());
        assert_eq!(
            rebuilt.chunk_at(&Sha1::fingerprint(b"real"), 0, 12),
            Some(&b"real payload"[..])
        );
        assert_eq!(
            rebuilt.to_object(),
            (summary, object),
            "the known checksum is kept"
        );
    }

    #[test]
    fn an_older_trace_driven_object_still_decodes() {
        // A format-3 object as an older build wrote it for a trace-driven
        // node: one chunk with bytes, then a payload-less record past the
        // data section, counted in the head's size but not in its length.
        let data = b"real payload";
        let (real, ghost) = (Sha1::fingerprint(b"real"), Sha1::fingerprint(b"ghost"));
        let mut object = Vec::new();
        object.extend_from_slice(&0x5343_4E54u32.to_le_bytes());
        object.push(3);
        object.extend_from_slice(&11u64.to_le_bytes());
        object.extend_from_slice(&(data.len() as u64 + 64).to_le_bytes());
        object.extend_from_slice(&(data.len() as u32).to_le_bytes());
        object.extend_from_slice(reference_checksum(data).as_bytes());
        object.extend_from_slice(data);
        object.extend_from_slice(&2u32.to_le_bytes());
        for (fp, offset, len) in [(real, 0, data.len() as u32), (ghost, data.len() as u32, 64)] {
            object.extend_from_slice(fp.as_bytes());
            object.extend_from_slice(&offset.to_le_bytes());
            object.extend_from_slice(&len.to_le_bytes());
        }
        let summary = ContainerSummary::from_object(&object).expect("still decodes");
        assert_eq!(summary.id, ContainerId::new(11));
        assert_eq!((summary.data_len, summary.logical_size), (12, 12 + 64));
        assert_eq!(summary.chunk_count(), 2);
        let (head, rest) = object.split_at(CONTAINER_BLOB_DATA_OFFSET);
        let (section, records) = rest.split_at(data.len());
        assert_eq!(
            ContainerSummary::from_parts(head, section, records),
            Some(summary.clone())
        );
        let container = Container::from_summary(summary, data.to_vec().into());
        assert_eq!(container.chunk_at(&real, 0, data.len()), Some(&data[..]));
        assert!(container.meta().record_at(&ghost, 12, 64).is_some());
        assert_eq!(container.chunk_at(&ghost, 12, 64), None, "no bytes to give");
        assert_eq!(container.data_size(), data.len());
    }

    #[test]
    fn object_decode_rejects_corruption() {
        let sealed = {
            let mut b = ContainerBuilder::new(ContainerId::new(5), 128);
            b.try_append(Sha1::fingerprint(b"x"), b"xyz");
            b.seal()
        };
        let (_, object) = sealed.to_object();
        let decode = ContainerSummary::from_object;
        assert!(decode(&object[..object.len() - 1]).is_none(), "truncated");
        let mut trailing = object.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_none(), "trailing garbage");
        let mut bad_magic = object.clone();
        bad_magic[0] ^= 0xFF;
        assert!(decode(&bad_magic).is_none(), "bad magic");
        let mut bad_version = object.clone();
        bad_version[4] = 1;
        assert!(decode(&bad_version).is_none(), "old version");
        assert_eq!(foreign_version(&bad_version), Some(1));
        assert_eq!(foreign_version(&object), None, "the current version");
        assert_eq!(foreign_version(&bad_magic), None, "not an object at all");
        assert_eq!(foreign_version(&object[..4]), None, "no version byte");
        let mut rotten = object.clone();
        rotten[CONTAINER_BLOB_DATA_OFFSET + 1] ^= 0x01;
        assert!(decode(&rotten).is_none(), "data section fails its checksum");
        let mut overlong = object;
        overlong[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            decode(&overlong).is_none(),
            "data length past the object's end"
        );
    }

    /// The striped checksum written out plainly on the portable reference
    /// SHA-1: each stripe's digest, then the digest of their concatenation.
    fn reference_checksum(data: &[u8]) -> Fingerprint {
        let stripe = (data.len().div_ceil(16).div_ceil(64) * 64).max(64);
        let mut digests = Vec::new();
        for i in 0..16 {
            let start = (i * stripe).min(data.len());
            let end = (start + stripe).min(data.len());
            digests
                .extend_from_slice(ReferenceSha1::fingerprint_bytes(&data[start..end]).as_bytes());
        }
        ReferenceSha1::fingerprint_bytes(&digests)
    }

    /// Deterministic section bytes: `i mod 251`.
    fn section(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn section_checksum_known_answers() {
        // Computed independently of this crate (SHA-1 of the sixteen stripe
        // SHA-1s, stripe length ceil(len / 16) rounded up to 64, at least 64).
        let vectors = [
            (0, "f98e6246f97a6ba53ed519d91e46bfd94cfdb9f5"),
            (1, "adb3d13e7d6af6a20508843ce1c022f3ede3c906"),
            (63, "27afb0a1ef42d9ada6ba0ff4a2260e002796d88e"),
            (64, "e25dd92ee009dc8325376e39a649ba5ddab4087e"),
            (65, "6e4ef85220ebfaa19b3b71603ac34799809f718c"),
            (1023, "5a45b2a56842bb85639c9f924c40f516cd551b90"),
            (1024, "4a9afd2872dad58746f22d8a220b87be0554cac1"),
            (1025, "a379b153d9a1942c7a0076de5972e8dae59b9b9a"),
            ((4 << 20) - 1000, "127c1293c2e1e124d5eac4cda26bb0ca9db407e6"),
            (4 << 20, "121dd85b627391b945644d0cd4e0ddf18b3da3ce"),
        ];
        let data = section(4 << 20);
        for (len, hex) in vectors {
            assert_eq!(
                section_checksum(&data[..len]).to_string(),
                hex,
                "length {len}"
            );
        }
    }

    #[test]
    fn every_stripe_is_covered_by_the_checksum() {
        // 16 KiB - 10: stripes of 1 KiB, the last one 1014 bytes.
        let data = section(16 * 1024 - 10);
        let mut b = ContainerBuilder::new(ContainerId::new(4), data.len());
        assert!(b.try_append(Sha1::fingerprint(&data), &data));
        let (summary, object) = b.seal().to_object();
        assert_eq!(ContainerSummary::from_object(&object), Some(summary));
        let stripe = 1024;
        for i in 0..16 {
            let end = ((i + 1) * stripe).min(data.len());
            for at in [i * stripe, end - 1] {
                let mut flipped = object.clone();
                flipped[CONTAINER_BLOB_DATA_OFFSET + at] ^= 0x80;
                assert_eq!(
                    ContainerSummary::from_object(&flipped),
                    None,
                    "stripe {i}: a flip at byte {at} goes unnoticed"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn section_checksum_matches_the_reference(
            seed in any::<u64>(),
            start in 0usize..64,
            len in 0usize..300 * 1024 + 1,
        ) {
            // One buffer; the section is an unaligned sub-slice of it.
            let mut state = seed | 1;
            let buffer: Vec<u8> = (0..start + len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            let data = &buffer[start..];
            prop_assert_eq!(section_checksum(data), reference_checksum(data));
        }

        #[test]
        fn prop_sealed_container_roundtrips_all_chunks(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..32)
        ) {
            let total: usize = payloads.iter().map(|p| p.len()).sum();
            let mut b = ContainerBuilder::new(ContainerId::new(9), total);
            let mut appended = Vec::new();
            for p in &payloads {
                let fp = Sha1::fingerprint(p);
                let offset = b.used() as u32;
                prop_assert!(b.try_append(fp, p));
                appended.push((fp, offset, p.clone()));
            }
            let sealed = b.seal();
            prop_assert_eq!(sealed.data_size(), total);
            for (fp, offset, p) in appended {
                // Duplicate payloads share a fingerprint; each is found at
                // its own offset.
                prop_assert_eq!(sealed.chunk_at(&fp, offset, p.len()).unwrap(), p.as_slice());
            }
        }
    }
}

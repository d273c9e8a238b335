//! The backup client: data partitioning, chunk fingerprinting and routing.
//!
//! The client side of Σ-Dedupe (Figure 2) chunks each file or stream, fingerprints
//! every chunk, groups consecutive chunks into super-chunks and hands each
//! super-chunk to the cluster, which routes it to a deduplication node.  Because the
//! duplicate-or-unique decision is made *before* data transfer (source
//! deduplication), the number of bytes a client actually ships equals the unique
//! bytes reported back — the quantity surfaced as
//! [`FileBackupReport::transferred_bytes`].
//!
//! [`BackupClient`] is the only ingest front end: [`BackupClient::backup_bytes`]
//! backs up one stream and [`BackupClient::backup_streams`] several at once.
//! Both run one core on a worker pool
//! [`SigmaConfig::parallelism`](crate::SigmaConfig::parallelism) wide, which by
//! default is the caller's thread alone.

use crate::pipeline::{ingest, Stream};
use crate::{DedupCluster, FileId, Result};
use sigma_storage::StorageError;
use std::io::Read;
use std::sync::Arc;

/// Summary of one file (or stream) backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileBackupReport {
    /// The file ID assigned by the director (use it to restore).
    pub file_id: FileId,
    /// Logical size of the file in bytes.
    pub logical_bytes: u64,
    /// Bytes that actually had to be transferred (unique chunks).
    pub transferred_bytes: u64,
    /// Number of chunks the file was partitioned into.
    pub chunks: u64,
    /// Number of super-chunks routed.
    pub super_chunks: u64,
    /// Chunks found to be duplicates somewhere in the cluster.
    pub duplicate_chunks: u64,
}

impl FileBackupReport {
    /// Fraction of the file that did not need to be transferred (0 when empty).
    pub fn bandwidth_saving(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            1.0 - self.transferred_bytes as f64 / self.logical_bytes as f64
        }
    }
}

/// One stream of a [`BackupClient::backup_streams`] call: an identifier, a
/// file name for the director, and the stream's bytes.
#[derive(Debug, Clone)]
pub struct StreamPayload {
    /// The data-stream identifier (distinct streams get distinct open containers).
    pub stream_id: u64,
    /// The name the file is registered under for restore.
    pub name: String,
    /// The stream's contents.
    pub data: Vec<u8>,
}

impl StreamPayload {
    /// Creates a stream payload.
    pub fn new(stream_id: u64, name: impl Into<String>, data: Vec<u8>) -> Self {
        StreamPayload {
            stream_id,
            name: name.into(),
            data,
        }
    }
}

/// A source-deduplicating backup client bound to one cluster.
///
/// # Example
///
/// ```
/// use sigma_core::{BackupClient, DedupCluster, SigmaConfig};
/// use std::sync::Arc;
///
/// let cluster = Arc::new(DedupCluster::with_similarity_router(2, SigmaConfig::default()));
/// let client = BackupClient::new(cluster.clone(), 7);
/// let report = client.backup_bytes("notes.txt", b"small file").unwrap();
/// assert_eq!(report.logical_bytes, 10);
/// assert_eq!(cluster.restore_file(report.file_id).unwrap(), b"small file");
/// ```
pub struct BackupClient {
    cluster: Arc<DedupCluster>,
    stream_id: u64,
    session_id: u64,
}

impl std::fmt::Debug for BackupClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackupClient")
            .field("stream_id", &self.stream_id)
            .field("session_id", &self.session_id)
            .finish()
    }
}

impl BackupClient {
    /// Creates a client using `stream_id` as its data-stream identifier and opens a
    /// backup session for it (in generation 0).
    pub fn new(cluster: Arc<DedupCluster>, stream_id: u64) -> Self {
        BackupClient::with_generation(cluster, stream_id, 0)
    }

    /// Creates a client whose backup session is tagged with a backup generation.
    ///
    /// Generations are the retention unit: a nightly backup wave creates its
    /// clients in the next generation, and
    /// [`DedupCluster::delete_generation`](crate::DedupCluster::delete_generation)
    /// expires a whole wave at once — the chunks only that generation referenced
    /// are reclaimed by the next
    /// [`DedupCluster::collect_garbage`](crate::DedupCluster::collect_garbage).
    pub fn with_generation(cluster: Arc<DedupCluster>, stream_id: u64, generation: u64) -> Self {
        let session_id = cluster
            .director()
            .open_session_in_generation(&format!("client-{}", stream_id), generation);
        BackupClient {
            cluster,
            stream_id,
            session_id,
        }
    }

    /// Creates a client whose backup session is additionally tagged with the
    /// tenant that owns the stream.
    ///
    /// The tag drives per-tenant logical accounting
    /// ([`Director::logical_bytes_by_tenant`](crate::Director::logical_bytes_by_tenant)):
    /// each tenant's recipe bytes are attributed to it even though the chunks
    /// behind them deduplicate — and are physically shared — across tenants.
    pub fn with_tenant(
        cluster: Arc<DedupCluster>,
        stream_id: u64,
        generation: u64,
        tenant: &str,
    ) -> Self {
        let session_id = cluster.director().open_tenant_session(
            &format!("client-{}", stream_id),
            generation,
            tenant,
        );
        BackupClient {
            cluster,
            stream_id,
            session_id,
        }
    }

    /// The client's data-stream identifier.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// The backup session this client registers files under.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Backs up an in-memory byte buffer as one file on the client's stream.
    ///
    /// The buffer is split by the configured chunker; chunks are
    /// fingerprinted, grouped into super-chunks and routed, on a worker pool
    /// [`SigmaConfig::parallelism`](crate::SigmaConfig::parallelism) wide.
    /// The buffer is only borrowed: super-chunks reach the nodes as views of
    /// it, and a unique chunk's bytes are copied once, by the container
    /// append on the node that stores it.  A duplicate chunk is never
    /// copied.
    ///
    /// # Errors
    ///
    /// Propagates routing/storage errors from the cluster; no file is
    /// registered then.
    pub fn backup_bytes(&self, name: &str, data: &[u8]) -> Result<FileBackupReport> {
        let stream = Stream {
            id: self.stream_id,
            name,
            data,
        };
        let mut reports = ingest(&self.cluster, self.session_id, &[stream])?;
        Ok(reports.pop().expect("one stream in, one report out"))
    }

    /// Backs up several streams at once in this client's session, one file
    /// per stream, each on its own [`StreamPayload::stream_id`].  Reports come
    /// back in input order.
    ///
    /// Chunking, fingerprinting and submission fan out across a worker pool
    /// [`SigmaConfig::parallelism`](crate::SigmaConfig::parallelism) wide.
    /// Each stream keeps its order end to end, so every file restores
    /// byte-identically.
    ///
    /// # Errors
    ///
    /// Returns the first routing/storage error in input order.  The other
    /// streams still run to completion (their unique chunks are stored), but
    /// no file is registered for any stream.
    ///
    /// # Example
    ///
    /// ```
    /// use sigma_core::{BackupClient, DedupCluster, SigmaConfig, StreamPayload};
    /// use std::sync::Arc;
    ///
    /// let config = SigmaConfig::builder().parallelism(4).build().unwrap();
    /// let cluster = Arc::new(DedupCluster::with_similarity_router(2, config));
    /// let client = BackupClient::new(cluster.clone(), 0);
    /// let streams: Vec<StreamPayload> = (0..4u64)
    ///     .map(|s| StreamPayload::new(s, format!("stream-{s}.bin"), vec![s as u8; 64 * 1024]))
    ///     .collect();
    /// let reports = client.backup_streams(&streams).unwrap();
    /// for (report, stream) in reports.iter().zip(&streams) {
    ///     assert_eq!(cluster.restore_file(report.file_id).unwrap(), stream.data);
    /// }
    /// ```
    pub fn backup_streams(&self, streams: &[StreamPayload]) -> Result<Vec<FileBackupReport>> {
        let streams: Vec<Stream<'_>> = streams
            .iter()
            .map(|s| Stream {
                id: s.stream_id,
                name: &s.name,
                data: &s.data,
            })
            .collect();
        ingest(&self.cluster, self.session_id, &streams)
    }

    /// Backs up anything readable as one file.
    ///
    /// The reader is read to its end, then backed up as by
    /// [`backup_bytes`](Self::backup_bytes).  (The paper's prototype similarly
    /// stages data in a RAM file system before deduplication.)
    ///
    /// # Errors
    ///
    /// A failed read is [`SigmaError::Storage`](crate::SigmaError::Storage)
    /// with [`StorageError::Io`] and registers no file; routing/storage errors
    /// from the cluster propagate as from `backup_bytes`.
    pub fn backup_reader<R: Read>(&self, name: &str, mut reader: R) -> Result<FileBackupReport> {
        let mut data = Vec::new();
        reader.read_to_end(&mut data).map_err(|e| {
            crate::SigmaError::Storage(StorageError::Io(format!(
                "reading backup stream `{name}`: {e}"
            )))
        })?;
        self.backup_bytes(name, &data)
    }

    /// Restores a previously backed-up file through the cluster.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::SigmaError::FileNotFound`] and chunk read errors.
    pub fn restore(&self, file_id: FileId) -> Result<Vec<u8>> {
        self.cluster.restore_file(file_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SigmaConfig, SigmaError};

    fn small_cluster() -> Arc<DedupCluster> {
        let config = SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .chunker(sigma_chunking::ChunkerParams::fixed(4096))
            .build()
            .unwrap();
        Arc::new(DedupCluster::with_similarity_router(4, config))
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn backup_and_restore_round_trip() {
        let cluster = small_cluster();
        let client = BackupClient::new(cluster.clone(), 0);
        let data = pseudo_random(300_000, 1);
        let report = client.backup_bytes("blob.bin", &data).unwrap();
        assert_eq!(report.logical_bytes, data.len() as u64);
        assert_eq!(report.transferred_bytes, data.len() as u64, "all unique");
        assert!(report.chunks >= 73);
        assert!(report.super_chunks >= 4);
        cluster.try_flush().unwrap();
        assert_eq!(client.restore(report.file_id).unwrap(), data);
    }

    #[test]
    fn second_generation_backup_transfers_almost_nothing() {
        let cluster = small_cluster();
        let client = BackupClient::new(cluster.clone(), 0);
        let data = pseudo_random(400_000, 2);
        let first = client.backup_bytes("gen-1", &data).unwrap();
        let second = client.backup_bytes("gen-2", &data).unwrap();
        assert_eq!(first.transferred_bytes, data.len() as u64);
        assert_eq!(second.transferred_bytes, 0);
        assert!(second.bandwidth_saving() > 0.99);
        assert_eq!(second.duplicate_chunks, second.chunks);
        // Both files restore correctly even though the second stored nothing new.
        cluster.try_flush().unwrap();
        assert_eq!(client.restore(first.file_id).unwrap(), data);
        assert_eq!(client.restore(second.file_id).unwrap(), data);
    }

    #[test]
    fn empty_file_backup() {
        let cluster = small_cluster();
        let client = BackupClient::new(cluster.clone(), 0);
        let report = client.backup_bytes("empty", b"").unwrap();
        assert_eq!(report.logical_bytes, 0);
        assert_eq!(report.chunks, 0);
        assert_eq!(report.bandwidth_saving(), 0.0);
        assert_eq!(client.restore(report.file_id).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multiple_clients_share_the_cluster() {
        let cluster = small_cluster();
        let data = pseudo_random(200_000, 3);
        let a = BackupClient::new(cluster.clone(), 1);
        let b = BackupClient::new(cluster.clone(), 2);
        let ra = a.backup_bytes("from-a", &data).unwrap();
        let rb = b.backup_bytes("from-b", &data).unwrap();
        assert_eq!(ra.transferred_bytes, data.len() as u64);
        assert_eq!(rb.transferred_bytes, 0, "client B's data is already stored");
        assert_ne!(a.session_id(), b.session_id());
        assert_eq!(cluster.director().session_count(), 2);
    }

    /// Serves `good` bytes, then fails every read.
    struct FailsMidStream {
        good: usize,
    }

    impl Read for FailsMidStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.good == 0 {
                return Err(std::io::Error::other("device unplugged"));
            }
            let n = buf.len().min(self.good).min(1000);
            buf[..n].fill(0x5A);
            self.good -= n;
            Ok(n)
        }
    }

    #[test]
    fn read_error_mid_stream_is_a_storage_io_error() {
        let cluster = small_cluster();
        let client = BackupClient::new(cluster.clone(), 0);
        let err = client
            .backup_reader("torn", FailsMidStream { good: 10_000 })
            .unwrap_err();
        assert!(
            matches!(&err, SigmaError::Storage(StorageError::Io(msg))
                if msg.contains("device unplugged") && msg.contains("torn")),
            "{err:?}"
        );
        assert_eq!(cluster.director().file_count(), 0, "no file registered");

        let data = pseudo_random(50_000, 4);
        let report = client.backup_reader("whole", &data[..]).unwrap();
        assert_eq!(report.logical_bytes, data.len() as u64);
        cluster.try_flush().unwrap();
        assert_eq!(client.restore(report.file_id).unwrap(), data);
    }

    #[test]
    fn restore_of_missing_file_is_an_error() {
        let cluster = small_cluster();
        let client = BackupClient::new(cluster, 0);
        assert!(matches!(
            client.restore(999),
            Err(SigmaError::FileNotFound(999))
        ));
    }
}

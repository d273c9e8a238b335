//! A `StorageBackend` that forwards every call to the backend it wraps and
//! counts calls, bytes and busy time per operation: the per-layer view of
//! `storage.journal`, `storage.backend` and `storage.container_store`.

use sigma_storage::{BackendKind, StorageBackend, StorageError, StorageObject};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics only: nothing is published through these, so `Relaxed`.
#[derive(Debug, Default)]
pub struct OpCount {
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

impl OpCount {
    fn record<T>(&self, bytes: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub struct CountingBackend {
    inner: Arc<dyn StorageBackend>,
    pub append: OpCount,
    pub fsync: OpCount,
    pub write_object: OpCount,
    pub read_at: OpCount,
    pub read_at_into: OpCount,
    /// Everything else (`read_all`, `object_len`, `truncate`,
    /// `replace_atomic`, `delete`, `list`): rare, counted together.
    pub other: OpCount,
}

impl CountingBackend {
    pub fn new(inner: Arc<dyn StorageBackend>) -> CountingBackend {
        CountingBackend {
            inner,
            append: OpCount::default(),
            fsync: OpCount::default(),
            write_object: OpCount::default(),
            read_at: OpCount::default(),
            read_at_into: OpCount::default(),
            other: OpCount::default(),
        }
    }

    /// Busy time of the calls the ingest path makes.
    pub fn write_busy(&self) -> Duration {
        self.append.busy() + self.fsync.busy() + self.write_object.busy()
    }

    /// Bytes handed to the medium by the ingest path.
    pub fn write_bytes(&self) -> u64 {
        self.append.bytes() + self.write_object.bytes()
    }
}

type Result<T> = std::result::Result<T, StorageError>;

impl StorageBackend for CountingBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn persistent(&self) -> bool {
        self.inner.persistent()
    }

    fn append(&self, obj: StorageObject, bytes: &[u8]) -> Result<u64> {
        self.append
            .record(bytes.len(), || self.inner.append(obj, bytes))
    }

    fn write_object(&self, obj: StorageObject, bytes: &[u8]) -> Result<()> {
        self.write_object
            .record(bytes.len(), || self.inner.write_object(obj, bytes))
    }

    fn read_all(&self, obj: StorageObject) -> Result<Vec<u8>> {
        self.other.record(0, || self.inner.read_all(obj))
    }

    fn read_at(&self, obj: StorageObject, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.read_at
            .record(len, || self.inner.read_at(obj, offset, len))
    }

    fn read_at_into(&self, obj: StorageObject, offset: u64, out: &mut [u8]) -> Result<()> {
        self.read_at_into
            .record(out.len(), || self.inner.read_at_into(obj, offset, out))
    }

    fn object_len(&self, obj: StorageObject) -> Result<Option<u64>> {
        self.other.record(0, || self.inner.object_len(obj))
    }

    fn truncate(&self, obj: StorageObject, len: u64) -> Result<()> {
        self.other.record(0, || self.inner.truncate(obj, len))
    }

    fn replace_atomic(&self, obj: StorageObject, bytes: &[u8]) -> Result<()> {
        self.other
            .record(bytes.len(), || self.inner.replace_atomic(obj, bytes))
    }

    fn fsync(&self, obj: StorageObject) -> Result<()> {
        self.fsync.record(0, || self.inner.fsync(obj))
    }

    fn delete(&self, obj: StorageObject) -> Result<()> {
        self.other.record(0, || self.inner.delete(obj))
    }

    fn list(&self) -> Result<Vec<StorageObject>> {
        self.other.record(0, || self.inner.list())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_storage::{ContainerId, FileBackend};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = crate::sut::scratch_root().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The same calls against a bare `FileBackend` and a counted one leave the
    /// same files and return the same bytes.
    #[test]
    fn transparent_against_a_bare_file_backend() {
        let (bare_dir, counted_dir) = (scratch("bare"), scratch("counted"));
        let bare = FileBackend::open(&bare_dir).unwrap();
        let counted = CountingBackend::new(Arc::new(FileBackend::open(&counted_dir).unwrap()));
        let container = StorageObject::Container(ContainerId::new(3));
        let drive = |b: &dyn StorageBackend| {
            let mut seen = Vec::new();
            seen.push(
                b.append(StorageObject::Journal, b"first")
                    .unwrap()
                    .to_le_bytes()
                    .to_vec(),
            );
            seen.push(
                b.append(StorageObject::Journal, b"second")
                    .unwrap()
                    .to_le_bytes()
                    .to_vec(),
            );
            b.fsync(StorageObject::Journal).unwrap();
            b.write_object(container, b"0123456789").unwrap();
            seen.push(b.read_at(container, 2, 4).unwrap());
            let mut window = [0u8; 3];
            b.read_at_into(container, 7, &mut window).unwrap();
            seen.push(window.to_vec());
            seen.push(b.read_all(StorageObject::Journal).unwrap());
            b.truncate(StorageObject::Journal, 5).unwrap();
            seen.push(b.read_all(StorageObject::Journal).unwrap());
            seen.push(format!("{:?}", b.object_len(container).unwrap()).into_bytes());
            seen.push(format!("{:?}", b.list().unwrap()).into_bytes());
            assert!(
                b.read_at(container, 8, 5).is_err(),
                "short object is an error"
            );
            seen
        };
        assert_eq!(drive(&bare), drive(&counted));
        for name in ["journal.wal", "container-3.sc"] {
            assert_eq!(
                std::fs::read(bare_dir.join(name)).unwrap(),
                std::fs::read(counted_dir.join(name)).unwrap(),
                "{name}"
            );
        }
        assert_eq!(counted.kind(), bare.kind());
        assert_eq!(counted.persistent(), bare.persistent());
        assert_eq!((counted.append.calls(), counted.append.bytes()), (2, 11));
        assert_eq!(counted.fsync.calls(), 1);
        assert_eq!(
            (counted.write_object.calls(), counted.write_object.bytes()),
            (1, 10)
        );
        assert_eq!((counted.read_at.calls(), counted.read_at.bytes()), (2, 9));
        assert_eq!(
            (counted.read_at_into.calls(), counted.read_at_into.bytes()),
            (1, 3)
        );
        assert_eq!(counted.write_bytes(), 21);
        std::fs::remove_dir_all(bare_dir).unwrap();
        std::fs::remove_dir_all(counted_dir).unwrap();
    }
}

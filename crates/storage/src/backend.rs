//! Pluggable storage backends: the durable medium beneath the journal and the
//! container store.
//!
//! The ILDG-style middleware separation the service layer follows — grid
//! services composed over abstract storage elements — applies one level down
//! too: [`Journal`](crate::Journal) and [`ContainerStore`](crate::ContainerStore)
//! talk to a [`StorageBackend`] trait instead of a `Vec<u8>` welded into the
//! struct, and two implementations plug in beneath them:
//!
//! | backend | medium | survives process exit |
//! |---|---|---|
//! | [`MemoryBackend`] | RAM object map | no |
//! | [`FileBackend`] | one directory of real files | **yes** |
//!
//! Every backend holds the same objects: the journal, and one object per
//! sealed container — the only place a container's chunk bytes live.  The
//! journal and the in-memory container directory keep metadata only, so the
//! two backends differ in medium, never in layout.  The volatile backend
//! keeps every figure reproduction and fault-injection test deterministic.
//! [`FileBackend`] maps each object to a file in a per-node directory
//! (`journal.wal`, `container-<id>.sc`) and fsyncs where the journal and the
//! store ask it to: every container object write, every journal append of
//! a record kind that must be synced (a rollover seal, a similarity
//! publication or a recipe delete is written unsynced, see
//! [`JournalRecord::defers_sync`](crate::JournalRecord::defers_sync)), and
//! the journal sync that ends each flush, which is the acknowledgement
//! point.  It replaces the journal atomically on compaction via write-new /
//! fsync / rename / fsync-dir — so a node's containers and journal survive
//! an actual process restart, not just a simulated one.

use crate::{ContainerId, Result, StorageError};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One durable object a backend stores for a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StorageObject {
    /// The node's write-ahead journal (`journal.wal` on the file backend).
    Journal,
    /// One sealed container (`container-<id>.sc` on the file backend).
    Container(ContainerId),
}

impl StorageObject {
    /// The object's file name on the file backend.
    pub fn file_name(&self) -> String {
        match self {
            StorageObject::Journal => "journal.wal".to_string(),
            StorageObject::Container(id) => format!("container-{}.sc", id.as_u64()),
        }
    }

    /// Parses a file name back into an object (the inverse of
    /// [`file_name`](Self::file_name)); temp files and foreign names are `None`.
    pub fn from_file_name(name: &str) -> Option<StorageObject> {
        if name == "journal.wal" {
            return Some(StorageObject::Journal);
        }
        let id = name
            .strip_prefix("container-")?
            .strip_suffix(".sc")?
            .parse::<u64>()
            .ok()?;
        Some(StorageObject::Container(ContainerId::new(id)))
    }
}

impl std::fmt::Display for StorageObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.file_name())
    }
}

/// Which [`StorageBackend`] implementation a node uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Volatile RAM objects — the default, and the medium every figure
    /// reproduction runs against.
    #[default]
    Memory,
    /// Real files under a per-node directory; survives a process restart.
    File,
}

impl BackendKind {
    /// Its lowercase name (`memory` / `file`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Memory => "memory",
            BackendKind::File => "file",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A read-only window into a shared buffer: what
/// [`StorageBackend::read_shared`] returns and the read cache keeps.  Cloning
/// or narrowing it copies no bytes.
#[derive(Debug, Clone)]
pub struct SharedBytes {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        let range = 0..bytes.len();
        SharedBytes {
            buf: Arc::new(bytes),
            range,
        }
    }
}

impl std::ops::Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

/// The durable medium beneath a node's journal and container store.
///
/// Semantics every implementation must honour:
///
/// * [`append`](Self::append) returns the offset the bytes landed at and, once
///   the following [`fsync`](Self::fsync) returns, the bytes are durable.  The
///   journal fsyncs after an append only when a record in it must be synced;
///   the others become durable at the next such fsync, at the latest at the
///   journal sync that ends a flush, the system's acknowledgement point.
/// * [`write_object`](Self::write_object) atomically creates-or-replaces a
///   whole object: a reader never observes a half-written container.
///   [`write_object_parts`](Self::write_object_parts) does the same for an
///   object handed over in parts.
/// * [`replace_atomic`](Self::replace_atomic) is `write_object` under the
///   same contract: until the replacement is durably in place, the *old*
///   object remains fully readable.
/// * [`truncate`](Self::truncate) discards a torn tail after replay.
/// * [`delete`](Self::delete) of an absent object is a no-op, not an error.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Which implementation this is.
    fn kind(&self) -> BackendKind;

    /// True when objects survive the process (the file backend).  Purely
    /// descriptive: the journal and the container store write the same
    /// objects to every backend, and nothing in the storage layer branches on
    /// it.
    fn persistent(&self) -> bool {
        false
    }

    /// Appends `bytes` to `obj` (creating it if absent), returning the offset
    /// the bytes were written at.  An object this call creates has a durable
    /// name once the next [`fsync`](Self::fsync) of it returns.
    fn append(&self, obj: StorageObject, bytes: &[u8]) -> Result<u64>;

    /// Atomically creates or replaces the whole object.
    fn write_object(&self, obj: StorageObject, bytes: &[u8]) -> Result<()>;

    /// [`write_object`](Self::write_object) of the concatenation of
    /// `parts`, in order, under the same atomic publish.  The container
    /// store writes every sealed, adopted and compacted container this way —
    /// head, the container's own data section, record table — so the data
    /// section is never copied into an object-sized buffer first.  The
    /// default concatenates and calls `write_object`; the file backend writes
    /// the parts one after another into the object's temp file.
    fn write_object_parts(&self, obj: StorageObject, parts: &[&[u8]]) -> Result<()> {
        self.write_object(obj, &parts.concat())
    }

    /// Reads the whole object; an absent object reads as empty.
    fn read_all(&self, obj: StorageObject) -> Result<Vec<u8>>;

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] when the object is absent or shorter than
    /// `offset + len` — a durability bug, never a caller convenience.
    fn read_at(&self, obj: StorageObject, offset: u64, len: usize) -> Result<Vec<u8>>;

    /// Reads exactly `out.len()` bytes at `offset` into `out`, through
    /// [`read_at`](Self::read_at) and a copy.
    ///
    /// No library path calls it: restores read whole data sections with
    /// [`read_shared`](Self::read_shared).  It stays only because the
    /// `sigma-e2e` benchmark's counting backend implements it.
    ///
    /// # Errors
    ///
    /// Same contract as [`read_at`](Self::read_at).
    fn read_at_into(&self, obj: StorageObject, offset: u64, out: &mut [u8]) -> Result<()> {
        let bytes = self.read_at(obj, offset, out.len())?;
        out.copy_from_slice(&bytes);
        Ok(())
    }

    /// [`read_at`](Self::read_at) for bytes the caller keeps, such as a data
    /// section entering the read cache.  The default wraps `read_at`'s
    /// buffer; the in-RAM backend shares the object's own buffer instead of
    /// copying it.
    ///
    /// # Errors
    ///
    /// Same contract as [`read_at`](Self::read_at).
    fn read_shared(&self, obj: StorageObject, offset: u64, len: usize) -> Result<SharedBytes> {
        self.read_at(obj, offset, len).map(SharedBytes::from)
    }

    /// Current length of the object in bytes, `None` when absent.
    fn object_len(&self, obj: StorageObject) -> Result<Option<u64>>;

    /// Truncates the object to `len` bytes (discarding a torn tail).
    fn truncate(&self, obj: StorageObject, len: u64) -> Result<()>;

    /// Replaces the object so that a crash at any point leaves either the old
    /// or the new contents fully intact, never a mixture — which
    /// `write_object` already does, so that is the default.
    ///
    /// No library path calls it.  It stays only because the `sigma-e2e`
    /// benchmark's counting backend implements it.
    fn replace_atomic(&self, obj: StorageObject, bytes: &[u8]) -> Result<()> {
        self.write_object(obj, bytes)
    }

    /// Makes previous appends to the object durable.  The first fsync after an
    /// [`append`](Self::append) created the object also makes its name
    /// durable (on the file backend, a directory fsync), so a power cut never
    /// keeps synced bytes of an object whose directory entry it loses.
    fn fsync(&self, obj: StorageObject) -> Result<()>;

    /// Deletes the object; absent objects delete successfully.
    fn delete(&self, obj: StorageObject) -> Result<()>;

    /// Every object currently present, sorted for deterministic iteration.
    fn list(&self) -> Result<Vec<StorageObject>>;
}

// ---- MemoryBackend ----

/// Volatile objects in a RAM map.
///
/// The map is reader/writer-locked: restores read container objects in
/// parallel, and only writers (seals, journal appends, deletes) serialize.
/// Each object is a shared buffer, so [`read_shared`] hands the read cache a
/// view of it rather than a copy.
///
/// [`read_shared`]: StorageBackend::read_shared
#[derive(Default)]
pub struct MemoryBackend {
    objects: RwLock<HashMap<StorageObject, Arc<Vec<u8>>>>,
}

impl std::fmt::Debug for MemoryBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryBackend")
            .field("objects", &self.objects.read().len())
            .finish()
    }
}

impl MemoryBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        MemoryBackend::default()
    }

    /// A copy of every object on `other` — journal and container objects
    /// alike: the crash image a fault harness or a replay benchmark hands to
    /// recovery.
    ///
    /// # Errors
    ///
    /// Returns the error of the first listing or read of `other` that fails.
    pub fn copy_of(other: &dyn StorageBackend) -> Result<Self> {
        let mut objects = HashMap::new();
        for obj in other.list()? {
            objects.insert(obj, Arc::new(other.read_all(obj)?));
        }
        Ok(MemoryBackend {
            objects: RwLock::new(objects),
        })
    }

    /// Runs `read` on the object's buffer and the in-bounds range of `len`
    /// bytes at `offset`, or fails as [`StorageBackend::read_at`] documents.
    fn read_range<T>(
        &self,
        obj: StorageObject,
        offset: u64,
        len: usize,
        read: impl FnOnce(&Arc<Vec<u8>>, Range<usize>) -> T,
    ) -> Result<T> {
        let objects = self.objects.read();
        let buf = objects
            .get(&obj)
            .ok_or_else(|| StorageError::Io(format!("{}: object absent", obj)))?;
        let start = offset as usize;
        match start.checked_add(len).filter(|&end| end <= buf.len()) {
            Some(end) => Ok(read(buf, start..end)),
            None => Err(StorageError::Io(format!(
                "{}: read of {} bytes at offset {} past object end {}",
                obj,
                len,
                offset,
                buf.len()
            ))),
        }
    }
}

impl StorageBackend for MemoryBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }

    fn append(&self, obj: StorageObject, bytes: &[u8]) -> Result<u64> {
        let mut objects = self.objects.write();
        let buf = objects.entry(obj).or_default();
        let offset = buf.len() as u64;
        Arc::make_mut(buf).extend_from_slice(bytes);
        Ok(offset)
    }

    fn write_object(&self, obj: StorageObject, bytes: &[u8]) -> Result<()> {
        self.write_object_parts(obj, &[bytes])
    }

    fn write_object_parts(&self, obj: StorageObject, parts: &[&[u8]]) -> Result<()> {
        let object = Arc::new(parts.concat());
        self.objects.write().insert(obj, object);
        Ok(())
    }

    fn read_all(&self, obj: StorageObject) -> Result<Vec<u8>> {
        Ok(self
            .objects
            .read()
            .get(&obj)
            .map(|buf| buf.to_vec())
            .unwrap_or_default())
    }

    fn read_at(&self, obj: StorageObject, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.read_range(obj, offset, len, |buf, range| buf[range].to_vec())
    }

    fn read_shared(&self, obj: StorageObject, offset: u64, len: usize) -> Result<SharedBytes> {
        self.read_range(obj, offset, len, |buf, range| SharedBytes {
            buf: buf.clone(),
            range,
        })
    }

    fn object_len(&self, obj: StorageObject) -> Result<Option<u64>> {
        Ok(self.objects.read().get(&obj).map(|b| b.len() as u64))
    }

    fn truncate(&self, obj: StorageObject, len: u64) -> Result<()> {
        if let Some(buf) = self.objects.write().get_mut(&obj) {
            Arc::make_mut(buf).truncate(len as usize);
        }
        Ok(())
    }

    fn fsync(&self, _obj: StorageObject) -> Result<()> {
        Ok(())
    }

    fn delete(&self, obj: StorageObject) -> Result<()> {
        self.objects.write().remove(&obj);
        Ok(())
    }

    fn list(&self) -> Result<Vec<StorageObject>> {
        let mut out: Vec<StorageObject> = self.objects.read().keys().copied().collect();
        out.sort_unstable();
        Ok(out)
    }
}

// ---- FileBackend ----

/// Real files in one directory per node.
///
/// Layout: `journal.wal` plus one `container-<id>.sc` per sealed container;
/// `*.tmp` files are in-flight atomic replacements and are ignored (and swept)
/// on open.  Journal appends go through one cached append handle; durability
/// comes from the explicit [`fsync`](StorageBackend::fsync) the journal issues
/// at every acknowledgement point.  When an append created `journal.wal`, the
/// first fsync after it also fsyncs the directory, so the log's name is
/// durable before any acknowledgement rests on it.  Whole-object writes go
/// write-temp / fsync / rename / fsync-dir, so a crash at any point leaves
/// either the old or the new object intact — never a mixture.
pub struct FileBackend {
    root: PathBuf,
    journal: Mutex<JournalHandle>,
    /// Directory fsyncs issued, so tests can see when a name is made durable.
    #[cfg(test)]
    dir_syncs: std::sync::atomic::AtomicUsize,
}

/// The file backend's state for the journal object.
#[derive(Default)]
struct JournalHandle {
    /// Cached append handle (the hot path).  Invalidated by
    /// truncate/replace/delete so the next append reopens at the new length.
    file: Option<fs::File>,
    /// Set when an append created `journal.wal` and cleared by the directory
    /// fsync that makes the name durable: the next fsync or truncate of the
    /// journal, or a replace or delete, which fsync the directory themselves.
    name_unsynced: bool,
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("root", &self.root)
            .finish()
    }
}

fn io_err(context: &str, err: std::io::Error) -> StorageError {
    StorageError::Io(format!("{}: {}", context, err))
}

impl FileBackend {
    /// Opens (creating if needed) the backend rooted at `root`.
    ///
    /// Leftover `*.tmp` files from an interrupted atomic replacement are swept:
    /// by construction they were never renamed into place, so they hold
    /// unacknowledged data — exactly what a crash is allowed to lose.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] when the directory cannot be created or
    /// scanned.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err(&format!("create {}", root.display()), e))?;
        for entry in
            fs::read_dir(&root).map_err(|e| io_err(&format!("scan {}", root.display()), e))?
        {
            let entry = entry.map_err(|e| io_err("scan entry", e))?;
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(FileBackend {
            root,
            journal: Mutex::new(JournalHandle::default()),
            #[cfg(test)]
            dir_syncs: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// The directory this backend stores its objects in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, obj: StorageObject) -> PathBuf {
        self.root.join(obj.file_name())
    }

    /// Fsyncs the directory itself so creations, renames and removals of
    /// entries are durable.
    fn fsync_dir(&self) -> Result<()> {
        #[cfg(test)]
        self.dir_syncs
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = fs::File::open(&self.root)
            .map_err(|e| io_err(&format!("open dir {}", self.root.display()), e))?;
        dir.sync_all()
            .map_err(|e| io_err(&format!("fsync dir {}", self.root.display()), e))
    }

    /// Fsyncs the directory if an append created the journal since the last
    /// directory fsync.
    fn settle_journal_name(&self, journal: &mut JournalHandle) -> Result<()> {
        if journal.name_unsynced {
            self.fsync_dir()?;
            journal.name_unsynced = false;
        }
        Ok(())
    }

    /// Opens `obj` for appending, creating it if absent; the flag says whether
    /// this call created it.
    fn open_append(&self, obj: StorageObject) -> Result<(fs::File, bool)> {
        let path = self.path(obj);
        let open = |create_new: bool| {
            fs::OpenOptions::new()
                .append(true)
                .create_new(create_new)
                .open(&path)
        };
        match open(true) {
            Ok(file) => Ok((file, true)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => open(false)
                .map(|file| (file, false))
                .map_err(|e| io_err(&format!("open {}", path.display()), e)),
            Err(e) => Err(io_err(&format!("create {}", path.display()), e)),
        }
    }

    /// Fsyncs the file behind `obj`; an absent object has nothing to sync.
    fn fsync_path(&self, obj: StorageObject) -> Result<()> {
        match fs::File::open(self.path(obj)) {
            Ok(file) => file
                .sync_all()
                .map_err(|e| io_err(&format!("fsync {}", self.path(obj).display()), e)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(&format!("open {}", self.path(obj).display()), e)),
        }
    }

    /// Truncates the file behind `obj` to `len` bytes and fsyncs it; an
    /// absent object has nothing to truncate.
    fn truncate_path(&self, obj: StorageObject, len: u64) -> Result<()> {
        let path = self.path(obj);
        let file = match fs::OpenOptions::new().write(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(io_err(&format!("open {}", path.display()), e)),
        };
        file.set_len(len)
            .map_err(|e| io_err(&format!("truncate {}", path.display()), e))?;
        file.sync_all()
            .map_err(|e| io_err(&format!("fsync {}", path.display()), e))
    }

    /// Removes the file behind `obj` and fsyncs the directory; an absent
    /// object deletes successfully.
    fn delete_path(&self, obj: StorageObject) -> Result<()> {
        match fs::remove_file(self.path(obj)) {
            Ok(()) => self.fsync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(&format!("delete {}", self.path(obj).display()), e)),
        }
    }

    /// Writes `parts` in order to a fresh temp file, fsyncs it, renames it
    /// over the object, and fsyncs the directory — the four-step atomic
    /// publish.
    fn publish_atomic(&self, obj: StorageObject, parts: &[&[u8]]) -> Result<()> {
        let target = self.path(obj);
        let tmp = self.root.join(format!("{}.tmp", obj.file_name()));
        {
            let mut file = fs::File::create(&tmp)
                .map_err(|e| io_err(&format!("create {}", tmp.display()), e))?;
            for part in parts {
                file.write_all(part)
                    .map_err(|e| io_err(&format!("write {}", tmp.display()), e))?;
            }
            file.sync_all()
                .map_err(|e| io_err(&format!("fsync {}", tmp.display()), e))?;
        }
        fs::rename(&tmp, &target).map_err(|e| {
            io_err(
                &format!("rename {} -> {}", tmp.display(), target.display()),
                e,
            )
        })?;
        self.fsync_dir()
    }
}

impl StorageBackend for FileBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::File
    }

    fn persistent(&self) -> bool {
        true
    }

    fn append(&self, obj: StorageObject, bytes: &[u8]) -> Result<u64> {
        let path = self.path(obj);
        if obj == StorageObject::Journal {
            let mut journal = self.journal.lock();
            let journal = &mut *journal;
            if journal.file.is_none() {
                let (file, created) = self.open_append(obj)?;
                journal.name_unsynced |= created;
                journal.file = Some(file);
            }
            let file = journal.file.as_mut().expect("populated above");
            let offset = file
                .metadata()
                .map_err(|e| io_err(&format!("stat {}", path.display()), e))?
                .len();
            file.write_all(bytes)
                .map_err(|e| io_err(&format!("append {}", path.display()), e))?;
            Ok(offset)
        } else {
            let (mut file, created) = self.open_append(obj)?;
            let offset = file
                .metadata()
                .map_err(|e| io_err(&format!("stat {}", path.display()), e))?
                .len();
            file.write_all(bytes)
                .map_err(|e| io_err(&format!("append {}", path.display()), e))?;
            file.sync_all()
                .map_err(|e| io_err(&format!("fsync {}", path.display()), e))?;
            if created {
                self.fsync_dir()?;
            }
            Ok(offset)
        }
    }

    fn write_object(&self, obj: StorageObject, bytes: &[u8]) -> Result<()> {
        self.write_object_parts(obj, &[bytes])
    }

    fn write_object_parts(&self, obj: StorageObject, parts: &[&[u8]]) -> Result<()> {
        if obj != StorageObject::Journal {
            return self.publish_atomic(obj, parts);
        }
        let mut journal = self.journal.lock();
        journal.file = None;
        self.publish_atomic(obj, parts)?;
        journal.name_unsynced = false;
        Ok(())
    }

    fn read_all(&self, obj: StorageObject) -> Result<Vec<u8>> {
        match fs::read(self.path(obj)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(io_err(&format!("read {}", self.path(obj).display()), e)),
        }
    }

    fn read_at(&self, obj: StorageObject, offset: u64, len: usize) -> Result<Vec<u8>> {
        let path = self.path(obj);
        let mut file =
            fs::File::open(&path).map_err(|e| io_err(&format!("open {}", path.display()), e))?;
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| io_err(&format!("seek {}", path.display()), e))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf).map_err(|e| {
            io_err(
                &format!("read {} bytes at {} from {}", len, offset, path.display()),
                e,
            )
        })?;
        Ok(buf)
    }

    fn object_len(&self, obj: StorageObject) -> Result<Option<u64>> {
        match fs::metadata(self.path(obj)) {
            Ok(meta) => Ok(Some(meta.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(&format!("stat {}", self.path(obj).display()), e)),
        }
    }

    fn truncate(&self, obj: StorageObject, len: u64) -> Result<()> {
        if obj != StorageObject::Journal {
            return self.truncate_path(obj, len);
        }
        let mut journal = self.journal.lock();
        // Drop the cached append handle so the next append reopens at the
        // truncated length.
        journal.file = None;
        self.truncate_path(obj, len)?;
        self.settle_journal_name(&mut journal)
    }

    fn fsync(&self, obj: StorageObject) -> Result<()> {
        if obj != StorageObject::Journal {
            return self.fsync_path(obj);
        }
        let mut journal = self.journal.lock();
        match journal.file.as_ref() {
            Some(file) => file
                .sync_all()
                .map_err(|e| io_err(&format!("fsync {}", self.path(obj).display()), e))?,
            None => self.fsync_path(obj)?,
        }
        self.settle_journal_name(&mut journal)
    }

    fn delete(&self, obj: StorageObject) -> Result<()> {
        if obj != StorageObject::Journal {
            return self.delete_path(obj);
        }
        let mut journal = self.journal.lock();
        journal.file = None;
        self.delete_path(obj)?;
        journal.name_unsynced = false;
        Ok(())
    }

    fn list(&self) -> Result<Vec<StorageObject>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)
            .map_err(|e| io_err(&format!("scan {}", self.root.display()), e))?
        {
            let entry = entry.map_err(|e| io_err("scan entry", e))?;
            if let Some(obj) = StorageObject::from_file_name(&entry.file_name().to_string_lossy()) {
                out.push(obj);
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sigma-backend-{}-{}-{}",
            tag,
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn backends(tag: &str) -> Vec<(Box<dyn StorageBackend>, Option<PathBuf>)> {
        let root = temp_root(tag);
        vec![
            (Box::new(MemoryBackend::new()), None),
            (Box::new(FileBackend::open(&root).unwrap()), Some(root)),
        ]
    }

    #[test]
    fn append_read_truncate_roundtrip_on_every_backend() {
        for (backend, root) in backends("rt") {
            let obj = StorageObject::Journal;
            assert_eq!(backend.object_len(obj).unwrap(), None);
            assert_eq!(backend.append(obj, b"hello ").unwrap(), 0);
            assert_eq!(backend.append(obj, b"world").unwrap(), 6);
            backend.fsync(obj).unwrap();
            assert_eq!(backend.read_all(obj).unwrap(), b"hello world");
            assert_eq!(backend.read_at(obj, 6, 5).unwrap(), b"world");
            assert!(backend.read_at(obj, 6, 6).is_err(), "read past end errors");
            let mut into = [0u8; 5];
            backend.read_at_into(obj, 6, &mut into).unwrap();
            assert_eq!(&into, b"world", "read_at_into fills the caller's buffer");
            let mut past = [0u8; 6];
            assert!(
                backend.read_at_into(obj, 6, &mut past).is_err(),
                "read_at_into past end errors"
            );
            backend.truncate(obj, 5).unwrap();
            assert_eq!(backend.read_all(obj).unwrap(), b"hello");
            assert_eq!(backend.append(obj, b"!").unwrap(), 5);
            assert_eq!(backend.read_all(obj).unwrap(), b"hello!");
            if let Some(root) = root {
                let _ = fs::remove_dir_all(root);
            }
        }
    }

    #[test]
    fn write_object_delete_and_list_on_every_backend() {
        for (backend, root) in backends("list") {
            let a = StorageObject::Container(ContainerId::new(3));
            let b = StorageObject::Container(ContainerId::new(1));
            backend.write_object(a, b"aaa").unwrap();
            backend.write_object(b, b"b").unwrap();
            backend.append(StorageObject::Journal, b"j").unwrap();
            assert_eq!(
                backend.list().unwrap(),
                vec![StorageObject::Journal, b, a],
                "sorted: journal before containers, containers by id"
            );
            assert_eq!(backend.object_len(a).unwrap(), Some(3));
            backend.write_object(a, b"replaced").unwrap();
            assert_eq!(backend.read_all(a).unwrap(), b"replaced");
            backend.delete(a).unwrap();
            backend.delete(a).unwrap(); // absent delete is a no-op
            assert_eq!(backend.object_len(a).unwrap(), None);
            assert_eq!(backend.list().unwrap(), vec![StorageObject::Journal, b]);
            if let Some(root) = root {
                let _ = fs::remove_dir_all(root);
            }
        }
    }

    #[test]
    fn read_shared_matches_read_at_on_every_backend() {
        for (backend, root) in backends("shared") {
            let obj = StorageObject::Container(ContainerId::new(5));
            backend
                .write_object_parts(obj, &[b"header|", b"section", b"|records"])
                .unwrap();
            assert_eq!(backend.read_all(obj).unwrap(), b"header|section|records");
            let shared = backend.read_shared(obj, 7, 7).unwrap();
            assert_eq!(&shared[..], b"section");
            assert_eq!(&shared[..], &backend.read_at(obj, 7, 7).unwrap()[..]);
            assert!(backend.read_shared(obj, 20, 5).is_err(), "read past end");
            if backend.kind() != BackendKind::File {
                let again = backend.read_shared(obj, 7, 7).unwrap();
                assert_eq!(
                    shared.as_ptr(),
                    again.as_ptr(),
                    "the in-RAM backend shares the object's buffer"
                );
            }
            backend.write_object(obj, b"replaced").unwrap();
            assert_eq!(&shared[..], b"section", "a view outlives a rewrite");
            if let Some(root) = root {
                let _ = fs::remove_dir_all(root);
            }
        }
    }

    #[test]
    fn file_backend_survives_reopen() {
        let root = temp_root("reopen");
        {
            let backend = FileBackend::open(&root).unwrap();
            backend.append(StorageObject::Journal, b"frames").unwrap();
            backend.fsync(StorageObject::Journal).unwrap();
            backend
                .write_object(StorageObject::Container(ContainerId::new(7)), b"payload")
                .unwrap();
        }
        let backend = FileBackend::open(&root).unwrap();
        assert_eq!(backend.read_all(StorageObject::Journal).unwrap(), b"frames");
        assert_eq!(
            backend
                .read_all(StorageObject::Container(ContainerId::new(7)))
                .unwrap(),
            b"payload"
        );
        assert_eq!(backend.list().unwrap().len(), 2);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn the_first_sync_of_a_created_journal_makes_its_name_durable() {
        use std::sync::atomic::Ordering::Relaxed;
        let journal = StorageObject::Journal;
        let root = temp_root("name");
        let backend = FileBackend::open(&root).unwrap();
        let dir_syncs = |backend: &FileBackend| backend.dir_syncs.load(Relaxed);

        // Creating the log defers the directory fsync to the log's first sync.
        backend.append(journal, b"a").unwrap();
        backend.append(journal, b"b").unwrap();
        assert_eq!(dir_syncs(&backend), 0);
        backend.fsync(journal).unwrap();
        assert_eq!(dir_syncs(&backend), 1, "the first sync covers the name");
        backend.append(journal, b"c").unwrap();
        backend.fsync(journal).unwrap();
        backend.truncate(journal, 1).unwrap();
        backend.append(journal, b"d").unwrap();
        backend.fsync(journal).unwrap();
        assert_eq!(dir_syncs(&backend), 1, "a log that exists leaves it alone");

        // A restarted backend that finds the log does not sync it again.
        let reopened = FileBackend::open(&root).unwrap();
        reopened.append(journal, b"e").unwrap();
        reopened.fsync(journal).unwrap();
        assert_eq!(dir_syncs(&reopened), 0);
        assert_eq!(reopened.read_all(journal).unwrap(), b"ade");

        // A log created anew after a delete needs its name synced again, and
        // a truncate before the first sync settles it as well.
        backend.delete(journal).unwrap();
        assert_eq!(dir_syncs(&backend), 2, "the delete syncs the directory");
        backend.append(journal, b"f").unwrap();
        backend.truncate(journal, 0).unwrap();
        assert_eq!(dir_syncs(&backend), 3);
        backend.fsync(journal).unwrap();
        assert_eq!(dir_syncs(&backend), 3);

        // An object another append creates is synced with its name at once.
        let container = StorageObject::Container(ContainerId::new(9));
        backend.append(container, b"g").unwrap();
        assert_eq!(dir_syncs(&backend), 4);
        backend.append(container, b"h").unwrap();
        assert_eq!(dir_syncs(&backend), 4);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn file_backend_sweeps_stale_tmp_files_and_keeps_old_object() {
        // A crash between write-temp and rename leaves a *.tmp behind; reopening
        // must ignore and sweep it, with the old object fully intact — the
        // atomic publish every container object relies on.
        let root = temp_root("tmp");
        let container = StorageObject::Container(ContainerId::new(3));
        let tmp = root.join(format!("{}.tmp", container.file_name()));
        {
            let backend = FileBackend::open(&root).unwrap();
            backend.write_object(container, b"old container").unwrap();
        }
        fs::write(&tmp, b"half-written new container").unwrap();
        let backend = FileBackend::open(&root).unwrap();
        assert_eq!(backend.read_all(container).unwrap(), b"old container");
        assert!(!tmp.exists(), "stale temp file swept on open");
        assert_eq!(backend.list().unwrap(), vec![container]);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn object_names_round_trip() {
        for obj in [
            StorageObject::Journal,
            StorageObject::Container(ContainerId::new(0)),
            StorageObject::Container(ContainerId::new(123456)),
        ] {
            assert_eq!(StorageObject::from_file_name(&obj.file_name()), Some(obj));
        }
        assert_eq!(StorageObject::from_file_name("journal.wal.tmp"), None);
        assert_eq!(StorageObject::from_file_name("container-x.sc"), None);
        assert_eq!(StorageObject::from_file_name("README"), None);
        assert_eq!(BackendKind::Memory.to_string(), "memory");
        assert_eq!(BackendKind::File.to_string(), "file");
    }
}

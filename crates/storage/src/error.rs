//! Error type for the storage layer.

use crate::ContainerId;

/// Errors produced by container, index and cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A container with this ID does not exist.
    ContainerNotFound(ContainerId),
    /// The requested chunk is not present in the referenced container.
    ChunkNotInContainer {
        /// The container that was searched.
        container: ContainerId,
        /// Hex form of the missing fingerprint.
        fingerprint: String,
    },
    /// An open container was expected for this stream but none exists.
    NoOpenContainer(u64),
    /// A chunk exceeded the configured container capacity.
    ChunkTooLarge {
        /// Size of the offending chunk in bytes.
        chunk_size: usize,
        /// Configured container capacity in bytes.
        container_capacity: usize,
    },
    /// The container was already sealed and cannot accept more chunks.
    ContainerSealed(ContainerId),
    /// The node's write-ahead journal hit an (injected or real) crash point: the
    /// append did not become durable and the node must be considered dead until
    /// it is recovered from the journal.
    Crashed,
    /// A journal frame is whole (its checksum holds) but its payload is not a
    /// record this version can decode — the journal was written in another
    /// record layout.  Recovery refuses it instead of truncating there.
    UnreadableRecord {
        /// Sequence number of the unreadable frame.
        seq: u64,
        /// Byte offset of the frame in the journal.
        offset: u64,
    },
    /// A container object's magic is intact but its header names a format
    /// version this one cannot read — another version of the code wrote it.
    /// Recovery refuses the medium instead of discarding the container.
    UnreadableObject {
        /// The container the object belongs to.
        container: ContainerId,
        /// The format version the object's header names.
        version: u8,
    },
    /// A storage backend operation failed (the message carries the operation,
    /// the object and the underlying OS error).  Only the file backend produces
    /// these at runtime; the volatile backends are infallible.
    Io(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::ContainerNotFound(id) => write!(f, "container {} not found", id),
            StorageError::ChunkNotInContainer {
                container,
                fingerprint,
            } => write!(
                f,
                "chunk {} not found in container {}",
                fingerprint, container
            ),
            StorageError::NoOpenContainer(stream) => {
                write!(f, "no open container for stream {}", stream)
            }
            StorageError::ChunkTooLarge {
                chunk_size,
                container_capacity,
            } => write!(
                f,
                "chunk of {} bytes exceeds container capacity of {} bytes",
                chunk_size, container_capacity
            ),
            StorageError::ContainerSealed(id) => write!(f, "container {} is sealed", id),
            StorageError::Crashed => {
                write!(f, "node crashed: journal append did not become durable")
            }
            StorageError::UnreadableRecord { seq, offset } => write!(
                f,
                "journal frame {} at offset {} is intact but holds no record this version can read",
                seq, offset
            ),
            StorageError::UnreadableObject { container, version } => write!(
                f,
                "{} is stored in container format version {}, which this version cannot read",
                container, version
            ),
            StorageError::Io(msg) => write!(f, "storage backend i/o error: {}", msg),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::ContainerNotFound(ContainerId::new(42));
        assert!(e.to_string().contains("42"));
        let e = StorageError::ChunkTooLarge {
            chunk_size: 10,
            container_capacity: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StorageError>();
    }
}

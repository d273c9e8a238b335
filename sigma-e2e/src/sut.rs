//! The system under test, assembled the way every workload uses it: a
//! `TcpService` on an ephemeral loopback port, over the full six-layer
//! middleware stack, over a four-node similarity-routed cluster on the file
//! backend. Limits are set so that nothing is ever refused.

use sigma_core::{DedupCluster, RecoveryReport, SigmaConfig};
use sigma_service::backend::FILE_ID_KEY;
use sigma_service::middleware::{
    AdmissionControl, FairScheduler, RateLimit, TenantQuota, TokenAuth,
};
use sigma_service::{
    Operation, RequestEnvelope, ResponseEnvelope, ServiceBuilder, ServiceStack, TcpClient,
    TcpService,
};
use sigma_storage::BackendKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const NODES: usize = 4;
pub const TENANT: &str = "bench";
pub const WARMUP_TENANT: &str = "warmup";
const TOKEN: &str = "sigma-e2e-token";

/// Least free space under the scratch root for a run to start; a round keeps
/// well under half of it on disk at any time.
const MIN_FREE_BYTES: u64 = 1 << 30;

pub type Res<T> = Result<T, String>;

/// Default `SigmaConfig` on the chosen backend; `root` is only used by
/// `BackendKind::File`.
pub fn config(kind: BackendKind, root: &Path) -> Res<SigmaConfig> {
    let builder = SigmaConfig::builder();
    match kind {
        BackendKind::File => builder.file_storage(root),
        other => builder.storage_backend(other).durability(true),
    }
    .build()
    .map_err(|e| format!("config: {e}"))
}

/// The six middlewares in production order, or none at all.
pub fn build_stack(cluster: Arc<DedupCluster>, full: bool) -> Arc<ServiceStack> {
    let builder = if full {
        ServiceBuilder::full_stack(
            TokenAuth::new()
                .tenant(TENANT, TOKEN)
                .tenant(WARMUP_TENANT, TOKEN),
            AdmissionControl::new(1 << 20, 1 << 50),
            TenantQuota::new(),
            RateLimit::new(1 << 40, 1e12),
            Arc::new(FairScheduler::new(1 << 30, 1 << 50, 64)),
        )
    } else {
        ServiceBuilder::new()
    };
    Arc::new(builder.build(cluster))
}

pub fn backup_request(id: u64, tenant: &str, name: &str, payload: Vec<u8>) -> RequestEnvelope {
    RequestEnvelope::new(
        id,
        tenant,
        Operation::Backup {
            file_name: name.to_string(),
            generation: 0,
        },
    )
    .with_payload(payload)
    .with_token(TOKEN)
}

pub fn restore_request(id: u64, tenant: &str, file_id: u64) -> RequestEnvelope {
    RequestEnvelope::new(id, tenant, Operation::Restore { file_id }).with_token(TOKEN)
}

pub fn stats_request(id: u64) -> RequestEnvelope {
    RequestEnvelope::new(id, TENANT, Operation::Stats).with_token(TOKEN)
}

/// The file ID of an accepted backup; `None` for a refusal or an error reply.
pub fn accepted_file_id(resp: &ResponseEnvelope) -> Option<u64> {
    if resp.is_ok() {
        resp.metadata_u64(FILE_ID_KEY)
    } else {
        None
    }
}

pub struct Sut {
    pub cluster: Arc<DedupCluster>,
    pub stack: Arc<ServiceStack>,
    service: TcpService,
    root: PathBuf,
}

impl Sut {
    /// Fresh file-backed cluster under `root` (which is wiped first), stack
    /// and listener.
    pub fn start(root: &Path) -> Res<Sut> {
        if root.exists() {
            std::fs::remove_dir_all(root).map_err(|e| format!("wipe {}: {e}", root.display()))?;
        }
        std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            NODES,
            config(BackendKind::File, root)?,
        ));
        let stack = build_stack(cluster.clone(), true);
        let service =
            TcpService::bind("127.0.0.1:0", stack.clone()).map_err(|e| format!("bind: {e}"))?;
        Ok(Sut {
            cluster,
            stack,
            service,
            root: root.to_path_buf(),
        })
    }

    pub fn connect(&self) -> Res<TcpClient> {
        TcpClient::connect(self.service.local_addr()).map_err(|e| format!("connect: {e}"))
    }

    /// The acknowledgement point: everything accepted so far is durable after.
    pub fn flush(&self) -> Res<()> {
        self.cluster.try_flush().map_err(|e| format!("flush: {e}"))
    }

    /// Re-opens every node from its directory alone, as after a process
    /// restart.
    pub fn restart_all(&self) -> Res<Vec<RecoveryReport>> {
        self.cluster
            .node_ids()
            .into_iter()
            .map(|id| {
                self.cluster
                    .restart_node_from_disk(id)
                    .map_err(|e| format!("restart node {id}: {e}"))
            })
            .collect()
    }

    /// Bytes in regular files under the scratch root (`journal.wal` and
    /// `container-*.sc` of every node). Call after `flush`.
    pub fn stored_bytes(&self) -> Res<u64> {
        dir_bytes(&self.root)
    }

    /// Stops the listener, joins its threads and removes the scratch root.
    pub fn finish(mut self) -> Res<()> {
        self.service.shutdown();
        std::fs::remove_dir_all(&self.root).map_err(|e| format!("remove scratch: {e}"))?;
        match self.root.parent() {
            Some(parent) => settle(parent),
            None => Ok(()),
        }
    }
}

/// Fsyncs a directory, which commits the file system's running transaction.
/// The disk here is mounted with `discard`: blocks of removed files are
/// trimmed when their removal commits, and a commit that falls into the next
/// round (or the next run) stalls that round's first fsyncs. Called after
/// every removal and once before a run starts, off the clock.
pub fn settle(dir: &Path) -> Res<()> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("fsync {}: {e}", dir.display()))
}

fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let meta = entry
            .metadata()
            .map_err(|e| format!("stat {}: {e}", entry.path().display()))?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Scratch root: `$SIGMA_E2E_DIR`, else `.sigma-e2e-scratch` in the working
/// directory (the benchmark may write only inside its checkout).
pub fn scratch_root() -> PathBuf {
    std::env::var_os("SIGMA_E2E_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".sigma-e2e-scratch"))
}

/// Refuses to start on a nearly full disk. `df` is asked because the
/// standard library has no call for free space; where `df` is missing the
/// check is skipped with a note, not failed.
pub fn check_free_space(dir: &Path) -> Res<()> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let out = match std::process::Command::new("df")
        .arg("-Pk")
        .arg(dir)
        .output()
    {
        Ok(out) if out.status.success() => out,
        _ => {
            eprintln!("note: `df` unavailable, free-space check skipped");
            return Ok(());
        }
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let free_kib = text
        .lines()
        .nth(1)
        .and_then(|line| line.split_whitespace().nth(3))
        .and_then(|field| field.parse::<u64>().ok());
    match free_kib {
        Some(kib) if kib * 1024 < MIN_FREE_BYTES => Err(format!(
            "{} has {} MiB free, {} MiB needed",
            dir.display(),
            kib / 1024,
            MIN_FREE_BYTES >> 20
        )),
        Some(_) => Ok(()),
        None => {
            eprintln!("note: `df` output not understood, free-space check skipped");
            Ok(())
        }
    }
}

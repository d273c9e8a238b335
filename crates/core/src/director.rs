//! The director: backup-session, generation and file-recipe management.
//!
//! The director (Figure 2) is the control-plane component that keeps track of which
//! files were backed up, in which session and backup *generation*, and how to
//! reconstruct them: a *file recipe* lists, in order, every chunk fingerprint of the
//! file together with its size and the node that stores it.  No chunk data flows
//! through the director.
//!
//! Recipes are the cluster's **root set**: a chunk is live exactly as long as some
//! registered recipe references it.  Deleting a file or a whole backup therefore
//! only removes metadata here — the space its now-unreferenced chunks occupy is
//! reclaimed by the next [`DedupCluster::collect_garbage`](crate::DedupCluster::collect_garbage)
//! sweep.

use parking_lot::Mutex;
use sigma_hashkit::Fingerprint;
use std::sync::Arc;

/// Identifier of a backed-up file.
pub type FileId = u64;

/// One entry of a file recipe: a chunk and where it lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecipeEntry {
    /// The chunk's fingerprint.
    pub fingerprint: Fingerprint,
    /// The chunk's length in bytes.
    pub len: u32,
    /// The deduplication node holding the chunk.
    pub node: usize,
}

/// Everything needed to reconstruct one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecipe {
    /// The file's identifier (assigned by the director).
    pub file_id: FileId,
    /// Client-supplied file name.
    pub name: String,
    /// Logical file size in bytes.
    pub size: u64,
    /// Chunks in file order.
    pub chunks: Vec<RecipeEntry>,
    /// The backup session this file belongs to.
    pub session_id: u64,
}

/// A group of files backed up together by one client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupSession {
    /// Session identifier.
    pub session_id: u64,
    /// Client-supplied name (e.g. hostname).
    pub client: String,
    /// Files registered in this session.
    pub files: Vec<FileId>,
    /// The backup generation this session belongs to (0 unless the caller
    /// groups sessions into generations; see
    /// [`open_session_in_generation`](Director::open_session_in_generation)).
    pub generation: u64,
}

#[derive(Debug, Default)]
struct DirectorInner {
    next_file_id: FileId,
    next_session_id: u64,
    recipes: std::collections::HashMap<FileId, Arc<FileRecipe>>,
    sessions: std::collections::HashMap<u64, BackupSession>,
    /// Every session's generation, surviving the session's deletion: a client
    /// that keeps registering files after its session was expired gets the
    /// session lazily recreated *in its original generation*, so the next
    /// expiry of that generation still covers it (instead of the file silently
    /// re-homing into generation 0 and escaping its retention policy).
    session_generations: std::collections::HashMap<u64, u64>,
    /// Tenant tag per session, for multi-tenant accounting.  Like
    /// `session_generations` this survives the session's deletion, so a
    /// straggler file registered after expiry is still attributed to the
    /// tenant that owns the stream.
    session_tenants: std::collections::HashMap<u64, String>,
}

/// The metadata service of the cluster.
///
/// # Example
///
/// ```
/// use sigma_core::Director;
///
/// let director = Director::new();
/// let session = director.open_session_in_generation("client-a", 0);
/// let file = director.register_file(session, "etc/passwd", 1234, Vec::new());
/// assert_eq!(director.recipe(file).unwrap().name, "etc/passwd");
/// assert_eq!(director.session(session).unwrap().files, vec![file]);
/// director.delete_file(file).unwrap();
/// assert!(director.recipe(file).is_none());
/// ```
#[derive(Debug, Default)]
pub struct Director {
    inner: Mutex<DirectorInner>,
}

impl Director {
    /// Creates an empty director.
    pub fn new() -> Self {
        Director::default()
    }

    /// Opens a new backup session for `client`, tagged with a backup generation.
    ///
    /// Generations are the retention unit of a protection workload: each nightly
    /// (weekly, …) backup wave opens its sessions in the next generation, and an
    /// expiry policy deletes whole generations at once with
    /// [`delete_generation`](Director::delete_generation).
    pub fn open_session_in_generation(&self, client: &str, generation: u64) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next_session_id;
        inner.next_session_id += 1;
        inner.session_generations.insert(id, generation);
        inner.sessions.insert(
            id,
            BackupSession {
                session_id: id,
                client: client.to_string(),
                files: Vec::new(),
                generation,
            },
        );
        id
    }

    /// Opens a backup session tagged with the tenant that owns it, in the
    /// given generation.
    ///
    /// The tag feeds the per-tenant accounting the service layer surfaces:
    /// [`logical_bytes_by_tenant`](Director::logical_bytes_by_tenant) sums
    /// each tenant's registered recipe bytes, while the chunks those recipes
    /// reference remain shared — deduplicated — across tenants.
    pub fn open_tenant_session(&self, client: &str, generation: u64, tenant: &str) -> u64 {
        let session_id = self.open_session_in_generation(client, generation);
        self.inner
            .lock()
            .session_tenants
            .insert(session_id, tenant.to_string());
        session_id
    }

    /// The tenant tag of a session, if it was opened with
    /// [`open_tenant_session`](Director::open_tenant_session).  Survives the
    /// session's deletion, like its generation.
    pub fn session_tenant(&self, session_id: u64) -> Option<String> {
        self.inner.lock().session_tenants.get(&session_id).cloned()
    }

    /// The tenant tag of a registered file's session: `None` for an absent
    /// file or an untagged session.
    pub fn file_tenant(&self, file_id: FileId) -> Option<String> {
        let inner = self.inner.lock();
        let recipe = inner.recipes.get(&file_id)?;
        inner.session_tenants.get(&recipe.session_id).cloned()
    }

    /// Every registered recipe whose session carries `tenant`'s tag, in one
    /// pass under one lock.
    pub fn tenant_recipes(&self, tenant: &str) -> Vec<Arc<FileRecipe>> {
        let inner = self.inner.lock();
        inner
            .recipes
            .values()
            .filter(|r| {
                inner.session_tenants.get(&r.session_id).map(String::as_str) == Some(tenant)
            })
            .cloned()
            .collect()
    }

    /// Logical bytes of every registered recipe, grouped by the owning
    /// session's tenant tag.  Recipes of untagged sessions are excluded.
    pub fn logical_bytes_by_tenant(&self) -> std::collections::BTreeMap<String, u64> {
        let inner = self.inner.lock();
        let mut out = std::collections::BTreeMap::new();
        for recipe in inner.recipes.values() {
            if let Some(tenant) = inner.session_tenants.get(&recipe.session_id) {
                *out.entry(tenant.clone()).or_insert(0) += recipe.size;
            }
        }
        out
    }

    /// Logical bytes of recipes whose sessions carry no tenant tag
    /// (trace-driven or direct [`BackupClient`](crate::BackupClient) use).
    #[cfg(test)]
    fn untagged_logical_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .recipes
            .values()
            .filter(|r| !inner.session_tenants.contains_key(&r.session_id))
            .map(|r| r.size)
            .sum()
    }

    /// Registers a completed file backup and returns its file ID.
    ///
    /// Unknown session IDs are tolerated (a session record is created lazily), so
    /// trace-driven callers may pass `0`.
    pub fn register_file(
        &self,
        session_id: u64,
        name: &str,
        size: u64,
        chunks: Vec<RecipeEntry>,
    ) -> FileId {
        let mut inner = self.inner.lock();
        let file_id = inner.next_file_id;
        inner.next_file_id += 1;
        inner.recipes.insert(
            file_id,
            Arc::new(FileRecipe {
                file_id,
                name: name.to_string(),
                size,
                chunks,
                session_id,
            }),
        );
        // Lazy session creation tolerates unknown IDs (trace-driven callers
        // pass 0) — but a session that *was* opened and has since been deleted
        // is recreated in its original generation, so a straggling client
        // cannot smuggle files out of its retention policy.
        let generation = inner
            .session_generations
            .get(&session_id)
            .copied()
            .unwrap_or(0);
        inner
            .sessions
            .entry(session_id)
            .or_insert_with(|| BackupSession {
                session_id,
                client: String::new(),
                files: Vec::new(),
                generation,
            })
            .files
            .push(file_id);
        file_id
    }

    /// The recipe of a file, if it exists.
    ///
    /// Recipes are shared by reference: the returned [`Arc`] aliases the
    /// director's copy, so restores and the GC mark phase never clone the
    /// per-chunk vector on their hot paths.
    pub fn recipe(&self, file_id: FileId) -> Option<Arc<FileRecipe>> {
        self.inner.lock().recipes.get(&file_id).cloned()
    }

    /// Snapshot of every registered recipe — the GC mark phase's root set.
    ///
    /// Sorted by file ID so mark traversals (and the journal records they lead
    /// to) are deterministic.  Cost is one `Arc` clone per file, never a copy of
    /// the chunk vectors.
    pub fn recipes(&self) -> Vec<Arc<FileRecipe>> {
        let mut out: Vec<Arc<FileRecipe>> = self.inner.lock().recipes.values().cloned().collect();
        out.sort_unstable_by_key(|r| r.file_id);
        out
    }

    /// A backup session, if it exists.
    pub fn session(&self, session_id: u64) -> Option<BackupSession> {
        self.inner.lock().sessions.get(&session_id).cloned()
    }

    /// IDs of the sessions opened in `generation`, sorted ascending.
    pub fn sessions_in_generation(&self, generation: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .inner
            .lock()
            .sessions
            .values()
            .filter(|s| s.generation == generation)
            .map(|s| s.session_id)
            .collect();
        out.sort_unstable();
        out
    }

    /// The distinct generations that still have sessions, sorted ascending.
    pub fn generations(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .inner
            .lock()
            .sessions
            .values()
            .map(|s| s.generation)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Deletes one file's recipe, removing it from its session's file list.
    ///
    /// Returns the deleted recipe (the caller needs it to account the deletion
    /// and to know which nodes to notify), or `None` for unknown — including
    /// already-deleted — file IDs.  The file's chunks become garbage only to the
    /// extent no surviving recipe references them; nothing is reclaimed until
    /// the next GC sweep.
    pub fn delete_file(&self, file_id: FileId) -> Option<Arc<FileRecipe>> {
        let mut inner = self.inner.lock();
        let recipe = inner.recipes.remove(&file_id)?;
        if let Some(session) = inner.sessions.get_mut(&recipe.session_id) {
            session.files.retain(|&f| f != file_id);
        }
        Some(recipe)
    }

    /// Deletes a whole backup: the session and every file registered in it.
    ///
    /// Returns the deleted recipes (sorted by file ID), or `None` for unknown
    /// session IDs.
    pub fn delete_backup(&self, session_id: u64) -> Option<Vec<Arc<FileRecipe>>> {
        let mut inner = self.inner.lock();
        let session = inner.sessions.remove(&session_id)?;
        let mut recipes: Vec<Arc<FileRecipe>> = session
            .files
            .iter()
            .filter_map(|f| inner.recipes.remove(f))
            .collect();
        recipes.sort_unstable_by_key(|r| r.file_id);
        Some(recipes)
    }

    /// Deletes every session (and file) of a backup generation — the expiry
    /// primitive of a retention policy.  Returns the deleted recipes, sorted by
    /// file ID; an empty vector when the generation has no sessions.
    pub fn delete_generation(&self, generation: u64) -> Vec<Arc<FileRecipe>> {
        let sessions = self.sessions_in_generation(generation);
        let mut out = Vec::new();
        for session in sessions {
            if let Some(mut recipes) = self.delete_backup(session) {
                out.append(&mut recipes);
            }
        }
        out.sort_unstable_by_key(|r| r.file_id);
        out
    }

    /// Number of registered files.
    pub fn file_count(&self) -> usize {
        self.inner.lock().recipes.len()
    }

    /// Number of sessions.
    pub fn session_count(&self) -> usize {
        self.inner.lock().sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_hashkit::{Digest, Sha1};

    fn entry(i: u64) -> RecipeEntry {
        RecipeEntry {
            fingerprint: Sha1::fingerprint(&i.to_le_bytes()),
            len: 4096,
            node: (i % 4) as usize,
        }
    }

    #[test]
    fn sessions_group_files() {
        let d = Director::new();
        let s1 = d.open_session_in_generation("alpha", 0);
        let s2 = d.open_session_in_generation("beta", 0);
        let f1 = d.register_file(s1, "a.txt", 100, vec![entry(1)]);
        let f2 = d.register_file(s1, "b.txt", 200, vec![entry(2)]);
        let f3 = d.register_file(s2, "c.txt", 300, vec![entry(3)]);
        assert_eq!(d.session(s1).unwrap().files, vec![f1, f2]);
        assert_eq!(d.session(s2).unwrap().files, vec![f3]);
        assert_eq!(d.session(s1).unwrap().client, "alpha");
        assert_eq!(d.file_count(), 3);
        assert_eq!(d.session_count(), 2);
        assert_eq!(d.recipes().iter().map(|r| r.size).sum::<u64>(), 600);
    }

    #[test]
    fn recipes_preserve_chunk_order() {
        let d = Director::new();
        let chunks: Vec<RecipeEntry> = (0..10).map(entry).collect();
        let f = d.register_file(0, "ordered.bin", 40960, chunks.clone());
        assert_eq!(d.recipe(f).unwrap().chunks, chunks);
    }

    #[test]
    fn recipe_access_shares_rather_than_clones() {
        let d = Director::new();
        let f = d.register_file(0, "big", 1 << 20, (0..256).map(entry).collect());
        let a = d.recipe(f).unwrap();
        let b = d.recipe(f).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "accessors alias one allocation");
        assert!(Arc::ptr_eq(&a, &d.recipes()[0]));
    }

    #[test]
    fn unknown_ids_return_none() {
        let d = Director::new();
        assert!(d.recipe(42).is_none());
        assert!(d.session(42).is_none());
        assert!(d.delete_file(42).is_none());
        assert!(d.delete_backup(42).is_none());
        assert!(d.delete_generation(42).is_empty());
    }

    #[test]
    fn lazy_session_creation_for_unknown_session_ids() {
        let d = Director::new();
        let f = d.register_file(99, "orphan", 1, Vec::new());
        assert_eq!(d.session(99).unwrap().files, vec![f]);
        assert_eq!(d.session(99).unwrap().generation, 0);
    }

    #[test]
    fn file_ids_are_unique_and_monotonic() {
        let d = Director::new();
        let ids: Vec<FileId> = (0..100)
            .map(|i| d.register_file(0, &format!("f{}", i), 1, Vec::new()))
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
    }

    #[test]
    fn delete_file_removes_recipe_and_session_entry() {
        let d = Director::new();
        let s = d.open_session_in_generation("alpha", 0);
        let f1 = d.register_file(s, "a", 100, vec![entry(1)]);
        let f2 = d.register_file(s, "b", 200, vec![entry(2)]);
        let deleted = d.delete_file(f1).unwrap();
        assert_eq!(deleted.size, 100);
        assert!(d.recipe(f1).is_none());
        assert_eq!(d.session(s).unwrap().files, vec![f2]);
        assert_eq!(d.recipes().iter().map(|r| r.size).sum::<u64>(), 200);
        // Double delete reports not-found rather than panicking.
        assert!(d.delete_file(f1).is_none());
        // File IDs are never reused after a deletion.
        let f3 = d.register_file(s, "c", 1, Vec::new());
        assert!(f3 > f2);
    }

    #[test]
    fn delete_backup_removes_the_whole_session() {
        let d = Director::new();
        let s1 = d.open_session_in_generation("alpha", 0);
        let s2 = d.open_session_in_generation("beta", 0);
        let f1 = d.register_file(s1, "a", 100, vec![entry(1)]);
        let f2 = d.register_file(s1, "b", 200, vec![entry(2)]);
        let f3 = d.register_file(s2, "c", 300, vec![entry(3)]);
        let deleted = d.delete_backup(s1).unwrap();
        assert_eq!(
            deleted.iter().map(|r| r.file_id).collect::<Vec<_>>(),
            vec![f1, f2]
        );
        assert!(d.session(s1).is_none());
        assert!(d.recipe(f1).is_none());
        assert!(d.recipe(f2).is_none());
        assert_eq!(d.recipe(f3).unwrap().size, 300);
        assert_eq!(d.session_count(), 1);
        assert!(d.delete_backup(s1).is_none(), "double delete is not-found");
    }

    #[test]
    fn straggler_files_after_expiry_stay_in_their_generation() {
        // A client keeps writing after its session was expired: the lazily
        // recreated session must come back in the *original* generation, so
        // the next expiry of that generation still covers the straggler.
        let d = Director::new();
        let s = d.open_session_in_generation("nightly", 5);
        d.register_file(s, "wave-1", 10, vec![entry(1)]);
        assert_eq!(d.delete_generation(5).len(), 1);
        let straggler = d.register_file(s, "wave-1-late", 10, vec![entry(2)]);
        assert_eq!(d.session(s).unwrap().generation, 5, "generation preserved");
        let expired = d.delete_generation(5);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].file_id, straggler);
        assert!(d.recipe(straggler).is_none());
        // Generation-0 expiry never saw it.
        assert!(d.delete_generation(0).is_empty());
    }

    #[test]
    fn tenant_tags_partition_logical_bytes() {
        let d = Director::new();
        let sa = d.open_tenant_session("host-1", 0, "acme");
        let sb = d.open_tenant_session("host-2", 0, "globex");
        let untagged = d.open_session_in_generation("host-3", 0);
        d.register_file(sa, "a1", 100, vec![entry(1)]);
        d.register_file(sa, "a2", 250, vec![entry(2)]);
        d.register_file(sb, "b1", 300, vec![entry(3)]);
        d.register_file(untagged, "u1", 50, vec![entry(4)]);
        let by_tenant = d.logical_bytes_by_tenant();
        assert_eq!(by_tenant["acme"], 350);
        assert_eq!(by_tenant["globex"], 300);
        assert_eq!(by_tenant.len(), 2, "untagged sessions are not a tenant");
        assert_eq!(d.untagged_logical_bytes(), 50);
        assert_eq!(
            by_tenant.values().sum::<u64>() + d.untagged_logical_bytes(),
            d.recipes().iter().map(|r| r.size).sum::<u64>(),
            "tenant partition covers every registered byte"
        );
        assert_eq!(d.session_tenant(sa).as_deref(), Some("acme"));
        assert_eq!(d.session_tenant(untagged), None);
        let mut acme: Vec<String> = d
            .tenant_recipes("acme")
            .iter()
            .map(|r| r.name.clone())
            .collect();
        acme.sort_unstable();
        assert_eq!(acme, ["a1", "a2"]);
        assert!(d.tenant_recipes("initech").is_empty());
        let b1 = d.tenant_recipes("globex")[0].file_id;
        assert_eq!(d.file_tenant(b1).as_deref(), Some("globex"));
        d.delete_file(b1);
        assert_eq!(d.file_tenant(b1), None, "an absent file has no tenant");
        let u1 = d.register_file(untagged, "u2", 1, Vec::new());
        assert_eq!(d.file_tenant(u1), None, "nor does an untagged one");
    }

    #[test]
    fn tenant_tag_survives_session_expiry() {
        // A straggler registered after its session was expired must still be
        // attributed to the owning tenant (mirrors the generation-preserving
        // lazy recreation).
        let d = Director::new();
        let s = d.open_tenant_session("nightly", 3, "acme");
        d.register_file(s, "wave", 10, vec![entry(1)]);
        assert_eq!(d.delete_generation(3).len(), 1);
        let late = d.register_file(s, "late", 70, vec![entry(2)]);
        assert_eq!(d.logical_bytes_by_tenant()["acme"], 70);
        assert_eq!(d.session_tenant(s).as_deref(), Some("acme"));
        assert_eq!(d.file_tenant(late).as_deref(), Some("acme"));
        assert_eq!(d.tenant_recipes("acme").len(), 1);
    }

    #[test]
    fn generations_group_and_expire_sessions() {
        let d = Director::new();
        let mut by_gen = Vec::new();
        for generation in 0..3u64 {
            let s = d.open_session_in_generation("nightly", generation);
            let f = d.register_file(
                s,
                &format!("gen-{}", generation),
                10,
                vec![entry(generation)],
            );
            by_gen.push((generation, s, f));
        }
        assert_eq!(d.generations(), vec![0, 1, 2]);
        assert_eq!(d.sessions_in_generation(1), vec![by_gen[1].1]);
        let expired = d.delete_generation(0);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].file_id, by_gen[0].2);
        assert_eq!(d.generations(), vec![1, 2]);
        assert!(d.recipe(by_gen[0].2).is_none());
        assert!(d.recipe(by_gen[1].2).is_some());
    }
}

//! The container-aware restore pipeline: plan → read → assemble.
//!
//! The serial reference restore ([`DedupCluster::restore_file_reference`],
//! kept for tests and benches to compare against) walks the recipe one chunk
//! at a time: each entry re-resolves the node directory, pays one container
//! lookup, allocates a fresh `Vec` for the payload and copies it a second
//! time into the output.  That is one backend read per chunk, in recipe
//! order — on the file backend, random I/O across container files.
//!
//! The pipeline here keeps the same observable behaviour while restructuring
//! the work around *containers*, the unit the storage layer is actually fast
//! at:
//!
//! 1. **Plan** — walk the recipe once, resolving every entry to its record
//!    extent with the same counted chunk-index lookup and tombstone
//!    follow-through as the serial path, and group the entries by
//!    `(node, container)`.
//! 2. **Read** — each group becomes one
//!    [`read_chunks_batched`](sigma_storage::ContainerStore::read_chunks_batched)
//!    call: the node's container read cache serves a resident container from
//!    RAM, and a miss reads the whole data section once and caches it.
//! 3. **Assemble** — every chunk decodes *directly* into its slice of the
//!    preallocated output buffer (offsets are known from the recipe), so the
//!    per-chunk double copy of the serial path is gone.
//!
//! Groups run on the caller's thread, in the order of their first recipe
//! entry.
//!
//! A group that fails its batched read (a migration or GC racing the plan,
//! or a corrupt record past its container's data section) falls back to
//! per-chunk [`DedupCluster::read_chunk`], which re-follows tombstone chains
//! and reproduces the serial error.  A recipe that disagrees with itself or
//! with the store on a chunk's length fails with
//! [`SigmaError::RestoreTruncated`]: the restore never returns bytes that do
//! not add up to the recipe.

use crate::cluster::DedupCluster;
use crate::director::FileId;
use crate::{Result, SigmaError};
use sigma_hashkit::Fingerprint;
use sigma_storage::{ChunkFetch, ContainerId};
use std::collections::HashMap;

/// What one planned restore did — the pipeline's observability surface.
///
/// One type sums at every level: each `(node, container)` group's work is a
/// report, a restore's is the [`absorb`](Self::absorb)ed sum of its groups,
/// and the service layer's `Stats` totals are the sum of every restore's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Logical bytes delivered to the caller.
    pub logical_bytes: u64,
    /// Chunk payloads decoded.
    pub chunks_read: u64,
    /// Distinct `(node, container)` groups the plan read.
    pub containers_read: u64,
    /// Container-read-cache hits across groups.
    pub cache_hits: u64,
    /// Container-read-cache misses across groups.
    pub cache_misses: u64,
    /// Bytes actually read from storage backends (RAM serves count as their
    /// logical length, cache hits as zero).
    pub backend_bytes_read: u64,
    /// Backend reads issued: one whole data section per cache miss.
    pub coalesced_runs: u64,
    /// Payload bytes memcpy'd while assembling the output.  The pipeline
    /// writes each byte exactly once (`bytes_copied == logical_bytes`); the
    /// reference path's per-chunk `Vec` + `extend_from_slice` costs two.
    pub bytes_copied: u64,
    /// Chunks served by the per-chunk serial fallback (a batched read that
    /// raced a migration or GC, or met a corrupt record).
    pub serial_fallback_chunks: u64,
}

impl RestoreReport {
    /// Backend bytes read per logical byte restored (0 when nothing was
    /// restored); below 1.0 means the read cache absorbed repeat visits.
    pub fn read_amplification(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            self.backend_bytes_read as f64 / self.logical_bytes as f64
        }
    }

    /// Adds every field of `other` into `self`.
    pub fn absorb(&mut self, other: &RestoreReport) {
        self.logical_bytes += other.logical_bytes;
        self.chunks_read += other.chunks_read;
        self.containers_read += other.containers_read;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.backend_bytes_read += other.backend_bytes_read;
        self.coalesced_runs += other.coalesced_runs;
        self.bytes_copied += other.bytes_copied;
        self.serial_fallback_chunks += other.serial_fallback_chunks;
    }
}

/// One planned entry: where the chunk's bytes come from and the output window
/// they decode into.
struct PlannedFetch<'a> {
    /// Position in the recipe — orders failures exactly as the serial path
    /// would surface them.
    index: usize,
    fingerprint: Fingerprint,
    /// The node the *recipe* recorded; the fallback re-follows tombstones
    /// from here, not from wherever the plan last saw the chunk.
    recipe_node: usize,
    offset: u32,
    out: &'a mut [u8],
}

/// All of one container's planned fetches: one batched read.
struct Group<'a> {
    node: usize,
    container: ContainerId,
    fetches: Vec<PlannedFetch<'a>>,
}

impl DedupCluster {
    /// Reconstructs a file and reports what the restore pipeline did;
    /// [`restore_file`](Self::restore_file) is this without the report.
    ///
    /// # Errors
    ///
    /// Exactly as [`restore_file`](Self::restore_file).
    pub fn restore_file_with_report(&self, file_id: FileId) -> Result<(Vec<u8>, RestoreReport)> {
        let recipe = self
            .director()
            .recipe(file_id)
            .ok_or(SigmaError::FileNotFound(file_id))?;
        let total: u64 = recipe.chunks.iter().map(|e| u64::from(e.len)).sum();
        if total != recipe.size {
            return Err(SigmaError::RestoreTruncated {
                file_id,
                expected: recipe.size,
                actual: total,
            });
        }
        // A chunk the store holds at another length than its entry: the
        // recipe's size with that entry's length replaced by the stored one.
        let truncated = |entry_len: usize, stored_len: usize| SigmaError::RestoreTruncated {
            file_id,
            expected: recipe.size,
            actual: recipe.size - entry_len as u64 + stored_len as u64,
        };

        let mut out = vec![0u8; total as usize];
        // Carve the output into one disjoint window per recipe entry; chained
        // `split_at_mut` keeps this safe-code-only.
        let mut windows: Vec<Option<&mut [u8]>> = Vec::with_capacity(recipe.chunks.len());
        {
            let mut rest: &mut [u8] = out.as_mut_slice();
            for entry in &recipe.chunks {
                let (head, tail) = rest.split_at_mut(entry.len as usize);
                windows.push(Some(head));
                rest = tail;
            }
        }

        // Plan: resolve every entry in recipe order (so the first locate
        // failure surfaces in serial order) and group by (node, container).
        let mut by_container: HashMap<(usize, ContainerId), Vec<PlannedFetch<'_>>> = HashMap::new();
        for (index, entry) in recipe.chunks.iter().enumerate() {
            let (node, location) = self.resolve_chunk(entry.node, &entry.fingerprint, |n| {
                n.plan_chunk_read(&entry.fingerprint)
            })?;
            if location.len != entry.len {
                return Err(truncated(entry.len as usize, location.len as usize));
            }
            by_container
                .entry((node, location.container))
                .or_default()
                .push(PlannedFetch {
                    index,
                    fingerprint: entry.fingerprint,
                    recipe_node: entry.node,
                    offset: location.offset,
                    out: windows[index].take().expect("each entry is carved once"),
                });
        }

        // Deterministic group order (first recipe index).
        let mut groups: Vec<Group<'_>> = by_container
            .into_iter()
            .map(|((node, container), mut fetches)| {
                fetches.sort_unstable_by_key(|f| f.index);
                Group {
                    node,
                    container,
                    fetches,
                }
            })
            .collect();
        groups.sort_unstable_by_key(|g| g.fetches[0].index);

        let mut report = RestoreReport {
            logical_bytes: total,
            ..RestoreReport::default()
        };
        // Every group runs; the error reported is the one at the earliest
        // recipe index, which a later group can hold.
        let mut failure: Option<(usize, SigmaError)> = None;
        for group in groups {
            match self.fetch_group(group, &truncated) {
                Ok(group) => report.absorb(&group),
                Err((index, error)) => {
                    if failure.as_ref().is_none_or(|(i, _)| index < *i) {
                        failure = Some((index, error));
                    }
                }
            }
        }
        if let Some((_, error)) = failure {
            return Err(error);
        }
        Ok((out, report))
    }

    /// Runs one group: a batched container read, with a per-chunk serial
    /// fallback that re-follows tombstones when the batch fails (a migration
    /// or GC raced the plan, or a record in the group is corrupt, which the
    /// serial read reports as the same storage error).  A failure comes back
    /// with its recipe index: the fallback stops at the group's first, which
    /// is its earliest in recipe order.  A fallback read of another length
    /// than the chunk's entry fails with `truncated(entry_len, stored_len)`.
    fn fetch_group(
        &self,
        group: Group<'_>,
        truncated: &impl Fn(usize, usize) -> SigmaError,
    ) -> std::result::Result<RestoreReport, (usize, SigmaError)> {
        let mut report = RestoreReport {
            containers_read: 1,
            ..RestoreReport::default()
        };
        let meta: Vec<(usize, usize)> = group
            .fetches
            .iter()
            .map(|f| (f.index, f.recipe_node))
            .collect();
        let mut fetches: Vec<ChunkFetch<'_>> = group
            .fetches
            .into_iter()
            .map(|f| ChunkFetch {
                fingerprint: f.fingerprint,
                offset: f.offset,
                out: f.out,
            })
            .collect();
        let batched = match self.node_by_id(group.node) {
            Some(node) => node.read_chunks_batched(&group.container, &mut fetches),
            None => Err(SigmaError::ChunkMissing {
                node: group.node,
                fingerprint: fetches[0].fingerprint.to_string(),
            }),
        };
        match batched {
            Ok(s) => {
                report.chunks_read = s.chunks;
                report.backend_bytes_read = s.backend_bytes_read;
                // The store reads a whole data section once per miss.
                report.coalesced_runs = s.cache_misses;
                report.cache_hits = s.cache_hits;
                report.cache_misses = s.cache_misses;
                // Serves from RAM and cache hits still copy each payload
                // into the output exactly once.
                report.bytes_copied = fetches.iter().map(|f| f.out.len() as u64).sum();
                if s.backend_bytes_read == 0 {
                    // A still-open container was served from its in-memory
                    // builder: count the logical bytes so read amplification
                    // stays 1.0...
                    if s.cache_hits == 0 {
                        report.backend_bytes_read = report.bytes_copied;
                    }
                    // ...but a cache hit genuinely skipped the medium.
                }
            }
            Err(_) => {
                for (fetch, &(index, recipe_node)) in fetches.iter_mut().zip(&meta) {
                    let data = self
                        .read_chunk(recipe_node, &fetch.fingerprint)
                        .map_err(|error| (index, error))?;
                    if data.len() != fetch.out.len() {
                        return Err((index, truncated(fetch.out.len(), data.len())));
                    }
                    fetch.out.copy_from_slice(&data);
                    report.chunks_read += 1;
                    report.serial_fallback_chunks += 1;
                    report.backend_bytes_read += data.len() as u64;
                    // One copy into the chunk's Vec, one into place.
                    report.bytes_copied += 2 * data.len() as u64;
                }
            }
        }
        Ok(report)
    }
}

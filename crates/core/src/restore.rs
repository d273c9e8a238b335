//! The container-aware restore pipeline: plan → coalesce → cache → assemble.
//!
//! The serial reference restore ([`DedupCluster::restore_file_reference`])
//! walks the recipe one chunk at a time: each entry re-resolves the node
//! directory, pays one container lookup, allocates a fresh `Vec` for the
//! payload and copies it a second time into the output.  That is one backend
//! read per chunk, in recipe order — on the file backend, random I/O across
//! container files.
//!
//! The pipeline here keeps the same observable behaviour while restructuring
//! the work around *containers*, the unit the storage layer is actually fast
//! at:
//!
//! 1. **Plan** — walk the recipe once, resolving every entry to its record
//!    extent with the same counted chunk-index lookup and tombstone
//!    follow-through as the serial path, and group the entries by
//!    `(node, container)`.
//! 2. **Coalesce** — each group becomes one
//!    [`read_chunks_batched`](sigma_storage::ContainerStore::read_chunks_batched)
//!    call: adjacent/nearby extents merge into one backend read per run, and a
//!    [container read cache](sigma_storage::ContainerReadCache) serves repeat
//!    visits from RAM.
//! 3. **Assemble** — every chunk decodes *directly* into its slice of the
//!    preallocated output buffer (offsets are known from the recipe), so the
//!    per-chunk double copy of the serial path is gone even at
//!    `restore_parallelism = 1`.
//! 4. **Fan out** — groups run on the ingest pipeline's worker pool
//!    ([`run_pool`]), `SigmaConfig::restore_parallelism` wide; output order
//!    is free because each group writes disjoint slices.
//!
//! Semantics are pinned to the serial path: a group that fails its batched
//! read (a migration or GC racing the plan, or a corrupt record past its
//! container's data section) falls back to per-chunk
//! [`DedupCluster::read_chunk`], which re-follows tombstone chains and
//! reproduces the serial error; when the plan cannot
//! even represent the recipe (layout disagreement between recipe and index)
//! the whole restore re-runs on the reference path, preserving the
//! [`SigmaError::RestoreTruncated`] end-to-end guard byte for byte.

use crate::cluster::DedupCluster;
use crate::director::{FileId, FileRecipe};
use crate::pipeline::run_pool;
use crate::{Result, SigmaError};
use sigma_hashkit::Fingerprint;
use sigma_storage::{ChunkFetch, ContainerId};
use std::collections::HashMap;

/// What one planned restore did — the pipeline's observability surface,
/// aggregated into `sigma_metrics::RestoreCounters` by the service layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Logical bytes delivered to the caller.
    pub logical_bytes: u64,
    /// Chunk payloads decoded.
    pub chunks_read: u64,
    /// Distinct `(node, container)` groups the plan fanned out to.
    pub containers_read: u64,
    /// Container-read-cache hits across groups.
    pub cache_hits: u64,
    /// Container-read-cache misses across groups.
    pub cache_misses: u64,
    /// Bytes actually read from storage backends (RAM serves count as their
    /// logical length, cache hits as zero).
    pub backend_bytes_read: u64,
    /// Backend reads issued after extent coalescing.
    pub coalesced_runs: u64,
    /// Payload bytes memcpy'd while assembling the output.  The pipeline
    /// writes each byte exactly once (`bytes_copied == logical_bytes`); the
    /// reference path's per-chunk `Vec` + `extend_from_slice` costs two.
    pub bytes_copied: u64,
    /// Chunks served by the per-chunk serial fallback (plan/read races,
    /// or the whole restore re-run on the reference path).
    pub serial_fallback_chunks: u64,
    /// Worker threads the group fan-out ran on.
    pub parallelism: usize,
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

    fn absorb_group(&mut self, g: &GroupStats) {
        self.chunks_read += g.chunks;
        self.containers_read += g.containers_read;
        self.cache_hits += g.cache_hits;
        self.cache_misses += g.cache_misses;
        self.backend_bytes_read += g.backend_bytes_read;
        self.coalesced_runs += g.coalesced_runs;
        self.bytes_copied += g.bytes_copied;
        self.serial_fallback_chunks += g.serial_fallback_chunks;
    }

    /// The report shape of a restore that ran (or re-ran) on the reference
    /// path: every chunk serial, every byte copied twice.
    fn reference(bytes: &[u8], chunks: usize) -> RestoreReport {
        RestoreReport {
            logical_bytes: bytes.len() as u64,
            chunks_read: chunks as u64,
            containers_read: 0,
            backend_bytes_read: bytes.len() as u64,
            bytes_copied: 2 * bytes.len() as u64,
            serial_fallback_chunks: chunks as u64,
            parallelism: 1,
            ..RestoreReport::default()
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct GroupStats {
    chunks: u64,
    containers_read: u64,
    cache_hits: u64,
    cache_misses: u64,
    backend_bytes_read: u64,
    coalesced_runs: u64,
    bytes_copied: u64,
    serial_fallback_chunks: u64,
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

/// All of one container's planned fetches — the unit of fan-out.
struct Group<'a> {
    node: usize,
    container: ContainerId,
    fetches: Vec<PlannedFetch<'a>>,
}

enum GroupOutcome {
    Done(GroupStats),
    /// The earliest-in-recipe-order failure of the group's serial fallback.
    Failed {
        index: usize,
        error: SigmaError,
    },
    /// The plan no longer matches reality (a payload length shifted under
    /// it); the whole restore must re-run on the reference path.
    Replan,
}

impl DedupCluster {
    /// Reconstructs a file and reports what the restore pipeline did.
    ///
    /// Runs the planned pipeline at
    /// [`SigmaConfig::effective_restore_parallelism`](crate::SigmaConfig::effective_restore_parallelism);
    /// [`restore_file`](Self::restore_file) is this without the report.
    ///
    /// # Errors
    ///
    /// Exactly as [`restore_file`](Self::restore_file).
    pub fn restore_file_with_report(&self, file_id: FileId) -> Result<(Vec<u8>, RestoreReport)> {
        let workers = self.config().effective_restore_parallelism();
        self.restore_file_pipelined(file_id, workers)
    }

    /// Reconstructs a file on the planned pipeline with an explicit worker
    /// count, bypassing the `restore_parallelism` knob — the entry point the
    /// equivalence proptests and benches sweep.
    ///
    /// # Errors
    ///
    /// Exactly as [`restore_file`](Self::restore_file).
    pub fn restore_file_pipelined(
        &self,
        file_id: FileId,
        workers: usize,
    ) -> Result<(Vec<u8>, RestoreReport)> {
        let recipe = self
            .director()
            .recipe(file_id)
            .ok_or(SigmaError::FileNotFound(file_id))?;
        self.restore_planned(file_id, &recipe, workers.max(1))
    }

    /// The plan → coalesce → assemble core.
    fn restore_planned(
        &self,
        file_id: FileId,
        recipe: &FileRecipe,
        workers: usize,
    ) -> Result<(Vec<u8>, RestoreReport)> {
        let total: u64 = recipe.chunks.iter().map(|e| u64::from(e.len)).sum();
        if total != recipe.size {
            // The recipe disagrees with itself; only the reference path's
            // end-to-end guard can produce the exact historical outcome
            // (including its RestoreTruncated figures).
            let bytes = self.restore_file_reference(file_id)?;
            let report = RestoreReport::reference(&bytes, recipe.chunks.len());
            return Ok((bytes, report));
        }

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
        let mut layout_shift = false;
        for (index, entry) in recipe.chunks.iter().enumerate() {
            let (node, location) = self.resolve_chunk(entry.node, &entry.fingerprint, |n| {
                n.plan_chunk_read(&entry.fingerprint)
            })?;
            if location.len != entry.len {
                layout_shift = true;
                break;
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
        if layout_shift {
            // The index's record length disagrees with the recipe: the
            // reference path is the arbiter of what that restore returns.
            drop(by_container);
            drop(windows);
            let bytes = self.restore_file_reference(file_id)?;
            let report = RestoreReport::reference(&bytes, recipe.chunks.len());
            return Ok((bytes, report));
        }

        // Deterministic group order (first recipe index), then fan out.
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

        let outcomes = run_pool(workers, groups, |_, group| self.fetch_group(group));

        let mut report = RestoreReport {
            logical_bytes: total,
            parallelism: workers,
            ..RestoreReport::default()
        };
        let mut failure: Option<(usize, SigmaError)> = None;
        let mut replan = false;
        for outcome in outcomes {
            match outcome {
                GroupOutcome::Done(stats) => report.absorb_group(&stats),
                GroupOutcome::Failed { index, error } => {
                    if failure.as_ref().is_none_or(|(i, _)| index < *i) {
                        failure = Some((index, error));
                    }
                }
                GroupOutcome::Replan => replan = true,
            }
        }
        if replan {
            let bytes = self.restore_file_reference(file_id)?;
            let report = RestoreReport::reference(&bytes, recipe.chunks.len());
            return Ok((bytes, report));
        }
        if let Some((_, error)) = failure {
            return Err(error);
        }
        debug_assert_eq!(out.len() as u64, recipe.size, "planned size was checked");
        Ok((out, report))
    }

    /// Runs one group: a batched container read, with a per-chunk serial
    /// fallback that re-follows tombstones when the batch fails (a migration
    /// or GC raced the plan, or a record in the group is corrupt, which the
    /// serial read reports as the same storage error).
    fn fetch_group(&self, group: Group<'_>) -> GroupOutcome {
        let mut stats = GroupStats {
            containers_read: 1,
            ..GroupStats::default()
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
                stats.chunks = s.chunks;
                stats.backend_bytes_read = s.backend_bytes_read;
                stats.coalesced_runs = s.coalesced_runs;
                stats.cache_hits = s.cache_hits;
                stats.cache_misses = s.cache_misses;
                // Serves from RAM and cache hits still copy each payload
                // into the output exactly once.
                stats.bytes_copied = fetches.iter().map(|f| f.out.len() as u64).sum();
                if s.backend_bytes_read == 0 {
                    // A still-open container was served from its in-memory
                    // builder: count the logical bytes so read amplification
                    // stays 1.0...
                    if s.cache_hits == 0 {
                        stats.backend_bytes_read = stats.bytes_copied;
                    }
                    // ...but a cache hit genuinely skipped the medium.
                }
                GroupOutcome::Done(stats)
            }
            Err(_) => {
                let mut failure: Option<(usize, SigmaError)> = None;
                for (fetch, (index, recipe_node)) in fetches.iter_mut().zip(&meta) {
                    match self.read_chunk(*recipe_node, &fetch.fingerprint) {
                        Ok(data) if data.len() == fetch.out.len() => {
                            fetch.out.copy_from_slice(&data);
                            stats.chunks += 1;
                            stats.serial_fallback_chunks += 1;
                            stats.backend_bytes_read += data.len() as u64;
                            // One copy into the chunk's Vec, one into place.
                            stats.bytes_copied += 2 * data.len() as u64;
                        }
                        Ok(_) => return GroupOutcome::Replan,
                        Err(error) => {
                            if failure.as_ref().is_none_or(|(i, _)| index < i) {
                                failure = Some((*index, error));
                            }
                        }
                    }
                }
                match failure {
                    Some((index, error)) => GroupOutcome::Failed { index, error },
                    None => GroupOutcome::Done(stats),
                }
            }
        }
    }
}

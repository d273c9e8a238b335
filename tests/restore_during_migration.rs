//! Property tests: restores are byte-identical while a [`Rebalancer`] is
//! mid-flight, and after removing the node that originally stored the chunks.
//!
//! Two properties over deterministically generated payload workloads:
//!
//! * **mid-flight** — back arbitrary overlapping streams up on a small cluster,
//!   then drive a node-removal rebalance *one container at a time*, restoring and
//!   verifying every file between steps.  The forwarding-tombstone hand-off
//!   (publish tombstone, then drop the source copy) means there is no point at
//!   which a chunk is unreachable.
//! * **post-removal** — after the drain completes, remove further nodes so that
//!   restores must follow multi-hop tombstone chains, and verify physical bytes
//!   are conserved by every migration (no chunk duplicated or lost).

use proptest::prelude::*;
use sigma_dedupe::prelude::*;
use std::sync::Arc;

/// Small super-chunks and containers so even a few KB of payload produces
/// several sealed containers to migrate.
fn migration_config() -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(4 * 1024)
        .chunker(ChunkerParams::fixed(512))
        .container_capacity(8 * 1024)
        .cache_containers(4)
        .build()
        .expect("valid test config")
}

/// Builds one stream's payload by concatenating blocks from a shared pool, so
/// streams overlap with each other (cluster-wide duplicates cross node borders).
fn compose(blocks: &[Vec<u8>], picks: &[usize]) -> Vec<u8> {
    let mut data = Vec::new();
    for &pick in picks {
        data.extend_from_slice(&blocks[pick % blocks.len()]);
    }
    data
}

/// Backs every composition up as its own file on its own stream; returns
/// `(file_id, expected bytes)` pairs.
fn backup_all(cluster: &Arc<DedupCluster>, datas: &[Vec<u8>]) -> Vec<(u64, Vec<u8>)> {
    let mut files = Vec::new();
    for (stream, data) in datas.iter().enumerate() {
        let client = BackupClient::new(cluster.clone(), stream as u64);
        let report = client
            .backup_bytes(&format!("stream-{stream}"), data)
            .expect("payload backup cannot fail");
        files.push((report.file_id, data.clone()));
    }
    cluster.try_flush().unwrap();
    files
}

fn assert_all_restore(cluster: &DedupCluster, files: &[(u64, Vec<u8>)]) {
    for (file_id, expected) in files {
        let restored = cluster
            .restore_file(*file_id)
            .unwrap_or_else(|e| panic!("file {} failed to restore: {}", file_id, e));
        assert_eq!(&restored, expected, "file {} corrupted", file_id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every file restores byte-identically after *each individual* container
    /// migration of a node-removal drain.
    #[test]
    fn restores_stay_intact_mid_migration(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 64..768),
            1..5,
        ),
        compositions in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 1..24),
            1..4,
        ),
    ) {
        let datas: Vec<Vec<u8>> = compositions
            .iter()
            .map(|picks| compose(&blocks, picks))
            .collect();
        let cluster = Arc::new(DedupCluster::with_similarity_router(3, migration_config()));
        let files = backup_all(&cluster, &datas);
        let physical_before = cluster.stats().physical_bytes;

        // Drain node 0 one container at a time, restoring everything in between.
        let mut rebalancer = cluster.begin_remove_node(0).expect("3-node cluster");
        while rebalancer.step().expect("no faults in this test").is_some() {
            assert_all_restore(&cluster, &files);
        }
        let report = rebalancer.run().expect("no faults in this test");
        prop_assert_eq!(
            cluster.node_by_id(0).expect("retired node stays addressable").storage_usage(),
            0,
            "drain must empty the removed node"
        );
        // Conservation: the drain moved bytes, it did not mint or destroy them.
        prop_assert_eq!(cluster.stats().physical_bytes, physical_before);
        prop_assert!(report.bytes_moved <= physical_before);
        assert_all_restore(&cluster, &files);
    }

    /// After the original node is gone, further removals force multi-hop
    /// forwarding chains; restores still hold and bytes stay conserved.
    #[test]
    fn restores_follow_tombstone_chains_after_repeated_removals(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 64..768),
            1..4,
        ),
        compositions in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 1..16),
            1..3,
        ),
    ) {
        let datas: Vec<Vec<u8>> = compositions
            .iter()
            .map(|picks| compose(&blocks, picks))
            .collect();
        let cluster = Arc::new(DedupCluster::with_similarity_router(3, migration_config()));
        let files = backup_all(&cluster, &datas);
        let physical_before = cluster.stats().physical_bytes;

        // Remove the two original nodes in turn: chunks first written to node 0
        // may migrate 0 -> 1 -> 2 and must be restored through the chain.
        cluster.remove_node(0).expect("3 nodes active");
        assert_all_restore(&cluster, &files);
        cluster.remove_node(1).expect("2 nodes active");
        prop_assert_eq!(cluster.node_count(), 1);
        prop_assert_eq!(cluster.stats().physical_bytes, physical_before);
        assert_all_restore(&cluster, &files);
    }
}

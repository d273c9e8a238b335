//! Property-based integration tests of the core deduplication invariants, driven
//! through the public façade.

use proptest::prelude::*;
use sigma_dedupe::prelude::*;
use std::sync::Arc;

fn small_cluster(nodes: usize) -> Arc<DedupCluster> {
    let config = SigmaConfig::builder()
        .super_chunk_size(64 * 1024)
        .container_capacity(512 * 1024)
        .cache_containers(32)
        .build()
        .unwrap();
    Arc::new(DedupCluster::with_similarity_router(nodes, config))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever is backed up restores bit-exactly, for arbitrary sizes and node counts.
    #[test]
    fn prop_backup_restore_roundtrip(
        len in 0usize..300_000,
        seed in any::<u64>(),
        nodes in 1usize..6,
    ) {
        let cluster = small_cluster(nodes);
        let client = BackupClient::new(cluster.clone(), 0);
        let data = random_bytes(len, seed);
        let report = client.backup_bytes("prop-file", &data).unwrap();
        prop_assert_eq!(report.logical_bytes, len as u64);
        cluster.try_flush().unwrap();
        prop_assert_eq!(cluster.restore_file(report.file_id).unwrap(), data);
    }

    /// Physical storage never exceeds logical data, and backing the same bytes up
    /// twice never increases physical storage.
    #[test]
    fn prop_physical_never_exceeds_logical(
        len in 1usize..200_000,
        seed in any::<u64>(),
    ) {
        let cluster = small_cluster(3);
        let client = BackupClient::new(cluster.clone(), 0);
        let data = random_bytes(len, seed);
        client.backup_bytes("first", &data).unwrap();
        let physical_after_first = cluster.stats().physical_bytes;
        prop_assert!(physical_after_first <= len as u64);

        let second = client.backup_bytes("second", &data).unwrap();
        let stats = cluster.stats();
        prop_assert_eq!(stats.physical_bytes, physical_after_first);
        prop_assert_eq!(second.transferred_bytes, 0);
        prop_assert_eq!(stats.logical_bytes, 2 * len as u64);
    }

    /// With content-defined chunking, concatenating two previously seen files still
    /// deduplicates almost entirely on a single node: CDC boundaries resynchronise
    /// shortly after the splice point, so only the chunks straddling it are new.
    /// (A single-node cluster is used on purpose: on multiple nodes the two source
    /// files may legitimately live on different nodes, and cross-node redundancy is
    /// exactly what cluster deduplication gives up — Section 1 of the paper.)
    #[test]
    fn prop_concatenation_of_known_data_is_cheap_with_cdc(
        len_a in 32_768usize..120_000,
        len_b in 32_768usize..120_000,
        seed in any::<u64>(),
    ) {
        let config = SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(512 * 1024)
            .cache_containers(32)
            .chunker(ChunkerParams::cdc(1024, 4096, 16 * 1024))
            .build()
            .unwrap();
        let cluster = Arc::new(DedupCluster::with_similarity_router(1, config));
        let client = BackupClient::new(cluster.clone(), 0);
        let a = random_bytes(len_a, seed);
        let b = random_bytes(len_b, seed.wrapping_add(1));
        client.backup_bytes("a", &a).unwrap();
        client.backup_bytes("b", &b).unwrap();

        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        let report = client.backup_bytes("a+b", &joined).unwrap();
        // Only a handful of chunks around the splice (each at most 16 KB) may be new.
        prop_assert!(
            report.transferred_bytes <= 4 * 16 * 1024,
            "transferred {} of {}",
            report.transferred_bytes,
            joined.len()
        );
    }
}

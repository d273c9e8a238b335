//! Membership churn under the baseline routing schemes.
//!
//! The elastic-membership suite exercised `sigma` routing only; the baselines
//! (`chunk_dht`, `extreme_binning`, `stateful`) route by entirely different
//! state, so a shared churn fixture drives each through the same
//! add-node / remove-node storm and asserts the two things routing must never
//! break:
//!
//! * **restore correctness** — every file from every phase restores
//!   byte-identically during and after the churn, with physical bytes conserved
//!   by both migrations;
//! * **message-count invariants** — the scheme's defining overhead shape
//!   survives churn: stateless schemes stay at zero pre-routing lookups no
//!   matter how membership moves, while the stateful broadcast keeps contacting
//!   every *active* node (so its per-super-chunk cost tracks the live node
//!   count, not the historical one).

use sigma_dedupe::prelude::*;
use std::sync::Arc;

const INITIAL_NODES: usize = 3;
const STREAMS: u64 = 3;
const STREAM_BYTES: usize = 96 * 1024;

fn churn_config() -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(8 * 1024)
        .chunker(ChunkerParams::fixed(1024))
        .container_capacity(16 * 1024)
        .cache_containers(8)
        .build()
        .expect("valid churn config")
}

fn stream_payload(stream: u64, generation: u64) -> Vec<u8> {
    // Two generations share most content (the second mutates one byte per
    // 4 KB region) so the post-churn wave must deduplicate across migrations.
    let mut state = stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut data: Vec<u8> = (0..STREAM_BYTES)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect();
    if generation > 0 {
        for region in data.chunks_mut(4096) {
            region[0] = region[0].wrapping_add(generation as u8);
        }
    }
    data
}

struct ChurnRun {
    cluster: Arc<DedupCluster>,
    files: Vec<(u64, Vec<u8>)>,
    /// Super-chunks routed and pre-routing messages per phase:
    /// `(supers, prerouting_lookups, nodes_contacted)` before the join and at
    /// the end.
    phase_messages: Vec<(u64, u64, u64)>,
}

/// The shared fixture: backup → join+rebalance → backup → drain an original
/// node → verify everything, recording message counters at each phase edge.
fn run_churn(router: Box<dyn DataRouter>) -> ChurnRun {
    let cluster = Arc::new(DedupCluster::new(INITIAL_NODES, churn_config(), router));
    let clients: Vec<BackupClient> = (0..STREAMS)
        .map(|s| BackupClient::new(cluster.clone(), s))
        .collect();
    let mut files = Vec::new();
    let mut phase_messages = Vec::new();
    let snapshot_messages = |cluster: &DedupCluster| {
        let m = cluster.stats().messages;
        (
            m.super_chunks_routed,
            m.prerouting_lookups,
            m.nodes_contacted,
        )
    };

    // Phase 1 on the initial cluster.
    for (s, client) in clients.iter().enumerate() {
        let data = stream_payload(s as u64, 0);
        let report = client
            .backup_bytes(&format!("gen0-{s}"), &data)
            .expect("payload backup cannot fail");
        files.push((report.file_id, data));
    }
    cluster.try_flush().unwrap();
    phase_messages.push(snapshot_messages(&cluster));
    let physical_after_gen0 = cluster.stats().physical_bytes;

    // Scale out mid-workload; restores must hold immediately.
    let (joined, join) = cluster
        .add_node_rebalanced()
        .expect("no fault injection here");
    assert!(
        join.containers_moved > 0,
        "join rebalance must move containers for {}",
        cluster.router_name()
    );
    assert_eq!(
        cluster.stats().physical_bytes,
        physical_after_gen0,
        "join migration must conserve bytes for {}",
        cluster.router_name()
    );
    for (file_id, expected) in &files {
        assert_eq!(
            &cluster.restore_file(*file_id).unwrap(),
            expected,
            "restore during churn broke for {}",
            cluster.router_name()
        );
    }

    // Phase 2 against the grown cluster (mutated generation deduplicates).
    for (s, client) in clients.iter().enumerate() {
        let data = stream_payload(s as u64, 1);
        let report = client
            .backup_bytes(&format!("gen1-{s}"), &data)
            .expect("payload backup cannot fail");
        files.push((report.file_id, data));
    }
    cluster.try_flush().unwrap();

    // Scale in: drain one of the *original* nodes, so recipes from both waves
    // must follow its tombstones from now on.
    let victim = cluster
        .node_ids()
        .into_iter()
        .find(|&id| id != joined)
        .expect("an original node is active");
    let physical_before_leave = cluster.stats().physical_bytes;
    cluster.remove_node(victim).expect("cluster keeps 3 nodes");
    assert_eq!(
        cluster.stats().physical_bytes,
        physical_before_leave,
        "drain must conserve bytes for {}",
        cluster.router_name()
    );
    phase_messages.push(snapshot_messages(&cluster));

    ChurnRun {
        cluster,
        files,
        phase_messages,
    }
}

fn assert_all_restore(run: &ChurnRun) {
    assert_eq!(run.files.len(), 2 * STREAMS as usize);
    for (file_id, expected) in &run.files {
        assert_eq!(
            &run.cluster.restore_file(*file_id).unwrap(),
            expected,
            "file {} corrupted under {} churn",
            file_id,
            run.cluster.router_name()
        );
    }
}

#[test]
fn chunk_dht_survives_churn_with_zero_prerouting_messages() {
    let run = run_churn(Box::new(ChunkDhtRouter::new()));
    assert_all_restore(&run);
    // DHT placement consults nobody — before, during or after churn.
    let (supers, prerouting, contacted) = *run.phase_messages.last().unwrap();
    assert!(supers > 0);
    assert_eq!(prerouting, 0, "chunk-dht never sends pre-routing lookups");
    assert_eq!(contacted, 0, "chunk-dht never contacts remote nodes");
}

#[test]
fn extreme_binning_survives_churn_and_keeps_files_in_their_bins() {
    let run = run_churn(Box::new(ExtremeBinningRouter::new()));
    assert_all_restore(&run);
    let (supers, prerouting, contacted) = *run.phase_messages.last().unwrap();
    assert!(supers > 0);
    assert_eq!(prerouting, 0, "extreme binning routes statelessly by file");
    assert_eq!(contacted, 0);
    // The batched duplicate-or-unique query at the target still costs one
    // lookup per chunk, exactly as for every other scheme.
    let m = run.cluster.stats().messages;
    assert!(m.postrouting_lookups >= supers, "per-chunk target lookups");
}

#[test]
fn stateful_broadcast_tracks_the_active_node_count_through_churn() {
    let run = run_churn(Box::new(StatefulRouter::new()));
    assert_all_restore(&run);

    // Phase 1 ran on 3 nodes: every super-chunk broadcast to exactly 3.
    let (supers_gen0, prerouting_gen0, contacted_gen0) = run.phase_messages[0];
    assert!(supers_gen0 > 0);
    assert!(prerouting_gen0 > 0, "stateful always asks the cluster");
    assert_eq!(
        contacted_gen0,
        supers_gen0 * INITIAL_NODES as u64,
        "every pre-churn super-chunk consults every initial node"
    );

    // Phase 2 ran on 4 nodes (after the join): the per-super-chunk broadcast
    // widened with the membership, and narrows again after the leave — the
    // defining linear-overhead shape of Figure 7, now under churn.
    let (supers_end, prerouting_end, contacted_end) = *run.phase_messages.last().unwrap();
    let supers_gen1 = supers_end - supers_gen0;
    assert!(supers_gen1 > 0);
    assert_eq!(
        contacted_end - contacted_gen0,
        supers_gen1 * (INITIAL_NODES as u64 + 1),
        "every post-join super-chunk consults every active node"
    );
    assert!(prerouting_end > prerouting_gen0);
}

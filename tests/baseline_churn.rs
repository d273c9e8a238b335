//! Membership churn under the baseline routing schemes.
//!
//! The elastic-membership suite exercised `sigma` routing only; the baselines
//! (`chunk_dht`, `extreme_binning`, `stateful`) route by entirely different
//! state, so the churn scenario (`sigma_simulation::churn::run_churn`) drives
//! each through the same add-node / remove-node storm and this suite asserts the two things routing must never
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
use sigma_dedupe::simulation::churn::{run_churn, ChurnConfig, ChurnOutcome};
use sigma_dedupe::simulation::crash_churn::FaultPlan;

const INITIAL_NODES: usize = 3;
const STREAMS: usize = 3;

fn churn_config() -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(8 * 1024)
        .chunker(ChunkerParams::fixed(1024))
        .container_capacity(16 * 1024)
        .cache_containers(8)
        .build()
        .expect("valid churn config")
}

/// Runs the churn scenario under `router` and asserts what every scheme must
/// keep through it: both migrations move containers or conserve bytes, and
/// every file restores byte-identically after each phase.  The second
/// generation rewrites one 4 KB region in four, so the post-churn wave must
/// deduplicate across migrations.
fn churn(router: Box<dyn DataRouter>) -> ChurnOutcome {
    let name = router.name();
    let config = ChurnConfig {
        initial_nodes: INITIAL_NODES,
        streams: STREAMS,
        stream_bytes: 96 * 1024,
        mutation_rate: 0.25,
        seed: 0xBA5E,
        sigma: churn_config(),
    };
    let outcome = run_churn(&config, router, &FaultPlan::default());
    let [gen0, joined, gen1, left] = &outcome.phases[..] else {
        panic!("four phases for {name}");
    };
    assert!(
        outcome.join_rebalance.containers_moved > 0,
        "join rebalance must move containers for {name}"
    );
    assert_eq!(
        joined.physical_bytes, gen0.physical_bytes,
        "join migration must conserve bytes for {name}"
    );
    assert_eq!(
        joined.restored_intact, joined.files,
        "restore during churn broke for {name}"
    );
    assert_eq!(
        left.physical_bytes, gen1.physical_bytes,
        "drain must conserve bytes for {name}"
    );
    assert_eq!(left.files, 2 * STREAMS);
    assert_eq!(
        left.restored_intact, left.files,
        "a file corrupted under {name} churn"
    );
    outcome
}

/// `(super-chunks routed, pre-routing lookups, nodes contacted)` after the
/// first backup wave and after the drain.
fn phase_messages(outcome: &ChurnOutcome) -> [(u64, u64, u64); 2] {
    [&outcome.phases[0], &outcome.phases[3]].map(|p| {
        let m = p.messages;
        (
            m.super_chunks_routed,
            m.prerouting_lookups,
            m.nodes_contacted,
        )
    })
}

#[test]
fn chunk_dht_survives_churn_with_zero_prerouting_messages() {
    let run = churn(Box::new(ChunkDhtRouter::new()));
    // DHT placement consults nobody — before, during or after churn.
    let [_, (supers, prerouting, contacted)] = phase_messages(&run);
    assert!(supers > 0);
    assert_eq!(prerouting, 0, "chunk-dht never sends pre-routing lookups");
    assert_eq!(contacted, 0, "chunk-dht never contacts remote nodes");
}

#[test]
fn extreme_binning_survives_churn_and_keeps_files_in_their_bins() {
    let run = churn(Box::new(ExtremeBinningRouter::new()));
    let [_, (supers, prerouting, contacted)] = phase_messages(&run);
    assert!(supers > 0);
    assert_eq!(prerouting, 0, "extreme binning routes statelessly by file");
    assert_eq!(contacted, 0);
    // The batched duplicate-or-unique query at the target still costs one
    // lookup per chunk, exactly as for every other scheme.
    let m = run.phases[3].messages;
    assert!(m.postrouting_lookups >= supers, "per-chunk target lookups");
}

#[test]
fn stateful_broadcast_tracks_the_active_node_count_through_churn() {
    let run = churn(Box::new(StatefulRouter::new()));
    let [gen0, end] = phase_messages(&run);

    // Phase 1 ran on 3 nodes: every super-chunk broadcast to exactly 3.
    let (supers_gen0, prerouting_gen0, contacted_gen0) = gen0;
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
    let (supers_end, prerouting_end, contacted_end) = end;
    let supers_gen1 = supers_end - supers_gen0;
    assert!(supers_gen1 > 0);
    assert_eq!(
        contacted_end - contacted_gen0,
        supers_gen1 * (INITIAL_NODES as u64 + 1),
        "every post-join super-chunk consults every active node"
    );
    assert!(prerouting_end > prerouting_gen0);
}

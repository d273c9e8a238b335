//! Property: restores observe every container transition only before or
//! after it.
//!
//! One writer thread runs a random script on a small cluster — back a file up
//! and `try_flush` it (the acknowledgement), take one `Rebalancer::step`, or
//! delete a file and `collect_garbage` — serially, so GC stays quiescent with
//! respect to ingest, as its contract requires.  Two reader threads keep
//! restoring every acknowledged file that was never deleted.  Seals,
//! adoptions, retirements, GC drops and compactions and read-cache fills all
//! race those restores: every restore must be byte-identical, and none may
//! fail.

use proptest::prelude::*;
use sigma_dedupe::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Acknowledged, never-deleted files: file ID → expected bytes.
type Live = Mutex<BTreeMap<u64, Arc<Vec<u8>>>>;

/// Small chunks, super-chunks and containers, so a few KB per file make
/// several containers to seal, migrate and collect.
fn config() -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(4 * 1024)
        .chunker(ChunkerParams::fixed(512))
        .container_capacity(8 * 1024)
        .cache_containers(4)
        .gc_liveness_threshold(0.9)
        .build()
        .expect("valid test config")
}

/// One 512-byte block, a pure function of `seed`.
fn block(seed: u64) -> impl Iterator<Item = u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..512).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as u8
    })
}

/// A file of `blocks` blocks: two in three come from a pool of 16 that every
/// file draws on (so containers end up shared between files, and deleting
/// one leaves them partly live), the rest are unique to the file.
fn file_bytes(seed: u64, blocks: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..blocks)
        .flat_map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            block(if x.is_multiple_of(3) { x } else { x % 16 })
        })
        .collect()
}

/// Restores every live file until `done` is set, then once more; returns
/// the number of restores.  A restore may fail only for a file deleted while
/// it ran.
fn restore_until(cluster: &DedupCluster, live: &Live, done: &AtomicBool) -> u64 {
    let mut restores = 0;
    loop {
        let last = done.load(Ordering::SeqCst);
        let files: Vec<(u64, Arc<Vec<u8>>)> = live
            .lock()
            .unwrap()
            .iter()
            .map(|(id, bytes)| (*id, bytes.clone()))
            .collect();
        for (id, expected) in files {
            match cluster.restore_file(id) {
                Ok(bytes) => assert!(bytes == *expected, "file {id} restored corrupted"),
                Err(e) => assert!(
                    !live.lock().unwrap().contains_key(&id),
                    "live file {id} failed to restore: {e}"
                ),
            }
            restores += 1;
        }
        if last {
            return restores;
        }
        std::thread::yield_now();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn restores_hold_across_every_container_transition(
        script in proptest::collection::vec(0u8..4, 12..32),
        seed in any::<u64>(),
    ) {
        let cluster = Arc::new(DedupCluster::with_similarity_router(3, config()));
        let live: Live = Mutex::new(BTreeMap::new());
        let done = AtomicBool::new(false);
        let restores = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| restore_until(&cluster, &live, &done)))
                .collect();
            let mut rebalancer: Option<Rebalancer> = None;
            for (step, op) in script.iter().enumerate() {
                match op {
                    0 | 1 => {
                        let data = file_bytes(seed ^ step as u64, 4 + step % 13);
                        let client = BackupClient::new(cluster.clone(), step as u64);
                        let report = client
                            .backup_bytes(&format!("file-{step}"), &data)
                            .expect("payload backup cannot fail");
                        cluster.try_flush().expect("no faults in this test");
                        live.lock().unwrap().insert(report.file_id, Arc::new(data));
                    }
                    2 => {
                        if rebalancer.as_ref().is_none_or(Rebalancer::is_done) {
                            rebalancer = Some(if cluster.node_count() < 4 {
                                let id = cluster.add_node();
                                cluster.begin_rebalance_onto(id).expect("active node")
                            } else {
                                let oldest = cluster.node_ids()[0];
                                cluster.begin_remove_node(oldest).expect("4 active nodes")
                            });
                        }
                        let plan = rebalancer.as_mut().expect("planned above");
                        plan.step().expect("no faults in this test");
                    }
                    _ => {
                        // Readers stop expecting the file before it goes.
                        let victim = {
                            let mut live = live.lock().unwrap();
                            let pick = live.keys().nth(step % live.len().max(1)).copied();
                            pick.and_then(|id| live.remove(&id).map(|_| id))
                        };
                        if let Some(id) = victim {
                            cluster.delete_file(id).expect("live file");
                        }
                        cluster.collect_garbage().expect("no faults in this test");
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
            readers
                .into_iter()
                .map(|r| r.join().expect("reader panicked"))
                .sum::<u64>()
        });
        let survivors = live.lock().unwrap().len() as u64;
        prop_assert!(restores >= 2 * survivors, "every survivor restored at the end");
        for node in cluster.nodes() {
            node.verify_consistency().unwrap();
        }
    }
}

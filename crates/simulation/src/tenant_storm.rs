//! The multi-tenant heavy-traffic storm: hundreds of tenants, a thousand-plus
//! concurrent clients, one fixed cluster behind the full service stack.
//!
//! The scenario exercises exactly the properties the fairness and admission
//! layers exist for:
//!
//! 1. **ingest storm** — every client backs up its generational dataset
//!    through auth → admission → quota → rate-limit → fair-scheduler, retrying
//!    shed (503) responses with the service's own retry-after hint.  Tenants in
//!    the same *overlap group* back up identical datasets, so physical chunks
//!    are shared across tenants while logical accounting stays strictly
//!    per-tenant.  One **hot tenant** runs several times the client count of
//!    everyone else and must not starve the rest: at the moment the first
//!    tenant completes its workload, the scheduler's per-tenant completed
//!    bytes are snapshotted and scored with
//!    [`jain_fairness_index`] — deficit-round-robin keeps the index near 1.0
//!    even though the hot tenant's *demand* is wildly unequal.
//! 2. **churn** — a subset of tenants expires its oldest generation
//!    (delete + garbage collection) while every other tenant concurrently
//!    restore-verifies its files byte for byte; optionally a node is crashed
//!    at a journal-record boundary mid-churn and supervised back to life.
//! 3. **verification** — surviving files restore byte-identically, expired
//!    files and cross-tenant probes both read as `NotFound`, per-tenant live
//!    logical bytes partition the cluster's logical total, and cumulative
//!    per-tenant accounting converges (`live == ingested − freed`).
//!
//! The driver is [`run_tenant_storm`]; [`TenantStormConfig::default`] is the
//! full-scale storm (100 tenants, 1030 clients), [`TenantStormConfig::ci`] a
//! debug-friendly reduction with the same phase structure.

use sigma_core::{DedupCluster, SigmaConfig};
use sigma_metrics::jain_fairness_index;
use sigma_service::middleware::{
    AdmissionControl, FairScheduler, Middleware, Next, RateLimit, TenantQuota, TokenAuth,
};
use sigma_service::{
    backend::FILE_ID_KEY, Backend, BackupService, Operation, RequestEnvelope, ResponseEnvelope,
    ServiceBuilder, ServiceCode, ServiceStack,
};
use sigma_storage::CrashMode;
use sigma_workloads::payload::{generational_payloads, GenerationalPayloadParams};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

/// One client's generational dataset: `(file name, payload)` per generation,
/// shared between the clients of an overlap group.
type ClientDataset = Arc<Vec<(String, Arc<Vec<u8>>)>>;
/// A tenant's surviving files for mid-churn verification: `(file id, payload)`.
type TenantFiles = Vec<(u64, Arc<Vec<u8>>)>;

/// Parameters of one tenant-storm run.
#[derive(Debug, Clone)]
pub struct TenantStormConfig {
    /// Number of tenants (each gets its own token, quota and scheduler queue).
    pub tenants: usize,
    /// Concurrent clients per tenant.
    pub clients_per_tenant: usize,
    /// Extra clients for tenant 0, the *hot* tenant whose demand dwarfs
    /// everyone else's.
    pub hot_tenant_extra_clients: usize,
    /// Backup generations per client.
    pub generations: usize,
    /// Bytes of each client's generation 0.
    pub initial_payload_bytes: usize,
    /// Fresh bytes appended per generation.
    pub growth_per_generation: usize,
    /// Fraction of 4 KB regions rewritten between generations.
    pub mutation_rate: f64,
    /// Tenants per overlap group: members back up identical datasets, so
    /// their chunks deduplicate across tenants (1 = no overlap).
    pub overlap_group: usize,
    /// Every Nth tenant expires its generation 0 during the churn phase
    /// (0 = no churn phase).
    pub churn_every: usize,
    /// Crash one node at a journal boundary mid-churn and supervise it back.
    pub crash_during_churn: bool,
    /// Deduplication nodes in the (fixed) cluster.
    pub nodes: usize,
    /// Deterministic seed for payloads and fault choice.
    pub seed: u64,
    /// Admission bound on concurrent in-flight requests.
    pub max_inflight_requests: u64,
    /// Admission bound on in-flight payload bytes.
    pub max_inflight_bytes: u64,
    /// Fair-scheduler deficit quantum per round (bytes).
    pub quantum_bytes: u64,
    /// Fair-scheduler cap on one tenant's executing bytes.
    pub max_tenant_inflight_bytes: u64,
    /// Fair-scheduler global execution slots.
    pub max_concurrent: usize,
    /// Simulated service time per request, in microseconds (0 = none).
    ///
    /// Real dedup service spends milliseconds per super-chunk; the in-process
    /// store answers in microseconds, so without a service-time floor the
    /// scheduler's backlog drains faster than clients can refill it and the
    /// fairness figure measures thread-wakeup jitter instead of scheduling.
    pub service_time_us: u64,
    /// Cluster configuration.
    pub sigma: SigmaConfig,
}

impl Default for TenantStormConfig {
    fn default() -> Self {
        TenantStormConfig {
            tenants: 100,
            clients_per_tenant: 10,
            hot_tenant_extra_clients: 30,
            generations: 3,
            initial_payload_bytes: 8 * 1024,
            growth_per_generation: 2 * 1024,
            mutation_rate: 0.1,
            overlap_group: 4,
            churn_every: 4,
            crash_during_churn: false,
            nodes: 3,
            seed: 0x5709,
            max_inflight_requests: 4096,
            max_inflight_bytes: 256 << 20,
            quantum_bytes: 8 << 10,
            max_tenant_inflight_bytes: 24 << 10,
            max_concurrent: 8,
            service_time_us: 200,
            sigma: SigmaConfig::builder()
                .super_chunk_size(16 * 1024)
                .container_capacity(256 * 1024)
                .build()
                .expect("default storm config is valid"),
        }
    }
}

impl TenantStormConfig {
    /// A debug-friendly storm with the same phase structure: 24 tenants,
    /// 104 clients, two generations.
    pub fn ci() -> Self {
        TenantStormConfig {
            tenants: 24,
            clients_per_tenant: 4,
            hot_tenant_extra_clients: 8,
            generations: 2,
            ..TenantStormConfig::default()
        }
    }

    /// Total client count including the hot tenant's extras.
    pub fn total_clients(&self) -> usize {
        self.tenants * self.clients_per_tenant + self.hot_tenant_extra_clients
    }

    fn tenant_name(t: usize) -> String {
        format!("tenant-{:03}", t)
    }

    fn token(t: usize) -> String {
        format!("storm-token-{}", t)
    }

    /// Logical bytes one client ingests across all generations.
    fn bytes_per_client(&self) -> u64 {
        (0..self.generations)
            .map(|g| (self.initial_payload_bytes + g * self.growth_per_generation) as u64)
            .sum()
    }
}

/// The outcome of one tenant-storm run: fairness, isolation and accounting
/// figures plus the raw traffic counts.
#[derive(Debug, Clone)]
pub struct TenantStormReport {
    /// Tenants simulated.
    pub tenants: usize,
    /// Clients simulated (including the hot tenant's extras).
    pub clients: usize,
    /// Backups acknowledged.
    pub backups: usize,
    /// Requests the admission layer let in (including retries).
    pub admitted: u64,
    /// Requests the admission layer shed with a 503.
    pub shed: u64,
    /// Client-side retries (shed and crash-unavailable responses replayed).
    pub retries: u64,
    /// Jain fairness index over per-tenant scheduler-completed bytes,
    /// snapshotted the moment the first tenant finished ingesting.
    pub fairness_index: f64,
    /// The tenant whose completion triggered the fairness snapshot.
    pub first_finisher: String,
    /// The hot tenant's share of snapshot bytes, divided by the mean share.
    pub hot_tenant_share_ratio: f64,
    /// Restores attempted on files that should have survived.
    pub expected_restores: usize,
    /// Of those, restores that came back byte-identical.
    pub intact_restores: usize,
    /// Generation-0 files of churned tenants (expired during the run).
    pub expired_files: usize,
    /// Of those, files that correctly read as `NotFound` afterwards.
    pub expired_unreachable: usize,
    /// Cross-tenant restore probes attempted.
    pub foreign_probes: usize,
    /// Of those, probes correctly answered `NotFound`.
    pub foreign_probes_isolated: usize,
    /// Tenants that ran the delete + GC churn.
    pub churned_tenants: usize,
    /// Physical bytes the churn-phase garbage collections reclaimed.
    pub reclaimed_bytes: u64,
    /// Node crash recoveries supervised during churn.
    pub recoveries: usize,
    /// Cluster logical bytes at the end.
    pub cluster_logical_bytes: u64,
    /// Cluster physical bytes at the end.
    pub cluster_physical_bytes: u64,
    /// Σ per-tenant live logical bytes (director tags) at the end.
    pub sum_tenant_live_bytes: u64,
    /// Σ per-tenant cumulative ingested logical bytes.
    pub sum_tenant_logical_bytes: u64,
    /// True when every tenant's `live == ingested − freed` held.
    pub accounting_consistent: bool,
}

impl TenantStormReport {
    /// Per-tenant live logical bytes partition the cluster's logical total.
    pub fn partition_holds(&self) -> bool {
        self.sum_tenant_live_bytes == self.cluster_logical_bytes
    }

    /// Every surviving file restored byte-identically, every expired file and
    /// every cross-tenant probe read as `NotFound`.
    pub fn isolation_holds(&self) -> bool {
        self.intact_restores == self.expected_restores
            && self.expired_unreachable == self.expired_files
            && self.foreign_probes_isolated == self.foreign_probes
    }

    /// Overlapping tenants actually shared chunks: the cluster stores fewer
    /// physical bytes than the tenants ingested logically.
    pub fn cross_tenant_dedup_observed(&self) -> bool {
        self.cluster_physical_bytes < self.sum_tenant_logical_bytes
    }

    /// The headline acceptance: isolation, accounting, partition and a Jain
    /// fairness index of at least 0.9 while the hot tenant saturates.
    pub fn holds(&self) -> bool {
        self.isolation_holds()
            && self.partition_holds()
            && self.accounting_consistent
            && self.fairness_index >= 0.9
    }
}

/// Ground truth for one acknowledged backup.
struct StoredFile {
    tenant: usize,
    file_id: u64,
    generation: u64,
    data: Arc<Vec<u8>>,
}

/// Shared scenario state visible to every client thread.
struct Storm {
    stack: ServiceStack,
    backend: Arc<BackupService>,
    scheduler: Arc<FairScheduler>,
    admission: Arc<AdmissionControl>,
    next_request_id: AtomicU64,
    retries: AtomicU64,
    /// Clients still ingesting, per tenant; the thread that drops a tenant's
    /// count to zero takes the fairness snapshot (first tenant only).
    remaining_clients: Vec<AtomicUsize>,
    snapshot: Mutex<Option<(String, BTreeMap<String, u64>)>>,
}

impl Storm {
    fn next_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Calls the stack, replaying 503s (shed *and* crashed-node unavailability)
    /// after honouring the response's retry-after hint, capped so a storm of
    /// retries stays fast.
    fn call_with_retry(&self, req: &RequestEnvelope) -> ResponseEnvelope {
        const MAX_ATTEMPTS: usize = 200_000;
        for _ in 0..MAX_ATTEMPTS {
            let resp = self.stack.call(req.clone());
            if resp.code != ServiceCode::Unavailable {
                return resp;
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            let hint_ms = parse_retry_hint_ms(&resp.message).unwrap_or(1).clamp(1, 2);
            thread::sleep(Duration::from_millis(hint_ms));
        }
        panic!("request never admitted after {} attempts", MAX_ATTEMPTS);
    }
}

/// A start gate below the fair scheduler: requests granted before the storm
/// officially begins block here, occupying every execution slot while the
/// remaining clients park their first request in the scheduler's queues.
/// Opening the gate therefore starts service at the moment of *maximum*
/// contention — the window the fairness snapshot is meant to measure —
/// instead of letting early-spawned clients race through an idle scheduler.
#[derive(Default)]
struct StartGate {
    open: Mutex<bool>,
    all_clear: std::sync::Condvar,
}

impl StartGate {
    fn open(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.all_clear.notify_all();
    }
}

impl Middleware for StartGate {
    fn name(&self) -> &'static str {
        "start-gate"
    }

    fn handle(
        &self,
        req: RequestEnvelope,
        next: &dyn Next,
    ) -> Result<ResponseEnvelope, sigma_core::SigmaError> {
        let mut open = self.open.lock().expect("gate lock");
        while !*open {
            open = self.all_clear.wait(open).expect("gate lock");
        }
        drop(open);
        next.run(req)
    }
}

/// Extracts `N` from a "… retry after N ms …" rejection message.
fn parse_retry_hint_ms(message: &str) -> Option<u64> {
    let after = message.split("retry after ").nth(1)?;
    let digits: String = after.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Runs the full storm: ingest under contention, churn with concurrent
/// verification (and optional supervised crash), then final verification.
///
/// # Panics
///
/// Panics on configuration nonsense (zero tenants/clients/generations) and
/// on any response that violates the service contract (a non-503 rejection
/// of a legitimate request).
pub fn run_tenant_storm(config: &TenantStormConfig) -> TenantStormReport {
    assert!(config.tenants > 0, "need at least one tenant");
    assert!(config.clients_per_tenant > 0, "need at least one client");
    assert!(config.generations > 0, "need at least one generation");
    assert!(config.overlap_group > 0, "overlap group must be positive");

    let cluster = Arc::new(DedupCluster::with_similarity_router(
        config.nodes,
        config.sigma.clone(),
    ));
    let backend = Arc::new(BackupService::new(cluster.clone()));
    let scheduler = Arc::new(FairScheduler::new(
        config.quantum_bytes,
        config.max_tenant_inflight_bytes,
        config.max_concurrent,
    ));
    let admission = Arc::new(
        AdmissionControl::new(config.max_inflight_requests, config.max_inflight_bytes)
            .with_retry_after_ms(1),
    );

    let mut auth = TokenAuth::new();
    let mut quota = TenantQuota::new();
    let budget_per_client = config.bytes_per_client() * 2 + (1 << 20);
    for t in 0..config.tenants {
        auth = auth.tenant(
            TenantStormConfig::tenant_name(t),
            TenantStormConfig::token(t),
        );
        let clients = config.clients_per_tenant
            + if t == 0 {
                config.hot_tenant_extra_clients
            } else {
                0
            };
        quota = quota.budget(
            TenantStormConfig::tenant_name(t),
            budget_per_client * clients as u64,
        );
    }
    let total_requests = (config.total_clients() * config.generations * 8 + 4096) as u64;
    let gate = Arc::new(StartGate::default());
    // The gate only makes sense when admission can hold every client's first
    // request at once; under a deliberately tight admission bound the storm
    // starts hot immediately (shed/retry is the behaviour under test there).
    let gated = config.max_inflight_requests >= config.total_clients() as u64;
    let mut builder = ServiceBuilder::new()
        .auth(auth)
        .layer(admission.clone())
        .quota(quota)
        .rate_limit(RateLimit::new(total_requests, total_requests as f64))
        .fair_scheduler_with(scheduler.clone());
    if gated {
        builder = builder.layer(gate.clone());
    }
    let service_time = Duration::from_micros(config.service_time_us);
    let stack = if service_time.is_zero() {
        builder.build_with_backend(backend.clone())
    } else {
        let service = backend.clone();
        builder.build_with_backend(Arc::new(move |req: RequestEnvelope| {
            thread::sleep(service_time);
            service.call(req)
        }))
    };

    // Per-client datasets.  Tenants in the same overlap group use the same
    // seeds, so their datasets — and therefore their chunks — are identical.
    struct ClientSpec {
        tenant: usize,
        index: usize,
        dataset: ClientDataset,
    }
    let mut specs: Vec<ClientSpec> = Vec::with_capacity(config.total_clients());
    let mut shared: BTreeMap<(usize, usize), ClientDataset> = BTreeMap::new();
    for t in 0..config.tenants {
        let group = t / config.overlap_group;
        let clients = config.clients_per_tenant
            + if t == 0 {
                config.hot_tenant_extra_clients
            } else {
                0
            };
        for c in 0..clients {
            let dataset = shared
                .entry((group, c))
                .or_insert_with(|| {
                    Arc::new(
                        generational_payloads(GenerationalPayloadParams {
                            seed: config
                                .seed
                                .wrapping_add((group as u64) << 32)
                                .wrapping_add(c as u64),
                            generations: config.generations,
                            initial_size: config.initial_payload_bytes,
                            mutation_rate: config.mutation_rate,
                            growth_per_generation: config.growth_per_generation,
                        })
                        .into_iter()
                        .map(|(name, data)| (name, Arc::new(data)))
                        .collect(),
                    )
                })
                .clone();
            specs.push(ClientSpec {
                tenant: t,
                index: c,
                dataset,
            });
        }
    }

    let storm = Arc::new(Storm {
        stack,
        backend,
        scheduler,
        admission,
        next_request_id: AtomicU64::new(1),
        retries: AtomicU64::new(0),
        remaining_clients: (0..config.tenants)
            .map(|t| {
                AtomicUsize::new(
                    config.clients_per_tenant
                        + if t == 0 {
                            config.hot_tenant_extra_clients
                        } else {
                            0
                        },
                )
            })
            .collect(),
        snapshot: Mutex::new(None),
    });

    // ── Phase 1: ingest storm ────────────────────────────────────────────
    // Every client parks on a start barrier, so all tenants contend from the
    // same instant — without it, early-spawned tenants would finish before
    // late ones even start and the fairness snapshot would be meaningless.
    let start = Arc::new(Barrier::new(specs.len()));
    let handles: Vec<_> = specs
        .into_iter()
        .map(|spec| {
            let storm = storm.clone();
            let start = start.clone();
            thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn(move || {
                    start.wait();
                    ingest_client(&storm, &spec_tenant(&spec), &spec)
                })
                .expect("spawn client thread")
        })
        .collect();
    fn spec_tenant(spec: &ClientSpec) -> String {
        TenantStormConfig::tenant_name(spec.tenant)
    }
    fn ingest_client(storm: &Storm, tenant: &str, spec: &ClientSpec) -> Vec<StoredFile> {
        let token = TenantStormConfig::token(spec.tenant);
        let mut stored = Vec::with_capacity(spec.dataset.len());
        for (generation, (name, data)) in spec.dataset.iter().enumerate() {
            let req = RequestEnvelope::new(
                storm.next_id(),
                tenant,
                Operation::Backup {
                    file_name: format!("client-{}/{}", spec.index, name),
                    generation: generation as u64,
                },
            )
            .with_payload(data.as_ref().clone())
            .with_token(token.clone());
            let resp = storm.call_with_retry(&req);
            assert!(
                resp.is_ok(),
                "backup rejected for a non-overload reason: {:?} {}",
                resp.code,
                resp.message
            );
            stored.push(StoredFile {
                tenant: spec.tenant,
                file_id: resp.metadata_u64(FILE_ID_KEY).expect("backup returns id"),
                generation: generation as u64,
                data: data.clone(),
            });
        }
        // Last client of a tenant out: snapshot scheduler service shares the
        // first time any tenant completes — the maximally contended moment.
        if storm.remaining_clients[spec.tenant].fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut snap = storm.snapshot.lock().expect("snapshot lock");
            if snap.is_none() {
                *snap = Some((tenant.to_string(), storm.scheduler.completed_bytes()));
            }
        }
        stored
    }
    if gated {
        // Wait until every execution slot is occupied (blocked in the gate)
        // and every other client has parked its first request, then release.
        let want_parked = config.total_clients().saturating_sub(config.max_concurrent);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while std::time::Instant::now() < deadline {
            let parked: usize = (0..config.tenants)
                .map(|t| {
                    storm
                        .scheduler
                        .pending_requests(&TenantStormConfig::tenant_name(t))
                })
                .sum();
            if parked >= want_parked {
                break;
            }
            thread::sleep(Duration::from_micros(200));
        }
        gate.open();
    }
    let mut files: Vec<StoredFile> = Vec::new();
    for handle in handles {
        files.extend(handle.join().expect("client thread panicked"));
    }
    let backups = files.len();
    cluster
        .try_flush()
        .expect("no crash is armed before the churn phase");

    let (first_finisher, shares) = storm
        .snapshot
        .lock()
        .expect("snapshot lock")
        .clone()
        .expect("at least one tenant finished");
    let share_vec: Vec<f64> = (0..config.tenants)
        .map(|t| {
            shares
                .get(&TenantStormConfig::tenant_name(t))
                .copied()
                .unwrap_or(0) as f64
        })
        .collect();
    let fairness_index = jain_fairness_index(&share_vec);
    let mean_share = share_vec.iter().sum::<f64>() / share_vec.len() as f64;
    let hot_tenant_share_ratio = if mean_share > 0.0 {
        share_vec[0] / mean_share
    } else {
        0.0
    };

    // ── Phase 2: churn with concurrent verification ──────────────────────
    let churned: Vec<usize> = if config.churn_every == 0 {
        Vec::new()
    } else {
        (0..config.tenants)
            .filter(|t| t % config.churn_every == 0)
            .collect()
    };
    let reclaimed = Arc::new(AtomicU64::new(0));
    let recoveries = Arc::new(AtomicUsize::new(0));
    if !churned.is_empty() {
        let gc_turnstile = Arc::new(Mutex::new(()));
        let mut workers = Vec::new();
        for &t in &churned {
            let storm = storm.clone();
            let reclaimed = reclaimed.clone();
            let gc_turnstile = gc_turnstile.clone();
            workers.push(
                thread::Builder::new()
                    .stack_size(256 * 1024)
                    .spawn(move || {
                        let tenant = TenantStormConfig::tenant_name(t);
                        let token = TenantStormConfig::token(t);
                        let del = storm.call_with_retry(
                            &RequestEnvelope::new(
                                storm.next_id(),
                                tenant.clone(),
                                Operation::DeleteGeneration { generation: 0 },
                            )
                            .with_token(token.clone()),
                        );
                        assert!(del.is_ok(), "delete failed: {}", del.message);
                        // GC is cluster-scoped: serialize the sweeps so each
                        // one's report stays attributable, while restores on
                        // other threads keep running underneath.
                        let _turn = gc_turnstile.lock().expect("gc turnstile");
                        let gc = storm.call_with_retry(
                            &RequestEnvelope::new(
                                storm.next_id(),
                                tenant,
                                Operation::CollectGarbage,
                            )
                            .with_token(token),
                        );
                        assert!(gc.is_ok(), "gc failed: {}", gc.message);
                        reclaimed.fetch_add(
                            gc.metadata_u64("bytes_reclaimed").unwrap_or(0),
                            Ordering::Relaxed,
                        );
                    })
                    .expect("spawn churn thread"),
            );
        }
        // Every non-churned tenant restore-verifies all its files while the
        // deletes and sweeps run.
        let files_by_tenant: BTreeMap<usize, TenantFiles> = {
            let mut map: BTreeMap<usize, TenantFiles> = BTreeMap::new();
            for f in &files {
                if !churned.contains(&f.tenant) {
                    map.entry(f.tenant)
                        .or_default()
                        .push((f.file_id, f.data.clone()));
                }
            }
            map
        };
        for (t, tenant_files) in files_by_tenant {
            let storm = storm.clone();
            workers.push(
                thread::Builder::new()
                    .stack_size(256 * 1024)
                    .spawn(move || {
                        let tenant = TenantStormConfig::tenant_name(t);
                        let token = TenantStormConfig::token(t);
                        for (file_id, data) in tenant_files {
                            let resp = storm.call_with_retry(
                                &RequestEnvelope::new(
                                    storm.next_id(),
                                    tenant.clone(),
                                    Operation::Restore { file_id },
                                )
                                .with_token(token.clone()),
                            );
                            assert!(resp.is_ok(), "mid-churn restore failed: {}", resp.message);
                            assert!(
                                resp.payload == *data,
                                "tenant {} file {} corrupted during another tenant's churn",
                                tenant,
                                file_id
                            );
                        }
                    })
                    .expect("spawn verify thread"),
            );
        }
        // Optional mid-churn crash, supervised back to life.
        let supervisor = if config.crash_during_churn {
            let victim = cluster.node_ids()[config.seed as usize % config.nodes];
            let node = cluster.node_by_id(victim).expect("victim exists");
            let journal = node.journal();
            let mode = if config.seed.is_multiple_of(2) {
                CrashMode::Clean
            } else {
                CrashMode::Torn
            };
            journal.arm_crash_at_seq(journal.next_seq() + 1, mode);
            let cluster = cluster.clone();
            let recoveries = recoveries.clone();
            let stop = Arc::new(AtomicUsize::new(0));
            let stop_flag = stop.clone();
            let handle = thread::spawn(move || {
                while stop_flag.load(Ordering::Acquire) == 0 {
                    for id in cluster.crashed_nodes() {
                        cluster
                            .restart_node(id)
                            .expect("journaled node must recover");
                        recoveries.fetch_add(1, Ordering::Relaxed);
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                // One final sweep so nothing stays down after the last worker.
                for id in cluster.crashed_nodes() {
                    cluster
                        .restart_node(id)
                        .expect("journaled node must recover");
                    recoveries.fetch_add(1, Ordering::Relaxed);
                }
            });
            Some((handle, stop))
        } else {
            None
        };
        for worker in workers {
            worker.join().expect("churn worker panicked");
        }
        if let Some((handle, stop)) = supervisor {
            stop.store(1, Ordering::Release);
            handle.join().expect("supervisor panicked");
        }
    }

    // ── Phase 3: final verification ──────────────────────────────────────
    let mut expected_restores = 0usize;
    let mut intact_restores = 0usize;
    let mut expired_files = 0usize;
    let mut expired_unreachable = 0usize;
    for f in &files {
        let tenant = TenantStormConfig::tenant_name(f.tenant);
        let resp = storm.call_with_retry(
            &RequestEnvelope::new(
                storm.next_id(),
                tenant,
                Operation::Restore { file_id: f.file_id },
            )
            .with_token(TenantStormConfig::token(f.tenant)),
        );
        if churned.contains(&f.tenant) && f.generation == 0 {
            expired_files += 1;
            if resp.code == ServiceCode::NotFound {
                expired_unreachable += 1;
            }
        } else {
            expected_restores += 1;
            if resp.is_ok() && resp.payload == *f.data {
                intact_restores += 1;
            }
        }
    }

    // Cross-tenant probes: a tenant restoring another tenant's file must see
    // the same NotFound as a nonexistent ID.
    let mut foreign_probes = 0usize;
    let mut foreign_probes_isolated = 0usize;
    for f in files.iter().step_by((files.len() / 16).max(1)) {
        let prober = (f.tenant + 1) % config.tenants;
        if prober == f.tenant {
            continue;
        }
        foreign_probes += 1;
        let resp = storm.call_with_retry(
            &RequestEnvelope::new(
                storm.next_id(),
                TenantStormConfig::tenant_name(prober),
                Operation::Restore { file_id: f.file_id },
            )
            .with_token(TenantStormConfig::token(prober)),
        );
        if resp.code == ServiceCode::NotFound {
            foreign_probes_isolated += 1;
        }
    }

    // Accounting convergence: live == ingested − freed per tenant, and the
    // live bytes partition the cluster's logical total.
    let reports = storm.backend.tenant_stats();
    let accounting_consistent = reports.values().all(|r| {
        r.live_logical_bytes == r.logical_bytes.saturating_sub(r.freed_bytes)
            && r.logical_bytes >= r.freed_bytes
    });
    let sum_tenant_live_bytes: u64 = reports.values().map(|r| r.live_logical_bytes).sum();
    let sum_tenant_logical_bytes: u64 = reports.values().map(|r| r.logical_bytes).sum();
    let stats = cluster.stats();

    TenantStormReport {
        tenants: config.tenants,
        clients: config.total_clients(),
        backups,
        admitted: storm.admission.admitted_count(),
        shed: storm.admission.shed_count(),
        retries: storm.retries.load(Ordering::Relaxed),
        fairness_index,
        first_finisher,
        hot_tenant_share_ratio,
        expected_restores,
        intact_restores,
        expired_files,
        expired_unreachable,
        foreign_probes,
        foreign_probes_isolated,
        churned_tenants: churned.len(),
        reclaimed_bytes: reclaimed.load(Ordering::Relaxed),
        recoveries: recoveries.load(Ordering::Relaxed),
        cluster_logical_bytes: stats.logical_bytes,
        cluster_physical_bytes: stats.physical_bytes,
        sum_tenant_live_bytes,
        sum_tenant_logical_bytes,
        accounting_consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_storm_structure() {
        let config = TenantStormConfig::ci();
        assert_eq!(config.total_clients(), 104);
        let full = TenantStormConfig::default();
        assert!(full.total_clients() >= 1000, "full storm is ≥1000 clients");
        assert!(full.tenants >= 100, "full storm is ≥100 tenants");
    }
}

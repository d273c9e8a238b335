//! The multi-tenant heavy-traffic storm: hundreds of tenants, a thousand-plus
//! clients, one fixed cluster behind the full service stack.
//!
//! The scenario exercises exactly the properties the fairness and admission
//! layers exist for:
//!
//! 1. **ingest storm** — every client backs up its generational dataset
//!    through admission → fair-scheduler → auth → quota → rate-limit,
//!    retrying shed (503) requests.  Tenants in the same *overlap group* back
//!    up identical datasets, so physical chunks are shared across tenants
//!    while logical accounting stays strictly per-tenant.  One **hot tenant**
//!    runs several times the client count of everyone else and must not
//!    starve the rest: at the moment the first tenant completes its workload,
//!    the scheduler's per-tenant completed bytes are snapshotted and scored
//!    with [`jain_fairness_index`] — deficit-round-robin keeps the index near
//!    1.0 even though the hot tenant's *demand* is wildly unequal.
//! 2. **churn** — a subset of tenants expires its oldest generation
//!    (delete + garbage collection) interleaved with every other tenant
//!    restore-verifying its files byte for byte; optionally a node is crashed
//!    at a journal-record boundary mid-churn and restarted by the request
//!    that finds it down.
//! 3. **verification** — surviving files restore byte-identically, expired
//!    files and cross-tenant probes both read as `NotFound`, per-tenant live
//!    logical bytes partition the cluster's logical total, and cumulative
//!    per-tenant accounting converges (`live == ingested − freed`).
//!
//! The storm runs on the calling thread in virtual time.  Each client is a
//! script of requests with at most one outstanding.  The driver sends every
//! ready request, serves every request whose scheduler grant is live, then
//! completes the oldest served one, which releases its admission permit and
//! scheduler grant and advances the rate limiter's [`ManualClock`] by one
//! tick.  So every figure, the Jain index included, is a function of the
//! configuration alone: one seed gives one report.
//!
//! The driver is [`run_tenant_storm`]; [`TenantStormConfig::default`] is the
//! full-scale storm (100 tenants, 1030 clients), [`TenantStormConfig::ci`] a
//! debug-friendly reduction with the same phase structure.

use sigma_core::{DedupCluster, SigmaConfig};
use sigma_metrics::jain_fairness_index;
use sigma_service::middleware::{
    AdmissionControl, AdmissionPermit, FairScheduler, ManualClock, RateLimit, SchedulerGrant,
    TenantQuota, TokenAuth,
};
use sigma_service::{
    backend::FILE_ID_KEY, BackupService, Operation, RequestEnvelope, ResponseEnvelope,
    ServiceBuilder, ServiceCode, ServiceStack,
};
use sigma_storage::CrashMode;
use sigma_workloads::payload::{generational_payloads, GenerationalPayloadParams};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// One client's generational dataset: `(file name, payload)` per generation,
/// shared between the clients of an overlap group.
type ClientDataset = Arc<Vec<(String, Arc<Vec<u8>>)>>;

/// Virtual time one completed request advances the rate limiter's clock.
const TICK: Duration = Duration::from_millis(1);

/// Parameters of one tenant-storm run.
#[derive(Debug, Clone)]
pub struct TenantStormConfig {
    /// Number of tenants (each gets its own token, quota and scheduler queue).
    pub tenants: usize,
    /// Clients per tenant.
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
    /// Crash one node at a journal boundary mid-churn; the request that
    /// finds it down restarts it and retries.
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

    /// Clients of tenant `t`.
    fn clients_of(&self, t: usize) -> usize {
        self.clients_per_tenant
            + if t == 0 {
                self.hot_tenant_extra_clients
            } else {
                0
            }
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
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStormReport {
    /// Tenants simulated.
    pub tenants: usize,
    /// Clients simulated (including the hot tenant's extras).
    pub clients: usize,
    /// Backups acknowledged.
    pub backups: usize,
    /// Requests the admission layer let in (including retries of shed ones).
    pub admitted: u64,
    /// Requests the admission layer shed with a 503.
    pub shed: u64,
    /// Client-side retries (shed and crash-unavailable requests replayed).
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
    /// Node restarts after a crash during churn.
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

/// One admitted request: the permit and grant it holds until the driver
/// completes it.
struct Admitted<'s> {
    client: usize,
    _permit: AdmissionPermit<'s>,
    grant: SchedulerGrant<'s>,
}

/// The storm's service: admission and the fair scheduler, taken by the
/// driver, in front of the rest of the full stack.
struct Storm {
    cluster: Arc<DedupCluster>,
    backend: Arc<BackupService>,
    admission: AdmissionControl,
    scheduler: FairScheduler,
    /// auth → quota → rate-limit → [`BackupService`].
    stack: ServiceStack,
    clock: Arc<ManualClock>,
    next_request_id: Cell<u64>,
    retries: Cell<u64>,
    recoveries: Cell<usize>,
}

impl Storm {
    fn new(config: &TenantStormConfig) -> Self {
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            config.nodes,
            config.sigma.clone(),
        ));
        let backend = Arc::new(BackupService::new(cluster.clone()));
        let mut auth = TokenAuth::new();
        let mut quota = TenantQuota::new();
        let budget_per_client = config.bytes_per_client() * 2 + (1 << 20);
        for t in 0..config.tenants {
            let tenant = TenantStormConfig::tenant_name(t);
            auth = auth.tenant(tenant.clone(), TenantStormConfig::token(t));
            quota = quota.budget(tenant, budget_per_client * config.clients_of(t) as u64);
        }
        let total_requests = (config.total_clients() * config.generations * 8 + 4096) as u64;
        let clock = Arc::new(ManualClock::new());
        let stack = ServiceBuilder::new()
            .auth(auth)
            .quota(quota)
            .rate_limit(
                RateLimit::new(total_requests, total_requests as f64).with_clock(clock.clone()),
            )
            .build_with_backend(backend.clone());
        Storm {
            cluster,
            backend,
            admission: AdmissionControl::new(
                config.max_inflight_requests,
                config.max_inflight_bytes,
            ),
            scheduler: FairScheduler::new(
                config.quantum_bytes,
                config.max_tenant_inflight_bytes,
                config.max_concurrent,
            ),
            stack,
            clock,
            next_request_id: Cell::new(1),
            retries: Cell::new(0),
            recoveries: Cell::new(0),
        }
    }

    /// A request from tenant `t`, with its token and the next request id.
    fn request(&self, t: usize, op: Operation) -> RequestEnvelope {
        let id = self.next_request_id.get();
        self.next_request_id.set(id + 1);
        RequestEnvelope::new(id, TenantStormConfig::tenant_name(t), op)
            .with_token(TenantStormConfig::token(t))
    }

    /// Restarts every crashed node.
    fn restart_crashed(&self) {
        for id in self.cluster.crashed_nodes() {
            self.cluster
                .restart_node(id)
                .expect("journaled node must recover");
            self.recoveries.set(self.recoveries.get() + 1);
        }
    }

    /// Runs `req` through the stack; a reply of `Unavailable` means a node
    /// crashed under it, so the crashed nodes are restarted and the request
    /// retried.
    fn serve(&self, req: &RequestEnvelope) -> ResponseEnvelope {
        loop {
            let reply = self.stack.call(req.clone());
            if reply.code != ServiceCode::Unavailable {
                return reply;
            }
            assert!(
                !self.cluster.crashed_nodes().is_empty(),
                "unavailable with every node up: {}",
                reply.message
            );
            self.restart_crashed();
            self.retries.set(self.retries.get() + 1);
        }
    }

    /// Drives every client's script to its end and hands each reply to
    /// `on_reply(client, step, reply)` in completion order.
    ///
    /// A client sends its next request once the previous one completed.
    /// Each round sends every ready request (admission, then a scheduler
    /// grant; a shed request waits for the next completion), serves every
    /// request whose grant is live in the order they were sent, then
    /// completes the oldest served request.
    fn run(
        &self,
        scripts: &[Vec<RequestEnvelope>],
        mut on_reply: impl FnMut(usize, usize, ResponseEnvelope),
    ) {
        let mut step = vec![0usize; scripts.len()];
        let mut ready: Vec<usize> = (0..scripts.len())
            .filter(|&c| !scripts[c].is_empty())
            .collect();
        let mut shed: Vec<usize> = Vec::new();
        let mut queued: Vec<Admitted<'_>> = Vec::new();
        let mut served: VecDeque<(Admitted<'_>, ResponseEnvelope)> = VecDeque::new();
        loop {
            for client in ready.drain(..) {
                let req = &scripts[client][step[client]];
                let bytes = req.payload.len() as u64;
                match self.admission.try_admit(bytes) {
                    Ok(permit) => queued.push(Admitted {
                        client,
                        _permit: permit,
                        grant: self.scheduler.submit(&req.tenant, bytes),
                    }),
                    Err(_) => {
                        self.retries.set(self.retries.get() + 1);
                        shed.push(client);
                    }
                }
            }
            let (live, waiting): (Vec<_>, Vec<_>) =
                queued.drain(..).partition(|r| r.grant.is_live());
            queued = waiting;
            for request in live {
                let reply = self.serve(&scripts[request.client][step[request.client]]);
                served.push_back((request, reply));
            }
            let Some((request, reply)) = served.pop_front() else {
                break;
            };
            let client = request.client;
            drop(request);
            self.clock.advance(TICK);
            on_reply(client, step[client], reply);
            step[client] += 1;
            ready.append(&mut shed);
            if step[client] < scripts[client].len() {
                ready.push(client);
            }
        }
        assert!(
            queued.is_empty() && shed.is_empty(),
            "storm stalled with requests outstanding"
        );
    }
}

/// Each client's tenant, index within the tenant, and dataset.  Tenants in
/// the same overlap group use the same seeds, so their datasets — and
/// therefore their chunks — are identical.
fn client_datasets(config: &TenantStormConfig) -> Vec<(usize, usize, ClientDataset)> {
    let mut shared: BTreeMap<(usize, usize), ClientDataset> = BTreeMap::new();
    let mut clients = Vec::with_capacity(config.total_clients());
    for t in 0..config.tenants {
        let group = t / config.overlap_group;
        for c in 0..config.clients_of(t) {
            let dataset = shared.entry((group, c)).or_insert_with(|| {
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
            });
            clients.push((t, c, dataset.clone()));
        }
    }
    clients
}

/// Runs the full storm: ingest under contention, churn interleaved with
/// verification (and an optional node crash), then final verification.
///
/// # Panics
///
/// Panics on configuration nonsense (zero tenants/clients/generations) and
/// on any response that violates the service contract (a rejection of a
/// legitimate request other than a shed).
pub fn run_tenant_storm(config: &TenantStormConfig) -> TenantStormReport {
    assert!(config.tenants > 0, "need at least one tenant");
    assert!(config.clients_per_tenant > 0, "need at least one client");
    assert!(config.generations > 0, "need at least one generation");
    assert!(config.overlap_group > 0, "overlap group must be positive");
    let storm = Storm::new(config);

    // ── Phase 1: ingest storm ────────────────────────────────────────────
    // Every client sends its first request at virtual time zero, so all
    // tenants contend from the first grant on.
    let clients = client_datasets(config);
    let scripts: Vec<Vec<RequestEnvelope>> = clients
        .iter()
        .map(|(t, c, dataset)| {
            dataset
                .iter()
                .enumerate()
                .map(|(generation, (name, data))| {
                    let op = Operation::Backup {
                        file_name: format!("client-{}/{}", c, name),
                        generation: generation as u64,
                    };
                    storm.request(*t, op).with_payload(data.to_vec())
                })
                .collect()
        })
        .collect();
    let mut backups_left: Vec<usize> = (0..config.tenants)
        .map(|t| config.clients_of(t) * config.generations)
        .collect();
    let mut files: Vec<StoredFile> = Vec::new();
    let mut snapshot: Option<(String, BTreeMap<String, u64>)> = None;
    storm.run(&scripts, |client, generation, reply| {
        assert!(
            reply.is_ok(),
            "backup rejected: {:?} {}",
            reply.code,
            reply.message
        );
        let (tenant, _, dataset) = &clients[client];
        files.push(StoredFile {
            tenant: *tenant,
            file_id: reply.metadata_u64(FILE_ID_KEY).expect("backup returns id"),
            generation: generation as u64,
            data: dataset[generation].1.clone(),
        });
        // The first tenant to finish takes the fairness snapshot: the
        // maximally contended moment.
        backups_left[*tenant] -= 1;
        if backups_left[*tenant] == 0 && snapshot.is_none() {
            snapshot = Some((
                TenantStormConfig::tenant_name(*tenant),
                storm.scheduler.completed_bytes(),
            ));
        }
    });
    drop(scripts);
    storm
        .cluster
        .try_flush()
        .expect("no crash is armed before the churn phase");

    let (first_finisher, shares) = snapshot.expect("at least one tenant finished");
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

    // ── Phase 2: churn interleaved with verification ─────────────────────
    let churned: Vec<usize> = if config.churn_every == 0 {
        Vec::new()
    } else {
        (0..config.tenants)
            .filter(|t| t % config.churn_every == 0)
            .collect()
    };
    let mut owned: Vec<Vec<&StoredFile>> = vec![Vec::new(); config.tenants];
    for f in &files {
        owned[f.tenant].push(f);
    }
    let restore_script = |t: usize| -> Vec<RequestEnvelope> {
        owned[t]
            .iter()
            .map(|f| storm.request(t, Operation::Restore { file_id: f.file_id }))
            .collect()
    };
    let mut reclaimed_bytes = 0u64;
    if !churned.is_empty() {
        if config.crash_during_churn {
            let victim = storm.cluster.node_ids()[config.seed as usize % config.nodes];
            let node = storm.cluster.node_by_id(victim).expect("victim exists");
            let journal = node.journal();
            let mode = if config.seed.is_multiple_of(2) {
                CrashMode::Clean
            } else {
                CrashMode::Torn
            };
            journal.arm_crash_at_seq(journal.next_seq() + 1, mode);
        }
        // Each churned tenant deletes generation 0 and collects garbage;
        // every other tenant restore-verifies all its files meanwhile.
        let mut scripts: Vec<Vec<RequestEnvelope>> = churned
            .iter()
            .map(|&t| {
                vec![
                    storm.request(t, Operation::DeleteGeneration { generation: 0 }),
                    storm.request(t, Operation::CollectGarbage),
                ]
            })
            .collect();
        let restorers: Vec<usize> = (0..config.tenants)
            .filter(|t| !churned.contains(t))
            .collect();
        scripts.extend(restorers.iter().map(|&t| restore_script(t)));
        storm.run(&scripts, |client, step, reply| {
            assert!(
                reply.is_ok(),
                "churn-phase request failed: {:?} {}",
                reply.code,
                reply.message
            );
            match client.checked_sub(churned.len()) {
                None => reclaimed_bytes += reply.metadata_u64("bytes_reclaimed").unwrap_or(0),
                Some(restorer) => {
                    let file = owned[restorers[restorer]][step];
                    assert!(
                        reply.payload == *file.data,
                        "tenant {} file {} corrupted during another tenant's churn",
                        file.tenant,
                        file.file_id
                    );
                }
            }
        });
        // A crashed node no request ran into is restarted here.
        storm.restart_crashed();
    }

    // ── Phase 3: final verification ──────────────────────────────────────
    // One restore script per tenant, then one script of cross-tenant probes:
    // a tenant restoring another tenant's file must see the same NotFound as
    // a nonexistent ID.
    let probes: Vec<(usize, &StoredFile)> = files
        .iter()
        .step_by((files.len() / 16).max(1))
        .map(|f| ((f.tenant + 1) % config.tenants, f))
        .filter(|&(prober, f)| prober != f.tenant)
        .collect();
    let mut scripts: Vec<Vec<RequestEnvelope>> = (0..config.tenants).map(restore_script).collect();
    scripts.push(
        probes
            .iter()
            .map(|&(prober, f)| storm.request(prober, Operation::Restore { file_id: f.file_id }))
            .collect(),
    );
    let mut expected_restores = 0usize;
    let mut intact_restores = 0usize;
    let mut expired_files = 0usize;
    let mut expired_unreachable = 0usize;
    let mut foreign_probes_isolated = 0usize;
    storm.run(&scripts, |client, step, reply| {
        let Some(restored) = owned.get(client) else {
            foreign_probes_isolated += usize::from(reply.code == ServiceCode::NotFound);
            return;
        };
        let file = restored[step];
        if churned.contains(&file.tenant) && file.generation == 0 {
            expired_files += 1;
            expired_unreachable += usize::from(reply.code == ServiceCode::NotFound);
        } else {
            expected_restores += 1;
            intact_restores += usize::from(reply.is_ok() && reply.payload == *file.data);
        }
    });

    // Accounting convergence: live == ingested − freed per tenant, and the
    // live bytes partition the cluster's logical total.
    let reports = storm.backend.tenant_stats();
    let accounting_consistent = reports.values().all(|r| {
        r.live_logical_bytes == r.logical_bytes.saturating_sub(r.freed_bytes)
            && r.logical_bytes >= r.freed_bytes
    });
    let sum_tenant_live_bytes: u64 = reports.values().map(|r| r.live_logical_bytes).sum();
    let sum_tenant_logical_bytes: u64 = reports.values().map(|r| r.logical_bytes).sum();
    let stats = storm.cluster.stats();

    TenantStormReport {
        tenants: config.tenants,
        clients: config.total_clients(),
        backups: files.len(),
        admitted: storm.admission.admitted_count(),
        shed: storm.admission.shed_count(),
        retries: storm.retries.get(),
        fairness_index,
        first_finisher,
        hot_tenant_share_ratio,
        expected_restores,
        intact_restores,
        expired_files,
        expired_unreachable,
        foreign_probes: probes.len(),
        foreign_probes_isolated,
        churned_tenants: churned.len(),
        reclaimed_bytes,
        recoveries: storm.recoveries.get(),
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

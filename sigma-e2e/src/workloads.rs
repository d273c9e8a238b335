//! The four workloads, as a closed loop over `TcpClient`: one request in flight
//! per connection, op counts fixed by `Sizes` (never time-boxed) so that both
//! sides of a later comparison do identical work.
//!
//! A run is `Sizes::rounds` independent rounds. Each round sets the system up
//! afresh (set-up is therefore measured several times per run), backs up,
//! flushes, reopens all four nodes from disk, restores and verifies. Per-run
//! figures are medians over the rounds; latency percentiles pool the rounds'
//! samples.

use crate::gen::{self, Input};
use crate::report::Metric;
use crate::stats::{median, percentile};
use crate::sut::{self, Res, Sut, TENANT, WARMUP_TENANT};
use sigma_hashkit::Fingerprint;
use sigma_service::{RequestEnvelope, ResponseEnvelope, TcpClient};
use sigma_workloads::DeterministicRng;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const MIB: usize = 1 << 20;
pub const WORKLOADS: [&str; 4] = ["unique_1m", "versioned_1m", "small_16k", "mixed_rw"];

/// Op counts of one round. All four workloads scale together.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub rounds: usize,
    pub warmup_files: usize,
    pub unique_files: usize,
    pub versioned_streams: usize,
    pub versioned_versions: usize,
    pub versioned_restore_every: usize,
    pub small_files: usize,
    pub small_size: usize,
    pub small_restores: usize,
    pub mixed_preload_versions: usize,
    pub mixed_backups: usize,
    pub mixed_verify_after_restart: usize,
}

impl Sizes {
    /// Counts that take about `seconds` of measured time per run on the
    /// 2-core box this was sized on. The counts are a function of `seconds`
    /// alone, so the same `--seconds` is the same work on every commit.
    pub fn for_seconds(seconds: u64) -> Sizes {
        let s = seconds.max(1) as usize;
        Sizes {
            rounds: 4,
            warmup_files: 16,
            unique_files: 10 * s,
            versioned_streams: 8,
            versioned_versions: 5 * s,
            versioned_restore_every: 4,
            small_files: 300 * s,
            small_size: 16 << 10,
            small_restores: 3 * s,
            mixed_preload_versions: 8,
            mixed_backups: 20 * s,
            mixed_verify_after_restart: 8,
        }
    }

    /// The unmeasured first round: the same backups, since they are what
    /// grows the heap, and a tenth of `small_16k`'s restores, which at 44 ms
    /// each only wait.
    fn warm_up(&self) -> Sizes {
        Sizes {
            small_restores: self.small_restores.div_ceil(10),
            ..*self
        }
    }

    /// A few seconds for all four workloads together; used by the unit test.
    pub fn smoke() -> Sizes {
        Sizes {
            rounds: 1,
            warmup_files: 2,
            unique_files: 6,
            versioned_streams: 2,
            versioned_versions: 4,
            versioned_restore_every: 2,
            small_files: 40,
            small_size: 16 << 10,
            small_restores: 10,
            mixed_preload_versions: 2,
            mixed_backups: 8,
            mixed_verify_after_restart: 2,
        }
    }
}

/// One timed phase: per-request latencies as the client saw them, and the
/// phase clock, which is the sum of those latencies (a closed loop on one
/// connection has no other time) plus, for backups, the final flush.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub bytes: u64,
    pub clock: Duration,
    pub failed: u64,
}

impl Phase {
    fn mbps(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.clock.as_secs_f64()
    }
}

#[derive(Debug, Default, Clone)]
pub struct Round {
    pub setup_s: f64,
    pub backup: Phase,
    pub restore: Phase,
    pub recover_s: f64,
    pub stored_per_logical: f64,
    /// Requests outside the two timed phases (warm-up, preload, the read-back
    /// after `mixed_rw`'s restart): counted and checked, not timed.
    pub other: Phase,
}

impl Round {
    fn attempted(&self) -> u64 {
        [&self.backup, &self.restore, &self.other]
            .iter()
            .map(|p| p.latencies_ms.len() as u64)
            .sum()
    }

    fn failed(&self) -> u64 {
        self.backup.failed + self.restore.failed + self.other.failed
    }
}

/// What one untraced run reports.
pub struct EndToEnd {
    /// The gated metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Printed, not part of the result: no bound up to 0.25 held on these run
    /// after run (see README, "Baseline").
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// A file the service acknowledged, and the digest its restore must match.
#[derive(Clone, Copy)]
struct Acked {
    file_id: u64,
    digest: Fingerprint,
    bytes: u64,
}

fn call(client: &mut TcpClient, req: &RequestEnvelope) -> (Duration, Option<ResponseEnvelope>) {
    let start = Instant::now();
    let resp = client.call(req);
    (start.elapsed(), resp.ok())
}

/// Backs up `inputs` one after the other. Returns an entry per input, `None`
/// where the request failed.
fn backup_all(
    client: &mut TcpClient,
    tenant: &str,
    inputs: Vec<Input>,
    phase: &mut Phase,
) -> Vec<Option<Acked>> {
    let mut acked = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.into_iter().enumerate() {
        let bytes = input.payload.len() as u64;
        let req = sut::backup_request(i as u64, tenant, &input.name, input.payload);
        let (took, resp) = call(client, &req);
        phase.clock += took;
        phase.latencies_ms.push(took.as_secs_f64() * 1e3);
        let file_id = resp.as_ref().and_then(sut::accepted_file_id);
        match file_id {
            Some(_) => phase.bytes += bytes,
            None => phase.failed += 1,
        }
        acked.push(file_id.map(|file_id| Acked {
            file_id,
            digest: input.digest,
            bytes,
        }));
    }
    acked
}

/// Restores `files` in order; a `None` (its backup failed) is a failed restore.
fn restore_all(
    client: &mut TcpClient,
    tenant: &str,
    files: impl IntoIterator<Item = Option<Acked>>,
    phase: &mut Phase,
) {
    for (i, file) in files.into_iter().enumerate() {
        match file {
            Some(file) => restore_one(client, tenant, i as u64, file, phase),
            None => phase.failed += 1,
        }
    }
}

/// Restores one file; the digest check runs after the request's clock stopped.
fn restore_one(client: &mut TcpClient, tenant: &str, id: u64, file: Acked, phase: &mut Phase) {
    let (took, resp) = call(client, &sut::restore_request(id, tenant, file.file_id));
    phase.clock += took;
    phase.latencies_ms.push(took.as_secs_f64() * 1e3);
    match resp {
        Some(resp) if resp.is_ok() && gen::digest(&resp.payload) == file.digest => {
            phase.bytes += file.bytes;
        }
        _ => phase.failed += 1,
    }
}

fn timed<T>(f: impl FnOnce() -> Res<T>) -> Res<(T, f64)> {
    let start = Instant::now();
    let out = f()?;
    Ok((out, start.elapsed().as_secs_f64()))
}

/// Cluster + stack + bind + connect + a fixed warm-up backup/restore under
/// tenant `warmup`, ending in a flush. Input generation is not part of it.
fn set_up(root: &Path, warmup: Vec<Input>, other: &mut Phase) -> Res<(Sut, TcpClient)> {
    let sut = Sut::start(root)?;
    let mut client = sut.connect()?;
    let acked = backup_all(&mut client, WARMUP_TENANT, warmup, other);
    restore_all(&mut client, WARMUP_TENANT, acked, other);
    sut.flush()?;
    Ok((sut, client))
}

/// The shape three of the four workloads share: back up `inputs`, flush,
/// reopen every node, restore the files at `restore_picks` in that order.
fn backup_restart_restore(
    sut: &Sut,
    client: &mut TcpClient,
    inputs: Vec<Input>,
    restore_picks: &[usize],
    round: &mut Round,
) -> Res<()> {
    let baseline = sut.stored_bytes()?;
    let acked = backup_all(client, TENANT, inputs, &mut round.backup);
    let ((), flush_s) = timed(|| sut.flush())?;
    round.backup.clock += Duration::from_secs_f64(flush_s);
    round.stored_per_logical =
        (sut.stored_bytes()? - baseline) as f64 / round.backup.bytes.max(1) as f64;

    let (_, recover_s) = timed(|| sut.restart_all())?;
    round.recover_s = recover_s;

    let picked = restore_picks.iter().map(|&pick| acked[pick]);
    restore_all(client, TENANT, picked, &mut round.restore);
    Ok(())
}

/// Connection A backs up `mixed_backups` further versions while connection B
/// restores seeded picks among the preloaded files, back to back, until A's
/// last acknowledgement.
///
/// B reads only files whose containers were sealed by the flush that ends
/// set-up. At the commit this benchmark was written on, restoring a file
/// acknowledged moments ago while its node seals the container fails with
/// `chunk .. missing on node ..` (about 3 % of such restores, see README);
/// a workload must not contain operations that fail, so that case is left out.
fn mixed_round(
    sut: &Sut,
    client_a: &mut TcpClient,
    preloaded: &[Acked],
    inputs: Vec<Input>,
    seed: u64,
    sizes: &Sizes,
    round: &mut Round,
) -> Res<()> {
    let baseline = sut.stored_bytes()?;
    let a_done = AtomicBool::new(false);
    let mut client_b = sut.connect()?;
    let mut restore = Phase::default();

    let acked: Vec<Acked> = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut rng = DeterministicRng::new(gen::mix(seed, 0xB));
            let mut id = 0;
            while !a_done.load(Ordering::SeqCst) {
                let file = preloaded[rng.below(preloaded.len() as u64) as usize];
                restore_one(&mut client_b, TENANT, id, file, &mut restore);
                id += 1;
            }
        });
        let acked = backup_all(client_a, TENANT, inputs, &mut round.backup);
        a_done.store(true, Ordering::SeqCst);
        acked.into_iter().flatten().collect()
    });
    round.restore = restore;

    let ((), flush_s) = timed(|| sut.flush())?;
    round.backup.clock += Duration::from_secs_f64(flush_s);
    round.stored_per_logical =
        (sut.stored_bytes()? - baseline) as f64 / round.backup.bytes.max(1) as f64;

    let (_, recover_s) = timed(|| sut.restart_all())?;
    round.recover_s = recover_s;

    // Every acknowledged byte must have survived the restart; a sample of
    // what A wrote is read back and checked, outside the timed phases.
    let count = sizes.mixed_verify_after_restart.min(acked.len());
    for (i, pick) in gen::sample(gen::mix(seed, 0xC), acked.len(), count)
        .into_iter()
        .enumerate()
    {
        restore_one(client_a, TENANT, i as u64, acked[pick], &mut round.other);
    }
    Ok(())
}

/// One round of `workload` under `root`. Inputs are generated before any
/// clock starts.
pub fn run_round(workload: &str, seed: u64, sizes: &Sizes, root: &Path) -> Res<Round> {
    let mut round = Round::default();
    let warmup = gen::unique_files(gen::mix(seed, 0xA), sizes.warmup_files, MIB);
    let streams = sizes.versioned_streams;
    let sut = if workload == "mixed_rw" {
        let preload_count = streams * sizes.mixed_preload_versions;
        let versions = sizes.mixed_preload_versions + sizes.mixed_backups.div_ceil(streams);
        let mut all = gen::versioned_round_robin(seed, streams, versions, MIB, 0.25);
        all.truncate(preload_count + sizes.mixed_backups);
        let inputs = all.split_off(preload_count);
        let (((sut, mut client), preloaded), setup_s) = timed(|| {
            let (sut, mut client) = set_up(root, warmup, &mut round.other)?;
            let preloaded: Vec<Acked> = backup_all(&mut client, TENANT, all, &mut round.other)
                .into_iter()
                .flatten()
                .collect();
            sut.flush()?;
            Ok(((sut, client), preloaded))
        })?;
        round.setup_s = setup_s;
        if preloaded.is_empty() {
            return Err("mixed_rw: no preloaded file was acknowledged".into());
        }
        mixed_round(
            &sut,
            &mut client,
            &preloaded,
            inputs,
            seed,
            sizes,
            &mut round,
        )?;
        sut
    } else {
        let (inputs, picks): (Vec<Input>, Vec<usize>) = match workload {
            "unique_1m" => {
                let inputs = gen::unique_files(seed, sizes.unique_files, MIB);
                let picks = (0..inputs.len()).collect();
                (inputs, picks)
            }
            "versioned_1m" => {
                let inputs =
                    gen::versioned_round_robin(seed, streams, sizes.versioned_versions, MIB, 0.05);
                let picks = (0..inputs.len())
                    .filter(|i| (i / streams).is_multiple_of(sizes.versioned_restore_every))
                    .collect();
                (inputs, picks)
            }
            "small_16k" => {
                let inputs = gen::unique_files(seed, sizes.small_files, sizes.small_size);
                let picks = gen::sample(gen::mix(seed, 0xD), inputs.len(), sizes.small_restores);
                (inputs, picks)
            }
            other => return Err(format!("unknown workload {other:?}")),
        };
        let ((sut, mut client), setup_s) = timed(|| set_up(root, warmup, &mut round.other))?;
        round.setup_s = setup_s;
        backup_restart_restore(&sut, &mut client, inputs, &picks, &mut round)?;
        sut
    };
    // Scratch is removed on success only: a failed round leaves its files.
    if round.failed() == 0 {
        sut.finish()?;
    }
    Ok(round)
}

/// All rounds of one untraced run, folded into the reported figures.
pub fn run_end_to_end(workload: &str, seed: u64, sizes: &Sizes, scratch: &Path) -> Res<EndToEnd> {
    let root = scratch.join(workload);
    // Unmeasured: the first round of a process runs at about half speed here,
    // because it is the one that grows the heap (first touch of fresh memory
    // costs more in this VM than the work done in it). Its requests are still
    // checked and counted.
    let warm_up = run_round(workload, gen::mix(seed, 0xFF), &sizes.warm_up(), &root)?;
    let rounds: Vec<Round> = (0..sizes.rounds)
        .map(|r| run_round(workload, gen::mix(seed, 0x100 + r as u64), sizes, &root))
        .collect::<Res<_>>()?;
    let over = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&Round) -> &Phase| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| f(r).latencies_ms.iter().copied())
            .collect()
    };
    let backup = pooled(&|r| &r.backup);
    let restore = pooled(&|r| &r.restore);
    if backup.is_empty() || restore.is_empty() {
        return Err(format!("{workload}: a phase made no request"));
    }
    let rounds_n = rounds.len();
    Ok(EndToEnd {
        metrics: vec![
            Metric::new("backup_mbps", over(&|r| r.backup.mbps()), "MB/s").with_samples(rounds_n),
            Metric::new("restore_mbps", over(&|r| r.restore.mbps()), "MB/s").with_samples(rounds_n),
            Metric::new("restore_p50_ms", percentile(&restore, 50.0), "ms")
                .with_samples(restore.len()),
            Metric::new("stored_per_logical", over(&|r| r.stored_per_logical), "B/B"),
            Metric::new("recover_s", over(&|r| r.recover_s), "s").with_samples(rounds_n),
            Metric::new("setup_s", over(&|r| r.setup_s), "s").with_samples(rounds_n),
        ],
        info: vec![
            Metric::new("backup_p50_ms", percentile(&backup, 50.0), "ms")
                .with_samples(backup.len()),
            Metric::new("backup_p95_ms", percentile(&backup, 95.0), "ms")
                .with_samples(backup.len()),
            Metric::new("restore_p95_ms", percentile(&restore, 95.0), "ms")
                .with_samples(restore.len()),
        ],
        attempted: warm_up.attempted() + rounds.iter().map(Round::attempted).sum::<u64>(),
        failed: warm_up.failed() + rounds.iter().map(Round::failed).sum::<u64>(),
    })
}

//! The traced chunk replay: the exact chunk sequence a service formed,
//! replayed into a fresh, identically built session with one span around
//! every call into a layer's public function, in the order the service's
//! ingest loop makes them — route, journal append and fsync, engine,
//! audits, checkpoint.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dsg::prelude::*;
use dsg::{DurableStore, EngineImage, RunStats};
use dsg_skipgraph::{BalanceReport, Key};

use crate::drive::Res;
use crate::spans::{Tracer, ROOT};
use crate::spec::WorkloadId;

/// Epoch cadence of the service's deep audit and of the default snapshot
/// checkpoint, mirrored by the replay.
const DEEP_AUDIT_EVERY: u64 = 32;

/// Deep audits timed after the warm-up; later due points are skipped (the
/// audit only reads, so skipping it changes nothing downstream).
const DEEP_AUDIT_SAMPLES: usize = 64;

/// Chunks after the warm-up that the persistence probe journals. A store
/// journaling every chunk of a fast workload would spend most of the run
/// on snapshots; this many give stable timings and a recovery to time.
const PERSIST_PROBE_CHUNKS: usize = 2048;

/// A directory removed again when dropped.
#[derive(Debug)]
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn fresh(path: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Counters summed over the replayed chunks after the warm-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub requests: u64,
    pub epochs: u64,
    pub clusters: u64,
    pub install_passes: u64,
    pub touched_pairs: u64,
    pub dummies_inserted: u64,
    pub dummies_destroyed: u64,
    pub pairs_gated: u64,
    pub restructures_budgeted: u64,
    pub sketch_aging_passes: u64,
    pub plan_wall_ns: u64,
}

impl Counters {
    fn add(&mut self, b: &BatchOutcome, requests: usize) {
        self.requests += requests as u64;
        self.epochs += b.epochs as u64;
        self.clusters += b.clusters as u64;
        self.install_passes += b.install_passes as u64;
        self.touched_pairs += b.touched_pairs as u64;
        self.dummies_inserted += b.dummies_inserted as u64;
        self.dummies_destroyed += b.dummies_destroyed as u64;
        self.pairs_gated += b.pairs_gated;
        self.restructures_budgeted += b.restructures_budgeted;
        self.sketch_aging_passes += b.sketch_aging_passes;
        self.plan_wall_ns += b.plan_wall_ns;
    }
}

/// The deterministic end state a replay must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndState {
    /// Cumulative cost statistics with the timing field zeroed.
    pub stats: RunStats,
    pub height: usize,
    pub dummies: usize,
}

impl EndState {
    pub fn of(session: &DsgSession) -> Self {
        EndState {
            stats: RunStats {
                plan_wall_ns: 0,
                ..*session.stats()
            },
            height: session.height(),
            dummies: session.engine().dummy_count(),
        }
    }
}

#[derive(Debug)]
pub struct Replay {
    pub end: EndState,
    pub peers: usize,
    /// Counters over the chunks after the warm-up.
    pub measured: Counters,
    /// The same, from the twin session behind the admission gate.
    pub gated: Counters,
    /// Index of the first chunk after the warm-up.
    pub first_measured: u64,
    pub balance: BalanceReport,
    pub snapshot_bytes: u64,
    pub journal_bytes: u64,
    /// Requests in the chunks the persistence probe journaled.
    pub probed_requests: u64,
    pub recover_ms: f64,
    pub recover_replayed: u64,
}

/// Replays `journal` without spans and returns its end state — the
/// determinism oracle the self-test runs twice.
pub fn replay_plain(w: WorkloadId, journal: &[Vec<Request>]) -> Res<EndState> {
    let mut session = w.builder().build().map_err(|e| e.to_string())?;
    for chunk in journal {
        session
            .submit_batch(chunk)
            .map_err(|e| format!("replayed chunk failed: {e}"))?;
    }
    Ok(EndState::of(&session))
}

/// Replays `journal` with spans into `tracer`, in the service's per-chunk
/// order: route every pair, append and fsync the chunk, apply it, audit,
/// checkpoint on the epoch cadence. The warm-up chunks and the first
/// [`PERSIST_PROBE_CHUNKS`] after them are journaled into a fresh durable
/// store, which is then recovered with a timed `DsgService::open` and
/// checked bit for bit against the engine it journaled. Every chunk is
/// also applied to a twin session with the adaptation policy gated, the
/// only way either workload reaches `dsg::policy`.
pub fn replay_traced(
    w: WorkloadId,
    journal: &[Vec<Request>],
    warmup_requests: usize,
    tracer: &mut Tracer,
    store_dir: &Path,
) -> Res<Replay> {
    let store_dir = ScratchDir::fresh(store_dir.to_path_buf());
    let mut session = w.builder().build().map_err(|e| e.to_string())?;
    let mut twin = w
        .builder()
        .policy(PolicyConfig::gated())
        .build()
        .map_err(|e| e.to_string())?;
    // The store never syncs on its own: the replay times the append and
    // the fsync the service issues right after it as separate calls.
    let persist = PersistConfig::default();
    let (mut store, _) = DurableStore::open(&store_dir.0, persist.with_fsync_every(0))
        .map_err(|e| format!("probe store: {e}"))?;
    let mut snapshot_bytes = store
        .checkpoint(&session.engine().capture_image())
        .map_err(|e| format!("initial checkpoint: {e}"))?;
    let mut probe = Some(store);
    // (journal bytes, engine image) when the probe stopped journaling.
    let mut probed = None;
    let mut probed_requests = 0u64;

    let mut measured = Counters::default();
    let mut gated = Counters::default();
    let mut first_measured = journal.len() as u64;
    let (mut seen, mut measured_chunks, mut deep_audits) = (0usize, 0usize, 0usize);
    let (mut last_deep, mut last_snapshot) = (0u64, 0u64);
    for (index, chunk) in journal.iter().enumerate() {
        let id = index as u64;
        let in_window = seen >= warmup_requests;
        seen += chunk.len();
        if in_window {
            first_measured = first_measured.min(id);
            measured_chunks += 1;
            if measured_chunks > PERSIST_PROBE_CHUNKS && probe.is_some() {
                probed = stop_probe(&mut probe, &session);
            }
        }
        let root = tracer.open("replay.chunk", ROOT, id);
        for request in chunk {
            if let Some((u, v)) = request.endpoints() {
                let graph = session.engine().graph();
                tracer
                    .time("skipgraph.route", root, id, || {
                        graph.route(peer_key(u), peer_key(v))
                    })
                    .map_err(|e| format!("route {u}->{v}: {e}"))?;
            }
        }
        if let Some(store) = probe.as_mut() {
            tracer
                .time("persist.append_chunk", root, id, || {
                    store.append_chunk(chunk, false)
                })
                .map_err(|e| format!("append: {e}"))?;
            tracer
                .time("persist.sync", root, id, || store.sync())
                .map_err(|e| format!("sync: {e}"))?;
            probed_requests += chunk.len() as u64;
        }
        let batch = tracer
            .time("session.submit_batch", root, id, || {
                session.submit_batch(chunk)
            })
            .map_err(|e| format!("replayed chunk failed: {e}"))?;
        let twin_batch = tracer
            .time("policy.submit_batch", root, id, || twin.submit_batch(chunk))
            .map_err(|e| format!("gated twin chunk failed: {e}"))?;
        if in_window {
            measured.add(&batch, chunk.len());
            gated.add(&twin_batch, chunk.len());
        }
        let engine = session.engine();
        tracer
            .time("audit.validate_fast", root, id, || engine.validate_fast())
            .map_err(|e| format!("validate_fast: {e}"))?;
        let epochs = session.epochs();
        if epochs - last_deep >= DEEP_AUDIT_EVERY {
            last_deep = epochs;
            if deep_audits < DEEP_AUDIT_SAMPLES {
                deep_audits += usize::from(in_window);
                tracer
                    .time("audit.validate", root, id, || engine.validate())
                    .map_err(|e| format!("validate: {e}"))?;
            }
        }
        if epochs - last_snapshot >= persist.snapshot_every {
            last_snapshot = epochs;
            if let Some(store) = probe.as_mut() {
                let image = engine.capture_image();
                snapshot_bytes = tracer
                    .time("persist.checkpoint", root, id, || store.checkpoint(&image))
                    .map_err(|e| format!("checkpoint: {e}"))?;
            }
        }
        tracer.close(root);
    }
    if probe.is_some() {
        probed = stop_probe(&mut probe, &session);
    }
    let (journal_bytes, probed_image) = probed.expect("the probe stops exactly once");
    // Everything the result needs of the replayed engines, taken before
    // they are dropped so the recovery below does not hold three at once.
    let end = EndState::of(&session);
    let peers = session.len();
    let balance = session.engine().balance_report();
    drop((session, twin));

    // The store holds exactly what a crashed durable service would leave
    // behind: time a full recovery from it.
    let config = ServiceConfig {
        persist: Some(persist),
        ..ServiceConfig::default()
    };
    let start = Instant::now();
    let (mut recovered, report) = DsgService::open(&store_dir.0, w.builder(), config)
        .map_err(|e| format!("recovery failed: {e}"))?;
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    let recovered = recovered
        .shutdown()
        .map_err(|e| format!("recovered shutdown: {e}"))?;
    if recovered.session.engine().capture_image() != probed_image {
        return Err(
            "recovery from the probe store diverged from the engine it journaled".to_string(),
        );
    }

    Ok(Replay {
        end,
        peers,
        measured,
        gated,
        first_measured,
        balance,
        snapshot_bytes,
        journal_bytes,
        probed_requests,
        recover_ms,
        recover_replayed: report.requests_replayed,
    })
}

/// Closes the persistence probe: its journal length and the engine image a
/// recovery from it must reproduce.
fn stop_probe(
    probe: &mut Option<DurableStore>,
    session: &DsgSession,
) -> Option<(u64, EngineImage)> {
    probe
        .take()
        .map(|store| (store.journal_len(), session.engine().capture_image()))
}

/// The skip-graph key the engine stores peer `peer` under.
fn peer_key(peer: u64) -> Key {
    Key::new((peer + 1) * DynamicSkipGraph::KEY_SPACING)
}

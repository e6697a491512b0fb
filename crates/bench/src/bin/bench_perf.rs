//! Headless perf harness: measures the skip graph core and end-to-end
//! `communicate` throughput — sequential and epoch-batched — and writes
//! `BENCH_perf.json`.
//!
//! This binary establishes the repository's performance trajectory: it
//! compares the intrusive linked-list arena ([`dsg_skipgraph::SkipGraph`])
//! against the naive index-based representation
//! ([`dsg_skipgraph::reference::ReferenceGraph`]) on the `route`,
//! `neighbors` and `dummy_probe` microbenchmarks, measures requests/sec of
//! sequential [`dsg::DsgSession::submit`] replay under uniform, skewed and
//! working-set workloads, and measures the epoch-batched
//! [`dsg::DsgSession::submit_batch`] path at batch sizes 1/4/16.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_perf [-- <output-path>]
//! ```
//!
//! The output path defaults to `BENCH_perf.json` in the current
//! directory. Set `BENCH_PERF_QUICK=1` to run a fast smoke (fewer
//! repetitions, shorter traces) — used by CI.
//!
//! The JSON schema (`dsg-bench-perf/v9`) is documented in `ROADMAP.md`
//! ("BENCH_perf.json schema"). v5 added the `service_ingest` table: the
//! concurrent [`dsg::DsgService`] front-end driven by 1/2/4/8 producer
//! threads over a bounded queue, reporting throughput, peak queue depth,
//! typed overload rejections, and epochs formed. Caveat for 1-CPU
//! containers (the CI runner class): producers and the ingest thread
//! time-share one core, so the producer sweep measures queueing overhead
//! — not parallel speedup — there; read the rows as a backpressure/cost
//! profile, not a scaling curve. v6 adds the `recovery` table: durability
//! costs of the `dsg-persist` subsystem — snapshot encode/decode wall
//! time and size, plus crash-recovery replay throughput through
//! [`dsg::DsgService::open`] against a journal with a deliberately torn
//! tail. v7 adds the adaptation policy (PR 8): the `communicate` sweep
//! gains `flash_crowd` and `hot_set_drift` workload rows, every
//! communicate/batched row carries a `policy` tag plus the gate counters
//! (`pairs_gated`, `restructures_budgeted`, `sketch_aging_passes`), and
//! the uniform and flash-crowd workloads run as a policy off/on A/B pair.
//! v8 adds the `overload` table (PR 9): an open-loop driver first
//! measures the service's closed-loop capacity, then offers multiples of
//! it with the sojourn-based shedding/brownout layer on and off (A/B),
//! reporting goodput, p50/p99 queue sojourn, and the shed/brownout
//! counters — the off twin's tail sojourn grows with the backlog while
//! the on twin's stays bounded. v9 drops the plan-stage worker sweep and
//! its two columns from `communicate_batched`: every epoch is planned
//! inline, so each (workload, n, batch) cell is one row.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dsg::persist::{decode_snapshot, encode_snapshot};
use dsg::{
    DsgConfig, DsgService, DsgSession, DynamicSkipGraph, OverloadConfig, PersistConfig,
    PolicyConfig, ServiceConfig, SubmitError,
};
use dsg_bench::{
    perf_trace_len, reference_graph_like, route_pairs, run_dsg, run_dsg_batched, workload_trace,
    WorkloadKind, BATCH_SIZES, COMM_BATCH_SIZES, COMM_SIZES, SIZES,
};
use dsg_skipgraph::{fixtures, Key};

/// The producer-thread counts the `service_ingest` suite sweeps.
const SERVICE_PRODUCERS: &[usize] = &[1, 2, 4, 8];

/// Network size of the `service_ingest` suite (one size: the suite sweeps
/// producer counts, not sizes).
const SERVICE_N: u64 = 1024;

/// Bounded-queue capacity of the benchmarked service. Deliberately small
/// relative to the trace so fast producers actually exercise the
/// backpressure path and the overload counter is non-trivial.
const SERVICE_QUEUE: usize = 64;

fn quick() -> bool {
    std::env::var("BENCH_PERF_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Median wall-clock nanoseconds of `reps` runs of `f` (each run's result
/// is consumed by `black_box` inside `f`).
fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> u128 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct MicroRow {
    n: u64,
    ops: usize,
    arena_ns_per_op: f64,
    reference_ns_per_op: f64,
}

impl MicroRow {
    fn speedup(&self) -> f64 {
        self.reference_ns_per_op / self.arena_ns_per_op.max(f64::MIN_POSITIVE)
    }
}

struct CommRow {
    workload: &'static str,
    policy: &'static str,
    n: u64,
    requests: usize,
    elapsed_ns: u128,
    transform_touched_pairs: usize,
    dummy_churn: usize,
    dummies_reused: usize,
    dummies_bulk_inserted: usize,
    pairs_gated: u64,
    restructures_budgeted: u64,
    sketch_aging_passes: u64,
}

impl CommRow {
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / (self.elapsed_ns as f64 / 1e9).max(f64::MIN_POSITIVE)
    }
}

struct BatchRow {
    workload: &'static str,
    n: u64,
    batch: usize,
    requests: usize,
    elapsed_ns: u128,
    transform_touched_pairs: usize,
    epochs: usize,
    install_passes: usize,
    dummy_churn: usize,
    dummies_reused: usize,
    dummies_bulk_inserted: usize,
    planned_clusters: usize,
    plan_wall_ns: u64,
    pairs_gated: u64,
    restructures_budgeted: u64,
    sketch_aging_passes: u64,
}

impl BatchRow {
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / (self.elapsed_ns as f64 / 1e9).max(f64::MIN_POSITIVE)
    }
}

fn measure_route(reps: usize) -> Vec<MicroRow> {
    SIZES
        .iter()
        .map(|&n| {
            let graph = fixtures::uniform_random(n, 7);
            let reference = reference_graph_like(&graph);
            let pairs = route_pairs(n);
            let ops = pairs.len();
            let arena = median_ns(reps, || {
                let mut hops = 0usize;
                for &(a, b) in &pairs {
                    hops += graph.route(a, b).map(|r| r.hops()).unwrap_or(0);
                }
                std::hint::black_box(hops);
            });
            let refr = median_ns(reps, || {
                let mut hops = 0usize;
                for &(a, b) in &pairs {
                    hops += reference.route_hops(a, b).unwrap_or(0);
                }
                std::hint::black_box(hops);
            });
            MicroRow {
                n,
                ops,
                arena_ns_per_op: arena as f64 / ops as f64,
                reference_ns_per_op: refr as f64 / ops as f64,
            }
        })
        .collect()
}

fn measure_neighbors(reps: usize) -> Vec<MicroRow> {
    SIZES
        .iter()
        .map(|&n| {
            let graph = fixtures::uniform_random(n, 7);
            let reference = reference_graph_like(&graph);
            let queries: Vec<_> = graph
                .node_ids()
                .flat_map(|id| {
                    let top = graph.mvec_of(id).expect("live node").len();
                    (0..=top).map(move |level| (id, level))
                })
                .collect();
            let ops = queries.len();
            let arena = median_ns(reps, || {
                let mut acc = 0usize;
                for &(id, level) in &queries {
                    let (l, r) = graph.neighbors(id, level).unwrap();
                    acc += l.is_some() as usize + r.is_some() as usize;
                }
                std::hint::black_box(acc);
            });
            let refr = median_ns(reps, || {
                let mut acc = 0usize;
                for &(id, level) in &queries {
                    let (l, r) = reference.neighbors(id, level).unwrap();
                    acc += l.is_some() as usize + r.is_some() as usize;
                }
                std::hint::black_box(acc);
            });
            MicroRow {
                n,
                ops,
                arena_ns_per_op: arena as f64 / ops as f64,
                reference_ns_per_op: refr as f64 / ops as f64,
            }
        })
        .collect()
}

/// The dummy hot path in miniature: `free_key_between` resolves a dummy's
/// key by probing candidate keys for occupancy (`node_by_key`), thousands
/// of times per request under uniform traffic. The arena serves the probe
/// from the fasthash half of its key index; the reference answers from a
/// plain `BTreeMap`. The graph uses the *production* key layout — peer
/// keys strided by `DynamicSkipGraph::KEY_SPACING` (the layout whose
/// bucket collapse under the unfinalised FxHash motivated `KeyHashState`;
/// dense keys would mask such a regression) — and probes alternate hits
/// (the peer keys) and misses (gap midpoints, where dummy keys go).
fn measure_dummy_probe(reps: usize) -> Vec<MicroRow> {
    const SPACING: u64 = dsg::DynamicSkipGraph::KEY_SPACING;
    SIZES
        .iter()
        .map(|&n| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
            let graph = dsg_skipgraph::SkipGraph::random(
                (0..n).map(|i| Key::new((i + 1) * SPACING)),
                &mut rng,
            )
            .expect("strided keys are distinct");
            let reference = reference_graph_like(&graph);
            let probes: Vec<Key> = (0..n)
                .flat_map(|i| {
                    [
                        Key::new((i + 1) * SPACING),
                        Key::new((i + 1) * SPACING + SPACING / 2),
                    ]
                })
                .collect();
            let ops = probes.len();
            let arena = median_ns(reps, || {
                let mut hits = 0usize;
                for &key in &probes {
                    hits += graph.node_by_key(key).is_some() as usize;
                }
                std::hint::black_box(hits);
            });
            let refr = median_ns(reps, || {
                let mut hits = 0usize;
                for &key in &probes {
                    hits += reference.node_by_key(key).is_some() as usize;
                }
                std::hint::black_box(hits);
            });
            MicroRow {
                n,
                ops,
                arena_ns_per_op: arena as f64 / ops as f64,
                reference_ns_per_op: refr as f64 / ops as f64,
            }
        })
        .collect()
}

fn measure_communicate(quick: bool) -> Vec<CommRow> {
    let mut rows = Vec::new();
    for &n in COMM_SIZES {
        let m = perf_trace_len(n, quick);
        for kind in [
            WorkloadKind::Uniform,
            WorkloadKind::Skewed,
            WorkloadKind::WorkingSet,
            WorkloadKind::FlashCrowd,
            WorkloadKind::HotSetDrift,
        ] {
            let trace = workload_trace(kind, n, m, 3);
            // Every workload runs policy-off; uniform and flash-crowd run
            // the policy on/off A/B pair — the two regimes the admission
            // gate was designed around (pure overhead vs late skew).
            let mut policies = vec![("off", DsgConfig::default().with_seed(1))];
            if matches!(kind, WorkloadKind::Uniform | WorkloadKind::FlashCrowd) {
                policies.push((
                    "on",
                    DsgConfig::default()
                        .with_seed(1)
                        .with_policy(PolicyConfig::gated()),
                ));
            }
            for (policy, config) in policies {
                // Short warm-up replay (builds the network, pages code
                // in), then the timed full replay.
                run_dsg(n, config, &trace[..m.min(20)]);
                let start = Instant::now();
                let run = run_dsg(n, config, &trace);
                let elapsed_ns = start.elapsed().as_nanos();
                rows.push(CommRow {
                    workload: kind.label(),
                    policy,
                    n,
                    requests: m,
                    elapsed_ns,
                    transform_touched_pairs: run.total_touched_pairs(),
                    dummy_churn: run.dummy_churn,
                    dummies_reused: run.dummies_reused,
                    dummies_bulk_inserted: run.dummies_bulk_inserted,
                    pairs_gated: run.pairs_gated,
                    restructures_budgeted: run.restructures_budgeted,
                    sketch_aging_passes: run.sketch_aging_passes,
                });
                std::hint::black_box(run);
            }
        }
    }
    rows
}

fn measure_communicate_batched(quick: bool) -> Vec<BatchRow> {
    let mut rows = Vec::new();
    for &n in COMM_BATCH_SIZES {
        let m = perf_trace_len(n, quick);
        // Uniform is the historical batched surface; the drifting hot
        // window (v7) adds a skew-under-churn profile to the same sweep.
        for kind in [WorkloadKind::Uniform, WorkloadKind::HotSetDrift] {
            let trace = workload_trace(kind, n, m, 3);
            for &batch in BATCH_SIZES {
                let config = DsgConfig::default().with_seed(1);
                run_dsg_batched(n, config, &trace[..m.min(20)], batch);
                let start = Instant::now();
                let run = run_dsg_batched(n, config, &trace, batch);
                let elapsed_ns = start.elapsed().as_nanos();
                rows.push(BatchRow {
                    workload: kind.label(),
                    n,
                    batch,
                    requests: m,
                    elapsed_ns,
                    transform_touched_pairs: run.total_touched_pairs(),
                    epochs: run.epochs,
                    install_passes: run.install_passes,
                    dummy_churn: run.dummy_churn,
                    dummies_reused: run.dummies_reused,
                    dummies_bulk_inserted: run.dummies_bulk_inserted,
                    planned_clusters: run.planned_clusters,
                    plan_wall_ns: run.plan_wall_ns,
                    pairs_gated: run.pairs_gated,
                    restructures_budgeted: run.restructures_budgeted,
                    sketch_aging_passes: run.sketch_aging_passes,
                });
                std::hint::black_box(run);
            }
        }
    }
    rows
}

struct ServiceRow {
    producers: usize,
    n: u64,
    requests: usize,
    elapsed_ns: u128,
    submitted: u64,
    rejected_overload: u64,
    epochs: u64,
    batches: u64,
    max_queue_depth: usize,
}

impl ServiceRow {
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / (self.elapsed_ns as f64 / 1e9).max(f64::MIN_POSITIVE)
    }
}

/// Drives the uniform trace through a [`DsgService`] with `producers`
/// submitting threads. Producers first try the non-blocking [`submit`]
/// (so the service's overload counter records real backpressure events),
/// then fall back to the blocking [`submit_deadline`]; every ticket is
/// awaited, so the elapsed wall covers full resolution of the trace.
///
/// [`submit`]: DsgService::submit
/// [`submit_deadline`]: DsgService::submit_deadline
fn measure_service_ingest(quick: bool) -> Vec<ServiceRow> {
    let n = SERVICE_N;
    let m = perf_trace_len(n, quick);
    let trace = workload_trace(WorkloadKind::Uniform, n, m, 3);
    SERVICE_PRODUCERS
        .iter()
        .map(|&producers| {
            let session = DsgSession::builder()
                .config(DsgConfig::default().with_seed(1))
                .peers(0..n)
                .build()
                .expect("peer keys 0..n are distinct");
            let mut service = DsgService::spawn(
                session,
                ServiceConfig {
                    queue_capacity: SERVICE_QUEUE,
                    ..ServiceConfig::default()
                },
            )
            .expect("service config is valid");
            let start = Instant::now();
            std::thread::scope(|scope| {
                for slice in trace.chunks(m.div_ceil(producers)) {
                    let service = &service;
                    scope.spawn(move || {
                        let mut tickets = Vec::with_capacity(slice.len());
                        for &request in slice {
                            match service.submit(request) {
                                Ok(ticket) => tickets.push(ticket),
                                Err(SubmitError::Overloaded) => tickets.push(
                                    service
                                        .submit_deadline(request, Duration::from_secs(60))
                                        .expect("the queue drains within 60s"),
                                ),
                                Err(err) => panic!("service refused a submission: {err}"),
                            }
                        }
                        for ticket in tickets {
                            ticket.wait().expect("uniform trace serves cleanly");
                        }
                    });
                }
            });
            let status = service.status();
            eprintln!(
                "bench_perf:   service status (producers={producers}): \
                 queue_depth={} epochs={} batches={} audits={} poisoned={}",
                status.queue_depth, status.epochs, status.batches, status.audits, status.poisoned
            );
            let done = service.shutdown().expect("first shutdown");
            let elapsed_ns = start.elapsed().as_nanos();
            ServiceRow {
                producers,
                n,
                requests: m,
                elapsed_ns,
                submitted: done.metrics.submitted,
                rejected_overload: done.metrics.rejected_overload,
                epochs: done.metrics.epochs,
                batches: done.metrics.batches,
                max_queue_depth: done.metrics.max_queue_depth,
            }
        })
        .collect()
}

/// Offered-load multiples of the measured closed-loop capacity the
/// `overload` suite sweeps (quick mode runs the 2x cell only — the one
/// the A/B contrast and the CI gate are about).
const OVERLOAD_MULTIPLES: &[u64] = &[1, 2];

/// Network size of the `overload` suite (matches `service_ingest`).
const OVERLOAD_N: u64 = SERVICE_N;

struct OverloadRow {
    offered_x: u64,
    shedding: bool,
    n: u64,
    offered: usize,
    offered_rps: u64,
    accepted: u64,
    served: u64,
    refused: u64,
    elapsed_ns: u128,
    shed_submits: u64,
    deadline_shed: u64,
    brownout_chunks: u64,
    p50_sojourn_us: u64,
    p99_sojourn_us: u64,
}

impl OverloadRow {
    /// Requests actually *served to completion* per wall-clock second
    /// (drive plus drain) — refusals and deadline sheds do not count.
    fn goodput_rps(&self) -> f64 {
        self.served as f64 / (self.elapsed_ns as f64 / 1e9).max(f64::MIN_POSITIVE)
    }
}

/// Overload suite: measures closed-loop capacity, then offers multiples
/// of it open-loop — the i-th request is due at `i / rate` regardless of
/// how the service is doing — with the shedding/brownout layer on and
/// off. Every 4th request carries a 1 s deadline so queue-expired work is
/// shed typed instead of served stale. The off twin runs with the same
/// (large) queue and no overload layer: its backlog, and therefore its
/// tail sojourn, grows without bound while the on twin's stays pinned
/// near the shed target.
fn measure_overload(quick: bool) -> Vec<OverloadRow> {
    let n = OVERLOAD_N;
    let build = || {
        DsgSession::builder()
            .config(
                DsgConfig::default()
                    .with_seed(1)
                    .with_policy(PolicyConfig::gated()),
            )
            .peers(0..n)
            .build()
            .expect("peer keys 0..n are distinct")
    };
    let large_queue = ServiceConfig {
        queue_capacity: 65_536,
        ..ServiceConfig::default()
    };

    // Closed-loop calibration: the sustained service rate with the same
    // engine configuration the offered-load cells run.
    let calibrate = if quick { 120 } else { 320 };
    let trace = workload_trace(WorkloadKind::Uniform, n, calibrate, 3);
    let mut service = DsgService::spawn(build(), large_queue).expect("service config is valid");
    let started = Instant::now();
    for &request in &trace {
        service
            .submit_deadline(request, Duration::from_secs(60))
            .expect("the queue drains within 60s")
            .wait()
            .expect("calibration trace serves cleanly");
    }
    let capacity_rps =
        ((calibrate as f64 / started.elapsed().as_secs_f64()) as u64).clamp(200, 1_000_000);
    service.shutdown().expect("first shutdown");
    eprintln!("bench_perf:   overload capacity estimate: {capacity_rps} req/s (closed loop)");

    let multiples: &[u64] = if quick {
        &OVERLOAD_MULTIPLES[1..]
    } else {
        OVERLOAD_MULTIPLES
    };
    // Long enough that the off twin's unbounded backlog pushes its tail
    // sojourn several histogram buckets past the on twin's bounded one —
    // the contrast the CI gate asserts on.
    let drive_secs = if quick { 1.0 } else { 2.0 };
    let mut rows = Vec::new();
    for &offered_x in multiples {
        let offered_rps = offered_x * capacity_rps;
        let offered = ((offered_rps as f64 * drive_secs) as usize).max(64);
        let mut open = dsg_workloads::OpenLoop::new(
            dsg_workloads::UniformRandom::new(n, 3),
            offered_rps,
        );
        let schedule = open.schedule(offered);
        for shedding in [false, true] {
            let mut config = large_queue;
            if shedding {
                config = config.with_overload(
                    OverloadConfig::default()
                        .with_brownout_target(Duration::from_millis(5))
                        .with_shed_target(Duration::from_millis(20))
                        .with_interval(Duration::from_millis(25))
                        .with_retry_after(Duration::from_millis(50)),
                );
            }
            let mut service = DsgService::spawn(build(), config).expect("service config is valid");
            let start = Instant::now();
            let mut tickets = Vec::with_capacity(offered);
            let mut refused = 0u64;
            for (i, &(due, request)) in schedule.iter().enumerate() {
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let submitted = if i % 4 == 0 {
                    service.submit_with_deadline(request, Duration::from_secs(1))
                } else {
                    service.submit(request)
                };
                match submitted {
                    Ok(ticket) => tickets.push(ticket),
                    Err(SubmitError::Shed { .. } | SubmitError::Overloaded) => refused += 1,
                    Err(err) => panic!("overload drive refused a submission: {err}"),
                }
            }
            let accepted = tickets.len() as u64;
            let mut served = 0u64;
            for ticket in tickets {
                match ticket.wait() {
                    Ok(_) => served += 1,
                    Err(dsg::DsgError::DeadlineExceeded) => {}
                    Err(err) => panic!("overload drive lost a ticket: {err}"),
                }
            }
            let elapsed_ns = start.elapsed().as_nanos();
            let status = service.status();
            eprintln!(
                "bench_perf:   overload status ({offered_x}x shedding={shedding}): \
                 shedding={} brownout={} shed_submits={} deadline_shed={} \
                 brownout_chunks={} sojourn p50={}us p99={}us",
                status.shedding,
                status.brownout,
                status.shed_submits,
                status.deadline_shed,
                status.brownout_chunks,
                status.sojourn_p50_us,
                status.sojourn_p99_us
            );
            let done = service.shutdown().expect("first shutdown");
            rows.push(OverloadRow {
                offered_x,
                shedding,
                n,
                offered,
                offered_rps,
                accepted,
                served,
                refused,
                elapsed_ns,
                shed_submits: done.metrics.shed_submits,
                deadline_shed: done.metrics.deadline_shed,
                brownout_chunks: done.metrics.brownout_chunks,
                p50_sojourn_us: status.sojourn_p50_us,
                p99_sojourn_us: status.sojourn_p99_us,
            });
        }
    }
    rows
}

/// Network sizes the `recovery` suite sweeps. Kept below the communicate
/// sweep's top end: the suite serves its whole trace through a persistent
/// service (journal fsync path included) before it ever measures anything.
const RECOVERY_SIZES: &[u64] = &[256, 1024];

struct RecoveryRow {
    n: u64,
    requests: usize,
    snapshot_bytes: usize,
    encode_ns: u128,
    decode_ns: u128,
    recover_ns: u128,
    frames_replayed: u64,
    requests_replayed: u64,
    torn_bytes_truncated: u64,
}

impl RecoveryRow {
    fn replay_requests_per_sec(&self) -> f64 {
        self.requests_replayed as f64 / (self.recover_ns as f64 / 1e9).max(f64::MIN_POSITIVE)
    }
}

/// Durability-cost suite: serves the uniform trace through a persistent
/// [`DsgService`] (journaling every chunk, no periodic checkpoints, so the
/// whole trace is recovery's replay suffix), then measures (a) snapshot
/// encode/decode wall time and size for the final engine image, and (b) a
/// timed crash-recovery [`DsgService::open`] against the store — with a
/// half-written frame appended to the journal first, so the torn-tail
/// truncation path is part of every measured recovery.
fn measure_recovery(quick: bool, reps: usize) -> Vec<RecoveryRow> {
    RECOVERY_SIZES
        .iter()
        .map(|&n| {
            let m = perf_trace_len(n, quick);
            let trace = workload_trace(WorkloadKind::Uniform, n, m, 3);
            let dir =
                std::env::temp_dir().join(format!("dsg-bench-recovery-{}-{n}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let builder = || {
                DsgSession::builder()
                    .config(DsgConfig::default().with_seed(1))
                    .peers(0..n)
            };
            let config = ServiceConfig {
                persist: Some(
                    // fsync 0 (sync only at shutdown) keeps the staging
                    // replay fast; snapshot 0 pins recovery to the genesis
                    // checkpoint so it replays the full trace.
                    PersistConfig::default()
                        .with_fsync_every(0)
                        .with_snapshot_every(0),
                ),
                ..ServiceConfig::default()
            };
            let (mut service, _) =
                DsgService::open(&dir, builder(), config).expect("recovery store cold-starts");
            let mut tickets = Vec::with_capacity(trace.len());
            for &request in &trace {
                tickets.push(
                    service
                        .submit_deadline(request, Duration::from_secs(60))
                        .expect("the queue drains within 60s"),
                );
            }
            for ticket in tickets {
                ticket.wait().expect("uniform trace serves cleanly");
            }
            let done = service.shutdown().expect("first shutdown");

            // Snapshot codec costs on the final (post-trace) engine image.
            let image = done.session.engine().capture_image();
            let encode_ns = median_ns(reps, || {
                std::hint::black_box(encode_snapshot(&image));
            });
            let bytes = encode_snapshot(&image);
            let snapshot_bytes = bytes.len();
            let decode_ns = median_ns(reps, || {
                let decoded = decode_snapshot(&bytes).expect("round-trips");
                let engine = DynamicSkipGraph::restore_image(&decoded).expect("restores");
                std::hint::black_box(engine);
            });

            // Tear the journal's tail — a half-written frame header — so
            // the measured open exercises detection + truncation too.
            {
                use std::io::Write as _;
                let mut journal = std::fs::OpenOptions::new()
                    .append(true)
                    .open(dir.join(dsg::persist::JOURNAL_FILE))
                    .expect("journal exists");
                journal.write_all(&[0xAB; 5]).expect("torn tail appended");
            }
            let start = Instant::now();
            let (mut recovered, report) =
                DsgService::open(&dir, builder(), config).expect("store recovers");
            let recover_ns = start.elapsed().as_nanos();
            recovered.shutdown().expect("first shutdown");
            std::fs::remove_dir_all(&dir).ok();

            RecoveryRow {
                n,
                requests: m,
                snapshot_bytes,
                encode_ns,
                decode_ns,
                recover_ns,
                frames_replayed: report.frames_replayed,
                requests_replayed: report.requests_replayed,
                torn_bytes_truncated: report.torn_bytes_truncated,
            }
        })
        .collect()
}

fn micro_json(rows: &[MicroRow]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"n\": {}, \"ops\": {}, \"arena_ns_per_op\": {:.1}, \
             \"reference_ns_per_op\": {:.1}, \"speedup\": {:.2}}}",
            row.n,
            row.ops,
            row.arena_ns_per_op,
            row.reference_ns_per_op,
            row.speedup()
        );
    }
    out.push_str("\n  ]");
    out
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_perf.json".to_string());
    let reps = if quick() { 3 } else { 9 };

    eprintln!("bench_perf: route microbenchmark ({reps} reps)...");
    let route = measure_route(reps);
    eprintln!("bench_perf: neighbors microbenchmark ({reps} reps)...");
    let neighbors = measure_neighbors(reps);
    eprintln!("bench_perf: dummy-probe microbenchmark ({reps} reps)...");
    let dummy_probe = measure_dummy_probe(reps);
    eprintln!("bench_perf: communicate throughput (sequential)...");
    let communicate = measure_communicate(quick());
    eprintln!("bench_perf: communicate throughput (epoch-batched)...");
    let communicate_batched = measure_communicate_batched(quick());
    eprintln!("bench_perf: service ingest throughput (concurrent front-end)...");
    let service_ingest = measure_service_ingest(quick());
    eprintln!("bench_perf: overload control (open-loop offered-load A/B)...");
    let overload = measure_overload(quick());
    eprintln!("bench_perf: recovery costs (snapshot codec + journal replay)...");
    let recovery = measure_recovery(quick(), reps);

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);

    let mut comm_json = String::from("[");
    for (i, row) in communicate.iter().enumerate() {
        if i > 0 {
            comm_json.push(',');
        }
        let _ = write!(
            comm_json,
            "\n    {{\"workload\": \"{}\", \"policy\": \"{}\", \"n\": {}, \"requests\": {}, \
             \"elapsed_ms\": {:.2}, \"requests_per_sec\": {:.1}, \
             \"transform_touched_pairs\": {}, \"dummy_churn\": {}, \
             \"dummies_reused\": {}, \"dummies_bulk_inserted\": {}, \
             \"pairs_gated\": {}, \"restructures_budgeted\": {}, \
             \"sketch_aging_passes\": {}}}",
            row.workload,
            row.policy,
            row.n,
            row.requests,
            row.elapsed_ns as f64 / 1e6,
            row.requests_per_sec(),
            row.transform_touched_pairs,
            row.dummy_churn,
            row.dummies_reused,
            row.dummies_bulk_inserted,
            row.pairs_gated,
            row.restructures_budgeted,
            row.sketch_aging_passes
        );
    }
    comm_json.push_str("\n  ]");

    let mut batch_json = String::from("[");
    for (i, row) in communicate_batched.iter().enumerate() {
        if i > 0 {
            batch_json.push(',');
        }
        let _ = write!(
            batch_json,
            "\n    {{\"workload\": \"{}\", \"n\": {}, \"batch\": {}, \"requests\": {}, \
             \"elapsed_ms\": {:.2}, \"requests_per_sec\": {:.1}, \
             \"transform_touched_pairs\": {}, \"epochs\": {}, \"install_passes\": {}, \
             \"dummy_churn\": {}, \"dummies_reused\": {}, \"dummies_bulk_inserted\": {}, \
             \"planned_clusters\": {}, \"plan_wall_ms\": {:.2}, \
             \"pairs_gated\": {}, \"restructures_budgeted\": {}, \
             \"sketch_aging_passes\": {}}}",
            row.workload,
            row.n,
            row.batch,
            row.requests,
            row.elapsed_ns as f64 / 1e6,
            row.requests_per_sec(),
            row.transform_touched_pairs,
            row.epochs,
            row.install_passes,
            row.dummy_churn,
            row.dummies_reused,
            row.dummies_bulk_inserted,
            row.planned_clusters,
            row.plan_wall_ns as f64 / 1e6,
            row.pairs_gated,
            row.restructures_budgeted,
            row.sketch_aging_passes
        );
    }
    batch_json.push_str("\n  ]");

    let mut service_json = String::from("[");
    for (i, row) in service_ingest.iter().enumerate() {
        if i > 0 {
            service_json.push(',');
        }
        let _ = write!(
            service_json,
            "\n    {{\"producers\": {}, \"n\": {}, \"requests\": {}, \
             \"elapsed_ms\": {:.2}, \"requests_per_sec\": {:.1}, \
             \"submitted\": {}, \"rejected_overload\": {}, \
             \"epochs_formed\": {}, \"batches\": {}, \"max_queue_depth\": {}}}",
            row.producers,
            row.n,
            row.requests,
            row.elapsed_ns as f64 / 1e6,
            row.requests_per_sec(),
            row.submitted,
            row.rejected_overload,
            row.epochs,
            row.batches,
            row.max_queue_depth
        );
    }
    service_json.push_str("\n  ]");

    let mut overload_json = String::from("[");
    for (i, row) in overload.iter().enumerate() {
        if i > 0 {
            overload_json.push(',');
        }
        let _ = write!(
            overload_json,
            "\n    {{\"offered_x\": {}, \"shedding\": {}, \"n\": {}, \"offered\": {}, \
             \"offered_rps\": {}, \"accepted\": {}, \"served\": {}, \"refused\": {}, \
             \"elapsed_ms\": {:.2}, \"goodput_rps\": {:.1}, \
             \"p50_sojourn_us\": {}, \"p99_sojourn_us\": {}, \
             \"shed_submits\": {}, \"deadline_shed\": {}, \"brownout_chunks\": {}}}",
            row.offered_x,
            row.shedding,
            row.n,
            row.offered,
            row.offered_rps,
            row.accepted,
            row.served,
            row.refused,
            row.elapsed_ns as f64 / 1e6,
            row.goodput_rps(),
            row.p50_sojourn_us,
            row.p99_sojourn_us,
            row.shed_submits,
            row.deadline_shed,
            row.brownout_chunks
        );
    }
    overload_json.push_str("\n  ]");

    let mut recovery_json = String::from("[");
    for (i, row) in recovery.iter().enumerate() {
        if i > 0 {
            recovery_json.push(',');
        }
        let _ = write!(
            recovery_json,
            "\n    {{\"n\": {}, \"requests\": {}, \"snapshot_bytes\": {}, \
             \"encode_ms\": {:.3}, \"decode_ms\": {:.3}, \"recover_ms\": {:.3}, \
             \"frames_replayed\": {}, \"requests_replayed\": {}, \
             \"replay_requests_per_sec\": {:.1}, \"torn_bytes_truncated\": {}}}",
            row.n,
            row.requests,
            row.snapshot_bytes,
            row.encode_ns as f64 / 1e6,
            row.decode_ns as f64 / 1e6,
            row.recover_ns as f64 / 1e6,
            row.frames_replayed,
            row.requests_replayed,
            row.replay_requests_per_sec(),
            row.torn_bytes_truncated
        );
    }
    recovery_json.push_str("\n  ]");

    let json = format!(
        "{{\n  \"schema\": \"dsg-bench-perf/v9\",\n  \"created_unix\": {unix_time},\n  \
         \"quick\": {},\n  \"route\": {},\n  \"neighbors\": {},\n  \"dummy_probe\": {},\n  \
         \"communicate\": {},\n  \"communicate_batched\": {},\n  \"service_ingest\": {},\n  \
         \"overload\": {},\n  \"recovery\": {}\n}}\n",
        quick(),
        micro_json(&route),
        micro_json(&neighbors),
        micro_json(&dummy_probe),
        comm_json,
        batch_json,
        service_json,
        overload_json,
        recovery_json,
    );
    std::fs::write(&output, &json).expect("write BENCH_perf.json");

    // Human-readable recap on stderr.
    for (name, rows) in [
        ("route", &route),
        ("neighbors", &neighbors),
        ("dummy_probe", &dummy_probe),
    ] {
        for row in rows.iter() {
            eprintln!(
                "{name:>11} n={:<5} arena {:>9.1} ns/op   reference {:>9.1} ns/op   speedup {:>5.2}x",
                row.n, row.arena_ns_per_op, row.reference_ns_per_op, row.speedup()
            );
        }
    }
    for row in &communicate {
        eprintln!(
            "communicate {:>13} policy={:<3} n={:<5} {:>10.1} req/s   {:>9} touched pairs   {:>7} dummy churn   {:>6} gated   {:>3} budgeted   {:>3} aging",
            row.workload,
            row.policy,
            row.n,
            row.requests_per_sec(),
            row.transform_touched_pairs,
            row.dummy_churn,
            row.pairs_gated,
            row.restructures_budgeted,
            row.sketch_aging_passes
        );
    }
    for row in &communicate_batched {
        eprintln!(
            "  batched   {:>11} n={:<5} batch={:<3} {:>10.1} req/s   {:>4} epochs   {:>4} install passes   plan {:>7.1} ms",
            row.workload,
            row.n,
            row.batch,
            row.requests_per_sec(),
            row.epochs,
            row.install_passes,
            row.plan_wall_ns as f64 / 1e6
        );
    }

    for row in &service_ingest {
        eprintln!(
            "  service   producers={:<2} n={:<5} {:>10.1} req/s   {:>4} epochs   {:>4} batches   depth {:>3}   overloads {:>5}",
            row.producers,
            row.n,
            row.requests_per_sec(),
            row.epochs,
            row.batches,
            row.max_queue_depth,
            row.rejected_overload
        );
    }

    for row in &overload {
        eprintln!(
            "  overload  {}x shedding={:<5} offered {:>8} req/s   goodput {:>9.1} req/s   \
             sojourn p50 {:>7} us  p99 {:>8} us   shed {:>5}   expired {:>4}   browned {:>4}",
            row.offered_x,
            row.shedding,
            row.offered_rps,
            row.goodput_rps(),
            row.p50_sojourn_us,
            row.p99_sojourn_us,
            row.shed_submits,
            row.deadline_shed,
            row.brownout_chunks
        );
    }

    for row in &recovery {
        eprintln!(
            "  recovery  n={:<5} snapshot {:>8} B   encode {:>7.2} ms   decode {:>7.2} ms   \
             recover {:>8.2} ms   replay {:>10.1} req/s   torn {:>2} B",
            row.n,
            row.snapshot_bytes,
            row.encode_ns as f64 / 1e6,
            row.decode_ns as f64 / 1e6,
            row.recover_ns as f64 / 1e6,
            row.replay_requests_per_sec(),
            row.torn_bytes_truncated
        );
    }

    // Micro-assert: the fasthash key index must not lose to the reference
    // BTreeMap on the dummy-churn hot path (key-occupancy probes).
    // Enforced on full runs; quick smokes only warn, their single samples
    // are too noisy to gate CI on.
    for row in &dummy_probe {
        if row.speedup() < 1.0 {
            let msg = format!(
                "dummy-probe micro-assert: arena {:.1} ns/op vs reference {:.1} ns/op at n={}",
                row.arena_ns_per_op, row.reference_ns_per_op, row.n
            );
            if quick() {
                eprintln!("WARNING (quick mode, not enforced): {msg}");
            } else {
                panic!("{msg}");
            }
        }
    }
    eprintln!(
        "dummy-probe micro-assert: key-occupancy probes are {:.2}x the reference's cost at worst — OK",
        dummy_probe
            .iter()
            .map(|r| 1.0 / r.speedup())
            .fold(0.0f64, f64::max)
    );
    eprintln!("bench_perf: wrote {output}");
}

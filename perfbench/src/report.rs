//! The two kinds of run and the metrics they print: end-to-end figures from
//! the untraced served run, per-layer figures from the traced run and its
//! chunk replay.

use std::path::Path;
use std::time::Instant;

use crate::drive::{closed_loop, finish, set_up_repeatedly, Res, Served};
use crate::heap;
use crate::mem::rss_kib;
use crate::replay::{replay_traced, EndState};
use crate::spans::Tracer;
use crate::spec::{WorkloadId, OUTSTANDING};
use crate::stats::{mean, median, ratio, tail};

const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or base of the figure, for the human-readable report.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The end-to-end run: set up, serve the timed window untraced, check the
/// outputs, report what a user of the service sees.
pub fn end_to_end(w: WorkloadId, seed: u64, seconds: f64) -> Res<Outcome> {
    let (mut ready, setups, _) = set_up_repeatedly(w, seed, false)?;
    let served = closed_loop(w, &mut ready, seconds, None);
    finish(w, ready, &served)?;

    let n = served.latency_ms.len();
    let window = served.hops.len();
    // The client's window of requests shares one epoch, so their latencies
    // are one draw: keep ten windows, not ten requests, beyond the tail.
    let (latency_tail, q) = tail(&served.latency_ms, OUTSTANDING);
    let within = served
        .latency_ms
        .iter()
        .filter(|&&l| l <= w.slo_ms())
        .count();
    let metrics = vec![
        metric(
            "throughput_rps",
            n as f64 / served.wall_s,
            "req/s",
            format!("{n} served in {:.3} s", served.wall_s),
        ),
        metric(
            "latency_p50_ms",
            median(&served.latency_ms),
            "ms",
            format!("p50 of {n}"),
        ),
        metric(
            "latency_tail_ms",
            latency_tail,
            "ms",
            format!("p{:.2} of {n}", q * 100.0),
        ),
        metric(
            "slo_met_share",
            ratio(within as f64, served.attempted as f64),
            "ratio",
            format!(
                "{within} of {} attempted served within {} ms",
                served.attempted,
                w.slo_ms()
            ),
        ),
        metric(
            "route_hops_mean",
            mean(&served.hops),
            "hops",
            format!("d + 1 over the first {window}"),
        ),
        metric(
            "rounds_mean",
            ratio(served.rounds_sum as f64, window as f64),
            "rounds",
            format!("rho over the first {window}"),
        ),
        metric(
            "paper_cost_mean",
            ratio(served.cost_sum as f64, window as f64),
            "cost",
            format!("d + rho + 1 over the first {window}"),
        ),
        metric(
            "setup_s",
            median(&setups),
            "s",
            format!("median of {} set-ups {setups:.4?}", setups.len()),
        ),
        metric(
            "peak_heap_mb",
            served.window_peak_heap as f64 / MIB,
            "MiB",
            format!(
                "until request {window}; whole run {:.1} MiB, resident high-water {:.1} MiB",
                heap::peak_bytes() as f64 / MIB,
                rss_kib("VmHWM:") as f64 / 1024.0
            ),
        ),
    ];
    Ok(Outcome {
        attempted: served.attempted,
        failed: served.refused + served.errored,
        metrics,
    })
}

/// The traced run: the same served run with client spans in alternating
/// blocks, then the exact chunk sequence replayed with a span per layer
/// call. Fails unless the replay reproduces the served engine exactly.
pub fn traced(w: WorkloadId, seed: u64, seconds: f64, out_dir: &Path) -> Res<Outcome> {
    let (mut ready, _, memory) = set_up_repeatedly(w, seed, true)?;
    let mut tracer = Tracer::new(Instant::now());
    let served = closed_loop(w, &mut ready, seconds, Some(&mut tracer));
    let out = finish(w, ready, &served)?;
    // Keep only what the checks and metrics need of the served engine, so
    // the replay's engines do not pile up on top of it.
    let served_end = EndState::of(&out.session);
    drop(out.session);
    let replay = replay_traced(
        w,
        &out.journal,
        w.warmup_requests(),
        &mut tracer,
        &out_dir.join(format!("probe-{}", std::process::id())),
    )?;
    if replay.end != served_end {
        return Err(format!(
            "the chunk replay diverged from the served run:\n  served   {served_end:?}\n  replayed {:?}",
            replay.end
        ));
    }

    let first = replay.first_measured;
    let spans = |name: &str, min_id: u64| tracer.durations_us(name, min_id);
    let us_to_ms = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|x| x / 1e3).collect() };
    let submit_us = spans("service.submit", 0);
    let batch_ms = us_to_ms(spans("session.submit_batch", first));
    let route_us = spans("skipgraph.route", first);
    let fast_ms = us_to_ms(spans("audit.validate_fast", first));
    let deep_ms = us_to_ms(spans("audit.validate", first));
    let append_us = spans("persist.append_chunk", first);
    let sync_ms = us_to_ms(spans("persist.sync", first));
    let checkpoint_ms = us_to_ms(spans("persist.checkpoint", first));
    let gated_ms = us_to_ms(spans("policy.submit_batch", first));
    let m = out.metrics;
    let c = replay.measured;
    let g = replay.gated;
    let stats = replay.end.stats;
    let batch_total_ns: f64 = batch_ms.iter().sum::<f64>() * 1e6;
    let reqs = c.requests as f64;
    let count = |v: &Vec<f64>| format!("{} calls", v.len());

    let metrics = vec![
        metric(
            "service.submit_us_p50",
            median(&submit_us),
            "us",
            count(&submit_us),
        ),
        metric(
            "service.submit_us_p99",
            tail(&submit_us, 1).0,
            "us",
            count(&submit_us),
        ),
        metric(
            "service.requests_per_batch",
            ratio(m.submitted as f64, m.batches as f64),
            "req/batch",
            format!("{} batches", m.batches),
        ),
        metric(
            "service.epochs_per_batch",
            ratio(m.epochs as f64, m.batches as f64),
            "epochs/batch",
            format!("{} epochs", m.epochs),
        ),
        metric(
            "service.max_queue_depth",
            m.max_queue_depth as f64,
            "count",
            "high-water mark",
        ),
        metric(
            "session.batch_ms_p50",
            median(&batch_ms),
            "ms",
            count(&batch_ms),
        ),
        metric(
            "session.batch_ms_p99",
            tail(&batch_ms, 1).0,
            "ms",
            count(&batch_ms),
        ),
        metric(
            "engine.plan_share",
            ratio(c.plan_wall_ns as f64, batch_total_ns),
            "ratio",
            "plan_wall_ns / submit_batch time",
        ),
        metric(
            "engine.epochs",
            c.epochs as f64,
            "count",
            "replayed after warm-up",
        ),
        metric(
            "transform.touched_pairs_per_req",
            ratio(c.touched_pairs as f64, reqs),
            "pairs/req",
            format!("{} pairs over {} requests", c.touched_pairs, c.requests),
        ),
        metric(
            "transform.clusters_per_epoch",
            ratio(c.clusters as f64, c.epochs as f64),
            "clusters/epoch",
            format!("{} clusters", c.clusters),
        ),
        metric(
            "transform.install_passes",
            c.install_passes as f64,
            "count",
            "after warm-up",
        ),
        metric(
            "dummy.per_peer",
            ratio(replay.end.dummies as f64, replay.peers as f64),
            "ratio",
            format!("{} dummies / {} peers", replay.end.dummies, replay.peers),
        ),
        metric(
            "dummy.churn_per_req",
            ratio((c.dummies_inserted + c.dummies_destroyed) as f64, reqs),
            "dummies/req",
            format!(
                "{} inserted + {} destroyed",
                c.dummies_inserted, c.dummies_destroyed
            ),
        ),
        metric(
            "dummy.reuse_ratio",
            ratio(
                stats.dummies_reused as f64,
                (stats.dummies_reused + stats.dummy_nodes_created) as f64,
            ),
            "ratio",
            format!(
                "{} reused / {} created, whole run",
                stats.dummies_reused, stats.dummy_nodes_created
            ),
        ),
        metric(
            "skipgraph.route_us_p50",
            median(&route_us),
            "us",
            count(&route_us),
        ),
        metric(
            "skipgraph.route_us_p99",
            tail(&route_us, 1).0,
            "us",
            count(&route_us),
        ),
        metric(
            "skipgraph.route_hops_p99",
            tail(&served.hops, 1).0,
            "hops",
            format!("d + 1, {} served requests", served.hops.len()),
        ),
        metric(
            "skipgraph.height",
            replay.end.height as f64,
            "levels",
            "at the end",
        ),
        metric(
            "skipgraph.violations",
            replay.balance.violations.len() as f64,
            "count",
            format!("a = {}", replay.balance.a),
        ),
        metric(
            "skipgraph.longest_run",
            replay.balance.max_run as f64,
            "count",
            "at the end",
        ),
        metric("audit.fast_ms_p50", median(&fast_ms), "ms", count(&fast_ms)),
        metric("audit.deep_ms_p50", median(&deep_ms), "ms", count(&deep_ms)),
        metric(
            "policy.gated_share",
            ratio(g.pairs_gated as f64, g.requests as f64),
            "ratio",
            format!(
                "{} of {} gated in the gated twin",
                g.pairs_gated, g.requests
            ),
        ),
        metric(
            "policy.budgeted",
            g.restructures_budgeted as f64,
            "count",
            "gated twin",
        ),
        metric(
            "policy.aging_passes",
            g.sketch_aging_passes as f64,
            "count",
            "gated twin",
        ),
        metric(
            "policy.batch_ms_p50",
            median(&gated_ms),
            "ms",
            count(&gated_ms),
        ),
        metric(
            "persist.append_us_p50",
            median(&append_us),
            "us",
            count(&append_us),
        ),
        metric(
            "persist.append_us_p99",
            tail(&append_us, 1).0,
            "us",
            count(&append_us),
        ),
        metric(
            "persist.sync_ms_p50",
            median(&sync_ms),
            "ms",
            format!("{} on {}", count(&sync_ms), crate::mem::fs_type(out_dir)),
        ),
        metric(
            "persist.sync_ms_p99",
            tail(&sync_ms, 1).0,
            "ms",
            count(&sync_ms),
        ),
        metric(
            "persist.checkpoint_ms_p50",
            median(&checkpoint_ms),
            "ms",
            count(&checkpoint_ms),
        ),
        metric(
            "persist.snapshot_bytes",
            replay.snapshot_bytes as f64,
            "bytes",
            "last snapshot",
        ),
        metric(
            "persist.journal_bytes_per_req",
            ratio(replay.journal_bytes as f64, replay.probed_requests as f64),
            "bytes/req",
            format!(
                "{} bytes over {} requests",
                replay.journal_bytes, replay.probed_requests
            ),
        ),
        metric(
            "persist.recover_ms",
            replay.recover_ms,
            "ms",
            "DsgService::open on the probe store",
        ),
        metric(
            "persist.recover_replayed",
            replay.recover_replayed as f64,
            "count",
            "requests replayed by recovery",
        ),
        metric(
            "mem.bytes_per_node",
            ratio(memory.growth_bytes, memory.nodes),
            "bytes",
            format!(
                "heap growth {} B over {} nodes",
                memory.growth_bytes, memory.nodes
            ),
        ),
        metric(
            "loadgen.late_p99_ms",
            tail(&served.turnaround_ms, 1).0,
            "ms",
            format!("{} freed slots to next submit", served.turnaround_ms.len()),
        ),
        tracing_overhead(&served),
    ];
    write_spans(w, &tracer, out_dir);
    Ok(Outcome {
        attempted: served.attempted,
        failed: served.refused + served.errored,
        metrics,
    })
}

/// What the client spans cost the served run: the throughput lost in its
/// traced blocks against its untraced ones.
fn tracing_overhead(served: &Served) -> Metric {
    let [untraced, traced] = served.served_by_mode;
    let [untraced_s, traced_s] = served.mode_seconds();
    let value = if untraced == 0 || traced == 0 {
        0.0
    } else {
        1.0 - (traced as f64 / traced_s) / (untraced as f64 / untraced_s)
    };
    metric(
        "trace.overhead_share",
        value,
        "ratio",
        format!("{traced} traced vs {untraced} untraced requests"),
    )
}

/// Spans written per traced run (about 60 bytes each); the metrics use all
/// of them.
const SPAN_FILE_LIMIT: usize = 200_000;

/// One span file per workload, replaced by the next traced run of it.
fn write_spans(w: WorkloadId, tracer: &Tracer, out_dir: &Path) {
    let path = out_dir.join(format!("spans-{}.tsv", w.name()));
    match tracer.write_tsv(&path, SPAN_FILE_LIMIT) {
        Ok(()) => eprintln!(
            "perfbench: {} of {} spans written to {}",
            SPAN_FILE_LIMIT.min(tracer.recorded()),
            tracer.recorded(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// The last line of a run's output.
pub fn json_line(outcome: &Outcome) -> Res<String> {
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

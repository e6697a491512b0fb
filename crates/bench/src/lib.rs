//! # dsg-bench — experiment harness
//!
//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`), the
//! Criterion benchmarks (`benches/`) and the runnable examples. Each
//! experiment in `DESIGN.md` (E1–E12) maps to one binary that prints the
//! table or series it reproduces; `EXPERIMENTS.md` records the measured
//! numbers next to the paper's claims.
//!
//! The helpers here run a request trace through the self-adjusting skip
//! graph (collecting the paper's cost metrics) and through the baseline
//! overlays, and format plain-text tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dsg::prelude::*;
use dsg_baselines::Baseline;
use dsg_metrics::{MetricsObserver, WorkingSetTracker};
use dsg_skipgraph::reference::ReferenceGraph;
use dsg_skipgraph::{Key, SkipGraph};
use dsg_workloads::{
    FlashCrowd, HotSetDrift, RotatingHotSet, Trace, UniformRandom, Workload, ZipfPairs,
};

/// The network sizes the micro perf suite sweeps (`benches/core.rs` and
/// the `route`/`neighbors` tables of the `bench_perf` binary).
pub const SIZES: &[u64] = &[256, 1024, 4096];

/// The network sizes the end-to-end `communicate` throughput suite sweeps.
/// n = 8192 became feasible once the transformation install went
/// differential (PR 2); the microbenchmarks keep the smaller sweep so the
/// reference-representation comparison stays affordable.
pub const COMM_SIZES: &[u64] = &[256, 1024, 4096, 8192];

/// The network sizes the epoch-batched `communicate_batched` suite sweeps.
pub const COMM_BATCH_SIZES: &[u64] = &[1024, 4096, 8192];

/// The batch sizes the `communicate_batched` suite sweeps. Batch 1 is the
/// sequential baseline (one epoch per request); the other sizes serve one
/// chunk per [`DsgSession::submit_batch`] call.
pub const BATCH_SIZES: &[usize] = &[1, 4, 16];

/// The three canonical workload shapes of the perf suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Uniformly random pairs — no locality to exploit.
    Uniform,
    /// Zipf-skewed pairs (exponent 1.2) — the regime self-adjustment
    /// targets.
    Skewed,
    /// A rotating hot community — temporal locality / working-set
    /// behaviour.
    WorkingSet,
    /// Uniform background with one sudden hot burst — the adaptation
    /// policy's stress pattern (cold noise, then a crowd, then dispersal).
    FlashCrowd,
    /// A contiguous hot window sliding over the key space — exercises
    /// frequency-sketch aging under gradual drift.
    HotSetDrift,
}

impl WorkloadKind {
    /// Stable label used in benchmark ids and `BENCH_perf.json`.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Skewed => "skewed",
            WorkloadKind::WorkingSet => "working_set",
            WorkloadKind::FlashCrowd => "flash_crowd",
            WorkloadKind::HotSetDrift => "hot_set_drift",
        }
    }
}

/// Generates the canonical trace of `m` requests for a workload shape over
/// `n` peers.
pub fn workload_trace(kind: WorkloadKind, n: u64, m: usize, seed: u64) -> Trace {
    match kind {
        WorkloadKind::Uniform => UniformRandom::new(n, seed).generate(m),
        WorkloadKind::Skewed => ZipfPairs::new(n, 1.2, seed).generate(m),
        WorkloadKind::WorkingSet => {
            let hot = (n as usize / 16).clamp(2, 32);
            RotatingHotSet::new(n, hot, 0.9, 200, seed).generate(m)
        }
        WorkloadKind::FlashCrowd => {
            // Burst in the middle third of the trace; 4 hot pairs take 95%
            // of it.
            FlashCrowd::new(n, 4, m / 3, (m / 3).max(1), 0.95, seed).generate(m)
        }
        WorkloadKind::HotSetDrift => {
            let window = (n / 16).clamp(2, 32);
            HotSetDrift::new(n, window, window / 2 + 1, 50, 0.9, seed).generate(m)
        }
    }
}

/// Interactive-benchmark trace length per network size: a `communicate`
/// request costs Θ(|l_α|·log)-ish work, so larger networks replay shorter
/// traces to keep a criterion sample affordable.
pub fn comm_trace_len(n: u64) -> usize {
    match n {
        0..=511 => 200,
        512..=2047 => 80,
        _ => 24,
    }
}

/// Headless-harness (`bench_perf`) trace length per network size. Longer
/// than [`comm_trace_len`] because the harness times a single replay per
/// cell rather than many criterion samples; both tables live here so the
/// two surfaces cannot drift apart silently.
pub fn perf_trace_len(n: u64, quick: bool) -> usize {
    let full = comm_trace_len(n) * 3;
    if quick {
        (full / 10).max(10)
    } else {
        full
    }
}

/// The source/destination key pairs the `route` microbenchmarks sweep for
/// an `n`-key graph (shared by `benches/core.rs` and `bench_perf` so both
/// measure the same routes).
pub fn route_pairs(n: u64) -> Vec<(Key, Key)> {
    let step = (n / 64).max(1) as usize;
    (0..n)
        .step_by(step)
        .map(|i| (Key::new(i), Key::new(n - 1 - i)))
        .collect()
}

/// Builds a [`ReferenceGraph`] holding exactly the nodes and membership
/// vectors of `graph`, inserted in ascending key order. For graphs that
/// were themselves built by key-ordered insertion (all fixtures used by
/// the perf suite) the resulting node ids are identical, so measurements
/// drive both representations with the same id stream.
pub fn reference_graph_like(graph: &SkipGraph) -> ReferenceGraph {
    let reference = ReferenceGraph::from_members(graph.node_ids().map(|id| {
        (
            graph.key_of(id).expect("live node"),
            graph.mvec_of(id).expect("live node"),
        )
    }))
    .expect("keys are distinct in the source graph");
    // The comparisons drive both representations with the same id stream,
    // so the id-coincidence precondition is checked, not assumed: a graph
    // built with churn (free-list reuse) would violate it silently.
    for id in graph.node_ids() {
        let key = graph.key_of(id).expect("live node");
        assert_eq!(
            reference.node_by_key(key),
            Some(id),
            "reference_graph_like requires key-ordered insertion so ids coincide"
        );
    }
    reference
}

/// Result of replaying a trace through the self-adjusting skip graph.
#[derive(Debug, Clone, Default)]
pub struct DsgRun {
    /// Routing cost (intermediate nodes) per request.
    pub routing_costs: Vec<usize>,
    /// Transformation rounds per request.
    pub transformation_rounds: Vec<usize>,
    /// Total cost (`d + ρ + 1`) per request.
    pub total_costs: Vec<usize>,
    /// Structure height after each request.
    pub heights: Vec<usize>,
    /// Working set number of each request (computed alongside).
    pub working_sets: Vec<usize>,
    /// Level of the direct link created for each request.
    pub pair_levels: Vec<usize>,
    /// Changed `(node, level)` pairs the differential install touched, per
    /// request (the work the install performed; a full per-node re-splice
    /// would touch every pair of every member instead). Within a batched
    /// epoch, cluster totals are attributed to the cluster's first request.
    pub touched_pairs: Vec<usize>,
    /// Transformation epochs the replay was served in (= requests for a
    /// sequential replay).
    pub epochs: usize,
    /// Transformation-install passes pushed into the structure (= epochs
    /// under the batched install strategy).
    pub install_passes: usize,
    /// Dummy nodes actually created + actually destroyed over the whole
    /// trace. Standing dummies the reconciling lifecycle reclaims in place
    /// contribute to neither side, so this is the graph-mutation churn the
    /// reconciliation (PR 4) eliminates.
    pub dummy_churn: usize,
    /// Standing dummies reclaimed in place over the whole trace.
    pub dummies_reused: usize,
    /// Genuinely new dummies the reconciliation created (reclaims
    /// excluded); almost all go through the bulk splice installer.
    pub dummies_bulk_inserted: usize,
    /// Dummy nodes alive after the whole trace.
    pub final_dummies: usize,
    /// Whether the a-balance property held after every batch boundary.
    pub always_balanced: bool,
    /// Transformation clusters the epoch plan stages planned.
    pub planned_clusters: usize,
    /// Total wall-clock nanoseconds spent in the plan stages.
    pub plan_wall_ns: u64,
    /// Requests the admission gate routed without restructuring (0 with
    /// the adaptation policy off).
    pub pairs_gated: u64,
    /// Cold clusters restructured via the per-epoch admission budget.
    pub restructures_budgeted: u64,
    /// Frequency-sketch counter-halving passes over the whole replay.
    pub sketch_aging_passes: u64,
}

impl DsgRun {
    /// Sum of routing costs.
    pub fn total_routing(&self) -> usize {
        self.routing_costs.iter().sum()
    }

    /// Sum of transformation rounds.
    pub fn total_transformation(&self) -> usize {
        self.transformation_rounds.iter().sum()
    }

    /// Average routing cost per request.
    pub fn avg_routing(&self) -> f64 {
        if self.routing_costs.is_empty() {
            0.0
        } else {
            self.total_routing() as f64 / self.routing_costs.len() as f64
        }
    }

    /// The working-set bound `WS(σ)` of the replayed trace.
    pub fn working_set_bound(&self) -> f64 {
        self.working_sets
            .iter()
            .map(|&t| (t.max(2) as f64).log2())
            .sum()
    }

    /// Maximum height observed.
    pub fn max_height(&self) -> usize {
        self.heights.iter().copied().max().unwrap_or(0)
    }

    /// Total changed `(node, level)` pairs installed over the whole trace.
    pub fn total_touched_pairs(&self) -> usize {
        self.touched_pairs.iter().sum()
    }
}

/// Replays `trace` sequentially (one request per epoch) on a fresh
/// `n`-peer session built with `config`, collecting the per-request
/// metrics the experiments report. Equivalent to
/// [`run_dsg_batched`] with a batch size of 1.
///
/// # Panics
///
/// Panics if the trace references peers outside `0..n` (traces from
/// `dsg-workloads` never do).
pub fn run_dsg(n: u64, config: DsgConfig, trace: &[Request]) -> DsgRun {
    run_dsg_batched(n, config, trace, 1)
}

/// Replays `trace` through [`DsgSession::submit_batch`] in chunks of
/// `batch` requests, collecting the metrics via the default recording
/// observer ([`MetricsObserver`]). With `batch == 1` this is the classic
/// sequential replay; larger batches serve each chunk as one
/// transformation epoch (pairs sharing an endpoint within a chunk split
/// into successive epochs), which is the `communicate_batched` surface of
/// the perf harness.
///
/// # Panics
///
/// Panics if the trace references peers outside `0..n`.
pub fn run_dsg_batched(n: u64, config: DsgConfig, trace: &[Request], batch: usize) -> DsgRun {
    let mut session = DsgSession::builder()
        .config(config)
        .peers(0..n)
        .build()
        .expect("peer keys 0..n are distinct and the config is valid");
    let metrics = session.observe(MetricsObserver::new());
    let mut run = DsgRun {
        always_balanced: true,
        ..DsgRun::default()
    };
    for chunk in trace.chunks(batch.max(1)) {
        session.submit_batch(chunk).expect("trace peers exist");
        // Once a single unbalanced state has been observed the flag cannot
        // recover, so the (whole-graph) balance sweep is skipped from then
        // on — same result, no redundant O(n · height) work per batch.
        if run.always_balanced && !session.engine().balance_report().is_balanced() {
            run.always_balanced = false;
        }
    }
    // Per-request series (working sets included) cover the *communication*
    // requests of the trace, in order; membership/clock requests are served
    // by the replay above but contribute no series entry.
    let mut tracker = WorkingSetTracker::new(n as usize);
    for (u, v) in trace.iter().filter_map(|r| r.endpoints()) {
        run.working_sets.push(tracker.record(u, v));
    }
    {
        let metrics = metrics.lock().expect("metrics lock");
        run.routing_costs = metrics.routing_costs.clone();
        run.transformation_rounds = metrics.transformation_rounds.clone();
        run.total_costs = metrics.total_costs.clone();
        run.heights = metrics.heights.clone();
        run.pair_levels = metrics.pair_levels.clone();
        run.touched_pairs = metrics.touched_pairs.clone();
        run.epochs = metrics.epochs;
        run.install_passes = metrics.install_passes;
        run.dummy_churn = metrics.dummy_churn();
        run.dummies_reused = metrics.dummies_reused;
        run.dummies_bulk_inserted = metrics.dummies_bulk_inserted;
        run.planned_clusters = metrics.planned_clusters;
        run.plan_wall_ns = metrics.plan_wall_ns;
        run.pairs_gated = metrics.pairs_gated;
        run.restructures_budgeted = metrics.restructures_budgeted;
        run.sketch_aging_passes = metrics.sketch_aging_passes;
    }
    run.final_dummies = session.engine().dummy_count();
    run
}

/// Replays `trace` on a baseline overlay and returns the per-request
/// routing costs. Like [`Baseline::serve_trace`], only communication
/// requests contribute (baselines model a fixed peer population), so the
/// returned series aligns with the per-request series of [`run_dsg`] for
/// the same trace.
pub fn run_baseline<B: Baseline>(baseline: &mut B, trace: &[Request]) -> Vec<usize> {
    trace
        .iter()
        .filter_map(|r| r.endpoints())
        .map(|(u, v)| baseline.serve(u, v))
        .collect()
}

/// Formats a plain-text table with aligned columns.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with two decimals (table helper).
pub fn f2(value: f64) -> String {
    format!("{value:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_workloads::{RepeatedPairs, Workload};

    #[test]
    fn run_dsg_collects_one_sample_per_request() {
        let trace = RepeatedPairs::single(16, 1, 9).generate(5);
        let run = run_dsg(16, DsgConfig::default().with_seed(3), &trace);
        assert_eq!(run.routing_costs.len(), 5);
        assert_eq!(run.total_costs.len(), 5);
        assert_eq!(run.working_sets[0], 16);
        assert_eq!(run.working_sets[4], 2);
        // After the first request the pair is directly linked.
        assert!(run.routing_costs[1..].iter().all(|&c| c <= 1));
    }

    #[test]
    fn baselines_are_replayable() {
        let trace = RepeatedPairs::single(32, 0, 31).generate(4);
        let mut baseline = dsg_baselines::StaticSkipGraph::new(32);
        let costs = run_baseline(&mut baseline, &trace);
        assert_eq!(costs.len(), 4);
        assert!(costs.iter().all(|&c| c == costs[0]));
    }

    #[test]
    fn tables_are_aligned() {
        let table = format_table(
            &["n", "cost"],
            &[
                vec!["8".into(), "1.25".into()],
                vec!["1024".into(), "10.00".into()],
            ],
        );
        assert!(table.contains("1024"));
        assert!(table.lines().count() >= 4);
    }
}

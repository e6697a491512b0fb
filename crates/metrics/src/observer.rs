//! The default recording observer for [`DsgSession`](dsg::DsgSession)s.
//!
//! [`MetricsObserver`] implements [`dsg::DsgObserver`] and records the
//! per-request series and epoch-level counters the experiment harnesses
//! report — the observer-based replacement for polling
//! [`RunStats`](dsg::RunStats) fields off the engine. Register it with
//! [`DsgSession::observe`](dsg::DsgSession::observe) (which hands back a
//! shared handle) and read the series after the replay.
//!
//! ```rust
//! use dsg::prelude::*;
//! use dsg_metrics::MetricsObserver;
//!
//! # fn main() -> Result<(), DsgError> {
//! let mut session = DsgSession::builder().peers(0..16).seed(1).build()?;
//! let metrics = session.observe(MetricsObserver::new());
//! session.submit_batch(&[
//!     Request::communicate(0, 9),
//!     Request::communicate(3, 12),
//! ])?;
//! let metrics = metrics.lock().unwrap();
//! assert_eq!(metrics.requests(), 2);
//! assert_eq!(metrics.epochs, 1);
//! # Ok(())
//! # }
//! ```

use dsg::{
    BalanceRepairEvent, DsgObserver, OverloadEvent, RequestOutcome, StallEvent, TransformEvent,
};

/// Records per-request series and epoch counters from session callbacks.
#[derive(Debug, Clone, Default)]
pub struct MetricsObserver {
    /// Routing cost (intermediate nodes) per request, in submission order.
    pub routing_costs: Vec<usize>,
    /// Transformation rounds per request.
    pub transformation_rounds: Vec<usize>,
    /// Total cost (`d + ρ + 1`) per request.
    pub total_costs: Vec<usize>,
    /// Structure height after each request.
    pub heights: Vec<usize>,
    /// Level of the direct link created for each request.
    pub pair_levels: Vec<usize>,
    /// Changed `(node, level)` pairs installed per request (cluster totals
    /// are attributed to the cluster's first request).
    pub touched_pairs: Vec<usize>,
    /// Transformation epochs observed.
    pub epochs: usize,
    /// Merged transformations (clusters) across all epochs.
    pub clusters: usize,
    /// Transformation-install passes across all epochs.
    pub install_passes: usize,
    /// Clusters planned by the (possibly parallel) plan stages across all
    /// epochs.
    pub planned_clusters: usize,
    /// Total wall-clock nanoseconds spent in the plan stages. Timing-only.
    pub plan_wall_ns: u64,
    /// Dummy nodes actually removed by differential GC across all epochs
    /// (reclaimed standing dummies are not counted).
    pub dummies_destroyed: usize,
    /// Dummy slots established by balance repairs across all epochs —
    /// reclaimed and created alike (lifecycle-independent).
    pub dummies_inserted: usize,
    /// Standing dummies reclaimed in place by the reconciling repair across
    /// all epochs (0 under the per-node destroy/recreate oracle).
    pub dummies_reused: usize,
    /// Genuinely new dummies the reconciliation created across all epochs
    /// (reclaims excluded); almost all go through the bulk splice
    /// installer.
    pub dummies_bulk_inserted: usize,
    /// Live dummy count after the most recent repair pass.
    pub live_dummies: usize,
    /// Requests the admission gate declined to restructure across all
    /// epochs (0 with the adaptation policy off).
    pub pairs_gated: u64,
    /// Cold clusters restructured via the per-epoch budget across all
    /// epochs.
    pub restructures_budgeted: u64,
    /// Frequency-sketch counter-halving passes across all epochs.
    pub sketch_aging_passes: u64,
    /// Requests routed without restructuring under a brownout verdict
    /// across all epochs (overload-degraded service only).
    pub pairs_browned_out: u64,
    /// Overload-state transitions observed (brownout/shedding entries and
    /// exits alike).
    pub overload_transitions: u64,
    /// Ingest-loop stall episodes the service watchdog reported.
    pub stalls: u64,
}

impl MetricsObserver {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        MetricsObserver::default()
    }

    /// Number of requests observed.
    pub fn requests(&self) -> usize {
        self.routing_costs.len()
    }

    /// Average routing cost per request (0 for an empty recording).
    pub fn avg_routing(&self) -> f64 {
        if self.routing_costs.is_empty() {
            0.0
        } else {
            self.routing_costs.iter().sum::<usize>() as f64 / self.routing_costs.len() as f64
        }
    }

    /// Total changed `(node, level)` pairs installed.
    pub fn total_touched_pairs(&self) -> usize {
        self.touched_pairs.iter().sum()
    }

    /// Dummy churn: dummies actually created plus dummies actually
    /// destroyed. Reclaimed standing dummies contribute to neither side —
    /// that zero-mutation reuse is exactly what the reconciling lifecycle
    /// saves over destroy-then-recreate.
    pub fn dummy_churn(&self) -> usize {
        (self.dummies_inserted - self.dummies_reused) + self.dummies_destroyed
    }
}

impl DsgObserver for MetricsObserver {
    fn on_request(&mut self, outcome: &RequestOutcome) {
        self.routing_costs.push(outcome.routing_cost);
        self.transformation_rounds
            .push(outcome.transformation_rounds());
        self.total_costs.push(outcome.total_cost());
        self.heights.push(outcome.height_after);
        self.pair_levels.push(outcome.pair_level);
        self.touched_pairs.push(outcome.touched_pairs);
    }

    fn on_transform(&mut self, event: &TransformEvent) {
        self.epochs += 1;
        self.clusters += event.clusters;
        self.install_passes += event.install_passes;
        self.planned_clusters += event.planned_clusters;
        self.plan_wall_ns += event.plan_wall_ns;
        self.pairs_gated += event.pairs_gated;
        self.restructures_budgeted += event.restructures_budgeted;
        self.sketch_aging_passes += event.sketch_aging_passes;
        self.pairs_browned_out += event.pairs_browned_out;
    }

    fn on_overload(&mut self, _event: &OverloadEvent) {
        self.overload_transitions += 1;
    }

    fn on_stall(&mut self, _event: &StallEvent) {
        self.stalls += 1;
    }

    fn on_balance_repair(&mut self, event: &BalanceRepairEvent) {
        self.dummies_destroyed += event.dummies_destroyed;
        self.dummies_inserted += event.dummies_inserted;
        self.dummies_reused += event.dummies_reused;
        self.dummies_bulk_inserted += event.dummies_bulk_inserted;
        self.live_dummies = event.live_dummies;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg::prelude::*;

    #[test]
    fn records_requests_and_epochs() {
        let mut session = DsgSession::builder().peers(0..32).seed(2).build().unwrap();
        let metrics = session.observe(MetricsObserver::new());
        session
            .submit_batch(&[
                Request::communicate(0, 16),
                Request::communicate(1, 17),
                Request::communicate(2, 18),
            ])
            .unwrap();
        session.submit(Request::communicate(0, 16)).unwrap();
        let metrics = metrics.lock().unwrap();
        assert_eq!(metrics.requests(), 4);
        assert_eq!(metrics.epochs, 2);
        assert_eq!(metrics.routing_costs.len(), 4);
        assert_eq!(metrics.heights.len(), 4);
        assert!(metrics.install_passes >= 2);
        assert!(metrics.avg_routing() >= 0.0);
        // The stats the engine accumulated agree with the observer series.
        assert_eq!(
            session.stats().total_routing_cost,
            metrics.routing_costs.iter().sum::<usize>()
        );
        assert_eq!(
            session.stats().transform_touched_pairs,
            metrics.total_touched_pairs()
        );
    }
}

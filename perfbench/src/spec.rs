//! The three benchmark workloads: traffic, engine configuration and
//! warm-up. Everything a run feeds the service is derived from `--seed` here,
//! so one seed always yields the same request stream and the same session.

use dsg::prelude::*;
use dsg_workloads::{RepeatedPairs, UniformRandom, Workload};

/// Network size of every workload.
pub const PEERS: u64 = 4096;

/// Requests the closed-loop client keeps outstanding.
pub const OUTSTANDING: usize = 16;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Uniform random pairs at n = 4096, Algorithm 1 as published: every
    /// epoch rebuilds the whole graph.
    UniformAdapt,
    /// 256 disjoint pairs replayed round-robin at n = 4096: the paper's
    /// stable working set, where restructures are tiny after warm-up.
    PairsSteady,
}

pub const ALL: [WorkloadId; 2] = [WorkloadId::UniformAdapt, WorkloadId::PairsSteady];

impl WorkloadId {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::UniformAdapt => "uniform-adapt",
            WorkloadId::PairsSteady => "pairs-steady",
        }
    }

    /// The latency limit `slo_met_share` counts against. Latency in a
    /// closed loop is mostly queueing behind the client's own outstanding
    /// requests, so each limit sits above the workload's healthy tail.
    pub fn slo_ms(self) -> f64 {
        match self {
            WorkloadId::UniformAdapt => 1000.0,
            WorkloadId::PairsSteady => 100.0,
        }
    }

    /// Requests served before timing starts (part of `setup_s`): eight
    /// client windows of uniform traffic, enough that the first-touch cost
    /// of the early whole-graph epochs averages out across seeds; two passes
    /// over the pair set, so every pair is linked, for the steady working
    /// set.
    pub fn warmup_requests(self) -> usize {
        match self {
            WorkloadId::UniformAdapt => 8 * OUTSTANDING,
            WorkloadId::PairsSteady => 2 * PAIRS,
        }
    }

    /// The first this many timed requests form the cost window: the paper's
    /// per-request costs and the heap peak are taken over it, so they
    /// describe the same request sequence however fast a run serves it.
    /// Both fit in well under half of a 40-second run on two slow CPUs.
    pub fn cost_window(self) -> usize {
        match self {
            WorkloadId::UniformAdapt => 1536,
            WorkloadId::PairsSteady => 1 << 17,
        }
    }

    /// The session builder: identical for the served run and the replay.
    /// Both workloads run Algorithm 1 as published (adaptation policy off).
    /// The engine's own seed is fixed: `--seed` picks the workload, and
    /// the service only ever sees the requests it makes.
    pub fn builder(self) -> DsgBuilder {
        DsgSession::builder().peers(0..PEERS).seed(ENGINE_SEED)
    }

    /// The in-memory service with the default ingest, audit and shutdown
    /// settings.
    pub fn service_config(self, record_journal: bool) -> ServiceConfig {
        ServiceConfig {
            record_journal,
            ..ServiceConfig::default()
        }
    }

    /// The request stream. The service only ever sees what this returns.
    pub fn requests(self, seed: u64) -> Box<dyn Workload + Send> {
        match self {
            WorkloadId::UniformAdapt => Box::new(UniformRandom::new(PEERS, seed)),
            WorkloadId::PairsSteady => {
                Box::new(RepeatedPairs::new(PEERS, disjoint_pairs(PEERS, seed)))
            }
        }
    }
}

/// Seed of the engine's randomised components in every workload.
pub const ENGINE_SEED: u64 = 0x5EED;

/// Size of the `pairs-steady` working set.
pub const PAIRS: usize = 256;

/// [`PAIRS`] disjoint pairs over `2 · PAIRS` distinct peers of `0..n`,
/// chosen by a seeded partial Fisher–Yates shuffle.
fn disjoint_pairs(n: u64, seed: u64) -> Vec<(u64, u64)> {
    let mut keys: Vec<u64> = (0..n).collect();
    let mut state = seed;
    for i in 0..2 * PAIRS {
        let j = i + (splitmix(&mut state) % (n - i as u64)) as usize;
        keys.swap(i, j);
    }
    keys[..2 * PAIRS].chunks(2).map(|p| (p[0], p[1])).collect()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

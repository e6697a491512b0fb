//! Shared helpers of the integration suites: the bit-for-bit network
//! and batch-outcome comparisons used by the determinism tests
//! (`service.rs`, `crash_recovery.rs`, `policy_gate.rs`).
//!
//! Each consumer pulls this in with `mod common;`, so items unused by a
//! particular test binary are expected.
#![allow(dead_code)]

use dsg::prelude::*;
use dsg_skipgraph::Key;

/// Asserts two engines are observably identical — structure, dummy
/// placement (keys and vectors), and the full per-peer state. NodeIds are
/// *expected* to coincide here (identical mutation sequences), but the
/// comparison stays key-based like the other differential suites.
pub fn assert_networks_agree(label: &str, left: &DynamicSkipGraph, right: &DynamicSkipGraph) {
    left.validate().expect("left network is structurally sound");
    right
        .validate()
        .expect("right network is structurally sound");
    assert_eq!(left.height(), right.height(), "{label}: heights diverge");
    assert_eq!(
        left.dummy_count(),
        right.dummy_count(),
        "{label}: dummy populations diverge"
    );
    let ga = left.graph();
    let gb = right.graph();
    let keys_a: Vec<Key> = ga.keys().collect();
    let keys_b: Vec<Key> = gb.keys().collect();
    assert_eq!(keys_a, keys_b, "{label}: node (and dummy) key sets diverge");
    for &key in &keys_a {
        let ia = ga.node_by_key(key).expect("key just listed");
        let ib = gb.node_by_key(key).expect("key sets agree");
        assert_eq!(
            ga.node(ia).expect("live").is_dummy(),
            gb.node(ib).expect("live").is_dummy(),
            "{label}: dummy flag diverges for key {key}"
        );
        let mvec = ga.mvec_of(ia).expect("live");
        assert_eq!(
            mvec,
            gb.mvec_of(ib).expect("live"),
            "{label}: membership vector diverges for key {key}"
        );
        for level in 0..=mvec.len() + 1 {
            let list_a: Vec<u64> = ga
                .list_of_iter(ia, level)
                .expect("live")
                .map(|id| ga.key_of(id).expect("live").value())
                .collect();
            let list_b: Vec<u64> = gb
                .list_of_iter(ib, level)
                .expect("live")
                .map(|id| gb.key_of(id).expect("live").value())
                .collect();
            assert_eq!(
                list_a, list_b,
                "{label}: list order diverges at level {level} for key {key}"
            );
        }
    }
    for peer in left.peers() {
        assert_eq!(
            left.peer_state(peer).expect("peer exists"),
            right.peer_state(peer).expect("peer exists"),
            "{label}: self-adjusting state diverges for peer {peer}"
        );
    }
}

/// Asserts two batch outcomes agree on everything deterministic (the
/// wall-clock plan timing is explicitly excluded).
pub fn assert_outcomes_agree(label: &str, left: &BatchOutcome, right: &BatchOutcome) {
    assert_eq!(left.outcomes, right.outcomes, "{label}: outcomes diverge");
    assert_eq!(left.epochs, right.epochs, "{label}: epochs diverge");
    assert_eq!(left.clusters, right.clusters, "{label}: clusters diverge");
    assert_eq!(
        left.install_passes, right.install_passes,
        "{label}: install passes diverge"
    );
    assert_eq!(
        left.touched_pairs, right.touched_pairs,
        "{label}: touched pairs diverge"
    );
    assert_eq!(
        left.dummies_destroyed, right.dummies_destroyed,
        "{label}: destroyed counters diverge"
    );
    assert_eq!(
        left.dummies_inserted, right.dummies_inserted,
        "{label}: inserted counters diverge"
    );
    assert_eq!(
        left.dummies_reused, right.dummies_reused,
        "{label}: reuse counters diverge"
    );
    assert_eq!(
        left.dummies_bulk_inserted, right.dummies_bulk_inserted,
        "{label}: bulk-insert counters diverge"
    );
    assert_eq!(
        left.planned_clusters, right.planned_clusters,
        "{label}: planned-cluster counters diverge"
    );
    assert_eq!(
        left.pairs_gated, right.pairs_gated,
        "{label}: gated-pair counters diverge"
    );
    assert_eq!(
        left.restructures_budgeted, right.restructures_budgeted,
        "{label}: budgeted-restructure counters diverge"
    );
    assert_eq!(
        left.sketch_aging_passes, right.sketch_aging_passes,
        "{label}: sketch-aging counters diverge"
    );
}

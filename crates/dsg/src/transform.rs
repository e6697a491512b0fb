//! The topological transformation of Algorithm 1 (paper §IV-C and §IV-D).
//!
//! After routing a request `(u, v)`, DSG rebuilds the part of the skip graph
//! rooted at `l_α` — the highest-level linked list containing both `u` and
//! `v` — so that the pair ends up in a linked list of size two. The rebuild
//! proceeds level by level: the members of every affected list compute an
//! approximate median of their priorities and split into a 0-sublist and a
//! 1-sublist, with two cases:
//!
//! * **Case 1 (positive median)** — nodes with `P(x) ≥ M` move to the
//!   0-subgraph (and record `D^x = true`), the rest to the 1-subgraph. Since
//!   only the merged communicating group has positive priorities, this can
//!   only split *that* group.
//! * **Case 2 (negative median)** — the median falls inside the priority
//!   band of one non-communicating group `g_s` (equation (2)). To avoid
//!   hurting `g_s`, the split depends on `|g_s|` relative to the list size:
//!   `g_s` is either kept whole (moved to one side), or — when it dominates
//!   the list (`|g_s| > ⅔|l|`) — split along its remembered
//!   is-dominating-group flags, which reproduces a split that already
//!   happened in the past and therefore cannot increase distances inside
//!   `g_s` (Lemma 3).
//!
//! The engine works on an explicit work queue of lists rather than on the
//! graph itself; the caller applies the resulting membership-vector suffixes
//! afterwards and then runs the timestamp rules (T1–T6) using the event
//! trace recorded here.
//!
//! ## Differential install contract
//!
//! Besides the full per-member suffix map, the engine reports the
//! *difference* between the new vectors and the ones currently installed in
//! the graph: [`TransformOutcome::changes`] lists, for every member whose
//! vector actually changes, the first level at which it differs
//! ([`MembershipUpdate::from_level`]) together with the complete new vector.
//! Members whose recomputed bits coincide with their current bits below
//! `l_α` — the common case under skewed and working-set workloads, where
//! the communicating pair is already grouped together and the split
//! decisions reproduce the existing partition — do not appear at all, so
//! the install step ([`SkipGraph::apply_membership_batch`]) touches only the
//! lists that genuinely change. [`TransformOutcome::touched_pairs`] counts
//! the changed `(node, level)` pairs, the quantity the install's work is
//! proportional to.
//!
//! Internally the engine addresses members by their dense position in
//! `members_alpha` (priorities, partial suffixes, medians and split events
//! live in flat vectors) so the hot per-level loop performs no hashing; the
//! hash-keyed maps of [`TransformOutcome`] are materialised once at the
//! end for the timestamp/group consumers.

use std::collections::HashMap;

use dsg_skipgraph::{Bit, MembershipUpdate, MembershipVector, NodeId, SkipGraph};

use crate::amf::MedianFinder;
use crate::priority::{
    band_of, negative_band_priority, p2_priority, pair_top_priority, recomputed_priority,
    Priority,
};
use crate::state::{StateDelta, StateTable};

/// The most pairs one transformation epoch may serve: work items track the
/// pairs they contain in a `u64` bitmask. The session layer flushes an
/// epoch before it accumulates more.
pub const MAX_EPOCH_PAIRS: usize = 64;

/// One communicating pair served by a transformation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformPair {
    /// The communicating source.
    pub u: NodeId,
    /// The communicating destination.
    pub v: NodeId,
    /// The request time `t` of this pair (1-based request index; strictly
    /// ascending across the pairs of one epoch).
    pub t: u64,
}

/// Parameters of one transformation epoch: one or more communicating pairs
/// rebuilt together over the subtree rooted at the level-`alpha` list that
/// contains every endpoint.
///
/// With a single pair this is exactly Algorithm 1. With several pairs the
/// engine generalises rule P1: each pair receives a distinct finite top
/// priority keyed by its request time ([`pair_top_priority`]), so every
/// threshold split keeps each pair together while later (more recent)
/// pairs dominate earlier ones — the documented deterministic tie-break
/// for overlapping requests in one batch.
#[derive(Debug, Clone, Copy)]
pub struct TransformInput<'a> {
    /// The pairs of the epoch, in submission order (ascending `t`).
    /// Non-empty; at most [`MAX_EPOCH_PAIRS`].
    pub pairs: &'a [TransformPair],
    /// The level of the rebuilt subtree's root list: the highest common
    /// level of the single pair, or the meet of the pairs' `l_α` roots.
    pub alpha: usize,
    /// The balance parameter `a`.
    pub a: usize,
}

impl TransformInput<'_> {
    /// The epoch time: the time of the most recent pair. Rules P3/P4 and
    /// the band arithmetic use one shared `t` per epoch; for a single-pair
    /// epoch this is exactly the paper's request time.
    pub fn t_epoch(&self) -> u64 {
        self.pairs.last().map(|p| p.t).unwrap_or(0)
    }
}

/// The trace of one transformation, consumed by the timestamp and group-base
/// rules and by the cost accounting.
#[derive(Debug, Clone, Default)]
pub struct TransformOutcome {
    /// New membership-vector bits per node, for levels `α+1` upward (in
    /// order). Nodes not present keep their old vectors (they were not in
    /// `l_α`).
    pub suffixes: HashMap<NodeId, Vec<Bit>>,
    /// The differential install plan: one entry per member whose new vector
    /// *differs* from the one currently installed, carrying the first
    /// changed level and the complete new vector. Members whose bits are
    /// unchanged below `l_α` are absent — the batch installer skips them
    /// entirely. Ordered by position in `members_alpha` (ascending key).
    pub changes: Vec<MembershipUpdate>,
    /// Number of changed `(node, level)` pairs across [`Self::changes`] —
    /// the quantity the differential install's work is proportional to.
    pub touched_pairs: usize,
    /// The level `d'_i` at which each pair forms its linked list of size
    /// two, indexed like [`TransformInput::pairs`].
    pub pair_levels: Vec<usize>,
    /// The approximate medians each node received, as `(list_level, M)`
    /// pairs (timestamp rule T2 needs them).
    pub medians: HashMap<NodeId, Vec<(usize, Priority)>>,
    /// For every node, the levels at which the group it belonged to was
    /// split by this transformation (rule T5 and the group-base updates of
    /// Appendix C need them). The recorded level is the level of the *new*
    /// sublists (`list_level + 1`).
    pub group_splits: HashMap<NodeId, Vec<usize>>,
    /// Number of lists processed (for diagnostics).
    pub processed_lists: usize,
    /// Rounds spent on median computations (including skip-list builds).
    pub median_rounds: usize,
    /// Rounds spent on distributed counts and group-id broadcasts.
    pub group_accounting_rounds: usize,
    /// Rounds spent on neighbour searches after moves (≤ `a` per level).
    pub restructuring_rounds: usize,
}

impl TransformOutcome {
    /// The lowest level at which `node`'s group was split, if any.
    pub fn lowest_split_level(&self, node: NodeId) -> Option<usize> {
        self.group_splits
            .get(&node)
            .and_then(|levels| levels.iter().copied().min())
    }
}

/// One list awaiting a split. Members are dense positions into
/// `members_alpha`, kept in ascending order (hence ascending key order);
/// vectors are recycled through a pool so the hot loop does not allocate
/// after warm-up.
#[derive(Debug)]
struct WorkItem {
    /// The level at which `members` currently form a linked list.
    list_level: usize,
    /// The members, as positions into `members_alpha`.
    members: Vec<u32>,
    /// Bitmask of the epoch pairs whose *both* endpoints are in this list.
    pairs: u64,
}

/// Reusable buffers of the transformation's planning half, owned by the
/// caller so a warm epoch plans without allocating the overlay columns.
#[derive(Debug, Default)]
pub struct TransformScratch {
    /// Recycled per-member group-id columns of the engine's overlay.
    columns: Vec<Vec<u64>>,
}

/// The group-id view of one transformation in flight: the shared (read-only)
/// [`StateTable`] overlaid with the group-ids this transformation has
/// decided so far, addressed by dense member position.
///
/// This is what splits the engine into a *plan* half and an *apply* half:
/// planning needs to read its own group-id writes (step 3's merged root
/// groups, step 8's sublist ids) while leaving the shared table untouched,
/// so the writes live in a per-member column starting at the root level and
/// the matching [`StateDelta`] records them for the caller to apply. A
/// member descends the split tree through exactly one list per level, so
/// its column is written in strictly ascending level order with no gaps
/// (position 0 is pre-filled with the root-level id). Columns are borrowed
/// from the caller's [`TransformScratch`] and recycled across clusters.
struct GidOverlay<'a> {
    states: &'a StateTable,
    members: &'a [NodeId],
    alpha: usize,
    /// Per member position: group-ids for levels `alpha`, `alpha+1`, … as
    /// decided by this transformation (only the first `members.len()`
    /// columns are meaningful).
    written: &'a mut Vec<Vec<u64>>,
}

impl<'a> GidOverlay<'a> {
    fn new(
        states: &'a StateTable,
        members: &'a [NodeId],
        alpha: usize,
        written: &'a mut Vec<Vec<u64>>,
    ) -> Self {
        if written.len() < members.len() {
            written.resize_with(members.len(), Vec::new);
        }
        // Pre-fill the root level so every later read of `alpha` and above
        // hits the dense column instead of the table.
        for (column, &x) in written.iter_mut().zip(members) {
            column.clear();
            column.push(states.group_id(x, alpha));
        }
        GidOverlay {
            states,
            members,
            alpha,
            written,
        }
    }

    /// Group-id of the member at dense position `pos` at `level`, reading
    /// this transformation's own writes first.
    fn group_id(&self, pos: usize, level: usize) -> u64 {
        if level >= self.alpha {
            if let Some(&g) = self.written[pos].get(level - self.alpha) {
                return g;
            }
        }
        self.states.group_id(self.members[pos], level)
    }

    /// Records a group-id write (overlay + delta). Writes above the root
    /// level extend the member's column by exactly one level at a time.
    fn set_group_id(&mut self, delta: &mut StateDelta, pos: usize, level: usize, value: u64) {
        let idx = level - self.alpha;
        let column = &mut self.written[pos];
        debug_assert!(idx <= column.len(), "group-id writes are level-ordered");
        if idx == column.len() {
            column.push(value);
        } else {
            column[idx] = value;
        }
        delta.push_group_id(self.members[pos], level, value);
    }
}

/// The *planning* half of the transformation: computes the full trace of
/// one epoch cluster — membership-bit suffixes, the differential install
/// plan, medians, split events — against a **read-only** graph and state
/// table, recording every intended state write in the returned
/// [`StateDelta`] instead of mutating the table.
///
/// `members_alpha` must be the members of the root list at `input.alpha`
/// in ascending key order with dummy nodes already removed, containing
/// every pair endpoint. Group-ids at the root level are merged per pair in
/// submission order (Algorithm 1 step 3, recorded in the delta); deeper
/// group-ids are assigned as lists form (step 8); timestamps are *not*
/// touched (the caller applies rules T1–T6 per pair using the returned
/// trace, after applying the delta). `graph` must still hold the
/// *pre-transformation* membership vectors: the differential install plan
/// ([`TransformOutcome::changes`]) is computed against them.
///
/// Everything this function touches is borrowed immutably, so the epoch
/// engine plans every cluster of an epoch before it mutates anything; it
/// then applies the deltas in submission order
/// ([`StateTable::apply_delta`]). `scratch` holds the recycled overlay
/// columns.
pub fn plan_transformation_with(
    graph: &SkipGraph,
    states: &StateTable,
    median_finder: &mut dyn MedianFinder,
    input: &TransformInput,
    members_alpha: &[NodeId],
    scratch: &mut TransformScratch,
) -> (TransformOutcome, StateDelta) {
    plan_transformation_impl(graph, states, median_finder, input, members_alpha, true, scratch)
}

/// [`plan_transformation_with`] without materialising
/// [`TransformOutcome::suffixes`] (left empty): the batched install
/// consumes only the diff plan ([`TransformOutcome::changes`]), so
/// building the full per-member suffix map — one heap vector per member of
/// `l_α` — would be pure overhead on the hot path. The timestamp/group
/// traces are identical.
pub fn plan_transformation_lean_with(
    graph: &SkipGraph,
    states: &StateTable,
    median_finder: &mut dyn MedianFinder,
    input: &TransformInput,
    members_alpha: &[NodeId],
    scratch: &mut TransformScratch,
) -> (TransformOutcome, StateDelta) {
    plan_transformation_impl(graph, states, median_finder, input, members_alpha, false, scratch)
}

fn plan_transformation_impl(
    graph: &SkipGraph,
    states: &StateTable,
    median_finder: &mut dyn MedianFinder,
    input: &TransformInput,
    members_alpha: &[NodeId],
    collect_suffixes: bool,
    plan_scratch: &mut TransformScratch,
) -> (TransformOutcome, StateDelta) {
    let npairs = input.pairs.len();
    assert!(
        (1..=MAX_EPOCH_PAIRS).contains(&npairs),
        "a transformation epoch serves 1..={MAX_EPOCH_PAIRS} pairs"
    );
    let t_epoch = input.t_epoch();
    let mut outcome = TransformOutcome {
        pair_levels: vec![0; npairs],
        ..TransformOutcome::default()
    };
    let mut delta = StateDelta::default();
    let n_total = members_alpha.len();

    // Which pair (if any) each dense member position is an endpoint of,
    // plus the root-item mask of pairs with both endpoints present. One
    // pass over the members against a small endpoint table — O(n + k),
    // not O(n · k).
    let mut pair_of_pos: Vec<Option<u16>> = vec![None; n_total];
    // Dense positions of each pair's endpoints, for the overlay reads of
    // the step-3 merge.
    let mut endpoint_pos: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX); npairs];
    let mut root_pairs = 0u64;
    {
        let endpoints: HashMap<NodeId, u16> = input
            .pairs
            .iter()
            .enumerate()
            .flat_map(|(i, pair)| [(pair.u, i as u16), (pair.v, i as u16)])
            .collect();
        let mut seen = [0u8; MAX_EPOCH_PAIRS];
        for (pos, &x) in members_alpha.iter().enumerate() {
            if let Some(&i) = endpoints.get(&x) {
                pair_of_pos[pos] = Some(i);
                seen[i as usize] += 1;
                if input.pairs[i as usize].u == x {
                    endpoint_pos[i as usize].0 = pos;
                } else {
                    endpoint_pos[i as usize].1 = pos;
                }
            }
        }
        for (i, &count) in seen.iter().take(npairs).enumerate() {
            if count == 2 {
                root_pairs |= 1 << i;
            }
        }
    }

    // Step 2: initial priorities P1–P3 for every member of the root list.
    // P1 generalises to one distinct top priority per pair; P2 matches a
    // member against the pairs' groups in submission order (first match
    // wins — the deterministic tie-break when groups are shared).
    let mut priorities: Vec<Priority> = members_alpha
        .iter()
        .enumerate()
        .map(|(pos, &x)| {
            if let Some(p) = pair_of_pos[pos] {
                return pair_top_priority(npairs, input.pairs[p as usize].t);
            }
            let gx = states.group_id(x, input.alpha);
            for pair in input.pairs {
                if gx == states.group_id(pair.u, input.alpha) {
                    return p2_priority(states, input.alpha, x, pair.u);
                }
                if gx == states.group_id(pair.v, input.alpha) {
                    return p2_priority(states, input.alpha, x, pair.v);
                }
            }
            recomputed_priority(states, t_epoch, input.alpha, x)
        })
        .collect();

    // Step 3: merge each pair's groups at the root level, in submission
    // order (later pairs see — and may absorb — earlier merges). Planned
    // through the overlay: the shared table stays untouched, the delta
    // records every write.
    let mut gids = GidOverlay::new(states, members_alpha, input.alpha, &mut plan_scratch.columns);
    for (i, pair) in input.pairs.iter().enumerate() {
        let (u_pos, v_pos) = endpoint_pos[i];
        let gu = if u_pos != usize::MAX {
            gids.group_id(u_pos, input.alpha)
        } else {
            states.group_id(pair.u, input.alpha)
        };
        let gv = if v_pos != usize::MAX {
            gids.group_id(v_pos, input.alpha)
        } else {
            states.group_id(pair.v, input.alpha)
        };
        let u_key = states.get(pair.u).key().value();
        for pos in 0..n_total {
            let gx = gids.group_id(pos, input.alpha);
            if gx == gu || gx == gv {
                gids.set_group_id(&mut delta, pos, input.alpha, u_key);
            }
        }
    }

    // Dense per-member traces, indexed by position in `members_alpha`.
    let mut suffixes: Vec<MembershipVector> = vec![MembershipVector::empty(); n_total];
    let mut medians: Vec<Vec<(usize, Priority)>> = vec![Vec::new(); n_total];
    let mut splits: Vec<Vec<usize>> = vec![Vec::new(); n_total];

    // Reusable scratch buffers for the per-list loop.
    let mut pool: Vec<Vec<u32>> = Vec::new();
    let mut values: Vec<Priority> = Vec::new();
    let mut bits: Vec<Bit> = Vec::new();
    let mut gs_mask: Vec<bool> = Vec::new();
    let mut group_scratch: Vec<(u64, u32)> = Vec::new();

    // Steps 4–9: recursive, level-parallel splitting. Lists at the same
    // level are processed *in parallel* by the distributed algorithm, so the
    // round cost charged for a level is the maximum over its lists, not the
    // sum; the per-level maxima are accumulated here and summed at the end.
    let mut median_rounds_per_level: HashMap<usize, usize> = HashMap::new();
    let mut group_rounds_per_level: HashMap<usize, usize> = HashMap::new();
    let mut restructure_levels: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut queue: Vec<WorkItem> = vec![WorkItem {
        list_level: input.alpha,
        members: (0..n_total as u32).collect(),
        pairs: root_pairs,
    }];

    while let Some(mut item) = queue.pop() {
        let n = item.members.len();
        if n <= 1 {
            item.members.clear();
            pool.push(item.members);
            continue;
        }
        outcome.processed_lists += 1;
        let next_level = item.list_level + 1;

        bits.clear();
        if n == 2 {
            // A list of exactly two nodes splits into singletons directly:
            // a communicating pair stops here (this is its level d' of rule
            // T1); any other two nodes are separated by key order.
            if item.pairs != 0 {
                let p = item.pairs.trailing_zeros() as usize;
                outcome.pair_levels[p] = item.list_level;
            }
            split_pair_into(graph, input, members_alpha, &item, &mut bits);
        } else {
            // Step 4: approximate median of the members' priorities.
            values.clear();
            values.extend(item.members.iter().map(|&i| priorities[i as usize]));
            let median_outcome = median_finder.find_median(&values, input.a);
            let level_entry = median_rounds_per_level.entry(item.list_level).or_insert(0);
            *level_entry = (*level_entry).max(median_outcome.rounds);
            let m = median_outcome.median;
            for &i in &item.members {
                medians[i as usize].push((item.list_level, m));
            }
            // Steps 5–6: decide the split.
            let used_counts = decide_split_into(
                states,
                &gids,
                t_epoch,
                item.list_level,
                members_alpha,
                &item.members,
                &values,
                m,
                &mut gs_mask,
                &mut bits,
            );
            if used_counts {
                // |l_d|, |g_s|, |L_low|, |L_high| are computed by reusing the
                // balanced skip list: one distributed sum plus a broadcast.
                let rounds = 2 * (n.max(2) as f64).log2().ceil() as usize;
                let entry = group_rounds_per_level.entry(item.list_level).or_insert(0);
                *entry = (*entry).max(rounds);
            }
            // Degenerate guard: the approximate median may fail to separate
            // a list (all priorities equal, or an approximate median below
            // the minimum). Force a balanced split — single-pair epochs use
            // the classic interleave-and-swap (the pair lands in the
            // 0-subgraph), multi-pair lists interleave *pair atoms* so no
            // pair is torn apart — so that the recursion always terminates.
            if bits.iter().all(|b| *b == Bit::Zero) || bits.iter().all(|b| *b == Bit::One) {
                if npairs > 1 && item.pairs != 0 {
                    forced_atom_split_into(&pair_of_pos, &item, &mut bits);
                } else {
                    forced_balanced_split_into(input, members_alpha, &item, &mut bits);
                }
            }
            // Case 1 records the is-dominating-group flags. Reads of these
            // flags (the Case-2 dominating split) and this write target the
            // same level, but a list takes exactly one of the two cases, so
            // no planning read can observe a same-transformation write —
            // recording them in the delta is exact.
            if m.is_positive() {
                for (idx, &i) in item.members.iter().enumerate() {
                    delta.push_dominating(
                        members_alpha[i as usize],
                        item.list_level,
                        bits[idx] == Bit::Zero,
                    );
                }
            }
        }

        // Record the new membership bits and form the two sublists. A
        // pair's endpoints always take the same bit (they share one
        // priority value and the forced splits keep atoms whole), so a pair
        // of the parent mask lands entirely in one child; the seen-masks
        // below track that robustly rather than assuming it.
        let mut zero_members: Vec<u32> = pool.pop().unwrap_or_default();
        let mut one_members: Vec<u32> = pool.pop().unwrap_or_default();
        let (mut zero_seen, mut one_seen) = ([0u64; 2], [0u64; 2]);
        for (idx, &i) in item.members.iter().enumerate() {
            suffixes[i as usize]
                .push(bits[idx])
                .expect("transformation depth stays far below the 128-level height cap");
            let endpoint = pair_of_pos[i as usize];
            match bits[idx] {
                Bit::Zero => {
                    zero_members.push(i);
                    if let Some(p) = endpoint {
                        let which =
                            usize::from(members_alpha[i as usize] != input.pairs[p as usize].u);
                        zero_seen[which] |= 1 << p;
                    }
                }
                Bit::One => {
                    one_members.push(i);
                    if let Some(p) = endpoint {
                        let which =
                            usize::from(members_alpha[i as usize] != input.pairs[p as usize].u);
                        one_seen[which] |= 1 << p;
                    }
                }
            }
        }
        // Neighbour search after the move is bounded by the balance
        // parameter (§IV-C), plus the a-balance chain check of step 7; all
        // lists of a level perform it in parallel.
        restructure_levels.insert(item.list_level);

        // Step 8: group bookkeeping for the new sublists.
        let zero_pairs = zero_seen[0] & zero_seen[1] & item.pairs;
        let one_pairs = one_seen[0] & one_seen[1] & item.pairs;
        let mut level_group_rounds = 0usize;
        assign_new_group_ids(
            &mut gids,
            &mut delta,
            graph,
            item.list_level,
            members_alpha,
            &item.members,
            &bits,
            &mut group_scratch,
            &mut splits,
            &mut level_group_rounds,
        );
        let entry = group_rounds_per_level.entry(item.list_level).or_insert(0);
        *entry = (*entry).max(level_group_rounds);

        // Priorities are recomputed with rule P4 for sublists that no
        // longer contain any communicating pair. The group-id at the new
        // level was just assigned by this transformation, so it is read
        // from the overlay; the timestamp read is safe against the base
        // table (the transformation never writes timestamps).
        for (sublist, pairs_present) in
            [(&zero_members, zero_pairs), (&one_members, one_pairs)]
        {
            if pairs_present == 0 {
                for &i in sublist.iter() {
                    let pos = i as usize;
                    priorities[pos] = negative_band_priority(
                        gids.group_id(pos, next_level),
                        t_epoch,
                        states.timestamp(members_alpha[pos], next_level + 1),
                    );
                }
            }
        }

        // Step 9: recurse on both sublists.
        queue.push(WorkItem {
            list_level: next_level,
            members: zero_members,
            pairs: zero_pairs,
        });
        queue.push(WorkItem {
            list_level: next_level,
            members: one_members,
            pairs: one_pairs,
        });
        item.members.clear();
        pool.push(item.members);
    }

    outcome.median_rounds = median_rounds_per_level.values().sum();
    outcome.group_accounting_rounds = group_rounds_per_level.values().sum();
    outcome.restructuring_rounds = restructure_levels.len() * (input.a + 1);

    // Materialise the per-node trace maps and the differential install
    // plan. Iterating `members_alpha` (ascending key order) keeps the
    // `changes` order deterministic.
    for (i, &x) in members_alpha.iter().enumerate() {
        let suffix = suffixes[i];
        if suffix.is_empty() {
            continue;
        }
        if collect_suffixes {
            outcome.suffixes.insert(x, suffix.iter().collect());
        }
        if !medians[i].is_empty() {
            outcome.medians.insert(x, std::mem::take(&mut medians[i]));
        }
        if !splits[i].is_empty() {
            outcome.group_splits.insert(x, std::mem::take(&mut splits[i]));
        }
        let old = graph.mvec_of(x).expect("member is live");
        let mut new_mvec = old;
        new_mvec
            .replace_suffix(input.alpha + 1, suffix.iter())
            .expect("transformation depth stays far below the 128-level height cap");
        if new_mvec != old {
            let from_level = old.common_prefix_len(&new_mvec) + 1;
            outcome.touched_pairs += old.len().max(new_mvec.len()) + 1 - from_level;
            outcome.changes.push(MembershipUpdate {
                node: x,
                from_level,
                new_mvec,
            });
        }
    }
    (outcome, delta)
}

/// Splits a two-node list into singletons: a communicating pair as
/// `u → 0, v → 1`; any other two nodes by key order.
fn split_pair_into(
    graph: &SkipGraph,
    input: &TransformInput,
    members_alpha: &[NodeId],
    item: &WorkItem,
    bits: &mut Vec<Bit>,
) {
    let [x, y] = [
        members_alpha[item.members[0] as usize],
        members_alpha[item.members[1] as usize],
    ];
    if item.pairs != 0 {
        let pair = &input.pairs[item.pairs.trailing_zeros() as usize];
        bits.extend(
            [x, y]
                .iter()
                .map(|&m| if m == pair.u { Bit::Zero } else { Bit::One }),
        );
        return;
    }
    let kx = graph.key_of(x).expect("member is live");
    let ky = graph.key_of(y).expect("member is live");
    if kx <= ky {
        bits.extend([Bit::Zero, Bit::One]);
    } else {
        bits.extend([Bit::One, Bit::Zero]);
    }
}

/// A forced split used when priorities cannot separate a list (all values
/// tied, or an approximate median outside the value range). Members are
/// *interleaved* by list position — the same shape a perfectly balanced
/// skip graph uses — so that repeated forced splits keep routing paths
/// short instead of producing key-contiguous sublists. The communicating
/// pair of a single-pair epoch (if present) is kept in the 0-half; lists
/// holding several pairs use [`forced_atom_split_into`] instead.
fn forced_balanced_split_into(
    input: &TransformInput,
    members_alpha: &[NodeId],
    item: &WorkItem,
    bits: &mut Vec<Bit>,
) {
    let n = item.members.len();
    bits.clear();
    bits.extend((0..n).map(|i| if i % 2 == 0 { Bit::Zero } else { Bit::One }));
    if item.pairs != 0 {
        let pair = &input.pairs[item.pairs.trailing_zeros() as usize];
        for target in [pair.u, pair.v] {
            if let Some(pos) = item
                .members
                .iter()
                .position(|&i| members_alpha[i as usize] == target)
            {
                if bits[pos] == Bit::One {
                    // Swap with a 0-half node that is not the other endpoint.
                    if let Some(swap) = (0..n).find(|&i| {
                        let member = members_alpha[item.members[i] as usize];
                        bits[i] == Bit::Zero && member != pair.u && member != pair.v
                    }) {
                        bits.swap(pos, swap);
                    }
                }
            }
        }
    }
}

/// The multi-pair forced split: members are grouped into *atoms* — a
/// communicating pair forms one atom, every other member is its own atom —
/// and atoms are interleaved 0/1 in list order. No pair can be torn apart
/// (both endpoints copy the atom's bit), every list with at least two
/// atoms splits into two non-empty halves, and the result is deterministic
/// in list order. (A two-member list is handled by `split_pair_into`
/// before this path can be reached, so atom count ≥ 2 here.)
fn forced_atom_split_into(pair_of_pos: &[Option<u16>], item: &WorkItem, bits: &mut Vec<Bit>) {
    bits.clear();
    let mut pair_bit = [None::<Bit>; MAX_EPOCH_PAIRS];
    let mut next = Bit::Zero;
    for &i in &item.members {
        let bit = match pair_of_pos[i as usize] {
            Some(p) if item.pairs & (1 << p) != 0 => match pair_bit[p as usize] {
                // Second endpoint: copy the pair's bit, don't alternate.
                Some(bit) => bit,
                None => {
                    pair_bit[p as usize] = Some(next);
                    let bit = next;
                    next = next.flipped();
                    bit
                }
            },
            _ => {
                let bit = next;
                next = next.flipped();
                bit
            }
        };
        bits.push(bit);
    }
}

/// Implements Cases 1 and 2 of §IV-C for one list, writing the membership
/// bits (parallel to `item_members`) into `bits`. Returns whether the
/// distributed counts of Case 2 were needed. Group-ids are read through
/// the transformation's overlay (the current level's ids were assigned by
/// the previous split wave); the is-dominating flags come from the base
/// table — the transformation's own flag writes can never be observed by
/// its own reads (a list takes Case 1 *or* the Case-2 dominating split,
/// never both).
#[allow(clippy::too_many_arguments)]
fn decide_split_into(
    states: &StateTable,
    gids: &GidOverlay<'_>,
    t_epoch: u64,
    list_level: usize,
    members_alpha: &[NodeId],
    item_members: &[u32],
    priorities: &[Priority],
    median: Priority,
    gs_mask: &mut Vec<bool>,
    bits: &mut Vec<Bit>,
) -> bool {
    let n = item_members.len();
    if median.is_positive() {
        // Case 1.
        bits.extend(
            priorities
                .iter()
                .map(|p| if *p >= median { Bit::Zero } else { Bit::One }),
        );
        return false;
    }
    // Case 2: the median falls inside the band of one non-communicating
    // group (equation (2)). Bands are identified by the *mixed* group
    // identifier (see `priority::mix_group_id`).
    let gs_band = band_of(median, t_epoch);
    gs_mask.clear();
    gs_mask.extend(item_members.iter().zip(priorities).map(|(&i, p)| {
        !p.is_positive()
            && gs_band.is_some()
            && Some(crate::priority::mix_group_id(
                gids.group_id(i as usize, list_level),
            )) == gs_band
    }));
    let gs_size = gs_mask.iter().filter(|b| **b).count();
    if gs_size == 0 {
        // The median's band does not correspond to any present group (can
        // happen with the approximate median); fall back to the plain
        // comparison split, which cannot split any group because entire
        // bands lie on one side of the median.
        bits.extend(
            priorities
                .iter()
                .map(|p| if *p >= median { Bit::Zero } else { Bit::One }),
        );
        return false;
    }

    if 3 * gs_size > 2 * n {
        // |g_s| > ⅔|l|: g_s must be split, but only along its remembered
        // is-dominating-group flags; everyone else joins the 0-subgraph.
        bits.extend(item_members.iter().zip(gs_mask.iter()).map(|(&i, in_gs)| {
            if *in_gs {
                if states.dominating(members_alpha[i as usize], list_level) {
                    Bit::One
                } else {
                    Bit::Zero
                }
            } else {
                Bit::Zero
            }
        }));
    } else if 3 * gs_size < n {
        // |g_s| < ⅓|l|: keep g_s whole on the emptier side, split the rest
        // by the median comparison.
        let l_high = priorities.iter().filter(|p| **p >= median).count();
        let l_low = n - l_high;
        let gs_bit = if l_high < l_low { Bit::Zero } else { Bit::One };
        bits.extend(priorities.iter().zip(gs_mask.iter()).map(|(p, in_gs)| {
            if *in_gs {
                gs_bit
            } else if *p >= median {
                Bit::Zero
            } else {
                Bit::One
            }
        }));
    } else {
        // ⅓|l| ≤ |g_s| ≤ ⅔|l|: g_s moves whole to the 1-subgraph, the rest
        // to the 0-subgraph.
        bits.extend(
            gs_mask
                .iter()
                .map(|in_gs| if *in_gs { Bit::One } else { Bit::Zero }),
        );
    }
    true
}

/// Assigns level-`list_level + 1` group-ids to the members of the two new
/// sublists (Algorithm 1 step 8) and records a split event (into `splits`)
/// for every node whose group was split.
///
/// Groups are found by sorting `(group-id, position)` pairs in a reusable
/// scratch buffer — no per-list hash map, and no quadratic membership
/// scans.
///
/// Note on Algorithm 1 step 8: the paper's wording has *every* member of
/// the sublist containing u and v adopt u's group-id. The members of the
/// merged communicating group already carry u's id here (their 0-portion
/// keeps the old id, which the level-α merge set to u), so applying the
/// wording literally would only *absorb unrelated groups* that happened to
/// land in that sublist — after which a later split could separate their
/// members, violating the working-set property Lemma 2 relies on. We
/// therefore keep unrelated groups' identities intact; see DESIGN.md.
#[allow(clippy::too_many_arguments)]
fn assign_new_group_ids(
    gids: &mut GidOverlay<'_>,
    delta: &mut StateDelta,
    graph: &SkipGraph,
    list_level: usize,
    members_alpha: &[NodeId],
    item_members: &[u32],
    bits: &[Bit],
    scratch: &mut Vec<(u64, u32)>,
    splits: &mut [Vec<usize>],
    group_accounting_rounds: &mut usize,
) {
    let next_level = list_level + 1;
    scratch.clear();
    scratch.extend(
        item_members
            .iter()
            .enumerate()
            .map(|(pos, &i)| (gids.group_id(i as usize, list_level), pos as u32)),
    );
    scratch.sort_unstable();
    let mut start = 0usize;
    while start < scratch.len() {
        let old_id = scratch[start].0;
        let mut end = start + 1;
        while end < scratch.len() && scratch[end].0 == old_id {
            end += 1;
        }
        let group = &scratch[start..end];
        let one_count = group
            .iter()
            .filter(|&&(_, pos)| bits[pos as usize] == Bit::One)
            .count();
        let split = one_count > 0 && one_count < group.len();
        if split {
            for &(_, pos) in group {
                splits[item_members[pos as usize] as usize].push(next_level);
            }
            // Broadcasting the new id over the split part reuses the
            // balanced skip list: O(log) rounds.
            *group_accounting_rounds += (group.len().max(2) as f64).log2().ceil() as usize;
        }
        // 0-portion: keeps the old id. 1-portion: keeps the old id if the
        // group moved whole; a split portion adopts the key of its left-most
        // member as the new id.
        let one_id = if split {
            group
                .iter()
                .filter(|&&(_, pos)| bits[pos as usize] == Bit::One)
                .map(|&(_, pos)| {
                    graph
                        .key_of(members_alpha[item_members[pos as usize] as usize])
                        .expect("member is live")
                })
                .min()
                .expect("split group has a 1-portion")
                .value()
        } else {
            old_id
        };
        for &(_, pos) in group {
            let member_pos = item_members[pos as usize] as usize;
            match bits[pos as usize] {
                Bit::Zero => gids.set_group_id(delta, member_pos, next_level, old_id),
                Bit::One => gids.set_group_id(delta, member_pos, next_level, one_id),
            }
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amf::ExactMedian;
    use dsg_skipgraph::{Key, MembershipVector};

    /// Builds a flat skip graph (everyone in one level-0 list) over the
    /// given keys, registers default DSG state and returns the pieces.
    fn flat_instance(keys: &[u64]) -> (SkipGraph, StateTable, Vec<NodeId>) {
        let graph = SkipGraph::from_members(
            keys.iter()
                .map(|&k| (Key::new(k), MembershipVector::empty())),
        )
        .unwrap();
        let mut states = StateTable::new();
        let mut ids = Vec::new();
        for &k in keys {
            let id = graph.node_by_key(Key::new(k)).unwrap();
            states.register(id, Key::new(k), 0);
            ids.push(id);
        }
        (graph, states, ids)
    }

    fn run(
        graph: &SkipGraph,
        states: &mut StateTable,
        u: NodeId,
        v: NodeId,
        t: u64,
        members: &[NodeId],
    ) -> TransformOutcome {
        let pairs = [TransformPair { u, v, t }];
        let input = TransformInput {
            pairs: &pairs,
            alpha: 0,
            a: 3,
        };
        let mut finder = ExactMedian;
        let (outcome, delta) = plan_transformation_with(
            graph,
            states,
            &mut finder,
            &input,
            members,
            &mut TransformScratch::default(),
        );
        states.apply_delta(&delta);
        outcome
    }

    #[test]
    fn communicating_pair_ends_in_a_two_node_list() {
        let keys = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let (graph, mut states, ids) = flat_instance(&keys);
        let u = ids[0];
        let v = ids[5];
        let outcome = run(&graph, &mut states, u, v, 1, &ids);

        // Every member received new bits.
        assert_eq!(outcome.suffixes.len(), keys.len());
        // u and v share a prefix up to the pair level and then split 0/1.
        let su = &outcome.suffixes[&u];
        let sv = &outcome.suffixes[&v];
        let common = su
            .iter()
            .zip(sv.iter())
            .take_while(|(a, b)| a == b)
            .count();
        assert_eq!(common, outcome.pair_levels[0], "shared prefix up to d'");
        assert_eq!(su.get(common), Some(&Bit::Zero), "u moves to the 0-subgraph");
        assert_eq!(sv.get(common), Some(&Bit::One));
        // The pair always moves to 0-subgraphs on the way down.
        assert!(su[..common].iter().all(|b| *b == Bit::Zero));
    }

    #[test]
    fn all_nodes_become_singletons() {
        let keys: Vec<u64> = (1..=20).collect();
        let (graph, mut states, ids) = flat_instance(&keys);
        let outcome = run(&graph, &mut states, ids[2], ids[17], 1, &ids);
        // Apply the suffixes to a scratch graph and verify every node ends
        // up singleton, i.e. all suffix paths are distinct.
        let mut suffix_strings: Vec<String> = outcome
            .suffixes
            .values()
            .map(|bits| bits.iter().map(|b| b.as_u8().to_string()).collect())
            .collect();
        suffix_strings.sort();
        // No suffix may be a prefix of another (that would leave a
        // non-singleton list at the top of one of the paths).
        for pair in suffix_strings.windows(2) {
            assert!(
                !pair[1].starts_with(pair[0].as_str()),
                "suffix {} is a prefix of {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn merged_group_id_becomes_u() {
        let keys = [10u64, 20, 30, 40];
        let (graph, mut states, ids) = flat_instance(&keys);
        let u = ids[1]; // key 20
        let v = ids[3]; // key 40
        // Put v in a pre-existing group with node 30 at level 0.
        states.set_group_id(ids[2], 0, 40);
        states.set_group_id(ids[3], 0, 40);
        let _ = run(&graph, &mut states, u, v, 2, &ids);
        // After the merge every member of u's or v's old group holds u's key
        // at level 0.
        assert_eq!(states.group_id(u, 0), 20);
        assert_eq!(states.group_id(v, 0), 20);
        assert_eq!(states.group_id(ids[2], 0), 20);
        // Node 10 was in neither group and keeps its own id.
        assert_eq!(states.group_id(ids[0], 0), 10);
    }

    #[test]
    fn forced_split_handles_identical_priorities() {
        // All nodes other than the pair share one group with identical
        // timestamps, so every priority in a sublist can tie; the engine
        // must still terminate with singleton lists.
        let keys: Vec<u64> = (1..=9).collect();
        let (graph, mut states, ids) = flat_instance(&keys);
        for &x in &ids {
            states.set_group_id(x, 0, 99);
            states.set_timestamp(x, 1, 0);
        }
        let outcome = run(&graph, &mut states, ids[0], ids[8], 3, &ids);
        assert_eq!(outcome.suffixes.len(), 9);
        assert!(outcome.processed_lists >= 4);
    }

    #[test]
    fn case2_keeps_small_noncommunicating_groups_whole() {
        // Ten nodes: the pair (keys 1, 2), and two non-communicating groups
        // g=50 (3 members) and g=60 (5 members). With an exact median the
        // median priority lands in one of the negative bands; whichever case
        // applies, no non-communicating group may be split.
        let keys = [1u64, 2, 11, 12, 13, 21, 22, 23, 24, 25];
        let (graph, mut states, ids) = flat_instance(&keys);
        for &x in &ids[2..5] {
            states.set_group_id(x, 0, 50);
        }
        for &x in &ids[5..10] {
            states.set_group_id(x, 0, 60);
        }
        let outcome = run(&graph, &mut states, ids[0], ids[1], 4, &ids);
        // Group 50 members must share their full suffix path until their
        // group's own internal splits; at the very least their first bit
        // must be identical (they may not be separated at level 1), and the
        // same holds for group 60.
        let first_bits_50: Vec<Bit> = ids[2..5]
            .iter()
            .map(|x| outcome.suffixes[x][0])
            .collect();
        assert!(first_bits_50.windows(2).all(|w| w[0] == w[1]));
        let first_bits_60: Vec<Bit> = ids[5..10]
            .iter()
            .map(|x| outcome.suffixes[x][0])
            .collect();
        assert!(first_bits_60.windows(2).all(|w| w[0] == w[1]));
        // The communicating pair still ends up alone together.
        assert_eq!(outcome.suffixes[&ids[0]].last(), Some(&Bit::Zero));
        assert_eq!(outcome.suffixes[&ids[1]].last(), Some(&Bit::One));
    }

    #[test]
    fn dominating_flags_are_recorded_on_positive_medians() {
        let keys = [1u64, 2, 3, 4, 5, 6];
        let (graph, mut states, ids) = flat_instance(&keys);
        let u = ids[0];
        let v = ids[1];
        // Give nodes 3..6 membership in u's group with assorted timestamps
        // so that the first median is positive.
        for (i, &x) in ids[2..].iter().enumerate() {
            states.set_group_id(x, 0, 1);
            states.set_timestamp(x, 0, (i + 1) as u64);
            states.set_timestamp(x, 1, (i + 1) as u64);
        }
        states.set_timestamp(u, 0, 9);
        states.set_timestamp(u, 1, 9);
        let _ = run(&graph, &mut states, u, v, 10, &ids);
        // At level 0 the median was positive, so every member has an
        // explicit dominating flag and the flags agree with the first bit
        // they took.
        for &x in &ids {
            let first_bit = states.dominating(x, 0);
            // u and v always take bit 0 at level 1.
            if x == u || x == v {
                assert!(first_bit);
            }
        }
    }

    #[test]
    fn split_events_are_reported_for_the_merged_group() {
        let keys = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let (graph, mut states, ids) = flat_instance(&keys);
        let u = ids[0];
        let v = ids[7];
        // Everyone is in u's group with distinct timestamps: the merged
        // group must be split repeatedly on the way to the singleton lists.
        for (i, &x) in ids.iter().enumerate() {
            states.set_group_id(x, 0, 1);
            states.set_timestamp(x, 0, (i + 1) as u64);
            states.set_timestamp(x, 1, (i + 1) as u64);
        }
        let outcome = run(&graph, &mut states, u, v, 20, &ids);
        assert!(
            !outcome.group_splits.is_empty(),
            "splitting the merged group must be recorded"
        );
        assert!(outcome.median_rounds > 0);
        assert!(outcome.restructuring_rounds > 0);
    }
}

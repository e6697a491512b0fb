//! Approximate Median Finding (AMF) — paper §V, Algorithm 2, Lemma 1.
//!
//! Given a linked list of nodes each holding a value, AMF finds an
//! *approximate median* in expected `O(log n)` rounds:
//!
//! 1. build a balanced probabilistic skip list over the list (left-most node
//!    steps up with probability 1, the rest with probability `1/a`, supports
//!    kept within `[a/2, 2a]`);
//! 2. values climb the skip list toward the left-most node; from level
//!    `⌈log_{a/2} h⌉ + 1` upward each node sorts what it received, keeps a
//!    uniform sample of `a·h` values and discards the rest, maintaining a
//!    *left rank* and *right rank* per kept value (how many discarded values
//!    are known to be larger / smaller);
//! 3. the left-most node picks the value whose rank estimate is closest to
//!    `n/2` and broadcasts it.
//!
//! Lemma 1: the returned value has true rank within `n/2 ± n/(2a)`.
//!
//! Two [`MedianFinder`] implementations are provided: [`AmfMedian`] (the
//! distributed algorithm above, with per-call round accounting) and
//! [`ExactMedian`] (a deterministic oracle used in unit tests and as the
//! ablation baseline of experiment E11).

use rand::rngs::StdRng;
use rand::SeedableRng;

use dsg_skipgraph::BalancedSkipList;

use crate::priority::Priority;

/// The result of one median computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MedianOutcome {
    /// The (approximate) median value.
    pub median: Priority,
    /// Number of synchronous rounds charged for the computation, including
    /// the skip-list construction and the final broadcast.
    pub rounds: usize,
    /// Height of the balanced skip list that was built (0 for the exact
    /// oracle).
    pub skip_list_height: usize,
}

/// Strategy interface for the per-level median computation of the
/// transformation (step 4 of Algorithm 1).
pub trait MedianFinder {
    /// Computes an (approximate) median of `values` (the priorities of the
    /// members of one linked list, in list order) using balance parameter
    /// `a`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `values` is empty; the transformation
    /// never asks for the median of an empty list.
    fn find_median(&mut self, values: &[Priority], a: usize) -> MedianOutcome;
}

/// Deterministic exact-median oracle.
///
/// Charged an idealised `⌈log₂ n⌉` rounds (the depth of any aggregation
/// tree); useful for reproducible unit tests and as the ablation baseline
/// that isolates the cost/accuracy impact of AMF.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactMedian;

impl MedianFinder for ExactMedian {
    fn find_median(&mut self, values: &[Priority], _a: usize) -> MedianOutcome {
        assert!(!values.is_empty(), "median of an empty list is undefined");
        let mut sorted: Vec<Priority> = values.to_vec();
        sorted.sort();
        // The paper's splits use "P(x) ≥ M goes to the 0-subgraph", so the
        // upper median keeps the two subgraphs balanced for even sizes.
        let median = sorted[sorted.len() / 2];
        let rounds = (values.len().max(2) as f64).log2().ceil() as usize;
        MedianOutcome {
            median,
            rounds,
            skip_list_height: 0,
        }
    }
}

/// The paper's randomised distributed AMF algorithm.
///
/// The per-position climb buffers and sampling scratch are owned by the
/// engine and recycled across calls: a transformation runs one median per
/// list of the rebuilt subtree, and rebuilding these vectors from scratch
/// for every list made the engine allocation-bound. The recycling changes
/// no arithmetic and draws no extra randomness, so results are identical
/// to the allocating version.
#[derive(Debug)]
pub struct AmfMedian {
    rng: StdRng,
    skip_list: Option<BalancedSkipList>,
    tiny: Vec<Priority>,
    buffers: Vec<Vec<RankedValue>>,
    gathered: Vec<Vec<RankedValue>>,
    keep_indices: Vec<usize>,
    kept: Vec<RankedValue>,
}

impl AmfMedian {
    /// Creates an AMF engine with the given seed (skip-list construction is
    /// randomised; a fixed seed makes runs reproducible).
    pub fn new(seed: u64) -> Self {
        AmfMedian {
            rng: StdRng::seed_from_u64(seed),
            skip_list: None,
            tiny: Vec::new(),
            buffers: Vec::new(),
            gathered: Vec::new(),
            keep_indices: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Resets the random stream to `seed` without dropping the recycled
    /// buffers. The epoch engine reseeds per transformation cluster with a
    /// seed derived from the cluster's first request time, so the medians a
    /// cluster receives are a pure function of the cluster — independent of
    /// how many clusters share the epoch and of the order they are planned
    /// in.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }
}

/// A value travelling up the skip list together with its discard ranks.
#[derive(Debug, Clone, Copy)]
struct RankedValue {
    value: Priority,
    /// Number of discarded values known to be ≥ this value.
    left_rank: usize,
    /// Number of discarded values known to be ≤ this value.
    right_rank: usize,
}

impl MedianFinder for AmfMedian {
    fn find_median(&mut self, values: &[Priority], a: usize) -> MedianOutcome {
        assert!(!values.is_empty(), "median of an empty list is undefined");
        let n = values.len();
        if n <= 2 * a {
            // Tiny lists: the left-most node can gather everything directly
            // in O(a) rounds; return the exact upper median. (`tiny` is a
            // recycled buffer — a transformation computes medians for
            // thousands of small lists per request.)
            self.tiny.clear();
            self.tiny.extend_from_slice(values);
            self.tiny.sort();
            return MedianOutcome {
                median: self.tiny[self.tiny.len() / 2],
                rounds: n + 1,
                skip_list_height: 0,
            };
        }
        let skip_list = match self.skip_list.as_mut() {
            Some(list) => {
                list.rebuild(n, a, &mut self.rng);
                &*list
            }
            None => self
                .skip_list
                .insert(BalancedSkipList::build(n, a, &mut self.rng)),
        };
        let h = skip_list.height();
        let sample_size = (a * h.max(1)).max(2);
        // Levels below this threshold only gather; sampling starts here.
        let sampling_start = ((h.max(2) as f64).log((a as f64 / 2.0).max(1.5)).ceil() as usize) + 1;

        // Per-position buffers of ranked values at the current level
        // (recycled allocations; only the first `n` slots are used).
        if self.buffers.len() < n {
            self.buffers.resize_with(n, Vec::new);
        }
        for (slot, &value) in self.buffers.iter_mut().zip(values) {
            slot.clear();
            slot.push(RankedValue {
                value,
                left_rank: 0,
                right_rank: 0,
            });
        }

        let mut rounds = skip_list.construction_rounds();

        for level in 1..=h {
            let lower = skip_list.level_members(level - 1);
            let upper = skip_list.level_members(level);
            // Every lower-level member forwards its buffer to the nearest
            // upper-level member to its left (position 0 is always in the
            // upper level). The number of rounds is bounded by the largest
            // support gap.
            if self.gathered.len() < upper.len() {
                self.gathered.resize_with(upper.len(), Vec::new);
            }
            for bucket in self.gathered.iter_mut().take(upper.len()) {
                bucket.clear();
            }
            let mut max_gap = 0usize;
            // The owner of a lower member is the last upper member at or
            // before it; both sequences are ascending, so a two-pointer
            // sweep replaces the per-member binary searches. `owner_pos_idx`
            // tracks the owner's own index in `lower` (for the gap bound).
            let mut owner_idx = 0usize;
            let mut owner_pos_idx = 0usize;
            for (idx, &pos) in lower.iter().enumerate() {
                while owner_idx + 1 < upper.len() && upper[owner_idx + 1] <= pos {
                    owner_idx += 1;
                    while lower[owner_pos_idx] < upper[owner_idx] {
                        owner_pos_idx += 1;
                    }
                }
                max_gap = max_gap.max(idx - owner_pos_idx);
                let source = &mut self.buffers[pos];
                self.gathered[owner_idx].append(source);
            }
            rounds += max_gap.max(1);

            // Sampling from level `sampling_start` upward (and always at the
            // root so that the final list stays O(a·h)). Every position's
            // buffer was drained into a bucket above, so writing the kept
            // values back to the upper members' positions leaves the rest
            // empty, exactly like rebuilding the buffer table from scratch.
            let do_sample = level >= sampling_start || level == h;
            for (owner_idx, &target) in upper.iter().enumerate() {
                let bucket = &mut self.gathered[owner_idx];
                bucket.sort_by_key(|x| x.value);
                if do_sample && bucket.len() > sample_size {
                    rounds += 1; // local sort + sample round
                    sample_with_ranks(bucket, sample_size, &mut self.keep_indices, &mut self.kept);
                    self.buffers[target].clear();
                    self.buffers[target].extend_from_slice(&self.kept);
                } else {
                    std::mem::swap(&mut self.buffers[target], bucket);
                }
            }
        }

        // The left-most node now holds the surviving values; pick the one
        // whose estimated global rank is closest to n/2 (counting from the
        // top, i.e. rank 0 = largest).
        let final_values = &self.buffers[0];
        let median = pick_by_rank(final_values, n);
        // Broadcast the median back to every node of the list.
        rounds += skip_list.broadcast_rounds();

        MedianOutcome {
            median,
            rounds,
            skip_list_height: h,
        }
    }
}

/// Uniformly samples `sample_size` values from a sorted bucket, folding the
/// discarded values' counts and ranks into the nearest kept value (larger
/// discarded values increase the kept value's left rank, smaller ones its
/// right rank). `keep_indices` and `kept` are caller-owned scratch buffers
/// (overwritten); `kept` holds the result.
fn sample_with_ranks(
    sorted: &[RankedValue],
    sample_size: usize,
    keep_indices: &mut Vec<usize>,
    kept: &mut Vec<RankedValue>,
) {
    let len = sorted.len();
    debug_assert!(sample_size >= 2);
    // Indices of kept values: evenly spaced, always keeping both extremes.
    keep_indices.clear();
    keep_indices.extend((0..sample_size).map(|i| i * (len - 1) / (sample_size - 1)));
    keep_indices.dedup();
    kept.clear();
    kept.extend(keep_indices.iter().map(|&i| sorted[i]));
    // Fold discarded values into the nearest kept value above/below them.
    for (idx, value) in sorted.iter().enumerate() {
        if keep_indices.binary_search(&idx).is_ok() {
            continue;
        }
        // The kept value just above `idx` (larger or equal, sorted
        // ascending) absorbs it into its right rank; the one below into its
        // left rank. Splitting the contribution both ways would double
        // count, so each discarded value is credited once to the kept value
        // immediately above it.
        let above = keep_indices.partition_point(|&k| k < idx);
        if above < keep_indices.len() {
            kept[above].right_rank += 1 + value.right_rank + value.left_rank;
        } else {
            let below = keep_indices.len() - 1;
            kept[below].left_rank += 1 + value.left_rank + value.right_rank;
        }
    }
}

/// Picks from the surviving values the one whose estimated global rank is
/// closest to `n / 2`.
fn pick_by_rank(survivors: &[RankedValue], n: usize) -> Priority {
    debug_assert!(!survivors.is_empty());
    // survivors are sorted ascending (each bucket was sorted before the
    // final merge); recompute to be safe.
    let mut sorted = survivors.to_vec();
    sorted.sort_by_key(|x| x.value);
    let target = n / 2;
    let mut best = sorted[sorted.len() / 2];
    let mut best_err = usize::MAX;
    // Estimated number of values ≤ v: survivors below it plus their folded
    // right ranks plus its own right rank.
    let mut cumulative_below = 0usize;
    for rv in &sorted {
        let rank_from_bottom = cumulative_below + rv.right_rank + 1;
        let err = rank_from_bottom.abs_diff(target.max(1));
        if err < best_err {
            best_err = err;
            best = *rv;
        }
        cumulative_below += 1 + rv.right_rank + rv.left_rank;
    }
    best.value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite(values: &[i64]) -> Vec<Priority> {
        values.iter().map(|&v| Priority::Finite(v as i128)).collect()
    }

    /// True rank error of `median` within `values`, measured as distance of
    /// its position from n/2 in the sorted order.
    fn rank_error(values: &[Priority], median: Priority) -> usize {
        let below = values.iter().filter(|v| **v < median).count();
        let equal = values.iter().filter(|v| **v == median).count();
        let n = values.len();
        // The best achievable position among equal values.
        let lo = below;
        let hi = below + equal.saturating_sub(1);
        let target = n / 2;
        if target < lo {
            lo - target
        } else { target.saturating_sub(hi) }
    }

    #[test]
    fn exact_median_is_the_upper_median() {
        let mut finder = ExactMedian;
        let out = finder.find_median(&finite(&[5, 1, 9, 3]), 2);
        assert_eq!(out.median, Priority::Finite(5));
        let out = finder.find_median(&finite(&[7, 2, 4]), 2);
        assert_eq!(out.median, Priority::Finite(4));
        assert!(out.rounds >= 1);
    }

    #[test]
    fn exact_median_handles_infinities() {
        let mut finder = ExactMedian;
        let values = vec![Priority::Infinity, Priority::Infinity, Priority::Finite(-3)];
        let out = finder.find_median(&values, 2);
        assert_eq!(out.median, Priority::Infinity);
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn empty_input_panics() {
        let mut finder = ExactMedian;
        let _ = finder.find_median(&[], 2);
    }

    #[test]
    fn amf_on_tiny_lists_is_exact() {
        let mut finder = AmfMedian::new(1);
        let out = finder.find_median(&finite(&[4, 8, 1]), 3);
        assert_eq!(out.median, Priority::Finite(4));
    }

    #[test]
    fn amf_rank_error_respects_lemma_1() {
        // Lemma 1: the output has rank within n/2 ± n/(2a).
        for a in [2usize, 3, 4, 8] {
            for n in [50usize, 200, 801] {
                let mut finder = AmfMedian::new(42 + (a * n) as u64);
                let values: Vec<Priority> = (0..n as i64)
                    .map(|v| Priority::Finite(((v * 7919) % 104729) as i128 - 50_000))
                    .collect();
                let out = finder.find_median(&values, a);
                let err = rank_error(&values, out.median);
                let bound = n / (2 * a) + 1;
                assert!(
                    err <= bound,
                    "rank error {err} exceeds n/2a = {bound} for n = {n}, a = {a}"
                );
            }
        }
    }

    #[test]
    fn amf_rounds_are_logarithmic() {
        let mut finder = AmfMedian::new(3);
        for n in [128usize, 1024, 4096] {
            let a = 4;
            let values: Vec<Priority> =
                (0..n as i64).map(|v| Priority::Finite(v as i128)).collect();
            let out = finder.find_median(&values, a);
            let bound = 40.0 * (a as f64) * (n as f64).log2();
            assert!(
                (out.rounds as f64) <= bound,
                "{} rounds for n = {n} exceeds {bound}",
                out.rounds
            );
            assert!(out.skip_list_height >= 1);
        }
    }

    #[test]
    fn amf_handles_duplicate_values() {
        let mut finder = AmfMedian::new(9);
        let values: Vec<Priority> = (0..500).map(|v| Priority::Finite((v % 3) as i128)).collect();
        let out = finder.find_median(&values, 3);
        let err = rank_error(&values, out.median);
        assert!(err <= 500 / 6 + 1, "err = {err}");
    }

    #[test]
    fn amf_with_infinities_keeps_them_at_the_top() {
        // Half the list is the communicating group (∞ priorities cannot
        // occur more than twice in practice, but the finder must not
        // misorder them).
        let mut values = vec![Priority::Infinity, Priority::Infinity];
        values.extend((0..100).map(|v| Priority::Finite(-v as i128)));
        let mut finder = AmfMedian::new(5);
        let out = finder.find_median(&values, 2);
        assert!(out.median < Priority::Infinity);
    }
}

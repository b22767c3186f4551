//! Pre-render explanation state that merges across partitions.
//!
//! The naïve scale-out of Appendix D unions *rendered* explanations, which
//! over- or under-reports combinations straddling partitions: each partition
//! prunes by its own local support and risk ratio before any cross-partition
//! reconciliation can happen. [`ExplainState`] avoids this by capturing the
//! explainer's state *before* any thresholding or rendering — the encoded
//! itemset counts of each class (stored as weighted prefix trees) plus the
//! outlier/inlier totals. Partition states merge on items
//! ([`Mergeable::merge`]), and risk ratios are computed once from the merged
//! counts ([`crate::batch::BatchExplainer::explain_state`]), so the merged
//! result is exactly the one-shot result.
//!
//! The batch engines no longer build it: they run the partitioned
//! [`crate::batch::BatchExplainer::explain_labeled`], whose partitions
//! exchange count vectors over the outlier-side candidates instead of whole
//! prefix trees. `ExplainState` is the public mergeable state for external
//! callers that partition a batch themselves, such as a caller holding
//! per-partition row sets that never share one `ItemBatch`.

use mb_fpgrowth::cps::StreamingPrefixTree;
use mb_fpgrowth::Item;
use mb_sketch::Mergeable;

/// Thresholding-free explanation state: per-class itemset counts + totals,
/// a public [`Mergeable`] state for external partitioned callers.
///
/// Feed every classified point's encoded attribute items through
/// [`observe`], merge states across partitions, then hand the merged state
/// to [`crate::batch::BatchExplainer::explain_state`].
///
/// [`observe`]: ExplainState::observe
#[derive(Debug, Clone, Default)]
pub struct ExplainState {
    outlier_tree: StreamingPrefixTree,
    inlier_tree: StreamingPrefixTree,
    total_outliers: f64,
    total_inliers: f64,
}

impl ExplainState {
    /// Create an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one classified point's encoded attribute items.
    pub fn observe(&mut self, items: &[Item], is_outlier: bool) {
        if is_outlier {
            self.total_outliers += 1.0;
            if !items.is_empty() {
                self.outlier_tree.insert(items, 1.0);
            }
        } else {
            self.total_inliers += 1.0;
            if !items.is_empty() {
                self.inlier_tree.insert(items, 1.0);
            }
        }
    }

    /// Total outlier points observed (including attribute-less ones).
    pub fn total_outliers(&self) -> f64 {
        self.total_outliers
    }

    /// Total inlier points observed (including attribute-less ones).
    pub fn total_inliers(&self) -> f64 {
        self.total_inliers
    }

    /// Count of outlier points containing `item`.
    pub fn outlier_item_count(&self, item: Item) -> f64 {
        self.outlier_tree.item_count(item)
    }

    /// Count of inlier points containing `item`.
    pub fn inlier_item_count(&self, item: Item) -> f64 {
        self.inlier_tree.item_count(item)
    }

    /// The outlier class's deduplicated transactions with their weights.
    pub fn outlier_transactions(&self) -> Vec<(Vec<Item>, f64)> {
        self.outlier_tree.to_weighted_transactions()
    }

    /// The inlier class's deduplicated transactions with their weights.
    pub fn inlier_transactions(&self) -> Vec<(Vec<Item>, f64)> {
        self.inlier_tree.to_weighted_transactions()
    }
}

impl Mergeable for ExplainState {
    /// Merge a partition's state into this one: the per-class prefix trees
    /// merge losslessly (union of prefix paths with count addition) and the
    /// class totals add, so explaining the merged state is exactly
    /// explaining the concatenated partitions.
    fn merge(&mut self, other: Self) {
        self.outlier_tree.merge(other.outlier_tree);
        self.inlier_tree.merge(other.inlier_tree);
        self.total_outliers += other.total_outliers;
        self.total_inliers += other.total_inliers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_tracks_totals_and_item_counts() {
        let mut state = ExplainState::new();
        state.observe(&[1, 2], true);
        state.observe(&[1], true);
        state.observe(&[1, 2], false);
        state.observe(&[], false);
        assert_eq!(state.total_outliers(), 2.0);
        assert_eq!(state.total_inliers(), 2.0);
        assert_eq!(state.outlier_item_count(1), 2.0);
        assert_eq!(state.outlier_item_count(2), 1.0);
        assert_eq!(state.inlier_item_count(1), 1.0);
        let outliers = state.outlier_transactions();
        let total: f64 = outliers.iter().map(|(_, w)| w).sum();
        assert!((total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merged_state_equals_single_stream_state() {
        let mut whole = ExplainState::new();
        let mut left = ExplainState::new();
        let mut right = ExplainState::new();
        for i in 0..1_000u32 {
            let items = [i % 5, 10 + (i % 3)];
            let is_outlier = i % 100 == 0;
            whole.observe(&items, is_outlier);
            if i % 2 == 0 {
                left.observe(&items, is_outlier);
            } else {
                right.observe(&items, is_outlier);
            }
        }
        left.merge(right);
        assert_eq!(left.total_outliers(), whole.total_outliers());
        assert_eq!(left.total_inliers(), whole.total_inliers());
        for item in [0, 1, 2, 3, 4, 10, 11, 12] {
            assert!(
                (left.outlier_item_count(item) - whole.outlier_item_count(item)).abs() < 1e-9
            );
            assert!(
                (left.inlier_item_count(item) - whole.inlier_item_count(item)).abs() < 1e-9
            );
        }
    }
}

//! CART decision-tree classifier with Gini impurity.
//!
//! Every fit ranks each feature once (a forest once for all its trees) and
//! grows the tree over per-row multiplicities: a bootstrap is a count per
//! row, not a copied matrix, and each node is a range of one row-id array
//! partitioned in place. Split finding supports two strategies (see
//! [`SplitStrategy`]): the classic exact scan that sorts each candidate
//! feature's node rows, and a histogram kernel that scans cumulative
//! class-weight histograms of bin codes per node — O(n + bins) instead of
//! O(n·log n) per node per feature, the same idea LightGBM and JoinBoost
//! build on.
//! A fitted tree is one array of 16-byte node records plus a leaf table;
//! `predict` walks a block of rows through it with a branch-free step.

use crate::dataset::{validate_fit_inputs, Matrix};
use crate::error::{MlError, MlResult};
use crate::Classifier;
use mlcs_pickle::{Pickle, PickleError, Reader, Writer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How many features to consider per split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFeatures {
    /// All features (plain CART).
    All,
    /// `ceil(sqrt(n_features))` — the random-forest default.
    Sqrt,
    /// A fixed count (clamped to the feature count).
    Count(usize),
}

impl MaxFeatures {
    fn resolve(self, n_features: usize) -> usize {
        match self {
            MaxFeatures::All => n_features,
            MaxFeatures::Sqrt => (n_features as f64).sqrt().ceil() as usize,
            MaxFeatures::Count(n) => n.clamp(1, n_features),
        }
        .max(1)
    }
}

/// How candidate split thresholds are enumerated during `fit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Sort the node's rows per candidate feature and scan every boundary
    /// between distinct values: O(n·log n) per node per feature.
    Exact,
    /// Bin each feature from ranks shared by the whole forest, then scan
    /// cumulative class-weight histograms per node: O(n + bins) per node
    /// per feature. Whenever a tree's feature has at most `bins` distinct
    /// values the bin edges are exactly the midpoints the exact scan would
    /// propose, so the strategies pick identical partitions; with more
    /// distinct values the thresholds are quantile-spaced approximations.
    Histogram {
        /// Maximum bin count per feature (values below 2 behave as 2).
        bins: u16,
    },
}

impl SplitStrategy {
    /// Default histogram bin count (255, as in LightGBM: codes fit a byte).
    pub const DEFAULT_BINS: u16 = 255;
}

impl Default for SplitStrategy {
    fn default() -> Self {
        SplitStrategy::Histogram { bins: SplitStrategy::DEFAULT_BINS }
    }
}

/// Rows walked through one tree before the walk moves to the next tree.
const BLOCK: usize = 256;

/// One node: a step moves a row to `child + !(x[feature] <= threshold)`,
/// so `x <= threshold` goes to the left child `child` and anything else,
/// NaN included, to `child + 1`. A leaf's threshold is a NaN carrying its
/// leaf-table row in the low 32 bits, and its `child` is its own index − 1
/// (wrapping), so a leaf steps onto itself.
#[derive(Debug, Clone, Copy)]
struct Node {
    threshold: f64,
    feature: u32,
    child: u32,
}

/// The quiet NaN whose payload carries a leaf's table row.
const LEAF_NAN: u64 = 0x7FF8_0000_0000_0000;

impl Node {
    /// The leaf at node `index` whose distribution is leaf-table row `row`.
    fn leaf(index: usize, row: usize) -> Node {
        let threshold = f64::from_bits(LEAF_NAN | row as u64);
        Node { threshold, feature: 0, child: (index as u32).wrapping_sub(1) }
    }

    /// The leaf-table row of a leaf; `None` for a split.
    fn leaf_row(self) -> Option<usize> {
        self.threshold.is_nan().then_some(self.threshold.to_bits() as u32 as usize)
    }
}

/// Nodes are equal when their bits are, so a leaf equals itself.
impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        (self.threshold.to_bits(), self.feature, self.child)
            == (other.threshold.to_bits(), other.feature, other.child)
    }
}

/// A CART decision-tree classifier.
///
/// Splits minimize weighted Gini impurity; thresholds are midpoints between
/// consecutive distinct feature values (bin edges under the histogram
/// strategy). Deterministic given a seed (the seed only matters when
/// `max_features` subsamples features).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeClassifier {
    /// Maximum tree depth (`None` = unbounded).
    pub max_depth: Option<usize>,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split.
    pub max_features: MaxFeatures,
    /// Split-finding strategy.
    pub split_strategy: SplitStrategy,
    seed: u64,
    nodes: Vec<Node>,
    /// `leaf[row * n_classes..][..n_classes]`: a leaf's class distribution.
    leaf: Vec<f64>,
    /// Steps from the root to the deepest leaf.
    depth: usize,
    n_classes: usize,
    n_features: usize,
}

impl Default for DecisionTreeClassifier {
    fn default() -> Self {
        Self::new()
    }
}

impl DecisionTreeClassifier {
    /// A tree with scikit-learn-like defaults (histogram split finding).
    pub fn new() -> Self {
        DecisionTreeClassifier {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            split_strategy: SplitStrategy::default(),
            seed: 0,
            nodes: Vec::new(),
            leaf: Vec::new(),
            depth: 0,
            n_classes: 0,
            n_features: 0,
        }
    }

    /// Sets the maximum depth.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Sets the per-split feature subsample.
    pub fn with_max_features(mut self, mf: MaxFeatures) -> Self {
        self.max_features = mf;
        self
    }

    /// Sets the RNG seed (used for feature subsampling).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the split-finding strategy.
    pub fn with_split_strategy(mut self, s: SplitStrategy) -> Self {
        self.split_strategy = s;
        self
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (0 for a single leaf; 0 before fitting).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Split-usage share per feature: the fraction of the tree's splits
    /// that test it, normalized to sum to 1.
    ///
    /// This is a cheap proxy for scikit-learn's mean decrease in impurity,
    /// not that measure: impurity decreases are not stored per node and
    /// cannot be recomputed without the training data.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for n in self.nodes.iter().filter(|n| n.leaf_row().is_none()) {
            imp[n.feature as usize] += 1.0;
        }
        normalized(imp)
    }

    /// Adds the leaf distribution of each row of a block (`x` starts with
    /// its feature rows) to its row of `out`. Every row takes one step per
    /// pass, so the rows' loads overlap; children follow their parent and
    /// leaves step onto themselves, so `depth` passes put every row on its
    /// leaf with no exit test and no cycle guard.
    fn add_leaves(&self, x: &[f64], out: &mut [f64]) {
        let (nf, nc) = (self.n_features, self.n_classes);
        let mut at = [0u32; BLOCK];
        let at = &mut at[..out.len() / nc];
        for _ in 0..self.depth {
            for (i, row) in at.iter_mut().zip(x.chunks_exact(nf)) {
                let n = self.nodes[*i as usize];
                let left = row[n.feature as usize] <= n.threshold;
                *i = n.child.wrapping_add(u32::from(!left));
            }
        }
        for (&i, acc) in at.iter().zip(out.chunks_exact_mut(nc)) {
            let row = self.nodes[i as usize].threshold.to_bits() as u32 as usize * nc;
            for (a, &p) in acc.iter_mut().zip(&self.leaf[row..row + nc]) {
                *a += p;
            }
        }
    }
}

/// Adds the leaf distributions of `trees` to `out`, a block of rows
/// through every tree before the next block, so the block stays in cache.
/// Each cell still sums its trees in tree order, as a row-at-a-time sweep
/// would, so the bits depend neither on the block size nor on the morsels.
pub(crate) fn add_tree_leaves(
    trees: &[DecisionTreeClassifier],
    (x, n_features): (&[f64], usize),
    (out, n_classes): (&mut [f64], usize),
) {
    for (b, out) in out.chunks_mut(BLOCK * n_classes).enumerate() {
        let x = &x[b * BLOCK * n_features..];
        for tree in trees {
            tree.add_leaves(x, out);
        }
    }
}

/// `v` scaled to sum to 1 (unchanged when it sums to 0).
pub(crate) fn normalized(mut v: Vec<f64>) -> Vec<f64> {
    let total: f64 = v.iter().sum();
    if total > 0.0 {
        v.iter_mut().for_each(|x| *x /= total);
    }
    v
}

/// Gini impurity of a class-count vector with the given total.
fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut sum_sq = 0.0;
    for &c in counts {
        let p = c / total;
        sum_sq += p * p;
    }
    1.0 - sum_sq
}

/// The split threshold between two neighbouring values `lo < hi`: their
/// midpoint, or `lo` where the midpoint does not separate them — it rounds
/// onto `hi` for two adjacent floats, and is NaN or infinite beside an
/// infinite value. So `x <= threshold` always splits `lo` from `hi`.
fn midpoint(lo: f64, hi: f64) -> f64 {
    let mid = lo + (hi - lo) / 2.0;
    if lo <= mid && mid < hi {
        mid
    } else {
        lo
    }
}

/// Every feature of a training matrix ranked once. A forest ranks its
/// input once and every tree reads these ranks through its bootstrap
/// multiplicities, so no tree sorts or copies feature values.
pub(crate) struct FeatureRanks {
    strategy: SplitStrategy,
    features: Vec<RankedFeature>,
}

struct RankedFeature {
    /// Ascending distinct values, deduplicated with `==`: `-0.0` and `0.0`
    /// share one rank (the first in `total_cmp` order is kept; either
    /// gives the same midpoint bits).
    distinct: Vec<f64>,
    /// `ranks[row]` indexes the row's value in `distinct`.
    ranks: Vec<u32>,
    /// The rank is the histogram bin of every subset of the rows: the
    /// feature has at most `bins` distinct values, so per-tree bins would
    /// hold one value each and skipping a tree's empty bins changes nothing.
    direct: bool,
}

impl FeatureRanks {
    /// Ranks every column of `x` for fitting trees with `strategy`.
    pub(crate) fn new(x: &Matrix, strategy: SplitStrategy) -> FeatureRanks {
        let max_bins = match strategy {
            SplitStrategy::Histogram { bins } => bins.max(2) as usize,
            SplitStrategy::Exact => 0,
        };
        let mut order: Vec<(f64, u32)> = Vec::with_capacity(x.rows());
        let features = (0..x.cols())
            .map(|f| {
                order.clear();
                order.extend((0..x.rows()).map(|r| (x.get(r, f), r as u32)));
                // Inputs are NaN-free after validation, so total_cmp sorts
                // like partial_cmp without the panic path.
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                let mut distinct: Vec<f64> = Vec::new();
                let mut ranks = vec![0u32; x.rows()];
                for &(v, r) in &order {
                    if distinct.last() != Some(&v) {
                        distinct.push(v);
                    }
                    ranks[r as usize] = (distinct.len() - 1) as u32;
                }
                let direct = distinct.len() <= max_bins;
                RankedFeature { distinct, ranks, direct }
            })
            .collect();
        FeatureRanks { strategy, features }
    }
}

/// How one feature's ranks map to histogram bins in one tree.
struct Bins {
    /// Bin count.
    n: usize,
    /// `table[rank]` is the bin; `None` when the rank is the bin
    /// ([`RankedFeature::direct`]).
    table: Option<Vec<u32>>,
}

impl Bins {
    /// The bins a tree whose rows are `rows` uses for `feature`.
    ///
    /// A tree's distinct values are the ranks its rows contain. When they
    /// fit in `max_bins` the edges are the midpoints between consecutive
    /// ones — the exact scan's full candidate set. Otherwise edges sit at
    /// quantile positions of them, so dense value regions get more
    /// resolution. Either way bin `b` holds values `<= edges[b]`.
    fn for_tree(feature: &RankedFeature, rows: &[u32], max_bins: usize) -> Bins {
        if feature.direct {
            return Bins { n: feature.distinct.len(), table: None };
        }
        let mut present = vec![false; feature.distinct.len()];
        for &r in rows {
            present[feature.ranks[r as usize] as usize] = true;
        }
        let values: Vec<f64> =
            feature.distinct.iter().zip(&present).filter(|p| *p.1).map(|p| *p.0).collect();
        let edges: Vec<f64> = if values.len() <= max_bins {
            values.windows(2).map(|p| midpoint(p[0], p[1])).collect()
        } else {
            // k*len/max_bins is strictly increasing in k here because
            // len > max_bins, so each edge strictly exceeds the last.
            (1..max_bins)
                .map(|k| {
                    let i = k * values.len() / max_bins;
                    midpoint(values[i - 1], values[i])
                })
                .collect()
        };
        let table =
            feature.distinct.iter().map(|v| edges.partition_point(|e| e < v) as u32).collect();
        Bins { n: edges.len() + 1, table: Some(table) }
    }
}

/// The best split found for a node, if any.
struct BestSplit {
    feature: usize,
    /// Last populated bin (histogram) or rank (exact) of the left child,
    /// and the first of the right child.
    lo: u32,
    hi: u32,
    score: f64, // weighted child impurity (lower is better)
    /// Class counts of the left child.
    left: Vec<f64>,
}

/// One tree's growth: what it reads — the shared ranks, this tree's bins
/// and multiplicities, the labels — and its reusable buffers.
struct Grower<'a> {
    data: &'a FeatureRanks,
    /// Per-feature bins under the histogram strategy; empty under exact.
    bins: Vec<Bins>,
    y: &'a [u32],
    w: &'a [u32],
    min_leaf: usize,
    /// The boundary scan moves weight from `right` to `left` in ascending
    /// value order; `n_left` is the weight moved.
    left: Vec<f64>,
    right: Vec<f64>,
    n_left: f64,
    /// `hist[bin * n_classes + class]` — class weights per bin.
    hist: Vec<f64>,
    /// Exact strategy: a node's `rank << 32 | row` keys, sorted.
    sorted: Vec<u64>,
    /// Boundaries scored (the `ml.train.splits_evaluated` counter).
    evaluated: u64,
}

impl Grower<'_> {
    /// Moves `weight` of `class` left in a scan of `feature` over a node
    /// with (`total` weight, impurity `parent_gini`). Entering a new `key`
    /// (bin or rank) first scores the boundary below it, keeping it in
    /// `best` if it beats it.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        (total, parent_gini): (f64, f64),
        feature: usize,
        prev: &mut Option<u32>,
        key: u32,
        class: usize,
        weight: f64,
        best: &mut Option<BestSplit>,
    ) {
        if let Some(lo) = prev.filter(|&p| p != key) {
            let (n_left, n_right) = (self.n_left, total - self.n_left);
            if (n_left as usize) >= self.min_leaf && (n_right as usize) >= self.min_leaf {
                self.evaluated += 1;
                let score = (n_left / total) * gini(&self.left, n_left)
                    + (n_right / total) * gini(&self.right, n_right);
                // Zero-gain splits (score == parent impurity) are allowed, as
                // in scikit-learn: XOR-like data needs them to make progress.
                // Each split strictly shrinks both children, so recursion
                // still terminates.
                if score <= parent_gini + 1e-12
                    && score < best.as_ref().map_or(f64::INFINITY, |b| b.score)
                {
                    let left = self.left.clone();
                    *best = Some(BestSplit { feature, lo, hi: key, score, left });
                }
            }
        }
        *prev = Some(key);
        self.left[class] += weight;
        self.right[class] -= weight;
        self.n_left += weight;
    }

    /// Finds the impurity-minimizing split of `rows` over the candidate
    /// features. Under the histogram strategy one pass per feature builds
    /// the node's class-weight histogram from bin codes, labels and
    /// multiplicities, and the boundary scan is O(bins · classes); under
    /// the exact strategy the node's rows are sorted by rank instead.
    fn find_split(
        &mut self,
        rows: &[u32],
        feats: &[usize],
        counts: &[f64],
        node: (f64, f64),
    ) -> Option<BestSplit> {
        let (data, y, w, nc) = (self.data, self.y, self.w, counts.len());
        let mut best = None;
        for &f in feats {
            let ranks = &data.features[f].ranks;
            self.left.iter_mut().for_each(|c| *c = 0.0);
            self.right.copy_from_slice(counts);
            self.n_left = 0.0;
            let mut prev = None;
            let Some(bins) = self.bins.get(f) else {
                self.sorted.clear();
                self.sorted
                    .extend(rows.iter().map(|&r| (ranks[r as usize] as u64) << 32 | r as u64));
                self.sorted.sort_unstable();
                for i in 0..self.sorted.len() {
                    let (rank, r) = ((self.sorted[i] >> 32) as u32, self.sorted[i] as u32 as usize);
                    self.step(node, f, &mut prev, rank, y[r] as usize, w[r] as f64, &mut best);
                }
                continue;
            };
            let n_bins = bins.n;
            if n_bins < 2 {
                continue; // constant over this tree's rows
            }
            self.hist.clear();
            self.hist.resize(n_bins * nc, 0.0);
            match &bins.table {
                None => {
                    for &r in rows {
                        let r = r as usize;
                        self.hist[ranks[r] as usize * nc + y[r] as usize] += w[r] as f64;
                    }
                }
                Some(table) => {
                    for &r in rows {
                        let r = r as usize;
                        let bin = table[ranks[r] as usize] as usize;
                        self.hist[bin * nc + y[r] as usize] += w[r] as f64;
                    }
                }
            }
            // Populated bins in ascending order: the cumulative-histogram
            // analogue of the exact scan's row-by-row sweep.
            for i in 0..n_bins * nc {
                let v = self.hist[i];
                if v != 0.0 {
                    self.step(node, f, &mut prev, (i / nc) as u32, i % nc, v, &mut best);
                }
            }
        }
        best
    }

    /// The split's threshold and its rank cut: a row goes left iff its
    /// rank is below the cut. The node holds no rank strictly between the
    /// largest left and the smallest right one, and the threshold lies in
    /// `[left value, right value)`, so this is `x <= threshold` on its rows.
    ///
    /// The threshold is node-local: the [`midpoint`] of the largest value
    /// left and the smallest value right — the exact scan's threshold — so
    /// both strategies agree on rows the node never saw (out-of-bag and
    /// test rows), not just on the fitted partition, and the partition is
    /// always the one the scan scored.
    fn threshold(&self, best: &BestSplit, rows: &[u32]) -> (f64, u32) {
        let feature = &self.data.features[best.feature];
        let (mut lo, mut hi) = (best.lo, best.hi);
        if let Some(table) = self.bins.get(best.feature).and_then(|b| b.table.as_ref()) {
            // A bin can hold several values: find the node's extremes.
            (lo, hi) = (0, u32::MAX);
            for &r in rows {
                let rank = feature.ranks[r as usize];
                if table[rank as usize] <= best.lo {
                    lo = lo.max(rank);
                } else {
                    hi = hi.min(rank);
                }
            }
        }
        let distinct = &feature.distinct;
        (midpoint(distinct[lo as usize], distinct[hi as usize]), lo + 1)
    }
}

/// Stably moves the rows whose `key` is below `cut` to the front of
/// `rows`, returning how many there are.
fn partition(rows: &mut [u32], key: &[u32], cut: u32, spill: &mut Vec<u32>) -> usize {
    spill.clear();
    spill.resize(rows.len(), 0);
    let (mut l, mut s) = (0, 0);
    for i in 0..rows.len() {
        let r = rows[i];
        let go_left = (key[r as usize] < cut) as usize;
        rows[l] = r;
        spill[s] = r;
        l += go_left;
        s += 1 - go_left;
    }
    rows[l..].copy_from_slice(&spill[..s]);
    l
}

impl DecisionTreeClassifier {
    /// Fits on `data` with per-row multiplicities `w`: row `r` counts as
    /// `w[r]` copies of itself, exactly as if it were repeated that many
    /// times, and rows with `w[r] == 0` are not visited. `data` must have
    /// been ranked for this tree's split strategy.
    ///
    /// Each node is a range of one row-id array that is partitioned in
    /// place; a child's class counts come from the split scan, so no pass
    /// recounts a node.
    pub(crate) fn fit_weighted(
        &mut self,
        data: &FeatureRanks,
        y: &[u32],
        w: &[u32],
        n_classes: usize,
    ) -> MlResult<()> {
        debug_assert_eq!(data.strategy, self.split_strategy);
        for (param, value, min) in [
            ("min_samples_split", self.min_samples_split, 2),
            ("min_samples_leaf", self.min_samples_leaf, 1),
        ] {
            if value < min {
                return Err(MlError::InvalidParam { param, message: format!("must be >= {min}") });
            }
        }
        let n_features = data.features.len();
        self.n_classes = n_classes;
        self.n_features = n_features;
        self.nodes.clear();
        self.depth = 0;

        let mut rows: Vec<u32> = (0..w.len() as u32).filter(|&r| w[r as usize] > 0).collect();
        let bins = match self.split_strategy {
            SplitStrategy::Histogram { bins } => {
                let max_bins = bins.max(2) as usize;
                data.features.iter().map(|f| Bins::for_tree(f, &rows, max_bins)).collect()
            }
            SplitStrategy::Exact => Vec::new(),
        };
        let mut g = Grower {
            data,
            bins,
            y,
            w,
            min_leaf: self.min_samples_leaf,
            left: vec![0.0; n_classes],
            right: vec![0.0; n_classes],
            n_left: 0.0,
            hist: Vec::new(),
            sorted: Vec::new(),
            evaluated: 0,
        };
        let (mut feats, mut spill) = (Vec::with_capacity(n_features), Vec::new());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let k_features = self.max_features.resolve(n_features);

        let mut root_counts = vec![0.0f64; n_classes];
        for &r in &rows {
            root_counts[y[r as usize] as usize] += w[r as usize] as f64;
        }
        // Explicit work stack avoids recursion-depth issues on deep trees.
        struct Work {
            node_slot: usize,
            start: usize,
            end: usize,
            depth: usize,
            counts: Vec<f64>,
        }
        // Leaf distributions in the order leaves are made; renumbered into
        // node order at the end.
        let mut made = Vec::new();
        self.nodes.push(Node::leaf(0, 0)); // placeholder root
        let mut stack =
            vec![Work { node_slot: 0, start: 0, end: rows.len(), depth: 0, counts: root_counts }];

        while let Some(work) = stack.pop() {
            let total: f64 = work.counts.iter().sum();
            let node_gini = gini(&work.counts, total);
            let depth_ok = self.max_depth.is_none_or(|d| work.depth < d);
            let can_split =
                depth_ok && total as usize >= self.min_samples_split && node_gini > 1e-12;

            let node_rows = &mut rows[work.start..work.end];
            let best = if can_split {
                // Feature subsample for this split.
                feats.clear();
                feats.extend(0..n_features);
                if k_features < n_features {
                    feats.shuffle(&mut rng);
                    feats.truncate(k_features);
                }
                g.find_split(node_rows, &feats, &work.counts, (total, node_gini))
            } else {
                None
            };
            let Some(bs) = best else {
                self.nodes[work.node_slot] = Node::leaf(work.node_slot, made.len() / n_classes);
                made.extend(work.counts.iter().map(|c| if total > 0.0 { c / total } else { 0.0 }));
                self.depth = self.depth.max(work.depth);
                continue;
            };
            let (threshold, cut) = g.threshold(&bs, node_rows);
            let n_left = partition(node_rows, &data.features[bs.feature].ranks, cut, &mut spill);
            let left_counts = bs.left;
            let right_counts = work.counts.iter().zip(&left_counts).map(|(p, l)| p - l).collect();
            let left = self.nodes.len();
            self.nodes.resize(left + 2, Node::leaf(0, 0));
            self.nodes[work.node_slot] =
                Node { threshold, feature: bs.feature as u32, child: left as u32 };
            let mid = work.start + n_left;
            for (node_slot, start, end, counts) in
                [(left, work.start, mid, left_counts), (left + 1, mid, work.end, right_counts)]
            {
                stack.push(Work { node_slot, start, end, depth: work.depth + 1, counts });
            }
        }
        self.leaf.clear();
        for (i, n) in self.nodes.iter_mut().enumerate() {
            if let Some(m) = n.leaf_row() {
                *n = Node::leaf(i, self.leaf.len() / n_classes);
                self.leaf.extend_from_slice(&made[m * n_classes..(m + 1) * n_classes]);
            }
        }
        mlcs_columnar::metrics::counter("ml.train.splits_evaluated").add(g.evaluated);
        Ok(())
    }
}

impl Classifier for DecisionTreeClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u32], n_classes: usize) -> MlResult<()> {
        validate_fit_inputs(x, y, n_classes)?;
        let data = FeatureRanks::new(x, self.split_strategy);
        self.fit_weighted(&data, y, &vec![1; x.rows()], n_classes)
    }

    fn predict(&self, x: &Matrix) -> MlResult<Vec<u32>> {
        Ok(crate::argmax_rows(&self.predict_proba(x)?))
    }

    fn predict_proba(&self, x: &Matrix) -> MlResult<Matrix> {
        if self.nodes.is_empty() {
            return Err(MlError::NotFitted);
        }
        check_width(self.n_features, x)?;
        let (nf, nc, trees) = (self.n_features, self.n_classes, std::slice::from_ref(self));
        crate::parallel::fill_rows_parallel(x.rows(), nc, |m, out| {
            add_tree_leaves(trees, (&x.as_slice()[m.start * nf..], nf), (out, nc));
            Ok(())
        })
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn n_features(&self) -> usize {
        self.n_features
    }
}

/// The error for a feature matrix whose width is not the model's.
pub(crate) fn check_width(n_features: usize, x: &Matrix) -> MlResult<()> {
    if x.cols() == n_features {
        return Ok(());
    }
    Err(MlError::Shape(format!("model trained on {n_features} features, input has {}", x.cols())))
}

pub(crate) fn pickle_max_features(w: &mut Writer, mf: MaxFeatures) {
    match mf {
        MaxFeatures::All => w.put_u8(0),
        MaxFeatures::Sqrt => w.put_u8(1),
        MaxFeatures::Count(n) => {
            w.put_u8(2);
            w.put_varint(n as u64);
        }
    }
}

pub(crate) fn unpickle_max_features(r: &mut Reader) -> Result<MaxFeatures, PickleError> {
    Ok(match r.get_u8()? {
        0 => MaxFeatures::All,
        1 => MaxFeatures::Sqrt,
        2 => MaxFeatures::Count(r.get_varint()? as usize),
        tag => return Err(PickleError::InvalidTag { tag, context: "MaxFeatures" }),
    })
}

pub(crate) fn pickle_split_strategy(w: &mut Writer, s: SplitStrategy) {
    match s {
        SplitStrategy::Exact => w.put_u8(0),
        SplitStrategy::Histogram { bins } => {
            w.put_u8(1);
            w.put_varint(bins as u64);
        }
    }
}

pub(crate) fn unpickle_split_strategy(r: &mut Reader) -> Result<SplitStrategy, PickleError> {
    match r.get_u8()? {
        0 => Ok(SplitStrategy::Exact),
        1 => {
            let bins = r.get_varint()?;
            if bins < 2 || bins > u16::MAX as u64 {
                return Err(PickleError::Invalid(format!("histogram bin count {bins}")));
            }
            Ok(SplitStrategy::Histogram { bins: bins as u16 })
        }
        tag => Err(PickleError::InvalidTag { tag, context: "SplitStrategy" }),
    }
}

/// Tags on a stored split's `child`: its left (right) child is a leaf.
const LEFT_LEAF: u32 = 1 << 31;
const RIGHT_LEAF: u32 = 1 << 30;

/// The body after the hyperparameters is the node count `n`, the splits'
/// `feature`, `threshold` and tagged `child` arrays (n / 2 each) and the
/// leaf table: little-endian, in node order, with no per-node framing.
impl Pickle for DecisionTreeClassifier {
    const CLASS_NAME: &'static str = "DecisionTreeClassifier";
    fn pickle_body(&self, w: &mut Writer) {
        w.put_varint(self.max_depth.map(|d| d as u64 + 1).unwrap_or(0));
        w.put_varint(self.min_samples_split as u64);
        w.put_varint(self.min_samples_leaf as u64);
        pickle_max_features(w, self.max_features);
        pickle_split_strategy(w, self.split_strategy);
        w.put_u64(self.seed);
        w.put_varint(self.n_classes as u64);
        w.put_varint(self.n_features as u64);
        let n = self.nodes.len();
        let is_leaf =
            |i: u32| u32::from(self.nodes.get(i as usize).is_some_and(|m| m.threshold.is_nan()));
        // Every node writes slot `s`; only a split moves past it (no branch).
        let (mut feature, mut threshold, mut child) =
            (vec![0u32; n / 2 + 1], vec![0.0; n / 2 + 1], vec![0u32; n / 2 + 1]);
        let mut s = 0;
        for node in &self.nodes {
            (feature[s], threshold[s]) = (node.feature, node.threshold);
            child[s] = node.child
                | (is_leaf(node.child) * LEFT_LEAF)
                | (is_leaf(node.child.wrapping_add(1)) * RIGHT_LEAF);
            s += !node.threshold.is_nan() as usize;
        }
        w.put_varint(n as u64);
        w.put_u32_array(&feature[..s]);
        w.put_f64_array(&threshold[..s]);
        w.put_u32_array(&child[..s]);
        w.put_f64_array(&self.leaf);
    }

    /// Every length is checked against the bytes left before anything is
    /// allocated. One pass in node order then rebuilds the node records and
    /// proves the walk safe: each node but the root has exactly one parent,
    /// every child comes after its parent and within the node count, every
    /// feature is below `n_features`, no split threshold is NaN, and the
    /// leaf table holds `n_classes` values per leaf.
    fn unpickle_body(r: &mut Reader) -> Result<Self, PickleError> {
        let mut tree = DecisionTreeClassifier::new();
        tree.max_depth = r.get_varint()?.checked_sub(1).map(|d| d as usize);
        tree.min_samples_split = r.get_varint()? as usize;
        tree.min_samples_leaf = r.get_varint()? as usize;
        tree.max_features = unpickle_max_features(r)?;
        tree.split_strategy = unpickle_split_strategy(r)?;
        tree.seed = r.get_u64()?;
        let (nc, nf) = (r.get_varint()? as usize, r.get_varint()? as usize);
        (tree.n_classes, tree.n_features) = (nc, nf);
        let invalid = |m: String| Err(PickleError::Invalid(m));
        let n = r.get_count(8)?; // a split takes 16 bytes, a leaf at least 8
        if n > 0 && (n % 2 == 0 || nc == 0) {
            return invalid(format!("a binary tree of {n} nodes and {nc} classes"));
        }
        let splits = n / 2;
        let feature = r.get_u32_array(splits)?;
        let threshold = r.get_f64_array(splits)?;
        let child = r.get_u32_array(splits)?;
        tree.leaf = r.get_f64_array((n - splits).saturating_mul(nc))?;
        // level[i]: 1 + node i's depth once its parent named it (0 before),
        // with LEAF set for a leaf.
        const LEAF: u32 = 1 << 31;
        let mut level = vec![0u32; n.max(1)];
        level[0] = if n == 1 { 1 | LEAF } else { 1 };
        let (mut nodes, mut s, mut depth) = (Vec::with_capacity(n), 0, 0);
        for i in 0..n {
            let l = level[i];
            if l & LEAF != 0 {
                depth = depth.max(l & !LEAF);
                nodes.push(Node::leaf(i, i - s));
                continue;
            }
            let (f, t, tagged) = match (feature.get(s), threshold.get(s), child.get(s)) {
                (Some(&f), Some(&t), Some(&c)) if l != 0 => (f, t, c),
                _ => return invalid(format!("node {i} has no parent or is split {s} of {splits}")),
            };
            let c = (tagged & !(LEFT_LEAF | RIGHT_LEAF)) as usize;
            let in_range = c > i && c + 1 < n;
            if !in_range || (level[c] | level[c + 1]) != 0 || f as usize >= nf || t.is_nan() {
                return invalid(format!(
                    "node {i} of {n} splits feature {f} of {nf} at {t} into {c}"
                ));
            }
            level[c] = (l + 1) | (tagged & LEFT_LEAF);
            level[c + 1] = (l + 1) | (tagged & RIGHT_LEAF) << 1;
            nodes.push(Node { threshold: t, feature: f, child: c as u32 });
            s += 1;
        }
        tree.depth = (depth as usize).saturating_sub(1);
        tree.nodes = nodes;
        Ok(tree)
    }

    fn size_hint(&self) -> usize {
        64 + self.nodes.len() * 16 + self.leaf.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn xor_data() -> (Matrix, Vec<u32>) {
        // XOR: not linearly separable, trees handle it.
        let x = Matrix::from_rows(&[
            [0.0, 0.0],
            [0.0, 1.0],
            [1.0, 0.0],
            [1.0, 1.0],
            [0.1, 0.1],
            [0.1, 0.9],
            [0.9, 0.1],
            [0.9, 0.9],
        ])
        .unwrap();
        let y = vec![0, 1, 1, 0, 0, 1, 1, 0];
        (x, y)
    }

    /// A deterministic pseudo-random classification problem: well-separated
    /// noisy blobs, with the noise quantized to `levels` steps so tests can
    /// control how many distinct values each feature takes.
    fn blob_data(rows: usize, cols: usize, classes: usize, levels: u64) -> (Matrix, Vec<u32>) {
        let mut data = Vec::with_capacity(rows * cols);
        let mut y = Vec::with_capacity(rows);
        let mut state = 0x9e3779b97f4a7c15u64;
        for r in 0..rows {
            let cls = r % classes;
            y.push(cls as u32);
            for c in 0..cols {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = ((state >> 40) % levels) as f64 / levels as f64; // [0, 1)
                data.push(cls as f64 * 2.0 + noise + (c as f64) * 0.1);
            }
        }
        (Matrix::new(data, rows, cols).unwrap(), y)
    }

    #[test]
    fn fits_xor_perfectly() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::new();
        t.fit(&x, &y, 2).unwrap();
        assert_eq!(t.predict(&x).unwrap(), y);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn fits_xor_perfectly_exact() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::new().with_split_strategy(SplitStrategy::Exact);
        t.fit(&x, &y, 2).unwrap();
        assert_eq!(t.predict(&x).unwrap(), y);
    }

    #[test]
    fn strategies_agree_when_distinct_values_fit_in_bins() {
        // Every feature has <= 255 distinct values (3 classes × 40 noise
        // levels), so histogram edges are exactly the midpoints the exact
        // scan proposes and both strategies choose identical partitions.
        let (x, y) = blob_data(600, 3, 3, 40);
        let mut exact = DecisionTreeClassifier::new().with_split_strategy(SplitStrategy::Exact);
        let mut hist = DecisionTreeClassifier::new();
        exact.fit(&x, &y, 3).unwrap();
        hist.fit(&x, &y, 3).unwrap();
        assert_eq!(exact.predict(&x).unwrap(), hist.predict(&x).unwrap());
    }

    #[test]
    fn strategies_match_accuracy_with_few_bins() {
        // With only 16 bins on ~600 distinct values the trees differ, but
        // training accuracy on well-separated blobs must match.
        let (x, y) = blob_data(600, 2, 3, 1 << 24);
        let mut exact = DecisionTreeClassifier::new().with_split_strategy(SplitStrategy::Exact);
        let mut hist = DecisionTreeClassifier::new()
            .with_split_strategy(SplitStrategy::Histogram { bins: 16 });
        exact.fit(&x, &y, 3).unwrap();
        hist.fit(&x, &y, 3).unwrap();
        let acc = |pred: &[u32]| {
            pred.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64
        };
        let (ea, ha) = (acc(&exact.predict(&x).unwrap()), acc(&hist.predict(&x).unwrap()));
        assert!(ea >= 0.99, "exact accuracy {ea}");
        assert!(ha >= 0.99, "histogram accuracy {ha}");
    }

    #[test]
    fn histogram_bins_clamped_to_two() {
        let (x, y) = xor_data();
        let mut t =
            DecisionTreeClassifier::new().with_split_strategy(SplitStrategy::Histogram { bins: 0 });
        t.fit(&x, &y, 2).unwrap();
        assert!(t.node_count() >= 1);
    }

    #[test]
    fn respects_max_depth() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::new().with_max_depth(1);
        t.fit(&x, &y, 2).unwrap();
        assert!(t.depth() <= 1);
        // A depth-1 tree cannot solve XOR.
        let pred = t.predict(&x).unwrap();
        assert_ne!(pred, y);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let x = Matrix::from_rows(&[[1.0], [2.0], [3.0]]).unwrap();
        let mut t = DecisionTreeClassifier::new();
        t.fit(&x, &[1, 1, 1], 2).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&x).unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn proba_sums_to_one() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::new().with_max_depth(1);
        t.fit(&x, &y, 2).unwrap();
        let p = t.predict_proba(&x).unwrap();
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::new();
        t.min_samples_leaf = 4;
        t.fit(&x, &y, 2).unwrap();
        // With 8 samples and min leaf 4 only one split is possible.
        assert!(t.node_count() <= 3);
    }

    #[test]
    fn errors_on_misuse() {
        let t = DecisionTreeClassifier::new();
        let x = Matrix::from_rows(&[[1.0]]).unwrap();
        assert_eq!(t.predict(&x).unwrap_err(), MlError::NotFitted);
        let (xx, yy) = xor_data();
        let mut t = DecisionTreeClassifier::new();
        t.fit(&xx, &yy, 2).unwrap();
        let wrong = Matrix::from_rows(&[[1.0]]).unwrap();
        assert!(matches!(t.predict(&wrong), Err(MlError::Shape(_))));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_data();
        let mut a =
            DecisionTreeClassifier::new().with_max_features(MaxFeatures::Count(1)).with_seed(7);
        let mut b =
            DecisionTreeClassifier::new().with_max_features(MaxFeatures::Count(1)).with_seed(7);
        a.fit(&x, &y, 2).unwrap();
        b.fit(&x, &y, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pickle_round_trip() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::new();
        t.fit(&x, &y, 2).unwrap();
        let blob = mlcs_pickle::pickle(&t);
        let back: DecisionTreeClassifier = mlcs_pickle::unpickle(&blob).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.predict(&x).unwrap(), y);
    }

    #[test]
    fn pickle_round_trip_exact_strategy() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::new().with_split_strategy(SplitStrategy::Exact);
        t.fit(&x, &y, 2).unwrap();
        let back: DecisionTreeClassifier = mlcs_pickle::unpickle(&mlcs_pickle::pickle(&t)).unwrap();
        assert_eq!(back.split_strategy, SplitStrategy::Exact);
        assert_eq!(back, t);
    }

    #[test]
    fn corrupt_tree_rejected() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::new();
        t.fit(&x, &y, 2).unwrap();
        let blob = mlcs_pickle::pickle(&t);
        for cut in [blob.len() / 4, blob.len() / 2, blob.len() - 2] {
            assert!(mlcs_pickle::unpickle::<DecisionTreeClassifier>(&blob[..cut]).is_err());
        }
    }

    #[test]
    fn splits_next_to_infinite_or_adjacent_values_separate_them() {
        // Plain midpoints here are NaN (-inf, -1), inf (2, inf) or round
        // onto the larger value (two adjacent floats); each must still split.
        let after = |v: f64| f64::from_bits(v.to_bits() + 1);
        let (a, b) = (after(1.0), after(after(1.0)));
        let values = [f64::NEG_INFINITY, -1.0, 1.0, a, b, 2.0, f64::INFINITY];
        let x = Matrix::new(values.to_vec(), values.len(), 1).unwrap();
        let y = vec![0, 1, 0, 1, 0, 1, 0];
        for strategy in [SplitStrategy::Exact, SplitStrategy::default()] {
            let mut t = DecisionTreeClassifier::new().with_split_strategy(strategy);
            t.fit(&x, &y, 2).unwrap();
            assert_eq!(t.predict(&x).unwrap(), y, "{strategy:?}");
            assert_eq!(t.node_count(), 2 * values.len() - 1, "{strategy:?}");
        }
    }

    #[test]
    fn forged_trees_rejected() {
        let (x, y) = xor_data();
        let mut fitted = DecisionTreeClassifier::new();
        fitted.fit(&x, &y, 2).unwrap();
        let n = fitted.nodes.len() as u32;
        type Forge = fn(&mut DecisionTreeClassifier, u32);
        let forgeries: [(&str, Forge); 5] = [
            ("child at its own index", |t, _| t.nodes[0].child = 0),
            ("child past the node count", |t, n| t.nodes[0].child = n - 1),
            ("feature past n_features", |t, _| t.nodes[0].feature = 2),
            ("no classes", |t, _| t.n_classes = 0),
            ("two parents", |t, _| {
                let c = t.nodes[0].child;
                t.nodes[c as usize].child = c + 1;
            }),
        ];
        for (what, forge) in forgeries {
            let mut t = fitted.clone();
            forge(&mut t, n);
            let err = mlcs_pickle::unpickle::<DecisionTreeClassifier>(&mlcs_pickle::pickle(&t));
            assert!(matches!(err, Err(PickleError::Invalid(_))), "{what}: {err:?}");
        }
        let mut short = fitted.clone();
        short.leaf.pop();
        assert!(
            mlcs_pickle::unpickle::<DecisionTreeClassifier>(&mlcs_pickle::pickle(&short)).is_err()
        );
    }

    #[test]
    fn leaves_step_onto_themselves() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::new();
        t.fit(&x, &y, 2).unwrap();
        for (i, n) in t.nodes.iter().enumerate() {
            match n.leaf_row() {
                Some(_) => assert_eq!(n.child.wrapping_add(1) as usize, i),
                None => assert!(n.child as usize > i),
            }
        }
        // NaN goes right, like every value above the threshold.
        let nan = Matrix::new(vec![f64::NAN, f64::NAN], 1, 2).unwrap();
        let mut right = DecisionTreeClassifier::new().with_max_depth(1);
        right.fit(&x, &y, 2).unwrap();
        let root = right.nodes[0];
        let mut probe = vec![0.0, 0.0];
        probe[root.feature as usize] = f64::INFINITY;
        let inf = Matrix::new(probe, 1, 2).unwrap();
        assert_eq!(right.predict_proba(&nan).unwrap(), right.predict_proba(&inf).unwrap());
    }

    /// Up to 200 rows of 1–4 features drawn from a small domain (seven
    /// values) or a large one (continuous), both with `±0.0`; labels in
    /// 0..3; multiplicities in 0..4 with at least one row kept.
    fn weighted_problem() -> impl Strategy<Value = (Matrix, Vec<u32>, Vec<u32>)> {
        (1usize..201, 1usize..5, 0u32..2).prop_flat_map(|(rows, cols, small)| {
            let n = rows * cols;
            let values = (
                proptest::collection::vec(0u32..1000, n),
                proptest::collection::vec(-1e3f64..1e3, n),
            );
            let labels = proptest::collection::vec(0u32..3, rows);
            let w = proptest::collection::vec(0u32..4, rows);
            (values, labels, w).prop_map(move |((codes, floats), y, mut w)| {
                const SMALL: [f64; 7] = [-0.0, 0.0, 1.0, -1.0, 2.5, 3.0, -7.0];
                let data = codes
                    .iter()
                    .zip(&floats)
                    .map(|(&c, &v)| match (small, c % 10) {
                        (1, _) => SMALL[c as usize % 7],
                        (_, 0) => -0.0,
                        (_, 1) => 0.0,
                        _ => v,
                    })
                    .collect();
                if w.iter().all(|&m| m == 0) {
                    w[rows - 1] = 1;
                }
                (Matrix::new(data, rows, cols).unwrap(), y, w)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The oracle for `fit_weighted`: a row with multiplicity `m` is
        /// exactly `m` copies of that row, under either strategy and with
        /// bins both coarser and finer than the distinct values.
        #[test]
        fn multiplicities_equal_duplicated_rows(
            (x, y, w) in weighted_problem(),
            bins in 2u16..20,
            seed in 0u64..1000,
        ) {
            let repeat: Vec<usize> =
                (0..x.rows()).flat_map(|r| std::iter::repeat_n(r, w[r] as usize)).collect();
            let (rx, ry) = (x.take_rows(&repeat), repeat.iter().map(|&r| y[r]).collect::<Vec<_>>());
            let bits = |t: &DecisionTreeClassifier| -> Vec<u64> {
                t.predict_proba(&x).unwrap().as_slice().iter().map(|v| v.to_bits()).collect()
            };
            for strategy in
                [SplitStrategy::Exact, SplitStrategy::Histogram { bins }, SplitStrategy::default()]
            {
                let tree = || {
                    DecisionTreeClassifier::new()
                        .with_split_strategy(strategy)
                        .with_max_features(MaxFeatures::Sqrt)
                        .with_seed(seed)
                };
                let mut weighted = tree();
                weighted.fit_weighted(&FeatureRanks::new(&x, strategy), &y, &w, 3).unwrap();
                let mut repeated = tree();
                repeated.fit(&rx, &ry, 3).unwrap();
                prop_assert_eq!(&weighted, &repeated, "{:?}", strategy);
                prop_assert_eq!(
                    mlcs_pickle::pickle(&weighted),
                    mlcs_pickle::pickle(&repeated)
                );
                prop_assert_eq!(bits(&weighted), bits(&repeated));
            }
        }
    }

    #[test]
    fn feature_importance_prefers_informative_feature() {
        // Feature 1 is pure noise; feature 0 decides the class.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let v = i as f64 / 40.0;
            rows.push([if i % 2 == 0 { v } else { v + 2.0 }, (i * 37 % 17) as f64]);
            labels.push((i % 2) as u32);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut t = DecisionTreeClassifier::new().with_max_depth(4);
        t.fit(&x, &labels, 2).unwrap();
        let imp = t.feature_importances();
        assert!(imp[0] > imp[1], "importances {imp:?}");
    }

    #[test]
    fn multiclass() {
        let x = Matrix::from_rows(&[[0.0], [1.0], [2.0], [0.1], [1.1], [2.1]]).unwrap();
        let y = vec![0, 1, 2, 0, 1, 2];
        let mut t = DecisionTreeClassifier::new();
        t.fit(&x, &y, 3).unwrap();
        assert_eq!(t.predict(&x).unwrap(), y);
        assert_eq!(t.n_classes(), 3);
    }
}

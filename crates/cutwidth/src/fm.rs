//! Fiduccia–Mattheyses min-cut bipartitioning.
//!
//! The paper estimates cut-width with recursive min-cut bisection using
//! hMETIS (Section 5.2.1). This module supplies the refinement engine of
//! that substitute, built from scratch: a gain-driven FM sweep over
//! weighted hypergraph nodes with optional *anchored* terminal nodes, and
//! a multi-restart flat driver. The sweep keeps free nodes in gain-bucket
//! bitsets and updates gains by per-edge deltas; see `Fm` for why its
//! selection order is that of a max-heap of `(gain, node)` pairs. The
//! multilevel (coarsening) driver that completes the hMETIS stand-in
//! lives in [`crate::multilevel`]. Everything is deterministic for a
//! given seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::graph::Graph;
use crate::Hypergraph;

/// Configuration for [`bipartition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmConfig {
    /// Maximum refinement passes per restart (each pass is a full FM
    /// tentative-move sweep).
    pub max_passes: usize,
    /// Independent random restarts; the best result wins.
    pub restarts: usize,
    /// Allowed imbalance as a fraction of the total node weight; the
    /// smaller side may not drop below `total/2 − max(tolerance·total,
    /// heaviest node)`.
    pub balance_tolerance: f64,
    /// RNG seed (experiments are reproducible).
    pub seed: u64,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            max_passes: 8,
            restarts: 4,
            balance_tolerance: 0.1,
            seed: 0xF1D,
        }
    }
}

/// A two-way partition: `side[v]` is `true` for the right side, with the
/// number of hyperedges spanning both sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bipartition {
    /// Side assignment per node.
    pub side: Vec<bool>,
    /// Hyperedges with nodes on both sides.
    pub cut: usize,
}

/// Counts hyperedges crossing `side`.
pub fn cut_size(h: &Hypergraph, side: &[bool]) -> usize {
    h.edges()
        .iter()
        .filter(|e| {
            let mut any_l = false;
            let mut any_r = false;
            for &v in e.iter() {
                if side[v] {
                    any_r = true;
                } else {
                    any_l = true;
                }
            }
            any_l && any_r
        })
        .count()
}

/// Reusable FM state: per-edge side counts, per-node gains and locks, the
/// gain-bucket queue and the move log. One workspace serves every pass,
/// restart and coarsening level of a bisection, and every window of an
/// arrangement.
///
/// The queue is one bitset per gain: bucket `g + off` holds a bit for
/// each free node whose gain is `g`, where `off` is the maximum degree of
/// the free nodes (a gain never exceeds its node's degree in size).
/// Selection scans buckets from the highest gain down and, within a
/// bucket, node indices from the highest down, skipping nodes whose move
/// would break balance — the order in which a max-heap of `(gain, node)`
/// pairs pops them.
#[derive(Debug, Default)]
pub(crate) struct Fm {
    counts: Vec<[u32; 2]>,
    gain: Vec<i32>,
    locked: Vec<bool>,
    off: i32,
    /// Words per bucket bitset.
    words: usize,
    buckets: Vec<u64>,
    bucket_len: Vec<u32>,
    /// No bucket above `top` is occupied.
    top: usize,
    moves: Vec<usize>,
}

impl Fm {
    /// Sizes the gain buckets for passes over `g` with these anchors.
    fn load(&mut self, g: &Graph, anchored: &[bool]) {
        let max_degree = (0..g.num_nodes())
            .filter(|&v| !anchored[v])
            .map(|v| g.incident(v).len())
            .max()
            .unwrap_or(0);
        self.off = i32::try_from(max_degree).expect("node degree fits i32");
        self.words = g.num_nodes().div_ceil(64);
    }

    fn bucket(&self, v: usize) -> usize {
        (self.gain[v] + self.off) as usize
    }

    fn insert(&mut self, v: usize) {
        let b = self.bucket(v);
        self.buckets[b * self.words + v / 64] |= 1 << (v % 64);
        self.bucket_len[b] += 1;
        self.top = self.top.max(b);
    }

    fn remove(&mut self, v: usize) {
        let b = self.bucket(v);
        self.buckets[b * self.words + v / 64] &= !(1 << (v % 64));
        self.bucket_len[b] -= 1;
    }

    /// Adds `delta` to the gain of `v` if it is free.
    fn bump(&mut self, v: usize, delta: i32) {
        if !self.locked[v] {
            self.remove(v);
            self.gain[v] += delta;
            self.insert(v);
        }
    }

    /// The free node of highest `(gain, index)` whose move keeps its side
    /// at least `min_w` heavy.
    fn select(
        &mut self,
        side: &[bool],
        weight: &[u64],
        sizes: [u64; 2],
        min_w: u64,
    ) -> Option<usize> {
        while self.top > 0 && self.bucket_len[self.top] == 0 {
            self.top -= 1;
        }
        for b in (0..=self.top).rev() {
            if self.bucket_len[b] == 0 {
                continue;
            }
            let row = &self.buckets[b * self.words..(b + 1) * self.words];
            for (w, &word) in row.iter().enumerate().rev() {
                let mut bits = word;
                while bits != 0 {
                    let bit = 63 - bits.leading_zeros() as usize;
                    let v = w * 64 + bit;
                    if sizes[usize::from(side[v])] >= min_w + weight[v] {
                        return Some(v);
                    }
                    bits ^= 1 << bit;
                }
            }
        }
        None
    }

    /// Moves the (already locked) node `v` across and updates the gains
    /// of the free nodes on its edges by the per-edge deltas: an edge
    /// whose destination side was empty raises every other pin's gain, one
    /// whose destination held a single pin lowers that pin's; likewise,
    /// after the move, an emptied source side lowers every pin's gain and
    /// a source side left with one pin raises that pin's.
    fn move_node(&mut self, g: &Graph, side: &mut [bool], v: usize) {
        let from = usize::from(side[v]);
        let to = 1 - from;
        for &e in g.incident(v) {
            let pins = g.edge(e);
            let [n_from, n_to] = [self.counts[e][from], self.counts[e][to]];
            if n_to == 0 {
                for &u in pins {
                    self.bump(u, 1);
                }
            } else if n_to == 1 {
                let u = *pins
                    .iter()
                    .find(|&&u| usize::from(side[u]) == to)
                    .expect("one pin on the destination side");
                self.bump(u, -1);
            }
            self.counts[e][from] = n_from - 1;
            self.counts[e][to] = n_to + 1;
            if n_from == 1 {
                for &u in pins {
                    self.bump(u, -1);
                }
            } else if n_from == 2 {
                let u = *pins
                    .iter()
                    .find(|&&u| u != v && usize::from(side[u]) == from)
                    .expect("one other pin on the source side");
                self.bump(u, 1);
            }
        }
        side[v] = !side[v];
    }

    /// One FM sweep over `side`, in place: tentatively moves every free
    /// node once, best gain first, then keeps the best prefix of moves.
    /// Returns whether the cut improved (if not, `side` is unchanged).
    fn pass(
        &mut self,
        g: &Graph,
        weight: &[u64],
        anchored: &[bool],
        side: &mut [bool],
        min_w: u64,
    ) -> bool {
        let n = g.num_nodes();
        self.counts.clear();
        self.counts.resize(g.num_edges(), [0; 2]);
        for e in 0..g.num_edges() {
            for &v in g.edge(e) {
                self.counts[e][usize::from(side[v])] += 1;
            }
        }
        let mut sizes = [0u64; 2];
        for v in 0..n {
            if !anchored[v] {
                sizes[usize::from(side[v])] += weight[v];
            }
        }
        self.locked.clear();
        self.locked.extend_from_slice(anchored);
        self.gain.clear();
        self.gain.resize(n, 0);
        let num_buckets = 2 * self.off as usize + 1;
        self.buckets.clear();
        self.buckets.resize(num_buckets * self.words, 0);
        self.bucket_len.clear();
        self.bucket_len.resize(num_buckets, 0);
        self.top = 0;
        for v in 0..n {
            if anchored[v] {
                continue;
            }
            let from = usize::from(side[v]);
            for &e in g.incident(v) {
                let c = self.counts[e];
                self.gain[v] += i32::from(c[from] == 1) - i32::from(c[1 - from] == 0);
            }
            self.insert(v);
        }

        self.moves.clear();
        let mut cumulative = 0i64;
        let mut best_gain = 0i64;
        let mut best_len = 0usize;
        while let Some(v) = self.select(side, weight, sizes, min_w) {
            let from = usize::from(side[v]);
            cumulative += i64::from(self.gain[v]);
            self.remove(v);
            self.locked[v] = true;
            self.move_node(g, side, v);
            sizes[from] -= weight[v];
            sizes[1 - from] += weight[v];
            self.moves.push(v);
            if cumulative > best_gain {
                best_gain = cumulative;
                best_len = self.moves.len();
            }
        }
        for &v in self.moves[best_len..].iter().rev() {
            side[v] = !side[v];
        }
        best_gain > 0
    }
}

/// The minimum side weight implied by the balance tolerance.
pub(crate) fn min_side_weight(total: u64, max_node: u64, tolerance: f64) -> u64 {
    let slack = ((tolerance * total as f64) as u64).max(max_node).max(1);
    (total / 2).saturating_sub(slack).max(1).min(total / 2)
}

/// Runs up to `max_passes` FM refinement sweeps on an existing weighted,
/// anchored partition, in place.
pub(crate) fn refine(
    fm: &mut Fm,
    g: &Graph,
    weight: &[u64],
    side: &mut [bool],
    anchored: &[bool],
    min_side_w: u64,
    max_passes: usize,
) {
    fm.load(g, anchored);
    for _ in 0..max_passes {
        if !fm.pass(g, weight, anchored, side, min_side_w) {
            break;
        }
    }
}

/// Bipartitions a hypergraph by multi-restart FM.
///
/// Returns the best partition found. For graphs with fewer than two nodes
/// the partition is trivial.
pub fn bipartition(h: &Hypergraph, config: &FmConfig) -> Bipartition {
    bipartition_anchored(h, &[], &[], config)
}

/// FM bipartitioning with *anchored* (terminal-propagation) nodes:
/// `left_anchors` are fixed on the left side and `right_anchors` on the
/// right; they contribute to edge cuts but never move and do not count
/// toward balance. This is how recursive-bisection placement keeps
/// sub-block orientation consistent with the surrounding layout
/// (Dunlop–Kernighan terminal propagation).
///
/// # Panics
///
/// Panics if an anchor index is out of range or appears on both sides.
pub fn bipartition_anchored(
    h: &Hypergraph,
    left_anchors: &[usize],
    right_anchors: &[usize],
    config: &FmConfig,
) -> Bipartition {
    let weight = vec![1u64; h.num_nodes()];
    bipartition_weighted(h, &weight, left_anchors, right_anchors, config)
}

/// The weighted core behind [`bipartition_anchored`]; node weights drive
/// the balance constraint (used by the multilevel driver on coarsened
/// graphs).
///
/// # Panics
///
/// Panics if `weight.len() != h.num_nodes()`, an anchor is out of range,
/// or an anchor appears on both sides.
pub fn bipartition_weighted(
    h: &Hypergraph,
    weight: &[u64],
    left_anchors: &[usize],
    right_anchors: &[usize],
    config: &FmConfig,
) -> Bipartition {
    let g = Graph::from_hypergraph(h);
    let side = bisect(
        &mut Fm::default(),
        &g,
        weight,
        left_anchors,
        right_anchors,
        config,
    );
    let cut = g.cut(&side);
    Bipartition { side, cut }
}

/// Marks the anchors.
///
/// # Panics
///
/// Panics if an anchor is out of range or listed twice.
pub(crate) fn anchor_mask(n: usize, left_anchors: &[usize], right_anchors: &[usize]) -> Vec<bool> {
    let mut anchored = vec![false; n];
    for &v in left_anchors.iter().chain(right_anchors) {
        assert!(v < n, "anchor {v} out of range");
        assert!(!anchored[v], "anchor {v} listed twice");
        anchored[v] = true;
    }
    anchored
}

/// Multi-restart FM on `g`: each restart splits a shuffle of the free
/// nodes greedily by weight, then runs FM passes until one fails to
/// improve; the restart with the smallest cut wins (the first on ties).
pub(crate) fn bisect(
    fm: &mut Fm,
    g: &Graph,
    weight: &[u64],
    left_anchors: &[usize],
    right_anchors: &[usize],
    config: &FmConfig,
) -> Vec<bool> {
    let n = g.num_nodes();
    assert_eq!(weight.len(), n, "one weight per node");
    let anchored = anchor_mask(n, left_anchors, right_anchors);
    let mut side = vec![false; n];
    for &v in right_anchors {
        side[v] = true;
    }
    let free: Vec<usize> = (0..n).filter(|&v| !anchored[v]).collect();
    if free.len() < 2 {
        return side;
    }
    let total: u64 = free.iter().map(|&v| weight[v]).sum();
    let max_node = free.iter().map(|&v| weight[v]).max().unwrap_or(1);
    let min_w = min_side_weight(total, max_node, config.balance_tolerance);
    let mut rng = StdRng::seed_from_u64(config.seed);
    fm.load(g, &anchored);
    let start = side.clone();
    let mut best = (usize::MAX, Vec::new());
    let mut perm = Vec::with_capacity(free.len());
    for _ in 0..config.restarts.max(1) {
        perm.clear();
        perm.extend_from_slice(&free);
        perm.shuffle(&mut rng);
        side.clone_from(&start);
        // Greedy weighted halving of the shuffled free nodes.
        let mut acc = 0u64;
        for &v in &perm {
            if acc * 2 >= total {
                side[v] = true;
            } else {
                acc += weight[v];
            }
        }
        for _ in 0..config.max_passes {
            if !fm.pass(g, weight, &anchored, &mut side, min_w) {
                break;
            }
        }
        let cut = g.cut(&side);
        if cut < best.0 {
            best = (cut, side.clone());
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngExt;

    // ---- reference: the heap-based kernel ----

    /// The heap-based FM pass the gain-bucket kernel replaced, kept as the
    /// reference its moves must reproduce.
    struct HeapPass<'a> {
        h: &'a Hypergraph,
        incidence: &'a [Vec<usize>],
        weight: &'a [u64],
        side: Vec<bool>,
        counts: Vec<[usize; 2]>, // per edge: nodes on each side
        gain: Vec<i64>,
        locked: Vec<bool>,
        heap: std::collections::BinaryHeap<(i64, usize)>,
        /// Free (non-anchored) node weight per side; anchors never move and do
        /// not participate in balance.
        sizes: [u64; 2],
    }

    impl<'a> HeapPass<'a> {
        fn new(
            h: &'a Hypergraph,
            incidence: &'a [Vec<usize>],
            weight: &'a [u64],
            side: Vec<bool>,
            anchored: &[bool],
        ) -> Self {
            let mut counts = vec![[0usize; 2]; h.num_edges()];
            for (ei, e) in h.edges().iter().enumerate() {
                for &v in e {
                    counts[ei][usize::from(side[v])] += 1;
                }
            }
            let mut sizes = [0u64; 2];
            for (v, &s) in side.iter().enumerate() {
                if !anchored[v] {
                    sizes[usize::from(s)] += weight[v];
                }
            }
            let mut p = HeapPass {
                h,
                incidence,
                weight,
                side,
                counts,
                gain: vec![0; h.num_nodes()],
                locked: anchored.to_vec(),
                heap: std::collections::BinaryHeap::new(),
                sizes,
            };
            for v in 0..h.num_nodes() {
                if !p.locked[v] {
                    p.gain[v] = p.compute_gain(v);
                    p.heap.push((p.gain[v], v));
                }
            }
            p
        }

        fn compute_gain(&self, v: usize) -> i64 {
            let from = usize::from(self.side[v]);
            let to = 1 - from;
            let mut g = 0i64;
            for &ei in &self.incidence[v] {
                if self.h.edges()[ei].len() < 2 {
                    continue;
                }
                if self.counts[ei][from] == 1 {
                    g += 1; // moving v un-cuts this edge
                }
                if self.counts[ei][to] == 0 {
                    g -= 1; // moving v newly cuts this edge
                }
            }
            g
        }

        fn move_node(&mut self, v: usize) {
            let from = usize::from(self.side[v]);
            let to = 1 - from;
            self.side[v] = !self.side[v];
            self.sizes[from] -= self.weight[v];
            self.sizes[to] += self.weight[v];
            // Update edge counts and refresh gains of affected nodes.
            for k in 0..self.incidence[v].len() {
                let ei = self.incidence[v][k];
                self.counts[ei][from] -= 1;
                self.counts[ei][to] += 1;
                for j in 0..self.h.edges()[ei].len() {
                    let u = self.h.edges()[ei][j];
                    if !self.locked[u] {
                        let g = self.compute_gain(u);
                        if g != self.gain[u] {
                            self.gain[u] = g;
                            self.heap.push((g, u));
                        }
                    }
                }
            }
        }

        /// One FM sweep. Returns the improved side vector if the pass found a
        /// better prefix, else `None`.
        fn run(mut self, min_side_weight: u64) -> Option<Vec<bool>> {
            let n = self.h.num_nodes();
            let mut moves: Vec<usize> = Vec::with_capacity(n);
            let mut cumulative = 0i64;
            let mut best_gain = 0i64;
            let mut best_len = 0usize;
            for _ in 0..n {
                // Pop the best movable unlocked node.
                let mut chosen = None;
                let mut stash: Vec<(i64, usize)> = Vec::new();
                while let Some((g, v)) = self.heap.pop() {
                    if self.locked[v] || g != self.gain[v] {
                        continue;
                    }
                    let from = usize::from(self.side[v]);
                    if self.sizes[from] < min_side_weight + self.weight[v] {
                        stash.push((g, v)); // would unbalance; try the next one
                        continue;
                    }
                    chosen = Some((g, v));
                    break;
                }
                for item in stash {
                    self.heap.push(item);
                }
                let Some((g, v)) = chosen else { break };
                self.locked[v] = true;
                self.move_node(v);
                cumulative += g;
                moves.push(v);
                if cumulative > best_gain {
                    best_gain = cumulative;
                    best_len = moves.len();
                }
            }
            if best_gain <= 0 {
                return None;
            }
            // Roll back to the best prefix.
            for &v in moves[best_len..].iter().rev() {
                self.side[v] = !self.side[v];
            }
            Some(self.side)
        }
    }

    /// [`bipartition_weighted`] as it was built on [`HeapPass`].
    fn reference_bipartition_weighted(
        h: &Hypergraph,
        weight: &[u64],
        left_anchors: &[usize],
        right_anchors: &[usize],
        config: &FmConfig,
    ) -> Bipartition {
        let n = h.num_nodes();
        assert_eq!(weight.len(), n, "one weight per node");
        let mut anchored = vec![false; n];
        for &v in left_anchors.iter().chain(right_anchors) {
            assert!(v < n, "anchor {v} out of range");
            assert!(!anchored[v], "anchor {v} listed twice");
            anchored[v] = true;
        }
        let free: Vec<usize> = (0..n).filter(|&v| !anchored[v]).collect();
        if free.len() < 2 {
            let mut side = vec![false; n];
            for &v in right_anchors {
                side[v] = true;
            }
            let cut = cut_size(h, &side);
            return Bipartition { side, cut };
        }
        let total: u64 = free.iter().map(|&v| weight[v]).sum();
        let max_node = free.iter().map(|&v| weight[v]).max().unwrap_or(1);
        let min_w = min_side_weight(total, max_node, config.balance_tolerance);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut best: Option<Bipartition> = None;
        let incidence = h.incidence();
        for _ in 0..config.restarts.max(1) {
            let mut perm = free.clone();
            perm.shuffle(&mut rng);
            let mut side = vec![false; n];
            for &v in right_anchors {
                side[v] = true;
            }
            // Greedy weighted halving of the shuffled free nodes.
            let mut acc = 0u64;
            for &v in &perm {
                if acc * 2 >= total {
                    side[v] = true;
                } else {
                    acc += weight[v];
                }
            }
            for _ in 0..config.max_passes {
                match HeapPass::new(h, &incidence, weight, side.clone(), &anchored).run(min_w) {
                    Some(better) => side = better,
                    None => break,
                }
            }
            let cut = cut_size(h, &side);
            if best.as_ref().is_none_or(|b| cut < b.cut) {
                best = Some(Bipartition { side, cut });
            }
        }
        best.expect("at least one restart ran")
    }

    /// Two K4-ish clusters joined by a single bridge edge.
    fn two_clusters() -> Hypergraph {
        let mut edges = Vec::new();
        for base in [0, 4] {
            for i in 0..4 {
                for j in i + 1..4 {
                    edges.push(vec![base + i, base + j]);
                }
            }
        }
        edges.push(vec![3, 4]); // bridge
        Hypergraph::new(8, edges)
    }

    #[test]
    fn finds_the_bridge() {
        let h = two_clusters();
        let p = bipartition(&h, &FmConfig::default());
        assert_eq!(p.cut, 1, "the optimal bisection cuts only the bridge");
        assert_eq!(cut_size(&h, &p.side), p.cut);
        // Each cluster stays together.
        for base in [0, 4] {
            let s = p.side[base];
            for i in 0..4 {
                assert_eq!(p.side[base + i], s);
            }
        }
    }

    #[test]
    fn balance_respected() {
        let h = two_clusters();
        let p = bipartition(&h, &FmConfig::default());
        let left = p.side.iter().filter(|&&s| !s).count();
        assert!((3..=5).contains(&left), "left side has {left} of 8 nodes");
    }

    #[test]
    fn deterministic_for_seed() {
        let h = two_clusters();
        let a = bipartition(&h, &FmConfig::default());
        let b = bipartition(&h, &FmConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn hyperedge_cluster() {
        // Two 4-pin hyperedges sharing one node: cutting at the shared node
        // can achieve cut 1.
        let h = Hypergraph::new(7, vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6]]);
        let p = bipartition(&h, &FmConfig::default());
        assert!(p.cut <= 1, "cut {}", p.cut);
    }

    #[test]
    fn tiny_graphs() {
        let h0 = Hypergraph::new(0, vec![]);
        assert_eq!(bipartition(&h0, &FmConfig::default()).cut, 0);
        let h1 = Hypergraph::new(1, vec![]);
        assert_eq!(bipartition(&h1, &FmConfig::default()).side, vec![false]);
        let h2 = Hypergraph::new(2, vec![vec![0, 1]]);
        let p = bipartition(&h2, &FmConfig::default());
        assert_eq!(p.cut, 1);
        assert_ne!(p.side[0], p.side[1]);
    }

    #[test]
    fn cut_size_counts_spanning_edges() {
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![2, 3], vec![1, 2]]);
        assert_eq!(cut_size(&h, &[false, false, true, true]), 1);
        assert_eq!(cut_size(&h, &[false, true, false, true]), 3);
    }

    #[test]
    fn anchors_fix_orientation() {
        // A path 0-1-2-3-4-5 with node 0 anchored left, node 5 anchored
        // right: the split must separate low from high indices.
        let h = Hypergraph::new(6, (0..5).map(|i| vec![i, i + 1]).collect());
        let p = bipartition_anchored(&h, &[0], &[5], &FmConfig::default());
        assert!(!p.side[0] && p.side[5]);
        assert_eq!(p.cut, 1, "path with oriented anchors cuts one edge");
        // The sides are contiguous.
        let boundary: Vec<bool> = p.side.clone();
        let first_right = boundary.iter().position(|&s| s).expect("right side exists");
        assert!(boundary[first_right..].iter().all(|&s| s));
    }

    #[test]
    fn weights_shift_balance() {
        // 4 nodes in a path; node 0 weighs as much as the other three: a
        // balanced weighted split is {0} vs {1,2,3}.
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        let p = bipartition_weighted(&h, &[3, 1, 1, 1], &[], &[], &FmConfig::default());
        let heavy_side = p.side[0];
        let others = (1..4).filter(|&v| p.side[v] == heavy_side).count();
        assert!(others <= 1, "heavy node sits nearly alone: {:?}", p.side);
    }

    #[test]
    fn anchors_on_both_sides_rejected() {
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        let result =
            std::panic::catch_unwind(|| bipartition_anchored(&h, &[0], &[0], &FmConfig::default()));
        assert!(result.is_err());
    }

    /// A random weighted hypergraph on 2–200 nodes with up to two left
    /// and two right anchors. Like the terminal-propagation anchors of a
    /// recursion window, each anchor joins a large share of the edges, so
    /// its degree dwarfs the free nodes'.
    fn anchored_instance(n: usize, seed: u64) -> (Hypergraph, Vec<u64>, Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut below = |k: usize| rng.random_range(0..k);
        let mut nodes: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            nodes.swap(i, below(i + 1));
        }
        let anchors = below(5).min(n - 1);
        let (left, right) = nodes[..anchors].split_at(anchors / 2);
        let (left, right) = (left.to_vec(), right.to_vec());
        let mut edges = Vec::new();
        for _ in 0..n / 2 + below(2 * n) {
            let mut e: Vec<usize> = (0..2 + below(4)).map(|_| below(n)).collect();
            for &a in left.iter().chain(&right) {
                if below(3) != 0 {
                    e.push(a);
                }
            }
            e.sort_unstable();
            e.dedup();
            edges.push(e);
        }
        let weight = (0..n).map(|_| 1 + below(4) as u64).collect();
        (Hypergraph::new(n, edges), weight, left, right)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn bucket_kernel_matches_heap_reference(
            n in 2usize..=200,
            seed in any::<u64>(),
            restarts in 1usize..=4,
            max_passes in 1usize..=8,
            tolerance in 0usize..=3,
        ) {
            let (h, weight, left, right) = anchored_instance(n, seed);
            let config = FmConfig {
                max_passes,
                restarts,
                balance_tolerance: [0.0, 0.05, 0.1, 0.3][tolerance],
                seed,
            };
            let got = bipartition_weighted(&h, &weight, &left, &right, &config);
            let want = reference_bipartition_weighted(&h, &weight, &left, &right, &config);
            prop_assert_eq!(got, want);
        }
    }
}

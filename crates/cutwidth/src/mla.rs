//! Approximate min-cut linear arrangement (MLA) by recursive bisection —
//! the paper's cut-width estimation procedure (Section 5.2.1).
//!
//! "This algorithm generates a placement based on recursive mincut
//! bipartitioning, until the partitions are sufficiently small and then
//! performs an exact MLA for each of these partitions." We use the
//! from-scratch FM bipartitioner of [`crate::fm`] in place of hMETIS and
//! the subset-DP of [`crate::exact`] at the leaves.

use atpg_easy_netlist::Netlist;

use crate::fm::{Fm, FmConfig};
use crate::graph::Graph;
use crate::ordering::cutwidth;
use crate::{exact, multilevel, Hypergraph};

/// Configuration for [`arrange`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlaConfig {
    /// FM settings used at every bisection level.
    pub fm: FmConfig,
    /// Partitions of at most this many nodes are solved exactly.
    pub leaf_size: usize,
}

impl Default for MlaConfig {
    fn default() -> Self {
        MlaConfig {
            fm: FmConfig::default(),
            leaf_size: 12,
        }
    }
}

/// Region of a node during the recursive layout, for terminal
/// propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    /// Already emitted (lies to the left of the active window).
    Left,
    /// Currently being arranged.
    Active,
    /// Pending (will be emitted after the active window).
    Right,
}

/// Produces a linear arrangement of the hypergraph nodes approximating the
/// min-cut linear arrangement.
///
/// Terminal propagation is applied throughout: at every bisection, edges
/// leaving the active window toward already-placed (left) or pending
/// (right) nodes are represented by anchored pseudo-nodes, so sub-block
/// orientation stays consistent with the global layout.
///
/// # Panics
///
/// Panics if `config.leaf_size` exceeds [`exact::MAX_EXACT_NODES`]` − 2`
/// or is 0 (two slots are reserved for the anchors).
pub fn arrange(h: &Hypergraph, config: &MlaConfig) -> Vec<usize> {
    assert!(
        (1..=exact::MAX_EXACT_NODES - 2).contains(&config.leaf_size),
        "leaf_size must be in 1..={}",
        exact::MAX_EXACT_NODES - 2
    );
    let n = h.num_nodes();
    let mut a = Arranger {
        root: Graph::from_hypergraph(h),
        config,
        region: vec![Region::Active; n],
        local: vec![0; n],
        edges: Vec::new(),
        sub: Graph::default(),
        masks: Vec::new(),
        leaf: Vec::new(),
        fm: Fm::default(),
        tables: exact::Tables::default(),
        out: Vec::with_capacity(n),
    };
    let all: Vec<usize> = (0..n).collect();
    a.recurse(&all, config.fm.seed);
    a.out
}

/// The recursion's state and the scratch buffers its windows share.
struct Arranger<'a> {
    root: Graph,
    config: &'a MlaConfig,
    /// Exactly the current window's nodes are `Active`.
    region: Vec<Region>,
    /// Root node → index in the current window.
    local: Vec<usize>,
    /// Root edges touching the current window, ascending.
    edges: Vec<usize>,
    sub: Graph,
    masks: Vec<u32>,
    leaf: Vec<usize>,
    fm: Fm,
    tables: exact::Tables,
    out: Vec<usize>,
}

impl Arranger<'_> {
    /// Collects the root edges incident to the window `nodes`, in
    /// ascending order, and numbers the window's nodes locally. The
    /// window's anchors are local nodes `n` (left) and `n + 1` (right).
    fn gather(&mut self, nodes: &[usize]) {
        self.edges.clear();
        for (i, &v) in nodes.iter().enumerate() {
            self.local[v] = i;
            self.edges.extend_from_slice(self.root.incident(v));
        }
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// The local pin of root node `u` in a window of `n` nodes: itself
    /// when active, else the anchor on its side.
    fn pin(&self, u: usize, n: usize) -> usize {
        match self.region[u] {
            Region::Active => self.local[u],
            Region::Left => n,
            Region::Right => n + 1,
        }
    }

    /// Builds the window's sub-hypergraph: each gathered edge keeps its
    /// active pins in root order, followed by the left and then the right
    /// anchor when it leaves the window on that side.
    fn induce(&mut self, n: usize) {
        self.sub.reset(n + 2);
        for &e in &self.edges {
            let (mut to_l, mut to_r) = (false, false);
            for &u in self.root.edge(e) {
                match self.region[u] {
                    Region::Active => self.sub.push_pin(self.local[u]),
                    Region::Left => to_l = true,
                    Region::Right => to_r = true,
                }
            }
            if to_l {
                self.sub.push_pin(n);
            }
            if to_r {
                self.sub.push_pin(n + 1);
            }
            self.sub.end_edge();
        }
        self.sub.index();
    }

    fn recurse(&mut self, nodes: &[usize], seed: u64) {
        if nodes.is_empty() {
            return;
        }
        let n = nodes.len();
        self.gather(nodes);
        if n <= self.config.leaf_size {
            // Exact leaf; the anchors are pinned to the window ends.
            self.masks.clear();
            for &e in &self.edges {
                let m = self
                    .root
                    .edge(e)
                    .iter()
                    .fold(0u32, |m, &u| m | 1 << self.pin(u, n));
                self.masks.push(m);
            }
            self.tables
                .solve(n + 2, &self.masks, Some(n), Some(n + 1), &mut self.leaf);
            for &v in &self.leaf {
                if v < n {
                    self.out.push(nodes[v]);
                    self.region[nodes[v]] = Region::Left;
                }
            }
            return;
        }
        self.induce(n);
        let mut fm = self.config.fm;
        fm.seed = seed;
        // Both anchor slots are pinned, used or not, so they never wander
        // into the balance accounting.
        let side = multilevel::bisect(&mut self.fm, &self.sub, &[n], &[n + 1], &fm);
        let (mut left, mut right): (Vec<usize>, Vec<usize>) =
            nodes.iter().partition(|&&v| !side[self.local[v]]);
        // FM keeps both sides non-empty for n ≥ 2, but guard against collapse.
        if left.is_empty() || right.is_empty() {
            let mid = n / 2;
            left = nodes[..mid].to_vec();
            right = nodes[mid..].to_vec();
        }
        for &v in &right {
            self.region[v] = Region::Right;
        }
        self.recurse(&left, seed.wrapping_mul(0x9E3779B9).wrapping_add(1));
        for &v in &right {
            self.region[v] = Region::Active;
        }
        self.recurse(&right, seed.wrapping_mul(0x9E3779B9).wrapping_add(2));
    }
}

/// Estimated minimum cut-width of a hypergraph: the cut-width under the
/// arrangement of [`arrange`].
pub fn estimate_cutwidth(h: &Hypergraph, config: &MlaConfig) -> (usize, Vec<usize>) {
    let order = arrange(h, config);
    (cutwidth(h, &order), order)
}

/// Estimated minimum cut-width of a circuit (via
/// [`Hypergraph::from_netlist`]).
pub fn netlist_cutwidth(nl: &Netlist, config: &MlaConfig) -> usize {
    let h = Hypergraph::from_netlist(nl);
    estimate_cutwidth(&h, config).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Hypergraph {
        Hypergraph::new(n, (0..n - 1).map(|i| vec![i, i + 1]).collect())
    }

    #[test]
    fn path_stays_narrow() {
        // The true cut-width of a path is 1; recursive bisection should get
        // close (within a small constant) even for longer paths.
        let h = path(64);
        let (w, order) = estimate_cutwidth(&h, &MlaConfig::default());
        assert_eq!(order.len(), 64);
        assert!(w <= 4, "estimated width {w} too far from optimum 1");
    }

    #[test]
    fn order_is_permutation() {
        let h = path(40);
        let order = arrange(&h, &MlaConfig::default());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn exact_at_leaf_sizes() {
        // With n ≤ leaf_size the result equals the exact optimum.
        let h = Hypergraph::new(
            6,
            vec![
                vec![0, 1],
                vec![1, 2],
                vec![2, 3],
                vec![3, 4],
                vec![4, 5],
                vec![5, 0],
            ],
        );
        let (w, _) = estimate_cutwidth(&h, &MlaConfig::default());
        assert_eq!(w, 2, "cycle of 6 has min cut-width 2");
    }

    #[test]
    fn grid_width_reasonable() {
        // 6x6 grid graph: optimal cut-width is 7 (n+1); estimate must be
        // within a small factor.
        let n = 6;
        let idx = |r: usize, c: usize| r * n + c;
        let mut edges = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if c + 1 < n {
                    edges.push(vec![idx(r, c), idx(r, c + 1)]);
                }
                if r + 1 < n {
                    edges.push(vec![idx(r, c), idx(r + 1, c)]);
                }
            }
        }
        let h = Hypergraph::new(n * n, edges);
        let (w, _) = estimate_cutwidth(&h, &MlaConfig::default());
        assert!((6..=14).contains(&w), "6x6 grid estimate {w}");
    }

    #[test]
    fn netlist_convenience() {
        use atpg_easy_netlist::{GateKind, Netlist};
        let mut nl = Netlist::new("chain");
        let mut cur = nl.add_input("x");
        for i in 0..10 {
            cur = nl
                .add_gate_named(GateKind::Not, vec![cur], format!("n{i}"))
                .unwrap();
        }
        nl.add_output(cur);
        let w = netlist_cutwidth(&nl, &MlaConfig::default());
        assert!(w <= 3, "inverter chain is a path, got {w}");
    }

    #[test]
    #[should_panic(expected = "leaf_size")]
    fn bad_leaf_size_panics() {
        let h = path(4);
        let cfg = MlaConfig {
            leaf_size: 0,
            ..MlaConfig::default()
        };
        arrange(&h, &cfg);
    }
}

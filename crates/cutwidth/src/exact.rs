//! Exact minimum cut-width by subset dynamic programming.
//!
//! The min-cut linear arrangement problem is NP-complete; for the small
//! partitions at the leaves of the recursive-bisection MLA (Section 5.2.1
//! of the paper, following Hochbaum's framework) an exact solution is
//! affordable: Held–Karp-style DP over node subsets,
//! `f(S) = max(cut(S), min_{v∈S} f(S∖{v}))`,
//! where `cut(S)` is the number of hyperedges spanning `S` and its
//! complement. Time `O(2ⁿ·(n+m))`, practical to `n ≈ 20`.

use crate::Hypergraph;

/// Hard cap on the node count accepted by [`min_cutwidth`].
pub const MAX_EXACT_NODES: usize = 24;

/// Computes the exact minimum cut-width and an optimal ordering.
///
/// # Panics
///
/// Panics if `h.num_nodes() > MAX_EXACT_NODES` (the DP table would not
/// fit); use [`crate::mla`] for larger graphs.
pub fn min_cutwidth(h: &Hypergraph) -> (usize, Vec<usize>) {
    min_cutwidth_anchored(h, None, None)
}

/// Exact minimum cut-width with optional anchored end nodes: `first` is
/// forced to the leftmost position and `last` to the rightmost. Used by
/// the recursive MLA for terminal propagation — the anchors summarize the
/// already-placed left context and the pending right context.
///
/// # Panics
///
/// Panics if the graph is too large (see [`MAX_EXACT_NODES`]), an anchor
/// is out of range, or `first == last` with more than one node.
pub fn min_cutwidth_anchored(
    h: &Hypergraph,
    first: Option<usize>,
    last: Option<usize>,
) -> (usize, Vec<usize>) {
    let n = h.num_nodes();
    assert!(
        n <= MAX_EXACT_NODES,
        "exact cut-width limited to {MAX_EXACT_NODES} nodes, got {n}"
    );
    let masks: Vec<u32> = h
        .edges()
        .iter()
        .map(|e| e.iter().fold(0u32, |m, &v| m | 1 << v))
        .collect();
    let mut order = Vec::new();
    let w = Tables::default().solve(n, &masks, first, last, &mut order);
    (w, order)
}

/// The DP tables, kept between solves so the recursive MLA's leaves
/// allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    /// `best[S]`: minimum cut-width of an arrangement of prefix `S`.
    best: Vec<u16>,
    /// `choice[S]`: the node placed last in that arrangement.
    choice: Vec<u8>,
}

impl Tables {
    /// Solves the anchored problem on `n` nodes whose edges are the node
    /// bitmasks `masks`, writing an optimal order into `order` and
    /// returning its cut-width.
    ///
    /// Only prefixes that contain `first` and exclude `last` can start an
    /// anchored arrangement, so the DP visits just those — the subsets of
    /// the other nodes, each joined with `first`, in ascending order — and
    /// closes with the full set, which only `last` can complete. Every
    /// table entry it reads was written earlier in the same solve.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_EXACT_NODES`, or `n > 0` and an anchor is out of
    /// range or `first == last` with more than one node.
    pub(crate) fn solve(
        &mut self,
        n: usize,
        masks: &[u32],
        first: Option<usize>,
        last: Option<usize>,
        order: &mut Vec<usize>,
    ) -> usize {
        assert!(
            n <= MAX_EXACT_NODES,
            "exact cut-width limited to {MAX_EXACT_NODES} nodes"
        );
        order.clear();
        if n == 0 {
            return 0;
        }
        let bit = |a: Option<usize>, what: &str| {
            a.map_or(0u32, |v| {
                assert!(v < n, "{what} anchor out of range");
                1 << v
            })
        };
        let first_bit = bit(first, "first");
        let last_bit = bit(last, "last");
        assert!(
            first_bit == 0 || first_bit != last_bit || n == 1,
            "first and last anchors must differ"
        );
        if n == 1 {
            order.push(0);
            return 0;
        }
        let full: u32 = (1 << n) - 1;
        let free = full & !first_bit & !last_bit;
        if self.best.len() < 1 << n {
            self.best.resize(1 << n, 0);
            self.choice.resize(1 << n, 0);
        }
        self.best[0] = 0;
        // Ascending submasks `t` of `free`.
        let mut t = 0u32;
        loop {
            let s = t | first_bit;
            if s != 0 {
                self.relax(s, full, masks, first_bit);
            }
            if t == free {
                break;
            }
            t = (t | !free).wrapping_add(1) & free;
        }
        if last_bit != 0 {
            // Only `last` may close the arrangement; the full set cuts
            // nothing.
            self.best[full as usize] = self.best[(full & !last_bit) as usize];
            self.choice[full as usize] = last_bit.trailing_zeros() as u8;
        }

        // Reconstruct: choice[S] is the node placed *last* in prefix S.
        order.resize(n, 0);
        let mut s = full;
        for p in (0..n).rev() {
            let v = usize::from(self.choice[s as usize]);
            order[p] = v;
            s &= !(1 << v);
        }
        usize::from(self.best[full as usize])
    }

    /// `f(S) = max(cut(S), min_{v} f(S∖{v}))` over the nodes `v` that may
    /// be placed last in `S` (not `first`, unless `S` is `{first}`); ties
    /// go to the lowest `v`.
    fn relax(&mut self, s: u32, full: u32, masks: &[u32], first_bit: u32) {
        let cut = masks
            .iter()
            .filter(|&&m| m & s != 0 && m & !s & full != 0)
            .count();
        let mut inner = u16::MAX;
        let mut pick = 0u8;
        let mut rest = if s == first_bit { s } else { s & !first_bit };
        while rest != 0 {
            let v = rest.trailing_zeros();
            rest &= rest - 1;
            let prev = self.best[(s & !(1 << v)) as usize];
            if prev < inner {
                inner = prev;
                pick = v as u8;
            }
        }
        self.best[s as usize] = inner.max(u16::try_from(cut).expect("at most 65535 edges"));
        self.choice[s as usize] = pick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::cutwidth;
    use proptest::prelude::*;

    #[test]
    fn path_is_width_one() {
        let h = Hypergraph::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        let (w, order) = min_cutwidth(&h);
        assert_eq!(w, 1);
        assert_eq!(cutwidth(&h, &order), 1);
    }

    #[test]
    fn cycle_is_width_two() {
        let h = Hypergraph::new(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]],
        );
        let (w, order) = min_cutwidth(&h);
        assert_eq!(w, 2);
        assert_eq!(cutwidth(&h, &order), 2);
    }

    #[test]
    fn complete_graph_k4() {
        // K4 has minimum cut-width 4 (max cut at the middle: 2·2 = 4).
        let mut edges = Vec::new();
        for i in 0..4 {
            for j in i + 1..4 {
                edges.push(vec![i, j]);
            }
        }
        let h = Hypergraph::new(4, edges);
        let (w, _) = min_cutwidth(&h);
        assert_eq!(w, 4);
    }

    #[test]
    fn star_width_matches_degree_split() {
        // Star K1,4 as five 2-pin edges... center 0, leaves 1..=4.
        // Optimal: place two leaves, center, two leaves → width 2.
        let h = Hypergraph::new(5, (1..5).map(|l| vec![0, l]).collect::<Vec<_>>());
        let (w, order) = min_cutwidth(&h);
        assert_eq!(w, 2);
        assert_eq!(cutwidth(&h, &order), 2);
    }

    #[test]
    fn hyperedge_star_width_one() {
        // The same star as ONE 5-pin hyperedge has width 1: a hyperedge
        // crosses each cut at most once. This is why nets, not wires, are
        // the right model (paper Definition 4.1).
        let h = Hypergraph::new(5, vec![vec![0, 1, 2, 3, 4]]);
        let (w, _) = min_cutwidth(&h);
        assert_eq!(w, 1);
    }

    #[test]
    fn returned_order_is_optimal_small_random() {
        // Brute-force cross-check on all permutations of 6 nodes.
        let h = Hypergraph::new(
            6,
            vec![
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5],
                vec![0, 5],
                vec![1, 4],
            ],
        );
        let (w, order) = min_cutwidth(&h);
        assert_eq!(cutwidth(&h, &order), w);
        let mut best = usize::MAX;
        let mut perm: Vec<usize> = (0..6).collect();
        permute(&mut perm, 0, &mut |p| best = best.min(cutwidth(&h, p)));
        assert_eq!(w, best);
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn empty_graph() {
        let h = Hypergraph::new(0, vec![]);
        let (w, order) = min_cutwidth(&h);
        assert_eq!(w, 0);
        assert!(order.is_empty());
    }

    #[test]
    #[should_panic(expected = "exact cut-width limited")]
    fn too_large_panics() {
        let h = Hypergraph::new(MAX_EXACT_NODES + 1, vec![]);
        min_cutwidth(&h);
    }

    /// The anchors of each case on `n` nodes: none, first only, last only,
    /// both.
    fn anchors(case: usize, n: usize) -> (Option<usize>, Option<usize>) {
        let (first, last) = (Some(n / 3), Some(n - 1 - n / 4));
        match case {
            0 => (None, None),
            1 => (first, None),
            2 => (None, last),
            _ => (first, last),
        }
    }

    /// Minimum cut-width over every permutation respecting the anchors.
    fn brute_force(h: &Hypergraph, first: Option<usize>, last: Option<usize>) -> usize {
        let n = h.num_nodes();
        let mut best = usize::MAX;
        let mut perm: Vec<usize> = (0..n).collect();
        permute(&mut perm, 0, &mut |p| {
            if first.is_none_or(|f| p[0] == f) && last.is_none_or(|l| p[n - 1] == l) {
                best = best.min(cutwidth(h, p));
            }
        });
        best
    }

    /// Checks optimality, permutation validity and anchor placement.
    fn check(h: &Hypergraph, first: Option<usize>, last: Option<usize>) {
        let n = h.num_nodes();
        let (w, order) = min_cutwidth_anchored(h, first, last);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "not a permutation");
        assert_eq!(cutwidth(h, &order), w, "reported width is not the order's");
        assert_eq!(w, brute_force(h, first, last), "not optimal");
        if let Some(f) = first {
            assert_eq!(order[0], f, "first anchor misplaced");
        }
        if let Some(l) = last {
            assert_eq!(order[n - 1], l, "last anchor misplaced");
        }
    }

    #[test]
    fn single_node_with_first_equal_last() {
        let h = Hypergraph::new(1, vec![vec![0]]);
        assert_eq!(min_cutwidth_anchored(&h, Some(0), Some(0)), (0, vec![0]));
        check(&h, Some(0), None);
        check(&h, None, Some(0));
    }

    #[test]
    fn two_nodes_under_every_anchoring() {
        let h = Hypergraph::new(2, vec![vec![0, 1]]);
        for (first, last) in [
            (None, None),
            (Some(0), None),
            (Some(1), None),
            (None, Some(0)),
            (None, Some(1)),
            (Some(0), Some(1)),
            (Some(1), Some(0)),
        ] {
            check(&h, first, last);
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn equal_anchors_rejected() {
        let h = Hypergraph::new(2, vec![vec![0, 1]]);
        min_cutwidth_anchored(&h, Some(1), Some(1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn anchored_dp_matches_brute_force(
            n in 1usize..=7,
            case in 0usize..4,
            edges in prop::collection::vec(prop::collection::vec(0usize..7, 1..5), 0..12),
        ) {
            let edges = edges
                .into_iter()
                .map(|e| {
                    let mut e: Vec<usize> = e.into_iter().map(|v| v % n).collect();
                    e.sort_unstable();
                    e.dedup();
                    e
                })
                .collect();
            let h = Hypergraph::new(n, edges);
            let (first, last) = anchors(case, n);
            check(&h, first, last);
        }
    }
}
